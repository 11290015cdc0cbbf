"""Dense complex matrix helpers and the shared matrix JSON format.

A Hamiltonian is represented as a plain ``numpy.ndarray`` of shape
``(n, n)`` and dtype ``complex128``.  The JSON wire format used across the
whole package is::

    { "dim": n, "entries": [ [ [re, im], ... ], ... ] }

with ``entries`` row-major.  Parsers reject non-square and non-finite data.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FamilyFormatError, NonFiniteMatrixError

__all__ = [
    "as_matrix",
    "as_scaled_matrix",
    "dagger",
    "frob",
    "matrix_from_json",
    "matrix_to_json",
    "parse_matrix",
    "dump_matrix",
]


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a finite square complex matrix.

    Raises ``ValueError`` for non-square input and
    ``NonFiniteMatrixError`` for NaN/Inf entries.
    """
    H = np.asarray(data, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise NonFiniteMatrixError("matrix contains non-finite entries")
    return H


def as_scaled_matrix(data) -> np.ndarray:
    """:func:`as_matrix`, rescaled when ``|H|_F^2`` would leave the normal range.

    The rescale is :func:`scaled_stack` with ``degree = 2``.  Whatever is
    homogeneous of degree 0 in ``H`` -- class verdicts, witnesses, relative
    residuals -- is the same for the result.
    """
    return scaled_stack(as_matrix(data))


def scaled_stack(stack: np.ndarray, degree: int = 2) -> np.ndarray:
    """A validated matrix or ``(m, n, n)`` stack, rescaled when ``|H|_F^degree``
    would leave the normal range.

    ``|H|_F^d <= (sqrt(2) n m)^d``, with ``m`` the largest real or imaginary
    part of an entry of the stack, is finite and normal when
    ``2**(-1022/d) <= m <= 2**(1023/d - 1/2) / n`` (for ``d = 2``:
    ``2**-511 <= m <= 2**511 / n``).  Outside that range the whole stack is
    multiplied by the one exact power of two that brings ``m`` into
    ``[1/2, 1)``; inside it the stack is returned as it is.
    """
    m = max(np.abs(stack.real).max(), np.abs(stack.imag).max())
    lo, hi = _normal_window(stack.shape[-1], degree)
    if m != 0 and not lo <= m <= hi:
        stack = ldexp_complex(stack, -np.frexp(m)[1])
    return stack


def _normal_window(n: int, degree: int) -> tuple[float, float]:
    """The range of ``m`` in which :func:`scaled_stack` leaves a stack as it is."""
    return 2.0 ** (-1022 / degree), 2.0 ** (1023 / degree - 0.5) / n


def scale_exponents(stack: np.ndarray, degree: int = 2) -> np.ndarray:
    """The exponent of the :func:`scaled_stack` rule for each matrix of an
    ``(m, n, n)`` stack on its own: ``e`` with ``2**e`` times the largest
    real or imaginary part in ``[1/2, 1)``, or 0 for a matrix in range."""
    m = np.maximum(np.abs(stack.real).max(axis=(-2, -1)),
                   np.abs(stack.imag).max(axis=(-2, -1)))
    lo, hi = _normal_window(stack.shape[-1], degree)
    return np.where((m == 0) | ((lo <= m) & (m <= hi)), 0, -np.frexp(m)[1])


def ldexp_complex(Z: np.ndarray, e) -> np.ndarray:
    """``Z * 2**e``, taken on the real and imaginary parts, so it is exact
    unless a part leaves the normal range; ``e`` broadcasts against ``Z``."""
    out = np.empty_like(Z)
    out.real, out.imag = np.ldexp(Z.real, e), np.ldexp(Z.imag, e)
    return out


def dagger(H: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return H.conj().T


def frob(H: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(H))


def is_json_int(v) -> bool:
    """Whether a decoded JSON value is an integer (``true``/``false`` are not)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_json_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def matrix_from_json(doc: dict) -> np.ndarray:
    """Build a matrix from a decoded JSON document."""
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise FamilyFormatError("matrix document needs 'dim' and 'entries'")
    n = doc["dim"]
    if not is_json_int(n) or n < 1:
        raise FamilyFormatError(f"'dim' must be a positive integer, got {n!r}")
    entries = doc["entries"]
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(row, list) or len(row) != n for row in entries)
    ):
        raise FamilyFormatError(f"'entries' is not a {n}x{n} grid")
    for row in entries:
        for c in row:
            pair = isinstance(c, list) and len(c) == 2
            if not (pair and all(map(_is_json_number, c))):
                raise FamilyFormatError(
                    f"matrix entry {c!r} is not a [re, im] pair of numbers"
                )
    try:
        H = np.array(
            [[complex(re, im) for re, im in row] for row in entries], dtype=complex
        )
    except OverflowError as exc:
        raise FamilyFormatError(f"bad entry in matrix document: {exc}") from exc
    try:
        return as_matrix(H)
    except (ValueError, NonFiniteMatrixError) as exc:
        raise FamilyFormatError(str(exc)) from exc


def matrix_to_json(H: np.ndarray) -> dict:
    """Serialize a matrix to the shared JSON document form."""
    H = np.asarray(H, dtype=complex)
    return {
        "dim": int(H.shape[0]),
        "entries": [[[float(c.real), float(c.imag)] for c in row] for row in H],
    }


def parse_matrix(text: str | bytes) -> np.ndarray:
    """Parse a matrix from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"invalid JSON: {exc}") from exc
    return matrix_from_json(doc)


def dump_matrix(H: np.ndarray) -> str:
    return json.dumps(matrix_to_json(H))
