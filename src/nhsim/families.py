"""Polynomial matrix families over real parameters.

A family is ``H(lam) = sum_t M_t * prod_i lam_i**e_{t,i}`` with complex
coefficient matrices ``M_t`` and nonnegative integer exponents.  The JSON
schema is::

    { "dim": n, "params": d,
      "terms": [ { "matrix": <matrix JSON>, "exponents": [e1..ed] }, ... ] }

An optional ``"param_names"`` list labels the parameters (used by the CLI
grid syntax); it defaults to ``p1..pd``.  Families are immutable after
parsing.  Transcendental parameter dependence is deliberately out of
scope: every example in the theory this feeds is polynomial, and
polynomial terms keep the finite-difference Jacobians well-behaved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import FamilyFormatError, NonFiniteMatrixError
from .matrices import is_json_int, matrix_from_json, matrix_to_json

__all__ = [
    "MatrixFamily",
    "parse_family",
    "family_from_json",
    "family_to_json",
    "constraint_jacobian",
    "constraint_jacobians",
]

DEFAULT_FD_STEP = 1e-6


@dataclass(frozen=True)
class MatrixFamily:
    """Polynomial family of square complex matrices."""

    dim: int
    num_params: int
    terms: tuple[tuple[np.ndarray, tuple[int, ...]], ...]
    param_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.terms:
            raise FamilyFormatError("family needs at least one term")
        names = self.param_names or tuple(
            f"p{i + 1}" for i in range(self.num_params)
        )
        if len(names) != self.num_params:
            raise FamilyFormatError(
                f"{len(names)} parameter names for {self.num_params} parameters"
            )
        object.__setattr__(self, "param_names", names)

    def evaluate(self, lam) -> np.ndarray:
        """Evaluate ``H(lam)`` by direct polynomial summation."""
        return self.evaluate_batch(np.asarray(lam, dtype=float).reshape(1, -1))[0]

    def evaluate_batch(self, lams) -> np.ndarray:
        """Evaluate a stack of points, ``(N, d) -> (N, n, n)``, as a new array.

        This is the family's one evaluation: :meth:`evaluate` takes a row
        of it, and ``ConstraintSystem.evaluate_many`` calls it per block.
        Each row is bit for bit what a one-point batch gives, whatever the
        other rows: terms are summed in order and each coefficient is the
        product of its powers in parameter order.  Powers ``e >= 2`` are taken one
        scalar at a time, because numpy's array power differs from the
        scalar ``pow`` in the last bit for some inputs.  The points are
        checked by :meth:`_points` (``ValueError`` for another shape,
        ``NonFiniteMatrixError`` if any point is not finite); a value that
        overflows comes back non-finite, and every caller checks for that.
        """
        lams = self._points(lams)
        H = np.zeros((len(lams), self.dim, self.dim), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for M, exps in self.terms:
                coeff = np.ones(len(lams))
                for col, e in zip(lams.T, exps):
                    if e == 1:
                        coeff *= col
                    elif e:
                        coeff *= [x**e for x in col]
                H += coeff[:, None, None] * M
        return H

    def _points(self, lams) -> np.ndarray:
        """``lams`` as a float ``(N, num_params)`` array; ``ValueError`` for
        another shape, ``NonFiniteMatrixError`` if any point is not finite."""
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 2 or lams.shape[1] != self.num_params:
            raise ValueError(
                f"family has {self.num_params} parameters, "
                f"got points of shape {lams.shape}"
            )
        if not np.isfinite(lams).all():
            raise NonFiniteMatrixError("non-finite parameter point")
        return lams

    __call__ = evaluate

    def to_json(self) -> dict:
        return family_to_json(self)


def family_from_json(doc: dict) -> MatrixFamily:
    """Validate and build a family from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise FamilyFormatError("family document must be a JSON object")
    for key in ("dim", "params", "terms"):
        if key not in doc:
            raise FamilyFormatError(f"family document missing '{key}'")
    n, d = doc["dim"], doc["params"]
    if not is_json_int(n) or n < 1:
        raise FamilyFormatError(f"'dim' must be a positive integer, got {n!r}")
    if not is_json_int(d) or d < 0:
        raise FamilyFormatError(f"'params' must be a nonnegative integer, got {d!r}")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list) or not raw_terms:
        raise FamilyFormatError("'terms' must be a nonempty list")
    terms = []
    for t, term in enumerate(raw_terms):
        where = f"terms[{t}]"
        if not isinstance(term, dict) or "matrix" not in term or "exponents" not in term:
            raise FamilyFormatError(f"{where} needs 'matrix' and 'exponents'")
        try:
            M = matrix_from_json(term["matrix"])
        except FamilyFormatError as exc:
            raise FamilyFormatError(f"{where}.matrix: {exc}") from exc
        if M.shape[0] != n:
            raise FamilyFormatError(
                f"{where}.matrix is {M.shape[0]}x{M.shape[0]}, family dim is {n}"
            )
        exps = term["exponents"]
        if not isinstance(exps, list) or len(exps) != d:
            raise FamilyFormatError(
                f"{where}.exponents must list {d} entries, got {exps!r}"
            )
        for i, e in enumerate(exps):
            if not is_json_int(e) or e < 0:
                raise FamilyFormatError(
                    f"{where}.exponents[{i}] must be a nonnegative integer, got {e!r}"
                )
        terms.append((M, tuple(exps)))
    names = doc.get("param_names")
    if names is not None:
        if (
            not isinstance(names, list)
            or len(names) != d
            or not all(isinstance(s, str) and s for s in names)
        ):
            raise FamilyFormatError(f"'param_names' must list {d} nonempty strings")
        names = tuple(names)
    else:
        names = ()
    return MatrixFamily(dim=n, num_params=d, terms=tuple(terms), param_names=names)


def parse_family(text: str | bytes) -> MatrixFamily:
    """Parse a family from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"invalid JSON: {exc}") from exc
    return family_from_json(doc)


def family_to_json(f: MatrixFamily) -> dict:
    return {
        "dim": f.dim,
        "params": f.num_params,
        "terms": [
            {"matrix": matrix_to_json(M), "exponents": list(exps)}
            for M, exps in f.terms
        ],
        "param_names": list(f.param_names),
    }


def constraint_jacobian(g, lam0, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a real vector function of ``lam``.

    Per-coordinate step ``h_i = h * max(1, |lam_i|)``; O(h^2) accurate on
    smooth functions.  ``g`` maps one point to one vector; it is called at
    each of the ``2d`` difference points of :func:`constraint_jacobians`.
    Raises ``NonFiniteMatrixError`` when ``g`` produces non-finite values
    near ``lam0``.
    """
    lam0 = np.asarray(lam0, dtype=float).ravel()
    if lam0.size == 0:
        return np.zeros((np.atleast_1d(g(lam0)).size, 0))

    def g_many(pts):
        return np.array([np.atleast_1d(np.asarray(g(p), dtype=float)) for p in pts])

    return constraint_jacobians(g_many, lam0[None], h)[0]


def constraint_jacobians(g_many, lams, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Jacobians at a stack of points, ``(S, d) -> (S, k, d)``.

    ``g_many`` maps an ``(M, d)`` stack of points to an ``(M, k)`` array;
    the ``2dS`` difference points of all ``S`` Jacobians are evaluated in
    one call, so each Jacobian is bit for bit the one
    :func:`constraint_jacobian` gives at its point when ``g_many``
    evaluates rows independently.  Raises ``NonFiniteMatrixError`` when
    any Jacobian is not finite.
    """
    lams = np.asarray(lams, dtype=float)
    S, d = lams.shape
    steps = h * np.maximum(1.0, np.abs(lams))
    # rows 2i and 2i + 1 of point s are lam_s + h_i e_i and lam_s - h_i e_i
    pts = np.repeat(lams[:, None], 2 * d, axis=1)
    i = np.arange(d)
    pts[:, 2 * i, i] += steps
    pts[:, 2 * i + 1, i] -= steps
    G = np.asarray(g_many(pts.reshape(-1, d)), dtype=float).reshape(S, 2 * d, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        J = ((G[:, 0::2] - G[:, 1::2]) / (2 * steps)[:, :, None]).transpose(0, 2, 1)
    if not np.all(np.isfinite(J)):
        raise NonFiniteMatrixError("non-finite constraint values near the point")
    return J
