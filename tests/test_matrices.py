"""Validation and rescaling of input matrices: :func:`as_matrix` and
:func:`as_scaled_matrix`, and the non-finite rejection of the entry points
that go through them."""

import numpy as np
import pytest

from nhsim.classes import SimilarityClass, classify, generate_random, witness_residual
from nhsim.errors import NonFiniteMatrixError
from nhsim.matrices import as_matrix, as_scaled_matrix, ldexp_complex
from nhsim.specht import check_similarity_implies_symmetry_2x2

PH = SimilarityClass.PSEUDO_HERMITIAN
CH = SimilarityClass.CHIRAL


# ---------------------------------------------------------------------------
# the two-pass route that as_scaled_matrix replaced: as_matrix's isfinite
# pass, then scaled_stack's range pass


def _two_pass_as_matrix(data):
    H = np.asarray(data, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(H).all():
        raise NonFiniteMatrixError("matrix contains non-finite entries")
    return H


def _two_pass_scaled_stack(stack, degree=2):
    m = max(np.abs(stack.real).max(), np.abs(stack.imag).max())
    lo, hi = 2.0 ** (-1022 / degree), 2.0 ** (1023 / degree - 0.5) / stack.shape[-1]
    if m != 0 and not lo <= m <= hi:
        stack = ldexp_complex(stack, -np.frexp(m)[1])
    return stack


def _two_pass_as_scaled_matrix(data):
    return _two_pass_scaled_stack(_two_pass_as_matrix(data))


def _scale_corpus():
    """Matrices n = 1..12 at scales 1, 2^+-600 and 2^+-1000, with -0.0 and
    subnormal entries, real and imaginary ones only, zero matrices, and the
    edges of the range for n = 2; plus lists, integer and real arrays, and a
    transposed view."""
    rng = np.random.default_rng(21)
    out = []
    for n in range(1, 13):
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        signed = H.copy()
        signed.real[rng.random((n, n)) < 0.5] = -0.0
        signed.imag[rng.random((n, n)) < 0.5] = -0.0
        tiny = H * 5e-324 * rng.integers(0, 4, (n, n))  # subnormal entries
        mixed = H.copy()
        mixed[rng.random((n, n)) < 0.5] *= 5e-320
        for M in (H, signed, H.real + 0j, 1j * H.imag, mixed):
            out += [ldexp_complex(M, e) for e in (0, 600, -600, 1000, -1000)]
        out += [tiny, np.zeros((n, n), dtype=complex), np.full((n, n), -0.0 - 0.0j)]
    for m in (2.0**-511, 2.0**511 / 2, np.nextafter(2.0**-511, 0),
              np.nextafter(2.0**511 / 2, np.inf), np.finfo(float).max):
        out += [np.array([[m, 0], [0, -m]], dtype=complex),
                np.array([[0, 1j * m], [0.5, 0]])]
    out += [[[1, 2], [3, 4]], np.array([[1, 2], [3, 4]]), np.eye(3),
            (rng.standard_normal((3, 3)) + 1j).T, [[-0.0]]]
    return out


def test_one_pass_as_scaled_matrix_keeps_the_two_pass_bytes():
    rescaled = 0
    for i, H in enumerate(_scale_corpus()):
        got, want = as_scaled_matrix(H), _two_pass_as_scaled_matrix(H)
        assert got.dtype == want.dtype and got.shape == want.shape, i
        assert got.tobytes() == want.tobytes(), i
        # a complex array in range comes back as it is, without a copy
        if isinstance(H, np.ndarray) and H.dtype == complex:
            assert (got is H) == (want is H), i
            rescaled += got is not H
    assert rescaled > 50


@pytest.mark.parametrize("data", [
    np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(4),
    [[1, np.nan]],  # the shape is checked first
])
def test_as_scaled_matrix_checks_the_shape_as_as_matrix_does(data):
    errors = []
    for f in (as_matrix, as_scaled_matrix, _two_pass_as_scaled_matrix):
        with pytest.raises(ValueError) as exc:
            f(data)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0][0] is ValueError and errors.count(errors[0]) == 3


# ---------------------------------------------------------------------------
# a NaN or infinity in one part of one entry is rejected everywhere

H2 = np.array([[0, 1], [4, 0]], dtype=complex)  # pseudo-Hermitian
S2 = np.array([[2, 0], [0, 0.5]], dtype=complex)  # witness_residual's S


def _poisoned(M, part, bad, at=(0, 1)):
    M = np.array(M, dtype=complex)
    if part == "real":
        M.real[at] = bad
    else:
        M.imag[at] = bad
    return M


ENTRY_POINTS = {
    "as_matrix": as_matrix,
    "as_scaled_matrix": as_scaled_matrix,
    "classify": classify,
    "witness_residual H": lambda M: witness_residual(M, PH, S2),
    "witness_residual S": lambda M: witness_residual(H2, PH, M),
    "2x2 check PH": lambda M: check_similarity_implies_symmetry_2x2(M, PH),
    "2x2 check CH": lambda M: check_similarity_implies_symmetry_2x2(M, CH),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_part_is_rejected(entry, part, bad):
    # max(|Re|, |Im|) in Python reads max(1.0, nan) as 1.0: a rule that
    # took one maximum over both parts let [[1, nan i], [0, 1]] through
    f = ENTRY_POINTS[entry]
    for M in (H2, S2, np.eye(2)):
        for at in ((0, 0), (0, 1), (1, 1)):
            with pytest.raises(NonFiniteMatrixError, match="non-finite"):
                f(_poisoned(M, part, bad, at))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_part_beside_large_or_scaled_entries_is_rejected(bad):
    # the other part's maximum is large, in range or zero
    for n in (1, 2, 3, 12):
        H = generate_random(CH, n, n) if n > 1 else np.ones((1, 1), dtype=complex)
        for e in (0, 600, -600):
            for part in ("real", "imag"):
                M = _poisoned(ldexp_complex(H, e), part, bad, (n - 1, 0))
                with pytest.raises(NonFiniteMatrixError):
                    as_scaled_matrix(M)
                with pytest.raises(NonFiniteMatrixError):
                    as_matrix(M)
