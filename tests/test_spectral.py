import numpy as np
import pytest

from nhsim.errors import NonFiniteMatrixError
from nhsim.spectral import (
    ToleranceConfig,
    eigenvalues,
    is_normal,
    multiset_symmetry_match,
    nullity_staircase,
    SYMMETRY_MAPS,
    power_traces,
    weyr_block_sizes,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def brute_force_match(values, fmap, tol):
    """Exhaustive oracle for multiset_symmetry_match: a depth-first search
    over the permutations, cut where a pair is farther than ``tol``."""
    values = np.asarray(values, dtype=complex)
    dist = np.abs(values[:, None] - fmap(values)[None, :])

    def extend(i, free):
        return i == values.size or any(
            dist[i, j] <= tol and extend(i + 1, free - {j}) for j in free
        )

    return extend(0, frozenset(range(values.size)))


def degenerate_spectrum(rng, n, fmap):
    """Random values of which about half are mapped images of the others,
    some of them exactly repeated or exactly zero."""
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if rng.random() < 0.5:
        vals = np.concatenate([vals[: n // 2], fmap(vals[: n - n // 2])])
    if rng.random() < 0.3:
        vals[rng.integers(n)] = vals[rng.integers(n)]
    if rng.random() < 0.2:
        vals[rng.integers(n)] = 0.0
    return vals


def test_tolerance_config_validation():
    # 5e-324 / 10 underflows to 0 and 10 * 1e308 overflows
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1e-8, 5e-324, 1e308):
        with pytest.raises(ValueError, match="must have 10\\*tol finite and tol/10 > 0"):
            ToleranceConfig(bad)
    cfg = ToleranceConfig()
    assert (cfg.cluster_tol, cfg.residual_tol, cfg.rank_tol) == (1e-7, 1e-8, 1e-9)


def test_eigenvalues_examples():
    assert sorted(eigenvalues(SX).values.real) == pytest.approx([-1, 1])
    rot = eigenvalues([[0, 1], [-1, 0]]).values
    assert sorted(rot.imag) == pytest.approx([-1, 1])
    assert np.allclose(rot.real, 0)
    g4 = eigenvalues([[0, 1], [4, 0]]).values
    assert sorted(g4.real) == pytest.approx([-2, 2])


def test_eigenvalues_rejects_nonfinite_and_nonsquare():
    with pytest.raises(NonFiniteMatrixError):
        eigenvalues([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


def test_spectrum_similarity_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = rng.standard_normal((4, 4)) + np.eye(4) * 3
        a = np.sort_complex(eigenvalues(H).values)
        b = np.sort_complex(eigenvalues(P @ H @ np.linalg.inv(P)).values)
        assert np.allclose(a, b, atol=1e-8)


def test_power_traces_examples():
    assert power_traces(SX, 2) == pytest.approx([0, 2])
    assert power_traces([[0, 1], [0, 0]], 2) == pytest.approx([0, 0])
    assert power_traces(np.diag([1j, -1j]), 3) == pytest.approx([0, -2, 0])
    with pytest.raises(ValueError):
        power_traces(SX, 0)


def test_power_traces_eigenvalue_oracle():
    rng = np.random.default_rng(2)
    for n in range(2, 7):
        for _ in range(20):
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            traces = power_traces(H, n)
            vals = eigenvalues(H).values
            for k, t in enumerate(traces, start=1):
                expect = np.sum(vals**k)
                assert abs(t - expect) <= 1e-8 * max(abs(expect), 1.0)


def test_multiset_symmetry_match_examples():
    assert multiset_symmetry_match([1 + 1j, 1 - 1j], "conj", 1e-10) is not None
    assert multiset_symmetry_match([2, -2], "neg", 1e-10) is not None
    s = [1 + 1j, -1 + 1j]
    assert multiset_symmetry_match(s, "negconj", 1e-10) is not None
    assert multiset_symmetry_match(s, "conj", 1e-10) is None


def test_multiset_symmetry_match_returns_valid_pairing():
    from nhsim.spectral import SYMMETRY_MAPS

    vals = np.array([0.5, -0.5, 1j, -1j])
    pairing = multiset_symmetry_match(vals, "neg", 1e-12)
    assert pairing is not None
    assert sorted(i for i, _ in pairing) == [0, 1, 2, 3]
    for i, j in pairing:
        assert abs(vals[i] - SYMMETRY_MAPS["neg"](vals[j])) <= 1e-12


def test_multiset_symmetry_match_brute_force_oracle():
    from nhsim.spectral import SYMMETRY_MAPS

    rng = np.random.default_rng(3)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        for name, fmap in SYMMETRY_MAPS.items():
            vals = degenerate_spectrum(rng, n, fmap)
            dist = np.abs(vals[:, None] - fmap(vals)[None, :])
            # a fixed tolerance, and one that equals a pair distance exactly
            for tol in (1e-6, dist.flat[rng.integers(dist.size)]):
                got = multiset_symmetry_match(vals, name, tol) is not None
                assert got == brute_force_match(vals, fmap, tol), (vals, name, tol)


def test_multiset_symmetry_match_exact_repeats_and_zeros():
    assert multiset_symmetry_match([0, 0, 1j, -1j], "neg", 0.0) is not None
    assert multiset_symmetry_match([0, 0, 0], "negconj", 0.0) is not None
    assert multiset_symmetry_match([2, 2, -2], "neg", 0.0) is None
    twice = [1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j]
    assert multiset_symmetry_match(twice, "conj", 0.0) is not None
    assert multiset_symmetry_match(twice[:3], "conj", 0.0) is None
    # [0, 1] against [0, -1]: the crossed pairing has both distances 1
    assert multiset_symmetry_match([0, 1], "neg", 1.0) == [(0, 1), (1, 0)]
    assert multiset_symmetry_match([0, 1], "neg", np.nextafter(1.0, 0)) is None


@pytest.mark.parametrize("tol", [np.nan, -1e-300, -1.0, -np.inf])
def test_multiset_symmetry_match_rejects_nan_and_negative_tol(tol):
    with pytest.raises(ValueError, match="non-negative"):
        multiset_symmetry_match([1 + 1j, 2], "conj", tol)


def test_multiset_symmetry_match_pairs_anything_at_infinite_tol():
    pairing = multiset_symmetry_match([1 + 1j, 2, 3j], "conj", np.inf)
    assert sorted(i for i, _ in pairing) == sorted(j for _, j in pairing) == [0, 1, 2]


def test_is_normal():
    assert is_normal(SX)
    assert not is_normal([[0, 1], [0, 0]])
    assert not is_normal([[1j, 1], [1, -1j]])
    assert is_normal(np.zeros((3, 3)))


def test_weyr_block_sizes():
    assert weyr_block_sizes([0]) == []
    assert weyr_block_sizes([0, 1, 2, 3]) == [3]
    assert weyr_block_sizes([0, 2, 3, 4]) == [3, 1]
    assert weyr_block_sizes([0, 3]) == [1, 1, 1]
    assert weyr_block_sizes([0, 2, 4]) == [2, 2]


def test_nullity_staircase_stack_matches_single_and_stops():
    N3 = np.diag([1.0, 1.0], 1).astype(complex)      # one block of size 3
    D = np.diag([0.0, 1e-3, -1e-3]).astype(complex)  # nullity stalls at 1
    Z = np.zeros((3, 3), dtype=complex)
    stack = np.array([N3, D, Z, N3])
    m = [3, 3, 3, 0]
    got = nullity_staircase(stack, m, 1e-9, 1.0)
    assert got == [[0, 1, 2, 3], [0, 1], [0, 3], [0]]
    for A, mr, dims in zip(stack, m, got):
        assert nullity_staircase(A[None], mr, 1e-9, 1.0) == [dims]
    # clipped at the cluster size
    assert nullity_staircase(Z[None], 2, 1e-9, 1.0) == [[0, 2]]
