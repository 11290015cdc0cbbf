import itertools

import numpy as np
import pytest

from nhsim.errors import (
    ClusterAmbiguityError,
    NonFiniteMatrixError,
    UnsupportedDimensionError,
)
from nhsim.spectral import (
    JORDAN_DIM_CAP,
    Spectrum,
    ToleranceConfig,
    eigenvalues,
    is_normal,
    jordan_decompose,
    multiset_symmetry_match,
    nullity_staircase,
    power_traces,
    weyr_block_sizes,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def brute_force_match(values, fmap, tol):
    """Factorial oracle for multiset_symmetry_match."""
    values = np.asarray(values, dtype=complex)
    target = fmap(values)
    for perm in itertools.permutations(range(values.size)):
        if all(abs(values[i] - target[j]) <= tol for i, j in enumerate(perm)):
            return True
    return False


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(cluster_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(cluster_tol=1e-10, rank_tol=1e-9)
    for bad in (np.nan, np.inf):
        for field in ("cluster_tol", "residual_tol", "rank_tol"):
            with pytest.raises(ValueError, match="finite"):
                ToleranceConfig(**{field: bad})
    cfg = ToleranceConfig()
    assert cfg.cluster_tol >= cfg.rank_tol


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
    tol = 1e-6
    for _ in range(300):
        n = rng.integers(1, 7)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # bias towards near-symmetric spectra so both outcomes occur
        if rng.random() < 0.5:
            vals = np.concatenate([vals[: n // 2], -vals[: n - n // 2]])
        for name, fmap in SYMMETRY_MAPS.items():
            got = multiset_symmetry_match(vals, name, tol) is not None
            assert got == brute_force_match(vals, fmap, tol)


def test_is_normal():
    assert is_normal(SX)
    assert not is_normal([[0, 1], [0, 0]])
    assert not is_normal([[1j, 1], [1, -1j]])
    assert is_normal(np.zeros((3, 3)))


def test_jordan_canonical_nilpotent():
    j = jordan_decompose([[0, 1], [0, 0]])
    assert [(b.eigenvalue, b.size) for b in j.blocks] == [(0, 2)]
    assert Spectrum([b.eigenvalue for b in j.blocks for _ in range(b.size)]).dim == 2


def test_jordan_diagonal():
    j = jordan_decompose(np.diag([1.0, 2.0, 3.0]))
    assert sorted(b.eigenvalue.real for b in j.blocks) == pytest.approx([1, 2, 3])
    assert all(b.size == 1 for b in j.blocks)


def test_jordan_trimer_ep3():
    # characteristic polynomial -e^3 + (2k^2-g^2)e at k=1, g=sqrt(2): rank 2,
    # so a single length-3 chain at eigenvalue 0
    H = np.array(
        [[1j * np.sqrt(2), 1, 0], [1, 0, 1], [0, 1, -1j * np.sqrt(2)]], dtype=complex
    )
    cfg = ToleranceConfig(cluster_tol=1e-4)
    j = jordan_decompose(H, cfg)
    assert [(abs(b.eigenvalue) < 1e-4, b.size) for b in j.blocks] == [(True, 3)]


def synthesize(blocks, seed):
    """Matrix with prescribed Jordan data and a moderate-condition basis."""
    rng = np.random.default_rng(seed)
    n = sum(m for _, m in blocks)
    J = np.zeros((n, n), dtype=complex)
    pos = 0
    for eps, m in blocks:
        J[pos : pos + m, pos : pos + m] = eps * np.eye(m) + np.diag(np.ones(m - 1), 1)
        pos += m
    while True:
        Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(Q) <= 1e3:
            break
    return Q @ J @ np.linalg.inv(Q)


@pytest.mark.parametrize("seed", range(5))
def test_jordan_round_trip_synthesized(seed):
    blocks = [(1.2, 3), (0.5 - 0.3j, 2)]
    H = synthesize(blocks, seed)
    cfg = ToleranceConfig(cluster_tol=1e-5)
    j = jordan_decompose(H, cfg)
    got = sorted((round(b.eigenvalue.real, 3), b.size) for b in j.blocks)
    assert got == sorted((round(e.real, 3), m) for e, m in blocks)


def test_jordan_zero_matrix_and_dim_cap():
    j = jordan_decompose(np.zeros((3, 3)))
    assert len(j.blocks) == 3 and all(b.size == 1 for b in j.blocks)
    with pytest.raises(UnsupportedDimensionError):
        jordan_decompose(np.eye(JORDAN_DIM_CAP + 1))


def test_jordan_cluster_ambiguity():
    # two eigenvalues separated by just over the clustering radius
    cfg = ToleranceConfig(cluster_tol=1e-3)
    H = np.diag([1.0, 1.0 + 1.5e-3])
    with pytest.raises(ClusterAmbiguityError):
        jordan_decompose(H, cfg)


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
