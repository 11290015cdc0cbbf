import numpy as np
import pytest

from nhsim.classes import (
    SimilarityClass,
    classify,
    construct_witness,
    detect_special_cases,
    factor,
    generate_random,
    witness_residual,
)
from nhsim.errors import ClassMismatchError
from nhsim.matrices import as_scaled_matrix, dagger, frob, ldexp_complex
from nhsim.spectral import ToleranceConfig, multiset_symmetry_match, eigenvalues

PH = SimilarityClass.PSEUDO_HERMITIAN
CH = SimilarityClass.CHIRAL
SS = SimilarityClass.SELF_SKEW_SIMILAR

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_class_tags():
    assert SimilarityClass.from_tag("pseudo-hermitian") is PH
    assert SimilarityClass.from_tag("Chiral") is CH
    assert SimilarityClass.from_tag("self-skew") is SS
    with pytest.raises(ValueError):
        SimilarityClass.from_tag("hermitian")


def test_classify_antidiagonal_example():
    # spectrum {+2,-2}: closed under conjugation and negation
    result = classify([[0, 1], [4, 0]])
    assert {PH, SS} <= result.confirmed
    for w in result.witnesses.values():
        assert w.residual <= 1e-10


def test_classify_ep2_chiral():
    result = classify([[1j, 1], [1, -1j]])
    assert CH in result.confirmed
    assert result.witnesses[CH].residual <= 1e-10


def test_classify_real_spectrum_upper_triangular():
    result = classify([[1, 1], [0, 2]])
    assert result.confirmed == {PH}


def test_construct_eta_examples():
    w = construct_witness(np.array([[0, 1], [4, 0]], dtype=complex), PH)
    assert w.residual <= 1e-10
    assert w.hermiticity_defect <= 1e-12
    w = construct_witness(SX, PH)
    assert w.residual <= 1e-12
    w = construct_witness(np.array([[1, 1], [0, 1]], dtype=complex), PH)
    assert w.residual <= 1e-10


def test_construct_eta_rejects_wrong_spectrum():
    with pytest.raises(ClassMismatchError):
        construct_witness(np.diag([1j, 2j]), PH)


def test_construct_gamma_examples():
    w = construct_witness(1j * SZ, CH)
    assert w.residual <= 1e-12
    w = construct_witness(np.array([[1j, 1], [1, -1j]], dtype=complex), CH)
    assert w.residual <= 1e-10
    w = construct_witness(np.diag([1 + 1j, -1 + 1j]), CH)
    assert w.residual <= 1e-12


def test_construct_gamma_rejects_wrong_spectrum():
    with pytest.raises(ClassMismatchError):
        construct_witness(np.diag([1.0, 2.0]), CH)


def test_construct_skew_witness_examples():
    w = construct_witness(np.array([[0, 2.5], [0.7, 0]], dtype=complex), SS)
    assert w.residual <= 1e-12
    w = construct_witness(np.array([[0, 1], [0, 0]], dtype=complex), SS)
    assert w.residual <= 1e-12
    w = construct_witness(np.diag([3.0, -3.0]), SS)
    assert w.residual <= 1e-12


def test_construct_skew_witness_requires_hermitian_solution():
    # {e}={-e} holds but no Hermitian anticommuting transform exists: a
    # non-unitary conjugation of an in-class matrix generically destroys it
    rng = np.random.default_rng(5)
    H0 = generate_random(SS, 3, 11)
    P = rng.standard_normal((3, 3)) + 0.3 * np.eye(3)
    H = P @ H0 @ np.linalg.inv(P)
    assert multiset_symmetry_match(eigenvalues(H).values, "neg", 1e-6) is not None
    with pytest.raises(ClassMismatchError):
        construct_witness(H, SS)


@pytest.mark.parametrize("cls", list(SimilarityClass))
@pytest.mark.parametrize("n", range(2, 7))
def test_witness_construction_random_samples(cls, n):
    for seed in range(10):
        H = generate_random(cls, n, seed)
        w = construct_witness(H, cls)
        assert w.residual <= 1e-8
        assert w.hermiticity_defect <= 1e-8
        assert w.min_singular_value > 0


def test_witness_residual_definitions():
    H = np.array([[0, 1], [4, 0]], dtype=complex)
    eta = SX
    assert witness_residual(H, PH, eta) <= 1e-15
    Hc = np.array([[1j, 1], [1, -1j]], dtype=complex)
    assert witness_residual(Hc, CH, SZ) <= 1e-15
    assert witness_residual(H, SS, SZ) <= 1e-15


def test_factor_examples():
    eta, A = factor(np.array([[0, 1], [4, 0]], dtype=complex), PH)
    assert np.allclose(A, dagger(A))
    assert np.allclose(eta @ A, [[0, 1], [4, 0]])
    gamma, C = factor(1j * SX, CH)
    assert np.allclose(C, dagger(C))
    assert np.allclose(1j * gamma @ C, 1j * SX)
    eta, A = factor(SX, PH)
    assert np.allclose(eta @ A, SX)
    S, H = factor(np.array([[0, 1], [2, 0]], dtype=complex), SS)
    assert frob(H @ S + S @ H) <= 1e-12


def test_generate_random_deterministic():
    a = generate_random(PH, 4, 123)
    b = generate_random(PH, 4, 123)
    assert np.array_equal(a, b)
    c = generate_random(PH, 4, 124)
    assert not np.allclose(a, c)


def test_generate_random_spectral_constraints():
    for n in range(2, 7):
        vals = eigenvalues(generate_random(PH, n, n)).values
        assert multiset_symmetry_match(vals, "conj", 1e-8 * n) is not None
        vals = eigenvalues(generate_random(CH, n, n)).values
        assert multiset_symmetry_match(vals, "negconj", 1e-8 * n) is not None
        vals = eigenvalues(generate_random(SS, n, n)).values
        assert multiset_symmetry_match(vals, "neg", 1e-8 * n) is not None


def test_generate_random_selfskew_odd_n_singular():
    # (-1)^n det[H] = det[-H] = det[H] forces det = 0 for odd n
    for seed in range(5):
        H = generate_random(SS, 5, seed)
        assert abs(np.linalg.det(H)) <= 1e-8 * frob(H) ** 5


def test_generate_random_non_normal_flag():
    from nhsim.spectral import is_normal

    H = generate_random(PH, 3, 0, non_normal=True)
    assert not is_normal(H, 1e-6)


@pytest.mark.parametrize("cls", list(SimilarityClass))
def test_generate_random_non_normal_needs_two_dimensions(cls):
    # a 1x1 matrix commutes with its adjoint
    with pytest.raises(ValueError, match="always normal"):
        generate_random(cls, 1, 0, non_normal=True)
    assert generate_random(cls, 1, 0).shape == (1, 1)


def test_n1_degenerate_cases():
    assert construct_witness(np.array([[2.5]]), PH).residual <= 1e-12
    assert construct_witness(np.array([[1.5j]]), CH).residual <= 1e-12
    assert construct_witness(np.zeros((1, 1)), SS).residual == 0.0
    with pytest.raises(ClassMismatchError):
        construct_witness(np.array([[1j]]), PH)
    with pytest.raises(ClassMismatchError):
        construct_witness(np.array([[1.0]]), SS)


def test_explicit_symmetry_generators_land_in_class():
    # matrices built from an explicit PT generator A=sx (H = A H* A^-1)
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = M + SX @ M.conj() @ SX  # satisfies H = sx H* sx
        assert np.allclose(H, SX @ H.conj() @ SX)
        assert PH in classify(H).candidates


def test_trace_parity_of_generated_samples():
    from nhsim.spectral import power_traces

    for n in range(2, 7):
        H = generate_random(PH, n, 17)
        scale = max(frob(H), 1.0)
        for k, t in enumerate(power_traces(H, n), start=1):
            assert abs(t.imag) <= 1e-8 * scale**k
        H = generate_random(CH, n, 17)
        scale = max(frob(H), 1.0)
        for k, t in enumerate(power_traces(H, n), start=1):
            part = t.imag if k % 2 == 0 else t.real
            assert abs(part) <= 1e-8 * scale**k
        H = generate_random(SS, n, 17)
        scale = max(frob(H), 1.0)
        for k, t in enumerate(power_traces(H, n), start=1):
            if k % 2 == 1:
                assert abs(t) <= 1e-8 * scale**k


def test_detect_special_cases():
    assert {"Hermitian", "Real", "Normal"} <= detect_special_cases(SX).flags
    r = detect_special_cases(np.array([[0, 1], [-1, 0]], dtype=complex))
    assert {"Real", "AntiHermitian", "AntiSymmetric", "Normal"} <= r.flags
    r = detect_special_cases(np.array([[0, 1j], [1j, 0]]))
    assert {"Imaginary", "AntiHermitian", "Normal"} <= r.flags
    assert "Hermitian" not in r


def test_special_case_implies_class():
    # generator-is-identity inclusions
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 3))
    herm = (A + A.T) / 2
    assert PH in classify(herm).confirmed
    assert CH in classify(1j * herm).confirmed
    anti = A - A.T  # 3x3 antisymmetric: rank <= 2, eigenvalues {0, +/- ia}
    assert SS in classify(anti).confirmed


def test_classify_with_loose_tolerances():
    cfg = ToleranceConfig(1e-6)
    H = np.array([[1j, 1], [1, -1j]], dtype=complex)  # defective at 0
    result = classify(H, cfg)
    assert CH in result.confirmed


@pytest.mark.parametrize("d", [10.0**-k for k in range(6, 16)] + [0.0])
def test_near_ep_antidiagonal_confirms_all_classes(d):
    # eta = sx, Gamma = sy and S = sz solve the three equations for every d
    result = classify([[0, 1], [d, 0]])
    assert result.confirmed == {PH, CH, SS}


def test_split_hermitian_pair_confirms_without_clustering():
    # pairs split by 3e-7, between one and two clustering radii
    result = classify(np.diag([1, 1 + 3e-7, -1, -1 - 3e-7]))
    assert result.confirmed == {PH, CH, SS}


def test_classify_beyond_twelve_dimensions():
    result = classify(generate_random(PH, 13, 0))
    assert PH in result.confirmed
    assert result.witnesses[PH].residual <= 1e-8


def test_near_scalar_matrix_keeps_its_class():
    # every Hermitian transform solves H eta = eta H^+ to 2e-9 here, so the
    # whole class operator sits below the nullspace cut
    for H in (np.array([[1 + 1e-9j]]), (1 + 1e-9j) * np.eye(3)):
        assert classify(H).confirmed == {PH}


# ---------------------------------------------------------------------------
# the solver's per-dimension tables are built once; results must not change


#: Each class equation as ``H S + sign S R(H) = 0``: the sign, ``R``, and
#: whether the left side is (anti-)Hermitian for Hermitian ``S``; and the
#: class's spectral map.
_REFERENCE_OPERATORS = {
    PH: (-1.0, dagger, True),
    CH: (1.0, dagger, True),
    SS: (1.0, lambda H: H, False),
}
_REFERENCE_MAPS = {PH: "conj", CH: "negconj", SS: "neg"}


def _reference_solve_witness(H, cls, cfg):
    """The solver as it was before its tables were cached, and before the
    classes were solved in one stacked pass: basis, triangle indices and
    search directions rebuilt on every call, one SVD and one ``eigvalsh``
    per class, and its ``ClassMismatchError`` messages."""
    def from_coords(C, n):
        iu, ju = np.triu_indices(n, 1)
        m = iu.size
        d = np.arange(n)
        S = np.zeros((C.shape[0], n, n), dtype=complex)
        S[:, d, d] = C[:, :n]
        z = C[:, n : n + m] + 1j * C[:, n + m :]
        S[:, iu, ju] = z
        S[:, ju, iu] = z.conj()
        return S

    def witness(S, min_sv):
        defect = frob(S - dagger(S)) / frob(S)
        return S, witness_residual(H, cls, S), defect, float(min_sv)

    n = H.shape[0]
    sign, R, hermitian_image = _REFERENCE_OPERATORS[cls]
    B = from_coords(np.eye(n * n), n)
    images = H @ B + sign * (B @ R(H))
    if hermitian_image:
        iu, ju = np.triu_indices(n)
        images = images[:, iu, ju]
    images = images.reshape(n * n, -1)
    U, s, _ = np.linalg.svd(
        np.concatenate([images.real, images.imag], axis=1), full_matrices=False
    )
    if s[0] * np.sqrt(n) <= cfg.residual_tol * frob(H):
        return witness(np.eye(n, dtype=complex), 1.0)
    null = U[:, int(np.sum(s > cfg.residual_tol * s[0])) :].T
    if null.shape[0] == 0:
        raise ClassMismatchError(f"no Hermitian transform solves the {cls.value} equation")
    rng = np.random.default_rng(0)
    coords = np.concatenate([null, rng.standard_normal((32, null.shape[0])) @ null])
    S = from_coords(coords, n)
    sv = np.abs(np.linalg.eigvalsh(S))
    lo, hi = sv.min(axis=1), sv.max(axis=1)
    ratio = lo / hi
    best = int(np.argmax(ratio))
    if not ratio[best] > cfg.rank_tol:
        raise ClassMismatchError(
            f"the Hermitian solutions of the {cls.value} equation are all singular")
    return witness(S[best] / hi[best], ratio[best])


def _reference_classify(H, cfg):
    H = np.asarray(H, dtype=complex)
    spec = eigenvalues(H)
    out = {}
    for cls in SimilarityClass:
        tol = cfg.cluster_tol * frob(H)
        if multiset_symmetry_match(spec, _REFERENCE_MAPS[cls], tol) is None:
            continue
        try:
            w = _reference_solve_witness(H, cls, cfg)
        except ClassMismatchError:
            w = None
        ok = w is not None and max(w[1], w[2]) <= cfg.residual_tol
        out[cls] = w if ok else None
    return out


def _table_corpus():
    rng = np.random.default_rng(7)
    for n in range(1, 14):
        for cls in SimilarityClass:
            yield generate_random(cls, n, n)
        yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield np.zeros((n, n), dtype=complex)
        yield (1.5 - 0.5j) * np.eye(n)
        yield (1 + 1e-9j) * np.eye(n)
        # a non-unitary similarity keeps the spectrum, not the Hermitian S
        V = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        yield V @ generate_random(SS, n, n) @ np.linalg.inv(V)
    for d in (0.0, 1e-6, 1e-10, 1e-14):
        V = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        yield V @ np.array([[0, 1], [d, 0]]) @ np.linalg.inv(V)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        J = np.diag([1.0, 1.0, 1.0], 1) + d * np.eye(4, k=-3)
        yield Q @ J @ Q.T


@pytest.mark.parametrize("cfg", [ToleranceConfig(), ToleranceConfig(1e-5)])
def test_cached_solver_tables_match_uncached_solver(cfg):
    for i, H in enumerate(_table_corpus()):
        result = classify(H, cfg)
        ref = _reference_classify(H, cfg)
        assert result.candidates == set(ref), i
        assert result.confirmed == {c for c, w in ref.items() if w is not None}, i
        for cls, w in result.witnesses.items():
            S, residual, defect, min_sv = ref[cls]
            assert w.transform.tobytes() == S.tobytes(), (i, cls)
            assert (w.residual, w.hermiticity_defect, w.min_singular_value) == (
                residual, defect, min_sv), (i, cls)


def test_cached_solver_tables_are_read_only():
    from nhsim.classes import _hermitian_basis, _indices, _search_directions

    classify(generate_random(PH, 4, 0))
    d, strict, full = _indices(4)
    tables = [_hermitian_basis(4), d, *strict, *full, _search_directions(3)]
    assert _hermitian_basis(4) is tables[0]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


# ---------------------------------------------------------------------------
# one stacked pass per matrix: one spectral decision, one witness solve


def _reference_construct_witness(H, cls, cfg):
    """``construct_witness`` as a per-class loop: the matcher for the
    spectral check, then :func:`_reference_solve_witness`."""
    H = as_scaled_matrix(H)
    tol = cfg.cluster_tol * frob(H)
    if multiset_symmetry_match(eigenvalues(H), _REFERENCE_MAPS[cls], tol) is None:
        raise ClassMismatchError(f"spectrum violates the {cls.value} symmetry constraint")
    return _reference_solve_witness(H, cls, cfg)


def _outcome(fn, *args):
    """A witness as bytes, or the exception's type and message."""
    try:
        w = fn(*args)
    except ClassMismatchError as exc:
        return type(exc), str(exc)
    if not isinstance(w, tuple):
        w = (w.transform, w.residual, w.hermiticity_defect, w.min_singular_value)
    S, *numbers = w
    return S.tobytes(), S.shape, np.array(numbers, dtype=float).tobytes()


def _stacked_corpus():
    """Matrices for the stacked decision and solve: zero and scalar, exactly
    repeated eigenvalues, conjugated Jordan forms, near-EP 2x2, split
    Hermitian, seeded members of each class and unstructured matrices."""
    rng = np.random.default_rng(29)

    def cplx(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    out = []
    for n in (1, 2, 4):
        out += [np.zeros((n, n), dtype=complex), (0.5 - 2j) * np.eye(n), 3.0 * np.eye(n)]
    V = cplx(4)
    for eigs in ([1, 1, 2j, 2j], [1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j], [2, -2, 2, -2],
                 [1j, -1j, 0, 0]):
        out.append(V @ np.diag(eigs) @ np.linalg.inv(V))
    # every value and image has a conjugate partner within sqrt(5)/2, yet
    # no pairing within 2 exists
    out.append(np.diag([-1 - 0.5j, -0.5 + 1.5j, 1j]))
    # e pairs with -e within cluster_tol, but the Hermitian solutions of the
    # chiral and self-skew equations leave it out: all are singular
    out += [np.diag([1, -1, e]) for e in (3e-8, 3e-5)]
    for sizes in ((2,), (3,), (2, 2), (3, 1), (4,)):
        n = sum(sizes)
        J = np.zeros((n, n))
        pos = 0
        for m, eig in zip(sizes, (0.7, -1.3)):
            J[pos:pos + m, pos:pos + m] = eig * np.eye(m) + np.eye(m, k=1)
            pos += m
        Q = np.linalg.qr(cplx(n))[0]
        W = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        out += [Q @ J @ dagger(Q), W @ J @ np.linalg.inv(W)]
    for d in (1e-6, 1e-10, 1e-15, 0.0):
        U = np.linalg.qr(cplx(2))[0]
        out.append(U @ np.array([[0, 1], [d, 0]]) @ dagger(U))
    for n, split in ((2, 1e-9), (4, 1e-6), (5, 1e-8)):
        U = np.linalg.qr(cplx(n))[0]
        eigs = np.arange(n, dtype=float)
        eigs[-1] = eigs[0] + split
        out.append((U * eigs) @ dagger(U))
    for n in range(2, 7):
        out += [generate_random(cls, n, 40 + n) for cls in SimilarityClass]
        out.append(cplx(n))
    return out


_SCALES = (1.0, 2.0**600, 2.0**-600)


def test_stacked_decision_equals_one_matcher_call_per_map():
    from nhsim.spectral import _nearest_certificate, _symmetry_distances, _symmetry_pairs

    maps = ["conj", "negconj", "neg"]
    decided = set()
    for H in _stacked_corpus():
        for c in _SCALES:
            s = np.linalg.eigvals(H) * c
            scale = c * frob(H)
            for tol in (0.0, 5e-324, 1e-15 * scale, 1e-7 * scale, 0.6 * scale):
                want = [multiset_symmetry_match(s, m, tol) is not None for m in maps]
                assert _symmetry_pairs(s, maps, tol) == want, (H, c, tol)
                for k in range(3):  # one map, and the maps in another order
                    assert _symmetry_pairs(s, [maps[k]], tol) == [want[k]]
                assert _symmetry_pairs(s, maps[::-1], tol) == want[::-1]
                for m, ok in zip(maps, want):
                    bound, certified = _nearest_certificate(_symmetry_distances(s, m))
                    decided.add((ok, bool(bound > tol), bool(certified)))
    # each way of deciding occurs: rejected by the bound, certified, and
    # left to the matcher with either answer
    assert {(False, True, False), (False, True, True), (True, False, True),
            (True, False, False), (False, False, False)} <= decided


def test_symmetry_distance_tables_are_symmetric():
    # _nearest_certificate reads only the row minima: the column minima of
    # a table symmetric bit for bit are the same values
    from nhsim.spectral import _symmetry_distances

    for H in _stacked_corpus():
        for c in _SCALES:
            s = np.linalg.eigvals(H) * c
            for m in ("conj", "negconj", "neg"):
                dist = _symmetry_distances(s, m)
                assert dist.tobytes() == dist.swapaxes(-1, -2).tobytes(), (H, c, m)


@pytest.mark.parametrize("cfg", [ToleranceConfig(), ToleranceConfig(1e-5)])
def test_stacked_pass_keeps_the_per_class_bytes(cfg):
    outcomes = set()
    for i, H in enumerate(_stacked_corpus()):
        for c in _SCALES:
            Hc = ldexp_complex(np.asarray(H, dtype=complex), int(np.log2(c)))
            result = classify(Hc, cfg)
            for cls in SimilarityClass:
                ref = _outcome(_reference_construct_witness, Hc, cls, cfg)
                assert _outcome(construct_witness, Hc, cls, cfg) == ref, (i, c, cls)
                outcomes.add(ref[1].split()[0] if ref[0] is ClassMismatchError
                             else "witness")
                if ref[0] is ClassMismatchError:
                    assert cls not in result.confirmed
                    assert (cls in result.spectral_only) == ("spectrum" not in ref[1])
                    continue
                w = _reference_solve_witness(as_scaled_matrix(Hc), cls, cfg)
                if max(w[1], w[2]) <= cfg.residual_tol:
                    assert cls in result.confirmed and cls not in result.spectral_only
                    assert _outcome(lambda: result.witnesses[cls]) == ref, (i, c, cls)
                else:
                    assert cls in result.spectral_only and cls not in result.confirmed
    # a witness, and each of the three messages
    assert outcomes == {"witness", "spectrum", "no", "the"}


def test_classify_is_one_eigensolve_two_svds_one_eigvalsh(monkeypatch):
    # counted at the entry points of nhsim._lapack, through which every
    # decomposition of the package runs (test_lapack.py checks that no
    # np.linalg call is left outside it); an SVD with or without vectors
    # counts as an SVD
    from nhsim import _lapack, spectral

    calls = {"eigvals": 0, "svd": 0, "eigvalsh": 0, "matcher": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, attr in [("eigvals", "eigvals"), ("svd", "svd"), ("svd", "svdvals"),
                       ("eigvalsh", "eigvalsh")]:
        monkeypatch.setattr(_lapack, attr, counted(name, getattr(_lapack, attr)))
    monkeypatch.setattr(spectral, "multiset_symmetry_match",
                        counted("matcher", spectral.multiset_symmetry_match))
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    near_ep = U @ np.array([[0, 1], [1e-9, 0]]) @ dagger(U)  # in all three classes
    members = [generate_random(cls, n, n) for cls in SimilarityClass for n in (3, 6)]
    for H in [near_ep, *members, rng.standard_normal((5, 5))]:
        for k in calls:
            calls[k] = 0
        result = classify(H)
        assert calls["eigvals"] == 1 and calls["matcher"] == 0
        assert calls["svd"] <= 2 and calls["eigvalsh"] <= 1
        if H is near_ep:
            assert result.confirmed == set(SimilarityClass)
            assert (calls["svd"], calls["eigvalsh"]) == (2, 1)
        for cls in result.confirmed:
            for k in calls:
                calls[k] = 0
            construct_witness(H, cls)
            assert calls == {"eigvals": 1, "svd": 1, "eigvalsh": 1, "matcher": 0}
