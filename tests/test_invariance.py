"""Class invariances over seeded in-class samples: rescaling, unitary
conjugation, and the witness residual of every confirmed class; and the
scale invariance of the rank staircase and of the family identity check."""

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
from nhsim.epfinder import certify_order, class_identity_check
from nhsim.families import MatrixFamily
from nhsim.matrices import dagger
from nhsim.spectral import DEFAULT_TOLERANCES, is_normal


def samples(seeds):
    for cls in SimilarityClass:
        for n in range(2, 7):
            for seed in seeds:
                yield (cls, n, seed), generate_random(cls, n, seed)


def verdict(H):
    result = classify(H)
    return result.confirmed, result.spectral_only


def haar_unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


SCALES = [1e-300, 1e-8, 1e-3, 1e3, 1e8, 1e160, 1e300]


@pytest.mark.parametrize("c", SCALES)
def test_classify_is_scale_invariant(c):
    for key, H in samples(range(20)):
        assert verdict(c * H) == verdict(H), key


@pytest.mark.parametrize("c", SCALES)
def test_generic_matrix_gets_no_class_at_any_scale(c):
    # beyond about 1e+-154 |H|_F^2 leaves the normal range unless H is
    # rescaled: an infinite norm would pass every spectral check, and a
    # zero one would leave no tolerance
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert verdict(c * H) == (set(), set()), n


@pytest.mark.parametrize("c", [1e-300, 1e160, 1e300])
def test_construct_witness_at_extreme_scales(c):
    tol = DEFAULT_TOLERANCES.residual_tol
    for (cls, n, seed), H in samples(range(3)):
        w = construct_witness(c * H, cls)
        assert w.residual <= tol and w.hermiticity_defect <= tol, (cls, n, seed)
        assert witness_residual(H, cls, w.transform) <= tol, (cls, n, seed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e-300, 1e160, 1e300])
def test_factor_at_extreme_scales(c):
    # beyond about 1e154 |A|_F overflows, and a Hermiticity gate of
    # x/inf or inf/inf checks nothing
    for cls in (SimilarityClass.PSEUDO_HERMITIAN, SimilarityClass.CHIRAL):
        for n in range(2, 5):
            H = generate_random(cls, n, n, non_normal=True)
            T, A = factor(c * H, cls)
            assert np.array_equal(A, dagger(A)), (cls, n)
            sign = 1 if cls is SimilarityClass.PSEUDO_HERMITIAN else 1j
            back = sign * T @ (A / c)
            assert np.linalg.norm(back - H) <= 1e-8 * np.linalg.norm(H), (cls, n)


@pytest.mark.parametrize("c", [1e-300, 1e160, 1e300])
def test_flags_and_residuals_at_extreme_scales(c):
    rng = np.random.default_rng(3)
    H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = H + dagger(H)
    assert not is_normal(c * H) and is_normal(c * herm)
    assert detect_special_cases(c * H).flags == set()
    assert detect_special_cases(c * herm).flags == {"Hermitian", "Normal"}
    # homogeneous of degree 0 in H and in S
    S = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    for cls in SimilarityClass:
        ref = witness_residual(H, cls, S)
        assert witness_residual(c * H, cls, S) == pytest.approx(ref, rel=1e-12)
        assert witness_residual(H, cls, c * S) == pytest.approx(ref, rel=1e-12)


def test_classify_is_unitarily_invariant():
    rng = np.random.default_rng(0)
    for key, H in samples(range(10)):
        U = haar_unitary(rng, H.shape[0])
        assert verdict(U @ H @ dagger(U)) == verdict(H), key


def test_confirmed_implies_witness_residual_within_tolerance():
    # non-unitary similarities keep some classes and break others
    rng = np.random.default_rng(1)
    tol = DEFAULT_TOLERANCES.residual_tol
    for key, H in samples(range(10)):
        P = np.eye(H.shape[0]) + 0.5 * rng.standard_normal(H.shape)
        for M in (H, P @ H @ np.linalg.inv(P)):
            result = classify(M)
            for cls in result.confirmed:
                S = result.witnesses[cls].transform
                assert witness_residual(M, cls, S) <= tol, (key, cls)


def conditioned_similarity(rng, n, cond):
    """Seeded ``V = W1 diag(s) W2`` with singular values in ``[1, cond]``."""
    s = np.exp(rng.uniform(0.0, np.log(cond), n))
    s[0], s[-1] = 1.0, cond
    return haar_unitary(rng, n) @ np.diag(s) @ haar_unitary(rng, n)


def test_pseudo_hermitian_and_chiral_survive_similarity():
    # both classes are defined by similarity to a mapped target, so any
    # invertible V keeps them; cond(V) <= 10 keeps the check well posed
    rng = np.random.default_rng(2)
    kept = {SimilarityClass.PSEUDO_HERMITIAN, SimilarityClass.CHIRAL}
    for cls in kept:
        for n in range(2, 7):
            for seed in range(40):
                H = generate_random(cls, n, seed)
                V = conditioned_similarity(rng, n, 10.0)
                before = classify(H).confirmed & kept
                after = classify(V @ H @ np.linalg.inv(V)).confirmed
                assert cls in before and before <= after, (cls, n, seed)


# ---------------------------------------------------------------------------
# one rank rule at every scale: a class member, an EP or a Jordan pattern
# times c > 0 keeps its class, order and blocks

RANK_SCALES = [10.0**k for k in (-300, -160, -100, -20, -10, -5, -1, 0, 5, 100, 160, 300)]


def trimer_ep3():
    r = np.sqrt(2)
    return np.array([[1j * r, 1, 0], [1, 0, 1], [0, 1, -1j * r]])


def jordan_2_1():
    # a triple eigenvalue with blocks 2 and 1, conjugated by a seeded V
    J = (0.4 + 0.2j) * np.eye(3)
    J[0, 1] = 1.0
    rng = np.random.default_rng(5)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return V @ J @ np.linalg.inv(V)


PATTERNS = {"trimer-ep3": (trimer_ep3, (3, 1, 3), [3]),
            "jordan-2+1": (jordan_2_1, (2, 2, 3), [2, 1])}


def certificate(H):
    cert = certify_order(H)
    return (cert.order, cert.geometric_multiplicity, cert.cluster_size,
            cert.single_block, [b.size for b in cert.blocks])


@pytest.mark.parametrize("pattern", list(PATTERNS))
@pytest.mark.parametrize("c", RANK_SCALES)
def test_certify_order_is_scale_invariant(pattern, c):
    make, (order, gm, size), sizes = PATTERNS[pattern]
    H = make()
    assert certificate(H) == (order, gm, size, gm == 1, sizes)
    assert certificate(c * H) == certificate(H)


def linear_family(coeffs):
    """``A_0 + sum_i lam_i A_i``."""
    d = len(coeffs) - 1
    return MatrixFamily(coeffs[0].shape[0], d, tuple(
        (A, tuple(int(j == i - 1) for j in range(d))) for i, A in enumerate(coeffs)))


def class_family(cls, rng, n=3, d=2):
    """``A_i = W B_i`` (W = eta, or i Gamma) with Hermitian ``B_i``, or the
    off-diagonal blocks of ``generate_random``'s self-skew samples."""
    def hermitian():
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return A + dagger(A)

    if cls is SimilarityClass.SELF_SKEW_SIMILAR:
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        p = n // 2
        coeffs = []
        for _ in range(d + 1):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M[:p, :p] = M[p:, p:] = 0
            coeffs.append(U @ M @ dagger(U))
        return linear_family(coeffs)
    W = hermitian() + 10 * np.eye(n)
    if cls is SimilarityClass.CHIRAL:
        W = 1j * W
    return linear_family([W @ hermitian() for _ in range(d + 1)])


@pytest.mark.parametrize("c", RANK_SCALES)
def test_identity_check_is_scale_invariant(c):
    # the relative violations of a generic family are of order 1 and those
    # of a class family at rounding level, whatever the scale
    rng = np.random.default_rng(1)
    generic = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
               for _ in range(3)]
    for cls in SimilarityClass:
        rep = class_identity_check(linear_family([c * A for A in generic]), cls)
        assert not rep.passed and rep.worst_violation > 0.1, (cls, rep)
        f = class_family(cls, np.random.default_rng(2))
        scaled = linear_family([c * A for A, _ in f.terms])
        rep = class_identity_check(scaled, cls)
        assert rep.passed and rep.worst_violation <= 1e-12, (cls, rep)


def test_identity_check_of_zero_values_is_exactly_zero():
    # H = 0, and H = lam I whose shifted matrix is 0: nothing to divide by
    zero = linear_family([np.zeros((3, 3), dtype=complex)] * 2)
    scalar = linear_family([np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)])
    for f, classes in ((zero, list(SimilarityClass)),
                       (scalar, [SimilarityClass.PSEUDO_HERMITIAN])):
        for cls in classes:
            rep = class_identity_check(f, cls)
            assert rep.passed and rep.worst_violation == 0.0, (cls, rep)


@pytest.mark.parametrize("eps", [1e-5, 1e-120])
def test_identity_check_measures_a_small_shifted_matrix_on_its_own_scale(eps):
    # H = I + eps C, C the companion matrix of z^3 - i (zero diagonal, so
    # H~ = eps C exactly): tr H~^2 = 0 and the spectrum is conjugate-
    # symmetric within eps |H|_F, but tr H~^3 = 3i eps^3, over the envelope
    # |eps C|_F^3 = 3^1.5 eps^3.  At 1e-120 that envelope, 1e-360, is below
    # the subnormals unless the shifted terms are checked times their own
    # power of two
    C = np.array([[0, 0, 1j], [1, 0, 0], [0, 1, 0]])
    f = linear_family([np.eye(3) + eps * C, np.zeros((3, 3), dtype=complex)])
    rep = class_identity_check(f, SimilarityClass.PSEUDO_HERMITIAN)
    assert not rep.passed and rep.worst_identity == "Im tr H^3", rep
    assert rep.worst_monomial == (0,)
    assert rep.worst_violation == pytest.approx(3**-0.5, rel=1e-6)
