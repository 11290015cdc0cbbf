"""Class invariances over seeded in-class samples: rescaling, unitary
conjugation, and the witness residual of every confirmed class."""

import numpy as np
import pytest

from nhsim.classes import (
    SimilarityClass,
    classify,
    construct_witness,
    detect_special_cases,
    generate_random,
    witness_residual,
)
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
