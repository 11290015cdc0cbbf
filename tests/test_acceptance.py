"""Acceptance suite: ten numbered criteria, one PASS/FAIL line each.

Criterion 8 contains an assertion that cannot hold for the stated family:
the trimer has det == 0 identically in (gamma, k), so the coalescing triple
always keeps an exact zero eigenvalue and every in-family ray splits the
remaining pair with exponent 1/2 -- the 1/3 branch-point scaling only
appears for perturbations leaving the family (see
test_splitting_exponent_generic_ep3_third_root in test_epfinder.py).  The
assertion is implemented as stated and is expected to fail.
"""

import itertools
import time

import numpy as np
import pytest

from nhsim.classes import SimilarityClass, classify, construct_witness, generate_random
from nhsim.epfinder import ScanConfig, certify_order, scan, splitting_exponent
from nhsim.families import MatrixFamily
from nhsim.matrices import frob
from nhsim.specht import check_similarity_implies_symmetry_2x2, n3_counterexample
from nhsim.spectral import (
    SYMMETRY_MAPS,
    eigenvalues,
    is_normal,
    multiset_symmetry_match,
    power_traces,
)

PH = SimilarityClass.PSEUDO_HERMITIAN
CH = SimilarityClass.CHIRAL
SS = SimilarityClass.SELF_SKEW_SIMILAR

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance criterion {num}{suffix}")
    return ok


def dimer_family():
    return MatrixFamily(2, 1, ((SX, (0,)), (1j * SZ, (1,))), ("gamma",))


def trimer_family():
    E = np.eye(3)
    K = (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
         + np.outer(E[1], E[2]) + np.outer(E[2], E[1])).astype(complex)
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    return MatrixFamily(3, 2, ((K, (0, 1)), (D, (1, 0))), ("gamma", "k"))


def test_criterion_1_class_round_trips():
    t0 = time.time()
    failures = 0
    for cls in SimilarityClass:
        for n in range(2, 7):
            for seed in range(200):
                H = generate_random(cls, n, seed)
                result = classify(H)
                ok = cls in result.confirmed and \
                    result.witnesses[cls].residual <= 1e-8
                failures += not ok
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60
    assert report(1, ok, f"{failures} failures, {elapsed:.1f}s"), (
        f"round trips: {failures} failures in {elapsed:.1f}s"
    )


def test_criterion_2_constructive_proofs():
    failures = 0
    for cls in SimilarityClass:
        for n in range(2, 7):
            for seed in range(100):
                w = construct_witness(generate_random(cls, n, seed), cls)
                if w.residual > 1e-8 or w.hermiticity_defect > 1e-8:
                    failures += 1
    assert report(2, failures == 0, f"{failures} failures"), failures


def test_criterion_3_generator_recovery_2x2():
    failures = 0
    for cls in (PH, CH):
        for seed in range(200):
            H = generate_random(cls, 2, seed)
            found = check_similarity_implies_symmetry_2x2(H, cls)
            for r in found.values():
                if max(r.similarity_residual, r.property_defect) > 1e-8:
                    failures += 1
    assert report(3, failures == 0, f"{failures} failures"), failures


def test_criterion_4_counterexamples():
    worst = {}
    for cls in SimilarityClass:
        ev = n3_counterexample(cls, seed=0)
        worst[cls.value] = ev.mismatch
    ok = all(m > 1e-6 for m in worst.values())
    assert report(4, ok, ", ".join(f"{k}: {v:.3g}" for k, v in worst.items())), worst


def test_criterion_5_codimension_counting():
    from nhsim.epfinder import _build_system

    ok = True
    for n in range(2, 7):
        f = MatrixFamily(n, 1, ((np.zeros((n, n), dtype=complex), (0,)),))
        ok &= _build_system(f, PH).codimension == n - 1
        ok &= _build_system(f, CH).codimension == n - 1
        ok &= _build_system(f, SS).codimension == (n if n % 2 == 0 else n - 1)
    assert report(5, ok), "codimension mismatch"


def test_criterion_6_trace_parity():
    failures = 0
    for n in range(2, 7):
        for seed in range(100):
            H = generate_random(PH, n, seed)
            scale = max(frob(H), 1.0)
            if any(abs(t.imag) > 1e-8 * scale**k
                   for k, t in enumerate(power_traces(H, n), 1)):
                failures += 1
            H = generate_random(CH, n, seed)
            scale = max(frob(H), 1.0)
            for k, t in enumerate(power_traces(H, n), 1):
                part = t.imag if k % 2 == 0 else t.real
                if abs(part) > 1e-8 * scale**k:
                    failures += 1
                    break
            H = generate_random(SS, n, seed)
            scale = max(frob(H), 1.0)
            if any(abs(t) > 1e-8 * scale**k
                   for k, t in enumerate(power_traces(H, n), 1) if k % 2 == 1):
                failures += 1
            if n % 2 == 1 and abs(np.linalg.det(H)) > 1e-8 * scale**n:
                failures += 1
    assert report(6, failures == 0, f"{failures} failures"), failures


def test_criterion_7_dimer_ep2_regression():
    t0 = time.time()
    f = dimer_family()
    cands = [c for c in scan(f, PH, ScanConfig(grid={"gamma": (-2, 2, 101)}))
             if c.converged]
    gammas = sorted(c.lam[0] for c in cands)
    roots_ok = (
        len(cands) == 2
        and abs(gammas[0] + 1) <= 1e-8
        and abs(gammas[1] - 1) <= 1e-8
        and all(c.order == 2 and c.single_block for c in cands)
    )
    p = splitting_exponent(f, [1.0], [1.0])
    elapsed = time.time() - t0
    ok = roots_ok and 0.45 <= p <= 0.55 and elapsed < 5
    assert report(7, ok, f"roots {gammas}, exponent {p:.3f}, {elapsed:.1f}s"), (
        gammas, p, elapsed
    )


def test_criterion_8_trimer_ep3_regression():
    t0 = time.time()
    f = trimer_family()
    cfg = ScanConfig(grid={"gamma": (0, 3, 101)}, fixed={"k": 1.0})
    cands = [c for c in scan(f, PH, cfg) if c.converged]
    roots_ok = (
        len(cands) == 1
        and abs(cands[0].lam[0] - np.sqrt(2)) <= 1e-6
        and cands[0].order == 3
        and cands[0].single_block
    )
    p = splitting_exponent(f, cands[0].lam, [1.0, 0.0]) if cands else np.nan
    elapsed = time.time() - t0
    exponent_ok = 0.28 <= p <= 0.38
    ok = roots_ok and exponent_ok and elapsed < 10
    report(8, ok, f"root+order {'ok' if roots_ok else 'BAD'}, "
                  f"exponent {p:.3f} (in-family rays split as 1/2: det==0 "
                  f"identically), {elapsed:.1f}s")
    # det H(gamma, k) == 0 for the whole family, so one eigenvalue stays
    # pinned at zero and the in-family splitting exponent is exactly 1/2;
    # the [0.28, 0.38] window is only reachable by leaving the family.
    assert ok, (
        f"in-family splitting exponent is {p:.4f}; the 1/3 scaling requires "
        f"a perturbation with nonzero determinant component"
    )


def test_criterion_9_no_ep_controls():
    herm = MatrixFamily(2, 1, ((SZ, (0,)), (SX, (1,))), ("lam",))
    anti = MatrixFamily(2, 1, ((1j * SZ, (0,)), (1j * SX, (1,))), ("lam",))
    ok = True
    for fam, cls in ((herm, PH), (anti, CH)):
        cands = scan(fam, cls, ScanConfig(grid={"lam": (-2, 2, 101)}))
        ok &= not any(c.converged for c in cands)
        ok &= all(is_normal(fam.evaluate([x])) for x in np.linspace(-2, 2, 41))
    assert report(9, ok), "no-EP control produced candidates or non-normal points"


def brute_force_match(values, fmap, tol):
    target = fmap(values)
    for perm in itertools.permutations(range(values.size)):
        if all(abs(values[i] - target[j]) <= tol for i, j in enumerate(perm)):
            return True
    return False


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(42)
    tol = 1e-6
    mismatches = 0
    for name, fmap in SYMMETRY_MAPS.items():
        for _ in range(1000):
            n = rng.integers(1, 7)
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if rng.random() < 0.5:  # bias towards feasible instances
                half = vals[: n // 2]
                if name == "conj":
                    other = np.conj(half)
                elif name == "negconj":
                    other = -np.conj(half)
                else:
                    other = -half
                vals = np.concatenate([half, other, vals[2 * (n // 2):n]])[:n]
            got = multiset_symmetry_match(vals, name, tol) is not None
            if got != brute_force_match(vals, fmap, tol):
                mismatches += 1
    trace_fail = 0
    for n in range(2, 7):
        for _ in range(50):
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            vals = eigenvalues(H).values
            for k, t in enumerate(power_traces(H, n), 1):
                expect = np.sum(vals**k)
                if abs(t - expect) > 1e-8 * max(abs(expect), 1.0):
                    trace_fail += 1
    ok = mismatches == 0 and trace_fail == 0
    assert report(10, ok, f"{mismatches} match mismatches, "
                          f"{trace_fail} trace failures"), (mismatches, trace_fail)
