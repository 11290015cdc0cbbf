"""Walkthrough: classifying matrices and constructing witness transforms.

Run with:  python demos/classify_and_witness.py
"""

import numpy as np

from nhsim import (
    SimilarityClass,
    classify,
    construct_witness,
    detect_special_cases,
    factor,
    generate_random,
    witness_residual,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)


def banner(text):
    print(f"\n=== {text} ===")


banner("a matrix can sit in several classes at once")
H = np.array([[0, 1], [4, 0]], dtype=complex)
print("H =\n", H)
result = classify(H)
print("spectrum is {+2, -2}: closed under conjugation AND negation")
for cls in sorted(result.confirmed, key=lambda c: c.value):
    w = result.witnesses[cls]
    print(f"  {cls.value:18s} witness residual {w.residual:.2e}")

banner("the witness is an explicit Hermitian certificate")
w = result.witnesses[SimilarityClass.PSEUDO_HERMITIAN]
print("eta =\n", w.transform)
print("check: ||H - eta H^+ eta^-1|| / ||H|| =",
      f"{witness_residual(H, SimilarityClass.PSEUDO_HERMITIAN, w.transform):.2e}")

banner("pseudo-Hermitian matrices factor as eta * (Hermitian)")
eta, A = factor(H, SimilarityClass.PSEUDO_HERMITIAN)
print("A =\n", A)
print("eta @ A reproduces H:", np.allclose(eta @ A, H))

banner("a defective chiral matrix (EP2: both eigenvalues 0)")
H = np.array([[1j, 1], [1, -1j]], dtype=complex)
w = construct_witness(H, SimilarityClass.CHIRAL)
print("Gamma =\n", w.transform)
print("residual of H = -Gamma H^+ Gamma^-1:", f"{w.residual:.2e}")

banner("special cases: generator-is-identity inclusions")
for M, name in [
    (np.array([[0, 1], [1, 0]], dtype=complex), "sigma_x"),
    (np.array([[0, 1], [-1, 0]], dtype=complex), "i*sigma_y"),
    (np.array([[0, 1j], [1j, 0]]), "i*sigma_x"),
]:
    print(f"  {name:10s} -> {sorted(detect_special_cases(M))}")

banner("random in-class samples round-trip through classify")
for cls in SimilarityClass:
    H = generate_random(cls, 4, seed=7)
    result = classify(H)
    print(f"  generate({cls.value}, n=4) -> confirmed "
          f"{sorted(c.value for c in result.confirmed)}")
