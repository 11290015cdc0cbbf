"""The three generalized similarity classes and their Hermitian witnesses.

A matrix belongs to a class when an invertible Hermitian transform ``S``
satisfies ``H = sign S R(H) S^-1``, where ``R`` is the adjoint or the
identity.  The pair ``(sign, R)`` in :data:`CLASS_EQUATIONS` is all that
tells the classes apart:

===================  ====  ========  ===========================  ===============
class                sign  R         defining equation            spectral map
===================  ====  ========  ===========================  ===============
``PseudoHermitian``  +1    adjoint   ``H = eta H^+ eta^-1``       {eps} = {eps*}
``Chiral``           -1    adjoint   ``H = -Gamma H^+ Gamma^-1``  {eps} = {-eps*}
``SelfSkewSimilar``  -1    identity  ``H = -S H S^-1``            {eps} = {-eps}
===================  ====  ========  ===========================  ===============

Similar matrices share their spectrum, so the spectrum is closed under
``eps -> sign R(eps)``, with ``R`` acting on a number as conjugation or as
the identity (:data:`CLASS_MAP`); :mod:`nhsim.epfinder` derives from the
same pair which det/trace components vanish, and so the EP codimension.

The defining equation is linear in the transform: ``H S - sign S R(H) = 0``.
Restricted to Hermitian transforms it is a real linear system in their
``n^2`` real coordinates, so one procedure decides all three classes: the
nullspace of that system is taken from one SVD, and the witness is the
best-conditioned element found in it.  The class holds within tolerance
exactly when that element is invertible and solves the equation within
``residual_tol``; the spectral constraint is a necessary condition checked
first.  No Jordan decomposition is involved, so the verdict does not depend
on ``cluster_tol`` beyond the spectral check, and no dimension cap applies.

``classify`` and ``construct_witness`` (its one-class case) validate ``H``,
take ``|H|_F`` and solve for its eigenvalues once, decide the spectral
constraints of all classes in one pass and solve the classes that pass in
stacked calls.  The solver's tables depend only on ``n`` or on the nullity
``k`` and are built once per process with ``functools.cache``, read-only:
the ``(n^2, n, n)`` Hermitian basis (about 1 MB for all ``n <= 12``), the
triangle indices and the ``(32, k)`` search directions.  The eigensolve,
the SVDs, the ``eigvalsh`` of the candidates and the solves of the
adjoint residual and of :func:`factor` go through :mod:`nhsim._lapack`
(numpy's gufuncs without the ``np.linalg`` wrappers, numpy's bytes).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import ClassMismatchError
from .matrices import (
    as_matrix,
    as_scaled_matrix,
    dagger,
    frob,
    ldexp_complex,
    scale_exponents,
)
from .spectral import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _eigvals,
    _symmetry_pairs,
    is_normal,
)

__all__ = [
    "SimilarityClass",
    "SimilarityWitness",
    "SpecialCaseReport",
    "ClassificationResult",
    "classify",
    "construct_witness",
    "witness_residual",
    "factor",
    "generate_random",
    "detect_special_cases",
]


class SimilarityClass(enum.Enum):
    PSEUDO_HERMITIAN = "PseudoHermitian"
    CHIRAL = "Chiral"
    SELF_SKEW_SIMILAR = "SelfSkewSimilar"

    @classmethod
    def from_tag(cls, tag: str) -> "SimilarityClass":
        aliases = {
            "pseudohermitian": cls.PSEUDO_HERMITIAN,
            "pseudo-hermitian": cls.PSEUDO_HERMITIAN,
            "chiral": cls.CHIRAL,
            "selfskewsimilar": cls.SELF_SKEW_SIMILAR,
            "self-skew-similar": cls.SELF_SKEW_SIMILAR,
            "self-skew": cls.SELF_SKEW_SIMILAR,
        }
        key = tag.strip().lower()
        if key not in aliases:
            raise ValueError(f"unknown similarity class {tag!r}")
        return aliases[key]


#: ``(sign, adjoint)`` of each class equation ``H = sign S R(H) S^-1``:
#: ``R`` is the adjoint when ``adjoint`` is set and the identity otherwise.
CLASS_EQUATIONS = {
    SimilarityClass.PSEUDO_HERMITIAN: (1.0, True),
    SimilarityClass.CHIRAL: (-1.0, True),
    SimilarityClass.SELF_SKEW_SIMILAR: (-1.0, False),
}

#: Name in ``spectral.SYMMETRY_MAPS`` of each class's spectral map
#: ``eps -> sign R(eps)``.
CLASS_MAP = {
    cls: ("neg" if sign < 0 else "") + ("conj" if adjoint else "")
    for cls, (sign, adjoint) in CLASS_EQUATIONS.items()
}


@dataclass
class SimilarityWitness:
    """A Hermitian transform for one class, with its defining-equation
    residual, relative Hermiticity defect and smallest singular value.
    Constructed witnesses have unit spectral norm, so ``min_singular_value``
    is their inverse condition number.  A constructed transform is the
    identity or is built from exact conjugate pairs and divided by a
    positive real, so it equals its adjoint bit for bit and its
    ``hermiticity_defect`` is exactly ``0.0``."""

    similarity_class: SimilarityClass
    transform: np.ndarray
    residual: float
    hermiticity_defect: float
    min_singular_value: float

    def to_json(self) -> dict:
        from .matrices import matrix_to_json

        return {
            "class": self.similarity_class.value,
            "transform": matrix_to_json(self.transform),
            "residual": self.residual,
        }


@dataclass
class SpecialCaseReport:
    """Defining-residual flags for the trivial generator-is-identity cases."""

    flags: set[str] = field(default_factory=set)

    def __contains__(self, flag: str) -> bool:
        return flag in self.flags


@dataclass
class ClassificationResult:
    """Witness-confirmed classes plus diagnostics.

    ``spectral_only`` lists classes whose spectral-symmetry necessary
    condition holds but for which no valid witness could be built; the
    distinction is diagnostic, not hidden.
    """

    confirmed: set[SimilarityClass] = field(default_factory=set)
    spectral_only: set[SimilarityClass] = field(default_factory=set)
    witnesses: dict[SimilarityClass, SimilarityWitness] = field(default_factory=dict)

    @property
    def candidates(self) -> set[SimilarityClass]:
        return self.confirmed | self.spectral_only


def witness_residual(H: np.ndarray, cls: SimilarityClass, S: np.ndarray) -> float:
    """Relative residual of the class-defining equation for transform ``S``.

    It is homogeneous of degree 0 in ``H`` and in ``S``, so both are
    rescaled by :func:`~nhsim.matrices.as_scaled_matrix`.
    """
    H = as_scaled_matrix(H)
    return _residual(H, cls, as_scaled_matrix(S), frob(H))


def _residual(H, cls: SimilarityClass, S, nH: float) -> float:
    """:func:`witness_residual` of validated ``H`` and ``S``, ``nH = |H|_F``:
    ``|H S - sign S R(H)|`` over ``|H| |S|``, or ``|H - sign S R(H) S^-1|``
    over ``|H|`` when ``R`` is the adjoint."""
    sign, adjoint = CLASS_EQUATIONS[cls]
    if not adjoint:
        denom = nH * frob(S)
        return frob(H @ S - sign * (S @ H)) / denom if denom > 0 else 0.0
    if nH == 0:
        return 0.0
    conj = _lapack.solve(S.T, (S @ dagger(H)).T).T  # S H^+ S^-1
    return frob(H - sign * conj) / nH


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _indices(n: int):
    """``(d, strict, full)`` for an ``n x n`` matrix: the diagonal index and
    the ``(iu, ju)`` of the strict and of the full upper triangle; read-only."""
    strict = tuple(map(_read_only, np.triu_indices(n, 1)))
    full = tuple(map(_read_only, np.triu_indices(n)))
    return _read_only(np.arange(n)), strict, full


@functools.cache
def _hermitian_basis(n: int) -> np.ndarray:
    """The ``(n^2, n, n)`` Hermitian matrices of the unit coordinates; read-only."""
    return _read_only(_hermitian_from_coords(np.eye(n * n), n))


@functools.cache
def _search_directions(k: int) -> np.ndarray:
    """The ``(32, k)`` coefficients of the random candidates in a nullspace
    of dimension ``k``: ``default_rng(0)``, fixed as part of the contract;
    read-only."""
    return _read_only(np.random.default_rng(0).standard_normal((32, k)))


def _hermitian_from_coords(C: np.ndarray, n: int) -> np.ndarray:
    """Exactly Hermitian ``(k, n, n)`` matrices from ``(k, n^2)`` real
    coordinates: the diagonal, then the real and the imaginary parts of the
    strict upper triangle in row-major order."""
    d, (iu, ju), _ = _indices(n)
    m = iu.size
    S = np.zeros((C.shape[0], n, n), dtype=complex)
    S[:, d, d] = C[:, :n]
    z = C[:, n : n + m] + 1j * C[:, n + m :]
    S[:, iu, ju] = z
    S[:, ju, iu] = z.conj()
    return S


def _prepared(H) -> tuple[np.ndarray, float]:
    """``H`` validated and rescaled (:func:`~nhsim.matrices.as_scaled_matrix`),
    with its Frobenius norm, which every tolerance scales."""
    H = as_scaled_matrix(H)
    return H, frob(H)


def _paired(H, classes: list, cfg: ToleranceConfig, nH: float) -> list:
    """The ``classes`` whose spectral constraint holds within
    ``cluster_tol * |H|_F``: one eigensolve and one decision for all."""
    ok = _symmetry_pairs(_eigvals(H), [CLASS_MAP[c] for c in classes],
                         cfg.cluster_tol * nH)
    return [c for c, paired in zip(classes, ok) if paired]


def _witness(H, cls, S, min_sv, nH) -> SimilarityWitness:
    return SimilarityWitness(
        similarity_class=cls,
        transform=S,
        residual=_residual(H, cls, S, nH),
        hermiticity_defect=0.0,
        min_singular_value=float(min_sv),
    )


def _solve_witnesses(H, classes: list, cfg: ToleranceConfig, nH: float) -> list:
    """For each class, its witness or the ``ClassMismatchError`` saying why
    there is none; ``H`` and ``nH = |H|_F`` come from :func:`_prepared`.

    Each class's nullspace is cut at ``residual_tol`` times the largest
    singular value of its real system's SVD.  The witness is the first
    candidate (the nullspace basis, then 32 fixed random combinations) with
    the largest ``sigma_min / sigma_max``, at unit spectral norm, or the
    identity when the operator is negligible against ``H``; there is none
    when the space is empty or no ratio exceeds ``rank_tol``.  The adjoint
    classes share ``H B``, ``B H^+`` and one SVD, all classes one ``eigvalsh``:
    LAPACK solves each matrix of a stack as it would alone.
    """
    if not classes:
        return []
    n = H.shape[0]
    B = _hermitian_basis(n)
    HB = H @ B
    groups, systems = {}, []
    for cls in classes:
        groups.setdefault(CLASS_EQUATIONS[cls][1], []).append(cls)
    for adjoint, group in groups.items():
        BR = B @ (dagger(H) if adjoint else H)
        # an adjoint image is (anti-)Hermitian: its upper triangle suffices
        iu, ju = _indices(n)[2] if adjoint else (slice(None), slice(None))
        m = n * (n + 1) // 2 if adjoint else n * n
        A = np.empty((len(group), n * n, 2 * m))
        for a, cls in zip(A, group):
            # H S - sign S R(H); the sign is negated before the complex
            # product, since negating after it can flip the sign of a zero
            img = (HB + (-CLASS_EQUATIONS[cls][0]) * BR)[:, iu, ju].reshape(n * n, m)
            a[:, :m], a[:, m:] = img.real, img.imag
        systems.append((group, A))
    del HB, BR, img  # before the SVDs, which need the most memory

    out, pieces, slices = {}, [], {}
    for group, A in systems:
        for cls, U, s in zip(group, *_lapack.svd(A, full_matrices=False)[:2]):
            null = U[:, int(np.sum(s > cfg.residual_tol * s[0])) :].T
            if s[0] * np.sqrt(n) <= cfg.residual_tol * nH:
                # H is zero or within tolerance of a scalar: every Hermitian
                # transform solves the equation, the identity best conditioned
                out[cls] = _witness(H, cls, np.eye(n, dtype=complex), 1.0, nH)
            elif not len(null):
                out[cls] = ClassMismatchError(
                    f"no Hermitian transform solves the {cls.value} equation")
            else:
                start = sum(map(len, pieces))
                pieces += [null, _search_directions(len(null)) @ null]
                slices[cls] = slice(start, start + len(null) + 32)
    if pieces:
        S = _hermitian_from_coords(np.concatenate(pieces), n)
        sv = np.abs(_lapack.eigvalsh(S))  # singular values of Hermitian matrices
        hi = sv.max(axis=1)
        ratio = sv.min(axis=1) / hi
    for cls, rows in slices.items():
        best = rows.start + int(np.argmax(ratio[rows]))
        if ratio[best] > cfg.rank_tol:
            out[cls] = _witness(H, cls, S[best] / hi[best], ratio[best], nH)
        else:
            out[cls] = ClassMismatchError(
                f"the Hermitian solutions of the {cls.value} equation are all singular")
    return [out[c] for c in classes]


def construct_witness(
    H, cls: SimilarityClass, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> SimilarityWitness:
    """Hermitian invertible witness of ``cls`` for ``H``, at unit spectral norm.

    The spectral constraint is checked first; then the witness is the
    best-conditioned element of the Hermitian solution space of the class
    equation (see the module docstring): the one-class case of
    :func:`classify`'s pass.  Raises ``ClassMismatchError`` when the
    constraint fails or no invertible Hermitian solution exists: the
    spectral constraint is necessary but not sufficient.  The returned
    residual is not checked against ``residual_tol``.
    """
    H, nH = _prepared(H)
    if not _paired(H, [cls], cfg, nH):
        raise ClassMismatchError(f"spectrum violates the {cls.value} symmetry constraint")
    (w,) = _solve_witnesses(H, [cls], cfg, nH)
    if isinstance(w, ClassMismatchError):
        raise w
    return w


def _witness_ok(w: SimilarityWitness, cfg: ToleranceConfig) -> bool:
    """Acceptance of a witness from :func:`_solve_witnesses`, which already
    guarantees ``min_singular_value > rank_tol`` at unit spectral norm and a
    Hermiticity defect of 0."""
    return w.residual <= cfg.residual_tol


def classify(H, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ClassificationResult:
    """Classes whose spectral condition holds, split by witness success.

    One eigensolve and one stacked decision serve the three spectral
    checks, and the classes that pass are solved together
    (:func:`_solve_witnesses`).  A class lands in ``confirmed`` when its
    spectral-symmetry multiset test passes *and* the witness solves the
    class equation within ``residual_tol``; otherwise it is reported in
    ``spectral_only``.
    """
    H, nH = _prepared(H)
    result = ClassificationResult()
    classes = _paired(H, list(SimilarityClass), cfg, nH)
    for cls, w in zip(classes, _solve_witnesses(H, classes, cfg, nH)):
        if isinstance(w, ClassMismatchError) or not _witness_ok(w, cfg):
            result.spectral_only.add(cls)
        else:
            result.confirmed.add(cls)
            result.witnesses[cls] = w
    return result


def factor(H, cls: SimilarityClass, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Hermitian factorization certificates.

    PseudoHermitian: ``(eta, A)`` with ``H = eta A`` and ``A`` Hermitian.
    Chiral: ``(Gamma, C)`` with ``H = i Gamma C`` and ``C`` Hermitian.
    SelfSkewSimilar: ``(S, H)`` -- the anticommuting witness; no
    factorization is claimed for this class.

    The factor is computed and gated on ``H`` times the power of two of
    :func:`~nhsim.matrices.as_scaled_matrix`, then scaled back.
    """
    H = as_matrix(H)
    e = int(scale_exponents(H[None])[0])
    Hs = ldexp_complex(H, e)  # as_scaled_matrix(H)
    w = construct_witness(Hs, cls, cfg)
    if not _witness_ok(w, cfg):
        raise ClassMismatchError(
            f"witness for {cls.value} exceeds tolerance (residual {w.residual:.3g})"
        )
    T = w.transform
    sign, adjoint = CLASS_EQUATIONS[cls]
    if not adjoint:
        return T, H
    A = _lapack.solve(T, Hs)
    if sign < 0:  # H = i T A
        A = -1j * A
    defect = frob(A - dagger(A)) / max(frob(A), 1e-300)
    # the witness has unit spectral norm: 1 / min_singular_value is cond(T)
    if defect > 10 * cfg.residual_tol / w.min_singular_value:
        raise ClassMismatchError(
            f"factor is not Hermitian within tolerance (defect {defect:.3g})"
        )
    return T, ldexp_complex((A + dagger(A)) / 2, -e)


# ---------------------------------------------------------------------------
# sample generation


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_hermitian(rng, n):
    A = _random_complex(rng, n)
    return (A + dagger(A)) / 2


def _random_hermitian_invertible(rng, n, floor=1e-2):
    """Gaussian Hermitian, identity-shifted until the smallest singular value
    exceeds ``floor`` times the spectral norm."""
    M = _random_hermitian(rng, n)
    w, V = np.linalg.eigh(M)
    while np.min(np.abs(w)) < floor * np.max(np.abs(w)):
        w = w + 2 * floor * np.max(np.abs(w))
    return (V * w) @ dagger(V)


def generate_random(
    cls: SimilarityClass,
    n: int,
    seed: int,
    non_normal: bool = False,
) -> np.ndarray:
    """Deterministic in-class sample (PCG64 stream seeded with ``seed >= 0``).

    PseudoHermitian samples are ``eta A`` and chiral samples ``i Gamma C``
    with ``eta``/``Gamma`` random Hermitian invertible and ``A``/``C``
    random Hermitian.  Self-skew samples are unitary conjugations of a
    matrix with vanishing diagonal blocks in the basis where
    ``S = diag(I_p, -I_q)``; unitary (rather than arbitrary invertible)
    conjugation is required to keep a *Hermitian* witness in existence.
    With ``non_normal=True``, samples whose commutator ``[H, H^+]`` falls
    below ``1e-6 |H|_F^2`` are rejected and redrawn, up to 100 draws in all
    (``RuntimeError`` after that); a 1x1 matrix is always normal, so
    ``n = 1`` with ``non_normal=True`` raises ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n == 1 and non_normal:
        raise ValueError(
            "a 1x1 matrix is always normal; a non-normal sample needs n >= 2"
        )
    sign, adjoint = CLASS_EQUATIONS[cls]
    if n == 1 and not adjoint:
        return np.zeros((1, 1), dtype=complex)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        if not adjoint:
            p = n // 2
            M = np.zeros((n, n), dtype=complex)
            M[:p, p:] = _random_complex(rng, n)[: p, : n - p]
            M[p:, :p] = _random_complex(rng, n)[: n - p, : p]
            U, _ = np.linalg.qr(_random_complex(rng, n))
            H = U @ M @ dagger(U)
        elif n == 1:
            H = np.array([[rng.standard_normal()]], dtype=complex)
        else:
            H = _random_hermitian_invertible(rng, n) @ _random_hermitian(rng, n)
        if adjoint and sign < 0:  # i Gamma C
            H = 1j * H
        if not non_normal or not is_normal(H, 1e-6):
            return H
    raise RuntimeError(
        f"failed to draw a non-normal {cls.value} sample in 100 attempts"
    )


def detect_special_cases(
    H, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> SpecialCaseReport:
    """Flags for the generator-is-identity special cases, each decided by a
    defining residual relative to ``|H|_F``, after the rescale of
    :func:`~nhsim.matrices.as_scaled_matrix`."""
    H = as_scaled_matrix(H)
    scale = max(frob(H), 1e-300)
    tol = cfg.residual_tol
    flags = set()
    if frob(H - dagger(H)) / scale <= tol:
        flags.add("Hermitian")
    if frob(H - H.conj()) / scale <= tol:
        flags.add("Real")
    if frob(H + dagger(H)) / scale <= tol:
        flags.add("AntiHermitian")
    if frob(H + H.conj()) / scale <= tol:
        flags.add("Imaginary")
    if frob(H + H.T) / scale <= tol:
        flags.add("AntiSymmetric")
    if is_normal(H, tol):
        flags.add("Normal")
    return SpecialCaseReport(flags=flags)
