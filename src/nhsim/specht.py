"""Word-trace machinery for the unitary-similarity criterion.

Two matrices are unitarily similar iff the traces of all words in
``(X, X^+)`` agree; for n = 2 and n = 3 finite canonical word lists
suffice.  On top of the decision procedure this module recovers explicit
2x2 symmetry generators (unitary ``U`` with ``U U = 1`` or ``U U* = 1``)
and produces certified counterexamples showing that the generalized
similarities are strictly larger than the symmetries they enclose.

Generator recovery is closed-form.  Each property has a real basis of
three 2x2 matrices whose unit-norm real combinations are exactly the
unitaries with that property (up to a global phase, and besides +-I for
``U U = 1``).  The similarity ``H U = sign U T`` is linear in the
coefficients, so one SVD of a real 8x3 matrix gives the generator with the
smallest similarity residual; the property holds to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import SimilarityClass, construct_witness, generate_random
from .errors import ClassMismatchError, UnsupportedDimensionError
from .matrices import as_matrix, dagger, frob
from .spectral import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = [
    "Word",
    "word_trace",
    "word_list",
    "trace_profile",
    "unitary_similarity_test",
    "compare_profiles",
    "GeneratorSearch",
    "check_similarity_implies_symmetry_2x2",
    "CounterexampleEvidence",
    "n3_counterexample",
    "SYMMETRY_TARGETS",
    "mapped_target",
]

X = "X"
XDAG = "Xdag"


@dataclass(frozen=True)
class Word:
    """Finite word over the two-letter alphabet {X, Xdag}."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("word must be nonempty")
        if any(l not in (X, XDAG) for l in self.letters):
            raise ValueError(f"bad letters in {self.letters}")

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return "".join(self.letters)

    def rotated(self, k: int = 1) -> "Word":
        k %= len(self.letters)
        return Word(self.letters[k:] + self.letters[:k])

    @classmethod
    def parse(cls, text: str) -> "Word":
        letters = []
        i = 0
        while i < len(text):
            if text.startswith(XDAG, i):
                letters.append(XDAG)
                i += len(XDAG)
            elif text[i] == X:
                letters.append(X)
                i += 1
            else:
                raise ValueError(f"cannot parse word {text!r} at position {i}")
        return cls(tuple(letters))


def _w(spec: str) -> Word:
    # compact builder: 'aab' -> X X Xdag
    return Word(tuple(X if c == "a" else XDAG for c in spec))


# canonical non-redundant word lists (the n=3 list as printed in the source
# material repeats two entries; the deduplicated seven-word list is used)
_WORDS = {
    2: [_w("a"), _w("aa"), _w("ab")],
    3: [
        _w("a"),
        _w("aa"),
        _w("ab"),
        _w("aaa"),
        _w("aab"),
        _w("aabb"),
        _w("aabbab"),
    ],
}


def word_list(n: int) -> list[Word]:
    """Canonical non-redundant words for deciding unitary similarity."""
    if n not in _WORDS:
        raise UnsupportedDimensionError(
            f"word lists are only available for n in (2, 3), got {n}"
        )
    return list(_WORDS[n])


def word_trace(H, w: Word) -> complex:
    """Trace of the word evaluated with ``X -> H`` and ``Xdag -> H^+``."""
    H = as_matrix(H)
    Hd = dagger(H)
    M = np.eye(H.shape[0], dtype=complex)
    for letter in w.letters:
        M = M @ (H if letter == X else Hd)
    return complex(np.trace(M))


def trace_profile(H, n: int | None = None) -> list[tuple[Word, complex]]:
    H = as_matrix(H)
    if n is None:
        n = H.shape[0]
    return [(w, word_trace(H, w)) for w in word_list(n)]


def compare_profiles(A, B, tol: float = 1e-8):
    """Word-by-word trace comparison; returns the list of mismatches.

    The tolerance for each word is scaled by ``max(|A|_F, |B|_F, 1)^|w|``
    because word traces grow with word degree.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ValueError("matrices must have equal dimension")
    n = A.shape[0]
    scale = max(frob(A), frob(B), 1.0)
    mismatches = []
    for w in word_list(n):
        ta = word_trace(A, w)
        tb = word_trace(B, w)
        if abs(ta - tb) > tol * scale ** len(w):
            mismatches.append((w, ta, tb))
    return mismatches


def unitary_similarity_test(A, B, tol: float = 1e-8) -> bool:
    """Whether ``A = U B U^+`` for some unitary ``U`` (n <= 3)."""
    return not compare_profiles(A, B, tol)


# ---------------------------------------------------------------------------
# 2x2 symmetry-generator recovery

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class GeneratorProperty:
    """A generator property with a real basis that meets it exactly.

    For every unit real 3-vector ``q`` the matrix ``U = sum_k q_k basis[k]``
    is unitary and has the property.
    """

    basis: np.ndarray  # (3, 2, 2)
    conjugate: bool  # property U U* = 1 if set, U U = 1 otherwise

    def defect(self, U: np.ndarray) -> float:
        return frob(U @ (U.conj() if self.conjugate else U) - _I2)


# U U = 1: the Hermitian unitaries n.sigma; +-I are the only others
_INVOLUTION = GeneratorProperty(np.array([_SX, _SY, _SZ]), conjugate=False)
# U U* = 1: the symmetric unitaries, up to a global phase that cancels in
# both the similarity and the property
_SYMMETRIC = GeneratorProperty(np.array([_I2, 1j * _SX, 1j * _SZ]), conjugate=True)


@dataclass
class GeneratorSearch:
    """Outcome of one symmetry-generator search."""

    symmetry: str
    generator: np.ndarray
    similarity_residual: float
    property_defect: float


# per symmetry: (map applied to H, sign in H = sign * U map(H) U^+,
#                generator property)
SYMMETRY_TARGETS = {
    "PT": (np.conj, +1, _SYMMETRIC),
    "pseudo-hermitian-symmetry": (dagger, +1, _INVOLUTION),
    "CP": (np.conj, -1, _SYMMETRIC),
    "chiral-symmetry": (dagger, -1, _INVOLUTION),
    "sublattice": (lambda M: M, -1, _INVOLUTION),
    "pseudo-chiral": (np.transpose, -1, _SYMMETRIC),
}

CLASS_SYMMETRIES = {
    SimilarityClass.PSEUDO_HERMITIAN: ("PT", "pseudo-hermitian-symmetry"),
    SimilarityClass.CHIRAL: ("CP", "chiral-symmetry"),
    SimilarityClass.SELF_SKEW_SIMILAR: ("sublattice", "pseudo-chiral"),
}


def mapped_target(H, symmetry: str) -> np.ndarray:
    """``sign T(H)``, which the symmetry makes unitarily similar to ``H``."""
    target, sign, _ = SYMMETRY_TARGETS[symmetry]
    return sign * np.asarray(target(H))


def recover_generator(H, symmetry: str) -> GeneratorSearch:
    """Closed-form 2x2 symmetry generator with the smallest residual.

    Over the property's basis, ``U = sum_k q_k B_k`` with unit real ``q``,
    the defect ``H U - sign U T`` of the similarity ``H = sign U T U^+``
    (``T`` the mapped target) is linear in ``q``; the minimising ``q`` is
    the last right singular vector of the real 8x3 matrix that stacks it.
    ``U`` is unitary, so that defect has the norm of ``H - sign U T U^+``:
    the result minimises the similarity residual over every generator with
    the property, and its property defect is at rounding level.  The
    identity is a second candidate (the only involution outside ``n.sigma``
    up to sign); the smaller residual wins.
    """
    H = as_matrix(H)
    if H.shape[0] != 2:
        raise UnsupportedDimensionError("generator recovery is a 2x2 operation")
    prop = SYMMETRY_TARGETS[symmetry][2]
    B = mapped_target(H, symmetry)
    M = (H @ prop.basis - prop.basis @ B).reshape(3, 4)
    q = np.linalg.svd(np.concatenate([M.real, M.imag], axis=1).T)[2][-1]
    candidates = (np.tensordot(q, prop.basis, axes=1), _I2)
    residuals = [frob(H - U @ B @ dagger(U)) for U in candidates]
    k = int(np.argmin(residuals))  # ties keep the SVD candidate
    U = candidates[k]
    return GeneratorSearch(
        symmetry=symmetry,
        generator=U,
        similarity_residual=residuals[k] / max(frob(H), 1e-300),
        property_defect=prop.defect(U),
    )


def check_similarity_implies_symmetry_2x2(
    H,
    cls: SimilarityClass,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> dict[str, GeneratorSearch]:
    """Recover both enclosed symmetry generators of a 2x2 class member.

    First verifies word-trace equality of ``H`` with the two mapped targets
    (this must hold for pseudo-Hermitian and chiral matrices), then solves
    for the unitary generators in closed form (``recover_generator``) and
    reports the property defects.  Raises ``ClassMismatchError`` when ``H``
    is not in the stated class.
    """
    H = as_matrix(H)
    if H.shape[0] != 2:
        raise UnsupportedDimensionError("this check is a 2x2 statement")
    construct_witness(H, cls, cfg)  # raises ClassMismatchError if not in class
    out = {}
    for symmetry in CLASS_SYMMETRIES[cls]:
        if cls is not SimilarityClass.SELF_SKEW_SIMILAR:
            mism = compare_profiles(H, mapped_target(H, symmetry), cfg.residual_tol)
            if mism:
                w, ta, tb = mism[0]
                raise ClassMismatchError(
                    f"word {w} traces differ ({ta:.6g} vs {tb:.6g}) although the "
                    f"class forces equality"
                )
        out[symmetry] = recover_generator(H, symmetry)
    return out


# ---------------------------------------------------------------------------
# n = 3 counterexamples: similarity without symmetry


@dataclass
class CounterexampleEvidence:
    """A class member whose word traces rule out a symmetry."""

    similarity_class: SimilarityClass
    matrix: np.ndarray
    symmetry: str
    word: Word
    trace_lhs: complex
    trace_rhs: complex
    attempts: int

    @property
    def mismatch(self) -> float:
        return abs(self.trace_lhs - self.trace_rhs)

    def to_json(self) -> dict:
        from .matrices import matrix_to_json

        return {
            "class": self.similarity_class.value,
            "matrix": matrix_to_json(self.matrix),
            "symmetry": self.symmetry,
            "word": str(self.word),
            "trace_lhs": [self.trace_lhs.real, self.trace_lhs.imag],
            "trace_rhs": [self.trace_rhs.real, self.trace_rhs.imag],
            "mismatch": self.mismatch,
            "attempts": self.attempts,
        }


def n3_counterexample(
    cls: SimilarityClass,
    seed: int = 0,
    threshold: float = 1e-6,
    max_resamples: int = 100,
) -> CounterexampleEvidence:
    """Certified evidence that class membership does not imply symmetry.

    Draws non-normal 3x3 class members and searches the canonical word list
    for a trace mismatch between ``H`` and a mapped target whose unitary
    similarity the symmetry would require.  The mismatch bound is absolute
    (``threshold``) on the raw trace difference.

    Note the sublattice comparison ``(H, -H)`` can never mismatch for a
    self-skew-similar matrix (odd word traces vanish identically), so for
    that class the evidence always comes from the pseudo-chiral target.
    """
    for attempt in range(max_resamples):
        H = generate_random(cls, 3, seed + 7919 * attempt, non_normal=True)
        for symmetry in CLASS_SYMMETRIES[cls]:
            B = mapped_target(H, symmetry)
            for w in word_list(3):
                ta = word_trace(H, w)
                tb = word_trace(B, w)
                if abs(ta - tb) > threshold:
                    return CounterexampleEvidence(
                        similarity_class=cls,
                        matrix=H,
                        symmetry=symmetry,
                        word=w,
                        trace_lhs=ta,
                        trace_rhs=tb,
                        attempts=attempt + 1,
                    )
    raise RuntimeError(
        f"no word-trace mismatch found for {cls.value} in {max_resamples} samples"
    )
