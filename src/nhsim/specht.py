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

Everything runs on stacks.  :func:`word_traces` evaluates a word list for
a whole stack of matrices in one left-to-right pass that forms each shared
prefix product once, :func:`trace_mismatches` compares the traces of the
first matrix with those of the others, and :func:`solve_generators`
solves several symmetries of one ``H`` in one stacked SVD.  The 2x2 check
(:func:`check_similarity_implies_symmetry_2x2`) decides class membership
from one word pass over ``H`` and its mapped targets ``sign T(H)`` and
gets both generators from one SVD of shape ``(2, 8, 3)``.  numpy runs the
same BLAS or LAPACK call per matrix of a stack, so every trace and
generator has the bytes of a one-matrix evaluation.

A trace comparison tolerates ``tol max(|A|_F, |B|_F)^|w|`` for a word of
length ``|w|``: it is relative, so the verdict is the same for ``c A`` and
``c B`` at any scale ``c > 0``.  Where the traces would overflow or lose
precision the verdict is decided on the pair times one exact power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import SimilarityClass, generate_random
from .errors import ClassMismatchError, UnsupportedDimensionError
from .matrices import as_matrix, as_scaled_matrix, dagger, frob, scaled_stack
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


def word_traces(stack: np.ndarray, words) -> np.ndarray:
    """Traces of ``words`` for each matrix of a validated ``(m, n, n)`` stack.

    Returns the ``(m, len(words))`` complex traces, with ``X -> H`` and
    ``Xdag -> H^+``.  Every word is multiplied out left to right from
    ``eye @ X_1``, and each prefix product is formed once, for the whole
    stack, for all the words that share it.  numpy runs the same BLAS call
    for each matrix of a stack, so every trace has the bytes of a
    one-matrix evaluation.
    """
    letters = {X: stack, XDAG: stack.conj().transpose(0, 2, 1)}
    products = {(): np.eye(stack.shape[-1], dtype=complex)}
    out = np.empty((stack.shape[0], len(words)), dtype=complex)
    for j, w in enumerate(words):
        for k in range(1, len(w) + 1):
            prefix = w.letters[:k]
            if prefix not in products:
                products[prefix] = products[prefix[:-1]] @ letters[prefix[-1]]
        out[:, j] = np.trace(products[w.letters], axis1=1, axis2=2)
    return out


def trace_mismatches(
    stack: np.ndarray, traces: np.ndarray, words, tol: float
) -> list[list[int]]:
    """Positions of the words whose traces differ between ``stack[0]`` and
    each later matrix of a validated stack.

    ``traces`` are the :func:`word_traces` of ``stack``.  For the pair
    ``(A, B) = (stack[0], stack[i])`` word ``w`` mismatches when the traces
    differ by more than ``tol max(|A|_F, |B|_F)^|w|``, because word traces
    grow with word degree; a zero pair matches.  The verdict is decided on
    the stack times one power of two (:func:`~nhsim.matrices.scaled_stack`
    for the longest word's degree), so it does not depend on the scale; a
    stack in range is decided on ``traces`` as given.
    """
    scaled = scaled_stack(stack, max(map(len, words)))
    if scaled is not stack:
        traces = word_traces(scaled, words)
    norms = np.array([frob(M) for M in scaled])
    degrees = np.array([len(w) for w in words])
    bound = tol * np.maximum(norms[0], norms[1:, None]) ** degrees
    differ = np.abs(traces[1:] - traces[0]) > bound
    return [np.flatnonzero(row).tolist() for row in differ]


def word_trace(H, w: Word) -> complex:
    """Trace of the word evaluated with ``X -> H`` and ``Xdag -> H^+``."""
    return complex(word_traces(as_matrix(H)[None], [w])[0, 0])


def trace_profile(H, n: int | None = None) -> list[tuple[Word, complex]]:
    H = as_matrix(H)
    words = word_list(H.shape[0] if n is None else n)
    return [(w, complex(t)) for w, t in zip(words, word_traces(H[None], words)[0])]


def compare_profiles(A, B, tol: float = 1e-8):
    """Word-by-word trace comparison; returns the list of mismatches.

    Each mismatch is ``(word, trace of A, trace of B)``, with the traces of
    ``A`` and ``B`` as given (they may overflow or underflow where the
    pair's scale does); the test is :func:`trace_mismatches`, which does
    not depend on the scale.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ValueError("matrices must have equal dimension")
    words = word_list(A.shape[0])
    pair = np.stack([A, B])
    # the traces as given may overflow; trace_mismatches then decides on the
    # rescaled pair
    with np.errstate(over="ignore", invalid="ignore"):
        traces = word_traces(pair, words)
    (bad,) = trace_mismatches(pair, traces, words, tol)
    return [(words[j], complex(traces[0, j]), complex(traces[1, j])) for j in bad]


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
    up to sign); the smaller residual wins.  ``H`` is rescaled by
    :func:`~nhsim.matrices.as_scaled_matrix`, which changes neither the
    generator nor the relative residual.
    """
    H = as_scaled_matrix(H)
    if H.shape[0] != 2:
        raise UnsupportedDimensionError("generator recovery is a 2x2 operation")
    return solve_generators(H, (symmetry,), [mapped_target(H, symmetry)])[symmetry]


def solve_generators(H: np.ndarray, symmetries, targets) -> dict[str, GeneratorSearch]:
    """:func:`recover_generator` for several symmetries of one validated 2x2
    ``H``, given their mapped targets, in one stacked SVD.

    numpy runs the same LAPACK call for each 8x3 matrix of the stack, so
    each generator has the bytes of a one-symmetry solve.
    """
    props = [SYMMETRY_TARGETS[s][2] for s in symmetries]
    bases = np.stack([p.basis for p in props])
    M = (H @ bases - bases @ np.stack(targets)[:, None]).reshape(len(props), 3, 4)
    A = np.concatenate([M.real, M.imag], axis=2).transpose(0, 2, 1)
    q = np.linalg.svd(A)[2][:, -1]
    norm = max(frob(H), 1e-300)
    out = {}
    for symmetry, prop, B, qk in zip(symmetries, props, targets, q):
        # np.tensordot(qk, prop.basis, axes=1) without its shape bookkeeping
        candidates = (np.dot(qk[None], prop.basis.reshape(3, 4)).reshape(2, 2), _I2)
        residuals = [frob(H - U @ B @ dagger(U)) for U in candidates]
        k = int(np.argmin(residuals))  # ties keep the SVD candidate
        U = candidates[k]
        out[symmetry] = GeneratorSearch(
            symmetry=symmetry,
            generator=U,
            similarity_residual=residuals[k] / norm,
            property_defect=prop.defect(U),
        )
    return out


def check_similarity_implies_symmetry_2x2(
    H,
    cls: SimilarityClass,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> dict[str, GeneratorSearch]:
    """Recover both enclosed symmetry generators of a 2x2 class member.

    The word traces of ``H`` and its two mapped targets decide membership
    (:func:`trace_mismatches` at ``residual_tol``), exactly for n = 2: ``H``
    is pseudo-Hermitian iff ``tr H`` and ``tr H^2`` are real (Mostafazadeh,
    J. Math. Phys. 43 (2002) 205), chiral iff ``tr H`` is imaginary and
    ``tr H^2`` real, self-skew-similar iff ``tr H = 0``.  A non-member raises
    ``ClassMismatchError`` naming the class and the first mismatching word.
    """
    return _class_generators(H, cls, cfg.residual_tol)


def _class_generators(H, cls: SimilarityClass, tol: float | None):
    """Generators of ``cls`` for a 2x2 ``H``; with ``tol``, after one word
    pass over ``(H, T_1, T_2)`` has decided that ``H`` is in ``cls``."""
    H = as_scaled_matrix(H)
    if H.shape[0] != 2:
        raise UnsupportedDimensionError("this check is a 2x2 statement")
    symmetries = CLASS_SYMMETRIES[cls]
    targets = [mapped_target(H, symmetry) for symmetry in symmetries]
    if tol is not None:
        words = word_list(2)
        stack = np.stack([H, *targets])
        traces = word_traces(stack, words)
        for i, bad in enumerate(trace_mismatches(stack, traces, words, tol), 1):
            if bad:
                j = bad[0]
                raise ClassMismatchError(
                    f"not {cls.value}: word {words[j]} traces {traces[0, j]:.6g} "
                    f"vs {traces[i, j]:.6g} for the {symmetries[i - 1]} target")
    return solve_generators(H, symmetries, targets)


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
    words = word_list(3)
    symmetries = CLASS_SYMMETRIES[cls]
    for attempt in range(max_resamples):
        H = generate_random(cls, 3, seed + 7919 * attempt, non_normal=True)
        stack = np.stack([H] + [mapped_target(H, symmetry) for symmetry in symmetries])
        traces = word_traces(stack, words)
        for i, symmetry in enumerate(symmetries, start=1):
            for j, w in enumerate(words):
                ta, tb = complex(traces[0, j]), complex(traces[i, j])
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
