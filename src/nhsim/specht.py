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

Everything runs on stacks, in a fixed number of array passes.
:func:`word_traces` evaluates a word list for a whole stack of matrices by
a word program, cached per word tuple: the prefix products, each formed
once from the letters, all those of one length in one stacked matmul, then
every trace in one pass.  :func:`word_profile`, the one word-trace
comparison, compares the traces of the first matrix with those of the
others, and :func:`solve_generators` solves several symmetries of one ``H``
in one stacked SVD and scores every candidate generator, and its property
defect, in one stacked residual pass (the identity as ``H - T``, without a
matmul).  The 2x2 check
(:func:`check_similarity_implies_symmetry_2x2`) decides class membership
from one word pass over ``H`` and its mapped targets ``sign T(H)`` and gets
both generators from one SVD of shape ``(2, 8, 3)``, through
:mod:`nhsim._lapack` (numpy's gufunc without the ``np.linalg`` wrapper).
numpy runs the same BLAS or LAPACK call per matrix of a stack, so every
trace and generator has the bytes of a one-matrix run.  The canonical word
lists and their word programs are built once per process.

A trace comparison tolerates ``tol max(|A|_F, |B|_F)^|w|`` for a word of
length ``|w|``: it is relative, so the verdict is the same for ``c A`` and
``c B`` at any scale ``c > 0``.  Where the traces would overflow or lose
precision the verdict is decided on the pair times one exact power of two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack
from .classes import SimilarityClass, generate_random
from .errors import ClassMismatchError, UnsupportedDimensionError
from .matrices import (
    _trace, as_matrix, as_scaled_matrix, dagger, frob, frob_many, scaled_stack,
)
from .spectral import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = [
    "Word",
    "word_trace",
    "word_list",
    "trace_profile",
    "word_profile",
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
    2: (_w("a"), _w("aa"), _w("ab")),
    3: (
        _w("a"),
        _w("aa"),
        _w("ab"),
        _w("aaa"),
        _w("aab"),
        _w("aabb"),
        _w("aabbab"),
    ),
}


def word_list(n: int) -> list[Word]:
    """Canonical non-redundant words for deciding unitary similarity."""
    if n not in _WORDS:
        raise UnsupportedDimensionError(
            f"word lists are only available for n in (2, 3), got {n}"
        )
    return list(_WORDS[n])


class _WordProgram(NamedTuple):
    """How :func:`word_traces` multiplies out a word list.

    Products 0 and 1 are the letters ``X`` and ``Xdag``, the prefixes of
    length 1.  ``steps`` holds one entry per prefix length ``k >= 2``: the
    products of length ``k``, the length ``k - 1`` prefix each extends and
    the letter it appends (0: ``X``, 1: ``Xdag``).  ``reads`` is the product
    whose trace each word takes and ``degrees`` the length of each word.
    Each index is a slice where it can be one (a single index broadcasts),
    so the pass makes no copies to gather its operands.
    """

    size: int
    steps: tuple[tuple[slice, slice | np.ndarray, slice | np.ndarray], ...]
    reads: slice | np.ndarray
    degrees: np.ndarray


def _span(indices: list[int], broadcast: bool = False) -> slice | np.ndarray:
    """``indices`` as a slice where one selects the same entries (a run of
    consecutive indices or, with ``broadcast``, one index repeated), as an
    index array otherwise."""
    first = indices[0]
    if broadcast and len(set(indices)) == 1:
        return slice(first, first + 1)
    if indices == list(range(first, first + len(indices))):
        return slice(first, first + len(indices))
    return np.array(indices)


@functools.lru_cache(maxsize=256)  # bounded: word_trace takes any word
def _word_program(words: tuple[Word, ...]) -> _WordProgram:
    index = {(X,): 0, (XDAG,): 1}
    steps = []
    for k in range(2, max(map(len, words)) + 1):
        new = list(dict.fromkeys(w.letters[:k] for w in words if len(w) >= k))
        start = len(index)
        index.update((p, start + i) for i, p in enumerate(new))
        steps.append((slice(start, len(index)),
                      _span([index[p[:-1]] for p in new], broadcast=True),
                      _span([int(p[-1] == XDAG) for p in new], broadcast=True)))
    return _WordProgram(len(index), tuple(steps),
                        _span([index[w.letters] for w in words]),
                        np.array([len(w) for w in words]))


#: the word program of each canonical word list, built once per process
_PROGRAMS = {n: _word_program(words) for n, words in _WORDS.items()}


def word_traces(stack: np.ndarray, words) -> np.ndarray:
    """Traces of ``words`` for each matrix of a validated ``(m, n, n)`` stack.

    Returns the ``(m, len(words))`` complex traces, with ``X -> H`` and
    ``Xdag -> H^+``.  Every word is multiplied out left to right from its
    first letter.  The word program (cached per word tuple) forms each
    prefix product once, all products of one length in one stacked matmul,
    and the traces come from one pass in ``np.trace``'s order
    (:func:`~nhsim.matrices._trace`).  numpy runs the same BLAS call for
    each matrix of a stack, so every trace has the bytes of a one-matrix,
    one-word evaluation from ``eye @ X_1``, which is ``X_1`` up to the sign
    of a zero that the trace's final ``+ 0.0`` clears.
    """
    return _run_program(stack, _word_program(tuple(words)))


def _run_program(stack: np.ndarray, program: _WordProgram) -> np.ndarray:
    """:func:`word_traces` of the words that ``program`` multiplies out."""
    m, n = stack.shape[0], stack.shape[-1]
    products = np.empty((m, program.size, n, n), dtype=complex)
    products[:, 0] = stack
    np.conjugate(stack.transpose(0, 2, 1), out=products[:, 1])
    for new, parents, letter in program.steps:
        products[:, new] = products[:, parents] @ products[:, letter]
    return _trace(products[:, program.reads])


class WordProfile(NamedTuple):
    """Words, traces of the stack as given, mismatches per ``stack[i >= 1]``."""

    words: list[Word]
    traces: np.ndarray
    mismatches: list[list[int]]

    def unprintable(self) -> str | None:
        """Why the traces cannot be printed as JSON numbers that agree with
        the verdicts: ``"overflow"`` when a trace or its difference from
        ``stack[0]``'s is not finite, ``"underflow"`` when the difference of
        a mismatching word reads 0; ``None`` when they can."""
        with np.errstate(over="ignore", invalid="ignore"):
            # row 0 is NaN exactly where a trace of stack[0] is not finite
            printed = np.abs(self.traces - self.traces[0])
        if not np.isfinite(printed).all():
            return "overflow"
        if any((printed[i, bad] == 0).any() for i, bad in enumerate(self.mismatches, 1)):
            return "underflow"
        return None


def word_profile(stack: np.ndarray, tol: float) -> WordProfile:
    """The one word-trace comparison: the :class:`WordProfile` of a
    validated ``(m, n, n)`` stack, n <= 3, at a finite ``tol >= 0``.

    For ``(A, B) = (stack[0], stack[i])`` word ``w`` mismatches when the
    traces differ by more than ``tol max(|A|_F, |B|_F)^|w|``, because word
    traces grow with word degree; a zero pair matches.  The verdict is
    decided on the stack times one power of two
    (:func:`~nhsim.matrices.scaled_stack` for the longest word's degree), so
    it does not depend on the scale; a stack in range is decided on the
    returned traces, which may overflow or underflow where it does not.
    :func:`_compare_in_range` applies the rule; the 2x2 class check, whose
    stack is in range by construction, calls it directly.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    words = word_list(stack.shape[-1])
    program = _PROGRAMS[stack.shape[-1]]
    scaled = scaled_stack(stack, int(program.degrees.max()))
    decided, mismatches, _ = _compare_in_range(scaled, program, tol)
    if scaled is stack:
        return WordProfile(words, decided, mismatches)
    with np.errstate(over="ignore", invalid="ignore"):
        return WordProfile(words, _run_program(stack, program), mismatches)


def _compare_in_range(stack: np.ndarray, program: _WordProgram, tol: float):
    """The rule of :func:`word_profile` on a stack that
    :func:`~nhsim.matrices.scaled_stack` leaves as it is for the longest
    word of ``program``: the traces of the stack, the mismatching words of
    each ``stack[i >= 1]`` and the :func:`~nhsim.matrices.frob_many` norms."""
    degrees = program.degrees
    with np.errstate(over="ignore", invalid="ignore"):
        traces = _run_program(stack, program)
    norms = frob_many(stack)
    bound = tol * np.maximum(norms[0], norms[1:, None]) ** degrees
    differ = np.abs(traces[1:] - traces[0]) > bound
    if differ.any():
        mismatches = [np.flatnonzero(row).tolist() for row in differ]
    else:
        mismatches = [[] for _ in differ]
    return traces, mismatches, norms


def word_trace(H, w: Word) -> complex:
    """Trace of the word evaluated with ``X -> H`` and ``Xdag -> H^+``."""
    return complex(word_traces(as_matrix(H)[None], [w])[0, 0])


def trace_profile(H) -> list[tuple[Word, complex]]:
    """The canonical words of ``H``'s dimension with their traces."""
    H = as_matrix(H)
    words = word_list(H.shape[0])
    return [(w, complex(t)) for w, t in zip(words, word_traces(H[None], words)[0])]


def compare_profiles(A, B):
    """Word-by-word trace comparison; returns the list of mismatches.

    Each mismatch is ``(word, trace of A, trace of B)``, with the traces of
    ``A`` and ``B`` as given (they may overflow or underflow where the
    pair's scale does); the test is :func:`word_profile` at
    ``DEFAULT_TOLERANCES.residual_tol``, which does not depend on the scale.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ValueError("matrices must have equal dimension")
    profile = word_profile(np.stack([A, B]), DEFAULT_TOLERANCES.residual_tol)
    words, traces, (bad,) = profile
    return [(words[j], complex(traces[0, j]), complex(traces[1, j])) for j in bad]


def unitary_similarity_test(A, B) -> bool:
    """Whether ``A = U B U^+`` for some unitary ``U`` (n <= 3), decided by
    :func:`compare_profiles`."""
    return not compare_profiles(A, B)


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


def _symmetry_stack(H: np.ndarray, symmetries) -> np.ndarray:
    """The ``(1 + s, n, n)`` stack of a validated ``H`` and its mapped
    targets ``sign T(H)`` for ``symmetries``, the stack whose word traces
    decide the class and the n = 3 evidence; each target has the bytes of
    :func:`mapped_target`."""
    stack = np.empty((1 + len(symmetries),) + H.shape, dtype=complex)
    stack[0] = H
    for out, symmetry in zip(stack[1:], symmetries):
        target, sign, _ = SYMMETRY_TARGETS[symmetry]
        np.multiply(sign, target(H), out=out)
    return stack


@functools.cache
def _generator_bases(symmetries: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(s, 3, 2, 2)`` property bases of ``symmetries`` and whether
    each property conjugates (``U U* = 1``), read-only."""
    props = [SYMMETRY_TARGETS[s][2] for s in symmetries]
    bases = np.stack([p.basis for p in props])
    conjugate = np.array([p.conjugate for p in props])
    bases.flags.writeable = conjugate.flags.writeable = False
    return bases, conjugate


def solve_generators(H: np.ndarray, symmetries, targets,
                     norm: float) -> dict[str, GeneratorSearch]:
    """Closed-form 2x2 generators with the smallest residual for several
    symmetries of one validated 2x2 ``H``, given their mapped targets
    (:func:`mapped_target`) and ``norm = |H|_F``, in one stacked SVD.

    Over the property's basis, ``U = sum_k q_k B_k`` with unit real ``q``,
    the defect ``H U - sign U T`` of the similarity ``H = sign U T U^+``
    (``T`` the mapped target) is linear in ``q``; the minimising ``q`` is
    the last right singular vector of the real 8x3 matrix that stacks it.
    ``U`` is unitary, so that defect has the norm of ``H - sign U T U^+``:
    the result minimises the similarity residual over every generator with
    the property, and its property defect is at rounding level.  The
    identity is a second candidate (the only involution outside ``n.sigma``
    up to sign), with residual ``|H - T|_F`` and property defect 0; the
    smaller residual wins, a tie keeps the SVD candidate.
    Neither the generator nor the relative residual depends on the scale of
    ``H``, so callers pass ``H`` rescaled by
    :func:`~nhsim.matrices.as_scaled_matrix`.

    Every symmetry is scored in one stacked pass: one
    :func:`~nhsim.matrices.frob_many` takes the residuals of ``H - C T C^+``
    for the SVD candidates ``C``, their property defects and the residuals
    of ``H - T`` together.  numpy runs the same BLAS or LAPACK call for each
    matrix of a stack, and ``I T I^+`` is ``T`` up to the sign of a zero,
    which no norm sees, so each generator, residual and defect has the
    bytes of a one-symmetry, one-candidate solve.
    """
    bases, conjugate = _generator_bases(tuple(symmetries))
    s = len(bases)
    T = np.asarray(targets)
    M = (H @ bases - bases @ T[:, None]).reshape(s, 3, 4)
    A = np.concatenate([M.real, M.imag], axis=2).transpose(0, 2, 1)
    q = _lapack.svd(A)[2][:, -1]
    C = (q[:, None] @ bases.reshape(s, 3, 4)).reshape(s, 2, 2)
    Cc = C.conj()
    E = np.empty((3, s, 2, 2), dtype=complex)  # similarity, property, identity
    E[0] = H - C @ T @ Cc.swapaxes(-1, -2)
    E[1] = C @ np.where(conjugate[:, None, None], Cc, C) - _I2
    E[2] = H - T
    residuals, defects, identity = frob_many(E.reshape(-1, 2, 2)).reshape(3, s).tolist()
    norm = max(norm, 1e-300)
    out = {}
    for i, symmetry in enumerate(symmetries):
        if identity[i] < residuals[i]:  # a tie keeps the SVD candidate
            out[symmetry] = GeneratorSearch(symmetry, _I2.copy(), identity[i] / norm, 0.0)
        else:
            out[symmetry] = GeneratorSearch(symmetry, C[i], residuals[i] / norm, defects[i])
    return out


def check_similarity_implies_symmetry_2x2(
    H,
    cls: SimilarityClass,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> dict[str, GeneratorSearch]:
    """Recover both enclosed symmetry generators of a 2x2 class member.

    The word traces of ``H`` and its two mapped targets decide membership
    (:func:`word_profile` at ``residual_tol``), exactly for n = 2: ``H``
    is pseudo-Hermitian iff ``tr H`` and ``tr H^2`` are real (Mostafazadeh,
    J. Math. Phys. 43 (2002) 205), chiral iff ``tr H`` is imaginary and
    ``tr H^2`` real, self-skew-similar iff ``tr H = 0``.  A non-member raises
    ``ClassMismatchError`` naming the class and the first mismatching word.
    """
    return _class_generators(H, cls, cfg.residual_tol)


def _class_generators(H, cls: SimilarityClass, tol: float | None):
    """Generators of ``cls`` for a 2x2 ``H``; with ``tol``, after one word
    pass over ``(H, T_1, T_2)`` has decided that ``H`` is in ``cls``.

    :func:`~nhsim.matrices.as_scaled_matrix` brings ``H`` into range for
    degree 2, the longest word for n = 2, and each target ``sign T(H)``
    holds the entries of ``H`` up to sign, conjugation and transposition,
    so the stack is decided as it is, without a second rescale, and its
    norm row 0 is ``|H|_F``.
    """
    H = as_scaled_matrix(H)
    if H.shape[0] != 2:
        raise UnsupportedDimensionError("this check is a 2x2 statement")
    symmetries = CLASS_SYMMETRIES[cls]
    stack = _symmetry_stack(H, symmetries)
    if tol is None:
        return solve_generators(H, symmetries, stack[1:], frob(H))
    words = _WORDS[2]
    traces, mismatches, norms = _compare_in_range(stack, _PROGRAMS[2], tol)
    for i, bad in enumerate(mismatches, 1):
        if bad:
            j = bad[0]
            raise ClassMismatchError(
                f"not {cls.value}: word {words[j]} traces {traces[0, j]:.6g} "
                f"vs {traces[i, j]:.6g} for the {symmetries[i - 1]} target")
    return solve_generators(H, symmetries, stack[1:], float(norms[0]))


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


#: draws of :func:`n3_counterexample` before it gives up
N3_MAX_RESAMPLES = 100


def n3_counterexample(cls: SimilarityClass, seed: int = 0) -> CounterexampleEvidence:
    """Certified evidence that class membership does not imply symmetry.

    Draws non-normal 3x3 class members (up to ``N3_MAX_RESAMPLES`` of
    them) and returns the first word-trace mismatch, in symmetry then word
    order, between ``H`` and a mapped target whose unitary similarity the
    symmetry would require.  The mismatch is decided by
    :func:`word_profile` at ``DEFAULT_TOLERANCES.residual_tol``, the rule of
    ``nhsim specht-generators``, whose evidence for the returned matrix
    starts with this record.  Raises ``RuntimeError`` when no draw has one.

    Note the sublattice comparison ``(H, -H)`` can never mismatch for a
    self-skew-similar matrix (odd word traces vanish identically), so for
    that class the evidence always comes from the pseudo-chiral target.
    """
    symmetries = CLASS_SYMMETRIES[cls]
    for attempt in range(N3_MAX_RESAMPLES):
        H = generate_random(cls, 3, seed + 7919 * attempt, non_normal=True)
        words, traces, mismatches = word_profile(
            _symmetry_stack(H, symmetries), DEFAULT_TOLERANCES.residual_tol)
        for i, (symmetry, bad) in enumerate(zip(symmetries, mismatches), start=1):
            if bad:
                j = bad[0]
                return CounterexampleEvidence(
                    similarity_class=cls,
                    matrix=H,
                    symmetry=symmetry,
                    word=words[j],
                    trace_lhs=complex(traces[0, j]),
                    trace_rhs=complex(traces[i, j]),
                    attempts=attempt + 1,
                )
    raise RuntimeError(
        f"no word-trace mismatch found for {cls.value} in {N3_MAX_RESAMPLES} samples"
    )
