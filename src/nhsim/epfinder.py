"""Exceptional-point search in parameterized families.

An EPn of a family H(lam) is a parameter point where all n eigenvalues and
their eigenvectors coalesce.  After shifting to H~ = H - (tr H / n) I the
coalescence point sits at eigenvalue zero and is characterized by the real
and imaginary parts of det H~ and tr H~^k for 2 <= k < n.  A class
H = sign S R(H) S^-1 (``classes.CLASS_EQUATIONS``) gives
tr H~^k = sign^k R(tr H~^k), and det H~ = sign^n R(det H~), so it forces
some of those components to vanish identically, which lowers the
codimension:

    PseudoHermitian   n - 1   (all imaginary parts forced)
    Chiral            n - 1   (parity-alternating components forced)
    SelfSkewSimilar   n - 1 for odd n, n for even n (odd traces forced)

The module builds that reduced real constraint system, verifies the forced
identities on random samples, scans a parameter grid with Gauss-Newton
refinement from grid local minima, certifies the Jordan order at converged
roots from the rank staircase of the zero cluster and estimates
eigenvalue-splitting exponents along rays.  Its determinants, eigenvalues,
rank staircases and Gauss-Newton least squares go through
:mod:`nhsim._lapack` (numpy's gufuncs without the ``np.linalg`` wrappers,
numpy's bytes).

The trace shift is a deliberate extension of the bare det/trace casting:
the unshifted conditions only catch coalescence at zero energy.  Whether
the class-reduced counting assumes tr H = 0 is an open modeling point; the
shift resolves it and is applied consistently everywhere here.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _lapack
from .classes import CLASS_EQUATIONS, CLASS_MAP, SimilarityClass
from .errors import FamilyNotInClassError, NonFiniteMatrixError
from .families import MatrixFamily, constraint_jacobians
from .matrices import _trace, as_matrix, frob, frob_many, ldexp_complex, scale_exponents
from .spectral import (
    DEFAULT_TOLERANCES,
    JordanBlock,
    ToleranceConfig,
    _symmetry_bottlenecks,
    eigenvalues_many,
    nullity_staircase,
    weyr_block_sizes,
)

__all__ = [
    "ConstraintSystem",
    "IdentityCheckReport",
    "class_identity_check",
    "reduced_constraints",
    "ScanConfig",
    "EPCandidate",
    "scan",
    "OrderCertificate",
    "certify_order",
    "splitting_exponent",
]


EXPECTED_CODIMENSION = {
    SimilarityClass.PSEUDO_HERMITIAN: lambda n: n - 1,
    SimilarityClass.CHIRAL: lambda n: n - 1,
    SimilarityClass.SELF_SKEW_SIMILAR: lambda n: n if n % 2 == 0 else n - 1,
}


def _shifted(H: np.ndarray) -> np.ndarray:
    """``H - (tr H / n) I`` for one matrix or a stack of them.

    Where the trace overflows, the matrix comes back non-finite, and every
    caller checks for that.
    """
    n = H.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return H - (_trace(H) / n)[..., None, None] * np.eye(n)


#: Points per block in the block loops of :func:`_grid_minima` and
#: :meth:`ConstraintSystem.evaluate_many`, for every n; each row is the same
#: whatever the block.  The grid pass keeps its blocks because bounding all
#: 5,151 nodes of an ``ep-scan`` window in one pass took 3 to 9 times the
#: minor page faults of the blocked pass (180k-547k against 60k-65k per 20 s
#: ``ep-scan`` benchmark run) and completed 4-8 % fewer ops per second.
#: ``evaluate_many`` keeps them so that memory stays bounded on exact grids
#: (n >= 4, and the grid's fallback nodes); on ``ep-scan`` its calls take at
#: most 196 points.
_BLOCK_POINTS = 2048


def _raw_components(n: int):
    """(label, k, part) for every real component of the unreduced system:
    tr H~^k for 2 <= k < n, then det H~ with k = n."""
    comps = []
    for k in range(2, n):
        comps.append((f"Re tr H^{k}", k, "re"))
        comps.append((f"Im tr H^{k}", k, "im"))
    comps.append(("Re det", n, "re"))
    comps.append(("Im det", n, "im"))
    return comps


@functools.cache
def _column_index(n: int) -> dict[str, int]:
    return {lab: j for j, (lab, *_rest) in enumerate(_raw_components(n))}


def _kept(cls: SimilarityClass, k: int, part: str) -> bool:
    """Whether the class keeps this part of ``z = tr H~^k`` (``det H~`` for
    k = n) as an active constraint.  ``z = sign^k R(z)`` forces ``Im z``
    (``sign^k = +1``) or ``Re z`` (``sign^k = -1``) to vanish when ``R``
    conjugates, and ``z`` itself when ``R`` is the identity and
    ``sign^k = -1``; class_identity_check verifies this on samples."""
    sign, adjoint = CLASS_EQUATIONS[cls]
    even = sign**k > 0
    return part == ("re" if even else "im") if adjoint else even


@dataclass(frozen=True)
class ConstraintSystem:
    """Class-reduced real constraints for full eigenvalue coalescence."""

    similarity_class: SimilarityClass
    order: int
    family: MatrixFamily
    labels: tuple[str, ...]
    forced_zero: tuple[str, ...]

    @property
    def codimension(self) -> int:
        return len(self.labels)

    def evaluate_many(self, lams, labels=None) -> np.ndarray:
        """Constraint rows at a stack of points, ``(N, d) -> (N, k)``.

        ``labels`` selects components by name (default: the active
        constraints ``self.labels``; ``self.forced_zero`` gives the ones
        the class forces to vanish).  Points are evaluated in blocks of
        ``_BLOCK_POINTS`` by ``family.evaluate_batch``, so that memory stays
        bounded on large exact grids; each row is the same whatever the
        block.  The row of a point where the family or a component
        overflows is not finite; every caller checks for that.
        """
        lams = np.asarray(lams, dtype=float)
        column = _column_index(self.order)
        cols = [column[lab] for lab in (self.labels if labels is None else labels)]
        out = np.empty((len(lams), len(cols)))
        for start in range(0, len(lams), _BLOCK_POINTS):
            block = slice(start, start + _BLOCK_POINTS)
            out[block] = _components(_shifted(self.family.evaluate_batch(lams[block])), cols)
        return out

    def evaluate(self, lam) -> np.ndarray:
        """Active constraint vector at a parameter point."""
        return self.evaluate_many(np.asarray(lam, dtype=float).reshape(1, -1))[0]

    def __call__(self, lam) -> np.ndarray:
        return self.evaluate(lam)


def _components(Ht: np.ndarray, cols) -> np.ndarray:
    """Columns ``cols`` of the unreduced components of a stack of
    trace-shifted matrices: tr H~^k for 2 <= k < n, then det H~; viewed as
    floats the columns are Re, Im interleaved, the order of
    :func:`_raw_components`."""
    n = Ht.shape[-1]
    C = np.empty((len(Ht), n - 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        P = Ht
        for j in range(n - 2):
            P = P @ Ht
            C[:, j] = _trace(P)
        C[:, -1] = _lapack.det(Ht)
    return C.view(float)[:, cols]


@dataclass
class IdentityCheckReport:
    """Sampled verification that a family obeys its class identities."""

    passed: bool
    samples: int
    worst_violation: float
    worst_point: np.ndarray | None
    worst_identity: str


def class_identity_check(
    f: MatrixFamily,
    cls: SimilarityClass,
    samples: int = 100,
    seed: int = 0,
    rel_tol: float = 1e-8,
    box: float = 2.0,
) -> IdentityCheckReport:
    """Verify the class-forced identities at random parameter points.

    Two families of identities are checked at each sampled point: the
    forced-zero det/trace components (relative to the power ``|H~|_F^k`` of
    the shifted matrix norm) and the spectral multiset symmetry of the
    class, measured as the smallest tolerance at which ``classify``'s
    spectral test passes (:func:`~nhsim.spectral.symmetry_bottleneck`),
    relative to ``|H|_F``.  Both are relative with no floor, so a family
    times ``c > 0`` gets the same report at every scale; a zero ``H`` or
    ``H~`` has violation 0.  The report carries the worst violation and
    where it occurred: the first largest one over the samples in order,
    then the forced components, then the spectrum.  Each sample, and its
    shifted matrix, is checked times its own power of two
    (:func:`~nhsim.matrices.scale_exponents`), which leaves the violations
    as they are; all samples are checked together, in array passes over
    the stack.  A family value that overflows raises
    ``NonFiniteMatrixError``; ``samples < 1``, a ``box`` that is not finite
    and positive and a ``rel_tol`` that is not finite and non-negative
    raise ``ValueError``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 < box < np.inf:
        raise ValueError(f"box must be finite and > 0, got {box}")
    if not 0 <= rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    cs = _build_system(f, cls)
    rng = np.random.default_rng(seed)
    lams = rng.uniform(-box, box, size=(samples, f.num_params))
    H = f.evaluate_batch(lams)
    if not np.isfinite(H).all():
        raise NonFiniteMatrixError("family values overflow at the sampled points")
    H = ldexp_complex(H, scale_exponents(H, f.dim)[:, None, None])
    Ht = _shifted(H)
    Ht = ldexp_complex(Ht, scale_exponents(Ht, f.dim)[:, None, None])
    column = _column_index(f.dim)
    degree = {lab: k for (lab, k, _p) in _raw_components(f.dim)}
    symmetry = CLASS_MAP[cls]
    # one column per forced component, then the spectrum, each over its scale
    v = np.column_stack([
        np.abs(_components(Ht, [column[lab] for lab in cs.forced_zero])),
        _symmetry_bottlenecks(eigenvalues_many(H), symmetry),
    ])
    scale = np.column_stack([
        _powers(frob_many(Ht), [degree[lab] for lab in cs.forced_zero]),
        frob_many(H),
    ])
    # a violation is 0 where its matrix is zero, so nothing divides by 0; a
    # NaN one never counts as the worst
    v = np.divide(v, scale, out=np.zeros_like(v), where=v != 0)
    v = np.where(v > 0, v, 0.0)
    i, j = divmod(int(v.argmax()), v.shape[1])
    worst = float(v[i, j])
    labels = (*cs.forced_zero, f"spectrum {symmetry} symmetry")
    return IdentityCheckReport(
        passed=worst <= rel_tol,
        samples=samples,
        worst_violation=worst,
        worst_point=lams[i] if worst else None,
        worst_identity=labels[j] if worst else "",
    )


def _powers(x: np.ndarray, ks) -> np.ndarray:
    """``x[i] ** ks[j]`` as Python's float pow takes it (libm ``pow``),
    ``(S,) -> (S, len(ks))``.

    numpy's own float power may take other routes (SIMD code, or ``x*x`` for
    a square) that differ from ``pow`` in the last bit, so each power is
    taken on Python floats and ints held in object arrays.
    ``tests/test_epfinder.py::test_powers_match_python_pow`` pins this.
    """
    return np.power(x.astype(object)[:, None], np.array(ks, dtype=object)).astype(float)


def _build_system(f: MatrixFamily, cls: SimilarityClass) -> ConstraintSystem:
    n = f.dim
    if n < 2:
        raise ValueError(f"a {n}x{n} family has no EPs: one eigenvalue cannot coalesce")
    labels, forced = [], []
    for lab, k, part in _raw_components(n):
        (labels if _kept(cls, k, part) else forced).append(lab)
    cs = ConstraintSystem(
        similarity_class=cls,
        order=n,
        family=f,
        labels=tuple(labels),
        forced_zero=tuple(forced),
    )
    expected = EXPECTED_CODIMENSION[cls](n)
    # the codimension count is an exact invariant of the reduction, not a
    # numerical statement
    if cs.codimension != expected:
        raise RuntimeError(
            f"internal error: {cls.value} reduction at n={n} kept "
            f"{cs.codimension} constraints, expected {expected}"
        )
    return cs


def reduced_constraints(
    f: MatrixFamily,
    cls: SimilarityClass,
    check: bool = True,
    samples: int = 30,
    seed: int = 0,
) -> ConstraintSystem:
    """Class-reduced constraint system, verified against the family.

    Raises ``FamilyNotInClassError`` when the sampled identity check fails;
    pass ``check=False`` to skip it (e.g. when the same family was already
    checked).
    """
    cs = _build_system(f, cls)
    if check:
        report = class_identity_check(f, cls, samples=samples, seed=seed)
        if not report.passed:
            raise FamilyNotInClassError(
                f"family violates {cls.value} identity '{report.worst_identity}' "
                f"by {report.worst_violation:.3g} at lam={report.worst_point}"
            )
    return cs


# ---------------------------------------------------------------------------
# grid scan + Gauss-Newton refinement


def _is_int(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ScanConfig:
    """Grid and refinement settings for :func:`scan`.

    ``grid`` maps parameter names to ``(lo, hi, points)``; parameters not in
    the grid must appear in ``fixed``.  ``seed_threshold`` gates which grid
    local minima of the constraint norm seed refinement (``None``: all).
    ``max_iterations`` and ``tol`` bound the Gauss-Newton refinement of each
    seed; ``tol`` is also the constraint accuracy handed to
    :func:`certify_order`.  ``tol`` and ``seed_threshold``, like the
    ``constraint_residual`` of a candidate, are absolute: they are read in
    the units of the active components, and ``tr H~^k`` and ``det H~`` have
    degree ``k`` (``n`` for the determinant) in H, so a family scaled to
    ``c f`` needs values scaled with it, component by component.
    ``merge_radius`` is measured in
    grid-spacing-normalized parameter distance.  ``tolerances`` drive the
    order certification of converged roots.  A NaN, infinite or negative
    ``tol`` or ``merge_radius``, a ``max_iterations`` that is negative or not
    an integer (a bool is not one) or a NaN ``seed_threshold`` raises
    ``ValueError``.
    """

    grid: dict[str, tuple[float, float, int]]
    fixed: dict[str, float] = field(default_factory=dict)
    seed_threshold: float | None = None
    max_iterations: int = 50
    tol: float = 1e-10
    merge_radius: float = 1e-4
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES

    def __post_init__(self):
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if not 0 <= self.merge_radius < np.inf:
            raise ValueError(
                f"merge_radius must be finite and >= 0, got {self.merge_radius}")
        if not _is_int(self.max_iterations) or self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be an integer >= 0, got {self.max_iterations!r}")
        if self.seed_threshold is not None and np.isnan(self.seed_threshold):
            raise ValueError("seed_threshold must not be NaN")


@dataclass
class EPCandidate:
    lam: np.ndarray
    order: int
    constraint_residual: float
    blocks: tuple[JordanBlock, ...]
    newton_iterations: int
    converged: bool
    single_block: bool = False

    def to_json(self) -> dict:
        return {
            "lam": [float(x) for x in self.lam],
            "order": int(self.order),
            "constraint_residual": float(self.constraint_residual),
            "newton_iterations": int(self.newton_iterations),
            "converged": bool(self.converged),
            "single_block": bool(self.single_block),
        }


#: Line-search step fractions ``2**-j``, j = 0..19.
_HALVINGS = np.ldexp(1.0, -np.arange(20))


def _gauss_newton(g_many, x0, max_iter, tol):
    """Damped Gauss-Newton on ||g|| from a stack of seeds ``x0`` (S, d).

    Pseudo-inverse steps handle both the under- and overdetermined cases
    (the underdetermined one converges to the nearest point of the
    solution manifold).  ``g_many`` maps a stack of points to a stack of
    constraint vectors.  All unfinished seeds advance in lock step: each
    round makes one ``g_many`` call for the Jacobians of all of them and
    one for the full steps ``x + step`` of all their line searches; only
    the seeds whose full step does not lower the norm get a second call,
    for the trial points ``x + 2**-j * step`` (j = 1..19).  Each seed takes
    its first trial point that lowers the norm.  A seed stops when it
    converges, when its step is zero or not finite, or when no trial point
    lowers the norm.  Returns the arrays ``(x, norm, iterations,
    converged)``; ``iterations`` is the round at which a seed converged and
    ``max_iter`` for every other seed.
    """
    x = np.array(x0, dtype=float)
    gx = g_many(x)
    nrm = _row_norms(gx)
    its = np.full(len(x), max_iter)
    live = np.arange(len(x))
    for it in range(max_iter):
        done = nrm[live] <= tol
        its[live[done]] = it
        live = live[~done]
        if not live.size:
            break
        step = _lapack.lstsq(constraint_jacobians(g_many, x[live]), -gx[live])
        ok = np.all(np.isfinite(step), axis=1) & (_row_norms(step) != 0)
        live, step = live[ok], step[ok]
        if not live.size:
            break
        found = _first_decrease(g_many, live, step, _HALVINGS[:1], x, gx, nrm)
        rest = np.setdiff1d(np.arange(live.size), found, assume_unique=True)
        if rest.size:
            more = _first_decrease(g_many, live[rest], step[rest], _HALVINGS[1:],
                                   x, gx, nrm)
            found = np.concatenate([found, rest[more]])
        live = np.sort(live[found])
    return x, nrm, its, nrm <= tol


def _first_decrease(g_many, rows, step, halvings, x, gx, nrm):
    """Move each seed ``rows[i]`` to its first trial point
    ``x + h * step[i]``, ``h`` over ``halvings``, whose norm is below its
    current one, updating ``x``, ``gx`` and ``nrm`` in place; one ``g_many``
    call.  Returns the positions in ``rows`` of the seeds that moved."""
    trial = x[rows][:, None] + halvings[:, None] * step[:, None]
    gt = g_many(trial.reshape(-1, x.shape[1])).reshape(trial.shape[:2] + (-1,))
    nt = _row_norms(gt)
    lower = nt < nrm[rows][:, None]
    found = np.flatnonzero(lower.any(axis=1))
    first = lower[found].argmax(axis=1)
    moved = rows[found]
    x[moved], gx[moved], nrm[moved] = (trial[found, first], gt[found, first],
                                       nt[found, first])
    return found


def _row_norms(G: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit.

    ``norm`` of one vector is ``sqrt(dot(g, g))``, which ``vecdot`` repeats
    per row; ``norm(G, axis=-1)`` rounds differently.  A norm that
    overflows is inf, which no caller takes for a decrease or a root.
    """
    with np.errstate(over="ignore"):
        return np.sqrt(np.vecdot(G, G))


#: ``S`` range in which :func:`_norm_bounds` proves its bound.
_BOUND_WINDOW = (2.0**-100, 2.0**100)


class _GridPolynomials(NamedTuple):
    """Columns of :func:`_components` of a 2x2 or 3x3 family as real
    polynomials in its parameters (:func:`_grid_polynomials`)."""

    #: ``(A, d)``: the exponents of the monomials ``lam^alpha``
    exponents: np.ndarray
    #: ``(A, K)``: the coefficient of each monomial in each column
    coeffs: np.ndarray
    #: the sum of the ``|M_t|_F`` of the terms of each term monomial
    #: ``m_t = lam^e_t``, which are the first rows of ``exponents``
    norms: np.ndarray
    #: the degree ``k`` of each column: 2 for ``tr H~^2``, n for ``det H~``
    degrees: tuple[int, ...]
    #: ``C`` of :func:`_norm_bounds`
    bound: float
    #: the parameters with a nonzero exponent in some term
    params: np.ndarray
    #: a bound is proven only where each of them is 0 or of magnitude in
    #: ``[1 / reach, reach]``
    reach: float


def _grid_polynomials(f: MatrixFamily, cols) -> _GridPolynomials:
    """The columns ``cols`` of :func:`_components` of a 2x2 or 3x3 family as
    real polynomials in its parameters.

    With ``m_t = lam^e_t`` the term monomials and ``A_t`` the trace-shifted
    term matrices, ``H~ = sum_t m_t A_t``.  So ``tr H~^2 = sum_tu tr(A_t
    A_u) m_t m_u`` and, the determinant being linear in each column,
    ``det H~ = sum det[A_t e1 | A_u e2 (| A_v e3)] m_t m_u (m_v)`` over the
    ordered pairs (triples) of terms.  The coefficients of equal monomials
    are summed, in the order of the tuples, and since the monomials are real
    the real or imaginary part of a component takes the real or imaginary
    parts of its coefficients.
    """
    n, d = f.dim, f.num_params
    M = np.array([Mt for Mt, _e in f.terms])
    E = np.array([e for _M, e in f.terms], dtype=np.int64).reshape(len(M), d)
    A = _shifted(M)
    v = A.transpose(2, 0, 1)  # v[j, t]: column j of A_t
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:
            forms = {2: np.multiply.outer(v[0, :, 0], v[1, :, 1])
                     - np.multiply.outer(v[0, :, 1], v[1, :, 0])}
        else:
            # det[a | b | c] = a . (b x c)
            p, q = [1, 2, 0], [2, 0, 1]
            b, c = v[1, :, None], v[2, None]
            cross = b[..., p] * c[..., q] - b[..., q] * c[..., p]
            forms = {2: np.einsum("tij,uji->tu", A, A),
                     3: np.einsum("ti,uvi->tuv", v[0], cross)}
    # the exponent of every term tuple, by degree, in the order of forms[k]
    sums = {1: E, 2: (E[:, None] + E).reshape(-1, d)}
    sums[3] = (sums[2][:, None] + E).reshape(-1, d)
    raw = _raw_components(n)
    degrees = tuple(raw[j][1] for j in cols)
    ks = [1, *sorted(set(degrees))]
    index = {}
    inv = np.array([index.setdefault(e, len(index))
                    for k in ks for e in map(tuple, sums[k].tolist())])
    exponents = np.array(list(index), dtype=np.int64).reshape(len(index), d)
    first = dict(zip(ks, np.cumsum([0] + [len(sums[k]) for k in ks])))
    coeffs = np.zeros((len(exponents), len(cols)))
    for j, col in enumerate(cols):
        _lab, k, part = raw[col]
        z = forms[k].ravel()
        coeffs[:, j] = np.bincount(inv[first[k]:first[k] + len(z)],
                                   weights=z.real if part == "re" else z.imag,
                                   minlength=len(exponents))
    G = int(exponents.sum(axis=1).max())
    return _GridPolynomials(
        exponents=exponents,
        coeffs=coeffs,
        norms=np.bincount(inv[:len(E)], weights=frob_many(M)),
        degrees=degrees,
        bound=64.0 * (600 + 10 * G + 8 * len(M) ** 3),
        params=np.flatnonzero(E.any(axis=0)),
        reach=2.0 ** (600 // max(G, 1)),
    )


def _polynomial_values(poly: _GridPolynomials, lams: np.ndarray):
    """``(values, S)`` at the float points ``lams``: the columns of ``poly``,
    ``(K, N)``, and ``S = sum_t |M_t|_F |m_t|``, ``(N,)``.  Each monomial is
    the product of the powers of its parameters, in parameter order, each
    power taken by repeated multiplication."""
    factors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in poly.params:
            e = poly.exponents[:, i]
            P = np.empty((e.max() + 1, len(lams)))
            P[0] = 1.0
            for a in range(1, len(P)):
                np.multiply(P[a - 1], lams[:, i], out=P[a])
            factors.append(P[e])
        mono = factors[0] if factors else np.ones((len(poly.exponents), len(lams)))
        for F in factors[1:]:
            mono *= F
        return poly.coeffs.T @ mono, poly.norms @ np.abs(mono[:len(poly.norms)])


def _norm_bounds(poly: _GridPolynomials, lams: np.ndarray):
    """``(lo, hi)`` with ``lo <= N <= hi`` at each of the float points
    ``lams``, where ``N = _row_norms(_components(_shifted(f.evaluate_batch(
    lams)), cols))`` for the family and columns of ``poly``, or NaN where no
    bound is proven.

    The interval is the norm of the polynomial values (``p``,
    :func:`_polynomial_values`) widened by ``C u S^k`` for each column
    (``u = 2**-53``, ``k`` its degree), with ``S = sum_t |M_t|_F |m_t|``,
    which bounds ``|H|_F`` and ``|H~|_F`` (the shift is an orthogonal
    projection).  A bound is proven only where ``S`` lies in
    ``_BOUND_WINDOW``, every parameter of a term is 0 or has magnitude in
    ``[2**-L, 2**L]`` with ``L = 600 // G`` (``G`` the largest total degree
    of a monomial of ``poly``), and the norm is finite.  Then every product
    of parameters that either side forms lies in ``[2**-600, 2**600]``:
    no monomial, power or coefficient of ``f.evaluate_batch`` over- or
    underflows.  ``C = 64 (600 + 10 G + 8 T^3)`` for ``T`` terms is 64
    times the sum of the three gaps below, in units of ``u S^k``, each for
    one column; a complex product is within ``sqrt(5) u |x||y|`` and a sum
    within ``u`` of its magnitude, with or without FMA, and libm's ``pow``
    within one ulp.  ``H~`` is the exact shifted value at ``lam``, ``H^~``
    the one the exact path computes, ``s^ = |H^~|_F``.

    * ``H^~`` against ``H~``.  Each ``m_t`` is ``pow`` and products of at
      most ``G`` factors (``<= 3G u``), each term one more rounding, and
      the sum of ``T`` terms ``T u`` more, entrywise against
      ``sum_t |m_t||M_t|``, whose Frobenius norm is at most ``S``; the
      shift adds ``(n + 1) u |H^|_F``.  So ``|H^~ - H~|_F <= dS`` with
      ``d = (3G + T + 5) u``, and since ``tr X^2 - tr Y^2 = tr((X - Y)(X +
      Y))`` and the determinant is linear in each column (Hadamard's bound
      on the others), each component moves by at most ``n d S^k (1 +
      d)^2``: ``<= 9G + 3T + 16``.
    * ``_components`` on ``H^~``.  ``<= 500 u s^^k`` as derived below for
      ``s^ <= S (1 + d)``; the determinant's log-sum term there needs
      ``s^k |log s^|``, which is increasing below ``e^(-1/k)`` and at most
      ``1/(k e)`` below 1, so ``S >= 2**-100`` gives the same ``69.3``:
      ``<= 510``.
    * ``p`` against ``H~``.  The shifted ``A_t`` are within ``(n + 1) u
      |M_t|_F``, which moves a coefficient of a tuple by ``k (n + 1) u``
      times the product of the norms (``<= 12``); ``tr(A_t A_u)`` is ``n^2``
      complex products and their sum, the triple product ``3!`` products of
      column entries, whose magnitudes sum to at most ``n^(3/2)`` times
      the product of the column norms (``<= 60``); merging equal monomials
      sums at most ``T^k`` tuples (``<= T^3``); a monomial of degree
      ``<= G`` is ``G`` roundings (``<= G``); and the dot product with the
      ``<= T + T^2 + T^3`` monomials adds as many (``<= 3 T^3``).  Every
      sum is against ``sum over tuples of |coefficient| |m_t m_u (m_v)|
      <= S^k``.

    In all ``<= 600 + 10G + 8T^3``; the factor 64 also covers rounding
    ``S`` and the errors of the pad.  Rounding the norms and the bound add
    ``O(u)`` relative, which the extra ``2**-40`` of the interval covers;
    an underflow is an absolute error below ``2**-1000`` times a monomial of
    at most ``2**600``, against ``C u S^k >= 2**-338`` in the window.
    ``tests/test_epfinder.py::test_polynomials_stay_inside_the_bound``
    measures the largest distance on an adversarial corpus.

    ``_components``' own error, for a trace-shifted ``H~`` of norm ``s``:

    * The trace.  The stacked matmul gives each ``P_ii`` within ``(n + 2)u
      sum_j |a_ij a_ji|`` in any summation order, and :func:`_trace` adds
      ``(n - 1)u`` more: ``<= (2n + 1)u s^2``.
    * The determinant.  numpy's ``det`` is LU with ``|re| + |im|``
      pivoting, so ``|l_ij| <= sqrt(2)`` and entries of U grow at most by
      ``(1 + sqrt(2))^(n-1)``; the backward error ``|dA| <= (n + 2)u
      |L||U|`` moves ``det = prod u_ii`` by less than ``30u s^2`` (n = 2)
      and ``300u s^3`` (n = 3), by Hadamard's bound on each column.  It
      then returns ``sign * exp(sum log|u_ii|)``: the sum of logs is off by
      at most ``(n + 1)u sum |log|u_ii||`` plus a few ulp, and with ``|prod
      u_ii| <= (s / sqrt(n))^n`` and ``t log(1/t) <= 1/e`` the product
      times that sum is below ``n^(-n/2) s^n (n |log s| + 5n)``: at
      ``|log s| = 69.3`` that gives ``< 230u s^2`` (n = 2) and ``< 180u
      s^3`` (n = 3).

    So every component is within ``500u s^k`` of its exact value.
    """
    vals, S = _polynomial_values(poly, lams)
    small, big = _BOUND_WINDOW
    with np.errstate(over="ignore", invalid="ignore"):
        power = {2: S * S}
        power[3] = power[2] * S
        err = poly.bound * 2.0**-53 * sum(power[k] for k in poly.degrees)
        nrm = np.sqrt(np.einsum("kn,kn->n", vals, vals))
        pad = err + 2.0**-40 * (nrm + err)
        x = np.abs(lams[:, poly.params])
        ok = ((small <= S) & (S <= big) & np.isfinite(nrm)
              & ((x == 0) | ((1 / poly.reach <= x) & (x <= poly.reach))).all(axis=1))
        return np.where(ok, nrm - pad, np.nan), np.where(ok, nrm + pad, np.nan)


def _local_minima(lo: np.ndarray, hi: np.ndarray, threshold: float | None):
    """Grid local minima of norms ``N`` known as intervals ``lo <= N <= hi``.

    A node is a minimum when ``N <= threshold`` (if one is set) and its
    ``N`` is ``<=`` that of each axis neighbour; edges compare only inward.
    Returns ``(is_min, undecided)``: ``undecided`` marks the nodes of every
    test the intervals cannot decide (both nodes of a comparison), and
    ``is_min`` is right wherever no node is undecided.  Exact norms,
    ``lo = hi``, decide every test.
    """
    if threshold is None:
        is_min = np.ones(lo.shape, dtype=bool)
        undecided = np.zeros(lo.shape, dtype=bool)
    else:
        is_min = hi <= threshold
        undecided = ~is_min & ~(lo > threshold)
    for ax in range(lo.ndim):
        a, b = [slice(None)] * lo.ndim, [slice(None)] * lo.ndim
        a[ax], b[ax] = slice(None, -1), slice(1, None)
        a, b = tuple(a), tuple(b)
        # each pair of axis neighbours a, b: N_a <= N_b and N_b <= N_a
        ab, ba = hi[a] <= lo[b], hi[b] <= lo[a]
        open_ = (~ab & ~(lo[a] > hi[b])) | (~ba & ~(lo[b] > hi[a]))
        is_min[a] &= ab
        is_min[b] &= ba
        undecided[a] |= open_
        undecided[b] |= open_
    return is_min, undecided


def _grid_minima(cs: ConstraintSystem, lams: np.ndarray, shape, threshold):
    """Indices of the local minima of ``_row_norms(cs.evaluate_many(lams))``
    on a grid of ``shape`` (:func:`_local_minima`).  For n <= 3 the norms
    are first bounded block by block of ``_BLOCK_POINTS`` from the
    family's constraint polynomials, built once per call
    (:func:`_grid_polynomials`, :func:`_norm_bounds`); they are taken
    exactly only at the nodes left unbounded (all of them for n >= 4) and
    at the nodes of an undecided test.  Raises ``NonFiniteMatrixError`` for
    a point that is not finite, and when an exact norm is not finite, which
    the bounded nodes never have."""
    lams = cs.family._points(lams)
    lo = np.full(len(lams), np.nan)
    hi = lo.copy()
    if cs.order <= 3:
        column = _column_index(cs.order)
        poly = _grid_polynomials(cs.family, [column[lab] for lab in cs.labels])
        for start in range(0, len(lams), _BLOCK_POINTS):
            block = slice(start, start + _BLOCK_POINTS)
            lo[block], hi[block] = _norm_bounds(poly, lams[block])
    exact = np.isnan(lo)
    while True:
        if exact.any():
            lo[exact] = hi[exact] = _row_norms(cs.evaluate_many(lams[exact]))
            if not np.isfinite(lo[exact]).all():
                raise NonFiniteMatrixError("constraint values overflow on the grid")
        is_min, undecided = _local_minima(lo.reshape(shape), hi.reshape(shape), threshold)
        exact = undecided.ravel()
        if not exact.any():
            return np.argwhere(is_min)


def scan(f: MatrixFamily, cls: SimilarityClass, cfg: ScanConfig) -> list[EPCandidate]:
    """Grid-seeded Gauss-Newton search for full-coalescence points.

    Grid nodes that are local minima of the constraint norm seed
    Gauss-Newton refinement.  ``cfg.tol`` and ``cfg.seed_threshold`` are
    absolute, in the units of the constraint components, as is each
    candidate's ``constraint_residual`` (:class:`ScanConfig`): the scan of
    ``c f`` with the values of ``f`` is not the scan of ``f``.  For n <= 3
    the minima are decided on proven intervals around the norm, from the
    active components as real polynomials in the parameters, whose
    coefficients are computed once per scan from the term matrices, and
    are evaluated from monomials over the grid with no matrix per node
    (:func:`_norm_bounds`); the exact batched
    evaluation runs only at nodes where an interval cannot decide a
    comparison or the ``seed_threshold`` test, or where no bound is proven,
    and for n >= 4 at every node.  The seeds are those of the exact norms.
    Converged roots are deduplicated within ``cfg.merge_radius`` (grid-
    normalized), sorted lexicographically by parameter values and certified
    with :func:`certify_order`.  Non-convergent seeds are reported at the
    end of the list with ``converged=False``.  When the family has fewer
    parameters than the codimension the scan returns no candidates and
    warns, since generic solutions cannot exist.  A non-finite fixed value
    or grid bound, or a constraint norm that overflows on the grid, raises
    ``NonFiniteMatrixError``; a family of dimension 1, and a grid whose
    point count is not an integer >= 2 or whose bounds are not increasing,
    raise ``ValueError``.
    """
    cs = reduced_constraints(f, cls)
    names = list(f.param_names)
    free = [i for i, nm in enumerate(names) if nm in cfg.grid]
    missing = [nm for nm in names if nm not in cfg.grid and nm not in cfg.fixed]
    if missing:
        raise ValueError(f"parameters neither scanned nor fixed: {missing}")
    extra = [nm for nm in list(cfg.grid) + list(cfg.fixed) if nm not in names]
    if extra:
        raise ValueError(f"unknown parameters: {extra}")
    both = [nm for nm in cfg.grid if nm in cfg.fixed]
    if both:
        raise ValueError(f"parameters both scanned and fixed: {both}")
    if f.num_params < cs.codimension:
        warnings.warn(
            f"family has {f.num_params} parameters but the {cls.value} "
            f"codimension is {cs.codimension}; no generic solutions exist",
            stacklevel=2,
        )
        return []

    base = np.zeros(len(names))
    for i, nm in enumerate(names):
        if nm in cfg.fixed:
            base[i] = float(cfg.fixed[nm])

    def embed(x):
        """Full parameter points from free coordinates (one or a stack)."""
        x = np.asarray(x, dtype=float)
        lam = np.empty(x.shape[:-1] + base.shape)
        lam[...] = base
        lam[..., free] = x
        return lam

    def g_many(xs):
        return cs.evaluate_many(embed(xs))

    axes, spacings = [], []
    for i in free:
        lo, hi, pts = cfg.grid[names[i]]
        if not np.isfinite([lo, hi]).all():
            raise NonFiniteMatrixError("non-finite parameter point")
        if not _is_int(pts) or pts < 2 or hi <= lo:
            raise ValueError(f"bad grid for {names[i]}: {(lo, hi, pts)}; "
                             "needs lo < hi and an integer points >= 2")
        axes.append(np.linspace(lo, hi, pts))
        spacings.append((hi - lo) / (pts - 1))
    spacings = np.asarray(spacings)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)

    idx = _grid_minima(cs, embed(points), mesh[0].shape, cfg.seed_threshold)
    if not len(idx):
        return []
    seeds = np.stack([ax[idx[:, a]] for a, ax in enumerate(axes)], axis=-1)
    x, res, its, ok = _gauss_newton(g_many, seeds, cfg.max_iterations, cfg.tol)

    roots = _lexsorted(np.flatnonzero(ok), x)
    roots = roots[_merge_keep(x[roots], spacings, cfg.merge_radius)]
    failures = _lexsorted(np.flatnonzero(~ok), x)

    lams = embed(x)
    certs = _certify_many(f.evaluate_batch(lams[roots]), cfg.tolerances, cfg.tol)
    out = [
        EPCandidate(
            lam=lams[i],
            order=cert.order,
            constraint_residual=res[i],
            blocks=cert.blocks,
            newton_iterations=int(its[i]),
            converged=True,
            single_block=cert.single_block,
        )
        for i, cert in zip(roots.tolist(), certs)
    ]
    out += [
        EPCandidate(
            lam=lams[i],
            order=0,
            constraint_residual=res[i],
            blocks=(),
            newton_iterations=int(its[i]),
            converged=False,
        )
        for i in failures.tolist()
    ]
    return out


def _lexsorted(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``idx`` stably sorted by the rows ``x[idx]`` in lexicographic order."""
    return idx[np.lexsort(x[idx].T[::-1])]


#: Row pairs per distance block of :func:`_merge_keep`.
_MERGE_PAIRS = 1 << 17


def _merge_keep(x: np.ndarray, spacings: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the rows of ``x`` that survive a greedy merge in row order.

    A row is dropped when it lies within ``radius`` (in grid-spacing units)
    of a kept earlier row; distances are the :func:`_row_norms` of
    ``(later - earlier) / spacings``.  They are computed for a block of later
    rows against all earlier rows at a time, so memory stays
    ``O(block * len(x))``; only rows with an earlier neighbour need the
    greedy decision, which reads the kept flags of the rows before them.
    """
    keep = np.ones(len(x), dtype=bool)
    block = max(1, _MERGE_PAIRS // max(len(x), 1))
    for s in range(0, len(x), block):
        e = min(s + block, len(x))
        near = _row_norms((x[s:e, None] - x[None, :e]) / spacings) <= radius
        near &= np.arange(e) < np.arange(s, e)[:, None]  # earlier rows only
        for j in s + np.flatnonzero(near.any(axis=1)):
            keep[j] = not (near[j - s, :j] & keep[:j]).any()
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# order certification and splitting exponents


@dataclass
class OrderCertificate:
    """Jordan data of the zero cluster of the trace-shifted matrix.

    ``order`` is the largest Jordan block in the cluster; a genuine EPn
    additionally requires ``single_block`` (one block covering the whole
    cluster) -- a cluster split into several blocks is a degeneracy, not an
    EP of that order.  ``blocks`` lists the cluster's Jordan blocks, largest
    first, each at the cluster mean; it is empty when no eigenvalue sits at
    zero.
    """

    order: int
    geometric_multiplicity: int
    cluster_size: int
    single_block: bool
    blocks: tuple[JordanBlock, ...]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "geometric_multiplicity": self.geometric_multiplicity,
            "cluster_size": self.cluster_size,
            "single_block": self.single_block,
            "blocks": [
                [[b.eigenvalue.real, b.eigenvalue.imag], b.size]
                for b in self.blocks
            ],
        }


def certify_order(
    H,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    constraint_tol: float = 1e-10,
) -> OrderCertificate:
    """Jordan order of the coalescing cluster at a candidate point.

    The matrix is trace-shifted and its zero cluster is the set of the
    eigenvalues within a radius of zero adapted to the constraint accuracy:
    an order-n branch point converts a parameter error of size t into an
    eigenvalue spread of order t^(1/n), so the radius scales as
    ``constraint_tol**(1/n)`` rather than linearly.  With ``m`` the cluster
    size and ``mu`` its mean, the nullities of ``(H~ - mu I)^k`` under the
    cutoff ``cfg.rank_tol * |H~|_F**k`` give the geometric multiplicity
    (k = 1), the order (the last k at which the nullity grows) and the
    block sizes (the Weyr differences).  When the nullity stops growing
    short of ``m``, the cluster is the nullity it settled at.  No other
    eigenvalue is examined, so nearby non-zero eigenvalues cannot make the
    certificate ambiguous.  The radius and the cutoff are relative with no
    floor, and the matrix is decided times its own power of two where its
    norm or powers up to ``H~^n`` would leave the normal range, so ``c H``
    gets the certificate of ``H`` at every scale ``c > 0``, its block means
    times ``c``.
    """
    return _certify_many(as_matrix(H)[None], cfg, constraint_tol)[0]


def _certify_many(H, cfg: ToleranceConfig, constraint_tol: float) -> list:
    """:func:`certify_order` of a stack of matrices ``(N, n, n)``: one stacked
    eigensolve and one nullity staircase for all of them.

    Each trace-shifted matrix is multiplied by its own power of two
    (:func:`~nhsim.matrices.scale_exponents` with degree ``max(n, 2)``), so
    its norm and its powers up to ``H~^n`` stay in the normal range; the
    zero cluster is found and climbed on the rescaled matrix, and its mean
    is scaled back."""
    if not len(H):
        return []
    Ht = _shifted(np.asarray(H, dtype=complex))
    n = Ht.shape[-1]
    eps = np.finfo(float).eps
    rel_radius = max(cfg.cluster_tol, 10.0 * max(constraint_tol, 100 * eps) ** (1.0 / n))
    e = scale_exponents(Ht, max(n, 2))
    Ht = ldexp_complex(Ht, e[:, None, None])
    norm = frob_many(Ht)
    vals = eigenvalues_many(Ht)
    zero = np.abs(vals) <= rel_radius * norm[:, None]
    sizes = zero.sum(axis=1)
    means = _cluster_means(vals, zero, sizes)
    stairs = nullity_staircase(Ht - means[:, None, None] * np.eye(n), sizes,
                               cfg.rank_tol, norm)
    certs = []
    for mu, dims in zip(ldexp_complex(means, -e).tolist(), stairs):
        if dims[-1] == 0:
            certs.append(OrderCertificate(1, 0, 0, False, ()))
            continue
        certs.append(
            OrderCertificate(
                order=len(dims) - 1,
                geometric_multiplicity=dims[1],
                cluster_size=dims[-1],
                single_block=dims[1] == 1,
                blocks=tuple(JordanBlock(mu, k) for k in weyr_block_sizes(dims)),
            )
        )
    return certs


def _cluster_means(vals: np.ndarray, member: np.ndarray, sizes: np.ndarray):
    """Mean of ``vals[i][member[i]]`` per row, 0 for an empty row; each is
    ``np.mean`` of the row's members bit for bit.  The rows with ``m``
    members are gathered into one ``(rows, m)`` array, summed along its last
    axis and divided by ``m``, as ``np.mean`` does
    (``tests/test_epfinder.py::test_cluster_means_match_numpy``)."""
    means = np.zeros(len(vals), dtype=complex)
    for m in set(sizes.tolist()) - {0}:
        rows = sizes == m
        means[rows] = vals[rows][member[rows]].reshape(-1, m).sum(axis=1) / m
    return means


def splitting_exponent(
    f: MatrixFamily,
    lam_star,
    direction,
    steps: int = 12,
    t_range: tuple[float, float] = (1e-9, 1e-3),
    cluster_size: int | None = None,
) -> float:
    """Slope of log(eigenvalue spread) vs log(t) along a perturbation ray.

    The trace-shifted eigenvalues at ``lam* + t*direction`` are reduced to
    the ``cluster_size`` values closest to zero (default: all of them) and
    their diameter is fitted against ``t`` on a log-log grid.  A branch
    point of order m yields a slope near 1/m; an analytic crossing yields
    slope near 1.  Raises ``RuntimeError`` when the spread stays below the
    noise floor, so that no fit is possible, or overflows.  A zero
    ``direction``, ``steps`` that is not an integer >= 4, a ``t_range`` bound
    that is not finite and > 0, and a ``cluster_size`` that is not ``None``
    or an integer from 1 to the dimension raise ``ValueError``.
    """
    lam_star = np.asarray(lam_star, dtype=float).ravel()
    direction = np.asarray(direction, dtype=float).ravel()
    if not direction.any():
        raise ValueError("direction must be nonzero")
    if not _is_int(steps) or steps < 4:
        raise ValueError(f"steps must be an integer >= 4, got {steps!r}")
    if not all(0 < t < np.inf for t in t_range):
        raise ValueError(f"t_range bounds must be finite and > 0, got {t_range!r}")
    if cluster_size is not None and not (_is_int(cluster_size)
                                         and 1 <= cluster_size <= f.dim):
        raise ValueError(
            f"cluster_size must be None or an integer from 1 to {f.dim}, "
            f"got {cluster_size!r}")
    m = cluster_size or f.dim
    # the noise floor is taken on H~(lam*) times the power of two of
    # certify_order, and the spreads are compared in the same units
    Ht = as_matrix(_shifted(f.evaluate(lam_star)))
    e = int(scale_exponents(Ht[None], max(f.dim, 2))[0])
    scale = frob(ldexp_complex(Ht, e))
    ts = np.logspace(np.log10(t_range[0]), np.log10(t_range[1]), steps)
    with np.errstate(over="ignore", invalid="ignore"):
        # a point or a spread that overflows is reported below
        points = lam_star + ts[:, None] * direction
        vals = eigenvalues_many(_shifted(f.evaluate_batch(points)))
        near = np.take_along_axis(vals, np.argsort(np.abs(vals), axis=1)[:, :m], axis=1)
        diams = np.abs(near[:, :, None] - near[:, None, :]).max(axis=(1, 2))
    if not np.isfinite(diams).all():
        raise RuntimeError("eigenvalue spread overflows along this ray")
    above = np.ldexp(diams, e) > 1e-12 * scale
    ts, diams = ts[above], diams[above]
    if len(ts) < 4:
        raise RuntimeError(
            "eigenvalue spread below noise floor along this ray; fit degenerate"
        )
    slope = np.polyfit(np.log(ts), np.log(diams), 1)[0]
    return float(slope)
