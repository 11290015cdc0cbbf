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
eigenvalue-splitting exponents along rays.

The trace shift is a deliberate extension of the bare det/trace casting:
the unshifted conditions only catch coalescence at zero energy.  Whether
the class-reduced counting assumes tr H = 0 is an open modeling point; the
shift resolves it and is applied consistently everywhere here.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .classes import CLASS_EQUATIONS, CLASS_MAP, SimilarityClass
from .errors import FamilyNotInClassError, NonFiniteMatrixError
from .families import MatrixFamily, constraint_jacobians
from .matrices import as_matrix, frob, ldexp_complex, scale_exponents
from .spectral import (
    DEFAULT_TOLERANCES,
    SYMMETRY_MAPS,
    JordanBlock,
    ToleranceConfig,
    eigenvalues_many,
    multiset_symmetry_match,
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


#: Points per batch in :meth:`ConstraintSystem.evaluate_many`.
_CHUNK = 4096

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
        tr = np.trace(H, axis1=-2, axis2=-1)
        return H - (tr / n)[..., None, None] * np.eye(n)


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
        the class forces to vanish).  Points are processed in chunks of
        ``_CHUNK`` so that memory stays bounded on large grids.  The row of
        a point where the family or a component overflows is not finite;
        every caller checks for that.
        """
        lams = np.asarray(lams, dtype=float)
        column = _column_index(self.order)
        cols = [column[lab] for lab in (self.labels if labels is None else labels)]
        out = np.empty((len(lams), len(cols)))
        for start in range(0, len(lams), _CHUNK):
            Ht = _shifted(self.family.evaluate_batch(lams[start:start + _CHUNK]))
            out[start:start + _CHUNK] = _components(Ht, cols)
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
            C[:, j] = np.trace(P, axis1=1, axis2=2)
        C[:, -1] = np.linalg.det(Ht)
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
    forced-zero det/trace components (relative to the appropriate power of
    the shifted matrix norm) and the spectral multiset symmetry of the
    class, measured as the largest pair distance of the optimal pairing of
    the spectrum with its class-mapped image (relative to the matrix norm).
    The report carries the worst violation and where it occurred.  Each
    sample is checked times its own power of two (the rule of
    :func:`certify_order`), which leaves the violations as they are; a
    family value that overflows raises ``NonFiniteMatrixError``.
    """
    cs = _build_system(f, cls)
    rng = np.random.default_rng(seed)
    worst, worst_pt, worst_id = 0.0, None, ""
    degree = {lab: k for (lab, k, _p) in _raw_components(f.dim)}
    lams = rng.uniform(-box, box, size=(max(samples, 1), f.num_params))
    H = f.evaluate_batch(lams)
    if not np.isfinite(H).all():
        raise NonFiniteMatrixError("family values overflow at the sampled points")
    H = ldexp_complex(H, scale_exponents(H, f.dim)[:, None, None])
    column = _column_index(f.dim)
    Hts = _shifted(H)
    forced = np.abs(_components(Hts, [column[lab] for lab in cs.forced_zero]))
    symmetry = CLASS_MAP[cls]
    fmap = SYMMETRY_MAPS[symmetry]
    for lam, Hj, Ht, vals, spec in zip(lams, H, Hts, forced, eigenvalues_many(H)):
        scale = max(frob(Ht), 1.0)
        for lab, v in zip(cs.forced_zero, vals.tolist()):
            v /= scale ** degree[lab]
            if v > worst:
                worst, worst_pt, worst_id = v, lam, lab
        rows, cols = np.array(multiset_symmetry_match(spec, symmetry, np.inf)).T
        v = float(np.abs(spec[rows] - fmap(spec[cols])).max()) / max(frob(Hj), 1.0)
        if v > worst:
            worst, worst_pt, worst_id = v, lam, f"spectrum {symmetry} symmetry"
    return IdentityCheckReport(
        passed=worst <= rel_tol,
        samples=samples,
        worst_violation=worst,
        worst_point=worst_pt,
        worst_identity=worst_id,
    )


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


@dataclass(frozen=True)
class ScanConfig:
    """Grid and refinement settings for :func:`scan`.

    ``grid`` maps parameter names to ``(lo, hi, points)``; parameters not in
    the grid must appear in ``fixed``.  ``seed_threshold`` gates which grid
    local minima of the constraint norm seed refinement (``None``: all).
    ``max_iterations`` and ``tol`` bound the Gauss-Newton refinement of each
    seed; ``tol`` is also the constraint accuracy handed to
    :func:`certify_order`.  ``merge_radius`` is measured in
    grid-spacing-normalized parameter distance.  ``tolerances`` drive the
    order certification of converged roots.  A NaN, infinite or negative
    ``tol``, a negative ``max_iterations`` or a NaN ``seed_threshold``
    raises ``ValueError``.
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
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
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
        J = constraint_jacobians(g_many, x[live])
        step = np.array([np.linalg.lstsq(Ji, -gx[i], rcond=None)[0]
                         for Ji, i in zip(J, live.tolist())])
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


def _local_minima(norms: np.ndarray, threshold: float | None):
    """Indices of grid nodes that are <= all axis neighbours (and below the
    seeding threshold if one is set)."""
    if threshold is not None:
        below = norms <= threshold
    else:
        below = np.ones_like(norms, dtype=bool)
    is_min = below.copy()
    for ax in range(norms.ndim):
        if norms.shape[ax] == 1:
            continue
        lo = np.roll(norms, 1, axis=ax)
        hi = np.roll(norms, -1, axis=ax)
        # non-periodic edges compare only inward
        sl = [slice(None)] * norms.ndim
        sl[ax] = 0
        lo[tuple(sl)] = np.inf
        sl[ax] = -1
        hi[tuple(sl)] = np.inf
        is_min &= (norms <= lo) & (norms <= hi)
    return np.argwhere(is_min)


def scan(f: MatrixFamily, cls: SimilarityClass, cfg: ScanConfig) -> list[EPCandidate]:
    """Grid-seeded Gauss-Newton search for full-coalescence points.

    The constraint norm is evaluated on the whole grid in one batched call;
    grid nodes that are local minima seed Gauss-Newton refinement.
    Converged roots are deduplicated within ``cfg.merge_radius`` (grid-
    normalized), sorted lexicographically by parameter values and certified
    with :func:`certify_order`.  Non-convergent seeds are reported at the
    end of the list with ``converged=False``.  When the family has fewer
    parameters than the codimension the scan returns no candidates and
    warns, since generic solutions cannot exist.  A non-finite fixed value
    or grid bound raises ``NonFiniteMatrixError``; a family of dimension 1
    raises ``ValueError``.
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
        if pts < 2 or hi <= lo:
            raise ValueError(f"bad grid for {names[i]}: {(lo, hi, pts)}")
        axes.append(np.linspace(lo, hi, pts))
        spacings.append((hi - lo) / (pts - 1))
    spacings = np.asarray(spacings)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)

    norms = _row_norms(g_many(points)).reshape(mesh[0].shape)
    if not np.isfinite(norms).all():
        raise NonFiniteMatrixError("constraint values overflow on the grid")

    idx = _local_minima(norms, cfg.seed_threshold)
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


def _merge_keep(x: np.ndarray, spacings: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the rows of ``x`` that survive a greedy merge in row order.

    A row is dropped when it lies within ``radius`` (in grid-spacing units)
    of a kept earlier row.  Each kept row drops its later neighbours with
    one vectorised distance computation; distances are the
    :func:`_row_norms` of ``(later - earlier) / spacings``.
    """
    keep = np.ones(len(x), dtype=bool)
    for i in range(len(x)):
        if keep[i]:
            keep[i + 1:] &= ~(_row_norms((x[i + 1:] - x[i]) / spacings) <= radius)
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
    size and ``mu`` its mean, the nullities of ``(H~ - mu I)^k`` under
    ``cfg.rank_tol`` (:func:`~nhsim.spectral.nullity_staircase`) give the
    geometric multiplicity (k = 1), the order (the last k at which the
    nullity grows) and the block sizes (the Weyr differences).  When the
    nullity stops growing short of ``m``, the cluster is the nullity it
    settled at.  No other eigenvalue is examined, so nearby non-zero
    eigenvalues cannot make the certificate ambiguous.  A matrix whose
    norm or powers up to ``H~^n`` would leave the normal range is decided
    times its own power of two (:func:`~nhsim.matrices.scale_exponents`
    with degree ``max(n, 2)``), and the block means are scaled back.
    """
    return _certify_many(as_matrix(H)[None], cfg, constraint_tol)[0]


def _certify_many(H, cfg: ToleranceConfig, constraint_tol: float) -> list:
    """:func:`certify_order` of a stack of matrices ``(N, n, n)``: one stacked
    eigensolve and one nullity staircase for all of them."""
    if not len(H):
        return []
    Ht = _shifted(np.asarray(H, dtype=complex))
    n = Ht.shape[-1]
    # each matrix times its own power of two where its norm or the
    # staircase's powers up to H~^n would leave the normal range
    e = scale_exponents(Ht, max(n, 2))
    if e.any():
        Ht = ldexp_complex(Ht, e[:, None, None])
    # bit for bit the Frobenius norm of each matrix (see _row_norms)
    flat = Ht.reshape(len(Ht), -1)
    scale = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    eps = np.finfo(float).eps
    radius_rel = 10.0 * max(constraint_tol, 100 * eps) ** (1.0 / n)
    radius = max(cfg.cluster_tol, radius_rel) * scale
    vals = eigenvalues_many(Ht)
    zero = np.abs(vals) <= radius[:, None]
    mean = np.array([complex(np.mean(v[z])) if z.any() else 0j
                     for v, z in zip(vals, zero)])
    A = Ht - mean[:, None, None] * np.eye(n)
    stairs = nullity_staircase(A, zero.sum(axis=1), cfg.rank_tol,
                               np.maximum(scale, 1.0))
    certs = []
    for mu, dims in zip(ldexp_complex(mean, -e).tolist(), stairs):
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
    noise floor, so that no fit is possible, or overflows.
    """
    lam_star = np.asarray(lam_star, dtype=float).ravel()
    direction = np.asarray(direction, dtype=float).ravel()
    if not direction.any():
        raise ValueError("direction must be nonzero")
    m = cluster_size or f.dim
    # the noise floor is taken on H~(lam*) times the power of two of
    # certify_order, and the spreads are compared in the same units
    Ht = as_matrix(_shifted(f.evaluate(lam_star)))
    e = int(scale_exponents(Ht[None], max(f.dim, 2))[0])
    scale = max(frob(ldexp_complex(Ht, e)), 1.0)
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
