"""Exceptional-point search in parameterized families.

An EPn of a family H(lam) is a parameter point where all n eigenvalues and
their eigenvectors coalesce.  After shifting to H~ = H - (tr H / n) I the
coalescence point sits at eigenvalue zero and is characterized by the real
and imaginary parts of det H~ and tr H~^k for 2 <= k < n.  Each similarity
class forces some of those components to vanish identically, which lowers
the codimension:

    PseudoHermitian   n - 1   (all imaginary parts forced)
    Chiral            n - 1   (parity-alternating components forced)
    SelfSkewSimilar   n - 1 for odd n, n for even n (odd traces forced)

The module builds that reduced real constraint system, verifies the forced
identities on random samples, scans a parameter grid with Gauss-Newton
refinement from grid local minima, certifies the Jordan order at converged
roots and estimates eigenvalue-splitting exponents along rays.

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
from scipy.optimize import linear_sum_assignment

from .classes import CLASS_MAP, SimilarityClass
from .errors import ClusterAmbiguityError, FamilyNotInClassError
from .families import MatrixFamily, constraint_jacobian
from .matrices import frob
from .spectral import (
    DEFAULT_TOLERANCES,
    SYMMETRY_MAPS,
    ToleranceConfig,
    eigenvalues,
    is_normal,
    jordan_decompose,
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
    """``H - (tr H / n) I`` for one matrix or a stack of them."""
    n = H.shape[-1]
    tr = np.trace(H, axis1=-2, axis2=-1)
    return H - (tr / n)[..., None, None] * np.eye(n)


def _raw_components(n: int):
    """(label, kind, k, part) for every real component of the unreduced
    system: tr H~^k for 2 <= k < n, then det H~."""
    comps = []
    for k in range(2, n):
        comps.append((f"Re tr H^{k}", "trace", k, "re"))
        comps.append((f"Im tr H^{k}", "trace", k, "im"))
    comps.append(("Re det", "det", n, "re"))
    comps.append(("Im det", "det", n, "im"))
    return comps


@functools.cache
def _column_index(n: int) -> dict[str, int]:
    return {lab: j for j, (lab, *_rest) in enumerate(_raw_components(n))}


def _kept(cls: SimilarityClass, n: int, kind: str, k: int, part: str) -> bool:
    """Whether the class keeps this component as an active constraint.

    The chiral det parity (real for even n, imaginary for odd n) follows
    from {eps} = {-eps*} and is double-checked by class_identity_check
    rather than assumed blindly.
    """
    if cls is SimilarityClass.PSEUDO_HERMITIAN:
        return part == "re"
    if cls is SimilarityClass.CHIRAL:
        if kind == "trace":
            return part == ("re" if k % 2 == 0 else "im")
        return part == ("re" if n % 2 == 0 else "im")
    # self-skew-similar
    if kind == "trace":
        return k % 2 == 0
    return n % 2 == 0


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
        ``_CHUNK`` so that memory stays bounded on large grids.
        """
        lams = np.asarray(lams, dtype=float)
        column = _column_index(self.order)
        cols = [column[lab] for lab in (self.labels if labels is None else labels)]
        out = np.empty((len(lams), len(cols)))
        for start in range(0, len(lams), _CHUNK):
            Ht = _shifted(self.family.evaluate_batch(lams[start:start + _CHUNK]))
            # tr H~^k for 2 <= k < n, then det H~; viewed as floats the
            # columns are Re, Im interleaved: the order of _raw_components
            C = np.empty((len(Ht), self.order - 1), dtype=complex)
            P = Ht
            for j in range(self.order - 2):
                P = P @ Ht
                C[:, j] = np.trace(P, axis1=1, axis2=2)
            C[:, -1] = np.linalg.det(Ht)
            out[start:start + _CHUNK] = C.view(float)[:, cols]
        return out

    def evaluate(self, lam) -> np.ndarray:
        """Active constraint vector at a parameter point."""
        return self.evaluate_many(np.asarray(lam, dtype=float).reshape(1, -1))[0]

    def __call__(self, lam) -> np.ndarray:
        return self.evaluate(lam)


@dataclass
class IdentityCheckReport:
    """Sampled verification that a family obeys its class identities."""

    passed: bool
    samples: int
    worst_violation: float
    worst_point: np.ndarray | None
    worst_identity: str


def _spectral_mismatch(H: np.ndarray, cls: SimilarityClass) -> float:
    """Smallest max pair distance of any bijection between the spectrum and
    its class-mapped image, relative to the matrix norm."""
    vals = eigenvalues(H).values
    f = SYMMETRY_MAPS[CLASS_MAP[cls]]
    dist = np.abs(vals[:, None] - f(vals)[None, :])
    rows, cols = linear_sum_assignment(dist)
    worst = float(dist[rows, cols].max()) if rows.size else 0.0
    return worst / max(frob(H), 1.0)


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
    class.  The report carries the worst violation and where it occurred.
    """
    cs = _build_system(f, cls)
    rng = np.random.default_rng(seed)
    worst, worst_pt, worst_id = 0.0, None, ""
    degree = {lab: k for (lab, _kind, k, _p) in _raw_components(f.dim)}
    lams = rng.uniform(-box, box, size=(max(samples, 1), f.num_params))
    H = f.evaluate_batch(lams)
    forced = np.abs(cs.evaluate_many(lams, cs.forced_zero))
    for lam, Hj, Ht, vals in zip(lams, H, _shifted(H), forced):
        scale = max(frob(Ht), 1.0)
        for lab, v in zip(cs.forced_zero, vals.tolist()):
            v /= scale ** degree[lab]
            if v > worst:
                worst, worst_pt, worst_id = v, lam, lab
        v = _spectral_mismatch(Hj, cls)
        if v > worst:
            worst, worst_pt, worst_id = v, lam, f"spectrum {CLASS_MAP[cls]} symmetry"
    return IdentityCheckReport(
        passed=worst <= rel_tol,
        samples=samples,
        worst_violation=worst,
        worst_point=worst_pt,
        worst_identity=worst_id,
    )


def _build_system(f: MatrixFamily, cls: SimilarityClass) -> ConstraintSystem:
    n = f.dim
    labels, forced = [], []
    for lab, kind, k, part in _raw_components(n):
        (labels if _kept(cls, n, kind, k, part) else forced).append(lab)
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
    Jordan-order certification of converged roots.
    """

    grid: dict[str, tuple[float, float, int]]
    fixed: dict[str, float] = field(default_factory=dict)
    seed_threshold: float | None = None
    max_iterations: int = 50
    tol: float = 1e-10
    merge_radius: float = 1e-4
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES


@dataclass
class EPCandidate:
    lam: np.ndarray
    order: int
    constraint_residual: float
    jordan: object | None
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


def _gauss_newton(g_many, x0, max_iter, tol):
    """Damped Gauss-Newton on ||g||; pseudo-inverse steps handle both the
    under- and overdetermined cases (the underdetermined one converges to
    the nearest point of the solution manifold).  ``g_many`` maps a stack
    of points to a stack of constraint vectors; each Jacobian costs one
    call of it."""

    def g(x):
        return g_many(x[None])[0]

    x = np.asarray(x0, dtype=float).copy()
    gx = g(x)
    nrm = np.linalg.norm(gx)
    for it in range(max_iter):
        if nrm <= tol:
            return x, nrm, it, True
        J = constraint_jacobian(g_many, x, batched=True)
        step, *_ = np.linalg.lstsq(J, -gx, rcond=None)
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) == 0:
            break
        t = 1.0
        for _ in range(20):
            xn = x + t * step
            gn = g(xn)
            nn = np.linalg.norm(gn)
            if nn < nrm:
                x, gx, nrm = xn, gn, nn
                break
            t /= 2
        else:
            break
    return x, nrm, max_iter, nrm <= tol


def _row_norms(G: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit.

    ``norm`` of one vector is ``sqrt(dot(g, g))``, which ``vecdot`` repeats
    per row; ``norm(G, axis=-1)`` rounds differently.
    """
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
    or grid node raises ``NonFiniteMatrixError``.
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
        if pts < 2 or hi <= lo:
            raise ValueError(f"bad grid for {names[i]}: {(lo, hi, pts)}")
        axes.append(np.linspace(lo, hi, pts))
        spacings.append((hi - lo) / (pts - 1))
    spacings = np.asarray(spacings)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)

    norms = _row_norms(g_many(points)).reshape(mesh[0].shape)

    seeds = [np.array([axes[a][idx[a]] for a in range(len(free))])
             for idx in _local_minima(norms, cfg.seed_threshold)]
    refined = [_gauss_newton(g_many, s, cfg.max_iterations, cfg.tol) for s in seeds]

    roots, failures = [], []
    for x, res, its, ok in refined:
        (roots if ok else failures).append((x, res, its))

    merged: list[tuple[np.ndarray, float, int]] = []
    for x, res, its in sorted(roots, key=lambda r: tuple(r[0])):
        dup = any(
            np.linalg.norm((x - y) / spacings) <= cfg.merge_radius
            for y, _, _ in merged
        )
        if not dup:
            merged.append((x, res, its))

    out = []
    for x, res, its in merged:
        lam = embed(x)
        cert = certify_order(f.evaluate(lam), cfg.tolerances, constraint_tol=cfg.tol)
        out.append(
            EPCandidate(
                lam=lam,
                order=cert.order,
                constraint_residual=res,
                jordan=cert.jordan,
                newton_iterations=its,
                converged=True,
                single_block=cert.single_block,
            )
        )
    for x, res, its in sorted(failures, key=lambda r: tuple(r[0])):
        out.append(
            EPCandidate(
                lam=embed(x),
                order=0,
                constraint_residual=res,
                jordan=None,
                newton_iterations=its,
                converged=False,
            )
        )
    return out


# ---------------------------------------------------------------------------
# order certification and splitting exponents


@dataclass
class OrderCertificate:
    """Jordan data of the zero cluster of the trace-shifted matrix.

    ``order`` is the largest Jordan block in the cluster; a genuine EPn
    additionally requires ``single_block`` (one block covering the whole
    cluster) -- a cluster split into several blocks is a degeneracy, not an
    EP of that order.
    """

    order: int
    geometric_multiplicity: int
    cluster_size: int
    single_block: bool
    jordan: object

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "geometric_multiplicity": self.geometric_multiplicity,
            "cluster_size": self.cluster_size,
            "single_block": self.single_block,
            "blocks": [
                [[b.eigenvalue.real, b.eigenvalue.imag], b.size]
                for b in self.jordan.blocks
            ],
        }


def certify_order(
    H,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    constraint_tol: float = 1e-10,
) -> OrderCertificate:
    """Jordan order of the coalescing cluster at a candidate point.

    The matrix is trace-shifted and the eigenvalues near zero are clustered
    with a radius adapted to the constraint accuracy: an order-n branch
    point converts a parameter error of size t into an eigenvalue spread of
    order t^(1/n), so the radius scales as ``constraint_tol**(1/n)`` rather
    than linearly.
    """
    Ht = _shifted(np.asarray(H, dtype=complex))
    n = Ht.shape[0]
    scale = frob(Ht)
    if scale == 0.0:
        # fully degenerate normal point: order 1, multiplicity n
        jordan = jordan_decompose(Ht)
        return OrderCertificate(1, n, n, n == 1, jordan)
    eps = np.finfo(float).eps
    radius_rel = 10.0 * max(constraint_tol, 100 * eps) ** (1.0 / n)
    cfg2 = ToleranceConfig(
        cluster_tol=max(cfg.cluster_tol, radius_rel),
        residual_tol=cfg.residual_tol,
        rank_tol=cfg.rank_tol,
    )
    jordan = jordan_decompose(Ht, cfg2)
    radius = cfg2.cluster_tol * scale
    zero = [b for b in jordan.blocks if abs(b.eigenvalue) <= radius]
    if not zero:
        return OrderCertificate(1, 0, 0, False, jordan)
    cluster_size = sum(b.size for b in zero)
    order = max(b.size for b in zero)
    return OrderCertificate(
        order=order,
        geometric_multiplicity=len(zero),
        cluster_size=cluster_size,
        single_block=(len(zero) == 1),
        jordan=jordan,
    )


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
    noise floor and no fit is possible.
    """
    lam_star = np.asarray(lam_star, dtype=float).ravel()
    direction = np.asarray(direction, dtype=float).ravel()
    if np.linalg.norm(direction) == 0:
        raise ValueError("direction must be nonzero")
    m = cluster_size or f.dim
    scale = max(frob(_shifted(f.evaluate(lam_star))), 1.0)
    ts, diams = [], []
    for t in np.logspace(np.log10(t_range[0]), np.log10(t_range[1]), steps):
        vals = eigenvalues(_shifted(f.evaluate(lam_star + t * direction))).values
        vals = vals[np.argsort(np.abs(vals))][:m]
        diam = float(np.max(np.abs(vals[:, None] - vals[None, :])))
        if diam > 1e-12 * scale:
            ts.append(t)
            diams.append(diam)
    if len(ts) < 4:
        raise RuntimeError(
            "eigenvalue spread below noise floor along this ray; fit degenerate"
        )
    slope = np.polyfit(np.log(ts), np.log(diams), 1)[0]
    return float(slope)
