"""Spectral core: eigenvalues, Jordan structure and spectral-symmetry tests.

Everything here targets small dense matrices (the cap of the full Jordan
decomposition is ``JORDAN_DIM_CAP = 12``).  Jordan structure is numerically
ill-posed in general; it is made usable at this scale by clustering
eigenvalues with an absolute radius derived from ``cluster_tol`` and by
deciding block sizes from the rank staircase of ``(H - eps*I)^k``: the
nullities of the powers, each under a singular-value cutoff
(:func:`nullity_staircase`), whose differences are the Weyr characteristic
(:func:`weyr_block_sizes`).  Order certification and
:func:`jordan_decompose` both read their blocks off the staircase alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    ClusterAmbiguityError,
    EigensolverError,
    NonFiniteMatrixError,
    UnsupportedDimensionError,
)
from .matrices import as_matrix, as_scaled_matrix, dagger, frob

__all__ = [
    "ToleranceConfig",
    "Spectrum",
    "JordanBlock",
    "JordanStructure",
    "eigenvalues",
    "eigenvalues_many",
    "power_traces",
    "multiset_symmetry_match",
    "is_normal",
    "jordan_decompose",
    "nullity_staircase",
    "weyr_block_sizes",
    "JORDAN_DIM_CAP",
]

#: Largest dimension accepted by :func:`jordan_decompose`.
JORDAN_DIM_CAP = 12

SYMMETRY_MAPS = {
    "conj": np.conj,
    "negconj": lambda z: -np.conj(z),
    "neg": np.negative,
}


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances used throughout classification and decomposition.

    All three are *relative* to the Frobenius norm of the matrix at hand
    (scale invariance of the classification); they are turned into absolute
    cutoffs internally.

    cluster_tol
        Eigenvalue clustering radius.
    residual_tol
        Acceptance threshold for defining-equation and round-trip residuals.
    rank_tol
        Singular-value cutoff for rank decisions.
    """

    cluster_tol: float = 1e-7
    residual_tol: float = 1e-8
    rank_tol: float = 1e-9

    def __post_init__(self):
        tols = (self.cluster_tol, self.residual_tol, self.rank_tol)
        if not all(0 < t < np.inf for t in tols):
            raise ValueError(f"all tolerances must be positive and finite, got {tols}")
        if self.cluster_tol < self.rank_tol:
            raise ValueError("cluster_tol must be >= rank_tol")


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues, stored with algebraic multiplicity."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class JordanBlock:
    eigenvalue: complex
    size: int


@dataclass
class JordanStructure:
    """Result of :func:`jordan_decompose`: the Jordan blocks of ``H``.

    Clusters are listed in order of their mean (real part, then imaginary
    part), and the blocks of a cluster largest first; blocks belonging to
    one eigenvalue cluster share the same ``cluster_index``.
    """

    blocks: list[JordanBlock]
    cluster_index: list[int]


def eigenvalues(H) -> Spectrum:
    """All eigenvalues of ``H`` with algebraic multiplicity.

    Raises ``EigensolverError`` if the QR iteration fails to converge.
    """
    H = as_matrix(H)
    try:
        vals = np.linalg.eigvals(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration failed: {exc}") from exc
    return Spectrum(vals)


def eigenvalues_many(H) -> np.ndarray:
    """Eigenvalues of a stack of matrices, ``(N, n, n) -> (N, n)``.

    One stacked LAPACK call; each row equals :func:`eigenvalues` of that
    matrix.  Raises ``NonFiniteMatrixError`` for NaN/Inf entries and
    ``EigensolverError`` if the QR iteration fails to converge.
    """
    H = np.asarray(H, dtype=complex)
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise NonFiniteMatrixError("matrix contains non-finite entries")
    try:
        return np.linalg.eigvals(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration failed: {exc}") from exc


def power_traces(H, k_max: int) -> list[complex]:
    """``tr[H^k]`` for ``k = 1..k_max``, by repeated multiplication."""
    H = as_matrix(H)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    out = []
    P = H
    for _ in range(k_max):
        out.append(complex(np.trace(P)))
        P = P @ H
    if not all(np.isfinite(t.real) and np.isfinite(t.imag) for t in out):
        raise OverflowError("power trace overflowed")
    return out


def multiset_symmetry_match(spectrum, map: str, tol: float):
    """Bijective pairing between a spectrum and its mapped image, or ``None``.

    ``map`` is one of ``conj`` ({eps} = {eps*}), ``negconj``
    ({eps} = {-eps*}) or ``neg`` ({eps} = {-eps}).  A pairing is a list of
    index pairs ``(i, j)`` with ``|s_i - f(s_j)| <= tol`` for every pair.
    The pairing is found by optimal bipartite assignment on the distance
    matrix, which (unlike greedy matching) is exact: a feasible perfect
    matching is found whenever one exists.  With ``tol = inf`` every pairing
    is feasible and the one returned minimizes the summed pair distance.
    """
    values = spectrum.values if isinstance(spectrum, Spectrum) else np.asarray(
        spectrum, dtype=complex
    )
    f = SYMMETRY_MAPS[map]
    dist = np.abs(values[:, None] - f(values)[None, :])
    # penalize infeasible edges so the assignment avoids them when possible
    big = 1.0 + dist.max()
    cost = np.where(dist <= tol, dist, big * values.size + 1.0)
    rows, cols = linear_sum_assignment(cost)
    if np.any(dist[rows, cols] > tol):
        return None
    return list(zip(rows.tolist(), cols.tolist()))


def is_normal(H, tol: float = 1e-12) -> bool:
    """Whether ``[H, H^dagger]`` vanishes relative to ``|H|_F^2``, after the
    rescale of :func:`~nhsim.matrices.as_scaled_matrix`."""
    H = as_scaled_matrix(H)
    scale = frob(H) ** 2
    if scale == 0.0:
        return True
    comm = H @ dagger(H) - dagger(H) @ H
    return frob(comm) <= tol * scale


# ---------------------------------------------------------------------------
# Jordan decomposition


def _cluster_eigenvalues(vals: np.ndarray, radius: float):
    """Greedy union of eigenvalues within ``radius`` of each other.

    Returns a list of ``(mean, member_indices)``; raises
    ``ClusterAmbiguityError`` when two distinct cluster means end up within
    ``2 * radius`` of each other.
    """
    n = vals.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= radius:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [(complex(np.mean(vals[idx])), idx) for idx in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            if abs(clusters[a][0] - clusters[b][0]) < 2 * radius:
                raise ClusterAmbiguityError(
                    f"clusters at {clusters[a][0]:.6g} and {clusters[b][0]:.6g} "
                    f"are closer than twice the clustering radius {radius:.3g}"
                )
    return clusters


def nullity_staircase(A, m, rank_tol: float, base) -> list[list[int]]:
    """Rank staircases of a stack of cluster matrices ``A = H - eps*I``.

    For matrix ``r`` the staircase is ``[0, d_1, ..., d_s]``, where ``d_k``
    is the nullity of ``A_r^k`` under the singular-value cutoff
    ``rank_tol * base_r**k`` (the cutoff grows as the powers do), clipped at
    the cluster size ``m_r``.  It stops when ``d_k`` reaches ``m_r`` or
    stops growing; the stalled step is not recorded, so ``d_s`` is where
    the nullity settles.  ``m_r = 0`` gives ``[0]``.  ``m`` and ``base``
    are scalars or one value per matrix.  All matrices climb together: each
    step is one stacked matmul and one stacked values-only SVD of the
    matrices still climbing.
    """
    A = np.asarray(A, dtype=complex)
    m = np.broadcast_to(np.asarray(m, dtype=int), A.shape[:1])
    base = np.broadcast_to(np.asarray(base, dtype=float), A.shape[:1])
    n = A.shape[-1]
    dims = [[0] for _ in range(len(A))]
    live = np.flatnonzero(m > 0)
    P = A[live]
    k = 1
    while live.size:
        if k > 1:
            P = P @ A[live]
        s = np.linalg.svd(P, compute_uv=False)
        cutoff = rank_tol * base[live] ** k
        null = np.minimum(n - np.sum(s > cutoff[:, None], axis=1), m[live])
        climbing = []
        for j, (r, d) in enumerate(zip(live.tolist(), null.tolist())):
            if d > dims[r][-1]:
                dims[r].append(d)
                if d < m[r]:
                    climbing.append(j)
        live, P = live[climbing], P[climbing]
        k += 1
    return dims


def weyr_block_sizes(dims) -> list[int]:
    """Jordan block sizes, largest first, of a staircase ``[0, d_1, ..., d_s]``.

    The differences ``w_k = d_k - d_{k-1}`` (the Weyr characteristic) count
    the blocks of size at least ``k``, so ``w_k - w_{k+1}`` blocks have size
    exactly ``k``.
    """
    w = [b - a for a, b in zip(dims, dims[1:])] + [0]
    return [k for k in range(len(w) - 1, 0, -1) for _ in range(w[k - 1] - w[k])]


def jordan_decompose(H, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> JordanStructure:
    """Jordan blocks of ``H`` with tolerance clustering.

    Eigenvalues are clustered within an absolute radius
    ``cfg.cluster_tol * |H|_F``; a simple eigenvalue is one block of size
    1, and the blocks of a multiple one follow from the rank staircase of
    ``(H - eps*I)^k`` under ``cfg.rank_tol`` (:func:`nullity_staircase`,
    the same rule that certifies EP orders), one stacked call for all
    clusters.  Raises ``ClusterAmbiguityError`` when two clusters overlap
    or a staircase stops short of its cluster's size.
    """
    H = as_matrix(H)
    n = H.shape[0]
    if n > JORDAN_DIM_CAP:
        raise UnsupportedDimensionError(
            f"jordan_decompose supports n <= {JORDAN_DIM_CAP}, got {n}"
        )
    scale = frob(H)
    if scale == 0.0:
        return JordanStructure([JordanBlock(0.0 + 0.0j, 1) for _ in range(n)], [0] * n)
    clusters = _cluster_eigenvalues(eigenvalues(H).values, cfg.cluster_tol * scale)
    means = np.array([mean for mean, _ in clusters])
    # a simple eigenvalue climbs no staircase
    climb = [len(members) if len(members) > 1 else 0 for _, members in clusters]
    stairs = nullity_staircase(H - means[:, None, None] * np.eye(n), climb,
                               cfg.rank_tol, max(scale, 1.0))
    blocks: list[JordanBlock] = []
    cluster_index: list[int] = []
    for ci, ((mean, members), dims) in enumerate(zip(clusters, stairs)):
        sizes = weyr_block_sizes(dims) if len(members) > 1 else [1]
        if sum(sizes) != len(members):
            raise ClusterAmbiguityError(
                "rank profile of the cluster is inconsistent with its multiplicity"
            )
        blocks += [JordanBlock(mean, k) for k in sizes]
        cluster_index += [ci] * len(sizes)
    return JordanStructure(blocks, cluster_index)
