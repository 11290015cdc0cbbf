"""Spectral core: eigenvalues, spectral-symmetry tests and the rank
staircase from which Jordan blocks are read.

Everything here targets small dense matrices.  Jordan structure is
numerically ill-posed in general; at this scale it is decided from the rank
staircase of ``(H - eps*I)^k``: the nullities of the powers, each under a
singular-value cutoff (:func:`nullity_staircase`), whose differences are
the Weyr characteristic (:func:`weyr_block_sizes`).
Within the package only :func:`~nhsim.epfinder.certify_order` climbs it;
it chooses the cluster and its mean ``eps``.

The eigenvalues and singular values come from :mod:`nhsim._lapack`, which
calls numpy's LAPACK gufuncs without the ``np.linalg`` wrappers, with
numpy's bytes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import EigensolverError, NonFiniteMatrixError
from .matrices import as_matrix, as_scaled_matrix, dagger, frob

__all__ = [
    "ToleranceConfig",
    "Spectrum",
    "JordanBlock",
    "eigenvalues",
    "eigenvalues_many",
    "power_traces",
    "multiset_symmetry_match",
    "symmetry_bottleneck",
    "is_normal",
    "nullity_staircase",
    "weyr_block_sizes",
]

SYMMETRY_MAPS = {
    "conj": np.conj,
    "negconj": lambda z: -np.conj(z),
    "neg": np.negative,
}


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances used throughout classification and decomposition.

    All three are *relative* to the Frobenius norm of the matrix at hand,
    with no absolute floor, so every decision is the same for ``c H`` at
    any scale ``c > 0``; they are turned into absolute cutoffs internally
    (a rank decision on the ``k``-th power takes ``rank_tol * |H|_F**k``).

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


def eigenvalues(H) -> Spectrum:
    """All eigenvalues of ``H`` with algebraic multiplicity.

    Raises ``EigensolverError`` if the QR iteration fails to converge.
    """
    return Spectrum(_eigvals(as_matrix(H)))


def _eigvals(H) -> np.ndarray:
    """``np.linalg.eigvals`` of a matrix or a stack, by
    :func:`nhsim._lapack.eigvals` (numpy's gufunc without its wrapper, the
    same bytes); ``EigensolverError`` where the QR iteration fails or an
    entry is not finite, with numpy's message."""
    try:
        return _lapack.eigvals(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration failed: {exc}") from exc


def eigenvalues_many(H) -> np.ndarray:
    """Eigenvalues of a stack of matrices, ``(N, n, n) -> (N, n)``.

    One stacked LAPACK call; each row equals :func:`eigenvalues` of that
    matrix.  Raises ``NonFiniteMatrixError`` for NaN/Inf entries and
    ``EigensolverError`` if the QR iteration fails to converge.  A stack
    that is solved is checked once, by the eigensolver's own finite check
    (:func:`nhsim._lapack.eigvals`, as numpy's wrapper makes it); only
    where it raises is the stack checked again, to tell the two errors
    apart without reading numpy's message.
    """
    H = np.asarray(H, dtype=complex)
    try:
        return _eigvals(H)
    except EigensolverError:
        if not np.isfinite(H).all():
            raise NonFiniteMatrixError("matrix contains non-finite entries") from None
        raise


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


def _symmetry_distances(spectrum, map: str) -> np.ndarray:
    """``|s_i - f(s_j)|`` for the spectrum ``s`` and the map ``f`` named
    ``map``; for a stack of spectra ``(S, n)``, one ``(n, n)`` table each."""
    s = np.asarray(getattr(spectrum, "values", spectrum), dtype=complex)
    return np.abs(s[..., :, None] - SYMMETRY_MAPS[map](s)[..., None, :])


def multiset_symmetry_match(spectrum, map: str, tol: float):
    """Bijective pairing between a spectrum and its mapped image, or ``None``.

    ``map`` is one of ``conj`` ({eps} = {eps*}), ``negconj``
    ({eps} = {-eps*}) or ``neg`` ({eps} = {-eps}).  The pairing lists index
    pairs ``(i, j)``, ``i`` ascending, with ``|s_i - f(s_j)| <= tol``;
    augmenting paths find one whenever one exists.  A NaN or negative
    ``tol`` raises ``ValueError``.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    dist = _symmetry_distances(spectrum, map)
    n = len(dist)
    rows, cols = (a.tolist() for a in np.nonzero(dist <= tol))
    nbrs = [[] for _ in range(n)]
    for i, j in zip(rows, cols):
        nbrs[i].append(j)
    owner = [-1] * n  # the row paired with each column

    def augment(i, seen):
        for j in nbrs[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    if len(set(cols)) < n or not all(augment(i, set()) for i in range(n)):
        return None
    return sorted((i, j) for j, i in enumerate(owner))


def symmetry_bottleneck(spectrum, map: str) -> float:
    """Smallest ``tol`` at which :func:`multiset_symmetry_match` succeeds,
    the spectral violation that ``class_identity_check`` reports; the
    one-spectrum case of :func:`_symmetry_bottlenecks`."""
    s = np.asarray(getattr(spectrum, "values", spectrum), dtype=complex)
    return float(_symmetry_bottlenecks(s[None], map)[0])


def _nearest_certificate(dist, tol: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """``(bound, certified)`` of ``(..., n, n)`` distance tables: no pairing
    stays below ``bound``, the largest nearest-partner distance of any value
    or image; where the ``n`` values can take ``n`` different images each at
    its own nearest distance (``certified``), that pairing attains it.
    The tables of the three maps are symmetric bit for bit
    (``|s_i - f(s_j)| = |s_j - f(s_i)|``: the parts are negated, or summed in
    swapped order), so the nearest image of each value also gives the
    nearest value of each image
    (``tests/test_classes.py::test_symmetry_distance_tables_are_symmetric``).

    Each value takes its first nearest image.  Where two of them collide and
    ``bound <= tol``, a second pass over those tables alone lets repeated
    values (equal rows of the table) spread over their tied nearest images:
    the ``r``-th copy takes the ``r``-th column at the row minimum."""
    nearest = dist.min(axis=-1)
    bound = nearest.max(axis=-1)
    n = dist.shape[-1]
    certified = (np.sort(dist.argmin(axis=-1), axis=-1) == np.arange(n)).all(axis=-1)
    certified = certified.reshape(-1)
    left = np.flatnonzero(~certified & (bound.reshape(-1) <= tol))
    if left.size:
        D = dist.reshape(-1, n, n)[left]
        tied = D == nearest.reshape(-1, n)[left, :, None]
        copy = np.tril((D[:, :, None] == D[:, None]).all(axis=-1), -1).sum(axis=-1)
        pick = tied & (tied.cumsum(axis=-1) == copy[..., None] + 1)
        spread = np.sort(pick.argmax(axis=-1), axis=-1) == np.arange(n)
        certified[left] = (spread & pick.any(axis=-1)).all(axis=-1)
    return bound, certified.reshape(bound.shape)


def _symmetry_pairs(spectrum, maps: list[str], tol: float) -> list[bool]:
    """``multiset_symmetry_match(spectrum, map, tol) is not None`` for each
    name in ``maps``, from one ``(maps, n, n)`` distance table: a map whose
    ``bound`` exceeds ``tol`` pairs nothing, a certified one pairs within
    ``bound`` (:func:`_nearest_certificate`), and only the others go to the
    matcher."""
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    s = np.asarray(spectrum, dtype=complex)
    images = np.empty((len(maps), s.size), dtype=complex)
    for row, name in zip(images, maps):
        row[:] = SYMMETRY_MAPS[name](s)
    bound, certified = _nearest_certificate(np.abs(s[:, None] - images[:, None, :]), tol)
    return [(ok and b <= tol)
            or (not b > tol and multiset_symmetry_match(s, name, tol) is not None)
            for name, b, ok in zip(maps, bound.tolist(), certified.tolist())]


def _symmetry_bottlenecks(spectra, map: str) -> np.ndarray:
    """:func:`symmetry_bottleneck` of each row of an ``(S, n)`` stack of
    spectra, ``(S,)``: a certified row's ``bound``
    (:func:`_nearest_certificate`); the other rows go to the matcher, at
    ``bound`` first, then bisected over the larger distances."""
    spectra = np.asarray(spectra, dtype=complex)
    dist = _symmetry_distances(spectra, map)
    bound, certified = _nearest_certificate(dist)
    out = bound.copy()
    for r in np.flatnonzero(~certified):
        def pairs(tol, s=spectra[r]):
            return multiset_symmetry_match(s, map, tol) is not None

        if not pairs(bound[r]):
            # sorted distinct distances: np.unique would import numpy.ma
            cands = sorted(set(dist[r][dist[r] > bound[r]].tolist()))
            out[r] = cands[bisect.bisect_left(cands, True, key=pairs)]
    return out


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
# Jordan blocks from a rank staircase


def nullity_staircase(A, m, rank_tol: float, base) -> list[list[int]]:
    """Rank staircases of a stack of cluster matrices ``A = H - eps*I``.

    For matrix ``r`` the staircase is ``[0, d_1, ..., d_s]``, where ``d_k``
    is the nullity of ``A_r^k`` under the singular-value cutoff
    ``rank_tol * base_r**k`` (the cutoff grows as the powers do), clipped at
    the cluster size ``m_r``.  It stops when ``d_k`` reaches ``m_r`` or
    stops growing; the stalled step is not recorded, so ``d_s`` is where
    the nullity settles.  ``m_r = 0`` gives ``[0]``.  ``m`` and ``base``
    are scalars or one value per matrix; ``certify_order`` passes ``|H|_F``
    as ``base``, so the cutoff is relative.  All matrices climb together:
    each step is one stacked matmul and one stacked values-only SVD of the
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
        s = _lapack.svdvals(P)
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
