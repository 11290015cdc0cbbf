import bisect
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from nhsim import _lapack, epfinder
from nhsim.classes import CLASS_MAP, SimilarityClass, generate_random
from nhsim.epfinder import (
    _BOUND_WINDOW,
    ScanConfig,
    _certify_many,
    _cluster_means,
    _column_index,
    _components,
    _gauss_newton,
    _grid_minima,
    _grid_polynomials,
    _local_minima,
    _merge_keep,
    _norm_bounds,
    _polynomial_values,
    _powers,
    _raw_components,
    _row_norms,
    _shifted,
    certify_order,
    class_identity_check,
    reduced_constraints,
    scan,
    splitting_exponent,
)
from nhsim.errors import FamilyNotInClassError, NonFiniteMatrixError
from nhsim.families import MatrixFamily, constraint_jacobian, constraint_jacobians
from nhsim.matrices import _trace, dagger, frob_many, ldexp_complex, scale_exponents
from nhsim.spectral import (
    DEFAULT_TOLERANCES,
    SYMMETRY_MAPS,
    eigenvalues,
    eigenvalues_many,
    is_normal,
    multiset_symmetry_match,
    symmetry_bottleneck,
)

PH = SimilarityClass.PSEUDO_HERMITIAN
CH = SimilarityClass.CHIRAL
SS = SimilarityClass.SELF_SKEW_SIMILAR

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def dimer():
    return MatrixFamily(2, 1, ((SX, (0,)), (1j * SZ, (1,))), ("gamma",))


def trimer():
    E = np.eye(3)
    K = (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
         + np.outer(E[1], E[2]) + np.outer(E[2], E[1])).astype(complex)
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    return MatrixFamily(3, 2, ((K, (0, 1)), (D, (1, 0))), ("gamma", "k"))


def constant_family(M, nparams=1):
    M = np.asarray(M, dtype=complex)
    return MatrixFamily(M.shape[0], nparams, ((M, (0,) * nparams),))


def test_reduced_constraints_dimer():
    cs = reduced_constraints(dimer(), PH)
    assert cs.labels == ("Re det",)
    assert cs.codimension == 1
    assert "Im det" in cs.forced_zero
    # det(sx + i*gamma*sz) = gamma^2 - 1
    assert cs.evaluate([0.0])[0] == pytest.approx(-1.0)
    assert cs.evaluate([1.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_reduced_constraints_trimer():
    cs = reduced_constraints(trimer(), PH)
    assert cs.labels == ("Re tr H^2", "Re det")
    assert cs.codimension == 2


def test_reduced_constraints_2x2_selfskew():
    f = MatrixFamily(2, 1, ((SX, (1,)),), ("a",))  # a*sx, spectrum {+/-a}
    cs = reduced_constraints(f, SS)
    assert cs.labels == ("Re det", "Im det")
    assert cs.codimension == 2


@pytest.mark.parametrize("n", range(2, 7))
def test_codimension_counting(n):
    from nhsim.epfinder import _build_system

    f = constant_family(np.zeros((n, n)))
    assert _build_system(f, PH).codimension == n - 1
    assert _build_system(f, CH).codimension == n - 1
    expected = n if n % 2 == 0 else n - 1
    assert _build_system(f, SS).codimension == expected


def _written_out_kept(cls, n, kind, k, part):
    """Each class's kept det/trace components, written out by hand."""
    if cls is PH:
        return part == "re"
    if cls is CH:
        if kind == "trace":
            return part == ("re" if k % 2 == 0 else "im")
        return part == ("re" if n % 2 == 0 else "im")
    if kind == "trace":
        return k % 2 == 0
    return n % 2 == 0


@pytest.mark.parametrize("cls", list(SimilarityClass))
def test_constraints_derived_from_class_table_match_written_out_rule(cls):
    for n in range(2, 13):
        comps = [(f"{p} tr H^{k}", "trace", k, p.lower())
                 for k in range(2, n) for p in ("Re", "Im")]
        comps += [(f"{p} det", "det", n, p.lower()) for p in ("Re", "Im")]
        kept = tuple(lab for lab, *c in comps if _written_out_kept(cls, n, *c))
        forced = tuple(lab for lab, *c in comps if not _written_out_kept(cls, n, *c))
        cs = reduced_constraints(constant_family(np.zeros((n, n))), cls, check=False)
        assert (cs.labels, cs.forced_zero) == (kept, forced), n


def test_identity_check_dimer_pseudo_hermitian_passes():
    rep = class_identity_check(dimer(), PH)
    assert rep.passed
    assert rep.worst_violation <= 1e-8


def test_identity_check_diagonal_chiral_fails():
    # H = lam*diag(1,2): spectrum {lam, 2lam} violates {e}={-e*}
    f = MatrixFamily(2, 1, ((np.diag([1.0, 2.0]).astype(complex), (1,)),), ("lam",))
    rep = class_identity_check(f, CH)
    assert not rep.passed
    assert "symmetry" in rep.worst_identity
    assert rep.worst_point is not None
    with pytest.raises(FamilyNotInClassError):
        reduced_constraints(f, CH)


def test_identity_check_scaled_sigma_z_chiral_passes():
    # lam*sz has spectrum {+/-lam}: real and mirror-symmetric, and sx is a
    # valid chiral witness for every lam
    f = MatrixFamily(2, 1, ((SZ, (1,)),), ("lam",))
    assert class_identity_check(f, CH).passed


@pytest.mark.parametrize("family, cls", [
    (lambda: MatrixFamily(2, 1, ((np.diag([1.0, 2.0]).astype(complex), (1,)),),
                          ("lam",)), CH),
    (lambda: cubic_family(), SS),
], ids=["diagonal-chiral", "cubic-self-skew"])
def test_identity_check_spectral_violation_matches_reference(family, cls):
    # families whose only violated identity is the spectral one; the
    # reference is the bottleneck distance of each sampled spectrum, the
    # minimum over permutations of the largest pair distance.  On
    # diagonal-chiral it is 3|lam| (pairing lam with -2 lam), where a
    # min-sum pairing may read 4|lam|
    f = family()
    fmap = SYMMETRY_MAPS[CLASS_MAP[cls]]
    lams = np.random.default_rng(0).uniform(-2.0, 2.0, size=(100, f.num_params))
    worst = 0.0
    for lam in lams:
        H = f.evaluate(lam)
        vals = eigenvalues(H).values
        dist = np.abs(vals[:, None] - fmap(vals)[None, :])
        perms = np.array(list(itertools.permutations(range(vals.size))))
        v = dist[np.arange(vals.size), perms].max(axis=1).min()
        worst = max(worst, float(v) / np.linalg.norm(H))
    rep = class_identity_check(f, cls)
    assert "symmetry" in rep.worst_identity and not rep.passed
    assert rep.worst_violation == worst


def test_identity_check_forced_component_violation():
    # generic complex family is in no class; for PH the Im parts must fail
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rep = class_identity_check(constant_family(M), PH)
    assert not rep.passed


def test_identity_check_generated_in_class_families():
    # constant families built from in-class samples satisfy all identities
    for cls in SimilarityClass:
        H = generate_random(cls, 4, 21)
        rep = class_identity_check(constant_family(H), cls)
        assert rep.passed, (cls, rep.worst_identity, rep.worst_violation)


def test_scan_dimer_finds_both_ep2(recwarn):
    cands = [c for c in scan(dimer(), PH, ScanConfig(grid={"gamma": (-2, 2, 101)}))
             if c.converged]
    assert len(cands) == 2
    gammas = sorted(c.lam[0] for c in cands)
    assert gammas[0] == pytest.approx(-1.0, abs=1e-8)
    assert gammas[1] == pytest.approx(1.0, abs=1e-8)
    for c in cands:
        assert c.order == 2 and c.single_block
        assert c.constraint_residual <= 1e-8


def test_scan_trimer_finds_ep3():
    cfg = ScanConfig(grid={"gamma": (0, 3, 101)}, fixed={"k": 1.0})
    cands = [c for c in scan(trimer(), PH, cfg) if c.converged]
    assert len(cands) == 1
    assert cands[0].lam[0] == pytest.approx(np.sqrt(2), abs=1e-6)
    assert cands[0].order == 3 and cands[0].single_block


def test_scan_agrees_with_closed_form_roots():
    # independent oracle: roots of gamma^2-1 and 2k^2-gamma^2
    cands = [c for c in scan(dimer(), PH, ScanConfig(grid={"gamma": (-2, 2, 101)}))
             if c.converged]
    assert sorted(abs(abs(c.lam[0]) - 1.0) for c in cands) == pytest.approx(
        [0, 0], abs=1e-6
    )
    cfg = ScanConfig(grid={"gamma": (0, 3, 101)}, fixed={"k": 1.0})
    cands = [c for c in scan(trimer(), PH, cfg) if c.converged]
    assert abs(cands[0].lam[0] ** 2 - 2 * cands[0].lam[1] ** 2) <= 1e-6


def test_scan_hermitian_family_no_candidates():
    f = MatrixFamily(2, 1, ((SZ, (0,)), (SX, (1,))), ("lam",))
    cands = scan(f, PH, ScanConfig(grid={"lam": (-2, 2, 101)}))
    assert [c for c in cands if c.converged] == []
    for lam in np.linspace(-2, 2, 21):
        assert is_normal(f.evaluate([lam]))


def test_scan_anti_hermitian_family_no_candidates():
    f = MatrixFamily(2, 1, ((1j * SZ, (0,)), (1j * SX, (1,))), ("lam",))
    cands = scan(f, CH, ScanConfig(grid={"lam": (-2, 2, 101)}))
    assert [c for c in cands if c.converged] == []
    for lam in np.linspace(-2, 2, 21):
        assert is_normal(f.evaluate([lam]))


def test_scan_underdetermined_family_warns():
    with pytest.warns(UserWarning, match="codimension"):
        out = scan(dimer(), SS, ScanConfig(grid={"gamma": (-2, 2, 21)}))
    assert out == []


def test_scan_argument_validation():
    with pytest.raises(ValueError, match="neither scanned nor fixed"):
        scan(trimer(), PH, ScanConfig(grid={"gamma": (0, 3, 11)}))
    with pytest.raises(ValueError, match="unknown parameters"):
        scan(dimer(), PH,
             ScanConfig(grid={"gamma": (0, 1, 11)}, fixed={"nope": 1.0}))
    # a fixed value of a scanned parameter was ignored
    with pytest.raises(ValueError, match=r"both scanned and fixed: \['k'\]"):
        scan(trimer(), PH, ScanConfig(grid={"gamma": (0, 3, 11), "k": (1, 2, 3)},
                                      fixed={"k": 2.0}))
    with pytest.raises(ValueError, match="bad grid"):
        scan(dimer(), PH, ScanConfig(grid={"gamma": (2, -2, 11)}))
    # a point count that is not an integer reached numpy as a TypeError
    for pts in (2.5, 11.0, True, 1):
        with pytest.raises(ValueError, match="bad grid for gamma"):
            scan(dimer(), PH, ScanConfig(grid={"gamma": (0, 3, pts)}))
    numpy_int = scan(dimer(), PH, ScanConfig(grid={"gamma": (0, 3, np.int64(11))}))
    assert [c.to_json() for c in numpy_int] == \
        [c.to_json() for c in scan(dimer(), PH, ScanConfig(grid={"gamma": (0, 3, 11)}))]
    assert numpy_int


def cubic_family():
    # real 4x4 matrices (pseudo-Hermitian), exponents up to 3, codimension 3
    rng = np.random.default_rng(11)
    exps = [(0, 0, 0), (2, 0, 1), (0, 3, 0), (1, 1, 2), (0, 0, 2)]
    return MatrixFamily(4, 3, tuple(
        ((0.5 * rng.standard_normal((4, 4))).astype(complex), e) for e in exps
    ))


def reference_constraints(cs, lam):
    """The per-point det/trace formula, one matrix at a time."""
    H = np.zeros((cs.order, cs.order), dtype=complex)
    for M, exps in cs.family.terms:
        coeff = 1.0
        for x, e in zip(np.asarray(lam, dtype=float), exps):
            if e:
                coeff *= x**e
        H += coeff * M
    Ht = H - (np.trace(H) / cs.order) * np.eye(cs.order)
    vals, P = {}, Ht
    for k in range(2, cs.order):
        P = P @ Ht
        t = complex(np.trace(P))
        vals[f"Re tr H^{k}"], vals[f"Im tr H^{k}"] = t.real, t.imag
    d = complex(np.linalg.det(Ht))
    vals["Re det"], vals["Im det"] = d.real, d.imag
    return np.array([vals[lab] for lab in cs.labels]), np.array(
        [vals[lab] for lab in cs.forced_zero]
    )


@pytest.mark.parametrize("family", [dimer, trimer, cubic_family])
def test_batched_grid_norms_bit_exact(family):
    f = family()
    cs = reduced_constraints(f, PH)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(500, f.num_params))
    G = cs.evaluate_many(pts)
    norms = _row_norms(G)
    F = cs.evaluate_many(pts, cs.forced_zero)
    for p, g, nrm, forced in zip(pts, G, norms, F):
        active, ref_forced = reference_constraints(cs, p)
        assert g.tobytes() == active.tobytes()
        assert forced.tobytes() == ref_forced.tobytes()
        assert cs.evaluate(p).tobytes() == active.tobytes()
        assert nrm == float(np.linalg.norm(cs.evaluate(p)))


def adversarial_family(n):
    """A random ``n x n`` family with signed zeros, subnormal and
    overflowing products and exponents 0..3, and 300 points at scales
    ``2^-400 .. 2^300``, a fifth of them ``-0.0``."""
    rng = np.random.default_rng(61 + n)
    terms = []
    for e, scale in (((0, 0), 1.0), ((1, 0), 2.0**-1000), ((2, 1), 2.0**600), ((0, 3), 1.0)):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M.real.flat[::3] = -0.0
        M.imag.flat[1::4] = -0.0
        terms.append((M * scale, e))
    f = MatrixFamily(n, 2, tuple(terms))
    lams = rng.uniform(-2, 2, size=(300, 2)) * 2.0 ** rng.integers(-400, 300, size=(300, 1))
    lams[::5] = -0.0
    lams[1] = 2.0**500
    return f, lams


def test_evaluate_many_chunking_is_invisible(monkeypatch):
    cases = [(reduced_constraints(cubic_family(), PH),
              np.random.default_rng(3).uniform(-2, 2, size=(50, 3)), None, (7,))]
    # every component of the adversarial families, whose rows are finite and not
    for n in (2, 3, 4, 7):
        f, lams = adversarial_family(n)
        every = [lab for lab, *_ in _raw_components(n)]
        cases.append((reduced_constraints(f, PH, check=False), lams, every, (17, 300)))
    for cs, pts, labels, blocks in cases:
        whole = cs.evaluate_many(pts, labels)
        if labels:
            finite = np.isfinite(whole).all(axis=1)
            assert finite.any() and not finite.all()
        for points in blocks:
            monkeypatch.setattr(epfinder, "_BLOCK_POINTS", points)
            assert cs.evaluate_many(pts, labels).tobytes() == whole.tobytes()
        monkeypatch.undo()


def old_block_values(f, lams):
    """The family values and the trace shift as new arrays, in the
    expressions of ``evaluate_batch`` and ``_shifted``, written out here so
    that a rewrite of either must keep their bytes."""
    H = np.zeros((len(lams), f.dim, f.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for M, exps in f.terms:
            coeff = np.ones(len(lams))
            for col, e in zip(lams.T, exps):
                if e == 1:
                    coeff *= col
                elif e:
                    coeff *= [x**e for x in col]
            H += coeff[:, None, None] * M
        return H - (_trace(H) / f.dim)[..., None, None] * np.eye(f.dim)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_shifted_blocks_are_the_bytes_of_new_arrays(n):
    f, lams = adversarial_family(n)
    want = old_block_values(f, lams)
    assert not np.isfinite(want).all() and (want.view(float) == 0).any()
    assert _shifted(f.evaluate_batch(lams)).tobytes() == want.tobytes()


def test_batched_jacobian_bit_exact():
    f = cubic_family()
    cs = reduced_constraints(f, PH)
    pts = np.random.default_rng(4).uniform(-2, 2, size=(20, 3))
    for p, b in zip(pts, constraint_jacobians(cs.evaluate_many, pts)):
        a = constraint_jacobian(cs.evaluate, p)
        assert a.shape == (3, 3)
        assert a.tobytes() == b.tobytes()


def roll_local_minima(norms, threshold):
    """The per-node local-minimum rule on exact norms: a node is <= both
    of its neighbours along every axis, with the array edges compared only
    inward, and <= the threshold if one is set."""
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
        sl = [slice(None)] * norms.ndim
        sl[ax] = 0
        lo[tuple(sl)] = np.inf
        sl[ax] = -1
        hi[tuple(sl)] = np.inf
        is_min &= (norms <= lo) & (norms <= hi)
    return np.argwhere(is_min)


def reference_scan(f, cls, cfg):
    """Scan with per-seed Gauss-Newton on one-point evaluations and the
    pairwise ``any`` merge.  Returns the converged candidates, then the
    failed ones, as ``(lam, residual, iterations, converged)``; the reason
    each seed stopped; and the number of merged duplicates."""
    cs = reduced_constraints(f, cls)
    names = list(f.param_names)
    free = [i for i, nm in enumerate(names) if nm in cfg.grid]
    base = np.array([float(cfg.fixed.get(nm, 0.0)) for nm in names])

    def embed(x):
        lam = base.copy()
        lam[free] = x
        return lam

    def g(x):
        return cs.evaluate(embed(x))

    def gauss_newton(x):
        gx = g(x)
        nrm = np.linalg.norm(gx)
        for it in range(cfg.max_iterations):
            if nrm <= cfg.tol:
                return x, nrm, it, True, "converged"
            J = constraint_jacobian(g, x)
            step, *_ = np.linalg.lstsq(J, -gx, rcond=None)
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) == 0:
                return x, nrm, cfg.max_iterations, nrm <= cfg.tol, "step"
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
                return x, nrm, cfg.max_iterations, nrm <= cfg.tol, "line search"
        return x, nrm, cfg.max_iterations, nrm <= cfg.tol, "max_iterations"

    grids = [cfg.grid[names[i]] for i in free]
    axes = [np.linspace(lo, hi, pts) for lo, hi, pts in grids]
    spacings = np.array([(hi - lo) / (pts - 1) for lo, hi, pts in grids])
    mesh = np.meshgrid(*axes, indexing="ij")
    norms = np.array([np.linalg.norm(g(np.array(p)))
                      for p in zip(*(m.ravel() for m in mesh))])
    seeds = [np.array([axes[a][idx[a]] for a in range(len(free))])
             for idx in roll_local_minima(norms.reshape(mesh[0].shape), cfg.seed_threshold)]
    refined = [gauss_newton(s) for s in seeds]
    roots = sorted((r for r in refined if r[3]), key=lambda r: tuple(r[0]))
    merged = []
    for r in roots:
        if not any(np.linalg.norm((r[0] - y[0]) / spacings) <= cfg.merge_radius
                   for y in merged):
            merged.append(r)
    failed = sorted((r for r in refined if not r[3]), key=lambda r: tuple(r[0]))
    cands = [(embed(x), res, its, ok) for x, res, its, ok, _ in merged + failed]
    return cands, {r[4] for r in refined}, len(roots) - len(merged)


TRIMER_2D = {"gamma": (0, 3, 31), "k": (0.2, 1.5, 21)}
CUBIC_3D = {p: (-2, 2, 9) for p in ("p1", "p2", "p3")}


LOCKSTEP_SCANS = [
    (dimer, ScanConfig(grid={"gamma": (-1.9, 2.1, 61)}), {"converged"}, False),
    (dimer, ScanConfig(grid={"gamma": (-1.9, 2.1, 61)}, max_iterations=2),
     {"max_iterations"}, False),
    (trimer, ScanConfig(grid=TRIMER_2D, tol=1e-15), {"converged", "line search"}, False),
    (trimer, ScanConfig(grid=TRIMER_2D, tol=0.0), {"line search"}, False),
    (trimer, ScanConfig(grid=TRIMER_2D, merge_radius=3.0), {"converged"}, True),
    (cubic_family, ScanConfig(grid=CUBIC_3D),
     {"converged", "max_iterations", "line search", "step"}, False),
    (cubic_family, ScanConfig(grid=CUBIC_3D, max_iterations=4),
     {"max_iterations", "line search", "step"}, False),
]
LOCKSTEP_IDS = ["dimer", "dimer-max-iterations", "trimer", "trimer-line-search",
                "trimer-merge", "cubic", "cubic-max-iterations"]


@pytest.mark.parametrize("family, cfg, reasons, merges", LOCKSTEP_SCANS, ids=LOCKSTEP_IDS)
def test_lockstep_scan_matches_per_seed_reference(family, cfg, reasons, merges):
    f = family()
    ref, stopped, merged = reference_scan(f, PH, cfg)
    assert reasons <= stopped
    assert (merged > 0) == merges
    got = scan(f, PH, cfg)
    assert len(got) == len(ref)
    for c, (lam, res, its, ok) in zip(got, ref):
        assert c.lam.tobytes() == lam.tobytes()
        assert np.float64(c.constraint_residual).tobytes() == np.float64(res).tobytes()
        assert c.newton_iterations == its
        assert c.converged == ok


@pytest.mark.parametrize("family, cfg, _reasons, _merges", LOCKSTEP_SCANS,
                         ids=LOCKSTEP_IDS)
def test_scan_without_the_private_lstsq_gives_the_same_bytes(
        monkeypatch, family, cfg, _reasons, _merges):
    # without numpy.linalg._umath_linalg, _lapack.lstsq takes one
    # np.linalg.lstsq per seed and every other decomposition numpy's public
    # wrapper, and the scans of the lockstep test do not move by a bit
    f = family()
    fast = scan(f, PH, cfg)
    J = np.random.default_rng(9).standard_normal((20, 3, 2))
    b = np.random.default_rng(10).standard_normal((20, 3))
    stacked = _lapack.lstsq(J, b)
    monkeypatch.setattr(_lapack, "_umath_linalg", None)
    assert _lapack.lstsq(J, b).tobytes() == stacked.tobytes()
    assert _lapack.lstsq(J[:0], b[:0]).shape == (0, 2)
    slow = scan(f, PH, cfg)
    assert len(slow) == len(fast)
    for a, c in zip(fast, slow):
        assert c.lam.tobytes() == a.lam.tobytes()
        assert np.float64(c.constraint_residual).tobytes() == \
            np.float64(a.constraint_residual).tobytes()
        assert (c.newton_iterations, c.converged, c.order, c.single_block, c.blocks) \
            == (a.newton_iterations, a.converged, a.order, a.single_block, a.blocks)


# ---------------------------------------------------------------------------
# the certified grid pass: constraint polynomials, norm intervals and exact
# fallback


def term_scale(f, lams):
    """``S = sum_t |M_t|_F |m_t|`` at each point, the monomials as
    ``evaluate_batch`` takes them."""
    S = np.zeros(len(lams))
    for M, exps in f.terms:
        m = np.ones(len(lams))
        for col, e in zip(lams.T, exps):
            m *= col**e
        S += frob_many(M[None])[0] * np.abs(m)
    return S


def bound_corpus(n):
    """``(family, points)`` for the polynomial bound: seeded families of
    T = 1..6 terms with exponents 0..3 in two parameters and matrices at
    scales 2^+-30, every third with a term pair that cancels to 2^-30 and
    every third with a dominant ``10^3 I`` part; points in [-2, 2]^2 times
    powers of two up to 2^+-6, some of them 0.  Each family comes three
    times, scaled so that S at its points lies across the window and 1.25
    times inside its lower and its upper edge."""
    rng = np.random.default_rng([59, n])
    out = []
    for case in range(24):
        T = 1 + case % 6
        terms = []
        for _t in range(T):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M *= 2.0 ** rng.integers(-30, 31, size=(n, 1))
            terms.append((M * 2.0 ** rng.integers(-30, 31),
                          tuple(int(e) for e in rng.integers(0, 4, 2))))
        if case % 3 == 1 and T > 1:
            M, e = terms[0]
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            terms[1] = (-M + 2.0**-30 * np.abs(M).max() * X, e)
        if case % 3 == 2:
            M, e = terms[0]
            terms[0] = (M + 1e3 * np.abs(M).max() * np.eye(n), e)
        lams = rng.uniform(-2, 2, size=(40, 2)) * 2.0 ** rng.integers(-6, 7, size=(40, 1))
        lams[:4, 0] = 0.0
        lams[2:6, 1] = 0.0
        f = MatrixFamily(n, 2, tuple(terms))
        S = term_scale(f, lams)
        lams = lams[S > 0]
        S = S[S > 0]
        lo, hi = (np.log2(w) for w in _BOUND_WINDOW)
        for c in (2.0 ** rng.uniform(lo + 60, hi - 60) / np.median(S),
                  1.25 * _BOUND_WINDOW[0] / S.min(), _BOUND_WINDOW[1] / (1.25 * S.max())):
            out.append((scaled(f, c), lams))
    return out


def class_columns(n):
    """The active component columns of each class at dimension n."""
    return {cls: [j for j, (_lab, k, part) in enumerate(_raw_components(n))
                  if epfinder._kept(cls, k, part)]
            for cls in SimilarityClass}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3])
def test_polynomials_stay_inside_the_bound(n):
    cols = list(range(2 * (n - 1)))
    degree = np.array([k for _lab, k, _part in _raw_components(n)])
    worst, worst_over_C = 0.0, 0.0
    for f, lams in bound_corpus(n):
        S = term_scale(f, lams)
        assert (_BOUND_WINDOW[0] <= S).all() and (S <= _BOUND_WINDOW[1]).all()
        poly = _grid_polynomials(f, cols)
        exact = _components(_shifted(f.evaluate_batch(lams)), cols)
        ratio = np.abs(_polynomial_values(poly, lams)[0].T - exact) / (
            2.0**-53 * S[:, None] ** degree)
        worst = max(worst, ratio.max())
        worst_over_C = max(worst_over_C, ratio.max() / poly.bound)
        # every class's norm lies in its interval, which is proven everywhere here
        for cls, kept in class_columns(n).items():
            lo, hi = _norm_bounds(_grid_polynomials(f, kept), lams)
            N = _row_norms(exact[:, kept])
            assert not np.isnan(lo).any() and not np.isnan(hi).any()
            assert (lo <= N).all() and (N <= hi).all(), cls
    # a margin of 100 below C; the distances are real, not all zero
    assert worst_over_C <= 1 / 100, worst_over_C
    assert worst > 0.5, worst
    # nothing is proven for S outside the window, a parameter beyond the
    # reach of the monomials, or a point that is not finite
    f, lams = bound_corpus(n)[15]
    S = term_scale(f, lams)
    for c in (_BOUND_WINDOW[0] / (1.25 * S.max()), 1.25 * _BOUND_WINDOW[1] / S.min()):
        lo, hi = _norm_bounds(_grid_polynomials(scaled(f, c), cols), lams)
        assert np.isnan(lo).all() and np.isnan(hi).all()
    poly = _grid_polynomials(f, cols)
    assert list(poly.params) == [0, 1]
    far = np.array([[poly.reach * 2, 1.0], [1.0, 0.5 / poly.reach],
                    [np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0]])
    lo, hi = _norm_bounds(poly, far)
    assert np.isnan(lo).all() and np.isnan(hi).all()


def pseudo_hermitian_family(n, rng):
    """``eta (B0 + p B1 + q B2)`` with Hermitian ``eta`` and ``B_i``."""
    eta = _hermitian(rng, n) + 3 * np.eye(n)
    return MatrixFamily(n, 2, tuple((eta @ _hermitian(rng, n), e)
                                    for e in ((0, 0), (1, 0), (0, 1))), ("p", "q"))


def chiral_family(n, rng):
    """``i Gamma (B0 + p B1 + q B2)`` with Hermitian ``Gamma`` and ``B_i``."""
    gamma = _hermitian(rng, n) + 3 * np.eye(n)
    return MatrixFamily(n, 2, tuple((1j * gamma @ _hermitian(rng, n), e)
                                    for e in ((0, 0), (1, 0), (0, 1))), ("p", "q"))


def self_skew_family(n, rng):
    """``V (K0 + p K1 + q K2) V^-1`` with every ``K_i`` anticommuting with
    ``diag(1, -1[, 1])``, so each value is similar to its negative."""
    V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Vi = np.linalg.inv(V)
    odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
    terms = []
    for e in ((0, 0), (1, 0), (0, 1)):
        K = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * odd
        terms.append((V @ K @ Vi, e))
    return MatrixFamily(n, 2, tuple(terms), ("p", "q"))


def indefinite_family(n, rng, exps):
    """``eta sum_i p^a_i q^b_i B_i`` over ``exps``, with Hermitian ``B_i``
    and the indefinite ``eta = diag(1, -1[, 2]) + 0.3 X``, ``X`` Hermitian:
    pseudo-Hermitian, with EPs."""
    eta = np.diag([1.0, -1.0, 2.0][:n]) + 0.3 * _hermitian(rng, n)
    return MatrixFamily(n, 2, tuple((eta @ _hermitian(rng, n), e) for e in exps),
                        ("p", "q"))


def cancelling_family(rng):
    """A 3x3 pseudo-Hermitian family with a pair of ``p`` terms that cancel
    to 2^-30 of each: ``eta (B0 + p B1 + q B2 + p 2^6 B3 + p (2^-24 B4 -
    2^6 B3))``."""
    f = indefinite_family(3, rng, ((0, 0), (1, 0), (0, 1), (1, 0), (1, 0)))
    *rest, (M3, e3), (M4, e4) = f.terms
    return MatrixFamily(3, 2, (*rest, (2.0**6 * M3, e3), (2.0**-24 * M4 - 2.0**6 * M3, e4)),
                        f.param_names)


def scalar_dominated_family(rng):
    """``10^3 I + eta (B0 + p B1 + q B2)``, 3x3 pseudo-Hermitian, whose
    trace shift removes the largest part of every value."""
    f = indefinite_family(3, rng, ((0, 0), (1, 0), (0, 1)))
    (M0, e0), *rest = f.terms
    return MatrixFamily(3, 2, ((M0 + 1e3 * np.eye(3), e0), *rest), f.param_names)


def _hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def grid_points(grid):
    """The scan's grid: nodes as rows in C order, and the grid shape."""
    mesh = np.meshgrid(*(np.linspace(*g) for g in grid), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), mesh[0].shape


def minima_cases():
    """``(id, family, class, grid)`` for the minima and fallback tests."""
    rng = np.random.default_rng(43)
    box = [(-1.5, 1.5, 41), (-1.2, 1.4, 37)]
    cases = [(f"trimer-k{k0}", trimer(), PH, [(0, 3, 101), (k0, k0 + 1, 51)])
             for k0 in (0.2, 0.537, 0.913)]
    cases += [
        ("trimer-zero-node", trimer(), PH, [(0, 3, 31), (0, 1.5, 16)]),
        ("dimer", dimer(), PH, [(-2, 2, 101)]),
        ("constant", constant_family([[1j, 1], [1, -1j]], 2), PH, box),
    ]
    for n in (2, 3):
        cases += [(f"pseudo-hermitian-{n}", pseudo_hermitian_family(n, rng), PH, box),
                  (f"chiral-{n}", chiral_family(n, rng), CH, box),
                  (f"self-skew-{n}", self_skew_family(n, rng), SS, box)]
    rng = np.random.default_rng(67)
    cases += [
        ("cancelling", cancelling_family(rng), PH, box),
        ("scalar-dominated", scalar_dominated_family(rng), PH, box),
        ("six-terms", indefinite_family(3, rng, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                                 (0, 3))), PH, box),
        ("pseudo-hermitian-indefinite-3",
         indefinite_family(3, rng, ((0, 0), (1, 0), (0, 1))), PH, box),
    ]
    return cases


MINIMA_CASES = minima_cases()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, f, cls, grid", MINIMA_CASES,
                         ids=[c[0] for c in MINIMA_CASES])
def test_certified_minima_equal_the_exact_rule(name, f, cls, grid):
    cs = reduced_constraints(f, cls)
    lams, shape = grid_points(grid)
    norms = _row_norms(cs.evaluate_many(lams)).reshape(shape)
    for threshold in (None, 0.0, float(np.median(norms)), float(norms.min()), np.inf):
        want = roll_local_minima(norms, threshold)
        got = _grid_minima(cs, lams, shape, threshold)
        assert got.tobytes() == want.tobytes(), (name, threshold)
    assert len(roll_local_minima(norms, None)) > 0


def test_interval_rule_on_exact_norms_is_the_roll_rule():
    # lo = hi decides every test, as the np.roll rule does, on grids with
    # ties, axes of length 1 and 2, and thresholds at and between values
    rng = np.random.default_rng(47)
    for shape in [(7,), (1, 5), (2, 6), (4, 1, 3), (3, 4, 5)]:
        norms = rng.integers(0, 4, size=shape).astype(float)
        for threshold in (None, -1.0, 0.0, 1.5, 2.0, np.inf):
            is_min, undecided = _local_minima(norms, norms.copy(), threshold)
            assert not undecided.any()
            want = roll_local_minima(norms, threshold)
            assert np.argwhere(is_min).tobytes() == want.tobytes(), (shape, threshold)


def count_fallback(monkeypatch):
    """Record the number of points of every exact evaluation."""
    calls = []
    exact = epfinder.ConstraintSystem.evaluate_many

    def counting(self, lams, labels=None):
        calls.append(len(lams))
        return exact(self, lams, labels)

    monkeypatch.setattr(epfinder.ConstraintSystem, "evaluate_many", counting)
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_fallback_counts(monkeypatch):
    calls = count_fallback(monkeypatch)
    cs = reduced_constraints(trimer(), PH)
    # the ep-scan windows: no node needs its exact norm
    for k0 in np.linspace(0.2, 1.0, 17):
        lams, shape = grid_points([(0, 3, 101), (k0, k0 + 1, 51)])
        _grid_minima(cs, lams, shape, None)
    assert sum(calls) == 0
    # a constant family ties every comparison: every node
    box = [(-1.5, 1.5, 41), (-1.2, 1.4, 37)]
    lams, shape = grid_points(box)
    for M in ([[1j, 1], [1, -1j]], np.diag([1.0, 0.0, -1.0])):
        const = reduced_constraints(constant_family(M, 2), PH)
        calls.clear()
        _grid_minima(const, lams, shape, None)
        assert calls == [len(lams)]
    # nodes outside the window: every node of the trimer times 2^+-300
    lams, shape = grid_points([(0, 3, 31), (0.2, 1.2, 21)])
    small = reduced_constraints(scaled(trimer(), 2.0**-300), PH)
    calls.clear()
    got = _grid_minima(small, lams, shape, None)
    assert calls == [len(lams)]
    norms = _row_norms(small.evaluate_many(lams)).reshape(shape)
    assert got.tobytes() == roll_local_minima(norms, None).tobytes()
    big = reduced_constraints(scaled(trimer(), 2.0**300), PH)
    calls.clear()
    with pytest.raises(NonFiniteMatrixError, match="overflow on the grid"):
        _grid_minima(big, lams, shape, None)
    assert calls == [len(lams)]
    # the window's lower edge cuts through this grid: the nodes with S below
    # it, the zero node among them, take the exact path first
    edge = reduced_constraints(scaled(trimer(), 2.0**-99), PH)
    lams, shape = grid_points([(0, 3, 31), (0, 1.5, 16)])
    below = int((term_scale(edge.family, lams) < _BOUND_WINDOW[0]).sum())
    assert 0 < below < len(lams)
    calls.clear()
    got = _grid_minima(edge, lams, shape, None)
    assert calls[0] == below
    norms = _row_norms(edge.evaluate_many(lams)).reshape(shape)
    assert got.tobytes() == roll_local_minima(norms, None).tobytes()
    # S far above |H~|_F leaves some comparisons to the exact norms
    for name, f, cls, grid in MINIMA_CASES:
        if name in ("cancelling", "scalar-dominated"):
            lams, shape = grid_points(grid)
            calls.clear()
            _grid_minima(reduced_constraints(f, cls), lams, shape, None)
            assert 0 < sum(calls) < len(lams) / 4, name


def test_four_by_four_grid_takes_exact_norms(monkeypatch):
    calls = count_fallback(monkeypatch)
    cs = reduced_constraints(cubic_family(), PH)
    lams, shape = grid_points([(-2, 2, 9)] * 3)
    got = _grid_minima(cs, lams, shape, None)
    assert calls == [len(lams)]
    norms = _row_norms(cs.evaluate_many(lams)).reshape(shape)
    assert got.tobytes() == roll_local_minima(norms, None).tobytes()


def powers_family():
    """A 3x3 pseudo-Hermitian family with exponents 2 and 3,
    ``eta (B0 + p^2 B1 + q^3 B2 + p q^2 B3)``, with an indefinite ``eta``."""
    return indefinite_family(3, np.random.default_rng(53), ((0, 0), (2, 0), (0, 3), (1, 2)))


BLOCK_CASES = [
    ("ep-scan-window", trimer, [(0, 3, 101), (0.613, 1.613, 51)],
     [(0, 1.2, 41), (0.613, 1.613, 51)]),
    ("cubic-4x4", cubic_family, [(-2, 2, 9)] * 3, [(-2, 2, 9)] * 3),
    ("powers-2-3", powers_family, [(-1.5, 1.5, 61), (-1.2, 1.4, 57)],
     [(-1.5, 1.5, 61), (-1.2, 0.4, 35)]),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, family, grid, few_blocks", BLOCK_CASES,
                         ids=[c[0] for c in BLOCK_CASES])
def test_grid_minima_do_not_depend_on_the_block(monkeypatch, name, family, grid, few_blocks):
    # one block larger than the grid on the whole grid; blocks of 1 and 7
    # points on a smaller one: at n = 3 two default blocks, the last one
    # partial (2,091 and 2,135 nodes), at n = 4 the same 729 nodes
    cs = reduced_constraints(family(), PH)
    runs = []
    for g, sizes in ((grid, lambda N: [N + 1]), (few_blocks, lambda N: [1, 7])):
        lams, shape = grid_points(g)
        norms = _row_norms(cs.evaluate_many(lams)).reshape(shape)
        thresholds = (None, float(np.median(norms)))
        default = [_grid_minima(cs, lams, shape, t) for t in thresholds]
        assert len(default[0]) > 0
        runs += [(lams, shape, thresholds, default, points) for points in sizes(len(lams))]
    for lams, shape, thresholds, default, points in runs:
        monkeypatch.setattr(epfinder, "_BLOCK_POINTS", points)
        for t, want in zip(thresholds, default):
            assert _grid_minima(cs, lams, shape, t).tobytes() == want.tobytes(), (points, t)


def greedy_merge_reference(x, spacings, radius):
    """The per-row merge: each kept row drops its later neighbours."""
    keep = np.ones(len(x), dtype=bool)
    for i in range(len(x)):
        if keep[i]:
            keep[i + 1:] &= ~(_row_norms((x[i + 1:] - x[i]) / spacings) <= radius)
    return np.flatnonzero(keep)


def root_clouds():
    """Seeded root clouds with d = 1..3 free parameters: dyadic lattices
    (duplicates, and rows exactly ``radius`` apart along one axis, exactly
    representable) and continuous clouds with copied rows, unsorted and in
    the lexicographic order the scan uses."""
    rng = np.random.default_rng(11)
    radius = 1.5
    for d in (1, 2, 3):
        spacings = np.array([0.25, 0.5, 0.125][:d])
        for R in (0, 1, 2, 40, 300):
            lattice = rng.integers(0, 9, (R, d)) * (spacings / 2)
            cloud = rng.uniform(0, 6, (R, d)) * spacings
            if R:
                cloud[rng.integers(0, R, R // 3)] = cloud[rng.integers(0, R, R // 3)]
            for x in (lattice, cloud):
                yield x, spacings, radius
                yield x[np.lexsort(x.T[::-1])], spacings, radius


def test_merge_keeps_the_rows_of_the_per_row_loop(monkeypatch):
    from nhsim import epfinder

    # a row, its duplicate, a row exactly `radius` away along one axis and one
    # just beyond: the first and the last survive
    spacings = np.array([0.25, 0.5])
    x = np.array([[1.0, 2.0], [1.0, 2.0], [1.375, 2.0],
                  [np.nextafter(1.375, 2.0), 2.0]])
    assert _merge_keep(x, spacings, 1.5).tolist() == [0, 3]
    clouds = list(root_clouds())
    exact = 0
    for x, spacings, radius in clouds:
        dist = _row_norms((x[:, None] - x[None, :]) / spacings)
        exact += int((np.triu(dist, 1) == radius).any())
        ref = greedy_merge_reference(x, spacings, radius)
        assert np.array_equal(_merge_keep(x, spacings, radius), ref)
    assert exact >= 12  # each lattice of 40 or 300 rows, in both orders
    # blocks of a few rows against the earlier rows decide the same
    monkeypatch.setattr(epfinder, "_MERGE_PAIRS", 5)
    for x, spacings, radius in clouds:
        ref = greedy_merge_reference(x, spacings, radius)
        assert np.array_equal(_merge_keep(x, spacings, radius), ref)


def test_merge_memory_is_linear_in_the_roots():
    # all pairwise differences of 3,000 roots would take 3000**2 * 3 * 8 bytes
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (3000, 3))
    x[rng.integers(0, 3000, 300)] = x[rng.integers(0, 3000, 300)]
    spacings = np.full(3, 0.01)
    tracemalloc.start()
    try:
        keep = _merge_keep(x, spacings, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.array_equal(keep, greedy_merge_reference(x, spacings, 1.5))
    assert len(keep) < len(x)


@pytest.mark.parametrize("cls", list(SimilarityClass))
def test_one_by_one_family_has_no_constraint_system(cls):
    f = MatrixFamily(1, 1, ((np.ones((1, 1), dtype=complex), (1,)),), ("a",))
    with pytest.raises(ValueError, match="one eigenvalue cannot coalesce"):
        reduced_constraints(f, cls)
    with pytest.raises(ValueError, match="one eigenvalue cannot coalesce"):
        scan(f, cls, ScanConfig(grid={"a": (-1, 1, 11)}))


@pytest.mark.parametrize("field, value", [
    ("tol", np.nan), ("tol", np.inf), ("tol", -1e-10),
    ("max_iterations", -3), ("max_iterations", 2.5), ("max_iterations", True),
    ("seed_threshold", np.nan),
    ("merge_radius", np.nan), ("merge_radius", np.inf), ("merge_radius", -1e-4),
])
def test_scan_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        ScanConfig(grid={"gamma": (0, 3, 11)}, **{field: value})
    ScanConfig(grid={"gamma": (0, 3, 11)}, tol=0.0, max_iterations=0,
               seed_threshold=np.inf, merge_radius=0.0)


@pytest.mark.parametrize("samples", [0, -5])
def test_identity_check_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        class_identity_check(dimer(), PH, samples=samples)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        reduced_constraints(dimer(), PH, samples=samples)
    assert class_identity_check(dimer(), PH, samples=1).samples == 1


@pytest.mark.parametrize("kwargs", [
    {"box": np.nan}, {"box": np.inf}, {"box": -np.inf}, {"box": -1.0}, {"box": 0.0},
    {"rel_tol": np.nan}, {"rel_tol": np.inf}, {"rel_tol": -1e-8},
], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_identity_check_rejects_bad_box_and_rel_tol(kwargs):
    # a NaN or infinite box made numpy's uniform raise OverflowError, a
    # negative one ValueError('high - low < 0'); a NaN or negative rel_tol
    # failed every family
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        class_identity_check(trimer(), PH, **kwargs)
    assert class_identity_check(trimer(), PH, rel_tol=0.0, box=1e-300).samples == 100


def reference_bottleneck(spec, name):
    """The spectral violation as the per-sample loop took it: the matcher
    at the largest nearest-partner distance, then a bisection over
    ``np.unique`` of the larger distances."""
    dist = np.abs(spec[:, None] - SYMMETRY_MAPS[name](spec)[None, :])

    def pairs(tol):
        return multiset_symmetry_match(spec, name, tol) is not None

    bound = float(max(dist.min(axis=0).max(), dist.min(axis=1).max()))
    if pairs(bound):
        return bound
    cands = np.unique(dist[dist > bound]).tolist()
    return cands[bisect.bisect_left(cands, True, key=pairs)]


def reference_identity_check(f, cls, samples, seed=0):
    """``class_identity_check`` one sample at a time, as a loop from 0.0
    that takes each strictly larger violation."""
    cs = reduced_constraints(f, cls, check=False)
    degree = {lab: k for (lab, k, _p) in _raw_components(f.dim)}
    lams = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(samples, f.num_params))
    H = f.evaluate_batch(lams)
    H = ldexp_complex(H, scale_exponents(H, f.dim)[:, None, None])
    Hts = _shifted(H)
    Hts = ldexp_complex(Hts, scale_exponents(Hts, f.dim)[:, None, None])
    column = _column_index(f.dim)
    forced = np.abs(_components(Hts, [column[lab] for lab in cs.forced_zero]))
    symmetry = CLASS_MAP[cls]
    worst, worst_pt, worst_id = 0.0, None, ""
    for lam, Hj, Ht, vals, spec in zip(lams, H, Hts, forced, eigenvalues_many(H)):
        scale = float(np.linalg.norm(Ht))
        for lab, v in zip(cs.forced_zero, vals.tolist()):
            v = v / scale ** degree[lab] if v else 0.0
            if v > worst:
                worst, worst_pt, worst_id = v, lam, lab
        v = reference_bottleneck(spec, symmetry)
        v = v / float(np.linalg.norm(Hj)) if v else 0.0
        if v > worst:
            worst, worst_pt, worst_id = v, lam, f"spectrum {symmetry} symmetry"
    return worst, worst_pt, worst_id


def linear_family(coeffs):
    """``A_0 + sum_i lam_i A_i``."""
    d = len(coeffs) - 1
    return MatrixFamily(coeffs[0].shape[0], d, tuple(
        (np.asarray(A, dtype=complex), tuple(int(j == i - 1) for j in range(d)))
        for i, A in enumerate(coeffs)))


def identity_class_family(cls, n, seed):
    """Two-parameter family of class ``cls``: ``A_i = eta B_i`` or
    ``i Gamma B_i`` with Hermitian ``B_i``, or a unitary conjugate of the
    off-diagonal blocks of ``generate_random``'s self-skew samples."""
    rng = np.random.default_rng(seed)

    def cplx():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    if cls is SS:
        U, _ = np.linalg.qr(cplx())
        coeffs = []
        for _ in range(3):
            M = cplx()
            M[:n // 2, :n // 2] = M[n // 2:, n // 2:] = 0
            coeffs.append(U @ M @ dagger(U))
        return linear_family(coeffs)
    W = cplx()
    W = W + dagger(W) + 10 * np.eye(n)
    W = 1j * W if cls is CH else W
    return linear_family([W @ (B + dagger(B)) for B in (cplx(), cplx(), cplx())])


def identity_families():
    """(id, family, class) of every case the stacked check is pinned on."""
    rng = np.random.default_rng(17)
    cases = []
    for cls in SimilarityClass:
        for n in (2, 3, 4):
            cases.append((f"class-{cls.name}-{n}", identity_class_family(cls, n, n), cls))
            generic = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                       for _ in range(3)]
            cases.append((f"generic-{cls.name}-{n}", linear_family(generic), cls))
        cases.append((f"zero-{cls.name}", linear_family([np.zeros((3, 3))] * 2), cls))
        cases.append((f"trimer-{cls.name}", trimer(), cls))
    scalar = linear_family([np.zeros((3, 3)), np.eye(3)])
    cases.append(("scalar-PSEUDO_HERMITIAN", scalar, PH))
    # I + eps C, C the companion matrix of z^n - i: the spectrum is
    # conjugate-symmetric within eps |H|_F, and Im det H~ is the worst
    for n in (3, 4):
        C = np.eye(n, k=-1, dtype=complex)
        C[0, -1] = 1j
        f = linear_family([np.eye(n) + 1e-5 * C, 1e-6 * C])
        cases.append((f"companion-PSEUDO_HERMITIAN-{n}", f, PH))
    return cases


IDENTITY_FAMILIES = identity_families()


@pytest.mark.parametrize("f, cls", [c[1:] for c in IDENTITY_FAMILIES],
                         ids=[c[0] for c in IDENTITY_FAMILIES])
def test_stacked_identity_check_matches_the_per_sample_loop(f, cls):
    for samples in (1, 30, 100):
        worst, pt, ident = reference_identity_check(f, cls, samples)
        rep = class_identity_check(f, cls, samples=samples)
        assert rep.worst_violation == worst and type(rep.worst_violation) is float
        assert rep.worst_identity == ident
        assert rep.passed == (worst <= 1e-8)
        assert rep.samples == samples
        if pt is None:
            assert rep.worst_point is None and worst == 0.0
        else:
            assert rep.worst_point.tobytes() == pt.tobytes()


def count_matcher_calls(monkeypatch):
    """Count the matcher calls that the spectral module makes."""
    from nhsim import spectral

    calls = []
    match = spectral.multiset_symmetry_match

    def counted(*args):
        calls.append(args)
        return match(*args)

    monkeypatch.setattr(spectral, "multiset_symmetry_match", counted)
    return calls


def no_nearest_permutation(f, cls, samples):
    """How many samples have two values whose nearest mapped image is the same."""
    lams = np.random.default_rng(0).uniform(-2.0, 2.0, size=(samples, f.num_params))
    fmap = SYMMETRY_MAPS[CLASS_MAP[cls]]
    count = 0
    for spec in eigenvalues_many(f.evaluate_batch(lams)):
        nearest = np.abs(spec[:, None] - fmap(spec)[None, :]).argmin(axis=1)
        count += len(set(nearest.tolist())) < len(spec)
    return count


def test_identity_check_runs_the_matcher_only_where_nearest_images_collide(monkeypatch):
    calls = count_matcher_calls(monkeypatch)
    # the scan's check of the trimer: every sample pairs by nearest images
    assert class_identity_check(trimer(), PH, samples=30).passed
    assert calls == []
    # generic families: some spectra have colliding nearest images, and each
    # of those goes to the matcher, bisecting where the bound does not pair
    colliding = 0
    for case, f, cls in IDENTITY_FAMILIES:
        if case.startswith("generic"):
            calls.clear()
            worst, pt, ident = reference_identity_check(f, cls, 100)
            rep = class_identity_check(f, cls, samples=100)
            assert (rep.worst_violation, rep.worst_identity) == (worst, ident)
            assert rep.worst_point.tobytes() == pt.tobytes()
            collide = no_nearest_permutation(f, cls, 100)
            assert len({id(a[0]) for a in calls}) == collide <= len(calls)
            colliding += collide
    assert colliding >= 100


def test_repeated_values_spread_over_their_tied_images(monkeypatch):
    # zero and lambda*I families: every value of every sample is repeated and
    # all its copies share one nearest image; the r-th copy takes the r-th
    # tied column, so no sample goes to the matcher
    calls = count_matcher_calls(monkeypatch)
    for case, f, cls in IDENTITY_FAMILIES:
        if case.startswith(("zero", "scalar")):
            assert no_nearest_permutation(f, cls, 30) == 30
            assert class_identity_check(f, cls, samples=30).passed
            assert calls == [], case


def test_a_certified_bound_is_the_bottleneck():
    # spectra drawn with repeats from a few values and their mapped images:
    # wherever the certificate holds, no pairing does better than its bound
    # and the matcher pairs at it
    from nhsim.spectral import _nearest_certificate, _symmetry_distances

    rng = np.random.default_rng(23)
    certified = spread = 0
    for _ in range(400):
        n = int(rng.integers(2, 6))
        m = str(rng.choice(["conj", "negconj", "neg"]))
        pool = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pool = np.concatenate([pool, SYMMETRY_MAPS[m](pool), [0.0]])
        s = rng.choice(pool, n)
        dist = _symmetry_distances(s, m)
        bound, ok = _nearest_certificate(dist)
        perms = np.array(list(itertools.permutations(range(n))))
        bottleneck = dist[np.arange(n), perms].max(axis=1).min()
        assert bound <= bottleneck
        if ok:
            certified += 1
            # first nearest images that collide: certified by the spread
            spread += len(set(dist.argmin(axis=1).tolist())) < n
            assert bound == bottleneck == symmetry_bottleneck(s, m), (s, m)
            assert multiset_symmetry_match(s, m, float(bound)) is not None
    assert certified >= 100 and spread >= 30


def test_identity_check_reports_the_first_of_equal_violations():
    # a constant family has the same violations at every sample: the loop
    # kept the first sample, and within it the first component that reached
    # the maximum
    rng = np.random.default_rng(5)
    for cls in SimilarityClass:
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = constant_family(M, nparams=2)
        worst, pt, ident = reference_identity_check(f, cls, 30)
        rep = class_identity_check(f, cls, samples=30)
        first = np.random.default_rng(0).uniform(-2.0, 2.0, size=(30, 2))[0]
        assert rep.worst_point.tobytes() == pt.tobytes() == first.tobytes()
        assert (rep.worst_violation, rep.worst_identity) == (worst, ident)
    # diag(1, 2, 3) for the conj map: Im tr H~^2 and Im det are 0, and the
    # spectrum is real, so every violation is 0 and nothing is reported
    rep = class_identity_check(constant_family(np.diag([1.0, 2.0, 3.0])), PH)
    assert (rep.worst_violation, rep.worst_point, rep.worst_identity) == (0.0, None, "")


def test_powers_match_python_pow():
    # numpy's float power may round differently from libm pow (SIMD code,
    # or x*x for a square); the check's scale powers are Python's
    rng = np.random.default_rng(8)
    x = np.ldexp(rng.uniform(0.5, 1.0, 100_000), rng.integers(-80, 80, 100_000))
    ks = list(range(2, 13))
    ref = np.array([[v ** k for k in ks] for v in x.tolist()])
    assert _powers(x, ks).tobytes() == ref.tobytes()
    assert _powers(x[:3], []).shape == (3, 0)


def test_scan_nonfinite_input_raises():
    with pytest.raises(NonFiniteMatrixError, match="non-finite parameter point"):
        scan(trimer(), PH, ScanConfig(grid={"gamma": (0, 3, 11)},
                                      fixed={"k": float("nan")}))
    for lo, hi in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before np.linspace warns
            with pytest.raises(NonFiniteMatrixError,
                               match="non-finite parameter point"):
                scan(dimer(), PH, ScanConfig(grid={"gamma": (lo, hi, 11)}))
    with np.errstate(invalid="ignore"), pytest.raises(
        NonFiniteMatrixError, match="non-finite parameter point"
    ):
        scan(dimer(), PH, ScanConfig(grid={"gamma": (0, float("inf"), 11)}))


def scaled(f, c):
    return MatrixFamily(f.dim, f.num_params, tuple((c * M, e) for M, e in f.terms),
                        f.param_names)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e-300, 1e120, 1e300])
def test_identity_check_is_scale_invariant(c):
    # each sample is checked times its own power of two; unscaled, 1e120
    # raised OverflowError from the norm powers, and at 1e300 the
    # overflowing components made NaN violations that passed as 0.0
    ref = class_identity_check(trimer(), PH)
    report = class_identity_check(scaled(trimer(), c), PH)
    assert report.passed and report.worst_violation <= 1e-12
    assert ref.passed and ref.worst_violation <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_family_values_raise():
    with pytest.raises(NonFiniteMatrixError, match="sampled points"):
        class_identity_check(scaled(trimer(), 1e308), PH)
    with pytest.raises(NonFiniteMatrixError, match="overflow on the grid"):
        scan(trimer(), PH, ScanConfig(grid={"gamma": (0, 1e300, 5)}, fixed={"k": 1.0}))
    # eigenvalues near +-1e308: finite, but their spread is not
    with pytest.raises(RuntimeError, match="spread overflows"):
        splitting_exponent(scaled(dimer(), 1e308), [0.0], [1.0])


def test_codimension_invariant_is_checked(monkeypatch):
    from nhsim import epfinder

    monkeypatch.setitem(epfinder.EXPECTED_CODIMENSION, PH, lambda n: n)
    with pytest.raises(RuntimeError, match="internal error"):
        epfinder._build_system(trimer(), PH)


def test_certify_order_examples():
    cert = certify_order(np.array([[1j, 1], [1, -1j]]))
    assert cert.order == 2 and cert.single_block
    assert [b.size for b in cert.blocks] == [2]
    cert = certify_order(trimer().evaluate([np.sqrt(2), 1.0]))
    assert cert.order == 3 and cert.single_block
    assert cert.geometric_multiplicity == 1
    cert = certify_order(np.zeros((2, 2)))
    assert cert.order == 1 and cert.geometric_multiplicity == 2
    assert not cert.single_block
    assert [(b.eigenvalue, b.size) for b in cert.blocks] == [(0, 1), (0, 1)]


def test_certify_order_block_sizes_from_staircase():
    # nilpotent blocks 3 + 1 at zero next to a simple eigenvalue at 5
    H = np.zeros((5, 5), dtype=complex)
    H[0, 1] = H[1, 2] = 1.0
    H[4, 4] = 5.0
    V = np.random.default_rng(7).standard_normal((5, 5))
    cert = certify_order(V @ H @ np.linalg.inv(V))
    assert cert.order == 3 and cert.cluster_size == 4
    assert cert.geometric_multiplicity == 2 and not cert.single_block
    assert [b.size for b in cert.blocks] == [3, 1]
    # no eigenvalue at zero: no blocks
    cert = certify_order(np.diag([1.0, -1.0]))
    assert (cert.order, cert.cluster_size, cert.blocks) == (1, 0, ())


def test_certify_order_near_trimer_ep3_sweep():
    # trimer eigenvalues are 0 and +-d at gamma = sqrt(2 - d^2), k = 1; the
    # pair +-d lies inside the adapted radius for small d, outside it for
    # large d, and next to it in between; every point gets a certificate
    f = trimer()
    bad = []
    for d in np.linspace(0.001, 0.05, 200):
        cert = certify_order(f.evaluate([np.sqrt(2 - d**2), 1.0]))
        if (cert.order, cert.cluster_size, cert.single_block) != (1, 1, True):
            bad.append((d, cert.order, cert.cluster_size))
    assert not bad
    cert = certify_order(f.evaluate([np.sqrt(2), 1.0]))
    assert (cert.order, cert.cluster_size, cert.geometric_multiplicity) == (3, 3, 1)


# the Jordan patterns of the classify-ep benchmark workload, written out
JORDAN_PATTERNS = (
    (2,), (3,), (4,), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (4, 4),
    (2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 3, 2), (2, 2, 2, 2),
)


def haar_unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def jordan_conjugate(rng, pattern):
    """The blocks of ``pattern`` at one random complex eigenvalue,
    conjugated by a Haar unitary."""
    n = sum(pattern)
    eig = complex(*rng.uniform(-2.0, 2.0, 2))
    J = eig * np.eye(n, dtype=complex)
    pos = 0
    for m in pattern:
        J[pos : pos + m - 1, pos + 1 : pos + m] += np.eye(m - 1)
        pos += m
    U = haar_unitary(rng, n)
    return U @ J @ dagger(U)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("pattern", JORDAN_PATTERNS, ids=str)
def test_certify_order_reads_every_jordan_pattern(pattern, seed):
    # default tolerances; the order-adaptive radius takes in the whole
    # spread of every block, up to 4x4
    cert = certify_order(jordan_conjugate(np.random.default_rng(seed), pattern))
    got = ([b.size for b in cert.blocks], cert.order, cert.geometric_multiplicity)
    assert got == (list(pattern), pattern[0], len(pattern))


def test_certify_order_reads_one_block_of_size_3():
    # the trimer EP3 and unitary conjugates of the nilpotent 3x3 block: one
    # block of order 3, not three simple eigenvalues ~1e-5 apart
    N3 = np.diag([1.0, 1.0], 1).astype(complex)
    rng = np.random.default_rng(11)
    cases = [trimer().evaluate([np.sqrt(2), 1.0])]
    cases += [U @ N3 @ dagger(U) for U in (haar_unitary(rng, 3) for _ in range(5))]
    for H in cases:
        cert = certify_order(H)
        assert ([b.size for b in cert.blocks], cert.order) == ([3], 3)
        assert cert.geometric_multiplicity == 1 and cert.single_block


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
def test_certify_order_at_extreme_scales(c):
    # beyond about 1e+-154 |H~|_F, and with it the cluster radius, overflows
    # or underflows unless each matrix is rescaled
    def fields(cert):
        return (cert.order, cert.cluster_size, cert.geometric_multiplicity,
                cert.single_block, [b.size for b in cert.blocks])

    ep3 = trimer().evaluate([np.sqrt(2), 1.0])
    simple = np.diag([1.0, 0.0, -1.0]) + np.diag([1.0, 1.0], 1)
    assert fields(certify_order(ep3)) == (3, 3, 1, True, [3])
    assert fields(certify_order(simple)) == (1, 1, 1, True, [1])
    for H in (ep3, simple):
        assert fields(certify_order(c * H)) == fields(certify_order(H))
        # each matrix of a stack is rescaled on its own
        pair = _certify_many(np.stack([c * H, H]), DEFAULT_TOLERANCES, 1e-10)
        assert pair[1] == certify_order(H)
        assert fields(pair[0]) == fields(pair[1])


def test_scan_candidates_carry_zero_cluster_blocks():
    cfg = ScanConfig(grid={"gamma": (0, 3, 101)}, fixed={"k": 1.0})
    cand = [c for c in scan(trimer(), PH, cfg) if c.converged][0]
    cert = certify_order(trimer().evaluate(cand.lam))
    assert [b.size for b in cand.blocks] == [3]
    assert cand.blocks == cert.blocks


def test_certify_order_json():
    doc = certify_order(np.array([[1j, 1], [1, -1j]])).to_json()
    assert doc["order"] == 2
    assert doc["single_block"] is True


def test_splitting_exponent_dimer():
    p = splitting_exponent(dimer(), [1.0], [1.0])
    assert 0.45 <= p <= 0.55


def test_splitting_exponent_crossing_is_linear():
    f = MatrixFamily(2, 1, ((SZ, (1,)),), ("lam",))
    p = splitting_exponent(f, [0.0], [1.0])
    assert 0.9 <= p <= 1.1


@pytest.mark.parametrize("lam, direction, m", [
    ([np.sqrt(2), 1.0], [1.0, 0.0], None),
    ([np.sqrt(2), 1.0], [0.3, -1.0], 2),
    ([1.2, 0.7], [1.0, 1.0], 2),
])
def test_splitting_exponent_matches_per_point_reference(lam, direction, m):
    f = trimer()
    lam, direction = np.array(lam), np.array(direction)
    H0 = f.evaluate(lam)
    scale = np.linalg.norm(H0 - (np.trace(H0) / 3) * np.eye(3))
    ts, diams = [], []
    for t in np.logspace(-9, -3, 12):
        H = f.evaluate(lam + t * direction)
        vals = eigenvalues(H - (np.trace(H) / 3) * np.eye(3)).values
        vals = vals[np.argsort(np.abs(vals))][: m or 3]
        diam = float(np.max(np.abs(vals[:, None] - vals[None, :])))
        if diam > 1e-12 * scale:
            ts.append(t)
            diams.append(diam)
    ref = float(np.polyfit(np.log(ts), np.log(diams), 1)[0])
    assert splitting_exponent(f, lam, direction, cluster_size=m) == ref


def test_splitting_exponent_degenerate_ray():
    # constant family: spread identically zero along any ray
    f = constant_family(np.array([[0, 1], [0, 0]]))
    with pytest.raises(RuntimeError, match="noise floor"):
        splitting_exponent(f, [0.0], [1.0])
    with pytest.raises(ValueError):
        splitting_exponent(dimer(), [1.0], [0.0])


@pytest.mark.parametrize("name, value", [
    ("steps", 3), ("steps", 0), ("steps", 6.0), ("steps", True),
    ("t_range", (0.0, 1e-3)), ("t_range", (1e-9, -1e-3)), ("t_range", (np.nan, 1e-3)),
    ("t_range", (1e-9, np.inf)),
    ("cluster_size", -1), ("cluster_size", 0), ("cluster_size", 4), ("cluster_size", 5),
    ("cluster_size", 2.0),
])
def test_splitting_exponent_rejects_bad_arguments(name, value):
    # steps < 4 read as a spread below the noise floor, a bad t_range as a
    # non-finite parameter point, and cluster_size -1 dropped the farthest
    # eigenvalue while 5 took all three
    with pytest.raises(ValueError, match=name):
        splitting_exponent(trimer(), [np.sqrt(2), 1.0], [1.0, 0.5], **{name: value})


def test_splitting_exponent_accepts_every_cluster_size():
    lam, direction = [np.sqrt(2), 1.0], [1.0, 0.5]
    whole = splitting_exponent(trimer(), lam, direction)
    assert splitting_exponent(trimer(), lam, direction, cluster_size=3) == whole
    assert abs(whole - 0.5) < 1e-3
    assert splitting_exponent(trimer(), lam, direction, cluster_size=np.int64(2)) == \
        splitting_exponent(trimer(), lam, direction, cluster_size=2)
    # one eigenvalue has no spread; the CLI reports this error for a
    # cluster of one
    with pytest.raises(RuntimeError, match="noise floor"):
        splitting_exponent(trimer(), lam, direction, cluster_size=1)
    assert splitting_exponent(trimer(), lam, direction, steps=4,
                              t_range=(1e-6, 1e-3)) > 0


def test_splitting_exponent_generic_ep3_third_root():
    # EP3 perturbed by a direction that breaks the family structure: add a
    # constant-matrix knob and verify the 1/3 branch-point scaling
    E = np.eye(3)
    K = (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
         + np.outer(E[1], E[2]) + np.outer(E[2], E[1])).astype(complex)
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    rng = np.random.default_rng(3)
    P = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = MatrixFamily(
        3, 2, ((K, (0, 0)), (D, (1, 0)), (P, (0, 1))), ("gamma", "mu")
    )
    p = splitting_exponent(f, [np.sqrt(2), 0.0], [0.0, 1.0])
    assert 0.28 <= p <= 0.38


def test_line_search_evaluates_halvings_only_where_the_full_step_fails():
    # g(x) = (x1^2 - 1, x2 - 2): the full step lowers |g| from seeds near
    # the root; from x1 = 0.05 it overshoots to x1 ~ 10 and needs halving
    calls = []

    def g_many(pts):
        calls.append(len(pts))
        return np.stack([pts[:, 0] ** 2 - 1.0, pts[:, 1] - 2.0], axis=1)

    seeds = np.array([[1.5, 0.0], [0.8, 3.0], [0.05, 2.0]])
    x, nrm, its, ok = _gauss_newton(g_many, seeds, 1, 1e-12)
    # seeds, 2d Jacobian points each, the three full steps, then 19
    # halvings for the one seed whose full step did not lower the norm
    assert calls == [3, 12, 3, 19]
    assert np.all(nrm < np.linalg.norm(g_many(seeds), axis=1))


# The helpers below reproduce numpy's bytes by other routes; these tests pin
# them, so that a numpy version that sums or solves differently fails here.

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324,
                    -2.5e-310, 1.0, -1.0, 3.0])


def special_stack(rng, N, n):
    """Complex ``(N, n, n)`` stack: normals over many decades, with a third
    of the real and imaginary parts drawn from ``SPECIAL``."""
    parts = rng.standard_normal((2, N, n, n)) * 10.0 ** rng.integers(-8, 9, (2, N, n, n))
    special = rng.random((2, N, n, n)) < 1 / 3
    parts[special] = rng.choice(SPECIAL, special.sum())
    return parts[0] + 1j * parts[1]


def assert_same_or_both_nan(got, want):
    got, want = np.atleast_1d(got).view(float), np.atleast_1d(want).view(float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_trace_matches_numpy(n):
    rng = np.random.default_rng(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for A in (rng.standard_normal((400, n, n)) * 10.0 ** rng.integers(
                      -12, 13, (400, n, n)) + 0j,
                  special_stack(rng, 2000, n),
                  np.full((3, n, n), -0.0 - 0.0j)):
            assert_same_or_both_nan(_trace(A), np.trace(A, axis1=1, axis2=2))
            assert_same_or_both_nan(_trace(A[0]), np.trace(A[0]))
        if n in (2, 3):
            # the word traces: (m, words, n, n) stacked products, whole or
            # as a strided view of some of the products
            P = special_stack(rng, 400, n).reshape(20, 20, n, n)
            P = P @ P.conj().swapaxes(-1, -2)
            for view in (P, P[:, 1:7], P[:, [3, 1, 1, 8]]):
                got, want = _trace(view), np.trace(view, axis1=-2, axis2=-1)
                assert_same_or_both_nan(*map(np.ascontiguousarray, (got, want)))
    # an all -0 diagonal sums to +0, as numpy's does
    assert not np.signbit(_trace(np.full((3, n, n), -0.0 - 0.0j)).view(float)).any()


LSTSQ_SHAPES = [(2, 2), (1, 2), (3, 2), (2, 3), (4, 1), (1, 1)]


@pytest.mark.parametrize("k, d", LSTSQ_SHAPES)
def test_stacked_lstsq_matches_numpy(k, d):
    rng = np.random.default_rng(10 * k + d)
    J = rng.standard_normal((300, k, d))
    b = rng.standard_normal((300, k))
    J[0::5, :, -1] = J[0::5, :, 0]          # rank deficient when d > 1
    J[1::5] *= 1e-300
    b[2::5] *= 1e-300
    J[3::25] = 0.0
    if min(k, d) > 1:
        # singular values 1 and 2.5 eps: numpy's rcond = eps * max(k, d)
        # cuts the second one, eps * min(k, d) would keep it
        J[6::25] = 0.0
        J[6::25, 0, 0] = 1.0
        J[6::25, 1, 1] = 2.5 * np.finfo(float).eps
    want = np.array([np.linalg.lstsq(Ji, bi, rcond=None)[0] for Ji, bi in zip(J, b)])
    got = _lapack.lstsq(J, b)
    assert got.shape == (300, d)
    assert got.tobytes() == want.tobytes()
    # a transposed view, the layout constraint_jacobians returns
    Jt = np.ascontiguousarray(J.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert _lapack.lstsq(Jt, b).tobytes() == want.tobytes()


def test_stacked_lstsq_raises_on_nan_like_numpy():
    J = np.random.default_rng(0).standard_normal((4, 2, 2))
    J[2, 0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(J[2], np.ones(2), rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.lstsq(J, np.ones((4, 2)))


@pytest.mark.parametrize("n", range(1, 13))
def test_cluster_means_match_numpy(n):
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
    vals *= 10.0 ** rng.integers(-6, 7, vals.shape)
    vals[rng.random(vals.shape) < 0.1] = -0.0 - 0.0j
    vals[rng.random(vals.shape) < 0.1] = complex(-0.0, 1.0)
    member = rng.random((1000, n)) < rng.random((1000, 1))
    member[:5] = False
    member[5:10] = True
    sizes = member.sum(axis=1)
    want = [complex(np.mean(v[z])) if z.any() else 0j for v, z in zip(vals, member)]
    assert _cluster_means(vals, member, sizes).tobytes() == np.array(want).tobytes()
