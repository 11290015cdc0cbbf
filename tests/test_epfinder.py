import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nhsim.classes import CLASS_MAP, SimilarityClass, generate_random
from nhsim.epfinder import (
    ScanConfig,
    _certify_many,
    _gauss_newton,
    _local_minima,
    _row_norms,
    certify_order,
    class_identity_check,
    reduced_constraints,
    scan,
    splitting_exponent,
)
from nhsim.errors import FamilyNotInClassError, NonFiniteMatrixError
from nhsim.families import MatrixFamily, constraint_jacobian, constraint_jacobians
from nhsim.spectral import DEFAULT_TOLERANCES, SYMMETRY_MAPS, eigenvalues, is_normal

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
    # reference pairs each sampled spectrum by its own assignment
    f = family()
    fmap = SYMMETRY_MAPS[CLASS_MAP[cls]]
    lams = np.random.default_rng(0).uniform(-2.0, 2.0, size=(100, f.num_params))
    worst = 0.0
    for lam in lams:
        H = f.evaluate(lam)
        vals = eigenvalues(H).values
        dist = np.abs(vals[:, None] - fmap(vals)[None, :])
        rows, cols = linear_sum_assignment(dist)
        worst = max(worst, float(dist[rows, cols].max()) / max(np.linalg.norm(H), 1.0))
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
    with pytest.raises(ValueError, match="bad grid"):
        scan(dimer(), PH, ScanConfig(grid={"gamma": (2, -2, 11)}))


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


def test_evaluate_many_chunking_is_invisible(monkeypatch):
    from nhsim import epfinder

    cs = reduced_constraints(cubic_family(), PH)
    pts = np.random.default_rng(3).uniform(-2, 2, size=(50, 3))
    whole = cs.evaluate_many(pts)
    monkeypatch.setattr(epfinder, "_CHUNK", 7)
    assert cs.evaluate_many(pts).tobytes() == whole.tobytes()


def test_batched_jacobian_bit_exact():
    f = cubic_family()
    cs = reduced_constraints(f, PH)
    pts = np.random.default_rng(4).uniform(-2, 2, size=(20, 3))
    for p, b in zip(pts, constraint_jacobians(cs.evaluate_many, pts)):
        a = constraint_jacobian(cs.evaluate, p)
        assert a.shape == (3, 3)
        assert a.tobytes() == b.tobytes()


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
             for idx in _local_minima(norms.reshape(mesh[0].shape), cfg.seed_threshold)]
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


@pytest.mark.parametrize("family, cfg, reasons, merges", [
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
], ids=["dimer", "dimer-max-iterations", "trimer", "trimer-line-search",
        "trimer-merge", "cubic", "cubic-max-iterations"])
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


@pytest.mark.parametrize("cls", list(SimilarityClass))
def test_one_by_one_family_has_no_constraint_system(cls):
    f = MatrixFamily(1, 1, ((np.ones((1, 1), dtype=complex), (1,)),), ("a",))
    with pytest.raises(ValueError, match="one eigenvalue cannot coalesce"):
        reduced_constraints(f, cls)
    with pytest.raises(ValueError, match="one eigenvalue cannot coalesce"):
        scan(f, cls, ScanConfig(grid={"a": (-1, 1, 11)}))


@pytest.mark.parametrize("field, value", [
    ("tol", np.nan), ("tol", np.inf), ("tol", -1e-10),
    ("max_iterations", -3), ("seed_threshold", np.nan),
])
def test_scan_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        ScanConfig(grid={"gamma": (0, 3, 11)}, **{field: value})
    ScanConfig(grid={"gamma": (0, 3, 11)}, tol=0.0, max_iterations=0,
               seed_threshold=np.inf)


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
    scale = max(np.linalg.norm(H0 - (np.trace(H0) / 3) * np.eye(3)), 1.0)
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
