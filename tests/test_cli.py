import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nhsim import cli
from nhsim.classes import SimilarityClass, classify, generate_random
from nhsim.cli import main
from nhsim.epfinder import ScanConfig, scan
from nhsim.errors import ClassMismatchError
from nhsim.families import parse_family
from nhsim.specht import (
    CLASS_SYMMETRIES,
    check_similarity_implies_symmetry_2x2,
    mapped_target,
    unitary_similarity_test,
)
from nhsim.spectral import ToleranceConfig

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def mat_doc(M):
    M = np.asarray(M, dtype=complex)
    return {
        "dim": M.shape[0],
        "entries": [[[c.real, c.imag] for c in row] for row in M],
    }


@pytest.fixture()
def dimer_at_1(tmp_path):
    p = tmp_path / "dimer_at_1.json"
    p.write_text(json.dumps(mat_doc([[1j, 1], [1, -1j]])))
    return str(p)


@pytest.fixture()
def dimer_family(tmp_path):
    doc = {
        "dim": 2,
        "params": 1,
        "param_names": ["gamma"],
        "terms": [
            {"matrix": mat_doc(SX), "exponents": [0]},
            {"matrix": mat_doc(1j * SZ), "exponents": [1]},
        ],
    }
    p = tmp_path / "dimer.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture()
def trimer_family(tmp_path):
    E = np.eye(3)
    K = (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
         + np.outer(E[1], E[2]) + np.outer(E[2], E[1]))
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    doc = {
        "dim": 3,
        "params": 2,
        "param_names": ["gamma", "k"],
        "terms": [
            {"matrix": mat_doc(K), "exponents": [0, 1]},
            {"matrix": mat_doc(D), "exponents": [1, 0]},
        ],
    }
    p = tmp_path / "trimer.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_dimer_at_1(capsys, dimer_at_1):
    code, out, _ = run(capsys, "classify", dimer_at_1)
    assert code == 0
    doc = json.loads(out)
    assert "Chiral" in doc["classes"]
    assert doc["witnesses"]["Chiral"]["residual"] <= 1e-10


def test_classify_special_cases_at_extreme_scales(capsys, tmp_path):
    rng = np.random.default_rng(3)
    H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = tmp_path / "m.json"
    for c in (1.0, 1e-300, 1e300):
        p.write_text(json.dumps(mat_doc(c * H)))
        code, out, _ = run(capsys, "classify", str(p))
        assert code == 0 and json.loads(out)["special_cases"] == [], c


def test_witness_command(capsys, dimer_at_1):
    code, out, _ = run(capsys, "witness", dimer_at_1, "--class", "chiral")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "Chiral"
    assert doc["residual"] <= 1e-10
    assert doc["transform"]["dim"] == 2


def test_generate_classify_pipeline(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "generate", "--class", "pseudo-hermitian", "--dim", "3",
        "--seed", "7",
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode())))
    code, out2, _ = run(capsys, "classify", "-")
    assert code == 0
    assert "PseudoHermitian" in json.loads(out2)["classes"]


def test_generate_deterministic_byte_identical(capsys):
    _, a, _ = run(capsys, "generate", "--class", "chiral", "--dim", "4",
                  "--seed", "3")
    _, b, _ = run(capsys, "generate", "--class", "chiral", "--dim", "4",
                  "--seed", "3")
    assert a == b


@pytest.mark.parametrize("cls, entry", [
    ("pseudo-hermitian", [0.1257302210933933, 0.0]),
    ("chiral", [0.0, 0.1257302210933933]),
    ("self-skew", [0.0, 0.0]),
])
def test_generate_non_normal_one_by_one_exits_2(capsys, cls, entry):
    code, out, err = run(capsys, "generate", "--class", cls, "--dim", "1",
                         "--seed", "0", "--non-normal")
    assert code == 2 and out == ""
    assert err == ("error: a 1x1 matrix is always normal; a non-normal sample "
                   "needs n >= 2\n")
    code, out, _ = run(capsys, "generate", "--class", cls, "--dim", "1", "--seed", "0")
    assert code == 0
    assert out == json.dumps({"dim": 1, "entries": [[entry]]}) + "\n"


@pytest.mark.parametrize("cls, dim", [("chiral", "2"), ("pseudo-hermitian", "3"),
                                      ("self-skew", "1")])
def test_generate_names_a_negative_seed(capsys, cls, dim):
    code, out, err = run(capsys, "generate", "--class", cls, "--dim", dim, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")


def test_generate_non_normal_one_by_one_prints_no_traceback():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "nhsim.cli", "generate", "--class", "chiral",
         "--dim", "1", "--seed", "0", "--non-normal"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_generate_output_round_trips(capsys):
    _, out, _ = run(capsys, "generate", "--class", "self-skew", "--dim", "3",
                    "--seed", "1")
    doc = json.loads(out)
    # floats survive the round trip exactly (shortest-repr serialization)
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def test_specht_command(capsys, dimer_at_1):
    code, out, _ = run(capsys, "specht", dimer_at_1, dimer_at_1)
    assert code == 0
    doc = json.loads(out)
    assert doc["unitarily_similar"] is True
    assert len(doc["traces"]) == 3
    assert doc["traces"][0]["word"] == "X"


def test_specht_csv_output(capsys, dimer_at_1):
    code, out, _ = run(capsys, "specht", dimer_at_1, dimer_at_1,
                       "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("word,")
    assert len(lines) == 4


G = np.array([[1, 2], [3, 4j]])


@pytest.mark.parametrize("c", [1e160, 1e300])
def test_specht_overflowing_traces_exit_2(capsys, tmp_path, c):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(mat_doc(c * G)))
    b.write_text(json.dumps(mat_doc(np.conj(c * G))))
    for output in ("json", "csv"):
        code, out, err = run(capsys, "specht", str(a), str(b), "--output", output)
        assert code == 2 and out == "", output
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("c", [1e-300, 1e-9])
def test_specht_tolerance_is_relative(capsys, tmp_path, c):
    # tr X differs by 8c: a mismatch at every scale, not only above 1e-8
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(mat_doc(c * G)))
    b.write_text(json.dumps(mat_doc(np.conj(c * G))))
    code, out, _ = run(capsys, "specht", str(a), str(b))
    assert code == 0
    doc = json.loads(out)
    assert doc["unitarily_similar"] is False
    assert doc["traces"][0]["match"] is False
    b.write_text(json.dumps(mat_doc((c * G).T)))
    code, out, _ = run(capsys, "specht", str(a), str(b))
    assert code == 0 and json.loads(out)["unitarily_similar"] is True


def test_specht_underflowing_difference_exits_2(capsys, tmp_path):
    # XX mismatches (traces 2c^2 and -2c^2), but c^2 prints as 0.0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(mat_doc(1e-300 * SZ)))
    b.write_text(json.dumps(mat_doc(1e-300j * SZ)))
    for output in ("json", "csv"):
        code, out, err = run(capsys, "specht", str(a), str(b), "--output", output)
        assert code == 2 and out == "", output
        assert err == "error: word traces underflow; rescale the matrices\n"


def test_specht_generators_3x3_overflowing_traces_exit_2(capsys, tmp_path):
    _, gen, _ = run(capsys, "generate", "--class", "chiral", "--dim", "3",
                    "--seed", "5", "--non-normal")
    entries = json.loads(gen)["entries"]
    H = 1e200 * np.array([[complex(*z) for z in row] for row in entries])
    p = tmp_path / "m.json"
    p.write_text(json.dumps(mat_doc(H)))
    code, out, err = run(capsys, "specht-generators", str(p), "--class", "chiral")
    assert code == 2 and out == "" and "overflow" in err


@pytest.mark.parametrize("n", [1, 4])
def test_unsupported_dimensions_exit_2(capsys, tmp_path, monkeypatch, n):
    # the word lists cover n = 2 and 3: any other n is an input error, found
    # before classify runs
    p = tmp_path / "m.json"
    p.write_text(json.dumps(mat_doc(np.eye(n))))
    monkeypatch.setattr(cli, "classify", lambda *args: pytest.fail("classify ran"))
    words = f"error: word lists are only available for n in (2, 3), got {n}\n"
    generators = "error: generator analysis covers n = 2 (recovery) and n = 3 (evidence)\n"
    for argv, err in ((("specht", str(p), str(p)), words),
                      (("specht", str(p), str(p), "--output", "csv"), words),
                      (("specht-generators", str(p)), generators),
                      (("specht-generators", str(p), "--class", "chiral"), generators)):
        assert run(capsys, *argv) == (2, "", err), argv


def test_specht_generators_2x2(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(mat_doc([[0, 1], [4, 0]])))
    code, out, _ = run(capsys, "specht-generators", str(p),
                       "--class", "pseudo-hermitian")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "generators"
    results = doc["results"]["PseudoHermitian"]
    assert results["PT"]["property_defect"] <= 1e-8


def test_specht_generators_lists_every_confirmed_class(capsys, tmp_path):
    # near the class boundaries: members plus relative noise.  Without --class
    # the classes are those classify confirms, and the command does not decide
    # their membership again, by a test that may disagree at the boundary
    p = tmp_path / "m.json"
    listed = 0
    for cls in SimilarityClass:
        for seed in range(8):
            H0 = generate_random(cls, 2, seed, non_normal=bool(seed % 2))
            E = np.random.default_rng(seed).standard_normal((2, 2, 2)) @ [1, 1j]
            for delta in (1e-9, 1e-8, 1e-7):
                H = H0 + delta * np.linalg.norm(H0) * E / np.linalg.norm(E)
                confirmed = sorted(c.value for c in classify(H).confirmed)
                p.write_text(json.dumps(mat_doc(H)))
                code, out, err = run(capsys, "specht-generators", str(p))
                if not confirmed:
                    assert code == 1 and "not confirmed" in err
                    continue
                assert code == 0, (cls, seed, delta, err)
                assert sorted(json.loads(out)["results"]) == confirmed
                listed += 1
    assert listed >= 36


def test_specht_generators_3x3_evidence(capsys, monkeypatch):
    _, gen, _ = run(capsys, "generate", "--class", "chiral", "--dim", "3",
                    "--seed", "5", "--non-normal")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(gen.encode())))
    code, out, _ = run(capsys, "specht-generators", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "counterexample-evidence"
    evidence = doc["results"]["Chiral"]
    assert any(e["mismatch"] > 1e-6 for e in evidence)


AGREEMENT_SCALES = (1.0, 2.0**600, 2.0**-600)
UNPRINTABLE = {"error: word traces overflow; rescale the matrices\n",
               "error: word traces underflow; rescale the matrices\n"}


def _agreement_pairs(n):
    """Unitarily similar and dissimilar pairs, and class members against their
    mapped targets, at every scale of ``AGREEMENT_SCALES``."""
    rng = np.random.default_rng(40 + n)
    pairs = []
    for seed in range(4):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        pairs += [(A, U @ A @ U.conj().T), (A, A.T), (A, A.conj()),
                  (A, rng.standard_normal((n, n)))]
        for cls in SimilarityClass:
            H = generate_random(cls, n, seed, non_normal=True)
            pairs += [(H, mapped_target(H, s)) for s in CLASS_SYMMETRIES[cls]]
    return [(c * A, c * B) for A, B in pairs for c in AGREEMENT_SCALES]


def _printed_differences_are_python_abs(rows, lhs, rhs, diff):
    for r in rows:
        ta, tb = complex(*r[lhs]), complex(*r[rhs])
        assert r[diff] == abs(ta - tb), r


@pytest.mark.parametrize("n", [2, 3])
def test_specht_command_agrees_with_the_library(capsys, tmp_path, n):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    printed = {True: 0, False: 0}
    for i, (A, B) in enumerate(_agreement_pairs(n)):
        a.write_text(json.dumps(mat_doc(A)))
        b.write_text(json.dumps(mat_doc(B)))
        code, out, err = run(capsys, "specht", str(a), str(b))
        _, csv, csv_err = run(capsys, "specht", str(a), str(b), "--output", "csv")
        if code == 2:
            assert err in UNPRINTABLE and csv == "" and csv_err == err, i
            continue
        assert code == 0, (i, err)
        doc = json.loads(out)
        verdict = unitary_similarity_test(A, B)
        assert doc["unitarily_similar"] is verdict, i
        assert all(r["match"] for r in doc["traces"]) is verdict, i
        _printed_differences_are_python_abs(doc["traces"], "trace_a", "trace_b",
                                            "difference")
        rows = [line.split(",") for line in csv.splitlines()[1:]]
        assert [float(r[5]) for r in rows] == [r["difference"] for r in doc["traces"]]
        printed[verdict] += 1
    assert min(printed.values()) >= 8, printed


def test_specht_generators_class_check_agrees_with_the_library(capsys, tmp_path):
    p = tmp_path / "m.json"
    exits = {0: 0, 1: 0}
    for i, (H, _) in enumerate(_agreement_pairs(2)):
        p.write_text(json.dumps(mat_doc(H)))
        for cls in SimilarityClass:
            code, out, err = run(capsys, "specht-generators", str(p), "--class", cls.value)
            try:
                check_similarity_implies_symmetry_2x2(H, cls)
                member = True
            except ClassMismatchError:
                member = False
            assert code == (0 if member else 1), (i, cls, err)
            exits[code] += 1
    assert min(exits.values()) >= 50, exits


def test_specht_generators_evidence_prints_python_abs(capsys, tmp_path):
    p = tmp_path / "m.json"
    rows = 0
    for i, (H, _) in enumerate(_agreement_pairs(3)):
        p.write_text(json.dumps(mat_doc(H)))
        for cls in SimilarityClass:
            code, out, err = run(capsys, "specht-generators", str(p), "--class", cls.value)
            if code == 2:
                assert err in UNPRINTABLE, i
                continue
            assert code == 0, (i, err)
            evidence = json.loads(out)["results"][cls.value]
            _printed_differences_are_python_abs(evidence, "trace_lhs", "trace_rhs",
                                                "mismatch")
            rows += len(evidence)
    assert rows >= 100, rows


def test_scan_trimer_jsonl(capsys, trimer_family):
    code, out, _ = run(
        capsys, "scan", trimer_family, "--class", "pseudo-hermitian",
        "--grid", "gamma=0:3:101", "--fix", "k=1",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    hits = [r for r in rows if r["converged"]]
    assert len(hits) == 1
    assert abs(hits[0]["lam"][0] - 1.41421356) <= 1e-6
    assert hits[0]["order"] == 3


def test_scan_accepts_a_plane_of_ep3s(capsys, tmp_path):
    # a H_EP3 + b I, H_EP3 the trimer at its EP3: every point with a != 0 is
    # an EP3, pseudo-Hermitian with real a and b, and the class check must
    # not read the rounding spread of the triple eigenvalue as a violation
    E = np.eye(3)
    K = (np.outer(E[0], E[1]) + np.outer(E[1], E[0])
         + np.outer(E[1], E[2]) + np.outer(E[2], E[1]))
    D = 1j * (np.outer(E[0], E[0]) - np.outer(E[2], E[2]))
    doc = {"dim": 3, "params": 2, "param_names": ["a", "b"], "terms": [
        {"matrix": mat_doc(K + np.sqrt(2) * D), "exponents": [1, 0]},
        {"matrix": mat_doc(np.eye(3)), "exponents": [0, 1]},
    ]}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "scan", str(path), "--class", "pseudo-hermitian",
                         "--grid", "a=-1:1:5", "--grid", "b=-1:1:5")
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["converged"] for r in rows)


def test_scan_csv(capsys, dimer_family):
    code, out, _ = run(
        capsys, "scan", dimer_family, "--class", "pseudo-hermitian",
        "--grid", "gamma=-2:2:101", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "gamma"
    assert len(lines) == 3  # header + two roots


@pytest.fixture()
def hermitian_family(tmp_path):
    doc = {
        "dim": 2,
        "params": 1,
        "param_names": ["lam"],
        "terms": [
            {"matrix": mat_doc(SZ), "exponents": [0]},
            {"matrix": mat_doc(SX), "exponents": [1]},
        ],
    }
    p = tmp_path / "hermitian.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("family, grid, extra, count", [
    # one seed at lam = 0, where the constraint norm is 1: the threshold drops it
    ("hermitian_family", {"lam": (-2.0, 2.0, 101)}, ["--seed-threshold", "0.5"], 0),
    ("dimer_family", {"gamma": (0.0, 2.0, 101)}, [], 1),
    ("trimer_family", {"gamma": (0.0, 3.0, 31), "k": (0.2, 1.5, 21)}, [], 19),
])
def test_scan_jsonl_is_one_sorted_dump_per_candidate(capsys, request, family, grid,
                                                     extra, count):
    path = request.getfixturevalue(family)
    specs = [f"--grid={nm}={lo!r}:{hi!r}:{pts}" for nm, (lo, hi, pts) in grid.items()]
    code, out, err = run(capsys, "scan", path, "--class", "pseudo-hermitian",
                         *specs, *extra)
    assert code == 0 and err == ""
    with open(path, "rb") as fh:
        fam = parse_family(fh.read())
    threshold = float(extra[1]) if extra else None
    cfg = ScanConfig(grid=grid, seed_threshold=threshold, tolerances=ToleranceConfig(1e-8))
    cands = scan(fam, SimilarityClass.PSEUDO_HERMITIAN, cfg)
    assert len(cands) == count
    # no candidates print nothing, not an empty line
    assert out == "".join(json.dumps(c.to_json(), sort_keys=True) + "\n"
                          for c in cands)


def test_emit_prints_the_sorted_dump_of_each_document(capsys, trimer_family):
    # one encoder serves every document: its text is json.dumps(doc,
    # sort_keys=True) on the scan and the certify documents
    fam = parse_family(Path(trimer_family).read_bytes())
    cfg = ScanConfig(grid={"gamma": (0.0, 3.0, 31), "k": (0.2, 1.5, 21)})
    docs = [c.to_json() for c in scan(fam, SimilarityClass.PSEUDO_HERMITIAN, cfg)]
    code, out, _ = run(capsys, "certify", trimer_family, "--at", "1.4142135623730951,1")
    assert code == 0
    docs.append(json.loads(out))
    docs.append(dict(docs[-1], splitting_exponent=None,
                     splitting_exponent_error="eigenvalue spread \u2264 noise"))
    assert len(docs) == 21
    cli._emit(*docs)
    assert capsys.readouterr().out == "".join(
        json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
    assert out == json.dumps(docs[-2], sort_keys=True) + "\n"


def test_scan_of_a_zero_parameter_family_names_the_unknown_parameter(capsys, tmp_path):
    # the class identity check reshaped an empty array of monomials and
    # exited 2 with numpy's "cannot reshape array of size 0 into shape (0)"
    path = tmp_path / "f0.json"
    path.write_text(json.dumps({"dim": 2, "params": 0,
                                "terms": [{"matrix": mat_doc(SX), "exponents": []}]}))
    code, out, err = run(capsys, "scan", str(path), "--class", "pseudo-hermitian",
                         "--grid", "x=0:1:3")
    assert (code, out, err) == (2, "", "error: unknown parameters: ['x']\n")


def test_certify_command(capsys, dimer_family):
    code, out, _ = run(capsys, "certify", dimer_family, "--at", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2 and doc["single_block"]
    assert 0.45 <= doc["splitting_exponent"] <= 0.55


def test_scan_with_too_few_parameters_warns_in_one_line(capsys, dimer_family):
    # self-skew at n = 2 has codimension 2; the dimer has one parameter
    code, out, err = run(capsys, "scan", dimer_family, "--class", "self-skew",
                         "--grid", "gamma=0:2:11")
    assert code == 0 and out == ""
    assert err == ("warning: family has 1 parameters but the SelfSkewSimilar "
                   "codimension is 2; no generic solutions exist\n")


def test_certify_near_trimer_ep3_exits_0(capsys, trimer_family):
    # the pair +-0.0261 next to the pinned zero eigenvalue used to abort the
    # certificate with a clustering error (exit 1)
    code, out, err = run(capsys, "certify", trimer_family,
                         "--at", "1.413972410123868,1")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["order"] == 1 and doc["cluster_size"] == 1


@pytest.mark.parametrize("gamma", ["1e160", "1e300"])
def test_certify_far_from_the_ep_exits_0_quietly(capsys, trimer_family, gamma):
    # eigenvalues 0 and about +-i*gamma: the zero cluster is one eigenvalue
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "certify", trimer_family, f"--at={gamma},1")
    assert code == 0 and err == "" and not caught, [str(w.message) for w in caught]
    assert len(out.splitlines()) == 1
    doc = json.loads(out)
    assert (doc["cluster_size"], doc["order"], doc["geometric_multiplicity"]) == (1, 1, 1)


def certify_sweep_points(rng, ratio, params, count):
    """Seeded points ``gamma = ratio * k * (1 +- 10**-u)``, ``u`` in
    ``[1, 15]``, with ``k`` of either sign (``k = 1`` for a one-parameter
    family), and random directions."""
    for _ in range(count):
        k = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0) if params == 2 else 1.0
        u = rng.uniform(1.0, 15.0)
        gamma = ratio * k * (1.0 + rng.choice([-1.0, 1.0]) * 10.0**-u)
        yield [float(gamma), float(k)][:params], rng.uniform(-1.0, 1.0, params).tolist()


@pytest.mark.parametrize("family, ratio, params", [
    ("dimer_family", 1.0, 1),
    ("trimer_family", np.sqrt(2.0), 2),
])
def test_certify_sweep_near_eps_never_exits_1(capsys, request, family, ratio, params):
    # a leading minus reads as an option unless the value is attached with =
    path = request.getfixturevalue(family)
    rng = np.random.default_rng(21)
    for lam, direction in certify_sweep_points(rng, ratio, params, 150):
        at = ",".join(map(repr, lam))
        along = ",".join(map(repr, direction))
        code, out, err = run(capsys, "certify", path, f"--at={at}",
                             f"--direction={along}")
        assert code == 0, (at, along, err)
        doc = json.loads(out)
        assert doc["lam"] == lam and doc["order"] >= 1, (at, along)


def test_certify_reads_negative_values_with_equals(capsys, trimer_family):
    code, _, err = run(capsys, "certify", trimer_family, "--at", "-1.2,0.5")
    assert code == 2 and "--at" in err
    code, out, err = run(capsys, "certify", trimer_family, "--at=-1.2,0.5",
                         "--direction=-0.9,0.4")
    assert code == 0, err
    assert json.loads(out)["lam"] == [-1.2, 0.5]


def test_exit_code_2_on_input_errors(capsys, dimer_family):
    code, _, err = run(capsys, "classify", "/no/such/file.json")
    assert code == 2 and "cannot read" in err
    code, _, err = run(capsys, "scan", dimer_family, "--class", "chiral",
                       "--grid", "oops")
    assert code == 2 and "bad grid" in err
    code, _, err = run(capsys, "certify", dimer_family, "--at", "1,2")
    assert code == 2


def test_exit_code_2_on_malformed_matrix(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"dim\": 2}")
    code, _, err = run(capsys, "classify", str(p))
    assert code == 2 and "entries" in err


def test_impossible_allocation_exits_2(capsys, trimer_family):
    # each array exceeds any 57-bit address space (over 600 PiB), so the
    # allocator refuses it at once, whatever the overcommit policy
    for argv in (["scan", trimer_family, "--class", "pseudo-hermitian",
                  "--grid", "gamma=0:3:5", "--grid", f"k=0:1:{10**17}"],
                 ["generate", "--class", "pseudo-hermitian", "--dim", str(3 * 10**8),
                  "--seed", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_exit_code_1_on_class_mismatch(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(mat_doc(np.diag([1j, 2j]))))
    code, _, err = run(capsys, "witness", str(p), "--class", "pseudo-hermitian")
    assert code == 1 and "symmetry constraint" in err


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_one_parser_serves_every_call(capsys, monkeypatch, tmp_path, dimer_at_1,
                                      trimer_family):
    near_dimer = tmp_path / "near_dimer.json"
    H = np.array([[1j, 1], [1, -1j]]) + 1e-6 * np.diag([1, 2j])
    near_dimer.write_text(json.dumps(mat_doc(H)))
    scan_argv = ["scan", trimer_family, "--class", "pseudo-hermitian",
                 "--grid", "gamma=0:3:31"]
    calls = [
        (None, ["frobnicate"]),
        (None, ["--help"]),
        (None, ["--version"]),
        (None, ["scan", "--help"]),
        (None, scan_argv + ["--fix", "k=1"]),
        (None, scan_argv + ["--grid", "k=0.5:1.5:11"]),
        (None, ["scan", trimer_family, "--grid", "gamma=0:3:31"]),
        (None, ["classify", str(near_dimer)]),
        ("1e-4", ["classify", str(near_dimer)]),
        (None, ["classify", dimer_at_1, "--tol", "1e-6"]),
        (None, ["generate", "--class", "chiral", "--dim", "2", "--seed", "3"]),
    ]

    def call(env, argv):
        if env is None:
            monkeypatch.delenv("NHSIM_TOL", raising=False)
        else:
            monkeypatch.setenv("NHSIM_TOL", env)
        return run(capsys, *argv)

    forward = [call(*c) for c in calls]
    backward = [call(*c) for c in reversed(calls)][::-1]
    assert forward == backward
    assert cli._build_parser() is cli._build_parser()
    codes = [code for code, _, _ in forward]
    assert codes == [2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert "usage: nhsim scan" in forward[3][1]
    # the fixed and the gridded k give different scans, and NHSIM_TOL is
    # read at each call: the loose tolerance confirms the perturbed dimer
    assert forward[4][1] != forward[5][1]
    assert json.loads(forward[7][1])["classes"] == []
    assert "PseudoHermitian" in json.loads(forward[8][1])["classes"]


def test_tol_env_and_flag_precedence(capsys, dimer_at_1, monkeypatch):
    monkeypatch.setenv("NHSIM_TOL", "not-a-number")
    code, _, err = run(capsys, "classify", dimer_at_1)
    assert code == 2 and "NHSIM_TOL" in err
    # flag wins over the broken environment value
    code, out, _ = run(capsys, "classify", dimer_at_1, "--tol", "1e-8")
    assert code == 0
    monkeypatch.setenv("NHSIM_TOL", "1e-6")
    code, out, _ = run(capsys, "classify", dimer_at_1)
    assert code == 0


def test_output_stable_across_runs(capsys, dimer_at_1):
    _, a, _ = run(capsys, "classify", dimer_at_1)
    _, b, _ = run(capsys, "classify", dimer_at_1)
    assert a == b


def test_scan_nonfinite_input_exit_2(capsys, trimer_family):
    code, out, err = run(
        capsys, "scan", trimer_family, "--class", "pseudo-hermitian",
        "--grid", "gamma=0:3:11", "--fix", "k=nan",
    )
    assert code == 2 and out == ""
    assert "non-finite parameter point" in err
    with np.errstate(invalid="ignore"):
        code, out, err = run(
            capsys, "scan", trimer_family, "--class", "pseudo-hermitian",
            "--grid", "gamma=0:inf:11", "--fix", "k=1",
        )
    assert code == 2 and out == ""
    assert "non-finite parameter point" in err


@pytest.fixture()
def point_family(tmp_path):
    doc = {"dim": 1, "params": 1, "param_names": ["a"],
           "terms": [{"matrix": mat_doc([[1.0]]), "exponents": [1]}]}
    p = tmp_path / "point.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("cls", ["pseudo-hermitian", "chiral", "self-skew"])
def test_scan_of_one_by_one_family_exits_2(capsys, point_family, cls):
    code, out, err = run(capsys, "scan", point_family, "--class", cls,
                         "--grid", "a=-1:1:11")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "cannot coalesce" in err


@pytest.mark.parametrize("argv, env", [
    (["--tol", "nan"], None),
    (["--tol", "inf"], None),
    ([], "nan"),
    ([], "inf"),
    (["--max-iterations", "-3"], None),
    (["--newton-tol", "nan"], None),
    (["--newton-tol", "inf"], None),
    (["--newton-tol=-1e-10"], None),
    (["--seed-threshold", "nan"], None),
    (["--grid", "k=0:inf:11"], None),
    (["--grid", "k=nan:1:11"], None),
])
def test_scan_nonfinite_or_negative_numbers_exit_2(capsys, monkeypatch, trimer_family,
                                                   argv, env):
    if env is not None:
        monkeypatch.setenv("NHSIM_TOL", env)
    grid = [] if "--grid" in argv else ["--grid", "k=0.5:1.5:11"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the error
        code, out, err = run(capsys, "scan", trimer_family, "--class",
                             "pseudo-hermitian", "--grid", "gamma=0:3:11",
                             *grid, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    # the fixed k was ignored and k scanned over [1, 2]
    (["--grid", "gamma=0:3:11", "--grid", "k=1:2:3", "--fix", "k=2"],
     "error: parameters both scanned and fixed: ['k']\n"),
    # the last value or grid was used, the earlier dropped
    (["--grid", "gamma=0:3:11", "--fix", "k=1", "--fix", "k=2"],
     "error: --fix names 'k' twice\n"),
    (["--grid", "gamma=0:3:11", "--grid", "gamma=0:1:3", "--fix", "k=1"],
     "error: --grid names 'gamma' twice\n"),
])
def test_scan_parameter_given_twice_exits_2(capsys, trimer_family, argv, message):
    code, out, err = run(capsys, "scan", trimer_family, "--class",
                         "pseudo-hermitian", *argv)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1e308", "5e-324"])
def test_classify_nonfinite_tol_exits_2(capsys, monkeypatch, dimer_at_1, tol):
    # 1e308 and 5e-324 are positive and finite, but 10 tol overflows and
    # tol / 10 underflows to 0; the error names the setting that supplied tol
    # (it named --tol for NHSIM_TOL and ToleranceConfig for these two)
    rule = f"must have 10*tol finite and tol/10 > 0, got {float(tol)}\n"
    monkeypatch.delenv("NHSIM_TOL", raising=False)
    code, out, err = run(capsys, "classify", dimer_at_1, f"--tol={tol}")
    assert (code, out, err) == (2, "", "error: --tol " + rule)
    monkeypatch.setenv("NHSIM_TOL", tol)
    code, out, err = run(capsys, "classify", dimer_at_1)
    assert (code, out, err) == (2, "", "error: NHSIM_TOL " + rule)


@pytest.mark.parametrize("tol", ["1e307", "5e-323"])
def test_classify_accepts_tol_at_the_ends_of_its_range(capsys, monkeypatch,
                                                        dimer_at_1, tol):
    monkeypatch.setenv("NHSIM_TOL", tol)
    assert run(capsys, "classify", dimer_at_1)[0] == 0
    monkeypatch.delenv("NHSIM_TOL")
    assert run(capsys, "classify", dimer_at_1, f"--tol={tol}")[0] == 0


@pytest.mark.parametrize("command", ["classify", "specht-generators"])
@pytest.mark.parametrize("part", [0, 1])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_matrix_entry_exits_2(capsys, tmp_path, command, part, bad):
    # Python's json reads these literals; one part of one entry is enough
    pair = ["0.5", "0.5"]
    pair[part] = bad
    p = tmp_path / "m.json"
    p.write_text('{"dim": 2, "entries": [[[1, 0], [%s, %s]], [[0, 0], [1, 0]]]}'
                 % tuple(pair))
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err == "error: matrix contains non-finite entries\n"


def test_flags_registered_only_where_honoured(capsys, dimer_at_1, dimer_family):
    for argv in (
        ["classify", dimer_at_1],
        ["witness", dimer_at_1, "--class", "chiral"],
        ["generate", "--class", "chiral", "--dim", "2", "--seed", "1"],
        ["specht-generators", dimer_at_1],
        ["certify", dimer_family, "--at", "1"],
    ):
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, *argv, "--output", "csv")
        assert code == 2 and "--output" in err
    code, _, err = run(capsys, "scan", dimer_family, "--class", "pseudo-hermitian",
                       "--grid", "gamma=-2:2:11", "--threads", "2")
    assert code == 2 and "--threads" in err
    code, _, err = run(capsys, "generate", "--class", "chiral", "--dim", "2",
                       "--seed", "1", "--tol", "5")
    assert code == 2 and "--tol" in err
    code, _, err = run(capsys, "specht-generators", dimer_at_1, "--seed", "1")
    assert code == 2 and "--seed" in err


@pytest.mark.parametrize("doc", [
    {"dim": 2, "entries": 5},
    {"dim": True, "entries": [[[1, 0]]]},
    {"dim": 1, "entries": [[[1, 2, 3]]]},
    {"dim": 1, "entries": [[[True, False]]]},
])
def test_malformed_matrix_fields_exit_2(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", str(p))
    assert code == 2 and err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field", ["dim", "params", "exponents"])
def test_bool_family_fields_exit_2(capsys, tmp_path, dimer_family, field):
    with open(dimer_family) as fh:
        doc = json.load(fh)
    if field == "exponents":
        doc["terms"][1]["exponents"] = [True]
    else:
        doc[field] = True
    p = tmp_path / "bad_family.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "certify", str(p), "--at", "1")
    assert code == 2 and field in err and "must be" in err


class BrokenPipeStdout:
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_1_without_traceback(capsys, monkeypatch, tmp_path,
                                               dimer_at_1):
    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr("sys.stdout", BrokenPipeStdout(fh.fileno()))
        code = main(["classify", dimer_at_1])
    assert code == 1
    assert capsys.readouterr().err == ""
