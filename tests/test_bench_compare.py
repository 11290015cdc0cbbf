"""The seed parser, the summary statistics and the working-tree snapshot of
``tools/bench_compare.py``, and the seed errors of both tools, without
running the benchmark."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_compare = load("bench_compare")


def run(ops_per_s, digest="d", failed=0):
    return {"metrics": {"ops_per_s": ops_per_s}, "output_digest": digest,
            "failed": failed}


def test_one_seed_reports_the_median_without_quartiles():
    pairs = [{"base": run(10.0), "change": run(12.0)}]
    m = bench_compare.compare(pairs, {"ops_per_s": "higher"}, {"ops_per_s": "1/s"},
                              {"ops_per_s": 0.15})
    m = m["ops_per_s"]
    assert m["base"]["median"] == 10.0 and m["change"]["median"] == 12.0
    assert m["base"]["iqr"] is None and m["base"]["q1"] is None
    assert m["median_gap_over_base_iqr"] is None and m["wins"] == 1


def test_quartiles_of_several_seeds():
    s = bench_compare.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    assert bench_compare.summary([1.0, 2.0])["median"] == 1.5


def test_same_outputs_in_every_pair():
    same = [{"base": run(1.0), "change": run(2.0)}] * 2
    assert bench_compare.same_outputs(same) == {"output_digest": True, "failed": True}
    differ = same + [{"base": run(1.0, failed=1), "change": run(1.0, digest="e")}]
    assert bench_compare.same_outputs(differ) == {"output_digest": False, "failed": False}


def verdict(base, change, better="higher", bound=0.15):
    pairs = [{"base": run(x), "change": run(y)} for x, y in zip(base, change)]
    m = bench_compare.compare(pairs, {"ops_per_s": better}, {"ops_per_s": "1/s"},
                              {"ops_per_s": bound})
    return m["ops_per_s"]["verdict"]


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_iqr():
    assert verdict(BASE, [x + 5 for x in BASE]) == "gain"
    # nine wins of ten still count; eight do not
    assert verdict(BASE, [x + 5 for x in BASE[:9]] + [BASE[9] - 5]) == "gain"
    assert verdict(BASE, [x + 5 for x in BASE[:8]] + [x - 5 for x in BASE[8:]]) \
        == "within_bound"
    # every pair won, but by less than the base's interquartile range
    assert verdict(BASE, [x + 0.1 for x in BASE]) == "within_bound"
    # fewer than ten pairs never read as a gain
    assert verdict(BASE[:5], [x + 5 for x in BASE[:5]]) == "within_bound"
    assert verdict([10.0], [20.0]) == "within_bound"


def test_verdict_follows_the_direction_and_the_bound():
    slower = [x * 1.1 for x in BASE]
    assert verdict(BASE, slower) == "gain"
    assert verdict(BASE, slower, better="lower") == "within_bound"
    assert verdict(BASE, [x * 1.2 for x in BASE], better="lower") == "worse"
    assert verdict(BASE, [x * 0.8 for x in BASE]) == "worse"
    assert verdict(BASE, [x * 0.9 for x in BASE]) == "within_bound"
    assert verdict([1.0] * 3, [1.0] * 3, bound=0.1) == "within_bound"


def test_spread_wider_than_the_bound_is_unresolved():
    # five A/A pairs whose spread exceeds a 2 % bound
    base, change = [0.56, 0.67, 0.65, 0.70, 0.60], [0.65, 0.64, 0.62, 0.66, 0.61]
    assert verdict(base, change, better="lower", bound=0.02) == "unresolved"
    assert verdict(base, change, better="lower", bound=0.25) == "within_bound"
    # unless the runs do not overlap
    assert verdict(base, [x - 0.2 for x in base], better="lower", bound=0.02) \
        == "within_bound"
    assert verdict(base, [x + 0.2 for x in base], better="lower", bound=0.02) \
        == "worse"


def test_parse_seeds_ranges_and_lists():
    assert bench_compare.parse_seeds("501-503") == [501, 502, 503]
    assert bench_compare.parse_seeds("1,4,9") == [1, 4, 9]
    assert bench_compare.parse_seeds("7,10-11,3") == [7, 10, 11, 3]
    assert bench_compare.parse_seeds("5-5") == [5]


@pytest.mark.parametrize("spec, match", [
    ("101,110-103", "reversed"),   # would run seed 101 alone
    ("7,7", "repeated"),           # one seed's runs counted as two pairs
    ("101-105,103", "repeated"),
    ("1-3,2-4", "repeated"),
])
def test_parse_seeds_rejects_reversed_ranges_and_repeats(spec, match):
    with pytest.raises(ValueError, match=match):
        bench_compare.parse_seeds(spec)


def test_parse_seeds_rejects_non_integers():
    for spec in ("abc", "1-x", "1,,2", "1.5"):
        with pytest.raises(ValueError, match="not an integer"):
            bench_compare.parse_seeds(spec)


@pytest.mark.parametrize("tool", ["bench_compare", "output_identity"])
@pytest.mark.parametrize("spec, reason", [
    ("7,7", "seed repeated in '7,7'"),
    ("110-103", "reversed seed range '110-103'"),
    ("101,x", "seed 'x' is not an integer"),
])
def test_tools_exit_2_with_the_reason_for_bad_seeds(tool, spec, reason, capsys):
    # as an argparse type, parse_seeds's reason was lost behind
    # "invalid parse_seeds value"
    argv = ["--seeds", spec, "--base", "HEAD"]
    if tool == "bench_compare":
        argv += ["--topic", "t", "--workload", "ep-scan"]
    with pytest.raises(SystemExit) as exc:
        load(tool).main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --seeds: {reason}" in err


def test_the_change_side_is_a_snapshot_of_the_working_tree(tmp_path, monkeypatch):
    # the change ran from the root of the repository while the base ran
    # from an export, and unchanged code read slower from the root
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                       capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("build/\n")
    (repo / "src" / "a.py").write_text("committed\n")
    (repo / "gone.py").write_text("deleted after the commit\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "a.py").write_text("uncommitted edit\n")
    (repo / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "build").mkdir()
    (repo / "build" / "out.o").write_text("ignored\n")
    monkeypatch.setattr(bench_compare, "ROOT", repo)

    dest = tmp_path / "snap"
    info = bench_compare.snapshot(dest)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert info == {"rev": "working tree", "head": head, "dirty": True}
    assert dest.resolve() != repo.resolve()
    files = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/a.py", "src/new.py"]
    assert (dest / "src" / "a.py").read_text() == "uncommitted edit\n"
    # the copy is independent of the working tree
    (repo / "src" / "a.py").write_text("edited again\n")
    assert (dest / "src" / "a.py").read_text() == "uncommitted edit\n"


def test_tier1_time_sums_the_cases_of_each_file(tmp_path):
    tier1_time = load("tier1_time")
    report = tmp_path / "report.xml"
    report.write_text(
        '<testsuites><testsuite name="pytest" tests="3" failures="1" errors="0"'
        ' skipped="0">'
        '<testcase file="tests/test_a.py" classname="tests.test_a" name="x" time="0.5"/>'
        '<testcase file="tests/test_a.py" classname="tests.test_a" name="y" time="0.25"/>'
        '<testcase file="tests/test_b.py" classname="tests.test_b" name="z" time="2.0">'
        '<failure message="boom"/></testcase>'
        '</testsuite></testsuites>')
    per_file, counts = tier1_time.file_times(report)
    assert per_file == {"tests/test_a.py": 0.75, "tests/test_b.py": 2.0}
    assert counts == {"tests": 3, "failures": 1, "errors": 0, "skipped": 0}
    runs = [{"wall_s": w, "exit_code": 1, "counts": counts, "per_file_s": per_file}
            for w in (3.0, 1.0, 2.0)]
    side = tier1_time.side_summary(runs)
    assert side["wall_s"]["median"] == 2.0
    assert side["per_file_median_s"] == per_file
