"""The summary statistics of ``tools/bench_compare.py``, without running
the benchmark."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def run(ops_per_s, digest="d", failed=0):
    return {"metrics": {"ops_per_s": ops_per_s}, "output_digest": digest,
            "failed": failed}


def test_one_seed_reports_the_median_without_quartiles():
    pairs = [{"base": run(10.0), "change": run(12.0)}]
    m = bench_compare.compare(pairs, {"ops_per_s": "higher"}, {"ops_per_s": "1/s"})
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
