"""Time the tier-1 test suite on a base revision and on the change.

Runs the tier-1 command (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) ``--runs``
times on each side, alternating base and change, and writes
``BENCH_tier1.json`` at the root of the repository: the median, quartiles
and range of the wall time of each side, the median time of each test
file (the sum of its test cases' setup, call and teardown times, from
pytest's JUnit XML report; collection and start-up are the rest of the
wall time), the test counts of every run and the machine facts.
Usage, from the root of the repository::

    python3 tools/tier1_time.py --base HEAD~1 --runs 3

The base is exported with ``git archive`` and the change is a snapshot of
the working tree, both under ``.bench_build/`` the way ``bench_compare.py``
makes them, and removed afterwards.  Every run is the full suite: the
script adds only the report options and ``-p no:cacheprovider`` (no
``.pytest_cache`` in the copies), and skips, deselects or shrinks no test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compare import ROOT, export, snapshot, summary  # noqa: E402

COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def file_times(report: Path) -> tuple[dict, dict]:
    """Seconds per test file and the test counts of a JUnit XML report
    written with ``junit_family=xunit1`` (whose test cases name their file)."""
    root = ET.parse(report).getroot()
    suite = root if root.tag == "testsuite" else root.find("testsuite")
    per_file: dict[str, float] = {}
    for case in suite.iter("testcase"):
        name = case.get("file") or case.get("classname", "?")
        per_file[name] = per_file.get(name, 0.0) + float(case.get("time", 0.0))
    counts = {key: int(suite.get(key, 0))
              for key in ("tests", "failures", "errors", "skipped")}
    return per_file, counts


def run_once(tree: Path) -> dict:
    """One tier-1 run in ``tree``: wall seconds, seconds per file, counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    with tempfile.TemporaryDirectory(prefix="tier1_") as tmp:
        report = Path(tmp) / "report.xml"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *COMMAND, "-p", "no:cacheprovider",
             f"--junitxml={report}", "-o", "junit_family=xunit1"],
            cwd=tree, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if not report.is_file():
            raise RuntimeError(f"pytest in {tree} wrote no report "
                               f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}")
        per_file, counts = file_times(report)
    return {"wall_s": wall, "exit_code": proc.returncode, "counts": counts,
            "per_file_s": per_file}


def side_summary(runs: list[dict]) -> dict:
    """Wall-time summary, median seconds per file and the runs' counts."""
    files = sorted({f for r in runs for f in r["per_file_s"]})
    return {
        "wall_s": summary([r["wall_s"] for r in runs]),
        "per_file_median_s": {
            f: statistics.median(r["per_file_s"].get(f, 0.0) for r in runs)
            for f in files},
        "counts": [r["counts"] for r in runs],
        "exit_codes": [r["exit_code"] for r in runs],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base")
    ap.add_argument("--runs", type=int, default=3, help="runs per side (default 3)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("argument --runs: must be at least 1")

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tier1_", dir=ROOT / ".bench_build"))
    try:
        info = {"base": {"rev": args.base, "commit": export(args.base, workdir / "base")},
                "change": snapshot(workdir / "change")}
        runs = {"base": [], "change": []}
        for i in range(args.runs):
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                run = run_once(workdir / side)
                runs[side].append(run)
                print(f"[{i + 1}/{args.runs}] {side}: {run['wall_s']:.2f} s, "
                      f"{run['counts']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {
        "topic": "tier1",
        "command": ["python", *COMMAND],
        "runs": args.runs,
        "sides": {side: {**info[side], **side_summary(runs[side])} for side in runs},
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
    }
    out = ROOT / "BENCH_tier1.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for side in ("base", "change"):
        s = doc["sides"][side]
        print(f"{side}: median {s['wall_s']['median']:.2f} s over {args.runs} runs")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
