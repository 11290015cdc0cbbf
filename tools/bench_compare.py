"""Compare a base revision with a change on one benchmark workload.

Runs ``perfbench/run.py`` in alternating pairs, base and change, one pair
per seed, and writes ``BENCH_<topic>.json`` at the root of the repository
with every run's end-to-end metrics, the per-metric medians and quartiles
of both sides, the number of pairs the change wins and the machine facts.
Usage, from the root of the repository::

    python3 tools/bench_compare.py --topic scan --workload ep-scan \\
        --seeds 501-510 --base HEAD

The base is a git revision, exported with ``git archive`` under
``.bench_build/`` (committed files only, as a fresh checkout sees them) and
removed afterwards.  The change is a snapshot of the working tree copied
there the same way (tracked files as they are on disk, and untracked files
that ``.gitignore`` does not exclude), or with ``--change REV`` a second
revision exported like the base; so both sides run from the same kind of
directory.  ``--base REV --change REV`` is an A/A run, which shows the
noise floor of a comparison.  Pair ``i``
runs the base first when ``i`` is even and the change first when it is
odd, so that a drift of the machine within a pair favours neither.  Each tree runs its
own ``perfbench/run.py`` on its own ``src/``, for the run length
``BENCHMARK.json`` sets.

A metric's direction comes from ``BENCHMARK.json``.  A pair is won when the
change is strictly better.  ``median_gap_over_base_iqr`` is the distance
between the two medians in the better direction divided by the
interquartile range of the base runs (above 1: the gain is larger than the
base's own spread); with one seed there are no quartiles and it is
``null``.  ``verdict`` reads ``gain``, ``within_bound``, ``worse`` or
``unresolved`` by the rule of :func:`verdict` and the metric's bound in
``BENCHMARK.json``.  ``same_in_every_pair`` records whether base and change
had equal output digests and equal ``failed`` counts in every pair.  Each
run also records ``minor_faults``, the minor page faults of its
``run.py`` process tree, and ``minor_faults_median`` gives their median per
side: a change that moves allocation sizes can gain or lose a few percent
through the heap's fault pattern alone, and the counts show when it does.
If the output file exists, its entries for other workloads are kept, so
one file can collect several workloads of one topic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    """``"501-510"`` or ``"1,4,9"`` (or a mix) to a list of seeds.

    A reversed range and a seed named twice raise ``ValueError``: the first
    would drop seeds silently, the second would count one seed's runs as
    two independent pairs.  So does a seed that is not an integer.
    """
    def seed(text):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"seed {text!r} is not an integer") from None

    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        lo = seed(lo)
        hi = seed(hi) if sep else lo
        if hi < lo:
            raise ValueError(f"reversed seed range {part!r}")
        seeds += range(lo, hi + 1)
    if not seeds:
        raise ValueError("no seeds")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seed repeated in {spec!r}")
    return seeds


def seeds_argument(ap: argparse.ArgumentParser, spec: str) -> list[int]:
    """:func:`parse_seeds`, or exit 2 through ``ap.error`` with its reason
    (argparse would print only ``invalid parse_seeds value`` for a
    ``type=parse_seeds`` argument)."""
    try:
        return parse_seeds(spec)
    except ValueError as exc:
        ap.error(f"argument --seeds: {exc}")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export(rev: str, dest: Path) -> str:
    """Committed files of ``rev`` under ``dest``; returns the commit hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", sha), check=True)
    return sha


def snapshot(dest: Path) -> dict:
    """The working tree under ``dest``: tracked files as they are on disk
    (a deleted one is left out) and untracked files that ``.gitignore`` does
    not exclude.  Returns HEAD and whether tracked files differ from it."""
    sha = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(filter(None, names.split(b"\0")))):
        src = ROOT / os.fsdecode(name)
        if src.is_file():
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)
    return {"rev": "working tree", "head": sha, "dirty": dirty}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run; its metrics, counts and record, and
    the minor page faults of its process tree (every descendant that was
    waited for, as ``getrusage(RUSAGE_CHILDREN)`` counts them)."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["record"]
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "output_digest": record.get("output_digest"),
        "env": record.get("env"),
        "minor_faults": faults,
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and range; one run has no quartiles (``None``)."""
    q1 = q3 = iqr = None
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": iqr,
            "min": min(values), "max": max(values)}


def same_outputs(pairs: list[dict]) -> dict:
    """Whether base and change had equal output digests and equal failed
    counts in every pair."""
    return {key: all(p["base"][key] == p["change"][key] for p in pairs)
            for key in ("output_digest", "failed")}


def minor_fault_medians(pairs: list[dict]) -> dict:
    """The median of the runs' minor page faults, per side."""
    return {side: statistics.median(p[side]["minor_faults"] for p in pairs)
            for side in ("base", "change")}


def verdict(m: dict, bound: float) -> str:
    """The verdict on one metric of :func:`compare`.

    ``gain``: at least ten pairs, the change wins at least nine tenths of
    them (ties count for neither) and its median is better than the base's
    by more than the base's interquartile range.  ``unresolved``: otherwise,
    when the wider of the two interquartile ranges exceeds ``bound`` (a
    fraction of the base median) and the ranges of the base and change runs
    overlap.  ``within_bound``: the change's median is worse than the base's
    by at most ``bound``.  ``worse``: the rest.
    """
    b, c = m["base"], m["change"]
    gap = (c["median"] - b["median"]) * (1.0 if m["better"] == "higher" else -1.0)
    if m["pairs"] >= 10 and m["wins"] >= 0.9 * m["pairs"] and gap > b["iqr"]:
        return "gain"
    allowed = bound * abs(b["median"])
    spread = max(b["iqr"] or 0.0, c["iqr"] or 0.0)
    overlap = c["min"] <= b["max"] and b["min"] <= c["max"]
    if spread > allowed and overlap:
        return "unresolved"
    return "within_bound" if -gap <= allowed else "worse"


def compare(pairs: list[dict], directions: dict, units: dict, bounds: dict) -> dict:
    """Per-metric summaries and verdicts of paired runs."""
    out = {}
    for name, better in directions.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        b, c = summary(base), summary(change)
        gap = sign * (c["median"] - b["median"])
        out[name] = {
            "unit": units[name],
            "better": better,
            "base": b,
            "change": c,
            "change_over_base": c["median"] / b["median"] if b["median"] else None,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
            "pairs": len(pairs),
            "median_gap_over_base_iqr": gap / b["iqr"] if b["iqr"] else None,
        }
        out[name]["verdict"] = verdict(out[name], bounds[name])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--topic", required=True, help="names the output BENCH_<topic>.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True,
                    help="one pair per seed: 501-510 or 1,4,9")
    ap.add_argument("--base", required=True, help="git revision of the base")
    ap.add_argument("--change", default=None,
                    help="git revision of the change (default: the working tree)")
    args = ap.parse_args(argv)
    args.seeds = seeds_argument(ap, args.seeds)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_path = ROOT / f"BENCH_{args.topic}.json"

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="compare_", dir=ROOT / ".bench_build"))
    try:
        base_info = {"rev": args.base, "commit": export(args.base, workdir / "base")}
        trees = {"base": workdir / "base", "change": workdir / "change"}
        if args.change is None:
            change_info = snapshot(trees["change"])
        else:
            change_info = {"rev": args.change,
                           "commit": export(args.change, trees["change"])}
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                t0 = time.monotonic()
                pair[side] = run_once(trees[side], args.workload, seed, seconds)
                pair[side]["wall_s"] = time.monotonic() - t0
            pairs.append(pair)
            line = "  ".join(
                f"{name} {pair['base']['metrics'][name]:.4g} -> "
                f"{pair['change']['metrics'][name]:.4g}" for name in directions)
            same = "  ".join(f"same {k}: {v}" for k, v in same_outputs([pair]).items())
            faults = (f"minor_faults {pair['base']['minor_faults']} -> "
                      f"{pair['change']['minor_faults']}")
            print(f"[{i + 1}/{len(args.seeds)}] seed {seed}: {line}  {faults}  {same}",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = pairs[0]["change"]["env"] or {}
    entry = {
        "seconds": seconds,
        "seeds": args.seeds,
        "base": base_info,
        "change": change_info,
        "metrics": compare(pairs, directions, units, bounds),
        "same_in_every_pair": same_outputs(pairs),
        "minor_faults_median": minor_fault_medians(pairs),
        "pairs": pairs,
    }
    doc = {"topic": args.topic, "workloads": {}}
    if out_path.is_file():
        old = json.loads(out_path.read_text())
        if old.get("topic") == args.topic:
            doc["workloads"] = old.get("workloads", {})
    doc["machine"] = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "run_env": env,
    }
    doc["workloads"][args.workload] = entry
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, m in entry["metrics"].items():
        print(f"{name}: median {m['base']['median']:.4g} -> {m['change']['median']:.4g}, "
              f"change wins {m['wins']}/{m['pairs']}: {m['verdict']}")
    for key, same in entry["same_in_every_pair"].items():
        print(f"{key} equal in every pair: {same}")
    faults = entry["minor_faults_median"]
    print(f"minor page faults per run: median {faults['base']} -> {faults['change']}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
