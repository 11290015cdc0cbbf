"""nhsim benchmark: one seeded, single-client, closed-loop workload per run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.LAYER_METRICS``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON record with the
output digest, the failure catalogue and the machine and library facts the
numbers depend on.

The program is imported from ``src/`` of the checkout this file sits in.
Every measurement runs in a fresh interpreter (``worker.py``), with the BLAS
and OpenMP thread count pinned to 1.  Set-up is repeated ``SETUPS`` times
and its median reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import tracing  # noqa: E402
from reference import BRACKET_REPEATS, NOMINAL_S, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "classify-ep", "ep-scan", "specht")
#: set-ups per untraced run (one of them precedes the timed loop)
SETUPS = 9
#: fresh-interpreter ``import nhsim`` timings per traced run
IMPORT_SAMPLES = 3
#: wall-time budget of one run; a child still running then is killed
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], env: dict, deadline: float) -> str:
    """Run a child interpreter to completion and return its last stdout line;
    kill it at ``deadline`` (a ``time.monotonic`` value)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run budget of {RUN_BUDGET_S} s exhausted")
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed nothing")
    return lines[-1]


def _worker(args, env, deadline, setup_only: bool) -> dict:
    """Run one worker; its set-up time is rescaled by the mean of the
    reference times just before it starts and just after its set-up."""
    ref_before = reference_seconds(BRACKET_REPEATS)
    argv = [str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    doc = json.loads(_spawn(argv, env, deadline))
    speed = NOMINAL_S / ((ref_before + doc["ref_after_s"]) / 2)
    doc["setup_s"] = doc["raw_setup_s"] * speed
    return doc


def _import_seconds(env, deadline) -> float:
    code = ("import time; t = time.perf_counter(); import nhsim; "
            "print(time.perf_counter() - t)")
    return float(_spawn(["-c", code], env, deadline))


def _loop_metrics(loop: dict) -> dict:
    return {
        "ops_per_s": loop["ops"] / loop["busy_s"],
        "op_p50_ms": 1e3 * loop["p50_s"],
        "op_tail_ms": 1e3 * loop["tail_s"],
        "confirmed_ratio": loop["confirmed"] / max(loop["known"], 1),
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "confirmed_ratio": "ratio", "peak_rss_mb": "MiB"}


def measure(args) -> tuple[dict, dict]:
    """Returns ``(result, record)``: the final JSON line and the record."""
    env = _env()
    deadline = time.monotonic() + RUN_BUDGET_S
    full = _worker(args, env, deadline, setup_only=False)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": full["env"],
              "input_digest": full["input_digest"]}
    if args.trace:
        loops = [full["plain"], full["traced"]]
        plain, traced = _loop_metrics(full["plain"]), _loop_metrics(full["traced"])
        values = dict(full["layers"])
        values["setup.import_s"] = statistics.median(
            _import_seconds(env, deadline) for _ in range(IMPORT_SAMPLES))
        values["trace.overhead_ratio"] = traced["ops_per_s"] / plain["ops_per_s"]
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        record.update(absent=full["absent"], raised=full["raised"])
    else:
        loops = [full["loop"]]
        setups = [full["setup_s"]] + [
            _worker(args, env, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUPS - 1)]
        values = _loop_metrics(full["loop"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = full["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}
        record["setups_s"] = setups
        record["raw"] = {"op_p50_ms": 1e3 * full["loop"]["raw_p50_s"],
                         "op_tail_ms": 1e3 * full["loop"]["raw_tail_s"],
                         "ops_per_s": full["loop"]["ops"] / full["loop"]["raw_busy_s"],
                         "setup_s": full["raw_setup_s"],
                         "reference_ms": 1e3 * full["loop"]["ref_median_s"]}
    first = loops[0]
    attempted, failed = item_counts(loops)
    ops = sum(lp["ops"] for lp in loops)
    failed_ops = sum(lp["failed"] for lp in loops)
    record.update(
        output_digest=first["digest"], digest_ops=first["digest_ops"],
        samples=first["ops"], tail_percentile=first["tail_percentile"],
        tail_beyond=first["tail_beyond"], failed_ratio=failed / attempted,
        ops=ops, failed_ops=failed_ops, op_failed_ratio=failed_ops / ops,
        inconsistent=sum(lp["inconsistent"] for lp in loops),
        failures=[lp["failures"] for lp in loops],
    )
    result = {"correct": all(lp["wrong"] == 0 for lp in loops),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def item_counts(loops: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` over the distinct inputs of the pool: the
    inputs the loops ran, and those with at least one failed op.  Every
    untraced loop runs each input of the pool at least once, so both are
    fixed by the seed, however many ops the run's time allowed."""
    attempted = max(lp["items"] for lp in loops)
    failed = set().union(*(lp["failed_items"] for lp in loops))
    return attempted, len(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nhsim" / "__init__.py").is_file():
        print(f"error: no nhsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
