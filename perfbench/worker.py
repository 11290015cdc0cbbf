"""One benchmark process: set up a workload, then (unless ``--setup-only``)
run its closed loop and print one JSON line with the raw measurements.

Started by ``run.py`` in a fresh interpreter, so that its set-up time
includes interpreter start and ``import nhsim``.  BLAS and OpenMP are pinned
to one thread before numpy is imported, so that the single client is the
only thing computing: on a small machine extra BLAS threads compete with it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from reference import BRACKET_REPEATS, NOMINAL_S, reference_seconds, reference_work  # noqa: E402

#: Samples required beyond the tail percentile.
TAIL_BEYOND = 10
#: Percentiles tried, highest first, when a run has too few samples for the
#: workload's own tail percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Seconds between two runs of the speed reference in the timed loop.
REF_EVERY = 0.1
#: Reference runs whose median rescales one op.
REF_NEAR = 5


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(math.ceil(pct / 100.0 * n), 1)


def tail_percentile(n: int, wanted: float) -> float:
    """``wanted`` if it leaves at least ``TAIL_BEYOND`` samples beyond it,
    else the highest ladder percentile that does (50 at worst)."""
    for pct in (wanted,) + tuple(p for p in TAIL_LADDER if p < wanted):
        if samples_beyond(n, pct) >= TAIL_BEYOND:
            return pct
    return 50.0


def min_ops_for(pct: float) -> int:
    """Smallest sample count with ``TAIL_BEYOND`` samples beyond ``pct``."""
    n = 1
    while samples_beyond(n, pct) < TAIL_BEYOND:
        n += 1
    return n


def nearest_rank(sorted_values, pct: float) -> float:
    n = len(sorted_values)
    return sorted_values[max(math.ceil(pct / 100.0 * n), 1) - 1]


def run_loop(workload, api, items, seconds: float, hard_stop: float,
             reference=None, cover: bool = True) -> dict:
    """Closed loop over ``items``, cycling, one op at a time.

    Runs for ``seconds`` and on until the workload's tail percentile has
    ``TAIL_BEYOND`` samples beyond it and, with ``cover``, until every
    item has run once, but never past ``hard_stop`` (a
    ``time.perf_counter`` value).  Only the public call is timed; the
    output check runs between ops.

    Failures are counted per op (``failed``) and per distinct item
    (``failed_items``, pool indices).  The second count does not depend on
    how many ops the run's time allowed, so runs of one seed agree on it.
    An item whose output digest differs from the one of its first op is a
    failed item and is counted in ``inconsistent``.

    ``reference`` (a callable with no arguments) is timed every
    ``REF_EVERY`` seconds between ops; each op time is rescaled by
    ``NOMINAL_S`` over the median of the ``REF_NEAR`` reference times
    nearest to it.  The raw times are reported as well.
    """
    clock = time.perf_counter
    need = min_ops_for(workload.tail_percentile)
    stamps, lat, refs = [], [], []
    failures = Counter()
    wrong = failed = known = confirmed = inconsistent = 0
    first_digest = [None] * len(items)
    failed_items = set()
    digest = hashlib.sha256()
    start = clock()
    deadline = start + seconds
    next_ref = start
    i = 0
    while True:
        now = clock()
        if now >= hard_stop or (now >= deadline and i >= need
                                and (not cover or i >= len(items))):
            break
        if reference is not None and now >= next_ref:
            refs.append((now, _timed(reference)))
            next_ref = clock() + REF_EVERY
        k = i % len(items)
        item = items[k]
        t0 = clock()
        try:
            raw = workload.run(api, item)
        except Exception as exc:  # the op failed; the loop goes on
            raw = exc
        lat.append(clock() - t0)
        stamps.append(t0)
        out = workload.check(item, raw)
        if i < workload.digest_ops:
            digest.update(out.digest.encode() + b"\n")
        if first_digest[k] is None:
            first_digest[k] = out.digest
        elif out.digest != first_digest[k]:
            inconsistent += 1
            failed_items.add(k)
        if out.failed:
            failed += 1
            failed_items.add(k)
            failures[f"{out.error or 'wrong'}@{out.origin or '-'}"] += 1
        wrong += out.wrong
        known += out.known
        confirmed += out.confirmed
        i += 1
    if refs:
        refs.append((clock(), _timed(reference)))
    n = len(lat)
    scaled = sorted(t * f for t, f in zip(lat, speed_factors(stamps, refs)))
    pct = tail_percentile(n, workload.tail_percentile)
    raw_sorted = sorted(lat)
    return {
        "ops": n,
        "failed": failed,
        "items": min(n, len(items)),
        "failed_items": sorted(failed_items),
        "inconsistent": inconsistent,
        "wrong": wrong,
        "failures": dict(failures),
        "known": known,
        "confirmed": confirmed,
        "busy_s": sum(scaled),
        "p50_s": nearest_rank(scaled, 50.0),
        "tail_s": nearest_rank(scaled, pct),
        "raw_busy_s": sum(lat),
        "raw_p50_s": nearest_rank(raw_sorted, 50.0),
        "raw_tail_s": nearest_rank(raw_sorted, pct),
        "ref_median_s": statistics.median(d for _, d in refs) if refs else None,
        "ref_samples": len(refs),
        "tail_percentile": pct,
        "tail_beyond": samples_beyond(n, pct),
        "digest": digest.hexdigest(),
        "digest_ops": min(n, workload.digest_ops),
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def speed_factors(stamps, refs) -> list[float]:
    """Per-op factor ``NOMINAL_S / median of the REF_NEAR reference times
    taken nearest to the op``; all 1.0 without references."""
    if not refs:
        return [1.0] * len(stamps)
    times = [t for t, _ in refs]
    out = []
    for s in stamps:
        j = bisect.bisect(times, s)
        lo = max(0, min(j - REF_NEAR // 2, len(refs) - REF_NEAR))
        near = sorted(d for _, d in refs[lo : lo + REF_NEAR])
        out.append(NOMINAL_S / near[len(near) // 2])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import nhsim
    import nhsim.cli  # noqa: F401  (the ep-scan op calls nhsim.cli.main)
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    items = workload.inputs(args.seed)
    for item in items[: workload.warmup_ops]:
        try:
            workload.run(nhsim, item)
        except Exception:  # noqa: BLE001  (failures are counted in the timed loop)
            pass
    # run.py rescales set-up by the reference times around it
    doc = {"raw_setup_s": time.monotonic() - args.spawned_at,
           "ref_after_s": reference_seconds(BRACKET_REPEATS)}
    if not args.setup_only:
        hard_stop = time.perf_counter() + max(2 * args.seconds + 10, 60)
        if args.trace:
            from tracing import Tracer

            half = args.seconds / 2
            plain = run_loop(workload, nhsim, items, half, hard_stop, reference_work)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_loop(workload, nhsim, items, half, hard_stop, reference_work,
                                  cover=False)
            finally:
                tracer.uninstall()
            # self times get the loop's mean machine-speed rescaling
            scale = traced["busy_s"] / traced["raw_busy_s"]
            doc.update(plain=plain, traced=traced,
                       layers=tracer.metrics(traced["ops"], scale),
                       absent=tracer.absent, raised=tracer.raised())
        else:
            doc["loop"] = run_loop(workload, nhsim, items, args.seconds, hard_stop,
                                   reference_work)
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        doc["input_digest"] = workloads.input_digest(items)
        doc["env"] = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "blas": _blas_info(np),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nhsim": os.path.relpath(os.path.dirname(nhsim.__file__)),
        }
    print(json.dumps(doc))
    return 0


def _blas_info(np) -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as exc:  # older numpy has no dict mode
        return f"unknown ({type(exc).__name__})"


if __name__ == "__main__":
    sys.exit(main())
