"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import nhsim  # noqa: E402
import nhsim.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _loop(name, api, items):
    """The timed loop with no minimum duration: it stops once the tail
    percentile is resolved."""
    return worker.run_loop(workloads.WORKLOADS[name], api, items, 0.0,
                           time.perf_counter() + 60)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    wl = workloads.WORKLOADS[name]
    first = workloads.input_digest(wl.inputs(7))
    assert workloads.input_digest(wl.inputs(7)) == first
    assert workloads.input_digest(wl.inputs(8)) != first


def test_input_digest_does_not_depend_on_the_hash_seed():
    code = ("import workloads; wl = workloads.WORKLOADS['classify-ep']; "
            "print(workloads.input_digest(wl.inputs(5)))")
    digests = {
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True, timeout=120,
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1


SPECTRAL_MAPS = {workloads.PH: np.conj, workloads.CH: lambda z: -np.conj(z),
                 workloads.SSS: np.negative}


@pytest.mark.parametrize("name,tol", [("classify", 1e-6), ("classify-ep", 1e-2)])
def test_known_classes_have_their_spectral_symmetry(name, tol):
    """The expected verdicts come from the construction; check the
    necessary spectral condition of each independently.  Jordan blocks of
    order m spread rounding errors to ~eps**(1/m), hence the looser bound."""
    for item in workloads.WORKLOADS[name].inputs(1)[:300]:
        H, known = item[0], item[1]
        ev = np.linalg.eigvals(H)
        scale = max(1.0, float(np.abs(ev).max()))
        for cls in known:
            mapped = SPECTRAL_MAPS[cls](ev)
            gap = np.abs(ev[:, None] - mapped[None, :]).min(axis=1).max()
            assert gap <= tol * scale, (cls, ev)


def test_real_outputs_pass_their_checks():
    for name, count in (("classify", 40), ("specht", 4)):
        wl = workloads.WORKLOADS[name]
        items = wl.inputs(1)[:count]
        for item in items:
            out = wl.check(item, wl.run(nhsim, item))
            assert not out.failed, (name, out)
            assert out.confirmed == out.known


class _Wrong:
    """Public API stand-in returning deliberately wrong outputs."""

    SimilarityClass = nhsim.SimilarityClass

    @staticmethod
    def classify(H):
        # the true verdict with one class dropped, or a spurious one added
        result = nhsim.classify(H)
        if result.confirmed:
            result.confirmed.pop()
        else:
            cls = nhsim.SimilarityClass.PSEUDO_HERMITIAN
            result.confirmed.add(cls)
            result.witnesses[cls] = SimpleNamespace(transform=np.eye(H.shape[0]))
        return result

    @staticmethod
    def check_similarity_implies_symmetry_2x2(H, cls):
        return {name: SimpleNamespace(generator=np.eye(2, dtype=complex))
                for name in workloads.GENERATORS}

    class cli:
        @staticmethod
        def main(argv):
            if argv[0] == "scan":
                print(json.dumps({"lam": [1.0, 1.0], "order": 3, "converged": True,
                                  "single_block": True}))
            else:
                print(json.dumps({"order": 3}))
            return 0


@pytest.mark.parametrize("name,count", [("classify", 30), ("specht", 3), ("ep-scan", 2)])
def test_wrong_output_counts_as_failed(name, count):
    wl = workloads.WORKLOADS[name]
    items = wl.inputs(2)[:count]
    for item in items:
        out = wl.check(item, wl.run(_Wrong, item))
        assert out.wrong and out.failed, (name, out)
    loop = _loop(name, _Wrong, items[:1])
    assert loop["ops"] >= 1
    assert loop["failed"] == loop["ops"] == loop["wrong"]
    assert loop["items"] == 1 and loop["failed_items"] == [0]
    assert run.item_counts([loop]) == (1, 1)


def test_malformed_cli_output_is_wrong():
    wl = workloads.WORKLOADS["ep-scan"]
    out = wl.check("0.5", (0, "not json\n", None, None))
    assert out.wrong and out.failed


def test_exception_counts_as_failed_not_wrong():
    def boom(H):
        raise ValueError("internal")

    wl = workloads.WORKLOADS["classify-ep"]
    loop = _loop("classify-ep", SimpleNamespace(classify=boom), wl.inputs(1)[:5])
    assert loop["failed"] == loop["ops"] and loop["wrong"] == 0
    (key,) = loop["failures"]
    assert key.startswith("ValueError@") and "boom" in key


def test_failed_inputs_do_not_depend_on_the_run_length():
    """Every item runs at least once, so a short and a long run of one
    pool report the same attempted and failed counts; per op they differ."""
    calls = []

    def classify(H):
        calls.append(1)
        if H[0, 0].real > 0:
            raise ValueError("seeded failure")
        return nhsim.classify(H)

    items = workloads.WORKLOADS["classify-ep"].inputs(3)[:40]
    api = SimpleNamespace(classify=classify)
    wl = workloads.WORKLOADS["classify-ep"]
    short = worker.run_loop(wl, api, items, 0.0, time.perf_counter() + 60)
    long = worker.run_loop(wl, api, items, 0.5, time.perf_counter() + 60)
    assert short["ops"] >= len(items) and long["ops"] > short["ops"]
    assert short["items"] == long["items"] == len(items)
    assert short["failed_items"] == long["failed_items"]
    assert 0 < len(short["failed_items"]) < len(items)
    assert run.item_counts([short]) == run.item_counts([long, short])
    assert short["inconsistent"] == long["inconsistent"] == 0


def test_an_output_that_changes_between_ops_is_a_failed_item():
    verdicts = iter(range(10**6))

    class Flaky:
        SimilarityClass = nhsim.SimilarityClass

        @staticmethod
        def check_similarity_implies_symmetry_2x2(H, cls):
            result = nhsim.check_similarity_implies_symmetry_2x2(H, cls)
            if next(verdicts) == 2:  # the first item's second op
                result.clear()
            return result

    wl = workloads.WORKLOADS["specht"]
    loop = _loop("specht", Flaky, wl.inputs(1)[:2])
    assert loop["inconsistent"] == 1 and loop["failed_items"] == [0]


@pytest.mark.parametrize("wanted", [99.0, 95.0, 80.0])
def test_tail_always_has_ten_samples_beyond(wanted):
    for n in range(20, 3000):
        pct = worker.tail_percentile(n, wanted)
        values = list(range(n))
        tail = worker.nearest_rank(values, pct)
        beyond = sum(v > tail for v in values)
        assert beyond == worker.samples_beyond(n, pct) >= worker.TAIL_BEYOND
        if n >= worker.min_ops_for(wanted):
            assert pct == wanted


def test_loop_runs_on_until_the_tail_is_resolved():
    wl = workloads.WORKLOADS["specht"]
    fake = SimpleNamespace(SimilarityClass=nhsim.SimilarityClass,
                           check_similarity_implies_symmetry_2x2=lambda H, c: {})
    loop = _loop("specht", fake, wl.inputs(1)[:3])
    assert loop["ops"] == worker.min_ops_for(wl.tail_percentile)
    assert loop["tail_beyond"] >= worker.TAIL_BEYOND
    assert loop["tail_percentile"] == wl.tail_percentile


def test_speed_factors_rescale_to_the_nominal_reference():
    from reference import NOMINAL_S

    refs = [(float(t), 2 * NOMINAL_S) for t in range(10)]
    assert worker.speed_factors([0.5, 4.2, 9.9], refs) == [0.5, 0.5, 0.5]
    assert worker.speed_factors([1.0], []) == [1.0]


def test_tracer_wraps_every_binding_and_restores():
    original = nhsim.spectral.jordan_decompose
    constructors = list(nhsim.classes._CONSTRUCTORS.values())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = nhsim.spectral.jordan_decompose
        assert wrapped is not original
        assert nhsim.classes.jordan_decompose is wrapped
        assert nhsim.epfinder.jordan_decompose is wrapped
        assert nhsim.jordan_decompose is wrapped
        wrapped_constructors = list(nhsim.classes._CONSTRUCTORS.values())
        assert all(w is not c for w, c in zip(wrapped_constructors, constructors))
        assert nhsim.construct_eta is wrapped_constructors[0]
        H = np.array([[0, 1], [4, 0]], dtype=complex)
        nhsim.classify(H)
        with pytest.raises(ValueError):
            nhsim.classify(np.zeros((2, 3)))
    finally:
        tracer.uninstall()
    assert nhsim.spectral.jordan_decompose is original
    assert nhsim.classes.jordan_decompose is original
    assert list(nhsim.classes._CONSTRUCTORS.values()) == constructors
    m = tracer.metrics(ops=2)
    assert m["classes.confirm_ratio"] == 1.0
    assert m["spectral.jordan_decompose.calls_per_op"] == 0.5
    assert m["classes.classify.raised_ValueError_per_op"] == 0.5
    assert m["classes.classify.self_ms_per_op"] > 0
    names = {name for name, *_ in tracing.LAYER_METRICS}
    assert names - set(m) == {"setup.import_s", "trace.overhead_ratio"}


def test_removed_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(nhsim.epfinder, "splitting_exponent")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["epfinder.splitting_exponent"]
    assert tracer.metrics(1)["epfinder.splitting_exponent.self_ms_per_op"] == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]


def test_child_past_the_deadline_is_killed():
    start = time.monotonic()
    with pytest.raises(run.BenchError, match="timed out"):
        run._spawn(["-c", "import time; time.sleep(30)"], run._env(), start + 0.5)
    assert time.monotonic() - start < 10
    with pytest.raises(run.BenchError, match="budget"):
        run._spawn(["-c", "pass"], run._env(), start)
