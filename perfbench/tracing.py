"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces public functions of the ``nhsim`` modules with
timing wrappers.  Each wrapper is installed at every binding the calls go
through: module attributes (``classes.jordan_decompose`` as well as
``spectral.jordan_decompose``), module-level dicts (``classes._CONSTRUCTORS``)
and class attributes (``MatrixFamily.__call__`` as well as ``.evaluate``).
Spans are aggregated as they close (calls, self time, exceptions by type),
so memory stays flat however many ops run.  A layer's self time is its span
minus the time of the wrapped spans it encloses.

A target a later version of the program no longer has is recorded as
absent; its counters stay at zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "nhsim"

#: (module, attribute path) of every traced function.  ``specht.least_squares``
#: is scipy's solver as bound in ``nhsim.specht``: one call per LM start.
TARGETS = (
    ("spectral", "eigenvalues"),
    ("spectral", "jordan_decompose"),
    ("spectral", "multiset_symmetry_match"),
    ("classes", "classify"),
    ("classes", "construct_eta"),
    ("classes", "construct_gamma"),
    ("classes", "construct_skew_witness"),
    ("specht", "recover_generator"),
    ("specht", "least_squares"),
    ("specht", "compare_profiles"),
    ("families", "MatrixFamily.evaluate"),
    ("families", "parse_family"),
    ("families", "constraint_jacobian"),
    ("epfinder", "ConstraintSystem.evaluate"),
    ("epfinder", "scan"),
    ("epfinder", "certify_order"),
    ("epfinder", "class_identity_check"),
    ("epfinder", "splitting_exponent"),
    ("cli", "main"),
)

#: Per-layer metrics: name, unit, better, and the end-to-end metric and
#: workload each should move.  ``BENCHMARK.json`` lists the same names.
LAYER_METRICS = (
    ("spectral.eigenvalues.calls_per_op", "count", "lower", "op_p50_ms on classify"),
    ("spectral.eigenvalues.self_ms_per_op", "ms", "lower", "op_p50_ms on classify"),
    ("spectral.jordan_decompose.calls_per_op", "count", "lower",
     "op_p50_ms on classify; op_p50_ms on ep-scan (certification)"),
    ("spectral.jordan_decompose.self_ms_per_op", "ms", "lower",
     "op_p50_ms on classify; op_p50_ms on ep-scan (certification)"),
    ("spectral.jordan_decompose.raised_per_op", "count", "lower",
     "failed ratio on classify-ep"),
    ("spectral.multiset_symmetry_match.calls_per_op", "count", "lower",
     "op_p50_ms on classify"),
    ("spectral.multiset_symmetry_match.self_ms_per_op", "ms", "lower",
     "op_p50_ms on classify"),
    ("classes.classify.self_ms_per_op", "ms", "lower", "op_p50_ms on classify-ep"),
    ("classes.classify.raised_ValueError_per_op", "count", "lower",
     "failed ratio on classify-ep"),
    ("classes.classify.raised_ClusterAmbiguityError_per_op", "count", "lower",
     "failed ratio on classify-ep"),
    ("classes.construct_eta.self_ms_per_op", "ms", "lower",
     "op_p50_ms, confirmed_ratio and failed ratio on classify-ep"),
    ("classes.construct_eta.raised_per_op", "count", "lower",
     "confirmed_ratio and failed ratio on classify-ep"),
    ("classes.construct_gamma.self_ms_per_op", "ms", "lower",
     "op_p50_ms, confirmed_ratio and failed ratio on classify-ep"),
    ("classes.construct_gamma.raised_per_op", "count", "lower",
     "confirmed_ratio and failed ratio on classify-ep"),
    ("classes.construct_skew_witness.self_ms_per_op", "ms", "lower",
     "op_tail_ms and ops_per_s on classify"),
    ("classes.construct_skew_witness.raised_per_op", "count", "lower",
     "op_tail_ms and ops_per_s on classify"),
    ("classes.confirm_ratio", "ratio", "higher",
     "confirmed_ratio on classify and classify-ep"),
    ("specht.recover_generator.calls_per_op", "count", "lower",
     "op_p50_ms and ops_per_s on specht"),
    ("specht.recover_generator.self_ms_per_op", "ms", "lower",
     "op_p50_ms and ops_per_s on specht"),
    ("specht.least_squares.calls_per_op", "count", "lower",
     "op_p50_ms and ops_per_s on specht"),
    ("specht.least_squares.self_ms_per_op", "ms", "lower",
     "op_p50_ms and ops_per_s on specht"),
    ("specht.least_squares.nfev_per_op", "count", "lower",
     "op_p50_ms and ops_per_s on specht"),
    ("specht.compare_profiles.self_ms_per_op", "ms", "lower", "op_p50_ms on specht"),
    ("families.MatrixFamily.evaluate.calls_per_op", "count", "lower",
     "op_p50_ms and ops_per_s on ep-scan"),
    ("families.MatrixFamily.evaluate.self_ms_per_op", "ms", "lower",
     "op_p50_ms and ops_per_s on ep-scan"),
    ("epfinder.ConstraintSystem.evaluate.calls_per_op", "count", "lower",
     "op_p50_ms and ops_per_s on ep-scan"),
    ("epfinder.ConstraintSystem.evaluate.self_ms_per_op", "ms", "lower",
     "op_p50_ms and ops_per_s on ep-scan"),
    ("families.constraint_jacobian.calls_per_op", "count", "lower",
     "op_p50_ms on ep-scan"),
    ("families.constraint_jacobian.self_ms_per_op", "ms", "lower",
     "op_p50_ms on ep-scan"),
    ("epfinder.certify_order.calls_per_op", "count", "lower", "op_p50_ms on ep-scan"),
    ("epfinder.certify_order.self_ms_per_op", "ms", "lower", "op_p50_ms on ep-scan"),
    ("epfinder.class_identity_check.self_ms_per_op", "ms", "lower",
     "op_p50_ms on ep-scan"),
    ("epfinder.splitting_exponent.self_ms_per_op", "ms", "lower",
     "op_p50_ms on ep-scan"),
    ("epfinder.scan.self_ms_per_op", "ms", "lower", "op_p50_ms on ep-scan"),
    ("epfinder.scan.candidates_per_op", "count", "lower", "failed ratio on ep-scan"),
    ("epfinder.scan.converged_ratio", "ratio", "higher", "failed ratio on ep-scan"),
    ("cli.main.self_ms_per_op", "ms", "lower", "op_p50_ms on ep-scan"),
    ("families.parse_family.self_ms_per_op", "ms", "lower", "op_p50_ms on ep-scan"),
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_ratio", "ratio", "higher",
     "none: traced over untraced ops_per_s"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    raised: Counter = field(default_factory=Counter)
    # result-derived counters (see Tracer._RESULT_HOOKS)
    extra: Counter = field(default_factory=Counter)


def _classify_hook(stats: LayerStats, result):
    stats.extra["confirmed"] += len(result.confirmed)
    stats.extra["candidates"] += len(result.confirmed | result.spectral_only)


def _scan_hook(stats: LayerStats, result):
    stats.extra["candidates"] += len(result)
    stats.extra["converged"] += sum(1 for c in result if c.converged)


def _least_squares_hook(stats: LayerStats, result):
    stats.extra["nfev"] += int(result.nfev)


class Tracer:
    """Installs, aggregates and removes the timing wrappers."""

    _RESULT_HOOKS = {
        "classes.classify": _classify_hook,
        "epfinder.scan": _scan_hook,
        "specht.least_squares": _least_squares_hook,
    }

    def __init__(self):
        self.stats = {f"{m}.{p}": LayerStats() for m, p in TARGETS}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    def _wrap(self, key, fn):
        stats = self.stats[key]
        stack = self._stack
        hook = self._RESULT_HOOKS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stats.raised[type(exc).__name__] += 1
                raise
            finally:
                span = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.self_s += span - child
                if stack:
                    stack[-1] += span
            if hook is not None:
                hook(stats, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding under the package."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for mod_name, path in TARGETS:
            key = f"{mod_name}.{path}"
            owner = mods.get(f"{PACKAGE}.{mod_name}")
            original = owner
            for part in path.split("."):
                original = getattr(original, part, None)
            if original is None:
                self.absent.append(key)
                continue
            self._rebind_everywhere(mods.values(), original, self._wrap(key, original))

    def _rebind_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
                elif isinstance(value, dict) and not name.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._setitem(value, k, wrapper)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, v in list(vars(value).items()):
                        if v is original:
                            self._set(value, attr, wrapper)

    def _set(self, obj, name, value):
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _setitem(self, d, key, value):
        self._undo.append((dict.__setitem__, d, key, d[key]))
        d[key] = value

    def uninstall(self):
        while self._undo:
            setter, obj, name, value = self._undo.pop()
            setter(obj, name, value)

    def metrics(self, ops: int, time_scale: float = 1.0) -> dict[str, float]:
        """Per-op layer metrics named as in :data:`LAYER_METRICS`
        (without ``setup.import_s`` and ``trace.overhead_ratio``); self times
        are multiplied by ``time_scale``."""
        ops = max(ops, 1)
        out = {}
        for key, st in self.stats.items():
            out[f"{key}.calls_per_op"] = st.calls / ops
            out[f"{key}.self_ms_per_op"] = 1e3 * st.self_s * time_scale / ops
            out[f"{key}.raised_per_op"] = sum(st.raised.values()) / ops
            for exc in ("ValueError", "ClusterAmbiguityError"):
                out[f"{key}.raised_{exc}_per_op"] = st.raised[exc] / ops
        cl = self.stats["classes.classify"].extra
        out["classes.confirm_ratio"] = cl["confirmed"] / max(cl["candidates"], 1)
        sc = self.stats["epfinder.scan"].extra
        out["epfinder.scan.candidates_per_op"] = sc["candidates"] / ops
        out["epfinder.scan.converged_ratio"] = sc["converged"] / max(sc["candidates"], 1)
        out["specht.least_squares.nfev_per_op"] = (
            self.stats["specht.least_squares"].extra["nfev"] / ops
        )
        return out

    def raised(self) -> dict[str, dict[str, int]]:
        return {k: dict(st.raised) for k, st in self.stats.items() if st.raised}
