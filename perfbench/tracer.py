"""Span tracer that times relaycast's layers from outside the package.

While installed, the tracer replaces every binding of each traced function
object across the ``relaycast.*`` module namespaces (the modules import by
name, so ``figures`` and ``cli`` each hold their own ``maximize_throughput``)
and the ``scipy.integrate.quad`` attribute that every caller reaches through
the module.  Each call becomes a span (name, start, end, parent, run id) kept
in flat in-memory arrays; self time is a span's duration minus the time its
child spans cover.  Uninstalling restores the original objects.

The tracer keeps one span stack and is meant for single-threaded runs
(every benchmark command passes ``--workers 1``).
"""

from __future__ import annotations

import sys
import time
import warnings
from array import array

import numpy as np

# (module, function) pairs timed as spans; the metric prefix drops "relaycast."
SPANS = (
    ("cli", "main"), ("figures", "run_preset"),
    ("optimize", "maximize_throughput"), ("optimize", "oblivious_rate_plan"),
    ("twolayer", "direct_multilayer_throughput"), ("twolayer", "miso_equal_throughput"),
    ("twolayer", "miso_unequal_throughput"), ("twolayer", "simplex_equal_throughput"),
    ("twolayer", "simplex_unequal_throughput"), ("twolayer", "discretize_power_density"),
    ("bounds", "find_intersections"), ("bounds", "discontinuity_point"),
    ("outage", "sdf_single_layer_throughput"), ("outage", "ergodic_miso_capacity"),
    ("broadcast", "optimal_power_density"), ("broadcast", "broadcast_rate"),
    ("montecarlo", "simulate_strategy"), ("validation", "closed_form_value"),
)
# called too often for spans: call counts only
COUNTS = (("outage", "y_sum_tail"), ("optimize", "golden_section_max"))
# spans reported only through derived metrics
QUAD = "quad"
RNG = "montecarlo._fading_chunk"


def _names(pairs) -> list[str]:
    return [f"{mod}.{fn}" for mod, fn in pairs]


SPAN_NAMES = _names(SPANS)
COUNT_NAMES = _names(COUNTS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for name in COUNT_NAMES:
        units[f"{name}.calls"] = "count"
    units.update({
        "cli.self_s": "s",
        "optimize.evals": "count",
        "optimize.us_per_eval": "us",
        "optimize.oblivious_rate_plan.useful_ratio": "ratio",
        "quad.calls": "count",
        "quad.s": "s",
        "quad.integrand_evals": "count",
        "quad.max_abserr": "nats",
        "montecarlo.blocks": "count",
        "montecarlo.rng_s": "s",
        "montecarlo.credit_s": "s",
        "montecarlo.ns_per_block": "ns",
        "health.runtime_warnings": "count",
    })
    return units


class Tracer:
    """Install with ``with tracer:``; read ``metrics()`` and ``spans()`` after."""

    def __init__(self):
        import relaycast.cli  # noqa: F401  (loads every traced module)

        self.names = SPAN_NAMES + [QUAD, RNG]
        self._index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self._depth = [0] * n
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.evals = 0
        self.blocks = 0
        self.integrand_evals = 0
        self.max_abserr = 0.0
        self.runtime_warnings = 0
        self._plans = set()  # (root span, p_s) pairs seen by oblivious_rate_plan
        self.run_id = 0  # set by the caller: one id per benchmark operation
        self._stack = []  # [span index, child time] per open span
        self._name = array("B")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._patches = []
        self._warn_ctx = None

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(original, replacement) for every traced function object."""
        relay = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                 if name.startswith("relaycast.")}
        hooks = {"optimize.maximize_throughput": self._on_opt,
                 "optimize.oblivious_rate_plan": self._on_plan,
                 "montecarlo.simulate_strategy": self._on_sim}
        out = []
        for (mod, fn), name in zip(SPANS, SPAN_NAMES):
            orig = getattr(relay[mod], fn)
            out.append((orig, self._span(orig, self._index[name], hooks.get(name))))
        for (mod, fn), name in zip(COUNTS, COUNT_NAMES):
            orig = getattr(relay[mod], fn)
            out.append((orig, self._counter(orig, name)))
        rng = relay["montecarlo"]._fading_chunk
        out.append((rng, self._span(rng, self._index[RNG], None)))
        return out

    def __enter__(self):
        from scipy import integrate

        if self._patches:
            raise RuntimeError("tracer already installed")
        replace = {id(orig): (orig, new) for orig, new in self._targets()}
        quad = integrate.quad
        replace[id(quad)] = (quad, self._span(self._counted_quad(quad),
                                              self._index[QUAD], self._on_quad))
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "relaycast" or name.startswith("relaycast.")]
        try:
            for mod in [*modules, integrate]:
                for attr, value in list(vars(mod).items()):
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
        except BaseException:
            self._restore()
            raise
        self._warn_ctx = warnings.catch_warnings()
        self._warn_ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def count_warning(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                self.runtime_warnings += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = count_warning
        return self

    def __exit__(self, *exc):
        self._warn_ctx.__exit__(*exc)
        self._restore()
        return False

    def _restore(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, idx, on_result):
        perf = time.perf_counter
        stack, calls, incl, self_s, depth = (self._stack, self.calls, self.incl,
                                             self.self_s, self._depth)
        names, parents, runs, starts, ends = (self._name, self._parent, self._run,
                                              self._start, self._end)

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            frame = [i, 0.0]
            stack.append(frame)
            depth[idx] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[idx] -= 1
                dur = t1 - t0
                starts[i] = t0
                ends[i] = t1
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if not depth[idx]:  # recursive calls count once in inclusive time
                    incl[idx] += dur
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_quad(self, quad):
        def counted(func, a, b, *args, **kwargs):
            def integrand(*x):
                self.integrand_evals += 1
                return func(*x)
            return quad(integrand, a, b, *args, **kwargs)
        return counted

    def _on_quad(self, args, kwargs, result):
        self.max_abserr = max(self.max_abserr, float(result[1]))

    def _on_opt(self, args, kwargs, result):
        self.evals += result.n_evals

    def _on_sim(self, args, kwargs, result):
        self.blocks += result.blocks

    def _on_plan(self, args, kwargs, result):
        p_s = args[0] if args else kwargs["p_s"]
        root = self._stack[0][0] if self._stack else -1
        self._plans.add((root, p_s))

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Every span recorded; ``name`` indexes ``names``."""
        return {"names": np.array(self.names),
                "name": np.frombuffer(self._name, dtype=np.uint8),
                "parent": np.frombuffer(self._parent, dtype=np.int32),
                "run_id": np.frombuffer(self._run, dtype=np.int32),
                "start": np.frombuffer(self._start, dtype=float),
                "end": np.frombuffer(self._end, dtype=float)}

    def total_self_seconds(self) -> float:
        return float(sum(self.self_s))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (without ``trace.overhead_s``, which needs an
        untraced pass to compare against)."""
        m = {}
        for name in SPAN_NAMES:
            i = self._index[name]
            m.update({f"{name}.calls": self.calls[i], f"{name}.s": self.incl[i],
                      f"{name}.self_s": self.self_s[i]})
        for name in COUNT_NAMES:
            m[f"{name}.calls"] = self.counts[name]
        opt_s = self.incl[self._index["optimize.maximize_throughput"]]
        plan_calls = self.calls[self._index["optimize.oblivious_rate_plan"]]
        sim = self._index["montecarlo.simulate_strategy"]
        rng = self._index[RNG]
        quad = self._index[QUAD]
        m.update({
            "cli.self_s": m["cli.main.self_s"],
            "optimize.evals": self.evals,
            "optimize.us_per_eval": 1e6 * opt_s / self.evals if self.evals else 0.0,
            "optimize.oblivious_rate_plan.useful_ratio":
                len(self._plans) / plan_calls if plan_calls else 0.0,
            "quad.calls": self.calls[quad],
            "quad.s": self.incl[quad],
            "quad.integrand_evals": self.integrand_evals,
            "quad.max_abserr": self.max_abserr,
            "montecarlo.blocks": self.blocks,
            "montecarlo.rng_s": self.incl[rng],
            # the RNG is a child span, so the simulation's own self time is
            # its self time with the RNG time already taken out
            "montecarlo.credit_s": self.self_s[sim],
            "montecarlo.ns_per_block":
                1e9 * self.incl[sim] / self.blocks if self.blocks else 0.0,
            "health.runtime_warnings": self.runtime_warnings,
        })
        return m
