"""Outside-in layer tracing for the wbp benchmark.

The tracer wraps public functions of the ``wbp`` modules and the sampling
methods of every reproduction law, from this file, so nothing under
``src/`` changes. A wrapped call is a span; a span's self time is its
duration minus the time of the spans it encloses (``advance_generation``
minus the law's ``sample_generation``, ``LineageLaw`` minus the base law it
wraps). Spans are aggregated per name as they close, because one workload
makes about 10^5 of them.

Functions are patched under every name that binds them: ``harness``,
``llogl`` and ``ifs`` import them with ``from ... import``, so patching
only the defining module would miss those calls. Law methods are patched
on the class that defines them and report under the module of the
instance's class, so ``KernelProductLaw`` (which inherits the per-parent
``ReproductionLaw.sample_generation``) reports as ``kernel_products``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# advance_generation size buckets, by number of parents
_SMALL_MAX = 64
_LARGE_MIN = 65_536

_LAW_MODULES = ("cascades", "finite_type", "ifs", "lineage", "kernel_products")


class _Stat:
    __slots__ = ("calls", "total", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.extra = defaultdict(float)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_run_replicates(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {
        "replicates": a["replicates"],
        "replicate_gens": a["replicates"] * a["horizon"],
        "capped": result.n_capped,
    }


def _count_kernel(fn, args, kwargs, result):
    m = result.matrix
    return {"cells": m.size, "nnz": int(np.count_nonzero(m))}


def _count_c3_draws(fn, args, kwargs, result):
    # the probe points estimate_c3 picks on the grid, times the budget per point
    a = _bound(fn, args, kwargs)
    d = a["k1"].size
    points = np.unique(np.linspace(0, d - 1, min(d, a["max_points"])).astype(int)).size
    return {"draws": points * a["budget"]}


def _count_hfk(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"trajectories": a["grid"].size * a["mc_budget"]}


def _count_written(fn, args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (module, function, extra counters); each is patched under every binding
_FUNCTIONS = (
    ("harness", "run_replicates", _count_run_replicates),
    ("population", "advance_generation", None),
    ("population", "simulate_trajectory", None),
    ("streams", "derive_stream", None),
    ("spectral", "build_mean_kernel", _count_kernel),
    ("spectral", "power_iteration", None),
    ("spectral", "estimate_beta", None),
    ("spectral", "attach_alpha", None),
    ("spectral", "kernel_power_apply", None),
    ("certify", "certify_md", None),
    ("certify", "estimate_c3", _count_c3_draws),
    ("certify", "gamma_witness", None),
    ("certify", "estimate_c1", None),
    ("llogl", "hfk_partial_sums", _count_hfk),
    ("martingale", "lp_error", None),
    ("martingale", "degeneracy_probe", None),
    ("martingale", "martingale_increment_test", None),
    ("kernel_products", "kernel_product_observable", None),
    ("lineage", "lineage_average_increment", None),
    ("ifs", "ifs_convergence_probe", None),
    ("ifs", "doob_transition", None),
)


def _wbp_modules():
    return [m for n, m in list(sys.modules.items()) if n == "wbp" or n.startswith("wbp.")]


class Tracer:
    """Span aggregator that patches wbp in place; ``uninstall`` restores it."""

    def __init__(self):
        self._stack = []  # child time accumulated by each open span
        self._progeny_depth = 0
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.stats = defaultdict(_Stat)

    def calls(self) -> dict:
        """Calls per span name so far; differences give the calls of one op."""
        return {name: st.calls for name, st in self.stats.items()}

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs, extra=None, bucket=None):
        """Run ``fn`` as a span; ``extra(result)`` gives its counters.

        With ``bucket`` the span is also recorded, inclusively, under that
        name. A call that raises is recorded without counters.
        """
        stack = self._stack
        stack.append(0.0)
        ok = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            elapsed = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            counters = extra(result) if extra is not None and ok else None
            self._record(name, elapsed, elapsed - child, counters)
            if bucket is not None:
                self._record(bucket, elapsed, 0.0, counters)

    def _record(self, name, elapsed, self_time, counters):
        st = self.stats[name]
        st.calls += 1
        st.total += elapsed
        st.self_s += self_time
        if counters:
            for k, v in counters.items():
                st.extra[k] += v

    def _wrap_function(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = (lambda r: count(fn, args, kwargs, r)) if count is not None else None
            return self._span(name, fn, args, kwargs, extra)

        return traced

    def _wrap_advance(self, fn):
        name = "population.advance_generation"
        buckets = {b: f"{name}.{b}" for b in ("small", "mid", "large")}

        def children(result):
            return {"children": result.size}

        @functools.wraps(fn)
        def traced(g, *args, **kwargs):
            n = g.size
            bucket = "small" if n <= _SMALL_MAX else "large" if n >= _LARGE_MIN else "mid"
            return self._span(name, fn, (g,) + args, kwargs, children, buckets[bucket])

        return traced

    def _wrap_sample_generation(self, fn):
        def children(batch):
            return {"children": batch.weights.shape[0]}

        @functools.wraps(fn)
        def traced(law, *args, **kwargs):
            name = type(law).__module__.rsplit(".", 1)[-1] + ".sample_generation"
            return self._span(name, fn, (law,) + args, kwargs, children)

        return traced

    def _wrap_sample_progeny(self, fn):
        # only outermost draws count: IfsLaw and LineageLaw nest another law's draw
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._progeny_depth:
                return fn(*args, **kwargs)
            self._progeny_depth += 1
            try:
                return self._span("laws.sample_progeny", fn, args, kwargs)
            finally:
                self._progeny_depth -= 1

        return traced

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import wbp.harness
        import wbp.population

        modules = _wbp_modules()
        for modname, fname, count in _FUNCTIONS:
            fn = getattr(sys.modules[f"wbp.{modname}"], fname)
            if fname == "advance_generation":
                wrapped = self._wrap_advance(fn)
            else:
                wrapped = self._wrap_function(fn, f"{modname}.{fname}", count)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapped)
        write = wbp.harness.RunResult.write
        self._patch(
            wbp.harness.RunResult, "write", self._wrap_function(write, "harness.RunResult.write", _count_written)
        )
        for cls in _law_classes(modules, wbp.population.ReproductionLaw):
            if "sample_generation" in vars(cls):
                self._patch(cls, "sample_generation", self._wrap_sample_generation(cls.sample_generation))
            if "sample_progeny" in vars(cls) and cls is not wbp.population.ReproductionLaw:
                self._patch(cls, "sample_progeny", self._wrap_sample_progeny(cls.sample_progeny))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last ``reset``."""
        s = self.stats

        def get(name):
            return s[name] if name in s else _Stat()

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {}
        rr = get("harness.run_replicates")
        out["harness.run_replicates.s"] = rr.self_s
        out["harness.run_replicates.replicates"] = int(rr.extra["replicates"])
        out["harness.run_replicates.us_per_replicate_gen"] = ratio(rr.total, rr.extra["replicate_gens"], 1e6)
        out["harness.run_replicates.capped"] = int(rr.extra["capped"])
        wr = get("harness.RunResult.write")
        out["harness.RunResult.write.s"] = wr.self_s
        out["harness.RunResult.write.bytes"] = int(wr.extra["bytes"])

        adv = get("population.advance_generation")
        out["population.advance_generation.calls"] = adv.calls
        out["population.advance_generation.self_s"] = adv.self_s
        out["population.advance_generation.children"] = int(adv.extra["children"])
        small = get("population.advance_generation.small")
        out["population.advance_generation.small.us_per_call"] = ratio(small.total, small.calls, 1e6)
        for bucket in ("mid", "large"):
            b = get(f"population.advance_generation.{bucket}")
            out[f"population.advance_generation.{bucket}.ns_per_child"] = ratio(
                b.total, b.extra["children"], 1e9
            )
        st = get("population.simulate_trajectory")
        out["population.simulate_trajectory.calls"] = st.calls
        out["population.simulate_trajectory.s"] = st.self_s

        for mod in _LAW_MODULES:
            sg = get(f"{mod}.sample_generation")
            out[f"{mod}.sample_generation.ns_per_child"] = ratio(sg.self_s, sg.extra["children"], 1e9)
            out[f"{mod}.sample_generation.us_per_call"] = ratio(sg.self_s, sg.calls, 1e6)
        sp = get("laws.sample_progeny")
        out["laws.sample_progeny.calls"] = sp.calls
        out["laws.sample_progeny.s"] = sp.self_s

        ds = get("streams.derive_stream")
        out["streams.derive_stream.calls"] = ds.calls
        out["streams.derive_stream.s"] = ds.self_s

        for fname in ("build_mean_kernel", "power_iteration", "kernel_power_apply"):
            f = get(f"spectral.{fname}")
            out[f"spectral.{fname}.calls"] = f.calls
            out[f"spectral.{fname}.s"] = f.self_s
        out["spectral.estimate_beta.s"] = get("spectral.estimate_beta").self_s
        out["spectral.attach_alpha.s"] = get("spectral.attach_alpha").self_s
        kern = get("spectral.build_mean_kernel")
        out["spectral.kernel.cells"] = int(kern.extra["cells"])
        out["spectral.kernel.nnz"] = int(kern.extra["nnz"])

        for fname in ("certify_md", "estimate_c3", "gamma_witness", "estimate_c1"):
            out[f"certify.{fname}.s"] = get(f"certify.{fname}").self_s
        out["certify.estimate_c3.draws"] = int(get("certify.estimate_c3").extra["draws"])

        hfk = get("llogl.hfk_partial_sums")
        out["llogl.hfk_partial_sums.s"] = hfk.self_s
        out["llogl.hfk_partial_sums.trajectories"] = int(hfk.extra["trajectories"])

        for fname in ("lp_error", "degeneracy_probe"):
            f = get(f"martingale.{fname}")
            out[f"martingale.{fname}.calls"] = f.calls
            out[f"martingale.{fname}.s"] = f.self_s
        out["martingale.martingale_increment_test.s"] = get("martingale.martingale_increment_test").self_s

        out["kernel_products.kernel_product_observable.s"] = get(
            "kernel_products.kernel_product_observable"
        ).self_s
        lai = get("lineage.lineage_average_increment")
        out["lineage.lineage_average_increment.calls"] = lai.calls
        out["lineage.lineage_average_increment.s"] = lai.self_s
        out["ifs.ifs_convergence_probe.s"] = get("ifs.ifs_convergence_probe").self_s
        out["ifs.doob_transition.s"] = get("ifs.doob_transition").self_s
        return out


def _law_classes(modules, base):
    seen = {}
    for mod in modules:
        for val in vars(mod).values():
            if inspect.isclass(val) and issubclass(val, base):
                seen[val] = None
    return list(seen)
