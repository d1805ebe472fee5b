"""Spans and counters for the traced run, recorded from outside the library.

Each public entry point of a layer is wrapped where its caller looks it up:
a module global for functions (``deltapipe.s_c_dual`` is what
``dual_identity_check`` calls), the class for methods (``DualKernel.udag_row``).
A span is [name, start, end, parent index]; spans stay in memory and are
written out once, when the run ends. Self time is a span's duration minus
the durations of its direct children (the run is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name, fn, after=None):
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(counters, args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def install(self):
        """Wrap the layer entry points of every module the workloads reach."""
        from weyldelta import deltapipe, forms, lfunc, specialfn, statphase, testfn, voronoi

        def keep_max(key, value_of):
            def after(counters, args, kwargs, out):
                counters[key] = max(counters[key], value_of(args, kwargs, out))

            return after

        def add(key, value_of):
            def after(counters, args, kwargs, out):
                counters[key] += value_of(args, kwargs, out)

            return after

        def integrate_counts(counters, args, kwargs, out):
            counters["oscillate.cells"] += out.cells
            counters["oscillate.budget_exhausted"] += bool(out.budget_exhausted)

        def dual_n_cut(args, kwargs, out):
            form, cfg, c = args[:3]
            return kwargs.get("n_cut") or cfg.resolved_n_cut(c, form.level)

        self.patch(forms, "delta_form", "forms.delta_form",
                   add("forms.coefficients", lambda a, k, out: out.n_max))

        wt = voronoi.WhatTransform
        self.patch(wt, "__init__", "voronoi.transform_build",
                   keep_max("voronoi.transform_tau_nodes", lambda a, k, out: len(a[0].tau_nodes)))
        self.patch(wt, "eval", "voronoi.transform_eval")
        self.patch(voronoi, "calibrate_eta", "voronoi.calibrate")
        self.patch(voronoi, "direct_side", "voronoi.direct_side")
        self.patch(voronoi, "dual_side", "voronoi.dual_side",
                   add("voronoi.rhs_terms", lambda a, k, out: out[1]))
        self.patch(voronoi, "voronoi_check", "voronoi.cell")

        dk = deltapipe.DualKernel

        def kernel_sizes(counters, args, kwargs, out):
            counters["deltapipe.tau_nodes"] = max(counters["deltapipe.tau_nodes"], len(args[0].tau_nodes))
            counters["deltapipe.x_nodes"] = max(counters["deltapipe.x_nodes"], len(args[0].x_nodes))

        self.patch(dk, "__init__", "deltapipe.dual_kernel", kernel_sizes)
        self.patch(dk, "_build_tau_tables", "deltapipe.vdag")
        self.patch(dk, "istar_row", "deltapipe.istar_row")
        self.patch(dk, "udag_row", "deltapipe.udag_row")
        self.patch(dk, "gamma_on_grid", "deltapipe.gamma_on_grid")
        self.patch(deltapipe, "s_c_dual", "deltapipe.s_c_dual", keep_max("deltapipe.n_cut", dual_n_cut))
        self.patch(deltapipe, "s_c_direct", "deltapipe.s_c_direct")
        self.patch(deltapipe, "s_split", "deltapipe.s_split")
        self.patch(deltapipe, "averaged_delta", "deltapipe.averaged_delta")

        for module in (specialfn, voronoi, deltapipe):
            self.patch(module, "gamma_factor", "specialfn.gamma_factor")
        self.patch(lfunc, "log_gamma", "specialfn.log_gamma")

        self.patch(lfunc, "afe_value", "lfunc.afe_value",
                   add("lfunc.n_afe_total", lambda a, k, out: out.n_used))
        self.patch(lfunc, "afe_weight", "lfunc.afe_weight")
        self.patch(lfunc, "growth_scan", "lfunc.growth_scan",
                   add("lfunc.scan_points", lambda a, k, out: len(out.records)))

        for module in (statphase, deltapipe):
            self.patch(module, "integrate_1d", "oscillate.integrate_1d", integrate_counts)
        self.patch(statphase, "u_dagger_direct", "statphase.u_dagger_direct")
        self.patch(statphase, "u_dagger_asymptotic", "statphase.u_dagger_asymptotic")

        for attr in ("__call__", "derivative"):
            self.patch(testfn.SmoothWindow, attr, "testfn.window")

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return dict(out)

    def layer_metrics(self):
        """The per-layer metrics, from the recorded spans and counters."""
        durations = defaultdict(list)
        for name, start, end, _ in self.spans:
            durations[name].append(end - start)
        self_s = self.self_times()
        from weyldelta import deltapipe

        hits = deltapipe._fourier_v.cache_info()
        counters = dict(self.counters)
        counters["deltapipe.fourier_v_hits"] = hits.hits
        counters["deltapipe.fourier_v_misses"] = hits.misses

        def total(name):
            return sum(durations.get(name, ()), 0.0)

        cells = durations.get("voronoi.cell", [0.0])
        metrics = {
            "forms.delta_form_s": total("forms.delta_form"),
            "voronoi.transform_build_s": total("voronoi.transform_build"),
            "voronoi.calibrate_s": total("voronoi.calibrate"),
            "voronoi.direct_side_s": total("voronoi.direct_side"),
            "voronoi.dual_side_s": total("voronoi.dual_side"),
            "voronoi.transform_eval_s": total("voronoi.transform_eval"),
            "voronoi.cell_s.p50": statistics.median(cells),
            "voronoi.cell_s.max": max(cells),
            "deltapipe.s_c_dual_self_s": self_s.get("deltapipe.s_c_dual", 0.0),
            "deltapipe.vdag_s": total("deltapipe.vdag"),
            "deltapipe.istar_row_s": self_s.get("deltapipe.istar_row", 0.0),
            "deltapipe.udag_row_s": total("deltapipe.udag_row"),
            "deltapipe.s_c_direct_s": total("deltapipe.s_c_direct"),
            "deltapipe.s_split_s": total("deltapipe.s_split"),
            "deltapipe.averaged_delta_s": total("deltapipe.averaged_delta"),
            "specialfn.gamma_factor_calls": len(durations.get("specialfn.gamma_factor", ())),
            "specialfn.gamma_factor_s": total("specialfn.gamma_factor"),
            "specialfn.log_gamma_calls": len(durations.get("specialfn.log_gamma", ())),
            "specialfn.log_gamma_s": total("specialfn.log_gamma"),
            "lfunc.afe_value_s": total("lfunc.afe_value"),
            "lfunc.afe_weight_s": total("lfunc.afe_weight"),
            "oscillate.integrate_1d_calls": len(durations.get("oscillate.integrate_1d", ())),
            "oscillate.integrate_1d_s": total("oscillate.integrate_1d"),
            "statphase.u_dagger_direct_s": total("statphase.u_dagger_direct"),
            "statphase.u_dagger_asymptotic_s": total("statphase.u_dagger_asymptotic"),
            "testfn.window_calls": len(durations.get("testfn.window", ())),
            "testfn.window_s": total("testfn.window"),
        }
        for key in (
            "forms.coefficients", "voronoi.transform_tau_nodes", "voronoi.rhs_terms",
            "deltapipe.tau_nodes", "deltapipe.x_nodes", "deltapipe.n_cut",
            "deltapipe.fourier_v_hits", "deltapipe.fourier_v_misses", "lfunc.n_afe_total",
            "lfunc.scan_points", "oscillate.cells", "oscillate.budget_exhausted",
        ):
            metrics[key] = int(counters.get(key, 0))
        return metrics, self_s

    def write(self, path):
        """All spans of the run as one gzipped JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
