"""Spans around covbvm's public functions, recorded from outside the package.

Modules import names directly (``from .posterior import sample_posterior`` in
``cli``, ``functionals`` and others), so a function is replaced at every
module that binds it, not only where it is defined.  Methods are replaced on
their class.  A wrapper records a span (name, start, end, parent span, the
operation it ran in, and counts read from the call's arguments or result) and
returns the wrapped call's result unchanged.  Spans stay in memory until the
run ends.

Outside an operation (``Tracer.op is None``) the wrappers only call through.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

from mcstats import bulk_ess


def _inverse_wishart_counts(result, scale, dof, count, *args, **kwargs):
    # computed, not measured: the float64 stack the call returns
    return {"draws": count, "stack_bytes": count * scale.dim * scale.dim * 8}


def _posterior_counts(result, sampler, count, *args, **kwargs):
    method = sampler.method
    attrs = {"method": type(method).__name__, "returned": len(result)}
    if attrs["method"] == "Metropolis":
        attrs["steps"] = method.burn_in + count * method.thin
        attrs["trace"] = np.trace(result.matrices, axis1=-2, axis2=-1)
    return attrs


def _stack_counts(result, a, *args, **kwargs):
    shape = np.shape(a)
    return {"matrices": int(np.prod(shape[:-2]))}


def _cdf_counts(result, self, x, *args, **kwargs):
    return {"evals": int(np.size(x))}


def _sample_counts(result, self, count, *args, **kwargs):
    return {"draws": count}


# (span name, defining module, attribute, counter, measure peak memory)
FUNCTIONS = [
    ("cli.run", "covbvm.cli", "run", None, False),
    ("spectral.model_from_spectrum", "covbvm.spectral", "model_from_spectrum", None, False),
    ("spectral.build_gamma", "covbvm.spectral", "build_gamma", None, False),
    ("datagen.sample_dataset", "covbvm.datagen", "sample_dataset", None, False),
    ("datagen.estimate_delta_hat", "covbvm.datagen", "estimate_delta_hat", None, False),
    ("posterior.sample_posterior", "covbvm.posterior", "sample_posterior", _posterior_counts, True),
    ("posterior.sample_inverse_wishart", "covbvm.posterior", "sample_inverse_wishart",
     _inverse_wishart_counts, False),
    ("posterior.localize_draws", "covbvm.posterior", "localize_draws", None, False),
    ("posterior.log_likelihood", "covbvm.posterior", "log_likelihood", None, False),
    ("spd.spectral_norm", "covbvm.spd", "spectral_norm", _stack_counts, False),
    ("functionals.standardized_statistic", "covbvm.functionals", "standardized_statistic",
     None, False),
    ("functionals.evaluate_batch", "covbvm.functionals", "evaluate_batch", None, False),
    ("projectors.posterior_projector_statistic", "covbvm.projectors",
     "posterior_projector_statistic", None, True),
    ("diagnostics.kolmogorov_distance", "covbvm.diagnostics", "kolmogorov_distance", None, False),
    ("diagnostics.tv_distance_over_statistics", "covbvm.diagnostics",
     "tv_distance_over_statistics", None, False),
    ("diagnostics.estimate_contraction_radius", "covbvm.diagnostics",
     "estimate_contraction_radius", None, False),
]

# (span name, defining module, class, method, counter)
METHODS = [
    # every SpdMatrix construction runs __post_init__, which calls eigvalsh
    ("spd.SpdMatrix", "covbvm.spd", "SpdMatrix", "__post_init__", None),
    ("projectors.ChiSquareMixture.cdf", "covbvm.projectors", "ChiSquareMixture", "cdf",
     _cdf_counts),
    ("projectors.ChiSquareMixture.sample", "covbvm.projectors", "ChiSquareMixture", "sample",
     _sample_counts),
    ("posterior.InverseWishartPrior.log_density", "covbvm.posterior", "InverseWishartPrior",
     "log_density", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "peak")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = None
        self.peak = None


class Tracer:
    """Wraps covbvm's public functions and keeps the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        # tracemalloc makes every Python allocation slower (a Metropolis step
        # about four times), so peaks are measured only when this is set
        self.measure_peaks = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter, peak):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = Span(name, tracer._stack[-1] if tracer._stack else -1, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(index)
            # nested peak spans are not measured: resetting the peak would
            # corrupt the enclosing one
            own_trace = peak and tracer.measure_peaks and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            try:
                span.start = time.perf_counter()
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if own_trace:
                    span.peak = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                tracer._stack.pop()
            if counter is not None:
                span.attrs = counter(result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "covbvm" or k.startswith("covbvm."))]
        for name, home, attr, counter, peak in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original, counter, peak)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, home, cls_name, meth, counter in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, counter, False))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write_csv(self, path) -> None:
        """One line per span: name, start, end, parent index, operation."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.op}\n")

    def layer_metrics(self, ops, names) -> dict[int, dict[str, float]]:
        """The named per-layer metrics of the given operations, keyed by operation."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        # nearest enclosing sample_posterior span, which tells which sampler
        # a proposal or a density evaluation served
        sampler_of = [-1] * len(spans)
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
                parent = spans[s.parent]
                sampler_of[i] = (s.parent if parent.name == "posterior.sample_posterior"
                                 else sampler_of[s.parent])
        by_op: dict[int, list[int]] = {op: [] for op in ops}
        for i, s in enumerate(spans):
            by_op.setdefault(s.op, []).append(i)
        return {op: self._op_metrics(by_op[op], child_time, sampler_of, names) for op in ops}

    def _op_metrics(self, indices, child_time, sampler_of, names) -> dict[str, float]:
        spans = self.spans
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        summed: dict[str, float] = {}
        peaks: dict[str, float] = {}
        proposals = accepted = prior_evals = 0
        chain_s = steps = ess = 0.0
        stack_bytes = 0
        for i in indices:
            s = spans[i]
            dur = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + dur
            own[s.name] = own.get(s.name, 0.0) + dur - child_time[i]
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.peak is not None:
                peaks[s.name] = max(peaks.get(s.name, 0.0), s.peak / 2**20)
            attrs = s.attrs or {}
            for key in ("draws", "matrices", "evals"):
                if key in attrs:
                    summed[f"{s.name}.{key}"] = summed.get(f"{s.name}.{key}", 0) + attrs[key]
            owner = (spans[sampler_of[i]].attrs or {}).get("method") if sampler_of[i] >= 0 else None
            if s.name == "posterior.sample_inverse_wishart" and attrs:
                stack_bytes = max(stack_bytes, attrs["stack_bytes"])
                if owner == "RejectionInVicinity":
                    proposals += attrs["draws"]
            elif s.name == "posterior.InverseWishartPrior.log_density" and owner == "Metropolis":
                prior_evals += 1
            elif s.name == "posterior.sample_posterior":
                if attrs.get("method") == "RejectionInVicinity":
                    accepted += attrs["returned"]
                elif attrs.get("method") == "Metropolis":
                    chain_s += dur
                    steps += attrs["steps"]
                    ess += bulk_ess(attrs["trace"])

        iw_s = total.get("posterior.sample_inverse_wishart", 0.0)
        derived = {
            "posterior.sample_inverse_wishart.draws_per_s":
                summed.get("posterior.sample_inverse_wishart.draws", 0) / iw_s if iw_s else 0.0,
            "posterior.draw_stack_bytes": stack_bytes,
            "posterior.rejection.proposals": proposals,
            "posterior.rejection.accepted": accepted,
            "posterior.rejection.acceptance": accepted / proposals if proposals else 0.0,
            "posterior.metropolis.step_us": 1e6 * chain_s / steps if steps else 0.0,
            "posterior.metropolis.prior_evals": prior_evals,
            "posterior.metropolis.ess_per_s": ess / chain_s if chain_s else 0.0,
        }
        # the rest are named <span>.<kind>; a span that did not run reports 0
        tables = {"s": total, "self_s": own, "calls": calls, "peak_mb": peaks}
        metrics = {}
        for name in names:
            span, _, kind = name.rpartition(".")
            if name in derived:
                metrics[name] = derived[name]
            elif kind in tables:
                metrics[name] = tables[kind].get(span, 0)
            else:
                metrics[name] = summed.get(name, 0)
        return metrics
