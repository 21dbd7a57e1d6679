"""Reduced-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload on its small input, once plain and once traced, for a
fraction of a second each, and checks what a run's consumer relies on: the
shape of the result line, that every gate and reproducibility check passed,
that the traced run reports every per-layer metric, that the wrappers return
what they wrap and are removed afterwards, and that ``BENCHMARK.json`` is the
document ``spec.py`` describes.  Exits with code 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run  # sets the BLAS thread count before numpy is imported
import spec


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_result(name: str, trace: bool, result: dict) -> None:
    where = f"{name} trace {int(trace)}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{where}: an operation failed")
    expect(result["attempted"] >= (3 if trace else 2), f"{where}: too few operations")
    wanted = spec.PER_LAYER if trace else [(m["name"], m["unit"]) for m in spec.END_TO_END]
    expect(list(result["metrics"]) == [w[0] for w in wanted], f"{where}: metric names")
    for metric_name, unit, *_ in wanted:
        metric = result["metrics"][metric_name]
        expect(metric["unit"] == unit, f"{where}: unit of {metric_name}")
        expect(math.isfinite(metric["value"]), f"{where}: {metric_name} not finite")
    if not trace:
        for metric_name in ("wall_s", "setup_s", "peak_rss_mb"):
            expect(result["metrics"][metric_name]["value"] > 0, f"{where}: {metric_name} is 0")


def check_layers(name: str, metrics: dict) -> None:
    """Counts that must be non-zero where the workload runs the layer."""
    nonzero = {
        "functional-p50": ["posterior.sample_inverse_wishart.draws", "posterior.draw_stack_bytes",
                           "posterior.sample_posterior.peak_mb", "functionals.evaluate_batch.s"],
        "projector-p20": ["projectors.ChiSquareMixture.cdf.evals",
                          "projectors.posterior_projector_statistic.peak_mb",
                          "datagen.estimate_delta_hat.s"],
        "vicinity-p3": ["posterior.rejection.proposals", "posterior.rejection.accepted",
                        "spd.spectral_norm.matrices", "diagnostics.estimate_contraction_radius.s"],
        "metropolis-p3": ["posterior.metropolis.step_us", "posterior.metropolis.prior_evals",
                          "posterior.metropolis.ess_per_s", "posterior.log_likelihood.calls"],
    }[name]
    for metric_name in nonzero:
        expect(metrics[metric_name]["value"] > 0, f"{name}: {metric_name} is 0")
    if name == "vicinity-p3":
        acceptance = metrics["posterior.rejection.acceptance"]["value"]
        accepted = metrics["posterior.rejection.accepted"]["value"]
        proposals = metrics["posterior.rejection.proposals"]["value"]
        expect(acceptance == accepted / proposals, "rejection acceptance is accepted / proposals")


def check_tracer() -> None:
    import numpy as np

    import covbvm.cli
    import covbvm.spd
    import tracing

    originals = (covbvm.cli.sample_posterior, covbvm.spd.spectral_norm,
                 covbvm.spd.SpdMatrix.__post_init__)
    tracer = tracing.Tracer()
    tracer.install()
    expect(covbvm.cli.sample_posterior is not originals[0], "cli binding not wrapped")
    mats = np.eye(3)[None] * np.arange(1.0, 5.0)[:, None, None]
    tracer.op = 7
    wrapped = covbvm.spd.spectral_norm(mats)
    tracer.op = None
    tracer.uninstall()
    expect(np.array_equal(wrapped, originals[1](mats)), "wrapper changed a result")
    expect(tracer.spans[0].attrs == {"matrices": 4}, "spectral_norm matrix count")
    expect((covbvm.cli.sample_posterior, covbvm.spd.spectral_norm,
            covbvm.spd.SpdMatrix.__post_init__) == originals, "uninstall left a wrapper")


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        expect(json.load(fh) == spec.benchmark_json(), "BENCHMARK.json differs from spec.py")
    expect(spec.make_config("vicinity-p3", 3) == spec.make_config("vicinity-p3", 3),
           "config generation is not deterministic")
    expect(spec.make_config("vicinity-p3", 3) != spec.make_config("vicinity-p3", 4),
           "the seed does not change the config")
    run._import_covbvm()
    check_tracer()
    for name in spec.WORKLOAD_NAMES:
        for trace in (False, True):
            result = run.run_workload(name, seed=0, seconds=0.1, trace=trace, small=True)
            check_result(name, trace, result)
            if trace:
                check_layers(name, result["metrics"])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
