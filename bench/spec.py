"""Definition of the covbvm benchmark: workloads, their inputs, and metrics.

This module is the single source of truth for the benchmark.  ``run.py``
builds its inputs and prints its metrics from the tables below, and running

    python3 bench/spec.py

rewrites ``BENCHMARK.json`` at the repository root from them.

Importing it loads only the standard library, so ``run.py`` can set the BLAS
thread count before numpy is first imported.
"""

from __future__ import annotations

import json
import os

# Seconds of timed operations per run.  A run spends about 10 to 18 s beyond
# this (start-up, three set-up probes, the warm-up, the last operation running
# past the deadline), so 92 runs, as a full comparison makes, take about
# 2500 s on the 2-core host the baseline was measured on.
RUN_SECONDS = 15

# OpenBLAS threads the benchmark runs with.  The host the baseline was
# measured on has nproc = 2; one thread gave steadier per-operation times
# there than two, and the batched 50 x 50 LAPACK calls covbvm makes are too
# small for OpenBLAS to split across threads anyway.
BLAS_THREADS = 1

# Significance level of every correctness gate.  Each run repeats one input,
# so a run makes about one independent check per gate; at 1e-4 a correct
# program fails a gate by chance about once in ten thousand runs.
GATE_ALPHA = 1e-4

# Level at which the printed Monte Carlo resolution of stat_distance is given.
REPORT_ALPHA = 0.05

# One operation is one full command: config -> data -> posterior -> statistic
# -> distance to the reference -> report written.  The seeds in each config
# come from the benchmark's --seed through _seeds(); covbvm sees only the
# generated config.
WORKLOADS = [
    {
        "name": "functional-p50",
        "why": "bvm-functional trace, p=50, 20k conjugate draws: the Bartlett sampler and the 400 MB draw stack dominate time and memory",
    },
    {
        "name": "projector-p20",
        "why": "bvm-projector, p=20, unequal chi-square weights: batched eigh, the Monte Carlo reference CDF and 50 small datasets",
    },
    {
        "name": "vicinity-p3",
        "why": "bridge, p=3, estimated radius: contraction replications, then uniform-vicinity rejection at about 1% acceptance",
    },
    {
        "name": "metropolis-p3",
        "why": "library Metropolis chain with a generic prior, p=3, 12k steps: per-step Python and small LAPACK calls",
    },
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]

# vicinity-p3 estimates its contraction radius as the smallest grid point
# that holds all 50k replication draws, then rejects at an acceptance that
# falls like the eighth power of the Weyl cap ratio at that radius.  A radius
# that moved from seed to seed would change the work several-fold: at
# n = 4000 with a 0.05 step, one seed in ten got 0.2 instead of 0.15 and its
# operation took five times as long.  At n = 32000 the largest replication
# deviation lay between 0.041 and 0.058 over 20 seeds, so this grid gives the
# radius 0.15 for every seed, and rejection needs about 760k proposals for
# 10k draws (1.3%), as at n = 4000 with that radius.  The larger n also steadies the
# work between seeds: the proposals spread by 4% around their median, against
# 14% at n = 8000, because the acceptance follows det(S)^4.
VICINITY_N = 32000
VICINITY_GRID = [0.15, 0.25, 0.35]

# wall_s and setup_s are rescaled to a reference host speed (hostspeed.py).
# Even so, runs on ten seeds spread by up to 0.18 of their median (IQR)
# on the shared 2-core host, so both time bounds are the largest allowed.
# Peak memory repeats to within 1 MB.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# Per-layer metrics, each with the end-to-end metric it should move and the
# workloads on which it should move it.  Layers are covbvm's modules.  Every
# value is per operation (the median over the traced operations of a run).
# "computed_bytes" marks a size derived from call arguments, not measured.
PER_LAYER = [
    ("posterior.sample_inverse_wishart.s", "s", "lower", "wall_s", "functional-p50 vicinity-p3"),
    ("posterior.sample_inverse_wishart.calls", "count", "lower", "wall_s", "vicinity-p3"),
    ("posterior.sample_inverse_wishart.draws", "count", "lower", "wall_s", "functional-p50 vicinity-p3"),
    ("posterior.sample_inverse_wishart.draws_per_s", "1/s", "higher", "wall_s", "functional-p50 vicinity-p3"),
    ("posterior.draw_stack_bytes", "computed_bytes", "lower", "peak_rss_mb", "functional-p50"),
    ("posterior.sample_posterior.self_s", "s", "lower", "wall_s", "vicinity-p3 metropolis-p3"),
    ("posterior.sample_posterior.calls", "count", "lower", "wall_s", "vicinity-p3 metropolis-p3"),
    ("posterior.sample_posterior.peak_mb", "MB", "lower", "peak_rss_mb", "functional-p50"),
    ("posterior.rejection.proposals", "count", "lower", "wall_s", "vicinity-p3"),
    ("posterior.rejection.accepted", "count", "higher", "wall_s", "vicinity-p3"),
    ("posterior.rejection.acceptance", "ratio", "higher", "wall_s", "vicinity-p3"),
    ("posterior.localize_draws.s", "s", "lower", "wall_s", "vicinity-p3"),
    ("posterior.log_likelihood.calls", "count", "lower", "wall_s", "metropolis-p3"),
    ("posterior.log_likelihood.self_s", "s", "lower", "wall_s", "metropolis-p3"),
    ("posterior.metropolis.step_us", "us", "lower", "wall_s", "metropolis-p3"),
    ("posterior.metropolis.prior_evals", "count", "lower", "wall_s", "metropolis-p3"),
    ("posterior.metropolis.ess_per_s", "1/s", "higher", "wall_s stat_distance", "metropolis-p3"),
    ("spd.spectral_norm.calls", "count", "lower", "wall_s", "vicinity-p3"),
    ("spd.spectral_norm.matrices", "count", "lower", "wall_s", "vicinity-p3"),
    ("spd.spectral_norm.self_s", "s", "lower", "wall_s", "vicinity-p3"),
    ("spd.SpdMatrix.calls", "count", "lower", "wall_s", "vicinity-p3 projector-p20"),
    ("spd.SpdMatrix.self_s", "s", "lower", "wall_s", "vicinity-p3 projector-p20"),
    ("datagen.sample_dataset.calls", "count", "lower", "wall_s", "projector-p20 vicinity-p3"),
    ("datagen.sample_dataset.self_s", "s", "lower", "wall_s", "projector-p20 vicinity-p3"),
    ("datagen.estimate_delta_hat.s", "s", "lower", "wall_s", "projector-p20"),
    ("functionals.standardized_statistic.s", "s", "lower", "wall_s", "functional-p50"),
    ("functionals.evaluate_batch.s", "s", "lower", "wall_s", "functional-p50"),
    ("projectors.posterior_projector_statistic.s", "s", "lower", "wall_s", "projector-p20"),
    ("projectors.posterior_projector_statistic.peak_mb", "MB", "lower", "peak_rss_mb", "projector-p20"),
    ("projectors.ChiSquareMixture.cdf.s", "s", "lower", "wall_s", "projector-p20"),
    ("projectors.ChiSquareMixture.cdf.evals", "count", "lower", "wall_s", "projector-p20"),
    ("projectors.ChiSquareMixture.sample.draws", "count", "lower", "wall_s stat_distance", "projector-p20"),
    ("diagnostics.kolmogorov_distance.self_s", "s", "lower", "wall_s", "vicinity-p3 metropolis-p3"),
    ("diagnostics.tv_distance_over_statistics.s", "s", "lower", "wall_s", "vicinity-p3 metropolis-p3"),
    ("diagnostics.estimate_contraction_radius.s", "s", "lower", "wall_s", "vicinity-p3"),
    ("spectral.model_from_spectrum.s", "s", "lower", "setup_s", "functional-p50 projector-p20 vicinity-p3 metropolis-p3"),
    ("spectral.build_gamma.s", "s", "lower", "setup_s", "projector-p20"),
    ("cli.run.self_s", "s", "lower", "wall_s", "functional-p50 projector-p20"),
    ("report.stat_distance", "KS", "lower", "stat_distance", "functional-p50 projector-p20 vicinity-p3 metropolis-p3"),
    ("trace.overhead_s", "s", "lower", "none", "functional-p50 projector-p20 vicinity-p3 metropolis-p3"),
]

PER_LAYER_NAMES = [m[0] for m in PER_LAYER]


def _seeds(seed: int, workload: str) -> list[int]:
    """Four independent 31-bit seeds for one workload, derived from --seed:
    rotation, data and sampler seeds of the config, then the gates' oracle."""
    import numpy as np

    index = WORKLOAD_NAMES.index(workload)
    state = np.random.SeedSequence([int(seed), index]).generate_state(4)
    return [int(s) >> 1 for s in state]


def make_config(workload: str, seed: int, small: bool = False) -> dict:
    """The generated input of one workload.  small=True is the self-test size."""
    rotation, data_seed, run_seed, _ = _seeds(seed, workload)
    base = {"schema_version": 1, "seed": run_seed}
    gaussian = "gaussian"
    if workload == "functional-p50":
        return {
            **base,
            "command": "bvm-functional",
            "model": {"mu": [4.0, 2.0, 1.0], "mult": [1, 2, 3] if small else [5, 15, 30],
                      "rotation_seed": rotation},
            "data": {"n": 800 if small else 5000, "family": gaussian, "seed": data_seed},
            "prior": {"kind": "inverse_wishart", "scale_diag": 0.01, "b": 2.0},
            "functional": {"kind": "trace"},
            "monte_carlo": {"posterior_draws": 1000 if small else 20_000},
        }
    if workload == "projector-p20":
        return {
            **base,
            "command": "bvm-projector",
            "model": {"mu": [4.0, 2.0, 1.0], "mult": [1, 2, 3] if small else [2, 6, 12],
                      "rotation_seed": rotation},
            "data": {"n": 800 if small else 5000, "family": gaussian, "seed": data_seed},
            "prior": {"kind": "inverse_wishart", "scale_diag": 0.01, "b": 2.0},
            "selection": {"s_minus": 1, "s_plus": 1},
            "l_star_j": 1.0,
            "monte_carlo": {"posterior_draws": 1000 if small else 20_000,
                            "reference_draws": 10_000 if small else 100_000},
        }
    if workload == "vicinity-p3":
        return {
            **base,
            "command": "bridge",
            "model": {"mu": [4.0, 1.0], "mult": [1, 2], "rotation_seed": rotation},
            "data": {"n": VICINITY_N, "family": gaussian, "seed": data_seed},
            "prior": {"kind": "inverse_wishart", "scale_diag": 0.01, "b": 2.0},
            "delta_grid": VICINITY_GRID,
            "monte_carlo": {"posterior_draws": 4000 if small else 10_000, "replications": 20},
        }
    if workload == "metropolis-p3":
        # Not a CLI command: generic priors cannot be given in JSON, so the
        # benchmark reads this config and calls the library with it.
        return {
            **base,
            "command": "metropolis",
            "model": {"mu": [4.0, 1.0], "mult": [1, 2], "rotation_seed": rotation},
            # vicinity-p3's model at n = 4000, where the chain's bulk ESS is
            # 100 to 400 of 2000 draws
            "data": {"n": 4000, "family": gaussian, "seed": data_seed},
            # the prior is default_inverse_wishart_prior(p) behind GenericPrior,
            # sampled with Metropolis() defaults
            "monte_carlo": {"posterior_draws": 500 if small else 2000,
                            "exact_draws": 5000 if small else 20_000},
        }
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOAD_NAMES}")


def benchmark_json() -> dict:
    """The BENCHMARK.json document described by the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
