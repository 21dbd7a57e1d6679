"""Configuration-driven experiment runner.

A single JSON config names the command and its sub-specs; outputs are a report
JSON, raw-statistic CSVs and a manifest recording the config hash and seed so
any run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import sys
import warnings

import numpy as np

from . import __version__
from .datagen import DatasetSpec, derived_seed, sample_dataset
from .diagnostics import (
    MIN_CONTRACTION_DRAWS,
    MIN_LAW_SIZE,
    budget_functional,
    budget_posterior_independence,
    budget_projector,
    default_statistic_battery,
    estimate_contraction_radius,
    flatness_profile,
    kolmogorov_distance,
    ks_resolution,
    max_kolmogorov_distance,
    statistic_columns,
)
from .errors import ConfigError, CovBvmError, LowDraws, PreconditionWarning
from .functionals import (
    evaluate,
    functional_from_json,
    functional_values,
    standardized_statistic,
)
from .posterior import (
    InverseWishartPrior,
    UniformVicinityPrior,
    default_sampler,
    sample_posterior,
)
from .projectors import posterior_projector_statistic, projector_bvm_check, projector_distances
from .spd import SpdMatrix, load_matrix_csv, vicinity_mask
from .spectral import EigenspaceSelection, model_from_spectrum, spectral_decompose

COMMANDS = (
    "bvm-functional",
    "bvm-projector",
    "contraction",
    "flatness",
    "bridge",
    "coverage",
    "budget",
)

SCHEMA_VERSION = 1
_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Config parsing


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return cfg[key]


def _number(value, where: str, integer: bool = False):
    """A config value as a float, or as an int with ``integer=True``.

    Raises ConfigError naming the field's path for anything that is not a JSON
    number (a string, a list, a boolean), and for a fractional value where an
    integer is needed.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: must be a number, got {value!r}")
    if not integer:
        return float(value)
    if value != int(value):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    return int(value)


def _number_list(values, where: str, integer: bool = False) -> list:
    """A config list of numbers, each converted by ``_number``."""
    if not isinstance(values, list):
        raise ConfigError(f"{where}: must be a list of numbers, got {values!r}")
    return [_number(x, f"{where}[{i}]", integer) for i, x in enumerate(values)]


def _require_finite(doc, where: str = "config") -> None:
    """Raise ConfigError at the first non-finite number in a parsed config.

    Python's JSON parser accepts ``Infinity`` and ``NaN`` and reads an
    overflowing literal such as ``1e400`` as inf; no config field takes one.
    """
    if isinstance(doc, float) and not math.isfinite(doc):
        raise ConfigError(f"{where}: must be a finite number, got {doc}")
    if isinstance(doc, dict):
        for key, value in doc.items():
            _require_finite(value, f"{where}.{key}")
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            _require_finite(value, f"{where}[{index}]")


def _build_model(doc: dict, base_dir: str):
    if "sigma_csv" in doc:
        try:
            sigma = load_matrix_csv(os.path.join(base_dir, doc["sigma_csv"]))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config.model.sigma_csv: {exc}") from exc
        return spectral_decompose(sigma, mults=doc.get("mult"))
    mu = _number_list(_require(doc, "mu", "config.model"), "config.model.mu")
    mult = _number_list(_require(doc, "mult", "config.model"), "config.model.mult", integer=True)
    rotation_seed = doc.get("rotation_seed")
    if rotation_seed is not None:
        rotation_seed = _number(rotation_seed, "config.model.rotation_seed", integer=True)
    return model_from_spectrum(mu, mult, rotation_seed=rotation_seed)


def _build_prior(doc: dict, model):
    kind = _require(doc, "kind", "config.prior")
    p = model.dim
    try:
        if kind == "inverse_wishart":
            scale_diag = _number(doc.get("scale_diag", 0.01), "config.prior.scale_diag")
            b = _number(doc.get("b", 2.0), "config.prior.b")
            return InverseWishartPrior(SpdMatrix(scale_diag * np.eye(p)), b=b)
        if kind == "uniform_vicinity":
            delta = _number(_require(doc, "delta", "config.prior"), "config.prior.delta")
            return UniformVicinityPrior(model.sigma_star, delta)
    except ValueError as exc:
        raise ConfigError(f"config.prior: {exc}") from exc
    raise ConfigError(
        f"config.prior: unsupported kind {kind!r} (generic priors need a callable "
        "density and are not configurable from JSON)"
    )


def _build_data_spec(doc: dict, model, seed: int) -> DatasetSpec:
    try:
        return DatasetSpec(
            model=model,
            family=doc.get("family", "gaussian"),
            n=_number(_require(doc, "n", "config.data"), "config.data.n", integer=True),
            seed=_number(doc.get("seed", seed), "config.data.seed", integer=True),
        )
    except ValueError as exc:
        raise ConfigError(f"config.data: {exc}") from exc


def _build_selection(cfg: dict) -> EigenspaceSelection:
    doc = _require(cfg, "selection")

    def index(key):
        return _number(
            _require(doc, key, "config.selection"), f"config.selection.{key}", integer=True
        )

    return EigenspaceSelection(index("s_minus"), index("s_plus"))


def _monte_carlo(cfg: dict) -> dict:
    mc = cfg.get("monte_carlo", {})
    defaults = {"posterior_draws": 10_000, "replications": 100}
    return {
        key: _number(mc.get(key, default), f"config.monte_carlo.{key}", integer=True)
        for key, default in defaults.items()
    }


def _law_draws(mc: dict) -> int:
    """Posterior draws for a command that forms an empirical law of them."""
    draws = mc["posterior_draws"]
    if draws < MIN_LAW_SIZE:
        raise ConfigError(
            f"config.monte_carlo.posterior_draws: need at least {MIN_LAW_SIZE}, got {draws}"
        )
    return draws


def _delta_grid(cfg: dict) -> list[float]:
    """The increasing grid of contraction radii."""
    grid = _number_list(_require(cfg, "delta_grid"), "config.delta_grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"config.delta_grid: radii must be increasing, got {grid}")
    return grid


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_csv(path, header: str, *columns) -> None:
    """A header line, then one line per row of the float columns, each value
    written as its repr and the values of a row joined by commas."""
    texts = [map(repr, map(float, col)) for col in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*texts):
            fh.write(",".join(row) + "\n")


def _write_json(path, doc) -> None:
    # a non-finite number raises before the file is opened: JSON has none
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a vector, 0.5 erfc(-x / sqrt(2)).

    By ``math.erfc``, so that the command loads no scipy module; it agrees
    with ``scipy.special.ndtr`` to within 2.2e-16, tails included.  A
    memoryview yields the values as Python floats one at a time, where
    ``tolist`` would hold them all and raise the peak resident memory.
    """
    return np.fromiter(
        (0.5 * math.erfc(-v / _SQRT2) for v in memoryview(x)), dtype=np.float64, count=len(x)
    )


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_bvm_functional(cfg, model, out_dir, tag, seed):
    mc = _monte_carlo(cfg)
    data_spec = _build_data_spec(_require(cfg, "data"), model, seed)
    prior = _build_prior(_require(cfg, "prior"), model)
    functional = functional_from_json(model, _require(cfg, "functional"))
    dataset = sample_dataset(data_spec)
    draws = sample_posterior(default_sampler(prior, dataset, seed=seed), _law_draws(mc))
    law = standardized_statistic(functional, draws, dataset)
    ks = kolmogorov_distance(law, _normal_cdf)
    csv_path = os.path.join(out_dir, "statistic.csv")
    _write_csv(csv_path, f"standardized_{functional.kind} config={tag}", law.values)
    report = {
        "command": "bvm-functional",
        "ks": ks,
        "ks_resolution": ks_resolution(len(law)),
        "n": data_spec.n,
        "posterior_draws": mc["posterior_draws"],
        "functional": functional.kind,
        "normalizer": functional.normalizer,
    }
    return report, ["statistic.csv"]


def _cmd_bvm_projector(cfg, model, out_dir, tag, seed):
    mc = _monte_carlo(cfg)
    data_spec = _build_data_spec(_require(cfg, "data"), model, seed)
    prior = _build_prior(_require(cfg, "prior"), model)
    sel = _build_selection(cfg)
    l_star = _number(_require(cfg, "l_star_j"), "config.l_star_j")
    result = projector_bvm_check(model, sel, prior, data_spec, _law_draws(mc), l_star, seed=seed)
    law = result.statistic.law
    csv_path = os.path.join(out_dir, "statistic.csv")
    _write_csv(csv_path, f"projector_statistic config={tag}", law.values)
    report = {
        "command": "bvm-projector",
        "ks": result.ks_distance,
        "ks_resolution": ks_resolution(len(law)),
        "budget": result.budget.to_json_dict(),
        "precondition_ok": result.precondition_ok,
        "delta_hat": result.delta_hat,
        "near_degenerate_draws": result.statistic.near_degenerate_count,
        "eigh_fallback_draws": result.statistic.eigh_fallback_count,
    }
    return report, ["statistic.csv"]


def _cmd_contraction(cfg, model, out_dir, tag, seed):
    mc = _monte_carlo(cfg)
    data_spec = _build_data_spec(_require(cfg, "data"), model, seed)
    prior = _build_prior(_require(cfg, "prior"), model)
    grid = _delta_grid(cfg)
    draws = mc["posterior_draws"]
    if draws < MIN_CONTRACTION_DRAWS:
        raise ConfigError(
            "config.monte_carlo.posterior_draws: contraction needs at least "
            f"{MIN_CONTRACTION_DRAWS} per grid point, got {draws}"
        )
    if model.dim / data_spec.n > 0.1:
        warnings.warn(
            f"p/n = {model.dim / data_spec.n:.3f} > 0.1; the contraction bound's "
            "implicit constant may not apply",
            PreconditionWarning,
        )
    radius = estimate_contraction_radius(
        prior, data_spec, grid, draws, mc["replications"], seed=seed
    )
    report = {
        "command": "contraction",
        "radius": radius if math.isfinite(radius) else "inf",
        "delta_grid": grid,
        "replications": mc["replications"],
    }
    return report, []


def _cmd_flatness(cfg, model, out_dir, tag, seed):
    mc = _monte_carlo(cfg)
    prior = _build_prior(_require(cfg, "prior"), model)
    grid = _number_list(_require(cfg, "delta_grid"), "config.delta_grid")
    if any(d <= 0 for d in grid):
        raise ConfigError(f"config.delta_grid: flatness radii must be positive, got {grid}")
    rho = flatness_profile(prior, model, grid, mc["replications"], seed=seed)
    _write_csv(os.path.join(out_dir, "flatness.csv"), "delta,rho", grid, rho)
    report = {"command": "flatness", "delta_grid": grid, "rho": [float(x) for x in rho]}
    return report, ["flatness.csv"]


def _cmd_bridge(cfg, model, out_dir, tag, seed):
    mc = _monte_carlo(cfg)
    data_spec = _build_data_spec(_require(cfg, "data"), model, seed)
    conj_prior = _build_prior(cfg.get("prior", {"kind": "inverse_wishart"}), model)
    if not isinstance(conj_prior, InverseWishartPrior):
        raise ConfigError("config.prior: bridge runs compare against a conjugate prior")
    n = data_spec.n
    delta_bar = cfg.get("delta_bar")
    if delta_bar is None:
        delta_bar = estimate_contraction_radius(
            conj_prior, data_spec, _delta_grid(cfg), max(1000, mc["posterior_draws"] // 4),
            min(mc["replications"], 20), seed=derived_seed(seed, 0),
        )
        if not math.isfinite(delta_bar):
            raise ConfigError(
                "config.delta_grid: no grid radius holds the mass; widen the grid "
                "or give delta_bar"
            )
    elif _number(delta_bar, "config.delta_bar") <= 0:
        raise ConfigError(f"config.delta_bar: must be positive, got {delta_bar}")
    dataset = sample_dataset(data_spec)
    conj = sample_posterior(default_sampler(conj_prior, dataset, seed=seed), mc["posterior_draws"])
    battery = default_statistic_battery()
    # one pass over the conjugate draws: their battery columns and which lie
    # in the vicinity, so the localized law is the masked columns
    parts = conj.map(lambda mats: (statistic_columns(mats, battery),
                                   vicinity_mask(mats, model.sigma_star, delta_bar)))
    columns = np.concatenate([cols for cols, _ in parts])
    inside = np.concatenate([mask for _, mask in parts])
    uniform_prior = UniformVicinityPrior(model.sigma_star, delta_bar)
    uniform = sample_posterior(
        default_sampler(uniform_prior, dataset, seed=derived_seed(seed, 1)), mc["posterior_draws"]
    )
    report = {
        "command": "bridge",
        "delta_bar": float(delta_bar),
        "localized_vs_full": max_kolmogorov_distance(columns[inside], columns),
        "uniform_vs_conjugate": max_kolmogorov_distance(
            statistic_columns(uniform, battery), columns
        ),
        "localization_bound": 2.0 / n,
        "n": n,
    }
    return report, []


def _posterior_interval(values: np.ndarray, level: float):
    lo = float(np.quantile(values, (1 - level) / 2))
    hi = float(np.quantile(values, 1 - (1 - level) / 2))
    return lo, hi


def _cmd_coverage(cfg, model, out_dir, tag, seed):
    mc = _monte_carlo(cfg)
    data_spec = _build_data_spec(_require(cfg, "data"), model, seed)
    prior = _build_prior(_require(cfg, "prior"), model)
    level = _number(cfg.get("nominal_level", 0.95), "config.nominal_level")
    reps = mc["replications"]
    if reps < 100:
        raise ConfigError("config.monte_carlo.replications: coverage needs at least 100")
    draws_per_rep = mc["posterior_draws"]
    notes = []
    functional = None
    sel = None
    if "functional" in cfg:
        functional = functional_from_json(model, cfg["functional"])
        truth = evaluate(functional, model.sigma_star)
        if draws_per_rep < 100:
            msg = f"only {draws_per_rep} posterior draws per replication; quantiles unreliable"
            warnings.warn(msg, LowDraws)
            notes.append(msg)
    elif "selection" in cfg:
        sel = _build_selection(cfg)
        draws_per_rep = _law_draws(mc)
        truth = model.sigma_star.entries[None]
    else:
        raise ConfigError("config: coverage needs a functional or a selection")
    hits = 0
    widths = np.empty(reps)
    for k in range(reps):
        dataset = sample_dataset(data_spec, seed_branch=k)
        draws = sample_posterior(
            default_sampler(prior, dataset, seed=derived_seed(seed, k)), draws_per_rep
        )
        if functional is not None:
            vals = functional_values(functional, draws)
            lo, hi = _posterior_interval(vals, level)
            hits += lo <= truth <= hi
            widths[k] = hi - lo
        else:
            stat = posterior_projector_statistic(model, sel, draws, dataset)
            # the ground truth is scored by the distance that scores the draws
            truth_stat = projector_distances(model, sel, truth, dataset)[0][0]
            q = float(np.quantile(stat.law.values, level))
            hits += truth_stat <= q
            widths[k] = q
    report = {
        "command": "coverage",
        "nominal_level": level,
        "replications": reps,
        "empirical_coverage": hits / reps,
        # Hoeffding's bound on a proportion of R replications has the DKW form
        "coverage_resolution": ks_resolution(reps),
        "interval_widths": {
            "mean": float(np.mean(widths)),
            "median": float(np.median(widths)),
            "max": float(np.max(widths)),
        },
        "warnings": notes,
    }
    return report, []


def _cmd_budget(cfg, model, out_dir, tag, seed):
    doc = _require(cfg, "budget")
    context = _require(doc, "context", "config.budget")

    def field(key, integer=False):
        return _number(_require(doc, key, "config.budget"), f"config.budget.{key}", integer)

    n = field("n", integer=True)
    if n < 1:
        raise ConfigError(f"config.budget.n: must be positive, got {n}")
    if context == "posterior_independence":
        rho, rho_w = field("rho"), field("rho_w")
        try:
            budget = budget_posterior_independence(rho, rho_w, n)
        except ValueError as exc:
            raise ConfigError(f"config.budget: {exc}") from exc
    elif context == "functional":
        functional = functional_from_json(model, _require(cfg, "functional"))
        budget = budget_functional(
            model,
            functional,
            n,
            field("delta_w"),
            field("delta_hat"),
            field("delta_tilde"),
            _number(doc.get("g_norm_scaled", 0.0), "config.budget.g_norm_scaled"),
        )
    elif context == "projector":
        budget = budget_projector(
            model,
            _build_selection(cfg),
            n,
            model.dim,
            field("delta_hat"),
            _number(doc.get("g_norm", 0.0), "config.budget.g_norm"),
            _number(_require(cfg, "l_star_j"), "config.l_star_j"),
        )
    else:
        raise ConfigError(f"config.budget.context: unknown context {context!r}")
    return {"command": "budget", **budget.to_json_dict()}, []


_DISPATCH = {
    "bvm-functional": _cmd_bvm_functional,
    "bvm-projector": _cmd_bvm_projector,
    "contraction": _cmd_contraction,
    "flatness": _cmd_flatness,
    "bridge": _cmd_bridge,
    "coverage": _cmd_coverage,
    "budget": _cmd_budget,
}


# ---------------------------------------------------------------------------
# Entry point


def run(cfg: dict, config_dir: str = ".", out_override=None, seed_override=None) -> dict:
    """Validate and execute one experiment config; returns the report dict."""
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, "
            f"got {cfg.get('schema_version')!r}"
        )
    _require_finite(cfg)
    command = _require(cfg, "command")
    if command not in COMMANDS:
        raise ConfigError(f"config.command: unknown command {command!r}")
    if seed_override is not None:
        cfg = {**cfg, "seed": int(seed_override)}
    if "seed" not in cfg:
        raise ConfigError("config.seed: a seed is mandatory")
    seed = _number(cfg["seed"], "config.seed", integer=True)
    out_dir = out_override or cfg.get("output_dir", "out")
    os.makedirs(out_dir, exist_ok=True)
    model = _build_model(_require(cfg, "model"), config_dir)
    tag = config_hash(cfg)
    report, outputs = _DISPATCH[command](cfg, model, out_dir, tag, seed)
    _write_json(os.path.join(out_dir, "report.json"), report)
    manifest = {
        "config_sha256": tag,
        "seed": seed,
        "command": command,
        "outputs": ["report.json", *outputs],
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="covbvm", description="covariance BvM experiment runner"
    )
    parser.add_argument("--config", required=True, help="path to the experiment JSON")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.config}: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(
            cfg,
            config_dir=os.path.dirname(os.path.abspath(args.config)),
            out_override=args.out,
            seed_override=args.seed,
        )
    except ConfigError as exc:
        print(f"{args.config}: {exc}", file=sys.stderr)
        return 2
    except CovBvmError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
