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
from .errors import BadDimension, ConfigError, CovBvmError, LowDraws, PreconditionWarning
from .functionals import (
    FunctionalSpec,
    eigenvalue_cluster_functional,
    entry_functional,
    evaluate,
    functional_values,
    linear_functional,
    log_det_functional,
    standardized_statistic,
    trace_functional,
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


def _field(doc, key: str, where: str, default=...):
    """``doc[key]`` of the config section at path ``where``, or ``default``.

    Raises ConfigError naming ``where`` when the section is not a JSON object,
    or when it lacks the key and no default is given (``...``).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {doc!r}")
    if key in doc:
        return doc[key]
    if default is ...:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return default


def _numeric(value, where: str, integer: bool, ndim: int):
    """A config value as a float, or an int with ``integer=True``; with
    ``ndim`` d > 0, as a list of such values nested d deep.  Raises
    ConfigError naming the value's path for anything else (a string, a
    boolean, a number where a list is needed, a fraction where an integer is).
    """
    if ndim:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: must be a list, got {value!r}")
        return [_numeric(x, f"{where}[{i}]", integer, ndim - 1) for i, x in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: must be a number, got {value!r}")
    if not integer:
        return float(value)
    if value != int(value):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    return int(value)


def _number(doc, key: str, where: str, default=..., integer=False, ndim=0):
    """Field ``key`` of section ``where`` through ``_numeric``.  A default,
    taken by an absent key or by a null where the default is null, is
    returned as it stands."""
    value = _field(doc, key, where, default)
    return value if value is default else _numeric(value, f"{where}.{key}", integer, ndim)


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


def _build_model(doc, base_dir: str):
    where = "config.model"
    path = _field(doc, "sigma_csv", where, None)
    if path is None:
        return model_from_spectrum(
            _number(doc, "mu", where, ndim=1),
            _number(doc, "mult", where, integer=True, ndim=1),
            rotation_seed=_number(doc, "rotation_seed", where, None, integer=True),
        )
    if not isinstance(path, str):
        raise ConfigError(f"{where}.sigma_csv: must be a path, got {path!r}")
    mults = _number(doc, "mult", where, None, integer=True, ndim=1)
    try:
        sigma = load_matrix_csv(os.path.join(base_dir, path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}.sigma_csv: {exc}") from exc
    return spectral_decompose(sigma, mults=mults)


def _build_prior(doc, model):
    where = "config.prior"
    kind = _field(doc, "kind", where)
    try:
        if kind == "inverse_wishart":
            scale_diag = _number(doc, "scale_diag", where, 0.01)
            b = _number(doc, "b", where, 2.0)
            return InverseWishartPrior(SpdMatrix(scale_diag * np.eye(model.dim)), b=b)
        if kind == "uniform_vicinity":
            return UniformVicinityPrior(model.sigma_star, _number(doc, "delta", where))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}: unsupported kind {kind!r} (generic priors need a callable "
        "density and are not configurable from JSON)"
    )


def _build_functional(doc, model) -> FunctionalSpec:
    where = "config.functional"
    kind = _field(doc, "kind", where)
    try:
        if kind == "trace":
            return trace_functional(model)
        if kind == "log_det":
            return log_det_functional(model)
        if kind == "entry":
            i, j = (_number(doc, key, where, integer=True) for key in ("i", "j"))
            return entry_functional(model, i, j)
        if kind == "eigenvalue_cluster":
            return eigenvalue_cluster_functional(model, _number(doc, "s", where, integer=True))
        if kind == "linear":
            phi, p = _number(doc, "phi", where, ndim=2), model.dim
            if len(phi) != p or any(len(row) != p for row in phi):
                raise ConfigError(f"{where}.phi: must be a {p} x {p} matrix, got {phi}")
            return linear_functional(model, np.array(phi))
    except BadDimension as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind: unknown functional kind {kind!r}")


def _build_data_spec(doc, model, seed: int) -> DatasetSpec:
    where = "config.data"
    try:
        return DatasetSpec(
            model=model,
            family=_field(doc, "family", where, "gaussian"),
            n=_number(doc, "n", where, integer=True),
            seed=_number(doc, "seed", where, seed, integer=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_selection(cfg: dict) -> EigenspaceSelection:
    doc = _field(cfg, "selection", "config")
    s_minus, s_plus = (
        _number(doc, key, "config.selection", integer=True) for key in ("s_minus", "s_plus")
    )
    return EigenspaceSelection(s_minus, s_plus)


def _monte_carlo(cfg: dict) -> dict:
    mc = _field(cfg, "monte_carlo", "config", {})
    defaults = {"posterior_draws": 10_000, "replications": 100}
    return {key: _number(mc, key, "config.monte_carlo", default, integer=True)
            for key, default in defaults.items()}


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
    grid = _number(cfg, "delta_grid", "config", ndim=1)
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
    data_spec = _build_data_spec(_field(cfg, "data", "config"), model, seed)
    prior = _build_prior(_field(cfg, "prior", "config"), model)
    functional = _build_functional(_field(cfg, "functional", "config"), model)
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
    data_spec = _build_data_spec(_field(cfg, "data", "config"), model, seed)
    prior = _build_prior(_field(cfg, "prior", "config"), model)
    sel = _build_selection(cfg)
    l_star = _number(cfg, "l_star_j", "config")
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
    data_spec = _build_data_spec(_field(cfg, "data", "config"), model, seed)
    prior = _build_prior(_field(cfg, "prior", "config"), model)
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
    prior = _build_prior(_field(cfg, "prior", "config"), model)
    grid = _number(cfg, "delta_grid", "config", ndim=1)
    if any(d <= 0 for d in grid):
        raise ConfigError(f"config.delta_grid: flatness radii must be positive, got {grid}")
    rho = flatness_profile(prior, model, grid, mc["replications"], seed=seed)
    _write_csv(os.path.join(out_dir, "flatness.csv"), "delta,rho", grid, rho)
    report = {"command": "flatness", "delta_grid": grid, "rho": [float(x) for x in rho]}
    return report, ["flatness.csv"]


def _cmd_bridge(cfg, model, out_dir, tag, seed):
    mc = _monte_carlo(cfg)
    data_spec = _build_data_spec(_field(cfg, "data", "config"), model, seed)
    conj_prior = _build_prior(_field(cfg, "prior", "config", {"kind": "inverse_wishart"}), model)
    if not isinstance(conj_prior, InverseWishartPrior):
        raise ConfigError("config.prior: bridge runs compare against a conjugate prior")
    n = data_spec.n
    delta_bar = _number(cfg, "delta_bar", "config", None)
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
    elif delta_bar <= 0:
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
    data_spec = _build_data_spec(_field(cfg, "data", "config"), model, seed)
    prior = _build_prior(_field(cfg, "prior", "config"), model)
    level = _number(cfg, "nominal_level", "config", 0.95)
    reps = mc["replications"]
    if reps < 100:
        raise ConfigError("config.monte_carlo.replications: coverage needs at least 100")
    draws_per_rep = mc["posterior_draws"]
    notes = []
    functional = None
    sel = None
    if "functional" in cfg:
        functional = _build_functional(cfg["functional"], model)
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
    doc = _field(cfg, "budget", "config")
    where = "config.budget"
    context = _field(doc, "context", where)
    n = _number(doc, "n", where, integer=True)
    if n < 1:
        raise ConfigError(f"config.budget.n: must be positive, got {n}")
    if context == "posterior_independence":
        rho, rho_w = _number(doc, "rho", where), _number(doc, "rho_w", where)
        try:
            budget = budget_posterior_independence(rho, rho_w, n)
        except ValueError as exc:
            raise ConfigError(f"config.budget: {exc}") from exc
    elif context == "functional":
        functional = _build_functional(_field(cfg, "functional", "config"), model)
        budget = budget_functional(
            model,
            functional,
            n,
            *(_number(doc, key, where) for key in ("delta_w", "delta_hat", "delta_tilde")),
            _number(doc, "g_norm_scaled", where, 0.0),
        )
    elif context == "projector":
        budget = budget_projector(
            model,
            _build_selection(cfg),
            n,
            _number(doc, "delta_hat", where),
            _number(doc, "g_norm", where, 0.0),
            _number(cfg, "l_star_j", "config"),
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
    version = _field(cfg, "schema_version", "config", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    _require_finite(cfg)
    command = _field(cfg, "command", "config")
    if command not in COMMANDS:
        raise ConfigError(f"config.command: unknown command {command!r}")
    if seed_override is not None:
        cfg = {**cfg, "seed": int(seed_override)}
    seed = _number(cfg, "seed", "config", integer=True)
    out_dir = out_override or _field(cfg, "output_dir", "config", "out")
    os.makedirs(out_dir, exist_ok=True)
    model = _build_model(_field(cfg, "model", "config"), config_dir)
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
