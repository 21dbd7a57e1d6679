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
from typing import NamedTuple

import numpy as np

from . import __version__
from .datagen import FAMILIES, DatasetSpec, derived_seed, estimate_delta_hat, sample_dataset
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
from .errors import (
    BadDimension,
    BadGrouping,
    ConfigError,
    CovBvmError,
    LowDraws,
    PreconditionWarning,
    RejectionStarved,
)
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
from .projectors import ChiSquareMixture, posterior_projector_statistic, projector_distances
from .spd import SpdMatrix, load_matrix_csv, vicinity_mask
from .spectral import (
    EigenspaceSelection,
    build_gamma,
    model_from_spectrum,
    selection_gap,
    spectral_decompose,
)

SCHEMA_VERSION = 1
_SQRT2 = math.sqrt(2.0)
# datasets drawn to estimate the concentration radius delta-hat
_CONCENTRATION_REPLICATIONS = 50


# ---------------------------------------------------------------------------
# Config fields


class _Row(NamedTuple):
    """A config field: its dotted path, its JSON kind (a key of _NUMERIC,
    "string" or "JSON object"), the domain its value or each element must lie
    in (an interval such as "(0, 1)", a tuple of choices, or None), and its
    default (``...`` if required, a row for that row's value; a null reads as
    absent where the default is None).  With ``when`` = (path, value), it is
    read only where the field at path holds value, None meaning absent and
    _GIVEN any value."""

    path: str
    kind: str
    domain: str | tuple | None = None
    default: object = ...
    when: tuple | None = None


# the numeric kinds, as _numeric's (integer, ndim); an increasing list is non-empty
_NUMERIC = {"integer": (True, 0), "number": (False, 0), "list of integers": (True, 1),
            "list of numbers": (False, 1), "increasing list of numbers": (False, 1),
            "matrix of numbers": (False, 2)}
_GIVEN = object()
_SEED = _Row("seed", "integer", "[0, inf)")
_CSV, _SPECTRUM = ("model.sigma_csv", _GIVEN), ("model.sigma_csv", None)
_DATA = (
    _Row("data.n", "integer", "[2, inf)"),
    _Row("data.family", "string", FAMILIES, "gaussian"),
    _Row("data.seed", "integer", "[0, inf)", _SEED),
)
_WISHART = (
    _Row("prior.scale_diag", "number", "(0, inf)", 0.01, ("prior.kind", "inverse_wishart")),
    _Row("prior.b", "number", "(0, inf)", 2.0, ("prior.kind", "inverse_wishart")),
)
_PRIOR = (
    _Row("prior.kind", "string", ("inverse_wishart", "uniform_vicinity")),
    *_WISHART,
    _Row("prior.delta", "number", "(0, inf)", ..., ("prior.kind", "uniform_vicinity")),
)
_GRID = _Row("delta_grid", "increasing list of numbers", "(0, inf)")
_REPLICATIONS = _Row("monte_carlo.replications", "integer", "[1, inf)", 100)
_DRAWS = _Row("monte_carlo.posterior_draws", "integer", f"[{MIN_LAW_SIZE}, inf)", 10_000)
_L_STAR = _Row("l_star_j", "number", "[0, inf)")
_ESTIMATED, _SELECTED = ("delta_bar", None), ("functional", None)


def _functional(when=None) -> tuple:
    kinds = ("trace", "log_det", "entry", "eigenvalue_cluster", "linear")
    return (
        _Row("functional.kind", "string", kinds, ..., when),
        _Row("functional.i", "integer", "[0, inf)", ..., ("functional.kind", "entry")),
        _Row("functional.j", "integer", "[0, inf)", ..., ("functional.kind", "entry")),
        _Row("functional.s", "integer", "[1, inf)", ..., ("functional.kind", "eigenvalue_cluster")),
        _Row("functional.phi", "matrix of numbers", None, ..., ("functional.kind", "linear")),
    )


def _selection(when=None) -> tuple:
    return tuple(_Row(f"selection.s_{end}", "integer", "[1, inf)", ..., when)
                 for end in ("minus", "plus"))


def _budget(context: str, **defaults) -> tuple:
    return tuple(_Row(f"budget.{key}", "number", "[0, inf)", default, ("budget.context", context))
                 for key, default in defaults.items())


# the fields of each command, read in order once the model is built
_FIELDS = {
    "bvm-functional": (*_DATA, *_PRIOR, *_functional(), _DRAWS),
    "bvm-projector": (*_DATA, *_PRIOR, *_selection(), _L_STAR, _DRAWS),
    "contraction": (*_DATA, *_PRIOR, _GRID, _REPLICATIONS,
                    _DRAWS._replace(domain=f"[{MIN_CONTRACTION_DRAWS}, inf)")),
    "flatness": (*_PRIOR, _GRID, _REPLICATIONS),
    "bridge": (
        *_DATA, _Row("prior.kind", "string", ("inverse_wishart",), "inverse_wishart"), *_WISHART,
        _Row("delta_bar", "number", "(0, inf)", None), _GRID._replace(when=_ESTIMATED),
        _REPLICATIONS._replace(when=_ESTIMATED), _DRAWS,
    ),
    "coverage": (
        *_DATA, *_PRIOR, _Row("nominal_level", "number", "(0, 1)", 0.95),
        _REPLICATIONS._replace(domain="[100, inf)"), _DRAWS._replace(domain="[1, inf)"),
        # a functional section asks for a functional's interval, else a selection's
        _Row("functional", "JSON object", None, None), *_functional(("functional", _GIVEN)),
        *_selection(_SELECTED), _DRAWS._replace(when=_SELECTED),
    ),
    "budget": (
        _Row("budget.context", "string", ("posterior_independence", "functional", "projector")),
        _Row("budget.n", "integer", "[1, inf)"),
        *_budget("posterior_independence", rho=..., rho_w=...),
        *_functional(("budget.context", "functional")),
        *_budget("functional", delta_w=..., delta_hat=..., delta_tilde=..., g_norm_scaled=0.0),
        *_selection(("budget.context", "projector")),
        *_budget("projector", delta_hat=..., g_norm=0.0),
        _L_STAR._replace(when=("budget.context", "projector")),
    ),
}
COMMANDS = tuple(_FIELDS)
# every command reads these, and builds its model from them
_RUN_FIELDS = (
    _Row("schema_version", "integer", (SCHEMA_VERSION,)),
    _Row("command", "string", COMMANDS),
    _SEED,
    _Row("output_dir", "string", None, "out"),
    _Row("model.sigma_csv", "string", None, None),
    _Row("model.mu", "list of numbers", "(0, inf)", ..., _SPECTRUM),
    _Row("model.mult", "list of integers", "[1, inf)", ..., _SPECTRUM),
    _Row("model.mult", "list of integers", "[1, inf)", None, _CSV),
    _Row("model.rotation_seed", "integer", "[0, inf)", None, _SPECTRUM),
)


def _lookup(cfg, path: str, default):
    """The value at a dotted path below the config root and the path from
    ``config``, or ``default`` where a key on the path is absent.  Raises
    ConfigError naming a section that is not a JSON object, or that lacks the
    key when no default is given (``...``)."""
    doc, where = cfg, "config"
    for key in path.split("."):
        if not isinstance(doc, dict):
            raise ConfigError(f"{where}: must be a JSON object, got {doc!r}")
        if key not in doc:
            if default is ...:
                raise ConfigError(f"{where}: missing required field {key!r}")
            return default, where
        doc, where = doc[key], f"{where}.{key}"
    return doc, where


def _numeric(value, where: str, integer: bool, ndim: int):
    """A config value as a float, or an int with ``integer=True``; with
    ``ndim`` d > 0, as a list of such values nested d deep.  Raises
    ConfigError naming the value's path for anything else (a string, a
    boolean, a number where a list is needed, a fraction where an integer is,
    or a non-finite number, which Python's JSON parser reads from Infinity,
    NaN or an overflowing 1e400).
    """
    if ndim:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: must be a list, got {value!r}")
        return [_numeric(x, f"{where}[{i}]", integer, ndim - 1) for i, x in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number, got {value}")
    if not integer:
        return float(value)
    if value != int(value):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    return int(value)


def _applies(row: _Row, values: dict) -> bool:
    """Whether ``row`` is read, given the ``values`` read before it."""
    if row.when is None:
        return True
    got, want = values.get(row.when[0]), row.when[1]
    return got is not None if want is _GIVEN else got == want


def _inside(value, domain) -> bool:
    """Whether a value, or each element of a list, lies in a row's domain."""
    if isinstance(value, list):
        return all(_inside(x, domain) for x in value)
    if isinstance(domain, tuple):
        return value in domain
    low, high = map(float, domain[1:-1].split(","))
    above = low < value if domain[0] == "(" else low <= value
    return above and (value < high if domain[-1] == ")" else value <= high)


def _parse(cfg, rows, values=None) -> dict:
    """``values`` with the value of each row of ``rows`` that applies added
    under its path.  Raises ConfigError naming the path of the first field
    that is missing, of the wrong kind or outside its domain."""
    values = {} if values is None else values
    for row in filter(lambda row: _applies(row, values), rows):
        default = values[row.default.path] if isinstance(row.default, _Row) else row.default
        value, where = _lookup(cfg, row.path, default)
        if value is not default:
            if row.kind in _NUMERIC:
                value = _numeric(value, where, *_NUMERIC[row.kind])
            elif not isinstance(value, str if row.kind == "string" else dict):
                raise ConfigError(f"{where}: must be a {row.kind}, got {value!r}")
            if row.kind.startswith("increasing") and not (value and value == sorted(set(value))):
                raise ConfigError(f"{where}: must be non-empty and increasing, got {value}")
            if row.domain is not None and not _inside(value, row.domain):
                domain = (f"one of {', '.join(map(repr, row.domain))}"
                          if isinstance(row.domain, tuple) else f"in {row.domain}")
                raise ConfigError(f"{where}: must be {domain}, got {value!r}")
        values[row.path] = value
    return values


# the checks that need the model, or the data, are made as its parts are built


def _build_model(v: dict, base_dir: str):
    path = v["model.sigma_csv"]
    if path is not None:
        try:
            sigma = load_matrix_csv(os.path.join(base_dir, path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config.model.sigma_csv: {exc}") from exc
    # a grouping that the config's mu and mult cannot give is a config fault
    try:
        if path is None:
            return model_from_spectrum(v["model.mu"], v["model.mult"], v["model.rotation_seed"])
        return spectral_decompose(sigma, mults=v["model.mult"])
    except BadGrouping as exc:
        raise ConfigError(f"config.model: {exc}") from exc


def _build_prior(v: dict, model):
    if v["prior.kind"] == "uniform_vicinity":
        return UniformVicinityPrior(model.sigma_star, v["prior.delta"])
    return InverseWishartPrior(SpdMatrix(v["prior.scale_diag"] * np.eye(model.dim)), b=v["prior.b"])


def _build_functional(v: dict, model) -> FunctionalSpec:
    kind = v["functional.kind"]
    try:
        if kind == "entry":
            return entry_functional(model, v["functional.i"], v["functional.j"])
        if kind == "eigenvalue_cluster":
            return eigenvalue_cluster_functional(model, v["functional.s"])
        if kind == "linear":
            phi, p = v["functional.phi"], model.dim
            if len(phi) != p or any(len(row) != p for row in phi):
                raise ConfigError(f"config.functional.phi: must be a {p} x {p} matrix, got {phi}")
            return linear_functional(model, np.array(phi))
    except BadDimension as exc:
        raise ConfigError(f"config.functional: {exc}") from exc
    return trace_functional(model) if kind == "trace" else log_det_functional(model)


def _build_selection(v: dict, model) -> EigenspaceSelection:
    s_minus, s_plus = v["selection.s_minus"], v["selection.s_plus"]
    if not s_minus <= s_plus <= model.num_groups:
        raise ConfigError(f"config.selection: need s_minus <= s_plus <= {model.num_groups}, "
                          f"the group count, got [{s_minus}, {s_plus}]")
    return EigenspaceSelection(s_minus, s_plus)


def _build_delta_bar(v: dict, prior, data_spec: DatasetSpec) -> float:
    """The given vicinity radius, or else the contraction radius on the grid."""
    if v["delta_bar"] is not None:
        return v["delta_bar"]
    draws = max(1000, v["monte_carlo.posterior_draws"] // 4)
    reps, seed = min(v["monte_carlo.replications"], 20), derived_seed(v["seed"], 0)
    radius = estimate_contraction_radius(prior, data_spec, v["delta_grid"], draws, reps, seed)
    if not math.isfinite(radius):
        raise ConfigError(
            "config.delta_grid: no grid radius holds the mass; widen the grid or give delta_bar")
    return radius


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_csv(path, header: str, *columns) -> None:
    """A header line, then one line per row of the float columns, each value
    written as its repr and the values of a row joined by commas.  A
    memoryview of a float64 column yields its values as Python floats, with
    no numpy scalar made for each."""
    texts = [map(repr, memoryview(np.asarray(col, dtype=np.float64))) for col in columns]
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
# Commands: each takes the values _parse read, and returns its report and
# the CSVs to write, by name, as a header and columns


def _cmd_bvm_functional(v, model, tag):
    data_spec = DatasetSpec(model, v["data.family"], v["data.n"], v["data.seed"])
    prior = _build_prior(v, model)
    functional = _build_functional(v, model)
    dataset = sample_dataset(data_spec)
    sampler = default_sampler(prior, dataset, seed=v["seed"])
    draws = sample_posterior(sampler, v["monte_carlo.posterior_draws"])
    law = standardized_statistic(functional, draws, dataset)
    ks = kolmogorov_distance(law, _normal_cdf)
    report = {
        "command": "bvm-functional",
        "ks": ks,
        "ks_resolution": ks_resolution(len(law)),
        "n": data_spec.n,
        "posterior_draws": v["monte_carlo.posterior_draws"],
        "functional": functional.kind,
        "normalizer": functional.normalizer,
    }
    return report, {"statistic.csv": (f"standardized_{functional.kind} config={tag}", law.values)}


def _cmd_bvm_projector(v, model, tag):
    data_spec = DatasetSpec(model, v["data.family"], v["data.n"], v["data.seed"])
    prior = _build_prior(v, model)
    sel = _build_selection(v, model)
    dataset = sample_dataset(data_spec)
    sampler = default_sampler(prior, dataset, seed=v["seed"])
    draws = sample_posterior(sampler, v["monte_carlo.posterior_draws"])
    stat = posterior_projector_statistic(model, sel, draws, dataset)
    ks = kolmogorov_distance(stat.law, ChiSquareMixture(build_gamma(model, sel)).cdf)
    # the theorem's precondition on the concentration radius: a violation
    # warns, and the run proceeds
    delta_hat = estimate_delta_hat(data_spec, _CONCENTRATION_REPLICATIONS)
    sigma = model.sigma_star
    bound = min(selection_gap(model, sel) / (4.0 * sigma.spectral_norm),
                float(np.sum(sigma.eigenvalues)) / sigma.spectral_norm / model.dim)
    if delta_hat > bound:
        warnings.warn(f"concentration radius {delta_hat:.3g} exceeds the theorem bound "
                      f"{bound:.3g}; proceeding anyway", PreconditionWarning)
    g_norm = prior.scale.spectral_norm if hasattr(prior, "scale") else 0.0
    budget = budget_projector(model, sel, data_spec.n, delta_hat, g_norm, v["l_star_j"])
    report = {
        "command": "bvm-projector",
        "ks": ks,
        "ks_resolution": ks_resolution(len(stat.law)),
        "budget": budget.to_json_dict(),
        "precondition_ok": delta_hat <= bound,
        "delta_hat": delta_hat,
        "near_degenerate_draws": stat.near_degenerate_count,
        "eigh_fallback_draws": stat.eigh_fallback_count,
    }
    return report, {"statistic.csv": (f"projector_statistic config={tag}", stat.law.values)}


def _cmd_contraction(v, model, tag):
    data_spec = DatasetSpec(model, v["data.family"], v["data.n"], v["data.seed"])
    prior = _build_prior(v, model)
    if model.dim / data_spec.n > 0.1:
        warnings.warn(
            f"p/n = {model.dim / data_spec.n:.3f} > 0.1; the contraction bound's "
            "implicit constant may not apply",
            PreconditionWarning,
        )
    draws, reps = v["monte_carlo.posterior_draws"], v["monte_carlo.replications"]
    radius = estimate_contraction_radius(prior, data_spec, v["delta_grid"], draws, reps, v["seed"])
    report = {
        "command": "contraction",
        "radius": radius if math.isfinite(radius) else "inf",
        "delta_grid": v["delta_grid"],
        "replications": reps,
    }
    return report, {}


def _cmd_flatness(v, model, tag):
    prior = _build_prior(v, model)
    grid = v["delta_grid"]
    rho = flatness_profile(prior, model, grid, v["monte_carlo.replications"], seed=v["seed"])
    report = {"command": "flatness", "delta_grid": grid, "rho": [float(x) for x in rho]}
    return report, {"flatness.csv": ("delta,rho", grid, rho)}


def _cmd_bridge(v, model, tag):
    data_spec = DatasetSpec(model, v["data.family"], v["data.n"], v["data.seed"])
    conj_prior = _build_prior(v, model)
    n, seed, draws = data_spec.n, v["seed"], v["monte_carlo.posterior_draws"]
    delta_bar = _build_delta_bar(v, conj_prior, data_spec)
    dataset = sample_dataset(data_spec)
    conj = sample_posterior(default_sampler(conj_prior, dataset, seed=seed), draws)
    battery = default_statistic_battery()
    # one pass over the conjugate draws: their battery columns and which lie
    # in the vicinity, so the localized law is the masked columns
    parts = conj.map(lambda mats: (statistic_columns(mats, battery),
                                   vicinity_mask(mats, model.sigma_star, delta_bar)))
    columns = np.concatenate([cols for cols, _ in parts])
    inside = np.concatenate([mask for _, mask in parts])
    kept = int(inside.sum())
    if kept < MIN_LAW_SIZE:
        raise RejectionStarved(
            f"{kept} of {draws} conjugate draws lie within delta_bar = {delta_bar}; "
            f"the localized law needs at least {MIN_LAW_SIZE}"
        )
    uniform_prior = UniformVicinityPrior(model.sigma_star, delta_bar)
    uniform_sampler = default_sampler(uniform_prior, dataset, seed=derived_seed(seed, 1))
    uniform = statistic_columns(sample_posterior(uniform_sampler, draws), battery)
    report = {
        "command": "bridge",
        "delta_bar": float(delta_bar),
        "localized_vs_full": max_kolmogorov_distance(columns[inside], columns),
        "uniform_vs_conjugate": max_kolmogorov_distance(uniform, columns),
        "localization_bound": 2.0 / n,
        "n": n,
    }
    return report, {}


def _cmd_coverage(v, model, tag):
    data_spec = DatasetSpec(model, v["data.family"], v["data.n"], v["data.seed"])
    prior = _build_prior(v, model)
    level, reps = v["nominal_level"], v["monte_carlo.replications"]
    draws_per_rep = v["monte_carlo.posterior_draws"]
    notes = []
    functional = sel = None
    if v["functional"] is not None:
        functional = _build_functional(v, model)
        truth = evaluate(functional, model.sigma_star)
        if draws_per_rep < 100:
            msg = f"only {draws_per_rep} posterior draws per replication; quantiles unreliable"
            warnings.warn(msg, LowDraws)
            notes.append(msg)
    else:
        sel = _build_selection(v, model)
        truth = model.sigma_star.entries[None]
    hits = 0
    widths = np.empty(reps)
    for k in range(reps):
        dataset = sample_dataset(data_spec, seed_branch=k)
        sampler = default_sampler(prior, dataset, seed=derived_seed(v["seed"], k))
        draws = sample_posterior(sampler, draws_per_rep)
        if functional is not None:
            vals = functional_values(functional, draws)
            lo, hi = (float(np.quantile(vals, q)) for q in ((1 - level) / 2, 1 - (1 - level) / 2))
            hits += lo <= truth <= hi
            widths[k] = hi - lo
        else:
            stat = posterior_projector_statistic(model, sel, draws, dataset)
            # the ground truth is scored by the distance that scores the draws
            truth_stat = projector_distances(model, sel, dataset)(truth)[0][0]
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
    return report, {}


def _cmd_budget(v, model, tag):
    context, n = v["budget.context"], v["budget.n"]
    if context == "posterior_independence":
        budget = budget_posterior_independence(v["budget.rho"], v["budget.rho_w"], n)
    elif context == "functional":
        budget = budget_functional(model, _build_functional(v, model), n, *(
            v[f"budget.{key}"] for key in ("delta_w", "delta_hat", "delta_tilde", "g_norm_scaled")))
    else:
        budget = budget_projector(model, _build_selection(v, model), n, v["budget.delta_hat"],
                                  v["budget.g_norm"], v["l_star_j"])
    return {"command": "budget", **budget.to_json_dict()}, {}


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
    """Check every field of one experiment config, run it, and only then
    write its outputs; returns the report dict."""
    if seed_override is not None and isinstance(cfg, dict):
        cfg = {**cfg, "seed": int(seed_override)}
    values = _parse(cfg, _RUN_FIELDS)
    # a sigma_csv fault is reported before a missing section of the command
    model = _build_model(values, config_dir)
    command = values["command"]
    _parse(cfg, _FIELDS[command], values)
    tag = config_hash(cfg)
    report, outputs = _DISPATCH[command](values, model, tag)
    out_dir = out_override or values["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, *columns) in outputs.items():
        _write_csv(os.path.join(out_dir, name), header, *columns)
    _write_json(os.path.join(out_dir, "report.json"), report)
    manifest = {
        "config_sha256": tag,
        "seed": values["seed"],
        "command": command,
        "outputs": ["report.json", *outputs],
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="covbvm", description="covariance BvM experiment runner")
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
        config_dir = os.path.dirname(os.path.abspath(args.config))
        report = run(cfg, config_dir, out_override=args.out, seed_override=args.seed)
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
