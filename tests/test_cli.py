import importlib.util
import json
import math
import os
import pathlib
import re
import warnings

import numpy as np
import pytest
import scipy.special

from covbvm import entry_functional, model_from_spectrum
from covbvm.cli import (
    _FIELDS,
    _GIVEN,
    _RUN_FIELDS,
    _Row,
    _applies,
    _normal_cdf,
    _parse,
    _write_json,
    config_hash,
    main,
    run,
)
from covbvm.errors import ConfigError, LowDraws, PreconditionWarning

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_config(tmp_path, doc, name="config.json"):
    """Write a config dict as JSON, or a string as it stands."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def base_config(command, **extra):
    doc = {
        "schema_version": 1,
        "command": command,
        "seed": 17,
        "model": {"mu": [2.0, 1.0], "mult": [1, 2], "rotation_seed": 0},
    }
    doc.update(extra)
    return doc


def command_config(command):
    """A valid config of one command, to be broken one field at a time."""
    return {
        "bridge": base_config("bridge", data={"n": 500}, delta_bar=0.3),
        "functional": base_config(
            "bvm-functional", data={"n": 500}, prior={"kind": "inverse_wishart"},
            functional={"kind": "trace"},
        ),
        "contraction": base_config(
            "contraction", data={"n": 500}, prior={"kind": "inverse_wishart"},
            delta_grid=[0.1, 0.2],
        ),
        "projector": base_config(
            "bvm-projector", data={"n": 500}, prior={"kind": "inverse_wishart"},
            selection={"s_minus": 1, "s_plus": 1}, l_star_j=1.0,
        ),
        "coverage": base_config(
            "coverage", data={"n": 500}, prior={"kind": "inverse_wishart"},
            functional={"kind": "trace"}, monte_carlo={"replications": 100},
        ),
        "budget": base_config("budget"),
        "flatness": base_config(
            "flatness", prior={"kind": "inverse_wishart"}, delta_grid=[0.1, 0.2],
        ),
    }[command]


def parse(cfg):
    """The values of every row a config reads, as ``run`` checks them."""
    values = _parse(cfg, _RUN_FIELDS)
    return _parse(cfg, _FIELDS[values["command"]], values)


# a 3 x 3 covariance with eigenvalues 2, 1, 1, for a sigma_csv model
SIGMA_CSV = "3\n2.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n"


def table_configs(command):
    """Valid configs of one command that, between them, read every row of
    its field table; the second of each has a sigma_csv model."""
    wishart = {"kind": "inverse_wishart", "scale_diag": 0.01, "b": 2.0}
    vicinity = {"kind": "uniform_vicinity", "delta": 0.3}
    data = {"n": 500, "family": "gaussian", "seed": 3}
    mc = {"posterior_draws": 1000, "replications": 100}
    functionals = [
        {"kind": "entry", "i": 0, "j": 1},
        {"kind": "eigenvalue_cluster", "s": 1},
        {"kind": "linear", "phi": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    ]
    selection = {"s_minus": 1, "s_plus": 1}
    grid = [0.1, 0.2]
    functional_budget = {"context": "functional", "n": 50, "delta_w": 0.1, "delta_hat": 0.1,
                         "delta_tilde": 0.1, "g_norm_scaled": 0.0}
    extras = {
        "bvm-functional": [
            dict(data=data, prior=prior, functional=f, monte_carlo=mc)
            for prior, f in zip((wishart, vicinity, wishart), functionals)
        ],
        "bvm-projector": [
            dict(data=data, prior=prior, selection=selection, l_star_j=1.0, monte_carlo=mc)
            for prior in (wishart, vicinity)
        ],
        "contraction": [
            dict(data=data, prior=prior, delta_grid=grid, monte_carlo=mc)
            for prior in (wishart, vicinity)
        ],
        "flatness": [
            dict(prior=prior, delta_grid=grid, monte_carlo=mc) for prior in (wishart, vicinity)
        ],
        "bridge": [
            dict(data=data, prior=wishart, delta_bar=0.3, monte_carlo=mc),
            dict(data=data, prior=wishart, delta_grid=grid, monte_carlo=mc),
        ],
        "coverage": [
            *(dict(data=data, prior=prior, functional=f, monte_carlo=mc, nominal_level=0.9)
              for prior, f in zip((wishart, vicinity, wishart), functionals)),
            dict(data=data, prior=wishart, selection=selection, monte_carlo=mc),
        ],
        "budget": [
            dict(budget={"context": "posterior_independence", "n": 50, "rho": 0.1, "rho_w": 0.2}),
            *(dict(functional=f, budget=functional_budget) for f in functionals),
            dict(selection=selection, l_star_j=1.0,
                 budget={"context": "projector", "n": 50, "delta_hat": 0.1, "g_norm": 0.0}),
        ],
    }[command]
    models = [{"mu": [2.0, 1.0], "mult": [1, 2], "rotation_seed": 0},
              {"sigma_csv": "sigma.csv", "mult": [1, 2]}]
    return [
        {"schema_version": 1, "command": command, "seed": 17, "output_dir": "out",
         "model": models[i == 1], **extra}
        for i, extra in enumerate(extras)
    ]


def wrong_kinds(row):
    """A value of each JSON kind that the row does not take."""
    kinds = {"string": "x", "boolean": True, "null": None, "list": [1], "object": {"a": 1},
             "number": 0.5}
    if row.kind == "string":
        del kinds["string"]
    elif row.kind == "JSON object":
        del kinds["object"]
    elif row.kind == "number":
        del kinds["number"]
    elif "list" in row.kind:
        del kinds["list"]
    if row.default is None:
        del kinds["null"]
    return list(kinds.values())


def just_outside(row):
    """Values just outside the row's domain."""
    if row.domain is None:
        return []
    if isinstance(row.domain, tuple):
        return ["nope"] if row.kind == "string" else [max(row.domain) + 1]
    integer = "integer" in row.kind
    low, high = (float(end) for end in row.domain[1:-1].split(","))
    if row.domain[0] == "(":
        values = [low]
    else:
        values = [low - 1 if integer else math.nextafter(low, -math.inf)]
    if math.isfinite(high):
        values.append(high if row.domain[-1] == ")" else high + 1)
    values = [int(x) if integer else x for x in values]
    if "list" in row.kind:
        values = [[x] for x in values]
    if row.kind.startswith("increasing"):
        values += [[], [0.2, 0.1], [0.1, 0.1]]
    return values


TABLE = [(command, row) for command in _FIELDS for row in (*_RUN_FIELDS, *_FIELDS[command])]


def readme_row(row):
    """The README's table line for one field table row."""
    if row.domain is None:
        domain = "any"
    elif isinstance(row.domain, tuple):
        domain = ", ".join(f"`{json.dumps(choice)}`" for choice in row.domain)
    else:
        domain = f"`{row.domain}`"
    if row.default is ...:
        default = "required"
    elif isinstance(row.default, _Row):
        default = f"`{row.default.path}`"
    else:
        default = f"`{json.dumps(row.default)}`"
    if row.when is None:
        when = ""
    else:
        path, value = row.when
        if value is _GIVEN or value is None:
            when = f"`{path}` {'given' if value is _GIVEN else 'absent'}"
        else:
            when = f"`{path}` = `{json.dumps(value)}`"
    return f"| `{row.path}` | {row.kind} | {domain} | {default} | {when} |"


def readme_tables():
    """Each README field table, by its heading, as the list of its lines."""
    header = ["| path | type | domain | default | read when |", "| --- | --- | --- | --- | --- |"]
    tables = {"Every command": _RUN_FIELDS, **{f"`{c}`": rows for c, rows in _FIELDS.items()}}
    return {title: header + [readme_row(row) for row in rows] for title, rows in tables.items()}


def test_readme_tables_match_the_field_table():
    # the README gives each command's fields as its field table reads them
    readme = (ROOT / "README.md").read_text()
    for title, lines in readme_tables().items():
        section = readme.split(f"\n#### {title}\n", 1)[1].split("\n#", 1)[0]
        table = [line for line in section.splitlines() if line.startswith("|")]
        assert table == lines, title


def set_path(cfg, path, value):
    *sections, key = path.split(".")
    for name in sections:
        cfg = cfg.setdefault(name, {})
    cfg[key] = value


class TestValidation:
    def test_missing_schema_version(self):
        with pytest.raises(ConfigError):
            run({"command": "budget", "seed": 1})

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            run(base_config("frobnicate"))

    def test_missing_seed(self):
        cfg = base_config("flatness")
        del cfg["seed"]
        with pytest.raises(ConfigError):
            run(cfg)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"schema_version": 99, "command": "budget"})
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "cfg, path",
        [
            (
                base_config(
                    "bvm-projector", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    selection={"s_plus": 1}, l_star_j=1.0,
                ),
                "config.selection",
            ),
            (
                base_config(
                    "budget", selection={"s_minus": 1}, l_star_j=1.0,
                    budget={"context": "projector", "n": 500, "delta_hat": 0.1},
                ),
                "config.selection",
            ),
            (
                base_config(
                    "budget", budget={"context": "posterior_independence", "rho_w": 0.2, "n": 50}
                ),
                "config.budget",
            ),
            (
                base_config(
                    "bvm-functional", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    functional={},
                ),
                "config.functional",
            ),
            (
                base_config(
                    "bvm-functional", data={"n": 500, "family": "cauchy"},
                    prior={"kind": "inverse_wishart"}, functional={"kind": "trace"},
                ),
                "config.data",
            ),
            (
                base_config(
                    "bvm-functional", data={"n": 500},
                    prior={"kind": "uniform_vicinity", "delta": -1},
                    functional={"kind": "trace"},
                ),
                "config.prior",
            ),
            (
                base_config(
                    "bvm-functional", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    functional={"kind": "trace"}, monte_carlo={"posterior_draws": 50},
                ),
                "config.monte_carlo.posterior_draws",
            ),
            (
                base_config(
                    "coverage", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    selection={"s_minus": 1, "s_plus": 1},
                    monte_carlo={"posterior_draws": 50, "replications": 100},
                ),
                "config.monte_carlo.posterior_draws",
            ),
            (
                base_config(
                    "contraction", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    delta_grid=[0.1, 0.2], monte_carlo={"posterior_draws": 999},
                ),
                "config.monte_carlo.posterior_draws",
            ),
            (
                base_config("flatness", prior={"kind": "inverse_wishart"}, delta_grid=[0.1, 0.0]),
                "config.delta_grid",
            ),
            (
                base_config(
                    "budget",
                    budget={"context": "posterior_independence", "rho": -0.1, "rho_w": 0.2, "n": 50},
                ),
                "config.budget",
            ),
            (
                base_config(
                    "bvm-functional", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    functional={"kind": "entry", "i": 7, "j": 0},
                ),
                "config.functional",
            ),
            (
                base_config(
                    "bvm-functional", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    functional={"kind": "entry", "i": -1, "j": 0},
                ),
                "config.functional",
            ),
            (
                base_config(
                    "bvm-functional", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    functional={"kind": "frobnicate"},
                ),
                "config.functional.kind",
            ),
            (
                base_config(
                    "contraction", data={"n": 500}, prior={"kind": "inverse_wishart"},
                    delta_grid=[0.2, 0.1],
                ),
                "config.delta_grid",
            ),
            (base_config("bridge", data={"n": 500}, delta_grid=[0.2, 0.1]), "config.delta_grid"),
            (
                # no radius of the grid holds posterior mass 1 - 1/n
                base_config(
                    "bridge", data={"n": 500}, delta_grid=[0.001],
                    monte_carlo={"posterior_draws": 1000, "replications": 2},
                ),
                "config.delta_grid",
            ),
            (base_config("bridge", data={"n": 500}, delta_bar=0.0), "config.delta_bar"),
            (
                base_config(
                    "budget",
                    budget={"context": "posterior_independence", "rho": 0.1, "rho_w": 0.2, "n": 0},
                ),
                "config.budget.n",
            ),
            (
                base_config(
                    "budget", functional={"kind": "trace"},
                    budget={
                        "context": "functional", "n": 0, "delta_w": 0.1, "delta_hat": 0.05,
                        "delta_tilde": 0.02,
                    },
                ),
                "config.budget.n",
            ),
            (
                base_config(
                    "budget", selection={"s_minus": 1, "s_plus": 1}, l_star_j=1.0,
                    budget={"context": "projector", "n": -5, "delta_hat": 0.1},
                ),
                "config.budget.n",
            ),
            (
                base_config(
                    "budget",
                    budget={"context": "posterior_independence", "rho": math.inf, "rho_w": 0.2, "n": 50},
                ),
                "config.budget.rho",
            ),
            (
                # Python's JSON parser reads an overflowing literal as inf
                json.dumps(base_config(
                    "budget",
                    budget={"context": "posterior_independence", "rho": 0.125, "rho_w": 0.2, "n": 50},
                )).replace("0.125", "1e400"),
                "config.budget.rho",
            ),
            (
                base_config(
                    "budget",
                    budget={"context": "posterior_independence", "rho": 0.1, "rho_w": 0.2, "n": math.nan},
                ),
                "config.budget.n",
            ),
            (
                base_config(
                    "bvm-functional", model={"mu": [1.0, 2.0], "mult": [1, 2]},
                    data={"n": 500}, prior={"kind": "inverse_wishart"}, functional={"kind": "trace"},
                ),
                "config.model",
            ),
            (
                base_config(
                    "bvm-functional", model={"mu": [], "mult": []},
                    data={"n": 500}, prior={"kind": "inverse_wishart"}, functional={"kind": "trace"},
                ),
                "config.model",
            ),
        ],
        ids=[
            "selection-no-s_minus", "selection-no-s_plus", "budget-no-rho",
            "functional-no-kind", "unknown-family", "negative-delta", "too-few-draws",
            "coverage-too-few-draws", "contraction-too-few-draws", "flatness-zero-radius",
            "budget-negative-rho", "entry-index-too-large", "entry-index-negative",
            "unknown-functional-kind", "contraction-decreasing-grid", "bridge-decreasing-grid",
            "bridge-grid-exhausted", "bridge-zero-radius", "budget-independence-zero-n",
            "budget-functional-zero-n", "budget-projector-negative-n", "budget-infinite-rho",
            "budget-overflowing-rho", "budget-nan-n", "mu-increasing", "mu-empty",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, cfg, path):
        config = write_config(tmp_path, cfg)
        # the config error ends the run, not a warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
        assert f": {path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            "3\n2.0,0.1,0.0\n0.1,1.0\n0.0,0.0,1.0\n",
            "3\n2.0,0.1,0.0\n0.1,1.0,0.0\n",
            "x\n2.0\n",
            "2\n2.0,abc\n0.0,1.0\n",
            None,
            "2\n2.0,nan\nnan,1.0\n",
            "2\ninf,0.0\n0.0,1.0\n",
            "2\n1.0,0.0\n0.0,1.0\n5,5,5\n",
        ],
        ids=["ragged-row", "missing-row", "bad-size", "bad-entry", "missing-file",
             "nan-entry", "inf-entry", "extra-row"],
    )
    def test_bad_sigma_csv_exits_2(self, tmp_path, capsys, content):
        if content is not None:
            (tmp_path / "sigma.csv").write_text(content)
        cfg = base_config("bvm-functional", model={"sigma_csv": "sigma.csv"})
        config = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
        assert ": config.model.sigma_csv: " in capsys.readouterr().err

    def test_sigma_csv_off_the_spd_cone_exits_3(self, tmp_path, capsys):
        (tmp_path / "sigma.csv").write_text("2\n1.0,2.0\n2.0,1.0\n")
        cfg = base_config("bvm-functional", model={"sigma_csv": "sigma.csv"})
        config = write_config(tmp_path, cfg)
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("NotPositiveDefinite: ")

    def test_sigma_csv_with_mult_of_another_sum_exits_2(self, tmp_path, capsys):
        (tmp_path / "sigma.csv").write_text("3\n2.0,0.1,0.0\n0.1,1.0,0.0\n0.0,0.0,1.0\n")
        cfg = command_config("functional")
        cfg["model"] = {"sigma_csv": "sigma.csv", "mult": [2, 2]}
        config = write_config(tmp_path, cfg)
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
        assert ": config.model: multiplicities [2, 2] " in capsys.readouterr().err

    def test_bridge_with_too_few_localized_draws_exits_3(self, tmp_path, capsys):
        # 17 of the 1000 conjugate draws lie within this radius: too few for
        # the localized law, which is found before the uniform sampler runs
        cfg = base_config(
            "bridge", data={"n": 500}, delta_bar=0.05, monte_carlo={"posterior_draws": 1000}
        )
        config = write_config(tmp_path, cfg)
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("RejectionStarved: 17 of 1000 ") and "delta_bar = 0.05" in err
        assert not (tmp_path / "out").exists()

    def test_gaussian_n_below_p_exits_3(self, tmp_path, capsys):
        # two Gaussian samples in dimension 3 have a singular sample covariance
        cfg = base_config(
            "bvm-functional", data={"n": 2}, prior={"kind": "inverse_wishart"},
            functional={"kind": "trace"},
        )
        config = write_config(tmp_path, cfg)
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("NotPositiveDefinite: ")

    @pytest.mark.parametrize(
        "command, field, value, path",
        [
            ("bridge", "delta_bar", "abc", "config.delta_bar"),
            ("functional", "monte_carlo", {"posterior_draws": "x"},
             "config.monte_carlo.posterior_draws"),
            ("functional", "monte_carlo", {"posterior_draws": [1]},
             "config.monte_carlo.posterior_draws"),
            ("functional", "monte_carlo", {"posterior_draws": 2000.5},
             "config.monte_carlo.posterior_draws"),
            ("contraction", "monte_carlo", {"replications": "x"},
             "config.monte_carlo.replications"),
            ("functional", "data", {"n": "500"}, "config.data.n"),
            ("functional", "data", {"n": 500, "seed": [1]}, "config.data.seed"),
            ("functional", "seed", "17", "config.seed"),
            ("projector", "l_star_j", "one", "config.l_star_j"),
            ("projector", "selection", {"s_minus": "1", "s_plus": 1}, "config.selection.s_minus"),
            ("projector", "selection", {"s_minus": 1, "s_plus": True}, "config.selection.s_plus"),
            ("functional", "prior", {"kind": "inverse_wishart", "scale_diag": "x"},
             "config.prior.scale_diag"),
            ("functional", "prior", {"kind": "inverse_wishart", "b": None}, "config.prior.b"),
            ("functional", "prior", {"kind": "uniform_vicinity", "delta": "0.3"},
             "config.prior.delta"),
            ("contraction", "delta_grid", [0.1, "0.2"], "config.delta_grid[1]"),
            ("contraction", "delta_grid", 0.1, "config.delta_grid"),
            ("functional", "model", {"mu": ["2", 1.0], "mult": [1, 2]}, "config.model.mu[0]"),
            ("functional", "model", {"mu": [2.0, 1.0], "mult": [1, 1.5]}, "config.model.mult[1]"),
            ("functional", "model", {"mu": [2.0, 1.0], "mult": [1, 2], "rotation_seed": "x"},
             "config.model.rotation_seed"),
            ("budget", "budget", {"context": "posterior_independence", "rho": "0.1",
                                  "rho_w": 0.2, "n": 50}, "config.budget.rho"),
        ],
        ids=[
            "delta_bar", "posterior_draws-string", "posterior_draws-list",
            "posterior_draws-fraction", "replications", "data-n", "data-seed", "seed",
            "l_star_j", "s_minus", "s_plus", "scale_diag", "b", "delta", "delta_grid-entry",
            "delta_grid-scalar", "mu", "mult", "rotation_seed", "budget-rho",
        ],
    )
    def test_non_numeric_field_exits_2(self, tmp_path, capsys, command, field, value, path):
        cfg = command_config(command)
        cfg[field] = value
        config = write_config(tmp_path, cfg)
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
        assert f": {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, field, value, path",
        [
            ("functional", "monte_carlo", [1], "config.monte_carlo"),
            ("functional", "data", 5, "config.data"),
            ("functional", None, [1], "config"),
            ("functional", "prior", 5, "config.prior"),
            ("projector", "selection", 5, "config.selection"),
            ("budget", "budget", 5, "config.budget"),
            ("coverage", "functional", 3, "config.functional"),
            ("functional", "functional", "kind", "config.functional"),
            ("functional", "prior", "kind", "config.prior"),
            ("functional", "model", "mu", "config.model"),
            ("functional", "model", [1], "config.model"),
            ("functional", "functional", "trace", "config.functional"),
            ("functional", "functional", {"kind": "entry", "i": "x", "j": 0},
             "config.functional.i"),
            ("functional", "functional", {"kind": "eigenvalue_cluster", "s": "1"},
             "config.functional.s"),
            ("functional", "functional", {"kind": ["trace"]}, "config.functional.kind"),
            ("functional", "functional", {"kind": "entry", "i": 0.5, "j": 0},
             "config.functional.i"),
            ("functional", "functional", {"kind": "entry", "i": True, "j": 0},
             "config.functional.i"),
            ("functional", "functional", {"kind": "linear", "phi": "abc"},
             "config.functional.phi"),
            ("functional", "functional", {"kind": "linear", "phi": [[1, 0, 0], [0, 1], [0, 0, 1]]},
             "config.functional.phi"),
            ("functional", "model", {"sigma_csv": 5}, "config.model.sigma_csv"),
            ("functional", "model", {"sigma_csv": ["sigma.csv"]}, "config.model.sigma_csv"),
            ("functional", "model", {"sigma_csv": "sigma.csv", "mult": ["a", 1]},
             "config.model.mult[0]"),
            ("functional", "model", {"sigma_csv": "sigma.csv", "mult": 2}, "config.model.mult"),
        ],
        ids=[
            "monte_carlo-list", "data-number", "config-list", "prior-number",
            "selection-number", "budget-number", "coverage-functional-number",
            "functional-string", "prior-string", "model-string", "model-list",
            "functional-kind-string", "entry-i-string", "cluster-s-string", "kind-list",
            "entry-i-fraction", "entry-i-boolean", "phi-string", "phi-ragged",
            "sigma_csv-number", "sigma_csv-list", "sigma_csv-mult-string",
            "sigma_csv-mult-number",
        ],
    )
    def test_malformed_section_exits_2(self, tmp_path, capsys, command, field, value, path):
        # a section that is not a JSON object, or a field of the wrong type,
        # is a config error with its path, never a traceback, and never read
        # as a missing field; field None stands for the whole config
        (tmp_path / "sigma.csv").write_text("3\n2.0,0.1,0.0\n0.1,1.0,0.0\n0.0,0.0,1.0\n")
        cfg = command_config(command)
        if field is None:
            cfg = value
        else:
            cfg[field] = value
        config = write_config(tmp_path, cfg)
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f": {path}: " in err
        assert "Traceback" not in err and "missing required field" not in err

    @pytest.mark.parametrize(
        "command, row", TABLE,
        ids=[f"{command}-{i}-{row.path}" for i, (command, row) in enumerate(TABLE)],
    )
    def test_field_table_refuses_what_lies_outside_it(self, tmp_path, capsys, command, row):
        # each row of each command's field table, given a value of a kind it
        # does not take or just outside its domain, in a config that reads it
        (tmp_path / "sigma.csv").write_text(SIGMA_CSV)
        configs = table_configs(command)
        for cfg in configs:
            parse(cfg)  # each base config is valid
        base = next(cfg for cfg in configs if _applies(row, parse(cfg)))
        cases = wrong_kinds(row) + just_outside(row)
        assert cases
        for value in cases:
            cfg = {**json.loads(json.dumps(base)), "output_dir": str(tmp_path / "out")}
            set_path(cfg, row.path, value)
            config = write_config(tmp_path, cfg)
            assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2, value
            err = capsys.readouterr().err
            assert re.search(rf": config\.{re.escape(row.path)}[:\[]", err), (value, err)
            assert "Traceback" not in err
            assert sorted(os.listdir(tmp_path)) == ["config.json", "sigma.csv"]

    @pytest.mark.parametrize(
        "command, field, value, path",
        [
            ("contraction", "monte_carlo", {"replications": 0}, "config.monte_carlo.replications"),
            ("contraction", "monte_carlo", {"replications": -5},
             "config.monte_carlo.replications"),
            ("bridge", "monte_carlo", {"replications": 0}, "config.monte_carlo.replications"),
            ("flatness", "monte_carlo", {"replications": 0}, "config.monte_carlo.replications"),
            ("coverage", "nominal_level", 0, "config.nominal_level"),
            ("coverage", "nominal_level", 1, "config.nominal_level"),
            ("coverage", "nominal_level", 2, "config.nominal_level"),
            ("functional", "output_dir", 5, "config.output_dir"),
            ("flatness", "delta_grid", [], "config.delta_grid"),
            ("contraction", "delta_grid", [], "config.delta_grid"),
            ("contraction", "delta_grid", [-1.0, 0.5], "config.delta_grid"),
            ("flatness", "delta_grid", [0.2, 0.1], "config.delta_grid"),
            ("functional", "model", {"mu": [2.0, 1.0], "mult": [1]}, "config.model"),
        ],
        ids=[
            "contraction-no-replications", "contraction-negative-replications",
            "bridge-no-replications", "flatness-no-probes", "coverage-level-0",
            "coverage-level-1", "coverage-level-2", "output_dir-number", "flatness-empty-grid",
            "contraction-empty-grid", "contraction-negative-radius", "flatness-decreasing-grid",
            "mu-mult-lengths",
        ],
    )
    def test_out_of_domain_field_exits_2(self, tmp_path, capsys, command, field, value, path):
        # each of these used to run and exit 0, or fail with a traceback
        cfg = command_config(command)
        if command == "bridge":  # estimating its radius reads the replications
            del cfg["delta_bar"]
            cfg["delta_grid"] = [0.2, 0.3]
        cfg[field] = value
        config = write_config(tmp_path, cfg)
        assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f": {path}: " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_table_accepts_the_benchmark_configs(self):
        # the benchmark's generated inputs of the CLI workloads lie inside the
        # table at both of its sizes, so no benchmark run stops on a config check
        path = ROOT / "bench" / "spec.py"
        loader = importlib.util.spec_from_file_location("bench_spec", path)
        spec = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(spec)
        for name in ("functional-p50", "projector-p20", "vicinity-p3"):
            for small in (True, False):
                for seed in range(3):
                    parse(spec.make_config(name, seed, small=small))

    def test_report_refuses_non_finite_numbers(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _write_json(path, {"delta_bar": math.inf})
        assert not path.exists()

    def test_generic_prior_not_configurable(self, tmp_path):
        cfg = base_config(
            "flatness", prior={"kind": "generic"}, delta_grid=[0.01],
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError):
            run(cfg)


class TestBudgetCommand:
    def test_linear_functional_budget(self, tmp_path, capsys):
        cfg = base_config(
            "budget",
            functional={"kind": "trace"},
            budget={
                "context": "functional",
                "n": 1000,
                "delta_w": 0.1,
                "delta_hat": 0.05,
                "delta_tilde": 0.02,
                "g_norm_scaled": 0.01,
            },
            output_dir=str(tmp_path / "out"),
        )
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["terms"]["diamond_nl"] == 0.0
        assert report["total"] == report["terms"]["diamond_ga"]

    def test_posterior_independence(self, tmp_path):
        cfg = base_config(
            "budget",
            budget={"context": "posterior_independence", "rho": 0.1, "rho_w": 0.2, "n": 50},
            output_dir=str(tmp_path / "out"),
        )
        report = run(cfg)
        assert report["total"] == pytest.approx(0.32)

    def test_projector_budget_roundtrip(self, tmp_path):
        cfg = base_config(
            "budget",
            selection={"s_minus": 1, "s_plus": 1},
            l_star_j=1.0,
            budget={"context": "projector", "n": 500, "delta_hat": 0.1, "g_norm": 0.0},
            output_dir=str(tmp_path / "out"),
        )
        report = run(cfg)
        assert report["context"] == "projector"
        assert report["total"] > 0

    def test_unknown_context(self, tmp_path):
        cfg = base_config(
            "budget", budget={"context": "nope"}, output_dir=str(tmp_path / "out")
        )
        with pytest.raises(ConfigError):
            run(cfg)


class TestExperimentCommands:
    def test_bvm_functional_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            "bvm-functional",
            data={"n": 800, "seed": 3},
            prior={"kind": "inverse_wishart"},
            functional={"kind": "trace"},
            monte_carlo={"posterior_draws": 2000},
            output_dir=str(out),
        )
        report = run(cfg)
        assert report["ks"] < 0.1
        assert report["ks_resolution"] == pytest.approx(math.sqrt(math.log(40.0) / 4000.0))
        assert (out / "report.json").exists()
        assert (out / "statistic.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 17
        assert set(manifest["outputs"]) == {"report.json", "statistic.csv"}

    def test_entry_functional_from_config(self, tmp_path, capsys):
        # the section's indices reach the entry functional as given
        cfg = base_config(
            "bvm-functional", data={"n": 400, "seed": 3}, prior={"kind": "inverse_wishart"},
            functional={"kind": "entry", "i": 1, "j": 2}, monte_carlo={"posterior_draws": 1000},
        )
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        model = model_from_spectrum([2.0, 1.0], [1, 2], rotation_seed=0)
        assert report["functional"] == "entry"
        assert report["normalizer"] == entry_functional(model, 1, 2).normalizer

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = base_config(
            "bvm-functional",
            data={"n": 400, "seed": 3},
            prior={"kind": "inverse_wishart"},
            functional={"kind": "entry", "i": 0, "j": 0},
            monte_carlo={"posterior_draws": 1000},
        )
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run(cfg, out_override=str(out))
            blobs.append(
                ((out / "statistic.csv").read_bytes(), (out / "report.json").read_bytes())
            )
        assert blobs[0] == blobs[1]

    def test_bvm_projector_outputs(self, tmp_path):
        # weights 4 and 8/9 twice: the reference law is an unequal-weight mixture
        cfg = base_config(
            "bvm-projector",
            model={"mu": [4.0, 2.0, 1.0], "mult": [1, 1, 2], "rotation_seed": 0},
            data={"n": 2000, "seed": 3},
            prior={"kind": "inverse_wishart"},
            selection={"s_minus": 1, "s_plus": 1},
            l_star_j=1.0,
            monte_carlo={"posterior_draws": 2000},
        )
        legacy = {**cfg, "monte_carlo": {"posterior_draws": 2000, "reference_draws": 10_000}}
        blobs = []
        for sub, doc in (("a", cfg), ("b", cfg), ("legacy", legacy)):
            out = tmp_path / sub
            run(doc, out_override=str(out))
            blobs.append((out / "report.json").read_bytes())
        report = json.loads(blobs[0])
        assert set(report) == {
            "budget", "command", "delta_hat", "eigh_fallback_draws", "ks", "ks_resolution",
            "near_degenerate_draws", "precondition_ok",
        }
        assert report["command"] == "bvm-projector"
        assert report["ks"] < 0.1
        assert report["precondition_ok"] is True
        assert report["budget"]["context"] == "projector"
        assert report["budget"]["total"] > 0
        # DKW half-width at alpha = 0.05 over the 2000 posterior draws
        assert report["ks_resolution"] == pytest.approx(math.sqrt(math.log(40.0) / 4000.0))
        assert report["near_degenerate_draws"] == 0
        # reruns are byte-identical, and the retired reference_draws key is ignored
        assert blobs[0] == blobs[1] == blobs[2]
        csv = [(tmp_path / sub / "statistic.csv").read_bytes() for sub in ("a", "b")]
        assert csv[0] == csv[1]

    def test_bvm_projector_warns_when_precondition_fails(self, tmp_path):
        # at n = 200 the concentration radius exceeds min(gap / (4 ||S||), r(S) / p)
        cfg = base_config(
            "bvm-projector",
            seed=5,
            model={"mu": [4.0, 1.0], "mult": [1, 2], "rotation_seed": 1},
            data={"n": 200, "seed": 2},
            prior={"kind": "inverse_wishart"},
            selection={"s_minus": 1, "s_plus": 1},
            l_star_j=1.0,
            monte_carlo={"posterior_draws": 1000},
        )
        with pytest.warns(PreconditionWarning) as caught:
            report = run(cfg, out_override=str(tmp_path / "out"))
        assert [str(w.message) for w in caught] == [
            "concentration radius 0.305 exceeds the theorem bound 0.188; proceeding anyway"
        ]
        assert report["precondition_ok"] is False
        assert report["delta_hat"] == pytest.approx(0.305, abs=5e-4)
        # the run proceeds to its outputs
        assert (tmp_path / "out" / "statistic.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = base_config(
            "bvm-functional",
            data={"n": 400},
            prior={"kind": "inverse_wishart"},
            functional={"kind": "trace"},
            monte_carlo={"posterior_draws": 1000},
        )
        a = run(dict(cfg), out_override=str(tmp_path / "a"))
        b = run(dict(cfg), out_override=str(tmp_path / "b"), seed_override=99)
        assert a["ks"] != b["ks"]

    def test_flatness_command(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            "flatness",
            prior={"kind": "inverse_wishart", "b": 3.0},
            delta_grid=[1e-3, 1e-2],
            monte_carlo={"replications": 50},
            output_dir=str(out),
        )
        report = run(cfg)
        assert len(report["rho"]) == 2
        lines = (out / "flatness.csv").read_text().strip().splitlines()
        assert lines[0] == "delta,rho"
        assert len(lines) == 3
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows == [[1e-3, report["rho"][0]], [1e-2, report["rho"][1]]]

    def test_contraction_reports_inf_without_warning(self, tmp_path):
        # no radius of the grid holds posterior mass 1 - 1/n
        cfg = base_config(
            "contraction", data={"n": 500}, prior={"kind": "inverse_wishart"},
            delta_grid=[0.001], monte_carlo={"posterior_draws": 1000, "replications": 2},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(cfg, out_override=str(tmp_path / "out"))
        assert report["radius"] == "inf"

    def test_contraction_warns_when_p_over_n_is_large(self, tmp_path):
        cfg = base_config(
            "contraction", data={"n": 20}, prior={"kind": "inverse_wishart"},
            delta_grid=[0.5, 1.0, 2.0], monte_carlo={"posterior_draws": 1000, "replications": 2},
        )
        with pytest.warns(PreconditionWarning, match="p/n = 0.150"):
            run(cfg, out_override=str(tmp_path / "out"))

    def test_coverage_command(self, tmp_path):
        cfg = base_config(
            "coverage",
            data={"n": 1500, "seed": 2},
            prior={"kind": "inverse_wishart"},
            functional={"kind": "trace"},
            monte_carlo={"posterior_draws": 1500, "replications": 100},
            nominal_level=0.9,
            output_dir=str(tmp_path / "out"),
        )
        report = run(cfg)
        assert 0.8 <= report["empirical_coverage"] <= 1.0
        assert report["interval_widths"]["mean"] > 0

    @pytest.mark.parametrize(
        "target, draws, coverage, widths, notes",
        [
            (
                {"functional": {"kind": "trace"}},
                50,
                0.89,
                {"max": 0.8533216260822578, "mean": 0.6195328352446751,
                 "median": 0.6138960169058656},
                ["only 50 posterior draws per replication; quantiles unreliable"],
            ),
            (
                {"selection": {"s_minus": 1, "s_plus": 1}},
                200,
                0.91,
                {"max": 172.6349446465208, "mean": 21.84285172385014,
                 "median": 19.114561330032835},
                [],
            ),
        ],
    )
    def test_coverage_report_values(self, tmp_path, target, draws, coverage, widths, notes):
        # reference figures for this fixed config; the report's keys and
        # values must not drift
        cfg = base_config(
            "coverage",
            data={"n": 300, "seed": 2},
            prior={"kind": "inverse_wishart"},
            monte_carlo={"posterior_draws": draws, "replications": 100},
            nominal_level=0.9,
            **target,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowDraws)
            run(cfg, out_override=str(tmp_path / "out"))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report.pop("interval_widths") == pytest.approx(widths, rel=1e-9)
        assert report == {
            "command": "coverage",
            "nominal_level": 0.9,
            "replications": 100,
            "empirical_coverage": coverage,
            # Hoeffding half-width at alpha = 0.05 over 100 replications
            "coverage_resolution": pytest.approx(math.sqrt(math.log(40.0) / 200.0)),
            "warnings": notes,
        }

    def test_coverage_needs_target(self, tmp_path):
        cfg = base_config(
            "coverage",
            data={"n": 500},
            prior={"kind": "inverse_wishart"},
            monte_carlo={"replications": 100},
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError):
            run(cfg)

    def test_csv_header_carries_config_hash(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            "bvm-functional",
            data={"n": 400, "seed": 3},
            prior={"kind": "inverse_wishart"},
            functional={"kind": "trace"},
            monte_carlo={"posterior_draws": 1000},
            output_dir=str(out),
        )
        run(cfg)
        header = (out / "statistic.csv").read_text().splitlines()[0]
        assert config_hash(cfg) in header


def test_normal_cdf_matches_ndtr():
    # a grid through both tails, where one side rounds to 0 or 1, and
    # irregular points between
    x = np.concatenate([
        np.linspace(-40.0, 40.0, 8001),
        np.random.default_rng(3).standard_normal(20_000) * 4.0,
        [-np.inf, np.inf],
    ])
    assert np.max(np.abs(_normal_cdf(x) - scipy.special.ndtr(x))) <= 2.3e-16


class TestConfigHash:
    def test_order_independent(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_value_sensitive(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
