import contextlib
import json
import math
import warnings

import pytest

from covbvm.cli import _write_json, config_hash, main, run
from covbvm.errors import ConfigError, LowDraws


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
        ],
        ids=[
            "selection-no-s_minus", "selection-no-s_plus", "budget-no-rho",
            "functional-no-kind", "unknown-family", "negative-delta", "too-few-draws",
            "coverage-too-few-draws", "contraction-too-few-draws", "flatness-zero-radius",
            "budget-negative-rho", "entry-index-too-large", "entry-index-negative",
            "unknown-functional-kind", "contraction-decreasing-grid", "bridge-decreasing-grid",
            "bridge-grid-exhausted", "bridge-zero-radius", "budget-independence-zero-n",
            "budget-functional-zero-n", "budget-projector-negative-n", "budget-infinite-rho",
            "budget-overflowing-rho", "budget-nan-n",
        ],
    )
    def test_malformed_config_exits_2(self, request, tmp_path, capsys, cfg, path):
        config = write_config(tmp_path, cfg)
        # the bridge's radius search warns before the config error
        warns = (
            pytest.warns(RuntimeWarning, match="contraction grid exhausted")
            if request.node.callspec.id == "bridge-grid-exhausted"
            else contextlib.nullcontext()
        )
        with warns:
            assert main(["--config", config, "--out", str(tmp_path / "out")]) == 2
        assert f": {path}" in capsys.readouterr().err

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
        # DKW half-width at alpha = 0.05 over the 2000 posterior draws
        assert report["ks_resolution"] == pytest.approx(math.sqrt(math.log(40.0) / 4000.0))
        assert report["near_degenerate_draws"] == 0
        # reruns are byte-identical, and the retired reference_draws key is ignored
        assert blobs[0] == blobs[1] == blobs[2]
        csv = [(tmp_path / sub / "statistic.csv").read_bytes() for sub in ("a", "b")]
        assert csv[0] == csv[1]

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
                0.86,
                {"max": 0.813861643116951, "mean": 0.6269924731996257,
                 "median": 0.6239550327500263},
                ["only 50 posterior draws per replication; quantiles unreliable"],
            ),
            (
                {"selection": {"s_minus": 1, "s_plus": 1}},
                200,
                0.89,
                {"max": 46.210470064488355, "mean": 19.668062140616975,
                 "median": 17.977661512254237},
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


class TestConfigHash:
    def test_order_independent(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_value_sensitive(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
