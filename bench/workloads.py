"""The operations the benchmark times and the gates that check their outputs.

An operation writes ``report.json`` and ``manifest.json`` into its output
directory.  Three workloads call ``covbvm.cli.run`` on the generated config;
``metropolis-p3`` calls the library, because generic priors cannot be given
in JSON.  Gates run after the operation, outside its timing, and use only
covbvm's public functions, scipy and ``mcstats``.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy import stats

import covbvm
import covbvm.cli
from covbvm.diagnostics import default_statistic_battery
from covbvm.posterior import vicinity_mask

from mcstats import bulk_ess, dkw, dkw2
from spec import GATE_ALPHA, REPORT_ALPHA, _seeds, make_config


class Check:
    """The headline figure of one operation's outputs and its gates."""

    def __init__(self, stat_distance: float, resolution: float, note: str):
        self.stat_distance = stat_distance
        self.resolution = resolution
        self.note = note
        self.gates: list[tuple[str, float, float]] = []

    def require(self, label: str, value: float, limit: float) -> None:
        """A gate that passes when value <= limit."""
        self.gates.append((label, float(value), float(limit)))

    @property
    def failures(self) -> list[str]:
        return [f"{label} {value:.5g} above {limit:.5g}"
                for label, value, limit in self.gates if not value <= limit]


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _model(cfg):
    m = cfg["model"]
    return covbvm.model_from_spectrum(m["mu"], m["mult"], rotation_seed=m["rotation_seed"])


def _dataset(cfg, model):
    d = cfg["data"]
    return covbvm.sample_dataset(covbvm.DatasetSpec(model, d["family"], d["n"], d["seed"]))


class CliWorkload:
    """An operation that is one covbvm.cli.run call on the generated config."""

    def __init__(self, name: str, cfg: dict, oracle_seed: int):
        self.name = name
        self.cfg = cfg
        self.oracle_seed = oracle_seed
        self.captured: list = []

    def setup(self) -> None:
        if self.name == "vicinity-p3":
            # keep the draws the bridge command samples; the gate needs the
            # uniform-vicinity ones, which the command does not write out
            inner = covbvm.cli.sample_posterior

            def capture(sampler, count):
                draws = inner(sampler, count)
                self.captured.append((sampler, draws))
                return draws

            covbvm.cli.sample_posterior = capture
            self._inner = inner

    def teardown(self) -> None:
        if self.name == "vicinity-p3":
            covbvm.cli.sample_posterior = self._inner

    def operate(self, out_dir: str) -> None:
        self.captured = []
        covbvm.cli.run(self.cfg, out_override=out_dir)

    def evidence(self) -> list[bytes]:
        """Bytes beyond report and manifest that the gates depend on."""
        return [draws.matrices.tobytes() for _, draws in self.captured]

    def check(self, out_dir: str) -> Check:
        return getattr(self, "_check_" + self.name.split("-")[0])(out_dir)

    def _check_functional(self, out_dir):
        rep = _read_json(out_dir, "report.json")
        m = rep["posterior_draws"]
        check = Check(rep["ks"], dkw(m, REPORT_ALPHA), f"KS to N(0,1), M={m}")
        check.require("KS to N(0,1)", rep["ks"], dkw(m, GATE_ALPHA))
        return check

    def _check_projector(self, out_dir):
        cfg = self.cfg
        rep = _read_json(out_dir, "report.json")
        m = cfg["monte_carlo"]["posterior_draws"]
        ref = cfg["monte_carlo"]["reference_draws"]
        check = Check(rep["ks"], dkw(m, REPORT_ALPHA), f"KS to the chi-square mixture, M={m}")
        check.require("near-degenerate draws", rep["near_degenerate_draws"], 0)
        # the theorem's own bound on the KS, plus Monte Carlo noise on both sides
        check.require("KS to the mixture vs error budget", rep["ks"],
                      rep["budget"]["total"] + dkw(m, GATE_ALPHA / 2) + dkw(ref, GATE_ALPHA / 2))
        # exact oracle: the same statistic over independent draws of the exact
        # conjugate posterior, sampled by scipy and reduced here
        model = _model(cfg)
        data = _dataset(cfg, model)
        n, p = data.n, data.dim
        prior = cfg["prior"]
        scale = n * data.sample_cov.entries + prior["scale_diag"] * np.eye(p)
        dof = n + p + prior["b"] - 1
        mults = np.asarray(cfg["model"]["mult"])
        sel = cfg["selection"]
        lo, hi = int(mults[: sel["s_minus"] - 1].sum()), int(mults[: sel["s_plus"]].sum())
        draws = stats.invwishart.rvs(df=dof, scale=scale, size=m,
                                     random_state=np.random.default_rng(self.oracle_seed))
        # columns lo..hi of the descending-order eigenvectors span the selection
        vecs = np.linalg.eigh(draws)[1][:, :, p - hi : p - lo]
        hat = np.linalg.eigh(data.sample_cov.entries)[1][:, p - hi : p - lo]
        overlap = np.sum((np.swapaxes(vecs, 1, 2) @ hat) ** 2, axis=(1, 2))
        oracle = n * (2.0 * (hi - lo) - 2.0 * overlap)
        with open(os.path.join(out_dir, "statistic.csv")) as fh:
            fh.readline()
            values = np.array([float(line) for line in fh])
        check.require("statistic vs exact oracle KS", stats.ks_2samp(values, oracle).statistic,
                      dkw2(len(values), m, GATE_ALPHA))
        return check

    def _check_vicinity(self, out_dir):
        rep = _read_json(out_dir, "report.json")
        n, m = rep["n"], self.cfg["monte_carlo"]["posterior_draws"]
        battery = default_statistic_battery()
        k = len(battery)
        check = Check(rep["uniform_vs_conjugate"], dkw2(m, m, REPORT_ALPHA / k),
                      f"TV lower bound, uniform vs conjugate, {m} vs {m} draws")
        check.require("localized_vs_full", rep["localized_vs_full"],
                      2.0 / n + dkw2(m, m, GATE_ALPHA / k))
        uniform = [(s, d) for s, d in self.captured
                   if isinstance(s.prior, covbvm.UniformVicinityPrior)]
        if len(uniform) != 1:
            raise RuntimeError(f"expected one uniform-vicinity sampling call, saw {len(uniform)}")
        sampler, draws = uniform[0]
        data, center = sampler.data, sampler.prior.center
        # exact oracle: the flat-prior posterior IW(nS, n - p - 1) kept inside
        # the vicinity is the uniform-vicinity posterior
        flat = covbvm.sample_inverse_wishart(
            covbvm.SpdMatrix(data.n * data.sample_cov.entries), data.n - data.dim - 1,
            2 * m, self.oracle_seed)
        kept = flat[vicinity_mask(flat, center, rep["delta_bar"])]
        check.require("uniform vs exact oracle TV",
                      covbvm.tv_distance_over_statistics(draws, kept, battery),
                      dkw2(len(draws), len(kept), GATE_ALPHA / k))
        return check


class MetropolisWorkload:
    """Metropolis chain with a generic prior, checked against exact draws."""

    name = "metropolis-p3"

    def __init__(self, name: str, cfg: dict, oracle_seed: int):
        self.cfg = cfg
        self.oracle_seed = oracle_seed
        self.chain = None

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def operate(self, out_dir: str) -> None:
        cfg = self.cfg
        os.makedirs(out_dir, exist_ok=True)
        model = _model(cfg)
        data = _dataset(cfg, model)
        iw = covbvm.default_inverse_wishart_prior(model.dim)
        sampler = covbvm.PosteriorSampler(
            covbvm.GenericPrior(iw.log_density), data, covbvm.Metropolis(), cfg["seed"])
        mc = cfg["monte_carlo"]
        chain = covbvm.sample_posterior(sampler, mc["posterior_draws"])
        exact = covbvm.sample_posterior(
            covbvm.default_sampler(iw, data, seed=self.oracle_seed),
            mc["exact_draws"])
        report = {
            "command": "metropolis",
            "tv_vs_exact": covbvm.tv_distance_over_statistics(chain, exact),
            "posterior_draws": len(chain),
            "exact_draws": len(exact),
            "warnings": list(chain.warnings),
        }
        manifest = {
            "config_sha256": covbvm.cli.config_hash(cfg),
            "seed": cfg["seed"],
            "command": "metropolis",
            "outputs": ["report.json"],
            "version": covbvm.__version__,
        }
        for name, doc in (("report.json", report), ("manifest.json", manifest)):
            with open(os.path.join(out_dir, name), "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        self.chain = chain.matrices

    def evidence(self) -> list[bytes]:
        return [self.chain.tobytes()]

    def check(self, out_dir: str) -> Check:
        rep = _read_json(out_dir, "report.json")
        m, m_exact = rep["posterior_draws"], rep["exact_draws"]
        battery = default_statistic_battery()
        k = len(battery)
        check = Check(rep["tv_vs_exact"], dkw2(m, m_exact, REPORT_ALPHA / k),
                      f"TV lower bound vs exact conjugate draws, {m} chain vs {m_exact} exact draws")
        # the chain's draws are correlated: its Monte Carlo noise is that of
        # its smallest bulk ESS over the battery, not of m independent draws
        ess = min(bulk_ess(fn(self.chain)) for fn in battery.values())
        check.require("TV vs exact conjugate draws", rep["tv_vs_exact"],
                      dkw2(ess, m_exact, GATE_ALPHA / k))
        check.note += f", chain bulk ESS {ess:.0f}"
        return check


def build(name: str, seed: int, small: bool = False):
    """The workload's operation on the inputs generated from seed."""
    cfg = make_config(name, seed, small)
    # the fourth seed is used by no program input
    oracle_seed = _seeds(seed, name)[3]
    if name == "metropolis-p3":
        return MetropolisWorkload(name, cfg, oracle_seed)
    return CliWorkload(name, cfg, oracle_seed)
