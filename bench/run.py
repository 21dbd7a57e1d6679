"""covbvm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from anywhere inside a checkout of the repository: covbvm is imported
from its ``src`` directory, and outputs go to ``.bench_work/`` at the root.

One run is one process driving covbvm in a closed loop: one client, each
operation starting when the previous one has finished.  It generates the
workload's input from --seed, runs one warm-up operation, then times
operations until --seconds have passed.  Every operation is checked: it
fails if it raises, if a correctness gate fails, or if its report.json and
manifest.json differ from the first operation's, which ran on the same input.

With --trace 0 the run times operations with nothing wrapped and reports the
end-to-end metrics.  wall_s and setup_s are medians rescaled to a reference
host speed, measured by a fixed kernel timed around each measurement (see
hostspeed.py); the raw medians are printed next to them.  With --trace 1 it alternates plain and traced operations
and reports the per-layer metrics; the traced outputs must be byte-identical
to the plain ones.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  --all runs every workload with --trace 0, each in its own
process, and prints a summary table.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spec

# Fixed before numpy is first imported, by this process and by the set-up
# probes it starts, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(spec.BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 3


def _import_covbvm():
    if not os.path.isfile(os.path.join(SRC, "covbvm", "__init__.py")):
        print(f"covbvm sources not found under {SRC}; run inside a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import covbvm  # noqa: F401
    import covbvm.cli  # noqa: F401


def probe(name: str, seed: int) -> None:
    """Set-up as a covbvm user pays it: import, generate the config, build the model."""
    _import_covbvm()
    import covbvm

    cfg = spec.make_config(name, seed)
    m = cfg["model"]
    covbvm.model_from_spectrum(m["mu"], m["mult"], rotation_seed=m["rotation_seed"])


def measure_setup(name: str, seed: int, host) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running probe(), one after another,
    and the host kernel times around them."""
    times, kernels = [], []
    for _ in range(SETUP_PROBES):
        kernels.append(host.kernel_seconds())
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--probe", name,
                        "--seed", str(seed)], cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        kernels.append(host.kernel_seconds())
    return times, kernels


def blas_threads() -> str:
    """Thread count numpy's OpenBLAS reports, or the requested count if it cannot be asked."""
    import ctypes

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return str(fn())
    return f"{spec.BLAS_THREADS} (requested; not queryable)"


def _read_outputs(out_dir: str) -> list[bytes]:
    outputs = []
    for name in ("report.json", "manifest.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs.append(fh.read())
    return outputs


class Run:
    """One benchmark run: a closed loop of operations on one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, host,
                 small: bool = False):
        import tracing
        import workloads

        self.seconds, self.trace = seconds, trace
        self.host = host
        self.kernels: list[float] = []  # host kernel times around the timed operations
        self.work = os.path.join(WORK, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.workload = workloads.build(name, seed, small)
        self.tracer = tracing.Tracer() if trace else None
        if self.tracer is not None:
            # before the workload's own set-up, which may wrap a traced binding
            self.tracer.install()
        self.workload.setup()
        self.reference = None
        self.checks: dict[bytes, object] = {}
        self.ops: list[dict] = []

    def operation(self, traced: bool, timed: bool) -> dict:
        index = len(self.ops)
        out_dir = os.path.join(self.work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        op = {"index": index, "traced": traced, "timed": timed, "failures": [], "check": None}
        if timed:
            self.kernels.append(self.host.kernel_seconds())
        if traced:
            self.tracer.op = index
            self.tracer.measure_peaks = not timed
        start = time.perf_counter()
        try:
            self.workload.operate(out_dir)
        except Exception as exc:  # a failed operation is counted; the loop goes on
            traceback.print_exc(file=sys.stderr)
            op["failures"].append(f"raised {type(exc).__name__}: {exc}")
        finally:
            op["wall"] = time.perf_counter() - start
            if traced:
                self.tracer.op = None
        if timed:
            self.kernels.append(self.host.kernel_seconds())
        if not op["failures"]:
            self._verify(op, out_dir)
        self.ops.append(op)
        return op

    def _verify(self, op: dict, out_dir: str) -> None:
        try:
            outputs = _read_outputs(out_dir)
        except OSError as exc:
            op["failures"].append(f"missing output: {exc}")
            return
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            op["failures"].append("report.json or manifest.json differs from the first operation's")
        digest = hashlib.sha256(b"".join(outputs + self.workload.evidence())).digest()
        if digest not in self.checks:
            try:
                self.checks[digest] = self.workload.check(out_dir)
            except Exception as exc:  # a gate that cannot be evaluated fails the operation
                traceback.print_exc(file=sys.stderr)
                op["failures"].append(f"gate raised {type(exc).__name__}: {exc}")
                return
        op["check"] = self.checks[digest]
        op["failures"].extend(op["check"].failures)

    def loop(self) -> None:
        # warm-up; with tracing it is the one operation whose peak memory is
        # measured, since tracemalloc would slow the timed ones
        self.operation(traced=self.trace, timed=False)
        start = time.perf_counter()
        while True:
            # with tracing, plain and traced operations alternate, so the two
            # walls compare operations from the same stretch of the run
            traced = self.trace and len(self.ops) % 2 == 0
            self.operation(traced, timed=True)
            timed = [op for op in self.ops if op["timed"]]
            both = not self.trace or len({op["traced"] for op in timed}) == 2
            if time.perf_counter() - start >= self.seconds and both:
                return

    def close(self) -> None:
        self.workload.teardown()
        if self.tracer is not None:
            self.tracer.uninstall()


def _median_metrics(per_op: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    _import_covbvm()
    import hostspeed

    host = hostspeed.HostSpeed()
    setup_times, setup_kernels = ([], []) if trace else measure_setup(name, seed, host)
    run = Run(name, seed, seconds, trace, host, small)
    try:
        run.loop()
    finally:
        run.close()
    ops = run.ops
    failed = [op for op in ops if op["failures"]]
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    units.update({n: u for n, u, *_ in spec.PER_LAYER})
    plain = [op["wall"] for op in ops if op["timed"] and not op["traced"]]
    check = next((op["check"] for op in ops if op["check"] is not None), None)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  closed loop, 1 client  "
          f"BLAS threads {blas_threads()}  nproc {os.cpu_count()}")
    for op in ops:
        kind = "warm-up" if not op["timed"] else ("traced" if op["traced"] else "timed")
        status = "ok" if not op["failures"] else "FAILED: " + "; ".join(op["failures"])
        print(f"  op {op['index']:2d} {kind:7s} {op['wall']:8.3f} s  {status}")
    print(f"  error_rate     {len(failed)}/{len(ops)} = {len(failed) / len(ops):.3f} "
          "(failed / attempted operations)")
    if check is not None:
        print(f"  stat_distance  {check.stat_distance:.5f}  resolution {check.resolution:.5f} "
              f"at alpha {spec.REPORT_ALPHA}  ({check.note})")
        for label, value, limit in check.gates:
            verdict = "ok" if value <= limit else "FAILED"
            print(f"  gate  {label}: {value:.5g} <= {limit:.5g}  {verdict}")

    if trace:
        traced_ops = [op for op in ops if op["traced"] and op["timed"]]
        names = [n for n in spec.PER_LAYER_NAMES if not n.startswith(("report.", "trace."))]
        layers = run.tracer.layer_metrics([0] + [op["index"] for op in traced_ops], names)
        peaks = layers.pop(0)
        values = _median_metrics(list(layers.values()))
        values.update({k: v for k, v in peaks.items() if k.endswith(".peak_mb")})
        values["report.stat_distance"] = check.stat_distance if check is not None else 0.0
        traced_wall = statistics.median(op["wall"] for op in traced_ops)
        values["trace.overhead_s"] = traced_wall - statistics.median(plain)
        run.tracer.write_csv(os.path.join(run.work, "spans.csv"))
        print(f"  traced wall {traced_wall:.3f} s (median of {len(traced_ops)}), plain wall "
              f"{statistics.median(plain):.3f} s (median of {len(plain)})")
        for key in spec.PER_LAYER_NAMES:
            print(f"  {key:52s} {values[key]:.6g} {units[key]}")
        metrics = {key: {"value": values[key], "unit": units[key]} for key in spec.PER_LAYER_NAMES}
    else:
        values = {
            "wall_s": hostspeed.rescale(plain, run.kernels),
            "setup_s": hostspeed.rescale(setup_times, setup_kernels),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"  host kernel    {statistics.median(run.kernels):.4f} s median, reference "
              f"{hostspeed.REFERENCE_S} s; times below are rescaled to the reference")
        print(f"  wall_s         {values['wall_s']:.4f} s  (median of {len(plain)} timed "
              f"operations; raw median {statistics.median(plain):.4f}, min {min(plain):.4f}, "
              f"max {max(plain):.4f})")
        print(f"  setup_s        {values['setup_s']:.4f} s  (median of {len(setup_times)} fresh "
              f"interpreters; raw median {statistics.median(setup_times):.4f})")
        print(f"  peak_rss_mb    {values['peak_rss_mb']:.1f} MB  (peak resident set of this process)")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec.END_TO_END}

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    summary = dict(result, stat_distance=check.stat_distance if check else None,
                   resolution=check.resolution if check else None,
                   timed_operations=len(plain), setup_probes=len(setup_times),
                   raw_wall_s=statistics.median(plain),
                   raw_setup_s=statistics.median(setup_times) if setup_times else None,
                   host_kernel_s=statistics.median(run.kernels),
                   blas_threads=blas_threads(), nproc=os.cpu_count())
    with open(os.path.join(run.work, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return result


def run_all(seed: int, seconds: float) -> int:
    rows = []
    for name in spec.WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        with open(os.path.join(WORK, name, "result.json")) as fh:
            rows.append((name, json.load(fh)))
    print(f"\n{'workload':16s} {'wall_s (s)':>12s} {'setup_s (s)':>12s} {'peak_rss_mb (MB)':>17s} "
          f"{'error_rate':>11s} {'stat_distance':>14s} {'resolution':>11s}")
    for name, r in rows:
        m = r["metrics"]
        print(f"{name:16s} {m['wall_s']['value']:12.4f} {m['setup_s']['value']:12.4f} "
              f"{m['peak_rss_mb']['value']:17.1f} {r['failed']:>5d}/{r['attempted']:<5d} "
              f"{r['stat_distance'] or math.nan:14.5f} {r['resolution'] or math.nan:11.5f}")
    print(f"wall_s: median over {', '.join(str(r['timed_operations']) for _, r in rows)} timed "
          f"operations; setup_s: median of {SETUP_PROBES} fresh interpreters")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covbvm benchmark")
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload with --trace 0")
    parser.add_argument("--probe", choices=spec.WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe, args.seed)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
