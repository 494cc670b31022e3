"""eigencount benchmark: CPU cost of sweeps and one-shot estimates, per layer.

    python3 perfbench/run.py --workload fig4-serial --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  --trace 0 measures the end-to-end metrics with tracing
off; --trace 1 drives the same work with spans around every call into the
package and prints the per-layer metrics.  Outputs are checked in both
modes.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Machine details, the run's output fingerprints and, in traced runs, the
spans are written to .perfbench_out/ at the end of the run.
"""

import os

# One BLAS thread per process, set before numpy is first imported; pool
# workers inherit it.  Busy processes then never outnumber the usable CPUs
# (one caller, or at most two pool workers).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 11

WORKLOADS = ("fig4-serial", "fig11-jobs2", "wide-estimate")

# Request costs are in CPU time: on a shared VM, wall time also counts time
# the hypervisor gave to other tenants, which varies from run to run.  The
# host also runs the same code faster in some spells; the mean and median
# request follow how much of a run those cover, the tail does not.  They
# and the wall times are printed with the run's details.
END_TO_END = (
    ("request_cpu_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Layers a trial or request calls directly; they also report their share
# of traced wall time.
DIRECT_LAYERS = (
    "simulation.generate_snapshots",
    "spectral.sample_covariance",
    "spectral.eig_sym_desc",
    "estimators.estimate_aic",
    "estimators.estimate_mdl",
    "estimators.estimate_modified_aic",
    "estimators.estimate_rmt",
    "estimators.estimate_signal_search",
    "estimators.estimate_sns",
)
# Layers replayed standalone on the (spectrum, k) pairs the scans visited,
# and run_sweep itself.
OTHER_LAYERS = (
    "noise.estimate_noise_and_spikes",
    "probabilities.pe_rmt",
    "probabilities.pe_srmt",
    "tracy_widom.tw_cdf",
    "tracy_widom.tw_quantile",
    "normal.normal_tail_inv",
    "simulation.run_sweep",
)
LAYER_STAT_UNITS = (("us_p50", "us"), ("calls", "count"), ("busy_s", "s"))
SCANS = ("estimate_rmt", "estimate_signal_search", "estimate_sns")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in DIRECT_LAYERS + OTHER_LAYERS:
        for stat, unit in LAYER_STAT_UNITS:
            units[f"{layer}.{stat}"] = unit
        if layer in DIRECT_LAYERS:
            units[f"{layer}.share"] = "ratio"
    units["spectral.sample_covariance.gflops_computed"] = "GFLOP/s"
    for scan in SCANS:
        units[f"estimators.{scan}.scan_depth_mean"] = "steps"
    units["estimators.estimate_sns.srmt_step_share"] = "ratio"
    units["estimators.estimate_sns.step2_share"] = "ratio"
    units["noise.estimate_noise_and_spikes.iterations_mean"] = "iterations"
    units["simulation.run_sweep.parallel_efficiency"] = "ratio"
    units["trace.trials_per_s"] = "1/s"
    units["trace.requests_per_s"] = "1/s"
    units["trace.overhead_pct"] = "%"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def make_workload(name: str, seed: int, jobs: int):
    import workloads
    if name == "fig4-serial":
        return workloads.SweepWorkload("fig4", trials_per_point=2, jobs=1, seed=seed,
                                       tail_percentile=95.0)
    if name == "fig11-jobs2":
        return workloads.SweepWorkload("fig11", trials_per_point=10, jobs=min(2, jobs),
                                       seed=seed, tail_percentile=80.0)
    return workloads.WideEstimateWorkload(seed, jobs)


def tail(times_ms: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples beyond) of the workload's fixed tail percentile."""
    import numpy
    value = float(numpy.percentile(times_ms, percentile))
    return value, sum(time > value for time in times_ms)


def setup_seconds(seed: int) -> float:
    """Median over fresh interpreters of import + one warm-up estimate."""
    times = []
    for probe in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(seed * 16 + probe)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """This process plus its largest reaped child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def environment(args, jobs: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": jobs, "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def end_to_end_metrics(out, seed: int, tail_percentile: float) -> tuple[dict, dict]:
    """CPU times count the caller and its pool workers; the wall-time rates
    and latencies go into the details."""
    cpu_ms = [t * 1e3 for t in out.cpu_times_s]
    latencies_ms = [t * 1e3 for t in out.latencies_s]
    busy_s = sum(out.latencies_s)
    cpu_tail_ms, beyond = tail(cpu_ms, tail_percentile)
    rss = peak_rss_mb()  # read before the set-up probes add children
    values = {
        "request_cpu_ms_tail": cpu_tail_ms,
        "setup_s": setup_seconds(seed),
        "peak_rss_mb": rss,
    }
    details = {"requests": len(cpu_ms), "tail_percentile": tail_percentile,
               "tail_samples_beyond": beyond,
               "cpu_ms_per_trial": sum(cpu_ms) / out.trials,
               "request_cpu_ms_p50": statistics.median(cpu_ms),
               "wall_trials_per_s": out.trials / busy_s,
               "wall_requests_per_s": len(latencies_ms) / busy_s,
               "wall_request_ms_p50": statistics.median(latencies_ms),
               "wall_request_ms_tail": tail(latencies_ms, tail_percentile)[0]}
    return values, details


def per_layer_metrics(out, tracer, replay_s: float) -> tuple[dict, dict]:
    from tracing import layer_stats
    from workloads import ROOT_SPANS
    durations = tracer.durations_ns()
    traced_wall_ns = sum(end - start for name, start, end, parent in tracer.spans
                         if parent == -1 and name in ROOT_SPANS)
    values = {}
    for layer in DIRECT_LAYERS + OTHER_LAYERS:
        if layer not in durations:
            raise RuntimeError(f"traced run recorded no {layer} spans")
        for stat, value in layer_stats(durations[layer]).items():
            values[f"{layer}.{stat}"] = value
        if layer in DIRECT_LAYERS:
            values[f"{layer}.share"] = sum(durations[layer]) / traced_wall_ns
    counters = tracer.counters
    values["spectral.sample_covariance.gflops_computed"] = (
        counters["spectral.sample_covariance.flops"] / 1e9
        / values["spectral.sample_covariance.busy_s"])
    for scan in SCANS:
        values[f"estimators.{scan}.scan_depth_mean"] = statistics.mean(out.scan_rows[scan])
    sns_steps, srmt_steps, step2_steps = out.scan_rows["sns_steps"]
    values["estimators.estimate_sns.srmt_step_share"] = srmt_steps / sns_steps
    values["estimators.estimate_sns.step2_share"] = step2_steps / sns_steps
    fits = values["noise.estimate_noise_and_spikes.calls"]
    values["noise.estimate_noise_and_spikes.iterations_mean"] = counters["noise.iterations"] / fits
    values["simulation.run_sweep.parallel_efficiency"] = out.serial_s / (out.jobs * out.sweep_s)
    values["trace.trials_per_s"] = out.trials / out.traced_s
    values["trace.requests_per_s"] = len(out.latencies_s) / out.traced_s
    values["trace.overhead_pct"] = 100.0 * (out.traced_s / out.untraced_s - 1.0)
    details = {"spans": len(tracer.spans), "visited_spectra": len(out.visits),
               "noise_fits_nonconverged": int(counters["noise.nonconverged"]),
               "replay_s": round(replay_s, 3)}
    return values, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eigencount" / "__init__.py").is_file():
        print(f"benchmark: no eigencount sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from time import perf_counter
    from tracing import Tracer
    from workloads import replay_layers

    jobs = len(os.sched_getaffinity(0))
    workload = make_workload(args.workload, args.seed, jobs)
    workload.warm_up()
    if args.trace:
        tracer = Tracer()
        out = workload.run_traced(args.seconds, tracer)
        replay_start = perf_counter()
        replay_layers(tracer, out.visits, budget_s=args.seconds / 4)
        values, details = per_layer_metrics(out, tracer, perf_counter() - replay_start)
        units = per_layer_units()
    else:
        out = workload.run(args.seconds)
        values, details = end_to_end_metrics(out, args.seed, workload.tail_percentile)
        units = dict(END_TO_END)

    fingerprints = json.loads((HERE / "fingerprints.json").read_text())
    if args.seed == fingerprints["seed"]:
        expected = fingerprints["workloads"][args.workload]
        differing = [key for key in ("output_sha256", "trace_sha256")
                     if getattr(out, key) != expected[key]]
        if differing:
            out.fail(workload.fingerprinted_trials,
                     f"{' and '.join(differing)} differ from the seed-{args.seed} fingerprint")

    env = environment(args, out.jobs)
    record = {"env": env, "details": details, "latencies_ms": [t * 1e3 for t in out.latencies_s],
              "cpu_ms": [t * 1e3 for t in out.cpu_times_s],
              "attempted": out.trials, "failed": min(out.failed, out.trials),
              "problems": out.problems, "output_sha256": out.output_sha256,
              "trace_sha256": out.trace_sha256, "input_sha256": out.input_sha256,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_csv(OUT_DIR / f"{stem}-spans.csv")

    print("env " + json.dumps(env))
    print("details " + json.dumps(details))
    print(f"output_sha256 {out.output_sha256}  trace_sha256 {out.trace_sha256}  "
          f"input_sha256 {out.input_sha256}")
    for problem in out.problems:
        print(f"FAILED {problem}")
    failed = min(out.failed, out.trials)
    print(f"failed_ratio {failed / out.trials:.6g} ({failed}/{out.trials})")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": out.trials,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
