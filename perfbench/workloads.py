"""The benchmark's workloads, their traced variants and their output checks.

Every input is derived from the workload seed, and no input repeats within
a run: sweep request c runs the trials of base seed seed * CHUNK_STRIDE + c,
and wide-estimate request i draws its matrix from the stream keyed by
(seed, i).  Memoising across identical inputs therefore cannot fake a gain.
"""

from __future__ import annotations

import hashlib
import resource
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from eigencount import estimators, simulation, spectral
from eigencount.errors import EigencountError
from eigencount.estimators import EstimatorConfig
from eigencount.noise import estimate_noise_and_spikes
from eigencount.normal import normal_tail_inv
from eigencount.probabilities import ThresholdContext, pe_rmt, pe_srmt
from eigencount.tracy_widom import centering_mu, scaling_sigma, tw_cdf, tw_quantile

from tracing import Tracer

# (sweep-CSV method name, estimator function), in the package's METHOD_ORDER.
METHODS = (("aic", "estimate_aic"), ("mdl", "estimate_mdl"),
           ("maic", "estimate_modified_aic"), ("rmt", "estimate_rmt"),
           ("srmt", "estimate_signal_search"), ("sns", "estimate_sns"))
ESTIMATOR_CALLS = tuple((f"estimators.{fn}", getattr(estimators, fn)) for _, fn in METHODS)
SCAN_INDEX = {"estimate_rmt": 3, "estimate_signal_search": 4, "estimate_sns": 5}
CONFIG = EstimatorConfig()
CSV_HEADER = "sweep_value,method,trials,count_under,count_over,p_under,p_over,p_e"
CHUNK_STRIDE = 1 << 20
# Requests whose outputs the seed fingerprint covers; every run makes them.
FINGERPRINTED_REQUESTS = 16
# Spans whose time counts as traced wall time: whole trials and requests,
# plus the snapshot draws that wide-estimate makes outside its requests.
ROOT_SPANS = ("trial", "request", "simulation.generate_snapshots")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children.

    run_sweep joins its pool workers before it returns, so their CPU time is
    included in a delta taken around the call.  The kernel leaves out time
    the hypervisor stole from the VM, which wall time includes.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def in_range(q_hats, p: int, n: int) -> bool:
    return all(0 <= q <= min(p, n) - 1 for q in q_hats)


def estimate_all(data: np.ndarray, n: int):
    """The library quick-start path: covariance, eigenvalues, six estimators."""
    spectrum = spectral.eig_sym_desc(spectral.sample_covariance(data), n)
    return spectrum, [fn(spectrum, config=CONFIG) for _, fn in ESTIMATOR_CALLS]


def traced_estimate_all(tracer: Tracer, data: np.ndarray, n: int):
    """estimate_all with a span around each call into the package."""
    p = data.shape[0]
    cov = tracer.call("spectral.sample_covariance", spectral.sample_covariance, data)
    tracer.count("spectral.sample_covariance.flops", 2.0 * p * p * n)
    spectrum = tracer.call("spectral.eig_sym_desc", spectral.eig_sym_desc, cov, n)
    return spectrum, [tracer.call(name, fn, spectrum, config=CONFIG)
                      for name, fn in ESTIMATOR_CALLS]


def trace_csvs(estimates) -> str:
    """The rmt and sns decision traces of one spectrum, for the fingerprint."""
    return (estimates[SCAN_INDEX["estimate_rmt"]].trace.to_csv_string()
            + estimates[SCAN_INDEX["estimate_sns"]].trace.to_csv_string())


def sweep_csv(trials: int, q_true: int, q_hats_by_point) -> str:
    """The run_sweep CSV rebuilt from per-trial q_hats.

    q_hats_by_point holds (sweep_value, [q_hats of each trial]) with each
    trial's q_hats in METHODS order.
    """
    rows = []
    for sweep_value, q_hats in q_hats_by_point:
        for j, (method, _) in enumerate(METHODS):
            under = sum(q[j] < q_true for q in q_hats)
            over = sum(q[j] > q_true for q in q_hats)
            rows.append((sweep_value, method, under, over))
    lines = [CSV_HEADER]
    for sweep_value, method, under, over in sorted(rows):
        p_under, p_over = under / trials, over / trials
        lines.append(f"{sweep_value},{method},{trials},{under},{over},"
                     f"{p_under:.6f},{p_over:.6f},{p_under + p_over:.6f}")
    return "\n".join(lines) + "\n"


@dataclass
class Outcome:
    """What one run did and what its output checks found."""

    latencies_s: list[float] = field(default_factory=list)
    cpu_times_s: list[float] = field(default_factory=list)
    trials: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    output_sha256: str = ""
    trace_sha256: str = ""
    input_sha256: str = ""
    # Traced runs only.
    traced_s: float = 0.0
    untraced_s: float = 0.0
    serial_s: float = 0.0
    sweep_s: float = 0.0
    jobs: int = 1
    visits: list = field(default_factory=list)
    scan_rows: dict = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def timed(self, trials: int, request):
        """request() timed in wall and CPU time, counted as `trials` trials."""
        wall, cpu = perf_counter(), cpu_seconds()
        try:
            return request()
        finally:
            self.latencies_s.append(perf_counter() - wall)
            self.cpu_times_s.append(cpu_seconds() - cpu)
            self.trials += trials

    def record_scans(self, spectrum, estimates) -> None:
        """Scan depths and sns step choices; the visited (spectrum, depth)."""
        depth = 0
        for fn, index in SCAN_INDEX.items():
            rows = estimates[index].trace.rows
            self.scan_rows.setdefault(fn, []).append(len(rows))
            depth = max(depth, len(rows))
        sns_rows = estimates[SCAN_INDEX["estimate_sns"]].trace.rows
        tally = self.scan_rows.setdefault("sns_steps", [0, 0, 0])
        tally[0] += len(sns_rows)
        tally[1] += sum(row.criterion == "srmt" for row in sns_rows)
        tally[2] += sum(row.pbar_rmt_inter is not None for row in sns_rows)
        self.visits.append((spectrum, depth))


class SweepWorkload:
    """One caller in a closed loop of run_sweep calls on a preset's desk grid.

    A request is one run_sweep over the preset's three desk points with
    trials_per_point trials each; a trial is one draw plus all six
    estimators.  tail_percentile is fixed per workload, so a faster program
    that completes more requests is measured at the same percentile.
    """

    def __init__(self, preset: str, trials_per_point: int, jobs: int, seed: int,
                 tail_percentile: float):
        self.preset = preset
        self.trials_per_point = trials_per_point
        self.jobs = jobs
        self.seed = seed
        self.tail_percentile = tail_percentile

    def spec(self, chunk: int, trials: int | None = None):
        return simulation.preset_scenario(
            self.preset, trials=trials or self.trials_per_point,
            base_seed=self.seed * CHUNK_STRIDE + chunk)

    @property
    def trials_per_chunk(self) -> int:
        return self.trials_per_point * len(self.spec(0).sweep_points())

    @property
    def fingerprinted_trials(self) -> int:
        return FINGERPRINTED_REQUESTS * self.trials_per_chunk

    def warm_up(self) -> None:
        simulation.run_sweep(self.spec(CHUNK_STRIDE - 1, trials=2), jobs=self.jobs)

    def run(self, seconds: float) -> Outcome:
        """Timed run_sweep calls on chunks 0, 1, 2, ... for `seconds`."""
        out = Outcome(jobs=self.jobs)
        chunk, first_csvs = 0, []
        start = perf_counter()
        while chunk < FINGERPRINTED_REQUESTS or perf_counter() - start < seconds:
            spec = self.spec(chunk)
            try:
                csv = out.timed(self.trials_per_chunk,
                                lambda: simulation.run_sweep(spec, jobs=self.jobs)).to_csv_string()
            except EigencountError as exc:
                csv = None
                out.fail(self.trials_per_chunk, f"chunk {chunk}: {exc}")
            if csv is not None and not self._well_formed(csv):
                out.fail(self.trials_per_chunk, f"chunk {chunk}: malformed sweep CSV")
            if chunk < FINGERPRINTED_REQUESTS:
                first_csvs.append(csv)
            chunk += 1
        self._check_first_chunk(out, first_csvs[0])
        self._fingerprint(out, first_csvs)
        return out

    def _well_formed(self, csv: str) -> bool:
        lines = csv.splitlines()
        points = len(self.spec(0).sweep_points())
        if lines[0] != CSV_HEADER or len(lines) != 1 + points * len(METHODS):
            return False
        for line in lines[1:]:
            fields = line.split(",")
            under, over = int(fields[3]), int(fields[4])
            if int(fields[2]) != self.trials_per_point or under + over > self.trials_per_point:
                return False
        return True

    def _check_first_chunk(self, out: Outcome, csv: str | None) -> None:
        """Drive chunk 0 trial by trial through run_trial and rebuild its CSV."""
        spec = self.spec(0)
        q_by_point = []
        for sweep_value, p, n in spec.sweep_points():
            q_hats = []
            for idx in range(spec.trials):
                result = simulation.run_trial(spec, idx, p, n)
                q = [result[method] for method, _ in METHODS]
                if not in_range(q, p, n):
                    out.fail(1, f"q_hat out of range at p={p} n={n} trial {idx}: {q}")
                q_hats.append(q)
            q_by_point.append((sweep_value, q_hats))
        if sweep_csv(spec.trials, spec.q, q_by_point) != csv:
            out.fail(self.trials_per_chunk, "chunk 0: serial rebuild differs from run_sweep CSV")

    def _fingerprint(self, out: Outcome, csvs) -> None:
        """sha256 of the first chunks' CSVs, and of chunk 0's first inputs
        and rmt/sns traces."""
        spec = self.spec(0)
        out.output_sha256 = sha256("".join(csv or "" for csv in csvs))
        traces, inputs = [], []
        for _, p, n in spec.sweep_points():
            for idx in range(2):
                rng = simulation.trial_rng(spec.base_seed, idx)
                data = simulation.generate_snapshots(spec.model(p), n, rng).data
                inputs.append(data.tobytes())
                traces.append(trace_csvs(estimate_all(data, n)[1]))
        out.trace_sha256 = sha256("".join(traces))
        out.input_sha256 = hashlib.sha256(b"".join(inputs)).hexdigest()

    def run_traced(self, seconds: float, tracer: Tracer) -> Outcome:
        """Every trial driven serially with spans, each chunk checked against
        run_sweep, and each trial paired with an untraced run_trial."""
        out = Outcome(jobs=self.jobs)
        chunk, first_csvs = 0, []
        start = perf_counter()
        while chunk < FINGERPRINTED_REQUESTS or perf_counter() - start < seconds:
            spec = self.spec(chunk)
            q_by_point = []
            chunk_traced = 0.0
            for sweep_value, p, n in spec.sweep_points():
                q_hats = []
                for idx in range(spec.trials):
                    untraced_first = idx % 2 == 1
                    if untraced_first:
                        reference = self._untraced_trial(out, spec, idx, p, n)
                    traced_start = perf_counter()
                    with tracer.span("trial"):
                        model = spec.model(p)
                        rng = simulation.trial_rng(spec.base_seed, idx)
                        snapshots = tracer.call("simulation.generate_snapshots",
                                                simulation.generate_snapshots, model, n, rng)
                        spectrum, estimates = traced_estimate_all(tracer, snapshots.data, n)
                    chunk_traced += perf_counter() - traced_start
                    if not untraced_first:
                        reference = self._untraced_trial(out, spec, idx, p, n)
                    q = [e.q_hat for e in estimates]
                    if q != reference or not in_range(q, p, n):
                        out.fail(1, f"p={p} n={n} trial {idx}: traced {q}, run_trial {reference}")
                    out.record_scans(spectrum, estimates)
                    q_hats.append(q)
                q_by_point.append((sweep_value, q_hats))
            out.traced_s += chunk_traced
            out.latencies_s.append(chunk_traced)
            out.trials += self.trials_per_chunk
            csv = sweep_csv(spec.trials, spec.q, q_by_point)
            sweep_start = perf_counter()
            reference_csv = tracer.call("simulation.run_sweep", simulation.run_sweep,
                                        spec, jobs=self.jobs).to_csv_string()
            out.sweep_s += perf_counter() - sweep_start
            if csv != reference_csv:
                out.fail(self.trials_per_chunk, f"chunk {chunk}: traced CSV differs "
                                                f"from run_sweep(jobs={self.jobs})")
            if chunk < FINGERPRINTED_REQUESTS:
                first_csvs.append(csv)
            chunk += 1
        out.serial_s = out.traced_s
        self._fingerprint(out, first_csvs)
        return out

    @staticmethod
    def _untraced_trial(out: Outcome, spec, idx: int, p: int, n: int) -> list[int]:
        start = perf_counter()
        result = simulation.run_trial(spec, idx, p, n)
        out.untraced_s += perf_counter() - start
        return [result[method] for method, _ in METHODS]


class WideEstimateWorkload:
    """One caller in a closed loop estimating on 200 x 400 snapshot matrices.

    Each request runs sample_covariance, eig_sym_desc and all six
    estimators on a fresh matrix with spike eigenvalues 6 and 3 over a unit
    noise floor.  Request i's matrix is drawn with generate_snapshots from
    the stream keyed (seed, i) just before the request, outside its timing.
    """

    P, N = 200, 400
    tail_percentile = 95.0
    fingerprinted_trials = FINGERPRINTED_REQUESTS
    # Pool size for the run_sweep replay; this workload has no pool itself.
    SWEEP_JOBS = 2

    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.jobs = min(jobs, self.SWEEP_JOBS)
        self.model = spectral.PopulationModel(np.array([5.0, 2.0]), 1.0, self.P)

    def make_input(self, index: int, tracer: Tracer | None = None) -> np.ndarray:
        rng = np.random.default_rng([self.seed, index])
        if tracer is None:
            return simulation.generate_snapshots(self.model, self.N, rng).data
        return tracer.call("simulation.generate_snapshots", simulation.generate_snapshots,
                           self.model, self.N, rng).data

    @staticmethod
    def request(data: np.ndarray) -> list[int]:
        return [e.q_hat for e in estimate_all(data, data.shape[1])[1]]

    def warm_up(self) -> None:
        rng = np.random.default_rng([self.seed, 1 << 40])
        self.request(simulation.generate_snapshots(self.model, self.N, rng).data)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        first = []
        start = perf_counter()
        while out.trials < self.fingerprinted_trials or perf_counter() - start < seconds:
            index = out.trials
            data = self.make_input(index)
            try:
                q = out.timed(1, lambda: self.request(data))
            except EigencountError as exc:
                q = None
                out.fail(1, f"request {index}: {exc}")
            if q is not None and not in_range(q, self.P, self.N):
                out.fail(1, f"request {index}: q_hat out of range {q}")
            if index < self.fingerprinted_trials:
                first.append(q)
        self._fingerprint(out, first)
        return out

    def _fingerprint(self, out: Outcome, first) -> None:
        """sha256 of the first requests' q_hats, inputs and rmt/sns traces."""
        out.output_sha256 = sha256(repr(first))
        inputs = [self.make_input(i) for i in range(2)]
        out.trace_sha256 = sha256("".join(trace_csvs(estimate_all(data, self.N)[1])
                                          for data in inputs))
        out.input_sha256 = hashlib.sha256(b"".join(d.tobytes() for d in inputs)).hexdigest()

    def run_traced(self, seconds: float, tracer: Tracer) -> Outcome:
        """Requests with spans, each paired with the same request untraced."""
        out = Outcome(jobs=self.jobs)
        first = []
        start = perf_counter()
        while out.trials < self.fingerprinted_trials or perf_counter() - start < seconds:
            index = out.trials
            data = self.make_input(index, tracer)
            untraced_first = index % 2 == 1
            if untraced_first:
                reference = self._untraced_request(out, data)
            traced_start = perf_counter()
            with tracer.span("request"):
                spectrum, estimates = traced_estimate_all(tracer, data, self.N)
            elapsed = perf_counter() - traced_start
            if not untraced_first:
                reference = self._untraced_request(out, data)
            out.traced_s += elapsed
            out.latencies_s.append(elapsed)
            q = [e.q_hat for e in estimates]
            if q != reference or not in_range(q, self.P, self.N):
                out.fail(1, f"request {index}: traced {q}, untraced {reference}")
            out.record_scans(spectrum, estimates)
            if index < self.fingerprinted_trials:
                first.append(q)
            out.trials += 1
        self._replay_sweep(out, tracer)
        self._fingerprint(out, first)
        return out

    def _untraced_request(self, out: Outcome, data: np.ndarray) -> list[int]:
        start = perf_counter()
        q = self.request(data)
        out.untraced_s += perf_counter() - start
        return q

    def _replay_sweep(self, out: Outcome, tracer: Tracer, chunks: int = 3,
                      trials: int = 8) -> None:
        """run_sweep on this workload's geometry as a one-point sweep.

        Requests never call run_sweep, so its layer metrics here come from
        this replay: the same trials run serially through run_trial, then
        through run_sweep with a pool.
        """
        for chunk in range(chunks):
            spec = simulation.ScenarioSpec(
                lambdas=(6.0, 3.0), p=self.P, n=self.N, trials=trials,
                base_seed=self.seed * CHUNK_STRIDE + chunk)
            start = perf_counter()
            serial = [simulation.run_trial(spec, idx) for idx in range(trials)]
            out.serial_s += perf_counter() - start
            start = perf_counter()
            result = tracer.call("simulation.run_sweep", simulation.run_sweep,
                                 spec, jobs=self.jobs)
            out.sweep_s += perf_counter() - start
            rebuilt = sweep_csv(trials, spec.q, [(self.P, [[q[m] for m, _ in METHODS]
                                                           for q in serial])])
            if rebuilt != result.to_csv_string():
                out.fail(trials, f"sweep replay {chunk}: serial and run_sweep CSVs differ")


def replay_layers(tracer: Tracer, visits, budget_s: float) -> None:
    """Replay the inner layers standalone on the (spectrum, k) pairs that the
    traced scans visited, until every pair is done or the budget is spent.

    For each visited k: the noise fit, all eight misdetection scores where
    the fitted strength is positive, tw_cdf of the TW-normalised l_k, and
    tw_quantile and normal_tail_inv at that statistic's upper-tail mass.
    """
    start = perf_counter()
    for spectrum, depth in visits:
        if perf_counter() - start >= budget_s:
            break
        p, n = spectrum.p, spectrum.n
        depth = min(depth, min(p, n) - 1)
        fits = []
        for k in range(depth + 1):
            fit = tracer.call("noise.estimate_noise_and_spikes", estimate_noise_and_spikes,
                              spectrum, k, CONFIG.solver_tol, CONFIG.solver_max_iter)
            tracer.count("noise.iterations", fit.iterations)
            tracer.count("noise.nonconverged", not fit.converged)
            fits.append(fit)
        for k in range(1, depth + 1):
            fit = fits[k]
            if float(fit.lambda_hat[k - 1]) > 0.0:
                ctx = ThresholdContext(k=k, fit_k=fit, fit_km1=fits[k - 1],
                                       spectrum=spectrum, gamma=spectrum.gamma,
                                       alpha=CONFIG.alpha, alpha0=CONFIG.alpha0,
                                       beta=CONFIG.beta)
                for interaction in (True, False):
                    for signal in (True, False):
                        tracer.call("probabilities.pe_rmt", pe_rmt, ctx, interaction, signal)
                        tracer.call("probabilities.pe_srmt", pe_srmt, ctx, interaction, signal)
            m = p - k
            x = ((float(spectrum.eigenvalues[k - 1]) / fit.sigma2_hat - centering_mu(n, m))
                 / scaling_sigma(n, m))
            cdf = tracer.call("tracy_widom.tw_cdf", tw_cdf, x, CONFIG.beta)
            tail = min(max(1.0 - cdf, 1e-12), 1.0 - 1e-12)
            tracer.call("tracy_widom.tw_quantile", tw_quantile, tail, CONFIG.beta)
            tracer.call("normal.normal_tail_inv", normal_tail_inv, tail)
