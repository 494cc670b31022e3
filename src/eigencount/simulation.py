"""Synthetic-data generation and Monte Carlo misdetection sweeps.

Snapshots are drawn from a zero-mean Gaussian with the diagonal population
covariance (spikes plus white noise floor); for eigenvalue-based estimators
this is statistically equivalent to mixing through an explicit array
response matrix.  Every trial owns a counter-based random stream keyed by
(base_seed, trial_index), so results are bit-reproducible and independent
of execution order -- trials can run in any order or in parallel.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError
from .estimators import METHOD_ORDER, ESTIMATORS, EstimatorConfig, _scan_q_hats
from .normal import _erfc_array, norm_ppf_array
from .spectral import PopulationModel, SnapshotMatrix, eig_sym_desc, sample_covariance

DESK_TRIALS = 1000
FULL_TRIALS = 3000

# Figure presets: the spike-eigenvalue vectors and sweep geometry of the
# benchmark scenarios.  Sweep grids are not part of the scenario definition;
# the desk grids keep an acceptance run in the minutes range and the full
# grids extend the same sweeps upward.
_PRESETS = {
    "fig1": {"gamma": 0.5, "lambda": ()},
    "fig2": {"gamma": 0.5, "lambda": (15.0,)},
    "fig3": {"gamma": 0.5, "lambda": (20.0, 15.0, 12.0, 12.0, 10.0, 10.0, 10.0, 10.0)},
    "fig4": {"gamma": 0.5, "lambda": (12.0, 10.0, 8.0, 6.0, 6.0, 5.0, 4.0, 4.0),
             "desk_grid": (40, 60, 80)},
    "fig5": {"gamma": 2.0, "lambda": ()},
    "fig6": {"gamma": 2.0, "lambda": (20.0,)},
    "fig7": {"gamma": 2.0, "lambda": (15.0, 15.0, 12.0, 12.0, 10.0, 10.0, 10.0, 8.0),
             "desk_grid": (60, 80, 100)},
    "fig8": {"p": 60, "lambda": ()},
    "fig9": {"p": 60, "lambda": (20.0,)},
    "fig10": {"p": 60, "lambda": (40.0, 25.0, 20.0, 20.0, 15.0, 15.0, 12.0, 10.0)},
    "fig11": {"p": 60, "lambda": (15.0, 12.0, 10.0, 10.0, 8.0, 6.0, 5.0, 4.0, 4.0, 2.5)},
}
_DESK_P_GRID = (20, 40, 60)
_FULL_P_GRID = (20, 40, 60, 100, 140, 200)
_DESK_N_GRID = (30, 60, 120)
_FULL_N_GRID = (30, 60, 120, 240, 480)

PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo experiment: population, sweep axis, trial budget.

    lambdas are the spike eigenvalues of the population covariance, the
    convention the benchmark scenarios are printed in (the noise eigenvalues
    all equal sigma2); the corresponding signal strength of each spike is
    lambda - sigma2, so every entry must exceed sigma2.
    """

    lambdas: tuple[float, ...] = ()
    sigma2: float = 1.0
    p: int | None = None
    n: int | None = None
    gamma: float | None = None
    p_list: tuple[int, ...] | None = None
    n_list: tuple[int, ...] | None = None
    trials: int = FULL_TRIALS
    base_seed: int = 0
    methods: tuple[str, ...] = METHOD_ORDER
    config: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        if self.sigma2 <= 0.0:
            raise InvalidInputError("sigma2 must be positive")
        if any(l <= self.sigma2 for l in self.lambdas):
            raise InvalidInputError(
                "spike eigenvalues must exceed sigma2 (their strength is lambda - sigma2)")
        if self.trials < 1:
            raise InvalidInputError("need at least one trial")
        if self.base_seed < 0:
            raise InvalidInputError("base_seed must be non-negative")
        unknown = [m for m in self.methods if m not in ESTIMATORS]
        if unknown:
            raise InvalidInputError(f"unknown methods: {', '.join(unknown)}")
        if not self.methods:
            raise InvalidInputError("need at least one method")
        if self.p_list and self.n is not None:
            raise InvalidInputError("a p sweep takes n from gamma; n cannot be set beside p_list")

    def sweep_points(self) -> list[tuple[int, int, int]]:
        """Resolve the sweep axis to concrete (sweep_value, p, n) points."""
        if self.p_list:
            if self.gamma is None or self.gamma <= 0.0:
                raise InvalidInputError("a p sweep needs a positive gamma")
            return [(p, p, max(1, round(p / self.gamma))) for p in self.p_list]
        if self.n_list:
            if self.p is None:
                raise InvalidInputError("an n sweep needs a fixed p")
            return [(n, self.p, n) for n in self.n_list]
        if self.p is None:
            raise InvalidInputError("scenario fixes neither p nor p_list")
        if self.n is not None:
            return [(self.p, self.p, self.n)]
        if self.gamma is None or self.gamma <= 0.0:
            raise InvalidInputError("need n or a positive gamma")
        return [(self.p, self.p, max(1, round(self.p / self.gamma)))]

    @property
    def q(self) -> int:
        return len(self.lambdas)

    def model(self, p: int) -> PopulationModel:
        if self.q >= p:
            raise InvalidInputError(f"{self.q} spikes need a larger p, got p={p}")
        strengths = sorted((l - self.sigma2 for l in self.lambdas), reverse=True)
        return PopulationModel(np.array(strengths), self.sigma2, p)


@dataclass(frozen=True)
class SweepRow:
    sweep_value: int
    method: str
    trials: int
    count_under: int
    count_over: int

    @property
    def p_under(self) -> float:
        return self.count_under / self.trials

    @property
    def p_over(self) -> float:
        return self.count_over / self.trials

    @property
    def p_e(self) -> float:
        return self.p_under + self.p_over


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    CSV_HEADER = "sweep_value,method,trials,count_under,count_over,p_under,p_over,p_e"

    def to_csv_string(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.sweep_value},{r.method},{r.trials},"
                         f"{r.count_under},{r.count_over},"
                         f"{r.p_under:.6f},{r.p_over:.6f},{r.p_e:.6f}")
        return "\n".join(lines) + "\n"

    def row(self, sweep_value: int, method: str) -> SweepRow:
        for r in self.rows:
            if r.sweep_value == sweep_value and r.method == method:
                return r
        raise KeyError((sweep_value, method))


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream for one trial, independent of every other.

    The two-word key keeps streams distinct across base seeds as well as
    across trials (an xor-combined single word would reuse streams between
    nearby seeds).
    """
    key = np.array([base_seed & 0xFFFFFFFFFFFFFFFF,
                    trial_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_snapshots(model: PopulationModel, n: int,
                       rng: np.random.Generator) -> SnapshotMatrix:
    """n Gaussian observations with the model's diagonal covariance.

    Uniform draws are mapped through the package's inverse-normal kernel in
    a fixed row-major order, so the matrix depends only on the stream state.
    """
    u = rng.random(size=(model.p, n))
    z = norm_ppf_array(np.maximum(u, 2.0**-64))
    scale = np.sqrt(model.covariance_diagonal())
    return SnapshotMatrix.from_array(z * scale[:, None])


def run_trial(spec: ScenarioSpec, trial_index: int,
              p: int | None = None, n: int | None = None) -> dict[str, int]:
    """One paired trial: one draw, one spectrum, every estimator on it.

    p and n default to the scenario's own geometry, which must then resolve
    to a single point; sweeps pass each point explicitly.  The requested
    sequential scans (rmt, srmt, sns) are counted in one untraced pass,
    the information criteria by their estimators; every q_hat equals its
    estimator's.
    """
    if p is None or n is None:
        points = spec.sweep_points()
        if len(points) != 1:
            raise InvalidInputError("sweep scenarios must pass (p, n) explicitly")
        _, p, n = points[0]
    model = spec.model(p)
    rng = trial_rng(spec.base_seed, trial_index)
    snapshots = generate_snapshots(model, n, rng)
    spectrum = eig_sym_desc(sample_covariance(snapshots.data), n)
    scans = _scan_q_hats(spectrum, spec.config, spec.methods)
    return {m: scans[m] if m in scans else ESTIMATORS[m](spectrum, spec.config).q_hat
            for m in spec.methods}


def _count_block(args) -> Counter:
    """Misdetection counts of one contiguous block of the flattened sweep.

    Item f of the flattened sweep is trial f % trials of point f // trials,
    so a block [start, stop) covers the tail of one point, whole points and
    the head of another, in sweep order.  Counts are keyed by (point index,
    method, over-estimated): the point index keeps duplicate grid values
    apart, and the flag is False for an under- and True for an
    over-estimate.
    """
    spec, points, start, stop = args
    q_true = spec.q
    counts = Counter()
    for item in range(start, stop):
        point, idx = divmod(item, spec.trials)
        _, p, n = points[point]
        for m, q_hat in run_trial(spec, idx, p, n).items():
            if q_hat != q_true:
                counts[point, m, q_hat > q_true] += 1
    return counts


# Linux forks sweep workers, which its default did until Python 3.14: a
# forked worker inherits the loaded modules, and its CPU time is reaped by
# the caller that joins it.  Elsewhere the platform's default is used.
_START_METHOD = "fork" if sys.platform == "linux" else None


def _start_workers(blocks) -> list:
    """Start one worker process per block; return its (process, reader) pairs.

    Each worker counts its block and sends back the Counter, or the
    exception the block raised, through a one-way pipe.  multiprocessing is
    imported here, on the first parallel sweep, rather than with the
    package.
    """
    import multiprocessing
    context = multiprocessing.get_context(_START_METHOD)
    workers = []
    for block in blocks:
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(target=_worker, args=(block, writer))
        process.start()
        writer.close()  # the worker holds the only writer, so its exit ends the pipe
        workers.append((process, reader))
    return workers


def _worker(block, writer) -> None:
    """Body of a worker process: send the block's counts or its error."""
    try:
        message = _count_block(block), None
    except Exception as exc:  # crosses the process boundary to the caller
        import traceback
        message = exc, traceback.format_exc()
    writer.send(message)
    writer.close()


def _finish(process, reader):
    """The message of one worker, or None if it sent none, once it has exited."""
    with reader:
        try:
            message = reader.recv()
        except EOFError:
            message = None
    process.join()
    return message


def _worker_counts(process, message) -> Counter:
    """The counts in a finished worker's message; raise what it reports."""
    if message is None:
        raise RuntimeError(f"a sweep worker exited with code {process.exitcode} "
                           "before sending its counts")
    result, remote_traceback = message
    if remote_traceback is not None:
        raise result from RuntimeError(f"in the sweep worker:\n{remote_traceback}")
    return result


def run_sweep(spec: ScenarioSpec, jobs: int = 1) -> SweepResult:
    """Run all trials at every sweep point and aggregate misdetections.

    jobs is the number of processes that count trials, the caller included.
    The (point, trial) items of the whole sweep are split into
    workers = min(jobs, items) contiguous blocks whose sizes differ by at
    most one.  The caller counts block 0 while, for workers > 1, one worker
    process per other block counts that block.  Worker processes fork on
    Linux and use the platform's default start method elsewhere.  The
    caller then receives from and joins every worker before the call
    returns, also when a block raises; a worker's exception is re-raised
    with its own class, and a worker that exits without sending raises
    RuntimeError.  The draw's erfc kernel is loaded before the workers
    start, so forked workers inherit it and never import scipy themselves.
    Aggregation is a commutative count merge, so the result is identical
    for any execution order and any number of processes.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")
    points = spec.sweep_points()
    total = len(points) * spec.trials
    workers = min(jobs, total)
    size, extra = divmod(total, workers)
    bounds = [i * size + min(i, extra) for i in range(workers + 1)]
    blocks = [(spec, points, start, stop) for start, stop in zip(bounds, bounds[1:])]
    if workers > 1:
        _erfc_array()
        started = _start_workers(blocks[1:])
        try:
            partials = [_count_block(blocks[0])]
        finally:
            messages = [_finish(process, reader) for process, reader in started]
        partials += [_worker_counts(process, message)
                     for (process, _), message in zip(started, messages)]
    else:
        partials = [_count_block(blocks[0])]
    totals = sum(partials, Counter())
    rows = [SweepRow(sweep_value=sweep_value, method=m, trials=spec.trials,
                     count_under=totals[point, m, False], count_over=totals[point, m, True])
            for point, (sweep_value, _, _) in enumerate(points) for m in spec.methods]
    rows.sort(key=lambda r: (r.sweep_value, r.method))
    return SweepResult(rows=tuple(rows))


def preset_scenario(name: str, trials: int | None = None, base_seed: int = 0,
                    methods: tuple[str, ...] = METHOD_ORDER,
                    full_scale: bool = False,
                    config: EstimatorConfig | None = None) -> ScenarioSpec:
    """Build a ScenarioSpec for one of the named benchmark figures."""
    if name not in _PRESETS:
        raise InvalidInputError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}")
    preset = _PRESETS[name]
    if trials is None:
        trials = FULL_TRIALS if full_scale else DESK_TRIALS
    kwargs = dict(lambdas=preset["lambda"], trials=trials,
                  base_seed=base_seed, methods=methods,
                  config=config or EstimatorConfig())
    if "gamma" in preset:
        default = _FULL_P_GRID if full_scale else preset.get("desk_grid", _DESK_P_GRID)
        kwargs.update(gamma=preset["gamma"], p_list=tuple(default))
    else:
        default = _FULL_N_GRID if full_scale else _DESK_N_GRID
        kwargs.update(p=preset["p"], n_list=tuple(default))
    return ScenarioSpec(**kwargs)


def _list_of(kind):
    """Parser of a comma-separated list; empty entries are skipped."""
    return lambda value: tuple(kind(v) for v in value.split(",") if v.strip())


# Scenario-file keys other than preset: the ScenarioSpec field each sets and
# the parser of its value.
_SCENARIO_KEYS = {
    "lambda": ("lambdas", _list_of(float)),
    "sigma2": ("sigma2", float),
    "trials": ("trials", int),
    "seed": ("base_seed", int),
    "methods": ("methods", lambda value: tuple(m.strip() for m in value.split(","))),
    "gamma": ("gamma", float),
    "p": ("p", int),
    "n": ("n", int),
    "p_list": ("p_list", _list_of(int)),
    "n_list": ("n_list", _list_of(int)),
}


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse the flat key=value scenario format.

    Keys: preset, p, p_list, n, n_list, gamma, lambda, sigma2, trials, seed,
    methods.  '#' starts a comment; a preset line supplies defaults that the
    remaining keys override.  A p or p_list key replaces the preset's p axis,
    and an n or n_list key its n axis.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "preset" and key not in _SCENARIO_KEYS:
            raise InvalidInputError(f"unknown scenario key {key!r}")
        entries[key] = value

    if "preset" in entries:
        spec = preset_scenario(entries.pop("preset"))
    else:
        spec = ScenarioSpec()

    if "," in entries.get("n", ""):
        entries.setdefault("n_list", entries.pop("n"))  # an n sweep; n_list wins
    # Clear each axis the file sets, so that none of the preset's survives.
    updates = {name: None for axis in ("p", "n") for name in (axis, f"{axis}_list")
               if axis in entries or f"{axis}_list" in entries}
    try:
        updates.update((field_name, parse(entries[key]))
                       for key, (field_name, parse) in _SCENARIO_KEYS.items() if key in entries)
    except ValueError as exc:
        raise InvalidInputError(f"malformed scenario value: {exc}") from exc
    spec = replace(spec, **updates)
    spec.sweep_points()  # validate the geometry eagerly
    return spec
