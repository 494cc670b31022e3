"""Synthetic-data generation and Monte Carlo misdetection sweeps.

Snapshots are drawn from a zero-mean Gaussian with the diagonal population
covariance (spikes plus white noise floor); for eigenvalue-based estimators
this is statistically equivalent to mixing through an explicit array
response matrix.  Every trial owns a counter-based random stream keyed by
(base_seed, trial_index), so results are bit-reproducible and independent
of execution order -- trials can run in any order or in parallel.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError
from .estimators import METHOD_ORDER, ESTIMATORS, EstimatorConfig, _scan_pass
from .normal import _erfc_array, norm_ppf_array
from .spectral import (PopulationModel, SnapshotMatrix, Spectrum, _check_integer,
                       _check_real, _is_integer, eig_sym_desc, sample_covariance)

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

# The two axes of a scenario's geometry: the fields that can set p, and those
# that can set n.
_AXES = (("p", "p_list"), ("n", "n_list", "gamma"))


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo experiment: population, sweep axis, trial budget.

    lambdas are the spike eigenvalues of the population covariance, the
    convention the benchmark scenarios are printed in (the noise eigenvalues
    all equal sigma2); the corresponding signal strength of each spike is
    lambda - sigma2, so every entry must exceed sigma2.

    The geometry has two axes, p (set by p or p_list) and n (by n, n_list or
    gamma, n = round(p / gamma)); more than one field per axis, two lists, an
    empty list, gamma <= 0, or a p, n or list entry that is not an integer of
    at least 2 raise InvalidInputError, as does a gamma that gives some p an
    n below 2.  So do lambdas that are not a sequence, a sigma2, gamma or
    lambda that is not a real number, a sigma2 or lambda that is not finite,
    trials that is not an integer of at least 1, a base_seed that is not a
    non-negative integer, methods that are a string, not a sequence, name
    an unknown method or repeat one, and a config that is not an EstimatorConfig.  A
    spec missing an axis serves model(p) alone: sweep_points() raises on it.
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
        _check_real("sigma2", self.sigma2)
        if not hasattr(self.lambdas, "__len__"):
            raise InvalidInputError(
                f"lambdas must be a sequence of real numbers, got {self.lambdas!r}")
        for value in self.lambdas:
            _check_real("every lambdas entry", value)
        if self.gamma is not None:
            _check_real("gamma", self.gamma)
        if not 0.0 < self.sigma2 < math.inf:
            raise InvalidInputError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not all(self.sigma2 < l < math.inf for l in self.lambdas):
            raise InvalidInputError(
                "lambdas must be finite and exceed sigma2 (their strength is lambda - sigma2), "
                f"got {self.lambdas}")
        _check_integer("trials", self.trials, 1)
        _check_integer("base_seed", self.base_seed, 0)
        if not isinstance(self.config, EstimatorConfig):
            raise InvalidInputError(f"config must be an EstimatorConfig, got {self.config!r}")
        if isinstance(self.methods, str) or not hasattr(self.methods, "__len__"):
            raise InvalidInputError(
                f"methods must be a sequence of method names, got {self.methods!r}")
        unknown = [m for m in self.methods if not (isinstance(m, str) and m in ESTIMATORS)]
        if unknown:
            raise InvalidInputError(f"unknown methods: {', '.join(map(str, unknown))}")
        if not self.methods:
            raise InvalidInputError("need at least one method")
        repeated = [m for m, count in Counter(self.methods).items() if count > 1]
        if repeated:
            raise InvalidInputError(f"method {repeated[0]!r} is listed more than once")
        p_axis, n_axis = self._axis_fields()
        if len(p_axis) > 1 or len(n_axis) > 1 or {"p_list", "n_list"} <= {*p_axis, *n_axis}:
            raise InvalidInputError(f"conflicting geometry fields: {', '.join(p_axis + n_axis)}")
        if any(values is not None and len(values) == 0 for values in (self.p_list, self.n_list)):
            raise InvalidInputError("a sweep list needs at least one value")
        if self.gamma is not None and not self.gamma > 0.0:
            raise InvalidInputError(f"gamma must be positive, got {self.gamma}")
        for name in ("p", "n", "p_list", "n_list"):
            value = getattr(self, name)
            if value is None:
                continue
            entries = value if name.endswith("_list") else (value,)
            if not all(_is_integer(entry) and entry >= 2 for entry in entries):
                raise InvalidInputError(
                    f"every dimension must be an integer of at least 2, got {name} = {value}")
        if self.gamma is not None and all(self._axis_fields()):
            short = [p for _, p, n in self.sweep_points() if n < 2]
            if short:
                raise InvalidInputError(f"gamma = {self.gamma} gives n < 2 at p = {short[0]}")

    def _axis_fields(self) -> list[list[str]]:
        """The geometry fields this spec sets, per axis (p, then n)."""
        return [[name for name in axis if getattr(self, name) is not None] for axis in _AXES]

    def sweep_points(self) -> list[tuple[int, int, int]]:
        """Resolve the sweep axis to concrete (sweep_value, p, n) points."""
        if not all(self._axis_fields()):
            raise InvalidInputError("need a p axis (p, p_list) and an n axis (n, n_list, gamma)")
        if self.n_list is not None:
            return [(n, self.p, n) for n in self.n_list]
        return [(p, p, self.n if self.n is not None else round(p / self.gamma))
                for p in self.p_list or (self.p,)]

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


def _draw_snapshots(model: PopulationModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """The p x n snapshot array of one draw.

    Uniform draws are mapped through the package's inverse-normal kernel in
    a fixed row-major order, so the matrix depends only on the stream state.
    """
    _check_integer("n", n, 2)
    u = rng.random(size=(model.p, n))
    z = norm_ppf_array(np.maximum(u, 2.0**-64))
    scale = np.sqrt(model.covariance_diagonal())
    return z * scale[:, None]


def generate_snapshots(model: PopulationModel, n: int,
                       rng: np.random.Generator) -> SnapshotMatrix:
    """n Gaussian observations with the model's diagonal covariance.

    The matrix depends only on the stream state; _draw_spectrum takes the
    same draw.
    """
    if not isinstance(model, PopulationModel):
        raise InvalidInputError(f"model must be a PopulationModel, got {model!r}")
    if not isinstance(rng, np.random.Generator):
        raise InvalidInputError(f"rng must be a numpy Generator, got {rng!r}")
    return SnapshotMatrix(_draw_snapshots(model, n, rng))


def _draw_spectrum(model: PopulationModel, n: int, rng: np.random.Generator) -> Spectrum:
    """The sample spectrum of one trial's draw, the one generate_snapshots
    returns.

    The array goes to sample_covariance without SnapshotMatrix's scan for
    non-finite entries: sample_covariance raises the same error on them.
    """
    return eig_sym_desc(sample_covariance(_draw_snapshots(model, n, rng)), n)


def run_trial(spec: ScenarioSpec, trial_index: int,
              p: int | None = None, n: int | None = None) -> dict[str, int]:
    """One paired trial: one draw, one spectrum, every estimator on it.

    p and n are passed together or not at all; left out, they default to
    the scenario's own geometry, which must then resolve to a single point.
    Sweeps pass each point explicitly.  The requested
    sequential scans (rmt, srmt, sns) are counted in one untraced pass,
    the information criteria by their estimators; every q_hat equals its
    estimator's.  trial_index must be a non-negative integer.
    """
    if not isinstance(spec, ScenarioSpec):
        raise InvalidInputError(f"spec must be a ScenarioSpec, got {type(spec).__name__}")
    _check_integer("trial_index", trial_index, 0)
    if (p is None) != (n is None):
        raise InvalidInputError(f"pass p and n together or neither, got p={p}, n={n}")
    if p is None:
        points = spec.sweep_points()
        if len(points) != 1:
            raise InvalidInputError("sweep scenarios must pass (p, n) explicitly")
        _, p, n = points[0]
    spectrum = _draw_spectrum(spec.model(p), n, trial_rng(spec.base_seed, trial_index))
    scans = _scan_pass(spectrum, spec.config, spec.methods)
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
    start, so forked workers inherit it and never load it themselves.
    Aggregation is a commutative count merge, so the result is identical
    for any execution order and any number of processes.
    """
    if not isinstance(spec, ScenarioSpec):
        raise InvalidInputError(f"spec must be a ScenarioSpec, got {type(spec).__name__}")
    _check_integer("jobs", jobs, 1)
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
                    full_scale: bool = False) -> ScenarioSpec:
    """Build a ScenarioSpec for one of the named benchmark figures, counting
    every method under the default config; replace() sets methods or config."""
    if name not in _PRESETS:
        raise InvalidInputError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}")
    preset = _PRESETS[name]
    if trials is None:
        trials = FULL_TRIALS if full_scale else DESK_TRIALS
    kwargs = dict(lambdas=preset["lambda"], trials=trials, base_seed=base_seed)
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


_parse_methods = _list_of(str.strip)  # a file's methods key and the CLI's --methods

# Scenario-file keys other than preset: the ScenarioSpec field each sets and
# the parser of its value.
_SCENARIO_KEYS = {
    "lambda": ("lambdas", _list_of(float)),
    "sigma2": ("sigma2", float),
    "trials": ("trials", int),
    "seed": ("base_seed", int),
    "methods": ("methods", _parse_methods),
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
    remaining keys override, a whole axis at a time: p or p_list replaces its
    p axis, and n, n_list or gamma its n axis.  A key given twice, preset
    included, raises InvalidInputError naming both lines.
    """
    entries, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "preset" and key not in _SCENARIO_KEYS:
            raise InvalidInputError(f"unknown scenario key {key!r}")
        if key in entries:
            raise InvalidInputError(f"line {lineno}: {key!r} is already set on line {lines[key]}")
        entries[key], lines[key] = value, lineno

    spec = preset_scenario(entries.pop("preset")) if "preset" in entries else ScenarioSpec()
    # Clear each axis the file sets, so that none of the preset's survives.
    updates = {name: None for axis in _AXES if not entries.keys().isdisjoint(axis)
               for name in axis}
    try:
        updates.update((field_name, parse(entries[key]))
                       for key, (field_name, parse) in _SCENARIO_KEYS.items() if key in entries)
    except ValueError as exc:
        raise InvalidInputError(f"malformed scenario value: {exc}") from exc
    spec = replace(spec, **updates)
    spec.sweep_points()  # validate the geometry eagerly
    return spec
