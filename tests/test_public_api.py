"""The public surface of eigencount, and the names that the benchmark
(perfbench/workloads.py), the acceptance tests and the trace digest script
take from the package."""

import ast
import dataclasses
import importlib
import inspect
import math
import types
from pathlib import Path

import numpy as np
import pytest

import eigencount as ec
from eigencount.estimators import ESTIMATORS, METHOD_ORDER
from eigencount.noise import DEFAULT_MAX_ITER, DEFAULT_TOL
from eigencount.probabilities import ProbPair, ThresholdContext
from eigencount.signal_stats import decision_statistic
from eigencount.simulation import trial_rng

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    # errors
    "DataError", "DegenerateModelError", "EigencountError", "InvalidInputError", "SolverError",
    # estimators
    "ESTIMATORS", "METHOD_ORDER", "DecisionTrace", "EstimatorConfig", "ModelOrderEstimate",
    "estimate", "estimate_aic", "estimate_mdl", "estimate_modified_aic", "estimate_rmt",
    "estimate_signal_search", "estimate_sns",
    # noise fit and population formula
    "NoiseFit", "estimate_noise_and_spikes", "lawley_expectation",
    # simulation
    "PRESET_NAMES", "ScenarioSpec", "SweepResult", "generate_snapshots", "parse_scenario",
    "preset_scenario", "run_sweep", "run_trial",
    # spectra
    "PopulationModel", "SnapshotMatrix", "Spectrum", "eig_sym_desc", "sample_covariance",
    # Tracy-Widom law
    "tw_cdf", "tw_quantile",
}


def public_names(module) -> set[str]:
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 35
    assert public_names(ec) == PUBLIC_NAMES


def test_prob_pair_fields():
    assert [f.name for f in dataclasses.fields(ProbPair)] == ["p_miss", "p_false"]


def test_settings_a_caller_sets():
    """EstimatorConfig sets the test levels and the symmetry class alone;
    the noise fit's settings are constants it only reads out.  A preset
    takes its trial budget, seed and scale; methods and config are set
    with dataclasses.replace."""
    assert [f.name for f in dataclasses.fields(ec.EstimatorConfig)] == ["alpha", "alpha0", "beta"]
    config = ec.EstimatorConfig()
    assert (config.solver_tol, config.solver_max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert list(inspect.signature(ec.preset_scenario).parameters) == [
        "name", "trials", "base_seed", "full_scale"]


def eigencount_uses(path: Path):
    """What a source file takes from eigencount.

    Returns (objects, calls, instances): objects maps each name imported
    from the package, or read as an attribute of an imported package
    module, to the object it resolves to (a missing one raises); calls
    lists (object, positional count, keywords) for every call made to such
    an object; instances maps a module-level name assigned from a call of
    a package class to that class.
    """
    tree = ast.parse(path.read_text())
    bound, objects = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "eigencount":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eigencount"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name)
                objects[f"{node.module}.{alias.name}"] = bound[alias.asname or alias.name]

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if isinstance(owner, types.ModuleType):
                objects[f"{owner.__name__}.{expr.attr}"] = getattr(owner, expr.attr)
                return objects[f"{owner.__name__}.{expr.attr}"]
        return None

    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        elif isinstance(node, ast.Call) and callable(resolve(node.func)):
            calls.append((resolve(node.func), len(node.args),
                          [kw.arg for kw in node.keywords if kw.arg is not None]))
    instances = {node.targets[0].id: resolve(node.value.func) for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                 and isinstance(node.targets[0], ast.Name)
                 and inspect.isclass(resolve(node.value.func))}
    return objects, calls, instances


@pytest.mark.parametrize("path", ["perfbench/workloads.py", "tests/test_acceptance.py",
                                  "scripts/trace_digest.py"])
def test_names_taken_from_the_package_resolve(path):
    objects, calls, _ = eigencount_uses(ROOT / path)
    assert objects
    for target, n_args, keywords in calls:
        inspect.signature(target).bind_partial(*[None] * n_args,
                                               **{name: None for name in keywords})


def test_benchmark_names_resolve():
    path = ROOT / "perfbench" / "workloads.py"
    objects, _, instances = eigencount_uses(path)
    assert {"eigencount.estimators.EstimatorConfig", "eigencount.noise.estimate_noise_and_spikes",
            "eigencount.probabilities.ThresholdContext", "eigencount.tracy_widom.scaling_sigma",
            "eigencount.simulation.run_sweep"} <= set(objects)
    # Attributes the benchmark reads off its module-level config instance.
    tree = ast.parse(path.read_text())
    for name, cls in instances.items():
        instance = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == name:
                assert hasattr(instance, node.attr), (name, node.attr)
    # The estimator functions it looks up by name, in METHOD_ORDER.
    methods = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "METHODS")
    assert tuple(method for method, _ in methods) == METHOD_ORDER
    for method, function in methods:
        assert getattr(ec.estimators, function) is ESTIMATORS[method]


def _two_spike_fits(p, n, seed=5):
    """A sampled spectrum from two strong spikes, with its fits at k = 1, 2."""
    model = ec.PopulationModel(np.array([20.0, 10.0]), 1.0, p)
    data = ec.generate_snapshots(model, n, trial_rng(seed, 0)).data
    spectrum = ec.eig_sym_desc(ec.sample_covariance(data), n)
    return spectrum, [ec.estimate_noise_and_spikes(spectrum, k) for k in (1, 2)]


def _context(gamma=None, spectrum=None, fit_km1=None):
    """A step-2 ThresholdContext on a 22 x 200 spectrum's own fits, with
    gamma, the spectrum or the k = 1 fit replaced."""
    own, (fit_1, fit_2) = _two_spike_fits(22, 200)
    spectrum = own if spectrum is None else spectrum
    fit_1 = fit_1 if fit_km1 is None else fit_km1
    return ThresholdContext(k=2, fit_k=fit_2, fit_km1=fit_1, spectrum=spectrum,
                            gamma=spectrum.gamma if gamma is None else gamma,
                            alpha=0.005, alpha0=0.995)


_SPEC = ec.ScenarioSpec(lambdas=(5.0,), p=10, n=20, trials=1)
_MODEL = ec.PopulationModel(np.array([4.0]), 1.0, 10)

# The six array inputs: a call that passes a value to one, the name its
# admission errors carry, and the number of dimensions it takes.
_ARRAY_INPUTS = {
    "SnapshotMatrix": (ec.SnapshotMatrix, "snapshot data", 2),
    "sample_covariance": (ec.sample_covariance, "snapshot data", 2),
    "eig_sym_desc": (lambda m: ec.eig_sym_desc(m, 10), "matrix", 2),
    "Spectrum": (lambda v: ec.Spectrum(v, 2, 10), "eigenvalues", 1),
    "Spectrum.from_values": (lambda v: ec.Spectrum.from_values(v, 10), "eigenvalues", 1),
    "PopulationModel": (lambda v: ec.PopulationModel(v, 1.0, 10), "signal_strengths", 1),
}
# Bad arrays of each dimension: ragged, numeric strings, complex, bool.
_BAD_ARRAYS = {
    1: {"ragged": [[3.0], 2.0], "string": ["3", "2"], "complex": [3.0 + 1j, 2.0],
        "bool": [True, False]},
    2: {"ragged": [[2.0, 0.0], [0.0]], "string": [["2", "0"], ["0", "1"]],
        "complex": [[2.0, 1j], [-1j, 1.0]], "bool": [[True, False], [False, True]]},
}
_ARRAY_CASES = [
    pytest.param(lambda build=build, value=value: build(value),
                 f"{name} must be a rectangular array" if kind == "ragged"
                 else f"{name} must be real numbers, got dtype",
                 id=f"{target}-{kind}")
    for target, (build, name, ndim) in _ARRAY_INPUTS.items()
    for kind, value in _BAD_ARRAYS[ndim].items()]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ec.tw_quantile("0.5"), "alpha", id="tw_quantile-string"),
    pytest.param(lambda: ec.tw_quantile(None), "alpha", id="tw_quantile-None"),
    pytest.param(lambda: ec.tw_cdf(True), "real numbers", id="tw_cdf-bool"),
    pytest.param(lambda: ec.tw_cdf("1.0"), "real numbers", id="tw_cdf-string"),
    pytest.param(lambda: ec.lawley_expectation(1.0, _MODEL, 40), "j must be an integer",
                 id="lawley_expectation-float-j"),
    pytest.param(lambda: ec.lawley_expectation(1, _MODEL, "40"), "n must be an integer",
                 id="lawley_expectation-string-n"),
    pytest.param(lambda: ec.lawley_expectation(1, None, 40),
                 "model must be of type PopulationModel, got NoneType",
                 id="lawley_expectation-no-model"),
    pytest.param(lambda: ec.estimate_noise_and_spikes(_two_spike_fits(22, 200)[0], 1, "x"),
                 "tol", id="estimate_noise_and_spikes-string-tol"),
    # Settings that cannot key the fit's memo are rejected before it is read.
    pytest.param(lambda: ec.estimate_noise_and_spikes(_two_spike_fits(22, 200)[0], 1, [1e-8]),
                 "tol", id="estimate_noise_and_spikes-list-tol"),
    pytest.param(lambda: ec.estimate_noise_and_spikes(_two_spike_fits(22, 200)[0], 1, 1e-8,
                                                      [3]),
                 "max_iter", id="estimate_noise_and_spikes-list-max_iter"),
    *[pytest.param(lambda tol=tol: ec.estimate_noise_and_spikes(_two_spike_fits(22, 200)[0], 1,
                                                                tol),
                   "tol must be positive and finite", id=f"estimate_noise_and_spikes-tol-{tol}")
      for tol in (math.nan, -1.0, 0.0, math.inf)],
    pytest.param(lambda: ec.estimate_noise_and_spikes(None, 1),
                 "spectrum must be of type Spectrum, got NoneType",
                 id="estimate_noise_and_spikes-no-spectrum"),
    pytest.param(lambda: ec.estimate(None, "rmt"),
                 "spectrum must be of type Spectrum, got NoneType", id="estimate-no-spectrum"),
    pytest.param(lambda: ec.estimate_aic(None), "spectrum must be of type Spectrum, got NoneType",
                 id="estimate_aic-no-spectrum"),
    pytest.param(lambda: ec.estimate_rmt(_two_spike_fits(22, 200)[0], {"alpha": 0.01}),
                 "config must be of type EstimatorConfig, got dict", id="estimate_rmt-dict-config"),
    pytest.param(lambda: ec.run_trial(_SPEC, 1.5), "trial_index", id="run_trial-float"),
    pytest.param(lambda: ec.run_trial(_SPEC, -1), "trial_index", id="run_trial-negative"),
    pytest.param(lambda: ec.run_trial(None, 0), "spec must be of type ScenarioSpec, got NoneType",
                 id="run_trial-no-spec"),
    # A lone p or n would leave the spec's own point in force.
    pytest.param(lambda: ec.run_trial(_SPEC, 0, 50), "p and n together",
                 id="run_trial-lone-p"),
    pytest.param(lambda: ec.run_trial(_SPEC, 0, n=500), "p and n together",
                 id="run_trial-lone-n"),
    pytest.param(lambda: ec.run_sweep(None), "spec must be of type ScenarioSpec, got NoneType",
                 id="run_sweep-no-spec"),
    pytest.param(lambda: ec.generate_snapshots(_MODEL, 10, None),
                 "rng must be of type Generator, got NoneType", id="generate_snapshots-no-rng"),
    pytest.param(lambda: ec.generate_snapshots(None, 10, trial_rng(0, 0)),
                 "model must be of type PopulationModel, got NoneType",
                 id="generate_snapshots-no-model"),
    pytest.param(lambda: ec.ScenarioSpec(config="default"),
                 "config must be of type EstimatorConfig, got str", id="ScenarioSpec-str-config"),
    pytest.param(lambda: ec.ScenarioSpec(methods=None), "methods", id="ScenarioSpec-methods-None"),
    pytest.param(lambda: ec.ScenarioSpec(methods="rmt"), "sequence of method names",
                 id="ScenarioSpec-methods-string"),
    pytest.param(lambda: ec.ScenarioSpec(methods=("rmt", "sns", "rmt")),
                 "'rmt' is listed more than once", id="ScenarioSpec-methods-repeated"),
    pytest.param(lambda: _context(gamma=5.0), "gamma", id="ThresholdContext-gamma"),
    pytest.param(lambda: _context(spectrum=_two_spike_fits(7, 200)[0]), "spectrum",
                 id="ThresholdContext-other-spectrum"),
    pytest.param(lambda: _context(fit_km1=_two_spike_fits(22, 100)[1][0]), "fits",
                 id="ThresholdContext-other-fit_km1"),
    pytest.param(lambda: decision_statistic(1, _two_spike_fits(7, 200)[0],
                                            _two_spike_fits(22, 200)[1][0]),
                 "spectrum's", id="decision_statistic-other-spectrum"),
    *_ARRAY_CASES,
])
def test_bad_input_raises_invalid_input_error(call, message):
    """Each kept name turns a malformed argument into InvalidInputError:
    no raw TypeError, ValueError or AttributeError, no silent cast or
    character-by-character read, and no fit scored against another
    spectrum."""
    with pytest.raises(ec.InvalidInputError, match=message):
        call()
