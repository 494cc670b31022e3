"""The public surface of eigencount, and the names that the benchmark
(perfbench/workloads.py) and the acceptance tests take from the package."""

import ast
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

import eigencount as ec
from eigencount.estimators import ESTIMATORS, METHOD_ORDER

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "DataError", "DecisionTrace", "DegenerateModelError", "ESTIMATORS", "EigencountError",
    "EstimatorConfig", "InvalidInputError", "METHOD_ORDER", "ModelOrderEstimate", "NoiseFit",
    "PRESET_NAMES", "PopulationModel", "ProbPair", "ScenarioSpec", "SignalStat",
    "SnapshotMatrix", "SolverError", "Spectrum", "SweepResult", "ThresholdContext",
    "centering_mu", "decision_statistic", "detection_limit", "eig_sym_desc", "estimate",
    "estimate_aic", "estimate_mdl", "estimate_modified_aic", "estimate_noise_and_spikes",
    "estimate_rmt", "estimate_signal_search", "estimate_sns", "fluctuation_params",
    "generate_snapshots", "lawley_expectation", "normal_tail_inv", "parse_scenario",
    "pe_rmt", "pe_srmt", "preset_scenario", "run_sweep", "run_trial", "sample_covariance",
    "scaling_sigma", "spike_limit", "theta_rmt", "theta_srmt", "tw_cdf", "tw_quantile",
}


def public_names(module) -> set[str]:
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    assert public_names(ec) == PUBLIC_NAMES


def test_prob_pair_fields():
    assert [f.name for f in dataclasses.fields(ec.ProbPair)] == ["p_miss", "p_false"]


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


@pytest.mark.parametrize("path", ["perfbench/workloads.py", "tests/test_acceptance.py"])
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
