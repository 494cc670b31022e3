import multiprocessing
import os
import re
import signal
import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigencount as ec
from eigencount import simulation
from eigencount.errors import InvalidInputError
from eigencount.signal_stats import fluctuation_params
from eigencount.simulation import (DESK_TRIALS, FULL_TRIALS, PRESET_NAMES,
                                   ScenarioSpec, SweepResult, _PRESETS,
                                   generate_snapshots, parse_scenario,
                                   preset_scenario, run_sweep, run_trial,
                                   trial_rng)

# Scenario vectors exactly as printed for the benchmark figures.
EXPECTED_PRESETS = {
    "fig1": (0.5, ()),
    "fig2": (0.5, (15.0,)),
    "fig3": (0.5, (20.0, 15.0, 12.0, 12.0, 10.0, 10.0, 10.0, 10.0)),
    "fig4": (0.5, (12.0, 10.0, 8.0, 6.0, 6.0, 5.0, 4.0, 4.0)),
    "fig5": (2.0, ()),
    "fig6": (2.0, (20.0,)),
    "fig7": (2.0, (15.0, 15.0, 12.0, 12.0, 10.0, 10.0, 10.0, 8.0)),
    "fig8": (60, ()),
    "fig9": (60, (20.0,)),
    "fig10": (60, (40.0, 25.0, 20.0, 20.0, 15.0, 15.0, 12.0, 10.0)),
    "fig11": (60, (15.0, 12.0, 10.0, 10.0, 8.0, 6.0, 5.0, 4.0, 4.0, 2.5)),
}


class TestGeneration:
    def test_deterministic_given_seed(self):
        model = ec.PopulationModel(np.array([4.0]), 1.0, 10)
        a = generate_snapshots(model, 20, trial_rng(5, 3)).data
        b = generate_snapshots(model, 20, trial_rng(5, 3)).data
        np.testing.assert_array_equal(a, b)
        c = generate_snapshots(model, 20, trial_rng(5, 4)).data
        assert not np.array_equal(a, c)

    def test_shape(self):
        model = ec.PopulationModel(np.array([4.0, 2.0]), 1.0, 7)
        snap = generate_snapshots(model, 13, trial_rng(1, 0))
        assert (snap.p, snap.n) == (7, 13)

    @pytest.mark.parametrize("n", [2.5, True, float("nan"), -4, 1])
    def test_sample_count_must_be_an_integer_of_at_least_two(self, n):
        model = ec.PopulationModel(np.array([4.0]), 1.0, 10)
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            generate_snapshots(model, n, trial_rng(1, 0))

    def test_law_of_large_numbers_trace(self):
        model = ec.PopulationModel(np.array([]), 1.0, 10)
        snap = generate_snapshots(model, 10_000, trial_rng(2, 0))
        s = ec.sample_covariance(snap.data)
        assert np.trace(s) / 10 == pytest.approx(1.0, rel=0.05)

    def test_spike_mean_matches_fluctuation_law(self):
        p, n, trials = 100, 200, 500
        model = ec.PopulationModel(np.array([5.0]), 1.0, p)
        tau, delta = fluctuation_params(5.0, 1.0, p, n, 1)
        top = []
        for t in range(trials):
            snap = generate_snapshots(model, n, trial_rng(3, t))
            top.append(ec.eig_sym_desc(ec.sample_covariance(snap.data), n).eigenvalues[0])
        assert np.mean(top) == pytest.approx(tau, abs=3 * delta / np.sqrt(trials))


class TestRunTrial:
    def test_deterministic(self):
        spec = ScenarioSpec(lambdas=(8.0,), p=20, n=40, trials=5, base_seed=9,
                            methods=("rmt", "mdl"))
        assert run_trial(spec, 0) == run_trial(spec, 0)

    def test_result_shape(self):
        spec = ScenarioSpec(lambdas=(), p=16, n=32, trials=1, base_seed=1)
        result = run_trial(spec, 0)
        assert set(result) == set(ec.METHOD_ORDER)

    def test_requires_single_point_geometry(self):
        spec = ScenarioSpec(lambdas=(), p_list=(10, 20), gamma=0.5, trials=1)
        with pytest.raises(InvalidInputError):
            run_trial(spec, 0)


class TestRunSweep:
    def test_single_trial_is_zero_or_one(self):
        spec = ScenarioSpec(lambdas=(), p=16, n=32, trials=1, base_seed=3,
                            methods=("rmt",))
        row = run_sweep(spec).rows[0]
        assert row.p_e in (0.0, 1.0)

    def test_decomposition_exact(self):
        spec = ScenarioSpec(lambdas=(6.0,), p=20, n=40, trials=50, base_seed=4,
                            methods=("rmt", "aic"))
        for row in run_sweep(spec).rows:
            assert row.p_e == row.p_under + row.p_over
            assert row.count_under + row.count_over <= row.trials

    def test_parallel_equals_serial(self):
        spec = ScenarioSpec(lambdas=(8.0,), p_list=(16, 24), gamma=0.5,
                            trials=40, base_seed=6, methods=("rmt", "sns"))
        assert run_sweep(spec, jobs=1) == run_sweep(spec, jobs=2)

    def test_bitwise_reproducible(self):
        spec = ScenarioSpec(lambdas=(), p=16, n=32, trials=30, base_seed=8,
                            methods=("rmt",))
        assert run_sweep(spec).to_csv_string() == run_sweep(spec).to_csv_string()

    def test_csv_header(self):
        assert SweepResult.CSV_HEADER == \
            "sweep_value,method,trials,count_under,count_over,p_under,p_over,p_e"

    def test_rows_sorted_canonically(self):
        spec = ScenarioSpec(lambdas=(), p_list=(24, 16), gamma=0.5, trials=5,
                            base_seed=1, methods=("sns", "aic"))
        rows = run_sweep(spec).rows
        keys = [(r.sweep_value, r.method) for r in rows]
        assert keys == sorted(keys)

    def test_p_sweep_at_fixed_n_equals_its_single_points(self):
        """Trials are keyed by (base_seed, trial_index) alone, so each point
        of a p sweep at fixed n counts exactly what a one-point sweep does."""
        spec = ScenarioSpec(lambdas=(5.0,), p_list=(12, 20), n=24, trials=6,
                            base_seed=5, methods=("aic", "rmt", "sns"))
        single_points = [run_sweep(replace(spec, p_list=None, p=p)).rows for p in spec.p_list]
        assert run_sweep(spec).rows == sum(single_points, ())


@pytest.fixture
def inline_workers(monkeypatch):
    """Count each worker's block in-process, through the worker body and a
    pipe; list the number of workers of each launch."""
    launched = []

    class JoinedProcess:
        exitcode = 0

        def join(self):
            pass

    def start_inline(blocks):
        launched.append(len(blocks))
        workers = []
        for block in blocks:
            reader, writer = multiprocessing.Pipe(duplex=False)
            simulation._worker(block, writer)
            workers.append((JoinedProcess(), reader))
        return workers

    monkeypatch.setattr(simulation, "_start_workers", start_inline)
    return launched


@contextmanager
def deadline(seconds):
    """Fail with TimeoutError, rather than hang, if the block runs longer."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSweepPool:
    SPEC = ScenarioSpec(lambdas=(2.5,), p_list=(16, 20, 24), gamma=0.5, trials=5,
                        base_seed=12, methods=("rmt", "sns", "aic"))

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", None, True])
    def test_non_positive_jobs_rejected(self, jobs):
        with pytest.raises(InvalidInputError, match="jobs"):
            run_sweep(self.SPEC, jobs=jobs)

    def test_workers_capped_at_work_items(self, inline_workers):
        one_point = replace(self.SPEC, p_list=(16,), trials=3)
        serial = run_sweep(one_point)
        assert run_sweep(one_point, jobs=64) == serial
        assert run_sweep(self.SPEC, jobs=64) == run_sweep(self.SPEC)
        # The caller counts one block, so min(jobs, items) - 1 workers start.
        assert inline_workers == [2, 14]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_blocks_share_every_point_evenly(self, jobs, inline_workers, monkeypatch):
        """Every item is counted once, and each block's share of each point
        is within one of every other block's: no block gets all of the cheap
        small-p point or all of the costly large-p one."""
        count_block, blocks = simulation._count_block, []

        def count_block_recording(block):
            blocks.append([])
            return count_block(block)

        def run_trial_recording(spec, trial_index, p=None, n=None):
            blocks[-1].append((p, trial_index))
            return run_trial(spec, trial_index, p, n)

        monkeypatch.setattr(simulation, "_count_block", count_block_recording)
        monkeypatch.setattr(simulation, "run_trial", run_trial_recording)
        run_sweep(self.SPEC, jobs=jobs)
        assert len(blocks) == jobs
        assert sorted(item for block in blocks for item in block) == [
            (p, idx) for p in self.SPEC.p_list for idx in range(self.SPEC.trials)]
        for p in self.SPEC.p_list:
            shares = [sum(point == p for point, _ in block) for block in blocks]
            assert max(shares) - min(shares) <= 1, (p, shares)

    def test_one_launch_per_call_and_workers_joined(self, monkeypatch):
        launched = []
        start_workers = simulation._start_workers

        def recording_start(blocks):
            launched.append(start_workers(blocks))
            return launched[-1]

        monkeypatch.setattr(simulation, "_start_workers", recording_start)
        assert run_sweep(self.SPEC, jobs=3) == run_sweep(self.SPEC)
        assert [len(workers) for workers in launched] == [2]
        for process, _ in launched[0]:
            # Reaped inside the call: waitpid finds no such child.
            with pytest.raises(ChildProcessError):
                os.waitpid(process.pid, os.WNOHANG)
        assert multiprocessing.active_children() == []

    def test_one_item_starts_no_worker(self, inline_workers):
        one_item = replace(self.SPEC, p_list=(16,), trials=1)
        assert run_sweep(one_item, jobs=2) == run_sweep(one_item)
        assert inline_workers == []

    def test_caller_block_error_propagates_and_workers_joined(self, monkeypatch):
        # Item 0, trial 0 of point p = 16, is in the caller's block; the
        # worker's block runs clean.
        def run_trial_failing_on_item_0(spec, trial_index, p=None, n=None):
            if (trial_index, p) == (0, 16):
                raise ec.SolverError("item 0 failed")
            return run_trial(spec, trial_index, p, n)

        monkeypatch.setattr(simulation, "run_trial", run_trial_failing_on_item_0)
        with pytest.raises(ec.SolverError, match="item 0 failed"):
            run_sweep(self.SPEC, jobs=2)
        assert multiprocessing.active_children() == []

    def test_worker_block_error_reaches_the_caller(self, monkeypatch):
        # Item 14, trial 4 of point p = 24, is in the last worker's block.
        def run_trial_failing_on_item_14(spec, trial_index, p=None, n=None):
            if (trial_index, p) == (4, 24):
                raise ec.SolverError("item 14 failed")
            return run_trial(spec, trial_index, p, n)

        monkeypatch.setattr(simulation, "run_trial", run_trial_failing_on_item_14)
        with deadline(60), pytest.raises(ec.SolverError) as raised:
            run_sweep(self.SPEC, jobs=3)
        assert type(raised.value) is ec.SolverError
        assert str(raised.value) == "item 14 failed"
        assert "item 14 failed" in str(raised.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    def test_worker_that_exits_without_sending_raises(self, monkeypatch):
        caller, count_block = os.getpid(), simulation._count_block

        def count_block_or_exit(block):
            if os.getpid() != caller:
                os._exit(7)
            return count_block(block)

        monkeypatch.setattr(simulation, "_count_block", count_block_or_exit)
        with deadline(60), pytest.raises(RuntimeError, match="exited with code 7"):
            run_sweep(self.SPEC, jobs=3)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_give_the_serial_csv(self, monkeypatch):
        # Where workers do not fork (macOS, Windows, forkserver), the blocks,
        # the worker body and its results must pickle.
        monkeypatch.setattr(simulation, "_START_METHOD", "spawn")
        spec = replace(self.SPEC, p_list=(16,), trials=3)
        assert run_sweep(spec, jobs=2).to_csv_string() == run_sweep(spec).to_csv_string()
        assert multiprocessing.active_children() == []

    def test_parallel_sweep_starts_no_thread_in_the_caller(self, monkeypatch):
        # Forking a process that has threads is unsafe (Python 3.12 warns).
        caller, count_block = os.getpid(), simulation._count_block
        threads = []

        def count_block_noting_threads(block):
            if os.getpid() == caller:
                threads.append(threading.active_count())
            return count_block(block)

        monkeypatch.setattr(simulation, "_count_block", count_block_noting_threads)
        before = threading.active_count()
        run_sweep(self.SPEC, jobs=3)
        assert threads == [before]
        assert threading.active_count() == before

    @pytest.mark.parametrize("p_list, trials", [((16, 20, 24), 5), ((16,), 2)])
    def test_csv_bytes_equal_for_uneven_blocks(self, p_list, trials):
        spec = replace(self.SPEC, p_list=p_list, trials=trials)
        serial = run_sweep(spec).to_csv_string()
        for jobs in (2, 3):
            assert run_sweep(spec, jobs=jobs).to_csv_string() == serial

    def test_duplicate_points_keep_separate_rows(self):
        single = run_sweep(replace(self.SPEC, p_list=(16,))).rows
        doubled = tuple(row for row in single for _ in range(2))
        spec = replace(self.SPEC, p_list=(16, 16))
        for jobs in (1, 3):
            assert run_sweep(spec, jobs=jobs).rows == doubled

    @settings(max_examples=5, deadline=None)
    @given(grid=st.lists(st.sampled_from((12, 16, 20)), min_size=1, max_size=3),
           trials=st.integers(1, 7), jobs=st.integers(2, 3),
           seed=st.integers(0, 2**32))
    def test_parallel_equals_serial_property(self, grid, trials, jobs, seed):
        spec = ScenarioSpec(lambdas=(4.0, 2.5), p_list=tuple(grid), gamma=0.5,
                            trials=trials, base_seed=seed)
        assert run_sweep(spec, jobs=jobs).to_csv_string() == run_sweep(spec).to_csv_string()


class TestPresets:
    def test_all_presets_encode_printed_scenarios(self):
        assert set(PRESET_NAMES) == set(EXPECTED_PRESETS)
        for name, (axis, lam) in EXPECTED_PRESETS.items():
            preset = _PRESETS[name]
            assert tuple(preset["lambda"]) == lam
            if name in ("fig8", "fig9", "fig10", "fig11"):
                assert preset["p"] == axis
            else:
                assert preset["gamma"] == axis

    def test_desk_and_full_budgets(self):
        desk = preset_scenario("fig1")
        assert desk.trials == DESK_TRIALS
        full = preset_scenario("fig1", full_scale=True)
        assert full.trials == FULL_TRIALS
        assert len(full.p_list) > len(desk.p_list)

    def test_gamma_sweep_geometry(self):
        spec = preset_scenario("fig5")
        for sweep_value, p, n in spec.sweep_points():
            assert p == sweep_value and n == round(p / 2.0)

    def test_fixed_p_sweep_geometry(self):
        spec = preset_scenario("fig9")
        for sweep_value, p, n in spec.sweep_points():
            assert p == 60 and n == sweep_value

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError):
            preset_scenario("fig12")

    def test_fig1_overestimation_controlled(self):
        """No-signal sweep: the TW test keeps its false-alarm budget.

        At p = 20 the edge asymptotics under-cover (true rate ~0.025
        measured over 6000 trials), so the 0.02 budget is asserted from
        p = 40 up and a wider band at the smallest size.
        """
        spec = replace(preset_scenario("fig1", trials=1000, base_seed=1), methods=("rmt",))
        for row in run_sweep(spec, jobs=2).rows:
            assert row.p_over <= (0.04 if row.sweep_value == 20 else 0.02)

    def test_fig4_weak_signal_improvement(self):
        """The adaptive estimator beats the TW test at the smallest size."""
        spec = replace(preset_scenario("fig4", trials=500, base_seed=11),
                       methods=("rmt", "sns"))
        result = run_sweep(spec, jobs=2)
        smallest = spec.p_list[0]
        assert result.row(smallest, "sns").p_e < result.row(smallest, "rmt").p_e

    def test_fig11_adaptive_dominates_pointwise(self):
        """Mixed strong/weak spikes over a sample-size sweep: the adaptive
        estimator is never worse than the TW test beyond trial noise."""
        spec = replace(preset_scenario("fig11", trials=400, base_seed=111),
                       methods=("rmt", "sns"))
        result = run_sweep(spec, jobs=2)
        for n in spec.n_list:
            assert result.row(n, "sns").p_e <= result.row(n, "rmt").p_e + 0.02


class TestScenarioParsing:
    def test_round_trip(self):
        text = """
        # comment
        p_list = 20, 40
        gamma = 0.5
        lambda = 8, 5
        sigma2 = 1.0
        trials = 7
        seed = 3
        methods = rmt, sns
        """
        spec = parse_scenario(text)
        assert spec.p_list == (20, 40) and spec.gamma == 0.5
        assert spec.lambdas == (8.0, 5.0) and spec.trials == 7
        assert spec.base_seed == 3 and spec.methods == ("rmt", "sns")

    def test_preset_with_overrides(self):
        spec = parse_scenario("preset = fig2\ntrials = 11\nseed = 4")
        assert spec.lambdas == (15.0,) and spec.trials == 11 and spec.base_seed == 4

    @pytest.mark.parametrize("text, points", [
        ("preset = fig11\nn = 100", [(60, 60, 100)]),
        ("preset = fig4\np = 60", [(60, 60, 120)]),
        ("preset = fig11\nn_list = 45, 90", [(45, 60, 45), (90, 60, 90)]),
        ("preset = fig4\np_list = 20", [(20, 20, 40)]),
        ("preset = fig11\ngamma = 2", [(60, 60, 30)])])
    def test_file_axis_replaces_the_preset_sweep(self, text, points):
        assert parse_scenario(text).sweep_points() == points

    def test_file_n_beside_a_preset_p_sweep_fixes_n(self):
        assert parse_scenario("preset = fig4\nn = 100").sweep_points() == [
            (40, 40, 100), (60, 60, 100), (80, 80, 100)]

    def test_n_list_via_comma_value(self):
        spec = parse_scenario("p = 60\nn_list = 30, 60\nlambda = 5")
        assert spec.n_list == (30, 60)
        assert [point[1] for point in spec.sweep_points()] == [60, 60]

    def test_n_beside_n_list_is_rejected(self):
        with pytest.raises(InvalidInputError, match="n_list"):
            parse_scenario("p = 60\nn = 30\nn_list = 90\nlambda = 5")

    def test_unknown_key_rejected_before_preset_is_built(self):
        with pytest.raises(InvalidInputError, match="bogus"):
            parse_scenario("preset = nonesuch\nbogus = 3")

    @pytest.mark.parametrize("text", ["p = 2x\nn = 4", "p = 20\nn = 40\nlambda = 5, x",
                                      "p_list = 20, y\ngamma = 0.5",
                                      "p = 20\nn = 40\ntrials = 1.5",
                                      "p = 60\nn = 30, 60\nlambda = 5"])  # a list is n_list
    def test_malformed_value_is_typed(self, text):
        with pytest.raises(InvalidInputError, match="malformed scenario value"):
            parse_scenario(text)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(InvalidInputError, match="bogus"):
            parse_scenario("bogus = 3")

    def test_malformed_line(self):
        with pytest.raises(InvalidInputError):
            parse_scenario("p 60")

    def test_lambda_must_exceed_noise(self):
        with pytest.raises(InvalidInputError):
            parse_scenario("p = 20\nn = 40\nlambda = 0.5")

    def test_geometry_required(self):
        with pytest.raises(InvalidInputError):
            parse_scenario("lambda = 5\ntrials = 2")

    @pytest.mark.parametrize("text, message", [
        ("p = 20\np = 40\nn = 10", "line 2: 'p' is already set on line 1"),
        ("preset = fig4\n# fig7 instead\n\npreset = fig7", "line 4: 'preset' is already set on line 1"),
        ("p = 60\nn = 30\nlambda = 5\nn = 90", "line 4: 'n' is already set on line 2"),
        ("p = 60\nn = 30\nlambda = 5\nlambda = 5", "line 4: 'lambda' is already set on line 3")])
    def test_repeated_key_is_rejected_naming_its_lines(self, text, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            parse_scenario(text)

    def test_repeated_method_is_rejected(self):
        with pytest.raises(InvalidInputError, match="'rmt' is listed more than once"):
            parse_scenario("p = 20\nn = 40\nmethods = rmt, rmt\n")


class TestScenarioSpec:
    def test_model_conversion_subtracts_noise_floor(self):
        spec = ScenarioSpec(lambdas=(12.0, 4.0), sigma2=1.0, p=20, n=40)
        model = spec.model(20)
        np.testing.assert_allclose(model.signal_strengths, [11.0, 3.0])
        np.testing.assert_allclose(model.covariance_diagonal()[:2], [12.0, 4.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec(lambdas=(0.5,), sigma2=1.0, p=10, n=20)
        with pytest.raises(InvalidInputError):
            ScenarioSpec(trials=0, p=10, n=20)
        with pytest.raises(InvalidInputError):
            ScenarioSpec(methods=("nope",), p=10, n=20)

    @pytest.mark.parametrize("geometry, points", [
        (dict(p_list=(20, 40), gamma=0.5), [(20, 20, 40), (40, 40, 80)]),
        (dict(p_list=(20, 40), n=30), [(20, 20, 30), (40, 40, 30)]),
        (dict(p=60, n_list=(30, 90)), [(30, 60, 30), (90, 60, 90)]),
        (dict(p=60, n=30), [(60, 60, 30)]),
        (dict(p=60, gamma=2.0), [(60, 60, 30)]),
        (dict(p=2, n=2), [(2, 2, 2)]),
        (dict(p_list=(3, 4), gamma=1.5), [(3, 3, 2), (4, 4, 3)])])
    def test_one_field_per_axis_resolves(self, geometry, points):
        assert ScenarioSpec(**geometry).sweep_points() == points

    @pytest.mark.parametrize("geometry", [
        dict(p=60, p_list=(20, 40), gamma=0.5),
        dict(p=60, n=30, n_list=(30, 60)),
        dict(p=60, n=30, gamma=0.5),
        dict(p=60, n_list=(30, 60), gamma=0.5),
        dict(p_list=(20, 40), n_list=(30, 60)),
        dict(p_list=(), gamma=0.5),
        dict(p=60, n_list=()),
        dict(p=60, gamma=0.0),
        dict(p=60, gamma=float("nan"))])
    def test_invalid_geometry_is_rejected_at_construction(self, geometry):
        with pytest.raises(InvalidInputError):
            ScenarioSpec(**geometry)

    @pytest.mark.parametrize("geometry, message", [
        (dict(p=10, n=-4), "n = -4"),
        (dict(p=0), "p = 0"),
        (dict(n=1), "n = 1"),
        (dict(p_list=(10, -3)), r"p_list = \(10, -3\)"),
        (dict(p=60, n_list=(30, 1)), r"n_list = \(30, 1\)"),
        (dict(p=10, gamma=20.0), "n < 2 at p = 10"),
        (dict(p_list=(40, 10), gamma=8.0), "n < 2 at p = 10"),
        (dict(p=10.5, n=20), "p = 10.5"),
        (dict(p=10, n=True), "n = True"),
        (dict(p=10, n=float("nan")), "n = nan"),
        (dict(p_list=(20, 40.0), gamma=0.5), r"p_list = \(20, 40.0\)"),
        (dict(p=60, n_list=(30, 60.5)), r"n_list = \(30, 60.5\)")])
    def test_dimension_below_two_is_rejected_at_construction(self, geometry, message):
        with pytest.raises(InvalidInputError, match=message):
            ScenarioSpec(**geometry)

    @pytest.mark.parametrize("counts, message", [
        (dict(trials=2.5), "trials must be an integer"),
        (dict(trials=True), "trials must be an integer"),
        (dict(base_seed=1.5), "base_seed must be an integer"),
        (dict(base_seed=float("nan")), "base_seed must be an integer")])
    def test_non_integer_count_is_rejected_at_construction(self, counts, message):
        with pytest.raises(InvalidInputError, match=message):
            ScenarioSpec(p=10, n=20, **counts)

    @pytest.mark.parametrize("values, field", [
        (dict(sigma2=float("nan")), "sigma2"),
        (dict(sigma2=float("inf")), "sigma2"),
        (dict(lambdas=(float("nan"),)), "lambdas"),
        (dict(lambdas=(5.0, float("inf"))), "lambdas")])
    def test_non_finite_model_value_is_rejected_at_construction(self, values, field):
        with pytest.raises(InvalidInputError, match=field):
            ScenarioSpec(p=10, n=20, **values)

    @pytest.mark.parametrize("values, field", [
        (dict(n=20, sigma2="1"), "sigma2"),
        (dict(n=20, sigma2=True), "sigma2"),
        (dict(n=20, lambdas=(5.0, "3")), "lambdas"),
        (dict(n=20, lambdas=3.0), "lambdas"),
        (dict(gamma="0.5"), "gamma")])
    def test_non_numeric_model_value_is_rejected_at_construction(self, values, field):
        with pytest.raises(InvalidInputError, match=field):
            ScenarioSpec(p=10, **values)

    @pytest.mark.parametrize("geometry", [dict(), dict(p=60), dict(p_list=(20, 40)),
                                          dict(n=30), dict(gamma=0.5)])
    def test_spec_missing_an_axis_has_no_sweep_points(self, geometry):
        spec = ScenarioSpec(lambdas=(3.0,), **geometry)
        assert spec.model(10).p == 10
        with pytest.raises(InvalidInputError, match="axis"):
            spec.sweep_points()

    def test_preset_sweep_points_are_unchanged(self):
        assert {name: preset_scenario(name).sweep_points() for name in PRESET_NAMES} == {
            **dict.fromkeys(("fig1", "fig2", "fig3"),
                            [(20, 20, 40), (40, 40, 80), (60, 60, 120)]),
            "fig4": [(40, 40, 80), (60, 60, 120), (80, 80, 160)],
            **dict.fromkeys(("fig5", "fig6"), [(20, 20, 10), (40, 40, 20), (60, 60, 30)]),
            "fig7": [(60, 60, 30), (80, 80, 40), (100, 100, 50)],
            **dict.fromkeys(("fig8", "fig9", "fig10", "fig11"),
                            [(30, 60, 30), (60, 60, 60), (120, 60, 120)]),
        }
