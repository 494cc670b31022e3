import warnings

import numpy as np
import pytest

import eigencount as ec
from eigencount.cli import build_parser, main
from eigencount.estimators import TRACE_COLUMNS


def write_eigs(path, values):
    path.write_text("\n".join(f"{v:.12g}" for v in values) + "\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv):
    """main's return value, or the code of the SystemExit that argparse's
    usage errors raise."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestEstimate:
    def test_flat_eigenvalues_rmt(self, tmp_path, capsys):
        path = tmp_path / "eigs.csv"
        write_eigs(path, np.full(100, 1.0))
        code, out, _ = run_cli(capsys, "estimate", str(path), "--n", "200",
                               "--method", "rmt")
        assert code == 0 and out == "rmt,0\n"

    def test_idealised_spike_sns(self, tmp_path, capsys):
        path = tmp_path / "eigs.csv"
        values = np.full(100, 1.0)
        # The almost-sure limit (lam + sigma2) (1 + gamma sigma2 / lam) of a
        # supercritical spike's eigenvalue: lam = 15, sigma2 = 1, gamma = 0.5.
        values[0] = (15.0 + 1.0) * (1.0 + 0.5 * 1.0 / 15.0)
        write_eigs(path, values)
        code, out, _ = run_cli(capsys, "estimate", str(path), "--n", "200",
                               "--method", "sns")
        assert code == 0 and out == "sns,1\n"

    def test_method_all_prints_six_lines(self, tmp_path, capsys):
        path = tmp_path / "eigs.csv"
        write_eigs(path, np.full(50, 2.0))
        code, out, _ = run_cli(capsys, "estimate", str(path), "--n", "100")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert [line.split(",")[0] for line in lines] == list(ec.METHOD_ORDER)

    def test_snapshot_input(self, tmp_path, capsys):
        rng = np.random.RandomState(2)
        data = rng.randn(6, 40)
        path = tmp_path / "snaps.csv"
        np.savetxt(path, data, delimiter=",")
        code, out, _ = run_cli(capsys, "estimate", str(path),
                               "--input-kind", "snapshots", "--method", "mdl")
        assert code == 0 and out.startswith("mdl,")

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnot-a-number\n")
        code, _, err = run_cli(capsys, "estimate", str(path), "--n", "10")
        assert code == 2 and "bad.csv" in err

    def test_two_values_on_a_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("9.0 4.0\n1.0 1.0\n")
        code, _, err = run_cli(capsys, "estimate", str(path), "--n", "10")
        assert code == 2 and "wide.csv" in err and "one eigenvalue per line" in err

    @pytest.mark.parametrize("text, flags", [
        ("", ["--n", "10"]),
        ("# eigenvalues\n\n   # none yet\n", ["--n", "10"]),
        ("# snapshots\n", ["--input-kind", "snapshots"])],
        ids=["empty", "comments-only", "snapshots-comments-only"])
    def test_file_without_values_exits_2_quietly(self, tmp_path, capsys, text, flags):
        path = tmp_path / "none.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "estimate", str(path), *flags)
        assert code == 2
        assert err == f"eigencount: data error: no values found in {path}\n"
        assert not caught  # numpy's own "no data" warning stays off stderr

    def test_inline_comment_is_skipped(self, tmp_path, capsys):
        values = np.full(100, 1.0)
        values[0] = (15.0 + 1.0) * (1.0 + 0.5 * 1.0 / 15.0)
        plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
        write_eigs(plain, values)
        commented.write_text("# lam = 15 spike, n = 200\n"
                             + "".join(f"{v:.12g}  # eigenvalue {i}\n" for i, v in enumerate(values)))
        outputs = [run_cli(capsys, "estimate", str(path), "--n", "200")
                   for path in (plain, commented)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize("sub", ["estimate", "trace"])
    def test_level_defaults_are_the_config_defaults(self, sub):
        args = build_parser().parse_args([sub, "eigs.csv"])
        config = ec.EstimatorConfig()
        assert (args.alpha, args.alpha0) == (config.alpha, config.alpha0)

    def test_missing_n_exits_1(self, tmp_path, capsys):
        path = tmp_path / "eigs.csv"
        write_eigs(path, np.full(10, 1.0))
        code, _, err = run_cli(capsys, "estimate", str(path))
        assert code == 1 and "--n" in err


class TestTw:
    def test_far_right_cdf(self, capsys):
        code, out, _ = run_cli(capsys, "tw", "--x", "50", "--beta", "1")
        assert code == 0 and out.strip() == "1.000000"

    def test_quantile_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "tw", "--alpha", "0.5")
        s = float(out)
        code, out, _ = run_cli(capsys, "tw", "--x", str(s))
        assert abs(float(out) - 0.5) <= 1e-4

    def test_operating_point_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "tw", "--alpha", "0.005", "--beta", "1")
        assert code == 0
        assert abs(float(out) - 2.42232659) <= 1e-3

    def test_out_of_range_alpha_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "tw", "--alpha", "1.5")
        assert code == 1

    def test_requires_exactly_one_query(self, capsys):
        assert exit_code(["tw"]) == 1
        assert exit_code(["tw", "--alpha", "0.1", "--x", "1.0"]) == 1


class TestSweep:
    def test_preset_deterministic_csv(self, tmp_path, capsys):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            code, _, _ = run_cli(capsys, "sweep", "--preset", "fig1",
                                 "--trials", "10", "--seed", "7",
                                 "--methods", "rmt,mdl", "--out", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_parallel_identical_bytes(self, tmp_path, capsys):
        outputs = []
        for jobs, name in (("1", "serial.csv"), ("2", "parallel.csv")):
            out_path = tmp_path / name
            code, _, _ = run_cli(capsys, "sweep", "--preset", "fig1",
                                 "--trials", "12", "--seed", "3", "--jobs", jobs,
                                 "--methods", "rmt", "--out", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_format(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig1", "--trials", "5",
                               "--seed", "1", "--methods", "rmt", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "sweep_value,method,trials,count_under,count_over,p_under,p_over,p_e"
        assert len(lines) == 4  # three sweep points, one method
        assert "P_e" in out  # summary table on stdout

    def test_spaced_methods_list_parses_like_a_scenario_file(self, tmp_path, capsys):
        outputs = []
        for flag, name in (("rmt, sns", "flag.csv"), ("rmt,sns", "plain.csv")):
            out_path = tmp_path / name
            code, _, err = run_cli(capsys, "sweep", "--preset", "fig4", "--trials", "1",
                                   "--methods", flag, "--out", str(out_path))
            assert code == 0, err
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert {line.split(",")[1] for line in outputs[0].decode().splitlines()[1:]} == \
            {"rmt", "sns"}

    def test_scenario_file(self, tmp_path, capsys):
        scenario = tmp_path / "scen.txt"
        scenario.write_text("p = 16\nn = 32\nlambda = 9\ntrials = 4\nseed = 2\n"
                            "methods = rmt\n")
        code, out, _ = run_cli(capsys, "sweep", str(scenario))
        assert code == 0

    def test_mdl_concentrates_at_zero_on_noise(self, tmp_path, capsys):
        out_path = tmp_path / "mdl.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "fig1", "--trials", "10",
                             "--seed", "5", "--methods", "mdl", "--out", str(out_path))
        assert code == 0
        for line in out_path.read_text().splitlines()[1:]:
            assert line.endswith(",0.000000,0.000000,0.000000")

    def test_bad_scenario_key_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "scen.txt"
        scenario.write_text("qqq = 1\n")
        code, _, err = run_cli(capsys, "sweep", str(scenario))
        assert code == 1 and "qqq" in err

    def test_malformed_scenario_value_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "scen.txt"
        scenario.write_text("p = 16\nn = 3two\n")
        code, _, err = run_cli(capsys, "sweep", str(scenario))
        assert code == 1 and "3two" in err

    @pytest.mark.parametrize("text, message", [
        ("p = 20\np = 40\nn = 10\n", "line 2: 'p' is already set on line 1"),
        ("p = 10\nn = -4\n", "n = -4"),
        ("preset = fig7\np_list = 1, 60\n", "p_list = (1, 60)"),
        ("preset = fig11\ngamma = 50\n", "n < 2 at p = 60")])
    def test_repeated_key_or_short_dimension_exits_1(self, tmp_path, capsys, text, message):
        scenario = tmp_path / "scen.txt"
        scenario.write_text(text)
        code, _, err = run_cli(capsys, "sweep", str(scenario))
        assert code == 1 and message in err

    def test_missing_scenario_exits_1(self, capsys):
        assert exit_code(["sweep"]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_exits_1(self, jobs, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig1", "--trials", "2",
                               "--methods", "rmt", "--jobs", jobs)
        assert code == 1 and "jobs" in err


class TestTraceCommand:
    def test_stdout_csv(self, tmp_path, capsys):
        path = tmp_path / "eigs.csv"
        write_eigs(path, np.full(40, 1.0))
        code, out, _ = run_cli(capsys, "trace", str(path), "--n", "80")
        assert code == 0
        assert out.splitlines()[0] == ",".join(TRACE_COLUMNS)

    def test_trace_output(self, tmp_path, capsys):
        path = tmp_path / "eigs.csv"
        write_eigs(path, np.full(60, 1.0))
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "trace", str(path), "--n", "120",
                               "--method", "sns", "--out", str(trace_path))
        assert code == 0 and out == ""
        header = trace_path.read_text().splitlines()[0]
        assert header == ",".join(TRACE_COLUMNS)


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "x.csv", "--bogus"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("sub", ["estimate", "sweep", "tw", "trace"])
    def test_help_exits_0(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


@pytest.mark.parametrize("argv, scenario", [
    (["simulate", "{scenario}"], "p = 16\nn = 32\n"),  # sweep's old alias
    (["estimate", "{eigs}", "--n", "32", "--trace", "{out}"], None),  # trace --out
    (["sweep", "{scenario}"], "p = 16\nn = 32, 64\n"),  # a comma n for n_list
    # A sweep input that would be dropped: the file beside --preset, and
    # --full-scale, which only a preset reads.
    (["sweep", "{scenario}", "--preset", "fig1", "--trials", "2"], "p = 20\nn = 40\n"),
    (["sweep", "{scenario}", "--full-scale"], "p = 16\nn = 32\n"),
], ids=["simulate", "estimate-trace", "comma-n", "sweep-file-and-preset",
        "sweep-file-full-scale"])
def test_removed_spelling_exits_1(tmp_path, capsys, argv, scenario):
    paths = {"scenario": tmp_path / "scen.txt", "eigs": tmp_path / "eigs.csv",
             "out": tmp_path / "trace.csv"}
    write_eigs(paths["eigs"], np.full(16, 1.0))
    if scenario is not None:
        paths["scenario"].write_text(scenario + "lambda = 9\ntrials = 2\nmethods = rmt\n")
    assert exit_code([arg.format(**paths) for arg in argv]) == 1, capsys.readouterr()
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "{eigs}", "--n", "0"],
    ["estimate", "{snaps}", "--input-kind", "snapshots", "--n", "5"],
    ["trace", "{eigs}", "--n", "32", "--method", "aic"],
    ["tw"],
    ["tw", "--alpha", "0.1", "--x", "1.0"],
    ["sweep"],
    ["sweep", "{scenario}", "--preset", "fig1"],
    ["sweep", "--preset", "fig1", "--trials", "2", "--methods", "rmt,rmt"],
], ids=["n-zero", "n-beside-snapshots", "trace-aic", "tw-no-query", "tw-both-queries",
        "sweep-no-source", "sweep-both-sources", "sweep-repeated-method"])
def test_usage_rule_exits_1(tmp_path, capsys, argv):
    """Each flag combination the CLI refuses is a usage error, raised by the
    parser or before any input file is read."""
    paths = {"eigs": tmp_path / "eigs.csv", "snaps": tmp_path / "snaps.csv",
             "scenario": tmp_path / "scen.txt"}
    write_eigs(paths["eigs"], np.full(16, 1.0))
    np.savetxt(paths["snaps"], np.random.RandomState(0).randn(4, 12), delimiter=",")
    paths["scenario"].write_text("p = 20\nn = 40\ntrials = 2\nmethods = rmt\n")
    assert exit_code([arg.format(**paths) for arg in argv]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_eigenvalue_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("inf\n2.0\n1.0\n1.0\n")
    code, _, err = run_cli(capsys, "estimate", str(path), "--n", "10",
                           "--method", "rmt")
    assert code == 2 and "non-finite" in err
