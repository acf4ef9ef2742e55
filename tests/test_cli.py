import json

import pytest

from ratiorich import simlab
from ratiorich.cli import main
from ratiorich.estimators import ESTIMATORS, chao1


GEOMETRIC_FREQ = "2,64\n3,32\n4,16\n5,8\n6,4\n"
CHAO_FREQ = "1,10\n2,5\n3,2\n"


@pytest.fixture()
def freq_file(tmp_path):
    path = tmp_path / "freq.txt"
    path.write_text(GEOMETRIC_FREQ)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_nof1_geometric_json(self, capsys, freq_file):
        code, out, err = run_cli(
            capsys, ["estimate", "--input", freq_file, "--estimator", "nof1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "estimate"
        (result,) = payload["results"]
        assert result["C_hat"] == pytest.approx(508.0, abs=1e-6)
        assert result["model_p"] == 1 and result["model_q"] == 0
        assert "resolved config" in err

    def test_chao1_direct(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(CHAO_FREQ)
        code, out, _ = run_cli(
            capsys, ["estimate", "--input", str(path), "--estimator", "chao1"]
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["C_hat"] == pytest.approx(27.0)

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, ["estimate", "--input", "/nonexistent/x.txt"])
        assert code == 1
        assert "cannot read" in err

    def test_invalid_input_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,-3\n")
        code, _, err = run_cli(capsys, ["estimate", "--input", str(path)])
        assert code == 1
        assert "line 1" in err

    def test_all_estimators_partial_failure_still_ok(self, capsys, tmp_path):
        # no doubletons: chao1 works, nof1 fails; exit stays 0
        path = tmp_path / "t.txt"
        path.write_text("1,5\n3,2\n4,1\n5,1\n6,1\n")
        code, out, _ = run_cli(capsys, ["estimate", "--input", str(path)])
        assert code == 0
        results = {r["estimator"]: r for r in json.loads(out)["results"]}
        assert results["chao1"]["error"] is None
        assert results["nof1"]["error"] is not None

    def test_total_failure_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3,2\n4,1\n")
        code, out, _ = run_cli(
            capsys, ["estimate", "--input", str(path), "--estimator", "nof1"]
        )
        assert code == 2

    def test_breakaway_without_singletons_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(GEOMETRIC_FREQ)
        code, out, _ = run_cli(
            capsys, ["estimate", "--input", str(path), "--estimator", "breakaway"]
        )
        assert code == 2
        (result,) = json.loads(out)["results"]
        assert result["error"] == (
            "table has no singleton entry (f_1); use breakaway_nof1, which predicts it"
        )

    def test_abundance_format(self, capsys, tmp_path):
        path = tmp_path / "ab.txt"
        path.write_text("".join("1\n" * 10 + "2\n" * 5 + "3\n" * 2))
        code, out, _ = run_cli(
            capsys,
            ["estimate", "--input", str(path), "--format", "abundance", "--estimator", "chao1"],
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["C_hat"] == pytest.approx(27.0)

    def test_csv_values_match_json_at_precision(self, capsys, freq_file):
        code, json_out, _ = run_cli(
            capsys, ["estimate", "--input", freq_file, "--estimator", "nof1"]
        )
        code, csv_out, _ = run_cli(
            capsys,
            ["estimate", "--input", freq_file, "--estimator", "nof1", "--output", "csv"],
        )
        (js,) = json.loads(json_out)["results"]
        header, row = csv_out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["C_hat"]) == pytest.approx(round(js["C_hat"], 4))
        assert float(fields["se"]) == pytest.approx(round(js["se"], 4))

    def test_bad_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--input", "x", "--estimator", "bogus"])
        assert excinfo.value.code == 1


class TestSimulate:
    ARGS = [
        "simulate",
        "--C", "300", "--size", "500", "--prob", "0.99",
        "--rate", "0", "--reps", "12", "--seed", "42",
        "--estimators", "chao1,nof1",
    ]

    def test_report_written_and_reproducible(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()
        header = out1.read_text().splitlines()[0]
        assert header == "estimator,statistic,value,failures,reps,seed"

    def test_single_replicate_statistics_agree(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "simulate", "--C", "300", "--size", "500", "--prob", "0.99",
                "--reps", "1", "--seed", "7", "--estimators", "chao1",
                "--out", str(out), "--output", "json",
            ]
        )
        capsys.readouterr()
        assert code == 0
        stats = json.loads(out.read_text())["estimators"]["chao1"]
        assert stats["trimmed_rmse"] ** 2 == pytest.approx(stats["mean_sq_error"])
        assert stats["mean_sq_error"] == pytest.approx(stats["median_sq_error"])

    def test_config_echo_includes_seed(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        main(self.ARGS + ["--out", str(out)])
        err = capsys.readouterr().err
        assert '"seed": 42' in err

    def test_unseeded_run_echoes_a_seed_that_reproduces_it(self, capsys, tmp_path):
        unseeded = [arg for arg in self.ARGS if arg not in ("--seed", "42")]
        assert main(unseeded + ["--out", str(tmp_path / "a.csv")]) == 0
        err = capsys.readouterr().err
        seed = json.loads(err[err.index("{") : err.index("}") + 1])["seed"]
        assert 0 <= seed < 2**63
        assert main(unseeded + ["--seed", str(seed), "--out", str(tmp_path / "b.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_invalid_parameters_exit_1(self, capsys, tmp_path):
        code = main(
            [
                "simulate", "--C", "300", "--size", "500", "--prob", "1.5",
                "--reps", "5", "--out", str(tmp_path / "x.csv"),
            ]
        )
        capsys.readouterr()
        assert code == 1


class TestCalibrateSe:
    def test_crossed_grid_emits_four_rows(self, capsys, tmp_path):
        code, out, err = None, None, None
        code = main(
            [
                "calibrate-se",
                "--C-list", "200,300", "--size-list", "500,400", "--prob-list", "0.99",
                "--grid", "cross", "--reps", "10", "--seed", "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0].startswith("C,size,prob,estimator,median_se")
        assert len(lines) == 1 + 4

    def test_zip_grid_length_mismatch_exit_1(self, capsys):
        code = main(
            [
                "calibrate-se",
                "--C-list", "200,300", "--size-list", "500", "--prob-list", "0.99",
                "--reps", "10", "--seed", "3",
            ]
        )
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize(
        "lists, error",
        [
            (["5000,abc", "500", "0.99"], "error: --C-list: not an integer: 'abc'"),
            (["5000", "500, 1.5", "0.99"], "error: --size-list: not an integer: '1.5'"),
            (["5000", "500", "0.9,x"], "error: --prob-list: not a number: 'x'"),
        ],
        ids=["C-list", "size-list", "prob-list"],
    )
    def test_bad_list_item_exit_1(self, capsys, lists, error):
        c_list, size_list, prob_list = lists
        code, out, err = run_cli(
            capsys,
            [
                "calibrate-se", "--C-list", c_list, "--size-list", size_list,
                "--prob-list", prob_list, "--reps", "10", "--seed", "3",
            ],
        )
        assert code == 1
        assert out == ""
        assert err == error + "\n"  # one error line, no config echo

    def test_low_replicate_warning(self, capsys):
        code = main(
            [
                "calibrate-se",
                "--C-list", "200", "--size-list", "500", "--prob-list", "0.99",
                "--reps", "2", "--seed", "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "replicates" in captured.err


class TestRarefy:
    @pytest.fixture()
    def abundance_file(self, tmp_path):
        path = tmp_path / "ab.txt"
        counts = [1] * 64 + [2] * 32 + [3] * 16 + [4] * 8 + [5] * 4 + [6] * 2
        path.write_text("".join(f"{x}\n" for x in counts))
        return str(path)

    def test_full_fraction_sd_zero(self, capsys, abundance_file):
        code, out, _ = run_cli(
            capsys,
            [
                "rarefy", "--input", abundance_file, "--fractions", "1.0",
                "--reps", "5", "--seed", "1", "--estimators", "chao1",
            ],
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "fraction,estimator,mean_C_hat,sd_C_hat,failures"
        assert float(row.split(",")[3]) == 0.0

    def test_fractions_sorted_with_warning(self, capsys, abundance_file):
        code, out, err = run_cli(
            capsys,
            [
                "rarefy", "--input", abundance_file, "--fractions", "1.0,0.5",
                "--reps", "3", "--seed", "1", "--estimators", "chao1",
            ],
        )
        assert code == 0
        assert "reordered" in err
        rows = out.strip().split("\n")[1:]
        fractions = [float(r.split(",")[0]) for r in rows]
        assert fractions == sorted(fractions)

    def test_frequency_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text(GEOMETRIC_FREQ)
        code, _, err = run_cli(
            capsys,
            ["rarefy", "--input", str(path), "--fractions", "1.0", "--seed", "1"],
        )
        assert code == 1
        assert "abundance-format" in err

    @pytest.mark.parametrize(
        "arguments, error",
        [
            (["--fractions", "0.0,1.0"], "error: fractions must lie in (0, 1]"),
            (["--fractions", ","], "error: no fractions given"),
            (["--fractions", "1.0", "--reps", "0"], "error: reps must be >= 1"),
            (["--fractions", "0.5,x"], "error: --fractions: not a number: 'x'"),
        ],
        ids=["fraction 0", "no fractions", "reps 0", "not a number"],
    )
    def test_out_of_range_fraction_exit_1(self, capsys, abundance_file, arguments, error):
        code, _, err = run_cli(
            capsys, ["rarefy", "--input", abundance_file, *arguments, "--seed", "1"]
        )
        assert code == 1
        assert err == error + "\n"  # one error line, no config echo


class TestRejectedBeforeRunning:
    SIMULATE = [
        "simulate", "--C", "300", "--size", "500", "--prob", "0.99",
        "--reps", "2", "--seed", "1",
    ]
    CALIBRATE = [
        "calibrate-se", "--C-list", "200", "--size-list", "500", "--prob-list", "0.99",
        "--reps", "2", "--seed", "1",
    ]

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_simulate_non_finite_rate_exit_1(self, capsys, tmp_path, rate):
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, self.SIMULATE + [f"--rate={rate}", "--out", str(out)])
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: chimeric_rate must be finite"
        ]
        assert not out.exists()

    def test_calibrate_non_finite_rate_exit_1(self, capsys):
        code, out, err = run_cli(capsys, self.CALIBRATE + ["--rate", "inf"])
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: chimeric_rate must be finite"
        ]

    def test_simulate_rate_past_the_count_bound_exit_1_before_echo(self, capsys, tmp_path):
        # 300 (1 + 1e298) singletons would reach chao1 as a 301-digit count
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, self.SIMULATE + ["--rate", "1e300", "--out", str(out)])
        assert code == 1
        assert err == "error: chimeric_rate must keep the inflated singleton count below 2**53\n"
        assert not out.exists()

    def test_calibrate_rate_past_the_count_bound_exit_1_before_echo(self, capsys):
        code, out, err = run_cli(capsys, self.CALIBRATE + ["--rate", "1e300"])
        assert code == 1
        assert out == ""
        assert "resolved config" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: chimeric_rate must keep the inflated singleton count below 2**53"
        ]

    def test_simulate_zero_workers_exit_1_before_echo(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, self.SIMULATE + ["--workers", "0", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1
        assert err == "error: workers must be >= 1\n"

    def test_calibrate_zero_workers_exit_1_before_echo(self, capsys):
        code, out, err = run_cli(capsys, self.CALIBRATE + ["--workers", "0"])
        assert code == 1
        assert out == ""
        assert "resolved config" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: workers must be >= 1"
        ]

    def test_simulate_repeated_estimator_exit_1_before_echo(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        argv = self.SIMULATE + ["--estimators", "chao1,chao1", "--out", str(out)]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err == "error: duplicate estimators: ['chao1']\n"
        assert not out.exists()

    def test_rarefy_repeated_estimator_exit_1_before_echo(self, capsys, tmp_path):
        path = tmp_path / "ab.txt"
        path.write_text("5\n3\n1\n1\n2\n")
        argv = ["rarefy", "--input", str(path), "--fractions", "1.0", "--estimators", "nof1,nof1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: duplicate estimators: ['nof1']\n"

    # a (size, prob) whose negative-binomial cdf table passes its cap
    EXTREME_CDF = "error: size 1 and prob 1e-09 need a cdf table of over 10000000 entries\n"

    def test_simulate_extreme_size_and_prob_exit_1_before_echo(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        argv = ["simulate", "--C", "10", "--size", "1", "--prob", "1e-9", "--reps", "1",
                "--seed", "1", "--out", str(out)]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err == self.EXTREME_CDF
        assert not out.exists()

    def test_calibrate_extreme_size_and_prob_exit_1_before_echo(self, capsys):
        argv = ["calibrate-se", "--C-list", "200", "--size-list", "1", "--prob-list", "1e-9",
                "--reps", "2", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == self.EXTREME_CDF

    def test_simulate_size_past_two_to_the_53_exit_1(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        argv = ["simulate", "--C", "10", "--size", "10000000000000000000", "--prob", "0.5",
                "--reps", "1", "--seed", "1", "--out", str(out)]
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err == "error: size must be <= 2**53\n"
        assert not out.exists()

    def test_simulate_no_estimator_exit_1_before_echo(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        argv = self.SIMULATE + ["--estimators", ",", "--out", str(out)]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err == "error: at least one estimator is required\n"
        assert not out.exists()


class TestNegativePrecision:
    """--precision < 0 exits 1 with one error line, before any config echo."""

    ERROR = "error: precision must be >= 0, got -1"

    def assert_rejected(self, code, out, err):
        assert code == 1
        assert out == ""
        assert "resolved config" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [self.ERROR]

    def test_estimate(self, capsys, freq_file):
        argv = ["estimate", "--input", freq_file, "--estimator", "chao1", "--output", "csv"]
        self.assert_rejected(*run_cli(capsys, argv + ["--precision", "-1"]))

    def test_simulate(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        argv = TestRejectedBeforeRunning.SIMULATE + ["--out", str(out), "--precision", "-1"]
        self.assert_rejected(*run_cli(capsys, argv))
        assert not out.exists()

    def test_calibrate_se(self, capsys):
        argv = TestRejectedBeforeRunning.CALIBRATE + ["--precision", "-1"]
        self.assert_rejected(*run_cli(capsys, argv))

    def test_rarefy(self, capsys, tmp_path):
        path = tmp_path / "ab.txt"
        path.write_text("5\n3\n1\n1\n2\n")
        argv = ["rarefy", "--input", str(path), "--fractions", "1.0", "--precision", "-1"]
        self.assert_rejected(*run_cli(capsys, argv))


class TestCalibrateValidatedBeforeEcho:
    def test_nan_rate(self, capsys):
        code, out, err = run_cli(capsys, TestRejectedBeforeRunning.CALIBRATE + ["--rate", "nan"])
        assert code == 1
        assert out == ""
        assert "resolved config" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: chimeric_rate must be finite"
        ]

    def test_zero_reps(self, capsys):
        argv = [
            "calibrate-se", "--C-list", "200", "--size-list", "500", "--prob-list", "0.99",
            "--reps", "0", "--seed", "1",
        ]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "resolved config" not in err
        assert "warning" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: reps must be >= 1"
        ]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "ratiorich" in capsys.readouterr().out


class TestParserReadsRegistry:
    def test_estimator_registered_after_a_first_call_is_accepted(
        self, capsys, monkeypatch, freq_file
    ):
        code, _, _ = run_cli(capsys, ["estimate", "--input", freq_file, "--estimator", "chao1"])
        assert code == 0
        monkeypatch.setitem(ESTIMATORS, "chao1-again", chao1)
        code, out, _ = run_cli(
            capsys, ["estimate", "--input", freq_file, "--estimator", "chao1-again"]
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["estimator"] == "chao1-again"
        monkeypatch.delitem(ESTIMATORS, "chao1-again")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--input", freq_file, "--estimator", "chao1-again"])
        assert excinfo.value.code == 1
        assert "invalid choice" in capsys.readouterr().err


class TestReadAndWriteFailures:
    """Unreadable input and an unwritable --out exit 1 before the echo and the work."""

    @pytest.mark.parametrize(
        "argv",
        [["estimate"], ["rarefy", "--fractions", "1.0", "--seed", "1"]],
        ids=["estimate", "rarefy"],
    )
    def test_non_utf8_input_exit_1(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bin.txt").write_bytes(b"\xff\xfe\x00\x01\n")
        code, out, err = run_cli(capsys, argv + ["--input", "bin.txt"])
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: cannot read bin.txt: ")

    @staticmethod
    def rarefy_with_seed(capsys, tmp_path, seed):
        path = tmp_path / "ab.txt"
        path.write_text("5\n3\n1\n1\n2\n")
        argv = ["rarefy", "--input", str(path), "--fractions", "1.0", "--seed", seed]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a 64-bit unsigned integer\n"

    def test_rarefy_negative_seed_exit_1_before_echo(self, capsys, tmp_path):
        self.rarefy_with_seed(capsys, tmp_path, "-1")

    def test_rarefy_seed_of_2_to_the_64_exit_1_before_echo(self, capsys, tmp_path):
        self.rarefy_with_seed(capsys, tmp_path, str(2**64))

    @pytest.mark.parametrize("name", ["missing/r.csv", "file/r.csv", "file/sub/r.csv", "dir"])
    def test_out_check_names_the_error_of_opening(self, capsys, monkeypatch, tmp_path, name):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the work started")

        monkeypatch.setattr(simlab, "run_replications", must_not_run)
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        out = tmp_path / name
        with pytest.raises(OSError) as opening:
            open(out, "w")
        code, stdout, err = run_cli(capsys, TestRejectedBeforeRunning.SIMULATE + ["--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err == f"error: cannot write {out}: {opening.value}\n"
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_simulate_unwritable_out_exit_1(self, capsys, tmp_path):
        out = tmp_path / "missing" / "r.csv"
        argv = TestRejectedBeforeRunning.SIMULATE + ["--estimators", "chao1", "--out", str(out)]
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'"
        ]
        assert "Traceback" not in err


class TestFaultsAreNotInputErrors:
    def test_value_error_from_an_estimator_propagates(self, capsys, monkeypatch, freq_file):
        def broken(table):
            raise ValueError("a bug, not bad input")

        monkeypatch.setitem(ESTIMATORS, "chao1", broken)
        with pytest.raises(ValueError, match="a bug, not bad input"):
            main(["estimate", "--input", freq_file, "--estimator", "chao1"])
        assert "resolved config" in capsys.readouterr().err
