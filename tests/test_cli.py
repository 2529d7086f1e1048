"""End-to-end CLI behavior: subcommands, formats, determinism, exit codes."""

import math

import pytest

from dpdistinct import stream as streammod
from dpdistinct.cli import main
from dpdistinct.stream import distinct_counts


def write_stream(tmp_path, name="s.dstream", text=None):
    path = tmp_path / name
    if text is None:
        text = "dstream 1 4 4 likes\n1:+1\n2:+1\n1:-1\n\n"
    path.write_text(text)
    return str(path)


class TestGenerate:
    def test_blocks(self, tmp_path, capsys):
        out = str(tmp_path / "b.dstream")
        rc = main(["generate", "blocks", "--m", "2", "--J", "1,3", "--Tprime", "8", "-o", out])
        assert rc == 0
        assert "K=4" in capsys.readouterr().out
        s = streammod.read_file(out)
        assert distinct_counts(s) == [1, 2, 2, 2, 1, 0, 0, 0]

    def test_multiupdate(self, tmp_path, capsys):
        out = str(tmp_path / "m.dstream")
        rc = main(
            ["generate", "multiupdate", "--m", "3", "--I", "2,5", "--Tprime", "6", "-o", out]
        )
        assert rc == 0
        s = streammod.read_file(out)
        assert distinct_counts(s) == [0, 3, 3, 3, 0, 0]

    def test_random(self, tmp_path, capsys):
        out = str(tmp_path / "r.dstream")
        rc = main(
            ["generate", "random", "--d", "8", "--T", "32", "--K", "20",
             "--model", "likes", "--seed", "3", "-o", out]
        )
        assert rc == 0
        assert "K=20" in capsys.readouterr().out

    def test_marginals(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("2 3\n1 0 1\n1 1 0\n")
        out = str(tmp_path / "g.dstream")
        rc = main(["generate", "marginals", "--file", str(table), "-o", out])
        assert rc == 0
        s = streammod.read_file(out)
        assert s.d == 2 and s.T == 12

    def test_missing_flags_is_parameter_error(self, tmp_path):
        rc = main(["generate", "blocks", "--m", "2", "-o", str(tmp_path / "x")])
        assert rc == 1


class TestRun:
    def test_zero_noise_csv_is_exact(self, tmp_path, capsys):
        path = write_stream(tmp_path)
        rc = main(
            ["run", "--input", path, "--mechanism", "laplace-T", "--noise", "zero"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,output,truth,abs_error"
        assert lines[1] == "1,1,1,0"
        assert lines[2] == "2,2,2,0"
        assert lines[3] == "3,1,1,0"
        assert lines[4] == "4,1,1,0"
        assert lines[5] == "# max_error=0 aborts=0 instances=1"

    def test_byte_identical_reruns(self, tmp_path):
        path = write_stream(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["run", "--input", path, "--mechanism", "known-k", "--K", "8",
                "--eps", "1.0", "--seed", "42"]
        assert main(argv + ["-o", str(out1)]) == 0
        assert main(argv + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        path = write_stream(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["run", "--input", path, "--mechanism", "laplace-T", "--eps", "1.0"]
        assert main(base + ["--seed", "1", "-o", str(out1)]) == 0
        assert main(base + ["--seed", "2", "-o", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_known_k_requires_budget_flag(self, tmp_path):
        path = write_stream(tmp_path)
        rc = main(["run", "--input", path, "--mechanism", "known-k"])
        assert rc == 1

    def test_bad_epsilon_is_parameter_error(self, tmp_path):
        path = write_stream(tmp_path)
        rc = main(
            ["run", "--input", path, "--mechanism", "laplace-T", "--eps", "-1"]
        )
        assert rc == 1

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(
            ["run", "--input", str(tmp_path / "nope"), "--mechanism", "laplace-T"]
        )
        assert rc == 2

    def test_malformed_stream_is_input_error(self, tmp_path):
        path = write_stream(tmp_path, text="dstream 2 4 4 likes\n")
        rc = main(["run", "--input", path, "--mechanism", "laplace-T"])
        assert rc == 2

    def test_likes_violation_is_input_error(self, tmp_path):
        path = write_stream(tmp_path, text="dstream 1 2 2 likes\n1:+1\n1:+1\n")
        rc = main(["run", "--input", path, "--mechanism", "laplace-T"])
        assert rc == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["known-k", "--K", "8"],
            ["unknown-k"],
            ["unknown-k-all"],
            ["laplace-T"],
            ["gaussian-T", "--delta", "0.01"],
            ["continual-likes"],
        ],
    )
    def test_non_finite_epsilon_is_parameter_error(self, tmp_path, capsys, flags, eps):
        path = write_stream(tmp_path)
        rc = main(["run", "--input", path, "--eps", eps, "--mechanism", *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert "parameter error" in err and "Traceback" not in err

    @pytest.mark.parametrize("T", ["0", "3"])
    def test_T_shorter_than_stream_is_parameter_error(self, tmp_path, capsys, T):
        path = write_stream(tmp_path)  # 4 steps
        rc = main(["run", "--input", path, "--mechanism", "laplace-T", "--T", T])
        assert rc == 1
        assert "parameter error" in capsys.readouterr().err

    def test_T_at_least_the_stream_is_accepted(self, tmp_path):
        path = write_stream(tmp_path)  # header T = 4
        outs = {T: tmp_path / f"{T}.csv" for T in (None, "4", "8")}
        base = ["run", "--input", path, "--mechanism", "laplace-T", "--seed", "3"]
        for T, out in outs.items():
            assert main(base + (["--T", T] if T else []) + ["-o", str(out)]) == 0
        assert outs["4"].read_bytes() == outs[None].read_bytes()
        assert outs["8"].read_bytes() != outs["4"].read_bytes()

    def test_each_batch_is_checked_once(self, tmp_path, monkeypatch, capsys):
        # the constructor's vectorised pass validates every batch;
        # check_batch runs only on the first bad batch, to phrase the error
        calls = []
        check_batch = streammod.check_batch

        def counted(batch, d):
            calls.append(batch)
            return check_batch(batch, d)

        monkeypatch.setattr(streammod, "check_batch", counted)
        argv = ["run", "--mechanism", "known-k", "--K", "8", "-o", str(tmp_path / "out.csv")]
        assert main([*argv, "--input", write_stream(tmp_path)]) == 0
        assert calls == []
        bad = write_stream(tmp_path, "bad.dstream",
                           "dstream 1 4 4 general\n1:+1\n2:+1 3:+1 2:-1\n5:+1\n\n")
        assert main([*argv, "--input", bad]) == 2
        assert calls == [[(2, 1), (3, 1), (2, -1)]]
        assert capsys.readouterr().err == (
            "input error: line 3: step 2: item 2 appears twice in one batch\n"
        )


class TestTrials:
    def test_zero_trials_is_parameter_error(self, tmp_path, capsys):
        path = write_stream(tmp_path)
        rc = main(["trials", "--input", path, "--mechanism", "laplace-T", "--trials", "0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "parameter error" in err and "Traceback" not in err

    def test_summary_lines(self, tmp_path, capsys):
        path = write_stream(tmp_path)
        rc = main(
            ["trials", "--input", path, "--mechanism", "laplace-T", "--trials", "10",
             "--bound", "100", "--seed", "7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "n_trials=10" in out
        assert "max_error_q50=" in out
        assert "pass_fraction=" in out


class TestBounds:
    def test_branches_and_min(self, capsys):
        beta = 32 * math.exp(-4)
        rc = main(
            ["bounds", "--eps", "1", "--K", "72", "--T", "16",
             "--beta", format(beta, ".17g"), "--d", "100"]
        )
        assert rc == 0
        out = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["branch_d"]) == 100
        assert float(out["branch_K"]) == 72
        assert float(out["branch_flippancy"]) == pytest.approx(math.sqrt(288))
        assert float(out["branch_err_T"]) == pytest.approx(64.0)
        assert float(out["min"]) == pytest.approx(math.sqrt(288))


class TestProbe:
    def test_self_probe_small(self, tmp_path, capsys):
        path = write_stream(tmp_path, text="dstream 1 2 1 likes\n1:+1\n")
        rc = main(
            ["probe", "--input", path, "--neighbor", path, "--mechanism",
             "laplace-T", "--eps", "20", "--samples", "5000", "--seed", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "status=ok" in out
        eps_hat = float(
            next(l for l in out.splitlines() if l.startswith("eps_hat=")).split("=")[1]
        )
        assert eps_hat <= 0.1

    @pytest.mark.parametrize(
        "flags",
        [["--bin-width", "0"], ["--bin-width", "nan"], ["--bin-width", "inf"],
         ["--samples", "0"], ["--samples", "-5"]],
    )
    def test_bad_probe_parameters_are_parameter_errors(self, tmp_path, capsys, flags):
        path = write_stream(tmp_path)
        rc = main(["probe", "--input", path, "--neighbor", path, "--mechanism",
                   "laplace-T", "--samples", "10", *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert "parameter error" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


class TestBench:
    def test_zero_noise_reports_no_draws(self, tmp_path, capsys):
        path = write_stream(tmp_path)
        rc = main(
            ["bench", "--input", path, "--mechanism", "known-k", "--K", "8",
             "--noise", "zero"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "laplace_draws=0" in out
        assert "updates=3" in out
