"""End-to-end CLI behavior: subcommands, formats, determinism, exit codes."""

import math
import os
import subprocess
import sys

import pytest

from dpdistinct import cli, generators, harness, stream as streammod
from dpdistinct.cli import main
from dpdistinct.stream import distinct_counts

BIG = str(10**400)  # past the double range

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


@pytest.mark.parametrize("command", ["run", "bench", "generate"])
def test_negative_seed_is_parameter_error(tmp_path, capsys, command):
    path = write_stream(tmp_path)
    argv = {
        "run": ["run", "--input", path, "--mechanism", "laplace-T"],
        "bench": ["bench", "--input", path, "--mechanism", "laplace-T"],
        "generate": ["generate", "random", "--d", "8", "--T", "32", "--K", "20",
                     "-o", str(tmp_path / "r.dstream")],
    }[command]
    rc = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "parameter error: seed must be >= 0, got -1\n"


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

    def test_unknown_k_all_names_its_epsilon_limit(self, tmp_path, capsys):
        # with delta > 0 the first instance gets eps_1 = 12 eps / pi^2, which
        # reaches 1 at eps = pi^2/12 ~ 0.822, although eps < 1 is valid
        path = str(tmp_path / "m.dstream")
        argv = ["generate", "multiupdate", "--m", "200", "--I", "5,20", "--Tprime", "48"]
        assert main([*argv, "-o", path]) == 0
        run = ["run", "--input", path, "--mechanism", "unknown-k-all", "--delta", "0.001"]
        capsys.readouterr()
        assert main([*run, "--eps", "0.9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parameter error: unknown-k-all with delta > 0 requires")
        assert "epsilon < pi^2/12" in err and "eps_1 = 12*eps/pi^2 = 1.09" in err
        assert main([*run, "--eps", "0.8", "-o", str(tmp_path / "out.csv")]) == 0

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

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_bound_that_is_not_finite_is_parameter_error(self, tmp_path, capsys, bound):
        path = write_stream(tmp_path)
        rc = main(["trials", "--input", path, "--mechanism", "laplace-T", "--trials", "2",
                   f"--bound={bound}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"parameter error: bound must be finite, got {bound}\n"
        assert captured.out == ""


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--beta", "0", "beta must be in (0, 1), got 0.0"),
            ("--beta", "nan", "beta must be in (0, 1), got nan"),
            ("--beta", "2", "beta must be in (0, 1), got 2.0"),
            ("--T", "0", "T must be >= 1, got 0"),
            ("--T", "-5", "T must be >= 1, got -5"),
            ("--K", "-3", "K must be >= 0, got -3"),
            ("--d", "0", "d must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_is_parameter_error(self, capsys, flag, value, message):
        flags = {"--eps": "1", "--beta": "0.1", "--T": "16", "--K": "8", "--d": "100"}
        flags[flag] = value
        rc = main(["bounds", *(x for item in flags.items() for x in item)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"parameter error: {message}\n"
        assert captured.out == ""


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

    def test_probe_does_not_offer_noise(self, tmp_path, capsys):
        # probe always draws live noise, so --noise zero would be ignored
        path = write_stream(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["probe", "--input", path, "--neighbor", path, "--mechanism", "laplace-T",
                  "--samples", "2", "--noise", "zero"])
        assert info.value.code == 2
        assert "unrecognized arguments: --noise zero" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "text, field",
        [
            ("dstream 1 2 16 likes\n" + "1:+1\n1:-1\n" * 8, "neighbor length 16 exceeds T=8"),
            ("dstream 1 3 8 likes\n1:+1\n", "neighbor d=3 differs from the input's 2"),
            ("dstream 1 2 8 general\n1:+1\n",
             "neighbor model=general differs from the input's likes"),
        ],
        ids=["length", "d", "model"],
    )
    def test_mismatched_neighbor_is_input_error(self, tmp_path, capsys, text, field):
        path = write_stream(tmp_path, text="dstream 1 2 8 likes\n" + "1:+1\n1:-1\n" * 4)
        neighbor = write_stream(tmp_path, "y.dstream", text)
        rc = main(["probe", "--input", path, "--neighbor", neighbor, "--mechanism",
                   "laplace-T", "--samples", "10"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"input error: {field}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("delta", ["2", "nan", "-1"])
    @pytest.mark.parametrize("mechanism", ["zero", "continual-likes"])
    def test_delta_is_checked_without_privacy_params(self, tmp_path, capsys, mechanism, delta):
        # these two mechanisms ignore delta, which the CLI checks all the same
        path = write_stream(tmp_path, text="dstream 1 2 3 likes\n1:+1\n\n1:-1\n")
        neighbor = write_stream(tmp_path, "y.dstream", "dstream 1 2 3 likes\n\n\n\n")
        rc = main(["probe", "--input", path, "--neighbor", neighbor, "--mechanism", mechanism,
                   "--eps", "5", "--samples", "20", f"--delta={delta}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "parameter error: delta must be in [0, 1)" in captured.err
        assert captured.out == ""

    def test_shorter_neighbor_is_accepted(self, tmp_path, capsys):
        path = write_stream(tmp_path, text="dstream 1 2 8 likes\n" + "1:+1\n1:-1\n" * 4)
        neighbor = write_stream(tmp_path, "y.dstream", "dstream 1 2 8 likes\n1:+1\n")
        rc = main(["probe", "--input", path, "--neighbor", neighbor, "--mechanism",
                   "laplace-T", "--samples", "10"])
        assert rc == 0
        assert "status=" in capsys.readouterr().out


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

    @pytest.mark.parametrize("noise, draws", [("live", 3), ("zero", 0)])
    def test_gaussian_draws_are_reported(self, tmp_path, capsys, noise, draws):
        path = write_stream(tmp_path, text="dstream 1 4 3 likes\n1:+1\n2:+1\n1:-1\n")
        rc = main(["bench", "--input", path, "--mechanism", "gaussian-T", "--eps", "0.5",
                   "--delta", "0.01", "--noise", noise])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == ["laplace_draws=0", "laplace_calls=0",
                              f"gaussian_draws={draws}", "gaussian_calls=3"]


class TestNoTraceback:
    """Inputs that raised an exception out of ``main``; each now ends with
    exit 1 (``parameter error:``) or 2 (``input error:``)."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mechanism", "unknown-k-all", "--beta", "0"],
            ["--mechanism", "unknown-k-all", "--beta", "-1"],
            ["--mechanism", "known-k", "--K", "5", "--eps", "1e308"],
            ["--mechanism", "known-k", "--K", "5", "--eps", "5e-324"],
            ["--mechanism", "unknown-k", "--eps", "5e-324"],
            ["--mechanism", "unknown-k-all", "--eps", "5e-324"],
            ["--mechanism", "known-k", "--K", "5", "--delta", "1e-320", "--eps", "0.5"],
            ["--mechanism", "unknown-k", "--delta", "1e-320", "--eps", "0.5"],
            ["--mechanism", "unknown-k-all", "--delta", "1e-320", "--eps", "0.5"],
            ["--mechanism", "laplace-T", "--eps", "5e-324"],
            ["--mechanism", "gaussian-T", "--delta", "1e-320", "--eps", "0.5"],
            ["--mechanism", "continual-likes", "--eps", "5e-324"],
        ],
        ids=lambda flags: " ".join(flags[1:]),
    )
    def test_run_parameter_error(self, tmp_path, capsys, flags):
        path = write_stream(tmp_path)
        rc = main(["run", "--input", path, *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("parameter error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "trials", "bench", "probe"])
    @pytest.mark.parametrize("mechanism", ["zero", "continual-likes"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps", "nan", "--delta", "nan"], "epsilon must be positive and finite, got nan"),
            (["--eps", "-1"], "epsilon must be positive and finite, got -1.0"),
            (["--eps", "inf"], "epsilon must be positive and finite, got inf"),
            (["--eps", "0.5", "--delta", "2"], "delta must be in [0, 1), got 2.0"),
            (["--eps", "0.5", "--delta=-0.5"], "delta must be in [0, 1), got -0.5"),
        ],
        ids=["eps nan delta nan", "eps -1", "eps inf", "delta 2", "delta -0.5"],
    )
    def test_flags_a_mechanism_ignores_are_checked(
        self, tmp_path, capsys, command, mechanism, flags, message
    ):
        argv = [command, "--input", write_stream(tmp_path), "--mechanism", mechanism, *flags]
        if command == "probe":
            neighbor = write_stream(tmp_path, "y.dstream", "dstream 1 4 4 likes\n\n\n\n\n")
            argv += ["--neighbor", neighbor, "--samples", "2"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.err, captured.out) == (1, f"parameter error: {message}\n", "")

    def test_unknown_k_all_on_an_empty_stream_needs_T(self, tmp_path, capsys):
        path = write_stream(tmp_path, text="dstream 1 4 0 likes\n")
        rc = main(["run", "--input", path, "--mechanism", "unknown-k-all"])
        assert rc == 1
        assert capsys.readouterr().err == "parameter error: T must be >= 1, got 0\n"

    @pytest.mark.parametrize("mechanism", ["unknown-k", "unknown-k-all"])
    def test_beta_is_checked_on_a_stream_with_no_steps(self, tmp_path, capsys, mechanism):
        path = write_stream(tmp_path, text="dstream 1 4 4 likes\n")
        rc = main(["run", "--input", path, "--mechanism", mechanism, "--beta", "5"])
        assert rc == 1
        assert capsys.readouterr().err == "parameter error: beta must be in (0, 1), got 5.0\n"

    @pytest.mark.parametrize("T", [1, 2])
    def test_unknown_k_all_names_its_beta_limit(self, tmp_path, capsys, T):
        # beta_1 = 12 beta / pi^2 is past 1; at T = 1 the pure-DP error branch
        # of instance 1 would take the root of ln(T / beta_1) < 0
        text = f"dstream 1 1 {T} likes\n1:+1\n" + "\n" * (T - 1)
        path = write_stream(tmp_path, text=text)
        rc = main(["run", "--input", path, "--mechanism", "unknown-k-all", "--beta", "0.9"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("parameter error: unknown-k-all requires beta < pi^2/12")
        assert "beta_1 = 12*beta/pi^2 = 1.09" in err

    def test_unknown_k_all_with_a_tiny_approximate_dp_epsilon_runs(self, tmp_path):
        path = write_stream(tmp_path)
        rc = main(["run", "--input", path, "--mechanism", "unknown-k-all",
                   "--eps", "1e-200", "--delta", "0.1", "-o", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_bounds_with_a_tiny_approximate_dp_epsilon(self, capsys):
        rc = main(["bounds", "--eps", "5e-324", "--delta", "0.1", "--beta", "0.1",
                   "--T", "4", "--K", "2", "--d", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "branch_flippancy=inf\n" in out and "min=2\n" in out

    @pytest.mark.parametrize("family, flag", [("blocks", "--J"), ("multiupdate", "--I")])
    def test_non_integer_list_is_parameter_error(self, tmp_path, capsys, family, flag):
        rc = main(["generate", family, "--m", "2", flag, "1,x", "--Tprime", "8",
                   "-o", str(tmp_path / "g.dstream")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"parameter error: {flag} must be comma-separated integers, got '1,x'\n"
        )

    @pytest.mark.parametrize("bad", ["directory", "latin-1"])
    @pytest.mark.parametrize("where", ["input", "neighbor", "marginals"])
    def test_unreadable_file_is_input_error(self, tmp_path, capsys, where, bad):
        good = write_stream(tmp_path)
        if bad == "directory":
            path = str(tmp_path)
        else:
            path = str(tmp_path / "latin1")
            (tmp_path / "latin1").write_bytes(b"dstream 1 4 4 likes\n\xe9:+1\n")
        argv = {
            "input": ["run", "--input", path, "--mechanism", "zero"],
            "neighbor": ["probe", "--input", good, "--neighbor", path,
                         "--mechanism", "zero", "--samples", "2"],
            "marginals": ["generate", "marginals", "--file", path,
                          "-o", str(tmp_path / "g.dstream")],
        }[where]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("input error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "neighbor_text", ["dstream 1 4 0 likes\n", None], ids=["both", "neighbor"]
    )
    def test_probe_of_an_empty_stream_is_input_error(self, tmp_path, capsys, neighbor_text):
        path = write_stream(tmp_path, text="dstream 1 4 0 likes\n")
        neighbor = write_stream(tmp_path, "y.dstream", neighbor_text)
        rc = main(["probe", "--input", neighbor, "--neighbor", path,
                   "--mechanism", "laplace-T", "--samples", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "input error: probe needs at least one step in the input and the neighbor\n"
        )

    @pytest.mark.parametrize("command", ["trials", "probe"])
    def test_negative_seed_is_parameter_error(self, tmp_path, capsys, command):
        path = write_stream(tmp_path)
        argv = {
            "trials": ["trials", "--trials", "2"],
            "probe": ["probe", "--neighbor", path, "--samples", "2"],
        }[command]
        rc = main([*argv, "--input", path, "--mechanism", "laplace-T", "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "parameter error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_seed_past_64_bits_is_not_aliased(self, tmp_path, capsys):
        path = write_stream(tmp_path)
        outs = []
        for seed in ("0", str(2**64)):
            assert main(["trials", "--input", path, "--mechanism", "laplace-T",
                         "--trials", "3", "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--mechanism", "known-k", "--K", BIG], "--K"),
            (["run", "--mechanism", "laplace-T", "--T", BIG], "--T"),
            (["run", "--mechanism", "unknown-k-all", "--T", BIG], "--T"),
            (["bounds", "--eps", "1", "--beta", "0.1", "--T", "4", "--K", "2", "--d", BIG], "--d"),
            (["bounds", "--eps", "1", "--beta", "0.1", "--T", "4", "--K", BIG, "--d", "3"], "--K"),
            (["bounds", "--eps", "1", "--beta", "0.1", "--T", BIG, "--K", "2", "--d", "3"], "--T"),
            (["generate", "random", "--d", BIG, "--T", "3"], "--d"),
        ],
        ids=["run known-k --K", "run laplace-T --T", "run unknown-k-all --T",
             "bounds --d", "bounds --K", "bounds --T", "generate random --d"],
    )
    def test_integer_past_the_float_range_is_rejected(self, tmp_path, capsys, argv, flag):
        if argv[0] == "run":
            argv = [*argv, "--input", write_stream(tmp_path)]
        elif argv[0] == "generate":
            argv = [*argv, "-o", str(tmp_path / "g.dstream")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"error: argument {flag}: integer outside [-2^63, 2^63)\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["multiupdate", "--m", "1", "--I", "1", "--Tprime", str(2**62)],
             f"{2**62} steps and 1 updates do not fit in arrays of 2^60 entries"),
            (["multiupdate", "--m", str(2**62), "--I", "1", "--Tprime", "1"],
             f"1 steps and {2**62} updates do not fit in arrays of 2^60 entries"),
            (["blocks", "--m", "1", "--J", "1", "--Tprime", str(2**62)],
             f"{2**62} steps and 1 updates do not fit in arrays of 2^60 entries"),
            (["random", "--d", "3", "--T", str(2**62), "--singleton"],
             f"{2**62} steps and 0 updates do not fit in arrays of 2^60 entries"),
            (["random", "--d", "1", "--T", str(2**62), "--model", "general"],
             f"{2**62} steps and 1 updates do not fit in arrays of 2^60 entries"),
            (["random", "--d", "3", "--T", str(2**62)],
             f"{2**62} steps and 0 updates do not fit in arrays of 2^60 entries"),
            (["random", "--d", str(2**62), "--T", "3"],
             f"d*T={3 * 2**62} slots must be below 2^63"),
            (["random", "--d", str(2**32), "--T", str(2**31)],
             f"d*T={2**63} slots must be below 2^63"),
            (["blocks", "--d", "0", "--m", "2", "--J", "1", "--Tprime", "4"],
             "need d >= m >= 1, got d=0, m=2"),
            (["multiupdate", "--d", "0", "--m", "2", "--I", "1", "--Tprime", "4"],
             "need d >= m >= 1, got d=0, m=2"),
            (["random", "--d", "3", "--T", "-1"], "length bound T must be >= 0, got -1"),
            (["random", "--d", "0", "--T", "3"], "dimension d must be >= 1, got 0"),
        ],
        ids=["multiupdate T'", "multiupdate m", "blocks T'", "random singleton T",
             "random general T", "random T", "random d*T", "random d*T = 2^63",
             "blocks --d 0", "multiupdate --d 0", "random --T -1", "random --d 0"],
    )
    def test_generate_size_is_parameter_error(self, tmp_path, capsys, argv, message):
        rc = main(["generate", *argv, "-o", str(tmp_path / "g.dstream")])
        assert rc == 1
        assert capsys.readouterr().err == f"parameter error: {message}\n"

    @pytest.mark.parametrize(
        "generator, argv",
        [
            ("random_stream", ["random", "--d", str(2**40), "--T", "2", "--model", "general"]),
            ("multiupdate_stream", ["multiupdate", "--m", "1", "--I", "1", "--Tprime", str(2**40)]),
        ],
    )
    def test_generate_out_of_memory_is_parameter_error(
        self, tmp_path, capsys, monkeypatch, generator, argv
    ):
        # the generator is replaced, so nothing of that size is allocated
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(generators, generator, out_of_memory)
        rc = main(["generate", *argv, "-o", str(tmp_path / "g.dstream")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "parameter error: the requested stream does not fit in memory\n"
        )
        assert not (tmp_path / "g.dstream").exists()

    def test_generate_writer_out_of_memory_is_parameter_error(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(stream, path):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(streammod, "write_file", out_of_memory)
        argv = ["generate", "blocks", "--m", "2", "--J", "1", "--Tprime", "4"]
        rc = main([*argv, "-o", str(tmp_path / "g.dstream")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "parameter error: the requested stream does not fit in memory\n"
        assert "Traceback" not in err

    def test_generate_refuses_an_id_the_reader_cannot_read(self, tmp_path, capsys):
        # d = 2^63 - 1 lets the generator draw a 19-digit id, and a .dstream
        # token holds at most 18 digits
        out = tmp_path / "x.dstream"
        rc = main(["generate", "random", "--d", str(2**63 - 1), "--T", "1",
                   "--model", "general", "--K", "1", "--seed", "1", "-o", str(out)])
        assert (rc, capsys.readouterr().err) == (
            1, "parameter error: item id 4720721261117928063 is past the 18-digit .dstream limit\n"
        )
        assert not out.exists()

    def test_names_the_benchmark_tracer_wraps_stay_importable(self):
        # perfbench/traced.py wraps these module attributes by name
        for module, name in ((cli, "distinct_counts"), (cli, "total_flippancy"),
                             (cli, "RandomSource"), (harness, "evaluate"),
                             (harness, "distinct_counts")):
            assert callable(getattr(module, name))

    @pytest.mark.parametrize("d", [2**40, 2**62])
    def test_header_d_far_past_the_stream_runs(self, tmp_path, capsys, d):
        path = write_stream(tmp_path, text=f"dstream 1 {d} 2 likes\n1:+1\n")
        rc = main(["run", "--input", path, "--mechanism", "zero"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("t,output,truth,abs_error\n1,0,1,1\n")

    def test_header_d_past_int64_is_parameter_error(self, tmp_path, capsys):
        path = write_stream(tmp_path, text=f"dstream 1 {10**30} 4 likes\n1:+1\n")
        rc = main(["run", "--input", path, "--mechanism", "zero"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "parameter error: dimension d and length bound T must be below 2^63\n"
        )


def run_child(*argv, **env):
    """Run the interpreter on argv with the package on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


class TestChildProcess:
    def test_importing_cli_leaves_generators_unimported(self):
        code = "import sys, dpdistinct.cli; print('dpdistinct.generators' in sys.modules)"
        child = run_child("-c", code)
        assert (child.returncode, child.stdout, child.stderr) == (0, "False\n", "")

    def test_stream_is_decoded_as_utf8_whatever_the_locale(self, tmp_path, capsys):
        # U+2028 is a line break for str.splitlines; the file holds its UTF-8 bytes
        path = tmp_path / "s.dstream"
        path.write_bytes("dstream 1 4 4 likes\n1:+1\u20282:+1\n".encode("utf-8"))
        child = run_child("-m", "dpdistinct.cli", "run", "--input", str(path),
                          "--mechanism", "zero",
                          PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        assert (child.returncode, child.stderr) == (0, "")
        lf = write_stream(tmp_path, "lf.dstream", "dstream 1 4 4 likes\n1:+1\n2:+1\n")
        assert main(["run", "--input", lf, "--mechanism", "zero"]) == 0
        assert child.stdout == capsys.readouterr().out
