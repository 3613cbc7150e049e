import json
import subprocess
import sys

import pytest

from storalloc.cli import main
from storalloc.formats import load_instance, parse_weights, save_instance

from conftest import child_env


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(path, [0.62, 0.45, 0.31], 0.5, 0.25, 0.05)
    return path


def run_cli(args):
    return main([str(a) for a in args])


class TestFormats:
    def test_rational_strings_preserved(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(
            '{"probs": ["61/100", 0.45], "theta": "1/2", "epsilon": 0.25, "delta": 0.05}'
        )
        probs, theta, eps, delta = load_instance(path)
        from fractions import Fraction as F

        assert probs[0] == F(61, 100)
        assert theta == F(1, 2)

    def test_float_denominator_snap(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"probs": [0.123456], "theta": 0.5, "epsilon": 0.25, "delta": 0.05}')
        probs, *_ = load_instance(path)
        assert probs[0].denominator <= 10**6

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"probs": [0.5]}')
        from storalloc.errors import InputError

        with pytest.raises(InputError):
            load_instance(path)

    def test_parse_weights(self):
        from fractions import Fraction as F

        w = parse_weights("1/4, 0.25, 1/2", 3)
        assert w == [F(1, 4), F(1, 4), F(1, 2)]
        from storalloc.errors import InputError

        with pytest.raises(InputError):
            parse_weights("1/4", 2)
        with pytest.raises(InputError):
            parse_weights("3/4, 3/4", 2)


class TestCommands:
    def test_solve_writes_report(self, inst_file, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", inst_file, "--mode", "practical", "--kappa", "1/8",
             "--l-cap", "2", "--seed", "5", "--out", out]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["format"] == "storalloc-report-v1"
        assert data["pool_size"] >= 1

    def test_eval_exact_and_mc(self, inst_file, tmp_path, capsys):
        assert run_cli(["eval", inst_file, "--weights", "1/2,1/4,1/4"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert "exact_objective" in exact
        assert run_cli(["eval", inst_file, "--weights", "1/2,1/4,1/4", "--mc", "5000", "--seed", "3"]) == 0
        mc = json.loads(capsys.readouterr().out)
        assert abs(mc["mc_estimate_float"] - exact["exact_objective_float"]) < 0.05

    def test_log_level_debug_reports_kernel_on_stderr(self, inst_file, capsys):
        args = ["eval", inst_file, "--weights", "1/2,1/4,1/4", "--mc", "100"]
        assert run_cli(args) == 0
        quiet = capsys.readouterr()
        assert run_cli(["--log-level", "DEBUG", *args]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        assert quiet.err == ""
        assert "mc_hit_counts: m=100," in loud.err and "on object dtype" in loud.err

    def test_eval_mc_zero_is_input_error(self, inst_file, capsys):
        code = run_cli(["eval", inst_file, "--weights", "1/2,1/4,1/4", "--mc", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "m must be >= 1" in captured.err

    @pytest.mark.parametrize("mc", [None, "1000"])
    def test_eval_rejects_probs_outside_unit_interval(self, tmp_path, capsys, mc):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"probs": [1.5, 0.5, -0.2], "theta": 0.5, "epsilon": 0.25, "delta": 0.05}'
        )
        args = ["eval", path, "--weights", "1/2,1/4,1/4"]
        if mc is not None:
            args += ["--mc", mc]
        assert run_cli(args) == 2
        assert "[0,1]" in capsys.readouterr().err

    def test_oracle_and_baseline(self, inst_file, capsys):
        assert run_cli(["oracle", inst_file]) == 0
        orc = json.loads(capsys.readouterr().out)
        assert run_cli(["baseline", inst_file]) == 0
        base = json.loads(capsys.readouterr().out)
        assert orc["opt_value_float"] >= base["value_float"]

    def test_counterexample_passes(self, capsys):
        assert run_cli(["counterexample"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True

    def test_bench_table(self, inst_file, tmp_path):
        out = tmp_path / "bench.tsv"
        code = run_cli(
            ["bench", inst_file, "--tsv", "--mode", "practical", "--kappa", "1/8",
             "--l-cap", "2", "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("instance\tn\t")
        row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert float(row["gap_solver"]) >= 0
        assert float(row["gap_baseline"]) >= 0

    def test_bench_oracle_empty_for_large_n(self, tmp_path):
        big = tmp_path / "big.json"
        save_instance(big, [0.5, 0.55, 0.6, 0.45, 0.4, 0.35], 0.5, 0.25, 0.05)
        out = tmp_path / "bench.tsv"
        code = run_cli(
            ["bench", big, "--tsv", "--mode", "practical", "--kappa", "1/8",
             "--l-cap", "2", "--out", out]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert row["oracle_value"] == "" and row["gap_solver"] == ""

    def test_gen_roundtrip(self, tmp_path):
        out = tmp_path / "gen.json"
        assert run_cli(["gen", "--n", "4", "--seed", "1", "--out", out]) == 0
        first = out.read_text()
        assert run_cli(["gen", "--n", "4", "--seed", "1", "--out", out]) == 0
        assert out.read_text() == first  # deterministic given seed
        probs, theta, eps, delta = load_instance(out)
        assert len(probs) == 4

    def test_gen_rejects_bad_n(self, tmp_path, capsys):
        assert run_cli(["gen", "--n", "0", "--out", tmp_path / "x.json"]) == 2

    def test_gen_high_range_trips_shortcut(self, tmp_path):
        # p ~ [0.99, 1.0] with eps=0.05: preprocessing short-circuits
        inst = tmp_path / "hot.json"
        assert run_cli(
            ["gen", "--n", "3", "--lo", "0.99", "--hi", "1.0",
             "--epsilon", "0.05", "--seed", "2", "--out", inst]
        ) == 0
        out = tmp_path / "rep.json"
        assert run_cli(["solve", inst, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["provenance"] == "trivial"
        assert data["reason"] == "high_prob_shortcut"
        assert data["pool_size"] == 1

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("baseline", "--seed"),
            ("oracle", "--mode"),
            ("oracle", "--threads"),
            ("eval", "--kappa"),
            ("solve", "--threads"),
            ("eval", "--threads"),
            ("bench", "--threads"),
        ],
    )
    def test_unread_solver_flags_rejected(self, inst_file, command, flag):
        args = [command, inst_file, flag, "1"]
        if command == "eval":
            args += ["--weights", "1/2,1/4,1/4"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2

    def test_exit_code_invalid_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run_cli(["solve", missing]) == 2

    def test_exit_code_guard(self, tmp_path, capsys):
        # n=20 at p=0.72: 16 tail slots hold enough p^2 that Case 2 runs its
        # tail DP at kappa 1/16, whose estimate is 22378018 cells
        inst = tmp_path / "wide.json"
        save_instance(inst, [0.72] * 20, 0.5, 0.25, 0.05)
        code = run_cli(
            ["solve", inst, "--mode", "practical", "--kappa", "1/16", "--l-cap", "2"]
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("guard: ")
        guard = json.loads(lines[1])
        assert guard["guard"] == lines[0][len("guard: "):]
        assert isinstance(guard["estimate"], int) and isinstance(guard["limit"], int)
        assert guard["estimate"] == 22_378_018 > guard["limit"] == 5_000_000

    @pytest.mark.parametrize("mode_args", [["--mode", "theory"], ["--mode", "practical", "--kappa", "1/8"]])
    def test_exit_code_head_cutoff_guard(self, tmp_path, capsys, mode_args):
        # n=6 without --l-cap: L = 6 exceeds the largest enumerable head
        inst = tmp_path / "six.json"
        save_instance(inst, [0.62, 0.45, 0.31, 0.58, 0.5, 0.4], 0.5, 0.25, 0.05)
        assert run_cli(["solve", inst, *mode_args]) == 3
        guard = json.loads(capsys.readouterr().err.splitlines()[1])
        assert (guard["estimate"], guard["limit"]) == (6, 5)

    def test_l_cap_above_enumeration_limit_is_input_error(self, inst_file, capsys):
        code = run_cli(
            ["solve", inst_file, "--mode", "practical", "--kappa", "1/8", "--l-cap", "6"]
        )
        assert code == 2
        assert "--l-cap" in capsys.readouterr().err


class TestDeterminismBytes:
    def test_reports_byte_identical_across_runs_and_interpreters(self, inst_file, tmp_path):
        # run 1 in this process, runs 2 and 3 in fresh interpreters whose
        # string hashing differs
        args = ["solve", str(inst_file), "--mode", "practical", "--kappa", "1/8",
                "--l-cap", "2", "--seed", "42", "--out"]
        assert run_cli(args + [tmp_path / "rep0.json"]) == 0
        for run, hash_seed in ((1, "1"), (2, "2")):
            proc = subprocess.run(
                [sys.executable, "-m", "storalloc.cli", *args, str(tmp_path / f"rep{run}.json")],
                capture_output=True,
                text=True,
                env=child_env(PYTHONHASHSEED=hash_seed),
            )
            assert proc.returncode == 0, proc.stderr
        blobs = [(tmp_path / f"rep{run}.json").read_bytes() for run in range(3)]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_entry_point_subprocess(self, inst_file):
        # the installed console script behaves like main(); the child
        # imports the same package as this process
        proc = subprocess.run(
            [sys.executable, "-m", "storalloc.cli", "baseline", str(inst_file)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["best_k"] >= 1
