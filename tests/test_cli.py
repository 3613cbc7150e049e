import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from storalloc import cli, evaluate
from storalloc.cli import main
from storalloc.core import ProblemInstance
from storalloc.evaluate import sample_tail_empirical
from storalloc.formats import load_instance, parse_weights, save_instance

from conftest import child_env, dfs_objective


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

    def test_saved_instance_bytes(self, tmp_path):
        # fields in the format's order; a Fraction as its "a/b" string, other numbers as given
        path = tmp_path / "saved.json"
        save_instance(path, [F(1, 3), 0.5], F(1, 2), 0.25, "1/20")
        expected = '{\n  "probs": [\n    "1/3",\n    0.5\n  ],\n  "theta": "1/2",\n  "epsilon": 0.25,\n  "delta": "1/20"\n}\n'
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("probs", ["[]", "0.5", '"1/2"', "{}"])
    def test_probs_must_be_a_non_empty_list(self, tmp_path, probs):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"probs": {probs}, "theta": 0.5, "epsilon": 0.25, "delta": 0.05}}', encoding="utf-8")
        from storalloc.errors import InputError

        with pytest.raises(InputError, match="probs must be a non-empty list"):
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

    def test_log_level_debug_reports_kernel_on_stderr(self, inst_file, capsys, monkeypatch):
        args = ["eval", inst_file, "--weights", "1/2,1/4,1/4", "--mc", "100"]
        assert run_cli(args) == 0
        quiet = capsys.readouterr()
        assert run_cli(["--log-level", "DEBUG", *args]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        assert quiet.err == ""
        assert "mc_hit_counts: m=100, " in loud.err and " hits, int16 dtype" in loud.err
        assert "mc_hit_counts: m=100, pcg64 stream, " in loud.err  # eval --mc keeps PCG64
        assert run_cli(["--log-level", "DEBUG", "solve", inst_file, "--mode", "practical", "--l-cap", "2"]) == 0
        solved = capsys.readouterr()
        assert "mc_hit_counts: m=60, splitmix64 stream, " in solved.err
        assert run_cli(["--log-level", "DEBUG", "eval", inst_file, "--weights", "1/2,1/4,1/4"]) == 0
        exact = capsys.readouterr()
        assert "exact_objective_probs: n=3 active, 2 groups, half laws of" in exact.err
        # No solve samples a tail (Case 3 is decided in closed form, see
        # driver.case3_verdict; its sampler is test code), so
        # a stand-in command samples a tail under the CLI's log handler.
        inst = ProblemInstance((F(15, 32), F(5, 16)), F(1, 2), F(1, 4), F(1, 20), (0, 1))

        def sample_tail(_args):
            sample_tail_empirical(inst, [F(1, 2)], 100, seed=3)
            return 0

        monkeypatch.setattr(cli, "_cmd_eval", sample_tail)
        assert run_cli(["--log-level", "DEBUG", *args]) == 0
        tail = capsys.readouterr()
        assert "sample_tail_empirical: m=100, 2 distinct values, int16 dtype" in tail.err

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
        "probs, epsilon",
        [([0.05], 0.9), ([0.001], 0.8), ([0, 0], 0.9)],
    )
    def test_every_p_below_one_grid_unit_trips_shortcut(self, tmp_path, probs, epsilon):
        # eps/(4n) >= 1 - eps: rounding would lift p_1 past 1 - eps (A2)
        inst = tmp_path / "coarse.json"
        save_instance(inst, probs, 0.5, epsilon, 0.05)
        out = tmp_path / "rep.json"
        assert run_cli(["solve", inst, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["provenance"] == "trivial"
        assert data["reason"] == "below_grid_shortcut"
        assert data["chosen_weights"] == ["1"] + ["0"] * (len(probs) - 1)

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
            ("solve", "--exact-eval-max-n"),
            ("eval", "--exact-eval-max-n"),
            ("bench", "--exact-eval-max-n"),
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
        # n=20 at p=0.72: 18 tail slots hold enough p^2 that Case 2 runs its
        # tail DP at kappa 1/400, whose bound is (400^3 + 800 + 3)/3 states
        inst = tmp_path / "wide.json"
        save_instance(inst, [0.72] * 20, 0.5, 0.25, 0.05)
        code = run_cli(
            ["solve", inst, "--mode", "practical", "--kappa", "1/400", "--l-cap", "2"]
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("guard: ")
        guard = json.loads(lines[1])
        assert guard["guard"] == lines[0][len("guard: "):]
        assert isinstance(guard["estimate"], int) and isinstance(guard["limit"], int)
        assert guard["estimate"] == 21_333_601 > guard["limit"] == 5_000_000

    def test_extreme_delta_and_epsilon_solve_or_refuse(self, tmp_path, capsys):
        # delta = 10^-400 and eps = 10^-200 leave float range; the first
        # solves with 16 ln(2 10^400) draws, the second asks for about
        # 10^400 ln 20 = 3.0 10^400 at pool size 1, and the draw guard
        # refuses 8 bytes for each before any case runs
        args = ["--mode", "practical", "--kappa", "1/8", "--l-cap", "2"]
        probs = ["3/5", "11/20", "1/2", "9/20"]
        inst = tmp_path / "delta.json"
        save_instance(inst, probs, "1/2", "1/4", f"1/{10**400}")
        assert run_cli(["solve", inst, "--out", tmp_path / "r.json", *args]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["estimate_m"] == 14_748
        save_instance(inst, probs, "1/2", f"1/{10**200}", "1/20")
        assert run_cli(["solve", inst, *args]) == 3
        guard = json.loads(capsys.readouterr().err.splitlines()[1])
        assert guard["limit"] == evaluate.PACKED_LIMIT and guard["estimate"] // 10**397 == 23_965

    def test_eval_mc_past_the_packed_limit_is_a_guard(self, inst_file, capsys, monkeypatch):
        monkeypatch.setattr(evaluate, "PACKED_LIMIT", 8 * 2_000)
        assert run_cli(["eval", inst_file, "--weights", "1/3,1/3,1/3", "--mc", "2001"]) == 3
        guard = json.loads(capsys.readouterr().err.splitlines()[1])
        assert (guard["estimate"], guard["limit"]) == (8 * 2_001, 8 * 2_000)

    def test_eval_exact_on_forty_grid_weights_and_its_refusal(self, tmp_path, capsys, monkeypatch):
        # 40 distinct weights i/1000: every sum is a multiple of 1/1000, so
        # the whole law holds 821 values; a limit of 256 refuses a half law
        probs = [F(1, 2) + F(i, 200) for i in range(1, 41)]
        weights = [F(i, 1000) for i in range(1, 41)]
        inst = tmp_path / "forty.json"
        save_instance(inst, probs, "2/5", "1/4", "1/20")
        args = ["eval", inst, "--weights", ",".join(f"{i}/1000" for i in range(1, 41))]
        assert run_cli(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert F(out["exact_objective"]) == dfs_objective(probs, weights, F(2, 5))
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 256)
        assert run_cli(args) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "guard: exact law support exceeds 256"
        assert json.loads(lines[1]) == {"guard": lines[0][len("guard: "):], "estimate": 269, "limit": 256}

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


# sha256 of `storalloc baseline` output, written before the uniform split
# became one pass over the survivor count's law
PINNED_BASELINE = {
    4: (268, "de9c952c7d6ada2a34b637441efe021aef1a475634ef3c72e774189c947be226"),
    60: (11220, "2b008755ff6851009d266f9e1679a134bf2505e99650fc0720467b6d0808b2fd"),
}


@pytest.mark.parametrize("n", sorted(PINNED_BASELINE))
def test_baseline_output_pinned(tmp_path, n):
    rng = random.Random("baseline-60")
    probs = [0.62, 0.45, 0.31, 0.58] if n == 4 else [round(rng.uniform(0.2, 0.85), 3) for _ in range(60)]
    theta, epsilon = (0.5, 0.25) if n == 4 else (0.55, 0.1)
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    save_instance(inst, probs, theta, epsilon, 0.05)
    assert run_cli(["baseline", inst, "--out", out]) == 0
    data = out.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_BASELINE[n]


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


def test_files_are_utf8_under_encoding_warnings(tmp_path):
    # instance and report files are JSON, so UTF-8 whatever the locale:
    # with default-encoding warnings raised as errors, a file opened
    # without an encoding makes the command exit 1
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "storalloc.cli"]
    inst, report = tmp_path / "gen.json", tmp_path / "report.json"
    for args in (
        ["gen", "--n", "4", "--seed", "1", "--out", inst],
        ["solve", inst, "--mode", "practical", "--kappa", "1/8", "--l-cap", "2", "--out", report],
        ["eval", inst, "--weights", "1/2,1/2,0,0"],
    ):
        proc = subprocess.run([*strict, *map(str, args)], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text(encoding="utf-8"))["n"] == 4
    assert 0 < float(json.loads(proc.stdout)["exact_objective_float"]) <= 1


class TestColdOracle:
    def test_n5_grid_oracle_in_a_fresh_interpreter(self, tmp_path):
        # Every set margin and the k = 5 family are built cold here; the
        # scan visits 1236 of the 3287 upward-closed sets.
        path = tmp_path / "n5.json"
        path.write_text(
            '{"probs": ["53/80", "53/80", "9/16", "9/16", "7/16"],'
            ' "theta": "3/5", "epsilon": "1/4", "delta": "1/20"}'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "storalloc.cli", "oracle", str(path), "--allow-grid-n5"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["opt_value"] == "35351/51200"
        assert out["witness"] == ["3/10", "3/10", "3/10", "0", "0"]
        assert out["sets_examined"] == 1236
