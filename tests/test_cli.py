"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestConstants:
    def test_prints_all_constants(self, capsys):
        assert main(["constants", "--n", "7", "--f", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("d", "phi", "delta_agr", "delta_stb"):
            assert name in out

    def test_default_f_is_max(self, capsys):
        assert main(["constants", "--n", "10"]) == 0
        assert "f            = 3" in capsys.readouterr().out


class TestRun:
    def test_happy_path_exit_zero(self, capsys):
        assert main(["run", "--n", "4", "--seed", "1", "--value", "go"]) == 0
        out = capsys.readouterr().out
        assert "'go'" in out
        assert "validity:  True" in out

    def test_equivocate_attack_reports_agreement(self, capsys):
        assert main(["run", "--n", "7", "--seed", "2", "--attack", "equivocate"]) == 0
        assert "agreement: True" in capsys.readouterr().out

    def test_crash_attack_no_decisions(self, capsys):
        assert main(["run", "--n", "7", "--seed", "3", "--attack", "crash"]) == 0
        assert "no correct node returned anything" in capsys.readouterr().out

    def test_staggered_attack(self, capsys):
        assert main(["run", "--n", "7", "--seed", "4", "--attack", "staggered"]) == 0
        assert "agreement: True" in capsys.readouterr().out

    @pytest.mark.parametrize("attack", [[], ["--attack", "crash"]], ids=["none", "crash"])
    def test_general_out_of_range_exits_2(self, attack, capsys):
        assert main(["run", "--n", "4", "--general", "9", *attack]) == 2
        captured = capsys.readouterr()
        assert "run: --general 9 out of range for n=4" in captured.err
        assert "agreement" not in captured.out


class TestRunAsync:
    def test_reaches_agreement_with_byzantine_mirror(self, capsys):
        assert main(["run-async", "--n", "4", "--f", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "byzantine node 3: mirror" in out
        assert "agreement: True" in out
        assert "decided:   3/3 nodes" in out

    def test_correct_only_cast(self, capsys):
        assert main(
            ["run-async", "--n", "4", "--f", "1", "--attack", "none",
             "--time-scale", "0.01"]
        ) == 0
        out = capsys.readouterr().out
        assert "agreement: True" in out
        assert "decided:   4/4 nodes" in out


class TestRunSocket:
    def test_reaches_agreement_with_byzantine_mirror(self, capsys):
        """One full CLI run over real UDP: agreement, drained timers,
        every child exited 0 (the no-orphans gate)."""
        assert main(["run-socket", "--n", "4", "--f", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "byzantine node 3: mirror" in out
        assert "live timers: all drained" in out
        assert "children:    all exited 0" in out
        assert "agreement: True" in out
        assert "decided:   3/3 nodes" in out

    def test_general_out_of_range_exits_2(self, capsys):
        assert main(["run-socket", "--n", "4", "--f", "1", "--general", "9"]) == 2


class TestServe:
    def test_prints_the_client_and_server_view(self, capsys):
        """One short asyncio service run: offered vs achieved rate, the
        latency percentiles and the identical-logs verdict."""
        assert main(
            ["serve", "--n", "4", "--f", "1", "--commands", "300",
             "--rate", "1000", "--time-scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "offered:       1000 commands/s (poisson), 300 total" in out
        assert "agreement instances/s" in out
        assert "decide latency (arrival -> decided): p50" in out
        assert "OK: identical logs at every correct replica: True; applied 300/300" in out


class TestStabilize:
    def test_recovers(self, capsys):
        assert main(["stabilize", "--n", "7", "--seed", "5", "--garbage", "150"]) == 0
        out = capsys.readouterr().out
        assert "post-stabilization validity: True" in out


class TestSeedFanout:
    def test_run_multiple_seeds_summary(self, capsys):
        assert main(["run", "--n", "4", "--seeds", "0", "1", "2"]) == 0
        out = capsys.readouterr().out
        for seed in (0, 1, 2):
            assert f"seed {seed}: agreement=True" in out
        assert "3 seeds: all ok" in out

    def test_run_seeds_with_workers(self, capsys):
        assert main(["run", "--n", "4", "--seeds", "0", "1", "--workers", "2"]) == 0
        assert "2 seeds: all ok" in capsys.readouterr().out

    def test_run_seed_lines_identical_at_any_worker_count(self, capsys):
        command = ["run", "--n", "4", "--seeds", "0", "1", "2"]
        assert main(command) == 0
        serial = capsys.readouterr().out.splitlines()
        assert main([*command, "--workers", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == serial
        assert len(serial) == 4 and serial[0].startswith("seed 0: agreement=True")

    def test_stabilize_multiple_seeds(self, capsys):
        assert main(
            ["stabilize", "--n", "4", "--garbage", "60", "--seeds", "0", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed 0: proposal_unblocked=True post_stb_validity=True" in out
        assert "2 seeds: all recovered" in out


class TestSuite:
    def test_smoke_preset(self, capsys):
        assert main(["suite", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Scenario matrix: smoke" in out
        assert "partition_heal" in out
        assert "cells with agreement on every seed" in out

    def test_smoke_preset_with_workers_and_seeds(self, capsys):
        assert main(
            ["suite", "--preset", "smoke", "--workers", "2", "--seeds", "0", "3"]
        ) == 0
        assert "partition_heal" in capsys.readouterr().out

    def test_csv_output(self, capsys):
        assert main(["suite", "--preset", "smoke", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("n,f,backend,cast,policy,timeline")

    def test_config_file(self, capsys, tmp_path):
        import json

        config = {
            "name": "filecfg",
            "seeds": [0],
            "base": {"value": "v"},
            "grid": {"n": [4], "timeline": ["none"]},
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert main(["suite", "--config", str(path)]) == 0
        assert "Scenario matrix: filecfg" in capsys.readouterr().out

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["suite", "--preset", "nope"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_missing_preset_and_config_exits_2(self, capsys):
        assert main(["suite"]) == 2
        assert "need --preset or --config" in capsys.readouterr().err


class TestListExperiments:
    def test_lists_all_ten(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        names = {
            line.split()[0]
            for line in out.splitlines()
            if line and not line.startswith(" ")
        }
        assert {f"e{i}" for i in range(1, 11)} | {"a1", "a2", "a3"} <= names
        assert "defaults:" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--attack", "nuclear"])

    @pytest.mark.parametrize("command", ["run-async", "run-socket"])
    def test_removed_uvloop_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--uvloop"])
        assert exc.value.code == 2
        assert "--uvloop" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-async", "run-socket", "chaos"])
    def test_removed_codec_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--codec", "json"])
        assert exc.value.code == 2
        assert "--codec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "commands, n, rho",
        [
            # The simulator's model: drifting clocks, n = 7.
            (["constants", "run", "run-async", "run-socket", "stabilize"], 7, 1e-4),
            # Wall-clock fault and service runs: hosts share one epoch.
            (["chaos"], 4, 0.0),
            (["serve"], 4, 0.0),
        ],
        ids=["model", "chaos", "service"],
    )
    def test_model_option_defaults_are_pinned(self, commands, n, rho):
        from repro.cli import _build_parser

        for command in commands:
            args = _build_parser().parse_args([command])
            assert (args.n, args.f, args.delta, args.rho) == (n, None, 1.0, rho), command
