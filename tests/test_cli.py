"""Command-line interface (``repro-perf``)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for cmd in ("search", "serve", "scaling", "systems", "speedup", "validate", "collectives"):
            args = parser.parse_args([cmd])
            assert hasattr(args, "func")


class TestSearchCommand:
    def test_basic_search(self, capsys):
        rc = main(["search", "--model", "gpt3-1t", "--gpus", "256", "--gpu", "B200"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Best configuration" in out
        assert "iteration" in out

    def test_infeasible_search_returns_nonzero(self, capsys):
        rc = main(["search", "--model", "gpt3-1t", "--gpus", "4", "--gpu", "A100"])
        assert rc == 1
        assert "No feasible configuration" in capsys.readouterr().out

    def test_top_k_table(self, capsys):
        rc = main(["search", "--model", "gpt3-1t", "--gpus", "256", "--top-k", "3"])
        assert rc == 0
        assert "config" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--model", "gpt3-175b", "--gpus", "64", "--global-batch", "64"],
            ["serve", "--gpus", "8"],
        ],
        ids=["search", "serve"],
    )
    def test_negative_top_k_is_a_one_line_error(self, argv, capsys):
        rc = main(argv + ["--top-k", "-2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.splitlines() == ["repro-perf: error: top_k must be >= 0, got -2"]
        assert "Traceback" not in captured.err + captured.out

    def test_json_dump(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        rc = main(["search", "--model", "gpt3-1t", "--gpus", "256", "--json", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["n_gpus"] == 256


class TestParetoCommand:
    def test_list_objectives(self, capsys):
        rc = main(["pareto", "--list-objectives"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("time", "hbm_headroom", "cost", "energy"):
            assert name in out
        assert "max" in out and "min" in out

    def test_frontier_table(self, capsys):
        rc = main([
            "pareto", "--model", "gpt3-175b", "--gpus", "64",
            "--global-batch", "64",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Pareto frontier" in out
        assert "pruned by dominance bound" in out
        assert "hbm_headroom(GB)" in out

    def test_objective_subset_and_json(self, tmp_path, capsys):
        path = tmp_path / "pareto.json"
        rc = main([
            "pareto", "--model", "gpt3-175b", "--gpus", "64",
            "--global-batch", "64", "--objectives", "time,cost",
            "--json", str(path),
        ])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["summary"]["objectives"] == ["time", "cost"]
        assert data["summary"]["frontier_size"] == len(data["frontier"])
        assert all("metrics" in point for point in data["frontier"])

    def test_unknown_objective_is_a_usage_error(self, capsys):
        rc = main([
            "pareto", "--model", "gpt3-175b", "--gpus", "64",
            "--objectives", "time,warp-drive",
        ])
        assert rc == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_duplicate_objectives_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pareto", "--objectives", "time,time"])

    def test_infeasible_returns_nonzero(self, capsys):
        rc = main([
            "pareto", "--model", "gpt3-1t", "--gpus", "4", "--gpu", "A100",
        ])
        assert rc == 1
        assert "No feasible configuration" in capsys.readouterr().out


class TestOtherCommands:
    def test_scaling(self, capsys):
        rc = main(["scaling", "--model", "gpt3-1t", "--gpus", "256,512"])
        assert rc == 0
        assert "strong scaling" in capsys.readouterr().out

    def test_validate(self, capsys):
        rc = main(["validate"])
        assert rc == 0
        assert "empirical validation" in capsys.readouterr().out

    def test_collectives(self, capsys):
        rc = main(["collectives", "--gpus", "8", "--nvlink", "4"])
        assert rc == 0
        assert "all_gather" in capsys.readouterr().out

    def test_systems_small(self, capsys):
        rc = main([
            "systems", "--model", "gpt3-1t", "--gpus", "512",
            "--generations", "B200", "--nvs-sizes", "8",
        ])
        assert rc == 0
        assert "training days" in capsys.readouterr().out

    def test_speedup_small(self, capsys):
        rc = main([
            "speedup", "--model", "gpt3-1t", "--gpus", "512", "--variant", "tp2d",
            "--generations", "B200", "--nvs-sizes", "8",
        ])
        assert rc == 0
        assert "relative speed-up" in capsys.readouterr().out


class TestUnknownNames:
    """An unknown registry name is one error line and exit status 2."""

    @pytest.mark.parametrize("bad", ["model", "gpu", "strategy", "schedule"])
    @pytest.mark.parametrize("command", ["search", "scaling", "systems", "speedup"])
    def test_unknown_name_is_a_clean_error(self, capsys, command, bad):
        argv = [command, "--gpus", "64"]
        flag = f"--{bad}"
        if command in ("systems", "speedup"):
            # The grid commands take their GPU generations from --generations.
            argv += ["--generations", "B200", "--nvs-sizes", "8"]
            flag = "--generations" if bad == "gpu" else flag
        assert main(argv + [flag, "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "repro-perf: error:" in err and "nosuch" in err
        assert "Traceback" not in err


class TestGridCommandsTakeNoSingleSystem:
    """``systems``/``speedup`` read --generations/--nvs-sizes; --gpu/--nvs are usage errors."""

    @pytest.mark.parametrize("flag,value", [("--gpu", "X100"), ("--nvs", "64")])
    @pytest.mark.parametrize("command", ["systems", "speedup"])
    def test_single_system_flags_are_rejected(self, capsys, command, flag, value):
        argv = [command, "--gpus", "64", "--generations", "B200", "--nvs-sizes", "8"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err


class TestNvsValidation:
    """A domain size below one or not an integer is an argparse usage error
    naming the flag: exit 2, no traceback, nothing solved."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--nvs", "0"],
            ["pareto", "--nvs", "0"],
            ["serve", "--nvs", "0"],
            ["scaling", "--gpus", "64", "--nvs", "0"],
            ["systems", "--gpus", "64", "--nvs-sizes", "0"],
            ["speedup", "--gpus", "64", "--nvs-sizes", "abc"],
            ["validate", "--backend", "sim", "--nvs", "0"],
        ],
        ids=["search", "pareto", "serve", "scaling", "systems", "speedup", "validate"],
    )
    def test_bad_domain_size_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {argv[-2]}:" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestLibraryErrorsOnGridCommands:
    """Input the library rejects is one error line and exit 2, as on
    ``search``: never a traceback."""

    @pytest.mark.parametrize("command", ["scaling", "systems", "speedup"])
    def test_zero_global_batch_is_an_error_line(self, capsys, command):
        assert main([command, "--gpus", "64", "--global-batch", "0"]) == 2
        captured = capsys.readouterr()
        assert "repro-perf: error: global_batch_size must be >= 1" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestCollectivesValidation:
    """``collectives`` rejects a bad flag at parse time, naming it."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gpus", "0"], "argument --gpus: GPU counts must be >= 1"),
            (["--gpus", "x"], "argument --gpus: invalid GPU count"),
            (["--nvlink", "3"], "argument --nvlink: invalid choice: 3"),
            (["--collective", "nosuch"], "argument --collective: invalid choice: 'nosuch'"),
        ],
        ids=["gpus", "gpus-not-int", "nvlink", "collective"],
    )
    def test_bad_flag_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["collectives", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_flags_that_do_not_fit_together_are_an_error_line(self, capsys):
        """Four GPUs per node cannot tile a group of six."""
        assert main(["collectives", "--gpus", "6", "--nvlink", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-perf: error:")
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("nvlink", ["1", "2", "4"])
    def test_every_perlmutter_domain_runs(self, capsys, nvlink):
        assert main(["collectives", "--gpus", "8", "--nvlink", nvlink]) == 0
        assert f"all_gather on 8 GPUs ({nvlink} GPUs/node" in capsys.readouterr().out


class TestGpuListParsing:
    def test_commas_whitespace_and_duplicates(self):
        from repro.cli import _parse_gpu_list

        assert _parse_gpu_list("128,256,512") == [128, 256, 512]
        assert _parse_gpu_list(" 128 ,  256\t512 ") == [128, 256, 512]
        assert _parse_gpu_list("128,,256") == [128, 256]
        # Duplicates are dropped, first occurrence wins.
        assert _parse_gpu_list("256,128,256,128") == [256, 128]

    @pytest.mark.parametrize("bad", ["", "  ", ",,,", "abc", "128;256", "0", "-4", "1e3"])
    def test_malformed_lists_raise_argparse_errors(self, bad):
        import argparse

        from repro.cli import _parse_gpu_list

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_gpu_list(bad)

    def test_sweep_flag_reports_clean_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--gpus", "not-a-number"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "invalid GPU count" in capsys.readouterr().err


class TestScenarioFlags:
    def test_workload_listing(self, capsys):
        rc = main(["workloads"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("gpt3-1t", "vit", "moe-1t", "moe-mixtral", "gpt3-1t-gqa"):
            assert name in out

    def test_workload_flag_overrides_model(self, capsys):
        rc = main(
            ["search", "--workload", "moe-mixtral", "--model", "gpt3-1t",
             "--gpus", "64", "--global-batch", "64"]
        )
        assert rc == 0
        assert "MoE-Mixtral" in capsys.readouterr().out

    def test_zero_stage_changes_memory(self, capsys):
        argv = ["search", "--model", "gpt3-175b", "--gpus", "64", "--global-batch", "64"]
        assert main(argv + ["--zero-stage", "0"]) == 0
        mem0 = [l for l in capsys.readouterr().out.splitlines() if "memory" in l][0]
        assert main(argv + ["--zero-stage", "3"]) == 0
        mem3 = [l for l in capsys.readouterr().out.splitlines() if "memory" in l][0]
        assert mem0 != mem3

    def test_fixed_expert_parallel_degree(self, capsys):
        rc = main(
            ["search", "--workload", "moe-mixtral", "--expert-parallel", "8",
             "--gpus", "64", "--global-batch", "64"]
        )
        assert rc == 0
        assert "ep=8" in capsys.readouterr().out

    def test_invalid_zero_stage_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--zero-stage", "7", "--gpus", "64"])


class TestServeCommand:
    def test_default_serve_finds_config(self, capsys):
        rc = main(["serve", "--workload", "llama70b-serve", "--objective", "throughput"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serving search: Llama-70B" in out
        assert "TTFT" in out and "TPOT" in out and "tokens/s/GPU" in out

    def test_objective_changes_winner_metric(self, capsys):
        rc = main(["serve", "--workload", "llama70b-serve", "--objective", "ttft"])
        assert rc == 0
        assert "objective=ttft" in capsys.readouterr().out

    def test_traffic_overrides(self, capsys):
        rc = main(
            ["serve", "--workload", "llama70b-serve", "--arrival-rate", "4",
             "--prompt-tokens", "1024", "--output-tokens", "64"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 req/s" in out and "prompt 1024" in out and "output 64 tokens" in out

    def test_overload_returns_nonzero(self, capsys):
        rc = main(["serve", "--workload", "llama70b-serve", "--arrival-rate", "1000000"])
        assert rc == 1
        assert "no feasible serving configuration" in capsys.readouterr().out

    def test_explain_plan_prints_prefill_and_decode_phases(self, capsys):
        rc = main(["serve", "--workload", "llama70b-serve", "--explain-plan"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "execution plan" in out
        assert "prefill.compute" in out and "decode.hbm" in out
        assert "state.kv_cache" in out

    def test_moe_serving_preset(self, capsys):
        rc = main(["serve", "--workload", "moe-mixtral-serve", "--top-k", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MoE-Mixtral" in out

    def test_json_dump(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        rc = main(["serve", "--workload", "llama70b-serve", "--json", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["objective"] == "throughput"
        assert data["found"] is True

    def test_invalid_objective_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--objective", "mfu"])

    def test_bad_traffic_override_reports_clean_error(self, capsys):
        assert main(["serve", "--workload", "llama70b-serve", "--arrival-rate", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro-perf: error: arrival_rate must be positive\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, message",
        [("--max-batch", "max_batch_per_replica"), ("--kv-block", "kv_block_tokens")],
    )
    def test_zero_paging_override_reports_clean_error(self, capsys, flag, message):
        assert main(["serve", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro-perf: error: {message} must be >= 1\n"
        assert captured.out == ""

    def test_serving_presets_listed_in_workloads(self, capsys):
        rc = main(["workloads"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "llama70b-serve" in out and "moe-mixtral-serve" in out

    def test_unknown_workload_reports_clean_error(self, capsys):
        rc = main(["serve", "--workload", "no-such-workload"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro-perf: error:" in err and "no-such-workload" in err

    def test_training_search_rejects_serving_schedule(self, capsys):
        # serve-rr is forward-only: its bubble/in-flight numbers would
        # silently understate a training iteration, so `search` refuses it.
        assert main(["search", "--schedule", "serve-rr", "--gpus", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-perf: error: schedule 'serve-rr' is serving-only")
        assert err.count("\n") == 1


class TestScheduleFlags:
    def test_schedule_listing(self, capsys):
        rc = main(["schedules"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("1f1b", "gpipe", "interleaved"):
            assert name in out

    def test_interleaved_search(self, capsys):
        rc = main(
            ["search", "--model", "gpt3-1t", "--schedule", "interleaved",
             "--virtual-stages", "2", "--gpus", "256", "--global-batch", "512"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sched=interleaved" in out and "v=2" in out

    def test_explain_plan_prints_phases(self, capsys):
        rc = main(
            ["search", "--model", "gpt3-1t", "--gpus", "256",
             "--global-batch", "512", "--explain-plan"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution plan" in out
        assert "microbatch.compute" in out and "pipeline.bubble" in out

    def test_workload_preset_carries_schedule(self, capsys):
        rc = main(
            ["search", "--workload", "gpt3-1t-interleaved",
             "--gpus", "256", "--global-batch", "512"]
        )
        assert rc == 0
        assert "sched=interleaved" in capsys.readouterr().out

    def test_unknown_schedule_rejected(self, capsys):
        assert main(["search", "--schedule", "pipedream", "--gpus", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-perf: error: unknown schedule 'pipedream'")
        assert err.count("\n") == 1

    def test_virtual_stages_require_interleaving_schedule(self, capsys):
        argv = ["search", "--schedule", "gpipe", "--virtual-stages", "2", "--gpus", "64"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-perf: error: schedule 'gpipe' does not support virtual_stages=2")
        assert err.count("\n") == 1

    def test_explicit_schedule_override_drops_preset_virtual_stages(self, capsys):
        # The interleaved preset's v=2 belongs to its own schedule; overriding
        # with --schedule 1f1b must not demand an explicit --virtual-stages 1.
        rc = main(
            ["search", "--workload", "gpt3-1t-interleaved", "--schedule", "1f1b",
             "--gpus", "256", "--global-batch", "512"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sched=" not in out and "v=2" not in out
