"""CLI coverage: every subcommand runs and prints sane output."""

import numpy as np
import pytest

from repro.cli import _parse_params, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_parse_params_roundtrip(self):
        p = _parse_params("T=32,W=2,Px=8,Pz=2,Uy=8,Uz=2,Fy=4,Fp=4,Fu=4,Fx=4")
        assert p.T == 32 and p.Fx == 4

    def test_parse_params_none(self):
        assert _parse_params(None) is None
        assert _parse_params("") is None

    def test_parse_params_missing_field(self):
        with pytest.raises(TypeError):
            _parse_params("T=32")


class TestCommands:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "UMD-Cluster" in out and "Hopper" in out

    def test_run(self, capsys):
        rc = main(["run", "-n", "64", "-p", "4", "-m", "hopper"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
        assert "FFTz" in out and "Wait" in out

    def test_run_with_params(self, capsys):
        rc = main([
            "run", "-n", "64", "-p", "4",
            "--params", "T=8,W=2,Px=4,Pz=2,Uy=4,Uz=2,Fy=4,Fp=4,Fu=4,Fx=4",
        ])
        assert rc == 0

    def test_run_variant(self, capsys):
        rc = main(["run", "-n", "64", "-p", "4", "-v", "TH"])
        assert rc == 0
        assert "TH" in capsys.readouterr().out

    def test_tune(self, capsys):
        rc = main(["tune", "-n", "64", "-p", "4", "--budget", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "configuration" in out and "evaluations" in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "W", "-n", "64", "-p", "4"])
        assert rc == 0
        assert "sweep of W" in capsys.readouterr().out

    def test_random(self, capsys):
        rc = main(["random", "-n", "64", "-p", "4", "--samples", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max/min" in out

    def test_bad_platform_errors(self, capsys):
        for command in ("run", "tune", "grid"):
            with pytest.raises(SystemExit) as exc:
                main([command, "-m", "bluegene"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: argument -m/--machine" in captured.err
            assert "'bluegene'" in captured.err


class TestTracing:
    def test_run_trace_jsonl_and_overlap_line(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        rc = main(["run", "-n", "64", "-p", "4", "--trace", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap:" in out and "exposed comm" in out
        assert f"-> {path}" in out
        assert path.exists()

    def test_run_trace_chrome_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.json"
        assert main(["run", "-n", "64", "-p", "4", "--trace", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_trace_replays_gantt(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        main(["run", "-n", "64", "-p", "4", "--trace", str(path)])
        capsys.readouterr()
        rc = main(["trace", str(path), "--width", "60", "--max-ranks", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "legend:" in out and "rank   0" in out
        assert "makespan" in out
        assert "sim_handoffs_total" in out  # the registry snapshot

    def test_trace_without_rank_spans_lists_tracks(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        main(["sweep", "W", "-n", "64", "-p", "4", "--no-progress",
              "--trace", str(path)])
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no per-rank spans" in out
        assert "pool" in out  # sweep-point spans listed per track

    def test_trace_missing_file_errors(self, capsys, tmp_path):
        rc = main(["trace", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_grid_trace_progress_and_overlap_summary(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        rc = main(["grid", "--cells", "4:32", "--budget", "6",
                   "--no-progress", "--trace", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap summary (tuned full runs)" in out
        assert "overlap eff %" in out
        assert path.exists()


class TestProfileFlag:
    def test_run_profile_to_stderr(self, capsys):
        rc = main(["run", "-n", "32", "-p", "4", "--profile"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "simulated time" in captured.out
        assert "cumulative" in captured.err  # pstats column header
        assert "function calls" in captured.err

    def test_run_profile_dump_file(self, capsys, tmp_path):
        import pstats

        path = tmp_path / "run.pstats"
        rc = main(["run", "-n", "32", "-p", "4", "--profile", str(path)])
        assert rc == 0
        assert path.exists()
        # The dump is a loadable pstats file.
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_grid_profile(self, capsys):
        rc = main(["grid", "--cells", "2:16", "--budget", "2",
                   "--no-progress", "--profile"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "NEW speedup" in captured.out
        assert "cumulative" in captured.err

    def test_profile_does_not_change_results(self, capsys):
        args = ["run", "-n", "32", "-p", "4"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--profile"]) == 0
        profiled = capsys.readouterr().out
        assert plain == profiled


class TestEvalStoreFlag:
    def test_tune_warm_rerun_is_all_hits(self, capsys, tmp_path):
        path = tmp_path / "evals.jsonl"
        args = ["tune", "-n", "64", "-p", "4", "--eval-store", str(path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "eval store: 0 hits" in cold
        assert path.exists()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 new evaluations" in warm

    def test_hits_are_not_reported_when_metrics_are_off(self, capsys,
                                                         tmp_path, monkeypatch):
        # REPRO_METRICS=0 turns the registry's counters off, so the hit
        # line must not claim 0 hits for a rerun served from the store
        from repro.obs import registry

        path = tmp_path / "evals.jsonl"
        args = ["tune", "-n", "64", "-p", "4", "--eval-store", str(path)]
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr(registry, "_ENABLED", False)
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "eval store: hits not counted (REPRO_METRICS=0), " \
               "0 new evaluations" in warm
        assert " hits," not in warm

    def test_strategies_share_the_store(self, capsys, tmp_path):
        path = tmp_path / "evals.jsonl"
        base = ["tune", "-n", "64", "-p", "4", "--eval-store", str(path)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--strategy", "coordinate"]) == 0
        out = capsys.readouterr().out
        # Coordinate descent starts from Nelder-Mead's evaluations.
        assert "eval store: 0 hits" not in out

    def test_grid_persists_the_store(self, capsys, tmp_path):
        from repro.bench import clear_cache

        clear_cache()
        path = tmp_path / "evals.jsonl"
        rc = main(["grid", "--cells", "4:32", "--budget", "6",
                   "--no-progress", "--eval-store", str(path)])
        assert rc == 0
        assert "eval store:" in capsys.readouterr().out
        assert path.exists()

    def test_sweep_uses_the_store(self, capsys, tmp_path):
        path = tmp_path / "evals.jsonl"
        args = ["sweep", "W", "-n", "64", "-p", "4", "--no-progress",
                "--eval-store", str(path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 new evaluations" in warm


class TestExtensionCommands:
    def test_run_pencil(self, capsys):
        rc = main(["run", "-n", "32", "-p", "4", "--decomposition", "pencil"])
        assert rc == 0
        assert "pencil FFT" in capsys.readouterr().out

    def test_run_real(self, capsys):
        rc = main(["run", "-n", "32", "-p", "4", "--real"])
        assert rc == 0
        assert "r2c FFT" in capsys.readouterr().out

    def test_run_real_honours_variant(self, capsys):
        from repro.core import parallel_rfft3d
        from repro.machine import UMD_CLUSTER

        arr = np.random.default_rng(3).standard_normal((32, 32, 32))
        printed = {}
        for variant in ("NEW", "FFTW"):
            rc = main(["run", "-m", "UMD-Cluster", "-n", "32", "-p", "4",
                       "--real", "-v", variant])
            assert rc == 0
            out = capsys.readouterr().out
            _, res = parallel_rfft3d(arr, 4, UMD_CLUSTER, variant=variant)
            printed[variant] = f"simulated time: {res.elapsed:.4f} s"
            assert printed[variant] in out
        assert printed["NEW"] != printed["FFTW"]

    @pytest.mark.parametrize("flags", [
        ["--real"], ["--params", "T=4,W=1,Px=4,Pz=4,Uy=4,Uz=4,Fy=1,Fp=1,Fu=1,Fx=1"],
        ["-v", "FFTW"],
    ], ids=["real", "params", "variant"])
    def test_run_pencil_rejects_slab_only_flags(self, capsys, flags):
        rc = main(["run", "-n", "32", "-p", "4", "--decomposition", "pencil",
                   *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[0] in captured.err

    @pytest.mark.parametrize("command", ["run", "tune", "sweep", "multi"])
    def test_unknown_variant_is_a_usage_error(self, capsys, command):
        argv = [command, "-n", "32", "-p", "4", "-v", "BOGUS"]
        if command == "sweep":
            argv.insert(1, "W")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument" in captured.err and "'BOGUS'" in captured.err

    def test_variant_name_is_case_insensitive(self, capsys):
        assert main(["run", "-n", "32", "-p", "4", "-v", "fftw"]) == 0
        assert "FFTW on UMD-Cluster" in capsys.readouterr().out

    def test_multi(self, capsys):
        rc = main(["multi", "-n", "32", "-p", "4", "--arrays", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        for mode in ("sequential", "inter", "intra", "both"):
            assert mode in out
