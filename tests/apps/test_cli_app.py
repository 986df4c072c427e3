"""`repro app` CLI subcommand."""

import json

import pytest

from repro.cli import main


class TestAppCommand:
    def test_poisson_reports_steady_state(self, capsys):
        rc = main(["app", "poisson", "-n", "16", "-p", "4",
                   "--steps", "2", "--warmup", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steady-state:" in out
        assert "transforms/s (warmup excluded)" in out
        assert "plan-reuse speedup:" in out
        assert "plan: baseline" in out
        assert "-- ok" in out

    def test_json_output(self, capsys):
        rc = main(["app", "turbulence", "-n", "16", "-p", "4",
                   "--steps", "2", "--warmup", "0", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["app"] == "turbulence"
        assert data["numerics_ok"] is True
        assert data["plan"]["source"] == "baseline"
        assert data["transforms_per_sec"] > 0
        assert data["warmup"] == 0

    def test_anisotropic_shape_and_effort(self, capsys):
        rc = main(["app", "convolution", "--shape", "12,16,20", "-p", "4",
                   "--steps", "2", "--plan-effort", "measure"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "12x16x20" in out

    def test_bad_shape_errors(self):
        with pytest.raises(SystemExit, match="NX,NY,NZ"):
            main(["app", "poisson", "--shape", "16,16", "-p", "4"])

    def test_odd_nz_is_an_error(self):
        # the apps transform real fields r2c/c2r, which needs an even Nz
        with pytest.raises(SystemExit, match="even Nz, got 15"):
            main(["app", "poisson", "--shape", "16,16,15", "-p", "4"])

    def test_faults_flag_accepted(self, capsys):
        rc = main(["app", "poisson", "-n", "16", "-p", "4", "--steps", "2",
                   "--warmup", "0",
                   "--faults", "straggler:rank=1,slow=2.0;seed:3"])
        assert rc == 0
        assert "-- ok" in capsys.readouterr().out

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "app.json"
        rc = main(["app", "poisson", "-n", "16", "-p", "4", "--steps", "2",
                   "--warmup", "0", "--trace", str(trace)])
        assert rc == 0
        assert trace.exists()
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        names = {e.get("name") for e in events}
        assert "app.step" in names

    def test_local_budget_tuning(self, capsys):
        rc = main(["app", "poisson", "-n", "16", "-p", "4", "--steps", "2",
                   "--warmup", "0", "--budget", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "locally tuned" in out
