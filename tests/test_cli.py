import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphereflow import cli, generators, run_io
from sphereflow import sphere_geometry as sg
from sphereflow.config import config_from_dict, load_config
from sphereflow.errors import ConfigParseError


def write_config(path, **overrides):
    cfg = {
        "generator": {"kind": "parallel", "theta0": math.pi / 3},
        "n": 256, "dt": 2e-4, "t_max": 5.0, "checkpoint_every": 500,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def assert_inventory_matches_disk(run: Path):
    """Every manifest entry's size and SHA-256 are those of the file on disk."""
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["files"]
    for entry in manifest["files"]:
        data = (run / entry["path"]).read_bytes()
        assert entry["bytes"] == (run / entry["path"]).stat().st_size == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfgp = write_config(tmp / "cfg.json", output_dir=str(tmp / "run"))
    assert cli.main(["simulate", "--config", str(cfgp)]) == 0
    return tmp / "run"


class TestSimulate:
    def test_manifest_outcome(self, completed_run):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        out = manifest["outcome"]
        assert out["kind"] == "finite_time_shrink"
        assert abs(out["T_est"] - math.log(2)) / math.log(2) < 0.01
        assert abs(np.linalg.norm(out["z_est"]) - 1.0) < 1e-9

    def test_manifest_lists_every_file(self, completed_run):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        listed = {f["path"] for f in manifest["files"]}
        on_disk = {"diagnostics.csv", "config.json"}
        on_disk |= {f"checkpoints/{p.name}" for p in (completed_run / "checkpoints").iterdir()}
        assert listed == on_disk

    def test_manifest_inventory_matches_disk(self, completed_run):
        assert_inventory_matches_disk(completed_run)

    def test_rerun_is_bit_identical(self, completed_run, tmp_path):
        cfgp = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "run2"))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 0
        for rel in ["diagnostics.csv", "checkpoints/step_00000000.csv"]:
            assert (tmp_path / "run2" / rel).read_bytes() == (completed_run / rel).read_bytes()

    def test_refuses_overwrite(self, completed_run, tmp_path):
        cfgp = write_config(tmp_path / "cfg.json", output_dir=str(completed_run))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 5

    def test_locked_run_dir_names_owner(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        owner = {"pid": 4242, "host": "node-7", "started_at": "2026-01-02T03:04:05+00:00"}
        (run_dir / ".lock").write_text(json.dumps(owner))
        cfgp = write_config(tmp_path / "cfg.json", output_dir=str(run_dir))
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(cfgp)]) == 5
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "RunDirLocked"
        assert "pid 4242 on host node-7" in err["message"]
        assert owner["started_at"] in err["message"]
        # the owner's lock stays, and nothing is written
        assert json.loads((run_dir / ".lock").read_text()) == owner
        assert sorted(p.name for p in run_dir.iterdir()) == [".lock"]

    @staticmethod
    def reaped_pid():
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        return child.pid

    def test_stale_lock_needs_force(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        owner = {"pid": self.reaped_pid(), "host": platform.node(),
                 "started_at": "2026-01-02T03:04:05+00:00"}
        (run_dir / ".lock").write_text(json.dumps(owner))
        cfgp = write_config(tmp_path / "cfg.json", generator={"kind": "great_circle"},
                            n=128, dt=1e-4, t_max=0.05, output_dir=str(run_dir))
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(cfgp)]) == 5
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "RunDirLocked"
        assert f"pid {owner['pid']} on host {owner['host']}" in err["message"]
        assert "no longer running" in err["message"]
        assert json.loads((run_dir / ".lock").read_text()) == owner
        assert cli.main(["simulate", "--config", str(cfgp), "--force"]) == 0
        assert (run_dir / "manifest.json").is_file()
        assert not (run_dir / ".lock").exists()

    @pytest.mark.parametrize("pid", ["self", 1])
    def test_force_keeps_a_live_owners_lock(self, tmp_path, capsys, pid):
        # this process, and pid 1, which exists whether or not we may signal it
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        owner = {"pid": os.getpid() if pid == "self" else pid, "host": platform.node(),
                 "started_at": "2026-01-02T03:04:05+00:00"}
        (run_dir / ".lock").write_text(json.dumps(owner))
        cfgp = write_config(tmp_path / "cfg.json", generator={"kind": "great_circle"},
                            n=128, dt=1e-4, t_max=0.05, output_dir=str(run_dir))
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(cfgp), "--force"]) == 5
        assert "no longer running" not in json.loads(capsys.readouterr().out)["message"]
        assert json.loads((run_dir / ".lock").read_text()) == owner
        assert sorted(p.name for p in run_dir.iterdir()) == [".lock"]

    def test_lock_is_taken_before_the_manifest_check(self, completed_run, tmp_path, capsys):
        # a run dir that holds a run and is locked reports its owner
        (completed_run / ".lock").write_text(json.dumps(
            {"pid": 4243, "host": "node-8", "started_at": "2026-01-02T03:04:05+00:00"}))
        try:
            cfgp = write_config(tmp_path / "cfg.json", output_dir=str(completed_run))
            capsys.readouterr()
            assert cli.main(["simulate", "--config", str(cfgp)]) == 5
            assert "pid 4243 on host node-8" in json.loads(capsys.readouterr().out)["message"]
        finally:
            (completed_run / ".lock").unlink()

    def test_equator_great_circle(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "generator": {"kind": "great_circle"}, "n": 128,
            "dt": 1e-4, "t_max": 0.05, "output_dir": str(tmp_path / "run")}))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["outcome"]["kind"] == "great_circle"

    def test_bad_dt_is_config_error(self, tmp_path):
        cfgp = write_config(tmp_path / "cfg.json", dt=-1.0)
        assert cli.main(["simulate", "--config", str(cfgp)]) == 2

    def test_nonconverging_resample_writes_error_run(self, tmp_path, monkeypatch):
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.2, 0.1], 128, seed=8)
        run_io.write_curve_csv(c, tmp_path / "start.csv")
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=1e-4, t_max=0.05,
                            generator={"kind": "from_file", "path": str(tmp_path / "start.csv")})
        monkeypatch.setattr(sg, "_MAX_PASSES", 1)
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 1
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["outcome"]["kind"] == "error"
        assert "did not converge" in manifest["outcome"]["error"]
        rows = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        assert len(rows) >= 2
        assert_inventory_matches_disk(tmp_path / "run")


def test_main_calls_commands_through_module_globals(monkeypatch):
    # a wrapper set on the module attribute (as a tracer does) must see the call
    calls = []
    monkeypatch.setattr(cli, "cmd_report", lambda run: calls.append(run) or 0)
    assert cli.main(["report", "--run", "somewhere"]) == 0
    assert calls == ["somewhere"]


def test_cli_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, sphereflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestVerify:
    def test_verify_passes(self, completed_run):
        assert cli.main(["verify", "--run", str(completed_run)]) == 0
        verdicts = json.loads((completed_run / "verdicts.json").read_text())
        assert {v["check"] for v in verdicts} >= {"chord_arc", "curvature_bound",
                                                  "length_sandwich", "roundness"}
        assert all(v["verdict"] == "pass" for v in verdicts)

    def test_empty_dir(self, tmp_path):
        assert cli.main(["verify", "--run", str(tmp_path)]) == 3

    def test_force_rerun_loads_only_manifest_checkpoints(self, tmp_path, monkeypatch):
        # a rerun with another cadence leaves the first run's checkpoints on disk
        run = tmp_path / "run"
        for every in (50, 70):
            cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, checkpoint_every=every)
            argv = ["simulate", "--config", str(cfgp), "--out", str(run)]
            assert cli.main(argv + (["--force"] if every == 70 else [])) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        listed = {f["path"] for f in manifest["files"] if f["path"].startswith("checkpoints/")}
        on_disk = {f"checkpoints/{p.name}" for p in (run / "checkpoints").iterdir()}
        assert "checkpoints/step_00000050.csv" in on_disk - listed
        loaded = []
        read_curve_csv = run_io.read_curve_csv

        def recording_read(path):
            loaded.append(Path(path).relative_to(run).as_posix())
            return read_curve_csv(path)

        monkeypatch.setattr(run_io, "read_curve_csv", recording_read)
        assert cli.main(["verify", "--run", str(run)]) == 0
        assert sorted(loaded) == sorted(listed)

    def test_force_rerun_drops_old_verdicts(self, tmp_path, capsys):
        # report must not show the first run's verdicts as the rerun's
        run = tmp_path / "run"
        for checks, extra in ((None, []), (["fenchel"], ["--force"])):
            overrides = {} if checks is None else {"checks": checks}
            cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, **overrides)
            assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)] + extra) == 0
            assert not (run / "verdicts.json").exists()
            if checks is None:
                assert cli.main(["verify", "--run", str(run)]) == 0
                assert len(json.loads((run / "verdicts.json").read_text())) == 8
        capsys.readouterr()
        assert cli.main(["report", "--run", str(run)]) == 0
        out = capsys.readouterr().out
        assert "verdicts      : (none; run `sphereflow verify`)" in out
        assert "chord_arc" not in out
        assert cli.main(["verify", "--run", str(run)]) == 0
        verdicts = json.loads((run / "verdicts.json").read_text())
        assert [v["check"] for v in verdicts] == ["fenchel"]

    def test_missing_listed_checkpoint(self, tmp_path):
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, checkpoint_every=500)
        run = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 0
        (run / "checkpoints" / "step_00000500.csv").unlink()
        assert cli.main(["verify", "--run", str(run)]) == 3

    def test_unparsable_checkpoint_is_config_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, checkpoint_every=500)
        run = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 0
        ckpt = run / "checkpoints" / "step_00000500.csv"
        lines = ckpt.read_text().splitlines()
        lines[5] = lines[5].replace(",", ",x", 1)
        ckpt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert "step_00000500.csv, line 6" in err["message"]

    @pytest.mark.parametrize("checks", [["great_circle"], []])
    def test_no_applicable_check_fails(self, tmp_path, capsys, checks):
        # an empty verdict list is not a pass
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, checks=checks)
        run = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "PreconditionViolation"
        assert not (run / "verdicts.json").exists()

    @pytest.mark.parametrize("key", ["a_resolved", "T_est", "z_est"])
    def test_manifest_without_outcome_key(self, completed_run, tmp_path, capsys, key):
        run = tmp_path / "run"
        shutil.copytree(completed_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        del manifest["outcome"][key]
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "MissingArtifacts" and key in err["message"]

    def test_report(self, completed_run, capsys):
        assert cli.main(["report", "--run", str(completed_run)]) == 0
        out = capsys.readouterr().out
        assert "finite_time_shrink" in out and "chord_arc" in out


class TestProfileCommand:
    def test_profile_outputs(self, tmp_path):
        curve = generators.parallel_curve(math.pi / 4, 256)
        run_io.write_curve_csv(curve, tmp_path / "par.csv")
        assert cli.main(["profile", "--curve", str(tmp_path / "par.csv"),
                         "--bins", "64", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "par_profile.csv").exists()
        svg = (tmp_path / "par_profile.svg").read_text()
        assert "<svg" in svg and "polyline" in svg
        header = (tmp_path / "par_profile.csv").read_text().splitlines()[0]
        assert header == "z,psi,i,j"

    def test_not_simple(self, tmp_path):
        n = 256
        u = 2 * np.pi * np.arange(n) / n
        lam = 0.8 * np.sin(u + 0.3)
        phi = 0.5 * np.sin(2 * u + 0.6)
        pts = np.column_stack([np.cos(phi) * np.cos(lam),
                               np.cos(phi) * np.sin(lam), np.sin(phi)])
        from sphereflow.sphere_geometry import make_curve
        run_io.write_curve_csv(make_curve(pts), tmp_path / "eight.csv")
        assert cli.main(["profile", "--curve", str(tmp_path / "eight.csv")]) == 4

    @pytest.mark.parametrize("row, message", [
        ("0.0,1.0", "line 3: expected 3 fields, got 2"),
        ("0.0,1.0,abc", "line 3: could not convert string to float: 'abc'"),
    ])
    def test_bad_row_is_config_error(self, tmp_path, capsys, row, message):
        curve = generators.great_circle_curve((0, 0, 1), 32)
        path = tmp_path / "bad.csv"
        run_io.write_curve_csv(curve, path)
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["profile", "--curve", str(path), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert err["message"] == f"{path}, {message}"

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPHEREFLOW_OUT", str(tmp_path / "root"))
        curve = generators.great_circle_curve((0, 0, 1), 128)
        run_io.write_curve_csv(curve, tmp_path / "eq.csv")
        assert cli.main(["profile", "--curve", str(tmp_path / "eq.csv")]) == 0
        assert (tmp_path / "root" / "eq_profile.csv").exists()


class TestBarrierCheckCommand:
    def test_defaults_pass(self, capsys):
        assert cli.main(["barrier-check", "--grid", "120"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == 0
        assert report["q_grid"]["min_margin"] > 0.0

    def test_q_grid_includes_zero_column(self, capsys):
        assert cli.main(["barrier-check", "--a", "1.0", "--L", str(math.pi),
                         "--grid", "80"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["q_grid"]["worst_point"][0] >= 0.0

    def test_incompatible_pair_skipped(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        assert cli.main(["barrier-check", "--a", "0.5", "--L", "7.0",
                         "--out", str(out), "--grid", "80"]) == 0
        report = json.loads(out.read_text())
        assert "skipped" in report["cases"][0]


class TestRoundTrips:
    def test_curve_csv_bytes(self, tmp_path):
        curve = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.1, 0.05],
                                                   128, seed=13)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_io.write_curve_csv(curve, p1)
        again = run_io.read_curve_csv(p1)
        assert np.array_equal(again.points, curve.points)
        run_io.write_curve_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_diagnostics_csv_roundtrip(self, completed_run):
        series = run_io.read_diagnostics_csv(completed_run / "diagnostics.csv")
        out = completed_run / "diag_copy.csv"
        run_io.write_diagnostics_csv(series, out)
        assert out.read_bytes() == (completed_run / "diagnostics.csv").read_bytes()
        out.unlink()

    def test_config_hash_stable(self, tmp_path):
        cfgp = write_config(tmp_path / "cfg.json")
        cfg = load_config(cfgp)
        from sphereflow.config import config_hash, config_to_dict
        assert config_hash(cfg) == config_hash(config_from_dict(config_to_dict(cfg)))

    def test_config_hash_pinned(self, tmp_path):
        # the hash a run manifest records; it changes only with the config format
        from sphereflow.config import config_hash
        cfg = load_config(write_config(tmp_path / "cfg.json"))
        assert config_hash(cfg) == \
            "69b3dfe8f4fd0d6dab86493993dad2cd2fbc0835dda13685876cdc7ff8aebfc9"


class TestConfigValidation:
    def test_unknown_field(self):
        with pytest.raises(ConfigParseError):
            config_from_dict({"generator": {"kind": "great_circle"}, "bogus": 1})

    def test_unknown_generator_field(self, tmp_path, capsys):
        # a misspelt key must not fall back to the default axis (0, 0, 1)
        with pytest.raises(ConfigParseError, match=r"unknown generator fields: \['axiz'\]"):
            config_from_dict({"generator": {"kind": "great_circle", "axiz": [1, 0, 0]}})
        cfgp = write_config(tmp_path / "cfg.json",
                            generator={"kind": "great_circle", "axiz": [1, 0, 0]})
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 2
        assert "axiz" in json.loads(capsys.readouterr().out)["message"]

    def test_missing_generator(self):
        with pytest.raises(ConfigParseError):
            config_from_dict({"n": 64})

    def test_bad_generator_kind(self):
        with pytest.raises(ConfigParseError):
            config_from_dict({"generator": {"kind": "torus"}})

    def test_fourier_needs_matching_lists(self):
        with pytest.raises(ConfigParseError):
            config_from_dict({"generator": {"kind": "fourier_perturbed",
                                            "modes": [1, 2], "amplitudes": [0.1]}})

    def test_symmetrize_needs_even_n(self):
        with pytest.raises(ConfigParseError):
            config_from_dict({"generator": {"kind": "great_circle"},
                              "n": 129, "symmetrize": True})

    @pytest.mark.parametrize("overrides,name", [
        ({"checks": 5}, "checks"),
        ({"checks": "chord_arc"}, "checks"),
        ({"a": "big"}, "a"),
        ({"symmetrize": "false"}, "symmetrize"),
        ({"generator": {"kind": "parallel", "theta0": "x"}}, "generator.theta0"),
        ({"generator": {"kind": "fourier_perturbed", "modes": ["a"], "amplitudes": [0.1]}},
         "generator.modes"),
        ({"generator": {"kind": "great_circle", "axis": 5}}, "generator.axis"),
    ])
    def test_wrong_json_type_names_field(self, tmp_path, capsys, overrides, name):
        cfgp = write_config(tmp_path / "cfg.json", **overrides)
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert err["message"].startswith(f"{name} must be ")
        assert not (tmp_path / "run").exists()
