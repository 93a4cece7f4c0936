import contextlib
import errno
import fcntl
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

from sphereflow import chord_arc, cli, flow_engine, generators, run_io
from sphereflow import sphere_geometry as sg
from sphereflow.config import config_from_dict, load_config
from sphereflow.errors import ConfigParseError, NotAdmissible, SphereFlowError

# The exit codes README.md gives; every other package error exits with 1.
README_CODES = {"ConfigParseError": 2, "MissingArtifacts": 3, "NotSimple": 4,
                "SelfIntersection": 4, "RunDirLocked": 5, "CorruptArtifacts": 6}


def write_config(path, **overrides):
    cfg = {
        "generator": {"kind": "parallel", "theta0": math.pi / 3},
        "n": 256, "dt": 2e-4, "t_max": 5.0, "checkpoint_every": 500,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def relist(run: Path, rel: str):
    """Rewrite rel's manifest entry to the size and SHA-256 of the file on disk."""
    manifest = json.loads((run / "manifest.json").read_text())
    data = (run / rel).read_bytes()
    for entry in manifest["files"]:
        if entry["path"] == rel:
            entry.update(bytes=len(data), sha256=hashlib.sha256(data).hexdigest())
    (run / "manifest.json").write_text(json.dumps(manifest))


def change_last_digit(text: str, line: int) -> str:
    """text with the last character, a digit, of the given line changed."""
    lines = text.split("\n")
    lines[line] = lines[line][:-1] + ("1" if lines[line][-1] != "1" else "2")
    return "\n".join(lines)


def assert_inventory_matches_disk(run: Path):
    """Every manifest entry's size and SHA-256 are those of the file on disk."""
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["files"]
    for entry in manifest["files"]:
        data = (run / entry["path"]).read_bytes()
        assert entry["bytes"] == (run / entry["path"]).stat().st_size == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def held_lock(path: Path, owner: dict):
    """Hold path's flock in this process, with owner written in it, as a
    running simulate does; on exit truncate the file and release the lock."""
    with open(path, "a+") as f:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        f.truncate(0)
        f.write(json.dumps(owner))
        f.flush()
        try:
            yield
        finally:
            f.truncate(0)


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

    def test_manifest_records_both_parts_of_a(self, completed_run, capsys):
        # a parallel meets the curvature bound and the pairs at a = 0
        outcome = json.loads((completed_run / "manifest.json").read_text())["outcome"]
        assert outcome["a_resolved"] == outcome["a_pairs"] == outcome["a_curv"] == 0.0
        capsys.readouterr()
        assert cli.main(["report", "--run", str(completed_run)]) == 0
        out = capsys.readouterr().out
        assert "a_pairs       : 0.0" in out and "a_curv        : 0.0" in out

    def test_explicit_a_is_taken_as_given(self, tmp_path):
        cfgp = write_config(tmp_path / "cfg.json", generator={"kind": "great_circle"},
                            n=128, dt=1e-4, t_max=0.05, a=0.75)
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 0
        outcome = json.loads((tmp_path / "run" / "manifest.json").read_text())["outcome"]
        assert outcome["a_resolved"] == 0.75
        assert "a_pairs" not in outcome and "a_curv" not in outcome

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
        cfgp = write_config(tmp_path / "cfg.json", output_dir=str(run_dir))
        capsys.readouterr()
        with held_lock(run_dir / ".lock", owner):
            assert cli.main(["simulate", "--config", str(cfgp)]) == 5
            err = json.loads(capsys.readouterr().out)
            assert err["error"] == "RunDirLocked"
            assert "pid 4242 on host node-7" in err["message"]
            assert owner["started_at"] in err["message"]
            # the owner's lock stays, and nothing is written
            assert json.loads((run_dir / ".lock").read_text()) == owner
            assert sorted(p.name for p in run_dir.iterdir()) == [".lock"]

    def test_lock_dies_with_its_holder(self, tmp_path, capsys):
        # a simulate killed by SIGKILL leaves a lockfile that names it, and no lock
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        cfgp = write_config(tmp_path / "cfg.json", generator={"kind": "great_circle"},
                            n=128, dt=1e-4, t_max=0.05, output_dir=str(run_dir))
        code = ("import sys, time; from pathlib import Path; from sphereflow import run_io; "
                "run_io.RunDirLock(Path(sys.argv[1])).__enter__(); print('locked', flush=True); "
                "time.sleep(120)")
        src = Path(cli.__file__).resolve().parents[1]
        child = subprocess.Popen([sys.executable, "-c", code, str(run_dir / ".lock")],
                                 env={**os.environ, "PYTHONPATH": str(src)},
                                 stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "locked\n"
            capsys.readouterr()
            assert cli.main(["simulate", "--config", str(cfgp), "--force"]) == 5
            err = json.loads(capsys.readouterr().out)
            assert err["error"] == "RunDirLocked"
            assert f"pid {child.pid} on host {platform.node()}" in err["message"]
            assert sorted(p.name for p in run_dir.iterdir()) == [".lock"]
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
        assert json.loads((run_dir / ".lock").read_text())["pid"] == child.pid
        assert cli.main(["simulate", "--config", str(cfgp)]) == 0
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / ".lock").read_text() == ""

    @pytest.mark.parametrize("pid", ["self", 1])
    def test_force_keeps_a_live_owners_lock(self, tmp_path, capsys, pid):
        # the lock, not the pid it names, decides: this process, or pid 1
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        owner = {"pid": os.getpid() if pid == "self" else pid, "host": platform.node(),
                 "started_at": "2026-01-02T03:04:05+00:00"}
        cfgp = write_config(tmp_path / "cfg.json", generator={"kind": "great_circle"},
                            n=128, dt=1e-4, t_max=0.05, output_dir=str(run_dir))
        capsys.readouterr()
        with held_lock(run_dir / ".lock", owner):
            assert cli.main(["simulate", "--config", str(cfgp), "--force"]) == 5
            assert f"pid {owner['pid']} on host" in json.loads(capsys.readouterr().out)["message"]
            assert json.loads((run_dir / ".lock").read_text()) == owner
            assert sorted(p.name for p in run_dir.iterdir()) == [".lock"]

    def test_lock_is_taken_before_the_manifest_check(self, completed_run, tmp_path, capsys):
        # a run dir that holds a run and is locked reports its owner
        owner = {"pid": 4243, "host": "node-8", "started_at": "2026-01-02T03:04:05+00:00"}
        cfgp = write_config(tmp_path / "cfg.json", output_dir=str(completed_run))
        capsys.readouterr()
        with held_lock(completed_run / ".lock", owner):
            assert cli.main(["simulate", "--config", str(cfgp)]) == 5
        assert "pid 4243 on host node-8" in json.loads(capsys.readouterr().out)["message"]

    def test_lock_error_is_run_dir_locked(self, tmp_path, capsys, monkeypatch):
        # a filesystem without locks: exit 5 with the errno, no traceback
        def no_locks(fd, op):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", no_locks)
        cfgp = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "run"))
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(cfgp)]) == 5
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "RunDirLocked"
        assert f"[Errno {errno.ENOLCK}]" in err["message"]

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
        assert manifest["outcome"]["error"] == "NonConvergent"
        assert "did not converge" in manifest["outcome"]["message"]
        rows = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        assert len(rows) >= 2
        assert_inventory_matches_disk(tmp_path / "run")

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), OSError(errno.EIO, "read failed")],
                             ids=["KeyboardInterrupt", "OSError"])
    def test_foreign_exception_writes_error_run_and_propagates(self, tmp_path, monkeypatch,
                                                               exc):
        # the third step raises an exception that is not the package's: the
        # run holds the records before it, and the exception goes on
        step, calls = flow_engine.step, []

        def failing_step(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise exc
            return step(*args, **kwargs)

        monkeypatch.setattr(flow_engine, "step", failing_step)
        run = tmp_path / "run"
        cfgp = write_config(tmp_path / "cfg.json", n=64, dt=4e-4)
        with pytest.raises(type(exc)) as info:
            cli.main(["simulate", "--config", str(cfgp), "--out", str(run)])
        assert info.value is exc
        outcome = json.loads((run / "manifest.json").read_text())["outcome"]
        assert (outcome["kind"], outcome["error"], outcome["message"]) == (
            "error", type(exc).__name__, str(exc))
        series = run_io.read_diagnostics_csv(run / "diagnostics.csv")
        assert list(series.column("step")) == [0, 1, 2]
        assert_inventory_matches_disk(run)
        assert (run / ".lock").read_text() == ""


def test_every_error_carries_the_readme_exit_code():
    errors, todo = [], [SphereFlowError]
    while todo:
        klass = todo.pop()
        errors.append(klass)
        todo.extend(klass.__subclasses__())
    assert len(errors) > len(README_CODES)
    for klass in errors:
        assert klass.exit_code == README_CODES.get(klass.__name__, 1), klass.__name__
        assert cli._fail(klass("x")) == klass.exit_code


def test_main_calls_commands_through_module_globals(monkeypatch):
    # a wrapper set on the module attribute (as a tracer does) must see the call
    calls = []
    monkeypatch.setattr(cli, "cmd_report", lambda run: calls.append(run) or 0)
    assert cli.main(["report", "--run", "somewhere"]) == 0
    assert calls == ["somewhere"]


def test_closed_stdout_exits_without_traceback(tmp_path, monkeypatch):
    # stdout's file descriptor now points at devnull, so the final flush is quiet
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "wb") as held:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(held.fileno()))
        assert cli.main(["barrier-check", "--grid", "20"]) == 1
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(held.fileno()), os.stat(os.devnull))


def test_console_exits_quietly_into_a_closed_pipe():
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)   # no reader: the first write to stdout fails
    try:
        proc = subprocess.run([sys.executable, "-m", "sphereflow.cli", "barrier-check"],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


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

    def test_force_rerun_loads_only_manifest_checkpoints(self, tmp_path):
        # a rerun with another cadence leaves none of the first run's
        # checkpoints, and verify reads only the listed ones: a planted file
        # that does not parse changes nothing
        run = tmp_path / "run"
        for every in (50, 70):
            cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, checkpoint_every=every)
            argv = ["simulate", "--config", str(cfgp), "--out", str(run)]
            assert cli.main(argv + (["--force"] if every == 70 else [])) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        listed = {f["path"] for f in manifest["files"] if f["path"].startswith("checkpoints/")}
        on_disk = {f"checkpoints/{p.name}" for p in (run / "checkpoints").iterdir()}
        assert on_disk == listed
        assert "checkpoints/step_00000050.csv" not in listed
        (run / "checkpoints" / "step_00000050.csv").write_bytes(b"x,y,z\nnot,a,curve\n\xff\n")
        assert cli.main(["verify", "--run", str(run)]) == 0
        steps = [step for step, _ in run_io.load_run(run).series.checkpoints]
        assert sorted(f"checkpoints/{run_io.checkpoint_name(s)}" for s in steps) == sorted(listed)

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

    def test_failed_force_rerun_drops_old_manifest(self, tmp_path, capsys):
        # the rerun stops on InsufficientData in the extinction fit; its own
        # manifest says so, and none of the first run's files is left
        run = tmp_path / "run"
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4)
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 0
        first = json.loads((run / "manifest.json").read_text())
        cfgp = write_config(tmp_path / "cfg.json", n=64, dt=4e-4, l_floor=3.0)
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run), "--force"]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "InsufficientData" and err["run_dir"] == str(run)
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["outcome"]["kind"] == "error"
        assert manifest["outcome"]["error"] == "InsufficientData"
        assert manifest["outcome"]["message"] == err["message"]
        assert manifest["config"]["n"] == 64
        listed = {f["path"] for f in manifest["files"] if f["path"].startswith("checkpoints/")}
        on_disk = {f"checkpoints/{p.name}" for p in (run / "checkpoints").iterdir()}
        assert listed and on_disk == listed
        assert {f["sha256"] for f in manifest["files"]}.isdisjoint(
            f["sha256"] for f in first["files"])
        assert_inventory_matches_disk(run)
        assert cli.main(["verify", "--run", str(run)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "MissingArtifacts"
        assert cli.main(["report", "--run", str(run)]) == 0
        out = capsys.readouterr().out
        assert "outcome       : error" in out
        assert "error         : InsufficientData" in out
        assert f"message       : {err['message']}" in out

    def test_error_before_the_flow_starts_writes_error_run(self, tmp_path, capsys, monkeypatch):
        # NotAdmissible comes before any diagnostics: the run names the error,
        # lists an empty diagnostics.csv and records no a
        def refuse(curve, tol):
            raise NotAdmissible("no a up to the cap")

        monkeypatch.setattr(chord_arc, "resolve_a", refuse)
        run = tmp_path / "run"
        cfgp = write_config(tmp_path / "cfg.json", n=64, dt=4e-4)
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "NotAdmissible"
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["outcome"] == {"kind": "error", "error": "NotAdmissible",
                                       "message": "no a up to the cap"}
        assert [f["path"] for f in manifest["files"]] == ["diagnostics.csv", "config.json"]
        assert (run / "diagnostics.csv").read_text() == run_io.DIAGNOSTICS_HEADER + "\n"
        assert_inventory_matches_disk(run)

    def test_force_rerun_keeps_other_files(self, tmp_path):
        # a rerun deletes only the names a run writes
        run = tmp_path / "run"
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4)
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 0
        kept = [run / "notes.txt", run / "manifest.json.bak", run / "checkpoints" / "step_0.txt",
                run / "checkpoints" / "start.csv"]
        for path in kept:
            path.write_text(path.name)
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run), "--force"]) == 0
        assert all(path.read_text() == path.name for path in kept)
        assert_inventory_matches_disk(run)

    def test_missing_listed_checkpoint(self, tmp_path):
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, checkpoint_every=500)
        run = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 0
        (run / "checkpoints" / "step_00000500.csv").unlink()
        assert cli.main(["verify", "--run", str(run)]) == 3

    def test_unparsable_checkpoint_is_config_error(self, tmp_path, capsys):
        # the manifest lists the edited bytes, so the row parser sees them
        cfgp = write_config(tmp_path / "cfg.json", n=128, dt=4e-4, checkpoint_every=500)
        run = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(run)]) == 0
        ckpt = run / "checkpoints" / "step_00000500.csv"
        lines = ckpt.read_text().splitlines()
        lines[5] = lines[5].replace(",", ",x", 1)
        ckpt.write_text("\n".join(lines) + "\n")
        relist(run, "checkpoints/step_00000500.csv")
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert "step_00000500.csv, line 6" in err["message"]

    def test_non_utf8_diagnostics_is_config_error(self, completed_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(completed_run, run)
        data = (run / "diagnostics.csv").read_bytes()
        (run / "diagnostics.csv").write_bytes(data.replace(b"nan", b"n\xe4n", 1))
        relist(run, "diagnostics.csv")
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert err["message"].startswith(f"{run / 'diagnostics.csv'}: not UTF-8")

    @pytest.mark.parametrize("name", ["step_\u00b2.csv", "step_" + "\u0660" * 8 + ".csv",
                                      "step_0.csv", "step_+0000000.csv", "step_00000000.CSV",
                                      "step_" + "1" * 5000 + ".csv"],
                             ids=["superscript", "arabic_indic", "unpadded", "plus_sign",
                                  "upper_case", "5000_digits"])
    def test_checkpoint_not_named_as_written_is_config_error(self, completed_run, tmp_path,
                                                             capsys, name):
        # superscript two is str.isdigit() and int() cannot read it; Arabic-Indic
        # zeros are str.isdecimal() and int() reads them; int() refuses 5000
        # digits. The program writes only checkpoint_name(step), and the names
        # are checked before any listed file is read.
        run = tmp_path / "run"
        shutil.copytree(completed_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        for entry in manifest["files"]:
            if entry["path"] == "checkpoints/step_00000000.csv":
                entry["path"] = f"checkpoints/{name}"
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert err["message"].startswith(str(run / "manifest.json"))
        assert "not a checkpoint name" in err["message"]

    @pytest.mark.parametrize("edit", ["swap", "repeat"])
    def test_checkpoints_out_of_step_order_are_config_error(self, completed_run, tmp_path,
                                                            capsys, edit):
        # the last listed checkpoint is the final curve that roundness judges
        run = tmp_path / "run"
        shutil.copytree(completed_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        files = manifest["files"]
        at = [k for k, entry in enumerate(files) if entry["path"].startswith("checkpoints/")]
        assert len(at) >= 2
        if edit == "swap":
            files[at[-2]], files[at[-1]] = files[at[-1]], files[at[-2]]
        else:
            files.append(files[at[0]])
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert err["message"].startswith(str(run / "manifest.json"))
        assert "checkpoint steps must increase" in err["message"]

    def test_load_run_opens_each_listed_file_once(self, completed_run, monkeypatch):
        # the bytes that are hashed are the bytes that are parsed
        opened = []
        path_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self.relative_to(completed_run).as_posix())
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        art = run_io.load_run(completed_run)
        listed = [entry["path"] for entry in art.manifest["files"]]
        assert len(listed) > 2 and len(art.series.checkpoints) == len(listed) - 2
        assert sorted(opened) == sorted(listed + ["manifest.json"])

    @pytest.mark.parametrize("rel, edit, what", [
        # a vertex or a diagnostics cell changed in place: the same size
        ("checkpoints/step_00000500.csv", lambda text: change_last_digit(text, 6), "SHA-256"),
        ("diagnostics.csv", lambda text: change_last_digit(text, 3), "SHA-256"),
        # a blank line more, which the row parser would skip
        ("checkpoints/step_00000000.csv", lambda text: text + "\n", "bytes"),
    ])
    def test_file_that_differs_from_its_manifest_entry(self, completed_run, tmp_path,
                                                       capsys, rel, edit, what):
        run = tmp_path / "run"
        shutil.copytree(completed_run, run)
        path = run / rel
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert cli.main(["verify", "--run", str(run)]) == 6
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "CorruptArtifacts"
        assert str(path) in err["message"] and what in err["message"]

    @pytest.mark.parametrize("command, name, edit", [
        ("verify", "manifest.json", lambda text: text[:100]),
        ("report", "manifest.json", lambda text: text[:100]),
        ("verify", "manifest.json", lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "config"})),
        ("verify", "manifest.json", lambda text: json.dumps(
            {**json.loads(text), "outcome": {**json.loads(text)["outcome"], "a_resolved": "x"}})),
        ("report", "manifest.json", lambda text: json.dumps(
            {**json.loads(text), "files": {}})),
        ("report", "verdicts.json", lambda text: text[:50]),
        ("report", "verdicts.json", lambda text: json.dumps(
            [{**v, "worst_step": None} for v in json.loads(text)])),
    ])
    def test_malformed_run_file_is_config_error(self, completed_run, tmp_path, capsys,
                                                command, name, edit):
        run = tmp_path / "run"
        shutil.copytree(completed_run, run)
        if not (run / "verdicts.json").exists():
            assert cli.main(["verify", "--run", str(run)]) == 0
        (run / name).write_text(edit((run / name).read_text()))
        capsys.readouterr()
        assert cli.main([command, "--run", str(run)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError" and str(run / name) in err["message"]

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

    def test_non_utf8_curve_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y,z\n1.0,0.0,0.0 # caf\u00e9\n".encode("latin-1"))
        assert cli.main(["profile", "--curve", str(path), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError"
        assert err["message"].startswith(f"{path}: not UTF-8")

    def test_directory_as_curve_is_missing(self, tmp_path, capsys):
        assert cli.main(["profile", "--curve", str(tmp_path), "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "MissingArtifacts"
        assert str(tmp_path) in err["message"]

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

    def test_a_zero_is_the_limiting_profile(self, capsys):
        # tan(a phi)/a -> phi, so F is the constant L^2/pi^2 - 4 at a = 0
        assert cli.main(["barrier-check", "--a", "0", "--L", "3.0", "--grid", "20"]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        assert case["F"]["min_margin"] == 4.0 - 9.0 / math.pi ** 2

    def test_a_zero_at_the_great_circle_reports_its_violations(self, capsys):
        # L = 2 pi at a = 0 is the equality case: F = 0, and h(L phi) is not
        # strictly concave at z = 1/2
        assert cli.main(["barrier-check", "--a", "0", "--L", str(2 * math.pi),
                         "--grid", "20"]) == 1
        report = json.loads(capsys.readouterr().out)
        case = report["cases"][0]
        assert report["violations"] == 2
        assert case["F"]["min_margin"] == 0.0
        margins = {p["property"]: p["min_margin"] for p in case["properties"]}
        assert -1.1e-6 < margins["concavity_of_h"] < -1.0e-6
        assert all(m > 0.0 for name, m in margins.items() if name != "concavity_of_h")

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_grid_below_two_is_an_error(self, capsys, grid):
        assert cli.main(["barrier-check", "--grid", grid]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "PreconditionViolation"
        assert f"got {grid}" in err["message"]


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

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_bytes(b'{"generator": {"kind": "parallel"}, "output_dir": "r\xe9sum\xe9"}')
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigParseError" and str(cfgp) in err["message"]

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

    # json.dumps writes math.inf as Infinity and math.nan as NaN, which
    # json.load reads back; 10 ** 400 is an integer no float can hold
    @pytest.mark.parametrize("overrides,message", [
        ({"dt": math.inf}, "dt must be a finite number"),
        ({"t_max": math.inf}, "t_max must be a finite number"),
        ({"c_cfl": -math.inf}, "c_cfl must be a finite number"),
        ({"gc_kappa_tol": math.nan}, "gc_kappa_tol must be a finite number"),
        ({"dt": 10 ** 400}, "dt must be a finite number"),
        ({"a": math.inf}, "a must be a finite number"),
        ({"generator": {"kind": "parallel", "theta0": math.nan}},
         "generator.theta0 must be a finite number"),
        ({"generator": {"kind": "great_circle", "axis": [0.0, math.nan, 1.0]}},
         "generator.axis must be a list of 3 finite numbers"),
        ({"generator": {"kind": "fourier_perturbed", "modes": [2], "amplitudes": [math.nan]}},
         "generator.amplitudes must be a list of finite numbers"),
        ({"generator": {"kind": "fourier_perturbed", "modes": [10 ** 400], "amplitudes": [0.1]}},
         "generator.modes must be a list of integers that a float can hold"),
    ])
    def test_non_finite_number_names_field(self, tmp_path, capsys, overrides, message):
        cfgp = write_config(tmp_path / "cfg.json", **overrides)
        assert any(word in cfgp.read_text() for word in ("Infinity", "NaN", "0" * 400))
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert (err["error"], err["message"]) == ("ConfigParseError", message)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["n", "n_floor"])
    def test_vertex_count_above_2_to_the_20_names_field(self, tmp_path, capsys, name):
        # n = 10 ** 400 once reached np.arange(n), and simulate exited 1 with a traceback
        gen = {"kind": "great_circle"}
        assert getattr(config_from_dict({"generator": gen, name: 2 ** 20}), name) == 2 ** 20
        for value in (10 ** 400, 2 ** 20 + 1):
            cfgp = write_config(tmp_path / "cfg.json", **{name: value})
            assert cli.main(["simulate", "--config", str(cfgp),
                             "--out", str(tmp_path / "run")]) == 2
            err = json.loads(capsys.readouterr().out)
            assert (err["error"], err["message"]) == (
                "ConfigParseError", f"{name} must be at least 8 and at most 2**20 (1048576)")
            assert not (tmp_path / "run").exists()

    def test_seed_below_2_to_the_64(self):
        # splitmix64 keeps a seed's low 64 bits: s and s + 2**64 would draw one curve
        gen = {"kind": "fourier_perturbed", "modes": [2, 3], "amplitudes": [0.1, 0.05]}
        cfg = config_from_dict({"generator": gen, "seed": 2 ** 64 - 1})
        assert cfg.seed == 2 ** 64 - 1
        for seed in (2 ** 64, 2 ** 64 + 5, 10 ** 30):
            with pytest.raises(ConfigParseError,
                               match=r"^seed must be nonnegative and below 2\*\*64$"):
                config_from_dict({"generator": gen, "seed": seed})
