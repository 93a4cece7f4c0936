"""The run's min_Z records and checkpoint bytes, made in a helper process
(two or more CPUs allowed) or in place (one): the same bytes either way, and
no helper left behind on any exit path."""

import fcntl
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_reaped, ignores_sigint, needs_two_cpus
from sphereflow import chord_arc, cli, flow_engine, offload, run_io, worker
from sphereflow.barrier import BarrierParams
from sphereflow.config import GeneratorSpec, RunConfig, config_to_dict
from sphereflow.errors import Degenerate

# z_every == checkpoint_every: each min_Z record has its curve on disk
SHRINKING = RunConfig(generator=GeneratorSpec(kind="parallel", theta0=math.pi / 3),
                      n=128, dt=2e-4, t_max=5.0, checkpoint_every=40, z_every=40)
PIPELINE = RunConfig(
    generator=GeneratorSpec(kind="fourier_perturbed", axis=(0.6, 0.0, 0.8), modes=(1, 3),
                            amplitudes=(0.2, 0.1), antipodal_symmetric=True),
    n=512, dt=2e-3, t_max=4.0, seed=7, checkpoint_every=25)


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def failing_step(monkeypatch, at: int, exc: BaseException):
    """flow_engine.step raises exc instead of making step `at`."""
    step = flow_engine.step

    def failing(state, dt, **kwargs):
        if state.step_index + 1 == at:
            raise exc
        return step(state, dt, **kwargs)

    monkeypatch.setattr(flow_engine, "step", failing)


def simulate(tmp_path, cfg, name) -> dict:
    """cli simulate of cfg into tmp_path/name: every run file's bytes, the
    manifest without its timestamps."""
    cfgp = tmp_path / f"{name}.json"
    cfgp.write_text(json.dumps(config_to_dict(cfg)))
    run = tmp_path / name
    cli.main(["simulate", "--config", str(cfgp), "--out", str(run)])
    files = {str(p.relative_to(run)): p.read_bytes() for p in run.rglob("*") if p.is_file()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["started_at"], manifest["finished_at"]
    return {"manifest": manifest, **files}


class TestSameOutputs:
    @pytest.mark.parametrize("where", ["helper", "in_process"])
    def test_min_Z_records_are_min_Z_of_checkpoints(self, request, where):
        if where == "in_process":
            request.getfixturevalue("one_cpu")
        series, _ = flow_engine.run(SHRINKING)
        z = series.column("min_Z")
        recorded = np.flatnonzero(~np.isnan(z))
        steps = [step for step, _ in series.checkpoints]
        assert list(series.column("step")[recorded]) == steps
        assert len(steps) > 20
        for row, (step, curve) in zip(recorded, series.checkpoints):
            params = BarrierParams(a=series.a_resolved, tau=series.column("tau")[row])
            assert z[row] == chord_arc.min_Z(curve, params)
            assert series.checkpoint_bytes[step] == run_io.curve_csv(curve)

    @needs_two_cpus
    def test_simulate_writes_the_in_process_bytes(self, tmp_path, monkeypatch, helpers):
        ours = simulate(tmp_path, PIPELINE, "helper")
        assert len(helpers[0]) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        reference = simulate(tmp_path, PIPELINE, "in_process")
        assert len(helpers[0]) == 1   # no fork on one CPU
        assert ours == reference
        assert len([name for name in ours if name.startswith("checkpoints/")]) > 80

    def test_step_error_run_keeps_earlier_min_Z(self, tmp_path, monkeypatch):
        failing_step(monkeypatch, 107, Degenerate("injected"))
        ours = simulate(tmp_path, SHRINKING, "helper")
        assert ours["manifest"]["outcome"]["error"] == "Degenerate"
        rows = ours["diagnostics.csv"].decode().splitlines()[1:]
        assert len(rows) == 107
        assert [int(r.split(",")[0]) for r in rows if r.split(",")[5] != "nan"] == [0, 40, 80]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert ours == simulate(tmp_path, SHRINKING, "in_process")

    @needs_two_cpus
    def test_result_ready_before_its_record_is_appended(self, monkeypatch):
        # each write is followed by a pause, so the helper's result for a
        # record can be in the pipe before run has appended that record's row
        write = os.write

        def slow_write(fd, data):
            written = write(fd, data)
            time.sleep(0.002)
            return written

        monkeypatch.setattr(os, "write", slow_write)
        series, _ = flow_engine.run(SHRINKING)
        z = series.column("min_Z")
        assert list(np.flatnonzero(~np.isnan(z))) == [step for step, _ in series.checkpoints]

    @needs_two_cpus
    def test_tasks_larger_than_the_pipe(self):
        # at n = 2048 a task is 65.6 kB, more than a pipe holds, and each
        # min_Z takes longer than a step, so the run waits on the helper
        cfg = RunConfig(generator=GeneratorSpec(kind="great_circle"), n=2048, dt=1e-6,
                        t_max=3e-5, checkpoint_every=1, z_every=1)
        ours, _ = flow_engine.run(cfg)
        assert len(ours.checkpoints) == 11   # the great circle's plateau, at step 10
        for row, (step, curve) in enumerate(ours.checkpoints):
            params = BarrierParams(a=ours.a_resolved, tau=ours.column("tau")[row])
            assert ours.column("min_Z")[row] == chord_arc.min_Z(curve, params)
            assert ours.checkpoint_bytes[step] == run_io.curve_csv(curve)

    @needs_two_cpus
    def test_descriptors_numbered_past_fd_setsize(self, helpers):
        # with 1100 more files open, the pipes' descriptors are above 1024,
        # which select() cannot take
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if hard != resource.RLIM_INFINITY and hard < 1200:
            pytest.skip(f"the hard limit on open files is {hard}, below 1200")
        resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, 1200), hard))
        held = []
        try:
            for _ in range(1100):
                held.append(os.open(os.devnull, os.O_RDONLY))
            series, _ = flow_engine.run(SHRINKING)
        finally:
            for fd in held:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        forked, reaped = helpers
        assert len(forked) == 1 and os.waitstatus_to_exitcode(reaped[forked[0]]) == 0
        z = series.column("min_Z")
        assert list(np.flatnonzero(~np.isnan(z))) == [step for step, _ in series.checkpoints]

    @needs_two_cpus
    def test_run_holds_only_the_min_Z_tasks_in_flight(self, helpers, monkeypatch):
        # a min_Z record on every step, a checkpoint every 400: the run stores
        # each min_Z as it comes back, so it keeps the curves of the tasks in
        # the pipe and in the helper's read buffer, not of every record
        task, held = offload.Helper._task, []

        def counting_task(side, wants_z, key, curve, tau):
            task(side, wants_z, key, curve, tau)
            held.append(sum(wants_z for wants_z, _ in side._sent))

        monkeypatch.setattr(offload.Helper, "_task", counting_task)
        series, _ = flow_engine.run(replace(SHRINKING, z_every=1, checkpoint_every=400))
        assert len(helpers[0]) == 1 and len(series) > 4000
        assert not np.isnan(series.column("min_Z")).any()
        r, w = os.pipe()
        capacity = fcntl.fcntl(w, fcntl.F_GETPIPE_SZ)
        os.close(r), os.close(w)
        smallest_task = 25 + 8 * (4 * SHRINKING.n_floor + 3)
        assert max(held) <= (capacity + io.DEFAULT_BUFFER_SIZE) // smallest_task + 2


@needs_two_cpus
class TestNoHelperLeft:
    def test_after_return(self, helpers):
        flow_engine.run(SHRINKING)
        forked, reaped = helpers
        assert len(forked) == 1 and os.waitstatus_to_exitcode(reaped[forked[0]]) == 0
        assert_reaped(forked)

    @pytest.mark.parametrize("exc", [Degenerate("injected"), KeyboardInterrupt()],
                             ids=["Degenerate", "KeyboardInterrupt"])
    def test_after_raise(self, helpers, monkeypatch, exc):
        failing_step(monkeypatch, 90, exc)
        with pytest.raises(type(exc)) as info:
            flow_engine.run(SHRINKING)
        z = info.value.series.column("min_Z")
        assert list(np.flatnonzero(~np.isnan(z))) == [0, 40, 80]
        assert len(helpers[0]) == 1
        assert_reaped(helpers[0])

    def test_helper_ignores_sigint(self, helpers, monkeypatch):
        # SIGINT to the helper alone, once it ignores it: the run's results
        # still come from the helper, which exits normally
        forked, reaped = helpers
        step = flow_engine.step

        def interrupting_step(state, dt, **kwargs):
            if state.step_index == 50:
                deadline = time.monotonic() + 10.0
                while not ignores_sigint(forked[0]):
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                os.kill(forked[0], signal.SIGINT)
            return step(state, dt, **kwargs)

        monkeypatch.setattr(flow_engine, "step", interrupting_step)
        series, _ = flow_engine.run(SHRINKING)
        assert os.waitstatus_to_exitcode(reaped[forked[0]]) == 0
        assert not np.isnan(series.column("min_Z")[::40]).any()

    def test_work_of_a_killed_helper_is_done_in_place(self, helpers, monkeypatch):
        forked, step = helpers[0], flow_engine.step

        def killing_step(state, dt, **kwargs):
            if state.step_index == 50:
                os.kill(forked[0], signal.SIGKILL)
            return step(state, dt, **kwargs)

        monkeypatch.setattr(flow_engine, "step", killing_step)
        ours, _ = flow_engine.run(SHRINKING)
        assert os.waitstatus_to_exitcode(helpers[1][forked[0]]) == -signal.SIGKILL
        monkeypatch.setattr(flow_engine, "step", step)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        theirs, _ = flow_engine.run(SHRINKING)
        assert np.array_equal(ours.rows(), theirs.rows(), equal_nan=True)
        assert ours.checkpoint_bytes == theirs.checkpoint_bytes

    def test_result_stream_cut_mid_frame(self, helpers, monkeypatch):
        # the helper writes half of its third result and exits: that result
        # and every later one are done in place
        run_pid, write_all, frames = os.getpid(), offload._write_all, []

        def cutting_write_all(fd, data):
            if os.getpid() != run_pid:
                frames.append(data)
                if len(frames) == 3:
                    write_all(fd, data[:len(data) // 2])
                    os._exit(7)
            write_all(fd, data)

        monkeypatch.setattr(offload, "_write_all", cutting_write_all)
        ours, _ = flow_engine.run(SHRINKING)
        forked, reaped = helpers
        assert os.waitstatus_to_exitcode(reaped[forked[0]]) == 7
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        theirs, _ = flow_engine.run(SHRINKING)
        assert np.array_equal(ours.rows(), theirs.rows(), equal_nan=True)
        assert ours.checkpoint_bytes == theirs.checkpoint_bytes

    def test_helper_is_pinned_off_one_allowed_cpu(self, helpers, monkeypatch):
        forked, step, seen = helpers[0], flow_engine.step, []

        def watching_step(state, dt, **kwargs):
            if state.step_index == 50:
                seen.append(os.sched_getaffinity(forked[0]))
            return step(state, dt, **kwargs)

        monkeypatch.setattr(flow_engine, "step", watching_step)
        flow_engine.run(SHRINKING)
        allowed = os.sched_getaffinity(0)
        assert seen[0] < allowed and len(seen[0]) == len(allowed) - 1

    def test_interrupt_while_sending_a_record_that_fills_the_rows(self, helpers, monkeypatch):
        # row 256 is the first past the series' initial 256 rows; Ctrl-C while
        # its task is being sent leaves the task for __exit__, which stores
        # its min_Z in that row
        cfg = replace(SHRINKING, z_every=16)
        step, write, at_256 = flow_engine.step, os.write, []

        def marking_step(state, dt, **kwargs):
            new_state = step(state, dt, **kwargs)
            if new_state.step_index == 256:
                at_256.append(True)
            return new_state

        def interrupted_write(fd, data):
            if at_256 and at_256.pop():   # the first write after step 256
                raise KeyboardInterrupt
            return write(fd, data)

        monkeypatch.setattr(flow_engine, "step", marking_step)
        monkeypatch.setattr(os, "write", interrupted_write)
        with pytest.raises(KeyboardInterrupt) as info:
            flow_engine.run(cfg)
        ours = info.value.series
        assert len(ours) == 257 and not math.isnan(ours.column("min_Z")[256])
        assert_reaped(helpers[0])
        monkeypatch.setattr(flow_engine, "step", step)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        theirs, _ = flow_engine.run(cfg)
        assert np.array_equal(ours.rows(), theirs.rows()[:257], equal_nan=True)

    def test_interrupt_between_reading_min_Z_and_storing_it(self, helpers, monkeypatch):
        # Ctrl-C after the run has read min_Z values from the pipe and before
        # it stores them: they are gone from the pipe, and __exit__ does
        # those records in place, and the record being sent. The pause at
        # step 30 lets the helper answer the record at step 0 before the
        # send at step 40 reads it.
        step, read, lost = flow_engine.step, os.read, []

        def pausing_step(state, dt, **kwargs):
            if state.step_index == 30:
                time.sleep(1.0)
            return step(state, dt, **kwargs)

        def interrupted_read(fd, size):
            data = read(fd, size)
            if data and not lost:
                lost.append(data)
                raise KeyboardInterrupt
            return data

        monkeypatch.setattr(flow_engine, "step", pausing_step)
        monkeypatch.setattr(os, "read", interrupted_read)
        with pytest.raises(KeyboardInterrupt) as info:
            flow_engine.run(SHRINKING)
        ours = info.value.series
        assert len(lost) == 1 and len(ours) == 41
        assert_reaped(helpers[0])
        monkeypatch.setattr(flow_engine, "step", step)
        monkeypatch.setattr(os, "read", read)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        theirs, _ = flow_engine.run(SHRINKING)
        assert np.array_equal(ours.rows(), theirs.rows()[:41], equal_nan=True)
        assert not np.isnan(ours.column("min_Z")[[0, 40]]).any()

    def test_helper_exits_when_the_run_is_killed(self, tmp_path):
        # the helper reads end-of-file once its parent is gone, and exits
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config_to_dict(SHRINKING)))
        src = Path(cli.__file__).resolve().parents[1]
        run = subprocess.Popen([sys.executable, "-c", KILLED_RUN, str(cfgp)],
                               env={**os.environ, "PYTHONPATH": str(src)},
                               stdout=subprocess.PIPE, text=True)
        try:
            helper = int(run.stdout.readline())
            assert run.stdout.readline() == "stalled\n"
        finally:
            run.kill()
            run.wait(timeout=30)
            run.stdout.close()
        stat = Path(f"/proc/{helper}/stat")
        deadline = time.monotonic() + 30.0
        # gone, or a zombie left to whatever reaps orphans here
        while stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
            assert time.monotonic() < deadline, "the helper outlived its run"
            time.sleep(0.01)


class TestCpuQuota:
    @pytest.fixture
    def cgroups(self, tmp_path, monkeypatch):
        """Write a /proc/self/cgroup and the files under a cgroup root."""
        def write(proc_cgroup: str, files: dict[str, str]):
            (tmp_path / "cgroup").write_text(proc_cgroup)
            for rel, text in files.items():
                (tmp_path / "root" / rel).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / "root" / rel).write_text(text)
            monkeypatch.setattr(worker, "_PROC_CGROUP", str(tmp_path / "cgroup"))
            monkeypatch.setattr(worker, "_CGROUP_ROOT", str(tmp_path / "root"))
        return write

    def test_v2_least_along_the_path(self, cgroups):
        cgroups("0::/a/b\n", {"cpu.max": "max 100000\n", "a/cpu.max": "150000 100000\n",
                              "a/b/cpu.max": "400000 100000\n"})
        assert worker._cpu_quota() == 1.5

    def test_v1(self, cgroups):
        cgroups("4:memory:/m\n3:cpu,cpuacct:/jobs\n",
                {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n",
                 "cpu/jobs/cpu.cfs_quota_us": "50000\n", "cpu/jobs/cpu.cfs_period_us": "100000\n"})
        assert worker._cpu_quota() == 0.5

    def test_none_set(self, cgroups):
        cgroups("0::/\n3:cpu:/\n", {"cpu/cpu.cfs_quota_us": "-1\n",
                                     "cpu/cpu.cfs_period_us": "100000\n"})
        assert worker._cpu_quota() == math.inf

    def test_quota_below_two_cpus_runs_in_place(self, cgroups, helpers, monkeypatch):
        cgroups("0::/\n", {"cpu.max": "150000 100000\n"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        ours, _ = flow_engine.run(SHRINKING)
        assert helpers[0] == []
        assert not np.isnan(ours.column("min_Z")[::40]).any()

    def test_unread_cpu_runs_in_place(self, helpers, monkeypatch):
        # the run's CPU unknown, a helper could be pinned to it as well
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(worker, "_cpu_quota", lambda: math.inf)
        monkeypatch.setattr(worker, "_current_cpu", lambda: None)
        assert worker.spare_cpus() == set()
        ours, _ = flow_engine.run(SHRINKING)
        assert helpers[0] == []
        assert not np.isnan(ours.column("min_Z")[::40]).any()


# A run that prints its helper's pid, then stalls at step 45 until killed.
KILLED_RUN = """
import os, sys, time
from sphereflow import flow_engine
from sphereflow.config import load_config
fork, step = os.fork, flow_engine.step
def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
def stalled_step(state, dt, **kwargs):
    if state.step_index == 45:
        print("stalled", flush=True)
        time.sleep(120)
    return step(state, dt, **kwargs)
os.fork, flow_engine.step = announcing_fork, stalled_step
flow_engine.run(load_config(sys.argv[1]))
"""
