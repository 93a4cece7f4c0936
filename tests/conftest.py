"""Shared flow runs for the harness and acceptance suites (computed once),
and the record of forked processes that the offload and profile tests keep."""

import math
import os
import signal
import time
from pathlib import Path

import pytest

from sphereflow import flow_engine, worker
from sphereflow.config import GeneratorSpec, RunConfig

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or worker._cpu_quota() < 2,
    reason="a helper or worker is forked only where two CPUs' time is to be had")


def _timed_run(cfg):
    start = time.perf_counter()
    series, outcome = flow_engine.run(cfg)
    return {"config": cfg, "series": series, "outcome": outcome,
            "wall_seconds": time.perf_counter() - start}


@pytest.fixture(scope="session")
def parallel_run():
    cfg = RunConfig(generator=GeneratorSpec(kind="parallel", theta0=math.pi / 3),
                    n=512, dt=1e-4, t_max=5.0, checkpoint_every=500)
    return _timed_run(cfg)


@pytest.fixture(scope="session")
def parallel_run_hires():
    cfg = RunConfig(generator=GeneratorSpec(kind="parallel", theta0=math.pi / 3),
                    n=1024, dt=5e-5, t_max=5.0, checkpoint_every=1000, z_every=10 ** 9)
    return _timed_run(cfg)


@pytest.fixture(scope="session")
def perturbed_equator_run():
    gen = GeneratorSpec(kind="fourier_perturbed", axis=(0.0, 0.0, 1.0),
                        modes=(1, 3), amplitudes=(0.2, 0.1), antipodal_symmetric=True)
    cfg = RunConfig(generator=gen, n=512, dt=2e-4, t_max=2.0, seed=7,
                    checkpoint_every=500)
    return _timed_run(cfg)


@pytest.fixture(scope="session")
def symmetrized_equator_run():
    gen = GeneratorSpec(kind="fourier_perturbed", axis=(0.0, 0.0, 1.0),
                        modes=(1, 3), amplitudes=(0.2, 0.1), antipodal_symmetric=True)
    cfg = RunConfig(generator=gen, n=512, dt=2e-4, t_max=4.0, seed=7,
                    checkpoint_every=500, symmetrize=True)
    return _timed_run(cfg)


@pytest.fixture(scope="session")
def perturbed_parallel_run():
    gen = GeneratorSpec(kind="fourier_perturbed", axis=(0.0, 0.0, 1.0),
                        modes=(0, 2, 3), amplitudes=(0.45, 0.08, 0.05))
    cfg = RunConfig(generator=gen, n=512, dt=1e-4, t_max=5.0, seed=11,
                    checkpoint_every=500)
    return _timed_run(cfg)


@pytest.fixture
def helpers(monkeypatch):
    """The pid of each helper or worker forked, and each exit status reaped, by pid."""
    forked, reaped, fork, waitpid = [], {}, os.fork, os.waitpid

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def recording_waitpid(pid, options):
        got = waitpid(pid, options)
        reaped[got[0]] = got[1]
        return got

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return forked, reaped


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):   # not a child of ours any more
            os.waitpid(pid, os.WNOHANG)


def ignores_sigint(pid: int) -> bool:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("SigIgn:"):
            return bool(int(line.split()[1], 16) & 1 << (signal.SIGINT - 1))
    return False
