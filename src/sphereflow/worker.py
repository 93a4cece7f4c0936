"""One forked worker process on a CPU of its own: whether there is one to
be had, and the fork.

`spare_cpus` is the test that `offload.start` (the flow run's helper) and
`chord_arc.profile` (the second half of a long pairwise pass) both make. A
worker pays only where it gets a CPU the caller is not on: Linux leaves a
new process on its parent's CPU, and unpinned the two share it, which is
slower than doing the work in place. So the worker is pinned to the allowed
CPUs other than the caller's, and where those cannot be named (fewer than
two CPUs allowed, a cgroup quota under two CPUs' time, the caller's CPU
unreadable, or a platform without os.sched_getaffinity, which is Linux's)
there is no spare CPU and the caller does the work in place.
"""

from __future__ import annotations

import math
import os
# at start-up: in a worker, the import took 7-8 ms of copy-on-write faults
import signal

_PROC_CGROUP, _CGROUP_ROOT = "/proc/self/cgroup", "/sys/fs/cgroup"


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _quota_at(directory: str, v2: bool) -> float:
    """CPUs' worth of time one cgroup directory allows; inf for none."""
    try:
        if v2:
            with open(os.path.join(directory, "cpu.max")) as fh:
                quota, period = fh.read().split()
        else:
            with open(os.path.join(directory, "cpu.cfs_quota_us")) as fh:
                quota = fh.read()
            with open(os.path.join(directory, "cpu.cfs_period_us")) as fh:
                period = fh.read()
        cpus = int(quota) / int(period)
    except (OSError, ValueError, ZeroDivisionError):   # "max", or unreadable
        return math.inf
    return cpus if cpus > 0 else math.inf               # v1's -1 is no quota


def _cpu_quota() -> float:
    """The least CPU quota of the process's cgroups and their ancestors
    (cgroup v2 cpu.max, or v1 cpu.cfs_quota_us / cpu.cfs_period_us), in
    CPUs; inf where none is set or readable."""
    try:
        with open(_PROC_CGROUP) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return math.inf
    least = math.inf
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if controllers and "cpu" not in controllers.split(","):
            continue
        base = _CGROUP_ROOT if not controllers else os.path.join(_CGROUP_ROOT, "cpu")
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            least = min(least, _quota_at(os.path.join(base, *parts[:depth]), not controllers))
    return least


def spare_cpus() -> set[int]:
    """The allowed CPUs other than the one this process is on, where a
    worker gets two CPUs' time; empty where it would not."""
    if not hasattr(os, "sched_getaffinity"):
        return set()
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2 or _cpu_quota() < 2:
        return set()
    cpu = _current_cpu()
    return set() if cpu is None else allowed - {cpu}


def fork(cpus: set[int], keep: tuple[int, ...], work) -> int:
    """Fork a worker that runs work() and exits; return its pid.

    The worker ignores SIGINT (an interrupt is the caller's to handle),
    holds no descriptor but 0-2 and keep (a run directory's lock, for one,
    stays with the caller) and is pinned to cpus. It exits 0 once work
    returns and 1 if work raises; a BrokenPipeError (the caller stopped
    reading) or a KeyboardInterrupt (one that came before SIGINT was
    ignored) ends it quietly, anything else with a traceback. It never
    returns into the caller's code. Raises OSError where no process can be
    had.
    """
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        low = 3
        for fd in sorted(keep):
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        os.sched_setaffinity(0, cpus)
        work()
        code = 0
    except (BrokenPipeError, KeyboardInterrupt):
        pass
    except BaseException:
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)

