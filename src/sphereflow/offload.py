"""The part of a flow run that no later step reads: the min_Z of each
scheduled record and the CSV bytes of each checkpoint.

`start` picks where it runs. Where at least two CPUs are allowed and no
cgroup quota holds the process to less than two CPUs' time, a Helper forks
one helper process of the same program and pins it to the allowed CPUs
other than the one the run is on (Linux leaves a new process on its parent's
CPU, so unpinned the two would share it). The run's process sends it each
curve through a pipe and goes on stepping. Otherwise, or where the platform
cannot say (os.sched_getaffinity is Linux's), InProcess does the same work
in place, as a run always did. Both compute the same function of the same
doubles, so a run's outputs do not depend on which one ran.

The helper ignores SIGINT and exits at end-of-file on its pipe, so it ends
when the run closes the pipe and when the run's process dies. On the way out
of `with`, a Helper collects every result, reaps the helper and computes in
place whatever the helper did not send back (the helper died, or a task was
cut short by an interrupt).
"""

from __future__ import annotations

import math
import os
import select
import struct
from collections import deque

import numpy as np

from . import chord_arc
from .barrier import BarrierParams
from .run_io import curve_csv
from .sphere_geometry import DiscreteCurve, _curve

# A task is (wants min_Z, else the checkpoint's bytes; tau; n), then the
# curve's (3, n + 1) rows and its n segment lengths as float64. A result is
# its payload's size, then the payload: min_Z as one float64, or the bytes.
_TASK = struct.Struct("<?dq")
_SIZE = struct.Struct("<q")
_FLOAT = struct.Struct("<d")

_PROC_CGROUP, _CGROUP_ROOT = "/proc/self/cgroup", "/sys/fs/cgroup"


class InProcess:
    """The work done where it is asked for, into series, the run's
    DiagnosticsSeries, with a its barrier parameter."""

    def __init__(self, series, a: float):
        self.series, self.a = series, a

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def min_Z(self, row: int, curve: DiscreteCurve, tau: float) -> None:
        """Store min_Z in record row, already appended (until __exit__ where
        the work is done elsewhere)."""
        self._put(True, row, self._result(True, curve, tau))

    def checkpoint(self, step: int, curve: DiscreteCurve) -> None:
        """Append a checkpoint to series, and keep its CSV bytes (until
        __exit__ where the work is done elsewhere)."""
        self.series.checkpoints.append((step, curve))
        self._put(False, step, self._result(False, curve, 0.0))

    def _result(self, wants_z: bool, curve: DiscreteCurve, tau: float):
        if wants_z:
            return chord_arc.min_Z(curve, BarrierParams(a=self.a, tau=tau))
        return curve_csv(curve)

    def _put(self, wants_z: bool, key: int, value) -> None:
        """Store min_Z in record row key, or the bytes of checkpoint step key."""
        if wants_z:
            self.series.put(key, "min_Z", value)
        else:
            self.series.checkpoint_bytes[key] = value


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


def start(series, a: float) -> InProcess:
    """A Helper where two CPUs' time is to be had, else InProcess."""
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:   # not Linux
        return InProcess(series, a)
    if len(allowed) < 2 or _cpu_quota() < 2:
        return InProcess(series, a)
    try:
        return Helper(series, a, allowed - {_current_cpu()})
    except OSError:          # no process or pipe to be had: do it here
        return InProcess(series, a)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Helper(InProcess):
    """The work done in one forked helper process pinned to cpus."""

    def __init__(self, series, a: float, cpus: set[int]):
        super().__init__(series, a)
        # (wants min_Z, row or step, curve, tau), oldest first. An entry is
        # added before its task is sent and dropped after its result is
        # stored, so an interrupt between the two leaves it for __exit__.
        self._pending: deque = deque()
        self._received = bytearray()
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self._pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        task_r, self._tasks, self._results, result_w = fds
        if self._pid == 0:
            code = 1
            try:
                import signal
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # hold nothing of the run's process but the two pipe ends:
                # the run directory's lock, for one, goes with the run
                low, high = sorted((task_r, result_w))
                os.closerange(3, low)
                os.closerange(low + 1, high)
                os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
                os.sched_setaffinity(0, cpus)
                self._serve(task_r, result_w)
                code = 0
            except (BrokenPipeError, KeyboardInterrupt):
                pass   # the run has stopped reading, or was interrupted at the fork
            except BaseException:
                import traceback
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        os.set_blocking(self._tasks, False)
        os.set_blocking(self._results, False)

    def _serve(self, task_r: int, result_w: int) -> None:
        """The helper's loop: one result per task, until end-of-file."""
        tasks = os.fdopen(task_r, "rb")
        while True:
            head = tasks.read(_TASK.size)
            if len(head) < _TASK.size:
                return
            wants_z, tau, n = _TASK.unpack(head)
            body = tasks.read(8 * (4 * n + 3))
            if len(body) < 8 * (4 * n + 3):
                return   # a task cut short: __exit__ does it in place
            rows = np.frombuffer(body, count=3 * (n + 1)).reshape(3, n + 1)
            ds = np.frombuffer(body, offset=rows.nbytes)
            value = self._result(wants_z, _curve(rows, ds), tau)
            data = _FLOAT.pack(value) if wants_z else value
            _write_all(result_w, _SIZE.pack(len(data)) + data)

    def min_Z(self, row: int, curve: DiscreteCurve, tau: float) -> None:
        self._send((True, row, curve, tau))

    def checkpoint(self, step: int, curve: DiscreteCurve) -> None:
        self.series.checkpoints.append((step, curve))
        self._send((False, step, curve, 0.0))

    def _send(self, entry: tuple) -> None:
        # store what has come back first, so the helper never waits to write
        self._receive()
        wants_z, _, curve, tau = entry
        self._pending.append(entry)
        if self._tasks is None:
            return   # the helper is gone
        task = (_TASK.pack(wants_z, tau, curve.n)
                + curve.rows.tobytes() + curve.seg_lengths.tobytes())
        view = memoryview(task)
        try:
            while view and self._tasks is not None:
                try:
                    view = view[os.write(self._tasks, view):]
                except BlockingIOError:
                    # the helper is behind: wait for room, or for a result
                    # to read, which the helper may be waiting to write
                    select.select([self._results], [self._tasks], [])
                    self._receive()
        except BrokenPipeError:
            self._drain()

    def _receive(self) -> None:
        """Store what the helper has sent so far; at its end-of-file, close
        both pipes."""
        while self._results is not None:
            try:
                chunk = os.read(self._results, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                self._close_pipes()
            self._received += chunk
        buf = self._received
        while len(buf) >= _SIZE.size:
            end = _SIZE.size + _SIZE.unpack_from(buf)[0]
            if len(buf) < end:
                break
            wants_z, key, _, _ = self._pending[0]
            self._put(wants_z, key, _FLOAT.unpack_from(buf, _SIZE.size)[0] if wants_z
                      else bytes(buf[_SIZE.size:end]))
            del buf[:end]
            self._pending.popleft()

    def _drain(self) -> None:
        """Close the task pipe and read results until the helper's end-of-file."""
        if self._tasks is not None:
            os.close(self._tasks)   # the helper finishes its queue and exits
            self._tasks = None
        while self._results is not None:
            select.select([self._results], [], [])
            self._receive()

    def _close_pipes(self) -> None:
        tasks, results, self._tasks, self._results = self._tasks, self._results, None, None
        for fd in (tasks, results):
            if fd is not None:
                os.close(fd)

    def __exit__(self, *exc) -> None:
        """Collect every result, reap the helper, and do in place what it did not."""
        try:
            self._drain()
        finally:
            self._close_pipes()
            os.waitpid(self._pid, 0)
        while self._pending:
            wants_z, key, curve, tau = self._pending[0]
            self._put(wants_z, key, self._result(wants_z, curve, tau))
            self._pending.popleft()
