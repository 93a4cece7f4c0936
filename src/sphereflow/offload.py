"""The part of a flow run that no later step reads: the min_Z of each
scheduled record and the CSV bytes of each checkpoint.

`start` picks where it runs. Where at least two CPUs are allowed and no
cgroup quota holds the process to less than two CPUs' time, a Helper forks
one helper process of the same program and pins it to the allowed CPUs
other than the one the run is on (Linux leaves a new process on its parent's
CPU, so unpinned the two would share it). Otherwise, or where the platform
cannot say (os.sched_getaffinity is Linux's), InProcess does the same work
in place, as a run always did. Both compute the same function of the same
doubles, so a run's outputs do not depend on which one ran.

Tasks go one way while the run steps: the run's process writes each curve
to the task pipe with blocking writes. The helper writes each min_Z back at
once, and before each send the run stores those already in the pipe (the
ioctl FIONREAD counts them), so it neither waits for them nor keeps a
record's curve for long; a result is far smaller than its task, so they
cannot fill their pipe. The helper keeps each checkpoint's bytes until
end-of-file on the task pipe, when the run closes it on the way out of
`with`, and the run, which keeps those curves in the series anyway, reads
them one frame at a time. Nothing polls a descriptor, so any descriptor
number works. The run then reaps the helper and computes in place every task
whose result it has not stored: the helper died, or an interrupt came first.
The helper ignores SIGINT and exits at end-of-file on its task pipe, so it
ends when the run closes the pipe and when the run's process dies.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from . import chord_arc
from .barrier import BarrierParams
from .run_io import curve_csv
from .sphere_geometry import DiscreteCurve, _curve

# A task is (wants min_Z, else the checkpoint's bytes; row or step; tau; n),
# then the curve's (3, n + 1) rows and its n segment lengths as float64. A
# result is (size of the checkpoint's bytes, step), then the bytes; or (-1,
# row), then min_Z as a float64: 24 bytes written at once (under PIPE_BUF).
_TASK = struct.Struct("<?qdq")
_HEAD = struct.Struct("<qq")
_FLOAT = struct.Struct("<d")
_Z = struct.Struct("<qqd")

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
        """Store min_Z in record row, already appended (by __exit__ at latest)."""
        self._task(True, row, curve, tau)

    def checkpoint(self, step: int, curve: DiscreteCurve) -> None:
        """Append a checkpoint to series; keep its CSV bytes (by __exit__)."""
        self.series.checkpoints.append((step, curve))
        self._task(False, step, curve, 0.0)

    def _task(self, wants_z: bool, key: int, curve: DiscreteCurve, tau: float) -> None:
        self._put(wants_z, key, self._result(wants_z, curve, tau))

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
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()  # Linux's
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
        # (wants min_Z, row or step) -> (rows, segment lengths, tau) of each
        # task, added before it is sent and dropped once its result is stored,
        # so __exit__ does in place what an interrupt left between the two.
        # Not the curve, whose caches can go.
        self._sent: dict[tuple[bool, int], tuple] = {}
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self._pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        task_r, self._tasks, results, result_w = fds
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
        self._results = os.fdopen(results, "rb")   # its buffer is used in __exit__ only

    def _serve(self, task_r: int, result_w: int) -> None:
        """The helper's work: min_Z back at once, checkpoint bytes at end-of-file."""
        tasks, held = os.fdopen(task_r, "rb"), []
        while len(head := tasks.read(_TASK.size)) == _TASK.size:
            wants_z, key, tau, n = _TASK.unpack(head)
            body = tasks.read(8 * (4 * n + 3))
            if len(body) < 8 * (4 * n + 3):
                break   # a task cut short: __exit__ does it in place
            rows = np.frombuffer(body, count=3 * (n + 1)).reshape(3, n + 1)
            ds = np.frombuffer(body, offset=rows.nbytes)
            value = self._result(wants_z, _curve(rows, ds), tau)
            if wants_z:
                _write_all(result_w, _Z.pack(-1, key, value))
            else:
                held.append((key, value))
        for key, data in held:
            _write_all(result_w, _HEAD.pack(len(data), key) + data)

    def _task(self, wants_z: bool, key: int, curve: DiscreteCurve, tau: float) -> None:
        self._sent[wants_z, key] = (curve.rows, curve.seg_lengths, tau)
        self._receive()
        if self._tasks is None:
            return   # the helper is gone
        try:
            _write_all(self._tasks, _TASK.pack(wants_z, key, tau, curve.n)
                       + curve.rows.tobytes() + curve.seg_lengths.tobytes())
        except BrokenPipeError:
            os.close(self._tasks)
            self._tasks = None

    def _receive(self) -> None:
        """Store the min_Z values already in the pipe, without waiting."""
        import fcntl, termios   # POSIX, as is a Helper
        ready = fcntl.ioctl(self._results.fileno(), termios.FIONREAD, bytes(4))
        count = struct.unpack("i", ready)[0] // _Z.size
        data = os.read(self._results.fileno(), count * _Z.size)   # what is there: no wait
        for _, row, value in _Z.iter_unpack(data):
            self._store(True, row, value)

    def _store(self, wants_z: bool, key: int, value) -> None:
        self._put(wants_z, key, value)
        del self._sent[wants_z, key]   # after: an interrupt leaves it to do again

    def __exit__(self, *exc) -> None:
        """Collect every result, reap the helper, and do in place what it did not."""
        try:
            if self._tasks is not None:
                os.close(self._tasks)   # the helper's end-of-file: it writes the rest
            # one frame at a time, so the run never holds the whole stream
            while len(head := self._results.read(_HEAD.size)) == _HEAD.size:
                size, key = _HEAD.unpack(head)
                wants_z, size = size < 0, _FLOAT.size if size < 0 else size
                if len(data := self._results.read(size)) < size:
                    break   # the stream cut mid-frame: the helper died
                self._store(wants_z, key, _FLOAT.unpack(data)[0] if wants_z else data)
        finally:
            # closed before the wait, so a helper still writing gets EPIPE
            self._results.close()
            os.waitpid(self._pid, 0)
        for (wants_z, key), (rows, ds, tau) in self._sent.items():
            self._put(wants_z, key, self._result(wants_z, _curve(rows, ds), tau))
