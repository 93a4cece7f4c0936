"""The part of a flow run that no later step reads: the min_Z of each
scheduled record and the CSV bytes of each checkpoint.

`start` picks where it runs. Where worker.spare_cpus names CPUs other than
the run's, a Helper forks one helper process of the same program pinned to
them. Otherwise InProcess does the same work in place, as a run always did.
Both compute the same function of the same doubles, so a run's outputs do
not depend on which one ran.

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

import os
import struct

import numpy as np

from . import chord_arc, worker
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


def start(series, a: float) -> InProcess:
    """A Helper where a spare CPU is to be had, else InProcess."""
    cpus = worker.spare_cpus()
    if not cpus:
        return InProcess(series, a)
    try:
        return Helper(series, a, cpus)
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
            task_r, self._tasks, results, result_w = fds
            self._pid = worker.fork(cpus, (task_r, result_w),
                                    lambda: self._serve(task_r, result_w))
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
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
