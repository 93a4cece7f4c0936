"""sphereflow benchmark: simulate -> verify -> profile, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of shrink_round, great_circle_pipeline, profile_large, or `all`
(each workload in turn, never concurrently). The program is imported from
`src/` of the checkout; nothing is installed.

One run: the workload writes its inputs from the seed (untimed); then
iterations follow back to back until S seconds are used (a closed loop, one
caller). Each iteration is one fresh child process that imports
`sphereflow.cli` (set-up time) and runs the workload's commands through
`cli.main`, and its outputs are checked against a known answer. With
--trace 1 every untraced iteration is followed by a traced one (tracer.py)
and the per-layer metrics come from the traced ones.

Output: an environment record, a table of every metric with median, max and
sample count, and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"} whose metrics are the
`end_to_end` (--trace 0) or `per_layer` (--trace 1) list of BENCHMARK.json.
Exit code 1 if any output check failed, 2 if the checkout has no program.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 150.0       # stop starting iterations after this; runs must end by 180 s

UNITS = {"setup_s": "s", "wall_s": "s", "simulate_s": "s", "verify_s": "s",
         "report_s": "s", "profile_s": "s", "steps_per_s": "1/s",
         "pairs_per_s": "1/s", "peak_rss_mb": "MB",
         "t_ext_rel_err": "1", "error_rate": "1"}
COUNT_QUANTITIES = ("pairs", "files", "bytes", "iters")


class ChildFailed(RuntimeError):
    pass


def spawn(work: Path, commands: list, spans: Path | None, deadline: float) -> dict:
    """Run one child to completion; its result plus peak RSS and exit code."""
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({"src": str(SRC), "commands": commands,
                                     "result": str(result_path),
                                     "spans": str(spans) if spans else None}),
                         encoding="utf-8")
    with open(work / "child.log", "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path), repr(t0)],
                                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        # wait4 gives this child's own peak RSS. os.kill, not proc.kill: that
        # polls, and a poll would reap the child before wait4 sees it.
        status = usage = None
        try:
            while status is None:
                pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status, usage = st, ru
                elif time.monotonic() > deadline:
                    os.kill(proc.pid, signal.SIGKILL)
                else:
                    time.sleep(0.01)
        finally:
            if status is None:  # interrupted: never leave the child running
                os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        log_tail = (work / "child.log").read_text(encoding="utf-8")[-2000:]
        raise ChildFailed(f"child exited {proc.returncode}:\n{log_tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return result


def environment(openblas: dict) -> dict:
    def read(path, prefix=""):
        try:
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "cpu_model": read("/proc/cpuinfo", "model name"),
            "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "openblas_threads": openblas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


class WorkloadRun:
    """All iterations of one workload in one benchmark run."""

    def __init__(self, name: str, seed: int, toy: bool):
        self.name = name
        self.workload = workloads.make(name, seed, toy)
        self.work = WORK_ROOT / f"{name}-{os.getpid()}"
        self.setup: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.openblas: dict = {}

    def iteration(self, k: int, traced: bool, deadline: float) -> float:
        it_dir = self.work / (f"it{k}t" if traced else f"it{k}")
        it_dir.mkdir()
        commands = self.workload.commands(it_dir, k)
        spans = self.work / "spans.json" if traced else None
        start = time.monotonic()
        try:
            res = spawn(self.work, commands, spans, deadline)
        except ChildFailed as exc:
            self.attempted += len(commands)
            self.failures.extend(f"iteration {k}: {exc}" for _ in commands)
            return time.monotonic() - start
        elapsed = time.monotonic() - start
        self.openblas = res["openblas_threads"]
        cmds = res["commands"]
        problems = self.workload.check(it_dir, k, cmds)
        self.attempted += len(cmds)
        for cmd, problem in zip(cmds, problems):
            if problem:
                detail = f"\n{cmd['error']}" if cmd["error"] else ""
                self.failures.append(f"iteration {k} {cmd['argv'][0]}: {problem}{detail}")
        if not any(problems):
            values = self.workload.measure(it_dir, k, cmds)
            values["wall_s"] = sum(c["seconds"] for c in cmds)
            values["peak_rss_mb"] = res["peak_rss_mb"]
            self.setup.append(res["setup_s"])
            if traced:
                values["layers"], values["spans"] = tracer.aggregate(spans)
                self.traced.append(values)
            else:
                self.untraced.append(values)
        shutil.rmtree(it_dir)
        return elapsed

    def run(self, seconds: float, trace: bool, run_start: float) -> None:
        self.work.mkdir(parents=True)
        self.workload.prepare(self.work)
        hard_deadline = run_start + RUN_LIMIT_S + 25.0
        deadline = time.monotonic() + seconds
        longest, k = 0.0, 0
        while True:
            took = self.iteration(k, False, hard_deadline)
            if trace:
                took += self.iteration(k, True, hard_deadline)
            k += 1
            longest = max(longest, took)
            now = time.monotonic()
            if now + longest > deadline or now + longest > run_start + RUN_LIMIT_S:
                break

    def samples(self) -> dict[str, list[float]]:
        out = {"setup_s": list(self.setup)}
        for values in self.untraced:
            for key, value in values.items():
                out.setdefault(key, []).append(value)
        return out

    def end_to_end(self) -> dict[str, float]:
        """Medians over the run's iterations, except `work_per_s`: the run's
        throughput, all work done over all the time spent doing it."""
        out = {key: statistics.median(vals) for key, vals in self.samples().items() if vals}
        if self.untraced:
            out["work_per_s"] = (sum(v["work"] for v in self.untraced)
                                 / sum(v["work_s"] for v in self.untraced))
        return out

    def per_layer(self, names: list[str]) -> dict[str, float]:
        if not (self.traced and self.untraced):
            return {}
        overhead = (statistics.median([v["wall_s"] for v in self.traced])
                    - statistics.median([v["wall_s"] for v in self.untraced]))
        out = {}
        for name in names:
            if name == "bench.tracing_overhead_s":
                out[name] = overhead
                continue
            label, quantity = name.rsplit(".", 1)
            vals = []
            for values in self.traced:
                entry = values["layers"][label]
                vals.append(entry.get(quantity, 0) if quantity in COUNT_QUANTITIES
                            else entry[quantity])
            out[name] = statistics.median(vals)
        return out

    def table(self) -> list[str]:
        lines = [f"workload {self.name}: {len(self.untraced)} untraced and "
                 f"{len(self.traced)} traced iterations",
                 f"  {'metric':16s}{'unit':>6s}{'median':>14s}{'max':>14s}{'n':>5s}"]
        for key, vals in self.samples().items():
            if key in UNITS and vals:
                lines.append(f"  {key:16s}{UNITS[key]:>6s}{statistics.median(vals):>14.6g}"
                             f"{max(vals):>14.6g}{len(vals):>5d}")
        if self.untraced:
            throughput = self.end_to_end()["work_per_s"]
            lines.append(f"  {'work_per_s':16s}{'1/s':>6s}{throughput:>14.6g}{'':>14s}"
                         f"{len(self.untraced):>5d}")
        rate = len(self.failures) / max(self.attempted, 1)
        lines.append(f"  {'error_rate':16s}{'1':>6s}{rate:>14.6g}{'':>14s}{self.attempted:>5d}")
        if self.traced:
            wall = statistics.median([v["wall_s"] for v in self.traced])
            lines.append(f"  traced wall_s {wall:.6g} s, {self.traced[-1]['spans']} spans")
        return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes, for the self-test")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "sphereflow" / "cli.py").is_file():
        print(f"no program: {SRC / 'sphereflow' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = bench["per_layer" if args.trace else "end_to_end"]
    names = workloads.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)

    runs = []
    try:
        for name in names:
            run = WorkloadRun(name, args.seed, args.toy)
            runs.append(run)
            try:
                run.run(args.seconds, bool(args.trace), time.monotonic())
            finally:
                shutil.rmtree(run.work, ignore_errors=True)
    except ChildFailed as exc:
        print(f"benchmark could not start the program: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    print(json.dumps({"env": environment(runs[0].openblas),
                      "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "toy": args.toy}))
    metrics = {}
    for run in runs:
        print("\n".join(run.table()))
        for failure in run.failures:
            print(f"  FAILED {failure}")
        values = (run.per_layer([m["name"] for m in spec]) if args.trace
                  else run.end_to_end())
        prefix = f"{run.name}." if len(runs) > 1 else ""
        for m in spec:
            # a metric with no passing iteration is null; the run is then not correct
            metrics[prefix + m["name"]] = {"value": values.get(m["name"]), "unit": m["unit"]}
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    correct = failed == 0 and all(r.untraced and (r.traced or not args.trace) for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
