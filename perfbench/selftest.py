"""Self-test of the benchmark: a smoke run of every workload at toy size.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For each workload and for --trace 0 and 1 it runs `run.py --toy` and checks
that the last line is the result object, that every output check passed,
that the metrics are exactly BENCHMARK.json's list with its units, that the
table names every end-to-end metric of the workload with its unit, and that
the traced counters add up. It also checks that the benchmark refuses to run
in a directory that holds only BENCHMARK.json and this directory. Exit code
0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMON = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB",
          "error_rate": "1"}
FLOW = {"simulate_s": "s", "verify_s": "s", "steps_per_s": "1/s"}
TABLE = {
    "shrink_round": {**COMMON, **FLOW, "t_ext_rel_err": "1"},
    "great_circle_pipeline": {**COMMON, **FLOW, "report_s": "s"},
    "profile_large": {**COMMON, "profile_s": "s", "pairs_per_s": "1/s"},
}
TOY_PAIRS = 64 * 63 // 2


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--toy"], ROOT)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    spec = BENCH["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ in name or unit")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} = {m['value']!r}")
    table = {line.split()[0]: line.split()[1] for line in lines if line.startswith("  ")}
    for name, unit in TABLE[workload].items():
        if table.get(name) != unit:
            problems.append(f"{where}: table row {name} [{unit}] missing")
    if trace and not problems:
        v = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "profile_large":
            expect = {"chord_arc.profile.pairs": TOY_PAIRS, "chord_arc.profile.calls": 1,
                      "flow_engine.step.calls": 0}
        else:
            expect = {"run_io.load_run.files": v["run_io.write_run.files"],
                      "run_io.load_run.bytes": v["run_io.write_run.bytes"],
                      "chord_arc.profile.calls": 0}
            if v["flow_engine.step.calls"] < 1 or v["run_io.write_run.files"] < 2:
                problems.append(f"{where}: flow layers were not traced")
        for name, value in expect.items():
            if v[name] != value:
                problems.append(f"{where}: {name} = {v[name]}, expected {value}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "shrink_round", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    problems = check_bare_directory()
    for workload in TABLE:
        for trace in (0, 1):
            problems += check_run(workload, trace)
            print(f"{workload} --trace {trace}: done", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
