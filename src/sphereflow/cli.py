"""Command-line surface: simulate, profile, barrier-check, verify, report."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import barrier, chord_arc, estimate_harness, flow_engine, run_io
from .config import load_config
from .errors import (
    ConfigParseError,
    MissingArtifacts,
    NonConvergent,
    NotSimple,
    RunDirLocked,
    SphereFlowError,
)
from .sphere_geometry import validate_simple

_EXIT_CODES = {
    ConfigParseError: 2,
    MissingArtifacts: 3,
    NotSimple: 4,
    RunDirLocked: 5,
}

DEFAULT_A_LIST = (0.1, 0.5, 1.0, 2.0, 10.0)
DEFAULT_L_LIST = (math.pi, 2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi)


def _fail(exc: SphereFlowError) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
    for klass, code in _EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1


def cmd_simulate(config_path, out_dir=None, force: bool = False) -> int:
    cfg = load_config(config_path)
    run_dir = run_io.resolve_run_dir(cfg, out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    started = run_io.utc_now()
    with run_io.RunDirLock(run_dir / ".lock", force=force):
        if (run_dir / "manifest.json").exists() and not force:
            raise RunDirLocked(f"{run_dir} already holds a run (use --force to overwrite)")
        # a forced rerun's old verdicts would otherwise read as the new run's
        (run_dir / "verdicts.json").unlink(missing_ok=True)
        try:
            series, outcome = flow_engine.run(cfg)
            manifest = run_io.write_run(run_dir, cfg, series, outcome, started)
        except NonConvergent as exc:
            series = getattr(exc, "series", flow_engine.DiagnosticsSeries())
            run_io.write_run(run_dir, cfg, series, None, started, error=str(exc))
            print(json.dumps({"error": "NonConvergent", "message": str(exc),
                              "run_dir": str(run_dir)}))
            return 1
    print(json.dumps({"run_dir": str(run_dir), "outcome": manifest["outcome"]}))
    return 0


def cmd_profile(curve_path, n_bins: int, out_dir=None) -> int:
    curve = run_io.read_curve_csv(curve_path)
    if not validate_simple(curve):
        raise NotSimple(f"{curve_path} is not an embedded curve")
    prof = chord_arc.profile(curve, n_bins)
    out = Path(out_dir) if out_dir else run_io.output_root()
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(curve_path).stem
    run_io.write_profile_csv(prof, out / f"{stem}_profile.csv")
    run_io.write_profile_svg(prof, out / f"{stem}_profile.svg")
    print(json.dumps({"profile_csv": str(out / f"{stem}_profile.csv"),
                      "profile_svg": str(out / f"{stem}_profile.svg"),
                      "empty_bins": int(np.count_nonzero(prof.empty_bins))}))
    return 0


def _property_entries(report) -> list[dict]:
    return [{"property": c.name, "grid": report.grid_size,
             "min_margin": c.min_margin, "worst_point": c.worst_z}
            for c in report.checks]


def cmd_barrier_check(a_list, L_list, out_path=None, grid: int = 200) -> int:
    """Property grids, F sign grids, and the q(X, Y) grid; JSON report."""
    a_list = list(a_list) if a_list else list(DEFAULT_A_LIST)
    L_list = list(L_list) if L_list else list(DEFAULT_L_LIST)

    q_margin, q_worst = barrier.q_grid_margin(grid)
    report = {
        "q_grid": {"property": "q_below_one", "grid": grid,
                   "min_margin": q_margin, "worst_point": list(q_worst)},
        "cases": [],
    }
    violations = 0 if q_margin > 0.0 else 1

    for L in L_list:
        for a in a_list:
            case = {"a": a, "L": L}
            if L * barrier.phi_max(a) > 2.0:
                case["skipped"] = ("L*max(phi) > 2: strict concavity of h(L*phi) "
                                   "needs a >= a0(L); property (iv) and F not evaluated")
                report["cases"].append(case)
                continue
            prop = barrier.check_properties(a, L)
            case["properties"] = _property_entries(prop)
            if not prop.all_passed:
                violations += 1
            f_margin, f_worst = barrier.F_margin(a, L)
            case["F"] = {"property": "F_negative", "grid": barrier.F_GRID,
                         "min_margin": f_margin, "worst_point": f_worst}
            if f_margin <= 0.0:
                violations += 1
            report["cases"].append(case)

    report["violations"] = violations
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    return 0 if violations == 0 else 1


def cmd_verify(run_dir) -> int:
    art = run_io.load_run(run_dir)
    outcome = art.manifest.get("outcome", {})
    kind = outcome.get("kind")
    if kind not in ("finite_time_shrink", "great_circle"):
        raise MissingArtifacts(f"{run_dir} has no classified outcome (kind={kind!r})")
    required = ("a_resolved", "T_est", "z_est") if kind == "finite_time_shrink" else ("a_resolved",)
    for key in required:
        if outcome.get(key) is None:
            raise MissingArtifacts(f"{run_dir}/manifest.json: {kind} outcome lacks {key}")
    checks = estimate_harness.run_applicable_checks(
        art.series, kind,
        a=float(outcome["a_resolved"]),
        T_est=outcome.get("T_est"),
        z_est=outcome.get("z_est"),
        selected=art.config.checks,
    )
    verdicts = [c.to_dict() for c in checks]
    run_io._atomic_write_json(verdicts, Path(run_dir) / "verdicts.json")
    print(json.dumps(verdicts, indent=2))
    return 0 if all(c.verdict for c in checks) else 1


def cmd_report(run_dir) -> int:
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise MissingArtifacts(f"{run_dir} has no manifest.json")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    outcome = manifest.get("outcome", {})
    print(f"run directory : {run_dir}")
    print(f"config hash   : {manifest.get('config_hash', '')[:16]}")
    print(f"code version  : {manifest.get('code_version')}")
    print(f"outcome       : {outcome.get('kind')}")
    for key in ("T_est", "fit_residual", "a_resolved"):
        if key in outcome:
            print(f"{key:14s}: {outcome[key]}")
    for key in ("z_est", "axis"):
        if key in outcome:
            print(f"{key:14s}: {np.round(outcome[key], 6).tolist()}")
    print(f"files         : {len(manifest.get('files', []))}")
    verdicts_path = run_dir / "verdicts.json"
    if verdicts_path.exists():
        verdicts = json.loads(verdicts_path.read_text(encoding="utf-8"))
        print(f"{'check':18s}{'verdict':9s}{'min_margin':>14s}{'worst_step':>12s}")
        for v in verdicts:
            print(f"{v['check']:18s}{v['verdict']:9s}{v['min_margin']:>14.3e}{v['worst_step']:>12d}")
    else:
        print("verdicts      : (none; run `sphereflow verify`)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphereflow",
                                description="Curve shortening flow on the unit sphere")
    sub = p.add_subparsers(dest="command", required=True)

    # each handler looks its cmd_* up in the module globals when it runs, so a
    # wrapper set on the module attribute (as perfbench's tracer does) sees it
    sim = sub.add_parser("simulate", help="integrate a configured flow and persist the run")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="run directory (overrides config output_dir)")
    sim.add_argument("--force", action="store_true", help="overwrite an existing run")
    sim.set_defaults(handler=lambda a: cmd_simulate(a.config, a.out, a.force))

    prof = sub.add_parser("profile", help="chord-arc profile of a curve file")
    prof.add_argument("--curve", required=True)
    prof.add_argument("--bins", type=int, default=256)
    prof.add_argument("--out", default=None)
    prof.set_defaults(handler=lambda a: cmd_profile(a.curve, a.bins, a.out))

    bar = sub.add_parser("barrier-check", help="grid checks of the comparison profile")
    bar.add_argument("--a", type=float, nargs="*", default=None)
    bar.add_argument("--L", type=float, nargs="*", default=None)
    bar.add_argument("--out", default=None)
    bar.add_argument("--grid", type=int, default=200)
    bar.set_defaults(handler=lambda a: cmd_barrier_check(a.a, a.L, a.out, a.grid))

    ver = sub.add_parser("verify", help="run bound checks over a completed run directory")
    ver.add_argument("--run", required=True)
    ver.set_defaults(handler=lambda a: cmd_verify(a.run))

    rep = sub.add_parser("report", help="summarise a run directory")
    rep.add_argument("--run", required=True)
    rep.set_defaults(handler=lambda a: cmd_report(a.run))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SphereFlowError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
