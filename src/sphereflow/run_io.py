"""Run persistence: curve/diagnostics CSV, manifests, locks, SVG plots.

All CSV uses '.' decimals, LF line endings, and repr-style float formatting
(shortest round-trip), so identical runs produce byte-identical files and
reading a file back reproduces the exact doubles.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, barrier
from .chord_arc import ChordArcProfile
from .config import RunConfig, config_from_dict, config_hash, config_to_dict
from .errors import ConfigParseError, MissingArtifacts, RunDirLocked
from .flow_engine import DIAGNOSTICS_COLUMNS, DiagnosticsSeries, Outcome
from .sphere_geometry import DiscreteCurve, make_curve

DIAGNOSTICS_HEADER = ",".join(DIAGNOSTICS_COLUMNS)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_curve_csv(curve: DiscreteCurve, path) -> None:
    lines = ["x,y,z"]
    lines.extend(f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])}" for p in curve.points)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_curve_csv(path) -> DiscreteCurve:
    """Curve from an x,y,z CSV; blank lines and whitespace around fields are ignored.

    Raises ConfigParseError, naming the file and the line, for a bad header,
    a row without exactly three fields or a field that is not a number.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifacts(f"curve file {path} not found")
    lines = path.read_text(encoding="utf-8").splitlines() or [""]
    header = lines[0].strip()
    if header.replace(" ", "") != "x,y,z":
        raise ConfigParseError(f"{path}: expected header 'x,y,z', got {header!r}")
    body = [line for line in map(str.strip, lines[1:]) if line]
    if any(line.count(",") != 2 for line in body):
        raise ConfigParseError(_bad_curve_row(path, lines))
    try:
        pts = np.array(",".join(body).split(",") if body else [], dtype=float)
    except ValueError:
        raise ConfigParseError(_bad_curve_row(path, lines)) from None
    pts = pts.reshape(-1, 3)
    # the format leaves the closing edge implicit; drop an accidental repeat
    if len(pts) > 1 and np.allclose(pts[0], pts[-1], atol=1e-14):
        pts = pts[:-1]
    return make_curve(pts)


def _bad_curve_row(path: Path, lines: list[str]) -> str:
    """What is wrong with the first row of a curve CSV that does not parse."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            return f"{path}, line {lineno}: expected 3 fields, got {len(parts)}"
        try:
            np.array(parts, dtype=float)
        except ValueError as exc:
            return f"{path}, line {lineno}: {exc}"
    return f"{path}: rows do not parse"


def write_diagnostics_csv(series: DiagnosticsSeries, path) -> None:
    """One line per record; step is written as an integer."""
    lines = [DIAGNOSTICS_HEADER]
    lines.extend(",".join([str(int(step)), *map(repr, rest)]) for step, *rest in series.rows())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_diagnostics_csv(path) -> DiagnosticsSeries:
    path = Path(path)
    if not path.exists():
        raise MissingArtifacts(f"diagnostics file {path} not found")
    series = DiagnosticsSeries()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != DIAGNOSTICS_HEADER:
            raise ConfigParseError(f"{path}: unexpected diagnostics header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(DIAGNOSTICS_COLUMNS):
                raise ConfigParseError(f"{path}, line {lineno}: expected "
                                       f"{len(DIAGNOSTICS_COLUMNS)} fields, got {len(parts)}")
            try:
                series.append(int(parts[0]), *map(float, parts[1:]))
            except ValueError as exc:
                raise ConfigParseError(f"{path}, line {lineno}: {exc}") from None
    return series


def write_profile_csv(prof: ChordArcProfile, path) -> None:
    lines = ["z,psi,i,j"]
    for k in range(prof.n_bins):
        lines.append(f"{_fmt(prof.z_centers[k])},{_fmt(prof.psi[k])},"
                     f"{int(prof.pair_i[k])},{int(prof.pair_j[k])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_profile_svg(prof: ChordArcProfile, path) -> None:
    """Plot (z, psi) with the a -> 0 comparison profile L*sin(pi z)/pi overlaid."""
    W, H, m = 640, 480, 50
    ymax = prof.L / math.pi * 1.05

    def sx(z):
        return m + (W - 2 * m) * z / 0.5

    def sy(v):
        return H - m - (H - 2 * m) * v / ymax

    keep = ~prof.empty_bins
    pts = " ".join(f"{sx(z):.2f},{sy(v):.2f}"
                   for z, v in zip(prof.z_centers[keep], prof.psi[keep]))
    zg = np.linspace(0.0, 0.5, 200)
    overlay = prof.L * np.asarray(barrier.phi(zg, 0.0))
    over = " ".join(f"{sx(z):.2f},{sy(v):.2f}" for z, v in zip(zg, overlay))
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">
<rect width="{W}" height="{H}" fill="white"/>
<line x1="{m}" y1="{H - m}" x2="{W - m}" y2="{H - m}" stroke="black"/>
<line x1="{m}" y1="{m}" x2="{m}" y2="{H - m}" stroke="black"/>
<text x="{W // 2}" y="{H - 12}" font-size="14" text-anchor="middle">z = ell / L</text>
<text x="14" y="{H // 2}" font-size="14" transform="rotate(-90 14 {H // 2})" text-anchor="middle">min chord psi(z)</text>
<polyline points="{over}" fill="none" stroke="#888888" stroke-dasharray="6 4" stroke-width="1.5"/>
<polyline points="{pts}" fill="none" stroke="#1f5fbf" stroke-width="2"/>
<text x="{W - m}" y="{m - 8}" font-size="12" text-anchor="end">dashed: (L/pi) sin(pi z)</text>
</svg>
"""
    Path(path).write_text(svg, encoding="utf-8", newline="\n")


def _atomic_write_json(obj, path) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_root() -> Path:
    return Path(os.environ.get("SPHEREFLOW_OUT", "."))


def resolve_run_dir(cfg: RunConfig, explicit=None) -> Path:
    target = explicit if explicit is not None else (cfg.output_dir or "run")
    target = Path(target)
    return target if target.is_absolute() else output_root() / target


@dataclass
class RunDirLock:
    """Exclusive ownership of a run directory through a lockfile.

    The lockfile holds the owner's pid, host and start time as JSON, and
    RunDirLocked names them.
    """

    path: Path

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RunDirLocked(f"{self.path.parent} is owned by {self._owner()}") from None
        try:
            with os.fdopen(fd, "w") as f:
                json.dump({"pid": os.getpid(), "host": platform.node(),
                           "started_at": utc_now()}, f)
        except BaseException:
            os.unlink(self.path)
            raise
        return self

    def _owner(self) -> str:
        try:
            owner = json.loads(self.path.read_text())
            return (f"pid {owner['pid']} on host {owner['host']}, "
                    f"started {owner['started_at']} (lockfile {self.path})")
        except (OSError, ValueError, KeyError, TypeError):
            return f"another process (lockfile {self.path} names no owner)"

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def checkpoint_name(step: int) -> str:
    return f"step_{step:08d}.csv"


def _checkpoint_step(rel: str) -> int:
    """Step of a manifest path checkpoints/step_<step>.csv (see checkpoint_name)."""
    name = rel[len("checkpoints/"):]
    digits = name[len("step_"):-len(".csv")]
    if not (name.startswith("step_") and name.endswith(".csv") and digits.isdigit()):
        raise ConfigParseError(f"manifest lists {rel!r}, which is not a checkpoint name")
    return int(digits)


@dataclass
class RunArtifacts:
    config: RunConfig
    series: DiagnosticsSeries
    manifest: dict
    run_dir: Path


def outcome_summary(outcome: Outcome | None, a: float, error: str | None = None) -> dict:
    if outcome is None:
        return {"kind": "error", "error": error or "unknown", "a_resolved": a}
    out = {"kind": outcome.kind, "a_resolved": a}
    if outcome.T_est is not None:
        out["T_est"] = outcome.T_est
    if outcome.fit_residual is not None:
        out["fit_residual"] = outcome.fit_residual
    if outcome.z_est is not None:
        out["z_est"] = [float(v) for v in outcome.z_est]
    if outcome.axis is not None:
        out["axis"] = [float(v) for v in outcome.axis]
    return out


def write_run(run_dir: Path, cfg: RunConfig, series: DiagnosticsSeries,
              outcome: Outcome | None, a: float, started_at: str,
              error: str | None = None) -> dict:
    """Persist diagnostics, checkpoints, and the manifest (atomically, last)."""
    run_dir = Path(run_dir)
    ckpt_dir = run_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    write_diagnostics_csv(series, run_dir / "diagnostics.csv")
    _atomic_write_json(config_to_dict(cfg), run_dir / "config.json")
    for step, curve in series.checkpoints:
        write_curve_csv(curve, ckpt_dir / checkpoint_name(step))

    inventory = []
    for rel in ["diagnostics.csv", "config.json"] + [
            f"checkpoints/{checkpoint_name(s)}" for s, _ in series.checkpoints]:
        p = run_dir / rel
        inventory.append({"path": rel, "bytes": p.stat().st_size, "sha256": _sha256(p)})

    manifest = {
        "config_hash": config_hash(cfg),
        "config": config_to_dict(cfg),
        "started_at": started_at,
        "finished_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "code_version": __version__,
        "outcome": outcome_summary(outcome, a, error),
        "files": inventory,
    }
    _atomic_write_json(manifest, run_dir / "manifest.json")
    return manifest


def utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def load_run(run_dir) -> RunArtifacts:
    """Load manifest, diagnostics, and the checkpoints the manifest lists.

    Raises MissingArtifacts when a listed file is absent.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    diag_path = run_dir / "diagnostics.csv"
    if not manifest_path.exists() or not diag_path.exists():
        raise MissingArtifacts(f"{run_dir} lacks manifest.json/diagnostics.csv")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    cfg = config_from_dict(manifest["config"])
    series = read_diagnostics_csv(diag_path)
    # only the checkpoints the manifest names: a rerun with another cadence
    # can leave stale files next to them
    for entry in manifest.get("files", []):
        rel = entry["path"]
        if not rel.startswith("checkpoints/"):
            continue
        step = _checkpoint_step(rel)
        if not (run_dir / rel).is_file():
            raise MissingArtifacts(f"{run_dir} lacks {rel}, which its manifest lists")
        series.checkpoints.append((step, read_curve_csv(run_dir / rel)))
    if not series.checkpoints:
        raise MissingArtifacts(f"{run_dir} has no checkpoint curves")
    return RunArtifacts(config=cfg, series=series, manifest=manifest, run_dir=run_dir)
