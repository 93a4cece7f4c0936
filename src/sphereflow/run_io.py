"""Run persistence: curve/diagnostics CSV, manifests, locks, SVG plots.

All CSV uses '.' decimals, LF line endings, and repr-style float formatting
(shortest round-trip), so identical runs produce byte-identical files and
reading a file back reproduces the exact doubles. A manifest's inventory gives
the size and SHA-256 of each file as written. Both CSV readers parse rows
alike: the diagnostics step is an integer, and a row that breaks the format is
a ConfigParseError naming the file and the line.
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


def _csv(header: str, row: str, values: list) -> bytes:
    """header, then one line per row of values filled into the %-template row;
    values is flat, from .tolist(), so %r renders each float by repr."""
    rows = len(values) // row.count("%")
    return (header + "\n" + ((row + "\n") * rows) % tuple(values)).encode("utf-8")


def _write(path, data: bytes) -> bytes:
    Path(path).write_bytes(data)
    return data


def _read_rows(path, kind: str, header: str, int_columns: int = 0) -> np.ndarray:
    """The rows after the header of a CSV file as one float array, a column per
    header field, parsed in one call. Blank lines and whitespace around fields
    are ignored; the first int_columns fields must be integers, as int() reads
    them. A bad header, row or field is a ConfigParseError naming the line."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifacts(f"{kind} file {path} not found")
    lines = path.read_text(encoding="utf-8").splitlines() or [""]
    got = lines[0].strip()
    if got.replace(" ", "") != header:
        raise ConfigParseError(f"{path}: expected header {header!r}, got {got!r}")
    width = header.count(",") + 1
    body = [line for line in map(str.strip, lines[1:]) if line]
    try:
        if any(line.count(",") != width - 1 for line in body):
            raise ValueError
        fields = ",".join(body).split(",") if body else []
        for k in range(int_columns):
            list(map(int, fields[k::width]))   # raises ValueError as int() does
        return np.array(fields, dtype=float).reshape(-1, width)
    except ValueError:
        raise ConfigParseError(_bad_row(path, lines, width, int_columns)) from None


def _bad_row(path: Path, lines: list[str], width: int, int_columns: int) -> str:
    """What is wrong with the first row that _read_rows rejects."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            return f"{path}, line {lineno}: expected {width} fields, got {len(parts)}"
        try:
            list(map(int, parts[:int_columns]))
            np.array(parts, dtype=float)
        except ValueError as exc:
            return f"{path}, line {lineno}: {exc}"
    return f"{path}: rows do not parse"


def write_curve_csv(curve: DiscreteCurve, path) -> bytes:
    """Write the curve and return the bytes written."""
    return _write(path, _csv("x,y,z", "%r,%r,%r", curve.points.ravel().tolist()))


def read_curve_csv(path) -> DiscreteCurve:
    """Curve from an x,y,z CSV; blank lines and whitespace around fields are ignored.

    Raises ConfigParseError, naming the file and the line, for a bad header,
    a row without exactly three fields or a field that is not a number.
    """
    pts = _read_rows(path, "curve", "x,y,z")
    # the format leaves the closing edge implicit; drop an accidental repeat
    if len(pts) > 1 and np.allclose(pts[0], pts[-1], atol=1e-14):
        pts = pts[:-1]
    return make_curve(pts)


def write_diagnostics_csv(series: DiagnosticsSeries, path) -> bytes:
    """One line per record, step as an integer; returns the bytes written."""
    row = ",".join(["%d"] + ["%r"] * (len(DIAGNOSTICS_COLUMNS) - 1))
    return _write(path, _csv(DIAGNOSTICS_HEADER, row, series.rows().ravel().tolist()))


def read_diagnostics_csv(path) -> DiagnosticsSeries:
    """Diagnostics from a CSV in DIAGNOSTICS_COLUMNS order; step must be an integer.

    Raises ConfigParseError as read_curve_csv does.
    """
    return DiagnosticsSeries.from_rows(
        _read_rows(path, "diagnostics", DIAGNOSTICS_HEADER, int_columns=1))


def write_profile_csv(prof: ChordArcProfile, path) -> bytes:
    columns = np.column_stack([prof.z_centers, prof.psi, prof.pair_i, prof.pair_j])
    return _write(path, _csv("z,psi,i,j", "%r,%r,%d,%d", columns.ravel().tolist()))


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
    _write(path, svg.encode("utf-8"))


def _atomic_write_json(obj, path) -> bytes:
    """Write obj as JSON through a temporary file; returns the bytes written."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    data = _write(tmp, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    os.replace(tmp, path)
    return data


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
    RunDirLocked names them. A lockfile whose owner is on this host and no
    longer exists (os.kill(pid, 0) raises ProcessLookupError; a
    PermissionError means it exists) is stale: with force it is replaced,
    without it RunDirLocked says so. An owner on another host is never taken
    for dead.
    """

    path: Path
    force: bool = False

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            fd = self._replace_stale()
        try:
            with os.fdopen(fd, "w") as f:
                json.dump({"pid": os.getpid(), "host": platform.node(),
                           "started_at": utc_now()}, f)
        except BaseException:
            os.unlink(self.path)
            raise
        return self

    def _replace_stale(self) -> int:
        text, owner = self._read_owner()
        if not _owner_is_gone(owner):
            raise RunDirLocked(f"{self.path.parent} is owned by {self._describe(owner)}")
        if not self.force:
            raise RunDirLocked(
                f"{self.path.parent} is owned by {self._describe(owner)}, which is no "
                f"longer running (use --force to replace the stale lockfile)")
        if self._read_owner()[0] == text:   # not replaced meanwhile by another run
            self.path.unlink(missing_ok=True)
        try:
            return os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RunDirLocked(
                f"{self.path.parent} is owned by {self._describe(self._read_owner()[1])}"
            ) from None

    def _read_owner(self):
        """(text, parsed JSON or None) of the lockfile; text is None if unreadable."""
        try:
            text = self.path.read_text()
        except OSError:
            return None, None
        try:
            return text, json.loads(text)
        except ValueError:
            return text, None

    def _describe(self, owner) -> str:
        try:
            return (f"pid {owner['pid']} on host {owner['host']}, "
                    f"started {owner['started_at']} (lockfile {self.path})")
        except (KeyError, TypeError):
            return f"another process (lockfile {self.path} names no owner)"

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)


def _owner_is_gone(owner) -> bool:
    """True only for an owner on this host whose pid names no process."""
    try:
        if owner["host"] != platform.node() or owner["pid"] <= 0:
            return False
        os.kill(owner["pid"], 0)
    except ProcessLookupError:
        return True
    except (KeyError, TypeError, OverflowError, OSError):   # PermissionError: it exists
        return False
    return False


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
              outcome: Outcome | None, started_at: str, error: str | None = None) -> dict:
    """Persist diagnostics, checkpoints, and the manifest (atomically, last).

    Each inventory entry's size and SHA-256 are those of the bytes written.
    """
    run_dir = Path(run_dir)
    (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    written = [("diagnostics.csv", write_diagnostics_csv(series, run_dir / "diagnostics.csv")),
               ("config.json", _atomic_write_json(config_to_dict(cfg), run_dir / "config.json"))]
    for step, curve in series.checkpoints:
        rel = f"checkpoints/{checkpoint_name(step)}"
        written.append((rel, write_curve_csv(curve, run_dir / rel)))
    inventory = [{"path": rel, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
                 for rel, data in written]

    manifest = {
        "config_hash": config_hash(cfg),
        "config": config_to_dict(cfg),
        "started_at": started_at,
        "finished_at": utc_now(),
        "code_version": __version__,
        "outcome": outcome_summary(outcome, series.a_resolved, error),
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
    return RunArtifacts(config=cfg, series=series, manifest=manifest)
