"""Run persistence: curve/diagnostics CSV, manifests, locks, SVG plots.

All CSV uses '.' decimals, LF line endings, and repr-style float formatting
(shortest round-trip), so identical runs produce byte-identical files and
reading a file back reproduces the exact doubles. A manifest's inventory gives
the size and SHA-256 of each file as written; load_run reads each listed file
once and parses the bytes only if they match. Both CSV readers parse rows
alike: the diagnostics step is an integer, and a row that breaks the format is
a ConfigParseError naming the file and the line, as is a run's JSON file that
does not parse or has a field of the wrong type.
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
from .config import (
    RunConfig,
    _field,
    _integer,
    _list_of,
    _number,
    _optional,
    _string,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from .errors import ConfigParseError, CorruptArtifacts, MissingArtifacts, RunDirLocked
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


def _read_file(path, kind: str) -> bytes:
    """path's bytes, in one read; MissingArtifacts when it is not a regular file."""
    path = Path(path)
    if not path.is_file():
        raise MissingArtifacts(f"{kind} {path} not found")
    return path.read_bytes()


def _parse_rows(path, data: bytes, header: str, int_columns: int = 0) -> np.ndarray:
    """The rows after the header of CSV bytes read from path as one float array,
    a column per header field, parsed in one call. Blank lines and whitespace
    around fields are ignored; the first int_columns fields must be integers, as
    int() reads them. Bytes that are not UTF-8, or a bad header, row or field,
    are a ConfigParseError naming path (and the line)."""
    width = header.count(",") + 1
    try:
        lines = data.decode("utf-8").splitlines() or [""]
        got = lines[0].strip()
        if got.replace(" ", "") != header:
            raise ConfigParseError(f"{path}: expected header {header!r}, got {got!r}")
        body = [line for line in map(str.strip, lines[1:]) if line]
        if any(line.count(",") != width - 1 for line in body):
            raise ValueError
        fields = ",".join(body).split(",") if body else []
        for k in range(int_columns):
            list(map(int, fields[k::width]))   # raises ValueError as int() does
        return np.array(fields, dtype=float).reshape(-1, width)
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 ({exc})") from None
    except ValueError:
        raise ConfigParseError(_bad_row(path, lines, width, int_columns)) from None


def _bad_row(path: Path, lines: list[str], width: int, int_columns: int) -> str:
    """What is wrong with the first row that _parse_rows rejects."""
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


def curve_csv(curve: DiscreteCurve) -> bytes:
    """The curve's CSV file bytes."""
    return _csv("x,y,z", "%r,%r,%r", curve.rows[:, :-1].T.ravel().tolist())


def write_curve_csv(curve: DiscreteCurve, path) -> bytes:
    """Write the curve and return the bytes written."""
    return _write(path, curve_csv(curve))


def read_curve_csv(path) -> DiscreteCurve:
    """Curve from an x,y,z CSV file, parsed as _parse_rows parses; MissingArtifacts
    when path is not a regular file."""
    return _parse_curve(path, _read_file(path, "curve file"))


def _parse_curve(path, data: bytes) -> DiscreteCurve:
    pts = _parse_rows(path, data, "x,y,z")
    # the format leaves the closing edge implicit; drop an accidental repeat,
    # which would be a degenerate closing segment, and no real last vertex
    if len(pts) > 1 and np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-14):
        pts = pts[:-1]
    return make_curve(pts)


def write_diagnostics_csv(series: DiagnosticsSeries, path) -> bytes:
    """One line per record, step as an integer; returns the bytes written."""
    row = ",".join(["%d"] + ["%r"] * (len(DIAGNOSTICS_COLUMNS) - 1))
    return _write(path, _csv(DIAGNOSTICS_HEADER, row, series.rows().ravel().tolist()))


def read_diagnostics_csv(path) -> DiagnosticsSeries:
    """Diagnostics from a CSV file in DIAGNOSTICS_COLUMNS order, step an integer;
    errors as for read_curve_csv."""
    return _parse_diagnostics(path, _read_file(path, "diagnostics file"))


def _parse_diagnostics(path, data: bytes) -> DiagnosticsSeries:
    return DiagnosticsSeries.from_rows(_parse_rows(path, data, DIAGNOSTICS_HEADER, int_columns=1))


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
    """Exclusive ownership of a run directory: flock on its lockfile, which
    names the holder's pid, host and start time. The kernel drops the lock
    however the holder exits, so no lock is stale. Release truncates the file,
    never unlinks it: a process that opened it before an unlink could lock the
    removed inode while another locks a new one. So a run directory keeps an empty .lock."""

    path: Path

    def __enter__(self):
        import fcntl   # POSIX; only simulate takes the lock
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(self._fd)
            why = (f"is owned by {self._owner()}" if isinstance(exc, BlockingIOError)
                   else f"cannot be locked ({exc}; lockfile {self.path})")
            raise RunDirLocked(f"{self.path.parent} {why}") from None
        try:
            os.ftruncate(self._fd, 0)   # what a killed holder wrote
            os.write(self._fd, json.dumps({"pid": os.getpid(), "host": platform.node(),
                                           "started_at": utc_now()}).encode())
        except BaseException:
            self.__exit__()
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
        os.ftruncate(self._fd, 0)
        os.close(self._fd)


def clear_run(run_dir: Path, force: bool) -> None:
    """Refuse a run_dir that holds a run unless force, then delete what a run
    writes there, the manifest first, and nothing else; call it under the
    RunDirLock. None of the last run's files can then pass for the next
    one's, even when that one fails."""
    if (run_dir / "manifest.json").exists() and not force:
        raise RunDirLocked(f"{run_dir} already holds a run (use --force to overwrite)")
    for name in ("manifest.json", "verdicts.json", "diagnostics.csv", "config.json"):
        (run_dir / name).unlink(missing_ok=True)
    for path in (run_dir / "checkpoints").glob("step_*.csv"):
        path.unlink()


def checkpoint_name(step: int) -> str:
    return f"step_{step:08d}.csv"


def _listed_checkpoints(run_dir: Path, files: list[dict]) -> list[tuple[int, str]]:
    """(step, path) of the checkpoints/ entries of a manifest's files, in order.
    Each path must be "checkpoints/" + checkpoint_name(step), and the steps must
    increase; anything else is a ConfigParseError naming the manifest."""
    manifest, listed = run_dir / "manifest.json", []
    for rel in (entry["path"] for entry in files if entry["path"].startswith("checkpoints/")):
        digits = rel[len("checkpoints/step_"):-len(".csv")]
        if not (digits.isascii() and digits.isdigit() and len(digits) < 20
                and rel == "checkpoints/" + checkpoint_name(int(digits))):
            raise ConfigParseError(f"{manifest} lists {rel!r}, which is not a checkpoint name")
        if listed and int(digits) <= listed[-1][0]:
            raise ConfigParseError(f"{manifest} lists {rel!r} after step {listed[-1][0]}; "
                                   "checkpoint steps must increase")
        listed.append((int(digits), rel))
    return listed


@dataclass
class RunArtifacts:
    config: RunConfig
    series: DiagnosticsSeries
    manifest: dict


def outcome_summary(outcome: Outcome | None, series: DiagnosticsSeries,
                    error: BaseException | None = None) -> dict:
    """Kind, barrier parameter and its parts, and each outcome field that is set;
    without an outcome, kind error and the exception's class and message."""
    out = ({"kind": outcome.kind} if outcome else
           {"kind": "error", "error": type(error).__name__, "message": str(error)})
    values = {k: getattr(series, k) for k in ("a_resolved", "a_pairs", "a_curv")}
    if outcome:
        values.update(T_est=outcome.T_est, fit_residual=outcome.fit_residual,
                      z_est=outcome.z_est, axis=outcome.axis)
    out.update((k, np.asarray(v).tolist()) for k, v in values.items() if v is not None)
    return out


def write_run(run_dir: Path, cfg: RunConfig, series: DiagnosticsSeries,
              outcome: Outcome | None, started_at: str,
              error: BaseException | None = None) -> dict:
    """Persist diagnostics, checkpoints, and the manifest (atomically, last).

    A checkpoint whose bytes series.checkpoint_bytes holds (every one of a
    series that flow_engine.run made) is written from them, any other is
    serialized here. Each inventory entry's size and SHA-256 are those of
    the bytes written.
    """
    run_dir = Path(run_dir)
    (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    written = [("diagnostics.csv", write_diagnostics_csv(series, run_dir / "diagnostics.csv")),
               ("config.json", _atomic_write_json(config_to_dict(cfg), run_dir / "config.json"))]
    for step, curve in series.checkpoints:
        rel = f"checkpoints/{checkpoint_name(step)}"
        data = series.checkpoint_bytes.get(step)
        written.append((rel, _write(run_dir / rel, curve_csv(curve) if data is None else data)))
    inventory = [{"path": rel, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
                 for rel, data in written]

    manifest = {
        "config_hash": config_hash(cfg),
        "config": config_to_dict(cfg),
        "started_at": started_at,
        "finished_at": utc_now(),
        "code_version": __version__,
        "outcome": outcome_summary(outcome, series, error),
        "files": inventory,
    }
    _atomic_write_json(manifest, run_dir / "manifest.json")
    return manifest


def utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _read_json(path: Path, kind: str, check):
    """The JSON value in path and what check(value) returns; ConfigParseError
    naming path when it does not parse or check finds a field missing or wrong."""
    try:
        value = json.loads(_read_file(path, kind).decode("utf-8"))
        return value, check(value)
    # JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (ValueError, ConfigParseError) as exc:
        raise ConfigParseError(f"{path}: {exc}") from None


def _is_object(v) -> bool:
    return isinstance(v, dict)


def _check_manifest(manifest) -> RunConfig:
    """The manifest's config, after the fields verify and report read."""
    if not _is_object(manifest):
        raise ConfigParseError("the manifest must be a JSON object")
    cfg = config_from_dict(_field(manifest, "config", None, _is_object, "an object"))
    _field(manifest, "config_hash", "", _string, "a string")
    outcome = _field(manifest, "outcome", None, _is_object, "an object")
    _field(outcome, "kind", None, _string, "a string", "outcome.")
    for name in ("a_resolved", "a_pairs", "a_curv", "T_est", "fit_residual"):
        _field(outcome, name, None, _optional(_number), "a number", "outcome.")
    for name in ("z_est", "axis"):
        _field(outcome, name, None, _optional(_list_of(_number, 3)),
               "a list of 3 numbers", "outcome.")
    for entry in _field(manifest, "files", None, _list_of(_is_object), "a list of objects"):
        _field(entry, "path", None, _string, "a string", "files[].")
        _field(entry, "bytes", None, _integer, "an integer", "files[].")
        _field(entry, "sha256", None, _string, "a string", "files[].")
    return cfg


def _check_verdicts(verdicts) -> None:
    """The fields report prints of each verdict."""
    if not _list_of(_is_object)(verdicts):
        raise ConfigParseError("verdicts must be a list of objects")
    for v in verdicts:
        _field(v, "check", None, _string, "a string")
        _field(v, "verdict", None, _string, "a string")
        _field(v, "min_margin", None, _number, "a number")
        _field(v, "worst_step", None, _integer, "an integer")


def read_manifest(run_dir) -> tuple[dict, RunConfig]:
    """run_dir's manifest.json and its config, read by _read_json, which
    checks the fields that verify and report read for their JSON types."""
    return _read_json(Path(run_dir) / "manifest.json", "manifest", _check_manifest)


def read_verdicts(run_dir) -> list[dict] | None:
    """run_dir's verdicts.json, None when there is none, checked as
    read_manifest checks the manifest."""
    path = Path(run_dir) / "verdicts.json"
    return _read_json(path, "verdicts", _check_verdicts)[0] if path.exists() else None


def _checked_bytes(run_dir: Path, entry: dict) -> bytes:
    """The listed file's bytes, with the size and SHA-256 its entry gives."""
    path = run_dir / entry["path"]
    data = _read_file(path, "listed file")
    if len(data) != entry["bytes"]:
        raise CorruptArtifacts(f"{path} has {len(data)} bytes, its manifest lists {entry['bytes']}")
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise CorruptArtifacts(f"{path} does not match the SHA-256 its manifest lists")
    return data


def load_run(run_dir) -> RunArtifacts:
    """Load manifest, diagnostics, and the checkpoints the manifest lists.

    Each listed file is read once and checked against its inventory entry, all
    before any is parsed, and the bytes checked are the bytes parsed. Raises
    ConfigParseError when a checkpoint entry is not named as the program names
    it or its step does not increase, MissingArtifacts when a listed file is
    absent and CorruptArtifacts when one differs in size or SHA-256 from its
    entry.
    """
    run_dir = Path(run_dir)
    manifest, cfg = read_manifest(run_dir)
    checkpoints = _listed_checkpoints(run_dir, manifest["files"])
    files = {entry["path"]: _checked_bytes(run_dir, entry) for entry in manifest["files"]}
    if "diagnostics.csv" not in files:
        raise MissingArtifacts(f"{run_dir}/manifest.json lists no diagnostics.csv")
    series = _parse_diagnostics(run_dir / "diagnostics.csv", files["diagnostics.csv"])
    # only listed checkpoints: a file the program did not write can sit beside them
    for step, rel in checkpoints:
        series.checkpoints.append((step, _parse_curve(run_dir / rel, files[rel])))
    if not series.checkpoints:
        raise MissingArtifacts(f"{run_dir} has no checkpoint curves")
    return RunArtifacts(config=cfg, series=series, manifest=manifest)
