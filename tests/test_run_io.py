import datetime as _dt
import fcntl
import json
import math
import os
import platform
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sphereflow import chord_arc, flow_engine, generators, run_io
from sphereflow import sphere_geometry as sg
from sphereflow.errors import ConfigParseError, MissingArtifacts, RunDirLocked


def test_profile_csv_layout(tmp_path):
    prof = chord_arc.profile(generators.parallel_curve(math.pi / 4, 256), 64)
    path = tmp_path / "prof.csv"
    run_io.write_profile_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z,psi,i,j"
    assert len(lines) == 65
    cols = lines[1].split(",")
    assert len(cols) == 4
    float(cols[0]), float(cols[1]), int(cols[2]), int(cols[3])


def test_sparse_profile_keeps_empty_bins(tmp_path):
    # tiny curve, many bins: empty bins are reported (NaN), never fatal
    prof = chord_arc.profile(generators.great_circle_curve((0, 0, 1), 16), 64)
    assert int(np.count_nonzero(prof.empty_bins)) > 0
    run_io.write_profile_csv(prof, tmp_path / "sparse.csv")
    assert "nan" in (tmp_path / "sparse.csv").read_text()


def test_svg_overlay_matches_parallel(tmp_path):
    prof = chord_arc.profile(generators.parallel_curve(math.pi / 4, 512), 64)
    run_io.write_profile_svg(prof, tmp_path / "p.svg")
    svg = (tmp_path / "p.svg").read_text()
    assert svg.count("polyline") == 2
    # data level: the parallel profile coincides with the limit overlay
    keep = ~prof.empty_bins
    overlay = prof.L / np.pi * np.sin(np.pi * prof.pair_z[keep])
    assert float(np.max(np.abs(prof.psi[keep] - overlay))) < 1e-3 * prof.L


def test_curve_reader_trims_repeated_closing_row(tmp_path):
    curve = generators.great_circle_curve((0, 0, 1), 64)
    rows = ["x,y,z"]
    for p in curve.points:
        rows.append(",".join(repr(float(v)) for v in p))
    rows.append(rows[1])  # explicit closure, against the convention
    (tmp_path / "closed.csv").write_text("\n".join(rows) + "\n")
    again = run_io.read_curve_csv(tmp_path / "closed.csv")
    assert again.n == 64


def test_curve_reader_keeps_a_last_vertex_near_the_first(tmp_path):
    # 2e-6 rad short of closing the circle: a real vertex, not a repeat;
    # vertex 0 has no zero coordinate, so numpy's default rtol calls it one
    e1, e2, _ = sg.orthonormal_basis((1.0, 1.0, 1.0))
    u = 0.3 + np.append(2 * np.pi * np.arange(63) / 64, 2 * np.pi - 2e-6)
    curve = sg.make_curve(np.cos(u)[:, None] * e1 + np.sin(u)[:, None] * e2)
    run_io.write_curve_csv(curve, tmp_path / "near.csv")
    again = run_io.read_curve_csv(tmp_path / "near.csv")
    assert again.n == 64
    assert again.rows.tobytes() == curve.rows.tobytes()


def test_curve_reader_rejects_bad_header(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b,c\n1,0,0\n")
    with pytest.raises(ConfigParseError):
        run_io.read_curve_csv(tmp_path / "bad.csv")


def test_curve_reader_names_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x,y,z\n1.0,0.0,0.0\n\n0.0,1.0\n0.0,0.0,1.0\n")
    with pytest.raises(ConfigParseError, match=r"ragged\.csv, line 4: expected 3 fields, got 2"):
        run_io.read_curve_csv(path)


def test_curve_reader_rejects_rows_that_make_up_for_each_other(tmp_path):
    # six fields in two rows, but not three and three
    path = tmp_path / "shifted.csv"
    path.write_text("x,y,z\n1.0,0.0,0.0,0.0\n1.0,0.0\n")
    with pytest.raises(ConfigParseError, match=r"line 2: expected 3 fields, got 4"):
        run_io.read_curve_csv(path)


def test_curve_reader_names_non_numeric_row(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("x,y,z\n1.0,0.0,0.0\n0.0,one,0.0\n")
    with pytest.raises(ConfigParseError, match=r"words\.csv, line 3: .*'one'"):
        run_io.read_curve_csv(path)


def test_curve_reader_tolerates_blank_lines_and_spaces(tmp_path):
    curve = generators.great_circle_curve((0.3, 0.1, 1.0), 16)
    rows = [" x, y ,z "]
    for p in curve.points:
        rows.extend(["", "  " + " , ".join(repr(float(v)) for v in p) + "\t"])
    (tmp_path / "loose.csv").write_text("\r\n".join(rows) + "\n\n")
    again = run_io.read_curve_csv(tmp_path / "loose.csv")
    assert again.points.tobytes() == curve.points.tobytes()


def test_curve_csv_write_read_is_bitwise(tmp_path):
    # unit vectors with every low bit in play, and signed zeros
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts[::7, 2] = -0.0
    pts[::7] /= np.linalg.norm(pts[::7], axis=1)[:, None]
    curve = sg.make_curve(pts)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_io.write_curve_csv(curve, first)
    again = run_io.read_curve_csv(first)
    assert again.points.tobytes() == curve.points.tobytes()
    run_io.write_curve_csv(again, second)
    assert second.read_bytes() == first.read_bytes()


def test_missing_artifacts(tmp_path):
    with pytest.raises(MissingArtifacts):
        run_io.load_run(tmp_path)


@pytest.mark.parametrize("text, message", [
    ("[]", "JSON object"),
    ('{"config": {"generator": {"kind": "great_circle"}}, "outcome": {"kind": "x"}}',
     "files must be a list of objects"),
    ('{"config": {"generator": {"kind": "great_circle"}}, "outcome": {"kind": "x"},'
     ' "files": [{"path": "diagnostics.csv", "bytes": "12", "sha256": ""}]}',
     "files[].bytes must be an integer"),
    ('{"config": {"generator": {"kind": "great_circle"}}, "files": []}',
     "outcome must be an object"),
    ('{"config": {"generator": {"kind": "spiral"}}, "outcome": {"kind": "x"}, "files": []}',
     "generator.kind"),
])
def test_malformed_manifest_names_the_file(tmp_path, text, message):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(ConfigParseError, match=f"manifest.json: .*{re.escape(message)}"):
        run_io.load_run(tmp_path)


def test_lockfile_exclusive(tmp_path):
    with run_io.RunDirLock(tmp_path / ".lock"):
        with pytest.raises(RunDirLocked):
            with run_io.RunDirLock(tmp_path / ".lock"):
                pass
    # released on exit
    with run_io.RunDirLock(tmp_path / ".lock"):
        pass


def test_lockfile_names_its_owner(tmp_path):
    with run_io.RunDirLock(tmp_path / ".lock"):
        owner = json.loads((tmp_path / ".lock").read_text())
        assert owner["pid"] == os.getpid()
        assert owner["host"] == platform.node()
        assert _dt.datetime.fromisoformat(owner["started_at"]).tzinfo is not None
        with pytest.raises(RunDirLocked, match=f"pid {os.getpid()} on host "):
            with run_io.RunDirLock(tmp_path / ".lock"):
                pass


def test_lockfile_without_owner(tmp_path):
    # a holder that has not written its record yet
    with open(tmp_path / ".lock", "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(RunDirLocked, match="names no owner"):
            with run_io.RunDirLock(tmp_path / ".lock"):
                pass
    assert (tmp_path / ".lock").exists()


def test_lockfile_is_emptied_not_removed(tmp_path):
    # a record left by a killed holder is replaced; release leaves an empty file
    (tmp_path / ".lock").write_text('{"pid": 4242, "host": "node-7", "started_at": "x"}')
    with run_io.RunDirLock(tmp_path / ".lock"):
        assert json.loads((tmp_path / ".lock").read_text())["pid"] == os.getpid()
    assert (tmp_path / ".lock").read_text() == ""


def test_diagnostics_reader_rejects_truncated_row(tmp_path):
    path = tmp_path / "diagnostics.csv"
    path.write_text(run_io.DIAGNOSTICS_HEADER + "\n"
                    "0,0.0,0.0,6.2,1.0,nan,0.0,0.1\n"
                    "25,0.05,0.001,6.1,1.0,0.2\n"
                    "50,0.1,0.002,6.0,1.0,nan,0.0,0.1\n")
    with pytest.raises(ConfigParseError, match=r"diagnostics\.csv, line 3: expected 8 fields"):
        run_io.read_diagnostics_csv(path)


def test_diagnostics_reader_rejects_unparsable_field(tmp_path):
    path = tmp_path / "diagnostics.csv"
    path.write_text(run_io.DIAGNOSTICS_HEADER + "\n0,0.0,0.0,6.2,1.0,nan,0.0,0.x\n")
    with pytest.raises(ConfigParseError, match="line 2"):
        run_io.read_diagnostics_csv(path)


def test_diagnostics_reader_rejects_non_integer_step(tmp_path):
    for step in ("2.5", "25.0", "1e3"):
        path = tmp_path / "diagnostics.csv"
        path.write_text(run_io.DIAGNOSTICS_HEADER + "\n"
                        "0,0.0,0.0,6.2,1.0,nan,0.0,0.1\n"
                        f"{step},0.05,0.001,6.1,1.0,nan,0.0,0.1\n")
        with pytest.raises(ConfigParseError,
                           match=rf"diagnostics\.csv, line 3: .*'{step}'"):
            run_io.read_diagnostics_csv(path)


def test_curve_csv_round_trip_keeps_short_reprs(tmp_path):
    pts = generators.great_circle_curve((0, 0, 1), 16).points.copy()
    pts[0] = (1.0, 1.5e-17, -0.0)
    pts[1] = (math.sqrt(0.99), 0.1, 0.0)
    pts[4] = (1e-05, math.sqrt(1 - 1e-10), -0.0)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_io.write_curve_csv(sg.make_curve(pts), first) == first.read_bytes()
    rows = first.read_text().splitlines()
    assert rows[1] == "1.0,1.5e-17,-0.0"
    assert rows[2].endswith(",0.1,0.0")
    assert rows[5].startswith("1e-05,")
    run_io.write_curve_csv(run_io.read_curve_csv(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_diagnostics_csv_round_trip_with_nan_cells(tmp_path):
    series = flow_engine.DiagnosticsSeries()
    for k in range(300):   # past the initial capacity
        series.append(25 * k, 1e-05 * k, -0.0, 6.2, 1.5e-17,
                      0.1 if k % 25 == 0 else math.nan, math.nan, 0.1)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_io.write_diagnostics_csv(series, first) == first.read_bytes()
    assert first.read_text().splitlines()[2] == "25,1e-05,-0.0,6.2,1.5e-17,nan,nan,0.1"
    again = run_io.read_diagnostics_csv(first)
    assert again.rows().tobytes() == series.rows().tobytes()
    run_io.write_diagnostics_csv(again, second)
    assert second.read_bytes() == first.read_bytes()
    again.append(*series.rows()[0])   # a series read back still grows
    assert again.column("step").size == 301


# unit vectors, every one exactly what make_curve keeps (unit to 1e-13)
_coord = st.floats(-1.0, 1.0)
_unit = (st.tuples(_coord, _coord, _coord).map(np.array)
         .filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v)))
# step an integer, every other column any double; nan is the one the writer prints
_cell = st.floats(allow_nan=False) | st.just(math.nan)
_record = st.tuples(st.integers(0, 2 ** 53).map(float),
                    *[_cell] * (len(flow_engine.DIAGNOSTICS_COLUMNS) - 1))
_round_trip_settings = settings(max_examples=60, deadline=None,
                                suppress_health_check=[HealthCheck.function_scoped_fixture])


@_round_trip_settings
@given(points=st.lists(_unit, min_size=8, max_size=40, unique_by=lambda v: tuple(v.round(10))))
def test_curve_csv_round_trip_property(tmp_path, points):
    # the format's preconditions: consecutive rows distinct, the last row no
    # repeat of the first (the reader drops one within 1e-14)
    pts = np.array(points)
    assume(np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1).min() >= 1e-13)
    curve = sg.make_curve(pts)
    assert np.array_equal(curve.points.view(np.uint64), pts.view(np.uint64))
    run_io.write_curve_csv(curve, tmp_path / "curve.csv")
    again = run_io.read_curve_csv(tmp_path / "curve.csv")
    assert np.array_equal(again.rows.view(np.uint64), curve.rows.view(np.uint64))


@_round_trip_settings
@given(records=st.lists(_record, max_size=40))
def test_diagnostics_csv_round_trip_property(tmp_path, records):
    series = flow_engine.DiagnosticsSeries()
    for record in records:
        series.append(*record)
    run_io.write_diagnostics_csv(series, tmp_path / "diagnostics.csv")
    again = run_io.read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert np.array_equal(again.rows().view(np.uint64), series.rows().view(np.uint64))
