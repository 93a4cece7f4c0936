"""Discrete closed curves on the unit sphere and their pointwise geometry.

A curve is a cyclic polygon whose vertices sit on S^2 (unit vectors in R^3).
Segment "arclength" is chordal polygon length; for vertices on a smooth
curve this underestimates the true arclength by O(ds^2) relative, which all
downstream tolerances absorb.

Frame convention: with unit tangent T and position gamma, the unit normal N
is fixed by gamma = N x T, so that gamma_ss = -kappa*N - gamma and the
signed geodesic curvature is kappa = -<gamma_ss + gamma, N>. The space
curvature then satisfies kappa_bar^2 = 1 + kappa^2 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateSegment, NonConvergent, TooFewVertices

MIN_VERTICES = 8

# A resample stops when max ds - min ds <= _UNIFORM_RTOL * mean ds, or after
# _MAX_PASSES interpolation passes. The spread shrinks about 5x a pass, and
# coarse curves (n = 8 to 15) need up to 17 passes (n >= 16 at most 10, over
# seeds 0..59 of fourier_perturbed modes 0, 2, 3). On the odd-n dumbbell
# fourier_perturbed_curve((0, 0, 1), [2], [1.35], n) it shrinks more slowly,
# at least 1.58x a pass after pass 20, and every odd n from 15 to 2047 needs
# at most 48 passes. Past n ~ 8000 the spread of |p_{i+1} - p_i| bottoms out
# at about 9 ulp of a unit coordinate, above the relative target (equator
# 8192 -> 16384 ends at 5.2e-12 of the mean), so a resample whose spread is
# within _ROUNDOFF_SPREAD after _ROUNDOFF_PASSES passes has converged to
# round-off and stops there.
_UNIFORM_RTOL = 1e-12
_MAX_PASSES = 64
_ROUNDOFF_PASSES = 10
_ROUNDOFF_SPREAD = 64 * np.finfo(float).eps

# Pairwise passes walk the cyclic index gaps in blocks of about this many
# (gap, vertex) entries, and the embeddedness sweep takes its pairs this many
# at a time, so their memory is O(n + block) rather than O(n^2).
_GAP_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DiscreteCurve:
    """Closed polygonal curve with vertices on the unit sphere.

    rows is the read-only (3, n+1) array of coordinate rows: column i is
    vertex i, column i+1 follows it, and column n repeats vertex 0, so the
    closing segment is rows[:, n-1] -> rows[:, n] like every other one.
    """

    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[1] - 1

    @cached_property
    def points(self) -> np.ndarray:
        """Read-only, C-contiguous (n, 3) copy of the vertices, made on first use.

        A copy, not a transposed view: sums over axis 0 and BLAS products on
        it then run in (n, 3) memory order.
        """
        pts = self.rows[:, :-1].T.copy()
        pts.flags.writeable = False
        return pts

    @cached_property
    def seg_lengths(self) -> np.ndarray:
        """ds_i = |p_{i+1} - p_i| with cyclic wrap, shape (n,)."""
        return _segment_lengths(self.rows)

    @cached_property
    def cum_lengths(self) -> np.ndarray:
        """Cumulative arclength S_0 = 0, ..., S_n = L, shape (n+1,)."""
        out = np.empty(self.n + 1)
        out[0] = 0.0
        np.add.accumulate(self.seg_lengths, out=out[1:])
        return out

    @cached_property
    def length(self) -> float:
        return float(self.cum_lengths[-1])

    @cached_property
    def vertex_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weight per vertex: (ds_{i-1} + ds_i)/2."""
        ds = self.seg_lengths
        return 0.5 * (np.roll(ds, 1) + ds)

    @cached_property
    def min_seg_length(self) -> float:
        """min_i ds_i, the spacing that caps a flow step."""
        return float(np.minimum.reduce(self.seg_lengths))

    @cached_property
    def uniform(self) -> bool:
        """Whether the spacing meets the resample's stopping rule (_is_uniform);
        a resample records the answer it computed on the curve it returns."""
        return _is_uniform(self.seg_lengths)


@dataclass(frozen=True)
class FrameField:
    """Per-vertex tangent/normal frame and curvatures of a DiscreteCurve."""

    tangent: np.ndarray      # (n, 3) unit, orthogonal to the position vector
    normal: np.ndarray       # (n, 3) unit, gamma = N x T
    kappa: np.ndarray        # (n,) signed geodesic curvature
    kappa_bar: np.ndarray    # (n,) space curvature, sqrt(1 + kappa^2)


def _project_rows(rows: np.ndarray) -> None:
    """Scale each vertex (column) of coordinate rows onto the unit sphere, in place."""
    sq = rows * rows
    norms = sq[0] + sq[1]
    norms += sq[2]
    np.sqrt(norms, out=norms)
    if not (np.minimum.reduce(norms) > 0.0 and np.maximum.reduce(norms) < np.inf):
        raise DegenerateSegment("zero or non-finite vertex cannot be projected to the sphere")
    # leave already-unit vertices untouched so ingest/serialise round-trips are
    # bitwise stable (dividing by 1 +/- 1 ulp would still flip low bits):
    # their norm becomes exactly 1.0, and x / 1.0 is x
    np.copyto(norms, 1.0, where=np.abs(norms - 1.0) <= 1e-13)
    rows /= norms


def _segment_lengths(rows: np.ndarray) -> np.ndarray:
    """|p_{i+1} - p_i| from closed coordinate rows, summed coordinate by coordinate.

    Raises DegenerateSegment where consecutive vertices coincide.
    """
    # one contiguous difference of the flattened rows: entry k (n + 1) + i is
    # segment i of coordinate k, and entries k (n + 1) + n, which mix two
    # coordinate rows, are never read
    n = rows.shape[1] - 1
    flat = rows.reshape(-1)
    d = flat[1:] - flat[:-1]
    d *= d
    ds = d[:n] + d[n + 1:2 * n + 1]
    ds += d[2 * n + 2:]
    np.sqrt(ds, out=ds)
    if np.minimum.reduce(ds) < 1e-14:
        bad = int(np.argmin(ds))
        raise DegenerateSegment(f"vertices {bad} and {(bad + 1) % ds.size} coincide")
    return ds


def _curve(rows: np.ndarray, ds: np.ndarray, uniform: bool | None = None) -> DiscreteCurve:
    """DiscreteCurve from closed coordinate rows, with seg_lengths (and, when
    not None, whether they are uniform) already known."""
    rows.flags.writeable = False
    curve = DiscreteCurve(rows=rows)
    curve.__dict__["seg_lengths"] = ds   # where cached_property keeps its value
    if uniform is not None:
        curve.__dict__["uniform"] = uniform
    return curve


def _vertex_rows(points) -> np.ndarray:
    """Closed coordinate rows of an (n >= 8, 3) vertex array, projected."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DegenerateSegment(f"expected (n, 3) vertex array, got shape {pts.shape}")
    n = pts.shape[0]
    if n < MIN_VERTICES:
        raise TooFewVertices(f"need at least {MIN_VERTICES} vertices, got {n}")
    rows = np.empty((3, n + 1))
    rows[:, :n] = pts.T
    rows[:, n] = rows[:, 0]
    _project_rows(rows)
    return rows


def make_curve(points) -> DiscreteCurve:
    """Build a DiscreteCurve, projecting every vertex onto the unit sphere.

    Raises TooFewVertices for n < 8 and DegenerateSegment if consecutive
    vertices coincide after projection.
    """
    rows = _vertex_rows(points)
    return _curve(rows, _segment_lengths(rows))


def curvature_rows(curve: DiscreteCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit tangent and normal as (3, n) coordinate rows, and the signed
    geodesic curvature kappa (n,), from centered differences.

    The tangent is the centered arclength difference projected onto the
    sphere's tangent plane; the normal follows the gamma = N x T
    orientation; kappa comes from the N-component of gamma_ss + gamma.
    Second order accurate on smoothly-spaced vertices, exact on uniformly
    sampled circles. frame_field packages the same arrays per vertex.
    """
    rows = curve.rows
    n = curve.n
    # columns p_{n-1}, p_0, ..., p_{n-1}, p_0 and spacings ds_{n-1}, ds_0, ..., ds_{n-1}:
    # vertex i has p_prev, p_mid, p_next at columns i, i+1, i+2
    ext = np.concatenate((rows[:, n - 1:n], rows), axis=1)
    p_mid = ext[:, 1:-1]
    ds = curve.seg_lengths
    ds_ext = np.concatenate((ds[-1:], ds))

    t = ext[:, 2:] - ext[:, :-2]
    tp = t * p_mid
    dot = tp[0] + tp[1]
    dot += tp[2]
    t -= dot * p_mid
    tt = t * t
    t_norm = tt[0] + tt[1]
    t_norm += tt[2]
    np.sqrt(t_norm, out=t_norm)
    if np.minimum.reduce(t_norm) < 1e-14:
        raise DegenerateSegment("tangent stencil collapsed (coincident neighbours)")
    t /= t_norm

    # np.cross(tangent, p), component by component: coordinate k of the
    # normal is t[k+1] p[k+2] - t[k+2] p[k+1], read from rows 0, 1, 2, 0, 1
    t5 = np.concatenate((t, t[:2]))
    p5 = np.concatenate((p_mid, p_mid[:2]))
    normal = t5[1:4] * p5[2:]
    normal -= t5[2:] * p5[1:4]

    # 3-point second derivative on nonuniform spacing, then add gamma: the
    # forward difference quotient of vertex i is the backward one of i + 1
    slope = ext[:, 1:] - ext[:, :-1]
    slope /= ds_ext
    g = slope[:, 1:] - slope[:, :-1]
    g *= 2.0 / (ds_ext[:-1] + ds_ext[1:])
    g += p_mid
    g *= normal
    kappa = g[0] + g[1]
    kappa += g[2]
    np.negative(kappa, out=kappa)
    return t, normal, kappa


def frame_field(curve: DiscreteCurve) -> FrameField:
    """Read-only (n, 3) tangent and normal, kappa, and kappa_bar = sqrt(1 + kappa^2)
    per vertex, from curvature_rows."""
    t, normal, kappa = curvature_rows(curve)
    kappa_bar = np.sqrt(1.0 + kappa * kappa)
    tangent, normal = t.T, normal.T
    for arr in (tangent, normal, kappa, kappa_bar):
        arr.flags.writeable = False
    return FrameField(tangent=tangent, normal=normal, kappa=kappa, kappa_bar=kappa_bar)


def _is_uniform(ds: np.ndarray) -> bool:
    """The resample's stopping rule: max ds - min ds <= _UNIFORM_RTOL * mean ds."""
    spread = np.maximum.reduce(ds) - np.minimum.reduce(ds)
    return bool(spread <= _UNIFORM_RTOL * (np.add.reduce(ds) / ds.size))


@lru_cache(maxsize=64)
def _vertex_grid(n: int) -> np.ndarray:
    """Read-only 0.0, 1.0, ..., n - 1, made once per n."""
    grid = np.arange(n, dtype=float)
    grid.flags.writeable = False
    return grid


def reparametrize_uniform(curve: DiscreteCurve, n_out: int) -> DiscreteCurve:
    """Resample to n_out vertices at equal polygon-arclength spacing.

    New vertices are linearly interpolated along the polygon (anchored at
    vertex 0) and re-projected onto the sphere. Projection perturbs the
    spacing at O(ds^2), so the resample iterates to its fixed point on plain
    coordinate rows and builds one curve at the end. Idempotent on already
    uniform curves; length is preserved to O(n^-2).

    Raises NonConvergent when the spacing is still not uniform after
    _MAX_PASSES passes. A resample whose spread is round-off after
    _ROUNDOFF_PASSES passes stops there.
    """
    if n_out < MIN_VERTICES:
        raise TooFewVertices(f"need at least {MIN_VERTICES} vertices, got {n_out}")
    if curve.n == n_out and curve.uniform:
        return curve
    rows, ds = curve.rows, curve.seg_lengths
    for passes in range(1, _MAX_PASSES + 1):
        cum = np.empty(ds.size + 1)
        cum[0] = 0.0
        np.add.accumulate(ds, out=cum[1:])
        targets = _vertex_grid(n_out) * (float(cum[-1]) / n_out)
        rows_in, rows = rows, np.empty((3, n_out + 1))
        for k in range(3):
            rows[k, :n_out] = np.interp(targets, cum, rows_in[k])
        rows[:, n_out] = rows[:, 0]
        _project_rows(rows)
        ds = _segment_lengths(rows)
        uniform = _is_uniform(ds)
        if uniform or (passes >= _ROUNDOFF_PASSES and ds.max() - ds.min() <= _ROUNDOFF_SPREAD):
            return _curve(rows, ds, uniform)
    raise NonConvergent(
        f"resample to {n_out} vertices did not converge in {_MAX_PASSES} passes: "
        f"spacing spread {(ds.max() - ds.min()) / ds.mean():.3e} of the mean")


def _arc_intersections(a, b, c, d) -> np.ndarray:
    """Whether minor great-circle arcs (a->b) and (c->d) intersect, rowwise."""
    # Unit plane normals: the sign tests below compare products with n1 and n2
    # against fixed tolerances, so those products must not scale with the
    # arc's length (with |a x b| = 2e-10, -1e-15 would allow 5e-6 rad).
    n1 = np.cross(a, b)
    n1 /= np.maximum(np.linalg.norm(n1, axis=1), 1e-300)[:, None]
    n2 = np.cross(c, d)
    n2 /= np.maximum(np.linalg.norm(n2, axis=1), 1e-300)[:, None]
    g = np.cross(n1, n2)
    gn = np.linalg.norm(g, axis=1)
    generic = gn > 1e-12

    hit = np.zeros(a.shape[0], dtype=bool)

    if np.any(generic):
        t = g[generic] / gn[generic, None]
        for cand in (t, -t):
            on1 = (np.sum(np.cross(a[generic], cand) * n1[generic], axis=1) >= -1e-15) & (
                np.sum(np.cross(cand, b[generic]) * n1[generic], axis=1) >= -1e-15
            )
            on2 = (np.sum(np.cross(c[generic], cand) * n2[generic], axis=1) >= -1e-15) & (
                np.sum(np.cross(cand, d[generic]) * n2[generic], axis=1) >= -1e-15
            )
            hit[generic] |= on1 & on2

    # Coplanar arcs: conservatively flag if any endpoint lies on the other arc.
    cop = ~generic
    if np.any(cop):
        for p, seg_a, seg_b, nrm in (
            (c, a, b, n1), (d, a, b, n1), (a, c, d, n2), (b, c, d, n2),
        ):
            inplane = np.abs(np.sum(p[cop] * nrm[cop], axis=1)) < 1e-10
            between = (np.sum(np.cross(seg_a[cop], p[cop]) * nrm[cop], axis=1) >= -1e-15) & (
                np.sum(np.cross(p[cop], seg_b[cop]) * nrm[cop], axis=1) >= -1e-15
            )
            hit[cop] |= inplane & between
    return hit


def _cyclic_shifts(a: np.ndarray) -> np.ndarray:
    """Read-only (n, n) view of a 1-D array: row k holds a[(i + k) mod n] at i."""
    return sliding_window_view(np.concatenate([a, a[:-1]]), a.size)


def _gap_blocks(rows: np.ndarray, k_min: int):
    """Yield (k, d2) over the cyclic index gaps k = k_min .. n // 2, in order.

    rows are closed (3, n+1) coordinate rows, as DiscreteCurve.rows; only
    their first n columns are read.

    k has shape (r,) and d2 shape (r, n), with d2[r, i] = |p_i - p_j|^2 for
    j = (i + k[r]) mod n. Each unordered pair at cyclic gap
    min(|i - j|, n - |i - j|) >= k_min appears once: at even n, entries
    i >= n/2 of gap n/2 repeat entries i < n/2, so they are +inf and never
    pass a distance threshold or win a minimum.

    d2 is summed coordinate by coordinate, (dx^2 + dy^2) + dz^2, from views
    of the doubled coordinate rows (no gather, no BLAS), so every entry is
    bitwise independent of the block size and of the order of i and j.

    Every block is written into the same two buffers, the halves of one
    array allocated once per call, so a pass faults in its block memory once
    however many blocks it walks. A yielded d2 is therefore valid only until
    the next block is requested: a caller that keeps a block past that must
    copy it.

    One array, not two: glibc's malloc then keeps the freed array (up to
    1 MB) on its heap for the next call, where two arrays of up to 512 KB go
    back to the system and fault in again (about 220 page faults per min_Z
    call at n = 512).
    """
    n = rows.shape[1] - 1
    half = n // 2
    coords = rows[:, :n]
    shifted = [_cyclic_shifts(c) for c in coords]
    per_block = max(1, _GAP_BLOCK_ENTRIES // n)
    d2_buf, diff_buf = np.empty((2, min(per_block, half + 1 - k_min), n))
    for k0 in range(k_min, half + 1, per_block):
        k1 = min(k0 + per_block, half + 1)
        d2, diff = d2_buf[:k1 - k0], diff_buf[:k1 - k0]
        np.subtract(shifted[0][k0:k1], coords[0], out=d2)
        d2 *= d2
        for view, coord in zip(shifted[1:], coords[1:]):
            np.subtract(view[k0:k1], coord, out=diff)
            diff *= diff
            d2 += diff
        if k1 > half and n % 2 == 0:
            d2[-1, half:] = np.inf
        yield np.arange(k0, k1), d2


def _gap_pairs(n: int, k: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs (i < j) at flat positions of a (k.size, n) _gap_blocks block."""
    row, i = np.divmod(flat, n)
    j = (i + k[row]) % n
    return np.minimum(i, j), np.maximum(i, j)


def _simple_candidates(curve: DiscreteCurve) -> tuple[np.ndarray, np.ndarray]:
    """Non-adjacent segment pairs (i < j) that the exact crossing test must see.

    A pair is kept when its chord midpoints lie within the sum of half-lengths
    plus 1e-9, as every intersecting pair does: d2 <= reach^2 with
    reach = 0.5 (ds_i + ds_j) + 1e-9 and d2 = (dx^2 + dy^2) + dz^2 of
    m_j - m_i, summed as _gap_blocks sums it. Pairs come in (i, j) order.

    The pairs are found by sort and sweep, a fixed-radius near-neighbour
    query (Bentley, Stanat and Williams, IPL 6, 1977). Midpoints are sorted
    along the axis a of largest spread, and each is paired with the later
    midpoints at most widest (1 + 1e-6) further along a, where widest is
    max ds + 1e-9. Only those pairs get a d2 and the cut. The sweep's pairs
    are a superset of the kept ones, so the result is the all-pairs cut's,
    bit for bit. With u = 2^-53:
    - 0.5 (ds_i + ds_j) + 1e-9 <= widest holds after rounding too, so a kept
      pair has d2 <= fl(widest^2);
    - rounding is monotone, so fl(dx_a^2) <= d2, and |x_j - x_i| along a is
      at most widest (1 + 4u);
    - midpoint coordinates lie in [-1, 1] and widest in [1e-9, 2 + 1e-9],
      so the sweep's bound fl(x_i + fl(widest (1 + 1e-6))) exceeds
      x_i + widest (1 + 4u) by at least widest (1e-6 - 7u) - 2^-52 > 7e-16.

    Time is O(n log n + pairs in the windows) and memory O(n + block): the
    windows are expanded _GAP_BLOCK_ENTRIES pairs at a time. A window is as
    wide as the longest segment, so uneven spacing is the worst case: one
    segment of 1.26 rad in a curve of n = 2048 puts most midpoints in every
    window, and the sweep then gathers O(n^2) pairs. Flow runs check
    resampled curves, whose segments are all of one length.
    """
    rows = curve.rows
    mids = 0.5 * (rows[:, :-1] + rows[:, 1:])
    ds = curve.seg_lengths
    n = curve.n
    widest = float(np.max(ds)) + 1e-9
    axis = int(np.argmax(np.ptp(mids, axis=1)))
    order = np.argsort(mids[axis], kind="stable")
    srt = mids[:, order]                        # coordinate rows in sweep order
    ds_srt = ds[order]
    # sorted position q pairs with the positions q + 1 .. ends[q] - 1
    ends = np.searchsorted(srt[axis], srt[axis] + widest * (1.0 + 1e-6), side="right")
    counts = ends - np.arange(1, n + 1)
    last = np.cumsum(counts)                    # one past position q's last pair
    first = last - counts
    total = int(last[-1])
    ii, jj = [], []
    for e0 in range(0, total, _GAP_BLOCK_ENTRIES):
        e1 = min(e0 + _GAP_BLOCK_ENTRIES, total)
        q0 = int(np.searchsorted(last, e0, side="right"))
        q1 = int(np.searchsorted(last, e1 - 1, side="right")) + 1
        q = np.repeat(np.arange(q0, q1), counts[q0:q1])[e0 - first[q0]:e1 - first[q0]]
        r = q + 1 + (np.arange(e0, e1) - first[q])
        d2 = srt[0][r] - srt[0][q]
        d2 *= d2
        for coord in srt[1:]:
            diff = coord[r] - coord[q]
            diff *= diff
            d2 += diff
        reach = 0.5 * (ds_srt[q] + ds_srt[r]) + 1e-9
        keep = d2 <= reach * reach
        a, b = order[q[keep]], order[r[keep]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        apart = (j - i >= 2) & (j - i <= n - 2)
        ii.append(i[apart])
        jj.append(j[apart])
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    by_pair = np.argsort(ii * n + jj)
    return ii[by_pair], jj[by_pair]


def validate_simple(curve: DiscreteCurve) -> bool:
    """True iff no two non-adjacent segments (as minor great arcs) intersect.

    A midpoint prefilter (_simple_candidates) keeps the segment pairs that
    could intersect; the exact great-arc test then decides on those. Adjacent
    segments (sharing a vertex) are skipped. O(n log n) time on evenly spaced
    curves and O(n + block) memory; see _simple_candidates for uneven ones.
    """
    ii, jj = _simple_candidates(curve)
    if ii.size == 0:
        return True
    p = curve.rows.T   # (n+1, 3): vertex j + 1 of the closing segment j = n - 1 is vertex 0
    hits = _arc_intersections(p[ii], p[ii + 1], p[jj], p[jj + 1])
    return not bool(np.any(hits))


def orthonormal_basis(axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal (e1, e2, e3) with e3 along axis, deterministic."""
    e3 = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(e3)
    if norm < 1e-14:
        raise DegenerateSegment("axis must be a nonzero vector")
    e3 = e3 / norm
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(e3)))] = 1.0
    e1 = np.cross(e3, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return e1, e2, e3


def curvature_sq_integral(curve: DiscreteCurve) -> float:
    """Trapezoidal integral of kappa^2 ds over the closed curve."""
    return float(np.sum(frame_field(curve).kappa ** 2 * curve.vertex_weights))


def total_space_curvature(curve: DiscreteCurve) -> float:
    """Integral of |kappa_bar| ds, with per-segment chord-to-arc correction.

    Plain chordal quadrature underestimates by ~2*pi*(pi^2/6)/n^2, which at
    coarse n exceeds the tolerance of the total-curvature (Fenchel) check;
    replacing each chord ds by (2/kb)*arcsin(kb*ds/2) is exact on circles.
    """
    kb = frame_field(curve).kappa_bar
    ds = curve.seg_lengths
    kb_seg = 0.5 * (kb + np.roll(kb, -1))
    half = np.clip(0.5 * kb_seg * ds, 0.0, 1.0)
    ds_arc = np.where(kb_seg > 0, 2.0 * np.arcsin(half) / np.maximum(kb_seg, 1e-300), ds)
    return float(np.sum(kb_seg * ds_arc))
