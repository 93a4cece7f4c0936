import numpy as np
import pytest
import row_block_reference as row_blocks
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sphereflow import generators, run_io
from sphereflow import sphere_geometry as sg
from sphereflow.errors import CoincidentPoints, DegenerateSegment, NonConvergent, TooFewVertices


def equator(n):
    u = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(u), np.sin(u), np.zeros(n)])


def parallel_points(theta, n, phase=0.0):
    u = 2 * np.pi * np.arange(n) / n + phase
    r = np.sin(theta)
    return np.column_stack([r * np.cos(u), r * np.sin(u), np.full(n, np.cos(theta))])


class TestMakeCurve:
    def test_equator_length(self):
        c = sg.make_curve(equator(256))
        # inscribed polygon: L = 2n sin(pi/n)
        assert abs(c.length - 2 * 256 * np.sin(np.pi / 256)) < 1e-12
        assert abs(c.length - 2 * np.pi) < 1e-3

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            sg.make_curve(equator(4))

    def test_projection_forced(self):
        c = sg.make_curve(2.0 * equator(64))
        assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) <= 1e-12

    def test_consecutive_duplicates_rejected(self):
        pts = equator(64)
        pts[10] = pts[11]
        with pytest.raises(DegenerateSegment):
            sg.make_curve(pts)

    def test_points_read_only(self):
        c = sg.make_curve(equator(64))
        with pytest.raises(ValueError):
            c.points[0, 0] = 2.0


# Reference versions of make_curve, reparametrize_uniform and frame_field on
# (n, 3) arrays with np.roll, np.cross and np.linalg.norm. The package
# computes them on coordinate rows and must match them bit for bit.
def ref_make_points(points):
    pts = np.asarray(points, dtype=float)
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.where(np.abs(norms - 1.0) > 1e-13, pts / norms, pts)
    assert np.all(ref_seg_lengths(pts) >= 1e-14)
    return pts


def ref_seg_lengths(p):
    return np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)


def ref_reparametrize_uniform(points, n_out):
    p = ref_make_points(points)
    for _ in range(10):
        ds = ref_seg_lengths(p)
        if p.shape[0] == n_out and (ds.max() - ds.min()) <= 1e-12 * ds.mean():
            return p
        s = np.concatenate([[0.0], np.cumsum(ds)])
        closed = np.vstack([p, p[:1]])
        targets = np.arange(n_out) * (float(s[-1]) / n_out)
        pts = np.empty((n_out, 3))
        for k in range(3):
            pts[:, k] = np.interp(targets, s, closed[:, k])
        p = ref_make_points(pts)
    return p


def ref_frame_field(p):
    ds = ref_seg_lengths(p)
    p_next, p_prev, ds_prev = np.roll(p, -1, axis=0), np.roll(p, 1, axis=0), np.roll(ds, 1)
    t_raw = p_next - p_prev
    t_raw = t_raw - np.sum(t_raw * p, axis=1, keepdims=True) * p
    tangent = t_raw / np.linalg.norm(t_raw, axis=1, keepdims=True)
    normal = np.cross(tangent, p)
    inv = 2.0 / (ds_prev + ds)
    gamma_ss = inv[:, None] * ((p_next - p) / ds[:, None] - (p - p_prev) / ds_prev[:, None])
    kappa = -np.sum((gamma_ss + p) * normal, axis=1)
    return tangent, normal, kappa, np.sqrt(1.0 + kappa * kappa), ds


def clustered_points(seed, n):
    """Seeded perturbed curve with clustered vertices, off the sphere by up to 10%."""
    rng = np.random.default_rng(seed)
    u = 2 * np.pi * np.arange(n) / n
    lon = u + 0.4 * np.sin(u + rng.uniform(0, 2 * np.pi))
    lat = 0.3 * np.sin(2 * lon + rng.uniform(0, 2 * np.pi)) + 0.1 * np.cos(3 * lon)
    pts = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    return pts * rng.uniform(0.9, 1.1, size=(n, 1))


def reference_inputs():
    """Seeded perturbed, clustered parallel and read-from-file vertex arrays."""
    out = [clustered_points(seed, n) for seed, n in [(1, 64), (2, 201), (3, 512), (4, 1024)]]
    for n in (96, 512):
        u = 2 * np.pi * np.arange(n) / n
        u = u + 0.4 * np.sin(u)
        r, z = np.sin(np.pi / 3), np.cos(np.pi / 3)
        out.append(np.column_stack([r * np.cos(u), r * np.sin(u), np.full(n, z)]))
    return out


def read_back(points, tmp_path):
    """Vertex array as read_curve_csv parses it after write_curve_csv."""
    path = tmp_path / "curve.csv"
    run_io.write_curve_csv(sg.make_curve(points), path)
    return np.loadtxt(path, delimiter=",", skiprows=1)


class TestComponentRowsMatchReference:
    def test_make_curve_and_seg_lengths(self):
        for pts in reference_inputs():
            c = sg.make_curve(pts)
            assert np.array_equal(c.points, ref_make_points(pts))
            assert np.array_equal(c.seg_lengths, ref_seg_lengths(c.points))

    def test_frame_field(self, tmp_path):
        curves = [sg.make_curve(pts) for pts in reference_inputs()]
        curves += [sg.reparametrize_uniform(pts, pts.shape[0]) for pts in reference_inputs()]
        curves.append(sg.make_curve(read_back(clustered_points(7, 300), tmp_path)))
        for c in curves:
            f = sg.frame_field(c)
            got = (f.tangent, f.normal, f.kappa, f.kappa_bar, c.seg_lengths)
            for a, b in zip(got, ref_frame_field(c.points)):
                assert np.array_equal(a, b)

    def test_read_back_curves_resample(self, tmp_path):
        for seed in (8, 9):
            pts = read_back(clustered_points(seed, 257), tmp_path)
            assert np.array_equal(sg.reparametrize_uniform(sg.make_curve(pts), 257).points,
                                  ref_reparametrize_uniform(pts, 257))


class TestFrameField:
    def test_equator_is_geodesic(self):
        f = sg.frame_field(sg.make_curve(equator(512)))
        assert np.max(np.abs(f.kappa)) < 1e-4

    def test_parallel_curvature_and_length(self):
        # oracle: gamma(u) = (sin t cos u, sin t sin u, cos t) has kappa = cot t,
        # L = 2 pi sin t = 4.442882938158366... at t = pi/4
        c = sg.make_curve(parallel_points(np.pi / 4, 512))
        f = sg.frame_field(c)
        assert np.max(np.abs(f.kappa - 1.0)) < 1e-3
        assert abs(c.length - 4.442882938158366) < 1e-4

    def test_space_curvature_identity(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 5], [0.2, 0.1], 128, seed=2)
        f = sg.frame_field(c)
        assert np.max(np.abs(f.kappa_bar ** 2 - f.kappa ** 2 - 1.0)) < 1e-12

    def test_frame_invariants(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [3], [0.3], 128, seed=5)
        f = sg.frame_field(c)
        assert np.max(np.abs(np.linalg.norm(f.tangent, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.sum(f.tangent * c.points, axis=1))) < 1e-12
        # orientation gamma = N x T
        assert np.max(np.linalg.norm(c.points - np.cross(f.normal, f.tangent), axis=1)) < 1e-12

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_parallel_convergence_rate(self, n):
        # second-order bound err <= C/n^2 (uniform circles are in fact exact)
        c = sg.make_curve(parallel_points(0.8, n))
        f = sg.frame_field(c)
        assert np.max(np.abs(f.kappa - 1.0 / np.tan(0.8))) <= 10.0 / n ** 2

    def test_nonuniform_parallel_still_second_order(self):
        theta = 0.8
        for n in (128, 256):
            u = 2 * np.pi * np.arange(n) / n
            u = u + 0.3 * np.sin(u)
            pts = np.column_stack([np.sin(theta) * np.cos(u), np.sin(theta) * np.sin(u),
                                   np.full(n, np.cos(theta))])
            f = sg.frame_field(sg.make_curve(pts))
            assert np.max(np.abs(f.kappa - 1.0 / np.tan(theta))) <= 1.0 / n ** 2


class TestChordData:
    def test_antipodal(self):
        c = sg.make_curve(equator(256))
        cd = sg.chord_data(c, 0, 128)
        assert abs(cd.d - 2.0) < 1e-12
        assert abs(cd.rho - np.pi) < 1e-6
        assert abs(cd.ell - np.pi) < 1e-4

    def test_quarter_turn(self):
        c = sg.make_curve(equator(256))
        cd = sg.chord_data(c, 0, 64)
        assert abs(cd.d - np.sqrt(2.0)) < 1e-12

    def test_chord_direction_identity(self):
        # <w, x> = -<w, y> = d/2 for unit vectors
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.2, 0.1], 128, seed=9)
        rng = np.random.RandomState(0)
        for _ in range(50):
            i, j = rng.randint(0, 128, 2)
            if i == j:
                continue
            cd = sg.chord_data(c, i, j)
            assert abs(np.dot(cd.w, c.points[i]) - cd.d / 2) < 1e-12
            assert abs(np.dot(cd.w, c.points[j]) + cd.d / 2) < 1e-12
            assert abs(np.cos(cd.rho) - (1 - cd.d ** 2 / 2)) < 1e-12

    def test_symmetry(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [2], [0.25], 64)
        for i, j in [(3, 40), (0, 33), (10, 11)]:
            assert sg.chord_data(c, i, j).d == sg.chord_data(c, j, i).d
            assert sg.chord_data(c, i, j).ell == sg.chord_data(c, j, i).ell

    def test_coincident_points(self):
        c = sg.make_curve(equator(64))
        with pytest.raises(CoincidentPoints):
            sg.chord_data(c, 5, 5)


class TestReparametrize:
    def test_uniform_fixed_point(self):
        c = sg.make_curve(equator(128))
        r = sg.reparametrize_uniform(c, 128)
        assert np.max(np.linalg.norm(r.points - c.points, axis=1)) < 1e-12

    def test_clustered_parallel_becomes_uniform(self):
        n = 256
        u = 2 * np.pi * np.arange(n) / n
        u = u + 0.4 * np.sin(u)
        pts = np.column_stack([0.7 * np.cos(u), 0.7 * np.sin(u),
                               np.full(n, np.sqrt(1 - 0.49))])
        r = sg.reparametrize_uniform(sg.make_curve(pts), n)
        ds = r.seg_lengths
        assert (ds.max() - ds.min()) / ds.mean() < 1e-10

    def test_doubling_preserves_length(self):
        # analytic: inscribed length deficit is 2 pi (pi^2/6) / n^2, so the
        # doubling change is ~1.2e-7 at n = 8192
        n = 8192
        c = sg.make_curve(equator(n))
        r = sg.reparametrize_uniform(c, 2 * n)
        assert abs(r.length - c.length) < 1e-6

    def test_idempotent(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [3], [0.2], 200, seed=4)
        r1 = sg.reparametrize_uniform(c, 200)
        r2 = sg.reparametrize_uniform(r1, 200)
        assert np.max(np.linalg.norm(r2.points - r1.points, axis=1)) < 1e-10

    def test_accepts_vertex_array(self):
        pts = 1.5 * clustered_points(5, 128)
        r = sg.reparametrize_uniform(pts, 128)
        assert np.array_equal(r.points, sg.reparametrize_uniform(sg.make_curve(pts), 128).points)
        assert np.array_equal(r.seg_lengths, np.linalg.norm(
            np.roll(r.points, -1, axis=0) - r.points, axis=1))

    @pytest.mark.parametrize("n_out_of_n", [lambda n: n, lambda n: n // 2, lambda n: 2 * n])
    def test_bitwise_equal_to_reference(self, n_out_of_n):
        for pts in reference_inputs():
            n_out = n_out_of_n(pts.shape[0])
            expect = ref_reparametrize_uniform(pts, n_out)
            assert np.array_equal(sg.reparametrize_uniform(pts, n_out).points, expect)
            assert np.array_equal(
                sg.reparametrize_uniform(sg.make_curve(pts), n_out).points, expect)

    def test_pass_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sg, "_MAX_PASSES", 1)
        with pytest.raises(NonConvergent, match="spacing spread"):
            sg.reparametrize_uniform(sg.make_curve(clustered_points(0, 256)), 256)
        # an already uniform curve needs no pass
        c = sg.make_curve(equator(256))
        assert sg.reparametrize_uniform(c, 256) is c

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 14])
    def test_coarse_curves_converge(self, n):
        # the spread shrinks about 5x a pass; these need 11 to 15 passes
        c = generators.fourier_perturbed_curve((0, 0, 1), [0, 2, 3], [0.45, 0.08, 0.05],
                                               n, seed=5)
        assert c.n == n
        assert sg._is_uniform(c.seg_lengths)

    @pytest.mark.parametrize("n", [15, 63, 127, 511])
    def test_odd_n_dumbbell_converges(self, n):
        # at odd n the spread shrinks more slowly than 5x a pass and needs
        # up to 48 passes, past the 20 that the pass cap once allowed
        c = generators.fourier_perturbed_curve((0, 0, 1), [2], [1.35], n)
        assert sg._is_uniform(c.seg_lengths)

    def test_roundoff_spread_is_converged(self):
        # past n ~ 8000 the spacing cannot reach the 1e-12 relative target;
        # what is left is round-off, which is not an error
        r = sg.reparametrize_uniform(sg.make_curve(equator(4096)), 8192)
        ds = r.seg_lengths
        assert ds.max() - ds.min() > sg._UNIFORM_RTOL * ds.mean()
        assert ds.max() - ds.min() <= sg._ROUNDOFF_SPREAD


def figure_eight(n=256):
    u = 2 * np.pi * np.arange(n) / n
    lam = 0.8 * np.sin(u + 0.3)
    phi = 0.5 * np.sin(2 * u + 0.6)
    return sg.make_curve(np.column_stack([np.cos(phi) * np.cos(lam),
                                          np.cos(phi) * np.sin(lam),
                                          np.sin(phi)]))


# entries per block of the cyclic-gap kernel: one gap per block at every n
# here, a few gaps at small n, a few at n up to 96, and one block for all
# gaps; they are also the pairs per chunk of validate_simple's sweep
BLOCK_ENTRIES = (1, 3, 64, 500, 1 << 30)


@pytest.fixture(params=BLOCK_ENTRIES)
def block_entries(request, monkeypatch):
    monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", request.param)
    return request.param


def all_pairs_simple(curve) -> bool:
    """validate_simple without the prefilter: the exact test on every pair."""
    n = curve.n
    p, q = curve.points, np.roll(curve.points, -1, axis=0)
    ii, jj = np.triu_indices(n, k=2)
    keep = jj - ii <= n - 2
    ii, jj = ii[keep], jj[keep]
    return not bool(np.any(sg._arc_intersections(p[ii], q[ii], p[jj], q[jj])))


def assert_candidates_match_row_blocks(curve):
    """The prefilter keeps the same segment pairs, in the same order, as the row-block walk."""
    got, want = sg._simple_candidates(curve), row_blocks.simple_candidates(curve)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def dumbbell():
    return generators.fourier_perturbed_curve((0, 0, 1), [2], [1.35], 512)


def wobbly_curve(n, winding, lon_amp, lat_amps, phases):
    """Longitude winding*u + lon_amp sin(u), latitude from modes 1 and 2."""
    u = 2 * np.pi * np.arange(n) / n
    lam = winding * u + lon_amp * np.sin(u + phases[0])
    phi = (lat_amps[0] * np.sin(u + phases[1])
           + lat_amps[1] * np.sin(2 * u + phases[2]))
    return np.column_stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)])


def dumbbell_points(n):
    """dumbbell() before its resample, which does not converge at odd n."""
    u = 2 * np.pi * np.arange(n) / n
    lat = 1.35 * np.cos(2 * u)
    e1, e2, e3 = sg.orthonormal_basis((0, 0, 1))
    ring = np.outer(np.cos(u), e1) + np.outer(np.sin(u), e2)
    return np.cos(lat)[:, None] * ring + np.outer(np.sin(lat), e3)


def one_long_segment(n, span=1.26):
    """Wavy, tilted great circle whose closing segment spans `span` rad; the rest are short."""
    u = np.arange(n) * (2 * np.pi - span) / (n - 1)
    lat = 0.05 * np.sin(3 * u)
    e1, e2, e3 = sg.orthonormal_basis((0.3, -0.2, 1.0))
    ring = np.cos(u)[:, None] * e1 + np.sin(u)[:, None] * e2
    return sg.make_curve(np.cos(lat)[:, None] * ring + np.sin(lat)[:, None] * e3)


def eight_with_long_segment(n):
    """The figure-eight with a run of vertices away from its crossing cut out."""
    pts = figure_eight(n).points
    return sg.make_curve(np.concatenate([pts[: n // 8], pts[n // 4:]]))


# curves for the sweep: zero spread on one axis (a great circle in a
# coordinate plane, whose sort keys tie in pairs), L ~ 1e-3, the dumbbell's
# neck, crossings, and windows that hold most midpoints (one long segment);
# each at an even and an odd n
SWEEP_CURVES = {
    "equator_128": lambda: sg.make_curve(equator(128)),
    "meridian_129": lambda: sg.make_curve(np.roll(equator(129), 1, axis=1)),
    "tiny_64": lambda: generators.parallel_curve(1.6e-4, 64),
    "tiny_65": lambda: generators.parallel_curve(1.6e-4, 65),
    "neck_512": dumbbell,
    "neck_511": lambda: sg.make_curve(dumbbell_points(511)),
    "narrow_neck_512": lambda: generators.fourier_perturbed_curve((0, 0, 1), [2], [1.54], 512),
    "eight_256": figure_eight,
    "eight_255": lambda: figure_eight(255),
    "long_segment_256": lambda: one_long_segment(256),
    "long_segment_257": lambda: one_long_segment(257),
    "eight_long_segment_200": lambda: eight_with_long_segment(200),
}


class TestPairBlocks:
    @pytest.mark.parametrize("min_gap", [1, 2, 3])
    def test_covers_each_pair_once_in_order(self, block_entries, min_gap):
        rng = np.random.default_rng(4)
        for n in (13, 14):    # odd, and even with the repeated half of gap n/2
            pts = rng.normal(size=(n, 3))
            seen, d2_seen, ks = [], [], []
            for k, d2 in sg._gap_blocks(pts, min_gap):
                assert d2.shape == (k.size, n)
                r, i = np.nonzero(np.isfinite(d2))
                j = (i + k[r]) % n
                seen.extend(zip(i.tolist(), j.tolist()))
                d2_seen.extend(d2[r, i].tolist())
                ks.extend(k.tolist())
            # gaps in increasing order, each gap's pairs in order of their first vertex
            assert ks == list(range(min_gap, n // 2 + 1))
            expect = [(i, (i + k) % n) for k in ks for i in range(n)
                      if not (2 * k == n and i >= k)]
            assert seen == expect
            # every unordered pair at cyclic gap >= min_gap, once
            unordered = sorted((min(i, j), max(i, j)) for i, j in seen)
            assert unordered == [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if min(j - i, n - (j - i)) >= min_gap]
            direct = [float(np.sum((pts[i] - pts[j]) ** 2)) for i, j in expect]
            assert d2_seen == direct

    def test_gap_pairs_inverts_flat_positions(self):
        n = 11
        k = np.array([3, 4, 5])
        flat = np.arange(k.size * n)
        i, j = sg._gap_pairs(n, k, flat)
        assert np.all(i < j)
        row, first = np.divmod(flat, n)
        assert np.array_equal(np.sort(np.stack([first, (first + k[row]) % n]), axis=0),
                              np.stack([i, j]))

    def test_blocks_share_one_buffer(self, monkeypatch):
        # a yielded block is valid only until the next one (see _gap_blocks)
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", 120)
        pts = np.random.default_rng(5).normal(size=(40, 3))
        blocks = [d2 for _, d2 in sg._gap_blocks(pts, 2)]
        assert len(blocks) == 7
        assert all(np.shares_memory(d2, blocks[0]) for d2 in blocks)


class TestValidateSimple:
    def test_equator(self):
        assert sg.validate_simple(sg.make_curve(equator(128)))

    def test_figure_eight(self):
        assert not sg.validate_simple(figure_eight())

    @pytest.mark.parametrize("make, simple", [
        (lambda: sg.make_curve(equator(128)), True),
        (figure_eight, False),
        (dumbbell, True),
    ])
    def test_matches_unfiltered_oracle(self, block_entries, make, simple):
        curve = make()
        assert sg.validate_simple(curve) == all_pairs_simple(curve) == simple
        assert_candidates_match_row_blocks(curve)

    def test_crossing_split_across_blocks(self, monkeypatch):
        # the figure-eight's crossing segments lie exactly half a curve apart:
        # gap n/2, the last block, which also holds the repeated half of that
        # gap; the crossing must be found through its one finite entry
        curve = figure_eight()
        n = curve.n
        p, q = curve.points, np.roll(curve.points, -1, axis=0)
        ii, jj = np.triu_indices(n, k=2)
        hit = (jj - ii <= n - 2) & sg._arc_intersections(p[ii], q[ii], p[jj], q[jj])
        assert np.any(hit) and np.all(jj[hit] - ii[hit] == n // 2)
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", 4 * n)
        mids = 0.5 * (p + q)
        # a block is valid only until the next one is requested: keep copies
        blocks = [(k, d2.copy()) for k, d2 in sg._gap_blocks(mids, 2)]
        k, d2 = blocks[-1]
        assert len(blocks) > 1 and k[-1] == n // 2
        assert np.all(np.isfinite(d2[-1, ii[hit]])) and np.all(np.isinf(d2[-1, jj[hit]]))
        cand_i, cand_j = sg._simple_candidates(curve)
        assert np.array_equal(np.sort(cand_i * n + cand_j), np.unique(cand_i * n + cand_j))
        assert not sg.validate_simple(curve)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(16, 96), winding=st.sampled_from([0, 1]),
           lon_amp=st.floats(0.0, 2.5), lat1=st.floats(0.0, 0.8), lat2=st.floats(0.0, 0.8),
           phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
           entries=st.sampled_from(BLOCK_ENTRIES))
    # a 2e-10-long segment and one about 1.98 away from it: the exact test
    # reports no crossing only if its on-arc tolerances scale with the arcs
    @example(n=26, winding=0, lon_amp=2.0, lat1=1e-9, lat2=0.0, phases=[0.0, 1.0, 0.0],
             entries=64)
    def test_matches_unfiltered_oracle_family(self, monkeypatch, n, winding, lon_amp,
                                              lat1, lat2, phases, entries):
        # winding 0: ovals when mode 1 dominates the latitude, figure-eights
        # when mode 2 does; winding 1: perturbed great circles, looped once
        # the longitude turns back (lon_amp > 1)
        assume(winding == 1 or lon_amp > 0.1)
        try:
            curve = sg.make_curve(wobbly_curve(n, winding, lon_amp, (lat1, lat2), phases))
        except DegenerateSegment:
            assume(False)
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", entries)
        assert sg.validate_simple(curve) == all_pairs_simple(curve)
        assert_candidates_match_row_blocks(curve)

    def test_perturbed_great_circle_with_sampling_oracle(self):
        c = generators.fourier_perturbed_curve((0, 0, 1), [2, 3], [0.07, 0.03], 128, seed=3)
        assert sg.validate_simple(c)
        # independent oracle: densely sample non-adjacent segments and check
        # the point clouds stay separated
        n = c.n
        p, q = c.points, np.roll(c.points, -1, axis=0)
        ts = np.linspace(0.0, 1.0, 5)
        cloud = np.stack([(1 - t) * p + t * q for t in ts], axis=1)  # (n, 5, 3)
        min_gap = np.inf
        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                gaps = np.linalg.norm(cloud[i][:, None, :] - cloud[j][None, :, :], axis=2)
                min_gap = min(min_gap, gaps.min())
        assert min_gap > 1e-3


class TestSweep:
    """_simple_candidates' sort and sweep against the all-pairs cut and the exact test."""

    @pytest.mark.parametrize("name", sorted(SWEEP_CURVES))
    def test_matches_all_pairs(self, block_entries, name):
        curve = SWEEP_CURVES[name]()
        assert_candidates_match_row_blocks(curve)
        assert sg.validate_simple(curve) == all_pairs_simple(curve)
        assert sg.validate_simple(curve) == row_blocks.validate_simple(curve)

    def test_stress_curves_are_what_they_say(self):
        assert np.ptp(SWEEP_CURVES["equator_128"]().points[:, 2]) == 0.0
        assert np.ptp(SWEEP_CURVES["meridian_129"]().points[:, 0]) == 0.0
        assert 0.9e-3 < SWEEP_CURVES["tiny_65"]().length < 1.1e-3
        narrow = SWEEP_CURVES["narrow_neck_512"]()
        assert sg.validate_simple(narrow) and sg._simple_candidates(narrow)[0].size
        for name in ("long_segment_256", "eight_long_segment_200"):
            ds = SWEEP_CURVES[name]().seg_lengths
            assert ds.max() > 20 * np.median(ds)
        assert not sg.validate_simple(SWEEP_CURVES["eight_long_segment_200"]())

    # the sweep's worst case: the window is as wide as the 1.26-rad segment's
    # chord and holds about 1.5e6 of the 2.1e6 pairs, so the smallest chunk
    # sizes of BLOCK_ENTRIES would take minutes here; they run on the
    # 256-vertex copy above
    @pytest.mark.parametrize("entries", [64, 500, 1 << 30])
    def test_long_segment_at_2048(self, monkeypatch, entries):
        curve = one_long_segment(2048)
        monkeypatch.setattr(sg, "_GAP_BLOCK_ENTRIES", entries)
        assert_candidates_match_row_blocks(curve)
        assert sg.validate_simple(curve) and row_blocks.validate_simple(curve)


class TestQuadrature:
    def test_total_space_curvature_parallel(self):
        # (1/sin t) * 2 pi sin t = 2 pi for every parallel, exactly after the
        # chord-to-arc correction
        for n in (64, 256):
            for theta in (np.pi / 3, np.pi / 2):
                c = sg.make_curve(parallel_points(theta, n))
                assert abs(sg.total_space_curvature(c) - 2 * np.pi) < 1e-9

    def test_lower_chord_bound(self):
        # d >= (2/K) sin(K ell / 2) - 10 (max ds)^2 wherever K ell/2 <= pi
        for curve in (sg.make_curve(parallel_points(np.pi / 3, 128)),
                      generators.fourier_perturbed_curve((0, 0, 1), [2, 3],
                                                         [0.15, 0.08], 128, seed=6)):
            f = sg.frame_field(curve)
            K = float(np.max(f.kappa_bar))
            eps = 10.0 * float(np.max(curve.seg_lengths)) ** 2
            s = curve.cum_lengths
            L = curve.length
            for i in range(curve.n):
                for j in range(i + 1, curve.n):
                    arc = s[j] - s[i]
                    ell = min(arc, L - arc)
                    if K * ell / 2 > np.pi:
                        continue
                    d = float(np.linalg.norm(curve.points[i] - curve.points[j]))
                    assert d >= (2.0 / K) * np.sin(K * ell / 2.0) - eps

    def test_curvature_sq_integral_parallel(self):
        # int kappa^2 ds = cot^2(t) * L
        c = sg.make_curve(parallel_points(np.pi / 3, 256))
        val = sg.curvature_sq_integral(c)
        expect = (1.0 / np.tan(np.pi / 3)) ** 2 * c.length
        assert abs(val - expect) / expect < 1e-6


def test_orthonormal_basis():
    for axis in ([0, 0, 1], [1, 1, 1], [0.3, -0.8, 0.1]):
        e1, e2, e3 = sg.orthonormal_basis(axis)
        gram = np.array([e1, e2, e3]) @ np.array([e1, e2, e3]).T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.dot(np.cross(e1, e2), e3) > 0.99
