"""Hyperbola-sampling starting-point selection."""

import math

import numpy as np
import pytest

import mmloc.harness
import mmloc.initializer
from mmloc import (
    DegenerateMeasurementError,
    InitConfig,
    NoiseModel,
    RangeDiffSet,
    RayMeasurementError,
    SensorArray,
    f_rdls,
    f_rdls_many,
    hyperbola_points,
    init_point,
    init_points,
    noisy_rangediffs,
    rangediffs_from_ranges,
    true_ranges,
)
from conftest import make_instance


def hexes(x):
    return [v.hex() for v in np.asarray(x, dtype=float).ravel().tolist()]


class TestHyperbolaPoints:
    def test_vertex_on_axis(self):
        # foci (+-5, 0), difference 6 -> transverse vertex at (3, 0)
        pts = hyperbola_points([-5.0, 0.0], [5.0, 0.0], 6.0, l=3,
                               coord_bound=50.0)
        np.testing.assert_allclose(pts[1], [3.0, 0.0], atol=1e-9)

    def test_points_satisfy_defining_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            yi = rng.uniform(-10, 10, 2)
            yj = rng.uniform(-10, 10, 2)
            foc = np.linalg.norm(yj - yi)
            if foc < 0.5:
                continue
            r = rng.uniform(0.0, 0.95) * foc
            pts = hyperbola_points(yi, yj, r, l=64, coord_bound=100.0)
            di = np.linalg.norm(pts - yi, axis=1)
            dj = np.linalg.norm(pts - yj, axis=1)
            np.testing.assert_allclose(di - dj, r, atol=1e-6)

    def test_zero_difference_gives_bisector(self):
        pts = hyperbola_points([-4.0, 0.0], [4.0, 0.0], 0.0, l=16,
                               coord_bound=20.0)
        np.testing.assert_allclose(pts[:, 0], 0.0, atol=1e-9)

    def test_points_respect_bound(self):
        # random foci, differences and tight boxes: every sample lies inside
        # the box, and both end samples touch it (the interval is maximal)
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 1000:
            yi = rng.uniform(-40.0, 40.0, 2)
            yj = rng.uniform(-40.0, 40.0, 2)
            foc = np.linalg.norm(yj - yi)
            r = rng.uniform(0.0, 0.999) * foc
            u = (yj - yi) / foc
            vertex = (yi + yj) / 2.0 + (r / 2.0) * u
            bound = np.max(np.abs(vertex)) * rng.uniform(1.001, 3.0)
            if bound == 0.0:
                continue
            pts = hyperbola_points(yi, yj, r, l=2048, coord_bound=bound)
            tol = 1e-9 * bound
            assert np.max(np.abs(pts)) <= bound + tol
            for end in (pts[0], pts[-1]):
                assert np.max(np.abs(end)) >= bound - tol
            checked += 1

    def test_first_exit_not_a_later_crossing(self):
        # the branch leaves the box, re-enters, and leaves again; the
        # sampled interval must stop at the first exit
        pts = hyperbola_points([15.0, -39.0], [8.0, -1.0], 21.0, l=128,
                               coord_bound=10.0)
        assert np.max(np.abs(pts)) <= 10.0 * (1.0 + 1e-9)

    def test_vertex_on_box_edge(self):
        # bisector through (5, 5) with the box edge at 5: the branch leaves
        # at once on one side and runs to the opposite corner on the other
        pts = hyperbola_points([0.0, 10.0], [10.0, 0.0], 0.0, l=5,
                               coord_bound=5.0)
        np.testing.assert_allclose(pts[0], [-5.0, -5.0], atol=1e-12)
        np.testing.assert_allclose(pts[-1], [5.0, 5.0], atol=1e-12)

    def test_ray_case_rejected(self):
        with pytest.raises(RayMeasurementError):
            hyperbola_points([0.0, 0.0], [10.0, 0.0], 10.0, l=8,
                             coord_bound=20.0)

    def test_infeasible_difference_rejected(self):
        with pytest.raises(DegenerateMeasurementError):
            hyperbola_points([0.0, 0.0], [10.0, 0.0], 11.0, l=8,
                             coord_bound=20.0)

    def test_bad_args(self):
        with pytest.raises(ValueError, match="l must be >= 2"):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], 1.0, l=1, coord_bound=10.0)
        for l in (2.5, 4.7, 8.0, True):
            with pytest.raises(ValueError, match="l must be an integer"):
                hyperbola_points([0.0, 0.0], [4.0, 0.0], 1.0, l=l, coord_bound=10.0)
        with pytest.raises(ValueError):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], 1.0, l=8, coord_bound=-1.0)
        with pytest.raises(ValueError):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], -0.5, l=8, coord_bound=10.0)

    def test_nan_difference_named(self):
        # NaN is not >= 0, and is named as such; inf is beyond any focal distance
        with pytest.raises(ValueError, match="r_ij must be >= 0"):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], math.nan, l=8, coord_bound=10.0)
        with pytest.raises(DegenerateMeasurementError):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], math.inf, l=8, coord_bound=10.0)

    def test_box_too_large_rejected(self):
        # an infinite or NaN box fails as InitConfig does; one too large for
        # float arithmetic (infinite exit angle) raises instead of NaN points
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="coord_bound must be finite and > 0"):
                hyperbola_points([0.0, 0.0], [4.0, 0.0], 1.0, l=8, coord_bound=bad)
        with pytest.raises(ValueError, match="coord_bound=1e\\+300 is too large"):
            hyperbola_points([0.0, 0.0], [4.0, 0.0], 1.0, l=8, coord_bound=1e300)


class TestInitPoint:
    def test_deterministic_given_seed(self):
        array, _, rd = make_instance(0, m=5, sigma2=0.5)
        x1 = init_point(array, rd, InitConfig(seed=4))
        x2 = init_point(array, rd, InitConfig(seed=4))
        np.testing.assert_array_equal(x1, x2)

    def test_lands_near_source_zero_noise(self):
        # the chosen hyperbola passes through the source, so the best
        # sample must score far better than a generic interior point
        for seed in range(5):
            array, source, rd = make_instance(seed, m=5)
            x0 = init_point(array, rd, InitConfig(seed=seed))
            assert f_rdls(x0, array, rd) < f_rdls(array.centroid(), array, rd)

    def test_respects_coord_bound(self):
        array, _, rd = make_instance(2, m=4, sigma2=1.0)
        x0 = init_point(array, rd, InitConfig(coord_bound=5.0, seed=0))
        assert np.max(np.abs(x0)) <= 5.0 + 1e-6

    def test_grid_fallback_for_3d(self):
        array, source, rd = make_instance(3, m=5, n=3)
        x0 = init_point(array, rd, InitConfig(grid_size=4096, seed=0))
        assert x0.shape == (3,)
        assert np.max(np.abs(x0)) <= 2.0 * np.max(np.abs(array.sensors)) + 1e-9

    def test_infeasible_pairs_fall_back_to_grid(self):
        # all differences above the sensor separations -> no usable hyperbola
        arr = np.array([[0.0, 0.0], [1.0, 0.0]])
        array = SensorArray(arr)
        rd = rangediffs_from_ranges(np.array([10.0, 1.0]))  # diff 9 > 1
        x0 = init_point(array, rd, InitConfig(grid_size=64, seed=0))
        assert x0.shape == (2,)

    def test_separation_rounding_edge_falls_back_to_grid(self):
        # a value equal to the sensor separation is a ray; the feasibility
        # filter (row-wise norm) can put the separation one bit above
        # hyperbola_points' focal distance (vector norm), and the start
        # must then come from the grid instead of an exception
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pair = rng.uniform(-50.0, 50.0, (2, 2))
            diff = pair[1] - pair[0]
            foc = float(np.linalg.norm(diff))
            sep = float(np.linalg.norm(diff[None, :], axis=1)[0])
            if sep > foc:
                break
        array = SensorArray(pair)
        for v in (foc, sep):
            rd = RangeDiffSet(np.array([1]), np.array([2]), np.array([v]), 2)
            x0 = init_point(array, rd, InitConfig(grid_size=16, seed=0))
            assert x0.shape == (2,) and np.all(np.isfinite(x0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InitConfig(grid_size=1)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="coord_bound must be finite and > 0"):
                InitConfig(coord_bound=bad)
        for bad, kind in ((True, "bool"), ("5", "str")):
            with pytest.raises(TypeError, match=f"coord_bound must be real number, not {kind}"):
                InitConfig(coord_bound=bad)

    # the hyperbola arc (n = 2) or the grid costs (n = 3) overflow; the error
    # comes without a RuntimeWarning first (pytest turns one into an error)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bound", [1e155, 1e300])
    def test_box_too_large_for_a_finite_cost(self, n, bound):
        array, _, rd = make_instance(1, m=5, n=n)
        with pytest.raises(ValueError, match="coord_bound=.* is too large"):
            init_point(array, rd, InitConfig(coord_bound=bound, seed=0))

    def test_grid_size_must_be_an_integer(self):
        for bad in (2.5, 128.0, True, "128"):
            with pytest.raises(ValueError, match="grid_size must be an integer"):
                InitConfig(grid_size=bad)
        cfg = InitConfig(grid_size=np.int32(16))
        assert cfg.grid_size == 16 and type(cfg.grid_size) is int

    def test_beats_random_start_on_average(self):
        # the sampled start should usually score below a random unit-box start
        wins = 0
        for seed in range(20):
            array, _, rd = make_instance(seed, m=5, sigma2=0.5)
            x0 = init_point(array, rd, InitConfig(seed=seed))
            xr = np.random.default_rng(seed).uniform(0.0, 1.0, 2)
            if f_rdls(x0, array, rd) <= f_rdls(xr, array, rd):
                wins += 1
        assert wins >= 15


class TestInitPoints:
    """init_points row b is init_point on rds[b] with seeds[b], bit for bit."""

    # init_point before the batched start, float hex: (instance seed, m, n,
    # sigma2, InitConfig fields) -> start
    PINS = [
        (0, 3, 2, 0.5, {}, ["-0x1.09f305e8ca4a3p+3", "-0x1.671a97b2c6cf8p+3"]),
        (1, 5, 2, 0.5, {}, ["0x1.4c85b3ea17074p+3", "-0x1.7d8e2f6f2baf2p+2"]),
        (2, 9, 2, 2.0, {}, ["0x1.bfb34fd0547cbp+2", "0x1.3f63a5cf1f713p+4"]),
        (3, 5, 2, 0.0, {"coord_bound": 5.0}, ["-0x1.4000000000000p+2", "0x1.4000000000000p+2"]),
        (4, 6, 3, 0.5, {}, ["0x0.0p+0", "0x1.35ec25c8058eap+3", "-0x1.35ec25c8058ebp+3"]),
        (5, 4, 2, 50.0, {"grid_size": 16}, ["0x1.5b85a6b26d5dap+0", "0x1.798d014723e65p+2"]),
    ]

    @staticmethod
    def batch(rng, array, source, trials, noise_std, shuffle=False):
        """Noisy range-difference sets for one array; with shuffle each set
        stores its pairs in a random order."""
        rds = []
        for _ in range(trials):
            rd = rangediffs_from_ranges(true_ranges(source, array)
                                        + noise_std * rng.standard_normal(array.m))
            if shuffle:
                k = rng.permutation(rd.n_pairs)
                rd = RangeDiffSet(rd.i[k], rd.j[k], rd.values[k], rd.m)
            rds.append(rd)
        return rds

    @staticmethod
    def assert_rows(array, rds, seeds, **kw):
        got = init_points(array, rds, seeds, InitConfig(**kw))
        assert got.shape == (len(rds), array.n)
        for rd, seed, row in zip(rds, seeds, got):
            assert hexes(row) == hexes(init_point(array, rd, InitConfig(seed=seed, **kw)))
        return got

    def test_pinned_starts(self):
        for seed, m, n, sigma2, kw, want in self.PINS:
            array, _, rd = make_instance(seed, m=m, n=n, sigma2=sigma2)
            assert hexes(init_point(array, rd, InitConfig(seed=seed, **kw))) == want
            assert hexes(init_points(array, [rd], [seed], InitConfig(**kw))) == want

    @pytest.mark.parametrize("shuffle", [False, True], ids=["stored", "shuffled"])
    def test_rows_match_init_point(self, shuffle):
        # m = 3..9, low to high noise (infeasible pairs and grid fallbacks),
        # seeds shared by several rows as in a sweep, and some tight boxes
        rng = np.random.default_rng(11 + shuffle)
        for m in range(3, 10):
            array = SensorArray(rng.uniform(-50.0, 50.0, (m, 2)))
            source = rng.uniform(-20.0, 20.0, 2)
            rds = []
            for noise_std in (0.0, 0.3, 3.0, 30.0):
                rds += self.batch(rng, array, source, 6, noise_std, shuffle)
            seeds = [int(rng.integers(2 ** 63)) for _ in range(6)] * 4
            self.assert_rows(array, rds, seeds)
            self.assert_rows(array, rds, seeds, coord_bound=float(rng.uniform(2.0, 30.0)),
                             grid_size=int(rng.integers(2, 200)))

    def test_fallback_rows(self, monkeypatch):
        # no feasible pair, a vertex outside a tight box and a value one bit
        # above the vector-norm focal distance each take the grid, among rows
        # that do not
        calls = []
        fallback = mmloc.initializer._grid_fallback
        monkeypatch.setattr(mmloc.initializer, "_grid_fallback",
                            lambda *a: calls.append(1) or fallback(*a))
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pair = rng.uniform(-50.0, 50.0, (2, 2))
            diff = pair[1] - pair[0]
            foc = float(np.linalg.norm(diff))
            if float(np.linalg.norm(diff[None, :], axis=1)[0]) > foc:
                break
        array = SensorArray(pair)
        rds = [RangeDiffSet(np.array([1]), np.array([2]), np.array([v]), 2)
               for v in (foc, 0.5 * foc, 2.0 * foc, 0.25 * foc)]
        self.assert_rows(array, rds, [0, 1, 2, 3], grid_size=16)
        assert len(calls) == 2 * 2  # the rounding edge and the infeasible pair, twice
        calls.clear()
        array, _, rd = make_instance(2, m=4, sigma2=1.0)
        self.assert_rows(array, [rd, rd], [0, 1], coord_bound=0.05)
        assert len(calls) == 2 * 2

    def test_three_dimensional_batch(self, monkeypatch):
        calls = []
        fallback = mmloc.initializer._grid_fallback
        monkeypatch.setattr(mmloc.initializer, "_grid_fallback",
                            lambda *a: calls.append(1) or fallback(*a))
        rng = np.random.default_rng(3)
        array = SensorArray(rng.uniform(-20.0, 20.0, (6, 3)))
        rds = self.batch(rng, array, rng.uniform(-5.0, 5.0, 3), 5, 0.5)
        self.assert_rows(array, rds, list(range(5)), grid_size=64)
        assert len(calls) == 2 * 5

    def test_batch_larger_than_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(8)
        array = SensorArray(rng.uniform(-50.0, 50.0, (5, 2)))
        rds = self.batch(rng, array, rng.uniform(-10.0, 10.0, 2), 40, 1.0)
        seeds = list(range(40))
        whole = init_points(array, rds, seeds)
        # 128 samples x 10 pairs per row: 3 rows per chunk
        monkeypatch.setattr(mmloc.initializer, "_CHUNK_FLOATS", 3 * 128 * 10)
        sizes = []
        samples = mmloc.initializer._arc_samples
        monkeypatch.setattr(mmloc.initializer, "_arc_samples",
                            lambda arcs, *a: sizes.append(len(arcs)) or samples(arcs, *a))
        assert hexes(init_points(array, rds, seeds)) == hexes(whole)
        assert sizes == [3] * 13 + [1]  # every row samples a hyperbola
        self.assert_rows(array, rds, seeds)

    @pytest.mark.parametrize("n", [2, 3])
    def test_box_too_large_for_a_finite_cost(self, n):
        array, _, rd = make_instance(1, m=5, n=n)
        for bound in (1e155, 1e300):
            with pytest.raises(ValueError, match="coord_bound=.* is too large"):
                init_points(array, [rd, rd], [0, 1], InitConfig(coord_bound=bound))

    def test_one_seed_per_set(self):
        array, _, rd = make_instance(0, m=4)
        with pytest.raises(ValueError, match="2 measurement sets for 1 seeds"):
            init_points(array, [rd, rd], [0])
        assert init_points(array, [], []).shape == (0, 2)


def reference_exit_angle(center, along, across, bound):
    """The exit angle written per coordinate, edge and root on Python floats."""
    z_exit = math.inf
    for c, A, S in zip(center, along, across):
        lead, const = A + S, A - S
        for edge in (bound, -bound):
            h = c - edge
            disc = h * h - lead * const
            if disc < 0.0:
                continue
            q = -(h + math.copysign(math.sqrt(disc), h))
            roots = (q / lead if lead != 0.0 else math.inf,
                     const / q if q != 0.0 else math.inf)
            for z in roots:
                if 1.0 <= z < z_exit and (lead * z * z > const) == (edge > 0.0):
                    z_exit = z
    return math.log(z_exit)


def reference_arc(yi, yj, foc, r, bound):
    """One branch's (center, u, a, b, t_lo, t_hi) on Python floats, or None
    where it has no arc in the box (a ray, r above foc, the vertex outside)."""
    if r >= foc:
        return None
    a, c = r / 2.0, foc / 2.0
    b = math.sqrt(c * c - a * a)
    center = [(yi[0] + yj[0]) / 2.0, (yi[1] + yj[1]) / 2.0]
    u = [(yj[0] - yi[0]) / foc, (yj[1] - yi[1]) / foc]
    along, across = [a * u[0], a * u[1]], [b * -u[1], b * u[0]]
    if max(abs(center[0] + along[0]), abs(center[1] + along[1])) > bound:
        return None
    return [*center, *u, a, b, reference_exit_angle(center, along, [-v for v in across], bound),
            reference_exit_angle(center, along, across, bound)]


def reference_start(coords, rd, seed, l, bound):
    """One row's start the scalar way: the filter on row-wise norms, one
    seeded pick, the arc on Python floats (focal distance as a vector norm),
    its samples and their f_rdls, else the grid."""
    sep = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2).tolist()
    il, jl, vl = rd.i.tolist(), rd.j.tolist(), rd.values.tolist()
    feasible = [k for k, v in enumerate(vl) if v < sep[il[k] - 1][jl[k] - 1]]
    if coords.shape[1] == 2 and feasible:
        k = feasible[int(np.random.default_rng(seed).integers(len(feasible)))]
        yi, yj = coords[il[k] - 1], coords[jl[k] - 1]
        arc = reference_arc(yi.tolist(), yj.tolist(), float(np.linalg.norm(yj - yi)), vl[k], bound)
        if arc is not None:
            pts = mmloc.initializer._arc_samples(np.array([arc]), l, bound)[0]
            vals = f_rdls_many(pts, coords, rd)
            best = int(np.argmin(vals))
            if not math.isfinite(vals[best]):
                raise ValueError(f"coord_bound={bound!r} is too large")
            return pts[best]
    return mmloc.initializer._grid_fallback(coords, rd, l, bound)


class TestArcPass:
    """The array pass over rows keeps the scalar arc and start bit for bit."""

    def test_arcs_match_scalar_formulas(self):
        # random foci and differences, rays, differences above the focal
        # distance, tight boxes that exclude the vertex, and boxes too large
        # for float arithmetic (infinite angles)
        rng = np.random.default_rng(31)
        for bound in (10.0, 30.0, 1e155, 1e300):
            yi, yj = rng.uniform(-20.0, 20.0, (2, 400, 2))
            foc = np.array([float(np.linalg.norm(b - a)) for a, b in zip(yi, yj)])
            r = foc * rng.uniform(0.0, 1.0, 400)
            r[::7] = foc[::7]
            r[1::7] = 1.01 * foc[1::7]
            r[2::7] = 0.0
            arcs, kept = mmloc.initializer._arcs(yi, yj, foc, r, bound)
            want = [reference_arc(a.tolist(), b.tolist(), f, v, bound)
                    for a, b, f, v in zip(yi, yj, foc.tolist(), r.tolist())]
            assert kept.tolist() == [k for k, w in enumerate(want) if w is not None]
            assert 0 < len(kept) < 400
            assert hexes(arcs) == hexes([w for w in want if w is not None])

    @staticmethod
    def assert_reference_rows(array, rds, seeds, **kw):
        cfg = InitConfig(**kw)
        coords = array.sensors
        bound = cfg.coord_bound or 2.0 * float(np.max(np.abs(coords)))
        try:
            got = init_points(array, rds, seeds, cfg)
        except ValueError as exc:
            assert "is too large" in str(exc)
            with pytest.raises(ValueError, match="is too large"):
                for rd, seed in zip(rds, seeds):
                    reference_start(coords, rd, seed, cfg.grid_size, bound)
            return
        for rd, seed, row in zip(rds, seeds, got):
            assert hexes(row) == hexes(reference_start(coords, rd, seed, cfg.grid_size, bound))

    @pytest.mark.parametrize("criterion", [7, 9])
    def test_rows_match_scalar_reference_on_criterion_configs(self, criterion):
        # the criterion-7 array (random m = 5, its source drawn from seed 2026)
        # and the criterion-9 linear array, 20 trials at -10, -5 and 0 dB
        if criterion == 7:
            spec = {"sensors": {"kind": "random", "m": 5, "lo": -50.0, "hi": 50.0},
                    "source": {"uniform": [-10.0, 10.0]}, "noise": {"f0": 1000.0, "c": 340.0}}
            seed = 2026
        else:
            spec = {"sensors": {"kind": "linear"}, "source": [-5.0, 5.0],
                    "noise": {"f0": 1000.0, "c": 340.0}}
            seed = 909
        scen_ss = np.random.SeedSequence(seed).spawn(3)[0]
        array, source, noise = mmloc.harness._resolve_scenario(spec,
                                                               np.random.default_rng(scen_ss))
        rng = np.random.default_rng(seed)
        rds, seeds = [], []
        for snr in (-10.0, -5.0, 0.0):
            noisy = NoiseModel(sigma2=10.0 ** (-snr / 10.0), f0=noise.f0, c=noise.c)
            for trial in range(20):
                rds.append(noisy_rangediffs(source, array, noisy, seed=rng.integers(2 ** 32)))
                seeds.append(trial)
        TestInitPoints.assert_rows(array, rds, seeds)
        self.assert_reference_rows(array, rds, seeds)

    def test_rows_match_scalar_reference_on_random_arrays(self, monkeypatch):
        # grid-fallback rows (no feasible pair, a ray, a vertex outside the
        # box) among arc rows, on random and linear arrays
        calls = []
        fallback = mmloc.initializer._grid_fallback
        monkeypatch.setattr(mmloc.initializer, "_grid_fallback",
                            lambda *a: calls.append(1) or fallback(*a))
        rng = np.random.default_rng(32)
        for m in range(2, 10):
            for coords in (rng.uniform(-50.0, 50.0, (m, 2)),
                           np.column_stack([np.full(m, 5.0), 10.0 * np.arange(m)])):
                array = SensorArray(coords)
                source = rng.uniform(-30.0, 30.0, 2)
                rds = TestInitPoints.batch(rng, array, source, 4, 0.0)
                for noise_std in (0.3, 3.0, 30.0):
                    rds += TestInitPoints.batch(rng, array, source, 4, noise_std, shuffle=True)
                if m == 2:
                    foc = float(np.linalg.norm(coords[1] - coords[0]))
                    rds += [RangeDiffSet([1], [2], [foc], 2), RangeDiffSet([2], [1], [foc], 2)]
                # four seeds, each shared by several rows as in a sweep
                seeds = ([int(rng.integers(2 ** 63)) for _ in range(4)] * len(rds))[:len(rds)]
                self.assert_reference_rows(array, rds, seeds)
                self.assert_reference_rows(array, rds, seeds,
                                           coord_bound=float(rng.uniform(1.0, 20.0)),
                                           grid_size=int(rng.integers(2, 200)))
                self.assert_reference_rows(array, rds, seeds, coord_bound=0.05, grid_size=16)
        assert len(calls) > 100

    @pytest.mark.parametrize("bound", [1e155, 1e300])
    def test_box_too_large_raises_like_the_scalar_rows(self, bound):
        array, _, rd = make_instance(1, m=5)
        self.assert_reference_rows(array, [rd, rd], [0, 1], coord_bound=bound)
