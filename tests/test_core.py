import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modecover import (
    AnalyticDensity,
    ConfigurationError,
    ContractViolation,
    DiscreteDistribution,
    GridSpec,
    double_weights,
    group_points,
    init_weights_empirical,
    init_weights_exact,
    load_points_csv,
    normalize,
    save_points_csv,
    uniform_on,
)
from modecover import core
from modecover.core import log2_weight_sum, relative_weights, row_groups, row_lookup, sqdist
from modecover.discriminator import exact_discriminator
from modecover.divergences import tv_discrete
from modecover.generators import AdversarialCoverageGenerator

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normalize_on(points, log2_weights):
    """The round distribution of `log2_weights` over the multiset `points`."""
    return normalize(*group_points(points), log2_weights)


class TestDiscreteDistribution:
    def test_valid_construction(self):
        d = DiscreteDistribution([[0.0], [1.0]], [0.25, 0.75])
        assert d.size == 2 and d.dim == 1

    def test_rejects_bad_mass_sum(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([[0.0], [1.0]], [0.25, 0.70])

    def test_rejects_negative_mass(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([[0.0], [1.0]], [-0.25, 1.25])

    def test_rejects_duplicate_support(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([[0.0], [0.0]], [0.5, 0.5])

    @pytest.mark.parametrize(
        "bad", [[-0.25, 1.25], [np.nan, 1.0], [0.5, 0.25, 0.25], [0.5, 0.25]]
    )
    def test_with_mass_rejects_as_constructor(self, bad):
        base = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(ConfigurationError) as built:
            DiscreteDistribution(base.support, bad)
        with pytest.raises(ConfigurationError) as swapped:
            base.with_mass(bad)
        assert str(swapped.value) == str(built.value)

    def test_with_mass_shares_support_without_regrouping(self, monkeypatch):
        base = DiscreteDistribution([[0.0], [1.0], [2.0]], np.full(3, 1 / 3))
        monkeypatch.setattr(core, "row_groups", None)
        swapped = base.with_mass([0.25, 0.5, 0.25])
        assert swapped.support is base.support
        assert swapped.mass.tolist() == [0.25, 0.5, 0.25]

    def test_uniform_on_aggregates_multiset(self):
        d = uniform_on([[0.0]] * 5 + [[1.0]] * 2)
        assert d.size == 2
        assert d.mass[0] == pytest.approx(5 / 7, abs=0)
        assert d.mass[1] == pytest.approx(2 / 7, abs=0)

    def test_sampling_deterministic(self):
        d = DiscreteDistribution([[0.0], [1.0]], [0.3, 0.7])
        a = d.sample(100, seed=3)
        b = d.sample(100, seed=3)
        assert np.array_equal(a, b)


class TestWeightInit:
    def test_empirical_seven_points(self):
        lw = init_weights_empirical(np.zeros((7, 1)) + np.arange(7)[:, None])
        assert np.all(np.exp2(lw) == 1 / 7)
        assert log2_weight_sum(lw) == 0.0

    def test_empirical_single_point(self):
        lw = init_weights_empirical([[3.0]])
        assert np.exp2(lw[0]) == 1.0
        assert log2_weight_sum(lw) == 0.0

    def test_empirical_four_points_log_weights(self):
        lw = init_weights_empirical(np.arange(4.0)[:, None])
        assert np.all(lw == -2.0)

    def test_empirical_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            init_weights_empirical(np.empty((0, 1)))

    def test_exact_two_point(self):
        target = DiscreteDistribution([[0.0], [1.0]], [5 / 7, 2 / 7])
        w = np.exp2(init_weights_exact(target))
        assert w[0] == pytest.approx(5 / 7, rel=1e-15)
        assert w[1] == pytest.approx(2 / 7, rel=1e-15)
        # the loop starts W at exactly 1; these weights total 1 within MASS_TOL
        assert log2_weight_sum(np.log2(w)) == pytest.approx(0.0, abs=core.MASS_TOL)

    def test_exact_uniform_ten(self):
        target = uniform_on(np.arange(10.0)[:, None])
        lw = init_weights_exact(target)
        assert np.allclose(np.exp2(lw), 0.1, rtol=1e-15)

    def test_exact_point_mass(self):
        target = DiscreteDistribution([[0.0]], [1.0])
        lw = init_weights_exact(target)
        assert np.exp2(lw[0]) == 1.0

    def test_exact_rejects_zero_mass(self):
        target = DiscreteDistribution([[0.0], [1.0]], [1.0, 0.0])
        with pytest.raises(ConfigurationError):
            init_weights_exact(target)


class TestNormalizeAndDouble:
    def test_worked_two_point_round(self):
        # five samples at one point, two at another; double the two
        points = [[0.0]] * 5 + [[1.0]] * 2
        lw = init_weights_empirical(points)
        flags = np.array([False] * 5 + [True] * 2)
        p2 = normalize_on(points, double_weights(lw, flags))
        assert p2.mass[0] == 5 / 9
        assert p2.mass[1] == 4 / 9

    def test_normalize_uniform(self):
        points = np.arange(6.0)[:, None]
        p = normalize_on(points, init_weights_empirical(points))
        assert np.allclose(p.mass, 1 / 6, rtol=1e-15)

    def test_normalize_hand_example(self):
        # raw weights 1, 2, 1 -> masses 0.25, 0.5, 0.25
        points = np.arange(3.0)[:, None]
        lw = double_weights(init_weights_empirical(points), [False, True, False])
        p = normalize_on(points, lw)
        assert np.allclose(p.mass, [0.25, 0.5, 0.25], atol=0)

    def test_double_no_flags_identity(self):
        lw = init_weights_empirical(np.arange(5.0)[:, None])
        lw2 = double_weights(lw, np.zeros(5, dtype=bool))
        assert np.array_equal(lw2, lw)
        assert log2_weight_sum(lw2) == pytest.approx(log2_weight_sum(lw), abs=1e-12)

    def test_double_all_flags_cancels_in_normalize(self):
        points = np.arange(5.0)[:, None]
        lw = init_weights_empirical(points)
        lw2 = double_weights(lw, np.ones(5, dtype=bool))
        assert np.allclose(normalize_on(points, lw2).mass, normalize_on(points, lw).mass, atol=0)
        assert log2_weight_sum(lw2) == pytest.approx(1.0, abs=1e-12)

    def test_double_flag_length_mismatch(self):
        lw = init_weights_empirical(np.arange(5.0)[:, None])
        with pytest.raises(ContractViolation):
            double_weights(lw, [True, False])

    def test_normalize_weight_shape_mismatch(self):
        points = np.arange(5.0)[:, None]
        for lw in (np.zeros(4), np.zeros(6), np.zeros((5, 1)), 0.0):
            with pytest.raises(ContractViolation):
                normalize_on(points, lw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_normalize_rejects_non_finite_weight(self, bad):
        points = np.arange(5.0)[:, None]
        lw = init_weights_empirical(points)
        lw[2] = bad
        with pytest.raises(ConfigurationError):
            normalize_on(points, lw)

    def test_total_tracks_doubled_mass(self):
        # W_{t+1} = W_t * (1 + doubled round mass), exactly in the log domain
        rng = np.random.default_rng(0)
        lw = init_weights_empirical(rng.normal(size=(40, 2)))
        for t in range(12):
            rel = relative_weights(lw)
            flags = rng.random(40) < 0.3
            expected = log2_weight_sum(lw) + math.log2(1.0 + rel[flags].sum())
            lw = double_weights(lw, flags)
            assert log2_weight_sum(lw) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=25)
    )
    def test_mass_sums_to_one_after_many_doublings(self, dbl_counts):
        # up to 200 doublings per point must not break normalization
        n = len(dbl_counts)
        points = np.arange(float(n))[:, None]
        lw = init_weights_empirical(points) + np.asarray(dbl_counts, dtype=float)
        assert normalize_on(points, lw).mass.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=2, max_size=12),
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=12,
        ),
    )
    def test_double_equals_linear_reweight(self, flags, raw):
        # log-domain doubling matches multiplying raw weights by two
        n = min(len(flags), len(raw))
        flags, raw = np.asarray(flags[:n]), np.asarray(raw[:n])
        points = np.arange(float(n))[:, None]
        doubled = normalize_on(points, double_weights(np.log2(raw), flags)).mass
        linear = raw * np.where(flags, 2.0, 1.0)
        expected = linear / linear.sum()
        assert np.allclose(doubled, expected, rtol=1e-12)


class TestAnalyticDensity:
    def test_standard_normal_at_zero(self):
        d = AnalyticDensity([1.0], [[0.0]], [[1.0]])
        assert d.pdf([0.0]) == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    def test_three_mode_target_at_zero(self):
        from modecover import make_three_gauss_target

        p = make_three_gauss_target()
        phi10 = INV_SQRT_2PI * math.exp(-50.0)
        expected = 0.9 * INV_SQRT_2PI + 2 * 0.05 * phi10
        assert p.pdf([0.0]) == pytest.approx(expected, rel=1e-12)
        assert p.pdf([0.0]) == pytest.approx(0.359, abs=5e-4)

    def test_coincident_means_any_weights(self):
        d = AnalyticDensity([0.2, 0.5, 0.3], [[2.0]] * 3, [[1.0]] * 3)
        assert d.pdf([2.0]) == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    def test_pdf_symmetry(self):
        from modecover import make_three_gauss_target

        p = make_three_gauss_target()
        xs = np.linspace(0.0, 15.0, 101)
        assert np.allclose(
            p.pdf(xs[:, None]), p.pdf(-xs[:, None]), rtol=0, atol=1e-12
        )

    def test_sampling_moments(self):
        d = AnalyticDensity([1.0], [[0.0]], [[1.0]])
        xs = d.sample(100000, seed=9)
        assert abs(xs.mean()) < 0.02  # 5 sigma of the CLT bound

    def test_box_probability_matches_quadrature(self):
        d = AnalyticDensity([0.6, 0.4], [[0.0, 1.0], [2.0, -1.0]], [[1.0, 2.0], [0.5, 1.0]])
        exact = d.box_probability([-1.0, -2.0], [2.0, 2.0])
        xs = np.linspace(-1.0, 2.0, 401)
        ys = np.linspace(-2.0, 2.0, 401)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        approx = np.trapezoid(
            np.trapezoid(d.pdf(grid).reshape(401, 401), ys, axis=1), xs
        )
        assert exact == pytest.approx(float(approx), abs=1e-5)

    def test_log_components_match_pdf(self):
        d = AnalyticDensity(
            [0.5, 0.3, 0.2], [[0.0, 1.0], [3.0, -1.0], [-2.0, 0.5]],
            [[1.0, 2.0], [0.5, 0.25], [0.04, 0.09]],
        )
        x = np.concatenate(
            [np.random.default_rng(3).normal(0.0, 3.0, (400, 2)), [[60.0, -60.0], [0.0, 90.0]]]
        )
        log_pdf = core.log_sum_exp(d.log_components(x))
        assert d.log_components(x).shape == (len(x), 3)
        pdf = d.pdf(x)
        live = pdf > 1e-300
        assert live.sum() >= 380 and not live.all()
        np.testing.assert_allclose(log_pdf[live], np.log(pdf[live]), rtol=0, atol=1e-12)
        assert np.all(np.isfinite(log_pdf)) and np.all(log_pdf[~live] < math.log(1e-300))

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            AnalyticDensity([0.7, 0.7], [[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(ConfigurationError):
            AnalyticDensity([1.0], [[0.0]], [[0.0]])


class TestSqdist:
    @staticmethod
    def terms(x, y, scale=None):
        diff2 = (x[:, None, :] - y[None, :, :]) ** 2
        return diff2 if scale is None else diff2 / scale

    @classmethod
    def broadcast(cls, x, y, scale=None):
        return cls.terms(x, y, scale).sum(axis=2)

    @classmethod
    def column_sum(cls, x, y, scale=None):
        # the d column terms added left to right
        terms = cls.terms(x, y, scale)
        total = terms[:, :, 0].copy()
        for j in range(1, terms.shape[2]):
            total += terms[:, :, j]
        return total

    @pytest.mark.parametrize("m", [0, 5, 7, 25])  # blocks of 7 rows: 25 = 3*7 + 4
    # numpy's own sum goes left to right up to d = 7 and pairwise from d = 8
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9])
    def test_bit_identical_to_broadcast(self, monkeypatch, m, d):
        rng = np.random.default_rng(m * 10 + d)
        x = rng.standard_normal((m, d)) * 3.0
        y = rng.standard_normal((4, d))
        monkeypatch.setattr(core, "_BLOCK_BYTES", 7 * 8 * y.size + 5)
        for scale in (None, rng.uniform(0.1, 2.0, size=(4, d)), 0.3):
            got = sqdist(x, y, scale)
            assert got.shape == (m, 4)
            assert np.array_equal(got, self.column_sum(x, y, scale))
            if d < 8:
                assert np.array_equal(got, self.broadcast(x, y, scale))

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(0, 40),
        k=st.integers(1, 12),
        d=st.integers(1, 9),
        scaled=st.booleans(),
        block_rows=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_out_bit_identical_to_broadcast(self, m, k, d, scaled, block_rows, seed):
        # a C-ordered out, and the transpose of a C-ordered (k, m) buffer as
        # the GMM E-step passes it, across row blocks of `block_rows`
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, d)) * 3.0
        y = rng.standard_normal((k, d))
        scale = rng.uniform(0.1, 2.0, size=(k, d)) if scaled else None
        want = self.column_sum(x, y, scale)
        if d < 8:
            assert np.array_equal(want.view(np.int64), self.broadcast(x, y, scale).view(np.int64))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_BLOCK_BYTES", block_rows * 8 * y.size)
            for out in (np.empty((m, k)), np.empty((k, m)).T):
                got = sqdist(x, y, scale, out=out)
                assert got is out
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_memory_near_output_size(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200_000, 2))
        y = rng.standard_normal((64, 2))
        tracemalloc.start()
        try:
            out = sqdist(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full_tensor = x.shape[0] * y.shape[0] * x.shape[1] * 8
        # the output plus one block of differences
        assert peak < out.nbytes + core._BLOCK_BYTES + 2**20
        assert peak < full_tensor

    def test_peak_memory_at_nine_dimensions(self):
        # the (rows, k) scratch only: no (rows, k, d) block, whose budget
        # alone is _BLOCK_BYTES
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4096, 9))
        y = rng.standard_normal((64, 9))
        tracemalloc.start()
        try:
            out = sqdist(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < core._BLOCK_BYTES // 2


EXP_ARGS = st.one_of(
    st.floats(min_value=-800.0, max_value=-700.0),  # underflow and subnormal band
    st.sampled_from([-750.0, 0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestExpInplace:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(EXP_ARGS, min_size=1, max_size=64))
    @example([-750.0, np.nextafter(-750.0, 0.0), np.nextafter(-750.0, -np.inf), -745.13, -745.14])
    @example([np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-320, 709.78, 709.79])
    def test_bit_identical_to_exp_in_place(self, values):
        a = np.array(values, dtype=float)
        with np.errstate(over="ignore"):
            want = np.exp(a)
            got = core.exp_inplace(a)
        assert got is a
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRowLookup:
    SUPPORT = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [-0.0, 5.0], [2.0, 3.0]])
    QUERIES = np.array([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0], [0.0, 5.0], [9.0, 9.0]])

    def test_first_equal_row_or_minus_one(self):
        scan = [
            next((i for i, s in enumerate(self.SUPPORT) if np.all(s == q)), -1)
            for q in self.QUERIES
        ]
        assert scan == [0, 1, 0, 3, -1]
        assert row_lookup(self.SUPPORT, self.QUERIES).tolist() == scan

    def test_callers_keep_their_miss_behaviour(self):
        disc = exact_discriminator(np.arange(5.0), np.ones(5), self.SUPPORT)
        assert disc.predict(self.QUERIES[:4]).tolist() == [1e-6, 0.5, 1e-6, 0.75]
        with pytest.raises(ContractViolation):
            disc.predict(self.QUERIES)
        support = np.array([[0.0, 1.0], [-0.0, 5.0], [2.0, 3.0]])
        gen = AdversarialCoverageGenerator(gamma=0.0, victim=[0]).fit(
            DiscreteDistribution(support, [0.5, 0.25, 0.25])
        )
        assert gen.pdf(self.QUERIES).tolist() == [0.5, 0.25, 0.5, 0.25, 0.0]


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def multisets(draw):
    """(n, d) rows, d = 1..3, drawn with replacement from a few distinct rows,
    so duplicates (and rows differing only in the sign of a zero) recur."""
    d = draw(st.integers(min_value=1, max_value=3))
    rows = st.lists(VALUES, min_size=d, max_size=d)
    base = draw(st.lists(rows, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=20))
    return np.array([base[i] for i in picks], dtype=float).reshape(-1, d)


def unique_rows(points):
    """Reference grouping: np.unique over rows."""
    _, first, inverse = np.unique(points, axis=0, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def unique_aggregate(points, values):
    first, inverse = unique_rows(points)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    sums = np.zeros(len(order))
    np.add.at(sums, rank[inverse], values)
    return points[np.sort(first)], sums


def same_bits(a, b):
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


def masses():
    """Probability vectors of 1 to 12 entries, each 0 or 2^e with e in
    [-60, 0] before normalizing, at least one of them positive."""
    entry = st.one_of(st.just(0.0), st.floats(-60.0, 0.0).map(np.exp2))
    return st.lists(entry, min_size=1, max_size=12).filter(any).map(
        lambda w: np.array(w) / np.sum(w)
    )


# A seed whose first key u is at least 1/2, so that 1 - u and u + (1 - u) = 1
# are exact. With masses (u, 1 - u) the key equals the first cdf entry: the
# right-side search draws index 1, a left-side one index 0.
_SEED = next(s for s in range(100) if np.random.default_rng(s).random() >= 0.5)
_KEY = np.random.default_rng(_SEED).random()
_KEY_ON_CDF = (np.array([_KEY, 1.0 - _KEY]), 1, _SEED)
# masses summing to 1 - 5e-10: the first cdf entry lies just below the key,
# and normalized by the cdf's last entry just above it
_LOW = _KEY * (1.0 - 2.5e-10)
_UNNORMALIZED_CDF = (np.array([_LOW, 1.0 - 5e-10 - _LOW]), 1, _SEED)


class TestSample:
    """`sample` draws what ``rng.choice(size, count, p=mass)`` draws."""

    @settings(max_examples=300, deadline=None)
    @given(masses(), st.integers(0, 500), st.integers(0, 2**32 - 1))
    @example(np.array([0.0, 0.25, 0.75]), 300, 1)
    @example(np.array([0.5, 0.5, 0.0]), 300, 2)
    @example(np.array([0.0, 1.0, 0.0]), 50, 3)
    @example(np.array([1.0]), 7, 4)
    @example(np.array([2.0**-60, 1.0]), 500, 5)
    @example(*_KEY_ON_CDF)
    @example(*_UNNORMALIZED_CDF)
    def test_bit_identical_to_rng_choice(self, mass, count, seed):
        support = np.arange(len(mass), dtype=float)[:, None]
        got = DiscreteDistribution(support, mass).sample(count, seed)
        want = support[np.random.default_rng(seed).choice(len(mass), count, p=mass)]
        assert same_bits(got, want)

    def test_negative_count_raises(self):
        with pytest.raises(ContractViolation, match="count must be >= 0"):
            DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5]).sample(-1, 0)


class TestRowGroups:
    @settings(max_examples=200, deadline=None)
    @given(multisets())
    @example(np.array([[-0.0, 2.0]]))
    @example(np.array([[0.0], [-0.0], [0.0], [-1.0]]))
    def test_matches_np_unique(self, pts):
        first, inverse = row_groups(pts)
        ref_first, ref_inverse = unique_rows(pts)
        assert np.array_equal(first, ref_first)
        assert np.array_equal(inverse, ref_inverse)

    @settings(max_examples=100, deadline=None)
    @given(multisets(), multisets(), st.integers(0, 2**32 - 1))
    def test_aggregates_bit_identical_to_unique_add_at(self, pts, other, seed):
        support, counts = unique_aggregate(pts, np.ones(len(pts)))
        uniform = uniform_on(pts)
        assert same_bits(uniform.support, support)
        assert same_bits(uniform.mass, counts / len(pts))

        lw = np.random.default_rng(seed).uniform(-30.0, 30.0, len(pts))
        u = np.exp2(lw - lw.max())
        support, mass = unique_aggregate(pts, u / u.sum())
        dist = normalize_on(pts, lw)
        assert same_bits(dist.support, support)
        assert same_bits(dist.mass, mass)

        if other.shape[1] != pts.shape[1]:
            other = np.resize(other, (len(other), pts.shape[1]))
        q = uniform_on(other)
        if np.array_equal(uniform.support, q.support):
            return  # equal supports take tv_discrete's fast path, not the union
        _, inverse = unique_rows(np.concatenate([uniform.support, q.support]))
        pm = np.zeros(inverse.max() + 1)
        qm = np.zeros(inverse.max() + 1)
        np.add.at(pm, inverse[: uniform.size], uniform.mass)
        np.add.at(qm, inverse[uniform.size :], q.mass)
        assert tv_discrete(uniform, q) == 0.5 * float(np.abs(pm - qm).sum())


class TestResample:
    """`resample` is the regrouped sample, from the same draws."""

    @settings(max_examples=200, deadline=None)
    @given(
        multisets(),
        st.lists(st.floats(-60.0, 0.0), min_size=1, max_size=8),
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
    )
    @example(np.array([[-0.0, 1.0], [2.0, 3.0], [1.0, -0.0]]), [0.0, -50.0, -1.0], 1, 7)
    @example(np.array([[0.0], [-1.0], [-0.0]]), [0.0, -60.0], 60, 3)
    def test_bit_identical_to_uniform_on_sample(self, pts, log2_mass, count, seed):
        # masses 2^e with e in [-60, 0], normalized: some rows all but never drawn
        support = uniform_on(pts).support
        w = np.exp2(np.resize(log2_mass, len(support)))
        dist = DiscreteDistribution(support, w / w.sum())
        got = dist.resample(count, seed)
        want = uniform_on(dist.sample(count, seed))
        assert same_bits(got.support, want.support)
        assert same_bits(got.mass, want.mass)

    @pytest.mark.parametrize("count, error", [(0, ConfigurationError), (-1, ContractViolation)])
    def test_empty_or_negative_count_raises_as_uniform_on_sample(self, count, error):
        dist = DiscreteDistribution([[0.0, 1.0], [-0.0, 2.0]], [0.5, 0.5])
        with pytest.raises(error) as want:
            uniform_on(dist.sample(count, 1))
        with pytest.raises(error) as got:
            dist.resample(count, 1)
        assert str(got.value) == str(want.value)


class TestGridSpec:
    def test_locate_and_volume(self):
        g = GridSpec([0.0, 0.0], [4.0, 2.0], 4)
        assert g.cell_volume == pytest.approx(0.5)
        assert g.n_cells == 16
        idx = g.locate([[0.1, 0.1], [3.9, 1.9]])
        assert idx[0] == 0 and idx[1] == 15
        assert g.cell_lo(idx).tolist() == [[0.0, 0.0], [3.0, 1.5]]

    def test_out_of_box_clips(self):
        g = GridSpec([0.0], [1.0], 4)
        assert g.locate([[-5.0]])[0] == 0
        assert g.locate([[5.0]])[0] == 3

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 4),
        cells=st.integers(2, 9),
        n=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_locate_equals_ravel_multi_index(self, d, cells, n, seed):
        # points inside the box, on its faces and far outside it
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-5.0, 0.0, d)
        g = GridSpec(lo, lo + rng.uniform(0.1, 5.0, d), cells)
        pts = rng.uniform(-10.0, 10.0, (n, d))
        pts[::3] = np.where(rng.random((len(pts[::3]), d)) < 0.5, g.lo, g.hi)
        idx = np.floor((pts - g.lo) / ((g.hi - g.lo) / cells)).astype(int)
        want = np.ravel_multi_index(np.clip(idx, 0, cells - 1).T, (cells,) * d)
        got = g.locate(pts)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            GridSpec([0.0], [0.0], 4)
        with pytest.raises(ConfigurationError):
            GridSpec([0.0], [1.0], 1)


class TestCsvRoundTrip:
    def test_with_mode_ids(self, tmp_path):
        pts = np.array([[0.5, -1.25], [3.0, 2.0], [1e-9, 7.0]])
        modes = np.array([0, 1, 0])
        path = tmp_path / "data.csv"
        save_points_csv(path, pts, modes)
        out_pts, out_modes = load_points_csv(path)
        assert np.array_equal(out_pts, pts)
        assert np.array_equal(out_modes, modes)
        assert path.read_text().splitlines()[0] == "x0,x1,mode_id"

    def test_without_mode_ids(self, tmp_path):
        pts = np.array([[1.0], [2.0]])
        path = tmp_path / "plain.csv"
        save_points_csv(path, pts)
        out_pts, out_modes = load_points_csv(path)
        assert np.array_equal(out_pts, pts)
        assert out_modes is None

    def test_writes_csv_text_and_reads_crlf_files(self, tmp_path):
        # files written before save_points_csv used csv_text end their
        # lines in \r\n; they load to the same points
        pts = np.array([[0.5, -1.25], [3.0, 2.0], [1e-9, 7.0]])
        modes = np.array([0, 1, 0])
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        save_points_csv(lf, pts, modes)
        text = lf.read_bytes()
        assert text == b"x0,x1,mode_id\n0.5,-1.25,0\n3.0,2.0,1\n1e-09,7.0,0\n"
        crlf.write_bytes(text.replace(b"\n", b"\r\n"))
        for path in (lf, crlf):
            out_pts, out_modes = load_points_csv(path)
            assert np.array_equal(out_pts.view(np.int64), pts.view(np.int64))
            assert np.array_equal(out_modes, modes)

    def test_missing_header_fails(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            load_points_csv(path)
