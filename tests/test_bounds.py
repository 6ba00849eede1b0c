import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from modecover import (
    AnalyticDensity,
    ContractViolation,
    DiscreteDistribution,
    best_cover_threshold,
    coverage_guarantee,
    coverage_report,
    delta_beta_estimate,
    generalization_sample_size,
    make_rare_modes_instance,
    make_three_gauss_target,
    minimax_cover_bound,
    minority_weight_ratio,
    mixture_cover_bound,
    mode_coverage_count,
    noisy_coverage_guarantee,
    single_round_cover_bound,
    uniform_on,
    worst_subset,
)
from modecover.boost import RoundRecord, RoundTrace
from subset_oracle import worst_subset_exhaustive

LN2 = math.log(2.0)


class TestPointAndSubsetCover:
    def test_spread_candidate_covers_at_third(self):
        target, _, spread = make_rare_modes_instance()
        g0, p0 = spread.pdf([[0.0]])[0], target.pdf([[0.0]])[0]
        assert g0 >= p0 / 3
        assert g0 / p0 == pytest.approx(0.347, abs=1e-3)

    def test_rare_modes_side_subset_ratio(self):
        from modecover import interval_probability

        target, center, _ = make_rare_modes_instance()
        side = [(-14.0, -6.0), (6.0, 14.0)]
        ratio = interval_probability(center, side) / interval_probability(target, side)
        assert 1e-7 / 3 <= ratio <= 3e-7


class TestBoundFormulas:
    def test_single_round_anchor(self):
        assert single_round_cover_bound(0.25, 0.1) == pytest.approx(0.4, abs=0)
        assert single_round_cover_bound(0.5, 0.0) == 0.0
        assert single_round_cover_bound(0.1, 0.05) == pytest.approx(0.75)

    def test_mixture_cover_values(self):
        assert mixture_cover_bound(0.3, 0.0, 0.0) == pytest.approx(0.3)
        expected = (1.0 - 0.1 / LN2 - 0.01) * 0.25
        assert mixture_cover_bound(0.25, 0.1, 0.01) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.21143, abs=1e-5)
        assert mixture_cover_bound(0.25, LN2 * 0.99, 0.01) == pytest.approx(0.0, abs=1e-15)

    def test_coverage_guarantee_values(self):
        expected = (1.0 - 0.6 / LN2 - 0.01) * 0.25
        assert coverage_guarantee(0.25, 0.1, 0.01) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.031096, abs=1e-6)
        assert coverage_guarantee(1e-9, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)
        best, _ = best_cover_threshold(0.1, 0.01)
        better = coverage_guarantee(best, 0.1, 0.01)
        assert better == pytest.approx(0.06197, abs=1e-4)
        assert better > coverage_guarantee(0.25, 0.1, 0.01)

    def test_composition_consistency(self):
        # the end-to-end factor is the mixture factor at eps = gamma + 2*delta
        rng = np.random.default_rng(0)
        for _ in range(200):
            d, g, e = rng.random(3) * 0.5
            assert coverage_guarantee(d, g, e) == pytest.approx(
                mixture_cover_bound(d, g + 2 * d, e), rel=1e-12
            )

    def test_noisy_guarantee(self):
        assert noisy_coverage_guarantee(delta=0.25, gamma=0.1, eta=0.01) == pytest.approx(
            coverage_guarantee(0.25, 0.1, 0.01), rel=1e-15
        )
        noisy = noisy_coverage_guarantee(
            delta=0.25, gamma=0.1, eta=0.01, eps_prime=0.05, lam=0.9, delta_prime=0.2
        )
        expected = (1.0 - 0.65 / LN2 - 0.01) * 0.2 * 0.9
        assert noisy == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.009405, abs=1e-5)
        assert noisy_coverage_guarantee(delta=0.25, lam=0.0) == 0.0

    def test_composites_bit_identical_to_inline_formulas(self):
        # each composite is written through the lemma bounds; the float
        # operations and their order are those of the old closed forms
        rng = np.random.default_rng(11)
        for _ in range(2000):
            d, g, e, ep, lam, dp = rng.random(6)
            assert coverage_guarantee(d, g, e) == (1.0 - (g + 2.0 * d) / LN2 - e) * d
            noisy = noisy_coverage_guarantee(
                delta=d, gamma=g, eta=e, eps_prime=ep, lam=lam, delta_prime=dp
            )
            assert noisy == (1.0 - (g + 2.0 * d + ep) / LN2 - e) * dp * lam
            assert minimax_cover_bound(d, g) == (1.0 - 2.0 * d - g) * d

    def test_best_threshold_values(self):
        val, vac = best_cover_threshold(0.0, 0.0)
        assert not vac and val == pytest.approx(LN2 / 4, rel=1e-15)
        val, vac = best_cover_threshold(0.1, 0.01)
        assert val == pytest.approx(0.146554, abs=1e-6)
        with pytest.warns(RuntimeWarning):
            val, vac = best_cover_threshold(0.95, 0.0)
        assert vac and val == 0.0

    def test_best_threshold_matches_scan(self):
        # dense scan argmax agrees with the closed form for random params
        import warnings

        rng = np.random.default_rng(42)
        deltas = np.linspace(1e-6, 0.5, 500001)
        for _ in range(50):
            gamma = rng.random() * 0.5
            eta = rng.random() * 0.5
            scan = deltas[np.argmax((1.0 - (gamma + 2 * deltas) / LN2 - eta) * deltas)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                best, vac = best_cover_threshold(gamma, eta)
            if not vac:
                assert abs(scan - best) < 1e-6

    def test_minimax_values_and_argmax(self):
        assert minimax_cover_bound(0.25, 0.0) == 0.125
        assert minimax_cover_bound(0.25, 0.1) == pytest.approx(0.1, rel=1e-15)
        assert minimax_cover_bound(0.5, 0.0) == 0.0
        deltas = np.linspace(0.0, 0.5, 500001)
        for gamma in (0.0, 0.1, 0.3):
            scan = deltas[np.argmax((1.0 - 2 * deltas - gamma) * deltas)]
            assert abs(scan - (1.0 - gamma) / 4.0) < 1e-6
        assert max((1.0 - 2 * d - 0.0) * d for d in deltas) == pytest.approx(0.125, abs=1e-9)

    def test_generalization_sample_size(self):
        assert generalization_sample_size(0.1, 10, 20, 1) == pytest.approx(2000.0)
        assert generalization_sample_size(1.0, 1, 1, 1) == pytest.approx(1.0)
        one = generalization_sample_size(0.2, 7, 12, 2.0)
        two = generalization_sample_size(0.2, 14, 12, 2.0)
        assert two == pytest.approx(2 * one)


class TestWorstSubset:
    def test_equal_ratios(self):
        ws = worst_subset([0.4, 0.4, 0.4], [0.2, 0.3, 0.5], mass_lb=0.4)
        assert ws.ratio == pytest.approx(0.4)
        assert ws.mass >= 0.4

    def test_two_point_pick(self):
        ws = worst_subset([0.1, 1.0], [0.5, 0.5], mass_lb=0.5)
        assert ws.indices == (0,)
        assert ws.ratio == pytest.approx(0.1)

    def test_prefix_exact_for_equal_masses(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            ratios = rng.random(n) * 2
            masses = np.full(n, 1.0 / n)
            lb = float(rng.integers(1, n)) / n
            pre = worst_subset(ratios, masses, lb)
            exact = worst_subset_exhaustive(ratios, masses, lb)
            assert pre.ratio == pytest.approx(exact.ratio, abs=1e-12)

    def test_prefix_upper_bounds_exhaustive(self):
        # unequal masses: the prefix answer can only overestimate the minimum
        rng = np.random.default_rng(2)
        gaps = []
        for _ in range(200):
            n = int(rng.integers(2, 9))
            ratios = rng.random(n) * 2
            masses = rng.dirichlet(np.ones(n))
            lb = min(0.999, float(rng.random()) + 1e-3)
            if masses.sum() < lb:
                continue
            pre = worst_subset(ratios, masses, lb)
            exact = worst_subset_exhaustive(ratios, masses, lb)
            assert pre.ratio >= exact.ratio - 1e-12
            gaps.append(pre.ratio - exact.ratio)
        assert np.median(gaps) < 0.05  # heuristic is tight on typical instances

    def test_mass_lb_validation(self):
        with pytest.raises(ContractViolation):
            worst_subset([1.0], [1.0], mass_lb=0.0)


class TestCoverageReport:
    def test_perfect_mixture(self):
        target = DiscreteDistribution([[0.0], [1.0]], [0.4, 0.6])
        rep = coverage_report(target.mass, target)
        assert rep.psi_hat == 1.0
        assert rep.worst_subset.ratio == pytest.approx(1.0)

    def test_collapsed_mixture(self):
        target = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
        rep = coverage_report(np.array([1.0, 0.0]), target)
        assert rep.psi_hat == 0.0

    def test_worked_two_point_mixture(self):
        target = DiscreteDistribution([[0.0], [1.0]], [5 / 7, 2 / 7])
        g_star = np.array([(1.0 + 5 / 9) / 2, (0.0 + 4 / 9) / 2])
        rep = coverage_report(g_star, target)
        assert rep.psi_hat == pytest.approx(7 / 9, rel=1e-12)
        assert rep.ratios[0] == pytest.approx((7 / 9) / (5 / 7), rel=1e-12)

    def test_worst_subset_equals_psi_at_min_mass_lb(self):
        # when single points qualify, the worst subset is the worst point
        rng = np.random.default_rng(13)
        support = np.arange(9.0)[:, None]
        for _ in range(50):
            target = DiscreteDistribution(support, rng.dirichlet(np.ones(9)))
            rep = coverage_report(rng.dirichlet(np.ones(9)), target)
            assert rep.worst_subset.ratio == pytest.approx(rep.psi_hat, rel=1e-12)


class TestDeltaBetaEstimate:
    def test_identical_distributions(self):
        p = DiscreteDistribution([[0.0], [1.0]], [0.3, 0.7])
        pdf = dict(zip((0.0, 1.0), p.mass))
        f = lambda x: pdf[float(x[0])]
        est = delta_beta_estimate(f, f, p, delta=1.0)
        assert est.exact and est.value == 1.0

    def test_collapsed_generator_two_point(self):
        p = DiscreteDistribution([[0.0], [1.0]], [5 / 7, 2 / 7])
        g = {0.0: 1.0, 1.0: 0.0}
        pm = {0.0: 5 / 7, 1.0: 2 / 7}
        est = delta_beta_estimate(
            lambda x: g[float(x[0])], lambda x: pm[float(x[0])], p, delta=0.25
        )
        assert est.value == pytest.approx(5 / 7, rel=1e-15)

    def test_three_gauss_instance_nearly_one(self):
        # independent oracle: solve for the coverage cutoff and integrate the
        # gaussian tail; the uncovered mass is ~6.2e-8
        target = make_three_gauss_target()
        fit = AnalyticDensity([1.0], [[0.0]], [[1.0]])
        f = lambda x: fit.pdf(np.array([[x]]))[0] - 0.25 * target.pdf(np.array([[x]]))[0]
        cutoff = brentq(f, 3.0, 8.0)
        uncovered = 2 * ndtr(-cutoff)
        assert uncovered == pytest.approx(6.2077e-8, rel=1e-3)
        est = delta_beta_estimate(
            lambda x: fit.pdf(np.atleast_2d(x))[0],
            lambda x: target.pdf(np.atleast_2d(x))[0],
            fit,
            delta=0.25,
            n_samples=20000,
            seed=0,
        )
        assert not est.exact
        assert est.value == 1.0  # no draw lands in the 6e-8 sliver


class TestModeCoverageCount:
    def test_all_samples_single_center(self):
        centers = np.arange(20.0).reshape(10, 2)
        samples = np.tile(centers[0], (500, 1))
        assert mode_coverage_count(samples, centers, 0.1, 500, 10) == 1

    def test_threshold_arithmetic(self):
        # threshold is frac * N / M = 1; eleven samples per center suffice
        rng = np.random.default_rng(0)
        centers = rng.uniform(-50, 50, size=(10, 2))
        samples = np.repeat(centers, 11, axis=0)
        assert mode_coverage_count(samples, centers, 0.2, 1000, 10, frac=0.01) == 10

    def test_zero_samples(self):
        assert mode_coverage_count(np.empty((0, 2)), np.zeros((3, 2)), 1.0, 100, 3) == 0


def _trace_with_flags(n, flag_rounds):
    init = np.full(n, -math.log2(n))
    records = []
    lw = init.copy()
    for t, flags in enumerate(flag_rounds, start=1):
        records.append(
            RoundRecord(
                round=t,
                log2_total=float(
                    lw.max() + math.log2(np.sum(np.exp2(lw - lw.max())))
                ),
                doubled=np.asarray(flags, dtype=bool),
                n_doubled=int(np.sum(flags)),
            )
        )
        lw = lw + np.asarray(flags, dtype=bool)
    return RoundTrace(
        init_log2_weights=init,
        rounds=tuple(records),
        final_log2_total=float(lw.max() + math.log2(np.sum(np.exp2(lw - lw.max())))),
        target=uniform_on(np.arange(float(n))),
        mixture_mass=np.full(n, 1.0 / n),
    )


class TestMinorityWeightRatio:
    def test_initial_uniform_share(self):
        n = 60100
        trace = _trace_with_flags(n, [np.zeros(n, dtype=bool)])
        ratios = minority_weight_ratio(trace, np.arange(100))
        assert ratios[0] == pytest.approx(100 / 60100, rel=1e-12)

    def test_all_minority_is_one(self):
        trace = _trace_with_flags(5, [np.ones(5, dtype=bool)] * 3)
        ratios = minority_weight_ratio(trace, np.arange(5))
        assert np.allclose(ratios, 1.0, atol=0)

    def test_one_sided_doubling_closed_form(self):
        # 601 points, one minority point doubled every round:
        # share at round t is 2^(t-1) / (600 + 2^(t-1))
        n = 601
        flags = np.zeros(n, dtype=bool)
        flags[0] = True
        trace = _trace_with_flags(n, [flags] * 10)
        ratios = minority_weight_ratio(trace, [0])
        for t in range(1, 11):
            expected = 2.0 ** (t - 1) / (600 + 2.0 ** (t - 1))
            assert ratios[t - 1] == pytest.approx(expected, rel=1e-12)
        assert np.all(np.diff(ratios) > 0)


def test_theory_params_validation():
    with pytest.raises(ContractViolation):
        noisy_coverage_guarantee(delta=1.5)
    # delta_prime defaults to delta
    assert noisy_coverage_guarantee(delta=0.25) == mixture_cover_bound(0.25, 0.5, 0.0)
