import math

import numpy as np
import pytest

from modecover import (
    check_mixture_cover_exhaustive,
    check_quarter_cover,
    check_single_round_cover,
    check_weight_growth,
)
from modecover.oracles import SLACK, _greedy_mass_subset, _run_trials, _trial_rng


def test_run_trials_counts_and_first_violation():
    margins = iter([0.5, None, -1.0, -2.0])

    def trial(rng):
        m = next(margins)
        return None if m is None else (m, lambda: {"margin": m})

    report = _run_trials("stub", 4, 7, {"k": 1}, trial)
    assert report.violations == 2
    assert report.worst_margin == -2.0
    assert report.first_violation == {"trial": 2, "margin": -1.0}
    assert (report.name, report.trials, report.seed, report.params) == (
        "stub", 4, 7, {"k": 1}
    )
    assert not report.ok


def test_run_trials_tolerance():
    report = _run_trials("stub", 2, 0, {}, lambda rng: (-SLACK / 2, dict))
    assert report.ok and report.first_violation is None
    report = _run_trials("stub", 1, 0, {}, lambda rng: (-0.5, dict), tol=1.0)
    assert report.ok


class TestSingleRoundCover:
    def test_no_violations_at_reference_params(self):
        report = check_single_round_cover(300, support_size=10, delta=0.25, gamma=0.1, seed=0)
        assert report.violations == 0
        assert report.worst_margin > 0

    def test_zero_budget_keeps_two_delta_slack(self):
        report = check_single_round_cover(200, support_size=10, delta=0.25, gamma=0.0, seed=1)
        assert report.violations == 0

    def test_vacuous_bound_never_violated(self):
        report = check_single_round_cover(100, support_size=8, delta=0.5, gamma=1.0, seed=2)
        assert report.violations == 0  # bound is -0.5, trivially satisfied

    def test_deterministic_per_seed(self):
        a = check_single_round_cover(100, seed=3)
        b = check_single_round_cover(100, seed=3)
        assert a.worst_margin == b.worst_margin

    def test_power_of_tightened_threshold(self):
        # in the small-delta regime the bound is near-tight: the honest
        # threshold holds while a +0.05 tightening is refuted
        honest = check_single_round_cover(
            1000, support_size=16, delta=0.02, gamma=0.1, seed=0
        )
        assert honest.violations == 0
        tightened = check_single_round_cover(
            1000, support_size=16, delta=0.02, gamma=0.1, seed=0, threshold_shift=0.05
        )
        assert tightened.violations >= 1
        assert tightened.first_violation is not None
        assert "p" in tightened.first_violation


class TestQuarterCover:
    def test_certified(self):
        report = check_quarter_cover(300, seed=0)
        assert report.violations == 0
        assert report.params["threshold"] == 0.4

    def test_identity_instance_trivially_covered(self):
        # G = Q = P gives beta = 1 >= 0.4 for any instance
        from modecover import DiscreteDistribution, delta_beta_estimate

        p = DiscreteDistribution(np.arange(4.0)[:, None], np.full(4, 0.25))
        lookup = dict(zip(p.support[:, 0], p.mass))
        f = lambda x: lookup[float(x[0])]
        assert delta_beta_estimate(f, f, p, 0.25).value == 1.0


class TestWeightGrowth:
    def test_no_violations(self):
        report = check_weight_growth(200, support_size=16, rounds=30, eps=0.3, seed=0)
        assert report.violations == 0

    def test_zero_eps_keeps_weight_constant(self):
        report = check_weight_growth(50, support_size=8, rounds=10, eps=0.0, seed=1)
        assert report.violations == 0
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_equality_when_everything_doubles(self):
        # eps = 1 lets the adversary double every point: W_{T+1} = 2^T
        report = check_weight_growth(20, support_size=6, rounds=12, eps=1.0, seed=2)
        assert report.violations == 0
        assert report.worst_margin == pytest.approx(0.0, abs=1e-9)

    def test_single_round_exact_mass_equality(self):
        # a subset of mass exactly eps doubled once gives W_2 = 1 + eps
        import math

        lw = np.log2(np.full(10, 0.1))
        flags = np.zeros(10, dtype=bool)
        flags[:3] = True  # mass 0.3
        lw2 = lw + flags
        total = lw2.max() + math.log2(np.sum(np.exp2(lw2 - lw2.max())))
        assert total == pytest.approx(math.log2(1.3), abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_previous_loop(self, seed, eps):
        # the previous private loop, which re-totalled the weights with
        # math.log2 every round; the suite now calls core.log2_weight_sum
        trials, support_size, rounds = 40, 16, 30
        cap_log2 = rounds * math.log2(1.0 + eps)
        violations, worst, first = 0, math.inf, None
        for trial in range(trials):
            rng = _trial_rng(seed, trial)
            lw = np.log2(rng.dirichlet(np.ones(support_size)))
            log2_total = 0.0
            for _ in range(rounds):
                u = np.exp2(lw - lw.max())
                flags = _greedy_mass_subset(u / u.sum(), eps)
                lw = lw + flags
                log2_total = lw.max() + math.log2(np.sum(np.exp2(lw - lw.max())))
            margin = cap_log2 - log2_total
            worst = min(worst, margin)
            if margin < -1e-9:
                violations += 1
                if first is None:
                    first = {"trial": trial, "log2_final": log2_total, "cap": cap_log2}
        report = check_weight_growth(
            trials, support_size=support_size, rounds=rounds, eps=eps, seed=seed
        )
        assert report.worst_margin == worst
        assert report.violations == violations
        assert report.first_violation == first

    def test_greedy_subset_respects_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            masses = rng.dirichlet(np.ones(12))
            flags = _greedy_mass_subset(masses, 0.4)
            assert masses[flags].sum() <= 0.4 + 1e-12


class TestMixtureCoverExhaustive:
    def test_reference_params(self):
        report = check_mixture_cover_exhaustive(
            support_size=8, rounds=24, delta=0.25, gamma=0.1, eta=0.2, trials=30, seed=0
        )
        assert report.violations == 0

    def test_non_vacuous_bound(self):
        report = check_mixture_cover_exhaustive(
            support_size=8, rounds=24, delta=0.25, gamma=0.1, eta=0.1, trials=30, seed=1
        )
        assert report.params["bound"] > 0
        assert report.violations == 0
        assert report.worst_margin > 0

    def test_zero_budget_identity(self):
        report = check_mixture_cover_exhaustive(
            support_size=6, rounds=8, delta=0.25, gamma=0.0, eta=0.2, trials=10, seed=2
        )
        assert report.violations == 0
        # perfect generators reproduce the round distribution: every subset
        # ratio is 1, so the worst absolute margin is at least
        # mass_lb * (1 - bound)
        floor = report.params["mass_lb"] * (1.0 - report.params["bound"])
        assert report.worst_margin >= floor - 1e-12

    def test_support_cap(self):
        with pytest.raises(Exception):
            check_mixture_cover_exhaustive(support_size=20, trials=1)


def test_report_json_shape():
    report = check_quarter_cover(50, seed=4)
    doc = report.to_json_dict()
    assert doc["suite"] == "quarter_cover"
    assert set(doc) >= {"suite", "trials", "violations", "worst_margin", "seed"}
