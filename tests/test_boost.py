import math
import tracemalloc

import numpy as np
import pytest

from modecover import (
    AdversarialCoverageGenerator,
    AnalyticDensity,
    BoostConfig,
    BoostRunError,
    ConfigurationError,
    DiscreteDistribution,
    DiscriminatorSpec,
    FixedFamilyGenerator,
    GeneratorMixture,
    GmmGenerator,
    GridSpec,
    HistogramGenerator,
    KdeGenerator,
    exact_discriminator,
    group_points,
    init_weights_empirical,
    mixture_pdf,
    mixture_sample,
    mixture_support_masses,
    run_empirical,
    run_exact,
    uniform_on,
    worst_subset,
)
from modecover import boost, core
from modecover.boost import round_rng_seed
from modecover.core import relative_weights, row_groups
from subset_oracle import worst_subset_exhaustive


def two_point_target():
    return DiscreteDistribution([[0.0], [1.0]], [5 / 7, 2 / 7])


def reconstruct_round_masses(trace, t):
    """Round-t relative weights from the stored flags."""
    lw = trace.init_log2_weights.copy()
    for rec in trace.rounds[: t - 1]:
        lw = lw + rec.doubled
    u = np.exp2(lw - lw.max())
    return u / u.sum()


@pytest.mark.parametrize(
    "build",
    [
        lambda: BoostConfig(generator=GmmGenerator(), disc_sample_size=0),
        lambda: DiscriminatorSpec(n_centers=0),
        lambda: DiscriminatorSpec(max_iter=0),
        lambda: DiscriminatorSpec(max_iter=-1),
        lambda: DiscriminatorSpec(l2=-1.0),
    ],
    ids=["disc_sample_size_zero", "n_centers_zero", "max_iter_zero", "max_iter_negative",
         "l2_negative"],
)
def test_constructors_reject_what_the_schema_rejects(build):
    # run_config.schema.json refuses each of these values before a run starts
    with pytest.raises(ConfigurationError):
        build()


class TestRunExact:
    def test_two_point_collapsed_round(self):
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=2 / 7, victim=[1]),
            rounds=2,
            delta=0.25,
            seed=0,
        )
        mixture, trace = run_exact(two_point_target(), cfg)
        assert trace.rounds[0].doubled.tolist() == [False, True]
        assert trace.rounds[0].n_doubled == 1
        p2 = reconstruct_round_masses(trace, 2)
        assert p2[0] == pytest.approx(5 / 9, rel=1e-12)
        assert p2[1] == pytest.approx(4 / 9, rel=1e-12)
        assert trace.rounds[0].tv_gen_vs_pt == pytest.approx(2 / 7, abs=1e-12)

    def test_perfect_generator_single_round(self):
        target = two_point_target()
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.0, victim=[1]),
            rounds=1,
            delta=0.25,
            seed=0,
        )
        mixture, trace = run_exact(target, cfg)
        assert trace.rounds[0].n_doubled == 0
        assert np.allclose(
            mixture_support_masses(mixture, target.support), target.mass, atol=0
        )

    def test_weight_recurrence(self):
        # W_{t+1} = W_t * (1 + doubled round mass), checked per round
        rng = np.random.default_rng(1)
        target = DiscreteDistribution(
            np.arange(12.0)[:, None], rng.dirichlet(np.ones(12))
        )
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.25),
            rounds=18,
            delta=0.3,
            seed=4,
        )
        _, trace = run_exact(target, cfg)
        for t, rec in enumerate(trace.rounds, start=1):
            p_t = reconstruct_round_masses(trace, t)
            doubled_mass = float(p_t[rec.doubled].sum())
            nxt = (
                trace.rounds[t].log2_total
                if t < len(trace.rounds)
                else trace.final_log2_total
            )
            assert nxt - rec.log2_total == pytest.approx(
                math.log2(1.0 + doubled_mass), abs=1e-9
            )

    def test_weight_growth_capped_by_measured_cover_rate(self):
        rng = np.random.default_rng(2)
        target = DiscreteDistribution(
            np.arange(10.0)[:, None], rng.dirichlet(np.ones(10))
        )
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.15),
            rounds=20,
            delta=0.25,
            seed=5,
        )
        _, trace = run_exact(target, cfg)
        eps = max(
            float(reconstruct_round_masses(trace, t)[rec.doubled].sum())
            for t, rec in enumerate(trace.rounds, start=1)
        )
        assert trace.final_log2_total <= cfg.rounds * math.log2(1 + eps) + 1e-9

    def test_uniform_eight_point_subset_bound(self):
        # adversary at budget gamma: every heavy-enough subset of the final
        # mixture must clear the end-to-end guarantee; the ratio-sorted
        # prefix search must agree with exhaustive subset enumeration here
        from modecover import coverage_guarantee

        target = uniform_on(np.arange(8.0)[:, None])
        delta, gamma, eta, rounds = 0.25, 0.1, 0.1, 24
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=gamma),
            rounds=rounds,
            delta=delta,
            eta=eta,
            seed=7,
        )
        mixture, trace = run_exact(target, cfg)
        g_star = mixture_support_masses(mixture, target.support)
        bound = coverage_guarantee(delta, gamma, eta)
        assert bound > 0
        mass_lb = 2.0 ** (-eta * rounds)
        ratios = g_star / target.mass
        pre = worst_subset(ratios, target.mass, mass_lb)
        exact = worst_subset_exhaustive(ratios, target.mass, mass_lb)
        assert pre.ratio == pytest.approx(exact.ratio, abs=1e-12)
        assert exact.ratio >= bound - 1e-12

    def test_fit_failure_reports_round(self):
        cfg = BoostConfig(generator=GmmGenerator(k=50), rounds=3, delta=0.25, seed=0)
        target = uniform_on(np.arange(5.0)[:, None])
        with pytest.raises(BoostRunError) as err:
            run_exact(target, cfg)
        assert err.value.round_index == 1


class TestRunEmpirical:
    def test_two_point_with_ideal_discriminator(self):
        points = np.array([[0.0]] * 5 + [[1.0]] * 2)

        def collapse_b(train):
            return np.flatnonzero(train.support[:, 0] == 1.0)

        def ideal(p_hat, gen, pos, neg, seed):
            return exact_discriminator(
                p_hat.mass, gen.support_masses(p_hat.support), p_hat.support
            )

        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=1.0, victim=collapse_b),
            rounds=1,
            delta=0.25,
            seed=0,
        )
        _, trace = run_empirical(points, cfg, discriminator_factory=ideal)
        assert trace.rounds[0].doubled.tolist() == [False] * 5 + [True] * 2
        lw = trace.init_log2_weights + trace.rounds[0].doubled
        w2 = np.exp2(lw)
        assert np.all(w2[:5] == 1 / 7)
        assert np.all(w2[5:] == 2 / 7)

    def test_single_gaussian_gmm_doubling_fraction(self):
        # on a well-fit unimodal dataset the doubled mass stays below the
        # single-round bound slack 2*delta + gamma plus sampling noise
        rng = np.random.default_rng(3)
        points = rng.normal(0.0, 1.0, (2000, 1))
        cfg = BoostConfig(
            generator=GmmGenerator(k=1, restarts=1),
            rounds=3,
            delta=0.25,
            seed=9,
            disc_sample_size=2000,
        )
        _, trace = run_empirical(points, cfg)
        for t, rec in enumerate(trace.rounds, start=1):
            p_t = reconstruct_round_masses(trace, t)
            doubled_mass = float(p_t[rec.doubled].sum())
            gamma_t = rec.tv_gen_vs_pt or 0.0
            assert doubled_mass < 2 * cfg.delta + gamma_t + 0.1

    def test_histogram_tv_measured_in_bin_space(self):
        rng = np.random.default_rng(4)
        points = rng.normal(0, 1, (500, 1))
        grid = GridSpec([-6.0], [6.0], 24)
        cfg = BoostConfig(
            generator=HistogramGenerator(grid=grid),
            rounds=2,
            delta=0.25,
            seed=1,
        )
        _, trace = run_empirical(points, cfg)
        # the histogram reproduces its training bins up to resampling noise
        assert trace.rounds[0].tv_gen_vs_pt < 0.15

    def test_diagnostics_appear_with_exact_densities(self):
        rng = np.random.default_rng(5)
        points = rng.normal(0, 1, (300, 1))
        cfg = BoostConfig(
            generator=KdeGenerator(bandwidth=0.3),
            rounds=2,
            delta=0.25,
            seed=2,
            disc_sample_size=300,
        )
        _, trace = run_empirical(
            points, cfg, exact_target_pdf=np.full(300, 1.0 / 300)
        )
        assert trace.rounds[0].epsilon_prime is not None
        assert 0.0 <= trace.rounds[0].epsilon_prime <= 1.0
        assert trace.rounds[0].lambda_min is not None

    def test_diagnostics_match_accumulator_formula(self):
        # reference: the per-round arithmetic of the former diagnostics
        # accumulator, fed from the trace (the replayed weights are the loop's
        # relative weights bit for bit) and the fitted generators
        rng = np.random.default_rng(5)
        points = rng.normal(0, 1, (300, 1))
        # a target wider than the data, so the tails are covered in some rounds only
        p_vals = AnalyticDensity([1.0], [[0.0]], [[2.0]]).pdf(points)
        cfg = BoostConfig(
            generator=KdeGenerator(bandwidth=0.3),
            rounds=4,
            delta=0.25,
            seed=2,
            disc_sample_size=300,
        )
        mixture, trace = run_empirical(points, cfg, exact_target_pdf=p_vals)
        kept_rounds = np.zeros(len(points), dtype=int)
        covered_rounds = np.zeros(len(points), dtype=int)
        for t, rec in enumerate(trace.rounds, start=1):
            g = np.asarray(mixture.generators[t - 1].pdf(points), dtype=float)
            covered = g >= cfg.delta * p_vals
            eps = float(reconstruct_round_masses(trace, t)[covered & rec.doubled].sum())
            kept_rounds += ~rec.doubled
            covered_rounds += covered
            lam = np.where(
                kept_rounds > 0,
                np.minimum(1.0, covered_rounds / np.maximum(kept_rounds, 1)),
                1.0,
            )
            assert rec.epsilon_prime == eps
            assert rec.lambda_min == float(lam.min())
        assert any(r.epsilon_prime > 0 for r in trace.rounds)
        assert any(0 < r.lambda_min < 1 for r in trace.rounds)

    def test_every_covered_sample_doubled_completes(self):
        # the relative weights of 20 uniform samples sum to 1 + 1 ulp, and
        # epsilon_prime reports that sum as measured
        points = np.arange(20.0)[:, None]
        cfg = BoostConfig(
            generator=FixedFamilyGenerator(
                candidates=(AnalyticDensity([1.0], [[0.0]], [[100.0]]),)
            ),
            rounds=2,
            delta=0.25,
        )
        double_all = exact_discriminator(np.ones(20), np.zeros(20), points)
        _, trace = run_empirical(
            points,
            cfg,
            exact_target_pdf=np.full(20, 1e-9),
            discriminator_factory=lambda *_: double_all,
        )
        for rec in trace.rounds:
            assert rec.n_doubled == 20
            assert rec.epsilon_prime == float(np.full(20, 1 / 20).sum()) > 1.0
            assert rec.lambda_min == 1.0

    def test_lambda_min_capped_at_one(self):
        # each sample is doubled in one round and kept in the other while
        # covered in both: 2 covered rounds over 1 kept, capped at 1
        points = np.array([[0.0], [1.0]])
        cfg = BoostConfig(
            generator=FixedFamilyGenerator(
                candidates=(AnalyticDensity([1.0], [[0.5]], [[100.0]]),)
            ),
            rounds=2,
            delta=0.25,
        )
        discs = iter(
            [
                exact_discriminator([1.0, 0.0], [0.0, 1.0], points),
                exact_discriminator([0.0, 1.0], [1.0, 0.0], points),
            ]
        )
        _, trace = run_empirical(
            points,
            cfg,
            exact_target_pdf=np.full(2, 1e-9),
            discriminator_factory=lambda *_: next(discs),
        )
        assert [r.doubled.tolist() for r in trace.rounds] == [[True, False], [False, True]]
        assert [r.lambda_min for r in trace.rounds] == [1.0, 1.0]

    def test_needs_two_points(self):
        cfg = BoostConfig(generator=KdeGenerator(), rounds=1, delta=0.25)
        with pytest.raises(Exception):
            run_empirical(np.array([[0.0]]), cfg)


def aggregate_then_construct(points, lw):
    """The round distribution as built before the loop grouped its points
    once: regroup, sum the relative weights, reorder to first-seen order,
    then construct (and so re-check) the distribution."""
    first, inverse = row_groups(points)
    order = np.argsort(first)
    mass = np.bincount(inverse, weights=relative_weights(lw))[order]
    return DiscreteDistribution(points[first[order]], mass)


class TestGroupOnce:
    def test_round_distribution_bit_identical_to_regrouping(self):
        # duplicates, and rows that differ only in the sign of a zero
        base = np.array(
            [[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [2.0, 0.0], [1.5, 3.0], [-1.0, 0.5]]
        )
        rng = np.random.default_rng(4)
        points = base[rng.integers(0, len(base), 60)]
        seen = []

        def step(t, lw, p_t):
            seen.append((lw, p_t))
            return None, p_t.mass, rng.random(len(points)) < 0.3, {}

        cfg = BoostConfig(generator=KdeGenerator(bandwidth=0.5), rounds=8)
        boost._run(*group_points(points), init_weights_empirical(points), cfg, step)
        assert len(seen) == 8
        assert len({lw.tobytes() for lw, _ in seen}) > 1
        for lw, p_t in seen:
            want = aggregate_then_construct(points, lw)
            assert p_t.support.tobytes() == want.support.tobytes()
            assert p_t.mass.tobytes() == want.mass.tobytes()

    def test_samples_grouped_once_per_run(self, monkeypatch):
        points = np.random.default_rng(6).normal(0, 1, (400, 2))
        calls = []

        def counting(rows):
            calls.append(np.array_equal(rows, points))
            return row_groups(rows)

        monkeypatch.setattr(core, "row_groups", counting)
        cfg = BoostConfig(
            generator=HistogramGenerator(grid=GridSpec([-5.0, -5.0], [5.0, 5.0], 8)),
            rounds=4,
            delta=0.25,
            seed=2,
        )
        ideal = exact_discriminator(np.ones(len(points)), np.ones(len(points)), points)
        _, trace = run_empirical(points, cfg, discriminator_factory=lambda *_: ideal)
        assert len(trace.rounds) == 4
        assert sum(calls) == 1

    def test_rounds_fit_on_resample_without_grouping(self, monkeypatch):
        # `uniform_on` groups through `core.group_points`, so the counter sees
        # it too; the one call is the run's own grouping of its samples
        points = signed_zero_multiset(8)
        group = core.group_points
        calls, trains = [], []

        def counting(rows):
            calls.append(len(rows))
            return group(rows)

        class Recording(HistogramGenerator):
            def fit(self, train, seed=None):
                trains.append(train)
                return super().fit(train, seed)

        monkeypatch.setattr(core, "group_points", counting)
        monkeypatch.setattr(boost, "group_points", counting)
        grid = GridSpec([-4.0, -4.0], [4.0, 4.0], 8)
        cfg = BoostConfig(generator=Recording(grid=grid), rounds=3, delta=0.25, seed=2)
        ideal = exact_discriminator(np.ones(len(points)), np.ones(len(points)), points)
        _, trace = run_empirical(points, cfg, discriminator_factory=lambda *_: ideal)
        assert calls == [len(points)]
        monkeypatch.setattr(core, "group_points", group)
        lw = trace.init_log2_weights
        for t, (train, record) in enumerate(zip(trains, trace.rounds, strict=True), start=1):
            p_t = core.normalize(trace.target, group(points)[1], lw)
            want = uniform_on(p_t.sample(len(points), round_rng_seed(2, t, "resample")))
            assert train.support.tobytes() == want.support.tobytes()
            assert train.mass.tobytes() == want.mass.tobytes()
            lw = lw + record.doubled


def signed_zero_multiset(seed):
    """2-D samples with repeated rows, and rows equal to others except for
    the sign of a zero."""
    rng = np.random.default_rng(seed)
    base = rng.normal(0, 1, (120, 2))
    base[:4, 0] = 0.0
    base[4:8] = base[:4]
    base[4:8, 0] = -0.0
    return base[rng.integers(0, len(base), 300)]


class TestLoopMixture:
    """The loop's running sum is the mixture's masses on the run's support."""

    def test_exact_mixture_mass_is_members_mean(self):
        rng = np.random.default_rng(3)
        target = DiscreteDistribution(np.arange(8.0)[:, None], rng.dirichlet(np.ones(8)))
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.1), rounds=12, delta=0.25, seed=3
        )
        mixture, trace = run_exact(target, cfg)
        assert trace.target is target
        want = mixture_support_masses(mixture, target.support)
        assert trace.mixture_mass.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "generator",
        [
            GmmGenerator(k=3),
            HistogramGenerator(grid=GridSpec([-3.0, -3.0], [3.0, 3.0], 8)),
            KdeGenerator(bandwidth=0.5),
        ],
        ids=["gmm", "histogram", "kde"],
    )
    def test_empirical_mixture_mass_is_members_mean(self, generator):
        points = signed_zero_multiset(5)
        cfg = BoostConfig(
            generator=generator, rounds=4, delta=0.25, seed=5, disc_sample_size=256
        )
        mixture, trace = run_empirical(points, cfg)
        want = uniform_on(points)
        assert want.size < len(points)
        assert trace.target.support.tobytes() == want.support.tobytes()
        assert trace.target.mass.tobytes() == want.mass.tobytes()
        masses = mixture_support_masses(mixture, want.support)
        assert trace.mixture_mass.tobytes() == masses.tobytes()

    def test_exact_run_does_not_regroup(self, monkeypatch):
        target = uniform_on(np.arange(8.0)[:, None])
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return row_groups(rows)

        monkeypatch.setattr(core, "row_groups", counting)
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.1), rounds=6, delta=0.25, seed=1
        )
        _, trace = run_exact(target, cfg)
        assert len(trace.rounds) == 6
        assert calls == []

    def test_zero_density_on_every_point_stops_the_round(self):
        # every sample lies outside the grid's box, where the histogram's
        # density is 0, so its masses on the samples cannot be normalized
        points = np.random.default_rng(2).uniform(5.0, 6.0, (50, 1))
        cfg = BoostConfig(
            generator=HistogramGenerator(grid=GridSpec([0.0], [1.0], 4)),
            rounds=2,
            delta=0.25,
            disc_sample_size=64,
        )
        with pytest.raises(BoostRunError, match="round 1: generator fit failed"):
            run_empirical(points, cfg)


class TestMixture:
    def test_pdf_single_member_identity(self):
        gen = KdeGenerator(bandwidth=0.5).fit(uniform_on([[0.0], [2.0]]))
        mix = GeneratorMixture((gen,))
        xs = np.linspace(-3, 5, 50)[:, None]
        assert np.array_equal(mixture_pdf(mix, xs), gen.pdf(xs))

    def test_pdf_arithmetic_mean(self):
        grid = GridSpec([0.0], [1.0], 2)
        g1 = HistogramGenerator(grid=grid, alpha=0.0).fit(uniform_on([[0.1]]))
        g2 = HistogramGenerator(grid=grid, alpha=0.0).fit(uniform_on([[0.9]]))
        mix = GeneratorMixture((g1, g2))
        # members give densities 2.0 and 0.0 at x = 0.1
        assert mixture_pdf(mix, [[0.1]])[0] == pytest.approx(1.0)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(0, 1, (200, 1))
        train = uniform_on(pts)
        mix = GeneratorMixture(
            (
                KdeGenerator(bandwidth=0.2).fit(train),
                HistogramGenerator(grid=GridSpec([-8.0], [8.0], 64)).fit(train),
                GmmGenerator(k=2).fit(train, seed=0),
            )
        )
        xs = np.linspace(-10, 10, 8001)
        integral = np.trapezoid(mixture_pdf(mix, xs[:, None]), xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _histogram_mixture(points, rounds):
        # members fit to different random subsets, so their masses differ
        grid = GridSpec([0.0, 0.0], [1.0, 1.0], 16)
        rng = np.random.default_rng(8)
        return GeneratorMixture(
            tuple(
                HistogramGenerator(grid=grid).fit(
                    uniform_on(points[rng.choice(len(points), 64)])
                )
                for _ in range(rounds)
            )
        )

    def test_running_means_bit_identical_to_list_means(self):
        points = np.random.default_rng(7).random((5000, 2))
        mix = self._histogram_mixture(points, 25)
        masses = [gen.support_masses(points) for gen in mix.generators]
        assert np.array_equal(mixture_support_masses(mix, points), sum(masses) / len(masses))
        pdfs = [gen.pdf(points) for gen in mix.generators]
        assert np.array_equal(mixture_pdf(mix, points), sum(pdfs) / len(pdfs))

    def test_support_masses_peak_memory_flat_in_rounds(self):
        # the running sum holds one (n,) partial sum beside the member being
        # evaluated; a list of every member's masses would hold 25 of them
        n = 100_000
        points = np.random.default_rng(7).random((n, 2))
        peaks = {}
        for rounds in (1, 25):
            mix = self._histogram_mixture(points, rounds)
            tracemalloc.start()
            try:
                mixture_support_masses(mix, points)
                peaks[rounds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[25] <= peaks[1] + 3 * 8 * n

    def test_sampling_balance(self):
        a = AdversarialCoverageGenerator(gamma=0.0, victim=[0]).fit(
            DiscreteDistribution([[0.0]], [1.0])
        )
        b = AdversarialCoverageGenerator(gamma=0.0, victim=[0]).fit(
            DiscreteDistribution([[1.0]], [1.0])
        )
        samples = mixture_sample(GeneratorMixture((a, b)), 100000, seed=0)
        frac_a = float((samples[:, 0] == 0.0).mean())
        assert frac_a == pytest.approx(0.5, abs=0.01)

    def test_sampling_empty_and_deterministic(self):
        gen = KdeGenerator(bandwidth=0.5).fit(uniform_on([[0.0], [1.0]]))
        mix = GeneratorMixture((gen, gen))
        assert mixture_sample(mix, 0, seed=1).shape[0] == 0
        assert np.array_equal(
            mixture_sample(mix, 57, seed=2), mixture_sample(mix, 57, seed=2)
        )


class TestDeterminism:
    def test_trace_csv_bit_identical(self):
        rng = np.random.default_rng(8)
        points = rng.normal(0, 2, (400, 2))
        grid = GridSpec([-8.0, -8.0], [8.0, 8.0], 16)

        def run_once():
            cfg = BoostConfig(
                generator=HistogramGenerator(grid=grid),
                rounds=4,
                delta=0.25,
                seed=123,
                disc_sample_size=400,
            )
            _, trace = run_empirical(points, cfg)
            return trace.to_csv()

        assert run_once() == run_once()

    def test_earlier_rounds_unchanged_by_larger_t(self):
        rng = np.random.default_rng(9)
        points = rng.normal(0, 2, (300, 1))
        grid = GridSpec([-9.0], [9.0], 16)

        def flags_upto(rounds):
            cfg = BoostConfig(
                generator=HistogramGenerator(grid=grid),
                rounds=rounds,
                delta=0.25,
                seed=77,
                disc_sample_size=300,
            )
            _, trace = run_empirical(points, cfg)
            return [r.doubled.tolist() for r in trace.rounds]

        assert flags_upto(2) == flags_upto(5)[:2]

    def test_round_seed_stability(self):
        a = np.random.default_rng(round_rng_seed(5, 3, "fit")).integers(0, 1 << 30, 4)
        b = np.random.default_rng(round_rng_seed(5, 3, "fit")).integers(0, 1 << 30, 4)
        c = np.random.default_rng(round_rng_seed(5, 4, "fit")).integers(0, 1 << 30, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTraceCsvFormat:
    def test_header_and_columns(self):
        from modecover import minority_weight_ratio

        target = two_point_target()
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.1, victim=[1]),
            rounds=2,
            delta=0.25,
            seed=0,
        )
        _, trace = run_exact(target, cfg)
        lines = trace.to_csv().splitlines()
        assert lines[0] == (
            "round,log2_W,n_doubled,tv_gen_vs_pt,minority_ratio,"
            "epsilon_prime,lambda_min"
        )
        first = lines[1].split(",")
        assert first[0] == "1" and len(first) == 7
        assert first[4] == ""  # no minority column given
        assert first[5] == "" and first[6] == ""  # no diagnostics in exact mode

        shares = minority_weight_ratio(trace, [1])
        with_column = trace.to_csv(shares).splitlines()
        assert with_column[0] == lines[0]
        assert len(with_column) == len(lines) == 3
        for line, bare, share in zip(with_column[1:], lines[1:], shares):
            cells, bare_cells = line.split(","), bare.split(",")
            assert cells[4] == repr(float(share)) != ""
            assert cells[:4] + cells[5:] == bare_cells[:4] + bare_cells[5:]
        with pytest.raises(ValueError):
            trace.to_csv(shares[:1])  # one value per round


class TestTraceConsistency:
    def test_minority_column_matches_reconstruction(self):
        from modecover import minority_weight_ratio
        from modecover.core import double_weights, init_weights_exact, relative_weights

        rng = np.random.default_rng(10)
        target = DiscreteDistribution(
            np.arange(9.0)[:, None], rng.dirichlet(np.ones(9))
        )
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.2),
            rounds=10,
            delta=0.25,
            seed=6,
        )
        _, trace = run_exact(target, cfg)
        recomputed = minority_weight_ratio(trace, [0, 3])
        # the share the loop's own weights give, before each round's doubling
        lw = init_weights_exact(target)
        replayed = []
        for rec in trace.rounds:
            replayed.append(float(relative_weights(lw)[np.asarray([0, 3])].sum()))
            lw = double_weights(lw, rec.doubled)
        assert len(set(replayed)) > 1  # the share moves, so the replay is tested
        assert recomputed.tolist() == replayed

    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_totals_equal_a_replay_of_the_doublings(self, mode):
        # every recorded log2 W_t is log2_weight_sum of the replayed weights,
        # bit for bit, and W_1 is exactly 1 by construction
        from modecover.core import double_weights, log2_weight_sum

        rng = np.random.default_rng(13)
        if mode == "exact":
            target = DiscreteDistribution(
                np.arange(9.0)[:, None], rng.dirichlet(np.ones(9))
            )
            cfg = BoostConfig(
                generator=AdversarialCoverageGenerator(gamma=0.2), rounds=12, seed=2
            )
            _, trace = run_exact(target, cfg)
        else:
            cfg = BoostConfig(
                generator=HistogramGenerator(grid=GridSpec([-6.0], [6.0], 24)),
                rounds=4,
                seed=1,
            )
            _, trace = run_empirical(rng.normal(0, 1, (500, 1)), cfg)
        lw = trace.init_log2_weights
        replayed = [0.0]
        for rec in trace.rounds:
            lw = double_weights(lw, rec.doubled)
            replayed.append(log2_weight_sum(lw))
        recorded = [r.log2_total for r in trace.rounds] + [trace.final_log2_total]
        assert sum(r.n_doubled for r in trace.rounds) > 0
        assert recorded[0] == 0.0
        assert recorded == replayed

    def test_broken_doubling_breaks_the_invariant(self, monkeypatch):
        # a doubling that adds 2 more to one flagged log2 weight makes
        # log2 W_t+1 drift from log2 W_t + log2(1 + eps_t), and the run stops
        import modecover.boost as boost_mod
        from modecover.core import double_weights

        def broken(lw, flags):
            out = double_weights(lw, flags)
            out[np.flatnonzero(flags)[:1]] += 2.0
            return out

        monkeypatch.setattr(boost_mod, "double_weights", broken)
        rng = np.random.default_rng(14)
        target = DiscreteDistribution(np.arange(8.0)[:, None], rng.dirichlet(np.ones(8)))
        cfg = BoostConfig(generator=AdversarialCoverageGenerator(gamma=0.2), rounds=3)
        with pytest.raises(BoostRunError, match="log2 W_t\\+1") as err:
            run_exact(target, cfg)
        assert err.value.round_index == 1

    def test_total_weight_never_decreases(self):
        rng = np.random.default_rng(11)
        target = DiscreteDistribution(
            np.arange(7.0)[:, None], rng.dirichlet(np.ones(7))
        )
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=0.3),
            rounds=15,
            delta=0.3,
            seed=8,
        )
        _, trace = run_exact(target, cfg)
        totals = [r.log2_total for r in trace.rounds] + [trace.final_log2_total]
        assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_long_run_weight_state_stays_normalized():
    # two hundred rounds of doubling must not degrade the weight state
    from modecover import normalize

    rng = np.random.default_rng(12)
    target = DiscreteDistribution(np.arange(6.0)[:, None], rng.dirichlet(np.ones(6)))
    cfg = BoostConfig(
        generator=AdversarialCoverageGenerator(gamma=0.4),
        rounds=200,
        delta=0.4,
        seed=3,
    )
    _, trace = run_exact(target, cfg)
    lw = trace.init_log2_weights.copy()
    for rec in trace.rounds:
        lw = lw + rec.doubled
    u = np.exp2(lw - lw.max())
    assert (u / u.sum()).sum() == pytest.approx(1.0, abs=1e-9)
    assert trace.final_log2_total <= 200.0 + 1e-9
    totals = [r.log2_total for r in trace.rounds] + [trace.final_log2_total]
    assert all(b >= a for a, b in zip(totals, totals[1:]))
