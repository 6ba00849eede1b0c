import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modecover import (
    AdversarialCoverageGenerator,
    AnalyticDensity,
    ConfigurationError,
    ContractViolation,
    DiscreteDistribution,
    FitError,
    FixedFamilyGenerator,
    GmmGenerator,
    GridSpec,
    HistogramGenerator,
    KdeGenerator,
    adversarial_make,
    generator_from_config,
    make_rare_modes_instance,
    make_three_gauss_target,
    tv_discrete,
    uniform_on,
)
from modecover.boost import round_rng_seed
from modecover.core import group_points, init_weights_empirical, log_sum_exp, normalize, sqdist
from modecover.generators import (
    _posterior_mass,
    _remove_mass,
    greedy_uncover_region,
    kmeans_pp_centers,
    lloyd_iterations,
)
from modecover.synthdata import make_sine_dataset, make_spiral


def discretized(density, lo=-20.0, hi=20.0, n=4001):
    xs = np.linspace(lo, hi, n)[:, None]
    mass = density.pdf(xs)
    mass = mass / mass.sum()
    return DiscreteDistribution(xs, mass)


class TestHistogram:
    def test_single_bin_density(self):
        grid = GridSpec([0.0], [2.0], 4)  # bin width 0.5
        train = uniform_on([[0.1], [0.2], [0.3]])
        gen = HistogramGenerator(grid=grid, alpha=0.0).fit(train)
        assert gen.pdf([[0.25]])[0] == pytest.approx(2.0)
        assert gen.pdf([[1.9]])[0] == 0.0
        assert gen.pdf([[5.0]])[0] == 0.0

    def test_alpha_zero_reproduces_bin_masses(self):
        grid = GridSpec([0.0, 0.0], [1.0, 1.0], 8)
        rng = np.random.default_rng(0)
        train = uniform_on(rng.random((500, 2)))
        gen = HistogramGenerator(grid=grid, alpha=0.0).fit(train)
        assert np.allclose(gen.bin_mass, gen.bin_masses_of(train), atol=0)

    def test_bin_masses_bit_identical_to_add_at(self):
        # both add each cell's masses in index order, starting from +0.0
        grid = GridSpec([0.0, 0.0], [1.0, 1.0], 4)
        rng = np.random.default_rng(9)
        for _ in range(50):
            # many points per cell; the grid's upper half stays empty
            support = rng.random((40, 2)) * [1.0, 0.5]
            weights = np.exp(rng.uniform(-50.0, 50.0, 40))
            dist = DiscreteDistribution(support, weights / weights.sum())
            want = np.zeros(grid.n_cells)
            np.add.at(want, grid.locate(dist.support), dist.mass)
            assert (want == 0.0).any()
            got = HistogramGenerator(grid=grid).bin_masses_of(dist)
            assert got.tobytes() == want.tobytes()

    def test_pdf_bit_identical_to_all_axes_formula(self):
        # inside means inside on every axis, faces included
        grid = GridSpec([0.0, -1.0, 2.0], [1.0, 1.0, 3.0], 5)
        rng = np.random.default_rng(4)
        train = rng.uniform(0.0, 1.0, (60, 3)) * [1.0, 2.0, 1.0] + [0.0, -1.0, 2.0]
        gen = HistogramGenerator(grid=grid).fit(uniform_on(train))
        pts = rng.uniform(-0.5, 3.5, (3000, 3))
        pts[:300] = np.where(rng.random((300, 3)) < 0.5, grid.lo, grid.hi)
        inside = np.all((pts >= grid.lo) & (pts <= grid.hi), axis=1)
        want = np.zeros(len(pts))
        want[inside] = gen.bin_mass[grid.locate(pts[inside])] / grid.cell_volume
        assert 0 < inside.sum() < len(pts)
        assert gen.pdf(pts).tobytes() == want.tobytes()
        with pytest.raises(ValueError):  # points of another dimension
            gen.pdf(pts[:, :2])

    def test_alpha_floor(self):
        grid = GridSpec([0.0], [1.0], 10)
        train = uniform_on([[0.05]])
        gen = HistogramGenerator(grid=grid, alpha=1e-3).fit(train)
        assert gen.bin_mass.min() >= 1e-3 / 10
        assert gen.bin_mass.sum() == pytest.approx(1.0, abs=1e-12)
        # min density >= alpha / domain volume
        assert gen.pdf([[0.95]])[0] >= 1e-3 / 1.0

    def test_pdf_integrates_to_one(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 16)
        rng = np.random.default_rng(1)
        gen = HistogramGenerator(grid=grid, alpha=1e-9).fit(
            uniform_on(rng.uniform(-1, 1, (200, 2)))
        )
        assert gen.bin_mass.sum() * 1.0 == pytest.approx(1.0, abs=1e-9)

    def test_sampling_stays_in_nonzero_bins(self):
        grid = GridSpec([0.0], [4.0], 4)
        gen = HistogramGenerator(grid=grid, alpha=0.0).fit(uniform_on([[2.5]]))
        samples = gen.sample(200, seed=0)
        assert np.all((samples >= 2.0) & (samples < 3.0))
        assert len(gen.sample(0, seed=0)) == 0


class TestGmm:
    def test_single_component_moment_match(self):
        # K=1 EM equals weighted moment matching; on the discretized
        # three-mode target: mean 0, second moment 0.9*1 + 0.1*101 = 11
        train = discretized(make_three_gauss_target())
        gen = GmmGenerator(k=1, restarts=1).fit(train, seed=0)
        mean = float(np.dot(train.mass, train.support[:, 0]))
        var = float(np.dot(train.mass, (train.support[:, 0] - mean) ** 2))
        assert var == pytest.approx(11.0, abs=0.05)
        assert gen.fitted.means[0, 0] == pytest.approx(mean, abs=1e-9)
        assert gen.fitted.variances[0, 0] == pytest.approx(var, rel=1e-6)

    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(3)
        pts = np.concatenate(
            [rng.normal(-2, 0.5, (150, 1)), rng.normal(3, 1.0, (150, 1))]
        )
        gen = GmmGenerator(k=2).fit(uniform_on(pts), seed=1)
        path = np.asarray(gen.loglik_path)
        assert np.all(np.diff(path) >= -1e-8)

    def test_recovers_separated_modes(self):
        rng = np.random.default_rng(4)
        pts = np.concatenate(
            [rng.normal(-5, 1, (300, 2)), rng.normal(5, 1, (300, 2))]
        )
        gen = GmmGenerator(k=2).fit(uniform_on(pts), seed=2)
        means = np.sort(gen.fitted.means[:, 0])
        assert means[0] == pytest.approx(-5.0, abs=0.3)
        assert means[1] == pytest.approx(5.0, abs=0.3)

    def test_variance_floor(self):
        train = uniform_on([[0.0], [0.0 + 1e-12], [5.0]])
        gen = GmmGenerator(k=2, var_floor=1e-6).fit(train, seed=0)
        assert np.all(gen.fitted.variances >= 1e-6)

    @pytest.mark.parametrize("var_floor", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_variance_floor(self, var_floor):
        # a collapsed cluster would otherwise give a zero-variance component
        with pytest.raises(ConfigurationError, match="var_floor"):
            GmmGenerator(k=3, var_floor=var_floor)

    def test_k_exceeding_distinct_points(self):
        with pytest.raises(FitError):
            GmmGenerator(k=5).fit(uniform_on([[0.0], [1.0]]), seed=0)

    def test_sampling_mean(self):
        gen = GmmGenerator(k=1, restarts=1).fit(
            discretized(AnalyticDensity([1.0], [[0.0]], [[1.0]]), -8, 8, 2001), seed=0
        )
        xs = gen.sample(100000, seed=5)
        assert abs(xs.mean()) < 0.02

    @staticmethod
    def previous_fit(gen, train, seed, tol=1e-8):
        # the EM loop with its E-step written twice, kept as the reference
        pts, w = train.support, train.mass

        def log_component_pdf(pi, mu, var):
            z2 = sqdist(pts, mu, var)
            lognorm = 0.5 * np.sum(np.log(2.0 * np.pi * var), axis=1)
            return np.log(pi)[None, :] - 0.5 * z2 - lognorm[None, :]

        rng = np.random.default_rng(seed)
        best = None
        for _ in range(max(1, gen.restarts)):
            n, d = pts.shape
            centers = kmeans_pp_centers(pts, w, gen.k, rng)
            centers = lloyd_iterations(pts, w, centers.copy(), iters=5)
            global_var = np.average(
                (pts - np.average(pts, axis=0, weights=w)) ** 2, axis=0, weights=w
            )
            var = np.tile(np.maximum(global_var, gen.var_floor), (gen.k, 1))
            pi = np.full(gen.k, 1.0 / gen.k)
            mu = centers
            path = []
            for _ in range(gen.max_iter):
                log_resp = log_component_pdf(pi, mu, var)
                m = log_resp.max(axis=1, keepdims=True)
                norm = m[:, 0] + np.log(np.sum(np.exp(log_resp - m), axis=1))
                path.append(float(np.dot(w, norm)))
                resp = np.exp(log_resp - norm[:, None])
                wr = resp * w[:, None]
                nk = wr.sum(axis=0)
                live = nk > 1e-12
                pi = np.where(live, nk, 1e-12)
                pi = pi / pi.sum()
                for j in range(gen.k):
                    if not live[j]:
                        mu[j] = pts[rng.choice(n, p=w / w.sum())]
                        var[j] = np.maximum(global_var, gen.var_floor)
                        continue
                    mu[j] = wr[:, j] @ pts / nk[j]
                    var[j] = np.maximum(wr[:, j] @ (pts - mu[j]) ** 2 / nk[j], gen.var_floor)
                if len(path) > 1 and abs(path[-1] - path[-2]) < tol * (1.0 + abs(path[-2])):
                    break
            model = AnalyticDensity(pi.copy(), mu.copy(), var.copy())
            log_resp = log_component_pdf(pi, mu, var)
            m = log_resp.max(axis=1, keepdims=True)
            norm = m[:, 0] + np.log(np.sum(np.exp(log_resp - m), axis=1))
            path.append(float(np.dot(w, norm)))
            if best is None or path[-1] > best[1][-1]:
                best = (model, path)
        return best

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "k, max_iter, restarts, stop",
        [
            (2, 0, 1, "max_iter"),
            (2, 1, 2, "max_iter"),
            (2, 4, 3, "max_iter"),
            (3, 100, 1, "max_iter"),
            (2, 100, 2, "converged"),
        ],
    )
    def test_fit_bit_identical_to_previous_loop(self, d, k, max_iter, restarts, stop):
        rng = np.random.default_rng(20 + d)
        pts = np.concatenate(
            [rng.normal(-3.0, 0.5, (120, d)), rng.normal(2.0, 1.0, (180, d))]
        )
        train = DiscreteDistribution(pts, rng.dirichlet(np.ones(len(pts))))
        gen = GmmGenerator(k=k, max_iter=max_iter, restarts=restarts).fit(train, seed=d)
        model, path = self.previous_fit(gen, train, seed=d)
        assert gen.loglik_path == tuple(path)
        for attr in ("weights", "means", "variances"):
            assert np.array_equal(getattr(gen.fitted, attr), getattr(model, attr))
        if stop == "max_iter":
            assert len(path) == max_iter + 1
        else:
            assert len(path) < max_iter + 1

    @pytest.mark.parametrize("recipe", ["sine", "spiral"])
    def test_fit_bit_identical_on_recipe_training_sets(self, recipe):
        # the first round's training set of the `repro sine` baseline (k = 5,
        # about 25,400 distinct points) and of a spiral run (k = 12)
        if recipe == "sine":
            points, _ = make_sine_dataset(
                40000, ratio=400, minor_center=(0.0, 10.0), minor_var=1.0, seed=11
            )
            k, seed = 5, 11
        else:
            points, k, seed = make_spiral(2000, seed=5)[0], 12, 5
        p0 = normalize(*group_points(points), init_weights_empirical(points))
        train = p0.resample(len(points), round_rng_seed(seed, 0, "resample"))
        fit_seed = round_rng_seed(seed, 0, "fit")
        gen = GmmGenerator(k=k).fit(train, fit_seed)
        model, path = self.previous_fit(gen, train, fit_seed)
        assert len(path) > 20
        assert gen.loglik_path == tuple(path)
        for attr in ("weights", "means", "variances"):
            assert np.array_equal(getattr(gen.fitted, attr), getattr(model, attr))


def point_major_e_step(model, pts, w):
    """The E-step's (n, k) formulas, kept as the reference: log w_k + log
    N_k(x_i), the log density, the responsibilities, the posterior mass and
    its per-component totals. The d scaled squared differences are added
    left to right, as `sqdist` adds them."""
    terms = (pts[:, None, :] - model.means[None, :, :]) ** 2 / model.variances
    z2 = terms[:, :, 0].copy()
    for j in range(1, terms.shape[2]):
        z2 += terms[:, :, j]
    lognorm = 0.5 * np.sum(np.log(2.0 * np.pi * model.variances), axis=1)
    log_resp = np.log(model.weights)[None, :] - 0.5 * z2 - lognorm[None, :]
    m = log_resp.max(axis=1, keepdims=True)
    norm = m[:, 0] + np.log(np.sum(np.exp(log_resp - m), axis=1))
    resp = np.exp(log_resp - norm[:, None])
    wr = resp * w[:, None]
    return log_resp, norm, resp, wr, wr.sum(axis=0)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def e_step_instance(k, d, n, spread, floored, seed):
    """A mixture whose means are `spread` apart, and weighted points, some
    near a mean and some far from all of them; one weight is floored at
    1e-12, as the M-step floors a dead component, when `floored` is set.
    Overlapping components make every term of a row's sum count; far ones
    give exp arguments below -750."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, (k, d))
    variances = rng.uniform(0.05, 2.0, (k, d))
    near = means[rng.integers(k, size=n)] + rng.standard_normal((n, d))
    pts = np.where(rng.random((n, 1)) < 0.7, near, rng.normal(0.0, 300.0, (n, d)))
    weights = rng.dirichlet(np.ones(k))
    if floored:
        weights[rng.integers(k)] = 1e-12
        weights /= weights.sum()
    return AnalyticDensity(weights, means, variances), pts, rng.dirichlet(np.ones(n))


class TestComponentMajorEStep:
    def test_instance_reaches_the_exp_underflow_band(self):
        model, pts, w = e_step_instance(5, 2, 40, 30.0, True, seed=0)
        log_resp = point_major_e_step(model, pts, w)[0]
        assert (log_resp - log_resp.max(axis=1, keepdims=True)).min() < -750.0
        assert model.weights.min() < 1e-11

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 20),
        d=st.integers(1, 9),
        n=st.integers(1, 60),
        spread=st.sampled_from([1.0, 30.0]),
        floored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_point_major(self, k, d, n, spread, floored, seed):
        # k < 8 and k >= 8 take different sums in `log_sum_exp`
        model, pts, w = e_step_instance(k, d, n, spread, floored, seed)
        log_resp, norm, resp, wr, nk = point_major_e_step(model, pts, w)
        buf = np.empty((k, n))
        assert model.log_components(pts, out=buf.T).base is buf
        assert_same_bits(buf.T, log_resp)
        assert_same_bits(model.log_components(pts), log_resp)
        assert_same_bits(log_sum_exp(buf.T), norm)
        assert_same_bits(log_sum_exp(np.ascontiguousarray(buf.T)), norm)
        got_wr = np.empty((n, k))
        got_nk = _posterior_mass(buf, norm, w, got_wr)
        assert_same_bits(buf.T, resp)
        assert_same_bits(got_wr, wr)
        assert_same_bits(got_nk, nk)


class TestKde:
    def test_pdf_at_single_center(self):
        gen = KdeGenerator(bandwidth=0.1).fit(uniform_on([[0.0]]))
        assert gen.pdf([[0.0]])[0] == pytest.approx(1.0 / (0.1 * math.sqrt(2 * math.pi)))
        assert gen.pdf([[0.0]])[0] == pytest.approx(3.98942, abs=1e-5)

    def test_pdf_integrates_to_one(self):
        gen = KdeGenerator(bandwidth=0.3).fit(uniform_on([[-1.0], [0.5], [2.0]]))
        xs = np.linspace(-6, 7, 4001)
        assert np.trapezoid(gen.pdf(xs[:, None]), xs) == pytest.approx(1.0, abs=1e-6)

    def test_sampling_jitter_scale(self):
        gen = KdeGenerator(bandwidth=0.1).fit(uniform_on([[0.0]]))
        xs = gen.sample(20000, seed=0)
        assert xs.std() == pytest.approx(0.1, abs=0.005)

    @staticmethod
    def weighted_train(d, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 2.0, (40, d))
        return DiscreteDistribution(pts, rng.dirichlet(np.ones(len(pts))))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bandwidth", [0.1, 0.3, 1.7])
    def test_sample_bit_identical_to_previous_formula(self, bandwidth, d):
        train = self.weighted_train(d, seed=d)
        xs = KdeGenerator(bandwidth).fit(train).sample(500, seed=7)
        # the sampler before KDE went through AnalyticDensity
        rng = np.random.default_rng(7)
        idx = rng.choice(train.size, size=500, p=train.mass)
        noise = rng.standard_normal((500, d))
        assert np.array_equal(xs, train.support[idx] + bandwidth * noise)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bandwidth", [0.1, 0.3, 1.7])
    def test_pdf_matches_previous_formula(self, bandwidth, d):
        train = self.weighted_train(d, seed=10 + d)
        gen = KdeGenerator(bandwidth).fit(train)
        x = np.random.default_rng(d).normal(0.0, 3.0, (300, d))
        # the pdf before KDE went through AnalyticDensity
        lognorm = d * (0.5 * math.log(2.0 * math.pi) + math.log(bandwidth))
        z2 = sqdist(x, train.support) / (2.0 * bandwidth**2)
        expected = np.exp(-z2 - lognorm) @ train.mass
        np.testing.assert_allclose(gen.pdf(x), expected, rtol=1e-12, atol=0)
        assert KdeGenerator(bandwidth).to_config() == {"kind": "kde", "bandwidth": bandwidth}
        assert gen.to_config() == {
            "kind": "kde",
            "bandwidth": bandwidth,
            "centers": train.support.tolist(),
            "center_mass": train.mass.tolist(),
        }


class TestFixedFamily:
    def test_selects_center_candidate(self):
        target, center, spread = make_rare_modes_instance()
        gen = FixedFamilyGenerator(candidates=(center, spread)).fit(
            discretized(target)
        )
        assert gen.selected == 0

    def test_center_candidate_tail_density(self):
        _, center, _ = make_rare_modes_instance()
        gen = FixedFamilyGenerator(candidates=(center,)).fit(
            discretized(center, -5, 5, 101)
        )
        phi10 = math.exp(-50.0) / math.sqrt(2 * math.pi)
        assert gen.pdf([[10.0]])[0] == pytest.approx(phi10, rel=1e-12)
        assert phi10 == pytest.approx(7.69e-23, rel=1e-3)

    def test_exact_member_selected(self):
        target, center, spread = make_rare_modes_instance()
        gen = FixedFamilyGenerator(candidates=(center, target, spread)).fit(
            discretized(target)
        )
        assert gen.selected == 1


class TestAdversarialMake:
    def test_zero_budget_identity(self):
        mass = np.array([0.5, 0.5])
        out, tv = adversarial_make(mass, 0.0, [1])
        assert tv == 0.0
        assert np.array_equal(out, mass)

    def test_hand_construction(self):
        base = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
        out, tv = adversarial_make(base.mass, 0.25, [1])
        assert tv == pytest.approx(0.25, abs=0)
        assert out[0] == pytest.approx(0.75, rel=1e-12)
        assert out[1] == pytest.approx(0.25, rel=1e-12)
        assert tv_discrete(base.with_mass(out), base) == pytest.approx(0.25, abs=1e-12)

    def test_full_region_wipe(self):
        out, tv = adversarial_make(np.array([5 / 7, 2 / 7]), 2 / 7, [1])
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == 0.0
        assert tv == pytest.approx(2 / 7, abs=0)

    def test_budget_reduced_to_region_mass(self):
        out, tv = adversarial_make(np.array([0.8, 0.15, 0.05]), 0.3, [2])
        assert tv == pytest.approx(0.05, abs=0)
        assert out[2] == 0.0

    def test_tv_budget_invariant(self):
        rng = np.random.default_rng(6)
        support = np.arange(12.0)[:, None]
        for _ in range(300):
            base = DiscreteDistribution(support, rng.dirichlet(np.ones(12)))
            gamma = float(rng.random()) * 0.9
            region = rng.choice(12, size=int(rng.integers(1, 11)), replace=False)
            out, tv = adversarial_make(base.mass, gamma, region)
            assert tv <= gamma + 1e-15
            assert tv_discrete(base.with_mass(out), base) == pytest.approx(tv, abs=1e-9)


def _reference_beta_after_removal(base_mass, target_mass, region, gamma, delta) -> float:
    mask = np.zeros(len(base_mass), dtype=bool)
    mask[region] = True
    g, _ = _remove_mass(base_mass, mask, float(base_mass[mask].sum()), gamma)
    covered = g >= delta * target_mass
    return float(base_mass[covered].sum())


def reference_uncover_region(base_mass, target_mass, gamma, delta) -> np.ndarray:
    """The former nested greedy sweep, kept as the reference: every prefix
    of both ratio orders short of the whole support, each scored on a mask
    of its own.
    It has no stop rule: it divides by zero at a prefix holding all the
    mass, and may pick one whose mass rounds above 1."""
    ratio = base_mass / np.maximum(target_mass, 1e-300)
    order_all = np.argsort(ratio, kind="stable")
    covered = ratio >= delta
    order_cov = order_all[covered[order_all]]
    best_region = order_all[:1]
    best_beta = np.inf
    for order in (order_all, order_cov):
        for k in range(1, len(order) + 1):
            region = order[:k]
            if len(region) == len(base_mass):
                break  # must leave a non-empty complement
            beta = _reference_beta_after_removal(base_mass, target_mass, region, gamma, delta)
            if beta < best_beta - 1e-15:
                best_beta = beta
                best_region = region
    return np.asarray(best_region, dtype=int)


MASS_ENTRY = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


class TestGreedyUncoverRegion:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 13).flatmap(
            lambda n: st.tuples(
                st.lists(MASS_ENTRY, min_size=n, max_size=n),
                st.lists(MASS_ENTRY, min_size=n, max_size=n),
            )
        ),
        st.floats(0.0, 1.0),
        st.floats(0.01, 0.99),
    )
    def test_same_region_as_reference(self, masses, gamma, delta):
        base, target = (np.array(m) for m in masses)
        assume(base.sum() > 0 and target.sum() > 0)
        base, target = base / base.sum(), target / target.sum()
        got = greedy_uncover_region(base, target, gamma, delta)
        try:  # the reference's fit: its region, then the attack on it
            want = reference_uncover_region(base, target, gamma, delta)
            adversarial_make(base, gamma, want)
        except (ZeroDivisionError, ContractViolation):
            # the reference scored, or picked, a prefix that leaves no mass
            # outside it; the sweep skips those, so its region can be attacked
            if len(base) > 1:
                adversarial_make(base, gamma, got)
            return
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_region_on_dirichlet_instances(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n = int(rng.integers(1, 14))
            base, target = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            gamma, delta = float(rng.random()), float(rng.uniform(0.01, 0.99))
            assert np.array_equal(
                greedy_uncover_region(base, target, gamma, delta),
                reference_uncover_region(base, target, gamma, delta),
            )


class TestAdversarialGenerator:
    def test_greedy_fit_respects_budget(self):
        rng = np.random.default_rng(7)
        support = np.arange(10.0)[:, None]
        target = DiscreteDistribution(support, rng.dirichlet(np.ones(10)))
        gen = AdversarialCoverageGenerator(gamma=0.1, target=target).fit(target)
        assert gen.achieved_tv <= 0.1 + 1e-15
        assert tv_discrete(gen.fitted_dist, target) == pytest.approx(
            gen.achieved_tv, abs=1e-9
        )

    def test_fixed_victim(self):
        base = DiscreteDistribution([[0.0], [1.0]], [5 / 7, 2 / 7])
        gen = AdversarialCoverageGenerator(gamma=2 / 7, victim=[1]).fit(base)
        assert gen.fitted_dist.mass[1] == 0.0
        assert gen.support_masses(base.support)[0] == pytest.approx(1.0)

    def test_sampling_from_perturbed(self):
        base = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
        gen = AdversarialCoverageGenerator(gamma=0.5, victim=[1]).fit(base)
        samples = gen.sample(100, seed=0)
        assert np.all(samples == 0.0)

    def test_greedy_fit_with_zero_mass_point(self):
        # the covered order's prefix {0, 1} holds all the mass, so the sweep
        # stops before it; no shorter prefix uncovers a point at this budget,
        # so the first, the zero-mass point, stays the region
        base = DiscreteDistribution([[0.0], [1.0], [2.0]], [0.5, 0.5, 0.0])
        gen = AdversarialCoverageGenerator(gamma=0.1).fit(base)
        assert gen.achieved_tv == 0.0
        assert np.array_equal(gen.fitted_dist.mass, base.mass)

    def test_binding_a_target_checks_victim_indices(self):
        target = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
        gen = AdversarialCoverageGenerator(victim=[0, 2])
        with pytest.raises(
            ConfigurationError, match="victim index 2 is outside the 2 support points"
        ):
            replace(gen, target=target)
        assert replace(gen, victim=[1], target=target).target is target


class TestLloyd:
    @staticmethod
    def index_order_mean(points, axis, weights):
        # the rows added in index order, over their count; `weights` are all one
        return np.cumsum(points, axis=axis)[-1] / len(points)

    @staticmethod
    def mean_loop(points, weights, centers, iters, mean=np.average):
        # the per-center step, kept as the reference: `mean(points[sel],
        # axis=0, weights=weights[sel])` for each center that owns weight
        for _ in range(iters):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            owner = np.argmin(d2, axis=1)
            for j in range(len(centers)):
                sel = owner == j
                if weights[sel].sum() > 0:
                    centers[j] = mean(points[sel], axis=0, weights=weights[sel])
        return centers

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("weighting", ["ones", "dirichlet"])
    def test_bit_identical_to_average_loop(self, d, weighting):
        # all-one weights take index-order means, which equal np.average's
        # from d = 2 on; other weights take np.average's
        rng = np.random.default_rng(10 * d + len(weighting))
        for _ in range(8):
            n = int(rng.integers(20, 600))
            points = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d)
            points[: n // 10] = points[n // 10 : 2 * (n // 10)]  # duplicate rows
            weights = np.ones(n) if weighting == "ones" else rng.dirichlet(np.ones(n))
            start = points[rng.choice(n, size=12, replace=False)]
            start[-1] = 1e6  # a center that owns no point stays put
            got = lloyd_iterations(points, weights, start.copy(), iters=6)
            if weighting == "ones":
                want = self.mean_loop(
                    points, weights, start.copy(), iters=6, mean=self.index_order_mean
                )
                assert np.array_equal(got, want)
            if weighting == "dirichlet" or d >= 2:
                want = self.mean_loop(points, weights, start.copy(), iters=6)
                assert np.array_equal(got, want)
            assert np.all(got[-1] == 1e6)


class TestSupportMassNormalization:
    @pytest.mark.parametrize("alpha", [0.0, 1e-9])
    def test_histogram_masses_sum_to_one(self, alpha):
        grid = GridSpec([-12.0], [12.0], 48)
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 3, (300, 1))
        gen = HistogramGenerator(grid=grid, alpha=alpha).fit(uniform_on(pts))
        masses = gen.support_masses(pts)
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_kde_and_gmm_masses(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 1, (120, 1))
        for gen in (
            KdeGenerator().fit(uniform_on(pts)),
            GmmGenerator(k=2).fit(uniform_on(pts), seed=0),
        ):
            masses = gen.support_masses(pts)
            assert masses.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(masses >= 0)


def test_generator_from_config_round_trip():
    points = np.linspace(0.0, 1.0, 9)[:, None]
    gen = generator_from_config({"kind": "histogram", "alpha": 0.5}, points)
    assert isinstance(gen, HistogramGenerator) and gen.alpha == 0.5
    gen = generator_from_config({"kind": "gmm", "k": 3}, points)
    assert isinstance(gen, GmmGenerator) and gen.k == 3
    gen = generator_from_config({"kind": "kde", "bandwidth": 0.2}, points)
    assert isinstance(gen, KdeGenerator)
    gen = generator_from_config({"kind": "adversarial", "gamma": 0.2}, points)
    assert isinstance(gen, AdversarialCoverageGenerator)
    with pytest.raises(Exception):
        generator_from_config({"kind": "nope"}, points)
