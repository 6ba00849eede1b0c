import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modecover import (
    AnalyticDensity,
    BoostConfig,
    ContractViolation,
    Discriminator,
    DiscriminatorSpec,
    FixedFamilyGenerator,
    empirical_cover_test,
    exact_discriminator,
    generator_from_config,
    init_weights_empirical,
    ratio_estimate,
    run_empirical,
    train_discriminator,
)
from modecover import core, discriminator
from modecover.core import _BLOCK_BYTES, relative_weights
from modecover.discriminator import _RBF_FLOOR
from modecover.synthdata import make_dataset

AFFINE = DiscriminatorSpec(feature_map="affine")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def predict_and_reference(feature_map, size):
    """`predict` on 1, `rows` or `rows + 1` points (`rows` is the feature
    block), and the same probabilities from the full feature matrix."""
    rng = np.random.default_rng(11)
    pos = rng.normal(1.0, 2.0, (600, 2))
    neg = rng.normal(-1.0, 2.0, (600, 2))
    spec = DiscriminatorSpec(feature_map=feature_map)
    disc = train_discriminator(pos, neg, spec, seed=4)
    rows = disc._blocks()[0]
    pts = rng.normal(0.0, 3.0, ({"one-row": 1, "rows": rows, "rows+1": rows + 1}[size], 2))
    logits = disc.features(pts) @ disc.weights
    want = np.clip(1.0 / (1.0 + np.exp(-logits)), spec.clamp, 1.0 - spec.clamp)
    return disc.predict(pts), want


def concatenated_features(disc, pts):
    """The one-shot feature formula, kept as the reference."""
    if disc.spec.feature_map == "rbf":
        d2 = ((pts[:, None, :] - disc.centers[None, :, :]) ** 2).sum(axis=2)
        phi = np.exp(-d2 / (2.0 * disc.scale**2))
        phi[phi < _RBF_FLOOR] = 0.0
    else:
        phi = (pts - disc.mean) / disc.std
    return np.concatenate([phi, np.ones((len(pts), 1))], axis=1)


def concatenate_case(feature_map):
    """A discriminator and 20,500 points, more than one `predict` block."""
    rng = np.random.default_rng(11)
    pos = rng.normal(1.0, 2.0, (600, 2))
    neg = rng.normal(-1.0, 2.0, (600, 2))
    disc = train_discriminator(pos, neg, DiscriminatorSpec(feature_map=feature_map), seed=4)
    return disc, rng.normal(0.0, 3.0, (20_500, 2))


def predict_and_concatenated(feature_map):
    """`predict` on `concatenate_case`, and the same probabilities from one
    product of the whole concatenated feature matrix."""
    disc, pts = concatenate_case(feature_map)
    logits = concatenated_features(disc, pts) @ disc.weights
    return disc.predict(pts), np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-6, 1.0 - 1e-6)


def blocked_and_one_shot(d):
    """`predict` on 3 blocks plus one row of d-dimensional points against 64
    centers, and the same probabilities from the full feature matrix."""
    rng = np.random.default_rng(d)
    disc = Discriminator(
        DiscriminatorSpec(), rng.standard_normal(65), rng.standard_normal((64, d)), 1.3, None, None
    )
    pts = rng.standard_normal((3 * disc._blocks()[0] + 1, d))
    want = np.clip(1.0 / (1.0 + np.exp(-(disc.features(pts) @ disc.weights))), 1e-6, 1.0 - 1e-6)
    return disc.predict(pts), want


def mismatches_with_one_blas_thread(call: str) -> str:
    """The count of unequal bit patterns in the (got, want) pair that `call`,
    a function of this module, returns in a process with one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    code = (
        "import numpy as np\n"
        "import test_discriminator as t\n"
        f"got, want = t.{call}\n"
        "print(int(np.count_nonzero(got.view(np.int64) != want.view(np.int64))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestTraining:
    def test_identical_samples_predict_half(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(200, 1))
        disc = train_discriminator(xs, xs, AFFINE, seed=1)
        preds = disc.predict(xs)
        assert np.all(np.abs(preds - 0.5) < 0.05)

    def test_separated_clusters(self):
        rng = np.random.default_rng(1)
        pos = rng.normal(10.0, 0.5, (300, 1))
        neg = rng.normal(-10.0, 0.5, (300, 1))
        disc = train_discriminator(pos, neg, AFFINE, seed=2)
        assert np.all(disc.predict(pos) > 0.95)
        assert np.all(disc.predict(neg) < 0.05)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(1.0, 1.0, (200, 2))
        neg = rng.normal(-1.0, 1.0, (200, 2))
        for spec in (AFFINE, DiscriminatorSpec(feature_map="rbf", n_centers=16)):
            disc = train_discriminator(pos, neg, spec, seed=3)
            losses = np.asarray(disc.loss_path)
            assert np.all(np.diff(losses) <= 1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(1, 1, (100, 2))
        neg = rng.normal(-1, 1, (100, 2))
        d1 = train_discriminator(pos, neg, seed=7)
        d2 = train_discriminator(pos, neg, seed=7)
        assert np.array_equal(d1.weights, d2.weights)

    def test_two_point_ideal_limit(self):
        # empirical mix of 5:7 at one point vs all collapsed mass: the
        # optimum predicts 5/12 there and ~1 on the unmatched point
        rng = np.random.default_rng(4)
        n = 10000
        pos = np.where(rng.random((n, 1)) < 5 / 7, 0.0, 1.0)
        neg = np.zeros((n, 1))
        disc = train_discriminator(pos, neg, AFFINE, seed=5)
        d_a = disc.predict([[0.0]])[0]
        d_b = disc.predict([[1.0]])[0]
        assert d_a == pytest.approx(5 / 12, abs=0.02)
        assert d_b > 0.99

    def test_accuracy_improves_with_samples(self):
        # mean deviation from the ideal response shrinks as samples grow
        rng = np.random.default_rng(5)
        ideal = {0.0: 5 / 12, 1.0: 1.0}
        errs = []
        for n in (1000, 10000):
            pos = np.where(rng.random((n, 1)) < 5 / 7, 0.0, 1.0)
            neg = np.zeros((n, 1))
            disc = train_discriminator(pos, neg, AFFINE, seed=6)
            preds = disc.predict([[0.0], [1.0]])
            errs.append(np.mean([abs(preds[0] - 5 / 12), abs(preds[1] - 1.0)]))
        assert errs[1] < errs[0]


class TestFeatures:
    @pytest.mark.parametrize("feature_map", ["rbf", "affine"])
    def test_bit_identical_to_concatenate(self, feature_map):
        disc, pts = concatenate_case(feature_map)
        if feature_map == "rbf":  # more than one row block
            assert len(pts) > disc._blocks()[0]
        assert np.array_equal(disc.features(pts), concatenated_features(disc, pts))
        # one product against blocked ones: with more than one BLAS thread a
        # row's logit can depend on how the library splits the rows, so the
        # comparison runs with one BLAS thread
        assert mismatches_with_one_blas_thread(f"predict_and_concatenated({feature_map!r})") == "0"

    def test_no_subnormal_or_sub_floor_feature(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(1.0, 2.0, (600, 2))
        neg = rng.normal(-1.0, 2.0, (600, 2))
        disc = train_discriminator(pos, neg, seed=4)
        pts = rng.normal(0.0, 3.0, (20_500, 2))
        d2 = ((pts[:, None, :] - disc.centers[None, :, :]) ** 2).sum(axis=2)
        raw = np.exp(-d2 / (2.0 * disc.scale**2))
        # the instance reaches the subnormal band and the band below the floor
        assert np.any((raw > 0) & (raw < np.finfo(float).tiny))
        assert np.any((raw >= np.finfo(float).tiny) & (raw < _RBF_FLOOR))
        phi = disc.features(pts)
        assert not np.any((phi > 0) & (phi < _RBF_FLOOR))

    def test_peak_memory_is_output_plus_one_block(self):
        rng = np.random.default_rng(12)
        centers = rng.standard_normal((64, 2))
        disc = Discriminator(DiscriminatorSpec(), np.zeros(65), centers, 1.0, None, None)
        pts = rng.standard_normal((200_000, 2))
        tracemalloc.start()
        try:
            phi = disc.features(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < phi.nbytes + _BLOCK_BYTES + 2**20

    def test_predict_peak_memory_is_logits_plus_one_block(self):
        rng = np.random.default_rng(12)
        centers = rng.standard_normal((64, 2))
        disc = Discriminator(
            DiscriminatorSpec(), rng.standard_normal(65), centers, 1.0, None, None
        )
        pts = rng.standard_normal((200_000, 2))
        block = (_BLOCK_BYTES // (8 * centers.size)) * 65 * 8
        tracemalloc.start()
        try:
            probs = disc.predict(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < probs.nbytes + block + _BLOCK_BYTES + 2**20
        assert peak < len(pts) * 65 * 8  # the (n, K + 1) matrix

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_block_budget_bounds_predict_blocks(self, monkeypatch, d):
        rng = np.random.default_rng(13)
        centers = rng.standard_normal((64, d))
        disc = Discriminator(
            DiscriminatorSpec(), rng.standard_normal(65), centers, 1.0, None, None
        )
        pts = rng.standard_normal((5_000, d))
        budget = core._BLOCK_BYTES
        rows = []
        fill = Discriminator._fill

        def recording(self, block_pts, out, scratch):
            rows.append(len(out))
            fill(self, block_pts, out, scratch)

        monkeypatch.setattr(Discriminator, "_fill", recording)
        disc.predict(pts)
        monkeypatch.setattr(Discriminator, "_fill", fill)
        assert sum(rows) == len(pts) and len(rows) > 1
        assert max(rows) * 8 * centers.size <= budget
        # memory: the probabilities, one (rows, 65) block, the (rows, 64)
        # float and bool scratch pair `_fill` works in and `sqdist`'s column
        # scratch
        tracemalloc.start()
        try:
            probs = disc.predict(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < probs.nbytes + 4 * budget

    @pytest.mark.parametrize("feature_map", ["rbf", "affine"])
    @pytest.mark.parametrize("size", ["one-row", "rows"])
    def test_predict_bitwise_within_one_block(self, feature_map, size):
        got, want = predict_and_reference(feature_map, size)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("feature_map", ["rbf", "affine"])
    def test_predict_bitwise_across_a_block_edge(self, feature_map):
        # Across the edge the reference is one (rows + 1)-row product and
        # predict makes two. With more than one BLAS thread a row's dot
        # product can depend on how the library splits the rows among the
        # threads (1 ulp in one logit of 16,385 with 2 OpenBLAS threads), so
        # the comparison runs in a process with one BLAS thread.
        call = f"predict_and_reference({feature_map!r}, 'rows+1')"
        assert mismatches_with_one_blas_thread(call) == "0"

    @pytest.mark.parametrize("d", [3, 5])
    def test_predict_bitwise_with_unaligned_budget_rows(self, d):
        # The budget gives 170 and 102 rows here, which the BLAS kernel's
        # grouping of rows does not divide; the blocks are rounded down to
        # a multiple of `_ROW_ALIGN` rows, so that with one BLAS thread the
        # blocked logits still equal those of one product over all rows
        assert _BLOCK_BYTES // (8 * 64 * d) % discriminator._ROW_ALIGN
        assert mismatches_with_one_blas_thread(f"blocked_and_one_shot({d})") == "0"

    def test_one_budget_sizes_sqdist_and_feature_blocks(self, monkeypatch):
        centers = np.zeros((64, 2))
        disc = Discriminator(DiscriminatorSpec(), np.zeros(65), centers, 1.0, None, None)
        assert disc._blocks() == (256, 65) and core.block_rows(centers) == 256
        # patching the budget in `core` moves both; 100 rows round down to 96
        monkeypatch.setattr(core, "_BLOCK_BYTES", 100 * 8 * 64 * 2)
        assert disc._blocks() == (96, 65) and core.block_rows(centers) == 100

    def test_run_with_small_blocks_keeps_every_decision(self, monkeypatch):
        points = make_dataset("spiral", seed=5, n=2000).points
        cfg = BoostConfig(
            generator=generator_from_config({"kind": "gmm", "k": 6}, points),
            rounds=4,
            seed=5,
            disc_sample_size=1024,
        )
        _, default = run_empirical(points, cfg)
        # 100-row blocks against 64 two-dimensional centers, in `sqdist` and
        # in the classifier's feature blocks alike
        monkeypatch.setattr(core, "_BLOCK_BYTES", 100 * 8 * 64 * 2)
        _, blocked = run_empirical(points, cfg)
        assert any(0 < r.n_doubled < len(points) for r in default.rounds)
        for a, b in zip(default.rounds, blocked.rounds, strict=True):
            assert np.array_equal(a.doubled, b.doubled)
            assert a.log2_total == b.log2_total
        assert default.final_log2_total == blocked.final_log2_total


class TestRatioEstimate:
    def test_half_gives_one(self):
        disc = exact_discriminator([0.5], [0.5], [[0.0]])
        assert ratio_estimate(disc, [[0.0]])[0] == pytest.approx(1.0)

    def test_five_twelfths(self):
        disc = exact_discriminator([5 / 7], [1.0], [[0.0]])
        assert ratio_estimate(disc, [[0.0]])[0] == pytest.approx(1.4, rel=1e-9)

    def test_clamp_arithmetic(self):
        disc = exact_discriminator([1.0], [0.0], [[0.0]], clamp=1e-6)
        ratio = ratio_estimate(disc, [[0.0]])[0]
        assert ratio == pytest.approx(1e-6 / (1 - 1e-6), rel=1e-9)


class TestEmpiricalCoverTest:
    def test_worked_two_point_flags(self):
        points = np.array([[0.0]] * 5 + [[1.0]] * 2)
        lw = init_weights_empirical(points)
        disc = exact_discriminator([5 / 7, 2 / 7], [1.0, 0.0], [[0.0], [1.0]])
        flags = empirical_cover_test(disc, points, lw, delta=0.25)
        assert flags.tolist() == [False] * 5 + [True] * 2
        # the covered samples sit at 1.4 * (1/7) = 0.2 >= 0.25/7
        ratios = ratio_estimate(disc, np.array([[0.0]]))
        assert ratios[0] * (1 / 7) == pytest.approx(0.2, rel=1e-9)

    def test_uninformative_discriminator_never_doubles(self):
        points = np.arange(20.0)[:, None]
        lw = init_weights_empirical(points)
        disc = exact_discriminator(
            np.full(20, 0.05), np.full(20, 0.05), points
        )
        for delta in (0.1, 0.5, 0.99):
            assert not empirical_cover_test(disc, points, lw, delta).any()

    def test_zero_ratio_doubles_everything(self):
        points = np.arange(5.0)[:, None]
        lw = init_weights_empirical(points)
        disc = exact_discriminator(np.ones(5), np.zeros(5), points)
        assert empirical_cover_test(disc, points, lw, delta=0.25).all()

    def test_threshold_equality_not_doubled(self):
        # ratio * w/W exactly delta/n stays unchanged (strict inequality)
        points = np.array([[0.0], [1.0]])
        lw = init_weights_empirical(points)
        disc = exact_discriminator([0.5, 0.5], [0.5, 0.5], points)  # ratio 1
        flags = empirical_cover_test(disc, points, lw, delta=1.0)
        assert not flags.any()

    def test_weight_shape_mismatch(self):
        points = np.arange(3.0)[:, None]
        disc = exact_discriminator(np.full(3, 1 / 3), np.full(3, 1 / 3), points)
        for lw in (np.zeros(1), np.zeros(4), [0.0, 0.0]):
            with pytest.raises(ContractViolation):
                empirical_cover_test(disc, points, lw, delta=0.25)


def one_round_record(points, candidate, disc, p_vals):
    """The trace record of one `run_empirical` round whose classifier is
    `disc`; a single-candidate family keeps g independent of the resample."""
    cfg = BoostConfig(
        generator=FixedFamilyGenerator(candidates=(candidate,)), rounds=1, delta=0.25
    )
    _, trace = run_empirical(
        points, cfg, exact_target_pdf=p_vals, discriminator_factory=lambda *_: disc
    )
    return trace.rounds[0]


class TestDiagnostics:
    def test_perfect_discriminator(self):
        points = np.array([[0.0]] * 5 + [[1.0]] * 2)
        p_vals = np.array([5 / 7] * 5 + [2 / 7] * 2)
        g = AnalyticDensity([1.0], [[0.0]], [[0.01]])  # covers 0, not 1
        disc = exact_discriminator([5 / 7, 2 / 7], [1.0, 0.0], [[0.0], [1.0]])
        rec = one_round_record(points, g, disc, p_vals)
        assert rec.epsilon_prime == 0.0
        assert rec.lambda_min == 1.0

    def test_flipped_flags_count_covered_mass(self):
        # four points, half covered; an inverted classifier doubles exactly
        # the covered ones, so epsilon_prime equals their round mass
        points = np.arange(4.0)[:, None]
        p_vals = np.full(4, 0.25)
        g = AnalyticDensity([0.5, 0.5], [[0.0], [1.0]], [[0.01], [0.01]])  # covers 0, 1
        flipped = exact_discriminator(
            np.full(4, 0.25), np.array([0.0, 0.0, 1.0, 1.0]), points
        )
        rec = one_round_record(points, g, flipped, p_vals)
        assert rec.doubled.tolist() == [True, True, False, False]
        assert rec.epsilon_prime == pytest.approx(0.5)
        assert rec.lambda_min == 0.0  # kept points are truly uncovered

    def test_algebraic_identity_with_uniform_target(self):
        # with uniform target mass the classifier test reduces to the exact
        # density test g < delta * p when the ideal response is used
        rng = np.random.default_rng(8)
        n = 12
        points = np.arange(float(n))[:, None]
        lw = init_weights_empirical(points)
        for _ in range(20):
            flags_random = rng.random(n) < 0.4
            lw_t = lw
            if flags_random.any():
                from modecover import double_weights

                lw_t = double_weights(lw, flags_random)
            p_t = relative_weights(lw_t)
            g_t = rng.dirichlet(np.ones(n))
            disc = exact_discriminator(p_t, g_t, points, clamp=1e-12)
            flags = empirical_cover_test(disc, points, lw_t, delta=0.3)
            exact = g_t < 0.3 * (1.0 / n)
            assert np.array_equal(flags, exact)
