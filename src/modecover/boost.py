"""The multiplicative-weights boosting loop.

One loop (`_run`) serves both modes; they differ only in how a round fits
its generator and computes the cover test. Exact mode runs on a finite
target distribution with generator-side point masses, so the doubling test
compares like with like. Empirical mode runs on raw samples: each round
resamples a training set by weight, fits the weak generator, trains a
discriminator, and doubles the weight of every sample whose estimated
coverage falls strictly below the threshold.

Round RNG streams are derived from (master seed, round, purpose), so traces
for rounds 1..t are unchanged by raising T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConfigurationError,
    ContractViolation,
    DiscreteDistribution,
    as_points,
    csv_text,
    double_weights,
    group_points,
    init_weights_empirical,
    init_weights_exact,
    log2_weight_sum,
    normalize,
    relative_weights,
)
from .discriminator import DiscriminatorSpec, empirical_cover_test, train_discriminator
from .divergences import tv_discrete
from .generators import AdversarialCoverageGenerator, HistogramGenerator, WeakGenerator

_PURPOSES = {"fit": 0, "resample": 1, "disc_pos": 2, "disc_neg": 3, "disc_train": 4}


class BoostRunError(RuntimeError):
    def __init__(self, round_index: int, message: str):
        self.round_index = round_index
        super().__init__(f"round {round_index}: {message}")


def round_rng_seed(master_seed, round_index: int, purpose: str):
    """Stable per-round, per-purpose seed material."""
    return np.random.SeedSequence(
        (int(master_seed), int(round_index), _PURPOSES[purpose])
    )


@dataclass(frozen=True)
class BoostConfig:
    generator: WeakGenerator
    rounds: int = 24
    delta: float = 0.25
    eta: float = 0.01
    seed: int = 0
    discriminator: DiscriminatorSpec | None = None
    disc_sample_size: int | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigurationError("at least one round required")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise ConfigurationError("eta must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


@dataclass(frozen=True)
class GeneratorMixture:
    """Uniform ensemble of the per-round generators; no mixture weights."""

    generators: tuple[WeakGenerator, ...]

    def __post_init__(self):
        if not self.generators:
            raise ConfigurationError("mixture must hold at least one generator")

    @property
    def rounds(self) -> int:
        return len(self.generators)

    def to_config(self) -> dict:
        return {
            "rounds": self.rounds,
            "generators": [g.to_config() for g in self.generators],
        }


def mixture_pdf(mixture: GeneratorMixture, x) -> np.ndarray:
    """Pointwise mean of the member densities."""
    return sum(np.asarray(gen.pdf(x), dtype=float) for gen in mixture.generators) / mixture.rounds


def mixture_support_masses(mixture: GeneratorMixture, points) -> np.ndarray:
    """Mean of the members' masses on a finite support; see RoundTrace.mixture_mass."""
    return sum(gen.support_masses(points) for gen in mixture.generators) / mixture.rounds


def mixture_sample(mixture: GeneratorMixture, count: int, seed) -> np.ndarray:
    """Per draw: choose a member uniformly, then draw one sample from it."""
    if count < 0:
        raise ContractViolation("count must be >= 0")
    if count == 0:
        return mixture.generators[0].sample(0, seed)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, mixture.rounds, size=count)
    sub_seeds = rng.integers(2**32, size=mixture.rounds)
    out = None
    for j in range(mixture.rounds):
        sel = np.flatnonzero(picks == j)
        if not sel.size:
            continue
        pts = mixture.generators[j].sample(
            sel.size, np.random.SeedSequence((int(sub_seeds[j]), j))
        )
        if out is None:
            out = np.empty((count, pts.shape[1]))
        out[sel] = pts
    return out


@dataclass(frozen=True)
class RoundRecord:
    round: int
    log2_total: float  # W_t before this round's doubling
    doubled: np.ndarray  # per-sample flags
    n_doubled: int
    tv_gen_vs_pt: float | None = None
    epsilon_prime: float | None = None
    lambda_min: float | None = None


@dataclass(frozen=True)
class RoundTrace:
    init_log2_weights: np.ndarray
    rounds: tuple[RoundRecord, ...]
    final_log2_total: float
    target: DiscreteDistribution  # the run's distinct points
    mixture_mass: np.ndarray  # the uniform mixture's masses on target.support

    def to_csv(self, minority_ratio=None) -> str:
        """The trace as CSV; `minority_ratio`, one value per round (e.g. from
        `bounds.minority_weight_ratio`), fills that column, else it is empty."""
        shares = [None] * len(self.rounds) if minority_ratio is None else minority_ratio
        header = ["round", "log2_W", "n_doubled", "tv_gen_vs_pt", "minority_ratio",
                  "epsilon_prime", "lambda_min"]
        rows = [
            (r.round, r.log2_total, r.n_doubled, r.tv_gen_vs_pt, share, r.epsilon_prime,
             r.lambda_min)
            for r, share in zip(self.rounds, shares, strict=True)
        ]
        return csv_text(header, rows)

    @property
    def max_tv(self) -> float:
        return max(r.tv_gen_vs_pt for r in self.rounds)


def _run(target: DiscreteDistribution, label, lw: np.ndarray, cfg: BoostConfig, step):
    """The multiplicative-weights loop both modes share.

    The weight state is `lw`, the samples' log2 weights; sample i is the
    point ``target.support[label[i]]`` (as from `group_points`). Both inits
    give a total weight of exactly 1, so log2 W_1 = 0. Each round normalizes
    the weights into the round distribution p_t, calls ``step(t, lw, p_t)``
    for the fitted generator, its masses on `target.support`, the doubling
    flags and any extra RoundRecord fields, records the round, adds the
    masses into a running sum, and doubles the flagged weights. A new total
    more than 1e-9 off the invariant log2 W_{t+1} = log2 W_t +
    log2(1 + eps_t), with eps_t = P_t(doubled), raises.
    """
    init_log2_weights = lw
    log2_total = 0.0
    mass_sum = np.zeros(target.size)
    generators = []
    records = []
    for t in range(1, cfg.rounds + 1):
        p_t = normalize(target, label, lw)
        gen, g_mass, flags, extra = step(t, lw, p_t)
        mass_sum += g_mass
        del g_mass  # not alive through the next round
        records.append(
            RoundRecord(
                round=t,
                log2_total=log2_total,
                doubled=flags,
                n_doubled=int(flags.sum()),
                **extra,
            )
        )
        generators.append(gen)
        eps_t = relative_weights(lw)[flags].sum()
        lw = double_weights(lw, flags)
        next_total = log2_weight_sum(lw)
        drift = next_total - log2_total - math.log2(1.0 + eps_t)
        if not abs(drift) <= 1e-9:
            raise BoostRunError(t, f"log2 W_t+1 - log2 W_t - log2(1 + eps_t) = {drift!r}")
        log2_total = next_total
    trace = RoundTrace(
        init_log2_weights=init_log2_weights,
        rounds=tuple(records),
        final_log2_total=log2_total,
        target=target, mixture_mass=mass_sum / cfg.rounds,
    )
    return GeneratorMixture(tuple(generators)), trace


def run_exact(target: DiscreteDistribution, cfg: BoostConfig):
    """Boosting with exact densities: the weak generator's point masses are
    compared directly against the target's, and weights double on strict
    shortfall below delta times the target mass.
    """
    gen_spec = cfg.generator
    if isinstance(gen_spec, AdversarialCoverageGenerator):
        victim = gen_spec.victim
        if not (isinstance(victim, str) or callable(victim)):
            top = max(victim, default=-1)
            if top >= target.size:
                raise ConfigurationError(
                    f"victim index {top:g} is outside the {target.size} support points"
                )
        if gen_spec.target is None:
            gen_spec = replace(gen_spec, target=target, delta=cfg.delta)

    def step(t, lw, p_t):
        try:
            gen = gen_spec.fit(p_t, round_rng_seed(cfg.seed, t, "fit"))
            g_mass = gen.support_masses(target.support)
        except Exception as exc:  # noqa: BLE001 - context added, then re-raised
            raise BoostRunError(t, f"generator fit failed: {exc}") from exc
        flags = g_mass < cfg.delta * target.mass
        tv = tv_discrete(target.with_mass(g_mass), p_t)
        return gen, g_mass, flags, {"tv_gen_vs_pt": tv}

    return _run(target, np.arange(target.size), init_weights_exact(target), cfg, step)


def _measured_tv(gen: WeakGenerator, p_hat: DiscreteDistribution, g_mass) -> float:
    """Per-round TV between the fitted generator and the round distribution.

    Histograms compare bin masses (their native discretization); other
    generators compare `g_mass`, their support-renormalized masses on
    p_hat's support, which is a proxy and labeled as such in the docs.
    """
    if isinstance(gen, HistogramGenerator):
        return 0.5 * float(np.abs(gen.bin_mass - gen.bin_masses_of(p_hat)).sum())
    return tv_discrete(p_hat.with_mass(g_mass), p_hat)


def run_empirical(points, cfg: BoostConfig, exact_target_pdf=None, discriminator_factory=None):
    """Boosting on raw samples with discriminator-estimated density ratios.

    When `exact_target_pdf` (a callable over points, or its values at the
    samples) is given, every round also measures the classifier against the
    exact test, under which a sample is covered when the generator's density
    there is at least delta times the target's, and writes to the trace:

    - epsilon_prime: the round mass of the samples the exact test covers
      that the classifier still doubles;
    - lambda_min: over samples, the smallest ratio (capped at 1) of the
      rounds so far in which the exact test covered a sample to the rounds
      that kept its weight; a sample doubled in every round counts as 1.

    `bounds.noisy_coverage_guarantee` turns the largest epsilon_prime and
    the last lambda_min into a coverage factor.

    `discriminator_factory` replaces classifier training, e.g. with an
    ideal-response stub; it is called as factory(p_hat, fitted_generator,
    pos, neg, seed) and must return an object with a ``predict(points)``
    method.
    """
    pts = as_points(points)
    n = len(pts)
    if n < 2:
        raise ConfigurationError("need at least two samples")
    disc_spec = cfg.discriminator or DiscriminatorSpec()
    if discriminator_factory is None:
        discriminator_factory = lambda p_hat, gen, pos, neg, seed: train_discriminator(
            pos, neg, disc_spec, seed
        )
    n_disc = cfg.disc_sample_size or n
    if exact_target_pdf is not None:
        p_vals = np.asarray(
            exact_target_pdf(pts)
            if callable(exact_target_pdf)
            else exact_target_pdf,
            dtype=float,
        )
        # per sample: rounds that kept its weight, rounds the exact test covered it
        kept = np.zeros(n, dtype=int)
        truly_covered = np.zeros(n, dtype=int)

    def step(t, lw, p_hat):
        try:
            # the resample is a temporary, so it is freed once the fit returns
            gen = cfg.generator.fit(
                p_hat.resample(n, round_rng_seed(cfg.seed, t, "resample")),
                round_rng_seed(cfg.seed, t, "fit"),
            )
        except Exception as exc:  # noqa: BLE001
            raise BoostRunError(t, f"generator fit failed: {exc}") from exc
        try:
            pos = p_hat.sample(n_disc, round_rng_seed(cfg.seed, t, "disc_pos"))
            neg = gen.sample(n_disc, round_rng_seed(cfg.seed, t, "disc_neg"))
            disc = discriminator_factory(
                p_hat, gen, pos, neg, round_rng_seed(cfg.seed, t, "disc_train")
            )
        except Exception as exc:  # noqa: BLE001
            raise BoostRunError(t, f"discriminator training failed: {exc}") from exc
        flags = empirical_cover_test(disc, pts, lw, cfg.delta)
        try:  # after the cover test, so these (n,) masses are not alive through it
            g_mass = gen.support_masses(p_hat.support)
        except Exception as exc:  # noqa: BLE001
            raise BoostRunError(t, f"generator fit failed: {exc}") from exc
        extra = {"tv_gen_vs_pt": _measured_tv(gen, p_hat, g_mass)}
        if exact_target_pdf is not None:
            covered = gen.pdf(pts) >= cfg.delta * p_vals
            np.add(kept, ~flags, out=kept)
            np.add(truly_covered, covered, out=truly_covered)
            extra["epsilon_prime"] = float(relative_weights(lw)[covered & flags].sum())
            lam = np.where(
                kept > 0, np.minimum(1.0, truly_covered / np.maximum(kept, 1)), 1.0
            )
            extra["lambda_min"] = float(lam.min())
        return gen, g_mass, flags, extra

    return _run(*group_points(pts), init_weights_empirical(pts), cfg, step)
