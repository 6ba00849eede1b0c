"""Coverage definitions, coverage measurement, and the closed-form lower
bounds on what a boosted generator mixture must cover.

Bound values may be negative; that means the guarantee is vacuous for those
parameters and callers are expected to display them as such rather than
clamp. Only `best_cover_threshold` clamps (with a warning flag), since it is
used to pick a runnable configuration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, DiscreteDistribution, double_weights, relative_weights, sqdist

LN2 = math.log(2.0)


def single_round_cover_bound(delta: float, gamma: float) -> float:
    """Guaranteed probability that a fresh draw lands on a covered point,
    when the generator is within TV gamma of the sampling distribution."""
    return 1.0 - 2.0 * delta - gamma


def mixture_cover_bound(delta: float, eps: float, eta: float) -> float:
    """Subset coverage factor of the uniform mixture when every round covers
    a drawn point with probability at least 1 - eps."""
    return (1.0 - eps / LN2 - eta) * delta


def coverage_guarantee(delta: float, gamma: float, eta: float) -> float:
    """End-to-end subset coverage factor under a per-round TV budget gamma:
    each round then leaves at most eps = gamma + 2*delta uncovered."""
    return mixture_cover_bound(delta, gamma + 2.0 * delta, eta)


def noisy_coverage_guarantee(
    delta: float,
    gamma: float = 0.0,
    eta: float = 0.0,
    eps_prime: float = 0.0,
    lam: float = 1.0,
    delta_prime: float | None = None,
) -> float:
    """Coverage factor when the doubling decisions come from an imperfect
    probabilistic classifier instead of exact densities.

    delta: covering threshold; gamma: per-round TV budget of the weak
    generator; eta: subset-mass exponent; eps_prime: mass of covered points
    the classifier still doubles; lam: fraction of kept rounds that truly
    cover; delta_prime: the weaker threshold those rounds certify (default
    delta). The first five must lie in [0, 1].
    """
    inputs = {"delta": delta, "gamma": gamma, "eta": eta, "eps_prime": eps_prime, "lam": lam}
    for name, v in inputs.items():
        if not 0.0 <= v <= 1.0:
            raise ContractViolation(f"{name}={v} outside [0, 1]")
    if delta_prime is None:
        delta_prime = delta
    eps = gamma + 2.0 * delta + eps_prime
    return mixture_cover_bound(delta_prime, eps, eta) * lam


def best_cover_threshold(gamma: float, eta: float):
    """The delta maximizing `coverage_guarantee`, clamped to [0, 0.5].

    Returns (delta, vacuous) where vacuous flags the clamp (gamma too large
    for any positive guarantee).
    """
    raw = ((1.0 - eta) * LN2 - gamma) / 4.0
    if raw <= 0.0:
        warnings.warn(
            "no positive coverage threshold exists for these parameters",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0, True
    return min(raw, 0.5), False


def minimax_cover_bound(delta: float, gamma: float) -> float:
    """Coverage value of the one-shot generator-vs-point game."""
    return single_round_cover_bound(delta, gamma) * delta


def generalization_sample_size(
    eps: float, rounds: int, log2_family_size: float, c: float
) -> float:
    """Sample count sufficient for the trained mixture to generalize, up to
    the caller-supplied constant c: c * eps^-1 * rounds * log2_family_size."""
    if not 0.0 < eps <= 1.0:
        raise ContractViolation("eps must be in (0, 1]")
    if rounds < 1 or log2_family_size <= 0:
        raise ContractViolation("rounds >= 1 and positive family size required")
    return c * rounds * log2_family_size / eps


@dataclass(frozen=True)
class WorstSubset:
    indices: tuple[int, ...]
    ratio: float
    mass: float


# the levels of the ratio quantiles a report's JSON carries; its minimum is psi_hat
RATIO_QUANTILE_LEVELS = (0.001, 0.01, 0.1, 0.5)


@dataclass(frozen=True)
class CoverageReport:
    """Pointwise coverage of a mixture against a discrete target."""

    psi_hat: float
    ratios: np.ndarray  # per support point, generated mass / target mass
    worst_subset: WorstSubset

    def to_json_dict(self) -> dict:
        """The report without its per-point ratios, which the CLI writes to
        ratios.npy: their count, minimum and quantiles, and the worst subset."""
        quantiles = np.quantile(self.ratios, RATIO_QUANTILE_LEVELS).tolist()
        return {
            "psi_hat": self.psi_hat,
            "n_points": int(self.ratios.size),
            "ratio_quantiles": dict(zip(map(str, RATIO_QUANTILE_LEVELS), quantiles)),
            "worst_subset": {
                "indices": list(self.worst_subset.indices),
                "ratio": self.worst_subset.ratio,
                "mass": self.worst_subset.mass,
            },
        }


def worst_subset(ratios, masses, mass_lb: float) -> WorstSubset:
    """Lowest-ratio prefix of ratio-sorted points with mass >= mass_lb.

    Exact when point masses are equal (an exchange argument); a heuristic
    upper bound on the true minimum otherwise.
    """
    if not 0.0 < mass_lb <= 1.0:
        raise ContractViolation("mass_lb must be in (0, 1]")
    ratios = np.asarray(ratios, dtype=float)
    masses = np.asarray(masses, dtype=float)
    order = np.argsort(ratios, kind="stable")
    cum_mass = np.cumsum(masses[order])
    cum_gen = np.cumsum(ratios[order] * masses[order])
    ok = cum_mass >= mass_lb - 1e-12
    if not np.any(ok):
        raise ContractViolation("total mass below requested lower bound")
    prefix_ratios = np.where(ok, cum_gen / np.maximum(cum_mass, 1e-300), np.inf)
    k = int(np.argmin(prefix_ratios))
    return WorstSubset(
        indices=tuple(int(i) for i in order[: k + 1]),
        ratio=float(prefix_ratios[k]),
        mass=float(cum_mass[k]),
    )


def coverage_report(generated_mass, target: DiscreteDistribution) -> CoverageReport:
    """Per-point ratios, their minimum, and the worst subset of at least the
    smallest target mass."""
    gen = np.asarray(generated_mass, dtype=float)
    if gen.shape != target.mass.shape:
        raise ContractViolation("generated mass vector must match support")
    if np.any(target.mass <= 0):
        raise ContractViolation("target masses must be positive for ratios")
    ratios = gen / target.mass
    return CoverageReport(
        psi_hat=float(ratios.min()),
        ratios=ratios,
        worst_subset=worst_subset(ratios, target.mass, float(target.mass.min())),
    )


@dataclass(frozen=True)
class BetaEstimate:
    """Probability that a fresh draw is delta-covered, with its uncertainty."""

    value: float
    stderr: float
    exact: bool


def delta_beta_estimate(
    g_pdf, p_pdf, q, delta: float, n_samples: int = 10000, seed=0
) -> BetaEstimate:
    """Fraction of draws from q landing on points where g >= delta * p.

    q may be a DiscreteDistribution (exact expectation) or any object with a
    ``sample(count, seed)`` method (Monte Carlo with standard error).
    """
    if isinstance(q, DiscreteDistribution):
        g = np.asarray([g_pdf(x) for x in q.support], dtype=float)
        p = np.asarray([p_pdf(x) for x in q.support], dtype=float)
        covered = g >= delta * p
        return BetaEstimate(float(q.mass[covered].sum()), 0.0, True)
    draws = q.sample(n_samples, seed)
    g = np.asarray([g_pdf(x) for x in draws], dtype=float)
    p = np.asarray([p_pdf(x) for x in draws], dtype=float)
    hits = (g >= delta * p).astype(float)
    beta = float(hits.mean())
    stderr = float(hits.std(ddof=1) / math.sqrt(len(hits))) if len(hits) > 1 else 0.0
    return BetaEstimate(beta, stderr, False)


def mode_coverage_count(
    samples,
    mode_centers,
    sigma0: float,
    n_total: int,
    m_modes: int,
    frac: float = 0.01,
) -> int:
    """Number of modes with at least frac * n_total / m_modes samples within
    Euclidean distance 3 * sigma0 of their center."""
    if sigma0 <= 0:
        raise ContractViolation("sigma0 must be positive")
    centers = np.atleast_2d(np.asarray(mode_centers, dtype=float))
    threshold = frac * n_total / m_modes
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return 0
    near = sqdist(np.atleast_2d(samples), centers) <= (3.0 * sigma0) ** 2
    return int(np.count_nonzero(np.count_nonzero(near, axis=0) >= threshold))


def minority_weight_ratio(trace, minority_indices) -> np.ndarray:
    """Per-round share of total weight held by the given sample indices.

    Replays the loop's weights from the trace's initial weights and per-round
    doubling flags, so it can be evaluated after the fact for any subset.
    """
    idx = np.asarray(minority_indices, dtype=int)
    lw = trace.init_log2_weights
    if idx.size == 0 or np.any(idx < 0) or np.any(idx >= lw.shape[0]):
        raise ContractViolation("minority indices out of range")
    out = []
    for record in trace.rounds:
        out.append(relative_weights(lw)[idx].sum())
        lw = double_weights(lw, record.doubled)
    return np.asarray(out)

