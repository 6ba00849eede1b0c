"""Randomized and exhaustive oracles certifying the coverage bounds as
executable properties of the implementation.

Each oracle draws adversarial-within-budget instances, evaluates the claimed
inequality exactly, and reports trials, violations, and the worst margin.
The oracles share one trial loop, `_run_trials`: an oracle supplies only how
to draw one instance and measure its margin. Per-trial seeds derive from
(master seed, trial index), so results are independent of evaluation order.
The weight-growth oracle doubles and totals its weights with the shipped
`core.double_weights` and `core.log2_weight_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boost import BoostConfig, run_exact
from .bounds import coverage_guarantee, single_round_cover_bound
from .core import (
    ContractViolation, DiscreteDistribution, double_weights, log2_weight_sum, relative_weights
)
from .generators import AdversarialCoverageGenerator, adversarial_make, greedy_uncover_region

SLACK = 1e-12


@dataclass(frozen=True)
class OracleReport:
    name: str
    trials: int
    violations: int
    worst_margin: float
    seed: int
    params: dict = field(default_factory=dict)
    first_violation: dict | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        out = {
            "suite": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "params": self.params,
        }
        if self.first_violation is not None:
            out["first_violation"] = self.first_violation
        return out


def _trial_rng(seed, trial: int):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(trial))))


def _run_trials(name, trials, seed, params, trial, tol=SLACK) -> OracleReport:
    """Run `trial` on each trial's own generator and collect the report.

    `trial(rng)` returns None when its instance has nothing to check, or
    `(margin, violation)`: a margin below -tol counts as a violation, and
    the first one is recorded by calling `violation()` for its fields.
    """
    violations = 0
    worst = math.inf
    first = None
    for t in range(trials):
        outcome = trial(_trial_rng(seed, t))
        if outcome is None:
            continue
        margin, violation = outcome
        worst = min(worst, margin)
        if margin < -tol:
            violations += 1
            if first is None:
                first = {"trial": t, **violation()}
    return OracleReport(name, trials, violations, worst, seed, params, first)


def _most_adversarial_beta(p, q, delta, gamma, rng):
    """Exact covered q-mass for the worst of a greedy and a random victim."""
    regions = [greedy_uncover_region(q, p, gamma, delta)]
    size = int(rng.integers(1, len(p)))
    regions.append(rng.choice(len(p), size=size, replace=False))
    best = None
    for region in regions:
        g_mass, _ = adversarial_make(q, gamma, region)
        beta = float(q[g_mass >= delta * p].sum())
        if best is None or beta < best[0]:
            best = (beta, g_mass, np.asarray(region, dtype=int))
    return best


def check_single_round_cover(
    trials: int,
    support_size: int = 10,
    delta: float = 0.25,
    gamma: float = 0.1,
    seed=0,
    threshold_shift: float = 0.0,
) -> OracleReport:
    """Random (P, Q) pairs with a budget-gamma adversarial G must keep the
    probability of drawing a delta-covered point at least 1 - 2*delta - gamma.

    `threshold_shift` tightens the claimed bound; the oracle has power ---
    a positive shift of a few percent does produce violations.
    """
    if not (0.0 < delta <= 1.0 and 0.0 <= gamma <= 1.0):
        raise ContractViolation("delta in (0,1], gamma in [0,1] required")
    bound = single_round_cover_bound(delta, gamma) + threshold_shift

    def trial(rng):
        p = rng.dirichlet(np.ones(support_size))
        q = rng.dirichlet(np.ones(support_size))
        beta, g_mass, region = _most_adversarial_beta(p, q, delta, gamma, rng)
        return beta - bound, lambda: {
            "p": p.tolist(),
            "q": q.tolist(),
            "g": g_mass.tolist(),
            "region": region.tolist(),
            "beta": beta,
            "bound": bound,
        }

    params = {
        "support_size": support_size,
        "delta": delta,
        "gamma": gamma,
        "threshold_shift": threshold_shift,
    }
    return _run_trials("single_round_cover", trials, seed, params, trial)


def check_quarter_cover(trials: int, seed=0) -> OracleReport:
    """Quarter-threshold specialization: delta = 1/4, gamma = 0.1, and the
    covered-draw probability must reach 0.4. These are
    `check_single_round_cover`'s defaults, so this replays its default
    instances at the same seed and reports the same margins."""
    report = check_single_round_cover(
        trials, support_size=10, delta=0.25, gamma=0.1, seed=seed
    )
    params = {"delta": 0.25, "gamma": 0.1, "threshold": 0.4}
    return replace(report, name="quarter_cover", params=params)


def _greedy_mass_subset(masses: np.ndarray, cap: float) -> np.ndarray:
    """Flags of a high-mass subset with total mass <= cap (greedy descending)."""
    order = np.argsort(-masses, kind="stable")
    flags = np.zeros(len(masses), dtype=bool)
    total = 0.0
    for i in order:
        if total + masses[i] <= cap + 1e-15:
            flags[i] = True
            total += masses[i]
    return flags


def check_weight_growth(
    trials: int,
    support_size: int = 16,
    rounds: int = 30,
    eps: float = 0.3,
    seed=0,
) -> OracleReport:
    """Total weight after T rounds never exceeds (1 + eps)^T when every
    round's doubled set holds at most eps of the round distribution."""
    if not 0.0 <= eps <= 1.0:
        raise ContractViolation("eps must be in [0, 1]")
    cap_log2 = rounds * math.log2(1.0 + eps)

    def trial(rng):
        lw = np.log2(rng.dirichlet(np.ones(support_size)))
        for _ in range(rounds):
            flags = _greedy_mass_subset(relative_weights(lw), eps)
            lw = double_weights(lw, flags)
        log2_total = log2_weight_sum(lw)
        return cap_log2 - log2_total, lambda: {"log2_final": log2_total, "cap": cap_log2}

    params = {"support_size": support_size, "rounds": rounds, "eps": eps}
    return _run_trials("weight_growth", trials, seed, params, trial, tol=1e-9)


def _all_subset_masses(masses: np.ndarray) -> np.ndarray:
    """(2^n,) subset masses via the n-bit mask matrix."""
    n = len(masses)
    codes = np.arange(1 << n, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
    return bits @ masses


def check_mixture_cover_exhaustive(
    support_size: int = 8,
    rounds: int = 24,
    delta: float = 0.25,
    gamma: float = 0.1,
    eta: float = 0.2,
    trials: int = 100,
    seed=0,
) -> OracleReport:
    """Run the exact boosting loop against a budget-gamma adversary and check
    the mixture's subset coverage bound over every qualifying subset."""
    if support_size > 12:
        raise ContractViolation("exhaustive subset check capped at 12 points")
    bound = coverage_guarantee(delta, gamma, eta)
    mass_lb = 2.0 ** (-eta * rounds)

    def trial(rng):
        p = rng.dirichlet(np.ones(support_size))
        target = DiscreteDistribution(np.arange(support_size, dtype=float)[:, None], p)
        cfg = BoostConfig(
            generator=AdversarialCoverageGenerator(gamma=gamma),
            rounds=rounds,
            delta=delta,
            eta=eta,
            seed=int(rng.integers(2**32)),
        )
        mixture, trace = run_exact(target, cfg)
        g_star = trace.mixture_mass
        p_sub = _all_subset_masses(target.mass)
        g_sub = _all_subset_masses(g_star)
        qualifying = p_sub >= mass_lb
        qualifying[0] = False
        margins = g_sub[qualifying] - bound * p_sub[qualifying]
        if not margins.size:
            return None
        return float(margins.min()), lambda: {
            "p": p.tolist(),
            "g_star": g_star.tolist(),
            "subset_code": int(np.flatnonzero(qualifying)[int(np.argmin(margins))]),
            "bound": bound,
            "max_round_tv": trace.max_tv,
        }

    params = {
        "support_size": support_size,
        "rounds": rounds,
        "delta": delta,
        "gamma": gamma,
        "eta": eta,
        "bound": bound,
        "mass_lb": mass_lb,
    }
    return _run_trials("mixture_cover_exhaustive", trials, seed, params, trial)
