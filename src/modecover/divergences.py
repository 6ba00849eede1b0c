"""Statistical distances between finite distributions and between 1D/2D
Gaussian-mixture densities (the latter via trapezoidal quadrature)."""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .core import (
    AnalyticDensity,
    ContractViolation,
    DiscreteDistribution,
    GridSpec,
    row_groups,
)

DENSITY_FLOOR = 1e-300
QUADRATURE_COVERAGE = 0.9999  # least grid mass `divergence_numeric` accepts
KL_INTEGRAND_CAP = 1e6


class DivergenceKind(Enum):
    TV = "tv"
    KL = "kl"
    JS = "js"
    HELLINGER = "hellinger"


class QuadratureCoverageError(ValueError):
    """Grid captures too little of a density's mass for a trustworthy value."""

    def __init__(self, captured_a: float, captured_b: float, required: float):
        self.captured_a = captured_a
        self.captured_b = captured_b
        self.required = required
        super().__init__(
            f"grid captures masses ({captured_a:.6f}, {captured_b:.6f}), "
            f"need >= {required}"
        )


def _aligned_masses(p: DiscreteDistribution, q: DiscreteDistribution):
    """Masses of p and q over the union support (zero fill for absentees)."""
    if p.support.shape == q.support.shape and np.array_equal(
        p.support, q.support
    ):
        return p.mass, q.mass
    if p.dim != q.dim:
        raise ContractViolation("supports live in different dimensions")
    first, inverse = row_groups(np.concatenate([p.support, q.support]))
    pm = np.bincount(inverse[: p.size], weights=p.mass, minlength=len(first))
    qm = np.bincount(inverse[p.size :], weights=q.mass, minlength=len(first))
    return pm, qm


def tv_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, 0.5 * sum |p_i - q_i|, on the union support."""
    pm, qm = _aligned_masses(p, q)
    return 0.5 * float(np.abs(pm - qm).sum())


def _log(x: np.ndarray, base) -> np.ndarray:
    if base == 2:
        return np.log2(x)
    if base == "e":
        return np.log(x)
    raise ContractViolation(f"log base must be 2 or 'e', got {base!r}")


def kl_discrete(p: DiscreteDistribution, q: DiscreteDistribution, log_base=2) -> float:
    """KL(p || q); terms with p_i = 0 drop, q_i = 0 under p_i > 0 is infinite."""
    pm, qm = _aligned_masses(p, q)
    live = pm > 0
    if np.any(qm[live] <= 0):
        return float("inf")
    return float(np.sum(pm[live] * _log(pm[live] / qm[live], log_base)))


def js_discrete(p: DiscreteDistribution, q: DiscreteDistribution, log_base=2) -> float:
    """Jensen-Shannon divergence, symmetric KL to the midpoint mixture."""
    pm, qm = _aligned_masses(p, q)
    mm = 0.5 * (pm + qm)
    out = 0.0
    for m in (pm, qm):
        live = m > 0
        out += 0.5 * float(np.sum(m[live] * _log(m[live] / mm[live], log_base)))
    return out


def hellinger_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Hellinger distance with H^2 = 0.5 * sum (sqrt p - sqrt q)^2, in [0, 1]."""
    pm, qm = _aligned_masses(p, q)
    return float(np.sqrt(0.5 * np.sum((np.sqrt(pm) - np.sqrt(qm)) ** 2)))


def _grid_eval(density: AnalyticDensity, grid: GridSpec):
    axes = grid.axes()
    if grid.dim == 1:
        return axes, density.pdf(axes[0][:, None])
    if grid.dim == 2:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        return axes, density.pdf(pts).reshape(xx.shape)
    raise ContractViolation("quadrature supports 1D and 2D grids only")


def _integrate(values: np.ndarray, axes) -> float:
    out = values
    for ax in reversed(axes):
        out = np.trapezoid(out, ax, axis=-1)
    return float(out)


def divergence_numeric(
    a: AnalyticDensity,
    b: AnalyticDensity,
    kind: DivergenceKind,
    grid: GridSpec,
    log_base=2,
) -> float:
    """Divergence of `a` from `b` (first argument is the KL numerator side).

    The grid must capture at least `QUADRATURE_COVERAGE` of both masses.
    Where `a`'s density underflows the integrand is dropped; where only
    `b`'s does, the ratio uses a floor and the integrand saturates at
    `KL_INTEGRAND_CAP` (a warning reports the clip).
    """
    kind = DivergenceKind(kind)
    axes, av = _grid_eval(a, grid)
    _, bv = _grid_eval(b, grid)
    cap_a = _integrate(av, axes)
    cap_b = _integrate(bv, axes)
    if cap_a < QUADRATURE_COVERAGE or cap_b < QUADRATURE_COVERAGE:
        raise QuadratureCoverageError(cap_a, cap_b, QUADRATURE_COVERAGE)

    if kind is DivergenceKind.TV:
        return 0.5 * _integrate(np.abs(av - bv), axes)
    if kind is DivergenceKind.HELLINGER:
        h2 = 0.5 * _integrate((np.sqrt(av) - np.sqrt(bv)) ** 2, axes)
        return float(np.sqrt(min(max(h2, 0.0), 1.0)))
    if kind is DivergenceKind.KL:
        return _kl_integral(av, bv, axes, log_base, KL_INTEGRAND_CAP)
    # JS: midpoint never underflows where either side is live
    mv = 0.5 * (av + bv)
    return 0.5 * _kl_integral(av, mv, axes, log_base, KL_INTEGRAND_CAP) + 0.5 * (
        _kl_integral(bv, mv, axes, log_base, KL_INTEGRAND_CAP)
    )


def _kl_integral(av, bv, axes, log_base, cap) -> float:
    live = av >= DENSITY_FLOOR
    integrand = np.zeros_like(av)
    ratio = av[live] / np.maximum(bv[live], DENSITY_FLOOR)
    vals = av[live] * _log(ratio, log_base)
    if np.any(vals > cap):
        warnings.warn(
            "KL integrand saturated at cap; value is a lower bound",
            RuntimeWarning,
            stacklevel=3,
        )
        vals = np.minimum(vals, cap)
    integrand[live] = vals
    return _integrate(integrand, axes)


def interval_probability(density: AnalyticDensity, intervals) -> float:
    """Exact 1D mass of a union of disjoint intervals via Gaussian CDFs."""
    if density.dim != 1:
        raise ContractViolation("interval probability is 1D only")
    return float(sum(density.box_probability(lo, hi) for lo, hi in intervals))


def mle_select(
    target: AnalyticDensity, family, grid: GridSpec, log_base=2
) -> int:
    """Index of the family member minimizing KL(target || candidate).

    This is the large-sample maximum-likelihood choice; ties break toward
    the lowest index.
    """
    family = list(family)
    if not family:
        raise ContractViolation("family must be non-empty")
    scores = [
        divergence_numeric(target, cand, DivergenceKind.KL, grid, log_base)
        for cand in family
    ]
    return int(np.argmin(scores))
