"""Weak density generators: classical models exposing fit, exact pdf, and
seeded sampling, plus a budget-limited adversarial generator for stress tests.

`fit` never mutates; it returns a fitted copy, so specs are reusable and
fitted models are safe to share across threads.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AnalyticDensity,
    ConfigurationError,
    ContractViolation,
    DiscreteDistribution,
    GridSpec,
    as_points,
    bounding_grid,
    exp_inplace,
    log_sum_exp,
    row_lookup,
    sqdist,
)

_EM_TOL = 1e-8  # EM stops once the log-likelihood moves by less, relatively


class FitError(RuntimeError):
    """A generator could not be fit to the given distribution."""


class WeakGenerator:
    """Interface: fit(train, seed) -> fitted copy; pdf(x); sample(count, seed).

    Every generator has an exact pdf. `support_masses(points)` is the
    generator's own distribution restricted and renormalized to a finite
    support; the exact boosting loop compares those masses against target
    masses so both sides share one measure. Hyperparameters are checked on
    construction, before any fit.
    """

    def fit(self, train: DiscreteDistribution, seed) -> "WeakGenerator":
        raise NotImplementedError

    def pdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def sample(self, count: int, seed) -> np.ndarray:
        raise NotImplementedError

    def support_masses(self, points) -> np.ndarray:
        vals = np.asarray(self.pdf(as_points(points)), dtype=float)
        total = vals.sum()
        if total <= 0:
            raise FitError("generator assigns zero density to entire support")
        return vals / total

    def to_config(self) -> dict:
        raise NotImplementedError


def _require_fitted(obj, attr: str):
    if getattr(obj, attr) is None:
        raise ContractViolation("generator is not fitted")


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramGenerator(WeakGenerator):
    """Piecewise-constant density on a fixed grid.

    alpha blends a uniform floor into the fitted bin masses so no cell (and
    hence no data point) ever gets exactly zero density; the floor is part of
    the generator's measured TV distance to its training distribution.
    """

    grid: GridSpec | None = None
    alpha: float = 1e-9
    bin_mass: np.ndarray | None = None

    def __post_init__(self):
        if self.grid is None:
            raise ConfigurationError("histogram needs a grid")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigurationError("alpha must be in [0, 1)")

    def fit(self, train: DiscreteDistribution, seed=None) -> "HistogramGenerator":
        raw = self.bin_masses_of(train)
        mass = (1.0 - self.alpha) * raw + self.alpha / self.grid.n_cells
        return replace(self, bin_mass=mass)

    def pdf(self, x) -> np.ndarray:
        _require_fitted(self, "bin_mass")
        pts = as_points(x)
        # one column at a time, so every temporary is (n,) and not (n, d)
        inside = np.ones(len(pts), dtype=bool)
        for col, lo, hi in zip(pts.T, self.grid.lo, self.grid.hi, strict=True):
            inside &= col >= lo
            inside &= col <= hi
        out = np.zeros(len(pts))
        if np.any(inside):
            cells = self.grid.locate(pts[inside])
            out[inside] = self.bin_mass[cells] / self.grid.cell_volume
        return out

    def sample(self, count: int, seed) -> np.ndarray:
        _require_fitted(self, "bin_mass")
        if count < 0:
            raise ContractViolation("count must be >= 0")
        rng = np.random.default_rng(seed)
        cells = rng.choice(len(self.bin_mass), size=count, p=self.bin_mass)
        lo = self.grid.cell_lo(cells)
        width = (self.grid.hi - self.grid.lo) / self.grid.cells
        return lo + rng.random((count, self.grid.dim)) * width

    def bin_masses_of(self, dist: DiscreteDistribution) -> np.ndarray:
        """Project a discrete distribution onto this generator's bins."""
        cells = self.grid.locate(dist.support)
        return np.bincount(cells, weights=dist.mass, minlength=self.grid.n_cells)

    def to_config(self) -> dict:
        out = {
            "kind": "histogram",
            "alpha": self.alpha,
            "grid": {
                "lo": self.grid.lo.tolist(),
                "hi": self.grid.hi.tolist(),
                "cells": self.grid.cells,
            },
        }
        if self.bin_mass is not None:
            out["bin_mass"] = self.bin_mass.tolist()
        return out


# ---------------------------------------------------------------------------
# k-means helpers shared by the GMM and the discriminator feature map
# ---------------------------------------------------------------------------


def kmeans_pp_centers(points: np.ndarray, weights: np.ndarray, k: int, rng) -> np.ndarray:
    """Weighted k-means++ seeding: squared-distance-proportional draws."""
    n = len(points)
    probs = weights / weights.sum()
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.choice(n, p=probs)]
    d2 = sqdist(points, centers[:1])[:, 0]
    for j in range(1, k):
        scores = probs * d2
        total = scores.sum()
        if total <= 0:  # all mass already on chosen centers
            centers[j] = points[rng.choice(n, p=probs)]
        else:
            centers[j] = points[rng.choice(n, p=scores / total)]
        d2 = np.minimum(d2, sqdist(points, centers[j : j + 1])[:, 0])
    return centers


def lloyd_iterations(
    points: np.ndarray, weights: np.ndarray, centers: np.ndarray, iters: int = 10
) -> np.ndarray:
    """Move each center with owned weight to the weighted mean of the points
    nearest to it, `iters` times, in place.

    With all-one weights and d >= 2 the means are `np.bincount` sums over
    the owners divided by the counts: both add the owned rows in index
    order, so they equal `np.average` bit for bit. At d = 1 `np.average`
    sums the (m, 1) column pairwise, and with other weights its
    denominator is a different sum, so those keep the per-center loop.
    """
    k, d = centers.shape
    unit = d >= 2 and bool(np.all(weights == 1.0))
    for _ in range(iters):
        owner = np.argmin(sqdist(points, centers), axis=1)
        if unit:
            counts = np.bincount(owner, minlength=k)
            sums = np.stack(
                [np.bincount(owner, points[:, c], minlength=k) for c in range(d)], axis=1
            )
            hit = counts > 0
            centers[hit] = sums[hit] / counts[hit, None]
        else:
            for j in range(k):
                sel = owner == j
                wsum = weights[sel].sum()
                if wsum > 0:
                    centers[j] = np.average(points[sel], axis=0, weights=weights[sel])
    return centers


# ---------------------------------------------------------------------------
# diagonal-covariance Gaussian mixture fit by weighted EM
# ---------------------------------------------------------------------------


def _posterior_mass(log_resp: np.ndarray, norm: np.ndarray, w: np.ndarray, wr: np.ndarray):
    """The E-step's posterior mass ``w_i * P(component j | x_i)``, written
    into `wr`, and its per-component totals.

    `log_resp` is a C-ordered (k, n) array of log w_k + log N_k(x_i), which
    this turns into the responsibilities in place, and `norm` the (n,) log
    density; each pass runs along the n points. `wr` must be a C-ordered
    (n, k) array, as in the point-major E-step: numpy sums each column of
    a C-ordered array one row after another but a contiguous one pairwise,
    and the M-step's ``wr[:, j] @ pts`` reads a strided column, so an
    F-ordered `wr` would change the bits of every fitted parameter.
    """
    log_resp -= norm
    exp_inplace(log_resp)
    for j, resp in enumerate(log_resp):
        np.multiply(resp, w, out=wr[:, j])
    return wr.sum(axis=0)


@dataclass(frozen=True)
class GmmGenerator(WeakGenerator):
    """Mixture of k axis-aligned Gaussians fit by EM on weighted points.

    k-means++ seeding, best of `restarts` by final log-likelihood, variances
    floored at `var_floor` to keep degenerate clusters recoverable.

    The E-step is component-major: the log densities and responsibilities
    live in one (k, n) buffer per fit, so each elementwise pass and each
    reduction over the k components runs along the n points instead of an
    inner loop only k long. Every entry gets the same operations in the
    same order as in the point-major (n, k) layout, so the fit, and its
    `loglik_path`, are the same bit for bit.
    """

    k: int = 4
    max_iter: int = 100
    var_floor: float = 1e-6
    restarts: int = 3
    fitted: AnalyticDensity | None = None
    loglik_path: tuple[float, ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("gmm needs k >= 1")
        if not self.var_floor > 0:
            raise ConfigurationError("gmm needs var_floor > 0")

    def fit(self, train: DiscreteDistribution, seed) -> "GmmGenerator":
        pts, w = train.support, train.mass
        if self.k > len(pts):
            raise FitError(
                f"k={self.k} exceeds the {len(pts)} distinct training points"
            )
        rng = np.random.default_rng(seed)
        best = None
        for _ in range(max(1, self.restarts)):
            model, path = self._fit_once(pts, w, rng)
            if best is None or path[-1] > best[1][-1]:
                best = (model, path)
        return replace(self, fitted=best[0], loglik_path=tuple(best[1]))

    def _fit_once(self, pts, w, rng):
        n, d = pts.shape
        centers = kmeans_pp_centers(pts, w, self.k, rng)
        centers = lloyd_iterations(pts, w, centers.copy(), iters=5)
        global_var = np.average(
            (pts - np.average(pts, axis=0, weights=w)) ** 2, axis=0, weights=w
        )
        var = np.tile(np.maximum(global_var, self.var_floor), (self.k, 1))
        pi = np.full(self.k, 1.0 / self.k)
        mu = centers
        path = []
        # buffers reused by every iteration; see `_posterior_mass` for why
        # `log_resp` is (k, n) and `wr` (n, k)
        log_resp = np.empty((self.k, n))
        wr = np.empty((n, self.k))
        centered = np.empty((n, d))
        # one E-step per pass; the last, after max_iter M-steps or on
        # convergence, scores the final parameters, whose density is returned
        for it in itertools.count():
            model = AnalyticDensity(pi, mu, var)
            norm = log_sum_exp(model.log_components(pts, out=log_resp.T))
            path.append(float(np.dot(w, norm)))
            if it >= self.max_iter or (
                len(path) > 2 and abs(path[-2] - path[-3]) < _EM_TOL * (1.0 + abs(path[-3]))
            ):
                break
            nk = _posterior_mass(log_resp, norm, w, wr)
            live = nk > 1e-12
            pi = np.where(live, nk, 1e-12)
            pi = pi / pi.sum()
            for j in range(self.k):
                if not live[j]:
                    # degenerate cluster: reseed on the weighted data
                    mu[j] = pts[rng.choice(n, p=w / w.sum())]
                    var[j] = np.maximum(global_var, self.var_floor)
                    continue
                mu[j] = wr[:, j] @ pts / nk[j]
                # (pts - mu[j]) ** 2, one column at a time
                for c in range(d):
                    np.subtract(pts[:, c], mu[j, c], out=centered[:, c])
                np.square(centered, out=centered)
                var[j] = np.maximum(wr[:, j] @ centered / nk[j], self.var_floor)
        return model, path

    def pdf(self, x) -> np.ndarray:
        _require_fitted(self, "fitted")
        return self.fitted.pdf(x)

    def sample(self, count: int, seed) -> np.ndarray:
        _require_fitted(self, "fitted")
        return self.fitted.sample(count, seed)

    def to_config(self) -> dict:
        out = {
            "kind": "gmm",
            "k": self.k,
            "max_iter": self.max_iter,
            "var_floor": self.var_floor,
            "restarts": self.restarts,
        }
        if self.fitted is not None:
            out["weights"] = self.fitted.weights.tolist()
            out["means"] = self.fitted.means.tolist()
            out["variances"] = self.fitted.variances.tolist()
        return out


# ---------------------------------------------------------------------------
# kernel density generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KdeGenerator(WeakGenerator):
    """Gaussian kernels of variance bandwidth**2 on the training points,
    weighted by mass; sampling re-draws a training point by weight and
    jitters it by the bandwidth."""

    bandwidth: float = 0.1
    fitted: AnalyticDensity | None = None

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")

    def fit(self, train: DiscreteDistribution, seed=None) -> "KdeGenerator":
        var = np.full(train.support.shape, self.bandwidth**2)
        return replace(self, fitted=AnalyticDensity(train.mass, train.support, var))

    def pdf(self, x) -> np.ndarray:
        _require_fitted(self, "fitted")
        return self.fitted.pdf(as_points(x))

    def sample(self, count: int, seed) -> np.ndarray:
        _require_fitted(self, "fitted")
        return self.fitted.sample(count, seed)

    def to_config(self) -> dict:
        out = {"kind": "kde", "bandwidth": self.bandwidth}
        if self.fitted is not None:
            out["centers"] = self.fitted.means.tolist()
            out["center_mass"] = self.fitted.weights.tolist()
        return out


# ---------------------------------------------------------------------------
# fixed finite family, maximum-likelihood selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedFamilyGenerator(WeakGenerator):
    """Chooses the candidate density maximizing weighted log-likelihood of
    the training distribution (ties go to the lowest index)."""

    candidates: tuple[AnalyticDensity, ...] = ()
    selected: int | None = None

    def __post_init__(self):
        if not self.candidates:
            raise ConfigurationError("candidate family is empty")

    def fit(self, train: DiscreteDistribution, seed=None) -> "FixedFamilyGenerator":
        scores = []
        for cand in self.candidates:
            with np.errstate(divide="ignore"):
                logs = np.log(np.maximum(cand.pdf(train.support), 1e-300))
            scores.append(float(np.dot(train.mass, logs)))
        return replace(self, selected=int(np.argmax(scores)))

    @property
    def chosen(self) -> AnalyticDensity:
        _require_fitted(self, "selected")
        return self.candidates[self.selected]

    def pdf(self, x) -> np.ndarray:
        return self.chosen.pdf(as_points(x))

    def sample(self, count: int, seed) -> np.ndarray:
        return self.chosen.sample(count, seed)

    def to_config(self) -> dict:
        return {
            "kind": "fixed_family",
            "n_candidates": len(self.candidates),
            "selected": self.selected,
        }


# ---------------------------------------------------------------------------
# budgeted adversarial generator (test instrument)
# ---------------------------------------------------------------------------


def adversarial_make(base: DiscreteDistribution, gamma: float, region):
    """Remove up to `gamma` mass from `region` (proportionally) and push it
    onto the complement (proportionally). Returns (distribution, achieved_tv);
    achieved_tv < gamma only when the region holds less mass than the budget.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ContractViolation("gamma must be in [0, 1]")
    region = np.asarray(region, dtype=int)
    mask = np.zeros(base.size, dtype=bool)
    mask[region] = True
    if gamma == 0.0 or not mask.any():
        return base.with_mass(base.mass.copy()), 0.0
    if mask.all():
        raise ContractViolation("region must leave room to redistribute")
    inside = float(base.mass[mask].sum())
    if inside >= 1.0:
        raise ContractViolation("no mass outside region to scale up")
    mass, removed = _remove_mass(base.mass, mask, inside, gamma)
    mass = mass / mass.sum()  # guard rounding drift
    return base.with_mass(mass), removed


def _remove_mass(mass: np.ndarray, mask: np.ndarray, inside: float, gamma: float):
    """A copy of `mass` with min(gamma, inside) taken off the region `mask`,
    which holds `inside`, and added to the complement, both in proportion
    to the masses there; and the amount moved."""
    removed = min(gamma, inside)
    out = mass.copy()
    if inside > 0:
        out[mask] *= 1.0 - removed / inside
    out[~mask] *= 1.0 + removed / (1.0 - inside)
    return out, removed


def greedy_uncover_region(
    base_mass: np.ndarray, target_mass: np.ndarray, gamma: float, delta: float
) -> np.ndarray:
    """Pick the removal region that most reduces coverage of the target.

    Sweeps prefixes of points sorted by base/target ratio (all points, and
    covered points only) and keeps the prefix whose post-removal covered
    base-mass is smallest.
    """
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
            beta = _beta_after_removal(base_mass, target_mass, region, gamma, delta)
            if beta < best_beta - 1e-15:
                best_beta = beta
                best_region = region
    return np.asarray(best_region, dtype=int)


def _beta_after_removal(base_mass, target_mass, region, gamma, delta) -> float:
    mask = np.zeros(len(base_mass), dtype=bool)
    mask[region] = True
    g, _ = _remove_mass(base_mass, mask, float(base_mass[mask].sum()), gamma)
    covered = g >= delta * target_mass
    return float(base_mass[covered].sum())


def _is_index_list(victim) -> bool:
    """True for a flat list of nonnegative integers (integral floats too)."""
    idx = np.asarray(victim)
    if idx.ndim != 1 or idx.dtype.kind not in "iuf":
        return False
    with np.errstate(invalid="ignore"):  # inf % 1 is nan: not integral
        return bool(np.all((idx >= 0) & (idx % 1 == 0)))


@dataclass(frozen=True)
class AdversarialCoverageGenerator(WeakGenerator):
    """Worst-case-within-budget generator: a copy of its training
    distribution with exactly `gamma` TV moved off a victim region.

    `victim` is 'greedy' (region chosen to minimize coverage of `target`),
    an explicit index array naming the region, or a callable mapping the
    training distribution to indices. Used to realize the per-round TV
    premise of the coverage theorem at its boundary.
    """

    gamma: float = 0.1
    victim: object = "greedy"
    delta: float = 0.25
    target: DiscreteDistribution | None = None
    fitted_dist: DiscreteDistribution | None = None
    achieved_tv: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError("gamma must be in [0, 1]")
        if isinstance(self.victim, str):
            if self.victim != "greedy":
                raise ConfigurationError(f"unknown victim rule {self.victim!r}")
        elif not callable(self.victim) and not _is_index_list(self.victim):
            raise ConfigurationError(
                f"victim {self.victim!r} is not a list of nonnegative integer indices"
            )

    def fit(self, train: DiscreteDistribution, seed=None) -> "AdversarialCoverageGenerator":
        target = self.target if self.target is not None else train
        if isinstance(self.victim, str):
            region = greedy_uncover_region(
                train.mass, target.mass, self.gamma, self.delta
            )
        elif callable(self.victim):
            region = np.asarray(self.victim(train), dtype=int)
        else:
            region = np.asarray(self.victim, dtype=int)
        dist, achieved = adversarial_make(train, self.gamma, region)
        return replace(self, fitted_dist=dist, achieved_tv=achieved)

    def pdf(self, x) -> np.ndarray:
        """Point masses of the perturbed distribution (counting measure)."""
        _require_fitted(self, "fitted_dist")
        idx = row_lookup(self.fitted_dist.support, as_points(x))
        return np.where(idx >= 0, self.fitted_dist.mass[idx], 0.0)

    def support_masses(self, points) -> np.ndarray:
        pts = as_points(points)
        if pts.shape == self.fitted_dist.support.shape and np.array_equal(
            pts, self.fitted_dist.support
        ):
            return self.fitted_dist.mass
        return super().support_masses(points)

    def sample(self, count: int, seed) -> np.ndarray:
        _require_fitted(self, "fitted_dist")
        return self.fitted_dist.sample(count, seed)

    def to_config(self) -> dict:
        out = {"kind": "adversarial", "gamma": self.gamma, "delta": self.delta}
        if self.fitted_dist is not None:
            out["mass"] = self.fitted_dist.mass.tolist()
            out["achieved_tv"] = self.achieved_tv
        return out


def _integral(value) -> int:
    """An integer hyperparameter: an int, or a float with no fractional part."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"{value!r} is not an integer")  # nan % 1 and inf % 1 are nan
    return int(value)


def _real(value) -> float:
    """A real hyperparameter: an int or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _grid(spec: dict) -> GridSpec:
    return GridSpec(np.asarray(spec["lo"]), np.asarray(spec["hi"]), _integral(spec["cells"]))


def _family(candidates) -> tuple[AnalyticDensity, ...]:
    return tuple(AnalyticDensity(c["weights"], c["means"], c["variances"]) for c in candidates)


# kind -> (generator class, reader of each configuration key the kind takes).
# A key left out keeps the dataclass default. A histogram's `cells` sizes the
# default grid, which spans the data, when no `grid` is given.
_CONFIG_KEYS = {
    "histogram": (HistogramGenerator, {"alpha": _real, "grid": _grid, "cells": _integral}),
    "gmm": (
        GmmGenerator,
        {"k": _integral, "max_iter": _integral, "var_floor": _real, "restarts": _integral},
    ),
    "kde": (KdeGenerator, {"bandwidth": _real}),
    "fixed_family": (FixedFamilyGenerator, {"candidates": _family}),
    "adversarial": (
        AdversarialCoverageGenerator,
        {"gamma": _real, "victim": lambda victim: victim, "delta": _real},
    ),
}


def _check_cell_count(grid: GridSpec) -> None:
    """Refuse a grid whose per-round array of cell masses cannot be made: more
    cells than an array index reaches, or, where `os.sysconf` reports it
    (POSIX), more float bytes than the machine's physical memory. The memory
    bound is a heuristic: it does not see a container's memory limit."""
    n_cells = int(grid.cells) ** grid.dim
    if n_cells > np.iinfo(np.intp).max:
        raise ValueError(f"{grid.cells}^{grid.dim} = {n_cells} cells exceed the array index range")
    if hasattr(os, "sysconf"):
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if 8 * n_cells > memory:
            raise ValueError(
                f"{grid.cells}^{grid.dim} = {n_cells} cells; their masses need "
                f"{8 * n_cells} bytes, against {memory} bytes of memory"
            )


def generator_from_config(config: dict, points) -> WeakGenerator:
    """Build an unfitted generator for the (n, d) data `points` from the
    CLI's JSON configuration; a histogram without a `grid` gets
    `bounding_grid(points, cells)`. A histogram grid or a fixed-family
    candidate of another dimension than the data's, and a histogram grid
    with too many cells to hold their masses, are configuration errors."""
    kind = config.get("kind")
    if kind not in _CONFIG_KEYS:
        raise ConfigurationError(f"unknown generator kind {kind!r}")
    cls, readers = _CONFIG_KEYS[kind]
    unknown = sorted(set(config) - set(readers) - {"kind"})
    if unknown:
        raise ConfigurationError(f"generator {kind!r} takes no {', '.join(unknown)}")
    pts = as_points(points)
    try:
        kwargs = {key: read(config[key]) for key, read in readers.items() if key in config}
        if kind == "histogram":
            cells = kwargs.pop("cells", 64)
            if "grid" not in kwargs:
                kwargs["grid"] = bounding_grid(pts, cells)
            elif cells < 2:  # rejected whether or not it sizes the grid
                raise ValueError("at least 2 cells per axis")
            _check_cell_count(kwargs["grid"])
        for part in [kwargs["grid"]] if kind == "histogram" else kwargs.get("candidates", ()):
            if part.dim != pts.shape[1]:
                raise ValueError(f"dimension {part.dim} is not the data's {pts.shape[1]}")
        return cls(**kwargs)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigurationError(f"generator {kind!r} config: {exc}") from exc
