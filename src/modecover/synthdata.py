"""Deterministic builders for the synthetic targets and point datasets.

Per-mode sample counts are fixed by deterministic allocation before any noise
is drawn, so mode proportions in the output are exact, and every builder is
bitwise reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AnalyticDensity, ConfigurationError


def make_three_gauss_target() -> AnalyticDensity:
    """1D mixture with a dominant center mode and two light side modes."""
    return AnalyticDensity(
        weights=[0.9, 0.05, 0.05],
        means=[[0.0], [10.0], [-10.0]],
        variances=[[1.0], [1.0], [1.0]],
    )


def make_rare_modes_instance():
    """A near-unimodal target plus the two fixed candidate fits for it.

    Returns (target, center_only, spread): the first candidate matches the
    dominant mode only, the second spreads mass across all three modes.
    """
    target = AnalyticDensity(
        weights=[0.98, 0.01, 0.01],
        means=[[0.0], [10.0], [-10.0]],
        variances=[[1.0], [1.0], [1.0]],
    )
    center_only = AnalyticDensity(
        weights=[1.0], means=[[0.0]], variances=[[1.0]]
    )
    spread = AnalyticDensity(
        weights=[0.34, 0.33, 0.33],
        means=[[0.0], [10.0], [-10.0]],
        variances=[[1.0], [1.0], [1.0]],
    )
    return target, center_only, spread


def make_sine_dataset(
    n_major: int,
    ratio: int = 400,
    minor_center=(10.0, 0.0),
    minor_var: float = 1.0,
    seed=0,
):
    """Expanding sine curve plus a small Gaussian cluster, 2D.

    Major-mode points have x ~ U[-10, 10] and y = x * sin(4x / pi); the minor
    mode holds round(n_major / ratio) Gaussian points. Returns (points,
    mode_ids) with mode_id 0 for the curve and 1 for the cluster.
    """
    if ratio <= 0:
        raise ConfigurationError("ratio must be positive")
    if n_major < ratio:
        raise ConfigurationError("n_major must be at least `ratio`")
    n_minor = int(round(n_major / ratio))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, size=n_major)
    major = np.stack([x, x * np.sin(4.0 * x / np.pi)], axis=1)
    center = np.asarray(minor_center, dtype=float)
    minor = center + np.sqrt(minor_var) * rng.standard_normal((n_minor, 2))
    points = np.concatenate([major, minor])
    mode_ids = np.concatenate(
        [np.zeros(n_major, dtype=int), np.ones(n_minor, dtype=int)]
    )
    return points, mode_ids


def _mode_samples(centers: np.ndarray, var: float, n: int, rng):
    """n samples split round-robin over the mode centers, Gaussian noise."""
    if n < 1:
        raise ConfigurationError(f"need at least one sample, got n={n!r}")
    m = len(centers)
    mode_ids = np.arange(n) % m
    noise = np.sqrt(var) * rng.standard_normal((n, centers.shape[1]))
    return centers[mode_ids] + noise, mode_ids


def make_gauss_grid(m_modes: int = 10, region=15.0, var: float = 0.05, n: int = 1000, seed=0):
    """Isotropic Gaussian modes at uniform-random centers in a square.

    Returns (points, mode_ids, centers). The coverage radius convention for
    these datasets is 3 * sqrt(var).
    """
    if m_modes < 1:
        raise ConfigurationError("need at least one mode")
    if not var > 0:
        raise ConfigurationError(f"var must be positive, got {var!r}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-region, region, size=(m_modes, 2))
    points, mode_ids = _mode_samples(centers, var, n, rng)
    return points, mode_ids, centers


def spiral_centers(m_modes: int = 20) -> np.ndarray:
    """Mode centers along an expanding spiral: (cos(i/3) i^2, sin(i/3) i^2)."""
    i = np.arange(1, m_modes + 1, dtype=float)
    return np.stack([np.cos(i / 3.0) * i * i, np.sin(i / 3.0) * i * i], axis=1)


def make_spiral(n: int, seed=0):
    """20 unit-variance Gaussian modes along a spiral; returns like make_gauss_grid."""
    rng = np.random.default_rng(seed)
    centers = spiral_centers(20)
    points, mode_ids = _mode_samples(centers, 1.0, n, rng)
    return points, mode_ids, centers


def grid_isolated_centers() -> np.ndarray:
    """A 21x21 lattice of centers on [-10, 10]^2 plus one far-away outlier."""
    axis = np.linspace(-10.0, 10.0, 21)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    lattice = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return np.concatenate([lattice, [[100.0, 100.0]]])


def make_grid_isolated(n: int, seed=0):
    """441 lattice modes plus one isolated mode, variance 0.05 each."""
    rng = np.random.default_rng(seed)
    centers = grid_isolated_centers()
    points, mode_ids = _mode_samples(centers, 0.05, n, rng)
    return points, mode_ids, centers


@dataclass(frozen=True)
class Dataset:
    """A generated point set plus the mode layout it was drawn from.

    `centers` and `mode_var` are None for datasets without well-defined
    isotropic mode centers (the sine curve).
    """

    points: np.ndarray
    mode_ids: np.ndarray | None
    centers: np.ndarray | None
    mode_var: float | None


def make_dataset(kind: str, seed=0, **params) -> Dataset:
    """Uniform entry point for the CLI."""
    if kind == "sine":
        points, mode_ids = make_sine_dataset(seed=seed, **params)
        return Dataset(points, mode_ids, None, None)
    if kind == "gauss_grid":
        points, mode_ids, centers = make_gauss_grid(seed=seed, **params)
        return Dataset(points, mode_ids, centers, params.get("var", 0.05))
    if kind == "spiral":
        points, mode_ids, centers = make_spiral(seed=seed, **params)
        return Dataset(points, mode_ids, centers, 1.0)
    if kind == "grid_isolated":
        points, mode_ids, centers = make_grid_isolated(seed=seed, **params)
        return Dataset(points, mode_ids, centers, 0.05)
    raise ConfigurationError(f"unknown dataset kind {kind!r}")
