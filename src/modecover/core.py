"""Core data model: points, finite distributions, Gaussian mixtures, and the
multiplicative weight state.

The weight state is a plain (n,) array of per-sample log2 weights beside
the fixed (n, d) points; duplicate points are distinct samples (multiset
semantics). Log2 keeps a point doubled in every one of T rounds
representable (its raw weight grows like 2^T). `double_weights` is the one
doubling, an exact ``+1.0`` on the flagged exponents, and
`relative_weights` the one normalization, a max-shifted sum that keeps
small worked examples bit-exact.

One byte budget, `_BLOCK_BYTES`, sizes every row block: those of `sqdist`,
the one pairwise-distance kernel, and the classifier's feature blocks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASS_TOL = 1e-9

# bytes of one block's (rows, k, d) differences, the budget `block_rows` turns
# into rows (256 at 64 two-dimensional centers), so that a block and its
# temporaries stay in cache through the elementwise passes over it
_BLOCK_BYTES = 2**18

# exp of any argument below about -745.13 rounds to 0.0; `exp_inplace`
# writes -inf below this cut, whose exp is the same 0.0
_EXP_ZERO_BELOW = -750.0


class ConfigurationError(ValueError):
    """Raised when an input or hyperparameter cannot define a valid object."""


class ContractViolation(ValueError):
    """Raised when a caller breaks a documented precondition."""


def as_points(points) -> np.ndarray:
    """Coerce input to a float (n, d) array of finite coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ConfigurationError(
            f"points must form a non-empty (n, d) array, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ConfigurationError("point coordinates must be finite")
    return pts


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability masses on a finite set of distinct points."""

    support: np.ndarray  # (n, d)
    mass: np.ndarray  # (n,)

    def __post_init__(self):
        support = as_points(self.support)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", _checked_mass(support, self.mass))
        if len(row_groups(support)[0]) != support.shape[0]:
            raise ConfigurationError("support points must be distinct")

    def with_mass(self, mass) -> DiscreteDistribution:
        """This support with new masses, checked as the constructor checks
        them. The support was checked when this distribution was built, so
        it is shared and not sorted again."""
        return _on_checked_support(self.support, mass)

    @property
    def size(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def sample(self, count: int, seed) -> np.ndarray:
        """Draw `count` i.i.d. support points with probability `mass`."""
        idx, order = self._draw(count, seed)
        drawn = np.empty_like(idx)
        drawn[order] = idx
        return self.support[drawn]

    def resample(self, count: int, seed) -> DiscreteDistribution:
        """The uniform empirical distribution of `count` draws: bit for bit
        ``uniform_on(self.sample(count, seed))``, from the same draws.

        The support rows are distinct, so the drawn indices are the groups.
        In key order the indices come in runs, one per drawn row: a run's
        length is its count, and its least draw number its first draw, by
        which the rows are ordered. No (count, d) sample is built or sorted.
        """
        idx, order = self._draw(count, seed)
        if count == 0:
            as_points(self.support[:0])  # raises what uniform_on of no rows raises
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        counts = np.diff(starts, append=count)
        by_first = np.argsort(np.minimum.reduceat(order, starts))
        return _on_checked_support(
            self.support[idx[starts[by_first]]], counts[by_first] / count
        )

    def _draw(self, count: int, seed) -> tuple[np.ndarray, np.ndarray]:
        """`count` i.i.d. support indices with probability `mass`, as
        ``(idx, order)``: draw ``order[j]`` is support index ``idx[j]``, and
        `idx` is nondecreasing.

        The draws are those of ``rng.choice(size, count, p=mass)`` in numpy
        2.x: the cdf normalized by its last entry, searched (right side) for
        `count` uniform keys from the generator. The keys are searched in
        sorted order, which keeps each binary search near the previous one
        and in cache; every index depends on its own key only, so the
        indices, and the generator's stream, are the same.
        """
        if count < 0:
            raise ContractViolation("count must be >= 0")
        cdf = self.mass.cumsum()
        cdf /= cdf[-1]
        keys = np.random.default_rng(seed).random(count)
        order = np.argsort(keys)
        return cdf.searchsorted(keys[order], side="right"), order


def _checked_mass(support: np.ndarray, mass) -> np.ndarray:
    """`mass` as a float array, after checking it is a probability vector
    with one entry per support row."""
    mass = np.asarray(mass, dtype=float)
    if mass.ndim != 1 or mass.shape[0] != support.shape[0]:
        raise ConfigurationError("support and mass lengths differ")
    if np.any(mass < 0) or not np.all(np.isfinite(mass)):
        raise ConfigurationError("masses must be finite and nonnegative")
    if abs(mass.sum() - 1.0) > MASS_TOL:
        raise ConfigurationError(f"masses sum to {mass.sum()!r}, not 1")
    return mass


def _on_checked_support(support: np.ndarray, mass) -> DiscreteDistribution:
    """A distribution on `support`, a finite float array of distinct rows
    the caller guarantees, with `mass` checked; skips the distinctness sort."""
    dist = object.__new__(DiscreteDistribution)
    object.__setattr__(dist, "support", support)
    object.__setattr__(dist, "mass", _checked_mass(support, mass))
    return dist


def sqdist(x: np.ndarray, y: np.ndarray, scale=None, out=None) -> np.ndarray:
    """Pairwise squared distances: ``((x[:, None, :] - y[None, :, :]) ** 2
    [/ scale]).sum(axis=2)`` as an (m, k) array, where `scale` broadcasts
    against (k, d). They are written into `out` when one is given.

    Rows of x are processed a block at a time, `block_rows(y)` rows each,
    so memory is O(m * k) plus one block of at most `_BLOCK_BYTES`, and each
    entry is bit-identical to the full broadcast:

    - d < 8: numpy sums fewer than 8 terms left to right, so the d
      column terms ``(x[:, j] - y[:, j]) ** 2 [/ scale[:, j]]`` are added
      into the output one column at a time through an (rows, k) scratch
      array, and no (rows, k, d) block is built;
    - d >= 8: numpy sums pairwise, so each (rows, k, d) difference block is
      built and summed over its last axis.

    The scratch array takes the memory order of `out`. With `out` the
    transpose of a C-ordered (k, m) buffer, as the GMM E-step passes it,
    every elementwise pass runs along the m points instead of the k
    columns, which is several times faster at small k; each entry still
    gets the same operations in the same order, so the values are the same.

    A sum whose terms are all -0.0 (possible only with a negative `scale`)
    comes out as -0.0 on the column path and 0.0 in the broadcast.
    """
    if out is None:
        out = np.empty((len(x), len(y)))
    rows = block_rows(y)
    if y.shape[1] < 8:
        if scale is not None:
            scale = np.broadcast_to(scale, y.shape)
        term = np.empty_like(out[:rows])
        for i in range(0, len(x), rows):
            xb, acc = x[i : i + rows], out[i : i + rows]
            for j in range(y.shape[1]):
                t = term[: len(xb)] if j else acc
                np.subtract(xb[:, j, None], y[:, j], out=t)
                np.square(t, out=t)
                if scale is not None:
                    np.divide(t, scale[:, j], out=t)
                if j:
                    acc += t
        return out
    block = np.empty((min(rows, len(x)), *y.shape))
    for i in range(0, len(x), rows):
        diff = block[: min(rows, len(x) - i)]
        np.subtract(x[i : i + rows, None, :], y, out=diff)
        np.square(diff, out=diff)
        if scale is not None:
            np.divide(diff, scale, out=diff)
        diff.sum(axis=2, out=out[i : i + rows])
    return out


def block_rows(y: np.ndarray) -> int:
    """Rows per block against the (k, d) array `y` (or a (d,) one): the one
    budget `_BLOCK_BYTES` over the bytes of one row's differences to it."""
    return max(1, _BLOCK_BYTES // (8 * y.size))


def row_groups(points: np.ndarray):
    """Group the equal (==) rows of a finite (n, d) array.

    Groups are numbered in lexicographic row order. Returns ``(first,
    inverse)``: ``first[g]`` is the index of group g's first row and
    ``inverse[i]`` is row i's group. The sort is numeric, so -0.0 == 0.0.
    """
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    starts = np.ones(len(points), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(points), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def row_lookup(support: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the first row of `support` equal (==) to each query row, or
    -1 where no row is. Coordinates must be finite."""
    first, inverse = row_groups(np.concatenate([support, queries]))
    hit = first[inverse[len(support) :]]
    return np.where(hit < len(support), hit, -1)


def group_points(points):
    """Group a point multiset once, for every later weighting of it.

    Returns ``(uniform, label)``: `uniform` is the uniform empirical
    distribution, whose support is the distinct rows in first-seen order,
    and ``label[i]`` is the index of row i in that support. Summing any
    per-row values with ``np.bincount(label, weights=values)`` gives their
    per-support-point totals.
    """
    pts = as_points(points)
    first, inverse = row_groups(pts)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    label = rank[inverse]
    return _on_checked_support(pts[first[order]], np.bincount(label) / len(pts)), label


def uniform_on(points) -> DiscreteDistribution:
    """Aggregate a point multiset into the uniform empirical distribution."""
    return group_points(points)[0]


def relative_weights(log2_weights: np.ndarray) -> np.ndarray:
    """Per-sample w_i / W as plain floats (max-shifted, overflow safe); the
    one normalization of the log2 weights."""
    u = np.exp2(log2_weights - log2_weights.max())
    return u / u.sum()


def log2_weight_sum(log2_weights: np.ndarray) -> float:
    """log2 of the sum of 2**log2_weights, evaluated with a max shift."""
    m = float(np.max(log2_weights))
    return m + float(np.log2(np.sum(np.exp2(log2_weights - m))))


def exp_inplace(a: np.ndarray) -> np.ndarray:
    """``np.exp(a)``, written into `a` (a float array the caller owns) and
    returned, bit for bit.

    Arguments below -750 are set to -inf first. Both give 0.0, but on x86
    `np.exp` leaves its vector fast path for an argument that underflows,
    and -inf costs about a third as much.
    """
    np.copyto(a, -np.inf, where=a < _EXP_ZERO_BELOW)
    return np.exp(a, out=a)


def log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(terms))) of an (m, K) array, shifted by each
    row's max, with every row summed in the order numpy's row-wise `sum`
    uses. `terms` may be the transpose of a C-ordered (K, m) buffer.

    The max is exact in any order. numpy sums a row of fewer than 8 terms
    left to right, so for K < 8 the K shifted exponentials are added one
    (m,) component at a time, each pass running along the m points. For
    K >= 8 numpy sums pairwise, so the shifted exponentials are written
    into a C-ordered (m, K) array and summed along its rows.
    """
    m = terms.max(axis=1)
    if terms.shape[1] >= 8:
        shifted = np.subtract(terms, m[:, None], order="C")
        return m + np.log(np.sum(exp_inplace(shifted), axis=1))
    total = exp_inplace(terms[:, 0] - m)
    term = np.empty_like(total)
    for j in range(1, terms.shape[1]):
        np.subtract(terms[:, j], m, out=term)
        total += exp_inplace(term)
    return m + np.log(total)


def init_weights_empirical(points) -> np.ndarray:
    """log2 weights that start every sample at 1/n (total weight exactly 1)."""
    n = as_points(points).shape[0]
    return np.full(n, -np.log2(float(n)))


def init_weights_exact(target: DiscreteDistribution) -> np.ndarray:
    """log2 weights that start each support point at its target mass (total
    weight exactly 1)."""
    if np.any(target.mass <= 0):
        raise ConfigurationError(
            "exact weight init needs strictly positive masses"
        )
    return np.log2(target.mass)


def normalize(grouped: DiscreteDistribution, label, log2_weights) -> DiscreteDistribution:
    """Current round distribution on the support of `grouped`: each support
    point's mass is the summed w_i / W of the samples that `label` (as from
    `group_points`) maps to it."""
    lw = np.asarray(log2_weights, dtype=float)
    if lw.shape != np.shape(label):
        raise ContractViolation(
            f"log2 weights of shape {lw.shape} do not match {len(label)} points"
        )
    if not np.all(np.isfinite(lw)):
        raise ConfigurationError("log2 weights must be finite")
    return grouped.with_mass(np.bincount(label, weights=relative_weights(lw)))


def double_weights(log2_weights, doubled) -> np.ndarray:
    """The log2 weights with every flagged sample's weight doubled."""
    lw = np.asarray(log2_weights, dtype=float)
    flags = np.asarray(doubled, dtype=bool)
    if flags.shape != lw.shape:
        raise ContractViolation(
            f"flags of shape {flags.shape} do not match log2 weights {lw.shape}"
        )
    return lw + flags


@dataclass(frozen=True)
class AnalyticDensity:
    """Mixture of axis-aligned Gaussians with known density and sampler; the
    one evaluation of such a mixture (GMM E-step, KDE)."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    variances: np.ndarray  # (K, d), diagonal covariance entries

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        var = np.atleast_2d(np.asarray(self.variances, dtype=float))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)
        if np.any(w < 0) or abs(w.sum() - 1.0) > MASS_TOL:
            raise ConfigurationError("component weights must be >= 0, sum 1")
        if mu.shape != var.shape or mu.shape[0] != w.shape[0]:
            raise ConfigurationError("component shapes inconsistent")
        if np.any(var <= 0):
            raise ConfigurationError("variances must be positive")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _exponents(self, pts: np.ndarray, out=None):
        """(m, K) scaled squared distances to the means, written into `out`
        when one is given, and the (K,) log normalizers."""
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ContractViolation(
                f"query dim {pts.shape[1]} != density dim {self.dim}"
            )
        z2 = sqdist(pts, self.means, self.variances, out)
        lognorm = 0.5 * np.sum(np.log(2.0 * np.pi * self.variances), axis=1)
        return z2, lognorm

    def pdf(self, x) -> np.ndarray:
        """Density at one point (scalar out) or at (m, d) points ((m,) out)."""
        pts = np.asarray(x, dtype=float)
        z2, lognorm = self._exponents(pts)
        out = exp_inplace(-0.5 * z2 - lognorm) @ self.weights
        return float(out[0]) if pts.ndim <= 1 else out

    def log_components(self, x, out=None) -> np.ndarray:
        """(m, K) log w_k + log N_k(x_i); row-wise `log_sum_exp` is log pdf.
        Written into `out` when one is given (see `sqdist`)."""
        z2, lognorm = self._exponents(np.asarray(x, dtype=float), out)
        z2 *= 0.5
        np.subtract(np.log(self.weights), z2, out=z2)
        z2 -= lognorm
        return z2

    def sample(self, count: int, seed) -> np.ndarray:
        if count < 0:
            raise ContractViolation("count must be >= 0")
        rng = np.random.default_rng(seed)
        comp = rng.choice(len(self.weights), size=count, p=self.weights)
        noise = rng.standard_normal((count, self.dim))
        return self.means[comp] + noise * np.sqrt(self.variances[comp])

    def box_probability(self, lo, hi) -> float:
        """Exact mass of the axis-aligned box [lo, hi] via CDF products."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        # imported at its one use, so that importing the package skips scipy.special
        from scipy.special import ndtr

        sd = np.sqrt(self.variances)
        per_axis = ndtr((hi - self.means) / sd) - ndtr((lo - self.means) / sd)
        return float(np.dot(self.weights, np.prod(per_axis, axis=1)))


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box split into `cells` equal intervals per axis."""

    lo: np.ndarray
    hi: np.ndarray
    cells: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ConfigurationError("grid needs lo < hi per axis")
        if self.cells < 2:
            raise ConfigurationError("at least 2 cells per axis")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def cell_volume(self) -> float:
        return float(np.prod((self.hi - self.lo) / self.cells))

    @property
    def n_cells(self) -> int:
        return self.cells**self.dim

    def axes(self) -> list[np.ndarray]:
        """Node coordinates per axis, cells + 1 points each."""
        return [
            np.linspace(self.lo[j], self.hi[j], self.cells + 1)
            for j in range(self.dim)
        ]

    def locate(self, points) -> np.ndarray:
        """Flat cell index of each point; out-of-box points clip to edge cells.

        The axes are handled one column at a time, with (n,) temporaries
        only, and the flat index is accumulated in C order, as
        `np.ravel_multi_index` numbers the cells.
        """
        pts = as_points(points)
        if pts.shape[1] != self.dim:
            raise ContractViolation("point dim does not match grid dim")
        if self.n_cells > np.iinfo(np.intp).max:
            raise ContractViolation(f"{self.n_cells} cells exceed the array index range")
        width = (self.hi - self.lo) / self.cells
        flat = np.zeros(len(pts), dtype=np.intp)
        scaled = np.empty(len(pts))
        for col, lo, step in zip(pts.T, self.lo, width):
            np.subtract(col, lo, out=scaled)
            scaled /= step
            idx = np.floor(scaled, out=scaled).astype(int)
            np.clip(idx, 0, self.cells - 1, out=idx)
            flat *= self.cells
            flat += idx
        return flat

    def cell_lo(self, flat_index: np.ndarray) -> np.ndarray:
        """Lower corner of each flat-indexed cell."""
        idx = np.stack(np.unravel_index(flat_index, (self.cells,) * self.dim), axis=1)
        width = (self.hi - self.lo) / self.cells
        return self.lo + idx * width


def bounding_grid(points, cells: int, pad: float = 1e-6) -> GridSpec:
    """Grid covering the data bounding box, padded so no point sits on hi."""
    pts = as_points(points)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    return GridSpec(lo - pad * span, hi + pad * span, cells)


def csv_text(header, rows) -> str:
    """The output CSV format: a line of `header` names, then one line of
    comma-joined cells per row, each line ending in a newline. A float cell
    is written as ``repr(float(v))``, None as an empty cell, and any other
    cell by `str`."""
    text = lambda v: "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
    lines = [",".join(header), *(",".join(map(text, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def save_points_csv(path, points, mode_ids=None) -> None:
    """Write points as CSV: header row, d numeric columns, optional mode_id."""
    pts = as_points(points)
    header = [f"x{j}" for j in range(pts.shape[1])]
    if mode_ids is not None:
        mode_ids = np.asarray(mode_ids, dtype=int)
        if mode_ids.shape != (pts.shape[0],):
            raise ContractViolation("mode_ids length must match points")
        header.append("mode_id")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(pts):
            out = [repr(float(v)) for v in row]
            if mode_ids is not None:
                out.append(str(int(mode_ids[i])))
            writer.writerow(out)


def load_points_csv(path):
    """Read the CSV point format; returns (points, mode_ids or None)."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"cannot read points {path}: {exc}") from exc
    if header is None:
        raise ConfigurationError(f"{path}: empty file, header required")
    if not rows:
        raise ConfigurationError(f"{path}: no data rows")
    has_mode = header[-1].strip() == "mode_id"
    d = len(header) - (1 if has_mode else 0)
    if d < 1:
        raise ConfigurationError(f"{path}: no coordinate columns")
    pts = np.empty((len(rows), d))
    modes = np.empty(len(rows), dtype=int) if has_mode else None
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ConfigurationError(f"{path}: row {i + 2} has wrong arity")
        try:
            pts[i] = [float(v) for v in row[:d]]
            if has_mode:
                modes[i] = int(row[d])
        except ValueError as exc:
            raise ConfigurationError(f"{path}: row {i + 2}: {exc}") from exc
    return as_points(pts), modes
