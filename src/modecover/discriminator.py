"""Probabilistic classifier used to estimate the generated/target density
ratio on each boosting round, and the cover test built on it. How far its
doubling decisions sit from the exact test is measured by
`boost.run_empirical` when the exact target density is known.

The classifier is a logistic model over either standardized affine features
or radial basis functions at k-means centers of the pooled sample. Training
takes ridge-regularized Newton steps on the full batch, with backtracking
on the penalized loss, so a fixed seed gives bit-identical weights.
Training needs the whole (n, K + 1) feature matrix; `predict` keeps none. It
fills one (rows, K + 1) block at a time and keeps only the n logits, so its
memory is the output plus one feature block, the RBF map's (rows, K) float
and bool scratch pair, and `sqdist`'s column scratch. A block's rows come
from the one row-block budget in `core` (`core.block_rows`, 256 rows at 64
two-dimensional centers), which sizes `sqdist`'s blocks too, so the block
and its scratch stay in cache through the passes that turn distances into
features and features into logits. A row's features do not depend on the
block it falls in. Its logit, one BLAS product per block, can: with more
than one BLAS thread the library splits each block's rows among the
threads, and a row's logit can move by a few ulp with the split. With one
thread, the block rows (a multiple of `_ROW_ALIGN`) and the last block
(never a single row) give each row the logit it has in one product over
all rows.

RBF feature values below 1e-154 are set to 0. Far from every center a
feature underflows, and on x86 an `exp` that returns a subnormal, or a
matrix product that reads one, runs many times slower than on normal
doubles. With the floor no feature is subnormal and no product of two
features is far below the normal range. Above the floor every value is
unchanged. What the floor drops is far below the rounding error of any
logit or Hessian entry of ordinary size, so trained weights and decisions
are expected to stay the same, but that is measured, not guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ConfigurationError,
    ContractViolation,
    as_points,
    block_rows,
    relative_weights,
    row_groups,
    row_lookup,
    sqdist,
)
from .generators import kmeans_pp_centers, lloyd_iterations

_CENTER_SUBSAMPLE = 4096  # cap on the pooled points for k-means and the scale median
# RBF feature values below this are written as 0. A product of two features
# is then 0 or at least 1e-308, next to the smallest normal double (2.2e-308),
# which keeps the Newton Hessian's products off the subnormal slow path
_RBF_FLOOR = 1e-154
_RBF_ARG_MIN = float(np.log(_RBF_FLOOR)) - 1.0  # exp of it is below the floor
# A BLAS matrix-vector product takes its rows a few at a time and rounds a row
# by its place in that grouping. Blocks of a multiple of this many rows keep
# every row's place, and with it the row's logit, as in one product over all
# rows (with one BLAS thread; more threads split the rows in their own way)
_ROW_ALIGN = 16


@dataclass(frozen=True)
class DiscriminatorSpec:
    feature_map: str = "rbf"  # 'rbf' | 'affine'
    n_centers: int = 64
    max_iter: int = 25  # ridge-Newton iterations
    l2: float = 1e-4
    clamp: float = 1e-6

    def __post_init__(self):
        if self.feature_map not in ("rbf", "affine"):
            raise ConfigurationError(f"unknown feature map {self.feature_map!r}")
        if not 0.0 < self.clamp <= 0.01:
            raise ConfigurationError("clamp must be in (0, 0.01]")


@dataclass(frozen=True)
class Discriminator:
    """Trained classifier; predict() is the probability a point came from
    the target-side sample rather than the generator."""

    spec: DiscriminatorSpec
    weights: np.ndarray  # (n_features + 1,), bias last
    centers: np.ndarray | None  # rbf only
    scale: float | None  # rbf only
    mean: np.ndarray | None  # affine only
    std: np.ndarray | None  # affine only
    loss_path: tuple[float, ...] = field(default=(), repr=False)

    def features(self, x) -> np.ndarray:
        """The (n, K + 1) feature matrix, bias column last, as training needs
        it, filled a row block at a time (see `_fill`)."""
        pts = as_points(x)
        rows, width = self._blocks()
        phi = np.empty((len(pts), width))
        scratch = self._scratch(min(len(pts), rows))
        for i in range(0, len(pts), rows):
            self._fill(pts[i : i + rows], phi[i : i + rows], scratch)
        return phi

    def predict(self, x) -> np.ndarray:
        """Clamped probabilities. One (rows, K + 1) buffer and one scratch
        pair, local to the call, are refilled for each row block, which is
        reduced to its logits, so no (n, K + 1) matrix is held."""
        pts = as_points(x)
        rows, width = self._blocks()
        buf = np.empty((min(len(pts), rows), width))
        scratch = self._scratch(len(buf))
        logits = np.empty(len(pts))
        starts = list(range(0, len(pts), rows))
        if len(starts) > 1 and len(pts) - starts[-1] == 1 and rows > _ROW_ALIGN:
            # numpy multiplies a one-row block by a dot product, which can
            # round its logit otherwise than a matrix-vector product does; the
            # block before it gives up `_ROW_ALIGN` rows so that none has one
            starts[-1] -= _ROW_ALIGN
        for i, stop in zip(starts, [*starts[1:], len(pts)]):
            block = buf[: stop - i]
            self._fill(pts[i:stop], block, scratch)
            np.matmul(block, self.weights, out=logits[i:stop])
        # 1 / (1 + exp(-logits)), clipped, each step written into `logits`
        np.negative(logits, out=logits)
        np.exp(logits, out=logits)
        np.add(logits, 1.0, out=logits)
        np.divide(1.0, logits, out=logits)
        return np.clip(logits, self.spec.clamp, 1.0 - self.spec.clamp, out=logits)

    def _blocks(self) -> tuple[int, int]:
        """(rows, K + 1): the rows of one feature block, `block_rows` of the
        centers (for the affine map, of the mean) rounded down to a multiple
        of `_ROW_ALIGN` from two multiples up, and the feature count plus the
        bias column."""
        basis = self.centers if self.spec.feature_map == "rbf" else self.mean
        rows = block_rows(basis)
        if rows >= 2 * _ROW_ALIGN:
            rows -= rows % _ROW_ALIGN
        return rows, len(basis) + 1

    def _scratch(self, rows: int):
        """The (rows, K) float and bool arrays `_fill` computes RBF features
        in, or None for the affine map, which needs none."""
        if self.spec.feature_map != "rbf":
            return None
        shape = (rows, len(self.centers))
        return np.empty(shape), np.empty(shape, dtype=bool)

    def _fill(self, pts: np.ndarray, out: np.ndarray, scratch) -> None:
        """Write the features of `pts` into `out`, a (len(pts), K + 1) buffer.

        `scratch` is `_scratch` of at least len(pts) rows. The RBF map runs
        `sqdist`, the scaling, the clamp, `exp` and the floor's 0/1 mask in
        the pair's C-contiguous arrays, where each pass is several times
        faster than in the strided (rows, K) view of `out`, and writes only
        the floored product into `out`. Every value gets the same operations
        in the same order either way. A value below `_RBF_FLOOR` is 0; its
        exponent is clamped first, so `exp` never makes a subnormal.
        """
        phi = out[:, :-1]
        if self.spec.feature_map == "rbf":
            arg, keep = (a[: len(pts)] for a in scratch)
            sqdist(pts, self.centers, out=arg)
            # x / -w is bitwise -(x / w), with w = 2 scale^2
            np.divide(arg, -2.0 * self.scale**2, out=arg)
            np.maximum(arg, _RBF_ARG_MIN, out=arg)
            np.exp(arg, out=arg)
            # positive values times a 0/1 mask: +0.0 below the floor, the rest kept
            np.greater_equal(arg, _RBF_FLOOR, out=keep)
            np.multiply(arg, keep, out=phi)
        else:
            np.subtract(pts, self.mean, out=phi)
            np.divide(phi, self.std, out=phi)
        out[:, -1] = 1.0


@dataclass(frozen=True)
class ExactDiscriminator:
    """Stand-in with the ideal response p_t / (p_t + g_t) on a fixed support.

    Used where the worked examples specify the optimal classifier, and to
    isolate the boosting loop from classifier noise in tests.
    """

    support: np.ndarray
    response: np.ndarray
    clamp: float = 1e-6

    def predict(self, x) -> np.ndarray:
        idx = row_lookup(self.support, as_points(x))
        if np.any(idx < 0):
            raise ContractViolation("query off the stub's support")
        return np.clip(self.response[idx], self.clamp, 1.0 - self.clamp)


def exact_discriminator(p_mass, g_mass, support, clamp: float = 1e-6) -> ExactDiscriminator:
    p = np.asarray(p_mass, dtype=float)
    g = np.asarray(g_mass, dtype=float)
    denom = p + g
    resp = np.where(denom > 0, p / np.maximum(denom, 1e-300), 0.5)
    return ExactDiscriminator(as_points(support), resp, clamp)


def _rbf_setup(pooled: np.ndarray, spec: DiscriminatorSpec, rng):
    pts = pooled
    if len(pts) > _CENTER_SUBSAMPLE:
        idx = rng.choice(len(pts), size=_CENTER_SUBSAMPLE, replace=False)
        pts = pts[idx]
    ones = np.ones(len(pts))
    k = min(spec.n_centers, len(row_groups(pts)[0]))
    for attempt in range(3):
        centers = kmeans_pp_centers(pts, ones, k, rng)
        centers = lloyd_iterations(pts, ones, centers, iters=10)
        if len(row_groups(np.round(centers, 12))[0]) == len(centers):
            break
        if attempt == 2:
            raise ConfigurationError("degenerate rbf centers after 3 reseeds")
    # kernel width matched to the basis resolution: the median distance from
    # a pooled point to its nearest center (a global median pairwise distance
    # cannot resolve small far-apart clusters)
    d2 = sqdist(pts, centers)
    scale = float(np.sqrt(np.median(d2.min(axis=1))))
    return centers, max(scale, 1e-6)


def _penalized_loss(phi, y, w, l2) -> float:
    logits = phi @ w
    # mean cross entropy, computed stably from the logits
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits) + l2 * w @ w)


def train_discriminator(pos, neg, spec: DiscriminatorSpec | None = None, seed=0) -> Discriminator:
    """Fit the L2-regularized logistic separator of two sample sets.

    pos are samples from the round's target distribution (label 1), neg from
    the generator (label 0). Optimized by ridge-regularized Newton steps with
    backtracking, so the penalized loss is non-increasing and rare-region
    features converge as fast as dense ones.
    """
    spec = spec or DiscriminatorSpec()
    pos = as_points(pos)
    neg = as_points(neg)
    rng = np.random.default_rng(seed)
    pooled = np.concatenate([pos, neg])
    centers = scale = mean = std = None
    if spec.feature_map == "rbf":
        centers, scale = _rbf_setup(pooled, spec, rng)
    else:
        mean = pooled.mean(axis=0)
        std = np.maximum(pooled.std(axis=0), 1e-12)
    model = Discriminator(spec, np.zeros(1), centers, scale, mean, std)
    phi = model.features(pooled)
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    n, p = phi.shape
    w = np.zeros(p)
    loss = _penalized_loss(phi, y, w, spec.l2)
    losses = [loss]
    eye = np.eye(p)
    for _ in range(spec.max_iter):
        logits = phi @ w
        probs = 1.0 / (1.0 + np.exp(-logits))
        grad = phi.T @ (probs - y) / n + 2.0 * spec.l2 * w
        curv = np.maximum(probs * (1.0 - probs), 1e-10)
        hess = (phi * curv[:, None]).T @ phi / n + (2.0 * spec.l2 + 1e-10) * eye
        step = np.linalg.solve(hess, grad)
        t = 1.0
        for _ in range(30):
            trial = _penalized_loss(phi, y, w - t * step, spec.l2)
            if trial <= loss:
                break
            t *= 0.5
        else:
            break  # no descent direction left at float precision
        w = w - t * step
        loss = trial
        losses.append(loss)
        if len(losses) > 1 and losses[-2] - losses[-1] < 1e-12 * (1.0 + losses[-2]):
            break
    return replace(model, weights=w, loss_path=tuple(losses))


def ratio_estimate(disc, x) -> np.ndarray:
    """Estimated generated/target density ratio, 1/D - 1, clamp-bounded."""
    return 1.0 / disc.predict(x) - 1.0


def empirical_cover_test(disc, points, log2_weights, delta: float) -> np.ndarray:
    """Doubling flags for every sample: estimated-ratio times relative weight
    strictly below delta / n. Equality keeps the weight unchanged."""
    ratios = ratio_estimate(disc, points)
    rel = relative_weights(np.asarray(log2_weights, dtype=float))
    if rel.shape != ratios.shape:
        raise ContractViolation(
            f"log2 weights of shape {rel.shape} do not match {len(ratios)} points"
        )
    return ratios * rel < delta / len(ratios)

