"""Pinned reproduction recipes.

Each recipe computes the quantities its scenario is known for, compares them
against expected values at fixed tolerances, and returns a values dict plus
plot-ready CSV artifacts. Recipes are deterministic for a given seed.
"""

from __future__ import annotations

import math

import numpy as np

from .boost import BoostConfig, mixture_sample, run_empirical, run_exact
from .bounds import minority_weight_ratio, mode_coverage_count
from .core import (
    AnalyticDensity,
    GridSpec,
    bounding_grid,
    csv_text,
    double_weights,
    group_points,
    init_weights_empirical,
    normalize,
    uniform_on,
)
from .discriminator import empirical_cover_test, exact_discriminator
from .divergences import DivergenceKind, divergence_numeric, interval_probability, mle_select
from .generators import (
    AdversarialCoverageGenerator,
    GmmGenerator,
    HistogramGenerator,
)
from .synthdata import (
    make_grid_isolated,
    make_rare_modes_instance,
    make_sine_dataset,
    make_spiral,
    make_three_gauss_target,
)

RECIPE_SEEDS = {
    "fig1": 0,
    "fig6": 0,
    "appendix-b": 0,
    "sine": 11,
    "spiral": 5,
    "grid-isolated": 3,
}


def _check(name, value, expected=None, tol=None, max_=None, min_=None):
    ok = True
    entry = {"name": name, "value": value}
    if expected is not None:
        entry["expected"] = expected
        if tol is not None:
            entry["tol"] = tol
            ok = ok and abs(value - expected) <= tol
        else:
            ok = ok and value == expected
    if max_ is not None:
        entry["max"] = max_
        ok = ok and value <= max_
    if min_ is not None:
        entry["min"] = min_
        ok = ok and value >= min_
    entry["pass"] = bool(ok)
    return entry


def recipe_fig1(seed: int):
    """Single-Gaussian fit of the unbalanced three-mode target: the global
    distances are small while the side modes are all but unreachable."""
    target = make_three_gauss_target()
    fit = AnalyticDensity([1.0], [[0.0]], [[1.0]])
    grid = GridSpec([-20.0], [20.0], 4000)
    side = [(-14.0, -6.0), (6.0, 14.0)]
    tv = divergence_numeric(fit, target, DivergenceKind.TV, grid)
    kl_bits = divergence_numeric(fit, target, DivergenceKind.KL, grid, log_base=2)
    p_side = interval_probability(target, side)
    q_side = interval_probability(fit, side)
    checks = [
        _check("tv_fit_vs_target", tv, expected=0.100, tol=0.005),
        _check("kl_fit_vs_target_bits", kl_bits, max_=0.16),
        _check("target_side_mass", p_side, expected=0.100, tol=0.005),
        _check("fit_side_mass", q_side, max_=1e-8),
    ]
    xs = np.linspace(-20.0, 20.0, 2001)
    curves = zip(xs, target.pdf(xs[:, None]), fit.pdf(xs[:, None]))
    return checks, {"densities.csv": csv_text(["x", "target", "fit"], curves)}


def recipe_fig6(seed: int):
    """Likelihood selection between a mode-dropping and a mode-keeping
    candidate: the global criterion prefers the candidate with no pointwise
    coverage."""
    target, center_only, spread = make_rare_modes_instance()
    grid = GridSpec([-20.0], [20.0], 4000)
    side = [(-14.0, -6.0), (6.0, 14.0)]
    kl = lambda a, b: divergence_numeric(a, b, DivergenceKind.KL, grid, log_base=2)
    selected = mle_select(target, [center_only, spread], grid)
    ratio_side = interval_probability(center_only, side) / interval_probability(
        target, side
    )
    xs = np.linspace(-14.0, 14.0, 2801)
    psi_spread = float(np.min(spread.pdf(xs[:, None]) / target.pdf(xs[:, None])))
    checks = [
        _check("kl_target_vs_center_bits", kl(target, center_only), expected=1.28, tol=0.05),
        _check("kl_target_vs_spread_bits", kl(target, spread), expected=1.40, tol=0.05),
        _check("kl_center_vs_target_bits", kl(center_only, target), expected=0.029, tol=0.05),
        _check("kl_spread_vs_target_bits", kl(spread, target), expected=2.81, tol=0.05),
        _check("likelihood_selects_center", selected, expected=0),
        _check("center_side_subset_ratio", ratio_side, min_=1e-7 / 3.0, max_=3e-7),
        _check("spread_pointwise_ratio_min", psi_spread, min_=1.0 / 3.0),
    ]
    xs_full = np.linspace(-20.0, 20.0, 2001)
    curves = zip(xs_full, *(g.pdf(xs_full[:, None]) for g in (target, center_only, spread)))
    return checks, {"densities.csv": csv_text(["x", "target", "center_only", "spread"], curves)}


def two_point_walkthrough():
    """The 7-sample two-point scenario with a collapsed first generator and
    the ideal classifier; returns every intermediate quantity."""
    points = np.array([[0.0]] * 5 + [[1.0]] * 2)  # five at A, two at B
    grouped, label = group_points(points)  # support {A, B}
    lw1 = init_weights_empirical(points)
    p1 = normalize(grouped, label, lw1)  # {A: 5/7, B: 2/7}
    collapsed = AdversarialCoverageGenerator(gamma=2.0 / 7.0, victim=[1]).fit(p1)
    g1 = collapsed.fitted_dist.mass  # {A: 1, B: 0}
    disc = exact_discriminator(p1.mass, g1, p1.support)
    flags = empirical_cover_test(disc, points, lw1, delta=0.25)
    lw2 = double_weights(lw1, flags)
    p2 = normalize(grouped, label, lw2)
    # round 2: the generator fits the reweighted distribution exactly
    exact_fit = AdversarialCoverageGenerator(gamma=0.0, victim=[1]).fit(p2)
    g2 = exact_fit.fitted_dist.mass
    g_star = 0.5 * (g1 + g2)
    return {
        "lw1": lw1,
        "p1": p1,
        "g1": g1,
        "disc": disc,
        "flags": flags,
        "lw2": lw2,
        "p2": p2,
        "g2": g2,
        "g_star": g_star,
    }


def recipe_appendix_b(seed: int):
    """Bit-level replay of the two-point worked example."""
    r = two_point_walkthrough()
    w2 = np.exp2(r["lw2"])
    total_a = float(math.fsum(w2[:5]))
    total_b = float(math.fsum(w2[5:]))
    d_vals = r["disc"].predict(np.array([[0.0], [1.0]]))
    checks = [
        _check("w1_per_sample", float(np.exp2(r["lw1"][0])), expected=1 / 7),
        _check("round1_flags", [bool(f) for f in r["flags"]],
               expected=[False] * 5 + [True] * 2),
        _check("n_doubled_round1", int(r["flags"].sum()), expected=2),
        _check("w2_a_sample", float(w2[0]), expected=1 / 7),
        _check("w2_b_sample", float(w2[5]), expected=2 / 7),
        # five same-magnitude floats: fsum is within one ulp of the literal
        _check("total_weight_a", total_a, expected=5 / 7, tol=math.ulp(5 / 7)),
        _check("total_weight_b", total_b, expected=4 / 7),
        _check("p2_a", float(r["p2"].mass[0]), expected=5 / 9),
        _check("p2_b", float(r["p2"].mass[1]), expected=4 / 9),
        _check("ideal_d_at_a", float(d_vals[0]), expected=5 / 12, tol=math.ulp(5 / 12)),
        _check("ideal_d_at_b", float(d_vals[1]), expected=1.0 - 1e-6),
        _check("mixture_mass_b", float(r["g_star"][1]), expected=2 / 9),
        _check(
            "mixture_covers_b_at_quarter",
            bool(r["g_star"][1] >= 0.25 * 2 / 7),
            expected=True,
        ),
        _check(
            "pointwise_ratio_min",
            float(min(r["g_star"][0] / (5 / 7), r["g_star"][1] / (2 / 7))),
            expected=7 / 9,
            tol=1e-12,
        ),
    ]
    labels = ["A"] * 5 + ["B"] * 2
    rows = zip(range(7), labels, np.exp2(r["lw1"]), w2, r["flags"].astype(int))
    return checks, {"weights.csv": csv_text(["sample", "point", "w1", "w2", "doubled"], rows)}


def sine_run(seed: int):
    """Criterion-style end-to-end run on the curve-plus-cluster dataset.

    The minor cluster sits at (0, 10), which the curve y = x sin(4x/pi)
    cannot approach (|y| <= |x| <= 10 while the cluster needs y near 10 at
    small |x|), so region-level coverage cleanly separates the modes.
    """
    points, mode_ids = make_sine_dataset(
        40000, ratio=400, minor_center=(0.0, 10.0), minor_var=1.0, seed=seed
    )
    minor_idx = np.flatnonzero(mode_ids == 1)
    grid = bounding_grid(points, 64)
    cfg = BoostConfig(
        generator=HistogramGenerator(grid=grid),
        rounds=20,
        delta=0.25,
        seed=seed,
        disc_sample_size=8192,
    )
    mixture, trace = run_empirical(points, cfg)

    share = np.full(len(points), 1.0 / len(points))
    data_bins = np.bincount(grid.locate(points), weights=share, minlength=grid.n_cells)
    mix_bins = np.mean([g.bin_mass for g in mixture.generators], axis=0)
    minor_cells = grid.locate(points[minor_idx])
    minor_ratios = mix_bins[minor_cells] / data_bins[minor_cells]

    # single-round baseline with a mode-level learner misses the cluster
    base_cfg = BoostConfig(
        generator=GmmGenerator(k=5), rounds=1, delta=0.25, seed=seed,
        disc_sample_size=4096,
    )
    base_mix, _ = run_empirical(points, base_cfg)
    box_lo, box_hi = np.array([-3.0, 7.0]), np.array([3.0, 13.0])
    base_box_mass = float(base_mix.generators[0].fitted.box_probability(box_lo, box_hi))
    in_box = np.all((points >= box_lo) & (points <= box_hi), axis=1)
    data_box_share = float(in_box.mean())
    return {
        "mixture": mixture,
        "trace": trace,
        "minority_ratios": minority_weight_ratio(trace, minor_idx),
        "minor_ratios": minor_ratios,
        "base_box_mass": base_box_mass,
        "data_box_share": data_box_share,
        "n": len(points),
    }


def recipe_sine(seed: int):
    run = sine_run(seed)
    checks = [
        _check("n_samples", run["n"], expected=40100),
        _check("minor_ratio_min", float(run["minor_ratios"].min()), min_=0.05),
        _check("baseline_minor_box_mass", run["base_box_mass"],
               max_=0.1 * run["data_box_share"]),
        _check("data_box_share", run["data_box_share"], min_=0.002),
    ]
    return checks, {
        "trace.csv": run["trace"].to_csv(run["minority_ratios"]),
        "minor_bin_ratios.csv": csv_text(
            ["minor_sample", "bin_ratio"], enumerate(run["minor_ratios"])
        ),
    }


def spiral_run(seed: int, n: int = 2000, rounds: int = 25):
    points, _, centers = make_spiral(n, seed=seed)
    cfg = BoostConfig(
        generator=GmmGenerator(k=12),
        rounds=rounds,
        delta=0.25,
        seed=seed,
        disc_sample_size=2048,
    )
    mixture, trace = run_empirical(points, cfg)
    samples = mixture_sample(mixture, 20000, seed=seed)
    covered = mode_coverage_count(samples, centers, 1.0, 20000, len(centers), 0.01)
    return mixture, trace, covered, len(centers)


def recipe_spiral(seed: int):
    checks = []
    files = {}
    for offset in range(3):
        s = seed + offset
        _, trace, covered, total = spiral_run(s)
        checks.append(_check(f"modes_covered_seed{s}", covered, expected=total))
        files[f"trace_seed{s}.csv"] = trace.to_csv()
    return checks, files


def grid_isolated_run(seed: int, n: int = 4420, rounds: int = 25):
    """Exact-mode run against a budget-limited adversary whose victim region
    is the isolated mode: the weight loop must force coverage regardless."""
    points, mode_ids, centers = make_grid_isolated(n, seed=seed)
    isolated_idx = np.flatnonzero(mode_ids == 441)
    target = uniform_on(points)
    if target.size != len(points):
        raise RuntimeError("expected distinct sample points")
    cfg = BoostConfig(
        generator=AdversarialCoverageGenerator(gamma=0.1, victim=isolated_idx),
        rounds=rounds,
        delta=0.25,
        seed=seed,
    )
    mixture, trace = run_exact(target, cfg)
    samples = mixture_sample(mixture, 20000, seed=seed)
    sigma0 = math.sqrt(0.05)
    isolated_covered = mode_coverage_count(
        samples, centers[441:], sigma0, 20000, len(centers), 0.01
    )
    # first round whose generator already covered every isolated point
    first_covered = None
    for rec in trace.rounds:
        if not rec.doubled[isolated_idx].any():
            first_covered = rec.round
            break
    ratios = minority_weight_ratio(trace, isolated_idx)
    return {
        "trace": trace,
        "isolated_covered": isolated_covered,
        "first_covered": first_covered,
        "minority_ratios": ratios,
    }


def recipe_grid_isolated(seed: int):
    run = grid_isolated_run(seed)
    ratios = run["minority_ratios"]
    first = run["first_covered"]
    strictly_up = (
        first is not None
        and all(ratios[i + 1] > ratios[i] for i in range(first - 1))
    )
    checks = [
        _check("isolated_mode_covered", run["isolated_covered"], expected=1),
        _check("first_covered_round", -1 if first is None else first, min_=1, max_=25),
        _check("minority_ratio_strictly_increasing", strictly_up, expected=True),
    ]
    return checks, {
        "trace.csv": run["trace"].to_csv(ratios),
        "minority_ratio.csv": csv_text(["round", "minority_ratio"], enumerate(ratios, start=1)),
    }


RECIPES = {
    "fig1": recipe_fig1,
    "fig6": recipe_fig6,
    "appendix-b": recipe_appendix_b,
    "sine": recipe_sine,
    "spiral": recipe_spiral,
    "grid-isolated": recipe_grid_isolated,
}


def run_recipe(name: str, seed: int | None = None):
    """Returns (values_dict, files_dict). values_dict['pass'] gates exit 0."""
    if seed is None:
        seed = RECIPE_SEEDS[name]
    checks, files = RECIPES[name](seed)
    values = {
        "recipe": name,
        "seed": int(seed),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return values, files
