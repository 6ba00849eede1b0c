"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
live) and enforces the criterion's stated tolerances and runtime budget.
"""

import json
import math
import time

import numpy as np

import modecover as mc
from modecover.cli import main as cli_main
from modecover.repro import grid_isolated_run, sine_run, spiral_run, two_point_walkthrough

LN2 = math.log(2.0)


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_two_point_worked_example_exact():
    t0 = time.perf_counter()
    r = two_point_walkthrough()
    w1 = np.exp2(r["lw1"])
    w2 = np.exp2(r["lw2"])
    total_a = math.fsum(w2[:5])
    total_b = math.fsum(w2[5:])
    checks = {
        "flags exactly the B samples": r["flags"].tolist() == [False] * 5 + [True] * 2,
        "w1 = 1/7 bit-exact": bool(np.all(w1 == 1 / 7)),
        "w2 A-sample = 1/7 bit-exact": bool(np.all(w2[:5] == 1 / 7)),
        "w2 B-sample = 2/7 bit-exact": bool(np.all(w2[5:] == 2 / 7)),
        # summing five equal floats costs at most one ulp; 4/7 is exact
        "A total = 5/7 (<= 1 ulp)": abs(total_a - 5 / 7) <= math.ulp(5 / 7),
        "B total = 4/7 bit-exact": total_b == 4 / 7,
        "P2 = {5/9, 4/9} bit-exact": r["p2"].mass[0] == 5 / 9 and r["p2"].mass[1] == 4 / 9,
    }
    elapsed = time.perf_counter() - t0
    checks["runtime < 1 s"] = elapsed < 1.0
    bad = [k for k, v in checks.items() if not v]
    _report(1, not bad, f"two-point replay, {elapsed:.3f}s" + (f"; failed: {bad}" if bad else ""))


def test_criterion_2_unbalanced_target_quantities():
    t0 = time.perf_counter()
    target = mc.make_three_gauss_target()
    fit = mc.AnalyticDensity([1.0], [[0.0]], [[1.0]])
    grid = mc.GridSpec([-20.0], [20.0], 4000)
    side = [(-14.0, -6.0), (6.0, 14.0)]
    tv = mc.divergence_numeric(fit, target, mc.DivergenceKind.TV, grid)
    kl_bits = mc.divergence_numeric(fit, target, mc.DivergenceKind.KL, grid, log_base=2)
    p_side = mc.interval_probability(target, side)
    q_side = mc.interval_probability(fit, side)
    elapsed = time.perf_counter() - t0
    checks = {
        f"TV {tv:.4f} = 0.100 +- 0.005": abs(tv - 0.100) <= 0.005,
        f"KL {kl_bits:.4f} <= 0.16 bits": kl_bits <= 0.16,
        f"target side mass {p_side:.4f} = 0.100 +- 0.005": abs(p_side - 0.100) <= 0.005,
        f"fit side mass {q_side:.2e} <= 1e-8": q_side <= 1e-8,
        "runtime < 1 s": elapsed < 1.0,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(2, not bad, f"global-distance vs side-mode gap, {elapsed:.3f}s"
            + (f"; failed: {bad}" if bad else ""))


def test_criterion_3_rare_modes_selection():
    target, center, spread = mc.make_rare_modes_instance()
    grid = mc.GridSpec([-20.0], [20.0], 4000)
    kl = lambda a, b: mc.divergence_numeric(a, b, mc.DivergenceKind.KL, grid, log_base=2)
    side = [(-14.0, -6.0), (6.0, 14.0)]
    ratio = mc.interval_probability(center, side) / mc.interval_probability(target, side)
    xs = np.linspace(-14.0, 14.0, 2801)[:, None]
    psi = float(np.min(spread.pdf(xs) / target.pdf(xs)))
    checks = {
        "KL(target, center) = 1.28 +- 0.05": abs(kl(target, center) - 1.28) <= 0.05,
        "KL(target, spread) = 1.40 +- 0.05": abs(kl(target, spread) - 1.40) <= 0.05,
        "KL(center, target) = 0.029 +- 0.05": abs(kl(center, target) - 0.029) <= 0.05,
        "KL(spread, target) = 2.81 +- 0.05": abs(kl(spread, target) - 2.81) <= 0.05,
        "likelihood selects the center-only fit": mc.mle_select(target, [center, spread], grid) == 0,
        f"side subset ratio {ratio:.2e} within 3x of 1e-7": 1e-7 / 3 <= ratio <= 3e-7,
        f"spread candidate psi {psi:.4f} > 1/3": psi > 1 / 3,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(3, not bad, "likelihood-selection instance" + (f"; failed: {bad}" if bad else ""))


def test_criterion_4_bound_formula_anchors():
    import warnings

    ok_exact = (
        mc.single_round_cover_bound(0.25, 0.1) == 0.4
        and mc.minimax_cover_bound(0.25, 0.0) == 0.125
    )
    rng = np.random.default_rng(42)
    deltas = np.linspace(1e-6, 0.5, 500001)
    worst_gap = 0.0
    for _ in range(50):
        gamma = rng.random() * 0.5
        eta = rng.random() * 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            best, vacuous = mc.best_cover_threshold(gamma, eta)
        if vacuous:
            continue
        scan = deltas[np.argmax((1.0 - (gamma + 2 * deltas) / LN2 - eta) * deltas)]
        worst_gap = max(worst_gap, abs(scan - best))
    checks = {
        "anchor values exact": ok_exact,
        f"argmax scan gap {worst_gap:.2e} < 1e-6": worst_gap < 1e-6,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(4, not bad, "closed-form bound anchors" + (f"; failed: {bad}" if bad else ""))


def test_criterion_5_oracle_suites():
    t0 = time.perf_counter()
    single_round = mc.check_single_round_cover(
        1000, support_size=10, delta=0.25, gamma=0.1, seed=0
    )
    quarter = mc.check_quarter_cover(1000, seed=0)
    growth = mc.check_weight_growth(500, support_size=16, rounds=30, eps=0.3, seed=0)
    exhaustive = mc.check_mixture_cover_exhaustive(
        support_size=8, rounds=24, delta=0.25, gamma=0.1, eta=0.2, trials=100, seed=0
    )
    # power: the same oracle refutes a threshold tightened by +0.05 in the
    # near-tight small-delta regime
    power = mc.check_single_round_cover(
        1000, support_size=16, delta=0.02, gamma=0.1, seed=0, threshold_shift=0.05
    )
    elapsed = time.perf_counter() - t0
    checks = {
        "single-round cover, 1000 trials clean": single_round.violations == 0,
        "quarter cover, 1000 trials clean": quarter.violations == 0,
        "weight growth, 500 trials, T=30 clean": growth.violations == 0,
        "mixture cover exhaustive, 100 seeds clean": exhaustive.violations == 0,
        f"tightened threshold refuted ({power.violations} violations)": power.violations >= 1,
        f"runtime {elapsed:.1f}s < 120 s": elapsed < 120.0,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(5, not bad, f"oracle certification, {elapsed:.1f}s" + (f"; failed: {bad}" if bad else ""))


def test_criterion_6_divergence_chain_and_tv_bound():
    rng = np.random.default_rng(7)
    support = np.arange(6.0)[:, None]
    chain_violations = 0
    for _ in range(1000):
        p = mc.DiscreteDistribution(support, rng.dirichlet(np.ones(6)))
        q = mc.DiscreteDistribution(support, rng.dirichlet(np.ones(6)))
        tv = mc.tv_discrete(p, q)
        if tv > math.sqrt(0.5 * mc.kl_discrete(p, q, log_base="e")) + 1e-12:
            chain_violations += 1
        if tv > math.sqrt(2.0) * mc.hellinger_discrete(p, q) + 1e-12:
            chain_violations += 1
        if tv > math.sqrt(2.0 * mc.js_discrete(p, q, log_base="e")) + 1e-12:
            chain_violations += 1
    support8 = np.arange(8.0)[:, None]
    psi_violations = 0
    for _ in range(200):
        p = mc.DiscreteDistribution(support8, rng.dirichlet(np.ones(8)))
        g = mc.DiscreteDistribution(support8, rng.dirichlet(np.ones(8)))
        psi = float(np.min(g.mass / p.mass))
        if mc.tv_discrete(p, g) > 1.0 - psi + 1e-12:
            psi_violations += 1
    checks = {
        "tv vs kl/hellinger/js chain, 1000 pairs clean": chain_violations == 0,
        "tv <= 1 - psi, 200 mixtures clean": psi_violations == 0,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(6, not bad, "divergence inequality chain" + (f"; failed: {bad}" if bad else ""))


def test_criterion_7_curve_plus_cluster_end_to_end():
    t0 = time.perf_counter()
    run = sine_run(seed=11)
    elapsed = time.perf_counter() - t0
    minor_min = float(run["minor_ratios"].min())
    share = run["data_box_share"]
    checks = {
        "n = 40100": run["n"] == 40100,
        f"every minor-sample ratio >= 0.05 (min {minor_min:.3f})": minor_min >= 0.05,
        (
            f"single-round baseline minor mass {run['base_box_mass']:.2e} "
            f"< 10% of data share {share:.4f}"
        ): run["base_box_mass"] < 0.1 * share,
        f"runtime {elapsed:.1f}s < 120 s": elapsed < 120.0,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(7, not bad, f"curve+cluster boosting, {elapsed:.1f}s" + (f"; failed: {bad}" if bad else ""))


def test_criterion_8_hard_mode_layouts():
    t0 = time.perf_counter()
    spiral_ok = True
    spiral_detail = []
    for seed in (5, 6, 7):
        _, _, covered, total = spiral_run(seed)
        spiral_detail.append(f"seed {seed}: {covered}/{total}")
        spiral_ok = spiral_ok and covered == total
    spiral_elapsed = time.perf_counter() - t0

    t1 = time.perf_counter()
    run = grid_isolated_run(seed=3)
    iso_elapsed = time.perf_counter() - t1
    ratios = run["minority_ratios"]
    first = run["first_covered"]
    strictly_up = first is not None and all(
        ratios[i + 1] > ratios[i] for i in range(first - 1)
    )
    checks = {
        f"spiral covers all modes on 3 seeds ({'; '.join(spiral_detail)})": spiral_ok,
        f"spiral runtime {spiral_elapsed:.1f}s < 300 s": spiral_elapsed < 300.0,
        "isolated mode covered within T <= 25": run["isolated_covered"] == 1
        and first is not None
        and first <= 25,
        "minority weight share strictly increasing until covered": strictly_up,
        f"isolated runtime {iso_elapsed:.1f}s < 300 s": iso_elapsed < 300.0,
    }
    bad = [k for k, v in checks.items() if not v]
    _report(8, not bad, "hard mode layouts" + (f"; failed: {bad}" if bad else ""))


def test_criterion_9_byte_identical_outputs(tmp_path):
    config = {
        "dataset": {
            "kind": "gauss_grid",
            "seed": 7,
            "params": {"m_modes": 5, "n": 400, "var": 0.05},
        },
        "mode": "empirical",
        "boost": {"rounds": 3, "delta": 0.25, "eta": 0.01, "seed": 42,
                  "disc_sample_size": 400},
        "generator": {"kind": "gmm", "k": 4},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["boost", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in (
            "trace.csv", "mixture.json", "summary.json", "coverage_report.json", "ratios.npy"
        )
    )
    rep = tmp_path / "r1"
    rep2 = tmp_path / "r2"
    assert cli_main(["repro", "appendix-b", "--out", str(rep)]) == 0
    assert cli_main(["repro", "appendix-b", "--out", str(rep2)]) == 0
    identical = identical and (
        (rep / "values.json").read_bytes() == (rep2 / "values.json").read_bytes()
    )
    _report(9, identical, "byte-identical reruns of boost and repro outputs")
