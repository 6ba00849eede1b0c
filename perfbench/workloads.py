"""The benchmark's workloads: the CLI calls of one pass and their checks.

Each workload's `prepare(seed, work_dir)` is its set-up: it generates the
dataset the CLI will rebuild from the same seed (its size is what the checks
expect), writes any run configuration, and returns the calls of one pass.
A call's `check(out_dir)` reads the files the CLI wrote and returns
``(check name, passed)`` pairs; the runner adds the exit-code check.

Why these three (the prediction table is in README.md):
- sine-40k-certify replays the pinned `repro sine` recipe, where
  discriminator training and the cover test dominate at moderate n, then
  `repro grid-isolated` and the four `verify` suites: thousands of small
  exact rounds through the oracles, `run_exact`, the adversarial generator
  and `tv_discrete`, which guard per-call overhead. The exact part runs
  inside the same pass because alone its run-to-run spread on a shared
  2-core machine came near the largest allowed bound;
- spiral-gmm spends its time in GMM EM and Lloyd iterations while the core
  weight bookkeeping stays under 2%, so a core change should not move it;
- sine-400k is the large-n case: row aggregation in `normalize` and
  `uniform_on`, `predict` over every point, JSON validation of a ~10 MB
  report, and the process's peak memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from modecover.synthdata import make_dataset

Checks = list[tuple[str, bool]]


@dataclass(frozen=True)
class Call:
    argv: list[str]
    check: Callable[[Path], Checks] = field(repr=False)


@dataclass(frozen=True)
class Workload:
    name: str
    pinned_seed: int
    prepare: Callable[[int, Path], list[Call]] = field(repr=False)


def _read(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _recipe_checks(out_dir: Path) -> Checks:
    values = _read(out_dir, "values.json")
    return [(f"{values['recipe']}:{c['name']}", bool(c["pass"])) for c in values["checks"]]


def _verify_checks(out_dir: Path) -> Checks:
    report = _read(out_dir, "oracle_report.json")
    return [(f"verify:{report['suite']}:no_violations", report["violations"] == 0)]


def _boost_checks(n_points: int, with_modes: bool) -> Callable[[Path], Checks]:
    def check(out_dir: Path) -> Checks:
        summary = _read(out_dir, "summary.json")
        checks = [
            ("boost:n_samples", summary["n_samples"] == n_points),
            # every sample gets positive mixture mass
            ("boost:psi_hat_positive", (summary["psi_hat"] or 0.0) > 0.0),
        ]
        if with_modes:
            cov = summary["mode_coverage"]
            checks.append(("boost:modes_covered", cov["covered"] == cov["total"]))
        return checks

    return check


def _write_config(work_dir: Path, name: str, config: dict) -> str:
    path = work_dir / f"{name}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return str(path)


def prepare_sine_40k_certify(seed: int, work_dir: Path) -> list[Call]:
    # the datasets `repro sine` and `repro grid-isolated` build internally
    make_dataset("sine", seed=seed, n_major=40000, ratio=400,
                 minor_center=(0.0, 10.0), minor_var=1.0)
    make_dataset("grid_isolated", seed=seed, n=4420)
    calls = [Call(["repro", "sine", "--seed", str(seed)], _recipe_checks),
             Call(["repro", "grid-isolated", "--seed", str(seed)], _recipe_checks)]
    for suite in ("lemma1", "eq3", "dynamics", "theorem1"):
        calls.append(Call(["verify", suite, "--seed", str(seed)], _verify_checks))
    return calls


def prepare_spiral_gmm(seed: int, work_dir: Path) -> list[Call]:
    data = make_dataset("spiral", seed=seed, n=2000)
    config = {
        "dataset": {"kind": "spiral", "seed": seed, "params": {"n": 2000}},
        "mode": "empirical",
        "boost": {"rounds": 25, "delta": 0.25, "seed": seed, "disc_sample_size": 2048},
        "generator": {"kind": "gmm", "k": 12},
        "eval": {"n_samples": 20000, "frac": 0.01},
    }
    path = _write_config(work_dir, "spiral-gmm", config)
    return [Call(["boost", "--config", path], _boost_checks(len(data.points), True))]


def prepare_sine_400k(seed: int, work_dir: Path) -> list[Call]:
    data = make_dataset("sine", seed=seed, n_major=400000, ratio=400)
    config = {
        "dataset": {"kind": "sine", "seed": seed,
                    "params": {"n_major": 400000, "ratio": 400}},
        "mode": "empirical",
        "boost": {"rounds": 3, "delta": 0.25, "seed": seed, "disc_sample_size": 8192},
        "generator": {"kind": "histogram", "cells": 64},
    }
    path = _write_config(work_dir, "sine-400k", config)
    return [Call(["boost", "--config", path], _boost_checks(len(data.points), False))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sine-40k-certify", 11, prepare_sine_40k_certify),
        Workload("spiral-gmm", 5, prepare_spiral_gmm),
        Workload("sine-400k", 11, prepare_sine_400k),
    )
}
