"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces the public callables listed in TARGETS with
wrappers that record one span per call: metric name, start, end, and the
index of the enclosing span. Every module of the package that holds a
reference to a target (``from .core import normalize`` binds a second name)
gets the wrapper, so calls are caught whichever module makes them.
`Tracer.uninstall()` puts the originals back; nothing in the package is
edited. `layer_metrics` turns the spans of one pass into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

PACKAGE = "modecover"


def _newton_iters(result):
    return {"newton_iters": len(result.loss_path) - 1}


def _em_iters(result):
    # loglik_path holds one entry per E step plus a final evaluation
    return {"em_iters": len(result.loglik_path) - 1}


def _oracle_trials(result):
    return {"trials": result.trials}


def _features_temp(args, kwargs):
    """Size of the (m, K, d) float64 difference tensor the rbf map builds,
    computed from the call's arguments rather than measured."""
    model, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    if model.centers is None:
        return {"temp_mb": 0.0}
    k, d = model.centers.shape
    return {"temp_mb": len(x) * k * d * 8 / 2**20}


# (metric name, module, attribute, on_call, on_result). Several callables may
# share a metric name; a span nested in one of the same name is not counted
# twice.
TARGETS = [
    ("core.normalize", "core", "normalize", None, None),
    ("core.uniform_on", "core", "uniform_on", None, None),
    ("core.sample", "core", "DiscreteDistribution.sample", None, None),
    ("core.double_weights", "core", "double_weights", None, None),
    ("generators.histogram.fit", "generators", "HistogramGenerator.fit", None, None),
    ("generators.gmm.fit", "generators", "GmmGenerator.fit", None, _em_iters),
    ("generators.adversarial.fit", "generators", "AdversarialCoverageGenerator.fit",
     None, None),
    ("generators.sample", "generators", "HistogramGenerator.sample", None, None),
    ("generators.sample", "generators", "GmmGenerator.sample", None, None),
    ("generators.sample", "generators", "AdversarialCoverageGenerator.sample", None, None),
    ("generators.kmeans_pp", "generators", "kmeans_pp_centers", None, None),
    ("generators.lloyd", "generators", "lloyd_iterations", None, None),
    ("discriminator.train", "discriminator", "train_discriminator", None, _newton_iters),
    ("discriminator.features", "discriminator", "Discriminator.features",
     _features_temp, None),
    ("discriminator.cover_test", "discriminator", "empirical_cover_test", None, None),
    ("boost.loop", "boost", "run_empirical", None, None),
    ("boost.loop", "boost", "run_exact", None, None),
    ("boost.mixture_sample", "boost", "mixture_sample", None, None),
    ("boost.mixture_support_masses", "boost", "mixture_support_masses", None, None),
    ("divergences.tv_discrete", "divergences", "tv_discrete", None, None),
    ("bounds.coverage_report", "bounds", "coverage_report", None, None),
    ("bounds.mode_coverage_count", "bounds", "mode_coverage_count", None, None),
    ("oracles.lemma1", "oracles", "check_single_round_cover", None, _oracle_trials),
    ("oracles.eq3", "oracles", "check_quarter_cover", None, _oracle_trials),
    ("oracles.dynamics", "oracles", "check_weight_growth", None, _oracle_trials),
    ("oracles.theorem1", "oracles", "check_mixture_cover_exhaustive", None,
     _oracle_trials),
    ("synthdata.make_dataset", "synthdata", "make_dataset", None, None),
    ("synthdata.make_dataset", "synthdata", "make_sine_dataset", None, None),
    ("synthdata.make_dataset", "synthdata", "make_spiral", None, None),
    ("synthdata.make_dataset", "synthdata", "make_grid_isolated", None, None),
    ("cli.validate_json", "cli", "validate_json", None, None),
]

# Oracle suites call one another (eq3 runs lemma1's check), so a span counts
# towards its suite only when no oracle span encloses it.
SHARED_GROUPS = {"oracles"}

ORACLE_SUITES = ("lemma1", "eq3", "dynamics", "theorem1")


class Tracer:
    """Records spans while installed. Spans are kept in memory as lists
    ``[name, start, end, parent, info]`` and handed out per pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, on_call, on_result):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = on_call(args, kwargs) if on_call else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, info])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result:
                spans[idx][4] = {**(info or {}), **on_result(result)}
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, mod_name, attr, on_call, on_result in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = (owner.__dict__ if owner_name else vars(module)).get(leaf)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, on_call, on_result)
            if owner_name:
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """Spans recorded since the last call; clears the buffer."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _group(name: str) -> str:
    layer = name.split(".", 1)[0]
    return layer if layer in SHARED_GROUPS else name


def layer_metrics(spans: list[list], run_s: float) -> dict[str, float]:
    """Per-layer busy times and counts of one traced pass.

    A layer's busy time is the summed duration of its outermost spans. A
    pass's CLI calls are not spans, so spans without a parent are the top
    level; their share of `run_s` shows how much of the pass is explained.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    groups = [_group(s[0]) for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    counted = [all(groups[a] != groups[i] for a in ancestors(i)) for i in range(n)]
    busy: dict[str, float] = {}
    child_s = [0.0] * n
    for i, s in enumerate(spans):
        if counted[i]:
            busy[s[0]] = busy.get(s[0], 0.0) + dur[i]
        if s[3] >= 0:
            child_s[s[3]] += dur[i]

    def info_sum(name, key):
        return float(sum(s[4][key] for s in spans if s[0] == name and s[4]))

    def under_train(i):
        return any(spans[a][0] == "discriminator.train" for a in ancestors(i))

    center_spans = [i for i, s in enumerate(spans)
                    if s[0] in ("generators.kmeans_pp", "generators.lloyd") and under_train(i)]
    n_train = sum(1 for s in spans if s[0] == "discriminator.train")
    seeding_in_train = sum(1 for i in center_spans if spans[i][0] == "generators.kmeans_pp")

    loops = [i for i, s in enumerate(spans) if s[0] == "boost.loop" and counted[i]]
    round_starts: dict[int, list[float]] = {i: [] for i in loops}
    for s in spans:
        if s[0] == "core.normalize" and s[3] in round_starts:
            round_starts[s[3]].append(s[1])
    # round time of the pass's longest loop; a median over all loops would
    # mix the few long rounds of an empirical run with thousands of tiny
    # exact rounds
    main_starts = round_starts[max(loops, key=lambda i: dur[i])] if loops else []
    gaps = [b - a for a, b in zip(main_starts, main_starts[1:])]

    oracle_s = sum(busy.get(f"oracles.{suite}", 0.0) for suite in ORACLE_SUITES)
    oracle_trials = sum(s[4]["trials"] for i, s in enumerate(spans)
                        if s[0].startswith("oracles.") and counted[i] and s[4])
    temps = [s[4]["temp_mb"] for s in spans if s[0] == "discriminator.features"]

    out = {f"{name}_s": busy.get(name, 0.0) for name in (
        "core.normalize", "core.uniform_on", "core.sample", "core.double_weights",
        "generators.histogram.fit", "generators.gmm.fit", "generators.adversarial.fit",
        "generators.sample", "generators.lloyd",
        "discriminator.train", "discriminator.features", "discriminator.cover_test",
        "boost.loop", "boost.mixture_sample", "boost.mixture_support_masses",
        "divergences.tv_discrete", "bounds.coverage_report", "bounds.mode_coverage_count",
        "synthdata.make_dataset", "cli.validate_json",
    )}
    out.update({f"oracles.{suite}_s": busy.get(f"oracles.{suite}", 0.0)
                for suite in ORACLE_SUITES})
    out.update({
        "generators.gmm.em_iters": info_sum("generators.gmm.fit", "em_iters"),
        "discriminator.centers_s": float(sum(dur[i] for i in center_spans if counted[i])),
        "discriminator.center_attempts_per_train": seeding_in_train / n_train if n_train else 0.0,
        "discriminator.newton_iters": info_sum("discriminator.train", "newton_iters"),
        "discriminator.features_temp_mb": max(temps, default=0.0),
        "boost.self_s": sum(dur[i] - child_s[i] for i in loops),
        "boost.round_s": statistics.median(gaps) if gaps else 0.0,
        "boost.rounds": float(sum(len(v) for v in round_starts.values())),
        "oracles.trials_per_s": oracle_trials / oracle_s if oracle_s else 0.0,
        "trace.span_share": sum(d for d, s in zip(dur, spans) if s[3] < 0) / run_s,
        "trace.spans": float(n),
    })
    return out
