"""Batch command-line front end.

Subcommands: `boost` runs a configured boosting job and writes its artifact
files; `repro` replays a pinned recipe and compares against expected values;
`verify` runs a theorem-certification oracle suite.

Exit codes: 0 success, 1 usage or configuration error, 2 verification or
tolerance failure, 3 runtime failure. Output files are byte-identical across
reruns with the same config and seed; wall-clock metadata goes to a separate
meta.json.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.resources
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .boost import (
    BoostConfig,
    BoostRunError,
    mixture_sample,
    run_empirical,
    run_exact,
)
from .bounds import coverage_guarantee, coverage_report, minority_weight_ratio, mode_coverage_count
from .core import ConfigurationError, load_points_csv, uniform_on
from .discriminator import DiscriminatorSpec
from .generators import generator_from_config
from .oracles import (
    check_mixture_cover_exhaustive,
    check_quarter_cover,
    check_single_round_cover,
    check_weight_growth,
)
from .repro import RECIPES, run_recipe
from .synthdata import Dataset, make_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3


def _schema(name: str) -> dict:
    ref = importlib.resources.files("modecover") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


# schema name -> its validator, built on first use
_VALIDATORS = {}


def _validator(schema_name: str):
    """The named schema's validator. The schema is checked and its validator
    built on first use, then kept for the rest of the process."""
    if schema_name not in _VALIDATORS:
        schema = _schema(schema_name)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        _VALIDATORS[schema_name] = cls(schema)
    return _VALIDATORS[schema_name]


def validate_json(obj: dict, schema_name: str) -> None:
    """Raise the `jsonschema.ValidationError` that `jsonschema.validate`
    would raise for `obj` against the named schema, if any."""
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(obj))
    if error is not None:
        raise error


def _json_sanitize(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_sanitize(v) for v in value]
    return value


def _finish(out, files: dict[str, str | dict | np.ndarray], doc: dict, argv: list[str]) -> None:
    """Write `files` and meta.json, which records `argv`, into directory
    `out` when one is given, then print `doc` as the one-line JSON summary.

    A str is written as it is, an array by `np.save`, and a dict as
    ``json.dumps(content, indent=2, sort_keys=True)`` plus a newline. A dict
    is encoded before its file is opened, so a document that cannot be
    encoded leaves no file.
    """
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        meta = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "version": __version__,
            "argv": argv,
        }
        for name, content in {**files, "meta.json": meta}.items():
            if isinstance(content, np.ndarray):
                np.save(out_dir / name, content)
                continue
            if isinstance(content, dict):
                content = json.dumps(content, indent=2, sort_keys=True) + "\n"
            (out_dir / name).write_text(content)
    print(json.dumps(_json_sanitize(doc), sort_keys=True))


def _load_run_config(path: str) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        validate_json(config, "run_config")
    except jsonschema.ValidationError as exc:
        raise ConfigurationError(
            f"config field {'/'.join(str(p) for p in exc.absolute_path)}: {exc.message}"
        ) from exc
    return config


def _build_dataset(spec: dict):
    kind = spec["kind"]
    if kind == "csv":
        if "path" not in spec:
            raise ConfigurationError("csv dataset needs a path")
        points, mode_ids = load_points_csv(spec["path"])
        return Dataset(points, mode_ids, None, None)
    try:
        return make_dataset(kind, seed=spec.get("seed", 0), **spec.get("params", {}))
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"dataset {kind!r} params: {exc}") from exc


def cmd_boost(args) -> int:
    config = _load_run_config(args.config)
    data = _build_dataset(config["dataset"])
    points, mode_ids, centers = data.points, data.mode_ids, data.centers
    boost_cfg = dict(config.get("boost", {}))
    if args.seed is not None:
        boost_cfg["seed"] = args.seed
    minority = None
    if "minority_mode_id" in config:
        if mode_ids is None:
            raise ConfigurationError("minority_mode_id set but dataset has no mode ids")
        minority = np.flatnonzero(mode_ids == config["minority_mode_id"])
        if minority.size == 0:
            raise ConfigurationError("minority_mode_id matches no samples")
    generator = generator_from_config(config["generator"], points)
    disc_spec = (
        DiscriminatorSpec(**config["discriminator"])
        if "discriminator" in config
        else None
    )
    cfg = BoostConfig(
        generator=generator,
        discriminator=disc_spec,
        **boost_cfg,
    )
    if "eval" in config and centers is None:
        raise ConfigurationError("eval set but dataset has no mode centers")

    if config["mode"] == "exact":
        target = uniform_on(points)
        if target.size != len(points):
            raise ConfigurationError(
                "exact mode needs distinct points (duplicates were aggregated)"
            )
        mixture, trace = run_exact(target, cfg)
        method = "exact_support"
    else:
        mixture, trace = run_empirical(points, cfg)
        method = "support_renormalized"
    report = coverage_report(trace.mixture_mass, trace.target)

    mode_cov = None
    if "eval" in config:
        n_eval = config["eval"].get("n_samples", 10000)
        frac = config["eval"].get("frac", 0.01)
        sigma0 = math.sqrt(data.mode_var)
        samples = mixture_sample(mixture, n_eval, seed=cfg.seed)
        mode_cov = {
            "covered": mode_coverage_count(
                samples, centers, sigma0, n_eval, len(centers), frac
            ),
            "total": len(centers),
            "n_samples": n_eval,
            "frac": frac,
            "radius": 3.0 * sigma0,
        }

    gamma_max = trace.max_tv
    minority_ratio = None if minority is None else minority_weight_ratio(trace, minority).tolist()
    guarantee_value = coverage_guarantee(cfg.delta, gamma_max, cfg.eta)
    summary = {
        "mode": config["mode"],
        "rounds": cfg.rounds,
        "delta": cfg.delta,
        "eta": cfg.eta,
        "seed": cfg.seed,
        "n_samples": int(len(points)),
        "psi_hat": report.psi_hat,
        "worst_subset_ratio": report.worst_subset.ratio,
        "max_round_tv": gamma_max,
        "final_log2_weight": trace.final_log2_total,
        "n_doubled_per_round": [r.n_doubled for r in trace.rounds],
        "coverage_guarantee": {
            "delta": cfg.delta,
            "gamma": gamma_max,
            "eta": cfg.eta,
            "value": guarantee_value,
            "vacuous": bool(guarantee_value <= 0),
        },
        "mode_coverage": mode_cov,
        "minority_ratio": minority_ratio,
    }
    validate_json(summary, "summary")
    mixture_doc = mixture.to_config()
    validate_json(mixture_doc, "mixture")
    report_doc = report.to_json_dict()
    report_doc["method"] = method
    validate_json(report_doc, "coverage_report")
    files = {
        "trace.csv": trace.to_csv(minority_ratio),
        "mixture.json": mixture_doc,
        "summary.json": summary,
        "coverage_report.json": report_doc,
        "ratios.npy": report.ratios,
    }
    _finish(args.out, files, summary, args.argv)
    return EXIT_OK


def cmd_repro(args) -> int:
    values, files = run_recipe(args.name, args.seed)
    validate_json(values, "values")
    _finish(args.out, {**files, "values.json": values}, values, args.argv)
    if not values["pass"]:
        failing = [c["name"] for c in values["checks"] if not c["pass"]]
        print(f"out-of-tolerance: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# suite -> (default trials, runner); the runners look the oracles up by name
SUITES = {
    "lemma1": (1000, lambda trials, seed: check_single_round_cover(trials, seed=seed)),
    "eq3": (1000, lambda trials, seed: check_quarter_cover(trials, seed=seed)),
    "dynamics": (500, lambda trials, seed: check_weight_growth(trials, seed=seed)),
    "theorem1": (
        100,
        lambda trials, seed: check_mixture_cover_exhaustive(trials=trials, seed=seed),
    ),
}


def cmd_verify(args) -> int:
    default_trials, run = SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    report = run(trials, args.seed if args.seed is not None else 0)
    doc = report.to_json_dict()
    validate_json(doc, "oracle_report")
    _finish(args.out, {"oracle_report.json": doc}, doc, args.argv)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _at_least(lo: int):
    """argparse type: an integer no smaller than `lo`."""
    def integer(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modecover",
        description="Boosted generator mixtures with pointwise coverage guarantees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_boost = sub.add_parser("boost", help="run a configured boosting job")
    p_boost.add_argument("--config", required=True, help="JSON run configuration")
    p_boost.add_argument("--seed", type=_at_least(0), default=None, help="override config seed")
    p_boost.add_argument("--out", default=None, help="output directory")
    p_boost.set_defaults(fn=cmd_boost)

    p_repro = sub.add_parser("repro", help="replay a pinned recipe")
    p_repro.add_argument("name", choices=sorted(RECIPES))
    p_repro.add_argument("--seed", type=_at_least(0), default=None)
    p_repro.add_argument("--out", default=None)
    p_repro.set_defaults(fn=cmd_repro)

    p_verify = sub.add_parser("verify", help="run a certification oracle suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--trials", type=_at_least(1), default=None)
    p_verify.add_argument("--seed", type=_at_least(0), default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Parse `argv` (the process's arguments when None), run its command and
    return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.argv = argv
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoostRunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
