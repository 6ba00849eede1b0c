import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from modecover import (
    BoostConfig,
    ConfigurationError,
    DiscriminatorSpec,
    KdeGenerator,
    generator_from_config,
)
from modecover import cli
from modecover.bounds import coverage_report
from modecover.cli import _build_dataset, _finish, _load_run_config, main, validate_json
from modecover.repro import RECIPE_SEEDS, run_recipe

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, **overrides):
    config = {
        "dataset": {
            "kind": "gauss_grid",
            "seed": 7,
            "params": {"m_modes": 6, "n": 600, "var": 0.05},
        },
        "mode": "empirical",
        "boost": {"rounds": 3, "delta": 0.25, "eta": 0.01, "seed": 42,
                  "disc_sample_size": 600},
        "generator": {"kind": "gmm", "k": 5},
        "eval": {"n_samples": 4000, "frac": 0.01},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestBoostCommand:
    def test_full_run_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["boost", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("trace.csv", "mixture.json", "summary.json",
                     "coverage_report.json", "ratios.npy", "meta.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        validate_json(summary, "summary")
        assert summary["rounds"] == 3
        assert summary["mode_coverage"]["total"] == 6
        mixture = json.loads((out / "mixture.json").read_text())
        validate_json(mixture, "mixture")
        report = json.loads((out / "coverage_report.json").read_text())
        validate_json(report, "coverage_report")
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(line)["rounds"] == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["boost", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["boost", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("trace.csv", "mixture.json", "summary.json",
                     "coverage_report.json", "ratios.npy"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["boost", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(
            ["boost", "--config", str(cfg), "--out", str(out2), "--seed", "43"]
        ) == 0
        assert json.loads((out1 / "summary.json").read_text())["seed"] == 42
        assert json.loads((out2 / "summary.json").read_text())["seed"] == 43

    def test_csv_dataset_and_exact_mode(self, tmp_path):
        from modecover import save_points_csv

        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1, (40, 2))
        csv_path = tmp_path / "data.csv"
        save_points_csv(csv_path, pts)
        cfg = write_config(
            tmp_path,
            dataset={"kind": "csv", "path": str(csv_path)},
            mode="exact",
            generator={"kind": "adversarial", "gamma": 0.1},
        )
        cfg_doc = json.loads(cfg.read_text())
        del cfg_doc["eval"]
        cfg.write_text(json.dumps(cfg_doc))
        out = tmp_path / "out"
        assert main(["boost", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "exact"
        assert summary["psi_hat"] is not None

    def test_bad_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "empirical"}))
        assert main(["boost", "--config", str(path)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["boost", "--config", str(tmp_path / "nope.json")]) == 1

    def test_minority_without_mode_ids_exits_one(self, tmp_path):
        from modecover import save_points_csv

        csv_path = tmp_path / "d.csv"
        save_points_csv(csv_path, np.random.default_rng(1).normal(size=(20, 1)))
        cfg = write_config(
            tmp_path,
            dataset={"kind": "csv", "path": str(csv_path)},
            minority_mode_id=1,
        )
        assert main(["boost", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "dataset, csv_text",
    [
        ({"kind": "csv"}, "x0,x1\n1.0,2.0\nabc,3.0\n"),
        ({"kind": "csv"}, "x0,mode_id\n1.0,0\n2.0,zz\n"),
        ({"kind": "spiral", "params": {"bogus": 1}}, None),
        ({"kind": "spiral", "params": {"n": -3}}, None),
        ({"kind": "gauss_grid", "params": {"n": -2}}, None),
        ({"kind": "grid_isolated", "params": {"n": -1}}, None),
        ({"kind": "sine", "params": {"n_major": 5, "ratio": -1}}, None),
        ({"kind": "sine", "params": {"n_major": 500, "minor_center": [1, 2, 3]}}, None),
        ({"kind": "sine", "params": {"n_major": 500, "minor_center": "ab"}}, None),
        ({"kind": "gauss_grid", "params": {"n": 50, "region": -1}}, None),
    ],
    ids=[
        "bad_coordinate",
        "bad_mode_id",
        "unknown_param",
        "negative_n",
        "negative_n_gauss_grid",
        "negative_n_grid_isolated",
        "negative_ratio",
        "minor_center_wrong_length",
        "minor_center_string",
        "negative_region",
    ],
)
def test_malformed_dataset_exits_one(tmp_path, capsys, dataset, csv_text):
    if csv_text is not None:
        (tmp_path / "d.csv").write_text(csv_text)
        dataset = dict(dataset, path=str(tmp_path / "d.csv"))
    cfg = write_config(tmp_path, dataset=dataset)
    assert main(["boost", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "field_over_csv_limit"])
def test_unreadable_csv_exits_one(tmp_path, capsys, case):
    path = tmp_path / "d.csv"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b"x0\n\xff\xfe\n")
    elif case == "field_over_csv_limit":
        path.write_text("x0\n" + "1" * 200_000 + "\n")
    cfg = write_config(tmp_path, dataset={"kind": "csv", "path": str(path)})
    assert main(["boost", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert str(path) in err


SMALL_SPIRAL = {"kind": "spiral", "seed": 3, "params": {"n": 200}}


@pytest.mark.parametrize(
    "generator",
    [
        {"kind": "kde", "bandwidth": -1},
        {"kind": "histogram", "cells": 8, "alpha": 1.0},
        {"kind": "gmm", "k": 0},
        {"kind": "adversarial", "gamma": 1.5},
        {"kind": "adversarial", "victim": "worst"},
        {"kind": "fixed_family"},
        {"kind": "gmm", "k": "x"},
        {"kind": "histogram", "grid": {"lo": [0, 0]}},
        {"kind": "histogram", "cells": "x"},
        {"kind": "adversarial", "victim": {"a": 1}},
        {"kind": "adversarial", "victim": None},
        {"kind": "gmm", "K": 12},
        {"kind": "gmm", "k": 3.7},
        {"kind": "kde", "bandwith": 0.3},
        {"kind": "histogram", "cells": 8.9},
        {"kind": "adversarial", "victim": [-1]},
        {"kind": "adversarial", "victim": [1.7]},
        {"kind": "histogram", "grid": {"lo": [0], "hi": [1], "cells": 8}},
        {
            "kind": "fixed_family",
            "candidates": [{"weights": [1.0], "means": [[0.0]], "variances": [[1.0]]}],
        },
    ],
    ids=[
        "negative_bandwidth",
        "alpha_one",
        "gmm_k_zero",
        "gamma_above_one",
        "unknown_victim",
        "empty_family",
        "gmm_k_not_int",
        "grid_missing_keys",
        "cells_not_int",
        "victim_mapping",
        "victim_null",
        "gmm_unknown_key",
        "gmm_k_fractional",
        "kde_misspelled_key",
        "cells_fractional",
        "victim_negative",
        "victim_fractional",
        "grid_wrong_dim",
        "family_wrong_dim",
    ],
)
def test_malformed_generator_exits_one(tmp_path, capsys, generator):
    cfg = write_config(tmp_path, dataset=SMALL_SPIRAL, generator=generator)
    assert main(["boost", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("d", [6, 12])
def test_histogram_grid_too_large_exits_one(tmp_path, capsys, monkeypatch, d):
    # 64^6 cells take 512 GiB of masses and 64^12 pass the index range. The
    # machine reports 8 GiB, so no machine this runs on allocates the grid.
    from modecover import generators, save_points_csv

    sysconf = os.sysconf
    fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(generators.os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    csv_path = tmp_path / "data.csv"
    save_points_csv(csv_path, np.random.default_rng(d).normal(size=(200, d)))
    cfg = write_config(
        tmp_path,
        dataset={"kind": "csv", "path": str(csv_path)},
        generator={"kind": "histogram", "cells": 64},
    )
    assert main(["boost", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: generator 'histogram'")


@pytest.mark.parametrize("victim, code", [([5000], 1), ([3, 200], 1), ([199], 0)])
def test_exact_victim_index_checked_against_support(tmp_path, capsys, victim, code):
    cfg = write_config(
        tmp_path,
        dataset=SMALL_SPIRAL,
        mode="exact",
        boost={"rounds": 1, "delta": 0.25, "seed": 1},
        generator={"kind": "adversarial", "victim": victim},
    )
    assert main(["boost", "--config", str(cfg)]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"victim index {victim[-1]} is outside the 200 support points" in err


def test_broken_weight_invariant_exits_three(tmp_path, capsys, monkeypatch):
    import modecover.boost as boost_mod
    from modecover.core import double_weights

    def broken(lw, flags):
        out = double_weights(lw, flags)
        out[np.flatnonzero(flags)[:1]] += 2.0
        return out

    monkeypatch.setattr(boost_mod, "double_weights", broken)
    cfg = write_config(
        tmp_path,
        dataset=SMALL_SPIRAL,
        mode="exact",
        boost={"rounds": 2, "delta": 0.25, "seed": 1},
        generator={"kind": "adversarial", "victim": [3]},
    )
    assert main(["boost", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("run failed: round 1: log2 W_t+1")


def test_empirical_boost_groups_samples_once(tmp_path, monkeypatch):
    from modecover import core
    from modecover.synthdata import make_dataset

    cfg = write_config(tmp_path)
    dataset = json.loads(cfg.read_text())["dataset"]
    points = make_dataset(dataset["kind"], seed=dataset["seed"], **dataset["params"]).points
    row_groups = core.row_groups
    calls = []

    def counting(rows):
        calls.append(rows.shape == points.shape and np.array_equal(rows, points))
        return row_groups(rows)

    monkeypatch.setattr(core, "row_groups", counting)
    assert main(["boost", "--config", str(cfg)]) == 0
    assert sum(calls) == 1


def test_reports_without_evaluating_members_again(tmp_path, monkeypatch):
    from modecover import boost, oracles

    def refuse(mixture, points):
        raise AssertionError("mixture members evaluated again after the loop")

    # every module-level binding, so a caller that imported the name is caught
    for module in (boost, cli, oracles):
        if hasattr(module, "mixture_support_masses"):
            monkeypatch.setattr(module, "mixture_support_masses", refuse)
    assert main(["boost", "--config", str(write_config(tmp_path))]) == 0
    assert main(["verify", "theorem1", "--trials", "3"]) == 0


class TestJsonWriter:
    def test_written_bytes_equal_dumps(self, tmp_path, capsys):
        doc = {
            "nested": [[1, 2.5, [None, True]], [], {"z": [-1, 0.1], "a": {}}],
            "subnormal": 5e-324,
            "big": 1e308,
            "negative_zero": -0.0,
            "text": "gr\u00fc\u00dfe \u2713 \U0001d11e",
        }
        _finish(str(tmp_path), {"doc.json": doc}, {}, [])
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "doc.json").read_bytes() == want.encode()

    def test_empirical_coverage_report_parses_back(self, tmp_path, monkeypatch):
        reports = []

        def keep(masses, target):
            reports.append(coverage_report(masses, target))
            return reports[-1]

        monkeypatch.setattr(cli, "coverage_report", keep)
        out = tmp_path / "out"
        assert main(["boost", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        ratios = np.load(out / "ratios.npy")
        want = reports[0].ratios
        assert ratios.dtype == np.float64 and ratios.shape == want.shape
        assert np.array_equal(ratios.view(np.int64), want.view(np.int64))
        doc = json.loads((out / "coverage_report.json").read_text())
        assert doc["psi_hat"] == ratios.min()
        assert doc["n_points"] == ratios.size
        levels = (0.001, 0.01, 0.1, 0.5)
        quantiles = np.quantile(ratios, levels).tolist()
        assert doc["ratio_quantiles"] == dict(zip(map(str, levels), quantiles))

    def test_unencodable_doc_exits_three(self, tmp_path, capsys, monkeypatch):
        class Report:
            ok = True

            def to_json_dict(self):
                return {"suite": "lemma1", "values": {1, 2}}

        monkeypatch.setitem(cli.SUITES, "lemma1", (1, lambda trials, seed: Report()))
        monkeypatch.setattr(cli, "validate_json", lambda obj, name: None)
        assert main(["verify", "lemma1", "--out", str(tmp_path / "v")]) == 3
        assert capsys.readouterr().err == "error: Object of type set is not JSON serializable\n"
        assert not (tmp_path / "v" / "oracle_report.json").exists()


def _outcome(check, doc, schema_name):
    """None if `check` accepts `doc`, else the error's message and path."""
    try:
        check(doc, schema_name)
    except jsonschema.ValidationError as exc:
        return exc.message, list(exc.absolute_path)
    return None


def _plain_validate(doc, schema_name):
    jsonschema.validate(doc, cli._schema(schema_name))


def _report_doc():
    return {
        "psi_hat": 0.5,
        "n_points": 1000,
        "ratio_quantiles": {"0.001": 0.5, "0.01": 0.625, "0.1": 0.75, "0.5": 1.25},
        "worst_subset": {"indices": [0, 3, 7], "ratio": 0.5, "mass": 0.25},
        "method": "exact_support",
    }


class TestValidationFastPath:
    """`validate_json` accepts and rejects exactly what `jsonschema.validate`
    does, with the same message and path."""

    @pytest.mark.parametrize("index, accepted", [(True, False), (1.5, False), (1.0, True)])
    def test_worst_subset_indices(self, index, accepted):
        doc = _report_doc()
        doc["worst_subset"]["indices"][1] = index
        want = _outcome(_plain_validate, doc, "coverage_report")
        assert (want is None) == accepted
        assert _outcome(validate_json, doc, "coverage_report") == want

    @pytest.mark.parametrize(
        "field, value",
        [("rounds", 0), ("rounds", True), ("delta", "0.25"), ("seed", 1.5), ("extra", 1)],
    )
    def test_bad_run_config_field_message(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path)
        config = json.loads(path.read_text())
        config["boost"][field] = value
        path.write_text(json.dumps(config))
        with pytest.raises(jsonschema.ValidationError) as plain:
            jsonschema.validate(config, cli._schema("run_config"))
        where = "/".join(str(p) for p in plain.value.absolute_path)
        want = f"configuration error: config field {where}: {plain.value.message}\n"
        assert main(["boost", "--config", str(path)]) == 1
        assert capsys.readouterr().err == want


def test_cli_import_builds_no_validator():
    code = "import modecover.cli as cli; print(len(cli._VALIDATORS))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def test_cli_import_skips_scipy_special():
    code = "import sys, modecover.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_edge_generator_values_still_run(tmp_path):
    cfg = write_config(
        tmp_path,
        dataset=SMALL_SPIRAL,
        boost={"rounds": 1, "seed": 0, "disc_sample_size": 200},
        generator={"kind": "gmm", "k": 3, "restarts": 0, "max_iter": 0},
    )
    assert main(["boost", "--config", str(cfg)]) == 0


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name
)
def test_example_config_builds(path):
    # every shipped example passes the schema and the constructors' checks
    config = _load_run_config(str(path))
    data = _build_dataset(config["dataset"])
    generator = generator_from_config(config["generator"], data.points)
    if "discriminator" in config:
        DiscriminatorSpec(**config["discriminator"])
    BoostConfig(generator=generator, **config["boost"])



class TestReproCommand:
    @pytest.mark.parametrize("name", ["fig1", "fig6", "appendix-b"])
    def test_fast_recipes_pass(self, name, tmp_path, capsys):
        out = tmp_path / name
        assert main(["repro", name, "--out", str(out)]) == 0
        values = json.loads((out / "values.json").read_text())
        validate_json(values, "values")
        assert values["pass"] is True
        assert values["recipe"] == name
        assert values["seed"] == RECIPE_SEEDS[name]

    def test_unknown_recipe_usage_error(self):
        assert main(["repro", "nope"]) == 1

    def test_values_deterministic(self, tmp_path):
        a, _ = run_recipe("fig6")
        b, _ = run_recipe("fig6")
        assert a == b


class TestVerifyCommand:
    def test_eq3_suite(self, capsys):
        assert main(["verify", "eq3", "--trials", "100", "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        validate_json(doc, "oracle_report")
        assert doc["violations"] == 0

    def test_dynamics_suite(self, capsys):
        assert main(["verify", "dynamics", "--trials", "50", "--seed", "0"]) == 0

    def test_lemma1_suite(self, capsys):
        assert main(["verify", "lemma1", "--trials", "100", "--seed", "0"]) == 0

    def test_theorem1_suite(self, capsys):
        assert main(["verify", "theorem1", "--trials", "10", "--seed", "0"]) == 0

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "nope"]) == 1

    @pytest.mark.parametrize("suite", ["lemma1", "eq3", "dynamics", "theorem1"])
    def test_report_byte_identical_reruns(self, tmp_path, capsys, suite):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            argv = ["verify", suite, "--trials", "5", "--seed", "3", "--out", str(out)]
            assert main(argv) == 0
            outputs.append(
                (capsys.readouterr().out, (out / "oracle_report.json").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_report_written(self, tmp_path):
        out = tmp_path / "v"
        assert main(
            ["verify", "eq3", "--trials", "50", "--seed", "1", "--out", str(out)]
        ) == 0
        doc = json.loads((out / "oracle_report.json").read_text())
        assert doc["trials"] == 50


def test_mode_coverage_radius_uses_dataset_variance(tmp_path):
    # spiral modes have unit variance; the coverage radius must be 3, not
    # the 0.67 of the variance-0.05 datasets
    config = {
        "dataset": {"kind": "spiral", "seed": 2, "params": {"n": 400}},
        "mode": "exact",
        "boost": {"rounds": 2, "delta": 0.25, "seed": 1},
        "generator": {"kind": "adversarial", "gamma": 0.05},
        "eval": {"n_samples": 2000, "frac": 0.01},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["boost", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode_coverage"]["radius"] == 3.0
    assert summary["mode_coverage"]["covered"] == 20


def test_grid_isolated_recipe_via_cli(tmp_path):
    out = tmp_path / "gi"
    assert main(["repro", "grid-isolated", "--out", str(out)]) == 0
    values = json.loads((out / "values.json").read_text())
    validate_json(values, "values")
    assert values["pass"] is True
    assert (out / "minority_ratio.csv").exists()
    assert (out / "trace.csv").exists()


def test_grid_isolated_writes_one_minority_series(tmp_path):
    # trace.csv and minority_ratio.csv carry the same per-round share, bit for bit
    out = tmp_path / "gi"
    assert main(["repro", "grid-isolated", "--out", str(out)]) == 0
    trace_rows = (out / "trace.csv").read_text().splitlines()
    series_rows = (out / "minority_ratio.csv").read_text().splitlines()
    assert trace_rows[0].split(",")[4] == series_rows[0].split(",")[1] == "minority_ratio"
    from_trace = [row.split(",")[4] for row in trace_rows[1:]]
    from_series = [row.split(",")[1] for row in series_rows[1:]]
    assert len(from_trace) == 25 and "" not in from_trace
    assert from_trace == from_series


def test_meta_records_the_parsed_argv(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "extra-host-arg"])
    out = tmp_path / "given"
    argv = ["verify", "dynamics", "--trials", "3", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "meta.json").read_text())["argv"] == argv
    # with no list given, main parses the process's own arguments
    argv = ["verify", "dynamics", "--trials", "3", "--out", str(tmp_path / "host")]
    monkeypatch.setattr(sys, "argv", ["modecover", *argv])
    assert main() == 0
    assert json.loads((tmp_path / "host" / "meta.json").read_text())["argv"] == argv


def test_every_command_kind_twice_in_one_process(tmp_path, capsys):
    # State one command leaves for a later one (a module-level cache, a cache
    # keyed by object identity) would make the second pass differ from the first
    configs = {
        "gmm": {},
        "histogram": {"generator": {"kind": "histogram", "cells": 16}},
        "exact": {
            "dataset": SMALL_SPIRAL,
            "mode": "exact",
            "generator": {"kind": "adversarial", "gamma": 0.05},
        },
    }
    calls = [["repro", "grid-isolated"], ["repro", "appendix-b"]]
    calls += [["verify", suite, "--trials", "5"] for suite in sorted(cli.SUITES)]
    for name, overrides in configs.items():
        (tmp_path / name).mkdir()
        calls.append(["boost", "--config", str(write_config(tmp_path / name, **overrides))])

    def one_pass(label):
        outputs = []
        for i, call in enumerate(calls):
            out = tmp_path / label / str(i)
            assert main([*call, "--out", str(out)]) == 0, call
            files = {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.name != "meta.json"
            }
            outputs.append((capsys.readouterr().out, files))
        return outputs

    first = one_pass("first")
    assert all(files for _, files in first)
    assert one_pass("second") == first


def test_verify_threads_flag_rejected():
    assert main(["verify", "eq3", "--trials", "50", "--seed", "2", "--threads", "4"]) == 1


def test_verify_zero_trials_usage_error():
    assert main(["verify", "eq3", "--trials", "0"]) == 1


@pytest.mark.parametrize(
    "argv, config",
    [
        ([], {"boost": {"rounds": 3, "delta": 0.25, "seed": -1}}),
        ([], {"dataset": dict(SMALL_SPIRAL, seed=-2)}),
        (["--seed", "-1"], {}),
        (["verify", "lemma1", "--seed", "-1"], None),
        (["repro", "spiral", "--seed", "-1"], None),
    ],
    ids=["config_boost_seed", "config_dataset_seed", "boost_flag", "verify", "repro"],
)
def test_negative_seed_exits_one(tmp_path, capsys, argv, config):
    if config is not None:
        argv = ["boost", "--config", str(write_config(tmp_path, **config)), *argv]
    assert main(argv) == 1
    assert "seed" in capsys.readouterr().err  # was "error: expected non-negative integer"


def test_boost_config_rejects_negative_seed():
    with pytest.raises(ConfigurationError, match="seed"):
        BoostConfig(generator=KdeGenerator(), seed=-1)
