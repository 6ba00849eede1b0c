"""Digest every output of the benchmark workloads' CLI calls, to check that
a change leaves the program's outputs byte-identical.

Run from any directory:

    python tools/output_digest.py TREE SEED_CERT SEED_SPIRAL SEED_400K > out.json

It imports `modecover` from TREE/src and the workloads from TREE/perfbench
(whose `prepare` is only called, never changed), then runs every CLI call of
sine-40k-certify, spiral-gmm and sine-400k, with the three seeds in that
order, in this process. It prints JSON keyed by workload and call: a sha256
of the call's stdout, its exit code, and a sha256 of each file it wrote
except meta.json, which holds a timestamp. It also digests the writers no
workload calls, under keys that start with `extra/`: `repro fig1`, `fig6`,
`appendix-b` and `spiral` at their pinned seeds, a `boost` of each
TREE/configs/*.json, an exact-mode `boost` of a 400-point spiral against
the greedy adversary, and GMM `boost`s with k = 3 and k = 9 of a seeded 9-D
CSV that this script writes. The last reach the paths no workload takes:
`sqdist` at d >= 8 and the E-step's sums over k < 8 and k >= 8 components.
Run it on two trees in the same environment and compare the outputs with
`diff`.

After digesting every call it digests them all again, in the same order and
process, and exits 1, naming each key whose two digests differ, if any do:
state that one call leaves for a later one would show there. The printed
JSON is that of the first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = ("sine-40k-certify", "spiral-gmm", "sine-400k")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# an exact-mode run: distinct points, the greedy adversary as the generator
EXACT_CONFIG = {
    "dataset": {"kind": "spiral", "seed": 2, "params": {"n": 400}},
    "mode": "exact",
    "boost": {"rounds": 4, "delta": 0.25, "seed": 1},
    "generator": {"kind": "adversarial", "gamma": 0.05},
    "eval": {"n_samples": 2000, "frac": 0.01},
}


def _gmm_9d_configs(tmp: Path) -> list[Path]:
    """Empirical GMM runs with k = 3 and k = 9 on 600 points of four
    9-D Gaussian clusters, written as CSV from a fixed seed."""
    rng = np.random.default_rng(9)
    centers = rng.normal(0.0, 4.0, (4, 9))
    points = centers[rng.integers(4, size=600)] + rng.standard_normal((600, 9))
    csv = tmp / "gauss9d.csv"
    rows = [",".join(f"x{j}" for j in range(9))]
    rows += [",".join(repr(float(v)) for v in row) for row in points]
    csv.write_text("\n".join(rows) + "\n")
    paths = []
    for k in (3, 9):
        config = {
            "dataset": {"kind": "csv", "path": str(csv)},
            "mode": "empirical",
            "boost": {"rounds": 3, "delta": 0.25, "seed": 3, "disc_sample_size": 512},
            "generator": {"kind": "gmm", "k": k},
        }
        paths.append(tmp / f"gmm9d-k{k}.json")
        paths[-1].write_text(json.dumps(config))
    return paths


def _extra_calls(tree: Path, tmp: Path) -> dict[str, list[str]]:
    """The calls no workload makes, keyed by their digest labels."""
    exact = tmp / "exact.json"
    exact.write_text(json.dumps(EXACT_CONFIG))
    configs = [*sorted((tree / "configs").glob("*.json")), exact, *_gmm_9d_configs(tmp)]
    calls = {f"repro {name}": ["repro", name] for name in ("fig1", "fig6", "appendix-b", "spiral")}
    calls.update({f"boost {path.name}": ["boost", "--config", str(path)] for path in configs})
    return calls


def _digest_call(cli, argv: list[str], out_dir: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*argv, "--out", str(out_dir)])
    files = {
        path.relative_to(out_dir).as_posix(): _sha256(path.read_bytes())
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "meta.json"
    }
    return {"exit_code": code, "stdout": _sha256(stdout.getvalue().encode()), "files": files}


def digest_tree(tree: Path, seeds: list[int]) -> tuple[dict, list[str]]:
    """The first pass's digests, and the keys whose second pass differs."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    cli = importlib.import_module("modecover.cli")
    package = Path(sys.modules["modecover"].__file__).resolve()
    if (tree / "src").resolve() not in package.parents:
        raise SystemExit(f"imported {package}, not {tree / 'src'}")
    from workloads import WORKLOADS as ALL

    calls = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in zip(WORKLOADS, seeds, strict=True):
            work_dir = Path(tmp) / name
            work_dir.mkdir()
            for i, call in enumerate(ALL[name].prepare(seed, work_dir)):
                calls[f"{name}/{i} {' '.join(call.argv[:2])}"] = call.argv
        for label, argv in _extra_calls(tree, Path(tmp)).items():
            calls[f"extra/{label}"] = argv
        first, second = (
            {
                key: _digest_call(cli, argv, Path(tmp) / f"pass{p}" / str(i))
                for i, (key, argv) in enumerate(calls.items())
            }
            for p in range(2)
        )
    return first, [key for key in first if first[key] != second[key]]


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    digest, unrepeated = digest_tree(Path(argv[0]), [int(s) for s in argv[1:]])
    print(json.dumps(digest, indent=2, sort_keys=True))
    for key in unrepeated:
        print(f"second pass differs: {key}", file=sys.stderr)
    return 1 if unrepeated else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
