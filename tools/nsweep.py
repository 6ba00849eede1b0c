"""Time one `boost` of the sine-400k benchmark configuration at several sizes.

Run from any directory:

    python tools/nsweep.py TREE [--sizes 100000 400000 1600000] [--runs 1] [--seed 11]

For each size in turn, `--runs` times over, it starts one fresh Python
process that imports `modecover` from TREE/src and runs one `boost` through
`modecover.cli.main` into a temporary directory. The configuration is that
of the sine-400k workload in TREE/perfbench/workloads.py (sine data with
`ratio` 400, a 64-cell histogram, 3 rounds, `disc_sample_size` 8192, the
seed for both the dataset and the run) with `n_major` set to the size.
Only one child runs at a time.

Each run prints one JSON line: the size, the run number, the child's exit
code, the wall time of the `cli.main` call, the child's peak RSS
(`ru_maxrss` in MiB, import included), and a sha256 over the names and
bytes of every output file except meta.json, which holds a timestamp. Run
it on two trees in the same environment to compare their times and peaks;
equal `outputs` digests show that the outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import hashlib, json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from modecover import cli
assert Path(cli.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()), cli.__file__
out = Path(sys.argv[3])
start = time.perf_counter()
code = cli.main(["boost", "--config", sys.argv[2], "--out", str(out)])
wall = time.perf_counter() - start
digest = hashlib.sha256()
for path in sorted(out.rglob("*")):
    if path.is_file() and path.name != "meta.json":
        digest.update(path.relative_to(out).as_posix().encode() + b"\\0")
        digest.update(path.read_bytes())
print(json.dumps({
    "exit": code,
    "wall_s": round(wall, 3),
    "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "outputs": digest.hexdigest(),
}))
"""


def sine_config(n_major: int, seed: int) -> dict:
    """The sine-400k workload's `boost` configuration at `n_major` points."""
    return {
        "dataset": {"kind": "sine", "seed": seed, "params": {"n_major": n_major, "ratio": 400}},
        "mode": "empirical",
        "boost": {"rounds": 3, "delta": 0.25, "seed": seed, "disc_sample_size": 8192},
        "generator": {"kind": "histogram", "cells": 64},
    }


def run_one(tree: Path, n_major: int, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(sine_config(n_major, seed)))
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(tree / "src"), str(config), str(Path(tmp) / "out")],
            capture_output=True,
            text=True,
            check=True,
        )
    return json.loads(child.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", default=[100_000, 400_000, 1_600_000])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    failed = False
    for n_major in args.sizes:
        for run in range(args.runs):
            result = run_one(args.tree.resolve(), n_major, args.seed)
            print(json.dumps({"n_major": n_major, "run": run, **result}), flush=True)
            failed |= result["exit"] != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
