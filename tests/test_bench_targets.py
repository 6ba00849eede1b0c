"""Every callable the benchmark's tracer wraps must exist where it looks.

`perfbench/tracing.py` looks each target up in its owner's own `__dict__`
(a module, or a class for ``Class.method``), so a target that is deleted,
renamed or only inherited is skipped and shows up only as
`missing_trace_targets` in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [
        pytest.param(f"{tracing.PACKAGE}.{mod}", attr, id=f"{mod}.{attr}")
        for _, mod, attr, _, _ in tracing.TARGETS
    ]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    owner_name, _, leaf = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert leaf in vars(owner), f"{module}.{attr} is not defined on its owner"
    assert callable(vars(owner)[leaf])
