"""Every public top-level function and class in `src/modecover` is used by
the package itself, apart from the names allowlisted below."""

import ast
from pathlib import Path

import modecover

# name -> why it stays although nothing in src/ loads it; the first four are
# the pieces for checking an empirical run against the density that made its data
ALLOWED_UNUSED = {
    "mixture_pdf": "g*, the mixture density at fresh draws",
    "delta_beta_estimate": "the delta-covered share of the true mass",
    "noisy_coverage_guarantee": "the guarantee under classifier error",
    "generalization_sample_size": "the sample bound to set beside the run's n",
    "kl_discrete": "acceptance criterion 6 (divergence values)",
    "js_discrete": "acceptance criterion 6 (divergence values)",
    "hellinger_discrete": "acceptance criterion 6 (divergence values)",
    "minimax_cover_bound": "acceptance criterion 4 (one-shot game value)",
    "best_cover_threshold": "acceptance criterion 4 (best threshold)",
    "save_points_csv": "writer of the documented CSV input format",
    "mixture_support_masses": "a perfbench tracing target, and the reference "
    "the tests hold the loop's running RoundTrace.mixture_mass against",
}


def _unused_public_names(package_dir: Path) -> set[str]:
    trees = [
        ast.parse(path.read_text())
        for path in sorted(package_dir.glob("*.py"))
        if path.name != "__init__.py"
    ]
    defined = set()
    used = set()
    for tree in trees:
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return defined - used


def test_no_dead_public_helpers():
    unused = _unused_public_names(Path(modecover.__file__).parent)
    assert unused - set(ALLOWED_UNUSED) == set()
    assert set(ALLOWED_UNUSED) <= unused, "allowlisted name is now used; drop it"
