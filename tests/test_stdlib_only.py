import ast
import sys
from pathlib import Path

import branchlift


def test_package_imports_only_the_standard_library():
    src = Path(branchlift.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"



def _defined_names(tree):
    """The names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_orbits_sits_below_census():
    # ``orbits`` imports from the package only ``modular`` and
    # ``subgroups``, so ``covers`` may import it; ``census`` imports the
    # names it needs from it and defines none of them again.
    src = Path(branchlift.__file__).parent
    orbits, census = (
        ast.parse((src / name).read_text(), feature_version=(3, 10))
        for name in ("orbits.py", "census.py")
    )
    relative = {node.module for node in ast.walk(orbits)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"modular", "subgroups"}
    moved = {
        "DEFAULT_BOUND", "BoundExceededError", "_check_bound", "_checked_ring",
        "_seed_rows", "_identity_bases", "_gaussian_binomial", "_subgroup_count",
        "_orbit", "_swap_1n", "_orbits", "_tie_order", "_linear_extensions",
        "enumerate_subgroups",
    }
    assert moved <= _defined_names(orbits)
    assert not moved & _defined_names(census)
