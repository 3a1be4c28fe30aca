import ast
from pathlib import Path

import branchlift
import branchlift.cli  # noqa: F401  (bench/run.py traces cli.main)

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _traced():
    """The ``TRACED`` table of bench/run.py, read without importing it."""
    tree = ast.parse(RUN.read_text(), filename=str(RUN))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} defines no TRACED")


def test_benchmark_traces_only_existing_functions():
    # ``bench/run.py --trace 1`` wraps each (module, attribute) and reads
    # the action-matrix cache; a removed one breaks the traced run
    traced = _traced()
    assert traced
    for module, attr, only in traced:
        owner = getattr(branchlift, module)
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
        for name in only or ():
            assert getattr(branchlift, name, None) is not None, f"{name} for {module}.{attr}"
    assert callable(branchlift.action.action_matrix.cache_info)
