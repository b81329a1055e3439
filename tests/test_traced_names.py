"""Every name that the benchmark's tracer wraps exists in the package.

bench/spans.py wraps each (module, name) of its TARGETS where callers look
it up, and skips a name that is missing, so the metrics that name feeds
vanish from a traced run without an error.  TARGETS is read from the file,
without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

if not SPANS.is_file():
    pytest.skip(f"no benchmark tracer at {SPANS}", allow_module_level=True)


def traced_names():
    """TARGETS of bench/spans.py: (module, name, layer) triples."""
    for node in ast.parse(SPANS.read_text()).body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if targets == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no TARGETS")


@pytest.mark.parametrize(
    "module, name",
    [pytest.param(module, name, id=f"{module}.{name}") for module, name, _ in traced_names()],
)
def test_traced_name_exists(module, name):
    assert hasattr(importlib.import_module(f"wavequant.{module}"), name), (
        f"bench/spans.py wraps wavequant.{module}.{name}, which does not exist"
    )
