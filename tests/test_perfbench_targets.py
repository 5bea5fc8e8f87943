"""Every span target of the benchmark names a function the package still has.

`perfbench/spans.py` wraps each (module, attribute path) of its `TARGETS`
by rebinding it, so a renamed or deleted function would only show when a
traced benchmark run fails.  The file is loaded by path: `perfbench` is not
a package.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("name", sorted(SPANS.TARGETS))
def test_span_targets_resolve_to_callables(name):
    for module_name, path in SPANS.TARGETS[name]:
        owner, attr = SPANS._resolve(module_name, path)
        # the tracer rebinds the owner's own attribute, not an inherited one
        assert attr in vars(owner), f"{module_name}.{path}"
        assert callable(vars(owner)[attr]), f"{module_name}.{path}"
