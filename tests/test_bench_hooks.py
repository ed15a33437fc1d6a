"""The benchmark's tracer patches program attributes by name, so a rename
in ``pdcqkd`` breaks the traced benchmark; this catches it in seconds."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # the module imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, *_ in load_tracing().SPANS]
)
def test_every_traced_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"pdcqkd.{module}"), attr)
