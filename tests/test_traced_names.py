"""The benchmark's traced run wraps program functions by name; a rename or
deletion in the package would break only traced runs, so check the names
here, where every test run sees them."""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    # layers.py imports nothing from blamebox or numpy, so loading it by path
    # runs no program code
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for module, attr, *_ in layers.TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_traced_name_resolves(module, attr):
    assert module.split(".")[0] == "blamebox"
    assert hasattr(importlib.import_module(module), attr)
