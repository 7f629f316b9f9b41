"""The benchmark's traced run wraps program functions by name, and its input
generator imports program names; a rename or deletion in the package would
break only benchmark runs, so check the names here, where every test run
sees them."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
GEN = PERFBENCH / "gen.py"


def _layers():
    # layers.py imports nothing from blamebox or numpy, so loading it by path
    # runs no program code
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _targets():
    return [(module, attr) for module, attr, *_ in _layers().TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_traced_name_resolves(module, attr):
    assert module.split(".")[0] == "blamebox"
    assert hasattr(importlib.import_module(module), attr)


def test_read_hooks_find_the_path():
    # the _read_bytes hook sizes the file at args[0] or kwargs["path"]
    layers = _layers()
    readers = [(module, attr) for module, attr, _, hook in layers.TARGETS
               if hook is layers._read_bytes]
    assert readers
    for module, attr in readers:
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        assert next(iter(params)) == "path", f"{module}.{attr}"


def _gen_imports():
    # parsed, not imported, so an import inside a function body counts too
    tree = ast.parse(GEN.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "blamebox"
            for alias in node.names]


def test_gen_imports_program_names():
    assert len(_gen_imports()) >= 10


@pytest.mark.parametrize("module,name", _gen_imports())
def test_gen_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
