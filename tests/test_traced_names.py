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


# the operands each hook reads: {position: parameter name}
OPERAND_HOOKS = [("_grid_flop", {0: "model", 1: "counts"}),
                 ("_bayes_columns", {1: "fpf_by_skill", 2: "obs"})]


@pytest.mark.parametrize("hook,operands", OPERAND_HOOKS, ids=[h for h, _ in OPERAND_HOOKS])
def test_operand_hooks_find_their_arguments(hook, operands):
    # each hook takes its operands from args by position or kwargs by name
    layers = _layers()
    hooked = [(module, attr) for module, attr, _, h in layers.TARGETS
              if h is getattr(layers, hook)]
    assert hooked
    for module, attr in hooked:
        params = list(inspect.signature(getattr(importlib.import_module(module), attr))
                      .parameters)
        assert {i: params[i] for i in operands if i < len(params)} == operands, \
            f"{module}.{attr}"


class _Counter:
    def __init__(self):
        self.counts = {}

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


def test_operand_hooks_read_the_row_sparse_model():
    # the hooks read model.mean.shape and fpf_by_skill[skill].T
    import numpy as np

    from blamebox import Belief, BlameConfig, ExperienceDb, Fingerprint, Observation, fit_fpf
    from blamebox.fpf import deviation_grid
    layers = _layers()
    counts = np.zeros((40, 6))
    counts[[3, 17]] = 1.0
    obs = Observation(sensors=None, fingerprint=Fingerprint(counts), success=True, skill="s")
    db, cfg = ExperienceDb("s", [obs]), BlameConfig()
    model = fit_fpf(db, cfg)
    stack = db.counts_stack(model.support)
    tracer = _Counter()
    layers._grid_flop(tracer, (model, stack, cfg), {}, deviation_grid(model, stack, cfg))
    layers._bayes_columns(tracer, (Belief.uniform(40), {"s": model}, obs), {}, None)
    assert tracer.counts["fpf.deviation_grid.flop"] > 0
    assert tracer.counts["blame.columns_built"] == 6
