"""The benchmark's layer tracer still binds every function it wraps.

``perfbench/layertrace.py`` wraps varlp's layer functions by name from
outside the package (loaded here read-only, from its file, as the scripts
do), so a renamed or deleted function breaks only a traced benchmark run.
Installing and uninstalling one tracer on the loaded modules must wrap
each named function and then restore every module binding.
"""

import importlib.util
import pathlib
import sys

import varlp  # noqa: F401  (loads every layer module)

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of every loaded varlp module, and the two methods
    the tracer patches on OperatorImage."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "varlp" or name.startswith("varlp.")}
    got = {(name, attr): value for name, m in mods.items()
           for attr, value in vars(m).items()}
    image = vars(mods["varlp.operators"].OperatorImage)
    got.update({("OperatorImage", attr): image[attr] for attr in ("__init__", "evaluate")})
    return got


def test_the_tracer_wraps_every_layer_function_and_restores_every_binding():
    layertrace = _load_layertrace()
    before = _bindings()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        during = _bindings()
        for layer, names in layertrace.LAYER_FUNCTIONS.items():
            for name in names:
                key = ("varlp." + layer, name)
                assert key in before, key  # the function the tracer wraps exists
                assert during[key] is not before[key], key
        assert during["varlp.verify", "run_statement"] is not \
            before["varlp.verify", "run_statement"]
        assert during["OperatorImage", "evaluate"] is not before["OperatorImage", "evaluate"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
