"""The benchmark's layer tracer (bench/layertrace.py) patches library names
from outside the library, by the names in its TARGETS table. Deleting or
renaming one of them breaks traced benchmark runs, so each must resolve."""

import dataclasses
import importlib
import importlib.util
import pathlib

from cosimplex.braid import BraidAction
from cosimplex.ncprob import Distribution

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layertrace = _layertrace()
    for _layer, module_name, class_name, attrs, _hot in layertrace.TARGETS:
        module = importlib.import_module(module_name)
        # methods are patched in the class body, functions in the module
        owner = module if class_name is None else getattr(module, class_name)
        for attr in attrs:
            assert callable(vars(owner).get(attr)), (module_name, class_name, attr)
    # the fields the tracer replaces on the objects the factories return
    assert {"apply", "inverse_apply"} <= {f.name for f in dataclasses.fields(BraidAction)}
    assert "eval_word" in {f.name for f in dataclasses.fields(Distribution)}


def test_the_tracer_installs_on_the_library():
    # install() also reads the caches of cohomology and tl
    tracer = _layertrace().Tracer()
    with tracer.installed():
        assert tracer._patches
