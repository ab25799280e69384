"""The benchmark's tracer rebinds package functions and numpy/scipy routines
by name; every name it lists must resolve, or its install fails."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_every_layer_name_resolves(layer):
    module = importlib.import_module(f"hessform.{layer}")
    missing = [name for name in tracer.LAYERS[layer] if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("kernel", sorted(tracer.KERNEL))
def test_every_kernel_attribute_exists(kernel):
    modname, attr = tracer.KERNEL[kernel]
    assert hasattr(importlib.import_module(modname), attr)
