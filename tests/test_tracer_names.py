"""The benchmark's tracer rebinds package functions and numpy/scipy routines
by name, and its self-tests rebind constructions by name; every such name must
resolve, or the harness fails."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hessform
import hessform.cli
from hessform.formats import write_matrix

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


#: Names that perfbench's self-tests rebind, as (module, attribute).
PATCH_TARGETS = [
    ("hessform.cli", "metzler_hess_4"),
    ("hessform.cli", "certificate_to_json"),
    ("hessform", "nonneg_hess_3"),
    ("hessform", "metzler_hess_4"),
    ("hessform", "ct_hess_3"),
]


@pytest.mark.parametrize("modname, attr", PATCH_TARGETS)
def test_every_patch_target_exists(modname, attr):
    assert hasattr(importlib.import_module(modname), attr)


def test_rebinding_the_cli_construction_reaches_the_cli(tmp_path, monkeypatch):
    """The CLI calls the 4x4 construction through its own name, so a raising
    stand-in there turns a certificate (exit 0) into an error (exit 1)."""
    path = tmp_path / "A.mat"
    write_matrix(path, np.array([[-1.0, 1.0, 0.0, 2.0], [1.0, -2.0, 1.0, 0.0],
                                 [0.0, 1.0, -1.0, 1.0], [3.0, 0.0, 1.0, -1.0]]))
    argv = ["hessenberg", str(path), "--mode", "metzler"]
    assert hessform.cli.run(argv) == 0

    def defect(*args, **kwargs):
        raise hessform.ConstructionDefect("forced")

    monkeypatch.setattr(hessform.cli, "metzler_hess_4", defect)
    assert hessform.cli.run(argv) == 1
