"""The package's lazily resolved public names and its numpy-free spec layer."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergochain


def _fresh(code: str):
    """The JSON a fresh interpreter running code prints."""
    src = str(Path(ergochain.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_every_export_is_the_object_its_submodule_defines():
    names = [n for n in ergochain.__all__ if n != "__version__"]
    assert len(names) == len(set(names))
    for name in names:
        module = importlib.import_module(f"ergochain.{ergochain._SUBMODULE[name]}")
        obj = getattr(ergochain, name)
        assert obj is getattr(module, name), name
        if callable(obj):
            assert obj.__module__ == module.__name__, name


def test_no_name_is_listed_by_two_modules():
    # each public name has one import path besides the package's
    owner = {}
    for mod in dict.fromkeys(ergochain._SUBMODULE.values()):
        module = importlib.import_module(f"ergochain.{mod}")
        for name in getattr(module, "__all__", ()):
            assert owner.setdefault(name, mod) == mod, name


def test_dir_and_star_import_cover_all():
    assert set(ergochain.__all__) <= set(dir(ergochain))
    namespace = {}
    exec("from ergochain import *", namespace)
    assert all(namespace[n] is getattr(ergochain, n) for n in ergochain.__all__)


def test_unknown_attribute_raises_the_usual_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'ergochain' has no attribute 'nope'$"):
        ergochain.nope


def test_spec_layer_leaves_numpy_unloaded():
    assert _fresh("""
import json, sys
import ergochain
loaded = ["numpy" in sys.modules]
for name in ergochain.example_names():
    ergochain.example_spec(name), ergochain.example_description(name)
spec = ergochain.table((1.0, 0.5), (0.5,), tail_ratio=0.3)
assert ergochain.SequenceSpec.from_json(spec.to_json()) == spec
loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
""") == [False, False]


def test_spec_layer_loads_no_dataclasses_inspect_or_json():
    # sys.modules is compared with its state before the import, so modules
    # a .pth file loads at start-up do not count; only the JSON codec may
    # load json
    assert _fresh("""
import sys
before = set(sys.modules)
import ergochain
for name in ergochain.example_names():
    ergochain.example_spec(name), ergochain.example_description(name)
spec = ergochain.table((1.0, 0.5), (0.5,), tail_ratio=0.3)
assert ergochain.tail_limits(spec).exist
resolved = set(sys.modules) - before
assert ergochain.SequenceSpec.from_json(spec.to_json()) == spec
coded = set(sys.modules) - before - resolved
import json
heavy = {"numpy", "dataclasses", "inspect", "json"}
print(json.dumps([sorted(heavy & resolved), sorted((heavy - {"json"}) & coded),
                  "ergochain.spec" in resolved]))
""") == [[], [], True]


def test_the_classify_submodule_never_hides_the_function():
    # loading a submodule binds it on the package; classify shares its name
    assert _fresh("""
import json, sys, types
import ergochain.classify
import ergochain
fn = sys.modules["ergochain.classify"].classify
first = ergochain.classify is fn
import ergochain.classify as bound
print(json.dumps([first, bound is fn, ergochain.verdict_report is not None,
                  ergochain.classify is fn]))
""") == [True, True, True, True]
