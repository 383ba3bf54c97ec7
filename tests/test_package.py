import os
import subprocess
import sys
from importlib import import_module

import pytest

import lmodel


def test_every_exported_name_resolves_to_its_module():
    for module, names in lmodel._EXPORTS.items():
        home = import_module(f"lmodel.{module}")
        for name in names:
            assert getattr(lmodel, name) is getattr(home, name), name


def test_dir_lists_every_exported_name():
    assert set(lmodel.__all__) <= set(dir(lmodel))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lmodel import *", namespace)
    assert {name: namespace[name] for name in lmodel.__all__} == {
        name: getattr(lmodel, name) for name in lmodel.__all__
    }


def test_unknown_names_are_attribute_errors():
    from lmodel import exprs, motion

    for module in (lmodel, exprs, motion):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_moved_names_stay_importable_from_their_old_modules():
    from lmodel import collide, exprs, motion, numeric

    for name in ("evaluate", "evaluate_on", "split_constants", "merge_shapes"):
        assert getattr(exprs, name) is getattr(numeric, name)
    for name in ("eval_position", "positions_on_grid", "EdgeLengthStats", "LengthReport",
                 "validate_edge_lengths"):
        assert getattr(motion, name) is getattr(numeric, name)
    for name in ("CollisionPair", "DetectionError", "pairs_to_json", "pairs_from_json"):
        assert getattr(collide, name) is getattr(motion, name)


def test_import_lmodel_loads_no_module():
    code = (
        "import sys, lmodel\n"
        "print([m for m in sys.modules if m.split('.')[0] in ('lmodel', 'numpy')])"
    )
    src = os.path.dirname(os.path.dirname(lmodel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["['lmodel']"]
