import ast
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


def loaded_after(statement: str) -> list[str]:
    """The lmodel and numpy modules a fresh interpreter holds after ``statement``."""
    code = (
        f"import sys; {statement}\n"
        "print([m for m in sys.modules if m.split('.')[0] in ('lmodel', 'numpy')])"
    )
    src = os.path.dirname(os.path.dirname(lmodel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return ast.literal_eval(proc.stdout.decode())


def test_import_lmodel_loads_no_module():
    assert loaded_after("import lmodel") == ["lmodel"]


def test_numeric_loads_no_interval_code():
    # validate evaluates through numeric but never bounds a speed
    loaded = loaded_after("import lmodel.numeric")
    assert "lmodel.numeric" in loaded
    assert "lmodel.interval" not in loaded
