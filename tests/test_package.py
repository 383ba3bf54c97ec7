import ast
import inspect
import os
import pkgutil
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
    from lmodel import cli, exprs, motion

    for module in (lmodel, cli, exprs, motion):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_each_public_name_has_one_home():
    # a class or function is listed in the __all__ of the module that defines it only
    for info in pkgutil.iter_modules(lmodel.__path__):
        if info.name == "__main__":  # importing it would run the command line
            continue
        module = import_module(f"lmodel.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_cli_looks_up_only_exported_names():
    from lmodel import cli

    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_bound"
    ]
    assert calls
    for call in calls:
        assert len(call.args) == 1 and isinstance(call.args[0], ast.Constant), ast.unparse(call)
        assert call.args[0].value in lmodel.__all__, ast.unparse(call)


def test_cli_serves_library_names_and_nothing_else():
    from lmodel import cli, plan

    assert cli.exists_arrangement is plan.exists_arrangement
    assert cli.CyclicGraphError is plan.CyclicGraphError
    assert not hasattr(cli, "__path__")
    with pytest.raises(AttributeError, match="pair_constraints"):
        cli.pair_constraints  # defined in cgraph, but not a library name


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


def test_planning_names_through_the_cli_load_no_numpy():
    names = [
        name
        for module, exported in lmodel._EXPORTS.items()
        if module not in ("numeric", "collide")
        for name in exported
    ]
    loaded = loaded_after(f"import lmodel.cli as cli; [getattr(cli, n) for n in {names!r}]")
    assert "lmodel.plan" in loaded and "lmodel.cgraph" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"], loaded


def test_numeric_loads_no_interval_code():
    # validate evaluates through numeric but never bounds a speed
    loaded = loaded_after("import lmodel.numeric")
    assert "lmodel.numeric" in loaded
    assert "lmodel.interval" not in loaded
