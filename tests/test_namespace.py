"""The package namespace resolves its names on first use, from their modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cateselect


def test_every_exported_name_is_its_modules_own_object():
    for name in cateselect.__all__:
        module = importlib.import_module(f"cateselect.{cateselect._MODULE_OF[name]}")
        assert getattr(cateselect, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_exported_name():
    namespace: dict = {}
    exec("from cateselect import *", namespace)
    assert set(cateselect.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(cateselect, name) for name in cateselect.__all__)
    assert set(cateselect.__all__) <= set(dir(cateselect))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cateselect.no_such_name  # noqa: B018
    assert not hasattr(cateselect, "run_selectors")


def test_importing_the_package_loads_no_numpy():
    # the command-line entry sets the BLAS thread count before numpy loads
    env = dict(os.environ)
    src = str(Path(cateselect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, cateselect; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
