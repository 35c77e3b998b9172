"""The package namespace: `kypcert.__all__` lists the public names only, and
importing the package leaves `scipy.linalg` out."""

import subprocess
import sys
import types

import pytest

import kypcert


def test_star_import_binds_no_module():
    namespace = {}
    exec("from kypcert import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert set(bound) == set(kypcert.__all__)
    assert not [name for name, value in bound.items() if isinstance(value, types.ModuleType)]


def test_every_public_name_resolves():
    for name in kypcert.__all__:
        assert getattr(kypcert, name) is not None, name


LAPACK_ROUTINES = ("zgees", "zgesv", "zpotrf", "ztrsen", "ztrtri")


def _fresh_python(code: str) -> str:
    # a fresh interpreter: this process has imported scipy.linalg itself
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["kypcert", "kypcert.cli"])
def test_import_leaves_scipy_linalg_out(module):
    assert _fresh_python(f"import sys, {module}; print('scipy.linalg' in sys.modules)") == "False"


@pytest.mark.parametrize("first", ["kypcert._linalg", "scipy.linalg.lapack"])
def test_lapack_routines_are_scipys_objects_in_either_import_order(first):
    code = (f"import {first}, kypcert._linalg as ours, scipy.linalg.lapack as theirs\n"
            f"print(all(getattr(ours, f) is getattr(theirs, f) for f in {LAPACK_ROUTINES!r}))")
    assert _fresh_python(code) == "True"
