"""The package namespace: `kypcert.__all__` lists the public names only."""

import types

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
