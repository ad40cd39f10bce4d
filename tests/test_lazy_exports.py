"""The lazy (PEP 562) re-export contract of the package ``__init__`` files.

Each package below declares where its public names live and imports a
submodule only when one of its names is first used.  For every name in
``__all__``: attribute access and ``from package import name`` resolve it
to the object itself (never to a submodule), ``dir()`` lists it, and once
resolved it is a plain global, so a second access does not reach the
module ``__getattr__`` again.  An unknown name raises ``AttributeError``
naming the package.
"""

import importlib
import types

import pytest

PACKAGES = (
    "repro",
    "repro.api",
    "repro.baselines",
    "repro.explore",
    "repro.map",
    "repro.netlist",
    "repro.obs",
    "repro.opt",
    "repro.place",
    "repro.verify",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert not isinstance(value, types.ModuleType), export
        namespace = {}
        exec(f"from {name} import {export}", namespace)
        assert namespace[export] is value
        assert export in listed, export


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module {name!r} has no attribute 'no_such_name'"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


@pytest.mark.parametrize("name", PACKAGES)
def test_second_access_skips_getattr(name, monkeypatch):
    package = importlib.import_module(name)
    for export in package.__all__:
        getattr(package, export)
    calls = []
    original = package.__getattr__

    def spy(attr):
        calls.append(attr)
        return original(attr)

    monkeypatch.setattr(package, "__getattr__", spy)
    for export in package.__all__:
        getattr(package, export)
    assert calls == []
    with pytest.raises(AttributeError):
        package.no_such_name
    assert calls == ["no_such_name"]  # the spy is live: misses still reach it
