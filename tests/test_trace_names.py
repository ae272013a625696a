"""The benchmark's per-layer tracer patches public hopmetric names by
(module, attribute).  Every traced name must still resolve, and installing
then uninstalling the tracer must leave every patched object as it was, so
a refactor that drops a traced name fails here instead of in a traced
benchmark run."""
from __future__ import annotations

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(PERFBENCH)


def _resolve(modname: str, attr: str):
    obj = importlib.import_module(f"hopmetric.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve(layers):
    for modname, attr in layers.TRACED:
        assert callable(_resolve(modname, attr)), f"{modname}.{attr}"


def _bindings(layers):
    """Every name binding the tracer may patch: module globals of each
    hopmetric module and the class dicts of traced methods."""
    owners = [m for name, m in sys.modules.items()
              if name == "hopmetric" or name.startswith("hopmetric.")]
    for modname, attr in layers.TRACED:
        if "." in attr:
            owners.append(_resolve(modname, attr.split(".")[0]))
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_install_uninstall_restores_every_binding(layers):
    originals = {(m, a): _resolve(m, a) for m, a in layers.TRACED}
    before = _bindings(layers)
    tracer = layers.Tracer()
    tracer.install()
    try:
        for (modname, attr), orig in originals.items():
            assert _resolve(modname, attr) is not orig, f"{modname}.{attr} not patched"
    finally:
        tracer.uninstall()
    after = _bindings(layers)
    assert after.keys() == before.keys()
    for key, (owner, names) in before.items():
        now = after[key][1]
        assert now.keys() == names.keys(), owner
        for name, val in names.items():
            assert now[name] is val, f"{owner!r}.{name} not restored"
