import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["ratiorich", "ratiorich.freqtab", "ratiorich.ratiofit", "ratiorich.estimators", "ratiorich.simlab"],
)
def test_star_import_resolves_every_listed_name(module):
    # a star-import raises AttributeError on a listed name the module no longer defines
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= namespace.keys()
