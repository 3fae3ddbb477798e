import types

import normplane


def test_all_is_exactly_the_public_names_and_each_imports():
    # every public non-module name is listed once, and nothing else is
    public = {
        name for name in dir(normplane)
        if not name.startswith("_") and not isinstance(getattr(normplane, name), types.ModuleType)
    }
    assert len(normplane.__all__) == len(set(normplane.__all__))
    assert set(normplane.__all__) == public
    for name in normplane.__all__:
        namespace = {}
        exec(f"from normplane import {name}", namespace)
        assert namespace[name] is getattr(normplane, name)
    star = {}
    exec("from normplane import *", star)
    assert set(star) - {"__builtins__"} == public
