import importlib
import pkgutil
import types

import paritysat


def _modules() -> list[types.ModuleType]:
    return [paritysat] + [importlib.import_module(info.name) for info in
                          pkgutil.walk_packages(paritysat.__path__, "paritysat.")]


def test_every_name_in_an_all_list_resolves():
    checked = []
    for module in _modules():
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        checked.append(module.__name__)
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], (module.__name__, missing)
    assert {"paritysat.sat", "paritysat.sat.solver", "paritysat.peephole",
            "paritysat.blockwise"} <= set(checked)


def test_the_package_binds_only_exported_names():
    # ``paritysat`` keeps no ``__all__`` of its own: each public name it
    # binds must be one the module defining it exports
    for name, value in vars(paritysat).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        home = importlib.import_module(value.__module__)
        assert name in home.__all__, (name, home.__name__)
