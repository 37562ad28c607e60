"""Each pipeline stage takes only the result of the stage before it: no
function of the package takes the group or the root system beside an object
built from them, which would give it two accounts of one datum."""

import importlib
import inspect
import pkgutil
import typing

import liebalance
from liebalance.groups import GroupSpec
from liebalance.modelbuild import MatrixModel
from liebalance.oracle import FloatModel, NumericRootReport
from liebalance.roots import RootSystem
from liebalance.toledo import Propagation

SOURCES = {RootSystem, GroupSpec}
BUILT = {Propagation, MatrixModel, FloatModel, NumericRootReport}


def package_functions():
    """(name, function) of every function and method the package defines,
    `__main__` left out."""
    for info in pkgutil.iter_modules(liebalance.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"liebalance.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    # a named tuple's __new__ belongs to a module of its own
                    if inspect.isfunction(member) and member.__module__ == module.__name__:
                        yield f"{info.name}.{name}.{attr}", member


def _types(hint):
    """The hint and every type inside it (Optional, List, Callable, ...)."""
    if isinstance(hint, list):   # the parameter types of a Callable
        for h in hint:
            yield from _types(h)
        return
    yield hint
    for arg in typing.get_args(hint):
        yield from _types(arg)


def mixes_stages(fn) -> bool:
    """Whether one of the function's parameters takes a group or a root system
    and another an object built from them."""
    hints = typing.get_type_hints(fn)
    hints.pop("return", None)
    taken = {t for hint in hints.values() for t in _types(hint)}
    return bool(taken & SOURCES) and bool(taken & BUILT)


def test_the_check_finds_a_function_that_takes_two_stages():
    def two_stages(system: RootSystem, prop: Propagation) -> RootSystem:
        return system

    def one_stage(prop: Propagation) -> RootSystem:
        return prop.system

    assert mixes_stages(two_stages) and not mixes_stages(one_stage)
    names = [name for name, _ in package_functions()]
    assert "oracle.compare_reports" in names and "modelbuild.MatrixModel.sigma" in names


def test_no_function_takes_a_stage_beside_what_it_was_built_from():
    assert [name for name, fn in package_functions() if mixes_stages(fn)] == []
