"""Every annotation in the package resolves against its module's imports."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import zipstrata

MODULES = [f"zipstrata.{info.name}" for info in pkgutil.iter_modules(zipstrata.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name: str) -> None:
    module = importlib.import_module(name)
    for value in vars(module).values():
        if not (inspect.isfunction(value) or inspect.isclass(value)):
            continue
        if value.__module__ != name:
            continue
        typing.get_type_hints(value)
        if inspect.isclass(value):
            for member in vars(value).values():
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
