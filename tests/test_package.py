import importlib
import inspect

import pytest

import zpbox


@pytest.mark.parametrize("module_name", sorted(zpbox._EXPORTS))
def test_every_public_function_and_class_is_in_the_export_table(module_name):
    # constants are exempt; a name imported from another submodule is
    # checked under the submodule that defines it
    module = importlib.import_module(f"zpbox.{module_name}")
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined
    assert sorted(defined - set(zpbox._EXPORTS[module_name])) == []
