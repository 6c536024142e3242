import importlib
import inspect

import pytest

import zpbox
from zpbox.cli import parse_scenario


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: zpbox.solve_equilibrium(2.0),
        lambda: zpbox.equilibrium_size_at_t(2.0, 1.0),
        lambda: zpbox.integrate(zpbox.solve_equilibrium(2.0), 1000.0, 1e-5, dt=0.1),
        lambda: zpbox.to_reduced(9.109e-31, 1e-9, 1.0),
        lambda: parse_scenario(["equilibrium", "--K", "2"]),
    ],
    ids=["StrainSolution", "ThermalPoint", "Trajectory", "ReducedSystem", "Scenario"],
)
def test_records_reject_attribute_assignment(make):
    record = make()
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
