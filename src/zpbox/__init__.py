"""zpbox: a quantum particle in a 1-D box with elastically restrained walls.

The ground-state particle pushes its walls outward with a nonzero force
even at zero temperature; against a finite spring this strains the box,
binds the pair, stiffens the restoring force, and drives an energy
exchange when the box size oscillates.  This package computes all of it
in reduced units (see :mod:`zpbox.model`) and ships a CLI (``zpbox``).

``import zpbox`` loads no submodule and so no numpy (PEP 562).  The first
use of a name imports the submodule that defines it and binds all of that
submodule's public names here at once, as ``from .submodule import ...``
would, so each name keeps the object its submodule defined even if the
submodule's attribute is later replaced (as a test or tracer does).  This
lets ``python -m zpbox.cli`` run code before numpy loads.

The scalar functions of :mod:`zpbox.spectrum` and :mod:`zpbox.equilibrium`
are plain Python and load no numpy either; it loads with the first call
that builds arrays, or with :mod:`zpbox.thermal` or :mod:`zpbox.dynamics`.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "AnalysisError",
        "DomainError",
        "NumericalError",
        "UsageError",
        "ValidationError",
        "ZpboxError",
    ),
    "model": (
        "BOLTZMANN_KB",
        "DEFAULT_MASS_RATIO",
        "PLANCK_H",
        "ReducedSystem",
        "check_count",
        "check_finite",
        "check_positive",
        "to_reduced",
    ),
    "spectrum": (
        "check_level",
        "check_size",
        "collision_frequency",
        "count_nodes",
        "energy_level",
        "level_table",
        "position_expectation",
        "quantum_size",
        "wall_force",
        "wavefunction",
        "wavenumber",
    ),
    "equilibrium": (
        "StrainSolution",
        "check_grid",
        "equilibria",
        "minimize_oracle",
        "perturbed_energy",
        "solve_equilibrium",
        "total_energy",
    ),
    "thermal": (
        "ThermalBlock",
        "ThermalPoint",
        "equilibrium_size_at_t",
        "mean_wall_force",
        "occupancies",
        "thermal_blocks",
    ),
    "dynamics": (
        "STEPS_PER_PERIOD",
        "Trajectory",
        "energy_exchange_stats",
        "integrate",
        "measured_frequency",
        "restoring_force",
        "time_step",
        "verlet_frequency",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module_name = name if name in _EXPORTS else _OWNER.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, so ``-X importtime`` reports it;
    # importing a submodule binds it here as an attribute
    __import__(f"{__name__}.{module_name}")
    module = globals()[module_name]
    if name != module_name:
        for export in _EXPORTS[module_name]:
            globals()[export] = getattr(module, export)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
