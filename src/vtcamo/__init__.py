"""Threshold-programmed camouflaged logic: cells, circuits, attacks.

The package models logic cells whose function is selected by the
threshold-voltage assignment of pass switches rather than by visible
wiring, so all programmings share one layout. It provides the device
model and cell library, netlist-level camouflaging with cost reporting,
oracle-guided reverse engineering attacks, side-channel analysis with
countermeasures, and a command line front end. ``import vtcamo`` loads
no layer: the first lookup of a public name loads the module that
defines it, and what that module imports.
"""

import importlib

_TABLE = (  # (defining module, public names), in ``__all__`` order
    ("cell", "CAMOUFLAGEABLE CamoConfig CellFlavor GateFunction VT "
     "behavior_table config_for decode distinguishing_set evaluate "
     "truth_table"),
    ("device", "BiasPoint DeviceParams cell_worst_delay default_bias "
     "drain_current gate_leakage optimize_bias sweep_to_csv "
     "sweep_vt_window switch_ratio"),
    ("netlist", "CamoKey Gate KeyEntry Netlist check_equivalence "
     "critical_path parse_bench serialize_bench simulate validate_key"),
    ("camouflage", "CostTable SelectionPolicy apply_camouflage "
     "effort_estimate overhead_report select_gates"),
    ("attack", "AttackReport"),
    ("netlist", "CountingOracle"),  # the oracle the attacks query
    ("attack", "brute_force_attack find_sensitizing_vector "
     "sensitization_attack"),
    ("sidechannel", "Signature add_measurement_noise balance_flavors "
     "classify_function measure_signature template_signatures "
     "thermal_compensated_bias"),
)
_MODULE_OF = {n: m for m, names in _TABLE for n in names.split()}
__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "errors", "__version__"]


def __getattr__(name):
    if name == "errors":  # importing a submodule binds it on the package
        return importlib.import_module(".errors", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _MODULE_OF[name], __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return __all__
