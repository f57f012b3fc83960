"""Threshold-programmed camouflaged logic: cells, circuits, attacks.

The package models logic cells whose function is selected by the
threshold-voltage assignment of pass switches rather than by visible
wiring, so all programmings share one layout. It provides the device
model and cell library, netlist-level camouflaging with cost reporting,
oracle-guided reverse engineering attacks, side-channel analysis with
countermeasures, and a command line front end.
"""

from .cell import (
    CAMOUFLAGEABLE,
    CamoConfig,
    CellFlavor,
    GateFunction,
    VT,
    behavior_table,
    config_for,
    decode,
    distinguishing_set,
    evaluate,
    truth_table,
)
from .device import (
    BiasPoint,
    DeviceParams,
    cell_worst_delay,
    default_bias,
    drain_current,
    gate_leakage,
    optimize_bias,
    sweep_to_csv,
    sweep_vt_window,
    switch_ratio,
)
from .netlist import (
    CamoKey,
    Gate,
    KeyEntry,
    Netlist,
    check_equivalence,
    critical_path,
    parse_bench,
    serialize_bench,
    simulate,
    validate_key,
)
from .camouflage import (
    CostTable,
    SelectionPolicy,
    apply_camouflage,
    effort_estimate,
    overhead_report,
    select_gates,
)
from .attack import (
    AttackReport,
    CountingOracle,
    brute_force_attack,
    find_sensitizing_vector,
    sensitization_attack,
)
from .sidechannel import (
    Signature,
    add_measurement_noise,
    balance_flavors,
    classify_function,
    measure_signature,
    template_signatures,
    thermal_compensated_bias,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CAMOUFLAGEABLE", "CamoConfig", "CellFlavor", "GateFunction", "VT",
    "behavior_table", "config_for", "decode", "distinguishing_set",
    "evaluate", "truth_table",
    "BiasPoint", "DeviceParams", "cell_worst_delay", "default_bias",
    "drain_current", "gate_leakage", "optimize_bias",
    "sweep_to_csv", "sweep_vt_window", "switch_ratio",
    "CamoKey", "Gate", "KeyEntry", "Netlist", "check_equivalence",
    "critical_path", "parse_bench", "serialize_bench", "simulate",
    "validate_key",
    "CostTable", "SelectionPolicy", "apply_camouflage", "effort_estimate",
    "overhead_report", "select_gates",
    "AttackReport", "CountingOracle", "brute_force_attack",
    "find_sensitizing_vector", "sensitization_attack",
    "Signature", "add_measurement_noise", "balance_flavors",
    "classify_function", "measure_signature", "template_signatures",
    "thermal_compensated_bias",
    "errors",
    "__version__",
]
