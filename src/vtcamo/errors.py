"""Exception types shared across the toolkit.

Every error raised on purpose derives from VtcamoError so CLI code can
catch one base class and map it to a structured exit. Parse errors carry
line/column information where it is known.
"""

from __future__ import annotations


class VtcamoError(Exception):
    """Base class for all toolkit errors."""


# --- device model ---------------------------------------------------------

class InvalidParameterError(VtcamoError):
    """A numeric argument is out of domain (non-finite, negative, ...)."""


class ContentionCollapseError(VtcamoError):
    """OFF-switch contention exceeds the ON drive for a cell config."""


# --- camouflaged cell -----------------------------------------------------

class UnsupportedFunctionError(VtcamoError):
    """A function is not realizable by the requested cell flavor."""


class MalformedConfigError(VtcamoError):
    """A switch configuration does not encode any supported function."""


class IndistinguishableError(VtcamoError):
    """Two candidate functions share a truth table and cannot be split."""


# --- netlist --------------------------------------------------------------

class BenchParseError(VtcamoError):
    """Base class for .bench file problems (carries line/column)."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class BenchSyntaxError(BenchParseError):
    """A line does not match the grammar."""


class UndefinedNetError(BenchParseError):
    """A referenced net is never defined as an input or gate output."""


class NetlistCycleError(BenchParseError):
    """The combinational gate graph contains a cycle."""


class ArityMismatchError(BenchParseError):
    """A gate has the wrong number of fanins for its function."""


class UnresolvedGateError(VtcamoError):
    """Simulation reached a camouflaged gate with no key entry."""


class KeyScopeError(VtcamoError):
    """A key names gates that are not camouflaged placeholders."""


class InputWidthError(VtcamoError):
    """An input vector has the wrong width or non-binary values."""


class IncompatibleNetlistsError(VtcamoError):
    """Two netlists cannot be compared (different PI/PO signatures)."""


# --- camouflage -----------------------------------------------------------

class FlavorMismatchError(VtcamoError):
    """A gate's function is not coverable by the chosen cell flavor."""


class InvalidCostTableError(VtcamoError):
    """A cost table entry is missing or below unity."""


class InvalidPolicyError(VtcamoError):
    """A gate-selection policy has an unknown strategy or bad budget."""


# --- attacks --------------------------------------------------------------

class AttackTooLargeError(VtcamoError):
    """The joint candidate space exceeds the enumeration guard."""


class UnresolvedFaninError(VtcamoError):
    """Sensitization requested for a gate whose fanin cone is unresolved."""


# --- side channel ---------------------------------------------------------

class TemplateSetError(VtcamoError):
    """Template set does not cover the flavor's candidate functions."""


class InsertionError(VtcamoError):
    """Flavor balancing could not attach a dummy cell to the netlist."""


# --- config / CLI ---------------------------------------------------------

class ConfigFileError(VtcamoError):
    """A run-config file has unknown keys or unparseable values."""


class BiasClampWarning(UserWarning):
    """A computed switch bias was clamped into the [0, vdd] range."""
