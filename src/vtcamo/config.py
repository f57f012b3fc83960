"""Flat key=value run configuration shared by the command line tools.

The format is a plain text file of ``key = value`` lines with ``#``
comments. The accepted keys are exactly those of
``RunConfig().resolved_dict()``, and each value is read with the type of
its key's default:

    device.<field>          any DeviceParams field, e.g. device.vdd = 0.9
    cost.<flavor>.<axis>    cost multiples, e.g. cost.camo8.area = 4
    seed                    default RNG seed for seeded subcommands

Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .camouflage import CostMultiples, CostTable
from .cell import CellFlavor
from .device import DeviceParams
from .errors import ConfigFileError, VtcamoError

_COST_AXES = ("area", "power", "delay")
FLAVOR_NAMES = {f.value.lower(): f for f in CellFlavor}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration with every default filled in."""

    device: DeviceParams = field(default_factory=DeviceParams)
    cost: CostTable = field(default_factory=CostTable)
    seed: int = 0

    def resolved_dict(self) -> dict:
        """Flat mapping of every effective setting, for report embedding."""
        out = {}
        for f in dataclasses.fields(DeviceParams):
            out[f"device.{f.name}"] = getattr(self.device, f.name)
        for flavor in sorted(self.cost.entries):
            m = self.cost.entries[flavor]
            for axis in _COST_AXES:
                out[f"cost.{flavor.value.lower()}.{axis}"] = getattr(m, axis)
        out["seed"] = self.seed
        return out


def _unknown(key: str) -> str:
    if key.startswith("device."):
        return f"unknown device parameter {key[len('device.'):]!r}"
    if key.startswith("cost."):
        return ("cost keys look like "
                f"cost.<camo8|cmos3a|cmos3b>.<area|power|delay>, got {key!r}")
    return f"unknown key {key!r}"


def parse_config(text: str) -> RunConfig:
    """Parse key=value configuration text into a RunConfig."""
    defaults = RunConfig().resolved_dict()
    given: dict[str, float | int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigFileError(f"line {lineno}: expected key = value, "
                                  f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key or not raw:
            raise ConfigFileError(f"line {lineno}: empty key or value")
        if key in given:
            raise ConfigFileError(f"line {lineno}: duplicate key {key!r}")
        if key not in defaults:
            raise ConfigFileError(f"line {lineno}: {_unknown(key)}")
        kind = type(defaults[key])
        try:
            given[key] = kind(raw)
        except ValueError:
            raise ConfigFileError(f"{key}: expected a {kind.__name__}, "
                                  f"got {raw!r}") from None
    flat = defaults | given
    try:
        device = DeviceParams(**{key[len("device."):]: value
                                 for key, value in flat.items()
                                 if key.startswith("device.")})
        cost = CostTable({flavor: CostMultiples(
            *(flat[f"cost.{name}.{axis}"] for axis in _COST_AXES))
            for name, flavor in FLAVOR_NAMES.items()})
    except VtcamoError as exc:
        raise ConfigFileError(str(exc)) from exc
    return RunConfig(device=device, cost=cost, seed=flat["seed"])


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
