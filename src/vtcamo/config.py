"""Flat key=value run configuration shared by the command line tools.

The format is a plain text file of ``key = value`` lines with ``#``
comments. Keys live in a few fixed namespaces:

    device.<field>          any DeviceParams field, e.g. device.vdd = 0.9
    cost.<flavor>.<axis>    cost multiples, e.g. cost.camo8.area = 4
    seed                    default RNG seed for seeded subcommands

Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .camouflage import CostTable
from .cell import CellFlavor
from .device import DeviceParams
from .errors import ConfigFileError, VtcamoError

_DEVICE_FIELDS = {f.name for f in dataclasses.fields(DeviceParams)}
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


def _parse_scalar(key: str, raw: str, kind: type) -> float | int:
    try:
        return kind(raw)
    except ValueError:
        raise ConfigFileError(f"{key}: expected a {kind.__name__}, "
                              f"got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse key=value configuration text into a RunConfig."""
    device_over: dict[str, float] = {}
    cost_over: dict[CellFlavor, dict[str, float]] = {}
    scalars: dict[str, int] = {}
    seen: set[str] = set()
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
        if key in seen:
            raise ConfigFileError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key.startswith("device."):
            name = key[len("device."):]
            if name not in _DEVICE_FIELDS:
                raise ConfigFileError(f"line {lineno}: unknown device "
                                      f"parameter {name!r}")
            device_over[name] = _parse_scalar(key, raw, float)
        elif key.startswith("cost."):
            parts = key.split(".")
            if (len(parts) != 3 or parts[1] not in FLAVOR_NAMES
                    or parts[2] not in _COST_AXES):
                raise ConfigFileError(
                    f"line {lineno}: cost keys look like "
                    f"cost.<camo8|cmos3a|cmos3b>.<area|power|delay>, "
                    f"got {key!r}")
            flavor = FLAVOR_NAMES[parts[1]]
            cost_over.setdefault(flavor, {})[parts[2]] = _parse_scalar(
                key, raw, float)
        elif key == "seed":
            scalars["seed"] = _parse_scalar(key, raw, int)
        else:
            raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
    try:
        device = DeviceParams(**device_over)
        entries = dict(CostTable().entries)
        for flavor, axes in cost_over.items():
            entries[flavor] = dataclasses.replace(entries[flavor], **axes)
        cost = CostTable(entries)
    except VtcamoError as exc:
        raise ConfigFileError(str(exc)) from exc
    return RunConfig(device=device, cost=cost, **scalars)


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
