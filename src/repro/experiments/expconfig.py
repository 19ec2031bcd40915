"""Driver-agnostic experiment run parameters.

Separate from :mod:`repro.experiments.registry` so drivers can import
the config helpers without creating an import cycle (the registry
imports every driver module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import NvxError


@dataclass(frozen=True)
class ExperimentConfig:
    """One uniform parameter block for every experiment driver.

    ``scale`` applies only to drivers that take a workload scale (the
    others ignore it, matching ``python -m repro all --scale``).
    ``parts`` restricts a decomposable driver to a subset of its part
    keys.  ``options`` are (name, value) pairs overriding driver
    keywords by name; unknown names are an :class:`NvxError`.
    """

    scale: Optional[float] = None
    parts: Optional[Tuple[str, ...]] = None
    options: Tuple[Tuple[str, object], ...] = ()


def apply_config(config: Optional[ExperimentConfig], parts_key=None,
                 **values) -> Dict:
    """Fold a config over a driver's default keyword values.

    ``values`` are the driver's effective kwargs; ``parts_key`` names
    the one that selects parts (None when the driver handles parts
    itself, e.g. compound part keys).  Returns the updated dict.
    """
    if config is None:
        return values
    if config.scale is not None and "scale" in values:
        values["scale"] = config.scale
    if config.parts is not None and parts_key is not None:
        values[parts_key] = tuple(config.parts)
    for key, value in config.options:
        if key not in values:
            raise NvxError(
                f"unknown experiment option {key!r}; "
                f"driver accepts: {sorted(values)}")
        values[key] = value
    return values
