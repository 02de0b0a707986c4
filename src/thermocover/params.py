"""Identified physical constants of the circulating-water cover system.

Two parameter sets exist, one for heating and one for cooling, because the
step tests used to identify them were run separately in each direction.  The
combined first-order constants additionally differ depending on whether the
cover surface or the water pipe is the controlled variable, so presets carry
a ``target`` as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .errors import ConfigError

#: Lowest temperature a configuration may hold, deg C.
ABSOLUTE_ZERO = -273.15

#: Largest |value| a temperature may take, in a configuration or a trace, deg
#: C.  A larger value is a unit or recording error; near 1e154 the fits'
#: squared residuals would also overflow.
MAX_ABS_TEMPERATURE = 1e6


def require_temperature(name: str, value: float) -> None:
    """Raise ConfigError unless ``value`` lies in [ABSOLUTE_ZERO,
    MAX_ABS_TEMPERATURE]."""
    if not ABSOLUTE_ZERO <= value <= MAX_ABS_TEMPERATURE:
        raise ConfigError(f"{name} = {value!r} must be finite, at least "
                          f"{ABSOLUTE_ZERO} and at most "
                          f"{MAX_ABS_TEMPERATURE:g} deg C")


class Mode(enum.Enum):
    HEAT = "heat"
    COOL = "cool"


class Target(enum.Enum):
    """Which temperature the controller regulates."""

    COVER = "cover"
    PIPE = "pipe"

    @property
    def node(self) -> str:
        """The measured node's name in ``PlantState`` and ``SimTrace``."""
        return "T_c" if self is Target.COVER else "T_w"


@dataclass(frozen=True)
class PlantParams:
    """Thermal constants of one operating mode.

    Resistances in K/W, capacitances in J/K, times in seconds.  ``R_com_C_com``
    and ``L_d`` describe the combined first-order-plus-dead-time approximation
    of the whole chain from Peltier surface to the controlled temperature.
    """

    R_w: float      # tank <-> water pipe (convective, pump on)
    R_c: float      # water pipe <-> cover
    R_co: float     # Peltier surface <-> copper tank
    R_aw: float     # water pipe <-> ambient
    # R_a is identified data from the paper, kept with the other constants;
    # no dynamics in this package use it.
    R_a: float      # combined-model surface loss scale
    C_w: float      # water pipe
    C_c: float      # cover
    C_co: float     # copper tank
    R_com_C_com: float  # combined time constant
    L_d: float      # combined dead time
    mode: Mode

    def __post_init__(self):
        for name in ("R_w", "R_c", "R_co", "R_aw", "R_a", "C_w", "C_c", "C_co"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.R_com_C_com <= 0.0:
            raise ConfigError("R_com_C_com must be strictly positive")
        if self.L_d < 0.0:
            raise ConfigError("L_d must be non-negative")
        # kept, because the plant's map cache hashes the constants at every
        # step; the floats only, which hash alike in every process
        object.__setattr__(self, "_hash", hash((
            self.R_w, self.R_c, self.R_co, self.R_aw, self.R_a, self.C_w,
            self.C_c, self.C_co, self.R_com_C_com, self.L_d)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class AmbientConfig:
    """Environment constants that the hardware write-up leaves implicit."""

    T_amb: float = 21.0   # room temperature, deg C

    def __post_init__(self):
        require_temperature("T_amb", self.T_amb)


# Identified constants, heating direction.  Values shared by both modes:
# C_co, R_co, R_aw.
_HEAT = PlantParams(
    R_w=6.00,
    R_c=120.12,
    R_co=0.09,
    R_aw=2.1,
    R_a=0.2,
    C_w=197.41,
    C_c=0.40,
    C_co=1152.57,
    R_com_C_com=500.0,
    L_d=45.0,
    mode=Mode.HEAT,
)

_COOL = PlantParams(
    R_w=5.56,
    R_c=30.03,
    R_co=0.09,
    R_aw=2.1,
    R_a=0.3,
    C_w=182.79,
    C_c=0.10,
    C_co=1152.57,
    R_com_C_com=450.0,
    L_d=30.0,
    mode=Mode.COOL,
)

# Combined-model rows differ between the cover-controlled and pipe-controlled
# configurations; the RC-network rows are common.
_TARGET_OVERRIDES = {
    (Mode.HEAT, Target.COVER): {},
    (Mode.COOL, Target.COVER): {},
    (Mode.HEAT, Target.PIPE): {"R_a": 0.3},
    (Mode.COOL, Target.PIPE): {"R_com_C_com": 410.0, "R_a": 0.7},
}


def preset_params(mode: Mode, target: Target = Target.COVER) -> PlantParams:
    """Return the identified parameter set for one mode and control target."""
    base = _HEAT if mode is Mode.HEAT else _COOL
    overrides = _TARGET_OVERRIDES[(mode, target)]
    return replace(base, **overrides) if overrides else base

