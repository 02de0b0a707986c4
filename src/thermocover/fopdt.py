"""First-order-plus-dead-time approximation of the full thermal chain.

The whole path from the Peltier surface to the controlled temperature is
summarized as a single pole with time constant ``R_com_C_com`` behind a pure
transport delay ``L_d``.  The discrete form keeps unit DC gain exactly:
``a + b == 1`` by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .params import PlantParams


@dataclass(frozen=True)
class DiscreteFOPDT:
    """One-step recursion coefficients: T(k) = a*T(k-1) + b*u(k-1-d)."""

    a: float
    b: float
    d: int      # dead time in samples
    t_s: float  # sampling time, s

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ConfigError("pole coefficient a must lie in (0, 1)")
        if self.d < 0:
            raise ConfigError("dead-time sample count must be non-negative")


def discretize_fopdt(params: PlantParams, t_s: float) -> DiscreteFOPDT:
    """Backward-difference discretization of the combined first-order model."""
    if t_s <= 0.0:
        raise ConfigError("sampling time must be positive")
    if params.L_d > 0.0 and t_s > params.L_d:
        raise ConfigError(
            f"sampling time {t_s} s cannot exceed the dead time {params.L_d} s"
        )
    tau = params.R_com_C_com
    a = tau / (tau + t_s)
    b = t_s / (tau + t_s)
    d = round(params.L_d / t_s)
    return DiscreteFOPDT(a=a, b=b, d=d, t_s=t_s)


def fopdt_step_response(params: PlantParams, T_p_step: float, q_a: float,
                        t: float) -> float:
    """Closed-form response to a step in Peltier temperature at t = 0.

    Zero initial condition; the constant surface loss ``q_a`` shifts the
    effective input.  Returns 0 for any time inside the dead time.
    """
    if t < 0.0:
        raise ConfigError("time must be non-negative")
    if t < params.L_d:
        return 0.0
    tau = params.R_com_C_com
    return (T_p_step - q_a) * (1.0 - math.exp(-(t - params.L_d) / tau))
