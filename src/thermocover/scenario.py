"""Declarative experiment descriptions and the built-in protocol set.

A scenario pins everything a run needs: setpoint schedule, control target,
contact events, environment, controller and detection settings.  Scenarios
serialize to the flat key-value format and round-trip exactly.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import kvio
from .errors import ConfigError
from .mpc import MpcConfig, PenaltyForm, PumpHysteresis
from .params import (AmbientConfig, Mode, Target, preset_params,
                     require_temperature)
from .plant import (DEFAULT_PELTIER_LAG, DEFAULT_PELTIER_POWER, ContactEvent,
                    ContactKind, max_stable_dt)

#: Detection-grade observer filter time constant (s), applied to both poles.
#: 0 selects the natural (identification-exact) constants, which are far too
#: slow to see a 5 s touch.
DEFAULT_OBSERVER_TC = 1.0

#: A scenario name is the stem of its output files, so it may not leave the
#: output directory or hold a comment character.
_NAME = re.compile(r"[A-Za-z0-9_.+-]+")

#: Most plant substeps (samples x substeps per sample) one run may take;
#: the built-in protocols take 18 000 at most.
MAX_PLANT_STEPS = 10_000_000


@dataclass(frozen=True)
class DetectionConfig:
    threshold: float = 0.12      # W, on the estimate's magnitude
    min_hold: float = 1.0        # s the threshold must stay exceeded
    switch_gate: float = 6.0     # s ignored after each pump toggle

    def __post_init__(self):
        if not 0.0 < self.threshold < math.inf:
            raise ConfigError("detection threshold must be positive and finite")
        for value in (self.min_hold, self.switch_gate):
            if not 0.0 <= value < math.inf:
                raise ConfigError("min_hold and switch_gate must be finite "
                                  "and non-negative")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    setpoints: tuple          # ((value deg C, hold s), ...)
    target: Target = Target.COVER
    contacts: tuple = ()
    ambient: AmbientConfig = field(default_factory=AmbientConfig)
    controller: MpcConfig = field(default_factory=MpcConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    pump: PumpHysteresis = field(default_factory=PumpHysteresis)
    t_s: float = 1.0
    dt: float = 0.1
    total_duration: float | None = None
    initial_temp: float | None = None   # None -> ambient
    peltier_lag: float = DEFAULT_PELTIER_LAG
    peltier_power: float = DEFAULT_PELTIER_POWER
    observer_tc: float = DEFAULT_OBSERVER_TC

    def __post_init__(self):
        if not (isinstance(self.name, str) and _NAME.fullmatch(self.name)):
            raise ConfigError(f"scenario name {self.name!r} must be letters, "
                              "digits and _ . + - only")
        for value, hold in self.setpoints:
            require_temperature("setpoint", value)
            if not 0.0 < hold < math.inf:
                raise ConfigError("setpoint holds must be positive and "
                                  "finite")
        if not (0.0 < self.t_s < math.inf and 0.0 < self.dt < math.inf):
            raise ConfigError("t_s and dt must be positive and finite")
        n_sub = self.t_s / self.dt
        if not math.isfinite(n_sub) or abs(n_sub - round(n_sub)) > 1e-9:
            raise ConfigError("dt must divide t_s")
        if round(n_sub) < 10:
            raise ConfigError("need at least 10 plant substeps per sample")
        if not (0.0 <= self.peltier_lag < math.inf
                and 0.0 <= self.observer_tc < math.inf):
            raise ConfigError("peltier_lag, observer_tc must be in [0, inf)")
        require_temperature("initial_temp", self.start_temp)
        if not self.peltier_power > 0.0:
            raise ConfigError("peltier_power must be positive (inf: no limit)")
        if self.pump.state:
            raise ConfigError("pump.state is the controller's run-time latch; "
                              "a run starts with the pump off")
        if self.controller.t_s != self.t_s:
            # the controller's internal model must be discretized at the
            # rate the loop actually runs
            object.__setattr__(self, "controller",
                               replace(self.controller, t_s=self.t_s))
        dur = self.duration
        if not 0.0 <= dur < math.inf:
            raise ConfigError("run duration must be finite and non-negative")
        steps = dur / self.t_s * round(n_sub)
        if steps > MAX_PLANT_STEPS:
            raise ConfigError(f"run needs {steps:.3g} plant substeps, more "
                              f"than the {MAX_PLANT_STEPS} allowed")
        for c in self.contacts:
            if c.start < 0.0 or c.start + c.duration > dur:
                raise ConfigError(
                    f"contact at t = {c.start} s falls outside the run"
                )
        # the plant's substep margin in whichever mode the controller picks
        load = _peak_conductance(self.contacts, self.t_s)
        limit, mode = _plant_margin(self.target, load)
        if self.dt > limit:
            raise ConfigError(
                f"dt = {self.dt} s exceeds the plant's stability margin "
                f"{limit:.3g} s in {mode} mode (contact conductance "
                f"{load:g} W/K)")

    @property
    def duration(self) -> float:
        if self.total_duration is not None:
            return self.total_duration
        return float(sum(hold for _, hold in self.setpoints))

    @property
    def start_temp(self) -> float:
        return self.ambient.T_amb if self.initial_temp is None \
            else self.initial_temp

    def setpoint_at(self, t: float) -> float:
        if not self.setpoints:
            return self.start_temp
        acc = 0.0
        for value, hold in self.setpoints:
            acc += hold
            if t < acc:
                return value
        return self.setpoints[-1][0]

    def setpoint_preview(self, t: float, n: int) -> np.ndarray:
        """Reference preview handed to the controller.

        The current setpoint is held over the whole window: setpoint changes
        come from the operator at run time, so the controller cannot
        anticipate them.
        """
        return np.full(n, self.setpoint_at(t))

    def segments(self):
        """(start, end, setpoint) triples, clipped to the run duration."""
        out = []
        acc = 0.0
        dur = self.duration
        for value, hold in self.setpoints:
            start, acc = acc, acc + hold
            out.append((start, min(acc, dur), value))
            if acc >= dur:
                break
        return out


@functools.lru_cache(maxsize=16)
def _plant_margin(target: Target, load: float):
    """The shortest of the modes' plant substep limits, and its mode."""
    return min((max_stable_dt(preset_params(mode, target), load),
                mode.value) for mode in Mode)


def _peak_conductance(contacts, t_s) -> float:
    """Most contact conductance (W/K) open within any one sample: the peak
    overlap of the contact windows, each widened by one sample."""
    if len(contacts) < 2:
        return contacts[0].contact_conductance if contacts else 0.0
    # at equal times a window opens (0) before another closes (1)
    edges = sorted([(c.start, 0, c.contact_conductance) for c in contacts]
                   + [(c.start + c.duration + t_s, 1, -c.contact_conductance)
                      for c in contacts])
    return max(accumulate(g for _, _, g in edges))


# ---------------------------------------------------------------------------
# Built-in experiment protocols

def _exp1(name, setpoints, initial):
    return ScenarioSpec(
        name=name,
        setpoints=tuple(setpoints),
        target=Target.COVER,
        initial_temp=initial,
        t_s=1.0,
        dt=0.1,
    )


def _exp2(name, contacts):
    # starts pre-warmed at the first setpoint: the sensing protocol begins
    # once the display temperature is reached, as on the rig
    return ScenarioSpec(
        name=name,
        setpoints=((23.0, 90.0), (24.0, 90.0), (25.0, 90.0)),
        target=Target.PIPE,
        contacts=tuple(contacts),
        initial_temp=23.0,
        t_s=0.5,
        dt=0.05,
        observer_tc=0.4,
    )


def builtin_scenarios() -> dict:
    """The experiment protocols, keyed by name."""
    scenarios = [
        _exp1("exp1_heat",
              [(23.0, 600.0), (25.0, 600.0), (27.0, 600.0)], initial=None),
        _exp1("exp1_cool",
              [(21.5, 600.0), (21.0, 600.0), (20.0, 600.0)], initial=23.0),
        _exp1("exp1_heat_after_cool",
              [(21.0, 450.0), (23.0, 600.0), (24.0, 600.0)], initial=27.0),
        _exp2("exp2_grasp",
              [ContactEvent.preset(ContactKind.GRASP, start=135.0)]),
        _exp2("exp2_softtouch",
              [ContactEvent.preset(ContactKind.SOFT_TOUCH, start=135.0)]),
        _exp2("exp2_nocontact", []),
    ]
    return {s.name: s for s in scenarios}


# ---------------------------------------------------------------------------
# Flat key-value serialization

def _same(value):
    return value


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _integer(value) -> int:
    number = _finite(value)
    if not number.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(number)


def _choice(kind):
    """(parse, format) pair for an enum written as its lower-case value."""
    return (lambda value: kind(str(value).lower()),
            lambda member: member.value)


def _parse_initial(value):
    return None if str(value).lower() == "ambient" else _finite(value)


def _parse_setpoints(text) -> tuple:
    pairs = (chunk.partition(":") for chunk in str(text).split())
    return tuple((_finite(value), _finite(hold)) for value, _, hold in pairs)


_FLOAT = (_finite, _same)

#: (key, owner, attribute, (parse, format)) in output order.  Owner None is
#: the spec itself, any other owner names one of its parts.  A parse takes
#: the value text or the value its format wrote.  A format that returns None
#: leaves the key out.
_FIELDS = (
    ("name", None, "name", (str, _same)),
    ("target", None, "target", _choice(Target)),
    ("t_s", None, "t_s", _FLOAT),
    ("dt", None, "dt", _FLOAT),
    ("initial_temp", None, "initial_temp",
     (_parse_initial, lambda v: "ambient" if v is None else v)),
    ("peltier_lag", None, "peltier_lag", _FLOAT),
    # inf is allowed and means no power limit
    ("peltier_power", None, "peltier_power", (float, _same)),
    ("observer_tc", None, "observer_tc", _FLOAT),
    ("setpoints", None, "setpoints",
     (_parse_setpoints, lambda sp: " ".join(f"{float(v)!r}:{float(h)!r}"
                                          for v, h in sp))),
    ("total_duration", None, "total_duration", _FLOAT),
    ("ambient.t_amb", "ambient", "T_amb", _FLOAT),
    ("controller.H", "controller", "H", (_integer, _same)),
    ("controller.W1", "controller", "W1", _FLOAT),
    ("controller.W2", "controller", "W2", _FLOAT),
    ("controller.T_min_th", "controller", "T_min_th", _FLOAT),
    ("controller.T_max_th", "controller", "T_max_th", _FLOAT),
    ("controller.penalty_form", "controller", "penalty_form",
     _choice(PenaltyForm)),
    ("pump.on_band", "pump", "on_band", _FLOAT),
    ("pump.off_band", "pump", "off_band", _FLOAT),
    ("detection.threshold", "detection", "threshold", _FLOAT),
    ("detection.min_hold", "detection", "min_hold", _FLOAT),
    ("detection.switch_gate", "detection", "switch_gate", _FLOAT),
)

_PARTS = {"ambient": AmbientConfig, "controller": MpcConfig,
          "pump": PumpHysteresis, "detection": DetectionConfig}

#: contact.N.* keys: (name, attribute, (parse, format)).  An absent key
#: takes the value of ``ContactEvent.preset`` for the contact's kind, a
#: grasp when the kind is absent too.
_CONTACT_FIELDS = (
    ("start", "start", _FLOAT),
    ("duration", "duration", _FLOAT),
    ("kind", "kind", _choice(ContactKind)),
    ("conductance", "contact_conductance", _FLOAT),
    ("t_skin", "T_skin", _FLOAT),
)

#: The contact.N.* keys are written between the spec's own keys and the
#: keys of its parts.
_CONTACTS_AT = next(i for i, row in enumerate(_FIELDS) if row[1] is not None)


def _parse(key, parse, value):
    try:
        return parse(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} = {value!r}: {exc}") from None


def scenario_to_kv(spec: ScenarioSpec) -> dict:
    out = {}
    for i, (key, owner, attr, (_, fmt)) in enumerate(_FIELDS):
        if i == _CONTACTS_AT:
            for n, c in enumerate(spec.contacts):
                for name, c_attr, (_, c_fmt) in _CONTACT_FIELDS:
                    out[f"contact.{n}.{name}"] = c_fmt(getattr(c, c_attr))
        value = fmt(getattr(spec if owner is None else getattr(spec, owner),
                            attr))
        if value is not None:
            out[key] = value
    return out


def scenario_from_kv(items: dict) -> ScenarioSpec:
    items = dict(items)
    own = {"name": "scenario", "setpoints": ()}
    parts = {owner: {} for owner in _PARTS}
    for key, owner, attr, (parse, _) in _FIELDS:
        if key in items:
            value = _parse(key, parse, items.pop(key))
            (own if owner is None else parts[owner])[attr] = value

    contacts = []
    while f"contact.{len(contacts)}.start" in items:
        prefix = f"contact.{len(contacts)}."
        given = {attr: _parse(prefix + name, parse, items.pop(prefix + name))
                 for name, attr, (parse, _) in _CONTACT_FIELDS
                 if prefix + name in items}
        contacts.append(replace(ContactEvent.preset(
            given.get("kind", ContactKind.GRASP), given["start"]), **given))

    if items:
        raise ConfigError(f"unknown scenario keys: {sorted(items)}")
    return ScenarioSpec(
        contacts=tuple(contacts),
        **{owner: cls(**parts[owner]) for owner, cls in _PARTS.items()},
        **own,
    )


def load_scenario(path) -> ScenarioSpec:
    return scenario_from_kv(kvio.load(path))


def save_scenario(spec: ScenarioSpec, path) -> None:
    kvio.dump(scenario_to_kv(spec), path, header=f"scenario {spec.name}")


def apply_overrides(spec: ScenarioSpec, overrides) -> ScenarioSpec:
    """Rebuild a scenario with ``key=value`` strings applied on top."""
    return scenario_from_kv(kvio.apply_overrides(scenario_to_kv(spec),
                                                 overrides))
