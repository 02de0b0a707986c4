"""Heat-flow observer: estimates contact heat from pipe-side temperatures.

The estimate inverts the water-channel model,

    q_hat = [ (R_c C_w C_c s^2 + (C_w + C_c) s) T_w
              - (R_c C_c s + 1) (q_w + q_aw) ] / F(s),

with the realizability filter F(s) = (g1 s + 1)(g2 s + 1).  The natural
choice g1 = R_c C_w, g2 = R_c C_c makes the inversion exact for the model's
own contact channel; faster filter constants trade that exactness for the
bandwidth needed to catch short touches, in the usual disturbance-observer
way.  The observer is a filter on (T_w, q), q = q_w + q_aw the net heat
into the water node.  Both are measurable without touching the cover
surface: q_w follows from the tank/pipe temperature difference, q_aw from
ambient, and the caller composes q.

The filter is discretized by the trapezoidal rule and kept only as its
transfer functions in 1/z, one shared denominator and one numerator per
input; ``observer_step`` runs them over whole records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.signal import lfilter, lfilter_zi

from .errors import ConfigError
from .params import PlantParams


@dataclass(frozen=True)
class ObserverState:
    """Discrete observer: the trapezoidal filter as transfer functions in
    1/z.  It holds no state; ``observer_step`` runs it over whole records."""

    t_s: float
    filter_time_constants: tuple
    a: np.ndarray       # shared denominator, a[0] = 1
    b_dT_w: np.ndarray  # T_w numerator over (1 - 1/z), on T_w's differences
    b_q: np.ndarray     # q numerator


#: Largest condition number of a matrix the observer build solves with: a
#: solve keeps about four of the sixteen significant digits.
MAX_CONDITION = 1e12


def _ill_conditioned(M: np.ndarray) -> bool:
    """True if M has a non-finite entry or a 1-norm condition number of
    ``MAX_CONDITION`` or more (inf when M is singular)."""
    return not (np.all(np.isfinite(M))
                and np.linalg.cond(M, 1) < MAX_CONDITION)


def build_observer(params: PlantParams, t_s: float,
                   filter_time_constants: tuple | None = None) -> ObserverState:
    """Build the discrete-time observer (trapezoidal discretization).

    ``filter_time_constants`` picks the two poles of F(s); ``None`` uses the
    natural constants (R_c C_w, R_c C_c) for which the model inversion is
    exact.
    """
    if t_s <= 0.0:
        raise ConfigError("sampling time must be positive")
    if filter_time_constants is None:
        g1 = params.R_c * params.C_w
        g2 = params.R_c * params.C_c
    else:
        g1, g2 = filter_time_constants
        if g1 <= 0.0 or g2 <= 0.0:
            raise ConfigError("filter time constants must be positive")

    def unrealizable():
        return ConfigError(
            f"observer filter time constants ({g1:.6g}, {g2:.6g}) s have no "
            f"well-conditioned discrete realization at t_s = {t_s:.6g} s")

    lead = g1 * g2
    if not 0.0 < lead < math.inf:
        raise unrealizable()
    den = (1.0, (g1 + g2) / lead, 1.0 / lead)
    # q_hat = [den_w(s) T_w - num_w(s) q] / F(s), F's lead normalized to 1
    num_w, den_w = water_channel_tf(params)
    num_Tw = [c / lead for c in den_w]
    num_q = [0.0, *(-c / lead for c in num_w)]

    # the trapezoidal rule solves with I - (t_s/2) A, A the filter's
    # companion matrix; the warm start's fixed point (lfilter_zi) is as
    # near singular as I - Ad, Ad = (I - (t_s/2) A)^-1 (I + (t_s/2) A)
    A = np.array([[-den[1], 1.0], [-den[2], 0.0]])
    ima = np.eye(2) - 0.5 * t_s * A
    if _ill_conditioned(ima):
        raise unrealizable()
    Ad = scipy.linalg.solve(ima, np.eye(2) + 0.5 * t_s * A)

    # M takes a quadratic's coefficients in s to those in 1/z at
    # s = K (1 - 1/z) / (1 + 1/z), times (1 + 1/z)^2.  The T_w numerator
    # has no s^0 term, so it is (1 - 1/z) times M1's.
    K = 2.0 / t_s
    M = np.array([[K * K, K, 1.0], [-2.0 * K * K, 0.0, 2.0], [K * K, -K, 1.0]])
    M1 = np.array([[K * K, K], [-K * K, K]])
    a = M @ den
    b_dT_w, b_q, a = M1 @ num_Tw[:2] / a[0], M @ num_q / a[0], a / a[0]
    if not np.all(np.isfinite(np.concatenate([a, b_dT_w, b_q]))) \
            or _ill_conditioned(np.eye(2) - Ad):
        raise unrealizable()
    return ObserverState(t_s=t_s, filter_time_constants=(g1, g2), a=a,
                         b_dT_w=b_dT_w, b_q=b_q)


def observer_step(obs: ObserverState, T_w, q) -> np.ndarray:
    """Run the observer over whole records of its inputs (T_w, q) and
    return the record of q_hat.

    q = q_w + q_aw is the net heat into the water node.  The T_w channel's
    exact zero at z = 1 is factored out as (1 - 1/z): the rest filters the
    first differences of T_w, so its large high-frequency gain scales steps
    rather than levels.  The filter starts at its fixed point for the first
    sample's inputs, with no startup transient of the slow pole: the q
    channel at ``lfilter_zi * q[0]``, the T_w channel at rest on a zero
    difference.
    """
    q_hat, _ = lfilter(obs.b_q, obs.a, q, zi=lfilter_zi(obs.b_q, obs.a) * q[0])
    return q_hat + lfilter(obs.b_dT_w, obs.a, np.diff(T_w, prepend=T_w[:1]))


# ---------------------------------------------------------------------------
# Design-model channel: the continuous transfer function of the linear
# pipe-cover model that ``build_observer`` inverts.

def water_channel_tf(params: PlantParams):
    """(q_w + q_aw) -> T_w of the design model, as (num, den)."""
    num = [params.R_c * params.C_c, 1.0]
    den = [params.R_c * params.C_w * params.C_c,
           params.C_w + params.C_c, 0.0]
    return num, den
