"""Two-node RC network of the water pipe and the cover.

State is [T_w, T_c]; inputs are the net heat into the water node
(u = q_w + q_aw) and the contact heat into the cover node (q_i).  The
network stores heat without leaking it, so the continuous state matrix has
one zero eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observer import water_channel_tf
from .params import PlantParams


@dataclass(frozen=True)
class TwoNodeModel:
    A: np.ndarray  # 2x2 state matrix
    B: np.ndarray  # 2x2 input matrix, columns [u, q_i]
    params: PlantParams

    def __post_init__(self):
        self.A.setflags(write=False)
        self.B.setflags(write=False)


def two_node_model(params: PlantParams) -> TwoNodeModel:
    k = 1.0 / params.R_c
    A = np.array([
        [-k / params.C_w, k / params.C_w],
        [k / params.C_c, -k / params.C_c],
    ])
    B = np.array([
        [1.0 / params.C_w, 0.0],
        [0.0, 1.0 / params.C_c],
    ])
    return TwoNodeModel(A=A, B=B, params=params)


def water_response(model: TwoNodeModel, s: complex) -> complex:
    """u -> T_w transfer of the realization, via the resolvent."""
    s = complex(s)
    M = s * np.eye(2) - model.A
    x = np.linalg.solve(M, model.B[:, 0])
    return x[0]


def water_transfer_direct(params: PlantParams, s: complex) -> complex:
    """u -> T_w transfer evaluated from the observer's rational form."""
    s = complex(s)
    num, den = water_channel_tf(params)
    return complex(np.polyval(num, s) / np.polyval(den, s))

