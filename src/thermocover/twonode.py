"""Two-node RC network of the water pipe and the cover.

State is [T_w, T_c]; inputs are the net heat into the water node
(u = q_w + q_aw) and the contact heat into the cover node (q_i).  The
network stores heat without leaking it, so the continuous state matrix has
one zero eigenvalue.  Its state matrix is the pipe/cover block of the
plant's network (``plant.network_matrices``) with the pump stopped and no
ambient leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observer import water_channel_tf
from .params import PlantParams
from .plant import network_matrices


@dataclass(frozen=True)
class TwoNodeModel:
    A: np.ndarray  # 2x2 state matrix
    B: np.ndarray  # 2x2 input matrix, columns [u, q_i]
    params: PlantParams

    def __post_init__(self):
        self.A.setflags(write=False)
        self.B.setflags(write=False)


def two_node_model(params: PlantParams) -> TwoNodeModel:
    p = params
    A = network_matrices(p.R_w, p.C_w, p.R_c, p.C_c, math.inf, p.C_co, p.R_co,
                         False)[0][2:, 2:]
    B = np.array([
        [1.0 / p.C_w, 0.0],
        [0.0, 1.0 / p.C_c],
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

