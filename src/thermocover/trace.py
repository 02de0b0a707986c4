"""Sampled simulation traces and their CSV form.

Column order is part of the interface:
t, T_p_cmd, T_p, T_co, T_w, T_c, pump_on, q_w, q_i_true, q_i_hat,
contact_flag.  Times carry at least six significant digits; boolean columns
are written as 0/1.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

COLUMNS = (
    "t", "T_p_cmd", "T_p", "T_co", "T_w", "T_c",
    "pump_on", "q_w", "q_i_true", "q_i_hat", "contact_flag",
)

_BOOL_COLUMNS = {"pump_on", "contact_flag"}

#: One CSV row: t to six decimals, booleans as 0/1, the rest to nine
#: significant digits.
_ROW_FORMAT = ",".join(
    "%.6f" if c == "t" else "%d" if c in _BOOL_COLUMNS else "%.9g"
    for c in COLUMNS) + "\n"

#: Rows formatted per block.  A block's cells become Python floats all at
#: once; a whole trace at once raised the peak memory of a run by ~0.6 MB.
_BLOCK = 256


@dataclass
class SimTrace:
    t: np.ndarray
    T_p_cmd: np.ndarray
    T_p: np.ndarray
    T_co: np.ndarray
    T_w: np.ndarray
    T_c: np.ndarray
    pump_on: np.ndarray
    q_w: np.ndarray
    q_i_true: np.ndarray
    q_i_hat: np.ndarray
    contact_flag: np.ndarray
    #: the controller's ``Mode`` at each sample, recorded by ``simulate``;
    #: not a CSV column, so a trace read back from CSV has none
    mode: np.ndarray | None = None

    def __len__(self):
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise ConfigError(f"unknown trace column {name!r}")
        return getattr(self, name)

    @staticmethod
    def from_rows(rows) -> "SimTrace":
        # one pass over the rows; each float column is a row of one block
        data = np.array(rows, dtype=float).reshape(-1, len(COLUMNS)).T.copy()
        return SimTrace(**{c: col.astype(bool) if c in _BOOL_COLUMNS else col
                           for c, col in zip(COLUMNS, data)})

    # -- CSV ---------------------------------------------------------------

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(COLUMNS) + "\n")
        columns = [getattr(self, c) for c in COLUMNS]
        for i in range(0, len(self), _BLOCK):
            # one float block, the booleans as 0.0/1.0, which %d prints as
            # 0/1, formatted by one % of the row format repeated per row
            block = np.column_stack([col[i:i + _BLOCK] for col in columns])
            buf.write(_ROW_FORMAT * len(block)
                      % tuple(block.ravel().tolist()))
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    @staticmethod
    def from_csv(path) -> "SimTrace":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != COLUMNS:
                raise ConfigError(
                    f"unexpected trace header {header!r}; "
                    f"expected {','.join(COLUMNS)}"
                )
            rows = fh.readlines()
        data = np.empty((0, len(COLUMNS)))
        if any(row.strip() for row in rows):
            try:
                data = np.loadtxt(rows, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad trace row: {exc}") from None
            if data.shape[1] != len(COLUMNS):
                raise ConfigError(f"{path}: expected {len(COLUMNS)} columns")
        arrays = {}
        for j, c in enumerate(COLUMNS):
            col = data[:, j]
            if c not in _BOOL_COLUMNS:
                arrays[c] = col.astype(float)
            elif np.all((col == 0.0) | (col == 1.0)):
                arrays[c] = col.astype(bool)
            else:
                raise ConfigError(f"{path}: column {c} must be 0 or 1")
        return SimTrace(**arrays)
