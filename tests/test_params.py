"""Identified parameter presets."""

from dataclasses import replace

import pytest

from thermocover.errors import ConfigError
from thermocover.params import (AmbientConfig, Mode, PlantParams, Target,
                                preset_params)


def test_heat_preset_values(heat_params):
    assert heat_params.R_w == 6.00
    assert heat_params.C_w == 197.41
    assert heat_params.C_c == 0.40
    assert heat_params.R_c == 120.12
    assert heat_params.R_co == 0.09
    assert heat_params.C_co == 1152.57
    assert heat_params.R_aw == 2.1
    assert heat_params.R_com_C_com == 500.0
    assert heat_params.L_d == 45.0
    assert heat_params.mode is Mode.HEAT


def test_cool_preset_values(cool_params):
    assert cool_params.R_w == 5.56
    assert cool_params.C_w == 182.79
    assert cool_params.C_c == 0.10
    assert cool_params.R_c == 30.03
    assert cool_params.mode is Mode.COOL


def test_shared_constants_identical(heat_params, cool_params):
    assert heat_params.C_co == cool_params.C_co
    assert heat_params.R_co == cool_params.R_co
    assert heat_params.R_aw == cool_params.R_aw


def test_pipe_target_overrides_combined_model():
    cover = preset_params(Mode.COOL, Target.COVER)
    pipe = preset_params(Mode.COOL, Target.PIPE)
    assert pipe.R_com_C_com != cover.R_com_C_com
    # the RC-network rows are common to both control targets
    assert pipe.R_w == cover.R_w
    assert pipe.C_w == cover.C_w


def test_kept_hash_follows_the_constants(heat_params):
    # equal constants hash alike, and a changed copy hashes anew
    same = replace(heat_params, R_w=heat_params.R_w)
    assert same == heat_params and hash(same) == hash(heat_params)
    moved = replace(heat_params, R_c=2.0 * heat_params.R_c)
    assert moved != heat_params and hash(moved) != hash(heat_params)


def test_negative_resistance_rejected(heat_params):
    with pytest.raises(ConfigError):
        PlantParams(R_w=-1.0, R_c=heat_params.R_c, R_co=heat_params.R_co,
                    R_aw=heat_params.R_aw, R_a=heat_params.R_a,
                    C_w=heat_params.C_w, C_c=heat_params.C_c,
                    C_co=heat_params.C_co,
                    R_com_C_com=heat_params.R_com_C_com,
                    L_d=heat_params.L_d, mode=Mode.HEAT)


def test_negative_dead_time_rejected(heat_params):
    with pytest.raises(ConfigError):
        PlantParams(R_w=heat_params.R_w, R_c=heat_params.R_c,
                    R_co=heat_params.R_co, R_aw=heat_params.R_aw,
                    R_a=heat_params.R_a, C_w=heat_params.C_w,
                    C_c=heat_params.C_c, C_co=heat_params.C_co,
                    R_com_C_com=heat_params.R_com_C_com,
                    L_d=-1.0, mode=Mode.HEAT)


def test_ambient_defaults():
    with pytest.raises(ConfigError):
        AmbientConfig(T_amb=float("nan"))
