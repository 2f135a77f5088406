"""Every public entry point refuses the values each input rule excludes.

Each rule is one function (`fock._check_squeezing`, `two_port._check_lambda_y`,
`fock._check_positive`, `fock._check_integer`); the table below gives every
entry point that takes such an input its rule's bad values and requires a
ValueError that names the input, never a nan, an IndexError or a TypeError.
"""
import math
import os
from unittest import mock

import numpy as np
import pytest

from cvpbt import bounds, fock, nport, oracle, two_port
from cvpbt.two_port import ChannelParams

BAD = {
    "squeezing": [-0.5, 1.0, 1.5, math.nan],
    "lambda_y": [0.0, 1e-9, -0.5, 1.5, math.nan],
    "tolerance": [0.0, -1.0, math.nan, math.inf],
    "integer": [2.5, True],
}

POINT = ChannelParams(0.5, 0.5)


def _proto():
    return oracle.TruncatedProtocol(POINT, 3)


def _budget(value):
    with mock.patch.dict(os.environ, {"CVPBT_MEM_BUDGET_MB": repr(value)}):
        return oracle.memory_budget()


# rule -> (entry point, call with the bad value, the name its message gives)
ENTRY_POINTS = {
    "squeezing": [
        ("fock.adaptive_cutoff", lambda v: fock.adaptive_cutoff(v), "squeezing parameter"),
        ("fock.chi", lambda v: fock.chi(v, 1), "squeezing parameter"),
        ("fock.chi_vector", lambda v: fock.chi_vector(np.array([0.2, v]), 3), "squeezing parameter"),
        ("fock.tmsv_ket", lambda v: fock.tmsv_ket(v, 3), "squeezing parameter"),
        ("fock.thermal_state", lambda v: fock.thermal_state(v, 3), "squeezing parameter"),
        ("ChannelParams", lambda v: ChannelParams(v, 0.5), "lambda_x"),
        ("ChannelParams.grid", lambda v: ChannelParams.grid([0.2, v], [0.5]), "lambda_x"),
        ("bounds.EdrcParams tau", lambda v: bounds.EdrcParams(0.5, 0.5, v, 0.2), "tau"),
        ("bounds.EdrcParams h", lambda v: bounds.EdrcParams(0.5, 0.5, 0.2, v), "thermal parameter h"),
        ("bounds.resource_fidelity lambda_1", lambda v: bounds.resource_fidelity(v, 0.4, 2), "lambda_1"),
        ("bounds.resource_fidelity lambda_2", lambda v: bounds.resource_fidelity(0.4, v, 2), "lambda_2"),
        # delta shifts lambda_x = 0.5 up to v
        ("bounds.sim_example_bound", lambda v: bounds.sim_example_bound(2 * (v - 0.5), ChannelParams(0.5, 0.9)),
         "lambda_x"),
        ("nport.input_output_fidelity", lambda v: nport.input_output_fidelity("tmsv", POINT, v, 4), "lambda_in"),
    ],
    "lambda_y": [
        ("ChannelParams", lambda v: ChannelParams(0.5, v), "lambda_y"),
        ("ChannelParams.grid", lambda v: ChannelParams.grid([0.5], [0.3, v]), "lambda_y"),
        ("nport.sector_matrix", lambda v: nport.sector_matrix((0, 1), v), "lambda_y"),
        ("nport.gamma", lambda v: nport.gamma((0, 1), v), "lambda_y"),
        ("nport.eta_basis one level", lambda v: nport.eta_basis((0, 0), v), "lambda_y"),
        ("nport.eta_basis two levels", lambda v: nport.eta_basis((0, 1), v), "lambda_y"),
        ("nport.eta_basis three levels", lambda v: nport.eta_basis((0, 1, 2), v), "lambda_y"),
        ("nport.gamma_mm_closed", lambda v: nport.gamma_mm_closed(0, v), "lambda_y"),
        ("nport.gamma_lm_closed", lambda v: nport.gamma_lm_closed(1, 0, v), "lambda_y"),
        ("nport.lm_closed_basis", lambda v: nport.lm_closed_basis(1, 0, v), "lambda_y"),
    ],
    "tolerance": [
        ("fock.adaptive_cutoff", lambda v: fock.adaptive_cutoff(0.5, v), "tolerance"),
        ("fock.coherent_cutoff", lambda v: fock.coherent_cutoff(1.0, v), "tolerance"),
        ("two_port.omega", lambda v: two_port.omega(POINT, v), "tolerance"),
        ("two_port.energy_weighted_omega", lambda v: two_port.energy_weighted_omega(POINT, v), "tolerance"),
        ("two_port.output_energy", lambda v: two_port.output_energy(1.0, POINT, v), "tolerance"),
        ("two_port.max_output_energy", lambda v: two_port.max_output_energy(POINT, v), "tolerance"),
        ("oracle.verification_report", lambda v: oracle.verification_report(_proto(), 1, 1, tol=v), "tolerance"),
        ("oracle.memory_budget", _budget, "CVPBT_MEM_BUDGET_MB"),
    ],
    "integer": [
        ("fock.Cutoff", lambda v: fock.Cutoff(v), "cutoff"),
        ("ChannelParams", lambda v: ChannelParams(0.5, 0.5, v), "ports"),
        ("nport.enumerate_multisets ports", lambda v: nport.enumerate_multisets(v, 2), "ports"),
        ("nport.enumerate_multisets cap", lambda v: nport.enumerate_multisets(3, v), "cap"),
        ("nport.NPortChannel", lambda v: nport.NPortChannel(ChannelParams(0.3, 0.5, 3), v), "cap"),
        ("bounds.resource_fidelity", lambda v: bounds.resource_fidelity(0.5, 0.4, v), "ports"),
        ("fock.number_ket", lambda v: fock.number_ket(v, 4), "level index"),
        ("fock.chi", lambda v: fock.chi(0.5, v), "level index"),
        ("oracle.verification_report a_max", lambda v: oracle.verification_report(_proto(), v, 1), "element range"),
        ("oracle.verification_report b_max", lambda v: oracle.verification_report(_proto(), 1, v), "element range"),
        ("oracle.brute_channel_element a", lambda v: oracle.brute_channel_element(v, 1, _proto()), "element index a"),
        ("oracle.brute_channel_element b", lambda v: oracle.brute_channel_element(1, v, _proto()), "element index b"),
        ("oracle.reduced_resource a", lambda v: oracle.reduced_resource(v, 1, _proto()), "element index a"),
        ("oracle.reduced_resource b", lambda v: oracle.reduced_resource(1, v, _proto()), "element index b"),
        ("NPortChannel.number_element a", lambda v: nport.make_channel(POINT).number_element(v, 1, 4), "element index a"),
        ("NPortChannel.number_element b", lambda v: nport.make_channel(POINT).number_element(1, v, 4), "element index b"),
        ("NPortChannel.diagonal_profile", lambda v: nport.make_channel(POINT).diagonal_profile(v, 4), "level index"),
    ],
}

CASES = [
    pytest.param(call, value, name, id=f"{rule}-{entry}-{value!r}")
    for rule, entries in ENTRY_POINTS.items()
    for entry, call, name in entries
    for value in BAD[rule]
]


@pytest.mark.parametrize("call, value, name", CASES)
def test_bad_value_is_a_value_error_naming_the_input(call, value, name):
    with np.errstate(all="raise"):  # a value that slipped through would warn on its way to a nan
        with pytest.raises(ValueError, match=name):
            call(value)


@pytest.mark.parametrize("rule", list(ENTRY_POINTS))
def test_every_call_of_the_table_runs_on_a_good_value(rule):
    """So that each refusal above comes from the bad value alone."""
    good = {"squeezing": 0.3, "lambda_y": 0.4, "tolerance": 1e-8, "integer": 2}[rule]
    for entry, call, _ in ENTRY_POINTS[rule]:
        # a small shift keeps both channels of the simulation bound in the positive regime
        call(0.51 if entry == "bounds.sim_example_bound" else good)


@pytest.mark.parametrize("call, match", [
    (lambda: fock.chi(0.5, -1), "level index must be nonnegative"),
    (lambda: fock.number_ket(-1, 4), "level index must be nonnegative"),
    (lambda: fock.number_ket(4, 4), "outside cutoff"),
    (lambda: oracle.verification_report(_proto(), 3, 1), "element range"),
    (lambda: oracle.verification_report(_proto(), 1, -1), "element range"),
    (lambda: oracle.brute_channel_element(0, 3, _proto()), "outside cutoff"),
    (lambda: oracle.reduced_resource(-1, 0, _proto()), "element index a"),
    (lambda: nport.make_channel(POINT).number_element(0, 4, 4), "outside cutoff"),
    (lambda: nport.make_channel(POINT).diagonal_profile(4, 4), "outside cutoff"),
])
def test_index_outside_its_range_is_a_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
