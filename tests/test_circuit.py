from __future__ import annotations

import math
import random

import pytest

from sqchip.circuit import (
    PhysicalConstants,
    charging_energy,
    coupling_capacitance,
    critical_current,
    inverse_solve,
    josephson_energy,
    josephson_inductance,
    normal_resistance,
    qubit_frequency,
    solve_qubit,
)
from sqchip.errors import (
    InconsistentTargets,
    NegativeFrequency,
    NonPositiveCapacitance,
    NonPositiveInput,
    PhaseOutOfRange,
    UnknownLabel,
    UnknownSelector,
)

# constant-folded oracle values, computed by hand from CODATA-2018 exact
# constants: e^2 / (2 * 65 fF * h), then the chain seeded by 4.3 GHz / 0.298 GHz
EC_65FF = 298003528.0716788          # Hz
EJ_STD = 8868122483.221476           # Hz
IC_LITERAL = 2.8416597260135004e-9   # A
RN_LITERAL = 100604.91369166589      # ohm
LJ_LITERAL = 1.1581470345048969e-7   # H


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def test_charging_energy_of_65_femtofarads_matches_folded_constant():
    assert _rel(charging_energy(65e-15), EC_65FF) < 1e-12


def test_charging_energy_scales_inversely_with_capacitance():
    base = charging_energy(65e-15)
    assert charging_energy(130e-15) == pytest.approx(base / 2.0, rel=1e-15)
    for k in (0.5, 3.0, 10.0):
        assert _rel(charging_energy(k * 65e-15), base / k) < 1e-12


def test_charging_energy_rejects_non_positive_capacitance():
    with pytest.raises(NonPositiveCapacitance):
        charging_energy(0.0)
    with pytest.raises(NonPositiveCapacitance):
        charging_energy(-1e-15)


def test_josephson_energy_standard_mode_matches_folded_constant():
    assert _rel(josephson_energy(4.3e9, 0.298e9), EJ_STD) < 1e-12


def test_josephson_energy_modes_differ_by_the_eight_ec_factor():
    f_q, E_C = 4.3e9, 0.298e9
    std = josephson_energy(f_q, E_C, mode="standard")
    lit = josephson_energy(f_q, E_C, mode="paper-literal")
    assert _rel(lit, std / (8.0 * E_C)) < 1e-12


def test_josephson_energy_rejects_unknown_mode_and_bad_inputs():
    with pytest.raises(UnknownSelector, match="paper-literal"):
        josephson_energy(4.3e9, 0.298e9, mode="squared")
    with pytest.raises(NonPositiveInput):
        josephson_energy(-4.3e9, 0.298e9)
    with pytest.raises(NonPositiveInput):
        josephson_energy(4.3e9, 0.0)


def test_critical_current_chain_value_and_mode_ratio():
    I_c = critical_current(EJ_STD)
    assert _rel(I_c, IC_LITERAL) < 1e-12
    assert _rel(critical_current(EJ_STD, mode="standard"),
                2.0 * math.pi * I_c) < 1e-15
    with pytest.raises(UnknownSelector, match="paper-literal"):
        critical_current(EJ_STD, mode="squared")


def test_normal_resistance_matches_folded_constant():
    assert _rel(normal_resistance(IC_LITERAL), RN_LITERAL) < 1e-12


def test_critical_current_times_resistance_is_independent_of_current():
    # Ambegaokar-Baratoff: the I_c R_n product is set by gap and temperature
    products = {ic * normal_resistance(ic)
                for ic in (1e-9, 2.84e-9, 7e-9, 5e-8)}
    lo, hi = min(products), max(products)
    assert _rel(hi, lo) < 1e-12


def test_hot_junction_resistance_collapses_with_the_tanh_factor():
    cold = PhysicalConstants(temperature=0.020)
    hot = PhysicalConstants(temperature=2.0e4)
    r_cold = normal_resistance(1e-9, cold)
    r_hot = normal_resistance(1e-9, hot)
    expected = math.tanh(hot.e * hot.gap_voltage / (2.0 * hot.kB * hot.temperature))
    assert _rel(r_hot / r_cold, expected) < 1e-9
    assert r_hot < 1e-3 * r_cold


def test_josephson_inductance_value_and_phase_window():
    assert _rel(josephson_inductance(IC_LITERAL), LJ_LITERAL) < 1e-12
    # cos(delta) in the denominator: inductance grows toward the window edge
    assert josephson_inductance(IC_LITERAL, delta=1.0) > LJ_LITERAL
    with pytest.raises(PhaseOutOfRange):
        josephson_inductance(IC_LITERAL, delta=math.pi / 2.0)
    with pytest.raises(PhaseOutOfRange):
        josephson_inductance(IC_LITERAL, delta=-2.0)


def test_qubit_frequency_rejects_plasma_below_charging_energy():
    with pytest.raises(NegativeFrequency):
        qubit_frequency(1.0, 1.0, 1e9)


def test_solve_qubit_requires_exactly_one_seed():
    with pytest.raises(NonPositiveInput):
        solve_qubit("q0", 4.3e9)
    with pytest.raises(NonPositiveInput):
        solve_qubit("q0", 4.3e9, E_C=0.298e9, C_q=65e-15)


def test_solve_qubit_round_trips_through_the_frequency_formula():
    rng = random.Random(11)
    for _ in range(50):
        f_q = rng.uniform(3e9, 6e9)
        E_C = rng.uniform(0.15e9, 0.35e9)
        q = solve_qubit("q", f_q, E_C=E_C)
        assert _rel(qubit_frequency(q.L_j, q.C_q, q.E_C), f_q) < 1e-9


def test_solve_qubit_seeded_by_capacitance_recovers_charging_energy():
    q = solve_qubit("q0", 4.3e9, C_q=65e-15)
    assert _rel(q.E_C, EC_65FF) < 1e-12
    # seeding by that E_C must land on the same capacitance
    q2 = solve_qubit("q0", 4.3e9, E_C=q.E_C)
    assert _rel(q2.C_q, 65e-15) < 1e-12


def test_coupling_capacitance_is_the_declared_linear_model():
    assert _rel(coupling_capacitance(65e-15, 5e6, 4.3e9),
                65e-15 * 5e6 / 4.3e9) < 1e-15
    with pytest.raises(NonPositiveInput):
        coupling_capacitance(65e-15, -5e6, 4.3e9)


def test_inverse_solve_builds_records_for_every_target_and_edge():
    targets = {"q0": 4.3e9, "q1": 4.8e9, "q2": 4.3e9}
    couplings = {("q0", "q1"): 5e6, ("q1", "q2"): 5e6}
    qubits, edges = inverse_solve(targets, couplings, E_C=0.298e9)
    assert set(qubits) == set(targets)
    assert set(edges) == set(couplings)
    # the linear model references the lower-id endpoint
    ref = qubits["q0"]
    assert _rel(edges[("q0", "q1")].C_c,
                ref.C_q * 5e6 / ref.f_q) < 1e-12


def test_inverse_solve_rejects_equal_neighbor_targets_when_asked():
    targets = {"q0": 4.3e9, "q1": 4.3e9}
    with pytest.raises(InconsistentTargets):
        inverse_solve(targets, {("q0", "q1"): 5e6}, E_C=0.298e9,
                      require_distinct_neighbors=True)
    # same targets pass when the qubits are not adjacent
    qubits, _ = inverse_solve(targets, {}, E_C=0.298e9,
                              require_distinct_neighbors=True,
                              edges=set())
    assert set(qubits) == {"q0", "q1"}


def test_inverse_solve_rejects_couplings_on_unknown_qubits():
    with pytest.raises(UnknownLabel):
        inverse_solve({"q0": 4.3e9}, {("q0", "q9"): 5e6}, E_C=0.298e9)


def test_constants_record_rejects_non_physical_electrodes():
    with pytest.raises(NonPositiveInput):
        PhysicalConstants(gap_voltage=0.0)
    with pytest.raises(NonPositiveInput):
        PhysicalConstants(temperature=-1.0)


def test_inverse_solve_names_the_first_clashing_pair_in_sorted_order():
    # every pair clashes; the message must not depend on set order
    targets = {q: 4.3e9 for q in ("q0", "q1", "q2", "q3")}
    edges = {("q2", "q3"), ("q1", "q3"), ("q0", "q2"), ("q0", "q1")}
    with pytest.raises(InconsistentTargets, match="q0,q1 "):
        inverse_solve(targets, E_C=0.298e9, require_distinct_neighbors=True,
                      edges=edges)
