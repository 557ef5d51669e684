"""Analytic electrical-parameter engine for transmon-style qubits.

Forward direction: capacitance -> charging energy -> Josephson energy ->
critical current -> normal resistance / Josephson inductance -> frequency.
Inverse direction: target frequencies and couplings -> full parameter records.

Energies are expressed in hertz (E/h) throughout; joule values are never
exposed. Two printed-formula variants survive behind mode flags:

* josephson_energy: "standard" squares only the numerator,
  (f_q + E_C)^2 / (8 E_C); "paper-literal" squares the whole fraction.
* critical_current: "paper-literal" (default) is E_J h / Phi_0, i.e. 2 e E_J;
  "standard" carries the conventional extra 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import constants as k
from .errors import (
    InconsistentTargets,
    NegativeFrequency,
    NonPositiveCapacitance,
    NonPositiveInput,
    PhaseOutOfRange,
    UnknownLabel,
    check_selector,
)


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 exact constants plus junction-electrode parameters.

    hbar and phi0 are derived properties, never stored independently.
    """

    e: float = k.ELEMENTARY_CHARGE
    h: float = k.PLANCK
    kB: float = k.BOLTZMANN
    gap_voltage: float = k.DEFAULT_GAP_VOLTAGE   # V (Delta / e)
    temperature: float = k.DEFAULT_TEMPERATURE   # K

    def __post_init__(self):
        if self.gap_voltage <= 0 or self.temperature <= 0:
            raise NonPositiveInput("gap_voltage and temperature must be positive")

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @property
    def phi0(self) -> float:
        return self.h / (2.0 * self.e)


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass
class QubitElectricalParams:
    qubit_id: str
    C_q: float      # F
    E_C: float      # Hz
    E_J: float      # Hz
    I_c: float      # A
    R_n: float      # ohm
    L_j: float      # H
    f_q: float      # Hz
    delta: float = 0.0  # rad, |delta| < pi/2


@dataclass
class CouplingParams:
    edge: tuple[str, str]
    C_c: float       # F
    g_target: float  # Hz


def charging_energy(C_q: float) -> float:
    """E_C = e^2 / (2 C_q h), in Hz."""
    if C_q <= 0:
        raise NonPositiveCapacitance(f"C_q must be positive, got {C_q}")
    c = DEFAULT_CONSTANTS
    return c.e * c.e / (2.0 * C_q * c.h)


FORMULA_MODES = ("standard", "paper-literal")


def josephson_energy(f_q: float, E_C: float, mode: str = "standard") -> float:
    """Josephson energy from target frequency and charging energy, in Hz.

    The paper-literal variant squares the whole fraction; with both inputs
    in Hz it differs from standard by a factor 1/(8 E_C).
    """
    if f_q <= 0 or E_C <= 0:
        raise NonPositiveInput("f_q and E_C must be positive")
    check_selector("mode", mode, FORMULA_MODES)
    if mode == "standard":
        return (f_q + E_C) ** 2 / (8.0 * E_C)
    return ((f_q + E_C) / (8.0 * E_C)) ** 2


def critical_current(E_J: float, mode: str = "paper-literal") -> float:
    """Junction critical current in amperes; E_J in Hz."""
    if E_J <= 0:
        raise NonPositiveInput("E_J must be positive")
    check_selector("mode", mode, FORMULA_MODES)
    c = DEFAULT_CONSTANTS
    base = E_J * c.h / c.phi0   # == 2 e E_J
    if mode == "paper-literal":
        return base
    return 2.0 * math.pi * base


def normal_resistance(I_c: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Room-temperature junction resistance via the Ambegaokar-Baratoff form.

    R_n = (pi gap_voltage / (2 I_c)) * tanh(Delta / (2 kB T)), Delta = e * gap_voltage.
    At the default 20 mK the tanh factor is 1 within 1e-12.
    """
    if I_c <= 0:
        raise NonPositiveInput("I_c must be positive")
    delta = constants.e * constants.gap_voltage
    factor = math.tanh(delta / (2.0 * constants.kB * constants.temperature))
    return math.pi * constants.gap_voltage / (2.0 * I_c) * factor


def josephson_inductance(I_c: float, delta: float = 0.0) -> float:
    """L_j = hbar / (2 e I_c cos delta); requires |delta| < pi/2."""
    if I_c <= 0:
        raise NonPositiveInput("I_c must be positive")
    if abs(delta) >= math.pi / 2.0:
        raise PhaseOutOfRange(f"junction phase {delta} outside (-pi/2, pi/2)")
    c = DEFAULT_CONSTANTS
    return c.hbar / (2.0 * c.e * I_c * math.cos(delta))


def qubit_frequency(L_j: float, C_q: float, E_C: float) -> float:
    """f_q = 1/(2 pi sqrt(L_j C_q)) - E_C, in Hz."""
    if L_j <= 0 or C_q <= 0 or E_C <= 0:
        raise NonPositiveInput("L_j, C_q, E_C must be positive")
    plasma = 1.0 / (2.0 * math.pi * math.sqrt(L_j * C_q))
    f_q = plasma - E_C
    if f_q <= 0:
        raise NegativeFrequency(f"plasma term {plasma} does not exceed E_C {E_C}")
    return f_q


def coupling_capacitance(C_q: float, g_target: float, f_q: float) -> float:
    """Declared first-order coupling model: C_c = C_q * (g_target / f_q).

    This module has no electromagnetic solver; the linear proportionality is
    a deliberate seam for replacement by an extracted-matrix workflow.
    """
    if C_q <= 0 or f_q <= 0:
        raise NonPositiveInput("C_q and f_q must be positive")
    if g_target <= 0:
        raise NonPositiveInput("g_target must be positive")
    return C_q * (g_target / f_q)


def solve_qubit(qubit_id: str, f_q: float, E_C: float | None = None,
                C_q: float | None = None, delta: float = 0.0) -> QubitElectricalParams:
    """Chain the forward operations (standard mode) from one seed.

    Exactly one of E_C / C_q seeds the chain; the other follows from
    charging_energy or its inverse.
    """
    if (E_C is None) == (C_q is None):
        raise NonPositiveInput("provide exactly one of E_C or C_q as seed")
    c = DEFAULT_CONSTANTS
    if E_C is None:
        E_C = charging_energy(C_q)
    else:
        if E_C <= 0:
            raise NonPositiveInput("E_C must be positive")
        C_q = c.e * c.e / (2.0 * E_C * c.h)
    E_J = josephson_energy(f_q, E_C, mode="standard")
    I_c = critical_current(E_J, mode="standard")
    R_n = normal_resistance(I_c)
    L_j = josephson_inductance(I_c, delta)
    return QubitElectricalParams(qubit_id=qubit_id, C_q=C_q, E_C=E_C, E_J=E_J,
                                 I_c=I_c, R_n=R_n, L_j=L_j, f_q=f_q, delta=delta)


def inverse_solve(targets: dict[str, float],
                  couplings: dict[tuple[str, str], float] | None = None,
                  E_C: float | None = None,
                  C_q: float | None = None,
                  require_distinct_neighbors: bool = False,
                  edges: set[tuple[str, str]] | None = None,
                  ) -> tuple[dict[str, QubitElectricalParams],
                             dict[tuple[str, str], CouplingParams]]:
    """Target frequencies and couplings -> full electrical parameter records.

    targets: qubit id -> f_q (Hz). couplings: edge -> g_target (Hz).
    The E_C (or C_q) seed applies to every qubit. With
    require_distinct_neighbors, adjacent qubits (per `edges`, defaulting to
    the coupling keys) must have different target frequencies.
    """
    couplings = couplings or {}
    check_edges = edges if edges is not None else set(couplings)
    if require_distinct_neighbors:
        for a, b in sorted(check_edges):
            if a in targets and b in targets and targets[a] == targets[b]:
                raise InconsistentTargets(
                    f"adjacent qubits {a},{b} share target frequency {targets[a]}")
    qubits = {}
    for qid in sorted(targets):
        qubits[qid] = solve_qubit(qid, targets[qid], E_C=E_C, C_q=C_q)
    edges_out = {}
    for edge in sorted(couplings):
        a, b = edge
        g = couplings[edge]
        for qid in (a, b):
            if qid not in qubits:
                raise UnknownLabel(f"coupling edge {edge} references unknown qubit {qid}")
        # reference the lower-id qubit's parameters for the linear model
        ref = qubits[min(a, b)]
        C_c = coupling_capacitance(ref.C_q, g, ref.f_q)
        edges_out[edge] = CouplingParams(edge=edge, C_c=C_c, g_target=g)
    return qubits, edges_out


@dataclass
class EquivalentCircuit:
    """Per-qubit electrical records plus per-edge couplings."""

    qubits: dict[str, QubitElectricalParams] = field(default_factory=dict)
    couplings: dict[tuple[str, str], CouplingParams] = field(default_factory=dict)
