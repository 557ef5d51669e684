from __future__ import annotations

import math
import random
import stat
import subprocess

import devmap_reference
import pytest

from sqchip.circuit import charging_energy
from sqchip.components import make_pad
from sqchip.devmap import (
    CAP_PER_AREA,
    Evaluator,
    MappingProblem,
    capacitance_evaluator,
    make_evaluator,
    map_qubit_capacitance,
    solve,
)
from sqchip.errors import (
    ComponentNotTunable,
    SqchipError,
    EvaluatorFailed,
    MaxIterations,
    NonPositiveInput,
    TargetNotBracketed,
    UnknownLabel,
    UnknownSelector,
)
from sqchip.layout import place_qubits
from sqchip.topology import generate_grid


def _linear(slope: float, offset: float = 0.0) -> Evaluator:
    mono = "increasing" if slope > 0 else "decreasing"
    return Evaluator("linear", "", mono, lambda x: slope * x + offset)


def _bisection_bound(lo: float, hi: float, slope: float, target: float,
                     tol: float) -> int:
    # bisection halves the bracket; it must land once the bracket maps
    # inside the tolerance band around the target
    return math.ceil(math.log2((hi - lo) * abs(slope) / (tol * abs(target))))


def test_linear_stub_solves_to_the_analytic_root():
    problem = MappingProblem("x", 0.0, 100.0, 10.0, tolerance=1e-3)
    result = solve(problem, _linear(2.0))
    assert abs(result.value - 5.0) <= 1e-3 * 5.0
    assert abs(result.metric - 10.0) <= 1e-3 * 10.0


def test_boundary_hit_returns_without_iterating():
    problem = MappingProblem("x", 5.0, 100.0, 10.0)
    ev = _linear(2.0)
    result = solve(problem, ev)
    assert result.value == 5.0
    assert result.iterations == 0
    assert ev.calls == 2


def test_bisection_meets_tolerance_within_the_analytic_bound():
    rng = random.Random(31)
    for _ in range(50):
        lo = rng.uniform(-50.0, 0.0)
        hi = lo + rng.uniform(10.0, 500.0)
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 50.0)
        offset = rng.uniform(-10.0, 10.0)
        x_root = rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo))
        target = slope * x_root + offset
        if abs(target) < 1e-6:
            continue
        tol = rng.choice([1e-3, 1e-4])
        problem = MappingProblem("x", lo, hi, target, tolerance=tol)
        result = solve(problem, _linear(slope, offset))
        assert abs(result.metric - target) <= tol * abs(target)
        assert result.iterations <= _bisection_bound(lo, hi, slope, target, tol)


def test_evaluation_economy_stays_within_budget_plus_bracket():
    for mono, fn in (("increasing", lambda x: 2.0 * x),
                     ("unknown", lambda x: (x - 5.0) ** 2 + 1.0)):
        ev = Evaluator("t", "", mono, fn)
        problem = MappingProblem("x", 0.0, 100.0,
                                 10.0 if mono == "increasing" else 1.0,
                                 tolerance=1e-3, max_iterations=40)
        solve(problem, ev)
        assert ev.calls <= problem.max_iterations + 2


def test_unbracketed_monotone_target_is_rejected():
    problem = MappingProblem("x", 0.0, 10.0, 100.0)
    with pytest.raises(TargetNotBracketed):
        solve(problem, _linear(2.0))


def test_budget_exhaustion_carries_the_best_iterate():
    problem = MappingProblem("x", 0.0, 100.0, 10.0, tolerance=1e-9,
                             max_iterations=3)
    with pytest.raises(MaxIterations) as info:
        solve(problem, _linear(2.0))
    err = info.value
    assert err.iterations == 3
    assert 0.0 <= err.best_value <= 100.0
    assert abs(err.best_metric - 10.0) < abs(2.0 * 100.0 - 10.0)


def test_golden_section_handles_non_monotone_residuals():
    # V-shaped metric around x = 7; monotone bisection would be unsound
    ev = Evaluator("vee", "", "unknown", lambda x: abs(x - 7.0) + 2.0)
    problem = MappingProblem("x", 0.0, 20.0, 2.0, tolerance=1e-3,
                             max_iterations=80)
    result = solve(problem, ev)
    assert abs(result.value - 7.0) < 0.05
    assert ev.calls <= 82


def test_identical_problems_yield_identical_iterates():
    def run():
        ev = Evaluator("t", "", "unknown", lambda x: (x - 3.0) ** 2 + 1.0)
        problem = MappingProblem("x", 0.0, 10.0, 1.0, tolerance=1e-4,
                                 max_iterations=60)
        r = solve(problem, ev)
        return (r.value, r.metric, r.iterations, ev.calls)

    assert run() == run()


def _outcome(solver, problem, ev):
    try:
        r = solver(problem, ev)
        got = ("ok", r.value, r.metric, r.iterations, "")
    except SqchipError as exc:
        got = (type(exc), getattr(exc, "best_value", None),
               getattr(exc, "best_metric", None),
               getattr(exc, "iterations", None), str(exc))
    return got, ev.calls, list(ev._cache)


def test_one_driver_loop_takes_the_reference_iterates():
    # the reference keeps one loop per method; the driver must match it on
    # result, error, evaluator calls and probe order
    shapes = (lambda a, b: lambda x: a * x + b,
              lambda a, b: lambda x: a * (x - b) ** 2,
              lambda a, b: lambda x: math.sin(a * x) + b)
    rng = random.Random(13)
    seen = set()
    for _ in range(1500):
        lo = rng.uniform(-50.0, 50.0)
        hi = lo + rng.choice([1e-3, 1.0, rng.uniform(1.0, 300.0)])
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0)
        b = rng.uniform(-20.0, 20.0)
        shape = rng.choice(shapes)
        mono = rng.choice(["increasing", "decreasing", "unknown"])
        x_root = rng.uniform(lo, hi)
        target = rng.choice([shape(a, b)(x_root), rng.uniform(-100.0, 100.0)])
        problem = MappingProblem("x", lo, hi, target,
                                 tolerance=10.0 ** -rng.uniform(2.0, 12.0),
                                 max_iterations=rng.choice(
                                     [1, 2, 3, rng.randint(4, 60)]))
        want, got = (_outcome(solver, problem,
                              Evaluator("f", "", mono, shape(a, b)))
                     for solver in (devmap_reference.solve, solve))
        case = (problem, mono)
        assert got[1:] == want[1:], case
        if mono == "unknown" and problem.max_iterations < 3:
            # the reference's golden-section wording for budgets of 1 or 2
            assert got[0][:4] == want[0][:4], case
            if want[0][0] is MaxIterations:
                assert "no convergence to" in got[0][4], case
        else:
            assert got[0] == want[0], case
        seen.add((want[0][0], mono, min(problem.max_iterations, 4)))
    # every outcome was reached for each method and each small budget
    for mono in ("increasing", "decreasing", "unknown"):
        for budget in (1, 2, 3, 4):
            assert {("ok", mono, budget), (MaxIterations, mono, budget)} <= seen
            if mono != "unknown":
                assert (TargetNotBracketed, mono, budget) in seen


def test_problem_validation_rejects_bad_setups():
    with pytest.raises(NonPositiveInput):
        MappingProblem("x", 5.0, 5.0, 1.0)
    with pytest.raises(NonPositiveInput):
        MappingProblem("x", 0.0, 1.0, 1.0, tolerance=0.0)
    with pytest.raises(NonPositiveInput):
        MappingProblem("x", 0.0, 1.0, 1.0, max_iterations=0)
    with pytest.raises(UnknownSelector):
        Evaluator("t", "", "sideways", lambda x: x)


@pytest.mark.parametrize("field", ["lo", "hi", "target", "tolerance"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_validation_rejects_non_finite_inputs(field, bad):
    kwargs = dict(parameter="x", lo=0.0, hi=10.0, target=3.0, tolerance=1e-3)
    kwargs[field] = bad
    with pytest.raises(NonPositiveInput, match=field):
        MappingProblem(**kwargs)


def test_charging_energy_stub_inverts_the_analytic_chain():
    ev = make_evaluator("stub:charging-energy")
    target = 298e6
    problem = MappingProblem("area", 1e3, 1e6, target, tolerance=1e-4)
    result = solve(problem, ev)
    # the stub is E_C(x) = K / x with K = charging_energy(1 F) / CAP_PER_AREA,
    # so the exact preimage of the target is K / target
    want = charging_energy(1.0) / (target * CAP_PER_AREA)
    assert abs(result.value - want) / want < 1e-3


def test_stub_selectors_build_the_documented_evaluators():
    lin = make_evaluator("stub:linear:3:1")
    assert lin(2.0) == 7.0
    assert lin.monotonicity == "increasing"
    pad = make_evaluator("stub:pad-capacitance")
    assert pad(1000.0) == CAP_PER_AREA * 1000.0
    with pytest.raises(UnknownSelector):
        make_evaluator("stub:quadratic")
    with pytest.raises(UnknownSelector):
        make_evaluator("fem:/opt/solver")
    with pytest.raises(UnknownSelector):
        make_evaluator("cmd:")


@pytest.mark.parametrize("spec, name", [
    ("stub:linear:abc", "slope"), ("stub:linear:", "slope"),
    ("stub:linear:nan", "slope"), ("stub:linear:1:inf", "offset"),
    ("stub:linear:1:-inf", "offset"), ("stub:linear:1:x", "offset")])
def test_linear_stub_refuses_a_non_numeric_or_non_finite_argument(spec, name):
    with pytest.raises(UnknownSelector, match=f"stub:linear {name} "):
        make_evaluator(spec)


@pytest.mark.parametrize("spec, surplus", [
    ("stub:pad-capacitance:abc", "'abc'"), ("stub:charging-energy:7", "'7'"),
    ("stub:linear:2:1:junk", "'junk'"), ("stub:pad-capacitance:", "''")])
def test_stub_refuses_an_argument_it_would_ignore(spec, surplus):
    with pytest.raises(UnknownSelector, match=f"surplus {surplus}"):
        make_evaluator(spec)


def test_command_evaluator_round_trips_through_a_script(tmp_path):
    script = tmp_path / "metric.sh"
    script.write_text("#!/bin/sh\nawk \"BEGIN {print $1 * 2}\"\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    ev = make_evaluator(f"cmd:{script}")
    assert abs(ev(3.5) - 7.0) < 1e-9
    problem = MappingProblem("x", 0.0, 100.0, 10.0, tolerance=1e-3,
                             max_iterations=60)
    result = solve(problem, ev)
    assert abs(result.metric - 10.0) <= 1e-3 * 10.0


def test_command_evaluator_failing_with_a_nonzero_exit_is_typed():
    ev = make_evaluator("cmd:/bin/false")
    with pytest.raises(EvaluatorFailed, match=r"cmd:/bin/false .* input 1\.5"
                       ) as err:
        ev(1.5)
    assert isinstance(err.value.__cause__, subprocess.CalledProcessError)


def test_command_evaluator_with_a_missing_command_is_typed(tmp_path):
    ev = make_evaluator(f"cmd:{tmp_path / 'absent'}")
    with pytest.raises(EvaluatorFailed) as err:
        ev(1.0)
    assert isinstance(err.value.__cause__, FileNotFoundError)


def test_command_evaluator_printing_no_number_is_typed(tmp_path):
    script = tmp_path / "metric.sh"
    script.write_text("#!/bin/sh\necho abc\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    ev = make_evaluator(f"cmd:{script}")
    with pytest.raises(EvaluatorFailed, match="abc") as err:
        ev(2.0)
    assert isinstance(err.value.__cause__, ValueError)


def test_map_qubit_capacitance_updates_the_component_record():
    layout = place_qubits(generate_grid(1, 1), "xmon", pitch=2000.0)
    comp = layout.component_by_id("q0")
    x0 = comp.params["arm_length"]
    result = map_qubit_capacitance(layout, "q0", 65e-15)
    assert comp.params["arm_length"] == result.value
    assert comp.params["mapping_target"] == 65e-15
    assert abs(result.metric - 65e-15) <= 1e-3 * 65e-15
    # closed form through the area stub: C = a (4 x w - w^2)
    w = comp.params["arm_width"]
    want = (65e-15 / CAP_PER_AREA + w * w) / (4.0 * w)
    assert abs(result.value - want) / want < 1e-3
    assert result.value != x0


def test_map_qubit_capacitance_rejects_untunable_components():
    layout = place_qubits(generate_grid(1, 1), "xmon", pitch=2000.0)
    layout.add_component(make_pad("P0", (10.0, 10.0), edge="bottom"),
                         check_overlap=False)
    with pytest.raises(ComponentNotTunable):
        map_qubit_capacitance(layout, "P0", 65e-15)


@pytest.mark.parametrize("qubit, dimension, error, named", [
    ("q99", None, UnknownLabel, "'q99'"),
    ("q0", "bogus_dim", ComponentNotTunable, "arm_length"),
])
def test_map_qubit_capacitance_refuses_before_it_solves(qubit, dimension,
                                                        error, named):
    layout = place_qubits(generate_grid(2, 2), "xmon", pitch=2000.0)
    ev = make_evaluator("stub:pad-capacitance")
    with pytest.raises(error, match=named):
        map_qubit_capacitance(layout, qubit, 3.64e-16, evaluator=ev,
                              dimension=dimension)
    assert ev.calls == 0


def test_capacitance_evaluator_matches_the_area_model():
    ev = capacitance_evaluator("xmon", {"arm_width": 50.0})
    assert ev(250.0) == CAP_PER_AREA * (4.0 * 250.0 * 50.0 - 2500.0)
    tr = capacitance_evaluator("transmon", {"pad_height": 150.0})
    assert tr(200.0) == CAP_PER_AREA * (2.0 * 200.0 * 150.0)
    with pytest.raises(ComponentNotTunable):
        capacitance_evaluator("resonator", {})(1.0)
