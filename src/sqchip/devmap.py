"""Device mapping: bracketed single-variable search against an evaluator.

An Evaluator wraps any geometry-parameter -> metric function (here analytic
stubs; in production an EM solver adapter) together with its declared
monotonicity. solve() is the one search loop: it evaluates probes, keeps
the best iterate and tests the tolerance. Two probe rules propose the
probes: bisection when the metric is monotone in the parameter and
golden-section on the residual when it is not.
"""

from __future__ import annotations

import logging
import math
import subprocess
from dataclasses import dataclass, field
from itertools import islice

from .circuit import charging_energy
from .errors import (
    ComponentNotTunable,
    EvaluatorFailed,
    MaxIterations,
    NonPositiveInput,
    TargetNotBracketed,
    UnknownSelector,
    check_selector,
)

log = logging.getLogger(__name__)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# analytic stand-in for an EM solve: thin-film metal over ground, F per um^2
CAP_PER_AREA = 1.4e-18

# wall-clock limit for one call of a cmd: evaluator, s
CMD_TIMEOUT_S = 600


@dataclass
class Evaluator:
    name: str
    units: str
    monotonicity: str                  # increasing | decreasing | unknown
    fn: object
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        check_selector("monotonicity", self.monotonicity,
                       ("increasing", "decreasing", "unknown"))

    def __call__(self, x: float) -> float:
        # deterministic per input, so memoize: repeat probes are free
        if x not in self._cache:
            self._cache[x] = float(self.fn(x))
        return self._cache[x]

    @property
    def calls(self) -> int:
        return len(self._cache)


@dataclass(frozen=True)
class MappingProblem:
    parameter: str
    lo: float
    hi: float
    target: float
    tolerance: float = 1e-3           # relative to |target|
    max_iterations: int = 60

    def __post_init__(self):
        # an inf target passes _close as inf <= inf, a nan runs to the budget
        for name in ("lo", "hi", "target", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise NonPositiveInput(f"{name} must be finite, "
                                       f"got {getattr(self, name)}")
        if not self.lo < self.hi:
            raise NonPositiveInput(f"bounds [{self.lo}, {self.hi}] are empty")
        if self.tolerance <= 0:
            raise NonPositiveInput("tolerance must be positive")
        if self.max_iterations < 1:
            raise NonPositiveInput("max_iterations must be at least 1")


@dataclass(frozen=True)
class MappingResult:
    value: float
    metric: float
    iterations: int


def _close(metric: float, problem: MappingProblem) -> bool:
    return abs(metric - problem.target) <= problem.tolerance * abs(problem.target)


def solve(problem: MappingProblem, evaluator: Evaluator) -> MappingResult:
    """Find the parameter value whose metric hits the target.

    One driver loop evaluates the bounds, then up to max_iterations probes
    from a probe rule, keeping the best iterate for MaxIterations.
    Monotone evaluators take the bisection rule on the sign of the residual
    and require a bracketing interval. Unknown monotonicity takes the
    golden-section rule on |metric - target|, with no bracket demanded.
    Total evaluator calls stay within max_iterations + 2.
    """
    t = problem.target
    f_lo = evaluator(problem.lo)
    f_hi = evaluator(problem.hi)
    if _close(f_lo, problem):
        return MappingResult(problem.lo, f_lo, 0)
    if _close(f_hi, problem):
        return MappingResult(problem.hi, f_hi, 0)

    if evaluator.monotonicity == "unknown":
        probes = _golden(problem, evaluator)
    elif (f_lo - t) * (f_hi - t) > 0:
        raise TargetNotBracketed(
            f"{evaluator.name}({problem.lo})={f_lo:g} and "
            f"{evaluator.name}({problem.hi})={f_hi:g} sit on the same side "
            f"of target {t:g}")
    else:
        probes = _bisect(problem, evaluator, f_lo - t)
    best_x, best_f = ((problem.lo, f_lo) if abs(f_lo - t) < abs(f_hi - t)
                      else (problem.hi, f_hi))
    for i, x in enumerate(islice(probes, problem.max_iterations), 1):
        f = evaluator(x)
        if abs(f - t) < abs(best_f - t):
            best_x, best_f = x, f
        if _close(f, problem):
            return MappingResult(x, f, i)
    raise MaxIterations(
        f"no convergence to {t:g} within {problem.max_iterations} iterations "
        f"(best {evaluator.name}({best_x:g}) = {best_f:g})",
        best_value=best_x, best_metric=best_f,
        iterations=problem.max_iterations)


# Probe rules only yield probes for solve() to evaluate. They re-read a
# probe's metric through the evaluator's memo, which makes no new call.

def _bisect(problem, evaluator, s_lo):
    lo, hi, t = problem.lo, problem.hi, problem.target
    while True:
        mid = (lo + hi) / 2.0
        yield mid
        if (evaluator(mid) - t) * s_lo > 0:
            lo, s_lo = mid, evaluator(mid) - t
        else:
            hi = mid


def _golden(problem, evaluator):
    lo, hi, t = problem.lo, problem.hi, problem.target
    x1 = hi - _GOLDEN * (hi - lo)
    yield x1
    x2 = lo + _GOLDEN * (hi - lo)
    yield x2
    while True:
        if abs(evaluator(x1) - t) < abs(evaluator(x2) - t):
            hi, x2 = x2, x1
            x1 = hi - _GOLDEN * (hi - lo)
            yield x1
        else:
            lo, x1 = x1, x2
            x2 = lo + _GOLDEN * (hi - lo)
            yield x2


# ---- shipped evaluators --------------------------------------------------

def _metal_area(kind: str, params: dict, x: float) -> float:
    if kind == "xmon":
        w = params.get("arm_width", 50.0)
        return 4.0 * x * w - w * w          # two crossed bars share the hub
    if kind == "transmon":
        return 2.0 * x * params.get("pad_height", 150.0)
    raise ComponentNotTunable(f"no area model for kind {kind!r}")


TUNABLE_DIMENSION = {"xmon": "arm_length", "transmon": "pad_width"}


def capacitance_evaluator(kind: str, params: dict) -> Evaluator:
    """Tunable-dimension -> self-capacitance stub, linear in metal area."""
    return Evaluator(
        "self-capacitance", "F", "increasing",
        lambda x: CAP_PER_AREA * _metal_area(kind, params, x))


def _stub(name: str, args: list[str]) -> Evaluator:
    if name == "linear":
        slope = float(args[0]) if args else 1.0
        offset = float(args[1]) if len(args) > 1 else 0.0
        mono = "increasing" if slope > 0 else (
            "decreasing" if slope < 0 else "unknown")
        return Evaluator("linear", "", mono, lambda x: slope * x + offset)
    if name == "pad-capacitance":
        return Evaluator("pad-capacitance", "F", "increasing",
                         lambda x: CAP_PER_AREA * x)
    if name == "charging-energy":
        # pad area -> capacitance -> E_C/h; larger pads mean smaller E_C
        return Evaluator("charging-energy", "Hz", "decreasing",
                         lambda x: charging_energy(CAP_PER_AREA * x))
    raise UnknownSelector(f"no stub evaluator named {name!r}")


def make_evaluator(spec: str) -> Evaluator:
    """Build an evaluator from a selector string.

    stub:<name>[:arg...] picks a shipped analytic stub; cmd:<path> wraps an
    external command that takes the parameter value as its argument and
    prints the metric as a single decimal.
    """
    if spec.startswith("stub:"):
        parts = spec[5:].split(":")
        return _stub(parts[0], parts[1:])
    if spec.startswith("cmd:"):
        path = spec[4:]
        if not path:
            raise UnknownSelector("cmd: needs a command path")

        def run(x: float) -> float:
            try:
                proc = subprocess.run([path, repr(x)], capture_output=True,
                                      text=True, check=True,
                                      timeout=CMD_TIMEOUT_S)
                return float(proc.stdout.strip())
            except (OSError, ValueError, subprocess.SubprocessError) as exc:
                raise EvaluatorFailed(
                    f"evaluator cmd:{path} failed at input {x!r}: {exc}",
                ) from exc

        return Evaluator(f"cmd:{path}", "", "unknown", run)
    raise UnknownSelector(f"evaluator selector {spec!r}; use stub:<name> "
                          f"or cmd:<path>")


def map_qubit_capacitance(layout, qubit_id: str, target_c: float,
                          evaluator: Evaluator | None = None,
                          bounds: tuple[float, float] | None = None,
                          tolerance: float = 1e-3,
                          max_iterations: int = 60) -> MappingResult:
    """Retune one qubit's tunable dimension to hit a target capacitance.

    Updates the component's params in place (the footprint polygons are not
    re-rendered; params are the record of the mapped value).
    """
    comp = layout.component_by_id(qubit_id)
    dim = TUNABLE_DIMENSION.get(comp.kind)
    if dim is None:
        raise ComponentNotTunable(
            f"{qubit_id} is a {comp.kind}; nothing to tune")
    if evaluator is None:
        evaluator = capacitance_evaluator(comp.kind, comp.params)
    x0 = comp.params[dim]
    lo, hi = bounds if bounds is not None else (0.2 * x0, 5.0 * x0)
    problem = MappingProblem(dim, lo, hi, target_c, tolerance, max_iterations)
    result = solve(problem, evaluator)
    comp.params[dim] = result.value
    comp.params["mapped_capacitance"] = result.metric
    comp.params["mapping_target"] = target_c
    log.info("mapped %s.%s to %.6g (metric %.6g, %d iterations)",
             qubit_id, dim, result.value, result.metric, result.iterations)
    return result
