"""Reference version of device mapping's search, one loop per method.

Bisection and golden-section each keep their own best iterate, tolerance
test and ``MaxIterations``. ``sqchip.devmap.solve`` drives both methods
from one loop; it must return the same result, spend the same evaluator
calls in the same probe order and raise the same errors.
"""

from __future__ import annotations

from sqchip.devmap import _GOLDEN, MappingResult, _close
from sqchip.errors import MaxIterations, TargetNotBracketed


def solve(problem, evaluator) -> MappingResult:
    f_lo = evaluator(problem.lo)
    f_hi = evaluator(problem.hi)
    if _close(f_lo, problem):
        return MappingResult(problem.lo, f_lo, 0)
    if _close(f_hi, problem):
        return MappingResult(problem.hi, f_hi, 0)

    if evaluator.monotonicity in ("increasing", "decreasing"):
        return _bisect(problem, evaluator, f_lo, f_hi)
    return _golden(problem, evaluator, f_lo, f_hi)


def _bisect(problem, evaluator, f_lo, f_hi) -> MappingResult:
    t = problem.target
    if (f_lo - t) * (f_hi - t) > 0:
        raise TargetNotBracketed(
            f"{evaluator.name}({problem.lo})={f_lo:g} and "
            f"{evaluator.name}({problem.hi})={f_hi:g} sit on the same side "
            f"of target {t:g}")
    lo, hi = problem.lo, problem.hi
    s_lo = f_lo - t
    best_x, best_f = (lo, f_lo) if abs(f_lo - t) < abs(f_hi - t) else (hi, f_hi)
    for i in range(1, problem.max_iterations + 1):
        mid = (lo + hi) / 2.0
        f_mid = evaluator(mid)
        if abs(f_mid - t) < abs(best_f - t):
            best_x, best_f = mid, f_mid
        if _close(f_mid, problem):
            return MappingResult(mid, f_mid, i)
        if (f_mid - t) * s_lo > 0:
            lo, s_lo = mid, f_mid - t
        else:
            hi = mid
    raise MaxIterations(
        f"no convergence to {t:g} within {problem.max_iterations} iterations "
        f"(best {evaluator.name}({best_x:g}) = {best_f:g})",
        best_value=best_x, best_metric=best_f,
        iterations=problem.max_iterations)


def _golden(problem, evaluator, f_lo, f_hi) -> MappingResult:
    t = problem.target
    lo, hi = problem.lo, problem.hi
    best_x, best_f = (lo, f_lo) if abs(f_lo - t) < abs(f_hi - t) else (hi, f_hi)

    def spent(n):
        return MaxIterations(
            f"budget of {problem.max_iterations} spent before convergence "
            f"(best {evaluator.name}({best_x:g}) = {best_f:g})",
            best_value=best_x, best_metric=best_f, iterations=n)

    x1 = hi - _GOLDEN * (hi - lo)
    g1 = abs(evaluator(x1) - t)
    if g1 < abs(best_f - t):
        best_x, best_f = x1, evaluator(x1)
    if _close(evaluator(x1), problem):
        return MappingResult(x1, evaluator(x1), 1)
    if problem.max_iterations == 1:
        raise spent(1)
    x2 = lo + _GOLDEN * (hi - lo)
    g2 = abs(evaluator(x2) - t)
    if g2 < abs(best_f - t):
        best_x, best_f = x2, evaluator(x2)
    if _close(evaluator(x2), problem):
        return MappingResult(x2, evaluator(x2), 2)
    if problem.max_iterations == 2:
        raise spent(2)
    for i in range(3, problem.max_iterations + 1):
        if g1 < g2:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _GOLDEN * (hi - lo)
            g1 = abs(evaluator(x1) - t)
            probe, g_new = x1, g1
        else:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _GOLDEN * (hi - lo)
            g2 = abs(evaluator(x2) - t)
            probe, g_new = x2, g2
        if g_new < abs(best_f - t):
            best_x, best_f = probe, evaluator(probe)
        if g_new <= problem.tolerance * abs(t):
            return MappingResult(probe, evaluator(probe), i)
    raise MaxIterations(
        f"no convergence to {t:g} within {problem.max_iterations} iterations "
        f"(best {evaluator.name}({best_x:g}) = {best_f:g})",
        best_value=best_x, best_metric=best_f,
        iterations=problem.max_iterations)
