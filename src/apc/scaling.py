"""Amplitude and time scaling into the machine interval [-1, 1].

Scaling proceeds in three steps:

1. ``estimate_bounds``: per-signal peak magnitudes over the horizon,
   either from ``bound`` annotations in the source or from a reference
   oracle run (adaptive Dormand–Prince 5(4) at rtol 1e-9, plus a 25%
   safety margin). The integrator is in-house numpy and bit-identical
   to SciPy's RK45.
2. ``amplitude_scale``: pick a scale factor m per signal so that the
   machine net carries signal/m; factors come from the human-legible
   grid {1, 2, 2.5, 5} x 10^k, rounded up, which also keeps predicted
   utilization of the interval at 0.5 or better. A feasibility pass then
   sizes each driven signal by ``compiler.demand``, which reads the
   compiler's normal form (a sum of terms, each a coefficient times
   factors) by the rules the compiler lowers it with, so the gains it
   checks are the ones the compiler builds.
3. ``time_scale``: pick the machine-time factor lambda (problem time
   t = lambda * tau) and the integrator rate k0. Each integrator stage
   then needs gain alpha * k0 = lambda * m_upper / m_lower; alphas
   outside (0, 1] are a scaling error with a suggested lambda.

The compiled program's sidecar mapping (signal and parameter bindings)
lives in ``machine`` and trace de-scaling back to problem units in
``simulator``, so running a compiled program never loads this module;
both are re-exported here under their old names, ``descale_trace`` only
on first use, so that compiling never loads the simulator.
"""

from __future__ import annotations

import math
import sys

from .compiler import ScaleMap, demand, normalize
from .dsl import Bin, Call, Expr, Neg, Num, OdeSystem, Ref, signal_name, walk
from .machine import ScalingError, table_bound
from .record import Frozen, Record, set_field

# The sidecar mapping, under the names it had here.
from .machine import Mapping, ParamBinding, SignalBinding  # noqa: F401


def __getattr__(name: str):
    """Resolve ``descale_trace`` on first use (PEP 562)."""
    if name == "descale_trace":
        from .simulator import descale_trace

        return descale_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Margin applied to oracle-estimated maxima before grid rounding.
SAFETY_MARGIN = 1.25
ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-12


# --- expression evaluation (shared by the oracle and bound arithmetic) -----

def eval_expr(expr: Expr, env: dict, params: dict, tables: dict):
    """Evaluate a resolved runtime expression.

    ``env`` maps (var, order) to values; works elementwise on numpy
    arrays as well as on scalars.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Ref):
        if expr.name in params and expr.order == 0 and (expr.name, 0) not in env:
            return params[expr.name]
        return env[(expr.name, expr.order)]
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, env, params, tables)
    if isinstance(expr, Bin):
        l = eval_expr(expr.left, env, params, tables)
        r = eval_expr(expr.right, env, params, tables)
        if expr.op == "+":
            return l + r
        if expr.op == "-":
            return l - r
        return l * r
    if isinstance(expr, Call) and expr.func == "lut":
        table = tables[expr.args[0].name]
        x = eval_expr(expr.args[1], env, params, tables)
        import numpy as np  # the oracle's own lookup, independent of machine.lookup_code

        return np.interp(x, [p[0] for p in table], [p[1] for p in table])
    raise TypeError(f"cannot evaluate {expr!r}")


class OracleSolution(Record):
    """High-precision reference trajectories in problem units."""

    __slots__ = ("t", "signals")

    def __init__(self, t: np.ndarray, signals: dict):
        self.t = t
        self.signals = signals  # (var, order) -> np.ndarray


# Dormand–Prince 5(4): nodes C, stages A, 5th-order weights B, error
# weights E (5th minus 4th order, with the FSAL stage) and Shampine's
# quartic dense-output matrix P.
_DP_C = [0, 1/5, 3/10, 4/5, 8/9, 1]
_DP_A = [
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
]
_DP_B = [35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]
_DP_E = [-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
_DP_P = [
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
]
_DP_SAFETY, _DP_MIN_FACTOR, _DP_MAX_FACTOR = 0.9, 0.2, 10
_DIVERGED = ("unbounded system: the reference run diverged; "
             "annotate bounds with 'bound NAME = VALUE'")


def _dopri45(fun, y0, t_end: float, t_eval, rtol: float, atol: float):
    """Integrate y' = fun(t, y) from 0 to ``t_end`` with the Dormand–Prince
    5(4) pair; return y at the sorted points ``t_eval`` as an
    (n, len(t_eval)) array.

    The arithmetic is that of SciPy 1.17's RK45 (SciPy's
    ``integrate/_ivp/rk.py`` and ``common.py``; BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers),
    operation for operation: Hairer–Nørsett–Wanner's initial step, local
    extrapolation, the RMS error norm, step control with safety 0.9 and
    factors in [0.2, 10] (at most 1 after a rejection) and quartic dense
    output at ``t_eval``.
    So the result equals ``solve_ivp(fun, (0, t_end), y0, method="RK45",
    rtol=rtol, atol=atol, t_eval=t_eval).y`` bit for bit. A step that
    would fall below 10 ulps of t raises ScalingError.
    """
    import numpy as np

    if t_eval[0] < 0 or np.any(np.diff(t_eval) <= 0):
        raise ValueError("t_eval must increase strictly from 0 or later")
    C, A, B, E, P = (np.array(m) for m in (_DP_C, _DP_A, _DP_B, _DP_E, _DP_P))
    exponent = -1 / 5  # -1 / (error estimator order + 1)

    def f(t, y):
        return np.asarray(fun(t, y), dtype=float)

    def norm(x):
        return np.linalg.norm(x) / x.size ** 0.5

    t = 0.0
    y = np.asarray(y0).astype(float, copy=False)
    fy = f(t, y)

    # Initial step (Hairer–Nørsett–Wanner, Solving ODEs I, sec. II.4).
    scale = atol + np.abs(y) * rtol
    d0, d1 = norm(y / scale), norm(fy / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = norm((f(t + h0, y + h0 * fy) - fy) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end)

    K = np.empty((len(C) + 1, y.size))
    out, i_eval = [], 0
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too, on which SciPy's loop never ends
                raise ScalingError(_DIVERGED)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
                K[s] = f(t + c * h, y + np.dot(K[:s].T, a[:s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            K[-1] = f_new = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = norm(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _DP_MAX_FACTOR
                else:
                    factor = min(_DP_MAX_FACTOR, _DP_SAFETY * error_norm ** exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_DP_MIN_FACTOR, _DP_SAFETY * error_norm ** exponent)
            rejected = True
        i_new = np.searchsorted(t_eval, t_new, side="right")
        if i_new > i_eval:  # dense output inside [t, t_new]
            x = (t_eval[i_eval:i_new] - t) / h
            powers = np.cumprod(np.tile(x, (P.shape[1], 1)), axis=0)
            ys = h * np.dot(K.T.dot(P), powers)
            ys += y[:, None]
            out.append(ys)
            i_eval = i_new
        t, y, fy = t_new, y_new, f_new
    return np.hstack(out)


def reference_solution(system: OdeSystem, t_eval=None) -> OracleSolution:
    """Integrate the system with an adaptive-step oracle (Dormand–Prince
    5(4), rtol 1e-9; ``_dopri45``, bit-identical to SciPy's RK45), sampled
    at ``t_eval`` or at 2001 evenly spaced points over the horizon.

    Returns trajectories for every signal, including the highest
    derivative of each variable. Independent of the netlist path: it
    evaluates the resolved equations directly.
    """
    import numpy as np  # deferred: only the oracle needs it

    state_keys = [(v, k) for v, n in system.var_order.items() if n >= 1 for k in range(n)]

    def fill_env(env):
        for v in system.order0:
            env[(v, 0)] = eval_expr(system.equations[v], env, system.params, system.tables)
        return env

    def rhs(_t, x):
        env = fill_env(dict(zip(state_keys, x)))
        dx = []
        for v, k in state_keys:
            if k < system.var_order[v] - 1:
                dx.append(env[(v, k + 1)])
            else:
                dx.append(eval_expr(system.equations[v], env, system.params, system.tables))
        return dx

    if t_eval is None:
        t_eval = np.linspace(0.0, system.horizon, 2001)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
    if state_keys:
        x0 = [system.inits[key] for key in state_keys]
        y = _dopri45(rhs, x0, max(system.horizon, float(t_eval[-1])), t_eval, ORACLE_RTOL, ORACLE_ATOL)
        if not np.all(np.isfinite(y)):
            raise ScalingError(_DIVERGED)
        env = fill_env({key: y[i] for i, key in enumerate(state_keys)})
    else:
        env = fill_env({})
    # An order-0 variable with a constant right-hand side folds to a scalar.
    env = {key: val if np.ndim(val) else np.full_like(t_eval, float(val)) for key, val in env.items()}
    for v, n in system.var_order.items():
        if n >= 1:
            env[(v, n)] = np.asarray(
                eval_expr(system.equations[v], env, system.params, system.tables)
            ) + np.zeros_like(t_eval)
    if any(not np.all(np.isfinite(np.asarray(a, dtype=float))) for a in env.values()):
        raise ScalingError("unbounded system: non-finite reference values; annotate bounds")
    if max((float(np.max(np.abs(a))) for a in env.values()), default=0.0) > 1e12:
        raise ScalingError("unbounded system: reference magnitudes exceed 1e12; annotate bounds")
    return OracleSolution(t_eval, env)


# --- bounds -----------------------------------------------------------------

class BoundsEstimate(Frozen):
    """Per-signal peak magnitudes (problem units) and how they were obtained."""

    __slots__ = ("values", "method")

    def __init__(self, values: dict, method: dict):
        set_field(self, "values", values)  # (var, order) -> bound > 0
        set_field(self, "method", method)  # (var, order) -> "user" | "interval" | "oracle"


def _interval_bound(expr: Expr, env: dict, params: dict, tables: dict) -> float:
    """Conservative magnitude bound of an expression given signal bounds."""
    if isinstance(expr, Num):
        return abs(expr.value)
    if isinstance(expr, Ref):
        if (expr.name, expr.order) in env:
            return env[(expr.name, expr.order)]
        return abs(params[expr.name])
    if isinstance(expr, Neg):
        return _interval_bound(expr.operand, env, params, tables)
    if isinstance(expr, Bin):
        l = _interval_bound(expr.left, env, params, tables)
        r = _interval_bound(expr.right, env, params, tables)
        return l * r if expr.op == "*" else l + r
    if isinstance(expr, Call) and expr.func == "lut":
        return table_bound(tables[expr.args[0].name])
    raise TypeError(f"cannot bound {expr!r}")


def estimate_bounds(system: OdeSystem) -> BoundsEstimate:
    """Peak-magnitude estimate for every signal, including top derivatives.

    ``bound`` annotations are taken as given. When only the driven
    (highest-derivative or order-0) signals are missing they are filled
    by interval arithmetic over the annotated bounds (method "interval");
    any other gap triggers the reference oracle, whose maxima get a 25%
    margin (method "oracle").
    """
    needed = system.signals()
    values: dict = {}
    method: dict = {}
    for key, v in system.bounds.items():
        values[key] = v
        method[key] = "user"

    missing = [key for key in needed if key not in values]
    driven = {(v, n) for v, n in system.var_order.items()}
    if missing and all(key in driven for key in missing):
        for v in (*system.order0, *(v for v, n in missing if n)):
            key = (v, system.var_order[v])
            if key in values:
                continue
            b = _interval_bound(system.equations[v], values, system.params, system.tables)
            values[key] = max(b, 1e-9)
            method[key] = "interval"
    elif missing:
        oracle = reference_solution(system)
        for key in missing:
            peak = float(abs(oracle.signals[key]).max())
            values[key] = peak * SAFETY_MARGIN if peak > 1e-12 else 1.0
            method[key] = "oracle"
    return BoundsEstimate(values, method)


# --- scale factors ----------------------------------------------------------

_GRID = (1.0, 2.0, 2.5, 5.0)


def _grid_candidates(x: float) -> list[float]:
    """The {1, 2, 2.5, 5} x 10^k values from the decade below x's to the
    decade above, ascending; 10^k itself must be a finite float."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"grid rounding needs a positive finite value, got {x}")
    e = math.floor(math.log10(x))
    return [g * 10.0 ** k for k in range(e - 1, min(e + 2, sys.float_info.max_10_exp + 1))
            for g in _GRID]


def round_up_grid(x: float) -> float:
    """Smallest {1, 2, 2.5, 5} x 10^k value >= x (within float slack)."""
    return next(c for c in _grid_candidates(x) if c >= x * (1.0 - 1e-9))


def round_down_grid(x: float) -> float:
    """Largest {1, 2, 2.5, 5} x 10^k value <= x (within float slack)."""
    return next(c for c in reversed(_grid_candidates(x)) if c <= x * (1.0 + 1e-9))


def _scale_factor(key: tuple, bound: float) -> float:
    """``round_up_grid(bound)``, the amplitude factor of signal ``key``;
    ScalingError if no finite grid value covers the bound."""
    m = round_up_grid(bound) if bound < math.inf else math.inf
    if m == math.inf:
        raise ScalingError(f"bound {bound:.6g} of {signal_name(*key)} exceeds the largest "
                           "scale factor, 1e+308")
    return m


def _lut_arg_signals(system: OdeSystem):
    found = set()
    for expr in system.equations.values():
        for e in walk(expr):
            if isinstance(e, Call) and e.func == "lut":
                found.update((r.name, r.order) for r in walk(e.args[1])
                             if isinstance(r, Ref) and r.name in system.var_order)
    return found


def amplitude_scale(system: OdeSystem, bounds: BoundsEstimate) -> ScaleMap:
    """Choose per-signal amplitude factors from the scaling grid.

    Signals feeding lookup tables keep scale 1: a table maps the actual
    net value, so rescaling its argument would change the function.

    A feasibility pass then raises each driven (equation) scale to what
    its right-hand side demands in the compiler's normal form, so every
    term coefficient lands in [0, 1] and the summing net cannot saturate.
    Grid rounding of independent signals would otherwise let a gain
    escape by up to 2x. A parenthesized sum used as a multiplier operand
    and a lookup-table argument are built unscaled, so each must fit
    [-1, 1] on its own; otherwise this raises ScalingError, as it does
    for a bound no finite grid value covers and for an initial condition
    the scale factor leaves above 1 machine unit.
    """
    pinned = _lut_arg_signals(system)
    amplitude = {}
    for key in system.signals():
        b = bounds.values[key]
        if key in pinned:
            limit = SAFETY_MARGIN if bounds.method.get(key) == "oracle" else 1.0
            if b > limit * (1 + 1e-9):
                raise ScalingError(
                    f"signal {signal_name(*key)} feeds a lookup table but exceeds "
                    f"machine range (bound {b}); restructure or bound it to 1")
            amplitude[key] = 1.0
        else:
            amplitude[key] = _scale_factor(key, b)
        if key in system.inits and abs(system.inits[key] / amplitude[key]) > 1.0 + 1e-9:
            raise ScalingError(f"initial condition {system.inits[key]:.6g} of "
                               f"{signal_name(*key)} exceeds its bound {b:.6g}")

    for v in (*system.order0, *(v for v, n in system.var_order.items() if n >= 1)):
        key = (v, system.var_order[v])
        need = max(demand(normalize(system.equations[v], system), amplitude, system.tables))
        if key in pinned:
            if need > 1.0 + 1e-9:
                raise ScalingError(
                    f"signal {signal_name(*key)} feeds a lookup table but its equation "
                    f"can reach {need:.4g}; restructure or bound it to 1")
        elif need > amplitude[key] * (1 + 1e-9):
            amplitude[key] = _scale_factor(key, need)
    return ScaleMap(amplitude)


def _stage_ratios(system: OdeSystem, scale: ScaleMap):
    """(var, stage) -> m_lower / m_upper for every integrator stage."""
    out = {}
    for v, n in system.var_order.items():
        for j in range(1, n + 1):  # integrator j outputs derivative order n - j
            out[(v, j)] = scale.m(v, n - j) / scale.m(v, n - j + 1)
    return out


def time_scale(system: OdeSystem, scale: ScaleMap, lam: float | None = None,
               k0: float = 1.0) -> ScaleMap:
    """Fix lambda and k0; verify every stage coefficient lands in (0, 1].

    Without ``lam``, lambda defaults to k0 (or the largest grid value the
    stage ratios allow), so unit-amplitude systems compile to plain chains.
    """
    ratios = _stage_ratios(system, scale)
    limit = k0 * min(ratios.values(), default=1.0)
    if lam is None:
        lam = k0 if limit >= k0 * (1 - 1e-9) else _largest_lambda(system, ratios, limit)
    scaled = ScaleMap(scale.amplitude, lam, k0)
    for (v, j), ratio in ratios.items():
        alpha = lam / (k0 * ratio)
        if alpha > 1.0 + 1e-9:
            raise ScalingError(
                f"stage coefficient {alpha:.6g} for {v!r} falls outside (0, 1]; "
                f"suggested lambda <= {_largest_lambda(system, ratios, limit)}")
    return scaled


def _largest_lambda(system: OdeSystem, ratios: dict, limit: float) -> float:
    """The largest grid lambda at most ``limit``, k0 times the smallest stage
    ratio; ScalingError naming that stage if the ratio or its grid value
    underflows to 0."""
    lam = round_down_grid(limit) if limit > 0 else 0.0
    if lam > 0:
        return lam
    v, j = min(ratios, key=ratios.get)
    n = system.var_order[v]
    raise ScalingError(f"the stage from {signal_name(v, n - j + 1)} to {signal_name(v, n - j)} "
                       f"needs lambda <= {limit:.6g}, below every positive time scale")


def autoscale(system: OdeSystem, k0: float = 1.0) -> ScaleMap:
    """Bounds, amplitude and time scaling in one call."""
    bounds = estimate_bounds(system)
    scale = amplitude_scale(system, bounds)
    return time_scale(system, scale, k0=k0)
