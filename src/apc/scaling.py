"""Amplitude and time scaling into the machine interval [-1, 1].

Scaling proceeds in three steps:

1. ``estimate_bounds``: per-signal peak magnitudes over the horizon,
   from ``bound`` annotations in the source (with every state bounded,
   the driven signals take their equations' signed intervals over the
   bounds), else from the modes of a homogeneous linear program, else
   from invariant boxes of a program whose variables are all of order 0
   or 1, else from a reference oracle run (adaptive Dormand–Prince 5(4)
   at rtol 1e-9); the last three carry a 25% safety margin. Modes and
   boxes give bounds that hold at every time and cost nothing that
   grows with the horizon, computed in plain Python; a box holds for all
   t >= 0, so it can lie above the peak within the horizon. The
   integrator is in-house numpy, bit-identical to SciPy's RK45, and
   numpy loads only when it runs. All three evaluate expressions with
   ``dsl.evaluate``: floats or arrays, and ``Interval``s.
2. ``amplitude_scale``: pick a scale factor m per signal so that the
   machine net carries signal/m; factors come from the human-legible
   grid {1, 2, 2.5, 5} x 10^k, rounded up, which also keeps predicted
   utilization of the interval at 0.5 or better. A feasibility pass then
   sizes each driven signal by ``compiler.demand``, which reads the
   compiler's normal form (a sum of terms, each a coefficient times
   factors) by the rules the compiler lowers it with, so the gains it
   checks are the ones the compiler builds.
3. ``time_scale``: pick the machine-time factor lambda (problem time
   t = lambda * tau) that keeps each integrator stage's alpha, with
   alpha * k0 = lambda * m_upper / m_lower, in (0, 1]. This module only
   picks factors; ``compiler.compile_system`` accepts or rejects gains.

The compiled program's sidecar mapping lives in ``machine`` and trace
de-scaling back to problem units in ``simulator``, so running a compiled
program never loads this module.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

from .compiler import RANGE_TOL, ScaleMap, demand, normalize, stage_gain
from .dsl import Call, Expr, Num, OdeSystem, Ref, evaluate, signal_name, walk
from .machine import ScalingError, table_bound
from .record import Frozen, Record

# Old homes kept for perfbench, which reads ``scaling.Mapping`` (workloads.py)
# and wraps ``scaling.descale_trace`` (tracing.py), loaded only on use.
from .machine import Mapping  # noqa: F401


def __getattr__(name: str):
    """Resolve ``descale_trace`` on first use (PEP 562)."""
    if name == "descale_trace":
        from .simulator import descale_trace

        return descale_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Margin applied to modal, box and oracle-estimated maxima before grid rounding.
SAFETY_MARGIN = 1.25
#: The bound methods that carry ``SAFETY_MARGIN``.
MARGINED = frozenset({"modal", "box", "oracle"})
ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-12
#: The rejection level: a reference magnitude or a modal or box bound past it is unbounded.
MAGNITUDE_MAX = 1e12


# --- expression values: floats and numpy arrays, and signed intervals ----------

def float_hooks(env: dict, params: dict, tables: dict):
    """``dsl.evaluate``'s hooks for floats and numpy arrays, elementwise: a
    name reads ``env``, which maps (var, order) to values, else ``params``;
    a lookup is ``np.interp``, the oracle's own, not machine.lookup_code."""

    def leaf(e):
        if isinstance(e, Num):
            return e.value
        key = (e.name, e.order)
        return env[key] if key in env else params[e.name]

    def lut(e, ev):
        import numpy as np  # deferred: only the oracle needs it

        xs, ys = zip(*tables[e.args[0].name])
        return np.interp(ev(e.args[1]), xs, ys)

    return leaf, lut


class Interval:
    """The signed interval [lo, hi] of floats or exact rationals under
    Python's unary minus, ``+``, ``-`` and ``*`` (Moore, Interval Analysis,
    1966). A plain class: a ``record.Frozen`` takes four times as long to
    build, and the box builds one per operation."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Interval(min(p), max(p))

    def magnitude(self):
        return max(-self.lo, self.hi)


def _interval(expr: Expr, env: dict, params: dict, number, lut) -> Interval:
    """``expr``'s Interval where ``env`` maps each signal it reads to one;
    a param or a number is the point ``number(value)``, and each lookup
    is ``lut(call, ev)``, as ``dsl.evaluate`` calls it."""

    def leaf(e):
        if isinstance(e, Num):
            x = number(e.value)
        elif (e.name, e.order) in env:
            return env[(e.name, e.order)]
        else:
            x = number(params[e.name])
        return Interval(x, x)

    return evaluate(expr, leaf, lut)


class OracleSolution(Record):
    """High-precision reference trajectories in problem units."""

    __slots__ = ("t", "signals")  # signals: (var, order) -> np.ndarray


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
_UNBOUNDED = (f"unbounded system: reference magnitudes exceed {MAGNITUDE_MAX:.0e}; "
              "annotate bounds").replace("e+", "e")


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
    evaluates the resolved equations directly. A magnitude above ``MAGNITUDE_MAX`` is
    a ScalingError, raised before integrating if t = 0 already shows it.
    """
    import numpy as np  # deferred: only the oracle needs it

    state_keys = [(v, k) for v, n in system.var_order.items() if n >= 1 for k in range(n)]

    point = {}  # the states and order-0 values at one point, which the hooks read
    hooks = float_hooks(point, system.params, system.tables)

    def fill_env(x):
        point.clear()
        point.update(zip(state_keys, x))
        for v in system.order0:
            point[(v, 0)] = evaluate(system.equations[v], *hooks)

    def rhs(_t, x):
        fill_env(x)
        dx = []
        for v, k in state_keys:
            if k < system.var_order[v] - 1:
                dx.append(point[(v, k + 1)])
            else:
                dx.append(evaluate(system.equations[v], *hooks))
        return dx

    if t_eval is None:
        t_eval = np.linspace(0.0, system.horizon, 2001)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
    if state_keys:
        x0 = [system.inits[key] for key in state_keys]
        if any(math.isfinite(x) and abs(x) > MAGNITUDE_MAX for x in (*rhs(0.0, x0), *point.values())):
            raise ScalingError(_UNBOUNDED)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging run raises below instead
            y = _dopri45(rhs, x0, max(system.horizon, float(t_eval[-1])), t_eval, ORACLE_RTOL, ORACLE_ATOL)
        if not np.all(np.isfinite(y)):
            raise ScalingError(_DIVERGED)
    # One call of rhs on the samples gives the top derivatives. Each signal gets
    # its own array: a value may be a scalar or another signal's row itself.
    dx = rhs(None, y if state_keys else ())
    tops = {(v, k + 1): d for (v, k), d in zip(state_keys, dx) if k + 1 == system.var_order[v]}
    env = {key: np.asarray(val) + np.zeros_like(t_eval) for key, val in {**point, **tops}.items()}
    if any(not np.all(np.isfinite(np.asarray(a, dtype=float))) for a in env.values()):
        raise ScalingError("unbounded system: non-finite reference values; annotate bounds")
    if max((float(np.max(np.abs(a))) for a in env.values()), default=0.0) > MAGNITUDE_MAX:
        raise ScalingError(_UNBOUNDED)
    return OracleSolution(t_eval, env)


# --- bounds -----------------------------------------------------------------

class BoundsEstimate(Frozen):
    """Per-signal peak magnitudes (problem units) and how they were obtained."""

    # values: (var, order) -> bound > 0;
    # method: (var, order) -> "user" | "interval" | "modal" | "box" | "oracle"
    __slots__ = ("values", "method")


# --- modal bounds -------------------------------------------------------------
# A homogeneous linear program is x' = A x over its states (each variable's
# derivatives below its order). With A = V diag(lambda) V^-1 and
# c = V^-1 x(0), a signal r.x(t) (a state, or a top derivative, whose r is a
# row of A) equals sum_j (rV)_j c_j e^(lambda_j t). Its magnitude is at most
# f(t) = sum_j |(rV)_j c_j| e^(Re lambda_j t), which is convex, so on
# [0, T] it is at most max(f(0), f(T)), at most the per-mode bound
# sum_j |(rV)_j c_j| max(1, e^(Re lambda_j T)); no cost grows with T. The
# eigen-decomposition is plain Python (Golub & Van Loan, Matrix
# Computations, sec. 7.4-7.6), so that a compile which needs no oracle
# never imports numpy. One complex Schur factorization A = Q T Q^H gives
# both V and V^-1: T's eigenvectors are triangular, and so is their inverse.

#: The most states the modal bound decomposes; a larger program runs the
#: oracle. The decomposition takes 0.2, 9, 50 and 390 ms at 4, 16, 32 and
#: 64 states (Python 3.11, one core of a 2-core VM), where the oracle takes
#: 4-99 ms on the sample programs and on heat-16 and heat-32.
MODAL_MAX_STATES = 32
#: The largest cond_1(V) the modes are trusted at; above it the oracle runs.
#: A defective A leaves its computed eigenvectors all but parallel: an
#: oscillator chain with repeated roots gives cond_1(V) >= 4e13.
MODAL_MAX_COND = 1e8
#: The most a modal bound may exceed the largest magnitude its signal takes
#: at ``_SAMPLES``; a looser bound hands the program to the oracle. The sum
#: of mode magnitudes is loose where modes cancel: for ``y'' = -0.001*y'``
#: at y = 0, y' = 0.5 and time 1, modes of 500 and -500 bound y at 1000
#: where it reaches 0.5, and its scale would be 2000 times the oracle's.
#: At 2, grid rounding leaves a factor at most 2.5 times the one the true
#: peak calls for (and the oracle path's, in 800 generated programs). The
#: check adds 0.4, 3 and 11 ms at 4, 16 and 32 states.
MODAL_MAX_SLACK = 2.0
#: Sample times, as fractions of the horizon: both ends and 62 points of
#: the golden-ratio sequence. A horizon of whole periods puts every point
#: of a uniform grid whose intervals divide the periods at one phase, as
#: the oracle's 2,001 samples are on alias; these points are irregular.
_SAMPLES = (0.0, 1.0, *(k * 0.6180339887498949 % 1 for k in range(1, 63)))
#: QR sweeps allowed per eigenvalue before the decomposition gives up.
_QR_SWEEPS = 30
#: A decomposition is accepted when ||AV - V diag(lambda)||_1 is at most
#: this many times n eps ||A||_1 ||V||_1.
_RESIDUAL_ULPS = 16
_EPS = sys.float_info.epsilon


def _state_matrix(system: OdeSystem):
    """(states, A) with x' = A x, or None unless the program has no order-0
    variable, 1 to ``MODAL_MAX_STATES`` states, and every equation's normal
    form is a sum of terms that each read exactly one signal."""
    states = [(v, k) for v, n in system.var_order.items() for k in range(n)]
    if system.order0 or not 0 < len(states) <= MODAL_MAX_STATES:
        return None
    index = {key: i for i, key in enumerate(states)}
    a = [[0.0] * len(states) for _ in states]
    for (v, k), i in index.items():
        if k + 1 < system.var_order[v]:
            a[i][i + 1] = 1.0
            continue
        for t in normalize(system.equations[v], system).terms:
            if len(t.factors) != 1 or not isinstance(t.factors[0], Ref):
                return None
            a[i][index[(t.factors[0].name, t.factors[0].order)]] += t.coeff
    return states, a


def _givens(x: complex, y: complex) -> tuple[float, complex]:
    """(c, s), c real, such that [[c, s], [-conj(s), c]] maps (x, y) to (r, 0)."""
    if y == 0:
        return 1.0, 0j
    if x == 0:
        return 0.0, y.conjugate() / abs(y)
    r = math.hypot(abs(x), abs(y))
    return abs(x) / r, x / abs(x) * y.conjugate() / r


def _rotate(h: list, q: list, k: int, c: float, s: complex, first: int, last: int) -> None:
    """H <- G H G^H and Q <- Q G^H for the ``_givens`` rotation G of planes k
    and k + 1. G mixes columns ``first`` onwards of rows k and k + 1, and G^H
    mixes rows up to ``last`` of columns k and k + 1: the rest are zero."""
    sc = s.conjugate()
    top, bottom = h[k], h[k + 1]
    for j in range(first, len(h)):
        x, y = top[j], bottom[j]
        top[j], bottom[j] = c * x + s * y, c * y - sc * x
    for row in (*h[:last], *q):
        x, y = row[k], row[k + 1]
        row[k], row[k + 1] = c * x + sc * y, c * y - s * x


def _schur(h: list, q: list, scale: float) -> bool:
    """Reduce H to upper triangular T = Q^H A Q in place, accumulating Q:
    Hessenberg reduction, then single-shift QR sweeps with Wilkinson shifts
    and deflation. False if an eigenvalue takes more than ``_QR_SWEEPS``
    sweeps. ``scale`` stands in for a zero diagonal in the deflation test."""
    n = len(h)
    for k in range(n - 2):
        for i in range(n - 1, k + 1, -1):
            c, s = _givens(h[i - 1][k], h[i][k])
            _rotate(h, q, i - 1, c, s, k, n)
            h[i][k] = 0j
    hi, sweeps = n - 1, 0
    while hi > 0:
        lo = hi
        while lo > 0 and abs(h[lo][lo - 1]) > _EPS * (abs(h[lo - 1][lo - 1]) + abs(h[lo][lo])
                                                      or scale):
            lo -= 1
        if lo > 0:
            h[lo][lo - 1] = 0j
        if lo == hi:
            hi, sweeps = hi - 1, 0
            continue
        sweeps += 1
        if sweeps > _QR_SWEEPS:
            return False
        a, b, c, d = h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi]
        if sweeps % 10 == 0:  # an exceptional shift breaks a cycle
            mu = d + abs(c)
        else:  # the eigenvalue of the trailing 2x2 block nearer d
            half = (a - d) / 2
            root = cmath.sqrt(half * half + b * c)
            den = max(half + root, half - root, key=abs)
            mu = d - b * c / den if den else d
        x, y = h[lo][lo] - mu, h[lo + 1][lo]
        for k in range(lo, hi):
            if k > lo:
                x, y = h[k][k - 1], h[k + 1][k - 1]
            c, s = _givens(x, y)
            _rotate(h, q, k, c, s, max(lo, k - 1), min(k + 3, hi + 1))
            if k > lo:
                h[k + 1][k - 1] = 0j
    return True


def _eig(a: list):
    """(lambda, V, V^-1, residual) with A V = V diag(lambda) to within the
    residual ||AV - V diag(lambda)||_1 and unit columns in V, or None if QR
    does not converge or the residual exceeds ``_RESIDUAL_ULPS`` n eps
    ||A||_1 ||V||_1. T = Q^H A Q has unit upper triangular eigenvectors Y,
    found by back-substitution, so V = Q Y diag(norms)^-1 and
    V^-1 = diag(norms) Y^-1 Q^H, where inverting Y divides by nothing."""
    n = len(a)
    scale = max(abs(x) for row in a for x in row)
    t = [[complex(x) for x in row] for row in a]
    q = [[complex(i == j) for j in range(n)] for i in range(n)]
    if not _schur(t, q, scale):
        return None
    lam = [t[i][i] for i in range(n)]
    small = max(_EPS * scale, sys.float_info.min)
    y = [[0j] * n for _ in range(n)]  # column k: T's eigenvector for lam[k]
    for k in range(n):
        y[k][k] = 1 + 0j
        for i in range(k - 1, -1, -1):
            den = t[i][i] - lam[k]
            y[i][k] = -sum(t[i][j] * y[j][k] for j in range(i + 1, k + 1)) / (
                den if abs(den) >= small else small)
    v = [[sum(q[i][j] * y[j][k] for j in range(k + 1)) for k in range(n)] for i in range(n)]
    norms = [math.sqrt(sum(abs(v[i][k]) ** 2 for i in range(n))) for k in range(n)]
    v = [[x / norm for x, norm in zip(row, norms)] for row in v]
    residual = max(sum(abs(sum(a[i][m] * v[m][k] for m in range(n)) - v[i][k] * lam[k])
                       for i in range(n)) for k in range(n))
    if not residual <= _RESIDUAL_ULPS * n * _EPS * _norm1(a) * _norm1(v):
        return None
    z = [[0j] * n for _ in range(n)]  # Y^-1
    for k in range(n):
        z[k][k] = 1 + 0j
        for i in range(k - 1, -1, -1):
            z[i][k] = -sum(y[i][j] * z[j][k] for j in range(i + 1, k + 1))
    inverse = [[norms[i] * sum(z[i][j] * q[m][j].conjugate() for j in range(i, n))
                for m in range(n)] for i in range(n)]
    return lam, v, inverse, residual


def _norm1(m: list) -> float:
    """The largest column sum of magnitudes."""
    return max(sum(abs(row[k]) for row in m) for k in range(len(m[0])))


def _modal_bounds(system: OdeSystem) -> dict | None:
    """Bound of every signal's magnitude over [0, horizon] from the modes of
    x' = A x, or None where the oracle must decide: the program is not
    homogeneous linear (``_state_matrix``), the decomposition that gives V
    and V^-1 fails (``_eig``), cond_1(V) exceeds ``MODAL_MAX_COND``, a
    bound is not finite or exceeds ``MAGNITUDE_MAX``, a bound above 1e-12 is more than
    ``MODAL_MAX_SLACK`` times the largest magnitude its signal takes at the
    ``_SAMPLES`` times (modes that cancel), or a magnitude overflows. Each bound carries a
    relative slack of 8 n cond_1(V) eps for the decomposition's rounding.
    A's roots lie within cond_1(V) ||residual V^-1||_1 of the computed ones
    (Bauer-Fike), and each growth rate Re lambda_j is raised by that much:
    where A's entries span many decades, a small root can be computed with
    an error as large as eps ||A||, and T multiplies it."""
    found = _state_matrix(system)
    try:
        decomposed = found and _eig(found[1])
        if not decomposed:
            return None
        (states, a), (lam, v, inverse, residual) = found, decomposed
        n = len(states)
        cond = _norm1(v) * _norm1(inverse)
        if not cond <= MODAL_MAX_COND:
            return None
        x0 = [system.inits[key] for key in states]
        c = [sum(row[m] * x0[m] for m in range(n)) for row in inverse]
        shift = cond * residual * _norm1(inverse)
        growth = [math.exp(r) if r < 709 else math.inf
                  for r in ((z.real + shift) * system.horizon for z in lam)]
        waves = [[cmath.exp(z * s * system.horizon) for s in _SAMPLES] if ck else None
                 for z, ck in zip(lam, c)]
        slack = 1 + 8 * n * cond * _EPS
        index = {key: i for i, key in enumerate(states)}
        out = {}
        for v_name, order in system.signals():
            if order < system.var_order[v_name]:
                w = v[index[(v_name, order)]]
            else:  # r is A's row for the top state, so rV is a row of AV
                r = a[index[(v_name, order - 1)]]
                w = [sum(r[m] * v[m][k] for m in range(n)) for k in range(n)]
            terms = [abs(wk * ck) for wk, ck in zip(w, c)]
            at_end = sum(t * g for t, g in zip(terms, growth) if t)
            bound = max(sum(terms), at_end) * slack
            if not bound <= MAGNITUDE_MAX:
                return None
            modes = [(wk * ck, wave) for wk, ck, wave in zip(w, c, waves) if ck]
            sampled = max(abs(sum(wc * wave[i] for wc, wave in modes).real)
                          for i in range(len(_SAMPLES)))
            if bound > 1e-12 and not bound <= MODAL_MAX_SLACK * sampled:
                return None
            out[(v_name, order)] = bound
        return out
    except OverflowError:  # a magnitude past the float range
        return None


# --- invariant boxes ------------------------------------------------------------
# A program whose variables are all of order 0 or 1 is x' = f(x) over its
# order-1 variables, each order-0 one a function of x. A box |x_i| <= B_i
# holding x(0) is positively invariant when on each face x_i = +-B_i the
# value of f_i over the rest of the box points inward (Nagumo 1942;
# Blanchini, "Set invariance in control", Automatica 1999): x stays in it for
# all t >= 0, and the top derivatives and order-0 signals stay in their
# values over it. Signed intervals (Moore, Interval Analysis, 1966) give those
# values. Their ends are exact rationals, so that no rounding decides a test:
# a flat box over a diffusion chain meets its interior faces with exactly 0,
# which a float rounded outward would fail. No cost grows with the horizon,
# and numpy never loads; but a box holds for all t >= 0, so it can lie above
# a peak the horizon ends before, and the top derivatives' intervals above
# their peaks.

#: Starting sizes are raised to this fraction of the largest starting one,
#: and a failing size of 0 with no larger one beside it restarts from it.
BOX_FLOOR = 1e-3
#: Sweeps after which a box that still fails hands the program to the oracle.
BOX_ROUNDS = 64
#: Halvings of the gap between a size's last failing value and its passing
#: one, which shrink the box once it holds: the doubling search can leave a
#: size up to twice what its face needs.
BOX_BISECTIONS = 8


def _ceil(x) -> float:
    """The smallest float at least x."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def _lut_range(table, a: Interval) -> Interval:
    """The end-clamped lookup's interval over a: its values at a's ends and
    at the breakpoints between them."""

    def at(x):
        if x <= table[0][0]:
            return table[0][1]
        if x >= table[-1][0]:
            return table[-1][1]
        (x0, y0), (x1, y1) = next(s for s in zip(table, table[1:]) if x < s[1][0])
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    ys = [at(a.lo), at(a.hi), *(y for x, y in table if a.lo < x < a.hi)]
    return Interval(min(ys), max(ys))


def _grow(sizes: list, holds, reads: list) -> list | None:
    """Raise ``sizes`` until ``holds(i)`` for every i: sweeps, alternately
    forward and backward, raise each failing size to the largest of the
    sizes ``reads[i]`` lists, at most doubling it, and double one that is
    already that large; a size of 0 takes that largest, or ``BOX_FLOOR`` if
    it is 0 too. Raising toward its neighbours carries a front across a
    diffusion chain in one sweep, where doubling every failing size
    overshoots and sets its neighbours failing in turn. Returns each size's
    last failing value (its unfloored start if none), or None after
    ``BOX_ROUNDS`` sweeps or once a size passes ``MAGNITUDE_MAX``."""
    below = list(sizes)
    floor = BOX_FLOOR * max(sizes, default=0.0)
    sizes[:] = [max(x, floor) for x in sizes]
    for sweep in range(BOX_ROUNDS):
        failed = False
        for i in (range(len(sizes)) if sweep % 2 == 0 else reversed(range(len(sizes)))):
            if holds(i):
                continue
            failed = True
            x = below[i] = sizes[i]
            top = max((sizes[j] for j in reads[i]), default=0.0)
            sizes[i] = (min(2 * x, top) if top > x else 2 * x) if x else top or BOX_FLOOR
            if not sizes[i] <= MAGNITUDE_MAX:
                return None
        if not failed:
            return below
    return None


def _box_bounds(system: OdeSystem) -> dict | None:
    """Bound of every signal's magnitude at every t >= 0 from an invariant
    box of the states, or None where the oracle must decide: a variable has
    order 2 or more, the box still fails after ``BOX_ROUNDS`` sweeps, a
    bound exceeds ``MAGNITUDE_MAX``, or a signal a lookup table reads exceeds 1, the
    most its pin to scale 1 allows."""
    if any(n > 1 for n in system.var_order.values()) or not all(
            math.isfinite(x) for x in system.inits.values()):
        return None
    from fractions import Fraction  # deferred: it loads decimal, which builds a namedtuple

    exact = functools.cache(Fraction)  # each number, param and size converts once

    def interval(expr: Expr, env: dict) -> Interval:
        """The interval of a runtime expression over a box; ``env`` maps each
        (var, 0) the expression reads to its interval."""
        return _interval(expr, env, system.params, exact,
                         lambda e, ev: _lut_range(tables[e.args[0].name], ev(e.args[1])))

    states = [v for v, n in system.var_order.items() if n]
    index = {v: i for i, v in enumerate(states)}
    tables = {name: [(exact(x), exact(y)) for x, y in t] for name, t in system.tables.items()}
    zeros = {}  # each variable's order-0 variables, transitively, in system.order0
    reads = {}  # the states each variable's equation reads, through order-0 ones too
    for v in (*system.order0, *states):
        refs = {e.name for e in walk(system.equations[v]) if isinstance(e, Ref)}
        direct = {u for u in refs if system.var_order.get(u) == 0}
        found = direct.union(*(zeros[u] for u in direct))
        zeros[v] = [u for u in system.order0 if u in found]
        reads[v] = {index[u] for u in refs if u in index}.union(*(reads[u] for u in direct))

    def value(v: str, env: dict) -> Interval:
        """f_v's interval over ``env``, whose order-0 entries it rewrites."""
        for u in zeros[v]:
            env[(u, 0)] = interval(system.equations[u], env)
        return interval(system.equations[v], env)

    def inward(i: int) -> bool:
        """Both faces x_i = +-b_i of the box b point inward."""
        v, x = states[i], exact(b[i])
        env = {(states[j], 0): Interval(-exact(b[j]), exact(b[j])) for j in reads[v]}
        env[(v, 0)] = Interval(x, x)
        up = value(v, env).hi
        env[(v, 0)] = Interval(-x, -x)
        return up <= 0 <= value(v, env).lo

    b = [abs(system.inits[(v, 0)]) for v in states]
    below = _grow(b, inward, [reads[v] for v in states])
    if below is None:
        return None
    # Shrinking b_i narrows the interval every other face reads, so a face
    # that held still holds, and only face i needs its test again: first at
    # its last failing value, which may hold now (a start of 0 stays 0), then
    # bisected between that and its passing one.
    for i, lo in enumerate(below):
        hi, b[i] = b[i], lo
        if inward(i):
            continue
        for _ in range(BOX_BISECTIONS):
            b[i] = (lo + hi) / 2
            if inward(i):
                hi = b[i]
            else:
                lo = b[i]
        b[i] = hi
    box = {(v, 0): Interval(-exact(x), exact(x)) for v, x in zip(states, b)}
    for u in system.order0:
        box[(u, 0)] = interval(system.equations[u], box)
    out = {(u, 0): _ceil(box[(u, 0)].magnitude()) for u in system.order0}
    for v, x in zip(states, b):
        out[(v, 0)], out[(v, 1)] = x, _ceil(interval(system.equations[v], box).magnitude())
    if not all(x <= MAGNITUDE_MAX for x in out.values()) or any(
            out[key] > 1 for key in _lut_arg_signals(system) if key in out):
        return None
    return out


def estimate_bounds(system: OdeSystem) -> BoundsEstimate:
    """Peak-magnitude estimate for every signal, including top derivatives.

    ``bound`` annotations are taken as given. When only the driven
    (highest-derivative or order-0) signals are missing they are filled
    by signed interval arithmetic over the annotated bounds, each
    lookup within its table's bound (method "interval").
    Any other gap is filled, with a 25% margin, from the modal bound when
    the program is homogeneous linear and its modes pass their checks
    (``_modal_bounds``, method "modal"), else from invariant boxes when
    its variables are all of order 0 or 1 and its boxes close
    (``_box_bounds``, method "box"), and otherwise from the peaks of the
    reference oracle (method "oracle").
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
        def lut(e, ev):
            t = table_bound(system.tables[e.args[0].name])
            return Interval(-t, t)

        signed = {key: Interval(-b, b) for key, b in values.items()}
        for v in (*system.order0, *(v for v, n in missing if n)):
            key = (v, system.var_order[v])
            if key in values:
                continue
            b = _interval(system.equations[v], signed, system.params, float, lut).magnitude()
            values[key] = max(b, 1e-9)
            signed[key] = Interval(-values[key], values[key])
            method[key] = "interval"
    elif missing:
        peaks, how = _modal_bounds(system), "modal"
        if peaks is None:
            peaks, how = _box_bounds(system), "box"
        if peaks is None:
            oracle, how = reference_solution(system), "oracle"
            peaks = {key: float(abs(oracle.signals[key]).max()) for key in missing}
        margin = SAFETY_MARGIN if how in MARGINED else 1.0
        for key in missing:
            values[key] = peaks[key] * margin if peaks[key] > 1e-12 else 1.0
            method[key] = how
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

    Signals feeding lookup tables keep scale 1: a factor above 1 would
    need an argument gain above 1, and the pin accepts a peak up to 1
    even after the safety margin.

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
            limit = SAFETY_MARGIN if bounds.method.get(key) in MARGINED else 1.0
            if b > limit * (1 + RANGE_TOL):
                raise ScalingError(
                    f"signal {signal_name(*key)} feeds a lookup table but exceeds "
                    f"machine range (bound {b}); restructure or bound it to 1")
            amplitude[key] = 1.0
        else:
            amplitude[key] = _scale_factor(key, b)
        if key in system.inits and abs(system.inits[key] / amplitude[key]) > 1.0 + RANGE_TOL:
            raise ScalingError(f"initial condition {system.inits[key]:.6g} of "
                               f"{signal_name(*key)} exceeds its bound {b:.6g}")

    for v in (*system.order0, *(v for v, n in system.var_order.items() if n >= 1)):
        key = (v, system.var_order[v])
        need = max(demand(normalize(system.equations[v], system), amplitude, system.tables))
        if key in pinned:
            if need > 1.0 + RANGE_TOL:
                raise ScalingError(
                    f"signal {signal_name(*key)} feeds a lookup table but its equation "
                    f"can reach {need:.4g}; restructure or bound it to 1")
        elif need > amplitude[key] * (1 + RANGE_TOL):
            amplitude[key] = _scale_factor(key, need)
    return ScaleMap(amplitude)


def time_scale(system: OdeSystem, scale: ScaleMap, k0: float = 1.0) -> ScaleMap:
    """``scale``'s amplitudes with lambda k0 where every stage allows it (so
    unit-amplitude systems compile to plain chains), else the largest grid
    lambda at most k0 over the largest ``compiler.stage_gain`` at lambda 1;
    ScalingError naming that stage if no positive grid value is. A hand-set
    lambda is ``ScaleMap(amplitude, lam, k0)``, whose stage gains
    ``compiler.compile_system`` checks."""
    unit = ScaleMap(scale.amplitude)
    gains = {(v, d): stage_gain(unit, v, d)  # the stage into derivative order d
             for v, n in system.var_order.items() for d in reversed(range(n))}
    gain = max(gains.values(), default=1.0)
    limit = k0 / gain if gain > 0 else math.inf
    if limit >= k0 * (1 - RANGE_TOL):
        return ScaleMap(scale.amplitude, k0, k0)
    lam = round_down_grid(limit) if limit > 0 else 0.0
    if lam > 0:
        return ScaleMap(scale.amplitude, lam, k0)
    v, d = max(gains, key=gains.get)
    raise ScalingError(f"the stage from {signal_name(v, d + 1)} to {signal_name(v, d)} "
                       f"needs lambda <= {limit:.6g}, below every positive time scale")


def autoscale(system: OdeSystem, k0: float = 1.0) -> ScaleMap:
    """Bounds, amplitude and time scaling in one call."""
    bounds = estimate_bounds(system)
    scale = amplitude_scale(system, bounds)
    return time_scale(system, scale, k0=k0)
