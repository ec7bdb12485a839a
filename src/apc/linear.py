"""A netlist's linear analysis: its linear form, and its eigen-decomposition.

A netlist of summers, coefficients, references and integrators computes
x' = M x + b over its integrator states x in machine time, which
``linear_form`` builds. ``step_bound`` reads RK4's stability cap and the
fewest steps that keep its error within a quantum from M and its modes.

The eigen-decomposition is plain Python (Golub & Van Loan, Matrix
Computations, sec. 7.4-7.6), so that a compile which needs no oracle
never imports numpy. One complex Schur factorization A = Q T Q^H gives
both V and V^-1: T's eigenvectors are triangular, and so is their
inverse. ``scaling._modal_bounds`` bounds a source program's signals
from it. No module on the run path imports this one, so ``run``,
``sweep`` and ``map`` never compile it.
"""

from __future__ import annotations

import cmath
import math
import sys

from .machine import Kind, evaluation_order

#: QR sweeps allowed per eigenvalue before the decomposition gives up.
_QR_SWEEPS = 30
#: A decomposition is accepted when ||AV - V diag(lambda)||_1 is at most
#: this many times n eps ||A||_1 ||V||_1.
_RESIDUAL_ULPS = 16
_EPS = sys.float_info.epsilon


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


def eig(a: list):
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
    if not residual <= _RESIDUAL_ULPS * n * _EPS * norm1(a) * norm1(v):
        return None
    z = [[0j] * n for _ in range(n)]  # Y^-1
    for k in range(n):
        z[k][k] = 1 + 0j
        for i in range(k - 1, -1, -1):
            z[i][k] = -sum(y[i][j] * z[j][k] for j in range(i + 1, k + 1))
    inverse = [[norms[i] * sum(z[i][j] * q[m][j].conjugate() for j in range(i, n))
                for m in range(n)] for i in range(n)]
    return lam, v, inverse, residual


def norm1(m: list) -> float:
    """The largest column sum of magnitudes."""
    return max(sum(abs(row[k]) for row in m) for k in range(len(m[0])))


#: The radius of the closed left half-disc on which RK4's stability
#: polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 keeps |R(z)| <= 1: on
#: the disc's arc its largest |R| is 0.981 at radius 2.6 and 1.11 at 2.7.
RK4_RADIUS = 2.6


def linear_form(netlist):
    """(integrator ids, M, b) with x' = M x + b over the integrators'
    states x in netlist order, or None if an integrator input reaches a
    multiplier or a function generator. One pass over ``evaluation_order``
    (which raises ConstructionError on a netlist it rejects) folds each
    net into a sparse vector of state weights and a constant; a pot reads
    its ``alpha``, and integrator i adds -k0 times its inputs to row i."""
    ids = [eid for eid, e in netlist.elements.items() if e.kind is Kind.INTEGRATOR]
    form = {eid: ({i: 1.0}, 0.0) for i, eid in enumerate(ids)}  # net -> (weights, constant)

    def summed(nets, gain):
        ins = [form[n] for n in nets]
        if None in ins:
            return None
        weights = {}
        for w, _ in ins:
            for i, x in w.items():
                weights[i] = weights.get(i, 0.0) + x
        return {i: gain * x for i, x in weights.items()}, gain * sum(c for _, c in ins)

    for eid in evaluation_order(netlist):
        e = netlist.elements[eid]
        if e.kind is Kind.REFERENCE:
            form[eid] = {}, e.params["constant"]
        elif e.kind in (Kind.SUMMER, Kind.COEFFICIENT):  # a summer's gain is -1
            form[eid] = summed(e.inputs, e.params.get("alpha", -1.0))
        else:
            form[eid] = None
    rows = [summed(netlist.elements[eid].inputs, -netlist.elements[eid].params["k0"])
            for eid in ids]
    if None in rows:
        return None
    return ids, [[w.get(j, 0.0) for j in range(len(ids))] for w, _ in rows], [c for _, c in rows]


def step_bound(netlist, horizon: float, quantum: float):
    """(cap, steps) for RK4 on ``netlist`` over ``horizon`` machine-time
    units, or None where it has no ``linear_form``.

    ``cap`` is ``RK4_RADIUS`` over M's largest row sum of magnitudes, which
    bounds its roots (Gershgorin), so a step up to ``cap`` keeps every
    decaying mode decaying; inf where M is 0. ``steps`` is 1 with no state,
    else the fewest N for which every state i has

        sum_j |V_ij c_j| N |R_j - E_j| max(1, |R_j|, |E_j|)^(N-1) <= quantum / 8

    over the modes lambda_j of M, or of [[M, b], [0, 0]] where b is not 0,
    with c = V^-1 x(0), R_j = R(h lambda_j), E_j = e^(h lambda_j) and h =
    horizon / N. The sum bounds RK4's error |(R(hM)^n - e^(nhM)) x(0)|_i at
    every step n <= N. The search, doubling and then bisecting, takes it to
    fall as N grows, as it does once every |h lambda_j| is small. ``steps`` is None past ``scaling.MODAL_MAX_STATES`` states,
    where ``eig`` fails or cond_1(V) exceeds ``scaling.MODAL_MAX_COND``,
    and where no N below 2**53 holds.
    """
    from .scaling import MODAL_MAX_COND, MODAL_MAX_STATES  # deferred: scaling imports this module

    form = linear_form(netlist)
    if form is None:
        return None
    ids, m, b = form
    rho = max((sum(map(abs, row)) for row in m), default=0.0)
    cap, n = RK4_RADIUS / rho if rho else math.inf, len(ids)
    if not 0 < n <= MODAL_MAX_STATES:
        return cap, None if n else 1
    x0 = [netlist.elements[eid].params["ic"] for eid in ids]
    if any(b):
        m = [row + [c] for row, c in zip(m, b)] + [[0.0] * (n + 1)]
        x0.append(1.0)
    decomposed = eig(m)
    if not decomposed or not norm1(decomposed[1]) * norm1(decomposed[2]) <= MODAL_MAX_COND:
        return cap, None
    lam, v, inverse, _ = decomposed
    c = [sum(r * x for r, x in zip(row, x0)) for row in inverse]
    weights = [[abs(vj * cj) for vj, cj in zip(row, c)] for row in v[:n]]

    def holds(steps: int) -> bool:
        h, terms = horizon / steps, []
        try:
            for z in lam:
                w = h * z
                r, e = 1 + w * (1 + w / 2 * (1 + w / 3 * (1 + w / 4))), cmath.exp(w)
                terms.append(steps * abs(r - e) * max(1.0, abs(r), abs(e)) ** (steps - 1))
        except OverflowError:
            return False
        return all(sum(x * t for x, t in zip(row, terms) if x) <= quantum / 8 for row in weights)

    lo, hi = 0, 1  # lo fails, or is 0
    while not holds(hi):
        lo, hi = hi, 2 * hi
        if hi >= 2**53:
            return cap, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return cap, hi
