import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apc import compiler, scaling, simulator
from apc.cli import main
from apc.compiler import CompileOptions, ScaleMap, compile_system
from apc.dsl import Bin, Call, Neg, Num, Ref, evaluate, signal_name
from apc.scaling import (
    amplitude_scale,
    autoscale,
    estimate_bounds,
    reference_solution,
    round_down_grid,
    round_up_grid,
    time_scale,
)
from apc.machine import Mapping, ParamBinding, ScalingError, SignalBinding, table_bound
from apc.simulator import OverloadEvent, SimConfig, Trace, descale_trace, new_instance
from conftest import (DECAY_LUT_SRC, ROOT, SINE5_SRC, SINE_SRC, autoscaled_json,
                      compilable_programs, first_order_programs, heat_src, resolve_src,
                      src_env)
from test_compiler import simulable_odes

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

HALF_SINE_SRC = """\
system smallsine
var y order 2
eq y'' = -y
init y = 0.5
init y' = 0
time 10
output y
"""


#: Once exited 4 with "unscaled coefficient 10" after autoscaling: the
#: scaler took each parenthesized sum for a constant, and the compiler
#: built it as a summer, so the product term needed a gain of 10.
PRODUCT_OF_SUMS_SRC = """\
system prod
var x order 0
param k = 0.15
eq x = ((k + (0.05 + 0.05)) * ((0.05 + k) + 0.05))
time 1
"""


#: A table whose segment formula at x1 rounds to one ulp past y1 = 1.
ONE_ULP_TABLE_SRC = "(-0.799741712099096, -0.920759573172591) (0.37378023030454477, 1)"


def driven_by(rhs: str):
    """A system whose order-0 ``y`` is ``rhs`` over ``x`` (bound 0.625, scale 1)."""
    return resolve_src("system t\nparam k = 0.15\nvar x order 1\nvar y order 0\n"
                       "table f = (-1, -1) (1, 1)\ntable g = (-1, -0.1) (1, 0.1)\n"
                       f"eq x' = -x\ninit x = 0.5\neq y = {rhs}\ntime 1\n")


class TestGrid:
    @pytest.mark.parametrize("x,expect", [
        (6.25, 10.0), (0.625, 1.0), (1.25, 2.0), (0.3, 0.5),
        (2.0, 2.0), (2.5, 2.5), (0.051, 0.1), (49.0, 50.0), (1e308, 1e308),
    ])
    def test_round_up(self, x, expect):
        assert round_up_grid(x) == expect

    @pytest.mark.parametrize("x,expect", [
        (0.2, 0.2), (0.21, 0.2), (6.25, 5.0), (1.0, 1.0), (0.9, 0.5), (1.5e308, 1e308),
    ])
    def test_round_down(self, x, expect):
        assert round_down_grid(x) == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_up_grid(0.0)


UNBOUNDED = "unbounded system: reference magnitudes exceed 1e12; annotate bounds"


class TestBounds:
    def test_oracle_bounds_with_margin(self):
        system = resolve_src(SINE5_SRC)
        bounds = estimate_bounds(system)
        # y = 5 cos t: every derivative peaks at 5, margin 1.25 makes 6.25
        assert bounds.values[("y", 0)] == pytest.approx(6.25, rel=1e-3)
        assert bounds.values[("y", 1)] == pytest.approx(6.25, rel=1e-3)
        assert bounds.method[("y", 0)] == "modal"

    def test_nonlinear_oracle_bounds_with_margin(self):
        # y = 5 / (1 + 5t) and y' = -y^2 peak at t = 0, at 5 and 25
        system = resolve_src("system t\nvar y order 1\neq y' = -y*y\ninit y = 5\ntime 1\n")
        bounds = estimate_bounds(system)
        assert bounds.values == {("y", 0): 6.25, ("y", 1): 31.25}
        assert bounds.method == {("y", 0): "oracle", ("y", 1): "oracle"}

    def test_in_range_system(self):
        system = resolve_src(HALF_SINE_SRC)
        bounds = estimate_bounds(system)
        assert bounds.values[("y", 0)] == pytest.approx(0.625, rel=1e-3)

    def test_user_annotation_passthrough(self):
        src = ("system t\nvar y order 2\neq y'' = -y\ninit y = 0.5\ninit y' = 0\n"
               "bound y = 2\nbound y' = 2\nbound y'' = 2\ntime 1\n")
        bounds = estimate_bounds(resolve_src(src))
        assert bounds.values[("y", 0)] == 2.0
        assert bounds.method[("y", 0)] == "user"

    def test_interval_fill_for_top_derivative(self):
        src = ("system t\nvar y order 2\neq y'' = -y - 0.5*y'\ninit y = 0.5\ninit y' = 0\n"
               "bound y = 2\nbound y' = 4\ntime 1\n")
        bounds = estimate_bounds(resolve_src(src))
        assert bounds.values[("y", 2)] == pytest.approx(2 + 0.5 * 4)
        assert bounds.method[("y", 2)] == "interval"

    def test_interval_fill_keeps_an_order_zero_bound(self):
        # x carries its own bound, 0.8, above its interval 0.5: the walk
        # over the order-0 equations, x before w, which reads it, keeps it
        # and bounds w and y' from it.
        src = ("system t\nvar w order 0\nvar x order 0\nvar y order 1\neq w = x + 0.25\n"
               "eq x = 0.5*y\neq y' = -w\ninit y = 0.5\nbound y = 1\nbound x = 0.8\ntime 1\n")
        bounds = estimate_bounds(resolve_src(src))
        assert bounds.method == {("x", 0): "user", ("y", 0): "user", ("w", 0): "interval",
                                 ("y", 1): "interval"}
        assert bounds.values[("x", 0)] == 0.8
        assert bounds.values[("w", 0)] == bounds.values[("y", 1)] == pytest.approx(0.8 + 0.25)

    def test_lookup_is_bounded_by_its_table_bound(self):
        # At x just below x1 the segment's formula rounds one ulp past
        # y1 = 1 (the table of test_simulator's one-ulp lookup): the interval
        # fill and the feasibility pass both count it, as the run loop does.
        system = resolve_src("system t\nvar x order 1\nvar y order 0\neq x' = -x\ninit x = 0.5\n"
                             f"bound x = 1\neq y = lut(f, x)\ntable f = {ONE_ULP_TABLE_SRC}\ntime 1\n")
        bounds = estimate_bounds(system)
        assert bounds.values[("y", 0)] == table_bound(system.tables["f"]) == 1.0000000000000002
        assert bounds.method[("y", 0)] == "interval"
        unit = dict.fromkeys(bounds.values, 1.0)
        assert compiler.demand(compiler.normalize(system.equations["y"], system), unit,
                               system.tables) == (1.0, 1.0000000000000002)

    def test_divergent_system_reports_unbounded(self, tmp_path, capsys):
        src = "system t\nvar y order 1\neq y' = y*y\ninit y = 2\ntime 1\n"
        message = ("unbounded system: the reference run diverged; "
                   "annotate bounds with 'bound NAME = VALUE'")
        with pytest.raises(ScalingError, match=re.escape(message)):
            estimate_bounds(resolve_src(src))
        (tmp_path / "div.apc").write_text(src, encoding="utf-8")
        assert main(["compile", str(tmp_path / "div.apc"), "-o", str(tmp_path / "div.json")]) == 4
        assert capsys.readouterr().err == f"apc: scaling: {message}\n"

    @pytest.mark.parametrize("rhs", ["30*y + 0.001", "1e13*y + 0.001"], ids=["at-t1", "at-t0"])
    def test_growth_past_1e12_reports_unbounded(self, tmp_path, capsys, rhs):
        # y = 0.5 e^(30 t) passes 1e12 near t = 0.95, and y' = 1e13 y already
        # at t = 0, where the check before integrating rejects it
        (tmp_path / "g.apc").write_text(f"system t\nvar y order 1\neq y' = {rhs}\n"
                                        "init y = 0.5\ntime 1\n", encoding="utf-8")
        assert main(["compile", str(tmp_path / "g.apc"), "-o", str(tmp_path / "g.json")]) == 4
        assert capsys.readouterr().err == f"apc: scaling: {UNBOUNDED}\n"

    @pytest.mark.parametrize("src", [
        "system t\nvar y order 2\neq y'' = -1e300*y - 1e300*y'\ninit y = 0.5\ninit y' = 0\n"
        "time 1\n",
        "system t\nvar y order 1\neq y' = -1e13*y + 0.001\ninit y = 0.5\ntime 1\n",
    ], ids=["linear", "affine"])
    def test_stiff_program_past_1e12_at_t0_is_rejected_before_integrating(self, tmp_path, src):
        """The oracle steps near 1 / |rate| on these and ran each for minutes
        before reaching its first sample's verdict. A separate process with
        a timeout, so that a regression fails rather than hangs."""
        (tmp_path / "s.apc").write_text(src, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "apc", "compile", str(tmp_path / "s.apc"),
                               "-o", str(tmp_path / "s.json")],
                              env=src_env(), capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (4, f"apc: scaling: {UNBOUNDED}\n")

    def test_overflowing_oracle_prints_only_its_verdict(self, tmp_path):
        """y = 0.5 e^(1e6 t) overflows mid-run: numpy's RuntimeWarnings stay
        off stderr, which a fresh process shows as pytest would not."""
        (tmp_path / "o.apc").write_text("system t\nvar y order 1\neq y' = 1e6*y + 0.001\n"
                                        "init y = 0.5\ntime 1\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "apc", "compile", str(tmp_path / "o.apc"),
                               "-o", str(tmp_path / "o.json")],
                              env=src_env(), capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (
            4, "apc: scaling: unbounded system: the reference run diverged; "
               "annotate bounds with 'bound NAME = VALUE'\n")

    def test_non_finite_initial_value_reports_unbounded(self):
        # The resolver rejects such an init, so the system is built directly.
        system = resolve_src("system t\nvar y order 1\neq y' = -y\ninit y = 1\ntime 1\n")
        system = dataclasses.replace(system, inits={("y", 0): math.inf})
        with pytest.raises(ScalingError, match="diverged"), np.errstate(invalid="ignore"):
            reference_solution(system)

    def test_constant_order_zero_signal_beside_a_state(self):
        # x folds to one float while y is a trajectory; both get a bound
        src = ("system t\nvar x order 0\nvar y order 1\neq x = 0.05\neq y' = 0.05\n"
               "init y = 0\ntime 1\n")
        system = resolve_src(src)
        oracle = reference_solution(system)
        assert np.array_equal(oracle.signals[("x", 0)], np.full_like(oracle.t, 0.05))
        bounds = estimate_bounds(system)
        assert bounds.values[("x", 0)] > 0 and bounds.values[("y", 0)] > 0

    def test_zero_signal_defaults_to_unit_bound(self):
        src = "system t\nvar y order 1\neq y' = -y\ninit y = 0\ntime 1\n"
        bounds = estimate_bounds(resolve_src(src))
        assert bounds.values[("y", 0)] == 1.0

    def test_cancelling_constants_tighten_the_interval_fill(self):
        """x is 0.25, which magnitude arithmetic bounded by 0.75 + 0.5 = 1.25:
        x and y' then took the factor 2 and lambda 0.5. A signed interval
        bounds x exactly."""
        src = ("system t\nvar x order 0\nvar y order 1\neq x = 0.75 - 0.5\neq y' = -x*y\n"
               "init y = 0.5\nbound y = 1\ntime 1\n")
        system = resolve_src(src)
        bounds = estimate_bounds(system)
        assert bounds.values == {("x", 0): 0.25, ("y", 0): 1.0, ("y", 1): 0.25}
        assert bounds.method[("x", 0)] == bounds.method[("y", 1)] == "interval"
        scale = autoscale(system)
        assert (scale.amplitude, scale.lam) == ({("x", 0): 0.25, ("y", 0): 1.0, ("y", 1): 0.25}, 1.0)
        assert_runs_onto_the_oracle(system, scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(compilable_programs(), st.integers(0, 2**32 - 1))
    def test_signed_intervals_are_sound_and_never_looser(self, src, seed):
        """With a bound of 1 on every state, each driven signal is filled by
        its equation's signed interval over the bounds. Its float value at
        the bounds' corners and at random points lies in that interval, and
        the interval's magnitude is at most magnitude arithmetic's."""
        system = resolve_src(src)
        states = [signal_name(v, k) for v, n in system.var_order.items() for k in range(n)]
        system = resolve_src(src + "".join(f"bound {s} = 1\n" for s in states))
        bounds = estimate_bounds(system)
        signed = {key: scaling.Interval(-b, b) for key, b in bounds.values.items()}

        def lut(e, ev):
            t = table_bound(system.tables[e.args[0].name])
            return scaling.Interval(-t, t)

        rng = np.random.default_rng(seed)
        keys = list(bounds.values)
        corners = [np.array([-1.0, 1.0])[rng.integers(0, 2, len(keys))] for _ in range(8)]
        points = [*corners, *rng.uniform(-1.0, 1.0, (8, len(keys)))]
        for key, how in bounds.method.items():
            if how != "interval":
                continue
            expr = system.equations[key[0]]
            interval = scaling._interval(expr, signed, system.params, float, lut)
            assert bounds.values[key] == max(interval.magnitude(), 1e-9)
            assert interval.magnitude() <= magnitude_bound(expr, bounds.values, system.params,
                                                           system.tables)
            for point in points:
                env = {k: x * bounds.values[k] for k, x in zip(keys, point)}
                x = evaluate(expr, *scaling.float_hooks(env, system.params, system.tables))
                assert interval.lo <= x <= interval.hi, (signal_name(*key), x, env)


def magnitude_bound(expr, env: dict, params: dict, tables: dict) -> float:
    """The magnitude arithmetic the interval fill used before signed
    intervals: |a + b|, |a - b| <= |a| + |b| and |a b| = |a| |b| over the
    bounds, and a lookup at most its table's bound."""
    if isinstance(expr, Num):
        return abs(expr.value)
    if isinstance(expr, Ref):
        if (expr.name, expr.order) in env:
            return env[(expr.name, expr.order)]
        return abs(params[expr.name])
    if isinstance(expr, Neg):
        return magnitude_bound(expr.operand, env, params, tables)
    if isinstance(expr, Bin):
        l = magnitude_bound(expr.left, env, params, tables)
        r = magnitude_bound(expr.right, env, params, tables)
        return l * r if expr.op == "*" else l + r
    if isinstance(expr, Call) and expr.func == "lut":
        return table_bound(tables[expr.args[0].name])
    raise TypeError(f"cannot bound {expr!r}")


#: 2,001 evenly spaced samples fall one period apart: every sample of y'
#: lands on a zero crossing, so the oracle's peak of y' missed by 10^7.
ALIAS_SRC = """\
system alias
var y order 2
eq y'' = -10000*y
init y = 0.5
init y' = 0
time 125.66370614359172
output y
"""


@contextlib.contextmanager
def oracle_path():
    """Send ``estimate_bounds`` to the oracle, as it went before modal bounds
    and invariant boxes."""
    with mock.patch.object(scaling, "_modal_bounds", return_value=None), \
            mock.patch.object(scaling, "_box_bounds", return_value=None):
        yield


class TestModalBounds:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_eigen_decomposition_matches_numpy(self, n, pairs, seed):
        """A = S D S^-1 with random S and a D of real roots and up to
        ``pairs`` rotation blocks, each a complex pair."""
        rng = np.random.default_rng(seed)
        d = np.diag(rng.normal(size=n))
        for i in range(0, 2 * min(pairs, n // 2), 2):
            re, im = rng.normal(), rng.uniform(0.1, 2.0)
            d[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
        s = rng.normal(size=(n, n))
        a = s @ d @ np.linalg.inv(s)
        lam, v, inverse, _ = scaling._eig(a.tolist())
        expect = list(np.linalg.eigvals(a))
        for z in lam:  # match each root to its nearest, once
            nearest = min(expect, key=lambda e: abs(e - z))
            assert abs(nearest - z) <= 1e-8 * max(1.0, np.abs(a).sum(0).max())
            expect.remove(nearest)
        v = np.array(v)
        residual = np.abs(a @ v - v * np.array(lam)).sum(0).max()
        norm1 = np.abs(a).sum(0).max() * np.abs(v).sum(0).max()
        assert residual <= 16 * n * np.finfo(float).eps * norm1
        inverse = np.array(inverse)
        cond = np.abs(v).sum(0).max() * np.abs(inverse).sum(0).max()
        assert np.abs(inverse @ v - np.eye(n)).max() <= 16 * n * np.finfo(float).eps * cond

    def test_a_cycling_matrix_takes_the_exceptional_shift(self):
        """The cyclic permutation's Wilkinson shifts repeat; the exceptional
        shift at the tenth sweep breaks the cycle."""
        cyclic = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        lam = scaling._eig(cyclic)[0]
        roots = [complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2), 1]
        assert all(min(abs(z - r) for z in lam) < 1e-14 for r in roots)
        with mock.patch.object(scaling, "_QR_SWEEPS", 9):
            assert scaling._eig(cyclic) is None

    def test_decomposition_failures_return_none(self):
        with mock.patch.object(scaling, "_RESIDUAL_ULPS", 0):
            assert scaling._eig([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) is None

    def test_qr_that_does_not_converge_hands_over_to_the_oracle(self):
        system = resolve_src(SINE5_SRC)
        with mock.patch.object(scaling, "_QR_SWEEPS", 0):
            bounds = estimate_bounds(system)
        with oracle_path():
            expected = estimate_bounds(system)
        assert set(bounds.method.values()) == {"oracle"}
        assert bounds == expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(simulable_odes())
    def test_bound_covers_the_dense_peak(self, src):
        system = resolve_src(src)
        bounds = scaling._modal_bounds(system)
        assume(bounds is not None)
        oracle = reference_solution(system, t_eval=np.linspace(0.0, system.horizon, 20001))
        for key, bound in bounds.items():
            peak = float(np.max(np.abs(oracle.signals[key])))
            assert bound >= peak * (1 - scaling.ORACLE_RTOL) - scaling.ORACLE_ATOL, key

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(simulable_odes(), compilable_programs()))
    def test_factors_stay_near_the_oracle_paths(self, src):
        """No factor is smaller than the oracle path's, and none is more
        than 2.5 times larger: a modal bound is at most MODAL_MAX_SLACK = 2
        times a value the signal takes, and the grid rounds 2x up to at
        most 2.5 times what it rounds x up to. (Where the oracle's samples
        miss the peak, as on alias, the modal factor is rightly larger.)"""
        system = resolve_src(src)
        try:
            with oracle_path():
                before = amplitude_scale(system, estimate_bounds(system))
        except ScalingError:
            return
        after = amplitude_scale(system, estimate_bounds(system))
        assert all(m <= after.amplitude[key] <= 2.5 * m for key, m in before.amplitude.items())

    @pytest.mark.parametrize("drag", ["0.001", "1e-6"])
    def test_cancelling_modes_keep_the_oracle(self, drag):
        """y = 0.5 (1 - e^(-drag t)) / drag reaches about 0.5, but its modes,
        +-0.5 / drag, add up to 1 / drag: a scale that coarse put y below
        the ADC's least significant bit."""
        system = resolve_src(f"system t\nvar y order 2\neq y'' = -{drag}*y'\ninit y = 0\n"
                             "init y' = 0.5\ntime 1\n")
        assert scaling._modal_bounds(system) is None
        assert set(estimate_bounds(system).method.values()) == {"oracle"}
        with oracle_path():
            before = autoscale(system)
        assert autoscale(system) == before and before.m("y", 0) == 1.0

    @pytest.mark.parametrize("init, m", [("4", 5.0), ("2", 2.5), ("0.8", 1.0), ("0.16", 0.2)])
    def test_grid_edge_keeps_its_scale(self, init, m):
        """A fixed slack of 1e-9 bounded init 4 at just over 5, scaled by 10."""
        system = resolve_src(SINE5_SRC.replace("init y = 5", f"init y = {init}"))
        with oracle_path():
            before = autoscale(system)
        assert estimate_bounds(system).method[("y", 0)] == "modal"
        assert autoscale(system) == before and before.m("y", 0) == m

    @pytest.mark.parametrize("src", [
        # a defective A, cond(V) 3e16; inits this small keep the modes' sum below 1e12
        "system t\nparam c = -0.5\nvar y order 3\neq y''' = c*y''\ninit y = 1e-8\n"
        "init y' = 1e-8\ninit y'' = 1e-8\ntime 1\n",
        "system t\nvar x order 0\nvar y order 1\neq x = 0.5*y\neq y' = -x\ninit y = 0.5\ntime 1\n",
        "system t\nvar y order 1\neq y' = 0.1 - y\ninit y = 0.5\ntime 1\n",
        DECAY_LUT_SRC,
        # y = e^1.01t - e^t peaks at 1.7e11, but its modes add up past 1e12
        "system t\nvar y order 2\neq y'' = 2.01*y' - 1.01*y\ninit y = 0\ninit y' = 0.01\ntime 27\n",
        # eleven zero roots: back-substitution divides by eps ten times, and the
        # square of an eigenvector entry overflows
        "system t\nvar y order 11\neq y" + "'" * 11 + " = 0\n"
        + "".join(f"init y{chr(39) * k} = 0.1\n" for k in range(11)) + "time 1\n",
    ], ids=["double-zero-root", "order-0", "constant", "lut", "over-1e12", "overflow"])
    def test_fallback_keeps_the_oracle(self, src):
        """Past the modes, a program of order 1 at most gets an invariant box
        and any other the oracle; without boxes every one gets the oracle."""
        system = resolve_src(src)
        assert scaling._modal_bounds(system) is None
        first_order = max(system.var_order.values()) <= 1
        assert set(estimate_bounds(system).method.values()) == {"box" if first_order else "oracle"}
        with mock.patch.object(scaling, "_box_bounds", return_value=None):
            assert set(estimate_bounds(system).method.values()) == {"oracle"}

    @pytest.mark.parametrize("periods", [1, 63, 64, 2000, 2016])
    def test_whole_periods_keep_the_modes(self, periods):
        """y' = -0.5 sin t is 0 at every point of a uniform grid whose
        intervals divide the periods; the irregular samples still find its
        peak, so the slack check passes."""
        system = resolve_src(HALF_SINE_SRC.replace("time 10", f"time {2 * math.pi * periods!r}"))
        assert set(estimate_bounds(system).method.values()) == {"modal"}

    def test_a_stiff_program_keeps_its_growing_mode(self):
        """Roots near 1 and -1e17: QR finds the small one only to within
        eps 1e17, here as 0, and a bound from that root alone read 0.5
        where y reaches 0.5 e^10."""
        system = resolve_src("system t\nvar y order 2\neq y'' = -1e17*y' + 1e17*y\n"
                             "init y = 0.5\ninit y' = 0.5\ntime 10\n")
        bounds = scaling._modal_bounds(system)
        assert bounds is None or min(bounds.values()) >= 0.5 * math.exp(10)

    @pytest.mark.parametrize("src", [ALIAS_SRC, HALF_SINE_SRC.replace("time 10", "time 1e6")],
                             ids=["alias", "time-1e6"])
    def test_compile_time_does_not_grow_with_the_horizon(self, tmp_path, src):
        """A separate process with a timeout: the oracle integrated the
        whole horizon, 12.6 s for alias and over 120 s at time 1e6. The
        compile loads no numpy, which only the oracle imports, and takes
        about 0.1 s; the 10 s limit leaves room for a loaded machine."""
        (tmp_path / "p.apc").write_text(src, encoding="utf-8")
        code = ("import sys, time; from apc.cli import main; start = time.perf_counter(); "
                f"code = main(['compile', {str(tmp_path / 'p.apc')!r}]); "
                "print(code, 'numpy' in sys.modules, time.perf_counter() - start)")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                              text=True, timeout=60)
        status, numpy_loaded, seconds = proc.stdout.split()[-3:]
        assert status == "0" and numpy_loaded == "False" and float(seconds) < 10.0

    def test_alias_runs_without_overload(self, tmp_path, capsys):
        source, out = tmp_path / "alias.apc", tmp_path / "alias.json"
        source.write_text(ALIAS_SRC, encoding="utf-8")
        assert main(["compile", str(source), "-o", str(out)]) == 0
        mapping = Mapping.load(tmp_path / "alias.map.json")
        assert [mapping.signals[name].scale for name in ("y", "y'", "y''")] == [1.0, 100.0, 1e4]
        assert mapping.lam == 0.01
        capsys.readouterr()
        assert main(["run", str(out), "--tend", "1e4", "--dt", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "overloads: 0"


def assert_box_covers_the_dense_peak(system, box: dict) -> None:
    oracle = reference_solution(system, t_eval=np.linspace(0.0, system.horizon, 20001))
    for key, bound in box.items():
        peak = float(np.max(np.abs(oracle.signals[key])))
        assert bound >= peak * (1 - scaling.ORACLE_RTOL) - scaling.ORACLE_ATOL, key


def assert_runs_without_overload(system) -> None:
    result = compile_system(system, CompileOptions(scale=autoscale(system)))
    horizon = result.mapping.horizon_machine
    trace = new_instance(result.netlist, SimConfig(dt=horizon / 4000)).run(horizon)
    assert trace.overloads == []


class TestInvariantBoxes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(first_order_programs())
    def test_box_covers_the_dense_peak(self, src):
        """Most draws get a box: 300 of the 351 distinct draws of a
        400-example run."""
        system = resolve_src(src)
        box = scaling._box_bounds(system)
        if box is not None:
            assert set(estimate_bounds(system).method.values()) == {"box"}
            assert_box_covers_the_dense_peak(system, box)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(first_order_programs())
    def test_boxed_programs_run_without_overload(self, src):
        """A boxed draw the scaler refuses is one the oracle's bounds cannot
        scale either."""
        system = resolve_src(src)
        if scaling._box_bounds(system) is not None:
            try:
                autoscale(system)
            except ScalingError:
                with oracle_path(), pytest.raises(ScalingError):
                    autoscale(system)
                return
            assert_runs_without_overload(system)

    def test_a_lookup_argument_from_rest_keeps_its_scale(self):
        """z rises from 0 toward 0.8 and peaks at 0.734 by t = 5. The doubling
        search from the floor 1e-3 stops at 1.024, past the pin's limit of 1;
        bisection brings the box down to the face that holds, 0.8, so the
        program compiles as it did under the oracle."""
        src = ("system rise\ntable f = (-1, -1) (0, 0) (1, 1)\nvar z order 1\n"
               "eq z' = 0.4 - 0.5*lut(f, z)\ninit z = 0\ntime 5\n")
        system = resolve_src(src)
        box = scaling._box_bounds(system)
        assert box[("z", 0)] == pytest.approx(0.8, rel=2 ** -8) and box[("z", 0)] >= 0.8
        assert set(estimate_bounds(system).method.values()) == {"box"}
        assert_box_covers_the_dense_peak(system, box)
        assert autoscale(system).amplitude[("z", 0)] == 1.0
        assert_runs_without_overload(system)

    def test_a_box_past_a_pinned_limit_keeps_the_oracle(self):
        """z rises toward 1.2, so every box that holds is at least 1.2, past
        the pin's limit of 1; by t = 1 z reaches only 0.47, so the oracle's
        bounds scale the program."""
        src = ("system rise\ntable f = (-1, -1) (0, 0) (1, 1)\nvar z order 1\n"
               "var w order 1\neq z' = 0.6 - 0.5*z\neq w' = -w + 0.1*lut(f, z)\n"
               "init z = 0\ninit w = 0\ntime 1\n")
        system = resolve_src(src)
        assert scaling._box_bounds(system) is None
        assert set(estimate_bounds(system).method.values()) == {"oracle"}
        assert autoscale(system).amplitude[("z", 0)] == 1.0

    @pytest.mark.parametrize("n", [3, 16, 40])
    def test_heat_with_a_fixed_end(self, n):
        """40 states is past ``MODAL_MAX_STATES``. The box is flat at the
        end's value, 0.5, where each interior face meets 0 exactly."""
        system = resolve_src(heat_src(n))
        assert scaling._modal_bounds(system) is None
        box = scaling._box_bounds(system)
        assert box is not None and set(estimate_bounds(system).method.values()) == {"box"}
        assert_box_covers_the_dense_peak(system, box)
        assert_runs_without_overload(system)

    def test_a_signal_at_rest_keeps_the_unit_scale(self):
        """y starts at 0 and its equation is 0 wherever y is: its size ends
        at 0, not near the floor 5e-4, so y and y' take the factors that
        the oracle's zero peaks give them."""
        src = ("system t\nvar x order 1\nvar y order 1\neq x' = -x + 0.1\n"
               "eq y' = -y - 0.25*y*y + 0.1*x*y\ninit x = 0.5\ninit y = 0\ntime 1\n")
        system = resolve_src(src)
        box = scaling._box_bounds(system)
        assert box[("y", 0)] == box[("y", 1)] == 0
        with oracle_path():
            expected = autoscale(system).amplitude
        amplitude = autoscale(system).amplitude
        assert [amplitude[("y", d)] for d in (0, 1)] == [expected[("y", d)] for d in (0, 1)]

    def test_no_box_keeps_the_oracle(self):
        """The logistic y' = y - y*y from 0.1: its face at -B points outward
        at every B."""
        system = resolve_src("system t\nvar y order 1\neq y' = y - y*y\ninit y = 0.1\ntime 1\n")
        assert scaling._box_bounds(system) is None
        assert set(estimate_bounds(system).method.values()) == {"oracle"}

    def test_a_box_still_failing_after_its_rounds_keeps_the_oracle(self, monkeypatch):
        """heat-16's box closes on its fourth sweep. With three allowed, its
        faces still fail when the sweeps run out, every size far below 1e12."""
        system = resolve_src(heat_src(16))
        monkeypatch.setattr(scaling, "BOX_ROUNDS", 3)
        assert scaling._box_bounds(system) is None
        assert set(estimate_bounds(system).method.values()) == {"oracle"}

    def test_a_cubic_decay_is_boxed_at_its_peaks(self):
        """y' = -y*y*y from 0.5 holds the box 0.5, and the interval of
        -y*y*y over it, 0.125, is y's slope at t = 0."""
        system = resolve_src("system t\nvar y order 1\neq y' = -y*y*y\ninit y = 0.5\ntime 1\n")
        assert scaling._box_bounds(system) == {("y", 0): 0.5, ("y", 1): 0.125}

    @pytest.mark.parametrize("horizon", ["5", "1e6"])
    def test_decay_box_is_its_oracle_peak_at_any_horizon(self, horizon):
        """z and z' both peak at 0.9, at t = 0, whatever the horizon, so
        decay's scale factors are those the oracle gave it."""
        system = resolve_src(DECAY_LUT_SRC.replace("time 5", f"time {horizon}"))
        assert scaling._box_bounds(system) == {("z", 0): 0.9, ("z", 1): 0.9}
        with oracle_path():
            expected = autoscale(resolve_src(DECAY_LUT_SRC))
        assert autoscale(system) == expected


@pytest.fixture(scope="module")
def solve_ivp():
    return pytest.importorskip("scipy.integrate").solve_ivp


def assert_oracle_is_rk45(solve_ivp, system, **kwargs):
    """``reference_solution(system, **kwargs)`` integrates exactly as
    ``solve_ivp(method="RK45")`` does with the same arguments."""
    real, calls = scaling._dopri45, []

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with mock.patch.object(scaling, "_dopri45", spy):
        oracle = reference_solution(system, **kwargs)
    [((fun, y0, t_end, t_eval, rtol, atol), y)] = calls
    sol = solve_ivp(fun, (0.0, t_end), y0, method="RK45", rtol=rtol, atol=atol, t_eval=t_eval)
    assert sol.success
    assert np.array_equal(sol.t, oracle.t)
    assert np.array_equal(sol.y, y)


class TestOracleIsRK45:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(simulable_odes())
    def test_random_linear_systems(self, solve_ivp, src):
        assert_oracle_is_rk45(solve_ivp, resolve_src(src))

    @pytest.mark.parametrize("name", ["bigsine", "decay", "sine", "vco"])
    def test_sample_programs(self, solve_ivp, name):
        assert_oracle_is_rk45(solve_ivp, resolve_src((PROGRAMS / f"{name}.apc").read_text()))

    def test_t_eval_past_the_horizon(self, solve_ivp):
        system = resolve_src(SINE_SRC)
        t_eval = np.linspace(0.25, 1.5 * system.horizon, 301)
        assert_oracle_is_rk45(solve_ivp, system, t_eval=t_eval)

    @pytest.mark.parametrize("t_eval", [[-0.5, 1.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    def test_t_eval_out_of_order_or_before_0_rejected(self, t_eval):
        with pytest.raises(ValueError, match="t_eval"):
            reference_solution(resolve_src(SINE_SRC), t_eval=t_eval)


def test_oracle_gives_each_signal_its_own_array():
    """y' = y and x = y are y's own row, and c = 0.25 a scalar, where the
    right-hand sides are evaluated; each comes back as an array of its own."""
    src = ("system t\nvar y order 1\nvar x order 0\nvar c order 0\neq y' = y\neq x = y\n"
           "eq c = 0.25\ninit y = 0.5\ntime 1\n")
    signals = reference_solution(resolve_src(src)).signals
    arrays = list(signals.values())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    assert np.array_equal(signals[("y", 1)], signals[("y", 0)])
    assert np.array_equal(signals[("x", 0)], signals[("y", 0)])
    assert signals[("c", 0)].shape == signals[("y", 0)].shape and set(signals[("c", 0)]) == {0.25}


class TestAmplitudeScale:
    def test_bound_625_scales_by_10(self):
        system = resolve_src(SINE5_SRC)
        scale = amplitude_scale(system, estimate_bounds(system))
        assert scale.m("y", 0) == 10.0
        assert system.inits[("y", 0)] / scale.m("y", 0) == 0.5

    def test_in_range_system_keeps_unit_scale(self):
        system = resolve_src(HALF_SINE_SRC)
        scale = amplitude_scale(system, estimate_bounds(system))
        assert scale.m("y", 0) == 1.0  # 0.625 already uses over half the interval

    def test_lut_argument_pinned_to_unit(self):
        src = ("system t\nvar z order 1\neq z' = -lut(f, z)\ninit z = 0.9\n"
               "table f = (-1, -1) (0, 0) (1, 1)\ntime 5\n")
        system = resolve_src(src)
        scale = amplitude_scale(system, estimate_bounds(system))
        assert scale.m("z", 0) == 1.0

    def test_lut_argument_out_of_range_rejected(self):
        src = ("system t\nvar z order 1\neq z' = -lut(f, z)\ninit z = 0.9\n"
               "table f = (-1, -1) (0, 0) (1, 1)\nbound z = 3\ntime 5\n")
        system = resolve_src(src)
        with pytest.raises(ScalingError, match="lookup table"):
            amplitude_scale(system, estimate_bounds(system))

    def test_lut_argument_whose_equation_can_leave_the_range_rejected(self):
        # x itself stays within 0.6, but each 0.6 * y term is scaled by y's m = 1.
        src = ("system t\nvar x order 0\nvar y order 1\neq x = 0.6 * y + 0.6 * y\n"
               "eq y' = -lut(f, x)\ninit y = 0.5\ntable f = (-1, -1) (1, 1)\ntime 1\n")
        system = resolve_src(src)
        with pytest.raises(ScalingError, match="signal x feeds a lookup table but its equation "
                                               "can reach 1.2; restructure or bound it to 1"):
            amplitude_scale(system, estimate_bounds(system))


    def test_product_of_sums_compiles_and_matches_oracle(self, tmp_path):
        source = tmp_path / "prod.apc"
        source.write_text(PRODUCT_OF_SUMS_SRC, encoding="utf-8")
        out, trace = tmp_path / "prod.json", tmp_path / "prod.csv"
        assert main(["compile", str(source), "-o", str(out)]) == 0
        assert main(["run", str(out), "--problem-units", "--trace", str(trace)]) == 0
        oracle = reference_solution(resolve_src(PRODUCT_OF_SUMS_SRC)).signals[("x", 0)]
        assert np.all(oracle == 0.0625)
        with open(trace) as fh:
            x = [float(row["x"]) for row in csv.DictReader(fh)]
        assert max(abs(v - 0.0625) for v in x) <= 1e-3 * 0.0625

    @pytest.mark.parametrize("rhs, message", [
        # the compiler builds both operands as sums; (x + k) can reach 1.15
        ("(x + k) * (k - 0.05)", "parenthesized sum needs 1.15 machine units"),
        ("lut(f, x + 0.5)", "lookup-table argument can reach 1.5"),
        # V is only 0.5, but the argument's one term needs a gain of 5
        ("lut(f, 5 * lut(g, x))", "lookup-table argument can reach 5"),
    ], ids=["param-sum", "lut-sum", "lut-gain"])
    def test_operand_built_unscaled_must_fit_on_its_own(self, rhs, message):
        with pytest.raises(ScalingError, match=re.escape(message)):
            autoscale(driven_by(rhs))

    def test_a_zero_factor_leaves_no_operand_to_fit(self):
        """(0.05 - 0.05) is 0, so the product is the constant 0: no multiplier
        reads the sum (x + k), which could reach 1.15, and y stays at 0."""
        system = driven_by("(x + k) * ((0.05 - 0.05) * 0.05)")
        result = compile_system(system, CompileOptions(scale=autoscale(system)))
        assert "multiplier" not in result.netlist.counts()
        trace = new_instance(result.netlist, SimConfig(dt=1e-2)).run(1.0)
        assert set(trace.series["y"]) == {0.0}


class TestTimeScale:
    @pytest.mark.parametrize("lam, k0", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_scale_map_needs_positive_lambda_and_k0(self, lam, k0):
        with pytest.raises(ValueError, match="^lambda and k0 must be positive$"):
            ScaleMap(lam=lam, k0=k0)

    def test_identity(self):
        system = resolve_src(HALF_SINE_SRC)
        scale = time_scale(system, amplitude_scale(system, estimate_bounds(system)))
        assert scale.lam == 1.0 and scale.k0 == 1.0

    def test_default_lambda_equals_k0_for_uniform_amplitudes(self):
        system = resolve_src(SINE5_SRC)
        scale = time_scale(system, amplitude_scale(system, estimate_bounds(system)), k0=1000.0)
        assert scale.lam == 1000.0

    def test_fast_system_slows_down(self):
        src = ("system fast\nvar y order 2\neq y'' = -25*y\ninit y = 0.25\n"
               "init y' = 2.1650635094610966\ntime 2\n")
        system = resolve_src(src)
        scale = time_scale(system, amplitude_scale(system, estimate_bounds(system)))
        assert scale.lam < 1.0
        compile_system(system, CompileOptions(scale=scale))  # all alphas legal

    def test_phase_invariance(self):
        # scaling decisions depend on bounds only, not on phase
        a = resolve_src(SINE5_SRC)
        b = resolve_src(SINE5_SRC.replace("init y = 5\ninit y' = 0", "init y = 0\ninit y' = 5"))
        assert autoscale(a).amplitude == autoscale(b).amplitude


def assert_runs_onto_the_oracle(system, scale) -> None:
    """Property 1: the program compiles, runs at dt 1e-3 without overloads
    and descales to within 1e-3 of each output's peak."""
    result = compile_system(system, CompileOptions(scale=scale))
    trace = new_instance(result.netlist, SimConfig(dt=1e-3)).run(result.mapping.horizon_machine)
    assert trace.overloads == []
    problem = descale_trace(trace, result.mapping)
    oracle = reference_solution(system, t_eval=np.asarray(problem.tau))
    for key in system.outputs:
        ref = oracle.signals[key]
        err = np.max(np.abs(np.asarray(problem.series[signal_name(*key)]) - ref))
        assert err <= 1e-3 * np.max(np.abs(ref)), (signal_name(*key), err)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(compilable_programs())
    def test_autoscaled_programs_run_onto_the_oracle(self, src):
        """Every program the scaler accepts passes ``assert_runs_onto_the_oracle``."""
        system = resolve_src(src)
        try:
            scale = autoscale(system)
        except ScalingError:
            return
        assert_runs_onto_the_oracle(system, scale)

    def test_compiling_is_deterministic(self):
        """Property 2: parse, resolve, autoscale and compile give the same
        netlist and sidecar bytes here and in two new interpreters, each
        with its own string hash seed."""
        sources = []

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(compilable_programs())
        def collect(src):
            sources.append(src)

        collect()
        code = ("import json, sys; from conftest import autoscaled_json; "
                "print(json.dumps([autoscaled_json(s) for s in json.load(sys.stdin)]))")
        env = {**src_env(), "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
        runs = [subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True,
                                 env={**env, "PYTHONHASHSEED": seed}) for seed in ("1", "2")]
        for run in runs:
            with run.stdin:
                run.stdin.write(json.dumps(sources))
        here = [autoscaled_json(s) for s in sources]
        for run in runs:
            with run.stdout:
                out = run.stdout.read()
            assert run.wait() == 0 and json.loads(out) == here

    def test_scaled_run_matches_oracle_after_descale(self):
        system = resolve_src(SINE5_SRC)
        scale = autoscale(system)
        result = compile_system(system, CompileOptions(scale=scale))
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        trace = inst.run(result.mapping.horizon_machine)
        assert trace.overloads == []  # honest bounds leave no overloads

        problem = descale_trace(trace, result.mapping)
        oracle = reference_solution(system, t_eval=np.asarray(problem.tau))
        err = np.max(np.abs(np.array(problem.series["y"]) - oracle.signals[("y", 0)]))
        assert err < 1e-3 * 5.0

    def test_utilization(self):
        system = resolve_src(SINE5_SRC)
        scale = autoscale(system)
        result = compile_system(system, CompileOptions(scale=scale))
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        trace = inst.run(result.mapping.horizon_machine)
        best = max(max(abs(v) for v in series) for series in trace.series.values())
        assert best >= 0.5


class TestDescale:
    def _mapping(self, lam=1.0, m=10.0, parity=1):
        return Mapping({"y": SignalBinding("n1", parity, m)}, {}, lam=lam, k0=lam)

    def test_amplitude(self):
        trace = Trace([0.0], {"y": [0.5]}, [])
        out = descale_trace(trace, self._mapping())
        assert out.series["y"] == [5.0]

    def test_machine_millisecond_is_problem_second(self):
        trace = Trace([0.001], {"y": [0.1]}, [])
        out = descale_trace(trace, self._mapping(lam=1000.0))
        assert out.tau == [1.0]
        assert out.time_label == "t"

    def test_identity(self):
        trace = Trace([0.0, 1.0], {"y": [0.1, 0.2]}, [])
        out = descale_trace(trace, self._mapping(lam=1.0, m=1.0))
        assert out.series == trace.series and out.tau == trace.tau

    def test_parity_applied(self):
        trace = Trace([0.0], {"y": [0.5]}, [])
        out = descale_trace(trace, self._mapping(m=1.0, parity=-1))
        assert out.series["y"] == [-0.5]

    def test_unknown_signal(self):
        trace = Trace([0.0], {"zz": [0.5]}, [])
        with pytest.raises(ScalingError):
            descale_trace(trace, self._mapping())

    def test_overload_times_mapped(self):
        trace = Trace([0.0], {"y": [0.5]}, [OverloadEvent(0.001, "int1", 1.2)])
        out = descale_trace(trace, self._mapping(lam=1000.0))
        assert out.overloads[0].time == pytest.approx(1.0)


class TestMappingSerialization:
    def test_round_trip(self):
        m = Mapping({"y": SignalBinding("int2", 1, 10.0)},
                    {"k": ParamBinding("coef1", -1.0, 0.5)}, lam=2.0, k0=2.0,
                    horizon_machine=5.0)
        back = Mapping.from_dict(m.to_dict())
        assert back == m

    def test_unknown_keys_rejected(self):
        doc = Mapping({}, {}).to_dict()
        doc["bogus"] = 1
        with pytest.raises(ValueError):
            Mapping.from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"signals": {"y": {"parity": 1, "amplitude_scale": 1.0}}}, "missing key 'net' in signal 'y'"),
        ({"params": {"k": {"element": "c", "scale": 1.0}}}, "missing key 'value' in param 'k'"),
        ({"signals": [1]}, "'signals' of mapping file must be an object"),
        ({"signals": {"y": 5}}, "signal 'y' must be an object"),
        ({"signals": {"y": {"net": 3, "parity": 1, "amplitude_scale": 1.0}}},
         "'net' of signal 'y' must be a string"),
        ({"params": {"k": {"element": "c", "scale": None, "value": 1.0}}},
         "'scale' of param 'k' must be a number"),
        ({"horizon_machine": "long"}, "'horizon_machine' of mapping file must be a number"),
        ([], "mapping file must be an object"),
    ])
    def test_malformed_document_names_the_field(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Mapping.from_dict(doc)
