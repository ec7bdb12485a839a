"""The benchmark's workloads.

Each workload is driven as a closed loop by one client: an operation
starts only after the previous one has returned. Every operation is one
``apc`` command run as a subprocess; a pass runs the workload's
``steps`` in order and is the only timed code. ``final_check`` runs
outside the timer and marks operations whose output is wrong.

Why these two: the time of an ``apc`` call sits in very different
places depending on the input. ``cli-samples`` is dominated by
interpreter start and imports, ``sweep-vco`` by per-step interpreter
overhead on a tiny netlist. Each is the control for optimizations that
target the other.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
#: A single operation may not run longer than this; it fails instead.
OP_TIMEOUT_S = 150

# The test suite's unstable program y'' = y: unscaled it leaves the
# machine interval at t = 1.317 and overloads on every later step.
RUNAWAY_SRC = """\
system runaway
var y order 2
eq y'' = y
init y = 0.5
init y' = 0
time 4
output y
"""


@dataclass(frozen=True)
class Step:
    """One ``apc`` command of a pass."""

    name: str
    kind: str  # check | compile | run | map | sweep
    args: tuple[str, ...]
    expect: int = 0  # the exit status the command must return
    runs: int = 1  # simulator runs the command performs


@dataclass
class Op:
    """One timed operation and what the checks found."""

    name: str
    kind: str
    wall: float
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    problem: str = ""
    runs: int = 1
    steps: int = 0  # machine steps simulated, 0 when unknown
    element_steps: int = 0


@dataclass
class Context:
    """What every workload needs: where to work, how to start apc, and tracing."""

    root: Path
    work: Path
    seed: int
    env: dict
    traced: bool = False  # run apc through traced_cli.py and collect its spans
    spans: list = field(default_factory=list)
    pass_index: int = 0

    def cli(self, step: Step) -> Op:
        """Run one ``apc`` command as a subprocess in the work directory."""
        op_id = f"{self.pass_index}:{step.name}"
        if not self.traced:
            cmd = [sys.executable, "-m", "apc", *step.args]
        else:
            spans_path = self.work / "spans" / f"{op_id.replace(':', '_')}.json"
            spans_path.parent.mkdir(exist_ok=True)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), op_id, "--",
                   *step.args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = -1, "", f"timed out after {OP_TIMEOUT_S} s"
        wall = time.perf_counter() - start
        if self.traced and spans_path.exists():
            self.spans += json.loads(spans_path.read_text(encoding="utf-8"))
        return Op(step.name, step.kind, wall, code=code, stdout=out, stderr=err, runs=step.runs,
                  problem=checks.exit_problem(code, step.expect, err))

    def fingerprints(self, names) -> dict[str, str]:
        return {n: checks.sha256(self.work / n) for n in names if (self.work / n).exists()}


def _run_steps(netlist_path: Path, tend: float | None = None) -> tuple[int, int]:
    """(steps, elements) of ``apc run``/``sweep`` on a netlist at the CLI's default dt."""
    from apc import machine, scaling, simulator

    netlist = machine.load_netlist(netlist_path)
    if tend is None:
        tend = scaling.Mapping.load(netlist_path.with_suffix(".map.json")).horizon_machine
    steps = math.ceil(tend / simulator.default_dt(netlist) - 1e-9)
    return steps, len(netlist.elements)


def _reference(source_path: Path, t, params: dict | None = None) -> dict:
    """Oracle trajectories of every output signal, keyed by signal name."""
    import numpy as np
    from apc import dsl, scaling

    program, _ = dsl.load_program(source_path)
    system, _ = dsl.resolve(program)
    if params:
        system = replace(system, params={**system.params, **params})
    oracle = scaling.reference_solution(system, t_eval=np.asarray(t))
    return {dsl.signal_name(v, k): list(oracle.signals[(v, k)]) for v, k in system.outputs}


class Workload:
    name = ""
    why = ""
    #: output files whose sha256 identifies a pass's simulated results
    outputs: list[str] = []
    #: the commands of one pass, in order
    steps: list[Step] = []
    #: commands run once after the passes and reported on their own,
    #: outside the counts and timings
    probes: list[Step] = []
    #: the kinds of operation whose walls make up ``cli_wall_s``
    cli_wall_kinds = ("check", "compile", "run", "map", "sweep")

    def prepare(self, ctx: Context) -> None:
        """Write the generated inputs into the work directory and plan ``steps`` (not timed)."""
        raise NotImplementedError

    def final_check(self, ctx: Context, ops: list[Op]) -> float:
        """Deep checks of the last pass's files; returns the oracle error."""
        raise NotImplementedError


class CliSamples(Workload):
    name = "cli-samples"
    why = ("README CLI flows as separate apc processes on the sample programs; "
           "interpreter start and imports dominate")

    def prepare(self, ctx):
        for p in ("bigsine", "decay", "sine", "vco", "xabc"):
            shutil.copy(ctx.root / "programs" / f"{p}.apc", ctx.work / f"{p}.apc")
        (ctx.work / "runaway.apc").write_text(RUNAWAY_SRC, encoding="utf-8")
        self.programs = ["bigsine", "decay", "sine", "vco", "xabc", "runaway"]
        random.Random(ctx.seed).shuffle(self.programs)
        self.outputs = []
        for p in self.programs:
            self.outputs += [f"{p}.json", f"{p}.map.json", f"{p}.csv", f"{p}.overloads.csv",
                             f"{p}.pu.csv", f"{p}.pu.overloads.csv"]
        self.outputs += ["runaway-none.json", "runaway-none.csv", "runaway-none.overloads.csv"]
        self.steps = []
        for p in self.programs:
            self.steps += [
                Step(f"{p}:check", "check", ("check", f"{p}.apc")),
                Step(f"{p}:compile", "compile", ("compile", f"{p}.apc", "-o", f"{p}.json")),
                Step(f"{p}:run", "run", ("run", f"{p}.json", "--trace", f"{p}.csv")),
                Step(f"{p}:run-problem-units", "run",
                     ("run", f"{p}.json", "--trace", f"{p}.pu.csv", "--problem-units")),
                # `that` has no function generator, so placing decay must fail with status 4.
                Step(f"{p}:map", "map", ("map", f"{p}.json", "--machine", "that"),
                     expect=4 if p == "decay" else 0),
            ]
        self.steps += [
            Step("runaway-none:compile", "compile",
                 ("compile", "runaway.apc", "--scale", "none", "-o", "runaway-none.json")),
            Step("runaway-none:run", "run",
                 ("run", "runaway-none.json", "--trace", "runaway-none.csv")),
            Step("runaway-none:strict", "run", ("run", "runaway-none.json", "--strict-overload"),
                 expect=5),
        ]

    #: The README's sweep on the autoscaled vco, exactly as documented. It
    #: exits 1 at this commit (the autoscaler folds k into a unity gain, so
    #: k maps to no pot). Kept out of the operation counts and timings, a
    #: fix shows as the probe turning to exit 0 without shifting any metric.
    probes = [Step("readme-sweep", "sweep", ("sweep", "vco.json", "--param", "k=0.1:1.0:0.1",
                                             "--tend", "30", "--out", "readme-sweep"), runs=10)]

    def final_check(self, ctx, ops):
        worst = 0.0
        for op in ops:
            p, _, step = op.name.partition(":")
            if op.problem or step in ("check", "compile", "strict"):
                continue
            netlist = ctx.work / f"{p}.json"
            if step == "map":
                if op.code == 0:
                    doc = json.loads(netlist.read_text(encoding="utf-8"))
                    op.problem = checks.patch_problem(op.stdout, doc)
                elif "missing function_generator: 1" not in op.stderr:
                    op.problem = "deficit report does not name the missing function generator"
                continue
            op.steps, elements = _run_steps(netlist)
            op.element_steps = op.steps * elements
            trace = ctx.work / (f"{p}.pu.csv" if step == "run-problem-units" else f"{p}.csv")
            t, series = checks.read_trace(trace)
            reported = int(op.stdout.rsplit("overloads:", 1)[1])
            overloads = checks.read_overloads(trace.with_suffix(".overloads.csv"))
            op.problem = checks.overload_problem(overloads, reported)
            if step == "run":
                mapping = json.loads(netlist.with_suffix(".map.json").read_text(encoding="utf-8"))
                t, series = checks.descale(t, series, mapping)
            if p == "runaway-none":
                if reported == 0:
                    op.problem = op.problem or "unscaled runaway run reported no overloads"
                    continue
                # Compare up to the first overload; after it the machine clamps.
                keep = sum(1 for x in t if x < overloads[0][0])
                t, series = t[:keep], {n: v[:keep] for n, v in series.items()}
            elif reported and not op.problem:
                op.problem = f"scaled run overloaded {reported} times"
            source = ctx.work / f"{p.removesuffix('-none')}.apc"
            err = checks.oracle_error(series, _reference(source, t))
            worst = max(worst, err)
            if err > checks.TOLERANCE and not op.problem:
                op.problem = f"oracle error {err:.3g} exceeds {checks.TOLERANCE}"
        return worst


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """``n`` seeded values, one from each n-th of [lo, hi), in seeded order.

    Every seed then draws nearly the same set of values, so the cost and
    the accuracy of a workload differ little between seeds.
    """
    values = [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]
    rng.shuffle(values)
    return values


class SweepVco(Workload):
    name = "sweep-vco"
    why = ("apc sweep of 10 seeded k values on the unscaled vco, 1M run-steps on a "
           "4-element netlist; per-step overhead and the thread pool dominate")
    RUNS = 10
    TEND = 10.0
    # One sweep call per pass; the compile's start-up would otherwise pool with it.
    cli_wall_kinds = ("sweep",)

    def prepare(self, ctx):
        shutil.copy(ctx.root / "programs" / "vco.apc", ctx.work / "vco.apc")
        self.ks = sorted(round(k, 4) for k in strata(random.Random(ctx.seed), self.RUNS, 0.1, 1.0))
        self.outputs = ["vco.json", "vco.map.json", "sweep/summary.csv"] + [
            f"sweep/run_{i:03d}.csv" for i in range(self.RUNS)]
        param = "k=" + ",".join(repr(k) for k in self.ks)
        self.steps = [
            Step("compile", "compile", ("compile", "vco.apc", "--scale", "none", "-o", "vco.json")),
            Step("sweep", "sweep", ("sweep", "vco.json", "--param", param,
                                    "--tend", repr(self.TEND), "--out", "sweep"), runs=self.RUNS),
        ]

    def final_check(self, ctx, ops):
        sweep = ops[-1]
        if sweep.problem:
            return math.inf
        w = ctx.work
        steps, elements = _run_steps(w / "vco.json", self.TEND)
        for op in ops:
            if op.kind == "sweep":
                op.steps, op.element_steps = steps * self.RUNS, steps * elements * self.RUNS
        scale = json.loads((w / "vco.map.json").read_text(encoding="utf-8"))["params"]["k"]["scale"]
        t_summary, summary = checks.read_trace(w / "sweep" / "summary.csv")
        worst = 0.0
        for i, k in enumerate(self.ks):
            tau, series = checks.read_trace(w / "sweep" / f"run_{i:03d}.csv")
            k_pot = checks.pot_value(k, scale)
            exact = checks.relative_error(series["y"], checks.vco_reference(tau, k_pot))
            err = checks.oracle_error(series, _reference(w / "vco.apc", tau, {"k": k_pot}))
            worst = max(worst, err)
            if max(exact, err) > checks.TOLERANCE:
                sweep.problem = (f"run {i} (k={k}) deviates by {exact:.3g} from "
                                 f"0.5 cos(sqrt(k) t) and by {err:.3g} from the oracle")
            elif t_summary[i] != k or summary["y"][i] != series["y"][-1]:
                sweep.problem = f"summary row {i} does not match run {i}"
        return worst


WORKLOADS = {w.name: w for w in (CliSamples, SweepVco)}
