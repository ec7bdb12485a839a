"""Layered benchmark for apc: CLI start-up, large-system compile and run, sweep throughput.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-samples|sweep-vco|all \\
        --seed N --seconds S --trace 0|1

It measures ``setup_s`` (a fresh interpreter running ``import apc``),
then runs passes over the workload's operations until the next pass
would end after ``--seconds``. It checks every output, prints the
machine facts, output fingerprints and every metric by name and unit,
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced and traced passes and reports per-layer
metrics, self times and the tracing overhead. ``--workload all`` runs
the workloads one after another, each in its own process and with its
own report and JSON line. apc is loaded from the checkout's ``src``;
all files are written under ``.perfbench-work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS, Context, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 10
#: Operations repeated, untimed, when a run holds a single pass, so that
#: its files can still be compared with a second run of the same commands.
REPEATED_KINDS = ("compile", "run", "sweep")
IMPORT_PACKAGES = ("apc", "scipy", "networkx", "numpy")

#: name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cli_wall_s.p50": "s", "cli_wall_s.tail": "s",
    "compile_s": "s", "run_s": "s", "run_steps_per_s": "1/s", "element_steps_per_s": "1/s",
    "peak_rss_mb": "MB", "oracle_rel_err": "ratio",
}
LAYER_COUNTS = {  # metric -> (span, count key, unit)
    "dsl.source_lines": ("dsl.parse", "lines", "count"),
    "scaling.oracle_signals": ("scaling.estimate_bounds", "oracle_signals", "count"),
    "compiler.elements": ("compiler.compile_system", "elements", "count"),
    "compiler.inverters": ("compiler.compile_system", "inverters", "count"),
    "machine.netlist_bytes": ("machine.save_netlist", "bytes", "bytes"),
    "simulator.steps": ("simulator.run", "steps", "count"),
    "simulator.trace_bytes": ("simulator.trace_save", "bytes", "bytes"),
    "simulator.overload_records": ("simulator.run", "overloads", "count"),
    "fabric.patches": ("fabric.patch_instructions", "patches", "count"),
}


@dataclass
class Pass:
    traced: bool
    wall: float
    ops: list[Op]
    spans: list[dict]


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it.

    Below twenty samples that percentile would lie under the median, so
    the maximum is reported instead, as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def describe(values) -> str:
    value, pct = tail(values)
    return f"median {statistics.median(values):.6g} s, p{pct:.4g} {value:.6g} s, n={len(values)}"


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing each of IMPORT_PACKAGES, from ``-X importtime``.

    A package's time is the cumulative time of its outermost imports;
    packages a package pulls in are included, so the figures overlap.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        level = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((level, field.strip(), int(cumulative)))
    totals: dict[str, int] = defaultdict(int)
    stack: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        if all(outer.split(".")[0] != top for _, outer in stack):
            totals[top] += cumulative
        stack.append((level, name))
    return {pkg: totals[pkg] / 1e6 for pkg in IMPORT_PACKAGES}


def measure_setup(env: dict, cwd: Path, importtime: bool):
    """Wall times of fresh interpreters importing apc, and their import profiles."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import apc"]
    # One untimed start fills the byte-code caches, which users pay only once.
    subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, check=True)
    times, profiles = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, check=True)
        times.append(time.perf_counter() - start)
        if importtime:
            profiles.append(parse_importtime(proc.stderr))
    return times, profiles


def end_to_end(workload: Workload, passes: list[Pass], setup: list[float], rss_mb: float,
               oracle_err: float) -> dict:
    """name -> (value, description) over the untraced passes."""
    ops = [op for p in passes if not p.traced for op in p.ops]
    cli = [op.wall for op in ops if op.kind in workload.cli_wall_kinds]
    compiles = [op.wall for op in ops if op.kind == "compile"]
    runs = [op.wall / op.runs for op in ops if op.kind in ("run", "sweep")]
    simulating = [op for op in ops if op.steps]
    sim_wall = sum(op.wall for op in simulating)
    steps = sum(op.steps for op in simulating)
    element_steps = sum(op.element_steps for op in simulating)
    walls = [p.wall for p in passes if not p.traced]
    cli_tail, cli_pct = tail(cli)
    return {
        "setup_s": (statistics.median(setup), describe(setup)),
        "wall_s": (statistics.median(walls), describe(walls)),
        "cli_wall_s.p50": (statistics.median(cli), describe(cli)),
        "cli_wall_s.tail": (cli_tail, f"p{cli_pct:.4g} of n={len(cli)}"),
        "compile_s": (statistics.median(compiles), describe(compiles)),
        "run_s": (statistics.median(runs), describe(runs)),
        "run_steps_per_s": (steps / sim_wall if sim_wall else 0.0,
                            f"{steps} steps in {sim_wall:.6g} s"),
        "element_steps_per_s": (element_steps / sim_wall if sim_wall else 0.0,
                                f"{element_steps} element-steps in {sim_wall:.6g} s"),
        "peak_rss_mb": (rss_mb, "peak resident set of the apc processes"),
        "oracle_rel_err": (oracle_err, "max |result - reference| / peak |reference|"),
    }


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer totals, self times and counts over the spans of one traced pass."""
    children = defaultdict(list)
    for s in spans:
        children[(s["op"], s["parent"])].append(s)
    total, own, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += tracing.self_time(s, children[(s["op"], s["id"])])
        for key, value in s["counts"].items():
            counts[(s["name"], key)] += value
    out = {}
    for name in tracing.SPANS:
        out[f"{name}_s"] = (total[name], "s")
        out[f"{name}.self_s"] = (own[name], "s")
    for metric, (span, key, unit) in LAYER_COUNTS.items():
        out[metric] = (counts[(span, key)], unit)
    run_s, steps = total["simulator.run"], counts[("simulator.run", "steps")]
    element_steps = counts[("simulator.run", "element_steps")]
    out["simulator.us_per_step"] = (run_s / steps * 1e6 if steps else 0.0, "us")
    out["simulator.ns_per_element_step"] = (
        run_s / element_steps * 1e9 if element_steps else 0.0, "ns")
    return out


def per_layer(passes: list[Pass], profiles: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over traced passes, import times and the tracing overhead."""
    out = {}
    for pkg in IMPORT_PACKAGES:
        out[f"import.{pkg}_s"] = (statistics.median(p[pkg] for p in profiles), "s")
    traced = [layer_metrics(p.spans) for p in passes if p.traced]
    for name, (_, unit) in traced[0].items():
        out[name] = (statistics.median(m[name][0] for m in traced), unit)
    overhead = (statistics.median(p.wall for p in passes if p.traced)
                - statistics.median(p.wall for p in passes if not p.traced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def machine_facts(seed: int, env: dict) -> dict:
    import networkx
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__, "seed": seed, "APC_WORKERS": env["APC_WORKERS"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    nproc = len(os.sched_getaffinity(0))
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, APC_WORKERS=str(nproc))
    setup, profiles = measure_setup(env, work, importtime=trace)
    sys.path.insert(0, str(ROOT / "src"))  # for the checks, which call apc's oracle

    workload = WORKLOADS[workload_name]()
    ctx = Context(ROOT, work, seed, env)
    workload.prepare(ctx)
    passes: list[Pass] = []
    prints: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        ctx.pass_index, ctx.spans, ctx.traced = len(passes), [], traced
        began = time.perf_counter()
        ops = [ctx.cli(step) for step in workload.steps]
        wall = time.perf_counter() - began
        passes.append(Pass(traced, wall, ops, ctx.spans))
        prints.append(ctx.fingerprints(workload.outputs))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        both_kinds = len({p.traced for p in passes}) == 2
        if (both_kinds or not trace) and elapsed + typical > seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    last = passes[-1].ops
    oracle_err = workload.final_check(ctx, last)
    # Passes must be deterministic: each earlier pass is compared with the
    # last one. A single pass is compared with an untimed repeat of the
    # commands that write files instead.
    compared = [(f"pass {i}", p.ops, prints[i]) for i, p in enumerate(passes[:-1])]
    if len(passes) == 1:
        ctx.pass_index, ctx.traced = 1, False
        repeat = [ctx.cli(s) for s in workload.steps if s.kind in REPEATED_KINDS]
        compared.append(("an untimed repeat", repeat, ctx.fingerprints(workload.outputs)))
    verdict = {op.name: op for op in last}
    for label, ops, files in compared:
        differs = sorted(n for n in set(files) | set(prints[-1])
                         if files.get(n) != prints[-1].get(n))
        for op in ops:
            final = verdict[op.name]
            if differs:
                problem = f"{label} wrote different files than the last pass: {differs}"
            elif (op.code, op.stdout) != (final.code, final.stdout):
                problem = f"{label} output differs from the last pass"
            else:
                continue
            op.problem = op.problem or problem
            final.problem = final.problem or problem
    for p in passes[:-1]:
        for op in p.ops:
            final = verdict[op.name]
            op.steps, op.element_steps = final.steps, final.element_steps
            op.problem = op.problem or final.problem
    ctx.pass_index, ctx.traced = len(passes), False
    probes = [ctx.cli(step) for step in workload.probes]

    all_ops = [op for p in passes for op in p.ops]
    failed = [op for op in all_ops if op.problem]
    facts = machine_facts(seed, env)
    print(f"# workload {workload_name}: {workload.why}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# passes: {len(passes)} ({sum(p.traced for p in passes)} traced), "
          f"{len(all_ops)} operations attempted, {len(failed)} failed"
          + (", compared with an untimed repeat" if len(passes) == 1 else ""))
    for op in failed:
        print(f"# FAILED {op.name}: {op.problem}")
    for op in probes:
        state = "ok" if not op.problem else f"known defect, not counted: {op.problem}"
        print(f"# probe {op.name}: exit {op.code} ({state})")
    for name, digest in prints[-1].items():
        print(f"# sha256 {digest} {name}")
    combined = hashlib.sha256(json.dumps(prints[-1], sort_keys=True).encode()).hexdigest()
    print(f"# sha256 {combined} (all outputs of {workload_name}, seed {seed})")

    if trace:
        metrics = per_layer(passes, profiles)
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit}")
    else:
        e2e = end_to_end(workload, passes, setup, rss_mb, oracle_err)
        metrics = {name: (value, END_TO_END[name]) for name, (value, _) in e2e.items()}
        for name, (value, detail) in e2e.items():
            print(f"# {name} = {value:.6g} {END_TO_END[name]}  ({detail})")
    return {"correct": not failed, "attempted": len(all_ops), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apc" / "__init__.py").is_file() or not (ROOT / "programs").is_dir():
        print(f"perfbench: no apc sources (src/apc, programs) under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so peak RSS and imports stay per workload.
        return max(subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for name in WORKLOADS)
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
