"""Command-line front door: check, compile, run, sweep and map.

The digital host side of the hybrid pairing: it compiles programs,
parametrizes the simulated analog machine through digital-pot updates,
runs it, and reads traces back out.

Exit codes are stable: 0 ok, 1 usage, 2 parse error, 3 resolve/compile
error, 4 scaling, resource or simulation error (a lost sweep lane among
them), 5 strict-overload abort. ``_outcome`` maps an error to its code
and one stderr line where it is raised: in ``main``, or in a sweep lane.

Each command imports only the modules it runs: ``check`` the DSL,
``compile`` the DSL, the compiler and, under ``--scale auto`` only, the
scaler, ``run`` and ``sweep`` the machine and the simulator, ``map`` the
machine and the fabric. Every ``apc`` call is a new process that pays its
imports again, so a sweep forks its lanes with ``os.fork`` and sends
results back with ``marshal``, both built in, rather than load a process
pool.

``entry`` is the process: ``python -m apc`` and the ``apc`` script run it.
It runs ``main``, then freezes the heap (``gc.freeze``) and exits with the
command's code, so that the collection at interpreter exit skips a heap
that is about to be freed anyway. That is safe: the heap is frozen only
once the command is done, reference counting still frees every acyclic
object at once, every file apc writes is closed by a ``with`` block, a
sweep reaps its lanes before ``main`` returns, and exit still flushes
stdout and stderr and runs ``atexit``. The collector stays on while the
command runs: turned off, it would let cyclic garbage pile up and raise a
long compile's peak memory. ``main`` itself, the in-process call of tests
and library users, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import marshal
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .simulator import MachineInstance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPILE = 3
EXIT_SCALE = 4
EXIT_OVERLOAD = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _print_diags(path, diags):
    for d in diags:
        print(f"{path}:{d}", file=sys.stderr)


def _load_system(path: str):
    """Parse and resolve a source file; raises SystemExit on diagnostics."""
    from . import dsl

    program, diags = _load_file(dsl.load_program, path)
    if program is None:
        _print_diags(path, diags)
        raise SystemExit(EXIT_PARSE)
    system, diags = dsl.resolve(program)
    if system is None:
        _print_diags(path, diags)
        raise SystemExit(EXIT_COMPILE)
    return system


def cmd_check(args) -> int:
    _load_system(args.source)
    return EXIT_OK


def _sibling(path, ext: str, suffix: str) -> Path:
    """``path`` with ``suffix`` in place of an ``ext`` extension, else appended."""
    p = Path(path)
    return p.with_suffix(suffix) if p.suffix == ext else Path(str(p) + suffix)


def cmd_compile(args) -> int:
    from . import compiler
    from .machine import save_netlist

    if not 0 < args.k0 < math.inf:
        raise _UsageError(f"--k0 must be positive and finite, got {args.k0}")
    system = _load_system(args.source)
    if args.scale == "auto":
        from .scaling import autoscale

        scale = autoscale(system, k0=args.k0)
    else:
        scale = compiler.ScaleMap.identity(args.k0)
    result = compiler.compile_system(system, compiler.CompileOptions(scale=scale))
    out = Path(args.output) if args.output else Path(args.source).with_suffix(".json")
    save_netlist(result.netlist, out)
    result.mapping.save(_sibling(out, ".json", ".map.json"))
    for kind, n in result.report.items():
        print(f"{kind}s: {n}")
    print(f"netlist: {out}")
    return EXIT_OK


def _pot_setting(netlist, mapping, name: str, value: float) -> tuple[str, float]:
    """The (coefficient element, alpha) pair that realizes ``NAME=value``.

    A parameter the sidecar mapping binds sets alpha = |scale * value|
    on its element; any other name must be a coefficient element, whose
    alpha is the value itself.
    """
    from .machine import Kind, ScalingError

    binding = mapping.params.get(name) if mapping else None
    if binding is not None:
        if value and binding.value and (value > 0) != (binding.value > 0):  # ±0 has no sign
            raise _UsageError(f"{name}={value!r} flips the sign of {binding.value!r}, "
                              "a baked-in parity; recompile instead")
        element, alpha = binding.element, abs(binding.scale * value)
    elif name in netlist.elements and netlist.elements[name].kind is Kind.COEFFICIENT:
        element, alpha = name, value
    else:
        bound = ", ".join(mapping.params) if mapping and mapping.params else "none"
        raise _UsageError(f"parameter {name!r} does not map to a coefficient; "
                          f"sweepable parameters: {bound}")
    if not 0.0 <= alpha <= 1.0:
        raise ScalingError(f"{name}={value!r} needs alpha {alpha:.6g} outside [0, 1]")
    return element, alpha


def _number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise _UsageError(f"{what}: {text!r} is not a number")
    return value


def _parse_set(spec: str) -> tuple[str, float]:
    name, eq, text = spec.partition("=")
    if not eq:
        raise _UsageError(f"--set needs NAME=VALUE, got {spec!r}")
    return name, _number(text, f"--set {name}")


def _load_file(load, path):
    """Run a file loader; a malformed, undecodable or unreadable file exits 1
    naming it."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        print(f"apc: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _load_netlist_and_mapping(args):
    """The netlist and its sidecar mapping, if any, checked to fit it."""
    from .machine import Mapping, load_netlist

    netlist = _load_file(load_netlist, args.netlist)
    mpath = _sibling(args.netlist, ".json", ".map.json")
    if not mpath.exists():
        return netlist, None
    return netlist, _load_file(lambda p: Mapping.load(p).check(netlist), mpath)


def _new_machine(args, netlist, mapping) -> tuple[MachineInstance, float]:
    """A machine in IC mode set up by the run flags, and the machine time to run to."""
    from . import simulator
    from .machine import evaluation_order

    tau_end, source = args.tend, "--tend"
    if tau_end is None:
        if mapping is None or mapping.horizon_machine is None:
            raise _UsageError("--tend is required (no sidecar mapping with a horizon found)")
        tau_end, source = mapping.horizon_machine, "the sidecar mapping's horizon_machine"
    if not 0 < tau_end < math.inf:
        raise _UsageError(f"{source} must be positive and finite, got {tau_end}")
    if args.dt is not None and not 0 < args.dt < math.inf:
        raise _UsageError(f"--dt must be positive and finite, got {args.dt}")
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    dt = args.dt
    if dt is None:
        evaluation_order(netlist)  # default_dt reads params only a valid netlist must have
        dt = simulator.default_dt(netlist)
    if not dt > 0:
        raise _UsageError("the default step size underflows to 0 for this netlist's "
                          "integrator gains; pass --dt")
    try:
        nsteps, _ = simulator.step_grid(tau_end, dt)
    except ValueError as exc:
        raise _UsageError(f"{exc}; pass --dt or a shorter --tend") from None
    flags = ("resolution", "adc_bits", "strict_overload")  # registered without a default
    try:  # so a flag left out, or one the command lacks, keeps SimConfig's default
        config = simulator.SimConfig(dt=dt, sample_every=max(1, nsteps // args.samples),
                                     **{k: v for k, v in vars(args).items() if k in flags})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return simulator.new_instance(netlist, config), tau_end


def cmd_run(args) -> int:
    netlist, mapping = _load_netlist_and_mapping(args)
    if args.problem_units and mapping is None:
        raise _UsageError("--problem-units needs the compiler's sidecar mapping file")
    specs = [_parse_set(spec) for spec in args.set or []]
    instance, tau_end = _new_machine(args, netlist, mapping)  # checks the netlist first
    for spec in specs:
        instance.set_coefficient(*_pot_setting(netlist, mapping, *spec))
    trace = instance.run(tau_end)
    if args.problem_units:
        from .simulator import descale_trace

        trace = descale_trace(trace, mapping)
    if args.trace:
        trace.save(args.trace, _sibling(args.trace, ".csv", ".overloads.csv"))
    for name in netlist.outputs:
        print(f"{name} = {instance.read_adc(name)!r}")
    print(f"overloads: {len(trace.overloads)}")
    return EXIT_OK


#: The most rows a sweep range may ask for. Each row is one run and one
#: trace file, and the values and their pot settings are all built before
#: the first run, so a range past this is a mistyped step, not a sweep.
MAX_SWEEP_ROWS = 10**6


def _sweep_values(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise _UsageError("range must be start:stop:step")
        a, b, s = (_number(x, "--param") for x in parts)
        if not math.isfinite(b - a + s):
            raise _UsageError("sweep range must be finite")
        if s <= 0 or b < a:
            raise _UsageError("empty sweep range")
        steps = (b - a) / s + 1e-9
        if not steps < MAX_SWEEP_ROWS:  # also an infinite count, from a step near 0
            raise _UsageError(f"sweep range has {steps + 1:.7g} rows, "
                              f"at most {MAX_SWEEP_ROWS} are allowed")
        return [a + i * s for i in range(int(steps) + 1)]
    values = [_number(x, "--param") for x in spec.split(",") if x.strip()]
    if not values:
        raise _UsageError("empty sweep value list")
    return values


def _sweep_run(instance: MachineInstance, tau_end: float, out_dir: Path,
               row: tuple[int, str, float]) -> tuple[dict, int]:
    """Sweep row ``(i, element, alpha)``: reload the ICs, set the pot, run
    IC -> OP -> HALT and write ``run_{i:03d}.csv``. Returns the run's final
    values and its overload count."""
    from .simulator import Mode

    i, element, alpha = row
    instance.set_mode(Mode.IC)
    instance.set_coefficient(element, alpha)
    trace = instance.run(tau_end)
    trace.save(out_dir / f"run_{i:03d}.csv")
    return trace.final(), len(trace.overloads)


def _lane(run, rows) -> tuple[list, tuple[int, int, str] | None]:
    """``run`` over ``rows`` in order: the results, and ``(i, code, line)``
    of the row that raised, which ends the lane, or None. An exception
    without an ``_outcome`` propagates."""
    results = []
    for row in rows:
        try:
            results.append(run(row))
        except Exception as exc:
            outcome = _outcome(exc)
            if outcome is None:
                raise
            return results, (row[0], *outcome)
    return results, None


def _child_lane(run, rows, fd: int):
    """Body of a forked lane: run ``rows`` and write ``_lane``'s results and
    failure, marshalled, to pipe ``fd``. Never returns: it leaves with
    ``os._exit``, status 0 once the pipe holds the whole message, so no
    code of the caller runs and nothing the parent buffered is flushed.
    An exception no ``_ERRORS`` row maps prints its traceback and leaves
    with status 1; an interrupt leaves with status 1 silently."""
    status = 1
    try:
        message = marshal.dumps(_lane(run, rows))
        with open(fd, "wb") as fh:
            fh.write(message)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback; stderr is line-buffered
    finally:
        os._exit(status)


def _lost_lane(rows, status: int) -> tuple[int, int, str]:
    """The failure of a lane over ``rows`` whose child ended with wait
    ``status`` before it sent a result: its first row, exit 4 and a line."""
    names = [str(i) for i, *_ in rows]
    if len(names) > 4:
        names[2:-1] = ["..."]
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        import signal

        how = f"was killed by signal {-code} ({signal.Signals(-code).name})"
    else:
        how = f"exited with status {code}"
    noun = "rows" if len(rows) > 1 else "row"
    return (rows[0][0], EXIT_SCALE,
            f"apc: sweep: the lane running {noun} {', '.join(names)} {how} without a result")


def _forked_lanes(run, rows, workers: int) -> tuple[list, tuple[int, int, str] | None]:
    """``run`` over ``rows`` in ``workers`` lanes: each row's result in
    order and None, or no results and the failure of the row that failed
    first in row order, as ``(i, code, line)``.

    Lane j takes rows j, j + workers, ...; this process runs lane 0 and
    forks one child per other lane, which inherits everything ``run``
    needs and sends its results and failure back through its own pipe.
    Every child is reaped before this returns or raises; on an error
    outside the rows (an interrupt, say) the children still running are
    killed first. A lane that ends without a result fails as its first row.
    """
    lanes = [rows[j::workers] for j in range(workers)]
    children = []  # (pid, read end of its pipe, its rows)
    try:
        for lane in lanes[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_lane(run, lane, w)
            os.close(w)
            children.append((pid, open(r, "rb"), lane))
        results, failure = _lane(run, lanes[0])
        failures = [failure]
        done = dict(zip((i for i, *_ in lanes[0]), results))
        while children:
            pid, fh, lane = children[0]
            with fh:
                message = fh.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            results, failure = (marshal.loads(message) if status == 0 else
                                ([], _lost_lane(lane, status)))
            failures.append(failure)
            done.update(zip((i for i, *_ in lane), results))
        failure = min(filter(None, failures), default=None)
        return ([] if failure else [done[i] for i, *_ in rows]), failure
    finally:
        if children:
            import signal
        for pid, fh, _ in children:
            fh.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _sweep_rows(instance, tau_end, out_dir, settings):
    """Run and write each pot setting's row, over one lane per usable CPU;
    returns ``_forked_lanes``' results, each row's final values and
    overload count, and its failure.

    Rows are independent, so any lane may run any of them and write its
    trace file: the lane count never changes a result. This process runs
    one lane and forks the others (``_forked_lanes``); each child inherits
    ``instance``, whose generated run loop is built once, and sends back
    only the final values. Where the usable CPUs cannot be read (macOS,
    Windows) there is one lane, which forks nothing.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(settings))
    rows = [(i, element, alpha) for i, (element, alpha) in enumerate(settings)]

    def run(row):
        return _sweep_run(instance, tau_end, out_dir, row)

    return _forked_lanes(run, rows, workers)


def cmd_sweep(args) -> int:
    """Drive one machine through IC -> OP -> HALT once per parameter value."""
    netlist, mapping = _load_netlist_and_mapping(args)
    name, _, spec = args.param.partition("=")
    if not spec:
        raise _UsageError("--param needs NAME=start:stop:step or NAME=v1,v2,...")
    values = _sweep_values(spec)
    instance, tau_end = _new_machine(args, netlist, mapping)  # checks the netlist first
    settings = [_pot_setting(netlist, mapping, name, v) for v in values]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, failure = _sweep_rows(instance, tau_end, out_dir, settings)
    if failure:
        print(failure[2], file=sys.stderr)
        return failure[1]
    from .simulator import csv_row

    lines = [csv_row(["value", *netlist.outputs, "overloads"])]
    for v, (finals, overloads) in zip(values, rows):
        lines.append(",".join([repr(v), *[repr(finals[n]) for n in netlist.outputs],
                               str(overloads)]) + "\n")
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))
    print(f"sweep: {len(values)} runs -> {out_dir}")
    return EXIT_OK


def cmd_map(args) -> int:
    from . import fabric

    netlist, _ = _load_netlist_and_mapping(args)
    spec = _load_file(fabric.load_machine_spec, args.machine)
    try:
        assignment = fabric.map_netlist(netlist, spec)
    except fabric.ResourceError as exc:
        print(f"apc: resources: {exc}", file=sys.stderr)
        for kind, n in exc.deficits.items():
            print(f"  missing {kind}: {n}", file=sys.stderr)
        return EXIT_SCALE
    text = fabric.patch_instructions(assignment)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="apc", description="Analog computer compiler and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and resolve a program")
    p.add_argument("source")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile a program to a netlist")
    p.add_argument("source")
    p.add_argument("--scale", choices=("auto", "none"), default="auto")
    p.add_argument("--k0", type=float, default=1.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    def add_run_flags(p):
        p.add_argument("netlist")
        p.add_argument("--tend", type=float, default=None, help="machine-time end")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--resolution", type=float, default=argparse.SUPPRESS)
        p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("run", help="simulate a netlist IC -> OP -> HALT")
    add_run_flags(p)
    p.add_argument("--adc-bits", type=int, default=argparse.SUPPRESS)
    p.add_argument("--trace", help="trace CSV output path")
    p.add_argument("--problem-units", action="store_true")
    p.add_argument("--strict-overload", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--set", action="append", metavar="NAME=V",
                   help="digital-pot update before OP")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run one machine once per parameter value")
    add_run_flags(p)
    p.add_argument("--param", required=True, metavar="NAME=a:b:s")
    p.add_argument("--out", required=True, help="directory for traces and summary.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("map", help="place a netlist onto a machine inventory")
    p.add_argument("netlist")
    p.add_argument("--machine", default="that", help="'that' or a spec JSON file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_map)
    return parser


#: Errors a command lets through: (exception type, message prefix, exit
#: code), first match wins. A type in another module is named "module.Type"
#: and looked up only when an error arrives, so that no command loads a
#: module just for its errors. OSError is an output path that cannot be
#: written; a StructuralError that gets this far is a simulated value gone
#: non-finite.
_ERRORS = (
    (_UsageError, "usage: ", EXIT_USAGE),
    ("machine.ConstructionError", "", EXIT_USAGE),
    (OSError, "", EXIT_USAGE),
    ("machine.ScalingError", "scaling: ", EXIT_SCALE),
    ("compiler.CompileError", "compile: ", EXIT_COMPILE),
    ("simulator.OverloadError", "overload: ", EXIT_OVERLOAD),
    ("machine.StructuralError", "simulation: ", EXIT_SCALE),
)


def _outcome(exc: Exception) -> tuple[int, str] | None:
    """The exit code and stderr line of the first ``_ERRORS`` row that maps
    ``exc``, or None. A row whose module is not loaded maps nothing: no
    exception of its type can have been raised."""
    for kind, prefix, code in _ERRORS:
        if isinstance(kind, str):
            module, _, name = kind.partition(".")
            kind = getattr(sys.modules.get(f"{__package__}.{module}"), name, None)
        if kind is not None and isinstance(exc, kind):
            return code, f"apc: {prefix}{exc}"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except Exception as exc:
        outcome = _outcome(exc)
        if outcome is None:
            raise
        print(outcome[1], file=sys.stderr)
        return outcome[0]


def entry() -> None:
    """The ``apc`` process: ``main`` over ``sys.argv``, then the heap frozen
    and exit with its code (see the module docstring)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
