"""Command-line front door: check, compile, run, sweep and map.

The digital host side of the hybrid pairing: it compiles programs,
parametrizes the simulated analog machine through digital-pot updates,
runs it, and reads traces back out.

Exit codes are stable: 0 ok, 1 usage, 2 parse error, 3 resolve/compile
error, 4 scaling or resource error, 5 strict-overload abort.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import compiler, dsl, fabric, scaling, simulator
from .machine import load_netlist

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
    try:
        program, diags = dsl.load_program(path)
    except OSError as exc:
        print(f"apc: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
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


def _mapping_path(netlist_path: str) -> Path:
    p = Path(netlist_path)
    return p.with_suffix(".map.json") if p.suffix == ".json" else Path(str(p) + ".map.json")


def cmd_compile(args) -> int:
    system = _load_system(args.source)
    try:
        if args.scale == "auto":
            scale = scaling.autoscale(system, k0=args.k0)
        else:
            scale = scaling.ScaleMap.identity(args.k0)
    except scaling.ScalingError as exc:
        print(f"apc: scaling: {exc}", file=sys.stderr)
        return EXIT_SCALE
    options = compiler.CompileOptions(k0=args.k0, scale=scale,
                                      optimize_inverters=not args.no_optimize)
    try:
        result = compiler.compile_system(system, options)
    except (compiler.UnscaledCoefficientError, compiler.ScalingViolationError) as exc:
        print(f"apc: scaling: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except compiler.CompileError as exc:
        print(f"apc: compile: {exc}", file=sys.stderr)
        return EXIT_COMPILE

    out = Path(args.output) if args.output else Path(args.source).with_suffix(".json")
    from .machine import save_netlist

    save_netlist(result.netlist, out)
    result.mapping.save(_mapping_path(out))
    for kind, n in result.report.items():
        print(f"{kind}s: {n}")
    print(f"netlist: {out}")
    return EXIT_OK


def _apply_sets(instance, mapping, sets) -> None:
    for spec in sets:
        if "=" not in spec:
            raise _UsageError(f"--set needs NAME=VALUE, got {spec!r}")
        name, _, text = spec.partition("=")
        try:
            value = float(text)
        except ValueError:
            raise _UsageError(f"--set {name}: {text!r} is not a number") from None
        try:
            if mapping and name in mapping.params:
                b = mapping.params[name]
                if b.value != 0 and (value > 0) != (b.value > 0):
                    raise _UsageError(f"--set {name}: sign change from {b.value} would flip "
                                      "a baked-in parity; recompile instead")
                instance.set_coefficient(b.element, abs(b.scale * value))
            else:
                instance.set_coefficient(name, value)
        except (KeyError, ValueError) as exc:
            raise _UsageError(f"--set {name}: {exc}") from None


def _load_file(load, path):
    """Run a JSON loader; a malformed or unreadable file exits 1 naming it."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"apc: {path}: {detail}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _load_netlist_and_mapping(args):
    netlist = _load_file(load_netlist, args.netlist)
    mpath = _mapping_path(args.netlist)
    mapping = _load_file(scaling.Mapping.load, mpath) if mpath.exists() else None
    return netlist, mapping


def _resolve_tend(args, mapping) -> float:
    if args.tend is not None:
        return args.tend
    if mapping and mapping.horizon_machine:
        return mapping.horizon_machine
    raise _UsageError("--tend is required (no sidecar mapping with a horizon found)")


def _make_config(args, netlist, tau_end) -> simulator.SimConfig:
    if not math.isfinite(tau_end):
        raise _UsageError(f"--tend must be finite, got {tau_end}")
    if args.dt is not None and not args.dt > 0:
        raise _UsageError(f"--dt must be positive, got {args.dt}")
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    dt = args.dt if args.dt is not None else simulator.default_dt(netlist)
    nsteps = max(1, round(tau_end / dt))
    try:
        return simulator.SimConfig(
            dt=dt,
            resolution=args.resolution,
            adc_bits=args.adc_bits,
            strict_overload=getattr(args, "strict_overload", False),
            sample_every=max(1, nsteps // args.samples),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_run(args) -> int:
    netlist, mapping = _load_netlist_and_mapping(args)
    if args.problem_units and mapping is None:
        raise _UsageError("--problem-units needs the compiler's sidecar mapping file")
    tau_end = _resolve_tend(args, mapping)
    config = _make_config(args, netlist, tau_end)
    instance = simulator.new_instance(netlist, config)
    _apply_sets(instance, mapping, args.set or [])
    try:
        trace = instance.run(tau_end)
    except simulator.OverloadError as exc:
        print(f"apc: overload: {exc}", file=sys.stderr)
        return EXIT_OVERLOAD
    if args.problem_units:
        trace = scaling.descale_trace(trace, mapping)
    if args.trace:
        trace.save(args.trace, _overload_path(args.trace))
    for name in netlist.outputs:
        print(f"{name} = {instance.read_adc(name)!r}")
    print(f"overloads: {len(trace.overloads)}")
    return EXIT_OK


def _overload_path(trace_path: str) -> Path:
    p = Path(trace_path)
    return p.with_suffix(".overloads.csv") if p.suffix == ".csv" else Path(str(p) + ".overloads.csv")


def _sweep_values(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise _UsageError("range must be start:stop:step")
        a, b, s = (float(x) for x in parts)
        if s <= 0 or b < a:
            raise _UsageError("empty sweep range")
        n = int((b - a) / s + 1e-9) + 1
        return [a + i * s for i in range(n)]
    values = [float(x) for x in spec.split(",") if x.strip()]
    if not values:
        raise _UsageError("empty sweep value list")
    return values


def cmd_sweep(args) -> int:
    netlist, mapping = _load_netlist_and_mapping(args)
    name, _, spec = args.param.partition("=")
    if not spec:
        raise _UsageError("--param needs NAME=start:stop:step or NAME=v1,v2,...")
    values = _sweep_values(spec)

    binding = mapping.params.get(name) if mapping else None
    if binding is None and not any(
        e.id == name and e.kind.value == "coefficient" for e in netlist.elements.values()
    ):
        raise _UsageError(f"parameter {name!r} does not map to a coefficient")
    alphas = []
    for v in values:
        alpha = abs(binding.scale * v) if binding else v
        if binding and binding.value != 0 and (v > 0) != (binding.value > 0):
            raise _UsageError(f"sweep value {v} flips the sign of {name!r}; recompile instead")
        if not (0.0 <= alpha <= 1.0):
            print(f"apc: scaling: sweep value {v} needs alpha {alpha:.6g} outside [0, 1]",
                  file=sys.stderr)
            return EXIT_SCALE
        alphas.append(alpha)
    element = binding.element if binding else name

    tau_end = _resolve_tend(args, mapping)
    config = _make_config(args, netlist, tau_end)

    def one(alpha: float):
        instance = simulator.new_instance(netlist, config)
        instance.set_coefficient(element, alpha)
        return instance.run(tau_end)

    workers = int(os.environ.get("APC_WORKERS", args.workers))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            traces = list(pool.map(one, alphas))
    except simulator.OverloadError as exc:
        print(f"apc: overload: {exc}", file=sys.stderr)
        return EXIT_OVERLOAD

    import csv

    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value"] + list(netlist.outputs) + ["overloads"])
        for i, (v, trace) in enumerate(zip(values, traces)):
            trace.save(out_dir / f"run_{i:03d}.csv")
            finals = trace.final()
            writer.writerow([repr(v)] + [repr(finals[n]) for n in netlist.outputs]
                            + [len(trace.overloads)])
    print(f"sweep: {len(values)} runs -> {out_dir}")
    return EXIT_OK


def cmd_map(args) -> int:
    netlist, _ = _load_netlist_and_mapping(args)
    try:
        spec = fabric.load_machine_spec(args.machine)
    except (OSError, ValueError, KeyError) as exc:
        print(f"apc: machine spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        assignment = fabric.map_netlist(netlist, spec)
    except fabric.ResourceError as exc:
        print(f"apc: resources: {exc}", file=sys.stderr)
        for kind, n in exc.deficits.items():
            print(f"  missing {kind}: {n}", file=sys.stderr)
        return EXIT_SCALE
    except ValueError as exc:  # the netlist does not validate
        print(f"apc: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    p.add_argument("--no-optimize", action="store_true",
                   help="keep redundant inverter pairs")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    def add_run_flags(p):
        p.add_argument("netlist")
        p.add_argument("--tend", type=float, default=None, help="machine-time end")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--resolution", type=float, default=0.0)
        p.add_argument("--adc-bits", type=int, default=12)
        p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("run", help="simulate a netlist IC -> OP -> HALT")
    add_run_flags(p)
    p.add_argument("--trace", help="trace CSV output path")
    p.add_argument("--problem-units", action="store_true")
    p.add_argument("--strict-overload", action="store_true")
    p.add_argument("--set", action="append", metavar="NAME=V",
                   help="digital-pot update before OP")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run once per parameter value")
    add_run_flags(p)
    p.add_argument("--param", required=True, metavar="NAME=a:b:s")
    p.add_argument("--out", required=True, help="directory for traces and summary.csv")
    p.add_argument("--workers", type=int, default=4)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("map", help="place a netlist onto a machine inventory")
    p.add_argument("netlist")
    p.add_argument("--machine", default="that", help="'that' or a spec JSON file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_map)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"apc: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except simulator.ConstructionError as exc:
        print(f"apc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
