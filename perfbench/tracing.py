"""Spans around apc's public functions, recorded from outside the package.

``install(recorder)`` replaces each function listed in ``SPANS`` with a
wrapper in every ``apc`` module that holds a reference to it, so a call
is recorded however its caller looked the function up (for example
``apc.simulator.evaluation_order`` as well as
``apc.machine.evaluation_order``). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time


def _path_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p))


def _run_pre(args, kwargs):
    return args[0].tau


def _run_post(args, kwargs, result, tau0):
    inst = args[0]
    steps = round((inst.tau - tau0) / inst.config.dt)
    return {"steps": steps, "element_steps": steps * len(inst.netlist.elements),
            "overloads": len(inst.overloads)}


def _save_post(args, kwargs, result, _):
    overload_path = args[2] if len(args) > 2 else kwargs.get("overload_path")
    return {"bytes": _path_bytes(args[1], overload_path)}


#: span name -> (module, attribute path, pre hook, post hook). A pre hook
#: sees the call's arguments before it runs; a post hook returns counts.
SPANS = {
    "dsl.parse": ("apc.dsl", "parse", None,
                  lambda a, k, r, s: {"lines": len((a[0] if a else k["text"]).splitlines())}),
    "dsl.resolve": ("apc.dsl", "resolve", None, None),
    "scaling.estimate_bounds": ("apc.scaling", "estimate_bounds", None,
                                lambda a, k, r, s: {"oracle_signals": sum(
                                    m == "oracle" for m in r.method.values())}),
    "scaling.reference_solution": ("apc.scaling", "reference_solution", None, None),
    "scaling.amplitude_scale": ("apc.scaling", "amplitude_scale", None, None),
    "scaling.time_scale": ("apc.scaling", "time_scale", None, None),
    "scaling.descale_trace": ("apc.scaling", "descale_trace", None, None),
    "compiler.compile_system": ("apc.compiler", "compile_system", None,
                                lambda a, k, r, s: {"elements": len(r.netlist.elements),
                                                    "inverters": r.report.get("inverter", 0)}),
    "machine.validate": ("apc.machine", "validate", None, None),
    "machine.evaluation_order": ("apc.machine", "evaluation_order", None, None),
    "machine.save_netlist": ("apc.machine", "save_netlist", None,
                             lambda a, k, r, s: {"bytes": _path_bytes(a[1])}),
    "machine.load_netlist": ("apc.machine", "load_netlist", None, None),
    "simulator.new_instance": ("apc.simulator", "new_instance", None, None),
    "simulator.run": ("apc.simulator", "MachineInstance.run", _run_pre, _run_post),
    "simulator.trace_save": ("apc.simulator", "Trace.save", None, _save_post),
    "fabric.map_netlist": ("apc.fabric", "map_netlist", None, None),
    "fabric.patch_instructions": ("apc.fabric", "patch_instructions", None,
                                  lambda a, k, r, s: {"patches": len(a[0].patches)
                                                      + len(a[0].settings)}),
    "cli.sweep": ("apc.cli", "cmd_sweep", None, None),
}


class Recorder:
    """In-memory span store. ``op`` tags every span with the current operation."""

    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, pre=None, post=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Calls on a worker thread (the sweep's pool) hang under the
            # span that the main thread had open when they started.
            outer = stack or self._main_stack
            record = {"id": next(self._ids), "name": name, "op": self.op,
                      "parent": outer[-1]["id"] if outer else None, "counts": {}}
            state = pre(args, kwargs) if pre else None
            stack.append(record)
            result, done = None, False
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
                if post and done:
                    record["counts"] = post(args, kwargs, result, state)
                self.spans.append(record)

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder):
    """Wrap every function in ``SPANS``; returns a function that undoes it."""
    owners = {module: importlib.import_module(module) for module, *_ in SPANS.values()}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "apc" or name.startswith("apc."))]
    undo = []
    for name, (module, attr, pre, post) in SPANS.items():
        owner = owners[module]
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[fn_name]
            setattr(cls, fn_name, recorder.span(name, orig, pre, post))
            undo.append((cls, fn_name, orig))
            continue
        orig = getattr(owner, fn_name)
        wrapped = recorder.span(name, orig, pre, post)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))

    def uninstall():
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)

    return uninstall


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    lo, hi = span["start"], span["end"]
    covered, cursor = 0.0, lo
    for s, e in sorted((max(c["start"], lo), min(c["end"], hi)) for c in children):
        if e <= cursor:
            continue
        covered += e - max(s, cursor)
        cursor = e
    return (hi - lo) - covered
