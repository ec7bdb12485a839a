"""Checks on the files apc writes, as plain functions over parsed data.

Each ``*_error`` function returns the measured deviation; the caller
fails the operation when it exceeds ``TOLERANCE``. Each ``*_problem``
function returns a reason string, or ``""`` when the output is right.
"""

from __future__ import annotations

import csv
import hashlib
import math

#: Acceptance criterion 5: |descaled - reference| <= 1e-3 * peak |reference|.
TOLERANCE = 1e-3

#: Digital potentiometers set coefficients on a 16-bit wiper grid.
POT_STEPS = 65535


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_trace(path) -> tuple[list[float], dict[str, list[float]]]:
    """A trace CSV as (time axis, {signal: values}); the first column is time."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = [[float(row[i]) for row in body] for i in range(len(header))]
    return columns[0], dict(zip(header[1:], columns[1:]))


def descale(tau, series, mapping: dict):
    """Machine-unit samples to problem units with a sidecar mapping document."""
    lam = mapping["lambda"]
    out = {}
    for name, values in series.items():
        b = mapping["signals"][name]
        factor = b["parity"] * b["amplitude_scale"]
        out[name] = [factor * v for v in values]
    return [lam * x for x in tau], out


def relative_error(values, reference) -> float:
    """Largest |value - reference| over the peak |reference|."""
    if len(values) != len(reference):
        return math.inf
    peak = max((abs(r) for r in reference), default=0.0)
    worst = max((abs(v - r) for v, r in zip(values, reference)), default=0.0)
    if not math.isfinite(worst):
        return math.inf
    return worst / peak if peak > 0 else worst


def oracle_error(series: dict, reference: dict) -> float:
    """Largest relative error over every signal of ``reference``."""
    if set(series) != set(reference):
        return math.inf
    return max((relative_error(series[n], reference[n]) for n in reference), default=0.0)


def pot_value(value: float, scale: float) -> float:
    """The parameter value a sweep realizes after the pot's 16-bit rounding."""
    alpha = abs(scale * value)
    return (round(alpha * POT_STEPS) / POT_STEPS) / abs(scale)


def vco_reference(tau, k: float, y0: float = 0.5) -> list[float]:
    """y'' = -k y, y(0) = y0, y'(0) = 0, solved in closed form."""
    w = math.sqrt(k)
    return [y0 * math.cos(w * t) for t in tau]


def exit_problem(code: int, expected: int, stderr: str = "") -> str:
    if code == expected:
        return ""
    last = stderr.strip().splitlines()[-1:] or [""]
    return f"exit {code}, expected {expected} {last[0]}".rstrip()


def patch_problem(text: str, netlist: dict) -> str:
    """A patch list must connect every element input and set every pot."""
    lines = text.splitlines()
    connects = sum(line.startswith("connect ") for line in lines)
    sets = sum(line.startswith("set ") for line in lines)
    want_connects = sum(len(e["inputs"]) for e in netlist["elements"])
    want_sets = sum(e["kind"] == "coefficient" for e in netlist["elements"])
    if (connects, sets) != (want_connects, want_sets):
        return (f"patch list has {connects} connects and {sets} settings, "
                f"netlist needs {want_connects} and {want_sets}")
    return ""


def read_overloads(path) -> list[tuple[float, str, float]]:
    """An overloads CSV as (time, element, magnitude) records."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [(float(t), e, float(m)) for t, e, m in list(csv.reader(fh))[1:]]


def overload_problem(records, reported: int) -> str:
    """The overload log holds exactly the events the run reported, each beyond 1."""
    if len(records) != reported:
        return f"overloads CSV has {len(records)} rows, run reported {reported}"
    for record in records:
        if not record[2] > 1.0:
            return f"overload record {record} is not beyond the machine interval"
    return ""
