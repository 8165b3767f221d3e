"""Checks on ptbound's command output, written from outside the program.

Nothing here imports ptbound: the published tables, the series closed forms
and the phase rule are restated from the paper, so a change to the program
cannot also change what its output is checked against. Every check raises
CheckError with a reason, or returns None.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


# Published spectra of the shipped parameter sets (atomic units), one column
# per solver, with the tolerances the paper states for them.
HYPERBOLIC_SETS = {
    "S1": {"V0": 10.0, "A": -20.0, "B": -30.0, "kappa": 1.0},
    "S2": {"V0": 5.0, "A": 2.0, "B": -60.0, "kappa": 1.0},
}
TRIG_SETS = {
    "S3": {"V0": 5.0, "C": -10.0, "D": 2.0, "a": 1.0},
    "S4": {"V0": 5.0, "C": -2.0, "D": 2.0, "a": 1.0},
}
PUBLISHED = {
    "S1": {"dvr": (-17.292792568552, -6.137201742096, -0.888027613576),
           "hofd": (-17.292792568575, -6.137201742113, -0.888027616853)},
    "S2": {"dvr": (-15.992869980420, -6.101528843700, -1.000393053814),
           "hofd": (-15.992869980437, -6.101528843717, -1.000393054957)},
    "S3": {"dvr": (16.797026, 53.186883, 103.396936, 166.730521, 242.759201,
                   331.187625, 431.796715, 544.415737, 668.906827, 805.155660),
           "hofd": (16.797032, 53.186917, 103.397040, 166.730761, 242.759670,
                    331.188444, 431.798037, 544.417750, 668.909756, 805.159769)},
    "S4": {"dvr": (29.961374, 68.685118, 120.819954, 185.823763, 263.346993,
                   353.139727, 455.011712, 568.811809, 694.416181, 831.720941),
           "hofd": (29.961382, 68.685159, 120.820074, 185.824031, 263.347504,
                    353.140605, 455.013113, 568.813926, 694.419241, 831.725211)},
}


def published_tolerance(name: str, method: str, n: int) -> float:
    """Absolute tolerance of level n of a published table."""
    if name in HYPERBOLIC_SETS:
        if method == "hofd":
            return 1e-7
        return 1e-6 if n == 2 else 1e-8
    return 1e-4 if n <= 4 else 1e-3


# Significant digits the CLI prints per family; a printed value can be off
# by half a unit of its last digit.
DIGITS = {"hyperbolic": 12, "trig": 6}


def print_resolution(x: float, digits: int) -> float:
    """One unit of the last printed digit of x."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - digits + 1)


# Two solvers agree on a level when they differ by less than this. Hyperbolic:
# the published DVR tolerance of the shallowest shipped level. Trigonometric:
# ten times the largest relative DVR/HOFD gap of the published tables (5.1e-6
# at S3 n=9), plus the print rounding of both values.
CROSS_ABS_HYPERBOLIC = 1e-6
CROSS_REL_TRIG = 5e-5


def cross_tolerance(family: str, e: float) -> float:
    if family == "hyperbolic":
        return CROSS_ABS_HYPERBOLIC
    return CROSS_REL_TRIG * abs(e) + print_resolution(e, DIGITS[family])


# ---------------------------------------------------------------- parsing

def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """(manifest, columns, rows) of a CLI CSV artifact."""
    manifest: dict = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        manifest[key] = value
        i += 1
    if i >= len(lines):
        raise CheckError("artifact has no header row")
    columns = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:]]
    for row in rows:
        if len(row) != len(columns):
            raise CheckError(f"row {row!r} does not match columns {columns}")
    return manifest, columns, rows


def spectrum_columns(text: str) -> dict[str, list[float]]:
    """Energy columns of a `spectrum` artifact, keyed by method ('dvr', 'hofd')."""
    _, columns, rows = parse_csv(text)
    if columns[0] != "n" or not all(c.startswith("E_") for c in columns[1:]):
        raise CheckError(f"unexpected spectrum columns {columns}")
    for k, row in enumerate(rows):
        if int(row[0]) != k:
            raise CheckError(f"row {k} is labelled n={row[0]}")
    out = {}
    for j, col in enumerate(columns[1:], start=1):
        values = [float(row[j]) for row in rows]
        if not all(math.isfinite(v) for v in values):
            raise CheckError(f"non-finite energy in column {col}")
        out[col[2:]] = values
    return out


# ---------------------------------------------------------------- spectra

def check_published(name: str, columns: dict[str, list[float]]) -> None:
    """Both solvers reproduce the published table of a shipped set."""
    family = "hyperbolic" if name in HYPERBOLIC_SETS else "trig"
    for method, expected in PUBLISHED[name].items():
        got = columns.get(method)
        if got is None or len(got) != len(expected):
            raise CheckError(f"{name} {method}: expected {len(expected)} levels, "
                             f"got {None if got is None else len(got)}")
        for n, (g, e) in enumerate(zip(got, expected)):
            tol = (published_tolerance(name, method, n)
                   + 0.5 * print_resolution(e, DIGITS[family]))
            if not abs(g - e) <= tol:
                raise CheckError(f"{name} {method} n={n}: {g!r} vs published "
                                 f"{e!r} (|diff| {abs(g - e):.3e} > {tol:.3e})")


def check_cross_solver(family: str, columns: dict[str, list[float]]) -> None:
    """DVR and HOFD agree level by level, and find at least one level."""
    dvr, hofd = columns.get("dvr"), columns.get("hofd")
    if not dvr or not hofd:
        raise CheckError("both solver columns must hold at least one level")
    for n, (a, b) in enumerate(zip(dvr, hofd)):
        tol = cross_tolerance(family, b)
        if not abs(a - b) <= tol:
            raise CheckError(f"n={n}: DVR {a!r} vs HOFD {b!r} "
                             f"(|diff| {abs(a - b):.3e} > {tol:.3e})")


def check_verify(rc: int, text: str) -> None:
    """`verify all` passes every line and exits 0."""
    lines = text.splitlines()
    if rc != 0 or not lines or lines[-1] != "verify: ALL PASS":
        raise CheckError(f"verify exited {rc} with last line "
                         f"{lines[-1] if lines else ''!r}")
    failed = [line for line in lines if line.startswith("[FAIL]")]
    if failed:
        raise CheckError(f"verify reports {failed[0]}")
    if sum(line.startswith("[PASS]") for line in lines) < 2 * (6 + 20) + 1:
        raise CheckError("verify printed fewer PASS lines than tables 1 and 2 hold")


# ------------------------------------------------------- series closed forms

def strict_floor(x: float) -> int:
    """Largest integer strictly below x."""
    return math.ceil(x) - 1


def series_closed_form(family: str, params: dict, energy: float) -> dict:
    """mu, nu and the truncation index N of the paper's series at energy E."""
    if family == "hyperbolic":
        k2 = params["kappa"] ** 2
        mu = math.sqrt(-2.0 * energy / k2)
        nu = -math.sqrt(0.25 - 2.0 * params["B"] / k2)
    else:
        rho2 = (math.pi / (2.0 * params["a"])) ** 2
        mu = math.sqrt(0.25 + 2.0 * params["D"] / rho2)
        nu = -math.sqrt(2.0 * energy / rho2)
    return {"mu": mu, "nu": nu, "N": strict_floor(0.5 * (-mu - nu - 1.0))}


def series_admits(family: str, params: dict, energy: float) -> bool:
    """Whether the finite series exists for the bound state at `energy`."""
    if family == "hyperbolic":
        a, v0 = params["A"], params["V0"]
        window = a < 0.0 or 0.0 < a < v0
        if not (window and energy < 0.0 and params["B"] <= params["kappa"] ** 2 / 8):
            return False
    else:
        c, v0 = params["C"], params["V0"]
        if not (c < 0.0 and c != -v0 and energy > 0.0):
            return False
    return series_closed_form(family, params, energy)["N"] >= 0


def check_wavefunction(family: str, params: dict, states: list[int],
                       energies: list[float], text: str, samples: int) -> None:
    """Manifest mu, nu, N match the closed forms; every psi sample is finite.

    `energies` are the levels `spectrum` printed for the same parameters; the
    manifest's full-precision E must round to them.
    """
    manifest, columns, rows = parse_csv(text)
    if columns[1:] != [f"psi_{m}" for m in states]:
        raise CheckError(f"columns {columns} do not match states {states}")
    if len(rows) != samples:
        raise CheckError(f"{len(rows)} samples, expected {samples}")
    for m in states:
        record = json.loads(manifest.get(f"state_{m}", "null") or "null")
        if record is None:
            raise CheckError(f"manifest lacks state_{m}")
        e = record["E"]
        if not abs(e - energies[m]) <= print_resolution(e, DIGITS[family]):
            raise CheckError(f"state {m}: E={e!r}, spectrum printed {energies[m]!r}")
        want = series_closed_form(family, params, e)
        for key in ("mu", "nu"):
            if not math.isclose(record[key], want[key], rel_tol=1e-10, abs_tol=1e-12):
                raise CheckError(f"state {m}: {key}={record[key]!r}, closed form "
                                 f"gives {want[key]!r}")
        if record["N"] != want["N"]:
            raise CheckError(f"state {m}: N={record['N']}, closed form gives {want['N']}")
        if len(record["coeffs"]) != want["N"] + 1:
            raise CheckError(f"state {m}: {len(record['coeffs'])} coefficients "
                             f"for N={want['N']}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row):
            raise CheckError(f"non-finite sample in row {row}")


# ------------------------------------------------------------ convergence

def check_ladder(levels_by_rung: list[list[float]], floor) -> None:
    """Successive rung differences shrink until they reach round-off.

    levels_by_rung[r][n] is level n on rung r (coarse to fine); floor(E) is
    the round-off level of a value E. Every rung must find the same levels.
    """
    counts = {len(levels) for levels in levels_by_rung}
    if len(counts) != 1 or 0 in counts:
        raise CheckError(f"level counts differ between rungs: "
                         f"{[len(levels) for levels in levels_by_rung]}")
    for n in range(counts.pop()):
        values = [levels[n] for levels in levels_by_rung]
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        for r in range(1, len(diffs)):
            if diffs[r] > floor(values[r + 1]) and not diffs[r] < diffs[r - 1]:
                raise CheckError(f"level {n} does not converge: rung differences "
                                 f"{['%.3e' % d for d in diffs]} of {values}")


def roundoff(family: str, e: float) -> float:
    """Round-off level of a printed energy: solver noise or print rounding."""
    return max(1e-10 * max(1.0, abs(e)), 2.0 * print_resolution(e, DIGITS[family]))


# The finest DVR and HOFD rungs agree to this (absolute for the hyperbolic
# family, relative plus print rounding for the finite well).
FINEST_ABS_HYPERBOLIC = 1e-9
FINEST_REL_TRIG = 2e-6


def check_finest_agree(family: str, dvr: list[float], hofd: list[float]) -> None:
    if len(dvr) != len(hofd):
        raise CheckError(f"finest rungs find {len(dvr)} DVR and {len(hofd)} HOFD levels")
    for n, (a, b) in enumerate(zip(dvr, hofd)):
        if family == "hyperbolic":
            tol = FINEST_ABS_HYPERBOLIC
        else:
            tol = FINEST_REL_TRIG * abs(b) + 2.0 * print_resolution(b, DIGITS[family])
        if not abs(a - b) <= tol:
            raise CheckError(f"finest rungs disagree at n={n}: DVR {a!r} vs HOFD "
                             f"{b!r} (|diff| {abs(a - b):.3e} > {tol:.3e})")


# ---------------------------------------------------------- phase diagram

ROOT_IMAG_RTOL = 1e-9
ROOT_MERGE_RTOL = 1e-9


def reclassify(V0: float, A: float, B: float) -> str:
    """Phase label from the critical cubic solved with numpy.roots.

    With s = sinh^2(kappa x), V(s) = V0/s^2 + A/s + B/(1+s) and dV/ds = 0 is
    (A+B) s^3 + 2(V0+A) s^2 + (4 V0 + A) s + 2 V0 = 0; kappa only rescales x.
    A minimum below the asymptote 0 admits bound states, a maximum above it
    resonances: B (bound only), B&R (both), R (a barrier over a non-negative
    minimum), S (otherwise).
    """
    roots = np.roots([A + B, 2.0 * (V0 + A), 4.0 * V0 + A, 2.0 * V0])
    real = sorted(r.real for r in roots
                  if abs(r.imag) <= ROOT_IMAG_RTOL * max(1.0, abs(r)) and r.real > 0.0)
    crit: list[float] = []
    for s in real:
        if crit and abs(s - crit[-1]) <= ROOT_MERGE_RTOL * s:
            continue
        crit.append(s)
    minima, maxima = [], []
    for s in crit:
        v = V0 / s**2 + A / s + B / (1.0 + s)
        v2 = 6.0 * V0 / s**4 + 2.0 * A / s**3 + 2.0 * B / (1.0 + s) ** 3
        if v2 > 0.0:
            minima.append(v)
        elif v2 < 0.0:
            maxima.append(v)
    lowest = min(minima, default=None)
    well = lowest is not None and lowest < 0.0
    barrier = any(v > 0.0 for v in maxima)
    if well:
        return "B&R" if barrier and len(crit) > 1 else "B"
    if barrier and lowest is not None:
        return "R"
    return "S"


def check_phase_grid(V0: float, a_range: tuple[float, float],
                     b_range: tuple[float, float], resolution: int,
                     text: str) -> None:
    """Every label matches the reclassification; the positive quadrant is S.

    Points are reclassified at the exact grid values the command was asked
    for (B outer, A inner), not at their 12-digit printed form.
    """
    lines = iter(text.splitlines())
    line = next(lines, "")
    while line.startswith("# "):
        line = next(lines, "")
    if line != "A,B,phase":
        raise CheckError(f"unexpected spd header {line!r}")
    a_grid = np.linspace(a_range[0], a_range[1], resolution).tolist()
    b_grid = np.linspace(b_range[0], b_range[1], resolution).tolist()
    points = resolution * resolution
    bad = []
    seen = 0
    for k, line in enumerate(lines):
        if k >= points:
            raise CheckError(f"more than the {points} grid points")
        seen = k + 1
        a_text, b_text, label = line.split(",")
        a, b = a_grid[k % resolution], b_grid[k // resolution]
        for exact, printed in ((a, a_text), (b, b_text)):
            if not abs(float(printed) - exact) <= print_resolution(exact, 12):
                raise CheckError(f"point {k} prints {printed}, grid value is {exact!r}")
        if a >= 0.0 and b >= 0.0 and label != "S":
            raise CheckError(f"(A, B) = ({a}, {b}) is labelled {label}, must be S")
        want = reclassify(V0, a, b)
        if label != want:
            bad.append((a, b, label, want))
    if seen != points:
        raise CheckError(f"{seen} points, expected {points}")
    if bad:
        raise CheckError(f"{len(bad)} of {points} labels disagree with the "
                         f"numpy.roots reclassification, first {bad[0]}")
