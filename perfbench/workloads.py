"""The benchmark's workloads: seeded inputs, the CLI commands of one round,
and the check each command's output must pass.

A round is a fixed list of operations; an operation is one
`ptbound.cli.main(argv)` call. Every round of a run repeats the same argv
lists, so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import checks

# The shallow-level set: DVR's default box b = 10 cuts its only level
# (-0.1071987 against -0.1074088 from HOFD and from DVR at b = 40), and the
# CLI exits 0. Its `spectrum --method both` is the one operation expected to
# fail; it does not depend on the seed.
SHALLOW = {"V0": 11.2128, "A": 2.41442, "B": -12.5675, "kappa": 1.01828}

# Seeded sets are the shipped sets with every parameter scaled by an
# independent uniform factor: 1 +- 2% (V0, A, B) and 1 +- 1% (kappa) for the
# hyperbolic family, 1 +- 5% for the finite well. Over the whole box every
# hyperbolic set keeps three levels, its top level stays below -0.58, and
# DVR at b = 10 stays within 5e-8 of b = 40, so no draw reaches the
# shallow-level fault and each round costs about the same on every seed.
HYPERBOLIC_JITTER = {"V0": 0.02, "A": 0.02, "B": 0.02, "kappa": 0.01}
TRIG_JITTER = {"V0": 0.05, "C": 0.05, "D": 0.05, "a": 0.05}

# spd over this rectangle; V0 and kappa are drawn per grid.
SPD_A = (-60.0, 40.0)
SPD_B = (-60.0, 40.0)
SPD_RESOLUTION = 200
SPD_GRIDS = 2
SPD_V0 = (5.0, 15.0)
SPD_KAPPA = (0.5, 1.5)

WAVEFUNCTION_SAMPLES = 500

# Convergence ladders: DVR refines the spacing and widens the box together;
# HOFD doubles its grid.
DVR_LADDER_HYPERBOLIC = [(100, 10.0), (200, 15.0), (400, 25.0), (800, 40.0)]
DVR_LADDER_TRIG = [100, 200, 400, 800]
HOFD_LADDER = [250, 500, 1000]


@dataclass
class Op:
    """One CLI call. `argv` may be a function of earlier results of the round;
    it is resolved once, in the first round, and then reused. `check` gets
    (rc, stdout, results so far) and raises checks.CheckError."""

    name: str
    argv: list[str] | Callable[[dict], list[str]]
    check: Callable[[int, str, dict], None]
    known_fault: bool = False


def family_of(params: dict) -> str:
    return "hyperbolic" if "A" in params else "trig"


def family_flags(params: dict) -> list[str]:
    argv = ["--family", family_of(params)]
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    return argv


def jitter(rng: random.Random, base: dict, spread: dict) -> dict:
    return {k: v * rng.uniform(1.0 - spread[k], 1.0 + spread[k])
            for k, v in base.items()}


def _ok_rc(rc: int, what: str) -> None:
    if rc != 0:
        raise checks.CheckError(f"{what} exited {rc}")


# ------------------------------------------------------------------ spectra

def _spectrum_op(name: str, params: dict, published: bool,
                 known_fault: bool = False) -> Op:
    family = family_of(params)

    def check(rc, out, results):
        _ok_rc(rc, "spectrum")
        columns = checks.spectrum_columns(out)
        results[f"levels:{name}"] = columns["dvr"]
        if published:
            checks.check_published(name, columns)
        checks.check_cross_solver(family, columns)

    return Op(f"spectrum {name}", ["spectrum", *family_flags(params),
                                   "--method", "both"], check, known_fault)


def _wavefunction_op(name: str, params: dict) -> Op:
    family = family_of(params)

    def admitted(results):
        levels = results[f"levels:{name}"]
        return [m for m, e in enumerate(levels)
                if checks.series_admits(family, params, e)]

    def argv(results):
        states = admitted(results)
        if not states:
            raise checks.CheckError(f"{name}: the series admits no bound state")
        return ["wavefunction", *family_flags(params),
                "--states", *map(str, states)]

    def check(rc, out, results):
        _ok_rc(rc, "wavefunction")
        checks.check_wavefunction(family, params, admitted(results),
                                  results[f"levels:{name}"], out,
                                  WAVEFUNCTION_SAMPLES)

    return Op(f"wavefunction {name}", argv, check)


def spectra(seed: int) -> list[Op]:
    """`verify all`; `spectrum --method both` on S1-S4, four seeded sets and
    the shallow-level set; `wavefunction` for every state the series admits."""
    rng = random.Random(seed)
    sets = {**checks.HYPERBOLIC_SETS, **checks.TRIG_SETS}
    drawn = {}
    for base in ("S1", "S2"):
        drawn[f"G{base}"] = jitter(rng, sets[base], HYPERBOLIC_JITTER)
    for base in ("S3", "S4"):
        drawn[f"G{base}"] = jitter(rng, sets[base], TRIG_JITTER)

    ops = [Op("verify all", ["verify", "all"],
              lambda rc, out, results: checks.check_verify(rc, out))]
    ops += [_spectrum_op(name, p, published=True) for name, p in sets.items()]
    ops += [_spectrum_op(name, p, published=False) for name, p in drawn.items()]
    ops.append(_spectrum_op("shallow", SHALLOW, published=False, known_fault=True))
    everything = {**sets, **drawn, "shallow": SHALLOW}
    ops += [_wavefunction_op(name, p) for name, p in everything.items()]
    return ops


# -------------------------------------------------------------- convergence

def _ladder_ops(name: str, params: dict) -> list[Op]:
    family = family_of(params)
    flags = family_flags(params)
    if family == "hyperbolic":
        dvr_rungs = [["--grid-M", str(m), "--box-b", repr(b)]
                     for m, b in DVR_LADDER_HYPERBOLIC]
    else:
        dvr_rungs = [["--grid-M", str(m)] for m in DVR_LADDER_TRIG]
    hofd_rungs = [["--grid-M", str(m)] for m in HOFD_LADDER]
    ops = []
    for method, rungs in (("dvr", dvr_rungs), ("hofd", hofd_rungs)):
        for r, extra in enumerate(rungs):
            key = f"{name}:{method}:{r}"
            last = r == len(rungs) - 1

            def check(rc, out, results, key=key, method=method, last=last,
                      n_rungs=len(rungs)):
                _ok_rc(rc, "spectrum")
                results[key] = checks.spectrum_columns(out)[method]
                if last:
                    ladder = [results[f"{name}:{method}:{i}"] for i in range(n_rungs)]
                    checks.check_ladder(ladder, lambda e: checks.roundoff(family, e))
                if last and method == "hofd":
                    checks.check_finest_agree(
                        family, results[f"{name}:dvr:{len(dvr_rungs) - 1}"],
                        results[key])

            ops.append(Op(f"{method} {name} {' '.join(extra)}",
                          ["spectrum", *flags, "--method", method, *extra], check))
    return ops


def convergence(seed: int) -> list[Op]:
    """DVR (M, b) and HOFD M ladders on S1, S2, a seeded finite-well set and
    the shallow-level set."""
    rng = random.Random(seed)
    sets = {**checks.HYPERBOLIC_SETS,
            "GS3": jitter(rng, checks.TRIG_SETS["S3"], TRIG_JITTER),
            "shallow": SHALLOW}
    return [op for name, p in sets.items() for op in _ladder_ops(name, p)]


# ------------------------------------------------------------ phase diagram

def phase_diagram(seed: int) -> list[Op]:
    """`spd --resolution 200` on seeded (V0, kappa)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(SPD_GRIDS):
        v0 = rng.uniform(*SPD_V0)
        kappa = rng.uniform(*SPD_KAPPA)

        def check(rc, out, results, v0=v0):
            _ok_rc(rc, "spd")
            checks.check_phase_grid(v0, SPD_A, SPD_B, SPD_RESOLUTION, out)

        argv = ["spd", "--V0", repr(v0), "--kappa", repr(kappa),
                "--A-min", repr(SPD_A[0]), "--A-max", repr(SPD_A[1]),
                "--B-min", repr(SPD_B[0]), "--B-max", repr(SPD_B[1]),
                "--resolution", str(SPD_RESOLUTION)]
        ops.append(Op(f"spd V0={v0:.4f} kappa={kappa:.4f}", argv, check))
    return ops


WORKLOADS = {"spectra": spectra, "convergence": convergence,
             "phase-diagram": phase_diagram}

# Small calls that touch every layer once, so lazy set-up (module imports
# inside numpy, first LAPACK calls) is done before timing.
WARM_UP = [
    ["spectrum", *family_flags(checks.HYPERBOLIC_SETS["S1"]), "--method", "both",
     "--grid-M", "60"],
    ["spectrum", *family_flags(checks.TRIG_SETS["S3"]), "--method", "both",
     "--grid-M", "60"],
    ["wavefunction", *family_flags(checks.HYPERBOLIC_SETS["S1"]), "--states", "2",
     "--samples", "20"],
    ["spd", "--V0", "10", "--A-min", "-60", "--A-max", "40", "--B-min", "-60",
     "--B-max", "40", "--resolution", "10"],
]


def warm_up(cli) -> None:
    for argv in WARM_UP:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up call {argv} exited {rc}")
