"""Command-line interface: spectrum / wavefunction / spd / verify.

Artifacts are CSV (manifest as leading `# key=value` lines, then a header
row) or a JSON mirror. Bodies are deterministic; the timestamp lives only
in the manifest, whose `units`/`generated` tail `_manifest` adds; `_cells`
formats the number cells of an axis or column in one pass. A command hands
`_emit` its body as blocks of CSV lines, which the CSV path writes as they
come and the JSON path splits back into cells. `spd` hands over one block
per grid row, so no table-sized list is built; it reads the row's runs of
equal labels off the grid's int8 phase codes and writes each run with one
join. A family's flags are the fields of its parameter class in
`FAMILIES`; the solvers check grid sizes and stencils (`spectrum` runs
HOFD's check before the DVR solve that counts its levels).
Exit codes: 0 success, 1 verification failure, 2 usage error (an output that
cannot be written, on stdout or --out, --help's included), 3 computation
failure.
The parser is built once per process, which only a caller that runs `main`
more than once in one process gains from (the tests, the benchmark); a shell
run builds it once either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import itertools
import json
import os
import re
import sys
from itertools import zip_longest

import numpy as np

from . import dvr, hofd, reference, tra
from .errors import PtboundError, SolverError
from .potentials import PHASES, HyperbolicParams, TrigParams, spd_grid

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3

FAMILIES = {"hyperbolic": HyperbolicParams, "trig": TrigParams}
# significant digits per family, matching the published precision
DIGITS = {"hyperbolic": 12, "trig": 6}


def _cells(values, digits: int) -> list[str]:
    """One %-format per value, over plain floats (nan prints as "nan")."""
    fmt = f"%.{digits - 1}e"
    return [fmt % x for x in np.asarray(values).tolist()]


def _manifest(**items) -> dict:
    """A command's manifest items, then the units and the time of the run."""
    return {**items, "units": "atomic (hbar = m = 1)",
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _block(*columns) -> str:
    """The CSV lines of a table given column by column, one block."""
    return "".join(",".join(row) + "\n" for row in zip(*columns))


def _emit(manifest: dict, columns: list[str], blocks, fmt: str,
          out_path: str | None) -> None:
    """Write the artifact. `blocks` yields strings of whole CSV lines, each
    ending in a newline. CSV writes each block as it comes; JSON splits the
    lines into cells (no cell holds a comma) and writes one payload."""
    if fmt == "json":
        rows = [line.split(",") for block in blocks for line in block.splitlines()]
        # grids repeat their axis texts, so parse each distinct cell once
        coerced = {v: _coerce(v) for v in set().union(*rows)}
        payload = {"manifest": manifest, "columns": columns,
                   "rows": [[coerced[v] for v in row] for row in rows]}
        pieces = [json.dumps(payload, indent=2) + "\n"]
    else:
        head = "".join(f"# {k}={v}\n" for k, v in manifest.items())
        pieces = itertools.chain([head + ",".join(columns) + "\n"], blocks)
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _coerce(v: str):
    try:
        return int(v)
    except ValueError:
        try:
            return float(v)
        except ValueError:
            return v


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--V0", type=float, required=True)
    p.add_argument("--A", type=float, help="hyperbolic family")
    p.add_argument("--B", type=float, help="hyperbolic family")
    p.add_argument("--kappa", type=float, default=1.0, help="hyperbolic family")
    p.add_argument("--C", type=float, help="trigonometric family")
    p.add_argument("--D", type=float, help="trigonometric family")
    p.add_argument("--a", type=float, help="trigonometric family")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", default="csv", choices=["csv", "json"])


def _params_from_args(args, parser):
    cls = FAMILIES[args.family]
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}
    missing = [n for n, v in values.items() if v is None]
    if missing:
        parser.error(f"{args.family} family requires --{' --'.join(missing)}")
    return cls(**values)


def _param_echo(p) -> str:
    return ";".join(f"{f.name}={getattr(p, f.name)}" for f in dataclasses.fields(p))


def _spectra(args, p):
    """Run the requested solver(s); returns {method_name: SpectrumResult}.
    Each solver defaults --grid-M and --count itself, but for one rule:
    with no --count, HOFD keeps as many hyperbolic levels as DVR finds (DVR
    keeps every level below the asymptote, HOFD at most TRIG_LEVELS)."""
    results = {}
    if args.method in ("dvr", "both"):
        results["DVR"] = dvr.solve_spectrum(p, args.grid_M, args.box_b, args.count)
    if args.method in ("hofd", "both"):
        count = args.count
        if count is None and isinstance(p, HyperbolicParams):
            # a grid HOFD cannot use fails before the count solve. DVR
            # alone runs on its default grid, since --grid-M sizes the HOFD
            # grid here
            hofd.grid_size(args.grid_M, args.stencil_k)
            count = len((results.get("DVR")
                         or dvr.solve_spectrum(p, b=args.box_b)).eigenvalues)
        results["HOFD"] = hofd.hofd_spectrum(p, args.grid_M, args.stencil_k, count)
    return results


def cmd_spectrum(args, parser) -> int:
    p = _params_from_args(args, parser)
    results = _spectra(args, p)
    digits = DIGITS[args.family]
    methods = list(results)
    found = {m: len(r.eigenvalues) for m, r in results.items()}
    if len(set(found.values())) > 1:
        raise SolverError("the solvers found different level counts: "
                          + ", ".join(f"{m} {n}" for m, n in found.items()))
    n_rows = found[methods[0]]
    if n_rows == 0 and args.count != 0:
        raise SolverError("no bound level found (a wide well may need a "
                          "larger --box-b)")
    columns = ["n"] + [f"E_{m.lower()}" for m in methods]
    table = _block(map(str, range(n_rows)),
                   *(_cells(results[m].eigenvalues, digits) for m in methods))
    manifest = _manifest(command="spectrum", family=args.family,
                         params=_param_echo(p), method=args.method)
    for m in methods:
        manifest[f"{m.lower()}_config"] = json.dumps(results[m].config)
        manifest[f"{m.lower()}_max_residual"] = f"{results[m].max_residual:.3e}"
    _emit(manifest, columns, [table], args.format, args.out)
    return EXIT_OK


def cmd_wavefunction(args, parser) -> int:
    p = _params_from_args(args, parser)
    if args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    if min(args.states) < 0:
        parser.error(f"--states must be >= 0, got {min(args.states)}")
    if isinstance(p, HyperbolicParams):
        x_max, abscissa, scale = args.box_b, "kappa*x", p.kappa
    else:
        x_max, abscissa, scale = p.a, "x/a", 1.0 / p.a
    states = args.states
    # a hyperbolic spectrum stops early at its last bound level
    bound = dvr.solve_spectrum(p, args.grid_M, args.box_b,
                               max(states) + 1).eigenvalues
    bad = [m for m in states if m >= len(bound)]
    if bad:
        raise SolverError(f"state index {bad[0]} outside the {len(bound)} "
                          "computed bound states")

    x = dvr.grid(args.samples + 1, x_max)
    solutions = {m: tra.assemble_solution(p, bound[m]) for m in states}
    psi = {m: tra.eval_wavefunction(sol, p, x)[1] for m, sol in solutions.items()}
    digits = DIGITS[args.family]
    columns = [abscissa] + [f"psi_{m}" for m in states]
    table = _block(_cells(scale * x, digits),
                   *(_cells(psi[m], digits) for m in states))
    manifest = _manifest(command="wavefunction", family=args.family,
                         params=_param_echo(p))
    for m, sol in solutions.items():
        manifest[f"state_{m}"] = json.dumps({
            "E": sol.energy, "mu": sol.mu, "nu": sol.nu,
            "N": len(sol.coeffs) - 1, "branch": sol.branch,
            "coeffs": list(sol.coeffs), "nodes": tra.count_nodes(psi[m])})
    _emit(manifest, columns, [table], args.format, args.out)
    return EXIT_OK


def cmd_spd(args, parser) -> int:
    a_vals, b_vals, codes, rect = spd_grid(
        args.V0, args.kappa, (args.A_min, args.A_max),
        (args.B_min, args.B_max), args.resolution)
    a_text = _cells(a_vals, 12)
    labels = [phase.value for phase in PHASES]
    # a row's runs of equal labels start at column 0 and after each change
    rows, cols = np.nonzero(np.diff(codes, axis=1))
    bounds = np.searchsorted(rows, np.arange(len(b_vals) + 1)).tolist()
    starts, kinds = (cols + 1).tolist(), codes[rows, cols + 1].tolist()

    def row_blocks():
        # one block per B row and one join per run: the run's lines
        # "a,b,label\n" are suffix.join(its A texts) + suffix
        b_text = _cells(b_vals, 12)
        for i, (b, first) in enumerate(zip(b_text, codes[:, 0].tolist())):
            lo, hi = bounds[i], bounds[i + 1]
            edges = [0, *starts[lo:hi], len(a_text)]
            suffixes = [f",{b},{labels[k]}\n" for k in [first, *kinds[lo:hi]]]
            yield "".join([suffix.join(a_text[i0:i1]) + suffix for i0, i1, suffix
                           in zip(edges, edges[1:], suffixes)])

    manifest = _manifest(command="spd", V0=args.V0, kappa=args.kappa,
                         rectangle_B_max=rect["B_max"],
                         rectangle_A_max=rect["A_max"])
    _emit(manifest, ["A", "B", "phase"], row_blocks(), args.format, args.out)
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    # every row is solved before the first is printed, so a solver error
    # leaves stdout empty
    lines, ok = [], True
    for table, (sets, spectra) in reference.TABLES.items():
        if args.which not in (table, "all"):
            continue
        for name, p in sets.items():
            for method, exp in spectra[name].items():
                solve = dvr.solve_spectrum if method == "DVR" else hofd.hofd_spectrum
                got = solve(p, count=len(exp)).eigenvalues
                # a level the solver did not return fails as nan
                for n, (g, e) in enumerate(zip_longest(got, exp, fillvalue=np.nan)):
                    tol = reference.tolerance(table, method, n)
                    passed = abs(g - e) <= tol
                    ok &= passed
                    lines.append(f"[{'PASS' if passed else 'FAIL'}] {table} {name} "
                                 f"{method} n={n}: measured={g:.12g} "
                                 f"expected={e:.12g} tol={tol:g}\n")
    sys.stdout.writelines(lines)
    print("verify: ALL PASS" if ok else "verify: FAILURES PRESENT")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any float form (`--A -2e1`, `-.5`) as a
    value, as argparse already reads `-20`. No option of ptbound looks
    like a negative number, so none is shadowed. A write of --help to
    stdout that fails raises, as any other stdout write does (argparse
    drops the error). The pattern and `_print_message` are private
    argparse state, and subcommands inherit both through add_subparsers'
    default `parser_class=type(self)`; test_negative_exponent_value and
    test_full_stdout_usage_error guard them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache  # parsing fills a new namespace and leaves the parser as is
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptbound",
        description="Bound-state spectra and wavefunctions of generalized "
                    "Poschl-Teller potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="energy spectrum table")
    _add_family_flags(p_spec)
    p_spec.add_argument("--method", default="both", choices=["dvr", "hofd", "both"])
    p_spec.add_argument("--count", type=int, default=None)
    p_spec.add_argument("--grid-M", type=int, default=None, dest="grid_M")
    p_spec.add_argument("--box-b", type=float, default=dvr.DEFAULT_B, dest="box_b")
    p_spec.add_argument("--stencil-k", type=int, default=hofd.DEFAULT_K,
                        dest="stencil_k")
    _add_output_flags(p_spec)

    p_wf = sub.add_parser("wavefunction", help="series wavefunction samples")
    _add_family_flags(p_wf)
    p_wf.add_argument("--states", type=int, nargs="+", required=True)
    p_wf.add_argument("--samples", type=int, default=500)
    p_wf.add_argument("--grid-M", type=int, default=None, dest="grid_M")
    p_wf.add_argument("--box-b", type=float, default=dvr.DEFAULT_B, dest="box_b")
    _add_output_flags(p_wf)

    p_spd = sub.add_parser("spd", help="spectral phase diagram grid")
    p_spd.add_argument("--V0", type=float, required=True)
    p_spd.add_argument("--kappa", type=float, default=1.0)
    p_spd.add_argument("--A-min", type=float, required=True, dest="A_min")
    p_spd.add_argument("--A-max", type=float, required=True, dest="A_max")
    p_spd.add_argument("--B-min", type=float, required=True, dest="B_min")
    p_spd.add_argument("--B-max", type=float, required=True, dest="B_max")
    p_spd.add_argument("--resolution", type=int, default=50)
    _add_output_flags(p_spd)

    p_ver = sub.add_parser("verify", help="check shipped reference tables")
    p_ver.add_argument("which", choices=[*reference.TABLES, "all"])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    handlers = {"spectrum": cmd_spectrum, "wavefunction": cmd_wavefunction,
                "spd": cmd_spd, "verify": cmd_verify}
    args = None
    try:
        try:
            args = parser.parse_args(argv)
            code = handlers[args.command](args, parser)
        except SystemExit as exc:  # --help, or parser.error in parsing or a handler
            if exc.code not in (0, None):
                return EXIT_USAGE
            code = EXIT_OK
        sys.stdout.flush()  # so that a late write to stdout fails here too
        return code
    except PtboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:  # a grid too large for this machine
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an output, a path the user gave or stdout, unwritable
        out = getattr(args, "out", None)
        print(f"error: {'--out' if out else 'stdout'}: {exc}", file=sys.stderr)
        if not out:
            # the interpreter flushes stdout again at exit: let that write
            # go nowhere instead of failing a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
