"""Command-line interface: spectrum / wavefunction / spd / verify.

Artifacts are CSV (manifest as leading `# key=value` lines, then a header
row) or a JSON mirror. Bodies are deterministic; the timestamp lives only
in the manifest; `_cells` formats every number cell, a column at a time.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 computation
failure. The parser is built once per process, which only a caller that runs
`main` more than once in one process gains from (the tests, the benchmark);
a shell run builds it once either way.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import re
import sys

import numpy as np

from . import dvr, hofd, orthopoly, reference, tra
from .errors import PtboundError, SolverError
from .hofd import HofdConfig
from .potentials import HyperbolicParams, TrigParams, spd_grid

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3

# significant digits per family, matching the published precision
DIGITS = {"hyperbolic": 12, "trig": 6}


def _cells(values, digits: int) -> list[str]:
    """One %-format per value, over plain floats (nan prints as "nan")."""
    fmt = f"%.{digits - 1}e"
    return [fmt % x for x in np.asarray(values).tolist()]


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _emit(manifest: dict, columns: list[str], rows: list,
          fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        # grids repeat their axis texts, so parse each distinct cell once
        coerced = {v: _coerce(v) for v in set().union(*rows)}
        payload = {"manifest": manifest, "columns": columns,
                   "rows": [[coerced[v] for v in row] for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in manifest.items()]
        lines.append(",".join(columns))
        lines.extend(map(",".join, rows))
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coerce(v: str):
    try:
        return int(v)
    except ValueError:
        try:
            return float(v)
        except ValueError:
            return v


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=["hyperbolic", "trig"])
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
    if args.family == "hyperbolic":
        missing = [n for n in ("A", "B") if getattr(args, n) is None]
        if missing:
            parser.error(f"hyperbolic family requires --{' --'.join(missing)}")
        return HyperbolicParams(V0=args.V0, A=args.A, B=args.B, kappa=args.kappa)
    missing = [n for n in ("C", "D", "a") if getattr(args, n) is None]
    if missing:
        parser.error(f"trig family requires --{' --'.join(missing)}")
    return TrigParams(V0=args.V0, C=args.C, D=args.D, a=args.a)


def _spectra(args, p):
    """Run the requested solver(s); returns {method_name: SpectrumResult}."""
    results = {}
    if args.method in ("dvr", "both"):
        results["DVR"] = dvr.solve_spectrum(p, args.grid_M, args.box_b, args.count)
    if args.method in ("hofd", "both"):
        count = args.count
        if count is None and isinstance(p, TrigParams):
            count = dvr.TRIG_LEVELS
        elif count is None:
            # as many levels as DVR finds; DVR alone runs on its default grid,
            # since --grid-M sizes the HOFD grid here
            count = len((results.get("DVR")
                         or dvr.solve_spectrum(p, b=args.box_b)).eigenvalues)
        cfg = HofdConfig(M=args.grid_M or hofd.DEFAULT_M, k=args.stencil_k)
        results["HOFD"] = hofd.hofd_spectrum(p, cfg, count=count)
    return results


def _check_grid_M(args, parser) -> None:
    # a grid size of 0 must not fall through to `grid_M or default`
    if args.grid_M is not None and args.grid_M < 1:
        parser.error(f"--grid-M must be >= 1, got {args.grid_M}")


def cmd_spectrum(args, parser) -> int:
    p = _params_from_args(args, parser)
    _check_grid_M(args, parser)
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
    rows = list(zip(map(str, range(n_rows)),
                    *(_cells(results[m].eigenvalues, digits) for m in methods)))
    manifest = {"command": "spectrum", "family": args.family,
                "params": _param_echo(p), "method": args.method,
                "units": "atomic (hbar = m = 1)",
                "generated": _timestamp()}
    for m in methods:
        manifest[f"{m.lower()}_config"] = json.dumps(results[m].config)
        manifest[f"{m.lower()}_max_residual"] = f"{results[m].max_residual:.3e}"
    _emit(manifest, columns, rows, args.format, args.out)
    return EXIT_OK


def _param_echo(p) -> str:
    if isinstance(p, HyperbolicParams):
        return f"V0={p.V0};A={p.A};B={p.B};kappa={p.kappa}"
    return f"V0={p.V0};C={p.C};D={p.D};a={p.a}"


def cmd_wavefunction(args, parser) -> int:
    p = _params_from_args(args, parser)
    if args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    _check_grid_M(args, parser)
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
    rows = list(zip(_cells(scale * x, digits),
                    *(_cells(psi[m], digits) for m in states)))
    manifest = {"command": "wavefunction", "family": args.family,
                "params": _param_echo(p),
                "units": "atomic (hbar = m = 1)",
                "generated": _timestamp()}
    for m, sol in solutions.items():
        manifest[f"state_{m}"] = json.dumps({
            "E": sol.energy, "mu": sol.basis.mu, "nu": sol.basis.nu,
            "N": sol.basis.N_m, "branch": sol.branch and sol.branch.value,
            "coeffs": list(sol.coeffs), "nodes": tra.count_nodes(psi[m])})
    _emit(manifest, columns, rows, args.format, args.out)
    return EXIT_OK


def cmd_spd(args, parser) -> int:
    a_vals, b_vals, phases, rect = spd_grid(
        args.V0, args.kappa, (args.A_min, args.A_max),
        (args.B_min, args.B_max), args.resolution)
    columns = ["A", "B", "phase"]
    a_text, b_text = _cells(a_vals, 12), _cells(b_vals, 12)
    # `_value_` is a plain attribute, `.value` a property call per cell
    rows = list(zip(a_text * len(b_text), [b for b in b_text for _ in a_text],
                    [phase._value_ for phase in phases.ravel().tolist()]))
    manifest = {"command": "spd", "V0": args.V0, "kappa": args.kappa,
                "rectangle_B_max": rect["B_max"], "rectangle_A_max": rect["A_max"],
                "units": "atomic (hbar = m = 1)",
                "generated": _timestamp()}
    _emit(manifest, columns, rows, args.format, args.out)
    return EXIT_OK


def _verify_tables(which: str, report: list) -> bool:
    ok = True
    for table, (sets, spectra) in reference.TABLES.items():
        if which not in (table, "all"):
            continue
        for name, p in sets.items():
            for method, exp in spectra[name].items():
                got = (dvr.solve_spectrum(p, count=len(exp)) if method == "DVR"
                       else hofd.hofd_spectrum(p, count=len(exp))).eigenvalues
                for n, (g, e) in enumerate(zip(got, exp)):
                    tol = reference.tolerance(table, method, n)
                    passed = abs(g - e) <= tol
                    ok &= passed
                    report.append((f"{table} {name} {method} n={n}", g, e,
                                   tol, passed))
    return ok


def _verify_polys(report: list) -> bool:
    ok = True
    rng = np.random.default_rng(20240815)
    for trial in range(200):
        n_max = int(rng.integers(0, 6))
        mu = float(rng.uniform(-0.9, 3.0))
        nu = float(-mu - 2 * n_max - 1 - rng.uniform(0.1, 5.0))
        n = int(rng.integers(0, n_max + 1))
        y = float(rng.uniform(1.0 + 1e-6, 8.0))
        jp = orthopoly.JacobiParams(mu=mu, nu=nu, N=n_max)
        q_rec = orthopoly.jacobi_q(n, jp, y)
        q_hyp = orthopoly.jacobi_q_oracle(n, jp, y)
        rel = abs(q_rec - q_hyp) / max(abs(q_hyp), 1.0)
        if rel > 1e-10:
            ok = False
            report.append((f"polys recursion-vs-hypergeometric trial={trial}",
                           q_rec, q_hyp, 1e-10, False))
    report.append(("polys recursion-vs-hypergeometric (200 trials)",
                   0.0, 0.0, 1e-10, ok))
    return ok


def cmd_verify(args, parser) -> int:
    report: list = []
    ok = _verify_tables(args.which, report)
    if args.which in ("polys", "all"):
        ok &= _verify_polys(report)
    for name, got, exp, tol, passed in report:
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] {name}: measured={got:.12g} expected={exp:.12g} tol={tol:g}")
    print("verify: ALL PASS" if ok else "verify: FAILURES PRESENT")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any float form (`--A -2e1`, `-.5`) as a
    value, as argparse already reads `-20`. No option of ptbound looks
    like a negative number, so none is shadowed. The pattern is private
    argparse state, and subcommands inherit it through add_subparsers'
    default `parser_class=type(self)`; test_negative_exponent_value guards
    both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


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
    p_ver.add_argument("which", choices=["table1", "table2", "polys", "all"])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    handlers = {"spectrum": cmd_spectrum, "wavefunction": cmd_wavefunction,
                "spd": cmd_spd, "verify": cmd_verify}
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args, parser)
    except SystemExit as exc:  # --help, or parser.error in parsing or a handler
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except PtboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
