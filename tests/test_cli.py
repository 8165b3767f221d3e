import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ptbound import cli, dvr


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    manifest, rows = {}, []
    header = None
    for line in text.strip().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            manifest[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return manifest, header, rows


S1_FLAGS = ["--family", "hyperbolic", "--V0", "10", "--A", "-20",
            "--B", "-30", "--kappa", "1"]
S3_FLAGS = ["--family", "trig", "--V0", "5", "--C", "-10", "--D", "2",
            "--a", "1"]
S4_FLAGS = ["--family", "trig", "--V0", "5", "--C", "-2", "--D", "2",
            "--a", "1"]
# S1's well stretched by 1/kappa = 20, beyond the default DVR box b = 10
WIDE_FLAGS = ["--family", "hyperbolic", "--V0", "10", "--A", "-20",
              "--B", "-30", "--kappa", "0.05"]


def test_spectrum_s1_both(capsys):
    code, out, _ = run(capsys, "spectrum", *S1_FLAGS, "--method", "both")
    assert code == 0
    manifest, header, rows = parse_csv(out)
    assert manifest["command"] == "spectrum"
    assert header == ["n", "E_dvr", "E_hofd"]
    assert len(rows) == 3
    expect = (-17.292792568552, -6.137201742096, -0.888027613576)
    for row, ref in zip(rows, expect):
        assert float(row[1]) == pytest.approx(ref, abs=1e-8)


def test_spectrum_both_solves_dvr_once(capsys, monkeypatch):
    calls = []
    solve = dvr.solve_spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dvr, "solve_spectrum", counted)
    code, _, _ = run(capsys, "spectrum", *S1_FLAGS, "--method", "both",
                     "--grid-M", "60")
    assert code == 0
    assert len(calls) == 1


def test_spectrum_hofd_stops_at_continuum(capsys):
    # levels 4 and 5 of S1 would be E > 0 artifacts of the compactified grid
    code, out, _ = run(capsys, "spectrum", *S1_FLAGS, "--method", "hofd",
                       "--count", "5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["n", "E_hofd"]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert all(float(row[1]) < 0.0 for row in rows)


def test_spectrum_count_zero(capsys):
    code, out, _ = run(capsys, "spectrum", *S4_FLAGS, "--method", "dvr",
                       "--count", "0")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["n", "E_dvr"]
    assert rows == []


def test_spectrum_level_count_mismatch(capsys):
    # DVR's box holds none of the wide well's levels; HOFD finds three
    code, out, err = run(capsys, "spectrum", *WIDE_FLAGS, "--method", "both",
                         "--count", "3")
    assert code == 3
    assert out == ""
    assert "DVR 0" in err and "HOFD 3" in err


def test_spectrum_empty_table(capsys):
    code, out, err = run(capsys, "spectrum", *WIDE_FLAGS, "--method", "dvr")
    assert code == 3
    assert out == ""
    assert "no bound level" in err


@pytest.mark.parametrize("flags", [S1_FLAGS, S4_FLAGS],
                         ids=["hyperbolic", "trig"])
@pytest.mark.parametrize("command", [
    ["spectrum", "--method", "dvr"], ["spectrum", "--method", "hofd"],
    ["spectrum", "--method", "both"]])
def test_negative_count_usage_error(capsys, flags, command):
    # a negative count once sliced the DVR levels from the end
    code, out, err = run(capsys, command[0], *flags, *command[1:],
                         "--count", "-1")
    assert code == 2
    assert out == "" and "count must be >= 0" in err


@pytest.mark.parametrize("grid_M", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["spectrum", "--method", "dvr"], ["spectrum", "--method", "hofd"],
    ["spectrum", "--method", "both"], ["wavefunction", "--states", "0"]])
def test_grid_M_below_one_usage_error(capsys, command, grid_M):
    # --grid-M 0 once ran the default grids and exited 0
    code, out, err = run(capsys, command[0], *S1_FLAGS, *command[1:],
                         "--grid-M", grid_M)
    assert code == 2
    assert out == "" and "--grid-M must be >= 1" in err


@pytest.mark.parametrize("flags", [
    ["--stencil-k", "0"], ["--box-b", "0"], ["--box-b", "nan"],
    ["--grid-M", "2", "--method", "dvr"], ["--grid-M", "5", "--method", "hofd"]],
    ids=["k0", "b0", "b-nan", "dvr-M2", "hofd-M5"])
def test_grid_and_stencil_usage_error(capsys, flags):
    # grid and stencil flags the solvers reject once exited 3, as if a
    # computation had failed
    code, out, err = run(capsys, "spectrum", *S1_FLAGS, *flags)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("method", ["dvr", "hofd"])
@pytest.mark.parametrize("flags", [
    ["--family", "hyperbolic", "--V0", "10", "--A", "-20", "--B", "-30",
     "--kappa", "1e-200", "--count", "2"],
    ["--family", "trig", "--V0", "5", "--C", "-10", "--D", "2",
     "--a", "1e-200"]], ids=["kappa", "a"])
def test_nonfinite_operator_fails_computation(capsys, method, flags):
    # HOFD once exited 2 with numpy's message, and DVR reported an empty
    # finite well as "no bound level found"
    code, out, err = run(capsys, "spectrum", *flags, "--method", method)
    assert code == 3
    assert out == "" and "matrix is not finite" in err


@pytest.mark.parametrize("method", ["dvr", "hofd", "both"])
def test_nonfinite_params_usage_error(capsys, method):
    # a nan parameter once ran the solvers into a non-finite potential
    flags = ["--family", "hyperbolic", "--V0", "10", "--A", "nan", "--B", "-30"]
    code, out, err = run(capsys, "spectrum", *flags, "--method", method)
    assert code == 2
    assert out == "" and "A must be finite" in err


@pytest.mark.parametrize("bound", [["--A-min", "nan", "--A-max", "5"],
                                   ["--A-min", "-5", "--A-max", "inf"]],
                         ids=["nan", "inf"])
def test_spd_nonfinite_bounds(capsys, bound):
    # these grids once exited 0 with nan and inf cells, every one labelled S
    code, out, err = run(capsys, "spd", "--V0", "10", *bound,
                         "--B-min", "-5", "--B-max", "5")
    assert code == 2
    assert out == "" and "A must be finite" in err


@pytest.mark.parametrize("argv, code", [
    (["spd", "--V0", "10", "--A-min", "-5", "--A-max", "inf", "--B-min", "-5",
      "--B-max", "5"], 2),
    (["spectrum", *S1_FLAGS[:-1], "1e-200", "--method", "dvr"], 3),
    (["spectrum", *S1_FLAGS[:-1], "1e-200", "--method", "hofd"], 3),
    (["spectrum", *S3_FLAGS[:-1], "1e-200", "--method", "dvr"], 3),
    (["spectrum", *S3_FLAGS[:-1], "1e-200", "--method", "hofd"], 3),
    (["wavefunction", *S1_FLAGS[:7], "-4000", "--states", "34",
      "--samples", "20"], 3)],
    ids=["spd-inf", "kappa-dvr", "kappa-hofd", "a-dvr", "a-hofd",
         "wavefunction-nan"])
def test_nonfinite_input_stderr_is_one_error_line(argv, code):
    # numpy's RuntimeWarnings once came before the error line; run as a
    # user would, with warnings shown, to see everything on stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "ptbound.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_spectrum_usage_error(capsys):
    code, _, _ = run(capsys, "spectrum", "--family", "hyperbolic",
                     "--V0", "10")  # missing A, B
    assert code == 2


def test_spectrum_unknown_flag(capsys):
    code, _, _ = run(capsys, "spectrum", *S1_FLAGS, "--bogus", "1")
    assert code == 2


def test_spectrum_determinism(capsys):
    def body(text):
        return [ln for ln in text.splitlines()
                if not ln.startswith("# generated=")]
    _, out1, _ = run(capsys, "spectrum", *S4_FLAGS, "--method", "dvr",
                     "--count", "4")
    _, out2, _ = run(capsys, "spectrum", *S4_FLAGS, "--method", "dvr",
                     "--count", "4")
    assert body(out1) == body(out2)


def test_spectrum_json_and_out_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    code, _, _ = run(capsys, "spectrum", *S4_FLAGS, "--method", "dvr",
                     "--count", "2", "--format", "json", "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["columns"] == ["n", "E_dvr"]
    assert payload["rows"][0][1] == pytest.approx(29.961374, abs=1e-4)


def test_wavefunction_metadata_and_columns(capsys):
    code, out, _ = run(capsys, "wavefunction", *S1_FLAGS,
                       "--states", "0", "--samples", "20")
    assert code == 0
    manifest, header, rows = parse_csv(out)
    assert header == ["kappa*x", "psi_0"]
    assert len(rows) == 20
    meta = json.loads(manifest["state_0"])
    assert meta["N"] == 0
    assert meta["coeffs"] == [1.0]
    assert meta["branch"] == "hyper"


@pytest.mark.parametrize("flags", [
    ["--family", "hyperbolic", "--V0", "10", "--A", a, "--B", "-30", "--kappa", "1"]
    for a in ("12", "0", "10")
] + [["--family", "trig", "--V0", "5", "--C", "-5", "--D", "2", "--a", "1"]],
    ids=["A12", "A0", "A10", "C-V0"])
def test_wavefunction_outside_branch_windows(capsys, flags):
    # the coefficient recursion needs no branch window, so these succeed
    code, out, _ = run(capsys, "wavefunction", *flags, "--states", "0",
                       "--samples", "50")
    assert code == 0
    manifest, _, rows = parse_csv(out)
    assert json.loads(manifest["state_0"])["branch"] is None
    assert len(rows) == 50
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_wavefunction_bad_state(capsys):
    code, _, err = run(capsys, "wavefunction", *S1_FLAGS, "--states", "7")
    assert code == 3
    assert "3" in err  # message names the bound count


@pytest.mark.parametrize("flags", [S1_FLAGS, S4_FLAGS],
                         ids=["hyperbolic", "trig"])
def test_wavefunction_negative_state_usage_error(capsys, flags, monkeypatch):
    # --states -1 once ran the DVR solve and exited 3 as a computation failure
    monkeypatch.setattr(dvr, "solve_spectrum", None)  # no solve may run
    code, out, err = run(capsys, "wavefunction", *flags, "--states", "0", "-1")
    assert code == 2
    assert out == "" and "--states must be >= 0, got -1" in err


def test_wavefunction_trig_levels_from_states(capsys):
    # the finite well once kept ten levels, whatever --states asked for
    code, out, _ = run(capsys, "wavefunction", *S3_FLAGS, "--states", "10",
                       "--samples", "5")
    assert code == 0
    energy = json.loads(parse_csv(out)[0]["state_10"])["E"]
    _, spec, _ = run(capsys, "spectrum", *S3_FLAGS, "--method", "dvr",
                     "--count", "11")
    assert cli._cells([energy], cli.DIGITS["trig"]) == [parse_csv(spec)[2][10][1]]


def test_wavefunction_node_counts(capsys):
    code, out, _ = run(capsys, "wavefunction", *S1_FLAGS, "--states", "0", "1",
                       "2")
    assert code == 0
    manifest = parse_csv(out)[0]
    assert [json.loads(manifest[f"state_{m}"])["nodes"] for m in range(3)] \
        == [0, 0, 1]


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_wavefunction_samples_below_one(capsys, samples):
    code, out, err = run(capsys, "wavefunction", *S4_FLAGS, "--states", "0",
                         "--samples", samples)
    assert code == 2
    assert out == "" and "--samples must be >= 1" in err


@pytest.mark.parametrize("flags, message", [
    (["--V0", "0"], "V0 must be positive, got 0.0"),
    (["--V0", "1", "--kappa", "-1"], "kappa must be positive, got -1.0"),
])
def test_spd_invalid_params(capsys, flags, message):
    code, out, err = run(capsys, "spd", *flags, "--A-min", "-5", "--A-max", "5",
                         "--B-min", "-5", "--B-max", "5")
    assert code == 2
    assert out == "" and message in err


def test_spd_grid(capsys):
    code, out, _ = run(capsys, "spd", "--V0", "10", "--kappa", "1",
                       "--A-min", "-20", "--A-max", "20",
                       "--B-min", "-30", "--B-max", "10",
                       "--resolution", "5")
    assert code == 0
    manifest, header, rows = parse_csv(out)
    assert header == ["A", "B", "phase"]
    assert len(rows) == 25
    assert manifest["rectangle_B_max"] == "0.125"
    by_node = {(float(a), float(b)): ph for a, b, ph in rows}
    assert by_node[(-20.0, -30.0)] == "B"
    for (a, b), ph in by_node.items():
        if a + b >= 0:
            assert ph != "B"


def test_spd_label_scale_free(capsys):
    # (V0, A, B) = 1e200 * (1, -4, 1): A + B < 0 is a well, B at every node
    code, out, _ = run(capsys, "spd", "--V0", "1e200", "--A-min=-4e200",
                       "--A-max=-4e200", "--B-min", "1e200", "--B-max", "1e200",
                       "--resolution", "2")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [ph for _, _, ph in rows] == ["B"] * 4


def body(out):
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("# "))


@pytest.mark.parametrize("exponent, plain", [
    (["spectrum", *S1_FLAGS[:4], "--A", "-2e1", "--B", "-30", "--method", "dvr"],
     ["spectrum", *S1_FLAGS[:4], "--A", "-20", "--B", "-30", "--method", "dvr"]),
    (["spd", "--V0", "10", "--A-min", "-6e1", "--A-max", "4e1", "--B-min",
      "-6.0E+1", "--B-max", "40", "--resolution", "4"],
     ["spd", "--V0", "10", "--A-min", "-60", "--A-max", "4e1", "--B-min",
      "-60", "--B-max", "40", "--resolution", "4"]),
])
def test_negative_exponent_value(capsys, exponent, plain):
    # a negative number in exponent form is a value, not a flag
    code, out, err = run(capsys, *exponent)
    assert code == 0, err
    assert body(out) == body(run(capsys, *plain)[1])


def test_json_rows_match_csv(capsys):
    spd = ["spd", "--V0", "10", "--A-min", "-20", "--A-max", "20",
           "--B-min", "-30", "--B-max", "10", "--resolution", "5"]
    _, csv_out, _ = run(capsys, *spd)
    _, json_out, _ = run(capsys, *spd, "--format", "json")
    _, header, rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert payload["columns"] == header
    assert payload["rows"] == [[float(a), float(b), ph] for a, b, ph in rows]
    _, spec_out, _ = run(capsys, "spectrum", *S4_FLAGS, "--method", "dvr",
                         "--count", "3", "--format", "json")
    spec_rows = json.loads(spec_out)["rows"]
    assert [(type(n), n) for n, _ in spec_rows] == [(int, 0), (int, 1), (int, 2)]


def test_verify_polys(capsys):
    code, out, _ = run(capsys, "verify", "polys")
    assert code == 0
    assert "ALL PASS" in out


# sha256 of the header and data rows (manifest lines dropped): a new digest
# means printed numbers changed. These rows print the same at one and two
# BLAS threads; the 12-digit hyperbolic rows do not, so they are not pinned.
PINNED_BODIES = {
    "spd": (["spd", "--V0", "10", "--A-min", "-60", "--A-max", "40",
             "--B-min", "-60", "--B-max", "40", "--resolution", "200"],
            "c2d2259c30dca857f4618a78a7911a96c42763ff685b2d1e2fd8d93d7c1d9e34"),
    # 22 nodes with 0 < |A + B| <= 7.1e-15, where the cut |c3| <= 1e-13 max|c|
    # decides between B and B&R
    "spd-cut": (["spd", "--V0", "10", "--A-min", "-20", "--A-max", "20",
                 "--B-min", "-20", "--B-max", "20", "--resolution", "30"],
                "3c99929e3f256523ab5fa9a76d005b6dbda5d0890f0f41e209c6b0b86af7869e"),
    "S3": (["spectrum", *S3_FLAGS, "--method", "both"],
           "39e963cef2890995cba65fab0df2ab2cae1d11b9f676911d686fc83884ef8627"),
    "S4": (["spectrum", *S4_FLAGS, "--method", "both"],
           "07abb644b3ae255a2f5db027af3bf38d456e6351731912180cc7464d9e9fb184"),
    "wavefunction-S3": (["wavefunction", *S3_FLAGS, "--states", "0", "1", "2"],
                        "319857bf4a07b415128a7985d514190b716c12dc12bf051f0e2f31d7633f86b0"),
    "wavefunction-S4": (["wavefunction", *S4_FLAGS, "--states", "0", "1", "2"],
                        "f652b735d371881807e3bfbd77cecedb19136737fe3e6f17e08ddc9aead6a2dc"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_output_body_pinned(capsys, name):
    argv, digest = PINNED_BODIES[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(body(out).encode()).hexdigest() == digest


# sha256 of the JSON text from "columns" on (the manifest object dropped:
# its residuals and full-precision energies differ between one and two
# BLAS threads). A new digest means a JSON cell changed.
PINNED_JSON = {
    "spd": "423e61d1d6392f6dcf402b0db1d138822d0bbb6b0ea4cb11d3e45d559ed97d9f",
    "S3": "665e37b0864a06bd1baa28ec06fa323d27b933dffdf359612ccc2dc287717006",
    "wavefunction-S3":
        "60212478ca92f4e49ea254058fda48a9575d7c53a6c4536a721bd28bfb140581",
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_json_body_pinned(capsys, name):
    code, out, _ = run(capsys, *PINNED_BODIES[name][0], "--format", "json")
    assert code == 0
    tail = out[out.index('\n  "columns": '):]
    assert hashlib.sha256(tail.encode()).hexdigest() == PINNED_JSON[name]


def _fmt(x, digits):
    """The one-cell formatter `cli._cells` replaced."""
    return f"{x:.{digits - 1}e}" if x == x else "nan"


@pytest.mark.parametrize("digits", [6, 12])
def test_cells_match_one_cell_format(digits):
    values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
              -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
              # exact binary values on a last-digit tie at 6 and 12 digits
              1000005.0, 1000015.0, 2.0**-10, -(2.0**-10),
              1000000000005.0, 1000000000015.0, 1234567890125.0,
              -17.292792568552, 16.797026058903427, 0.1, 1.0 / 3.0]
    want = [_fmt(x, digits) for x in values]
    assert cli._cells(values, digits) == want
    assert cli._cells(np.array(values), digits) == want
    assert cli._cells([np.float64(x) for x in values], digits) == want
    assert cli._cells(tuple(values), digits) == want


def without_timestamp(text):
    """The lines of a CSV or JSON artifact but its `generated` stamp."""
    return [ln for ln in text.splitlines() if not ln.startswith("# generated=")
            and not ln.startswith('    "generated": ')]


def _fresh(capsys, *argv):
    """Output of argv from a newly built parser."""
    cli.build_parser.cache_clear()
    return run(capsys, *argv)


SPD_SMALL = ["spd", "--V0", "10", "--A-min", "-5", "--A-max", "5",
             "--B-min", "-5", "--B-max", "5", "--resolution", "4"]


@pytest.mark.parametrize("calls, codes", [
    ([["wavefunction", *S1_FLAGS, "--states", "0", "1", "2", "--samples", "20"],
      ["wavefunction", *S1_FLAGS, "--states", "1", "--samples", "20"]], [0, 0]),
    ([["spectrum", *S4_FLAGS, "--method", "dvr", "--format", "json"],
      ["spectrum", *S4_FLAGS, "--method", "dvr"]], [0, 0]),
    ([SPD_SMALL, SPD_SMALL[:-4], SPD_SMALL], [0, 2, 0]),
], ids=["states", "json-then-csv", "usage-error-between"])
def test_shared_parser_keeps_no_state(capsys, calls, codes):
    # main reuses one parser per process; each call must read as if the
    # parser were new
    assert cli.build_parser() is cli.build_parser()
    got = [run(capsys, *argv) for argv in calls]
    want = [_fresh(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in got] == [code for code, _, _ in want] == codes
    assert [(without_timestamp(out), err) for _, out, err in got] \
        == [(without_timestamp(out), err) for _, out, err in want]


@pytest.mark.parametrize("argv", [
    ["spd", "--V0", "10", "--A-min", "-20", "--A-max", "20", "--B-min", "-30",
     "--B-max", "10", "--resolution", "5"],
    ["spectrum", *S3_FLAGS, "--method", "both"]], ids=["spd", "spectrum-S3"])
def test_entry_point_matches_in_process(capsys, argv):
    # the one-shot path a shell user takes: a fresh process, fresh caches
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "ptbound.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, err) == (0, "")
    assert without_timestamp(proc.stdout) == without_timestamp(out)
