import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import tracemalloc

import numpy as np
import pytest
from conftest import run_cli_child

from ptbound import cli, dvr, hofd, linalg, reference
from ptbound.potentials import PHASES, spd_grid


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
S2_FLAGS = ["--family", "hyperbolic", "--V0", "5", "--A", "2",
            "--B", "-60", "--kappa", "1"]
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
    # --grid-M 0 once ran the default grids and exited 0; the solver that
    # first reads the grid size rejects it (DVR, but for --method hofd)
    code, out, err = run(capsys, command[0], *S1_FLAGS, *command[1:],
                         "--grid-M", grid_M)
    want = ("need M >= 2k + 2," if command[-1] == "hofd"
            else "need M >= 3 and finite b > 0,")
    assert code == 2
    assert out == "" and err.startswith(f"error: {want} got M={grid_M},")


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
      "--samples", "20"], 3),
    # dx^2 underflows to 0 in the kinetic matrix
    (["spectrum", *S1_FLAGS, "--method", "dvr", "--box-b", "1e-300"], 3),
    (["wavefunction", *S1_FLAGS, "--states", "0", "--box-b", "1e-300"], 3)],
    ids=["spd-inf", "kappa-dvr", "kappa-hofd", "a-dvr", "a-hofd",
         "wavefunction-nan", "box-b-dvr", "box-b-wavefunction"])
def test_nonfinite_input_stderr_is_one_error_line(argv, code):
    # numpy's RuntimeWarnings once came before the error line; run as a
    # user would, with warnings shown, to see everything on stderr
    proc = run_cli_child(argv, capture_output=True, text=True,
                         env={"PYTHONWARNINGS": "default"})
    assert proc.returncode == code and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


ARTIFACT = r"error: level .* lies at or below min V - 1 = .*: a stencil artifact"
CONTRACT = r"error: eigenpair residual .* exceeds contract"


@pytest.mark.parametrize("flags, method, k, count, message", [
    (S3_FLAGS, "hofd", 40, [], f"{ARTIFACT}|{CONTRACT}"),
    (S3_FLAGS, "hofd", 50, [], f"{ARTIFACT}|{CONTRACT}"),
    (S3_FLAGS, "hofd", 50, ["--count", "3"], f"{ARTIFACT}|{CONTRACT}"),
    (S4_FLAGS, "hofd", 40, [], CONTRACT), (S4_FLAGS, "hofd", 50, [], ARTIFACT),
    (S4_FLAGS, "both", 40, [], CONTRACT), (S1_FLAGS, "both", 36, [], CONTRACT),
    (S3_FLAGS, "both", 20, [], CONTRACT), (S1_FLAGS, "hofd", 28, [], CONTRACT)],
    ids=["S3-40", "S3-50", "S3-50-count3", "S4-40", "S4-50",
         "S4-40-both", "S1-36-both", "S3-20-both", "S1-28"])
def test_wide_stencil_artifact_fails(capsys, flags, method, k, count, message):
    # wide stencils once exited 0 with levels no solve can stand by. Some put
    # levels at or left of min V - 1, the shift that HOFD takes to lie left
    # of the whole spectrum: S3 printed ten levels from -4.56e4 at k = 40 and
    # 1.12996 three times at k = 50 (min V - 1 = 1.12997), S4 printed
    # -1.19e6 beside DVR's 29.96, and S1 printed -1668 beside DVR's -17.29
    # (min V - 1 = -27.06). Others printed noise within a residual contract
    # of 1e-10: S3 at k = 20 (residual 3.5e-12 at two BLAS threads, 5.4e-12
    # at one) printed E_9 = 805.167 (805.171 at one thread) beside DVR's
    # 805.156, where HOFD at M = 2000 gives 805.160, and S1 at k = 28
    # (2.9e-12, 2.0e-11) printed a top level 8.1e-10 off at one thread.
    # Where both checks fail, the contract runs first. S3 at k = 40 and 50
    # sit at the contract's edge (residual 2.5e-14 and 2.2e-12 at one BLAS
    # thread, 3.4e-11 and 1.6e-14 at two), so either check may refuse them
    code, out, err = run(capsys, "spectrum", *flags, "--method", method,
                         "--stencil-k", str(k), *count)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert re.fullmatch(message, err.strip())


@pytest.mark.parametrize("k", range(1, 21))
def test_stencil_widths_keep_level_counts(capsys, k):
    # the residual contract and the artifact check pass every level of the
    # stencils up to k = 20 on S1 and k = 19 on S3 (S3's residual at k = 19
    # is 4.9e-13; at k = 20 it fails, above)
    for flags, levels, k_max in ((S1_FLAGS, 3, 20),
                                 (S3_FLAGS, dvr.TRIG_LEVELS, 19)):
        if k > k_max:
            continue
        code, out, _ = run(capsys, "spectrum", *flags, "--method", "hofd",
                           "--stencil-k", str(k))
        assert code == 0 and len(parse_csv(out)[2]) == levels


def _cap_address_space():
    """Cap a child's address space at 1.5 GB: a runaway allocation fails
    there with MemoryError instead of taking the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


def test_wavefunction_deep_well_stops():
    # N = 8.8e11 for this state and the series coefficients overflow at
    # f_18; the coefficient list once grew on towards N. A child with a
    # time limit and a memory cap turns such a regression into a failure
    proc = run_cli_child(
        ["wavefunction", *S1_FLAGS[:6], "--B=-1e30", "--kappa", "1",
         "--states", "0", "--samples", "3"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: series coefficient f_18 ")


def test_spd_out_of_memory_is_one_error_line():
    # the labels of a 40000 x 40000 grid take 1.6 GB, past the cap, before
    # the first output byte (a smaller grid is labelled band by band and
    # streams its table instead); under the cap numpy's MemoryError once
    # ended in a traceback with exit 1, the code of a verification failure
    proc = run_cli_child(
        ["spd", "--V0", "10", "--A-min", "-5", "--A-max", "5",
         "--B-min", "-5", "--B-max", "5", "--resolution", "40000"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: out of memory")


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


@pytest.mark.parametrize("argv", [
    ["spd", "--V0", "10", "--A-min", "-20", "--A-max", "20", "--B-min", "-30",
     "--B-max", "10", "--resolution", "5"],
    ["spd", "--V0", "10", "--A-min", "-20", "--A-max", "20", "--B-min", "-30",
     "--B-max", "10", "--resolution", "5", "--format", "json"],
    ["spectrum", *S3_FLAGS, "--method", "both"]],
    ids=["spd-csv", "spd-json", "spectrum-S3"])
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    path = tmp_path / "artifact"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert without_timestamp(path.read_text()) == without_timestamp(out)


def test_spd_memory_scales_with_body():
    # the table is written a B row at a time; building every row, joined
    # line and the whole text first once held 6.5 times the body
    argv = ["spd", "--V0", "10", "--A-min", "-60", "--A-max", "40",
            "--B-min", "-60", "--B-max", "40", "--resolution", "300"]
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    body_len = len(out.getvalue())
    assert code == 0
    assert peak <= 3 * body_len, (peak, body_len)


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


def test_spd_span_beyond_float_range(capsys):
    # hi - lo = 3.4e308 overflowed in np.linspace, which warned and then
    # reported the finite bound A as not finite
    code, out, err = run(capsys, "spd", "--V0", "1", "--A-min=-1.7e308",
                         "--A-max", "1.7e308", "--B-min=-1", "--B-max", "1",
                         "--resolution", "3")
    assert code == 0, err
    _, _, rows = parse_csv(out)
    assert [float(a) for a, _, _ in rows[:3]] == [-1.7e308, 0.0, 1.7e308]
    # B = -1: a well for A <= 0, repulsive for huge A > 0
    assert [ph for _, _, ph in rows[:3]] == ["B", "B", "S"]


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


def test_verify_tables(capsys):
    # the benchmark's verify check wants 2 * (6 + 20) + 1 PASS lines, one
    # more than tables 1 and 2 hold
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    passed = [line for line in out.splitlines() if line.startswith("[PASS]")]
    assert len(passed) >= 2 * (6 + 20) + 1
    for table in ("table1", "table2", "limits"):
        assert any(line.startswith(f"[PASS] {table} ") for line in passed)
    assert out.endswith("verify: ALL PASS\n")
    code, out, _ = run(capsys, "verify", "limits")
    assert code == 0 and out.endswith("verify: ALL PASS\n")
    assert run(capsys, "verify", "polys")[0] == 2


def test_verify_fails_missing_level(capsys, monkeypatch):
    # levels were zipped with the table, so a solver that returned too few
    # printed no row for the rest and still ended in ALL PASS
    solve = hofd.hofd_spectrum

    def truncated(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, eigenvalues=res.eigenvalues[:-1])

    monkeypatch.setattr(hofd, "hofd_spectrum", truncated)
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    sets = reference.TABLES["table1"][0]
    assert len(failed) == len(sets)
    for name, line in zip(sets, failed):
        assert line.startswith(f"[FAIL] table1 {name} HOFD n=2: measured=nan ")
    assert out.endswith("verify: FAILURES PRESENT\n")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_usage_error(capsys, tmp_path, where):
    # an --out that cannot be opened once ended in a traceback with exit 1,
    # the code of a verification failure
    path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "spd", "--V0", "10", "--A-min", "-5",
                         "--A-max", "5", "--B-min", "-5", "--B-max", "5",
                         "--resolution", "3", "--out", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --out: ")
    assert str(path) in err


SPD_300 = ["spd", "--V0", "10", "--A-min", "-5", "--A-max", "5",
           "--B-min", "-5", "--B-max", "5", "--resolution", "300"]


@pytest.mark.parametrize("argv", [["verify", "limits"], SPD_300, ["--help"],
                                  ["spectrum", "--help"]],
                         ids=["verify", "spd", "help", "spectrum-help"])
def test_full_stdout_usage_error(argv):
    # a stdout that cannot be written once ended in a traceback with exit 1,
    # the code of a verification failure, and --help in exit 0 with nothing
    # written (argparse drops its write errors)
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        proc = run_cli_child(argv, stdout=full, stderr=subprocess.PIPE,
                             text=True, timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: stdout: [Errno 28] ")


def test_closed_pipe_usage_error():
    # a reader that stops early, as `| head -c 20` does: the 3.5 MB table
    # fills the pipe, and the writes after the close fail
    proc = run_cli_child(SPD_300, run=subprocess.Popen,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(20) == b"# command=spd\n# V0=1"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    finally:
        proc.kill()
        proc.wait()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: stdout: [Errno 32] ")


@pytest.mark.parametrize("argv, family", [
    (["spectrum", "--family", "hyperbolic", "--V0", "10"],
     "hyperbolic family requires --A --B"),
    (["spectrum", "--family", "trig", "--V0", "5", "--D", "2"],
     "trig family requires --C --a"),
    (["wavefunction", "--family", "trig", "--V0", "5", "--C", "-2", "--D", "2",
      "--states", "0"], "trig family requires --a")],
    ids=["hyperbolic", "trig", "trig-a"])
def test_family_requires_message(capsys, argv, family):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"ptbound: error: {family}\n")


def manifest_items(out):
    """The manifest of a CSV artifact as (key, value) pairs, in order."""
    return [tuple(line[2:].split("=", 1)) for line in out.splitlines()
            if line.startswith("# ")]


RESIDUAL = "<residual>"


@pytest.mark.parametrize("argv, want", [
    (["spectrum", *S1_FLAGS, "--method", "both"],
     [("command", "spectrum"), ("family", "hyperbolic"),
      ("params", "V0=10.0;A=-20.0;B=-30.0;kappa=1.0"), ("method", "both"),
      ("units", "atomic (hbar = m = 1)"), ("generated", None),
      ("dvr_config", '{"M": 200, "b": 10.0}'), ("dvr_max_residual", RESIDUAL),
      ("hofd_config", '{"M": 500, "k": 4}'), ("hofd_max_residual", RESIDUAL)]),
    (["spectrum", *S3_FLAGS, "--method", "both"],
     [("command", "spectrum"), ("family", "trig"),
      ("params", "V0=5.0;C=-10.0;D=2.0;a=1.0"), ("method", "both"),
      ("units", "atomic (hbar = m = 1)"), ("generated", None),
      ("dvr_config", '{"M": 300, "a": 1.0}'), ("dvr_max_residual", RESIDUAL),
      ("hofd_config", '{"M": 500, "k": 4}'), ("hofd_max_residual", RESIDUAL)]),
    (["wavefunction", *S3_FLAGS, "--states", "0", "2", "--samples", "5"],
     [("command", "wavefunction"), ("family", "trig"),
      ("params", "V0=5.0;C=-10.0;D=2.0;a=1.0"),
      ("units", "atomic (hbar = m = 1)"), ("generated", None),
      ("state_0", {"N": 0, "branch": "hyper", "nodes": 0}),
      ("state_2", {"N": 3, "branch": "hyper", "nodes": 2})]),
    (["spd", "--V0", "10", "--A-min", "-5", "--A-max", "5", "--B-min", "-5",
      "--B-max", "5", "--resolution", "3"],
     [("command", "spd"), ("V0", "10.0"), ("kappa", "1.0"),
      ("rectangle_B_max", "0.125"), ("rectangle_A_max", "10.0"),
      ("units", "atomic (hbar = m = 1)"), ("generated", None)])],
    ids=["spectrum-S1", "spectrum-S3", "wavefunction-S3", "spd"])
def test_manifest_pinned(capsys, argv, want):
    # the key order and every value that prints the same on each run and at
    # one and two BLAS threads: not the time (None), a residual's digits or
    # a state's full-precision numbers (only the fields given are checked)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    got = manifest_items(out)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, value), (_, expect) in zip(got, want):
        if expect == RESIDUAL:
            assert re.fullmatch(r"\d\.\d{3}e-\d\d", value), (key, value)
        elif isinstance(expect, dict):
            state = json.loads(value)
            assert {k: state[k] for k in expect} == expect, key
        elif expect is not None:
            assert value == expect, key


DVR_S1, DVR_S3, HOFD = ("eigh", 199), ("eigh", 299), ("shift", 500)


@pytest.mark.parametrize("flags, method, want, error", [
    (S1_FLAGS, "dvr", [DVR_S1], None),
    # with no --count, HOFD keeps as many levels as a default DVR solve finds
    (S1_FLAGS, "hofd", [DVR_S1] + [HOFD] * 3, None),
    (S1_FLAGS, "both", [DVR_S1] + [HOFD] * 3, None),
    (S2_FLAGS, "hofd", [DVR_S1] + [HOFD] * 3, None),
    (S3_FLAGS, "dvr", [DVR_S3], None),
    # the finite well's default count is HOFD's own: no DVR solve
    (S3_FLAGS, "hofd", [HOFD], None),
    (S3_FLAGS, "both", [DVR_S3, HOFD], None),
    # a grid HOFD cannot use fails before the DVR solve that counts levels
    ([*S1_FLAGS, "--grid-M", "0"], "hofd", [],
     "error: need M >= 2k + 2, got M=0, k=4\n")],
    ids=["S1-dvr", "S1-hofd", "S1-both", "S2-hofd", "S3-dvr", "S3-hofd",
         "S3-both", "S1-hofd-M0"])
def test_spectrum_solver_census(capsys, monkeypatch, flags, method, want, error):
    # one record (solver, matrix order) per eigensolve
    calls = []
    for name, tag in (("eig_symmetric", "eigh"), ("eig_shift_invert", "shift")):
        def counted(a, *args, _solve=getattr(linalg, name), _tag=tag, **kwargs):
            calls.append((_tag, a.shape[0]))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    code, out, err = run(capsys, "spectrum", *flags, "--method", method)
    assert calls == want
    if error is None:
        assert code == 0
    else:
        assert (code, out, err) == (2, "", error)


# sha256 of the header and data rows (manifest lines dropped): a new digest
# means printed numbers changed. These rows print the same at one and two
# BLAS threads. Some 12-digit hyperbolic rows do not, so of those only S2's
# HOFD column is pinned.
PINNED_BODIES = {
    "spd": (["spd", "--V0", "10", "--A-min", "-60", "--A-max", "40",
             "--B-min", "-60", "--B-max", "40", "--resolution", "200"],
            "c2d2259c30dca857f4618a78a7911a96c42763ff685b2d1e2fd8d93d7c1d9e34"),
    # 22 nodes with 0 < |A + B| <= 7.1e-15, where the cut |c3| <= 1e-13 max|c|
    # decides between B and B&R
    "spd-cut": (["spd", "--V0", "10", "--A-min", "-20", "--A-max", "20",
                 "--B-min", "-20", "--B-max", "20", "--resolution", "30"],
                "3c99929e3f256523ab5fa9a76d005b6dbda5d0890f0f41e209c6b0b86af7869e"),
    # 160 000 nodes, labelled in three bands of B rows
    "spd-bands": (["spd", "--V0", "10", "--A-min", "-60", "--A-max", "40",
                   "--B-min", "-60", "--B-max", "40", "--resolution", "400"],
                  "e897402f248ed588a1a9aa2c4defbd239f7c4986a7b502b089b524901a704c68"),
    "S3": (["spectrum", *S3_FLAGS, "--method", "both"],
           "39e963cef2890995cba65fab0df2ab2cae1d11b9f676911d686fc83884ef8627"),
    "S4": (["spectrum", *S4_FLAGS, "--method", "both"],
           "07abb644b3ae255a2f5db027af3bf38d456e6351731912180cc7464d9e9fb184"),
    "S4-hofd-M250-k3": (["spectrum", *S4_FLAGS, "--method", "hofd",
                         "--grid-M", "250", "--stencil-k", "3"],
                        "10af9514548f6b33518320e07417a93643a503cd7d64997ffc7858e1b372866d"),
    # HOFD's own finite-well count default
    "S3-hofd": (["spectrum", *S3_FLAGS, "--method", "hofd"],
                "7100b16af873de49e01975d3e17bc6442a0316ef5aead5be88c1223367b7a0a5"),
    # HOFD's level count from a default DVR solve; these 12-digit rows
    # print the same at one and two BLAS threads
    "S2-hofd": (["spectrum", *S2_FLAGS, "--method", "hofd"],
                "d5d97bacd8653f4bebeaaac821f54a13ae0bafe7ef7b920c478c5faa3cd1b6ca"),
    "wavefunction-S3": (["wavefunction", *S3_FLAGS, "--states", "0", "1", "2"],
                        "319857bf4a07b415128a7985d514190b716c12dc12bf051f0e2f31d7633f86b0"),
    "wavefunction-S4": (["wavefunction", *S4_FLAGS, "--states", "0", "1", "2"],
                        "f652b735d371881807e3bfbd77cecedb19136737fe3e6f17e08ddc9aead6a2dc"),
    # the upper finite-well states, whose series sums are the most sensitive
    # to the rounding of the recursion factors. At 500 samples one S3 cell
    # (psi_7 near a node) prints differently at one and two BLAS threads.
    "wavefunction-S3-upper": (["wavefunction", *S3_FLAGS, "--states", "6", "7",
                               "8", "9", "--samples", "1000"],
                              "8f329ffeab8dd41b57d6d26fd79ecad2e9316f97083b028d4879d0dca7036ab4"),
    "wavefunction-S4-upper": (["wavefunction", *S4_FLAGS, "--states", "6", "7",
                               "8", "9"],
                              "a6f76d0e5bf253f164632f9760c77f7fdfe71dc6ae20ed8b110969ff43e5e5ce"),
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


def _spd_rows(a_vals, b_vals, codes):
    """The `spd` rows as one f-string per node, which the writer of runs of
    equal labels replaced."""
    return "".join(f"{_fmt(a, 12)},{_fmt(b, 12)},{PHASES[k].value}\n"
                   for b, row in zip(b_vals, codes) for a, k in zip(a_vals, row))


@pytest.mark.parametrize("name", ["spd-cut", "spd"])
def test_spd_runs_match_per_node_rows(capsys, name):
    # spd-cut's rows change label near A + B = 0, the top two twice
    argv = PINNED_BODIES[name][0]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    flag = {k: float(v) for k, v in zip(argv[1::2], argv[2::2])}
    a_vals, b_vals, codes, _ = spd_grid(
        flag["--V0"], 1.0, (flag["--A-min"], flag["--A-max"]),
        (flag["--B-min"], flag["--B-max"]), int(flag["--resolution"]))
    assert (np.diff(codes, axis=1) != 0).sum(axis=1).max() >= 2
    assert body(out) == "A,B,phase\n" + _spd_rows(a_vals, b_vals, codes)


@pytest.mark.parametrize("codes", [[[3, 3, 3], [0, 0, 0]], [[0, 1, 2], [3, 2, 1]],
                                   [[1, 1, 0], [0, 2, 2]]],
                         ids=["one-run", "all-change", "ends"])
def test_spd_runs_edge_rows(capsys, monkeypatch, codes):
    # rows of one run, of one run per node, and changes at either end
    codes = np.array(codes, dtype=np.int8)
    a_vals, b_vals = np.array([-1.0, 0.0, 2.5]), np.array([-3.0, 4.0])
    monkeypatch.setattr(cli, "spd_grid", lambda *args: (
        a_vals, b_vals, codes, {"B_max": 0.125, "A_max": 10.0}))
    code, out, _ = run(capsys, *SPD_SMALL)
    assert code == 0
    assert body(out) == "A,B,phase\n" + _spd_rows(a_vals, b_vals, codes)


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
    proc = run_cli_child(argv, capture_output=True, text=True)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, err) == (0, "")
    assert without_timestamp(proc.stdout) == without_timestamp(out)
