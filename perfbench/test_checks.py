"""Each of the benchmark's checks accepts a right output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math

import numpy as np
import pytest

import checks
from checks import CheckError

S1 = checks.HYPERBOLIC_SETS["S1"]
S3 = checks.TRIG_SETS["S3"]


def _fmt(x, digits=12):
    return f"{x:.{digits - 1}e}"


# ------------------------------------------------------------ phase diagram

def _spd_text(V0, a_range, b_range, res, flip=None):
    lines = ["# command=spd", "A,B,phase"]
    for i, b in enumerate(np.linspace(*b_range, res)):
        for j, a in enumerate(np.linspace(*a_range, res)):
            label = checks.reclassify(V0, a, b)
            if flip == (i, j):
                label = "B" if label != "B" else "S"
            lines.append(f"{_fmt(a)},{_fmt(b)},{label}")
    return "\n".join(lines) + "\n"


def test_phase_grid_accepts_the_reclassification():
    checks.check_phase_grid(10.0, (-60.0, 40.0), (-60.0, 40.0), 12,
                            _spd_text(10.0, (-60.0, 40.0), (-60.0, 40.0), 12))


def test_phase_grid_rejects_a_flipped_label():
    text = _spd_text(10.0, (-60.0, 40.0), (-60.0, 40.0), 12, flip=(2, 3))
    with pytest.raises(CheckError, match="disagree"):
        checks.check_phase_grid(10.0, (-60.0, 40.0), (-60.0, 40.0), 12, text)


def test_phase_grid_rejects_a_bound_label_in_the_positive_quadrant():
    text = _spd_text(10.0, (-60.0, 40.0), (-60.0, 40.0), 12, flip=(11, 11))
    with pytest.raises(CheckError, match="must be S"):
        checks.check_phase_grid(10.0, (-60.0, 40.0), (-60.0, 40.0), 12, text)


def test_phase_grid_rejects_a_missing_point():
    text = _spd_text(10.0, (-60.0, 40.0), (-60.0, 40.0), 12).rstrip("\n")
    text = text[:text.rindex("\n")] + "\n"
    with pytest.raises(CheckError, match="points"):
        checks.check_phase_grid(10.0, (-60.0, 40.0), (-60.0, 40.0), 12, text)


def test_reclassify_names_each_phase():
    # S1 has a single deep well; a repulsive core alone scatters.
    assert checks.reclassify(10.0, -20.0, -30.0) == "B"
    assert checks.reclassify(10.0, 5.0, 5.0) == "S"
    labels = {checks.reclassify(10.0, a, b)
              for a in np.linspace(-60, 40, 60) for b in np.linspace(-60, 40, 60)}
    assert labels == {"B", "B&R", "R", "S"}


# ------------------------------------------------------------- convergence

def _floor(e):
    return checks.roundoff("hyperbolic", e)


def test_ladder_accepts_shrinking_differences():
    checks.check_ladder([[-17.2927960814], [-17.2927926034],
                         [-17.2927925678], [-17.2927925686]], _floor)


def test_ladder_accepts_differences_at_roundoff():
    checks.check_ladder([[-15.992869980427], [-15.992869980424],
                         [-15.992869980397]], _floor)


def test_ladder_rejects_a_diverging_ladder():
    with pytest.raises(CheckError, match="does not converge"):
        checks.check_ladder([[1.0], [1.1], [1.3], [1.7]], _floor)


def test_ladder_rejects_a_changing_level_count():
    with pytest.raises(CheckError, match="level counts"):
        checks.check_ladder([[-1.0, -0.1], [-1.0]], _floor)


def test_finest_rungs_must_agree():
    checks.check_finest_agree("hyperbolic", [-0.888027616842], [-0.888027616839])
    with pytest.raises(CheckError, match="disagree"):
        checks.check_finest_agree("hyperbolic", [-0.1071987], [-0.1074088])


# ----------------------------------------------------------------- spectra

def test_published_table_accepts_the_cli_values():
    checks.check_published("S1", {
        "dvr": [-17.2927925686, -6.1372017421, -0.888027613575],
        "hofd": [-17.2927925686, -6.13720174211, -0.888027616857]})


def test_published_table_rejects_a_moved_level():
    with pytest.raises(CheckError, match="published"):
        checks.check_published("S1", {
            "dvr": [-17.2927925686, -6.1372017421, -0.888037613575],
            "hofd": [-17.2927925686, -6.13720174211, -0.888027616857]})


def test_published_table_rejects_a_missing_level():
    with pytest.raises(CheckError, match="expected 3 levels"):
        checks.check_published("S1", {
            "dvr": [-17.2927925686, -6.1372017421],
            "hofd": [-17.2927925686, -6.13720174211, -0.888027616857]})


def test_cross_solver_rejects_the_shallow_level_fault():
    checks.check_cross_solver("hyperbolic", {"dvr": [-0.888027613575],
                                             "hofd": [-0.888027616857]})
    with pytest.raises(CheckError, match="DVR"):
        checks.check_cross_solver("hyperbolic", {"dvr": [-0.107198740473],
                                                 "hofd": [-0.107408800910]})


def test_cross_solver_rejects_an_empty_table():
    with pytest.raises(CheckError, match="at least one level"):
        checks.check_cross_solver("hyperbolic", {"dvr": [], "hofd": []})


def test_verify_rejects_a_failure():
    lines = [f"[PASS] line {i}" for i in range(53)]
    checks.check_verify(0, "\n".join(lines + ["verify: ALL PASS"]))
    with pytest.raises(CheckError):
        checks.check_verify(1, "\n".join(lines + ["verify: FAILURES PRESENT"]))


# ------------------------------------------------------------ wavefunction

def _wavefunction_text(family, params, energies, states, samples=5,
                       tamper=None, psi=1.0):
    lines = ["# command=wavefunction"]
    for m in states:
        record = checks.series_closed_form(family, params, energies[m])
        record = {"E": energies[m], "mu": record["mu"], "nu": record["nu"],
                  "N": record["N"], "branch": "hyper",
                  "coeffs": [1.0] * (record["N"] + 1)}
        if tamper:
            record[tamper[0]] = tamper[1](record[tamper[0]])
        lines.append(f"# state_{m}={json.dumps(record)}")
    lines.append(",".join(["kappa*x"] + [f"psi_{m}" for m in states]))
    for i in range(samples):
        lines.append(",".join([_fmt(0.1 * (i + 1))] + [_fmt(psi)] * len(states)))
    return "\n".join(lines) + "\n"


S1_LEVELS = [-17.292792568552, -6.137201742096, -0.888027613576]


def test_series_closed_form_of_s1():
    # nu = -sqrt(1/4 + 60); the ground state admits one term, n = 2 three.
    assert [checks.series_closed_form("hyperbolic", S1, e)["N"]
            for e in S1_LEVELS] == [0, 1, 2]
    assert math.isclose(checks.series_closed_form("hyperbolic", S1, 0.0 - 2.0)["mu"], 2.0)
    assert all(checks.series_admits("hyperbolic", S1, e) for e in S1_LEVELS)
    assert not checks.series_admits("hyperbolic", dict(S1, A=20.0), -1.0)
    assert checks.series_admits("trig", S3, 16.797026)


def test_wavefunction_accepts_the_closed_forms():
    checks.check_wavefunction("hyperbolic", S1, [0, 1, 2], S1_LEVELS,
                              _wavefunction_text("hyperbolic", S1, S1_LEVELS, [0, 1, 2]), 5)


def test_wavefunction_rejects_a_wrong_mu():
    text = _wavefunction_text("hyperbolic", S1, S1_LEVELS, [0, 1, 2],
                              tamper=("mu", lambda mu: mu * 1.001))
    with pytest.raises(CheckError, match="mu="):
        checks.check_wavefunction("hyperbolic", S1, [0, 1, 2], S1_LEVELS, text, 5)


def test_wavefunction_rejects_a_wrong_truncation():
    text = _wavefunction_text("hyperbolic", S1, S1_LEVELS, [2],
                              tamper=("N", lambda n: n + 1))
    with pytest.raises(CheckError, match="N="):
        checks.check_wavefunction("hyperbolic", S1, [2], S1_LEVELS, text, 5)


def test_wavefunction_rejects_a_non_finite_sample():
    text = _wavefunction_text("hyperbolic", S1, S1_LEVELS, [1], psi=math.nan)
    with pytest.raises(CheckError, match="non-finite"):
        checks.check_wavefunction("hyperbolic", S1, [1], S1_LEVELS, text, 5)
