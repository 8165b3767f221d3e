"""Reference parameter sets, published spectra and their tolerances, used
by the verify command.

The four shipped parameter sets exercise both potential families and both
series branches. The reference eigenvalues are the published benchmark
values for these sets, one column per solver method. The limits table's
truth is a closed form, which neither solver produced.
"""

import math

from .potentials import HyperbolicParams, TrigParams

HYPERBOLIC_SETS = {
    "S1": HyperbolicParams(V0=10.0, A=-20.0, B=-30.0, kappa=1.0),
    "S2": HyperbolicParams(V0=5.0, A=2.0, B=-60.0, kappa=1.0),
}

TRIG_SETS = {
    "S3": TrigParams(V0=5.0, C=-10.0, D=2.0, a=1.0),
    "S4": TrigParams(V0=5.0, C=-2.0, D=2.0, a=1.0),
}

# Complete bound spectrum of the hyperbolic sets (atomic units)
HYPERBOLIC_REFERENCE = {
    "S1": {
        "DVR": (-17.292792568552, -6.137201742096, -0.888027613576),
        "HOFD": (-17.292792568575, -6.137201742113, -0.888027616853),
    },
    "S2": {
        "DVR": (-15.992869980420, -6.101528843700, -1.000393053814),
        "HOFD": (-15.992869980437, -6.101528843717, -1.000393054957),
    },
}

# Lowest ten levels of the trigonometric sets (atomic units)
TRIG_REFERENCE = {
    "S3": {
        "DVR": (16.797026, 53.186883, 103.396936, 166.730521, 242.759201,
                331.187625, 431.796715, 544.415737, 668.906827, 805.155660),
        "HOFD": (16.797032, 53.186917, 103.397040, 166.730761, 242.759670,
                 331.188444, 431.798037, 544.417750, 668.909756, 805.159769),
    },
    "S4": {
        "DVR": (29.961374, 68.685118, 120.819954, 185.823763, 263.346993,
                353.139727, 455.011712, 568.811809, 694.416181, 831.720941),
        "HOFD": (29.961382, 68.685159, 120.820074, 185.824031, 263.347504,
                 353.140605, 455.013113, 568.813926, 694.419241, 831.725211),
    },
}

# A finite well near V0 = 0, the conventional Poschl-Teller well (Cooper,
# Khare & Sukhatme, Phys. Rep. 251 (1995) 267, Table 4.1), with
# D = rho^2 k(k-1)/2 and C = rho^2 l(l-1)/2, k = l = 3, a = 1
_RHO = math.pi / 2.0
LIMIT_SETS = {
    "L1": TrigParams(V0=1e-12, C=3.0 * _RHO**2, D=3.0 * _RHO**2, a=1.0),
}

# Lowest ten levels at V0 = 0: E_n = (rho^2/2)(k + l + 2n)^2
_L1_LEVELS = tuple(_RHO**2 / 2.0 * (6 + 2 * n) ** 2 for n in range(10))
LIMIT_REFERENCE = {"L1": {"DVR": _L1_LEVELS, "HOFD": _L1_LEVELS}}

# verify's tables: name -> (parameter sets, reference spectra)
TABLES = {
    "table1": (HYPERBOLIC_SETS, HYPERBOLIC_REFERENCE),
    "table2": (TRIG_SETS, TRIG_REFERENCE),
    "limits": (LIMIT_SETS, LIMIT_REFERENCE),
}


def tolerance(table: str, method: str, n: int) -> float:
    """Allowed |computed - published| for level n of a table's method column."""
    if table == "table1":
        return 1e-7 if method == "HOFD" else 1e-6 if n == 2 else 1e-8
    if table == "limits":
        return 1e-8
    return 1e-4 if n <= 4 else 1e-3
