"""In-memory spans around ptbound's public functions, and per-layer metrics.

The tracer replaces each traced function under every name it is looked up
by: in its own module and in each ptbound module that imported it with
`from ... import`. A call then records (name, layer, parent, start, end,
work). A layer's self time is its spans' duration minus their direct child
spans. Nothing is installed unless a traced round asks for it, and
`uninstall` restores the original objects.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# function -> layer, per module. A name missing from the program (renamed or
# removed by a later change) is skipped, and its counters read 0.
LAYERS = {
    "cli": {"main": "cli"},
    "potentials": {"eval_hyperbolic": "potentials.eval",
                   "eval_trig": "potentials.eval",
                   "classify_phase": "potentials.classify",
                   "spd_grid": "potentials.classify"},
    "dvr": {"kinetic_semiinfinite": "dvr.kinetic", "kinetic_box": "dvr.kinetic",
            "grid_semiinfinite": "dvr", "grid_box": "dvr", "hamiltonian": "dvr",
            "solve_spectrum": "dvr", "hyperbolic_spectrum": "dvr",
            "trig_spectrum": "dvr"},
    "hofd": {"delta_matrices": "hofd.stencil",
             "hyperbolic_operator": "hofd.operator",
             "box_operator": "hofd.operator", "hofd_spectrum": "hofd"},
    "linalg": {"eig_symmetric": "linalg.eigh", "eig_general": "linalg.eig",
               "solve_linear": "linalg.solve"},
    "tra": {"assemble_solution": "tra.assemble", "eval_wavefunction": "tra.eval"},
    "orthopoly": {name: "orthopoly" for name in (
        "_q_forward", "tra_poly_coeffs", "g_factor", "jacobi_q",
        "jacobi_q_oracle", "jacobi_q_derivative", "jacobi_q_norm")},
}


def _matrix_order(args, kwargs, result):
    a = args[0] if args else next(iter(kwargs.values()))
    return a.shape[0]


def _levels_kept(args, kwargs, result):
    return len(result.eigenvalues)


def _points(args, kwargs, result):
    return len(result[0])


# Work recorded in a span, by qualified name.
WORK = {
    "linalg.eig_symmetric": _matrix_order,
    "linalg.eig_general": _matrix_order,
    "dvr.hyperbolic_spectrum": _levels_kept,
    "dvr.trig_spectrum": _levels_kept,
    "hofd.hofd_spectrum": _levels_kept,
    "tra.eval_wavefunction": _points,
}

PER_LAYER = [
    ("cli.self_s", "s"),
    ("potentials.eval_s", "s"), ("potentials.eval_calls", "count"),
    ("potentials.classify_s", "s"), ("potentials.classify_calls", "count"),
    ("dvr.kinetic_s", "s"), ("dvr.self_s", "s"), ("dvr.eigs_kept_ratio", "ratio"),
    ("hofd.stencil_s", "s"), ("hofd.stencil_builds", "count"),
    ("hofd.operator_s", "s"), ("hofd.operator_builds", "count"),
    ("hofd.self_s", "s"), ("hofd.eigs_kept_ratio", "ratio"),
    ("linalg.eigh_s", "s"), ("linalg.eigh_calls", "count"),
    ("linalg.eig_s", "s"), ("linalg.eig_calls", "count"),
    ("linalg.eig_n3", "count"),
    ("linalg.solve_s", "s"), ("linalg.solve_calls", "count"),
    ("tra.assemble_s", "s"), ("tra.assemble_calls", "count"),
    ("tra.eval_s", "s"), ("tra.eval_points", "count"),
    ("orthopoly.s", "s"), ("orthopoly.calls", "count"),
]


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, qualname: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                amount = work(args, kwargs, result) if work and result is not None else 0
                spans[idx] = (qualname, layer, parent, t0, t1, amount)
        return traced

    def install(self) -> None:
        """Wrap every traced function under every name ptbound looks it up by."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "ptbound"]
        for short, functions in LAYERS.items():
            home = sys.modules.get(f"ptbound.{short}")
            if home is None:
                continue
            for name, layer in functions.items():
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{short}.{name}", layer, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """The spans recorded so far; starts a new list."""
        spans = self.spans
        self.spans = []
        return spans


def layer_metrics(spans: list[tuple], scale: list[float]) -> dict[str, float]:
    """Per-layer metrics of one round's spans (see PER_LAYER).

    scale[k] multiplies the times under the k-th root span (the k-th CLI
    call of the round), to put them at the reference host speed.
    """
    child = [0.0] * len(spans)
    factor = [1.0] * len(spans)
    roots = 0
    for i, (name, layer, parent, t0, t1, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            factor[i] = factor[parent]
        else:
            factor[i] = scale[roots] if roots < len(scale) else 1.0
            roots += 1
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    entries = 0
    for i, (name, layer, parent, t0, t1, amount) in enumerate(spans):
        self_s[layer] = (self_s.get(layer, 0.0)
                         + ((t1 - t0) - child[i]) * factor[i])
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + amount
        if layer == "orthopoly" and (parent < 0 or spans[parent][1] != "orthopoly"):
            entries += 1

    def under(i: int, layer: str) -> bool:
        parent = spans[i][2]
        while parent >= 0:
            if spans[parent][1] == layer:
                return True
            parent = spans[parent][2]
        return False

    computed = {"dvr": 0, "hofd": 0}
    n3 = 0
    for i, (name, layer, parent, t0, t1, amount) in enumerate(spans):
        if layer in ("linalg.eigh", "linalg.eig"):
            n3 += amount**3
            for owner in computed:
                if under(i, owner):
                    computed[owner] += amount

    def ratio(kept: float, total: int) -> float:
        return kept / total if total else 0.0

    def count(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    return {
        "cli.self_s": self_s.get("cli", 0.0),
        "potentials.eval_s": self_s.get("potentials.eval", 0.0),
        "potentials.eval_calls": count("potentials.eval_hyperbolic",
                                       "potentials.eval_trig"),
        "potentials.classify_s": self_s.get("potentials.classify", 0.0),
        "potentials.classify_calls": count("potentials.classify_phase"),
        "dvr.kinetic_s": self_s.get("dvr.kinetic", 0.0),
        "dvr.self_s": self_s.get("dvr", 0.0),
        "dvr.eigs_kept_ratio": ratio(work.get("dvr.hyperbolic_spectrum", 0)
                                     + work.get("dvr.trig_spectrum", 0),
                                     computed["dvr"]),
        "hofd.stencil_s": self_s.get("hofd.stencil", 0.0),
        "hofd.stencil_builds": count("hofd.delta_matrices"),
        "hofd.operator_s": self_s.get("hofd.operator", 0.0),
        "hofd.operator_builds": count("hofd.hyperbolic_operator",
                                      "hofd.box_operator"),
        "hofd.self_s": self_s.get("hofd", 0.0),
        "hofd.eigs_kept_ratio": ratio(work.get("hofd.hofd_spectrum", 0),
                                      computed["hofd"]),
        "linalg.eigh_s": self_s.get("linalg.eigh", 0.0),
        "linalg.eigh_calls": count("linalg.eig_symmetric"),
        "linalg.eig_s": self_s.get("linalg.eig", 0.0),
        "linalg.eig_calls": count("linalg.eig_general"),
        "linalg.eig_n3": n3,
        "linalg.solve_s": self_s.get("linalg.solve", 0.0),
        "linalg.solve_calls": count("linalg.solve_linear"),
        "tra.assemble_s": self_s.get("tra.assemble", 0.0),
        "tra.assemble_calls": count("tra.assemble_solution"),
        "tra.eval_s": self_s.get("tra.eval", 0.0),
        "tra.eval_points": work.get("tra.eval_wavefunction", 0),
        "orthopoly.s": self_s.get("orthopoly", 0.0),
        "orthopoly.calls": entries,
    }


def write_spans(path: str, header: dict, spans: list[tuple]) -> None:
    """One JSON line of run facts, then one JSON array per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, (name, layer, parent, t0, t1, amount) in enumerate(spans):
            fh.write(json.dumps([i, parent, name, layer, t0, t1, amount]) + "\n")
