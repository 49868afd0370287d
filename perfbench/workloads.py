"""The four workloads: seeded inputs, one op each, and the checks on it.

A workload turns ``(seed, index)`` into the inputs of op ``index``
(``spec``), runs the op through the public API (``run``, the timed part)
and checks its output (``check``, untimed).  Op ``index`` draws from its
own generator, so the same seed gives the same inputs whatever ran
before.  Kinds are taken round-robin, so every run has the same mix.

Checks use the acceptance criteria's own tolerances and windows
(``tests/test_acceptance.py``, criteria 01-10) and, where cheap,
independent numpy oracles rather than the package itself.

An op *fails* when it raises, when the CLI dies with a traceback, or when
a check finds a wrong result.  Only the last makes a run incorrect: a
crash is a failure to answer, not a wrong answer.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lorentz2d import analysis, charts, curvature, expressions, families, jets
from lorentz2d.analysis import DOMAIN_ERROR, OUTSIDE, VALID

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Tolerances and windows of the acceptance criteria.
JET_TOL = 1e-9            # criteria 02, 03: one-variable and explicit factors
FLAT_TOL = 1e-8           # criteria 05, 06: flat factors
GENERAL_TOL = 1e-6        # criterion 07: random Liouville draws
FD_TOL = 1e-5             # criteria 03, 09: jet against FD oracle
EINSTEIN_TOL = 1e-10      # criterion 08
VALUE_TOL = 1e-12         # criteria 02, 05: values against closed forms
LEVEL_RESIDUAL = 1e-2     # criterion 10
DENOM_EXCLUSION = 0.05    # |D| window of the general family
OMEGA_FLOOR, OMEGA_CEILING = 1e-3, 1e6   # factor-value conditioning window
DESITTER_T_WINDOW = 1.5   # criterion 02 checks sec^2 values on |t| < 1.5
LIOUVILLE_FD_DENOM = 0.5
LIOUVILLE_FD_STEP = 2e-3
LIOUVILLE_QUADRATURE_TOL = 1e-12

README_R2 = "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)"
README_R2_NULL = "exp(u+v) * (exp(u) - (1/4)*exp(v))^(-2)"
DIAGRAM_LEVELS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)   # CLI default

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


@dataclass
class Verdict:
    items: int
    problems: list
    crashed: bool = False


class Workload:
    name = ""
    item = ""
    kinds: tuple = ()
    # op_tail_ms is read at this percentile.  Each workload's is set so that
    # a 27 s run on the 2-vCPU VM the benchmark was tuned on leaves at least
    # ten ops beyond it in slow host phases too.
    tail_percentile = 90

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def spec(self, index: int) -> dict:
        rng = np.random.default_rng([self.seed, index])
        spec = self._spec(self.kinds[index % len(self.kinds)], rng, index)
        spec["index"] = index
        return spec

    def rotated(self, values: tuple, index: int):
        """The value op ``index`` takes when each round gives its kinds one
        value each, shifted by one from round to round."""
        rotation = index % len(self.kinds) + index // len(self.kinds)
        return values[rotation % len(values)]

    def scaled(self, base: int, smallest: int = 4) -> int:
        return max(smallest, round(base * self.scale))

    def _spec(self, kind, rng, index) -> dict:
        raise NotImplementedError

    def run(self, spec: dict, tr):
        raise NotImplementedError

    def check(self, spec: dict, out) -> Verdict:
        raise NotImplementedError


def _sample(tr, factor, domain, side: int, kind: str, with_ricci: bool):
    with tr.span("analysis.sample_grid", kind=kind,
                 mode="jet" if with_ricci else "value") as attrs:
        grid = analysis.sample_grid(factor, domain, (side, side), with_ricci=with_ricci)
        attrs.update(cells=grid.n_sampled, valid=grid.n_valid,
                     singular=grid.n_singular, domain_error=grid.n_domain_error,
                     outside=grid.count(OUTSIDE))
    return grid


def _mesh(grid):
    return np.meshgrid(grid.ts, grid.xs, indexing="ij")


def _diamond_mask(t, x, half_width=math.pi):
    return (np.abs(x) < half_width) & (np.abs(t) < half_width - np.abs(x))


def _jitter(rng, box, amount):
    return tuple(float(v + rng.uniform(-amount, amount)) for v in box)


def _flat_envelope(rng) -> str:
    """Criterion 06's envelope: exp of a bounded random cubic or trig sum."""
    if rng.integers(0, 2) == 0:
        c = rng.uniform(-0.2, 0.2, size=4)
        inner = (f"({c[0]:.6f}) + ({c[1]:.6f})*l + "
                 f"({c[2]:.6f})*l^2 + ({c[3]:.6f})*l^3")
    else:
        a, b, c = rng.uniform(-0.2, 0.2, size=3)
        inner = f"({a:.6f})*sin(l) + ({b:.6f})*cos(l) + ({c:.6f})*l"
    return f"exp({inner})"


# ---------------------------------------------------------------------------
# verify_grid

class VerifyGrid(Workload):
    name = "verify_grid"
    item = "cells"
    tail_percentile = 85
    kinds = ("readme_r2", "readme_r2_null", "sec2_overhang", "sech2",
             "flat_random", "compact_unit")
    # Lattice side per kind, chosen so that every kind costs about the same
    # per op, so that no kind sets the median or the tail on its own.
    SIDES = {"readme_r2": 80, "readme_r2_null": 90, "sec2_overhang": 155,
             "sech2": 135, "flat_random": 60, "compact_unit": 128}
    # Cell-count factors, one per kind in each round and rotated from round
    # to round, so that every round does the same work while op costs
    # spread over +-30% instead of forming clusters whose median would jump
    # from one cluster to the next.
    CELL_FACTORS = (0.7, 0.82, 0.94, 1.06, 1.18, 1.3)

    def _spec(self, kind, rng, index):
        factor = self.rotated(self.CELL_FACTORS, index)
        spec = {"kind": kind, "side": self.scaled(self.SIDES[kind] * math.sqrt(factor))}
        if kind in ("readme_r2", "readme_r2_null"):
            spec.update(source=README_R2 if kind == "readme_r2" else README_R2_NULL,
                        box=_jitter(rng, (-1, 1, -1, 1), 0.1), target=2.0,
                        tol=JET_TOL)
        elif kind == "sec2_overhang":
            # t spans (-2, 2), past the pole-free strip |t + shift| < pi/2
            spec.update(shift=float(rng.uniform(-0.2, 0.2)),
                        box=(-2.0, 2.0) + _jitter(rng, (0, 6), 1.0), target=2.0,
                        tol=JET_TOL)
        elif kind == "sech2":
            spec.update(shift=float(rng.uniform(-0.5, 0.5)),
                        target=float(rng.choice([1.0, 2.0])),
                        box=_jitter(rng, (-1, 1, -2, 2), 0.1), tol=JET_TOL)
        elif kind == "flat_random":
            spec.update(phi=_flat_envelope(rng), psi=_flat_envelope(rng),
                        box=_jitter(rng, (-1, 1, -1, 1), 0.1), target=0.0,
                        tol=FLAT_TOL)
        else:
            spec.update(target=0.0, tol=FLAT_TOL)
        spec["expect_R"] = spec["target"]   # what the check holds R to
        return spec

    def run(self, spec, tr):
        kind = spec["kind"]
        target = spec["target"]
        parse = expressions.parse
        if "source" in spec:
            tree = tr.call("expressions.parse", parse, spec["source"])
            factor = tr.call("families.factory", families.factor_from_expression,
                             tree, claimed_curvature=target)
        elif kind == "sec2_overhang":
            factor = tr.call("families.factory", families.timelike_factor,
                             -4.0, spec["shift"], target)
        elif kind == "sech2":
            factor = tr.call("families.factory", families.spacelike_factor,
                             4.0, spec["shift"], target)
        elif kind == "flat_random":
            phi = tr.call("expressions.parse", parse, spec["phi"])
            psi = tr.call("expressions.parse", parse, spec["psi"])
            factor = tr.call("families.factory", families.flat_factor, phi, psi)
        else:
            one = tr.call("expressions.parse", parse, "1")
            flat = tr.call("families.factory", families.flat_factor, one, one)
            factor = tr.call("charts.compactify", charts.compactify, flat)
        domain = charts.Rectangle(*spec["box"]) if "box" in spec else None
        grid = _sample(tr, factor, domain, spec["side"], kind, with_ricci=True)
        report = tr.call("analysis.constancy_report", analysis.constancy_report,
                         grid, target, spec["tol"])
        with tr.span("analysis.export.json") as attrs:
            text = analysis.report_to_json(report)
            attrs["bytes"] = len(text.encode())
        return grid, text

    def check(self, spec, out):
        grid, text = out
        kind, target, tol = spec["kind"], spec["target"], spec["tol"]
        t, x = _mesh(grid)
        status = grid.status
        valid = status == VALID
        problems = []
        inside = (_diamond_mask(t, x) if kind == "compact_unit"
                  else np.ones(status.shape, dtype=bool))
        if not np.array_equal(status != OUTSIDE, inside):
            problems.append("outside cells misclassified")
        if kind == "sec2_overhang":
            shifted = t + spec["shift"]
            if not np.array_equal(status == DOMAIN_ERROR,
                                  np.abs(shifted) >= 0.5 * math.pi):
                problems.append("cells off the sec^2 strip misclassified")
            near = valid & (np.abs(shifted) < DESITTER_T_WINDOW)
            dev = np.max(np.abs(grid.omega[near] - 1.0 / np.cos(shifted[near]) ** 2),
                         initial=0.0)
            if not dev <= VALUE_TOL:
                problems.append(f"max|factor - sec^2| = {dev:.3e} > {VALUE_TOL}")
        if kind == "compact_unit":
            cu, cv = np.cos(0.5 * (x + t)), np.cos(0.5 * (x - t))
            closed = 0.25 / (cu * cu * cv * cv)
            scale = np.maximum(1.0, np.maximum(np.abs(closed), np.abs(grid.omega)))
            dev = np.max((np.abs(grid.omega - closed) / scale)[valid], initial=0.0)
            if not dev <= VALUE_TOL:
                problems.append(f"rel|factor - half-angle form| = {dev:.3e}")
        window = valid & (grid.omega >= OMEGA_FLOOR) & (grid.omega <= OMEGA_CEILING)
        if "source" in spec:
            if kind == "readme_r2":
                denom = np.exp(x + t) - 0.25 * np.exp(x - t)
            else:   # null chart: the lattice coordinates are (u, v)
                denom = np.exp(t) - 0.25 * np.exp(x)
            window &= np.abs(denom) > DENOM_EXCLUSION
        if np.count_nonzero(window) < 0.5 * np.count_nonzero(valid):
            problems.append("check window holds under half the valid cells")
        expect_r = spec["expect_R"]
        dev = float(np.max(np.abs(grid.ricci[window] - expect_r), initial=0.0))
        if not dev <= tol:
            problems.append(f"{kind}: max|R - {expect_r}| = {dev:.3e} > {tol}")
        payload = json.loads(text)
        expected = {"n_valid": grid.n_valid, "n_singular": grid.n_singular,
                    "n_domain_error": grid.n_domain_error, "target_R": target}
        for key, value in expected.items():
            if payload[key] != value:
                problems.append(f"report {key} = {payload[key]!r}, expected {value!r}")
        if payload["pass"] != (payload["max_abs_deviation"] <= tol):
            problems.append("report pass flag disagrees with its deviation")
        if not payload["max_abs_deviation"] >= dev:
            problems.append("report deviation below the windowed deviation")
        return Verdict(grid.n_sampled, problems)


# ---------------------------------------------------------------------------
# diagram

class Diagram(Workload):
    name = "diagram"
    item = "cells"
    tail_percentile = 70
    kinds = ("classic_flat_values", "compact_flat_values", "compact_liouville_values")
    # Lattice sides, one per kind in each round and rotated from round to
    # round, as in verify_grid: every round samples about 3 x 200^2 cells,
    # while op costs spread out instead of forming three clusters whose
    # median would jump from one to the next.
    SIDES = (180, 200, 220)

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = np.random.default_rng([seed, 0, 0])   # apart from every op's [seed, index]
        self.k = float(rng.uniform(0.8, 1.25))
        self.box = _jitter(rng, (-3, 3, -3, 3), 0.2)
        flat = families.flat_factor("1", "1")
        general = families.liouville_factor("l", "l", k=self.k, C=0.0, target=2.0,
                                            raw_antiderivative=True)
        self.factors = {
            "classic_flat_values": (flat, charts.Rectangle(*self.box)),
            "compact_flat_values": (charts.compactify(flat), None),
            "compact_liouville_values": (charts.compactify(general), None),
        }

    def _spec(self, kind, rng, index):
        return {"kind": kind, "side": self.scaled(self.rotated(self.SIDES, index))}

    def run(self, spec, tr):
        kind, side = spec["kind"], spec["side"]
        factor, domain = self.factors[kind]
        grid = _sample(tr, factor, domain, side, kind, with_ricci=False)
        with tr.span("analysis.extract_level_sets", cells=side * side) as attrs:
            sets = analysis.extract_level_sets(grid, DIAGRAM_LEVELS)
            attrs["polylines"] = sum(len(s.polylines) for s in sets)
            attrs["vertices"] = sum(len(p) for s in sets for p in s.polylines)
        paths = {}
        for fmt in ("svg", "csv"):
            with tr.span(f"analysis.export.{fmt}") as attrs:
                paths[fmt] = analysis.export(sets, fmt, OUT / f"diagram-{kind}.{fmt}")
                attrs["bytes"] = paths[fmt].stat().st_size
        return grid, sets, paths

    def interval(self, kind, t, x):
        """s^2 = Omega (x^2 - t^2) from numpy closed forms of the three factors."""
        if kind == "classic_flat_values":
            return x * x - t * t
        hu, hv = 0.5 * (x + t), 0.5 * (x - t)
        jac = 0.25 / (np.cos(hu) ** 2 * np.cos(hv) ** 2)
        if kind == "compact_flat_values":
            return jac * (x * x - t * t)
        eu, ev = np.exp(np.tan(hu)), np.exp(np.tan(hv))
        denom = self.k * eu - (2.0 / (8.0 * self.k)) * ev
        return eu * ev / denom ** 2 * jac * (x * x - t * t)

    def check(self, spec, out):
        grid, sets, paths = out
        kind = spec["kind"]
        t, x = _mesh(grid)
        problems = []
        inside = (np.ones(grid.status.shape, dtype=bool) if kind == "classic_flat_values"
                  else _diamond_mask(t, x))
        if not np.array_equal(grid.status != OUTSIDE, inside):
            problems.append("outside cells misclassified")
        n_vertices = 0
        for level_set in sets:
            if not level_set.polylines:
                problems.append(f"no polylines at level {level_set.level}")
                continue
            pts = np.array([p for poly in level_set.polylines for p in poly])
            n_vertices += len(pts)
            worst = float(np.max(np.abs(self.interval(kind, pts[:, 0], pts[:, 1])
                                        - level_set.level)))
            if not worst <= LEVEL_RESIDUAL:
                problems.append(f"level {level_set.level}: residual {worst:.3e}")
        svg = paths["svg"].read_text()
        if not svg.startswith("<svg") or 'data-level="1.0"' not in svg:
            problems.append("SVG lacks its header or the level-1 paths")
        rows = paths["csv"].read_text().splitlines()
        if rows[0] != "level,polyline,t,x" or len(rows) - 1 != n_vertices:
            problems.append(f"CSV has {len(rows) - 1} rows for {n_vertices} vertices")
        return Verdict(grid.n_sampled, problems)


# ---------------------------------------------------------------------------
# liouville_points

def _liouville_source(rng):
    """Criterion 07's phi/psi draw, as (source text, numpy function)."""
    if rng.integers(0, 2) == 0:
        c = [float(f"{v:.6f}") for v in rng.uniform(-0.15, 0.15, size=4)]
        text = f"({c[0]:.6f}) + ({c[1]:.6f})*l + ({c[2]:.6f})*l^2 + ({c[3]:.6f})*l^3"
        return text, lambda s: c[0] + c[1] * s + c[2] * s ** 2 + c[3] * s ** 3
    a, b = (float(f"{v:.6f}") for v in rng.uniform(-0.15, 0.15, size=2))
    return f"({a:.6f})*sin(l) + ({b:.6f})*cos(l)", lambda s: a * np.sin(s) + b * np.cos(s)


def _antiderivative(fn, s):
    """integral_0^s exp(fn) by 40-point Gauss-Legendre, vectorised over s."""
    nodes = 0.5 * s[:, None] * (_GL_NODES + 1.0)
    return 0.5 * s * (np.exp(fn(nodes)) @ _GL_WEIGHTS)


class LiouvillePoints(Workload):
    name = "liouville_points"
    item = "points"
    tail_percentile = 95
    kinds = ("liouville",)
    POINTS = 100
    ORACLE_EVERY = 10

    def _spec(self, kind, rng, index):
        n_points = self.scaled(self.POINTS)
        while True:
            (phi, phi_fn), (psi, psi_fn) = _liouville_source(rng), _liouville_source(rng)
            k = float(rng.uniform(0.5, 2.0))
            shift = float(rng.uniform(-1.0, 1.0))
            target = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
            cand = rng.uniform(-1.0, 1.0, size=(40 * n_points, 2))
            u, v = cand[:, 1] + cand[:, 0], cand[:, 1] - cand[:, 0]
            denom = (k * _antiderivative(phi_fn, u)
                     - target / (8.0 * k) * _antiderivative(psi_fn, v) + shift)
            keep = cand[np.abs(denom) >= LIOUVILLE_FD_DENOM][:n_points]
            if len(keep) == n_points:
                break
        return {"kind": kind, "phi": phi, "psi": psi, "k": k, "C": shift,
                "target": target, "points": [tuple(map(float, p)) for p in keep]}

    def run(self, spec, tr):
        phi = tr.call("expressions.parse", expressions.parse, spec["phi"])
        psi = tr.call("expressions.parse", expressions.parse, spec["psi"])
        factor = tr.call("families.factory", families.liouville_factor, phi, psi,
                         k=spec["k"], C=spec["C"], target=spec["target"],
                         quadrature_tol=LIOUVILLE_QUADRATURE_TOL)

        def log_jet(a, b):
            w = tr.call("families.jet", factor.jet, a, b)
            return tr.call("jets.apply_elementary", jets.apply_elementary, "log", w)

        rows = []
        for i, point in enumerate(spec["points"]):
            value = tr.call("families.value", factor.value, *point)
            w = tr.call("families.jet", factor.jet, *point)
            r = tr.call("curvature.scalar_from_factor_jet",
                        curvature.scalar_from_factor_jet, w, "tx")
            fd = einstein = None
            if i % self.ORACLE_EVERY == 0:
                fd = tr.call("curvature.fd_ricci_oracle", curvature.fd_ricci_oracle,
                             factor, point, h=LIOUVILLE_FD_STEP)
                einstein = tr.call("curvature.einstein_residual",
                                   curvature.einstein_residual, log_jet, point)
            rows.append((value, r, fd, einstein))
        return factor, rows

    def check(self, spec, out):
        factor, rows = out
        target = spec["target"]
        problems = []

        def log_jet(a, b):
            return jets.apply_elementary("log", factor.jet(a, b))

        for point, (value, r, fd, einstein) in zip(spec["points"], rows):
            if not abs(r - target) < GENERAL_TOL:
                problems.append(f"|R - {target}| = {abs(r - target):.3e} at {point}")
            if fd is not None and not abs(r - fd) <= FD_TOL:
                problems.append(f"|R - R_fd| = {abs(r - fd):.3e} at {point}")
            if einstein is not None and OMEGA_FLOOR <= value <= OMEGA_CEILING:
                scalar = curvature.ricci_from_log(log_jet, point)
                gap = abs(einstein.kappa - 0.5 * scalar)
                if not (einstein.residual <= EINSTEIN_TOL and gap <= EINSTEIN_TOL):
                    problems.append(f"Einstein residual {einstein.residual:.3e}, "
                                    f"|kappa - R/2| {gap:.3e} at {point}")
        return Verdict(len(rows), problems)


# ---------------------------------------------------------------------------
# cli

CLI_MAIN = "import sys; from lorentz2d.cli import main; sys.exit(main())"
CLI_CHILD = HERE / "cli_child.py"
KNOWN_DEFECT = ["check", "--omega", "exp(-1000*x^2)", "--target", "0",
                "--domain", "rect:-1,1,-1,1", "--grid", "4x4"]
# Malformed or degenerate inputs with their documented exit codes.
ERROR_INPUTS = [
    (["check", "--omega", "exp(2*x)*(exp(x+t)", "--target", "2"], 2),
    (["check", "--omega", "1", "--target", "0", "--domain", "rect:1,0,0,1"], 2),
    (["compactify", "--family", "timelike", "--c1", "-4", "--R", "2"], 3),
    (["contour", "--omega", "1", "--domain", "diamond", "--grid", "0x5"], 2),
    (["check", "--family", "spacelike", "--d1", "4", "--R", "-1"], 2),
    (["check", "--omega", "log(-1-x^2)", "--target", "0"], 3),
]
CLI_CYCLE = 16


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Cli(Workload):
    """One invocation per op, with the expected exit code and output file.

    Slot 7 of each 16 is the ``exp(-1000*x^2)`` check, which should exit 3;
    slot 15 rotates through ``ERROR_INPUTS``.  So 1 op in 8 is a bad input.
    """

    name = "cli"
    item = "invocations"
    tail_percentile = 80
    kinds = tuple(range(CLI_CYCLE))

    def _spec(self, slot, rng, index):
        def grid(base):   # level sets need a lattice of some size at any scale
            n = self.scaled(base, smallest=16)
            return ["--grid", f"{n}x{n}"]

        def out(ext):
            return OUT / f"cli-{slot}.{ext}"

        jit = float(rng.uniform(-0.1, 0.1))
        rect = f"rect:{-1 + jit:.3f},{1 + jit:.3f},-1,1"
        spec = {"kind": slot, "expect": 0, "file": None}
        if slot == 0:
            args = ["check", "--omega", README_R2, "--target", "2", "--domain", rect,
                    *grid(40)]
            spec.update(file=(out("json"), "report"))
        elif slot == 8:    # a false claim: the check itself must FAIL
            args = ["check", "--omega", README_R2, "--target", "2.5", "--domain", rect,
                    *grid(40)]
            spec.update(expect=1, file=(out("json"), "report"))
        elif slot == 4:    # the README example
            args = ["check", "--family", "timelike", "--c1", "-4", "--R", "2",
                    "--domain", "rect:-1.4,1.4,0,6", *grid(60), "--tol", "1e-9"]
        elif slot == 12:
            args = ["check", "--family", "spacelike", "--d1", "4", "--d2", "0.3",
                    "--R", "1", "--domain", "rect:-1,1,-2,2", *grid(60)]
        elif slot == 1:
            args = ["family", "liouville", "--phi", "l", "--psi", "l", "--R", "2",
                    "--raw-antiderivative", "--domain", rect, *grid(60)]
            spec.update(file=(out("csv"), "grid"), stdout=(
                "exp(x + t)*exp(x - t)*(exp(x + t) - 0.25*exp(x - t))^(-2)"))
        elif slot == 5:
            args = ["family", "spacelike", "--d1", "4", "--d2", "0.3", "--R", "1",
                    "--domain", "rect:-1,1,-2,2", *grid(80)]
            spec.update(file=(out("csv"), "grid"), stdout="2*sech(x + 0.3)^2")
        elif slot == 9:
            args = ["family", "flat", "--phi", "exp(0.1*l)", "--psi", "exp(-0.2*l)",
                    "--domain", rect, *grid(60)]
            spec.update(file=(out("csv"), "grid"),
                        stdout="exp(0.1*(x + t))*exp(-0.2*(x - t))")
        elif slot == 13:
            args = ["family", "liouville", "--phi", "0.1*l", "--psi", "0.05*sin(l)",
                    "--R", "2", "--domain", rect, *grid(20)]
            spec.update(file=(out("csv"), "grid"))
        elif slot in (2, 10):
            fmt = "json" if slot == 2 else "csv"
            args = ["compactify", "--omega", "1", "--target", "0", *grid(60),
                    "--format", fmt]
            spec.update(file=(out(fmt), "report" if fmt == "json" else "grid"))
        elif slot == 6:
            args = ["compactify", "--omega", "1", "--target", "0", *grid(40),
                    "--levels=-1,-0.25,0.25,1"]
            spec.update(file=(out("svg"), "svg"), levels=(-1.0, -0.25, 0.25, 1.0))
        elif slot in (3, 14):
            args = ["contour", "--omega", "1", "--domain", "rect:-2,2,-2,2", *grid(40)]
            spec.update(file=(out("svg"), "svg"), levels=(1.0, 2.0))
            if slot == 3:
                args.append("--levels=1,-1")
                spec["levels"] = (1.0, -1.0)
        elif slot == 11:
            args = ["contour", "--omega", "1", "--domain", "rect:-2,2,-2,2", *grid(40),
                    "--levels=0.5,-0.5", "--format", "csv"]
            spec.update(file=(out("csv"), "levels"))
        elif slot == 7:
            args, spec["expect"] = list(KNOWN_DEFECT), 3
        else:
            args, spec["expect"] = ERROR_INPUTS[(index // CLI_CYCLE) % len(ERROR_INPUTS)]
            args = list(args)
        if spec["file"] is not None:
            args += ["--out", str(spec["file"][0])]
        spec["args"] = args
        return spec

    def run(self, spec, tr):
        path = spec["file"][0] if spec["file"] else None
        if path is not None and path.exists():
            path.unlink()
        if not tr.enabled:
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *spec["args"]],
                                  cwd=ROOT, env=cli_env(), capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        timing = OUT / "cli-timing.json"
        with tr.span("cli.invocation", subcommand=spec["args"][0]) as attrs:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, str(CLI_CHILD), str(timing),
                                   *spec["args"]], cwd=ROOT, env=cli_env(),
                                  capture_output=True, text=True, timeout=120)
        child = json.loads(timing.read_text())
        attrs.update(interpreter_s=child["start"] - start, import_s=child["import_s"],
                     main_s=child["main_s"],
                     exit_code_mismatch=proc.returncode != spec["expect"])
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, spec, out):
        code, stdout, stderr = out
        expect = spec["expect"]
        if "Traceback (most recent call last)" in stderr:
            last = stderr.strip().splitlines()[-1]
            return Verdict(1, [f"{spec['args'][0]} exited {code} with a traceback "
                               f"({last}); expected exit {expect}"], crashed=True)
        if code != expect:
            return Verdict(1, [f"{spec['args']} exited {code}, expected {expect}"])
        if expect in (2, 3):
            ok = "error:" in stderr
            return Verdict(1, [] if ok else ["no error message on stderr"])
        problems = []
        lines = stdout.splitlines()
        if spec["args"][0] in ("check", "compactify"):
            verdict = "PASS" if expect == 0 else "FAIL"
            if not any(line.startswith(verdict + " (") for line in lines):
                problems.append(f"no {verdict} line in the output")
        if "stdout" in spec and (not lines or lines[0] != spec["stdout"]):
            problems.append(f"descriptor {lines[:1]!r}, expected {spec['stdout']!r}")
        if spec["file"] is not None:
            problems += _check_cli_file(spec, expect)
        return Verdict(1, problems)


def _check_cli_file(spec, expect) -> list:
    path, what = spec["file"]
    if not path.exists():
        return [f"{path.name} was not written"]
    text = path.read_text()
    if what == "report":
        payload = json.loads(text)
        if payload["pass"] != (expect == 0):
            return [f"report pass = {payload['pass']}, exit code {expect}"]
        return []
    if what == "svg":
        missing = [lv for lv in spec["levels"] if f'data-level="{lv!r}"' not in text]
        if not text.startswith("<svg") or missing:
            return [f"SVG lacks its header or levels {missing}"]
        return []
    rows = text.splitlines()
    if what == "grid":
        n = int(spec["args"][spec["args"].index("--grid") + 1].split("x")[0])
        if rows[0] != "t,x,omega,R,s2,valid" or not 0 < len(rows) - 1 <= n * n:
            return [f"grid CSV has {len(rows) - 1} rows for a {n}x{n} lattice"]
        return []
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    if rows[0] != "level,polyline,t,x" or data.size == 0:
        return ["level CSV is empty or lacks its header"]
    worst = float(np.max(np.abs(data[:, 3] ** 2 - data[:, 2] ** 2 - data[:, 0])))
    return [] if worst <= LEVEL_RESIDUAL else [f"level CSV residual {worst:.3e}"]


WORKLOAD_CLASSES = {cls.name: cls for cls in (VerifyGrid, Diagram, LiouvillePoints, Cli)}


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    OUT.mkdir(exist_ok=True)
    return WORKLOAD_CLASSES[name](seed, scale)
