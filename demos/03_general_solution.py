"""The general constant-curvature factor and its diamond diagram.

The full solution family is

    Omega = e^{phi(u)} e^{psi(v)} / (k F(u) - (R / 8k) G(v) + C)^2

in null coordinates u = x + t, v = x - t, where F and G are
antiderivatives of e^phi and e^psi.  Two evaluation modes coexist:

* ``raw_antiderivative=True`` keeps F(s) = e^s exactly when phi and psi
  are the bare variable, reproducing the closed form
  e^{2x} (e^{x+t} - 1/4 e^{x-t})^{-2} with R = 2;
* the default mode anchors F and G at 0 and tabulates them once, as
  piecewise Chebyshev interpolants of e^phi and e^psi, which handles
  arbitrary envelopes; the anchoring constant is absorbed by C, and a
  value does not depend on the points queried before it.

The script checks both modes, cross-checks a quadrature-backed draw
against the finite-difference oracle, and writes the compactified
diagram of the closed-form factor to ``demos/output/``.
"""

from pathlib import Path

from lorentz2d import (
    compactify,
    einstein_residual,
    export,
    extract_level_sets,
    factor_from_expression,
    fd_ricci_oracle,
    liouville_factor,
    parse,
    ricci_from_omega,
    sample_grid,
    unparse,
)
from lorentz2d.jets import apply_elementary

OUTPUT = Path(__file__).resolve().parent / "output"
LEVELS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
CLOSED_FORM = "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)"


def closed_form_factor() -> None:
    raw = liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                           raw_antiderivative=True)
    print(f"raw-antiderivative factor: {unparse(raw.expression)}")
    explicit = factor_from_expression(CLOSED_FORM, claimed_curvature=2.0)
    point = (0.3, -0.4)
    print(f"  value at {point}: raw {raw.value(*point):.15g}, "
          f"explicit {explicit.value(*point):.15g}")
    print(f"  R at {point}: {ricci_from_omega(raw, point):.15f}")

    shifted = liouville_factor("l", "l", k=1.0, C=0.75, target=2.0)
    print(f"  anchored mode with C = 3/4 agrees: "
          f"{shifted.value(*point):.15g}")


def quadrature_backed_draw() -> None:
    factor = liouville_factor("0.1*l^2 - 0.05*l", "sin(l)", k=1.2, C=2.0,
                              target=-2.0, quadrature_tol=1e-12)
    point = (0.25, 0.6)
    ad = ricci_from_omega(factor, point)
    fd = fd_ricci_oracle(factor, point, h=2e-3)
    print(f"quadrature-backed draw at {point}: "
          f"jet R = {ad:.12f}, FD R = {fd:.12f}, |diff| = {abs(ad - fd):.2e}")

    def log_jet(a: float, b: float):
        return apply_elementary("log", factor.jet(a, b))

    check = einstein_residual(log_jet, point)
    print(f"  einstein check: kappa = {check.kappa:.12f} "
          f"(R/2 = {ad / 2:.12f}), residual = {check.residual:.2e}")


def compactified_diagram() -> None:
    OUTPUT.mkdir(exist_ok=True)
    raw = liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                           raw_antiderivative=True)
    compact = compactify(raw)
    print(f"compactified factor carries target R = "
          f"{compact.target_curvature} on {compact.domain!r}")
    grid = sample_grid(compact, resolution=(300, 300), with_ricci=False)
    path = export(extract_level_sets(grid, LEVELS), "svg",
                  OUTPUT / "general_solution_diamond.svg")
    print(f"wrote {path}")


def main() -> None:
    closed_form_factor()
    quadrature_backed_draw()
    compactified_diagram()
    assert parse(CLOSED_FORM) is not None


if __name__ == "__main__":
    main()
