"""Constant-curvature conformal factors on 2D Minkowski space.

The metric is g = Omega * eta with eta = diag(-1, 1) in coordinates
(t, x), or g = -Omega du dv in null coordinates u = x + t, v = x - t.
This package builds positive factors Omega from closed-form solution
families, differentiates them exactly with second-order jets, verifies
that the scalar curvature is constant on sampling grids, and extracts
constant-interval level sets for conformal (diamond) diagrams.

Entry points:

* :mod:`lorentz2d.expressions` -- a tiny expression language for factors;
* :mod:`lorentz2d.jets` -- exact second-order forward-mode derivatives;
* :mod:`lorentz2d.curvature` -- scalar curvature of g = Omega * eta in the
  field's chart, plus an independent finite-difference cross-check;
* :mod:`lorentz2d.families` -- flat, one-variable (timelike/spacelike)
  and exponential-type constant-curvature families;
* :mod:`lorentz2d.charts` -- null coordinates and the compactifying
  pullback onto the finite diamond;
* :mod:`lorentz2d.analysis` -- grid sampling, constancy reports, level
  sets, and CSV/JSON/SVG export;
* :mod:`lorentz2d.cli` -- the ``lorentz2d`` command.
"""

from __future__ import annotations

from .analysis import (
    CurvatureReport,
    LevelSet,
    SampleGrid,
    constancy_report,
    export,
    extract_level_sets,
    grid_to_csv,
    level_sets_to_csv,
    level_sets_to_svg,
    report_to_json,
    sample_grid,
)
from .charts import (
    Diamond,
    Rectangle,
    compactify,
    from_null,
    full_plane,
    interval_field,
    to_null,
)
from .curvature import (
    EinsteinCheck,
    einstein_residual,
    fd_ricci_oracle,
    ricci_from_log,
    ricci_from_omega,
    scalar_from_factor_jet,
)
from .errors import (
    BranchYieldsNonPositive,
    DomainError,
    EmptyDomain,
    EvaluationError,
    Lorentz2dError,
    MixedChartVariables,
    NonConstantExponent,
    NonPositiveFactor,
    NoValidSamples,
    ParseError,
    QuadratureNonConvergence,
    SingularDenominator,
    StencilOutsideDomain,
)
from .expressions import (
    Binary,
    Call,
    Constant,
    Expression,
    Unary,
    Variable,
    evaluate,
    free_variables,
    parse,
    substitute,
    unparse,
)
from .families import (
    Antiderivative,
    ConformalFactor,
    factor_from_expression,
    flat_factor,
    liouville_factor,
    spacelike_factor,
    timelike_factor,
)
from .jets import Jet2

__version__ = "0.1.0"

__all__ = [
    "Antiderivative",
    "Binary",
    "BranchYieldsNonPositive",
    "Call",
    "ConformalFactor",
    "Constant",
    "CurvatureReport",
    "Diamond",
    "DomainError",
    "EinsteinCheck",
    "EmptyDomain",
    "EvaluationError",
    "Expression",
    "Jet2",
    "LevelSet",
    "Lorentz2dError",
    "MixedChartVariables",
    "NoValidSamples",
    "NonConstantExponent",
    "NonPositiveFactor",
    "ParseError",
    "QuadratureNonConvergence",
    "Rectangle",
    "SampleGrid",
    "SingularDenominator",
    "StencilOutsideDomain",
    "Unary",
    "Variable",
    "compactify",
    "constancy_report",
    "einstein_residual",
    "evaluate",
    "export",
    "extract_level_sets",
    "factor_from_expression",
    "fd_ricci_oracle",
    "flat_factor",
    "free_variables",
    "from_null",
    "full_plane",
    "grid_to_csv",
    "interval_field",
    "level_sets_to_csv",
    "level_sets_to_svg",
    "liouville_factor",
    "parse",
    "report_to_json",
    "ricci_from_log",
    "ricci_from_omega",
    "sample_grid",
    "scalar_from_factor_jet",
    "spacelike_factor",
    "substitute",
    "timelike_factor",
    "to_null",
    "unparse",
]
