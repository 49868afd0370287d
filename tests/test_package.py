"""The package's public names and its internal imports."""

import ast
import graphlib
import inspect
from pathlib import Path

import lorentz2d


def test_all_is_sorted_unique_and_resolves():
    names = lorentz2d.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(lorentz2d, name)]
    assert missing == []


# Every parameter of every public class and function, by name.  A setting
# that nothing passes is not added to the library by accident: a new one
# fails here until it is entered on purpose.  None marks an exception that
# takes Exception's own arguments.
PARAMETERS = {
    "Antiderivative": ("integrand", "tol"),
    "Binary": ("op", "left", "right"),
    "BranchYieldsNonPositive": None,
    "Call": ("fn", "arg"),
    "ConformalFactor": ("chart", "domain", "provenance", "target_curvature",
                        "expression", "value_fn", "jet_fn"),
    "Constant": ("value",),
    "CurvatureReport": ("target_R", "tolerance", "passed", "n_valid", "n_singular",
                        "n_domain_error", "max_abs_deviation", "mean_deviation",
                        "worst_point"),
    "Diamond": (),
    "DomainError": ("message", "node", "point"),
    "EinsteinCheck": ("kappa", "residual"),
    "EmptyDomain": None,
    "EvaluationError": None,
    "Jet2": ("value", "dt", "dx", "dtt", "dtx", "dxx"),
    "LevelSet": ("level", "polylines", "n_pruned", "max_residual", "bisections"),
    "Lorentz2dError": None,
    "MixedChartVariables": None,
    "NoValidSamples": None,
    "NonConstantExponent": ("message", "offset", "expected"),
    "NonPositiveFactor": None,
    "ParseError": ("message", "offset", "expected"),
    "QuadratureNonConvergence": ("message", "achieved_error"),
    "Rectangle": ("t_min", "t_max", "x_min", "x_max"),
    "SampleGrid": ("factor", "ts", "xs", "omega", "ricci", "s2", "status",
                   "with_ricci"),
    "SingularDenominator": None,
    "StencilOutsideDomain": None,
    "Unary": ("op", "child"),
    "Variable": ("name",),
    "compactify": ("factor",),
    "constancy_report": ("grid", "target", "tolerance"),
    "einstein_residual": ("log_field", "point"),
    "evaluate": ("expression", "bindings"),
    "export": ("obj", "fmt", "destination", "bounds"),
    "extract_level_sets": ("grid", "levels"),
    "factor_from_expression": ("source", "claimed_curvature"),
    "fd_ricci_oracle": ("field", "point", "h"),
    "flat_factor": ("phi", "psi"),
    "free_variables": ("expression",),
    "from_null": ("u", "v"),
    "full_plane": (),
    "grid_to_csv": ("grid",),
    "interval_field": ("factor", "a", "b"),
    "level_sets_to_csv": ("level_sets",),
    "level_sets_to_svg": ("level_sets", "bounds"),
    "liouville_factor": ("phi", "psi", "k", "C", "target", "raw_antiderivative",
                         "quadrature_tol"),
    "parse": ("source",),
    "report_to_json": ("report",),
    "ricci_from_log": ("field", "point"),
    "ricci_from_omega": ("field", "point"),
    "sample_grid": ("factor", "domain", "resolution", "with_ricci"),
    "scalar_from_factor_jet": ("w", "chart"),
    "spacelike_factor": ("d1", "d2", "target"),
    "substitute": ("expression", "mapping"),
    "timelike_factor": ("c1", "c2", "target"),
    "to_null": ("t", "x"),
    "unparse": ("expression",),
}


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:   # no signature of its own, as for a bare Exception subclass
        return None


def test_every_public_parameter_is_in_the_table():
    public = {name: getattr(lorentz2d, name) for name in lorentz2d.__all__}
    found = {name: _parameters(obj) for name, obj in public.items()
             if inspect.isclass(obj) or inspect.isfunction(obj)}
    assert found == PARAMETERS


# The modules each module of the package imports, function-level imports
# included.  ``curvature`` reads fields through their ``jet``, ``value`` and
# ``chart`` alone, so it needs neither the formula language nor the
# families.
IMPORTS = {
    "__init__": ("analysis", "charts", "curvature", "errors", "expressions", "families",
                 "jets"),
    "__main__": ("cli",),
    "analysis": ("charts", "curvature", "errors"),
    "charts": ("errors", "expressions", "jets"),
    "cli": ("analysis", "charts", "errors", "expressions", "families"),
    "curvature": ("errors", "jets"),
    "errors": (),
    "expressions": ("errors", "jets"),
    "families": ("charts", "errors", "expressions", "jets"),
    "jets": ("errors",),
}


def _relative_imports(path: Path) -> tuple:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:   # from .module import name
                found.add(node.module.split(".")[0])
            else:             # from . import module
                found.update(alias.name for alias in node.names)
    return tuple(sorted(found))


def _package_imports() -> dict:
    package = Path(lorentz2d.__file__).parent
    return {path.stem: _relative_imports(path) for path in package.glob("*.py")}


def test_internal_imports_are_in_the_table():
    assert _package_imports() == IMPORTS


def test_internal_imports_have_no_cycle():
    # static_order raises graphlib.CycleError on a cycle
    found = _package_imports()
    assert sorted(graphlib.TopologicalSorter(found).static_order()) == sorted(found)
