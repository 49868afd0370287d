"""End-to-end command-line behavior: exit codes, output, file exports."""

import argparse
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lorentz2d import analysis
from lorentz2d.cli import _build_parser, main

OMEGA1_NULL_PRINTED = "exp(x + t)*exp(x - t)*(exp(x + t) - 0.25*exp(x - t))^(-2)"


# ---------------------------------------------------------------------------
# check: exit 0 / 1

def test_check_timelike_strip_passes(capsys):
    rc = main(["check", "--family", "timelike", "--c1", "-4", "--R", "2",
               "--domain", "rect:-1.4,1.4,0,6", "--grid", "50x50",
               "--tol", "1e-9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "factor: sec(t)^2" in out
    assert "PASS" in out


def test_check_flat_exponential_is_exactly_flat(capsys):
    rc = main(["check", "--omega", "exp(t)", "--target", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max |R - (0)| = 0.000000e+00" in out
    assert "PASS" in out


def test_check_wrong_claim_fails(capsys):
    rc = main(["check", "--omega", "exp(t^2)", "--target", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_check_json_export(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc = main(["check", "--omega", "1", "--target", "0",
               "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["pass"] is True
    assert payload["target_R"] == 0.0


def test_check_csv_export(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    rc = main(["check", "--omega", "1", "--target", "0", "--grid", "4x4",
               "--format", "csv", "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    assert out_file.read_text().startswith("t,x,omega,R,s2,valid")


NULL_CHECK = ["check", "--omega", "2+u*v", "--target", "0", "--domain", "rect:0,1,-1,0",
              "--grid", "8x8"]


def test_check_labels_null_chart_points_u_v(capsys):
    # R = -8/(2 + uv)^3 is largest at (u, v) = (0.9375, -0.9375)
    rc = main(NULL_CHECK)
    out = capsys.readouterr().out
    assert rc == 1
    assert "at (u, v) = (0.9375, -0.9375)" in out
    assert "(t, x)" not in out


def test_check_names_null_chart_domain_u_v(capsys):
    # the rectangle's bounds are u and v here, not t and x
    rc = main(NULL_CHECK)
    out = capsys.readouterr().out
    assert rc == 1
    assert "grid: 8x8 on u in (0.0, 1.0), v in (-1.0, 0.0)\n" in out
    assert "t_min" not in out


def test_null_chart_csv_columns_are_u_v(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    rc = main([*NULL_CHECK, "--format", "csv", "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 1
    lines = out_file.read_text().splitlines()
    assert lines[0] == "u,v,omega,R,s2,valid"
    assert lines[1].startswith("0.0625,-0.9375,")


# ---------------------------------------------------------------------------
# family

def test_family_flat_unit(capsys):
    rc = main(["family", "flat", "--phi", "1", "--psi", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_family_timelike_descriptor(capsys):
    rc = main(["family", "timelike", "--c1", "-4", "--R", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "sec(t)^2"


def test_family_liouville_raw_descriptor(capsys):
    rc = main(["family", "liouville", "--phi", "l", "--psi", "l",
               "--k", "1", "--C", "0", "--R", "2", "--raw-antiderivative"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == OMEGA1_NULL_PRINTED


def test_family_shifted_liouville_prints_json(capsys):
    rc = main(["family", "liouville", "--phi", "sin(l)", "--psi", "0",
               "--R", "-1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "liouville"
    assert payload["phi"] == "sin(l)"
    assert payload["antiderivative"] == "shifted"


def test_family_grid_export(tmp_path, capsys):
    out_file = tmp_path / "flat.csv"
    rc = main(["family", "flat", "--phi", "1", "--psi", "1",
               "--domain", "rect:-1,1,-1,1", "--grid", "5x5",
               "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "t,x,omega,R,s2,valid"
    assert len(lines) == 26


# ---------------------------------------------------------------------------
# compactify

def test_compactify_flat_passes(capsys):
    rc = main(["compactify", "--omega", "1", "--target", "0",
               "--grid", "30x30", "--tol", "1e-8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_compactify_null_chart_factor_passes(capsys):
    # the README's R = 2 factor written in u, v, as its (t, x) twin passes
    rc = main(["compactify", "--omega", "exp(u+v) * (exp(u) - (1/4)*exp(v))^(-2)",
               "--target", "2", "--grid", "8x8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "factor: exp(tan((x + t)/2) + tan((x - t)/2))*" in out
    assert "PASS" in out


def test_compactify_liouville_family_prints_nested_provenance(capsys):
    # a factor without a closed form is described by its provenance, and a
    # compactified one nests its inner factor's: this died with "Object of
    # type Provenance is not JSON serializable"
    rc = main(["compactify", "--family", "liouville", "--phi", "sin(l)", "--psi", "l",
               "--R", "-1", "--C", "3", "--grid", "20x20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == (
        'factor: {"family": "compactified", "inner": {"family": "liouville", '
        '"phi": "sin(l)", "psi": "l", "k": 1.0, "C": 3.0, "R": -1.0, '
        '"antiderivative": "shifted", "reference": 0.0}}')
    described = json.loads(out.splitlines()[0].removeprefix("factor: "))
    assert described["family"] == "compactified"
    assert described["inner"] == {"family": "liouville", "phi": "sin(l)", "psi": "l",
                                  "k": 1.0, "C": 3.0, "R": -1.0,
                                  "antiderivative": "shifted", "reference": 0.0}
    assert "PASS" in out


def test_compactify_strip_factor_is_domain_failure(capsys):
    rc = main(["compactify", "--family", "timelike", "--c1", "-4", "--R", "2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error:" in err


def test_compactify_svg_export(tmp_path, capsys):
    out_file = tmp_path / "diagram.svg"
    rc = main(["compactify", "--omega", "1", "--target", "0",
               "--grid", "40x40", "--levels", "0.5,1", "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    text = out_file.read_text()
    assert text.startswith("<svg")
    assert 'data-level="0.5"' in text


# ---------------------------------------------------------------------------
# contour

def test_contour_svg_output(tmp_path, capsys):
    out_file = tmp_path / "levels.svg"
    rc = main(["contour", "--omega", "1", "--domain", "rect:-2,2,-2,2",
               "--grid", "40x40", "--levels", "1,-1", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"wrote {out_file}" in out
    assert "level 1: 2 polylines" in out
    assert "level -1: 2 polylines" in out
    assert "vertices, 0 pruned" in out
    assert out_file.read_text().startswith("<svg")


def test_contour_reports_pruned_vertices(capsys):
    # Omega jumps from ~0 to ~e^40 across x + t = 1: the crossings there
    # are no level points and get pruned
    rc = main(["contour", "--omega", "exp(1/(x + t - 1))", "--domain",
               "rect:-2,2,-2,2", "--grid", "41x41", "--levels", "0.5,2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "level 0.5: 2 polylines, 86 vertices, 30 pruned" in out
    assert "level 2: 2 polylines, 52 vertices, 30 pruned" in out


def test_contour_csv_output(tmp_path, capsys):
    out_file = tmp_path / "levels.csv"
    rc = main(["contour", "--omega", "1", "--domain", "rect:-2,2,-2,2",
               "--grid", "30x30", "--levels=-0.5,0.5", "--format", "csv",
               "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    assert out_file.read_text().startswith("level,polyline,t,x")


def test_contour_without_output_file(capsys):
    rc = main(["contour", "--omega", "1", "--domain", "rect:-2,2,-2,2",
               "--grid", "20x20", "--levels", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" not in out
    assert out.startswith("level 1:")


# ---------------------------------------------------------------------------
# config file handling

def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "timelike", "c1": -4, "R": 2,
                               "domain": "rect:-1.4,1.4,0,6",
                               "grid": "20x20", "tol": 1e-9}))
    rc = main(["check", "--config", str(cfg)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "timelike", "c1": -4, "R": 2}))
    rc = main(["check", "--config", str(cfg), "--c1", "4"])
    capsys.readouterr()
    assert rc == 2  # c1 = 4 with R = 2 is the rejected branch


@pytest.mark.parametrize("content", ['{"frobnicate": 1}', "[1, 2]", "not json"])
def test_bad_config_contents(tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    cfg.write_text(content)
    rc = main(["check", "--config", str(cfg), "--omega", "1", "--target", "0"])
    capsys.readouterr()
    assert rc == 2


def test_missing_config_file(tmp_path, capsys):
    rc = main(["check", "--config", str(tmp_path / "absent.json"),
               "--omega", "1", "--target", "0"])
    capsys.readouterr()
    assert rc == 2


# ---------------------------------------------------------------------------
# usage errors (exit 2)

@pytest.mark.parametrize("argv", [
    ["check", "--omega", "sec(t^", "--target", "2"],
    ["check", "--family", "timelike", "--c1", "4", "--R", "2"],
    ["check", "--family", "flat", "--target", "0"],
    ["check", "--target", "0"],
    ["check", "--omega", "1", "--target", "0", "--domain", "rect:1,0,0,1"],
    ["check", "--omega", "1", "--target", "0", "--domain", "blob"],
    ["check", "--omega", "1", "--target", "0", "--grid", "50"],
    ["check", "--omega", "1", "--target", "0", "--grid", "0x5"],
    ["check", "--omega", "1", "--target", "0", "--format", "svg",
     "--out", "x.svg"],
    ["check", "--omega", "t + u", "--target", "0"],
    ["check", "--omega", "sech(t)^2"],
    ["family", "liouville", "--phi", "l"],
    ["contour", "--omega", "1", "--levels", ""],
    ["contour", "--omega", "1", "--format", "json", "--out", "x.json"],
])
def test_usage_errors_exit_2(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert "error:" in captured.err


@pytest.mark.parametrize("argv, offset", [
    (["check", "--omega", "1e999", "--target", "0"], 0),
    (["family", "flat", "--phi", "1e999", "--psi", "1"], 0),
    (["compactify", "--omega=-1e999*exp(t)", "--target", "0"], 1),
])
def test_out_of_range_literal_exits_2(capsys, argv, offset):
    # read as inf, such a literal used to give VALID cells holding inf or
    # NaN, numpy's "All-NaN slice" error, or a descriptor that did not
    # parse back
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: number '1e999' is out of range (offset {offset})\n"


def test_argparse_failures_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["check", "--family", "bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "lorentz2d" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "--omega", "1", "--target", "0", "--grid", "4x4", "--format", "svg"],
    ["family", "flat", "--phi", "1", "--psi", "1", "--format", "svg"],
    ["family", "flat", "--phi", "1", "--psi", "1", "--format", "json"],
    ["contour", "--omega", "1", "--grid", "4x4", "--format", "json"],
])
def test_formats_a_subcommand_cannot_write_exit_2_before_any_work(tmp_path, capsys,
                                                                  argv):
    # check used to print its whole report, PASS included, and family its
    # descriptor before refusing the format
    out = tmp_path / "x.out"
    rc = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "invalid choice" in captured.err
    assert not out.exists()


def test_overflowing_rectangle_width_exits_2(capsys):
    # t1 - t0 is inf, so no cell centre was finite and this exited 3 with
    # "no cell centres ... fall inside"
    rc = main(["check", "--omega", "1", "--target", "0", "--grid", "3x3",
               "--domain=rect:-1e308,1e308,-1e308,1e308"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "overflows" in captured.err


def test_compactify_takes_no_domain(tmp_path, capsys):
    # compactify always samples the diamond; a --domain used to be ignored
    argv = ["compactify", "--omega", "1", "--target", "0", "--grid", "4x4"]
    assert main([*argv, "--domain", "rect:0,1,0,1"]) == 2
    assert "unrecognized arguments: --domain" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"domain": "rect:0,1,0,1"}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert "unrecognized arguments: --domain" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--omega", "1", "--target", "0", "--levels", "1"],
    # used to print t^2 + 1 under the flat family's name and exit 0
    ["family", "flat", "--phi", "l", "--psi", "l", "--omega", "t^2+1"],
    ["family", "flat", "--phi", "1", "--psi", "1", "--target", "0"],
    ["family", "flat", "--phi", "1", "--psi", "1", "--tol", "1e-9"],
    ["family", "flat", "--phi", "1", "--psi", "1", "--levels", "1"],
    ["contour", "--omega", "1", "--target", "0"],
    ["contour", "--omega", "1", "--tol", "1e-9"],
])
def test_flags_a_subcommand_does_not_read_exit_2_before_any_work(tmp_path, capsys,
                                                                 argv):
    # each of these flags used to be accepted and then ignored
    out = tmp_path / "x.out"
    rc = main([*argv, "--grid", "4x4", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err
    assert not out.exists()


def test_config_key_a_subcommand_does_not_read_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol": 1e-9}))
    out = tmp_path / "grid.csv"
    rc = main(["family", "flat", "--phi", "1", "--psi", "1", "--config", str(cfg),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "unrecognized arguments: --tol=1e-09" in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# numeric/domain failures (exit 3)

def test_no_valid_samples_exit_3(capsys):
    rc = main(["check", "--omega", "log(t)", "--target", "0",
               "--domain", "rect:-2,-1,0,1", "--grid", "5x5"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error:" in err


def test_cells_whose_curvature_overflows_are_domain_errors(capsys):
    # Omega^3 overflows on the x > 0.5 half, so R there is NaN: those 8
    # cells used to count as valid, and the check passed on the other 8
    rc = main(["check", "--omega", "exp(700*x)", "--target", "0",
               "--domain", "rect:-1,1,0,1", "--grid", "4x4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cells: valid=8 singular=0 domain_error=8" in out


def test_contour_with_no_valid_cell_exits_3(tmp_path, capsys):
    # Omega = -1 is not positive anywhere: this wrote an empty figure and
    # exited 0, where check and compactify exit 3
    out = tmp_path / "c.svg"
    rc = main(["contour", "--omega", "-1", "--domain", "rect:-1,1,-1,1", "--grid", "8x8",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: grid has no valid cells (0 singular, 64 domain errors)\n"
    assert not out.exists()


def test_family_with_no_valid_cell_exits_3(tmp_path, capsys):
    # phi = -1: the factor is negative everywhere; this wrote 16 ",,,,0"
    # rows and exited 0, where check, compactify and contour exit 3
    out = tmp_path / "f.csv"
    rc = main(["family", "flat", "--phi", "-1", "--psi", "1", "--domain", "rect:-1,1,-1,1",
               "--grid", "4x4", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "error: grid has no valid cells (0 singular, 16 domain errors)\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["family", "timelike", "--c1=-1e-300", "--R", "1e300"],
    ["family", "spacelike", "--d1", "1e-300", "--R", "1e300"],
], ids=["timelike", "spacelike"])
def test_coefficient_that_underflows_exits_2(capsys, argv):
    # the positive branch's coefficient 1e-300/(2e300) rounds to 0: this was
    # reported as a branch with no positive factor
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "underflows" in captured.err


def test_grid_whose_every_curvature_overflows_exits_3(capsys):
    # Omega^2 and Omega^3 overflow in every cell: this exited 2, the usage
    # code, with numpy's "All-NaN slice encountered"
    rc = main(["check", "--omega", "1/(1e-160*x^2+1e-320)", "--target", "0",
               "--domain", "rect:-1,1,-1,1", "--grid", "4x4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "error: grid has no valid cells (0 singular, 16 domain errors)\n"


# ---------------------------------------------------------------------------
# one parse for every option: non-finite numbers, config entries as flags

@pytest.mark.parametrize("argv", [
    ["family", "liouville", "--phi", "l", "--psi", "l", "--k", "1", "--C", "0",
     "--R", "1e999", "--raw-antiderivative"],
    ["check", "--omega", "1", "--target", "nan"],
    ["check", "--omega", "1", "--target", "1e999"],
    ["check", "--omega", "1", "--target", "0", "--tol", "nan"],
    ["contour", "--omega", "1", "--levels=inf,1"],
    ["check", "--omega", "1", "--target", "0", "--domain", "rect:-inf,0,0,1"],
    ["check", "--family", "timelike", "--c1", "-4", "--R", "2", "--c2=-inf"],
])
def test_non_finite_numbers_exit_2(capsys, argv):
    # these used to print inf into a descriptor, die in numpy's "All-NaN
    # slice", FAIL every cell or draw a level at infinity
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "not a finite number" in captured.err


@pytest.mark.parametrize("argv", [
    ["family", "timelike", "--c1=-1e308", "--R", "1e-308"],
    ["family", "spacelike", "--d1", "1e308", "--R", "1e-308"],
    ["family", "liouville", "--phi", "l", "--psi", "l", "--R", "1e308", "--k", "1e-308",
     "--raw-antiderivative"],
    ["check", "--family", "liouville", "--phi", "l", "--psi", "l", "--R", "2",
     "--k", "1e-310", "--grid", "4x4"],
], ids=["timelike-coefficient", "spacelike-coefficient", "liouville-raw", "liouville-check"])
def test_parameters_whose_derived_constant_overflows_exit_2(capsys, argv):
    # finite flags whose coefficient -c1/(2R), d1/(2R) or R/(8k) is inf:
    # the descriptors printed "inf*sec(...)", which does not parse back,
    # and the check sampled a grid of no valid cells and exited 3
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows" in captured.err


@pytest.mark.parametrize("entries", [
    {"family": "liouville", "phi": "l", "psi": "l", "R": math.inf,
     "raw_antiderivative": True},
    {"omega": "1", "target": math.nan},
    {"family": "timelike", "c1": True, "R": -2},   # used to read as c1 = 1.0
    {"omega": "1", "target": 0, "format": "xml"},
    {"omega": "1", "target": 0, "tar": 0},
    {"omega": "1", "target": 0, "grid": [4, 4], "out": ["a", "b"]},
    {"omega": "1", "target": 0, "config": "other.json"},
])
def test_bad_config_entries_exit_2_before_any_work(tmp_path, capsys, entries):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entries))
    rc = main(["check", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_abbreviated_flags_are_refused(capsys):
    assert main(["check", "--omega", "1", "--tar", "0"]) == 2
    assert "unrecognized arguments: --tar" in capsys.readouterr().err


def test_family_config_key_cannot_override_the_family_name(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "timelike", "c1": -4, "R": 2}))
    rc = main(["family", "flat", "--phi", "1", "--psi", "1", "--config", str(cfg)])
    assert rc == 2
    assert "unrecognized arguments: --family=timelike" in capsys.readouterr().err


def test_config_lists_booleans_and_nulls(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"phi": "l", "psi": "l", "R": 2, "k": None,
                               "raw_antiderivative": True, "grid": [5, 5],
                               "out": "grid.csv"}))
    rc = main(["family", "liouville", "--config", str(cfg), "--out",
               str(tmp_path / "flag.csv")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == OMEGA1_NULL_PRINTED
    assert len((tmp_path / "flag.csv").read_text().splitlines()) == 26

    cfg.write_text(json.dumps({"omega": "1", "target": 0, "tol": None,
                               "raw_antiderivative": False, "grid": "8x8"}))
    assert main(["check", "--config", str(cfg)]) == 0   # a null tol used to crash
    assert "PASS (tolerance 1e-06)" in capsys.readouterr().out

    cfg.write_text(json.dumps({"omega": "1", "domain": "rect:-2,2,-2,2",
                               "grid": [20, 20], "levels": [-1, 0.5]}))
    assert main(["contour", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("level -1: 2 polylines") and "level 0.5: 2 polylines" in out


def test_mean_deviation_stays_finite_in_the_json_report(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    rc = main(["check", "--omega", "1", "--target", "1e305",
               "--out", str(out_file)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "mean deviation = -1.000000e+305" in captured.out
    payload = json.loads(out_file.read_text(), parse_constant=pytest.fail)
    assert payload["mean_deviation"] == pytest.approx(-1e305, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["check", "--omega", "1", "--target", "0", "--grid", "4x4"],
    ["contour", "--omega", "1", "--grid", "4x4", "--levels", "1"],
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # used to end in a FileNotFoundError traceback with exit 1, the code
    # of a failed claim
    rc = main([*argv, "--out", str(tmp_path / "missing" / "r.out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2]")


@pytest.mark.parametrize("argv", [
    ["check", "--omega", "1", "--target", "0"],
    ["contour", "--omega", "1", "--levels", "1"],
])
def test_grid_too_large_to_allocate_exits_2(monkeypatch, capsys, argv):
    # ``--grid 100000x100000`` used to end in numpy's _ArrayMemoryError
    # traceback with exit 1, the code of a failed claim
    def sample_grid(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                          "shape (100000, 100000) and data type float64")

    monkeypatch.setattr(analysis, "sample_grid", sample_grid)
    assert main([*argv, "--grid", "100000x100000"]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 74.5 GiB for an array with "
        "shape (100000, 100000) and data type float64\n")


# Option text: half of it valid, the rest any float repr (nan and inf
# included), out-of-range literals, junk or empty strings.
_WILD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e999", "-1e999", "nan", "inf", "-inf", "", " ", "junk", "1,2"]),
    st.text(alphabet="0123456789.e-+xinf, ", max_size=6))


def _half_valid(valid):
    return st.booleans().flatmap(lambda ok: valid if ok else _WILD)


_NUMBER = _half_valid(st.floats(-3.0, 3.0).map(repr))
# a value for every flag the contract draws; grid and target are drawn
# whenever a subcommand takes them
_VALUES = {
    "grid": _half_valid(st.tuples(st.integers(1, 6), st.integers(1, 6))
                        .map("{0[0]}x{0[1]}".format)),
    "target": _NUMBER,
    "tol": _half_valid(st.sampled_from(["1e-6", "0.5", "10"])),
    "levels": st.lists(_NUMBER, min_size=1, max_size=3).map(",".join),
    "domain": _half_valid(st.one_of(
        st.sampled_from(["diamond", "rect:-1,1,-1,1", "rect:0,1e308,-1e308,0"]),
        st.lists(_NUMBER, min_size=3, max_size=5).map(lambda b: "rect:" + ",".join(b)))),
    "format": _half_valid(st.sampled_from(["csv", "json", "svg"])),
}
_REQUIRED = ("grid", "target")
# random family parameters would reach the Omega^3 underflow of the
# curvature formula (a known ZeroDivisionError gated by the benchmark),
# so the factor is fixed
_FACTORS = {"check": ["check", "--omega", "1"],
            "compactify": ["compactify", "--omega", "1"],
            "contour": ["contour", "--omega", "1"],
            "family": ["family", "flat", "--phi", "1", "--psi", "1"]}
# flags that the contract does not draw: the factor and the files
_NOT_DRAWN = {"help", "family", "omega", "phi", "psi", "c1", "c2", "d1", "d2", "k", "C",
              "R", "raw-antiderivative", "out", "config"}


def _subcommand_flags() -> dict:
    """The long flags each subcommand's parser registers, without ``--``."""
    (commands,) = (action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return {name: {flag[2:] for action in parser._actions
                   for flag in action.option_strings if flag.startswith("--")}
            for name, parser in commands.choices.items()}


_FLAGS = _subcommand_flags()


def test_the_contract_draws_every_flag():
    # a new flag needs a value in _VALUES before the contract covers it
    assert set(_FLAGS) == set(_FACTORS)
    for flags in _FLAGS.values():
        assert flags - _NOT_DRAWN <= set(_VALUES)


def _finite_or_junk(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return True


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc in (0, 1, 2, 3)
    assert ("error:" in captured.err) == (rc in (2, 3)), captured.err
    return rc, captured.out


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_FACTORS)), data=st.data())
def test_cli_contract(tmp_path, capsys, command, data):
    factor, flags = _FACTORS[command], _FLAGS[command]
    options = data.draw(st.fixed_dictionaries(
        {k: _VALUES[k] for k in _REQUIRED if k in flags},
        optional={k: v for k, v in _VALUES.items() if k in flags and k not in _REQUIRED}),
        label="options")
    rc, out = _run([*factor, *(f"--{k}={v}" for k, v in options.items())], capsys)
    numbers = [options.get("target", ""), options.get("tol", "")]
    numbers += options.get("levels", "").split(",")
    if options.get("domain", "").startswith("rect:"):
        numbers += options["domain"][len("rect:"):].split(",")
    if not all(map(_finite_or_junk, numbers)):
        assert rc == 2

    moved = data.draw(st.sets(st.sampled_from(sorted(options))), label="moved")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({k: options[k] for k in moved}))
    kept = (f"--{k}={v}" for k, v in options.items() if k not in moved)
    assert _run([*factor, "--config", str(cfg), *kept], capsys) == (rc, out)

    # a flag of another subcommand is refused before any work
    foreign = data.draw(st.sampled_from(sorted(set(_VALUES) - flags)), label="foreign")
    value = data.draw(_VALUES[foreign], label="foreign value")
    assert _run([*factor, f"--{foreign}={value}"], capsys) == (2, "")
