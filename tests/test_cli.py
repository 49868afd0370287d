"""End-to-end command-line behavior: exit codes, output, file exports."""

import json

import pytest

from lorentz2d.cli import main

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


def test_argparse_failures_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["check", "--family", "bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "lorentz2d" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# numeric/domain failures (exit 3)

def test_no_valid_samples_exit_3(capsys):
    rc = main(["check", "--omega", "log(t)", "--target", "0",
               "--domain", "rect:-2,-1,0,1", "--grid", "5x5"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error:" in err
