import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import FAMILY_STRINGS, strict_json
from solvgeo import cli, curvature, moduli, soliton
from solvgeo.curvature import ricci_closed_form
from solvgeo.errors import NonSPDMetricError, SingularMatrixError
from solvgeo.lie_core import Family, parse_family
from solvgeo.moduli import frame_constants, rep_matrix

CSV_HEADER = "family,a,lambda,is_soliton,soliton_residual,H_norm,orbit_dim,agrees"


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_families_listing(capsys):
    code, out = run(capsys, ["families", "--format", "json"])
    assert code == 0
    assert sorted(json.loads(out)) == ["h3", "r3", "r3_1", "r3_a", "r3p_a"]


def test_families_single(capsys):
    code, out = run(capsys, ["families", "--family", "r3a:a=0.5", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "r3a:a=0.5"
    assert data["a"] == 0.5
    assert data["jacobi_residual"] == 0.0
    assert [1, 2, 2, 1.0] in data["structure_constants"]
    assert [1, 3, 3, 0.5] in data["structure_constants"]


@pytest.mark.parametrize("tag", ["r3pa:a=1e155", "r3pa:a=1e308"])
def test_families_at_a_huge_parameter(capsys, tag):
    # a * a overflows here; the Jacobi sum reads no product of two a's
    code, out = run(capsys, ["families", "--family", tag, "--format", "json"])
    assert code == 0
    assert json.loads(out)["jacobi_residual"] == 0.0


def test_ricci_default_gram(capsys):
    code, out = run(capsys, ["ricci", "--family", "r3_1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["scalar"] == pytest.approx(-6.0, abs=1e-12)
    np.testing.assert_allclose(data["ric_canonical"], -2 * np.eye(3), atol=1e-12)


def test_ricci_with_gram(capsys):
    gram = "4 0 0 0 1 0 0 0 1".split()
    code, out = run(capsys, ["ricci", "--family", "h3", "--gram"] + gram +
                    ["--format", "json"])
    assert code == 0
    data = json.loads(out)
    # frame bracket shrinks to [x1,x2] = x3/2, so curvatures scale by 1/4
    assert data["scalar"] == pytest.approx(-0.125, abs=1e-12)
    np.testing.assert_allclose(np.diag(data["ric_frame"]),
                               [-0.125, -0.125, 0.125], atol=1e-12)


def test_der_dimension(capsys):
    code, out = run(capsys, ["der", "--family", "r3_1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6
    assert len(data["basis"]) == 6
    code, out = run(capsys, ["der", "--family", "r3", "--lambda", "2.0",
                             "--format", "json"])
    data = json.loads(out)
    assert data["dim"] == 4 and data["lambda"] == 2.0


def test_reduce_diag_gram(capsys):
    code, out = run(capsys, ["reduce", "--family", "r3", "--gram",
                             "1", "0", "0", "0", "1", "0", "0", "0", "16",
                             "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == pytest.approx(4.0, abs=1e-12)
    assert data["k_scale"] == pytest.approx(1.0, abs=1e-12)
    assert data["steps"] == ["lq_orthogonal", "f_normalizer", "shear"]
    assert data["witness_residual"] < 1e-10
    assert [1, 2, 3, 4.0] in data["frame_brackets"]


def test_reduce_requires_gram(capsys):
    code = cli.main(["reduce", "--family", "r3"])
    assert code == 2
    assert "gram" in capsys.readouterr().err


def test_gram_file_round_trip(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 16]]))
    code, out = run(capsys, ["reduce", "--family", "r3", "--gram-file", str(path),
                             "--format", "json"])
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(4.0, abs=1e-12)


def test_gram_file_wrong_shape(tmp_path, capsys):
    # numbers of the wrong shape get the SPD check's message; an entry that
    # is not a JSON number is reported with the file
    cases = [("[[1, 0], [0, 1]]", "Gram matrix must be 3x3, got shape (2, 2)")]
    for found, text in [('{"a": 1}', '{"a": 1}'),
                        ("null", "[[1, 0, 0], [0, 1, 0], [0, 0, null]]"),
                        ('"x"', '[[1, 0, 0], [0, "x", 0], [0, 0, 1]]'),
                        ("true", "[[1, 0, 0], [0, true, 0], [0, 0, 1]]"),
                        ("{}", "[[1, 0, 0], [0, 1, {}], [0, 0, 1]]")]:
        cases.append((text, f"Gram matrix entries must be JSON numbers, found {found}"))
    for i, (text, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        if i:
            message = f"{path}: {message}"
        for command in ("reduce", "ricci", "soliton", "orbit"):
            assert cli.main([command, "--family", "r3", "--gram-file", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n", (command, text)


def test_gram_file_unreadable_as_floats(tmp_path, capsys):
    # not JSON, a ragged list, and an integer past float64
    for text in ("nope", "[[1, 0], [0]]", "[[1, 0, 0], [0, 1, 0], [0, 0, 1%s]]" % ("0" * 400)):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["soliton", "--family", "r3", "--gram-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


def test_soliton_certificate(capsys):
    code, out = run(capsys, ["soliton", "--family", "h3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["is_soliton"] and not data["is_einstein"]
    assert data["c"] == pytest.approx(-1.5, abs=1e-10)
    np.testing.assert_allclose(data["D"], np.diag([1.0, 1.0, 2.0]), atol=1e-10)


def test_soliton_rejects_lambda_and_gram(capsys):
    code = cli.main(["soliton", "--family", "r3", "--lambda", "1.0",
                     "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1"])
    assert code == 2


def test_orbit_dims(capsys):
    code, out = run(capsys, ["orbit", "--family", "r3pa:a=1.0", "--lambda", "2.0",
                             "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["orbit_dim"] == 5 and data["stab_dim"] == 0
    assert data["H_norm"] == pytest.approx(np.sqrt(2) / 3, rel=1e-10)
    code, out = run(capsys, ["orbit", "--family", "h3", "--format", "json"])
    data = json.loads(out)
    assert data["orbit_dim"] == 6 and data["stab_dim"] == 1
    assert data["H_norm"] == 0.0


def test_orbit_gram_scale_invariant(capsys):
    # conjugating by s*g is conjugating by g, so |H| cannot depend on scale
    def h_norm(scale):
        gram = [repr(scale * x) for x in (1, 0, 0, 0, 1, 0.5, 0, 0.5, 1)]
        code, out = run(capsys, ["orbit", "--family", "r3a:a=0.5", "--gram"]
                        + gram + ["--format", "json"])
        assert code == 0
        return json.loads(out)["H_norm"]

    base = h_norm(1.0)
    assert base == pytest.approx(np.sqrt(2) / 10, abs=1e-12)
    for scale in (1e9, 1e12):
        assert h_norm(scale) == pytest.approx(base, abs=1e-12)


def test_verify_csv_header_and_fields(capsys):
    code, out = run(capsys, ["verify", "--family", "r3", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 51
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        assert row["family"] == "r3"
        assert row["a"] == ""
        float(row["lambda"]); float(row["soliton_residual"]); float(row["H_norm"])
        assert row["is_soliton"] == "false"
        assert row["orbit_dim"] == "5"
        assert row["agrees"] == "true"


def test_verify_json_reruns_byte_identical(capsys):
    argv = ["verify", "--family", "r3a:a=-0.5", "--format", "json"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)
    assert len(rows) == 51
    assert list(rows[0]) == ["family", "a", "lambda", "is_soliton",
                             "soliton_residual", "H_norm", "orbit_dim", "agrees"]
    soliton_rows = [r for r in rows if r["is_soliton"]]
    assert [r["lambda"] for r in soliton_rows] == [0.0]


def test_verify_explicit_lambdas(capsys):
    # a = 1e4 is a regression row of ROADMAP item 1: right at large brackets
    for family in ("r3pa:a=1.0", "r3pa:a=1e4"):
        code, out = run(capsys, ["verify", "--family", family,
                                 "--lambda", "1.0,2.0", "--format", "csv"])
        assert code == 0, family
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["is_soliton"] == "true" and rows[0]["orbit_dim"] == "4"
        assert rows[1]["is_soliton"] == "false" and rows[1]["orbit_dim"] == "5"


def test_verify_near_round_point(capsys):
    code, out = run(capsys, ["verify", "--family", "r3pa:a=1.0",
                             "--lambda", "1.00000000001", "--format", "csv"])
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["orbit_dim"] == "4" and row["agrees"] == "true"


def test_verify_grid_flag(capsys):
    code, out = run(capsys, ["verify", "--family", "h3", "--grid", "1:1:1",
                             "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["orbit_dim"] == "6"


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code = cli.main(["verify", "--family", "h3", "--format", "csv",
                     "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().startswith(CSV_HEADER)


def test_verify_disagreement_exit_code(monkeypatch, capsys):
    # the theorem leaves no row that disagrees, so the exact row is made to
    # call a minimal orbit a non-soliton; every other row still agrees
    argv = ["verify", "--family", "r3a:a=0.5", "--lambda", "0,2", "--format", "csv"]
    flags = soliton.frame_flags
    monkeypatch.setattr(soliton, "frame_flags", lambda fam, lam: (False, False, True)
                        if lam == 0 else flags(fam, lam))
    code, out = run(capsys, argv)
    assert code == 1
    assert [r["agrees"] for r in csv.DictReader(io.StringIO(out))] == ["false", "true"]
    monkeypatch.undo()
    assert run(capsys, argv)[0] == 0


def refuses_tol(capsys, argv):
    # argparse refuses --tol as it refuses any unknown option
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--tol", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err


def test_verify_reads_tol_alike_for_both_verdicts(capsys):
    # both verdicts are exact, so neither takes a tolerance: soliton --gram and
    # verify refuse --tol alike.  On this Gram matrix lambda^2 = 1/4, off
    # r3_a's soliton at lambda = 0, and its residual is 0.21
    gram = ["1.5", "0.25", "0", "0.25", "1", "0.5", "0", "0.5", "1.25"]
    data = json.loads(run(capsys, ["soliton", "--family", "r3a:a=0.5", "--gram", *gram,
                                   "--format", "json"])[1])
    assert (data["is_soliton"], data["is_einstein"]) == (False, False)
    assert "tol" not in data and 0.2 < data["residual"] < 0.21
    refuses_tol(capsys, ["soliton", "--family", "r3a:a=0.5", "--gram", *gram])
    refuses_tol(capsys, ["verify", "--family", "r3a:a=0.5", "--lambda", "2"])


def test_soliton_lambda_refuses_tol(capsys):
    # soliton --lambda refuses --tol as the default-Gram soliton does, and
    # neither prints a tol key
    for argv in (["soliton", "--family", "r3pa:a=1.0", "--lambda", "1"],
                 ["soliton", "--family", "r3pa:a=1.0"]):
        refuses_tol(capsys, argv)
        assert "tol" not in json.loads(run(capsys, argv + ["--format", "json"])[1])
    data = json.loads(run(capsys, ["soliton", "--family", "r3pa:a=1.0", "--format", "json"])[1])
    assert data["mode"] == "gram"


def test_verify_has_no_tol(capsys):
    # the verdicts are exact, so verify takes no tolerance
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--tol" not in capsys.readouterr().out
    assert [f.name for f in fields(cli.RunConfig)] == ["family", "grid"]


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "nope"],
    ["verify", "--family", "r3a:a=2.0"],
    ["verify", "--family", "r3pa:a=-1.0"],
    ["verify", "--family", "r3", "--grid", "1:2"],
    ["verify", "--family", "r3", "--grid", "1:2:0"],
    ["verify", "--family", "r3", "--lambda", "1.0", "--grid", "1:2:3"],
    ["verify", "--family", "r3", "--lambda", "0.0"],
    ["verify", "--family", "r3pa:a=1.0", "--grid", "0.5:2:4"],
    ["verify", "--family", "r3a"],
    ["ricci", "--family", "h3", "--gram",
     "1", "0", "0", "0", "-1", "0", "0", "0", "1"],
    ["families", "--out", "."],
])
def test_invalid_configurations_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (["verify", "--family", "r3pa:a=inf", "--lambda", "2"], "requires a finite parameter"),
    (["verify", "--family", "r3", "--lambda", "inf"], "lambda must be finite"),
    (["ricci", "--family", "h3", "--gram", "1", "0", "0", "0", "nan", "0", "0", "0", "1"],
     "entry (2, 2) is not finite: nan"),
    (["reduce", "--family", "r3", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "inf"],
     "entry (3, 3) is not finite: inf"),
] + [
    # the Gram verdict names a bad entry before it reads any entry as an integer
    (["soliton", "--family", "r3pa:a=1.0", "--gram",
      *(bad if i == k else "1" if i % 4 == 0 else "0" for i in range(9))],
     f"entry ({k // 3 + 1}, {k % 3 + 1}) is not finite: {float(bad)}")
    for k in (0, 5)
    for bad in ("nan", "inf", "-1e999", "1e999")
] + [
    # a grid whose span is not finite is named, not blamed on a lambda
    (["verify", "--family", "r3a:a=0.5", "--grid", grid],
     f"grid {grid!r} needs a finite start, stop and stop - start")
    for grid in ("-1e308:1e308:3", "-1e308:1e308:1", "1:inf:3", "nan:1:3")
] + [
    # a malformed number names its option and quotes the text given
    (["verify", "--family", "r3a:a=0.5", "--grid", grid],
     f"--grid {grid!r} must be start:stop:count with a whole count")
    for grid in ("a:2:3", "1:2:x", "1:2:1e3")
] + [
    (["verify", "--family", "r3a:a=0.5", "--lambda", lam],
     f"--lambda {lam!r} must be comma-separated numbers")
    for lam in ("1,x", ",1")
])
def test_non_finite_input_named(capsys, argv, message):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


_OVERFLOW = "Ricci operator is not finite: the curvature overflows float64 for this metric"


@pytest.mark.parametrize("argv,message", [
    # the curvature of g_lambda overflows float64, so its float numbers are refused
    (["verify", "--family", "r3pa:a=1", "--lambda", "1e200"],
     f"{_OVERFLOW} at lambda = 1e+200"),
    # 1 / lambda is inf: frame_algebra refuses g_lambda
    (["verify", "--family", "r3", "--lambda", "1e-320"],
     "conjugating matrix is singular or not finite at lambda = 1e-320"),
    (["verify", "--family", "r3a:a=0.5", "--lambda", "1e300"],
     f"{_OVERFLOW} at lambda = 1e+300"),
    (["verify", "--family", "r3", "--lambda", "1,1e-320,2"],
     "conjugating matrix is singular or not finite at lambda = 1e-320"),
    (["verify", "--family", "r3", "--grid", "1e-320:1:3"],
     "conjugating matrix is singular or not finite at lambda = 1e-320"),
    (["soliton", "--family", "r3", "--lambda", "1e-320"],
     "conjugating matrix is singular or not finite at lambda = 1e-320"),
    (["soliton", "--family", "r3pa:a=1", "--lambda", "1e200"],
     f"{_OVERFLOW} at lambda = 1e+200"),
    # a refused row writes no JSON document either
    (["soliton", "--family", "r3", "--lambda", "1e-320", "--format", "json"],
     "conjugating matrix is singular or not finite at lambda = 1e-320"),
    (["der", "--family", "r3", "--lambda", "1e-300"],
     "conjugating matrix is singular at lambda = 1e-300"),
    (["der", "--family", "r3", "--lambda", "1e300"],
     "conjugating matrix is singular at lambda = 1e+300"),
    # cond(g) is exactly the limit, but a conjugated basis matrix falls to 1e-12
    (["der", "--family", "r3", "--lambda", "1e-12"],
     "conjugating matrix is singular at lambda = 1e-12"),
])
def test_singular_lambda_named(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def _orbit_json(capsys, argv):
    assert cli.main(["orbit", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv,h_norm", [
    # the orbit applies no conditioning policy, so these rows are answered:
    # r3's |H| is sqrt(2)/5, its lambda = 1 value, at every lambda (C5), and
    # diag(1, 1, 1e-30) is r3 at lambda = 1e-15
    (["--family", "r3", "--lambda", "1e-300"], math.sqrt(2) / 5),
    (["--family", "r3", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1e-30"],
     math.sqrt(2) / 5),
    # diag(1, 1, t) pulls back I by an automorphism of r3_a: lambda = 0, H = 0
    (["--family", "r3a:a=0.5", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1e-25"], 0.0),
])
def test_extreme_orbit_rows_answered(capsys, argv, h_norm):
    data = _orbit_json(capsys, argv)
    assert data["orbit_dim"] == 5
    assert data["H_norm"] == pytest.approx(h_norm, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family,gram", [
    # lambda about 3e-13 and 7e6, and 1e13: g_lambda is past COND_LIMIT, which
    # a float change_basis applies, and frame_algebra reads it in closed form
    ("r3", "1 0 0 0 1 0 0 0 1e-25"),
    ("r3a:a=0.5", "1 0 0 0 1 .99999999999999 0 .99999999999999 1"),
    ("r3pa:a=0.5", "1 0 0 0 1 0 0 0 1e-26"),
])
def test_reduce_lists_closed_form_brackets_at_extreme_lambda(capsys, family, gram):
    code, out = run(capsys, ["reduce", "--family", family, "--gram", *gram.split(),
                             "--format", "json"])
    assert code == 0
    data = json.loads(out)
    fam, lam = parse_family(family), data["lambda"]
    assert data["rep_matrix"] == rep_matrix(fam, lam).tolist()
    # the nonzero brackets of g_lambda, each within one ulp of the exact one
    exact = frame_constants(fam, Fraction(lam), exact=True).nonzero()
    assert [row[:3] for row in data["frame_brackets"]] == [[i + 1, j + 1, k + 1]
                                                           for i, j, k, _ in exact]
    for (*_, x), (*_, want) in zip(data["frame_brackets"], exact):
        assert abs(x - float(want)) <= math.ulp(float(want)), (x, want)


def test_reduce_lists_the_brackets_and_solves_no_derivation(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a derivation algebra was read")
    for name in ("frame_algebra", "derivation_algebra"):
        monkeypatch.setattr(moduli, name, refuse)
    for family in ("r3", "r3a:a=0.375", "r3pa:a=0.625", "h3"):
        code, out = run(capsys, ["reduce", "--family", family, "--gram", "2", "0.3", "-0.4",
                                 "0.3", "1.5", "0.2", "-0.4", "0.2", "0.8", "--format", "json"])
        assert code == 0 and json.loads(out)["frame_brackets"], family


@pytest.mark.parametrize("argv", [
    ["--family", "r3a:a=0.5", "--lambda", "0"],
    ["--family", "r3a:a=0.5", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1e-25"],
    ["--family", "r3a:a=0.5", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1e-300"],
])
def test_minimal_orbit_components_are_positive_zeros(capsys, argv):
    # a zero sum negated once printed as -0.0
    components = [n["component"] for n in _orbit_json(capsys, argv)["per_normal"]]
    assert components and all(math.copysign(1.0, v) == 1.0 and v == 0.0 for v in components)


@pytest.mark.parametrize("argv", [
    # the conditioning refusal of g_lambda once hid these rows; r3 has no soliton
    ["verify", "--family", "r3", "--lambda", "1e-300"],
    ["verify", "--family", "r3", "--lambda", repr(math.nextafter(1e-12, 0))],
    ["soliton", "--family", "r3", "--lambda", "1e-300"],
    ["soliton", "--family", "r3", "--lambda", repr(math.nextafter(1e-12, 0))],
])
def test_extreme_lambda_rows_decided_exactly(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    data = json.loads(out)
    if argv[0] == "verify":
        (row,) = data
        assert row["agrees"] is True
    else:
        row = data
        assert row["is_einstein"] is False
    assert row["is_soliton"] is False


def test_verify_main_theorem_names_singular_lambda():
    cfg = cli.RunConfig(family=cli.Family("r3"), grid=(1.0, 1e-320))
    with pytest.raises(SingularMatrixError, match=r"at lambda = 1e-320$"):
        cli.verify_main_theorem(cfg)


def test_verify_main_theorem_names_overflowing_lambda():
    cfg = cli.RunConfig(family=cli.Family("r3_a", 0.5), grid=(1.0, 1e300))
    with pytest.raises(ValueError, match=r"^Ricci operator is not finite: .* at lambda = 1e\+300$"):
        cli.verify_main_theorem(cfg)


@pytest.mark.parametrize("gram,code,err", [
    (["2", "0.3", "-0.4", "0.3", "1.5", "0.2", "-0.4", "0.2", "0.8"], 0, ""),
    (["1", "2", "0", "2", "1", "0", "0", "0", "1"], 2,
     "error: Gram matrix is not positive definite\n"),
], ids=["spd", "indefinite"])
def test_ricci_factors_the_gram_matrix_once(monkeypatch, capsys, gram, code, err):
    # ricci_operator's own LDL^T is the one SPD check: no second factorization
    calls = []
    original = curvature._gram_ldl
    monkeypatch.setattr(curvature, "_gram_ldl", lambda g: calls.append(g) or original(g))
    assert cli.main(["ricci", "--family", "r3pa:a=1.0", "--gram", *gram]) == code
    assert capsys.readouterr().err == err
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["soliton", "--family", "r3pa:a=1e200"],
    ["verify", "--family", "r3pa:a=1e200", "--lambda", "2"],
    ["ricci", "--family", "r3pa:a=1e200"],
])
def test_non_finite_ricci_rejected(capsys, argv):
    # the curvature of a finite but huge parameter overflows to inf and NaN
    assert cli.main(argv + ["--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Ricci operator is not finite")


def _run_fresh(argv):
    """Run the CLI in a fresh interpreter, which prints any numpy
    RuntimeWarning that pytest would hide."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "solvgeo.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["ricci", "--family", "r3pa:a=1e200"],
    ["soliton", "--family", "r3pa:a=1e200"],
    ["verify", "--family", "r3pa:a=1e200", "--lambda", "2"],
    # every entry of Ric is finite here, but their trace overflows
    ["ricci", "--family", "r3pa:a=6e153"],
    ["soliton", "--family", "r3pa:a=6e153"],
    ["soliton", "--family", "r3pa:a=6e153", "--lambda", "1"],
    ["verify", "--family", "r3pa:a=6e153", "--lambda", "1"],
    # at this anisotropy an entry scaled by P = diag(2^e) overflows (curvature._ldexp)
    ["ricci", "--family", "r3pa:a=0.5", "--gram", "1e-300", "0", "0", "0", "1e300", "0", "0", "0",
     "1e-300"],
    ["soliton", "--family", "r3pa:a=0.5", "--gram", "1e-300", "0", "0", "0", "1e300", "0", "0",
     "0", "1e-300"],
])
def test_non_finite_ricci_writes_one_stderr_line(argv):
    proc = _run_fresh(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    # a refusal at a lambda names it
    at = f" at lambda = {float(argv[argv.index('--lambda') + 1])!r}" if "--lambda" in argv else ""
    assert proc.stderr.splitlines() == [f"error: {_OVERFLOW}{at}"]


def test_families_at_a_huge_parameter_warns_nothing():
    proc = _run_fresh(["families", "--family", "r3pa:a=1e155"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "jacobi_residual: 0.0" in proc.stdout.splitlines()


def test_overflowing_grid_writes_one_stderr_line():
    # the span overflows float64: the grid is refused before numpy can warn
    proc = _run_fresh(["verify", "--family", "r3a:a=0.5", "--grid", "-1e308:1e308:3"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: grid '-1e308:1e308:3' needs a finite start, stop and stop - start"]


@pytest.mark.parametrize("argv,key,norm", [
    (["soliton", "--family", "r3", "--gram", "1e-200", "0", "0", "0", "1", "0", "0", "0", "1"],
     "residual", 1.224744871391589e200),
])
def test_huge_soliton_residual_is_finite(argv, key, norm):
    # the squares of these residual entries overflow float64; their norm does not
    proc = _run_fresh(argv + ["--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    row = data[0] if argv[0] == "verify" else data
    assert row[key] == pytest.approx(norm, rel=1e-12)
    assert row["is_soliton"] is False


def test_huge_frame_soliton_residual_is_exact():
    # |Ric| is about 1e300 here, so the squares of the residual's entries
    # overflow float64.  On the Milnor frame Ric = r11 + R, and the residual
    # is the part of R's traceless part R0 orthogonal to A0, the traceless
    # part of ad(x1) on span{x2, x3}: |R0|^2 - <R0, A0>^2 / |A0|^2, in Fractions
    fam, lam = Family("r3p_a", 1e150), Fraction(2)
    a, b, c, d = frame_constants(fam, lam, exact=True).c[0, 1:, 1:].ravel().tolist()
    (p, q), (_, t) = ricci_closed_form(a, b, c, d)[1:, 1:].tolist()
    r0_a0 = (p - t) * (a - d) / 2 + q * (b + c)
    square = (p - t) ** 2 / 2 + 2 * q * q - r0_a0 ** 2 / ((a - d) ** 2 / 2 + b * b + c * c)
    proc = _run_fresh(["verify", "--family", "r3pa:a=1e150", "--lambda", "2",
                       "--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    (row,) = json.loads(proc.stdout)
    assert row["soliton_residual"] == pytest.approx(math.sqrt(square), rel=1e-15)
    assert row["is_soliton"] is False


@pytest.mark.parametrize("argv,key,value", [
    (["ricci", "--family", "r3", "--gram", "1e-290", "0", "0", "0", "1", "0", "0", "0", "1"],
     "scalar", -6.499999999999999e290),
    (["soliton", "--family", "r3", "--gram", "1e-290", "0", "0", "0", "1", "0", "0", "0", "1"],
     "residual", 1.2247448713915887e290),
])
def test_huge_frame_ricci_is_finite(argv, key, value):
    # the frame has entries near 1e145: frame @ ric_frame overflows float64
    # unless the frame is scaled down before inv(frame) scales it back
    proc = _run_fresh(argv + ["--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    assert data[key] == pytest.approx(value, rel=1e-12)


def test_tiny_soliton_residual_is_read(capsys):
    # the squares of this residual's entries underflow float64; its norm does not
    gram = ["1e200", "0", "0", "0", "1e200", "0", "0", "0", "1e200"]
    code, out = run(capsys, ["soliton", "--family", "r3", "--gram"] + gram + ["--format", "json"])
    assert code == 0
    assert json.loads(out)["residual"] == 1.224744871391589e-200


@pytest.mark.parametrize("family", FAMILY_STRINGS)
def test_orbit_reads_extreme_gram_matrices(capsys, family):
    # S (m m^T + 1e-3 I) S with S = diag(10^U(-150, 150)): each is answered or
    # refused by name, with no traceback, and a RuntimeWarning fails the run
    rng = np.random.default_rng(113)
    answered = 0
    for _ in range(40):
        m, s = rng.normal(size=(3, 3)), np.diag(10.0 ** rng.uniform(-150.0, 150.0, 3))
        gram = [repr(x) for x in (s @ (m @ m.T + 1e-3 * np.eye(3)) @ s).ravel().tolist()]
        code = cli.main(["orbit", "--family", family, "--gram", *gram])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            answered += 1
        else:
            assert code == 2 and out == "" and err.startswith("error: ")
            assert err.count("\n") == 1, err
    assert answered >= 20


@pytest.mark.parametrize("family", ["r3", "r3a:a=0.5", "r3pa:a=0.5"])
def test_reduce_reads_extreme_gram_matrices(capsys, family):
    # S (m m^T + 1e-3 I) S with S = diag(10^U(-155, 150)): each witness is
    # finite or refused by name, and a RuntimeWarning fails the run
    rng = np.random.default_rng(11)
    answered = 0
    for _ in range(300):
        m, s = rng.normal(size=(3, 3)), np.diag(10.0 ** rng.uniform(-155.0, 150.0, 3))
        gram = [repr(x) for x in (s @ (m @ m.T + 1e-3 * np.eye(3)) @ s).ravel().tolist()]
        code = cli.main(["reduce", "--family", family, "--gram", *gram, "--format", "json"])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            assert math.isfinite(strict_json(out)["witness_residual"])
            answered += 1
        else:
            assert code == 2 and out == "" and err.startswith("error: ")
            assert err.count("\n") == 1, err
    assert answered >= 150


@pytest.mark.parametrize("family,gram", [
    # scalar = m11 m22 / m33 = 1e-300: k_scale underflowed to 0.0 and the
    # automorphism factor m / scalar overflowed
    ("h3", ["1e-200", "0", "0", "0", "1e-200", "0", "0", "0", "1e200"]),
    # scalar = 1e160: k_scale = scalar ** 2 raised OverflowError
    ("h3", ["1e60", "0", "0", "0", "1e60", "0", "0", "0", "1e-200"]),
    # phi1, a32 and a33 are finite, but the shear's -a32 u + v overflows: the
    # witness held an inf, and its residual was NaN
    ("r3", ["4.7119466512248655e-213", "6.539139071796028e-75", "1.947816093919244e-248",
            "6.539139071796029e-75", "1.114891519386407e+64", "2.1149096182233425e-110",
            "1.947816093919244e-248", "2.1149096182233422e-110", "5.529312998174583e-283"]),
], ids=["gram0", "gram1", "r3_shear"])
def test_reduce_witness_overflow_named(capsys, family, gram):
    assert cli.main(["reduce", "--family", family, "--gram", *gram]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: reduction witness is not finite: its factors overflow float64 "
                   "for this metric\n")


# the float LDL^T's pivot D2 of this Gram matrix is > 0, but g22 g33 - g23^2 < 0 exactly
_NEGATIVE_MINOR_GRAM = ["10", "0", "0", "0", "0.11282462554412924", "0.4471535199604686",
                        "0", "0.4471535199604686", "1.7721864304777324"]


def test_gram_commands_take_one_spd_decision(capsys):
    # cond(G) = 1.5e17: LAPACK Cholesky accepted it for reduce and orbit
    # while soliton and ricci refused it; and a Gram matrix that ricci, reduce
    # and orbit answered from the float D2 while soliton's exact test refused it
    gram = ["2.142384561343725", "1.2153360831146258", "0.40171585428202067",
            "1.2153360831146258", "1.1679779838614022", "0.6589034701014339",
            "0.40171585428202067", "0.6589034701014339", "0.46353943123111296"]
    for family, gram in (("r3", gram), ("r3a:a=0.5", _NEGATIVE_MINOR_GRAM)):
        outcomes = set()
        for command in ("reduce", "orbit", "soliton", "ricci"):
            code = cli.main([command, "--family", family, "--gram"] + gram)
            outcomes.add((code, capsys.readouterr().err))
        assert len(outcomes) == 1 and next(iter(outcomes))[0] in (0, 2), outcomes
    assert outcomes == {(2, "error: Gram matrix is not positive definite\n")}


def test_soliton_refuses_a_gram_whose_exact_pivot_is_negative(capsys):
    # g22 g33 - g23^2 < 0 exactly, so the exact verdict has no frame to be read
    # on, and _gram_ldl, every Gram command's one SPD check, refuses it too
    gram = _NEGATIVE_MINOR_GRAM
    g22, g23, g33 = (Fraction(float(gram[k])) for k in (4, 5, 8))
    assert g22 * g33 - g23 * g23 < 0
    with pytest.raises(NonSPDMetricError, match="^Gram matrix is not positive definite$"):
        curvature.block_ricci(np.array(gram, dtype=float).reshape(3, 3), (1.0, 0.0, 0.0, 0.5))
    assert cli.main(["soliton", "--family", "r3a:a=0.5", "--gram"] + gram) == 2
    assert capsys.readouterr() == ("", "error: Gram matrix is not positive definite\n")


def test_scaled_identity_ricci_is_read():
    # the orthonormal frame 1e-150 I failed change_basis's absolute determinant test
    gram = ["1e300", "0", "0", "0", "1e300", "0", "0", "0", "1e300"]
    proc = _run_fresh(["ricci", "--family", "r3", "--gram"] + gram + ["--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    # r3 at the identity metric has scalar curvature -6.5
    assert json.loads(proc.stdout)["scalar"] == pytest.approx(-6.5 / 1e300, rel=1e-12)


@pytest.mark.parametrize("argv,twin", [
    ("soliton --family r3 --gram 1 0 0 0 1 -1e-05 0 -1e-05 1",
     "soliton --family r3 --gram 1 0 0 0 1 -0.00001 0 -0.00001 1"),
    ("soliton --family r3a:a=0.5 --lambda -1e-9", "soliton --family r3a:a=0.5 --lambda=-1e-9"),
    ("verify --family r3a:a=0.5 --lambda -0.5,1", "verify --family r3a:a=0.5 --lambda=-0.5,1"),
    ("verify --family r3a:a=0.5 --grid -5:5:3", "verify --family r3a:a=0.5 --grid=-5:5:3"),
    ("verify --family r3a:a=0.5 --grid -5:5:51", "verify --family r3a:a=0.5"),
])
def test_negative_values_read_as_values(capsys, argv, twin):
    # argparse alone takes -1e-05, -0.5,1 and -5:5:3 for options
    code, out = run(capsys, argv.split())
    assert (code, out) == run(capsys, twin.split())
    assert code == 0 and out


def test_listed_family_names_accepted(capsys):
    # the names ``families`` lists are the tags; --family takes them too
    cli_spelling = {"h3": "h3", "r3": "r3", "r3_1": "r3_1", "r3_a": "r3a", "r3p_a": "r3pa"}
    code, out = run(capsys, ["families", "--format", "json"])
    assert code == 0
    for tag in json.loads(out):
        a = ":a=0.5" if tag in ("r3_a", "r3p_a") else ""
        want = run(capsys, ["der", "--family", cli_spelling[tag] + a])
        assert want[0] == 0
        assert run(capsys, ["der", "--family", tag + a]) == want, tag


@pytest.mark.parametrize("command", ["der", "ricci"])
def test_exact_flag_rejected(capsys, command):
    # the flag changed no output, so it is gone until an exact lane stands behind it
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--family", "r3pa:a=0.375", "--exact"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact" in capsys.readouterr().err


def test_unknown_format_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "r3", "--format", "yaml"])
    assert exc.value.code == 2


def test_table_output_aligned(capsys):
    code, out = run(capsys, ["verify", "--family", "h3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == CSV_HEADER.split(",")
    assert len(lines) == 2


REPORT_ROWS = [
    cli.VerifyRow(family="r3a:a=0.5", a=0.5, lam=-0.7, is_soliton=False,
                  soliton_residual=0.25, h_norm=0.1414, orbit_dim=5, agrees=True),
    cli.VerifyRow(family="h3", a=None, lam=1.0, is_soliton=True,
                  soliton_residual=0.0, h_norm=0.0, orbit_dim=6, agrees=True),
]
REPORT_DICT = {"family": "h3", "dim": np.int64(2), "H": np.array([[1.0, 0.0], [0.0, -0.5]]),
               "ok": True, "a": None}


@pytest.mark.parametrize("payload,fmt,expected", [
    (REPORT_ROWS, "csv",
     CSV_HEADER + "\n"
     "r3a:a=0.5,0.5,-0.7,false,0.25,0.1414,5,true\n"
     "h3,,1.0,true,0.0,0.0,6,true\n"),
    (REPORT_ROWS, "table",
     "family     a    lambda  is_soliton  soliton_residual  H_norm     orbit_dim  agrees\n"
     "r3a:a=0.5  0.5  -0.7    False       2.500e-01         1.414e-01  5          True  \n"
     "h3              1       True        0.000e+00         0.000e+00  6          True  \n"),
    (REPORT_DICT, "csv",
     'key,value\nfamily,"""h3"""\ndim,2\nH,"[[1.0, 0.0], [0.0, -0.5]]"\nok,true\na,null\n'),
    (REPORT_DICT, "table",
     "family: h3\ndim: 2\nH:\n"
     "             1             0\n"
     "             0          -0.5\n"
     "ok: True\na: None\n"),
], ids=["rows-csv", "rows-table", "dict-csv", "dict-table"])
def test_emit_report_text(payload, fmt, expected):
    assert cli.emit_report(payload, fmt) == expected


def test_emit_report_json():
    rows = json.loads(cli.emit_report(REPORT_ROWS, "json"))
    assert rows == [
        {"family": "r3a:a=0.5", "a": 0.5, "lambda": -0.7, "is_soliton": False,
         "soliton_residual": 0.25, "H_norm": 0.1414, "orbit_dim": 5, "agrees": True},
        {"family": "h3", "a": None, "lambda": 1.0, "is_soliton": True,
         "soliton_residual": 0.0, "H_norm": 0.0, "orbit_dim": 6, "agrees": True}]
    text = cli.emit_report(REPORT_DICT, "json")
    data = json.loads(text)
    assert data == {"family": "h3", "dim": 2, "H": [[1.0, 0.0], [0.0, -0.5]],
                    "ok": True, "a": None}
    assert text == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("payload,fmt,message", [
    ([], "json", "no rows to report"),
    (REPORT_ROWS, "yaml", "unknown format 'yaml'"),
    (REPORT_DICT, "yaml", "unknown format 'yaml'"),
], ids=["empty", "rows-yaml", "dict-yaml"])
def test_emit_report_rejects(payload, fmt, message):
    with pytest.raises(ValueError, match=message):
        cli.emit_report(payload, fmt)
