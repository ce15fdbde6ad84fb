"""Acceptance gate: one check per numbered criterion, each printing a
single PASS/FAIL line (visible with ``pytest -s`` or in failure output).

C2 is split in two: the dimension/pattern checks over the table, and a
separate check of dim Der(r3_1).  The acceptance table listed 5 there;
that was an erratum.  ad(e1) is the identity on span{e2, e3}, so the
derivations of r3_1 are the matrices with zero first row, and the check
now requires 6 together with that pattern (the exact-arithmetic oracle in
tests/oracles.py agrees).
"""

import numpy as np
import pytest

from helpers import (FAMILIES, abcd_constants, automorphism_residual,
                     random_group_element, random_spd)
from oracles import pattern_subspace, subspace_equal, trace_form
from solvgeo import cli
from solvgeo.curvature import metric_data, ricci_closed_form, ricci_operator
from solvgeo.derivations import MatrixSubspace, derivation_algebra
from solvgeo.lie_core import Family, make_family
from solvgeo.moduli import frame_constants, reduce, rep_matrix, witness_residual
from solvgeo.orbit_geometry import orbit_at
from solvgeo.soliton import soliton_from_frame, solvsoliton_check

R3_A_VALUES = (-1.0, -0.5, 0.0, 0.5)
R3P_A_VALUES = (0.0, 1.0, 2.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}{suffix}: {'PASS' if ok else 'FAIL'}")


def test_c1_ricci_pipeline_matches_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        sc = abcd_constants(a, b, c, d)
        res = ricci_operator(metric_data(sc, np.eye(3)))
        err = np.max(np.abs(res.ric_frame - ricci_closed_form(a, b, c, d)))
        worst = max(worst, float(err))
    ok = worst < 1e-10
    _report("C1 Ricci pipeline vs closed form over 1000 draws",
            ok, f"max err {worst:.3e}")
    assert ok


def test_c2_derivation_dimensions_and_patterns():
    dim4 = [Family("r3")]
    dim4 += [Family("r3_a", a) for a in R3_A_VALUES]
    dim4 += [Family("r3p_a", a) for a in R3P_A_VALUES]
    ok = all(derivation_algebra(make_family(f)).dim == 4 for f in dim4)
    ok = ok and derivation_algebra(make_family(Family("h3"))).dim == 6

    patterns = {
        Family("r3"): [{(1, 0): 1}, {(1, 1): 1, (2, 2): 1}, {(2, 0): 1},
                       {(2, 1): 1}],
        Family("r3_a", -0.5): [{(1, 0): 1}, {(1, 1): 1}, {(2, 0): 1},
                               {(2, 2): 1}],
        Family("r3p_a", 1.0): [{(1, 0): 1}, {(1, 1): 1, (2, 2): 1},
                               {(1, 2): -1, (2, 1): 1}, {(2, 0): 1}],
    }
    for fam, entries in patterns.items():
        wanted = MatrixSubspace(tuple(pattern_subspace(entries)))
        ok = ok and subspace_equal(derivation_algebra(make_family(fam)),
                                   wanted, tol=1e-9)
    _report("C2 derivation dimensions and printed patterns", ok)
    assert ok


def test_c2_pinned_r3_1_dimension():
    """dim Der(r3_1) = 6, with the zero-first-row pattern.

    The acceptance table listed 5; that was an erratum, and this check now
    requires 6.  ad(e1) is the identity on span{e2, e3}, so a derivation
    sends e1 into span{e2, e3} and acts on span{e2, e3} by any 2x2 matrix:
    the derivations are exactly the matrices with zero first row.  The
    table's own other rows (h3 = 6, the rest 4) count the full Der, and
    the exact sympy nullspace oracle agrees (test_derivations.py).
    """
    der = derivation_algebra(make_family(Family("r3_1"), exact=True))
    zero_first_row = MatrixSubspace(tuple(pattern_subspace(
        [{(i, j): 1} for i in (1, 2) for j in range(3)])))
    same_span = subspace_equal(der, zero_first_row, tol=1e-9)
    ok = der.dim == 6 and same_span
    _report("C2 pinned r3_1 derivation dimension", ok,
            f"table erratum 5 corrected to 6, computed {der.dim}, "
            f"zero-first-row span {'matches' if same_span else 'differs'}")
    assert der.dim == 6, f"required dimension 6, computed {der.dim}"
    assert same_span, "Der(r3_1) is not the zero-first-row pattern"


def test_c3_printed_curvature_matrices():
    worst_rational = 0.0
    worst_other = 0.0

    def frame_ricci(fam, lam):
        sc = frame_constants(fam, lam)
        return ricci_operator(metric_data(sc, np.eye(3))).ric_frame

    for lam in (0.5, 1.0, 2.0):
        want = -np.array([[2 + lam ** 2 / 2, 0, 0],
                          [0, 2 + lam ** 2 / 2, lam],
                          [0, lam, 2 - lam ** 2 / 2]])
        err = np.max(np.abs(frame_ricci(Family("r3"), lam) - want))
        worst_rational = max(worst_rational, float(err))

    for a in R3_A_VALUES:
        for lam in (0.5, 1.0, 2.0):
            t = 0.5 * lam ** 2 * (a - 1) ** 2
            want = -np.array([[1 + a * a + t, 0, 0],
                              [0, 1 + a + t, lam * a * (a - 1)],
                              [0, lam * a * (a - 1), a + a * a - t]])
            err = np.max(np.abs(frame_ricci(Family("r3_a", a), lam) - want))
            worst_rational = max(worst_rational, float(err))

    def r3p_want(a, lam):
        s = lam - 1.0 / lam
        return -0.5 * np.array([[4 * a * a + s * s, 0, 0],
                                [0, 4 * a * a + (lam ** 2 - lam ** -2), -2 * a * s],
                                [0, -2 * a * s, 4 * a * a - (lam ** 2 - lam ** -2)]])

    for a in R3P_A_VALUES:
        for lam in (2.0, 4.0):
            err = np.max(np.abs(frame_ricci(Family("r3p_a", a), lam)
                                - r3p_want(a, lam)))
            worst_rational = max(worst_rational, float(err))
        lam = np.sqrt(2.0)
        err = np.max(np.abs(frame_ricci(Family("r3p_a", a), lam)
                            - r3p_want(a, lam)))
        worst_other = max(worst_other, float(err))
        err = np.max(np.abs(frame_ricci(Family("r3p_a", a), 1.0)
                            + 2 * a * a * np.eye(3)))
        worst_rational = max(worst_rational, float(err))

    ok = worst_rational < 1e-12 and worst_other < 1e-10
    _report("C3 printed curvature matrices", ok,
            f"rational err {worst_rational:.3e}, other err {worst_other:.3e}")
    assert ok


def test_c4_soliton_classification():
    ok = True
    for lam in cli.default_grid(Family("r3")):
        v = soliton_from_frame(Family("r3"), lam)
        ok = ok and not v.is_soliton and v.residual >= 0.1

    for a in R3_A_VALUES:
        fam = Family("r3_a", a)
        for lam in cli.default_grid(fam):
            v = soliton_from_frame(fam, lam)
            if lam == 0.0:
                ok = (ok and v.is_soliton
                      and abs(v.c + 1 + a * a) < 1e-10)
            else:
                ok = ok and not v.is_soliton

    for a in R3P_A_VALUES:
        fam = Family("r3p_a", a)
        for lam in cli.default_grid(fam):
            v = soliton_from_frame(fam, lam)
            if lam == 1.0:
                ok = (ok and v.is_soliton and v.is_einstein
                      and abs(v.c + 2 * a * a) < 1e-10)
            else:
                ok = ok and not v.is_soliton

    rng = np.random.default_rng(77)
    for tag in ("h3", "r3_1"):
        sc = make_family(Family(tag))
        for _ in range(50):
            ok = ok and solvsoliton_check(sc, random_spd(rng)).is_soliton

    _report("C4 soliton classification over all families", ok)
    assert ok


def test_c5_mean_curvature_closed_forms():
    worst = 0.0
    singular_ok = True

    for lam in cli.default_grid(Family("r3")):
        r = orbit_at(Family("r3"), rep_matrix(Family("r3"), lam))
        worst = max(worst, abs(r.norm - np.sqrt(2) / 5))

    for a in R3_A_VALUES:
        fam = Family("r3_a", a)
        for lam in cli.default_grid(fam):
            r = orbit_at(fam, rep_matrix(fam, lam))
            scale = np.sqrt(2 * (1 + lam * lam))
            worst = max(worst, abs(r.norm - 2 * abs(lam) / (5 * scale)))
            direction = np.zeros((3, 3))
            direction[1, 1], direction[2, 2] = -lam, lam
            direction[1, 2] = direction[2, 1] = -1.0
            direction /= scale
            off_axis = np.linalg.norm(
                r.h - trace_form(r.h, direction) * direction)
            worst = max(worst, float(off_axis))

    for a in R3P_A_VALUES:
        fam = Family("r3p_a", a)
        for lam in cli.default_grid(fam):
            r = orbit_at(fam, rep_matrix(fam, lam))
            if lam == 1.0:
                singular_ok = (singular_ok and r.norm < 1e-10
                               and r.orbit_dim == 4)
            else:
                want = np.sqrt(2) * (1 + lam * lam) / (5 * (lam * lam - 1))
                worst = max(worst, abs(r.norm - want))

    ok = worst < 1e-9 and singular_ok
    _report("C5 mean curvature closed forms", ok, f"max err {worst:.3e}")
    assert ok


def test_c6_verify_sweeps_exit_zero(capsys):
    configs = ["r3"]
    configs += [f"r3a:a={a}" for a in R3_A_VALUES]
    configs += [f"r3pa:a={a}" for a in R3P_A_VALUES]
    codes = {s: cli.main(["verify", "--family", s, "--format", "csv"])
             for s in configs}
    capsys.readouterr()
    ok = all(code == 0 for code in codes.values())
    _report("C6 verify sweeps exit 0", ok,
            ", ".join(f"{s}={c}" for s, c in codes.items()))
    assert ok


def test_c7_reduction_witness_sweep():
    rng = np.random.default_rng(123)
    worst_witness = worst_auto = worst_orth = worst_idem = 0.0
    for fam in FAMILIES:
        sc = make_family(fam)
        for _ in range(200):
            g = random_group_element(rng)
            rep, trace = reduce(fam, g)
            worst_witness = max(worst_witness, witness_residual(rep, trace, g))
            worst_auto = max(worst_auto,
                             automorphism_residual(sc, trace.auto_part))
            orth_err = np.max(np.abs(trace.orth.T @ trace.orth - np.eye(3)))
            worst_orth = max(worst_orth, float(orth_err))
            rep2, _ = reduce(fam, rep.matrix)
            worst_idem = max(worst_idem, abs(rep2.lam - rep.lam))
    ok = (worst_witness < 1e-8 and worst_auto < 1e-8
          and worst_orth < 1e-10 and worst_idem < 1e-9)
    _report("C7 reduction witness over 200 draws per family", ok,
            f"witness {worst_witness:.2e}, bracket {worst_auto:.2e}, "
            f"orth {worst_orth:.2e}, idem {worst_idem:.2e}")
    assert ok


def test_c8_transitive_orbit_dimension():
    rng = np.random.default_rng(55)
    ok = True
    for tag in ("h3", "r3_1"):
        for _ in range(5):
            r = orbit_at(Family(tag), random_group_element(rng))
            ok = ok and r.orbit_dim == 6
    _report("C8 transitive families fill sym(3)", ok)
    assert ok
