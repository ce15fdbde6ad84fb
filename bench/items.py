"""The three workloads: inputs made from a seed, one item's calls, its check.

Each workload turns ``(seed, phase)`` into a deterministic stream of items.
A run takes ``items_per_second * --seconds`` items from it (at least
``check_set``), so a seed fixes every input of a run and, since the
library is deterministic, its failure count too.
``run`` makes the library calls of one item and nothing else; ``check``
judges the output against the oracles in checks.py and returns the
rounded record that goes into the checksum.

Library functions are reached through their module attributes
(``moduli.reduce``, never a from-imported ``reduce``) so that the tracing
wrappers of spans.py, which replace those attributes, see every call.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from solvgeo import cli, curvature, derivations, lie_core, moduli, soliton

import checks
import envinfo

# Phases draw separate streams, so that a traced phase never replays the
# items of the untraced phase before it.
WARMUP, MEASURE, TRACED = 0, 1, 2


class Outcome(NamedTuple):
    ok: bool
    reason: str      # empty when ok
    record: tuple    # rounded outputs for the checksum
    known: bool      # a failure explained by the metric's scale alone


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def cold_script(workload: str, seed: int) -> list:
    """cold.py: a fresh interpreter that runs the workload's first item."""
    return [sys.executable, str(envinfo.ROOT / "bench" / "cold.py"),
            "--workload", workload, "--seed", str(seed)]


# ---------------------------------------------------------------- verify_grid

# The acceptance verify configurations, on the CLI's default grids.
VERIFY_FAMILIES = (("r3", None), ("r3_a", -1.0), ("r3_a", -0.5), ("r3_a", 0.0),
                   ("r3_a", 0.5), ("r3p_a", 0.0), ("r3p_a", 1.0), ("r3p_a", 2.0))
VERIFY_ROWS = 377


def verify_grid_points(tag: str) -> np.ndarray:
    if tag == "r3":
        return np.geomspace(0.1, 10.0, 50)
    if tag == "r3_a":
        return np.linspace(-5.0, 5.0, 51)
    return np.linspace(1.0, 5.0, 41)


class Row(NamedTuple):
    config: int
    index: int       # position in the configuration's grid
    lam: float
    render: bool     # last row of its configuration in a pass


class VerifyGrid:
    """All 377 verify rows, one item per row, in an order set by the seed.

    The item that completes a configuration within a pass also renders
    that configuration's rows through ``cli.emit_report(..., "json")``.
    """

    name = "verify_grid"
    check_set = VERIFY_ROWS
    items_per_second = 330

    def __init__(self, seed: int):
        self.seed = seed
        self.families = [lie_core.Family(tag, a) for tag, a in VERIFY_FAMILIES]
        self.grids = [verify_grid_points(tag) for tag, _ in VERIFY_FAMILIES]
        points = [(c, i, float(lam)) for c, grid in enumerate(self.grids)
                  for i, lam in enumerate(grid)]
        assert len(points) == VERIFY_ROWS
        order = np.random.default_rng(seed).permutation(len(points))
        last = {points[p][0]: pos for pos, p in enumerate(order)}
        self.rows = tuple(Row(*points[p], render=last[points[p][0]] == pos)
                          for pos, p in enumerate(order))
        self._pending: dict[int, list] = {}

    def stream(self, phase: int):
        del phase  # every phase replays the same pass order
        self._pending = {c: [] for c in range(len(self.families))}
        return itertools.cycle(self.rows)

    def run(self, row: Row):
        cfg = cli.RunConfig(family=self.families[row.config], grid=(row.lam,))
        rows, _ = cli.verify_main_theorem(cfg)
        pending = self._pending[row.config]
        pending.append(rows[0])
        if not row.render:
            return rows[0], None, None
        rendered = sorted(pending, key=lambda r: r.lam)  # grid order
        pending.clear()
        return rows[0], rendered, cli.emit_report(rendered, "json")

    def check(self, row: Row, out) -> Outcome:
        fam = self.families[row.config]
        if isinstance(out, Exception):
            return Outcome(False, _raised(out), (fam.tag, fam.a, row.index, "raised"), False)
        vr, rendered, text = out
        record = (fam.tag, fam.a, checks.rounded(row.lam, 12), vr.is_soliton,
                  f"{vr.h_norm:.9f}", vr.orbit_dim, vr.agrees)
        problem = verify_row_problem(fam.tag, row.lam, vr.lam, vr.is_soliton,
                                     vr.h_norm, vr.orbit_dim, vr.agrees)
        if problem is None and text is not None:
            problem = self._render_problem(row.config, rendered, text)
        return Outcome(problem is None, problem or "", record, False)

    def _render_problem(self, config: int, rendered, text: str) -> str | None:
        grid = [float(x) for x in self.grids[config]]
        if [r.lam for r in rendered] != grid:
            return "rendered rows do not cover the configuration's grid"
        parsed = json.loads(text)
        got = [(d["lambda"], d["is_soliton"], d["H_norm"], d["agrees"]) for d in parsed]
        want = [(r.lam, r.is_soliton, r.h_norm, r.agrees) for r in rendered]
        return None if got == want else "json report differs from the rows"

    def cold_command(self, seed: int) -> list:
        return [sys.executable, "-m", "solvgeo.cli", "verify", "--family", "r3",
                "--lambda", "0.1", "--format", "json"]

    def cold_problem(self, stdout: str) -> str | None:
        rows = json.loads(stdout)
        if len(rows) != 1:
            return f"cold verify printed {len(rows)} rows"
        d = rows[0]
        return verify_row_problem("r3", 0.1, d["lambda"], d["is_soliton"],
                                  d["H_norm"], d["orbit_dim"], d["agrees"])


def verify_row_problem(tag, lam, got_lam, is_soliton, h, orbit_dim, agrees) -> str | None:
    """C4 verdict and C5 |H| of one verify row, or None when both hold."""
    if got_lam != lam:
        return f"row lambda {got_lam} != {lam}"
    if is_soliton != checks.expected_soliton(tag, lam):
        return f"soliton verdict {is_soliton} at lambda {lam}"
    want = checks.h_norm(tag, lam)
    if not abs(h - want) <= checks.H_TOL:
        return f"|H| {h!r} != {want!r} at lambda {lam}"
    if tag == "r3p_a" and lam == 1.0 and orbit_dim != 4:
        return f"orbit dimension {orbit_dim} at the soliton, expected 4"
    if not agrees:
        return "row reports disagreement"
    return None


# -------------------------------------------------------------- gram_classify

GRAM_TAGS = ("r3_a", "r3p_a")


class GramItem(NamedTuple):
    tag: str
    a: float
    base: np.ndarray     # M^T M + 0.1 I
    scale: float         # log-uniform on [1e-6, 1e6]
    gram: np.ndarray     # scale * base


class GramClassify:
    """Random SPD metrics on fresh parametric families, as the CLI's
    ``reduce`` and ``soliton --gram`` would handle them.

    Every item draws a new family parameter, so no two items share a
    family.  The scale spread is deliberate: at the top of it the library
    raises or flips its verdict (absolute tolerances in ``linalg`` and
    ``soliton``), and those items are counted as failed.
    """

    name = "gram_classify"
    check_set = 2000
    items_per_second = 780

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self, phase: int):
        rng = np.random.default_rng([self.seed, phase])
        eye = np.eye(3)
        for tag in itertools.cycle(GRAM_TAGS):  # a fixed mix, whatever the seed
            a = float(rng.uniform(-1.0, 1.0) if tag == "r3_a" else rng.uniform(0.0, 3.0))
            m = rng.normal(size=(3, 3))
            base = m.T @ m + 0.1 * eye
            scale = float(10.0 ** rng.uniform(-6.0, 6.0))
            yield GramItem(tag, a, base, scale, scale * base)

    def run(self, item: GramItem):
        fam = lie_core.Family(item.tag, item.a)
        g = moduli.metric_to_group(item.gram)
        rep, trace = moduli.reduce(fam, g)
        witness = moduli.witness_residual(rep, trace, g)
        verdict = soliton.solvsoliton_check(lie_core.make_family(fam), item.gram)
        return g, rep, trace, witness, verdict

    def check(self, item: GramItem, out) -> Outcome:
        if isinstance(out, Exception):
            problem, record = _raised(out), (item.tag, "raised", type(out).__name__)
        else:
            g, rep, trace, witness, verdict = out
            record = (item.tag, checks.rounded(rep.lam, 8), verdict.is_soliton)
            problem = gram_problem(item, g, rep, trace, witness, verdict)
        if problem is None:
            return Outcome(True, "", record, False)
        return Outcome(False, problem, record, self._scale_only(item))

    def _scale_only(self, item: GramItem) -> bool:
        """Whether the same metric at scale 1 passes: then only scale broke it."""
        if item.scale == 1.0:
            return False
        twin = item._replace(scale=1.0, gram=item.base)
        try:
            out = self.run(twin)
        except Exception:
            return False
        return gram_problem(twin, *out) is None

    def cold_command(self, seed: int) -> list:
        return cold_script(self.name, seed)

    def cold_problem(self, stdout: str) -> str | None:
        return None if stdout.startswith(("ok", "known")) else stdout.strip()


def gram_problem(item: GramItem, g, rep, trace, witness, verdict) -> str | None:
    """Certified reduction and the paper's verdict at the reduced lambda."""
    problem = checks.witness_problem(item.tag, item.a, item.gram, g, rep.lam,
                                     rep.matrix, trace.scalar, trace.auto_part,
                                     trace.orth)
    if problem is not None:
        return problem
    if not witness <= checks.WITNESS_TOL * np.abs(rep.matrix).max():
        return f"library witness residual {witness!r}"
    if verdict.is_soliton != checks.expected_soliton(item.tag, rep.lam):
        return f"soliton verdict {verdict.is_soliton} at lambda {rep.lam!r}"
    return None


# ----------------------------------------------------------------- exact_lane

EXACT_TAGS = ("h3", "r3", "r3_a", "r3_1", "r3p_a")


class ExactItem(NamedTuple):
    tag: str
    a: Fraction | None
    lam: Fraction


class ExactLane:
    """Rational parameters (a = k/8) and rational lambda in exact arithmetic.

    Covers the Fraction lane of linalg and lie_core: exact Der, exact
    frame constants and the closed-form Ricci operator on them.
    """

    name = "exact_lane"
    check_set = 500
    items_per_second = 330

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self, phase: int):
        rng = np.random.default_rng([self.seed, phase])
        for tag in itertools.cycle(EXACT_TAGS):  # a fixed mix, whatever the seed
            p, q = int(rng.integers(1, 33)), int(rng.integers(1, 9))
            a = None
            lam = Fraction(1)
            if tag == "r3":
                lam = Fraction(p, q)
            elif tag == "r3_a":
                a = Fraction(int(rng.integers(-8, 8)), 8)
                lam = Fraction(int(rng.integers(-32, 33)), q)
            elif tag == "r3p_a":
                a = Fraction(int(rng.integers(0, 25)), 8)
                lam = 1 + Fraction(p - 1, q)
            yield ExactItem(tag, a, lam)

    def run(self, item: ExactItem):
        fam = lie_core.Family(item.tag, item.a)
        der = derivations.derivation_algebra(lie_core.make_family(fam, exact=True))
        frame = moduli.frame_constants(fam, item.lam, exact=True)
        c = frame.c
        ric = curvature.ricci_closed_form(c[0, 1, 1], c[0, 1, 2], c[0, 2, 1], c[0, 2, 2])
        return der, frame, ric

    def check(self, item: ExactItem, out) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(False, _raised(out), (item.tag, "raised"), False)
        der, frame, ric = out
        record = (item.tag, str(item.a), str(item.lam), der.dim,
                  tuple(str(x) for x in np.asarray(ric).ravel()))
        problem = exact_problem(item, der, frame, ric)
        return Outcome(problem is None, problem or "", record, False)

    def cold_command(self, seed: int) -> list:
        return cold_script(self.name, seed)

    def cold_problem(self, stdout: str) -> str | None:
        return None if stdout.startswith("ok") else stdout.strip()


def exact_problem(item: ExactItem, der, frame, ric) -> str | None:
    """dim Der and the derivation identity; exact C3 Ricci on the frame."""
    problem = checks.derivation_problem(item.tag, item.a, der.basis)
    if problem is not None:
        return problem
    if not frame.exact:
        return "frame constants left the exact lane"
    ric = np.asarray(ric)
    if not all(isinstance(x, Fraction) for x in ric.ravel()):
        return "Ricci operator left the exact lane"
    want = checks.frame_ricci(item.tag, item.a, item.lam)
    if any(ric[i, j] != want[i][j] for i in range(3) for j in range(3)):
        return f"Ricci operator differs from C3 at a={item.a}, lambda={item.lam}"
    return None


WORKLOADS = {w.name: w for w in (VerifyGrid, GramClassify, ExactLane)}
