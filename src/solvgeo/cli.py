"""Command-line interface.

Subcommands map one-to-one onto the library: ``families`` (the classified
algebras), ``ricci`` (curvature of a metric), ``der`` (derivation
algebras), ``reduce`` (canonical representative of a metric), ``soliton``
(solvsoliton certificates), ``orbit`` (mean curvature of the associated
orbit), and ``verify`` (soliton <-> minimal-orbit agreement over a lambda
grid).  Exit codes: 0 success/agreement, 1 a verify row disagrees,
2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import moduli, orbit_geometry, soliton
from .curvature import MetricData, ricci_operator
from .derivations import conjugate_subspace, derivation_algebra
from .errors import InvalidFamilyError
from .lie_core import FAMILY_TAGS, Family, jacobi_residual, make_family, parse_family

_FAMILY_HELP = "family string: h3, r3, r3_1, r3a:a=<float>, r3pa:a=<float>"

_DESCRIPTIONS = {
    "h3": "[e1,e2] = e3 (Heisenberg)",
    "r3": "[e1,e2] = e2 + e3, [e1,e3] = e3",
    "r3_a": "[e1,e2] = e2, [e1,e3] = a e3, -1 <= a <= 1",
    "r3_1": "[e1,e2] = e2, [e1,e3] = e3",
    "r3p_a": "[e1,e2] = a e2 - e3, [e1,e3] = e2 + a e3, a >= 0",
}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Inputs of one verify sweep."""

    family: Family
    grid: tuple


@dataclass(frozen=True, slots=True)
class VerifyRow:
    family: str
    a: float | None
    lam: float
    is_soliton: bool
    soliton_residual: float
    h_norm: float
    orbit_dim: int
    agrees: bool


def default_grid(family: Family) -> tuple:
    """The verify grid used when none is given.

    r3: 50 log-spaced points on [0.1, 10]; r3_a: 51 linear on [-5, 5];
    r3p_a: 41 linear on [1, 5]; h3 and r3_1 have a single class, so one
    row at lambda = 1.
    """
    if family.tag == "r3":
        return tuple(float(x) for x in np.geomspace(0.1, 10.0, 50))
    if family.tag == "r3_a":
        return tuple(float(x) for x in np.linspace(-5.0, 5.0, 51))
    if family.tag == "r3p_a":
        return tuple(float(x) for x in np.linspace(1.0, 5.0, 41))
    return (1.0,)


def verify_main_theorem(cfg: RunConfig):
    """One row per grid lambda: soliton verdict vs minimality of the orbit.

    Both are ``soliton.frame_verdict``'s exact flags; the residual, |H| and
    the orbit dimension are the float numbers.  A row that float64 cannot
    hold is refused, naming its lambda.  Returns (rows, exit_status) with
    status 0 when every row agrees and 1 otherwise.
    """
    rows = []
    fam = cfg.family
    label, a = fam.label(), None if fam.a is None else float(fam.a)
    for lam in cfg.grid:
        verdict, minimal = _at_lambda(lam, soliton.frame_verdict, fam, lam)
        mc = _at_lambda(lam, orbit_geometry.orbit_at, fam, moduli.rep_matrix(fam, lam))
        rows.append(VerifyRow(family=label, a=a, lam=float(lam),
                              is_soliton=verdict.is_soliton,
                              soliton_residual=verdict.residual,
                              h_norm=mc.norm, orbit_dim=mc.orbit_dim,
                              agrees=verdict.is_soliton == minimal))
    status = 0 if all(r.agrees for r in rows) else 1
    return rows, status


def _at_lambda(lam, fn, *args):
    """``fn(*args)``, whose refusals name ``lam``: every ValueError but an
    InvalidFamilyError, which names the family or lambda itself."""
    try:
        return fn(*args)
    except InvalidFamilyError:
        raise
    except ValueError as exc:
        raise type(exc)(f"{exc} at lambda = {lam!r}") from None


def _row_dict(row: VerifyRow) -> dict:
    renamed = {"lam": "lambda", "h_norm": "H_norm"}
    return {renamed.get(f.name, f.name): getattr(row, f.name) for f in fields(row)}


# table formats of the verify columns; the other cells print with str()
_TABLE_FORMATS = {"a": "g", "lambda": ".6g", "soliton_residual": ".3e", "H_norm": ".3e"}


def emit_report(payload, fmt: str) -> str:
    """Render a payload as json, csv, or a table.

    A payload is a dict, printed as key/value pairs, or a list of
    VerifyRow, printed one row per line.
    """
    if isinstance(payload, dict):
        data = json.loads(json.dumps(payload, default=lambda o: o.tolist()))
    elif payload:
        data = [_row_dict(r) for r in payload]
    else:
        raise ValueError("no rows to report")
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    if fmt == "csv":
        if isinstance(data, dict):
            data = [{"key": k, "value": json.dumps(v)} for k, v in data.items()]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(data[0])
        writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in r.values()]
                         for r in data)
        return buf.getvalue()
    if fmt == "table" and isinstance(data, dict):
        lines = []
        for k, v in data.items():
            if isinstance(v, list) and v and isinstance(v[0], list):
                lines.append(f"{k}:")
                lines.extend("  " + "  ".join(f"{x:12.8g}" if isinstance(x, float) else str(x)
                                              for x in row) for row in v)
            else:
                lines.append(f"{k}: {v}")
        return "\n".join(lines) + "\n"
    if fmt == "table":
        body = [["" if v is None else format(v, _TABLE_FORMATS.get(k, ""))
                 for k, v in r.items()] for r in data]
        lines = [list(data[0]), *body]
        widths = [max(map(len, column)) for column in zip(*lines)]
        return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)) + "\n"
                       for line in lines)
    raise ValueError(f"unknown format {fmt!r}")


def _read_gram(args, default=None) -> np.ndarray | None:
    """The Gram matrix given, else ``default``; rejects one given with --lambda."""
    gram = None
    if getattr(args, "gram", None) is not None:
        gram = np.array(args.gram, dtype=float).reshape(3, 3)
    elif getattr(args, "gram_file", None) is not None:
        gram = _read_gram_file(args.gram_file)
    if gram is not None and getattr(args, "lam", None) is not None:
        raise ValueError("give either --lambda or a Gram matrix, not both")
    return default if gram is None else gram


def _read_gram_file(path: str) -> np.ndarray:
    """The JSON array of numbers in ``path`` as a float array."""
    with open(path) as fh:
        try:
            entries = np.array(json.load(fh), dtype=object)
            bad = [x for x in entries.ravel() if type(x) not in (int, float)]
            if bad:  # null, a string, a boolean, an object, or a ragged list's row
                raise ValueError(f"Gram matrix entries must be JSON numbers, found "
                                 f"{json.dumps(bad[0])}")
            return entries.astype(float)
        # not JSON, an int past float64, or arrays nested past the recursion limit
        except (ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _listing(sc) -> list:
    """Nonzero structure constants c_ij^k as 1-based [i, j, k, value]."""
    return [[i + 1, j + 1, k + 1, float(v)] for i, j, k, v in sc.nonzero()]


def _cmd_families(args):
    if args.family is None:
        return {tag: _DESCRIPTIONS[tag] for tag in FAMILY_TAGS}, 0
    fam = parse_family(args.family)
    sc = make_family(fam)
    return {
        "family": fam.label(),
        "brackets": _DESCRIPTIONS[fam.tag],
        "a": None if fam.a is None else float(fam.a),
        "structure_constants": _listing(sc),
        "jacobi_residual": jacobi_residual(sc),
    }, 0


def _cmd_ricci(args):
    fam = parse_family(args.family)
    gram = _read_gram(args, np.eye(3))
    # ricci_operator factors the Gram matrix, and that is its one check
    res = ricci_operator(MetricData(make_family(fam), gram))
    return {
        "family": fam.label(),
        "gram": gram,
        "ric_frame": res.ric_frame,
        "ric_canonical": res.ric_canonical,
        "scalar": res.scalar,
    }, 0


def _cmd_der(args):
    fam = parse_family(args.family)
    der = derivation_algebra(make_family(fam))
    payload = {"family": fam.label(), "dim": der.dim}
    if args.lam is not None:
        der = _at_lambda(args.lam, conjugate_subspace, der, moduli.rep_matrix(fam, args.lam))
        payload["lambda"] = args.lam
    payload["basis"] = [b for b in der.basis]
    return payload, 0


def _cmd_reduce(args):
    fam = parse_family(args.family)
    gram = _read_gram(args)
    if gram is None:
        raise ValueError("reduce requires --gram or --gram-file")
    g = moduli.metric_to_group(gram)
    rep, trace = moduli.reduce(fam, g)
    return {
        "family": fam.label(),
        "lambda": rep.lam,
        # the Milnor frame is orthonormal for the metric rescaled by 1/scalar^2
        "k_scale": float(trace.scalar ** 2),
        "rep_matrix": rep.matrix,
        "scalar": trace.scalar,
        "witness_residual": moduli.witness_residual(rep, trace, g),
        "steps": [name for name, _ in trace.steps],
        # [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3 in _listing's layout
        "frame_brackets": [[1, j, k, x] for (j, k), x in
                           zip(((2, 2), (2, 3), (3, 2), (3, 3)),
                               moduli.frame_brackets(fam, rep.matrix)[0]) if x],
    }, 0


def _cmd_soliton(args):
    fam = parse_family(args.family)
    gram = _read_gram(args, np.eye(3))
    if args.lam is not None:
        verdict = _at_lambda(args.lam, soliton.soliton_from_frame, fam, args.lam)
        mode = {"mode": "frame", "lambda": args.lam}
    else:
        verdict = soliton.solvsoliton_check(make_family(fam), gram)
        mode = {"mode": "gram", "gram": gram}
    return {"family": fam.label(), **mode,
            "is_soliton": verdict.is_soliton,
            "is_einstein": verdict.is_einstein,
            "c": verdict.c,
            "D": verdict.d,
            "residual": verdict.residual}, 0


def _cmd_orbit(args):
    fam = parse_family(args.family)
    gram = _read_gram(args)
    if args.lam is not None:
        mc = _at_lambda(args.lam, orbit_geometry.orbit_at, fam, moduli.rep_matrix(fam, args.lam))
    else:
        g = np.eye(3) if gram is None else moduli.metric_to_group(gram)
        mc = orbit_geometry.orbit_at(fam, g)
    return {"family": fam.label(),
            "orbit_dim": mc.orbit_dim,
            "stab_dim": mc.stab_dim,
            "H": mc.h,
            "H_norm": mc.norm,
            "per_normal": [{"normal": a, "component": v} for a, v in mc.per_normal]}, 0


def _parse_grid(text: str) -> tuple:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:  # a part count other than 3 too
        raise ValueError(f"--grid {text!r} must be start:stop:count with a whole count") from None
    if not math.isfinite(stop - start):
        raise ValueError(f"grid {text!r} needs a finite start, stop and stop - start")
    if count < 1:
        raise ValueError("grid count must be >= 1")
    try:
        # only the endpoint's (count - 1) * step can overflow, and linspace sets it to stop
        with np.errstate(over="ignore"):
            grid = np.linspace(start, stop, count)
    except (MemoryError, ValueError):  # past the address space, or past numpy's size limit
        raise ValueError(f"--grid {text!r} has more points than numpy can hold") from None
    if not np.isfinite(grid).all():
        raise ValueError(f"grid {text!r} has a point that is not finite")
    return tuple(grid.tolist())


def _cmd_verify(args):
    fam = parse_family(args.family)
    if args.lam is not None and args.grid is not None:
        raise ValueError("give either --lambda or --grid, not both")
    if args.lam is not None:
        try:
            grid = tuple(float(x) for x in args.lam.split(","))
        except ValueError:
            raise ValueError(f"--lambda {args.lam!r} must be comma-separated numbers") from None
    elif args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        grid = default_grid(fam)
    return verify_main_theorem(RunConfig(family=fam, grid=grid))


# name, help, handler, takes --gram/--gram-file, takes the float --lambda, --family required
_COMMANDS = (
    ("families", "list the classified families", _cmd_families, False, False, False),
    ("ricci", "Ricci operator of a metric", _cmd_ricci, True, False, True),
    ("der", "derivation algebra of a family", _cmd_der, False, True, True),
    ("reduce", "canonical representative of a metric", _cmd_reduce, True, False, True),
    ("soliton", "solvsoliton certificate", _cmd_soliton, True, True, True),
    ("orbit", "mean curvature of the metric's orbit", _cmd_orbit, True, True, True),
    ("verify", "soliton vs minimal-orbit sweep", _cmd_verify, False, False, True),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once, on first use."""
    parser = argparse.ArgumentParser(
        prog="solvgeo",
        description="Curvature, solvsolitons, and orbit geometry of "
                    "left-invariant metrics on 3-dimensional solvable Lie groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, fn, gram, lam, family_required in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--family", required=family_required, help=_FAMILY_HELP)
        if gram:
            p.add_argument("--gram", type=float, nargs=9, metavar="X",
                           help="Gram matrix as 9 numbers, row major")
            p.add_argument("--gram-file", help="path to a JSON 3x3 array")
        if lam:
            p.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="lambda of the canonical representative")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table", help="output format")
        p.add_argument("--out", default=None, help="write output to this path")
    verify = sub.choices["verify"]
    verify.add_argument("--lambda", dest="lam", default=None,
                        help="comma-separated lambda values")
    verify.add_argument("--grid", default=None,
                        help="start:stop:count linear grid (default grid is "
                             "family specific; log-spaced for r3)")
    # argparse takes -1e-05, -0.5,1 and -5:5:3 for options; no option here
    # begins with "-" and a digit or ".", so each such token is a value
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, status = args.fn(args)
        text = emit_report(payload, args.format)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:  # the package's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
