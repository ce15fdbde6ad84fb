"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
wrapper in every ``solvgeo.*`` namespace that binds it (a from-import
copies the binding, so wrapping the defining module alone would miss
calls).  While an item is open each wrapped call records a span
``[name, start_ns, end_ns, parent, item, error]`` in memory; nothing is
written until ``write``.  ``uninstall`` puts every original back, and
``assert_untraced`` refuses to let an untraced measurement run while any
wrapper is still in place.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# The package's eight modules and the public functions traced in each.
LAYERS = {
    "lie_core": ("make_family", "change_basis"),
    "linalg": ("nullspace", "row_space_basis", "lower_triangular_lq",
               "orthonormalize", "exact_inv"),
    "curvature": ("metric_data", "ricci_operator", "ricci_closed_form"),
    "derivations": ("derivation_algebra", "scalar_plus", "conjugate_subspace"),
    "moduli": ("metric_to_group", "reduce", "rep_matrix", "frame_constants",
               "witness_residual"),
    "soliton": ("solvsoliton_check", "soliton_from_frame"),
    "orbit_geometry": ("orbit_at", "mean_curvature", "orbit_data",
                       "second_fundamental_form"),
    "cli": ("verify_main_theorem", "emit_report"),
}

# Functions whose spans are also split by arithmetic lane.
LANE_SPLIT = ("linalg.nullspace", "lie_core.change_basis",
              "derivations.derivation_algebra")
LANES = ("exact", "float")

ITEM = "item"
MARK = "__bench_original__"


def _is_exact(x) -> bool:
    arr = getattr(x, "c", x)  # StructureConstants carry their tensor in .c
    return isinstance(arr, np.ndarray) and arr.dtype == object


def _lane(args) -> str:
    """exact when every array argument holds Fractions, float otherwise."""
    arrays = [x for x in args if isinstance(getattr(x, "c", x), np.ndarray)]
    return "exact" if arrays and all(_is_exact(x) for x in arrays) else "float"


def _input_key(sc) -> tuple:
    c = sc.c
    if c.dtype == object:
        return ("exact", tuple(c.ravel()))
    return ("float", c.tobytes())


def _solvgeo_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "solvgeo" or name.startswith("solvgeo."))]


def assert_untraced() -> None:
    """Raise if any solvgeo namespace still binds a tracing wrapper."""
    for mod in _solvgeo_modules():
        for attr, value in vars(mod).items():
            if callable(value) and hasattr(value, MARK):
                raise RuntimeError(f"tracing wrapper still installed at "
                                   f"{mod.__name__}.{attr}")


class Tracer:
    """In-memory span recorder for the public functions of LAYERS."""

    def __init__(self):
        self.spans: list[list] = []
        self.der_calls = 0
        self.der_inputs: set = set()
        self._stack: list[int] = []
        self._item = -1
        self._restore: list[tuple] = []
        self._last_error = None

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, name: str, fn):
        split = name in LANE_SPLIT
        distinct = name == "derivations.derivation_algebra"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._item < 0:
                return fn(*args, **kwargs)
            if distinct:
                self.der_calls += 1
                self.der_inputs.add(_input_key(args[0]))
            span = [f"{name}.{_lane(args)}" if split else name, 0, 0,
                    self._stack[-1], self._item, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:  # count where it was raised
                    span[5] = True
                    self._last_error = exc
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()

        setattr(traced, MARK, fn)
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, names in LAYERS.items():
            home = importlib.import_module(f"solvgeo.{module}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrapper(f"{module}.{fname}", original)
                for mod in _solvgeo_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        assert_untraced()

    # -- items ------------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self._stack = [len(self.spans)]
        self.spans.append([ITEM, time.perf_counter_ns(), 0, -1, item, False])
        self._item = item
        self._last_error = None

    def end_item(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter_ns()
        self._item = -1
        self._last_error = None

    # -- results ----------------------------------------------------------

    def layer_metrics(self, n_items: int) -> dict:
        """calls and self time per item for each function, lane and module.

        Self time is a span's duration minus the durations of its direct
        children.  Every name of LAYERS appears, with zeros where a
        workload never calls it.
        """
        child = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        errors = defaultdict(int)
        for i, s in enumerate(self.spans):
            name = s[0]
            if name == ITEM:
                continue
            own = s[2] - s[1] - child[i]
            parts = name.split(".")
            keys = {name, ".".join(parts[:2])}
            for key in keys:
                calls[key] += 1
                self_ns[key] += own
            self_ns[parts[0]] += own
            errors[parts[0]] += s[5]
        per = max(n_items, 1)
        out = {}
        for module, names in LAYERS.items():
            for fname in names:
                base = f"{module}.{fname}"
                keys = [base] + ([f"{base}.{lane}" for lane in LANES]
                                 if base in LANE_SPLIT else [])
                for key in keys:
                    out[f"{key}.calls_per_item"] = (calls[key] / per, "count")
                    out[f"{key}.self_us_per_item"] = (self_ns[key] / per / 1e3, "us")
            out[f"{module}.self_us_per_item"] = (self_ns[module] / per / 1e3, "us")
            out[f"{module}.errors"] = (errors[module], "count")
        ratio = len(self.der_inputs) / self.der_calls if self.der_calls else 0.0
        out["derivations.derivation_algebra.distinct_ratio"] = (ratio, "ratio")
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "item", "error"])
            writer.writerows(self.spans)
