"""Spans and counters recorded around nihobent's public callables.

`install()` replaces the public functions of the six modules (and the
vector methods of FieldTower, the OPolyMap constructors and the table
build) with wrappers in every nihobent namespace that holds them;
`uninstall()` puts the originals back.  Each wrapped call records a span
(name, start, end, parent) in memory.  FieldTower.mul is only counted,
because it runs millions of times: its time, like that of the other scalar
field methods, falls in the self time of whichever span calls it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("gf2", "boolfun", "niho", "opoly", "bridge", "cli")
VECTOR_METHODS = {"pow_vec": 1, "mul_vec": 1, "mul_scalar_vec": 2}  # -> array argument

# per-layer metric -> span names whose outermost calls it sums
TIMED = {
    "gf2.basis_s": ("gf2.find_unit_relative_trace",),
    "niho.build_s": ("niho.build",),
    "boolfun.evaluate_s": ("boolfun.evaluate",),
    "boolfun.walsh_s": ("boolfun.walsh",),
    "boolfun.degree_s": ("boolfun.algebraic_degree",),
    "boolfun.serialise_s": ("boolfun.table_to_hex", "boolfun.table_from_hex", "boolfun.spectrum_to_csv"),
    "opoly.interpolate_s": ("opoly.interpolate_terms",),
    "opoly.check_s": ("opoly.is_opolynomial",),
    "opoly.maps_s": ("opoly.OPolyMap.from_terms", "opoly.OPolyMap.monomial", "opoly.inverse_map",
                     "opoly.transform_zFinv", "opoly.trinomial_g2_map"),
    "bridge.expand_s": ("bridge.expand_monomial",),
    "bridge.to_univariate_s": ("bridge.opoly_to_univariate",),
    "bridge.bivariate_s": ("bridge.bivariate_truth_table", "bridge.bivariate_monomial_table"),
}
COUNTS = ("gf2.scalar_mul_calls", "gf2.vector_op_calls", "gf2.vector_op_elements",
          "opoly.interpolate_calls")


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = defaultdict(int)
        self.inclusive = defaultdict(float)   # outermost calls only, per name
        self.self_time = defaultdict(float)   # per module
        self.counts = defaultdict(int)
        self.walsh_tables = set()
        self._patches = []

    # ---- recording -----------------------------------------------------

    def call(self, name, module, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        outermost = self.depth[name] == 0
        self.depth[name] += 1
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.depth[name] -= 1
            dur = t1 - t0
            self.spans[idx] = (name, t0, t1, parent)
            self.self_time[module] += dur - frame[1]
            if outermost:
                self.inclusive[name] += dur
            if self.stack:
                self.stack[-1][1] += dur

    def begin_job(self):
        self.walsh_tables = set()

    def end_job(self):
        self.counts["boolfun.walsh_tables"] += len(self.walsh_tables)

    def snapshot(self) -> dict:
        out = {f"{m}.self_s": self.self_time[m] for m in MODULES}
        for metric, names in TIMED.items():
            out[metric] = sum(self.inclusive[n] for n in names)
        out["gf2.tables_s"] = self.inclusive["gf2.tables"]
        for key in (*COUNTS, "boolfun.walsh_calls", "boolfun.walsh_tables"):
            out[key] = self.counts[key]
        return out

    # ---- wrappers ------------------------------------------------------

    def _span(self, name, fn, before=None):
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            return self.call(name, module, fn, args, kwargs)

        return wrapper

    def _count_vector(self, position):
        def count(args):
            self.counts["gf2.vector_op_calls"] += 1
            self.counts["gf2.vector_op_elements"] += int(np.size(args[position]))

        return count

    def _count_walsh(self, args):
        self.counts["boolfun.walsh_calls"] += 1
        self.walsh_tables.add(hashlib.blake2b(args[0].tobytes(), digest_size=8).digest())

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import nihobent

        mods = {m: importlib.import_module(f"nihobent.{m}") for m in MODULES}
        namespaces = [nihobent, *mods.values()]
        before = {"boolfun.walsh": self._count_walsh,
                  "opoly.interpolate_terms": self._count_interpolate}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._span(name, obj, before.get(name))
                for ns in namespaces:
                    if ns.__dict__.get(attr) is obj:
                        self._set(ns, attr, wrapper)
        tower_cls = mods["gf2"].FieldTower
        mul = tower_cls.mul

        @functools.wraps(mul)
        def counted_mul(tower, x, y):
            self.counts["gf2.scalar_mul_calls"] += 1
            return mul(tower, x, y)

        self._set(tower_cls, "mul", counted_mul)
        for attr, position in VECTOR_METHODS.items():
            self._set(tower_cls, attr, self._span(
                f"gf2.{attr}", tower_cls.__dict__[attr], self._count_vector(position)))
        self._set(tower_cls, "_build_tables", self._span("gf2.tables", tower_cls._build_tables))
        opoly_map = mods["opoly"].OPolyMap
        for attr in ("from_terms", "monomial"):
            fn = opoly_map.__dict__[attr].__func__
            self._set(opoly_map, attr, classmethod(self._span(f"opoly.OPolyMap.{attr}", fn)))

    def _count_interpolate(self, args):
        self.counts["opoly.interpolate_calls"] += 1

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def write_spans(self, path):
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - base, 7), round(e - base, 7), p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


def layer_metrics(setup: dict, rounds: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics: table build from set-up, the rest per round.

    `setup` and each entry of `rounds` are differences of Recorder
    snapshots.  Times are the median over rounds; counts come from the
    first round (the worker checks that every round repeats them).
    """
    first = rounds[0]
    timed = (*TIMED, *(f"{mod}.self_s" for mod in MODULES))
    out = {k: (statistics.median(r[k] for r in rounds), "s") for k in timed}
    out["gf2.tables_s"] = (setup["gf2.tables_s"], "s")
    for key in COUNTS:
        out[key] = (first[key], "count")
    tables = first["boolfun.walsh_tables"]
    out["boolfun.walsh_per_table"] = (first["boolfun.walsh_calls"] / tables if tables else 0.0, "ratio")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def diff(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}
