"""Traced mode: wrap the library's public functions, record spans, and
turn them into per-layer metrics.

Wrappers are installed from outside, for the traced pass only, and removed
afterwards; nothing in the library changes.  Each call of a wrapped
function records a span (name, start, end, parent) in flat arrays kept in
memory.  A span's self time is its duration minus the durations of its
direct child spans (spans nest, since the run is single-threaded).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); a span's layer is its name's prefix.
# "Class.method" patches the class.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("instances", "load_instance", "instances.load_instance"),
    ("instances", "load_allocation", "instances.load_allocation"),
    ("sessions", "QuerySession.eval", "sessions.eval"),
    ("sessions", "QuerySession.cut", "sessions.cut"),
    ("sessions", "SubcakeSession.eval", "sessions.sub_eval"),
    ("sessions", "SubcakeSession.cut", "sessions.sub_cut"),
    ("valuations", "cut_leftmost", "valuations.cut_leftmost"),
    ("valuations", "PiecewiseConstantValuation.value_between",
     "valuations.value_between"),
    ("cake", "decide", "cake.decide"),
    ("cake", "approx_mms", "cake.approx_mms"),
    ("cake", "mms_fair_allocation", "cake.mms_fair_allocation"),
    ("cake", "ordinal_allocation_2n_minus_1", "cake.ordinal"),
    ("exact_mms", "exact_mms", "exact_mms.exact_mms"),
    ("exact_mms", "select_interval_list", "exact_mms.select"),
    ("exact_mms", "solve_lp_exact", "exact_mms.solve_lp_exact"),
    ("exact_mms", "explicit_decide_atleast", "exact_mms.greedy"),
    ("exact_mms", "explicit_decide_greater", "exact_mms.greedy"),
    ("exact_mms", "pie_exact_mms", "exact_mms.pie_exact_mms"),
    ("simplex", "solve_lp", "simplex.solve_lp"),
    ("pie", "pie_approx_mms", "pie.approx"),
    ("pie", "pie_allocation_ordinal", "pie.ordinal"),
    ("pie", "pie_decide_equals_one_over_k", "pie.decide"),
    ("pie", "pie_decide_positive", "pie.decide"),
    ("fairness", "envy_free_sperner", "fairness.ef"),
    ("fairness", "equitable_bisection", "fairness.eq"),
    ("fairness", "fairness_check", "fairness.check"),
    ("fairness", "_equitable_exact", "fairness.escalation"),
    ("fairness", "_envy_free_exact", "fairness.escalation"),
    ("fairness", "_cells_at", "fairness.global_scan"),
    ("fairness", "_fully_labeled", "fairness.cell_labeled"),
    ("adversary", "falsify_share_solver", "adversary.falsify"),
    ("adversary", "falsify_window_solver", "adversary.falsify"),
    ("adversary", "pie_threshold_witnesses", "adversary.falsify"),
]
LAYERS = ["cli", "instances", "sessions", "valuations", "cake", "exact_mms",
          "simplex", "pie", "fairness", "adversary"]


def den_bits(x) -> int:
    return x.denominator.bit_length() if x is not None else 0


class Tracer:
    """Spans in flat arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.cut_den_bits = 0
        self.lp_cells = 0
        self.lp_den_bits = 0
        self._undo: list = []

    def wrap(self, fn, name, measure=None):
        nid = self.ids.setdefault(name, len(self.ids))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx], end[idx] = t0, t1
            if measure is not None:
                measure(args, kwargs, result)
            return result

        return traced

    def _measure_cut(self, args, kwargs, result):
        self.cut_den_bits = max(self.cut_den_bits, den_bits(result))

    def _measure_lp(self, args, kwargs, result):
        objective, a_ub = args[0], args[1]
        a_eq = args[3] if len(args) > 3 else kwargs.get("a_eq", ())
        self.lp_cells += (len(a_ub) + len(a_eq)) * len(objective)
        if result.x is not None:
            self.lp_den_bits = max(
                self.lp_den_bits, den_bits(result.objective),
                *(den_bits(x) for x in result.x))

    def install(self) -> None:
        """Replace every target, in every sepfair module that holds it."""
        mods = {name.split(".", 1)[1]: mod
                for name, mod in list(sys.modules.items())
                if name.startswith("sepfair.") and mod is not None}
        measures = {"valuations.cut_leftmost": self._measure_cut,
                    "simplex.solve_lp": self._measure_lp}
        for modname, attr, span in TARGETS:
            mod = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, span, measures.get(span)))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, span, measures.get(span))
            for holder in mods.values():
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._undo.append((holder, key, orig))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            incl[k] += d
            self_s[k] += d - child[i]
        return {name: (calls[k], incl[k], self_s[k])
                for k, name in enumerate(self.names)}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        if name not in self.ids or ancestor not in self.ids:
            return 0
        nid, aid = self.ids[name], self.ids[ancestor]
        count = 0
        for i in range(len(self.start)):
            if self.name_of[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            count += p >= 0
        return count

    def metrics(self, op_seconds: float) -> dict:
        t = self.totals()

        def calls(*names):
            return sum(t.get(nm, (0, 0.0, 0.0))[0] for nm in names)

        def incl(*names):
            return sum(t.get(nm, (0, 0.0, 0.0))[1] for nm in names)

        def self_time(*names):
            return sum(t.get(nm, (0, 0.0, 0.0))[2] for nm in names)

        sessions = ("sessions.eval", "sessions.cut", "sessions.sub_eval",
                    "sessions.sub_cut")
        out = {
            "cli.self_s": (self_time("cli.main"), "s"),
            "instances.loads": (calls("instances.load_instance",
                                      "instances.load_allocation"), "count"),
            "instances.load_s": (incl("instances.load_instance",
                                      "instances.load_allocation"), "s"),
            "sessions.eval_queries": (calls("sessions.eval"), "count"),
            "sessions.cut_queries": (calls("sessions.cut"), "count"),
            "sessions.self_s": (self_time(*sessions), "s"),
            "valuations.cut_calls": (calls("valuations.cut_leftmost"),
                                     "count"),
            "valuations.cut_s": (incl("valuations.cut_leftmost"), "s"),
            "valuations.value_calls": (calls("valuations.value_between"),
                                       "count"),
            "valuations.value_s": (incl("valuations.value_between"), "s"),
            "valuations.max_den_bits": (self.cut_den_bits, "bits"),
            "cake.decide_s": (incl("cake.decide"), "s"),
            "cake.approx_s": (incl("cake.approx_mms"), "s"),
            "cake.knife_s": (incl("cake.mms_fair_allocation"), "s"),
            "cake.ordinal_s": (incl("cake.ordinal"), "s"),
            "exact_mms.shares": (calls("exact_mms.exact_mms"), "count"),
            "exact_mms.share_s": (incl("exact_mms.exact_mms"), "s"),
            "exact_mms.select_s": (incl("exact_mms.select"), "s"),
            "exact_mms.lp_builds": (calls("exact_mms.solve_lp_exact"),
                                    "count"),
            "exact_mms.greedy_calls": (calls("exact_mms.greedy"), "count"),
            "exact_mms.pie_shares": (calls("exact_mms.pie_exact_mms"),
                                     "count"),
            "exact_mms.pie_share_s": (incl("exact_mms.pie_exact_mms"), "s"),
            "simplex.solves": (calls("simplex.solve_lp"), "count"),
            "simplex.solve_s": (incl("simplex.solve_lp"), "s"),
            "simplex.tableau_cells": (self.lp_cells, "count"),
            "simplex.max_den_bits": (self.lp_den_bits, "bits"),
            "pie.approx_s": (incl("pie.approx"), "s"),
            "pie.approx_marks": (self.count_under("sessions.cut",
                                                  "pie.approx"), "count"),
            "pie.ordinal_s": (incl("pie.ordinal"), "s"),
            "pie.decide_s": (incl("pie.decide"), "s"),
            "fairness.ef_s": (incl("fairness.ef"), "s"),
            "fairness.eq_s": (incl("fairness.eq"), "s"),
            "fairness.check_s": (incl("fairness.check"), "s"),
            "fairness.exact_escalations": (calls("fairness.escalation"),
                                           "count"),
            "fairness.global_scans": (calls("fairness.global_scan"), "count"),
            "fairness.cells_labeled": (calls("fairness.cell_labeled"),
                                       "count"),
            "adversary.s": (incl("adversary.falsify"), "s"),
        }
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, st) in t.items():
            layer_self[name.split(".")[0]] += st
        for layer in LAYERS:
            out[f"{layer}.share"] = (layer_self[layer] / op_seconds, "ratio")
        return out

    def write(self, path) -> None:
        """Spans as JSON: names, then one [name, parent, start, end] row
        per span, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fp:
            fp.write('{"names": %s, "spans": [' % json.dumps(self.names))
            for i in range(len(self.start)):
                fp.write("%s[%d,%d,%.9f,%.9f]" % (
                    "," if i else "", self.name_of[i], self.parent[i],
                    self.start[i] - t0, self.end[i] - t0))
            fp.write("]}\n")
