"""Command-line front end.

Subcommands::

    mms-exact    exact guaranteed share of one agent (explicit valuations)
    mms-approx   bracket the share within epsilon through queries
    decide       compare the share against a value (>=, >, ==)
    allocate     full allocation: criterion mms | ordinal | ef | eq
    pie-decide   pie share decisions: one-over-k | positive
    check        fairness report for a stored allocation
    adversary    impossibility demos: findsum | haslowvalue | pie-witness

Values are printed as exact rational strings ("2/5"); ``--float`` renders
them as floats instead.  Exit codes: 0 success, 1 input error, 2 protocol
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import adversary as adv
from .cake import (Relation, decide, approx_mms, mms_fair_allocation,
                   ordinal_allocation_2n_minus_1)
from .errors import InputError, ProtocolError, SepfairError
from .exact_mms import exact_mms, exact_mms_allocation
from .fairness import equitable_bisection, envy_free_sperner, fairness_check
from .instances import (Instance, allocation_to_json, instance_to_json,
                        load_allocation, load_instance)
from .pie import (pie_allocation_ordinal, pie_approx_mms,
                  pie_decide_equals_one_over_k, pie_decide_positive)
from .rationals import fmt, frac
from .sessions import QuerySession
from .valuations import Topology


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared by
    every ``main`` call in the process (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(
        prog="sepfair",
        description="Fair division of an interval or circular resource "
                    "with minimum separation between the pieces.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "table"),
                        default="json")
    common.add_argument("--float", action="store_true", dest="as_float",
                        help="display numbers as floats instead of rationals")
    common.add_argument("--transcript", metavar="PATH",
                        help="write the query transcript as JSON lines")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def add_instance(sp, agent=True):
        sp.add_argument("--instance", required=True, metavar="PATH")
        if agent:
            sp.add_argument("--agent", type=int, default=0)

    sp = add_parser("mms-exact", help="exact share, explicit valuation")
    add_instance(sp)
    sp.add_argument("--n", type=int, default=None,
                    help="number of pieces (default: number of agents)")

    sp = add_parser("mms-approx", help="bracket the share by queries")
    add_instance(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None,
                    help="pie only: number of pieces (default n+1)")
    sp.add_argument("--epsilon", default="1/1024")

    sp = add_parser("decide", help="compare the share against r")
    add_instance(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--rel", choices=("atleast", "greater", "equal"),
                    required=True)
    sp.add_argument("--r", required=True)

    sp = add_parser("allocate", help="compute a full allocation")
    add_instance(sp, agent=False)
    sp.add_argument("--criterion", choices=("mms", "ordinal", "ef", "eq"),
                    required=True)
    sp.add_argument("--epsilon", default=None)
    sp.add_argument("--ell", default="1",
                    help="pie ordinal: comma list or single integer")
    sp.add_argument("--thresholds", default=None,
                    help="pie ordinal: comma list of rational thresholds")

    sp = add_parser("pie-decide", help="pie share decisions")
    add_instance(sp)
    sp.add_argument("--mode", choices=("one-over-k", "positive"),
                    required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = add_parser("check", help="fairness report for an allocation")
    add_instance(sp, agent=False)
    sp.add_argument("--allocation", required=True, metavar="PATH")

    sp = add_parser("adversary", help="impossibility demos")
    sp.add_argument("kind", choices=("findsum", "haslowvalue", "pie-witness"))
    sp.add_argument("--s", default="1/10")
    sp.add_argument("--q", default="1/20")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--budget", type=int, default=20)
    sp.add_argument("--solver", default=None,
                    help="findsum: bisect|grid; haslowvalue: scan|cuts")
    return p


def _witness_json(partition) -> list:
    return [{"left": fmt(p.left), "right": fmt(p.right)}
            for p in partition.pieces]


def _write_transcripts(path, sessions):
    with open(path, "w") as fp:
        for agent, sess in enumerate(sessions):
            for i, rec in enumerate(sess.transcript):
                row = rec.to_json(i)
                if len(sessions) > 1:
                    row = {"agent": agent, **row}
                fp.write(json.dumps(row) + "\n")


def run(args) -> dict:
    """Execute one parsed command; returns its output dict."""
    if args.command == "adversary":
        return _run_adversary(args)

    inst = load_instance(args.instance)
    transcript_sessions = []

    if args.command == "mms-exact":
        n = args.n if args.n is not None else inst.n
        v = _agent_valuation(inst, args.agent)
        if inst.topology is not Topology.CAKE:
            raise InputError("mms-exact runs on cakes only; for a pie, "
                             "'check' audits against the exact "
                             "1-out-of-(n+1) share and 'mms-approx' "
                             "approximates any 1-out-of-k share")
        share, part = exact_mms(v, n, inst.s)
        out = {"agent": args.agent, "n": n, "s": fmt(inst.s),
               "mms": fmt(share), "partition": _witness_json(part)}

    elif args.command == "mms-approx":
        eps = frac(args.epsilon)
        sess = QuerySession(_agent_valuation(inst, args.agent))
        if inst.topology is Topology.CAKE:
            n = args.n if args.n is not None else inst.n
            r, part = approx_mms(sess, n, inst.s, eps)
            out = {"agent": args.agent, "n": n, "r": fmt(r),
                   "queries": sess.query_count,
                   "witness": _witness_json(part)}
        else:
            k = args.k if args.k is not None else (
                (args.n if args.n is not None else inst.n) + 1)
            r, part = pie_approx_mms(sess, k, inst.s, eps)
            out = {"agent": args.agent, "k": k, "r": fmt(r),
                   "queries": sess.query_count,
                   "witness": _witness_json(part)}
        transcript_sessions = [sess]

    elif args.command == "decide":
        if inst.topology is not Topology.CAKE:
            raise InputError(
                "share decisions against a general r exist on cakes only")
        n = args.n if args.n is not None else inst.n
        sess = QuerySession(_agent_valuation(inst, args.agent))
        answer, witness = decide(sess, n, inst.s, frac(args.r),
                                 Relation(args.rel))
        out = {"agent": args.agent, "n": n, "rel": args.rel,
               "r": args.r, "answer": answer, "queries": sess.query_count}
        if witness is not None:
            out["witness"] = _witness_json(witness)
        transcript_sessions = [sess]

    elif args.command == "allocate":
        out, transcript_sessions = _run_allocate(args, inst)

    elif args.command == "pie-decide":
        if inst.topology is not Topology.PIE:
            raise InputError("pie-decide needs a pie instance")
        sess = QuerySession(_agent_valuation(inst, args.agent))
        if args.mode == "one-over-k":
            answer, witness = pie_decide_equals_one_over_k(
                sess, args.k, inst.s)
            out = {"agent": args.agent, "k": args.k, "mode": args.mode,
                   "answer": answer, "queries": sess.query_count}
            if witness is not None:
                out["witness"] = _witness_json(witness)
        else:
            answer = pie_decide_positive(sess, args.k, inst.s)
            out = {"agent": args.agent, "k": args.k, "mode": args.mode,
                   "answer": answer, "queries": sess.query_count}
        transcript_sessions = [sess]

    else:       # check
        alloc = load_allocation(args.allocation, inst)
        report = fairness_check(alloc, inst.agents, alloc.s, alloc.topology)
        out = report.to_json()

    if args.transcript and transcript_sessions:
        _write_transcripts(args.transcript, transcript_sessions)
    return out


def _agent_valuation(inst, agent: int):
    if not (0 <= agent < inst.n):
        raise InputError(f"agent {agent} out of range")
    return inst.agents[agent]


def _parse_ells(text: str, n: int):
    parts = text.split(",")
    if len(parts) == 1:
        parts *= n
    if len(parts) != n:
        raise InputError("need one ell per agent")
    try:
        ells = [int(t) for t in parts]
    except ValueError as exc:
        raise InputError(f"ells must be integers, got {text!r}") from exc
    if min(ells) < 1:
        raise InputError("ells must be positive integers")
    return ells


def _run_allocate(args, inst):
    n = inst.n
    eps = frac(args.epsilon) if args.epsilon is not None else None
    if args.criterion == "mms":
        if inst.topology is not Topology.CAKE:
            raise InputError("exact share allocation exists on cakes only; "
                             "use --criterion ordinal for a pie")
        if eps is None:
            alloc = exact_mms_allocation(inst.agents, inst.s)
            return (allocation_to_json(alloc, inst, None), [])
        sessions = [QuerySession(v) for v in inst.agents]
        thresholds = [approx_mms(sess, n, inst.s, eps)[0]
                      for sess in sessions]
        alloc = mms_fair_allocation(sessions, inst.s, thresholds)
        queries = sum(sess.query_count for sess in sessions)
        return (allocation_to_json(alloc, inst, queries), sessions)
    if args.criterion == "ordinal":
        sessions = [QuerySession(v) for v in inst.agents]
        if inst.topology is Topology.CAKE:
            alloc = ordinal_allocation_2n_minus_1(sessions, inst.s)
        else:
            ells = _parse_ells(args.ell, n)
            if args.thresholds is not None:
                thresholds = [frac(t) for t in args.thresholds.split(",")]
            elif all(e == 1 for e in ells):
                eps_t = eps if eps is not None else Fraction(1, 100)
                thresholds = [pie_approx_mms(sess, n + 1, inst.s, eps_t)[0]
                              for sess in sessions]
            else:
                raise InputError(
                    "ell > 1 needs explicit --thresholds (no query protocol "
                    "approximates the plural share)")
            alloc = pie_allocation_ordinal(sessions, inst.s, ells, thresholds)
        queries = sum(sess.query_count for sess in sessions)
        return (allocation_to_json(alloc, inst, queries), sessions)
    if args.criterion == "ef":
        eps_ef = eps if eps is not None else Fraction(1, 10**6)
        alloc = envy_free_sperner(inst.agents, inst.s, eps_ef)
    else:       # equitable
        eps_eq = eps if eps is not None else Fraction(1, 10**9)
        alloc = equitable_bisection(inst.agents, inst.s, None, eps_eq)
    return (allocation_to_json(alloc, inst, None), [])


def _pick_solver(args, **solvers):
    """The candidate named by ``--solver`` (the first one by default), with
    its name."""
    name = args.solver or next(iter(solvers))
    if name not in solvers:
        raise InputError(f"unknown solver {name!r} for {args.kind}")
    return name, solvers[name]


def _run_adversary(args) -> dict:
    s = frac(args.s)
    if args.kind == "findsum":
        name, solver = _pick_solver(
            args, bisect=adv.bisection_share_candidate,
            grid=adv.grid_eval_share_candidate)
        out = adv.falsify_share_solver(solver, s, args.budget)
        return {"kind": "findsum", "s": args.s, "budget": args.budget,
                "solver": name,
                "claimed": fmt(out["claimed"]), "actual": fmt(out["actual"]),
                "falsified": out["falsified"], "queries": out["queries"]}
    if args.kind == "haslowvalue":
        name, solver = _pick_solver(args, scan=adv.window_scan_candidate,
                                    cuts=adv.cut_walk_candidate)
        out = adv.falsify_window_solver(solver, s, frac(args.q), args.budget)
        return {"kind": "haslowvalue", "s": args.s, "q": args.q,
                "budget": args.budget, "solver": name,
                "answer": out["answer"], "window_min": fmt(out["window_min"]),
                "falsified": out["falsified"], "queries": out["queries"]}
    v_low, v_high, _ = adv.pie_threshold_witnesses(args.k, s, [])
    low = instance_to_json(Instance(Topology.PIE, s, (v_low,)))
    high = instance_to_json(Instance(Topology.PIE, s, (v_high,)))
    return {"kind": "pie-witness", "k": args.k, "s": args.s,
            "v_low": low["agents"][0], "v_high": high["agents"][0]}


def _floatify(obj):
    if isinstance(obj, dict):
        return {k: _floatify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floatify(v) for v in obj]
    if isinstance(obj, str):
        try:
            return float(Fraction(obj))
        except (ValueError, ZeroDivisionError):
            return obj
    return obj


def _print_table(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                _print_table(item, indent + 1)
                print()
            else:
                print(f"{pad}- {item}")
    else:
        print(f"{pad}{obj}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SepfairError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if args.as_float:
        out = _floatify(out)
    if args.output == "table":
        _print_table(out)
    else:
        print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
