"""Output checkers that do not call the library.

Every check works on the JSON an operation printed and on the instance the
benchmark generated, with the benchmark's own exact arithmetic: piece
values from breakpoints and densities, separation, envy and equitability
gaps, the greedy at-least and strictly-greater share tests, and the query
budgets the library documents.  A failed check raises ``CheckError``.

Cake shares are certified exactly: ``share >= c`` by the left-to-right
greedy and ``share > c`` by the right-to-left greedy with maximal pieces.
Pie shares are only bounded, through properties any correct answer has:
a witness partition is a lower bound, a strictly-greater certificate found
on some opening of the circle is a strict lower bound, and every separator
is worth at least the cheapest length-s window, which bounds from above.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from fractions import Fraction
from math import ceil, log2

from gen import ONE, ZERO, Agent


class CheckError(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


def q(text) -> Fraction:
    expect(isinstance(text, str), f"expected a rational string, got {text!r}")
    return Fraction(text)


# -- exact values -------------------------------------------------------------


def prefix(a: Agent, x: Fraction) -> Fraction:
    j = min(bisect_right(a.bps, x) - 1, len(a.dens) - 1)
    return a.prefix[j] + a.dens[j] * (x - a.bps[j])


def value(a: Agent, x: Fraction, y: Fraction) -> Fraction:
    return prefix(a, y) - prefix(a, x)


def arc_value(a: Agent, x: Fraction, y: Fraction) -> Fraction:
    """Clockwise arc from x to y on the circle; x == y is empty."""
    return value(a, x, y) if x <= y else ONE - value(a, y, x)


def first_reaching(a: Agent, target: Fraction, lo: Fraction) -> Fraction:
    """Smallest y >= lo with prefix(y) >= target (target <= 1)."""
    if prefix(a, lo) >= target:
        return lo
    j = bisect_right(a.prefix, target) - 1
    while a.prefix[j] >= target:       # step back to the segment that rises
        j -= 1
    return a.bps[j] + (target - a.prefix[j]) / a.dens[j]


def cut(a: Agent, x: Fraction, alpha: Fraction, end: Fraction):
    """Leftmost y in [x, end] with value(x, y) == alpha, or None."""
    target = prefix(a, x) + alpha
    if target > prefix(a, end):
        return None
    return first_reaching(a, target, x)


@lru_cache(maxsize=4096)
def doubled(a: Agent) -> Agent:
    """The circle unrolled twice, on [0, 2]: arcs become intervals."""
    return Agent(a.bps + tuple(b + 1 for b in a.bps[1:]), a.dens + a.dens)


# -- greedy share tests on a cake interval [lo, hi] ---------------------------


def atleast(a: Agent, n: int, s, r, lo=ZERO, hi=ONE) -> bool:
    """Do n pieces of [lo, hi], s apart, each worth >= r exist?"""
    if hi - lo < (n - 1) * s:
        return False
    if r <= 0:
        return True
    pos = lo
    for _ in range(n - 1):
        y = cut(a, pos, r, hi)
        if y is None:
            return False
        pos = y + s
        if pos > hi:
            return False
    return value(a, pos, hi) >= r


def greater(a: Agent, n: int, s, r, lo=ZERO, hi=ONE) -> bool:
    """Do n pieces of [lo, hi], s apart, each worth > r exist?

    Pieces worth exactly r are laid from the right, each as long as
    possible; the answer is yes iff value is left over before the last."""
    if hi - lo < (n - 1) * s:
        return False
    if r < 0:
        return True
    pos = hi
    start_value = prefix(a, lo)
    for i in range(n):
        target = prefix(a, pos) - r
        if target < start_value:
            return False
        x = first_reaching(a, target, lo)
        if i < n - 1:
            pos = x - s
            if pos < lo:
                return False
    return prefix(a, x) > start_value


def openings(a: Agent, s: Fraction):
    return sorted({b % ONE for b in a.bps} | {(b + s) % ONE for b in a.bps})


def pie_atleast_found(a: Agent, k: int, s, r) -> bool:
    """Some opening z of the circle, the arc [z, z+1-s], holds k pieces
    worth >= r: then share >= r."""
    d = doubled(a)
    return any(atleast(d, k, s, r, z, z + 1 - s) for z in openings(a, s))


def pie_greater_found(a: Agent, k: int, s, r) -> bool:
    """Some opening holds k pieces worth > r: then the share exceeds r."""
    d = doubled(a)
    return any(greater(d, k, s, r, z, z + 1 - s) for z in openings(a, s))


def min_window(a: Agent, s: Fraction) -> Fraction:
    cands = {b % ONE for b in a.bps} | {(b - s) % ONE for b in a.bps}
    return min(arc_value(a, x, (x + s) % ONE) for x in cands)


def pie_share_upper(a: Agent, k: int, s) -> Fraction:
    """Each of the k separators is worth at least the cheapest window."""
    return (ONE - k * min_window(a, s)) / k


# -- pieces -------------------------------------------------------------------


def pieces(items) -> list:
    return [(q(p["left"]), q(p["right"])) for p in items]


def cake_separated(ps, s) -> bool:
    ps = sorted(ps)
    if any(not (ZERO <= x <= y <= ONE) for x, y in ps):
        return False
    return all(b[0] - a[1] >= s for a, b in zip(ps, ps[1:]))


def pie_separated(ps, s) -> bool:
    """Arcs in [0, 1), each gap clockwise >= s, once around the circle."""
    if any(not (ZERO <= x < ONE and ZERO <= y < ONE) for x, y in ps):
        return False
    ps = sorted(ps)
    if len(ps) == 1:
        x, y = ps[0]
        return ONE - (y - x) % ONE >= s
    used = ZERO
    for i, (x, y) in enumerate(ps):
        nxt = ps[(i + 1) % len(ps)]
        gap = (nxt[0] - y) % ONE
        if gap < s:
            return False
        used += (y - x) % ONE + gap
    return used == ONE


def separated(topology, ps, s) -> bool:
    return cake_separated(ps, s) if topology == "cake" \
        else pie_separated(ps, s)


def piece_value(topology, a, piece) -> Fraction:
    x, y = piece
    return value(a, x, y) if topology == "cake" else arc_value(a, x, y)


def check_allocation(inst, out) -> dict:
    """Shared checks of an allocation result; returns agent -> piece."""
    expect(out["topology"] == inst.topology, "topology echoed wrongly")
    expect(q(out["s"]) == inst.s, "separation echoed wrongly")
    items = out["allocation"]
    expect(sorted(it["agent"] for it in items)
           == list(range(len(inst.agents))), "allocation misses agents")
    alloc = {}
    for it in items:
        piece = (q(it["left"]), q(it["right"]))
        a = inst.agents[it["agent"]]
        expect(q(it["value"]) == piece_value(inst.topology, a, piece),
               f"reported value of agent {it['agent']} is wrong")
        alloc[it["agent"]] = piece
    expect(separated(inst.topology, list(alloc.values()), inst.s),
           "allocation is not s-separated")
    return alloc


def values_matrix(inst, alloc):
    n = len(inst.agents)
    return [[piece_value(inst.topology, inst.agents[i], alloc[j])
             for j in range(n)] for i in range(n)]


def envy(vals) -> Fraction:
    n = len(vals)
    return max(vals[i][j] - vals[i][i] for i in range(n) for j in range(n))


def equitability_gap(vals) -> Fraction:
    own = [vals[i][i] for i in range(len(vals))]
    return max(own) - min(own)


# -- per-operation checks -----------------------------------------------------


def check_witness(topology, a, ps, count, s, r):
    expect(len(ps) == count, f"witness has {len(ps)} pieces, want {count}")
    expect(separated(topology, ps, s), "witness is not s-separated")
    expect(all(piece_value(topology, a, p) >= r for p in ps),
           "a witness piece is worth less than the claimed share")


def agent_of(op, inst) -> Agent:
    return inst.agents[op["params"].get("agent", 0)]


def check_mms_exact(op, inst, out, queries):
    n, a, s = op["params"]["n"], agent_of(op, inst), inst.s
    c = q(out["mms"])
    expect(out["n"] == n and q(out["s"]) == s, "parameters echoed wrongly")
    check_witness("cake", a, pieces(out["partition"]), n, s, c)
    expect(not greater(a, n, s, c), "share is larger than reported")


def check_decide(op, inst, out, queries):
    n, a, s = op["params"]["n"], agent_of(op, inst), inst.s
    r, rel = op["params"]["r"], op["params"]["rel"]
    ge, gt = atleast(a, n, s, r), greater(a, n, s, r)
    want = {"atleast": ge, "greater": gt, "equal": ge and not gt}[rel]
    expect(out["answer"] is want, f"decide {rel} answered {out['answer']}")
    if "witness" in out:
        check_witness("cake", a, pieces(out["witness"]), n, s, r)
    budget = {"atleast": n, "greater": 2 * n - 1, "equal": 3 * n - 1}[rel]
    expect(out["queries"] == queries <= budget,
           f"decide used {out['queries']} queries, budget {budget}")


def approx_budget(n, eps) -> int:
    return n * ceil(log2(1 / eps))


def check_mms_approx_cake(op, inst, out, queries):
    n, a, s = op["params"]["n"], agent_of(op, inst), inst.s
    eps = op["params"]["eps"]
    r = q(out["r"])
    check_witness("cake", a, pieces(out["witness"]), n, s, r)
    expect(not greater(a, n, s, r + eps), "bracket misses the share by eps")
    expect(out["queries"] == queries <= approx_budget(n, eps),
           "approx_mms over its query budget")


def pie_approx_budget(eps) -> int:
    return ceil(2 / eps) + 1        # one cut per mark of value eps/2


def check_mms_approx_pie(op, inst, out, queries):
    k, a, s = op["params"]["k"], agent_of(op, inst), inst.s
    eps = op["params"]["eps"]
    r = q(out["r"])
    check_witness("pie", a, pieces(out["witness"]), k, s, r)
    expect(r <= pie_share_upper(a, k, s), "pie share above its upper bound")
    expect(not pie_greater_found(a, k, s, r + eps),
           "a partition beats the pie bracket by more than eps")
    expect(out["queries"] == queries <= pie_approx_budget(eps),
           "pie_approx_mms over its query budget")


def check_allocate_mms(op, inst, out, queries):
    n, s = len(inst.agents), inst.s
    alloc = check_allocation(inst, out)
    for i, a in enumerate(inst.agents):
        own = value(a, *alloc[i])
        expect(not greater(a, n, s, own),
               f"agent {i} got less than her exact share")
    expect("query_count_total" not in out, "exact allocation reported queries")
    expect(queries == n * (n + 1) // 2 - 1, "moving knife query count")


def check_allocate_mms_eps(op, inst, out, queries):
    n, s = len(inst.agents), inst.s
    eps = op["params"]["eps"]
    alloc = check_allocation(inst, out)
    for i, a in enumerate(inst.agents):
        own = value(a, *alloc[i])
        expect(not greater(a, n, s, own + eps),
               f"agent {i} got less than her share minus eps")
    budget = n * approx_budget(n, eps) + n * (n + 1) // 2 - 1
    expect(out["query_count_total"] == queries <= budget,
           "approximate allocation over its query budget")


def check_allocate_ordinal_cake(op, inst, out, queries):
    n, s = len(inst.agents), inst.s
    alloc = check_allocation(inst, out)
    for i, a in enumerate(inst.agents):
        expect(not greater(a, 2 * n - 1, s, value(a, *alloc[i])),
               f"agent {i} below her 1-out-of-{2 * n - 1} share")
    expect(out["query_count_total"] == queries <= 10 * n * n / s,
           "ordinal allocation over its query budget")


def check_allocate_ordinal_pie(op, inst, out, queries):
    n, s = len(inst.agents), inst.s
    eps = op["params"]["eps"]           # accuracy of the pie thresholds
    alloc = check_allocation(inst, out)
    for i, a in enumerate(inst.agents):
        own = arc_value(a, *alloc[i])
        expect(not pie_greater_found(a, n + 1, s, own + eps),
               f"agent {i} below her 1-out-of-{n + 1} share minus eps")
    budget = n * pie_approx_budget(eps) + n * (n + 1) // 2
    expect(out["query_count_total"] == queries <= budget,
           "pie ordinal allocation over its query budget")


def check_allocate_ef(op, inst, out, queries):
    alloc = check_allocation(inst, out)
    expect(envy(values_matrix(inst, alloc)) <= Fraction(1, 10**6),
           "envy above eps")
    expect(queries == 0, "explicit solver asked session queries")


def check_allocate_eq(op, inst, out, queries):
    alloc = check_allocation(inst, out)
    expect(equitability_gap(values_matrix(inst, alloc))
           <= Fraction(1, 10**9), "equitability gap above eps")
    expect(queries == 0, "explicit solver asked session queries")


def check_audit(op, inst, out, queries):
    n, s, topo = len(inst.agents), inst.s, inst.topology
    alloc = op["allocation"]
    vals = values_matrix(inst, alloc)
    expect(q(out["envy_max"]) == envy(vals), "audit envy is wrong")
    expect(q(out["equitability_gap"]) == equitability_gap(vals),
           "audit equitability gap is wrong")
    expect(out["separation_ok"] is separated(topo, list(alloc.values()), s),
           "audit separation verdict is wrong")
    dom = out["mms_dominance"]
    expect(len(dom) == n and all(isinstance(x, bool) for x in dom),
           "audit dominance list malformed")
    for i, a in enumerate(inst.agents):
        own = vals[i][i]
        if topo == "cake":
            expect(dom[i] is (not greater(a, n, s, own)),
                   f"audit dominance of agent {i} is wrong")
        elif pie_greater_found(a, n + 1, s, own):
            expect(dom[i] is False, f"agent {i} is below her pie share")
        elif own >= pie_share_upper(a, n + 1, s):
            expect(dom[i] is True, f"agent {i} is above her pie share")
    expect(queries == 0, "audit asked session queries")


def zero_runs(a: Agent):
    """Starts of the maximal worthless arcs of a pie."""
    n = len(a.dens)
    return [a.bps[j] for j in range(n)
            if a.dens[j] == 0 and a.dens[j - 1] != 0]


def ceiling_reached(a: Agent, k: int, s) -> bool:
    """Share == 1/k iff, from the start of some worthless arc, k rounds
    of 'a worthless gap of length s, then the leftmost arc worth 1/k'
    fit once around the circle."""
    d = doubled(a)
    for z in zero_runs(a):
        pos, ok = z, True
        for _ in range(k):
            if pos + s > z + 1 or value(d, pos, pos + s) != 0:
                ok = False
                break
            pos = cut(d, pos + s, Fraction(1, k), z + 1)
            if pos is None:
                ok = False
                break
        if ok:
            return True
    return False


def positive_reached(a: Agent, k: int, s) -> bool:
    """Share > 0 iff k points of positive density lie pairwise more than s
    apart clockwise.  Points carry an infinitesimal order (x, m) meaning
    x + m*delta; greedy placement from each valued arc is optimal."""
    runs = [(a.bps[j], a.bps[j + 1]) for j in range(len(a.dens))
            if a.dens[j] > 0]
    starts = [lo for lo, _ in runs]
    runs += [(lo + ONE, hi + ONE) for lo, hi in runs]    # one more turn

    def next_point(x, m):
        t = x + s
        for lo, hi in runs:
            if lo <= t < hi:
                return (t, m + 1)
        later = [lo for lo, _ in runs if lo > t]
        return (min(later), 1) if later else None

    for lo in starts:
        pt = (lo, 1)
        for _ in range(k - 1):
            pt = next_point(*pt)
            if pt is None:
                break
        if pt is not None and (lo + ONE, 1) > (pt[0] + s, pt[1]):
            return True
    return False


def check_pie_decide(op, inst, out, queries):
    k, mode, a, s = op["params"]["k"], op["params"]["mode"], \
        agent_of(op, inst), inst.s
    expect(out["k"] == k and out["mode"] == mode, "parameters echoed wrongly")
    if mode == "one-over-k":
        want = ceiling_reached(a, k, s)
        if "witness" in out:
            check_witness("pie", a, pieces(out["witness"]), k, s,
                          Fraction(1, k))
        budget = 6 * k / s
    else:
        want = positive_reached(a, k, s)
        budget = 4 * k - 1          # 2k arc evals, then one 2k-1 decision
    expect(out["answer"] is want,
           f"pie-decide {mode} answered {out['answer']}")
    expect(out["queries"] == queries <= budget,
           f"pie-decide {mode} over its query budget")


def check_findsum(op, inst, out, queries):
    p = op["params"]
    expect(out["falsified"] is True, "findsum adversary failed to refute")
    expect(q(out["claimed"]) != q(out["actual"]), "claim equals the truth")
    expect(all(ZERO <= q(out[key]) <= ONE for key in ("claimed", "actual")),
           "shares outside [0, 1]")
    expect(0 < out["queries"] <= p["budget"], "solver over its query budget")


def check_haslowvalue(op, inst, out, queries):
    p = op["params"]
    expect(out["falsified"] is True, "window adversary failed to refute")
    expect(isinstance(out["answer"], bool), "answer is not a boolean")
    expect(ZERO <= q(out["window_min"]) <= ONE,
           "window minimum outside [0, 1]")
    expect(0 < out["queries"] <= p["budget"], "solver over its query budget")


def agent_from_json(entry) -> Agent:
    a = Agent([q(x) for x in entry["breakpoints"]],
              [q(g) for g in entry["densities"]])
    expect(a.bps[0] == 0 and a.bps[-1] == 1 and a.prefix[-1] == 1
           and all(x < y for x, y in zip(a.bps, a.bps[1:]))
           and all(g >= 0 for g in a.dens), "witness valuation is malformed")
    return a


def check_pie_witness(op, inst, out, queries):
    k, s = op["params"]["k"], op["params"]["s"]
    low, high = agent_from_json(out["v_low"]), agent_from_json(out["v_high"])
    expect(low.dens == (ONE,), "v_low is not uniform")
    r = (ONE - k * s) / k            # the uniform pie's share
    expect(pie_atleast_found(low, k, s, r)
           and not pie_greater_found(low, k, s, r), "uniform share is wrong")
    expect(pie_greater_found(high, k, s, r), "v_high does not beat uniform")


CHECKERS = {
    "mms-exact": check_mms_exact,
    "allocate-mms": check_allocate_mms,
    "check-cake": check_audit,
    "check-pie": check_audit,
    "adversary-findsum": check_findsum,
    "decide": check_decide,
    "mms-approx-cake": check_mms_approx_cake,
    "mms-approx-pie": check_mms_approx_pie,
    "allocate-mms-eps": check_allocate_mms_eps,
    "allocate-ordinal-cake": check_allocate_ordinal_cake,
    "pie-decide": check_pie_decide,
    "adversary-haslowvalue": check_haslowvalue,
    "adversary-pie-witness": check_pie_witness,
    "allocate-ef": check_allocate_ef,
    "allocate-eq": check_allocate_eq,
    "allocate-ordinal-pie": check_allocate_ordinal_pie,
}


def check(op, out, queries) -> None:
    """Raise CheckError unless ``out`` is a correct answer to ``op``."""
    expect(isinstance(out, dict), "output is not a JSON object")
    try:
        CHECKERS[op["kind"]](op, op["instance"], out, queries)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from exc
