"""Seeded inputs for the benchmark: instances, allocations and operations.

Only the standard library is used, so the inputs do not depend on the code
under test.  ``build(workload, seed, outdir)`` writes every instance and
allocation file the run needs and returns the operation list.  Each
operation is one ``sepfair`` CLI call plus what its checker needs.

A workload is a round function: round r of seed x draws its instances
from ``random.Random(f"{workload}/{x}/{r}")``, while the kinds of its
operations, n, k, the separation and the query parameters depend on r
alone.  A run's list is ``ROUNDS[workload]`` rounds, so its make-up is the
same for every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

ZERO, ONE = Fraction(0), Fraction(1)
ZERO_SHARE = Fraction(1, 4)     # share of worthless segments


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 \
        else f"{q.numerator}/{q.denominator}"


class Agent:
    """A step density: breakpoints 0 = p_0 < ... < p_d = 1, one density per
    segment, and prefix values at the breakpoints."""

    __slots__ = ("bps", "dens", "prefix")

    def __init__(self, bps, dens):
        self.bps = tuple(Fraction(p) for p in bps)
        self.dens = tuple(Fraction(g) for g in dens)
        prefix = [ZERO]
        for a, b, g in zip(self.bps, self.bps[1:], self.dens):
            prefix.append(prefix[-1] + g * (b - a))
        self.prefix = tuple(prefix)

    def to_json(self) -> dict:
        return {"breakpoints": [fmt(p) for p in self.bps],
                "densities": [fmt(g) for g in self.dens]}


class Instance:
    __slots__ = ("topology", "s", "agents")

    def __init__(self, topology, s, agents):
        self.topology, self.s, self.agents = topology, Fraction(s), agents

    def to_json(self) -> dict:
        return {"topology": self.topology, "s": fmt(self.s),
                "agents": [a.to_json() for a in self.agents]}


def random_agent(rng: random.Random, d: int, zeros=None) -> Agent:
    """d segments on a 1/(8d) grid, the others get integer weights 1..12,
    then the density is scaled to total value 1.  ``zeros`` segments are
    worthless; by default each one is with probability ZERO_SHARE."""
    grid = 8 * d
    cuts = sorted(rng.sample(range(1, grid), d - 1))
    bps = [ZERO] + [Fraction(c, grid) for c in cuts] + [ONE]
    if zeros is None:
        worthless = {j for j in range(d) if rng.random() < ZERO_SHARE}
    else:
        worthless = set(rng.sample(range(d), zeros))
    weights = [0 if j in worthless else rng.randint(1, 12) for j in range(d)]
    if not any(weights):
        weights[rng.randrange(d)] = 1
    total = sum(w * (b - a) for w, a, b in zip(weights, bps, bps[1:]))
    return Agent(bps, [w / total for w in weights])


def separation(limit: Fraction, step: int) -> Fraction:
    """s = limit * j/10 with j = 1..9 cycling with ``step``: separation
    drives the cost of most operations, so every seed gets the same mix."""
    return limit * Fraction(step % 9 + 1, 10)


def cake_allocation(rng: random.Random, n: int, s: Fraction):
    """Random s-separated pieces of [0, 1] dealt to the agents in random
    order: gaps of at least s, the rest split at random between pieces."""
    slack = ONE - (n - 1) * s
    weights = [rng.randint(1, 8) for _ in range(2 * n)]
    unit = slack / sum(weights)
    lengths = [w * unit for w in weights]
    pieces, pos = [], lengths[-1] * Fraction(1, 2)
    for i in range(n):
        piece = (pos, pos + lengths[i])
        pieces.append(piece)
        pos = piece[1] + s + lengths[n + i] * Fraction(n - 1, 2 * n)
    order = list(range(n))
    rng.shuffle(order)
    return {agent: pieces[j] for j, agent in enumerate(order)}


def pie_allocation(rng: random.Random, n: int, s: Fraction):
    """Random s-separated arcs of the circle, starting at a random offset
    (so pieces may wrap through 0), dealt in random order."""
    slack = ONE - n * s
    weights = [rng.randint(1, 8) for _ in range(2 * n)]
    unit = slack / sum(weights)
    offset = Fraction(rng.randrange(64), 64)
    pieces, pos = [], offset
    for i in range(n):
        length = weights[i] * unit
        pieces.append((pos % ONE, (pos + length) % ONE))
        pos += length + s + weights[n + i] * unit
    order = list(range(n))
    rng.shuffle(order)
    return {agent: pieces[j] for j, agent in enumerate(order)}


def allocation_json(inst: Instance, alloc) -> dict:
    return {"topology": inst.topology, "s": fmt(inst.s),
            "allocation": [{"agent": i, "left": fmt(a), "right": fmt(b)}
                           for i, (a, b) in sorted(alloc.items())]}


# -- workloads ----------------------------------------------------------------
#
# One round of a workload draws fresh instances and returns its operations.
# The sizes keep every operation's cost within a narrow range on every seed
# tried; the slow cases the library has are left out on purpose and named
# in CHANGES.md and README.md.


def op(kind, argv, inst=None, alloc=None, **params) -> dict:
    return {"kind": kind, "argv": list(argv), "instance": inst,
            "allocation": alloc, "params": params}


def cake(rng, agents, d, limit, step, exact=False) -> Instance:
    """Cake instance with s below ``limit``.  Each agent has d/2..d
    segments, or with ``exact`` d segments of which d/4 are worthless."""
    if exact:
        vs = [random_agent(rng, d, d // 4) for _ in range(agents)]
    else:
        vs = [random_agent(rng, rng.randint(max(1, d // 2), d))
              for _ in range(agents)]
    return Instance("cake", separation(limit, step), vs)


def pie(rng, agents, d, limit, step, exact=False) -> Instance:
    inst = cake(rng, agents, d, limit, step, exact)
    inst.topology = "pie"
    return inst


def exact_shares_round(rng, rnd) -> list:
    # Segment counts are exact (d/4 of them worthless) and cycle with the
    # round number: the cost of an exact share grows fast with n and d, and
    # a smooth spread of costs keeps the percentiles off the gaps.
    ops = []
    for j, (n, d_lo, d_hi) in enumerate(((3, 8, 16), (4, 6, 12), (5, 4, 8),
                                         (6, 3, 5))):
        d = d_lo + (rnd + j) % (d_hi - d_lo + 1)
        ops.append(op("mms-exact", ["mms-exact", "--n", str(n)],
                      cake(rng, 1, d, Fraction(1, n - 1), rnd + j, True),
                      n=n))
    ops.append(op("allocate-mms", ["allocate", "--criterion", "mms"],
                  cake(rng, 3, 6 + rnd % 3, Fraction(1, 2), rnd + 4, True)))
    inst = cake(rng, 3, 4 + rnd % 3, Fraction(1, 2), rnd + 5, True)
    ops.append(op("check-cake", ["check"], inst,
                  cake_allocation(rng, 3, inst.s)))
    inst = pie(rng, 1, 2 + rnd % 3, Fraction(1, 2), rnd + 6, True)
    ops.append(op("check-pie", ["check"], inst,
                  pie_allocation(rng, 1, inst.s)))
    for j, solver in enumerate(("bisect", "grid")):
        s = Fraction(1 + (rnd + j) % 8, 20)
        budget = 16 + (3 * rnd + j) % 9
        ops.append(op("adversary-findsum",
                      ["adversary", "findsum", "--s", fmt(s), "--budget",
                       str(budget), "--solver", solver], budget=budget))
    return ops


def query_protocols_round(rng, rnd) -> list:
    # Sizes cycle with the round number, so that op times spread smoothly
    # (no percentile sits on a gap between two kinds) while every seed gets
    # the same mix of sizes.
    ops = []
    big = cake(rng, 4, 64, Fraction(1, 15), rnd)
    for agent, rel in enumerate(("atleast", "greater", "equal")):
        for j in range(2):
            n = 2 + (2 * rnd + j + 5 * agent) % 15
            r = Fraction(1 + (3 * rnd + j + agent) % 20, 20 * n)
            ops.append(op("decide", ["decide", "--agent", str(agent), "--n",
                                     str(n), "--rel", rel, "--r", fmt(r)],
                          big, agent=agent, n=n, rel=rel, r=r))
    for j in range(2):
        n = 2 + (2 * rnd + j) % 15
        ops.append(op("mms-approx-cake",
                      ["mms-approx", "--agent", "3", "--n", str(n),
                       "--epsilon", "1/1048576"],
                      big, agent=3, n=n, eps=Fraction(1, 2**20)))
    n = 3 + rnd % 4
    ops.append(op("allocate-mms-eps",
                  ["allocate", "--criterion", "mms", "--epsilon", "1/65536"],
                  cake(rng, n, 32, Fraction(1, n - 1), rnd + 1),
                  eps=Fraction(1, 2**16)))
    n = 2 + rnd % 3
    ops.append(op("allocate-ordinal-cake",
                  ["allocate", "--criterion", "ordinal"],
                  cake(rng, n, 32, Fraction(1, 2 * n - 2), rnd + 2)))
    # pie agents 0 and 1 are random; 2 and 3 reach the 1/k ceiling of
    # their decision's k half the time
    circle = pie(rng, 2, 32, Fraction(1, 16), rnd + 3)
    decisions = []
    for agent in (2, 3):
        k = 2 + (2 * rnd + agent) % 7
        decisions.append((agent, k))
        circle.agents.append(ceiling_pie(rng, k, circle.s, 24)
                             if (rnd + agent) % 2
                             else random_agent(rng, rng.randint(12, 24)))
    for agent in (0, 1):
        k = 2 + (2 * rnd + agent) % 4
        eps = Fraction(1, 12 + (2 * rnd + agent) % 9)
        ops.append(op("mms-approx-pie",
                      ["mms-approx", "--agent", str(agent), "--k", str(k),
                       "--epsilon", fmt(eps)],
                      circle, agent=agent, k=k, eps=eps))
    for agent, k in decisions:
        for mode in ("one-over-k", "positive"):
            ops.append(op("pie-decide",
                          ["pie-decide", "--agent", str(agent), "--mode",
                           mode, "--k", str(k)],
                          circle, agent=agent, k=k, mode=mode))
    for j, solver in enumerate(("scan", "cuts")):
        s = Fraction(2 + (rnd + j) % 7, 40)
        q = separation(s, rnd + j)
        budget = 16 + (5 * rnd + j) % 25
        ops.append(op("adversary-haslowvalue",
                      ["adversary", "haslowvalue", "--s", fmt(s), "--q",
                       fmt(q), "--budget", str(budget), "--solver", solver],
                      budget=budget))
    k = 2 + rnd % 5
    s = separation(Fraction(1, k), rnd + 4)
    ops.append(op("adversary-pie-witness",
                  ["adversary", "pie-witness", "--k", str(k), "--s", fmt(s)],
                  k=k, s=s))
    return ops


def fair_division_round(rng, rnd) -> list:
    ops = []
    # envy-free at n = 3 is left out: its run time is heavy-tailed even at
    # d <= 2 (see CHANGES.md); equitable runs at n = 3 on small d
    for j, (kind, n, d) in enumerate((("ef", 2, 6), ("eq", 2, 6),
                                      ("eq", 3, 2))):
        argv = ["allocate", "--criterion", kind]
        ops.append(op(f"allocate-{kind}", argv,
                      cake(rng, n, d, Fraction(1, n - 1), rnd + 2 * j)))
        ops.append(op(f"allocate-{kind}", argv,
                      pie(rng, n, d, Fraction(1, n), rnd + 2 * j + 1)))
    for n in (2, 3):
        ops.append(op("allocate-ordinal-pie",
                      ["allocate", "--criterion", "ordinal", "--epsilon",
                       "1/6"],
                      pie(rng, n, 6, Fraction(1, n + 1), rnd + n),
                      eps=Fraction(1, 6)))
    return ops


WORKLOADS = {"exact-shares": exact_shares_round,
             "query-protocols": query_protocols_round,
             "fair-division": fair_division_round}

ROUNDS = {"exact-shares": 12, "query-protocols": 85, "fair-division": 250}


def ceiling_pie(rng: random.Random, k: int, s: Fraction, d: int) -> Agent:
    """A pie whose 1-out-of-k share is exactly 1/k: k worthless arcs of
    length s between k arcs of value 1/k each, each valued arc split into
    a few random positive segments, the whole rotated at random."""
    per = max(1, (d - k) // k)
    grid = 8 * per * k
    free = ONE - k * s
    arcs = [rng.randint(1, 4) for _ in range(k)]
    unit = free / sum(arcs)
    bps, dens = [], []
    pos = ZERO
    for w in arcs:
        length = w * unit
        cuts = sorted(rng.sample(range(1, grid), per - 1))
        edges = [ZERO] + [Fraction(c, grid) for c in cuts] + [ONE]
        weights = [rng.randint(1, 12) for _ in range(per)]
        total = sum(wt * (b - a)
                    for wt, a, b in zip(weights, edges, edges[1:]))
        for wt, a in zip(weights, edges):
            bps.append(pos + a * length)
            dens.append(wt / total / length / k)
        pos += length
        bps.append(pos)
        dens.append(ZERO)
        pos += s
    # rotate by a random breakpoint-free offset and rebuild on [0, 1)
    shift = Fraction(rng.randrange(1, 97), 97)
    segs = []
    ends = bps[1:] + [ONE]
    for a, b, g in zip(bps, ends, dens):
        a, b = (a + shift), (b + shift)
        if b <= ONE or a >= ONE:
            segs.append((a % ONE if a >= ONE else a,
                         b - ONE if a >= ONE else b, g))
        else:
            segs.append((a, ONE, g))
            segs.append((ZERO, b - ONE, g))
    segs = sorted(seg for seg in segs if seg[1] > seg[0])
    merged = []
    for a, b, g in segs:
        if merged and merged[-1][2] == g and merged[-1][1] == a:
            merged[-1] = (merged[-1][0], b, g)
        else:
            merged.append((a, b, g))
    return Agent([m[0] for m in merged] + [ONE], [m[2] for m in merged])


def build(workload: str, seed: int, outdir: Path) -> list:
    """Write the run's files under ``outdir`` and return its operations,
    each with ``argv`` completed by the file paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    ops, paths = [], {}
    for rnd in range(ROUNDS[workload]):
        rng = random.Random(f"{workload}/{seed}/{rnd}")
        for t, o in enumerate(WORKLOADS[workload](rng, rnd)):
            o["round"], o["tag"] = rnd, f"r{rnd:03d}-{t:02d}"
            tag = o["tag"]
            inst = o["instance"]
            if inst is not None:
                if id(inst) not in paths:
                    path = outdir / f"{tag}-instance.json"
                    path.write_text(json.dumps(inst.to_json()))
                    paths[id(inst)] = str(path)
                o["instance_path"] = paths[id(inst)]
                o["argv"] += ["--instance", paths[id(inst)]]
            if o["allocation"] is not None:
                path = outdir / f"{tag}-allocation.json"
                path.write_text(json.dumps(
                    allocation_json(inst, o["allocation"])))
                o["allocation_path"] = str(path)
                o["argv"] += ["--allocation", str(path)]
            ops.append(o)
    return ops
