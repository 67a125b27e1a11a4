"""Instance files and result serialization.

An instance is a JSON object::

    {"topology": "cake" | "pie",
     "s": "1/3",
     "agents": [{"breakpoints": ["0", "1/3", "2/3", "1"],
                 "densities":   ["6/5", "0", "9/5"]}]}

All numbers are rational strings ("num/den" or plain integers); floats are
rejected so instances stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .cake import Allocation
from .errors import InputError
from .rationals import fmt, frac
from .valuations import Interval, PiecewiseConstantValuation, Topology


@dataclass(frozen=True)
class Instance:
    topology: Topology
    s: Fraction
    agents: Tuple[PiecewiseConstantValuation, ...]

    @property
    def n(self) -> int:
        return len(self.agents)


def _parse_topology(name) -> Topology:
    try:
        return Topology(name)
    except ValueError as exc:
        raise InputError("topology must be 'cake' or 'pie'") from exc


def parse_instance(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance must be a JSON object")
    topology = _parse_topology(data.get("topology"))
    if "s" not in data:
        raise InputError("missing separation parameter 's'")
    s = frac(data["s"])
    agents = data.get("agents")
    if not isinstance(agents, list) or not agents:
        raise InputError("instance needs a non-empty 'agents' list")
    vs = []
    for i, entry in enumerate(agents):
        if not (isinstance(entry, dict)
                and isinstance(entry.get("breakpoints"), list)
                and isinstance(entry.get("densities"), list)):
            raise InputError(f"agent {i}: 'breakpoints' and 'densities' "
                             "must be JSON lists")
        try:
            vs.append(PiecewiseConstantValuation(
                entry["breakpoints"], entry["densities"], topology))
        except InputError as exc:
            raise InputError(f"agent {i}: {exc}") from exc
    return Instance(topology, s, tuple(vs))


def _read_json(path: str):
    with open(path) as fp:
        try:
            return json.load(fp)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"{path}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc


def load_instance(path: str) -> Instance:
    return parse_instance(_read_json(path))


def instance_to_json(inst: Instance) -> dict:
    return {
        "topology": inst.topology.value,
        "s": fmt(inst.s),
        "agents": [
            {"breakpoints": [fmt(p) for p in v.breakpoints],
             "densities": [fmt(g) for g in v.densities]}
            for v in inst.agents
        ],
    }


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fp:
        json.dump(instance_to_json(inst), fp, indent=2)
        fp.write("\n")


def allocation_to_json(alloc: Allocation, inst: Instance,
                       query_count: int = None) -> dict:
    items: List[dict] = []
    for agent in sorted(alloc.assignment):
        piece = alloc.assignment[agent]
        items.append({
            "agent": agent,
            "left": fmt(piece.left),
            "right": fmt(piece.right),
            "value": fmt(inst.agents[agent].value(piece)),
        })
    out = {"topology": alloc.topology.value, "s": fmt(alloc.s),
           "allocation": items}
    if query_count is not None:
        out["query_count_total"] = query_count
    return out


def parse_allocation(data: dict, inst: Instance) -> Allocation:
    if not (isinstance(data, dict)
            and isinstance(data.get("allocation"), list)):
        raise InputError("allocation file needs an 'allocation' list")
    assignment = {}
    for item in data["allocation"]:
        try:
            assignment[int(item["agent"])] = Interval(
                frac(item["left"]), frac(item["right"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed allocation entry {item!r}") from exc
    # the instance fixes the topology and s; the file may only repeat them
    topology = _parse_topology(data.get("topology", inst.topology.value))
    if topology is not inst.topology or frac(data.get("s", inst.s)) != inst.s:
        raise InputError("allocation names a topology or s other than the "
                         "instance's")
    return Allocation(inst.s, assignment, inst.topology)


def load_allocation(path: str, inst: Instance) -> Allocation:
    return parse_allocation(_read_json(path), inst)
