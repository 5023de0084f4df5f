"""Independent output reference for the benchmark.

Everything here works on the JSON instance documents alone and shares no code
with ``widthcalc``: body indices come from the boundary surfaces, flow reach
from a bitset pass over a topological order of the thick levels, and the
complexity vector is the non-increasing list of per-level totals.  Vectors are
compared lexicographically after padding the shorter one with -1, as the
paper's order prescribes.
"""

from __future__ import annotations

import json


def _chi(surface: dict) -> int:
    return 2 - 2 * surface["genus"]


def body_indices(doc: dict) -> dict[str, int]:
    """``3 * (-chi(plus) + chi(minus)) + 2 * (p(plus) - p(minus)) + 6`` per body."""
    surface = {}
    for kind in ("thick", "thin", "boundary"):
        for level in doc.get(kind, []):
            surface[level["id"]] = level["surface"]
    out = {}
    for cb in doc["cbs"]:
        plus = surface[cb["plus"]]
        minus = [surface[port] for port in cb.get("minus", [])]
        chi_minus = sum(_chi(s) for s in minus)
        p_minus = sum(s["punctures"] for s in minus)
        out[cb["id"]] = (3 * (-_chi(plus) + chi_minus)
                         + 2 * (plus["punctures"] - p_minus) + 6)
    return out


def _topological(nodes: list[str], succ: dict[str, list[str]]) -> list[str]:
    indegree = {n: 0 for n in nodes}
    for n in nodes:
        for m in succ[n]:
            indegree[m] += 1
    order = [n for n in nodes if indegree[n] == 0]
    for n in order:  # the list grows while it is walked
        for m in succ[n]:
            indegree[m] -= 1
            if indegree[m] == 0:
                order.append(m)
    if len(order) != len(nodes):
        raise ValueError("flow digraph has a cycle")
    return order


def _reach_sums(order: list[str], succ: dict[str, list[str]],
                weight: dict[str, int]) -> dict[str, tuple[int, int]]:
    """(size, weight sum) of the reach of every node along ``succ``."""
    bit = {n: 1 << i for i, n in enumerate(order)}
    weights = [weight[n] for n in order]
    reach: dict[str, int] = {}
    for n in reversed(order):
        mask = bit[n]
        for m in succ[n]:
            mask |= reach[m]
        reach[n] = mask
    out = {}
    for n, mask in reach.items():
        size = total = 0
        while mask:
            low = mask & -mask
            total += weights[low.bit_length() - 1]
            size += 1
            mask ^= low
        out[n] = (size, total)
    return out


def index_table(doc: dict) -> dict[str, dict[str, int]]:
    """Per thick level: body indices of both sides and both aggregate indices."""
    bodies = body_indices(doc)
    thick = doc["thick"]
    nodes = [t["id"] for t in thick]
    of_upper = {t["upper_cb"]: t["id"] for t in thick}
    of_lower = {t["lower_cb"]: t["id"] for t in thick}
    up: dict[str, list[str]] = {n: [] for n in nodes}
    down: dict[str, list[str]] = {n: [] for n in nodes}
    for f in doc.get("thin", []):
        src, dst = of_upper.get(f["from_cb"]), of_lower.get(f["to_cb"])
        if src is not None and dst is not None:
            up[src].append(dst)
            down[dst].append(src)
    order = _topological(nodes, up)
    upper = {t["id"]: bodies[t["upper_cb"]] for t in thick}
    lower = {t["id"]: bodies[t["lower_cb"]] for t in thick}
    reach_up = _reach_sums(order, up, upper)
    reach_down = _reach_sums(order[::-1], down, lower)
    table = {}
    for n in nodes:
        i_up = 6 - 6 * reach_up[n][0] + reach_up[n][1]
        i_down = 6 - 6 * reach_down[n][0] + reach_down[n][1]
        table[n] = {"body_up": upper[n], "body_down": lower[n],
                    "index_up": i_up, "index_down": i_down, "index": i_up + i_down}
    return table


def vector(doc: dict) -> list[int]:
    """The complexity vector: per-level totals, non-increasing."""
    return sorted((row["index"] for row in index_table(doc).values()), reverse=True)


def compare(a: list[int], b: list[int]) -> int:
    """-1, 0 or 1 after padding the shorter vector with -1."""
    n = max(len(a), len(b))
    pa = list(a) + [-1] * (n - len(a))
    pb = list(b) + [-1] * (n - len(b))
    return (pa > pb) - (pa < pb)


def is_vector(v) -> bool:
    """A well-formed vector: a list of non-negative ints, non-increasing."""
    return (isinstance(v, list)
            and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in v)
            and all(v[i] >= v[i + 1] for i in range(len(v) - 1)))


def json_stream(text: str) -> list:
    """Every JSON value in ``text``, in order (the CLI prints several)."""
    decoder = json.JSONDecoder()
    values, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return values
        value, pos = decoder.raw_decode(text, pos)
        values.append(value)
