"""Driving complexes to locally thin form and exploring the rewrite poset.

A proposer is any callable producing a finite list of candidate moves for a
complex; the engine validates every candidate independently, so a proposer is
free to over-offer.  :func:`thin` repeatedly reduces (consolidations and the
destabilize/unperturb/undo family) and then applies staged untelescope
sequences until nothing applies; strict decrease of the complexity vector
over a well-founded order makes termination unconditional, and a step cap
guards against certificate bugs anyway.

:func:`rewrite_graph` expands every applicable move breadth-first instead,
keying nodes by a canonical hash so that relabelled copies of a complex
collapse to one node.  Every edge strictly decreases complexity, hence the
graph is a DAG and its sinks are exactly the locally thin elements reached.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field

from .complexity import LT, compare, complexity
from .model import Complex, digraph_cycle, emit_surface, emit_tangle, require_valid
from .moves import (
    Consolidate,
    Destabilize,
    Move,
    MoveRejected,
    Unperturb,
    UndoRemovable,
    Untelescope,
    apply_move,
    emit_move,
    find_product_on_thin,
)

__all__ = [
    "TraceStep",
    "ThinningTrace",
    "thin",
    "RewriteGraph",
    "rewrite_graph",
    "canonical_form",
    "canonical_hash",
    "rewrite_graph_dot",
]

_REDUCING = (Destabilize, Unperturb, UndoRemovable)


# ---------------------------------------------------------------------------
# Thinning runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    digest: str
    move: dict
    vector: tuple[int, ...]


@dataclass
class ThinningTrace:
    start_digest: str
    start_vector: tuple[int, ...]
    steps: list[TraceStep] = field(default_factory=list)
    terminal: bool = False
    diagnostics: list[str] = field(default_factory=list)

    def vectors(self) -> list[tuple[int, ...]]:
        return [self.start_vector] + [s.vector for s in self.steps]


def _first_applicable(cx: Complex, moves, diagnostics: list[str]):
    for move in moves:
        try:
            return move, apply_move(cx, move)
        except MoveRejected as err:
            diagnostics.append(f"skipped {type(move).__name__}: {err}")
    return None, None


def thin(cx: Complex, proposer, policy: str = "first",
         cap: int = 1_000_000) -> tuple[Complex, ThinningTrace]:
    """Apply moves until none applies; returns the final complex and a trace.

    ``policy`` picks among applicable untelescope candidates: ``first`` takes
    them in proposer order, ``greedy-max-drop`` the one whose result has the
    smallest complexity vector (ties broken by canonical hash).  Reducing
    moves always run first, so the terminal complex is reduced with respect
    to the proposer.  Invalid certificates are skipped with a diagnostic.
    """
    if policy not in ("first", "greedy-max-drop"):
        raise ValueError(f"unknown policy {policy!r}")
    require_valid(cx)
    current = cx
    trace = ThinningTrace(canonical_hash(cx), complexity(cx))

    def record(move: Move, after: Complex) -> None:
        vec = complexity(after)
        assert compare(vec, complexity(current)) == LT
        trace.steps.append(TraceStep(canonical_hash(after), emit_move(move), vec))

    while True:
        move = after = None
        hit = find_product_on_thin(current)
        if hit is not None:
            move = Consolidate(thick=hit[0], thin=hit[1])
            after = apply_move(current, move)
        else:
            candidates = list(proposer(current))
            move, after = _first_applicable(
                current, [m for m in candidates if isinstance(m, _REDUCING)],
                trace.diagnostics)
            if move is None:
                untels = [m for m in candidates
                          if isinstance(m, (Untelescope, Consolidate))]
                if policy == "first":
                    move, after = _first_applicable(current, untels, trace.diagnostics)
                else:
                    best = None
                    for cand in untels:
                        try:
                            result = apply_move(current, cand)
                        except MoveRejected as err:
                            trace.diagnostics.append(
                                f"skipped {type(cand).__name__}: {err}")
                            continue
                        key = (complexity(result), canonical_hash(result))
                        if best is None or key < best[0]:
                            best = (key, cand, result)
                    if best is not None:
                        move, after = best[1], best[2]
        if move is None:
            trace.terminal = True
            return current, trace
        if len(trace.steps) >= cap:
            trace.diagnostics.append("cap reached")
            return current, trace
        record(move, after)
        current = after


# ---------------------------------------------------------------------------
# Rewrite graph
# ---------------------------------------------------------------------------

@dataclass
class RewriteGraph:
    root: str
    nodes: dict[str, Complex]
    vectors: dict[str, tuple[int, ...]]
    edges: list[tuple[str, dict, str]]
    expanded: set[str]
    truncated: set[str]  # expanded nodes with edges dropped by the budget
    complete: bool

    def successors(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, _move, dst in self.edges:
            out[src].append(dst)
        return out

    def sinks(self) -> list[str]:
        succ = self.successors()
        return sorted(n for n in self.expanded - self.truncated if not succ[n])

    def is_acyclic(self) -> bool:
        return digraph_cycle(self.successors()) is None


def rewrite_graph(cx: Complex, proposer, max_nodes: int = 200,
                  max_depth: int | None = None) -> RewriteGraph:
    """Breadth-first expansion of every applicable move, up to a node budget.

    Nodes are keyed by canonical hash; the graph is incomplete when the
    budget stops expansion, in which case unexpanded nodes are not counted as
    sinks.
    """
    require_valid(cx)
    root = canonical_hash(cx)
    graph = RewriteGraph(root=root, nodes={root: cx}, vectors={root: complexity(cx)},
                         edges=[], expanded=set(), truncated=set(), complete=True)
    seen_edges: set[tuple[str, str, str]] = set()
    queue: deque[tuple[str, int]] = deque([(root, 0)])
    while queue:
        digest, depth = queue.popleft()
        if digest in graph.expanded:
            continue
        if max_depth is not None and depth >= max_depth:
            graph.complete = False
            continue
        graph.expanded.add(digest)
        node = graph.nodes[digest]
        for move in proposer(node):
            try:
                result = apply_move(node, move)
            except MoveRejected:
                continue
            dst = canonical_hash(result)
            vec = complexity(result)
            assert compare(vec, graph.vectors[digest]) == LT
            if dst not in graph.nodes:
                if len(graph.nodes) >= max_nodes:
                    graph.complete = False
                    graph.truncated.add(digest)
                    continue
                graph.nodes[dst] = result
                graph.vectors[dst] = vec
                queue.append((dst, depth + 1))
            doc = emit_move(move)
            key = (digest, json.dumps(doc, sort_keys=True), dst)
            if key not in seen_edges:
                seen_edges.add(key)
                graph.edges.append((digest, doc, dst))
    return graph


def rewrite_graph_dot(graph: RewriteGraph) -> str:
    """Render the rewrite graph as DOT, nodes annotated with their vectors."""
    lines = ["digraph rewrites {"]
    for digest in sorted(graph.nodes):
        vec = ",".join(str(v) for v in graph.vectors[digest])
        shape = "doubleoctagon" if digest == graph.root else "box"
        lines.append(f'  "{digest[:12]}" [shape={shape} label="({vec})"];')
    for src, move, dst in graph.edges:
        lines.append(f'  "{src[:12]}" -> "{dst[:12]}" [label="{move["kind"]}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------

def _structure(cx: Complex):
    """Typed adjacency and id-free initial colours for every node."""
    colors: dict[str, tuple] = {}
    out_edges: dict[str, list[tuple[str, str]]] = {}
    for t in cx.thick.values():
        colors[t.id] = (repr(("thick", t.surface.genus, t.surface.punctures)),)
        out_edges[t.id] = [("up", t.upper_cb), ("down", t.lower_cb)]
    for f in cx.thin.values():
        colors[f.id] = (repr(("thin", f.surface.genus, f.surface.punctures)),)
        out_edges[f.id] = [("from", f.from_cb), ("to", f.to_cb)]
    for b in cx.boundary.values():
        colors[b.id] = (repr(("bdy", b.surface.genus, b.surface.punctures,
                              b.is_drilled_vertex)),)
        out_edges[b.id] = [("own", b.owner)]
    for c in cx.cbs.values():
        colors[c.id] = (repr(("cb", c.tangle.counts(), c.product_certificate,
                              c.ball_certificate)),)
        out_edges[c.id] = [("plus", c.plus)] + [("minus", p) for p in c.minus]
    in_edges: dict[str, list[tuple[str, str]]] = {n: [] for n in colors}
    for src, pairs in out_edges.items():
        for role, dst in pairs:
            if dst in in_edges:
                in_edges[dst].append((role, src))
    return colors, out_edges, in_edges


def _refine(colors, out_edges, in_edges):
    current = dict(colors)
    while True:
        signature = {}
        for n, c in current.items():
            outs = sorted((role, current.get(m)) for role, m in out_edges[n]
                          if m in current)
            ins = sorted((role, current.get(m)) for role, m in in_edges[n])
            signature[n] = (c, tuple(outs), tuple(ins))
        ranks = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        refreshed = {n: (ranks[signature[n]],) for n in current}
        if len(set(refreshed.values())) == len(set(current.values())):
            return refreshed
        current = refreshed


def canonical_form(cx: Complex) -> str:
    """A relabelling-invariant serialization of the complex."""
    colors, out_edges, in_edges = _structure(cx)

    def finish(stable) -> str:
        order = sorted(stable, key=lambda n: stable[n])
        rename = {old: f"n{i}" for i, old in enumerate(order)}
        by_id = lambda d: d["id"]
        doc = {
            "thick": sorted((
                {"id": rename[t.id], "surface": emit_surface(t.surface),
                 "upper_cb": rename[t.upper_cb], "lower_cb": rename[t.lower_cb]}
                for t in cx.thick.values()), key=by_id),
            "thin": sorted((
                {"id": rename[f.id], "surface": emit_surface(f.surface),
                 "from_cb": rename[f.from_cb], "to_cb": rename[f.to_cb]}
                for f in cx.thin.values()), key=by_id),
            "boundary": sorted((
                {"id": rename[b.id], "surface": emit_surface(b.surface),
                 "owner": rename[b.owner], "is_drilled_vertex": b.is_drilled_vertex}
                for b in cx.boundary.values()), key=by_id),
            "cbs": sorted((
                {"id": rename[c.id], "plus": rename[c.plus],
                 "minus": sorted(rename[p] for p in c.minus),
                 "tangle": emit_tangle(c.tangle),
                 "product_certificate": c.product_certificate,
                 "ball_certificate": c.ball_certificate}
                for c in cx.cbs.values()), key=by_id),
        }
        return json.dumps(doc, sort_keys=True)

    def solve(current) -> str:
        stable = _refine(current, out_edges, in_edges)
        classes: dict[tuple, list[str]] = {}
        for n, c in stable.items():
            classes.setdefault(c, []).append(n)
        ambiguous = sorted((c for c, ns in classes.items() if len(ns) > 1))
        if not ambiguous:
            return finish(stable)
        target = classes[ambiguous[0]]
        best = None
        for pick in target:
            branched = dict(stable)
            branched[pick] = (-1,) + stable[pick]
            candidate = solve(branched)
            if best is None or candidate < best:
                best = candidate
        return best

    return solve(colors)


def canonical_hash(cx: Complex) -> str:
    """Digest equal for relabelled copies of the same complex.

    >>> from .model import parse_complex
    >>> doc = {"thick": [{"id": "H", "surface": {"genus": 2, "punctures": 0},
    ...                   "upper_cb": "u", "lower_cb": "d"}],
    ...        "cbs": [{"id": "u", "plus": "H",
    ...                 "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0}},
    ...                {"id": "d", "plus": "H",
    ...                 "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0}}]}
    >>> relabel = {"thick": [{"id": "X", "surface": {"genus": 2, "punctures": 0},
    ...                       "upper_cb": "a", "lower_cb": "b"}],
    ...            "cbs": [{"id": "a", "plus": "X",
    ...                     "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0}},
    ...                    {"id": "b", "plus": "X",
    ...                     "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0}}]}
    >>> canonical_hash(parse_complex(doc)) == canonical_hash(parse_complex(relabel))
    True
    """
    return hashlib.sha256(canonical_form(cx).encode()).hexdigest()
