"""Driving complexes to locally thin form and exploring the rewrite poset.

A proposer is any callable producing a finite list of candidate moves for a
complex; the engine validates every candidate independently, so a proposer is
free to over-offer.  Both drivers read them through one candidate loop,
:func:`~widthcalc.moves.applicable`, counting rejections in ``diagnostics``.
:func:`thin` repeatedly reduces (consolidations and the
destabilize/unperturb/undo family) and then applies staged untelescope
sequences until nothing applies, reading each step's offers in one pass of
the loop; strict decrease of the complexity vector over a well-founded order
makes termination unconditional, and a step cap guards against certificate
bugs anyway.

:func:`rewrite_graph` expands every applicable move breadth-first instead,
keying nodes by a canonical hash so that relabelled copies of a complex
collapse to one node.  Every edge strictly decreases complexity, hence the
graph is a DAG and its sinks are exactly the locally thin elements reached.
The hash canonizes each of :func:`~widthcalc.model.components` on its own,
over the one record graph its split reads (:func:`~widthcalc.model._digraph`),
by individualization-refinement with automorphism pruning (McKay & Piperno,
J. Symb. Comput. 60, 2014).  Colours are kept as cells, so a round of
refinement looks only at the cells next to those that split in the round
before, and each node of the search keeps the orbits of the automorphisms
found that fix its prefix.  Each component, as a complex, keeps its form
and its rendered text on itself, so a component carried as the same object
from complex to complex is canonized once.

:func:`thin` and :func:`rewrite_graph` both apply offers per component,
through :func:`~widthcalc.moves.applicable`, which gives each result as
its parts with its vector; a result made of components has its vector
merged from theirs and is not analyzed whole.  Each driver hashes a result
from its parts, by the one canonical form of a list of parts, and joins
the parts (:func:`~widthcalc.model.joined`) only for a result it keeps:
:func:`thin` for the one it takes, :func:`rewrite_graph` for a new node.
Once its budget is full, :func:`rewrite_graph` hashes no result whose
vector no node has: a relabelling keeps the vector, so such a result can
match no node (McKay & Piperno's cheap invariant before canonization).

Each part keeps the result of each move accepted on it, in its
``_accepted``, so an untouched copy in a symmetric union, carried as the
same object from node to node, builds each accepted result once per run.
A rejection is kept on the move, as its one verdict: the rule, scoped by
the read set (hood) of its thick level when it was raised before the
result was built, else by the part object it was rejected on.  The
proposer offers an unchanged level's moves again as the same objects, so
from step to step and node to node only the levels whose read set changed
are decided again.  A kept rejection is still raised by
:func:`~widthcalc.moves.apply_move` at every node that offers it, and
counted in ``diagnostics`` there, so callers that count around
``apply_move`` see every one.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

from .complexity import LT, compare, complexity
from .model import (
    Complex,
    ValidationError,
    _SECTION,
    _digraph,
    _find,
    _kept,
    components,
    digraph_cycle,
    joined,
    record_text,
    require_valid,
    validate,
)
from .moves import (
    REDUCING,
    Consolidate,
    applicable,
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
    "dot_escape",
]

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
    """What a :func:`thin` run did.

    ``steps`` holds each applied move with the digest and vector of its
    result.  ``terminal`` says that no move applied at the end;
    ``cap_reached`` that the run stopped at its step cap instead.
    ``diagnostics`` counts the skipped candidates by (move document
    ``kind``, the rule that rejected it), an offer that is not a move under
    ``(None, "move.kind")``; the messages are never formatted.
    """

    start_digest: str
    start_vector: tuple[int, ...]
    steps: list[TraceStep] = field(default_factory=list)
    terminal: bool = False
    cap_reached: bool = False
    diagnostics: Counter[tuple[str | None, str]] = field(default_factory=Counter)

    def vectors(self) -> list[tuple[int, ...]]:
        return [self.start_vector] + [s.vector for s in self.steps]


def thin(cx: Complex, proposer, policy: str = "first",
         cap: int = 1_000_000) -> tuple[Complex, ThinningTrace]:
    """Apply moves until none applies; returns the final complex and a trace.

    ``policy`` picks among applicable untelescope candidates: ``first`` takes
    them in proposer order, ``greedy-max-drop`` the one whose result has the
    smallest complexity vector (ties broken by canonical hash, and equal
    hashes by proposer order).  Reducing moves always run first, so the
    terminal complex is reduced with respect to the proposer; before them, a
    certified product on a thin level is consolidated, and raises
    :class:`~widthcalc.moves.MoveRejected` if its gate rejects it.  A step
    reads its offers, the reducing ones and then the rest, each in proposer
    order, in one pass of the candidate loop.  Invalid certificates and
    offers that are not moves are skipped and counted in the trace's
    ``diagnostics`` (see :class:`ThinningTrace`).  ``cap`` must be at least 0.
    """
    if policy not in ("first", "greedy-max-drop"):
        raise ValueError(f"unknown policy {policy!r}")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, not {cap}")
    require_valid(cx)
    current = cx
    trace = ThinningTrace(canonical_hash(cx), complexity(cx))
    previous = trace.start_vector

    while True:
        hit = find_product_on_thin(current)
        if hit is not None:
            forced = Consolidate(thick=hit[0], thin=hit[1])
            offers = [forced]
        else:
            forced = None
            candidates = list(proposer(current))
            offers = [m for m in candidates if isinstance(m, REDUCING)] + \
                [m for m in candidates if not isinstance(m, REDUCING)]
        move = after = vec = digest = None
        tied = []
        for cand, parts, cand_vec in applicable(current, offers, trace.diagnostics):
            if policy == "first" or forced is not None or isinstance(cand, REDUCING):
                move, after, vec = cand, joined(parts), cand_vec
                break
            # the least vector; among results tied on it, the least digest
            if vec is None or cand_vec < vec:
                vec, tied = cand_vec, []
            if cand_vec == vec:
                tied.append((cand, parts))
        if tied:
            digest, _k, move, parts = min((_digest(parts), k, cand, parts)
                                          for k, (cand, parts) in enumerate(tied))
            after = joined(parts)
        if move is None:
            if forced is not None:
                apply_move(current, forced)  # the loop rejected it: raise its rule
            trace.terminal = True
            return current, trace
        if len(trace.steps) >= cap:
            trace.cap_reached = True
            return current, trace
        assert compare(vec, previous) == LT
        if digest is None:
            digest = canonical_hash(after)
        trace.steps.append(TraceStep(digest, emit_move(move), vec))
        current, previous = after, vec


# ---------------------------------------------------------------------------
# Rewrite graph
# ---------------------------------------------------------------------------

@dataclass
class RewriteGraph:
    """Every node is expanded, one component at a time (see the module
    docstring); ``truncated`` holds those that lost an edge to a new node to
    the budget, an edge to a result whose vector no node has among them,
    known so without hashing the result.  ``nodes`` holds each node as the
    complex its parts were joined into when it was admitted.
    ``diagnostics`` counts rejected offers like
    :attr:`ThinningTrace.diagnostics`, non-moves under ``(None, "move.kind")``;
    a rejection is counted, and raised by ``apply_move``, at every node that
    offers it, though a rejection the move keeps is not decided again (see
    :mod:`widthcalc.moves`)."""

    root: str
    nodes: dict[str, Complex]
    vectors: dict[str, tuple[int, ...]]
    edges: list[tuple[str, dict, str]]
    truncated: set[str]
    diagnostics: Counter[tuple[str | None, str]] = field(default_factory=Counter)

    @property
    def complete(self) -> bool:
        """Whether no edge to a new node was dropped for the budget."""
        return not self.truncated

    def successors(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, _move, dst in self.edges:
            out[src].append(dst)
        return out

    def sinks(self) -> list[str]:
        succ = self.successors()
        return sorted(n for n in self.nodes if n not in self.truncated and not succ[n])

    def is_acyclic(self) -> bool:
        return digraph_cycle(self.successors()) is None


def rewrite_graph(cx: Complex, proposer, max_nodes: int = 200) -> RewriteGraph:
    """Breadth-first expansion of every applicable move, up to a node budget.

    Nodes are keyed by canonical hash; the graph is incomplete when the
    budget drops an edge to a new node, and a node that lost an edge so is
    not counted as a sink.  Offers are applied per component, as the module
    docstring describes; the nodes' vectors are those of the whole nodes.
    A result is hashed from its parts unless the budget is full and no node
    has its vector, and joined only when it is admitted as a new node.
    ``max_nodes`` must be at least 1.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, not {max_nodes}")
    require_valid(cx)
    root = canonical_hash(cx)
    graph = RewriteGraph(root=root, nodes={root: cx}, vectors={root: complexity(cx)},
                         edges=[], truncated=set())
    seen_edges: set[tuple[str, str, str]] = set()
    held = set(graph.vectors.values())  # the vector of every node
    order = [root]
    for digest in order:  # grows while it is read: a FIFO queue
        node = graph.nodes[digest]
        for move, parts, vec in applicable(node, proposer(node), graph.diagnostics):
            assert compare(vec, graph.vectors[digest]) == LT
            full = len(graph.nodes) >= max_nodes
            # no node has this vector, so none is a relabelling of the result
            if full and vec not in held:
                graph.truncated.add(digest)
                continue
            dst = _digest(parts)
            if dst not in graph.nodes:
                if full:
                    graph.truncated.add(digest)
                    continue
                graph.nodes[dst] = joined(parts)
                graph.vectors[dst] = vec
                held.add(vec)
                order.append(dst)
            doc = emit_move(move)
            key = (digest, json.dumps(doc, sort_keys=True), dst)
            if key not in seen_edges:
                seen_edges.add(key)
                graph.edges.append((digest, doc, dst))
    return graph


def dot_escape(text: str) -> str:
    """``text`` for a DOT quoted string: each backslash and double quote
    escaped with a backslash."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def rewrite_graph_dot(graph: RewriteGraph) -> str:
    """Render the rewrite graph as DOT, nodes annotated with their vectors."""
    q = dot_escape
    lines = ["digraph rewrites {"]
    for digest in sorted(graph.nodes):
        vec = ",".join(str(v) for v in graph.vectors[digest])
        shape = "doubleoctagon" if digest == graph.root else "box"
        lines.append(f'  "{q(digest[:12])}" [shape={shape} label="({vec})"];')
    for src, move, dst in graph.edges:
        lines.append(f'  "{q(src[:12])}" -> "{q(dst[:12])}" [label="{q(move["kind"])}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------

def _partition(keys) -> tuple[list[int], list]:
    """The colouring that orders vertices by ``keys``, as cells: a vertex's
    colour is the number of vertices of lower colour, the start of its cell,
    and ``cells[s]`` lists the members of the cell starting at ``s`` in
    vertex order (None where no cell starts)."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    colors = [0] * len(keys)
    cells: list = [None] * len(keys)
    for pos, v in enumerate(order):
        if pos == 0 or keys[v] != keys[order[pos - 1]]:
            start = pos
            cells[start] = []
        colors[v] = start
        cells[start].append(v)
    return colors, cells


def _refine(colors: list[int], cells: list, outs, ins, changed=None) -> None:
    """Colour refinement, in place, to the coarsest equitable refinement.

    Round-synchronous: a vertex's signature is the sorted colours of its
    out- and in-neighbours by slot, and a round splits each cell by the
    signatures of the colouring it started from, its pieces ordered by
    signature and laid out from the cell's start.  The cells are then those
    of ranking (colour, signature) over all vertices in every round, so the
    colours are order-isomorphic to those ranks and equal them once
    discrete.

    A round computes only the signatures that can tell members of a cell
    apart.  The members of a cell had equal signatures in the round that
    made it.  A member whose neighbours in each cell split since then all
    lie in one piece, the largest, sees that piece where it saw the whole
    cell, so all such members of a cell still have equal signatures.  A
    round therefore computes the signatures of the members adjacent to the
    other pieces, and of one other member of their cell, which stands for
    the rest.  This is Hopcroft's rule of skipping the largest piece, used
    only to choose which signatures to compute: the pieces are still
    ordered by their full signatures, so the cells and their order are
    those of ranking every vertex.  ``changed`` lists the starts of the
    pieces split off before the first round other than the largest of each
    cell, as :func:`_individualize` gives them, or is None when the
    colouring is not known to be equitable; the first round then computes
    every signature.
    """
    if changed is None:
        near = {s: cell for s, cell in enumerate(cells) if cell is not None and len(cell) > 1}
    else:
        near = None
    while True:
        if near is None:
            near = {}
            for j in {j for s in changed for x in cells[s]
                      for edges in (outs[x], ins[x]) for _key, j in edges}:
                c = colors[j]
                if len(cells[c]) > 1:
                    near.setdefault(c, set()).add(j)
        splits = []
        for s, seen in near.items():
            cell = cells[s]
            whole = len(seen) == len(cell)
            # a member not seen, put last, stands for all of them
            members = cell if whole else [*seen, next(v for v in cell if v not in seen)]
            groups: dict[tuple, list[int]] = {}
            for v in members:
                sig = (tuple(sorted([key + colors[j] for key, j in outs[v]])),
                       tuple(sorted([key + colors[j] for key, j in ins[v]])))
                groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                if not whole:  # every member in its piece, in vertex order
                    of = {v: piece for piece, group in groups.items() for v in group}
                    groups = {piece: [] for piece in groups}
                    for v in cell:
                        groups[of.get(v, sig)].append(v)
                splits.append((s, groups))
        if not splits:
            return
        changed, near = [], None
        for s, groups in splits:
            largest = max(groups.values(), key=len)
            for sig in sorted(groups):
                members = cells[s] = groups[sig]
                for v in members:
                    colors[v] = s
                if members is not largest:
                    changed.append(s)
                s += len(members)


def _individualize(colors: list[int], cells: list, v: int) -> list[int]:
    """Give ``v`` a cell of its own at the start of its cell, in place; the
    start of the piece split off, ``v``'s own, for :func:`_refine`."""
    s = colors[v]
    rest = [u for u in cells[s] if u != v]
    cells[s], cells[s + 1] = [v], rest
    for u in rest:
        colors[u] = s + 1
    return [s]


def _target_cell(cells: list) -> list[int] | None:
    """The members of the lowest cell of several, or None if discrete."""
    return next((cell for cell in cells if cell is not None and len(cell) > 1), None)


def _join(orbits: list[int], gamma: list[int]) -> None:
    """Join in the union-find ``orbits`` each point moved by ``gamma`` to its image."""
    for a, b in enumerate(gamma):
        if a != b:
            orbits[_find(orbits, a)] = _find(orbits, b)


def _orbits(n: int, gens: list[list[int]], prefix) -> list[int]:
    """A union-find of the orbits of the group that the generators in
    ``gens`` fixing ``prefix`` pointwise generate."""
    orbits = list(range(n))
    for gamma in gens:
        if all(gamma[p] == p for p in prefix):
            _join(orbits, gamma)
    return orbits


def _in_orbit(orbits: list[int], v: int, others: list[int]) -> bool:
    """Whether ``v`` shares an orbit of ``orbits`` with one of ``others``."""
    root = _find(orbits, v)
    return any(_find(orbits, x) == root for x in others)


def _component_form(part: Complex) -> tuple[tuple, list]:
    """Certificate and canonically ordered records of ``part``, one
    connected component, over its record graph
    (:func:`~widthcalc.model._digraph`): the one its split kept on it under
    ``_graph``, if ``part`` is the complex the split found connected, else a
    new walk.

    Individualization-refinement: refine the colouring (:func:`_refine`),
    then branch on each member of the lowest cell of several until the
    colouring is discrete.  A leaf's certificate lists, per position, the
    record's attributes and its sorted references as ``slot * _SLOT +
    position``, ``model._SLOT`` being the graph's slot stride; the
    smallest leaf certificate is canonical.  Two leaves with equal
    certificates give an automorphism, and a child in the orbit of an
    explored sibling under the automorphisms fixing the node's prefix is
    skipped (McKay & Piperno, "Practical graph isomorphism II", 2014): its
    subtree maps onto the sibling's, leaf certificates and all.  A node keeps
    those orbits as a union-find, made when its second child is reached and
    joined along each automorphism found after that.
    """
    # the graph the split kept, taken: the form is kept instead, and no reader is left
    records, attrs, outs, ins = vars(part).pop("_graph", None) or _digraph(part)
    n = len(records)

    def leaf(colors: list[int]) -> tuple[tuple, list[int]]:
        order = [0] * n
        for v, c in enumerate(colors):
            order[c] = v
        return tuple((attrs[v], tuple(sorted([key + colors[j] for key, j in outs[v]])))
                     for v in order), order

    colors, cells = _partition(attrs)
    _refine(colors, cells, outs, ins)
    cell = _target_cell(cells)
    if cell is None:
        best = leaf(colors)
    else:
        best = first = None
        gens: list[list[int]] = []
        identity = list(range(n))
        # a node is [individualized prefix, colours, cells, its cell's members
        # left, children explored, orbits or None until a second child]
        stack = [[(), colors, cells, iter(cell), [], None]]
        while stack:
            node = stack[-1]
            prefix, colors, cells, todo, explored, orbits = node
            v = next(todo, None)
            if v is None:
                stack.pop()
                continue
            if explored:
                if orbits is None:
                    orbits = node[5] = _orbits(n, gens, prefix)
                if _in_orbit(orbits, v, explored):
                    continue
            explored.append(v)
            colors, cells = colors[:], cells[:]
            _refine(colors, cells, outs, ins, _individualize(colors, cells, v))
            cell = _target_cell(cells)
            if cell is not None:
                stack.append([prefix + (v,), colors, cells, iter(cell), [], None])
                continue
            found = leaf(colors)
            if first is None:
                best = first = found
                continue
            match = next((ref for ref in (first, best) if ref[0] == found[0]), None)
            if match is None:
                if found[0] < best[0]:
                    best = found
                continue
            gamma = identity[:]
            for a, b in zip(match[1], found[1]):
                gamma[a] = b
            if gamma == identity:
                continue
            gens.append(gamma)
            # the nodes whose prefix gamma fixes are the shallowest ones
            for above, _colors, _cells, _todo, _done, kept in stack:
                if above and gamma[above[-1]] != above[-1]:
                    break
                if kept is not None:
                    _join(kept, gamma)
            # drop the subtree of the shallowest node whose current child is
            # now known to be equivalent to a sibling explored before it
            for depth, (_above, _colors, _cells, _todo, done, kept) in enumerate(stack):
                if len(done) > 1 and _in_orbit(kept, done[-1], done[:-1]):
                    del stack[depth + 1:]
                    break
    cert, order = best
    return cert, [records[v] for v in order]


def _render(records: list, offset: int) -> list[str]:
    """The thick, thin, boundary and cbs entries of canonically ordered
    ``records`` named ``n{offset}``, ``n{offset+1}``, ..., each section as
    ``json.dumps`` writes it between the brackets of its list."""
    rename = {rec.id: f"n{offset + i}" for i, rec in enumerate(records)}.__getitem__
    sections: tuple[list[str], ...] = ([], [], [], [])
    for rec in records:
        sections[_SECTION[type(rec)]].append(record_text(rec, rename))
    return [", ".join(texts) for texts in sections]


def canonical_form(cx: Complex) -> str:
    """A relabelling-invariant serialization of the complex, itself a valid
    instance document with ids ``n0``, ``n1``, ...

    Exact: two complexes have the same form if and only if one is a
    relabelling of the other (a bijection of ids that keeps every record's
    kind, attributes and references).  Each connected component is
    canonized on its own by individualization-refinement with automorphism
    pruning, and the components are laid out in the order of their
    certificates.

    Each of the :func:`~widthcalc.model.components`, a complex, keeps its
    form on itself under ``_form``: its certificate, its canonically ordered
    records and its rendered section texts by offset.  The text depends on
    the offset, the number of records laid out before the component: ids are
    ``n{offset+i}``, and ports are sorted as strings, so their order changes
    where an id gains a digit.  A component carried as the same object into
    another complex is not canonized again, nor rendered again at an offset
    it was rendered at; the document is the section texts joined inside a
    fixed envelope, byte for byte the ``json.dumps`` of the whole instance
    document.

    Raises ValidationError, whose report lists the ``dangling_reference``
    violations, when a record names an id that ``cx`` does not hold; ``cx``
    is validated only then.
    """
    return _form([cx])


def _form(parts: list[Complex]) -> str:
    """:func:`canonical_form` of the union of ``parts``, complexes with
    disjoint ids, laid out from the components of each: the form of a
    result that the candidate loop gives as parts, byte for byte that of
    their :func:`~widthcalc.model.joined` union, which is not built."""
    forms = [_kept(part, "_form", lambda part: (*_component_form(part), {}))
             for whole in parts for part in components(whole)]
    forms.sort(key=lambda form: form[0])
    sections: tuple[list[str], ...] = ([], [], [], [])
    offset = 0
    for _cert, records, texts in forms:
        rendered = texts.get(offset)
        if rendered is None:
            try:
                rendered = texts[offset] = _render(records, offset)
            except KeyError:  # a reference to no record: the report names it
                raise ValidationError(validate(joined(parts))) from None
        for out, text in zip(sections, rendered):
            if text:
                out.append(text)
        offset += len(records)
    thick, thin, boundary, cbs = (", ".join(out) for out in sections)
    return f'{{"thick": [{thick}], "thin": [{thin}], "boundary": [{boundary}], "cbs": [{cbs}]}}'


def _digest(parts: list[Complex]) -> str:
    """:func:`canonical_hash` of the union of ``parts``, from :func:`_form`."""
    return hashlib.sha256(_form(parts).encode()).hexdigest()


def canonical_hash(cx: Complex) -> str:
    """Digest equal for relabelled copies of the same complex, and only for them.

    Each component's form is kept on the component as a complex (see
    :func:`canonical_form`), so a component that the complexes of a
    :func:`thin` or :func:`rewrite_graph` run share as one object is
    canonized once and rendered once per offset; a complex made of such
    components at offsets seen before hashes a join of kept text.  The
    drivers hash a result from the parts the candidate loop gives, by the
    same form, without joining them.  Raises ValidationError on a dangling
    reference, as :func:`canonical_form` does.

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
    return _digest([cx])
