"""Colour refinement in the canonical hash agrees with a plain reference.

``_reference_refine`` is a verbatim copy of the round-synchronous refinement
that recomputes and ranks every vertex's signature in every round.  The
engine's colours must be order-isomorphic to the reference's (the same
cells in the same order) and, at a discrete colouring, equal to them; this
is what keeps the canonical bytes unchanged.  They are compared at the root
of every component of the seeded corpus of ``test_golden_record_bytes`` and
of a few symmetric shapes, after individualizing each member of its target cell, down the first
branch to a discrete leaf, and the same on generated coloured digraphs.  A
component's graph is the one the hash builds (``model._digraph``), and
the engine refines its very edge lists.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from widthcalc import search
from widthcalc.gen import GenConfig, gen_complex
from widthcalc.model import _SLOT, _digraph, _records, build_complex, components
from conftest import bdy, cb, thick, thin
from test_search import _bipartite_flow, _branches, _relabel, _star, _union


def _reference_refine(colors: list[int], outs, ins) -> list[int]:
    """Colour refinement to the coarsest equitable refinement of ``colors``.

    A vertex's new colour is the rank of (its colour, the sorted colours of
    its out- and in-neighbours by slot) among all such signatures, so the
    result is dense ranks, refines the input order and is relabelling
    invariant.
    """
    count = len(set(colors))
    while True:
        sigs = [(c, tuple(sorted([(slot, colors[j]) for slot, j in outs[v]])),
                 tuple(sorted([(slot, colors[j]) for slot, j in ins[v]])))
                for v, c in enumerate(colors)]
        ranks = {sig: k for k, sig in enumerate(sorted(set(sigs)))}
        colors = [ranks[sig] for sig in sigs]
        if len(ranks) == count:
            return colors
        count = len(ranks)


def _dense(colors) -> list[int]:
    """Each colour's rank among the distinct colours: equal for two
    colourings exactly when they are order-isomorphic."""
    ranks = {c: k for k, c in enumerate(sorted(set(colors)))}
    return [ranks[c] for c in colors]


def _ins(outs):
    ins = [[] for _ in outs]
    for v, edges in enumerate(outs):
        for slot, j in edges:
            ins[j].append((slot, v))
    return ins


def _keyed(outs):
    """The engine's edge lists of the graph whose out-edges are the
    (slot, target) lists ``outs``: each vertex's out- and in-edges as
    (``slot * _SLOT``, neighbour), in-edges in the order of their sources."""
    keyed = [[(slot * _SLOT, j) for slot, j in edges] for edges in outs]
    return keyed, _ins(keyed)


# The engine's side, on its keyed edge lists: colours from keys at the root,
# and a child's colours after individualizing one vertex of its parent's.

def _engine_root(keys, edges):
    colors, cells = search._partition(keys)
    search._refine(colors, cells, *edges)
    return colors, (colors, cells)


def _engine_child(state, v, edges):
    colors, cells = state[0][:], state[1][:]
    split = search._individualize(colors, cells, v)
    search._refine(colors, cells, *edges, split)
    return colors, (colors, cells)


def _target(ref) -> list[int]:
    """The members of the lowest colour shared by several, or [] if discrete."""
    counts = Counter(ref)
    shared = [c for c, k in counts.items() if k > 1]
    return [v for v, c in enumerate(ref) if c == min(shared)] if shared else []


def _agree_below(ref, state, outs, ins, edges) -> int:
    """Check the engine against the reference after individualizing each
    member of the target cell, then go down the first child to a discrete
    leaf; the number of levels gone down."""
    first = None
    for v in _target(ref):
        split = [2 * c + 1 for c in ref]
        split[v] -= 1
        child = _reference_refine(split, outs, ins)
        colors, child_state = _engine_child(state, v, edges)
        assert _dense(colors) == child
        if len(set(child)) == len(child):
            assert colors == child
        if first is None:
            first = child, child_state
    return 0 if first is None else 1 + _agree_below(*first, outs, ins, edges)


def _check(keys, outs, edges=None) -> int:
    """Check the root and every level below it; the number of levels.  The
    engine refines ``edges``, its keyed edge lists of the graph ``outs``,
    built from ``outs`` when not given."""
    if edges is None:
        edges = _keyed(outs)
    ins = _ins(outs)
    ref = _reference_refine(_dense(keys), outs, ins)
    colors, state = _engine_root(keys, edges)
    assert _dense(colors) == ref
    if len(set(ref)) == len(ref):
        assert colors == ref
    return _agree_below(ref, state, outs, ins, edges)


def _component_graph(part):
    """The attributes, the (slot, target) references and the keyed edge
    lists of the records of ``part``, as the canonical hash builds them;
    its in-edges are checked to be its out-edges reversed, in the order
    of their sources, and its vertices to be the records in map order."""
    records, attrs, outs, ins = _digraph(part)
    assert records == _records(part)
    refs = [[(key // _SLOT, j) for key, j in edges] for edges in outs]
    assert (outs, ins) == _keyed(refs)
    return attrs, refs, (outs, ins)


def test_refinement_matches_the_reference_on_the_seeded_corpus():
    rng = random.Random(5)
    corpus = [gen_complex(GenConfig(max_thick=1 + i % 6), rng) for i in range(300)]
    corpus += [_relabel(cx, i) for i, cx in enumerate(corpus[:60])]
    corpus += [_union([corpus[i], _relabel(corpus[i + 1], i)], rng) for i in range(0, 40, 2)]
    # and the symmetric shapes the hash tests search deep
    corpus += [_star(6), _star(5, 0, 4, drilled=(2,)), _branches(6),
               _bipartite_flow([[0, 1], [2, 3, 4, 5]])]
    depths = Counter(_check(*_component_graph(part))
                     for cx in corpus for part in components(cx))
    assert sum(depths.values()) >= 500 and sum(depths.values()) - depths[0] >= 12
    assert max(depths) >= 5


@st.composite
def coloured_digraphs(draw):
    """Up to 10 vertices in up to 3 colours, with up to 30 edges in 3 slots;
    loops and repeated edges included."""
    n = draw(st.integers(1, 10))
    keys = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                                    st.integers(0, n - 1)), max_size=30))
    outs = [[] for _ in range(n)]
    for a, slot, b in edges:
        outs[a].append((slot, b))
    return keys, outs


@settings(max_examples=400, deadline=None)
@given(coloured_digraphs())
def test_refinement_matches_the_reference_on_coloured_digraphs(graph):
    keys, outs = graph
    _check(keys, outs)


def test_the_graph_of_a_component_names_each_field_once():
    """Hand-checked: each record's attributes open with its kind's rank; a
    level refers to its first field by slot 0 and to a body id by slot 1, a
    flag being an attribute; a body refers to its plus level by slot 0 and
    to each port by slot 1, and a reference to an id the complex does not
    hold is dropped."""
    part = build_complex(
        thick=[thick("H", 1, 2, "u", "d")],
        thin=[thin("F", 0, 4, from_cb="u", to_cb="gone")],
        boundary=[bdy("S", 0, 1, "d", drilled=True)],
        cbs=[cb("u", "H", minus=("F",), b=1), cb("d", "H", minus=("S", "T"), v=2, ball=True)])
    records, attrs, outs, ins = _digraph(part)
    assert [rec.id for rec in records] == ["H", "F", "S", "u", "d"]
    assert attrs == [(0, 1, 2), (1, 0, 4), (2, 0, 1, True),
                     (3, 0, 1, 0, 0, False, False), (3, 2, 0, 0, 0, False, True)]
    slot = _SLOT
    assert outs == [[(0, 3), (slot, 4)], [(0, 3)], [(0, 4)],
                    [(0, 0), (slot, 1)], [(0, 0), (slot, 2)]]
    assert ins == [[(0, 3), (0, 4)], [(slot, 3)], [(slot, 4)],
                   [(0, 0), (0, 1)], [(slot, 0), (0, 2)]]
