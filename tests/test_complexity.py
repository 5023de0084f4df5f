import pytest
from hypothesis import given, settings, strategies as st

from widthcalc.complexity import (
    EQ,
    GT,
    LT,
    compare,
    complexity,
    complexity_table,
    index_down,
    index_up,
    reach_down,
    reach_up,
    reverse_orientation,
    total_index,
)
from widthcalc.gen import GenConfig, gen_complex
from widthcalc.model import (
    Surface,
    ValidationError,
    body_index,
    build_complex,
    thick_digraph,
    validate,
)
from widthcalc.selftest import _brute_reach
from conftest import bdy, cb, sphere_chain, thick, thin


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def brute_force_reach(edges, start):
    """Oracle: collect ends of all directed walks from start, by path search."""
    found = {start}
    stack = [(start, (start,))]
    while stack:
        node, path = stack.pop()
        for nxt in edges.get(node, ()):
            found.add(nxt)
            if nxt not in path:  # simple paths suffice to reach everything
                stack.append((nxt, path + (nxt,)))
    return frozenset(found)


def test_reach_single(one_bridge_sphere):
    assert reach_up(one_bridge_sphere, "H") == {"H"}
    assert reach_down(one_bridge_sphere, "H") == {"H"}


def test_reach_chain():
    cx = build_complex(
        thick=[thick("H", 0, 0, "Hu", "Hd"), thick("J", 0, 0, "Ju", "Jd"),
               thick("K", 1, 0, "Ku", "Kd")],
        thin=[thin("F", 0, 0, from_cb="Hu", to_cb="Jd"),
              thin("G", 0, 0, from_cb="Ju", to_cb="Kd")],
        cbs=[cb("Hu", "H", minus=("F",)), cb("Hd", "H"),
             cb("Ju", "J", minus=("G",)), cb("Jd", "J", minus=("F",)),
             cb("Ku", "K"), cb("Kd", "K", minus=("G",))],
    )
    assert validate(cx).ok
    assert reach_up(cx, "H") == {"H", "J", "K"}
    assert reach_up(cx, "J") == {"J", "K"}
    assert reach_down(cx, "K") == {"H", "J", "K"}


def test_reach_diamond_matches_oracle(diamond_four):
    edges = thick_digraph(diamond_four)
    assert reach_up(diamond_four, "H") == {"H", "A", "B", "K"}
    for node in diamond_four.thick:
        assert reach_up(diamond_four, node) == brute_force_reach(edges, node)


def test_reach_unknown_id(one_bridge_sphere):
    with pytest.raises(ValidationError):
        reach_up(one_bridge_sphere, "nope")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_analysis_matches_walks_and_sums(seed, max_thick):
    # oracle: reach by path search, indices by summing body_index over the reach
    cx = gen_complex(GenConfig(max_thick=max_thick, seed=seed))
    edges = thick_digraph(cx)
    reversed_edges = {t: [] for t in edges}
    for src, outs in edges.items():
        for dst in outs:
            reversed_edges[dst].append(src)
    for t in cx.thick:
        up, down = _brute_reach(edges, t), _brute_reach(reversed_edges, t)
        assert reach_up(cx, t) == up
        assert reach_down(cx, t) == down
        assert index_up(cx, t) == 6 - 6 * len(up) + sum(
            body_index(cx, cx.thick[j].upper_cb) for j in up)
        assert index_down(cx, t) == 6 - 6 * len(down) + sum(
            body_index(cx, cx.thick[j].lower_cb) for j in down)


# ---------------------------------------------------------------------------
# Indices
# ---------------------------------------------------------------------------

def test_index_single_level_is_body_index(one_bridge_sphere):
    assert index_up(one_bridge_sphere, "H") == 4
    assert index_down(one_bridge_sphere, "H") == 4
    assert total_index(one_bridge_sphere, "H") == 8


def test_index_four_ended_spheres(spheres_with_four_ends):
    assert index_up(spheres_with_four_ends, "H") == 12
    assert index_down(spheres_with_four_ends, "H") == 12
    assert complexity(spheres_with_four_ends) == (24,)


def test_index_chain_discounts(chain_two):
    # two upper bodies of index 6 each: 6 - 12 + 12 = 6
    assert index_up(chain_two, "H") == 6
    assert index_down(chain_two, "H") == 0  # plain ball below
    assert index_up(chain_two, "J") == 6
    assert index_down(chain_two, "J") == 6
    assert complexity(chain_two) == (12, 6)


def test_complexity_of_disjoint_union(one_bridge_sphere):
    cx = build_complex(
        thick=[thick("H", 0, 2, "u", "d"), thick("T", 1, 0, "Tu", "Td")],
        cbs=[cb("u", "H", b=1, ball=True), cb("d", "H", b=1, ball=True),
             cb("Tu", "T"), cb("Td", "T")],
    )
    # solid-torus level totals 12, bridge sphere totals 8
    assert complexity(cx) == (12, 8)


def test_indices_nonnegative_on_fixtures(one_bridge_sphere, chain_two, diamond_four,
                                         spheres_with_four_ends):
    for cx in (one_bridge_sphere, chain_two, diamond_four, spheres_with_four_ends):
        for t in cx.thick:
            assert index_up(cx, t) >= 0
            assert index_down(cx, t) >= 0


def test_deep_chain():
    # 2000 levels is past the default recursion limit
    n = 2000
    cx = sphere_chain(n)
    assert validate(cx).ok
    assert complexity(cx) == (6 * (n + 1),) * n
    rows = complexity_table(cx)
    assert [(r["index_up"], r["index_down"]) for r in rows] == [
        (6 * (n - i), 6 * (i + 1)) for i in range(n)]


def test_complexity_table(one_bridge_sphere):
    rows = complexity_table(one_bridge_sphere)
    assert rows == [{"id": "H", "body_up": 4, "body_down": 4,
                     "index_up": 4, "index_down": 4, "index": 8}]


# ---------------------------------------------------------------------------
# Lexicographic comparison
# ---------------------------------------------------------------------------

def test_compare_examples():
    assert compare((6,), (6, 4)) == LT
    assert compare((6, 2), (6, 4, 2)) == LT
    assert compare((24,), (24,)) == EQ
    assert compare((8, 2), (6, 4)) == GT


def naive_compare(a, b):
    for x, y in zip(list(a) + [-1] * (len(b) - len(a)),
                    list(b) + [-1] * (len(a) - len(b))):
        if x < y:
            return LT
        if x > y:
            return GT
    return EQ


vectors = st.lists(st.integers(0, 40).map(lambda n: 2 * n), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@settings(max_examples=400, deadline=None)
@given(vectors, vectors)
def test_compare_matches_naive(a, b):
    assert compare(a, b) == naive_compare(a, b)


@settings(max_examples=400, deadline=None)
@given(vectors, vectors, vectors)
def test_compare_total_order(a, b, c):
    assert compare(a, a) == EQ
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) != GT and compare(b, c) != GT:
        assert compare(a, c) != GT
    if compare(a, b) == EQ:
        assert a == b


@settings(max_examples=300, deadline=None)
@given(vectors, st.integers(0, 10))
def test_removal_monotonicity(v, i):
    if not v:
        return
    i %= len(v)
    shorter = v[:i] + v[i + 1:]
    assert compare(shorter, v) == LT


# ---------------------------------------------------------------------------
# Orientation reversal
# ---------------------------------------------------------------------------

def test_reversal_swaps_indices(chain_two, diamond_four, spheres_with_four_ends):
    for cx in (chain_two, diamond_four, spheres_with_four_ends):
        rev = reverse_orientation(cx)
        assert validate(rev).ok
        for t in cx.thick:
            assert index_up(rev, t) == index_down(cx, t)
            assert index_down(rev, t) == index_up(cx, t)
        assert complexity(rev) == complexity(cx)
        assert reverse_orientation(rev) == cx
