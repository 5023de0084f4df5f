import dataclasses
import hashlib
import itertools
import json
import operator
import random
import time
import tracemalloc
from collections import Counter

import pytest

from widthcalc import model, moves, search
from widthcalc.complexity import LT, compare, complexity
from widthcalc.gen import GenConfig, enumerate_moves, gen_complex, gen_move
from widthcalc.model import (
    BoundaryLevel,
    CompressionBody,
    ThickLevel,
    ThinLevel,
    _records,
    emit_complex,
    emit_record,
    parse_complex,
    validate,
)
from widthcalc.moves import (
    BodySpec,
    Consolidate,
    Destabilize,
    DiscData,
    MoveRejected,
    SplitData,
    ThickSpec,
    Untelescope,
    UntelescopeOutcome,
    apply_move,
    emit_move,
    find_product_on_thin,
    is_reduced,
    parse_move,
)
from widthcalc.search import (
    _in_orbit,
    _orbits,
    canonical_form,
    canonical_hash,
    rewrite_graph,
    rewrite_graph_dot,
    thin,
)
from conftest import bdy, cb, thick, thin as thin_level, unchecked
from widthcalc.model import build_complex


def spheres_untelescope():
    return Untelescope(
        thick="H",
        disc_minus=DiscData(0, True, SplitData((0, 0), (0, 0), (("S2",), ("S1",)))),
        disc_plus=DiscData(0, True, SplitData((0, 0), (0, 0), (("S4",), ("S3",)))),
        outcome=UntelescopeOutcome(
            h_minus=ThickSpec("Hm", lower=BodySpec("cmd"), upper=BodySpec("cmu")),
            h_plus=ThickSpec("Hp", lower=BodySpec("cpd"), upper=BodySpec("cpu")),
            thin_id="F0"),
    )


# ---------------------------------------------------------------------------
# thin()
# ---------------------------------------------------------------------------

def test_thin_identity_on_locally_thin(one_bridge_sphere):
    final, trace = thin(one_bridge_sphere, proposer=lambda cx: [])
    assert final == one_bridge_sphere
    assert trace.terminal and trace.steps == []


def test_thin_scripted_untelescope(spheres_with_four_ends):
    move = spheres_untelescope()

    def proposer(cx):
        return [move] if "H" in cx.thick else []

    final, trace = thin(spheres_with_four_ends, proposer)
    assert trace.terminal
    assert len(trace.steps) == 1
    assert complexity(final) == (18, 18)
    vectors = trace.vectors()
    assert vectors == [(24,), (18, 18)]
    reduced, _ = is_reduced(final)
    assert reduced


def test_thin_prepass_reduces_first():
    # a certified product sits on a thin level: thin() must consolidate even
    # though the proposer has nothing to offer
    cx = build_complex(
        thick=[thick("H", 1, 4, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin_level("F", 1, 0, from_cb="Hu", to_cb="Jd")],
        boundary=[bdy("B1", 0, 4, "Hu")],
        cbs=[cb("Hu", "H", minus=("F", "B1"), v=4), cb("Hd", "H", b=2),
             cb("Ju", "J"), cb("Jd", "J", minus=("F",), product=True)],
    )
    final, trace = thin(cx, proposer=lambda c: [])
    assert trace.terminal
    assert [s.move["kind"] for s in trace.steps] == ["consolidate"]
    assert set(final.thick) == {"H"}


def test_thin_cap_zero_reports(spheres_with_four_ends):
    move = spheres_untelescope()
    final, trace = thin(spheres_with_four_ends, lambda cx: [move], cap=0)
    assert not trace.terminal and trace.cap_reached
    assert final == spheres_with_four_ends


def test_thin_skips_bad_certificates(spheres_with_four_ends):
    bad = Untelescope("H", DiscData(0, False), DiscData(0, False),
                      spheres_untelescope().outcome)  # genus 0: non-separating fails
    good = spheres_untelescope()
    final, trace = thin(spheres_with_four_ends, lambda cx: [bad, good]
                        if "H" in cx.thick else [])
    assert trace.terminal
    assert len(trace.steps) == 1
    assert trace.diagnostics == {("untelescope", "disc.genus"): 1}
    assert not trace.cap_reached
    assert complexity(final) == (18, 18)


def test_thin_policies_agree_on_random_instances():
    rng = random.Random(31)
    cfg = GenConfig(max_thick=3)
    for _ in range(25):
        cx = gen_complex(cfg, rng)
        final_f, trace_f = thin(cx, enumerate_moves, policy="first")
        final_g, trace_g = thin(cx, enumerate_moves, policy="greedy-max-drop")
        for trace in (trace_f, trace_g):
            vectors = trace.vectors()
            assert all(compare(b, a) == LT for a, b in zip(vectors, vectors[1:]))
        for final in (final_f, final_g):
            reduced, _ = is_reduced(final, enumerate_moves)
            assert reduced


def _applicable(cx, moves):
    out = []
    for move in moves:
        try:
            out.append(apply_move(cx, move))
        except MoveRejected:
            pass
    return out


def test_thin_rechecks_only_the_bodies_each_move_touched(monkeypatch):
    """Each body keeps the last check it passed, so validating a candidate's
    result checks again only the bodies whose records or reads differ.  Validating every
    result in full made 24,848 body checks on this 21-level run."""
    calls = 0
    real = model._check_cb

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(model, "_check_cb", counting)
    final, trace = thin(gen_complex(GenConfig(max_thick=24, seed=0)), enumerate_moves)
    assert trace.terminal and len(trace.steps) == 42
    assert complexity(final) == (88, 76, 76, 70, 66, 66, 60, 52, 50, 50, 44,
                                 40, 40, 40, 32, 26, 24, 24, 18, 16, 12)
    assert calls <= 2500


def test_thin_validates_only_results_whose_rebuilt_bodies_pass(monkeypatch):
    """A candidate whose rebuilt bodies fail their own checks is rejected
    before its whole result is validated.  Validating every result made
    5,326 validations on this 25-level run."""
    calls = 0
    real = model._validation

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(model, "_validation", counting)
    final, trace = thin(gen_complex(GenConfig(max_thick=48, seed=0)), enumerate_moves)
    assert trace.terminal and len(trace.steps) == 109
    assert complexity(final) == (220, 186, 184, 180, 176, 162, 160, 154, 146, 142, 142,
                                 140, 136, 136, 136, 136, 132, 128, 124, 122, 106, 104,
                                 96, 92, 92, 90, 90, 88, 86, 82, 74, 48, 46, 44, 44, 38,
                                 34, 32, 20, 18, 16, 14, 12)
    assert calls <= 600


def test_thin_checks_each_rebuilt_body_once(monkeypatch):
    """The gate checks a candidate's rebuilt bodies on their records, and
    each keeps its pass, so the whole validation of the built result does
    not check them again, nor an untouched body across a level the move
    re-pointed.  Checking rebuilt bodies twice made 10,241 body checks on
    this 25-level run, 1,220 of them repeats; re-checking the bodies across
    re-pointed levels made 9,021, and deciding again at every step each
    offer rejected before its result was built, on an unchanged level,
    made 7,925."""
    calls = 0
    real = model._check_cb

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(model, "_check_cb", counting)
    final, trace = thin(gen_complex(GenConfig(max_thick=48, seed=0)), enumerate_moves)
    assert trace.terminal and len(trace.steps) == 109
    assert calls == 1677


def test_thin_reduces_each_body_along_each_disc_once(monkeypatch):
    """``boundary_reduce`` keeps its outcome, a reduction or a rejection, on
    the instance for each body and disc, so its body runs at most once per
    distinct (instance, body, disc) however many untelescope candidates pair
    the disc.  Reducing afresh for every candidate ran the body 17,225 times
    on 6,671 distinct triples on this 25-level run; an untelescope rejected
    at an earlier step on an unchanged level is not decided again, and
    deciding it again at every step made those 6,671 triples, against 914.
    A body run is counted by the ``body_index`` it starts with, the one call
    in ``moves``."""
    runs = 0
    triples = set()
    inputs = {}  # keeps every input alive, so that no id is reused
    real_reduce, real_index = moves.boundary_reduce, moves.body_index

    def reducing(cx, cb_id, d):
        inputs[id(cx)] = cx
        triples.add((id(cx), cb_id, d))
        return real_reduce(cx, cb_id, d)

    def indexing(cx, cb_id):
        nonlocal runs
        runs += 1
        return real_index(cx, cb_id)

    monkeypatch.setattr(moves, "boundary_reduce", reducing)
    monkeypatch.setattr(moves, "body_index", indexing)
    final, trace = thin(gen_complex(GenConfig(max_thick=48, seed=0)), enumerate_moves)
    assert trace.terminal and len(trace.steps) == 109
    assert len(triples) == 914
    assert runs <= len(triples)


def _count_decisions(monkeypatch):
    """Count ``apply_move`` calls under ``"apply"`` and calls of the kinds'
    apply functions (``moves._KINDS``), the offers decided afresh, under
    ``"decided"``."""
    calls = Counter()
    real = moves.apply_move
    for kind, (name, apply) in list(moves._KINDS.items()):
        def decided(cx, move, apply=apply):
            calls["decided"] += 1
            return apply(cx, move)
        monkeypatch.setitem(moves._KINDS, kind, (name, decided))

    def applying(cx, move):
        calls["apply"] += 1
        return real(cx, move)

    monkeypatch.setattr(moves, "apply_move", applying)
    monkeypatch.setattr(search, "apply_move", applying)
    return calls


def test_thin_on_a_parsed_document_traces_as_on_the_generated_complex():
    """Guard for what a validation may reuse between bodies: the parse
    shares one object per distinct surface and tangle value, the generator
    does not, and ``thin`` on the 80 thin-random instances gives the same
    digests, moves, vectors, diagnostics and final document either way."""
    def run(cx):
        final, trace = thin(cx, enumerate_moves)
        return (trace.start_digest, trace.start_vector, trace.terminal, trace.cap_reached,
                [(s.digest, s.move, s.vector) for s in trace.steps],
                dict(trace.diagnostics), emit_complex(final))

    for i in range(80):
        cfg = GenConfig(max_thick=6, seed=100_000 + i)
        assert run(parse_complex(emit_complex(gen_complex(cfg)))) == run(gen_complex(cfg))


def test_thin_decides_again_only_offers_whose_level_changed(monkeypatch, bench_chain):
    """Work-count gate on ``thin`` on the 100-level chain: every offer still
    goes through ``apply_move``, but one rejected before its result was
    built, and offered again on a level whose hood is unchanged, is not
    decided again.  Deciding every offer afresh made 11,245 decisions."""
    calls = _count_decisions(monkeypatch)
    _final, trace = thin(parse_complex(bench_chain(100, random.Random(1))), enumerate_moves)
    assert trace.terminal and len(trace.steps) == 274
    assert calls["apply"] == 11_245
    assert calls["decided"] <= 800


def test_thin_has_no_blow_up_on_fifty_levels(monkeypatch):
    """Work-count gate on ``thin`` on the 50-level
    ``GenConfig(max_thick=96, seed=0)``: 277 steps and 106,448
    ``apply_move`` calls, of which at most 4,000 are decided afresh.
    Deciding every offer afresh made 106,448 decisions."""
    calls = _count_decisions(monkeypatch)
    _final, trace = thin(gen_complex(GenConfig(max_thick=96, seed=0)), enumerate_moves)
    assert trace.terminal and len(trace.steps) == 277
    assert calls["apply"] == 106_448
    assert calls["decided"] <= 4000


def test_thin_keeps_no_dropped_complex_alive(bench_chain):
    """Memory guard: no decision kept on a move keeps alive a complex that
    ``thin`` has left behind.  The traced peak of ``thin`` on the 50-level
    chain is about 1.1 MB; a move that kept the complex of every rejection
    raised it to 11.7 MB."""
    cx = parse_complex(bench_chain(50, random.Random(1)))
    tracemalloc.start()
    try:
        thin(cx, enumerate_moves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_an_unchanged_level_offers_the_same_moves():
    """``enumerate_moves`` gives a new list at every call, so shuffling one,
    as ``gen_move`` does, leaves later proposals as they were.  Across the
    steps of ``thin``, a level whose hood is unchanged offers the very same
    move objects, and one whose hood changed offers new ones."""
    cx = gen_complex(GenConfig(max_thick=6, seed=100_003))
    first, again = enumerate_moves(cx), enumerate_moves(cx)
    assert first is not again and first == again
    random.Random(1).shuffle(first)
    assert gen_move(cx, random.Random(2)) is not None
    assert enumerate_moves(cx) == again

    proposed = []

    def proposer(node):
        offers = enumerate_moves(node)
        proposed.append((node, offers))
        return offers

    _final, trace = thin(cx, proposer)
    assert len(trace.steps) > 2
    same = new = 0
    for (before, earlier), (after, later) in zip(proposed, proposed[1:]):
        for t_id in after.thick:
            offers = [m for m in later if m.thick == t_id and not isinstance(m, Consolidate)]
            if t_id in before.thick and moves._hood(after, t_id) == moves._hood(before, t_id):
                kept = [m for m in earlier if m.thick == t_id and not isinstance(m, Consolidate)]
                assert len(offers) == len(kept) and all(map(operator.is_, offers, kept))
                same += 1
            else:
                assert not any(m is k for m in offers for k in earlier)
                new += 1
    assert same >= 5 and new >= 5


def test_greedy_policy_takes_least_vector_then_digest():
    """Replays greedy runs: where no consolidation is forced and no reducing
    move applies, each step is the least (vector, digest) over the applicable
    untelescope and consolidate candidates; the corpus has steps where
    results of different digests tie on the vector."""
    rng = random.Random(33)
    ties = 0
    for _ in range(60):
        current = gen_complex(GenConfig(max_thick=2, max_genus=4), rng)
        _final, trace = thin(current, enumerate_moves, policy="greedy-max-drop")
        for step in trace.steps:
            after = apply_move(current, parse_move(step.move))
            assert canonical_hash(after) == step.digest
            candidates = enumerate_moves(current)
            if find_product_on_thin(current) is None and not _applicable(
                    current, [m for m in candidates
                              if not isinstance(m, (Untelescope, Consolidate))]):
                keys = [(complexity(r), canonical_hash(r)) for r in _applicable(
                    current, [m for m in candidates
                              if isinstance(m, (Untelescope, Consolidate))])]
                assert (step.vector, step.digest) == min(keys)
                ties += len({d for vec, d in keys if vec == step.vector}) > 1
            current = after
    assert ties >= 4


# ---------------------------------------------------------------------------
# rewrite_graph
# ---------------------------------------------------------------------------

def test_rewrite_graph_single_node(one_bridge_sphere):
    graph = rewrite_graph(one_bridge_sphere, enumerate_moves)
    assert len(graph.nodes) == 1
    assert graph.edges == []
    assert graph.complete
    assert graph.sinks() == [graph.root]


def test_rewrite_graph_diamond_confluence():
    # two disjoint consolidatable components: either consolidation first,
    # both orders meet at the same sink; the components have different genus
    # so the two intermediate states hash apart
    def comp(prefix, genus):
        return dict(
            thick=[thick(f"{prefix}H", genus, 0, f"{prefix}Hu", f"{prefix}Hd"),
                   thick(f"{prefix}J", genus, 0, f"{prefix}Ju", f"{prefix}Jd")],
            thin=[thin_level(f"{prefix}F", genus, 0, from_cb=f"{prefix}Hu",
                             to_cb=f"{prefix}Jd")],
            cbs=[cb(f"{prefix}Hu", f"{prefix}H", minus=(f"{prefix}F",)),
                 cb(f"{prefix}Hd", f"{prefix}H"),
                 cb(f"{prefix}Ju", f"{prefix}J"),
                 cb(f"{prefix}Jd", f"{prefix}J", minus=(f"{prefix}F",), product=True)],
        )

    left, right = comp("L", 1), comp("R", 2)
    cx = build_complex(
        thick=left["thick"] + right["thick"],
        thin=left["thin"] + right["thin"],
        cbs=left["cbs"] + right["cbs"],
    )
    assert validate(cx).ok

    def proposer(c):
        return [m for m in enumerate_moves(c) if isinstance(m, Consolidate)]

    graph = rewrite_graph(cx, proposer)
    assert graph.complete
    assert len(graph.nodes) == 4
    assert len(graph.sinks()) == 1
    assert graph.is_acyclic()
    dot = rewrite_graph_dot(graph)
    assert dot.startswith("digraph") and "consolidate" in dot


def test_rewrite_graph_on_random_instances_is_acyclic():
    rng = random.Random(57)
    cfg = GenConfig(max_thick=3)
    for _ in range(10):
        cx = gen_complex(cfg, rng)
        graph = rewrite_graph(cx, enumerate_moves, max_nodes=60)
        assert graph.is_acyclic()
        for digest in graph.sinks():
            reduced, _ = is_reduced(graph.nodes[digest], enumerate_moves)
            assert reduced


def test_rewrite_graph_budget_flagging(spheres_with_four_ends):
    move = spheres_untelescope()
    graph = rewrite_graph(spheres_with_four_ends,
                          lambda cx: [move] if "H" in cx.thick else [],
                          max_nodes=1)
    assert not graph.complete


@pytest.mark.parametrize("run, message", [
    (lambda cx: thin(cx, enumerate_moves, cap=-1), "cap must be at least 0, not -1"),
    (lambda cx: rewrite_graph(cx, enumerate_moves, max_nodes=0), "max_nodes must be at least 1, not 0"),
    (lambda cx: rewrite_graph(cx, enumerate_moves, max_nodes=-5), "max_nodes must be at least 1, not -5"),
])
def test_budgets_below_their_least_raise(run, message):
    cx = gen_complex(GenConfig(max_thick=2, seed=3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(cx)
    assert thin(cx, enumerate_moves, cap=0)[1].cap_reached
    assert len(rewrite_graph(cx, enumerate_moves, max_nodes=1).nodes) == 1


def test_rewrite_graph_counts_rejections_by_kind_and_rule():
    """Every node is expanded once, and every offer made there that is
    rejected is counted once, under its move kind and rule; offers that are
    not moves count under no kind."""
    cx = gen_complex(GenConfig(max_thick=3, seed=8100))
    graph = rewrite_graph(cx, lambda c: [*enumerate_moves(c), object()], max_nodes=30)
    assert not graph.complete and graph.truncated
    by_hand = Counter()
    for node in graph.nodes.values():
        for move in enumerate_moves(node):
            try:
                apply_move(node, move)
            except MoveRejected as err:
                by_hand[emit_move(move)["kind"], err.rule] += 1
        by_hand[None, "move.kind"] += 1
    assert graph.diagnostics == by_hand
    assert len(by_hand) > 3


def test_thin_counts_offers_that_are_not_moves():
    """``thin`` reads every offer, counting one that is not a move like
    :func:`rewrite_graph` does; it reads the reducing offers first, so an
    offer that is not a move is read only at steps where none reduces."""
    final, _trace = thin(gen_complex(GenConfig(max_thick=3, seed=5)), enumerate_moves)
    _same, trace = thin(final, lambda c: [object()])
    assert trace.terminal and not trace.steps
    assert trace.diagnostics == {(None, "move.kind"): 1}
    for policy, added in (("first", 5), ("greedy-max-drop", 4)):
        cx = gen_complex(GenConfig(max_thick=3, seed=5))
        want_final, want = thin(cx, enumerate_moves, policy=policy)
        got_final, got = thin(cx, lambda c: [object(), *enumerate_moves(c)], policy=policy)
        assert got_final == want_final and got.steps == want.steps
        assert got.diagnostics - want.diagnostics == {(None, "move.kind"): added}
        assert want.diagnostics - got.diagnostics == Counter()


# ---------------------------------------------------------------------------
# canonical hashing
# ---------------------------------------------------------------------------

def _renamed_doc(cx, rename):
    doc = {"thick": [], "thin": [], "boundary": [], "cbs": []}
    for pool in (cx.thick, cx.thin, cx.boundary, cx.cbs):
        for key in sorted(pool):
            section, item = emit_record(pool[key], rename)
            doc[section].append(item)
    return doc


def _relabel(cx, salt):
    """A copy of ``cx`` with its ids permuted and its records in shuffled order."""
    rng = random.Random(salt)
    ids = sorted(set(cx.thick) | set(cx.thin) | set(cx.boundary) | set(cx.cbs))
    shuffled = ids[:]
    rng.shuffle(shuffled)
    doc = _renamed_doc(cx, dict(zip(ids, shuffled)).__getitem__)
    for records in doc.values():
        rng.shuffle(records)
    return parse_complex(doc)


def _union(parts, rng):
    """Disjoint union of the complexes in ``parts``, each id prefixed by its
    part's number, with every section's records in shuffled order."""
    out = {"thick": [], "thin": [], "boundary": [], "cbs": []}
    for k, part in enumerate(parts):
        doc = _renamed_doc(part, lambda name, k=k: f"k{k}.{name}")
        for section, records in doc.items():
            out[section] += records
    for records in out.values():
        rng.shuffle(records)
    return parse_complex(out)


def test_components_of_a_union_are_its_parts():
    """A shuffled union of k relabelled one-level parts has exactly k
    components, each the records of one part, in map order.  The parts the
    candidate loop gives for a result routed to one of a complex's parts are
    the very complexes it is made of: the untouched parts and the parts of
    the touched part's kept result.  Their union keeps them as its own
    parts, and its vector, and its validation from the bodies already
    checked, are those of the same records built anew."""
    rng = random.Random(9)
    for k in (1, 2, 5):
        parts = [_relabel(gen_complex(GenConfig(max_thick=1, seed=900 + i)), i)
                 for i in range(k)]
        cx = _union(parts, rng)
        records = _records(cx)
        found = [_records(part) for part in model.components(cx)]
        assert len(found) == k
        assert {component[0].id.split(".")[0] for component in found} == {
            f"k{i}" for i in range(k)}
        for component in found:
            prefix = component[0].id.split(".")[0]
            assert component == [rec for rec in records if rec.id.startswith(prefix + ".")]
        node_parts = model.components(cx)
        joined = 0
        for move, got, vec in moves.applicable(cx, enumerate_moves(cx), Counter()):
            if len(got) == 1:  # applied whole
                continue
            joined += 1
            (j, touched), = ((j, part) for j, part in enumerate(node_parts)
                             if not any(part is q for q in got))
            new = model.components(touched.__dict__["_accepted"][move])
            want = node_parts[:j] + new + node_parts[j + 1:]
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
            result = model.joined(got)
            fresh = model.Complex(result.thick, result.thin, result.boundary, result.cbs)
            assert model.components(result) is got
            assert [_records(part) for part in got] == [
                _records(part) for part in model.components(fresh)]
            assert vec == complexity(fresh) == complexity(result)
            assert model.validation(result) == model._validation(unchecked(fresh))
        assert (joined > 0) == (k > 1)


def test_disjoint_union_refuses_parts_that_share_an_id():
    """A union of parts that share an id would hold fewer records than its
    kept split, and hash apart from a copy of itself; so would one whose
    parts use one id for records of different kinds, with the four map
    sizes adding up."""
    a = _filler()
    b = parse_complex(_renamed_doc(a, lambda name: f"b.{name}"))
    other = build_complex(thick=[thick("X", 0, 0, "H", "y")], cbs=[cb("H", "X"), cb("y", "X")])
    assert validate(other).ok and len(model.components(model.disjoint_union([a, b]))) == 2
    for parts in ([a, a], [a, b, a], [a, other]):
        with pytest.raises(ValueError, match="share an id"):
            model.disjoint_union(parts)


def test_disjoint_union_refuses_a_part_that_is_not_connected():
    """A part of two components would be kept as one, so the union's
    split would disagree with its records."""
    two = _union([_filler(), _filler()], random.Random(1))
    assert validate(two).ok and len(model.components(two)) == 2
    for parts in ([two], [_filler(), two]):
        with pytest.raises(ValueError, match="not connected"):
            model.disjoint_union(parts)


def test_each_complex_is_split_at_most_once(monkeypatch):
    """Work-count guard on the union-find behind ``model.components``: under
    ``thin`` with both policies and under ``rewrite_graph``, on seeded
    shuffled unions and on random instances of up to six thick levels, every
    complex goes through it at most once, and no complex that the split or
    ``disjoint_union`` built goes through it at all."""
    split = Counter()
    seen, built = [], []  # each complex is kept alive, so its id stays its own
    real_split, real_union = model._components, model.disjoint_union

    def splitting(cx):
        seen.append(cx)
        split[id(cx)] += 1
        found = real_split(cx)
        built.extend(found or ())
        return found

    def joining(parts):
        union = real_union(parts)
        built.append(union)
        return union

    monkeypatch.setattr(model, "_components", splitting)
    monkeypatch.setattr(model, "disjoint_union", joining)  # behind model.joined
    rng = random.Random(20)
    corpus = [gen_complex(GenConfig(max_thick=6, seed=2000 + i)) for i in range(6)]
    for i in range(6):
        base = gen_complex(GenConfig(max_thick=2, max_genus=2, max_punctures=4, seed=2010 + i))
        parts = [_relabel(base, rng.randrange(10**6)) for _ in range(2 + i % 3)]
        if i % 2:
            parts.append(_small_sphere_part())
        corpus.append(_union(parts, rng))
    for cx in corpus:
        for policy in ("first", "greedy-max-drop"):
            thin(cx, enumerate_moves, policy=policy)
        rewrite_graph(cx, enumerate_moves, max_nodes=8)
    assert max(split.values()) == 1
    assert not any(id(cx) in split for cx in built)
    # 937 when rewrite_graph hashed every result, splitting each one applied whole
    assert len(split) == 505 and len(built) > 100


def test_small_boundary_sphere_blocks_only_its_own_component():
    """A owns a twice-punctured boundary sphere, so A admits no
    destabilization; B is a genus-1 level with empty tangles, which thins to
    (8,) or (0,).  In A and B side by side, each component thins as it does
    alone: the sinks of the union are exactly the unions of their sinks."""
    a = build_complex(thick=[thick("H", 1, 2, "u", "d")],
                      boundary=[bdy("S", 0, 2, "u")],
                      cbs=[cb("u", "H", minus=("S",), v=2), cb("d", "H", b=1)])
    b = build_complex(thick=[thick("H", 1, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])
    rng = random.Random(5)
    alone = [rewrite_graph(part, enumerate_moves) for part in (a, b)]
    union = rewrite_graph(_union([a, b], rng), enumerate_moves)
    assert union.complete and all(graph.complete for graph in alone)
    sinks_a, sinks_b = ([graph.nodes[d] for d in graph.sinks()] for graph in alone)
    assert sorted(complexity(x) for x in sinks_b) == [(0,), (8,)]
    assert set(union.sinks()) == {canonical_hash(_union([x, y], rng))
                                  for x in sinks_a for y in sinks_b}


def test_canonical_hash_invariant_under_relabelling(diamond_four, chain_two,
                                                    spheres_with_four_ends):
    for cx in (diamond_four, chain_two, spheres_with_four_ends):
        want = canonical_hash(cx)
        for salt in range(25):
            assert canonical_hash(_relabel(cx, salt)) == want


def test_canonical_hash_separates_different_surfaces():
    def torus_like(genus):
        return build_complex(thick=[thick("H", genus, 0, "u", "d")],
                             cbs=[cb("u", "H"), cb("d", "H")])

    assert canonical_hash(torus_like(1)) != canonical_hash(torus_like(2))


def test_canonical_form_is_parseable(diamond_four):
    import json

    doc = json.loads(canonical_form(diamond_four))
    cx = parse_complex(doc)
    assert validate(cx).ok
    assert complexity(cx) == complexity(diamond_four)


def test_canonical_hash_random_relabel_fuzz():
    rng = random.Random(91)
    cfg = GenConfig(max_thick=4)
    for i in range(40):
        cx = gen_complex(cfg, rng)
        want = canonical_hash(cx)
        for salt in range(5):
            assert canonical_hash(_relabel(cx, salt * 101 + i)) == want


def _isomorphic(a, b):
    """Brute force: some kind-preserving bijection of ids maps ``a`` onto ``b``."""
    want = emit_complex(b)
    pools = [(sorted(getattr(a, kind)), sorted(getattr(b, kind)))
             for kind in ("thick", "thin", "boundary", "cbs")]
    if any(len(x) != len(y) for x, y in pools):
        return False
    for images in itertools.product(*(itertools.permutations(y) for _x, y in pools)):
        rename = {old: new for (x, _y), image in zip(pools, images)
                  for old, new in zip(x, image)}
        doc = _renamed_doc(a, rename.__getitem__)
        for records in doc.values():
            records.sort(key=lambda r: r["id"])
            for r in records:
                if "minus" in r:
                    r["minus"].sort()
        if doc == want:
            return True
    return False


def _refinement_classes(cx):
    """Colour-class sizes left by colour refinement alone (1-dimensional
    Weisfeiler-Leman on the typed reference graph), written independently
    of the engine."""
    edges = [(t.id, "up", t.upper_cb) for t in cx.thick.values()]
    edges += [(t.id, "down", t.lower_cb) for t in cx.thick.values()]
    edges += [(f.id, role, ref) for f in cx.thin.values()
              for role, ref in (("from", f.from_cb), ("to", f.to_cb))]
    edges += [(b.id, "own", b.owner) for b in cx.boundary.values()]
    edges += [(c.id, "plus", c.plus) for c in cx.cbs.values()]
    edges += [(c.id, "minus", p) for c in cx.cbs.values() for p in c.minus]
    color = {t.id: repr(("thick", t.surface)) for t in cx.thick.values()}
    color.update({f.id: repr(("thin", f.surface)) for f in cx.thin.values()})
    color.update({b.id: repr(("bdy", b.surface, b.is_drilled_vertex))
                  for b in cx.boundary.values()})
    color.update({c.id: repr(("cb", c.tangle, c.product_certificate, c.ball_certificate))
                  for c in cx.cbs.values()})
    for _ in range(len(color)):
        sig = {n: [c] for n, c in color.items()}
        for src, role, dst in edges:
            sig[src].append(("out", role, color[dst]))
            sig[dst].append(("in", role, color[src]))
        keys = {n: repr([s[0]] + sorted(s[1:])) for n, s in sig.items()}
        ranks = {key: f"c{k}" for k, key in enumerate(sorted(set(keys.values())))}
        color = {n: ranks[key] for n, key in keys.items()}
    return sorted(Counter(color.values()).values())


def _bipartite_flow(cycles):
    """A valid complex whose flow runs from a hub H to sources A0, A1, ... and
    on to sinks B0, B1, ..., each A feeding two Bs so that the A-B incidences
    form one cycle per entry of ``cycles`` (a list of A numbers).  Every A
    looks alike and every B looks alike to colour refinement, whatever the
    cycle lengths, although an A on a short cycle and one on a long cycle
    are not swapped by any automorphism."""
    pairs = []
    for cycle in cycles:
        for i, a in enumerate(cycle):
            pairs += [(a, cycle[i]), (a, cycle[(i + 1) % len(cycle)])]
    n = sum(len(cycle) for cycle in cycles)
    levels = [thick("H", 0, 0, "Hu", "Hd")]
    levels += [thick(f"{x}{i}", 0, 0, f"{x}{i}u", f"{x}{i}d") for x in "AB" for i in range(n)]
    thins = [thin_level(f"FA{i}", 0, 0, from_cb="Hu", to_cb=f"A{i}d") for i in range(n)]
    thins += [thin_level(f"G{a}.{b}", 0, 0, from_cb=f"A{a}u", to_cb=f"B{b}d") for a, b in pairs]
    ports: dict[str, list[str]] = {}
    for f in thins:
        ports.setdefault(f.from_cb, []).append(f.id)
        ports.setdefault(f.to_cb, []).append(f.id)
    bodies = [cb(f"{t.id}{side}", t.id, minus=ports.get(f"{t.id}{side}", ()))
              for t in levels for side in "ud"]
    return build_complex(thick=levels, thin=thins, cbs=bodies)


def test_canonical_hash_is_exact_on_small_complexes():
    """Equal digests exactly when a brute-force search finds a kind-preserving
    bijection of ids between the two complexes, on seeded instances of at
    most 8 records, their relabellings and relabelled unions with shuffled
    records."""
    rng = random.Random(17)
    small = []
    for seed in range(400):
        cx = gen_complex(GenConfig(max_thick=2, max_genus=2, max_punctures=4,
                                   max_ports=2, seed=1700 + seed))
        if len(cx.thick) + len(cx.thin) + len(cx.boundary) + len(cx.cbs) <= 8:
            small.append(cx)
    assert len(small) >= 80
    pairs = [(a, _relabel(a, rng.randrange(10**6))) for a in small[:40]]
    pairs += [(rng.choice(small), rng.choice(small)) for _ in range(150)]
    # pairs of the same shape, which only a search over bijections tells apart
    shapes: dict[tuple, list] = {}
    for cx in small:
        shape = (sorted(t.surface.genus for t in cx.thick.values()), len(cx.thin),
                 len(cx.boundary), sorted(c.tangle.counts() for c in cx.cbs.values()))
        shapes.setdefault(repr(shape), []).append(cx)
    pairs += [(x, y) for group in shapes.values() for x in group for y in group if x is not y]
    tiny = [cx for cx in small if len(cx.thick) == 1][:20]
    for _ in range(30):
        x, y = rng.choice(tiny), rng.choice(tiny)
        pairs.append((_union([x, y], rng), _union([_relabel(y, 1), _relabel(x, 2)], rng)))
        pairs.append((_union([x, x], rng), _union([x, y], rng)))
    assert len(pairs) >= 300
    agree = Counter()
    for a, b in pairs:
        same = _isomorphic(a, b)
        assert (canonical_hash(a) == canonical_hash(b)) == same
        agree[same] += 1
    assert agree[True] >= 50 and agree[False] >= 150


def test_canonical_hash_separates_what_refinement_cannot():
    """Incidence cycles 12, 4 + 8, 6 + 6 and 4 + 4 + 4: colour refinement
    leaves the same classes on all four, which are pairwise non-isomorphic.
    The mixed cycle lengths also put non-equivalent vertices in one colour
    class, so a search that explores one branch per class is not invariant."""
    shapes = [_bipartite_flow(cycles) for cycles in (
        [[0, 1, 2, 3, 4, 5]], [[0, 1], [2, 3, 4, 5]], [[0, 1, 2], [3, 4, 5]],
        [[0, 1], [2, 3], [4, 5]])]
    for cx in shapes:
        assert validate(cx).ok
        assert _refinement_classes(cx) == _refinement_classes(shapes[0])
    digests = [canonical_hash(cx) for cx in shapes]
    assert len(set(digests)) == len(shapes)
    for cx, digest in zip(shapes, digests):
        for salt in range(8):
            assert canonical_hash(_relabel(cx, salt)) == digest


def _star(m, genus=1, punctures=0, drilled=()):
    """One thick level whose upper body owns m boundary levels of one surface;
    the levels numbered in ``drilled`` are drilled vertices."""
    return build_complex(
        thick=[thick("H", m * genus, m * punctures, "u", "d")],
        boundary=[bdy(f"B{i}", genus, punctures, "u", drilled=i in drilled)
                  for i in range(m)],
        cbs=[cb("u", "H", minus=[f"B{i}" for i in range(m)], v=m * punctures),
             cb("d", "H", b=m * punctures // 2)])


def _branches(m):
    """One thick level whose upper body has m identical thin tori, each down
    to its own thick level."""
    return build_complex(
        thick=[thick("H", m, 0, "Hu", "Hd")]
        + [thick(f"J{i}", 1, 0, f"J{i}u", f"J{i}d") for i in range(m)],
        thin=[thin_level(f"F{i}", 1, 0, from_cb="Hu", to_cb=f"J{i}d") for i in range(m)],
        cbs=[cb("Hu", "H", minus=[f"F{i}" for i in range(m)]), cb("Hd", "H")]
        + [body for i in range(m)
           for body in (cb(f"J{i}u", f"J{i}"), cb(f"J{i}d", f"J{i}", minus=[f"F{i}"]))])


def test_canonical_hash_has_no_factorial_blow_up():
    """Highly symmetric complexes hash fast and relabelling-invariantly.  A
    search without automorphisms grows factorially with the number of
    identical levels; the 20 branches also need orbit pruning, and the
    20-level star needs a subtree to be dropped once it is known to be
    equivalent to an explored one, to stay well under the bound.  The 80
    branches took about 11 s and the 80-level star about 1.4 s when each
    round of refinement re-ranked every vertex and orbits were rebuilt at
    every child."""
    rng = random.Random(12)
    cases = [(cx, 1.0) for cx in (_star(10), _star(20), _star(10, 0, 4),
                                  _star(10, 0, 4, drilled=(3,)), _branches(20))]
    for seed in range(3):
        base = gen_complex(GenConfig(max_thick=1, max_genus=2, max_punctures=4,
                                     seed=1200 + seed))
        cases.append((_union([_relabel(base, rng.randrange(10**6)) for _ in range(12)], rng), 1.0))
    cases += [(_branches(80), 2.0), (_star(80), 0.6)]
    digests = []
    for cx, bound in cases:
        assert validate(cx).ok
        start = time.perf_counter()
        digests.append(canonical_hash(cx))
        assert time.perf_counter() - start < bound
        for _ in range(3 if bound == 1.0 else 1):
            assert canonical_hash(_relabel(cx, rng.randrange(10**6))) == digests[-1]
    assert len(set(digests)) == len(cases)


def test_memo_digests_equal_fresh_hashes_on_unions(monkeypatch):
    """Every digest ``rewrite_graph`` takes under its run's shared memo, of
    the root and of each applicable result it hashes from the result's
    parts, equals a fresh ``canonical_hash`` of their union.  A move on one
    copy shifts the offsets of the components laid out after it, so a memo
    hit must render its text at the offset it lands on."""
    seen = []
    digest_of = search._digest

    def recording(parts):
        digest = digest_of(parts)
        seen.append((parts, digest))
        return digest

    monkeypatch.setattr(search, "_digest", recording)
    rng = random.Random(21)
    for copies in range(2, 13):
        base = gen_complex(GenConfig(max_thick=1, max_genus=2, max_punctures=4,
                                     seed=2100 + copies))
        parts = [_relabel(base, rng.randrange(10**6)) for _ in range(copies)]
        rewrite_graph(_union(parts, rng), enumerate_moves, max_nodes=6)
    monkeypatch.undo()
    assert len(seen) > 200
    assert max(sum(len(model.components(part)) for part in parts)
               for parts, _digest in seen) == 12
    for parts, digest in seen:
        # a copy keeps no forms
        assert canonical_hash(dataclasses.replace(model.joined(parts))) == digest


def _filler():
    """A genus-0 level with empty bodies: its certificate sorts before that
    of any component whose least thick level has a positive genus."""
    return build_complex(thick=[thick("H", 0, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])


def test_memo_text_follows_the_offset_across_digit_boundaries(monkeypatch):
    """One star whose body has four ports is the shared first part of 35
    disjoint unions, behind 0 to 34 relabelled fillers of three records, so
    its ids start at every multiple of 3 up to n102.  At offsets 6 and 96
    its ports are sorted as strings across n9/n10 and n99/n100, unlike at
    offset 0.  The star keeps its form, so it is canonized once over all 70
    hashes; each document equals a fresh copy's, on first render and on a
    hit."""
    star = _star(4)
    fillers = [parse_complex(_renamed_doc(_filler(), lambda name, j=j: f"f{j}.{name}"))
               for j in range(34)]
    assert validate(star).ok and all(validate(filler).ok for filler in fillers)
    unions = [model.disjoint_union([star] + fillers[:k]) for k in range(35)]
    canonized = []
    form = search._component_form

    def counted(records):
        canonized.append(records)
        return form(records)

    monkeypatch.setattr(search, "_component_form", counted)
    digests = [canonical_hash(cx) for cx in unions + unions[::-1]]
    assert sum(records == _records(star) for records in canonized) == 1
    assert len(canonized) == 35
    for cx, digest in zip(unions + unions[::-1], digests):
        assert digest == canonical_hash(dataclasses.replace(cx))
    ports = {}
    for k in (0, 2, 32):
        doc = json.loads(canonical_form(unions[k]))
        ports[k] = next(body["minus"] for body in doc["cbs"] if body["minus"])
    assert ports == {0: ["n1", "n2", "n3", "n4"], 2: ["n10", "n7", "n8", "n9"],
                     32: ["n100", "n97", "n98", "n99"]}


def test_memo_hit_renders_nothing(monkeypatch):
    """Work-count gate: ``rewrite_graph`` on a union of four relabelled
    copies encodes a record only when a component's text at its offset is
    new, not once per record of every hashed complex."""
    calls = Counter()
    encode = search.record_text

    def counted(rec, name=str):
        calls["record_text"] += 1
        return encode(rec, name)

    monkeypatch.setattr(search, "record_text", counted)
    base = gen_complex(GenConfig(max_thick=1, max_genus=2, max_punctures=4, seed=4001))
    rng = random.Random(23)
    cx = _union([_relabel(base, rng.randrange(10**6)) for _ in range(4)], rng)
    graph = rewrite_graph(cx, enumerate_moves, max_nodes=20)
    assert len(graph.nodes) == 20
    assert calls["record_text"] <= 400  # 234 here; 4,320 when a hit re-encodes every record


def test_orbit_pruning_uses_only_automorphisms_fixing_the_prefix():
    swap = [1, 0, 3, 2]  # exchanges 0 with 1 and 2 with 3
    assert _in_orbit(_orbits(4, [swap], ()), 0, [1])
    assert not _in_orbit(_orbits(4, [swap], (2,)), 0, [1])
    assert not _in_orbit(_orbits(4, [swap], ()), 0, [2, 3])


# ---------------------------------------------------------------------------
# Components are independent
# ---------------------------------------------------------------------------

def _from_records(records):
    """The complex holding exactly ``records``."""
    pools = {ThickLevel: [], ThinLevel: [], BoundaryLevel: [], CompressionBody: []}
    for rec in records:
        pools[type(rec)].append(rec)
    return build_complex(*pools.values())


def _decision(cx, move):
    """The rule that rejects ``move`` on ``cx``, or its result."""
    try:
        return apply_move(cx, move)
    except MoveRejected as err:
        return err.rule


def _swapped(vector, old, new):
    rest = list(vector)
    for entry in old:
        rest.remove(entry)
    return tuple(sorted(rest + list(new), reverse=True))


def _check_law_on(node, move, parts, home):
    """Apply ``move`` to ``node`` and to the component holding its thick
    level; both reject under one rule, or the component's result spliced back
    into the node is the node's result, and so is its vector.  Returns the
    rule or "accepted"."""
    k = home[move.thick]
    sub = _from_records(parts[k])
    whole, alone = _decision(node, move), _decision(sub, move)
    if isinstance(whole, str):
        assert alone == whole
        return whole
    rest = [rec for j, records in enumerate(parts) if j != k for rec in records]
    spliced = _from_records(rest + _records(alone))
    assert spliced == whole
    assert canonical_hash(spliced) == canonical_hash(whole)
    assert _swapped(complexity(node), complexity(sub), complexity(alone)) == complexity(whole)
    return "accepted"


def test_a_move_decides_on_its_component_as_on_the_union():
    """The law of components, per offer: at every node of ``rewrite_graph``
    on shuffled unions of 2 to 6 relabelled copies (some beside a component
    with a small boundary sphere), every offer that ``rewrite_graph`` routes
    to a component, one whose ``named_ids`` all lie in its thick level's
    component, gets the same rule on that component alone as on the node, or
    the same result once the component's is spliced back, with the node's
    vector with the component's entries swapped for the new ones."""
    rng = random.Random(10)
    seen = Counter()
    for copies in range(2, 7):
        for seed in (1000 + copies, 1010 + copies):
            base = gen_complex(GenConfig(max_thick=2, max_genus=2, max_punctures=4, seed=seed))
            parts = [_relabel(base, rng.randrange(10**6)) for _ in range(copies)]
            if seed % 2:
                parts.append(_small_sphere_part())
            graph = rewrite_graph(_union(parts, rng), enumerate_moves, max_nodes=4)
            for node in graph.nodes.values():
                split = [_records(part) for part in model.components(node)]
                home = {rec.id: k for k, records in enumerate(split) for rec in records}
                for move in enumerate_moves(node):
                    k = home[move.thick]
                    named = moves.named_ids(node, move)
                    if named is None or any(home.get(i, k) != k for i in named):
                        seen["whole"] += 1
                        continue
                    seen[_check_law_on(node, move, split, home)] += 1
    assert seen["accepted"] >= 400 and seen["whole"] >= 400
    assert len(seen) >= 8


def test_offers_that_read_the_whole_node_are_decided_on_it(spheres_with_four_ends):
    """The three offers a component alone would decide differently, and
    the small boundary sphere, which it decides alike.  ``rewrite_graph``
    takes the node's decision on each."""
    spheres = spheres_with_four_ends
    move = spheres_untelescope()
    assert isinstance(_decision(spheres, move), model.Complex)
    # a certified product on a thin level elsewhere: elementary.pre reads the whole node
    product = build_complex(
        thick=[thick("K", 1, 4, "Ku", "Kd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin_level("F", 1, 0, from_cb="Ku", to_cb="Jd")],
        boundary=[bdy("B1", 0, 4, "Ku")],
        cbs=[cb("Ku", "K", minus=("F", "B1"), v=4), cb("Kd", "K", b=2),
             cb("Ju", "J"), cb("Jd", "J", minus=("F",), product=True)])
    # a fresh outcome id taken elsewhere: untelescope.fresh_ids reads every id
    taken = build_complex(thick=[thick("Hm", 1, 0, "x", "y")], cbs=[cb("x", "Hm"), cb("y", "Hm")])
    # a named id elsewhere: the thin level lies in the other component
    consolidate = Consolidate(thick="H", thin="F")
    cases = [(product, move, "elementary.pre"), (taken, move, "untelescope.fresh_ids"),
             (product, consolidate, "consolidate.product")]
    for other, offer, rule in cases:
        node = _from_records(_records(spheres) + _records(other))
        assert validate(node).ok
        assert _decision(node, offer) == rule
        assert _decision(spheres, offer) != rule
        graph = rewrite_graph(node, lambda cx, offer=offer: [offer])
        assert graph.edges == [] and len(graph.nodes) == 1
        assert graph.diagnostics == {(emit_move(offer)["kind"], rule): 1}
    # a small boundary sphere blocks destabilizing its own component only
    node = _from_records(_records(_small_sphere_part()) + _records(taken))
    split = [_records(part) for part in model.components(node)]
    home = {rec.id: k for k, records in enumerate(split) for rec in records}
    assert _check_law_on(node, Destabilize("stab", "H"), split, home) == "destabilize.boundary_sphere"
    assert _check_law_on(node, Destabilize("stab", "Hm"), split, home) == "accepted"
    graph = rewrite_graph(node, lambda cx: [Destabilize("stab", t) for t in sorted(cx.thick)])
    assert graph.complete and len(graph.nodes) == 2
    assert graph.diagnostics == {("destabilize", "destabilize.boundary_sphere"): 2,
                                 ("destabilize", "destabilize.genus"): 1}


def _pair_corpus(count, rng):
    """Seeded pairs (A, B): A of up to two levels, B of one, and every fifth
    A owning a small boundary sphere."""
    pairs = []
    for i in range(count):
        a = gen_complex(GenConfig(max_thick=2, max_genus=2, max_punctures=4, seed=1100 + i))
        b = gen_complex(GenConfig(max_thick=1, max_genus=2, max_punctures=4, seed=1200 + i))
        if i % 5 == 0:
            a = _union([a, _small_sphere_part()], rng)
        pairs.append((a, _relabel(b, i)))
    return pairs


def test_sinks_of_a_union_are_the_unions_of_sinks():
    """On seeded pairs whose rewrite graphs are complete, the graph of A⊔B
    is complete within |A|·|B| nodes and sinks(A⊔B) is {a⊔b : a a sink of
    A, b a sink of B}, by canonical hash."""
    rng = random.Random(11)
    complete = 0
    for a, b in _pair_corpus(30, rng):
        alone = [rewrite_graph(x, enumerate_moves, max_nodes=40) for x in (a, b)]
        size = len(alone[0].nodes) * len(alone[1].nodes)
        if not all(graph.complete for graph in alone) or size > 60:
            continue
        union = rewrite_graph(_union([a, b], rng), enumerate_moves, max_nodes=size)
        assert union.complete
        complete += 1
        sinks_a, sinks_b = ([graph.nodes[d] for d in graph.sinks()] for graph in alone)
        assert set(union.sinks()) == {canonical_hash(_union([x, y], rng))
                                      for x in sinks_a for y in sinks_b}
    assert complete >= 15


def test_thin_first_on_a_union_ends_in_the_union_of_thin_forms():
    """``thin`` with policy ``first`` on A⊔B ends in thin(A)⊔thin(B), by
    canonical hash: each component takes the moves it takes alone."""
    rng = random.Random(12)
    for a, b in _pair_corpus(30, rng):
        final, trace = thin(_union([a, b], rng), enumerate_moves, policy="first")
        assert trace.terminal
        alone = [thin(x, enumerate_moves, policy="first")[0] for x in (a, b)]
        assert canonical_hash(final) == canonical_hash(_union(alone, rng))


def _four_copies():
    """A shuffled union of four relabelled copies of one seeded one-level base."""
    base = gen_complex(GenConfig(max_thick=1, max_genus=2, max_punctures=4, seed=4001))
    rng = random.Random(23)
    return _union([_relabel(base, rng.randrange(10**6)) for _ in range(4)], rng)


def test_rewrite_graph_reuses_accepted_results_across_nodes(monkeypatch):
    """Work-count gate: on a union of four relabelled copies, an untouched
    copy pays for an accepted move once per run, not once per node; every
    rejection is still raised by ``apply_move``.  ``built`` counts the calls
    of the kinds' apply functions (``moves._KINDS``)."""
    calls = Counter()
    real = moves.apply_move
    for kind, (name, apply) in list(moves._KINDS.items()):
        def built(cx, move, apply=apply):
            calls["built"] += 1
            return apply(cx, move)
        monkeypatch.setitem(moves._KINDS, kind, (name, built))

    def counted(cx, move):
        try:
            result = real(cx, move)
        except MoveRejected:
            calls["rejected"] += 1
            raise
        calls["accepted"] += 1
        return result

    monkeypatch.setattr(moves, "apply_move", counted)
    graph = rewrite_graph(_four_copies(), enumerate_moves, max_nodes=20)
    assert len(graph.nodes) == 20
    assert calls["rejected"] == 311
    assert calls["accepted"] == 44  # 359 when every node applies every move whole
    assert calls["built"] == 114  # 355 when a part applies a rejected move again
    for digest, node in graph.nodes.items():
        fresh = model.Complex(node.thick, node.thin, node.boundary, node.cbs)
        assert model.components(node) == model.components(fresh)
        assert graph.vectors[digest] == complexity(fresh)


def test_rewrite_graph_joins_and_hashes_only_what_can_be_a_node(monkeypatch):
    """Work-count gate: on a union of four relabelled copies,
    ``rewrite_graph`` joins a result's parts only for a node it admits, and
    once its budget is full it hashes no result whose vector no node has.
    Joining and hashing every result made 359 unions, 360 digests and 48
    canonizations here."""
    calls = Counter()
    union, form, digest = model.disjoint_union, search._component_form, search._digest

    def joining(parts):
        calls["union"] += 1
        return union(parts)

    def canonizing(records):
        calls["form"] += 1
        return form(records)

    def hashing(parts):
        calls["digest"] += 1
        return digest(parts)

    monkeypatch.setattr(model, "disjoint_union", joining)
    monkeypatch.setattr(search, "_component_form", canonizing)
    monkeypatch.setattr(search, "_digest", hashing)
    graph = rewrite_graph(_four_copies(), enumerate_moves, max_nodes=20)
    assert len(graph.nodes) == 20 and graph.truncated
    assert calls["union"] == len(graph.nodes) - 1
    assert calls["form"] <= 41
    assert calls["digest"] <= 142


def test_rewrite_graph_takes_moves_that_hold_lists():
    """A move whose ids come in a list cannot key the decisions kept on a
    component; it is still applied to its component, to the same graph."""
    rng = random.Random(24)
    base = gen_complex(GenConfig(max_thick=2, max_genus=2, max_punctures=4, seed=1137))
    cx = _union([_relabel(base, rng.randrange(10**6)) for _ in range(3)], rng)

    def listed(c):
        return [dataclasses.replace(m, boundary_ids=list(m.boundary_ids))
                if isinstance(m, Destabilize) else m for m in enumerate_moves(c)]

    want = rewrite_graph(cx, enumerate_moves, max_nodes=30)
    got = rewrite_graph(cx, listed, max_nodes=30)
    assert any(move.get("boundary_ids") for _src, move, _dst in want.edges)
    assert (got.edges, got.vectors, got.diagnostics) == (want.edges, want.vectors, want.diagnostics)


def test_a_smaller_budget_gives_the_first_nodes_of_a_larger_graph(bench_chain):
    """A budget cuts the breadth-first expansion short and changes nothing
    before the cut: with ``max_nodes=N`` the nodes are the first N that the
    40-node graph admits, in order; the edges are its edges among them, in
    order; and a node is truncated exactly when it is truncated in the
    larger graph or has an edge there to a node past the first N."""
    corpus = [_four_copies(), *_shuffled_unions(),
              parse_complex(bench_chain(3, random.Random(1))),
              parse_complex(bench_chain(4, random.Random(1)))]
    corpus += [gen_complex(GenConfig(max_thick=4, seed=seed)) for seed in range(6)]
    cut = 0
    for cx in corpus:
        large = rewrite_graph(cx, enumerate_moves, max_nodes=40)
        for budget in (1, 2, 5, 10, 20):
            small = rewrite_graph(cx, enumerate_moves, max_nodes=budget)
            first = list(large.nodes)[:budget]
            assert list(small.nodes) == first
            assert [small.vectors[d] for d in first] == [large.vectors[d] for d in first]
            kept = set(first)
            assert small.edges == [edge for edge in large.edges
                                   if edge[0] in kept and edge[2] in kept]
            assert small.truncated == {d for d in first if d in large.truncated} | {
                src for src, _move, dst in large.edges if src in kept and dst not in kept}
            cut += len(large.nodes) > budget
    assert cut > 100  # 108 of the 135 cases


# ---------------------------------------------------------------------------
# Golden search outcomes
# ---------------------------------------------------------------------------

SEARCH_GOLDEN_DIGEST = "6b0f1364d584dc2eba6c077bafc309dce7895750731df46cc54e71c4029f2a2a"


def _graph_outcome(graph):
    return [len(graph.nodes), len(graph.edges), graph.complete,
            sorted(list(v) for v in graph.vectors.values()),
            sorted(list(graph.vectors[d]) for d in graph.sinks())]


def test_golden_search_outcomes():
    """Digest-free outcomes of the search on a seeded corpus: rewrite-graph
    node and edge counts, completeness and node and sink vectors on unions of
    2 to 4 relabelled copies and on random instances, and the vectors and move
    documents of ``thin`` with policy ``first``.  Canonical hashing decides
    which results are one node, so any inexact hash moves these counts."""
    rng = random.Random(4)
    outcomes = []
    for i in range(8):
        base = gen_complex(GenConfig(max_thick=1, max_genus=2, max_punctures=4,
                                     seed=4000 + i))
        for copies in (2, 3, 4):
            parts = [_relabel(base, rng.randrange(10**6)) for _ in range(copies)]
            outcomes.append(_graph_outcome(
                rewrite_graph(_union(parts, rng), enumerate_moves, max_nodes=20)))
    for i in range(12):
        cx = gen_complex(GenConfig(max_thick=3, seed=4100 + i))
        outcomes.append(_graph_outcome(rewrite_graph(cx, enumerate_moves, max_nodes=40)))
    for i in range(20):
        cx = gen_complex(GenConfig(max_thick=4, seed=4200 + i))
        _final, trace = thin(cx, enumerate_moves, policy="first")
        outcomes.append([[list(v) for v in trace.vectors()],
                         [s.move for s in trace.steps], trace.terminal])
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
    assert digest == SEARCH_GOLDEN_DIGEST


RECORD_GOLDEN_DIGEST = "f33cdc0a29532d40e53e85121635ed094bcd0ef4630a4c7ef013f6a6c1692eee"


def test_golden_record_bytes():
    """The bytes of ``emit_complex`` (keys in emitted order), ``canonical_form``
    and ``canonical_hash`` on seeded instances, relabellings and unions."""
    rng = random.Random(5)
    corpus = [gen_complex(GenConfig(max_thick=1 + i % 6), rng) for i in range(300)]
    corpus += [_relabel(cx, i) for i, cx in enumerate(corpus[:60])]
    corpus += [_union([corpus[i], _relabel(corpus[i + 1], i)], rng) for i in range(0, 40, 2)]
    digest = hashlib.sha256()
    for cx in corpus:
        digest.update(json.dumps(emit_complex(cx)).encode())
        digest.update(canonical_form(cx).encode())
        digest.update(canonical_hash(cx).encode())
    assert digest.hexdigest() == RECORD_GOLDEN_DIGEST


# ---------------------------------------------------------------------------
# Golden driver outcomes
# ---------------------------------------------------------------------------

DRIVER_GOLDEN_DIGEST = "6bb650c6642cf520c6f4e77d2eebfe3bcc15eb391b86b3dc7c489f110f878d8f"


def _small_sphere_part():
    """One genus-1 level whose upper body owns a twice-punctured boundary
    sphere, so that no level of its component may be destabilized."""
    return build_complex(thick=[thick("H", 1, 2, "u", "d")],
                         boundary=[bdy("S", 0, 2, "u")],
                         cbs=[cb("u", "H", minus=("S",), v=2), cb("d", "H", b=1)])


def test_golden_driver_outcomes():
    """What every driver of the candidate loop decides on a seeded corpus:
    the step documents and digests and the sorted rejection counts of
    ``thin`` under both policies; the edges in order, truncated nodes,
    completeness and sinks of ``rewrite_graph`` (budget 30), also on unions
    with a component that owns a small boundary sphere; the witnesses of
    ``is_reduced``; and the picks of ``gen_move`` with a seeded rng."""
    outcomes = []
    for i in range(16):
        cx = gen_complex(GenConfig(max_thick=4, seed=8000 + i))
        for policy in ("first", "greedy-max-drop"):
            _final, trace = thin(cx, enumerate_moves, policy=policy)
            outcomes.append([trace.start_digest, trace.terminal, trace.cap_reached,
                             [[s.digest, s.move] for s in trace.steps],
                             sorted([*key, n] for key, n in trace.diagnostics.items())])
    rng = random.Random(8)
    corpus = [gen_complex(GenConfig(max_thick=3, seed=8100 + i)) for i in range(8)]
    corpus += [_union([_small_sphere_part(), cx], rng) for cx in corpus[:4]]
    for cx in corpus:
        graph = rewrite_graph(cx, enumerate_moves, max_nodes=30)
        outcomes.append([graph.root, graph.edges, sorted(graph.truncated),
                         graph.complete, graph.sinks()])
    for i in range(40):
        cx = gen_complex(GenConfig(max_thick=3, seed=8200 + i))
        if i % 4 == 0:
            cx = _union([_small_sphere_part(), cx], rng)
        reduced, witness = is_reduced(cx, enumerate_moves)
        outcomes.append([reduced, None if witness is None else emit_move(witness)])
        move = gen_move(cx, rng)
        outcomes.append(None if move is None else emit_move(move))
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
    assert digest == DRIVER_GOLDEN_DIGEST


UNION_THIN_GOLDEN_DIGEST = "c6c6252f5941be267c94dd420c0d7f0d73ea77f4e29fa8f4663c7d9b9ca79cc8"


def _shuffled_unions():
    """Shuffled unions of 2 to 4 relabelled copies of six seeded bases,
    every other one beside a component that owns a small boundary sphere."""
    rng = random.Random(18)
    for i in range(6):
        base = gen_complex(GenConfig(max_thick=2, max_genus=2, max_punctures=4, seed=1800 + i))
        for copies in (2, 3, 4):
            parts = [_relabel(base, rng.randrange(10**6)) for _ in range(copies)]
            if (i + copies) % 2:
                parts.append(_small_sphere_part())
            yield _union(parts, rng)


def test_golden_thin_on_unions():
    """What ``thin`` does under both policies on shuffled unions of 2 to 4
    relabelled copies, every other one beside a component that owns a small
    boundary sphere: the start digest, each step's digest and move document,
    the sorted rejection counts and the bytes of the final complex."""
    outcomes = []
    kinds = Counter()
    for cx in _shuffled_unions():
        for policy in ("first", "greedy-max-drop"):
            final, trace = thin(cx, enumerate_moves, policy=policy)
            kinds.update(s.move["kind"] for s in trace.steps)
            outcomes.append([trace.start_digest, trace.terminal,
                             [[s.digest, s.move] for s in trace.steps],
                             sorted([*key, n] for key, n in trace.diagnostics.items()),
                             json.dumps(emit_complex(final))])
    assert len(kinds) >= 3
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
    assert digest == UNION_THIN_GOLDEN_DIGEST


def test_body_checks_of_thin_and_rewrite_graph_are_pinned(monkeypatch):
    """Work-count guard: the body checks (``_check_cb`` calls, wherever the
    gate or a validation makes them) of ``thin`` on 80 thin-random instances,
    and of ``rewrite_graph`` (budget 20) on the shuffled unions of
    ``test_golden_thin_on_unions``.  Every body check that a move's or a
    component's unchanged reads make needless is skipped; none is added.
    Deciding again at every step the offers rejected, before their results
    were built, on unchanged levels made 6,634 and 2,409.  Checking again,
    within one validation, a body whose tangle and surfaces an earlier body
    passed on made 4,184 and 2,290."""
    calls = 0
    real = model._check_cb

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(model, "_check_cb", counting)
    monkeypatch.setattr(moves, "_check_cb", counting, raising=False)
    for i in range(80):
        thin(gen_complex(GenConfig(max_thick=6, seed=100_000 + i)), enumerate_moves)
    assert calls == 4184

    calls = 0
    for cx in _shuffled_unions():
        rewrite_graph(cx, enumerate_moves, max_nodes=20)
    assert calls == 2289


def test_a_part_decides_each_routed_offer_as_a_fresh_copy_does():
    """Guard for decisions kept on a component: at every node of
    ``rewrite_graph`` (budget 20) on the shuffled unions of
    ``test_golden_thin_on_unions`` and on the four-copy union of
    ``test_rewrite_graph_reuses_accepted_results_across_nodes``, each offer
    routed to a part is applied twice to that part, as the run left it, and
    once to a fresh complex of the part's records.  All three give the same
    rule and message, or results with equal canonical hashes.  A part
    carried to a later node with an offer it was checked on there is not
    checked again: ``apply_move`` sees only the part and the offer."""
    def outcome(cx, move):
        try:
            return canonical_hash(apply_move(cx, move))
        except MoveRejected as err:
            return err.rule, str(err)

    routed = Counter()
    for cx in [*_shuffled_unions(), _four_copies()]:
        graph = rewrite_graph(cx, enumerate_moves, max_nodes=20)
        seen = set()
        for node in graph.nodes.values():
            parts = model.components(node)
            if len(parts) == 1:
                continue
            home = {name: k for k, part in enumerate(parts) for name in model._ids(part)}
            fresh = [model.Complex(part.thick, part.thin, part.boundary, part.cbs)
                     for part in parts]
            for move in enumerate_moves(node):
                k = moves._home(node, move, home)
                if k is None or (id(parts[k]), move) in seen:
                    continue
                seen.add((id(parts[k]), move))
                first, again = outcome(parts[k], move), outcome(parts[k], move)
                want = outcome(fresh[k], move)
                assert first == again == want, move
                routed[isinstance(want, str)] += 1
    assert routed[True] > 100 and routed[False] > 1000


def _cold(cx):
    """A complex of ``cx``'s records parsed anew: it shares no record, and
    so no kept decision, with ``cx``."""
    return parse_complex(emit_complex(cx))


def _cold_thin(cx, policy):
    """``thin`` taken one step at a time, each step on a cold copy of the
    complex before it: its steps, summed diagnostics and final document.
    A one-step run also counts the next step's rejections up to its move,
    which the next step's own run counts again, so they are taken off."""
    steps, diagnostics = [], Counter()
    while True:
        cx, trace = thin(_cold(cx), enumerate_moves, policy, cap=1)
        steps += [(s.digest, s.move, s.vector) for s in trace.steps]
        diagnostics += trace.diagnostics
        if trace.terminal:
            return steps, diagnostics, emit_complex(cx)
        diagnostics -= thin(_cold(cx), enumerate_moves, policy, cap=0)[1].diagnostics


def test_a_cold_replay_of_thin_matches_one_warm_run(bench_chain):
    """Guard for every decision ``thin`` keeps between its steps: run one
    step at a time, each on a complex parsed anew, it takes the same steps
    (digest, move document, vector), counts the same rejections and ends on
    the same document as one warm run, on the seeded corpus, a 25-level
    chain, the shuffled unions of ``test_golden_thin_on_unions`` under both
    policies and the four-copy union."""
    runs = [(gen_complex(GenConfig(max_thick=6, seed=seed)), "first") for seed in range(12)]
    runs.append((parse_complex(bench_chain(25, random.Random(1))), "first"))
    runs += [(cx, policy) for cx in [*_shuffled_unions(), _four_copies()]
             for policy in ("first", "greedy-max-drop")]
    stepped = 0
    for cx, policy in runs:
        final, trace = thin(cx, enumerate_moves, policy)
        warm = ([(s.digest, s.move, s.vector) for s in trace.steps], trace.diagnostics,
                emit_complex(final))
        assert _cold_thin(cx, policy) == warm
        stepped += len(trace.steps)
    assert stepped > 300


def test_a_cold_replay_of_rewrite_graph_matches_one_warm_run():
    """Guard for every decision ``rewrite_graph`` keeps between its nodes:
    each node of a warm run (budget 20) on the shuffled unions of
    ``test_golden_thin_on_unions`` and the four-copy union, expanded alone
    as a complex parsed anew, gives the same edges to the graph's nodes, in
    the same order, and has a result outside them exactly when the warm run
    truncated it; the rejections summed over the nodes are the warm run's."""
    for cx in [*_shuffled_unions(), _four_copies()]:
        graph = rewrite_graph(cx, enumerate_moves, max_nodes=20)
        edges, diagnostics = [], Counter()
        for digest, node in graph.nodes.items():
            cold = _cold(node)
            seen, outside = set(), False
            for move, parts, _vec in moves.applicable(cold, enumerate_moves(cold), diagnostics):
                dst = canonical_hash(model.joined(parts))
                edge = (digest, json.dumps(emit_move(move), sort_keys=True), dst)
                outside |= dst not in graph.nodes
                if dst in graph.nodes and edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
            assert outside == (digest in graph.truncated)
        assert edges == [(a, json.dumps(doc, sort_keys=True), b) for a, doc, b in graph.edges]
        assert diagnostics == graph.diagnostics


def _rule(apply, cx, move):
    """The rule that ``apply`` rejects ``move`` on ``cx`` under, or None."""
    try:
        apply(cx, move)
    except MoveRejected as err:
        return err.rule
    return None


def _reads_only_its_hood(cx, move, rule):
    """Whether a rejection of ``move`` under ``rule`` reads nothing of
    ``cx`` beyond its level's hood, when it was raised before the result
    was built: not a consolidation, which reads the far body across its thin
    level, nor ``untelescope.fresh_ids`` or ``elementary.*``, which read
    every id, and for an untelescope only where those pass on ``cx``."""
    if type(move) is Consolidate or rule == "untelescope.fresh_ids" or rule.startswith("elementary."):
        return False
    return type(move) is not Untelescope or (
        find_product_on_thin(cx) is None
        and model._ids(cx).isdisjoint(moves._outcome_ids(move.outcome)))


def test_a_rejection_is_decided_alike_wherever_its_hood_is_equal(monkeypatch, bench_chain):
    """Guard for verdicts kept per thick level.  At every step of ``thin`` on
    the seeded corpus of ``test_golden_decisions_on_seeded_corpus``, the
    shuffled unions of ``test_golden_thin_on_unions``,
    ``GenConfig(max_thick=48, seed=0)`` and ``chain(100)``, each offer
    rejected at an earlier step before its result was built (no
    ``moves._build`` ran), under a rule that reads only its level's hood, and
    offered again where ``moves._hood`` of its level equals the hood it was
    rejected on, is decided again by its kind's apply function on a fresh
    complex of the same maps: it gets the same rule, and so does
    ``apply_move``."""
    kinds = {kind: apply for kind, (_name, apply) in moves._KINDS.items()}
    kept, fresh, built = {}, {}, []
    checked = Counter()
    real_build, real_apply = moves._build, moves.apply_move

    def building(maps):
        built.append(maps)
        return real_build(maps)

    def deciding(apply):
        def decide(cx, move):
            built.clear()
            try:
                return apply(cx, move)
            except MoveRejected as err:
                if not built and _reads_only_its_hood(cx, move, err.rule):
                    kept[move] = moves._hood(cx, move.thick), err.rule
                raise
        return decide

    def applying(cx, move):
        found = kept.get(move) if type(move) in kinds else None
        if found is None or found[0] != moves._hood(cx, move.thick) \
                or not _reads_only_its_hood(cx, move, found[1]):
            return real_apply(cx, move)
        copy = fresh.setdefault(id(cx), (cx, model.Complex(cx.thick, cx.thin, cx.boundary, cx.cbs)))[1]
        assert _rule(kinds[type(move)], copy, move) == found[1], move
        assert _rule(real_apply, cx, move) == found[1], move
        checked[type(move).__name__] += 1
        return real_apply(cx, move)

    monkeypatch.setattr(moves, "_build", building)
    monkeypatch.setattr(moves, "apply_move", applying)
    for kind, (name, apply) in list(moves._KINDS.items()):
        monkeypatch.setitem(moves._KINDS, kind, (name, deciding(apply)))
    rng = random.Random(7)
    corpus = [gen_complex(GenConfig(max_thick=4, seed=7), rng) for _ in range(200)]
    corpus += [*_shuffled_unions(), gen_complex(GenConfig(max_thick=48, seed=0)),
               parse_complex(bench_chain(100, random.Random(1)))]
    for cx in corpus:
        kept.clear()
        fresh.clear()
        thin(cx, enumerate_moves)
    assert checked["Destabilize"] > 15_000 and checked["Untelescope"] > 10_000
    assert checked["UndoRemovable"] > 4_000


def _port_pair():
    """One genus-2 level whose lower body has a boundary port of genus 2,
    then of genus 1: destabilizing it is rejected on the first only."""
    return [build_complex(thick=[thick("H", 2, 0, "u", "d")], boundary=[bdy("B", genus, 0, "d")],
                          cbs=[cb("u", "H"), cb("d", "H", minus=("B",))])
            for genus in (2, 1)]


def _sphere_pair():
    """Two genus-1 levels joined by a thin sphere, the second's lower body
    owning an unpunctured boundary sphere, then a boundary torus: the first
    level may be destabilized on the second only."""
    return [build_complex(thick=[thick("H", 1, 0, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
                          thin=[thin_level("F", 0, 0, from_cb="Hu", to_cb="Jd")],
                          boundary=[bdy("S", genus, 0, "Jd")],
                          cbs=[cb("Hu", "H", minus=("F",)), cb("Hd", "H"),
                               cb("Ju", "J"), cb("Jd", "J", minus=("F", "S"))])
            for genus in (0, 1)]


@pytest.mark.parametrize("pair", [_port_pair, _sphere_pair], ids=["minus-port", "sphere"])
def test_a_level_whose_reads_differ_has_another_hood(pair):
    """Two valid complexes that differ only in the surface of a minus port
    of a level's body, or in a small boundary sphere elsewhere in the
    level's component, which the corpus of the guard above never tells
    apart: the level's hoods differ, and each offer rejected on the first
    and then offered, as the same object, on the second gets the decision
    a copy of it gets there."""
    first, second = pair()
    assert validate(first).ok and validate(second).ok
    assert moves._hood(first, "H") != moves._hood(second, "H")
    differ = 0
    for move in enumerate_moves(first) + enumerate_moves(second):
        if move.thick != "H":
            continue
        rule = _rule(apply_move, first, move)
        want = _rule(apply_move, second, dataclasses.replace(move))
        assert _rule(apply_move, second, move) == want, move
        differ += rule is not None and rule != want
    assert differ


def test_thin_on_a_connected_complex_routes_no_offer(monkeypatch):
    """On a complex of one component the candidate loop applies every offer
    whole: ``thin`` reads no ``named_ids``.  On a union it does."""
    calls = Counter()
    real = moves.named_ids

    def counting(cx, move):
        calls[len(model.components(cx)) > 1] += 1
        return real(cx, move)

    monkeypatch.setattr(moves, "named_ids", counting)
    for i in range(6):
        cx = gen_complex(GenConfig(max_thick=3, seed=1850 + i))
        if len(model.components(cx)) == 1:
            for policy in ("first", "greedy-max-drop"):
                _final, trace = thin(cx, enumerate_moves, policy=policy)
                assert trace.steps
    assert calls == {}
    thin(_union([_small_sphere_part(), gen_complex(GenConfig(max_thick=2, seed=1856))],
                random.Random(1)), enumerate_moves)
    assert calls[True] > 0 and not calls[False]


def test_thin_takes_each_vector_from_the_candidate_loop(monkeypatch):
    """``thin`` computes no ``complexity`` of a result it took from the
    candidate loop, under either policy: each step's vector, and the least
    one of the greedy policy, is the loop's."""
    taken, asked = {}, []  # taken keeps each result alive, so its id stays its own
    real_loop, real_complexity = search.applicable, search.complexity

    def loop(cx, offers, rejected):
        for move, result, vec in real_loop(cx, offers, rejected):
            taken[id(result)] = result
            yield move, result, vec

    def counting(cx):
        asked.append(cx)
        return real_complexity(cx)

    monkeypatch.setattr(search, "applicable", loop)
    monkeypatch.setattr(search, "complexity", counting)
    rng = random.Random(19)
    base = gen_complex(GenConfig(max_thick=2, max_genus=2, max_punctures=4, seed=1802))
    corpus = [_union([_relabel(base, 1), _relabel(base, 2), _small_sphere_part()], rng)]
    corpus += [gen_complex(GenConfig(max_thick=4, seed=1860 + i)) for i in range(4)]
    for cx in corpus:
        for policy in ("first", "greedy-max-drop"):
            asked.clear()
            _final, trace = thin(cx, enumerate_moves, policy=policy)
            assert trace.steps and asked[0] is cx
            assert not any(id(c) in taken for c in asked)
    assert taken


def test_rewrite_graph_skips_offers_that_are_not_moves(one_bridge_sphere):
    """A proposer may offer anything; an offer that is not a move is
    rejected like an invalid certificate, not looked up."""
    graph = rewrite_graph(one_bridge_sphere, lambda cx: [object()])
    assert len(graph.nodes) == 1 and graph.complete
    assert graph.edges == [] and graph.sinks() == [graph.root]


def _forced_unions():
    """Seeded shuffled unions of 2 to 4 parts, the first a relabelled copy
    of a connected instance with a certified product on a thin level, so
    that ``thin``'s first step is a forced consolidation."""
    rng = random.Random(24)
    bases = [gen_complex(GenConfig(max_thick=3, seed=seed)) for seed in (13, 19, 38, 42)]
    others = [gen_complex(GenConfig(max_thick=2, seed=2400 + i)) for i in range(6)]
    unions = []
    for base in bases:
        assert len(model.components(base)) == 1 and find_product_on_thin(base) is not None
        for copies in (2, 3, 4):
            parts = [_relabel(base, rng.randrange(10**6))]
            parts += [_relabel(rng.choice(others), rng.randrange(10**6)) for _ in range(copies - 1)]
            unions.append(_union(parts, rng))
    return unions


def test_a_forced_consolidation_keeps_the_untouched_parts(monkeypatch):
    """A forced consolidation on a union goes through the candidate loop:
    the parts it leaves untouched are carried into the result as the same
    objects, keeping their forms, so hashing the result canonizes only the
    parts of the changed one."""
    canonized = []
    form = search._component_form

    def counted(records):
        canonized.append(records)
        return form(records)

    for cx in _forced_unions():
        canonical_hash(cx)
        monkeypatch.setattr(search, "_component_form", counted)
        canonized.clear()
        after, trace = thin(cx, enumerate_moves, cap=1)
        monkeypatch.undo()
        assert trace.steps[0].move["kind"] == "consolidate"
        before, parts = model.components(cx), model.components(after)
        new = [part for part in parts if not any(part is old for old in before)]
        assert len(parts) - len(new) == len(before) - 1 and new
        assert len(canonized) == len(new)
        assert [_records(part) for part in new] == canonized


def test_a_rejected_forced_consolidation_raises_from_thin(monkeypatch):
    """A forced consolidation that the gate rejects is not skipped: ``thin``
    raises its rejection, under its rule, on a connected complex and on a
    union."""
    def refuse(cx, move):
        raise MoveRejected("consolidate.refused", "refused")

    monkeypatch.setitem(moves._KINDS, Consolidate, ("consolidate", refuse))
    corpus = [gen_complex(GenConfig(max_thick=3, seed=13)), _forced_unions()[0]]
    for cx in corpus:
        for policy in ("first", "greedy-max-drop"):
            with pytest.raises(MoveRejected) as err:
                thin(cx, enumerate_moves, policy=policy)
            assert err.value.rule == "consolidate.refused"


def _thin_corpus():
    """Connected instances, some with forced consolidations, and unions."""
    corpus = [gen_complex(GenConfig(max_thick=3, seed=seed)) for seed in (13, 19, 1860, 1861)]
    return corpus + _forced_unions()[::4]


def test_thin_reads_each_step_in_one_pass_of_the_loop(monkeypatch):
    """``thin`` calls the candidate loop once per step, plus once for the
    step that finds no move or meets the cap, under either policy."""
    calls = []
    real = search.applicable

    def loop(cx, offers, rejected):
        calls.append(cx)
        return real(cx, offers, rejected)

    monkeypatch.setattr(search, "applicable", loop)
    for cx in _thin_corpus():
        for policy in ("first", "greedy-max-drop"):
            for cap in (1_000_000, 1):
                calls.clear()
                _final, trace = thin(cx, enumerate_moves, policy=policy, cap=cap)
                assert trace.steps and trace.terminal == (cap > 1)
                assert len(calls) == len(trace.steps) + 1


def test_thin_never_rebuilds_the_vector_list(monkeypatch):
    """Each step is checked against the vector of the step before, not
    against a list of every vector rebuilt per step."""
    calls = Counter()
    real = search.ThinningTrace.vectors

    def counting(self):
        calls["vectors"] += 1
        return real(self)

    monkeypatch.setattr(search.ThinningTrace, "vectors", counting)
    for cx in _thin_corpus():
        for policy in ("first", "greedy-max-drop"):
            _final, trace = thin(cx, enumerate_moves, policy=policy)
            assert len(trace.steps) > 1
    assert calls["vectors"] == 0


@pytest.mark.parametrize("dangling", ["minus-port", "lower-body"])
def test_canonical_form_raises_validation_error_on_a_dangling_reference(dangling):
    """A record naming an id the complex does not hold raises the complex's
    report, as ``analyze`` does, not a bare KeyError."""
    if dangling == "minus-port":
        cx = build_complex(thick=[thick("H", 0, 2, "u", "d")],
                           cbs=[cb("u", "H", minus=("X",), b=1), cb("d", "H", b=1)])
    else:
        cx = build_complex(thick=[thick("H", 0, 2, "u", "zz")],
                           cbs=[cb("u", "H", b=1), cb("d", "H", b=1)])
    for canon in (canonical_form, canonical_hash):
        with pytest.raises(model.ValidationError) as err:
            canon(cx)
        assert err.value.report == validate(cx)
        assert "dangling_reference" in err.value.report.codes()
