import copy
import graphlib
import json
import pickle
import random
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from widthcalc.model import (
    BoundaryLevel,
    Complex,
    CompressionBody,
    SchemaError,
    Surface,
    Tangle,
    ThickLevel,
    ThinLevel,
    ValidationError,
    body_index,
    build_complex,
    emit_complex,
    euler_char,
    parse_complex,
    thick_digraph,
    topological_order,
    validate,
)
from widthcalc import model, moves
from widthcalc.complexity import complexity
from widthcalc.gen import GenConfig, gen_complex
from conftest import bdy, cb, sphere_chain, thick, thin, unchecked


def test_euler_char_values():
    assert euler_char(Surface(0, 0)) == 2
    assert euler_char(Surface(1, 5)) == 0
    assert euler_char(Surface(3, 2)) == -4


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_one_bridge_sphere_is_valid(one_bridge_sphere):
    assert validate(one_bridge_sphere).ok


def test_two_cycle_flow_is_rejected():
    cx = build_complex(
        thick=[thick("H", 2, 0, "Hu", "Hd"), thick("J", 2, 0, "Ju", "Jd")],
        thin=[thin("F1", 1, 0, from_cb="Hu", to_cb="Jd"),
              thin("F2", 1, 0, from_cb="Ju", to_cb="Hd")],
        cbs=[cb("Hu", "H", minus=("F1",)), cb("Hd", "H", minus=("F2",)),
             cb("Ju", "J", minus=("F2",)), cb("Jd", "J", minus=("F1",))],
    )
    report = validate(cx)
    assert "closed_flow_line" in report.codes()
    assert "closed flow line" in str(report)


def test_puncture_conservation_up():
    # verticals=1, bridges=1 against 2 punctures on top: needs 1 + 2*1 = 3
    cx = build_complex(
        thick=[thick("H", 0, 2, "u", "d")],
        cbs=[cb("u", "H", v=1, b=1), cb("d", "H", b=1)],
    )
    assert "conservation_up" in validate(cx).codes()


def test_puncture_conservation_down():
    cx = build_complex(
        thick=[thick("H", 0, 2, "u", "d")],
        boundary=[bdy("B", 0, 4, "u")],
        cbs=[cb("u", "H", minus=("B",), v=2, gh=0), cb("d", "H", b=1)],
    )
    assert "conservation_down" in validate(cx).codes()


def test_once_punctured_sphere_levels_rejected():
    cx = build_complex(
        thick=[thick("H", 0, 1, "u", "d")],
        boundary=[bdy("B", 0, 1, "u")],
        cbs=[cb("u", "H", minus=("B",), v=1), cb("d", "H", v=1)],
    )
    codes = validate(cx).codes()
    assert "boundary_once_punctured_sphere" in codes
    # down body breaks conservation (v=1 with no minus levels) and is reported
    assert "conservation_down" in codes


def test_drilled_vertex_needs_three_punctures():
    good = build_complex(
        thick=[thick("H", 0, 4, "u", "d")],
        boundary=[bdy("B", 0, 4, "u", drilled=True), bdy("C", 0, 4, "d", drilled=True)],
        cbs=[cb("u", "H", minus=("B",), v=4), cb("d", "H", minus=("C",), v=4)],
    )
    assert validate(good).ok
    bad = build_complex(
        thick=[thick("H", 0, 2, "u", "d")],
        boundary=[bdy("B", 0, 2, "u", drilled=True), bdy("C", 0, 2, "d", drilled=True)],
        cbs=[cb("u", "H", minus=("B",), v=2), cb("d", "H", minus=("C",), v=2)],
    )
    assert "drilled_vertex_profile" in validate(bad).codes()


def test_ball_certificate_conditions():
    bad = build_complex(
        thick=[thick("H", 1, 0, "u", "d")],
        cbs=[cb("u", "H", ball=True), cb("d", "H")],
    )
    assert "ball_certificate" in validate(bad).codes()
    conflict = build_complex(
        thick=[thick("H", 0, 0, "u", "d")],
        cbs=[cb("u", "H", ball=True, product=True), cb("d", "H")],
    )
    assert "certificate_conflict" in validate(conflict).codes()


def test_product_certificate_conditions(chain_two):
    # certify Hu, which really is a product profile: sphere over sphere
    cx = replace(chain_two, cbs={**chain_two.cbs, "Hu": cb("Hu", "H", minus=("F",), product=True)})
    assert validate(cx).ok
    # but not with a bridge arc in it
    cx = replace(cx, cbs={**cx.cbs, "Hu": cb("Hu", "H", minus=("F",), b=1, product=True)})
    report = validate(cx)
    assert "product_certificate" in report.codes()


def test_complex_maps_are_read_only(chain_two):
    with pytest.raises(TypeError):
        chain_two.cbs["Hu"] = cb("Hu", "H", minus=("F",), product=True)
    # the maps are copies: changing what the complex was built from leaves it alone
    bodies = dict(chain_two.cbs)
    cx = replace(chain_two, cbs=bodies)
    del bodies["Hu"]
    assert "Hu" in cx.cbs and validate(cx).ok
    assert pickle.loads(pickle.dumps(cx)) == cx


def test_ghost_arcs_need_genus_or_extra_levels():
    # two ghost arcs onto a single 4-punctured boundary sphere force genus 2
    cx = build_complex(
        thick=[thick("H", 0, 0, "u", "d")],
        boundary=[bdy("B", 0, 4, "u")],
        cbs=[cb("u", "H", minus=("B",), gh=2), cb("d", "H")],
    )
    assert "handle_feasibility" in validate(cx).codes()
    ok = build_complex(
        thick=[thick("H", 2, 0, "u", "d")],
        boundary=[bdy("B", 0, 4, "u")],
        cbs=[cb("u", "H", minus=("B",), gh=2), cb("d", "H")],
    )
    assert validate(ok).ok


def test_core_loops_need_genus():
    bad = build_complex(
        thick=[thick("H", 0, 0, "u", "d")],
        cbs=[cb("u", "H", loops=1), cb("d", "H")],
    )
    assert "handle_feasibility" in validate(bad).codes()
    solid_torus = build_complex(
        thick=[thick("H", 1, 0, "u", "d")],
        cbs=[cb("u", "H", loops=1), cb("d", "H")],
    )
    assert validate(solid_torus).ok


def test_empty_complex_rejected():
    assert "empty_complex" in validate(Complex()).codes()


def test_records_of_different_kinds_may_not_share_an_id():
    """A thick level and a body both named ``u`` read valid in every other
    check; the shared id is a violation naming it, once per shared id."""
    cx = Complex(thick={"u": thick("u", 0, 2, "u", "d")},
                 cbs={"u": cb("u", "u", b=1), "d": cb("d", "u", b=1)})
    report = validate(cx)
    assert report.violations == (
        model.Violation("shared_id", "u", "records of different kinds share this id"),)
    with pytest.raises(ValidationError):
        moves.apply_move(cx, moves.UndoRemovable("u"))
    apart = Complex(thick={"H": thick("H", 0, 2, "u", "d")},
                    cbs={"u": cb("u", "H", b=1), "d": cb("d", "H", b=1)})
    assert validate(apart).ok
    both = Complex(thick={"u": thick("u", 0, 2, "u", "d")}, thin={"d": thin("d", 0, 0, "u", "d")},
                   cbs={"u": cb("u", "u", b=1), "d": cb("d", "u", b=1)})
    assert [v.subject for v in validate(both).violations if v.code == "shared_id"] == ["d", "u"]


def test_validate_is_idempotent(one_bridge_sphere):
    assert validate(one_bridge_sphere) == validate(one_bridge_sphere)


def _perturbed(cx, rng):
    """``cx`` with one record replaced by a changed copy, or by an equal but
    distinct copy, or deleted; every other record is the same object."""
    maps = {name: dict(getattr(cx, name)) for name in ("thick", "thin", "boundary", "cbs")}
    name = rng.choice([n for n in maps if maps[n]])
    key = rng.choice(sorted(maps[name]))
    rec = maps[name][key]
    how = rng.randrange(4)
    if how == 0:
        del maps[name][key]
    elif how == 1:
        maps[name][key] = replace(rec)
    elif name == "cbs":
        if how == 2:
            maps[name][key] = replace(rec, tangle=replace(rec.tangle, verticals=rec.tangle.verticals + 2))
        else:
            maps[name][key] = replace(rec, minus=rec.minus[1:])
    else:
        s = rec.surface
        bumped = Surface(s.genus + rng.choice((-1, 1)), s.punctures) if how == 2 \
            else Surface(s.genus, s.punctures + rng.choice((-2, -1, 2)))
        maps[name][key] = replace(rec, surface=bumped)
    return Complex(**maps)


def test_validation_against_a_base_equals_a_full_validation():
    """Whatever one record changes, validating a complex after the one it
    came from, so that the bodies they share keep the checks they passed
    there, gives the full validation: report, indices, digraph and order.
    Bases are valid or invalid; a level whose surface changed must re-check
    the bodies whose plus level or minus port it is, even when their records
    stay."""
    rng = random.Random(13)
    outcomes = {True: 0, False: 0}
    for seed in range(80):
        cx = gen_complex(GenConfig(max_thick=4, seed=seed))
        for trial in range(12):
            base = _perturbed(cx, rng) if trial % 4 == 0 else cx
            out = _perturbed(base, rng)
            model.validation(base)
            got = model.validation(out)
            assert got == model._validation(unchecked(out))
            outcomes[got.report.ok] += 1
    assert outcomes[True] > 150 and outcomes[False] > 500


def _checks_by_body(monkeypatch, cx) -> list[str]:
    """The ids of the bodies whose own checks run when ``cx`` is validated."""
    seen = []
    real = model._check_cb

    def recording(cb, *args):
        seen.append(cb.id)
        return real(cb, *args)

    monkeypatch.setattr(model, "_check_cb", recording)
    model.validation(cx)
    monkeypatch.setattr(model, "_check_cb", real)
    return seen


def test_a_body_is_rechecked_only_when_what_it_reads_changed(chain_two, monkeypatch):
    """A level re-pointed at other bodies keeps its surface object, so the
    bodies reading it are not checked again; a level given an equal but
    distinct surface is a new input, and they are.  Either way the kept
    validation equals a full one."""
    base = chain_two
    assert validate(base).ok
    f = base.thin["F"]
    repointed = replace(base, thin={"F": replace(f, from_cb=f.from_cb)})
    assert _checks_by_body(monkeypatch, repointed) == []
    assert model.validation(repointed) == model._validation(unchecked(repointed))

    resurfaced = replace(base, thin={"F": replace(f, surface=Surface(0, 0))})
    assert resurfaced.thin["F"].surface == f.surface
    assert _checks_by_body(monkeypatch, resurfaced) == ["Hu", "Jd"]
    assert model.validation(resurfaced) == model._validation(unchecked(resurfaced))

    # no complex records the complex it came from
    assert "_derived" not in repointed.__dict__ and "_derived" not in resurfaced.__dict__


def test_a_body_keeps_the_last_check_it_passed(chain_two, monkeypatch):
    """A body keeps the surfaces its last passed check read and its index,
    off its fields: value, hash and repr do not change.  A record rebuilt
    with ``replace`` keeps nothing.  Another complex reuses the index only
    where the body reads the very same surface objects: an equal but
    distinct surface is checked again.  A pickled complex carries its
    bodies' entries with the surfaces they read."""
    cx = chain_two
    hu = cx.cbs["Hu"]
    seen = (hu == replace(hu), hash(hu), repr(hu))
    assert hu._passed is None
    assert _checks_by_body(monkeypatch, cx) == ["Hu", "Hd", "Ju", "Jd"]
    reads, index = hu._passed
    assert index == model.validation(cx).body["Hu"]
    assert reads[0] is cx.thick["H"].surface and reads[1][0] is cx.thin["F"].surface
    assert (hu == replace(hu), hash(hu), repr(hu)) == seen
    assert "_passed" not in {f.name for f in fields(hu)}

    rebuilt = replace(hu, tangle=Tangle(*hu.tangle.counts()))
    assert rebuilt == hu and rebuilt._passed is None

    h = cx.thick["H"]
    same = replace(cx, thick={**cx.thick, "H": replace(h, upper_cb=h.upper_cb)})
    assert _checks_by_body(monkeypatch, same) == []
    equal = replace(cx, thick={**cx.thick, "H": replace(h, surface=Surface(0, 0))})
    assert equal.thick["H"].surface == h.surface
    assert _checks_by_body(monkeypatch, equal) == ["Hu", "Hd"]

    copied = pickle.loads(pickle.dumps(equal))
    assert _checks_by_body(monkeypatch, copied) == []
    assert model.validation(copied) == model._validation(unchecked(copied)) == model.validation(equal)


def test_validation_takes_only_the_complex():
    """``validate`` and ``validation`` take no hints: body indices handed in
    by a caller cannot hide a broken body, whatever was called before."""
    cx = build_complex([thick("H", 0, 2, "u", "d")], [], [],
                       [cb("u", "H", b=2), cb("d", "H", b=1, ball=True)])
    for call in (validate, model.validation):
        for hint in ({"base": cx}, {"checked": {"u": 4}}):
            with pytest.raises(TypeError):
                call(cx, **hint)
    assert "conservation_up" in validate(cx).codes()
    with pytest.raises(ValidationError, match="conservation_up"):
        model.require_valid(cx)
    with pytest.raises(ValidationError, match="conservation_up"):
        complexity(cx)
    assert "conservation_up" in validate(cx).codes()


def test_a_repeated_minus_port_is_reported_on_the_body():
    cx = build_complex([thick("H", 0, 0, "u", "d")], [], [bdy("S", 0, 0, "u")],
                       [CompressionBody("u", "H", ("S", "S")), cb("d", "H")])
    violations = [v for v in validate(cx).violations if v.subject == "u"]
    assert [str(v) for v in violations] == ["[port_multiplicity] u: repeated minus port"]
    assert _stopping_check(cx, cx.cbs["u"]) is None


def _unshared(cx: Complex) -> Complex:
    """``cx`` with every record built anew around its own fresh ``Surface``
    or ``Tangle``: no two records share a value object and no body keeps a
    check, so validating it checks every body in full."""
    def level(rec):
        return replace(rec, surface=Surface(rec.surface.genus, rec.surface.punctures))

    return Complex(thick={k: level(t) for k, t in cx.thick.items()},
                   thin={k: level(t) for k, t in cx.thin.items()},
                   boundary={k: level(b) for k, b in cx.boundary.items()},
                   cbs={k: replace(b, tangle=Tangle(*b.tangle.counts())) for k, b in cx.cbs.items()})


def _validates_as_unshared(doc: dict) -> model.Validation:
    """Validate ``doc`` as parsed, where records share one value object per
    distinct surface and tangle, and assert that an unshared copy gives the
    same report text, violations, body indices, flow digraph and order."""
    cx = parse_complex(doc)
    got, want = model._validation(cx), model._validation(_unshared(cx))
    assert str(got.report) == str(want.report)
    assert got == want
    return want


def _sharing_two_ports(copies: int) -> dict:
    """``copies`` one-level spheres, each of whose two bodies has two
    unpunctured boundary spheres as its ports: every body reads one plus
    surface, two equal minus surfaces and one tangle, and indexes 12."""
    sphere = {"genus": 0, "punctures": 0}
    doc = {"thick": [], "thin": [], "boundary": [], "cbs": []}
    for i in range(copies):
        doc["thick"].append({"id": f"H{i}", "surface": sphere, "upper_cb": f"u{i}", "lower_cb": f"d{i}"})
        for side in "ud":
            body = f"{side}{i}"
            ports = [f"{body}a", f"{body}b"]
            doc["boundary"] += [{"id": port, "surface": sphere, "owner": body, "is_drilled_vertex": False}
                                for port in ports]
            doc["cbs"].append({"id": body, "plus": f"H{i}", "minus": ports,
                               "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0},
                               "product_certificate": False, "ball_certificate": False})
    return doc


def _profile_group(doc: dict) -> list[int]:
    """The positions in ``doc["cbs"]`` of the largest group of bodies that
    read equal values: plus surface, minus surfaces in port order, tangle
    and certificates."""
    surfaces = {rec["id"]: rec["surface"] for key in ("thick", "thin", "boundary") for rec in doc[key]}
    groups: dict[str, list[int]] = {}
    for i, body in enumerate(doc["cbs"]):
        reads = [surfaces[body["plus"]], [surfaces[p] for p in sorted(body["minus"])], body["tangle"],
                 body["product_certificate"], body["ball_certificate"]]
        groups.setdefault(json.dumps(reads, sort_keys=True), []).append(i)
    return max(groups.values(), key=len)


def _repeat_port(body):
    body["minus"] = [body["minus"][0]] * 2


def _dangle_port(body):
    # sorts after every port id of the two documents, so that bodies of one
    # profile read their surfaces in the same places
    body["minus"] = [*body["minus"], "zz"]


def _claim_product(body):
    body["product_certificate"] = True


def _claim_ball(body):
    body["ball_certificate"] = True


def _claim_both(body):
    body["product_certificate"] = body["ball_certificate"] = True


def _negative_count(body):
    body["tangle"] = {**body["tangle"], "v": -1}


BODY_DEFECTS = {
    "repeated_port": (_repeat_port, "port_multiplicity"),
    "dangling_port": (_dangle_port, "dangling_reference"),
    "product": (_claim_product, "product_certificate"),
    "ball": (_claim_ball, "ball_certificate"),
    "both_certificates": (_claim_both, "certificate_conflict"),
    "negative_count": (_negative_count, "tangle_negative"),
}


def test_shared_values_validate_as_an_unshared_copy(bench_chain):
    """Guard for what a validation may reuse between bodies: a parsed
    document, whose records share one object per distinct surface and
    tangle value, validates exactly as a copy in which every record has
    fresh ones.  Covers long chains, wide random DAGs and the seeded corpus
    of ``test_golden_decisions_on_seeded_corpus``."""
    for n in (100, 250, 500, 800):
        assert _validates_as_unshared(bench_chain(n, random.Random(n))).report.ok
    for seed in range(3):
        _validates_as_unshared(emit_complex(gen_complex(GenConfig(max_thick=300, seed=seed))))
    rng = random.Random(7)
    cfg = GenConfig(max_thick=4, seed=7)
    for _ in range(200):
        _validates_as_unshared(emit_complex(gen_complex(cfg, rng)))


def test_a_validation_checks_each_distinct_body_profile_once(bench_chain, monkeypatch):
    """Work-count guard: validating a parsed 800-level chain checks each
    distinct (tangle, plus surface, minus surfaces, certificates) once;
    checking every body made 1,600 checks.  A body answered by an earlier
    one keeps no check of its own."""
    cx = parse_complex(bench_chain(800, random.Random(1)))
    checked = _checks_by_body(monkeypatch, cx)
    assert len(checked) == 22
    assert {key for key, b in cx.cbs.items() if b._passed is not None} == set(checked)
    assert model.validation(cx) == model._validation(_unshared(cx))


@pytest.mark.parametrize("defect", sorted(BODY_DEFECTS))
@pytest.mark.parametrize("base", ["two_ports", "chain"])
def test_a_body_sharing_a_profile_is_checked_in_full_when_it_fails(bench_chain, base, defect):
    """In a document whose bodies share one profile, the two bodies given a
    defect each get their own violation and no index, while the body
    before them, with the same profile, passes; as in an unshared copy.
    On ``two_ports`` a repeated port reads the very surfaces its passing
    neighbours read, so only the port ids tell it apart."""
    doc = _sharing_two_ports(4) if base == "two_ports" else bench_chain(60, random.Random(3))
    assert _validates_as_unshared(doc).report.ok
    first, *rest = _profile_group(doc)
    assert len(rest) >= 2
    spoil, code = BODY_DEFECTS[defect]
    bad = copy.deepcopy(doc)
    spoiled = [bad["cbs"][i]["id"] for i in rest[:2]]
    for i in rest[:2]:
        spoil(bad["cbs"][i])
    got = _validates_as_unshared(bad)
    assert {v.subject for v in got.report.violations if v.code == code} >= set(spoiled)
    assert doc["cbs"][first]["id"] in got.body and not set(spoiled) & got.body.keys()


@pytest.mark.parametrize("n", [2, 2000])
def test_closed_flow_line_names_the_cycle(n):
    # 2000 levels is past the default recursion limit
    report = validate(sphere_chain(n, closed=True))
    assert report.codes() == {"closed_flow_line"}
    (violation,) = report.violations
    cycle = [f"L{i:04d}" for i in range(n)]
    assert violation.subject == "->".join(cycle + cycle[:1])


def _graphlib_order(edges):
    """Reference: graphlib's static order, with the nodes entered in sorted
    order and each node's out-edges in the order given."""
    sorter = graphlib.TopologicalSorter()
    for src in sorted(edges):
        sorter.add(src)
    for src in sorted(edges):
        for dst in edges[src]:
            sorter.add(dst, src)
    try:
        return tuple(sorter.static_order()), None
    except graphlib.CycleError as err:
        return (), err.args[1]


def test_topological_order_matches_graphlib():
    """Same order on acyclic multi-digraphs, same cycle on cyclic ones,
    including self-loops, repeated edges and targets that are not keys."""
    rng = random.Random(11)
    cyclic = 0
    for trial in range(4000):
        nodes = [f"v{rng.randrange(100):02d}" for _ in range(rng.randint(0, 10))]
        rank = {v: rng.random() for v in nodes}
        edges = {v: [] for v in nodes}
        for _ in range(rng.randint(0, 3 * len(nodes))):
            src = rng.choice(nodes)
            dst = rng.choice(nodes) if rng.random() < 0.9 else f"w{rng.randrange(3)}"
            if trial % 2 == 0 and dst in rank and rank[dst] <= rank[src]:
                continue  # even trials are acyclic
            edges[src].append(dst)
        got = topological_order(edges)
        assert got == _graphlib_order(edges)
        cyclic += got[1] is not None
    assert 500 < cyclic < 2000


def test_orientation_coherence():
    # thin level claiming to exit a lower body
    cx = build_complex(
        thick=[thick("H", 0, 0, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin("F", 0, 0, from_cb="Jd", to_cb="Hu")],
        cbs=[cb("Hu", "H", minus=("F",)), cb("Hd", "H"),
             cb("Ju", "J"), cb("Jd", "J", minus=("F",))],
    )
    assert "orientation_coherence" in validate(cx).codes()


# ---------------------------------------------------------------------------
# Body index
# ---------------------------------------------------------------------------

def _mirror_profile(g, p, ports, v=0, b=0, gh=0, loops=0):
    """Single thick level with the same profile above and below; ports become
    disjoint boundary levels on each side."""
    ups = [bdy(f"U{i}", s.genus, s.punctures, "u") for i, s in enumerate(ports)]
    downs = [bdy(f"D{i}", s.genus, s.punctures, "d") for i, s in enumerate(ports)]
    return build_complex(
        thick=[thick("H", g, p, "u", "d")],
        boundary=ups + downs,
        cbs=[cb("u", "H", minus=tuple(x.id for x in ups), v=v, b=b, gh=gh, loops=loops),
             cb("d", "H", minus=tuple(x.id for x in downs), v=v, b=b, gh=gh, loops=loops)],
    )


def test_index_trivial_table(one_bridge_sphere):
    ball = _mirror_profile(0, 0, [])
    assert body_index(ball, "u") == 0
    assert body_index(one_bridge_sphere, "u") == 4
    assert body_index(one_bridge_sphere, "d") == 4
    # every product profile indexes 6
    for g in range(4):
        for p in range(7):
            if (g, p) == (0, 1):
                continue
            cx = _mirror_profile(g, p, [Surface(g, p)], v=p)
            assert body_index(cx, "u") == 6, (g, p)


def test_index_handlebody_and_holed_spheres(spheres_with_four_ends):
    genus2 = _mirror_profile(2, 0, [])
    assert body_index(genus2, "u") == 12
    assert body_index(spheres_with_four_ends, "u") == 12
    assert body_index(spheres_with_four_ends, "d") == 12


def test_index_rejects_invalid_body():
    cx = build_complex(
        thick=[thick("H", 0, 2, "u", "d")],
        cbs=[cb("u", "H", v=1, b=1), cb("d", "H", b=1)],
    )
    with pytest.raises(ValidationError):
        body_index(cx, "u")
    with pytest.raises(ValidationError):
        body_index(cx, "nope")


def test_body_index_in_a_complex_with_a_closed_flow_line():
    # the flow H -> J -> H makes the complex invalid; of its bodies only Hd,
    # a bridge arc under an unpunctured level, fails its own checks
    cx = build_complex(
        thick=[thick("H", 2, 0, "Hu", "Hd"), thick("J", 2, 0, "Ju", "Jd")],
        thin=[thin("F1", 1, 0, from_cb="Hu", to_cb="Jd"),
              thin("F2", 1, 0, from_cb="Ju", to_cb="Hd")],
        cbs=[cb("Hu", "H", minus=("F1",)), cb("Hd", "H", minus=("F2",), b=1),
             cb("Ju", "J", minus=("F2",)), cb("Jd", "J", minus=("F1",))],
    )
    assert validate(cx).codes() == {"closed_flow_line", "conservation_up"}
    assert body_index(cx, "Hu") == 12
    assert body_index(cx, "Jd") == 12
    with pytest.raises(ValidationError) as err:
        body_index(cx, "Hd")
    assert err.value.report.codes() == {"conservation_up"}


def test_each_failing_certificate_condition_reports_its_code(chain_two, spheres_with_four_ends):
    def change(cx, body, **fields):
        return replace(cx, cbs={**cx.cbs, body: replace(cx.cbs[body], **fields)})

    torus = build_complex(thick=[thick("H", 1, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])
    sphere = build_complex(thick=[thick("H", 0, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])
    four = build_complex(thick=[thick("H", 0, 4, "u", "d")],
                         cbs=[cb("u", "H", b=2), cb("d", "H", b=2)])
    tori = build_complex(
        thick=[thick("H", 1, 0, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin("F", 1, 0, from_cb="Hu", to_cb="Jd")],
        cbs=[cb("Hu", "H", minus=("F",)), cb("Hd", "H"), cb("Ju", "J"),
             cb("Jd", "J", minus=("F",))])
    product, ball = {"product_certificate": True}, {"ball_certificate": True}
    assert validate(change(tori, "Hu", **product)).ok
    assert validate(change(sphere, "u", **ball)).ok
    cases = [
        # product: no negative level, two of them, unequal surfaces, a bridge arc, a core loop
        (torus, "u", product, "product_certificate"),
        (spheres_with_four_ends, "u", product, "product_certificate"),
        (chain_two, "Jd", product, "product_certificate"),
        (tori, "Hu", {**product, "tangle": Tangle(0, 1, 0, 0)}, "product_certificate"),
        (tori, "Hu", {**product, "tangle": Tangle(0, 0, 0, 1)}, "product_certificate"),
        # ball: a negative level, genus on top, four punctures on top, a core loop
        (spheres_with_four_ends, "u", ball, "ball_certificate"),
        (torus, "u", ball, "ball_certificate"),
        (four, "u", ball, "ball_certificate"),
        (sphere, "u", {**ball, "tangle": Tangle(0, 0, 0, 1)}, "ball_certificate"),
    ]
    for cx, body, fields, code in cases:
        assert validate(cx).ok
        assert code in validate(change(cx, body, **fields)).codes(), (body, fields)


def _enumerate_valid_profiles():
    """Every valid single-body profile with genus <= 3, punctures <= 6 and at
    most two minus levels drawn from a small port pool."""
    pool = [Surface(0, 0), Surface(0, 2), Surface(0, 3), Surface(0, 4),
            Surface(1, 0), Surface(1, 2), Surface(2, 1)]
    port_choices = [[]]
    port_choices += [[s] for s in pool]
    port_choices += [[a, b] for i, a in enumerate(pool) for b in pool[i:]]
    for g in range(4):
        for p in range(7):
            for ports in port_choices:
                p_minus = sum(s.punctures for s in ports)
                for b in range(p // 2 + 1):
                    v = p - 2 * b
                    if (p_minus - v) % 2 or p_minus < v:
                        continue
                    gh = (p_minus - v) // 2
                    for loops in range(3):
                        cx = _mirror_profile(g, p, ports, v=v, b=b, gh=gh, loops=loops)
                        if validate(cx).ok:
                            yield cx, g, p, ports, Tangle(v, b, gh, loops)


def test_index_even_nonnegative_and_trichotomy():
    seen = 0
    for cx, g, p, ports, tangle in _enumerate_valid_profiles():
        mu = body_index(cx, "u")
        seen += 1
        assert mu % 2 == 0
        assert mu >= 0
        ball_empty = (g, p) == (0, 0) and not ports and tangle == Tangle()
        ball_arc = (g, p) == (0, 2) and not ports and tangle == Tangle(bridges=1)
        if ball_empty:
            assert mu == 0
        elif ball_arc:
            assert mu == 4
        else:
            assert mu >= 6, (g, p, ports, tangle)
        assert (mu == 0) == ball_empty
        assert (mu == 4) == ball_arc
    assert seen > 500


# ---------------------------------------------------------------------------
# Flow digraph
# ---------------------------------------------------------------------------

def _cycles_exist(edges):
    # independent check: try every node as a walk start, depth-first
    def dfs(node, path):
        for nxt in edges.get(node, ()):
            if nxt in path:
                return True
            if dfs(nxt, path | {nxt}):
                return True
        return False

    return any(dfs(n, {n}) for n in edges)


def test_thick_digraph_shapes(one_bridge_sphere, chain_two, diamond_four):
    assert thick_digraph(one_bridge_sphere) == {"H": []}
    assert thick_digraph(chain_two) == {"H": ["J"], "J": []}
    edges = thick_digraph(diamond_four)
    assert edges == {"H": ["A", "B"], "A": ["K"], "B": ["K"], "K": []}
    assert not _cycles_exist(edges)


# ---------------------------------------------------------------------------
# Document format
# ---------------------------------------------------------------------------

def test_json_round_trip(one_bridge_sphere, spheres_with_four_ends, diamond_four):
    for cx in (one_bridge_sphere, spheres_with_four_ends, diamond_four):
        assert parse_complex(emit_complex(cx)) == cx


def test_parse_rejects_malformed(one_bridge_sphere, spheres_with_four_ends):
    with pytest.raises(SchemaError):
        parse_complex({"thick": [{"id": "H"}]})
    with pytest.raises(SchemaError):
        parse_complex({"thick": [{"id": "H", "surface": {"genus": "x", "punctures": 0},
                                  "upper_cb": "u", "lower_cb": "d"}]})
    with pytest.raises(SchemaError):
        parse_complex(
            {"cbs": [{"id": "u", "plus": "H", "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0}},
                     {"id": "u", "plus": "H", "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0}}]})
    # certificates and the drilled-vertex flag are JSON booleans, never coerced
    for key, value in (("ball_certificate", "false"), ("product_certificate", 0)):
        doc = emit_complex(one_bridge_sphere)
        doc["cbs"][0][key] = value
        with pytest.raises(SchemaError, match=key):
            parse_complex(doc)
    doc = emit_complex(spheres_with_four_ends)
    doc["boundary"][0]["is_drilled_vertex"] = "no"
    with pytest.raises(SchemaError, match="is_drilled_vertex"):
        parse_complex(doc)


def test_parse_rejects_non_list_sections(one_bridge_sphere):
    for section in ("thick", "thin", "boundary", "cbs"):
        for value in (5, True, 1.5, "", {}):
            doc = emit_complex(one_bridge_sphere)
            doc[section] = value
            with pytest.raises(SchemaError, match=f"instance.{section}: expected list"):
                parse_complex(doc)


def test_parse_reads_missing_or_null_sections_as_empty(one_bridge_sphere):
    doc = emit_complex(one_bridge_sphere)
    doc["thin"] = None
    del doc["boundary"]
    assert parse_complex(doc) == one_bridge_sphere


def test_parse_accepts_domain_violations():
    # ill-formed domain data parses; validate reports it
    doc = {"thick": [{"id": "H", "surface": {"genus": -1, "punctures": 0},
                      "upper_cb": "u", "lower_cb": "u"}],
           "cbs": [{"id": "u", "plus": "H",
                    "tangle": {"v": 0, "b": 0, "gh": 0, "loops": 0}}]}
    cx = parse_complex(doc)
    codes = validate(cx).codes()
    assert "genus_negative" in codes
    assert "thick_sides" in codes


# One record of each kind, every field present; each golden case below
# changes one field of it.
SCHEMA_BASE = {
    "thick": [{"id": "H", "surface": {"genus": 1, "punctures": 2}, "upper_cb": "u", "lower_cb": "d"}],
    "thin": [{"id": "F", "surface": {"genus": 0, "punctures": 2}, "from_cb": "u", "to_cb": "d"}],
    "boundary": [{"id": "B", "surface": {"genus": 0, "punctures": 3}, "owner": "d",
                  "is_drilled_vertex": True}],
    "cbs": [{"id": "u", "plus": "H", "minus": ["F"], "tangle": {"v": 2, "b": 0, "gh": 0, "loops": 0},
             "product_certificate": False, "ball_certificate": False}],
}
# A value of the wrong JSON type for a field of each type.
SCHEMA_WRONG = {str: 5, int: 1.5, dict: [], list: {}, bool: "false"}
# Per field: the SchemaError message when it is missing, null, of the wrong
# JSON type and (integer fields only) a boolean; None where the document parses.
SCHEMA_GOLDEN = {
    "thick": (None, None, "instance.thick: expected list"),
    "thin": (None, None, "instance.thin: expected list"),
    "boundary": (None, None, "instance.boundary: expected list"),
    "cbs": (None, None, "instance.cbs: expected list"),
    "thick.id": ("thick: missing field 'id'", "thick.id: expected str", "thick.id: expected str"),
    "thick.surface": ("thick: missing field 'surface'", "thick.surface: expected dict",
                      "thick.surface: expected dict"),
    "thick.surface.genus": ("thick.surface: missing field 'genus'", "thick.surface.genus: expected int",
                            "thick.surface.genus: expected int",
                            "thick.surface.genus: expected an integer"),
    "thick.surface.punctures": ("thick.surface: missing field 'punctures'",
                                "thick.surface.punctures: expected int",
                                "thick.surface.punctures: expected int",
                                "thick.surface.punctures: expected an integer"),
    "thick.upper_cb": ("thick: missing field 'upper_cb'", "thick.upper_cb: expected str",
                       "thick.upper_cb: expected str"),
    "thick.lower_cb": ("thick: missing field 'lower_cb'", "thick.lower_cb: expected str",
                       "thick.lower_cb: expected str"),
    "thin.id": ("thin: missing field 'id'", "thin.id: expected str", "thin.id: expected str"),
    "thin.surface": ("thin: missing field 'surface'", "thin.surface: expected dict",
                     "thin.surface: expected dict"),
    "thin.surface.genus": ("thin.surface: missing field 'genus'", "thin.surface.genus: expected int",
                           "thin.surface.genus: expected int", "thin.surface.genus: expected an integer"),
    "thin.surface.punctures": ("thin.surface: missing field 'punctures'",
                               "thin.surface.punctures: expected int",
                               "thin.surface.punctures: expected int",
                               "thin.surface.punctures: expected an integer"),
    "thin.from_cb": ("thin: missing field 'from_cb'", "thin.from_cb: expected str",
                     "thin.from_cb: expected str"),
    "thin.to_cb": ("thin: missing field 'to_cb'", "thin.to_cb: expected str", "thin.to_cb: expected str"),
    "boundary.id": ("boundary: missing field 'id'", "boundary.id: expected str",
                    "boundary.id: expected str"),
    "boundary.surface": ("boundary: missing field 'surface'", "boundary.surface: expected dict",
                         "boundary.surface: expected dict"),
    "boundary.surface.genus": ("boundary.surface: missing field 'genus'",
                               "boundary.surface.genus: expected int",
                               "boundary.surface.genus: expected int",
                               "boundary.surface.genus: expected an integer"),
    "boundary.surface.punctures": ("boundary.surface: missing field 'punctures'",
                                   "boundary.surface.punctures: expected int",
                                   "boundary.surface.punctures: expected int",
                                   "boundary.surface.punctures: expected an integer"),
    "boundary.owner": ("boundary: missing field 'owner'", "boundary.owner: expected str",
                       "boundary.owner: expected str"),
    "boundary.is_drilled_vertex": (None, None, "boundary.is_drilled_vertex: expected bool"),
    "cbs.id": ("cbs: missing field 'id'", "cbs.id: expected str", "cbs.id: expected str"),
    "cbs.plus": ("cbs: missing field 'plus'", "cbs.plus: expected str", "cbs.plus: expected str"),
    "cbs.minus": (None, None, "cbs.minus: expected list"),
    "cbs.tangle": ("cbs: missing field 'tangle'", "cbs.tangle: expected dict", "cbs.tangle: expected dict"),
    "cbs.tangle.v": ("cbs.tangle: missing field 'v'", "cbs.tangle.v: expected int",
                     "cbs.tangle.v: expected int", "cbs.tangle.v: expected an integer"),
    "cbs.tangle.b": ("cbs.tangle: missing field 'b'", "cbs.tangle.b: expected int",
                     "cbs.tangle.b: expected int", "cbs.tangle.b: expected an integer"),
    "cbs.tangle.gh": ("cbs.tangle: missing field 'gh'", "cbs.tangle.gh: expected int",
                      "cbs.tangle.gh: expected int", "cbs.tangle.gh: expected an integer"),
    "cbs.tangle.loops": ("cbs.tangle: missing field 'loops'", "cbs.tangle.loops: expected int",
                         "cbs.tangle.loops: expected int", "cbs.tangle.loops: expected an integer"),
    "cbs.product_certificate": (None, None, "cbs.product_certificate: expected bool"),
    "cbs.ball_certificate": (None, None, "cbs.ball_certificate: expected bool"),
}


def _schema_message(doc) -> str | None:
    try:
        parse_complex(doc)
    except SchemaError as err:
        return str(err)
    return None


def _holder(doc: dict, path: list[str]) -> dict:
    """The object that holds the last key of ``path``; a section stands for its one record."""
    node = doc
    for key in path[:-1]:
        node = node[key]
        if isinstance(node, list):
            node = node[0]
    return node


@pytest.mark.parametrize("field", sorted(SCHEMA_GOLDEN))
def test_golden_schema_messages(field):
    path = field.split(".")
    kind = type(_holder(SCHEMA_BASE, path)[path[-1]])
    values = ["missing", None, SCHEMA_WRONG[kind]] + ([True] if kind is int else [])
    got = []
    for value in values:
        doc = copy.deepcopy(SCHEMA_BASE)
        node = _holder(doc, path)
        if value == "missing":
            del node[path[-1]]
        else:
            node[path[-1]] = value
        got.append(_schema_message(doc))
    assert tuple(got) == SCHEMA_GOLDEN[field]


def test_golden_schema_messages_for_non_objects():
    assert _schema_message(["thick"]) == "instance: expected a JSON object"
    for section in ("thick", "thin", "boundary", "cbs"):
        doc = copy.deepcopy(SCHEMA_BASE)
        doc[section] = ["x"]
        assert _schema_message(doc) == f"{section}: expected an object"
    doc = copy.deepcopy(SCHEMA_BASE)
    doc["cbs"][0]["minus"] = ["F", 3]
    assert _schema_message(doc) == "cbs.minus: expected a list of ids"


class _Doc(dict):
    pass


class _Id(str):
    pass


class _List(list):
    pass


def _subclassed(value):
    """The document with every object, string and array replaced by an
    instance of a subclass, as a library caller might build it."""
    if isinstance(value, dict):
        return _Doc({key: _subclassed(val) for key, val in value.items()})
    if isinstance(value, list):
        return _List(_subclassed(val) for val in value)
    if isinstance(value, str):
        return _Id(value)
    return value


# The optional keys of each section's records.
OPTIONAL_KEYS = (("boundary", "is_drilled_vertex"), ("cbs", "minus"),
                 ("cbs", "product_certificate"), ("cbs", "ball_certificate"))


def _with_optional_keys_dropped(doc):
    """``doc``, then for each optional key a copy with it deleted from every
    record of its section and a copy with it set to null there."""
    yield doc
    for section, key in OPTIONAL_KEYS:
        for drop in (dict.pop, lambda item, key: item.__setitem__(key, None)):
            changed = copy.deepcopy(doc)
            for item in changed[section]:
                drop(item, key)
            yield changed


def test_parse_accepts_dict_str_and_list_subclasses(bench_chain):
    # A plain document is read in one pass per record, the same document of
    # subclasses field by field; both must give the same complex and report.
    doc = _subclassed(SCHEMA_BASE)
    assert isinstance(doc["thick"][0]["id"], _Id)
    generated = [emit_complex(gen_complex(GenConfig(max_thick=6), random.Random(seed)))
                 for seed in range(12)]
    assert any(gen["boundary"] for gen in generated)
    chains = [bench_chain(n, random.Random(n)) for n in (1, 2, 40)]
    cases = 0
    for base in (SCHEMA_BASE, *generated, *chains):
        for plain in _with_optional_keys_dropped(base):
            fast, fallback = parse_complex(plain), parse_complex(_subclassed(plain))
            assert fast == fallback
            assert validate(fast) == validate(fallback)
            cases += 1
    assert cases == 16 * 9


def test_parse_shares_one_surface_and_one_tangle_per_distinct_value(bench_chain):
    cx = parse_complex(bench_chain(800, random.Random(1)))
    levels = [*cx.thick.values(), *cx.thin.values()]
    surfaces = {id(level.surface): level.surface for level in levels}
    assert len(surfaces) == len({(s.genus, s.punctures) for s in surfaces.values()}) < 16
    tangles = {id(body.tangle): body.tangle for body in cx.cbs.values()}
    assert len(tangles) == len({t.counts() for t in tangles.values()}) < 16


# A misspelling of one key each object may hold.
MISSPELT = {"thick": "uper_cb", "thin": "form_cb", "boundary": "is_drilled_vertx",
            "cbs": "ball_certifcate", "thick.surface": "genera", "thin.surface": "puncture",
            "boundary.surface": "Genus", "cbs.tangle": "ghosts"}


@pytest.mark.parametrize("where", sorted(MISSPELT))
def test_unknown_keys_are_refused_after_the_fields_are_read(where):
    path = where.split(".")
    last = {"thick": "lower_cb", "thin": "to_cb", "boundary": "owner", "cbs": "plus",
            "surface": "punctures", "tangle": "loops"}[path[-1]]
    doc = copy.deepcopy(SCHEMA_BASE)
    node = _holder(doc, path + [last])
    node[MISSPELT[where]] = node[last]
    assert _schema_message(doc) == f"{where}: unknown field {MISSPELT[where]!r}"
    assert _schema_message(_subclassed(doc)) == f"{where}: unknown field {MISSPELT[where]!r}"
    # a missing or mistyped field is named before the unknown key
    kind = type(node[last])
    node[last] = []
    assert _schema_message(doc) == f"{where}.{last}: expected {kind.__name__}"
    del node[last]
    assert _schema_message(doc) == f"{where}: missing field {last!r}"


@pytest.mark.parametrize("counts, report", [
    ((-1, 1, 0, 0), "[tangle_negative] u: verticals -1 must be a non-negative integer"),
    ((0, -1, 0, 0), "[tangle_negative] u: bridges -1 must be a non-negative integer"),
    ((2, 0, -1, 0), "[tangle_negative] u: ghosts -1 must be a non-negative integer"),
    ((0, 1, 0, -3), "[tangle_negative] u: loops -3 must be a non-negative integer"),
    ((-1, -1, -1, -1), "[tangle_negative] u: verticals -1 must be a non-negative integer\n"
                       "[tangle_negative] u: bridges -1 must be a non-negative integer\n"
                       "[tangle_negative] u: ghosts -1 must be a non-negative integer\n"
                       "[tangle_negative] u: loops -1 must be a non-negative integer"),
])
def test_golden_reports_for_negative_tangle_counts(counts, report):
    # A body with a negative count gets no arithmetic and no certificate
    # check (u claims a ball it is not); its neighbour d is checked in full.
    v, b, gh, loops = counts
    cx = build_complex(thick=[thick("H", 1, 2, "u", "d")], boundary=[bdy("B", 1, 0, "d")],
                       cbs=[cb("u", "H", v=v, b=b, gh=gh, loops=loops, ball=True),
                            cb("d", "H", minus=("B",), b=1, product=True)])
    assert str(validate(cx)) == report + (
        "\n[product_certificate] d: product piece has one negative level, boundary "
        "surfaces that match and only vertical arcs")


# ---------------------------------------------------------------------------
# Totality: arbitrary well-typed structures never crash validate
# ---------------------------------------------------------------------------

ids = st.text(alphabet="abcxyz", min_size=1, max_size=2)
small = st.integers(min_value=-2, max_value=4)
surfaces = st.builds(Surface, small, small)
tangles = st.builds(Tangle, small, small, small, small)


@st.composite
def messy_complexes(draw):
    n_thick = draw(st.integers(0, 3))
    thicks, cbs, thins, bdys = {}, {}, {}, {}
    for i in range(n_thick):
        t = ThickLevel(f"t{i}", draw(surfaces), draw(ids), draw(ids))
        thicks[t.id] = t
    for i in range(draw(st.integers(0, 5))):
        c = CompressionBody(f"c{i}", draw(ids),
                            tuple(draw(st.lists(ids, max_size=3))), draw(tangles))
        cbs[c.id] = c
    for i in range(draw(st.integers(0, 3))):
        f = ThinLevel(f"f{i}", draw(surfaces), draw(ids), draw(ids))
        thins[f.id] = f
    for i in range(draw(st.integers(0, 3))):
        b = BoundaryLevel(f"b{i}", draw(surfaces), draw(ids), draw(st.booleans()))
        bdys[b.id] = b
    return Complex(thick=thicks, thin=thins, boundary=bdys, cbs=cbs)


@settings(max_examples=300, deadline=None)
@given(messy_complexes())
def test_validate_total_on_arbitrary_structures(cx):
    report = validate(cx)
    assert report == validate(cx)  # idempotent, and it never raised


def _reference_thick_digraph(cx):
    """The flow digraph worked out on its own, apart from validation: a
    verbatim copy of the reference definition."""
    thick_of_upper = {t.upper_cb: t.id for t in cx.thick.values()}
    thick_of_lower = {t.lower_cb: t.id for t in cx.thick.values()}
    edges: dict[str, list[str]] = {t: [] for t in cx.thick}
    for f in cx.thin.values():
        src = thick_of_upper.get(f.from_cb)
        dst = thick_of_lower.get(f.to_cb)
        if src is not None and dst is not None:
            edges[src].append(dst)
    for outs in edges.values():
        outs.sort()
    return edges


def _assert_digraph_is_the_reference(cx):
    want = _reference_thick_digraph(cx)
    assert model.validation(cx).edges == want
    assert thick_digraph(cx) == want


def test_flow_digraph_equals_the_reference_on_seeded_and_hand_built_complexes():
    """Edges join thick levels through the bodies they name, whether those
    bodies exist or not: a thin level leaving the missing upper body ``u`` of
    ``H`` for the lower body ``jd`` of ``J`` is the edge ``H -> J`` of an
    invalid complex."""
    for i in range(80):
        _assert_digraph_is_the_reference(gen_complex(GenConfig(max_thick=6, seed=100_000 + i)))
    dangling = Complex(thick={"H": thick("H", 0, 0, "u", "d"), "J": thick("J", 0, 0, "ju", "jd")},
                       thin={"F": thin("F", 0, 0, "u", "jd")},
                       cbs={"d": cb("d", "H"), "ju": cb("ju", "J"), "jd": cb("jd", "J", minus=("F",))})
    assert not validate(dangling).ok
    assert thick_digraph(dangling) == {"H": ["J"], "J": []}
    _assert_digraph_is_the_reference(dangling)


@settings(max_examples=300, deadline=None)
@given(messy_complexes())
def test_flow_digraph_equals_the_reference_on_arbitrary_structures(cx):
    _assert_digraph_is_the_reference(cx)


def test_thick_digraph_returns_a_copy_no_caller_can_change(diamond_four):
    want = _reference_thick_digraph(diamond_four)
    vector = complexity(unchecked(diamond_four))
    got = thick_digraph(diamond_four)
    for outs in got.values():
        outs.clear()
    got["X"] = ["H"]
    assert model.validation(diamond_four).edges == want
    assert complexity(diamond_four) == vector
    assert thick_digraph(diamond_four) == want


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

def _reference_find(parent: dict, x):
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _reference_components(cx):
    """The split worked out on its own, apart from any record graph: a
    verbatim copy of the id-keyed union-find the split was first written
    as, with its own ``_find`` over a dict."""
    records = model._records(cx)
    parent = {rec.id: rec.id for rec in records}

    def join(a: str, *named: str) -> None:
        root = _reference_find(parent, a)
        for b in named:
            if b in parent:
                parent[_reference_find(parent, b)] = root

    for level in model._LEVELS.values():
        read, flag = level.read, level.second_type is bool
        for rec in getattr(cx, level.section).values():
            a, b = read(rec)
            if flag:
                join(rec.id, a)
            else:
                join(rec.id, a, b)
    for c in cx.cbs.values():
        join(c.id, c.plus, *c.minus)
    groups: dict[str, list] = {}
    for rec in records:
        groups.setdefault(_reference_find(parent, rec.id), []).append(rec)
    if len(groups) == 1:
        return None
    parts = []
    for group in groups.values():
        sections: tuple[dict, ...] = ({}, {}, {}, {})
        for rec in group:
            sections[model._SECTION[type(rec)]][rec.id] = rec
        part = Complex(*sections)
        object.__setattr__(part, "_components", None)
        parts.append(part)
    return parts


def _assert_components_are_the_reference(cx):
    """``components`` of a fresh copy of ``cx`` holds the reference's
    records, part by part, in the same order."""
    fresh = Complex(cx.thick, cx.thin, cx.boundary, cx.cbs)
    want = _reference_components(cx)
    want = [model._records(cx)] if want is None else [model._records(part) for part in want]
    assert [model._records(part) for part in model.components(fresh)] == want


def test_components_equal_the_reference_on_the_seeded_corpus_and_unions():
    """On the seeded corpus of ``test_golden_record_bytes`` and the shuffled
    unions of ``test_golden_thin_on_unions``."""
    from test_search import _relabel, _shuffled_unions, _union

    rng = random.Random(5)
    corpus = [gen_complex(GenConfig(max_thick=1 + i % 6), rng) for i in range(300)]
    corpus += [_relabel(cx, i) for i, cx in enumerate(corpus[:60])]
    corpus += [_union([corpus[i], _relabel(corpus[i + 1], i)], rng) for i in range(0, 40, 2)]
    corpus += list(_shuffled_unions())
    for cx in corpus:
        _assert_components_are_the_reference(cx)
    assert sum(len(model.components(cx)) > 1 for cx in corpus) > 100


@settings(max_examples=300, deadline=None)
@given(messy_complexes())
def test_components_equal_the_reference_on_arbitrary_structures(cx):
    _assert_components_are_the_reference(cx)


@st.composite
def complexes_reusing_a_thick_id(draw):
    """Records of every kind whose ids and references are drawn from one
    small pool, so that references land and a thin level, boundary level or
    body can hold a thick level's id, which only a complex built directly,
    not through :func:`build_complex`, allows."""
    pool = st.sampled_from(["t0", "t1", "t2", "f0", "c0", "c1", "x"])
    sections = []
    for make, n in ((ThickLevel, 3), (ThinLevel, 3), (BoundaryLevel, 2), (CompressionBody, 4)):
        records = {}
        for _ in range(draw(st.integers(0, n))):
            key = draw(pool)
            if make is CompressionBody:
                rec = make(key, draw(pool), tuple(draw(st.lists(pool, max_size=3))), Tangle(0, 0, 0, 0))
            elif make is BoundaryLevel:
                rec = make(key, Surface(0, 0), draw(pool), draw(st.booleans()))
            else:
                rec = make(key, Surface(0, 0), draw(pool), draw(pool))
            records[key] = rec
        sections.append(records)
    return Complex(*sections)


@settings(max_examples=400, deadline=None)
@given(complexes_reusing_a_thick_id())
def test_components_equal_the_reference_where_records_share_a_thick_level_id(cx):
    _assert_components_are_the_reference(cx)


def test_records_that_share_an_id_share_a_component():
    """Hand-built: a thin level and a body that reuse the thick level ``H``'s
    id, named by nothing, are still in ``H``'s component, as the reference
    puts them."""
    cx = Complex(thick={"H": thick("H", 0, 0, "u", "d"), "J": thick("J", 0, 0, "v", "w")},
                 thin={"H": thin("H", 0, 0, "p", "q")},
                 cbs={"H": cb("H", "K"), "u": cb("u", "H"), "v": cb("v", "J")})
    parts = model.components(cx)
    assert [[rec.id for rec in model._records(part)] for part in parts] == [
        ["H", "H", "H", "u"], ["J", "v"]]
    _assert_components_are_the_reference(cx)


def _schema_error(build) -> str:
    with pytest.raises(SchemaError) as err:
        build()
    return str(err.value)


def test_duplicate_id_messages_of_build_complex():
    """An id shared by two kinds is named, the first such in pool order
    (thick, thin, boundary, cbs) whatever the order of the ids; an id
    repeated within one collection alone gives the one message that names
    no id."""
    assert _schema_error(lambda: build_complex(
        thick=[thick("k", 0, 2, "u", "d")],
        cbs=[cb("u", "k", b=1), cb("k", "k", b=1)])) == "duplicate id 'k'"
    assert _schema_error(lambda: build_complex(
        thick=[thick("z", 0, 2, "u", "d")], thin=[thin("a", 0, 0, "u", "d")],
        boundary=[bdy("z", 0, 0, "d")],
        cbs=[cb("u", "z", b=1), cb("a", "z", b=1)])) == "duplicate id 'z'"
    assert _schema_error(lambda: build_complex(
        thick=[thick("H", 0, 2, "u", "d")],
        cbs=[cb("u", "H", b=1), cb("u", "H", b=1)])) == "duplicate id within a collection"
    assert _schema_error(lambda: build_complex(
        thick=[thick("H", 0, 2, "u", "d"), thick("H", 0, 2, "u", "d")],
        thin=[thin("d", 0, 0, "u", "d")],
        cbs=[cb("u", "H", b=1), cb("d", "H", b=1)])) == "duplicate id 'd'"


def test_duplicate_id_messages_of_parse_complex(one_bridge_sphere, chain_two):
    def parsed(cx, edit) -> str:
        doc = emit_complex(cx)
        edit(doc)
        return _schema_error(lambda: parse_complex(doc))

    def cross(doc):
        doc["cbs"][0]["id"] = doc["thick"][0]["id"]

    def two_cross(doc):
        doc["thin"][0]["id"] = "J"
        doc["cbs"][0]["id"] = "H"

    def within(doc):
        doc["cbs"][1]["id"] = doc["cbs"][0]["id"]

    def both(doc):
        doc["thick"][1]["id"] = "H"
        doc["cbs"][0]["id"] = "F"

    assert parsed(one_bridge_sphere, cross) == "duplicate id 'H'"
    # the thin level "J" repeats a thick id before the body "H" does
    assert parsed(chain_two, two_cross) == "duplicate id 'J'"
    assert parsed(one_bridge_sphere, within) == "duplicate id within a collection"
    # two thick levels "H", and a body named as the thin level "F"
    assert parsed(chain_two, both) == "duplicate id 'F'"


def _two_bodies(surface, tangle=Tangle(0, 1, 0, 0)):
    return build_complex([ThickLevel("H", surface, "u", "d")], [], [],
                         [CompressionBody("u", "H", (), tangle),
                          CompressionBody("d", "H", (), Tangle(0, 1, 0, 0))])


def _flagged(**flags):
    """Two ball bodies on one tangle object, ``d`` first with bool flags and
    ``u`` with ``flags``: the per-validation memo holds ``d``'s pass when
    ``u`` is checked."""
    tangle = Tangle(0, 1, 0, 0)
    return build_complex([ThickLevel("H", Surface(0, 2), "u", "d")], [], [],
                         [CompressionBody("d", "H", (), tangle, False, True),
                          replace(CompressionBody("u", "H", (), tangle, False, True), **flags)])


@pytest.mark.parametrize("cx, body, report", [
    (_two_bodies(Surface("x", 2)), "u", "[genus_negative] H: genus 'x' must be a non-negative integer"),
    (_two_bodies(Surface(None, 2)), "u", "[genus_negative] H: genus None must be a non-negative integer"),
    (build_complex([thick("H", 1, 0, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
                   [ThinLevel("F", Surface("x", 0), "Hu", "Jd")], [],
                   [cb("Hu", "H", minus=("F",)), cb("Hd", "H"), cb("Ju", "J"), cb("Jd", "J", minus=("F",))]),
     "Jd", "[genus_negative] F: genus 'x' must be a non-negative integer"),
    (_two_bodies(Surface(0, 2), Tangle("x", 1, 0, 0)), "u",
     "[tangle_negative] u: verticals 'x' must be a non-negative integer"),
    (build_complex([thick("H", 0, 4, "u", "d")], [],
                   [BoundaryLevel("B", Surface(0, None), "u", is_drilled_vertex=True)],
                   [cb("u", "H", minus=("B",), v=4), cb("d", "H", b=2)]),
     "u", "[punctures_negative] B: punctures None must be a non-negative integer"),
    (_two_bodies(Surface(True, 2)), "u", "[genus_negative] H: genus True must be a non-negative integer"),
    (_two_bodies(Surface(0, 2), Tangle(0, True, 0, 0)), "u",
     "[tangle_negative] u: bridges True must be a non-negative integer"),
    (_flagged(ball_certificate=1), "u", "[flag_type] u: ball_certificate 1 must be a boolean"),
    (_flagged(product_certificate=0), "u", "[flag_type] u: product_certificate 0 must be a boolean"),
], ids=["str-genus", "none-genus", "thin-str-genus", "str-count", "drilled-none-punctures",
        "bool-genus", "bool-count", "int-ball", "int-product"])
def test_validate_reports_non_integer_fields_of_library_records(cx, body, report):
    # the field is reported once; a body that reads it gets no index.  A
    # bool is no integer and a flag must be a bool, as the parser reads them.
    assert str(validate(cx)) == report
    assert _stopping_check(cx, cx.cbs[body]) is None


def test_validate_reports_a_drilled_vertex_flag_that_is_not_a_bool():
    cx = build_complex([thick("H", 0, 6, "u", "d")], [],
                       [BoundaryLevel("B", Surface(0, 3), "u", 1), bdy("C", 0, 3, "u")],
                       [cb("u", "H", minus=("B", "C"), v=6), cb("d", "H", b=3)])
    assert str(validate(cx)) == "[flag_type] B: is_drilled_vertex 1 must be a boolean"
    assert validate(replace(cx, boundary={**cx.boundary, "B": bdy("B", 0, 3, "u", True)})).ok


odd_values = st.integers(-2, 4) | st.floats() | st.text(max_size=2) | st.none() | st.booleans()
COUNT_FIELDS = ("verticals", "bridges", "ghosts", "loops")
FLAG_FIELDS = {"cbs": ("product_certificate", "ball_certificate"), "boundary": ("is_drilled_vertex",)}


@st.composite
def complexes_with_odd_fields(draw):
    """A generated valid complex with up to four surface, tangle or flag
    fields replaced by an int, a negative, a float, a string, None or a
    bool."""
    cx = gen_complex(GenConfig(max_thick=3, seed=draw(st.integers(0, 15))))
    maps = {name: dict(getattr(cx, name)) for name in ("thick", "thin", "boundary", "cbs")}
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from([n for n in maps if maps[n]]))
        rec = maps[name][draw(st.sampled_from(sorted(maps[name])))]
        if name in FLAG_FIELDS and draw(st.booleans()):
            maps[name][rec.id] = replace(rec, **{draw(st.sampled_from(FLAG_FIELDS[name])): draw(odd_values)})
        elif name == "cbs":
            tangle = replace(rec.tangle, **{draw(st.sampled_from(COUNT_FIELDS)): draw(odd_values)})
            maps[name][rec.id] = replace(rec, tangle=tangle)
        else:
            surface = replace(rec.surface, **{draw(st.sampled_from(("genus", "punctures"))): draw(odd_values)})
            maps[name][rec.id] = replace(rec, surface=surface)
    return cx, Complex(**maps)


@settings(max_examples=300, deadline=None)
@given(complexes_with_odd_fields())
def test_validate_never_raises_on_odd_field_values(pair):
    base, cx = pair
    model.validation(base)
    report = model.validation(cx).report
    assert report == validate(unchecked(cx)) and str(report)


@settings(max_examples=300, deadline=None)
@given(complexes_with_odd_fields())
def test_a_complex_that_validates_round_trips_through_its_document(pair):
    """Every complex ``validate`` accepts writes a document that
    ``parse_complex`` reads back to it, and that validates: validation reads
    no bool as an integer and nothing else as a flag, as the parser does."""
    cx = pair[1]
    if validate(cx).ok:
        back = parse_complex(emit_complex(cx))
        assert back == cx and validate(back).ok


def _stopping_check(cx, body):
    """The check the move gate runs on a body, on the levels of ``cx`` it
    reads: the body's index, or None at its first failure."""
    return model._check_cb(body, model._reads(body, cx.thick.get, cx.thin.get, cx.boundary.get), None)


def _checks_of_every_body(cx):
    """Each body's index from the stopping check and from the reporting one,
    and the violations the stopping check built, counted by patching
    ``model.Violation``."""
    built = []

    class Counted(model.Violation):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    got = []
    for body in cx.cbs.values():
        reads = model._reads(body, cx.thick.get, cx.thin.get, cx.boundary.get)
        full = model._check_cb(body, reads, [])
        real, model.Violation = model.Violation, Counted
        try:
            fast = model._check_cb(body, reads, None)
        finally:
            model.Violation = real
        got.append((fast, full))
    return got, built


@settings(max_examples=200, deadline=None)
@given(messy_complexes() | complexes_with_odd_fields().map(lambda pair: pair[1]))
def test_stopping_check_stops_at_the_first_failure_and_builds_no_report(cx):
    """The stopping check (``_check_cb`` with no report) decides as the
    reporting check does, and builds no violation and no message for a body
    that fails."""
    got, built = _checks_of_every_body(cx)
    assert built == []
    for fast, full in got:
        assert fast == full


def test_gate_body_checks_build_nothing_on_the_rejections_of_thin(monkeypatch):
    """Work-count gate: over 20 thin-random instances the move gate's body
    checks built 706 violations that nothing read; now none is built outside
    a validation."""
    from widthcalc.gen import enumerate_moves
    from widthcalc.search import thin as thin_run

    built = Counter()
    real = model.Violation
    in_gate = []

    class Counted(real):
        def __init__(self, *args):
            built[bool(in_gate)] += 1
            super().__init__(*args)

    check = moves._body_index

    def gated(*args):
        in_gate.append(True)
        try:
            return check(*args)
        finally:
            in_gate.pop()

    monkeypatch.setattr(model, "Violation", Counted)
    monkeypatch.setattr(moves, "_body_index", gated)
    for i in range(20):
        thin_run(gen_complex(GenConfig(max_thick=6, seed=100_000 + i)), enumerate_moves)
    assert built[True] == 0


# ---------------------------------------------------------------------------
# Direct record text
# ---------------------------------------------------------------------------

def _text_cases():
    """Records of every kind: each certificate and drilled flag both ways,
    bodies of 0, 1 and many ports, and fields a library caller may set to
    values the parser never makes."""
    records = [
        ThickLevel("H", Surface(2, 4), "u", "d"),
        ThinLevel("F", Surface(1, 2), "u", "d"),
        BoundaryLevel("B", Surface(0, 3), "u", False),
        BoundaryLevel("B", Surface(0, 3), "u", True),
        ThickLevel("H", Surface(True, None), "u", "d"),
        ThinLevel("F", Surface(1.5, "x"), "u", "d"),
    ]
    for product in (False, True):
        for ball in (False, True):
            for ports in ((), ("p0",), tuple(f"p{k}" for k in range(12))):
                records.append(CompressionBody("c", "H", ports, Tangle(1, 2, 3, 4), product, ball))
    records.append(CompressionBody("c", "H", ("p0",), Tangle(False, 0.5, None, "x"), 1, None))
    return records


@pytest.mark.parametrize("offset", [0, 5, 88, 988])
def test_record_text_is_what_json_writes_of_the_emitted_record(offset):
    """``record_text`` writes the JSON text of ``emit_record``'s entry
    itself.  Ports are sorted after renaming, as strings: the twelve ports
    are named from ``n{offset + 6}``, which crosses n9/n10, n99/n100 and
    n999/n1000 at offsets 0, 88 and 988, and their order then differs from
    numeric order."""
    ids = ["H", "F", "B", "u", "d", "c"] + [f"p{k}" for k in range(12)]
    rename = {old: f"n{offset + k}" for k, old in enumerate(ids)}.__getitem__
    for name in (str, rename):
        for rec in _text_cases():
            assert model.record_text(rec, name) == json.dumps(model.emit_record(rec, name)[1])
    body = CompressionBody("c", "H", tuple(f"p{k}" for k in range(12)))
    ports = json.loads(model.record_text(body, rename))["minus"]
    assert ports == sorted(ports)
    assert (ports == sorted(ports, key=lambda port: int(port[1:]))) == (offset == 5)


def _reversed_keys(value):
    """``value`` with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


def _assert_row_keys(spec, entry) -> None:
    """The keys of ``entry`` are those of ``spec``'s rows in ``_ROWS``, in row
    order, and so are the keys of each object nested in it."""
    rows = model._ROWS[spec]
    assert list(entry) == [row[0] for row in rows]
    for key, row_spec, *_ in rows:
        if isinstance(row_spec, type) and row_spec in model._ROWS:
            _assert_row_keys(row_spec, entry[key])


def test_every_record_kind_is_written_and_read_by_its_rows():
    """Guard for the codecs of the instance format, on every record of a
    seeded corpus and of a complex with a drilled and an undrilled boundary
    level: ``emit_record`` writes the keys of ``_ROWS`` in row order, with
    the values the table's own encoder gives; ``record_text`` writes that
    entry; and a document with every object's keys reversed parses, in the
    one-pass reader, to the complex it was written from.  The one-pass
    reader shows as levels of equal surfaces sharing one object."""
    rng = random.Random(5)
    corpus = [gen_complex(GenConfig(max_thick=1 + i % 6), rng) for i in range(60)]
    corpus.append(build_complex(
        thick=[thick("H", 0, 6, "u", "d")],
        boundary=[bdy("B", 0, 3, "u", drilled=True), bdy("C", 0, 3, "u")],
        cbs=[cb("u", "H", minus=("B", "C"), v=6), cb("d", "H", b=3)]))
    rename = "n{}".format
    kinds = Counter()
    levels = surfaces = 0
    for cx in corpus:
        assert validate(cx).ok
        for rec in model._records(cx):
            kinds[type(rec), getattr(rec, "is_drilled_vertex", None)] += 1
            section, entry = model.emit_record(rec)
            assert getattr(cx, section)[rec.id] is rec
            _assert_row_keys(type(rec), entry)
            assert entry == model._encode(type(rec), rec)
            assert json.loads(model.record_text(rec, rename)) == model.emit_record(rec, rename)[1]
        back = parse_complex(_reversed_keys(emit_complex(cx)))
        assert back == cx
        read = [*back.thick.values(), *back.thin.values(), *back.boundary.values()]
        assert len({id(level.surface) for level in read}) == len({level.surface for level in read})
        levels += len(read)
        surfaces += len({level.surface for level in read})
    assert set(kinds) == {(ThickLevel, None), (ThinLevel, None), (BoundaryLevel, False),
                          (BoundaryLevel, True), (CompressionBody, None)}
    assert surfaces < levels
