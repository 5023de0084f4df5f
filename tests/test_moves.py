import hashlib
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from widthcalc import model, moves, search
from widthcalc.complexity import LT, compare, complexity, index_down, index_up
from widthcalc.gen import GenConfig, enumerate_moves, gen_complex
from widthcalc.model import (
    BoundaryLevel,
    CompressionBody,
    SchemaError,
    Surface,
    Tangle,
    body_index,
    build_complex,
    emit_complex,
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
    UndoRemovable,
    Unperturb,
    Untelescope,
    UntelescopeOutcome,
    apply_consolidate,
    apply_destabilize,
    apply_move,
    apply_undo_removable,
    apply_unperturb,
    apply_untelescope,
    boundary_reduce,
    compress_surface,
    elementary_thinning_sequence,
    emit_move,
    is_reduced,
    parse_move,
)
from widthcalc.search import thin as thin_run
from conftest import bdy, cb, thick, thin, unchecked


def disc(q=0, separating=False, genus=None, punctures=None, ports=None):
    if not separating:
        return DiscData(q, False)
    return DiscData(q, True, SplitData(tuple(genus), tuple(punctures),
                                       (tuple(ports[0]), tuple(ports[1]))))


# ---------------------------------------------------------------------------
# Surface surgery
# ---------------------------------------------------------------------------

def test_compress_surface_separating_sphere():
    out = compress_surface(Surface(0, 0), disc(0, True, (0, 0), (0, 0), ((), ())))
    assert out == (Surface(0, 0), Surface(0, 0))


def test_compress_surface_torus():
    assert compress_surface(Surface(1, 0), disc(0)) == (Surface(0, 0),)


def test_compress_surface_scars():
    assert compress_surface(Surface(2, 3), disc(1)) == (Surface(1, 5),)


def test_compress_surface_errors():
    with pytest.raises(MoveRejected):
        compress_surface(Surface(0, 0), disc(0))
    with pytest.raises(MoveRejected):
        compress_surface(Surface(2, 2), disc(0, True, (1, 0), (1, 1), ((), ())))


# ---------------------------------------------------------------------------
# Boundary reduction and the index identity
# ---------------------------------------------------------------------------

def _solid_torus():
    return build_complex(thick=[thick("H", 1, 0, "u", "d")],
                         cbs=[cb("u", "H"), cb("d", "H")])


def test_boundary_reduce_solid_torus():
    red = boundary_reduce(_solid_torus(), "u", disc(0))
    assert red.before == 6
    assert [p.index for p in red.pieces] == [0]
    assert red.expected_sum == 6 - 6 + 0 + 0


def test_boundary_reduce_rejects_ball_piece():
    cx = build_complex(
        thick=[thick("H", 1, 2, "u", "d")],
        boundary=[bdy("U0", 1, 2, "u"), bdy("D0", 1, 2, "d")],
        cbs=[cb("u", "H", minus=("U0",), v=2, product=True),
             cb("d", "H", minus=("D0",), v=2, product=True)],
    )
    with pytest.raises(MoveRejected) as err:
        boundary_reduce(cx, "u", disc(0, True, (1, 0), (2, 0), (("U0",), ())))
    assert err.value.rule == "boundary_reduce.trivial_piece"


def test_boundary_reduce_genus_two_split():
    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")],
                       cbs=[cb("u", "H"), cb("d", "H")])
    red = boundary_reduce(cx, "u", disc(0, True, (1, 1), (0, 0), ((), ())))
    assert [p.index for p in red.pieces] == [6, 6]
    assert sum(p.index for p in red.pieces) == 12 - 6 + 0 + 6


def test_boundary_reduce_cut_disc():
    cx = build_complex(
        thick=[thick("H", 2, 3, "u", "d")],
        boundary=[bdy("U0", 0, 3, "u"), bdy("D0", 0, 3, "d")],
        cbs=[cb("u", "H", minus=("U0",), v=3), cb("d", "H", minus=("D0",), v=3)],
    )
    red = boundary_reduce(cx, "u", disc(1))
    assert red.before == 18
    assert red.pieces[0].surface == Surface(1, 5)
    assert red.pieces[0].index == 16 == 18 - 6 + 4


def test_boundary_reduce_needs_a_strand_for_cut_discs():
    with pytest.raises(MoveRejected) as err:
        boundary_reduce(_solid_torus(), "u", disc(1))
    assert err.value.rule == "boundary_reduce.no_strand"


def test_boundary_reduce_identity_all_flavours():
    # separating, q=1, with ports split across the sides
    cx = build_complex(
        thick=[thick("H", 2, 4, "u", "d")],
        boundary=[bdy("U0", 0, 4, "u"), bdy("U1", 1, 2, "u"),
                  bdy("D0", 0, 4, "d"), bdy("D1", 1, 2, "d")],
        cbs=[cb("u", "H", minus=("U0", "U1"), v=4, gh=1, b=0),
             cb("d", "H", minus=("D0", "D1"), v=4, gh=1, b=0)],
    )
    before = body_index(cx, "u")
    for q in (0, 1):
        red = boundary_reduce(
            cx, "u", disc(q, True, (1, 1), (2, 2), (("U0",), ("U1",))))
        assert sum(p.index for p in red.pieces) == before - 6 + 4 * q + 6
        assert all(p.index < before for p in red.pieces)


# ---------------------------------------------------------------------------
# Consolidation
# ---------------------------------------------------------------------------

def _consolidatable_chain():
    """H above J via thin F; J's lower body is a certified product onto F."""
    return build_complex(
        thick=[thick("H", 1, 4, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin("F", 1, 0, from_cb="Hu", to_cb="Jd")],
        boundary=[bdy("B1", 0, 4, "Hu")],
        cbs=[
            cb("Hu", "H", minus=("F", "B1"), v=4),
            cb("Hd", "H", b=2),
            cb("Ju", "J"),
            cb("Jd", "J", minus=("F",), product=True),
        ],
    )


def test_consolidate_merges_and_checks_index():
    from widthcalc.complexity import total_index

    cx = _consolidatable_chain()
    assert body_index(cx, "Hu") == 12
    assert body_index(cx, "Ju") == 6
    before = complexity(cx)
    assert before == (26, 20)
    deleted_entry = total_index(cx, "J")
    out = apply_consolidate(cx, Consolidate(thick="J", thin="F"))
    assert validate(out).ok
    assert set(out.thick) == {"H"}
    assert set(out.thin) == set()
    # merged body keeps A's id and indexes 12 + 6 - 6
    assert body_index(out, "Hu") == 12
    after = complexity(out)
    assert compare(after, before) == LT
    # the vector loses exactly the deleted level's entry
    expected = list(before)
    expected.remove(deleted_entry)
    assert list(after) == expected


def test_consolidate_requires_product_certificate():
    cx = _consolidatable_chain()
    cx = replace(cx, cbs={**cx.cbs, "Jd": cb("Jd", "J", minus=("F",))})  # drop the certificate
    with pytest.raises(MoveRejected) as err:
        apply_consolidate(cx, Consolidate(thick="J", thin="F"))
    assert err.value.rule == "consolidate.product"


def test_consolidate_with_supplied_tangle():
    cx = _consolidatable_chain()
    out = apply_consolidate(cx, Consolidate(thick="J", thin="F",
                                            merged_tangle=Tangle(4, 0, 0, 1)))
    assert validate(out).ok
    assert out.cbs["Hu"].tangle == Tangle(4, 0, 0, 1)


def test_consolidate_rejects_infeasible_tangle():
    cx = _consolidatable_chain()
    with pytest.raises(MoveRejected):
        apply_consolidate(cx, Consolidate(thick="J", thin="F",
                                          merged_tangle=Tangle(0, 2, 2, 0)))


def _conserving(p_plus, p_minus, max_loops):
    """Every tangle, up to ``max_loops`` core loops, that conserves the
    given puncture counts."""
    for v in range(min(p_plus, p_minus) + 1):
        if (p_plus - v) % 2 == 0 and (p_minus - v) % 2 == 0:
            for loops in range(max_loops + 1):
                yield Tangle(v, (p_plus - v) // 2, (p_minus - v) // 2, loops)


def test_consolidation_derives_a_feasible_merged_tangle_on_every_valid_chain():
    """``consolidate.tangle`` is unreachable without a given tangle: on
    every valid two-level chain of small surfaces, where H's upper body A
    meets J's product body across F and J's upper body B holds boundary
    levels and up to two core loops, the consolidation is accepted."""
    valid = Counter()
    levels = [(g, p) for g in range(3) for p in range(4)]
    for (gh, ph), (gj, pj) in itertools.product(
            [(g, p) for g in range(4) for p in range(5)], levels):
        for extra_a in ((), ((0, 2),), ((1, 1),), ((0, 1), (0, 1))):
            for minus_b in ((), ((0, 0),), ((0, 2),), ((0, 1), (0, 1)), ((1, 0),), ((0, 3), (0, 1))):
                ports_a = [bdy(f"A{i}", g, p, "Hu") for i, (g, p) in enumerate(extra_a)]
                ports_b = [bdy(f"B{i}", g, p, "Ju") for i, (g, p) in enumerate(minus_b)]
                p_a = pj + sum(p for _g, p in extra_a)
                p_b = sum(p for _g, p in minus_b)
                for t_a, t_b, t_d in itertools.product(
                        _conserving(ph, p_a, 1), _conserving(pj, p_b, 2), _conserving(ph, 0, 0)):
                    cx = build_complex(
                        thick=[thick("H", gh, ph, "Hu", "Hd"), thick("J", gj, pj, "Ju", "Jd")],
                        thin=[thin("F", gj, pj, from_cb="Hu", to_cb="Jd")],
                        boundary=ports_a + ports_b,
                        cbs=[CompressionBody("Hu", "H", ("F", *(b.id for b in ports_a)), t_a),
                             CompressionBody("Hd", "H", (), t_d),
                             cb("Jd", "J", minus=("F",), v=pj, product=True),
                             CompressionBody("Ju", "J", tuple(b.id for b in ports_b), t_b)])
                    if not validate(cx).ok:
                        continue
                    apply_consolidate(cx, Consolidate(thick="J", thin="F"))
                    valid[t_b.loops > 0] += 1
    assert valid == {False: 823, True: 473}


# ---------------------------------------------------------------------------
# Untelescoping
# ---------------------------------------------------------------------------

def _outcome(thin_id="F0"):
    return UntelescopeOutcome(
        h_minus=ThickSpec("Hm", lower=BodySpec("cmd"), upper=BodySpec("cmu")),
        h_plus=ThickSpec("Hp", lower=BodySpec("cpd"), upper=BodySpec("cpu")),
        thin_id=thin_id,
    )


def test_untelescope_four_ended_spheres(spheres_with_four_ends):
    """The sphere splitting with four boundary spheres untelescopes along two
    separating discs; every index is pinned by hand below."""
    cx = spheres_with_four_ends
    assert complexity(cx) == (24,)
    move = Untelescope(
        thick="H",
        disc_minus=disc(0, True, (0, 0), (0, 0), (("S2",), ("S1",))),
        disc_plus=disc(0, True, (0, 0), (0, 0), (("S4",), ("S3",))),
        outcome=_outcome(),
    )
    out = apply_untelescope(cx, move)
    assert validate(out).ok
    assert set(out.thick) == {"Hm", "Hp"}
    assert set(out.thin) == {"F0"}
    assert out.thin["F0"].surface == Surface(0, 0)
    # body indices around the split
    assert body_index(out, "cmd") == 6
    assert body_index(out, "cmu") == 12
    assert body_index(out, "cpd") == 12
    assert body_index(out, "cpu") == 6
    # ports were absorbed across: the discarded sides travel to the far body
    assert out.cbs["cmu"].minus == ("F0", "S3")
    assert out.cbs["cpd"].minus == ("F0", "S1")
    # aggregate indices
    assert index_down(out, "Hm") == 6
    assert index_up(out, "Hm") == 12
    assert index_down(out, "Hp") == 12
    assert index_up(out, "Hp") == 6
    assert complexity(out) == (18, 18)
    assert compare(complexity(out), (24,)) == LT
    # no certified product touches the thin level, so the staged sequence
    # adds nothing
    assert elementary_thinning_sequence(cx, move) == out


def test_untelescope_genus_two_handlebody():
    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")],
                       cbs=[cb("u", "H"), cb("d", "H")])
    move = Untelescope("H", disc_minus=disc(0), disc_plus=disc(0),
                       outcome=_outcome())
    out = apply_untelescope(cx, move)
    assert out.thick["Hm"].surface == Surface(1, 0)
    assert out.thick["Hp"].surface == Surface(1, 0)
    assert out.thin["F0"].surface == Surface(0, 0)
    assert body_index(out, "cmd") == 6 and body_index(out, "cpd") == 12
    assert body_index(out, "cmd") + body_index(out, "cpd") == body_index(cx, "d") + 6
    assert body_index(out, "cmu") + body_index(out, "cpu") == body_index(cx, "u") + 6
    assert complexity(out) == (18, 18)


def test_untelescope_rejects_stale_ids(spheres_with_four_ends):
    move = Untelescope(
        thick="H",
        disc_minus=disc(0, True, (0, 0), (0, 0), (("S2",), ("S1",))),
        disc_plus=disc(0, True, (0, 0), (0, 0), (("S4",), ("S3",))),
        outcome=UntelescopeOutcome(
            h_minus=ThickSpec("H", lower=BodySpec("cmd"), upper=BodySpec("cmu")),
            h_plus=ThickSpec("Hp", lower=BodySpec("cpd"), upper=BodySpec("cpu")),
            thin_id="F0"),
    )
    with pytest.raises(MoveRejected) as err:
        apply_untelescope(spheres_with_four_ends, move)
    assert err.value.rule == "untelescope.fresh_ids"


def test_untelescope_rejects_bad_split(spheres_with_four_ends):
    move = Untelescope(
        thick="H",
        disc_minus=disc(0, True, (0, 0), (0, 0), (("S2", "S1"), ("S1",))),
        disc_plus=disc(0, True, (0, 0), (0, 0), (("S4",), ("S3",))),
        outcome=_outcome(),
    )
    with pytest.raises(MoveRejected) as err:
        apply_untelescope(spheres_with_four_ends, move)
    assert err.value.rule == "disc.split"


def test_untelescope_rejects_cutting_off_a_ball():
    cx = build_complex(thick=[thick("H", 1, 0, "u", "d")],
                       cbs=[cb("u", "H"), cb("d", "H")])
    move = Untelescope(
        "H",
        disc_minus=disc(0, True, (1, 0), (0, 0), ((), ())),
        disc_plus=disc(0),
        outcome=_outcome(),
    )
    with pytest.raises(MoveRejected) as err:
        apply_untelescope(cx, move)
    assert err.value.rule == "boundary_reduce.trivial_piece"


def _three_chain():
    """J -> H -> K with genus-1 thin levels; untelescoping H exposes one
    product on each side."""
    return build_complex(
        thick=[thick("J", 2, 0, "Ju", "Jd"), thick("H", 2, 0, "Hu", "Hd"),
               thick("K", 2, 0, "Ku", "Kd")],
        thin=[thin("Q", 1, 0, from_cb="Ju", to_cb="Hd"),
              thin("R", 1, 0, from_cb="Hu", to_cb="Kd")],
        cbs=[cb("Ju", "J", minus=("Q",)), cb("Jd", "J"),
             cb("Hd", "H", minus=("Q",)), cb("Hu", "H", minus=("R",)),
             cb("Kd", "K", minus=("R",)), cb("Ku", "K")],
    )


def test_elementary_thinning_consolidates_exposed_products():
    cx = _three_chain()
    assert validate(cx).ok
    assert complexity(cx) == (36, 36, 36)
    move = Untelescope("H", disc_minus=disc(0), disc_plus=disc(0),
                       outcome=_outcome())
    mid = apply_untelescope(cx, move)
    # the split's lower body is a product onto the old thin level Q
    assert mid.cbs["cmd"].product_certificate
    out = elementary_thinning_sequence(cx, move)
    assert set(out.thick) == {"J", "K"}
    assert set(out.thin) == {"F0"}
    assert body_index(out, "Ju") == 18
    assert body_index(out, "Kd") == 18
    assert complexity(out) == (36, 36)
    assert compare(complexity(out), complexity(cx)) == LT


def test_elementary_thinning_requires_reduced_input():
    cx = _consolidatable_chain()
    move = Untelescope("H", disc_minus=disc(0), disc_plus=disc(0),
                       outcome=_outcome())
    with pytest.raises(MoveRejected) as err:
        elementary_thinning_sequence(cx, move)
    assert err.value.rule == "elementary.pre"


# ---------------------------------------------------------------------------
# Destabilization family
# ---------------------------------------------------------------------------

def test_destabilize_stab_genus_two():
    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")],
                       cbs=[cb("u", "H"), cb("d", "H")])
    out = apply_destabilize(cx, Destabilize("stab", "H"))
    assert out.thick["H"].surface == Surface(1, 0)
    assert body_index(out, "u") == 6 and body_index(out, "d") == 6
    assert complexity(out) == (12,)


def test_destabilize_stab_needs_genus():
    cx = build_complex(thick=[thick("H", 0, 2, "u", "d")],
                       cbs=[cb("u", "H", b=1), cb("d", "H", b=1)])
    with pytest.raises(MoveRejected) as err:
        apply_destabilize(cx, Destabilize("stab", "H"))
    assert err.value.rule == "destabilize.genus"


def test_destabilize_merid_stab():
    cx = _solid_torus()
    out = apply_destabilize(cx, Destabilize("merid_stab", "H"))
    assert out.thick["H"].surface == Surface(0, 2)
    assert out.cbs["u"].tangle == Tangle(bridges=1)
    assert body_index(out, "u") == 4
    assert complexity(out) == (8,)


def test_destabilize_boundary():
    cx = build_complex(
        thick=[thick("H", 2, 3, "u", "d")],
        boundary=[bdy("S", 0, 3, "u"), bdy("S2", 0, 3, "d")],
        cbs=[cb("u", "H", minus=("S",), v=3), cb("d", "H", minus=("S2",), v=3)],
    )
    assert body_index(cx, "u") == 18 and body_index(cx, "d") == 18
    out = apply_destabilize(cx, Destabilize("bdy", "H", side="up", boundary_ids=("S",)))
    assert out.thick["H"].surface == Surface(2, 0)
    assert out.boundary["S"].owner == "d"
    assert sorted(out.cbs["d"].minus) == ["S", "S2"]
    assert body_index(out, "u") == 12 and body_index(out, "d") == 12
    assert complexity(out) == (24,)


def test_destabilize_meridional_boundary():
    cx = build_complex(
        thick=[thick("H", 1, 3, "u", "d")],
        boundary=[bdy("S", 0, 3, "u"), bdy("S2", 0, 3, "d")],
        cbs=[cb("u", "H", minus=("S",), v=3), cb("d", "H", minus=("S2",), v=3)],
    )
    assert complexity(cx) == (24,)
    out = apply_destabilize(cx, Destabilize("merid_bdy", "H", side="up", boundary_ids=("S",)))
    assert out.thick["H"].surface == Surface(1, 2)
    assert body_index(out, "u") == 10 and body_index(out, "d") == 10
    assert complexity(out) == (20,)


def test_destabilize_ghost_boundary():
    cx = build_complex(
        thick=[thick("H", 3, 2, "u", "d")],
        boundary=[bdy("B", 0, 4, "u")],
        cbs=[cb("u", "H", minus=("B",), v=2, gh=1), cb("d", "H", b=1)],
    )
    assert body_index(cx, "u") == 20 and body_index(cx, "d") == 22
    out = apply_destabilize(
        cx, Destabilize("ghost_bdy", "H", side="up", boundary_ids=("B",), ghost_arcs=1))
    assert out.thick["H"].surface == Surface(2, 0)
    assert out.cbs["d"].minus == ("B",)
    assert body_index(out, "u") == 12 and body_index(out, "d") == 10
    assert complexity(out) == (22,)


def test_destabilize_global_boundary_sphere_guard():
    cx = build_complex(
        thick=[thick("H", 1, 0, "u", "d")],
        boundary=[bdy("B", 0, 0, "u")],
        cbs=[cb("u", "H", minus=("B",)), cb("d", "H")],
    )
    assert validate(cx).ok  # small boundary spheres are representable...
    with pytest.raises(MoveRejected) as err:
        apply_destabilize(cx, Destabilize("stab", "H"))  # ...but block destabilizing
    assert err.value.rule == "destabilize.boundary_sphere"


def _sphere_blocked_and_free():
    """Two components: A, whose upper body owns a twice-punctured boundary
    sphere, and B, a genus-1 level with empty tangles."""
    return build_complex(
        thick=[thick("HA", 1, 2, "ua", "da"), thick("HB", 1, 0, "ub", "db")],
        boundary=[bdy("S", 0, 2, "ua")],
        cbs=[cb("ua", "HA", minus=("S",), v=2), cb("da", "HA", b=1),
             cb("ub", "HB"), cb("db", "HB")],
    )


def test_destabilize_boundary_sphere_guard_is_per_component():
    cx = _sphere_blocked_and_free()
    assert validate(cx).ok
    for variant in ("stab", "merid_stab"):
        with pytest.raises(MoveRejected) as err:
            apply_destabilize(cx, Destabilize(variant, "HA"))
        assert err.value.rule == "destabilize.boundary_sphere"
        assert "'S'" in str(err.value)
    assert complexity(apply_destabilize(cx, Destabilize("stab", "HB"))) == (22, 0)
    assert complexity(apply_destabilize(cx, Destabilize("merid_stab", "HB"))) == (22, 8)
    # the proposer offers destabilizations exactly where the rule allows them
    offered = {m.thick for m in enumerate_moves(cx) if isinstance(m, Destabilize)}
    assert offered == {"HB"}


def test_destabilize_ghost_needs_ghost_arcs():
    cx = build_complex(
        thick=[thick("H", 2, 3, "u", "d")],
        boundary=[bdy("S", 0, 3, "u"), bdy("S2", 0, 3, "d")],
        cbs=[cb("u", "H", minus=("S",), v=3), cb("d", "H", minus=("S2",), v=3)],
    )
    with pytest.raises(MoveRejected):
        apply_destabilize(cx, Destabilize("ghost_bdy", "H", side="up",
                                          boundary_ids=("S",), ghost_arcs=1))


# ---------------------------------------------------------------------------
# Unperturbing
# ---------------------------------------------------------------------------

def _two_bridge_sphere():
    return build_complex(thick=[thick("H", 0, 4, "u", "d")],
                         cbs=[cb("u", "H", b=2), cb("d", "H", b=2)])


def test_unperturb_two_bridge():
    cx = _two_bridge_sphere()
    out = apply_unperturb(cx, Unperturb("H", near_side="up"))
    assert out.thick["H"].surface == Surface(0, 2)
    assert out.cbs["u"].tangle == Tangle(bridges=1)
    assert out.cbs["d"].tangle == Tangle(bridges=1)
    assert complexity(out) == (8,)


def test_unperturb_vertical_bridge_case():
    cx = build_complex(
        thick=[thick("H", 0, 4, "u", "d")],
        boundary=[bdy("B", 0, 2, "d")],
        cbs=[cb("u", "H", b=2), cb("d", "H", minus=("B",), v=2, b=1)],
    )
    out = apply_unperturb(cx, Unperturb("H", near_side="up",
                                        merge_case="vertical_bridge"))
    assert out.cbs["d"].tangle == Tangle(verticals=2, bridges=0)
    assert out.cbs["u"].tangle == Tangle(bridges=1)


def test_unperturb_needs_bridges():
    cx = build_complex(
        thick=[thick("H", 0, 2, "u", "d")],
        boundary=[bdy("B", 0, 2, "d")],
        cbs=[cb("u", "H", b=1), cb("d", "H", minus=("B",), v=2)],
    )
    with pytest.raises(MoveRejected) as err:
        apply_unperturb(cx, Unperturb("H", near_side="up"))
    assert err.value.rule == "unperturb.bridges"


# ---------------------------------------------------------------------------
# Removable components
# ---------------------------------------------------------------------------

def test_undo_removable_loop_pattern():
    cx = build_complex(thick=[thick("H", 1, 4, "u", "d")],
                       cbs=[cb("u", "H", b=2), cb("d", "H", b=2)])
    out = apply_undo_removable(cx, UndoRemovable("H", loop_side="down"))
    assert out.thick["H"].surface == Surface(1, 2)
    assert out.cbs["u"].tangle == Tangle(bridges=1)
    assert out.cbs["d"].tangle == Tangle(bridges=1, loops=1)
    assert compare(complexity(out), complexity(cx)) == LT


def test_undo_removable_loop_needs_genus():
    # on a sphere level the loop has nowhere to live: handle feasibility fails
    cx = _two_bridge_sphere()
    with pytest.raises(MoveRejected) as err:
        apply_undo_removable(cx, UndoRemovable("H", loop_side="down"))
    assert err.value.rule == "undo_removable.result_invalid"


def test_undo_removable_requires_punctures():
    cx = _solid_torus()
    with pytest.raises(MoveRejected) as err:
        apply_undo_removable(cx, UndoRemovable("H"))
    assert err.value.rule == "undo_removable.punctures"


def test_undo_removable_general_redistribution_checked():
    cx = build_complex(thick=[thick("H", 1, 4, "u", "d")],
                       cbs=[cb("u", "H", b=2), cb("d", "H", b=2)])
    bad = UndoRemovable("H", tangle_up=Tangle(bridges=2), tangle_down=Tangle(bridges=1))
    with pytest.raises(MoveRejected) as err:
        apply_undo_removable(cx, bad)
    assert err.value.rule == "undo_removable.result_invalid"
    ok = UndoRemovable("H", tangle_up=Tangle(bridges=1), tangle_down=Tangle(bridges=1, loops=1))
    assert validate(apply_undo_removable(cx, ok)).ok


# ---------------------------------------------------------------------------
# Reducedness and dispatch
# ---------------------------------------------------------------------------

def test_is_reduced_product_witness():
    cx = _consolidatable_chain()
    reduced, witness = is_reduced(cx)
    assert not reduced
    assert witness == Consolidate(thick="J", thin="F")


def test_is_reduced_bridge_sphere(one_bridge_sphere):
    reduced, witness = is_reduced(one_bridge_sphere, proposer=lambda cx: [])
    assert reduced and witness is None


def test_is_reduced_consults_proposer():
    cx = _two_bridge_sphere()
    move = Unperturb("H", near_side="up")
    reduced, witness = is_reduced(cx, proposer=lambda c: [move])
    assert not reduced and witness == move


def test_is_reduced_agrees_with_brute_force_scan():
    import random

    from widthcalc.gen import GenConfig, enumerate_moves, gen_complex
    from widthcalc.moves import apply_move

    rng = random.Random(13)
    cfg = GenConfig(max_thick=3)
    for _ in range(60):
        cx = gen_complex(cfg, rng)
        reduced, witness = is_reduced(cx, enumerate_moves)
        # independent scan: any certified product on a thin level, or any
        # applicable move of the three reducing kinds
        product_hit = any(
            c.product_certificate and len(c.minus) == 1 and c.minus[0] in cx.thin
            for c in cx.cbs.values())
        applicable = False
        for move in enumerate_moves(cx):
            if isinstance(move, (Consolidate, Untelescope)):
                continue
            try:
                apply_move(cx, move)
            except MoveRejected:
                continue
            applicable = True
            break
        assert reduced == (not product_hit and not applicable)
        assert (witness is None) == reduced


def test_apply_move_dispatch_and_json_round_trip():
    cx = _consolidatable_chain()
    moves = [
        Consolidate(thick="J", thin="F"),
        Destabilize("merid_stab", "H"),
        Unperturb("H", near_side="down", merge_case="vertical_bridge"),
        UndoRemovable("H", loop_side="up", tangle_up=Tangle(bridges=1),
                      tangle_down=Tangle(verticals=2)),
        Untelescope("H", disc_minus=disc(0),
                    disc_plus=disc(1, True, (1, 0), (2, 2), (("B1",), ("F",))),
                    outcome=_outcome()),
    ]
    for m in moves:
        assert parse_move(emit_move(m)) == m
    out = apply_move(cx, moves[0])
    assert validate(out).ok


_ID_KEYS = ("thick", "thin", "boundary_ids", "id", "thin_id", "ports")


def _document_ids(doc) -> list[str]:
    """The id strings of a move document: every value under an id key, at
    any depth, lists flattened."""
    def flat(val):
        return [val] if isinstance(val, str) else [s for item in val for s in flat(item)]
    if isinstance(doc, list):
        return [i for item in doc for i in _document_ids(item)]
    if not isinstance(doc, dict):
        return []
    return [i for key, val in doc.items()
            for i in (flat(val) if key in _ID_KEYS else _document_ids(val))]


def test_named_ids_are_the_ids_of_the_move_document():
    """``named_ids`` is the thick level, then exactly the other ids the
    move's document holds, for every offer on the golden corpus and for
    hand-built moves with split ports and lists.  It is None only for an
    untelescope while a certified product touches a thin level, and for an
    offer that is not a move."""
    def check(cx, m):
        named = moves.named_ids(cx, m)
        if named is None:
            assert isinstance(m, Untelescope) and moves.find_product_on_thin(cx) is not None
            return "whole"
        assert named[0] == m.thick
        assert sorted(named) == sorted(_document_ids(emit_move(m)))
        ports = isinstance(m, Untelescope) and any(
            d.split is not None and any(d.split.ports) for d in (m.disc_minus, m.disc_plus))
        return type(m).__name__ + "+ports" * ports

    seen = Counter()
    rng = random.Random(7)
    cfg = GenConfig(max_thick=4, seed=7)
    for _ in range(200):
        cx = gen_complex(cfg, rng)
        for m in enumerate_moves(cx):
            seen[check(cx, m)] += 1
    assert set(seen) == {"Consolidate", "Untelescope", "Untelescope+ports", "Destabilize",
                         "Unperturb", "UndoRemovable", "whole"}, seen

    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])
    listed = Untelescope("H", disc_minus=DiscData(0, True, SplitData([1, 0], [0, 0], [["B1"], []])),
                         disc_plus=disc(1, True, (1, 0), (2, 2), (("B2", "B3"), ("F",))),
                         outcome=_outcome())
    assert moves.named_ids(cx, listed) == [
        "H", "Hm", "Hp", "F0", "cmd", "cmu", "cpd", "cpu", "B1", "B2", "B3", "F"]
    for m in (listed, Destabilize("ghost_bdy", "H", boundary_ids=["B1", "B2"], ghost_arcs=1),
              Consolidate(thick="J", thin="F"), UndoRemovable("H")):
        assert check(cx, m) != "whole"
    product = _consolidatable_chain()
    assert moves.named_ids(product, listed) is None
    assert moves.named_ids(product, Consolidate(thick="J", thin="F")) == ["J", "F"]
    assert moves.named_ids(cx, emit_move(listed)) is None


def test_every_accepted_move_yields_valid_smaller_complex():
    cases = []
    cx1 = _consolidatable_chain()
    cases.append((cx1, Consolidate(thick="J", thin="F")))
    cx2 = build_complex(thick=[thick("H", 2, 0, "u", "d")],
                        cbs=[cb("u", "H"), cb("d", "H")])
    cases.append((cx2, Destabilize("stab", "H")))
    cases.append((cx2, Untelescope("H", disc_minus=disc(0), disc_plus=disc(0),
                                   outcome=_outcome())))
    cases.append((_two_bridge_sphere(), Unperturb("H", near_side="down")))
    for cx, move in cases:
        out = apply_move(cx, move)
        assert validate(out).ok
        assert compare(complexity(out), complexity(cx)) == LT


# ---------------------------------------------------------------------------
# Golden decisions on a seeded corpus
# ---------------------------------------------------------------------------

GOLDEN_DIGEST = "ecc0dd3297be0b7f44d47a0c2ee4c1a3e02b78a2e0f7ab887853db0deb201897"


def test_golden_decisions_on_seeded_corpus():
    """Every candidate the enumerator offers on 200 seeded instances keeps its
    accept/reject decision, its first failing rule, its result and vector,
    and its move document; each document also round-trips through the
    parser."""
    rng = random.Random(7)
    cfg = GenConfig(max_thick=4, seed=7)
    digest = hashlib.sha256()
    candidates = accepted = 0
    for _ in range(200):
        cx = gen_complex(cfg, rng)
        for m in enumerate_moves(cx):
            doc = emit_move(m)
            assert parse_move(doc) == m
            try:
                out = apply_move(cx, m)
            except MoveRejected as err:
                outcome = ["rejected", err.rule]
            else:
                outcome = ["ok", emit_complex(out), list(complexity(out))]
                accepted += 1
            candidates += 1
            digest.update(json.dumps([doc, outcome], sort_keys=True).encode())
    assert (candidates, accepted) == (4609, 1854)
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_gate_validation_of_every_result_equals_a_full_validation(monkeypatch):
    """Whatever path the gate takes to validate a move's result, what it
    keeps on the result equals a fresh full validation: the report with every
    violation in order, the body indices, the flow digraph and its order.
    A result whose rebuilt bodies fail their own checks is rejected without
    a validation; its message, formatted when read, quotes the report of a
    fresh full validation.  Covers every gate result of the golden corpus and
    of the first ten steps of a 25-level ``thin`` run, valid and invalid."""
    real = moves.validate
    counts = {"valid": 0, "invalid": 0, "formatted": 0}
    reading = {"message": False, "out": None}  # the result a message validates

    def recording(out, **kwargs):
        report = real(out, **kwargs)
        assert model.validation(out) == model._validation(unchecked(out))
        if reading["message"]:
            reading["out"] = out
        else:
            counts["valid" if report.ok else "invalid"] += 1
        return report

    def checked_apply(cx, m):
        try:
            return apply_move(cx, m)
        except MoveRejected as err:
            if err.rule.endswith(".result_invalid"):
                reading.update(message=True, out=None)
                message = str(err)
                reading["message"] = False
                assert reading["out"] is not None
                assert message == f"{err.rule}: {model._validation(unchecked(reading['out'])).report}"
                counts["formatted"] += 1
            raise

    monkeypatch.setattr(moves, "validate", recording)
    monkeypatch.setattr(search, "apply_move", checked_apply)
    monkeypatch.setattr(moves, "apply_move", checked_apply)
    rng = random.Random(7)
    cfg = GenConfig(max_thick=4, seed=7)
    for _ in range(200):
        cx = gen_complex(cfg, rng)
        for m in enumerate_moves(cx):
            try:
                checked_apply(cx, m)
            except MoveRejected:
                pass
    assert counts == {"valid": 1887, "invalid": 0, "formatted": 614}
    _final, trace = thin_run(gen_complex(GenConfig(max_thick=48, seed=0)), enumerate_moves, cap=10)
    assert len(trace.steps) == 10
    assert counts["valid"] > 1887 and counts["formatted"] > 614


def test_gate_checks_rebuilt_bodies_first_and_formats_the_report_when_read(one_bridge_sphere, monkeypatch):
    """A candidate whose rebuilt body fails its own checks is rejected before
    its result is built, and the message builds and validates it when first
    read.  A result whose rebuilt bodies pass but which fails a
    whole-complex check is built and validated, and rejected under the same
    rule."""
    cx = one_bridge_sphere
    broken = replace(cx.cbs["u"], tangle=Tangle(bridges=2), ball_certificate=False)
    stray = BoundaryLevel("S", Surface(0, 1), owner="u")
    bad_body = replace(cx, cbs={**cx.cbs, "u": broken})
    bad_level = replace(cx, boundary={"S": stray})
    built = []
    real = model.Complex.__post_init__

    def recording(self):
        real(self)
        built.append(self)

    monkeypatch.setattr(model.Complex, "__post_init__", recording)
    for out, boundary, cbs, validated in (
            (bad_body, {}, {"d": cx.cbs["d"], "u": broken}, False),
            (bad_level, {"S": stray}, {"d": cx.cbs["d"], "u": cx.cbs["u"]}, True)):
        @moves._gated("probe")
        def probe(_cx, _m):
            return (*boundary.values(), *cbs.values()), frozenset(), None

        built.clear()
        with pytest.raises(MoveRejected) as err:
            probe(cx, None)
        assert err.value.rule == "probe.result_invalid"
        assert len(built) == validated
        assert all("_validation" in result.__dict__ for result in built)
        assert str(err.value) == f"probe.result_invalid: {model._validation(out).report}"
        assert built[-1] == out and "_validation" in built[-1].__dict__
        assert not model.validate(out).ok


def test_result_invalid_rejections_build_no_complex(monkeypatch):
    """A destabilize or undo_removable candidate whose rebuilt bodies fail
    their own checks is decided on the records the move changes, before any
    ``Complex`` is built; its message, formatted when read, builds one."""
    rng = random.Random(7)
    cfg = GenConfig(max_thick=4, seed=7)
    built = 0
    real = model.Complex.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        real(self)

    monkeypatch.setattr(model.Complex, "__post_init__", counting)
    rejected = Counter()
    for _ in range(200):
        cx = gen_complex(cfg, rng)
        for m in enumerate_moves(cx):
            if not isinstance(m, (Destabilize, UndoRemovable)):
                continue
            built = 0
            try:
                apply_move(cx, m)
            except MoveRejected as err:
                if err.rule.endswith(".result_invalid"):
                    assert built == 0, err.rule
                    rejected[err.rule] += 1
                    str(err)
                    assert built == 1
    assert rejected == {"destabilize.result_invalid": 488, "undo_removable.result_invalid": 126}


_BUILDS = {Consolidate: apply_consolidate, Untelescope: apply_untelescope,
           Destabilize: apply_destabilize, Unperturb: apply_unperturb,
           UndoRemovable: apply_undo_removable}
_counts = st.integers(-1, 4)
_tangles = st.builds(Tangle, _counts, _counts, _counts, _counts)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.tuples(_tangles, _tangles), max_size=4))
def test_gate_decides_rebuilt_bodies_as_body_passes_on_the_built_result(seed, tangles):
    """For every candidate that passes its kind's pre-checks, the gate's
    decision on the changed records, before any complex is built, is
    whether every rebuilt body of the built result passes its own checks
    (the stopping ``_check_cb``), and the indices it keeps on the rebuilt
    bodies are the ones a full validation gives.  Candidates are the proposer's and general
    redistributions with drawn tangles."""
    cx = gen_complex(GenConfig(max_thick=4, seed=seed))
    candidates = enumerate_moves(cx)
    for t_id, (up, down) in zip(sorted(cx.thick), tangles):
        candidates.append(UndoRemovable(t_id, tangle_up=up, tangle_down=down))
        candidates.append(Destabilize("stab", t_id, tangle_up=up, tangle_down=down))
    for m in candidates:
        try:
            put, drop, _check = _BUILDS[type(m)].__wrapped__(cx, m)
        except MoveRejected:
            continue
        maps = moves._maps(cx, put, drop)
        passed = moves._check_rebuilt(maps)
        out = moves._build(maps)
        rebuilt = list(maps[3].put)
        reads = {cb_id: model._reads(out.cbs[cb_id], out.thick.get, out.thin.get, out.boundary.get)
                 for cb_id in rebuilt}
        assert passed == all(
            model._check_cb(out.cbs[cb_id], reads[cb_id], None) is not None for cb_id in rebuilt)
        if passed:
            checked = {cb_id: out.cbs[cb_id]._passed[1] for cb_id in rebuilt}
            body = model._validation(unchecked(out)).body
            assert checked == {cb_id: body[cb_id] for cb_id in rebuilt}


def test_gate_reads_each_rebuilt_body_once(monkeypatch):
    """Work-count gate: the gate looks up the levels of each rebuilt body
    once, and the same reads set its certificate flags and run its own
    checks.  Looking them up for each apart read every body of at most one
    minus port twice."""
    reads = Counter()
    real = model._reads

    def counting(cb, *args):
        reads[cb.id] += 1
        return real(cb, *args)

    monkeypatch.setattr(model, "_reads", counting)
    monkeypatch.setattr(moves, "_reads", counting)
    rebuilt = narrow = 0
    for seed in range(20):
        cx = gen_complex(GenConfig(max_thick=4, seed=seed))
        for m in enumerate_moves(cx):
            try:
                put, drop, _check = _BUILDS[type(m)].__wrapped__(cx, m)
            except MoveRejected:
                continue
            maps = moves._maps(cx, put, drop)
            reads.clear()
            moves._check_rebuilt(maps)
            assert reads == dict.fromkeys(maps[3].put, 1)
            rebuilt += len(maps[3].put)
            narrow += sum(len(body.minus) <= 1 for body in maps[3].put.values())
    assert rebuilt > narrow > 0


def test_a_build_writes_exactly_the_records_it_puts_and_the_ids_it_drops():
    """For every offer on 300 seeded instances that passes its kind's
    pre-checks, the ids whose record in the built result is new, gone or
    another object than the input's are exactly the ids of the records the
    build puts and the ids it drops: a build states its whole write set."""
    def records(cx):
        return {rec.id: rec for part in (cx.thick, cx.thin, cx.boundary, cx.cbs) for rec in part.values()}

    builds = 0
    for seed in range(300):
        cx = gen_complex(GenConfig(max_thick=5, seed=seed))
        before = records(cx)
        for m in enumerate_moves(cx):
            try:
                put, drop, _check = _BUILDS[type(m)].__wrapped__(cx, m)
            except MoveRejected:
                continue
            after = records(moves._build(moves._maps(cx, put, drop)))
            written = {i for i in before.keys() | after.keys() if before.get(i) is not after.get(i)}
            assert written == {rec.id for rec in put} | drop, m
            builds += 1
    assert builds == 5162


def test_boundary_reduce_keeps_outcomes_per_exact_disc(monkeypatch):
    """A reduction or a rejection is kept on the instance per body and disc
    object and given again, the rejection with the same rule and message.
    An equal but distinct disc is reduced again to the same outcome; discs
    whose fields differ in type get their own messages, since messages
    format the fields; an unhashable disc is kept per object too."""
    runs = 0
    real = moves.body_index

    def counting(cx, cb_id):
        nonlocal runs
        runs += 1
        return real(cx, cb_id)

    monkeypatch.setattr(moves, "body_index", counting)
    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])

    def rejection(d):
        with pytest.raises(MoveRejected) as err:
            boundary_reduce(cx, "u", d)
        return err.value.rule, str(err.value)

    one = ("disc.split", "disc.split: genus parts 1+0 != 2")
    first = disc(0, True, (1, 0), (0, 0), ((), ()))
    assert rejection(first) == one
    assert rejection(first) == one
    assert runs == 1
    assert rejection(disc(0, True, (1, 0), (0, 0), ((), ()))) == one
    assert runs == 2
    assert rejection(disc(0, True, (True, 0), (0, 0), ((), ()))) \
        == ("disc.split", "disc.split: genus parts True+0 != 2")
    assert rejection(disc(0, True, (1.0, 0), (0, 0), ((), ()))) \
        == ("disc.split", "disc.split: genus parts 1.0+0 != 2")
    assert runs == 4
    assert rejection(disc(2)) == ("disc.punctures", "disc.punctures: disc meets the graph 0 or 1 times, not 2")
    assert rejection(DiscData(2.0, False)) \
        == ("disc.punctures", "disc.punctures: disc meets the graph 0 or 1 times, not 2.0")
    assert runs == 6

    split = disc(0, True, (1, 1), (0, 0), ((), ()))
    red = boundary_reduce(cx, "u", split)
    assert boundary_reduce(cx, "u", split) is red
    assert boundary_reduce(cx, "d", split) is not red
    assert runs == 8
    unhashable = DiscData(0, True, SplitData([1, 1], (0, 0)))
    kept = boundary_reduce(cx, "u", unhashable)
    assert kept == red
    assert boundary_reduce(cx, "u", unhashable) is kept
    assert runs == 9


def test_boundary_reduce_never_gives_a_dead_disc_outcome():
    """Fifty short-lived discs with different outcomes, reduced on one body
    one after another, each get their own outcome, although a freed disc's
    id may be taken by the next: the kept entry holds its disc alive."""
    cx = build_complex(thick=[thick("H", 2, 0, "u", "d")], cbs=[cb("u", "H"), cb("d", "H")])

    def outcome(reduce, d):
        try:
            return reduce(cx, "u", d)
        except MoveRejected as err:
            return err.rule, str(err)

    for genus in range(50):
        d = disc(0, True, (genus, 0), (0, 0), ((), ()))
        assert outcome(boundary_reduce, d) == outcome(moves._boundary_reduce, d)
        del d  # freed before the next disc is made, which may then get its id


GOLDEN_REJECTIONS_DIGEST ="a7185dbfd95ade00be4e151dddaac52fd03e8c3e237620ba88fd43675232c788"


def test_golden_rejection_messages():
    """Every rejected candidate of the golden corpus keeps its rule and its
    message, byte for byte, however late the message is formatted."""
    rng = random.Random(7)
    cfg = GenConfig(max_thick=4, seed=7)
    digest = hashlib.sha256()
    rejected = 0
    for _ in range(200):
        cx = gen_complex(cfg, rng)
        for m in enumerate_moves(cx):
            try:
                apply_move(cx, m)
            except MoveRejected as err:
                digest.update(json.dumps([emit_move(m), err.rule, str(err)],
                                         sort_keys=True).encode())
                rejected += 1
    assert rejected == 4609 - 1854
    assert digest.hexdigest() == GOLDEN_REJECTIONS_DIGEST


GOLDEN_GATE_DIGEST = "fab69b350b182663265b538ac53000832e0871e8f51a3714e0d75c23449613e7"


def test_golden_gate_builds_and_rejections(monkeypatch):
    """Every complex built while the proposer's offers on 300 seeded
    instances are applied keeps the key order of each of its four maps, and
    every rejection keeps its rule and message.  The key order decides the
    order of violations in a ``result_invalid`` message, which formatting
    every message reads."""
    built = []
    real = model.Complex.__post_init__

    def recording(self):
        real(self)
        built.append([list(self.thick), list(self.thin), list(self.boundary), list(self.cbs)])

    monkeypatch.setattr(model.Complex, "__post_init__", recording)
    outcomes = []
    for seed in range(300):
        cx = gen_complex(GenConfig(max_thick=5, seed=seed))
        for m in enumerate_moves(cx):
            try:
                apply_move(cx, m)
            except MoveRejected as err:
                outcomes.append([err.rule, str(err)])
            else:
                outcomes.append("ok")
    assert (len(built), sum(outcome != "ok" for outcome in outcomes)) == (5243, 5719)
    digest = hashlib.sha256(json.dumps([built, outcomes]).encode())
    assert digest.hexdigest() == GOLDEN_GATE_DIGEST


# ---------------------------------------------------------------------------
# Every rejection a hand-built certificate can reach
# ---------------------------------------------------------------------------

@pytest.fixture
def ghost_handlebody():
    """A genus-3 level whose upper body holds four ghost arcs on two
    four-punctured boundary spheres; no small sphere blocks destabilizing."""
    return build_complex(thick=[thick("H", 3, 0, "u", "d")],
                         boundary=[bdy("S1", 0, 4, "u"), bdy("S2", 0, 4, "u")],
                         cbs=[cb("u", "H", minus=("S1", "S2"), gh=4), cb("d", "H")])


@pytest.fixture
def vertical_over_boundary():
    """A twice-punctured sphere whose upper body is two vertical arcs onto a
    boundary sphere: no bridge arc on that side."""
    return build_complex(thick=[thick("H", 0, 2, "u", "d")], boundary=[bdy("B", 0, 2, "u")],
                         cbs=[cb("u", "H", minus=("B",), v=2), cb("d", "H", b=1, ball=True)])


@pytest.fixture
def genus_two_over_boundaries():
    """A four-punctured genus-2 level: two bridge arcs above onto a genus-2
    boundary, four vertical arcs below onto a four-punctured sphere.  Cut
    along non-separating discs, the upper new body keeps the genus-2
    boundary under a genus-1 level, which no tangle fits."""
    return build_complex(thick=[thick("H", 2, 4, "u", "d")],
                         boundary=[bdy("B0", 2, 0, "u"), bdy("B1", 0, 4, "d")],
                         cbs=[cb("u", "H", minus=("B0",), b=2), cb("d", "H", minus=("B1",), v=4)])


def _split_lower(split: SplitData | None, separating: bool = True) -> Untelescope:
    """An untelescope of the four-ended sphere whose lower disc carries ``split``."""
    return Untelescope("H", disc_minus=DiscData(0, separating, split),
                       disc_plus=disc(0, True, (0, 0), (0, 0), (("S4",), ("S3",))), outcome=_outcome())


def _untelescope_doc(genus) -> dict:
    doc = emit_move(_split_lower(SplitData((0, 0), (0, 0), (("S2",), ("S1",)))))
    doc["disc_minus"]["split"]["genus"] = genus
    return doc


_SIDE = "side must be 'up' or 'down', not 'left'"
_REJECTIONS = [
    # (fixture, move, rule, message)
    ("one_bridge_sphere", Consolidate("X", "F"), "consolidate.thick", "unknown thick level 'X'"),
    ("one_bridge_sphere", Untelescope("X", disc(0), disc(0), _outcome()), "untelescope.thick",
     "unknown thick level 'X'"),
    ("ghost_handlebody", Destabilize("stab", "X"), "destabilize.thick", "unknown thick level 'X'"),
    ("one_bridge_sphere", Unperturb("X"), "unperturb.thick", "unknown thick level 'X'"),
    ("one_bridge_sphere", UndoRemovable("X"), "undo_removable.thick", "unknown thick level 'X'"),
    ("ghost_handlebody", Destabilize("twist", "H"), "destabilize.variant", "unknown variant 'twist'"),
    ("ghost_handlebody", Destabilize("stab", "H", ghost_arcs=1), "destabilize.params",
     "stab variants take no boundary levels or ghost arcs"),
    ("ghost_handlebody", Destabilize("bdy", "H", boundary_ids=("S1",), ghost_arcs=1), "destabilize.params",
     "plain boundary variants take no ghost arcs"),
    ("ghost_handlebody", Destabilize("merid_bdy", "H", boundary_ids=("S1", "S2")), "destabilize.params",
     "boundary variants name exactly one boundary level"),
    ("ghost_handlebody", Destabilize("ghost_bdy", "H", boundary_ids=("S1",)), "destabilize.params",
     "ghost variants need at least one ghost arc"),
    ("ghost_handlebody", Destabilize("merid_ghost_bdy", "H", ghost_arcs=1), "destabilize.params",
     "ghost arcs attach to boundary levels; name them"),
    ("ghost_handlebody", Destabilize("ghost_bdy", "H", boundary_ids=("S1", "S2", "X"), ghost_arcs=1),
     "destabilize.params", "1 ghost arcs cannot connect 3 boundary levels"),
    ("ghost_handlebody", Destabilize("ghost_bdy", "H", boundary_ids=("S1", "S1"), ghost_arcs=1),
     "destabilize.params", "repeated boundary level"),
    ("ghost_handlebody", Destabilize("bdy", "H", side="down", boundary_ids=("S1",)), "destabilize.params",
     "'S1' is not a boundary level of the down body"),
    ("ghost_handlebody", Destabilize("ghost_bdy", "H", boundary_ids=("S1", "S2"), ghost_arcs=5),
     "destabilize.params", "side body has only 4 ghost arcs"),
    ("ghost_handlebody", Destabilize("ghost_bdy", "H", boundary_ids=("S1",), ghost_arcs=3),
     "destabilize.params", "3 ghost arcs need 6 punctures on the named levels"),
    ("one_bridge_sphere", Unperturb("H", merge_case="twist"), "unperturb.case", "unknown merge case 'twist'"),
    ("ghost_handlebody", Unperturb("H"), "unperturb.punctures", "the level meets the graph fewer than twice"),
    ("one_bridge_sphere", Unperturb("H", near_side="left"), "move.side", _SIDE),
    ("one_bridge_sphere", Unperturb("H"), "unperturb.bridges", "bridge-bridge merge needs two far bridge arcs"),
    ("one_bridge_sphere", Unperturb("H", merge_case="vertical_bridge"), "unperturb.verticals",
     "vertical-bridge merge needs a far vertical arc"),
    ("vertical_over_boundary", UndoRemovable("H"), "undo_removable.bridges",
     "loop pattern needs a bridge arc on each side"),
    ("one_bridge_sphere", UndoRemovable("H", tangle_up=Tangle()), "undo_removable.redistribution",
     "a general redistribution supplies both tangles"),
    ("one_bridge_sphere", UndoRemovable("H", loop_side="left"), "move.side", _SIDE),
    ("spheres_with_four_ends", _split_lower(SplitData((0, 0), (0, 0)), separating=False), "disc.split",
     "non-separating disc carries no split"),
    ("spheres_with_four_ends", _split_lower(None), "disc.split", "separating disc needs split data"),
    ("spheres_with_four_ends", _split_lower(SplitData((-1, 1), (0, 0), (("S2",), ("S1",)))), "disc.split",
     "split parts must be non-negative"),
    ("spheres_with_four_ends", _split_lower(SplitData((0, 0), (1, 0), (("S2",), ("S1",)))), "disc.split",
     "puncture parts 1+0 != 0"),
    ("spheres_with_four_ends", _split_lower(SplitData((0, 0), (0, 0), (("S2",), ("S1",)), (Tangle(1), Tangle()))),
     "disc.split", "tangle sides must sum to the body tangle"),
    ("one_bridge_sphere", UndoRemovable("H", loop_side="left", tangle_up=Tangle(), tangle_down=Tangle()),
     "move.side", _SIDE),
    ("one_bridge_sphere", Consolidate("H", "X"), "consolidate.thin", "unknown thin level 'X'"),
    ("diamond_four", Consolidate("H", "FA"), "consolidate.product",
     "no product-certified body of 'H' touches 'FA'"),
    ("ghost_handlebody", Destabilize("ghost_bdy", "H", boundary_ids=("S1",), ghost_arcs=2),
     "destabilize.tangle", "no feasible tangle for the near body"),
    ("ghost_handlebody", Destabilize("ghost_bdy", "H", boundary_ids=("S1", "S2"), ghost_arcs=4),
     "destabilize.tangle", "no feasible tangle for the far body"),
    ("genus_two_over_boundaries", Untelescope("H", disc(0), disc(0), _outcome()), "untelescope.tangle",
     "no feasible tangle for body 'cpu'"),
]


@pytest.mark.parametrize("fixture, move, rule, message", _REJECTIONS,
                         ids=[f"{row[2]}-{i}" for i, row in enumerate(_REJECTIONS)])
def test_every_rejection_a_certificate_can_reach(request, fixture, move, rule, message):
    """Each row is a hand-built certificate on a valid complex that the gate
    rejects under ``rule`` with ``message``.  Rules no row raises, because
    the checks before them prove them on every certificate:

    * ``<kind>.monotone``: every accepted kind's checks leave the vector
      strictly smaller.
    * ``consolidate.merge_index``: the product certificate of a valid input
      makes the merged index exactly index(A) + index(B) - 6.
    * ``destabilize.upper_drop`` and ``lower_drop``: the side body's index
      changes by 4q - 2γ - 6 and the far body's by at most that, since no
      handed-over level is a sphere with two or fewer punctures.
    * ``untelescope.lower_drop``, ``upper_drop``, ``lower_sum`` and
      ``upper_sum``: the kept pieces are the cuts' pieces, which drop
      strictly (``boundary_reduce.strict_drop``), and the doubly spotted
      level's forced surface turns the cuts' identity into the sums.
    * ``untelescope.lower_index_fixed`` and ``upper_index_fixed``: the two
      new levels reach exactly the levels the old one reached, so the sums
      fix the aggregates.
    * ``boundary_reduce.identity``: the index formula gives it for every
      disc that ``compress_surface`` accepts.
    * ``consolidate.tangle``: a given merged tangle is taken as it is, and
      the derived one is feasible whenever the input is valid.  The product
      makes the thin level a copy of the deleted thick level, so B's own
      check (that level's genus covers B's minus genus, core loops and
      ghost excess) and A's pay for the merged body's minus genus and the core loops of
      both.  The merged minus side has A's and B's punctures less the thin
      level's, so its parity is right, and it needs at most A's plus B's
      ghost arcs less their bridge arcs.  Those land on A's and B's
      anchors less the thin level, whose spanning forest is A's and B's
      together, or one arc smaller when the thin level is punctured and
      B's minus side is not, and then B has a bridge arc to make up for
      it; so the merged ghost excess is at most the sum of theirs.
      ``test_consolidation_derives_a_feasible_merged_tangle_on_every_valid_chain``
      checks 1,296 valid chains, 473 of them with core loops on B.
    """
    cx = request.getfixturevalue(fixture)
    assert validate(cx).ok
    with pytest.raises(MoveRejected) as err:
        apply_move(cx, move)
    assert (err.value.rule, str(err.value)) == (rule, f"{rule}: {message}")


def test_boundary_reduce_rejects_a_once_punctured_minus_level():
    """Reached only by a direct call: the complex is invalid as a whole, since
    its boundary levels are once-punctured spheres, but each body passes its
    own checks, so ``boundary_reduce`` gets as far as reading them."""
    cx = build_complex(thick=[thick("H", 0, 1, "u", "d")],
                       boundary=[bdy("B", 0, 1, "u"), bdy("C", 0, 1, "d")],
                       cbs=[cb("u", "H", minus=("B",), v=1), cb("d", "H", minus=("C",), v=1)])
    with pytest.raises(MoveRejected) as err:
        boundary_reduce(cx, "u", disc(0))
    assert str(err.value) == "boundary_reduce.once_punctured: minus level 'B' is a once-punctured sphere"


@pytest.mark.parametrize("call, message", [
    (lambda: parse_move(_untelescope_doc([0])), "move.disc_minus.split.genus: expected a list of two"),
    (lambda: parse_move(_untelescope_doc([0, "0"])), "move.disc_minus.split.genus: expected int"),
    (lambda: parse_move(_untelescope_doc([0, False])), "move.disc_minus.split.genus: expected int"),
    (lambda: emit_move("consolidate"), "unknown move 'consolidate'"),
], ids=["pair-length", "pair-leaf-str", "pair-leaf-bool", "emit-non-move"])
def test_move_codec_leaf_errors(call, message):
    with pytest.raises(SchemaError) as err:
        call()
    assert str(err.value) == message


def test_untelescope_reads_a_tangle_its_body_spec_carries(spheres_with_four_ends):
    """A body spec's own tangle is used as given, in place of the solved one:
    the solved tangle is accepted, a core loop the sphere cannot hold is not."""
    def with_lower(tangle):
        out = _outcome()
        return Untelescope("H", disc_minus=disc(0, True, (0, 0), (0, 0), (("S2",), ("S1",))),
                           disc_plus=disc(0, True, (0, 0), (0, 0), (("S4",), ("S3",))),
                           outcome=replace(out, h_minus=replace(out.h_minus, lower=BodySpec("cmd", tangle))))

    cx = spheres_with_four_ends
    out = apply_untelescope(cx, with_lower(Tangle()))
    assert out == apply_untelescope(cx, with_lower(None))
    with pytest.raises(MoveRejected) as err:
        apply_untelescope(cx, with_lower(Tangle(loops=1)))
    assert err.value.rule == "untelescope.result_invalid"
    assert "[handle_feasibility] cmd:" in str(err.value)


def _nested_untelescope_doc() -> dict:
    """An untelescope document holding an object of every nested kind: discs,
    a split with tangles, the outcome, thick specs and body specs."""
    split = SplitData((0, 0), (0, 0), (("S2",), ("S1",)), (Tangle(), Tangle()))
    doc = emit_move(_split_lower(split))
    doc["outcome"]["h_minus"]["lower"]["tangle"] = {"v": 0, "b": 0, "gh": 0, "loops": 0}
    return doc


def _with(path: tuple, key: str, value=0) -> dict:
    doc = _nested_untelescope_doc()
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    ({"kind": "unperturb", "thick": "H", "near_sid": "down"}, "move: unknown field 'near_sid'"),
    ({"kind": "destabilize", "variant": "bdy", "thick": "H", "boundry_ids": ["S1"]},
     "move: unknown field 'boundry_ids'"),
    (_with((), "thin"), "move: unknown field 'thin'"),
    (_with(("disc_plus",), "splt", {"genus": [0, 0], "punctures": [0, 0], "ports": [[], []]}),
     "move.disc_plus: unknown field 'splt'"),
    (_with(("disc_minus", "split"), "port", []), "move.disc_minus.split: unknown field 'port'"),
    (_with(("outcome",), "thin"), "move.outcome: unknown field 'thin'"),
    (_with(("outcome", "h_plus"), "kind", "untelescope"), "move.outcome.h_plus: unknown field 'kind'"),
    (_with(("outcome", "h_plus", "upper"), "tangles"), "move.outcome.h_plus.upper: unknown field 'tangles'"),
    (_with(("outcome", "h_minus", "lower", "tangle"), "ghosts"),
     "move.outcome.h_minus.lower.tangle: unknown field 'ghosts'"),
    (_with(("disc_minus", "split", "tangles", 1), "id", "t"),
     "move.disc_minus.split.tangles: unknown field 'id'"),
    ({"kind": "consolidate", "thick": "H", "thn": "F"}, "move: missing field 'thin'"),
    ({"kind": "unperturb", "thick": "H", "near_sid": "down", "merge_case": 1},
     "move.merge_case: expected str"),
], ids=["move-near-side", "move-boundary-ids", "move", "disc", "split", "outcome", "thick-spec",
        "body-spec", "tangle", "split-tangle", "missing-first", "mistyped-first"])
def test_a_move_document_refuses_a_key_no_row_lists(doc, message):
    """A misspelt key is refused, never read as the default, at every
    nesting level; a missing or mistyped field is named before it."""
    with pytest.raises(SchemaError) as err:
        parse_move(doc)
    assert str(err.value) == message


def test_a_move_document_without_unknown_keys_still_parses():
    doc = _nested_untelescope_doc()
    move = parse_move(doc)
    assert move.outcome.h_minus.lower.tangle == Tangle()
    assert emit_move(move) == doc


# JSON keys that are not their field's name: the tangle counts and a disc's
# puncture count.
_RENAMED = {(Tangle, "v"): "verticals", (Tangle, "b"): "bridges", (Tangle, "gh"): "ghosts",
            (DiscData, "q"): "punctures"}


def test_each_row_names_its_field_in_order():
    """The codec builds a record from its row values by position, so a row
    out of order would swap two fields without an error.  Every type's rows,
    instance and move formats alike, name its fields one to one in order,
    and a row's default is its field's wherever both have one."""
    assert set(model._ROWS) == {Surface, Tangle, model.ThickLevel, model.ThinLevel,
                                BoundaryLevel, CompressionBody}
    assert model._ROWS.items() <= moves._ROWS.items()
    for spec, rows in moves._ROWS.items():
        spec_fields = fields(spec)
        assert [_RENAMED.get((spec, row[0]), row[0]) for row in rows] == [f.name for f in spec_fields]
        for (key, _kind, *optional), f in zip(rows, spec_fields):
            if optional and f.default is not MISSING:
                assert optional[0] == f.default, (spec.__name__, key)


def _readme_json_blocks() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"^```json\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_instance_example_reads_as_its_text_says():
    """README's one-bridge sphere omits ``product_certificate``, so each body
    is read field by field; it has body indices 4 and 4 and the vector (8,)."""
    doc = json.loads(_readme_json_blocks()[0])
    assert all("product_certificate" not in item for item in doc["cbs"])
    cx = model.parse_complex(doc)
    assert validate(cx).ok
    assert (body_index(cx, "u"), body_index(cx, "d")) == (4, 4)
    assert complexity(cx) == (8,)


def test_readme_untelescope_example_round_trips():
    m = parse_move(json.loads(_readme_json_blocks()[1]))
    assert isinstance(m, Untelescope)
    assert parse_move(emit_move(m)) == m
