import random

import pytest

from widthcalc.complexity import LT, compare, complexity
from widthcalc.gen import GenConfig, enumerate_moves, gen_complex, gen_move
from widthcalc.model import validate
from widthcalc.moves import Consolidate, MoveRejected, apply_move


def test_generated_complexes_are_valid():
    rng = random.Random(7)
    cfg = GenConfig(max_thick=4)
    for _ in range(300):
        cx = gen_complex(cfg, rng)
        assert validate(cx).ok


def test_an_invalid_attempt_raises_and_names_its_report(monkeypatch):
    """The generator makes one attempt: an invalid one raises with its
    report instead of being replaced by a second attempt."""
    from dataclasses import replace

    from widthcalc import gen

    real = gen._gen_complex_once
    attempts = []

    def once_invalid(cfg, rng):
        cx = real(cfg, rng)
        attempts.append(cx)
        if len(attempts) > 1:
            return cx
        body = min(cx.cbs.values(), key=lambda c: c.id)
        bridges = replace(body.tangle, bridges=body.tangle.bridges + 1)
        return replace(cx, cbs={**cx.cbs, body.id: replace(body, tangle=bridges)})

    monkeypatch.setattr(gen, "_gen_complex_once", once_invalid)
    with pytest.raises(RuntimeError, match=r"invalid complex: .*conservation_up"):
        gen_complex(GenConfig(max_thick=3, seed=1))
    assert len(attempts) == 1


def test_generation_is_deterministic():
    cfg = GenConfig(max_thick=3, seed=123)
    assert gen_complex(cfg) == gen_complex(cfg)


def test_generated_instances_round_trip_through_json():
    from widthcalc.model import emit_complex, parse_complex

    rng = random.Random(77)
    cfg = GenConfig(max_thick=4)
    for _ in range(150):
        cx = gen_complex(cfg, rng)
        assert parse_complex(emit_complex(cx)) == cx


def test_single_level_config_gives_heegaard_like_instance():
    cfg = GenConfig(max_thick=1, max_punctures=0, allow_boundary=False, seed=5)
    cx = gen_complex(cfg)
    assert len(cx.thick) == 1
    assert not cx.thin and not cx.boundary
    for cb in cx.cbs.values():
        assert cb.minus == ()
        assert cb.tangle.verticals == 0 and cb.tangle.bridges == 0


def test_coverage_of_thin_and_thinless_instances():
    rng = random.Random(11)
    cfg = GenConfig(max_thick=4)
    with_thin = without_thin = with_boundary = products = 0
    for _ in range(400):
        cx = gen_complex(cfg, rng)
        if cx.thin:
            with_thin += 1
        else:
            without_thin += 1
        if cx.boundary:
            with_boundary += 1
        if any(c.product_certificate for c in cx.cbs.values()):
            products += 1
    assert with_thin > 0 and without_thin > 0
    assert with_boundary > 0 and products > 0


def test_gen_move_results_are_accepted():
    rng = random.Random(3)
    cfg = GenConfig(max_thick=4)
    produced = 0
    for _ in range(120):
        cx = gen_complex(cfg, rng)
        move = gen_move(cx, rng)
        if move is None:
            continue
        produced += 1
        out = apply_move(cx, move)  # no MoveRejected: gen_move pre-validates
        assert validate(out).ok
        assert compare(complexity(out), complexity(cx)) == LT
    assert produced > 40


def test_enumerate_moves_offers_consolidations(one_bridge_sphere):
    rng = random.Random(19)
    cfg = GenConfig(max_thick=3)
    saw_consolidate = False
    for _ in range(200):
        cx = gen_complex(cfg, rng)
        moves = enumerate_moves(cx)
        if any(isinstance(m, Consolidate) for m in moves):
            saw_consolidate = True
            break
    assert saw_consolidate
    # the one-bridge sphere admits no applicable move: candidates the
    # enumerator offers (removable-loop patterns) all fail the genus check
    assert gen_move(one_bridge_sphere, random.Random(0)) is None



def test_fresh_names_skip_every_id_and_each_other(one_bridge_sphere):
    """A fresh name takes the least numeric suffix that names no record and
    no earlier name of the same call; the kept id set is not changed."""
    from widthcalc.gen import _fresh_names
    from widthcalc.model import _ids

    cx = one_bridge_sphere
    assert _fresh_names(cx, ["H", "X", "X", "u", "H"]) == ["H1", "X", "X1", "u1", "H2"]
    assert _ids(cx) == {"H", "u", "d"}
    assert _fresh_names(cx, ["X"]) == ["X"]


@pytest.mark.parametrize("field, least", [("max_thick", 1), ("max_genus", 0),
                                          ("max_punctures", 0), ("max_ports", 0)])
def test_gen_complex_refuses_bounds_below_their_least(field, least):
    """The library refuses what the CLI refuses, rather than generating a
    one-level complex for ``max_thick=-5``; each least value is accepted."""
    for value in (least - 1, -5):
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, not {value}$"):
            gen_complex(GenConfig(**{field: value}))
    assert validate(gen_complex(GenConfig(**{field: least}))).ok
