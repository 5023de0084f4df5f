"""Shared instance builders.

The fixtures here are the hand-checked configurations the suite keeps coming
back to: the one-bridge sphere, a two-level chain, and the spherical
splitting whose untelescope is worked out entry by entry in the move tests.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from widthcalc.model import (
    BoundaryLevel,
    Complex,
    CompressionBody,
    Surface,
    Tangle,
    ThickLevel,
    ThinLevel,
    build_complex,
)


def thick(id, g, p, upper, lower):
    return ThickLevel(id, Surface(g, p), upper_cb=upper, lower_cb=lower)


def thin(id, g, p, from_cb, to_cb):
    return ThinLevel(id, Surface(g, p), from_cb=from_cb, to_cb=to_cb)


def bdy(id, g, p, owner, drilled=False):
    return BoundaryLevel(id, Surface(g, p), owner=owner, is_drilled_vertex=drilled)


def cb(id, plus, minus=(), v=0, b=0, gh=0, loops=0, product=False, ball=False):
    return CompressionBody(id, plus, tuple(minus), Tangle(v, b, gh, loops),
                           product_certificate=product, ball_certificate=ball)


def unchecked(cx: Complex) -> Complex:
    """``cx`` with every body record built anew, so that no body keeps a
    check it passed: its validation checks every body."""
    return replace(cx, cbs={key: replace(body) for key, body in cx.cbs.items()})


@pytest.fixture
def one_bridge_sphere() -> Complex:
    """A single bridge sphere with a ball-with-arc body on each side."""
    return build_complex(
        thick=[thick("H", 0, 2, "u", "d")],
        cbs=[cb("u", "H", b=1, ball=True), cb("d", "H", b=1, ball=True)],
    )


@pytest.fixture
def spheres_with_four_ends() -> Complex:
    """One thick sphere; each side is a sphere-with-two-holes onto unpunctured
    boundary spheres.  Both body indices are 12, so the vector is (24,)."""
    return build_complex(
        thick=[thick("H", 0, 0, "u", "d")],
        boundary=[bdy("S1", 0, 0, "d"), bdy("S2", 0, 0, "d"),
                  bdy("S3", 0, 0, "u"), bdy("S4", 0, 0, "u")],
        cbs=[cb("u", "H", minus=("S3", "S4")), cb("d", "H", minus=("S1", "S2"))],
    )


@pytest.fixture
def chain_two() -> Complex:
    """Two thick levels joined by one thin level: H above nothing, flow H -> J."""
    return build_complex(
        thick=[thick("H", 0, 0, "Hu", "Hd"), thick("J", 1, 0, "Ju", "Jd")],
        thin=[thin("F", 0, 0, from_cb="Hu", to_cb="Jd")],
        cbs=[
            cb("Hu", "H", minus=("F",)),
            cb("Hd", "H"),
            cb("Ju", "J"),
            cb("Jd", "J", minus=("F",)),
        ],
    )


@pytest.fixture
def diamond_four() -> Complex:
    """Four thick levels in a diamond H -> {A, B} -> K, four thin levels."""
    levels = [thick("H", 3, 0, "Hu", "Hd"), thick("A", 1, 0, "Au", "Ad"),
              thick("B", 1, 0, "Bu", "Bd"), thick("K", 2, 0, "Ku", "Kd")]
    thins = [thin("FA", 1, 0, from_cb="Hu", to_cb="Ad"),
             thin("FB", 1, 0, from_cb="Hu", to_cb="Bd"),
             thin("GA", 1, 0, from_cb="Au", to_cb="Kd"),
             thin("GB", 1, 0, from_cb="Bu", to_cb="Kd")]
    bodies = [
        cb("Hu", "H", minus=("FA", "FB")),
        cb("Hd", "H"),
        cb("Ad", "A", minus=("FA",)),
        cb("Au", "A", minus=("GA",)),
        cb("Bd", "B", minus=("FB",)),
        cb("Bu", "B", minus=("GB",)),
        cb("Kd", "K", minus=("GA", "GB")),
        cb("Ku", "K"),
    ]
    return build_complex(thick=levels, thin=thins, cbs=bodies)


def sphere_chain(n: int, closed: bool = False) -> Complex:
    """n genus-1 thick levels L0000, L0001, ... with flow L0000 -> L0001 -> ...
    through thin spheres.  Every body indexes 12 over a thin sphere and 6
    otherwise, so level i has upper index 6(n - i) and lower index 6(i + 1).
    ``closed`` adds a thin sphere from the top level back to the bottom one,
    which makes the flow a single cycle through all n levels."""
    ids = [f"L{i:04d}" for i in range(n)]
    links = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    if closed:
        links.append((ids[-1], ids[0]))
    thins = [thin(f"F{k:04d}", 0, 0, from_cb=f"{a}u", to_cb=f"{b}d")
             for k, (a, b) in enumerate(links)]
    above = {f.from_cb: f.id for f in thins}
    below = {f.to_cb: f.id for f in thins}
    bodies = []
    for t in ids:
        bodies.append(cb(f"{t}u", t, minus=[above[f"{t}u"]] if f"{t}u" in above else []))
        bodies.append(cb(f"{t}d", t, minus=[below[f"{t}d"]] if f"{t}d" in below else []))
    return build_complex(thick=[thick(t, 1, 0, f"{t}u", f"{t}d") for t in ids],
                         thin=thins, cbs=bodies)


@pytest.fixture(scope="session")
def bench_chain():
    """The benchmark's ``workloads.chain`` document builder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
    return workloads.chain
