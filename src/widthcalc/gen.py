"""Random instance and certificate generation for property testing.

Complexes are generated valid by construction: the flow digraph is built on a
random topological order so it cannot close up, puncture budgets are tracked
per body so conservation is always solvable, and ghost arcs and core loops
are only dealt where the genus can carry them.  Surfaces get even puncture
counts, which keeps the two sides of every thick level parity-compatible
without a repair pass.

The move enumerator is deliberately a *numeric* proposer: it offers every
certificate the summary arithmetic allows, a knowing superset of the moves a
genuine embedding would admit, which is exactly what stress-testing the
validation layer wants.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .model import (
    BoundaryLevel,
    Complex,
    CompressionBody,
    Surface,
    Tangle,
    ThickLevel,
    ThinLevel,
    _ball_profile,
    _ids,
    build_complex,
    ghost_excess,
    validate,
)
from .moves import (
    BodySpec,
    Consolidate,
    Destabilize,
    DiscData,
    Move,
    SplitData,
    ThickSpec,
    Unperturb,
    UndoRemovable,
    Untelescope,
    UntelescopeOutcome,
    _hood,
    _products_on_thin,
    applicable,
)

__all__ = ["GenConfig", "gen_complex", "gen_move", "enumerate_moves"]


@dataclass(frozen=True)
class GenConfig:
    max_thick: int = 4
    max_genus: int = 3
    max_punctures: int = 6
    max_ports: int = 3
    allow_boundary: bool = True
    seed: int = 0


# The least value of each bound of a GenConfig.
_LEAST = {"max_thick": 1, "max_genus": 0, "max_punctures": 0, "max_ports": 0}


def _even(rng: random.Random, lo: int, hi: int) -> int:
    """Even value in [lo, hi], biased low; lo assumed even."""
    if hi < lo:
        return lo
    choices = list(range(lo, hi + 1, 2))
    weights = [2 ** (len(choices) - i) for i in range(len(choices))]
    return rng.choices(choices, weights=weights)[0]


def gen_complex(cfg: GenConfig, rng: random.Random | None = None) -> Complex:
    """Generate a valid complex within the configured bounds.  ``max_thick``
    must be at least 1, and ``max_genus``, ``max_punctures`` and
    ``max_ports`` at least 0.  An invalid complex, a fault of the
    generator, raises RuntimeError with its report."""
    for name, least in _LEAST.items():
        value = getattr(cfg, name)
        if value < least:
            raise ValueError(f"{name} must be at least {least}, not {value}")
    if rng is None:
        rng = random.Random(cfg.seed)
    cx = _gen_complex_once(cfg, rng)
    report = validate(cx)
    if not report.ok:
        raise RuntimeError(f"generator produced an invalid complex: {report}")
    return cx


def _gen_complex_once(cfg: GenConfig, rng: random.Random) -> Complex:
    n = rng.randint(1, cfg.max_thick)
    thick_ids = [f"T{i}" for i in range(n)]
    up_id = {t: f"{t}u" for t in thick_ids}
    down_id = {t: f"{t}d" for t in thick_ids}

    # structure: forward thin edges on the topological order, port-capped
    ports_of: dict[str, list[str]] = {c: [] for t in thick_ids
                                      for c in (up_id[t], down_id[t])}
    thin_between: dict[str, tuple[str, str]] = {}
    f_count = 0
    for i in range(1, n):
        for j in range(i):
            if rng.random() < 0.45 \
                    and len(ports_of[up_id[thick_ids[j]]]) < cfg.max_ports \
                    and len(ports_of[down_id[thick_ids[i]]]) < cfg.max_ports:
                fid = f"F{f_count}"
                f_count += 1
                thin_between[fid] = (up_id[thick_ids[j]], down_id[thick_ids[i]])
                ports_of[up_id[thick_ids[j]]].append(fid)
                ports_of[down_id[thick_ids[i]]].append(fid)

    bdy_owner: dict[str, str] = {}
    b_count = 0
    if cfg.allow_boundary:
        for c in list(ports_of):
            while len(ports_of[c]) < cfg.max_ports and rng.random() < 0.3:
                bid = f"B{b_count}"
                b_count += 1
                bdy_owner[bid] = c
                ports_of[c].append(bid)

    # surfaces for ports, consuming budget on every adjacent body
    budget_p = {c: cfg.max_punctures for c in ports_of}
    budget_g = {c: cfg.max_genus for c in ports_of}
    port_surface: dict[str, Surface] = {}
    drilled: set[str] = set()

    def holders(port: str) -> list[str]:
        if port in thin_between:
            return list(thin_between[port])
        return [bdy_owner[port]]

    for port in sorted(thin_between) + sorted(bdy_owner):
        hs = holders(port)
        g_cap = min(budget_g[c] for c in hs)
        p_cap = min(budget_p[c] for c in hs)
        g = _even(rng, 0, 2 * g_cap) // 2  # biased-low genus
        p = _even(rng, 0, p_cap)
        if port in bdy_owner:
            # never emit small boundary spheres: they block destabilization
            if g == 0 and p <= 2:
                if p_cap >= 4:
                    p = 4
                elif g_cap >= 1:
                    g = 1
                else:
                    ports_of[bdy_owner[port]].remove(port)
                    del bdy_owner[port]
                    continue
            if g == 0 and p >= 4 and rng.random() < 0.3:
                drilled.add(port)
        port_surface[port] = Surface(g, p)
        for c in hs:
            budget_g[c] -= g
            budget_p[c] -= p

    # per-side tangles and the shared thick surfaces
    thin_levels: list[ThinLevel] = []
    bdy_levels: list[BoundaryLevel] = []
    thick_levels: list[ThickLevel] = []
    bodies: list[CompressionBody] = []

    def side_data(c: str) -> tuple[int, int, int]:
        ports = ports_of[c]
        return (sum(port_surface[p].punctures for p in ports),
                sum(port_surface[p].genus for p in ports),
                sum(1 for p in ports if port_surface[p].punctures > 0))

    for t in thick_ids:
        cu, cd = up_id[t], down_id[t]
        plant = None
        if ports_of[cd] and rng.random() < 0.5:
            only = ports_of[cd]
            if len(only) == 1 and only[0] in thin_between:
                plant = only[0]

        sides = {}
        for c in (cu, cd):
            p_minus, g_minus, anchors = side_data(c)
            headroom = cfg.max_genus - g_minus
            gh = 0
            loops = 0
            if c != (cd if plant else None):
                gh_cap = min(p_minus // 2, headroom + max(0, anchors - 1))
                if gh_cap > 0 and rng.random() < 0.35:
                    gh = rng.randint(1, gh_cap)
                if rng.random() < 0.15 and headroom - ghost_excess(gh, anchors) >= 1:
                    loops = 1
            v = p_minus - 2 * gh
            need = g_minus + loops + ghost_excess(gh, anchors)
            sides[c] = {"v": v, "gh": gh, "loops": loops, "need": need}

        if plant is not None:
            surface = port_surface[plant]
            if sides[cu]["v"] > surface.punctures or sides[cu]["need"] > surface.genus:
                plant = None
        if plant is not None:
            surface = port_surface[plant]
            g_h, p_h = surface.genus, surface.punctures
        else:
            lo_p = max(sides[cu]["v"], sides[cd]["v"])
            p_h = _even(rng, lo_p, cfg.max_punctures)
            lo_g = max(sides[cu]["need"], sides[cd]["need"])
            g_h = lo_g + _even(rng, 0, 2 * (cfg.max_genus - lo_g)) // 2

        thick_levels.append(ThickLevel(t, Surface(g_h, p_h), upper_cb=cu, lower_cb=cd))
        for c in (cu, cd):
            s = sides[c]
            b = (p_h - s["v"]) // 2
            tangle = Tangle(s["v"], b, s["gh"], s["loops"])
            is_plant = plant is not None and c == cd
            ball = _ball_profile(Surface(g_h, p_h), [port_surface[p] for p in ports_of[c]], tangle)
            bodies.append(CompressionBody(
                c, t, tuple(ports_of[c]), tangle,
                product_certificate=is_plant, ball_certificate=ball))

    for fid, (src, dst) in sorted(thin_between.items()):
        thin_levels.append(ThinLevel(fid, port_surface[fid], from_cb=src, to_cb=dst))
    for bid, owner in sorted(bdy_owner.items()):
        bdy_levels.append(BoundaryLevel(bid, port_surface[bid], owner,
                                        is_drilled_vertex=bid in drilled))

    return build_complex(thick_levels, thin_levels, bdy_levels, bodies)


# ---------------------------------------------------------------------------
# Numeric move proposer
# ---------------------------------------------------------------------------

def _fresh_names(cx: Complex, bases: list[str]) -> list[str]:
    """Each base, or the base with the least numeric suffix that names no
    record of ``cx`` and no earlier name; the set of ids is kept on the
    instance."""
    taken = _ids(cx)
    out: list[str] = []
    for base in bases:
        name = base
        k = 0
        while name in taken or name in out:
            k += 1
            name = f"{base}{k}"
        out.append(name)
    return out


def _untelescope_candidates(cx: Complex, t: ThickLevel, names: list[str]) -> list[Untelescope]:
    outcome = UntelescopeOutcome(
        h_minus=ThickSpec(names[0], lower=BodySpec(names[3]), upper=BodySpec(names[4])),
        h_plus=ThickSpec(names[1], lower=BodySpec(names[5]), upper=BodySpec(names[6])),
        thin_id=names[2],
    )
    down = cx.cbs[t.lower_cb]
    up = cx.cbs[t.upper_cb]
    out: list[Untelescope] = []

    def discs_for(cb: CompressionBody) -> list[DiscData]:
        discs = []
        if t.surface.genus >= 1:
            discs.append(DiscData(0, False))
            if cb.tangle.counts() != (0, 0, 0, 0):
                discs.append(DiscData(1, False))
        for port in cb.minus:
            s = cx.level_surface(port)
            rest = tuple(x for x in cb.minus if x != port)
            if s.genus <= t.surface.genus:
                discs.append(DiscData(0, True, SplitData(
                    (t.surface.genus - s.genus, s.genus),
                    (t.surface.punctures, 0),
                    (rest, (port,)))))
        return discs[:3]

    ups = discs_for(up)
    for dm in discs_for(down):
        for dp in ups:
            out.append(Untelescope(t.id, disc_minus=dm, disc_plus=dp, outcome=outcome))
    return out


def enumerate_moves(cx: Complex) -> list[Move]:
    """Every certificate the summary data suggests, in a deterministic order:
    the consolidations of certified products on thin levels, then the offers
    of each thick level in id order (:func:`_level_moves`).

    Candidates are not pre-filtered through the full engine; callers apply
    them and skip rejections.  The list is new at every call, but a level
    whose offers are kept gives the same move objects again, each with the
    rejection it keeps and its scope (see :mod:`widthcalc.moves`).
    """
    moves: list[Move] = [Consolidate(thick=t_id, thin=f_id) for t_id, f_id in _products_on_thin(cx)]
    for t_id in sorted(cx.thick):
        moves += _level_moves(cx, cx.thick[t_id])
    return moves


def _level_moves(cx: Complex, t: ThickLevel) -> list[Move]:
    """The offers at thick level ``t``: destabilizations where its component
    has no small boundary sphere, unperturbings, removable arcs, then
    untelescopes whose outcome ids are fresh names.

    They read only the level's :func:`~widthcalc.moves._hood` and those
    names, so the record keeps its list with both and gives it again, as
    the same objects, while both are equal; callers must not mutate it."""
    names = _fresh_names(cx, [f"{t.id}m", f"{t.id}p", f"{t.id}f",
                              f"{t.id}md", f"{t.id}mu", f"{t.id}pd", f"{t.id}pu"])
    hood = _hood(cx, t.id)
    kept = t._offers
    if kept is not None and kept[1] == names and kept[0] == hood:
        return kept[2]
    t_id = t.id
    g, p = t.surface.genus, t.surface.punctures
    up, down = cx.cbs[t.upper_cb], cx.cbs[t.lower_cb]
    moves: list[Move] = []

    if hood[1] is None:  # the level's component has no small boundary sphere: destabilizing is allowed
        if g >= 1:
            moves.append(Destabilize("stab", t_id))
            moves.append(Destabilize("merid_stab", t_id))
        for side, body in (("up", up), ("down", down)):
            bports = [x for x in body.minus if x in cx.boundary]
            for s in bports:
                moves.append(Destabilize("bdy", t_id, side=side, boundary_ids=(s,)))
                moves.append(Destabilize("merid_bdy", t_id, side=side, boundary_ids=(s,)))
                if body.tangle.ghosts >= 1 and cx.boundary[s].surface.punctures >= 2:
                    moves.append(Destabilize("ghost_bdy", t_id, side=side,
                                             boundary_ids=(s,), ghost_arcs=1))
                    moves.append(Destabilize("merid_ghost_bdy", t_id, side=side,
                                             boundary_ids=(s,), ghost_arcs=1))

    if p >= 2:
        for near, far in (("up", down), ("down", up)):
            near_body = up if near == "up" else down
            if near_body.tangle.bridges >= 1 and far.tangle.bridges >= 2:
                moves.append(Unperturb(t_id, near_side=near, merge_case="bridge_bridge"))
            if near_body.tangle.bridges >= 1 and far.tangle.bridges >= 1 \
                    and far.tangle.verticals >= 1:
                moves.append(Unperturb(t_id, near_side=near, merge_case="vertical_bridge"))
        if up.tangle.bridges >= 1 and down.tangle.bridges >= 1:
            for side in ("up", "down"):
                moves.append(UndoRemovable(t_id, loop_side=side))

    moves += _untelescope_candidates(cx, t, names)
    object.__setattr__(t, "_offers", (hood, names, moves))
    return moves


def gen_move(cx: Complex, rng: random.Random) -> Move | None:
    """A random certificate that the engine accepts, or None."""
    candidates = enumerate_moves(cx)
    rng.shuffle(candidates)
    return next((move for move, _result, _vector in applicable(cx, candidates, Counter())), None)

