"""Thinning rewrites as certificate-carrying moves with numeric validation.

Whether a simplifying move exists is a topological question the summary data
cannot decide, so each move arrives as a certificate naming the levels it
touches and the pieces it produces.  The engine's job is the converse: verify
every numeric consequence the move is supposed to have, and reject the
certificate if any check fails.  Accepted moves always produce a valid
complex, keep the flow digraph acyclic, and strictly decrease the complexity
vector.

Move kinds:

* ``Consolidate`` deletes a thick/thin pair bounding a certified product and
  merges the three adjacent bodies; the merged index equals the sum of the
  outer two minus 6, exactly, and the complexity vector simply loses the
  deleted level's entry.
* ``Untelescope`` splits one thick level along a pair of disjoint discs on
  opposite sides into a lower level, an upper level, and a doubly spotted
  thin level between them.  The result is already consolidated against the
  parallel pieces the disc surgery creates, so the exact index bookkeeping
  (lower/upper sums gain 6, the near-side aggregates drop strictly, the
  far-side aggregates are fixed) is checked directly on the replacement.
* ``Destabilize`` removes one of six kinds of stabilization, compressing the
  thick level and possibly handing boundary levels and ghost arcs across it.
* ``Unperturb`` cancels a pair of adjacent bridge discs, dropping two
  punctures and one bridge arc on each side.
* ``UndoRemovable`` pulls a removable component off the thick level, dropping
  two punctures; by default the component becomes a core loop.

Every kind is accepted by the same gate, in the same order.  The input must
be valid.  Then come the kind's own pre-checks (ids, sides, profiles, disc
accounting), which may reject under their own rule names, and the kind
states its change: the records it puts and the input's ids it drops, which
the gate alone lays out over the input's maps.  Bodies the move rebuilt get
their certificate flags from their profiles.  The result must be valid
(``<kind>.result_invalid``), satisfy the kind's exact index identities, read
from :func:`~widthcalc.complexity.analyze` of input and result (for example
``consolidate.merge_index``), and have a strictly smaller complexity vector
(``<kind>.monotone``).  The untelescope sequence,
:func:`elementary_thinning_sequence`, uses the prefix ``elementary`` for its
own checks; each of its steps is a gated move, so its result, valid and
smaller at every step, is handed on without a second gate.

Validity is decided in two steps, cheap first.  The levels each rebuilt body
reads are looked up once in the changed records, before any complex is
built; they serve both to certify the body and to run its own checks.  A
body that fails would put a violation in the result's report, so the move
is rejected at once without building the result, and most rejected
candidates end here.  Only a candidate whose rebuilt bodies pass is built,
once, and validated whole (:func:`~widthcalc.model.validate`).  Each body
keeps the last check it passed, with the surfaces it read, so the rebuilt
bodies are not checked twice, and a body whose record and the surfaces of
its plus level and minus ports are the very objects the input holds is not
checked again, even when the move re-pointed those levels.

A :class:`MoveRejected` formats its message when it is first read: the
message of ``result_invalid`` is the report of a whole validation of the
result, the same as a full validation's, and the result is built and that
report worked out only when someone prints it.  A caller that only counts
rules, like :func:`~widthcalc.search.thin`, pays for none of it.

Every driver reads one candidate loop, :func:`applicable`, which applies
each offer per component.  The vector of a disjoint union is the sorted
merge of its parts' vectors, and comparing sorted vectors is the multiset
order, where M < N exactly when M + K < N + K (Dershowitz & Manna, CACM 22,
1979): a move that touches one component is decided on it alone as on the
whole complex.  An offer goes to the component that holds every id it names
(:func:`named_ids`), and to the whole complex when those ids span components
(a fresh outcome id taken elsewhere, for ``untelescope.fresh_ids``), when it
is not a move, or when ``elementary.pre`` applies.  Every other rule reads
only the component, ``destabilize.boundary_sphere`` included.  A complex
keeps its components as complexes, and a result joined from components
keeps them as its own: an untouched copy in a symmetric union is carried as
the same object from complex to complex, and keeps the result of each move
accepted on it.

Each rejection is kept once, as the verdict of the move object: its rule
with a scope, where what it read lives.  A thinning step rewrites one or
two thick levels and leaves the others as they were, so a rejection raised
before the result is built (a pre-check or the gate's rebuilt-body check)
is kept with the read set of the move's level, :func:`_hood`: the level's
record, its ``_sphere_blocks`` entry, its two bodies and the kind and
surface of each of their minus ports.  Such a rejection reads nothing else,
save the fresh outcome ids and ``elementary.pre`` of an untelescope, which
:func:`apply_move` checks anew, and the far body of a consolidation; so it
holds wherever the level's hood is equal.  The proposer gives an unchanged
level's offers again as the same objects
(:func:`~widthcalc.gen.enumerate_moves`), and they bring their verdicts.
Any other rejection of an offer routed to a component reads more of it:
its analyses after the build (``untelescope.*_index_drop``, a built
result's ``result_invalid``, ``monotone``), the far body of a
consolidation, every id for ``untelescope.fresh_ids``.  No hood can key
it, so it is kept with the component object itself as its scope (see
:func:`applicable`).  A kept rejection is raised by :func:`apply_move`
every time the move is offered, without building anything, so a caller
that counts rejections around :func:`apply_move` counts every one; only the
rule is kept, and the message is worked out again if it is read.

Move documents are JSON objects tagged with ``kind``.  The remaining keys
are read and written by the instance format's codec
(:func:`~widthcalc.model._decode` and ``_encode``) from one table,
``_ROWS``: the instance format's rows, a tangle's among them, and one row
per field of each move record, giving its JSON key, its type and, for an
optional field, its default.  A required key must be present with a value
of the stated JSON type.  An optional key may be missing or null, and then
reads as its default.  A key that no row lists is refused, after the
object's own fields are read; a tangle holds only its four counts, and
only the top-level object holds ``kind``.  An optional field whose value is
None is written as null, except the few rows marked to be omitted instead
(a disc's ``split`` and a split's ``tangles``).  A malformed document
raises :class:`~widthcalc.model.SchemaError` naming the field.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, replace

from .model import (
    BoundaryLevel,
    Complex,
    CompressionBody,
    SchemaError,
    Surface,
    Tangle,
    ThickLevel,
    ThinLevel,
    _ROWS as _INSTANCE_ROWS,
    _SECTION,
    _body_index,
    _decode,
    _encode,
    _ids,
    _kept,
    _reads,
    body_index,
    certify,
    components,
    euler_char,
    ghost_excess,
    profile_index,
    require_valid,
    validate,
)
from .complexity import LT, Analysis, analyze, compare

__all__ = [
    "MoveRejected",
    "SplitData",
    "DiscData",
    "BodySpec",
    "ThickSpec",
    "UntelescopeOutcome",
    "Consolidate",
    "Untelescope",
    "Destabilize",
    "Unperturb",
    "UndoRemovable",
    "Move",
    "DESTAB_VARIANTS",
    "compress_surface",
    "boundary_reduce",
    "ReducedPiece",
    "BoundaryReduction",
    "solve_tangle",
    "apply_consolidate",
    "apply_untelescope",
    "elementary_thinning_sequence",
    "apply_destabilize",
    "apply_unperturb",
    "apply_undo_removable",
    "apply_move",
    "REDUCING",
    "applicable",
    "named_ids",
    "find_product_on_thin",
    "is_reduced",
    "parse_move",
    "emit_move",
]


class MoveRejected(Exception):
    """A certificate failed one of its checks; ``rule`` names which.

    ``message`` may be a callable taking no arguments: it is called when the
    error is first turned into a string, ``"<rule>: <message>"``, so that a
    rejection nobody prints costs no formatting.
    """

    def __init__(self, rule: str, message: str | Callable[[], str]):
        super().__init__(rule)
        self.rule = rule
        self._message = message

    @property
    def message(self) -> str:
        if callable(self._message):
            self._message = self._message()
        return self._message

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


# ---------------------------------------------------------------------------
# Disc data and surface surgery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitData:
    """How a separating disc divides the compressed body's data in two."""

    genus: tuple[int, int]
    punctures: tuple[int, int]
    ports: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
    tangles: tuple[Tangle, Tangle] | None = None


@dataclass(frozen=True)
class DiscData:
    """A compressing-disc summary: graph intersections (0 or 1) and whether
    the disc separates; separating discs carry the split of the original
    surface and minus-side data, side 1 being the piece that is kept."""

    punctures: int
    separating: bool
    split: SplitData | None = None


def compress_surface(s: Surface, d: DiscData) -> tuple[Surface, ...]:
    """Surgery on one closed surface along one disc.

    Non-separating: genus drops by one and the disc's graph punctures add a
    pair of scars.  Separating: the surface divides per the split, each side
    gaining one scar per disc puncture.
    """
    if d.punctures not in (0, 1):
        raise MoveRejected("disc.punctures", f"disc meets the graph 0 or 1 times, not {d.punctures}")
    if not d.separating:
        if d.split is not None:
            raise MoveRejected("disc.split", "non-separating disc carries no split")
        if s.genus < 1:
            raise MoveRejected("disc.genus", "non-separating compression needs genus >= 1")
        return (Surface(s.genus - 1, s.punctures + 2 * d.punctures),)
    if d.split is None:
        raise MoveRejected("disc.split", "separating disc needs split data")
    g1, g2 = d.split.genus
    p1, p2 = d.split.punctures
    if min(g1, g2, p1, p2) < 0:
        raise MoveRejected("disc.split", "split parts must be non-negative")
    if g1 + g2 != s.genus:
        raise MoveRejected("disc.split", f"genus parts {g1}+{g2} != {s.genus}")
    if p1 + p2 != s.punctures:
        raise MoveRejected("disc.split", f"puncture parts {p1}+{p2} != {s.punctures}")
    return (Surface(g1, p1 + d.punctures), Surface(g2, p2 + d.punctures))


@dataclass(frozen=True)
class ReducedPiece:
    surface: Surface
    ports: tuple[str, ...]
    index: int


@dataclass(frozen=True)
class BoundaryReduction:
    pieces: tuple[ReducedPiece, ...]
    before: int
    expected_sum: int  # before - 6 + 4q + 6*separating


def boundary_reduce(cx: Complex, cb_id: str, d: DiscData) -> BoundaryReduction:
    """Cut one compression body along a disc and account for its index.

    The pieces' indices always sum to ``index(body) - 6 + 4q + 6*delta`` and
    each piece indexes strictly below the body; a separating disc may not cut
    off a piece with the plain-ball profile, nor, when the disc meets the
    graph, with the ball-with-arc profile.  Violations mean the disc data is
    inconsistent with the body summary and the certificate is rejected.

    The outcome, the reduction or the rejection with its rule and message,
    is kept on ``cx`` for each body and disc object, so the untelescope
    candidates that pair one disc with many reduce along it once.  An equal
    but distinct disc is reduced again.  The entry holds its disc, so no
    other disc can take its id while ``cx`` lives.
    """
    kept = _kept(cx, "_reductions", lambda _cx: {})
    found = kept.get((cb_id, id(d)))
    if found is None:
        try:
            found = d, _boundary_reduce(cx, cb_id, d)
        except MoveRejected as err:
            found = d, (err.rule, err._message)
        kept[cb_id, id(d)] = found
    if isinstance(found[1], BoundaryReduction):
        return found[1]
    raise MoveRejected(*found[1])


def _boundary_reduce(cx: Complex, cb_id: str, d: DiscData) -> BoundaryReduction:
    before = body_index(cx, cb_id)  # validates the body locally
    cb = cx.cbs[cb_id]
    for port in cb.minus:
        s = cx.level_surface(port)
        if s.genus == 0 and s.punctures == 1:
            raise MoveRejected("boundary_reduce.once_punctured",
                               f"minus level {port!r} is a once-punctured sphere")
    if d.punctures == 1 and cb.tangle.counts() == (0, 0, 0, 0):
        raise MoveRejected("boundary_reduce.no_strand",
                           "a disc meeting the graph needs a graph piece in the body")
    plus = cx.thick[cb.plus].surface
    surfaces = compress_surface(plus, d)

    if not d.separating:
        piece_ports = (cb.minus,)
    else:
        split = d.split
        assert split is not None
        p1, p2 = (tuple(split.ports[0]), tuple(split.ports[1]))
        if sorted(p1 + p2) != sorted(cb.minus) or set(p1) & set(p2):
            raise MoveRejected("disc.split", "port sides must partition the minus levels")
        if split.tangles is not None:
            sums = tuple(a + b for a, b in zip(split.tangles[0].counts(), split.tangles[1].counts()))
            if sums != cb.tangle.counts():
                raise MoveRejected("disc.split", "tangle sides must sum to the body tangle")
        piece_ports = (p1, p2)

    pieces = []
    for surf, ports in zip(surfaces, piece_ports):
        port_surfaces = [cx.level_surface(p) for p in ports]
        index = profile_index(surf, len(port_surfaces), sum(s.genus for s in port_surfaces),
                              sum(s.punctures for s in port_surfaces))
        pieces.append(ReducedPiece(surf, tuple(ports), index))

    if d.separating:
        for piece in pieces:
            if piece.ports:
                continue
            if piece.surface == Surface(0, 0):
                raise MoveRejected("boundary_reduce.trivial_piece",
                                   "a separating disc may not cut off a plain ball")
            if d.punctures == 1 and piece.surface == Surface(0, 2):
                raise MoveRejected("boundary_reduce.trivial_piece",
                                   "a graph-meeting disc may not cut off a ball with one arc")

    expected = before - 6 + 4 * d.punctures + 6 * (1 if d.separating else 0)
    if sum(p.index for p in pieces) != expected:
        raise MoveRejected("boundary_reduce.identity",
                           f"piece indices sum to {sum(p.index for p in pieces)}, expected {expected}")
    for piece in pieces:
        if piece.index >= before:
            raise MoveRejected("boundary_reduce.strict_drop",
                               f"piece index {piece.index} does not drop below {before}")
    return BoundaryReduction(tuple(pieces), before, expected)


# ---------------------------------------------------------------------------
# Move certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Consolidate:
    thick: str
    thin: str
    merged_tangle: Tangle | None = None
    _verdict = None  # not a field: a kept rejection, see the module docstring


@dataclass(frozen=True)
class BodySpec:
    id: str
    tangle: Tangle | None = None


@dataclass(frozen=True)
class ThickSpec:
    id: str
    lower: BodySpec
    upper: BodySpec


@dataclass(frozen=True)
class UntelescopeOutcome:
    h_minus: ThickSpec
    h_plus: ThickSpec
    thin_id: str


@dataclass(frozen=True)
class Untelescope:
    thick: str
    disc_minus: DiscData
    disc_plus: DiscData
    outcome: UntelescopeOutcome
    _verdict = None  # not a field: a kept rejection, see the module docstring


DESTAB_VARIANTS = ("stab", "merid_stab", "bdy", "merid_bdy", "ghost_bdy", "merid_ghost_bdy")


@dataclass(frozen=True)
class Destabilize:
    variant: str
    thick: str
    side: str = "up"
    boundary_ids: tuple[str, ...] = ()
    ghost_arcs: int = 0
    tangle_up: Tangle | None = None
    tangle_down: Tangle | None = None
    _verdict = None  # not a field: a kept rejection, see the module docstring


@dataclass(frozen=True)
class Unperturb:
    thick: str
    near_side: str = "up"
    merge_case: str = "bridge_bridge"
    _verdict = None  # not a field: a kept rejection, see the module docstring


@dataclass(frozen=True)
class UndoRemovable:
    thick: str
    loop_side: str = "down"
    tangle_up: Tangle | None = None
    tangle_down: Tangle | None = None
    _verdict = None  # not a field: a kept rejection, see the module docstring


Move = Consolidate | Untelescope | Destabilize | Unperturb | UndoRemovable


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def solve_tangle(plus: Surface, minus: list[Surface], loops: int = 0) -> Tangle | None:
    """Pick arc counts satisfying conservation with as many verticals as
    possible; None when no feasible assignment exists."""
    p_plus = plus.punctures
    p_minus = sum(s.punctures for s in minus)
    if (p_plus - p_minus) % 2:
        return None
    v = min(p_plus, p_minus)
    b = (p_plus - v) // 2
    gh = (p_minus - v) // 2
    anchors = sum(1 for s in minus if s.punctures > 0)
    need = sum(s.genus for s in minus) + loops + ghost_excess(gh, anchors)
    if plus.genus < need:
        return None
    return Tangle(v, b, gh, loops)


class Records:
    """One map of a move's result before it is built: ``base`` less the ids
    in ``drop``, with ``put`` set over it.  A put record replaces the base's
    record of its id in place; one with a new or a dropped id goes last.
    Records are looked up with :meth:`get`, which gives None for an id the
    map does not hold."""

    __slots__ = ("base", "put", "drop")

    def __init__(self, base: Mapping, drop: frozenset):
        self.base = base
        self.put: dict = {}
        self.drop = drop

    def get(self, key: str):
        found = self.put.get(key)
        return self.base.get(key) if found is None and key not in self.drop else found

    def merged(self) -> dict:
        base = {k: v for k, v in self.base.items() if k not in self.drop} if self.drop else self.base
        return {**base, **self.put}


Check = Callable[[Analysis, Analysis], None]
# a build's change: the records it puts, of any kind and in order, the ids it drops, its check
Built = tuple[tuple, frozenset, Check | None]


def _maps(cx: Complex, put: tuple, drop: frozenset) -> tuple[Records, ...]:
    """The thick, thin, boundary and body maps of a move's result over
    ``cx``'s, which share ``drop`` (``cx`` is valid, so no two of its
    records share an id), each putting the records of ``put`` of its kind,
    in order."""
    maps = (Records(cx.thick, drop), Records(cx.thin, drop), Records(cx.boundary, drop), Records(cx.cbs, drop))
    for rec in put:
        maps[_SECTION[type(rec)]].put[rec.id] = rec
    return maps


def _build(maps: tuple[Records, ...]) -> Complex:
    return Complex(*(records.merged() for records in maps))


def _empty(_cx: Complex) -> dict:
    return {}


def _hood(cx: Complex, thick_id: str) -> tuple | None:
    """The read set of a move at thick level ``thick_id``, up to building its
    result: the level's record, its :func:`_sphere_blocks` entry, its two
    bodies, and the kind (thin or not) and surface of each minus port of
    those bodies, in port order; None when ``cx`` has no such level.  A
    build states what it writes (:data:`Built`); a kind's pre-checks and the
    gate's rebuilt-body checks read nothing outside this, except that an
    untelescope's outcome ids must be fresh and ``elementary.pre`` reads the
    whole complex, and a consolidation reads the far body across its thin
    level.  Kept on the instance per level."""
    hoods = _kept(cx, "_hoods", _empty)
    hood = hoods.get(thick_id)
    if hood is None:
        t = cx.thick.get(thick_id)
        if t is None:
            return None
        up, down = cx.cbs[t.upper_cb], cx.cbs[t.lower_cb]
        hood = [t, _sphere_blocks(cx).get(thick_id), up, down]
        for port in up.minus + down.minus:
            level = cx.thin.get(port)
            hood += (True, level.surface) if level is not None else (False, cx.boundary[port].surface)
        hood = hoods[thick_id] = tuple(hood)
    return hood


def _gated(rule: str, keeps: bool = False):
    """Make a kind's build function into its apply function.

    The build function runs the kind's pre-checks and states only the move's
    change (:data:`Built`): the records it puts, whose bodies are the bodies
    the move rebuilt, the input's ids it drops, and the kind's index check,
    which gets the analyses of input and result (None for no check).  The
    gate lays that change out over the input's maps (:func:`_maps`),
    sets each rebuilt body's certificate flags from its profile and runs its
    own checks on the records; only when they pass is the result built,
    once, and it must then be valid, pass ``check`` and have a strictly
    smaller vector.  The gate alone runs the acceptance order the
    module docstring describes, with rule names prefixed by ``rule``.

    A rejection raised before the result is built read only the move and
    the :func:`_hood` of its level, except ``untelescope.fresh_ids``; when
    ``keeps``, the move keeps it with that hood as its verdict, replacing
    any other.  A consolidation, which reads the far body too, keeps none.
    """
    def gated(build: Callable[[Complex, Move], Built]):
        @functools.wraps(build)
        def apply(cx: Complex, m: Move) -> Complex:
            require_valid(cx)
            try:
                put, drop, check = build(cx, m)
                maps = _maps(cx, put, drop)
                if not _check_rebuilt(maps):
                    raise MoveRejected(f"{rule}.result_invalid", lambda: str(validate(_build(maps))))
            except MoveRejected as err:
                if keeps and err.rule != "untelescope.fresh_ids":
                    hood = _hood(cx, m.thick)
                    if hood is not None:
                        object.__setattr__(m, "_verdict", (hood, err.rule))
                raise
            out = _build(maps)
            if not validate(out).ok:
                raise MoveRejected(f"{rule}.result_invalid", lambda: str(validate(out)))
            before, after = analyze(cx), analyze(out)
            if check is not None:
                check(before, after)
            if compare(after.vector, before.vector) != LT:
                raise MoveRejected(f"{rule}.monotone", "complexity did not strictly decrease")
            return out
        return apply
    return gated


def _check_rebuilt(maps: tuple[Records, ...]) -> bool:
    """Read each rebuilt body's levels once, certify every rebuilt body in
    place, then check each on its own (:func:`~widthcalc.model._body_index`,
    which keeps each pass on the body): whether all pass.  One that fails
    puts a violation in the result's report."""
    thick, thin, boundary, cbs = maps
    reads = {}
    for cb_id, cb in cbs.put.items():
        reads[cb_id] = _reads(cb, thick.get, thin.get, boundary.get)
        cbs.put[cb_id] = certify(cb, reads[cb_id])
    return all(_body_index(cb, reads[cb_id], None) is not None for cb_id, cb in cbs.put.items())


def _fresh(cx: Complex, ids: list[str], rule: str) -> None:
    taken = _ids(cx)
    seen: set[str] = set()
    for i in ids:
        if i in taken or i in seen:
            raise MoveRejected(f"{rule}.fresh_ids", f"id {i!r} is not fresh")
        seen.add(i)


def _side_cbs(cx: Complex, thick_id: str, side: str) -> tuple[str, str]:
    """(side body, far body) of a thick level."""
    t = cx.thick[thick_id]
    if side == "up":
        return t.upper_cb, t.lower_cb
    if side == "down":
        return t.lower_cb, t.upper_cb
    raise MoveRejected("move.side", f"side must be 'up' or 'down', not {side!r}")


def _thick(cx: Complex, thick_id: str, kind: str) -> ThickLevel:
    """The thick level ``thick_id``; MoveRejected under ``<kind>.thick``
    when ``cx`` has none."""
    level = cx.thick.get(thick_id)
    if level is None:
        raise MoveRejected(f"{kind}.thick", f"unknown thick level {thick_id!r}")
    return level


def _tangle(given: Tangle | None, plus: Surface, minus_ids: Iterable[str],
            level: Callable[[str], Surface], loops: int, rule: str, message: str) -> Tangle:
    """``given`` when it is not None, else the tangle :func:`solve_tangle`
    picks over ``plus`` and the surfaces ``level`` gives for ``minus_ids``;
    MoveRejected(rule, message) when none is feasible."""
    if given is not None:
        return given
    solved = solve_tangle(plus, [level(p) for p in minus_ids], loops)
    if solved is None:
        raise MoveRejected(rule, message)
    return solved


def _rehome(cx: Complex, bodies: Iterable[CompressionBody], old: set[str]) -> list:
    """The levels of ``cx`` among the ports of the rebuilt ``bodies`` whose
    back-reference names a body in ``old``, each pointed at the body that
    now holds it: a thin level's ``from_cb`` when that end is in ``old``,
    else its ``to_cb``, and a boundary level's ``owner``.  Only those ports
    are read."""
    put = []
    for body in bodies:
        for port in body.minus:
            f = cx.thin.get(port)
            if f is not None:
                if f.from_cb in old:
                    put.append(replace(f, from_cb=body.id))
                elif f.to_cb in old:
                    put.append(replace(f, to_cb=body.id))
                continue
            b = cx.boundary.get(port)
            if b is not None and b.owner in old:
                put.append(replace(b, owner=body.id))
    return put


def _surface(chi: int, p: int, rule: str) -> Surface:
    """The closed surface of euler characteristic ``chi`` with ``p``
    punctures; MoveRejected under ``rule`` when there is none."""
    if chi % 2 or chi > 2 or p < 0:
        raise MoveRejected(rule, f"no surface with euler characteristic {chi} and {p} punctures")
    return Surface((2 - chi) // 2, p)


def _sphere_blocks(cx: Complex) -> dict[str, BoundaryLevel]:
    """Thick level id -> the first boundary level of its connected component
    that is a sphere with two or fewer punctures, for the components that
    have one.  The components are split only when such a sphere exists.
    Kept on the instance; callers must not mutate it."""
    return _kept(cx, "_sphere_blocks", _find_sphere_blocks)


def _find_sphere_blocks(cx: Complex) -> dict[str, BoundaryLevel]:
    small = {b.id for b in cx.boundary.values() if b.surface.genus == 0 and b.surface.punctures <= 2}
    if not small:
        return {}
    blocks = {}
    for part in components(cx):
        sphere = next((b for b in part.boundary.values() if b.id in small), None)
        if sphere is not None:
            blocks.update(dict.fromkeys(part.thick, sphere))
    return blocks


# ---------------------------------------------------------------------------
# Consolidation
# ---------------------------------------------------------------------------

@_gated("consolidate")
def apply_consolidate(cx: Complex, m: Consolidate) -> Built:
    """Delete a thick/thin pair around a certified product and merge bodies.

    The named thin level must join a product-certified body of the named
    thick level to some body A on its far side; A absorbs the product and the
    thick level's other body B.  The merged tangle may be supplied (strand
    composition through a product can create loops the summary cannot see);
    otherwise a canonical assignment is derived.  The merged body index is
    checked to equal ``index(A) + index(B) - 6`` and the complexity vector to
    strictly decrease (it loses exactly the deleted level's entry).
    """
    H = _thick(cx, m.thick, "consolidate")
    Q = cx.thin.get(m.thin)
    if Q is None:
        raise MoveRejected("consolidate.thin", f"unknown thin level {m.thin!r}")

    p_id = None
    for cand in (H.upper_cb, H.lower_cb):
        if cx.cbs[cand].product_certificate and m.thin in cx.cbs[cand].minus:
            p_id = cand
            break
    if p_id is None:
        raise MoveRejected("consolidate.product",
                           f"no product-certified body of {m.thick!r} touches {m.thin!r}")
    # the valid input holds m.thin in the minus levels of Q's two sides only
    a_id = Q.to_cb if Q.from_cb == p_id else Q.from_cb
    b_id = H.lower_cb if p_id == H.upper_cb else H.upper_cb

    A, B = cx.cbs[a_id], cx.cbs[b_id]
    merged_minus = tuple(p for p in A.minus if p != m.thin) + B.minus
    tangle = _tangle(m.merged_tangle, cx.thick[A.plus].surface, merged_minus, cx.level_surface,
                     A.tangle.loops + B.tangle.loops, "consolidate.tangle", "no feasible merged tangle")
    merged = CompressionBody(a_id, A.plus, merged_minus, tangle)

    def check(before: Analysis, after: Analysis) -> None:
        if after.body[a_id] != before.body[a_id] + before.body[b_id] - 6:
            raise MoveRejected("consolidate.merge_index",
                               "merged index != index(A) + index(B) - 6")

    # ``a_id`` is dropped and put again, so the merged body goes last
    return (*_rehome(cx, (merged,), {b_id}), merged), frozenset((m.thick, m.thin, a_id, b_id, p_id)), check


# ---------------------------------------------------------------------------
# Untelescoping
# ---------------------------------------------------------------------------

@_gated("untelescope", keeps=True)
def apply_untelescope(cx: Complex, m: Untelescope) -> Built:
    """Split a thick level along a weakly reducing disc pair.

    The certificate carries the disc data for each side and the ids/tangles of
    the replacement: a lower thick level (kept piece of the down-side cut), an
    upper one, and the doubly spotted thin level joining them.  The discarded
    piece of each cut is absorbed by the opposite new body, which is exactly
    the consolidation the surgery forces.  Checked: both cuts account via
    :func:`boundary_reduce`, the replacement validates, the lower/upper body
    index sums each gain exactly 6 while the near-side ones drop strictly, the
    far-side aggregate indices are fixed and near-side ones drop strictly,
    and the complexity vector strictly decreases.
    """
    H = _thick(cx, m.thick, "untelescope")
    out = m.outcome
    _fresh(cx, _outcome_ids(out), "untelescope")

    red_minus = boundary_reduce(cx, H.lower_cb, m.disc_minus)
    red_plus = boundary_reduce(cx, H.upper_cb, m.disc_plus)
    s_minus = red_minus.pieces[0].surface
    s_plus = red_plus.pieces[0].surface
    side1_minus = red_minus.pieces[0].ports
    side2_minus = red_minus.pieces[1].ports if len(red_minus.pieces) > 1 else ()
    side1_plus = red_plus.pieces[0].ports
    side2_plus = red_plus.pieces[1].ports if len(red_plus.pieces) > 1 else ()

    # The doubly spotted level is the double surgery on H; its data is forced.
    chi0 = euler_char(s_minus) + euler_char(s_plus) - euler_char(H.surface)
    p0 = s_minus.punctures + s_plus.punctures - H.surface.punctures
    f0 = _surface(chi0, p0, "untelescope.doubly_spotted")

    hm, hp = out.h_minus, out.h_plus
    new_thin = ThinLevel(out.thin_id, f0, from_cb=hm.upper.id, to_cb=hp.lower.id)

    def level(port: str) -> Surface:
        return f0 if port == out.thin_id else cx.level_surface(port)

    def make_cb(spec: BodySpec, plus_id: str, plus_surface: Surface,
                minus: tuple[str, ...], thin_extra: bool) -> CompressionBody:
        ports = ((out.thin_id,) if thin_extra else ()) + minus
        tangle = _tangle(spec.tangle, plus_surface, ports, level, 0, "untelescope.tangle",
                         f"no feasible tangle for body {spec.id!r}")
        return CompressionBody(spec.id, plus_id, ports, tangle)

    cb_hm_down = make_cb(hm.lower, hm.id, s_minus, side1_minus, thin_extra=False)
    cb_hm_up = make_cb(hm.upper, hm.id, s_minus, side2_plus, thin_extra=True)
    cb_hp_down = make_cb(hp.lower, hp.id, s_plus, side2_minus, thin_extra=True)
    cb_hp_up = make_cb(hp.upper, hp.id, s_plus, side1_plus, thin_extra=False)
    bodies = (cb_hm_down, cb_hm_up, cb_hp_down, cb_hp_up)

    old_up, old_down = H.upper_cb, H.lower_cb
    put = (ThickLevel(hm.id, s_minus, upper_cb=hm.upper.id, lower_cb=hm.lower.id),
           ThickLevel(hp.id, s_plus, upper_cb=hp.upper.id, lower_cb=hp.lower.id),
           *_rehome(cx, bodies, {old_up, old_down}), new_thin, *bodies)

    def check(before: Analysis, after: Analysis) -> None:
        # Body-index bookkeeping around the split level.
        mu_down_before = before.body[old_down]
        mu_up_before = before.body[old_up]
        mu_down_hm = after.body[cb_hm_down.id]
        mu_down_hp = after.body[cb_hp_down.id]
        mu_up_hm = after.body[cb_hm_up.id]
        mu_up_hp = after.body[cb_hp_up.id]
        if mu_down_hm >= mu_down_before:
            raise MoveRejected("untelescope.lower_drop",
                               f"lower body index {mu_down_hm} must drop below {mu_down_before}")
        if mu_up_hp >= mu_up_before:
            raise MoveRejected("untelescope.upper_drop",
                               f"upper body index {mu_up_hp} must drop below {mu_up_before}")
        if mu_down_hm + mu_down_hp != mu_down_before + 6:
            raise MoveRejected("untelescope.lower_sum",
                               f"lower body indices {mu_down_hm}+{mu_down_hp} != {mu_down_before}+6")
        if mu_up_hm + mu_up_hp != mu_up_before + 6:
            raise MoveRejected("untelescope.upper_sum",
                               f"upper body indices {mu_up_hm}+{mu_up_hp} != {mu_up_before}+6")

        # Aggregate-index relations between the old level and the two new ones.
        iu_before = before.index_up[m.thick]
        id_before = before.index_down[m.thick]
        if after.index_down[hm.id] >= id_before:
            raise MoveRejected("untelescope.lower_index_drop", "lower aggregate index must drop")
        if after.index_up[hm.id] != iu_before:
            raise MoveRejected("untelescope.upper_index_fixed", "upper aggregate index must be unchanged")
        if after.index_down[hp.id] != id_before:
            raise MoveRejected("untelescope.lower_index_fixed", "lower aggregate index must be unchanged")
        if after.index_up[hp.id] >= iu_before:
            raise MoveRejected("untelescope.upper_index_drop", "upper aggregate index must drop")

    return put, frozenset((m.thick, old_up, old_down)), check


def _outcome_ids(out: UntelescopeOutcome) -> list[str]:
    """The seven ids an untelescope's outcome brings in, in the order they
    are checked to be fresh."""
    return [out.h_minus.id, out.h_plus.id, out.thin_id, out.h_minus.lower.id,
            out.h_minus.upper.id, out.h_plus.lower.id, out.h_plus.upper.id]


def find_product_on_thin(cx: Complex) -> tuple[str, str] | None:
    """The (thick, thin) pair of the least body id that is product-certified
    and has a thin level as its only minus level; None if there is none."""
    pairs = _products_on_thin(cx)
    return pairs[0] if pairs else None


def _products_on_thin(cx: Complex) -> list[tuple[str, str]]:
    """The (thick, thin) pair of each product-certified body whose only minus
    level is a thin level, in body-id order.  Kept on the instance; callers
    must not mutate it."""
    return _kept(cx, "_products_on_thin", lambda cx: [(thick, thin) for _id, thick, thin in sorted(
        (cb.id, cb.plus, cb.minus[0]) for cb in cx.cbs.values()
        if cb.product_certificate and len(cb.minus) == 1 and cb.minus[0] in cx.thin)])


def elementary_thinning_sequence(cx: Complex, m: Untelescope) -> Complex:
    """Untelescope, then consolidate every product the split exposes.

    Requires that no product-certified body touches a thin level beforehand.
    The untelescope output is already consolidated against the split's own
    parallel pieces, so the remaining work is merging the new bodies into
    their old thin neighbours, repeated until no certified product touches a
    thin level.  The doubly spotted level always survives and the complexity
    vector strictly decreases.  Every step is a gated move, so the last
    step's result is valid and, the vector order being transitive, smaller
    than ``cx``'s: it needs no second gate.
    """
    require_valid(cx)
    if find_product_on_thin(cx) is not None:
        raise MoveRejected("elementary.pre",
                           "a product-certified body already touches a thin level")
    result = apply_untelescope(cx, m)
    while (hit := find_product_on_thin(result)) is not None:
        result = apply_consolidate(result, Consolidate(thick=hit[0], thin=hit[1]))
    if m.outcome.thin_id not in result.thin:
        raise MoveRejected("elementary.doubly_spotted",
                           "the doubly spotted level did not survive consolidation")
    return result


# ---------------------------------------------------------------------------
# Destabilization family
# ---------------------------------------------------------------------------

@_gated("destabilize", keeps=True)
def apply_destabilize(cx: Complex, m: Destabilize) -> Built:
    """Remove a generalized stabilization from one thick level.

    ``stab``/``merid_stab`` compress a genus handle, keeping or adding two
    punctures.  The boundary variants hand a set S of boundary levels (and,
    for the ghost variants, ``ghost_arcs`` many ghost arcs attached to S) from
    the ``side`` body across to the other side, compressing the level by
    ``chi(S) - 2*ghosts - 2`` worth of euler characteristic and adjusting
    punctures by ``2*ghosts - p(S) + 2q``.  Requires that no boundary level
    in the thick level's connected component is a sphere with two or fewer
    punctures; other components are separate pairs and do not matter.  Both
    body indices must drop strictly and the complexity vector decreases.
    """
    if m.variant not in DESTAB_VARIANTS:
        raise MoveRejected("destabilize.variant", f"unknown variant {m.variant!r}")
    H = _thick(cx, m.thick, "destabilize")
    sphere = _sphere_blocks(cx).get(m.thick)
    if sphere is not None:
        raise MoveRejected("destabilize.boundary_sphere",
                           f"boundary level {sphere.id!r} is a sphere with <= 2 punctures")

    side_id, far_id = _side_cbs(cx, m.thick, m.side)
    side_cb, far_cb = cx.cbs[side_id], cx.cbs[far_id]
    g, p = H.surface.genus, H.surface.punctures
    q = 1 if m.variant.startswith("merid") else 0
    gamma = m.ghost_arcs
    s_ids = tuple(m.boundary_ids)

    if m.variant in ("stab", "merid_stab"):
        if s_ids or gamma:
            raise MoveRejected("destabilize.params", "stab variants take no boundary levels or ghost arcs")
        if g < 1:
            raise MoveRejected("destabilize.genus", "genus >= 1 required")
        new_surface = Surface(g - 1, p + 2 * q)
        side_minus, far_minus = side_cb.minus, far_cb.minus
        if q:
            kept_side = replace(side_cb.tangle, bridges=side_cb.tangle.bridges + 1)
            kept_far = replace(far_cb.tangle, bridges=far_cb.tangle.bridges + 1)
        else:
            kept_side, kept_far = side_cb.tangle, far_cb.tangle
    else:
        if m.variant in ("bdy", "merid_bdy"):
            if gamma != 0:
                raise MoveRejected("destabilize.params", "plain boundary variants take no ghost arcs")
            if len(s_ids) != 1:
                raise MoveRejected("destabilize.params", "boundary variants name exactly one boundary level")
        else:
            if gamma < 1:
                raise MoveRejected("destabilize.params", "ghost variants need at least one ghost arc")
            if not s_ids:
                raise MoveRejected("destabilize.params",
                                   "ghost arcs attach to boundary levels; name them")
            if gamma < len(s_ids) - 1:
                raise MoveRejected("destabilize.params",
                                   f"{gamma} ghost arcs cannot connect {len(s_ids)} boundary levels")
        if len(set(s_ids)) != len(s_ids):
            raise MoveRejected("destabilize.params", "repeated boundary level")
        for s in s_ids:
            if s not in cx.boundary or s not in side_cb.minus:
                raise MoveRejected("destabilize.params",
                                   f"{s!r} is not a boundary level of the {m.side} body")
        if gamma > side_cb.tangle.ghosts:
            raise MoveRejected("destabilize.params",
                               f"side body has only {side_cb.tangle.ghosts} ghost arcs")
        s_surfaces = [cx.boundary[s].surface for s in s_ids]
        chi_s = sum(euler_char(s) for s in s_surfaces)
        p_s = sum(s.punctures for s in s_surfaces)
        if p_s < 2 * gamma:
            raise MoveRejected("destabilize.params",
                               f"{gamma} ghost arcs need {2 * gamma} punctures on the named levels")
        chi_new = euler_char(H.surface) - chi_s + 2 * gamma + 2
        p_new = p - p_s + 2 * gamma + 2 * q
        new_surface = _surface(chi_new, p_new, "destabilize.profile")
        side_minus = tuple(x for x in side_cb.minus if x not in s_ids)
        far_minus = far_cb.minus + s_ids
        kept_side = kept_far = None  # solved below

    given_side, given_far = (m.tangle_up, m.tangle_down) if m.side == "up" else (m.tangle_down, m.tangle_up)
    tangle_side = _tangle(kept_side if given_side is None else given_side, new_surface, side_minus,
                          cx.level_surface, side_cb.tangle.loops, "destabilize.tangle",
                          "no feasible tangle for the near body")
    tangle_far = _tangle(kept_far if given_far is None else given_far, new_surface, far_minus,
                         cx.level_surface, far_cb.tangle.loops, "destabilize.tangle",
                         "no feasible tangle for the far body")
    far = CompressionBody(far_id, far_cb.plus, far_minus, tangle_far)

    # the gate sets the rebuilt bodies' certificate flags
    put = (ThickLevel(m.thick, new_surface, H.upper_cb, H.lower_cb),
           *_rehome(cx, (far,), {side_id}),
           CompressionBody(side_id, side_cb.plus, side_minus, tangle_side), far)

    def check(before: Analysis, after: Analysis) -> None:
        if after.body[H.upper_cb] >= before.body[H.upper_cb]:
            raise MoveRejected("destabilize.upper_drop", "upper body index must drop strictly")
        if after.body[H.lower_cb] >= before.body[H.lower_cb]:
            raise MoveRejected("destabilize.lower_drop", "lower body index must drop strictly")

    return put, frozenset(), check


# ---------------------------------------------------------------------------
# Unperturbing and removable arcs
# ---------------------------------------------------------------------------

@_gated("unperturb", keeps=True)
def apply_unperturb(cx: Complex, m: Unperturb) -> Built:
    """Cancel a perturbing disc pair: two punctures and a bridge arc on each
    side disappear; on the far side the merge consumes a second bridge arc
    (``bridge_bridge``) or pairs with a vertical arc (``vertical_bridge``),
    leaving vertical counts unchanged either way."""
    H = _thick(cx, m.thick, "unperturb")
    if m.merge_case not in ("bridge_bridge", "vertical_bridge"):
        raise MoveRejected("unperturb.case", f"unknown merge case {m.merge_case!r}")
    if H.surface.punctures < 2:
        raise MoveRejected("unperturb.punctures", "the level meets the graph fewer than twice")
    near_id, far_id = _side_cbs(cx, m.thick, m.near_side)
    near, far = cx.cbs[near_id], cx.cbs[far_id]
    if near.tangle.bridges < 1 or far.tangle.bridges < 1:
        raise MoveRejected("unperturb.bridges", "both side bodies need a bridge arc")
    if m.merge_case == "bridge_bridge" and far.tangle.bridges < 2:
        raise MoveRejected("unperturb.bridges", "bridge-bridge merge needs two far bridge arcs")
    if m.merge_case == "vertical_bridge" and far.tangle.verticals < 1:
        raise MoveRejected("unperturb.verticals", "vertical-bridge merge needs a far vertical arc")

    return (replace(H, surface=Surface(H.surface.genus, H.surface.punctures - 2)),
            replace(near, tangle=replace(near.tangle, bridges=near.tangle.bridges - 1)),
            replace(far, tangle=replace(far.tangle, bridges=far.tangle.bridges - 1))), frozenset(), None


@_gated("undo_removable", keeps=True)
def apply_undo_removable(cx: Complex, m: UndoRemovable) -> Built:
    """Pull a removable component off the level: two punctures fewer.

    Default pattern: one bridge arc on each side fuses into a core loop on
    ``loop_side``.  A general redistribution may supply both new tangles,
    subject to conservation against the two-fewer-punctures level.
    """
    H = _thick(cx, m.thick, "undo_removable")
    if H.surface.punctures < 2:
        raise MoveRejected("undo_removable.punctures", "the level meets the graph fewer than twice")
    up_id, down_id = H.upper_cb, H.lower_cb
    up, down = cx.cbs[up_id], cx.cbs[down_id]

    if m.tangle_up is not None and m.tangle_down is not None:
        _side_cbs(cx, m.thick, m.loop_side)  # checked although a redistribution makes no loop
        t_up, t_down = m.tangle_up, m.tangle_down
    elif m.tangle_up is None and m.tangle_down is None:
        if up.tangle.bridges < 1 or down.tangle.bridges < 1:
            raise MoveRejected("undo_removable.bridges", "loop pattern needs a bridge arc on each side")
        t_up = replace(up.tangle, bridges=up.tangle.bridges - 1)
        t_down = replace(down.tangle, bridges=down.tangle.bridges - 1)
        if _side_cbs(cx, m.thick, m.loop_side)[0] == up_id:
            t_up = replace(t_up, loops=t_up.loops + 1)
        else:
            t_down = replace(t_down, loops=t_down.loops + 1)
    else:
        raise MoveRejected("undo_removable.redistribution",
                           "a general redistribution supplies both tangles")

    return (replace(H, surface=Surface(H.surface.genus, H.surface.punctures - 2)),
            replace(up, tangle=t_up), replace(down, tangle=t_down)), frozenset(), None


# ---------------------------------------------------------------------------
# Dispatch, reducedness
# ---------------------------------------------------------------------------

# Each move record type: its document ``kind`` and its apply function.
_KINDS: dict[type, tuple[str, Callable[[Complex, Move], Complex]]] = {
    Consolidate: ("consolidate", apply_consolidate),
    Untelescope: ("untelescope", elementary_thinning_sequence),
    Destabilize: ("destabilize", apply_destabilize),
    Unperturb: ("unperturb", apply_unperturb),
    UndoRemovable: ("undo_removable", apply_undo_removable),
}


def apply_move(cx: Complex, m: Move) -> Complex:
    """Apply any move; untelescope certificates run the full staged sequence.

    A move whose verdict holds on ``cx`` (:func:`_kept_rule`) is rejected
    under its rule at once, and the message is worked out, when it is
    read, by deciding the move again; any other move is decided by its
    kind's apply function.  Sound because a complex never changes and each
    kind's apply function reads only the complex and the move, and, up to
    building the result, only the hood of the move's level besides the two
    untelescope checks that read the whole complex."""
    kind = _KINDS.get(type(m))
    if kind is None:
        raise MoveRejected("move.kind", f"unknown move {m!r}")
    rule = None if m._verdict is None else _kept_rule(cx, m)
    if rule is not None:
        raise MoveRejected(rule, functools.partial(_message_again, kind[1], cx, m))
    return kind[1](cx, m)


def _kept_rule(cx: Complex, m: Move) -> str | None:
    """The rule of ``m``'s verdict when it holds on ``cx``, else None: a
    component scope holds on that very object; a hood scope where the
    :func:`_hood` of the move's level on ``cx`` equals it and, for an
    untelescope, no certified product touches a thin level and the outcome
    ids are free in ``cx``."""
    scope, rule = m._verdict
    if scope is cx:
        return rule
    if type(scope) is not tuple:
        return None
    require_valid(cx)
    if _hood(cx, m.thick) != scope:
        return None
    if type(m) is Untelescope and (find_product_on_thin(cx) is not None
                                   or not _ids(cx).isdisjoint(_outcome_ids(m.outcome))):
        return None
    return rule


def _message_again(apply, cx: Complex, m: Move) -> str:
    """The message of ``m``'s rejection by ``apply`` on ``cx``, decided again."""
    try:
        apply(cx, m)
    except MoveRejected as err:
        return err.message
    raise AssertionError(f"{m!r} was rejected on this complex before")


REDUCING = (Destabilize, Unperturb, UndoRemovable)


def named_ids(cx: Complex, move) -> list[str] | None:
    """The ids ``move`` names, its thick level first, then a consolidation's
    thin level, an untelescope's outcome ids and split ports, or a
    destabilization's boundary levels.  None when the decision reads the
    whole of ``cx``: for an offer that is not a move record, and for an
    untelescope while a certified product touches a thin level
    (``elementary.pre``)."""
    kind = type(move)
    if kind is Untelescope:
        named = [move.thick, *_outcome_ids(move.outcome)]
        for disc in (move.disc_minus, move.disc_plus):
            if disc.split is not None:
                for side in disc.split.ports:
                    named += side
        return None if find_product_on_thin(cx) is not None else named
    if kind is Consolidate:
        return [move.thick, move.thin]
    if kind is Destabilize:
        return [move.thick, *move.boundary_ids]
    return [move.thick] if kind in _KINDS else None


def applicable(cx: Complex, offers: Iterable, rejected: Counter[tuple[str | None, str]]
               ) -> Iterator[tuple[Move, list[Complex], tuple[int, ...]]]:
    """``(move, parts, vector)`` for each of ``offers`` that applies to the
    valid ``cx``, in order, each applied per component (see the module
    docstring): the result is made up of ``parts``, and ``vector`` is its
    complexity vector.

    Each rejection is counted in ``rejected`` under (move document ``kind``,
    rule), and its message is never formatted; an offer that is not a move
    counts under ``(None, "move.kind")``.  Offers are applied as they are
    asked for, so a caller that stops early applies no more.  An offer
    routed to one of the :func:`~widthcalc.model.components` of ``cx``, a
    part, is looked up in the results accepted on that part, which only
    this loop reads and writes, kept on it under ``_accepted`` and keyed by
    value, since a proposer may build new move objects; a kept result is
    taken as it is, and any other offer goes to :func:`apply_move`, which
    raises the rule of a verdict that holds.  When the part rejects a move
    that keeps no verdict, the move keeps the rule with the part as its
    scope (see the module docstring).  A verdict the move already keeps is
    not replaced: a hood holds wherever its level's hood is equal, and
    parts that take turns with one move would each replace the other's
    rule.  Its ``parts`` are the other parts and the components of the
    part's result, and its vector the sorted merge of theirs; no union is
    built, so a caller that keeps the result joins it
    (:func:`~widthcalc.model.joined`), and the union keeps those parts as
    its components.  A ``cx`` of one component applies every offer whole:
    ``parts`` is ``[result]``, the result itself, and the loop reads no
    ``named_ids`` and hashes no move.
    """
    require_valid(cx)
    parts = components(cx)
    home = None
    if len(parts) > 1:
        home = {name: k for k, part in enumerate(parts) for name in _ids(part)}
    for move in offers:
        k = None if home is None else _home(cx, move, home)
        part = cx if k is None else parts[k]
        accepted = None if k is None else _kept(part, "_accepted", _empty)
        try:
            # no move is hashed before one is accepted on the part
            result = accepted.get(move) if accepted else None
        except TypeError:  # a move holding a list, say, is never a key
            result = None
        if result is None:
            try:
                result = apply_move(part, move)
            except MoveRejected as err:
                rejected[_KINDS.get(type(move), (None,))[0], err.rule] += 1
                if k is not None and move._verdict is None:
                    object.__setattr__(move, "_verdict", (part, err.rule))
                continue
            if accepted is not None:
                try:
                    accepted[move] = result
                except TypeError:
                    pass
        if k is None:
            yield move, [result], analyze(result).vector
            continue
        entries = [entry for sub in (*parts[:k], result, *parts[k + 1:])
                   for entry in analyze(sub).vector]
        yield (move, parts[:k] + components(result) + parts[k + 1:],
               tuple(sorted(entries, reverse=True)))


def _home(cx: Complex, move, home: dict[str, int]) -> int | None:
    """The part an offer goes to, by the part ``home`` gives for each id of
    ``cx``: the one holding its thick level, when every other id it names
    that ``cx`` holds lies there too.  None for an offer to apply to the
    whole of ``cx``, which includes one whose decision reads all of it
    (:func:`named_ids`)."""
    named = named_ids(cx, move)
    k = None if named is None else home.get(named[0])
    if k is None:
        return None
    for name in named:
        if home.get(name, k) != k:
            return None
    return k


def is_reduced(cx: Complex, proposer=None) -> tuple[bool, Move | None]:
    """No certified product touches a thin level and the proposer offers no
    applicable destabilize/unperturb/undo-removable certificate.  The witness
    is the first applicable move when the answer is no."""
    require_valid(cx)
    hit = find_product_on_thin(cx)
    if hit is not None:
        return False, Consolidate(thick=hit[0], thin=hit[1])
    if proposer is not None:
        reducing = (m for m in proposer(cx) if isinstance(m, REDUCING))
        for move, _result, _vector in applicable(cx, reducing, Counter()):
            return False, move
    return True, None


# ---------------------------------------------------------------------------
# Move document format
# ---------------------------------------------------------------------------

# The rows of the move document format, one per field of each move record,
# added to the instance format's table in ``model``, whose comment gives the
# form of a row.  The top-level object also holds ``kind``, which
# :func:`parse_move` reads before it decodes the rest.
_ROWS: dict[type, tuple[tuple, ...]] = {
    **_INSTANCE_ROWS,
    SplitData: (("genus", (int, int)), ("punctures", (int, int)),
                ("ports", ([str], [str])), ("tangles", (Tangle, Tangle), None, True)),
    DiscData: (("q", int, 0), ("separating", bool, False), ("split", SplitData, None, True)),
    BodySpec: (("id", str), ("tangle", Tangle, None)),
    ThickSpec: (("id", str), ("lower", BodySpec), ("upper", BodySpec)),
    UntelescopeOutcome: (("h_minus", ThickSpec), ("h_plus", ThickSpec), ("thin_id", str)),
    Consolidate: (("thick", str), ("thin", str), ("merged_tangle", Tangle, None)),
    Untelescope: (("thick", str), ("disc_minus", DiscData), ("disc_plus", DiscData),
                  ("outcome", UntelescopeOutcome)),
    Destabilize: (("variant", str), ("thick", str), ("side", str, "up"),
                  ("boundary_ids", [str], ()), ("ghost_arcs", int, 0),
                  ("tangle_up", Tangle, None), ("tangle_down", Tangle, None)),
    Unperturb: (("thick", str), ("near_side", str, "up"), ("merge_case", str, "bridge_bridge")),
    UndoRemovable: (("thick", str), ("loop_side", str, "down"),
                    ("tangle_up", Tangle, None), ("tangle_down", Tangle, None)),
}


def emit_move(m: Move) -> dict:
    """Encode a move to its document, ``kind`` first."""
    kind = _KINDS.get(type(m))
    if kind is None:
        raise SchemaError(f"unknown move {m!r}")
    return {"kind": kind[0], **_encode(type(m), m, _ROWS)}


def parse_move(doc: dict) -> Move:
    """Decode a move document; raises SchemaError naming the missing,
    mistyped or unknown field when malformed.  Optional fields may be
    missing or null."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("move: expected an object with a 'kind' field")
    kind = doc["kind"]
    cls = next((cls for cls, (name, _apply) in _KINDS.items() if name == kind), None)
    if cls is None:
        raise SchemaError(f"unknown move kind {kind!r}")
    return _decode(cls, {key: val for key, val in doc.items() if key != "kind"}, "move", _ROWS)
