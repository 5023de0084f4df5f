"""Data model for oriented leveled splittings of (3-manifold, graph) pairs.

A complex records a multilevel splitting in summary form: closed orientable
surfaces are (genus, puncture count) pairs, and each compression body between
levels is a boundary-and-tangle summary rather than an embedding. Topological
claims that cannot be decided from summary data (e.g. that a piece really is a
trivial product) travel as explicit certificate flags on the compression body;
every numeric consequence of such a claim is enforced here.

Levels come in three kinds:

* A *thick* level separates two distinct compression bodies that share it as
  their positive boundary; the transverse orientation points out of the lower
  body and into the upper one.
* A *thin* level lies in the negative boundary of exactly two compression
  bodies.  ``from_cb`` names the upper body the orientation exits, ``to_cb``
  the lower body it enters, so each thin level induces one edge of the flow
  digraph on thick levels.
* A *boundary* level is a component of the ambient boundary, owned by the one
  compression body whose negative boundary contains it.  Drilled-out graph
  vertices appear as boundary spheres with at least three punctures.

Tangles are summarised by four counts: vertical arcs (one end on the positive
boundary, one on the negative), bridge arcs (both ends positive), ghost arcs
(both ends negative) and closed core loops.  Puncture conservation ties these
counts to the surface data, and a handle-feasibility bound ties ghost arcs and
core loops to the available genus; together these make the body index (a
handle-count proxy) even, non-negative, and exactly 0 / 4 / at least 6 on the
ball / ball-with-arc / all other profiles.

All values are immutable, and this is enforced: the records are frozen
dataclasses and a complex's four maps are read-only views of private copies.
Operations are pure functions and never mutate a complex, so instances can be
shared freely across threads, and what :func:`validate` works out about a
complex is computed once and kept on the instance.  Each body record keeps,
off its fields, the last check of its own it passed: what the check read and
the index it gave, reused wherever the record reads the same surfaces.
"""

from __future__ import annotations

import graphlib
import json
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, is_
from types import MappingProxyType

__all__ = [
    "Surface",
    "Tangle",
    "CompressionBody",
    "ThickLevel",
    "ThinLevel",
    "BoundaryLevel",
    "Complex",
    "Violation",
    "ValidationReport",
    "ValidationError",
    "SchemaError",
    "euler_char",
    "Validation",
    "validation",
    "validate",
    "require_valid",
    "profile_index",
    "body_index",
    "certify",
    "thick_digraph",
    "topological_order",
    "digraph_cycle",
    "components",
    "disjoint_union",
    "joined",
    "parse_complex",
    "emit_record",
    "record_text",
    "emit_complex",
    "build_complex",
]


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Surface:
    """A closed orientable surface transverse to the graph.

    ``genus`` is the genus of the closed surface and ``punctures`` the number
    of intersections with the graph.  Euler characteristic is always taken of
    the closed surface, so it is even and at most 2.

    >>> Surface(2, 3)
    Surface(genus=2, punctures=3)
    """

    genus: int
    punctures: int


def euler_char(s: Surface) -> int:
    """Euler characteristic of the closed surface, ``2 - 2 * genus``.

    >>> euler_char(Surface(0, 5))
    2
    >>> euler_char(Surface(3, 0))
    -4
    """
    return 2 - 2 * s.genus


@dataclass(frozen=True)
class Tangle:
    """Arc-type counts for the graph pieces inside one compression body."""

    verticals: int = 0
    bridges: int = 0
    ghosts: int = 0
    loops: int = 0

    def counts(self) -> tuple[int, int, int, int]:
        return (self.verticals, self.bridges, self.ghosts, self.loops)


EMPTY_TANGLE = Tangle(0, 0, 0, 0)


@dataclass(frozen=True)
class CompressionBody:
    """Boundary-and-tangle summary of one piece of the cut-open pair.

    ``plus`` names the thick level carrying the positive boundary; ``minus``
    lists the thin/boundary levels in the negative boundary.  The certificate
    flags assert triviality of the piece (as a product over its single minus
    level, or as a ball); validation checks the numeric conditions each flag
    forces but cannot, and does not try to, decide the converse.
    """

    id: str
    plus: str
    minus: tuple[str, ...] = ()
    tangle: Tangle = EMPTY_TANGLE
    product_certificate: bool = False
    ball_certificate: bool = False
    _passed = None  # not a field: the last check passed, set by _body_index

    def __post_init__(self):
        # canonical port order keeps value equality independent of input order
        object.__setattr__(self, "minus", tuple(sorted(self.minus)))


@dataclass(frozen=True)
class ThickLevel:
    id: str
    surface: Surface
    upper_cb: str
    lower_cb: str
    _offers = None  # not a field: the proposer's offers here, set by gen._level_moves


@dataclass(frozen=True)
class ThinLevel:
    id: str
    surface: Surface
    from_cb: str
    to_cb: str


@dataclass(frozen=True)
class BoundaryLevel:
    id: str
    surface: Surface
    owner: str
    is_drilled_vertex: bool = False


@dataclass(frozen=True)
class Complex:
    """An oriented leveled splitting, keyed by level / body ids.

    The maps (dicts, or another complex's maps) are copied on construction
    and exposed read-only, so a complex cannot change once built; derive a
    changed one with ``dataclasses.replace``.
    """

    thick: Mapping[str, ThickLevel] = field(default_factory=dict)
    thin: Mapping[str, ThinLevel] = field(default_factory=dict)
    boundary: Mapping[str, BoundaryLevel] = field(default_factory=dict)
    cbs: Mapping[str, CompressionBody] = field(default_factory=dict)

    def __post_init__(self):
        # copy() rather than dict(): it is also the fast path for a read-only view
        for name in ("thick", "thin", "boundary", "cbs"):
            object.__setattr__(self, name, MappingProxyType(getattr(self, name).copy()))

    def __reduce__(self):
        """Rebuild from plain dicts, since read-only views do not pickle,
        without the work kept on the complex.  Pickled bodies keep the check
        they last passed, with the surfaces it read; the copy reuses it only
        where a body reads those very surface objects, which one pickle
        keeps as one object each."""
        return Complex, (dict(self.thick), dict(self.thin), dict(self.boundary), dict(self.cbs))

    def level_surface(self, level_id: str) -> Surface:
        """Surface of any level, whatever its kind. KeyError if unknown."""
        if level_id in self.thin:
            return self.thin[level_id].surface
        if level_id in self.boundary:
            return self.boundary[level_id].surface
        return self.thick[level_id].surface


def build_complex(
    thick: list[ThickLevel] | tuple[ThickLevel, ...] = (),
    thin: list[ThinLevel] | tuple[ThinLevel, ...] = (),
    boundary: list[BoundaryLevel] | tuple[BoundaryLevel, ...] = (),
    cbs: list[CompressionBody] | tuple[CompressionBody, ...] = (),
) -> Complex:
    """Assemble a complex from record lists, rejecting duplicate ids by one
    count against its kept :func:`_ids`, and naming the first in pool order
    that records of two kinds share."""
    cx = Complex(
        thick={t.id: t for t in thick},
        thin={t.id: t for t in thin},
        boundary={b.id: b for b in boundary},
        cbs={c.id: c for c in cbs},
    )
    if len(_ids(cx)) < len(thick) + len(thin) + len(boundary) + len(cbs):
        seen: set[str] = set()
        for pool in (cx.thick, cx.thin, cx.boundary, cx.cbs):
            for key in pool:
                if key in seen:
                    raise SchemaError(f"duplicate id {key!r}")
                seen.add(key)
        raise SchemaError("duplicate id within a collection")
    return cx


# ---------------------------------------------------------------------------
# Errors and reports
# ---------------------------------------------------------------------------

class SchemaError(ValueError):
    """Raised for malformed documents: bad types, missing fields, dup ids."""


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


class ValidationError(ValueError):
    """Raised when an operation requiring a valid complex gets an invalid one."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _check_surface(subject: str, s: Surface, out: list[Violation]) -> None:
    # an integer is an exact ``int``, as JSON gives one: a bool is not
    if type(s.genus) is not int or s.genus < 0:
        out.append(Violation("genus_negative", subject, f"genus {s.genus!r} must be a non-negative integer"))
    if type(s.punctures) is not int or s.punctures < 0:
        out.append(Violation("punctures_negative", subject, f"punctures {s.punctures!r} must be a non-negative integer"))


def _check_flag(subject: str, key: str, flag, out: list[Violation] | None) -> bool:
    """Whether ``flag``, field ``key``, is a bool; if not, it is reported to ``out`` when given."""
    if isinstance(flag, bool):
        return True
    if out is not None:
        out.append(Violation("flag_type", subject, f"{key} {flag!r} must be a boolean"))
    return False


def _check_tangle(subject: str, t: Tangle, out: list[Violation] | None) -> bool:
    """Whether every count of ``t`` is a non-negative integer.  Each one that
    is not is appended to ``out``; with ``out`` None the first one ends the
    check."""
    ok = True
    for name, n in zip(("verticals", "bridges", "ghosts", "loops"), t.counts()):
        if type(n) is not int or n < 0:
            if out is None:
                return False
            ok = False
            out.append(Violation("tangle_negative", subject, f"{name} {n!r} must be a non-negative integer"))
    return ok


def ghost_excess(ghosts: int, anchors: int) -> int:
    """Least genus the ghost arcs force beyond the minus-side genus.

    Ghost arcs end on graph punctures of minus-side levels, so only levels
    that carry punctures (``anchors``) can hold them.  Spread over the
    anchors as a forest they are free; every arc beyond a spanning forest
    closes a cycle in the spine and forces one handle on the positive side.
    """
    return max(0, ghosts - max(0, anchors - 1))


def _reads(cb: CompressionBody, thick, thin, boundary) -> tuple[Surface | None, list[Surface | None]]:
    """What a body check reads besides the body record: the surface of its
    plus level and the surface of each minus port, in port order, None for
    an id that is not a level of the right kind.  ``thick``, ``thin`` and
    ``boundary`` look levels up by id, giving None for an unknown one: the
    ``get`` of a complex's maps, or of a move's result before it is built."""
    top = thick(cb.plus)
    minus = []
    for port in cb.minus:
        level = thin(port) or boundary(port)
        minus.append(level and level.surface)
    return top and top.surface, minus


def _check_cb(cb: CompressionBody, reads: tuple, out: list[Violation] | None) -> int | None:
    """Check one body on its own: the body's index when it passes, else None.
    ``reads`` is what :func:`_reads` gives for it: the check reads nothing
    else.  Every failure is appended to ``out``; with ``out`` None the check
    stops at the first one and builds no violation or message."""
    plus, minus = reads
    sub = cb.id
    t = cb.tangle
    product, ball = cb.product_certificate, cb.ball_certificate
    fields_ok = _check_tangle(sub, t, out)
    if type(product) is not bool or type(ball) is not bool:
        fields_ok = (_check_flag(sub, "product_certificate", product, out)
                     & _check_flag(sub, "ball_certificate", ball, out) & fields_ok)
    if not fields_ok and out is None:
        return None

    if plus is None:
        if out is not None:
            out.append(Violation("dangling_reference", sub, f"plus level {cb.plus!r} is not a thick level"))
        return None
    for s in minus:
        if s is None:  # report every unknown port
            if out is not None:
                out.extend(Violation("dangling_reference", sub,
                                     f"minus port {port!r} is not a thin or boundary level")
                           for port, found in zip(cb.minus, minus) if found is None)
            return None
    if len(cb.minus) > 1 and len(set(cb.minus)) != len(cb.minus):
        if out is not None:
            out.append(Violation("port_multiplicity", sub, "repeated minus port"))
        return None

    # A count, a flag or a surface field of the wrong type was reported above
    # or by _check_surface; arithmetic on it would be meaningless.
    if not fields_ok or not (type(plus.genus) is int and type(plus.punctures) is int):
        return None
    g_minus = p_minus = anchors = 0
    for s in minus:
        if not (type(s.genus) is int and type(s.punctures) is int):
            return None
        g_minus += s.genus
        p_minus += s.punctures
        anchors += s.punctures > 0
    p_plus = plus.punctures
    need = g_minus + t.loops + ghost_excess(t.ghosts, anchors)
    up = p_plus != t.verticals + 2 * t.bridges
    down = p_minus != t.verticals + 2 * t.ghosts
    genus = plus.genus < g_minus
    handles = not genus and plus.genus < need
    conflict = product and ball
    product_fault = product and not _product_profile(plus, minus, t)
    ball_fault = ball and not _ball_profile(plus, minus, t)
    if not (up or down or genus or handles or conflict or product_fault or ball_fault):
        return profile_index(plus, len(minus), g_minus, p_minus)
    if out is None:
        return None
    if up:
        out.append(Violation(
            "conservation_up", sub,
            f"positive punctures {p_plus} != verticals + 2*bridges = {t.verticals + 2 * t.bridges}"))
    if down:
        out.append(Violation(
            "conservation_down", sub,
            f"negative punctures {p_minus} != verticals + 2*ghosts = {t.verticals + 2 * t.ghosts}"))
    if genus:
        out.append(Violation(
            "genus_feasibility", sub,
            f"positive genus {plus.genus} < total negative genus {g_minus}"))
    if handles:
        out.append(Violation(
            "handle_feasibility", sub,
            f"positive genus {plus.genus} cannot carry {t.ghosts} ghost arcs and "
            f"{t.loops} core loops over {anchors} punctured negative levels "
            f"(needs {need})"))
    if conflict:
        out.append(Violation("certificate_conflict", sub, "product and ball certificates are mutually exclusive"))
    if product_fault:
        out.append(Violation("product_certificate", sub,
                             "product piece has one negative level, boundary surfaces that "
                             "match and only vertical arcs"))
    if ball_fault:
        out.append(Violation("ball_certificate", sub,
                             "ball piece has empty negative boundary, a sphere with 0 or 2 "
                             "punctures on top and an empty tangle or one bridge arc"))
    return None


@dataclass(frozen=True)
class Validation:
    """What validating a complex works out: the report, the index of every
    body that passes its own checks, the flow digraph (:func:`thick_digraph`)
    and a topological order of it, sources first, which is empty when the
    digraph has a cycle.  The digraph comes from the side maps of the checks,
    in their pass over thin levels."""

    report: ValidationReport
    body: dict[str, int]
    edges: dict[str, list[str]]
    order: tuple[str, ...]


_MISSING = object()


def _kept(cx: Complex, name: str, compute):
    """``compute(cx)``, worked out on first use and kept on the instance under
    ``name``; sound because a complex never changes."""
    found = cx.__dict__.get(name, _MISSING)
    if found is _MISSING:
        found = compute(cx)
        object.__setattr__(cx, name, found)
    return found


def _ids(cx: Complex) -> frozenset[str]:
    """Every id ``cx`` holds, of whatever kind; kept on the instance."""
    return _kept(cx, "_ids", lambda cx: frozenset().union(cx.thick, cx.thin, cx.boundary, cx.cbs))


def validation(cx: Complex) -> Validation:
    """The :class:`Validation` of a complex, computed on first use and kept
    on the instance."""
    return _kept(cx, "_validation", _validation)


def validate(cx: Complex) -> ValidationReport:
    """Check every structural and numeric invariant; never raises.

    Returns an empty report exactly when the complex is well formed: all
    references resolve consistently, every surface/tangle count is a
    non-negative integer, puncture conservation and handle feasibility hold
    for each compression body, certificates match their numeric conditions,
    no once-punctured sphere occurs as a thin or boundary level, no two
    records of different kinds share an id, and the flow digraph on thick
    levels is acyclic and non-empty.  The checks run once per complex; later
    calls return the same report.

    A body's own checks read only its record and the surfaces of its plus
    level and minus ports, and a body that passes them keeps those surfaces
    and its index (:func:`_body_index`).  In any complex where the same
    record reads the very same surface objects, as in a move's result, one
    of the :func:`components` of a complex or a union joined from the parts
    the candidate loop gives, the checks are skipped and the kept index read.
    Within one validation, a body whose check misses its kept entry is
    answered by an earlier body that passed on the very same tangle, plus
    and minus surface objects and certificates (a parsed document shares
    one object per distinct value); such a hit keeps nothing on the body,
    and a body that fails is always checked in full, so each violation
    keeps its subject and its place.  The report, indices and flow digraph
    are the same as a full validation's.
    """
    return validation(cx).report


def _body_index(cb: CompressionBody, reads: tuple, out: list[Violation] | None,
                memo: dict | None = None) -> int | None:
    """``_check_cb(cb, reads, out)``, kept on ``cb`` when it passes, as
    ``(reads, index)``: the check reads nothing but ``cb`` and ``reads``, so
    in any complex where ``cb`` reads the very same surface objects the kept
    index is returned with no check.  Threads sharing ``cb`` may overwrite
    each other's entry; each entry is right for its own reads, and a reader
    compares and returns the one entry it read.

    ``memo``, when given, lives for one validation and maps what a passing
    check read to its index: the identity of the tangle and of each surface
    in ``reads``, in port order, and whether each certificate is ``True``
    and whether it is ``False``, so a flag of another type (``0``, say),
    which fails the check, meets no stored key.  Identities are sound
    because the complex being validated keeps each of those objects alive.
    The memo is read only when the kept entry misses, and never for a body
    with a repeated minus port, which the identities cannot tell from one
    with distinct ports.  A hit keeps nothing on ``cb``; only passes are
    stored, so a failing body is always checked and reports into ``out``."""
    passed = cb._passed
    if passed is not None:
        was = passed[0]
        if was[0] is reads[0] and all(map(is_, was[1], reads[1])):
            return passed[1]
    key = None
    if memo is not None and (len(cb.minus) < 2 or len(set(cb.minus)) == len(cb.minus)):
        p, b = cb.product_certificate, cb.ball_certificate
        key = (id(cb.tangle), p is True, p is False, b is True, b is False, id(reads[0]), *map(id, reads[1]))
        index = memo.get(key)
        if index is not None:
            return index
    index = _check_cb(cb, reads, out)
    if index is not None:
        object.__setattr__(cb, "_passed", (reads, index))
        if key is not None:
            memo[key] = index
    return index


def _validation(cx: Complex) -> Validation:
    """The work behind :func:`validation`.  Its one pass over bodies hands
    :func:`_body_index` a dict made for this call alone, so each distinct
    body profile of a parsed document is checked once."""
    thick, thin, boundary = cx.thick.get, cx.thin.get, cx.boundary.get
    out: list[Violation] = []

    for t in cx.thick.values():
        _check_surface(t.id, t.surface, out)
    for t in cx.thin.values():
        _check_surface(t.id, t.surface, out)
        if t.surface.genus == 0 and t.surface.punctures == 1:
            out.append(Violation("thin_once_punctured_sphere", t.id,
                                 "a thin level may not be a once-punctured sphere"))
    for b in cx.boundary.values():
        _check_surface(b.id, b.surface, out)
        if b.surface.genus == 0 and b.surface.punctures == 1:
            out.append(Violation("boundary_once_punctured_sphere", b.id,
                                 "a boundary level may not be a once-punctured sphere"))
        if (b.is_drilled_vertex is not False and _check_flag(b.id, "is_drilled_vertex", b.is_drilled_vertex, out)
                and (b.surface.genus != 0 or (isinstance(b.surface.punctures, int) and b.surface.punctures < 3))):
            out.append(Violation("drilled_vertex_profile", b.id,
                                 "a drilled vertex is a sphere with at least three punctures"))

    if not cx.thick:
        out.append(Violation("empty_complex", "-", "a complex has at least one thick level"))
    if len(_ids(cx)) < len(cx.thick) + len(cx.thin) + len(cx.boundary) + len(cx.cbs):
        seen: set[str] = set()
        shared: set[str] = set()
        for pool in (cx.thick, cx.thin, cx.boundary, cx.cbs):
            shared |= seen & pool.keys()
            seen |= pool.keys()
        out.extend(Violation("shared_id", key, "records of different kinds share this id")
                   for key in sorted(shared))

    # Which body id, known or not, is the upper / lower side of which thick level.
    upper_of: dict[str, str] = {}
    lower_of: dict[str, str] = {}
    for t in cx.thick.values():
        if t.upper_cb == t.lower_cb:
            out.append(Violation("thick_sides", t.id, "upper and lower bodies must be distinct"))
        upper_of[t.upper_cb] = lower_of[t.lower_cb] = t.id
        for role, cb_id in (("upper", t.upper_cb), ("lower", t.lower_cb)):
            if cb_id not in cx.cbs:
                out.append(Violation("dangling_reference", t.id, f"{role} body {cb_id!r} unknown"))
            elif cx.cbs[cb_id].plus != t.id:
                out.append(Violation("plus_mismatch", t.id,
                                     f"{role} body {cb_id!r} does not name this level as its positive boundary"))

    # Each body's own checks and side, and the bodies holding each port.
    body: dict[str, int] = {}
    holders: dict[str, list[str]] = {}
    profiles: dict[tuple, int] = {}
    for cb in cx.cbs.values():
        index = _body_index(cb, _reads(cb, thick, thin, boundary), out, profiles)
        if index is not None:
            body[cb.id] = index
        roles = (cb.id in upper_of) + (cb.id in lower_of)
        if cb.plus in cx.thick and roles != 1:
            out.append(Violation("plus_mismatch", cb.id,
                                 "body must be the upper or lower side of exactly one thick level"))
        for port in cb.minus:
            holders.setdefault(port, []).append(cb.id)

    # A thin level is a flow edge from the thick level of the upper body it
    # exits to that of the lower body it enters, and lies in the minus sets
    # of exactly its two bodies; a boundary level lies in its owner's alone.
    edges: dict[str, list[str]] = {t: [] for t in cx.thick}
    for t in cx.thin.values():
        src, dst = upper_of.get(t.from_cb), lower_of.get(t.to_cb)
        if src is not None and dst is not None:
            edges[src].append(dst)
        if t.from_cb == t.to_cb:
            out.append(Violation("thin_endpoints", t.id, "sides of a thin level must be distinct bodies"))
        if t.from_cb not in cx.cbs or t.to_cb not in cx.cbs:
            out.append(Violation("dangling_reference", t.id, "thin level names an unknown body"))
            continue
        expected = {t.from_cb, t.to_cb}
        got = sorted(holders.get(t.id, []))
        if got != sorted(expected):
            out.append(Violation("port_multiplicity", t.id,
                                 f"thin level held by {got} but names {sorted(expected)}"))
        if t.from_cb not in upper_of:
            out.append(Violation("orientation_coherence", t.id,
                                 "orientation must exit an upper body"))
        if t.to_cb not in lower_of:
            out.append(Violation("orientation_coherence", t.id,
                                 "orientation must enter a lower body"))
    for b in cx.boundary.values():
        if b.owner not in cx.cbs:
            out.append(Violation("dangling_reference", b.id, "owner body unknown"))
            continue
        got = holders.get(b.id, [])
        if got != [b.owner]:
            out.append(Violation("port_multiplicity", b.id,
                                 f"boundary level held by {sorted(got)} but owned by {b.owner!r}"))

    for outs in edges.values():
        outs.sort()
    order, cycle = topological_order(edges)
    if cycle is not None:
        out.append(Violation("closed_flow_line", "->".join(cycle),
                             "closed flow line through thick levels " + " -> ".join(cycle)))

    return Validation(ValidationReport(tuple(out)), body, edges, order)


def require_valid(cx: Complex) -> None:
    report = validate(cx)
    if not report.ok:
        raise ValidationError(report)


# ---------------------------------------------------------------------------
# Index of a compression body
# ---------------------------------------------------------------------------

def profile_index(plus: Surface, ports: int, minus_genus: int, minus_punctures: int) -> int:
    """The body index formula on boundary surfaces alone.

    ``3 * (-chi(plus) + chi(minus)) + 2 * (p(plus) - p(minus)) + 6``, where
    the negative boundary has ``ports`` surfaces whose genera sum to
    ``minus_genus`` and punctures to ``minus_punctures``, so that
    ``chi(minus) = 2 * ports - 2 * minus_genus``.
    """
    chi_minus = 2 * ports - 2 * minus_genus
    return 3 * (-euler_char(plus) + chi_minus) + 2 * (plus.punctures - minus_punctures) + 6


def body_index(cx: Complex, cb_id: str) -> int:
    """Handle-count proxy of one compression body: even and non-negative.

    Read from :func:`validation`, which computes it by :func:`profile_index`
    from the boundary surfaces alone for every body that passes its own
    checks, even when the complex as a whole is invalid; raises
    ValidationError, naming the body's violations, for any other body.  On a
    valid body it is 0 exactly for the ball profile, 4 exactly for the
    ball-with-one-bridge-arc profile, and at least 6 otherwise.
    """
    if cb_id not in cx.cbs:
        raise ValidationError(ValidationReport((
            Violation("dangling_reference", cb_id, "unknown compression body"),)))
    checked = validation(cx)
    if cb_id not in checked.body:
        raise ValidationError(ValidationReport(
            tuple(v for v in checked.report.violations if v.subject == cb_id)))
    return checked.body[cb_id]


def certify(cb: CompressionBody, reads: tuple) -> CompressionBody:
    """``cb`` with its certificate flags set from its profile, read from
    ``reads``, what :func:`_reads` gives for it.  Only a body with at most
    one minus level can have either profile; a flag whose level is unknown
    is off, and the body then fails its checks anyway."""
    flags = False, False
    plus, minus = reads
    if len(minus) <= 1 and plus is not None and None not in minus:
        flags = _product_profile(plus, minus, cb.tangle), _ball_profile(plus, minus, cb.tangle)
    if flags == (cb.product_certificate, cb.ball_certificate):
        return cb
    return replace(cb, product_certificate=flags[0], ball_certificate=flags[1])


def _product_profile(plus: Surface, minus: list[Surface], t: Tangle) -> bool:
    """Numeric triviality test for a product piece (necessary conditions)."""
    return (len(minus) == 1 and plus.genus == minus[0].genus and plus.punctures == minus[0].punctures
            and t.bridges == 0 and t.ghosts == 0 and t.loops == 0)


def _ball_profile(plus: Surface, minus: list[Surface], t: Tangle) -> bool:
    """Numeric triviality test for a ball piece (necessary conditions)."""
    return (not minus and plus.genus == 0 and plus.punctures in (0, 2)
            and t.counts() in ((0, 0, 0, 0), (0, 1, 0, 0)))


# ---------------------------------------------------------------------------
# Flow digraph
# ---------------------------------------------------------------------------

def thick_digraph(cx: Complex) -> dict[str, list[str]]:
    """Edge multiset on thick levels, one edge per thin level.

    The edge runs from the thick level whose upper body the thin level exits
    to the one whose lower body it enters, whether those bodies exist or not.
    It is a fresh copy of :func:`validation`'s, which validates ``cx`` once.
    """
    return {src: list(outs) for src, outs in validation(cx).edges.items()}


def topological_order(edges: Mapping[str, list[str]]) -> tuple[tuple[str, ...], list[str] | None]:
    """``(order, None)`` with a topological order of the digraph, sources
    first; or ``((), cycle)`` with some directed cycle as a node list whose
    first node is repeated at its end.

    The order is Kahn's, first in first out: nodes enter in sorted order
    (a node that only appears as a target, where it first appears) and each
    node's out-edges in the order given.  That is exactly the order
    :meth:`graphlib.TopologicalSorter.static_order` yields for the same
    insertions.  When a cycle is left, graphlib names it, which makes the
    cycle reported deterministic.  Nothing recurses, so digraphs of any
    depth are fine.
    """
    indegree = dict.fromkeys(sorted(edges), 0)
    for src in list(indegree):
        for dst in edges[src]:
            indegree[dst] = indegree.get(dst, 0) + 1
    order = [node for node, n in indegree.items() if n == 0]
    for node in order:  # grows while it is read: a FIFO queue
        for dst in edges.get(node, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    if len(order) == len(indegree):
        return tuple(order), None
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


def digraph_cycle(edges: Mapping[str, list[str]]) -> list[str] | None:
    """Return some directed cycle as a node list, or None if acyclic."""
    return topological_order(edges)[1]


def components(cx: Complex) -> list[Complex]:
    """The connected components of ``cx`` as complexes, kept on the
    instance, so hashing a complex and expanding it as a rewrite-graph node
    split it once.  They are the parts of a :func:`disjoint_union`; else
    ``[cx]`` when ``cx`` is connected (kept as None, so no complex refers to
    itself); else one union-find joins each record to the records it names,
    and each component, in the order of its first record in map order
    (:func:`_records`), is a complex of its records in map order, kept as
    connected.  Callers must not mutate the list."""
    found = _kept(cx, "_components", _components)
    return [cx] if found is None else found


def _records(cx: Complex) -> list:
    """The records of ``cx`` in map order: thick, thin, boundary, bodies."""
    return [*cx.thick.values(), *cx.thin.values(), *cx.boundary.values(), *cx.cbs.values()]


def _find(parent: list | dict, x):
    """The root of ``x`` in the union-find ``parent`` (list or dict), halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


_SECTION = {ThickLevel: 0, ThinLevel: 1, BoundaryLevel: 2, CompressionBody: 3}


def _components(cx: Complex) -> list[Complex] | None:
    records = _records(cx)
    parent = {rec.id: rec.id for rec in records}

    def join(a: str, *named: str) -> None:
        root = _find(parent, a)
        for b in named:
            if b in parent:
                parent[_find(parent, b)] = root

    for level in _LEVELS.values():
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
        groups.setdefault(_find(parent, rec.id), []).append(rec)
    if len(groups) == 1:
        return None
    parts = []
    for group in groups.values():
        sections: tuple[dict, ...] = ({}, {}, {}, {})
        for rec in group:
            sections[_SECTION[type(rec)]][rec.id] = rec
        part = Complex(*sections)
        object.__setattr__(part, "_components", None)
        parts.append(part)
    return parts


def disjoint_union(parts: list[Complex]) -> Complex:
    """The union of connected complexes, each with a thick level and all
    with disjoint ids.  Its :func:`components` are ``parts``, in their
    order, known without a split: the union lists the parts' thick levels
    first, so each component's first record is its part's first thick
    level.  Raises ValueError when two parts share an id, or when a part is
    not connected."""
    cx = Complex(*({k: v for part in parts for k, v in getattr(part, name).items()}
                   for name in ("thick", "thin", "boundary", "cbs")))
    if len(_ids(cx)) != sum(len(_ids(part)) for part in parts):
        raise ValueError("the parts of a disjoint union share an id")
    if any(len(components(part)) != 1 for part in parts):
        raise ValueError("a part of a disjoint union is not connected")
    object.__setattr__(cx, "_components", parts)
    return cx


def joined(parts: list[Complex]) -> Complex:
    """The complex that ``parts``, as the candidate loop gives a result,
    make up: the one part itself, else their :func:`disjoint_union`."""
    return parts[0] if len(parts) == 1 else disjoint_union(parts)


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------

# One row per field of each object of the instance format, in field order:
# (JSON key, spec[, default[, omit when None]]).  A spec is ``str``, ``int``
# or ``bool``; a type listed in the table (a JSON object); ``[str]`` (a list
# of ids); or a tuple of two specs (a list of two).  A row with a default is
# optional.  ``moves`` adds the rows of the move document format to these.
# Level records are read and written through one view of these rows,
# ``_LEVELS`` below; only ``_decode`` and ``_encode`` walk rows themselves.
_ROWS: dict[type, tuple[tuple, ...]] = {
    Surface: (("genus", int), ("punctures", int)),
    Tangle: (("v", int), ("b", int), ("gh", int), ("loops", int)),
    ThickLevel: (("id", str), ("surface", Surface), ("upper_cb", str), ("lower_cb", str)),
    ThinLevel: (("id", str), ("surface", Surface), ("from_cb", str), ("to_cb", str)),
    BoundaryLevel: (("id", str), ("surface", Surface), ("owner", str),
                    ("is_drilled_vertex", bool, False)),
    CompressionBody: (("id", str), ("plus", str), ("minus", [str], ()), ("tangle", Tangle),
                      ("product_certificate", bool, False), ("ball_certificate", bool, False)),
}


# Each level kind as its rows give it, ``id``, ``surface`` and two fields:
# its section of a document and of a complex, its rank among the sections,
# its record type, the keys of its two fields after ``surface``, the JSON
# type of the second (``str`` for a body id, ``bool`` for a flag), a reader
# of those two fields off a record, and their keys as JSON text, each to
# write after a comma.
_Level = namedtuple("_Level", "section rank kind first second second_type read texts")
_LEVELS = {kind: _Level(section, _SECTION[kind], kind, first, second, second_type,
                        attrgetter(*(f.name for f in fields(kind)[2:])),
                        (f", {_quote(first)}: ", f", {_quote(second)}: "))
           for section, kind in (("thick", ThickLevel), ("thin", ThinLevel), ("boundary", BoundaryLevel))
           for (first, _), (second, second_type, *_) in [_ROWS[kind][2:]]}


_REQUIRED = object()


def _need(obj: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """``obj[key]``, checked to be a ``kind`` (exactly: no bool for int).

    With a ``default``, the field is optional and a missing or null value
    yields the default.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj or (obj[key] is None and default is not _REQUIRED):
        if default is _REQUIRED:
            raise SchemaError(f"{where}: missing field {key!r}")
        return default
    val = obj[key]
    if kind is int and isinstance(val, bool):
        raise SchemaError(f"{where}.{key}: expected an integer")
    if not isinstance(val, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}")
    return val


def _decode(spec, val, where: str, rows=_ROWS):
    """``val`` read as ``spec`` by the table ``rows``; SchemaError, naming
    the field at ``where``, when it is malformed.  An object's fields are
    read in row order, each key checked by :func:`_need`, and a key that no
    row lists is refused after them; the keys are scanned for it only when
    the object holds more keys than its rows matched."""
    if isinstance(spec, list):
        if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
            raise SchemaError(f"{where}: expected a list of ids")
        return tuple(val)
    if isinstance(spec, tuple):
        if not isinstance(val, list) or len(val) != 2:
            raise SchemaError(f"{where}: expected a list of two")
        return tuple(_decode(s, v, where, rows) for s, v in zip(spec, val))
    if spec not in rows:
        if not isinstance(val, spec) or (spec is int and isinstance(val, bool)):
            raise SchemaError(f"{where}: expected {spec.__name__}")
        return val
    values = []
    matched = 0
    for key, row_spec, *optional in rows[spec]:
        kind = list if isinstance(row_spec, (list, tuple)) else dict if row_spec in rows else row_spec
        got = _need(val, key, kind, where, *optional[:1])
        matched += key in val
        if kind is row_spec or (optional and val.get(key) is None):
            values.append(got)  # a checked scalar, or missing or null: the default
        else:
            values.append(_decode(row_spec, got, f"{where}.{key}", rows))
    if len(val) > matched:  # name the first key that no row lists
        keys = [row[0] for row in rows[spec]]
        raise SchemaError(f"{where}: unknown field {next(key for key in val if key not in keys)!r}")
    return spec(*values)


def _encode(spec, val, rows=_ROWS):
    """The document of ``val``, read as ``spec`` by the table ``rows``: the
    converse of :func:`_decode`.  None is written as null, except in a row
    marked to be omitted instead."""
    if val is None:
        return None
    if isinstance(spec, list):
        return list(val)
    if isinstance(spec, tuple):
        return [_encode(s, v, rows) for s, v in zip(spec, val)]
    if spec not in rows:
        return val
    doc = {}
    for (key, row_spec, *optional), f in zip(rows[spec], fields(spec)):
        item = getattr(val, f.name)
        if item is None and optional[1:] == [True]:
            continue
        doc[key] = _encode(row_spec, item, rows)
    return doc


def parse_complex(doc: dict) -> Complex:
    """Decode the instance document format; raises SchemaError when malformed.

    Top-level keys are ``thick``, ``thin``, ``boundary`` and ``cbs``; ids are
    strings; surfaces are ``{"genus": int, "punctures": int}``; tangles are
    ``{"v": int, "b": int, "gh": int, "loops": int}``; certificates are
    booleans.  A missing or null top-level key reads as an empty list, and
    other top-level keys are left alone.  A record, surface or tangle that
    holds a key the format does not list for it is refused, after its own
    fields are read.  Domain invariants are *not* checked here: any
    well-typed document parses and is then judged by :func:`validate`.

    A record that is a plain ``dict`` holding exactly its listed keys, each
    with a value of exactly its JSON type, is read in one pass, and the
    records read so share one :class:`Surface` per ``(genus, punctures)``
    and one :class:`Tangle` per count tuple.  The three level kinds are read
    in one loop, each kind's keys and types taken from its entry in
    ``_LEVELS``, the one view of the table's rows for levels, with a fixed
    number of lookups per record.  Any other record (an optional
    key missing or null, a subclass of a JSON type, a wrong type or an
    unknown key) is read field by field by :func:`_decode` from the rows of
    ``_ROWS``, the table move documents are read from too, which names the
    first fault.  Documents the engine writes hold every key; one that
    leaves an optional key out of every body parses about three times as
    slowly.
    """
    if not isinstance(doc, dict):
        raise SchemaError("instance: expected a JSON object")
    surfaces: dict[tuple[int, int], Surface] = {}
    tangles: dict[tuple[int, int, int, int], Tangle] = {}

    def surface(obj) -> Surface | None:
        """The shared surface of ``obj`` when its one pass accepts it."""
        if type(obj) is dict and len(obj) == 2:
            key = obj.get("genus"), obj.get("punctures")
            if type(key[0]) is int and type(key[1]) is int:
                found = surfaces.get(key)
                if found is None:
                    found = surfaces[key] = Surface(*key)
                return found
        return None

    levels = []
    for section, _rank, kind, first, second, second_type, _read, _texts in _LEVELS.values():
        records = []
        for item in _need(doc, section, list, "instance", []):
            if type(item) is dict and len(item) == 4:
                i, s = item.get("id"), surface(item.get("surface"))
                a, b = item.get(first), item.get(second)
                if type(i) is str and s is not None and type(a) is str and type(b) is second_type:
                    records.append(kind(i, s, a, b))
                    continue
            records.append(_decode(kind, item, section))
        levels.append(records)
    cbs = []
    for item in _need(doc, "cbs", list, "instance", []):
        if type(item) is dict and len(item) == 6:
            i, plus, minus, t = item.get("id"), item.get("plus"), item.get("minus"), item.get("tangle")
            product, ball = item.get("product_certificate"), item.get("ball_certificate")
            if (type(i) is str and type(plus) is str and type(minus) is list
                    and all([type(port) is str for port in minus])
                    and type(product) is bool and type(ball) is bool
                    and type(t) is dict and len(t) == 4):
                key = t.get("v"), t.get("b"), t.get("gh"), t.get("loops")
                if (type(key[0]) is int and type(key[1]) is int
                        and type(key[2]) is int and type(key[3]) is int):
                    tangle = tangles.get(key)
                    if tangle is None:
                        tangle = tangles[key] = Tangle(*key)
                    cbs.append(CompressionBody(i, plus, tuple(minus), tangle, product, ball))
                    continue
        cbs.append(_decode(CompressionBody, item, "cbs"))
    return build_complex(*levels, cbs)


def emit_record(rec, name=str) -> tuple[str, dict]:
    """The section and the document entry of one record, every id in it
    passed through ``name``.  A level is written from its kind's entry in
    ``_LEVELS``, the one view of the rows of ``_ROWS`` for levels."""
    level = _LEVELS.get(type(rec))
    if level is not None:
        a, b = level.read(rec)
        s = rec.surface
        return level.section, {"id": name(rec.id),
                               "surface": {"genus": s.genus, "punctures": s.punctures},
                               level.first: name(a),
                               level.second: b if level.second_type is bool else name(b)}
    t = rec.tangle
    return "cbs", {"id": name(rec.id), "plus": name(rec.plus),
                   "minus": sorted(name(port) for port in rec.minus),
                   "tangle": {"v": t.verticals, "b": t.bridges, "gh": t.ghosts, "loops": t.loops},
                   "product_certificate": rec.product_certificate,
                   "ball_certificate": rec.ball_certificate}


def record_text(rec, name=str) -> str:
    """``json.dumps(emit_record(rec, name)[1])``, written directly rather
    than built as a dict and encoded: the canonical hash renders every
    record it lays out.  A level is written from its kind's entry in
    ``_LEVELS``, as :func:`emit_record` writes it."""
    q, v = _quote, _scalar
    level = _LEVELS.get(type(rec))
    if level is not None:
        s = rec.surface
        a, b = level.read(rec)
        first, second = level.texts
        return (f'{{"id": {q(name(rec.id))}, "surface": {{"genus": {v(s.genus)}, '
                f'"punctures": {v(s.punctures)}}}{first}{q(name(a))}'
                f'{second}{v(b) if level.second_type is bool else q(name(b))}}}')
    t = rec.tangle
    minus = ", ".join(map(q, sorted(name(port) for port in rec.minus)))
    return (f'{{"id": {q(name(rec.id))}, "plus": {q(name(rec.plus))}, '
            f'"minus": [{minus}], "tangle": {{"v": {v(t.verticals)}, "b": {v(t.bridges)}, '
            f'"gh": {v(t.ghosts)}, "loops": {v(t.loops)}}}, '
            f'"product_certificate": {v(rec.product_certificate)}, '
            f'"ball_certificate": {v(rec.ball_certificate)}}}')


def _scalar(x) -> str:
    """``json.dumps(x)``, without the encoder's fixed cost for an int or a bool."""
    if x is True:
        return "true"
    if x is False:
        return "false"
    return str(x) if type(x) is int else json.dumps(x)


def emit_complex(cx: Complex) -> dict:
    """Encode to the instance document format, deterministically ordered."""
    pools = {"thick": cx.thick, "thin": cx.thin, "boundary": cx.boundary, "cbs": cx.cbs}
    return {section: [emit_record(rec)[1] for rec in sorted(pool.values(), key=lambda rec: rec.id)]
            for section, pool in pools.items()}
