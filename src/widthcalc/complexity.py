"""Flow reachability, per-level indices, and the lexicographic complexity.

For a thick level H, the upper index aggregates the body indices of all upper
compression bodies reachable along flow lines starting at H (H itself
included), discounted 6 per body; the lower index is the mirror image.  Both
are non-negative on any valid complex.  The complexity of a complex is the
non-increasing sequence of per-level totals, compared lexicographically with
the shorter vector padded by -1, so that removing any entry from a
non-increasing non-negative vector strictly decreases it.

Every reader here works from :func:`analyze`, which runs once per complex and
is kept on the instance (a complex never changes).  It takes the flow digraph,
a topological order and every body index from validation, builds each level's
upward and downward reach as an int bitmask in one pass over that order, and
sums body indices over a reach with one popcount per bit of the largest
index.  So the complexity vector costs time linear in the number of levels
plus that bitmask work, which is word-parallel, rather than a walk of the
digraph per level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    Complex,
    Validation,
    ValidationError,
    ValidationReport,
    Violation,
    _kept,
    validation,
)

__all__ = [
    "Analysis",
    "analyze",
    "reach_up",
    "reach_down",
    "index_up",
    "index_down",
    "total_index",
    "complexity",
    "compare",
    "LT",
    "EQ",
    "GT",
    "reverse_orientation",
    "complexity_table",
]

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class Analysis:
    """Everything the index formulas read off one valid complex.

    Bit ``i`` of a reach mask stands for the thick level
    ``validation.order[i]``.
    """

    validation: Validation  # report, body indices, flow digraph and its topological order
    up: dict[str, int]  # reach_up of each thick level, as a mask
    down: dict[str, int]  # reach_down of each thick level, as a mask
    body: dict[str, int]  # index of each compression body, from validation
    index_up: dict[str, int]
    index_down: dict[str, int]
    vector: tuple[int, ...]


def analyze(cx: Complex) -> Analysis:
    """The :class:`Analysis` of a complex, computed on first use and kept on
    the instance.  Raises ValidationError when the complex is invalid."""
    return _kept(cx, "_analysis", _analyze)


def _reach_masks(nodes, edges: dict[str, list[str]], bit: dict[str, int]) -> dict[str, int]:
    """Each node's mask of the nodes reachable from it along ``edges``,
    itself included; ``nodes`` lists every node after all its successors."""
    reach: dict[str, int] = {}
    for n in nodes:
        mask = bit[n]
        for m in edges[n]:
            mask |= reach[m]
        reach[n] = mask
    return reach


def _aggregate(reach: dict[str, int], weight: list[int]) -> dict[str, int]:
    """``6 - 6*|R| + sum(weight[i] for i in R)`` for each reach mask R.

    ``weight[i]`` belongs to bit i and is non-negative (body indices of a
    valid complex are), so the sum splits over the binary digits of the
    weights: one mask per digit, one popcount per digit and level.
    """
    digits = [sum(1 << i for i, w in enumerate(weight) if w >> d & 1)
              for d in range(max(weight, default=0).bit_length())]
    return {n: 6 - 6 * r.bit_count()
            + sum((r & plane).bit_count() << d for d, plane in enumerate(digits))
            for n, r in reach.items()}


def _analyze(cx: Complex) -> Analysis:
    checked = validation(cx)
    if not checked.report.ok:
        raise ValidationError(checked.report)
    order, edges = checked.order, checked.edges
    reversed_edges: dict[str, list[str]] = {n: [] for n in order}
    for src, outs in edges.items():
        for dst in outs:
            reversed_edges[dst].append(src)
    bit = {n: 1 << i for i, n in enumerate(order)}
    up = _reach_masks(reversed(order), edges, bit)
    down = _reach_masks(order, reversed_edges, bit)
    body = checked.body
    levels = [cx.thick[n] for n in order]
    i_up = _aggregate(up, [body[t.upper_cb] for t in levels])
    i_down = _aggregate(down, [body[t.lower_cb] for t in levels])
    vector = tuple(sorted((i_up[n] + i_down[n] for n in order), reverse=True))
    return Analysis(checked, up, down, body, i_up, i_down, vector)


def _known_thick(cx: Complex, thick_id: str) -> None:
    if thick_id not in cx.thick:
        raise ValidationError(ValidationReport((
            Violation("dangling_reference", thick_id, "unknown thick level"),)))


def _members(a: Analysis, mask: int) -> frozenset[str]:
    return frozenset(n for i, n in enumerate(a.validation.order) if mask >> i & 1)


def reach_up(cx: Complex, thick_id: str) -> frozenset[str]:
    """Thick levels reachable from ``thick_id`` along flow lines, inclusive."""
    _known_thick(cx, thick_id)
    a = analyze(cx)
    return _members(a, a.up[thick_id])


def reach_down(cx: Complex, thick_id: str) -> frozenset[str]:
    """Thick levels from which ``thick_id`` is reachable, inclusive."""
    _known_thick(cx, thick_id)
    a = analyze(cx)
    return _members(a, a.down[thick_id])


def index_up(cx: Complex, thick_id: str) -> int:
    """Aggregate index of the upper bodies at and above a thick level.

    ``6 - 6*|R| + sum(body_index(upper side of J) for J in R)`` where R is the
    upward reach of the level.  Non-negative on every valid complex.
    """
    _known_thick(cx, thick_id)
    return analyze(cx).index_up[thick_id]


def index_down(cx: Complex, thick_id: str) -> int:
    """Mirror of :func:`index_up`, over lower bodies at and below the level."""
    _known_thick(cx, thick_id)
    return analyze(cx).index_down[thick_id]


def total_index(cx: Complex, thick_id: str) -> int:
    return index_up(cx, thick_id) + index_down(cx, thick_id)


def complexity(cx: Complex) -> tuple[int, ...]:
    """Non-increasing sequence of per-thick-level totals.

    >>> from .model import parse_complex
    >>> cx = parse_complex({
    ...     "thick": [{"id": "H", "surface": {"genus": 0, "punctures": 2},
    ...                "upper_cb": "u", "lower_cb": "d"}],
    ...     "cbs": [{"id": "u", "plus": "H", "minus": [],
    ...              "tangle": {"v": 0, "b": 1, "gh": 0, "loops": 0},
    ...              "ball_certificate": True},
    ...             {"id": "d", "plus": "H", "minus": [],
    ...              "tangle": {"v": 0, "b": 1, "gh": 0, "loops": 0},
    ...              "ball_certificate": True}]})
    >>> complexity(cx)
    (8,)
    """
    return analyze(cx).vector


def compare(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Lexicographic comparison; the shorter vector is padded with -1.

    All true entries are non-negative, so a proper prefix is strictly smaller
    than the vector it prefixes, and removing any entry of a non-increasing
    non-negative vector strictly decreases it.  Returns -1, 0 or 1.

    >>> compare((6,), (6, 4))
    -1
    >>> compare((24,), (24,))
    0
    """
    n = max(len(a), len(b))
    pa = tuple(a) + (-1,) * (n - len(a))
    pb = tuple(b) + (-1,) * (n - len(b))
    if pa < pb:
        return LT
    if pa > pb:
        return GT
    return EQ


def reverse_orientation(cx: Complex) -> Complex:
    """Flip every transverse orientation: swaps upper/lower roles everywhere.

    Reversal exchanges index_up and index_down per thick level and leaves the
    complexity vector unchanged.
    """
    return Complex(
        thick={t.id: replace(t, upper_cb=t.lower_cb, lower_cb=t.upper_cb)
               for t in cx.thick.values()},
        thin={f.id: replace(f, from_cb=f.to_cb, to_cb=f.from_cb)
              for f in cx.thin.values()},
        boundary=dict(cx.boundary),
        cbs=dict(cx.cbs),
    )


def complexity_table(cx: Complex) -> list[dict]:
    """Per-thick-level report rows: body indices and aggregate indices."""
    a = analyze(cx)
    rows = []
    for t in sorted(cx.thick.values(), key=lambda t: t.id):
        up, down = a.index_up[t.id], a.index_down[t.id]
        rows.append({
            "id": t.id,
            "body_up": a.body[t.upper_cb],
            "body_down": a.body[t.lower_cb],
            "index_up": up,
            "index_down": down,
            "index": up + down,
        })
    return rows
