"""The acceptance suite: exact arithmetic identities checked in bulk.

Every check recomputes its identity from raw surface data, independently of
the assertions the move engine already makes, and reports a pass/fail line.
``run_all`` is used both by the command line ``selftest`` subcommand and by
the test suite; counts are fixed here so the tolerances cannot drift.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .complexity import (
    EQ,
    LT,
    compare,
    complexity,
    index_down,
    index_up,
    reverse_orientation,
)
from .model import (
    BoundaryLevel,
    Complex,
    CompressionBody,
    Surface,
    Tangle,
    ThickLevel,
    ThinLevel,
    body_index,
    build_complex,
    emit_record,
    joined,
    parse_complex,
    thick_digraph,
    validate,
)
from .moves import (
    BodySpec,
    Consolidate,
    DiscData,
    MoveRejected,
    SplitData,
    ThickSpec,
    Untelescope,
    UntelescopeOutcome,
    apply_consolidate,
    apply_move,
    applicable,
    apply_untelescope,
    boundary_reduce,
    is_reduced,
)
from .gen import GenConfig, enumerate_moves, gen_complex
from .search import canonical_hash, rewrite_graph, thin

__all__ = ["CheckResult", "run_all", "four_ended_spheres", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


CHECKS: list = []
CHECK_NAMES: list[str] = []


def _check(run):
    """Register ``run``, one acceptance check giving ``(ok, detail)``, as the
    check giving its :class:`CheckResult`, named after the function:
    ``check_trivial_index_table`` reports as ``trivial-index-table``."""
    name = run.__name__.removeprefix("check_").replace("_", "-")

    def check(fast: bool = False) -> CheckResult:
        return CheckResult(name, *run(fast))

    CHECKS.append(check)
    CHECK_NAMES.append(name)
    return check


def four_ended_spheres() -> Complex:
    """One thick sphere between two spheres-with-two-holes; vector (24,)."""
    return build_complex(
        thick=[ThickLevel("H", Surface(0, 0), "u", "d")],
        boundary=[BoundaryLevel("S1", Surface(0, 0), "d"),
                  BoundaryLevel("S2", Surface(0, 0), "d"),
                  BoundaryLevel("S3", Surface(0, 0), "u"),
                  BoundaryLevel("S4", Surface(0, 0), "u")],
        cbs=[CompressionBody("u", "H", ("S3", "S4")),
             CompressionBody("d", "H", ("S1", "S2"))],
    )


def _mirror_profile(g: int, p: int, ports: list[Surface], tangle: Tangle) -> Complex:
    ups = [BoundaryLevel(f"U{i}", s, "u") for i, s in enumerate(ports)]
    downs = [BoundaryLevel(f"D{i}", s, "d") for i, s in enumerate(ports)]
    return build_complex(
        thick=[ThickLevel("H", Surface(g, p), "u", "d")],
        boundary=ups + downs,
        cbs=[CompressionBody("u", "H", tuple(x.id for x in ups), tangle),
             CompressionBody("d", "H", tuple(x.id for x in downs), tangle)],
    )


def _valid_profiles(max_genus: int = 3, max_punctures: int = 6):
    pool = [Surface(0, 0), Surface(0, 2), Surface(0, 3), Surface(0, 4),
            Surface(1, 0), Surface(1, 2), Surface(2, 1)]
    port_choices = [[]] + [[s] for s in pool]
    port_choices += [[a, b] for i, a in enumerate(pool) for b in pool[i:]]
    for g in range(max_genus + 1):
        for p in range(max_punctures + 1):
            for ports in port_choices:
                p_minus = sum(s.punctures for s in ports)
                for b in range(p // 2 + 1):
                    v = p - 2 * b
                    if (p_minus - v) % 2 or p_minus < v:
                        continue
                    gh = (p_minus - v) // 2
                    for loops in (0, 1):
                        cx = _mirror_profile(g, p, ports, Tangle(v, b, gh, loops))
                        if validate(cx).ok:
                            yield cx, Surface(g, p), ports, Tangle(v, b, gh, loops)


def _instances(seed: int, cfg: GenConfig):
    rng = random.Random(seed)
    while True:
        yield gen_complex(cfg, rng), rng


# ---------------------------------------------------------------------------
# Criterion 1: the trivial index table
# ---------------------------------------------------------------------------

@_check
def check_trivial_index_table(fast: bool = False) -> tuple[bool, str]:
    ball = _mirror_profile(0, 0, [], Tangle())
    if body_index(ball, "u") != 0:
        return False, "plain ball must index 0"
    arc = _mirror_profile(0, 2, [], Tangle(bridges=1))
    if body_index(arc, "u") != 4:
        return False, "ball with arc must index 4"
    products = 0
    for g in range(4):
        for p in range(7):
            if (g, p) == (0, 1):
                continue
            cx = _mirror_profile(g, p, [Surface(g, p)], Tangle(verticals=p))
            if body_index(cx, "u") != 6:
                return False, f"product profile ({g},{p}) must index 6"
            products += 1
    return True, f"ball=0, ball+arc=4, {products} product profiles=6"


# ---------------------------------------------------------------------------
# Criterion 2: the compression identity, exactly, for all disc flavours
# ---------------------------------------------------------------------------

def _discs_for(cx: Complex, cb_id: str):
    cb = cx.cbs[cb_id]
    surface = cx.thick[cb.plus].surface
    out = []
    qs = (0, 1) if cb.tangle.counts() != (0, 0, 0, 0) else (0,)
    for q in qs:
        if surface.genus >= 1:
            out.append(DiscData(q, False))
        for port in cb.minus:
            s = cx.level_surface(port)
            rest = tuple(x for x in cb.minus if x != port)
            if s.genus <= surface.genus:
                out.append(DiscData(q, True, SplitData(
                    (surface.genus - s.genus, s.genus),
                    (surface.punctures, 0), (rest, (port,)))))
        for g1 in range(surface.genus + 1):
            for p1 in (0, surface.punctures):
                out.append(DiscData(q, True, SplitData(
                    (g1, surface.genus - g1),
                    (p1, surface.punctures - p1), (tuple(cb.minus), ()))))
    return out


@_check
def check_compression_identity(fast: bool = False) -> tuple[bool, str]:
    target = 50 if fast else 1000
    flavours = set()
    done = 0
    cfg = GenConfig(max_thick=3, seed=2)
    for cx, _rng in _instances(2, cfg):
        for cb_id in sorted(cx.cbs):
            for d in _discs_for(cx, cb_id):
                before = body_index(cx, cb_id)
                try:
                    red = boundary_reduce(cx, cb_id, d)
                except MoveRejected:
                    continue
                want = before - 6 + 4 * d.punctures + 6 * (1 if d.separating else 0)
                if sum(p.index for p in red.pieces) != want:
                    return False, f"identity failed on {cb_id} with q={d.punctures}"
                if any(p.index >= before for p in red.pieces):
                    return False, "piece did not drop"
                flavours.add((d.punctures, d.separating))
                done += 1
        if done >= target and len(flavours) == 4:
            break
    swept = 0
    for cx, surface, _ports, tangle in _valid_profiles():
        for d in _discs_for(cx, "u"):
            try:
                boundary_reduce(cx, "u", d)  # asserts the identity internally
            except MoveRejected:
                continue
            swept += 1
        if fast and swept > 500:
            break
    return True, f"{done} random + {swept} swept reductions, flavours {sorted(flavours)}"


# ---------------------------------------------------------------------------
# Criterion 3: consolidation index identity
# ---------------------------------------------------------------------------

@_check
def check_consolidation_identity(fast: bool = False) -> tuple[bool, str]:
    target = 50 if fast else 1000
    done = 0
    cfg = GenConfig(max_thick=4, seed=3)
    for cx, _rng in _instances(3, cfg):
        for cb_id in sorted(cx.cbs):
            cb = cx.cbs[cb_id]
            if not (cb.product_certificate and len(cb.minus) == 1
                    and cb.minus[0] in cx.thin):
                continue
            q = cx.thin[cb.minus[0]]
            a_id = q.to_cb if q.from_cb == cb_id else q.from_cb
            h = cb.plus
            b_id = (cx.thick[h].lower_cb if cx.thick[h].upper_cb == cb_id
                    else cx.thick[h].upper_cb)
            mu_a = body_index(cx, a_id)
            mu_b = body_index(cx, b_id)
            try:
                out = apply_consolidate(cx, Consolidate(thick=h, thin=cb.minus[0]))
            except MoveRejected as err:
                return False, f"certified consolidation rejected: {err}"
            if body_index(out, a_id) != mu_a + mu_b - 6:
                return False, "merged index != index(A) + index(B) - 6"
            if compare(complexity(out), complexity(cx)) != LT:
                return False, "vector did not drop"
            done += 1
            if done >= target:
                return True, f"{done} certified consolidations, exact"
    return False, "generator starved"


# ---------------------------------------------------------------------------
# Criterion 4: untelescope identities and aggregate-index relations
# ---------------------------------------------------------------------------

@_check
def check_untelescope_identities(fast: bool = False) -> tuple[bool, str]:
    target = 50 if fast else 1000
    done = 0
    cfg = GenConfig(max_thick=3, seed=4)
    for cx, _rng in _instances(4, cfg):
        for move in enumerate_moves(cx):
            if not isinstance(move, Untelescope):
                continue
            t = move.thick
            mu_down = body_index(cx, cx.thick[t].lower_cb)
            mu_up = body_index(cx, cx.thick[t].upper_cb)
            iu, idn = index_up(cx, t), index_down(cx, t)
            try:
                out = apply_untelescope(cx, move)
            except MoveRejected:
                continue
            hm, hp = move.outcome.h_minus, move.outcome.h_plus
            md_m = body_index(out, hm.lower.id)
            md_p = body_index(out, hp.lower.id)
            mu_m = body_index(out, hm.upper.id)
            mu_p = body_index(out, hp.upper.id)
            checks = [
                md_m < mu_down,
                mu_p < mu_up,
                md_m + md_p == mu_down + 6,
                mu_m + mu_p == mu_up + 6,
                index_down(out, hm.id) < idn,
                index_up(out, hm.id) == iu,
                index_down(out, hp.id) == idn,
                index_up(out, hp.id) < iu,
            ]
            if not all(checks):
                return False, f"relation failed on {t}: {checks}"
            done += 1
            if done >= target:
                return True, f"{done} accepted certificates, all eight relations"
    return False, "generator starved"


# ---------------------------------------------------------------------------
# Criterion 5: aggregate indices are non-negative
# ---------------------------------------------------------------------------

@_check
def check_index_nonnegative(fast: bool = False) -> tuple[bool, str]:
    target = 500 if fast else 10_000
    cfg = GenConfig(max_thick=8, max_genus=3, max_punctures=6, seed=5)
    rng = random.Random(5)
    for n in range(target):
        cx = gen_complex(cfg, rng)
        for t in cx.thick:
            if index_up(cx, t) < 0 or index_down(cx, t) < 0:
                return False, f"negative index at instance {n}"
    return True, f"{target} instances, no violation"


# ---------------------------------------------------------------------------
# Criterion 6: every accepted move strictly decreases complexity
# ---------------------------------------------------------------------------

@_check
def check_monotone_decrease(fast: bool = False) -> tuple[bool, str]:
    target = 500 if fast else 10_000
    cfg = GenConfig(max_thick=4, seed=6)
    rng = random.Random(6)
    kinds: dict[str, int] = {}
    done = 0
    while done < target:
        cx = gen_complex(cfg, rng)
        candidates = enumerate_moves(cx)
        rng.shuffle(candidates)  # gen_move's pick, keeping the result it built
        move, parts, _vector = next(applicable(cx, candidates, Counter()), (None,) * 3)
        if move is None:
            continue
        if compare(complexity(joined(parts)), complexity(cx)) != LT:
            return False, f"{type(move).__name__} did not drop the vector"
        kinds[type(move).__name__] = kinds.get(type(move).__name__, 0) + 1
        done += 1
    return True, f"{done} accepted moves, kinds {sorted(kinds.items())}"


# ---------------------------------------------------------------------------
# Criterion 7: thinning terminates on reduced, locally thin complexes
# ---------------------------------------------------------------------------

@_check
def check_termination(fast: bool = False) -> tuple[bool, str]:
    runs = 100 if fast else 1000
    cfg = GenConfig(max_thick=4, seed=7)
    rng = random.Random(7)
    max_steps = 0
    over_half_bound = 0
    for _ in range(runs):
        cx = gen_complex(cfg, rng)
        cap = 1 + sum(complexity(cx))
        final, trace = thin(cx, enumerate_moves, cap=cap)
        if not trace.terminal:
            return False, "run hit the step cap"
        reduced, witness = is_reduced(final, enumerate_moves)
        if not reduced:
            return False, f"terminal not reduced: {witness}"
        vecs = trace.vectors()
        if any(compare(b, a) != LT for a, b in zip(vecs, vecs[1:])):
            return False, "trace not strictly decreasing"
        if len(trace.steps) > 1 + sum(trace.start_vector) // 2:
            over_half_bound += 1  # empirical bound, logged below
        max_steps = max(max_steps, len(trace.steps))
    if over_half_bound:
        return False, f"{over_half_bound} runs exceeded 1 + sum/2 steps"
    graphs = 3 if fast else 12
    rng2 = random.Random(71)
    cfg2 = GenConfig(max_thick=3, seed=71)
    for _ in range(graphs):
        cx = gen_complex(cfg2, rng2)
        graph = rewrite_graph(cx, enumerate_moves, max_nodes=200)
        if not graph.is_acyclic():
            return False, "rewrite graph has a cycle"
        sinks = set(graph.sinks())
        for digest in sinks:
            reduced, _ = is_reduced(graph.nodes[digest], enumerate_moves)
            if not reduced:
                return False, "rewrite graph sink not reduced"
        if graph.complete:
            # every explored node must reach some locally thin sink
            succ = graph.successors()
            for start in graph.nodes:
                seen, stack = {start}, [start]
                while stack:
                    node = stack.pop()
                    for nxt in succ[node]:
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                if not (seen & sinks):
                    return False, f"node {start[:12]} reaches no sink"
    return True, (f"{runs} runs halted (longest {max_steps} steps, all within "
                  f"1 + sum/2), {graphs} rewrite graphs acyclic, sinks reduced "
                  f"and reachable")


# ---------------------------------------------------------------------------
# Criterion 8: the worked four-ended example
# ---------------------------------------------------------------------------

@_check
def check_worked_example(fast: bool = False) -> tuple[bool, str]:
    cx = four_ended_spheres()
    if complexity(cx) != (24,):
        return False, "start vector must be (24,)"
    move = Untelescope(
        thick="H",
        disc_minus=DiscData(0, True, SplitData((0, 0), (0, 0), (("S2",), ("S1",)))),
        disc_plus=DiscData(0, True, SplitData((0, 0), (0, 0), (("S4",), ("S3",)))),
        outcome=UntelescopeOutcome(
            h_minus=ThickSpec("Hm", lower=BodySpec("cmd"), upper=BodySpec("cmu")),
            h_plus=ThickSpec("Hp", lower=BodySpec("cpd"), upper=BodySpec("cpu")),
            thin_id="F0"),
    )
    out = apply_move(cx, move)  # untelescope + staged consolidations
    after = complexity(out)
    if after != (18, 18):
        return False, f"untelescoped vector {after}"
    if compare(after, (24,)) != LT:
        return False, "vector did not drop"
    return True, "(24,) -> (18, 18), strictly smaller"


# ---------------------------------------------------------------------------
# Criterion 9: oracle equivalences
# ---------------------------------------------------------------------------

def _brute_reach(edges: dict[str, list[str]], start: str) -> frozenset:
    found = {start}
    stack = [(start, (start,))]
    while stack:
        node, path = stack.pop()
        for nxt in edges.get(node, ()):
            found.add(nxt)
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))
    return frozenset(found)


def _relabelled(cx: Complex, rng: random.Random) -> Complex:
    """A copy of ``cx`` with its ids permuted and its records in shuffled order."""
    ids = sorted(set(cx.thick) | set(cx.thin) | set(cx.boundary) | set(cx.cbs))
    shuffled = ids[:]
    rng.shuffle(shuffled)
    rename = dict(zip(ids, shuffled)).__getitem__
    records = [*cx.thick.values(), *cx.thin.values(), *cx.boundary.values(), *cx.cbs.values()]
    rng.shuffle(records)
    doc: dict[str, list[dict]] = {"thick": [], "thin": [], "boundary": [], "cbs": []}
    for rec in records:
        section, item = emit_record(rec, rename)
        doc[section].append(item)
    return parse_complex(doc)


def _unequal_cycles() -> Complex:
    """A hub H flows to A0..A4 and each A to two of B0..B4, so that the A-B
    incidences form a 2-cycle and a 3-cycle.  Colour refinement leaves every
    A alike, but no automorphism maps an A on one cycle to one on the other:
    a canonizer that tries only the first A it meets is not invariant."""
    after = {0: 1, 1: 0, 2: 3, 3: 4, 4: 2}
    ids = ["H"] + [f"{x}{i}" for x in "AB" for i in range(5)]
    thins = [ThinLevel(f"F{a}", Surface(0, 0), "Hu", f"A{a}d") for a in range(5)]
    thins += [ThinLevel(f"G{a}{b}", Surface(0, 0), f"A{a}u", f"B{b}d")
              for a in range(5) for b in (a, after[a])]
    ports: dict[str, list[str]] = {}
    for f in thins:
        ports.setdefault(f.from_cb, []).append(f.id)
        ports.setdefault(f.to_cb, []).append(f.id)
    return build_complex(
        thick=[ThickLevel(t, Surface(0, 0), f"{t}u", f"{t}d") for t in ids], thin=thins,
        cbs=[CompressionBody(f"{t}{side}", t, tuple(ports.get(f"{t}{side}", ())))
             for t in ids for side in "ud"])


@_check
def check_oracles(fast: bool = False) -> tuple[bool, str]:
    from .complexity import reach_up

    instances = 30 if fast else 200
    cfg = GenConfig(max_thick=8, seed=9)
    rng = random.Random(9)
    for _ in range(instances):
        cx = gen_complex(cfg, rng)
        edges = thick_digraph(cx)
        for t in cx.thick:
            if reach_up(cx, t) != _brute_reach(edges, t):
                return False, f"reach mismatch at {t}"

    pairs = 1000 if fast else 10_000
    for _ in range(pairs):
        a = tuple(sorted((2 * rng.randint(0, 30) for _ in range(rng.randint(0, 6))),
                         reverse=True))
        b = tuple(sorted((2 * rng.randint(0, 30) for _ in range(rng.randint(0, 6))),
                         reverse=True))
        pa = list(a) + [-1] * (len(b) - len(a))
        pb = list(b) + [-1] * (len(a) - len(b))
        naive = LT if pa < pb else (EQ if pa == pb else 1)
        if compare(a, b) != naive:
            return False, f"compare mismatch on {a} vs {b}"

    relabels = 500 if fast else 10_000
    cfg2 = GenConfig(max_thick=4, seed=91)
    rng2 = random.Random(91)
    done = 0
    while done < relabels:
        cx = gen_complex(cfg2, rng2) if done else _unequal_cycles()
        want = canonical_hash(cx)
        for _ in range(20):
            if canonical_hash(_relabelled(cx, rng2)) != want:
                return False, "hash not relabelling-invariant"
            done += 1
    return True, (f"reach on {instances} instances, {pairs} vector pairs, "
                  f"{done} relabellings")


# ---------------------------------------------------------------------------
# Criterion 10: orientation-reversal duality
# ---------------------------------------------------------------------------

@_check
def check_reversal_duality(fast: bool = False) -> tuple[bool, str]:
    instances = 100 if fast else 1000
    cfg = GenConfig(max_thick=5, seed=10)
    rng = random.Random(10)
    for n in range(instances):
        cx = gen_complex(cfg, rng)
        rev = reverse_orientation(cx)
        if not validate(rev).ok:
            return False, f"reversal invalid at {n}"
        for t in cx.thick:
            if index_up(rev, t) != index_down(cx, t) \
                    or index_down(rev, t) != index_up(cx, t):
                return False, f"index swap failed at {n}"
        if complexity(rev) != complexity(cx):
            return False, f"vector moved at {n}"
    return True, f"{instances} instances, exact"


def run_all(fast: bool = False) -> list[CheckResult]:
    return [check(fast=fast) for check in CHECKS]
