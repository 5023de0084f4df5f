"""The benchmark's three workloads: their inputs and their output checks.

Each workload is a fixed pool of CLI jobs built from a pool seed (``POOLS``).
The ``--seed`` of a run only orders the jobs within each pass, so every run
of a pool does the same work and the same seed always gives the same job
sequence.  The held-out pool is there to confirm a claim on inputs nobody
tuned against.

A check turns one job's stdout into an *outcome*: the part of
the output that an exact rewrite of the engine must not change, with digest
strings left out.  It compares the output against the independent reference
in ``reference.py`` first and reports the first mismatch as an error.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cached_property

from widthcalc.gen import GenConfig, gen_complex
from widthcalc.model import emit_complex

import reference as ref

POOLS = {"main": 1, "heldout": 2}

EXPLORE_CAP = 20
EXPLORE_COPIES = (3, 4)
CHAIN_COMPLEXITY = (100, 140, 200, 400)
# validate's cycle check recurses once per level: 800 levels stay under the
# default recursion limit of 1000, while 1200 and 2000 hit the known defect.
CHAIN_VALIDATE = tuple(range(300, 801, 50))
DEEP_CHAIN_VALIDATE = (1200, 2000)


@dataclass
class Job:
    id: str
    command: str
    flags: tuple[str, ...]
    doc: dict
    path: str = ""

    def argv(self) -> list[str]:
        return [self.command, self.path, *self.flags]

    @cached_property
    def ref_table(self) -> dict:
        return ref.index_table(self.doc)

    @cached_property
    def ref_vector(self) -> list[int]:
        return sorted((row["index"] for row in self.ref_table.values()), reverse=True)


def _instance(cfg: GenConfig) -> dict:
    return emit_complex(gen_complex(cfg))


# ---------------------------------------------------------------------------
# Input builders
# ---------------------------------------------------------------------------

def thin_random(pool: int) -> tuple[list[Job], list[Job]]:
    """80 random valid instances with 1 to 6 thick levels, thinned with policy first."""
    jobs = [Job(f"thin/{i:03d}", "thin", ("--policy", "first"),
                _instance(GenConfig(max_thick=6, seed=pool * 100_000 + i)))
            for i in range(80)]
    return jobs, []


def _disjoint_union(doc: dict, copies: int, rng: random.Random) -> dict:
    """``copies`` relabelled copies of one instance, records in shuffled order."""
    out: dict[str, list] = {"thick": [], "thin": [], "boundary": [], "cbs": []}
    for c in range(copies):
        def r(name: str) -> str:
            return f"k{c}.{name}"
        out["thick"] += [{**t, "id": r(t["id"]), "upper_cb": r(t["upper_cb"]),
                          "lower_cb": r(t["lower_cb"])} for t in doc["thick"]]
        out["thin"] += [{**f, "id": r(f["id"]), "from_cb": r(f["from_cb"]),
                         "to_cb": r(f["to_cb"])} for f in doc["thin"]]
        out["boundary"] += [{**b, "id": r(b["id"]), "owner": r(b["owner"])}
                            for b in doc["boundary"]]
        out["cbs"] += [{**cb, "id": r(cb["id"]), "plus": r(cb["plus"]),
                        "minus": [r(p) for p in cb["minus"]]} for cb in doc["cbs"]]
    for records in out.values():
        rng.shuffle(records)
    return out


def explore_symmetric(pool: int) -> tuple[list[Job], list[Job]]:
    """Unions of 3 and 4 copies of 20 one-thick-level bases, explored to 20 nodes."""
    rng = random.Random(pool)
    jobs = []
    for i in range(20):
        base = _instance(GenConfig(max_thick=1, max_genus=2, max_punctures=4,
                                   seed=pool * 100_000 + 10_000 + i))
        for k in EXPLORE_COPIES:
            jobs.append(Job(f"explore/b{i}k{k}", "explore",
                            ("--format", "json", "--cap", str(EXPLORE_CAP)),
                            _disjoint_union(base, k, rng)))
    return jobs, []


def chain(levels: int, rng: random.Random) -> dict:
    """A valid chain T0 -> T1 -> ... of ``levels`` thick levels.

    Thin levels never exceed their neighbours in genus or punctures, so every
    tangle is verticals plus bridges and no ghost arc or handle is needed.
    """
    thick = [{"id": f"T{i}", "surface": {"genus": rng.randint(1, 2),
                                         "punctures": rng.choice((2, 4))},
              "upper_cb": f"U{i}", "lower_cb": f"D{i}"} for i in range(levels)]
    thin = []
    for i in range(levels - 1):
        below, above = thick[i]["surface"], thick[i + 1]["surface"]
        thin.append({"id": f"F{i}", "from_cb": f"U{i}", "to_cb": f"D{i + 1}",
                     "surface": {"genus": rng.randint(0, min(below["genus"], above["genus"])),
                                 "punctures": rng.choice((0, 2))}})
    cbs = []
    for i, t in enumerate(thick):
        p = t["surface"]["punctures"]
        for cb_id, port in ((f"U{i}", i if i < levels - 1 else None),
                            (f"D{i}", i - 1 if i > 0 else None)):
            v = thin[port]["surface"]["punctures"] if port is not None else 0
            cbs.append({"id": cb_id, "plus": t["id"],
                        "minus": [f"F{port}"] if port is not None else [],
                        "tangle": {"v": v, "b": (p - v) // 2, "gh": 0, "loops": 0},
                        "product_certificate": False, "ball_certificate": False})
    return {"thick": thick, "thin": thin, "boundary": [], "cbs": cbs}


def analyze_large(pool: int) -> tuple[list[Job], list[Job]]:
    """``complexity`` on long chains and wide random DAGs, ``validate`` on deep chains.

    The second list is the known-defect probe: ``validate`` on chains deeper
    than the interpreter's recursion limit, run outside the timed passes.
    """
    rng = random.Random(pool)
    dags = [_instance(GenConfig(max_thick=300, seed=pool * 100_000 + 20_000 + i))
            for i in range(4)]
    jobs = [Job(f"complexity/chain{n}", "complexity", (), chain(n, rng))
            for n in CHAIN_COMPLEXITY]
    jobs += [Job(f"complexity/dag{i}", "complexity", (), d) for i, d in enumerate(dags)]
    jobs += [Job(f"validate/chain{n}", "validate", (), chain(n, rng)) for n in CHAIN_VALIDATE]
    jobs += [Job(f"validate/dag{i}", "validate", (), d) for i, d in enumerate(dags)]
    probe = [Job(f"validate/chain{n}", "validate", (), chain(n, rng))
             for n in DEEP_CHAIN_VALIDATE]
    return jobs, probe


WORKLOADS = {
    "thin-random": thin_random,
    "explore-symmetric": explore_symmetric,
    "analyze-large": analyze_large,
}


def input_digest(jobs: list[Job]) -> str:
    """sha256 over every job's id, command line and document."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps([job.id, job.command, job.flags, job.doc],
                            sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Mismatch(Exception):
    """The output disagrees with the reference."""


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def check_thin(job: Job, out: str) -> dict:
    values = ref.json_stream(out)
    _require(len(values) >= 2, "expected a start line and a final instance")
    start, steps, final = values[0]["start"], values[1:-1], values[-1]
    vectors = [start["vector"]] + [s["vector"] for s in steps]
    _require(vectors[0] == job.ref_vector, "start vector differs from the reference")
    for before, after in zip(vectors, vectors[1:]):
        _require(ref.is_vector(after) and ref.compare(after, before) < 0,
                 f"step {before} -> {after} does not strictly decrease")
    _require(ref.vector(final) == vectors[-1],
             "final instance's reference vector differs from the last step")
    return {"vectors": vectors, "moves_sha256": _sha([s["move"] for s in steps])}


def check_explore(job: Job, out: str) -> dict:
    graph = json.loads(out)
    nodes, edges, sinks = graph["nodes"], graph["edges"], graph["sinks"]
    _require(nodes[graph["root"]] == job.ref_vector, "root vector differs from the reference")
    _require(len(nodes) <= EXPLORE_CAP, "node budget exceeded")
    _require(all(ref.is_vector(v) for v in nodes.values()), "malformed node vector")
    sources = set()
    for edge in edges:
        src, dst = edge["from"], edge["to"]
        _require(src in nodes and dst in nodes, "edge to an unknown node")
        _require(ref.compare(nodes[dst], nodes[src]) < 0,
                 f"edge {nodes[src]} -> {nodes[dst]} does not strictly decrease")
        _require(isinstance(edge["move"], dict) and "kind" in edge["move"], "malformed move")
        sources.add(src)
    _require(all(s in nodes and s not in sources for s in sinks), "a sink has a successor")
    return {"nodes": len(nodes), "edges": len(edges), "complete": graph["complete"],
            "node_vectors": sorted(nodes.values()),
            "sink_vectors": sorted(nodes[s] for s in sinks)}


def check_complexity(job: Job, out: str) -> dict:
    lines = out.strip().splitlines()
    vector = json.loads(lines[-1])
    _require(vector == job.ref_vector, "vector differs from the reference")
    table = job.ref_table
    rows = [line.split() for line in lines[1:-1]]
    _require(len(rows) == len(table), "table has the wrong number of rows")
    for row in rows:
        want = table.get(row[0])
        _require(want is not None and [int(x) for x in row[1:]] == [
            want["body_up"], want["body_down"], want["index_up"],
            want["index_down"], want["index"]], f"table row {row[0]} differs from the reference")
    return {"levels": len(vector), "vector_sha256": _sha(vector)}


def check_validate(job: Job, out: str) -> dict:
    _require(out.strip() == "valid", "verdict is not 'valid'")
    return {"verdict": "valid"}


CHECKS = {"thin": check_thin, "explore": check_explore,
          "complexity": check_complexity, "validate": check_validate}
