"""Command line surface.

Subcommands: ``validate``, ``complexity``, ``apply``, ``thin``, ``explore``,
``gen`` and ``selftest``.  Instances and moves travel as JSON documents; see
the README for the schemas.  Exit codes are stable: 0 success, 1 domain
rejection (validation failure, rejected certificate, step cap), 2 I/O or
parse trouble.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .complexity import analyze, complexity, complexity_table
from .gen import _LEAST, GenConfig, enumerate_moves, gen_complex
from .model import (
    SchemaError,
    _need,
    emit_complex,
    parse_complex,
    validate,
)
from .moves import MoveRejected, apply_move, parse_move
from .search import dot_escape, rewrite_graph, rewrite_graph_dot, thin
from .selftest import run_all

OK, DOMAIN_ERROR, IO_ERROR = 0, 1, 2


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as err:
        raise SystemExit(_fail_io(f"cannot read {path}: {err}"))
    except (json.JSONDecodeError, RecursionError) as err:
        raise SystemExit(_fail_io(f"cannot parse {path}: {err}"))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as err:
        raise SystemExit(_fail_io(f"cannot write {path}: {err}"))


def _fail_io(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return IO_ERROR


def _load_valid(args):
    """The instance at ``args.instance`` and the document it was read from;
    exits 2 when it does not parse and 1 with the report when it is
    invalid."""
    doc = _load_json(args.instance)
    try:
        cx = parse_complex(doc)
    except SchemaError as err:
        raise SystemExit(_fail_io(f"bad instance document {args.instance}: {err}"))
    report = validate(cx)
    if not report.ok:
        print(report, file=sys.stderr)
        raise SystemExit(DOMAIN_ERROR)
    return cx, doc


def _indented(doc, sort_keys: bool = False) -> str:
    """``json.dumps(doc, indent=2, sort_keys=sort_keys)``, written directly:
    the stdlib encodes with an indent only in pure Python, one generator per
    container.  Strings, ints, bools, None, lists, tuples and dicts keyed
    by strings are written here as the stdlib writes them; any other value
    goes through ``json.dumps``."""
    out: list[str] = []
    put = out.append

    def write(x, pad: str) -> None:  # ``pad``: a newline and the indent x is at
        if type(x) is str:
            put(encode_basestring_ascii(x))
        elif type(x) is int:
            put(int.__repr__(x))
        elif x is None:
            put("null")
        elif x is True:
            put("true")
        elif x is False:
            put("false")
        elif isinstance(x, (list, tuple)):
            if not x:
                put("[]")
                return
            sep = inner = pad + "  "
            comma = "," + inner
            put("[")
            for item in x:
                put(sep)
                write(item, inner)
                sep = comma
            put(pad + "]")
        elif isinstance(x, dict):
            if not x:
                put("{}")
                return
            sep = inner = pad + "  "
            comma = "," + inner
            put("{")
            for key, value in sorted(x.items()) if sort_keys else x.items():
                put(sep)
                put(encode_basestring_ascii(key))
                put(": ")
                write(value, inner)
                sep = comma
            put(pad + "}")
        else:
            put(json.dumps(x))

    write(doc, "\n")
    return "".join(out)


def _write_or_print(args, doc: dict) -> None:
    text = _indented(doc, sort_keys=True)
    if getattr(args, "out", None):
        _write(args.out, text)
    elif not args.quiet:
        print(text)


def instance_dot(cx) -> str:
    """Instance diagram: levels and bodies with their index annotations."""
    a = analyze(cx)
    q = dot_escape
    lines = ["digraph instance {", "  rankdir=BT;"]
    for t in sorted(cx.thick.values(), key=lambda t: t.id):
        label = (f"{q(t.id)} ({t.surface.genus},{t.surface.punctures})"
                 f"\\nIup={a.index_up[t.id]} Idown={a.index_down[t.id]}")
        lines.append(f'  "{q(t.id)}" [shape=box style=bold label="{label}"];')
    for f in sorted(cx.thin.values(), key=lambda f: f.id):
        lines.append(f'  "{q(f.id)}" [shape=box style=dashed '
                     f'label="{q(f.id)} ({f.surface.genus},{f.surface.punctures})"];')
    for b in sorted(cx.boundary.values(), key=lambda b: b.id):
        mark = " vertex" if b.is_drilled_vertex else ""
        lines.append(f'  "{q(b.id)}" [shape=house '
                     f'label="{q(b.id)} ({b.surface.genus},{b.surface.punctures}{mark})"];')
    for c in sorted(cx.cbs.values(), key=lambda c: c.id):
        lines.append(f'  "{q(c.id)}" [shape=ellipse label="{q(c.id)} idx={a.body[c.id]}"];')
        upper = cx.thick[c.plus].upper_cb == c.id
        if upper:
            lines.append(f'  "{q(c.plus)}" -> "{q(c.id)}";')
        else:
            lines.append(f'  "{q(c.id)}" -> "{q(c.plus)}";')
        for port in c.minus:
            if port in cx.thin:
                if upper:  # orientation leaves an upper body through its thin levels
                    lines.append(f'  "{q(c.id)}" -> "{q(port)}";')
                else:
                    lines.append(f'  "{q(port)}" -> "{q(c.id)}";')
            else:
                lines.append(f'  "{q(port)}" -> "{q(c.id)}" [dir=none style=dotted];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    _load_valid(args)
    _say(args, "valid")
    return OK


def cmd_complexity(args) -> int:
    cx, _ = _load_valid(args)
    if args.format == "dot":
        print(instance_dot(cx))
        return OK
    rows = complexity_table(cx)
    if not args.quiet:
        header = f"{'id':<12}{'body_up':>9}{'body_down':>11}{'I_up':>7}{'I_down':>8}{'I':>6}"
        print(header)
        for row in rows:
            print(f"{row['id']:<12}{row['body_up']:>9}{row['body_down']:>11}"
                  f"{row['index_up']:>7}{row['index_down']:>8}{row['index']:>6}")
    print(json.dumps(list(complexity(cx))))
    return OK


def cmd_apply(args) -> int:
    cx, doc = _load_valid(args)
    move_docs = [_load_json(path) for path in args.move or []]
    if not move_docs:
        # instance documents may embed their move sequence, possibly empty
        try:
            move_docs = _need(doc, "moves", list, "instance", None)
        except SchemaError as err:
            return _fail_io(f"bad instance document {args.instance}: {err}")
        if move_docs is None:
            return _fail_io("no moves given (--move flags or an embedded 'moves' array)")
    for n, move_doc in enumerate(move_docs):
        try:
            move = parse_move(move_doc)
        except SchemaError as err:
            return _fail_io(f"bad move document #{n}: {err}")
        before = complexity(cx)
        try:
            cx = apply_move(cx, move)
        except MoveRejected as err:
            print(f"rejected: {err}", file=sys.stderr)
            return DOMAIN_ERROR
        _say(args, f"applied {type(move).__name__.lower()}: "
                   f"{list(before)} -> {list(complexity(cx))}")
    _write_or_print(args, emit_complex(cx))
    return OK


def _check_at_least(args, name: str, least: int) -> None:
    """Exit 2 with one line when the option ``name`` is below ``least``."""
    value = getattr(args, name)
    if value < least:
        flag = "--" + name.replace("_", "-")
        raise SystemExit(_fail_io(f"{flag} must be at least {least}, not {value}"))


def cmd_thin(args) -> int:
    _check_at_least(args, "cap", 0)
    cx, _ = _load_valid(args)
    policy = "greedy-max-drop" if args.policy == "greedy" else "first"
    try:
        final, trace = thin(cx, enumerate_moves, policy=policy, cap=args.cap)
    except MoveRejected as err:  # a forced consolidation the gate refused
        print(f"rejected: {err}", file=sys.stderr)
        return DOMAIN_ERROR
    print(json.dumps({"start": {"digest": trace.start_digest,
                                "vector": list(trace.start_vector)}}))
    for step in trace.steps:
        print(json.dumps({"digest": step.digest, "move": step.move,
                          "vector": list(step.vector)}))
    _write_or_print(args, emit_complex(final))
    if not trace.terminal:
        print("cap reached", file=sys.stderr)
        return DOMAIN_ERROR
    return OK


def cmd_explore(args) -> int:
    _check_at_least(args, "cap", 1)
    cx, _ = _load_valid(args)
    graph = rewrite_graph(cx, enumerate_moves, max_nodes=args.cap)
    if args.format == "dot":
        print(rewrite_graph_dot(graph))
    else:
        print(_indented({
            "root": graph.root,
            "complete": graph.complete,
            "nodes": {d: list(v) for d, v in sorted(graph.vectors.items())},
            "edges": [{"from": a, "move": m, "to": b} for a, m, b in graph.edges],
            "sinks": graph.sinks(),
        }))
    if not graph.complete:
        print("incomplete: node budget reached", file=sys.stderr)
    return OK


def cmd_gen(args) -> int:
    for name, least in _LEAST.items():
        _check_at_least(args, name, least)
    cfg = GenConfig(max_thick=args.max_thick, max_genus=args.max_genus,
                    max_punctures=args.max_punctures, max_ports=args.max_ports,
                    allow_boundary=not args.no_boundary, seed=args.seed)
    cx = gen_complex(cfg)
    print(f"seed: {cfg.seed}", file=sys.stderr)
    _write_or_print(args, emit_complex(cx))
    return OK


def cmd_selftest(args) -> int:
    results = run_all(fast=args.fast)
    for result in results:
        print(result.line())
    return OK if all(r.ok for r in results) else DOMAIN_ERROR


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command line, built once per process: nothing
    in it depends on ``argv``, and each ``parse_args`` fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="widthcalc",
        description="Certified rewriting calculus for leveled splittings "
                    "of (3-manifold, graph) pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--quiet", action="store_true", help="suppress chatty output")
        if out:
            p.add_argument("--out", help="write the resulting instance here")

    p = sub.add_parser("validate", help="check an instance document")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("complexity", help="per-level indices and the vector")
    p.add_argument("instance")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    common(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("apply", help="apply move certificates in order")
    p.add_argument("instance")
    p.add_argument("--move", action="append",
                   help="move document; repeat to chain (default: the "
                        "instance's embedded 'moves' array)")
    common(p, out=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("thin", help="drive an instance to a locally thin form")
    p.add_argument("instance")
    p.add_argument("--policy", choices=("first", "greedy"), default="first")
    p.add_argument("--cap", type=int, default=1_000_000, help="step cap, at least 0")
    common(p, out=True)
    p.set_defaults(func=cmd_thin)

    p = sub.add_parser("explore", help="expand the rewrite graph")
    p.add_argument("instance")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--cap", type=int, default=200, help="node budget, at least 1")
    common(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("gen", help="emit a random valid instance")
    p.add_argument("--max-thick", type=int, default=4)
    p.add_argument("--max-genus", type=int, default=3)
    p.add_argument("--max-punctures", type=int, default=6)
    p.add_argument("--max-ports", type=int, default=3)
    p.add_argument("--no-boundary", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    common(p, out=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--fast", action="store_true", help="reduced sample counts")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
