"""Per-layer tracing from outside the package.

The tracer wraps each layer's public functions at every module attribute of
``widthcalc`` that binds them, so a call through ``from .model import
validate`` in ``moves`` is seen as well as one through ``model.validate``.
Spans are aggregated as they close rather than kept: a pass over the
analyze-large pool opens millions of them.  A span's self time is its
duration minus the time its wrapped child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

from widthcalc.moves import MoveRejected

TARGETS = (
    "cli.main",
    "model.parse_complex",
    "model.validate",
    "model.body_index",
    "model.emit_complex",
    "complexity.complexity",
    "complexity.complexity_table",
    "moves.apply_move",
    "moves.emit_move",
    "gen.enumerate_moves",
    "search.thin",
    "search.rewrite_graph",
    "search.canonical_hash",
)


class Tracer:
    """Counters and self times for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.rejects: Counter[str] = Counter()
        self.job_rejects: Counter[str] = Counter()
        self.accepted = 0
        self.candidates = 0
        self.hash_repeats = 0
        self._digests: set[str] = set()
        self._children = [0.0]  # time covered by wrapped children, per open span
        self._patched: list[tuple[object, str, object]] = []

    def begin_job(self) -> None:
        self._digests = set()
        self.job_rejects = Counter()

    # -- hooks on particular layers ------------------------------------------

    def _on_apply(self, result, err) -> None:
        if isinstance(err, MoveRejected):
            self.rejects[err.rule] += 1
            self.job_rejects[err.rule] += 1
        elif err is None:
            self.accepted += 1

    def _on_enumerate(self, result, err) -> None:
        if err is None:
            self.candidates += len(result)

    def _on_hash(self, result, err) -> None:
        if err is None:
            self.hash_repeats += result in self._digests
            self._digests.add(result)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = {"moves.apply_move": self._on_apply,
                "gen.enumerate_moves": self._on_enumerate,
                "search.canonical_hash": self._on_hash}.get(name)
        children, calls, self_s = self._children, self.calls, self.self_s

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                span = perf_counter() - start
                inner = children.pop()
                children[-1] += span
                self_s[name] += span - inner
                calls[name] += 1
                if hook is not None:
                    hook(result, err)

        return traced

    def install(self) -> None:
        for target in TARGETS:  # import every layer first, so that all bindings exist
            importlib.import_module("widthcalc." + target.split(".")[0])
        modules = [m for n, m in list(sys.modules.items())
                   if n == "widthcalc" or n.startswith("widthcalc.")]
        for target in TARGETS:
            module_name, func_name = target.split(".")
            original = getattr(sys.modules[f"widthcalc.{module_name}"], func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def counts(self) -> dict[str, int]:
        """Every count that must repeat exactly between two traced passes."""
        out = {f"{name}.calls": self.calls[name] for name in TARGETS}
        out.update({f"moves.reject.{rule}": n for rule, n in self.rejects.items()})
        out["gen.enumerate_moves.candidates"] = self.candidates
        out["search.canonical_hash.repeats"] = self.hash_repeats
        return out
