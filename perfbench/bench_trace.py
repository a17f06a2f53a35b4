"""In-memory span tracer that wraps qhenum's public functions from outside.

The tracer replaces a function object by a recording wrapper in every
``qhenum`` module that holds it, so calls through ``from .x import f`` copies
and module-global calls (``backend.solve``, ``oracle.eval_term``, ...) are
recorded without changing the package. Each span records name, start, end,
parent span and operation id. Spans stay in memory until ``write`` is called.

Functions listed in ``HOT`` run millions of times per pass; they update the
per-name aggregates and their parent's child time but keep no span record,
so memory stays bounded.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

# (module, public function) pairs wrapped in a traced run. Generators are left
# out: their call returns before the work is done.
TRACED = (
    ("sexpr", "parse_one"),
    ("sexpr", "parse_all"),
    ("sexpr", "to_text"),
    ("terms", "term_from_sexpr"),
    ("terms", "term_to_sexpr"),
    ("terms", "substitute"),
    ("terms", "retag"),
    ("terms", "retag_free"),
    ("terms", "free_vars"),
    ("terms", "check_sorts"),
    ("system", "parse_system"),
    ("qhl", "parse_property"),
    ("qhl", "check_well_defined"),
    ("enumeration", "parse_enumeration"),
    ("enumeration", "gen_injective_vcs"),
    ("enumeration", "gen_surjective_vcs"),
    ("enumeration", "discharge"),
    ("counting", "parse_proof"),
    ("counting", "check_script"),
    ("counting", "apply_rule"),
    ("backend", "build_query"),
    ("backend", "emit"),
    ("backend", "solve"),
    ("oracle", "brute_count"),
    ("oracle", "enumerate_traces"),
    ("oracle", "successors"),
    ("oracle", "count_equivalence_classes"),
    ("oracle", "eval_bounded"),
    ("oracle", "eval_term"),
    ("cli", "load_project"),
    ("cli", "load_instance"),
    ("cli", "verify"),
)

LAYERS = ("sexpr", "terms", "system", "qhl", "enumeration", "counting", "backend", "oracle", "cli")

HOT = frozenset(
    {
        "sexpr.to_text",
        "terms.term_to_sexpr",
        "terms.substitute",
        "terms.retag",
        "terms.retag_free",
        "terms.free_vars",
        "terms.check_sorts",
        "oracle.eval_term",
        "oracle.eval_bounded",
        "oracle.successors",
    }
)

# These call themselves through their module global; the wrapper is kept out
# of the defining module so that only calls from other modules are recorded.
SELF_RECURSIVE = frozenset({"sexpr.to_text", "terms.term_to_sexpr", "terms.free_vars"})

# A solver call belongs to the stage of its nearest enclosing span here.
SOLVE_STAGE = {
    "enumeration.discharge": "enumeration",
    "counting.check_script": "counting",
    "cli.verify": "link",
}

SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, Optional[int], str]] = []
        self.dropped = 0
        self.phase = "setup"
        self.op_id = ""
        # (phase, name) -> [calls, total_ns, self_ns]
        self.agg: dict[tuple[str, str], list[int]] = {}
        # (phase, counter) -> value, for work counted from arguments or results
        self.counts: dict[tuple[str, str], int] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list[Any]] = []
        self._local.stack = self._main_stack
        self.epoch_ns = time.perf_counter_ns()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            k = (self.phase, key)
            self.counts[k] = self.counts.get(k, 0) + amount

    def _enter(self, name: str) -> list[Any]:
        stack = self._stack()
        # worker threads (enumeration.discharge) start with an empty stack;
        # their parent is the span the main thread is blocked in
        cross = not stack and stack is not self._main_stack
        parents = self._main_stack if cross else stack
        parent = parents[-1][3] if parents else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if name == "backend.solve":
            stage = next(
                (SOLVE_STAGE[f[0]] for f in reversed(parents) if f[0] in SOLVE_STAGE),
                "other",
            )
            name = f"backend.solve.{stage}"
        frame = [name, time.perf_counter_ns(), 0, span_id, parent, cross]
        stack.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        name, start, child_ns, span_id, parent, cross = frame
        dur = end - start
        with self._lock:
            entry = self.agg.setdefault((self.phase, name), [0, 0, 0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_ns
            if name not in HOT:
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end, parent, self.op_id))
                else:
                    self.dropped += 1
        # time spent in another thread is not subtracted from the parent's
        # self time: parallel children can outlast the parent's interval
        if stack and not cross:
            stack[-1][2] += dur

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, modules: dict[str, Any], hooks: dict[str, Callable]) -> None:
        """Wrap every TRACED function wherever a qhenum module refers to it."""
        for module_name, func_name in TRACED:
            fn = getattr(modules[module_name], func_name)
            name = f"{module_name}.{func_name}"
            wrapper = self.wrap(name, fn, hooks.get(name))
            for owner, module in modules.items():
                if owner == module_name and name in SELF_RECURSIVE:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    # -- results -----------------------------------------------------------

    def phase_totals(self, phase: str) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total ms, self ms) for one phase."""
        return {
            name: (calls, total / 1e6, self_ns / 1e6)
            for (ph, name), (calls, total, self_ns) in self.agg.items()
            if ph == phase
        }

    def write(self, path: Path, summary: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"summary": summary, "spans_dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_us": (start - self.epoch_ns) // 1000,
                            "end_us": (end - self.epoch_ns) // 1000,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
