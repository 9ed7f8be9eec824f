"""Spans around calls into idealbench, recorded from outside the package.

``Tracer.install`` rebinds each listed function, in every ``idealbench``
module namespace that holds it, to a wrapper that appends a span
``[name, start_ns, end_ns, parent, job]`` to an in-memory list.  Times are
integer nanoseconds, so a span's self time (its duration minus the
durations of its direct children) is exact, never negative, and the self
times of a tree add up to its root's duration.  ``uninstall`` restores the
originals.

Functions called 10^5 times or more per run (``sets.*.contains``,
``pairing.*``, ``LabelRule.label``) stay unwrapped; their time counts in
their caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>" without the package prefix
TRACED: Tuple[Tuple[str, str], ...] = (
    ("construction", "build_partition"),
    ("construction", "verify_partition"),
    ("construction", "degenerate_prefix_weight"),
    ("construction", "PartitionData.to_json"),
    ("construction", "PartitionData.from_json"),
    ("serialize", "rat_str"),
    ("serialize", "canonical_bytes"),
    ("serialize", "mutate_one_field"),
    ("diagonal", "run_pwfin"),
    ("diagonal", "run_posdiff"),
    ("diagonal", "run_hindman"),
    ("diagonal", "run_ramsey"),
    ("diagonal", "assemble_pwfin"),
    ("diagonal", "assemble_posdiff"),
    ("diagonal", "assemble_hindman"),
    ("diagonal", "assemble_ramsey"),
    ("diagonal", "collision_check"),
    ("ramsey", "matching_cases"),
    ("ramsey", "canonical_ramsey_search"),
    ("ramsey", "eventually_sparse_check"),
    ("ramsey", "delta"),
    ("ramsey", "fs"),
    ("ideals", "diff_multiplicity"),
    ("ideals", "membership"),
    ("reduction", "check_subset_reduction"),
    ("reduction", "check_reduction_witness"),
    ("reduction", "revalidate_certificate"),
    ("trees", "compute_labels"),
    ("trees", "check_branching"),
    ("trees", "find_critical"),
    ("scenarios", "load_scenario"),
    ("certify", "recheck"),
    ("cli", "run"),
)

CERT_KINDS = (
    "partition", "weight-bound", "subset-reduction", "pigeonhole", "diagonalization",
    "structural-identity", "tree-labelling", "sparseness", "ramsey-oracle", "collision",
    "pairing",
)

def traced_names() -> List[str]:
    return [f"{mod}.{path}" for mod, path in TRACED] + [
        f"certify.produce.{kind}" for kind in CERT_KINDS
    ]


class Tracer:
    """In-memory span recorder; one per traced run.

    Spans live in parallel arrays (name code, start, end, parent index, job)
    so that a run with a million spans stays near 30 MB.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.job_of = array("l")
        self.counters: Dict[str, int] = defaultdict(int)
        self.job = -1
        self._codes: Dict[str, int] = {}
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ----------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_of.append(code)
        self.parent.append(stack[-1] if stack else -1)
        self.job_of.append(self.job)
        self.end.append(0)
        stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count_len: Optional[str] = None) -> Callable:
        """fn wrapped to record a span per call (and add len(result) to a counter)."""
        code, open_, close, counters = self._code(name), self._open, self._close, self.counters

        def traced(*args, **kwargs):
            index = open_(code)
            try:
                out = fn(*args, **kwargs)
                if count_len is not None:
                    counters[count_len] += len(out)
                return out
            finally:
                close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        index = self._open(self._code(name))
        try:
            yield
        finally:
            self._close(index)

    # -- installing -----------------------------------------------------------

    def _rebind(self, original: Callable, replacement: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("idealbench"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append(
                        lambda m=module, a=attr, v=original: setattr(m, a, v)
                    )

    def install(self) -> None:
        for mod, path in TRACED:
            module = importlib.import_module(f"idealbench.{mod}")
            name = f"{mod}.{path}"
            counter = "serialize.canonical_bytes.bytes" if name == "serialize.canonical_bytes" else None
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                setattr(cls, meth, new)
                self._restore.append(lambda c=cls, m=meth, v=raw: setattr(c, m, v))
            else:
                original = getattr(module, path)
                self._rebind(original, self.wrap(name, original, counter))
        certify = importlib.import_module("idealbench.certify")
        producers = certify._PRODUCERS
        for kind in CERT_KINDS:
            original = producers[kind]
            wrapped = self.wrap(f"certify.produce.{kind}", original)
            producers[kind] = wrapped
            self._restore.append(lambda k=kind, v=original: producers.__setitem__(k, v))
            self._rebind(original, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reading ----------------------------------------------------------------

    def self_times(self) -> List[int]:
        """Self time of every span in nanoseconds, in span order."""
        own = [end - start for start, end in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def root_wall_ns(self) -> int:
        return sum(end - start for start, end, parent in zip(self.start, self.end, self.parent)
                   if parent < 0)

    def table(self) -> Dict[str, dict]:
        """Per span name: calls, self seconds and total (inclusive) seconds."""
        rows = [{"calls": 0, "self_ns": 0, "total_ns": 0} for _ in self.names]
        for code, start, end, own in zip(self.name_of, self.start, self.end, self.self_times()):
            row = rows[code]
            row["calls"] += 1
            row["self_ns"] += own
            row["total_ns"] += end - start
        return {name: row for name, row in zip(self.names, rows) if row["calls"]}

    def write_spans(self, path) -> None:
        """JSON lines: a header naming the fields and span names, then one
        ``[name, start_ns, end_ns, parent, job]`` array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                                 "names": self.names}))
            fh.write("\n")
            for row in zip(self.name_of, self.start, self.end, self.parent, self.job_of):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)


def format_table(rows: Dict[str, dict], wall_ns: int) -> str:
    lines = [f"{'span':<48} {'calls':>9} {'self_s':>10} {'total_s':>10} {'self%':>7}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"]):
        share = 100.0 * row["self_ns"] / wall_ns if wall_ns else 0.0
        lines.append(
            f"{name:<48} {row['calls']:>9} {row['self_ns'] / 1e9:>10.4f} "
            f"{row['total_ns'] / 1e9:>10.4f} {share:>6.2f}%"
        )
    lines.append(f"{'traced wall':<48} {'':>9} {wall_ns / 1e9:>10.4f}")
    return "\n".join(lines)
