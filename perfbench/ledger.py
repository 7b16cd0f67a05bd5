"""Spans and counters recorded from outside the program.

The traced run wraps public functions of the program's modules (module
attributes are swapped for timing wrappers and restored afterwards), so
the program itself carries no tracing code. Spans are kept in memory
and written out when the benchmark ends.
"""

import json
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self):
        self.spans: List[Dict] = []
        self.counts: Dict[str, int] = {}
        # (wall seconds, operator statistics text) per Ray Data execution
        self.executions: List[Tuple[float, str]] = []
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self._root: Optional[int] = None
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record ``name`` from entry to exit. The parent is the
        innermost open span of this thread, else the root span (work
        that the program moves onto its own threads)."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name, "parent": parent,
                               "start": time.perf_counter(), "end": None})
        if self._root is None:
            self._root = sid
        stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            stack.pop()
            self.spans[sid]["end"] = time.perf_counter()
            if self._root == sid:
                self._root = None

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def wrap(self, module, attr: str, name: str) -> None:
        """Swap ``module.attr`` for a wrapper that records a span and a
        call count under ``name`` (and ``name.raised`` on exceptions)."""
        inner = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer.count(name)
            with tracer.span(name) as rec:
                try:
                    return inner(*args, **kwargs)
                except Exception:
                    rec["raised"] = True
                    tracer.count(name + ".raised")
                    raise

        traced.__wrapped__ = inner
        setattr(module, attr, traced)
        self._undo.append(lambda: setattr(module, attr, inner))

    def watch_executions(self) -> None:
        """Record each Ray Data execution that completes in this process
        until ``unwrap_all``: its wall time and the operator statistics
        ``Dataset.stats()`` would print for it. This sees the executions
        the program starts on datasets the benchmark never holds (a
        query's, a job's re-reads), through Ray Data's execution
        callback hook."""
        from ray.data import DataContext
        from ray.data._internal.execution.execution_callback import (
            ExecutionCallback,
            add_execution_callback,
            remove_execution_callback,
        )

        tracer = self
        # an execution's operators are its stats object and that object's
        # parents; a parent that an earlier execution materialized is
        # the same object, and is counted once
        seen: Dict[int, object] = {}

        class Record(ExecutionCallback):
            def after_execution_succeeds(self, executor):
                stats = executor.get_stats()
                texts, todo = [], [stats]
                with tracer._lock:
                    while todo:
                        node = todo.pop()
                        if id(node) in seen:
                            continue
                        seen[id(node)] = node
                        texts.append(node.to_summary().to_string(
                            include_parent=False))
                        todo.extend(node.parents)
                    tracer.executions.append(
                        (stats.time_total_s, "\n".join(texts)))

            # every Dataset deep-copies the data context, hooks included:
            # the copies must record here. Ray also pickles the context
            # to its stats actor, where the hook records nothing.
            def __deepcopy__(self, memo):
                return self

            def __reduce__(self):
                return (ExecutionCallback, ())

        ctx = DataContext.get_current()
        hook = Record()
        add_execution_callback(hook, ctx)
        self._undo.append(lambda: remove_execution_callback(hook, ctx))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def dump(self, path: Path, meta: Dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"meta": meta, "counts": self.counts, "spans": self.spans},
            indent=0,
        ))


# -- Ray Data operator statistics ------------------------------------------

_OP_RE = re.compile(r"^Operator \d+ (.+?): \d+ tasks executed", re.M)
_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _seconds(text: str) -> float:
    m = re.fullmatch(r"([\d.]+)(us|ms|s)", text.strip())
    return float(m.group(1)) * _UNITS[m.group(2)]


def operator_stats(stats_text: str) -> Dict[str, Dict[str, float]]:
    """Operator name -> remote wall/cpu seconds and output rows, summed
    over tasks, parsed from ``Dataset.stats()``. Remote wall/cpu time
    is used rather than "UDF time", which counts a fused actor
    operator's waiting as well as its work."""
    out: Dict[str, Dict[str, float]] = {}
    blocks = _OP_RE.split(stats_text)
    # split() yields [prefix, name1, body1, name2, body2, ...]
    for name, body in zip(blocks[1::2], blocks[2::2]):
        rec = out.setdefault(name, {})
        for key, label in (("wall_s", "Remote wall time"),
                           ("cpu_s", "Remote cpu time")):
            m = re.search(label + r":.*?, ([\d.]+(?:us|ms|s)) total", body)
            if m:
                rec[key] = rec.get(key, 0.0) + _seconds(m.group(1))
        m = re.search(r"Output num rows per block:.*?, (\d+) total", body)
        if m:
            rec["rows_out"] = rec.get("rows_out", 0) + int(m.group(1))
    return out


def stage_of(operator: str) -> Optional[str]:
    if "ExtractorPool" in operator:
        return "extract_pool"
    if operator.startswith("ReadParquet"):
        return "read"
    if operator.startswith("Write"):
        return "write"
    return None


def execution_ledger(executions: List[Tuple[float, str]]) -> Dict[str, float]:
    """Per-layer metrics of the Ray Data executions of one pass: their
    number and summed wall time, the remote CPU time of all their
    operators, and ``stages.{read,extract_pool,write}.{wall_s,cpu_s,
    rows_out}``. A stage no operator matched is left out, so the run
    reports it missing."""
    out: Dict[str, float] = {
        "pipelines.executions": len(executions),
        "pipelines.execution_s": sum(wall for wall, _ in executions),
        "stages.remote_cpu_s": 0.0,
    }
    for _, text in executions:
        for op, rec in operator_stats(text).items():
            out["stages.remote_cpu_s"] += rec.get("cpu_s", 0.0)
            st = stage_of(op)
            if st is None:
                continue
            for k, v in rec.items():
                key = f"stages.{st}.{k}"
                out[key] = out.get(key, 0) + v
    return out


# -- the single-process kernel pass ----------------------------------------

# layer metric name -> (module, attribute) of the public function timed
KERNEL_STEPS = {
    "sniff": ("sniff", "sniff"),
    "decode": ("sniff", "decode_payload"),
    "html_main": ("html_main", "extract_main_text"),
    "html_alternate": ("html_main", "extract_all_text"),
    "pdf_primary": ("pdf_text", "extract_pdf_text"),
    "pdf_salvage": ("pdf_text", "extract_pdf_text_salvage"),
    "fix_unicode": ("cascade", "fix_unicode"),
    "quality": ("quality", "passes_quality"),
    "psv": ("psv", "normalize_text_psv"),
    "markdown": ("markdown", "render_markdown"),
}
PAYLOAD_KINDS = ("html", "pdf", "text", "empty", "binary")


def kernel_ledger(sample, markdown: bool) -> Dict[str, float]:
    """``functions.*``: push ``sample`` (a pages table) through the
    extraction actor class in this process, one row per call, with
    every kernel step wrapped."""
    import importlib

    from zzzarchived_arxiv_fulltext_ray.functions import html_main
    from zzzarchived_arxiv_fulltext_ray.functions import markdown as md_mod
    from zzzarchived_arxiv_fulltext_ray.stages.extract import (
        ExtractorPool,
        sniff_stats_batch,
    )

    tracer = Tracer()
    for step, (mod, attr) in KERNEL_STEPS.items():
        module = importlib.import_module(
            "zzzarchived_arxiv_fulltext_ray.functions." + mod)
        tracer.wrap(module, attr, step)
    # parse_html has two import sites: html_main itself and markdown
    tracer.wrap(html_main, "parse_html", "parse_html")
    tracer.wrap(md_mod, "parse_html", "parse_html")

    pool = ExtractorPool(derive_psv=True, emit_markdown=markdown)
    batch = sniff_stats_batch(sample)
    per_kind: Dict[str, List[float]] = {k: [] for k in PAYLOAD_KINDS}
    alternates = 0
    try:
        t_all = time.perf_counter()
        for i in range(batch.num_rows):
            before = dict(tracer.counts)
            t0 = time.perf_counter()
            out = pool(batch.slice(i, 1))
            took = time.perf_counter() - t0
            kind = out["payload_kind"][0].as_py()
            per_kind.setdefault(kind, []).append(took)
            called = {k: tracer.counts.get(k, 0) - before.get(k, 0)
                      for k in tracer.counts}
            # a PDF whose primary parse raised goes to salvage without
            # failing the gate; only gate failures count as re-extraction
            salvaged_after_gate = (
                called.get("pdf_salvage", 0)
                and not called.get("pdf_primary.raised", 0)
            )
            if called.get("html_alternate", 0) or salvaged_after_gate:
                alternates += 1
        wall = time.perf_counter() - t_all
    finally:
        tracer.unwrap_all()

    n = batch.num_rows
    out = {
        "functions.docs_per_s": n / wall,
        "functions.kernel_ms_per_doc": 1000.0 * wall / n,
        "functions.html_parses_per_doc": (
            tracer.counts.get("parse_html", 0) / max(1, len(per_kind["html"]))),
        "functions.alternate_rate": alternates / n,
    }
    # a kind absent from the sample leaves its metric unset, which the
    # run reports as missing rather than as a measured zero
    for kind, times in per_kind.items():
        if times:
            out[f"functions.{kind}.ms_per_doc"] = (
                1000.0 * sum(times) / len(times))
    for step in KERNEL_STEPS:
        out[f"functions.{step}.ms_per_doc"] = 1000.0 * tracer.total(step) / n
    return out
