"""Extraction stages (Ray Data transforms over Arrow batches).

``sniff_stats_batch`` (stateless tasks) derives payload metadata;
``ExtractorPool`` (actor pool) runs the quality-gated cascade per row
and, when asked, derives the PSV format and the markdown rendering in
the same pass. The html payload column is dropped by the extractor —
project heavy binary away as early as possible so downstream shuffles
move text, not markup (SURVEY.md §4.2).

The per-row work in the extractor is a whole-document parse + regex
chain — inherently scalar (rows ARE documents, cf. SURVEY.md §7.3), so
the "vectorized" contract here is batch-in/batch-out Arrow with heavy
per-row kernels, like any parser/model-inference stage.
"""

import logging
import signal
import threading

import pyarrow as pa
import pyarrow.compute as pc

from .. import EXTRACTOR_VERSION, SHARD_COLUMN
from ..functions import psv as psv_kernel

logger = logging.getLogger(__name__)

# Per-document wall-clock cap, mirroring the reference's 600 s
# subprocess timeout (extractor/fulltext/fulltext.py:12,74). A stuck
# parse becomes a status='failed' ROW; the actor survives.
DEFAULT_ROW_TIMEOUT_SEC = 600.0


class RowTimeout(Exception):
    """One document exceeded its extraction wall-clock budget."""


def _alarm_handler(signum, frame):
    raise RowTimeout()


class RowWatchdog:
    """Per-actor watchdog thread: raises :class:`RowTimeout` *inside
    the executing thread* when the guarded row overruns its deadline.

    Ray Data executes actor ``__call__`` OFF the main thread (verified
    empirically), so SIGALRM handlers never interrupt the work — the
    watchdog instead uses ``PyThreadState_SetAsyncExc``, which queues
    the exception at the target thread's next bytecode boundary. That
    interrupts pure-Python work (catastrophic alternation written in
    Python, busy loops); a single C-level call that never returns is
    not interruptible this way — that residual risk is what the size
    cap (MAX_PAYLOAD_BYTES) bounds.

    One daemon thread per actor, ~1 poll/sec; per-row overhead is a
    lock + two assignments. Precision is +-poll_sec — irrelevant at
    the 600 s default. A row finishing exactly at its deadline can
    race the raise (window ~1 poll); callers therefore catch
    :class:`RowTimeout` around the whole row, making the stray raise
    land as that row's failure rather than escaping the batch.
    """

    def __init__(self, poll_sec: float = 1.0):
        self._poll = poll_sec
        self._lock = threading.Lock()
        # tid -> monotonic deadline; keyed per thread so a process
        # that ever runs rows concurrently (actor max_concurrency>1,
        # or user code calling run() from two threads) arms one guard
        # per thread instead of silently disarming the other's —
        # still one poller thread for the whole process
        self._deadlines = {}
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        import ctypes
        import time as _time

        while True:
            _time.sleep(self._poll)
            with self._lock:
                now = _time.monotonic()
                expired = [
                    tid for tid, dl in self._deadlines.items() if now > dl
                ]
                for tid in expired:
                    ctypes.pythonapi.PyThreadState_SetAsyncExc(
                        ctypes.c_ulong(tid), ctypes.py_object(RowTimeout)
                    )
                    del self._deadlines[tid]

    def run(self, fn, seconds, *args):
        import time as _time

        tid = threading.get_ident()
        with self._lock:
            self._deadlines[tid] = _time.monotonic() + seconds
        try:
            return fn(*args)
        finally:
            with self._lock:
                self._deadlines.pop(tid, None)


_WATCHDOG_LOCK = threading.Lock()
_PROCESS_WATCHDOG = None


def get_process_watchdog() -> "RowWatchdog":
    """One watchdog thread per worker process; guard state is keyed
    per thread id, so concurrent rows (actor max_concurrency>1) each
    keep their own deadline."""
    global _PROCESS_WATCHDOG
    with _WATCHDOG_LOCK:
        if _PROCESS_WATCHDOG is None:
            _PROCESS_WATCHDOG = RowWatchdog()
        return _PROCESS_WATCHDOG


def run_with_row_timeout(fn, seconds, *args, watchdog: "RowWatchdog" = None):
    """Run ``fn(*args)`` under a wall-clock cap.

    On the main thread a SIGALRM timer is used (precise, no helper
    thread — the unit-test / driver-script path); elsewhere the
    supplied :class:`RowWatchdog` interrupts via async exception (the
    Ray actor path). With neither applicable, runs uncapped."""
    if not seconds:
        return fn(*args)
    if threading.current_thread() is threading.main_thread():
        old = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    if watchdog is not None:
        return watchdog.run(fn, seconds, *args)
    return fn(*args)

OUTPUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("payload_kind", pa.string()),
        ("n_bytes", pa.int64()),
        ("size_bucket", pa.int32()),
        ("text", pa.string()),
        ("status", pa.string()),
        ("error", pa.string()),
        ("extractor_version", pa.string()),
    ]
)


def sniff_stats_batch(batch: pa.Table) -> pa.Table:
    """Add payload size + log2 size bucket (skew key, SURVEY.md A3)."""
    import numpy as np

    n_bytes = pc.binary_length(batch["html"]).cast(pa.int64())
    sizes = n_bytes.to_numpy(zero_copy_only=False)
    buckets = np.zeros(len(sizes), dtype=np.int32)
    pos = sizes > 0
    buckets[pos] = np.floor(np.log2(sizes[pos])).astype(np.int32)
    batch = batch.append_column("n_bytes", n_bytes)
    return batch.append_column("size_bucket", pa.array(buckets, pa.int32()))


def _render_markdown(payload: bytes):
    """Markdown-preserving variant of an HTML payload
    (functions/markdown.py); None for every other payload kind."""
    from ..functions import sniff as sniff_mod
    from ..functions.markdown import render_markdown

    kind, charset = sniff_mod.sniff(payload)
    if kind != sniff_mod.KIND_HTML:
        return None
    return render_markdown(sniff_mod.decode_payload(payload, charset))


class ExtractorPool:
    """Stateful extraction stage: one instance per actor, reused across
    batches (the warm-parser replacement for the reference's
    docker-container-per-document, SURVEY.md ST1).

    Use with ``ds.map_batches(ExtractorPool, batch_format="pyarrow",
    concurrency=N, batch_size=B)``. Rows of a wave of shards keep their
    ``shard_id`` column, appended after ``OUTPUT_SCHEMA``'s.
    """

    def __init__(
        self,
        extractor_version: str = EXTRACTOR_VERSION,
        derive_psv: bool = False,
        row_timeout_sec: float = DEFAULT_ROW_TIMEOUT_SEC,
        emit_markdown: bool = False,
    ):
        # Per-actor setup happens once: the kernel modules' compiled
        # regex tables and (when present) pdfminer resources are loaded
        # on first import in this worker process.
        self.extractor_version = extractor_version
        self.derive_psv = derive_psv
        self.emit_markdown = emit_markdown
        self.row_timeout_sec = row_timeout_sec
        # per-process watchdog thread (Ray runs __call__ off the main
        # thread, where SIGALRM can't interrupt the work)
        self._watchdog = get_process_watchdog() if row_timeout_sec else None
        from ..functions import cascade, html_main, pdf_text  # warm imports

        self._extract = cascade.extract_payload

    def _extract_row(self, payload, fallback, url):
        from ..functions.cascade import ExtractResult

        try:
            return run_with_row_timeout(
                self._extract, self.row_timeout_sec,
                payload or b"", fallback or None, url,
                watchdog=self._watchdog,
            )
        except RowTimeout:
            return ExtractResult(
                None,
                "failed",
                f"extraction timed out after {self.row_timeout_sec}s "
                f'for "{url}"',
                "timeout",
            )

    def _render_row(self, payload, url):
        """Markdown of an HTML payload under the cascade's per-row
        timeout; a render that raises or times out gives None and
        leaves the row's text and status as they are."""
        try:
            return run_with_row_timeout(
                _render_markdown, self.row_timeout_sec, payload or b"",
                watchdog=self._watchdog,
            )
        except Exception as exc:  # RowTimeout; RecursionError on nesting
            logger.warning(
                "markdown render failed for %r: %s", url, type(exc).__name__
            )
            return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        payloads = batch["html"].to_pylist()
        texts = batch["text"].to_pylist()

        out_text, out_status, out_error, out_kind = [], [], [], []
        out_psv = [] if self.derive_psv else None
        out_md = [] if self.emit_markdown else None
        for url, payload, fallback in zip(urls, payloads, texts):
            res = self._extract_row(payload, fallback, url)
            if out_md is not None:
                out_md.append(self._render_row(payload, url))
            out_text.append(res.text)
            out_status.append(res.status)
            out_error.append(res.error)
            out_kind.append(res.payload_kind)
            if out_psv is not None:
                # fused PSV derivation: the pool is the CPU-heavy stage,
                # a separate task stage would contend with it for cores
                out_psv.append(
                    psv_kernel.normalize_text_psv(res.text)
                    if res.text is not None
                    else None
                )

        n = len(urls)
        arrays = [
            batch["url"].combine_chunks(),
            batch["warc_ts"].combine_chunks(),
            batch["lang"].combine_chunks(),
            pa.array(out_kind, type=pa.string()),
            batch["n_bytes"].combine_chunks(),
            batch["size_bucket"].combine_chunks(),
            pa.array(out_text, type=pa.string()),
            pa.array(out_status, type=pa.string()),
            pa.array(out_error, type=pa.string()),
            pa.array([self.extractor_version] * n, type=pa.string()),
        ]
        schema = OUTPUT_SCHEMA
        if out_psv is not None:
            arrays.append(pa.array(out_psv, type=pa.string()))
            schema = schema.append(pa.field("psv", pa.string()))
        if out_md is not None:
            arrays.append(pa.array(out_md, type=pa.string()))
            schema = schema.append(pa.field("markdown", pa.string()))
        if SHARD_COLUMN in batch.column_names:
            arrays.append(batch[SHARD_COLUMN].combine_chunks())
            schema = schema.append(batch.schema.field(SHARD_COLUMN))
        return pa.Table.from_arrays(arrays, schema=schema)
