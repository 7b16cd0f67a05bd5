"""Per-row extraction watchdog (the reference's 600 s per-document cap,
extractor/fulltext/fulltext.py:12,74 — here a SIGALRM soft cap that
turns a stuck document into a failed ROW without killing the actor)."""

import time

import pyarrow as pa

from zzzarchived_arxiv_fulltext_ray.functions.cascade import ExtractResult
from zzzarchived_arxiv_fulltext_ray.stages.extract import (
    ExtractorPool,
    RowTimeout,
    run_with_row_timeout,
)


def _busy(seconds):
    # pure-Python busy loop: SIGALRM interrupts it between bytecodes,
    # standing in for a catastrophic-backtracking parse
    deadline = time.monotonic() + seconds
    x = 0
    while time.monotonic() < deadline:
        x += 1
    return x


def test_run_with_row_timeout_interrupts_busy_loop():
    t0 = time.monotonic()
    try:
        run_with_row_timeout(_busy, 0.2, 5.0)
        raised = False
    except RowTimeout:
        raised = True
    assert raised
    assert time.monotonic() - t0 < 2.0


def test_run_with_row_timeout_passthrough():
    assert run_with_row_timeout(lambda a, b: a + b, 1.0, 2, 3) == 5
    # timer must be cleared: sleeping past the old deadline is safe
    time.sleep(0.01)


def test_pathological_row_fails_alone_batch_completes():
    pool = ExtractorPool(row_timeout_sec=0.2, derive_psv=True)
    real_extract = pool._extract

    def extract(payload, fallback, url):
        if b"pathological" in payload:
            _busy(10.0)
        return real_extract(payload, fallback, url)

    pool._extract = extract

    good = (
        b"<html><body><p>perfectly ordinary page content with many "
        b"plain words in it</p></body></html>"
    )
    batch = pa.Table.from_pydict(
        {
            "url": ["u1", "u2-stuck", "u3"],
            "warc_ts": pa.array([0, 0, 0], pa.timestamp("us")),
            "lang": ["en", "en", "en"],
            "html": pa.array(
                [good, b"<html>pathological</html>", good],
                pa.large_binary(),
            ),
            "text": ["", "", ""],
            "n_bytes": pa.array([len(good), 25, len(good)], pa.int64()),
            "size_bucket": pa.array([6, 4, 6], pa.int32()),
        }
    )

    t0 = time.monotonic()
    out = pool(batch)
    assert time.monotonic() - t0 < 5.0  # did not wait out the stall
    status = out["status"].to_pylist()
    assert status == ["succeeded", "failed", "succeeded"]
    err = out["error"].to_pylist()[1]
    assert "timed out" in err and "u2-stuck" in err
    assert out["payload_kind"].to_pylist()[1] == "timeout"
    psv = out["psv"].to_pylist()
    assert psv[1] is None and psv[0] and psv[2]


def test_timeout_result_is_failure_record_shape():
    r = ExtractResult(None, "failed", "x", "timeout")
    assert r.text is None and r.status == "failed"


def test_watchdog_interrupts_worker_thread():
    """Ray runs actor __call__ OFF the main thread (no SIGALRM there);
    the RowWatchdog must interrupt a busy loop from a plain thread."""
    import threading

    from zzzarchived_arxiv_fulltext_ray.stages.extract import (
        get_process_watchdog,
    )

    wd = get_process_watchdog()
    result = {}

    def worker():
        t0 = time.monotonic()
        try:
            wd.run(_busy, 0.3, 10.0)
            result["fired"] = False
        except RowTimeout:
            result["fired"] = True
        result["wall"] = time.monotonic() - t0

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=8.0)
    assert result.get("fired") is True
    assert result["wall"] < 5.0


def test_watchdog_inside_ray_actor_pool(ray_session):
    """End-to-end: a stuck document inside a REAL Ray Data actor pool
    becomes a failed row while its batch completes quickly."""
    import pyarrow as pa
    import ray.data as rd

    class StallingPool(ExtractorPool):
        # NOTE: everything referenced here must be local or installed-
        # module scope — the class ships to the actor via cloudpickle
        # and the pytest test module is not importable there
        def __init__(self):
            super().__init__(row_timeout_sec=1.0)
            real = self._extract

            def extract(payload, fallback, url):
                if b"pathological" in payload:
                    import time as _t

                    end = _t.monotonic() + 30.0
                    x = 0
                    while _t.monotonic() < end:
                        x += 1
                return real(payload, fallback, url)

            self._extract = extract

    good = (
        b"<html><body><p>perfectly ordinary page content with many "
        b"plain words in it</p></body></html>"
    )
    t = pa.Table.from_pydict(
        {
            "url": ["u1", "u2-stuck", "u3", "u4"],
            "warc_ts": pa.array([0] * 4, pa.timestamp("us")),
            "lang": ["en"] * 4,
            "html": pa.array(
                [good, b"<html>pathological</html>", good, good],
                pa.large_binary(),
            ),
            "text": [""] * 4,
            "n_bytes": pa.array([len(good), 25, len(good), len(good)],
                                pa.int64()),
            "size_bucket": pa.array([6, 4, 6, 6], pa.int32()),
        }
    )
    t0 = time.monotonic()
    out = (
        rd.from_arrow(t)
        .map_batches(
            StallingPool, batch_format="pyarrow", batch_size=4,
            concurrency=1,
        )
        .to_pandas()
        .sort_values("url")
    )
    assert time.monotonic() - t0 < 20.0
    assert out.status.tolist() == [
        "succeeded", "failed", "succeeded", "succeeded"
    ]
    assert "timed out" in out.error.tolist()[1]


def test_watchdog_concurrent_threads_keyed_guards():
    """Guard state is keyed per thread id: a second thread arming the
    watchdog must not disarm the first's deadline (the
    max_concurrency>1 case). The overrunner times out; the slow-but-
    within-budget thread completes untouched."""
    import threading
    import time

    from zzzarchived_arxiv_fulltext_ray.stages.extract import (
        RowTimeout,
        get_process_watchdog,
    )

    wd = get_process_watchdog()
    results = {}

    def spin(sec):
        end = time.monotonic() + sec
        while time.monotonic() < end:
            pass  # pure-Python busy loop: async-exc interruptible
        return "done"

    def runner(name, budget, work):
        try:
            results[name] = wd.run(spin, budget, work)
        except RowTimeout:
            results[name] = "timeout"

    t1 = threading.Thread(target=runner, args=("overrun", 1.0, 30.0))
    t2 = threading.Thread(target=runner, args=("ok", 30.0, 3.0))
    t1.start()
    time.sleep(0.3)  # t2 arms AFTER t1 — the old single-slot bug path
    t2.start()
    t1.join(timeout=25)
    t2.join(timeout=25)
    assert results == {"overrun": "timeout", "ok": "done"}


def test_markdown_render_failure_leaves_row_text():
    """A page of 3,000 nested <div>s extracts as text, but the markdown
    renderer's recursive tree walk raises RecursionError on it. The
    render runs under the row guard: that row gets markdown = null,
    keeps its text and status, and the rest of the batch renders."""
    words = b"ordinary page content with many plain words in it " * 4
    deep = b"<html><body>" + b"<div>" * 3000 + words + b"</div>" * 3000
    good = b"<html><body><h1>Title</h1><p>" + words + b"</p></body></html>"
    pages = [good, deep + b"</body></html>", good]
    batch = pa.Table.from_pydict(
        {
            "url": ["u1", "u2-deep", "u3"],
            "warc_ts": pa.array([0, 0, 0], pa.timestamp("us")),
            "lang": ["en", "en", "en"],
            "html": pa.array(pages, pa.large_binary()),
            "text": ["", "", ""],
            "n_bytes": pa.array([len(p) for p in pages], pa.int64()),
            "size_bucket": pa.array([6, 6, 6], pa.int32()),
        }
    )
    plain = ExtractorPool()(batch)
    out = ExtractorPool(emit_markdown=True)(batch)

    assert out["status"].to_pylist() == ["succeeded"] * 3
    assert out["text"].to_pylist() == plain["text"].to_pylist()
    assert "plain words" in out["text"].to_pylist()[1]
    md = out["markdown"].to_pylist()
    assert md[1] is None
    assert md[0] == md[2] and md[0].startswith("# Title")
