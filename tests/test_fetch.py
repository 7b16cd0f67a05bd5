"""HTTP fetch source: retry/backoff semantics (reference
``fulltext/services/legacy/legacy.py:64-112``), the same semantics over
live HTTP from a loopback server, and end-to-end fetch -> pages ->
extraction byte-identity against the table source."""

import http.server
import socket
import threading
from functools import partial

import pyarrow as pa

import pytest

from zzzarchived_arxiv_fulltext_ray.sources.fetch import (
    FAILED,
    FETCHED,
    MISSING,
    DictTransport,
    FetchPool,
    UrllibTransport,
    fetch_pages,
    to_pages_schema,
)


def _batch(urls):
    return pa.table({"url": pa.array(urls, pa.string())})


class TestFetchSemantics:
    """Direct FetchPool calls (no Ray) pin the reference's retrieve
    loop semantics."""

    def test_status_taxonomy(self):
        corpus = {"https://x/ok": ("text/html", b"<html>hi</html>")}
        pool = FetchPool(
            transport_factory=partial(
                DictTransport, corpus, error_urls={"https://x/boom": 500}
            ),
            max_retries=0,
            retry_sleep=0.0,
        )
        out = pool(_batch(["https://x/ok", "https://x/boom", "https://x/gone"]))
        assert out["fetch_status"].to_pylist() == [FETCHED, FAILED, MISSING]
        assert out["html"].to_pylist() == [b"<html>hi</html>", b"", b""]
        assert out["fetch_content_type"].to_pylist()[0] == "text/html"
        assert "No such resource" in out["fetch_error"].to_pylist()[2]

    def test_wrong_content_type_retries_then_succeeds(self):
        # reference legacy.py:97-110 — 200 + wrong content-type means
        # "not generated yet": sleep and re-GET up to max_retries
        url = "https://x/doc.pdf"
        transport = DictTransport(
            {url: ("application/pdf", b"%PDF-1.4 payload")},
            not_ready={url: 2},
        )
        sleeps = []
        pool = FetchPool(
            transport_factory=lambda: transport,
            max_retries=5,
            retry_sleep=5.0,
            expected_content_type="application/pdf",
            sleep=sleeps.append,
        )
        out = pool(_batch([url]))
        assert out["fetch_status"].to_pylist() == [FETCHED]
        assert transport.calls[url] == 3  # 2 not-ready + 1 real
        assert sleeps == [5.0, 5.0]  # the reference's 5 s backoff

    def test_wrong_content_type_gives_up(self):
        url = "https://x/doc.pdf"
        pool = FetchPool(
            transport_factory=partial(
                DictTransport,
                {url: ("application/pdf", b"%PDF")},
                not_ready={url: 99},
            ),
            max_retries=2,
            retry_sleep=0.0,
            expected_content_type="application/pdf",
            sleep=lambda s: None,
        )
        out = pool(_batch([url]))
        assert out["fetch_status"].to_pylist() == [FAILED]
        assert "giving up" in out["fetch_error"].to_pylist()[0]

    def test_transient_transport_error_retried(self):
        url = "https://x/flaky"
        transport = DictTransport(
            {url: ("text/html", b"<p>ok</p>")}, flaky={url: 2}
        )
        pool = FetchPool(
            transport_factory=lambda: transport,
            max_retries=3,
            retry_sleep=0.0,
            sleep=lambda s: None,
        )
        out = pool(_batch([url]))
        assert out["fetch_status"].to_pylist() == [FETCHED]
        assert transport.calls[url] == 3

    def test_transient_exhausted_is_failed_row(self):
        url = "https://x/flaky"
        pool = FetchPool(
            transport_factory=partial(
                DictTransport, {url: ("text/html", b"ok")}, flaky={url: 9}
            ),
            max_retries=1,
            retry_sleep=0.0,
            sleep=lambda s: None,
        )
        out = pool(_batch([url]))
        assert out["fetch_status"].to_pylist() == [FAILED]
        assert "transport error" in out["fetch_error"].to_pylist()[0]

    def test_non_404_error_is_permanent_no_retry(self):
        # reference raises IOError outright on unexpected status
        url = "https://x/teapot"
        transport = DictTransport({}, error_urls={url: 503})
        pool = FetchPool(
            transport_factory=lambda: transport,
            max_retries=5,
            retry_sleep=0.0,
            sleep=lambda s: None,
        )
        out = pool(_batch([url]))
        assert out["fetch_status"].to_pylist() == [FAILED]
        assert transport.calls[url] == 1  # no retries burned

    def test_rate_limit_spaces_requests(self):
        # token-bucket: 2 req/s -> 0.5 s between requests, enforced via
        # the injected clock/sleep (no wall-clock in the test)
        now = [0.0]

        def clock():
            return now[0]

        def sleep(s):
            now[0] += s

        corpus = {f"https://x/{i}": ("text/html", b"ok") for i in range(4)}
        pool = FetchPool(
            transport_factory=partial(DictTransport, corpus),
            max_retries=0,
            rate_limit=2.0,
            clock=clock,
            sleep=sleep,
        )
        out = pool(_batch(sorted(corpus)))
        assert out["fetch_status"].to_pylist() == [FETCHED] * 4
        # 4 requests at 2 req/s: last request cannot start before 1.5 s
        assert now[0] >= 1.5


class _Handler(http.server.BaseHTTPRequestHandler):
    """``/gone`` 404, ``/boom`` 500, ``/doc.pdf`` 200 text/html for the
    first ``not_ready`` GETs and then 200 application/pdf."""

    not_ready = 0
    hits: dict = {}

    def do_GET(self):
        n = self.hits[self.path] = self.hits.get(self.path, 0) + 1
        if self.path == "/doc.pdf":
            if n <= self.not_ready:
                self._reply(200, "text/html", b"<html>not yet</html>")
            else:
                self._reply(200, "application/pdf", b"%PDF-1.4 payload")
        elif self.path == "/boom":
            self._reply(500, "text/plain", b"server error")
        else:
            self._reply(404, "text/plain", b"not found")

    def _reply(self, code: int, ctype: str, body: bytes):
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    """A live HTTP server on 127.0.0.1 (port 0); yields its base url
    and the per-path GET counts."""
    handler = type("Handler", (_Handler,), {"not_ready": 2, "hits": {}})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", handler.hits
    server.shutdown()
    server.server_close()


@pytest.fixture
def no_proxy(monkeypatch):
    """Loopback requests go straight to the socket, whatever the
    environment's proxy settings."""
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)


def _live_pool(sleeps, **kwargs):
    return FetchPool(
        transport_factory=partial(UrllibTransport, timeout=5.0),
        retry_sleep=5.0,
        sleep=sleeps.append,
        **kwargs,
    )


@pytest.mark.usefixtures("no_proxy")
class TestUrllibTransport:
    """``UrllibTransport`` against a loopback server: the status
    taxonomy and both retry loops over real sockets, with the sleeps
    recorded instead of slept."""

    def test_404_is_missing_and_500_is_failed(self, loopback):
        base, hits = loopback
        sleeps = []
        out = _live_pool(sleeps, max_retries=5)(
            _batch([f"{base}/gone", f"{base}/boom"])
        )
        assert out["fetch_status"].to_pylist() == [MISSING, FAILED]
        assert "500" in out["fetch_error"].to_pylist()[1]
        assert hits == {"/gone": 1, "/boom": 1}  # no retries burned
        assert sleeps == []

    def test_wrong_content_type_retried_then_fetched(self, loopback):
        base, hits = loopback
        sleeps = []
        out = _live_pool(
            sleeps, max_retries=5, expected_content_type="application/pdf"
        )(_batch([f"{base}/doc.pdf"]))
        assert out["fetch_status"].to_pylist() == [FETCHED]
        assert out["html"].to_pylist() == [b"%PDF-1.4 payload"]
        assert out["fetch_content_type"].to_pylist() == ["application/pdf"]
        assert hits == {"/doc.pdf": 3}
        assert sleeps == [5.0, 5.0]

    def test_refused_connection_retried_then_failed(self):
        with socket.socket() as s:  # a port nothing listens on
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        sleeps = []
        out = _live_pool(sleeps, max_retries=2)(
            _batch([f"http://127.0.0.1:{port}/doc.pdf"])
        )
        assert out["fetch_status"].to_pylist() == [FAILED]
        assert "transport error" in out["fetch_error"].to_pylist()[0]
        assert sleeps == [5.0, 5.0]


def test_fetch_to_extraction_byte_identity(ray_session):
    """urls -> fetch_pages (DictTransport corpus) -> to_pages_schema ->
    extraction == extraction over the equivalent pages table, across
    all 20 synthesized payload kinds (html/pdf/text/binary/empty),
    with missing urls degrading to the cascade's own 'No content'
    failure (errors stay data)."""
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import (
        PAGES_SCHEMA,
        synthesize_rows,
    )

    n = 40  # 2 full kind cycles
    cols = synthesize_rows(
        list(range(n)),
        [
            f"Fetched document {i} body text, long enough to pass the "
            "quality gate, with punctuation and distinct words." for i in range(n)
        ],
        ["en" if i % 3 else "fr" for i in range(n)],
    )
    pages = pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)
    # keep latest crawl per url so a url-keyed corpus is well-defined
    latest = (
        pages.to_pandas()
        .sort_values(["url", "warc_ts"])
        .groupby("url", as_index=False)
        .tail(1)
        .reset_index(drop=True)
    )

    corpus = {}
    for row in latest.itertuples():
        if len(row.html) > 0:
            corpus[row.url] = ("application/octet-stream", bytes(row.html))
        elif row.text:
            corpus[row.url] = (
                "text/plain; charset=utf-8", row.text.encode("utf-8")
            )
        # rows with neither stay OUT of the corpus -> 404 -> missing

    urls = rd.from_arrow(
        pa.Table.from_pandas(
            latest[["url", "warc_ts", "lang"]], preserve_index=False
        )
    ).repartition(3)
    fetched = fetch_pages(
        urls,
        transport_factory=partial(DictTransport, corpus),
        retry_sleep=0.0,
        concurrency=(1, 2),
        batch_size=8,
    ).materialize()

    statuses = [r["fetch_status"] for r in fetched.take_all()]
    assert statuses.count(MISSING) == len(latest) - len(corpus) > 0
    assert statuses.count(FETCHED) == len(corpus)

    def extract(src_ds):
        return (
            extraction_pipeline(
                src_ds, dedup=None, concurrency=(1, 2), batch_size=16
            )
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )

    from_fetch = extract(to_pages_schema(fetched))
    from_table = extract(
        rd.from_arrow(
            pa.Table.from_pandas(latest, preserve_index=False).cast(
                PAGES_SCHEMA
            )
        )
    )
    assert from_fetch.equals(from_table), (
        "extraction over the fetch source must be byte-identical"
    )
