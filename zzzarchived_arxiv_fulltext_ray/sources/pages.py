"""Deterministic Common-Crawl-style ``pages`` table synthesizer + reader.

The engine's native input (BASELINE.json input_hint) is a Parquet table
``(url: string, warc_ts: timestamp, html: binary, text: string,
lang: string)``. The sandbox's test data has no such table, so this
module derives one *deterministically* from the driver's ``documents``
table — every scalar is a pure function of ``doc_id`` so a DuckDB
oracle can reconstruct the same rows with SQL (see
``pipelines/queries.py``).

Per-doc payload kind, ``kind_code = doc_id % 20``:

====  =========================================================
0     uncompressed PDF payload (built-in writer)
1     FlateDecode-compressed PDF payload
2     text-only row: ``html`` empty, ``text`` carries the payload
3     Latin-1-encoded HTML (declared via <meta charset>)
4     empty payload AND empty text  -> row fails ("No content")
5     binary junk payload            -> row fails ("Unsupported")
6     HTML wrapping one giant token  -> row fails the quality gate
7     BOM'd UTF-16 HTML (exercises BOM sniff/decode)
8     malformed PDF (text block's ``BT`` marker stripped): the
      primary parser fails, the salvage/alternate pass (E2/E3)
      recovers the text exactly
9-19  UTF-8 HTML with boilerplate (nav/sidebar link farm/footer)
====  =========================================================

Re-crawl duplicates: every ``doc_id % 10 == 0`` url appears 3 times
with strictly increasing ``warc_ts`` (same payload) to exercise the
groupby-url latest-crawl dedup.

The synthesis itself runs distributed as a ``map_batches`` transform
over the documents table so the pages Dataset streams at any scale.
"""

import html as html_escape_mod
from datetime import datetime, timedelta
from typing import Dict, List

import numpy as np
import pyarrow as pa

from .. import SHARD_COLUMN
from ..functions import pdf_text

BASE_TS = datetime(2024, 1, 1, 0, 0, 0)
CRAWL_STEP = timedelta(hours=1)
DUP_EVERY = 10
N_CRAWLS = 3
N_KINDS = 20
# bump when synthesis output changes (busts bench page caches)
SYNTH_VERSION = 3

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.large_binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_NAV_WORDS = (
    "Home News Sports Opinion Culture Science Business Travel "
    "Archive About Contact Subscribe"
).split()
_FARM_WORDS = (
    "trending popular latest editors picks weekly digest related "
    "stories from around the network partner links more coverage"
).split()


def url_for(doc_id: int) -> str:
    return "https://site%02d.example.org/articles/%08d" % (
        doc_id % 50,
        doc_id,
    )


def warc_ts_for(doc_id: int, crawl: int) -> datetime:
    return BASE_TS + timedelta(seconds=doc_id) + crawl * CRAWL_STEP


def crawls_of(doc_id: int) -> int:
    return N_CRAWLS if doc_id % DUP_EVERY == 0 else 1


def kind_code(doc_id: int) -> int:
    return doc_id % N_KINDS


def expected_status(doc_id: int) -> str:
    """The status the pipeline must produce for this row (oracle)."""
    return "failed" if kind_code(doc_id) in (4, 5, 6) else "succeeded"


def _boilerplate_html(doc_id: int, body_text: str, charset: str) -> str:
    site = doc_id % 50
    nav = " | ".join(
        '<a href="/{w}">{w}</a>'.format(w=w)
        for w in _NAV_WORDS[: 6 + doc_id % 6]
    )
    farm = "\n".join(
        '<li><a href="/t/{i}">{a} {b} {i}</a></li>'.format(
            i=(doc_id * 7 + i) % 997,
            a=_FARM_WORDS[(doc_id + i) % len(_FARM_WORDS)],
            b=_FARM_WORDS[(doc_id + 2 * i + 3) % len(_FARM_WORDS)],
        )
        for i in range(18)
    )
    paragraphs = "\n".join(
        "<p>{}</p>".format(html_escape_mod.escape(p, quote=False))
        for p in body_text.split("\n\n")
    )
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="{cs}"><title>Article {id}</title></head>\n'
        "<body>\n"
        '<header class="masthead"><h1>Site {site}</h1>'
        '<nav class="nav-menu">{nav}</nav></header>\n'
        '<div class="sidebar related-widget"><ul>{farm}</ul></div>\n'
        '<article class="article-body">\n{paras}\n</article>\n'
        '<footer class="footer">&copy; 2024 site{site:02d} '
        '<a href="/privacy">Privacy</a> <a href="/terms">Terms</a>'
        "</footer>\n"
        "</body></html>\n"
    ).format(cs=charset, id=doc_id, site=site, nav=nav, farm=farm, paras=paragraphs)


def _garble_token(doc_id: int) -> str:
    # big enough that even the whole-page fallback extraction (which
    # adds ~100 boilerplate words) stays far above the 45-char gate
    return "x" * (20000 + doc_id % 500)


def _binary_junk(doc_id: int) -> bytes:
    rng = np.random.default_rng(doc_id)
    return b"\x00" + rng.integers(0, 256, size=256, dtype=np.uint8).tobytes()


def lognormal_expand_factor(doc_id: int, median: int = 20,
                            sigma: float = 1.2, cap: int = 2000) -> int:
    """Deterministic heavy-tailed per-doc expansion factor (log-normal
    with the given median; p99 ~ median x 16) — the FIXTURES.md skew
    realism knob for benchmarks."""
    rng = np.random.default_rng(doc_id ^ 0x5EED)
    return min(cap, max(1, int(round(rng.lognormal(np.log(median), sigma)))))


def synthesize_rows(
    doc_ids, texts, langs, expand=1
) -> Dict[str, List]:
    """One documents batch -> pages rows (columnar dict).

    ``expand``: int (uniform) or callable ``doc_id -> int`` (per-doc,
    e.g. :func:`lognormal_expand_factor`)."""
    urls: List[str] = []
    stamps: List[datetime] = []
    payloads: List[bytes] = []
    out_text: List[str] = []
    out_lang: List[str] = []

    for doc_id, text, lang in zip(doc_ids, texts, langs):
        doc_id = int(doc_id)
        factor = expand(doc_id) if callable(expand) else expand
        if factor > 1:
            text = " ".join([text] * factor)
        code = kind_code(doc_id)

        if code in (0, 1):
            payload = pdf_text.write_minimal_pdf(text, compress=(code == 1))
            row_text = text
        elif code == 2:
            payload = b""
            row_text = text
        elif code == 3:
            markup = _boilerplate_html(doc_id, text, "iso-8859-1")
            payload = markup.encode("latin-1", "replace")
            row_text = text
        elif code == 4:
            payload = b""
            row_text = ""
        elif code == 5:
            payload = _binary_junk(doc_id)
            row_text = ""
        elif code == 6:
            markup = _boilerplate_html(doc_id, _garble_token(doc_id), "utf-8")
            payload = markup.encode("utf-8")
            row_text = ""
        elif code == 7:
            # UTF-16 with BOM (sniffed via BOM, decoded BOM-stripping)
            markup = _boilerplate_html(doc_id, text, "utf-16")
            payload = markup.encode("utf-16")
            row_text = text
        elif code == 8:
            # malformed PDF: strip the BT marker so the primary parser
            # sees no text block and raises; the salvage pass reads the
            # same stream without the BT requirement and round-trips
            # the text exactly (stale /Length and xref offsets are
            # irrelevant to both parsers — stream framing is regex'd)
            payload = pdf_text.write_minimal_pdf(text).replace(
                b"BT ", b"", 1
            )
            row_text = text
        else:
            markup = _boilerplate_html(doc_id, text, "utf-8")
            payload = markup.encode("utf-8")
            row_text = text

        for crawl in range(crawls_of(doc_id)):
            urls.append(url_for(doc_id))
            stamps.append(warc_ts_for(doc_id, crawl))
            payloads.append(payload)
            out_text.append(row_text)
            out_lang.append(lang)

    return {
        "url": urls,
        "warc_ts": stamps,
        "html": payloads,
        "text": out_text,
        "lang": out_lang,
    }


def pages_batch_from_documents(batch: pa.Table, expand=1) -> pa.Table:
    """``map_batches`` transform: documents batch -> pages batch. A
    ``shard_id`` column (a wave of shards) is repeated per crawl row."""
    doc_ids = batch["doc_id"].to_pylist()
    cols = synthesize_rows(
        doc_ids,
        batch["text"].to_pylist(),
        batch["lang"].to_pylist(),
        expand=expand,
    )
    pages = pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)
    if SHARD_COLUMN not in batch.column_names:
        return pages
    rows = np.repeat(np.arange(batch.num_rows), [crawls_of(d) for d in doc_ids])
    return pages.append_column(SHARD_COLUMN, batch[SHARD_COLUMN].take(rows))


def read_documents(sf_dir: str, columns):
    """The ``columns`` of a scale-factor directory's documents table,
    as a streaming Dataset."""
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=columns
    )


def read_pages(sf_dir: str, expand=1):
    """The pages Dataset for a testdata scale-factor directory.

    Streams: ``read_parquet(documents)`` -> synth ``map_batches`` (no
    driver-side materialization), so it behaves like reading a real
    pages table of any size.
    """
    docs = read_documents(sf_dir, ["doc_id", "text", "lang"])
    return docs.map_batches(
        lambda b: pages_batch_from_documents(b, expand=expand),
        batch_format="pyarrow",
    )


def read_pages_from_files(root_dir: str, warc_ts=None):
    """Alternate source (SURVEY.md S1 raw-blob path): a directory of
    individual page files -> the canonical pages schema via
    ``read_binary_files(include_paths=True)``.

    The file path becomes the url (``file://`` scheme), ``warc_ts``
    defaults to a constant (no crawl metadata exists on bare files) and
    the ``text`` fallback column is empty — extraction relies entirely
    on payload sniffing. Mirrors the reference's directory-glob batch
    driver (``extractor/fulltext/fulltext.py:214-256``), minus the
    numeric filename sort: ordering is not a contract in the engine.
    """
    import ray.data

    stamp = warc_ts or BASE_TS

    def to_pages(batch: pa.Table) -> pa.Table:
        paths = batch["path"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        return pa.Table.from_pydict(
            {
                "url": ["file://" + p for p in paths],
                "warc_ts": [stamp] * len(paths),
                "html": blobs,
                "text": [""] * len(paths),
                "lang": [""] * len(paths),
            },
            schema=PAGES_SCHEMA,
        )

    files = ray.data.read_binary_files(root_dir, include_paths=True)
    return files.map_batches(to_pages, batch_format="pyarrow")


def read_pages_from_warc(paths):
    """Native Common-Crawl input: WARC files -> the pages schema.

    ``read_binary_files`` over .warc/.warc.gz paths; each file's
    ``response`` records become rows (url = WARC-Target-URI,
    warc_ts = WARC-Date, html = HTTP body). Non-response records are
    skipped; records without a parseable date get BASE_TS.

    NOTE: whole-file rows — fine for modest WARCs; for real ~1 GB
    crawl segments use ``sources.warc_source
    .read_pages_from_warc_stream`` (chunked, bounded memory).
    """
    import ray.data

    from ..functions import warc as warc_mod

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, stamps, payloads, texts, langs = [], [], [], [], []
        for blob in batch["bytes"].to_pylist():
            for headers, payload in warc_mod.iter_warc_records(blob):
                fields = warc_mod.record_to_page_fields(headers, payload)
                if fields is None:
                    continue
                url, ts, html, text, lang = fields
                urls.append(url)
                stamps.append(ts or BASE_TS)
                payloads.append(html)
                texts.append(text)
                langs.append(lang)
        return pa.Table.from_pydict(
            {
                "url": urls,
                "warc_ts": stamps,
                "html": payloads,
                "text": texts,
                "lang": langs,
            },
            schema=PAGES_SCHEMA,
        )

    files = ray.data.read_binary_files(paths)
    return files.map_batches(to_pages, batch_format="pyarrow")


def read_pages_from_jsonl(paths):
    """JSONL source (SURVEY.md S1 family, third input format after
    parquet and WARC): newline-delimited JSON records -> the canonical
    pages schema. Expected fields per record: ``url`` (required),
    ``warc_ts`` (ISO-8601 string or epoch microseconds; defaults to
    the corpus base stamp), ``html`` (base64-encoded payload) or
    ``text``, ``lang``. Unknown fields are ignored; records missing
    ``url`` raise — same upfront-validation contract as run_job's
    pages-schema check (bad input should fail loudly at the read, not
    mid-extraction with a raw batch dump).

    Uses ``ray.data.read_json`` (streaming, one block per file chunk);
    the normalization is one vectorized map_batches."""
    import base64
    import ray.data

    def to_pages(batch: pa.Table) -> pa.Table:
        names = set(batch.column_names)
        if "url" not in names:
            raise ValueError(
                "read_pages_from_jsonl: records lack the required "
                f"'url' field (got columns {sorted(names)})"
            )
        n = batch.num_rows
        urls = batch["url"].to_pylist()
        if any(u is None or u == "" for u in urls):
            raise ValueError(
                "read_pages_from_jsonl: null/empty url in input"
            )
        if "warc_ts" in names:
            raw = batch["warc_ts"].to_pylist()
            stamps = []
            for v in raw:
                if v is None:
                    stamps.append(BASE_TS)
                elif isinstance(v, (int, float)):
                    stamps.append(
                        np.datetime64(int(v), "us").astype("datetime64[us]")
                    )
                else:
                    stamps.append(np.datetime64(str(v), "us"))
            ts = pa.array(
                np.array(stamps, dtype="datetime64[us]"),
                pa.timestamp("us"),
            )
        else:
            ts = pa.array([BASE_TS] * n, pa.timestamp("us"))
        if "html" in names:
            blobs = [
                base64.b64decode(v) if v else b""
                for v in batch["html"].to_pylist()
            ]
        else:
            blobs = [b""] * n
        texts = (
            batch["text"].to_pylist() if "text" in names else [""] * n
        )
        langs = (
            batch["lang"].to_pylist() if "lang" in names else [""] * n
        )
        return pa.Table.from_pydict(
            {
                "url": urls,
                "warc_ts": ts,
                "html": blobs,
                "text": [t or "" for t in texts],
                "lang": [x or "" for x in langs],
            },
            schema=PAGES_SCHEMA,
        )

    return ray.data.read_json(paths).map_batches(
        to_pages, batch_format="pyarrow"
    )
