"""Seeded benchmark inputs, materialized once per (workload, seed).

Everything is built in this process with NumPy/PyArrow, without Ray:
the program under test only ever sees the Parquet files written here.

* ``documents`` is a synthetic corpus in the shape of the repository's
  test tables (lowercase ASCII words, 48..553 chars, five languages).
* The pages tables come from the program's own synthesizer
  (``sources.pages.synthesize_rows``), so the payload-kind mix is the
  one ``sources/pages.py`` documents: 65% HTML, 15% PDF, 5% text-only,
  15% designed to fail, and every tenth url crawled three times.
* The query tables (``lineitem``, ``orders``, ``events``) follow the
  column domains of the TPC-H-like test tables.

The seed picks the word stream, the row order and a doc_id offset of
``(seed % 100) * 1_000_000``. The offset is a multiple of every modulus
the synthesizer uses (20 kinds, 10-doc recrawl cycle, 50 sites), so a
new seed gives new urls with the same kind mix; keeping it below 10^8
keeps urls at the eight digits the DuckDB oracles format them with.
"""

import hashlib
import shutil
from pathlib import Path
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# bump when anything below changes the generated files
INPUT_VERSION = 1

SEED_OFFSET = 1_000_000
LANGS = ("en", "en", "en", "es", "zh", "de", "fr")
WORDS = (
    "the fast key order sort table scan merge part window small hash join "
    "batch stream spark dup group query row data slow filter customer line "
    "value agg column big a shard crawl page text index token vector score "
    "rank latent graph edge node cache spill block"
).split()

DOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


def doc_offset(seed: int) -> int:
    return (seed % 100) * SEED_OFFSET


def make_documents(seed: int, n_docs: int, salt: int = 0) -> pa.Table:
    """``n_docs`` documents with doc_ids ``offset .. offset+n_docs-1``."""
    rng = np.random.default_rng([seed, salt, 0xD0C5])
    lengths = rng.integers(48, 554, size=n_docs)
    texts = []
    for n_chars in lengths:
        words = rng.choice(WORDS, size=int(n_chars) // 3 + 2)
        text = " ".join(words)[: int(n_chars)].rstrip()
        texts.append(text)
    # one doc in twenty is a near-copy of an earlier one (a trimmed
    # tail or one appended word), as in the repository's test tables,
    # so the near-dup queries find pairs
    for j in rng.choice(np.arange(1, n_docs), size=n_docs // 20,
                        replace=False):
        src = texts[int(rng.integers(0, j))]
        texts[j] = (src + " dup" if rng.random() < 0.5
                    else src[: max(40, len(src) - 6)].rstrip())
    ids = np.arange(n_docs, dtype=np.int64) + doc_offset(seed)
    langs = rng.choice(LANGS, size=n_docs)
    return pa.Table.from_pydict(
        {
            "doc_id": ids,
            "text": texts,
            "lang": langs.tolist(),
            "source": ["src%d" % (i % 20) for i in ids],
            "n_chars": [len(t) for t in texts],
        },
        schema=DOC_SCHEMA,
    )


def _flate_body_ends_in_eol(payload: bytes) -> bool:
    body = payload.split(b"stream\n", 1)[1].rsplit(b"\nendstream", 1)[0]
    return body[-1:] in (b"\r", b"\n")


def avoid_flate_eol(docs: pa.Table, expand: int) -> pa.Table:
    """Re-roll the text of compressed-PDF docs whose deflate stream
    ends in a CR or LF byte (about 1 in 128): the program's PDF reader
    strips those bytes before inflating and fails the row (see
    NOTES.md). The workloads are chosen so that no operation fails."""
    from zzzarchived_arxiv_fulltext_ray.functions.pdf_text import (
        write_minimal_pdf,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import kind_code

    texts = docs["text"].to_pylist()
    for i, doc_id in enumerate(docs["doc_id"].to_pylist()):
        if kind_code(doc_id) != 1:
            continue
        while _flate_body_ends_in_eol(
            write_minimal_pdf(" ".join([texts[i]] * expand), compress=True)
        ):
            texts[i] += " a"
    return docs.set_column(
        docs.schema.get_field_index("text"), "text", pa.array(texts)
    ).set_column(
        docs.schema.get_field_index("n_chars"), "n_chars",
        pa.array([len(t) for t in texts], pa.int64()),
    )


def pages_rows(docs: pa.Table, expand: int) -> pa.Table:
    from zzzarchived_arxiv_fulltext_ray.sources.pages import (
        PAGES_SCHEMA,
        synthesize_rows,
    )

    cols = synthesize_rows(
        docs["doc_id"].to_pylist(),
        docs["text"].to_pylist(),
        docs["lang"].to_pylist(),
        expand=expand,
    )
    return pa.Table.from_pydict(cols, schema=PAGES_SCHEMA)


def _write_split(table: pa.Table, out: Path, n_files: int, rng) -> None:
    """Permute rows, then write ``n_files`` contiguous Parquet files."""
    table = table.take(rng.permutation(table.num_rows))
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for i in range(n_files):
        part = table.slice(bounds[i], bounds[i + 1] - bounds[i])
        pq.write_table(part, out / ("part-%02d.parquet" % i))


def write_pages(out: Path, docs: pa.Table, expand: int, n_files: int,
                seed: int) -> None:
    rng = np.random.default_rng([seed, 0xFA6E])
    _write_split(pages_rows(docs, expand), out, n_files, rng)


def write_recrawl_files(out: Path, docs: pa.Table, n_files: int,
                        seed: int) -> None:
    """Crawl ``c`` of doc block ``b`` goes to file ``(b + c) % n_files``,
    so re-crawls cross file (and so shard) boundaries the way separate
    crawl dumps do."""
    from zzzarchived_arxiv_fulltext_ray.sources.pages import DUP_EVERY

    pages = pages_rows(docs, 1)
    doc_ids = np.array([int(u.rsplit("/", 1)[1]) for u in
                        pages["url"].to_pylist()])
    first = int(docs["doc_id"][0].as_py())
    block = (doc_ids - first) * n_files // docs.num_rows
    # rows of one url are emitted consecutively in crawl order
    crawl = np.zeros(len(doc_ids), dtype=np.int64)
    for i in range(1, len(doc_ids)):
        if doc_ids[i] == doc_ids[i - 1]:
            crawl[i] = crawl[i - 1] + 1
    file_of = (block + crawl) % n_files
    n_crawls = np.bincount(doc_ids - first)
    winner = crawl == n_crawls[doc_ids - first] - 1
    rng = np.random.default_rng([seed, 0x5EA])
    for f in range(n_files):
        rows = np.flatnonzero(file_of == f)
        part = pages.take(rows[rng.permutation(len(rows))])
        pq.write_table(part, out / ("part-%02d.parquet" % f))
    # global_latest_crawl_pass cannot rewrite a shard whose every row
    # loses (NOTES.md); the layout must leave each 2-file shard a winner
    for s in range(0, n_files, 2):
        if not winner[(file_of == s) | (file_of == s + 1)].any():
            raise ValueError(f"recrawl layout: shard {s // 2} has no "
                             "winning row")
    if (doc_ids % DUP_EVERY == 0).sum() != (n_crawls == 3).sum() * 3:
        raise ValueError("recrawl layout: crawl counts differ from the "
                         "synthesizer's")


def make_query_tables(out: Path, seed: int, n_docs: int, n_orders: int,
                      n_lineitem: int, n_events: int) -> None:
    rng = np.random.default_rng([seed, 0x7AB1E])
    pq.write_table(make_documents(seed, n_docs, salt=1),
                   out / "documents.parquet")

    day0 = np.datetime64("1995-01-01", "us")
    days = np.timedelta64(1, "D")
    orders = pa.table(
        {
            "o_orderkey": np.arange(n_orders, dtype=np.int64),
            "o_custkey": rng.integers(0, max(1, n_orders // 10), n_orders),
            "o_orderstatus": rng.choice(["P", "O", "F"], n_orders),
            "o_totalprice": np.round(rng.uniform(1000, 500000, n_orders), 2),
            "o_orderdate": day0 + rng.integers(0, 2404, n_orders) * days,
            "o_orderpriority": rng.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                 "5-LOW"], n_orders),
        }
    )
    pq.write_table(orders, out / "orders.parquet")

    n = n_lineitem
    lineitem = pa.table(
        {
            "l_orderkey": rng.integers(0, n_orders, n),
            "l_partkey": rng.integers(0, 2000, n),
            "l_suppkey": rng.integers(0, 100, n),
            "l_linenumber": rng.integers(1, 8, n).astype(np.int32),
            "l_quantity": rng.integers(1, 51, n).astype(np.float64),
            "l_extendedprice": np.round(rng.uniform(900, 105000, n), 2),
            "l_discount": rng.integers(0, 11, n) / 100.0,
            "l_tax": rng.integers(0, 9, n) / 100.0,
            "l_returnflag": rng.choice(["A", "N", "R"], n),
            "l_linestatus": rng.choice(["O", "F"], n),
            "l_shipdate": day0 + rng.integers(1, 2499, n) * days,
        }
    )
    pq.write_table(lineitem, out / "lineitem.parquet")

    n = n_events
    start = np.datetime64("2024-01-01T00:00:00", "us")
    steps = rng.integers(1, 2 * 30 * 86400 * 10**6 // n, n)
    events = pa.table(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": start + np.cumsum(steps).astype("timedelta64[us]"),
            "user_id": rng.integers(0, 150, n),
            "event_type": rng.choice(
                ["click", "signup", "error", "view", "purchase"], n),
            "value": np.round(rng.uniform(0.01, 490.0, n), 2),
            "props": ['{"k": %d}' % k for k in rng.integers(0, 100, n)],
        }
    )
    pq.write_table(events, out / "events.parquet")


def materialize(cache_root: Path, key: str, build) -> Path:
    """Run ``build(dir)`` once per key; later calls reuse the files."""
    from zzzarchived_arxiv_fulltext_ray.sources.pages import SYNTH_VERSION

    out = cache_root / f"{key}_i{INPUT_VERSION}_s{SYNTH_VERSION}"
    if (out / "_DONE").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    (out / "_DONE").touch()
    return out


def input_digest(path: Path) -> str:
    """Digest of every Parquet file's decoded rows under ``path``."""
    h = hashlib.sha256()
    for f in sorted(path.glob("*.parquet")):
        h.update(f.name.encode())
        t = pq.read_table(f)
        for col in t.column_names:
            h.update(repr(t[col].to_pylist()).encode())
    return h.hexdigest()


def kind_mix(doc_ids: List[int]) -> Dict[int, int]:
    from zzzarchived_arxiv_fulltext_ray.sources.pages import kind_code

    mix: Dict[int, int] = {}
    for d in doc_ids:
        mix[kind_code(d)] = mix.get(kind_code(d), 0) + 1
    return mix

