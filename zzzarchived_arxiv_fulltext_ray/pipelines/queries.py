"""Named query pipelines + their DuckDB oracle SQL.

Each entry in ``QUERIES`` is a callable ``sf_dir -> pandas.DataFrame``
running a Ray Data pipeline; ``ORACLE_SQL`` holds the equivalent ANSI
SQL over the driver's pre-registered views (``documents``, ``lineitem``
, ...). The pages table is synthesized deterministically from
``documents`` (see ``sources/pages.py``), and every scalar of that
synthesis is a pure function of ``doc_id`` — which is what lets plain
SQL reconstruct the expected *output of the whole extraction pipeline*
(url/status/text per page) without being able to parse HTML: the
byte-identity contract guarantees extraction returns the embedded
ground-truth text.

Column names match between Ray results and SQL exactly (the driver
hashes values after sorting columns by name).
"""

from typing import Callable, Dict

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.pages import read_pages
from ..stages.aggregate import aggregate
from .extraction import extraction_pipeline

# SQL fragment reconstructing the deterministic pages scalars from the
# documents view (mirrors sources/pages.py exactly).
_PAGES_CTE = """
WITH pages AS (
    SELECT
        'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
            || '.example.org/articles/' || lpad(CAST(doc_id AS VARCHAR), 8, '0')
            AS url,
        doc_id % 20 AS kind,
        doc_id,
        text,
        lang
    FROM documents
),
crawls AS (
    SELECT p.*, c.crawl,
        TIMESTAMP '2024-01-01 00:00:00'
            + to_microseconds(CAST(p.doc_id AS BIGINT) * 1000000)
            + to_microseconds(CAST(c.crawl AS BIGINT) * 3600000000) AS warc_ts
    FROM pages p, (VALUES (0), (1), (2)) AS c(crawl)
    WHERE c.crawl = 0 OR p.doc_id % 10 = 0
)
"""


def _q_extract_text(sf_dir: str):
    """Flagship: full extraction pipeline; per-url status + plain text.

    The oracle can state the expected text because extraction is
    byte-identical to the synthesizer's embedded ground truth (and
    ``fix_unicode`` is the identity on this ASCII corpus)."""
    ds = extraction_pipeline(read_pages(sf_dir), derive_psv=False)
    df = ds.to_pandas()
    return df[["url", "status", "text"]]


def _q_extract_dedup_latest(sf_dir: str):
    """Latest-crawl dedup: url -> surviving warc_ts."""
    ds = extraction_pipeline(read_pages(sf_dir), derive_psv=False)
    return ds.to_pandas()[["url", "warc_ts"]]


def _q_extract_status_counts(sf_dir: str):
    """Rows per (status, payload_kind) after dedup — run accounting
    (reference per-task SUCCEEDED/FAILED records, SURVEY.md A2)."""
    ds = extraction_pipeline(read_pages(sf_dir), derive_psv=False)
    out = aggregate(
        ds, ["status", "payload_kind"], [("n", "count", None)]
    ).to_pandas()
    return out.sort_values(["status", "payload_kind"]).reset_index(drop=True)


def _q_doc_tokens(sf_dir: str):
    """Whitespace token + char counts per document (text-analysis op),
    vectorized pyarrow count of non-space runs."""
    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def stats(batch: pa.Table) -> pa.Table:
        # Python str.split() is the token contract (drops empty fields,
        # any whitespace); the oracle mirrors it with regexp_split +
        # list_filter
        texts = batch["text"].to_pylist()
        n_tokens = pa.array([len(t.split()) for t in texts], pa.int64())
        n_chars = pc.utf8_length(batch["text"]).cast(pa.int64())
        return pa.Table.from_arrays(
            [batch["doc_id"].combine_chunks(), n_tokens, n_chars],
            names=["doc_id", "n_tokens", "n_chars"],
        )

    return docs.map_batches(stats, batch_format="pyarrow").to_pandas()


def _q_doc_fingerprint(sf_dir: str):
    """MD5 content fingerprint per document (exact-dedup key)."""
    import hashlib

    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def fp(batch: pa.Table) -> pa.Table:
        digests = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.Table.from_arrays(
            [batch["doc_id"].combine_chunks(), pa.array(digests)],
            names=["doc_id", "fingerprint"],
        )

    return docs.map_batches(fp, batch_format="pyarrow").to_pandas()


def _q_dedup_exact(sf_dir: str):
    """Exact dedup over documents: keep the smallest doc_id per
    md5(text) group (hash-partitioned groupby + per-group min)."""
    import hashlib

    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def fp(batch: pa.Table) -> pa.Table:
        digests = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.Table.from_arrays(
            [pa.array(digests), batch["doc_id"].combine_chunks()],
            names=["fingerprint", "doc_id"],
        )

    out = aggregate(
        docs, "fingerprint", [("keep_doc_id", "min", "doc_id")], rows=fp
    ).to_pandas()
    return out.sort_values("fingerprint").reset_index(drop=True)


def _q_lang_stats(sf_dir: str):
    """Per-language corpus stats through the grouped-aggregate
    combinator (``stages/aggregate.py``)."""
    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    out = aggregate(
        docs,
        "lang",
        [("sum_chars", "sum", "n_chars"), ("n_docs", "count", "lang")],
    ).to_pandas()
    return out.sort_values("lang").reset_index(drop=True)


def _q_lineitem_agg(sf_dir: str):
    """TPC-H-Q1-style grouped aggregate through the grouped-aggregate
    combinator (``stages/aggregate.py``); money summed in integer
    cents for exact comparison."""
    import ray.data

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
        ],
    )

    def rows(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [
                batch["l_returnflag"],
                batch["l_linestatus"],
                pc.cast(batch["l_quantity"], pa.int64()),
                cents,
            ],
            names=["l_returnflag", "l_linestatus", "qty", "cents"],
        )

    out = aggregate(
        li,
        ["l_returnflag", "l_linestatus"],
        [
            ("sum_qty", "sum", "qty"),
            ("sum_cents", "sum", "cents"),
            ("n_rows", "count", None),
        ],
        rows=rows,
    ).to_pandas()
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(
        drop=True
    )


def _q_lineitem_rollup(sf_dir: str):
    """ROLLUP / grouping-sets aggregate: the (returnflag, linestatus)
    grain plus its per-flag subtotals and the grand total, NULL keys
    marking the super-aggregate rows (SQL ``GROUP BY ROLLUP``).

    Scale shape: only the FINEST grain is computed distributed
    (``stages/aggregate.py``: Arrow partial -> one small exchange);
    every rollup
    level is then derived from that bounded result (|flags| x
    |statuses| rows regardless of corpus size) — super-aggregates are
    a pure function of the finest grain, so no second pass over the
    data and no extra exchange.
    """
    out = _q_lineitem_agg(sf_dir)  # finest grain, already sorted

    import pandas as pd

    vals = ["sum_qty", "sum_cents", "n_rows"]
    lvl1 = out.groupby("l_returnflag", as_index=False)[vals].sum()
    lvl1["l_linestatus"] = None
    lvl0 = out[vals].sum().to_frame().T
    lvl0["l_returnflag"] = None
    lvl0["l_linestatus"] = None
    cols = ["l_returnflag", "l_linestatus"] + vals
    full = pd.concat(
        [out[cols], lvl1[cols], lvl0[cols]], ignore_index=True
    )
    for c in vals:
        full[c] = full[c].astype("int64")
    return full.sort_values(
        ["l_returnflag", "l_linestatus"], na_position="first"
    ).reset_index(drop=True)


def _q_lineitem_cube(sf_dir: str):
    """CUBE grouping-sets aggregate — ROLLUP's sibling with BOTH
    one-dimension subtotal levels. Same scale shape as
    ``lineitem_rollup``: only the finest (flag, status) grain runs
    distributed; all four grouping sets derive from that bounded
    result on the driver (|flags| x |statuses| rows), no second scan.
    """
    out = _q_lineitem_agg(sf_dir)  # finest grain, already sorted

    import pandas as pd

    vals = ["sum_qty", "sum_cents", "n_rows"]
    lvl_flag = out.groupby("l_returnflag", as_index=False)[vals].sum()
    lvl_flag["l_linestatus"] = None
    lvl_status = out.groupby("l_linestatus", as_index=False)[vals].sum()
    lvl_status["l_returnflag"] = None
    lvl0 = out[vals].sum().to_frame().T
    lvl0["l_returnflag"] = None
    lvl0["l_linestatus"] = None
    cols = ["l_returnflag", "l_linestatus"] + vals
    full = pd.concat(
        [out[cols], lvl_flag[cols], lvl_status[cols], lvl0[cols]],
        ignore_index=True,
    )
    for c in vals:
        full[c] = full[c].astype("int64")
    return full.sort_values(
        ["l_returnflag", "l_linestatus"], na_position="first"
    ).reset_index(drop=True)


def _q_segment_revenue(sf_dir: str):
    """Broadcast dim join: orders joined to customer via a ray.put
    lookup (no shuffle), grouped by market segment."""
    import ray
    import ray.data

    cust = (
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment"],
        )
        .to_pandas()
    )
    # broadcast the dim as two aligned arrays; probe via index_in/take
    # (vectorized) instead of a per-row dict lookup
    seg_ref = ray.put(
        (
            pa.array(cust["c_custkey"], pa.int64()),
            pa.array(cust["c_mktsegment"], pa.string()),
        )
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def join_rows(batch: pa.Table) -> pa.Table:
        keys, seg_vals = ray.get(seg_ref)
        idx = pc.index_in(batch["o_custkey"], value_set=keys)
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0), round_mode="half_towards_infinity"), pa.int64()
        )
        return pa.Table.from_arrays(
            [pc.take(seg_vals, idx), cents], names=["c_mktsegment", "cents"]
        )

    out = aggregate(
        orders,
        "c_mktsegment",
        [("sum_cents", "sum", "cents"), ("n_orders", "count", None)],
        rows=join_rows,
    ).to_pandas()
    return out.sort_values("c_mktsegment").reset_index(drop=True)


from .queries_corpus import CORPUS_ORACLE_SQL, CORPUS_QUERIES
from .queries_relational import RELATIONAL_ORACLE_SQL, RELATIONAL_QUERIES
from .queries_training import TRAINING_ORACLE_SQL, TRAINING_QUERIES
from .queries_webtext import WEBTEXT_ORACLE_SQL, WEBTEXT_QUERIES



def _q_extract_markdown(sf_dir: str):
    """Markdown-preserving extraction (functions/markdown.py): HTML
    pages render headings/links/lists as markdown instead of
    flattening to plain text — the FineWeb-style structured variant
    of the flagship extractor, sharing the same sniff/decode path and
    DOM tree. Non-HTML payloads (pdf/text/binary/empty) are out of
    scope here (the plain cascade owns them). The oracle rebuilds the
    exact markdown from the synthesizer formulas (nav slice, link
    farm arithmetic, garble length), so the renderer's whole
    contract — heading levels, [text](href), list grouping,
    whitespace collapse — is hash-pinned per url."""
    from ..functions import sniff as sniff_mod
    from ..functions.markdown import render_markdown
    from ..stages.dedup import latest_crawl

    ds = latest_crawl(read_pages(sf_dir))

    def md(batch: pa.Table) -> pa.Table:
        urls, out = [], []
        for url, payload in zip(
            batch["url"].to_pylist(), batch["html"].to_pylist()
        ):
            kind, charset = sniff_mod.sniff(payload)
            if kind != sniff_mod.KIND_HTML:
                continue
            urls.append(url)
            out.append(
                render_markdown(
                    sniff_mod.decode_payload(payload, charset)
                )
            )
        return pa.Table.from_pydict(
            {
                "url": pa.array(urls, pa.string()),
                "markdown": pa.array(out, pa.string()),
            }
        )

    return (
        ds.map_batches(md, batch_format="pyarrow")
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )


QUERIES: Dict[str, Callable] = {
    "extract_text": _q_extract_text,
    "extract_markdown": _q_extract_markdown,
    "extract_dedup_latest": _q_extract_dedup_latest,
    "extract_status_counts": _q_extract_status_counts,
    "doc_tokens": _q_doc_tokens,
    "doc_fingerprint": _q_doc_fingerprint,
    "dedup_exact": _q_dedup_exact,
    "lang_stats": _q_lang_stats,
    "lineitem_agg": _q_lineitem_agg,
    "lineitem_rollup": _q_lineitem_rollup,
    "lineitem_cube": _q_lineitem_cube,
    "segment_revenue": _q_segment_revenue,
    **TRAINING_QUERIES,
    **WEBTEXT_QUERIES,
    **CORPUS_QUERIES,
    **RELATIONAL_QUERIES,
}

ORACLE_SQL: Dict[str, str] = {
    "extract_markdown": _PAGES_CTE
    + """
    , words AS (
        SELECT ['Home','News','Sports','Opinion','Culture','Science',
                'Business','Travel','Archive','About','Contact',
                'Subscribe'] AS nv,
               ['trending','popular','latest','editors','picks',
                'weekly','digest','related','stories','from','around',
                'the','network','partner','links','more','coverage']
                   AS fw
    )
    SELECT url,
           '# Site ' || CAST(doc_id % 50 AS VARCHAR)
           || chr(10) || chr(10)
           || array_to_string(list_transform(
                  array_slice(words.nv, 1, 6 + doc_id % 6),
                  w -> '[' || w || '](/' || w || ')'), ' | ')
           || chr(10) || chr(10)
           || array_to_string(list_transform(range(0, 18), k ->
                  '- [' || words.fw[(doc_id + k) % 17 + 1] || ' '
                  || words.fw[(doc_id + 2 * k + 3) % 17 + 1] || ' '
                  || CAST((doc_id * 7 + k) % 997 AS VARCHAR)
                  || '](/t/' || CAST((doc_id * 7 + k) % 997 AS VARCHAR)
                  || ')'), chr(10))
           || chr(10) || chr(10)
           || CASE WHEN kind = 6 THEN repeat('x', 20000 + doc_id % 500)
                   ELSE text END
           || chr(10) || chr(10)
           || '\u00a9 2024 site'
           || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || ' [Privacy](/privacy) [Terms](/terms)' AS markdown
    FROM pages, words
    WHERE kind IN (3, 6, 7) OR kind >= 9
    ORDER BY url
    """,
    "extract_text": _PAGES_CTE
    + """
    SELECT url,
           CASE WHEN kind IN (4, 5, 6) THEN 'failed'
                ELSE 'succeeded' END AS status,
           CASE WHEN kind IN (4, 5, 6) THEN NULL
                ELSE text END AS text
    FROM pages
    """,
    "extract_dedup_latest": _PAGES_CTE
    + """
    SELECT url, max(warc_ts) AS warc_ts
    FROM crawls
    GROUP BY url
    """,
    "extract_status_counts": _PAGES_CTE
    + """
    SELECT CASE WHEN kind IN (4, 5, 6) THEN 'failed'
                ELSE 'succeeded' END AS status,
           CASE WHEN kind IN (0, 1, 8) THEN 'pdf'
                WHEN kind = 2 THEN 'text'
                WHEN kind = 4 THEN 'empty'
                WHEN kind = 5 THEN 'binary'
                ELSE 'html' END AS payload_kind,
           count(*) AS n
    FROM pages
    GROUP BY 1, 2
    ORDER BY status, payload_kind
    """,
    "doc_tokens": """
    SELECT doc_id,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS n_tokens,
           length(text) AS n_chars
    FROM documents
    """,
    "doc_fingerprint": """
    SELECT doc_id, md5(text) AS fingerprint FROM documents
    """,
    "dedup_exact": """
    SELECT md5(text) AS fingerprint, min(doc_id) AS keep_doc_id
    FROM documents
    GROUP BY 1
    """,
    "lang_stats": """
    SELECT lang, CAST(sum(n_chars) AS BIGINT) AS sum_chars, count(*) AS n_docs
    FROM documents
    GROUP BY lang
    ORDER BY lang
    """,
    "lineitem_agg": """
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents,
           count(*) AS n_rows
    FROM lineitem
    GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus
    """,
    "lineitem_cube": """
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents,
           count(*) AS n_rows
    FROM lineitem
    GROUP BY CUBE (l_returnflag, l_linestatus)
    ORDER BY l_returnflag NULLS FIRST, l_linestatus NULLS FIRST
    """,
    "lineitem_rollup": """
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents,
           count(*) AS n_rows
    FROM lineitem
    GROUP BY ROLLUP (l_returnflag, l_linestatus)
    ORDER BY l_returnflag NULLS FIRST, l_linestatus NULLS FIRST
    """,
    "segment_revenue": """
    SELECT c.c_mktsegment,
           CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents,
           count(*) AS n_orders
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    GROUP BY c.c_mktsegment
    ORDER BY c.c_mktsegment
    """,
}

ORACLE_SQL.update(TRAINING_ORACLE_SQL)
ORACLE_SQL.update(WEBTEXT_ORACLE_SQL)
ORACLE_SQL.update(CORPUS_ORACLE_SQL)
ORACLE_SQL.update(RELATIONAL_ORACLE_SQL)
