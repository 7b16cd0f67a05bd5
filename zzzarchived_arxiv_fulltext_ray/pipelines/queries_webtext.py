"""Webtext-curation queries + oracles (PII scrubbing, per-domain cap,
benchmark decontamination, repetition filter).

Joined into the driver surface by ``pipelines.queries``. The PII query
follows the pages-synthesizer convention (CLAUDE.md): the injected PII
is a pure function of doc_id, reconstructed verbatim in the oracle's
CTE, so the redaction kernels are exercised against known ground truth
on an otherwise PII-free corpus.
"""

from typing import Callable, Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.pages import read_documents
from ..stages.aggregate import aggregate
from ..stages.topk import topk, topk_per_group
from ..stages.webtext import (
    EMAIL_RE,
    IPV4_RE,
    PHONE_RE,
    decontaminate,
    decontaminate_partitioned,
    pii_scrub_batch,
    repetition_batch,
)

WEBTEXT_QUERIES: Dict[str, Callable] = {}
WEBTEXT_ORACLE_SQL: Dict[str, str] = {}

_LONGEST_FIRST = [("n_chars", "descending"), ("doc_id", "ascending")]


# --------------------------------------------------------------- PII

def inject_pii_batch(batch: pa.Table) -> pa.Table:
    """Deterministic PII augmentation (pure function of doc_id — the
    pages-synthesizer pattern): docs with doc_id % 3 == 0 gain an
    email, % 4 a phone number, % 5 an IPv4 address. Vectorized string
    build; the oracle CTE reconstructs the same text in SQL."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    s_id = pc.cast(batch["doc_id"], pa.string())

    def s(arr: np.ndarray):
        return pc.cast(pa.array(arr.astype(np.int64)), pa.string())

    email = pc.binary_join_element_wise(
        " contact u", s_id, "@m", s(ids % 7), ".example.com", ""
    )
    phone = pc.binary_join_element_wise(
        " call 415-555-",
        pc.utf8_lpad(s(ids % 10000), width=4, padding="0"),
        "",
    )
    ip = pc.binary_join_element_wise(
        " from 10.",
        s(ids % 256),
        ".",
        s((ids // 7) % 256),
        ".",
        s((ids // 11) % 256),
        "",
    )
    empty = pa.scalar("", pa.string())
    text = pc.binary_join_element_wise(
        batch["text"],
        pc.if_else(pa.array(ids % 3 == 0), email, empty),
        pc.if_else(pa.array(ids % 4 == 0), phone, empty),
        pc.if_else(pa.array(ids % 5 == 0), ip, empty),
        "",
    )
    return pa.Table.from_pydict({"doc_id": batch["doc_id"], "text": text})


def _q_pii_redact(sf_dir: str):
    """PII detect + redact over the (deterministically augmented)
    corpus: per-doc email/phone/IP counts and the redacted text.
    Pure Arrow RE2 kernels — same engine as the DuckDB oracle."""
    ds = (
        read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(inject_pii_batch, batch_format="pyarrow")
        .map_batches(pii_scrub_batch, batch_format="pyarrow")
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


_PII_AUG_CTE = """
WITH aug AS (
    SELECT doc_id,
           text
           || CASE WHEN doc_id % 3 = 0
                   THEN ' contact u' || CAST(doc_id AS VARCHAR)
                        || '@m' || CAST(doc_id % 7 AS VARCHAR)
                        || '.example.com'
                   ELSE '' END
           || CASE WHEN doc_id % 4 = 0
                   THEN ' call 415-555-'
                        || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                   ELSE '' END
           || CASE WHEN doc_id % 5 = 0
                   THEN ' from 10.' || CAST(doc_id % 256 AS VARCHAR)
                        || '.' || CAST((doc_id // 7) % 256 AS VARCHAR)
                        || '.' || CAST((doc_id // 11) % 256 AS VARCHAR)
                   ELSE '' END
           AS text
    FROM documents
)
"""

WEBTEXT_QUERIES["pii_redact"] = _q_pii_redact
WEBTEXT_ORACLE_SQL["pii_redact"] = (
    _PII_AUG_CTE
    + f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{EMAIL_RE}')) AS BIGINT)
           AS n_email,
       CAST(len(regexp_extract_all(
           regexp_replace(text, '{EMAIL_RE}', '<EMAIL>', 'g'),
           '{PHONE_RE}')) AS BIGINT) AS n_phone,
       CAST(len(regexp_extract_all(
           regexp_replace(text, '{EMAIL_RE}', '<EMAIL>', 'g'),
           '{IPV4_RE}')) AS BIGINT) AS n_ip,
       regexp_replace(
           regexp_replace(
               regexp_replace(text, '{EMAIL_RE}', '<EMAIL>', 'g'),
               '{IPV4_RE}', '<IP>', 'g'),
           '{PHONE_RE}', '<PHONE>', 'g') AS clean
FROM aug
ORDER BY doc_id
"""
)


# -------------------------------------------------------- domain cap

def _url_domain_batch(batch: pa.Table) -> pa.Table:
    """documents batch -> (domain, doc_id, n_chars) with the url built
    by the synthesizer's pure formula and the domain then extracted
    from the STRING (the operator under test), not recomputed from
    doc_id."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    site = pc.utf8_lpad(
        pc.cast(pa.array((ids % 50).astype(np.int64)), pa.string()),
        width=2,
        padding="0",
    )
    url = pc.binary_join_element_wise(
        "https://site",
        site,
        ".example.org/articles/",
        pc.utf8_lpad(pc.cast(batch["doc_id"], pa.string()), width=8, padding="0"),
        "",
    )
    domain = pc.replace_substring_regex(
        url, pattern=r"^https://([^/]+)/.*$", replacement=r"\1"
    )
    return pa.Table.from_pydict(
        {
            "domain": domain,
            "doc_id": batch["doc_id"],
            "n_chars": batch["n_chars"],
        }
    )


def _q_domain_cap(sf_dir: str):
    """Per-domain document cap (C4/RefinedWeb-style): keep at most 5
    docs per registered domain, longest first (doc_id tiebreak), with
    ``stages/topk.topk_per_group`` — no whole-domain shuffle."""
    ds = read_documents(sf_dir, ["doc_id", "n_chars"]).map_batches(
        _url_domain_batch, batch_format="pyarrow"
    )
    out = topk_per_group(ds, "domain", 5, _LONGEST_FIRST)
    return (
        out.to_pandas()
        .sort_values(["domain", "doc_id"])
        .reset_index(drop=True)
    )


WEBTEXT_QUERIES["domain_cap"] = _q_domain_cap
WEBTEXT_ORACLE_SQL["domain_cap"] = """
WITH pages AS (
    SELECT 'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || '.example.org/articles/'
           || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
           doc_id, n_chars
    FROM documents
)
SELECT domain, doc_id, CAST(n_chars AS BIGINT) AS n_chars
FROM (
    SELECT regexp_extract(url, 'https://([^/]+)/', 1) AS domain,
           doc_id, n_chars,
           row_number() OVER (PARTITION BY regexp_extract(url, 'https://([^/]+)/', 1)
                              ORDER BY n_chars DESC, doc_id) AS rn
    FROM pages
)
WHERE rn <= 5
ORDER BY domain, doc_id
"""


# ---------------------------------------------------- decontamination

_BENCH_MOD = 101  # doc_id % 101 == 0 -> benchmark member (~1%)


def _split_docs(sf_dir: str):
    docs = read_documents(sf_dir, ["doc_id", "text"])

    def part(member: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            mask = ids % _BENCH_MOD == 0
            return batch.filter(pa.array(mask if member else ~mask))

        return fn

    return docs.map_batches(part(False), batch_format="pyarrow"), docs.map_batches(
        part(True), batch_format="pyarrow"
    )


def _q_decontaminate(sf_dir: str, op=decontaminate):
    """Test-set decontamination: docs sharing any word 3-gram with the
    held-out benchmark slice (doc_id % 101 == 0), with the count of
    distinct contaminated grams."""
    corpus, bench = _split_docs(sf_dir)
    out = op(corpus, bench, n=3)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


_DECON_SQL = f"""
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
),
grams AS (
    SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
    FROM toks, UNNEST(range(1, len(t) - 1)) AS r(i)
    WHERE len(t) >= 3
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {_BENCH_MOD} = 0)
SELECT g2.doc_id, CAST(count(DISTINCT g2.g) AS BIGINT) AS n_hits
FROM grams g2 JOIN bench b ON g2.g = b.g
WHERE g2.doc_id % {_BENCH_MOD} <> 0
GROUP BY g2.doc_id
ORDER BY g2.doc_id
"""

WEBTEXT_QUERIES["decontaminate"] = _q_decontaminate
WEBTEXT_ORACLE_SQL["decontaminate"] = _DECON_SQL
def _q_decontaminate_partitioned(sf_dir: str):
    """Benchmark n-gram decontamination via the partitioned
    hash-semi-join plan (no broadcast) — pinned equal to the
    broadcast spelling under the same oracle."""
    return _q_decontaminate(sf_dir, op=decontaminate_partitioned)


WEBTEXT_QUERIES["decontaminate_partitioned"] = _q_decontaminate_partitioned
WEBTEXT_ORACLE_SQL["decontaminate_partitioned"] = _DECON_SQL


# ------------------------------------------------------- repetition

def _q_doc_repetition(sf_dir: str):
    """Gopher-style repetition filter signals: per doc the most
    frequent word-2-gram count, the total gram count, and the
    integer-exact ``repetitive`` flag (top gram > 5% of grams)."""
    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: repetition_batch(b, n=2, pct_threshold=5),
        batch_format="pyarrow",
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


WEBTEXT_QUERIES["doc_repetition"] = _q_doc_repetition
WEBTEXT_ORACLE_SQL["doc_repetition"] = """
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
),
grams AS (
    SELECT doc_id, array_to_string(t[i:i+1], ' ') AS g
    FROM toks, UNNEST(range(1, len(t))) AS r(i)
    WHERE len(t) >= 2
),
counts AS (
    SELECT doc_id, g, count(*) AS c FROM grams GROUP BY doc_id, g
),
agg AS (
    SELECT doc_id, CAST(max(c) AS BIGINT) AS n_top,
           CAST(sum(c) AS BIGINT) AS n_grams
    FROM counts GROUP BY doc_id
)
SELECT doc_id, n_top, n_grams,
       (n_top * 100 > 5 * n_grams) AS repetitive
FROM agg
ORDER BY doc_id
"""


# ------------------------------------------------ cross-doc line dedup

def inject_boilerplate_batch(batch: pa.Table) -> pa.Table:
    """Deterministic boilerplate-line augmentation (pure function of
    doc_id, the pages-synthesizer pattern): even docs gain a hot
    newsletter header, doc_id % 3 == 0 a footer (one of 7 variants),
    doc_id % 25 == 0 a rarer promo line. The oracle CTE rebuilds the
    same multi-line text in SQL."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)

    def s(arr: np.ndarray):
        return pc.cast(pa.array(arr.astype(np.int64)), pa.string())

    header = pc.binary_join_element_wise(
        "subscribe to newsletter ", s(ids % 4), "\n", ""
    )
    footer = pc.binary_join_element_wise(
        "\ncopyright footer ", s(ids % 7), ""
    )
    promo = pc.binary_join_element_wise("\npromo ", s(ids % 100), "")
    empty = pa.scalar("", pa.string())
    text = pc.binary_join_element_wise(
        pc.if_else(pa.array(ids % 2 == 0), header, empty),
        batch["text"],
        pc.if_else(pa.array(ids % 3 == 0), footer, empty),
        pc.if_else(pa.array(ids % 25 == 0), promo, empty),
        "",
    )
    return pa.Table.from_pydict({"doc_id": batch["doc_id"], "text": text})


def _q_line_dedup(sf_dir: str):
    """Cross-document line dedup (CCNet/RefinedWeb boilerplate
    removal) over the deterministically augmented corpus: lines seen
    >= 5 times corpus-wide are dropped from every document."""
    from ..stages.webtext import line_dedup

    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        inject_boilerplate_batch, batch_format="pyarrow"
    )
    out = line_dedup(ds, min_count=5)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


WEBTEXT_QUERIES["line_dedup"] = _q_line_dedup
WEBTEXT_ORACLE_SQL["line_dedup"] = """
WITH aug AS (
    SELECT doc_id,
           CASE WHEN doc_id % 2 = 0
                THEN 'subscribe to newsletter '
                     || CAST(doc_id % 4 AS VARCHAR) || chr(10)
                ELSE '' END
           || text
           || CASE WHEN doc_id % 3 = 0
                   THEN chr(10) || 'copyright footer '
                        || CAST(doc_id % 7 AS VARCHAR)
                   ELSE '' END
           || CASE WHEN doc_id % 25 = 0
                   THEN chr(10) || 'promo '
                        || CAST(doc_id % 100 AS VARCHAR)
                   ELSE '' END
           AS text
    FROM documents
),
ls AS (
    SELECT doc_id, string_split(text, chr(10)) AS l FROM aug
),
lines AS (
    SELECT doc_id, l[i] AS line, i
    FROM ls, UNNEST(range(1, len(l) + 1)) AS r(i)
),
counts AS (SELECT line, count(*) AS c FROM lines GROUP BY line)
SELECT l.doc_id,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(CASE WHEN c.c >= 5 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_removed,
       coalesce(string_agg(CASE WHEN c.c < 5 THEN l.line END,
                           chr(10) ORDER BY l.i), '') AS clean
FROM lines l JOIN counts c ON l.line = c.line
GROUP BY l.doc_id
ORDER BY l.doc_id
"""


# ---------------------------------------------------- interval join

def _q_events_interval(sf_dir: str):
    """Incident enrichment via the interval join: every ``error``
    event opens a 5-minute window for its user; count and sum (in
    half-away-from-zero cents) ALL of that user's events inside the
    window (the error event itself included)."""
    import ray.data

    from ..stages.interval import interval_join

    FIVE_MIN_US = 5 * 60 * 1_000_000

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def left_prep(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.Table.from_pydict(
            {
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "user_id": batch["user_id"],
                "cents": cents,
            }
        )

    def right_prep(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["event_type"], "error"))
        start = b["ts"].cast(pa.int64())
        end = pc.add(start, FIVE_MIN_US)
        return pa.Table.from_pydict(
            {
                "incident_id": b["event_id"],
                "user_id": b["user_id"],
                "start_ts": start.cast(pa.timestamp("us")),
                "end_ts": end.cast(pa.timestamp("us")),
            }
        )

    joined = interval_join(
        events.map_batches(left_prep, batch_format="pyarrow"),
        events.map_batches(right_prep, batch_format="pyarrow"),
        key="user_id",
        ts="ts",
        start="start_ts",
        end="end_ts",
        granule_us=FIVE_MIN_US,
    )
    agg = aggregate(
        joined,
        "incident_id",
        [("n_events", "count", None), ("sum_cents", "sum", "cents")],
    )
    df = agg.to_pandas().sort_values("incident_id").reset_index(drop=True)
    df["n_events"] = df["n_events"].astype("int64")
    df["sum_cents"] = df["sum_cents"].astype("int64")
    return df


WEBTEXT_QUERIES["events_interval"] = _q_events_interval
WEBTEXT_ORACLE_SQL["events_interval"] = """
WITH incidents AS (
    SELECT event_id AS incident_id, user_id, ts AS start_ts,
           ts + INTERVAL 5 MINUTE AS end_ts
    FROM events WHERE event_type = 'error'
)
SELECT i.incident_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(e.value * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM incidents i JOIN events e
  ON e.user_id = i.user_id
 AND e.ts >= i.start_ts AND e.ts < i.end_ts
GROUP BY i.incident_id
ORDER BY i.incident_id
"""


# ------------------------------------------------ leakage-safe split

def _q_domain_split(sf_dir: str):
    """Group-aware train/valid/test split: assignment is a pure
    function of the DOMAIN (last md5 nibble, 12/2/2 of 16), so a
    domain's documents can never straddle splits. Output proves it:
    per split, the distinct-domain count plus doc/char totals."""
    from ..stages.webtext import domain_split_batch

    per_domain = aggregate(
        read_documents(sf_dir, ["doc_id", "n_chars"]).map_batches(
            _url_domain_batch, batch_format="pyarrow"
        ),
        ["split", "domain"],
        [("sum_chars", "sum", "n_chars"), ("n_docs", "count", "n_chars")],
        rows=domain_split_batch,
    )
    out = (
        aggregate(
            per_domain,
            "split",
            [
                ("n_domains", "count", None),
                ("n_docs", "sum", "n_docs"),
                ("sum_chars", "sum", "sum_chars"),
            ],
        )
        .to_pandas()
        .sort_values("split")
        .reset_index(drop=True)
    )
    for c in ("n_domains", "n_docs", "sum_chars"):
        out[c] = out[c].astype("int64")
    return out


WEBTEXT_QUERIES["domain_split"] = _q_domain_split
WEBTEXT_ORACLE_SQL["domain_split"] = """
WITH pages AS (
    SELECT 'site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || '.example.org' AS domain,
           doc_id, n_chars
    FROM documents
),
assigned AS (
    SELECT domain, n_chars,
           CASE WHEN strpos('0123456789abcdef',
                            substr(md5(domain), 32, 1)) - 1 < 12
                THEN 'train'
                WHEN strpos('0123456789abcdef',
                            substr(md5(domain), 32, 1)) - 1 < 14
                THEN 'valid'
                ELSE 'test' END AS split
    FROM pages
)
SELECT split,
       CAST(count(DISTINCT domain) AS BIGINT) AS n_domains,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM assigned
GROUP BY split
ORDER BY split
"""


# -------------------------------------------- hashed-linear model score

def _q_model_score(sf_dir: str):
    """Batched linear-model scoring over the corpus: the actor pool
    builds the weight table once per actor (the model-load slot),
    every batch is one vectorized lookup + segmented mean."""
    from ..stages.webtext import HashedLinearScorer

    out = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        HashedLinearScorer,
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


WEBTEXT_QUERIES["model_score"] = _q_model_score
WEBTEXT_ORACLE_SQL["model_score"] = """
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
)
SELECT doc_id,
       CAST(len(t) AS BIGINT) AS n_tokens,
       CASE WHEN len(t) = 0 THEN 0.0
            ELSE list_sum(list_transform(t,
                 x -> ((length(x) * 2654435761) % 1000) / 1000.0 - 0.5))
                 / len(t) END AS score
FROM toks
ORDER BY doc_id
"""


# ------------------------------------------------- label centroids

def _q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (class prototypes): scalar
    projections for the oracle (count, centroid L2 norm, grand sum);
    the full centroid vector stays available on the operator output."""
    import ray.data

    from ..stages.similarity import grouped_centroids

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    out = grouped_centroids(emb, key="label").drop_columns(["centroid"])
    return out.to_pandas().sort_values("label").reset_index(drop=True)


WEBTEXT_QUERIES["label_centroids"] = _q_label_centroids
WEBTEXT_ORACLE_SQL["label_centroids"] = """
WITH flat AS (
    SELECT label, i, CAST(embedding[i] AS DOUBLE) AS val
    FROM embeddings, UNNEST(range(1, len(embedding) + 1)) AS r(i)
),
cent AS (
    SELECT label, i, avg(val) AS c, sum(val) AS s
    FROM flat GROUP BY label, i
),
sizes AS (
    SELECT label, CAST(count(*) AS BIGINT) AS n_vecs
    FROM embeddings GROUP BY label
)
SELECT cent.label, sizes.n_vecs,
       sqrt(sum(cent.c * cent.c)) AS centroid_norm,
       sum(cent.s) AS total_sum
FROM cent JOIN sizes USING (label)
GROUP BY cent.label, sizes.n_vecs
ORDER BY cent.label
"""


# ------------------------------------------------------ k-means

def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means (k=8, 5 rounds, deterministic
    lowest-vec_id init) over the embeddings table; per-cluster sizes
    and summed squared distance. Iterative -> no SQL oracle (declared
    rows-only); exact parity with single-node Lloyd's is pinned in
    pytest (test_kmeans_matches_single_node_lloyds)."""
    import ray.data

    from ..stages.similarity import kmeans

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    final, _cents, _inertia = kmeans(emb, k=8, iters=5)
    out = (
        aggregate(
            final,
            "cluster",
            [("n_vecs", "count", None), ("inertia", "sum", "dist2")],
        )
        .to_pandas()
        .sort_values("cluster")
        .reset_index(drop=True)
    )
    out["n_vecs"] = out["n_vecs"].astype("int64")
    return out


WEBTEXT_QUERIES["kmeans_clusters"] = _q_kmeans_clusters
# iterative algorithm: deliberately no oracle_sql entry (rows-only);
# correctness pinned against single-node Lloyd's in pytest


def _q_semdedup(sf_dir: str):
    """SemDeDup semantic dedup: k-means-cluster the embeddings, prune
    near-duplicates within each cluster (cosine >= 0.4, keep the
    lowest vec_id). Iterative k-means -> rows-only; the prune rule is
    pinned against a dense single-node reference in pytest
    (test_semdedup_matches_dense_reference)."""
    import ray.data

    from ..stages.similarity import semdedup

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = semdedup(emb, k=8, iters=5, tau=0.4).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


WEBTEXT_QUERIES["semdedup"] = _q_semdedup
# composition over iterative k-means: rows-only, like kmeans_clusters


# -------------------------------------------- per-group quantile filter

def _q_lang_p90_filter(sf_dir: str):
    """Keep each language's longest decile (n_chars >= the exact
    per-language 0.9 discrete quantile) — the per-group
    quantile-threshold filter every curation pipeline runs. The
    threshold comes from ``stages.selection.quantiles``, never from
    shuffling whole groups."""
    from fractions import Fraction

    from ..stages.webtext import quantile_filter

    kept = quantile_filter(
        read_documents(sf_dir, ["doc_id", "lang", "n_chars"]),
        key="lang",
        val="n_chars",
        q=Fraction(9, 10),
    )
    out = (
        aggregate(
            kept,
            "lang",
            [("n_kept", "count", None), ("sum_chars", "sum", "n_chars")],
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    for c in ("n_kept", "sum_chars"):
        out[c] = out[c].astype("int64")
    return out


WEBTEXT_QUERIES["lang_p90_filter"] = _q_lang_p90_filter
WEBTEXT_ORACLE_SQL["lang_p90_filter"] = """
WITH th AS (
    SELECT lang, quantile_disc(n_chars, 0.9) AS t
    FROM documents GROUP BY lang
)
SELECT d.lang,
       CAST(count(*) AS BIGINT) AS n_kept,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars
FROM documents d JOIN th USING (lang)
WHERE d.n_chars >= th.t
GROUP BY d.lang
ORDER BY d.lang
"""


# ----------------------------------------------- Bloom dedup guard

def _q_bloom_dedup_guard(sf_dir: str):
    """Memory-bounded exists-already guard: a Bloom filter built from
    the 'prior run' urls (even doc_ids) screens the incoming stream.
    No false negatives by construction (every even doc is skipped);
    false positives skip ~FP-rate of the genuinely new odd docs.
    Oracled via ``stable_hash=True`` (md5-derived key hashes): the SQL
    oracle rebuilds every probe position as
    ``(h1 + i*(splitmix64(h1)|1)) mod n_bits`` and replays the
    all-k-bits-hit test exactly; the no-false-negative property stays
    pinned in pytest (test_webtext.py) for BOTH hash modes."""
    import ray

    from ..stages.dedup import bloom_guard_filter, build_key_bloom

    urls = read_documents(sf_dir, ["doc_id"]).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "url": pc.binary_join_element_wise(
                    "https://x/", pc.cast(b["doc_id"], pa.string()), ""
                ),
            }
        ),
        batch_format="pyarrow",
    )
    seen = urls.map_batches(
        lambda b: b.filter(
            pa.array(
                b["doc_id"].to_numpy(zero_copy_only=False) % 2 == 0
            )
        ),
        batch_format="pyarrow",
    )
    bloom = build_key_bloom(
        seen, col="url", n_bits=1 << 20, k=4, stable_hash=True
    )
    ref = ray.put(bloom)
    passed = bloom_guard_filter(
        urls, ref, col="url", stable_hash=True
    ).to_pandas()
    n_in = len(urls.to_pandas())
    n_passed = len(passed)
    n_false_neg = int((passed["doc_id"] % 2 == 0).sum())
    import pandas as pd

    return pd.DataFrame(
        {
            "n_in": [n_in],
            "n_passed": [n_passed],
            "n_seen_leaked": [n_false_neg],  # must be 0: no false negs
        }
    )


WEBTEXT_QUERIES["bloom_dedup_guard"] = _q_bloom_dedup_guard


def _bloom_guard_sql() -> str:
    # lazy build: splitmix64-as-SQL lives next to the other sketch
    # oracles in queries_training
    from .queries_training import _splitmix64_sql

    return f"""
WITH urls AS (
    SELECT doc_id, 'https://x/' || CAST(doc_id AS VARCHAR) AS url
    FROM documents
), h AS (
    SELECT doc_id, md5_number_upper(url) AS h1 FROM urls
), hh AS (
    SELECT doc_id, h1, {_splitmix64_sql("h1")} | 1::UBIGINT AS h2 FROM h
), pos AS (
    SELECT doc_id, s.i,
           CAST((CAST(h1 AS HUGEINT) + s.i * CAST(h2 AS HUGEINT))
                % 1048576 AS BIGINT) AS p
    FROM hh CROSS JOIN (VALUES (0), (1), (2), (3)) s(i)
), ins AS (
    SELECT DISTINCT p FROM pos WHERE doc_id % 2 = 0
), hits AS (
    SELECT pos.doc_id, count(DISTINCT pos.i) AS k_hit
    FROM pos JOIN ins USING (p) GROUP BY pos.doc_id
), pass AS (
    SELECT u.doc_id FROM urls u
    LEFT JOIN hits ON u.doc_id = hits.doc_id
    WHERE COALESCE(hits.k_hit, 0) < 4
)
SELECT CAST((SELECT count(*) FROM urls) AS BIGINT) AS n_in,
       CAST((SELECT count(*) FROM pass) AS BIGINT) AS n_passed,
       CAST((SELECT count(*) FROM pass WHERE doc_id % 2 = 0) AS BIGINT)
           AS n_seen_leaked
"""


WEBTEXT_ORACLE_SQL["bloom_dedup_guard"] = _bloom_guard_sql()


# --------------------------------------------------- bigram PMI

def _q_bigram_pmi(sf_dir: str):
    """Collocation mining: top-20 word bigrams by pointwise mutual
    information (min count 5). Distributed end-to-end: one
    (kind, gram) count exchange with per-batch dict partials; the
    UNIGRAM table (vocab-bounded — the justified broadcast, like the
    decontamination benchmark side) ships once via ``ray.put``; PMI
    scoring is a vectorized searchsorted + log over the bigram-count
    stream; top-20 via ``stages/topk.topk``. The driver never holds
    the bigram table."""
    import ray

    def grams(batch: pa.Table) -> pa.Table:
        uni, bi = [], []
        for t in batch["text"].to_pylist():
            toks = t.split()
            uni.extend(toks)
            bi.extend(a + " " + b for a, b in zip(toks, toks[1:]))
        kind = ["u"] * len(uni) + ["b"] * len(bi)
        return pa.Table.from_pydict(
            {
                "kind": pa.array(kind, pa.string()),
                "gram": pa.array(uni + bi, pa.string()),
            }
        )

    counts = aggregate(
        read_documents(sf_dir, ["text"]),
        ["kind", "gram"],
        [("n", "count", None)],
        rows=grams,
    )
    # one count exchange feeds three consumers (totals, unigram
    # broadcast, bigram scoring): materialize the small aggregated
    # table once instead of re-running the corpus scan per consumer
    counts = counts.materialize()

    totals = {
        r["kind"]: r["n"]
        for r in aggregate(counts, "kind", [("n", "sum", "n")]).take_all()
    }
    n_uni, n_bi = float(totals["u"]), float(totals["b"])

    uni_rows = counts.map_batches(
        lambda b: b.filter(pc.equal(b["kind"], "u")).select(["gram", "n"]),
        batch_format="pyarrow",
    ).take_all()  # vocab-bounded broadcast side
    vocab = np.array([r["gram"] for r in uni_rows])
    vcnt = np.array([r["n"] for r in uni_rows], dtype=np.float64)
    order = np.argsort(vocab)
    vocab, vcnt = vocab[order], vcnt[order]
    ref = ray.put((vocab, vcnt))

    def score(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.and_(
                pc.equal(batch["kind"], "b"),
                pc.greater_equal(batch["n"], 5),
            )
        )
        if b.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "bigram": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "pmi": pa.array([], pa.float64()),
                }
            )
        voc, cnt = ray.get(ref)
        grams = b["gram"].to_numpy(zero_copy_only=False)
        parts = np.char.partition(grams.astype(str), " ")
        ca = cnt[np.searchsorted(voc, parts[:, 0])]
        cb = cnt[np.searchsorted(voc, parts[:, 2])]
        c_ab = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.log((c_ab / n_bi) / ((ca / n_uni) * (cb / n_uni)))
        return pa.Table.from_pydict(
            {
                "bigram": pa.array(grams, pa.string()),
                "n": pa.array(c_ab.astype(np.int64), pa.int64()),
                "pmi": pa.array(pmi, pa.float64()),
            }
        )

    # ties broken by bigram asc, like the oracle
    return topk(
        counts.map_batches(score, batch_format="pyarrow"), 20,
        [("pmi", "descending"), ("bigram", "ascending")],
    ).to_pandas()


WEBTEXT_QUERIES["bigram_pmi"] = _q_bigram_pmi
WEBTEXT_ORACLE_SQL["bigram_pmi"] = """
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
),
uni AS (
    SELECT t[i] AS w, count(*) AS c
    FROM toks, UNNEST(range(1, len(t) + 1)) AS r(i)
    GROUP BY t[i]
),
n_uni AS (SELECT sum(c) AS n FROM uni),
bi AS (
    SELECT t[i] AS a, t[i+1] AS b, count(*) AS c
    FROM toks, UNNEST(range(1, len(t))) AS r(i)
    WHERE len(t) >= 2
    GROUP BY t[i], t[i+1]
),
n_bi AS (SELECT sum(c) AS n FROM bi)
SELECT bi.a || ' ' || bi.b AS bigram,
       CAST(bi.c AS BIGINT) AS n,
       ln((bi.c / n_bi.n) /
          ((ua.c / n_uni.n) * (ub.c / n_uni.n))) AS pmi
FROM bi, n_bi, n_uni
JOIN uni ua ON ua.w = bi.a
JOIN uni ub ON ub.w = bi.b
WHERE bi.c >= 5
ORDER BY pmi DESC, bigram
LIMIT 20
"""


# ---------------------------------------- composed curation pipeline

def _q_curate_corpus(sf_dir: str):
    """End-to-end curation showcase — FOUR operators composed into one
    streaming graph (no intermediate materialization except the two
    tiny broadcast pre-passes the operators own):

      inject boilerplate (synthesizer pattern)
      -> cross-doc line dedup  (hot-set broadcast scrub)
      -> quality gate on the CLEAN text (>= 10 tokens AND >= 1 line
         survived)
      -> per-domain cap        (top-5 by clean length, stages/topk.py)

    Output: kept (domain, doc_id, n_chars_clean). The oracle chains
    the same CTEs the per-operator oracles already use."""
    from ..stages.webtext import line_dedup

    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        inject_boilerplate_batch, batch_format="pyarrow"
    )
    cleaned = line_dedup(ds, min_count=5)

    def quality_gate(batch: pa.Table) -> pa.Table:
        # \S+ match count == the oracle's nonempty-token count (a
        # regex SPLIT would count empty artifacts around whitespace)
        toks = pc.count_substring_regex(batch["clean"], pattern=r"\S+")
        kept = batch.filter(
            pc.and_(
                pc.greater_equal(toks, 10),
                pc.greater(batch["n_lines"], batch["n_removed"]),
            )
        )
        ids = kept["doc_id"].to_numpy(zero_copy_only=False)
        dom = pc.binary_join_element_wise(
            "site",
            pc.utf8_lpad(
                pc.cast(
                    pa.array((ids % 50).astype(np.int64)), pa.string()
                ),
                width=2,
                padding="0",
            ),
            ".example.org",
            "",
        )
        return pa.Table.from_pydict(
            {
                "domain": dom,
                "doc_id": kept["doc_id"],
                "n_chars": pc.cast(
                    pc.utf8_length(kept["clean"]), pa.int64()
                ),
            }
        )

    gated = cleaned.map_batches(quality_gate, batch_format="pyarrow")
    out = topk_per_group(gated, "domain", 5, _LONGEST_FIRST)
    df = (
        out.to_pandas()
        .rename(columns={"n_chars": "n_chars_clean"})
        .sort_values(["domain", "doc_id"])
        .reset_index(drop=True)
    )
    return df


WEBTEXT_QUERIES["curate_corpus"] = _q_curate_corpus
WEBTEXT_ORACLE_SQL["curate_corpus"] = """
WITH aug AS (
    SELECT doc_id,
           CASE WHEN doc_id % 2 = 0
                THEN 'subscribe to newsletter '
                     || CAST(doc_id % 4 AS VARCHAR) || chr(10)
                ELSE '' END
           || text
           || CASE WHEN doc_id % 3 = 0
                   THEN chr(10) || 'copyright footer '
                        || CAST(doc_id % 7 AS VARCHAR)
                   ELSE '' END
           || CASE WHEN doc_id % 25 = 0
                   THEN chr(10) || 'promo '
                        || CAST(doc_id % 100 AS VARCHAR)
                   ELSE '' END
           AS text
    FROM documents
),
ls AS (
    SELECT doc_id, string_split(text, chr(10)) AS l FROM aug
),
lines AS (
    SELECT doc_id, l[i] AS line, i
    FROM ls, UNNEST(range(1, len(l) + 1)) AS r(i)
),
counts AS (SELECT line, count(*) AS c FROM lines GROUP BY line),
cleaned AS (
    SELECT l.doc_id,
           CAST(count(*) AS BIGINT) AS n_lines,
           CAST(sum(CASE WHEN c.c >= 5 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_removed,
           coalesce(string_agg(CASE WHEN c.c < 5 THEN l.line END,
                               chr(10) ORDER BY l.i), '') AS clean
    FROM lines l JOIN counts c ON l.line = c.line
    GROUP BY l.doc_id
),
gated AS (
    SELECT 'site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || '.example.org' AS domain,
           doc_id,
           CAST(length(clean) AS BIGINT) AS n_chars_clean
    FROM cleaned
    WHERE len(list_filter(regexp_split_to_array(clean, '\\s+'),
                          x -> x <> '')) >= 10
      AND n_lines > n_removed
)
SELECT domain, doc_id, n_chars_clean
FROM (
    SELECT domain, doc_id, n_chars_clean,
           row_number() OVER (PARTITION BY domain
                              ORDER BY n_chars_clean DESC, doc_id) AS rn
    FROM gated
)
WHERE rn <= 5
ORDER BY domain, doc_id
"""


# ------------------------------------------- Gopher quality rules

def inject_structure_batch(batch: pa.Table) -> pa.Table:
    """Deterministic structural augmentation (pure function of doc_id
    — the pages-synthesizer pattern): docs with doc_id % 7 == 0 gain a
    3-line bullet list, % 11 a symbol/ellipsis block, so the
    line-based Gopher rules are non-degenerate on the newline-free
    synthetic corpus. The oracle CTE reconstructs the same text."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    s_id = pc.cast(batch["doc_id"], pa.string())

    def s(arr: np.ndarray):
        return pc.cast(pa.array(arr.astype(np.int64)), pa.string())

    bullets = pc.binary_join_element_wise(
        "\n- list item ",
        s(ids % 5),
        "\n- another item\n- third item",
        "",
    )
    symbols = pc.binary_join_element_wise(
        "\n### noise ### ",
        s(ids % 9),
        " ...\nmore text follows...",
        "",
    )
    empty = pa.scalar("", pa.string())
    text = pc.binary_join_element_wise(
        batch["text"],
        pc.if_else(pa.array(ids % 7 == 0), bullets, empty),
        pc.if_else(pa.array(ids % 11 == 0), symbols, empty),
        "",
    )
    return pa.Table.from_pydict({"doc_id": batch["doc_id"], "text": text})


def _q_gopher_filter(sf_dir: str):
    """Gopher-style quality rules (Rae et al. 2021): per-doc integer
    structure counts + first-matching-rule verdict. One vectorized
    Arrow RE2 pass; the oracle recomputes every count with
    INDEPENDENT spellings (regexp_extract_all + list lambdas vs the
    engine's non-overlapping-match counting tricks)."""
    from ..stages.webtext import gopher_filter

    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        inject_structure_batch, batch_format="pyarrow"
    )
    out = gopher_filter(ds, keep_only=False)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


_STRUCT_AUG_CTE = """
WITH aug AS (
    SELECT doc_id,
           text
           || CASE WHEN doc_id % 7 = 0
                   THEN chr(10) || '- list item ' || CAST(doc_id % 5 AS VARCHAR)
                        || chr(10) || '- another item'
                        || chr(10) || '- third item'
                   ELSE '' END
           || CASE WHEN doc_id % 11 = 0
                   THEN chr(10) || '### noise ### ' || CAST(doc_id % 9 AS VARCHAR)
                        || ' ...' || chr(10) || 'more text follows...'
                   ELSE '' END
           AS text
    FROM documents
)
"""

WEBTEXT_QUERIES["gopher_filter"] = _q_gopher_filter
WEBTEXT_ORACLE_SQL["gopher_filter"] = (
    _STRUCT_AUG_CTE
    + """
, m AS (
    SELECT doc_id,
           regexp_extract_all(text, '\\S+') AS words,
           string_split(text, chr(10)) AS lines,
           text
    FROM aug
), c AS (
    SELECT doc_id,
           CAST(len(words) AS BIGINT) AS n_words,
           CAST(coalesce(list_aggregate(
               list_transform(words, w -> length(w)), 'sum'), 0)
               AS BIGINT) AS n_word_chars,
           CAST(len(list_filter(words,
               w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT)
               AS n_alpha_words,
           CAST(length(text) - length(replace(text, '#', ''))
               + (length(text) - length(replace(text, '...', ''))) // 3
               AS BIGINT) AS n_symbols,
           CAST(len(lines) AS BIGINT) AS n_lines,
           CAST(len(list_filter(lines,
               l -> starts_with(l, '- ') OR starts_with(l, '* ')))
               AS BIGINT) AS n_bullet_lines,
           CAST(len(list_filter(lines, l -> ends_with(l, '...')))
               AS BIGINT) AS n_ellipsis_lines,
           CAST((CASE WHEN list_contains(words, 'the') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'a') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'and') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'of') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'to') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'in') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'is') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'it') THEN 1 ELSE 0 END)
               AS BIGINT) AS n_stop
    FROM m
)
SELECT doc_id, n_words, n_word_chars, n_alpha_words, n_symbols, n_lines,
       n_bullet_lines, n_ellipsis_lines, n_stop,
       CASE
         WHEN n_words < 30 OR n_words > 100000 THEN 'bad_word_count'
         WHEN 3*n_words > n_word_chars OR n_word_chars > 10*n_words
              THEN 'bad_mean_word_len'
         WHEN 10*n_symbols > n_words THEN 'high_symbol_ratio'
         WHEN 2*n_bullet_lines > n_lines THEN 'too_many_bullets'
         WHEN 10*n_ellipsis_lines > 3*n_lines THEN 'too_many_ellipsis'
         WHEN 5*n_alpha_words < 4*n_words THEN 'low_alpha_words'
         WHEN n_stop < 2 THEN 'few_stopwords'
         ELSE 'keep'
       END AS verdict
FROM c
ORDER BY doc_id
"""
)


# ------------------------------- windowed exact-substring duplication

def _q_substring_dedup(sf_dir: str):
    """Exact-substring duplicate flags (Lee et al. 2022 shape): docs
    sharing any 8-token window with another doc, plus the count of
    their distinct shared windows. Rolling-poly window hashes in the
    engine; the oracle groups by md5 of the space-joined window —
    equal groupings up to the engine-wide 2^-64 hash contract."""
    from ..stages.webtext import substring_dedup

    ds = read_documents(sf_dir, ["doc_id", "text"])
    out = substring_dedup(ds, w=8, min_docs=2)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


WEBTEXT_QUERIES["substring_dedup"] = _q_substring_dedup
WEBTEXT_ORACLE_SQL["substring_dedup"] = """
WITH toks AS (
    SELECT doc_id, regexp_extract_all(text, '\\S+') AS words
    FROM documents
), wins AS (
    SELECT DISTINCT doc_id,
           md5(array_to_string(words[i:i+7], ' ')) AS h
    FROM toks, UNNEST(generate_series(1, len(words) - 7)) AS t(i)
), hot AS (
    SELECT h FROM wins GROUP BY h HAVING count(*) >= 2
)
SELECT w.doc_id, CAST(count(*) AS BIGINT) AS n_shared
FROM wins w JOIN hot USING (h)
GROUP BY w.doc_id
ORDER BY w.doc_id
"""


# ------------------------------ bigram LM quality scoring (CCNet shape)

def _q_lm_perplexity(sf_dir: str):
    """CCNet-style LM quality scores: add-one-smoothed bigram model
    trained on the corpus (top-24 vocab + UNK), per-doc bits-per-token
    under it. The oracle retrains the identical model in SQL (window
    row_number vocab, UNK mapping, bigram/prev-total CTEs) — the whole
    estimator cross-validated end-to-end, not just the plumbing."""
    from ..stages.webtext import bigram_lm_score

    ds = read_documents(sf_dir, ["doc_id", "text"])
    out = bigram_lm_score(ds, top_v=24)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


WEBTEXT_QUERIES["lm_perplexity"] = _q_lm_perplexity

# the model-training CTE chain, shared by lm_perplexity and the
# ccnet_buckets composition oracle
_LM_SCORED_CTE = """
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
), exploded AS (
    SELECT doc_id, i, t[i] AS w
    FROM toks, UNNEST(range(1, len(t) + 1)) AS r(i)
), uni AS (
    SELECT w, count(*) AS c FROM exploded GROUP BY w
), vocab AS (
    SELECT w FROM uni
    QUALIFY row_number() OVER (ORDER BY c DESC, w) <= 24
), vsz AS (
    SELECT count(*) + 1 AS v FROM vocab
), mapped AS (
    SELECT e.doc_id, e.i,
           CASE WHEN v.w IS NULL THEN chr(1) ELSE e.w END AS w
    FROM exploded e LEFT JOIN vocab v ON e.w = v.w
), pairs AS (
    SELECT a.doc_id, a.w AS pw, b.w AS nw
    FROM mapped a JOIN mapped b
      ON a.doc_id = b.doc_id AND b.i = a.i + 1
), bi AS (
    SELECT pw, nw, count(*) AS c FROM pairs GROUP BY pw, nw
), ptot AS (
    SELECT pw, sum(c) AS c FROM bi GROUP BY pw
), scored AS (
    SELECT p.doc_id,
           CAST(count(*) AS BIGINT) AS n_scored,
           sum(-log2((bi.c + 1) / (ptot.c + vsz.v))) / count(*) AS bpt
    FROM pairs p
    JOIN bi ON bi.pw = p.pw AND bi.nw = p.nw
    JOIN ptot ON ptot.pw = p.pw
    CROSS JOIN vsz
    GROUP BY p.doc_id
)
"""

WEBTEXT_ORACLE_SQL["lm_perplexity"] = (
    _LM_SCORED_CTE + "SELECT doc_id, n_scored, bpt FROM scored ORDER BY doc_id"
)


def _q_ccnet_buckets(sf_dir: str):
    """The full CCNet selection step: LM-score every document, then
    bucket the corpus into head/middle/tail by EXACT global perplexity
    tertiles. Scores are fixed-pointed to integer milli-bits (explicit
    half-away-from-zero, the repo-wide convention) so the tertiles are
    exact ``stages.selection.quantiles`` at 1/3 and 2/3 (DuckDB
    ``quantile_disc`` ranks, integer arithmetic). The scored table is
    materialized once between the two consumers (quantiles + bucket
    probe); at cluster scale that intermediate is a
    3-fixed-width-column parquet checkpoint instead."""
    from fractions import Fraction

    import ray.data

    from ..stages.selection import quantiles
    from ..stages.webtext import bigram_lm_score

    scored = bigram_lm_score(
        read_documents(sf_dir, ["doc_id", "text"]), top_v=24
    )

    def to_milli(batch: pa.Table) -> pa.Table:
        bpt = batch["bpt"].to_numpy(zero_copy_only=False)
        milli = np.floor(bpt * 1000.0 + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "n_scored": batch["n_scored"],
                "milli_bpt": pa.array(milli, pa.int64()),
            }
        )

    sm = scored.map_batches(to_milli, batch_format="pyarrow").materialize()
    th = quantiles(sm, "milli_bpt",
                   {"t1": Fraction(1, 3), "t2": Fraction(2, 3)})
    t1, t2 = int(th["t1"][0]), int(th["t2"][0])

    def bucket(batch: pa.Table) -> pa.Table:
        m = batch["milli_bpt"].to_numpy(zero_copy_only=False)
        b = np.select(
            [m <= t1, m <= t2], ["head", "middle"], default="tail"
        )
        return batch.append_column("bucket", pa.array(b, pa.string()))

    out = sm.map_batches(bucket, batch_format="pyarrow")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


WEBTEXT_QUERIES["ccnet_buckets"] = _q_ccnet_buckets
WEBTEXT_ORACLE_SQL["ccnet_buckets"] = (
    _LM_SCORED_CTE
    + """
, sm AS (
    SELECT doc_id, n_scored,
           CAST(floor(bpt * 1000 + 0.5) AS BIGINT) AS milli_bpt
    FROM scored
), th AS (
    SELECT quantile_disc(milli_bpt, 1.0/3) AS t1,
           quantile_disc(milli_bpt, 2.0/3) AS t2
    FROM sm
)
SELECT doc_id, n_scored, milli_bpt,
       CASE WHEN milli_bpt <= th.t1 THEN 'head'
            WHEN milli_bpt <= th.t2 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM sm CROSS JOIN th
ORDER BY doc_id
"""
)


# ---------------------------- intra-document duplicate-line fractions

def inject_dup_lines_batch(batch: pa.Table) -> pa.Table:
    """Deterministic within-doc line duplication (pure function of
    doc_id): % 3 docs gain a short line twice, % 4 docs a long filler
    line twice — so both the line-fraction and char-fraction rules
    fire on the newline-free synthetic corpus."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)

    def s(arr: np.ndarray):
        return pc.cast(pa.array(arr.astype(np.int64)), pa.string())

    short = pc.binary_join_element_wise(
        "\ndup line ", s(ids % 4), "\ndup line ", s(ids % 4), ""
    )
    # one duplicated LONG line pair + five unique short lines: the
    # dup-line fraction stays under 30% while the dup-char fraction
    # crosses 20% -> exercises the second rule
    big = "boiler" * 33
    long = pc.binary_join_element_wise(
        f"\n{big}\n{big}\nuq one ",
        s(ids % 7),
        "\nuq two ",
        s(ids % 7),
        "\nuq three\nuq four\nuq five",
        "",
    )
    empty = pa.scalar("", pa.string())
    text = pc.binary_join_element_wise(
        batch["text"],
        pc.if_else(pa.array(ids % 3 == 0), short, empty),
        pc.if_else(pa.array(ids % 4 == 0), long, empty),
        "",
    )
    return pa.Table.from_pydict({"doc_id": batch["doc_id"], "text": text})


def _q_doc_dup_lines(sf_dir: str):
    """Within-document duplicate-line/char fractions (the remaining
    Gopher repetition signals next to doc_repetition's n-gram rule):
    dup = total - distinct, verdict at the Gopher 30%/20% bars."""
    from ..stages.webtext import intra_doc_dup_batch

    ds = (
        read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(inject_dup_lines_batch, batch_format="pyarrow")
        .map_batches(intra_doc_dup_batch, batch_format="pyarrow")
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


_DUP_AUG_CTE = """
WITH aug AS (
    SELECT doc_id,
           text
           || CASE WHEN doc_id % 3 = 0
                   THEN chr(10) || 'dup line ' || CAST(doc_id % 4 AS VARCHAR)
                     || chr(10) || 'dup line ' || CAST(doc_id % 4 AS VARCHAR)
                   ELSE '' END
           || CASE WHEN doc_id % 4 = 0
                   THEN chr(10) || repeat('boiler', 33)
                     || chr(10) || repeat('boiler', 33)
                     || chr(10) || 'uq one ' || CAST(doc_id % 7 AS VARCHAR)
                     || chr(10) || 'uq two ' || CAST(doc_id % 7 AS VARCHAR)
                     || chr(10) || 'uq three'
                     || chr(10) || 'uq four'
                     || chr(10) || 'uq five'
                   ELSE '' END
           AS text
    FROM documents
)
"""

WEBTEXT_QUERIES["doc_dup_lines"] = _q_doc_dup_lines
WEBTEXT_ORACLE_SQL["doc_dup_lines"] = (
    _DUP_AUG_CTE
    + """
, m AS (
    SELECT doc_id,
           string_split(text, chr(10)) AS lines
    FROM aug
), c AS (
    SELECT doc_id,
           CAST(len(lines) AS BIGINT) AS n_lines,
           CAST(len(lines) - len(list_distinct(lines)) AS BIGINT)
               AS n_dup_lines,
           CAST(coalesce(list_aggregate(
               list_transform(lines, l -> length(l)), 'sum'), 0)
               AS BIGINT) AS chars_total,
           CAST(coalesce(list_aggregate(
                   list_transform(lines, l -> length(l)), 'sum'), 0)
              - coalesce(list_aggregate(
                   list_transform(list_distinct(lines), l -> length(l)),
                   'sum'), 0)
               AS BIGINT) AS chars_dup
    FROM m
)
SELECT doc_id, n_lines, n_dup_lines, chars_total, chars_dup,
       CASE
         WHEN 10 * n_dup_lines > 3 * n_lines THEN 'dup_lines'
         WHEN 10 * chars_dup > 2 * chars_total THEN 'dup_chars'
         ELSE 'keep'
       END AS verdict
FROM c
ORDER BY doc_id
"""
)


def _q_doc_score_auc(sf_dir: str):
    """Ranking-quality AUC of the hashed-linear scorer at separating
    English documents: every doc ranked by (score ASC, doc_id) on one
    sorted scan (``stages.window.over``; exact, near-unique float keys),
    then AUC = (R_en - n_en(n_en+1)/2) / (n_en * n_rest) from the
    EXACT integer rank sum of the English docs — ties broken by
    doc_id identically in both engines (scores are bit-equal because
    the scorer itself is oracle-replayed; under a float tie this is
    row_number-AUC, documented). The lang flag joins back via one
    bucketed hash join; rank-sum partials reduce as three integers."""
    import pandas as pd
    import pyarrow as pa

    from ..stages.relational import partitioned_hash_join
    from ..stages.webtext import HashedLinearScorer
    from ..stages.window import over

    scored = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        HashedLinearScorer,
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    ranked = over(scored, [], ["score", "doc_id"]).map_batches(
        lambda b: pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "rnk": b["rn"]}
        ),
        batch_format="pyarrow",
    )
    flags = read_documents(sf_dir, ["doc_id", "lang"]).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "is_en": pa.compute.cast(
                    pa.compute.equal(b["lang"], "en"), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = partitioned_hash_join(
        ranked, flags, key="doc_id"
    )

    agg = aggregate(
        joined,
        [],
        [("r_en", "sum", "r"), ("n_en", "sum", "is_en"),
         ("n_all", "count", None)],
        rows=lambda b: pa.table(
            {
                "r": pc.multiply(pc.cast(b["rnk"], pa.int64()), b["is_en"]),
                "is_en": b["is_en"],
            }
        ),
    )
    r_en, n_en, n_all = (
        int(agg["r_en"]), int(agg["n_en"]), int(agg["n_all"])
    )
    n_rest = n_all - n_en
    u_en = r_en - n_en * (n_en + 1) // 2
    return pd.DataFrame(
        {
            "n_en": [n_en],
            "n_rest": [n_rest],
            "rank_sum_en": [r_en],
            "auc": [u_en / (n_en * n_rest) if n_en and n_rest
                    else 0.0],
        }
    )


WEBTEXT_QUERIES["doc_score_auc"] = _q_doc_score_auc
WEBTEXT_ORACLE_SQL["doc_score_auc"] = """
WITH toks AS (
    SELECT doc_id, lang,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
), sc AS (
    SELECT doc_id, lang,
           CASE WHEN len(t) = 0 THEN 0.0
                ELSE list_sum(list_transform(t,
                     x -> ((length(x) * 2654435761) % 1000) / 1000.0
                          - 0.5)) / len(t) END AS score
    FROM toks
), r AS (
    SELECT doc_id, lang,
           row_number() OVER (ORDER BY score ASC, doc_id ASC) AS rnk
    FROM sc
), s AS (
    SELECT CAST(sum(CASE WHEN lang = 'en' THEN rnk ELSE 0 END)
                AS BIGINT) AS r_en,
           CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                AS BIGINT) AS n_en,
           CAST(count(*) AS BIGINT) AS n_all
    FROM r
)
SELECT n_en, n_all - n_en AS n_rest, r_en AS rank_sum_en,
       CASE WHEN n_en > 0 AND n_all - n_en > 0
            THEN CAST(r_en - n_en * (n_en + 1) // 2 AS DOUBLE)
                 / CAST(n_en * (n_all - n_en) AS DOUBLE)
            ELSE 0.0 END AS auc
FROM s
"""


def _q_doc_score_gains(sf_dir: str):
    """Gains/lift table for the hashed-linear scorer: documents
    bucketed into deciles by (score DESC, doc_id) rank — rank-based
    binning, so every bin edge is exact integer arithmetic over the
    sort-based global row_number (value-based bins would inherit
    float-boundary risk) — with exact per-decile English counts and
    the cumulative recall curve as running ratios of exact integers.
    The model-eval companion of doc_score_auc."""
    import pyarrow as pa

    from ..stages.relational import partitioned_hash_join
    from ..stages.webtext import HashedLinearScorer
    from ..stages.window import ntile_of_rank, over

    scored = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        HashedLinearScorer, batch_format="pyarrow", concurrency=(1, 4)
    )
    ranked = over(
        scored, [], ["score", "doc_id"], descending=[True, False]
    ).map_batches(
        lambda b: pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "rnk": b["rn"], "n": b["n"]}
        ),
        batch_format="pyarrow",
    )
    flags = read_documents(sf_dir, ["doc_id", "lang"]).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "is_en": pa.compute.cast(
                    pa.compute.equal(b["lang"], "en"), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = partitioned_hash_join(
        ranked, flags, key="doc_id"
    )

    def deciles(b: pa.Table) -> pa.Table:
        rnk = b["rnk"].to_numpy(zero_copy_only=False)
        n_all = b["n"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "decile": pa.array(
                    ntile_of_rank(rnk, n_all, 10), pa.int64()
                ),
                "en": b["is_en"],
            }
        )

    out = (
        aggregate(
            joined,
            "decile",
            [("n", "count", None), ("n_en", "sum", "en")],
            rows=deciles,
        )
        .to_pandas()
        .sort_values("decile")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    tot_en = int(out["n_en"].sum())
    cum = 0
    rec = []
    for v in out["n_en"]:
        cum += int(v)
        rec.append(cum / tot_en if tot_en else 0.0)
    out["cum_recall"] = rec
    return out


WEBTEXT_QUERIES["doc_score_gains"] = _q_doc_score_gains
WEBTEXT_ORACLE_SQL["doc_score_gains"] = """
WITH toks AS (
    SELECT doc_id, lang,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
), sc AS (
    SELECT doc_id, lang,
           CASE WHEN len(t) = 0 THEN 0.0
                ELSE list_sum(list_transform(t,
                     x -> ((length(x) * 2654435761) % 1000) / 1000.0
                          - 0.5)) / len(t) END AS score
    FROM toks
), r AS (
    SELECT lang,
           CAST(ntile(10) OVER (ORDER BY score DESC, doc_id ASC)
                AS BIGINT) AS decile
    FROM sc
), d AS (
    SELECT decile, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                AS BIGINT) AS n_en
    FROM r GROUP BY decile
)
SELECT decile, n, n_en,
       CAST(sum(n_en) OVER (ORDER BY decile) AS DOUBLE)
           / (SELECT CAST(sum(n_en) AS DOUBLE) FROM d) AS cum_recall
FROM d ORDER BY decile
"""


# ------------------------------- exact duplicate-span removal

def _q_dup_span_removal(sf_dir: str):
    """Every 8-token span occurring >= 2x corpus-wide is deleted from
    every document containing it (Lee et al. 2022 substring-dedup
    family, remove-all policy — see ``stages/spans.py`` for the
    broadcast/partitioned twins and the one-exchange argument).
    Returns only the docs that lost tokens."""
    import pandas as pd

    from ..stages.spans import dup_span_removal

    out = dup_span_removal(
        read_documents(sf_dir, ["doc_id", "text"]), w=8, min_count=2
    ).to_pandas()
    if out.empty:  # empty-dataset to_pandas loses columns (CLAUDE.md)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "n_tokens": pd.Series(dtype="int64"),
                "n_removed": pd.Series(dtype="int64"),
                "text_clean": pd.Series(dtype="object"),
            }
        )
    for c in ("doc_id", "n_tokens", "n_removed"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


WEBTEXT_QUERIES["dup_span_removal"] = _q_dup_span_removal
WEBTEXT_ORACLE_SQL["dup_span_removal"] = """
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS words
    FROM documents
),
grams AS (
    SELECT doc_id, i, array_to_string(words[i:i+7], ' ') AS gram
    FROM toks,
         LATERAL (SELECT unnest(range(1, len(words) - 8 + 2)) AS i) r(i)
    WHERE len(words) >= 8
),
dup AS (
    SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2
),
marks AS (
    SELECT DISTINCT g.doc_id, g.i + o.off AS pos
    FROM grams g JOIN dup USING (gram),
         LATERAL (SELECT unnest(range(0, 8)) AS off) o(off)
),
wordpos AS (
    SELECT doc_id, j, words[j] AS w
    FROM toks, LATERAL (SELECT unnest(range(1, len(words) + 1)) AS j) r(j)
),
removed AS (
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_removed
    FROM marks GROUP BY doc_id
),
clean AS (
    SELECT wp.doc_id, string_agg(wp.w, ' ' ORDER BY wp.j) AS text_clean
    FROM wordpos wp
    LEFT JOIN marks m ON wp.doc_id = m.doc_id AND wp.j = m.pos
    WHERE m.pos IS NULL
    GROUP BY wp.doc_id
)
SELECT r.doc_id,
       CAST(len(t.words) AS BIGINT) AS n_tokens,
       r.n_removed,
       COALESCE(c.text_clean, '') AS text_clean
FROM removed r
JOIN toks t USING (doc_id)
LEFT JOIN clean c USING (doc_id)
ORDER BY r.doc_id
"""


# ------------------------------------------- BM25 top-k retrieval

BM25_TERMS = ("data", "spark", "batch")  # common at sf0.01 AND sf0.1
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOPK = 15


def _q_bm25_topk(sf_dir: str):
    """Okapi BM25 top-15 docs for a fixed 3-term query. Two passes:
    a tiny fixed-width sufficient-stats fold (N, sum(dl), df per
    term — one row per block, driver sums python ints), then a score
    map and ``stages/topk.topk`` (driver merges <= K x blocks rows).
    The float formula is transcribed into the oracle with the EXACT
    association (FLOAT-MIRROR contract); ln on identical double inputs
    matches DuckDB (the doc_tfidf precedent)."""
    import math

    import pandas as pd

    docs = read_documents(sf_dir, ["doc_id", "text"])
    terms = BM25_TERMS

    def doc_stats(batch: pa.Table) -> pa.Table:
        dl, has = [], [[] for _ in terms]
        for text in batch["text"].to_pylist():
            words = text.split()
            dl.append(len(words))
            ws = set(words)
            for ti, t in enumerate(terms):
                has[ti].append(int(t in ws))
        cols = {"dl": pa.array(dl, pa.int64())}
        for ti in range(len(terms)):
            cols[f"has_{ti}"] = pa.array(has[ti], pa.int64())
        return pa.table(cols)

    st = aggregate(
        docs,
        [],
        [("n_docs", "count", None), ("dl_sum", "sum", "dl")]
        + [(f"df_{ti}", "sum", f"has_{ti}") for ti in range(len(terms))],
        rows=doc_stats,
    )
    n = st["n_docs"]
    dl_sum = int(st["dl_sum"])
    dfs = [int(st[f"df_{ti}"]) for ti in range(len(terms))]
    avgdl = dl_sum / n
    # idf_t = ln((N - df + 0.5) / (df + 0.5) + 1.0) — SQL-mirrored
    idfs = [
        math.log((n - df + 0.5) / (df + 0.5) + 1.0) for df in dfs
    ]

    def scores(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            words = text.split()
            dl = len(words)
            tfs = [words.count(t) for t in terms]
            if not any(tfs):
                continue
            score = 0.0
            for ti in range(len(terms)):
                tf = tfs[ti]
                # EXACT association mirrored in the oracle:
                # idf * ((tf * (k1 + 1.0)) /
                #        (tf + k1 * (1.0 - b + b * dl / avgdl)))
                score = score + idfs[ti] * (
                    (tf * (BM25_K1 + 1.0))
                    / (tf + BM25_K1 * (1.0 - BM25_B
                                       + BM25_B * dl / avgdl))
                )
            rows.append((doc_id, score))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "score": pa.array([r[1] for r in rows], pa.float64()),
            }
        )

    out = topk(
        docs.map_batches(scores, batch_format="pyarrow"), BM25_TOPK,
        [("score", "descending"), ("doc_id", "ascending")],
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "score": pd.Series(dtype="float64"),
            }
        )
    return out


def _bm25_oracle() -> str:
    terms = BM25_TERMS
    tf_cols = ",\n           ".join(
        f"len(list_filter(words, x -> x = '{t}')) AS tf_{ti}"
        for ti, t in enumerate(terms)
    )
    # e-notation literals parse as DOUBLE in DuckDB (bare 1.2 would be
    # DECIMAL(2,1) and break the FLOAT-MIRROR bit contract)
    k1 = f"{BM25_K1!r}e0"
    k1p1 = f"{(BM25_K1 + 1.0)!r}e0"
    one_m_b = f"{(1.0 - BM25_B)!r}e0"
    b_lit = f"{BM25_B!r}e0"
    idf = lambda ti: (  # noqa: E731
        f"ln((CAST(n AS DOUBLE) - df_{ti} + 0.5e0)"
        f" / (df_{ti} + 0.5e0) + 1.0e0)"
    )
    score_terms = " + ".join(
        f"{idf(ti)} * ((tf_{ti} * {k1p1}) / (tf_{ti} + {k1} *"
        f" ({one_m_b} + {b_lit} * dl / avgdl)))"
        for ti in range(len(terms))
    )
    any_tf = " + ".join(f"tf_{ti}" for ti in range(len(terms)))
    return f"""
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS words
    FROM documents
),
tf AS (
    SELECT doc_id, len(words) AS dl,
           {tf_cols}
    FROM toks
),
stats AS (
    SELECT CAST(count(*) AS BIGINT) AS n,
           CAST(sum(dl) AS BIGINT) AS dl_sum,
           {", ".join(
               f"CAST(sum(CASE WHEN tf_{ti} > 0 THEN 1 ELSE 0 END)"
               f" AS BIGINT) AS df_{ti}" for ti in range(len(terms))
           )}
    FROM tf
),
scored AS (
    SELECT doc_id,
           {score_terms.replace("avgdl",
                                "(CAST(dl_sum AS DOUBLE) / n)")} AS score
    FROM tf, stats
    WHERE {any_tf} > 0
)
SELECT doc_id, score FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {BM25_TOPK}
"""


WEBTEXT_QUERIES["bm25_topk"] = _q_bm25_topk
WEBTEXT_ORACLE_SQL["bm25_topk"] = _bm25_oracle()
