"""Training-data-pipeline queries + oracles (dedup family, similarity
search, text analysis, multimodal plumbing, event windows).

Joined into the driver surface by ``pipelines.queries``.
"""

from typing import Callable, Dict

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textstats import _LANG_MARKERS, STOPWORDS
from ..sources.pages import read_documents
from ..stages.aggregate import aggregate


def _q_dedup_ngram(sf_dir: str):
    """N-gram Jaccard near-duplicate pairs (shingle -> capped inverted-index candidates -> exact verify, auto physical plan)."""
    from ..stages.neardup import neardup_pairs

    ds = neardup_pairs(
        read_documents(sf_dir, ["doc_id", "text"]),
        method="ngram",
        threshold=0.5,
    )
    return (
        ds.to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def _q_dedup_minhash(sf_dir: str):
    """MinHash-LSH candidates (128 perms, 64 bands x 2 rows: miss prob
    for a J>=0.5 pair is (1-J^2)^64 <= 1e-8) + exact-Jaccard verify —
    same logical answer as dedup_ngram, so it shares that oracle."""
    from ..stages.neardup import neardup_pairs

    ds = neardup_pairs(
        read_documents(sf_dir, ["doc_id", "text"]),
        method="minhash",
        threshold=0.5,
        num_perm=128,
        bands=64,
        rows=2,
    )
    return (
        ds.to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def _q_dedup_ngram_partitioned(sf_dir: str):
    """Same logical operator as dedup_ngram, forced onto the
    no-broadcast 10^12-doc plan — now the blob-free counts plan
    (intersection counts + per-doc set sizes ride the exchange; no
    shingle-blob joins) — sharing the exact-Jaccard oracle, proving
    plan equivalence under the driver gate."""
    from ..stages.neardup import neardup_pairs

    ds = neardup_pairs(
        read_documents(sf_dir, ["doc_id", "text"]),
        method="ngram",
        threshold=0.5,
        verify="counts",
    )
    return (
        ds.to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def _q_dedup_simhash(sf_dir: str):
    """SimHash pairs within hamming<=3. Oracled: ``stable_hash64`` is
    md5-derived (== DuckDB ``md5_number_upper``), so the oracle
    rebuilds every 64-bit signature with per-bit majority votes over
    the shingle hashes and compares ``bit_count(xor(...))``."""
    from ..stages.neardup import simhash_pairs

    ds = simhash_pairs(
        read_documents(sf_dir, ["doc_id", "text"]), max_hamming=3
    )
    return (
        ds.to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def _q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k ANN for 8 query vectors (partial-top-k combiner per batch; the exact baseline the IVF/LSH paths are pinned against)."""
    import ray.data

    from ..stages.similarity import ann_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    ds = ann_topk(emb, query_ids=list(range(8)), k=10)
    return (
        ds.to_pandas()
        .sort_values(["query_id", "neighbor_id"])
        .reset_index(drop=True)
    )


def _q_embedding_neardup(sf_dir: str):
    """Exact cosine near-duplicate pairs over the embedding column via the block-pair theta join (no broadcast corpus state)."""
    import ray.data

    from ..stages.similarity import embedding_neardup

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    ds = embedding_neardup(emb, threshold=0.4)
    df = ds.to_pandas()[["vec_a", "vec_b"]]
    return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def _q_text_quality(sf_dir: str):
    """Length/punctuation/stopword quality scores per document (C4/Gopher-style feature kernels)."""
    from ..stages.textstage import quality_batch

    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow"
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_lang_id(sf_dir: str):
    """N-gram-heuristic language identification per document vs the labeled lang column."""
    from ..stages.textstage import langid_batch

    ds = read_documents(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        langid_batch, batch_format="pyarrow"
    )
    return (
        ds.to_pandas()[["doc_id", "lang_pred"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_doc_winnow(sf_dir: str):
    """Winnowing fingerprints flattened to (doc_id, hash) rows.
    Oracled: the Rabin-Karp rolling hash over CODEPOINTS is rebuilt in
    SQL as a direct windowed polynomial sum with an embedded
    base-power table (``_WINNOW_SQL``)."""
    from ..stages.textstage import fingerprint_batch

    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )

    def flatten(batch: pa.Table) -> pa.Table:
        # vectorized list explode: child buffer + repeat on lengths
        import numpy as np
        import pyarrow.compute as pc

        col = batch["fingerprint"].combine_chunks()
        lengths = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        ids = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), lengths
        )
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "fp_hash": col.flatten().cast(pa.uint64())}
        )

    return (
        ds.map_batches(flatten, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["doc_id", "fp_hash"])
        .reset_index(drop=True)
    )


def _q_multimodal_decode(sf_dir: str):
    """Image decode/resize actor-pool stage over the synthetic binary image format (codec-gated; deterministic fake decode)."""
    from ..stages.multimodal import image_pipeline

    ds = image_pipeline(read_documents(sf_dir, ["doc_id"]))
    df = ds.to_pandas()[
        ["doc_id", "width", "height", "channels", "n_bytes", "status",
         "resized_w", "resized_h"]
    ]
    return df.sort_values("doc_id").reset_index(drop=True)


_STRATA_PERMILLE = {"en": 800, "de": 500, "fr": 500, "es": 250, "ja": 100}
_STRATA_DEFAULT_PERMILLE = 100
# Knuth multiplicative hash — pure BIGINT arithmetic so the oracle
# reproduces the sample membership exactly
_STRATA_MIX = 2654435761
_STRATA_MOD = 1 << 32


def stratified_keep(doc_id: int, lang: str) -> bool:
    rate = _STRATA_PERMILLE.get(lang, _STRATA_DEFAULT_PERMILLE)
    return (doc_id * _STRATA_MIX) % _STRATA_MOD % 1000 < rate


def stratified_keep_mask(doc_ids, langs) -> "pa.Array":
    """Vectorized membership: same pure function of (doc_id, lang) as
    :func:`stratified_keep`, computed over whole columns."""
    import numpy as np

    d = np.asarray(doc_ids, dtype=np.uint64)
    bucket = (d * np.uint64(_STRATA_MIX)) % np.uint64(_STRATA_MOD) % np.uint64(1000)
    uniq, codes = np.unique(np.asarray(langs), return_inverse=True)
    rates = np.array(
        [_STRATA_PERMILLE.get(l, _STRATA_DEFAULT_PERMILLE) for l in uniq],
        dtype=np.uint64,
    )
    return pa.array(bucket < rates[codes], pa.bool_())


def _q_stratified_sample(sf_dir: str):
    """Deterministic per-language downsampling (data-curation op):
    membership is a pure function of (doc_id, lang), so the sample is
    stable across reruns and cluster sizes; per-language kept counts +
    character mass through ``stages/aggregate.py``."""

    def kept(batch: pa.Table) -> pa.Table:
        return batch.filter(
            stratified_keep_mask(
                batch["doc_id"].to_numpy(zero_copy_only=False),
                batch["lang"].to_numpy(zero_copy_only=False),
            )
        )

    out = aggregate(
        read_documents(sf_dir, ["doc_id", "lang", "n_chars"]),
        "lang",
        [("sum_chars", "sum", "n_chars"), ("n_docs", "count", None)],
        rows=kept,
    ).to_pandas()
    return out.sort_values("lang").reset_index(drop=True)


def _q_corpus_filter(sf_dir: str):
    """C4-style quality-filter cascade: per-verdict document counts +
    kept character mass (``stages/aggregate.py``)."""
    from ..stages.textstage import filter_verdict_batch

    out = aggregate(
        read_documents(sf_dir, ["doc_id", "text"]),
        "verdict",
        [("sum_chars", "sum", "n_chars"), ("n_docs", "count", None)],
        rows=filter_verdict_batch,
    ).to_pandas()
    return out.sort_values("verdict").reset_index(drop=True)





def _q_multimodal_audio(sf_dir: str):
    """Audio decode + 1-second feature-window stage over synthetic PCM payloads (codec-gated)."""
    from ..stages.multimodal import audio_pipeline

    ds = audio_pipeline(read_documents(sf_dir, ["doc_id"]))
    df = ds.to_pandas()[
        ["doc_id", "sample_rate", "n_samples", "channels", "duration_ms",
         "n_windows", "status"]
    ]
    return df.sort_values("doc_id").reset_index(drop=True)


def _q_multimodal_video(sf_dir: str):
    """Video frame-sampling stage over the synthetic container format (codec-gated)."""
    from ..stages.multimodal import video_pipeline

    ds = video_pipeline(read_documents(sf_dir, ["doc_id"]), sample_every=25)
    df = ds.to_pandas()[
        ["doc_id", "fps", "n_frames", "width", "height", "n_sampled",
         "last_sampled", "status"]
    ]
    return df.sort_values("doc_id").reset_index(drop=True)


def _q_events_lag(sf_dir: str):
    """Windowed analytic (lag): each event with the user's previous
    event value; money in exact cents for hashing."""
    import pyarrow.compute as pc
    import ray.data

    from ..stages.textstage import lag_events

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], 100.0), round_mode="half_towards_infinity"), pa.int64()
        )
        prev = batch["prev_value"]
        prev_cents = pc.cast(
            pc.round(pc.multiply(prev, 100.0), round_mode="half_towards_infinity"), pa.int64()
        )
        return pa.Table.from_pydict(
            {
                "user_id": batch["user_id"].to_pylist(),
                "ts": batch["ts"].to_pylist(),
                "cents": cents.to_pylist(),
                "prev_cents": prev_cents.to_pylist(),
            }
        )

    return (
        lag_events(ev)
        .map_batches(to_cents, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["user_id", "ts", "cents"])
        .reset_index(drop=True)
    )


def _q_events_user_stats(sf_dir: str):
    """Multi-statistic grouped aggregate (``stages/aggregate.py``):
    per-user event count, sum and sum-of-squares (exact integer cents
    — variance/stddev derive from these without float drift)."""
    import pyarrow.compute as pc
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )

    def rows(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], 100.0), round_mode="half_towards_infinity"), pa.int64()
        )
        return pa.Table.from_arrays(
            [batch["user_id"], cents, pc.multiply(cents, cents)],
            names=["user_id", "cents", "cents_sq"],
        )

    out = aggregate(
        ev,
        "user_id",
        [
            ("sum_cents", "sum", "cents"),
            ("sum_cents_sq", "sum", "cents_sq"),
            ("n_events", "count", None),
        ],
        rows=rows,
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _hour_cents_sstats(sf_dir: str):
    """Per-event-type exact integer sufficient statistics of
    (hour-of-day, cents): one streaming pass through
    ``stages/aggregate.py``, six int64 sums per group. Shared by the
    correlation and the
    regression finishers — every second-moment analytic is a
    closed-form float expression of these ints."""
    import pyarrow.compute as pc
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def rows(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        us = (
            pc.cast(batch["ts"].combine_chunks(), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        hour = (us // 3_600_000_000) % 24
        return pa.table(
            {
                "event_type": batch["event_type"],
                "x": pa.array(hour, pa.int64()),
                "y": pa.array(cents, pa.int64()),
                "xy": pa.array(hour * cents, pa.int64()),
                "xx": pa.array(hour * hour, pa.int64()),
                "yy": pa.array(cents * cents, pa.int64()),
            }
        )

    return aggregate(
        ev,
        "event_type",
        [("s" + c, "sum", c) for c in ("x", "y", "xy", "xx", "yy")]
        + [("n", "count", None)],
        rows=rows,
    ).to_pandas()


def _q_events_hour_corr(sf_dir: str):
    """Pearson correlation of hour-of-day vs spend (integer cents) per
    event type — the scalar-SUFFICIENT-STATISTICS pattern for
    second-moment analytics at scale: one streaming pass computes six
    exact integer sums (n, Σx, Σy, Σxy, Σx², Σy²) with batch-level
    combine, and the correlation is ONE closed-form float expression
    of those ints (sqrt is IEEE-correctly-rounded, so the SQL oracle
    replays it bit-for-bit). No second pass, no float accumulation
    drift, no per-group state beyond six int64s."""
    import math

    agg = _hour_cents_sstats(sf_dir)
    corrs = []
    for _, r in agg.iterrows():
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
        den = math.sqrt(float(n * sxx - sx * sx)) * math.sqrt(
            float(n * syy - sy * sy)
        )
        corrs.append(
            float(n * sxy - sx * sy) / den if den > 0.0 else 0.0
        )
    agg["corr_hour_cents"] = corrs
    out = agg[
        ["event_type", "n", "sx", "sy", "corr_hour_cents"]
    ].rename(columns={"sx": "sum_hour", "sy": "sum_cents"})
    return out.sort_values("event_type").reset_index(drop=True)


def _q_events_hour_regression(sf_dir: str):
    """Ordinary-least-squares of spend (cents) on hour-of-day per
    event type — REGR_SLOPE / REGR_INTERCEPT / REGR_R2 from the same
    single-pass exact integer sufficient statistics as
    ``events_hour_corr`` (shared scan helper). Each output is one
    closed-form float expression of exact (arbitrary-precision) ints
    — slope = (nΣxy - ΣxΣy)/(nΣx² - Σx²), intercept =
    (ΣyΣx² - ΣxΣxy)/(nΣx² - Σx²), r² = cov²/(varx·vary) — so DuckDB
    replays them bit-for-bit in HUGEINT."""
    agg = _hour_cents_sstats(sf_dir)
    slopes, intercepts, r2s = [], [], []
    for _, r in agg.iterrows():
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
        varx = n * sxx - sx * sx
        vary = n * syy - sy * sy
        cov = n * sxy - sx * sy
        slopes.append(float(cov) / float(varx) if varx else 0.0)
        intercepts.append(
            float(sy * sxx - sx * sxy) / float(varx) if varx else 0.0
        )
        r2s.append(
            float(cov * cov) / (float(varx) * float(vary))
            if varx and vary
            else 0.0
        )
    agg["slope"] = slopes
    agg["intercept"] = intercepts
    agg["r2"] = r2s
    out = agg[["event_type", "n", "slope", "intercept", "r2"]]
    return out.sort_values("event_type").reset_index(drop=True)


def _q_events_windowed(sf_dir: str):
    """Tumbling 1-hour event windows: per-(user, window) count + integer-cent sum."""
    import ray.data

    from ..stages.textstage import windowed_events

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return (
        windowed_events(ev)
        .to_pandas()
        .sort_values(["user_id", "window_start"])
        .reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# Oracle SQL

# Tokenization mirrors Python str.split(): any whitespace run splits,
# empties dropped; docs with 0 < words < k yield ONE short shingle
# (functions/shingles.py word_shingles), empty docs yield none.
_SHINGLE_CTE = """t AS (SELECT doc_id,
                  list_filter(regexp_split_to_array(text, '\\s+'),
                              x -> x <> '') AS w
           FROM documents),
sh AS (
    SELECT doc_id,
           CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                ELSE list_distinct(list_transform(range(1, len(w) - 1),
                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) END AS s
    FROM t
)"""

_SHINGLE_JACCARD_SQL = (
    "WITH " + _SHINGLE_CTE + """
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
           / len(list_distinct(a.s || b.s)) AS jaccard
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE len(list_distinct(a.s || b.s)) > 0
  AND CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
          / len(list_distinct(a.s || b.s)) >= 0.5
"""
)

# SimHash signatures rebuilt in SQL: per-shingle 64-bit hash via
# md5_number_upper (bit-identical to functions.shingles.stable_hash64
# — pinned in pytest), then per-bit majority vote across each doc's
# DISTINCT hashes, then all-pairs bit_count(xor) <= 3. Docs with no
# shingles get signature 0 (matching simhash64([]) == 0).
_SIMHASH_SIG_EXPR = " + ".join(
    f"CASE WHEN 2 * count(*) FILTER ((h >> {i}) & 1 = 1) > count(*) "
    f"THEN {1 << i}::UBIGINT ELSE 0::UBIGINT END"
    for i in range(64)
)
_SIMHASH_SQL = (
    "WITH " + _SHINGLE_CTE + f""",
hashes AS (
    SELECT DISTINCT doc_id, md5_number_upper(unnest(s)) AS h FROM sh
),
sig AS (
    SELECT doc_id, {_SIMHASH_SIG_EXPR} AS sig FROM hashes GROUP BY doc_id
),
allsig AS (
    SELECT d.doc_id, COALESCE(g.sig, 0::UBIGINT) AS sig
    FROM documents d LEFT JOIN sig g USING (doc_id)
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.sig, b.sig)) AS INTEGER) AS hamming
FROM allsig a JOIN allsig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sig, b.sig)) <= 3
"""
)

# Winnowing fingerprints rebuilt in SQL. The Rabin-Karp hash of a
# w-codepoint window starting at i (1-based) is
#   sum_j cp(i+j) * BASE^(w-1-j)  mod 2^61-1
# — identical to functions.textstats.rolling_hashes (codepoint-based
# by contract). The power table is embedded as a literal HUGEINT list;
# every term < 2^82 and the 16-term sum < 2^86 fit HUGEINT exactly.
# Fingerprint = the 8 smallest DISTINCT window hashes per doc; docs
# shorter than 16 codepoints hash one window of the whole text.
_FP_BASE, _FP_MOD, _FP_WINDOW, _FP_SELECT = 1_000_003, (1 << 61) - 1, 16, 8
_FP_POWERS = "[" + ", ".join(
    f"{pow(_FP_BASE, e, _FP_MOD)}::HUGEINT" for e in range(_FP_WINDOW)
) + "]"
_WINNOW_SQL = f"""
WITH pos AS (
    SELECT doc_id, text,
           CASE WHEN length(text) < {_FP_WINDOW}
                THEN greatest(length(text), 1)
                ELSE {_FP_WINDOW} END AS w,
           length(text) AS n
    FROM documents WHERE length(text) > 0
),
spans AS (
    SELECT doc_id, text, w,
           unnest(range(1, n - w + 2)) AS i
    FROM pos
),
hashes AS (
    SELECT DISTINCT doc_id,
           list_sum(list_transform(range(0, w),
               j -> unicode(substr(text, CAST(i + j AS INTEGER), 1))::HUGEINT
                    * ({_FP_POWERS}[CAST(w - j AS INTEGER)])
           )) % {_FP_MOD} AS h
    FROM spans
)
SELECT doc_id, CAST(h AS UBIGINT) AS fp_hash FROM hashes
QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY h) <= {_FP_SELECT}
ORDER BY doc_id, fp_hash
"""

# splitmix64 rebuilt as a SQL expression (for sketch oracles). The
# wrapping uint64 multiply is spelled with a 32-bit split so every
# intermediate fits HUGEINT:
#   (a*b) mod 2^64 = (lo32(a)*b + (hi32(a)*lo32(b) mod 2^32) << 32) mod 2^64
# xor/shift stay in UBIGINT. Parity with functions.shingles._splitmix64
# is pinned in tests/test_textstats_multimodal.py.
_U64 = "18446744073709551616::HUGEINT"


def _mulmod64_sql(a: str, const: int) -> str:
    lo = const % (1 << 32)
    return (
        f"CAST(((CAST(({a}) % 4294967296 AS HUGEINT) * {const}::HUGEINT"
        f" + ((CAST(({a}) // 4294967296 AS HUGEINT) * {lo}::HUGEINT)"
        f" % 4294967296) * 4294967296) % {_U64}) AS UBIGINT)"
    )


def _splitmix64_sql(z: str) -> str:
    s1 = (
        f"CAST((CAST(({z}) AS HUGEINT) + 11400714819323198485)"
        f" % {_U64} AS UBIGINT)"
    )
    x1 = f"xor({s1}, {s1} >> 30)"
    m1 = _mulmod64_sql(x1, 0xBF58476D1CE4E5B9)
    x2 = f"xor({m1}, {m1} >> 27)"
    m2 = _mulmod64_sql(x2, 0x94D049BB133111EB)
    return f"xor({m2}, {m2} >> 31)"


# Count-Min heavy hitters rebuilt in SQL: exact token counts, then the
# sketch's 4 bucket rows via splitmix64(xor(md5_hash, seed_d)) % width
# (seeds are the deterministic default_rng(8675309) draw, embedded as
# literals), per-(row, bucket) count sums, estimate = min over rows.
# The CM estimate is BATCH-INVARIANT (the sketch is additive), so the
# oracle needs no knowledge of Ray's batching; the candidate-union
# recall (the only batch-dependent part) is pinned separately in
# pytest and covers this corpus's skew.
def _cms_seeds():
    import numpy as np

    rng = np.random.default_rng(8675309)
    return rng.integers(
        0, np.iinfo(np.uint64).max, size=4, dtype=np.uint64
    ).tolist()


_CMS_SEED_VALUES = ", ".join(
    f"({d}, {s}::UBIGINT)" for d, s in enumerate(_cms_seeds())
)
_CMS_SQL = f"""
WITH tc AS (
    SELECT tok, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                    t -> t <> '')) AS tok
          FROM documents)
    GROUP BY tok
), hashed AS (
    SELECT tok, n, md5_number_upper(tok) AS h FROM tc
), buck AS (
    SELECT s.d, hashed.tok, hashed.n,
           CAST({_splitmix64_sql("xor(h, s.seed)")} % 16384 AS BIGINT) AS b
    FROM hashed CROSS JOIN (VALUES {_CMS_SEED_VALUES}) s(d, seed)
), sums AS (
    SELECT d, b, CAST(sum(n) AS BIGINT) AS bs FROM buck GROUP BY d, b
), est AS (
    SELECT buck.tok, min(sums.bs) AS est_count
    FROM buck JOIN sums ON buck.d = sums.d AND buck.b = sums.b
    GROUP BY buck.tok
)
SELECT tok AS token, CAST(est_count AS BIGINT) AS est_count
FROM est ORDER BY est_count DESC, token ASC LIMIT 20
"""

# HLL + log-histogram corpus stats rebuilt in SQL. Every piece of the
# Python sketch was made an exact-arithmetic function so this is
# possible: value hash = md5-derived stable_hash64, register mixing =
# splitmix64 (above), the harmonic denominator an exact HUGEINT sum
# S = sum(2^(53-r)) (estimate = one deterministic float expression of
# S), and histogram bins defined by integer-exact boundaries
# B[k] = ceil(10^(k/64)) (computed by integer root-finding, embedded
# as literals). bit-length via a 6-step smear + bit_count.
def _bitlen_smear_sql(col: str) -> str:
    s = col
    for sh in (1, 2, 4, 8, 16, 32):
        s = f"({s} | ({s} >> {sh}))"
    return f"bit_count({s})"


def _hist_bounds_sql() -> str:
    from ..functions.sketches import QuantileHistogram

    b = QuantileHistogram.bin_boundaries(64, 770)
    return "[" + ", ".join(str(int(v)) for v in b) + "]"


_SKETCH_STATS_SQL = f"""
WITH hh AS (
    SELECT DISTINCT md5_number_upper(CAST(doc_id AS VARCHAR)) AS h
    FROM documents
), mixed AS (
    SELECT {_splitmix64_sql("h")} AS x FROM hh
), pr AS (
    SELECT CAST(x >> 52 AS BIGINT) AS idx,
           CAST((CAST(x AS HUGEINT) % 4503599627370496) * 4096
                AS UBIGINT) AS rem
    FROM mixed
), rk AS (
    SELECT idx,
           CASE WHEN rem = 0::UBIGINT THEN 53
                ELSE least(65 - {_bitlen_smear_sql("rem")}, 53) END AS r
    FROM pr
), regs AS (
    SELECT idx, max(r) AS r FROM rk GROUP BY idx
), hll AS (
    SELECT CAST(sum(1::BIGINT << CAST(53 - r AS INTEGER)) AS HUGEINT)
               + (4096 - count(*)) * 9007199254740992::HUGEINT AS s,
           4096 - count(*) AS zeros
    FROM regs
), hll_est AS (
    SELECT CASE
        WHEN (0.7213 / (1.0 + 1.079 / 4096.0)) * 4096.0 * 4096.0
             * 9007199254740992.0 / CAST(s AS DOUBLE) <= 10240.0
             AND zeros > 0
        THEN 4096.0 * ln(4096.0 / CAST(zeros AS DOUBLE))
        ELSE (0.7213 / (1.0 + 1.079 / 4096.0)) * 4096.0 * 4096.0
             * 9007199254740992.0 / CAST(s AS DOUBLE)
        END AS est
    FROM hll
), q_bins AS (
    SELECT CASE WHEN n_chars <= 0 THEN 0
           ELSE least(len(list_filter({_hist_bounds_sql()},
                                      b -> n_chars >= b)), 769) END AS bin
    FROM documents
), hist AS (
    SELECT bin, count(*) AS c FROM q_bins GROUP BY bin
), cum AS (
    SELECT bin, sum(c) OVER (ORDER BY bin) AS cum,
           (SELECT count(*) FROM q_bins) AS total
    FROM hist
), qv AS (
    SELECT qs.label,
           (SELECT min(bin) FROM cum
            WHERE CAST(cum AS DOUBLE) >= qs.q * cum.total) AS b
    FROM (VALUES (0.5, 'n_chars_p50'), (0.9, 'n_chars_p90'),
                 (0.99, 'n_chars_p99')) qs(q, label)
)
SELECT 'distinct_doc_ids_hll' AS metric, est AS value FROM hll_est
UNION ALL
SELECT label AS metric,
       CASE WHEN b = 0 THEN 0.0
            ELSE power(10, (b - 1) / 64.0) END AS value
FROM qv
ORDER BY metric
"""

# Connected components of the near-dup pair graph as a recursive-CTE
# transitive closure (component = min reachable doc_id, incl. self).
# Kept as a reusable CTE prefix so downstream oracles
# (dedup_canonical_docs) can chain onto `comp`.
_COMPONENTS_CTE = (
    "WITH RECURSIVE " + _SHINGLE_CTE + """,
pairs AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    WHERE len(list_distinct(a.s || b.s)) > 0
      AND CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
              / len(list_distinct(a.s || b.s)) >= 0.5
),
edges AS (
    SELECT doc_a AS a, doc_b AS b FROM pairs
    UNION SELECT doc_b, doc_a FROM pairs
),
reach(a, b) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
),
comp AS (
    SELECT a AS doc_id, CAST(least(a, min(b)) AS BIGINT) AS component
    FROM reach GROUP BY a
)"""
)

_COMPONENTS_SQL = (
    _COMPONENTS_CTE + "\nSELECT doc_id, component FROM comp ORDER BY doc_id"
)

# Canonical corpus after near-dup clustering: every document that is
# either in no cluster or IS its cluster's minimum survives.
_CANONICAL_SQL = (
    _COMPONENTS_CTE + """
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d
WHERE NOT EXISTS (
    SELECT 1 FROM comp c
    WHERE c.doc_id = d.doc_id AND c.doc_id <> c.component
)
ORDER BY d.doc_id
"""
)


def _q_dedup_components(sf_dir: str):
    """Near-dup CLUSTERING: ngram pairs -> connected components via
    distributed min-label propagation (the scale plan; driver
    union-find pinned equal in pytest). component = min doc_id of the
    cluster — the canonical survivor. Oracle: recursive-CTE transitive
    closure over the same SQL-expressed pair graph."""
    from ..stages.components import neardup_components
    from ..stages.neardup import neardup_pairs

    pairs = neardup_pairs(
        read_documents(sf_dir, ["doc_id", "text"]),
        method="ngram",
        threshold=0.5,
    )
    out = neardup_components(pairs, method="distributed").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_dedup_canonical_docs(sf_dir: str):
    """End-to-end near-dup DEDUPLICATION: ngram pairs -> connected
    components -> canonical filter on the PARTITIONED (anti-join)
    plan — the zero-driver-state path a 10^12-doc corpus needs; the
    broadcast twin is pinned equal in pytest. Oracle chains the
    components recursive CTE with a NOT EXISTS loser filter."""
    from ..stages.components import canonical_filter, neardup_components
    from ..stages.neardup import neardup_pairs

    pairs = neardup_pairs(
        read_documents(sf_dir, ["doc_id", "text"]),
        method="ngram",
        threshold=0.5,
    )
    comp = neardup_components(pairs, method="auto")
    docs = read_documents(sf_dir, ["doc_id", "lang", "n_chars"])
    out = canonical_filter(docs, comp, method="partitioned").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_events_asof(sf_dir: str):
    """As-of join: each click event enriched with the user's most
    recent view event (cents; DuckDB ASOF LEFT JOIN oracle)."""
    import pyarrow.compute as pc
    import ray.data

    from ..stages.asof import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def prep(kind: str, cents_name: str, keep_event_id: bool):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], kind))
            cents = pc.cast(
                pc.round(
                    pc.multiply(t["value"], 100.0),
                    round_mode="half_towards_infinity",
                ),
                pa.int64(),
            )
            cols = {}
            if keep_event_id:
                cols["event_id"] = t["event_id"]
            cols["user_id"] = t["user_id"]
            cols["ts"] = t["ts"]
            cols[cents_name] = cents
            return pa.Table.from_pydict(cols)

        return fn

    left = ev.map_batches(
        prep("click", "cents", True), batch_format="pyarrow"
    )
    right = ev.map_batches(
        prep("view", "view_cents", False), batch_format="pyarrow"
    )
    out = asof_join(left, right, key="user_id", on="ts").to_pandas()
    # unmatched lefts make the int column nullable; pin float64 so the
    # dtype matches what DuckDB's NULL-bearing BIGINT arrives as
    out["view_cents"] = out["view_cents"].astype("float64")
    return out.sort_values("event_id").reset_index(drop=True)


def _q_events_asof_forward(sf_dir: str):
    """FORWARD as-of join — each click enriched with the user's next
    view AT-OR-AFTER it (``asof_join(direction="forward")``; DuckDB
    spells it with ``c.ts <= v.ts`` in the ASOF condition). Same
    single-exchange sorted-searchsorted plan as the backward twin."""
    import pyarrow.compute as pc
    import ray.data

    from ..stages.asof import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def prep(kind: str, cents_name: str, keep_event_id: bool):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], kind))
            cents = pc.cast(
                pc.round(
                    pc.multiply(t["value"], 100.0),
                    round_mode="half_towards_infinity",
                ),
                pa.int64(),
            )
            cols = {}
            if keep_event_id:
                cols["event_id"] = t["event_id"]
            cols["user_id"] = t["user_id"]
            cols["ts"] = t["ts"]
            cols[cents_name] = cents
            return pa.Table.from_pydict(cols)

        return fn

    left = ev.map_batches(
        prep("click", "cents", True), batch_format="pyarrow"
    )
    right = ev.map_batches(
        prep("view", "next_view_cents", False), batch_format="pyarrow"
    )
    out = asof_join(
        left, right, key="user_id", on="ts", direction="forward"
    ).to_pandas()
    out["next_view_cents"] = out["next_view_cents"].astype("float64")
    return out.sort_values("event_id").reset_index(drop=True)


def _q_lang_sample(sf_dir: str):
    """Deterministic fixed-SIZE per-language sample (k=10 docs per
    language) — the bounded-count complement of the rate-based
    stratified_sample: rank docs per language by a Knuth multiplicative
    hash of doc_id (pure BIGINT arithmetic, so the oracle reproduces
    the exact membership) and keep the k smallest (doc_id tiebreak)
    with ``stages/topk.topk_per_group``. No whole-group shuffle at any
    corpus size."""
    import numpy as np

    from ..stages.topk import topk_per_group

    def with_key(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        key = (d.astype(np.uint64) * np.uint64(_STRATA_MIX)) % np.uint64(
            _STRATA_MOD
        )
        return batch.append_column("key", pa.array(key))

    out = topk_per_group(
        read_documents(sf_dir, ["lang", "doc_id"]).map_batches(
            with_key, batch_format="pyarrow"
        ),
        "lang", 10, [("key", "ascending"), ("doc_id", "ascending")],
    ).to_pandas()
    return (
        out[["lang", "doc_id"]]
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )


def _q_doc_tfidf(sf_dir: str):
    """TF-IDF top-3 terms per document: distributed df aggregate +
    bucketed token join + per-doc top-k (weight desc, token asc)."""
    from ..stages.tfidf import doc_tfidf_topk

    out = doc_tfidf_topk(
        read_documents(sf_dir, ["doc_id", "text"]), k=3
    ).to_pandas()
    return out.sort_values(["doc_id", "token"]).reset_index(drop=True)


def _sql_list(words) -> str:
    return "[" + ", ".join(f"'{w}'" for w in sorted(words)) + "]"


_LANGID_SCORES = ",\n       ".join(
    "len(list_filter(w, x -> list_contains({lst}, x))) AS s_{lang}".format(
        lst=_sql_list(markers), lang=lang
    )
    for lang, markers in _LANG_MARKERS.items()
)

# unique strict max (margin >= 1) else 'und' — mirrors
# functions/textstats.py detect_language for ascii corpora (no CJK).
_LANGID_SQL = f"""
WITH t AS (
    SELECT doc_id,
           list_transform(regexp_extract_all(text, '\\w+'),
                          x -> lower(x)) AS w
    FROM documents
),
scored AS (
    SELECT doc_id,
       {_LANGID_SCORES},
       greatest(s_en, s_de, s_fr, s_es) AS best
    FROM t
)
SELECT doc_id,
       CASE
           WHEN best = 0 THEN 'und'
           WHEN (CASE WHEN s_en = best THEN 1 ELSE 0 END
               + CASE WHEN s_de = best THEN 1 ELSE 0 END
               + CASE WHEN s_fr = best THEN 1 ELSE 0 END
               + CASE WHEN s_es = best THEN 1 ELSE 0 END) > 1 THEN 'und'
           WHEN s_en = best THEN 'en'
           WHEN s_de = best THEN 'de'
           WHEN s_fr = best THEN 'fr'
           ELSE 'es'
       END AS lang_pred
FROM scored
"""

_CORPUS_FILTER_SQL = f"""
WITH q AS (
    SELECT length(text) AS n_chars,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS n_tokens,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> list_contains({{stop}}, lower(x))))
               AS n_stop,
           length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
               AS n_alpha
    FROM documents
),
v AS (
    SELECT n_chars,
           CASE WHEN n_tokens < 50 THEN 'too_short'
                WHEN n_stop * 20 < n_tokens THEN 'low_stopword'
                WHEN n_alpha * 10 < n_chars * 6 THEN 'low_alpha'
                WHEN n_chars > n_tokens * 12 THEN 'gibberish'
                ELSE 'keep' END AS verdict
    FROM q
)
SELECT verdict, CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       count(*) AS n_docs
FROM v GROUP BY verdict ORDER BY verdict
""".replace("{stop}", _sql_list(STOPWORDS))

TRAINING_QUERIES: Dict[str, Callable] = {
    "dedup_ngram": _q_dedup_ngram,
    "dedup_ngram_partitioned": _q_dedup_ngram_partitioned,
    "dedup_components": _q_dedup_components,
    "dedup_canonical_docs": _q_dedup_canonical_docs,
    "events_asof": _q_events_asof,
    "events_asof_forward": _q_events_asof_forward,
    "doc_tfidf": _q_doc_tfidf,
    "lang_sample": _q_lang_sample,
    "dedup_minhash": _q_dedup_minhash,
    "dedup_simhash": _q_dedup_simhash,
    "ann_topk": _q_ann_topk,
    "embedding_neardup": _q_embedding_neardup,
    "text_quality": _q_text_quality,
    "lang_id": _q_lang_id,
    "doc_winnow": _q_doc_winnow,
    "corpus_filter": _q_corpus_filter,
    "stratified_sample": _q_stratified_sample,
    "multimodal_decode": _q_multimodal_decode,
    "multimodal_audio": _q_multimodal_audio,
    "multimodal_video": _q_multimodal_video,
    "events_windowed": _q_events_windowed,
    "events_lag": _q_events_lag,
    "events_user_stats": _q_events_user_stats,
    "events_hour_corr": _q_events_hour_corr,
    "events_hour_regression": _q_events_hour_regression,
}

TRAINING_ORACLE_SQL: Dict[str, str] = {
    "dedup_ngram": _SHINGLE_JACCARD_SQL,
    "dedup_ngram_partitioned": _SHINGLE_JACCARD_SQL,
    "dedup_components": _COMPONENTS_SQL,
    "dedup_canonical_docs": _CANONICAL_SQL,
    "events_asof": """
    WITH clicks AS (
        SELECT event_id, user_id, ts,
               CAST(round(value * 100) AS BIGINT) AS cents
        FROM events WHERE event_type = 'click'
    ),
    views AS (
        SELECT user_id, ts,
               CAST(round(value * 100) AS BIGINT) AS view_cents
        FROM events WHERE event_type = 'view'
    )
    SELECT c.event_id, c.user_id, c.ts, c.cents,
           CAST(v.view_cents AS DOUBLE) AS view_cents,
           v.ts AS matched_ts
    FROM clicks c ASOF LEFT JOIN views v
      ON c.user_id = v.user_id AND c.ts >= v.ts
    ORDER BY c.event_id
    """,
    "events_asof_forward": """
    WITH clicks AS (
        SELECT event_id, user_id, ts,
               CAST(round(value * 100) AS BIGINT) AS cents
        FROM events WHERE event_type = 'click'
    ),
    views AS (
        SELECT user_id, ts,
               CAST(round(value * 100) AS BIGINT) AS next_view_cents
        FROM events WHERE event_type = 'view'
    )
    SELECT c.event_id, c.user_id, c.ts, c.cents,
           CAST(v.next_view_cents AS DOUBLE) AS next_view_cents,
           v.ts AS matched_ts
    FROM clicks c ASOF LEFT JOIN views v
      ON c.user_id = v.user_id AND c.ts <= v.ts
    ORDER BY c.event_id
    """,
    "doc_tfidf": """
    WITH tok AS (
        SELECT doc_id,
               unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                  x -> x <> '')) AS token
        FROM documents
    ),
    tf AS (
        SELECT doc_id, token, count(*) AS tf
        FROM tok GROUP BY doc_id, token
    ),
    df AS (
        SELECT token, count(DISTINCT doc_id) AS df
        FROM tok GROUP BY token
    ),
    n AS (SELECT count(*) AS n FROM documents),
    w AS (
        SELECT tf.doc_id, tf.token,
               tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS weight
        FROM tf JOIN df USING (token), n
    )
    SELECT doc_id, token, weight
    FROM (
        SELECT *, row_number() OVER (
            PARTITION BY doc_id ORDER BY weight DESC, token
        ) AS rn FROM w
    )
    WHERE rn <= 3
    ORDER BY doc_id, token
    """,
    "lang_sample": """
    SELECT lang, doc_id FROM (
        SELECT lang, doc_id,
               row_number() OVER (
                   PARTITION BY lang
                   ORDER BY (doc_id * 2654435761) % 4294967296, doc_id
               ) AS rn
        FROM documents
    ) WHERE rn <= 10
    ORDER BY lang, doc_id
    """,
    "dedup_minhash": _SHINGLE_JACCARD_SQL,
    "dedup_simhash": _SIMHASH_SQL,
    "doc_winnow": _WINNOW_SQL,
    "ann_topk": """
    SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id
    FROM embeddings q, embeddings c
    WHERE q.vec_id < 8 AND c.vec_id <> q.vec_id
    QUALIFY row_number() OVER (
        PARTITION BY q.vec_id
        ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                        CAST(c.embedding AS DOUBLE[])) DESC,
                 c.vec_id
    ) <= 10
    """,
    "embedding_neardup": """
    SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
    FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                 CAST(b.embedding AS DOUBLE[])) >= 0.4
    """,
    "text_quality": f"""
    SELECT doc_id,
           length(text) AS n_chars,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS n_tokens,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> list_contains({_sql_list(STOPWORDS)},
                                              lower(x)))) AS n_stop,
           length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
               AS n_alpha_chars,
           length(text) - length(regexp_replace(text, '[^\\w\\s]', '', 'g'))
               AS n_punct,
           len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS n_bpe_tokens
    FROM documents
    """,
    "lang_id": _LANGID_SQL,
    "multimodal_decode": """
    WITH base AS (
        SELECT doc_id,
               64 + doc_id % 577 AS w,
               64 + (doc_id * 7) % 353 AS h,
               1 + doc_id % 3 AS c,
               doc_id % 20 = 19 AS corrupt
        FROM documents
    ),
    meta AS (
        SELECT doc_id,
               CASE WHEN corrupt THEN NULL ELSE w END AS width,
               CASE WHEN corrupt THEN NULL ELSE h END AS height,
               CASE WHEN corrupt THEN NULL ELSE c END AS channels,
               CASE WHEN corrupt THEN 8
                    ELSE 9 + least(w * h * c, 4096) END AS n_bytes,
               CASE WHEN corrupt THEN 'failed' ELSE 'succeeded' END AS status,
               CASE WHEN corrupt THEN NULL
                    WHEN greatest(w, h) <= 256 THEN w
                    ELSE w * 256 // greatest(w, h) END AS resized_w,
               CASE WHEN corrupt THEN NULL
                    WHEN greatest(w, h) <= 256 THEN h
                    ELSE h * 256 // greatest(w, h) END AS resized_h
        FROM base
    )
    SELECT doc_id, CAST(width AS INT) width, CAST(height AS INT) height,
           CAST(channels AS INT) channels, CAST(n_bytes AS BIGINT) n_bytes,
           status, CAST(resized_w AS INT) resized_w,
           CAST(resized_h AS INT) resized_h
    FROM meta
    """,
    "corpus_filter": _CORPUS_FILTER_SQL,
    "stratified_sample": """
    WITH rates(lang, permille) AS (
        VALUES ('en', 800), ('de', 500), ('fr', 500), ('es', 250),
               ('ja', 100)
    ),
    kept AS (
        SELECT d.lang, d.n_chars
        FROM documents d LEFT JOIN rates r ON d.lang = r.lang
        WHERE (d.doc_id * 2654435761) % 4294967296 % 1000
              < coalesce(r.permille, 100)
    )
    SELECT lang, CAST(sum(n_chars) AS BIGINT) AS sum_chars,
           count(*) AS n_docs
    FROM kept GROUP BY lang ORDER BY lang
    """,
    "multimodal_audio": """
    WITH base AS (
        SELECT doc_id,
               8000 + (doc_id % 5) * 4000 AS sr,
               1000 + (doc_id * 13) % 100000 AS n,
               1 + doc_id % 2 AS c,
               doc_id % 20 = 19 AS corrupt
        FROM documents
    )
    SELECT doc_id,
           CAST(CASE WHEN corrupt THEN NULL ELSE sr END AS INT)
               AS sample_rate,
           CAST(CASE WHEN corrupt THEN NULL ELSE n END AS BIGINT)
               AS n_samples,
           CAST(CASE WHEN corrupt THEN NULL ELSE c END AS INT) AS channels,
           CAST(CASE WHEN corrupt THEN NULL
                ELSE n * 1000 // sr END AS BIGINT) AS duration_ms,
           CAST(CASE WHEN corrupt THEN NULL
                ELSE (n + sr - 1) // sr END AS BIGINT) AS n_windows,
           CASE WHEN corrupt THEN 'failed' ELSE 'succeeded' END AS status
    FROM base ORDER BY doc_id
    """,
    "multimodal_video": """
    WITH base AS (
        SELECT doc_id,
               12 + (doc_id % 4) * 6 AS fps,
               100 + (doc_id * 11) % 5000 AS nf,
               64 + doc_id % 577 AS w,
               64 + (doc_id * 7) % 353 AS h,
               doc_id % 20 = 19 AS corrupt
        FROM documents
    )
    SELECT doc_id,
           CAST(CASE WHEN corrupt THEN NULL ELSE fps END AS INT) AS fps,
           CAST(CASE WHEN corrupt THEN NULL ELSE nf END AS BIGINT)
               AS n_frames,
           CAST(CASE WHEN corrupt THEN NULL ELSE w END AS INT) AS width,
           CAST(CASE WHEN corrupt THEN NULL ELSE h END AS INT) AS height,
           CAST(CASE WHEN corrupt THEN NULL
                ELSE (nf + 24) // 25 END AS BIGINT) AS n_sampled,
           CAST(CASE WHEN corrupt THEN NULL
                ELSE ((nf + 24) // 25 - 1) * 25 END AS BIGINT)
               AS last_sampled,
           CASE WHEN corrupt THEN 'failed' ELSE 'succeeded' END AS status
    FROM base ORDER BY doc_id
    """,
    "events_user_stats": """
    SELECT user_id,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS sum_cents,
           CAST(sum(CAST(round(value * 100) AS BIGINT)
                    * CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS sum_cents_sq,
           count(*) AS n_events
    FROM events GROUP BY user_id ORDER BY user_id
    """,
    "events_hour_corr": """
    WITH s AS (
        SELECT event_type,
               CAST(sum(h) AS HUGEINT) AS sx,
               CAST(sum(c) AS HUGEINT) AS sy,
               CAST(sum(h * c) AS HUGEINT) AS sxy,
               CAST(sum(h * h) AS HUGEINT) AS sxx,
               CAST(sum(c * c) AS HUGEINT) AS syy,
               CAST(count(*) AS HUGEINT) AS n
        FROM (SELECT event_type, CAST(hour(ts) AS BIGINT) AS h,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events)
        GROUP BY event_type
    )
    SELECT event_type, CAST(n AS BIGINT) AS n,
           CAST(sx AS BIGINT) AS sum_hour,
           CAST(sy AS BIGINT) AS sum_cents,
           CASE WHEN (n * sxx - sx * sx) > 0 AND (n * syy - sy * sy) > 0
                THEN CAST(n * sxy - sx * sy AS DOUBLE)
                     / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                        * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                ELSE 0.0 END AS corr_hour_cents
    FROM s ORDER BY event_type
    """,
    "events_hour_regression": """
    WITH s AS (
        SELECT event_type,
               CAST(sum(h) AS HUGEINT) AS sx,
               CAST(sum(c) AS HUGEINT) AS sy,
               CAST(sum(h * c) AS HUGEINT) AS sxy,
               CAST(sum(h * h) AS HUGEINT) AS sxx,
               CAST(sum(c * c) AS HUGEINT) AS syy,
               CAST(count(*) AS HUGEINT) AS n
        FROM (SELECT event_type, CAST(hour(ts) AS BIGINT) AS h,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events)
        GROUP BY event_type
    )
    SELECT event_type, CAST(n AS BIGINT) AS n,
           CASE WHEN (n * sxx - sx * sx) <> 0
                THEN CAST(n * sxy - sx * sy AS DOUBLE)
                     / CAST(n * sxx - sx * sx AS DOUBLE)
                ELSE 0.0 END AS slope,
           CASE WHEN (n * sxx - sx * sx) <> 0
                THEN CAST(sy * sxx - sx * sxy AS DOUBLE)
                     / CAST(n * sxx - sx * sx AS DOUBLE)
                ELSE 0.0 END AS intercept,
           CASE WHEN (n * sxx - sx * sx) <> 0
                 AND (n * syy - sy * sy) <> 0
                THEN CAST((n * sxy - sx * sy) * (n * sxy - sx * sy)
                          AS DOUBLE)
                     / (CAST(n * sxx - sx * sx AS DOUBLE)
                        * CAST(n * syy - sy * sy AS DOUBLE))
                ELSE 0.0 END AS r2
    FROM s ORDER BY event_type
    """,
    "events_lag": """
    SELECT user_id, ts,
           CAST(round(value * 100) AS BIGINT) AS cents,
           CAST(round(lag(value) OVER (PARTITION BY user_id
                                       ORDER BY ts, value) * 100)
                AS BIGINT) AS prev_cents
    FROM events
    ORDER BY user_id, ts, cents
    """,
    "events_windowed": """
    SELECT user_id, date_trunc('hour', ts) AS window_start,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS sum_cents,
           count(*) AS n_events
    FROM events
    GROUP BY 1, 2
    """,
}


def _tokens_of(batch: pa.Table) -> pa.Table:
    """One row per whitespace token of the batch's ``text``."""
    return pa.table(
        {
            "token": pa.array(
                [w for t in batch["text"].to_pylist() for w in t.split()],
                pa.string(),
            )
        }
    )


def _q_token_frequencies(sf_dir: str):
    """Corpus token frequencies: per-batch explode, then
    ``stages/aggregate.py`` counts per token."""
    out = aggregate(
        read_documents(sf_dir, ["text"]),
        "token",
        [("n", "count", None)],
        rows=_tokens_of,
    ).to_pandas()
    return out.sort_values("token").reset_index(drop=True)


TRAINING_QUERIES["token_frequencies"] = _q_token_frequencies
TRAINING_ORACLE_SQL["token_frequencies"] = """
    SELECT t.token, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                    x -> x <> '')) AS token
          FROM documents) t
    GROUP BY t.token
    ORDER BY t.token
"""


def _q_events_sessions(sf_dir: str):
    """Gap-based session windows (30 min) per user."""
    import ray.data

    from ..stages.textstage import sessionize_events

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return (
        sessionize_events(ev)
        .to_pandas()
        .sort_values(["user_id", "session_num"])
        .reset_index(drop=True)
    )


def _q_doc_length_histogram(sf_dir: str):
    """Histogram of document lengths in 100-char buckets through
    ``stages/aggregate.py``."""
    import pyarrow.compute as pc

    def rows(batch: pa.Table) -> pa.Table:
        bucket = pc.multiply(
            pc.cast(pc.floor(pc.divide(batch["n_chars"], 100.0)), pa.int64()),
            100,
        )
        return pa.Table.from_arrays([bucket], names=["bucket"])

    out = aggregate(
        read_documents(sf_dir, ["n_chars"]),
        "bucket",
        [("n_docs", "count", None)],
        rows=rows,
    ).to_pandas()
    return out.sort_values("bucket").reset_index(drop=True)


def _q_dataset_split(sf_dir: str):
    """Deterministic train/valid/test split by doc_id hash bucket —
    the split assignment every training pipeline needs to be stable
    across reruns and cluster sizes."""

    def rows(batch: pa.Table) -> pa.Table:
        splits = [
            "train" if i % 10 < 8 else ("valid" if i % 10 == 8 else "test")
            for i in batch["doc_id"].to_pylist()
        ]
        return pa.Table.from_arrays(
            [pa.array(splits, pa.string()), batch["n_chars"]],
            names=["split", "n_chars"],
        )

    out = aggregate(
        read_documents(sf_dir, ["doc_id", "n_chars"]),
        "split",
        [("sum_chars", "sum", "n_chars"), ("n_docs", "count", None)],
        rows=rows,
    ).to_pandas()
    return out.sort_values("split").reset_index(drop=True)


TRAINING_QUERIES["events_sessions"] = _q_events_sessions
TRAINING_QUERIES["doc_length_histogram"] = _q_doc_length_histogram
TRAINING_QUERIES["dataset_split"] = _q_dataset_split

TRAINING_ORACLE_SQL["events_sessions"] = """
WITH e AS (
    SELECT user_id, ts,
           CASE WHEN lag(ts) OVER w IS NULL
                     OR ts - lag(ts) OVER w > INTERVAL '30 minutes'
                THEN 1 ELSE 0 END AS is_new
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
s AS (
    SELECT user_id, ts,
           sum(is_new) OVER (PARTITION BY user_id ORDER BY ts
                             ROWS UNBOUNDED PRECEDING) AS session_num
    FROM e
)
SELECT user_id, CAST(session_num AS BIGINT) AS session_num,
       min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events
FROM s GROUP BY user_id, session_num
"""
TRAINING_ORACLE_SQL["doc_length_histogram"] = """
SELECT CAST(floor(n_chars / 100.0) AS BIGINT) * 100 AS bucket,
       count(*) AS n_docs
FROM documents GROUP BY 1 ORDER BY bucket
"""
TRAINING_ORACLE_SQL["dataset_split"] = """
SELECT CASE WHEN doc_id % 10 < 8 THEN 'train'
            WHEN doc_id % 10 = 8 THEN 'valid'
            ELSE 'test' END AS split,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       count(*) AS n_docs
FROM documents GROUP BY 1 ORDER BY split
"""


def _q_join_priority_revenue(sf_dir: str):
    """Both-sides-large join: lineitem x orders via the explicit
    bucketed hash join (no broadcast), then revenue per priority."""
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import partitioned_hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_extendedprice"]
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        # combiner: collapse line items to one row per orderkey per
        # batch before the join shuffle (600k -> ~150k rows at sf0.1)
        cents = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], 100.0), round_mode="half_towards_infinity"), pa.int64()
        )
        t = pa.Table.from_arrays(
            [batch["l_orderkey"].combine_chunks(), cents],
            names=["orderkey", "cents"],
        )
        g = t.group_by("orderkey").aggregate([("cents", "sum")])
        return g.rename_columns(["orderkey", "cents"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["o_orderkey"].combine_chunks(),
                batch["o_orderpriority"].combine_chunks(),
            ],
            names=["orderkey", "o_orderpriority"],
        )

    joined = partitioned_hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        orders.map_batches(o_prep, batch_format="pyarrow"),
        key="orderkey",
    )
    out = aggregate(
        joined, "o_orderpriority", [("sum_cents", "sum", "cents")]
    ).to_pandas()
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def _q_top_longest_docs(sf_dir: str):
    """Global sort + limit: the 10 longest documents (doc_id as the
    deterministic tiebreak)."""
    ds = read_documents(sf_dir, ["doc_id", "n_chars"]).sort(
        ["n_chars", "doc_id"], descending=True
    )
    return ds.limit(10).to_pandas()


def _q_url_blocklist(sf_dir: str):
    """Broadcast anti-join: drop every url on a (small) blocklist."""
    from ..sources.pages import read_pages, url_for
    from ..stages.relational import broadcast_anti_join

    import pyarrow.parquet as pq

    ids = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_pylist()
    blocklist = [url_for(i) for i in ids if i % 97 == 0]

    kept = broadcast_anti_join(read_pages(sf_dir), "url", blocklist)
    urls = sorted(set(kept.unique("url")))
    import pandas as pd

    return pd.DataFrame({"url": urls})


def _q_url_blocklist_partitioned(sf_dir: str):
    """Same blocklist filter as url_blocklist, spelled as a
    PARTITIONED anti join on the string url key (no broadcast set) —
    the plan for blocklists too large to ship to every task."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data

    from ..sources.pages import read_pages, url_for
    from ..stages.relational import partitioned_hash_join

    ids = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_pylist()
    blocked = ray.data.from_items(
        [{"url": url_for(i)} for i in ids if i % 97 == 0]
    )

    pages_urls = read_pages(sf_dir).map_batches(
        lambda b: b.select(["url"]), batch_format="pyarrow"
    )
    kept = partitioned_hash_join(
        pages_urls, blocked, key="url", how="anti"
    )
    urls = sorted(set(kept.unique("url")))
    return pd.DataFrame({"url": urls})


def _q_extract_psv(sf_dir: str):
    """Full pipeline incl. PSV derivation. Oracle: the PSV chain is
    not SQL-expressible, so the oracle joins pages against a fixture
    Parquet of the REFERENCE's own normalize_text_psv output keyed by
    md5(text) (scripts/gen_psv_oracle_fixture.py) — a differential
    hash check of engine pipeline vs reference kernel over identical
    ground-truth text."""
    from ..sources.pages import read_pages
    from .extraction import extraction_pipeline

    ds = extraction_pipeline(read_pages(sf_dir), derive_psv=True)
    df = ds.to_pandas()
    return (
        df[df.status == "succeeded"][["url", "psv"]]
        .sort_values("url")
        .reset_index(drop=True)
    )


def _q_regional_revenue(sf_dir: str):
    """TPC-H Q5-shaped six-table pipeline: revenue per nation for one
    region/year where customer and supplier are co-located. Physical
    plan: region/nation and the supplier key->nation PROJECTION are
    broadcast lookups (tiny; at real scale the supplier projection is
    a `ray.put` table, two ints per supplier); the two big joins —
    filtered orders x region-filtered customers on custkey, lineitem
    x that on orderkey — run as partitioned hash joins with all
    filters and the cents conversion pushed below the exchanges;
    the final aggregate pre-combines per batch to 25 nation rows."""
    import datetime

    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.relational import partitioned_hash_join

    region = pq.read_table(f"{sf_dir}/region.parquet").to_pydict()
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    asia_rk = {
        rk
        for rk, rn in zip(region["r_regionkey"], region["r_name"])
        if rn == "ASIA"
    }
    asia_nk = np.array(
        sorted(
            nk
            for nk, rk in zip(nation["n_nationkey"], nation["n_regionkey"])
            if rk in asia_rk
        ),
        dtype=np.int64,
    )
    nat_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = np.asarray(supp["s_suppkey"])
    sn = np.asarray(supp["s_nationkey"])
    supp_nat = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    supp_nat[sk] = sn  # dense suppkey -> nationkey lookup

    lo, hi = datetime.date(1996, 1, 1), datetime.date(1997, 1, 1)

    def o_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["o_orderdate"], pa.scalar(lo)),
            pc.less(batch["o_orderdate"], pa.scalar(hi)),
        )
        t = batch.filter(keep)
        return pa.Table.from_arrays(
            [t["o_custkey"].combine_chunks(), t["o_orderkey"].combine_chunks()],
            names=["custkey", "orderkey"],
        )

    def c_prep(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(np.isin(nk, asia_nk)))
        return pa.Table.from_arrays(
            [t["c_custkey"].combine_chunks(), t["c_nationkey"].combine_chunks()],
            names=["custkey", "c_nationkey"],
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_prep, batch_format="pyarrow")
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(c_prep, batch_format="pyarrow")

    # both sides of the custkey join are post-filter SMALL (~1/6 of
    # orders by date, ~1/5 of customers by region): size the exchange
    # to them — 128 buckets here is overhead-dominated at test scale
    # and pointless at cluster scale (buckets scale with the SMALLER
    # side's size, not the corpus)
    oc = partitioned_hash_join(
        orders, cust, key="custkey"
    ).map_batches(
        lambda b: b.select(["orderkey", "c_nationkey"]),
        batch_format="pyarrow",
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    pc.multiply(
                        batch["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), batch["l_discount"]),
                    ),
                    100.0,
                ),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [
                batch["l_orderkey"].combine_chunks(),
                batch["l_suppkey"].combine_chunks(),
                cents,
            ],
            names=["orderkey", "l_suppkey", "cents"],
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = partitioned_hash_join(li, oc, key="orderkey")

    def colocated(batch: pa.Table) -> pa.Table:
        skeys = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        cnat = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(supp_nat[skeys] == cnat))
        names = pa.array(
            [nat_name[int(k)] for k in t["c_nationkey"].to_pylist()],
            pa.string(),
        )
        return pa.Table.from_arrays(
            [names, t["cents"]], names=["nation", "cents"]
        )

    out = aggregate(
        joined,
        "nation",
        [("revenue_cents", "sum", "cents"), ("n_items", "count", None)],
        rows=colocated,
    ).to_pandas()
    return out.sort_values("nation").reset_index(drop=True)


TRAINING_QUERIES["regional_revenue"] = _q_regional_revenue
TRAINING_ORACLE_SQL["regional_revenue"] = """
SELECT n.n_name AS nation,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents,
       count(*) AS n_items
FROM customer c
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
               AND s.s_nationkey = c.c_nationkey
WHERE r.r_name = 'ASIA'
  AND o.o_orderdate >= DATE '1996-01-01'
  AND o.o_orderdate < DATE '1997-01-01'
GROUP BY 1
ORDER BY 1
"""

TRAINING_QUERIES["join_priority_revenue"] = _q_join_priority_revenue
TRAINING_QUERIES["top_longest_docs"] = _q_top_longest_docs
TRAINING_QUERIES["url_blocklist"] = _q_url_blocklist
TRAINING_QUERIES["url_blocklist_partitioned"] = _q_url_blocklist_partitioned
TRAINING_QUERIES["extract_psv"] = _q_extract_psv
TRAINING_ORACLE_SQL["extract_psv"] = """
WITH pages AS (
    SELECT
        'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
            || '.example.org/articles/' || lpad(CAST(doc_id AS VARCHAR), 8, '0')
            AS url,
        doc_id % 20 AS kind,
        text
    FROM documents
)
SELECT p.url, f.psv
FROM pages p
JOIN read_parquet('/root/repo/tests/fixtures/psv_expected.parquet') f
  ON md5(p.text) = f.text_md5
WHERE p.kind NOT IN (4, 5, 6)
ORDER BY p.url
"""

TRAINING_ORACLE_SQL["join_priority_revenue"] = """
SELECT o.o_orderpriority,
       CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority
ORDER BY o.o_orderpriority
"""
TRAINING_ORACLE_SQL["top_longest_docs"] = """
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id DESC LIMIT 10
"""
TRAINING_ORACLE_SQL["url_blocklist"] = """
SELECT 'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
       || '.example.org/articles/' || lpad(CAST(doc_id AS VARCHAR), 8, '0')
       AS url
FROM documents WHERE doc_id % 97 <> 0
ORDER BY url
"""
TRAINING_ORACLE_SQL["url_blocklist_partitioned"] = TRAINING_ORACLE_SQL[
    "url_blocklist"
]


def _q_ann_topk_ivf(sf_dir: str):
    """IVF ANN with full probe (n_probe = n_clusters): exactness is
    guaranteed, so it shares the brute-force oracle; lower n_probe is
    the approximate scale path (recall tested in pytest)."""
    import ray.data

    from ..stages.similarity import ivf_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    ds = ivf_topk(
        emb, query_ids=list(range(8)), k=10, n_clusters=16, n_probe=16
    )
    return (
        ds.to_pandas()
        .sort_values(["query_id", "neighbor_id"])
        .reset_index(drop=True)
    )


TRAINING_QUERIES["ann_topk_ivf"] = _q_ann_topk_ivf
TRAINING_ORACLE_SQL["ann_topk_ivf"] = TRAINING_ORACLE_SQL["ann_topk"]


def _q_token_heavy_hitters(sf_dir: str):
    """Top-20 corpus tokens by Count-Min estimate — the shuffle-free
    scale path next to the exact token_frequencies groupby. Oracled:
    the CM estimate is a batch-invariant function of the corpus
    (additive sketch, md5-derived hashes, splitmix64 bucket mixing all
    rebuilt in SQL — ``_CMS_SQL``); the candidate-union recall, the
    only batch-dependent part, is pinned separately in pytest."""
    from ..stages.textstage import heavy_hitter_tokens

    return heavy_hitter_tokens(read_documents(sf_dir, ["text"]), k=20)


TRAINING_QUERIES["token_heavy_hitters"] = _q_token_heavy_hitters
TRAINING_ORACLE_SQL["token_heavy_hitters"] = _CMS_SQL


def _q_corpus_sketch_stats(sf_dir: str):
    """Mergeable-sketch corpus stats (HLL distinct count + log-scale
    quantile histogram). Oracled bit-for-bit: both sketches are
    batch-invariant (register max / additive counts) and every
    arithmetic step is exact — md5-derived hashes, splitmix64 mixing,
    integer-exact bin boundaries, and an exact-HUGEINT harmonic
    denominator — so ``_SKETCH_STATS_SQL`` replays the estimates
    IEEE-identically."""
    import pandas as pd

    from ..stages.textstage import distinct_count_hll, quantiles_sketch

    docs = read_documents(sf_dir, ["doc_id", "n_chars"])
    distinct_docs = distinct_count_hll(docs, "doc_id")
    qs = quantiles_sketch(read_documents(sf_dir, ["n_chars"]), "n_chars")
    rows = [("distinct_doc_ids_hll", distinct_docs)] + [
        (f"n_chars_p{int(q * 100)}", v) for q, v in qs.items()
    ]
    return pd.DataFrame(rows, columns=["metric", "value"])


TRAINING_QUERIES["corpus_sketch_stats"] = _q_corpus_sketch_stats
TRAINING_ORACLE_SQL["corpus_sketch_stats"] = _SKETCH_STATS_SQL


def _q_kmv_distinct_shingles(sf_dir: str):
    """Distinct word-3-shingle count estimated by the KMV
    (k-minimum-values) sketch, k=256: per-batch bounded partials
    merged in a tiny driver reduce (``stages.textstage.
    distinct_shingles_kmv``) — the mergeable-sketch alternative to a
    full shingle-grain exchange. Oracled bit-for-bit: the k-th
    smallest distinct ``md5_number_upper`` hash is order-independent
    and the estimate ``(k-1) * 2^64 / kth`` is one float expression
    of exact integers on both sides."""
    import pandas as pd

    from ..stages.textstage import distinct_shingles_kmv

    k, kth, est = distinct_shingles_kmv(read_documents(sf_dir, ["text"]))
    return pd.DataFrame(
        {
            "k": pd.Series([k], dtype="int64"),
            "kth_hash": pd.Series([kth], dtype="uint64"),
            "est_distinct": pd.Series([est], dtype="float64"),
        }
    )


def _q_kmv_source_overlap(sf_dir: str):
    """Theta-sketch SET OPERATIONS: distinct-shingle estimates for two
    document groups (source-id parity) plus their union AND
    intersection, from bounded KMV state only
    (``stages.textstage.kmv_set_overlap``). The intersection uses the
    theta estimator — count common hashes below the union sketch's
    k-th smallest (all provably retained), scale by 2^64/θ. Every
    number is a float expression of exact integers; the SQL oracle
    rebuilds the true hash sets and replays each estimate
    bit-for-bit."""
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from ..stages.textstage import kmv_set_overlap

    def with_side(batch: pa.Table) -> pa.Table:
        import numpy as np

        src = batch["source"].to_pylist()
        side = np.array([int(s[3:]) % 2 for s in src], np.int64)
        return pa.Table.from_pydict(
            {
                "side": pa.array(side, pa.int64()),
                "text": batch["text"].combine_chunks(),
            }
        )

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    ).map_batches(with_side, batch_format="pyarrow")
    r = kmv_set_overlap(docs, "side")
    return pd.DataFrame(
        {
            "k": pd.Series([r["k"]], dtype="int64"),
            "theta": pd.Series([r["theta"]], dtype="uint64"),
            "est_a": pd.Series([r["est_a"]], dtype="float64"),
            "est_b": pd.Series([r["est_b"]], dtype="float64"),
            "est_union": pd.Series([r["est_union"]], dtype="float64"),
            "est_intersection": pd.Series(
                [r["est_intersection"]], dtype="float64"
            ),
        }
    )


TRAINING_QUERIES["kmv_source_overlap"] = _q_kmv_source_overlap
TRAINING_ORACLE_SQL["kmv_source_overlap"] = """
WITH t AS (
    SELECT CAST(substr(source, 4) AS INTEGER) % 2 AS side,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS w
    FROM documents
), sh AS (
    SELECT side,
           CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                ELSE list_transform(range(1, len(w) - 1),
                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]) END AS s
    FROM t
), h AS (
    SELECT DISTINCT side, md5_number_upper(g) AS h
    FROM (SELECT side, unnest(s) AS g FROM sh)
), ha AS (SELECT DISTINCT h FROM h WHERE side = 0),
hb AS (SELECT DISTINCT h FROM h WHERE side = 1),
hu AS (SELECT DISTINCT h FROM h),
na AS (SELECT count(*) AS c FROM ha),
nb AS (SELECT count(*) AS c FROM hb),
nu AS (SELECT count(*) AS c FROM hu),
ka AS (SELECT h FROM ha ORDER BY h LIMIT 1 OFFSET 255),
kb AS (SELECT h FROM hb ORDER BY h LIMIT 1 OFFSET 255),
ku AS (SELECT h FROM hu ORDER BY h LIMIT 1 OFFSET 255),
m AS (
    SELECT count(*) AS c FROM ha JOIN hb USING (h)
    WHERE h < (SELECT h FROM ku)
), x AS (SELECT count(*) AS c FROM ha JOIN hb USING (h))
SELECT CAST(256 AS BIGINT) AS k,
       CAST(CASE WHEN nu.c >= 256 THEN (SELECT h FROM ku)
                 ELSE 0 END AS UBIGINT) AS theta,
       CASE WHEN na.c >= 256
            THEN 255.0 * 18446744073709551616.0
                 / CAST((SELECT h FROM ka) AS DOUBLE)
            ELSE CAST(na.c AS DOUBLE) END AS est_a,
       CASE WHEN nb.c >= 256
            THEN 255.0 * 18446744073709551616.0
                 / CAST((SELECT h FROM kb) AS DOUBLE)
            ELSE CAST(nb.c AS DOUBLE) END AS est_b,
       CASE WHEN nu.c >= 256
            THEN 255.0 * 18446744073709551616.0
                 / CAST((SELECT h FROM ku) AS DOUBLE)
            ELSE CAST(nu.c AS DOUBLE) END AS est_union,
       CASE WHEN nu.c >= 256
            THEN CAST(m.c AS DOUBLE) * 18446744073709551616.0
                 / CAST((SELECT h FROM ku) AS DOUBLE)
            ELSE CAST(x.c AS DOUBLE) END AS est_intersection
FROM na, nb, nu, m, x
"""


TRAINING_QUERIES["kmv_distinct_shingles"] = _q_kmv_distinct_shingles
TRAINING_ORACLE_SQL["kmv_distinct_shingles"] = (
    "WITH " + _SHINGLE_CTE + """,
h AS (
    SELECT DISTINCT md5_number_upper(g) AS h
    FROM (SELECT unnest(s) AS g FROM sh)
), kth AS (
    SELECT h FROM h ORDER BY h LIMIT 1 OFFSET 255
), n AS (
    SELECT count(*) AS c FROM h
)
SELECT CAST(256 AS BIGINT) AS k,
       CAST(COALESCE((SELECT h FROM kth), 0) AS UBIGINT) AS kth_hash,
       CASE WHEN n.c >= 256
            THEN 255.0 * 18446744073709551616.0
                 / CAST((SELECT h FROM kth) AS DOUBLE)
            ELSE CAST(n.c AS DOUBLE) END AS est_distinct
FROM n
"""
)


def _q_events_sliding(sf_dir: str):
    """Sliding-window aggregate (1 h windows every 15 min): each event
    is fanned out to the <=4 windows containing it inside map_batches
    (vectorized), then a per-(user, window) groupby with batch-level
    combine — the standard replicate-then-aggregate spelling of
    overlapping windows (no per-event Python in the shuffle)."""
    import numpy as np
    import ray.data

    step_us = 15 * 60 * 1_000_000
    width_steps = 4  # 1 h / 15 min

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def fan_out(batch: pa.Table) -> pa.Table:
        ts_us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        # half-away-from-zero, matching DuckDB round() structurally
        # (np.rint is half-to-even — agreement would be data-dependent)
        v = batch["value"].to_numpy(zero_copy_only=False) * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
        base = ts_us // step_us  # last window START step containing ts
        outs = []
        for k in range(width_steps):
            start = (base - k) * step_us
            outs.append(
                pa.Table.from_pydict(
                    {
                        "user_id": users,
                        "window_start": start,
                        "cents": cents,
                    }
                )
            )
        return pa.concat_tables(outs)

    out = aggregate(
        ev,
        ["user_id", "window_start"],
        [("sum_cents", "sum", "cents"), ("n_events", "count", None)],
        rows=fan_out,
    ).to_pandas()
    import pandas as pd

    out["window_start"] = pd.to_datetime(
        out["window_start"], unit="us"
    ).astype("datetime64[us]")
    return out.sort_values(["user_id", "window_start"]).reset_index(drop=True)


def _q_lang_length_median(sf_dir: str):
    """Exact per-group order statistics (lower median + max + count per
    language) WITHOUT shuffling whole groups of a 5-value key: one
    grouped ``stages.selection.quantiles`` call, whose pass 0 reduces
    the stream to a (lang, n_chars) count histogram and reads the
    median off its prefix sums; ``max_chars`` is its ``hi``. Exact at
    any corpus size, and hash-identical to quantile_disc."""
    from ..stages.selection import quantiles

    out = quantiles(
        read_documents(sf_dir, ["lang", "n_chars"]), "n_chars",
        {"median_chars": 0.5}, by="lang",
    ).rename(columns={"hi": "max_chars", "n": "n_docs"})
    return out[["lang", "median_chars", "max_chars", "n_docs"]]


def _q_top_docs_per_lang(sf_dir: str):
    """Top-3 longest documents per language (grouped top-k, n_chars
    desc, doc_id asc) with ``stages/topk.topk_per_group``, never a
    whole-group shuffle: per-block partial top-3 -> one merge over
    <= 3 x blocks rows per language. No task ever holds more than k
    rows per language per input block."""
    from ..stages.topk import topk_per_group

    out = topk_per_group(
        read_documents(sf_dir, ["lang", "doc_id", "n_chars"]), "lang", 3,
        [("n_chars", "descending"), ("doc_id", "ascending")],
    ).to_pandas()
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


TRAINING_QUERIES["events_sliding"] = _q_events_sliding
TRAINING_QUERIES["lang_length_median"] = _q_lang_length_median
TRAINING_QUERIES["top_docs_per_lang"] = _q_top_docs_per_lang

TRAINING_ORACLE_SQL["events_sliding"] = """
WITH fan AS (
    SELECT e.user_id,
           to_timestamp((CAST(epoch_us(e.ts) AS BIGINT) // 900000000 - k.k)
                        * 900000000 / 1000000)::TIMESTAMP AS window_start,
           CAST(round(e.value * 100) AS BIGINT) AS cents
    FROM events e, (VALUES (0), (1), (2), (3)) AS k(k)
)
SELECT user_id, window_start,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       count(*) AS n_events
FROM fan
GROUP BY user_id, window_start
ORDER BY user_id, window_start
"""
TRAINING_ORACLE_SQL["lang_length_median"] = """
SELECT lang,
       CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS median_chars,
       CAST(max(n_chars) AS BIGINT) AS max_chars,
       count(*) AS n_docs
FROM documents
GROUP BY lang
ORDER BY lang
"""
TRAINING_ORACLE_SQL["top_docs_per_lang"] = """
SELECT lang, doc_id, CAST(n_chars AS BIGINT) AS n_chars
FROM (
    SELECT lang, doc_id, n_chars,
           row_number() OVER (PARTITION BY lang
                              ORDER BY n_chars DESC, doc_id) AS rn
    FROM documents
)
WHERE rn <= 3
ORDER BY lang, doc_id
"""


def _q_extract_quality(sf_dir: str):
    """Composed pipeline: extraction cascade -> per-document quality
    metrics over the EXTRACTED text (stopword density, alpha fraction,
    punctuation, BPE-ish token counts). The byte-identity contract is
    what lets the oracle compute the same integers from the synthetic
    ground-truth text — a cross-check of extraction x analysis
    composition, and the metric set a quality-gating cascade stage
    would consume."""
    import pyarrow.compute as pc

    from ..functions.textstats import quality_counts
    from ..sources.pages import read_pages
    from .extraction import extraction_pipeline

    ds = extraction_pipeline(read_pages(sf_dir), derive_psv=False)

    def metrics(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["status"], "succeeded"))
        cols = {"url": batch["url"].to_pylist()}
        rows = [quality_counts(t) for t in batch["text"].to_pylist()]
        for key in (
            "n_chars", "n_tokens", "n_stop", "n_alpha_chars",
            "n_punct", "n_bpe_tokens",
        ):
            cols[key] = pa.array([r[key] for r in rows], pa.int64())
        return pa.Table.from_pydict(cols)

    return (
        ds.map_batches(metrics, batch_format="pyarrow")
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )


TRAINING_QUERIES["extract_quality"] = _q_extract_quality
TRAINING_ORACLE_SQL["extract_quality"] = f"""
WITH pages AS (
    SELECT
        'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
            || '.example.org/articles/' || lpad(CAST(doc_id AS VARCHAR), 8, '0')
            AS url,
        doc_id % 20 AS kind,
        text
    FROM documents
)
SELECT url,
       length(text) AS n_chars,
       len(list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '')) AS n_tokens,
       len(list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> list_contains({{stop}}, lower(x)))) AS n_stop,
       length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS n_alpha_chars,
       length(text) - length(regexp_replace(text, '[^\\w\\s]', '', 'g'))
           AS n_punct,
       len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS n_bpe_tokens
FROM pages WHERE kind NOT IN (4, 5, 6)
ORDER BY url
""".replace("{stop}", _sql_list(STOPWORDS))


def _q_extract_errors(sf_dir: str):
    """Failure-record parity: per failed url, the exact error message
    (the reference stores exception text in FAILED records,
    fulltext/extract.py:212-217 — messages here are deterministic, so
    SQL can reconstruct them)."""
    from ..sources.pages import read_pages
    from .extraction import extraction_pipeline

    ds = extraction_pipeline(read_pages(sf_dir), derive_psv=False)
    df = ds.to_pandas()
    return (
        df[df.status == "failed"][["url", "error"]]
        .sort_values("url")
        .reset_index(drop=True)
    )


TRAINING_QUERIES["extract_errors"] = _q_extract_errors
TRAINING_ORACLE_SQL["extract_errors"] = """
WITH pages AS (
    SELECT
        'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
            || '.example.org/articles/' || lpad(CAST(doc_id AS VARCHAR), 8, '0')
            AS url,
        doc_id % 20 AS kind
    FROM documents
)
SELECT url,
       CASE kind
           WHEN 4 THEN 'No content in "' || url || '"'
           WHEN 5 THEN 'Unsupported payload in "' || url || '"'
           WHEN 6 THEN 'No accurate text could be extracted from "'
                       || url || '"'
       END AS error
FROM pages WHERE kind IN (4, 5, 6)
ORDER BY url
"""


# ---------------------------------------- TPC-H-shaped join coverage

def _q_order_priority_semi(sf_dir: str):
    """Q4-shaped EXISTS semi-join: orders with at least one returned
    lineitem, counted per priority. The filter side is projected to
    keys inside ``partitioned_hash_join(how='semi')`` so the shuffle
    never moves lineitem payload."""
    import ray.data

    from ..stages.relational import partitioned_hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"],
    )

    def returned_keys(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        return pa.Table.from_pydict(
            {"o_orderkey": b["l_orderkey"]}
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag"],
    ).map_batches(returned_keys, batch_format="pyarrow")
    semi = partitioned_hash_join(orders, li, key="o_orderkey", how="semi")
    out = aggregate(
        semi, "o_orderpriority", [("n_orders", "count", None)]
    ).to_pandas()
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def _q_brand_supplier_count(sf_dir: str):
    """Q16-shaped distinct-count with an exclusion list: suppliers per
    brand over larger parts, minus negative-balance suppliers.
    Pipeline: bucketed hash join (lineitem x part) -> broadcast
    anti-join (the tiny exclusion side ships once) -> distinct
    (brand, supp) pairs -> brand count, both through
    ``stages/aggregate.py``."""
    import ray.data

    from ..stages.relational import (
        broadcast_anti_join,
        partitioned_hash_join,
    )

    def rename_li(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"p_partkey": batch["l_partkey"], "l_suppkey": batch["l_suppkey"]}
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    ).map_batches(rename_li, batch_format="pyarrow")

    def big_parts(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["p_size"], 25)).select(
            ["p_partkey", "p_brand"]
        )

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(big_parts, batch_format="pyarrow")

    bad = [
        r["s_suppkey"]
        for r in ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet",
            columns=["s_suppkey", "s_acctbal"],
        )
        .map_batches(
            lambda b: b.filter(pc.less(b["s_acctbal"], 0)).select(
                ["s_suppkey"]
            ),
            batch_format="pyarrow",
        )
        .take_all()
    ]

    joined = partitioned_hash_join(li, part, key="p_partkey", how="inner")
    kept = broadcast_anti_join(joined, "l_suppkey", bad)

    distinct_pairs = aggregate(kept, ["p_brand", "l_suppkey"], [])
    out = aggregate(
        distinct_pairs, "p_brand", [("n_suppliers", "count", None)]
    ).to_pandas()
    return out.sort_values("p_brand").reset_index(drop=True)


TRAINING_QUERIES["order_priority_semi"] = _q_order_priority_semi
TRAINING_ORACLE_SQL["order_priority_semi"] = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_returnflag = 'R')
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""

TRAINING_QUERIES["brand_supplier_count"] = _q_brand_supplier_count
TRAINING_ORACLE_SQL["brand_supplier_count"] = """
SELECT p_brand,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS n_suppliers
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_size >= 25
  AND l_suppkey NOT IN
      (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY p_brand
ORDER BY p_brand
"""


# AMS tug-of-war F2 rebuilt in SQL: exact token counts, per-counter
# sign = bit 0 of splitmix64(xor(md5_hash, seed_j)) mapping to +-n,
# Z_j the signed HUGEINT sum over the 9x16 median-of-means counters,
# group statistic = exact integer sum of the group's 16 Z^2, estimate
# = quantile_disc(group sums, 0.5) / 16 in one final float division.
# The sketch is additive in the key hash, so the oracle needs no
# knowledge of Ray's batching.
def _ams_seeds():
    import numpy as np

    rng = np.random.default_rng(424242)
    return rng.integers(
        0, np.iinfo(np.uint64).max, size=9 * 16, dtype=np.uint64
    ).tolist()


_AMS_SEED_VALUES = ", ".join(
    f"({j}, {s}::UBIGINT)" for j, s in enumerate(_ams_seeds())
)


def _q_token_f2_ams(sf_dir: str):
    """Second frequency moment of the corpus token distribution, both
    ways at once: the EXACT F2 = sum(count^2) (token groupby from
    per-batch partial counts) next to the AMS tug-of-war ESTIMATE
    (``functions.sketches.AMSSketch``, 9 groups x 16 counters,
    median-of-means). The sketch side never shuffles tokens — each
    batch folds its partial token counts into a 144-counter Z vector
    (sign = bit 0 of seeded splitmix64 of the token's md5 hash) and
    only the 1,152-byte partials reduce; the estimate is the exact
    integer median of the per-group sum(Z^2) divided by 16 in one
    float op, so the SQL oracle replays it bit-for-bit. rel_err is
    float arithmetic on the two exact results."""
    from collections import Counter

    import numpy as np

    from ..functions.shingles import stable_hash64
    from ..functions.sketches import AMSSketch

    def partial(batch: pa.Table) -> pa.Table:
        counts = Counter()
        for t in batch["text"].to_pylist():
            counts.update(t.split())
        toks = list(counts.keys())
        return pa.Table.from_pydict(
            {
                "token": pa.array(toks, pa.string()),
                "n": pa.array(
                    [counts[t] for t in toks], pa.int64()
                ),
            }
        )

    rows = read_documents(sf_dir, ["text"]).map_batches(
        partial, batch_format="pyarrow"
    ).materialize()  # reused: sketch fold + exact groupby

    n_counters = 9 * 16

    def z_partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions.shingles import stable_hash64
        from ..functions.sketches import AMSSketch

        sk = AMSSketch()
        toks = batch["token"].to_pylist()
        ns = batch["n"].to_numpy(zero_copy_only=False)
        hs = np.array(
            [stable_hash64(t) for t in toks], dtype=np.uint64
        )
        sk.add_hashes(hs, ns)
        return pa.Table.from_pydict(
            {f"z{j}": pa.array([int(sk.z[j])], pa.int64())
             for j in range(n_counters)}
        )

    ztot = aggregate(
        rows,
        [],
        [(f"z{j}", "sum", f"z{j}") for j in range(n_counters)],
        rows=z_partial,
    )
    sk = AMSSketch()
    sk.z = np.array(
        [int(ztot[f"z{j}"]) for j in range(n_counters)],
        dtype=np.int64,
    )
    ams_estimate = sk.estimate()

    f2_exact = int(
        aggregate(
            aggregate(rows, "token", [("n", "sum", "n")]),
            [],
            [("sq", "sum", "sq")],
            rows=lambda b: pa.table({"sq": pc.multiply(b["n"], b["n"])}),
        )["sq"]
    )
    import pandas as pd

    return pd.DataFrame(
        {
            "f2_exact": [f2_exact],
            "ams_estimate": [ams_estimate],
            "rel_err": [abs(ams_estimate - f2_exact) / f2_exact],
        }
    )


TRAINING_QUERIES["token_f2_ams"] = _q_token_f2_ams
TRAINING_ORACLE_SQL["token_f2_ams"] = f"""
WITH tc AS (
    SELECT tok, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                    t -> t <> '')) AS tok
          FROM documents)
    GROUP BY tok
), hashed AS (
    SELECT tok, n, md5_number_upper(tok) AS h FROM tc
), signs AS (
    SELECT s.j,
           CASE WHEN ({_splitmix64_sql("xor(h, s.seed)")} % 2) = 1::UBIGINT
                THEN n ELSE -n END AS sn
    FROM hashed CROSS JOIN (VALUES {_AMS_SEED_VALUES}) s(j, seed)
), z AS (
    SELECT j, CAST(sum(sn) AS BIGINT) AS zv FROM signs GROUP BY j
), grp AS (
    SELECT j // 16 AS g,
           CAST(sum(CAST(zv AS HUGEINT) * zv) AS HUGEINT) AS s2
    FROM z GROUP BY 1
), est AS (
    SELECT CAST(quantile_disc(s2, 0.5) AS DOUBLE) / 16 AS ams_estimate
    FROM grp
), f2 AS (
    SELECT CAST(sum(CAST(n AS HUGEINT) * n) AS BIGINT) AS f2_exact
    FROM tc
)
SELECT f2.f2_exact, est.ams_estimate,
       abs(est.ams_estimate - CAST(f2.f2_exact AS DOUBLE))
           / CAST(f2.f2_exact AS DOUBLE) AS rel_err
FROM f2, est
"""


def _q_lang_confusion(sf_dir: str):
    """Model-evaluation confusion matrix: declared lang x n-gram
    heuristic prediction (``stages.textstage.langid_batch``), exact
    counts. One (lang, lang_pred) grouped count
    (``stages/aggregate.py``) — the corpus never shuffles text."""
    from ..stages.textstage import langid_batch

    out = aggregate(
        read_documents(sf_dir, ["doc_id", "text", "lang"]).map_batches(
            langid_batch, batch_format="pyarrow"
        ),
        ["lang", "lang_pred"],
        [("n", "count", "lang_pred")],
        rows=lambda b: b.select(["lang_label", "lang_pred"]).rename_columns(
            ["lang", "lang_pred"]
        ),
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["lang", "lang_pred"]).reset_index(drop=True)


TRAINING_QUERIES["lang_confusion"] = _q_lang_confusion
TRAINING_ORACLE_SQL["lang_confusion"] = f"""
SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) AS n
FROM documents d JOIN ({_LANGID_SQL}) p ON d.doc_id = p.doc_id
GROUP BY d.lang, p.lang_pred
ORDER BY d.lang, p.lang_pred
"""


def _q_token_hapax(sf_dir: str):
    """Hapax legomena census (the vocabulary-growth / data-quality
    stat): total tokens, vocabulary size, tokens occurring exactly
    once / twice, and the hapax share of the vocabulary — exact
    integers from the token counts (``stages/aggregate.py``), the
    share one float division."""
    import pandas as pd

    def census(batch: pa.Table) -> pa.Table:
        n = batch["n"]
        return pa.table(
            {
                "n": n,
                "is1": pc.cast(pc.equal(n, 1), pa.int64()),
                "is2": pc.cast(pc.equal(n, 2), pa.int64()),
            }
        )

    agg = aggregate(
        aggregate(
            read_documents(sf_dir, ["text"]),
            "token",
            [("n", "count", None)],
            rows=_tokens_of,
        ),
        [],
        [
            ("n_tokens", "sum", "n"),
            ("vocab", "count", None),
            ("hapax", "sum", "is1"),
            ("dis", "sum", "is2"),
        ],
        rows=census,
    )
    n_tokens, vocab = int(agg["n_tokens"]), int(agg["vocab"])
    hapax, dis = int(agg["hapax"]), int(agg["dis"])
    return pd.DataFrame(
        {
            "n_tokens": [n_tokens],
            "vocab": [vocab],
            "hapax": [hapax],
            "dis_legomena": [dis],
            "hapax_share": [hapax / vocab if vocab else 0.0],
        }
    )


TRAINING_QUERIES["token_hapax"] = _q_token_hapax
TRAINING_ORACLE_SQL["token_hapax"] = """
WITH tc AS (
    SELECT tok, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                    t -> t <> '')) AS tok
          FROM documents)
    GROUP BY tok
)
SELECT CAST(sum(n) AS BIGINT) AS n_tokens,
       CAST(count(*) AS BIGINT) AS vocab,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS hapax,
       CAST(sum(CASE WHEN n = 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS dis_legomena,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS DOUBLE)
           / CAST(count(*) AS DOUBLE) AS hapax_share
FROM tc
"""


def _q_token_zipf_fit(sf_dir: str):
    """Zipf's-law fit: OLS slope/intercept of ln(freq) on ln(rank)
    over the top-50 tokens (rank by count desc, token asc — an exact
    integer selection via ``stages/topk.topk``, so both engines
    regress the SAME 50 points). The regression runs on the driver over 50 rows
    with the explicit sufficient-sum formula; the oracle spells the
    identical sums (sum order differs at ~1e-15 — the documented
    pagerank tolerance, far below the 6-decimal compare)."""
    import math

    import pandas as pd

    from ..stages.topk import topk

    top = topk(
        aggregate(
            read_documents(sf_dir, ["text"]),
            "token",
            [("n", "count", None)],
            rows=_tokens_of,
        ),
        50, [("n", "descending"), ("token", "ascending")],
    ).to_pandas()
    k = len(top)
    sx = sy = sxy = sxx = 0.0
    for rank, n in enumerate(top["n"].astype("int64"), start=1):
        x, y = math.log(float(rank)), math.log(float(int(n)))
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    intercept = (sy - slope * sx) / k
    return pd.DataFrame(
        {"k": [k], "zipf_slope": [slope], "zipf_intercept": [intercept]}
    )


TRAINING_QUERIES["token_zipf_fit"] = _q_token_zipf_fit
TRAINING_ORACLE_SQL["token_zipf_fit"] = """
WITH tc AS (
    SELECT tok, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                    t -> t <> '')) AS tok
          FROM documents)
    GROUP BY tok
), top AS (
    SELECT n, row_number() OVER (ORDER BY n DESC, tok ASC) AS rank
    FROM tc ORDER BY n DESC, tok ASC LIMIT 50
), pts AS (
    SELECT ln(CAST(rank AS DOUBLE)) AS x,
           ln(CAST(n AS DOUBLE)) AS y
    FROM top
), s AS (
    SELECT CAST(count(*) AS BIGINT) AS k,
           sum(x) AS sx, sum(y) AS sy,
           sum(x * y) AS sxy, sum(x * x) AS sxx
    FROM pts
)
SELECT k,
       (k * sxy - sx * sy) / (k * sxx - sx * sx) AS zipf_slope,
       (sy - ((k * sxy - sx * sy) / (k * sxx - sx * sx)) * sx) / k
           AS zipf_intercept
FROM s
"""


def _q_doc_ngram_novelty(sf_dir: str):
    """Novelty curve for dataset curation (memorization analysis):
    per document, the count of its distinct word 3-gram shingles and
    how many appear for the FIRST time in doc_id order (shingle's
    minimum doc_id == this doc), novelty = the ratio. Exchanges move
    only 8-byte shingle hashes: one groupby(hash) Min(doc_id) for
    first appearances + one tiny per-doc count — the
    events_cumulative_users first-appearance pattern on the
    dedup-family shingle grain. Docs with zero shingles are excluded
    (no ratio), mirroring the oracle's WHERE."""
    import numpy as np
    import pandas as pd

    from ..functions.shingles import shingle_hashes

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids, hs, tot_ids, tot_ns = [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            h = shingle_hashes(text)
            if h.size == 0:
                continue
            ids.append(np.full(h.size, did, dtype=np.int64))
            hs.append(h.view(np.int64))
            tot_ids.append(did)
            tot_ns.append(h.size)
        if not ids:
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "h": pa.array([], pa.int64()),
                }
            )
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(np.concatenate(ids), pa.int64()),
                "h": pa.array(np.concatenate(hs), pa.int64()),
            }
        )

    rows = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow"
    ).materialize()  # reused: totals + first-appearance

    totals = aggregate(
        rows, "doc_id", [("n_shingles", "count", None)]
    ).to_pandas()
    novel = aggregate(
        aggregate(rows, "h", [("d0", "min", "doc_id")]),
        "doc_id",
        [("n_novel", "count", None)],
        rows=lambda b: b.select(["d0"]).rename_columns(["doc_id"]),
    ).to_pandas()
    out = totals.merge(novel, on="doc_id", how="left")
    out["n_novel"] = out["n_novel"].fillna(0).astype("int64")
    out["n_shingles"] = out["n_shingles"].astype("int64")
    out["novelty"] = out["n_novel"].astype("float64") / out[
        "n_shingles"
    ].astype("float64")
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "n_shingles", "n_novel", "novelty"]
    ]


TRAINING_QUERIES["doc_ngram_novelty"] = _q_doc_ngram_novelty
TRAINING_ORACLE_SQL["doc_ngram_novelty"] = (
    "WITH " + _SHINGLE_CTE + """
, ex AS (
    SELECT doc_id, unnest(s) AS shv FROM sh
), tot AS (
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_shingles
    FROM ex GROUP BY doc_id
), fa AS (
    SELECT shv, min(doc_id) AS d0 FROM ex GROUP BY shv
), nov AS (
    SELECT d0 AS doc_id, CAST(count(*) AS BIGINT) AS n_novel
    FROM fa GROUP BY d0
)
SELECT t.doc_id, t.n_shingles,
       CAST(coalesce(nov.n_novel, 0) AS BIGINT) AS n_novel,
       CAST(coalesce(nov.n_novel, 0) AS DOUBLE)
           / CAST(t.n_shingles AS DOUBLE) AS novelty
FROM tot t LEFT JOIN nov ON nov.doc_id = t.doc_id
WHERE t.n_shingles > 0
ORDER BY t.doc_id
"""
)


# ------------------------------------- vocabulary growth (Heaps' law)

# Contiguous hash-range phase boundaries for (h * 10) >> 32 over the
# md5-u32 order key: phase p starts at ceil(p * 2^32 / 10), embedded
# as fixed-width lowercase hex so the SQL can bucket by plain string
# comparison (the ordering-contract device from mixing/window).
_HEAPS_BOUNDS = "[" + ", ".join(
    "'" + format(-((-(p << 32)) // 10), "08x") + "'" for p in range(1, 10)
) + "]"


def _q_token_heaps(sf_dir: str):
    """Heaps'-law vocabulary-growth curve: the corpus laid out in the
    engine's canonical hash order (md5-u32 of doc_id — the mixing /
    window ORDER contract) is cut into 10 contiguous hash-range phases
    (``(h * 10) >> 32``, the token-budget bucket scheme — phase p ==
    "the p-th tenth of the stream"); per phase the exact token count
    and the count of tokens whose FIRST appearance falls in that
    phase, plus running totals. The events_cumulative_users
    first-appearance idiom applied to vocabulary: per-batch
    (token, phase, n) partials -> ONE token exchange (Min(phase) for
    first appearance, per-phase Sums for volume) -> a 10-row driver
    fold. All integers; phase assignment needs no rank/sort at any
    scale."""
    from collections import Counter

    import numpy as np
    import pandas as pd

    from ..stages.mixing import doc_hash_keys

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        phases = (
            (doc_hash_keys(ids) * np.uint64(10)) >> np.uint64(32)
        ).astype(np.int64)
        counts: Counter = Counter()
        for ph, t in zip(phases, batch["text"].to_pylist()):
            for w in t.split():
                counts[(w, int(ph))] += 1
        keys = list(counts.keys())
        return pa.Table.from_pydict(
            {
                "token": pa.array([k[0] for k in keys], pa.string()),
                "phase": pa.array([k[1] for k in keys], pa.int64()),
                "n": pa.array([counts[k] for k in keys], pa.int64()),
            }
        )

    parts = (
        read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .materialize()  # feeds TWO aggregates; never re-tokenize
    )
    per_phase = aggregate(
        parts, "phase", [("n_tokens", "sum", "n")]
    ).to_pandas()
    first = aggregate(
        aggregate(parts, "token", [("p0", "min", "phase")]),
        "phase",
        [("new_vocab", "count", None)],
        rows=lambda b: b.select(["p0"]).rename_columns(["phase"]),
    ).to_pandas()
    out = (
        pd.DataFrame({"phase": np.arange(10, dtype=np.int64)})
        .merge(per_phase, on="phase", how="left")
        .merge(first, on="phase", how="left")
        .fillna(0)
    )
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["new_vocab"] = out["new_vocab"].astype("int64")
    out["cum_tokens"] = out["n_tokens"].cumsum().astype("int64")
    out["cum_vocab"] = out["new_vocab"].cumsum().astype("int64")
    return out[
        ["phase", "n_tokens", "cum_tokens", "new_vocab", "cum_vocab"]
    ]


TRAINING_QUERIES["token_heaps"] = _q_token_heaps
TRAINING_ORACLE_SQL["token_heaps"] = f"""
WITH ph AS (
    SELECT CAST(len(list_filter({_HEAPS_BOUNDS},
               b -> b <= substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)))
           AS BIGINT) AS phase,
           text
    FROM documents
), toks AS (
    SELECT phase,
           unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                              x -> x <> '')) AS tok
    FROM ph
), pt AS (
    SELECT phase, CAST(count(*) AS BIGINT) AS n_tokens
    FROM toks GROUP BY phase
), fa AS (
    SELECT tok, min(phase) AS p0 FROM toks GROUP BY tok
), nv AS (
    SELECT p0 AS phase, CAST(count(*) AS BIGINT) AS new_vocab
    FROM fa GROUP BY p0
), spine AS (SELECT unnest(range(10)) AS phase)
SELECT CAST(s.phase AS BIGINT) AS phase,
       CAST(coalesce(pt.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(sum(coalesce(pt.n_tokens, 0)) OVER (ORDER BY s.phase)
            AS BIGINT) AS cum_tokens,
       CAST(coalesce(nv.new_vocab, 0) AS BIGINT) AS new_vocab,
       CAST(sum(coalesce(nv.new_vocab, 0)) OVER (ORDER BY s.phase)
            AS BIGINT) AS cum_vocab
FROM spine s
LEFT JOIN pt ON pt.phase = s.phase
LEFT JOIN nv ON nv.phase = s.phase
ORDER BY s.phase
"""


# ----------------------------- temperature-rebalanced language mixing

def _q_lang_temperature_mix(sf_dir: str):
    """mT5/XLM-R-style temperature sampling weights per language:
    exact per-lang token counts (one tiny aggregate — per-batch
    (lang, n) partials), then w_l proportional to p_l^alpha with
    alpha = 0.3 (the mT5 setting), normalized; ``boost`` = w/p is the
    up/down-sampling factor the mixture applies to each language.
    The aggregate is language-arity-sized at any corpus scale; the
    float steps are transcribed into SQL with identical association
    (FLOAT-MIRROR contract)."""
    import pandas as pd

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch["lang"],
                "n": pa.array(
                    [len(t.split()) for t in batch["text"].to_pylist()],
                    pa.int64(),
                ),
            }
        )

    agg = (
        aggregate(
            read_documents(sf_dir, ["lang", "text"]),
            "lang",
            [("n_tokens", "sum", "n")],
            rows=rows,
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    total = int(agg["n_tokens"].sum())
    p = agg["n_tokens"].astype("float64") / float(total)
    w = p**0.3
    sw = float(w.sum())
    wt = w / sw
    return pd.DataFrame(
        {
            "lang": agg["lang"],
            "n_tokens": agg["n_tokens"].astype("int64"),
            "p_raw": p,
            "w_temp": wt,
            "boost": wt / p,
        }
    )


TRAINING_QUERIES["lang_temperature_mix"] = _q_lang_temperature_mix
TRAINING_ORACLE_SQL["lang_temperature_mix"] = """
WITH lt AS (
    SELECT lang,
           CAST(sum(len(list_filter(
               regexp_split_to_array(text, '\\s+'), x -> x <> '')))
           AS BIGINT) AS n_tokens
    FROM documents GROUP BY lang
), tot AS (SELECT CAST(sum(n_tokens) AS BIGINT) AS t FROM lt),
w AS (
    SELECT lang, n_tokens,
           CAST(n_tokens AS DOUBLE) / CAST(t AS DOUBLE) AS p_raw,
           pow(CAST(n_tokens AS DOUBLE) / CAST(t AS DOUBLE), 0.3) AS w
    FROM lt CROSS JOIN tot
), s AS (SELECT sum(w) AS sw FROM w)
SELECT lang, n_tokens, p_raw, w / sw AS w_temp,
       (w / sw) / p_raw AS boost
FROM w CROSS JOIN s ORDER BY lang
"""


# --------------------------- LSH candidate-generation quality eval

# A deliberately coarse LSH config (8 bands x 1 row: per-band hit
# prob for a pair IS its Jaccard) so the eval measures a REAL
# trade-off on THIS corpus. The corpus's pair-Jaccard distribution is
# bimodal (probed: J>=0.90 for the synthesized near-dups, J<=0.07
# for the common-vocabulary background mass) — so ANY config has
# recall ~1 at threshold 0.5, and the exercised axis is PRECISION:
# 1-row bands let the ~11k low-J background pairs flood the candidate
# set, measuring the over-generation the verify stage must absorb.
# The production config (64 bands x 2 rows) keeps precision ~1 here
# and would make this query degenerate in the other direction.
_LSH_EVAL_PERM, _LSH_EVAL_BANDS, _LSH_EVAL_ROWS = 8, 8, 1


def _q_dedup_lsh_eval(sf_dir: str):
    """Candidate-generation quality of MinHash-LSH measured against
    the exact n-gram-Jaccard ground truth (the eval every dedup
    pipeline needs before trusting a bands/rows setting): candidate
    pairs from the band buckets (NO verify step), truth = exact
    J >= 0.5 pairs, then precision = hits/candidates and recall =
    hits/truth. Distributed shape: the LSH side is the standard
    shingle -> band -> bucket_pairs plan, the truth side the standard
    exact-verify plan; hits = ONE composite-key semi join (candidate
    volume, never the corpus, crosses the exchange). Oracled: the 32
    seeded splitmix64 permutations and the 8 band-fold salts are
    embedded as literals and replayed with the HUGEINT splitmix64
    device, including the >256-doc hot-bucket drop."""
    import pandas as pd

    from ..stages.neardup import (
        bucket_pairs,
        minhash_band_batch,
        neardup_pairs,
        shingle_batch,
    )
    from ..stages.relational import partitioned_hash_join

    docs = read_documents(sf_dir, ["doc_id", "text"]).materialize()
    banded = docs.map_batches(
        shingle_batch, batch_format="pyarrow"
    ).map_batches(
        lambda b: minhash_band_batch(
            b,
            num_perm=_LSH_EVAL_PERM,
            bands=_LSH_EVAL_BANDS,
            rows=_LSH_EVAL_ROWS,
        ),
        batch_format="pyarrow",
    )
    # bucket_pairs dedups only within batches; one tiny pair-grain
    # aggregate makes the candidate set globally distinct
    cands = aggregate(
        bucket_pairs(banded), ["doc_a", "doc_b"], []
    ).materialize()
    truth = (
        neardup_pairs(docs, method="ngram", threshold=0.5)
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )
    n_cand, n_truth = int(cands.count()), int(truth.count())
    n_hit = int(
        partitioned_hash_join(
            cands, truth, key=["doc_a", "doc_b"], how="semi",
        ).count()
    )
    return pd.DataFrame(
        {
            "n_truth": [n_truth],
            "n_candidates": [n_cand],
            "n_hits": [n_hit],
            "precision": [n_hit / n_cand if n_cand else 0.0],
            "recall": [n_hit / n_truth if n_truth else 0.0],
        }
    )


def _lsh_eval_sql() -> str:
    import numpy as np

    from ..functions.shingles import MinHasher, _splitmix64

    seeds = MinHasher(_LSH_EVAL_PERM).seeds
    seed_vals = ", ".join(
        f"({i}, {int(s)}::UBIGINT)" for i, s in enumerate(seeds)
    )
    salts = _splitmix64(
        (np.arange(_LSH_EVAL_BANDS, dtype=np.uint64) + np.uint64(1))
        * np.uint64(0x9E3779B97F4A7C15)
    )
    salt_vals = ", ".join(
        f"({b}, {int(s)}::UBIGINT)" for b, s in enumerate(salts)
    )
    sm = _splitmix64_sql
    # the band-key fold chains one splitmix per signature row; each
    # chain step is its own CTE so the HUGEINT expression never nests
    # (inline nesting multiplies the SQL text ~70x per level)
    chain = ""
    for r in range(1, _LSH_EVAL_ROWS):
        chain += f""",
a{r} AS (
    SELECT a.doc_id, a.band, {sm(f"xor(a.acc, p.sv)")} AS acc
    FROM a{r - 1} a JOIN piv p
      ON p.doc_id = a.doc_id AND p.band = a.band AND p.r = {r}
)"""
    return (
        "WITH " + _SHINGLE_CTE + f""",
hashes AS (
    SELECT DISTINCT doc_id, md5_number_upper(unnest(s)) AS h FROM sh
),
sig AS (
    SELECT doc_id, sd.i, min({sm("xor(h, sd.seed)")}) AS sv
    FROM hashes CROSS JOIN (VALUES {seed_vals}) sd(i, seed)
    GROUP BY doc_id, sd.i
),
piv AS (
    SELECT doc_id, i // {_LSH_EVAL_ROWS} AS band,
           i % {_LSH_EVAL_ROWS} AS r, sv
    FROM sig
),
a0 AS (
    SELECT p.doc_id, p.band, {sm("xor(st.salt, p.sv)")} AS acc
    FROM piv p JOIN (VALUES {salt_vals}) st(band, salt)
      ON st.band = p.band
    WHERE p.r = 0
){chain},
buckets AS (
    SELECT DISTINCT doc_id, acc AS key FROM a{_LSH_EVAL_ROWS - 1}
),
keep AS (
    SELECT key FROM buckets GROUP BY key
    HAVING count(*) >= 2 AND count(*) <= 256
),
cand AS (
    SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
    FROM buckets x
    JOIN keep USING (key)
    JOIN buckets y USING (key)
    WHERE x.doc_id < y.doc_id
),
truth AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    WHERE len(list_distinct(a.s || b.s)) > 0
      AND CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
          / len(list_distinct(a.s || b.s)) >= 0.5
),
m AS (
    SELECT
        (SELECT CAST(count(*) AS BIGINT) FROM truth) AS n_truth,
        (SELECT CAST(count(*) AS BIGINT) FROM cand) AS n_candidates,
        (SELECT CAST(count(*) AS BIGINT)
         FROM cand JOIN truth USING (doc_a, doc_b)) AS n_hits
)
SELECT n_truth, n_candidates, n_hits,
       CASE WHEN n_candidates > 0
            THEN CAST(n_hits AS DOUBLE) / n_candidates ELSE 0.0
       END AS precision,
       CASE WHEN n_truth > 0
            THEN CAST(n_hits AS DOUBLE) / n_truth ELSE 0.0
       END AS recall
FROM m
"""
    )


TRAINING_QUERIES["dedup_lsh_eval"] = _q_dedup_lsh_eval
TRAINING_ORACLE_SQL["dedup_lsh_eval"] = _lsh_eval_sql()


# ------------------------- quantized-index quality eval (recall@10)

def _q_ann_quantized_recall(sf_dir: str):
    """Index-compression quality eval: recall@10 of brute-force ANN
    over the int8-QUANTIZED embeddings against the exact float-cosine
    baseline, per query — the acceptance test run before shipping a
    compressed ANN index. The quantized ranking is EXACT INTEGER
    arithmetic end to end (codes <= 127, 64 dims -> dots <= ~1e6), so
    ties at the k boundary break identically on both engines
    (dot DESC, vec_id ASC) and the oracle replays it bit-for-bit;
    the float baseline reuses the pinned ann_topk ranking.

    Physical plan: one Max exchange for the per-dim scales (64 rows),
    scales + quantized query matrix broadcast via ray.put, per-batch
    integer matmul, then ``stages/topk.topk_per_group`` (per-batch
    partial top-k, one tiny per-query merge) — the corpus is never
    held whole anywhere; the exact baseline is the existing ann_topk
    stage (same streaming shape)."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data

    from ..stages.similarity import (
        NEIGHBOR_ORDER,
        _matrix_of,
        ann_topk,
        neighbor_rows,
    )
    from ..stages.topk import topk_per_group

    k = 10
    qids = list(range(8))
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet"
    ).materialize()  # feeds scales + exact + quantized passes once

    def absmax_rows(b: pa.Table) -> pa.Table:
        import numpy as np

        m = np.abs(_matrix_of(b).astype(np.float64)).max(axis=0)
        return pa.Table.from_pydict(
            {
                "dim": pa.array(np.arange(m.size), pa.int64()),
                "am": pa.array(m, pa.float64()),
            }
        )

    sc = (
        aggregate(emb, "dim", [("am", "max", "am")], rows=absmax_rows)
        .to_pandas()
        .sort_values("dim")
    )
    scales = sc["am"].to_numpy()

    def quantize(m: "np.ndarray") -> "np.ndarray":
        # floor(v * 127 / scale + 0.5): same association as the SQL
        return np.floor(
            m.astype(np.float64) * 127.0 / scales + 0.5
        ).astype(np.int64)

    qdf = (
        emb.map_batches(
            lambda b: b.filter(
                pc.is_in(b["vec_id"], value_set=pa.array(qids, pa.int64()))
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    qids_arr = qdf["vec_id"].to_numpy()
    qcodes = quantize(np.array(qdf["embedding"].tolist(), np.float64))
    qref = ray.put((qids_arr, qcodes))

    def candidates(batch: pa.Table) -> pa.Table:
        ids, qc = ray.get(qref)
        vids = np.asarray(batch["vec_id"].to_pylist(), np.int64)
        dots = qc @ quantize(_matrix_of(batch)).T  # int64 exact
        # the int64 dot product rides in the "sim" score column
        return neighbor_rows(ids, vids, dots, vids != ids[:, None])

    approx = topk_per_group(
        emb.map_batches(candidates, batch_format="pyarrow"),
        "query_id", k, NEIGHBOR_ORDER,
    ).to_pandas()[["query_id", "neighbor_id"]]
    exact = ann_topk(emb, query_ids=qids, k=k).to_pandas()[
        ["query_id", "neighbor_id"]
    ]

    hit = exact.merge(approx, on=["query_id", "neighbor_id"])
    n_hit = hit.groupby("query_id").size()
    out = pd.DataFrame({"query_id": sorted(int(q) for q in qids)})
    out["n_hit"] = (
        out["query_id"].map(n_hit).fillna(0).astype("int64")
    )
    out["recall"] = out["n_hit"] / 10.0
    return out.reset_index(drop=True)


TRAINING_QUERIES["ann_quantized_recall"] = _q_ann_quantized_recall
TRAINING_ORACLE_SQL["ann_quantized_recall"] = """
WITH dims AS (
    SELECT range AS i FROM range(1, 65)
), vals AS (
    SELECT e.vec_id, d.i - 1 AS dim,
           CAST(list_extract(e.embedding, d.i) AS DOUBLE) AS v
    FROM embeddings e CROSS JOIN dims d
), sc AS (
    SELECT dim, max(abs(v)) AS scale FROM vals GROUP BY dim
), codes AS (
    SELECT v.vec_id, v.dim,
           CAST(floor(v.v * 127.0 / s.scale + 0.5) AS BIGINT) AS c
    FROM vals v JOIN sc s ON s.dim = v.dim
), qd AS (
    SELECT a.vec_id AS query_id, b.vec_id AS cand,
           sum(a.c * b.c) AS dot
    FROM codes a JOIN codes b ON a.dim = b.dim
    WHERE a.vec_id < 8 AND b.vec_id <> a.vec_id
    GROUP BY 1, 2
), approx AS (
    SELECT query_id, cand FROM qd
    QUALIFY row_number() OVER (
        PARTITION BY query_id ORDER BY dot DESC, cand
    ) <= 10
), exact AS (
    SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id
    FROM embeddings q, embeddings c
    WHERE q.vec_id < 8 AND c.vec_id <> q.vec_id
    QUALIFY row_number() OVER (
        PARTITION BY q.vec_id
        ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                        CAST(c.embedding AS DOUBLE[])) DESC,
                 c.vec_id
    ) <= 10
)
SELECT e.query_id,
       CAST(count(a.cand) AS BIGINT) AS n_hit,
       count(a.cand) / 10.0 AS recall
FROM exact e LEFT JOIN approx a
  ON a.query_id = e.query_id AND a.cand = e.neighbor_id
GROUP BY e.query_id
ORDER BY e.query_id
"""


# ---------------- cross-set near-dup: containment + incremental dedup

def _q_snippet_containment(sf_dir: str):
    """Benchmark-decontamination-style containment detection: every
    7th document contributes a SNIPPET (its first ceil(n_words/2)
    words), and the operator finds every corpus document whose shingle
    set contains >= 80% of the snippet's shingles — the asymmetric
    |S∩D|/|S| score that catches a short benchmark prompt quoted
    inside a long training document even when symmetric Jaccard is
    tiny. Each snippet must at minimum rediscover its own source doc
    (containment 1.0), so recall is self-validating.

    Physical plan: cross-set blob-free counts
    (stages.neardup.cross_neardup_counts) — shared-shingle inverted
    index restricted to (snippet, doc) pairs, |S∩D| from bucket
    co-occurrence counts, no shingle blobs shipped."""

    def to_snippets(b: pa.Table) -> pa.Table:
        ids, texts = [], []
        for did, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            if did % 7 != 0:
                continue
            w = (t or "").split()
            if len(w) < 6:
                continue
            ids.append(did)
            texts.append(" ".join(w[: (len(w) + 1) // 2]))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    from ..stages.neardup import cross_neardup_counts

    snippets = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        to_snippets, batch_format="pyarrow"
    )
    pairs = cross_neardup_counts(
        snippets,
        read_documents(sf_dir, ["doc_id", "text"]),
        threshold=0.8,
        score="containment",
    )
    out = pairs.to_pandas().rename(
        columns={
            "left_id": "snippet_id",
            "right_id": "doc_id",
            "score": "containment",
        }
    )
    return out.sort_values(["snippet_id", "doc_id"]).reset_index(drop=True)


TRAINING_QUERIES["snippet_containment"] = _q_snippet_containment
TRAINING_ORACLE_SQL["snippet_containment"] = (
    "WITH " + _SHINGLE_CTE + """,
sn AS (
    SELECT doc_id AS snippet_id,
           list_distinct(list_transform(
               range(1, (len(w) + 1) // 2 - 1),
               i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS s
    FROM t
    WHERE doc_id % 7 = 0 AND len(w) >= 6
)
SELECT sn.snippet_id, d.doc_id,
       CAST(len(list_intersect(sn.s, d.s)) AS DOUBLE) / len(sn.s)
           AS containment
FROM sn JOIN sh d ON len(sn.s) > 0
WHERE CAST(len(list_intersect(sn.s, d.s)) AS DOUBLE) / len(sn.s) >= 0.8
ORDER BY sn.snippet_id, d.doc_id
"""
)


def _q_incremental_dedup(sf_dir: str):
    """Incremental dedup of an incoming shard against the existing
    base corpus: docs with doc_id % 10 == 0 play the INCOMING batch,
    the rest the already-ingested BASE, and each incoming doc is
    flagged with how many base docs it near-duplicates (exact shingle
    Jaccard >= 0.5). The production shape behind continuous crawl
    ingest — base docs are never paired with each other, so the
    exchange scales with the incoming batch, not the corpus pair
    count. Generalizes the reference's exists-already guard
    (fulltext/services/store/store.py) from exact-url to near-content
    match."""
    from ..stages.neardup import cross_neardup_counts

    def side(sf, incoming: bool):
        def f(b: pa.Table) -> pa.Table:
            import numpy as np

            dids = b["doc_id"].to_numpy(zero_copy_only=False)
            mask = (dids % 10 == 0) if incoming else (dids % 10 != 0)
            return b.filter(pa.array(mask))

        return read_documents(sf, ["doc_id", "text"]).map_batches(
            f, batch_format="pyarrow"
        )

    pairs = cross_neardup_counts(
        side(sf_dir, True), side(sf_dir, False), threshold=0.5,
        score="jaccard",
    ).to_pandas()
    if pairs.empty:
        import pandas as pd

        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_dups": pd.Series([], dtype="int64"),
            }
        )
    out = (
        pairs.groupby("left_id", as_index=False)
        .agg(n_dups=("right_id", "size"))
        .rename(columns={"left_id": "doc_id"})
    )
    out["n_dups"] = out["n_dups"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


TRAINING_QUERIES["incremental_dedup"] = _q_incremental_dedup
TRAINING_ORACLE_SQL["incremental_dedup"] = (
    "WITH " + _SHINGLE_CTE + """
SELECT i.doc_id,
       CAST(count(*) AS BIGINT) AS n_dups
FROM sh i JOIN sh b
  ON i.doc_id % 10 = 0 AND b.doc_id % 10 <> 0
WHERE len(list_distinct(i.s || b.s)) > 0
  AND CAST(len(list_intersect(i.s, b.s)) AS DOUBLE)
          / len(list_distinct(i.s || b.s)) >= 0.5
GROUP BY i.doc_id
ORDER BY i.doc_id
"""
)


# ---------------- crawl snapshot diff + BPE tokenizer training

def _q_snapshot_diff(sf_dir: str):
    """Incremental-crawl snapshot diff: two deterministic snapshots of
    the corpus (old = doc_id % 3 != 0; new = doc_id % 3 != 1 with
    every doc_id % 5 == 0 text amended) are classified per key as
    added / removed / changed / unchanged — the operator that decides
    which documents need re-extraction between two crawl passes.

    Physical plan (stages.dedup.snapshot_diff): both sides project to
    (key, side, content-hash64) in map_batches -> ONE coalesced
    bucket exchange -> per-bucket sort + pair-off; payloads never
    move, per-class counts come back as per-block partials. The
    oracle compares exact text (the engine's 64-bit hash equality is
    exact up to a ~2^-64 collision)."""
    import numpy as np
    import pandas as pd

    from ..stages.dedup import snapshot_diff

    def old_side(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(d % 3 != 0))

    def new_side(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(d % 3 != 1))
        dd = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = [
            tx + " [updated]" if did % 5 == 0 else tx
            for did, tx in zip(dd, t["text"].to_pylist())
        ]
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "text": pa.array(texts, pa.string())}
        )

    docs = lambda: read_documents(sf_dir, ["doc_id", "text"])  # noqa: E731
    cls = snapshot_diff(
        docs().map_batches(old_side, batch_format="pyarrow"),
        docs().map_batches(new_side, batch_format="pyarrow"),
    )

    def cnts(b: pa.Table) -> pa.Table:
        vc = b.to_pandas()["change_class"].value_counts()
        return pa.Table.from_pydict(
            {
                "change_class": pa.array(
                    vc.index.to_list(), pa.string()
                ),
                "n_docs": pa.array(
                    vc.to_numpy().astype("int64"), pa.int64()
                ),
            }
        )

    parts = cls.map_batches(cnts, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "change_class": pd.Series([], dtype="object"),
                "n_docs": pd.Series([], dtype="int64"),
            }
        )
    out = parts.groupby("change_class", as_index=False)["n_docs"].sum()
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values("change_class").reset_index(drop=True)


TRAINING_QUERIES["snapshot_diff"] = _q_snapshot_diff
TRAINING_ORACLE_SQL["snapshot_diff"] = """
WITH oldv AS (
    SELECT doc_id, text FROM documents WHERE doc_id % 3 <> 0
), newv AS (
    SELECT doc_id,
           CASE WHEN doc_id % 5 = 0 THEN text || ' [updated]'
                ELSE text END AS text
    FROM documents WHERE doc_id % 3 <> 1
), cls AS (
    SELECT CASE WHEN o.doc_id IS NULL THEN 'added'
                WHEN n.doc_id IS NULL THEN 'removed'
                WHEN o.text <> n.text THEN 'changed'
                ELSE 'unchanged' END AS change_class
    FROM oldv o FULL OUTER JOIN newv n ON o.doc_id = n.doc_id
)
SELECT change_class, CAST(count(*) AS BIGINT) AS n_docs
FROM cls GROUP BY change_class ORDER BY change_class
"""


def _q_bpe_merges(sf_dir: str):
    """First 3 BPE tokenizer-training merges over the corpus
    vocabulary (stages.bpe.bpe_train; Sennrich et al. 2016). The
    oracle replays the identical two-pass separator REPLACE merge
    rule with nested replace() calls and unrolled per-round CTEs —
    counts, winners and tie-breaks are all exact integers/strings, so
    the three learned merges match byte-for-byte."""
    from ..stages.bpe import bpe_train

    return bpe_train(read_documents(sf_dir, ["text"]), rounds=3)


def _bpe_round_sql(r: int) -> str:
    prev = "s%d" % (r - 1)
    return """
p{r} AS (
    SELECT pair, CAST(sum(cnt) AS BIGINT) AS n FROM (
        SELECT cnt,
               unnest(list_transform(range(1, len(syms)),
                      i -> syms[i] || ' ' || syms[i+1])) AS pair
        FROM (SELECT cnt, string_split(trim(s, '|'), '|') AS syms
              FROM {prev})
    ) GROUP BY pair
),
w{r} AS (
    SELECT pair, n,
           string_split(pair, ' ')[1] AS l,
           string_split(pair, ' ')[2] AS r
    FROM p{r} ORDER BY n DESC, pair ASC LIMIT 1
),
s{r} AS (
    SELECT t.word, t.cnt,
           replace(replace(t.s,
                   '|' || w.l || '|' || w.r || '|',
                   '|' || w.l || w.r || '|'),
                   '|' || w.l || '|' || w.r || '|',
                   '|' || w.l || w.r || '|') AS s
    FROM {prev} t, w{r} w
)""".format(r=r, prev=prev)


_BPE_CHAIN_SQL = (
    """
WITH w0 AS (
    SELECT tok AS word, CAST(count(*) AS BIGINT) AS cnt
    FROM (
        SELECT unnest(list_filter(
                   regexp_split_to_array(lower(text), '\\s+'),
                   t -> regexp_full_match(t, '[a-z]{2,}'))) AS tok
        FROM documents
    ) GROUP BY tok
),
s0 AS (
    SELECT word, cnt,
           '|' || regexp_replace(word, '(.)', '\\1|', 'g') AS s
    FROM w0
),"""
    + ",".join(_bpe_round_sql(r) for r in (1, 2, 3))
)

TRAINING_QUERIES["bpe_merges"] = _q_bpe_merges
TRAINING_ORACLE_SQL["bpe_merges"] = (
    _BPE_CHAIN_SQL
    + """
SELECT CAST(1 AS BIGINT) AS merge_round,
       l AS left_sym, r AS right_sym, n FROM w1
UNION ALL SELECT CAST(2 AS BIGINT), l, r, n FROM w2
UNION ALL SELECT CAST(3 AS BIGINT), l, r, n FROM w3
ORDER BY merge_round
"""
)


def _q_bpe_vocab(sf_dir: str):
    """Corpus-weighted top-20 BPE symbols after the 3 learned merges
    (train-then-apply: stages.bpe.bpe_train + symbol_counts over ONE
    shared vocabulary scan). The oracle replays the same merge chain
    and explodes the final symbol strings."""
    from ..stages.bpe import bpe_train, symbol_counts, word_counts
    from ..stages.topk import topk

    wc = word_counts(read_documents(sf_dir, ["text"])).materialize()
    tr = bpe_train(None, rounds=3, wc=wc)
    merges = list(zip(tr["left_sym"], tr["right_sym"]))

    out = topk(
        symbol_counts(wc, merges), 20,
        [("n", "descending"), ("sym", "ascending")],
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out[["sym", "n"]]


TRAINING_QUERIES["bpe_vocab"] = _q_bpe_vocab
TRAINING_ORACLE_SQL["bpe_vocab"] = (
    _BPE_CHAIN_SQL
    + """
SELECT sym, CAST(sum(cnt) AS BIGINT) AS n
FROM (SELECT cnt, unnest(string_split(trim(s, '|'), '|')) AS sym
      FROM s3)
GROUP BY sym ORDER BY n DESC, sym ASC LIMIT 20
"""
)


def _q_bpe_compression(sf_dir: str):
    """Per-language BPE compression after the 3 learned merges:
    alpha-word occurrences, their total chars, total symbols, and
    symbols-per-char — the metric a tokenizer-training pipeline
    tracks per language to balance fertility.

    Physical plan: one vocabulary scan feeds both the training loop
    and a word -> symbol-count map; the map is a BOUNDED-VOCAB
    broadcast (the bigram_pmi contract — vocabulary-sized, never
    corpus-sized) probed inside map_batches, so per-lang sums are
    per-batch partials and the only exchanges are the vocabulary
    groupbys."""
    import pandas as pd
    import ray

    from ..stages.bpe import _WORD_RE, bpe_train, symbols_of, word_counts

    wc = word_counts(read_documents(sf_dir, ["text"])).materialize()
    tr = bpe_train(None, rounds=3, wc=wc)
    merges = list(zip(tr["left_sym"], tr["right_sym"]))

    vocab = {}
    for b in wc.iter_batches(batch_format="pyarrow"):
        for w in b["word"].to_pylist():
            vocab[w] = symbols_of(w, merges).count("|") - 1
    vocab_ref = ray.put(vocab)

    def partial(batch: pa.Table) -> pa.Table:
        vmap = ray.get(vocab_ref)
        acc = {}
        for lang, text in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            a = acc.setdefault(lang, [0, 0, 0])
            for w in (text or "").lower().split():
                if _WORD_RE.fullmatch(w):
                    a[0] += 1
                    a[1] += len(w)
                    a[2] += vmap[w]
        langs = sorted(acc)
        return pa.Table.from_pydict(
            {
                "lang": pa.array(langs, pa.string()),
                "n_alpha_words": pa.array(
                    [acc[x][0] for x in langs], pa.int64()
                ),
                "n_chars": pa.array(
                    [acc[x][1] for x in langs], pa.int64()
                ),
                "n_syms": pa.array(
                    [acc[x][2] for x in langs], pa.int64()
                ),
            }
        )

    parts = (
        read_documents(sf_dir, ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    out = parts.groupby("lang", as_index=False).agg(
        n_alpha_words=("n_alpha_words", "sum"),
        n_chars=("n_chars", "sum"),
        n_syms=("n_syms", "sum"),
    )
    for c in ("n_alpha_words", "n_chars", "n_syms"):
        out[c] = out[c].astype("int64")
    out["syms_per_char"] = out["n_syms"] / out["n_chars"]
    return out.sort_values("lang").reset_index(drop=True)


TRAINING_QUERIES["bpe_compression"] = _q_bpe_compression
TRAINING_ORACLE_SQL["bpe_compression"] = (
    _BPE_CHAIN_SQL
    + """,
vs AS (
    SELECT word,
           CAST(len(string_split(trim(s, '|'), '|')) AS BIGINT)
               AS n_syms,
           CAST(length(word) AS BIGINT) AS n_chars
    FROM s3
),
tok AS (
    SELECT lang,
           unnest(list_filter(
               regexp_split_to_array(lower(text), '\\s+'),
               t -> regexp_full_match(t, '[a-z]{2,}'))) AS w
    FROM documents
)
SELECT lang,
       CAST(count(*) AS BIGINT) AS n_alpha_words,
       CAST(sum(v.n_chars) AS BIGINT) AS n_chars,
       CAST(sum(v.n_syms) AS BIGINT) AS n_syms,
       CAST(sum(v.n_syms) AS DOUBLE) / sum(v.n_chars) AS syms_per_char
FROM tok JOIN vs v ON tok.w = v.word
GROUP BY lang ORDER BY lang
"""
)


def _q_doc_stitch_pairs(sf_dir: str):
    """Shard-boundary stitching: every 9th document is split into an
    overlapping head fragment (first half) and tail fragment (from 5
    words before the midpoint), and the operator finds every
    (left, right) fragment pair where left's last-5-gram equals
    right's first-5-gram — so each split doc must rediscover its own
    (head, tail) pair, making recall self-validating (the
    snippet_containment device). The re-assembly pass a crawl-dump
    pipeline runs when documents straddle shard boundaries.

    Physical plan: stages.spans.suffix_prefix_join — one exchange on
    the k-gram key, per-bucket suffix x prefix hash join."""
    from ..stages.spans import suffix_prefix_join

    def frags(b: pa.Table) -> pa.Table:
        ids, texts = [], []
        for did, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            if did % 9 != 0:
                continue
            w = (t or "").split()
            if len(w) < 10:
                continue
            m = len(w) // 2
            ids.append(2 * did)
            texts.append(" ".join(w[:m]))
            ids.append(2 * did + 1)
            texts.append(" ".join(w[m - 5:]))
        return pa.Table.from_pydict(
            {
                "frag_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    pairs = suffix_prefix_join(
        read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            frags, batch_format="pyarrow"
        ),
        k=5,
    ).to_pandas()
    if pairs.empty:
        import pandas as pd

        return pd.DataFrame(
            {
                "left_id": pd.Series([], dtype="int64"),
                "right_id": pd.Series([], dtype="int64"),
            }
        )
    return pairs.sort_values(["left_id", "right_id"]).reset_index(
        drop=True
    )


TRAINING_QUERIES["doc_stitch_pairs"] = _q_doc_stitch_pairs
TRAINING_ORACLE_SQL["doc_stitch_pairs"] = """
WITH t AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS w
    FROM documents WHERE doc_id % 9 = 0
), eligible AS (
    SELECT doc_id, w, len(w) AS n, len(w) // 2 AS m
    FROM t WHERE len(w) >= 10
), frag AS (
    SELECT doc_id * 2 AS frag_id, array_slice(w, 1, m) AS fw
    FROM eligible
    UNION ALL
    SELECT doc_id * 2 + 1, array_slice(w, m - 4, n) FROM eligible
), keyed AS (
    SELECT frag_id,
           array_to_string(
               array_slice(fw, len(fw) - 4, len(fw)), ' ') AS suffix_key,
           array_to_string(array_slice(fw, 1, 5), ' ') AS prefix_key
    FROM frag
)
SELECT a.frag_id AS left_id, b.frag_id AS right_id
FROM keyed a JOIN keyed b
  ON a.suffix_key = b.prefix_key AND a.frag_id <> b.frag_id
ORDER BY left_id, right_id
"""


def _q_snapshot_reextract(sf_dir: str):
    """Incremental recompute: re-extract ONLY the pages whose
    document was added or changed between the two crawl snapshots of
    the snapshot_diff query — the composition a production crawl
    pipeline runs every ingest cycle (diff -> worklist -> extraction
    cascade on the worklist only). Unchanged and removed documents
    never re-enter the extractor.

    Physical plan: stages.dedup.snapshot_diff -> class filter ->
    partitioned SEMI join (worklist keys only cross the exchange;
    the new snapshot's payloads stay put) -> pages synthesis ->
    the full actor-pool extraction cascade."""
    from ..sources.pages import pages_batch_from_documents
    from ..stages.dedup import snapshot_diff
    from ..stages.relational import partitioned_hash_join
    from .extraction import extraction_pipeline

    def old_side(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(d % 3 != 0))

    def new_side(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(d % 3 != 1))
        dd = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = [
            tx + " [updated]" if did % 5 == 0 else tx
            for did, tx in zip(dd, t["text"].to_pylist())
        ]
        out = {"doc_id": t["doc_id"], "text": pa.array(texts, pa.string())}
        if "lang" in t.column_names:
            out["lang"] = t["lang"]
        return pa.Table.from_pydict(out)

    classes = snapshot_diff(
        read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            old_side, batch_format="pyarrow"
        ),
        read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            new_side, batch_format="pyarrow"
        ),
    )

    def worklist_keys(b: pa.Table) -> pa.Table:
        keep = pc.is_in(
            b["change_class"],
            value_set=pa.array(["added", "changed"]),
        )
        return b.filter(keep).select(["doc_id"])

    worklist = classes.map_batches(worklist_keys, batch_format="pyarrow")
    new_docs = read_documents(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        new_side, batch_format="pyarrow"
    )
    work_docs = partitioned_hash_join(
        new_docs, worklist, "doc_id", how="semi"
    )
    pages = work_docs.map_batches(
        pages_batch_from_documents, batch_format="pyarrow"
    )
    ds = extraction_pipeline(pages, derive_psv=False)
    return (
        ds.to_pandas()[["url", "status", "text"]]
        .sort_values("url")
        .reset_index(drop=True)
    )


TRAINING_QUERIES["snapshot_reextract"] = _q_snapshot_reextract
TRAINING_ORACLE_SQL["snapshot_reextract"] = """
WITH newdocs AS (
    SELECT doc_id,
           CASE WHEN doc_id % 5 = 0 THEN text || ' [updated]'
                ELSE text END AS text
    FROM documents
    WHERE doc_id % 3 = 0 OR (doc_id % 3 = 2 AND doc_id % 5 = 0)
)
SELECT 'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || '.example.org/articles/'
           || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       CASE WHEN doc_id % 20 IN (4, 5, 6) THEN 'failed'
            ELSE 'succeeded' END AS status,
       CASE WHEN doc_id % 20 IN (4, 5, 6) THEN NULL
            ELSE text END AS text
FROM newdocs
ORDER BY url
"""


def _q_mmr_diverse(sf_dir: str):
    """Diversity-aware retrieval: MMR top-10 for vec_id 0's embedding
    (stages.similarity.mmr_select, lambda=0.7). Iterative float
    argmax => rows-only (the kmeans/semdedup family); pinned against
    a single-node numpy reference in tests."""
    import ray.data

    from ..stages.similarity import mmr_select

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return mmr_select(emb, k=10, lam=0.7, query_id=0)


TRAINING_QUERIES["mmr_diverse"] = _q_mmr_diverse
# no oracle_sql: genuinely iterative float selection (rows-only check)
