"""Web-corpus curation operators a 100-TB training-data pipeline needs
on top of the extraction core: PII detection/redaction, per-domain
document caps, benchmark decontamination, and repetition scoring.

All four are standard webtext-curation stages (C4/RefinedWeb-style
domain caps and PII scrubbing; GPT-3/PaLM-style n-gram test-set
decontamination; Gopher-style repetition filters). Reference parity
note: the reference engine (arXiv/zzzArchived_arxiv-fulltext) has no
counterpart for any of these — they are the training-data operator
family this engine adds per SURVEY.md §2's "beyond the reference"
block.

Scale notes per operator:

* PII redaction is pure Arrow RE2 kernels
  (``replace_substring_regex`` / ``count_substring_regex``) — one
  vectorized pass per pattern, zero Python per row, and the SAME regex
  engine DuckDB uses, so the SQL oracles are structurally (not
  data-dependently) equivalent.
* The per-domain cap is the lossless partial top-k of
  ``stages/topk.py`` (``topk_per_group``): no task ever holds more
  than k rows per domain per input block, so a hot domain cannot OOM
  a reducer.
* Decontamination ships two physical plans like the near-dup family:
  ``broadcast`` (benchmark shingle hashes ray.put once, probed with a
  vectorized searchsorted per batch — right whenever the benchmark
  side is the small side, which test-set decontamination always is)
  and ``partitioned`` (hash semi-join on the shingle hash — no driver
  or broadcast state, for benchmark sides too big to pin per node).
* Repetition scoring is per-document bounded work inside
  ``map_batches`` (a document's grams never leave the row), so it
  streams at any corpus size.
"""

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64_column
from .aggregate import aggregate
from .topk import topk

# RE2-compatible (works identically under pyarrow's and DuckDB's RE2);
# no backrefs, no lookaround.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\b\d{3}-\d{3}-\d{4}\b"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def pii_scrub_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Detect + redact emails, NANP-style phone numbers and IPv4
    addresses in one vectorized pass per pattern.

    Emails are counted/redacted first (their domains contain dots that
    the IP pattern must never see), then IPs, then phones. Returns the
    input batch minus ``text_col`` plus ``n_email``/``n_phone``/
    ``n_ip`` counts and the redacted ``clean`` column.
    """
    txt = batch[text_col]
    n_email = pc.count_substring_regex(txt, pattern=EMAIL_RE)
    clean = pc.replace_substring_regex(txt, pattern=EMAIL_RE, replacement="<EMAIL>")
    n_ip = pc.count_substring_regex(clean, pattern=IPV4_RE)
    clean = pc.replace_substring_regex(clean, pattern=IPV4_RE, replacement="<IP>")
    n_phone = pc.count_substring_regex(clean, pattern=PHONE_RE)
    clean = pc.replace_substring_regex(clean, pattern=PHONE_RE, replacement="<PHONE>")
    out = batch.drop_columns([text_col])
    out = out.append_column("n_email", pc.cast(n_email, pa.int64()))
    out = out.append_column("n_phone", pc.cast(n_phone, pa.int64()))
    out = out.append_column("n_ip", pc.cast(n_ip, pa.int64()))
    return out.append_column("clean", clean)


def shingle_hash_batch(
    batch: pa.Table, n: int = 3, text_col: str = "text"
) -> pa.Table:
    """documents batch -> distinct (doc_id, gram_hash) pairs.

    Tokenization is whitespace-split (identical to the SQL oracles'
    ``regexp_split_to_array(text, '\\s+')`` + non-empty filter); the
    word n-grams are joined with single spaces and hashed with the
    engine's vectorized 64-bit string hash. Comparing hashes instead
    of gram strings is exact up to 2^-64 collisions. Pairs are
    deduplicated here — a document lives in exactly one row, so
    within-batch dedup IS global dedup for (doc_id, gram)."""
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    texts = batch[text_col].to_pylist()
    rep_ids: List[int] = []
    grams: List[str] = []
    for doc_id, text in zip(doc_ids, texts):
        toks = text.split()
        if len(toks) < n:
            continue
        rep_ids.extend([doc_id] * (len(toks) - n + 1))
        grams.extend(
            " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
        )
    if not grams:
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array([], pa.int64()),
                "gram_hash": pa.array([], pa.uint64()),
            }
        )
    hashes = hash64_column(pa.array(grams, pa.string()))
    pairs = np.stack([np.asarray(rep_ids, np.uint64), hashes], axis=1)
    pairs = np.unique(pairs, axis=0)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(pairs[:, 0].astype(np.int64), pa.int64()),
            "gram_hash": pa.array(pairs[:, 1], pa.uint64()),
        }
    )


def decontaminate(
    docs_ds,
    bench_ds,
    n: int = 3,
    plan: str = "broadcast",
):
    """Flag documents sharing any word ``n``-gram with a benchmark set
    (GPT-3/PaLM-style test-set decontamination). Returns a Dataset of
    ``(doc_id, n_hits)`` where ``n_hits`` counts DISTINCT contaminated
    grams per document; docs with no overlap are absent.

    ``plan='broadcast'``: materialize the benchmark's distinct gram
    hashes (the small side by construction for test-set decontam),
    ``ray.put`` once, probe per batch with a sorted-array
    ``searchsorted`` — no shuffle at all, the corpus streams through
    one map stage. ``plan='partitioned'``: hash semi-join on the gram
    hash + a doc_id count aggregate — no driver/broadcast state, for
    benchmark sides too large to pin in every node's object store.
    Both plans are pinned equal in tests.
    """
    import ray

    from . import plan as plan_choice

    if plan_choice.force_partitioned():
        plan = "partitioned"

    shingled_bench = bench_ds.map_batches(
        lambda b: shingle_hash_batch(b, n=n), batch_format="pyarrow"
    )

    if plan == "broadcast":
        chunks = [
            b["gram_hash"].to_numpy(zero_copy_only=False)
            for b in shingled_bench.iter_batches(batch_format="pyarrow")
        ]
        bench_sorted = (
            np.unique(np.concatenate(chunks))
            if chunks
            else np.array([], np.uint64)
        )
        ref = ray.put(bench_sorted)

        def probe(batch: pa.Table) -> pa.Table:
            bench = ray.get(ref)
            pairs = shingle_hash_batch(batch, n=n)
            if pairs.num_rows == 0 or bench.size == 0:
                return pa.Table.from_pydict(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        "n_hits": pa.array([], pa.int64()),
                    }
                )
            h = pairs["gram_hash"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(bench, h)
            pos[pos == bench.size] = 0
            mask = bench[pos] == h
            hit_docs = pairs["doc_id"].to_numpy(zero_copy_only=False)[mask]
            # pairs are already distinct per (doc, gram): counting rows
            # counts distinct contaminated grams
            docs, counts = np.unique(hit_docs, return_counts=True)
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array(docs, pa.int64()),
                    "n_hits": pa.array(counts, pa.int64()),
                }
            )

        return docs_ds.map_batches(probe, batch_format="pyarrow")

    if plan != "partitioned":
        raise ValueError(f"unknown decontaminate plan: {plan}")

    from .relational import partitioned_hash_join

    shingled_docs = docs_ds.map_batches(
        lambda b: shingle_hash_batch(b, n=n), batch_format="pyarrow"
    )
    def distinct_keys(b: pa.Table) -> pa.Table:
        # bench docs share grams: per-batch distinct shrinks the
        # filter side before it enters the exchange
        u = np.unique(b["gram_hash"].to_numpy(zero_copy_only=False))
        return pa.Table.from_pydict({"gram_hash": pa.array(u, pa.uint64())})

    bench_keys = shingled_bench.map_batches(
        distinct_keys, batch_format="pyarrow"
    )
    hits = partitioned_hash_join(
        shingled_docs,
        bench_keys,
        key="gram_hash",
        how="semi",
    )
    # distinct (doc_id, gram) pairs survived the semi-join; count rows
    # per doc. The groupby key is high-cardinality (doc_id), so the
    # exchange is well-spread.
    return aggregate(hits, "doc_id", [("n_hits", "count", None)])


def repetition_batch(
    batch: pa.Table,
    n: int = 2,
    pct_threshold: int = 5,
    text_col: str = "text",
) -> pa.Table:
    """Gopher-style repetition score per document: the occurrence
    count of the most frequent word ``n``-gram vs the total gram
    count. ``repetitive`` is the integer cross-multiplied comparison
    ``n_top * 100 > pct_threshold * n_grams`` so the SQL oracle is
    exact (no float ratio). Per-document bounded work; grams never
    leave the row."""
    from collections import Counter

    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    texts = batch[text_col].to_pylist()
    out_id: List[int] = []
    n_top: List[int] = []
    n_grams: List[int] = []
    for doc_id, text in zip(doc_ids, texts):
        toks = text.split()
        if len(toks) < n:
            continue
        counts = Counter(
            tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)
        )
        out_id.append(int(doc_id))
        n_top.append(max(counts.values()))
        n_grams.append(len(toks) - n + 1)
    top = np.asarray(n_top, np.int64)
    tot = np.asarray(n_grams, np.int64)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "n_top": pa.array(top, pa.int64()),
            "n_grams": pa.array(tot, pa.int64()),
            "repetitive": pa.array(top * 100 > pct_threshold * tot, pa.bool_()),
        }
    )


# ----------------------------------------------- cross-doc line dedup

def split_lines(col) -> "tuple[pa.Array, np.ndarray]":
    """Arrow string column -> (flat line values, int64 list offsets).

    One vectorized ``split_pattern``; no Python per row."""
    lst = pc.split_pattern(col, pattern="\n")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = lst.flatten()
    offsets = lst.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, offsets


def line_hashes(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """documents batch -> one ``line_hash`` row per line: the
    CCNet-style cross-document line dedup counts 8-byte hashes, so the
    line strings themselves never shuffle. The int64 bit view keeps
    the key off uint64."""
    flat, _ = split_lines(batch[text_col])
    hashes = (
        hash64_column(flat).view(np.int64) if len(flat) else
        np.empty(0, np.int64)
    )
    return pa.table({"line_hash": pa.array(hashes, pa.int64())})


def hot_line_hashes(docs_ds, min_count: int, text_col: str = "text"):
    """Global line-occurrence counts -> sorted int64 array of the
    hashes occurring ``>= min_count`` times corpus-wide.

    Exchange shape: ``stages/aggregate.py`` counts the 8-byte hashes
    (bit-viewed int64) -> filter. Only the HOT tail reaches the driver —
    bounded by the number of globally repeated boilerplate lines, not
    by corpus size (each needs >= min_count occurrences, so the set is
    at most total_lines / min_count and in practice tiny)."""
    counts = aggregate(
        docs_ds,
        "line_hash",
        [("cnt", "count", None)],
        rows=lambda b: line_hashes(b, text_col),
    )
    hot = counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b["cnt"], min_count)).select(
            ["line_hash"]
        ),
        batch_format="pyarrow",
    ).take_all()
    return np.sort(np.array([r["line_hash"] for r in hot], dtype=np.int64))


def drop_hot_lines_batch(
    batch: pa.Table, hot_sorted: np.ndarray, text_col: str = "text"
) -> pa.Table:
    """Remove corpus-hot lines from each document (vectorized).

    Emits (doc_id, n_lines, n_removed, clean): the per-doc line
    totals plus the kept lines re-joined with newlines. List-offset
    arithmetic in numpy; the rebuilt text is one Arrow
    ``binary_join`` — no Python per row or per line."""
    n = batch.num_rows
    flat, offsets = split_lines(batch[text_col])
    counts = np.diff(offsets)
    hashes = (
        hash64_column(flat).view(np.int64)
        if len(flat)
        else np.empty(0, np.int64)
    )
    pos = np.searchsorted(hot_sorted, hashes)
    pos = np.minimum(pos, max(len(hot_sorted) - 1, 0))
    is_hot = (
        hot_sorted[pos] == hashes
        if len(hot_sorted)
        else np.zeros(len(hashes), bool)
    )
    doc_idx = np.repeat(np.arange(n), counts)
    removed = np.bincount(doc_idx[is_hot], minlength=n).astype(np.int64)
    kept = counts - removed
    kept_vals = flat.filter(pa.array(~is_hot))
    new_offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(kept, out=new_offsets[1:])
    clean = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(new_offsets, pa.int32()), kept_vals),
        "\n",
    )
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(counts.astype(np.int64), pa.int64()),
            "n_removed": pa.array(removed, pa.int64()),
            "clean": clean,
        }
    )


def line_dedup(docs_ds, min_count: int = 5, text_col: str = "text"):
    """CCNet/RefinedWeb-style cross-document line deduplication: drop
    every line that occurs ``>= min_count`` times across the corpus
    (navigation chrome, cookie banners, boilerplate footers).

    Two streaming passes over the corpus: (1) hashed partial counts ->
    hash groupby -> hot set (small by construction, see
    ``hot_line_hashes``) broadcast via ``ray.put``; (2) vectorized
    per-batch removal. Matching on 64-bit hashes instead of line
    strings is exact up to 2^-64 collisions — the same contract as the
    decontamination and near-dup operators."""
    import ray

    hot_ref = ray.put(hot_line_hashes(docs_ds, min_count, text_col))

    def scrub(batch: pa.Table) -> pa.Table:
        return drop_hot_lines_batch(batch, ray.get(hot_ref), text_col)

    return docs_ds.map_batches(scrub, batch_format="pyarrow")


# ------------------------------------------- grouped (leakage-safe) split

_HEX = "0123456789abcdef"


def domain_split_batch(
    batch: pa.Table, domain_col: str = "domain"
) -> pa.Table:
    """Assign train/valid/test BY DOMAIN (never by document): the last
    hex nibble of md5(domain) picks the split (12/2/2 of 16), so every
    document of a domain lands in the same split — the group-aware
    split that prevents near-duplicate leakage across train/test.

    md5 is deliberate (not the in-flight polars hash): a split
    assignment is a PERSISTENT contract that must be re-derivable
    across runs, library versions and engines — DuckDB's ``md5()``
    reproduces it byte-for-byte, which is what the oracle does. Cost
    is bounded: md5 runs once per DISTINCT domain per batch, not per
    row."""
    import hashlib

    domains = batch[domain_col].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(domains, return_inverse=True)
    nib = np.array(
        [
            _HEX.index(hashlib.md5(d.encode()).hexdigest()[-1])
            for d in uniq
        ],
        dtype=np.int64,
    )
    names = np.array(["train", "valid", "test"])
    split_of_uniq = names[
        np.where(nib < 12, 0, np.where(nib < 14, 1, 2))
    ]
    return batch.append_column(
        "split", pa.array(split_of_uniq[inv], pa.string())
    )


# ------------------------------------------ hashed-linear quality model

class HashedLinearScorer:
    """Batched 'model inference' stage: a hashed-feature linear quality
    scorer as an actor-pool ``map_batches`` class — the weight table is
    built ONCE per actor in ``__init__`` (the model-load slot; a real
    model would ``ray.get`` a broadcast weight ref here), scoring is a
    vectorized table lookup + segmented mean per batch.

    Features are token-length hashes into ``n_features`` buckets; the
    weights are a fixed deterministic function of the bucket id so the
    DuckDB oracle can reproduce every score exactly (swap
    ``weight_ref`` in for learned weights in production — the Ray
    plumbing is identical).
    """

    N_FEATURES = 1000

    def __init__(self, weight_ref=None):
        if weight_ref is not None:
            import ray

            self.w = ray.get(weight_ref)
        else:
            idx = np.arange(self.N_FEATURES, dtype=np.int64)
            self.w = idx / float(self.N_FEATURES) - 0.5
        self.w = np.asarray(self.w, dtype=np.float64)

    def __call__(self, batch: pa.Table, text_col: str = "text") -> pa.Table:
        lst = pc.split_pattern_regex(batch[text_col], pattern=r"\s+")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = lst.flatten()
        offsets = lst.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offsets)
        tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        nonempty = tok_len > 0
        feat = (tok_len * np.int64(2654435761)) % self.N_FEATURES
        contrib = np.where(nonempty, self.w[feat], 0.0)
        n = batch.num_rows
        doc_idx = np.repeat(np.arange(n), counts)
        sums = np.bincount(doc_idx, weights=contrib, minlength=n)
        n_tok = np.bincount(doc_idx[nonempty], minlength=n).astype(np.int64)
        score = np.divide(
            sums, n_tok, out=np.zeros(n, np.float64), where=n_tok > 0
        )
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "score": pa.array(score, pa.float64()),
            }
        )


# ------------------------------------------- grouped quantile filter

def quantile_filter(ds, key: str, val: str, q):
    """Keep rows whose ``val`` >= their group's exact discrete
    ``q``-quantile (``stages.selection.quantiles``). The threshold
    table (one row per group) is broadcast via ``ray.put``; the filter
    is a vectorized ``index_in``/``take`` probe per batch."""
    import ray

    from .selection import quantiles

    th = quantiles(ds, val, {"threshold": q}, by=key)
    ref = ray.put((pa.array(th[key]), pa.array(th["threshold"])))

    def keep(batch: pa.Table) -> pa.Table:
        keys_arr, thr_arr = ray.get(ref)
        idx = pc.index_in(batch[key], value_set=keys_arr)
        thr = pc.take(thr_arr, idx)
        mask = pc.greater_equal(batch[val], thr)
        return batch.filter(pc.fill_null(mask, False))

    return ds.map_batches(keep, batch_format="pyarrow")


# --------------------------------------------- Gopher-style quality rules

# Distinct-presence stopword probe set (Rae et al. 2021 use 8 English
# function words; this set is tuned to the synthetic corpus's function
# words so the rule is non-degenerate at test scale — swap for the
# Gopher set on real English text).
GOPHER_STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "it")

# Rule thresholds, first match wins; ALL integer cross-multiplied so a
# SQL oracle reproduces verdicts exactly (the corpus_filter contract).
GOPHER_RULES_DOC = """
  bad_word_count:    n_words < 30 or n_words > 100_000
  bad_mean_word_len: 3*n_words > n_word_chars or n_word_chars > 10*n_words
  high_symbol_ratio: 10*n_symbols > n_words        (# and ... vs words)
  too_many_bullets:  2*n_bullet_lines > n_lines    (> 50% bullet lines)
  too_many_ellipsis: 10*n_ellipsis_lines > 3*n_lines
  low_alpha_words:   5*n_alpha_words < 4*n_words   (< 80% words w/ letter)
  few_stopwords:     n_stop < 2 distinct probe stopwords present
"""


def _i64(arr) -> "pa.Array":
    return pc.cast(arr, pa.int64())


def gopher_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document integer counts for the Gopher repetition-free
    quality rules — fully vectorized Arrow RE2, zero Python per row.

    Counting tricks (all non-overlapping-match counts):
      * words           = matches of ``\\S+``
      * word chars      = codepoints - single-``\\s`` matches
      * words w/ letter = matches of ``\\S*[A-Za-z]\\S*`` (greedy
        maximal munch consumes whole whitespace-bounded tokens, so
        each match IS one token containing a letter)
      * bullet lines    = ``\\n- `` / ``\\n* `` occurrences + a
        string-start check (every non-first line is preceded by \\n)
      * ellipsis lines  = ``...\\n`` occurrences + a string-end check
      * stopword k      = presence (not count) of ``(^|\\s)w(\\s|$)``
    The DuckDB oracle deliberately uses DIFFERENT spellings
    (regexp_extract_all + list lambdas) so the two engines
    independently validate the semantics rather than the arithmetic.
    """
    t = batch[text_col]
    n_words = _i64(pc.count_substring_regex(t, r"\S+"))
    n_word_chars = pc.subtract(
        _i64(pc.utf8_length(t)), _i64(pc.count_substring_regex(t, r"\s"))
    )
    n_alpha_words = _i64(pc.count_substring_regex(t, r"\S*[A-Za-z]\S*"))
    n_symbols = pc.add(
        _i64(pc.count_substring(t, "#")), _i64(pc.count_substring(t, "..."))
    )
    n_lines = pc.add(_i64(pc.count_substring(t, "\n")), 1)
    n_bullet = pc.add(
        pc.add(
            _i64(pc.count_substring(t, "\n- ")),
            _i64(pc.count_substring(t, "\n* ")),
        ),
        pc.add(
            _i64(pc.starts_with(t, "- ")), _i64(pc.starts_with(t, "* "))
        ),
    )
    n_ellipsis = pc.add(
        _i64(pc.count_substring(t, "...\n")), _i64(pc.ends_with(t, "..."))
    )
    n_stop = None
    for w in GOPHER_STOPWORDS:
        present = _i64(
            pc.greater(
                pc.count_substring_regex(t, rf"(?:^|\s){w}(?:\s|$)"), 0
            )
        )
        n_stop = present if n_stop is None else pc.add(n_stop, present)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_words": n_words,
            "n_word_chars": n_word_chars,
            "n_alpha_words": n_alpha_words,
            "n_symbols": n_symbols,
            "n_lines": n_lines,
            "n_bullet_lines": n_bullet,
            "n_ellipsis_lines": n_ellipsis,
            "n_stop": n_stop,
        }
    )


def gopher_verdict_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher stats + first-matching-rule verdict (vectorized
    ``np.select`` over the integer count arrays)."""
    out = gopher_stats_batch(batch, text_col)
    g = {k: out[k].to_numpy(zero_copy_only=False) for k in out.column_names}
    conds = [
        (g["n_words"] < 30) | (g["n_words"] > 100_000),
        (3 * g["n_words"] > g["n_word_chars"])
        | (g["n_word_chars"] > 10 * g["n_words"]),
        10 * g["n_symbols"] > g["n_words"],
        2 * g["n_bullet_lines"] > g["n_lines"],
        10 * g["n_ellipsis_lines"] > 3 * g["n_lines"],
        5 * g["n_alpha_words"] < 4 * g["n_words"],
        g["n_stop"] < 2,
    ]
    names = [
        "bad_word_count",
        "bad_mean_word_len",
        "high_symbol_ratio",
        "too_many_bullets",
        "too_many_ellipsis",
        "low_alpha_words",
        "few_stopwords",
    ]
    verdict = np.select(conds, names, default="keep")
    return out.append_column("verdict", pa.array(verdict, pa.string()))


def gopher_filter(docs_ds, keep_only: bool = False, text_col: str = "text"):
    """Gopher-style document quality gate (Rae et al. 2021 §A1.1
    shape): one vectorized stats+verdict pass; survivors optional."""
    ds = docs_ds.map_batches(
        lambda b: gopher_verdict_batch(b, text_col), batch_format="pyarrow"
    )
    if not keep_only:
        return ds

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["verdict"], "keep"))

    return ds.map_batches(keep, batch_format="pyarrow")


# ------------------------------- windowed exact-substring duplication

_WINDOW_POLY = np.uint64(1099511628211)  # FNV-64 prime, odd => bijective step


def tokenize_flat(col) -> "tuple[pa.Array, np.ndarray]":
    """Arrow string column -> (flat non-empty tokens, doc index per
    token). One vectorized regex split; empties from leading/trailing
    whitespace are mask-filtered with offset arithmetic, no Python per
    row."""
    lst = pc.split_pattern_regex(col, pattern=r"\s+")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = lst.flatten()
    offsets = lst.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_idx = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    if len(flat):
        nonempty = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False
        )
        if not nonempty.all():
            flat = flat.filter(pa.array(nonempty))
            doc_idx = doc_idx[nonempty]
    return flat, doc_idx


def _window_doc_pairs(
    batch: pa.Table, w: int, text_col: str
) -> "tuple[np.ndarray, np.ndarray]":
    """Distinct (window-hash, local doc index) pairs for every
    ``w``-token sliding window (stride 1) fully inside one document.

    The window key is a degree-``w`` polynomial rolling hash over the
    per-token 64-bit hashes (wraparound uint64) — equality of keys
    coincides with equality of the space-joined window string up to
    2^-64 collisions, the engine-wide hash-matching contract, so the
    md5-of-joined-string SQL oracle groups identically. Everything is
    numpy over the flat token array: no per-window Python."""
    flat, doc_idx = tokenize_flat(batch[text_col])
    n = len(flat)
    if n < w:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    th = hash64_column(flat)
    m = n - w + 1
    hwin = np.zeros(m, np.uint64)
    for j in range(w):
        hwin = hwin * _WINDOW_POLY + th[j : j + m]
    valid = doc_idx[:m] == doc_idx[w - 1 :]
    d, h = doc_idx[:m][valid], hwin[valid]
    if len(d) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    order = np.lexsort((h, d))
    d, h = d[order], h[order]
    keep = np.ones(len(d), bool)
    keep[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
    return h[keep], d[keep]


def window_hashes(
    batch: pa.Table, w: int = 8, text_col: str = "text"
) -> pa.Table:
    """documents batch -> one ``win_hash`` row per (window, document)
    pair. Windows are deduped per document, so counting rows per hash
    is an exact distinct-doc count (documents never span blocks)."""
    h, _ = _window_doc_pairs(batch, w, text_col)
    return pa.table({"win_hash": pa.array(h.view(np.int64), pa.int64())})


def hot_window_hashes(
    docs_ds, w: int = 8, min_docs: int = 2, text_col: str = "text"
) -> np.ndarray:
    """Sorted int64 array of window hashes shared by >= ``min_docs``
    distinct documents. Exchange shape identical to
    ``hot_line_hashes``: 8-byte-key counts through
    ``stages/aggregate.py`` -> filtered tail to the driver (bounded by
    the duplicated-window count, not corpus size)."""
    counts = aggregate(
        docs_ds,
        "win_hash",
        [("cnt", "count", None)],
        rows=lambda b: window_hashes(b, w, text_col),
    )
    hot = counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b["cnt"], min_docs)).select(
            ["win_hash"]
        ),
        batch_format="pyarrow",
    ).take_all()
    return np.sort(np.array([r["win_hash"] for r in hot], dtype=np.int64))


def flag_shared_windows_batch(
    batch: pa.Table, hot_sorted: np.ndarray, w: int, text_col: str = "text"
) -> pa.Table:
    """(doc_id, n_shared) for documents with >= 1 window in the hot
    set — vectorized searchsorted probe + bincount, rows without any
    shared window are dropped (the duplicate-flag contract)."""
    h, d = _window_doc_pairs(batch, w, text_col)
    n = batch.num_rows
    hs = h.view(np.int64)
    if len(hot_sorted) and len(hs):
        pos = np.searchsorted(hot_sorted, hs)
        pos = np.minimum(pos, len(hot_sorted) - 1)
        is_hot = hot_sorted[pos] == hs
    else:
        is_hot = np.zeros(len(hs), bool)
    n_shared = np.bincount(d[is_hot], minlength=n).astype(np.int64)
    flagged = n_shared > 0
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"].filter(pa.array(flagged))
            if n
            else pa.array([], pa.int64()),
            "n_shared": pa.array(n_shared[flagged], pa.int64()),
        }
    )


def substring_dedup(
    docs_ds, w: int = 8, min_docs: int = 2, text_col: str = "text"
):
    """Windowed exact-substring duplicate detection (the
    suffix-array-free spelling of Lee et al. 2022's "Deduplicating
    Training Data Makes Language Models Better"): flag every document
    sharing at least one ``w``-token window with >= ``min_docs-1``
    other documents, with the count of its distinct shared windows.

    Two streaming passes (the ``line_dedup`` exchange): (1) per-batch
    distinct (window-hash, doc) partials -> hash groupby -> hot set
    broadcast via ``ray.put``; (2) vectorized probe + per-doc count.
    The corpus text never shuffles; driver state is the hot-window
    tail only."""
    import ray

    hot_ref = ray.put(hot_window_hashes(docs_ds, w, min_docs, text_col))

    def flag(batch: pa.Table) -> pa.Table:
        return flag_shared_windows_batch(batch, ray.get(hot_ref), w, text_col)

    return docs_ds.map_batches(flag, batch_format="pyarrow")


# ------------------------------ bigram LM quality scoring (CCNet shape)

def corpus_vocab(docs_ds, top_v: int, text_col: str = "text"):
    """Deterministic top-``top_v`` vocabulary by corpus frequency
    (ties broken by word ascending — the SQL ``ORDER BY c DESC, w``
    convention). One (word, cnt) grouped count, then
    ``stages/topk.topk``: only ``top_v`` rows per block reach the
    driver."""
    agg = aggregate(
        docs_ds,
        "w",
        [("cnt", "count", None)],
        rows=lambda b: pa.table({"w": tokenize_flat(b[text_col])[0]}),
    )
    top = topk(agg, top_v, [("cnt", "descending"), ("w", "ascending")])
    words = top["w"].to_numpy(zero_copy_only=False) if top.num_columns else []
    # sorted for searchsorted-free index_in
    return np.sort(np.asarray(words, dtype=str))


def _mapped_token_ids(
    batch: pa.Table, vocab_arr: pa.Array, text_col: str
) -> "tuple[np.ndarray, np.ndarray]":
    """(token ids with OOV -> unk id = len(vocab), doc index per
    token) — one vectorized ``index_in`` probe."""
    flat, doc_idx = tokenize_flat(batch[text_col])
    ids = pc.index_in(flat, value_set=vocab_arr)
    unk = len(vocab_arr)
    ids = pc.fill_null(ids, unk).to_numpy(zero_copy_only=False).astype(np.int64)
    return ids, doc_idx


def train_bigram_counts(docs_ds, vocab: np.ndarray, text_col: str = "text"):
    """Corpus bigram counts over UNK-mapped tokens.

    The grouped count runs over int64 keys prev*(V+1)+w — strings
    never enter the exchange. Returns
    (sorted keys, counts, prev_totals[V+1]) for broadcast. The table
    is bounded by the corpus's distinct mapped bigrams (<= (V+1)^2);
    for vocabularies too large to pin per node, score with a
    partitioned join on the key instead of this broadcast."""
    import ray

    vocab_arr = pa.array(vocab, pa.string())
    vref = ray.put(vocab_arr)
    base = np.int64(len(vocab) + 1)

    def bigram_keys(batch: pa.Table) -> pa.Table:
        ids, doc_idx = _mapped_token_ids(batch, ray.get(vref), text_col)
        same = doc_idx[:-1] == doc_idx[1:]
        keys = ids[:-1][same] * base + ids[1:][same]
        return pa.table({"key": pa.array(keys, pa.int64())})

    rows = aggregate(
        docs_ds, "key", [("cnt", "count", None)], rows=bigram_keys
    ).take_all()
    keys = np.array([r["key"] for r in rows], dtype=np.int64)
    counts = np.array([r["cnt"] for r in rows], dtype=np.int64)
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    prev_tot = np.zeros(int(base), dtype=np.int64)
    np.add.at(prev_tot, keys // base, counts)
    return keys, counts, prev_tot


def bigram_lm_score(docs_ds, top_v: int = 4096, text_col: str = "text"):
    """CCNet-style language-model quality scoring: train an add-one
    smoothed bigram LM on the corpus (two bounded count exchanges),
    then score every document's bits-per-token under it in one
    vectorized pass (ids -> int64 bigram keys -> searchsorted lookup
    -> bincount segment sums). Low-perplexity docs ~ fluent text.

    Output per doc with >= 2 tokens: (doc_id, n_scored, bpt) where
    bpt = -(1/n) sum log2 (c(prev,w)+1)/(tot(prev)+V+1), V+1 counting
    the UNK symbol. Corpus text never shuffles; the model ships once
    via ``ray.put``."""
    import ray

    vocab = corpus_vocab(docs_ds, top_v, text_col)
    keys, counts, prev_tot = train_bigram_counts(docs_ds, vocab, text_col)
    n_symbols = np.float64(len(vocab) + 1)
    model_ref = ray.put(
        (pa.array(vocab, pa.string()), keys, counts, prev_tot)
    )
    base = np.int64(len(vocab) + 1)

    def score(batch: pa.Table) -> pa.Table:
        vocab_arr, keys, counts, prev_tot = ray.get(model_ref)
        ids, doc_idx = _mapped_token_ids(batch, vocab_arr, text_col)
        n = batch.num_rows
        empty = pa.Table.from_pydict(
            {
                "doc_id": pa.array([], batch["doc_id"].type),
                "n_scored": pa.array([], pa.int64()),
                "bpt": pa.array([], pa.float64()),
            }
        )
        if len(ids) < 2:
            return empty
        same = doc_idx[:-1] == doc_idx[1:]
        if not same.any():
            return empty
        prev, nxt = ids[:-1][same], ids[1:][same]
        pair_doc = doc_idx[:-1][same]
        k = prev * base + nxt
        pos = np.searchsorted(keys, k)
        pos = np.minimum(pos, max(len(keys) - 1, 0))
        c = np.where(
            (len(keys) > 0) & (keys[pos] == k), counts[pos], 0
        ).astype(np.float64)
        bits = -np.log2((c + 1.0) / (prev_tot[prev] + n_symbols))
        tot_bits = np.bincount(pair_doc, weights=bits, minlength=n)
        n_scored = np.bincount(pair_doc, minlength=n).astype(np.int64)
        has = n_scored > 0
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"].filter(pa.array(has)),
                "n_scored": pa.array(n_scored[has], pa.int64()),
                "bpt": pa.array(tot_bits[has] / n_scored[has], pa.float64()),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


# ---------------------------- intra-document duplicate-line fractions

def intra_doc_dup_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher repetition signals computed WITHIN each document:
    duplicate-line counts and the characters they occupy
    (``dup = total - distinct``, each distinct line counted once).

    Vectorized: one split, 64-bit line hashes, within-doc
    first-occurrence detection by lexsort over (doc, hash), numpy
    segment sums. A document's lines never leave its row — streams at
    any corpus size with zero exchange."""
    n = batch.num_rows
    flat, offsets = split_lines(batch[text_col])
    counts = np.diff(offsets)
    doc_idx = np.repeat(np.arange(n), counts)
    lens = (
        pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat)
        else np.empty(0, np.int64)
    )
    hashes = (
        hash64_column(flat) if len(flat) else np.empty(0, np.uint64)
    )
    order = np.lexsort((hashes, doc_idx))
    d_s, h_s, l_s = doc_idx[order], hashes[order], lens[order]
    first = np.ones(len(d_s), bool)
    first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    n_lines = counts.astype(np.int64)
    n_distinct = np.bincount(d_s[first], minlength=n).astype(np.int64)
    chars_total = np.bincount(doc_idx, weights=lens, minlength=n).astype(
        np.int64
    )
    chars_distinct = np.bincount(
        d_s[first], weights=l_s[first], minlength=n
    ).astype(np.int64)
    n_dup = n_lines - n_distinct
    chars_dup = chars_total - chars_distinct
    # Gopher bars, integer cross-multiplied: dup-line fraction > 30%,
    # dup-char fraction > 20%; first match wins.
    verdict = np.select(
        [10 * n_dup > 3 * n_lines, 10 * chars_dup > 2 * chars_total],
        ["dup_lines", "dup_chars"],
        default="keep",
    )
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_dup_lines": pa.array(n_dup, pa.int64()),
            "chars_total": pa.array(chars_total, pa.int64()),
            "chars_dup": pa.array(chars_dup, pa.int64()),
            "verdict": pa.array(verdict, pa.string()),
        }
    )
