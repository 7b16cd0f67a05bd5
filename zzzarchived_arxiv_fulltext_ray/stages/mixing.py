"""Data-mixture construction operators: token-budget sampling and
DSIR-style importance scoring.

Two selection primitives a training-data pipeline runs after cleaning:

* :func:`token_budget_select` — per-group (e.g. per-language) token
  budgets: keep the maximal prefix of documents, in deterministic
  hash order, whose cumulative token count fits the group's budget.
  This is how mixture weights ("30% code, 20% web, ...") become an
  actual document subset reproducibly.
* :func:`dsir_score` — hashed-ngram importance weights (Xie et al.
  2023, Data Selection via Importance Resampling, arXiv:2302.03169):
  score every document by the mean log-likelihood ratio of its hashed
  unigram buckets under a target slice vs the whole corpus.

Both are oracled in SQL, so the hash must be SQL-reconstructable:
md5 hex prefixes (the ``domain_split`` convention), NOT the xxhash
fast path used for in-flight bucketing.

Scale shape (token_budget_select): the corpus never sorts. Pass 1
reduces to a (group x 256 hash-bucket) token histogram — a
fixed-size exchange. The driver prefix-sums that tiny table to find
each group's cutoff bucket; only the single BOUNDARY bucket per group
(~1/256 of the group) is pulled and ordered exactly. The final pass
is a stateless filter against the broadcast cutoffs. Equivalent to a
global per-group ordered window-sum, at the cost of two narrow scans
+ one small exchange.

Scale shape (dsir_score): bucket counts reduce per batch to 256-long
rows summed by ``stages/aggregate.py`` (one small exchange); the
log-ratio table is a
256-float broadcast; scoring is a stateless second scan. No token
ever shuffles.
"""

import hashlib
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import aggregate

_MEMO_CAP = 1 << 20


def _md5_u32(s: str) -> int:
    """First 8 hex chars of md5 as an int — identical ordering to the
    SQL spelling ``substr(md5(s), 1, 8)`` (fixed-width lowercase hex
    compares lexicographically == numerically)."""
    return int(hashlib.md5(s.encode()).hexdigest()[:8], 16)


def doc_hash_keys(ids) -> np.ndarray:
    """uint64 order keys: md5 hex prefix of each id's canonical string
    form — ``str(int)`` for integer ids, the raw string for string ids
    (urls) — so the SQL spelling is ``md5(CAST(id AS VARCHAR))`` /
    ``md5(url)`` respectively."""
    vals = list(ids)
    if vals and isinstance(vals[0], (int, np.integer)):
        it = (_md5_u32(str(int(i))) for i in vals)
    else:
        it = (_md5_u32(str(s)) for s in vals)
    return np.fromiter(it, dtype=np.uint64, count=len(vals))


_token_bucket_memo: Dict[str, int] = {}


def token_buckets(tokens: List[str], n_buckets: int = 256) -> np.ndarray:
    """Hashed unigram buckets: first 2 md5 hex chars (256 buckets),
    matching ``strpos('0123456789abcdef', ...)`` SQL arithmetic.
    Memoized per process — corpus vocabularies are Zipfian, so the
    md5 cost amortizes to once per distinct token."""
    memo = _token_bucket_memo
    out = np.empty(len(tokens), dtype=np.int64)
    for j, w in enumerate(tokens):
        b = memo.get(w)
        if b is None:
            b = int(hashlib.md5(w.encode()).hexdigest()[:2], 16) % n_buckets
            if len(memo) < _MEMO_CAP:
                memo[w] = b
        out[j] = b
    return out


# ------------------------------------------------ token-budget mixing


def _tokens_hash_batch(
    batch: pa.Table,
    n_buckets: int,
    id_col: str = "doc_id",
    group_col: str = "lang",
) -> pa.Table:
    if "n_tokens" in batch.column_names:
        # pre-tokenized input (e.g. a narrow materialized projection
        # so an expensive upstream isn't re-executed per pass)
        n_tokens = batch["n_tokens"].to_numpy(zero_copy_only=False)
    else:
        texts = batch["text"].to_pylist()
        n_tokens = np.array(
            [len(t.split()) for t in texts], dtype=np.int64
        )
    h = doc_hash_keys(batch[id_col].to_pylist())
    # range-partition the 32-bit hash space into n_buckets CONTIGUOUS
    # intervals — bucket order must refine hash order for the
    # cutoff-bucket scheme to be exact (a modulo would interleave)
    bucket = ((h * np.uint64(n_buckets)) >> np.uint64(32)).astype(np.int64)
    return pa.Table.from_pydict(
        {
            id_col: batch[id_col].combine_chunks(),
            group_col: batch[group_col].combine_chunks(),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "h": pa.array(h, pa.uint64()),
            "bucket": pa.array(bucket, pa.int64()),
        }
    )


def _pull_bytes(t: pa.Table) -> np.ndarray:
    """Arrow bytes of each row of ``t``: a fixed width, or a string's
    length plus its 4-byte offset."""
    total = np.zeros(t.num_rows, dtype=np.int64)
    for col in t.columns:
        if pa.types.is_primitive(col.type):
            total += max(1, col.type.bit_width // 8)
        else:
            total += 4 + pc.fill_null(pc.binary_length(col), 0).to_numpy()
    return total


def _budget_cutoffs(hashed, budget_num, budget_den, n_buckets, id_col,
                    group_col):
    """Pass 1: the (group, bucket) histogram of tokens, rows and the
    bytes a driver pull of the rows would move, then each group's
    budget, cutoff bucket and the tokens selected below it. None for an
    input without rows."""

    def with_bytes(b: pa.Table) -> pa.Table:
        pulled = b.select([id_col, group_col, "n_tokens", "h"])
        return b.append_column("n_bytes", pa.array(_pull_bytes(pulled)))

    # one grouped aggregate whose exchange carries <= n_groups *
    # n_buckets rows per block
    hist = aggregate(
        hashed,
        [group_col, "bucket"],
        [("n_tokens", "sum", "n_tokens"), ("n_rows", "count", "n_tokens"),
         ("n_bytes", "sum", "n_bytes")],
        rows=with_bytes,
    ).to_pandas()
    if hist.empty:
        return None

    # driver: per group, prefix-sum the buckets; find the cutoff
    cutoff: Dict[str, int] = {}
    base_cum: Dict[str, int] = {}
    budget: Dict[str, int] = {}
    for grp_key, grp in hist.groupby(group_col):
        grp = grp.sort_values("bucket")
        total = int(grp["n_tokens"].sum())
        bud = total * budget_num // budget_den
        budget[grp_key] = bud
        cum = 0
        cut = n_buckets  # all buckets fit
        for b, n in zip(grp["bucket"], grp["n_tokens"]):
            if cum + int(n) > bud:
                cut = int(b)
                break
            cum += int(n)
        cutoff[grp_key] = cut
        base_cum[grp_key] = cum  # tokens selected below the cutoff
    return hist, cutoff, base_cum, budget


def _empty_selection(id_col: str, group_col: str):
    """All rows filtered upstream: a typed-empty result, not a
    pandas-groupby KeyError."""
    import pandas as pd

    return pd.DataFrame(
        {
            id_col: pd.Series([], dtype=object),
            group_col: pd.Series([], dtype=object),
            "n_tokens": pd.Series([], dtype="int64"),
        }
    )


def token_budget_select(
    docs_ds,
    budget_num: int = 1,
    budget_den: int = 2,
    n_buckets: int = 256,
    id_col: str = "doc_id",
    group_col: str = "lang",
):
    """Per-group token-budget prefix selection.

    Selects, per group (default: language), the maximal prefix of
    documents ordered by ``(md5(id) prefix, id)`` whose cumulative
    whitespace-token count is <=
    ``floor(total_tokens(group) * budget_num / budget_den)`` —
    exactly the SQL window ``sum(n_tokens) OVER (PARTITION BY group
    ORDER BY hash, id) <= budget``, computed without any global sort
    (see module docstring). ``id_col`` may be an integer column
    (doc_id; hashed as md5(str(id))) or a string column (url; hashed
    as md5(url)).

    The cutoff bucket is resolved exactly by one of two plans
    (identical answers, pinned equal in tests). The histogram pass
    observes the rows and bytes of each group's boundary bucket, and
    ``plan.broadcast`` decides on them:

    * driver — pull ONLY the boundary bucket's rows (~1/n_buckets of
      each group) and order them on the driver. Two narrow scans, no
      row shuffle.
    * distributed (:func:`token_budget_select_distributed`) — run the
      full :func:`~..stages.window.grouped_ordered_cumsum` (per-bucket
      distributed sorts) and filter ``cum <= budget``. One narrow
      (id, group, val, h) shuffle instead of any driver row pull —
      the 10^12-doc path.

    Returns a pandas frame (id_col, group_col, n_tokens) sorted by id.
    """
    from . import plan

    hashed = docs_ds.map_batches(
        lambda b: _tokens_hash_batch(b, n_buckets, id_col, group_col),
        batch_format="pyarrow",
    )
    cuts = _budget_cutoffs(hashed, budget_num, budget_den, n_buckets,
                           id_col, group_col)
    if cuts is None:
        return _empty_selection(id_col, group_col)
    hist, cutoff, base_cum, budget = cuts

    # the histogram already knows EXACTLY how many rows and bytes the
    # driver plan would pull (each group's cutoff bucket)
    at_cut = np.array(
        [cutoff.get(g, n_buckets) == b
         for g, b in zip(hist[group_col], hist["bucket"])],
        dtype=bool,
    )
    if not plan.broadcast(
        "token_budget_select",
        hist["n_rows"][at_cut].sum(),
        hist["n_bytes"][at_cut].sum(),
    ):
        return _select_distributed(docs_ds, budget, n_buckets, id_col,
                                   group_col)

    # boundary: pull ONLY each group's cutoff bucket (~1/n_buckets of
    # the group), order exactly, extend the prefix to the budget
    def boundary_filter(batch: pa.Table) -> pa.Table:
        groups = np.asarray(batch[group_col].to_pylist())
        buckets = batch["bucket"].to_numpy(zero_copy_only=False)
        mask = np.zeros(len(groups), dtype=bool)
        for grp_key, cut in cutoff.items():  # vectorized per group
            if cut < n_buckets:
                mask |= (groups == grp_key) & (buckets == cut)
        return batch.filter(pa.array(mask)).select(
            [id_col, group_col, "n_tokens", "h"]
        )

    boundary_sel: Dict[str, set] = {}
    if any(c < n_buckets for c in cutoff.values()):
        boundary_df = (
            hashed.map_batches(boundary_filter, batch_format="pyarrow")
            .to_pandas()
        )
    else:  # every group fits its whole corpus: no boundary pass needed
        import pandas as pd

        boundary_df = pd.DataFrame(
            columns=[id_col, group_col, "n_tokens", "h"]
        )
    for grp_key, grp in boundary_df.groupby(group_col):
        grp = grp.sort_values(["h", id_col])
        cum = base_cum.get(grp_key, 0)
        bud = budget.get(grp_key, 0)
        sel = set()
        for row_id, n in zip(grp[id_col], grp["n_tokens"]):
            if cum + int(n) > bud:
                break
            cum += int(n)
            sel.add(row_id)
        boundary_sel[grp_key] = sel

    # final pass: stateless filter against the broadcast cutoffs
    def select(batch: pa.Table) -> pa.Table:
        groups = np.asarray(batch[group_col].to_pylist())
        buckets = batch["bucket"].to_numpy(zero_copy_only=False)
        ids = np.asarray(batch[id_col].to_pylist())
        mask = np.zeros(len(groups), dtype=bool)
        for grp_key, cut in cutoff.items():  # vectorized per group
            gm = groups == grp_key
            mask |= gm & (buckets < cut)
            sel = boundary_sel.get(grp_key)
            if sel:
                mask |= gm & np.isin(ids, np.asarray(list(sel)))
        return batch.filter(pa.array(mask)).select(
            [id_col, group_col, "n_tokens"]
        )

    out = hashed.map_batches(select, batch_format="pyarrow").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


def token_budget_select_distributed(
    docs_ds,
    budget_num: int = 1,
    budget_den: int = 2,
    n_buckets: int = 256,
    id_col: str = "doc_id",
    group_col: str = "lang",
):
    """The distributed plan of :func:`token_budget_select`, without the
    decision: the histogram pass for the budgets, then the full
    distributed window cumsum."""
    hashed = docs_ds.map_batches(
        lambda b: _tokens_hash_batch(b, n_buckets, id_col, group_col),
        batch_format="pyarrow",
    )
    cuts = _budget_cutoffs(hashed, budget_num, budget_den, n_buckets,
                           id_col, group_col)
    if cuts is None:
        return _empty_selection(id_col, group_col)
    return _select_distributed(docs_ds, cuts[3], n_buckets, id_col,
                               group_col)


def _select_distributed(docs_ds, budget, n_buckets, id_col, group_col):
    """No driver row pull at all: full distributed window cumsum
    (per-bucket sorts), then a stateless budget filter."""
    from .window import grouped_ordered_cumsum

    def tok_only(batch: pa.Table) -> pa.Table:
        return _tokens_hash_batch(
            batch, n_buckets, id_col, group_col
        ).select([id_col, group_col, "n_tokens"])

    cum_ds = grouped_ordered_cumsum(
        docs_ds.map_batches(tok_only, batch_format="pyarrow"),
        group_col,
        id_col,
        "n_tokens",
        n_buckets=n_buckets,
    )

    def keep(batch: pa.Table) -> pa.Table:
        groups = np.asarray(batch["group"].to_pylist())
        c = batch["cum"].to_numpy(zero_copy_only=False)
        mask = np.zeros(len(groups), dtype=bool)
        for grp_key, bud in budget.items():  # vectorized per group
            mask |= (groups == grp_key) & (c <= bud)
        out = batch.filter(pa.array(mask))
        return pa.Table.from_pydict(
            {
                id_col: out["id"].combine_chunks(),
                group_col: out["group"].combine_chunks(),
                "n_tokens": out["val"].combine_chunks(),
            }
        )

    out = cum_ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


# --------------------------------------------- DSIR importance scores


def dsir_score(docs_ds, target_mod: int = 101, n_buckets: int = 256):
    """Hashed-unigram importance scores (DSIR): per document, the mean
    over its tokens of ``log2 p_target(bucket) - log2 p_corpus(bucket)``
    with add-one smoothing, where the target slice is
    ``doc_id % target_mod == 0`` (the benchmark-slice convention shared
    with ``decontaminate``). Documents with zero tokens are dropped
    (no mean exists).

    Returns a pandas frame (doc_id, n_tokens, score) sorted by doc_id.
    """
    # pass 1: 256-bucket token counts, corpus-wide and target-slice
    def count_partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        c_all = np.zeros(n_buckets, dtype=np.int64)
        c_tgt = np.zeros(n_buckets, dtype=np.int64)
        for doc_id, text in zip(ids, batch["text"].to_pylist()):
            b = token_buckets(text.split(), n_buckets)
            if b.size == 0:
                continue
            counts = np.bincount(b, minlength=n_buckets)
            c_all += counts
            if doc_id % target_mod == 0:
                c_tgt += counts
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(np.arange(n_buckets), pa.int64()),
                "c_all": pa.array(c_all, pa.int64()),
                "c_tgt": pa.array(c_tgt, pa.int64()),
            }
        )

    counts = (
        aggregate(
            docs_ds,
            "bucket",
            [("c_all", "sum", "c_all"), ("c_tgt", "sum", "c_tgt")],
            rows=count_partial,
        )
        .to_pandas()
        .sort_values("bucket")
    )
    c_all = np.zeros(n_buckets, dtype=np.float64)
    c_tgt = np.zeros(n_buckets, dtype=np.float64)
    c_all[counts["bucket"].to_numpy()] = counts["c_all"].to_numpy()
    c_tgt[counts["bucket"].to_numpy()] = counts["c_tgt"].to_numpy()
    t_all, t_tgt = c_all.sum(), c_tgt.sum()
    lr = np.log2((c_tgt + 1.0) / (t_tgt + n_buckets)) - np.log2(
        (c_all + 1.0) / (t_all + n_buckets)
    )

    # pass 2: stateless scoring against the broadcast 256-float table
    def score_batch(batch: pa.Table) -> pa.Table:
        out_ids: List[int] = []
        out_n: List[int] = []
        out_s: List[float] = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = text.split()
            if not toks:
                continue
            b = token_buckets(toks, n_buckets)
            out_ids.append(doc_id)
            out_n.append(len(toks))
            out_s.append(float(lr[b].sum() / len(toks)))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "n_tokens": pa.array(out_n, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    out = docs_ds.map_batches(score_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)
