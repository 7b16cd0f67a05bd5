"""Distributed exact grouped ordered running totals (window cumsum).

Ray Data has no window functions; this stage computes the SQL
``sum(val) OVER (PARTITION BY group ORDER BY hash(id), id)`` exactly,
with no global sort:

1. annotate each row with its deterministic order key (md5 prefix of
   the id — the SQL-reconstructable ``stages.mixing`` convention) and
   a contiguous range bucket of that key (bucket order refines hash
   order);
2. one fixed-size exchange: the (group, bucket) value histogram;
   the driver prefix-sums it into per-(group, bucket) base offsets —
   O(groups x n_buckets) state, never rows;
3. per-(group, bucket) tasks sort their own slice (~1/n_buckets of a
   group) and emit base + local cumsum.

At 10^12 rows, pick ``n_buckets`` so a single (group, bucket) slice
fits a task (n_buckets ~ group_size / 10^6); the exchange stays tiny
because the histogram runs through ``stages/aggregate.py`` (an Arrow
partial per batch).

:func:`shard_assign` applies it to the canonical use: carving a
corpus into fixed-token-budget shards per group, the deterministic
"which output shard does this document belong to" mapping a resumable
100 TB write needs.
"""

from typing import Dict

import numpy as np
import pyarrow as pa

from .aggregate import aggregate
from .mixing import doc_hash_keys

_SEP = "\x1f"  # composite (group, bucket) key separator


def grouped_ordered_cumsum(
    ds,
    group_col: str,
    id_col: str,
    val_col: str,
    n_buckets: int = 256,
):
    """Dataset[(group, id, val, ...)] -> Dataset[(id, group, val, cum)]
    where ``cum`` is the inclusive running total of ``val`` within
    ``group`` in ``(md5(id) prefix, id)`` order."""

    def annotate(batch: pa.Table) -> pa.Table:
        h = doc_hash_keys(batch[id_col].to_pylist())
        bucket = ((h * np.uint64(n_buckets)) >> np.uint64(32)).astype(
            np.int64
        )
        gk = pa.compute.binary_join_element_wise(
            pa.compute.cast(batch[group_col], pa.string()),
            pa.compute.cast(pa.array(bucket), pa.string()),
            _SEP,
        )
        return pa.Table.from_pydict(
            {
                "id": batch[id_col].combine_chunks(),
                "group": batch[group_col].combine_chunks(),
                "val": batch[val_col].combine_chunks(),
                "h": pa.array(h, pa.uint64()),
                "gk": gk,
            }
        )

    annotated = ds.map_batches(annotate, batch_format="pyarrow")

    # fixed-size exchange: (group, bucket) -> sum(val)
    hist = aggregate(annotated, "gk", [("val", "sum", "val")]).to_pandas()

    # driver: exclusive prefix within each group, buckets ascending
    base: Dict[str, int] = {}
    rows = []
    for gk, v in zip(hist["gk"], hist["val"]):
        group, bucket = gk.rsplit(_SEP, 1)
        rows.append((group, int(bucket), gk, int(v)))
    rows.sort()
    run_group, run = None, 0
    for group, _bucket, gk, v in rows:
        if group != run_group:
            run_group, run = group, 0
        base[gk] = run
        run += v

    def cum_of_group(g: pa.Table) -> pa.Table:
        # np.asarray over the pylist gives '<U..' dtype for string ids
        # (np.lexsort rejects object arrays) and int64 for ints
        ids = np.asarray(g["id"].to_pylist())
        hs = g["h"].to_numpy(zero_copy_only=False)
        vals = g["val"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, hs))  # primary h, tie-break id
        start = base.get(g["gk"][0].as_py(), 0)
        cum = start + np.cumsum(vals[order])
        return pa.Table.from_pydict(
            {
                "id": pa.array(ids[order]),
                "group": pa.array(
                    np.asarray(g["group"].to_pylist(), dtype=object)[order]
                ),
                "val": pa.array(vals[order], pa.int64()),
                "cum": pa.array(cum, pa.int64()),
            }
        )

    return annotated.groupby("gk").map_groups(
        cum_of_group, batch_format="pyarrow"
    )


def _value_counts(ds, col: str):
    """(col, c) row counts per value of ``col`` as a pandas frame,
    sorted by value."""
    return (
        aggregate(ds, col, [("c", "count", None)])
        .to_pandas()
        .sort_values(col)
    )


def global_row_number(
    ds,
    id_col: str,
    key_col: str,
    descending: bool = True,
):
    """Exact global ``row_number() OVER (ORDER BY key [DESC], id)``
    without a global sort — the ranking window primitive.

    Plan: a (key -> count) histogram (``stages/aggregate.py``; the
    exchange is over DISTINCT key values, which for integer features
    like lengths is far smaller than the corpus) -> driver exclusive
    prefix over the sorted key domain -> per-key groups rank their own
    rows by id against the broadcast base offset. A key value shared
    by many rows makes one task proportional to that tie group — cap
    via a finer (composite) key if a feature is extremely heavy-tied.

    Returns Dataset[(id, key, rnk)], rnk starting at 1.
    """
    hist = (
        aggregate(ds, key_col, [("n", "count", None)])
        .to_pandas()
        .sort_values(key_col, ascending=not descending)
    )
    base: Dict[int, int] = {}
    run = 0
    for k, n in zip(hist[key_col], hist["n"]):
        base[k] = run
        run += int(n)

    def rank_group(g: pa.Table) -> pa.Table:
        ids = np.asarray(g[id_col].to_pylist())
        order = np.argsort(ids, kind="stable")
        start = base.get(g[key_col][0].as_py(), 0)
        rnk = start + np.arange(1, len(ids) + 1, dtype=np.int64)
        return pa.Table.from_pydict(
            {
                "id": pa.array(ids[order]),
                "key": g[key_col].take(
                    pa.array(order, pa.int64())
                ).combine_chunks(),
                "rnk": pa.array(rnk, pa.int64()),
            }
        )

    return ds.select_columns([id_col, key_col]).groupby(key_col).map_groups(
        rank_group, batch_format="pyarrow"
    )


def grouped_row_number(
    ds,
    part_col: str,
    id_col: str,
    key_col: str,
    descending: bool = False,
    with_hist: bool = False,
):
    """Exact ``row_number() OVER (PARTITION BY part ORDER BY key
    [DESC], id)`` — the partitioned spelling of
    :func:`global_row_number`, same no-global-sort plan with the
    histogram keyed by (part, key).

    Returns Dataset[(id, part, key, rnk)], rnk starting at 1 within
    each partition. ``with_hist=True`` returns ``(ds, hist)`` where
    ``hist`` is the already-computed (part, key, n) pandas histogram —
    callers needing group sizes (ntile, quantiles) derive them from it
    instead of paying a second corpus scan.
    """
    hist = (
        aggregate(ds, [part_col, key_col], [("n", "count", None)])
        .to_pandas()
        .sort_values(
            [part_col, key_col], ascending=[True, not descending]
        )
        .reset_index(drop=True)
    )
    base: Dict[tuple, int] = {}
    run_part, run = None, 0
    for p, k, n in zip(hist[part_col], hist[key_col], hist["n"]):
        if p != run_part:
            run_part, run = p, 0
        base[(p, k)] = run
        run += int(n)

    def annotate(batch: pa.Table) -> pa.Table:
        gk = pa.compute.binary_join_element_wise(
            pa.compute.cast(batch[part_col], pa.string()),
            pa.compute.cast(batch[key_col], pa.string()),
            _SEP,
        )
        return pa.Table.from_pydict(
            {
                "id": batch[id_col].combine_chunks(),
                "part": batch[part_col].combine_chunks(),
                "key": batch[key_col].combine_chunks(),
                "gk": gk,
            }
        )

    def rank_group(g: pa.Table) -> pa.Table:
        ids = np.asarray(g["id"].to_pylist())
        order = np.argsort(ids, kind="stable")
        start = base.get(
            (g["part"][0].as_py(), g["key"][0].as_py()), 0
        )
        rnk = start + np.arange(1, len(ids) + 1, dtype=np.int64)
        take = pa.array(order, pa.int64())
        return pa.Table.from_pydict(
            {
                "id": pa.array(ids[order]),
                "part": g["part"].take(take).combine_chunks(),
                "key": g["key"].take(take).combine_chunks(),
                "rnk": pa.array(rnk, pa.int64()),
            }
        )

    out = (
        ds.select_columns([part_col, id_col, key_col])
        .map_batches(annotate, batch_format="pyarrow")
        .groupby("gk")
        .map_groups(rank_group, batch_format="pyarrow")
    )
    return (out, hist) if with_hist else out


def ntile_of_rank(rnk: np.ndarray, n: int, tiles: int) -> np.ndarray:
    """SQL NTILE semantics from 1-based ranks: the first ``n % tiles``
    tiles hold ``n // tiles + 1`` rows, the rest ``n // tiles``."""
    big = n // tiles + 1
    cut = (n % tiles) * big  # rows covered by the big tiles
    r = np.asarray(rnk, dtype=np.int64)
    in_big = r <= cut
    t_big = (r - 1) // max(big, 1) + 1
    small = max(n // tiles, 1)
    t_small = (n % tiles) + (r - cut - 1) // small + 1
    return np.where(in_big, t_big, t_small).astype(np.int64)


def shard_assign(
    docs_ds,
    shard_tokens: int,
    group_col: str = "lang",
    n_buckets: int = 256,
):
    """Deterministic fixed-token-budget shard ids per group: documents
    are laid out in hash order and cut every ``shard_tokens`` tokens;
    a document belongs to the shard its FIRST token lands in
    (``(cum - n_tokens) // shard_tokens``, the exclusive prefix).

    Returns a pandas frame (doc_id, lang, n_tokens, shard_id) sorted
    by doc_id.
    """

    def tokens(batch: pa.Table) -> pa.Table:
        n = pa.array(
            [len(t.split()) for t in batch["text"].to_pylist()], pa.int64()
        )
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"].combine_chunks(),
                group_col: batch[group_col].combine_chunks(),
                "n_tokens": n,
            }
        )

    tok = docs_ds.map_batches(tokens, batch_format="pyarrow")
    cum = grouped_ordered_cumsum(
        tok, group_col, "doc_id", "n_tokens", n_buckets=n_buckets
    )

    def to_shard(batch: pa.Table) -> pa.Table:
        c = batch["cum"].to_numpy(zero_copy_only=False)
        v = batch["val"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["id"].combine_chunks(),
                group_col: batch["group"].combine_chunks(),
                "n_tokens": pa.array(v, pa.int64()),
                "shard_id": pa.array((c - v) // shard_tokens, pa.int64()),
            }
        )

    out = cum.map_batches(to_shard, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)

def grouped_rank_sorted(ds, part_col: str, key_col: str,
                        descending: bool = True, with_pct: bool = False):
    """Exact ``rank()`` / ``dense_rank()`` (and optionally
    ``percent_rank`` / ``cume_dist``) via Ray's distributed SORT — the
    scale-general sibling of :func:`grouped_rank_dense` for
    NEAR-UNIQUE keys, where the histogram plan's driver state would
    degenerate to row count.

    Plan: ``ds.sort([part, key])`` range-partitions into globally
    ordered blocks; one tiny summary task per block reports its
    per-part (rows, distinct keys) and its head/tail tie groups; the
    driver stitches block boundaries with a forward pass (base rows /
    base distinct / ties carried into each block) plus a reverse pass
    (ties extending past each block) — O(blocks + parts-appearances)
    driver state, never rows; each block then annotates itself
    independently (raw Ray tasks over the materialized sorted refs —
    the documented last-resort case, same as
    :func:`global_row_number_sorted`). Pinned equal to the histogram
    plan on heavy-tie AND near-unique corpora in pytest."""
    import ray
    import ray.data as rd

    sorted_ds = ds.sort(
        [part_col, key_col], descending=[False, descending]
    ).materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _summary(t: pa.Table):
        if t.num_rows == 0:
            return None
        if t[part_col].null_count or t[key_col].null_count:
            return "null"
        parts = np.asarray(t[part_col].to_pylist(), dtype=object)
        keys = np.asarray(t[key_col].to_pylist(), dtype=object)
        n = len(parts)
        new_part = np.empty(n, dtype=bool)
        new_part[0] = True
        np.not_equal(parts[1:], parts[:-1], out=new_part[1:])
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
        np.logical_or(new_group, new_part, out=new_group)
        gstarts = np.flatnonzero(new_group)
        gsizes = np.diff(np.append(gstarts, n))
        pstarts = np.flatnonzero(new_part)
        pends = np.append(pstarts[1:], n)
        per_part = [
            (
                parts[s],
                int(e - s),  # rows of this part in this block
                int(np.searchsorted(gstarts, e)
                    - np.searchsorted(gstarts, s)),  # distinct keys
            )
            for s, e in zip(pstarts, pends)
        ]
        return {
            "per_part": per_part,
            "head_key": keys[0],
            "tail_key": keys[-1],
            "head_size": int(gsizes[0]),
            "tail_size": int(gsizes[-1]),
            "n_groups": len(gstarts),
        }

    summaries = ray.get([_summary.remote(r) for r in refs])
    if any(s == "null" for s in summaries):
        raise ValueError(
            "grouped_rank_sorted: null partition/order keys are not "
            "supported (SQL NULL ordering is dialect-dependent; filter "
            "or fill them first)"
        )

    _NONE = object()
    # forward pass: what each block inherits from the blocks before it
    fwd = []  # (base_rows, base_distinct, prev_ties) per block
    cur_part, rows_b, dist_b = _NONE, 0, 0
    tail_key, tail_ties = _NONE, 0
    part_totals: Dict[object, int] = {}
    for s in summaries:
        if s is None:
            fwd.append((0, 0, 0))
            continue
        continuing = cur_part is not _NONE and cur_part == s["per_part"][0][0]
        spanning = continuing and tail_key == s["head_key"]
        prev_ties = tail_ties if spanning else 0
        fwd.append(
            (
                rows_b if continuing else 0,
                (dist_b - 1 if spanning else dist_b) if continuing else 0,
                prev_ties,
            )
        )
        for part, n_rows, n_dist in s["per_part"]:
            if cur_part is not _NONE and part == cur_part:
                rows_b += n_rows
                dist_b += n_dist - (1 if spanning else 0)
            else:
                cur_part, rows_b, dist_b = part, n_rows, n_dist
            part_totals[part] = part_totals.get(part, 0) + n_rows
        single = s["n_groups"] == 1
        tail_ties = s["tail_size"] + (tail_ties if single and spanning else 0)
        tail_key = s["tail_key"]

    # reverse pass: ties extending past each block's tail group
    after = [0] * len(summaries)
    a_part, a_key, a_cum = _NONE, _NONE, 0
    for i in range(len(summaries) - 1, -1, -1):
        s = summaries[i]
        if s is None:
            continue
        tail_part = s["per_part"][-1][0]
        ext = (
            a_cum
            if a_part is not _NONE
            and a_part == tail_part
            and a_key == s["tail_key"]
            else 0
        )
        after[i] = ext
        single = s["n_groups"] == 1
        a_part = s["per_part"][0][0]
        a_key = s["head_key"]
        a_cum = s["head_size"] + (ext if single else 0)

    @ray.remote
    def _annotate(
        t: pa.Table, base_rows, base_dist, prev_ties, head_total,
        tail_total, totals
    ):
        parts = np.asarray(t[part_col].to_pylist(), dtype=object)
        keys = np.asarray(t[key_col].to_pylist(), dtype=object)
        n = len(parts)
        new_part = np.empty(n, dtype=bool)
        new_part[0] = True
        np.not_equal(parts[1:], parts[:-1], out=new_part[1:])
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
        np.logical_or(new_group, new_part, out=new_group)
        gstarts = np.flatnonzero(new_group)
        gsizes = np.diff(np.append(gstarts, n))
        n_groups = len(gstarts)
        # per-group part-start row index + group index within its part
        pstarts = np.flatnonzero(new_part)
        g_pstart = pstarts[
            np.searchsorted(pstarts, gstarts, side="right") - 1
        ]
        g_first_of_part = np.searchsorted(gstarts, g_pstart)
        g_in_part = np.arange(n_groups) - g_first_of_part
        head_part = g_pstart == 0  # groups belonging to the block's head part
        local_rank = gstarts - g_pstart + 1
        g_rank = local_rank + np.where(head_part, base_rows, 0)
        if prev_ties:
            g_rank[0] -= prev_ties
        g_dense = g_in_part + 1 + np.where(head_part, base_dist, 0)
        g_total = gsizes.astype(np.int64).copy()
        g_total[0] = head_total
        g_total[-1] = tail_total
        rnk = np.repeat(g_rank, gsizes).astype(np.int64)
        drnk = np.repeat(g_dense, gsizes).astype(np.int64)
        out = t.append_column(
            "rnk", pa.array(rnk, pa.int64())
        ).append_column("drnk", pa.array(drnk, pa.int64()))
        if with_pct:
            n_part = np.array(
                [totals[p] for p in parts], dtype=np.int64
            )
            at_or_before = np.repeat(
                g_rank + g_total, gsizes
            ).astype(np.int64) - 1
            pct = np.where(
                n_part > 1, (rnk - 1) / np.maximum(n_part - 1, 1), 0.0
            )
            out = out.append_column(
                "pct_rank", pa.array(pct, pa.float64())
            ).append_column(
                "cume_dist", pa.array(at_or_before / n_part, pa.float64())
            )
        return out

    out_refs = []
    for i, (r, s) in enumerate(zip(refs, summaries)):
        if s is None:
            continue
        base_rows, base_dist, prev_ties = fwd[i]
        single = s["n_groups"] == 1
        head_total = (
            prev_ties + s["head_size"] + (after[i] if single else 0)
        )
        tail_total = (
            (prev_ties if single else 0) + s["tail_size"] + after[i]
        )
        totals = (
            {p: part_totals[p] for p, _, _ in s["per_part"]}
            if with_pct
            else None
        )
        out_refs.append(
            _annotate.remote(
                r, int(base_rows), int(base_dist), int(prev_ties),
                int(head_total), int(tail_total), totals,
            )
        )
    if not out_refs:
        base = (
            ray.get(refs[0])
            if refs
            else pa.Table.from_pydict({part_col: [], key_col: []})
        )
        empty = base.slice(0, 0)
        empty = empty.append_column(
            "rnk", pa.array([], pa.int64())
        ).append_column("drnk", pa.array([], pa.int64()))
        if with_pct:
            empty = empty.append_column(
                "pct_rank", pa.array([], pa.float64())
            ).append_column("cume_dist", pa.array([], pa.float64()))
        return rd.from_arrow(empty)
    return rd.from_arrow_refs(out_refs)


def grouped_rank_dense(ds, part_col: str, key_col: str,
                       descending: bool = True, with_pct: bool = False,
                       method: str = "auto",
                       max_hist_pairs: int = 2_000_000):
    """Exact ``rank()`` and ``dense_rank()`` ``OVER (PARTITION BY part
    ORDER BY key [DESC])`` — the tie-AWARE siblings of
    :func:`grouped_row_number`.

    Unlike row_number, both ranks are pure functions of the (part,
    key) VALUE: rank(v) = 1 + count of rows in the partition with a
    strictly better key, dense_rank(v) = 1 + count of DISTINCT better
    keys. So the whole window collapses to the same pre-aggregated
    value histogram the row_number plan builds (driver state bounded
    by distinct (part, key) pairs, never row count) plus ONE
    stateless map_batches that probes per-part sorted value arrays
    with ``np.searchsorted`` — no exchange, no group shuffle at all.

    Returns the input columns + ``rnk`` + ``drnk`` (both int64,
    1-based). ``with_pct=True`` adds ``pct_rank`` (= (rnk-1)/(n-1),
    0.0 for single-row partitions) and ``cume_dist`` (= rows ordered
    at-or-before v / n) — also pure value-functions of the same
    histogram, so still no exchange.

    Bound honesty: "bounded by distinct (part, key) pairs" degenerates
    to row count when the key is near-unique (continuous scores, raw
    ids). ``method="auto"`` (default) guards that: it pins the
    pre-aggregated histogram Dataset once, counts it, and falls back
    to :func:`grouped_rank_sorted` (one distributed sort, O(blocks)
    driver state) above ``max_hist_pairs`` distinct pairs — the
    ``latest_crawl``-style crossover. ``method="histogram"`` /
    ``"sorted"`` force a plan; both are pinned equal in pytest."""
    if method == "sorted":
        return grouped_rank_sorted(
            ds, part_col, key_col, descending=descending, with_pct=with_pct
        )
    if method not in ("auto", "histogram"):
        raise ValueError(f"unknown grouped_rank_dense method: {method}")

    hist_ds = aggregate(ds, [part_col, key_col], [("n", "count", None)])
    if method == "auto":
        from .iterate import pin_loop_state

        from . import plan as plan_choice

        hist_ds = pin_loop_state(hist_ds, num_blocks=None)
        if not plan_choice.choose_broadcast(
            hist_ds.count(), max_hist_pairs, est_row_bytes=16
        ):
            return grouped_rank_sorted(
                ds, part_col, key_col,
                descending=descending, with_pct=with_pct,
            )
    hist = hist_ds.to_pandas()
    if hist[key_col].isna().any() or hist[part_col].isna().any():
        raise ValueError(
            "grouped_rank_dense: null partition/order keys are not "
            "supported (SQL NULL ordering is dialect-dependent; filter "
            "or fill them first)"
        )
    # per part: ascending distinct keys -> (rank, dense_rank) arrays
    lut: Dict[object, tuple] = {}
    for part, grp in hist.groupby(part_col):
        vals = grp[key_col].to_numpy()
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        cnt = grp["n"].to_numpy()[order].astype(np.int64)
        k = len(vals)
        csum = np.cumsum(cnt)
        total = int(csum[-1])
        if descending:
            rnk = csum[-1] - csum + 1          # 1 + #strictly greater
            drnk = np.arange(k, 0, -1, dtype=np.int64)
            at_or_before = total - csum + cnt  # rows with key >= v
        else:
            rnk = np.concatenate(([1], csum[:-1] + 1)).astype(np.int64)
            drnk = np.arange(1, k + 1, dtype=np.int64)
            at_or_before = csum                # rows with key <= v
        pct = (
            (rnk - 1) / (total - 1) if total > 1
            else np.zeros(k, dtype=np.float64)
        )
        cume = at_or_before / total
        lut[part] = (vals, rnk, drnk, pct, cume)

    def annotate(batch: pa.Table) -> pa.Table:
        parts = np.asarray(batch[part_col].to_pylist())
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        rnk = np.zeros(len(parts), dtype=np.int64)
        drnk = np.zeros(len(parts), dtype=np.int64)
        pct = np.zeros(len(parts), dtype=np.float64)
        cume = np.zeros(len(parts), dtype=np.float64)
        for part, (vals, r, d, p, c) in lut.items():
            m = parts == part
            if m.any():
                idx = np.searchsorted(vals, keys[m])
                rnk[m] = r[idx]
                drnk[m] = d[idx]
                pct[m] = p[idx]
                cume[m] = c[idx]
        out = batch.append_column(
            "rnk", pa.array(rnk, pa.int64())
        ).append_column("drnk", pa.array(drnk, pa.int64()))
        if with_pct:
            out = out.append_column(
                "pct_rank", pa.array(pct, pa.float64())
            ).append_column("cume_dist", pa.array(cume, pa.float64()))
        return out

    return ds.map_batches(annotate, batch_format="pyarrow")

def global_row_number_sorted(
    ds,
    id_col: str,
    key_col: str,
    descending: bool = True,
):
    """Exact global ``row_number() OVER (ORDER BY key [DESC], id)``
    via Ray's distributed SORT — the scale-general sibling of
    :func:`global_row_number` for NEAR-UNIQUE keys, where the
    histogram plan's driver state would degenerate to row count.

    Plan: ``ds.sort`` range-partitions into globally ordered blocks;
    block row counts come from the materialized blocks' metadata (an
    exclusive prefix over #blocks integers — the only driver state);
    each block then annotates ``base + arange`` in place. The
    annotation step drops to raw Ray tasks because a Dataset map
    cannot see its block's global position — exactly the documented
    last-resort case; order and lineage are preserved by operating on
    the materialized sorted block refs.

    Returns Dataset[(id, key, rnk)], rnk starting at 1.
    """
    import ray
    import ray.data as rd

    sorted_ds = (
        ds.select_columns([id_col, key_col])
        .sort([key_col, id_col], descending=[descending, False])
        .materialize()
    )
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    counts = ray.get([_nrows.remote(r) for r in refs])
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))

    @ray.remote
    def _annotate(t: pa.Table, base: int) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "id": t[id_col].combine_chunks(),
                "key": t[key_col].combine_chunks(),
                "rnk": pa.array(
                    base + np.arange(1, t.num_rows + 1, dtype=np.int64),
                    pa.int64(),
                ),
            }
        )

    return rd.from_arrow_refs(
        [
            _annotate.remote(r, int(b))
            for r, b in zip(refs, bases)
        ]
    )


def cusum_changepoint(
    ds,
    group_col: str,
    order_col: str,
    tiebreak_col: str,
    val_col: str,
    n_buckets: int = 64,
):
    """Exact CUSUM change-point per group: over each group's rows in
    ``(order_col, tiebreak_col)`` order, find the split position
    k* = argmax_k |n * P_k - k * S| (P_k the prefix sum of ``val``,
    S/n the group total/count, 1 <= k < n; ties -> smallest k) — the
    scaled-by-n CUSUM statistic, kept in EXACT int64 so the argmax is
    deterministic and a SQL window oracle replays it bit-for-bit
    (a z-score variant would need float variance; the n-scaling
    avoids the rational mean the way events_anomaly's MAD avoids
    overflow). Contract: n * |S| must fit int64 — asserted.

    Returns a pandas DataFrame (group, n, total_s, k_star,
    cusum_stat, split_p) — ``split_p`` the prefix sum at k* and
    ``total_s`` the group total, so callers derive
    mean_before/mean_after with two float divisions.

    Physical plan (no global sort, no whole-group shuffle): one tiny
    (min, max) aggregate of the order key; one fixed-size exchange of
    the (group, contiguous-order-range-bucket) value/count histogram
    that the driver prefix-sums into base offsets (O(groups x
    n_buckets) state); then per-(group, bucket) tasks lexsort their
    own ~1/n_buckets slice and emit ONE local-argmax candidate row
    each — the driver reduces groups x n_buckets candidates."""
    import pandas as pd
    import ray

    def to_keyed(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "g": pa.compute.cast(b[group_col], pa.string()),
                "o": pa.compute.cast(b[order_col], pa.int64()),
                "t": pa.compute.cast(b[tiebreak_col], pa.int64()),
                "v": pa.compute.cast(b[val_col], pa.int64()),
            }
        )

    keyed = ds.map_batches(to_keyed, batch_format="pyarrow").materialize()

    lim = aggregate(keyed, [], [("lo", "min", "o"), ("hi", "max", "o")])
    lo, hi = int(lim["lo"]), int(lim["hi"])
    span = max(hi - lo + 1, 1)

    def bucket_of(o: np.ndarray) -> np.ndarray:
        # contiguous ranges (never modulo): bucket order == key order
        return ((o - lo).astype(np.uint64) * np.uint64(n_buckets)
                // np.uint64(span)).astype(np.int64)

    def hist_rows(b: pa.Table) -> pa.Table:
        bk = bucket_of(b["o"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"g": b["g"], "bk": pa.array(bk, pa.int64()), "v": b["v"]}
        )

    hist = aggregate(
        keyed,
        ["g", "bk"],
        [("sv", "sum", "v"), ("c", "count", None)],
        rows=hist_rows,
    ).to_pandas()
    hist = hist.sort_values(["g", "bk"]).reset_index(drop=True)
    # per-group totals + per-(group,bucket) exclusive base offsets
    totals = {}
    bases = {}
    for g, sub in hist.groupby("g", sort=False):
        sv = sub["sv"].to_numpy()
        c = sub["c"].to_numpy()
        n, s = int(c.sum()), int(sv.sum())
        assert n * abs(s) < (1 << 63), (
            "cusum_changepoint int64 contract violated: n*|S| overflows"
        )
        totals[g] = (n, s)
        pc_ = np.concatenate([[0], np.cumsum(sv)[:-1]])
        kc = np.concatenate([[0], np.cumsum(c)[:-1]])
        for bk, p0, k0 in zip(sub["bk"], pc_, kc):
            bases[(g, int(bk))] = (int(p0), int(k0))
    state_ref = ray.put((totals, bases))

    def with_gk(b: pa.Table) -> pa.Table:
        bk = bucket_of(b["o"].to_numpy(zero_copy_only=False))
        gk = pa.compute.binary_join_element_wise(
            b["g"], pa.array(bk.astype("str")), _SEP
        )
        return b.append_column("gk", gk).append_column(
            "bk", pa.array(bk, pa.int64())
        )

    def best_of_slice(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "g": pa.array([], pa.string()),
                "k": pa.array([], pa.int64()),
                "stat": pa.array([], pa.int64()),
                "p": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        totals_, bases_ = ray.get(state_ref)
        g = group["g"][0].as_py()
        bk = int(group["bk"][0].as_py())
        n, s = totals_[g]
        p0, k0 = bases_[(g, bk)]
        o = group["o"].to_numpy(zero_copy_only=False)
        t = group["t"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((t, o))
        p = p0 + np.cumsum(v[order])
        k = k0 + 1 + np.arange(o.size)
        valid = k < n
        if not valid.any():
            return empty
        stat = np.abs(n * p[valid] - k[valid] * s)
        i = int(np.argmax(stat))  # first max -> smallest k
        return pa.Table.from_pydict(
            {
                "g": pa.array([g], pa.string()),
                "k": pa.array([int(k[valid][i])], pa.int64()),
                "stat": pa.array([int(stat[i])], pa.int64()),
                "p": pa.array([int(p[valid][i])], pa.int64()),
            }
        )

    cand = (
        keyed.map_batches(with_gk, batch_format="pyarrow")
        .groupby("gk")
        .map_groups(best_of_slice, batch_format="pyarrow")
        .to_pandas()
    )
    rows = []
    for g, sub in cand.groupby("g", sort=False):
        sub = sub.sort_values(["stat", "k"],
                              ascending=[False, True])
        best = sub.iloc[0]
        n, s = totals[g]
        rows.append(
            {
                "group": g,
                "n": n,
                "total_s": s,
                "k_star": int(best["k"]),
                "cusum_stat": int(best["stat"]),
                "split_p": int(best["p"]),
            }
        )
    out = pd.DataFrame(
        rows,
        columns=["group", "n", "total_s", "k_star", "cusum_stat",
                 "split_p"],
    )
    return out.sort_values("group").reset_index(drop=True)


def lag1_stats(
    ds,
    group_col: str,
    order_col: str,
    tiebreak_col: str,
    val_col: str,
    n_buckets: int = 64,
):
    """Exact lag-1 (adjacent-pair) sufficient statistics per group
    over the ``(order_col, tiebreak_col)``-ordered value sequence:
    for the m = n-1 consecutive pairs (x_{k-1}, x_k), the int64 sums
    Sa = sum x_{k-1}, Sb = sum x_k, Sab = sum x_{k-1}*x_k, plus n,
    Sx, Sxx and the first/last value — everything a lag-1
    autocorrelation (or AR(1) fit) needs, all exact so downstream
    float math is a handful of driver-side ops a SQL ``lag()`` oracle
    replays bit-for-bit.

    Physical plan (the cusum_changepoint bucket scheme): contiguous
    order-range buckets; each (group, bucket) task lexsorts its own
    slice and emits ONE stats row (local pair sums + its first/last
    value); the driver stitches the O(groups x n_buckets) boundary
    pairs (last of bucket b with first of bucket b+1) in python ints.
    No global sort, no whole-group shuffle. Returns a pandas
    DataFrame (group, n, s_x, s_xx, m, s_a, s_b, s_ab, first_v,
    last_v)."""
    import pandas as pd

    def to_keyed(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "g": pa.compute.cast(b[group_col], pa.string()),
                "o": pa.compute.cast(b[order_col], pa.int64()),
                "t": pa.compute.cast(b[tiebreak_col], pa.int64()),
                "v": pa.compute.cast(b[val_col], pa.int64()),
            }
        )

    keyed = ds.map_batches(to_keyed, batch_format="pyarrow").materialize()
    lim = aggregate(keyed, [], [("lo", "min", "o"), ("hi", "max", "o")])
    lo, hi = int(lim["lo"]), int(lim["hi"])
    span = max(hi - lo + 1, 1)

    def with_gk(b: pa.Table) -> pa.Table:
        o = b["o"].to_numpy(zero_copy_only=False)
        bk = ((o - lo).astype(np.uint64) * np.uint64(n_buckets)
              // np.uint64(span)).astype(np.int64)
        gk = pa.compute.binary_join_element_wise(
            b["g"], pa.array(bk.astype("str")), _SEP
        )
        return b.append_column("gk", gk).append_column(
            "bk", pa.array(bk, pa.int64())
        )

    def stats_of_slice(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {c: pa.array([], pa.int64() if c not in ("g",)
                         else pa.string())
             for c in ("g", "bk", "n", "sx", "sxx", "sa", "sb",
                       "sab", "first_v", "last_v")}
        )
        if group.num_rows == 0:
            return empty
        g = group["g"][0].as_py()
        bk = int(group["bk"][0].as_py())
        o = group["o"].to_numpy(zero_copy_only=False)
        t = group["t"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        v = v[np.lexsort((t, o))]
        a, b_ = v[:-1], v[1:]
        return pa.Table.from_pydict(
            {
                "g": pa.array([g], pa.string()),
                "bk": pa.array([bk], pa.int64()),
                "n": pa.array([v.size], pa.int64()),
                "sx": pa.array([int(v.sum())], pa.int64()),
                "sxx": pa.array([int((v * v).sum())], pa.int64()),
                "sa": pa.array([int(a.sum())], pa.int64()),
                "sb": pa.array([int(b_.sum())], pa.int64()),
                "sab": pa.array([int((a * b_).sum())], pa.int64()),
                "first_v": pa.array([int(v[0])], pa.int64()),
                "last_v": pa.array([int(v[-1])], pa.int64()),
            }
        )

    cand = (
        keyed.map_batches(with_gk, batch_format="pyarrow")
        .groupby("gk")
        .map_groups(stats_of_slice, batch_format="pyarrow")
        .to_pandas()
    )
    rows = []
    for g, sub in cand.groupby("g", sort=False):
        sub = sub.sort_values("bk")
        n = int(sub["n"].sum())
        sx = int(sub["sx"].sum())
        sxx = int(sub["sxx"].sum())
        sa, sb, sab = (int(sub["sa"].sum()), int(sub["sb"].sum()),
                       int(sub["sab"].sum()))
        lasts = sub["last_v"].tolist()
        firsts = sub["first_v"].tolist()
        for prev_last, nxt_first in zip(lasts[:-1], firsts[1:]):
            sa += int(prev_last)
            sb += int(nxt_first)
            sab += int(prev_last) * int(nxt_first)
        rows.append(
            {
                "group": g, "n": n, "s_x": sx, "s_xx": sxx,
                "m": n - 1, "s_a": sa, "s_b": sb, "s_ab": sab,
                "first_v": int(sub["first_v"].iloc[0]),
                "last_v": int(sub["last_v"].iloc[-1]),
            }
        )
    out = pd.DataFrame(
        rows,
        columns=["group", "n", "s_x", "s_xx", "m", "s_a", "s_b",
                 "s_ab", "first_v", "last_v"],
    )
    return out.sort_values("group").reset_index(drop=True)


def _count_inversions(a: np.ndarray) -> int:
    """Inversions (pairs i<j with a[i] > a[j]) of an int array —
    numpy divide-and-conquer merge count, O(n log n), no python
    per-element loop."""
    n = a.size
    if n < 2:
        return 0
    mid = n // 2
    left, right = np.sort(a[:mid]), np.sort(a[mid:])
    inv = _count_inversions(a[:mid]) + _count_inversions(a[mid:])
    # cross pairs: for each right element r, # left elements > r
    inv += int(
        (mid - np.searchsorted(left, right, side="right")).sum()
    )
    return inv


def kendall_tau(ds, x_col: str, y_col: str, num_buckets: int = 64):
    """Exact distributed Kendall tau-b between two integer columns —
    integer sufficient statistics end-to-end via Knight's O(n log n)
    identity (Knight 1966, "A computer method for calculating
    Kendall's tau with ungrouped data"):

        n0 = n(n-1)/2
        n1 / n2 / n3 = tie pairs within x / y / (x, y) groups
        D  = discordant pairs = inversions of y over the global
             (x asc, y asc) order
        C  = n0 - n1 - n2 + n3 - D
        tau_b = (C - D) / sqrt((n0 - n1)(n0 - n2))

    Physical plan: the x and y VALUE HISTOGRAMS come to the driver
    (bounded-value-domain contract, like pass 0 of
    ``selection.quantiles``) and
    give n, n1, n2, the x range-bucket boundaries (ties never split a
    bucket) and the global y domain; n3 folds distributedly over the
    (x, y) groupby (the 2-D histogram never reaches the driver).
    Inversions: one (x, y) pair exchange into ``num_buckets``
    contiguous x-range buckets; within-bucket counts run the numpy
    merge count, cross-bucket counts combine per-bucket y histograms
    (ONE list<int64> row per bucket — the packed-wide-stats lesson)
    against a running cumulative histogram on the driver. Cross-bucket
    x ties are impossible by construction, so bucket pairs contribute
    pure y-order inversions.

    Returns a dict of exact python ints plus the one float ``tau_b``.
    """

    proj = ds.map_batches(
        lambda b: b.select([x_col, y_col]), batch_format="pyarrow"
    ).materialize()  # feeds 4 scans; never re-derive upstream

    def tie_pairs(hist_df, col):
        c = hist_df["c"].to_numpy().astype(np.int64)
        return int((c * (c - 1) // 2).sum())

    xh = _value_counts(proj, x_col)
    yh = _value_counts(proj, y_col)
    n = int(xh["c"].sum())
    n0 = n * (n - 1) // 2
    n1 = tie_pairs(xh, x_col)
    n2 = tie_pairs(yh, y_col)

    def pair_ties(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"t": c * (c - 1) // 2})

    n3 = int(
        aggregate(
            aggregate(proj, [x_col, y_col], [("c", "count", None)]),
            [],
            [("t", "sum", "t")],
            rows=pair_ties,
        )["t"]
    )

    # contiguous x-range buckets with ~equal row counts; boundary[i]
    # is the FIRST x value of bucket i+1 (ties stay whole)
    xv = xh[x_col].to_numpy()
    xc = xh["c"].to_numpy().astype(np.int64)
    cum = np.cumsum(xc)
    nb = min(num_buckets, xv.size)
    targets = (np.arange(1, nb) * n) // nb
    splits = np.unique(np.searchsorted(cum, targets, side="left") + 1)
    splits = splits[splits < xv.size]
    bounds = xv[splits]  # sorted first-values of buckets 1..k
    y_domain = yh[y_col].to_numpy()

    def annotate(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__b",
            pa.array(
                np.searchsorted(bounds, x, side="right").astype(
                    np.int64
                )
            ),
        )

    def bucket_stats(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "__b": pa.array([], pa.int64()),
                "inv": pa.array([], pa.int64()),
                "yhist": pa.array([], pa.list_(pa.int64())),
            }
        )
        if group.num_rows == 0:
            return empty
        x = group[x_col].to_numpy(zero_copy_only=False)
        y = group[y_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((y, x))
        ycodes = np.searchsorted(y_domain, y)
        inv = _count_inversions(ycodes[order])
        hist = np.bincount(ycodes, minlength=y_domain.size).astype(
            np.int64
        )
        return pa.Table.from_pydict(
            {
                "__b": pa.array(
                    [int(group["__b"][0].as_py())], pa.int64()
                ),
                "inv": pa.array([inv], pa.int64()),
                "yhist": pa.array([hist.tolist()], pa.list_(pa.int64())),
            }
        )

    parts = (
        proj.map_batches(annotate, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(bucket_stats, batch_format="pyarrow")
        .to_pandas()
        .sort_values("__b")
    )
    d_pairs = int(parts["inv"].sum())
    seen = np.zeros(y_domain.size, dtype=np.int64)
    seen_n = 0
    for hist in parts["yhist"]:
        h = np.asarray(hist, dtype=np.int64)
        if seen_n:
            # earlier-bucket ys strictly greater than v, per v
            gt = seen_n - np.cumsum(seen)
            d_pairs += int((h * gt).sum())
        seen += h
        seen_n += int(h.sum())
    c_pairs = n0 - n1 - n2 + n3 - d_pairs

    import math

    tau_b = float(c_pairs - d_pairs) / math.sqrt(
        float(n0 - n1) * float(n0 - n2)
    )
    return {
        "n": n,
        "n_concordant": c_pairs,
        "n_discordant": d_pairs,
        "n_ties_x": n1,
        "n_ties_y": n2,
        "n_ties_xy": n3,
        "tau_b": tau_b,
    }


def chatterjee_xi(ds, x_col: str, y_col: str, tie_col: str,
                  num_buckets: int = 64):
    """Chatterjee's xi dependence coefficient (Chatterjee 2020, "A new
    coefficient of correlation"):

        xi = 1 - 3 * S / (n^2 - 1),
        S  = sum over the (x asc, tie asc) order of |r_{i+1} - r_i|,
        r_i = #{j : y_j <= y_i}

    x-ties are ordered by the deterministic ``tie_col`` (the original
    paper randomizes; a fixed key keeps both engines identical —
    documented convention). Every quantity is an exact int64 until
    the one final division.

    Physical plan: y ranks come from the broadcast y value-histogram
    CDF (bounded-value-domain contract); rows range-partition on x
    (boundaries from the x histogram, x-ties never split, so the
    bucket order IS the global order); each bucket emits its internal
    |dr| sum plus its first/last rank (the cusum boundary-stitching
    idiom) and the driver adds the num_buckets-1 boundary terms.
    """

    proj = ds.map_batches(
        lambda b: b.select([x_col, y_col, tie_col]),
        batch_format="pyarrow",
    ).materialize()

    xh = _value_counts(proj, x_col)
    yh = _value_counts(proj, y_col)
    n = int(xh["c"].sum())
    y_domain = yh[y_col].to_numpy()
    y_cdf = np.cumsum(yh["c"].to_numpy().astype(np.int64))

    xv = xh[x_col].to_numpy()
    xc = xh["c"].to_numpy().astype(np.int64)
    cum = np.cumsum(xc)
    nb = min(num_buckets, xv.size)
    targets = (np.arange(1, nb) * n) // nb
    splits = np.unique(np.searchsorted(cum, targets, side="left") + 1)
    splits = splits[splits < xv.size]
    bounds = xv[splits]

    def annotate(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__b",
            pa.array(
                np.searchsorted(bounds, x, side="right").astype(np.int64)
            ),
        )

    def bucket_stats(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "__b": pa.array([], pa.int64()),
                "s_abs": pa.array([], pa.int64()),
                "first_r": pa.array([], pa.int64()),
                "last_r": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        x = group[x_col].to_numpy(zero_copy_only=False)
        y = group[y_col].to_numpy(zero_copy_only=False)
        t = group[tie_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((t, x))
        r = y_cdf[np.searchsorted(y_domain, y)][order]
        s = int(np.abs(np.diff(r)).sum()) if r.size > 1 else 0
        return pa.Table.from_pydict(
            {
                "__b": pa.array(
                    [int(group["__b"][0].as_py())], pa.int64()
                ),
                "s_abs": pa.array([s], pa.int64()),
                "first_r": pa.array([int(r[0])], pa.int64()),
                "last_r": pa.array([int(r[-1])], pa.int64()),
            }
        )

    parts = (
        proj.map_batches(annotate, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(bucket_stats, batch_format="pyarrow")
        .to_pandas()
        .sort_values("__b")
    )
    s_abs = int(parts["s_abs"].sum())
    last = parts["last_r"].to_numpy()
    first = parts["first_r"].to_numpy()
    if len(parts) > 1:
        s_abs += int(np.abs(first[1:] - last[:-1]).sum())
    xi = 1.0 - 3.0 * s_abs / (n * n - 1)
    return {"n": n, "s_abs": s_abs, "xi": xi}
