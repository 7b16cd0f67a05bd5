"""Window functions on one sorted scan.

Ray Data has no window functions. :func:`over` computes the SQL
``... OVER (PARTITION BY part ORDER BY order)`` family with the
textbook plan (Leis et al., "Efficient Processing of Window Functions
in Analytical SQL Queries", VLDB 2015): sort once on (part, order),
then run a segmented scan over the sorted runs.

1. ONE ``ds.sort(part + order)``, materialized: its blocks are
   globally ordered.
2. One summary task per block (:func:`_summary`) reports the block's
   partition runs (key, rows, int64 sums, distinct peer groups), its
   first/last key and lag values and its head/tail peer-group sizes.
3. The driver folds the O(blocks) summaries (:func:`_carries`) into
   one carry per block: what the block inherits from the blocks before
   it (rows, sums, distinct peers, the peer group and lag value that
   cross its head), the peers that continue past its tail, and the
   totals of the partitions it holds.
4. One annotate task per block (:func:`_annotate`) adds the window
   columns to its rows.

No row leaves its block after the sort, and the driver holds
O(blocks + partition appearances) state, never rows. It is one
repartition per operator, as *Hyper Dimension Shuffle* (VLDB 2019)
asks. Every ordered operator of the engine runs on it: row_number and
NTILE (``doc_rank``, ``lang_ntile``, ``events_lorenz``,
``doc_score_*``), rank / dense_rank / percent_rank / cume_dist
(:func:`grouped_rank_dense`'s exchange branch, ``event_value_rank``),
the ordered running token sum of :func:`shard_assign` and of
``mixing``'s distributed budget, CUSUM (:func:`cusum_changepoint`),
lag-1 statistics (:func:`lag1_stats`), Kendall's tau
(:func:`kendall_tau`) and Chatterjee's xi (:func:`chatterjee_xi`).
"""

import math
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .aggregate import aggregate
from .mixing import doc_hash_keys

_NULL = "__null"
_NULL_KEYS = (
    "window: null partition/order keys are not supported (SQL NULL "
    "ordering is dialect-dependent; filter or fill them first)"
)


def _flag_nulls(t: pa.Table, keys: List[str]) -> pa.Table:
    """Fill null keys with a typed zero and flag their rows in
    ``__null``: Ray's sort cannot compare a null string key, so the
    summary, not the sort, is where a null key is reported."""
    bad = np.zeros(t.num_rows, dtype=bool)
    for c in keys:
        if t[c].null_count:
            bad |= t[c].is_null().to_numpy(zero_copy_only=False)
            zero = pa.array([0]).cast(t[c].type)[0]
            t = t.set_column(
                t.schema.get_field_index(c), c, pc.fill_null(t[c], zero)
            )
    return t.append_column(_NULL, pa.array(bad))


def _starts(t: pa.Table, cols: Sequence[str]) -> np.ndarray:
    """True on row 0 and where a row's ``cols`` differ from the row
    before: the run starts of a sorted block."""
    new = np.zeros(t.num_rows, dtype=bool)
    if t.num_rows:
        new[0] = True
        for c in cols:
            col = t[c]
            new[1:] |= pc.not_equal(col[1:], col[:-1]).to_numpy(
                zero_copy_only=False
            )
    return new


def _row(t: pa.Table, cols: Sequence[str], i: int) -> tuple:
    return tuple(t[c][i].as_py() for c in cols)


def _int64(t: pa.Table, c: str) -> np.ndarray:
    return pc.cast(t[c], pa.int64()).to_numpy(zero_copy_only=False)


@ray.remote
def _summary(t: pa.Table, part, order, sums, lag):
    """One sorted block -> its partition runs and its edges; None for
    a block without rows, ``"null"`` for one with a null key."""
    n = t.num_rows
    if n == 0:
        return None
    if pc.any(t[_NULL]).as_py():
        return "null"
    pstart = _starts(t, part)
    gs = np.flatnonzero(pstart | _starts(t, order))
    ps = np.flatnonzero(pstart)
    pe = np.append(ps[1:], n)
    cs = [np.concatenate(([0], np.cumsum(_int64(t, c)))) for c in sums]
    runs = [
        (
            _row(t, part, s),
            int(e - s),
            [int(c[e] - c[s]) for c in cs],
            int(np.searchsorted(gs, e) - np.searchsorted(gs, s)),
        )
        for s, e in zip(ps, pe)
    ]
    return {
        "runs": runs,
        "head": _row(t, part + order, 0),
        "tail": _row(t, part + order, n - 1),
        "head_size": int(gs[1] if len(gs) > 1 else n),
        "tail_size": int(n - gs[-1]),
        "groups": len(gs),
        "last": _row(t, lag, n - 1),
    }


def _carries(summaries: list) -> list:
    """Fold the block summaries into one carry per block (None for a
    block without rows): a forward pass for what each block inherits,
    a reverse pass for the peers that continue past its tail."""
    carries: List[Optional[dict]] = [None] * len(summaries)
    totals: Dict[tuple, tuple] = {}
    key = tail = last = None
    rows = dist = tail_ties = 0
    sums: List[int] = []
    for i, s in enumerate(summaries):
        if s is None:
            continue
        first = s["runs"][0][0]
        cont = tail is not None and key == first
        span = cont and tail == s["head"]
        carries[i] = {
            "rows": rows if cont else 0,
            "sums": sums if cont else [0] * len(s["runs"][0][2]),
            "dist": dist - span if cont else 0,
            "ties": tail_ties if span else 0,
            "lag": last if cont else None,
        }
        for k, r, sm, d in s["runs"]:
            if k == key:
                rows, dist = rows + r, dist + d - span
                sums = [a + b for a, b in zip(sums, sm)]
            else:
                key, rows, sums, dist = k, r, sm, d
            n_, s_ = totals.get(k, (0, [0] * len(sm)))
            totals[k] = (n_ + r, [a + b for a, b in zip(s_, sm)])
        single = s["groups"] == 1
        tail_ties = s["tail_size"] + (tail_ties if single and span else 0)
        tail, last = s["tail"], s["last"]

    after, a_cum = None, 0
    for i in range(len(summaries) - 1, -1, -1):
        s, c = summaries[i], carries[i]
        if c is None:
            continue
        ext = a_cum if after == s["tail"] else 0
        single = s["groups"] == 1
        c["head_peers"] = c["ties"] + s["head_size"] + (ext if single else 0)
        c["tail_peers"] = (c["ties"] if single else 0) + s["tail_size"] + ext
        c["totals"] = {k: totals[k] for k, _, _, _ in s["runs"]}
        after, a_cum = s["head"], s["head_size"] + (ext if single else 0)
    return carries


@ray.remote
def _annotate(t: pa.Table, part, order, sums, lag, ties, carry):
    """One sorted block and its carry -> its rows with the window
    columns of :func:`over`."""
    n = t.num_rows
    t = t.drop_columns([_NULL])
    pstart = _starts(t, part)
    ps = np.flatnonzero(pstart)
    run = np.cumsum(pstart) - 1
    head = run == 0  # the run that continues from earlier blocks
    idx = np.arange(n, dtype=np.int64)
    tot = [carry["totals"][_row(t, part, s)] for s in ps]
    rn = idx - ps[run] + 1 + np.where(head, carry["rows"], 0)
    cnt = np.array([x[0] for x in tot], dtype=np.int64)[run]
    t = t.append_column("rn", pa.array(rn, pa.int64()))
    t = t.append_column("n", pa.array(cnt, pa.int64()))
    for j, c in enumerate(sums):
        v = _int64(t, c)
        cs = np.cumsum(v)
        cum = cs - (cs - v)[ps][run] + np.where(head, carry["sums"][j], 0)
        total = np.array([x[1][j] for x in tot], dtype=np.int64)[run]
        t = t.append_column(f"cum_{c}", pa.array(cum, pa.int64()))
        t = t.append_column(f"sum_{c}", pa.array(total, pa.int64()))
    for j, c in enumerate(lag):
        col = t[c].combine_chunks()
        prev = None if carry["lag"] is None else carry["lag"][j]
        src = pa.concat_arrays([pa.array([prev], col.type), col])
        first = pstart.copy()
        first[0] = carry["lag"] is None
        t = t.append_column(
            f"lag_{c}", pc.take(src, pa.array(idx, mask=first))
        )
    if ties:
        gs = np.flatnonzero(pstart | _starts(t, order))
        size = np.diff(np.append(gs, n))
        g_run = run[gs]
        g_head = g_run == 0
        rank = gs - ps[g_run] + 1 + np.where(g_head, carry["rows"], 0)
        rank[0] -= carry["ties"]
        dense = (
            np.arange(len(gs)) - np.searchsorted(gs, ps)[g_run] + 1
            + np.where(g_head, carry["dist"], 0)
        )
        peers = size.copy()
        peers[0] = carry["head_peers"]
        peers[-1] = carry["tail_peers"]
        for name, g in (("rnk", rank), ("drnk", dense), ("peers", peers)):
            t = t.append_column(
                name, pa.array(np.repeat(g, size), pa.int64())
            )
    return t


def over(
    ds,
    part: Sequence[str],
    order: Sequence[str],
    descending: Union[bool, Sequence[bool]] = False,
    sums: Sequence[str] = (),
    lag: Sequence[str] = (),
    ties: bool = False,
):
    """``... OVER (PARTITION BY part ORDER BY order)`` on one sort.

    ``descending`` is one flag for every ``order`` column or one per
    column; partitions are always ascending. Returns the input columns
    plus, per row:

    * ``rn`` — row_number within the partition, 1-based. Rows that tie
      on every ``order`` column come in no fixed order, so a caller
      that needs a deterministic ``rn`` ends ``order`` with a unique id;
    * ``n`` — the partition's rows;
    * ``cum_<c>`` / ``sum_<c>`` — the running (inclusive) and total
      int64 sum of each column ``c`` of ``sums``;
    * ``lag_<c>`` — the previous row's ``c`` for each column of
      ``lag``, null on a partition's first row;
    * with ``ties=True``: ``rnk`` and ``drnk`` (rank and dense_rank)
      and ``peers``, the size of the row's peer group (the rows equal
      on every ``order`` column), which ``cume_dist`` needs.

    A null ``part`` or ``order`` key raises ``ValueError``. An input
    without rows gives a Dataset without rows or columns."""
    import ray.data as rd

    part, order, sums, lag = list(part), list(order), list(sums), list(lag)
    if isinstance(descending, bool):
        descending = [descending] * len(order)
    keys = part + order
    sorted_ds = (
        ds.map_batches(_flag_nulls, fn_args=(keys,), batch_format="pyarrow")
        .sort(keys, descending=[False] * len(part) + list(descending))
        .materialize()
    )
    out = _scan(sorted_ds.to_arrow_refs(), part, order, sums, lag, ties)
    return rd.from_arrow_refs(out) if out else rd.from_arrow(pa.table({}))


def _scan(refs: list, part, order, sums, lag, ties) -> list:
    """The segmented scan of :func:`over` over the refs of blocks in
    (part, order) order, each with its ``__null`` flags: one summary
    task per block, the driver's fold, one annotate task per block with
    rows. Ray's sort keeps equal keys in one block, so only blocks cut
    some other way carry a peer group across a boundary."""
    summaries = ray.get(
        [_summary.remote(r, part, order, sums, lag) for r in refs]
    )
    if "null" in summaries:
        raise ValueError(_NULL_KEYS)
    return [
        _annotate.remote(r, part, order, sums, lag, ties, c)
        for r, c in zip(refs, _carries(summaries))
        if c is not None
    ]


def ntile_of_rank(rnk, n, tiles: int) -> np.ndarray:
    """SQL NTILE semantics from 1-based ranks and partition sizes (one
    ``n`` or one per row): the first ``n % tiles`` tiles hold
    ``n // tiles + 1`` rows, the rest ``n // tiles``."""
    r = np.asarray(rnk, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    big = n // tiles + 1
    cut = (n % tiles) * big  # rows covered by the big tiles
    t_big = (r - 1) // np.maximum(big, 1) + 1
    t_small = (n % tiles) + (r - cut - 1) // np.maximum(n // tiles, 1) + 1
    return np.where(r <= cut, t_big, t_small).astype(np.int64)


def rank_columns(t: pa.Table, with_pct: bool) -> pa.Table:
    """``over(ties=True)`` rows -> the input columns plus ``rnk`` and
    ``drnk``; ``with_pct`` adds ``pct_rank`` (= (rnk-1)/(n-1), 0.0 in a
    one-row partition) and ``cume_dist`` (= rows ordered at or before
    the row / n)."""
    out = t.drop_columns(["rn", "n", "peers"])
    if not with_pct:
        return out
    rnk = t["rnk"].to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    peers = t["peers"].to_numpy(zero_copy_only=False)
    pct = np.where(n > 1, (rnk - 1) / np.maximum(n - 1, 1), 0.0)
    cume = (rnk + peers - 1) / n
    return out.append_column(
        "pct_rank", pa.array(pct, pa.float64())
    ).append_column("cume_dist", pa.array(cume, pa.float64()))


def shard_assign(docs_ds, shard_tokens: int, group_col: str = "lang"):
    """Deterministic fixed-token-budget shard ids per group: documents
    are laid out in ``(md5(doc_id) prefix, doc_id)`` order (the
    SQL-reconstructable ``stages.mixing`` convention) and cut every
    ``shard_tokens`` tokens; a document belongs to the shard its FIRST
    token lands in (``(cum - n_tokens) // shard_tokens``, the exclusive
    prefix) — the "which output shard does this document belong to"
    mapping a resumable 100 TB write needs.

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
                "h": pa.array(
                    doc_hash_keys(batch["doc_id"].to_pylist()), pa.uint64()
                ),
            }
        )

    tok = docs_ds.map_batches(tokens, batch_format="pyarrow")
    cum = over(tok, [group_col], ["h", "doc_id"], sums=["n_tokens"])

    def to_shard(batch: pa.Table) -> pa.Table:
        c = batch["cum_n_tokens"].to_numpy(zero_copy_only=False)
        v = batch["n_tokens"].to_numpy(zero_copy_only=False)
        return batch.select(["doc_id", group_col, "n_tokens"]).append_column(
            "shard_id", pa.array((c - v) // shard_tokens, pa.int64())
        )

    out = cum.map_batches(to_shard, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def grouped_rank_dense(ds, part_col: str, key_col: str,
                       descending: bool = True, with_pct: bool = False):
    """Exact ``rank()`` and ``dense_rank()`` ``OVER (PARTITION BY part
    ORDER BY key [DESC])``.

    Both ranks are pure functions of the (part, key) VALUE: rank(v) =
    1 + count of rows in the partition with a strictly better key,
    dense_rank(v) = 1 + count of DISTINCT better keys. So the whole
    window collapses to the pre-aggregated (part, key) value histogram
    (driver state bounded by distinct (part, key) pairs, never row
    count) plus ONE stateless map_batches that probes per-part sorted
    value arrays with ``np.searchsorted`` — no exchange at all.

    Returns the input columns + ``rnk`` + ``drnk`` (both int64,
    1-based). ``with_pct=True`` adds ``pct_rank`` (= (rnk-1)/(n-1),
    0.0 for single-row partitions) and ``cume_dist`` (= rows ordered
    at-or-before v / n) — also pure value-functions of the same
    histogram.

    "Bounded by distinct (part, key) pairs" degenerates to row count
    when the key is near-unique (continuous scores, raw ids). So the
    histogram Dataset is pinned once and ``plan.broadcast`` decides on
    its observed rows and bytes; the exchange answer is
    :func:`over` with ``ties=True``. Both plans are pinned equal in
    pytest."""
    from . import plan
    from .iterate import pin_loop_state

    hist_ds = pin_loop_state(
        aggregate(ds, [part_col, key_col], [("n", "count", None)]),
        num_blocks=None,
    )
    if not plan.broadcast(
        "grouped_rank_dense", hist_ds.count(), hist_ds.size_bytes()
    ):
        return over(
            ds, [part_col], [key_col], descending=descending, ties=True
        ).map_batches(
            rank_columns, fn_args=(with_pct,), batch_format="pyarrow"
        )
    hist = hist_ds.to_pandas()
    if hist[key_col].isna().any() or hist[part_col].isna().any():
        raise ValueError(_NULL_KEYS)
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


def _keyed(group_col, order_col, tiebreak_col, val_col):
    """Batch -> the (g, o, t, v) projection of the per-group sequence
    operators: string group, int64 order key, tie-break and value."""

    def to_keyed(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "g": pc.cast(b[group_col], pa.string()),
                "o": pc.cast(b[order_col], pa.int64()),
                "t": pc.cast(b[tiebreak_col], pa.int64()),
                "v": pc.cast(b[val_col], pa.int64()),
            }
        )

    return to_keyed


def cusum_changepoint(ds, group_col: str, order_col: str,
                      tiebreak_col: str, val_col: str):
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
    mean_before/mean_after with two float divisions. A group of one
    row has no split and no row.

    Plan: :func:`over` with ``sums=["v"]`` gives every row its k
    (``rn``), P_k, n and S; each row's statistic is one vectorized
    expression and ``topk.topk_per_group(k=1)`` keeps each group's
    argmax."""
    import pandas as pd

    from .topk import topk_per_group

    scan = over(
        ds.map_batches(
            _keyed(group_col, order_col, tiebreak_col, val_col),
            batch_format="pyarrow",
        ),
        ["g"], ["o", "t"], sums=["v"],
    )

    def stat(b: pa.Table) -> pa.Table:
        k = b["rn"].to_numpy(zero_copy_only=False)
        n = b["n"].to_numpy(zero_copy_only=False)
        p = b["cum_v"].to_numpy(zero_copy_only=False)
        s = b["sum_v"].to_numpy(zero_copy_only=False)
        assert (np.abs(s) <= (2**63 - 1) // n).all(), (
            "cusum_changepoint int64 contract violated: n*|S| overflows"
        )
        m = k < n
        return pa.table(
            {
                "group": b["g"].filter(pa.array(m)),
                "n": n[m], "total_s": s[m], "k_star": k[m],
                "cusum_stat": np.abs(n * p - k * s)[m], "split_p": p[m],
            }
        )

    best = topk_per_group(
        scan.map_batches(stat, batch_format="pyarrow"), "group", 1,
        [("cusum_stat", "descending"), ("k_star", "ascending")],
    ).to_pandas()
    cols = ["group", "n", "total_s", "k_star", "cusum_stat", "split_p"]
    out = best[cols] if len(best) else pd.DataFrame(columns=cols)
    return out.sort_values("group").reset_index(drop=True)


def lag1_stats(ds, group_col: str, order_col: str, tiebreak_col: str,
               val_col: str):
    """Exact lag-1 (adjacent-pair) sufficient statistics per group
    over the ``(order_col, tiebreak_col)``-ordered value sequence:
    for the m = n-1 consecutive pairs (x_{k-1}, x_k), the int64 sums
    Sa = sum x_{k-1}, Sb = sum x_k, Sab = sum x_{k-1}*x_k, plus n,
    Sx, Sxx and the first/last value — everything a lag-1
    autocorrelation (or AR(1) fit) needs, all exact so downstream
    float math is a handful of driver-side ops a SQL ``lag()`` oracle
    replays bit-for-bit.

    Plan: :func:`over` with ``lag=["v"]`` pairs every row with its
    predecessor, then ONE grouped ``aggregate`` sums the pairs.
    Returns a pandas DataFrame (group, n, s_x, s_xx, m, s_a, s_b,
    s_ab, first_v, last_v)."""

    def pairs(b: pa.Table) -> pa.Table:
        v = b["v"].to_numpy(zero_copy_only=False)
        has = b["lag_v"].is_valid().to_numpy(zero_copy_only=False)
        a = pc.fill_null(b["lag_v"], 0).to_numpy(zero_copy_only=False)
        rn = b["rn"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "group": b["g"], "v": v, "vv": v * v, "a": a,
                "b": np.where(has, v, 0), "ab": a * v,
                "first": pa.array(v, mask=rn != 1),
                "last": pa.array(v, mask=rn != b["n"].to_numpy()),
            }
        )

    scan = over(
        ds.map_batches(
            _keyed(group_col, order_col, tiebreak_col, val_col),
            batch_format="pyarrow",
        ),
        ["g"], ["o", "t"], lag=["v"],
    )
    out = aggregate(
        scan,
        "group",
        [("n", "count", None), ("s_x", "sum", "v"), ("s_xx", "sum", "vv"),
         ("s_a", "sum", "a"), ("s_b", "sum", "b"), ("s_ab", "sum", "ab"),
         ("first_v", "max", "first"), ("last_v", "max", "last")],
        rows=pairs,
    ).to_pandas()
    out.insert(4, "m", out["n"] - 1)
    return out.sort_values("group").reset_index(drop=True)


def _value_counts(ds, col: str):
    """(col, c) row counts per value of ``col`` as a pandas frame,
    sorted by value."""
    return (
        aggregate(ds, col, [("c", "count", None)])
        .to_pandas()
        .sort_values(col)
    )


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


def kendall_tau(ds, x_col: str, y_col: str):
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

    Plan: the y VALUE HISTOGRAM comes to the driver (bounded-value-
    domain contract, like pass 0 of ``selection.quantiles``) and gives
    n, n2 and the y domain. :func:`over` partitioned by x and ordered
    by y is the one sort on (x, y): its ``n`` is each row's x-tie
    group and its ``peers`` its (x, y)-tie group, so n1 and n3 are
    row sums. Each sorted block counts the inversions of its own y
    sequence (numpy merge count) and returns its y histogram (ONE
    list<int64> row per block); the driver adds the cross-block
    inversions against a running cumulative histogram, blocks in
    (x, rn) order. In (x, y) order two rows of one x never invert, so
    every cross-block inversion has x_i < x_j and is a pure y-order
    inversion.

    Returns a dict of exact python ints plus the one float ``tau_b``.
    """
    proj = ds.map_batches(
        lambda b: b.select([x_col, y_col]), batch_format="pyarrow"
    ).materialize()  # feeds 2 scans; never re-derive upstream
    yh = _value_counts(proj, y_col)
    y_domain = yh[y_col].to_numpy()
    c = yh["c"].to_numpy().astype(np.int64)
    n = int(c.sum())
    n0 = n * (n - 1) // 2
    n2 = int((c * (c - 1) // 2).sum())

    def block_stats(b: pa.Table) -> pa.Table:
        ycodes = np.searchsorted(
            y_domain, b[y_col].to_numpy(zero_copy_only=False)
        )
        x_ties = b["n"].to_numpy(zero_copy_only=False) - 1
        xy_ties = b["peers"].to_numpy(zero_copy_only=False) - 1
        return pa.table(
            {
                "x0": b[x_col][:1],
                "rn0": b["rn"][:1],
                "inv": [_count_inversions(ycodes)],
                "x_ties": [int(x_ties.sum())],
                "xy_ties": [int(xy_ties.sum())],
                "yhist": pa.array(
                    [np.bincount(ycodes, minlength=y_domain.size).tolist()],
                    pa.list_(pa.int64()),
                ),
            }
        )

    blocks = (
        over(proj, [x_col], [y_col], ties=True)
        .map_batches(block_stats, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values(["x0", "rn0"])
    )
    n1 = int(blocks["x_ties"].sum()) // 2
    n3 = int(blocks["xy_ties"].sum()) // 2
    d_pairs = int(blocks["inv"].sum())
    seen = np.zeros(y_domain.size, dtype=np.int64)
    for hist in blocks["yhist"]:
        h = np.asarray(hist, dtype=np.int64)
        # earlier-block ys strictly greater than v, per v
        d_pairs += int((h * (seen.sum() - np.cumsum(seen))).sum())
        seen += h
    c_pairs = n0 - n1 - n2 + n3 - d_pairs

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


def chatterjee_xi(ds, x_col: str, y_col: str, tie_col: str):
    """Chatterjee's xi dependence coefficient (Chatterjee 2020, "A new
    coefficient of correlation"):

        xi = 1 - 3 * S / (n^2 - 1),
        S  = sum over the (x asc, tie asc) order of |r_{i+1} - r_i|,
        r_i = #{j : y_j <= y_i}

    x-ties are ordered by the deterministic ``tie_col`` (the original
    paper randomizes; a fixed key keeps both engines identical —
    documented convention). Every quantity is an exact int64 until
    the one final division.

    Plan: y ranks come from the broadcast y value-histogram CDF
    (bounded-value-domain contract); :func:`over` ordered by
    (x, tie) with ``lag=["r"]`` pairs every rank with its predecessor
    and one keyless sum adds |r - lag_r|.
    """
    proj = ds.map_batches(
        lambda b: b.select([x_col, y_col, tie_col]),
        batch_format="pyarrow",
    ).materialize()
    yh = _value_counts(proj, y_col)
    n = int(yh["c"].sum())
    y_domain = yh[y_col].to_numpy()
    y_cdf = np.cumsum(yh["c"].to_numpy().astype(np.int64))

    def ranks(b: pa.Table) -> pa.Table:
        y = b[y_col].to_numpy(zero_copy_only=False)
        return b.append_column(
            "r", pa.array(y_cdf[np.searchsorted(y_domain, y)], pa.int64())
        )

    def steps(b: pa.Table) -> pa.Table:
        d = pc.abs(pc.subtract(b["r"], b["lag_r"]))
        return pa.table({"d": pc.fill_null(d, 0)})

    scan = over(
        proj.map_batches(ranks, batch_format="pyarrow"),
        [], [x_col, tie_col], lag=["r"],
    )
    s_abs = int(aggregate(scan, [], [("s", "sum", "d")], rows=steps)["s"])
    xi = 1.0 - 3.0 * s_abs / (n * n - 1)
    return {"n": n, "s_abs": s_abs, "xi": xi}
