"""Text-analysis and event-window stages."""

import pyarrow as pa
import pyarrow.compute as pc

from ..functions import textstats


def quality_batch(batch: pa.Table) -> pa.Table:
    """Per-document integer quality counts (ratios derivable exactly)."""
    counts = [textstats.quality_counts(t) for t in batch["text"].to_pylist()]
    cols = {"doc_id": batch["doc_id"].combine_chunks()}
    for key in (
        "n_chars", "n_tokens", "n_stop", "n_alpha_chars", "n_punct",
        "n_bpe_tokens",
    ):
        cols[key] = pa.array([c[key] for c in counts], pa.int64())
    return pa.Table.from_pydict(cols)


# C4-style quality-filter cascade: first matching rule wins. All
# thresholds are integer-cross-multiplied so a SQL oracle reproduces
# the verdicts exactly (no float ratios).
#   too_short:    n_tokens < 50
#   low_stopword: n_stop * 20 < n_tokens          (stopword ratio < 5%)
#   low_alpha:    n_alpha_chars * 10 < n_chars * 6 (alpha fraction < 60%)
#   gibberish:    n_chars > n_tokens * 12          (mean word len > 12,
#                 the reference's E5 gate shape at a corpus-filter bar)
#   keep:         everything else
def filter_verdict_batch(batch: pa.Table) -> pa.Table:
    """Per-document filter verdict + the counts it was derived from."""
    out = quality_batch(batch)
    verdicts = []
    for n_chars, n_tokens, n_stop, n_alpha in zip(
        out["n_chars"].to_pylist(),
        out["n_tokens"].to_pylist(),
        out["n_stop"].to_pylist(),
        out["n_alpha_chars"].to_pylist(),
    ):
        if n_tokens < 50:
            verdicts.append("too_short")
        elif n_stop * 20 < n_tokens:
            verdicts.append("low_stopword")
        elif n_alpha * 10 < n_chars * 6:
            verdicts.append("low_alpha")
        elif n_chars > n_tokens * 12:
            verdicts.append("gibberish")
        else:
            verdicts.append("keep")
    return out.append_column("verdict", pa.array(verdicts, pa.string()))


def quality_filter(docs_ds, keep_only: bool = True):
    """The corpus-filter op: classify every document, keep survivors
    (or all rows with their verdicts when ``keep_only=False``)."""
    ds = docs_ds.map_batches(filter_verdict_batch, batch_format="pyarrow")
    if not keep_only:
        return ds

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["verdict"], "keep"))

    return ds.map_batches(keep, batch_format="pyarrow")


def langid_batch(batch: pa.Table) -> pa.Table:
    """Marker-word language ID per document."""
    langs = [
        textstats.detect_language(t) for t in batch["text"].to_pylist()
    ]
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"].combine_chunks(),
            "lang_pred": pa.array(langs, pa.string()),
            "lang_label": batch["lang"].combine_chunks(),
        }
    )


def lag_events(ev_ds):
    """Windowed analytic: per user ordered by ts, attach the previous
    event's value (lag). One hash shuffle on user_id; the per-group
    sort+shift is vectorized numpy."""
    import numpy as np

    def with_lag(group: pa.Table) -> pa.Table:
        ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        vals = group["value"].to_numpy(zero_copy_only=False)
        # (ts, value) ordering — deterministic under equal timestamps,
        # mirrored by the oracle's ORDER BY ts, value
        order = np.lexsort((vals, ts))
        prev = np.empty(len(vals), dtype=object)
        prev[order[0]] = None
        sorted_vals = vals[order]
        for i in range(1, len(order)):
            prev[order[i]] = float(sorted_vals[i - 1])
        return pa.Table.from_pydict(
            {
                "user_id": group["user_id"].combine_chunks(),
                "ts": group["ts"].combine_chunks(),
                "value": group["value"].combine_chunks(),
                "prev_value": pa.array(prev.tolist(), pa.float64()),
            }
        )

    return ev_ds.groupby("user_id").map_groups(
        with_lag, batch_format="pyarrow"
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Winnowing rolling-hash fingerprints per document."""
    fps = [
        textstats.winnow_fingerprint(t) for t in batch["text"].to_pylist()
    ]
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"].combine_chunks(),
            "fingerprint": pa.array(
                [[int(h) for h in f] for f in fps], pa.list_(pa.uint64())
            ),
        }
    )


def windowed_events(events_ds):
    """user x 1h-tumbling-window aggregate (count + value cents)
    through ``stages/aggregate.py``. Money in int cents; window starts
    are whole hours, so they carry second resolution."""
    from .aggregate import aggregate

    def rows(batch: pa.Table) -> pa.Table:
        start = pc.floor_temporal(batch["ts"], unit="hour")
        return pa.table(
            {
                "user_id": batch["user_id"],
                "window_start": start.cast(pa.timestamp("s")),
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["value"], 100.0)), pa.int64()
                ),
            }
        )

    return aggregate(
        events_ds,
        ["user_id", "window_start"],
        [("sum_cents", "sum", "cents"), ("n_events", "count", None)],
        rows=rows,
    )


_TS_UNIT_PER_SEC = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}


def sessionize_events(events_ds, gap_minutes: int = 30):
    """Session windows per user: a new session starts after a gap of
    more than ``gap_minutes`` between consecutive events.

    One ``aggregate.exchange`` on ``user_id`` (buckets, not per-user
    groups): each bucket task receives every event of its users and
    sessionizes ALL of them in one vectorized numpy pass
    — lexsort by (user, ts), new-session flags from user-change OR
    diff > gap, cumsum -> global session ids, per-user rebase via
    searchsorted. Per-task work scales with rows, not with the number
    of users; no pandas frames, no Python loop over events."""
    import numpy as np

    from .aggregate import exchange

    def per_bucket(group: pa.Table) -> pa.Table:
        ts_col = group["ts"].combine_chunks()
        ts_type = ts_col.type
        gap = gap_minutes * 60 * _TS_UNIT_PER_SEC[ts_type.unit]
        ts = ts_col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid_s, ts_s = uid[order], ts[order]
        n = len(ts_s)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        np.not_equal(uid_s[1:], uid_s[:-1], out=new_user[1:])
        new = np.empty(n, dtype=bool)
        new[0] = True
        np.greater(np.diff(ts_s), gap, out=new[1:])
        np.logical_or(new, new_user, out=new)
        sess_global = np.cumsum(new)
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n) - 1
        user_starts = np.flatnonzero(new_user)
        # rebase: session_num restarts at 1 per user (oracle contract)
        owner = np.searchsorted(user_starts, starts, side="right") - 1
        session_num = (
            sess_global[starts] - sess_global[user_starts][owner] + 1
        )
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid_s[starts], group["user_id"].type),
                "session_num": pa.array(
                    session_num.astype(np.int64), pa.int64()
                ),
                "session_start": pa.array(ts_s[starts]).cast(ts_type),
                "session_end": pa.array(ts_s[ends]).cast(ts_type),
                "n_events": pa.array(ends - starts + 1, pa.int64()),
            }
        )

    return exchange(events_ds, "user_id", per_bucket)


def distinct_count_hll(ds, column: str, p: int = 12) -> float:
    """Approximate distinct count of ``column`` via mergeable HLL
    sketches: one sketch per batch, merged in a tiny reduce — the
    shuffle-free alternative to ``ds.unique`` at corpus scale."""
    from ..functions.sketches import HyperLogLog

    def partial(batch: pa.Table) -> pa.Table:
        sk = HyperLogLog(p)
        sk.add_values(batch[column].to_pylist())
        return pa.Table.from_pydict(
            {"sketch": pa.array([sk.serialize()], pa.large_binary())}
        )

    merged = HyperLogLog(p)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for blob in b["sketch"].to_pylist():
            merged = merged.merge(HyperLogLog.deserialize(blob))
    return merged.estimate()


def distinct_shingles_kmv(
    ds, text_column: str = "text", k: int = 256, shingle_k: int = 3
):
    """Approximate distinct word-``shingle_k``-gram count via the KMV
    (k-minimum-values) sketch: each batch emits one bounded sorted
    hash array (8k bytes), merged in a tiny driver reduce — the same
    shuffle-free shape as :func:`distinct_count_hll`, but with an
    estimator a SQL oracle replays EXACTLY (the k-th smallest
    ``md5_number_upper`` hash is order-independent, unlike HLL's
    register semantics which need the splitmix reconstruction).
    Returns ``(k, kth_hash, estimate)``."""
    from ..functions.shingles import shingle_hashes
    from ..functions.sketches import KMVSketch

    def partial(batch: pa.Table) -> pa.Table:
        sk = KMVSketch(k)
        for text in batch[text_column].to_pylist():
            sk.add_hashes(shingle_hashes(text or "", shingle_k))
        return pa.Table.from_pydict(
            {"sketch": pa.array([sk.serialize()], pa.large_binary())}
        )

    merged = KMVSketch(k)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for blob in b["sketch"].to_pylist():
            merged = merged.merge(KMVSketch.deserialize(blob))
    return merged.k, merged.kth(), merged.estimate()


def kmv_set_overlap(
    ds,
    side_column: str,
    text_column: str = "text",
    k: int = 256,
    shingle_k: int = 3,
):
    """Theta-sketch-style SET OPERATIONS on KMV sketches: distinct
    shingle counts of two document groups plus union / intersection
    estimates, from one scan. Each batch emits one bounded sketch
    blob PER SIDE (``side_column`` must be 0/1); the driver reduce
    merges per side, then combines: with θ = the union sketch's k-th
    smallest hash, every common hash below θ is guaranteed retained
    in both side sketches (θ <= each side's own k-th), so
    ``m = |{x ∈ A∩B : x < θ}|`` is computable from the bounded state
    and ``est_inter = m * 2^64 / θ`` — the standard theta-sketch
    estimator. All branch points are exact integers, so a SQL oracle
    replays every output bit-for-bit. Returns a dict of scalars."""
    import numpy as np

    from ..functions.shingles import shingle_hashes
    from ..functions.sketches import KMVSketch

    def partial(batch: pa.Table) -> pa.Table:
        sides = batch[side_column].to_numpy(zero_copy_only=False)
        texts = batch[text_column].to_pylist()
        blobs, out_sides = [], []
        for side in (0, 1):
            sk = KMVSketch(k)
            for i in np.flatnonzero(sides == side):
                sk.add_hashes(shingle_hashes(texts[i] or "", shingle_k))
            blobs.append(sk.serialize())
            out_sides.append(side)
        return pa.Table.from_pydict(
            {
                "side": pa.array(out_sides, pa.int64()),
                "sketch": pa.array(blobs, pa.large_binary()),
            }
        )

    merged = {0: KMVSketch(k), 1: KMVSketch(k)}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for side, blob in zip(
            b["side"].to_pylist(), b["sketch"].to_pylist()
        ):
            merged[side] = merged[side].merge(
                KMVSketch.deserialize(blob)
            )
    a, bsk = merged[0], merged[1]
    union = a.merge(bsk)
    common = np.intersect1d(a.values, bsk.values)
    if union.values.size < k:
        # everything fit: all answers exact
        est_inter = float(common.size)
    else:
        theta = np.uint64(union.kth())
        m = int((common < theta).sum())
        est_inter = float(m) * 18446744073709551616.0 / float(
            union.kth()
        )
    return {
        "k": k,
        "theta": union.kth(),
        "est_a": a.estimate(),
        "est_b": bsk.estimate(),
        "est_union": union.estimate(),
        "est_intersection": est_inter,
    }


def quantiles_sketch(ds, column: str, qs=(0.5, 0.9, 0.99)) -> dict:
    """Approximate quantiles of a positive numeric column via a
    mergeable log-scale histogram (one per batch, merged tiny)."""
    from ..functions.sketches import QuantileHistogram

    def partial(batch: pa.Table) -> pa.Table:
        h = QuantileHistogram()
        h.add(batch[column].to_numpy(zero_copy_only=False))
        return pa.Table.from_pydict(
            {"sketch": pa.array([h.serialize()], pa.large_binary())}
        )

    merged = QuantileHistogram()
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for blob in b["sketch"].to_pylist():
            merged = merged.merge(QuantileHistogram.deserialize(blob))
    return {q: merged.quantile(q) for q in qs}


def heavy_hitter_tokens(
    docs_ds, k: int = 20, candidates_per_batch: int = 64,
    width: int = 1 << 14, depth: int = 4,
):
    """Approximate corpus heavy hitters WITHOUT a token groupby
    shuffle: each batch emits one Count-Min sketch + its local top
    candidate tokens; the driver merges sketches (fixed 512 KiB state)
    and scores the candidate union. Count-Min only overcounts (error
    ~2N/width w.h.p.). Recall is a HEURISTIC, not a guarantee: a token
    spread so evenly that it ranks below ``candidates_per_batch`` in
    every batch is never scored, even if it is a global heavy hitter —
    recall depends on skew relative to ``candidates_per_batch`` (raise
    it, or lower batch size, for flatter distributions; the pytest pin
    covers this corpus's skew, not all corpora). Returns a pandas
    DataFrame (token, est_count), est desc / token asc."""
    from collections import Counter

    import numpy as np
    import pandas as pd

    from ..functions.shingles import stable_hash64
    from ..functions.sketches import CountMinSketch

    def partial(batch: pa.Table) -> pa.Table:
        counts = Counter()
        for t in batch["text"].to_pylist():
            counts.update(t.split())
        cms = CountMinSketch(width=width, depth=depth)
        toks = list(counts.keys())
        hs = np.array([stable_hash64(t) for t in toks], dtype=np.uint64)
        cms.add_hashes(
            hs, np.array([counts[t] for t in toks], dtype=np.int64)
        )
        cands = [t for t, _ in counts.most_common(candidates_per_batch)]
        return pa.Table.from_pydict(
            {
                "cms": pa.array([cms.serialize()], pa.large_binary()),
                "candidates": pa.array([cands], pa.list_(pa.string())),
            }
        )

    merged = None
    candidates = set()
    for b in (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        for blob, cands in zip(
            b["cms"].to_pylist(), b["candidates"].to_pylist()
        ):
            cms = CountMinSketch.deserialize(blob, width=width, depth=depth)
            merged = cms if merged is None else merged.merge(cms)
            candidates.update(cands)

    if merged is None or not candidates:
        return pd.DataFrame({"token": [], "est_count": []})
    toks = sorted(candidates)
    hs = np.array([stable_hash64(t) for t in toks], dtype=np.uint64)
    ests = merged.estimate_hashes(hs)
    df = pd.DataFrame({"token": toks, "est_count": ests})
    return (
        df.sort_values(["est_count", "token"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def lead_events(ev_ds):
    """LEAD — the forward twin of :func:`lag_events`: per user ordered
    by (ts, value), attach the NEXT event's value. Same one-shuffle
    plan; the shift is fully vectorized (sorted shift + scatter)."""
    import numpy as np

    def with_lead(group: pa.Table) -> pa.Table:
        ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        vals = group["value"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, ts))
        nxt_sorted = np.concatenate((vals[order][1:], [np.nan]))
        nxt = np.empty(len(vals), dtype=np.float64)
        nxt[order] = nxt_sorted
        return pa.Table.from_pydict(
            {
                "user_id": group["user_id"].combine_chunks(),
                "ts": group["ts"].combine_chunks(),
                "value": group["value"].combine_chunks(),
                "next_value": pa.array(
                    [None if np.isnan(v) else float(v) for v in nxt],
                    pa.float64(),
                ),
            }
        )

    return ev_ds.groupby("user_id").map_groups(
        with_lead, batch_format="pyarrow"
    )


def grouped_distinct_shingles_kmv(
    ds, group_col: str, text_column: str = "text", k: int = 256,
    shingle_k: int = 3,
):
    """Per-group KMV distinct-shingle estimates — the grouped twin of
    :func:`distinct_shingles_kmv`: each batch emits one bounded
    (group, sorted-hash-prefix) row per group it contains (8k bytes
    per group), merged in a tiny driver reduce keyed by group. The
    group cardinality must be small (languages, sources — the same
    bound as any broadcast-stats pattern); the row stream never
    shuffles. Returns ``{group: (k, kth_hash, estimate)}`` with the
    same exactly-SQL-replayable estimator as the ungrouped version
    (k-th smallest distinct md5-derived hash)."""
    import numpy as np

    from ..functions.shingles import shingle_hashes
    from ..functions.sketches import KMVSketch

    def partial(batch: pa.Table) -> pa.Table:
        groups: dict = {}
        gvals = batch[group_col].to_pylist()
        texts = batch[text_column].to_pylist()
        for g, text in zip(gvals, texts):
            sk = groups.get(g)
            if sk is None:
                sk = groups[g] = KMVSketch(k)
            sk.add_hashes(shingle_hashes(text or "", shingle_k))
        return pa.Table.from_pydict(
            {
                "g": pa.array(list(groups), pa.string()),
                "hashes": pa.array(
                    [sk.values.tobytes() for sk in groups.values()],
                    pa.large_binary(),
                ),
            }
        )

    merged: dict = {}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for g, blob in zip(b["g"].to_pylist(), b["hashes"].to_pylist()):
            arr = np.frombuffer(blob, dtype=np.uint64)
            prev = merged.get(g)
            merged[g] = (
                arr
                if prev is None
                else np.unique(np.concatenate([prev, arr]))[:k]
            )
    out = {}
    for g, arr in merged.items():
        arr = np.unique(arr)[:k]
        if arr.size >= k:
            kth = int(arr[k - 1])
            est = (k - 1) * 18446744073709551616.0 / float(kth)
        else:
            kth = int(arr[-1]) if arr.size else 0
            est = float(arr.size)
        out[g] = (k, kth, est)
    return out
