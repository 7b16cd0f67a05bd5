"""Interval (range) join: match left rows whose timestamp falls inside
a right-side ``[start, end)`` window with the same key.

The second event-enrichment operator plain equi-joins can't express
(the as-of join, ``stages/asof.py``, is the first): incident
enrichment, promo attribution, session attachment are all "point in
interval per key" joins. The oracle is the ANSI range-predicate join
DuckDB runs directly.

Physical plan — the granule trick: time is cut into fixed granules of
``granule_us``; each LEFT row is emitted once, keyed by its own
granule; each RIGHT interval is replicated to every granule it
overlaps. A matching (point, interval) pair then meets in EXACTLY one
bucket — the point's granule — so no post-join dedup pass is needed.
The exchange rides the engine's partitioned Arrow hash join with the
composite key ``(key, __granule)``: bucketing XORs the two column
hashes (collisions only co-locate; the Acero join matches the real
columns), and the range predicate is a vectorized filter after the
per-bucket join.

Partitioning assumptions (documented per the custom-operator rule):

* interval length / granule is small — the replication factor is
  ``len/granule + 1``, so pick ``granule_us`` on the order of the
  typical interval length;
* one (key, granule)'s rows fit one join bucket — skew is bounded by
  per-key activity per granule, not by key cardinality.
"""

import numpy as np
import pyarrow as pa


def interval_join(
    left_ds,
    right_ds,
    key: str,
    ts: str,
    start: str,
    end: str,
    granule_us: int,
):
    """Inner-join left rows to right intervals: same ``key`` and
    ``start <= ts < end``. Returns all left columns plus the right
    side's non-key columns (names must be disjoint; ``start``/``end``
    are carried through). Timestamps compare as int64 microseconds.
    """
    from .relational import partitioned_hash_join

    def ts_us(col) -> np.ndarray:
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)

    def tag_left(batch: pa.Table) -> pa.Table:
        g = ts_us(batch[ts]) // granule_us
        return batch.append_column("__granule", pa.array(g, pa.int64()))

    def tag_right(batch: pa.Table) -> pa.Table:
        s = ts_us(batch[start])
        e = ts_us(batch[end])
        g0 = s // granule_us
        # end is exclusive: a window ending exactly on a granule
        # boundary does not reach into that granule
        g1 = np.maximum(g0, (e - 1) // granule_us)
        counts = (g1 - g0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(batch.num_rows), counts)
        offs = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        rep = batch.take(pa.array(idx))
        return rep.append_column(
            "__granule", pa.array(g0[idx] + offs, pa.int64())
        )

    joined = partitioned_hash_join(
        left_ds.map_batches(tag_left, batch_format="pyarrow"),
        right_ds.map_batches(tag_right, batch_format="pyarrow"),
        key=[key, "__granule"],
        how="inner",
    )

    def in_range(batch: pa.Table) -> pa.Table:
        t = ts_us(batch[ts])
        s = ts_us(batch[start])
        e = ts_us(batch[end])
        return batch.filter(pa.array((t >= s) & (t < e))).drop_columns(
            ["__granule"]
        )

    return joined.map_batches(in_range, batch_format="pyarrow")
