"""URL-level dedup: keep the latest crawl per url (SURVEY.md A1/J2).

Two physical strategies for the same logical operator:

* ``latest_crawl_broadcast`` — aggregate ``max(warc_ts)`` per url over
  a *projected* (url, warc_ts) stream (the shuffle moves two tiny
  columns, never payloads) on the driver, broadcast the winner set
  once via ``ray.put``, and filter the full stream against it inside
  a lazy ``map_batches`` stage. The per-url aggregate runs as a
  distributed ``groupby("url")`` shuffle (batch-level combine first);
  only urls with >1 crawl ever reach the driver, so driver/broadcast
  state is O(#urls-with-duplicates), never O(#urls).

* ``latest_crawl_shuffle`` — hash-shuffle full rows by url and keep the
  max-``warc_ts`` row per group. No driver-side state; the fallback
  when ``plan.broadcast`` rejects the observed winner table (true
  10^12-row regime), at the price of shuffling payloads.

Inside a wave of shards (rows carrying a ``shard_id`` column, see
``state/manifest.run_resumable``) both strategies resolve winners per
(``shard_id``, url): a url re-crawled in two shards of one wave keeps a
row in each, exactly as when the shards run one by one.

Assumption (documented per SURVEY.md): (url, warc_ts) pairs are unique
— re-crawls carry strictly increasing timestamps (the synthesizer
guarantees this; real WARC data does too at second granularity).
"""

from typing import List, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from .. import SHARD_COLUMN
from ..functions.hashing import bucket_of_column
from . import plan


def _key_columns(t: pa.Table) -> List[str]:
    """The columns a winner is resolved on: the url, scoped to its
    shard when the rows carry one."""
    if SHARD_COLUMN in t.column_names:
        return [SHARD_COLUMN, "url"]
    return ["url"]


def dedup_key(t: pa.Table):
    """:func:`_key_columns` as one probe-able column: the url, or
    shard id + US + url inside a wave."""
    keys = [t[c] for c in _key_columns(t)]
    if len(keys) == 1:
        return keys[0]
    return pc.binary_join_element_wise(*keys, "\x1f")


def dup_winner_table(
    ds, num_buckets: int = 64, partial_batch_size: int = 65536
) -> pa.Table:
    """(url, max_ts int64 micros) rows, ONLY for urls with >1 crawl;
    inside a wave, (shard_id, url, max_ts) rows for urls with >1 crawl
    in their shard.

    Distributed: batch-level combine (vectorized per-batch groupby)
    over LARGE batches (``partial_batch_size``) first, so the partial
    stream is few, big blocks with at most one (url, max_ts, n) row
    per url per batch, then ONE hash exchange on hash64(url) %
    ``num_buckets`` (vectorized polars xxhash — in-flight only) with a
    vectorized Arrow combine per bucket. Ray's sort-shuffle cost is
    per-block, so sizing the partial batches IS the coalescing step —
    measured 1.0 s vs 2.5 s for the earlier
    partial -> repartition(16) -> groupby spelling and 6.3 s for
    small-batch partials, on 160k partial rows at 32 CPUs. The
    duplicate filter runs distributed, so the driver only ever holds
    urls that actually have >1 crawl — O(dup-rate) driver state, never
    O(#urls). Sizing: each reduce task holds about #urls/num_buckets
    (url, int64, int64) rows — raise ``num_buckets`` with corpus size.
    """

    def project(batch: pa.Table) -> pa.Table:
        # per block, ahead of the large-batch partial, so the partial
        # concatenates key columns and never payload bytes
        return batch.select(_key_columns(batch) + ["warc_ts"])

    def partial(batch: pa.Table) -> pa.Table:
        keys = _key_columns(batch)
        t = batch.select(keys).combine_chunks().append_column(
            "ts_us", batch["warc_ts"].cast(pa.int64()).combine_chunks()
        )
        g = t.group_by(keys).aggregate([("ts_us", "max"), ("url", "count")])
        g = g.rename_columns(keys + ["max_ts", "n"])
        buckets = pa.array(bucket_of_column(g["url"], num_buckets), pa.int32())
        return g.append_column("bucket", buckets)

    def combine_bucket(group: pa.Table) -> pa.Table:
        keys = _key_columns(group)
        g = group.select(keys + ["max_ts", "n"]).group_by(keys).aggregate(
            [("max_ts", "max"), ("n", "sum")]
        )
        g = g.rename_columns(keys + ["max_ts", "n"])
        return g.filter(pc.greater(g["n"], 1))

    dup_winners = (
        ds.map_batches(project, batch_format="pyarrow", batch_size=None)
        .map_batches(
            partial, batch_format="pyarrow", batch_size=partial_batch_size
        )
        .groupby("bucket")
        .map_groups(combine_bucket, batch_format="pyarrow")
    )

    tables = list(dup_winners.iter_batches(batch_format="pyarrow"))
    if not tables:
        return pa.table(
            {"url": pa.array([], pa.string()),
             "max_ts": pa.array([], pa.int64())}
        )
    return pa.concat_tables(
        [t.select(_key_columns(t) + ["max_ts"]) for t in tables]
    ).combine_chunks()


def winner_arrays(wt: pa.Table) -> Tuple[pa.Array, pa.Array]:
    """The broadcast form of a :func:`dup_winner_table`: (dedup key,
    winning timestamp) arrays, as :func:`winner_mask` probes them."""
    return dedup_key(wt).combine_chunks(), wt["max_ts"].combine_chunks()


def winner_filter_batch(
    batch: pa.Table, winners: Tuple[pa.Array, pa.Array]
) -> pa.Table:
    """Keep rows whose (url, warc_ts) is the winner — or whose url has
    no duplicates at all (per shard inside a wave)."""
    if len(winners[0]) == 0:
        return batch
    return batch.filter(winner_mask(batch, winners))


def winner_mask(batch: pa.Table, winners: Tuple[pa.Array, pa.Array]):
    """Boolean keep-mask of :func:`winner_filter_batch` (``winners``
    non-empty, from :func:`winner_arrays`). Fully vectorized: probe the
    winner key set with ``index_in`` (null = key not contested), gather
    the winning timestamp, compare, and fill the uncontested nulls with
    keep=True.
    """
    w_keys, w_ts = winners
    idx = pc.index_in(dedup_key(batch), value_set=w_keys)
    won_ts = pc.take(w_ts, idx)  # null where url uncontested
    eq = pc.equal(batch["warc_ts"].cast(pa.int64()), won_ts)
    return pc.fill_null(eq, True)


def latest_crawl_broadcast(ds):
    """Keep the latest crawl per url via a projected aggregate +
    broadcast anti-filter. Only urls that actually have >1 crawl enter
    the broadcast winner table, so its size tracks the duplicate rate,
    not the corpus size; the per-batch filter is a vectorized Arrow
    ``index_in``/``take``/``equal`` probe, no per-row Python.

    Apply this to the RAW pages Dataset, before any payload-touching
    stage. The pre-pass projects the key columns per block, but Ray
    Data (2.49) has no projection pushdown into the Parquet read, so it
    still reads the payload bytes of every file it scans.

    The winner pre-pass executes here, on the driver (one execution,
    before any consumer starts), so a pre-pass failure raises from this
    call. Its observed size goes to the one crossover,
    :func:`plan.broadcast`: a table it rejects takes
    :func:`latest_crawl_shuffle` instead. Otherwise the table is
    published with one ``ray.put`` and the returned filter is a lazy
    stateless ``map_batches`` stage, which Ray fuses into the
    downstream map stages and the extraction actor pool."""
    import ray

    wt = dup_winner_table(ds)
    if not plan.broadcast("latest_crawl", wt.num_rows, wt.nbytes):
        return latest_crawl_shuffle(ds)
    winners_ref = ray.put(winner_arrays(wt))

    def keep_latest(batch: pa.Table) -> pa.Table:
        return winner_filter_batch(batch, ray.get(winners_ref))

    return ds.map_batches(keep_latest, batch_format="pyarrow")


def latest_crawl_shuffle(ds):
    """Keep the latest crawl per url via a full hash shuffle on url.

    Scale path: no driver-side or broadcast state. Prefer running this
    AFTER payload columns are projected away, or accept that the
    shuffle moves payload bytes. Inside a wave the url group holds the
    crawls of every shard, and each shard keeps its own newest one.
    """

    def newest_row(group: pa.Table) -> pa.Table:
        idx = pc.index(
            group["warc_ts"], pc.max(group["warc_ts"]).as_py()
        ).as_py()
        return group.slice(idx, 1)

    def newest(group: pa.Table) -> pa.Table:
        if group.num_rows == 1:
            return group
        if SHARD_COLUMN not in group.column_names:
            return newest_row(group)
        shards = group[SHARD_COLUMN]
        return pa.concat_tables(
            newest_row(group.filter(pc.equal(shards, sid)))
            for sid in pc.unique(shards).to_pylist()
        )

    return ds.groupby("url").map_groups(newest, batch_format="pyarrow")


def latest_crawl(ds, method: str = "broadcast"):
    if plan.force_partitioned():
        # GRAFT_FORCE_PARTITIONED=1: gate-level coverage of the
        # shuffle twin (pinned equal to broadcast in tests)
        method = "shuffle"
    if method == "broadcast":
        return latest_crawl_broadcast(ds)
    if method == "shuffle":
        return latest_crawl_shuffle(ds)
    raise ValueError(f"unknown dedup method: {method}")


def partition_pages_by_url(ds, out_dir: str, num_buckets: int = 64):
    """Write the pages stream hash-partitioned by url (hive layout,
    ``url_bucket=N/`` dirs) — the shuffle-free alternative to a global
    cross-shard dedup pass: once re-crawls of a url are CO-LOCATED in
    one bucket, sharding job input by bucket makes per-shard
    latest-crawl dedup globally correct by construction, and any later
    url-keyed operator (blocklist joins, per-url aggregation) reads
    only its bucket. One-time cost: one all-to-all write of the
    corpus; amortized across every downstream run.

    Bucket = crc32(url) % num_buckets. crc32 is deliberate here and
    NOT the in-flight polars hash (functions/hashing.py): a storage
    layout must be re-derivable across runs and library upgrades, so
    it pins a bytes-stable standard hash. The per-row crc32 call is C
    speed; casting to binary first avoids a per-row str.encode.
    """
    from zlib import crc32

    def add_bucket(batch: pa.Table) -> pa.Table:
        raw = batch["url"].cast(pa.binary()).to_pylist()
        buckets = pa.array(
            [crc32(u) % num_buckets for u in raw], pa.int32()
        )
        return batch.append_column("url_bucket", buckets)

    ds.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["url_bucket"]
    )
    return out_dir


# ---------------------------------------------- Bloom exists-already guard

def build_key_bloom(
    ds, col: str = "url", n_bits: int = 1 << 27, k: int = 4,
    tree_width: int = 8, stable_hash: bool = False,
):
    """Build a Bloom filter over ``col`` with a merge TREE: one Bloom
    partial per input block (vectorized inserts of the 64-bit key
    hashes), an intermediate OR stage of ``tree_width`` groups, then a
    driver OR of ``tree_width`` blobs. Driver and per-task memory are
    O(n_bits/8), independent of corpus size; size ``n_bits`` to the
    expected key count (~10 bits/key for ~1% FP at k=4).

    The memory-bounded alternative to the exact manifest anti-join
    (S5/J1): a Bloom guard never re-processes a seen key (no false
    negatives) at the price of skipping ~FP-rate of genuinely new
    keys — the right trade for crawl-scale "probably already done"
    pre-filters where the exact url set no longer fits anywhere.
    Returns the merged :class:`BloomFilter`.

    ``stable_hash=True`` keys the filter on the md5-derived
    ``stable_hash64`` instead of the polars hash — slower, but every
    bit becomes SQL-reconstructable (the ``bloom_dedup_guard`` oracle
    replays positions as ``(h1 + i*(splitmix64(h1)|1)) mod n_bits``).
    Build and probe must agree on the flag.
    """
    import numpy as np
    import ray

    from ..functions.hashing import hash64_column, stable_hash64_column
    from ..functions.sketches import BloomFilter

    key_hash = stable_hash64_column if stable_hash else hash64_column

    def partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(n_bits, k)
        bf.add_hashes(key_hash(batch[col]))
        return pa.Table.from_pydict(
            {"blob": pa.array([bf.serialize()], pa.large_binary())}
        )

    def merge_rows(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(n_bits, k)
        for blob in batch["blob"].to_pylist():
            bf.merge(BloomFilter.deserialize(blob, n_bits, k))
        return pa.Table.from_pydict(
            {"blob": pa.array([bf.serialize()], pa.large_binary())}
        )

    partials = (
        ds.select_columns([col])
        # batch_size=None = whole blocks: ONE Bloom partial per block,
        # not one per default-1024-row batch (a 2**27-bit filter is
        # 16 MiB per partial — per-block is the documented contract)
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
        .repartition(tree_width)
        .map_batches(
            merge_rows, batch_format="pyarrow", batch_size=None
        )
    )
    out = BloomFilter(n_bits, k)
    for b in partials.iter_batches(batch_format="pyarrow"):
        for blob in b["blob"].to_pylist():
            out.merge(BloomFilter.deserialize(blob, n_bits, k))
    return out


def bloom_guard_filter(ds, bloom_ref, col: str = "url",
                       stable_hash: bool = False):
    """Drop rows whose ``col`` probes positive in the broadcast Bloom
    (probably-seen keys); vectorized probe per batch. ``bloom_ref`` is
    a ``ray.put`` of a :class:`BloomFilter`; ``stable_hash`` must
    match the build."""
    import ray

    from ..functions.hashing import hash64_column, stable_hash64_column

    key_hash = stable_hash64_column if stable_hash else hash64_column

    def keep_new(batch: pa.Table) -> pa.Table:
        bf = ray.get(bloom_ref)
        seen = bf.contains_hashes(key_hash(batch[col]))
        return batch.filter(pa.array(~seen))

    return ds.map_batches(keep_new, batch_format="pyarrow")


def snapshot_diff(old, new, key: str = "doc_id", content: str = "text"):
    """Classify every key across two corpus snapshots as ``added`` /
    ``removed`` / ``changed`` / ``unchanged`` — the incremental-crawl
    diff that decides which documents need re-extraction between two
    crawl passes (the set-difference generalization of the reference's
    exists-already guard, ``fulltext/services/store/store.py``).

    Contract: ``key`` is unique within each snapshot (duplicate keys
    raise). Content equality is decided by the vectorized 64-bit
    content hash on the Ray side, so the exchange ships
    ``(key, side, hash)`` (~24 bytes/row) — payloads never move and
    the driver never sees per-key rows; a 64-bit collision
    (probability ~2^-64 per pair) would misreport one 'changed' key
    as 'unchanged'. Oracles compare exact content instead.

    Physical plan: both sides project + hash in ``map_batches`` ->
    union -> ONE ``aggregate.exchange`` on ``key`` -> per-bucket sort
    + pair-off
    (the sessionize idiom). Returns a ``(key, change_class)`` Dataset.
    """
    import numpy as np

    from ..functions.hashing import hash64_column
    from .aggregate import exchange

    def prep(side_val):
        def f(batch: pa.Table) -> pa.Table:
            h = hash64_column(batch[content]).view(np.int64)
            return pa.Table.from_pydict(
                {
                    key: batch[key],
                    "__side": pa.array(
                        np.full(batch.num_rows, side_val, np.int64)
                    ),
                    "__h": pa.array(h, pa.int64()),
                }
            )

        return f

    def diff_of_bucket(group: pa.Table) -> pa.Table:
        import numpy as np

        k = group[key].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                key: pa.array([], group.schema.field(key).type),
                "change_class": pa.array([], pa.string()),
            }
        )
        if k.size == 0:
            return empty
        side = group["__side"].to_numpy(zero_copy_only=False)
        h = group["__h"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, k))
        k, side, h = k[order], side[order], h[order]
        starts = np.flatnonzero(
            np.concatenate([[True], k[1:] != k[:-1]])
        )
        lens = np.diff(np.append(starts, k.size))
        nxt = np.minimum(starts + 1, k.size - 1)
        if lens.max() > 2 or np.any(
            (lens == 2) & (side[starts] == side[nxt])
        ):
            raise ValueError(
                "snapshot_diff: duplicate %r within one snapshot" % key
            )
        # class codes: 0 added, 1 removed, 2 changed, 3 unchanged
        cls = np.empty(starts.size, dtype=np.int64)
        single = lens == 1
        cls[single & (side[starts] == 1)] = 0
        cls[single & (side[starts] == 0)] = 1
        both = ~single
        cls[both & (h[starts] != h[nxt])] = 2
        cls[both & (h[starts] == h[nxt])] = 3
        names = np.array(
            ["added", "removed", "changed", "unchanged"], dtype=object
        )
        return pa.Table.from_pydict(
            {
                key: pa.array(k[starts]),
                "change_class": pa.array(names[cls], pa.string()),
            }
        )

    tagged = old.map_batches(prep(0), batch_format="pyarrow").union(
        new.map_batches(prep(1), batch_format="pyarrow")
    )
    return exchange(tagged, key, diff_of_bucket)
