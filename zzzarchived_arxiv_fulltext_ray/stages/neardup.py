"""Near-duplicate detection operators over a document corpus.

Three candidate-generation strategies feeding one exact verifier:

* ``ngram``   — inverted index on shingle hashes: explode (shingle,
  doc) -> groupby shingle -> in-bucket pairs. 100% recall for any pair
  sharing a shingle; candidate volume is bounded by capping bucket
  size (hot shingles are stop-shingles; cap + log, like stop-words).
* ``minhash`` — MinHash signatures -> LSH band buckets -> in-bucket
  pairs. Tunable recall/cost: (bands=64, rows=2) gives ~certain recall
  at J>=0.5 on small docs (miss prob (1-J^2)^64); the scale preset is
  (bands=16, rows=8) for J>=0.8 corpora.
* ``simhash`` — 64-bit SimHash; pairs within ``max_hamming`` found via
  the 4x16-bit pigeonhole blocks (hamming<=3 implies one equal block).

The verifier computes exact shingle Jaccard (or hamming) per candidate
pair. The ngram method always verifies through intersection counts
(no blobs, no joins). The minhash method pins its shingle table and
``plan.broadcast`` decides on its observed rows and bytes: the
broadcast verify ships one ``ray.put`` doc_id -> shingles map; the
partitioned verify hash-bucket-joins the candidate pairs against the
shingle table on doc_a, then on doc_b (two bounded shuffles via
``stages.relational.partitioned_hash_join``; shingle sets ride as
binary blobs because Acero joins don't carry list columns), with no
driver-side or broadcast corpus state.

The shingled stream feeds both candidate generation and the verify
join. It is recomputed for each consumer (Ray Data has no common-
subexpression reuse): shingling is a cheap, pure, deterministic
map — recompute costs CPU once more but never pins the corpus in the
object store, which is the right trade at scale.
"""

import functools as _functools
import logging
from typing import Dict, List

import numpy as np
import pyarrow as pa

from ..functions import shingles as sk
from .aggregate import aggregate, exchange
from .relational import partitioned_hash_join

logger = logging.getLogger(__name__)

# shingle sets travel as little-endian uint64 blobs: compact in the
# object store, join-able by Acero, zero-copy decodable via frombuffer
SHINGLE_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("shingles", pa.large_binary())]
)


def _encode_hashes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<u8").tobytes()


def _decode_hashes(blob) -> np.ndarray:
    if blob is None:
        return np.empty(0, dtype=np.uint64)
    return np.frombuffer(blob, dtype="<u8").astype(np.uint64, copy=False)


def shingle_batch(batch: pa.Table, k: int = 3) -> pa.Table:
    """documents batch -> (doc_id, distinct shingle hashes blob)."""
    blobs = [
        _encode_hashes(sk.shingle_hashes(t, k))
        for t in batch["text"].to_pylist()
    ]
    return pa.Table.from_arrays(
        [
            batch["doc_id"].combine_chunks(),
            pa.array(blobs, type=pa.large_binary()),
        ],
        schema=SHINGLE_SCHEMA,
    )


def _exploded_arrays(batch: pa.Table):
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    arrs = [_decode_hashes(b) for b in batch["shingles"].to_pylist()]
    counts = np.array([a.size for a in arrs], dtype=np.int64)
    keys = (
        np.concatenate(arrs) if arrs else np.empty(0, np.uint64)
    )
    return keys, np.repeat(ids, counts), counts


def explode_shingle_keys(batch: pa.Table) -> pa.Table:
    """(doc_id, shingles) -> one (bucket_key, doc_id) row per shingle
    (vectorized: one concatenate + repeat, no per-shingle Python)."""
    keys, rep_ids, _ = _exploded_arrays(batch)
    return pa.Table.from_pydict(
        {"bucket_key": pa.array(keys, pa.uint64()),
         "doc_id": pa.array(rep_ids, pa.int64())}
    )


def explode_shingle_keys_sized(batch: pa.Table) -> pa.Table:
    """Like :func:`explode_shingle_keys` but each row also carries its
    doc's distinct-shingle-set size — the extra int64 lets the counts
    verify plan compute Jaccard with no join back to the shingle
    table."""
    keys, rep_ids, counts = _exploded_arrays(batch)
    return pa.Table.from_pydict(
        {
            "bucket_key": pa.array(keys, pa.uint64()),
            "doc_id": pa.array(rep_ids, pa.int64()),
            "size": pa.array(np.repeat(counts, counts), pa.int64()),
        }
    )


def _decode_hashes_flat(col) -> "tuple[np.ndarray, np.ndarray]":
    """large_binary shingle column -> (flat uint64 hashes, int64
    segment offsets) without per-row Python: one slice of the Arrow
    data buffer viewed as ``<u8`` (blobs are encoded little-endian and
    8-byte-sized by construction)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty(0, np.uint64), np.zeros(1, np.int64)
    offs_buf, data_buf = col.buffers()[1], col.buffers()[2]
    offs = np.frombuffer(offs_buf, np.int64)[
        col.offset : col.offset + len(col) + 1
    ]
    data = np.frombuffer(data_buf, np.uint8)[offs[0] : offs[-1]]
    try:
        flat = data.view("<u8")
    except ValueError:  # unaligned slice start: one bounded copy
        flat = data.copy().view("<u8")
    return (
        flat.astype(np.uint64, copy=False),
        ((offs - offs[0]) // 8).astype(np.int64),
    )


@_functools.lru_cache(maxsize=4)
def _minhasher(num_perm: int) -> "sk.MinHasher":
    return sk.MinHasher(num_perm)


def minhash_band_batch(
    batch: pa.Table, num_perm: int = 128, bands: int = 64, rows: int = 2
) -> pa.Table:
    """(doc_id, shingles) -> (bucket_key, doc_id) per LSH band, fully
    vectorized: batched buffer decode, one ``signatures_flat`` reduceat
    pass, splitmix band-key folds (``sk.band_key_matrix``). A plain
    task stage — the old actor-pool spelling existed to amortize the
    per-document blake2b band keys; with the numpy fold there is no
    warm state worth an actor pool's spin-up latency (the seed table is
    microseconds, process-cached)."""
    flat, offsets = _decode_hashes_flat(batch["shingles"])
    sig = _minhasher(num_perm).signatures_flat(flat, offsets)
    keys = sk.band_key_matrix(sig, bands, rows)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.Table.from_pydict(
        {
            "bucket_key": pa.array(keys.T.reshape(-1), pa.uint64()),
            "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
        }
    )


def simhash_block_keys(batch: pa.Table) -> pa.Table:
    """(doc_id, shingles) -> 4 rows keyed by (block_idx << 16 | block):
    hamming<=3 pairs must share at least one 16-bit block (pigeonhole).
    Also carries the full simhash for verification."""
    keys: List[int] = []
    ids: List[int] = []
    sims: List[int] = []
    for doc_id, blob in zip(
        batch["doc_id"].to_pylist(), batch["shingles"].to_pylist()
    ):
        sh = sk.simhash64(_decode_hashes(blob))
        for q in range(4):
            block = (sh >> (16 * q)) & 0xFFFF
            keys.append((q << 16) | block)
            ids.append(doc_id)
            sims.append(sh)
    return pa.Table.from_pydict(
        {
            "bucket_key": pa.array(keys, pa.uint64()),
            "doc_id": pa.array(ids, pa.int64()),
            "simhash": pa.array(sims, pa.uint64()),
        }
    )


def bucket_pairs(ds, max_bucket: int = 256):
    """groupby bucket_key -> unordered candidate pairs (doc_a < doc_b),
    numpy-vectorized per bucket, locally (within-batch) deduplicated.

    Pairs sharing several bucket keys MAY appear more than once across
    batches: verification is idempotent and measured ~12% duplicate
    volume, so re-verifying duplicates is far cheaper than a global
    pair-key shuffle here (measured 11 s on 1.3M candidate rows) —
    callers make the (small) VERIFIED output distinct instead
    (:func:`_distinct_pairs`).

    Buckets above ``max_bucket`` docs are dropped AND logged with
    their size (hot shingles/bands are boilerplate). NOTE: a pair
    whose only shared keys are hot ones is lost — when the drop log is
    non-empty the result may under-report vs an exact-Jaccard oracle."""

    def pairs_of_group(group: pa.Table) -> pa.Table:
        ids = np.unique(
            group["doc_id"].to_numpy(zero_copy_only=False)
        )  # sorted
        if ids.size < 2 or ids.size > max_bucket:
            if ids.size > max_bucket:
                logger.warning(
                    "neardup: dropping hot bucket key=%s with %d docs "
                    "(max_bucket=%d); pairs sharing only this key are lost",
                    group["bucket_key"][0].as_py(), ids.size, max_bucket,
                )
            return pa.Table.from_pydict(
                {"doc_a": pa.array([], pa.int64()),
                 "doc_b": pa.array([], pa.int64())}
            )
        ii, jj = np.triu_indices(ids.size, k=1)  # vectorized pair gen
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(ids[ii], pa.int64()),
                "doc_b": pa.array(ids[jj], pa.int64()),
            }
        )

    pairs = ds.groupby("bucket_key").map_groups(
        pairs_of_group, batch_format="pyarrow"
    )

    # local (within-batch) distinct: vectorized Arrow group_by, cheap
    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["doc_a", "doc_b"]).aggregate([])

    return pairs.map_batches(local_distinct, batch_format="pyarrow")


def _distinct_pairs(verified_ds, value_col: str):
    """Collapse duplicate verified pairs (identical values by
    construction) — a tiny aggregate over the verified output."""
    return aggregate(
        verified_ds, ["doc_a", "doc_b"], [(value_col, "max", value_col)]
    )


def verify_jaccard(pairs_ds, shingle_map_ref, threshold: float):
    """Broadcast verify: exact shingle-Jaccard filter over candidate
    pairs against a ``ray.put`` doc_id -> shingles map (small-corpus
    fast path; integer intersection/union division matches a DuckDB
    oracle bit-for-bit)."""
    import ray

    def verify(batch: pa.Table) -> pa.Table:
        smap: Dict[int, np.ndarray] = ray.get(shingle_map_ref)
        out_a, out_b, out_j = [], [], []
        for a, b in zip(
            batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist()
        ):
            j = sk.jaccard_arrays(smap[a], smap[b])
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(j)
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return pairs_ds.map_batches(verify, batch_format="pyarrow")


def verify_jaccard_partitioned(
    pairs_ds, shingled_ds, threshold: float
):
    """Partitioned verify (default, no broadcast): bucket-hash-join the
    candidate pairs against the shingle table on doc_a, then doc_b,
    then score each pair locally. Two bounded shuffles; per-task state
    is one bucket's pairs + shingle rows, never the corpus."""

    def as_side(name):
        def rename(batch: pa.Table) -> pa.Table:
            return batch.rename_columns([name, f"sh_{name[-1]}"])

        return rename

    with_a = partitioned_hash_join(
        pairs_ds,
        shingled_ds.map_batches(as_side("doc_a"), batch_format="pyarrow"),
        key="doc_a",
    )
    with_ab = partitioned_hash_join(
        with_a,
        shingled_ds.map_batches(as_side("doc_b"), batch_format="pyarrow"),
        key="doc_b",
    )

    def score(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for a, b, blob_a, blob_b in zip(
            batch["doc_a"].to_pylist(),
            batch["doc_b"].to_pylist(),
            batch["sh_a"].to_pylist(),
            batch["sh_b"].to_pylist(),
        ):
            j = sk.jaccard_arrays(_decode_hashes(blob_a), _decode_hashes(blob_b))
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(j)
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return with_ab.map_batches(score, batch_format="pyarrow")


def neardup_pairs_ngram_counts(
    docs_ds,
    threshold: float = 0.5,
    k: int = 3,
    max_bucket: int = 256,
    combine_partitions: int = 16,
    on_drop: str = "fallback",
):
    """Blob-free partitioned ngram near-dup: exact Jaccard from
    intersection COUNTS, no shingle-set blobs and no joins.

    ``jaccard(A, B) = |A∩B| / (|A| + |B| - |A∩B|)``, and each shared
    shingle hash lives in exactly one bucket of the inverted index, so
    counting a pair's bucket co-occurrences IS ``|A∩B|``. The exploded
    stream carries each doc's set size (one extra int64), each bucket
    emits (doc_a, doc_b, size_a, size_b, cnt=1) rows, a vectorized
    per-batch combine sums counts, and the coalesced
    ``aggregate.exchange`` on the pair produces one row per candidate
    pair with everything Jaccard needs. Compared to the blob verify
    plan (two Acero joins shipping one ~KB shingle blob per candidate
    pair per side) the exchange moves five int64s per pair partial —
    the 10^12-doc partitioned plan for pairs-dense corpora.

    Drop-aware guard: a hot bucket dropped at ``max_bucket`` would
    silently UNDERCOUNT ``|A∩B|`` for surviving pairs (not just lose
    candidates, as the blob plan does), so drops emit marker rows and
    ``on_drop`` decides: "fallback" (default) reruns the candidates
    through the shingle-set verify — exact under drops — with a
    warning; "approx"
    returns the undercounted result with a warning; "error" raises.
    The small verified result is materialized to read the marker count
    (it is the query output anyway).
    """
    import pyarrow.compute as pc

    shingled = docs_ds.map_batches(
        lambda b: shingle_batch(b, k), batch_format="pyarrow"
    )
    exploded = shingled.map_batches(
        explode_shingle_keys_sized, batch_format="pyarrow"
    )

    _EMPTY = pa.Table.from_pydict(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "size_a": pa.array([], pa.int64()),
            "size_b": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def pairs_of_group(group: pa.Table) -> pa.Table:
        # shingle sets are distinct per doc, so each doc appears at
        # most once per shingle bucket — no in-bucket dedup needed
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        sz = group["size"].to_numpy(zero_copy_only=False)
        n = int(ids.size)
        if n < 2:
            return _EMPTY
        if n > max_bucket:
            logger.warning(
                "neardup-counts: dropping hot bucket key=%s with %d docs "
                "(max_bucket=%d)",
                group["bucket_key"][0].as_py(), n, max_bucket,
            )
            return pa.Table.from_pydict(
                {
                    "doc_a": pa.array([-1], pa.int64()),
                    "doc_b": pa.array([-1], pa.int64()),
                    "size_a": pa.array([0], pa.int64()),
                    "size_b": pa.array([0], pa.int64()),
                    "cnt": pa.array([1], pa.int64()),
                }
            )
        order = np.argsort(ids)
        ids, sz = ids[order], sz[order]
        ii, jj = np.triu_indices(n, k=1)
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(ids[ii], pa.int64()),
                "doc_b": pa.array(ids[jj], pa.int64()),
                "size_a": pa.array(sz[ii], pa.int64()),
                "size_b": pa.array(sz[jj], pa.int64()),
                "cnt": pa.array(np.ones(ii.size, np.int64), pa.int64()),
            }
        )

    _KEYS = ["doc_a", "doc_b", "size_a", "size_b"]

    def local_combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by(_KEYS).aggregate([("cnt", "sum")])
        return g.rename_columns(_KEYS + ["cnt"])

    def final_combine(group: pa.Table) -> pa.Table:
        g = group.group_by(_KEYS).aggregate([("cnt", "sum")])
        g = g.rename_columns(_KEYS + ["n_common"])
        a = g["doc_a"].to_numpy(zero_copy_only=False)
        inter = g["n_common"].to_numpy(zero_copy_only=False)
        sa = g["size_a"].to_numpy(zero_copy_only=False)
        sb = g["size_b"].to_numpy(zero_copy_only=False)
        marker = a < 0
        union = np.maximum(sa + sb - inter, 1)
        j = inter / union
        keep = marker | (j >= threshold)
        j = np.where(marker, -1.0, j)
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(a[keep], pa.int64()),
                "doc_b": pa.array(
                    g["doc_b"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "jaccard": pa.array(j[keep], pa.float64()),
            }
        )

    combined = (
        exploded.groupby("bucket_key")
        .map_groups(pairs_of_group, batch_format="pyarrow")
        .map_batches(local_combine, batch_format="pyarrow")
        .repartition(combine_partitions)
    )
    out = exchange(combined, ["doc_a", "doc_b"], final_combine).materialize()

    def only_markers(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["doc_a"], 0))

    def no_markers(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["doc_a"], 0))

    n_dropped = out.map_batches(
        only_markers, batch_format="pyarrow"
    ).count()
    if n_dropped:
        if on_drop == "error":
            raise RuntimeError(
                f"neardup counts plan dropped {n_dropped} hot buckets; "
                "intersection counts would be under-reported"
            )
        if on_drop == "fallback":
            logger.warning(
                "neardup counts plan dropped %d hot buckets; falling "
                "back to the shingle-set verify (exact under drops)",
                n_dropped,
            )
            return _verified_pairs(
                docs_ds, threshold, k, max_bucket, explode_shingle_keys
            )
        logger.warning(
            "neardup counts plan dropped %d hot buckets; returned "
            "jaccards may be under-counted (on_drop='approx')",
            n_dropped,
        )
    return out.map_batches(no_markers, batch_format="pyarrow")


def _broadcast_shingle_map(shingled_ds):
    """Collect doc_id -> shingle array into the object store once."""
    import ray

    smap: Dict[int, np.ndarray] = {}
    for batch in shingled_ds.iter_batches(batch_format="pyarrow"):
        for doc_id, blob in zip(
            batch["doc_id"].to_pylist(), batch["shingles"].to_pylist()
        ):
            smap[doc_id] = _decode_hashes(blob)
    return ray.put(smap)


def neardup_pairs(
    docs_ds,
    method: str = "ngram",
    threshold: float = 0.5,
    k: int = 3,
    num_perm: int = 128,
    bands: int = 64,
    rows: int = 2,
    max_bucket: int = 256,
):
    """End-to-end near-dup pairs: shingle -> candidates -> verify.

    Returns a Dataset of (doc_a, doc_b, jaccard), doc_a < doc_b. Every
    verify plan gives the identical exact-Jaccard answer (pinned equal
    in tests):

    * ngram: fused candidates+verify via intersection counts — no
      blobs, no joins, drop-aware (:func:`neardup_pairs_ngram_counts`).
      Measured at or faster than the broadcast verify at sf0.1
      (2.5-5.8 s vs 3.3-4.4 s) with zero broadcast state, so ngram
      never broadcasts.
    * minhash: its band buckets don't partition the intersection, so
      the shingle table is pinned once and ``plan.broadcast`` decides
      on its observed rows and bytes. Broadcast: one ``ray.put`` of
      the doc->shingles map that each verify task reads zero-copy —
      the shingle table ships once, not once per pair. Exchange:
      hash-join the candidates against the shingle table; no
      broadcast/driver corpus state, but the shuffle carries one
      shingle-set copy PER CANDIDATE PAIR.
    """
    if method == "ngram":
        return neardup_pairs_ngram_counts(
            docs_ds, threshold=threshold, k=k, max_bucket=max_bucket
        )
    if method != "minhash":
        raise ValueError(f"unknown candidate method: {method}")
    return _verified_pairs(
        docs_ds, threshold, k, max_bucket,
        lambda sh: minhash_band_batch(sh, num_perm, bands, rows),
    )


def _verified_pairs(docs_ds, threshold, k, max_bucket, explode):
    """Shingle, explode each doc to its candidate bucket keys
    (``explode(shingled batch)``), pair within buckets and verify
    exactly. The shingle table is pinned: the candidate stream and the
    verify both read it, and ``plan.broadcast`` decides on it."""
    from . import plan

    shingled = docs_ds.map_batches(
        lambda b: shingle_batch(b, k), batch_format="pyarrow"
    ).materialize()
    candidates = bucket_pairs(
        shingled.map_batches(explode, batch_format="pyarrow"),
        max_bucket=max_bucket,
    )
    if plan.broadcast(
        "neardup_pairs", shingled.count(), shingled.size_bytes()
    ):
        verified = verify_jaccard(
            candidates, _broadcast_shingle_map(shingled), threshold
        )
    else:
        verified = verify_jaccard_partitioned(candidates, shingled, threshold)
    return _distinct_pairs(verified, "jaccard")


def simhash_pairs(
    docs_ds, max_hamming: int = 3, k: int = 3, max_bucket: int = 4096
):
    """SimHash near-dup pairs: (doc_a, doc_b, hamming), hamming <=
    ``max_hamming`` (<=3 guarantees block-level recall via pigeonhole).

    Per-bucket pair generation is numpy-vectorized (XOR + table
    popcount over the packed uint64 simhashes) and bounded by
    ``max_bucket`` with the same drop-and-log contract as
    :func:`bucket_pairs` — a hot 16-bit block (short/templated docs
    collapsing to near-equal simhashes) costs at most
    ``max_bucket**2 / 2`` vectorized ops per task instead of an
    unbounded pure-Python double loop; pairs whose only shared block
    is a dropped one are lost (logged)."""

    shingled = docs_ds.map_batches(
        lambda b: shingle_batch(b, k), batch_format="pyarrow"
    )
    keyed = shingled.map_batches(simhash_block_keys, batch_format="pyarrow")

    _EMPTY = pa.Table.from_pydict(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int32()),
        }
    )

    def pairs_of_group(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        sims = group["simhash"].to_numpy(zero_copy_only=False).astype(
            np.uint64, copy=False
        )
        # one simhash per doc_id by construction; keep first per doc
        order = np.argsort(ids, kind="stable")
        ids, sims = ids[order], sims[order]
        keep = np.ones(ids.size, dtype=bool)
        keep[1:] = ids[1:] != ids[:-1]
        ids, sims = ids[keep], sims[keep]
        n = int(ids.size)
        if n < 2:
            return _EMPTY
        if n > max_bucket:
            logger.warning(
                "simhash: dropping hot block bucket key=%s with %d docs "
                "(max_bucket=%d); pairs sharing only this block are lost",
                group["bucket_key"][0].as_py(), n, max_bucket,
            )
            return _EMPTY
        ii, jj = np.triu_indices(n, k=1)
        d = sk.popcount64(sims[ii] ^ sims[jj])
        m = d <= max_hamming
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(ids[ii[m]], pa.int64()),
                "doc_b": pa.array(ids[jj[m]], pa.int64()),
                "hamming": pa.array(d[m], pa.int32()),
            }
        )

    pairs = keyed.groupby("bucket_key").map_groups(
        pairs_of_group, batch_format="pyarrow"
    )

    # distinct pairs via one grouped aggregate (duplicates across
    # blocks carry the same hamming, so min is just "pick one")
    return aggregate(
        pairs, ["doc_a", "doc_b"], [("hamming", "min", "hamming")]
    )


def cross_neardup_counts(
    left_ds,
    right_ds,
    threshold: float,
    k: int = 3,
    score: str = "jaccard",
    max_bucket: int = 256,
    combine_partitions: int = 16,
    on_drop: str = "error",
):
    """Cross-set near-dup scoring between TWO corpora via the blob-free
    counts plan (see :func:`neardup_pairs_ngram_counts`): exact
    ``|A∩B|`` from shared-shingle-bucket co-occurrence counts, with
    candidates restricted to (left, right) pairs only.

    Two production shapes ride on this:

    * ``score="jaccard"`` — incremental dedup: score an INCOMING shard
      (left) against the existing BASE corpus (right) without ever
      pairing base docs with each other (the reference's exists-already
      guard, ``fulltext/services/store/store.py``, generalized from
      exact url match to content near-match).
    * ``score="containment"`` — benchmark decontamination / quotation
      detection: ``|A∩B| / |A|`` with A the left (snippet/benchmark)
      set, so a short snippet fully inside a long document scores 1.0
      even when symmetric Jaccard is tiny.

    Returns a Dataset of (left_id, right_id, score) with
    ``score >= threshold``. Same-id pairs are kept (a snippet and its
    source document share an id by construction in the eval queries).

    Hot shingle buckets beyond ``max_bucket`` emit marker rows;
    ``on_drop="error"`` (default) raises — cross-set counts have no
    exact blob fallback wired yet — and ``"approx"`` returns
    under-counted scores with a warning.

    CONTRACT: ``doc_id`` must be NONNEGATIVE on both sides — negative
    ids are reserved for the hot-bucket marker rows (callers hashing
    urls to ids must shift to 63 bits, see
    ``state.manifest.global_neardup_guard``); violations raise inside
    the group stage.
    """
    import pyarrow.compute as pc

    if score not in ("jaccard", "containment"):
        raise ValueError(f"unknown score {score!r}")

    def exploded_side(ds, side: int):
        def tag(b: pa.Table) -> pa.Table:
            return b.append_column(
                "side",
                pa.array(np.full(b.num_rows, side, np.int8), pa.int8()),
            )

        return (
            ds.map_batches(
                lambda b: shingle_batch(b, k), batch_format="pyarrow"
            )
            .map_batches(explode_shingle_keys_sized, batch_format="pyarrow")
            .map_batches(tag, batch_format="pyarrow")
        )

    both = exploded_side(left_ds, 0).union(exploded_side(right_ds, 1))

    _EMPTY = pa.Table.from_pydict(
        {
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
            "size_l": pa.array([], pa.int64()),
            "size_r": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def pairs_of_group(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        sz = group["size"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        if ids.size and ids.min() < 0:
            raise ValueError(
                "cross_neardup_counts requires nonnegative doc ids "
                "(negative ids are the hot-bucket marker sentinel)"
            )
        if ids.size > max_bucket:
            logger.warning(
                "cross-neardup: dropping hot bucket key=%s with %d docs "
                "(max_bucket=%d)",
                group["bucket_key"][0].as_py(), ids.size, max_bucket,
            )
            return pa.Table.from_pydict(
                {
                    "left_id": pa.array([-1], pa.int64()),
                    "right_id": pa.array([-1], pa.int64()),
                    "size_l": pa.array([0], pa.int64()),
                    "size_r": pa.array([0], pa.int64()),
                    "cnt": pa.array([1], pa.int64()),
                }
            )
        lmask = side == 0
        lids, lsz = ids[lmask], sz[lmask]
        rids, rsz = ids[~lmask], sz[~lmask]
        if lids.size == 0 or rids.size == 0:
            return _EMPTY
        # cross product left x right (each doc appears at most once
        # per side per bucket: shingle sets are distinct per doc)
        la = np.repeat(lids, rids.size)
        return pa.Table.from_pydict(
            {
                "left_id": pa.array(la, pa.int64()),
                "right_id": pa.array(np.tile(rids, lids.size), pa.int64()),
                "size_l": pa.array(np.repeat(lsz, rids.size), pa.int64()),
                "size_r": pa.array(np.tile(rsz, lids.size), pa.int64()),
                "cnt": pa.array(np.ones(la.size, np.int64), pa.int64()),
            }
        )

    _KEYS = ["left_id", "right_id", "size_l", "size_r"]

    def local_combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by(_KEYS).aggregate([("cnt", "sum")])
        return g.rename_columns(_KEYS + ["cnt"])

    def final_combine(group: pa.Table) -> pa.Table:
        g = group.group_by(_KEYS).aggregate([("cnt", "sum")])
        g = g.rename_columns(_KEYS + ["n_common"])
        a = g["left_id"].to_numpy(zero_copy_only=False)
        inter = g["n_common"].to_numpy(zero_copy_only=False)
        sl = g["size_l"].to_numpy(zero_copy_only=False)
        sr = g["size_r"].to_numpy(zero_copy_only=False)
        marker = a < 0
        if score == "containment":
            s = inter / np.maximum(sl, 1)
        else:
            s = inter / np.maximum(sl + sr - inter, 1)
        keep = marker | (s >= threshold)
        s = np.where(marker, -1.0, s)
        return pa.Table.from_pydict(
            {
                "left_id": pa.array(a[keep], pa.int64()),
                "right_id": pa.array(
                    g["right_id"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "score": pa.array(s[keep], pa.float64()),
            }
        )

    combined = (
        both.groupby("bucket_key")
        .map_groups(pairs_of_group, batch_format="pyarrow")
        .map_batches(local_combine, batch_format="pyarrow")
        .repartition(combine_partitions)
    )
    out = exchange(
        combined, ["left_id", "right_id"], final_combine
    ).materialize()

    n_dropped = 0
    n_total = 0
    if out.schema(fetch_if_missing=False) is not None:
        n_total = out.count()
        n_dropped = out.map_batches(
            lambda b: b.filter(pc.less(b["left_id"], 0)),
            batch_format="pyarrow",
        ).count()
    if n_total - n_dropped == 0:
        # empty side / zero candidate pairs: blocks are empty (or
        # marker-only), and map_batches skips empty blocks, so the
        # lazy filter below would yield a column-less frame — return
        # the typed empty instead (schema-less-empty guard family).
        import ray.data as rd

        empty_out = rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "left_id": pa.array([], pa.int64()),
                    "right_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        )
        if not n_dropped:
            return empty_out
        out = empty_out  # fall through to the drop-policy check
    if n_dropped:
        if on_drop == "error":
            raise RuntimeError(
                f"cross-neardup counts plan dropped {n_dropped} hot "
                "buckets; intersection counts would be under-reported"
            )
        logger.warning(
            "cross-neardup counts plan dropped %d hot buckets; scores "
            "may be under-counted (on_drop='approx')", n_dropped,
        )
    return out.map_batches(
        lambda b: b.filter(pc.greater_equal(b["left_id"], 0)),
        batch_format="pyarrow",
    )
