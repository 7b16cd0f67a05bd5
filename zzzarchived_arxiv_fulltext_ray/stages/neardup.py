"""Near-duplicate detection operators over a document corpus.

Three candidate-generation strategies feeding one exact verifier:

* ``ngram``   — inverted index on shingle hashes: explode (shingle,
  doc) -> blocked pairs per shingle. 100% recall for any pair sharing
  a shingle; candidate volume is bounded by capping bucket size (hot
  shingles are stop-shingles; cap + log, like stop-words).
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

Every candidate stage here and in ``stages/fuzzy.py`` runs one
blocked-pairs plan (:func:`blocked_pairs`): ONE ``aggregate.exchange``
on ``bucket_key``, then each exchange bucket is sorted by key and
every key's run of rows is paired at once with numpy — upper
triangle in a self plan, left x right in a cross plan — never a
Python call per key. Runs over ``max_bucket`` rows are dropped and
logged.

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
import pyarrow.compute as pc

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


def run_pairs(t: pa.Table, max_bucket: int):
    """The blocked pairs of one exchange bucket.

    ``t`` holds ``bucket_key``, a ``side`` column (0 = left, 1 = right)
    in a cross plan, and the member columns. Returns ``(rows, i, j,
    n_dropped)``: ``rows`` are the distinct rows of ``t`` sorted by
    key, side and members, so each key's rows form one run; ``i`` and
    ``j`` index ``rows`` — every two rows of a run (``i < j``) in a
    self plan, every left row with every right row of its run in a
    cross plan. A run without a pair (fewer than 2 rows, or one side
    missing) is skipped; a run with a pair and more than
    ``max_bucket`` rows is dropped, logged and counted in
    ``n_dropped``."""
    cross = "side" in t.column_names
    cols = ["bucket_key"] + (["side"] if cross else []) + [
        c for c in t.column_names if c not in ("bucket_key", "side")
    ]
    rows = t.group_by(cols, use_threads=False).aggregate([])
    rows = rows.take(
        pc.sort_indices(rows, sort_keys=[(c, "ascending") for c in cols])
    )
    key = rows["bucket_key"].to_numpy()
    n = key.size
    new = np.ones(n, bool)
    new[1:] = key[1:] != key[:-1]
    run = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    size = np.diff(np.r_[start, n])
    end = (start + size)[run]
    pos = np.arange(n)
    if cross:
        left = rows["side"].to_numpy() == 0
        n_left = np.bincount(run[left], minlength=start.size)
        paired = (n_left > 0) & (n_left < size)
        # a run's left rows sort first; each pairs with its run's right
        lo = np.where(left, (start + n_left)[run], end)
    else:
        paired = size > 1
        lo = pos + 1
    hot = paired & (size > max_bucket)
    for r in np.flatnonzero(hot):
        logger.warning(
            "neardup: dropping hot bucket key=%s with %d rows "
            "(max_bucket=%d); pairs sharing only this key are lost",
            key[start[r]], size[r], max_bucket,
        )
    # row p pairs with rows lo[p] .. end[p] - 1 of its run
    cnt = np.where(hot[run], 0, end - lo)
    i = np.repeat(pos, cnt)
    j = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(i.size)
    return rows, i, j, int(hot.sum())


def blocked_pairs(keyed_ds, emit, max_bucket: int):
    """Pairs of rows sharing a ``bucket_key``: ONE exchange on the key,
    :func:`run_pairs` over each exchange bucket, and
    ``emit(rows, i, j, n_dropped)`` turns the bucket's pairs into the
    output table — vectorized over every key of the bucket."""
    return exchange(
        keyed_ds, "bucket_key", lambda t: emit(*run_pairs(t, max_bucket))
    )


def bucket_pairs(ds, max_bucket: int = 256):
    """Unordered candidate pairs (doc_a < doc_b) of docs sharing a
    ``bucket_key``.

    A pair sharing several keys appears once per shared key:
    verification is idempotent, so callers make the (small) VERIFIED
    output distinct instead (:func:`_distinct_pairs`).

    Keys above ``max_bucket`` docs are dropped AND logged with their
    size (hot shingles/bands are boilerplate). NOTE: a pair whose only
    shared keys are hot ones is lost — when the drop log is non-empty
    the result may under-report vs an exact-Jaccard oracle."""

    def emit(rows, i, j, _):
        ids = rows["doc_id"]
        return pa.table({"doc_a": ids.take(i), "doc_b": ids.take(j)})

    return blocked_pairs(ds, emit, max_bucket)


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
    docs_ds, threshold: float = 0.5, k: int = 3, max_bucket: int = 256
):
    """Blob-free partitioned ngram near-dup: exact Jaccard from
    intersection COUNTS, no shingle-set blobs and no joins — the self
    case of the shingle-count plan (:func:`_shingle_counts`).

    ``jaccard(A, B) = |A∩B| / (|A| + |B| - |A∩B|)``, and each shared
    shingle hash is exactly one key of the inverted index, so counting
    a pair's key co-occurrences IS ``|A∩B|``. The exploded stream
    carries each doc's set size (one extra int64), each exchange
    bucket of the blocked pairs emits one (doc_a, doc_b, size_a,
    size_b, cnt) row per pair it holds, and a second exchange on the
    pair sums the counts into one row per candidate pair with
    everything Jaccard needs. Compared to the blob verify plan (two
    Acero joins shipping one ~KB shingle blob per candidate pair per
    side) the exchange moves five int64s per pair partial — the
    10^12-doc partitioned plan for pairs-dense corpora.

    Drop-aware guard: a hot key dropped at ``max_bucket`` would
    silently UNDERCOUNT ``|A∩B|`` for surviving pairs (not just lose
    candidates, as the blob plan does), so on any drop the candidates
    rerun through the shingle-set verify — exact under drops — with a
    warning.
    """
    return _shingle_counts(docs_ds, None, threshold, k, max_bucket, "jaccard")


def cross_neardup_counts(
    left_ds,
    right_ds,
    threshold: float,
    k: int = 3,
    score: str = "jaccard",
    max_bucket: int = 256,
):
    """Cross-set near-dup scoring between TWO corpora — the cross case
    of the shingle-count plan (see :func:`neardup_pairs_ngram_counts`):
    exact ``|A∩B|`` from shared-shingle co-occurrence counts, with
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

    A hot shingle key beyond ``max_bucket`` with docs on both sides
    raises: cross-set counts have no exact blob fallback.

    CONTRACT: ``doc_id`` must be NONNEGATIVE on both sides — negative
    ids are reserved for the hot-bucket marker rows (callers hashing
    urls to ids must shift to 63 bits, see
    ``state.manifest.global_neardup_guard``); violations raise inside
    the pair stage.
    """
    if score not in ("jaccard", "containment"):
        raise ValueError(f"unknown score {score!r}")
    return _shingle_counts(left_ds, right_ds, threshold, k, max_bucket, score)


def _shingle_counts(docs_ds, right_ds, threshold, k, max_bucket, score):
    """The shingle-count plan: the self case pairs ``docs_ds`` with
    itself (``right_ds=None``) as (doc_a, doc_b, jaccard); the cross
    case pairs ``docs_ds`` (left) with ``right_ds`` as (left_id,
    right_id, score).

    An exchange bucket that drops hot keys adds one marker row, ids
    (-1, -1) with the number of keys dropped as its count; the marker
    rows meet in the pair exchange, which keeps their total as minus
    the score. The materialized result is the query output anyway, so
    reading its marker row costs one small execution."""
    import ray.data as rd

    cross = right_ds is not None
    a, b, s = ("left_id", "right_id", "score") if cross else (
        "doc_a", "doc_b", "jaccard"
    )
    keys = [a, b, "size_a", "size_b"]

    def exploded(ds, side):
        def explode(batch: pa.Table) -> pa.Table:
            t = explode_shingle_keys_sized(shingle_batch(batch, k))
            if side is None:
                return t
            return t.append_column(
                "side", pa.array(np.full(t.num_rows, side, np.int8))
            )

        return ds.map_batches(explode, batch_format="pyarrow")

    keyed = (
        exploded(docs_ds, 0).union(exploded(right_ds, 1))
        if cross
        else exploded(docs_ds, None)
    )

    def emit(rows, i, j, n_dropped):
        ids, size = rows["doc_id"].to_numpy(), rows["size"].to_numpy()
        if ids.size and ids.min() < 0:
            raise ValueError(
                "shingle counts require nonnegative doc ids (negative "
                "ids are the hot-bucket marker sentinel)"
            )
        mark = np.full(int(n_dropped > 0), -1)
        t = pa.table({
            a: np.r_[ids[i], mark],
            b: np.r_[ids[j], mark],
            "size_a": np.r_[size[i], mark],
            "size_b": np.r_[size[j], mark],
            "cnt": np.r_[np.ones(i.size, np.int64), mark * -n_dropped],
        })
        g = t.group_by(keys, use_threads=False).aggregate([("cnt", "sum")])
        return g.rename_columns(keys + ["cnt"])

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(
            [("cnt", "sum")]
        )
        ga, inter = g[a].to_numpy(), g["cnt_sum"].to_numpy()
        sa, sb = g["size_a"].to_numpy(), g["size_b"].to_numpy()
        denom = sa if score == "containment" else sa + sb - inter
        val = inter / np.maximum(denom, 1)
        marker = ga < 0
        keep = marker | (val >= threshold)
        return pa.table({
            a: ga[keep],
            b: g[b].to_numpy()[keep],
            s: np.where(marker, -inter, val)[keep],
        })

    out = exchange(blocked_pairs(keyed, emit, max_bucket), [a, b], final)
    out = out.materialize()
    if out.count() == 0:
        return rd.from_arrow(pa.table({
            a: pa.array([], pa.int64()),
            b: pa.array([], pa.int64()),
            s: pa.array([], pa.float64()),
        }))
    n_dropped = -int(sum(r[s] for r in out.map_batches(
        lambda t: t.filter(pc.less(t[a], 0)), batch_format="pyarrow"
    ).take_all()))
    if not n_dropped:
        return out
    if cross:
        raise RuntimeError(
            f"cross-neardup counts plan dropped {n_dropped} hot "
            "buckets; intersection counts would be under-reported"
        )
    logger.warning(
        "neardup counts plan dropped %d hot buckets; falling back to "
        "the shingle-set verify (exact under drops)", n_dropped,
    )
    return _verified_pairs(
        docs_ds, threshold, k, max_bucket, explode_shingle_keys
    )


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

    Pair generation is the blocked-pairs plan (:func:`blocked_pairs`),
    numpy-vectorized (XOR + table popcount over the packed uint64
    simhashes) and bounded by ``max_bucket`` with its drop-and-log
    contract — a hot 16-bit block (short/templated docs collapsing to
    near-equal simhashes) is dropped, not ground through; pairs whose
    only shared block is a dropped one are lost (logged)."""

    shingled = docs_ds.map_batches(
        lambda b: shingle_batch(b, k), batch_format="pyarrow"
    )
    keyed = shingled.map_batches(simhash_block_keys, batch_format="pyarrow")

    def emit(rows, i, j, _):
        # one simhash per doc_id by construction: a run's rows are docs
        ids = rows["doc_id"].to_numpy()
        sims = rows["simhash"].to_numpy()
        d = sk.popcount64(sims[i] ^ sims[j])
        m = d <= max_hamming
        return pa.table({
            "doc_a": pa.array(ids[i[m]], pa.int64()),
            "doc_b": pa.array(ids[j[m]], pa.int64()),
            "hamming": pa.array(d[m], pa.int32()),
        })

    # distinct pairs via one grouped aggregate (duplicates across
    # blocks carry the same hamming, so min is just "pick one")
    return aggregate(
        blocked_pairs(keyed, emit, max_bucket),
        ["doc_a", "doc_b"], [("hamming", "min", "hamming")],
    )
