"""Fuzzy string self-join (Levenshtein distance <= 1), SymSpell-style.

A fuzzy-dedup family member the ngram/minhash/simhash stages do not
cover: *short key* matching (names, titles, normalized domains) where
the right similarity is edit distance, not set overlap.

Distributed plan (deletion-neighborhood candidate generation — the
scheme of Bocek et al., "Fast Similarity Search in Large Dictionaries",
2007, popularized as SymSpell):

1. **Candidate gen** (``deletion_keys_batch``): every string ``s`` of
   byte length L emits L+1 variant keys — ``s`` itself plus each
   single-byte deletion — hashed to uint64 (one vectorized polars call
   per batch). Two strings at distance <= 1 necessarily share a
   variant: equal -> the identity key; one substitution at i -> both
   strings' deletion-at-i; one insertion/deletion -> the shorter
   string IS a deletion variant of the longer. The exchange therefore
   moves fixed-width ints plus each (short, by contract) string ~L
   times — cheaper than a join to re-attach payloads afterwards.
2. **Blocked pairs + exact verify in one task** (``fuzzy_self_join``):
   the blocked-pairs plan of ``stages/neardup.py`` (ONE exchange on
   the variant hash, every key's strings paired with numpy) hands
   each exchange bucket its candidate pairs, and the bucket verifies
   them in place, vectorized over all its pairs: one NUL-padded byte
   matrix of its strings gives Hamming for equal lengths and a
   prefix/suffix match (a one-byte deletion) across adjacent lengths.
   Because the bucket already holds the strings, verification is
   local — no second exchange, no blob join. Hot keys above
   ``max_bucket`` strings are dropped AND logged (the blocked-pairs
   contract); hash collisions only co-bucket strangers, which the
   exact verify rejects, so the result is exact whenever the drop log
   is empty.
3. **Distinct**: a pair sharing several variants is emitted once per
   shared key; verified pairs are tiny (strings + dist), so a final
   aggregate makes them distinct — the dedup-after-verify pattern.

Contracts:
* keys are SHORT strings (<= ``max_len`` bytes, default 64); longer
  rows are excluded from fuzzy matching and counted in the drop log —
  edit distance on long texts is the ngram/minhash stages' job.
* distance is byte-level Levenshtein over UTF-8 — which is ALSO what
  DuckDB ``levenshtein`` computes for non-ASCII input (measured:
  ``levenshtein('é','e') = 2``), so oracle parity holds for arbitrary
  unicode keys (witnessed by ``customer_fuzzy_unicode``). Note this
  deliberately differs from CHARACTER-level edit distance on
  non-ASCII ('é'->'e' is 1 char edit but 2 byte edits).
* distance <= 2 extends by emitting 2-deletion variants (O(L^2) keys
  per string) — not built, the volume trade-off changes.

No reference counterpart (the reference has no join machinery at all);
this generalizes its exact url-dedup (SURVEY §2 A1) to typo-tolerant
keys.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash64_column
from .aggregate import aggregate
from .neardup import blocked_pairs

logger = logging.getLogger(__name__)

_EMPTY_PAIRS = pa.schema(
    [("name_a", pa.string()), ("name_b", pa.string()), ("dist", pa.int64())]
)


def _variants(s: bytes) -> "set[bytes]":
    """Identity + every single-byte deletion (set: repeated bytes
    produce coinciding deletions — emitting them once is enough)."""
    out = {s}
    for i in range(len(s)):
        out.add(s[:i] + s[i + 1 :])
    return out


def deletion_keys_batch(
    batch: pa.Table, col: str, max_len: int = 64
) -> pa.Table:
    """(bucket_key uint64, name string) rows: one per distinct
    deletion-neighborhood variant of each input string."""
    names = batch[col].to_pylist()
    out_names: list = []
    variants: list = []
    n_long = 0
    for s in names:
        if s is None:
            continue
        b = s.encode("utf-8")
        if len(b) > max_len:
            n_long += 1
            continue
        vs = _variants(b)
        variants.extend(vs)
        out_names.extend([s] * len(vs))
    if n_long:
        logger.warning(
            "fuzzy: excluded %d strings over max_len=%d bytes from "
            "fuzzy matching (distance-1 pairs touching them are lost)",
            n_long,
            max_len,
        )
    keys = hash64_column(pa.chunked_array([pa.array(variants, pa.binary())]))
    return pa.Table.from_pydict(
        {
            "bucket_key": pa.array(keys, pa.uint64()),
            "name": pa.array(out_names, pa.string()),
        }
    )


def _distances(names: pa.ChunkedArray, i: np.ndarray, j: np.ndarray):
    """Byte-level Levenshtein distance of each pair ``(names[i],
    names[j])``, capped at 2 (2 = more than one edit), vectorized over
    all pairs: the strings become one NUL-padded byte matrix with at
    least one pad column, so padding compares equal."""
    enc = [x.encode("utf-8") for x in names.to_pylist()]
    lens = np.array([len(e) for e in enc], np.int64)
    w = int(lens.max(initial=0)) + 1
    mat = np.frombuffer(
        b"".join(e.ljust(w, b"\0") for e in enc), np.uint8
    ).reshape(len(enc), w)
    swap = lens[i] > lens[j]
    short, long = np.where(swap, j, i), np.where(swap, i, j)
    gap = lens[long] - lens[short]
    s, t = mat[short], mat[long]
    eq = s == t
    # s is t less the byte at k iff s[:k] == t[:k] and s[k:] == t[k+1:]
    ones = np.ones((i.size, 1), bool)
    prefix = np.logical_and.accumulate(np.hstack([ones, eq[:, :-1]]), axis=1)
    shifted = np.hstack([s[:, :-1] == t[:, 1:], ones])
    suffix = np.logical_and.accumulate(shifted[:, ::-1], axis=1)[:, ::-1]
    d = np.full(i.size, 2)
    d[gap == 0] = np.minimum((~eq[gap == 0]).sum(axis=1), 2)
    d[(gap == 1) & (prefix & suffix).any(axis=1)] = 1
    return d


def _fuzzy_pairs(keyed, max_bucket: int):
    """Distinct verified pairs at distance <= 1 of the deletion-variant
    rows ``keyed`` — (bucket_key, name) rows, plus ``side`` in a cross
    plan — with a typed empty result when there are none."""
    import ray.data as rd

    def emit(rows, i, j, _):
        names = rows["name"]
        d = _distances(names, i, j)
        m = d <= 1
        return pa.table({
            "name_a": names.take(i[m]),
            "name_b": names.take(j[m]),
            "dist": pa.array(d[m], pa.int64()),
        })

    out = (
        aggregate(
            blocked_pairs(keyed, emit, max_bucket),
            ["name_a", "name_b"],
            [("dist", "max", "dist")],
        )
        # the verified-distinct result is tiny (pairs, not corpus):
        # materialize it so the emptiness probe and the caller's
        # consumption share ONE execution of the plan
        .materialize()
    )
    if out.count() == 0:
        return rd.from_arrow(_EMPTY_PAIRS.empty_table())
    return out


def fuzzy_self_join(ds, col: str, max_bucket: int = 256, max_len: int = 64):
    """All distinct unordered pairs of distinct ``col`` values at
    Levenshtein distance exactly 1 (equal values are not pairs), as
    (name_a, name_b, dist) with name_a < name_b. Exact when the hot
    bucket / max_len drop logs are empty."""
    return _fuzzy_pairs(
        ds.map_batches(
            lambda b: deletion_keys_batch(b, col, max_len=max_len),
            batch_format="pyarrow",
        ),
        max_bucket,
    )


def fuzzy_join(
    ds_a,
    ds_b,
    col_a: str,
    col_b: str,
    max_bucket: int = 256,
    max_len: int = 64,
):
    """Two-table fuzzy equi-join on short string keys at Levenshtein
    distance <= 1 (typo-tolerant blocklist / record-linkage matching).
    Same deletion-neighborhood plan as :func:`fuzzy_self_join`, with
    both sides' variants unioned into ONE exchange and pairs generated
    across sides only. Returns distinct (name_a, name_b, dist); dist 0
    (exact cross-side equality) is included."""

    def keyed(ds, col, side):
        def emit(batch: pa.Table) -> pa.Table:
            t = deletion_keys_batch(batch, col, max_len=max_len)
            return t.append_column(
                "side", pa.array([side] * t.num_rows, pa.int8())
            )

        return ds.map_batches(emit, batch_format="pyarrow")

    return _fuzzy_pairs(
        keyed(ds_a, col_a, 0).union(keyed(ds_b, col_b, 1)), max_bucket
    )
