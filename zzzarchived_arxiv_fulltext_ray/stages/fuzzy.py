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
2. **Bucketed pair gen + exact verify in one task**
   (``fuzzy_self_join``): groupby variant hash -> within each bucket,
   numpy-vectorized Hamming over the equal-length strings (a byte
   matrix XOR-count) and a bytes-slicing deletion check across
   adjacent lengths. Because the bucket already holds the strings,
   verification is local — no second exchange, no blob join. Hot
   buckets above ``max_bucket`` are dropped AND logged (same contract
   as ``neardup.bucket_pairs``); hash collisions only co-bucket
   strangers, which the exact verify rejects, so the result is exact
   whenever the drop log is empty.
3. **Distinct**: a pair sharing several variants is emitted once per
   bucket; verified pairs are tiny (strings + dist), so a final
   groupby makes them distinct — the dedup-after-verify pattern.

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


def _is_deletion(short: bytes, long: bytes) -> bool:
    """True iff deleting ONE byte of ``long`` yields ``short``
    (lengths differ by exactly 1; bytes-slice compares run at C speed)."""
    # first mismatch position
    i = 0
    n = len(short)
    while i < n and short[i] == long[i]:
        i += 1
    return short[i:] == long[i + 1 :]


def _bucket_verified_pairs(names: np.ndarray) -> "tuple[list, list]":
    """Exact distance<=1 pairs among the bucket's unique sorted
    strings. Returns (list_a, list_b) with a < b lexicographically."""
    enc = [s.encode("utf-8") for s in names]
    lens = np.array([len(b) for b in enc], dtype=np.int64)
    out_a: list = []
    out_b: list = []
    # same length: vectorized Hamming over an (n, L) byte matrix
    for L in np.unique(lens):
        idx = np.nonzero(lens == L)[0]
        if idx.size >= 2 and L > 0:
            mat = np.frombuffer(
                b"".join(enc[i] for i in idx), dtype=np.uint8
            ).reshape(idx.size, L)
            ii, jj = np.triu_indices(idx.size, k=1)
            mism = (mat[ii] != mat[jj]).sum(axis=1)
            hit = np.nonzero(mism == 1)[0]
            if hit.size:  # vectorized emission (hits can be dense)
                out_a.extend(names[idx[ii[hit]]].tolist())
                out_b.extend(names[idx[jj[hit]]].tolist())
        # adjacent length L vs L+1: deletion check per cross pair
        jdx = np.nonzero(lens == L + 1)[0]
        for i in idx:
            si = enc[i]
            for j in jdx:
                if _is_deletion(si, enc[j]):
                    a, b = names[i], names[j]
                    if b < a:
                        a, b = b, a
                    out_a.append(a)
                    out_b.append(b)
    return out_a, out_b


def fuzzy_self_join(ds, col: str, max_bucket: int = 256, max_len: int = 64):
    """All distinct unordered pairs of distinct ``col`` values at
    Levenshtein distance exactly 1 (equal values are not pairs), as
    (name_a, name_b, dist) with name_a < name_b. Exact when the hot
    bucket / max_len drop logs are empty."""
    keyed = ds.map_batches(
        lambda b: deletion_keys_batch(b, col, max_len=max_len),
        batch_format="pyarrow",
    )

    def pairs_of_group(group: pa.Table) -> pa.Table:
        names = np.unique(group["name"].to_numpy(zero_copy_only=False))
        if names.size < 2 or names.size > max_bucket:
            if names.size > max_bucket:
                logger.warning(
                    "fuzzy: dropping hot bucket key=%s with %d strings "
                    "(max_bucket=%d); pairs sharing only it are lost",
                    group["bucket_key"][0].as_py(),
                    names.size,
                    max_bucket,
                )
            return _EMPTY_PAIRS.empty_table()
        a, b = _bucket_verified_pairs(names)
        return pa.Table.from_pydict(
            {
                "name_a": pa.array(a, pa.string()),
                "name_b": pa.array(b, pa.string()),
                "dist": pa.array([1] * len(a), pa.int64()),
            },
            schema=_EMPTY_PAIRS,
        )

    pairs = keyed.groupby("bucket_key").map_groups(
        pairs_of_group, batch_format="pyarrow"
    )

    # distinct pairs through stages/aggregate.py
    out = (
        aggregate(pairs, ["name_a", "name_b"], [("dist", "max", "dist")])
        # the verified-distinct result is tiny (pairs, not corpus):
        # materialize it so the emptiness probe and the caller's
        # consumption share ONE execution of the plan
        .materialize()
    )
    if out.count() == 0:  # all buckets trivial/dropped: typed empty
        import ray.data as rd

        return rd.from_arrow(_EMPTY_PAIRS.empty_table())
    return out


def _bucket_cross_pairs(a_names, b_names) -> "tuple[list, list, list]":
    """Exact distance<=1 pairs ACROSS two sides (distance 0 = equal
    keys included: cross-side equality is a match, unlike the
    self-join). Returns (list_a, list_b, dists)."""
    enc_a = [(s, s.encode("utf-8")) for s in a_names]
    enc_b = [(s, s.encode("utf-8")) for s in b_names]
    by_len_b: dict = {}
    for s, e in enc_b:
        by_len_b.setdefault(len(e), []).append((s, e))
    out_a: list = []
    out_b: list = []
    out_d: list = []
    # group the A side by length, vectorize against same-length B
    by_len_a: dict = {}
    for s, e in enc_a:
        by_len_a.setdefault(len(e), []).append((s, e))
    for L, rows_a in by_len_a.items():
        rows_b = by_len_b.get(L, [])
        if rows_b and L > 0:
            mat_a = np.frombuffer(
                b"".join(e for _, e in rows_a), dtype=np.uint8
            ).reshape(len(rows_a), L)
            mat_b = np.frombuffer(
                b"".join(e for _, e in rows_b), dtype=np.uint8
            ).reshape(len(rows_b), L)
            mism = (mat_a[:, None, :] != mat_b[None, :, :]).sum(axis=2)
            for i, j in zip(*np.nonzero(mism <= 1)):
                out_a.append(rows_a[i][0])
                out_b.append(rows_b[j][0])
                out_d.append(int(mism[i, j]))
        elif rows_b:  # L == 0: both empty strings -> equal
            for sa, _ in rows_a:
                for sb, _ in rows_b:
                    out_a.append(sa)
                    out_b.append(sb)
                    out_d.append(0)
        # adjacent lengths: deletion checks in both directions
        for sa, ea in rows_a:
            for sb, eb in by_len_b.get(L + 1, []):
                if _is_deletion(ea, eb):
                    out_a.append(sa)
                    out_b.append(sb)
                    out_d.append(1)
            for sb, eb in by_len_b.get(L - 1, []):
                if _is_deletion(eb, ea):
                    out_a.append(sa)
                    out_b.append(sb)
                    out_d.append(1)
    return out_a, out_b, out_d


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

    both = keyed(ds_a, col_a, 0).union(keyed(ds_b, col_b, 1))
    empty = pa.schema(
        [
            ("name_a", pa.string()),
            ("name_b", pa.string()),
            ("dist", pa.int64()),
        ]
    )

    def pairs_of_group(group: pa.Table) -> pa.Table:
        sides = group["side"].to_numpy(zero_copy_only=False)
        names = group["name"].to_numpy(zero_copy_only=False)
        a = np.unique(names[sides == 0])
        b = np.unique(names[sides == 1])
        if a.size == 0 or b.size == 0 or a.size + b.size > max_bucket:
            if a.size + b.size > max_bucket:
                logger.warning(
                    "fuzzy: dropping hot bucket key=%s with %d+%d strings "
                    "(max_bucket=%d); pairs sharing only it are lost",
                    group["bucket_key"][0].as_py(),
                    a.size,
                    b.size,
                    max_bucket,
                )
            return empty.empty_table()
        out_a, out_b, out_d = _bucket_cross_pairs(a, b)
        return pa.Table.from_pydict(
            {
                "name_a": pa.array(out_a, pa.string()),
                "name_b": pa.array(out_b, pa.string()),
                "dist": pa.array(out_d, pa.int64()),
            },
            schema=empty,
        )

    pairs = both.groupby("bucket_key").map_groups(
        pairs_of_group, batch_format="pyarrow"
    )

    out = (
        aggregate(pairs, ["name_a", "name_b"], [("dist", "max", "dist")])
        .materialize()  # tiny result: one execution for probe + caller
    )
    if out.count() == 0:
        import ray.data as rd

        return rd.from_arrow(empty.empty_table())
    return out
