"""Vectorized, process-stable key hashing for in-flight exchanges.

Every hash-partitioned exchange in the engine needs a bucket id per
key that every worker computes identically. ``stages.aggregate``'s
``exchange`` (joins, grouped aggregates, per-bucket kernels) takes it
from :func:`hash64_column`; ``stages.dedup.dup_winner_table`` keeps
:func:`bucket_of_column` for its coalesced winner pass. Two kernels:

* numeric keys — a splitmix64 finalizer-style mix (pure numpy, wraps
  uint64), so sequential ids spread across buckets;
* string/binary keys — polars' vectorized 64-bit hash (seed 0).
  Deterministic for a fixed polars build, which every worker in a run
  shares — valid for IN-FLIGHT exchanges. NOT for persistent storage
  layouts, whose bucket ids must survive version upgrades across runs:
  those keep crc32 (see ``stages.dedup.partition_pages_by_url``).

A crc32 per-row fallback keeps the string path working if polars is
ever absent (import-gated per the no-new-deps rule).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

try:  # vectorized string hashing; baked into this environment
    import polars as _pl
except ImportError:  # pragma: no cover - polars is baked in
    _pl = None


def splitmix_mix(keys: np.ndarray) -> np.ndarray:
    """Splitmix-style avalanche over a uint64 array (vectorized)."""
    z = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)
    return z


def hash64_column(col) -> np.ndarray:
    """uint64 hash per element of an Arrow (chunked) array.

    Numeric columns use the splitmix mix, nulls hashing as 0 (numpy
    would turn an integer column with a null into floats and round
    keys above 2**53, so one key would hash by whether its batch holds
    a null); string/binary columns use polars' vectorized hash (crc32
    loop fallback)."""
    typ = col.type
    if pa.types.is_integer(typ) or pa.types.is_floating(typ):
        if col.null_count:
            col = pc.fill_null(col, 0)
        return splitmix_mix(col.to_numpy(zero_copy_only=False))
    if _pl is not None:
        series = _pl.from_arrow(
            col if isinstance(col, pa.ChunkedArray) else pa.chunked_array([col])
        )
        return series.hash(seed=0).to_numpy().astype(np.uint64, copy=False)
    from zlib import crc32  # pragma: no cover - polars is baked in

    return np.array(
        [
            crc32(v if isinstance(v, bytes) else str(v).encode())
            for v in col.to_pylist()
        ],
        dtype=np.uint64,
    )


def stable_hash64_column(col) -> np.ndarray:
    """md5-derived ``stable_hash64`` per element (bit-identical to
    DuckDB ``md5_number_upper``) — the ORACLE-REPLAYABLE alternative
    to :func:`hash64_column` for sketches whose contents a SQL oracle
    must rebuild (Bloom witness). Per-row hashlib, so noticeably
    slower than the polars path: use only where replayability is the
    point."""
    from .shingles import stable_hash64

    return np.array(
        [
            stable_hash64(v if isinstance(v, str) else str(v))
            for v in col.to_pylist()
        ],
        dtype=np.uint64,
    )


def bucket_of_column(col, num_buckets: int) -> np.ndarray:
    """int64 bucket id in [0, num_buckets) per element of an Arrow
    (chunked) array — the partitioner of ``dup_winner_table``'s
    coalesced winner pass."""
    return (hash64_column(col) % np.uint64(num_buckets)).astype(np.int64)


def morton2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Z-order (Morton) interleave of two uint32 arrays into uint64 —
    the space-filling-curve key for multi-column locality
    partitioning: sorting/bucketing by ``morton2(x, y)`` co-locates
    rows close in BOTH dimensions, so a 2-D range predicate prunes
    contiguous key ranges instead of scanning a hash layout. ``a``
    takes the even bit positions (bit i of a -> bit 2i), ``b`` the
    odd. Pure wrapping uint64 magic-bits spread, vectorized; exact
    integers, so a SQL oracle replays codes with a 32-term bit sum."""
    def spread(x: np.ndarray) -> np.ndarray:
        x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
        x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
        return x

    return spread(np.asarray(a)) | (spread(np.asarray(b)) << np.uint64(1))
