"""Grouped aggregate: one Arrow partial per batch, one bucketed Arrow merge.

Sum, min and max merge with themselves and a count merges as a sum, so
reducing each batch to one row per group first loses nothing — the
partial/final aggregate pair that engines place below and above an
exchange. The partial is Arrow's ``group_by(keys).aggregate``; each
partial row carries ``__bucket``, the key hash mod a fixed bucket
count (the hash of ``relational.partitioned_hash_join``; composite
keys XOR the per-column hashes). The merge is one
``groupby("__bucket").map_groups`` that re-aggregates every bucket
with Arrow again, so per-group work never runs as a Python loop (Ray's
own ``groupby().aggregate`` combines one group at a time in Python).
A fixed bucket fan-out bounds the exchange (*Hyper Dimension Shuffle*,
VLDB 2019).

``aggs`` lists ``(out, fn, col)``: ``fn`` is ``"sum"``, ``"min"``,
``"max"`` or ``"count"``. A count with ``col=None`` counts rows; with a
column it counts that column's non-null values (SQL ``COUNT(col)``).
Sums, mins and maxes skip nulls and give null for a group with no
value. Null keys form one group, as in SQL ``GROUP BY``.

Output columns are the keys, then the ``out`` names in order, typed as
Ray's own aggregate types them (integers as int64, floats as float64,
large strings as string). Rows come out ordered by bucket, then by
key within a bucket — not globally by key; callers that need an order
sort. With no keys the result is a dict ``{out: value}`` — ``None``
for a sum, min or max over no value, ``0`` for a count. Ray drops the
columns of empty blocks, so a grouped aggregate over an input without
rows is a Dataset without rows or columns.
"""

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash64_column

Agg = Tuple[str, str, Optional[str]]

_BUCKETS = 32
_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _spec(fn: str, col: Optional[str]):
    """The Arrow aggregation of one partial entry and its output name."""
    if fn == "count" and col is None:
        return ([], "count_all"), "count_all"
    if fn not in _MERGE:
        raise ValueError(f"aggregate: unsupported fn {fn!r}")
    return (col, fn), f"{col}_{fn}"


def _reduce(
    t: pa.Table, keys: List[str], parts: Sequence[Tuple[str, tuple, str]]
) -> pa.Table:
    """``parts`` is ``(out, arrow_spec, arrow_name)``: one Arrow
    ``group_by`` over ``t``, renamed to keys + outs."""
    specs = {name: spec for _, spec, name in parts}
    res = t.group_by(keys, use_threads=False).aggregate(list(specs.values()))
    return pa.Table.from_arrays(
        [res[k] for k in keys] + [res[name] for _, _, name in parts],
        names=keys + [out for out, _, _ in parts],
    )


def _ray_type(typ: pa.DataType) -> pa.DataType:
    """The type Ray's own aggregate gives an output column: it rebuilds
    each value as a Python scalar, so every integer comes back int64,
    every float float64 and a large string a string."""
    if pa.types.is_dictionary(typ):
        return _ray_type(typ.value_type)
    if pa.types.is_integer(typ):
        return pa.int64()
    if pa.types.is_floating(typ):
        return pa.float64()
    if pa.types.is_large_string(typ):
        return pa.string()
    if pa.types.is_large_binary(typ):
        return pa.binary()
    return typ


def _bucket(t: pa.Table, keys: List[str]) -> pa.Array:
    """Bucket id per row: the key hash, XORed over composite keys."""
    h = hash64_column(t[keys[0]])
    for extra in keys[1:]:
        h = h ^ hash64_column(t[extra])
    return pa.array((h % np.uint64(_BUCKETS)).astype(np.int64))


def aggregate(
    ds,
    keys: Union[str, Sequence[str], None],
    aggs: Sequence[Agg],
    rows: Optional[Callable[[pa.Table], pa.Table]] = None,
):
    """Grouped ``sum | min | max | count`` of ``ds`` by ``keys``.

    ``rows(batch)`` projects each pyarrow batch to the key and value
    columns (default: the batch as it is). Returns a Dataset of keys +
    ``out`` columns, or a dict ``{out: value}`` when ``keys`` is empty.
    """
    keys = [keys] if isinstance(keys, str) else list(keys or [])
    partial_parts = [(out, *_spec(fn, col)) for out, fn, col in aggs]
    merge_parts = [(out, *_spec(_MERGE[fn], out)) for out, fn, _ in aggs]

    def partial(batch: pa.Table) -> pa.Table:
        t = _reduce(rows(batch) if rows else batch, keys, partial_parts)
        if keys:
            t = t.append_column("__bucket", _bucket(t, keys))
        return t

    def merge(t: pa.Table) -> pa.Table:
        t = _reduce(t, keys, merge_parts)
        t = t.cast(
            pa.schema([(f.name, _ray_type(f.type)) for f in t.schema])
        )
        return t.sort_by([(k, "ascending") for k in keys]) if keys else t

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if keys:
        return partials.groupby("__bucket").map_groups(
            lambda g: merge(g.drop_columns(["__bucket"])),
            batch_format="pyarrow",
        )
    tables = [
        t
        for t in partials.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    ]
    if not tables:
        return {out: 0 if fn == "count" else None for out, fn, _ in aggs}
    row = merge(pa.concat_tables(tables)).to_pylist()[0]
    return {out: row[out] for out, _, _ in aggs}
