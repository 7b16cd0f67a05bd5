"""Partial top-k: one lossless per-batch kernel and its two merges.

A row among the first ``k`` of the whole input (or of its group) in
``by`` order is among the first ``k`` of its own batch, so a per-batch
top-k loses nothing, and the merge above it sees at most ``k`` rows
per group per block instead of the input — the partial/final TopN
pair that engines such as Presto place below and above an exchange.

``by`` is a list of Arrow sort keys ``[(col, "ascending" |
"descending"), ...]`` whose last key makes the order total, so ties
resolve as in the oracles' ``ORDER BY``. NaN and null sort last in
both directions (Arrow's ``sort_indices``; the same as ``np.lexsort``
on a negated key and pandas' ``na_position="last"``).

Derived sort columns (scores, hashes) are computed by the caller's own
per-batch map; the kernel only orders and truncates.
"""

from typing import Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SortKeys = Sequence[Tuple[str, str]]


def topk_batch(
    table: pa.Table, k: int, by: SortKeys, group: Optional[str] = None
) -> pa.Table:
    """The first ``k`` rows of ``table`` in ``by`` order — per
    ``group`` value (rows come out ordered by group, then ``by``) or
    overall. Every column and its type is kept."""
    if group is None:
        return table.take(pc.sort_indices(table, sort_keys=list(by))[:k])
    if table.num_rows == 0:
        return table
    order = pc.sort_indices(
        table, sort_keys=[(group, "ascending"), *by]
    ).to_numpy()
    codes = pc.dictionary_encode(
        table[group].combine_chunks(), null_encoding="encode"
    ).indices.to_numpy()[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    rank = np.arange(codes.size) - np.repeat(
        starts, np.diff(np.r_[starts, codes.size])
    )
    return table.take(order[rank < k])


def topk(ds, k: int, by: SortKeys) -> pa.Table:
    """Global top-``k`` of a Dataset: the kernel runs per block, the
    driver merges at most ``k`` x blocks rows and returns them in
    ``by`` order. An empty Dataset gives a table without columns, as
    Ray's own ``to_pandas`` does: Ray drops the columns of empty
    blocks."""
    # iter_batches runs the plan once; to_arrow_refs would look up the
    # schema of the lazy plan afterwards and run it a second time
    tables = [
        t
        for t in ds.map_batches(
            topk_batch, fn_args=(k, by), batch_format="pyarrow"
        ).iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    ]
    if not tables:
        return pa.table({})
    return topk_batch(pa.concat_tables(tables), k, by)


def topk_per_group(ds, group: str, k: int, by: SortKeys):
    """Grouped top-``k`` as a Dataset: the kernel runs per block, then
    one ``groupby(group)`` merge over at most ``k`` x blocks rows per
    group — never a whole-group shuffle."""
    return ds.map_batches(
        topk_batch, fn_args=(k, by), fn_kwargs={"group": group},
        batch_format="pyarrow",
    ).groupby(group).map_groups(
        topk_batch, fn_args=(k, by), batch_format="pyarrow"
    )
