"""As-of join: attach to each left row the most recent right row.

The canonical event-enrichment operator (``left.ts >= right.ts``,
greatest such right per key) that plain equi-joins can't express —
named by this engine's design brief as a first-class custom operator.
DuckDB's ``ASOF JOIN`` is the oracle.

Physical plan: ONE exchange of both sides on ``key``
(``relational._exchange_sides``, which reads no schema up front); each
bucket sorts both sides by (key, on) and merges each key's run with a
vectorized sorted ``searchsorted`` probe (O((nl+nr) log) per key, no
per-row Python). Partitioning
assumption: one key's rows fit one task — keys are users/devices/
sessions, whose per-key event counts are bounded; a pathological key
needs time-bucketed pre-splitting (carry the last right row of bucket
N into bucket N+1), which composes from this same operator.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def asof_join(left_ds, right_ds, key: str, on: str, how: str = "left",
              direction: str = "backward"):
    """For every left row, the right row with the greatest ``on`` <=
    left's ``on`` (``direction="backward"``, the default), the
    SMALLEST ``on`` >= left's ``on`` (``direction="forward"``), or
    the right row minimizing ``|on - matched_on|`` with equidistant
    ties resolved BACKWARD (``direction="nearest"``) for the same
    ``key`` (ties on equal ``on`` match in all directions).

    Output: all left columns, the right side's non-key/``on`` columns
    (null when unmatched), and ``matched_{on}`` — the matching right
    timestamp. Non-key/``on`` column names must be disjoint.
    ``how``: "left" keeps unmatched lefts; "inner" drops them.
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unknown asof direction: {direction}")
    from .relational import (
        _check_disjoint, _exchange_sides, check_disjoint_inputs,
    )

    check_disjoint_inputs(left_ds, right_ds, [key, on])
    order = [(key, "ascending"), (on, "ascending")]

    def merge_bucket(lt, rt) -> pa.Table:
        if lt is None:  # the left input is empty
            return pa.table({})
        if rt is None:  # the right input is empty: nothing matches
            rt = lt.select([key, on]).slice(0, 0)
        _check_disjoint(lt.column_names, rt.column_names, [key, on])
        lt, rt = lt.sort_by(order), rt.sort_by(order)
        right = {k: (s, n) for k, s, n in _runs(rt[key])}
        parts = [
            _merge_key(lt.slice(s, n), rt.slice(*right.get(k, (0, 0))),
                       key, on, how, direction)
            for k, s, n in _runs(lt[key])
        ]
        return pa.concat_tables(parts) if parts else _merge_key(
            lt, rt.slice(0, 0), key, on, how, direction
        )

    return _exchange_sides(left_ds, right_ds, [key], merge_bucket)


def _runs(col):
    """(value, start, length) per run of equal values of a sorted
    column."""
    vals = col.to_pylist()
    out, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] != vals[start]:
            out.append((vals[start], start, i - start))
            start = i
    return out


def _merge_key(lt, rt, key, on, how, direction) -> pa.Table:
    """As-of merge of one key's left rows ``lt`` with its right rows
    ``rt``, both sorted by ``on``; ``rt``'s schema types the null
    columns of unmatched rows."""
    on_type = lt.schema.field(on).type
    value_fields = [f for f in rt.schema if f.name not in (key, on)]
    n = lt.num_rows
    if rt.num_rows == 0:  # key has no right rows at all
        cols = {name: lt[name] for name in lt.column_names}
        for f in value_fields:
            cols[f.name] = pa.nulls(n, type=f.type)
        cols[f"matched_{on}"] = pa.nulls(n, type=on_type)
        out = pa.Table.from_pydict(cols)
        return out.slice(0, 0) if how == "inner" else out
    # native dtype comparison (datetime64 for timestamps, float
    # stays float) — no int64 cast that would truncate float keys
    lo = lt[on].to_numpy(zero_copy_only=False)
    ro = rt[on].to_numpy(zero_copy_only=False)
    if direction == "backward":
        idx = np.searchsorted(ro, lo, side="right") - 1
        matched = idx >= 0
    elif direction == "forward":
        # forward: smallest right on >= left on (inclusive)
        idx = np.searchsorted(ro, lo, side="left")
        matched = idx < ro.size
    else:  # nearest: smaller |on - matched_on|; ties -> backward
        bi = np.searchsorted(ro, lo, side="right") - 1
        fi = np.searchsorted(ro, lo, side="left")
        has_b = bi >= 0
        has_f = fi < ro.size
        bis = np.clip(bi, 0, ro.size - 1)
        fis = np.clip(fi, 0, ro.size - 1)
        bd = lo - ro[bis]
        fd = ro[fis] - lo
        # timedelta64 distances compare via their integer ticks
        # (both sides share the unit); numeric keys compare as-is
        bdv = bd.view(np.int64) if bd.dtype.kind == "m" else bd
        fdv = fd.view(np.int64) if fd.dtype.kind == "m" else fd
        big = (
            np.inf
            if np.issubdtype(bdv.dtype, np.floating)
            else np.iinfo(np.int64).max
        )
        bdv = np.where(has_b, bdv, big)
        fdv = np.where(has_f, fdv, big)
        idx = np.where(bdv <= fdv, bis, fis)
        matched = has_b | has_f
    safe = pa.array(np.clip(idx, 0, ro.size - 1), pa.int64())
    matched_pa = pa.array(matched, pa.bool_())

    cols = {name: lt[name] for name in lt.column_names}
    for f in value_fields:
        taken = rt[f.name].take(safe).combine_chunks()
        cols[f.name] = pc.if_else(
            matched_pa, taken, pa.nulls(n, type=f.type)
        )
    ron = rt[on].take(safe).combine_chunks()
    cols[f"matched_{on}"] = pc.if_else(
        matched_pa, ron, pa.nulls(n, type=on_type)
    )
    out = pa.Table.from_pydict(cols)
    if how == "inner":
        out = out.filter(matched_pa)
    return out
