"""Exact distributed quantiles: one entry, :func:`quantiles`.

Every exact quantile of the engine — global or grouped, plain or
weighted, discrete (DuckDB ``quantile_disc``) or interpolated
(``quantile_cont``) — is one call::

    quantiles(ds, value, {"p50": 0.5, "p90": Fraction(9, 10)},
              by="lang", weight=None, interpolate=False)

It returns a pandas DataFrame, one row per group sorted by ``by``:
the group key, ``n`` (non-null values, or their total weight), ``lo``
and ``hi`` (min and max value) and one column per named q. NULL
values are skipped (SQL aggregate semantics); a group whose total
weight is 0 gets a NULL quantile.

Ranks are exact: each q is a :class:`fractions.Fraction` (a float is
read as ``Fraction(str(q))``, so 0.9 is 9/10) and the rank is
ceil(q*n) in integer arithmetic — DuckDB's ``quantile_disc``. A
weighted quantile is the smallest value whose cumulative weight
reaches the rank. ``interpolate=True`` is ``quantile_cont``: position
q*(n-1) over the sorted order, linearly interpolated in float64
between the two straddling order statistics.

Plan:

* **Pass 0, one execution.** Each block is reduced by Arrow
  ``group_by([by, value])`` to (group, value, count-or-weight) rows.
  A block with more than ``_BUCKETS`` distinct pairs sends only one
  (group, lo, hi, n) row per group instead. The driver merges the
  partials as they stream in.
* **The decision.** If every block sent its exact histogram and
  ``plan.broadcast`` takes the merged histogram (its rows and bytes,
  as held on the driver), every rank is read off its prefix sums and
  the call ends after that one execution. A histogram that outgrows
  ``plan.ROW_CAP`` rows while it streams in is dropped to the
  summaries at once.
* **Otherwise ONE lockstep refinement** runs over every
  (group, rank) target, seeded from pass 0's lo/hi/n: each pass scans
  once into a (targets x ``_BUCKETS``) count-or-weight matrix of
  equal-width buckets over each target's live [lo, hi], and the driver
  descends every target into the bucket holding its residual rank.
  A pass shrinks each range ~``_BUCKETS``-fold, so a ±10^12 domain
  resolves in 4 passes, a cents-scale domain in 1-2; no per-value
  state exists anywhere.

``GRAFT_FORCE_PARTITIONED=1`` makes ``plan.broadcast`` decline the
read-off, so the oracle gate run in that mode covers the refinement
branch on every quantile query.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import plan

__all__ = ["quantiles"]

# equal-width buckets per target and refinement pass; also the most
# (group, value) rows one block sends in pass 0
_BUCKETS = 4096
# pass-0 partial tables held on the driver before they are merged
_MERGE_EVERY = 64


def _fraction(q) -> Fraction:
    """``q`` as an exact fraction in [0, 1]; a float through its
    shortest decimal repr (0.9 -> 9/10, never 0.900000000000000022)."""
    f = q if isinstance(q, Fraction) else Fraction(
        str(q) if isinstance(q, float) else q
    )
    if not 0 <= f <= 1:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return f


def _rank(q: Fraction, n: int) -> int:
    """1-based rank ceil(q*n) in integer arithmetic (at least 1) —
    DuckDB's ``quantile_disc``."""
    return max(1, -(-(q.numerator * n) // q.denominator))


def _cont_ranks(q: Fraction, n: int):
    """(position, floor rank, ceil rank) of ``quantile_cont``: the
    float position q*(n-1) and the 1-based ranks straddling it."""
    pos = float(q) * (n - 1)
    return pos, int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1


def _keys(by: Optional[str]) -> list:
    return [by] if by else []


def _pass0(ds, value: str, by: Optional[str], weight: Optional[str]):
    """Per-block (group, lo, hi, n) rows: exact (lo == hi == value) when
    the block holds at most ``_BUCKETS`` distinct pairs, else one
    summary row per group."""
    keys = _keys(by)
    cols = keys + [value] + ([weight] if weight else [])
    agg = [(weight, "sum")] if weight else [([], "count_all")]
    n_name = f"{weight}_sum" if weight else "count_all"

    def partial(block: pa.Table) -> pa.Table:
        t = block.filter(pc.is_valid(block[value]))
        for c in [value] + ([weight] if weight else []):
            t = t.set_column(t.schema.get_field_index(c), c,
                             pc.cast(pc.fill_null(t[c], 0), pa.int64()))
        h = t.group_by(keys + [value], use_threads=False).aggregate(agg)
        if h.num_rows <= _BUCKETS:
            return pa.Table.from_arrays(
                [h[k] for k in keys] + [h[value], h[value], h[n_name]],
                names=keys + ["lo", "hi", "n"],
            )
        s = t.group_by(keys, use_threads=False).aggregate(
            [(value, "min"), (value, "max")] + agg
        )
        return pa.Table.from_arrays(
            [s[k] for k in keys]
            + [s[f"{value}_min"], s[f"{value}_max"], s[n_name]],
            names=keys + ["lo", "hi", "n"],
        )

    return ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow", batch_size=None
    )


def _merge(t: pa.Table, keys: list, exact: bool) -> pa.Table:
    """Merge pass-0 rows: the histogram by (group, value) while every
    block was exact, else the per-group (lo, hi, n) summaries."""
    if exact:
        m = t.group_by(keys + ["lo"], use_threads=False).aggregate(
            [("n", "sum")]
        )
        return pa.Table.from_arrays(
            [m[k] for k in keys] + [m["lo"], m["lo"], m["n_sum"]],
            names=keys + ["lo", "hi", "n"],
        )
    m = t.group_by(keys, use_threads=False).aggregate(
        [("lo", "min"), ("hi", "max"), ("n", "sum")]
    )
    return pa.Table.from_arrays(
        [m[k] for k in keys] + [m["lo_min"], m["hi_max"], m["n_sum"]],
        names=keys + ["lo", "hi", "n"],
    )


def _histogram_or_summary(ds, value, by, weight):
    """Stream pass 0 into the driver. Returns (table, exact): the merged
    histogram with ``exact`` True when ``plan.broadcast`` takes it, or
    the per-group summaries."""
    keys = _keys(by)
    parts, exact = [], True

    def fold(tables, exact):
        t = _merge(pa.concat_tables(tables), keys, exact)
        if exact and t.num_rows > plan.ROW_CAP:
            return _merge(t, keys, False), False
        return t, exact

    for t in _pass0(ds, value, by, weight).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        if not t.num_rows:
            continue
        if exact and not pc.all(pc.equal(t["lo"], t["hi"])).as_py():
            exact = False
        parts.append(t)
        if len(parts) >= _MERGE_EVERY:
            merged, exact = fold(parts, exact)
            parts = [merged]
    if not parts:
        return None, exact
    t, exact = fold(parts, exact)
    if exact and not plan.broadcast("quantiles", t.num_rows, t.nbytes):
        return _merge(t, keys, False), False
    return t, exact


def _read_off(hist: pa.Table, keys: list, base: np.ndarray,
              ranks: np.ndarray) -> np.ndarray:
    """Values at ``ranks`` (groups x R) off the exact histogram's prefix
    sums; ``base`` is the total count of the groups before each group,
    in the same key order."""
    h = hist.sort_by([(k, "ascending") for k in keys] + [("lo", "ascending")])
    cum = np.cumsum(h["n"].to_numpy())
    idx = np.searchsorted(cum, base[:, None] + ranks, side="left")
    return h["lo"].to_numpy()[np.minimum(idx, len(cum) - 1)]


def _refine(ds, value, by, weight, groups, lo, hi, ranks):
    """Lockstep bucket refinement of every (group, rank) target.

    ``groups`` is the Arrow array of group keys (None without ``by``);
    ``lo``/``hi`` the per-group value range; ``ranks`` (G x R) the
    1-based ranks (cumulative weights when weighted). Returns the
    (G x R) values."""
    G, R = ranks.shape
    T = G * R
    lo = np.repeat(lo.astype(np.int64), R)
    hi = np.repeat(hi.astype(np.int64), R)
    k_rem = ranks.reshape(-1).astype(np.int64)
    cols = _keys(by) + [value] + ([weight] if weight else [])

    while (lo < hi).any():
        width = np.maximum(1, -(-(hi - lo + 1) // _BUCKETS))
        lo_c, hi_c, width_c = lo.copy(), hi.copy(), width.copy()

        def partial(block: pa.Table) -> pa.Table:
            x = block[value]
            ok = pc.is_valid(x)
            if by:
                gi = pc.index_in(block[by],
                                 value_set=groups.cast(block[by].type),
                                 skip_nulls=False)
                ok = pc.and_(ok, pc.is_valid(gi))
                gi = pc.fill_null(gi, 0).to_numpy(
                    zero_copy_only=False).astype(np.int64)
            else:
                gi = np.zeros(block.num_rows, dtype=np.int64)
            ok = ok.to_numpy(zero_copy_only=False)
            x = pc.fill_null(pc.cast(x, pa.int64()), 0).to_numpy(
                zero_copy_only=False)
            w = (pc.fill_null(pc.cast(block[weight], pa.int64()), 0)
                 .to_numpy(zero_copy_only=False) if weight else None)
            mat = np.zeros(T * _BUCKETS, dtype=np.int64)
            for j in range(R):
                t = gi * R + j
                m = ok & (x >= lo_c[t]) & (x <= hi_c[t]) \
                    & (lo_c[t] < hi_c[t])
                t = t[m]
                cell = t * _BUCKETS + (x[m] - lo_c[t]) // width_c[t]
                if weight is None:
                    mat += np.bincount(cell, minlength=T * _BUCKETS)
                else:
                    np.add.at(mat, cell, w[m])
            return pa.table({"h": mat})

        total = np.zeros(T * _BUCKETS, dtype=np.int64)
        parts = ds.select_columns(cols).map_batches(
            partial, batch_format="pyarrow", batch_size=None
        )
        for t in parts.iter_batches(batch_size=None,
                                    batch_format="pyarrow"):
            if t.num_rows:
                total += t["h"].to_numpy().reshape(-1, T * _BUCKETS).sum(0)
        cs = np.cumsum(total.reshape(T, _BUCKETS), axis=1)
        live = lo < hi
        b = (cs < k_rem[:, None]).sum(axis=1)
        b = np.where(live, b, 0)
        below = np.where(b > 0, cs[np.arange(T), np.maximum(b - 1, 0)], 0)
        k_rem = np.where(live, k_rem - below, k_rem)
        lo = np.where(live, lo + b * width, lo)
        hi = np.where(live, np.minimum(hi, lo + width - 1), hi)
    return lo.reshape(G, R)


def quantiles(
    ds,
    value: str,
    qs: Mapping[str, object],
    by: Optional[str] = None,
    weight: Optional[str] = None,
    interpolate: bool = False,
) -> pd.DataFrame:
    """Exact quantiles of the integer column ``value`` of ``ds``.

    ``qs`` maps output column names to quantiles in [0, 1]
    (:class:`~fractions.Fraction`, int or float). ``by`` groups by one
    column; ``weight`` (non-negative integers, NULL as 0) makes every
    quantile weighted; ``interpolate`` gives ``quantile_cont`` (not
    with ``weight``). See the module docstring for the plan."""
    if interpolate and weight:
        raise ValueError("quantiles: interpolate does not take a weight")
    names = list(qs)
    fqs = [_fraction(qs[k]) for k in names]
    keys = _keys(by)
    per_q = 2 if interpolate else 1
    R = max(1, per_q * len(fqs))
    tab, exact = _histogram_or_summary(ds, value, by, weight)
    if tab is None:
        return pd.DataFrame(
            {c: [] for c in keys + ["n", "lo", "hi"] + names}
        )
    summary = _merge(tab, keys, False) if exact else tab
    if keys:
        summary = summary.sort_by([(k, "ascending") for k in keys])
    n = summary["n"].to_numpy()
    lo, hi = summary["lo"].to_numpy(), summary["hi"].to_numpy()

    ranks = np.ones((len(n), R), dtype=np.int64)
    pos = np.zeros((len(n), len(fqs)))
    for g, n_g in enumerate(n.tolist()):
        for j, q in enumerate(fqs):
            if interpolate:
                pos[g, j], ranks[g, 2 * j], ranks[g, 2 * j + 1] = \
                    _cont_ranks(q, n_g)
            else:
                ranks[g, j] = _rank(q, n_g)
    if exact:
        base = np.concatenate([[0], np.cumsum(n)[:-1]])
        vals = _read_off(tab, keys, base, ranks)
    else:
        groups = summary[by].combine_chunks() if by else None
        # a group without weight has nothing to refine
        vals = _refine(ds, value, by, weight, groups, lo,
                       np.where(n > 0, hi, lo), ranks)

    out = {k: summary[k].to_pandas() for k in keys}
    out.update(n=n, lo=lo, hi=hi)
    for j, name in enumerate(names):
        if interpolate:
            x_lo = vals[:, 2 * j].astype(np.float64)
            x_hi = vals[:, 2 * j + 1].astype(np.float64)
            p = pos[:, j]
            out[name] = np.where(
                ranks[:, 2 * j] == ranks[:, 2 * j + 1],
                x_lo, x_lo + (x_hi - x_lo) * (p - np.floor(p)),
            )
        elif (n == 0).any():  # weight 0 in total: NULL
            out[name] = pd.Series(vals[:, j]).astype("Int64").mask(n == 0)
        else:
            out[name] = vals[:, j]
    return pd.DataFrame(out)
