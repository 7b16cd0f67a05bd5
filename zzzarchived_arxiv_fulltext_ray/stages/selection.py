"""Exact distributed order-statistic selection (k-th smallest).

``lang_p90_filter`` / ``lang_length_median`` compute exact quantiles
through a (key -> count) value histogram — correct and cheap while the
key domain is bounded (lengths, scores in cents at modest range), but
the histogram degenerates to row count when values are near-unique
over a huge domain. This stage is the scale-general complement: the
classic ITERATIVE BUCKET REFINEMENT selection (distributed
quickselect over the value domain), the same gap-closer for quantiles
that ``window.global_row_number_sorted`` is for ranking.

Plan per pass (int64 columns):

1. driver holds a live range [lo, hi] and the target's residual rank
   ``k_rem`` inside it (pass 0 seeds [min, max] from one aggregate);
2. one projected scan: each batch bincounts its in-range values into
   ``num_buckets`` equal-width buckets (a fixed 8 KiB int64 vector per
   block — NO per-value state anywhere);
3. the driver prefix-sums the merged vector, descends into the bucket
   containing ``k_rem``, and tightens [lo, hi].

Each pass shrinks the range by ~num_buckets x, so passes =
ceil(log_B(domain)) — at B=4096 a full int64 domain takes 6 scans, a
cents-scale domain 1-2. When the live range itself fits one bucket
vector (width 1), the value is read off exactly. Total driver state:
one int64[num_buckets] per pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .aggregate import aggregate

__all__ = [
    "distributed_kth_value",
    "distributed_quantile_disc",
    "distributed_quantile_cont",
]


def _range_histogram(ds, col: str, lo: int, hi: int, num_buckets: int,
                     width: int) -> np.ndarray:
    """One scan: int64[num_buckets] counts of in-[lo, hi] values."""

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[col].to_numpy(zero_copy_only=False)
        x = x[(x >= lo) & (x <= hi)]
        b = ((x - lo) // width).astype(np.int64)
        counts = np.bincount(b, minlength=num_buckets)[:num_buckets]
        return pa.Table.from_pydict(
            {"h": pa.array([counts], pa.list_(pa.int64()))}
        )

    total = np.zeros(num_buckets, dtype=np.int64)
    partials = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", batch_size=None
    )
    for t in partials.iter_batches(batch_format="pyarrow"):
        for row in t["h"].to_pylist():
            total += np.asarray(row, dtype=np.int64)
    return total


def _value_range(ds, col: str):
    """(min, max) of ``col`` over its non-null values; (None, None)
    when it has none."""
    agg = aggregate(
        ds.select_columns([col]), [], [("lo", "min", col), ("hi", "max", col)]
    )
    return agg["lo"], agg["hi"]


def _row_count(ds, col: str) -> int:
    """Rows of ``ds``, counted on the one projected column."""
    return aggregate(ds.select_columns([col]), [], [("n", "count", None)])["n"]


def distributed_kth_value(
    ds, col: str, k: int, num_buckets: int = 4096
) -> int:
    """Exact k-th smallest (1-based) of an int64 column.

    Raises if ``k`` exceeds the row count. NULLs are excluded (SQL
    aggregate semantics)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lo, hi = _value_range(ds, col)
    if lo is None:
        raise ValueError("distributed_kth_value: no non-null values")
    lo, hi = int(lo), int(hi)
    k_rem = k

    while True:
        span = hi - lo + 1
        width = max(1, -(-span // num_buckets))  # ceil div
        counts = _range_histogram(ds, col, lo, hi, num_buckets, width)
        csum = np.cumsum(counts)
        if k_rem > int(csum[-1]):
            raise ValueError(
                f"k={k_rem} exceeds {int(csum[-1])} in-range rows "
                "(k larger than the non-null row count?)"
            )
        b = int(np.searchsorted(csum, k_rem))
        if b > 0:
            k_rem -= int(csum[b - 1])
        lo = lo + b * width
        hi = min(hi, lo + width - 1)
        if width == 1:
            return lo


def distributed_quantile_disc(
    ds, col: str, q: float, num_buckets: int = 4096
) -> "tuple[int, int]":
    """Exact discrete quantile: the value at rank ceil(q * n) — the
    repo's integer-arithmetic convention that matches DuckDB
    ``quantile_disc`` (see lang_p90_filter). Returns (value, n).

    The row count comes from one projected count; the selection adds
    ceil(log_B(domain)) scans."""
    n = _row_count(ds, col)
    if n == 0:
        raise ValueError("distributed_quantile_disc: empty column")
    # rank = ceil(q * n) in INTEGER arithmetic: q as a fraction over a
    # power of 10 avoids float 0.9*10 != 9 artifacts
    num, den = round(q * 10**6), 10**6
    k = max(1, -(-(num * n) // den))
    return distributed_kth_value(ds, col, k, num_buckets=num_buckets), n


def distributed_quantile_cont(
    ds, col: str, q: float, num_buckets: int = 4096
) -> "tuple[float, int]":
    """Exact continuous (interpolated) quantile — SQL
    ``quantile_cont`` semantics: position q*(n-1) over the 0-based
    sorted order, linear interpolation between the straddling order
    statistics. Both order statistics come from
    :func:`distributed_kth_value`; the interpolation mirrors the SQL
    formula term-for-term in float64. Returns (value, n)."""
    n = _row_count(ds, col)
    if n == 0:
        raise ValueError("distributed_quantile_cont: empty column")
    pos = q * (n - 1)
    lo_i = int(np.floor(pos))
    hi_i = int(np.ceil(pos))
    x_lo = distributed_kth_value(ds, col, lo_i + 1,
                                 num_buckets=num_buckets)
    if hi_i == lo_i:
        return float(x_lo), n
    x_hi = distributed_kth_value(ds, col, hi_i + 1,
                                 num_buckets=num_buckets)
    return float(x_lo) + (float(x_hi) - float(x_lo)) * (pos - lo_i), n


def grouped_quantile_disc(
    ds, group_col: str, col: str, q: float, num_buckets: int = 4096
) -> "list[tuple]":
    """GROUPED exact discrete quantile over an unbounded value domain:
    every group runs the same bucket-refinement selection, and all
    groups share each scan — one pass bincounts every active group's
    in-range values into a (groups x num_buckets) matrix via a single
    vectorized ``np.add.at``.

    Driver state: groups x num_buckets int64 per pass (G bounded by
    contract — e.g. event types, languages; a grouped quantile over
    unbounded group cardinality wants the count-histogram plan or a
    per-group shuffle instead). Passes = ceil(log_B(max domain)).
    Rank convention = ceil(q * n_g), matching DuckDB quantile_disc.
    Returns [(group, value, n_g), ...] sorted by group."""
    stats = (
        aggregate(
            ds.select_columns([group_col, col]),
            group_col,
            [("lo", "min", col), ("hi", "max", col), ("n", "count", None)],
        )
        .to_pandas()
        .sort_values(group_col)
    )
    groups = stats[group_col].to_numpy()
    lo = stats["lo"].to_numpy().astype(np.int64).copy()
    hi = stats["hi"].to_numpy().astype(np.int64).copy()
    n = stats["n"].to_numpy().astype(np.int64)
    num, den = round(q * 10**6), 10**6
    k_rem = np.maximum(1, -(-(num * n) // den))
    G = len(groups)
    active = lo < hi  # width-1 ranges are already resolved

    # group value -> index mapping for the scan (groups are sorted)
    gkeys = np.asarray(groups)

    while active.any():
        span = hi - lo + 1
        width = np.maximum(1, -(-span // num_buckets))
        lo_c, width_c, act_c = lo.copy(), width.copy(), active.copy()

        def partial(batch: pa.Table) -> pa.Table:
            gv = np.asarray(batch[group_col].to_pylist())
            gi = np.searchsorted(gkeys, gv)
            # guard stray keys (none expected: stats came from ds)
            ok = (gi < G) & (gkeys[np.minimum(gi, G - 1)] == gv)
            x = batch[col].to_numpy(zero_copy_only=False)
            m = (
                ok
                & act_c[np.minimum(gi, G - 1)]
                & (x >= lo_c[np.minimum(gi, G - 1)])
                & (x <= lo_c[np.minimum(gi, G - 1)]
                   + width_c[np.minimum(gi, G - 1)] * num_buckets - 1)
            )
            gi, x = gi[m], x[m]
            b = np.minimum(
                (x - lo_c[gi]) // width_c[gi], num_buckets - 1
            ).astype(np.int64)
            mat = np.zeros(G * num_buckets, dtype=np.int64)
            np.add.at(mat, gi * num_buckets + b, 1)
            return pa.Table.from_pydict(
                {"h": pa.array([mat], pa.list_(pa.int64()))}
            )

        total = np.zeros(G * num_buckets, dtype=np.int64)
        parts = ds.select_columns([group_col, col]).map_batches(
            partial, batch_format="pyarrow", batch_size=None
        )
        for t in parts.iter_batches(batch_format="pyarrow"):
            for row in t["h"].to_pylist():
                total += np.asarray(row, dtype=np.int64)
        mat = total.reshape(G, num_buckets)

        for g in range(G):
            if not active[g]:
                continue
            csum = np.cumsum(mat[g])
            b = int(np.searchsorted(csum, k_rem[g]))
            if b > 0:
                k_rem[g] -= int(csum[b - 1])
            lo[g] = lo[g] + b * int(width[g])
            hi[g] = min(int(hi[g]), int(lo[g]) + int(width[g]) - 1)
            if width[g] == 1:
                active[g] = False
        active &= lo < hi  # fully narrowed ranges are resolved

    return [
        (groups[g], int(lo[g]), int(n[g])) for g in range(G)
    ]


def distributed_kth_values(
    ds, col: str, ks, num_buckets: int = 4096
) -> "dict[int, int]":
    """Multi-k selection: all requested order statistics refine in
    LOCKSTEP, sharing every scan — one (targets x num_buckets) count
    matrix per pass instead of a separate selection per k (a
    three-quartile query needs up to six order statistics; this
    collapses ~6x the scans into the pass count of one). Same
    per-pass driver-state bound, multiplied by len(ks)."""
    targets = sorted(set(int(k) for k in ks))
    if not targets:
        return {}
    if targets[0] < 1:
        raise ValueError(f"k must be >= 1, got {targets[0]}")
    glo, ghi = _value_range(ds, col)
    if glo is None:
        raise ValueError("distributed_kth_values: no non-null values")
    T = len(targets)
    lo = np.full(T, int(glo), dtype=np.int64)
    hi = np.full(T, int(ghi), dtype=np.int64)
    k_rem = np.asarray(targets, dtype=np.int64)
    active = np.ones(T, dtype=bool)
    out: dict = {}

    while active.any():
        span = hi - lo + 1
        width = np.maximum(1, -(-span // num_buckets))
        lo_c, width_c, act = lo.copy(), width.copy(), active.copy()

        def partial(batch: pa.Table) -> pa.Table:
            x = batch[col].to_numpy(zero_copy_only=False)
            mat = np.zeros((T, num_buckets), dtype=np.int64)
            for t in range(T):
                if not act[t]:
                    continue
                xt = x[(x >= lo_c[t])
                       & (x <= lo_c[t] + width_c[t] * num_buckets - 1)]
                b = np.minimum(
                    (xt - lo_c[t]) // width_c[t], num_buckets - 1
                )
                mat[t] = np.bincount(
                    b.astype(np.int64), minlength=num_buckets
                )[:num_buckets]
            return pa.Table.from_pydict(
                {"h": pa.array([mat.ravel()], pa.list_(pa.int64()))}
            )

        total = np.zeros(T * num_buckets, dtype=np.int64)
        parts = ds.select_columns([col]).map_batches(
            partial, batch_format="pyarrow", batch_size=None
        )
        for tb in parts.iter_batches(batch_format="pyarrow"):
            for row in tb["h"].to_pylist():
                total += np.asarray(row, dtype=np.int64)
        mat = total.reshape(T, num_buckets)

        for t in range(T):
            if not active[t]:
                continue
            csum = np.cumsum(mat[t])
            if k_rem[t] > int(csum[-1]):
                raise ValueError(
                    f"k={targets[t]} exceeds the non-null row count"
                )
            b = int(np.searchsorted(csum, k_rem[t]))
            if b > 0:
                k_rem[t] -= int(csum[b - 1])
            lo[t] = lo[t] + b * int(width[t])
            hi[t] = min(int(hi[t]), int(lo[t]) + int(width[t]) - 1)
            if width[t] == 1 or lo[t] == hi[t]:
                out[targets[t]] = int(lo[t])
                active[t] = False

    return out


def _range_weight_histogram(ds, col: str, wcol: str, lo: int, hi: int,
                            num_buckets: int, width: int) -> np.ndarray:
    """One scan: int64[num_buckets] WEIGHT sums of in-[lo, hi] values
    (exact integer accumulation — never float bincount weights)."""

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[col].to_numpy(zero_copy_only=False)
        w = batch[wcol].to_numpy(zero_copy_only=False)
        m = (x >= lo) & (x <= hi)
        b = ((x[m] - lo) // width).astype(np.int64)
        acc = np.zeros(num_buckets, dtype=np.int64)
        np.add.at(acc, b, w[m])
        return pa.Table.from_pydict(
            {"h": pa.array([acc], pa.list_(pa.int64()))}
        )

    total = np.zeros(num_buckets, dtype=np.int64)
    partials = ds.select_columns([col, wcol]).map_batches(
        partial, batch_format="pyarrow", batch_size=None
    )
    for t in partials.iter_batches(batch_format="pyarrow"):
        for row in t["h"].to_pylist():
            total += np.asarray(row, dtype=np.int64)
    return total


def distributed_weighted_kth(
    ds, col: str, wcol: str, k_w: int, num_buckets: int = 4096
) -> int:
    """Smallest value v whose cumulative WEIGHT (sum of ``wcol`` over
    rows with value <= v, ascending) reaches ``k_w`` — the weighted
    order statistic; with k_w = (W+1)//2 it is the lower weighted
    median. Same iterative bucket-refinement plan as
    :func:`distributed_kth_value` with weight sums in the histogram;
    weights must be non-negative int64 (exact arithmetic contract —
    asserted per scan via the total never decreasing)."""
    if k_w < 1:
        raise ValueError(f"k_w must be >= 1, got {k_w}")
    lo, hi = _value_range(ds, col)
    if lo is None:
        raise ValueError("distributed_weighted_kth: no non-null values")
    lo, hi = int(lo), int(hi)
    k_rem = k_w

    while True:
        span = hi - lo + 1
        width = max(1, -(-span // num_buckets))
        sums = _range_weight_histogram(
            ds, col, wcol, lo, hi, num_buckets, width
        )
        assert (sums >= 0).all(), (
            "distributed_weighted_kth: negative weights violate the "
            "exact-selection contract"
        )
        csum = np.cumsum(sums)
        if k_rem > int(csum[-1]):
            raise ValueError(
                f"k_w={k_rem} exceeds in-range weight {int(csum[-1])}"
            )
        b = int(np.searchsorted(csum, k_rem))
        if b > 0:
            k_rem -= int(csum[b - 1])
        lo = lo + b * width
        hi = min(hi, lo + width - 1)
        if width == 1:
            return lo


def distributed_weighted_median(
    ds, col: str, wcol: str, num_buckets: int = 4096
) -> "tuple[int, int]":
    """Lower weighted median: the smallest value whose cumulative
    weight reaches ceil(W/2) (W = total weight, integer arithmetic).
    Returns (value, W)."""
    w_total = int(
        aggregate(ds.select_columns([wcol]), [], [("w", "sum", wcol)])["w"]
    )
    if w_total <= 0:
        raise ValueError("distributed_weighted_median: no weight")
    k_w = (w_total + 1) // 2
    return (
        distributed_weighted_kth(ds, col, wcol, k_w,
                                 num_buckets=num_buckets),
        w_total,
    )
