"""Relational operators: partitioned hash join, broadcast anti-join.

The reference has no relational joins (SURVEY.md §2.5) — these exist
because a table-shaped corpus needs them, and they demonstrate the two
physical join strategies the engine standardizes on:

* **both sides large** → explicit bucketed hash join: tag the side,
  union, and merge the two sides inside each bucket of one
  ``aggregate.exchange`` on the key. One all-to-all exchange, no
  driver state; hot keys are :func:`skew_routed_join`'s job.
* **one side small** → broadcast semi/anti join: ``ray.put`` the key
  set once, filter inside ``map_batches``.
"""

import functools
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


from ..functions.hashing import hash64_column as _hash64_column
from .aggregate import _BUCKETS, _bucket, exchange


_ARROW_JOIN_TYPE = {
    "inner": "inner",
    "left": "left outer",
    "right": "right outer",
    "outer": "full outer",
    # anti/semi emit LEFT columns only — the partitioned spelling of
    # the blocklist / exists-already patterns for when the filter side
    # outgrows a broadcast set
    "anti": "left anti",
    "semi": "left semi",
}


def _key_hashes(batch: pa.Table, keys: List[str]) -> np.ndarray:
    """uint64 key hash per row, XORed over composite keys (the
    exchange's bucketing hash)."""
    h = _hash64_column(batch[keys[0]])
    for extra in keys[1:]:
        h = h ^ _hash64_column(batch[extra])
    return h


@functools.lru_cache(maxsize=None)
def _bucket_markers() -> pa.Array:
    """One int64 ``__h`` per exchange bucket: the i-th value lands in
    bucket i."""
    h = pa.table({"h": pa.array(np.arange(64 * _BUCKETS), pa.int64())})
    b = _bucket(h, ["h"]).to_numpy()
    return pa.array([int(np.argmax(b == i)) for i in range(_BUCKETS)])


def _tag_side(side: str, keys: List[str]):
    """Tag one side's batch for :func:`_exchange_sides`: its own columns
    renamed ``side|name``, ``__side``, and ``__h`` (the key hash). One
    null MARKER row per bucket rides along: it carries the side's
    column names and types into every bucket, so a bucket that holds
    no row of this side still knows its schema."""

    def fn(batch: pa.Table) -> pa.Table:
        names = [f"{side}|{c}" for c in batch.column_names] + [
            "__side", "__h"
        ]
        n, m = batch.num_rows, _BUCKETS
        rows = pa.Table.from_arrays(
            batch.columns
            + [
                pa.repeat(pa.scalar(side), n),
                pa.array(_key_hashes(batch, keys).view(np.int64)),
            ],
            names=names,
        )
        markers = pa.Table.from_arrays(
            [pa.nulls(m, f.type) for f in batch.schema]
            + [pa.nulls(m, pa.string()), _bucket_markers()],
            names=names,
        )
        return pa.concat_tables([rows, markers])

    return fn


def _split_side(group: pa.Table, side: str):
    """One side's rows of a bucket under its own column names, or None
    when that side sent no batch at all (an empty input)."""
    prefix = side + "|"
    cols = [c for c in group.column_names if c.startswith(prefix)]
    if not cols:
        return None
    own = group.filter(pc.equal(group["__side"], side)).select(cols)
    return own.rename_columns([c[len(prefix):] for c in cols])


def _exchange_sides(left_ds, right_ds, keys: List[str], fn):
    """ONE ``aggregate.exchange`` of both sides on ``keys``: ``fn(l, r)``
    runs once per bucket with each side's rows of the bucket (a side
    that is empty everywhere is None). No side's schema is read up
    front — each batch carries its own, so empty and schema-less
    inputs are legal."""
    tagged = left_ds.map_batches(
        _tag_side("l", keys), batch_format="pyarrow"
    ).union(
        right_ds.map_batches(_tag_side("r", keys), batch_format="pyarrow")
    )
    return exchange(
        tagged,
        "__h",
        lambda g: fn(_split_side(g, "l"), _split_side(g, "r")),
    )


def _check_disjoint(left_names, right_names, keys: List[str]) -> None:
    overlap = (set(left_names) & set(right_names)) - set(keys)
    if overlap:
        raise ValueError(f"overlapping non-key columns: {overlap}")


def check_disjoint_inputs(left_ds, right_ds, keys: List[str]) -> None:
    """Raise early on overlapping non-key columns when both inputs'
    schemas are already known (materialized inputs); lazy inputs are
    checked per bucket instead. Never executes anything."""
    ls = left_ds.schema(fetch_if_missing=False)
    rs = right_ds.schema(fetch_if_missing=False)
    if ls is not None and rs is not None:
        _check_disjoint(ls.names, rs.names, keys)


def _unify_keys(lf: pa.Table, rf: pa.Table, keys: List[str]):
    """Cast both sides' key columns to one type (int32 vs int64 and the
    like), as a union of the two sides would."""
    for k in keys:
        lt, rt = lf.schema.field(k).type, rf.schema.field(k).type
        if lt != rt:
            typ = pa.unify_schemas(
                [pa.schema([(k, lt)]), pa.schema([(k, rt)])],
                promote_options="permissive",
            ).field(k).type
            lf = lf.set_column(lf.schema.get_field_index(k), k,
                               lf[k].cast(typ))
            rf = rf.set_column(rf.schema.get_field_index(k), k,
                               rf[k].cast(typ))
    return lf, rf


def partitioned_hash_join(
    left_ds,
    right_ds,
    key,
    how: str = "inner",
):
    """Join two large Datasets on ``key`` — one column name or a LIST
    of names (composite key) — without broadcast.

    Column names (other than the keys) must be disjoint. Returns the
    joined Dataset; the exchange is one ``aggregate.exchange`` on the
    key hash, and each bucket is merged with the Arrow (Acero) hash
    join — no pandas, no dtype widening. Composite keys bucket on
    the XOR of the per-column hashes (bucket collisions only co-locate
    rows; the Acero join matches on the REAL key columns, so hashing
    never affects correctness). Non-key columns must be
    Acero-joinable (fixed-width, string or binary); encode list
    columns as binary blobs first (see ``stages/neardup.py``).

    No schema is read before the join runs. A side without rows (even
    one without a schema) is an empty side: the result then carries
    only the other side's columns.
    """
    keys: List[str] = [key] if isinstance(key, str) else list(key)
    if how in ("anti", "semi"):
        # only the right side's KEYS matter: project them before the
        # exchange so the shuffle never moves the filter side's payload
        right_ds = right_ds.map_batches(
            lambda b: b.select(keys), batch_format="pyarrow"
        )
    check_disjoint_inputs(left_ds, right_ds, keys)
    join_type = _ARROW_JOIN_TYPE[how]

    def keys_only(other: pa.Table) -> pa.Table:
        return pa.schema([other.schema.field(k) for k in keys]).empty_table()

    def join_bucket(lf, rf) -> pa.Table:
        lf = keys_only(rf) if lf is None else lf
        rf = keys_only(lf) if rf is None else rf
        _check_disjoint(lf.column_names, rf.column_names, keys)
        lf, rf = _unify_keys(lf, rf, keys)
        return lf.join(rf, keys=keys, join_type=join_type)

    return _exchange_sides(left_ds, right_ds, keys, join_bucket)


def broadcast_anti_join(ds, key: str, blocked_keys):
    """Keep rows whose ``key`` is NOT in ``blocked_keys`` (the
    broadcast anti-join / blocklist-filter pattern); the per-batch
    probe is one vectorized Arrow ``is_in``."""
    import ray

    ref = ray.put(pa.array(list(blocked_keys)))

    def keep(batch: pa.Table) -> pa.Table:
        blocked = ray.get(ref)
        if len(blocked) == 0:
            return batch
        return batch.filter(
            pc.invert(pc.is_in(batch[key], value_set=blocked))
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def pivot_wide(grain_ds, row_col: str, col_col: str,
               categories: List[str]):
    """PIVOT: reshape the (row, col, n) grain into one wide row per
    ``row_col`` value with a count column per DECLARED category.

    The category list is explicit by contract — a pivot whose column
    set depends on the data has an unstable schema and unbounded
    width; declaring it keeps the operator scale-safe in the row
    dimension (any row_col cardinality: the reshape is a per-group
    task over the already-tiny grain, never a driver pull). Values of
    ``col_col`` outside ``categories`` raise (silent drops would
    under-report)."""
    cats = list(categories)

    def widen(g: pa.Table) -> pa.Table:
        have = dict(
            zip(g[col_col].to_pylist(),
                (int(v) for v in g["n"].to_pylist()))
        )
        unknown = set(have) - set(cats)
        if unknown:
            raise ValueError(
                f"pivot_wide: {col_col} values {sorted(unknown)} not in "
                f"declared categories {cats}"
            )
        cols = {row_col: pa.array([g[row_col][0].as_py()])}
        for c in cats:
            cols[c] = pa.array([have.get(c, 0)], pa.int64())
        return pa.Table.from_pydict(cols)

    return grain_ds.groupby(row_col).map_groups(
        widen, batch_format="pyarrow"
    )


def grouped_mode(grain_ds, row_col: str, col_col: str):
    """MODE per group: the most frequent ``col_col`` value per
    ``row_col`` (ties broken by smallest value — deterministic, the
    SQL ``row_number() ... ORDER BY n DESC, col`` spelling), computed
    on the counted grain so no raw row ever shuffles."""

    def pick(g: pa.Table) -> pa.Table:
        vals = np.asarray(g[col_col].to_pylist())
        ns = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, -ns))  # n desc, value asc
        i = order[0]
        return pa.Table.from_pydict(
            {
                row_col: pa.array([g[row_col][0].as_py()]),
                "top_" + col_col: pa.array([vals[i]], pa.string()),
                "n": pa.array([int(ns[i])], pa.int64()),
            }
        )

    return grain_ds.groupby(row_col).map_groups(
        pick, batch_format="pyarrow"
    )


def bloom_prefiltered_join(
    left_ds,
    right_ds,
    key,
    how: str = "inner",
    n_bits: int = 1 << 22,
    k: int = 4,
):
    """Bucketed hash join with a Bloom pre-filter: build a Bloom over
    the RIGHT side's keys (tree-merged partials, see
    ``dedup.build_key_bloom``), broadcast the bits once, and drop
    probe (left) rows that definitely have no match BEFORE the
    exchange — the classic join-pruning sidecar for a selective build
    side. False positives just ride through to the exact Acero join,
    so the result is IDENTICAL to :func:`partitioned_hash_join`; what
    changes is shuffle volume (~selectivity of the build side, e.g. a
    20%-selective dim filter prunes ~80% of the probe exchange minus
    the FP rate). Size ``n_bits`` ~10 bits per expected build-side
    key.

    Only ``inner`` and ``semi`` are legal: those are the joins where a
    probe row without a build-side match contributes nothing. (An
    anti join could use the Bloom the other way — emit definite
    non-members directly — but that is a different plan.) Composite
    keys hash as in the underlying join (XOR of per-column hashes).
    """
    if how not in ("inner", "semi"):
        raise ValueError(
            f"bloom_prefiltered_join: how={how!r} would drop rows that "
            "belong in the result; only inner/semi are prunable"
        )
    import ray

    from .dedup import build_key_bloom

    keys: List[str] = [key] if isinstance(key, str) else list(key)

    if len(keys) == 1:
        bloom = build_key_bloom(
            right_ds, col=keys[0], n_bits=n_bits, k=k
        )

        def key_hashes(batch: pa.Table) -> np.ndarray:
            return _hash64_column(batch[keys[0]])

    else:
        # composite: insert the XOR-combined hash, same as bucketing
        from ..functions.sketches import BloomFilter

        def key_hashes(batch: pa.Table) -> np.ndarray:
            return _key_hashes(batch, keys)

        def partial(batch: pa.Table) -> pa.Table:
            bf = BloomFilter(n_bits, k)
            bf.add_hashes(key_hashes(batch))
            return pa.Table.from_pydict(
                {"blob": pa.array([bf.serialize()], pa.large_binary())}
            )

        def merge_rows(batch: pa.Table) -> pa.Table:
            bf = BloomFilter(n_bits, k)
            for blob in batch["blob"].to_pylist():
                bf.merge(BloomFilter.deserialize(blob, n_bits, k))
            return pa.Table.from_pydict(
                {"blob": pa.array([bf.serialize()], pa.large_binary())}
            )

        bloom = BloomFilter(n_bits, k)
        # same merge TREE as build_key_bloom: driver sees <= 8 blobs,
        # not one per input block
        partials = (
            right_ds.select_columns(keys)
            .map_batches(partial, batch_format="pyarrow", batch_size=None)
            .repartition(8)
            .map_batches(merge_rows, batch_format="pyarrow",
                         batch_size=None)
        )
        for b in partials.iter_batches(batch_format="pyarrow"):
            for blob in b["blob"].to_pylist():
                bloom.merge(BloomFilter.deserialize(blob, n_bits, k))

    bref = ray.put(bloom)

    def prune(batch: pa.Table) -> pa.Table:
        bf = ray.get(bref)
        maybe = bf.contains_hashes(key_hashes(batch))
        return batch.filter(pa.array(maybe))

    pruned = left_ds.map_batches(prune, batch_format="pyarrow")
    return partitioned_hash_join(pruned, right_ds, key, how=how)


def skew_routed_join(
    left_ds,
    right_ds,
    key: str,
    how: str = "inner",
    hot_keys=None,
    hot_fraction: float = 0.02,
    candidates_per_batch: int = 16,
    max_broadcast_rows: int = 100_000,
    detect_rows: int = 250_000,
):
    """Bucketed hash join with HOT-KEY routing — the salting answer to
    probe-side key skew. A key holding a large fraction of the probe
    stream turns one reduce task into the whole job's straggler under
    any hash partitioning; replicating the (small) build rows for just
    those keys removes the skew without touching the cold path.

    Plan: (1) detect hot keys from probe-side per-batch count partials
    (tiny driver merge; or pass ``hot_keys`` explicitly — e.g. known
    boilerplate domains), (2) split both sides with a vectorized
    ``is_in``, (3) cold rows take :func:`partitioned_hash_join`
    unchanged, (4) hot probe rows join against the broadcast build
    rows of the hot keys inside ``map_batches`` (no exchange at all
    for the skewed mass), (5) union. Results are identical to the
    unrouted join (pinned in pytest) because routing is a disjoint
    partition of the key space.

    ``inner``/``semi`` only (the split is a row-disjoint partition of
    each side's MATCHING rows; outer/anti semantics would need
    null-extension bookkeeping across the two plans). Guard:
    broadcast build rows are capped at ``max_broadcast_rows`` — a
    build side that is itself huge on a hot key means the join is a
    near-cross-product and needs a different algorithm, so raise
    loudly rather than OOM quietly.

    Hot detection is HEURISTIC (per-batch top-``candidates_per_batch``
    partials): a key spread thinly across batches can evade it, which
    only costs the cold path its usual skew, never correctness.
    """
    if how not in ("inner", "semi"):
        raise ValueError(
            f"skew_routed_join: how={how!r} unsupported; only "
            "inner/semi partition cleanly across the two routes"
        )
    import ray

    if hot_keys is None:
        from collections import Counter

        def count_partial(batch: pa.Table) -> pa.Table:
            vc = pc.value_counts(batch[key].combine_chunks())
            if len(vc) == 0:
                return pa.table(
                    {"k": batch[key].slice(0, 0),
                     "n": pa.array([], pa.int64()),
                     "rows": pa.array([], pa.int64())}
                )
            order = pc.array_sort_indices(
                vc.field("counts"), order="descending"
            ).slice(0, candidates_per_batch)
            n_out = len(order)
            return pa.Table.from_pydict(
                {
                    "k": pc.take(vc.field("values"), order),
                    "n": pc.take(vc.field("counts"), order),
                    "rows": pa.array(
                        [batch.num_rows] + [0] * (n_out - 1), pa.int64()
                    ),
                }
            )

        merged: Counter = Counter()
        total = 0
        # SAMPLED detection: hot keys are by definition dense in any
        # large prefix, so cap the scan at ``detect_rows`` instead of
        # paying a full extra pass; a missed hot key only costs the
        # cold path its usual skew, never correctness.
        for b in (
            left_ds.select_columns([key])
            .limit(detect_rows)
            .map_batches(count_partial, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        ):
            total += int(pc.sum(b["rows"]).as_py() or 0)
            for kv, n in zip(b["k"].to_pylist(), b["n"].to_pylist()):
                merged[kv] += n
        hot_keys = [
            kv for kv, n in merged.items()
            if total and n >= hot_fraction * total
        ]

    if not hot_keys:
        return partitioned_hash_join(left_ds, right_ds, key, how=how)

    hot_set = pa.array(list(hot_keys))

    def split(ds, want_hot: bool):
        def fn(batch: pa.Table) -> pa.Table:
            m = pc.is_in(batch[key], value_set=hot_set)
            return batch.filter(m if want_hot else pc.invert(m))

        return ds.map_batches(fn, batch_format="pyarrow")

    # broadcast the hot build rows once (bounded + guarded). iter
    # rather than take_all: stops accumulating right at the guard.
    hot_tables = []
    n_hot_rows = 0
    for t in split(right_ds, True).iter_batches(batch_format="pyarrow"):
        hot_tables.append(t)
        n_hot_rows += t.num_rows
        if n_hot_rows > max_broadcast_rows:
            break
    joined_cold = partitioned_hash_join(
        split(left_ds, False),
        split(right_ds, False),
        key,
        how=how,
    )
    if not n_hot_rows:  # hot keys absent from the build side
        return joined_cold
    hot_build = pa.concat_tables(hot_tables)
    if hot_build.num_rows > max_broadcast_rows:
        raise ValueError(
            f"skew_routed_join: {hot_build.num_rows} hot build rows "
            f"exceed max_broadcast_rows={max_broadcast_rows}; the hot "
            "keys are not a small-dim pattern — use a different plan"
        )
    build_ref = ray.put(hot_build)
    join_type = _ARROW_JOIN_TYPE[how]

    def hot_join(batch: pa.Table) -> pa.Table:
        build = ray.get(build_ref)
        if how == "semi":
            return batch.join(
                build.select([key]), keys=[key], join_type=join_type
            )
        return batch.join(build, keys=[key], join_type=join_type)

    joined_hot = split(left_ds, True).map_batches(
        hot_join, batch_format="pyarrow"
    )
    return joined_cold.union(joined_hot)


def unpivot_long(wide_ds, row_col: str, categories: List[str],
                 col_name: str = "col", val_name: str = "n"):
    """UNPIVOT/melt — the inverse of :func:`pivot_wide`: each wide row
    explodes to one (row, category, value) row per declared category.
    Pure per-batch reshape (numpy repeat/tile), no exchange; the
    declared-category contract mirrors the pivot side."""
    cats = list(categories)

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        k = len(cats)
        rows = pc.take(
            batch[row_col].combine_chunks(),
            pa.array(np.repeat(np.arange(n), k)),
        )
        col = pa.array(np.tile(np.asarray(cats, dtype=object), n))
        # category-blocked concat -> row-major interleave via one take
        vals = pa.concat_arrays(
            [batch[c].combine_chunks() for c in cats]
        )
        order = np.arange(n * k).reshape(k, n).T.ravel()
        vals = pc.take(vals, pa.array(order))
        return pa.Table.from_arrays(
            [rows, col, vals], names=[row_col, col_name, val_name]
        )

    return wide_ds.map_batches(melt, batch_format="pyarrow")
