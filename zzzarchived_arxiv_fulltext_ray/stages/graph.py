"""Distributed triangle counting / clustering coefficient over an
undirected edge list.

The classic degree-ordered node-iterator (wedge-closure) algorithm,
expressed in Ray Data primitives:

1. degree per node — a count through ``stages/aggregate.py`` (Arrow
   partial per batch, bucketed merge; never a whole-adjacency
   shuffle);
2. orient every edge from its lower-``(degree, id)`` endpoint to the
   higher one — after this orientation every node's OUT-degree is
   O(sqrt(m)) for any graph (Chiba-Nishizeki / Schank-Wagner), so no
   per-node hot spot survives and wedge volume is bounded by m^1.5;
3. wedges: group oriented edges by source, emit ordered out-neighbor
   pairs (numpy ``triu_indices``, vectorized);
4. closure: a bucketed hash semi-join of wedges against the oriented
   edge set on the composite (src, dst) key — ONE exchange, no
   broadcast adjacency.

Degree attachment uses two :func:`partitioned_hash_join` passes
(edges x degrees on u, then on v) — all exchanges are hash-bucketed;
driver state is O(1) (five scalar statistics).

Reference parity note: the reference engine has no graph operators;
this extends the near-dup/link-graph family (components, pagerank)
with the standard local-structure statistic a crawl-graph / dup-graph
analysis needs.
"""

import logging
from typing import Optional

import numpy as np
import pyarrow as pa

from . import plan as plan_choice
from .aggregate import aggregate

logger = logging.getLogger(__name__)


def _degrees(edges_ds, out: str = "d"):
    """(node, ``out``) degrees of an undirected (u, v) edge list: each
    edge counts once at each endpoint."""

    def endpoints(batch: pa.Table) -> pa.Table:
        node = pa.concat_arrays(
            [batch["u"].combine_chunks(), batch["v"].combine_chunks()]
        )
        return pa.table({"node": node.cast(pa.int64())})

    return aggregate(edges_ds, "node", [(out, "count", None)], rows=endpoints)


def _canonicalize(edges_ds):
    """Force u < v, drop self-loops, global distinct. The distinct is
    a keys-only ``stages/aggregate.py`` (Arrow partial and bucketed
    Arrow merge) — never a per-pair ``map_groups`` dispatch."""

    def canon(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi
        return pa.Table.from_pydict(
            {
                "u": pa.array(lo[keep], pa.int64()),
                "v": pa.array(hi[keep], pa.int64()),
            }
        )

    return aggregate(edges_ds, ["u", "v"], [], rows=canon)


def triangle_stats(
    edges_ds,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    method: str = "auto",
    broadcast_limit: int = 2_000_000,
):
    """Exact triangle count + global clustering coefficient of the
    undirected graph given as an edge list (columns ``u``, ``v``,
    int64). Returns a one-row pandas DataFrame
    ``(n_nodes, n_edges, n_wedges, n_triangles, global_clustering)``
    with exact integer statistics and
    ``global_clustering = 3.0 * n_triangles / n_wedges`` (0.0 for a
    wedge-free graph) — a single float expression of exact ints, so a
    SQL oracle reproduces it bit-for-bit.

    Two physical plans, ``latest_crawl``-style auto crossover on the
    canonical edge count:

    * ``"broadcast"`` (<= ``broadcast_limit`` edges): degrees and the
      oriented edge set (packed into int64 via compact node indices)
      ship once via ``ray.put``; orientation is a lookup map stage and
      closure is probed INSIDE the wedge UDF (searchsorted against
      the broadcast packed set) — TWO exchanges total (degree groupby
      + wedge bucket groupby), O(n_nodes + n_edges) driver state.
    * ``"partitioned"``: no driver state — two bucketed degree joins
      + a bucketed semi-join of wedges against oriented edges. The
      100x-scale path.

    Both plans are pinned equal in pytest.
    ``assume_canonical=True`` skips the dedup exchange when the input
    is already u<v, loop-free and distinct (e.g. built by an upstream
    groupby)."""

    from .relational import partitioned_hash_join

    # normalize first: empty input blocks (pandas-backed repartition
    # leftovers) carry no column types and would poison the joins'
    # schema inference — force every block to a typed (u, v) table
    def as_typed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.Table.from_pydict(
                {"u": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "u": pc.cast(batch["u"].combine_chunks(), pa.int64()),
                "v": pc.cast(batch["v"].combine_chunks(), pa.int64()),
            }
        )

    import pandas as pd

    edges_ds = edges_ds.map_batches(as_typed, batch_format="pyarrow")
    edges = edges_ds if assume_canonical else _canonicalize(edges_ds)
    edges = edges.materialize()  # reused by degrees + 2 joins + count

    n_edges = edges.count()
    if n_edges == 0:
        # an empty materialized Dataset reports schema None, which the
        # join path can't use — and the answer is known anyway
        return pd.DataFrame(
            {
                "n_nodes": [np.int64(0)],
                "n_edges": [np.int64(0)],
                "n_wedges": [np.int64(0)],
                "n_triangles": [np.int64(0)],
                "global_clustering": [0.0],
            }
        )

    if method not in ("auto", "broadcast", "partitioned"):
        raise ValueError(f"unknown triangle_stats method: {method}")
    if method == "auto":
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n_edges, broadcast_limit, est_row_bytes=16
            )
            else "partitioned"
        )

    # -- degrees: one grouped count (stages/aggregate.py)
    degrees_ds = _degrees(edges)

    if method == "broadcast":
        return _triangles_broadcast(
            edges, degrees_ds, n_edges, num_buckets
        )

    degrees = degrees_ds.materialize()
    n_nodes = degrees.count()

    # wedge total = sum C(d, 2) — tiny partial-sum tree
    def wedge_partial(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {"w": pa.array([int((d * (d - 1) // 2).sum())], pa.int64())}
        )

    wrow = (
        degrees.map_batches(wedge_partial, batch_format="pyarrow")
        .sum("w")
    )
    n_wedges = int(wrow) if wrow is not None else 0

    # -- attach degrees to both endpoints (two bucketed joins)
    def rename(cols):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(cols)

        return fn

    deg_u = degrees.map_batches(rename(["u", "deg_u"]),
                                batch_format="pyarrow")
    deg_v = degrees.map_batches(rename(["v", "deg_v"]),
                                batch_format="pyarrow")
    with_du = partitioned_hash_join(edges, deg_u, "u",
                                    num_buckets=num_buckets)
    with_dv = partitioned_hash_join(with_du, deg_v, "v",
                                    num_buckets=num_buckets)

    # -- orient: lower (deg, id) -> higher (deg, id)
    def orient(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        du = batch["deg_u"].to_numpy(zero_copy_only=False)
        dv = batch["deg_v"].to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        ddst = np.where(u_first, dv, du)
        return pa.Table.from_pydict(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "dst_deg": pa.array(ddst, pa.int64()),
            }
        )

    oriented = with_dv.map_batches(
        orient, batch_format="pyarrow"
    ).materialize()  # reused: wedge gen + closure probe

    # -- wedges per source, out-neighbors ordered by (deg, id).
    # COALESCED exchange: bucket src by hash into ``num_buckets``
    # groups so the per-group UDF dispatch count is num_buckets, not
    # n_nodes (measured: per-node map_groups cost 30+ s on a 1k-node
    # graph purely in dispatch overhead); inside a bucket, all
    # sources are processed with one lexsort + per-source triu loops.
    from ..functions.hashing import bucket_of_column

    def tag_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__b",
            pa.array(
                bucket_of_column(batch["src"], num_buckets), pa.int64()
            ),
        )

    def wedges_of_bucket(group: pa.Table) -> pa.Table:
        src = group["src"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        dd = group["dst_deg"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dst, dd, src))
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]])
        )
        ends = np.append(starts[1:], src.size)
        out_v, out_w = [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2:
                continue
            ii, jj = np.triu_indices(n, k=1)
            out_v.append(dst[s:e][ii])
            out_w.append(dst[s:e][jj])
        if not out_v:
            return pa.Table.from_pydict(
                {"src": pa.array([], pa.int64()),
                 "dst": pa.array([], pa.int64())}
            )
        return pa.Table.from_pydict(
            {
                "src": pa.array(np.concatenate(out_v), pa.int64()),
                "dst": pa.array(np.concatenate(out_w), pa.int64()),
            }
        )

    wedges = (
        oriented.map_batches(tag_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(wedges_of_bucket, batch_format="pyarrow")
    )

    closed = partitioned_hash_join(
        wedges,
        oriented.map_batches(
            lambda b: b.select(["src", "dst"]), batch_format="pyarrow"
        ),
        ["src", "dst"],
        num_buckets=num_buckets,
        how="semi",
    )
    n_triangles = closed.count()

    clustering = 3.0 * n_triangles / n_wedges if n_wedges > 0 else 0.0
    return pd.DataFrame(
        {
            "n_nodes": [np.int64(n_nodes)],
            "n_edges": [np.int64(n_edges)],
            "n_wedges": [np.int64(n_wedges)],
            "n_triangles": [np.int64(n_triangles)],
            "global_clustering": [clustering],
        }
    )


def _triangles_broadcast(edges, degrees_ds, n_edges, num_buckets):
    """Small-graph plan: degrees + the oriented edge set (packed to
    int64 via compact node indices) broadcast once; closure probed
    inside the wedge UDF. Two exchanges, zero joins."""
    import pandas as pd
    import ray

    from ..functions.hashing import bucket_of_column

    deg_df = degrees_ds.to_pandas()
    nodes = deg_df["node"].to_numpy().astype(np.int64)
    degs = deg_df["d"].to_numpy().astype(np.int64)
    order = np.argsort(nodes)
    nodes, degs = nodes[order], degs[order]
    n_nodes = nodes.size
    n_wedges = int((degs * (degs - 1) // 2).sum())

    # oriented packed edge set: compact index of lower-(deg, id)
    # endpoint in the high 32 bits (n_nodes <= 2 * broadcast_limit
    # always fits int32)
    def pack(u, v):
        iu = np.searchsorted(nodes, u)
        iv = np.searchsorted(nodes, v)
        du, dv = degs[iu], degs[iv]
        u_first = (du < dv) | ((du == dv) & (u < v))
        isrc = np.where(u_first, iu, iv)
        idst = np.where(u_first, iv, iu)
        return (isrc.astype(np.int64) << 32) | idst.astype(np.int64)

    packed_parts = [
        pack(
            b["u"].to_numpy(zero_copy_only=False),
            b["v"].to_numpy(zero_copy_only=False),
        )
        for b in edges.iter_batches(batch_format="pyarrow")
    ]
    packed_sorted = np.sort(
        np.concatenate(packed_parts) if packed_parts
        else np.empty(0, np.int64)
    )
    state_ref = ray.put((nodes, degs, packed_sorted))

    # one map stage: orient via broadcast lookup + bucket tag
    def orient_tag(batch: pa.Table) -> pa.Table:
        nd, dg, _ = ray.get(state_ref)
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        iu = np.searchsorted(nd, u)
        iv = np.searchsorted(nd, v)
        du, dv = dg[iu], dg[iv]
        u_first = (du < dv) | ((du == dv) & (u < v))
        isrc = np.where(u_first, iu, iv).astype(np.int64)
        idst = np.where(u_first, iv, iu).astype(np.int64)
        ddst = np.where(u_first, dv, du).astype(np.int64)
        t = pa.Table.from_pydict(
            {
                "isrc": pa.array(isrc, pa.int64()),
                "idst": pa.array(idst, pa.int64()),
                "dst_deg": pa.array(ddst, pa.int64()),
            }
        )
        return t.append_column(
            "__b",
            pa.array(
                bucket_of_column(t["isrc"], num_buckets), pa.int64()
            ),
        )

    # wedge gen + closure probe fused in the bucket UDF
    def count_of_bucket(group: pa.Table) -> pa.Table:
        _, _, pk = ray.get(state_ref)
        src = group["isrc"].to_numpy(zero_copy_only=False)
        dst = group["idst"].to_numpy(zero_copy_only=False)
        dd = group["dst_deg"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dst, dd, src))
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]])
        ) if src.size else np.empty(0, np.int64)
        ends = np.append(starts[1:], src.size)
        total = 0
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2:
                continue
            ii, jj = np.triu_indices(n, k=1)
            w = (dst[s:e][ii] << 32) | dst[s:e][jj]
            pos = np.searchsorted(pk, w)
            pos[pos >= pk.size] = 0
            total += int((pk[pos] == w).sum()) if pk.size else 0
        return pa.Table.from_pydict(
            {"t": pa.array([total], pa.int64())}
        )

    trow = (
        edges.map_batches(orient_tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(count_of_bucket, batch_format="pyarrow")
        .sum("t")
    )
    n_triangles = int(trow) if trow is not None else 0
    clustering = 3.0 * n_triangles / n_wedges if n_wedges > 0 else 0.0
    return pd.DataFrame(
        {
            "n_nodes": [np.int64(n_nodes)],
            "n_edges": [np.int64(n_edges)],
            "n_wedges": [np.int64(n_wedges)],
            "n_triangles": [np.int64(n_triangles)],
            "global_clustering": [clustering],
        }
    )


def bfs_hops(
    edges_ds,
    seeds,
    max_hops: int = 4,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    method: str = "auto",
    broadcast_limit: int = 2_000_000,
):
    """Multi-source BFS over the undirected edge list: minimum hop
    count from any seed, truncated at ``max_hops``. Returns a Ray
    Dataset ``(node, hops)`` — seeds at hop 0 (whether or not they
    have edges), every other reached node at its first-visit level.

    Two physical plans (auto crossover on canonical edge count):

    * ``"broadcast"`` (<= ``broadcast_limit`` edges): the symmetric
      adjacency is pulled once into a driver CSR (sorted src array +
      offsets) and levels expand via numpy ``unique``/membership —
      zero exchanges after the canonicalize.
    * ``"partitioned"``: the frontier stays a Dataset. Each level is
      (a) a bucketed SEMI-join of the symmetric adjacency against the
      frontier on ``src`` (only adjacency rows leaving the frontier
      move), (b) a distinct on the neighbor set (partial per-batch
      ``np.unique`` shrinks the exchange), (c) a bucketed ANTI-join
      against the visited set. Driver state per level is O(1) (one
      count); frontier/visited are re-pinned each round
      (:func:`components.pin_loop_state` — constant block count +
      severed lineage, the iterative-Dataset contract).

    The truncation makes the operator SQL-expressible: a recursive
    CTE bounded by ``hop < max_hops`` enumerates finitely many
    (node, hop) pairs even on cyclic graphs, and ``min(hop)`` matches
    first-visit levels exactly. Plans pinned equal in pytest."""
    import ray.data as rd

    from .components import pin_loop_state
    from .relational import partitioned_hash_join

    def as_typed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.Table.from_pydict(
                {"u": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "u": pc.cast(batch["u"].combine_chunks(), pa.int64()),
                "v": pc.cast(batch["v"].combine_chunks(), pa.int64()),
            }
        )

    edges_ds = edges_ds.map_batches(as_typed, batch_format="pyarrow")
    edges = edges_ds if assume_canonical else _canonicalize(edges_ds)
    edges = edges.materialize()
    n_edges = edges.count()

    # seeds: a Dataset with a `node` column, or a python iterable
    if hasattr(seeds, "map_batches"):
        seed_arr = np.unique(
            np.concatenate(
                [
                    b["node"].to_numpy(zero_copy_only=False)
                    for b in seeds.iter_batches(batch_format="pyarrow")
                    if b.num_rows
                ]
                or [np.empty(0, np.int64)]
            ).astype(np.int64)
        )
    else:
        seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seed_arr.size == 0:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {"node": pa.array([], pa.int64()),
                 "hops": pa.array([], pa.int64())}
            )
        )

    if method not in ("auto", "broadcast", "partitioned"):
        raise ValueError(f"unknown bfs_hops method: {method}")
    if method == "auto":
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n_edges, broadcast_limit, est_row_bytes=16
            )
            else "partitioned"
        )

    if n_edges == 0:
        # an empty materialized edge set reports schema None, which
        # the join family can't consume — and the answer is the seeds
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(seed_arr, pa.int64()),
                    "hops": pa.array(
                        np.zeros(seed_arr.size, np.int64)
                    ),
                }
            )
        )

    if method == "broadcast":
        # driver CSR: symmetric edges sorted by src
        parts = [
            (
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            )
            for b in edges.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        if parts:
            us = np.concatenate([p[0] for p in parts] + [p[1] for p in parts])
            vs = np.concatenate([p[1] for p in parts] + [p[0] for p in parts])
            order = np.argsort(us, kind="stable")
            us, vs = us[order], vs[order]
        else:
            us = vs = np.empty(0, np.int64)
        visited_nodes = seed_arr
        visited_hops = np.zeros(seed_arr.size, np.int64)
        frontier = seed_arr
        for hop in range(1, max_hops + 1):
            if frontier.size == 0 or us.size == 0:
                break
            lo = np.searchsorted(us, frontier, side="left")
            hi = np.searchsorted(us, frontier, side="right")
            spans = [vs[s:e] for s, e in zip(lo, hi) if e > s]
            if not spans:
                break
            nbrs = np.unique(np.concatenate(spans))
            new = nbrs[~np.isin(nbrs, visited_nodes)]
            if new.size == 0:
                break
            visited_nodes = np.concatenate([visited_nodes, new])
            visited_hops = np.concatenate(
                [visited_hops, np.full(new.size, hop, np.int64)]
            )
            frontier = new
        order = np.argsort(visited_nodes)
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(visited_nodes[order], pa.int64()),
                    "hops": pa.array(visited_hops[order], pa.int64()),
                }
            )
        )

    # ---- partitioned plan: frontier/visited stay Datasets
    def symmetrize(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "src": pa.array(np.concatenate([u, v]), pa.int64()),
                "dst": pa.array(np.concatenate([v, u]), pa.int64()),
            }
        )

    adj = edges.map_batches(
        symmetrize, batch_format="pyarrow"
    ).materialize()  # reused every level

    def distinct_nodes(ds, col):
        return aggregate(
            ds,
            "node",
            [],
            rows=lambda b: pa.table({"node": b[col].cast(pa.int64())}),
        )

    seed_tbl = pa.Table.from_pydict(
        {
            "node": pa.array(seed_arr, pa.int64()),
            "hops": pa.array(np.zeros(seed_arr.size, np.int64)),
        }
    )
    visited = pin_loop_state(rd.from_arrow(seed_tbl), num_blocks=None)
    frontier = visited.select_columns(["node"])
    for hop in range(1, max_hops + 1):
        reached = partitioned_hash_join(
            adj,
            frontier.map_batches(
                lambda b: b.rename_columns(["src"]),
                batch_format="pyarrow",
            ),
            "src",
            num_buckets=num_buckets,
            how="semi",
        ).map_batches(
            lambda b: b.select(["dst"]).rename_columns(["node"]),
            batch_format="pyarrow",
        )
        # pin ONCE per level, count the pinned refs, reuse — never
        # re-execute the semi-join plan (and an all-empty neighbor
        # set must not reach the anti-join: schema-less inputs raise)
        nbrs = pin_loop_state(
            distinct_nodes(reached, "node"), num_blocks=None
        )
        if nbrs.count() == 0:
            break
        new = pin_loop_state(
            partitioned_hash_join(
                nbrs,
                visited.select_columns(["node"]),
                "node",
                num_buckets=num_buckets,
                how="anti",
            ),
            num_blocks=None,
        )
        if new.count() == 0:
            break

        def with_hop(batch: pa.Table, h=hop) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "node": batch["node"].combine_chunks(),
                    "hops": pa.array(
                        np.full(batch.num_rows, h, np.int64)
                    ),
                }
            )

        tagged = new.map_batches(with_hop, batch_format="pyarrow")
        visited = pin_loop_state(visited.union(tagged), num_blocks=8)
        frontier = new
    return visited


def kcore_peel(
    edges_ds,
    k: int = 3,
    rounds: int = 3,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    method: str = "auto",
    broadcast_limit: int = 2_000_000,
):
    """``rounds`` iterations of k-core peeling: repeatedly drop nodes
    of degree < ``k`` and their incident edges. Returns a Ray Dataset
    ``(node, degree)`` — the surviving nodes with their degrees on
    the surviving edge set. A FIXED round count (with early stop once
    a round removes nothing — the remaining rounds would be no-ops)
    keeps the operator SQL-expressible by unrolling, unlike
    full-fixpoint coreness.

    Broadcast plan: edges pulled once, numpy peel on the driver.
    Partitioned plan (the scale path): each round is one degree
    aggregate (batch partials) + TWO bucketed semi-joins of the edge
    set against the surviving nodes (on u, then v); the edge Dataset
    is re-pinned every round (constant block count + severed lineage
    — the iterative contract). Driver state per round is O(1). Plans
    pinned equal in pytest."""
    import ray.data as rd

    from .components import pin_loop_state
    from .relational import partitioned_hash_join

    def as_typed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.Table.from_pydict(
                {"u": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "u": pc.cast(batch["u"].combine_chunks(), pa.int64()),
                "v": pc.cast(batch["v"].combine_chunks(), pa.int64()),
            }
        )

    edges_ds = edges_ds.map_batches(as_typed, batch_format="pyarrow")
    edges = edges_ds if assume_canonical else _canonicalize(edges_ds)
    edges = edges.materialize()
    n_edges = edges.count()

    empty = pa.Table.from_pydict(
        {"node": pa.array([], pa.int64()),
         "degree": pa.array([], pa.int64())}
    )
    if n_edges == 0:
        return rd.from_arrow(empty)

    if method not in ("auto", "broadcast", "partitioned"):
        raise ValueError(f"unknown kcore_peel method: {method}")
    if method == "auto":
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n_edges, broadcast_limit, est_row_bytes=16
            )
            else "partitioned"
        )

    if method == "broadcast":
        parts = [
            (
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            )
            for b in edges.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        us = np.concatenate([p[0] for p in parts])
        vs = np.concatenate([p[1] for p in parts])
        for _ in range(rounds):
            if us.size == 0:
                break
            nodes, counts = np.unique(
                np.concatenate([us, vs]), return_counts=True
            )
            keep = nodes[counts >= k]
            m = np.isin(us, keep) & np.isin(vs, keep)
            if m.all():
                break
            us, vs = us[m], vs[m]
        nodes, counts = np.unique(
            np.concatenate([us, vs]), return_counts=True
        ) if us.size else (np.empty(0, np.int64), np.empty(0, np.int64))
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "degree": pa.array(counts, pa.int64()),
                }
            )
        )

    # ---- partitioned plan
    cur = pin_loop_state(edges, num_blocks=8)
    n_cur = n_edges
    for _ in range(rounds):
        keep = (
            _degrees(cur, "degree")
            .filter(expr=f"degree >= {k}")
            .select_columns(["node"])
        )
        keep = pin_loop_state(keep, num_blocks=None)
        if keep.count() == 0:
            return rd.from_arrow(empty)
        kept_u = partitioned_hash_join(
            cur,
            keep.map_batches(
                lambda b: b.rename_columns(["u"]),
                batch_format="pyarrow",
            ),
            "u",
            num_buckets=num_buckets,
            how="semi",
        )
        kept = partitioned_hash_join(
            kept_u,
            keep.map_batches(
                lambda b: b.rename_columns(["v"]),
                batch_format="pyarrow",
            ),
            "v",
            num_buckets=num_buckets,
            how="semi",
        )
        kept = pin_loop_state(kept, num_blocks=8)
        n_kept = kept.count()
        if n_kept == 0:
            return rd.from_arrow(empty)
        converged = n_kept == n_cur
        cur, n_cur = kept, n_kept
        if converged:
            break  # remaining rounds are no-ops
    return _degrees(cur, "degree")


def cooccurrence_edges(
    ds,
    group_col: str,
    item_col: str,
    min_count: int = 1,
    max_group: int = 256,
    keep_count: bool = False,
) -> "object":
    """Undirected co-occurrence edge list: items sharing a group form
    a pair; an edge survives if the pair co-occurs in >= ``min_count``
    distinct groups. One COALESCED exchange on the hashed group key
    (a fixed 64 UDF dispatches, each handling all its groups with one
    lexsort + per-group numpy pair generation — never a per-group
    map_groups dispatch, which costs tens of seconds in pure overhead
    on 10k+ small groups), one exchange on the pair key (the count
    aggregate). Groups larger than ``max_group`` items are dropped
    AND logged — the hot-key contract shared with the neardup bucket
    pair generator. ``keep_count=True`` keeps the distinct-group
    count as column ``n`` (market-basket support counts)."""

    from ..functions.hashing import bucket_of_column

    num_buckets = 64

    def tag_bucket(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "g": batch[group_col].combine_chunks(),
                "item": batch[item_col].combine_chunks(),
                "__b": pa.array(
                    bucket_of_column(batch[group_col], num_buckets),
                    pa.int64(),
                ),
            }
        )

    def pairs_of_bucket(group: pa.Table) -> pa.Table:
        g = group["g"].to_numpy(zero_copy_only=False)
        items = group["item"].to_numpy(zero_copy_only=False)
        if g.size == 0:
            return pa.Table.from_pydict(
                {"u": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
        order = np.lexsort((items, g))
        g, items = g[order], items[order]
        # drop duplicate (group, item) rows after the sort
        keep = np.concatenate(
            [[True], (g[1:] != g[:-1]) | (items[1:] != items[:-1])]
        )
        g, items = g[keep], items[keep]
        starts = np.flatnonzero(
            np.concatenate([[True], g[1:] != g[:-1]])
        )
        ends = np.append(starts[1:], g.size)
        out_u, out_v = [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n > max_group:
                logger.warning(
                    "cooccurrence_edges: dropping hot group key=%s "
                    "with %d items (max_group=%d)",
                    g[s], n, max_group,
                )
                continue
            if n < 2:
                continue
            ii, jj = np.triu_indices(n, k=1)
            out_u.append(items[s:e][ii])
            out_v.append(items[s:e][jj])
        if not out_u:
            return pa.Table.from_pydict(
                {"u": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
        return pa.Table.from_pydict(
            {
                "u": pa.array(np.concatenate(out_u), pa.int64()),
                "v": pa.array(np.concatenate(out_v), pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(tag_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(pairs_of_bucket, batch_format="pyarrow")
    )

    counted = aggregate(pairs, ["u", "v"], [("n", "count", None)])
    if min_count > 1:
        counted = counted.filter(
            expr=f"n >= {min_count}"
        )
    if keep_count:
        return counted.select_columns(["u", "v", "n"])
    return counted.select_columns(["u", "v"])


def local_clustering(
    edges_ds,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    method: str = "auto",
    broadcast_limit: int = 2_000_000,
):
    """Per-node triangle counts + local clustering coefficient
    ``c(v) = 2.0 * tri(v) / (d(v) * (d(v) - 1))`` (0.0 below degree
    2). Returns a Ray Dataset ``(node, degree, n_triangles,
    local_clustering)`` — one row per node, so the result itself
    stays distributed on the scale path.

    Same two physical plans as :func:`triangle_stats` (auto crossover
    on edge count): the broadcast plan attributes each closed wedge to
    its three corners inside the wedge UDF (numpy ``add.at`` on a
    per-bucket count vector); the partitioned plan keeps the wedge
    CENTER through the closure join, fans each closed wedge out to
    three (node, 1) rows, and aggregates — no driver state. Pinned
    equal in pytest and against a 3-way-join SQL oracle."""
    import pandas as pd
    import ray
    import ray.data as rd

    from ..functions.hashing import bucket_of_column
    from .relational import partitioned_hash_join

    def as_typed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.Table.from_pydict(
                {"u": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "u": pc.cast(batch["u"].combine_chunks(), pa.int64()),
                "v": pc.cast(batch["v"].combine_chunks(), pa.int64()),
            }
        )

    edges_ds = edges_ds.map_batches(as_typed, batch_format="pyarrow")
    edges = edges_ds if assume_canonical else _canonicalize(edges_ds)
    edges = edges.materialize()
    n_edges = edges.count()
    empty = pa.Table.from_pydict(
        {
            "node": pa.array([], pa.int64()),
            "degree": pa.array([], pa.int64()),
            "n_triangles": pa.array([], pa.int64()),
            "local_clustering": pa.array([], pa.float64()),
        }
    )
    if n_edges == 0:
        return rd.from_arrow(empty)

    if method not in ("auto", "broadcast", "partitioned"):
        raise ValueError(f"unknown local_clustering method: {method}")
    if method == "auto":
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n_edges, broadcast_limit, est_row_bytes=16
            )
            else "partitioned"
        )

    degrees_ds = _degrees(edges)

    if method == "broadcast":
        deg_df = degrees_ds.to_pandas()
        nodes = deg_df["node"].to_numpy().astype(np.int64)
        degs = deg_df["d"].to_numpy().astype(np.int64)
        order = np.argsort(nodes)
        nodes, degs = nodes[order], degs[order]

        def pack(u, v):
            iu = np.searchsorted(nodes, u)
            iv = np.searchsorted(nodes, v)
            du, dv = degs[iu], degs[iv]
            u_first = (du < dv) | ((du == dv) & (u < v))
            isrc = np.where(u_first, iu, iv)
            idst = np.where(u_first, iv, iu)
            return (isrc.astype(np.int64) << 32) | idst.astype(np.int64)

        packed = [
            pack(
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            )
            for b in edges.iter_batches(batch_format="pyarrow")
        ]
        packed_sorted = np.sort(
            np.concatenate(packed) if packed else np.empty(0, np.int64)
        )
        state_ref = ray.put((nodes, degs, packed_sorted))

        def orient_tag(batch: pa.Table) -> pa.Table:
            nd, dg, _ = ray.get(state_ref)
            u = batch["u"].to_numpy(zero_copy_only=False)
            v = batch["v"].to_numpy(zero_copy_only=False)
            iu = np.searchsorted(nd, u)
            iv = np.searchsorted(nd, v)
            du, dv = dg[iu], dg[iv]
            u_first = (du < dv) | ((du == dv) & (u < v))
            isrc = np.where(u_first, iu, iv).astype(np.int64)
            idst = np.where(u_first, iv, iu).astype(np.int64)
            ddst = np.where(u_first, dv, du).astype(np.int64)
            t = pa.Table.from_pydict(
                {
                    "isrc": pa.array(isrc, pa.int64()),
                    "idst": pa.array(idst, pa.int64()),
                    "dst_deg": pa.array(ddst, pa.int64()),
                }
            )
            return t.append_column(
                "__b",
                pa.array(
                    bucket_of_column(t["isrc"], num_buckets), pa.int64()
                ),
            )

        def tri_of_bucket(group: pa.Table) -> pa.Table:
            nd, _, pk = ray.get(state_ref)
            src = group["isrc"].to_numpy(zero_copy_only=False)
            dst = group["idst"].to_numpy(zero_copy_only=False)
            dd = group["dst_deg"].to_numpy(zero_copy_only=False)
            cnt = np.zeros(nd.size, dtype=np.int64)
            order = np.lexsort((dst, dd, src))
            src, dst = src[order], dst[order]
            starts = np.flatnonzero(
                np.concatenate([[True], src[1:] != src[:-1]])
            ) if src.size else np.empty(0, np.int64)
            ends = np.append(starts[1:], src.size)
            for s, e in zip(starts, ends):
                n = e - s
                if n < 2:
                    continue
                ii, jj = np.triu_indices(n, k=1)
                vs = dst[s:e][ii]
                ws = dst[s:e][jj]
                w = (vs << 32) | ws
                pos = np.searchsorted(pk, w)
                pos[pos >= pk.size] = 0
                hit = (pk[pos] == w) if pk.size else np.zeros(
                    w.size, bool
                )
                cnt[src[s]] += int(hit.sum())
                np.add.at(cnt, vs[hit], 1)
                np.add.at(cnt, ws[hit], 1)
            nz = np.flatnonzero(cnt)
            return pa.Table.from_pydict(
                {
                    "inode": pa.array(nz, pa.int64()),
                    "t": pa.array(cnt[nz], pa.int64()),
                }
            )

        tri_df = aggregate(
            edges.map_batches(orient_tag, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(tri_of_bucket, batch_format="pyarrow"),
            "inode",
            [("t", "sum", "t")],
        ).to_pandas()
        tri = np.zeros(nodes.size, dtype=np.int64)
        if len(tri_df):
            tri[tri_df["inode"].to_numpy()] = tri_df["t"].to_numpy()
        denom = degs * (degs - 1)
        lc = np.where(degs >= 2, 2.0 * tri / np.maximum(denom, 1), 0.0)
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "degree": pa.array(degs, pa.int64()),
                    "n_triangles": pa.array(tri, pa.int64()),
                    "local_clustering": pa.array(lc, pa.float64()),
                }
            )
        )

    # ---- partitioned plan: no driver state
    degrees = degrees_ds.materialize()

    def rename(cols):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(cols)

        return fn

    deg_u = degrees.map_batches(rename(["u", "deg_u"]),
                                batch_format="pyarrow")
    deg_v = degrees.map_batches(rename(["v", "deg_v"]),
                                batch_format="pyarrow")
    with_du = partitioned_hash_join(edges, deg_u, "u",
                                    num_buckets=num_buckets)
    with_dv = partitioned_hash_join(with_du, deg_v, "v",
                                    num_buckets=num_buckets)

    def orient(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        du = batch["deg_u"].to_numpy(zero_copy_only=False)
        dv = batch["deg_v"].to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        t = pa.Table.from_pydict(
            {
                "src": pa.array(np.where(u_first, u, v), pa.int64()),
                "dst": pa.array(np.where(u_first, v, u), pa.int64()),
                "dst_deg": pa.array(
                    np.where(u_first, dv, du), pa.int64()
                ),
            }
        )
        return t

    oriented = with_dv.map_batches(
        orient, batch_format="pyarrow"
    ).materialize()

    def tag_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__b",
            pa.array(
                bucket_of_column(batch["src"], num_buckets), pa.int64()
            ),
        )

    def wedges_of_bucket(group: pa.Table) -> pa.Table:
        src = group["src"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        dd = group["dst_deg"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dst, dd, src))
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]])
        ) if src.size else np.empty(0, np.int64)
        ends = np.append(starts[1:], src.size)
        o_c, o_v, o_w = [], [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2:
                continue
            ii, jj = np.triu_indices(n, k=1)
            o_c.append(np.full(ii.size, src[s], np.int64))
            o_v.append(dst[s:e][ii])
            o_w.append(dst[s:e][jj])
        if not o_c:
            return pa.Table.from_pydict(
                {"center": pa.array([], pa.int64()),
                 "src": pa.array([], pa.int64()),
                 "dst": pa.array([], pa.int64())}
            )
        return pa.Table.from_pydict(
            {
                "center": pa.array(np.concatenate(o_c), pa.int64()),
                "src": pa.array(np.concatenate(o_v), pa.int64()),
                "dst": pa.array(np.concatenate(o_w), pa.int64()),
            }
        )

    wedges = (
        oriented.map_batches(tag_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(wedges_of_bucket, batch_format="pyarrow")
    )
    closed = partitioned_hash_join(
        wedges,
        oriented.map_batches(
            lambda b: b.select(["src", "dst"]), batch_format="pyarrow"
        ),
        ["src", "dst"],
        num_buckets=num_buckets,
        how="semi",
    )

    def corners(batch: pa.Table) -> pa.Table:
        trip = pa.concat_arrays(
            [batch[c].combine_chunks() for c in ("center", "src", "dst")]
        )
        return pa.table({"node": trip.cast(pa.int64())})

    tri_counts = aggregate(
        closed, "node", [("t", "count", None)], rows=corners
    )
    joined = partitioned_hash_join(
        degrees, tri_counts, "node",
        num_buckets=num_buckets, how="left",
    )

    def finish(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch["t"].to_numpy(zero_copy_only=False)
        t = np.where(np.isnan(t.astype(np.float64)), 0, t).astype(
            np.int64
        ) if t.dtype != np.int64 else t
        denom = d * (d - 1)
        lc = np.where(d >= 2, 2.0 * t / np.maximum(denom, 1), 0.0)
        return pa.Table.from_pydict(
            {
                "node": batch["node"].combine_chunks(),
                "degree": pa.array(d, pa.int64()),
                "n_triangles": pa.array(t, pa.int64()),
                "local_clustering": pa.array(lc, pa.float64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def common_neighbor_pairs(
    edges_ds,
    min_common: int = 1,
    max_degree: int = 1024,
    num_buckets: int = 64,
    assume_canonical: bool = False,
):
    """Link prediction by common-neighbor counting: for every
    NON-adjacent node pair (u, v) that shares at least ``min_common``
    neighbors, emit ``cn`` (the common-neighbor count) and
    ``sum_ctr_deg`` (the sum of the shared centers' degrees — the
    deterministic integer cousin of Adamic-Adar's 1/log(deg) weight,
    kept exact so a SQL oracle replays it).

    Plan shape (all exchanges bucketed, O(1) driver state):

    1. symmetrize the canonical edge list to (src, dst);
    2. ONE coalesced exchange on hash(src): each of the fixed
       ``num_buckets`` groups lexsorts its rows and, per center node,
       emits ordered neighbor pairs (numpy ``triu_indices``) tagged
       with the center's degree — the group length IS deg(center), so
       no degree join is needed;
    3. one exchange aggregates (u, v) -> (cn, sum_ctr_deg);
    4. one bucketed ANTI join drops pairs that are already edges.

    Centers with degree > ``max_degree`` are dropped AND logged (the
    hot-key contract shared with ``cooccurrence_edges`` — a hub's
    quadratic pair fan-out is the scale hazard here).
    """

    from ..functions.hashing import bucket_of_column
    from .relational import partitioned_hash_join

    if not assume_canonical:
        edges_ds = _canonicalize(edges_ds)
    edges = edges_ds.materialize()  # reused: wedge source + anti side

    def symmetrize(batch: pa.Table) -> pa.Table:
        u = batch["u"].combine_chunks()
        v = batch["v"].combine_chunks()
        t = pa.Table.from_pydict(
            {
                "src": pa.chunked_array([u, v]).combine_chunks(),
                "dst": pa.chunked_array([v, u]).combine_chunks(),
            }
        )
        return pa.Table.from_pydict(
            {
                "src": t["src"],
                "dst": t["dst"],
                "__b": pa.array(
                    bucket_of_column(t["src"], num_buckets), pa.int64()
                ),
            }
        )

    def pairs_of_bucket(group: pa.Table) -> pa.Table:
        src = group["src"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                "u": pa.array([], pa.int64()),
                "v": pa.array([], pa.int64()),
                "ctr_deg": pa.array([], pa.int64()),
            }
        )
        if src.size == 0:
            return empty
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]])
        )
        ends = np.append(starts[1:], src.size)
        out_u, out_v, out_d = [], [], []
        for s, e in zip(starts, ends):
            d = e - s
            if d > max_degree:
                logger.warning(
                    "common_neighbor_pairs: dropping hub center=%s "
                    "with degree %d (max_degree=%d)",
                    src[s], d, max_degree,
                )
                continue
            if d < 2:
                continue
            ii, jj = np.triu_indices(d, k=1)
            out_u.append(dst[s:e][ii])
            out_v.append(dst[s:e][jj])
            out_d.append(np.full(ii.size, d, dtype=np.int64))
        if not out_u:
            return empty
        return pa.Table.from_pydict(
            {
                "u": pa.array(np.concatenate(out_u), pa.int64()),
                "v": pa.array(np.concatenate(out_v), pa.int64()),
                "ctr_deg": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )

    scored = aggregate(
        edges.map_batches(symmetrize, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(pairs_of_bucket, batch_format="pyarrow"),
        ["u", "v"],
        [("cn", "count", None), ("sum_ctr_deg", "sum", "ctr_deg")],
    )
    if min_common > 1:
        scored = scored.filter(expr=f"cn >= {min_common}")
    scored = scored.materialize()
    if scored.schema() is None:
        # every center was dropped/filtered: a fully-empty aggregate
        # loses its schema, which the join family cannot accept —
        # short-circuit with a typed empty result
        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "u": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "cn": pa.array([], pa.int64()),
                    "sum_ctr_deg": pa.array([], pa.int64()),
                }
            )
        )
    return partitioned_hash_join(
        scored, edges, key=["u", "v"], how="anti", num_buckets=32
    )


def degree_assortativity(
    edges_ds,
    assume_canonical: bool = False,
    broadcast_nodes: int = 1_000_000,
):
    """Degree assortativity coefficient of an undirected graph: the
    Pearson correlation of endpoint degrees over all DIRECTED edge
    incidences (each undirected edge counted in both directions — the
    standard Newman convention, which makes the two marginals equal).

    Everything up to the final division is exact integer sufficient
    statistics (m, A = sum(du+dv), B = sum(du^2+dv^2), C = sum(du*dv)
    over the canonical edge list), accumulated as per-batch partials;
    r = (4mC - A^2) / (2mB - A^2) is ONE float division of exact ints
    computed in arbitrary-precision Python on the driver, so a SQL
    oracle with HUGEINT sums replays it bit-for-bit. Returns a
    one-row pandas DataFrame (n_edges, s_deg, s_deg2, s_dudv,
    assortativity).

    Degree attachment auto-selects (the latest_crawl crossover
    pattern): graphs with <= ``broadcast_nodes`` nodes broadcast the
    degree table once (8 bytes/node) and attach both endpoints in one
    edge scan; larger graphs fall back to the two bucketed joins."""
    import pandas as pd

    from .relational import partitioned_hash_join

    if not assume_canonical:
        edges_ds = _canonicalize(edges_ds)
    edges = edges_ds.materialize()

    degrees = _degrees(edges).materialize()  # reused: size probe + attach
    n_nodes = degrees.count()

    if n_nodes == 0:
        return pd.DataFrame(
            {
                "n_edges": [0],
                "s_deg": [0],
                "s_deg2": [0],
                "s_dudv": [0],
                "assortativity": [0.0],
            }
        )

    if plan_choice.choose_broadcast(
        n_nodes, broadcast_nodes, est_row_bytes=16
    ):
        # small-graph fast path (the latest_crawl-style crossover):
        # the degree table broadcasts once and both endpoint degrees
        # attach in ONE edge scan — zero degree-join exchanges.
        # Sorted-key searchsorted lookup, NOT a dense max-id array:
        # node ids may be sparse 64-bit hashes, so the broadcast must
        # scale with n_nodes (16 B/node), never with the id domain.
        import ray

        dt = degrees.to_pandas()
        keys = dt["node"].to_numpy()
        order = np.argsort(keys, kind="stable")
        lut_ref = ray.put(
            (keys[order], dt["d"].to_numpy()[order].astype(np.int64))
        )

        def lookup(batch: pa.Table) -> pa.Table:
            sorted_keys, sorted_degs = ray.get(lut_ref)
            u = batch["u"].to_numpy(zero_copy_only=False)
            v = batch["v"].to_numpy(zero_copy_only=False)
            # every endpoint is present by construction (degrees were
            # derived from these same edges), so lookups always hit
            return pa.table(
                {
                    "du": sorted_degs[np.searchsorted(sorted_keys, u)],
                    "dv": sorted_degs[np.searchsorted(sorted_keys, v)],
                }
            )

        stats_ds = edges.map_batches(lookup, batch_format="pyarrow")
    else:
        eu = edges.map_batches(
            lambda b: b.rename_columns(["node", "v"]),
            batch_format="pyarrow",
        )
        with_du = partitioned_hash_join(
            eu, degrees, key="node", num_buckets=32
        ).map_batches(
            lambda b: pa.Table.from_pydict(
                {"node": b["v"], "du": b["d"]}
            ),
            batch_format="pyarrow",
        )
        with_both = partitioned_hash_join(
            with_du,
            degrees.map_batches(
                lambda b: b.rename_columns(["node", "dv"]),
                batch_format="pyarrow",
            ),
            key="node",
            num_buckets=32,
        )

        stats_ds = with_both

    def moments(batch: pa.Table) -> pa.Table:
        du = batch["du"].to_numpy(zero_copy_only=False).astype(np.int64)
        dv = batch["dv"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"a": du + dv, "b": du * du + dv * dv, "c": du * dv}
        )

    agg = aggregate(
        stats_ds,
        [],
        [("m", "count", None), ("a", "sum", "a"), ("b", "sum", "b"),
         ("c", "sum", "c")],
        rows=moments,
    )
    m, a, b, c = (int(agg[k]) for k in ("m", "a", "b", "c"))
    denom = 2 * m * b - a * a
    r = float(4 * m * c - a * a) / float(denom) if denom else 0.0
    return pd.DataFrame(
        {
            "n_edges": [m],
            "s_deg": [a],
            "s_deg2": [b],
            "s_dudv": [c],
            "assortativity": [r],
        }
    )


def label_propagation(
    edges_ds,
    rounds: int = 3,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    method: str = "auto",
    broadcast_limit: int = 2_000_000,
):
    """``rounds`` SYNCHRONOUS rounds of label propagation (community
    detection): every node starts labeled with its own id; each round
    every node simultaneously adopts the label held by the plurality
    of its NEIGHBORS at the previous round (tie -> smallest label).
    Early stop once a round changes nothing (the update is then a
    fixpoint, so the remaining rounds are no-ops). The FIXED round
    count + deterministic tie-break keep the operator
    SQL-expressible: the oracle unrolls each round as one
    histogram-CTE + one ``row_number() OVER (ORDER BY c DESC, lbl)``
    CTE. Returns a Ray Dataset ``(node, label)``.

    Broadcast plan (<= ``broadcast_limit`` edges): incidence arrays
    pulled once, each round is two lexsorts on the driver.
    Partitioned plan (the scale path): labels live in a Dataset; each
    round is ONE bucketed hash join (incidence.nbr x labels) plus ONE
    coalesced exchange on hash(node) into ``num_buckets`` fixed
    buckets where a lexsort + boundary-diff computes every node's
    plurality label (the sessionize idiom — never a per-node
    map_groups dispatch). Old labels ride along as zero-count marker
    rows so the convergence check costs no extra exchange. Driver
    state per round is O(1). Plans pinned equal in pytest."""
    import ray.data as rd

    from ..functions.hashing import bucket_of_column
    from .components import pin_loop_state
    from .relational import partitioned_hash_join

    edges = edges_ds if assume_canonical else _canonicalize(edges_ds)
    edges = edges.materialize()
    n_edges = edges.count()

    empty = pa.Table.from_pydict(
        {"node": pa.array([], pa.int64()),
         "label": pa.array([], pa.int64())}
    )
    if n_edges == 0:
        return rd.from_arrow(empty)

    if method not in ("auto", "broadcast", "partitioned"):
        raise ValueError(f"unknown label_propagation method: {method}")
    if method == "auto":
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n_edges, broadcast_limit, est_row_bytes=16
            )
            else "partitioned"
        )

    if method == "broadcast":
        parts = [
            (
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            )
            for b in edges.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        us = np.concatenate([p[0] for p in parts]).astype(np.int64)
        vs = np.concatenate([p[1] for p in parts]).astype(np.int64)
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        nodes = np.unique(src)
        si = np.searchsorted(nodes, src)  # dense index per incidence
        di = np.searchsorted(nodes, dst)
        labels = nodes.copy()
        for _ in range(rounds):
            lbl = labels[di]
            # count per (src, nbr-label): sort, boundary-diff
            order = np.lexsort((lbl, si))
            s, l = si[order], lbl[order]
            new_grp = np.concatenate(
                [[True], (s[1:] != s[:-1]) | (l[1:] != l[:-1])]
            )
            starts = np.flatnonzero(new_grp)
            cnt = np.diff(np.append(starts, s.size))
            gs, gl = s[starts], l[starts]
            # plurality with min-label tie-break: sort groups by
            # (src, -count, label), keep first per src
            gorder = np.lexsort((gl, -cnt, gs))
            gs, gl = gs[gorder], gl[gorder]
            first = np.concatenate([[True], gs[1:] != gs[:-1]])
            new_labels = labels.copy()
            new_labels[gs[first]] = gl[first]
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "label": pa.array(labels, pa.int64()),
                }
            )
        )

    # ---- partitioned plan
    def to_incidence(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "nbr": pa.array(np.concatenate([v, u]), pa.int64()),
                "node": pa.array(np.concatenate([u, v]), pa.int64()),
            }
        )

    inc = pin_loop_state(
        edges.map_batches(to_incidence, batch_format="pyarrow"),
        num_blocks=8,
    )

    def init_labels(b: pa.Table) -> pa.Table:
        n = b["node"].cast(pa.int64())
        return pa.table({"node": n, "lbl": n})

    labels = pin_loop_state(
        aggregate(inc, "node", [("lbl", "min", "lbl")], rows=init_labels),
        num_blocks=None,
    )

    def count_partial(b: pa.Table) -> pa.Table:
        node = b["node"].to_numpy(zero_copy_only=False)
        lbl = b["lbl"].to_numpy(zero_copy_only=False)
        order = np.lexsort((lbl, node))
        node, lbl = node[order], lbl[order]
        new_grp = np.concatenate(
            [[True], (node[1:] != node[:-1]) | (lbl[1:] != lbl[:-1])]
        )
        starts = np.flatnonzero(new_grp)
        cnt = np.diff(np.append(starts, node.size))
        return pa.Table.from_pydict(
            {
                "node": pa.array(node[starts], pa.int64()),
                "lbl": pa.array(lbl[starts], pa.int64()),
                "c": pa.array(cnt, pa.int64()),
            }
        )

    def mark_old(b: pa.Table) -> pa.Table:
        # old labels ride to the argmax exchange as zero-count rows
        return pa.Table.from_pydict(
            {
                "node": b["node"],
                "lbl": b["lbl"],
                "c": pa.array(
                    np.zeros(b.num_rows, dtype=np.int64), pa.int64()
                ),
            }
        )

    def with_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__b",
            pa.array(bucket_of_column(b["node"], num_buckets), pa.int64()),
        )

    def argmax_of_bucket(group: pa.Table) -> pa.Table:
        node = group["node"].to_numpy(zero_copy_only=False)
        out_empty = pa.Table.from_pydict(
            {
                "node": pa.array([], pa.int64()),
                "lbl": pa.array([], pa.int64()),
                "changed": pa.array([], pa.int64()),
            }
        )
        if node.size == 0:
            return out_empty
        lbl = group["lbl"].to_numpy(zero_copy_only=False)
        c = group["c"].to_numpy(zero_copy_only=False)
        # merge duplicate (node,lbl) rows from different partials
        order = np.lexsort((lbl, node))
        node, lbl, c = node[order], lbl[order], c[order]
        new_grp = np.concatenate(
            [[True], (node[1:] != node[:-1]) | (lbl[1:] != lbl[:-1])]
        )
        starts = np.flatnonzero(new_grp)
        csum = np.add.reduceat(c, starts)
        node, lbl = node[starts], lbl[starts]
        # old label per node = the (possibly merged-with-count) row
        # flagged by the zero-count marker; recover it as the label
        # whose row EXISTS for the node with marker semantics: the
        # marker guarantees every node has a row for its old label,
        # so plurality runs over all rows while `old` is extracted
        # from the marker join below.
        old_rows = group.filter(
            pa.array(group["c"].to_numpy(zero_copy_only=False) == 0)
        )
        onode = old_rows["node"].to_numpy(zero_copy_only=False)
        olbl = old_rows["lbl"].to_numpy(zero_copy_only=False)
        oorder = np.argsort(onode, kind="stable")
        onode, olbl = onode[oorder], olbl[oorder]
        gorder = np.lexsort((lbl, -csum, node))
        gn, gl, gc = node[gorder], lbl[gorder], csum[gorder]
        first = np.concatenate([[True], gn[1:] != gn[:-1]])
        gn, gl, gc = gn[first], gl[first], gc[first]
        # nodes whose ONLY row is the marker (isolated in this round's
        # incidence — cannot happen on a real edge list, but keep the
        # zero-count winner from overriding a real old label)
        keep_old = gc == 0
        old_of = olbl[np.searchsorted(onode, gn)]
        new_lbl = np.where(keep_old, old_of, gl)
        return pa.Table.from_pydict(
            {
                "node": pa.array(gn, pa.int64()),
                "lbl": pa.array(new_lbl, pa.int64()),
                "changed": pa.array(
                    (new_lbl != old_of).astype(np.int64), pa.int64()
                ),
            }
        )

    for _ in range(rounds):
        # incidence carries (nbr, node); attach the nbr's current
        # label by renaming labels to the join key
        lab_as_nbr = labels.map_batches(
            lambda b: pa.Table.from_pydict(
                {"nbr": b["node"], "lbl": b["lbl"]}
            ),
            batch_format="pyarrow",
        )
        attached = partitioned_hash_join(
            inc, lab_as_nbr, key="nbr", num_buckets=num_buckets
        ).select_columns(["node", "lbl"])
        rows = attached.map_batches(
            count_partial, batch_format="pyarrow"
        ).union(
            labels.map_batches(mark_old, batch_format="pyarrow")
        )
        new_labels = (
            rows.map_batches(with_bucket, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(argmax_of_bucket, batch_format="pyarrow")
        )
        new_labels = pin_loop_state(new_labels, num_blocks=None)
        n_changed = aggregate(
            new_labels, [], [("n", "sum", "changed")]
        )["n"]
        labels = new_labels.select_columns(["node", "lbl"])
        labels = pin_loop_state(labels, num_blocks=None)
        if not n_changed:
            break
    return labels.map_batches(
        lambda b: b.rename_columns(["node", "label"]),
        batch_format="pyarrow",
    )


def random_walks(
    edges_ds,
    n_steps: int = 3,
    seed: int = 20260819,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    method: str = "auto",
    broadcast_limit: int = 2_000_000,
):
    """Deterministic pseudo-random walks from EVERY node of the
    undirected graph — the random-walk corpus generator that
    node2vec/DeepWalk-style embedding pipelines feed on, made
    REPLAYABLE: at step t the walker that started at s steps from its
    current node v to the k-th smallest neighbor of v, where
    k = splitmix64(md5hash(str(s)) XOR seed_t) mod degree(v). Both
    the hash (``stable_hash64`` == DuckDB ``md5_number_upper``) and
    the per-step seeds (``default_rng(seed)`` draws, embeddable as
    SQL literals) are exact-integer functions, so a SQL oracle
    replays every step with an unrolled join chain. Returns a Ray
    Dataset ``(start, s1, ..., s{n_steps})``.

    Broadcast plan (<= ``broadcast_limit`` edges): driver CSR (sorted
    incidence + offsets), each step one vectorized gather — zero
    exchanges. Partitioned plan: a ranked adjacency relation
    (node, nbr, rn) built by ONE hash(node) exchange (lexsort +
    boundary diff per bucket) plus a degree relation; each step is
    two bucketed hash joins — frontier x degree on the current node
    (computes k), then a composite (cur, rn) join against the ranked
    adjacency. Walk history rides the joins as payload columns;
    driver state is O(1). Plans pinned equal in pytest."""
    import ray.data as rd

    from ..functions.hashing import bucket_of_column
    from ..functions.shingles import stable_hash64
    from .components import pin_loop_state
    from .relational import partitioned_hash_join

    edges = edges_ds if assume_canonical else _canonicalize(edges_ds)
    edges = edges.materialize()
    n_edges = edges.count()

    cols = ["start"] + [f"s{t}" for t in range(1, n_steps + 1)]
    empty = pa.Table.from_pydict(
        {c: pa.array([], pa.int64()) for c in cols}
    )
    if n_edges == 0:
        return rd.from_arrow(empty)

    rng = np.random.default_rng(seed)
    step_seeds = rng.integers(
        0, np.iinfo(np.uint64).max, size=n_steps, dtype=np.uint64
    )

    if method not in ("auto", "broadcast", "partitioned"):
        raise ValueError(f"unknown random_walks method: {method}")
    if method == "auto":
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n_edges, broadcast_limit, est_row_bytes=16
            )
            else "partitioned"
        )

    if method == "broadcast":
        parts = [
            (
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            )
            for b in edges.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        us = np.concatenate([p[0] for p in parts]).astype(np.int64)
        vs = np.concatenate([p[1] for p in parts]).astype(np.int64)
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        nodes, counts = np.unique(src, return_counts=True)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        h = np.array(
            [stable_hash64(str(int(n))) for n in nodes],
            dtype=np.uint64,
        )
        cur = nodes.copy()
        out = {"start": nodes}
        from ..functions.shingles import _splitmix64

        for t in range(n_steps):
            ci = np.searchsorted(nodes, cur)
            deg = counts[ci].astype(np.uint64)
            k = (_splitmix64(h ^ step_seeds[t]) % deg).astype(np.int64)
            cur = dst[indptr[ci] + k]
            out[f"s{t + 1}"] = cur.copy()
        return rd.from_arrow(
            pa.Table.from_pydict(
                {c: pa.array(out[c], pa.int64()) for c in cols}
            )
        )

    # ---- partitioned plan
    def to_incidence(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "node": pa.array(np.concatenate([u, v]), pa.int64()),
                "nbr": pa.array(np.concatenate([v, u]), pa.int64()),
            }
        )

    inc = edges.map_batches(to_incidence, batch_format="pyarrow")

    def with_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__b",
            pa.array(bucket_of_column(b["node"], num_buckets), pa.int64()),
        )

    def rank_of_bucket(group: pa.Table) -> pa.Table:
        node = group["node"].to_numpy(zero_copy_only=False)
        if node.size == 0:
            return pa.Table.from_pydict(
                {
                    "cur": pa.array([], pa.int64()),
                    "nxt": pa.array([], pa.int64()),
                    "rn": pa.array([], pa.int64()),
                }
            )
        nbr = group["nbr"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nbr, node))
        node, nbr = node[order], nbr[order]
        starts = np.flatnonzero(
            np.concatenate([[True], node[1:] != node[:-1]])
        )
        seg = np.repeat(np.arange(starts.size),
                        np.diff(np.append(starts, node.size)))
        rn = np.arange(node.size) - starts[seg] + 1
        return pa.Table.from_pydict(
            {
                "cur": pa.array(node, pa.int64()),
                "nxt": pa.array(nbr, pa.int64()),
                "rn": pa.array(rn, pa.int64()),
            }
        )

    ranked = (
        inc.map_batches(with_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(rank_of_bucket, batch_format="pyarrow")
    )
    ranked = pin_loop_state(ranked, num_blocks=8)

    degrees = aggregate(
        inc,
        "cur",
        [("deg", "count", None)],
        rows=lambda b: b.select(["node"]).rename_columns(["cur"]),
    )
    degrees = pin_loop_state(degrees, num_blocks=None)

    def init_frontier(b: pa.Table) -> pa.Table:
        n = b["cur"].to_numpy(zero_copy_only=False)
        h = np.array(
            [stable_hash64(str(int(x))) for x in n], dtype=np.uint64
        )
        return pa.Table.from_pydict(
            {
                "start": pa.array(n, pa.int64()),
                # int64 bit view: Ray reduces overflow raw uint64 keys
                "h": pa.array(h.view(np.int64), pa.int64()),
                "cur": pa.array(n, pa.int64()),
            }
        )

    frontier = degrees.map_batches(init_frontier, batch_format="pyarrow")
    frontier = pin_loop_state(frontier, num_blocks=8)

    from ..functions.shingles import _splitmix64

    for t in range(n_steps):
        with_deg = partitioned_hash_join(
            frontier, degrees, key="cur", num_buckets=num_buckets
        )
        seed_t = step_seeds[t]

        def pick_rank(b: pa.Table, _s=seed_t) -> pa.Table:
            h = b["h"].to_numpy(zero_copy_only=False).view(np.uint64)
            deg = b["deg"].to_numpy(zero_copy_only=False).astype(
                np.uint64
            )
            rn = (_splitmix64(h ^ _s) % deg).astype(np.int64) + 1
            return b.drop_columns(["deg"]).append_column(
                "rn", pa.array(rn, pa.int64())
            )

        stepped = partitioned_hash_join(
            with_deg.map_batches(pick_rank, batch_format="pyarrow"),
            ranked,
            key=["cur", "rn"],
            num_buckets=num_buckets,
        )

        def advance(b: pa.Table, _t=t) -> pa.Table:
            keep = {
                "start": b["start"],
                "h": b["h"],
                "cur": b["nxt"],
            }
            for j in range(1, _t + 1):
                keep[f"s{j}"] = b[f"s{j}"]
            keep[f"s{_t + 1}"] = b["nxt"]
            return pa.Table.from_pydict(keep)

        frontier = stepped.map_batches(advance, batch_format="pyarrow")
        frontier = pin_loop_state(frontier, num_blocks=8)

    return frontier.map_batches(
        lambda b: b.select(cols), batch_format="pyarrow"
    )


def edge_triangle_support(
    edges_ds,
    max_degree: int = 1024,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    method: str = "auto",
    broadcast_limit: int = 2_000_000,
):
    """Per-EDGE triangle support and neighbor-set Jaccard — the exact
    tie-strength feature (embeddedness) link analysis ranks edges by:
    for each edge (u, v), t = |N(u) ∩ N(v)| (triangles through the
    edge) and jaccard = t / (du + dv - 2 - t), one float division of
    exact integers (denominator is |N(u) ∪ N(v) \\ {u,v}|; 0 -> 0.0).
    The adjacency-filter twin of :func:`common_neighbor_pairs`: same
    wedge-pair counting (one coalesced hash(center) exchange, ordered
    ``triu_indices`` per center, hubs over ``max_degree`` dropped and
    logged — the shared hot-key contract), but the final join KEEPS
    edges (left join, zero-fill) instead of anti-dropping them, then
    two bucketed degree joins attach du/dv. Returns a Ray Dataset
    (u, v, t, du, dv, jaccard).

    Broadcast plan (<= ``broadcast_limit`` edges, the family's auto
    crossover): edges pulled once, support via one sorted-adjacency
    sweep on the driver — the three bucketed joins are pure fixed
    exchange cost at small graph sizes (measured 21.6 s at sf0.1 for
    a 548-edge graph, vs <2 s broadcast)."""

    from ..functions.hashing import bucket_of_column
    from .relational import partitioned_hash_join

    if not assume_canonical:
        edges_ds = _canonicalize(edges_ds)
    edges = edges_ds.materialize()
    import ray.data as rd

    if method not in ("auto", "broadcast", "partitioned"):
        raise ValueError(
            f"unknown edge_triangle_support method: {method}"
        )
    n_edges = edges.count()
    if method == "auto":
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n_edges, broadcast_limit, est_row_bytes=16
            )
            else "partitioned"
        )

    if n_edges and method == "broadcast":
        parts = [
            (
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            )
            for b in edges.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        us = np.concatenate([p[0] for p in parts]).astype(np.int64)
        vs = np.concatenate([p[1] for p in parts]).astype(np.int64)
        src_a = np.concatenate([us, vs])
        dst_a = np.concatenate([vs, us])
        order = np.lexsort((dst_a, src_a))
        src_a, dst_a = src_a[order], dst_a[order]
        nodes, counts = np.unique(src_a, return_counts=True)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        # support per canonical edge, fully vectorized: per-center
        # ordered neighbor pairs packed into dense-index int64 keys
        # (ui * n + vi; n_nodes < 3e9 by the int64 contract), counted
        # with one np.unique, looked up per edge via searchsorted
        pair_u, pair_v = [], []
        for ci in range(nodes.size):
            d = int(counts[ci])
            if d > max_degree:
                logger.warning(
                    "edge_triangle_support: dropping hub center=%s "
                    "with degree %d (max_degree=%d)",
                    nodes[ci], d, max_degree,
                )
                continue
            if d < 2:
                continue
            nb = dst_a[indptr[ci]: indptr[ci + 1]]
            ii, jj = np.triu_indices(d, k=1)
            pair_u.append(nb[ii])
            pair_v.append(nb[jj])
        n_nodes = nodes.size
        if pair_u:
            pu = np.searchsorted(nodes, np.concatenate(pair_u))
            pv = np.searchsorted(nodes, np.concatenate(pair_v))
            packed = pu * np.int64(n_nodes) + pv
            uniq, cnt = np.unique(packed, return_counts=True)
        else:
            uniq = np.empty(0, np.int64)
            cnt = np.empty(0, np.int64)
        eu = np.searchsorted(nodes, us)
        ev = np.searchsorted(nodes, vs)
        ekey = eu * np.int64(n_nodes) + ev
        pos = np.searchsorted(uniq, ekey)
        hit = (pos < uniq.size) & (uniq[np.minimum(pos, max(uniq.size - 1, 0))] == ekey) if uniq.size else np.zeros(ekey.size, bool)
        t_arr = np.zeros(ekey.size, dtype=np.int64)
        if uniq.size:
            t_arr[hit] = cnt[pos[hit]]
        du = counts[eu].astype(np.int64)
        dv = counts[ev].astype(np.int64)
        denom = du + dv - 2 - t_arr
        jac = np.where(
            denom > 0,
            t_arr.astype(np.float64) / denom.astype(np.float64),
            0.0,
        )
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "u": pa.array(us, pa.int64()),
                    "v": pa.array(vs, pa.int64()),
                    "t": pa.array(t_arr, pa.int64()),
                    "du": pa.array(du, pa.int64()),
                    "dv": pa.array(dv, pa.int64()),
                    "jaccard": pa.array(jac, pa.float64()),
                }
            )
        )

    if edges.count() == 0:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "u": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "t": pa.array([], pa.int64()),
                    "du": pa.array([], pa.int64()),
                    "dv": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )

    def symmetrize(batch: pa.Table) -> pa.Table:
        u = batch["u"].combine_chunks()
        v = batch["v"].combine_chunks()
        t = pa.Table.from_pydict(
            {
                "src": pa.chunked_array([u, v]).combine_chunks(),
                "dst": pa.chunked_array([v, u]).combine_chunks(),
            }
        )
        return pa.Table.from_pydict(
            {
                "src": t["src"],
                "dst": t["dst"],
                "__b": pa.array(
                    bucket_of_column(t["src"], num_buckets), pa.int64()
                ),
            }
        )

    def pairs_of_bucket(group: pa.Table) -> pa.Table:
        src = group["src"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                "u": pa.array([], pa.int64()),
                "v": pa.array([], pa.int64()),
            }
        )
        if src.size == 0:
            return empty
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]])
        )
        ends = np.append(starts[1:], src.size)
        out_u, out_v = [], []
        for s, e in zip(starts, ends):
            d = e - s
            if d > max_degree:
                logger.warning(
                    "edge_triangle_support: dropping hub center=%s "
                    "with degree %d (max_degree=%d)",
                    src[s], d, max_degree,
                )
                continue
            if d < 2:
                continue
            ii, jj = np.triu_indices(d, k=1)
            out_u.append(dst[s:e][ii])
            out_v.append(dst[s:e][jj])
        if not out_u:
            return empty
        return pa.Table.from_pydict(
            {
                "u": pa.array(np.concatenate(out_u), pa.int64()),
                "v": pa.array(np.concatenate(out_v), pa.int64()),
            }
        )

    scored = aggregate(
        edges.map_batches(symmetrize, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(pairs_of_bucket, batch_format="pyarrow"),
        ["u", "v"],
        [("t", "count", None)],
    ).materialize()

    if scored.schema() is None:
        scored = rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "u": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "t": pa.array([], pa.int64()),
                }
            )
        )

    with_t = partitioned_hash_join(
        edges, scored, key=["u", "v"], how="left",
        num_buckets=num_buckets,
    ).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "u": b["u"],
                "v": b["v"],
                "t": pa.compute.fill_null(
                    pa.compute.cast(b["t"], pa.int64()), 0
                ),
            }
        ),
        batch_format="pyarrow",
    )

    degrees = _degrees(edges)

    with_du = partitioned_hash_join(
        with_t.map_batches(
            lambda b: b.rename_columns(["node", "v", "t"]),
            batch_format="pyarrow",
        ),
        degrees,
        key="node",
        num_buckets=num_buckets,
    ).map_batches(
        lambda b: pa.Table.from_pydict(
            {"u": b["node"], "node": b["v"], "t": b["t"],
             "du": b["d"]}
        ),
        batch_format="pyarrow",
    )
    with_both = partitioned_hash_join(
        with_du,
        degrees.map_batches(
            lambda b: b.rename_columns(["node", "dv"]),
            batch_format="pyarrow",
        ),
        key="node",
        num_buckets=num_buckets,
    )

    def finish(b: pa.Table) -> pa.Table:
        t = b["t"].to_numpy(zero_copy_only=False)
        du = b["du"].to_numpy(zero_copy_only=False)
        dv = b["dv"].to_numpy(zero_copy_only=False)
        denom = du + dv - 2 - t
        jac = np.where(
            denom > 0, t.astype(np.float64) / denom.astype(np.float64),
            0.0,
        )
        return pa.Table.from_pydict(
            {
                "u": b["u"],
                "v": b["node"],
                "t": b["t"],
                "du": b["du"],
                "dv": b["dv"],
                "jaccard": pa.array(jac, pa.float64()),
            }
        )

    return with_both.map_batches(finish, batch_format="pyarrow")


def ktruss_peel(
    edges_ds,
    k: int = 4,
    rounds: int = 2,
    num_buckets: int = 64,
    assume_canonical: bool = False,
    max_degree: int = 1024,
):
    """``rounds`` iterations of k-truss peeling: repeatedly drop every
    edge whose triangle SUPPORT (common-neighbor count) is below
    k - 2, recomputing support on the surviving edge set each round —
    the edge-grain cohesion analogue of :func:`kcore_peel`, with the
    same SQL-expressibility contract (FIXED round count + no-op early
    stop -> the oracle unrolls each round as one common-neighbor CTE
    + one filter). Support comes from the
    :func:`edge_triangle_support` wedge-pair exchange; each round the
    surviving edges are re-pinned (constant block count + severed
    lineage — the iterative-Dataset contract). Returns a Ray Dataset
    (u, v, t) of surviving edges with their final-round support."""
    import ray.data as rd

    from .components import pin_loop_state

    if not assume_canonical:
        edges_ds = _canonicalize(edges_ds)
    edges = pin_loop_state(edges_ds, num_blocks=8)
    n_cur = edges.count()

    empty = pa.Table.from_pydict(
        {
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "t": pa.array([], pa.int64()),
        }
    )
    if n_cur == 0:
        return rd.from_arrow(empty)

    thresh = k - 2
    last = None
    for _ in range(rounds):
        supported = edge_triangle_support(
            edges, max_degree=max_degree, num_buckets=num_buckets,
            assume_canonical=True,
        ).map_batches(
            lambda b: b.select(["u", "v", "t"]), batch_format="pyarrow"
        )
        kept = supported.filter(expr=f"t >= {thresh}")
        kept = pin_loop_state(kept, num_blocks=8)
        n_kept = kept.count()
        if n_kept == 0:
            return rd.from_arrow(empty)
        converged = n_kept == n_cur
        last, n_cur = kept, n_kept
        # next round's support recomputes on the bare edge set (the
        # carried t would collide with the join's support column)
        edges = pin_loop_state(
            kept.map_batches(
                lambda b: b.select(["u", "v"]), batch_format="pyarrow"
            ),
            num_blocks=8,
        )
        if converged:
            break  # support can only change when edges dropped
    return last
