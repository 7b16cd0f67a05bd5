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

The iterative operators (:func:`bfs_hops`, :func:`kcore_peel`,
:func:`label_propagation`, :func:`random_walks`) run their partitioned
plans as vertex programs on :func:`iterate.supersteps`: the vertex
rows of :func:`_adjacency` carry their neighbour lists, so a round is
ONE exchange and no edge relation is re-joined. :func:`ktruss_peel`
keeps its own loop: its round is :func:`edge_triangle_support`'s
wedge exchange, not a vertex program. Every operator with a broadcast
twin takes it up to ``_BROADCAST_EDGES`` edges
(``plan.choose_broadcast``).

Reference parity note: the reference engine has no graph operators;
this extends the near-dup/link-graph family (components, pagerank)
with the standard local-structure statistic a crawl-graph / dup-graph
analysis needs.
"""

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import plan as plan_choice
from .aggregate import aggregate, exchange
from .iterate import pin_loop_state, supersteps

logger = logging.getLogger(__name__)

# edge count up to which an operator takes its broadcast plan
_BROADCAST_EDGES = 2_000_000


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


def _typed_uv(edges_ds):
    """Every block as a typed int64 ``(u, v)`` table: empty input blocks
    (pandas-backed repartition leftovers) carry no column types and
    would poison a later schema inference."""

    def as_typed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.Table.from_pydict(
                {"u": pa.array([], pa.int64()),
                 "v": pa.array([], pa.int64())}
            )
        return pa.Table.from_pydict(
            {
                "u": pc.cast(batch["u"].combine_chunks(), pa.int64()),
                "v": pc.cast(batch["v"].combine_chunks(), pa.int64()),
            }
        )

    return edges_ds.map_batches(as_typed, batch_format="pyarrow")


def _driver_edges(edges):
    """``(us, vs)``: the int64 endpoints of an edge list as numpy
    arrays in this process (the broadcast plans)."""
    parts = [
        (
            b["u"].to_numpy(zero_copy_only=False),
            b["v"].to_numpy(zero_copy_only=False),
        )
        for b in edges.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return (
        np.concatenate([p[0] for p in parts]).astype(np.int64),
        np.concatenate([p[1] for p in parts]).astype(np.int64),
    )


def _adjacency(edges_ds, nodes=None):
    """Vertex rows ``(node, nbrs)`` of an undirected ``(u, v)`` edge
    list for :func:`iterate.supersteps`, built by ONE
    ``aggregate.exchange`` on node: ``nbrs`` is the sorted, distinct
    neighbour list, self-loops dropped. ``nodes`` adds vertices that
    need no edge (BFS seeds); they enter as self-loops."""
    import ray.data as rd

    def both_ends(b: pa.Table) -> pa.Table:
        u = b["u"].combine_chunks().cast(pa.int64())
        v = b["v"].combine_chunks().cast(pa.int64())
        return pa.table(
            {"node": pa.concat_arrays([u, v]),
             "nbr": pa.concat_arrays([v, u])}
        )

    def build(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False)
        nbr = t["nbr"].to_numpy(zero_copy_only=False)
        verts = np.unique(node)
        keep = node != nbr
        node, nbr = node[keep], nbr[keep]
        order = np.lexsort((nbr, node))
        node, nbr = node[order], nbr[order]
        first = np.concatenate(
            [[True], (node[1:] != node[:-1]) | (nbr[1:] != nbr[:-1])]
        )
        node, nbr = node[first], nbr[first]
        offsets = np.append(np.searchsorted(node, verts), node.size)
        return pa.table(
            {
                "node": pa.array(verts, pa.int64()),
                "nbrs": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), pa.array(nbr, pa.int64())
                ),
            }
        )

    if nodes is not None:
        loops = pa.array(nodes, pa.int64())
        edges_ds = edges_ds.union(
            rd.from_arrow(pa.table({"u": loops, "v": loops}))
        )
    return exchange(edges_ds, "node", build, rows=both_ends)


def _out_edges(verts: pa.Table, mask: np.ndarray, col: str = "nbrs"):
    """``(pos, values)`` of every entry of list column ``col`` of the
    vertices selected by ``mask``, as numpy arrays: ``pos`` is the
    vertex's row position, ``values`` the entry."""
    lists = verts[col].combine_chunks()
    pos = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    values = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
    keep = mask[pos]
    return pos[keep], values[keep]


def _positions(verts: pa.Table, nodes) -> np.ndarray:
    """Row position in ``verts`` of each of ``nodes`` (all present)."""
    return pc.index_in(
        nodes, value_set=verts["node"].combine_chunks()
    ).to_numpy(zero_copy_only=False)


def _set(t: pa.Table, **cols) -> pa.Table:
    """``t`` with the numpy columns ``cols`` put in (replacing any)."""
    t = t.drop_columns([c for c in cols if c in t.column_names])
    for name, values in cols.items():
        t = t.append_column(name, pa.array(values))
    return t


def triangle_stats(
    edges_ds,
    assume_canonical: bool = False,
    method: str = "auto",
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

    * ``"broadcast"`` (<= ``_BROADCAST_EDGES`` edges): degrees and the
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

    import pandas as pd

    edges_ds = _typed_uv(edges_ds)
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
                n_edges, _BROADCAST_EDGES, est_row_bytes=16
            )
            else "partitioned"
        )

    # -- degrees: one grouped count (stages/aggregate.py)
    degrees_ds = _degrees(edges)

    if method == "broadcast":
        return _triangles_broadcast(edges, degrees_ds, n_edges)

    degrees = degrees_ds.materialize()
    n_nodes = degrees.count()

    # wedge total = sum C(d, 2) — tiny partial-sum tree
    def wedge_partial(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {"w": pa.array([int((d * (d - 1) // 2).sum())], pa.int64())}
        )

    wrow = aggregate(degrees, [], [("w", "sum", "w")], rows=wedge_partial)
    n_wedges = int(wrow["w"] or 0)

    # -- attach degrees to both endpoints (two bucketed joins)
    def rename(cols):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(cols)

        return fn

    deg_u = degrees.map_batches(rename(["u", "deg_u"]),
                                batch_format="pyarrow")
    deg_v = degrees.map_batches(rename(["v", "deg_v"]),
                                batch_format="pyarrow")
    with_du = partitioned_hash_join(edges, deg_u, "u")
    with_dv = partitioned_hash_join(with_du, deg_v, "v")

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
    # COALESCED exchange: bucket src (``aggregate.exchange``) so the
    # per-group UDF dispatch count is the bucket count, not n_nodes
    # (measured: per-node map_groups cost 30+ s on a 1k-node graph
    # purely in dispatch overhead); inside a bucket, all sources are
    # processed with one lexsort + per-source triu loops.
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

    wedges = exchange(oriented, "src", wedges_of_bucket)

    closed = partitioned_hash_join(
        wedges,
        oriented.map_batches(
            lambda b: b.select(["src", "dst"]), batch_format="pyarrow"
        ),
        ["src", "dst"],
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


def _triangles_broadcast(edges, degrees_ds, n_edges):
    """Small-graph plan: degrees + the oriented edge set (packed to
    int64 via compact node indices) broadcast once; closure probed
    inside the wedge UDF. Two exchanges, zero joins."""
    import pandas as pd
    import ray

    deg_df = degrees_ds.to_pandas()
    nodes = deg_df["node"].to_numpy().astype(np.int64)
    degs = deg_df["d"].to_numpy().astype(np.int64)
    order = np.argsort(nodes)
    nodes, degs = nodes[order], degs[order]
    n_nodes = nodes.size
    n_wedges = int((degs * (degs - 1) // 2).sum())

    # oriented packed edge set: compact index of lower-(deg, id)
    # endpoint in the high 32 bits (n_nodes <= 2 * _BROADCAST_EDGES
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

    # one map stage: orient via broadcast lookup
    def orient(batch: pa.Table) -> pa.Table:
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
        return pa.Table.from_pydict(
            {
                "isrc": pa.array(isrc, pa.int64()),
                "idst": pa.array(idst, pa.int64()),
                "dst_deg": pa.array(ddst, pa.int64()),
            }
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

    trow = aggregate(
        exchange(edges, "isrc", count_of_bucket, rows=orient),
        [],
        [("t", "sum", "t")],
    )
    n_triangles = int(trow["t"] or 0)
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
    assume_canonical: bool = False,
    method: str = "auto",
):
    """Multi-source BFS over the undirected edge list: minimum hop
    count from any seed, truncated at ``max_hops``. Returns a Ray
    Dataset ``(node, hops)`` — seeds at hop 0 (whether or not they
    have edges), every other reached node at its first-visit level.

    Two physical plans (auto crossover on canonical edge count):

    * ``"broadcast"`` (<= ``_BROADCAST_EDGES`` edges): the symmetric
      adjacency is pulled once into a driver CSR (sorted src array +
      offsets) and levels expand via numpy ``unique``/membership —
      zero exchanges after the canonicalize.
    * ``"partitioned"``: one :func:`iterate.supersteps` round per
      level over vertex rows carrying their adjacency: the frontier
      (the nodes first reached last round) sends one message per
      neighbour, and a receiver not yet visited takes the round as
      its hop. The loop halts once a round reaches no new node.

    The truncation makes the operator SQL-expressible: a recursive
    CTE bounded by ``hop < max_hops`` enumerates finitely many
    (node, hop) pairs even on cyclic graphs, and ``min(hop)`` matches
    first-visit levels exactly. Plans pinned equal in pytest."""
    import ray.data as rd

    edges_ds = _typed_uv(edges_ds)
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
                n_edges, _BROADCAST_EDGES, est_row_bytes=16
            )
            else "partitioned"
        )

    if n_edges == 0:
        # no edge: the answer is the seeds
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
        u, v = _driver_edges(edges)
        us, vs = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.argsort(us, kind="stable")
        us, vs = us[order], vs[order]
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

    # ---- partitioned plan: one superstep per level; hops -1 = unseen
    def level(verts, msgs, r, stats):
        node = verts["node"].to_numpy(zero_copy_only=False)
        if r == 0:
            hops = np.where(np.isin(node, seed_arr), 0, -1)
        else:
            hops = verts["hops"].to_numpy(zero_copy_only=False).copy()
            reached = msgs["node"].to_numpy(zero_copy_only=False)
            hops[(hops < 0) & np.isin(node, reached)] = r
        send = (hops == r) & (r < max_hops)
        _, nbrs = _out_edges(verts, send)
        return (
            _set(verts, hops=hops.astype(np.int64)),
            pa.table({"node": pa.array(np.unique(nbrs), pa.int64())}),
            {"active": int(send.sum())},
        )

    def visited(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["hops"], 0)).select(
            ["node", "hops"]
        )

    return supersteps(
        _adjacency(edges, nodes=seed_arr), level, max_hops + 1
    ).map_batches(visited, batch_format="pyarrow")


def kcore_peel(
    edges_ds,
    k: int = 3,
    rounds: int = 3,
    assume_canonical: bool = False,
    method: str = "auto",
):
    """``rounds`` iterations of k-core peeling: repeatedly drop nodes
    of degree < ``k`` and their incident edges. Returns a Ray Dataset
    ``(node, degree)`` — the surviving nodes with their degrees on
    the surviving edge set. A FIXED round count (with early stop once
    a round removes nothing — the remaining rounds would be no-ops)
    keeps the operator SQL-expressible by unrolling, unlike
    full-fixpoint coreness.

    Broadcast plan: edges pulled once, numpy peel on the driver.
    Partitioned plan (the scale path): :func:`iterate.supersteps`
    over vertex rows carrying their adjacency. Every live node pings
    its neighbours; a round's degree is the ping count, and a peel
    kills the live nodes below ``k``. One last round counts the
    degrees on the surviving edge set. Plans pinned equal in
    pytest."""
    import ray.data as rd

    edges_ds = _typed_uv(edges_ds)
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
                n_edges, _BROADCAST_EDGES, est_row_bytes=16
            )
            else "partitioned"
        )

    if method == "broadcast":
        us, vs = _driver_edges(edges)
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

    # ---- partitioned plan: round 0 pings, rounds 1..rounds peel, and
    # round rounds + 1 only counts; a peel that kills nothing halts
    # the loop, its degrees already being those of the final edge set
    def peel(verts, msgs, r, stats):
        n = verts.num_rows
        if r == 0:
            alive, degree, active = np.ones(n, bool), np.zeros(n), n
        else:
            alive = verts["alive"].to_numpy(zero_copy_only=False)
            degree = np.bincount(
                _positions(verts, msgs["node"]), minlength=n
            )
            dead = alive & (degree < k) & (r <= rounds)
            alive, active = alive & ~dead, int(dead.sum())
        _, nbrs = _out_edges(verts, alive & (r <= rounds))
        return (
            _set(verts, alive=alive, degree=degree.astype(np.int64)),
            pa.table({"node": pa.array(nbrs, pa.int64())}),
            {"active": active},
        )

    def survivors(t: pa.Table) -> pa.Table:
        keep = pc.and_(t["alive"], pc.greater(t["degree"], 0))
        return t.filter(keep).select(["node", "degree"])

    return supersteps(_adjacency(edges), peel, rounds + 2).map_batches(
        survivors, batch_format="pyarrow"
    )


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
    distinct groups. One COALESCED ``aggregate.exchange`` on the group
    key (one UDF dispatch per bucket, each handling all its groups with one
    lexsort + per-group numpy pair generation — never a per-group
    map_groups dispatch, which costs tens of seconds in pure overhead
    on 10k+ small groups), one exchange on the pair key (the count
    aggregate). Groups larger than ``max_group`` items are dropped
    AND logged — the hot-key contract shared with the neardup bucket
    pair generator. ``keep_count=True`` keeps the distinct-group
    count as column ``n`` (market-basket support counts)."""

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "g": batch[group_col].combine_chunks(),
                "item": batch[item_col].combine_chunks(),
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

    pairs = exchange(ds, "g", pairs_of_bucket, rows=project)

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
    assume_canonical: bool = False,
    method: str = "auto",
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

    from .relational import partitioned_hash_join

    edges_ds = _typed_uv(edges_ds)
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
                n_edges, _BROADCAST_EDGES, est_row_bytes=16
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

        def orient(batch: pa.Table) -> pa.Table:
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
            return pa.Table.from_pydict(
                {
                    "isrc": pa.array(isrc, pa.int64()),
                    "idst": pa.array(idst, pa.int64()),
                    "dst_deg": pa.array(ddst, pa.int64()),
                }
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
            exchange(edges, "isrc", tri_of_bucket, rows=orient),
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
    with_du = partitioned_hash_join(edges, deg_u, "u")
    with_dv = partitioned_hash_join(with_du, deg_v, "v")

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

    wedges = exchange(oriented, "src", wedges_of_bucket)
    closed = partitioned_hash_join(
        wedges,
        oriented.map_batches(
            lambda b: b.select(["src", "dst"]), batch_format="pyarrow"
        ),
        ["src", "dst"],
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
    joined = partitioned_hash_join(degrees, tri_counts, "node", how="left")

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
    2. ONE coalesced ``aggregate.exchange`` on src: each bucket
       lexsorts its rows and, per center node,
       emits ordered neighbor pairs (numpy ``triu_indices``) tagged
       with the center's degree — the group length IS deg(center), so
       no degree join is needed;
    3. one exchange aggregates (u, v) -> (cn, sum_ctr_deg);
    4. one bucketed ANTI join drops pairs that are already edges.

    Centers with degree > ``max_degree`` are dropped AND logged (the
    hot-key contract shared with ``cooccurrence_edges`` — a hub's
    quadratic pair fan-out is the scale hazard here).
    """

    from .relational import partitioned_hash_join

    if not assume_canonical:
        edges_ds = _canonicalize(edges_ds)
    edges = edges_ds.materialize()  # reused: wedge source + anti side

    def symmetrize(batch: pa.Table) -> pa.Table:
        u = batch["u"].combine_chunks()
        v = batch["v"].combine_chunks()
        return pa.Table.from_pydict(
            {
                "src": pa.chunked_array([u, v]).combine_chunks(),
                "dst": pa.chunked_array([v, u]).combine_chunks(),
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
        exchange(edges, "src", pairs_of_bucket, rows=symmetrize),
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
    return partitioned_hash_join(scored, edges, key=["u", "v"], how="anti")


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
            eu, degrees, key="node"
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
    assume_canonical: bool = False,
    method: str = "auto",
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

    Broadcast plan (<= ``_BROADCAST_EDGES`` edges): incidence arrays
    pulled once, each round is two lexsorts on the driver.
    Partitioned plan (the scale path): :func:`iterate.supersteps` over
    vertex rows carrying their adjacency; every round each node sends
    its label to its neighbours and takes the plurality of the labels
    it received. Plans pinned equal in pytest."""
    import ray.data as rd

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
                n_edges, _BROADCAST_EDGES, est_row_bytes=16
            )
            else "partitioned"
        )

    if method == "broadcast":
        us, vs = _driver_edges(edges)
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        nodes = np.unique(src)
        si = np.searchsorted(nodes, src)  # dense index per incidence
        di = np.searchsorted(nodes, dst)
        labels = nodes.copy()
        for _ in range(rounds):
            new_labels = _plurality(si, labels[di], labels)
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

    # ---- partitioned plan: round 0 sends the initial labels, rounds
    # 1..rounds adopt the plurality; a round that changes nothing halts
    def propagate(verts, msgs, r, stats):
        if r == 0:
            label = verts["node"].to_numpy(zero_copy_only=False)
            active = verts.num_rows
        else:
            old = verts["label"].to_numpy(zero_copy_only=False)
            label = _plurality(
                _positions(verts, msgs["node"]),
                msgs["label"].to_numpy(zero_copy_only=False),
                old,
            )
            active = int((label != old).sum())
        pos, nbrs = _out_edges(verts, np.full(len(label), r < rounds))
        return (
            _set(verts, label=label),
            pa.table(
                {
                    "node": pa.array(nbrs, pa.int64()),
                    "label": pa.array(label[pos], pa.int64()),
                }
            ),
            {"active": active},
        )

    return supersteps(_adjacency(edges), propagate, rounds + 1).map_batches(
        lambda t: t.select(["node", "label"]), batch_format="pyarrow"
    )


def _plurality(pos, lbl, labels):
    """``labels`` with each position in ``pos`` set to the plurality of
    its ``lbl`` values (tie -> smallest label)."""
    if pos.size == 0:
        return labels.copy()
    # count per (pos, label): sort, boundary-diff
    order = np.lexsort((lbl, pos))
    s, l = pos[order], lbl[order]
    new_grp = np.concatenate(
        [[True], (s[1:] != s[:-1]) | (l[1:] != l[:-1])]
    )
    starts = np.flatnonzero(new_grp)
    cnt = np.diff(np.append(starts, s.size))
    gs, gl = s[starts], l[starts]
    # plurality with min-label tie-break: sort groups by
    # (pos, -count, label), keep first per pos
    gorder = np.lexsort((gl, -cnt, gs))
    gs, gl = gs[gorder], gl[gorder]
    first = np.concatenate([[True], gs[1:] != gs[:-1]])
    out = labels.copy()
    out[gs[first]] = gl[first]
    return out


def random_walks(
    edges_ds,
    n_steps: int = 3,
    seed: int = 20260819,
    assume_canonical: bool = False,
    method: str = "auto",
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

    Broadcast plan (<= ``_BROADCAST_EDGES`` edges): driver CSR (sorted
    incidence + offsets), each step one vectorized gather — zero
    exchanges. Partitioned plan: :func:`iterate.supersteps` over
    vertex rows carrying their sorted neighbours; the walkers are the
    messages, each step moving every walker to its next node with the
    walk so far as payload columns. Plans pinned equal in pytest."""
    import ray.data as rd

    from ..functions.shingles import _splitmix64, stable_hash64

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
                n_edges, _BROADCAST_EDGES, est_row_bytes=16
            )
            else "partitioned"
        )

    if method == "broadcast":
        us, vs = _driver_edges(edges)
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

    # ---- partitioned plan: round t moves the walkers that reached
    # their node by step t; the last round returns the finished walks
    def step(verts, msgs, r, stats):
        if r == 0:  # one walker per node, standing at its start
            node = verts["node"].to_numpy(zero_copy_only=False)
            h = np.array(
                [stable_hash64(str(int(x))) for x in node], np.uint64
            )
            msgs = pa.table(
                {
                    "node": pa.array(node, pa.int64()),
                    "start": pa.array(node, pa.int64()),
                    # int64 bit view: Ray reduces overflow raw uint64
                    "h": pa.array(h.view(np.int64), pa.int64()),
                }
            )
        if r == n_steps:
            return msgs, msgs.select(["node"]).slice(0, 0), {}
        nbrs = verts["nbrs"].combine_chunks()
        deg = pc.list_value_length(nbrs).to_numpy(zero_copy_only=False)
        first = np.cumsum(deg) - deg
        at = _positions(verts, msgs["node"])
        h = msgs["h"].to_numpy(zero_copy_only=False).view(np.uint64)
        k = _splitmix64(h ^ step_seeds[r]) % deg[at].astype(np.uint64)
        nxt = pc.list_flatten(nbrs).take(
            pa.array(first[at] + k.astype(np.int64))
        )
        moved = msgs.set_column(
            msgs.schema.get_field_index("node"), "node", nxt
        )
        return verts, moved.append_column(f"s{r + 1}", nxt), {}

    return supersteps(_adjacency(edges), step, n_steps + 1).map_batches(
        lambda t: t.select(cols), batch_format="pyarrow"
    )


def edge_triangle_support(
    edges_ds,
    max_degree: int = 1024,
    assume_canonical: bool = False,
    method: str = "auto",
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

    Broadcast plan (<= ``_BROADCAST_EDGES`` edges, the family's auto
    crossover): edges pulled once, support via one sorted-adjacency
    sweep on the driver — the three bucketed joins are pure fixed
    exchange cost at small graph sizes (measured 21.6 s at sf0.1 for
    a 548-edge graph, vs <2 s broadcast)."""

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
                n_edges, _BROADCAST_EDGES, est_row_bytes=16
            )
            else "partitioned"
        )

    if n_edges and method == "broadcast":
        us, vs = _driver_edges(edges)
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
        return pa.Table.from_pydict(
            {
                "src": pa.chunked_array([u, v]).combine_chunks(),
                "dst": pa.chunked_array([v, u]).combine_chunks(),
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
        exchange(edges, "src", pairs_of_bucket, rows=symmetrize),
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
            edges, max_degree=max_degree,
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
