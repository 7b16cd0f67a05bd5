"""Distributed PageRank over the page link graph.

A crawl-scale curation stack ranks its URL frontier and scores domain
authority with link analysis; PageRank is the canonical form. This
stage runs weighted PageRank with damping and dangling-mass
redistribution as a pure Ray Data plan:

* the rank relation and the edge relation are both Datasets
  end-to-end — no broadcast rank vector, no driver-resident state
  beyond two scalars per round (node count, dangling mass);
* each power-iteration round is (1) a bucketed hash join of ranks
  against the out-probability edge list on the source node
  (``relational.partitioned_hash_join`` — Acero per bucket), then (2)
  the sum over destinations through ``stages/aggregate.py`` (Arrow
  partial per batch, bucketed Arrow merge), then (3) a left-outer join
  back onto the static node relation applying teleport + dangling
  mass, so nodes with zero inflow keep receiving rank;
* loop state is pinned (lineage severed AND coalesced to a constant
  small block count) each round (``components.pin_loop_state``) —
  ``materialize()`` alone lets the per-round plan compound (measured
  4-5x per round on the components loop), and skipping the coalesce
  leaves hundreds of tiny sort-output blocks whose per-block task
  overhead dominates every later stage (measured 20-60 s/round at
  sf0.1 vs ~2 s pinned).

Partitioning assumption: the join exchanges run at the fixed bucket
count of ``aggregate.exchange``. Skewed in-degree
(one hot dst) concentrates one groupby-sum reducer; the per-batch
combine caps its input at O(batches x distinct-dst-per-batch).
"""

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import aggregate
from .components import pin_loop_state
from .relational import partitioned_hash_join


def pagerank(
    edges_ds,
    n_iter: int = 3,
    damping: float = 0.85,
    num_blocks: int = 8,
    n_nodes: Optional[int] = None,
):
    """Weighted PageRank over ``edges_ds`` (src: string, dst: string,
    w: int64; parallel edges allowed — weights add). Returns a
    Dataset (node, pr) over the union of sources and destinations.

    r_{k+1}(v) = (1-d)/N + d * (sum_{u->v} r_k(u) * w(u,v)/outw(u)
                                + dangling_mass_k / N)
    """
    # ---- out-weight normalized edge list (built once, pinned) -----
    edges = pin_loop_state(
        aggregate(edges_ds, ["src", "dst"], [("w", "sum", "w")]), num_blocks
    )
    outw = aggregate(edges, "src", [("outw", "sum", "w")])

    def normalize(b: pa.Table) -> pa.Table:
        p = pc.divide(
            pc.cast(b["w"], pa.float64()), pc.cast(b["outw"], pa.float64())
        )
        return pa.Table.from_arrays(
            [b["src"].combine_chunks(), b["dst"].combine_chunks(), p],
            names=["src", "dst", "p"],
        )

    edges_norm = pin_loop_state(
        partitioned_hash_join(
            edges, outw, "src"
        ).map_batches(normalize, batch_format="pyarrow"),
        num_blocks,
    )

    # ---- node relation with dangling flag (static) ----------------
    def sides(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [b["src"].combine_chunks(), b["dst"].combine_chunks()]
                ),
                "f": pa.array([0] * n + [1] * n, pa.int64()),
            }
        )

    nodes = pin_loop_state(
        aggregate(edges, "node", [("dang", "min", "f")], rows=sides),
        num_blocks,
    )
    n = n_nodes if n_nodes is not None else nodes.count()

    # ---- r0: uniform -----------------------------------------------
    r0 = 1.0 / n

    def init_rank(b: pa.Table) -> pa.Table:
        return b.append_column(
            "r", pa.array([r0] * b.num_rows, pa.float64())
        )

    # lazy over the pinned nodes blocks: round 1 re-executes this tiny
    # map twice (dm pass + join) — cheaper than another materialize
    # round-trip
    ranks = nodes.map_batches(init_rank, batch_format="pyarrow")

    teleport = (1.0 - damping) / n

    for _ in range(n_iter):
        # dangling mass: one scalar to the driver per round
        dm = ranks.filter(expr="dang == 1").sum("r") or 0.0
        base = teleport + damping * (dm / n)

        def as_src(b: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [b["node"].combine_chunks(), b["r"].combine_chunks()],
                names=["src", "r"],
            )

        def contrib(b: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [b["dst"], pc.multiply(b["r"], b["p"])],
                names=["node", "infl"],
            )

        inflow = aggregate(
            partitioned_hash_join(
                ranks.map_batches(as_src, batch_format="pyarrow"),
                edges_norm,
                "src",
            ),
            "node",
            [("infl", "sum", "infl")],
            rows=contrib,
        )

        def apply_rank(b: pa.Table) -> pa.Table:
            infl = pc.coalesce(b["infl"], pa.scalar(0.0, pa.float64()))
            r = pc.add(pc.multiply(infl, damping), base)
            return pa.Table.from_arrays(
                [
                    b["node"].combine_chunks(),
                    b["dang"].combine_chunks(),
                    r,
                ],
                names=["node", "dang", "r"],
            )

        ranks = pin_loop_state(
            partitioned_hash_join(
                nodes, inflow, "node", how="left"
            ).map_batches(apply_rank, batch_format="pyarrow"),
            num_blocks,
        )

    def finish(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b["node"].combine_chunks(), b["r"].combine_chunks()],
            names=["node", "pr"],
        )

    return ranks.map_batches(finish, batch_format="pyarrow")


def pagerank_numpy(src, dst, w, n_iter: int = 3, damping: float = 0.85):
    """Single-node reference implementation (dense, test oracle)."""
    import numpy as np

    nodes = sorted(set(src) | set(dst))
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    W = np.zeros((n, n))
    for s, d, ww in zip(src, dst, w):
        W[idx[s], idx[d]] += ww
    out = W.sum(axis=1)
    dangling = out == 0
    P = np.divide(W, out[:, None], out=np.zeros_like(W), where=out[:, None] > 0)
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        dm = r[dangling].sum()
        r = (1 - damping) / n + damping * (r @ P + dm / n)
    return dict(zip(nodes, r))
