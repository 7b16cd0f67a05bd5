"""Distributed PageRank over the page link graph.

A crawl-scale curation stack ranks its URL frontier and scores domain
authority with link analysis; PageRank is the canonical form. This
stage runs weighted PageRank with damping and dangling-mass
redistribution as a vertex program on :func:`iterate.supersteps`:

* the vertex rows are built by ONE ``aggregate.exchange`` on node
  over both ends of every edge: each node carries its out-neighbours
  and their out-probabilities as list columns, and its dangling flag;
* each power-iteration round is one superstep: a node's new rank is
  ``d * fsum(inflow) + base`` from the messages it received, and it
  sends ``rank * p`` to each out-neighbour. The dangling mass and the
  node count travel as the round's stats, so no extra execution runs;
* every float sum is ``math.fsum`` — the inflow of a node and the
  dangling mass alike — so the ranks are bit-identical across runs,
  block arrival orders and modes.

Partitioning assumption: the exchange runs at the fixed bucket count
of ``aggregate.exchange``; a hot destination concentrates its inflow
messages in one bucket.
"""

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import exchange
from .graph import _out_edges, _positions, _set
from .iterate import supersteps


def _link_rows(b: pa.Table) -> pa.Table:
    """Both ends of every edge: the source with its link, the
    destination alone (a node without out-links is dangling)."""
    src, dst = b["src"].combine_chunks(), b["dst"].combine_chunks()
    return pa.table(
        {
            "node": pa.concat_arrays([src, dst]),
            "dst": pa.concat_arrays([dst, pa.nulls(len(dst), dst.type)]),
            "w": pa.concat_arrays(
                [
                    b["w"].combine_chunks().cast(pa.int64()),
                    pa.nulls(len(dst), pa.int64()),
                ]
            ),
        }
    )


def _vertex_rows(t: pa.Table) -> pa.Table:
    """``(node, nbrs, p, dang)``: the out-links of each node summed per
    destination, with ``p = w / outw``."""
    nodes = pc.unique(t["node"]).sort()
    out = (
        t.filter(pc.is_valid(t["dst"]))
        .group_by(["node", "dst"], use_threads=False)
        .aggregate([("w", "sum")])
        .sort_by([("node", "ascending"), ("dst", "ascending")])
    )
    at = pc.index_in(out["node"], value_set=nodes).to_numpy()
    w = out["w_sum"].to_numpy()
    outw = np.zeros(len(nodes), np.int64)
    np.add.at(outw, at, w)
    n_out = np.bincount(at, minlength=len(nodes))
    offsets = pa.array(np.append(0, np.cumsum(n_out)), pa.int32())
    p = w.astype(np.float64) / outw[at].astype(np.float64)
    return pa.table(
        {
            "node": nodes,
            "nbrs": pa.ListArray.from_arrays(
                offsets, out["dst"].combine_chunks()
            ),
            "p": pa.ListArray.from_arrays(offsets, pa.array(p)),
            "dang": pa.array((n_out == 0).astype(np.int64)),
        }
    )


def _inflow(verts: pa.Table, msgs: pa.Table) -> np.ndarray:
    """``math.fsum`` of each vertex's inflow messages (0.0 for none)."""
    out = np.zeros(verts.num_rows)
    if msgs.num_rows == 0:
        return out
    at = _positions(verts, msgs["node"])
    vals = msgs["infl"].to_numpy(zero_copy_only=False)
    order = np.argsort(at, kind="stable")
    at, vals = at[order], vals[order]
    starts = np.flatnonzero(np.concatenate([[True], at[1:] != at[:-1]]))
    for s, e in zip(starts, np.append(starts[1:], at.size)):
        out[at[s]] = math.fsum(vals[s:e])
    return out


def pagerank(edges_ds, n_iter: int = 3, damping: float = 0.85):
    """Weighted PageRank over ``edges_ds`` (src: string, dst: string,
    w: int64; parallel edges allowed — weights add). Returns a
    Dataset (node, pr) over the union of sources and destinations.

    r_{k+1}(v) = (1-d)/N + d * (sum_{u->v} r_k(u) * w(u,v)/outw(u)
                                + dangling_mass_k / N)

    Superstep 0 counts the nodes; superstep 1 sets r_0 = 1/N; each
    later one applies one iteration, and every superstep but the last
    sends ``r * p`` along the out-links.
    """
    last = n_iter + 1

    def step(verts, msgs, r, stats):
        n = stats.get("n")
        if r == 0:  # superstep 0 only counts the nodes
            rank = np.zeros(verts.num_rows)
        elif r == 1:
            rank = np.full(verts.num_rows, 1.0 / n)
        else:
            base = (1.0 - damping) / n + damping * (stats["dm"] / n)
            rank = _inflow(verts, msgs) * damping + base
        send = np.full(verts.num_rows, 0 < r < last)
        at, dst = _out_edges(verts, send)
        _, p = _out_edges(verts, send, "p")
        dang = verts["dang"].to_numpy(zero_copy_only=False) == 1
        return (
            _set(verts, r=rank),
            pa.table(
                {
                    "node": pa.array(dst, verts["node"].type),
                    "infl": pa.array(rank[at] * p, pa.float64()),
                }
            ),
            {"n": verts.num_rows, "dm": math.fsum(rank[dang])},
        )

    def finish(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b["node"].combine_chunks(), b["r"].combine_chunks()],
            names=["node", "pr"],
        )

    vertices = exchange(edges_ds, "node", _vertex_rows, rows=_link_rows)
    return supersteps(vertices, step, n_iter + 2).map_batches(
        finish, batch_format="pyarrow"
    )


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
