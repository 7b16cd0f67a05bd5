"""Connected components over near-duplicate pairs (dedup clustering).

Pair generation (stages/neardup.py, stages/similarity.py) answers
"which documents are near-duplicates of each other"; actually
DEDUPLICATING a corpus needs the transitive closure: pairs form
clusters, and one canonical document survives per cluster. Two
physical plans for the same logical operator (component id = MIN
doc_id in the cluster — deterministic, joinable back to the corpus):

* ``driver`` — classic union-find with path compression over the
  streamed pair batches. The pair stream is the *verified near-dup
  output* (O(duplicate rate), not O(corpus)); driver state is two
  ints per distinct doc appearing in a pair. Right whenever that set
  fits one machine — up to ~10^8 pair-docs.
* ``distributed`` — iterative min-label propagation with pointer
  jumping, a vertex program on :func:`iterate.supersteps`: each doc
  carries its neighbours, labels start as each doc's own id, and
  every superstep (ONE exchange) a doc takes the min of its label,
  the labels its neighbours sent and the label of its label (the
  pointer jump), converging in O(log diameter) supersteps — near-dup
  clusters are shallow, so typically 2-3. The changed-label count of
  each superstep is its stats row; a superstep that changes nothing
  halts the loop. At most ``_MAX_ROUNDS`` supersteps run.

``components="auto"`` counts the pair stream once and picks driver
below ``driver_max_pairs``. Both plans are pinned equal in tests and
the distributed plan is the one exercised under the DuckDB oracle
(recursive-CTE transitive closure).
"""

from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .graph import _adjacency, _out_edges, _positions, _set
from .iterate import pin_loop_state, supersteps

_MAX_ROUNDS = 64


def _components_driver(pairs_ds) -> pa.Table:
    """Union-find with path compression + union by smaller-root."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for batch in pairs_ds.iter_batches(batch_format="pyarrow"):
        for a, b in zip(
            batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist()
        ):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by min keeps roots = cluster minimum
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb

    docs = sorted(parent)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(docs, pa.int64()),
            "component": pa.array([find(d) for d in docs], pa.int64()),
        }
    )


def _messages(node, label=None, ask=None) -> pa.Table:
    """Message rows of the components loop: ``label`` offered to
    ``node``, or ``ask`` asking ``node`` for its label."""

    def col(values):
        if values is None:
            return pa.nulls(len(node), pa.int64())
        return pa.array(values, pa.int64())

    return pa.table(
        {"node": pa.array(node, pa.int64()), "label": col(label),
         "ask": col(ask)}
    )


def _components_distributed(pairs_ds):
    """Min-label propagation with pointer jumping on
    :func:`iterate.supersteps`.

    Superstep 0 takes the min over each node's closed neighbourhood
    from its adjacency. Then every superstep a node takes the min of
    its label and the labels it received; a node whose label changed
    sends it to its neighbours. Pointer jumping rides the same
    messages: a node labelled L asks L for its label, and L answers
    the askers of the previous superstep with its own label, so a
    diameter-D chain collapses in O(log D) supersteps, not O(D).
    Labels only decrease; a superstep that changes none is the
    fixpoint and halts the loop.
    """

    def as_uv(b: pa.Table) -> pa.Table:
        return pa.table(
            {"u": b["doc_a"].cast(pa.int64()),
             "v": b["doc_b"].cast(pa.int64())}
        )

    def hop(verts, msgs, r, stats):
        node = verts["node"].to_numpy(zero_copy_only=False)
        if r == 0:  # the closed neighbourhood, read off the adjacency
            old = node
            at, offered = _out_edges(verts, np.ones(node.size, bool))
            asker = asked = np.zeros(0, np.int64)
        else:
            old = verts["label"].to_numpy(zero_copy_only=False)
            offer = msgs.filter(pc.is_valid(msgs["label"]))
            at = _positions(verts, offer["node"])
            offered = offer["label"].to_numpy(zero_copy_only=False)
            query = msgs.filter(pc.is_valid(msgs["ask"]))
            asker = query["ask"].to_numpy(zero_copy_only=False)
            asked = _positions(verts, query["node"])
        label = old.copy()
        np.minimum.at(label, at, offered)
        changed = label != old
        at, nbr = _out_edges(verts, changed)
        answer = label[asked] != node[asked]  # a root's label is no news
        ask = label != node
        out = pa.concat_tables(
            [
                _messages(nbr, label=label[at]),
                _messages(asker[answer], label=label[asked][answer]),
                _messages(label[ask], ask=node[ask]),
            ]
        )
        return _set(verts, label=label), out, {"active": int(changed.sum())}

    labels = supersteps(
        _adjacency(pairs_ds.map_batches(as_uv, batch_format="pyarrow")),
        hop,
        _MAX_ROUNDS,
    )
    return labels.map_batches(
        lambda b: pa.table(
            {"doc_id": b["node"], "component": b["label"]}
        ),
        batch_format="pyarrow",
    )


def neardup_components(
    pairs_ds,
    method: str = "auto",
    driver_max_pairs: int = 10_000_000,
):
    """(doc_id, component) for every doc appearing in a near-dup pair;
    component = min doc_id of the cluster. See module docstring for
    the two physical plans."""
    import ray.data as rd

    if method == "auto":
        # pin ONCE so the count does not execute the (expensive)
        # candidate+verify plan a first time and the chosen method a
        # second time — both consumers read the same materialized refs
        from . import plan as plan_choice

        pairs_ds = pin_loop_state(pairs_ds, num_blocks=None)
        n = pairs_ds.count()
        method = (
            "driver"
            if plan_choice.choose_broadcast(
                n, driver_max_pairs, est_row_bytes=16
            )
            else "distributed"
        )
    if method == "driver":
        return rd.from_arrow(_components_driver(pairs_ds))
    if method == "distributed":
        return _components_distributed(pairs_ds)
    raise ValueError(f"unknown components method: {method}")


def _losers_ds(components_ds):
    """(doc_id) of every cluster member that is NOT its cluster's
    minimum — the rows ``canonical_filter`` removes."""
    def non_min(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.not_equal(batch["doc_id"], batch["component"])
        ).select(["doc_id"])

    return components_ds.map_batches(non_min, batch_format="pyarrow")


def canonical_filter(
    docs_ds,
    components_ds,
    method: str = "auto",
    broadcast_max_losers: int = 5_000_000,
):
    """Drop near-duplicate losers: keep docs that either appear in no
    cluster or ARE their cluster's minimum.

    Two physical plans, mirroring ``latest_crawl``'s crossover:

    * ``broadcast`` — collect the loser ids once (`ray.put`), filter
      inside ``map_batches``. Driver/actor state is O(loser count);
      right while the duplicate set fits comfortably in one heap.
    * ``partitioned`` — bucketed hash ANTI-join of docs against the
      loser ids (`relational.partitioned_hash_join(how="anti")`). One
      exchange, zero driver state — the 10^12-doc plan; at a 30-50%
      duplicate rate the loser set is corpus-scale and must never be
      collected.

    ``auto`` pins the (small) loser Dataset once, counts it, and picks
    broadcast below ``broadcast_max_losers``. Both plans are pinned
    equal in tests and witnessed under the DuckDB oracle
    (``dedup_canonical_docs``)."""
    import ray

    from .relational import partitioned_hash_join

    losers = _losers_ds(components_ds)
    if method == "auto":
        from . import plan as plan_choice

        losers = pin_loop_state(losers, num_blocks=None)
        n = losers.count()
        method = (
            "broadcast"
            if plan_choice.choose_broadcast(
                n, broadcast_max_losers, est_row_bytes=8
            )
            else "partitioned"
        )

    if method == "partitioned":
        return partitioned_hash_join(
            docs_ds, losers, key="doc_id", how="anti",
        )
    if method != "broadcast":
        raise ValueError(f"unknown canonical_filter method: {method}")

    chunks = []
    for b in losers.iter_batches(batch_format="pyarrow"):
        chunks.append(b["doc_id"].to_numpy(zero_copy_only=False))
    loser_arr = pa.array(
        np.concatenate(chunks) if chunks else np.empty(0, np.int64),
        pa.int64(),
    )
    ref = ray.put(loser_arr)

    def keep(batch: pa.Table) -> pa.Table:
        blocked = ray.get(ref)
        if len(blocked) == 0:
            return batch
        return batch.filter(
            pc.invert(pc.is_in(batch["doc_id"], value_set=blocked))
        )

    return docs_ds.map_batches(keep, batch_format="pyarrow")
