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
  jumping, expressed as Ray Data exchanges: labels start as each
  node's own id; every round each node takes the min over its label,
  its neighbors' labels (edge join + groupby-min) and its label's
  label (the pointer jump), converging in O(log diameter) rounds —
  near-dup clusters are shallow, so typically 2-3 rounds. Driver
  state is one label-sum per round (monotone convergence check).

``components="auto"`` counts the pair stream once and picks driver
below ``driver_max_pairs``. Both plans are pinned equal in tests and
the distributed plan is the one exercised under the DuckDB oracle
(recursive-CTE transitive closure).
"""

from typing import Dict

import numpy as np
import pyarrow as pa

_LABEL_SCHEMA = pa.schema([("doc_id", pa.int64()), ("label", pa.int64())])


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


def pin_loop_state(ds, num_blocks=8):
    """Pin a Dataset that feeds back into an iterative plan.

    Two invariants keep every round the same cost (without them
    per-round wall compounds 4-5x, measured):

    * constant BLOCK COUNT — a round's union-of-k-streams sort
      shuffle otherwise emits ~k-fold the blocks of the previous
      round, and scheduling overhead scales with blocks;
    * severed LINEAGE — a fresh Dataset over the materialized
      Arrow refs, so round N+1's plan does not re-plan round N.

    ``num_blocks=None`` skips the repartition (severs lineage only) —
    right when the producing plan already emits a bounded, constant
    block count each round (e.g. a bucketed-join groupby), where the
    extra AllToAll would be pure fixed cost.

    Shared by every iterative operator (components label propagation,
    PageRank power iteration).
    """
    import ray.data as rd

    if num_blocks is not None:
        ds = ds.repartition(num_blocks)
    return rd.from_arrow_refs(ds.materialize().to_arrow_refs())


def _components_distributed(pairs_ds, max_rounds: int = 64):
    """Min-label propagation with pointer jumping.

    Each round every node takes the min over (its label, its
    neighbors' labels, its label's label) — the label-of-label term is
    classic pointer jumping, which collapses a diameter-D chain in
    O(log D) rounds instead of O(D). Labels only ever decrease, so
    convergence is detected by one cheap global sum (monotone:
    unchanged sum == fixpoint), no compare-join needed.
    """
    from .aggregate import aggregate
    from .relational import partitioned_hash_join

    _pin = pin_loop_state

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].cast(pa.int64())
        b = batch["doc_b"].cast(pa.int64())
        return pa.concat_tables(
            [
                pa.table({"src": a, "dst": b}),
                pa.table({"src": b, "dst": a}),
            ]
        )

    # the edge list is reused every round: materialize once
    edges = _pin(pairs_ds.map_batches(to_edges, batch_format="pyarrow"))

    def init_labels(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["src"], "label": batch["src"]}
        ).cast(_LABEL_SCHEMA)

    labels = _pin(
        aggregate(
            edges, "doc_id", [("label", "min", "label")], rows=init_labels
        )
    )
    prev_sum = aggregate(labels, [], [("s", "sum", "label")])["s"]

    for _ in range(max_rounds):
        lab_src = labels.map_batches(
            lambda b: b.rename_columns(["src", "label"]),
            batch_format="pyarrow",
        )
        via_edges = partitioned_hash_join(
            edges, lab_src, key="src", num_buckets=8
        ).map_batches(
            lambda b: b.select(["dst", "label"]).rename_columns(
                ["doc_id", "label"]
            ),
            batch_format="pyarrow",
        )
        # pointer jump: (doc -> label) ∘ (label -> its label)
        jump = partitioned_hash_join(
            labels.map_batches(
                lambda b: b.rename_columns(["doc_id", "mid"]),
                batch_format="pyarrow",
            ),
            labels.map_batches(
                lambda b: b.rename_columns(["mid", "label"]),
                batch_format="pyarrow",
            ),
            key="mid",
            num_buckets=8,
        ).map_batches(
            lambda b: b.select(["doc_id", "label"]), batch_format="pyarrow"
        )
        labels = _pin(
            aggregate(
                labels.union(via_edges).union(jump),
                "doc_id",
                [("label", "min", "label")],
            )
        )
        cur_sum = aggregate(labels, [], [("s", "sum", "label")])["s"]
        if cur_sum == prev_sum:  # labels are monotone non-increasing
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda b: b.rename_columns(["doc_id", "component"]),
        batch_format="pyarrow",
    )


def neardup_components(
    pairs_ds,
    method: str = "auto",
    driver_max_pairs: int = 10_000_000,
    max_rounds: int = 64,
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
        return _components_distributed(pairs_ds, max_rounds=max_rounds)
    raise ValueError(f"unknown components method: {method}")


def _losers_ds(components_ds):
    """(doc_id) of every cluster member that is NOT its cluster's
    minimum — the rows ``canonical_filter`` removes."""
    import pyarrow.compute as pc

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
    num_buckets: int = 64,
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
    import pyarrow.compute as pc
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
            num_buckets=num_buckets,
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
