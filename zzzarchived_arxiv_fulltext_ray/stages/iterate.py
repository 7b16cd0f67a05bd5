"""The engine's one iterative loop: Pregel supersteps over Ray Data.

Every partitioned iterative operator (PageRank, connected components,
BFS, k-core peeling, label propagation, random walks) is a vertex
program run by :func:`supersteps`, after Pregel's superstep (SIGMOD
2010):

* **Rows.** ``vertices`` is a Dataset keyed by a ``node`` column. A
  vertex row carries its static data next to its state — the
  adjacency as list columns, PageRank's out-probabilities and
  dangling flag — so no static relation is re-joined in any round.
  Each round already moved the edge relation through a join before
  this loop existed, so carrying the adjacency moves no more bytes.
* **One exchange per round.** Round ``r`` is ONE
  :func:`aggregate.exchange` on ``node`` over the previous round's
  output: the vertex rows plus the message rows addressed to a
  ``node``. ``step(vertices, messages, r, stats)`` runs once per
  bucket with that bucket's vertex rows and the messages sent to them
  (round 0 gets an empty ``messages`` with only ``node``), and
  returns ``(vertices, messages, stats)``: the bucket's new vertex
  rows, its outgoing messages (a ``node`` column naming the receiver
  plus payload columns) and one dict of int or float statistics.
  Rows reach a bucket in block-arrival order, so a step must not
  depend on it: sort, take mins and counts, add floats with
  ``math.fsum``.
* **Pin and stop.** The round's output is pinned and its per-bucket
  stats rows are read by one Ray task per pinned block — never a Ray
  Data execution. Ints add exactly and floats add with ``math.fsum``,
  whose correctly rounded sum does not depend on the order of the
  buckets. The sum is the next round's ``stats``. The loop stops
  after ``rounds`` rounds, once a round reports ``active == 0``
  (Pregel's vote to halt), or once no bucket ran (no rows left).

Inside a round's output the vertex columns keep their names, message
payload columns carry the ``__m.`` prefix, stats columns the ``__s.``
prefix, and ``__kind`` tells the three row kinds apart; vertex,
message and stats column names must not start with ``__``. A step
returns the same column types from every bucket, empty tables
included. The result is the last round's vertex rows; a step may
reshape them in its last round (random walks return the finished
walks).

Two pin invariants keep every round the same cost; without them the
per-round wall time compounded 4-5x (measured on the components loop):

* constant BLOCK COUNT — an exchange already emits a bounded block
  count, so the loop only severs lineage (:func:`pin_loop_state` with
  ``num_blocks=None``);
* severed LINEAGE — each round starts from a fresh Dataset over the
  materialized Arrow refs, so round N+1 never re-plans round N.
"""

import math
from typing import Callable, Dict, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .aggregate import exchange

_KIND = "__kind"
_MSG = "__m."
_STAT = "__s."
_VERTEX, _MESSAGE, _STATS = 0, 1, 2

Step = Callable[
    [pa.Table, pa.Table, int, Dict[str, float]],
    Tuple[pa.Table, pa.Table, Dict[str, float]],
]


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

    :func:`supersteps` keeps the same two invariants inline (it needs
    the refs for its stats tasks); ``ktruss_peel`` and the pins ahead
    of a plan choice call this.
    """
    import ray.data as rd

    if num_blocks is not None:
        ds = ds.repartition(num_blocks)
    return rd.from_arrow_refs(ds.materialize().to_arrow_refs())


def _split(t: pa.Table) -> Tuple[pa.Table, pa.Table]:
    """A bucket's vertex rows and the message rows sent to them."""
    if _KIND not in t.column_names:  # round 0: the input vertices
        return t, t.select(["node"]).slice(0, 0)
    kind = t[_KIND]
    vcols = [c for c in t.column_names if not c.startswith("__")]
    mcols = [c for c in t.column_names if c.startswith(_MSG)]
    verts = t.filter(pc.equal(kind, _VERTEX)).select(vcols)
    msgs = t.filter(pc.equal(kind, _MESSAGE)).select(["node"] + mcols)
    return verts, msgs.rename_columns(
        ["node"] + [c[len(_MSG):] for c in mcols]
    )


def _kind(t: pa.Table, kind: int) -> pa.Table:
    return t.append_column(
        _KIND, pa.array(np.full(t.num_rows, kind, np.int8))
    )


def _assemble(
    verts: pa.Table, msgs: pa.Table, stats: Dict[str, float]
) -> pa.Table:
    """One table of a bucket's vertex, message and stats rows."""
    msgs = msgs.rename_columns(
        [c if c == "node" else _MSG + c for c in msgs.column_names]
    )
    stat_row = pa.table(
        {_KIND: pa.array([_STATS], pa.int8()),
         **{_STAT + k: [v] for k, v in stats.items()}}
    )
    return pa.concat_tables(
        [_kind(verts, _VERTEX), _kind(msgs, _MESSAGE), stat_row],
        promote_options="default",
    )


def _drop_stats(t: pa.Table) -> pa.Table:
    if _KIND not in t.column_names:
        return t
    return t.filter(pc.not_equal(t[_KIND], _STATS))


@ray.remote
def _stats_rows(block: pa.Table) -> list:
    if _KIND not in block.column_names:  # an empty exchange output
        return []
    rows = block.filter(pc.equal(block[_KIND], _STATS))
    return rows.select(
        [c for c in rows.column_names if c.startswith(_STAT)]
    ).to_pylist()


def _sum_stats(rows: list) -> Dict[str, float]:
    """Exact int sums; ``math.fsum`` for floats (order-free)."""
    out = {}
    for key in sorted({k for row in rows for k in row}):
        vals = [row[key] for row in rows if row.get(key) is not None]
        name = key[len(_STAT):]
        if any(isinstance(v, float) for v in vals):
            out[name] = math.fsum(vals)
        else:
            out[name] = sum(vals)
    return out


def supersteps(vertices, step: Step, rounds: int):
    """Run ``step`` for at most ``rounds`` supersteps over ``vertices``
    (a Dataset keyed by ``node``); returns the last round's vertex
    rows as a Dataset. See the module docstring for the contract."""
    import ray.data as rd

    ds, stats = vertices, {}
    for r in range(rounds):

        def run(t: pa.Table, r=r, stats=stats) -> pa.Table:
            return _assemble(*step(*_split(t), r, stats))

        # the pin (severed lineage; the exchange bounds the blocks),
        # keeping the refs for the stats tasks
        refs = (
            exchange(ds, "node", run, rows=_drop_stats)
            .materialize()
            .to_arrow_refs()
        )
        ds = rd.from_arrow_refs(refs)
        rows = [
            row for rs in ray.get([_stats_rows.remote(b) for b in refs])
            for row in rs
        ]
        stats = _sum_stats(rows)
        if not rows or stats.get("active") == 0:
            break
    return ds.map_batches(lambda t: _split(t)[0], batch_format="pyarrow")
