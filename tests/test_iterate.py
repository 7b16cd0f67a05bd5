"""The one iterative loop (stages/iterate.supersteps) and its ports."""

import ast
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest

from conftest import TESTDATA
from zzzarchived_arxiv_fulltext_ray.stages.iterate import supersteps


def _vertices(nodes, nxt):
    import ray.data as rd

    typ = pa.string() if isinstance(nodes[0], str) else pa.int64()
    table = pa.table(
        {"node": pa.array(nodes, typ), "nxt": pa.array(nxt, typ)}
    )
    return rd.from_arrow(table).repartition(3)


def _frame(ds):
    df = ds.to_pandas()
    return df.sort_values("node").reset_index(drop=True)


def _ring_step():
    """A step in which each vertex sends one token to ``nxt`` and notes
    whether it got one, the round, and the stats the round was given
    (nested, so Ray pickles it by value)."""
    import pyarrow.compute as pc

    def step(verts, msgs, r, stats):
        n = verts.num_rows
        got = pc.is_in(
            verts["node"], value_set=msgs["node"].combine_chunks()
        )
        out = pa.table(
            {
                "node": verts["node"],
                "nxt": verts["nxt"],
                "got": pc.cast(got, pa.int64()),
                "round": pa.array([r] * n, pa.int64()),
                "seen_n": pa.array([stats.get("n", -1)] * n, pa.int64()),
                "seen_x": pa.array(
                    [stats.get("x", -1.0)] * n, pa.float64()
                ),
            }
        )
        return out, pa.table({"node": verts["nxt"]}), {"n": n, "x": 0.5 * n}

    return step


@pytest.mark.parametrize(
    "nodes",
    [list(range(10)), [f"n{i:02d}" for i in range(10)],
     [2**62 + i for i in range(10)]],
    ids=["int64", "string", "wide-int64"],
)
def test_supersteps_carries_stats_and_messages(ray_session, nodes):
    nxt = nodes[1:] + nodes[:1]
    out = _frame(supersteps(_vertices(nodes, nxt), _ring_step(), 3))
    assert out["node"].tolist() == sorted(nodes)
    assert out["round"].tolist() == [2] * 10
    assert out["got"].tolist() == [1] * 10
    # round 2 saw round 1's stats, summed over the buckets
    assert out["seen_n"].tolist() == [10] * 10
    assert out["seen_x"].tolist() == [5.0] * 10


def test_supersteps_votes_to_halt_before_rounds(ray_session):
    def step(verts, msgs, r, stats):
        verts = verts.select(["node"]).append_column(
            "round", pa.array([r] * verts.num_rows, pa.int64())
        )
        active = verts.num_rows if r < 2 else 0
        return verts, verts.select(["node"]).slice(0, 0), {"active": active}

    out = _frame(supersteps(_vertices(list(range(6)), [0] * 6), step, 50))
    assert out["round"].tolist() == [2] * 6


def test_supersteps_empty_vertex_set(ray_session):
    import ray.data as rd

    calls = []

    def step(verts, msgs, r, stats):
        calls.append(r)
        return verts, msgs, {}

    empty = rd.from_arrow(pa.table({"node": pa.array([], pa.int64())}))
    out = supersteps(empty, step, 4)
    assert out.count() == 0
    assert len(out.to_pandas()) == 0
    assert calls == []


def test_supersteps_same_in_both_modes(ray_session, monkeypatch):
    nodes = list(range(20))
    nxt = [(i * 7) % 20 for i in nodes]
    normal = _frame(supersteps(_vertices(nodes, nxt), _ring_step(), 4))
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    forced = _frame(supersteps(_vertices(nodes, nxt), _ring_step(), 4))
    pd.testing.assert_frame_equal(normal, forced, check_exact=True)


def test_pagerank_bit_identical_across_runs_and_modes(
    ray_session, monkeypatch
):
    """Inflow and dangling mass add with ``math.fsum``, so the ranks do
    not depend on block arrival order: two runs and a forced run agree
    to the last bit."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    sf = str(TESTDATA / "sf0.001")
    first = QUERIES["pagerank"](sf)
    second = QUERIES["pagerank"](sf)
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    forced = QUERIES["pagerank"](sf)
    assert len(first) > 100
    pd.testing.assert_frame_equal(first, second, check_exact=True)
    pd.testing.assert_frame_equal(first, forced, check_exact=True)


_LOOP_MODULES = ("graph.py", "pagerank.py", "components.py")
_PER_ROUND = {"partitioned_hash_join", "pin_loop_state"}


def test_no_join_or_pin_inside_a_loop():
    """Every partitioned iterative loop goes through ``supersteps``: no
    ``partitioned_hash_join`` or ``pin_loop_state`` inside a ``for`` /
    ``while`` body of the graph modules. ``ktruss_peel`` is exempt: its
    round is ``edge_triangle_support``'s wedge exchange, not a vertex
    program."""
    stages = Path(supersteps.__code__.co_filename).resolve().parent
    hits = []
    for name in _LOOP_MODULES:
        tree = ast.parse((stages / name).read_text())
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "ktruss_peel":
                continue
            for loop in ast.walk(fn):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    called = getattr(node, "id", getattr(node, "attr", None))
                    if called in _PER_ROUND:
                        hits.append(f"{name}:{node.lineno} {called}")
    assert hits == []
