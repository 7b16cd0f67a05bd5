"""Triangle counting / clustering coefficient (stages/graph.py)."""

import itertools

import numpy as np
import pandas as pd
import pytest

from conftest import forced

from zzzarchived_arxiv_fulltext_ray.stages.graph import (
    cooccurrence_edges,
    triangle_stats,
)


def _brute(edges):
    """Brute-force stats from a list of (u, v) tuples."""
    es = set()
    for u, v in edges:
        if u != v:
            es.add((min(u, v), max(u, v)))
    nodes = sorted({x for e in es for x in e})
    deg = {n: 0 for n in nodes}
    for u, v in es:
        deg[u] += 1
        deg[v] += 1
    wedges = sum(d * (d - 1) // 2 for d in deg.values())
    tri = sum(
        1
        for a, b, c in itertools.combinations(nodes, 3)
        if (a, b) in es and (a, c) in es and (b, c) in es
    )
    return {
        "n_nodes": len(nodes),
        "n_edges": len(es),
        "n_wedges": wedges,
        "n_triangles": tri,
        "global_clustering": 3.0 * tri / wedges if wedges else 0.0,
    }


def _check(ray_session, edges, **kwargs):
    import pyarrow as pa
    import ray.data

    # Arrow-backed blocks: repartition of a tiny pandas-backed dataset
    # produces EMPTY UNTYPED pandas blocks which Ray's map_batches
    # passes through without calling the UDF — the documented
    # schema-less-input limitation of the whole join family. Arrow
    # blocks keep their schema at zero rows.
    df = pd.DataFrame(edges, columns=["u", "v"]).astype("int64")
    got = triangle_stats(
        ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(4),
        **kwargs,
    )
    want = _brute(edges)
    row = got.iloc[0]
    for k, v in want.items():
        assert row[k] == v, (k, row[k], v)


def test_triangles_k5_complete(ray_session):
    edges = list(itertools.combinations(range(5), 2))
    _check(ray_session, edges, assume_canonical=True)


def test_triangles_no_triangles_path(ray_session):
    _check(ray_session, [(0, 1), (1, 2), (2, 3)], assume_canonical=True)


def test_triangles_random_vs_brute(ray_session):
    rng = np.random.default_rng(5)
    n = 40
    edges = [
        (int(u), int(v))
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 0.25
    ]
    _check(ray_session, edges, assume_canonical=True)


def test_triangles_canonicalize_dups_loops_reversed(ray_session):
    # duplicates, reversed duplicates and self-loops must collapse
    raw = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (4, 4), (1, 2)]
    _check(ray_session, raw, assume_canonical=False)


def test_triangles_skewed_hub(ray_session):
    # star + a few closing edges: degree orientation must not blow up
    # the hub's wedge list (hub has max degree -> zero out-degree)
    edges = [(0, i) for i in range(1, 60)] + [(1, 2), (3, 4), (5, 6)]
    _check(ray_session, edges, assume_canonical=True)


def test_cooccurrence_edges_threshold(ray_session):
    import ray.data

    # items 1,2 share groups g0,g1; items 1,3 share only g0
    df = pd.DataFrame(
        {
            "g": ["g0", "g0", "g0", "g1", "g1"],
            "item": [1, 2, 3, 1, 2],
        }
    )
    ds = ray.data.from_pandas(df)
    got = (
        cooccurrence_edges(ds, "g", "item", min_count=2)
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    assert got.values.tolist() == [[1, 2]]
    got_all = (
        cooccurrence_edges(ds, "g", "item", min_count=1)
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    assert got_all.values.tolist() == [[1, 2], [1, 3], [2, 3]]


def test_cooccurrence_hot_group_dropped(ray_session):
    import ray.data

    df = pd.DataFrame(
        {"g": ["big"] * 10 + ["ok"] * 2, "item": list(range(10)) + [100, 101]}
    )
    got = (
        cooccurrence_edges(
            ray.data.from_pandas(df), "g", "item", max_group=5
        )
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    assert got.values.tolist() == [[100, 101]]


def test_triangles_empty_graph(ray_session):
    import pyarrow as pa
    import ray.data

    empty = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}
        )
    )
    got = triangle_stats(empty, assume_canonical=True)
    assert got.iloc[0].tolist() == [0, 0, 0, 0, 0.0]


def test_triangles_broadcast_equals_partitioned(ray_session):
    import itertools

    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(11)
    n = 30
    edges = [
        (int(u), int(v))
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 0.3
    ]
    df = pd.DataFrame(edges, columns=["u", "v"]).astype("int64")
    outs = {}
    for method in ("broadcast", "partitioned"):
        ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(3)
        with forced(method == "partitioned"):
            outs[method] = triangle_stats(ds, assume_canonical=True)
    pd.testing.assert_frame_equal(
        outs["broadcast"], outs["partitioned"]
    )
    want = _brute(edges)
    assert outs["broadcast"].iloc[0]["n_triangles"] == want["n_triangles"]


def test_local_clustering_both_plans_vs_brute(ray_session):
    import itertools

    import pyarrow as pa
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.graph import (
        local_clustering,
    )

    rng = np.random.default_rng(23)
    n = 25
    edges = [
        (int(u), int(v))
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 0.3
    ]
    es = set(edges)
    nodes = sorted({x for e in edges for x in e})
    deg = {x: 0 for x in nodes}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    tri = {x: 0 for x in nodes}
    for a, b, c in itertools.combinations(nodes, 3):
        if (a, b) in es and (a, c) in es and (b, c) in es:
            tri[a] += 1
            tri[b] += 1
            tri[c] += 1
    df = pd.DataFrame(edges, columns=["u", "v"]).astype("int64")
    outs = {}
    for method in ("broadcast", "partitioned"):
        ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(3)
        with forced(method == "partitioned"):
            out = local_clustering(ds, assume_canonical=True)
        outs[method] = (
            out
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs["broadcast"], outs["partitioned"])
    got = outs["broadcast"]
    assert got["node"].tolist() == nodes
    assert got["degree"].tolist() == [deg[x] for x in nodes]
    assert got["n_triangles"].tolist() == [tri[x] for x in nodes]
    for _, r in got.iterrows():
        d, t = int(r["degree"]), int(r["n_triangles"])
        want = 2.0 * t / (d * (d - 1)) if d >= 2 else 0.0
        assert r["local_clustering"] == want


# ----------------------------------------------------- BFS hop counts

def _brute_bfs(edges, seeds, max_hops):
    adj = {}
    for u, v in edges:
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    hops = {s: 0 for s in seeds}
    frontier = set(seeds)
    for h in range(1, max_hops + 1):
        nxt = set()
        for n in frontier:
            for m in adj.get(n, ()):
                if m not in hops:
                    hops[m] = h
                    nxt.add(m)
        frontier = nxt
    return dict(sorted(hops.items()))


def _bfs_df(ray_session, edges, seeds, max_hops, method):
    import pyarrow as pa
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.graph import bfs_hops

    df = pd.DataFrame(edges, columns=["u", "v"]).astype("int64")
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(3)
    with forced(method == "partitioned"):
        out = bfs_hops(ds, seeds, max_hops=max_hops).to_pandas()
    if len(out) == 0:
        return out
    return out.sort_values("node").reset_index(drop=True)


def test_bfs_path_graph_truncation(ray_session):
    # path 0-1-2-3-4-5, seed {0}: hop = node index, truncated at 3
    edges = [(i, i + 1) for i in range(5)]
    for method in ("broadcast", "partitioned"):
        got = _bfs_df(ray_session, edges, [0], 3, method)
        assert got["node"].tolist() == [0, 1, 2, 3]
        assert got["hops"].tolist() == [0, 1, 2, 3]


def test_bfs_multi_seed_min_and_isolated_seed(ray_session):
    # two seeds, one of them NOT in the graph (still reported, hop 0);
    # node 2 reachable from both — min hop wins
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (9, 2)]
    want = _brute_bfs(edges, [0, 9, 77], 4)
    for method in ("broadcast", "partitioned"):
        got = _bfs_df(ray_session, edges, [0, 9, 77], 4, method)
        assert dict(zip(got["node"], got["hops"])) == want


def test_bfs_random_plans_equal_vs_brute(ray_session):
    rng = np.random.RandomState(7)
    edges = [
        (int(rng.randint(0, 60)), int(rng.randint(0, 60)))
        for _ in range(150)
    ]
    seeds = [1, 7, 42]
    want = _brute_bfs(edges, seeds, 3)
    outs = {}
    for method in ("broadcast", "partitioned"):
        outs[method] = _bfs_df(ray_session, edges, seeds, 3, method)
        assert dict(zip(outs[method]["node"], outs[method]["hops"])) == want
    pd.testing.assert_frame_equal(outs["broadcast"], outs["partitioned"])


def test_bfs_empty_seeds_and_no_edges(ray_session):
    got = _bfs_df(ray_session, [(1, 2)], [], 3, "auto")
    assert len(got) == 0
    # seeds with an edgeless graph: hop-0 rows only
    got = _bfs_df(ray_session, [(5, 5)], [3], 2, "partitioned")
    assert got["node"].tolist() == [3]
    assert got["hops"].tolist() == [0]


# ------------------------------------------------------- k-core peel

def _brute_peel(edges, k, rounds):
    es = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    for _ in range(rounds):
        deg = {}
        for u, v in es:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        keep = {n for n, d in deg.items() if d >= k}
        nes = {(u, v) for u, v in es if u in keep and v in keep}
        if nes == es:
            break
        es = nes
    deg = {}
    for u, v in es:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return dict(sorted(deg.items()))


def _peel_df(ray_session, edges, k, rounds, method):
    import pyarrow as pa
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.graph import kcore_peel

    df = pd.DataFrame(edges, columns=["u", "v"]).astype("int64")
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(3)
    with forced(method == "partitioned"):
        out = kcore_peel(ds, k=k, rounds=rounds).to_pandas()
    if len(out) == 0:
        return {}
    return dict(zip(out["node"], out["degree"]))


def test_kcore_peel_plans_equal_vs_brute(ray_session):
    rng = np.random.RandomState(11)
    edges = [
        (int(rng.randint(0, 40)), int(rng.randint(0, 40)))
        for _ in range(90)
    ]
    want = _brute_peel(edges, 3, 3)
    for method in ("broadcast", "partitioned"):
        assert _peel_df(ray_session, edges, 3, 3, method) == want


def test_kcore_peel_triangle_plus_tail(ray_session):
    # triangle 0-1-2 survives k=2 peel; the tail 2-3-4 peels away
    # over two rounds (4 first, then 3)
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
    want = {0: 2, 1: 2, 2: 2}
    for method in ("broadcast", "partitioned"):
        assert _peel_df(ray_session, edges, 2, 3, method) == want
    # a single round only peels the leaf 4 and its edge
    assert _brute_peel(edges, 2, 1) == {0: 2, 1: 2, 2: 3, 3: 1}
    for method in ("broadcast", "partitioned"):
        got = _peel_df(ray_session, edges, 2, 1, method)
        assert got == {0: 2, 1: 2, 2: 3, 3: 1}


def test_kcore_peel_all_peeled(ray_session):
    # a path graph has no 3-core at all
    edges = [(i, i + 1) for i in range(6)]
    for method in ("broadcast", "partitioned"):
        assert _peel_df(ray_session, edges, 3, 3, method) == {}
