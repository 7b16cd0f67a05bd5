"""Common-neighbor link prediction + degree assortativity
(stages/graph.py)."""

import itertools

import pandas as pd
import pytest

from conftest import forced

from zzzarchived_arxiv_fulltext_ray.stages.graph import (
    common_neighbor_pairs,
    degree_assortativity,
)


def _edges_ds(edges, parts=3):
    import pyarrow as pa
    import ray.data

    df = pd.DataFrame(edges, columns=["u", "v"]).astype("int64")
    return ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(parts)


def _brute_cn(edges, min_common=1):
    es = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    adj = {}
    for u, v in es:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = {}
    for a, b in itertools.combinations(sorted(adj), 2):
        if (a, b) in es:
            continue
        shared = adj[a] & adj[b]
        if len(shared) >= min_common:
            out[(a, b)] = (
                len(shared),
                sum(len(adj[w]) for w in shared),
            )
    return out


def _got_cn(ray_session, edges, **kwargs):
    got = common_neighbor_pairs(_edges_ds(edges), **kwargs).to_pandas()
    if got.empty:
        # a fully-empty distributed result arrives schema-less (the
        # documented join-family limitation) — semantically {}
        return {}
    return {
        (int(r.u), int(r.v)): (int(r.cn), int(r.sum_ctr_deg))
        for r in got.sort_values(["u", "v"]).itertuples()
    }


def test_path_and_square(ray_session):
    # path a-b-c: (a,c) share {b}, deg(b)=2
    assert _got_cn(ray_session, [(1, 2), (2, 3)]) == {(1, 3): (1, 2)}
    # square: each diagonal shares the two opposite corners (deg 2)
    sq = [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert _got_cn(ray_session, sq) == {(1, 3): (2, 4), (2, 4): (2, 4)}


def test_triangle_has_no_candidates(ray_session):
    # all pairs adjacent -> the anti join drops everything
    assert _got_cn(ray_session, [(1, 2), (2, 3), (1, 3)]) == {}


def test_min_common_filter_and_random_graph(ray_session):
    import random

    rng = random.Random(7)
    edges = {
        (a, b)
        for a, b in (
            sorted(rng.sample(range(30), 2)) for _ in range(120)
        )
    }
    edges = [tuple(e) for e in edges]
    for mc in (1, 2, 3):
        assert _got_cn(ray_session, edges, min_common=mc) == _brute_cn(
            edges, min_common=mc
        )


def test_hub_cap_drops_center_wedges(ray_session):
    # star through node 0 with 5 leaves: all leaf pairs share only 0;
    # capping max_degree below 5 drops every candidate
    star = [(0, i) for i in range(1, 6)]
    assert _got_cn(ray_session, star, max_degree=4) == {}
    full = _got_cn(ray_session, star)
    assert full == _brute_cn(star)
    assert full[(1, 2)] == (1, 5)


def test_assortativity_star_is_minus_one(ray_session):
    out = degree_assortativity(_edges_ds([(0, 1), (0, 2), (0, 3)]))
    assert int(out["n_edges"][0]) == 3
    assert out["assortativity"][0] == pytest.approx(-1.0)


def test_assortativity_regular_graph_degenerate_zero(ray_session):
    # 4-cycle: all degrees equal -> zero variance -> r defined as 0.0
    out = degree_assortativity(
        _edges_ds([(1, 2), (2, 3), (3, 4), (4, 1)])
    )
    assert out["assortativity"][0] == 0.0


def test_assortativity_matches_brute(ray_session):
    import random

    rng = random.Random(3)
    edges = list(
        {
            tuple(sorted(rng.sample(range(20), 2)))
            for _ in range(60)
        }
    )
    es = set(edges)
    deg = {}
    for u, v in es:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    m = len(es)
    a = sum(deg[u] + deg[v] for u, v in es)
    b = sum(deg[u] ** 2 + deg[v] ** 2 for u, v in es)
    c = sum(deg[u] * deg[v] for u, v in es)
    want = float(4 * m * c - a * a) / float(2 * m * b - a * a)
    out = degree_assortativity(_edges_ds(edges))
    assert int(out["n_edges"][0]) == m
    assert int(out["s_deg"][0]) == a
    assert int(out["s_deg2"][0]) == b
    assert int(out["s_dudv"][0]) == c
    assert out["assortativity"][0] == pytest.approx(want, abs=0)

    # the partitioned (large-graph) plan must agree exactly with the
    # broadcast fast path — integer sufficient stats are bit-stable
    with forced():
        part = degree_assortativity(_edges_ds(edges))
    for col in ("n_edges", "s_deg", "s_deg2", "s_dudv"):
        assert int(part[col][0]) == int(out[col][0])
    assert part["assortativity"][0] == out["assortativity"][0]


def test_assortativity_empty_graph(ray_session):
    import pyarrow as pa
    import ray.data as rd

    empty = rd.from_arrow(
        pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    )
    out = degree_assortativity(empty)
    assert int(out["n_edges"][0]) == 0
    assert out["assortativity"][0] == 0.0


# ---------------------------------------------------------------- LPA


def _brute_lpa(edges, rounds):
    adj = {}
    for u, v in {(min(a, b), max(a, b)) for a, b in edges if a != b}:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    labels = {n: n for n in adj}
    for _ in range(rounds):
        new = {}
        for n, nbrs in adj.items():
            counts = {}
            for m in nbrs:
                counts[labels[m]] = counts.get(labels[m], 0) + 1
            best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
            new[n] = best[0]
        if new == labels:
            break
        labels = new
    return labels


def test_lpa_triangle_converges_to_min_label(ray_session):
    from zzzarchived_arxiv_fulltext_ray.stages.graph import (
        label_propagation,
    )

    out = (
        label_propagation(_edges_ds([(1, 2), (1, 3), (2, 3)]), rounds=3)
        .to_pandas()
        .sort_values("node")
    )
    assert out["label"].tolist() == [1, 1, 1]


def test_lpa_matches_brute_and_plans_agree(ray_session):
    import random

    from zzzarchived_arxiv_fulltext_ray.stages.graph import (
        label_propagation,
    )

    rng = random.Random(11)
    edges = list(
        {
            tuple(sorted(rng.sample(range(30), 2)))
            for _ in range(70)
        }
    )
    for rounds in (1, 2, 3):
        want = _brute_lpa(edges, rounds)
        got_b = (
            label_propagation(_edges_ds(edges), rounds=rounds)
            .to_pandas()
            .sort_values("node")
        )
        with forced():
            got_p = label_propagation(_edges_ds(edges), rounds=rounds)
        got_p = got_p.to_pandas().sort_values("node")
        assert dict(zip(got_b["node"], got_b["label"])) == want
        assert got_b.reset_index(drop=True).equals(
            got_p.reset_index(drop=True)
        )


def test_lpa_empty_graph(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.graph import (
        label_propagation,
    )

    empty = rd.from_arrow(
        pa.table(
            {"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}
        )
    )
    out = label_propagation(empty)
    assert out.count() == 0
    assert out.schema().names == ["node", "label"]


# -------------------------------------------------------- random walks


def test_random_walks_plans_agree_and_match_brute(ray_session):
    import random

    import numpy as np

    from zzzarchived_arxiv_fulltext_ray.functions.shingles import (
        _splitmix64,
        stable_hash64,
    )
    from zzzarchived_arxiv_fulltext_ray.stages.graph import random_walks

    rng = random.Random(7)
    edges = list(
        {
            tuple(sorted(rng.sample(range(40), 2)))
            for _ in range(120)
        }
    )
    b = (
        random_walks(_edges_ds(edges), n_steps=3)
        .to_pandas()
        .sort_values("start")
        .reset_index(drop=True)
    )
    with forced():
        p = random_walks(_edges_ds(edges), n_steps=3)
    p = (
        p.to_pandas()
        .sort_values("start")
        .reset_index(drop=True)
    )
    assert b.equals(p)

    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for n in adj:
        adj[n].sort()
    assert len(b) == len(adj)
    seeds = np.random.default_rng(20260819).integers(
        0, np.iinfo(np.uint64).max, size=3, dtype=np.uint64
    )
    for row in b.itertuples():
        cur = row.start
        h = np.uint64(stable_hash64(str(row.start)))
        for t, col in enumerate(["s1", "s2", "s3"]):
            k = int(
                _splitmix64(np.array([h ^ seeds[t]], dtype=np.uint64))[0]
                % np.uint64(len(adj[cur]))
            )
            cur = adj[cur][k]
            assert cur == getattr(row, col)


def test_random_walks_empty_graph(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.graph import random_walks

    empty = rd.from_arrow(
        pa.table(
            {"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}
        )
    )
    out = random_walks(empty)
    assert out.count() == 0
    assert out.schema().names == ["start", "s1", "s2", "s3"]


def test_edge_triangle_support_vs_brute(ray_session):
    import random

    from zzzarchived_arxiv_fulltext_ray.stages.graph import (
        edge_triangle_support,
    )

    rng = random.Random(19)
    edges = list(
        {
            tuple(sorted(rng.sample(range(25), 2)))
            for _ in range(80)
        }
    )
    out = (
        edge_triangle_support(_edges_ds(edges))
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    assert len(out) == len(edges)
    for r in out.itertuples():
        t = len(adj[r.u] & adj[r.v])
        du, dv = len(adj[r.u]), len(adj[r.v])
        den = du + dv - 2 - t
        assert (r.t, r.du, r.dv) == (t, du, dv)
        assert r.jaccard == (t / den if den > 0 else 0.0)

    # an isolated edge: zero support, zero-denominator jaccard
    iso = edge_triangle_support(_edges_ds([(100, 101)])).to_pandas()
    assert iso.iloc[0]["t"] == 0 and iso.iloc[0]["jaccard"] == 0.0

    # partitioned plan pinned identical to the broadcast fast path
    with forced():
        part = edge_triangle_support(_edges_ds(edges))
    part = (
        part.to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    assert part.equals(out)


def test_ktruss_peel_vs_brute(ray_session):
    import random

    from zzzarchived_arxiv_fulltext_ray.stages.graph import ktruss_peel

    rng = random.Random(23)
    edges = list(
        {
            tuple(sorted(rng.sample(range(20), 2)))
            for _ in range(70)
        }
    )

    def brute(es, k, rounds):
        es = set(es)
        t_of = {}
        for _ in range(rounds):
            adj = {}
            for u, v in es:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            t_of = {
                (u, v): len(adj[u] & adj[v]) for u, v in es
            }
            kept = {e for e in es if t_of[e] >= k - 2}
            if kept == es:
                break
            es = kept
            if not es:
                return {}
        return {e: t_of[e] for e in es}

    for k in (3, 4, 5):
        want = brute(edges, k, 2)
        out = ktruss_peel(
            _edges_ds(edges), k=k, rounds=2
        ).to_pandas()
        got = {
            (int(r.u), int(r.v)): int(r.t) for r in out.itertuples()
        }
        assert got == want, k
