"""Connected-components dedup clustering + as-of join tests."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from conftest import forced

SF = "/root/testdata/sf0.001"


def _pairs_items():
    # two clusters {1,2,3,9} (chained, not all pairwise) and {5,7},
    # plus an isolated pair {10, 11}
    return [
        {"doc_a": 1, "doc_b": 2, "jaccard": 0.9},
        {"doc_a": 2, "doc_b": 3, "jaccard": 0.8},
        {"doc_a": 3, "doc_b": 9, "jaccard": 0.7},
        {"doc_a": 5, "doc_b": 7, "jaccard": 0.6},
        {"doc_a": 10, "doc_b": 11, "jaccard": 0.5},
    ]


EXPECT = {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 7: 5, 10: 10, 11: 10}


@pytest.mark.parametrize("method", ["driver", "distributed"])
def test_components_methods_equal(ray_session, method):
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.components import (
        neardup_components,
    )

    with forced(method == "distributed"):
        got = neardup_components(ray.data.from_items(_pairs_items()))
    got = (
        got.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert dict(zip(got.doc_id, got.component)) == EXPECT


def test_components_chain_diameter(ray_session):
    """A long chain exercises multi-round propagation: 0-1-2-...-19
    collapses to component 0 (diameter 19 > 1 round)."""
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.components import (
        neardup_components,
    )

    pairs = [
        {"doc_a": i, "doc_b": i + 1, "jaccard": 1.0} for i in range(19)
    ]
    with forced():
        got = neardup_components(ray.data.from_items(pairs))
    got = got.to_pandas().sort_values("doc_id")
    assert got.component.tolist() == [0] * 20


def test_canonical_filter_keeps_cluster_minimum(ray_session):
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.components import (
        canonical_filter,
        neardup_components,
    )

    comp = neardup_components(ray.data.from_items(_pairs_items()))
    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"doc {i}"} for i in range(12)]
    )
    kept = sorted(canonical_filter(docs, comp).to_pandas().doc_id)
    # losers 2,3,9,7,11 removed; everything else (incl. non-clustered)
    assert kept == [0, 1, 4, 5, 6, 8, 10]


def test_canonical_filter_plans_equal_dense_duplicates(ray_session,
                                                       monkeypatch):
    """broadcast ≡ partitioned (the forced mode and the twin) ≡ over
    the byte budget, on a corpus where MOST docs are losers (the regime
    the partitioned plan exists for)."""
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.components import (
        canonical_filter,
        canonical_filter_partitioned,
        neardup_components,
    )

    # 10 chains of 20 docs each -> 200 clustered docs, 190 losers,
    # plus 50 unclustered docs
    pairs = [
        {"doc_a": c * 100 + i, "doc_b": c * 100 + i + 1, "jaccard": 1.0}
        for c in range(10)
        for i in range(19)
    ]
    comp = neardup_components(ray.data.from_items(pairs))
    docs = ray.data.from_items(
        [
            {"doc_id": d, "lang": f"l{d % 3}"}
            for c in range(10)
            for d in range(c * 100, c * 100 + 20)
        ]
        + [{"doc_id": 5000 + i, "lang": "x"} for i in range(50)]
    )
    expect = sorted([c * 100 for c in range(10)] + list(range(5000, 5050)))
    got = {}
    plans = {
        "broadcast": lambda: canonical_filter(docs, comp),
        "partitioned": lambda: canonical_filter_partitioned(docs, comp),
    }
    for method in ("broadcast", "partitioned"):
        with forced(method == "partitioned"):
            out = canonical_filter(docs, comp)
        twin = plans[method]().to_pandas().sort_values("doc_id")
        assert twin.doc_id.tolist() == expect, method
        out = (
            out
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        got[method] = out
        assert out.doc_id.tolist() == expect, method
        assert set(out.columns) == {"doc_id", "lang"}, method
    # full-frame equality across plans (column values, not just keys)
    assert got["broadcast"].equals(
        got["partitioned"][got["broadcast"].columns.tolist()]
    )
    # a loser set over the byte budget flips to partitioned with
    # equal output
    monkeypatch.setenv("GRAFT_BROADCAST_BYTES_LIMIT", "1")
    over = canonical_filter(docs, comp).to_pandas()
    assert sorted(over.doc_id) == expect


def test_components_auto_executes_pairs_plan_once(ray_session):
    """The plan decision must not run the (expensive) pair plan twice:
    once for the sizes and again for the chosen plan."""
    import ray
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.components import (
        neardup_components,
    )

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def inc(self, k):
            self.n += k

        def get(self):
            return self.n

    counter = Counter.remote()

    def tap(batch):
        ray.get(counter.inc.remote(batch.num_rows))
        return batch

    pairs = ray.data.from_items(_pairs_items()).map_batches(
        tap, batch_format="pyarrow"
    )
    got = (
        neardup_components(pairs)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert dict(zip(got.doc_id, got.component)) == EXPECT
    # every pair row flowed through the tap exactly once
    assert ray.get(counter.get.remote()) == len(_pairs_items())


def test_components_on_real_neardup_pairs(ray_session):
    """End-to-end: ngram pairs over the corpus -> components match a
    brute-force union-find over the same pairs."""
    import itertools

    import ray.data

    from zzzarchived_arxiv_fulltext_ray.functions import shingles as sk
    from zzzarchived_arxiv_fulltext_ray.stages.components import (
        neardup_components,
    )
    from zzzarchived_arxiv_fulltext_ray.stages.neardup import neardup_pairs

    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    hs = {r.doc_id: sk.shingle_hashes(r.text) for r in docs.itertuples()}
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(sorted(hs), 2):
        if sk.jaccard_arrays(hs[a], hs[b]) >= 0.5:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    expect = {d: find(d) for d in sorted(parent)}

    pairs = neardup_pairs(
        ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        ),
        method="ngram",
        threshold=0.5,
    )
    with forced():
        got = neardup_components(pairs)
    got = got.to_pandas()
    assert dict(zip(got.doc_id, got.component)) == expect


def test_asof_join_matches_pandas_merge_asof(ray_session):
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.asof import asof_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 200),
            "t": rng.integers(0, 10_000, 200).astype("int64"),
            "lv": np.arange(200),
        }
    ).drop_duplicates(["k", "t"])
    right = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 150),
            "t": rng.integers(0, 10_000, 150).astype("int64"),
            "rv": np.arange(150) * 10,
        }
    ).drop_duplicates(["k", "t"])

    got = (
        asof_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            key="k",
            on="t",
        )
        .to_pandas()
        .sort_values(["k", "t"])
        .reset_index(drop=True)
    )
    want = pd.merge_asof(
        left.sort_values("t"),
        right.sort_values("t"),
        on="t",
        by="k",
        direction="backward",
    ).sort_values(["k", "t"]).reset_index(drop=True)
    assert got[["k", "t", "lv"]].equals(want[["k", "t", "lv"]])
    assert (
        got["rv"].fillna(-1).astype(int).tolist()
        == want["rv"].fillna(-1).astype(int).tolist()
    )

    inner = asof_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        key="k",
        on="t",
        how="inner",
    ).to_pandas()
    assert len(inner) == int(want["rv"].notna().sum())
    assert inner["rv"].notna().all()


def test_tfidf_matches_brute_force(ray_session):
    import math
    from collections import Counter

    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.tfidf import doc_tfidf_topk

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    n = len(docs)
    tfs = {r.doc_id: Counter(r.text.split()) for r in docs.itertuples()}
    df = Counter()
    for c in tfs.values():
        df.update(c.keys())
    expect = {}
    for d, c in tfs.items():
        ranked = sorted(
            ((tf * math.log(n / df[t]), t) for t, tf in c.items()),
            key=lambda x: (-x[0], x[1]),
        )[:3]
        expect[d] = [t for _, t in ranked]

    got = doc_tfidf_topk(
        ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        ),
        k=3,
    ).to_pandas()
    by_doc = {
        d: sorted(g.token) for d, g in got.groupby("doc_id")
    }
    assert set(by_doc) == set(expect)
    for d in expect:
        assert by_doc[d] == sorted(expect[d]), d


def test_asof_join_edge_cases(ray_session):
    """Keys with no right rows, right rows all after the left row, and
    an exact timestamp tie (which MUST match, <=)."""
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.asof import asof_join

    left = pd.DataFrame(
        {"k": [1, 2, 3, 4], "t": [100, 100, 100, 100],
         "lv": [10, 20, 30, 40]}
    )
    right = pd.DataFrame(
        {
            # k=1: before (match), k=2: after only (no match),
            # k=3: exact tie (match), k=4: absent (no match)
            "k": [1, 2, 3],
            "t": [50, 150, 100],
            "rv": [500, 600, 700],
        }
    )
    got = (
        asof_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            key="k", on="t",
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got.k.tolist() == [1, 2, 3, 4]
    assert got.rv.fillna(-1).tolist() == [500, -1, 700, -1]
    assert got.matched_t.fillna(-1).tolist() == [50, -1, 100, -1]


def test_asof_forward_direction(ray_session):
    """Forward as-of: smallest right ts >= left ts, ties inclusive,
    null past the last right row; pinned against a pandas
    merge_asof(direction='forward') brute force."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.asof import asof_join

    rng = np.random.default_rng(3)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 200),
            "ts": rng.integers(0, 1000, 200),
            "lv": np.arange(200),
        }
    ).astype("int64")
    right = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 120),
            "ts": rng.integers(0, 1000, 120),
            "rv": np.arange(120) * 10,
        }
    ).astype("int64")
    # make one exact-tie pair to pin inclusivity
    right.loc[0, ["k", "ts"]] = left.loc[0, ["k", "ts"]].values
    got = (
        asof_join(
            rd.from_arrow(pa.Table.from_pandas(left)).repartition(3),
            rd.from_arrow(pa.Table.from_pandas(right)).repartition(2),
            key="k", on="ts", direction="forward",
        )
        .to_pandas()
        .sort_values("lv")
        .reset_index(drop=True)
    )
    want = pd.merge_asof(
        left.sort_values("ts"),
        right.sort_values("ts").rename(columns={"ts": "matched_ts"}),
        left_on="ts", right_on="matched_ts", by="k",
        direction="forward", allow_exact_matches=True,
    ).sort_values("lv").reset_index(drop=True)
    assert got["lv"].tolist() == want["lv"].tolist()
    assert (
        got["rv"].fillna(-1).tolist() == want["rv"].fillna(-1).tolist()
    )
    assert (
        got["matched_ts"].fillna(-1).tolist()
        == want["matched_ts"].fillna(-1).tolist()
    )
    # the planted tie matched AT the equal timestamp
    row0 = got[got["lv"] == 0].iloc[0]
    assert row0["matched_ts"] == left.loc[0, "ts"]


def test_asof_nearest_direction(ray_session):
    """Nearest as-of: minimal |left ts - right ts|, equidistant ties
    resolve BACKWARD (same convention as pandas merge_asof
    direction='nearest', which the test pins against)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.asof import asof_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 200),
            "ts": rng.integers(0, 1000, 200),
            "lv": np.arange(200),
        }
    ).astype("int64")
    right = (
        pd.DataFrame(
            {
                "k": rng.integers(0, 5, 120),
                "ts": rng.integers(0, 1000, 120),
            }
        )
        .drop_duplicates(["k", "ts"])  # unique match targets
        .reset_index(drop=True)
        .astype("int64")
    )
    right["rv"] = np.arange(len(right)) * 10
    # engineer an exact equidistant tie: left ts 500, rights 498/502
    left.loc[0, ["k", "ts"]] = [9, 500]
    tie = pd.DataFrame({"k": [9, 9], "ts": [498, 502], "rv": [7, 8]})
    right = pd.concat([right, tie], ignore_index=True).astype("int64")

    got = (
        asof_join(
            rd.from_arrow(pa.Table.from_pandas(left)).repartition(3),
            rd.from_arrow(pa.Table.from_pandas(right)).repartition(2),
            key="k", on="ts", direction="nearest",
        )
        .to_pandas()
        .sort_values("lv")
        .reset_index(drop=True)
    )
    want = pd.merge_asof(
        left.sort_values("ts"),
        right.sort_values("ts").rename(columns={"ts": "matched_ts"}),
        left_on="ts", right_on="matched_ts", by="k",
        direction="nearest", allow_exact_matches=True,
    ).sort_values("lv").reset_index(drop=True)
    assert got["lv"].tolist() == want["lv"].tolist()
    assert got["rv"].fillna(-1).tolist() == want["rv"].fillna(-1).tolist()
    assert (
        got["matched_ts"].fillna(-1).tolist()
        == want["matched_ts"].fillna(-1).tolist()
    )
    # the engineered tie resolved backward
    assert (
        got.loc[got["lv"] == 0, "matched_ts"].iloc[0] == 498
    )
