"""``stages.window.over``, the one sorted window scan, against pandas.

Inputs are cut into at least 7 blocks, so partitions and tie groups
straddle the sorted block boundaries the driver's carries stitch."""

import re
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zzzarchived_arxiv_fulltext_ray.stages import window
from zzzarchived_arxiv_fulltext_ray.stages.window import over


@st.composite
def frames(draw):
    """(frame, partitioned, descending, blocks): parts from none (a
    global window) to three, keys from heavy ties to near-unique."""
    n = draw(st.integers(0, 150))
    parts = draw(st.integers(0, 3))
    key_hi = draw(st.sampled_from([1, 4, 30, 10**6]))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    df = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "p": column(st.sampled_from("abc"[:max(parts, 1)])),
            # a planted tie group at 0 among near-unique keys too
            "k": np.asarray(
                column(st.integers(0, key_hi) | st.just(0)), np.int64
            ),
            "v": np.asarray(column(st.integers(-99, 99)), np.int64),
        }
    )
    return df, parts > 0, draw(st.booleans()), draw(st.integers(7, 10))


def _sorted(df, partitioned, desc):
    """``df`` in the window's (part, k, id) order with its partition
    key as ``g`` ("" for a global window)."""
    keyed = df.assign(g=df["p"] if partitioned else "")
    return keyed.sort_values(["g", "k", "id"],
                             ascending=[True, not desc, True])


def _check(keyed, got, ranked, desc):
    """``got`` (order k, id; sums and lag of v) and ``ranked`` (order
    k, ties) against pandas, row for row in ``keyed``'s order."""
    assert len(got) == len(ranked) == len(keyed)
    if not len(keyed):
        return
    idx = keyed["id"].to_numpy()
    got = got.set_index("id").loc[idx]
    ranked = ranked.set_index("id").loc[idx]
    g = keyed.groupby("g")
    want = {
        "rn": g.cumcount() + 1,
        "n": g["id"].transform("size"),
        "cum_v": g["v"].cumsum(),
        "sum_v": g["v"].transform("sum"),
        "lag_v": g["v"].shift().fillna(1000),
    }
    for c, w in want.items():
        assert got[c].fillna(1000).tolist() == w.tolist(), c
    k = g["k"]
    assert ranked["rnk"].tolist() == k.rank(
        method="min", ascending=not desc).astype(int).tolist()
    assert ranked["drnk"].tolist() == k.rank(
        method="dense", ascending=not desc).astype(int).tolist()
    assert ranked["peers"].tolist() == (
        keyed.groupby(["g", "k"])["id"].transform("size").tolist()
    )


@given(frames())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_over_matches_pandas(ray_session, case):
    import ray.data as rd

    df, partitioned, desc, blocks = case
    ds = rd.from_pandas(df).repartition(blocks)
    part = ["p"] if partitioned else []
    got = over(
        ds, part, ["k", "id"], descending=[desc, False], sums=["v"],
        lag=["v"],
    ).to_pandas()
    ranked = over(ds, part, ["k"], descending=desc, ties=True).to_pandas()
    _check(_sorted(df, partitioned, desc), got, ranked, desc)


@given(frames(), st.lists(st.integers(0, 150), max_size=12))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_scan_stitches_any_block_cuts(ray_session, case, cuts):
    """The driver's fold for blocks cut anywhere, empty blocks and
    peer groups across boundaries included: Ray's sort keeps equal
    keys in one block, so only direct cuts reach these carries."""
    import ray

    df, partitioned, desc, _ = case
    part = ["p"] if partitioned else []
    keyed = _sorted(df, partitioned, desc)
    t = pa.Table.from_pandas(
        keyed[["id", "p", "k", "v"]], preserve_index=False
    ).append_column(window._NULL, pa.array(np.zeros(len(df), bool)))
    edges = sorted({0, len(df), *(c for c in cuts if c <= len(df))})
    refs = [ray.put(t.slice(a, b - a)) for a, b in zip(edges, edges[1:])]

    def scan(order, sums=(), lag=(), ties=False):
        out = window._scan(refs, part, order, sums, lag, ties)
        if not out:
            return pd.DataFrame({"id": []})
        return pa.concat_tables(ray.get(out)).to_pandas()

    got = scan(["k", "id"], sums=["v"], lag=["v"])
    _check(keyed, got, scan(["k"], ties=True), desc)


def test_over_empty_input(ray_session):
    import ray.data as rd

    empty = pa.table({"p": pa.array([], pa.string()),
                      "k": pa.array([], pa.int64())})
    for ds in (rd.from_arrow(empty),
               rd.from_arrow(empty).repartition(7)):
        assert over(ds, ["p"], ["k"], sums=["k"], lag=["k"],
                    ties=True).count() == 0


@pytest.mark.parametrize("col", ["p", "k"])
def test_over_null_key_raises(ray_session, col):
    """A null string partition key would break Ray's own sort; the
    scan reports every null key as the same ValueError."""
    import ray.data as rd

    df = pd.DataFrame({"p": ["a", "b", "c"] * 40,
                       "k": np.arange(120, dtype=np.float64)})
    df.loc[[5, 77], col] = None
    with pytest.raises(ValueError, match="null"):
        over(rd.from_pandas(df).repartition(8), ["p"], ["k"])


def test_ntile_of_rank_per_row_sizes():
    """One ``n`` per row gives the same tiles as one call per
    partition size."""
    from zzzarchived_arxiv_fulltext_ray.stages.window import ntile_of_rank

    sizes = [1, 3, 7, 10, 11]
    rnk = np.concatenate([np.arange(1, n + 1) for n in sizes])
    n = np.repeat(sizes, sizes)
    want = np.concatenate(
        [ntile_of_rank(np.arange(1, s + 1), s, 4) for s in sizes]
    )
    assert (ntile_of_rank(rnk, n, 4) == want).all()


def test_one_sorted_window_scan():
    """Every ordered operator of ``stages/window.py`` runs on ``over``:
    two Ray tasks (summary, annotate), no Dataset groupby, no bucket
    knob, no composite string key, and none of the plans it
    replaced."""
    src = Path(window.__file__).read_text()
    assert len(re.findall(r"^@ray\.remote", src, re.M)) == 2
    # the histogram branch's pandas groupby runs on the driver
    assert not re.search(
        r"map_groups|(?<!hist)\.groupby\(|n_buckets|num_buckets|_SEP", src
    )
    for gone in ("global_row_number", "global_row_number_sorted",
                 "grouped_row_number", "grouped_rank_sorted",
                 "grouped_ordered_cumsum"):
        assert not hasattr(window, gone), gone
