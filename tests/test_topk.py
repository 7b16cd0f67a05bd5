"""stages/topk.py against a pandas brute force (``sort_values(by)``
then ``groupby(group).head(k)``) on seeded random multi-block inputs:
heavy ties, a descending string key, NaN and null values, k >= rows
and empty blocks."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.stages.topk import (
    topk,
    topk_batch,
    topk_per_group,
)

# v desc (few distinct values: heavy ties), s desc (string), id asc
# (unique: makes the order total)
BY = [("v", "descending"), ("s", "descending"), ("id", "ascending")]


def _blocks(seed: int, sizes):
    """One Arrow table per block (ids unique across blocks, shuffled
    within one). ``v`` holds NaN and nulls, ``s`` holds nulls and
    non-ASCII strings."""
    rng = np.random.default_rng(seed)
    out, start = [], 0
    for n in sizes:
        v = rng.integers(0, 4, n).astype(np.float64)
        v[rng.random(n) < 0.15] = np.nan
        v_null = rng.random(n) < 0.15
        s = rng.choice(np.array(["a", "b", "é", "zz"], dtype=object), n)
        s_null = rng.random(n) < 0.15
        out.append(
            pa.table(
                {
                    "g": pa.array(rng.choice(["g0", "g1", "g2"], n)),
                    "id": pa.array(start + rng.permutation(n), pa.int64()),
                    "v": pa.array(v, pa.float64(), mask=v_null),
                    "s": pa.array(s, pa.string(), mask=s_null),
                }
            )
        )
        start += n
    return out


def _want(table: pa.Table, k: int, group=None) -> pd.DataFrame:
    """The brute force. NaN and null sort last in both directions, NaN
    before null: spelled as an explicit class column per key, since
    pandas reads both as NaN."""
    df = table.to_pandas()
    v_cls = np.where(
        table["v"].is_null().to_numpy(zero_copy_only=False),
        2, np.where(np.isnan(df["v"]), 1, 0),
    )
    df = df.assign(v_cls=v_cls, s_cls=df["s"].isna().astype(int))
    df = df.sort_values(
        ["v_cls", "v", "s_cls", "s", "id"],
        ascending=[True, False, True, False, True],
        kind="stable",
    )
    if group is not None:
        df = df.groupby(group).head(k)
    else:
        df = df.head(k)
    return df.drop(columns=["v_cls", "s_cls"])


def _ids_by_group(df: pd.DataFrame):
    return {g: list(d["id"]) for g, d in df.groupby("g", sort=True)}


@pytest.mark.parametrize("k", [1, 3, 1000])
def test_topk_batch_matches_pandas(k):
    for seed in range(5):
        table = _blocks(seed, [200])[0]
        got = topk_batch(table, k, BY)
        assert got.schema == table.schema
        assert got["id"].to_pylist() == list(_want(table, k)["id"])
        grouped = topk_batch(table, k, BY, group="g")
        assert grouped.schema == table.schema
        # rows come out ordered by group, then by the sort keys
        want = _want(table, k, group="g").sort_values("g", kind="stable")
        assert grouped["id"].to_pylist() == list(want["id"])


def test_topk_batch_empty_batch():
    empty = _blocks(0, [0])[0]
    for group in (None, "g"):
        out = topk_batch(empty, 3, BY, group=group)
        assert out.num_rows == 0 and out.schema == empty.schema


def test_topk_of_empty_blocks(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_blocks(0, [0, 0]))
    assert topk(ds, 3, BY).num_rows == 0
    assert topk_per_group(ds, "g", 3, BY).count() == 0


@pytest.mark.parametrize("k", [1, 4, 1000])
def test_topk_and_topk_per_group_match_pandas(ray_session, k):
    import ray.data as rd

    blocks = _blocks(11, [300, 0, 1, 250, 80])
    whole = pa.concat_tables(blocks)
    ds = rd.from_arrow(blocks)

    got = topk(ds, k, BY)
    assert got.schema == whole.schema
    assert got["id"].to_pylist() == list(_want(whole, k)["id"])

    grouped = topk_per_group(ds, "g", k, BY).to_pandas()
    assert list(grouped.columns) == whole.column_names
    assert _ids_by_group(grouped) == _ids_by_group(_want(whole, k, "g"))
