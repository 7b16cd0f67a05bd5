"""Interval join + composite-key partitioned hash join."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.stages.interval import interval_join
from zzzarchived_arxiv_fulltext_ray.stages.relational import (
    partitioned_hash_join,
)


def _us(sec: float) -> int:
    return int(sec * 1_000_000)


def test_composite_key_join_matches_pandas(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    n = 3000
    left = pd.DataFrame(
        {
            "k1": rng.integers(0, 20, n).astype(np.int64),
            "k2": rng.integers(0, 7, n).astype(np.int64),
            "lv": np.arange(n, dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k1": rng.integers(0, 20, 500).astype(np.int64),
            "k2": rng.integers(0, 7, 500).astype(np.int64),
            "rv": np.arange(500, dtype=np.int64),
        }
    )
    got = (
        partitioned_hash_join(
            rd.from_pandas(left).repartition(5),
            rd.from_pandas(right).repartition(3),
            key=["k1", "k2"],
        )
        .to_pandas()
        .sort_values(["lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, on=["k1", "k2"])
        .sort_values(["lv", "rv"])
        .reset_index(drop=True)[got.columns.tolist()]
    )
    pd.testing.assert_frame_equal(got, want)


def _brute_interval(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    out = left.merge(right, on="k")
    out = out[(out.ts >= out.start) & (out.ts < out.end)]
    return out.sort_values(["lid", "rid"]).reset_index(drop=True)


def test_interval_join_matches_brute_force(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    nl, nr = 4000, 300
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 25, nl).astype(np.int64),
            "ts": rng.integers(0, _us(3600), nl).astype(np.int64),
            "lid": np.arange(nl, dtype=np.int64),
        }
    )
    starts = rng.integers(0, _us(3600), nr).astype(np.int64)
    # spread of interval lengths: sub-granule to several granules
    lens = rng.integers(1, _us(900), nr).astype(np.int64)
    right = pd.DataFrame(
        {
            "k": rng.integers(0, 25, nr).astype(np.int64),
            "start": starts,
            "end": starts + lens,
            "rid": np.arange(nr, dtype=np.int64),
        }
    )
    got = (
        interval_join(
            rd.from_pandas(left).repartition(7),
            rd.from_pandas(right).repartition(3),
            key="k",
            ts="ts",
            start="start",
            end="end",
            granule_us=_us(300),
        )
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    want = _brute_interval(left, right)[got.columns.tolist()]
    pd.testing.assert_frame_equal(got, want)


def test_interval_join_granule_boundary_exclusive(ray_session):
    import ray.data as rd

    g = _us(300)
    left = pd.DataFrame(
        {
            "k": np.array([1, 1, 1, 1], np.int64),
            # on start, just inside end, exactly end, before start
            "ts": np.array([2 * g, 3 * g - 1, 3 * g, 2 * g - 1], np.int64),
            "lid": np.arange(4, dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k": np.array([1], np.int64),
            "start": np.array([2 * g], np.int64),
            "end": np.array([3 * g], np.int64),  # exactly on a boundary
            "rid": np.array([0], np.int64),
        }
    )
    got = (
        interval_join(
            rd.from_pandas(left),
            rd.from_pandas(right),
            key="k",
            ts="ts",
            start="start",
            end="end",
            granule_us=g,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert got["lid"].tolist() == [0, 1]


def test_interval_join_rejects_overlapping_columns(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"k": [1], "ts": [1], "x": [1]})
    rdf = pd.DataFrame({"k": [1], "start": [0], "end": [2], "x": [2]})
    with pytest.raises(ValueError, match="overlapping"):
        interval_join(
            rd.from_pandas(df),
            rd.from_pandas(rdf),
            key="k",
            ts="ts",
            start="start",
            end="end",
            granule_us=10,
        )
