"""partitioned_hash_join against pandas ``merge``: every ``how``, many
blocks per side (so most buckets hold rows of one side only), and an
empty, schema-less side, which the join takes without reading any
schema up front."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

HOWS = ["inner", "left", "right", "outer", "semi", "anti"]


def _frames():
    rng = np.random.default_rng(5)
    left = pd.DataFrame(
        {"k": rng.integers(0, 60, 300), "a": np.arange(300),
         "s": [f"l{i}" for i in range(300)]}
    )
    right = pd.DataFrame(
        {"k": rng.integers(30, 90, 120), "b": np.arange(120) * 10}
    )
    return left, right


def _want(left, right, how):
    if how == "semi":
        return left[left["k"].isin(right["k"])]
    if how == "anti":
        return left[~left["k"].isin(right["k"])]
    return left.merge(right, on="k", how=how)


def _same(got: pd.DataFrame, want: pd.DataFrame, cols):
    def norm(df):
        df = df[cols].astype(object).where(df[cols].notna(), None)
        return sorted(map(tuple, df.itertuples(index=False)),
                      key=repr)

    assert len(got) == len(want)
    assert norm(got) == norm(want)


def _ds(df, blocks):
    import ray.data

    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)
                               ).repartition(blocks)


def _schemaless_empty(df):
    """A side with no rows and no known schema: a lazy filter that
    drops every row (map stages skip its empty blocks)."""
    return _ds(df, 2).filter(expr="k < -1")


@pytest.mark.parametrize("how", HOWS)
def test_join_matches_pandas(ray_session, how):
    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        partitioned_hash_join,
    )

    left, right = _frames()
    got = partitioned_hash_join(
        _ds(left, 7), _ds(right, 3), "k", how=how
    ).to_pandas()
    want = _want(left, right, how)
    assert set(got.columns) == set(want.columns)
    _same(got, want, list(want.columns))


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("empty_side", ["left", "right"])
def test_join_takes_an_empty_schemaless_side(ray_session, how,
                                             empty_side):
    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        partitioned_hash_join,
    )

    left, right = _frames()
    if empty_side == "left":
        lds, rds, kept = _schemaless_empty(left), _ds(right, 3), right
        left = left.iloc[0:0]
    else:
        lds, rds, kept = _ds(left, 5), _schemaless_empty(right), left
        right = right.iloc[0:0]
    got = partitioned_hash_join(lds, rds, "k", how=how).to_pandas()
    want = _want(left, right, how)
    cols = [c for c in want.columns if c in kept.columns]
    if len(want):
        assert set(got.columns) == set(cols)
    _same(got, want, cols if len(got) else [])


def test_join_rejects_overlapping_columns_of_lazy_inputs(ray_session):
    """Without known schemas the overlap surfaces when the join runs."""
    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        partitioned_hash_join,
    )

    left, right = _frames()
    rds = _ds(right.rename(columns={"b": "a"}), 2).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    with pytest.raises(Exception, match="overlapping"):
        partitioned_hash_join(
            _ds(left, 2).map_batches(lambda b: b, batch_format="pyarrow"),
            rds, "k",
        ).to_pandas()
    # materialized inputs raise before anything runs
    with pytest.raises(ValueError, match="overlapping"):
        partitioned_hash_join(
            _ds(left, 2).materialize(),
            _ds(right.rename(columns={"b": "a"}), 2).materialize(), "k",
        )
