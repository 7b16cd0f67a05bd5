"""Queries whose filters leave no rows return an empty frame with the
oracle's columns and dtypes. ``aggregate`` over an input without rows
gives a Dataset without columns, so a query that indexes its key
columns afterwards has to build the empty result itself."""

import duckdb
import pandas as pd
import pytest

from conftest import TESTDATA

SF = TESTDATA / "sf0.001"


@pytest.mark.parametrize("name", ["volume_shipping", "disjunctive_revenue"])
def test_empty_result_matches_oracle(ray_session, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import (
        ORACLE_SQL,
        QUERIES,
    )

    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "supplier", "nation",
              "part"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF}/{t}.parquet')"
        )
    want = con.execute(ORACLE_SQL[name]).fetchdf()
    assert want.empty  # the premise: no row passes the filters at sf0.001
    got = QUERIES[name](str(SF))
    pd.testing.assert_frame_equal(got, want)
