"""Ray Data executions per query, pinned on a fixed sample at sf0.001.

Every execution pays Ray's per-execution setup, so a change that adds
one (a stray ``count()``, ``materialize()`` or ``.schema()``) shows up
here. Executions are counted with the ``executions`` fixture
(conftest.py); a query that reuses a pinned intermediate counts each
execution it starts."""

import pytest

from conftest import TESTDATA

SF = str(TESTDATA / "sf0.001")

EXECUTIONS = {
    "lineitem_agg": 1,
    "lang_stats": 1,
    "lang_length_median": 1,
    "join_priority_revenue": 3,
    "supplier_triangles": 3,
    "supplier_kcore": 2,
    "events_sessions": 1,
    "dedup_ngram_partitioned": 3,
    "url_blocklist_partitioned": 3,
}


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
def test_query_executions(executions, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    assert executions(lambda: QUERIES[name](SF)) == EXECUTIONS[name]
