"""Ray Data executions per query, pinned on a fixed sample at sf0.001.

Every execution pays Ray's per-execution setup, so a change that adds
one (a stray ``count()``, ``materialize()`` or ``.schema()``) shows up
here. No join probes a schema: a join's executions are its own. Executions are counted with the ``executions`` fixture
(conftest.py); a query that reuses a pinned intermediate counts each
execution it starts. The iterative queries are pinned in both modes:
``GRAFT_FORCE_PARTITIONED=1`` (read by ``plan.broadcast`` at call
time) runs their partitioned plans, one superstep execution per
round."""

import pytest

from conftest import TESTDATA

SF = str(TESTDATA / "sf0.001")

EXECUTIONS = {
    "lineitem_agg": 1,
    "lang_stats": 1,
    "lang_length_median": 1,
    "join_priority_revenue": 1,
    "supplier_triangles": 3,
    "supplier_kcore": 2,
    "events_sessions": 1,
    "dedup_ngram_partitioned": 2,
    "dedup_minhash": 2,
    "dedup_simhash": 1,
    "customer_fuzzy_pairs": 1,
    "fuzzy_blocklist_match": 1,
    "snippet_containment": 2,
    "url_blocklist_partitioned": 1,
    "events_interval": 1,
    "events_band_pairs": 1,
    "events_value_quartiles": 1,
    "events_median_value": 1,
    "event_type_value_mad": 3,
    "lang_p90_filter": 2,
    "pagerank": 6,
    "dedup_components": 5,
    "supplier_communities": 2,
    "supplier_diameter": 7,
    "supplier_closeness": 10,
    "shipping_priority": 2,
    "regional_revenue": 1,
    "events_asof": 1,
    "doc_tfidf": 1,
}

FORCED_EXECUTIONS = {
    "pagerank": 6,
    "dedup_components": 5,
    "supplier_communities": 6,
    "supplier_diameter": 16,
    "supplier_closeness": 19,
    "shipping_priority": 2,
    "regional_revenue": 1,
    "events_asof": 1,
    "doc_tfidf": 1,
}


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
def test_query_executions(executions, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    assert executions(lambda: QUERIES[name](SF)) == EXECUTIONS[name]


@pytest.mark.parametrize("name", sorted(FORCED_EXECUTIONS))
def test_query_executions_forced(executions, monkeypatch, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    n = executions(lambda: QUERIES[name](SF))
    assert n == FORCED_EXECUTIONS[name]
