"""Queries whose output is a per-document (per-url) map return their
rows sorted by ``doc_id`` (``url``): Ray Data hands map output back in
block-completion order, which changes from run to run."""

import pandas as pd
import pytest

from conftest import TESTDATA, forced

SF = str(TESTDATA / "sf0.01")


@pytest.mark.parametrize("name", ["doc_fingerprint", "doc_tokens"])
def test_per_document_query_rows_are_ordered(ray_session, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    first, second = QUERIES[name](SF), QUERIES[name](SF)
    assert first["doc_id"].is_monotonic_increasing
    pd.testing.assert_frame_equal(first, second, check_exact=True)


@pytest.mark.parametrize("name", ["extract_text", "extract_dedup_latest"])
def test_per_url_query_rows_are_ordered_in_both_modes(ray_session, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    sf = str(TESTDATA / "sf0.001")
    with forced(False):
        normal = QUERIES[name](sf)
    with forced():
        forced_run = QUERIES[name](sf)
    assert normal["url"].is_monotonic_increasing
    pd.testing.assert_frame_equal(normal, forced_run, check_exact=True)
