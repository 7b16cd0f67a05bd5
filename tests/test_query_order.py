"""Queries whose output is a per-document map return their rows sorted
by ``doc_id``: Ray Data hands map output back in block-completion
order, which changes from run to run."""

import pandas as pd
import pytest

from conftest import TESTDATA

SF = str(TESTDATA / "sf0.01")


@pytest.mark.parametrize("name", ["doc_fingerprint", "doc_tokens"])
def test_per_document_query_rows_are_ordered(ray_session, name):
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    first, second = QUERIES[name](SF), QUERIES[name](SF)
    assert first["doc_id"].is_monotonic_increasing
    pd.testing.assert_frame_equal(first, second, check_exact=True)
