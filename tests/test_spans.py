"""Exact duplicate-span removal (stages/spans.py): both physical
plans pinned equal, hand-computable micro-corpus semantics, and the
edge cases (doc shorter than the window, fully-duplicated doc,
duplicate-free corpus -> typed empty)."""

import pandas as pd
import pyarrow as pa
import pytest

from conftest import forced
from zzzarchived_arxiv_fulltext_ray.stages.spans import dup_span_removal


def _docs_ds(texts):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


def _run(texts, broadcast, w=3):
    with forced(not broadcast):
        out = dup_span_removal(_docs_ds(texts), w=w, min_count=2)
    out = out.to_pandas()
    if out.empty:
        return out
    return out.sort_values("doc_id").reset_index(drop=True)


DUPPED = [
    # docs 1 and 2 share the 3-gram "x y z" (cross-doc dup); the
    # tokens around it survive.
    "a b x y z c d",
    "p q x y z r",
    # doc 3 repeats "m m m" twice WITHIN itself (positions 1 and 4
    # overlap at nothing; "m m m m m m" has every window duplicated)
    "m m m m m m",
    # doc 4: unique content, untouched
    "u v w unique content here",
    # doc 5: shorter than the window, never considered
    "t u",
]


def test_micro_semantics_broadcast():
    out = _run(DUPPED, broadcast=True)
    assert out["doc_id"].tolist() == [1, 2, 3]
    byid = out.set_index("doc_id")
    assert byid.loc[1, "text_clean"] == "a b c d"
    assert byid.loc[1, "n_tokens"] == 7
    assert byid.loc[1, "n_removed"] == 3
    assert byid.loc[2, "text_clean"] == "p q r"
    # every window of doc 3 is "m m m" with 4 occurrences -> all gone
    assert byid.loc[3, "text_clean"] == ""
    assert byid.loc[3, "n_removed"] == 6


def test_plans_pinned_equal():
    a = _run(DUPPED, broadcast=True)
    b = _run(DUPPED, broadcast=False)
    pd.testing.assert_frame_equal(a, b)


def test_no_duplicates_typed_empty():
    ds = dup_span_removal(
        _docs_ds(["one two three four", "five six seven eight"]),
        w=3, min_count=2,
    )
    assert ds.count() == 0
    # schema survives emptiness (the to_pandas column-loss gotcha)
    assert ds.schema().names == [
        "doc_id", "n_tokens", "n_removed", "text_clean"
    ]


def test_min_count_three_requires_third_copy():
    texts = ["x y z a", "x y z b", "x y z c"]
    two = dup_span_removal(_docs_ds(texts[:2]), w=3, min_count=3).to_pandas()
    assert two.empty
    three = (
        dup_span_removal(_docs_ds(texts), w=3, min_count=3)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert three["doc_id"].tolist() == [1, 2, 3]
    assert (three["n_removed"] == 3).all()


def test_sf0001_plans_match_corpus():
    import ray.data as rd

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
    )
    a = dup_span_removal(ds, w=8).to_pandas()
    with forced():
        b = dup_span_removal(ds, w=8)
    b = b.to_pandas()
    if a.empty and b.empty:
        pytest.skip("no 8-gram dups at sf0.001")
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
