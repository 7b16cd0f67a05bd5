"""Tests of the benchmark itself (inputs, ground truth, ledger parsing).

    python3 -m pytest perfbench -q

Sizes are at the sf0.001 scale of the repository's test tables, except
the near-dup oracle check, which uses the sf0.01 document count.
"""

import os
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent)]

import inputs  # noqa: E402
import ledger  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ray_session(tmp_path_factory):
    import procs

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH.parent), str(BENCH)])
    session = procs.RaySession(tmp_path_factory.mktemp("w"))
    session.start()
    yield
    session.close()


def _build(tmp_path, wl, seed):
    return wl.prepare(tmp_path / "cache", seed)


def test_same_seed_same_digest_new_seed_new_urls(tmp_path):
    wl = workloads.Extract("t", n_docs=60, warm_docs=20, expand=2,
                           markdown=False, n_files=2, sample_docs=20)
    a = _build(tmp_path / "a", wl, 7)["main"]
    b = _build(tmp_path / "b", wl, 7)["main"]
    c = _build(tmp_path / "c", wl, 8)["main"]
    assert inputs.input_digest(a / "pages") == inputs.input_digest(b / "pages")
    assert inputs.input_digest(a / "pages") != inputs.input_digest(c / "pages")

    def urls(p):
        return set(pq.read_table(p / "pages", columns=["url"])["url"]
                   .to_pylist())

    assert not urls(a) & urls(c)
    ids = {s: pq.read_table(p / "documents.parquet")["doc_id"].to_pylist()
           for s, p in ((7, a), (8, c))}
    assert inputs.kind_mix(ids[7]) == inputs.kind_mix(ids[8])


def test_recrawl_layout_keeps_a_winner_per_shard(tmp_path):
    docs = inputs.make_documents(3, 80)
    out = tmp_path / "pages"
    out.mkdir()
    inputs.write_recrawl_files(out, docs, 4, 3)  # asserts internally
    rows = sum(pq.read_metadata(f).num_rows for f in out.glob("*.parquet"))
    assert rows == 80 + 2 * 8  # every tenth doc is crawled three times


def test_avoid_flate_eol_rerolls_only_pdf_texts():
    docs = inputs.make_documents(11, 400)
    fixed = inputs.avoid_flate_eol(docs, 1)
    from zzzarchived_arxiv_fulltext_ray.functions.pdf_text import (
        write_minimal_pdf,
    )

    for doc_id, before, after in zip(docs["doc_id"].to_pylist(),
                                     docs["text"].to_pylist(),
                                     fixed["text"].to_pylist()):
        if doc_id % 20 != 1:
            assert before == after
        else:
            assert not inputs._flate_body_ends_in_eol(
                write_minimal_pdf(after, compress=True))


def test_error_rate_sees_one_byte_and_one_url(tmp_path, ray_session):
    wl = workloads.Extract("t", n_docs=50, warm_docs=20, expand=1,
                           markdown=True, n_files=2, sample_docs=20)
    inp = wl.prepare(tmp_path / "cache", 5)
    want = wl.truth(inp)
    out = tmp_path / "out"
    res = wl.run_pass(inp["main"], out, want)
    assert (res.attempted, res.failed) == (50, 0)

    got = truth.read_output(out)
    texts = got["text"].to_pylist()
    i = next(k for k, t in enumerate(texts) if t)
    texts[i] = ("X" if texts[i][0] != "X" else "Y") + texts[i][1:]
    mutated = got.set_column(got.schema.get_field_index("text"), "text",
                             pa.array(texts, pa.string()))
    assert truth.check_extraction(mutated, want) == 1
    assert truth.check_extraction(got.slice(1), want) == 1


def test_dedup_ngram_partitioned_matches_duckdb_oracle(tmp_path, ray_session):
    """The Python restatement that stands in for the slow oracle equals
    the DuckDB oracle, and the query equals both."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import QUERIES

    tables = tmp_path / "t"
    tables.mkdir()
    inputs.make_query_tables(tables, 4, n_docs=500, n_orders=150,
                             n_lineitem=600, n_events=100)
    oracle = truth.query_oracles(tables, ["dedup_ngram_partitioned"])
    python = truth.signature(
        truth.shingle_jaccard_pairs(tables / "documents.parquet"))
    got = truth.signature(truth.to_pandas(
        QUERIES["dedup_ngram_partitioned"](str(tables))))
    assert oracle["dedup_ngram_partitioned"] == python == got
    assert python[0] > 0


STATS = """Operator 1 ReadParquet->SplitBlocks(3): 4 tasks executed, 12 blocks produced in 0.74s
* Remote wall time: 553.4us min, 27.57ms max, 4.27ms mean, 51.24ms total
* Remote cpu time: 640.22us min, 6.47ms max, 2.48ms mean, 29.7ms total
* UDF time: 0us min, 0us max, 0.0us mean, 0us total
* Output num rows per block: 50 min, 50 max, 50 mean, 600 total

Operator 2 MapBatches(keep_latest)->MapBatches(ExtractorPool): 4 tasks executed, 4 blocks produced in 1.93s
* Remote wall time: 363.67ms min, 567.91ms max, 474.74ms mean, 1.9s total
* Remote cpu time: 364.41ms min, 551.1ms max, 471.44ms mean, 1.89s total
* UDF time: 355.48ms min, 1.88s max, 1.1s mean, 4.41s total
* Output num rows per block: 124 min, 126 max, 125 mean, 500 total

Operator 3 Write: 4 tasks executed, 4 blocks produced in 1.57s
* Remote wall time: 5.99ms min, 8.68ms max, 7.1ms mean, 28.39ms total
* Remote cpu time: 6.26ms min, 8.21ms max, 7.13ms mean, 28.52ms total
* Output num rows per block: 1 min, 1 max, 1 mean, 4 total
"""


def test_execution_ledger_parses_remote_times_not_udf_time():
    got = ledger.execution_ledger([(2.5, STATS), (1.5, STATS), (0.1, "")])
    assert got["pipelines.executions"] == 3
    assert got["pipelines.execution_s"] == pytest.approx(4.1)
    assert got["stages.remote_cpu_s"] == pytest.approx(
        2 * (0.0297 + 1.89 + 0.02852))
    assert got["stages.read.wall_s"] == pytest.approx(2 * 0.05124)
    assert got["stages.extract_pool.wall_s"] == pytest.approx(3.8)
    assert got["stages.extract_pool.cpu_s"] == pytest.approx(3.78)
    assert got["stages.extract_pool.rows_out"] == 1000
    assert got["stages.write.rows_out"] == 8


def test_kernel_ledger_counts_parses_per_html_doc(tmp_path):
    docs = inputs.avoid_flate_eol(inputs.make_documents(2, 40), 1)
    pages = inputs.pages_rows(docs, 1)
    plain = ledger.kernel_ledger(pages, markdown=False)
    md = ledger.kernel_ledger(pages, markdown=True)
    # 40 docs: 28 of the 14-in-20 HTML kinds, plus two extra crawls of
    # each kind-10 url (32 HTML rows); the two giant-token rows also run
    # the alternate, and markdown parses every HTML row once more
    assert plain["functions.html_parses_per_doc"] == pytest.approx(34 / 32)
    assert md["functions.html_parses_per_doc"] == pytest.approx(66 / 32)
    assert plain["functions.markdown.ms_per_doc"] == 0
    assert md["functions.markdown.ms_per_doc"] > 0
