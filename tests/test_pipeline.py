"""End-to-end pipeline tests over the sf0.001 testdata (one Ray session
per pytest run, see conftest)."""

import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def extracted(ray_session):
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    return extraction_pipeline(read_pages(SF)).to_pandas()


def test_row_count_after_dedup(extracted):
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert len(extracted) == n_docs  # one row per url survives


def test_status_split(extracted):
    from zzzarchived_arxiv_fulltext_ray.sources.pages import expected_status

    by_doc = {
        int(u.rsplit("/", 1)[1]): s
        for u, s in zip(extracted.url, extracted.status)
    }
    for doc_id, status in by_doc.items():
        assert status == expected_status(doc_id)


def test_byte_identity_vs_ground_truth(extracted):
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    truth = dict(zip(docs.doc_id, docs.text))
    ok = extracted[extracted.status == "succeeded"]
    for url, text in zip(ok.url, ok.text):
        assert text == truth[int(url.rsplit("/", 1)[1])]


def test_psv_matches_kernel(extracted):
    from zzzarchived_arxiv_fulltext_ray.functions.psv import normalize_text_psv

    ok = extracted[extracted.status == "succeeded"].head(25)
    for text, psv in zip(ok.text, ok.psv):
        assert psv == normalize_text_psv(text)


def test_failed_rows_carry_errors(extracted):
    failed = extracted[extracted.status == "failed"]
    assert failed.error.notna().all()
    assert failed.text.isna().all()


def test_dedup_kept_latest_crawl(extracted):
    from zzzarchived_arxiv_fulltext_ray.sources.pages import (
        DUP_EVERY,
        N_CRAWLS,
        warc_ts_for,
    )

    for url, ts in zip(extracted.url, extracted.warc_ts):
        doc_id = int(url.rsplit("/", 1)[1])
        crawl = (N_CRAWLS - 1) if doc_id % DUP_EVERY == 0 else 0
        assert ts.to_pydatetime() == warc_ts_for(doc_id, crawl)


def test_dedup_methods_agree(ray_session):
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages
    from zzzarchived_arxiv_fulltext_ray.stages.dedup import latest_crawl

    pages = read_pages(SF)
    a = (
        latest_crawl(pages, "broadcast")
        .to_pandas()[["url", "warc_ts"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        latest_crawl(read_pages(SF), "shuffle")
        .to_pandas()[["url", "warc_ts"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert a.equals(b)


def test_run_metrics(ray_session):
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
        run_metrics,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    m = run_metrics(extraction_pipeline(read_pages(SF), derive_psv=False))
    assert m["rows"] == 500
    assert m["ok"] == 425
    assert m["failed"] == 75
    assert m["bytes"] > 0


def test_extractor_pool_constructs_directly():
    """Actor __init__ failures surface late in Ray — smoke it inline."""
    import pyarrow as pa

    from zzzarchived_arxiv_fulltext_ray.stages.extract import (
        ExtractorPool,
        sniff_stats_batch,
    )

    batch = pa.table(
        {
            "url": ["u1"],
            "warc_ts": pa.array([0], pa.timestamp("us")),
            "html": pa.array([b"<p>some real text content here</p>"],
                             pa.large_binary()),
            "text": ["fallback"],
            "lang": ["en"],
        }
    )
    out = ExtractorPool(derive_psv=True)(sniff_stats_batch(batch))
    assert out["status"].to_pylist() == ["succeeded"]
    assert out.column_names[-1] == "psv"


def test_skew_isolation_same_result(ray_session):
    """giant_threshold_bytes routes big payloads to single-row batches
    without changing the logical result."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    base = (
        extraction_pipeline(read_pages(SF), derive_psv=False)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    skewed = (
        extraction_pipeline(
            read_pages(SF), derive_psv=False, giant_threshold_bytes=4000
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert base[["url", "status", "text"]].equals(
        skewed[["url", "status", "text"]]
    )


def test_training_batch_loader(ray_session):
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.pipelines.loader import (
        iter_training_batches,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    ds = extraction_pipeline(read_pages(SF), derive_psv=False)
    total_docs = 0
    total_tokens = 0
    for batch in iter_training_batches(ds, batch_tokens=4096):
        n_docs = len(batch["urls"])
        total_docs += n_docs
        total_tokens += len(batch["token_ids"])
        assert len(batch["offsets"]) == n_docs + 1
        assert batch["offsets"][-1] == len(batch["token_ids"])
        assert batch["token_ids"].dtype.name == "int32"
    assert total_docs == 425  # every succeeded row exactly once
    assert total_tokens > 0


def test_jsonl_sink_roundtrip(ray_session, tmp_path):
    """Sink breadth: extraction output written as JSONL re-reads with
    the same order-independent content hash as the Parquet sink."""
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages
    from zzzarchived_arxiv_fulltext_ray.state.manifest import (
        shard_digests,
    )

    ds = extraction_pipeline(read_pages(SF), derive_psv=False).map_batches(
        lambda b: b.select(["url", "text", "status"]),
        batch_format="pyarrow",
    )
    pq_dir, js_dir = tmp_path / "pq", tmp_path / "js"
    ds.write_parquet(str(pq_dir))
    extraction_pipeline(read_pages(SF), derive_psv=False).map_batches(
        lambda b: b.select(["url", "text", "status"]),
        batch_format="pyarrow",
    ).write_json(str(js_dir))

    h_pq = shard_digests(
        rd.read_parquet(str(pq_dir)), ["url", "text", "status"]
    ).content_hash
    h_js = shard_digests(
        rd.read_json(str(js_dir)), ["url", "text", "status"]
    ).content_hash
    assert h_pq == h_js


def test_partition_pages_by_url(ray_session, tmp_path):
    """Hash-partitioned layout: all crawls of a url land in ONE bucket
    dir, so per-bucket dedup is globally correct with no second pass."""
    from zlib import crc32

    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages
    from zzzarchived_arxiv_fulltext_ray.stages.dedup import (
        latest_crawl_broadcast,
        partition_pages_by_url,
    )

    out = tmp_path / "parts"
    partition_pages_by_url(read_pages(SF), str(out), num_buckets=8)
    bucket_dirs = sorted(out.glob("url_bucket=*"))
    assert len(bucket_dirs) == 8

    # co-location: every url appears in exactly one bucket
    seen = {}
    for d in bucket_dirs:
        b = int(d.name.split("=")[1])
        for u in rd.read_parquet(str(d)).unique("url"):
            assert seen.setdefault(u, b) == b
            assert crc32(u.encode()) % 8 == b

    # per-bucket dedup == global dedup
    per_bucket = []
    for d in bucket_dirs:
        per_bucket.append(
            latest_crawl_broadcast(rd.read_parquet(str(d)))
            .to_pandas()[["url", "warc_ts"]]
        )
    import pandas as pd

    got = (
        pd.concat(per_bucket)
        .sort_values("url")
        .reset_index(drop=True)
    )
    want = (
        latest_crawl_broadcast(read_pages(SF))
        .to_pandas()[["url", "warc_ts"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_pack_sequences(ray_session):
    """Packed pretraining examples: every row exactly seq_len int32
    ids; token stream preserved in order within each input batch."""
    import numpy as np

    from zzzarchived_arxiv_fulltext_ray.functions.shingles import (
        stable_hash64,
    )
    from zzzarchived_arxiv_fulltext_ray.functions.textstats import _BPE_TOKEN
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.pipelines.loader import (
        VOCAB_SIZE,
        pack_sequences,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    ds = extraction_pipeline(read_pages(SF), derive_psv=False)
    packed = pack_sequences(ds, seq_len=128, eos_id=0).to_pandas()
    assert len(packed) > 0
    lens = packed.input_ids.map(len)
    assert (lens == 128).all()

    # conservation: total packed tokens == total tokens+separators
    # minus the per-batch dropped tails (< seq_len per input batch)
    df = extraction_pipeline(read_pages(SF), derive_psv=False).to_pandas()
    ok_texts = df[df.status == "succeeded"].text
    total = sum(len(_BPE_TOKEN.findall(t)) + 1 for t in ok_texts)
    packed_total = int(lens.sum())
    assert packed_total <= total
    assert packed_total > 0.5 * total  # tails are a bounded loss here

    # id space: stable hash % VOCAB_SIZE
    flat = np.concatenate(packed.input_ids.to_numpy())
    assert flat.min() >= 0 and flat.max() < VOCAB_SIZE
    probe = _BPE_TOKEN.findall(ok_texts.iloc[0])[0]
    assert stable_hash64(probe) % VOCAB_SIZE in flat


def test_read_pages_from_files(ray_session, tmp_path):
    """Raw-file source: directory of page files -> same pipeline."""
    from zzzarchived_arxiv_fulltext_ray.functions.pdf_text import (
        write_minimal_pdf,
    )
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import (
        _boilerplate_html,
        read_pages_from_files,
    )

    (tmp_path / "a.html").write_text(
        _boilerplate_html(
            1, "A first page paragraph, with commas, long enough to win.",
            "utf-8",
        )
    )
    (tmp_path / "b.pdf").write_bytes(write_minimal_pdf("pdf page body text"))
    (tmp_path / "c.bin").write_bytes(b"\x00junk")

    pages = read_pages_from_files(str(tmp_path))
    out = (
        extraction_pipeline(pages, dedup=None, derive_psv=False)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(out) == 3
    by_suffix = {u.rsplit(".", 1)[1]: s for u, s in zip(out.url, out.status)}
    assert by_suffix == {"html": "succeeded", "pdf": "succeeded",
                        "bin": "failed"}


def test_dedup_prepass_error_raises_on_driver(ray_session):
    """A pre-pass failure raises from the call that builds the graph,
    on the driver, before any extraction can run."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.stages.dedup import (
        latest_crawl_broadcast,
    )

    # no warc_ts column -> the winner aggregate raises
    df = pd.DataFrame({"url": ["a", "b"], "x": [1, 2]})
    with pytest.raises(Exception, match="warc_ts"):
        latest_crawl_broadcast(rd.from_pandas(df))
    with pytest.raises(Exception, match="warc_ts"):
        extraction_pipeline(rd.from_pandas(df))


def test_dedup_over_byte_budget_takes_the_shuffle(ray_session, monkeypatch,
                                                  caplog):
    """A winner table over the broadcast byte budget goes through the
    one crossover to the shuffle twin: same rows, one logged
    ``choice=exchange`` decision."""
    import logging

    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages
    from zzzarchived_arxiv_fulltext_ray.stages import plan
    from zzzarchived_arxiv_fulltext_ray.stages.dedup import (
        latest_crawl_broadcast,
        latest_crawl_shuffle,
    )

    monkeypatch.delenv("GRAFT_FORCE_PARTITIONED", raising=False)
    monkeypatch.setenv("GRAFT_BROADCAST_BYTES_LIMIT", "1")
    caplog.set_level(logging.INFO, logger=plan.__name__)

    def rows(ds):
        return (
            ds.to_pandas()[["url", "warc_ts"]]
            .sort_values("url")
            .reset_index(drop=True)
        )

    got = rows(latest_crawl_broadcast(read_pages(SF)))
    assert got.equals(rows(latest_crawl_shuffle(read_pages(SF))))
    decisions = [
        r.getMessage() for r in caplog.records if r.name == plan.__name__
    ]
    assert len(decisions) == 1
    assert decisions[0].startswith("plan site=latest_crawl ")
    assert decisions[0].endswith(" choice=exchange")


@pytest.fixture(scope="module")
def written(ray_session, tmp_path_factory):
    """One ``extraction_pipeline(...).write_parquet`` run: the actor
    classes it started and its ``ds.stats()``."""
    import ray._private.state as ray_state

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    before = set(ray_state.actors())
    ds = extraction_pipeline(read_pages(SF))
    ds.write_parquet(str(tmp_path_factory.mktemp("written")))
    started = [
        info for aid, info in ray_state.actors().items() if aid not in before
    ]
    return started, ds.stats()


def test_extraction_starts_no_actor_beyond_ray_data(written):
    """The dedup publishes its winners with ``ray.put``: the only new
    actors are Ray Data's map workers and its detached singletons
    (stats, autoscaling, location tracking)."""
    started, _ = written
    extra = [
        info["ActorClassName"]
        for info in started
        if not info["ActorClassName"].startswith("MapWorker(")
        and not info["IsDetached"]
    ]
    assert extra == []
    assert any(
        "ExtractorPool" in info["ActorClassName"] for info in started
    )


def test_keep_latest_fuses_into_extractor_pool(written):
    """The winner filter stays a lazy stateless stage, so Ray fuses it
    into the ExtractorPool operator (no extra operator, no extra
    hand-off of the payload blocks)."""
    _, stats = written
    fused = [
        line for line in stats.splitlines()
        if line.startswith("Operator ") and "MapBatches(ExtractorPool)" in line
    ]
    assert len(fused) == 1
    assert "MapBatches(keep_latest)->" in fused[0]
