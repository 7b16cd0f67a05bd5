"""Resumable-run tests: crash mid-run, resume, byte-equivalent output."""

import json
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from zzzarchived_arxiv_fulltext_ray.state import manifest as mf

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def sharded_input(tmp_path):
    """Split the documents table into 4 single-file shards."""
    t = pq.read_table(f"{SF}/documents.parquet")
    shards = []
    for i in range(4):
        part = t.slice(i * 125, 125)
        p = tmp_path / f"in_{i}.parquet"
        pq.write_table(part, p)
        shards.append([str(p)])
    return shards


def _build(ds):
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import (
        pages_batch_from_documents,
    )

    pages = ds.map_batches(pages_batch_from_documents, batch_format="pyarrow")
    return extraction_pipeline(pages, derive_psv=False, concurrency=(1, 2))


def test_full_then_resume_equivalence(ray_session, sharded_input, tmp_path):
    out_full = tmp_path / "out_full"
    full = mf.run_resumable(sharded_input, _build, str(out_full))
    assert full["processed"] == 4 and full["skipped"] == 0
    assert full["rows"] == 500

    # "crash" after two shards: run only a prefix, then resume with all
    out_resume = tmp_path / "out_resume"
    partial = mf.run_resumable(sharded_input[:2], _build, str(out_resume))
    assert partial["processed"] == 2

    resumed = mf.run_resumable(sharded_input, _build, str(out_resume))
    assert resumed["processed"] == 2 and resumed["skipped"] == 2
    # byte-equivalence via the order-independent content hash
    assert resumed["content_hash"] == full["content_hash"]
    assert resumed["rows"] == full["rows"]


def test_rerun_is_noop(ray_session, sharded_input, tmp_path):
    out = tmp_path / "out"
    mf.run_resumable(sharded_input, _build, str(out))
    again = mf.run_resumable(sharded_input, _build, str(out))
    assert again["processed"] == 0 and again["skipped"] == 4


def test_input_change_triggers_reprocess(ray_session, sharded_input, tmp_path):
    out = tmp_path / "out"
    mf.run_resumable(sharded_input, _build, str(out))

    # mutate one input file (append nothing but touch size/mtime)
    victim = Path(sharded_input[0][0])
    t = pq.read_table(victim).slice(0, 100)
    pq.write_table(t, victim)

    again = mf.run_resumable(sharded_input, _build, str(out))
    assert again["processed"] == 1 and again["skipped"] == 3


def test_version_bump_invalidates_all_shards(
    ray_session, sharded_input, tmp_path
):
    """Extractor-version-aware resume (reference: version-namespaced
    store, fulltext/services/store/store.py:130-165): same version
    resumes as a no-op; a bumped version reprocesses every shard."""
    out = tmp_path / "out"
    v1 = mf.default_config_fingerprint()
    mf.run_resumable(sharded_input, _build, str(out), config_fingerprint=v1)

    same = mf.run_resumable(
        sharded_input, _build, str(out), config_fingerprint=v1
    )
    assert same["processed"] == 0 and same["skipped"] == 4

    v2 = dict(v1, extractor_version="bumped-2.0")
    bumped = mf.run_resumable(
        sharded_input, _build, str(out), config_fingerprint=v2
    )
    assert bumped["processed"] == 4 and bumped["skipped"] == 0

    # config knobs participate too (e.g. a dedup-mode change)
    v3 = dict(v2, dedup="none")
    knob = mf.run_resumable(
        sharded_input[:1], _build, str(out), config_fingerprint=v3
    )
    assert knob["processed"] == 1


def test_manifest_lineage_fields(ray_session, sharded_input, tmp_path):
    out = tmp_path / "out"
    mf.run_resumable(sharded_input[:1], _build, str(out))
    status = mf.run_status(str(out))
    assert len(status) == 1
    m = status[0]
    assert m["input_paths"] == sorted(sharded_input[0])
    assert m["rows"] == 125
    assert m["failed_rows"] > 0  # the synth corpus contains failure rows
    assert m["wall_sec"] > 0
    assert set(m["hash_columns"]) == {"url", "text"}
    # the output shard dir exists and is readable
    assert (out / f"shard={m['shard_id']}").is_dir()


def test_corrupt_manifest_reprocesses(ray_session, sharded_input, tmp_path):
    out = tmp_path / "out"
    mf.run_resumable(sharded_input[:1], _build, str(out))
    sid = mf.shard_id_for(sharded_input[0])
    mf.manifest_path(str(out), sid).write_text("{corrupt")
    again = mf.run_resumable(sharded_input[:1], _build, str(out))
    assert again["processed"] == 1


def test_interrupted_tmp_dir_cleaned(ray_session, sharded_input, tmp_path):
    out = tmp_path / "out"
    sid = mf.shard_id_for(sharded_input[0])
    stale = mf.shard_out_dir(str(out), sid).with_suffix(".tmp")
    stale.mkdir(parents=True)
    (stale / "junk.parquet").write_bytes(b"junk")
    run = mf.run_resumable(sharded_input[:1], _build, str(out))
    assert run["processed"] == 1
    assert not stale.exists()


def _write_pages_file(path, rows):
    """rows = [(url, ts_us, body_text)] -> a pages-schema parquet."""
    import datetime

    html = [
        (
            "<html><body><p>%s content with plenty of ordinary words "
            "to pass the quality gate easily</p></body></html>" % txt
        ).encode()
        for _, _, txt in rows
    ]
    t = pa.Table.from_pydict(
        {
            "url": [r[0] for r in rows],
            "warc_ts": pa.array(
                [datetime.datetime(2024, 1, 1) + datetime.timedelta(hours=r[1])
                 for r in rows],
                pa.timestamp("us"),
            ),
            "html": pa.array(html, pa.large_binary()),
            "text": ["" for _ in rows],
            "lang": ["en" for _ in rows],
        }
    )
    pq.write_table(t, path)


def test_global_dedup_across_shards(ray_session, tmp_path):
    """Re-crawls split across shards survive per-shard dedup; the
    global pass must leave exactly one row per url (the latest), with
    the same content as a single-shard run."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )

    a, b = tmp_path / "a.parquet", tmp_path / "b.parquet"
    _write_pages_file(
        a, [("http://x/1", 0, "stale first crawl"), ("http://x/2", 0, "two")]
    )
    _write_pages_file(
        b, [("http://x/1", 5, "fresh recrawl"), ("http://x/3", 0, "three")]
    )

    def build(ds):
        return extraction_pipeline(ds, derive_psv=False, concurrency=(1, 2))

    out = tmp_path / "out"
    mf.run_resumable([[str(a)], [str(b)]], build, str(out))
    gd = mf.global_latest_crawl_pass(str(out))
    assert gd["shards_rewritten"] == 1 and gd["rows_removed"] == 1

    import ray.data as rd

    def _read_out(d):
        return rd.read_parquet(
            [
                str(f)
                for p in Path(d).glob("shard=*")
                if p.is_dir()
                for f in sorted(p.glob("*.parquet"))
            ]
        )

    final = _read_out(out).to_pandas()
    assert sorted(final.url) == ["http://x/1", "http://x/2", "http://x/3"]
    assert "fresh recrawl" in final.set_index("url").loc["http://x/1", "text"]

    # idempotent: a second pass rewrites nothing
    again = mf.global_latest_crawl_pass(str(out))
    assert again == {"shards_rewritten": 0, "rows_removed": 0}

    # content parity with a single-shard run (in-pipeline dedup)
    both = tmp_path / "both.parquet"
    _write_pages_file(
        both,
        [
            ("http://x/1", 0, "stale first crawl"),
            ("http://x/2", 0, "two"),
            ("http://x/1", 5, "fresh recrawl"),
            ("http://x/3", 0, "three"),
        ],
    )
    out1 = tmp_path / "out1"
    mf.run_resumable([[str(both)]], build, str(out1))
    h_global = mf.shard_digests(_read_out(out), ["url", "text"]).content_hash
    h_single = mf.shard_digests(_read_out(out1), ["url", "text"]).content_hash
    assert h_global == h_single

    # manifests were updated in place and still validate for resume
    resume = mf.run_resumable([[str(a)], [str(b)]], build, str(out))
    assert resume["processed"] == 0 and resume["skipped"] == 2


def test_manifest_sketch_merges_to_corpus_estimate(
    ray_session, sharded_input, tmp_path
):
    """Per-shard HLL sketches in the manifests merge into a corpus
    distinct-url estimate with no re-scan — and survive resume."""
    out = tmp_path / "out"
    mf.run_resumable(sharded_input, _build, str(out))
    est = mf.run_distinct_estimate(str(out))
    assert est is not None
    assert abs(est - 500) / 500 < 0.1  # HLL p=12 -> ~1.6% typical error

    # skipped-resume keeps the sketches intact
    mf.run_resumable(sharded_input, _build, str(out))
    assert mf.run_distinct_estimate(str(out)) == est


def test_content_hash_order_independent(ray_session):
    """The manifest content hash must not depend on row order."""
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.state.manifest import (
        shard_digests,
    )

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    h1 = shard_digests(docs, ["doc_id", "text"]).content_hash
    shuffled = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).random_shuffle(seed=99)
    h2 = shard_digests(shuffled, ["doc_id", "text"]).content_hash
    assert h1 == h2


def test_watch_picks_up_arriving_files_exactly_once(
    ray_session, tmp_path
):
    """--watch (S5 analogue): files dropped between polls are processed
    exactly once via the manifest anti-join; earlier shard groupings
    never shift when later files arrive; a no-op poll processes
    nothing; an unsettled (too-fresh) file waits for the next poll."""
    import os
    import time

    t = pq.read_table(f"{SF}/documents.parquet")
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    out = tmp_path / "out"

    def drop(name, lo, hi, mtime_ago=120.0):
        p = in_dir / name
        pq.write_table(t.slice(lo, hi - lo), p)
        past = time.time() - mtime_ago
        os.utime(p, (past, past))
        return p

    drop("a.parquet", 0, 100)
    drop("b.parquet", 100, 200)

    polls = []
    arrivals = {2: lambda: drop("c.parquet", 200, 300),
                3: lambda: drop("d_fresh.parquet", 300, 400,
                                mtime_ago=0.0)}

    def on_poll(totals):
        polls.append(totals)
        hook = arrivals.pop(totals["polls"], None)
        if hook:
            hook()

    totals = mf.watch_resumable(
        str(in_dir / "*.parquet"), _build, str(out),
        files_per_shard=2, poll_sec=0.05, settle_sec=60.0,
        max_polls=4, on_poll=on_poll,
    )
    # poll1: a+b -> one shard. poll2: no-op (c arrives after). poll3:
    # c -> its own shard (a+b grouping unchanged); d too fresh. poll4:
    # d still unsettled -> skipped known shards only.
    assert totals["polls"] == 4
    assert polls[0]["processed"] == 1 and polls[0]["rows"] == 200
    assert polls[1]["processed"] == 1  # cumulative: no new work
    assert polls[2]["processed"] == 2 and polls[2]["rows"] == 300
    assert polls[3]["processed"] == 2  # d_fresh never settled
    assert totals["rows"] == 300
    status = mf.run_status(str(out))
    assert len(status) == 2  # [a, b] and [c] — groups never reshuffled
    inputs = sorted(
        tuple(sorted(m["input_fingerprint"].keys())) for m in status
    )
    assert sorted(len(i) for i in inputs) == [1, 2]


def test_compact_shards_preserves_content(ray_session, sharded_input,
                                          tmp_path):
    out = tmp_path / "out"

    def build_many_files(ds):
        # force many small output files per shard: the rows of a wave
        # are shuffled first, so each of the 6 blocks holds rows of
        # every shard (a plain repartition slices blocks contiguously)
        return _build(ds).random_shuffle(seed=0).repartition(6)

    full = mf.run_resumable(sharded_input, build_many_files, str(out))
    assert full["processed"] == 4
    before = {
        d.name: len(list(d.glob("*.parquet")))
        for d in out.glob("shard=*") if d.is_dir()
    }
    assert all(n >= 6 for n in before.values()), before

    summary = mf.compact_shards(str(out), target_bytes=1 << 30)
    assert summary["shards_compacted"] == 4
    assert summary["files_after"] == 4  # one file per shard
    for d in out.glob("shard=*"):
        if d.is_dir():
            assert len(list(d.glob("*.parquet"))) == 1

    # content identical (order-independent hash) and still resumable
    resumed = mf.run_resumable(sharded_input, build_many_files, str(out))
    assert resumed["processed"] == 0 and resumed["skipped"] == 4
    assert resumed["content_hash"] == full["content_hash"]
    assert resumed["rows"] == full["rows"]

    # manifests record the compaction; second pass is a no-op
    m = json.loads(next(out.glob("shard=*.manifest.json")).read_text())
    assert m["compacted"]["files_after"] == 1
    again = mf.compact_shards(str(out), target_bytes=1 << 30)
    assert again["shards_compacted"] == 0
    assert again["shards_skipped"] == 4


def _words(tag: str, n: int = 20) -> str:
    """n distinct ordinary-looking words unique to `tag` (keeps
    background shingle Jaccard between different docs low despite the
    shared html boilerplate in _write_pages_file)."""
    return " ".join(f"{tag}word{i}item" for i in range(n))


def test_global_neardup_guard_incremental(ray_session, tmp_path):
    """Incremental near-content dedup: batch 2's near-copy of a batch-1
    doc is dropped, distinct docs survive, same-url recrawls are NOT
    the guard's business, and the pass is idempotent."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )

    def build(ds):
        return extraction_pipeline(ds, derive_psv=False, concurrency=(1, 2))

    a = tmp_path / "a.parquet"
    _write_pages_file(
        a,
        [("http://x/1", 0, _words("alpha")), ("http://x/2", 0, _words("beta"))],
    )
    out = tmp_path / "out"
    mf.run_resumable([[str(a)]], build, str(out))

    # first guard pass: establishes the base, removes nothing
    g1 = mf.global_neardup_guard(str(out), threshold=0.5)
    assert g1 == {
        "shards_guarded": 1, "shards_rewritten": 0, "rows_removed": 0,
    }

    # batch 2: a near-copy of x/1's content under a NEW url, a fresh
    # distinct doc, and a same-url recrawl of x/1
    near_copy = _words("alpha").replace("alphaword3item", "changed")
    b = tmp_path / "b.parquet"
    _write_pages_file(
        b,
        [
            ("http://x/3", 1, near_copy),
            ("http://x/4", 1, _words("gamma")),
            ("http://x/1", 5, _words("alpha")),
        ],
    )
    r2 = mf.run_resumable([[str(a)], [str(b)]], build, str(out))
    assert r2["processed"] == 1 and r2["skipped"] == 1

    g2 = mf.global_neardup_guard(str(out), threshold=0.5)
    assert g2["shards_guarded"] == 1
    assert g2["shards_rewritten"] == 1
    assert g2["rows_removed"] == 1  # ONLY the near-copy under x/3

    import ray.data as rd

    files = [
        str(f)
        for p in Path(out).glob("shard=*")
        if p.is_dir()
        for f in sorted(p.glob("*.parquet"))
    ]
    final = rd.read_parquet(files).to_pandas()
    # x/3 dropped; x/1 present TWICE (recrawl excluded from the guard —
    # latest-wins is global_latest_crawl_pass's job)
    assert sorted(final.url) == [
        "http://x/1", "http://x/1", "http://x/2", "http://x/4",
    ]

    # idempotent: everything is stamped now
    g3 = mf.global_neardup_guard(str(out), threshold=0.5)
    assert g3 == {
        "shards_guarded": 0, "shards_rewritten": 0, "rows_removed": 0,
    }

    # manifests stayed resume-consistent after the rewrite
    r3 = mf.run_resumable([[str(a)], [str(b)]], build, str(out))
    assert r3["processed"] == 0 and r3["skipped"] == 2
    for m in mf.run_status(str(out)):
        assert m["neardup_guarded"] is True


def _crawl_major_run(tmp_path):
    """Crawl-major layout: shard ``old`` holds only the first crawls of
    x/1 and x/2 (every row loses), shard ``new`` their recrawls, and
    shard ``solo`` a url crawled once (no losers)."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )

    files = {}
    for name, rows in {
        "old": [("http://x/1", 0, _words("one")),
                ("http://x/2", 0, _words("two"))],
        "new": [("http://x/1", 5, _words("oneb")),
                ("http://x/2", 5, _words("twob"))],
        "solo": [("http://x/9", 0, _words("nine"))],
    }.items():
        files[name] = tmp_path / f"{name}.parquet"
        _write_pages_file(files[name], rows)

    def build(ds):
        return extraction_pipeline(ds, derive_psv=False, concurrency=(1, 2))

    shards = [[str(files[n])] for n in ("old", "new", "solo")]
    out = tmp_path / "out"
    mf.run_resumable(shards, build, str(out))
    sids = {n: mf.shard_id_for([str(files[n])]) for n in files}
    return shards, build, out, sids


def test_global_dedup_all_losing_shard_becomes_empty(ray_session, tmp_path):
    import ray.data as rd

    shards, build, out, sids = _crawl_major_run(tmp_path)
    gd = mf.global_latest_crawl_pass(str(out))
    assert gd == {"shards_rewritten": 1, "rows_removed": 2}

    m = json.loads(mf.manifest_path(str(out), sids["old"]).read_text())
    assert m["rows"] == 0 and m["failed_rows"] == 0
    assert m["content_hash"] == 0 and m["global_dedup"] is True
    old_dir = mf.shard_out_dir(str(out), sids["old"])
    new_dir = mf.shard_out_dir(str(out), sids["new"])
    assert rd.read_parquet(str(old_dir)).count() == 0
    assert pq.read_schema(min(old_dir.glob("*.parquet"))).names == (
        pq.read_schema(min(new_dir.glob("*.parquet"))).names
    )
    assert not list(out.glob("*.tmp")) and not list(out.glob("*.old"))

    # the empty shard still validates, and the pass is idempotent
    again = mf.global_latest_crawl_pass(str(out))
    assert again == {"shards_rewritten": 0, "rows_removed": 0}
    resume = mf.run_resumable(shards, build, str(out))
    assert resume["processed"] == 0 and resume["skipped"] == 3
    assert resume["rows"] == 3


def test_global_dedup_leaves_loser_free_shards_untouched(
    ray_session, tmp_path
):
    shards, build, out, sids = _crawl_major_run(tmp_path)

    def snapshot(name):
        sdir = mf.shard_out_dir(str(out), sids[name])
        files = {f.name: f.stat().st_mtime_ns for f in sdir.glob("*.parquet")}
        return files, mf.manifest_path(str(out), sids[name]).read_text()

    before = {n: snapshot(n) for n in ("new", "solo")}
    gd = mf.global_latest_crawl_pass(str(out))
    assert gd["shards_rewritten"] == 1
    for name, (files, manifest) in before.items():
        assert snapshot(name) == (files, manifest), name


def test_global_neardup_guard_fully_flagged_shard(ray_session, tmp_path):
    """An incoming shard whose every doc near-copies the base is
    committed as an empty shard, not left without a directory."""
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )

    def build(ds):
        return extraction_pipeline(ds, derive_psv=False, concurrency=(1, 2))

    a, b = tmp_path / "a.parquet", tmp_path / "b.parquet"
    _write_pages_file(a, [("http://x/1", 0, _words("alpha"))])
    _write_pages_file(
        b, [("http://x/2", 1, _words("alpha").replace("alphaword3", "c"))]
    )
    out = tmp_path / "out"
    mf.run_resumable([[str(a)]], build, str(out))
    mf.global_neardup_guard(str(out), threshold=0.5)
    mf.run_resumable([[str(a)], [str(b)]], build, str(out))

    g = mf.global_neardup_guard(str(out), threshold=0.5)
    assert g == {"shards_guarded": 1, "shards_rewritten": 1, "rows_removed": 1}
    sid = mf.shard_id_for([str(b)])
    m = json.loads(mf.manifest_path(str(out), sid).read_text())
    assert m["rows"] == 0 and m["neardup_guarded"] is True
    assert rd.read_parquet(str(mf.shard_out_dir(str(out), sid))).count() == 0


def _wave_build(ds):
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )

    return extraction_pipeline(ds, derive_psv=False, concurrency=(1, 2))


def _accounting(m):
    return {k: m[k] for k in ("rows", "failed_rows", "content_hash", "sketch")}


def test_wave_commits_an_empty_shard(ray_session, tmp_path):
    """A shard whose build yields no rows is committed as an empty
    shard inside its wave (manifest rows 0); a resume skips both."""
    from zzzarchived_arxiv_fulltext_ray.stages.extract import OUTPUT_SCHEMA

    full, empty = tmp_path / "full.parquet", tmp_path / "empty.parquet"
    _write_pages_file(full, [("http://x/1", 0, _words("one")),
                             ("http://x/2", 0, _words("two"))])
    pq.write_table(pq.read_schema(full).empty_table(), empty)
    shards = [[str(empty)], [str(full)]]
    out = tmp_path / "out"

    run = mf.run_resumable(shards, _wave_build, str(out))
    assert run["processed"] == 2 and run["waves"] == 1 and run["rows"] == 2
    sid = {name: mf.shard_id_for(s) for name, s in zip(("empty", "full"),
                                                         shards)}
    m = json.loads(mf.manifest_path(str(out), sid["empty"]).read_text())
    assert m["rows"] == 0 and m["failed_rows"] == 0 and m["content_hash"] == 0
    assert m["wave"] == {"id": sid["empty"], "shards": 2}
    # committed files carry the build's schema without the shard column
    for name in sid:
        for f in mf.shard_out_dir(str(out), sid[name]).glob("*.parquet"):
            assert pq.read_schema(f).names == OUTPUT_SCHEMA.names, f
    assert not list(out.glob("wave=*"))

    resume = mf.run_resumable(shards, _wave_build, str(out))
    assert resume["processed"] == 0 and resume["skipped"] == 2
    assert resume["waves"] == 0 and resume["rows"] == 2


def test_wave_without_rows_names_its_shards(ray_session, tmp_path):
    empty = tmp_path / "empty.parquet"
    _write_pages_file(tmp_path / "schema.parquet", [("http://x/1", 0, "x")])
    pq.write_table(
        pq.read_schema(tmp_path / "schema.parquet").empty_table(), empty
    )
    sid = mf.shard_id_for([str(empty)])
    with pytest.raises(ValueError, match=sid):
        mf.run_resumable([[str(empty)]], _wave_build, str(tmp_path / "out"))


def test_build_must_keep_the_shard_column(ray_session, tmp_path):
    a = tmp_path / "a.parquet"
    _write_pages_file(a, [("http://x/1", 0, _words("one"))])
    with pytest.raises(ValueError, match="shard_id"):
        mf.run_resumable(
            [[str(a)]],
            lambda ds: _wave_build(ds).drop_columns(["shard_id"]),
            str(tmp_path / "out"),
        )


def test_crash_mid_wave_resumes_byte_identically(
    ray_session, sharded_input, tmp_path, monkeypatch
):
    """The run dies writing the 2nd manifest of a 4-shard wave; the
    resume processes only the 3 shards without a manifest, removes the
    stale wave dir and ends byte-identical to a clean run."""
    clean_out, out = tmp_path / "clean", tmp_path / "out"
    clean = mf.run_resumable(sharded_input, _build, str(clean_out))
    assert clean["waves"] == 1

    write_manifest = mf._write_manifest
    calls = []

    def dying_write(out_dir, manifest):
        calls.append(manifest["shard_id"])
        if len(calls) == 2:
            raise RuntimeError("killed while writing a manifest")
        write_manifest(out_dir, manifest)

    monkeypatch.setattr(mf, "_write_manifest", dying_write)
    with pytest.raises(RuntimeError, match="killed"):
        mf.run_resumable(sharded_input, _build, str(out))
    monkeypatch.setattr(mf, "_write_manifest", write_manifest)
    stale = list(out.glob("wave=*.tmp"))
    assert len(stale) == 1 and len(mf.run_status(str(out))) == 1
    first = mf.manifest_path(str(out), calls[0]).read_text()

    resumed = mf.run_resumable(sharded_input, _build, str(out))
    assert resumed["processed"] == 3 and resumed["skipped"] == 1
    assert resumed["waves"] == 1
    assert not stale[0].exists() and not list(out.glob("wave=*"))
    assert mf.manifest_path(str(out), calls[0]).read_text() == first
    want = {m["shard_id"]: m for m in mf.run_status(str(clean_out))}
    got = {m["shard_id"]: m for m in mf.run_status(str(out))}
    assert got.keys() == want.keys()
    for sid in want:
        assert _accounting(got[sid]) == _accounting(want[sid]), sid
    assert resumed["content_hash"] == clean["content_hash"]
    assert resumed["rows"] == clean["rows"]


@pytest.mark.parametrize("forced", [False, True],
                         ids=["broadcast", "force_partitioned"])
def test_wave_dedup_stays_per_shard(ray_session, tmp_path, monkeypatch,
                                    forced):
    """Every shard of a 4-shard wave accounts exactly as when it runs
    alone — with a url re-crawled inside one shard and two urls
    re-crawled across shards — in both dedup twins."""
    if forced:
        monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    rows = {
        "a": [("http://x/1", 0, _words("one")), ("http://x/1", 2, _words("onea")),
              ("http://x/2", 0, _words("two"))],
        "b": [("http://x/1", 5, _words("oneb")), ("http://x/3", 0, _words("three"))],
        "c": [("http://x/3", 1, _words("threec")), ("http://x/4", 0, _words("four")),
              ("http://x/4", 3, _words("fourc"))],
        "d": [("http://x/5", 0, _words("five"))],
    }
    shards = []
    for name, r in rows.items():
        _write_pages_file(tmp_path / f"{name}.parquet", r)
        shards.append([str(tmp_path / f"{name}.parquet")])

    wave = mf.run_resumable(shards, _wave_build, str(tmp_path / "wave"))
    assert wave["waves"] == 1 and wave["rows"] == 7
    in_wave = {m["shard_id"]: m for m in mf.run_status(str(tmp_path / "wave"))}
    for i, shard in enumerate(shards):
        alone_out = tmp_path / f"alone{i}"
        mf.run_resumable([shard], _wave_build, str(alone_out))
        (alone,) = mf.run_status(str(alone_out))
        assert alone["wave"]["shards"] == 1
        assert _accounting(in_wave[alone["shard_id"]]) == _accounting(alone)


def _committed_accounting(out):
    """Every manifest's accounting, after checking that its ``rows`` and
    ``content_hash`` equal a digest of the shard's files on disk."""
    import ray.data as rd

    got = {}
    for m in mf.run_status(str(out)):
        sdir = mf.shard_out_dir(str(out), m["shard_id"])
        disk = mf.shard_digests(
            rd.read_parquet(str(sdir), partitioning=None), m["hash_columns"]
        )
        assert (m["rows"], m["content_hash"]) == (
            disk.rows, disk.content_hash
        ), m["shard_id"]
        got[m["shard_id"]] = _accounting(m)
    return got


def test_rewrites_keep_the_output_schema(ray_session, tmp_path, monkeypatch):
    """Shards rewritten by the global pass, the neardup guard and
    compaction keep exactly the output columns: Ray must not parse
    ``shard=<sid>`` into a ``shard`` column of the rewritten files.
    The guard stages only the shard holding a near-copy (b), and still
    stamps the incoming shard without one (c)."""
    from zzzarchived_arxiv_fulltext_ray.stages.extract import OUTPUT_SCHEMA

    def build(ds):
        return _wave_build(ds).random_shuffle(seed=0).repartition(4)

    a, b, c = (tmp_path / f"{name}.parquet" for name in "abc")
    _write_pages_file(a, [("http://x/1", 0, _words("one")),
                          ("http://x/2", 0, _words("two"))])
    _write_pages_file(b, [
        ("http://x/3", 1, _words("one").replace("oneword3item", "changed")),
        ("http://x/4", 1, _words("four")),
    ])
    _write_pages_file(c, [("http://x/2", 5, _words("twob")),
                          ("http://x/5", 0, _words("five"))])
    out = tmp_path / "out"
    mf.run_resumable([[str(a)]], build, str(out))
    mf.global_neardup_guard(str(out), threshold=0.5)  # a is the base
    mf.run_resumable([[str(a)], [str(b)], [str(c)]], build, str(out))

    gd = mf.global_latest_crawl_pass(str(out))
    assert gd == {"shards_rewritten": 1, "rows_removed": 1}
    staged, wave = [], mf._rewrite_wave

    def spy(out_dir, manifests, sids, *args):
        staged.append(sorted(sids))
        return wave(out_dir, manifests, sids, *args)

    monkeypatch.setattr(mf, "_rewrite_wave", spy)
    ng = mf.global_neardup_guard(str(out), threshold=0.5)
    monkeypatch.undo()
    assert ng["shards_rewritten"] == 1 and ng["rows_removed"] == 1
    assert staged == [[mf.shard_id_for([str(b)])]]
    sid_c = mf.shard_id_for([str(c)])
    assert json.loads(mf.manifest_path(str(out), sid_c).read_text())[
        "neardup_guarded"]
    assert mf.compact_shards(str(out), target_bytes=1 << 30)[
        "shards_compacted"] >= 1
    files = list(out.glob("shard=*/*.parquet"))
    assert len({f.parent for f in files}) == 3
    for f in files:
        assert pq.read_schema(f).names == OUTPUT_SCHEMA.names, f
    _committed_accounting(out)


@pytest.fixture(scope="module")
def two_loser_run(ray_session, tmp_path_factory):
    """Three finished shards before the global pass, and the accounting
    of a clean pass over a copy: shard a loses x/1 and x/2, b loses x/3,
    c loses nothing."""
    root = tmp_path_factory.mktemp("two_losers")
    shards = []
    for name, rows in {
        "a": [("http://x/1", 0, _words("one")), ("http://x/2", 0, _words("two")),
              ("http://x/9", 0, _words("nine"))],
        "b": [("http://x/1", 5, _words("oneb")),
              ("http://x/3", 0, _words("three"))],
        "c": [("http://x/2", 5, _words("twoc")),
              ("http://x/3", 5, _words("threec")),
              ("http://x/4", 0, _words("four"))],
    }.items():
        _write_pages_file(root / f"{name}.parquet", rows)
        shards.append([str(root / f"{name}.parquet")])
    pristine, clean = root / "pristine", root / "clean"
    mf.run_resumable(shards, _wave_build, str(pristine))
    shutil.copytree(pristine, clean)
    gd = mf.global_latest_crawl_pass(str(clean))
    assert gd == {"shards_rewritten": 2, "rows_removed": 3}
    return shards, pristine, _committed_accounting(clean)


# crash points of a global pass's commit: right after the rename onto
# the named target
_CRASH_AFTER = {
    # new data in shard=<sid>, its manifest not yet updated
    "data_swap": lambda dst: dst.name.startswith("shard=") and not dst.suffix,
    "first_pending": lambda dst: dst.name.endswith(mf.PENDING_SUFFIX),
    # old data set aside, new data not yet in place
    "set_aside": lambda dst: dst.suffix == ".old",
}


@pytest.mark.parametrize("resume_with", ["global_pass", "run_resumable"])
@pytest.mark.parametrize("crash_after", sorted(_CRASH_AFTER))
def test_global_pass_crash_rolls_forward(two_loser_run, tmp_path, monkeypatch,
                                         crash_after, resume_with):
    """A global pass killed inside its commit: the next entry point
    leaves every manifest equal to its shard's files, and the run ends
    with a clean pass's accounting."""
    shards, pristine, clean = two_loser_run
    out = tmp_path / "out"
    shutil.copytree(pristine, out)
    rename = Path.rename

    def dying_rename(self, target):
        moved = rename(self, target)
        if _CRASH_AFTER[crash_after](Path(target)):
            raise RuntimeError("killed after a rename")
        return moved

    monkeypatch.setattr(Path, "rename", dying_rename)
    with pytest.raises(RuntimeError, match="killed"):
        mf.global_latest_crawl_pass(str(out))
    monkeypatch.undo()

    if resume_with == "run_resumable":
        resumed = mf.run_resumable(shards, _wave_build, str(out))
        assert resumed["processed"] == 0 and resumed["skipped"] == 3
    else:
        mf.global_latest_crawl_pass(str(out))
    _committed_accounting(out)
    # a crash before the last pending manifest leaves losers behind
    mf.global_latest_crawl_pass(str(out))
    assert _committed_accounting(out) == clean
    leftovers = [*out.glob("*.tmp"), *out.glob("*.old"),
                 *out.glob(f"*{mf.PENDING_SUFFIX}")]
    assert not leftovers


@pytest.mark.parametrize("resume_with", ["compact_shards", "run_resumable"])
def test_compaction_crash_rolls_forward(ray_session, tmp_path, monkeypatch,
                                        resume_with):
    """Compaction killed between its data swap and its manifest commit:
    the next entry point leaves the crashed shard with its ``compacted``
    block and a manifest equal to its files, and no staging left."""

    def build(ds):
        return _wave_build(ds).random_shuffle(seed=0).repartition(4)

    shards = []
    for name in "ab":
        f = tmp_path / f"{name}.parquet"
        _write_pages_file(f, [(f"http://{name}/{i}", 0, _words(f"{name}{i}"))
                              for i in range(4)])
        shards.append([str(f)])
    out = tmp_path / "out"
    mf.run_resumable(shards, build, str(out))
    rename = Path.rename
    crashed = []

    def dying_rename(self, target):
        moved = rename(self, target)
        if _CRASH_AFTER["data_swap"](Path(target)):
            crashed.append(Path(target).name[len("shard="):])
            raise RuntimeError("killed after a rename")
        return moved

    monkeypatch.setattr(Path, "rename", dying_rename)
    with pytest.raises(RuntimeError, match="killed"):
        mf.compact_shards(str(out), target_bytes=1 << 30)
    monkeypatch.undo()

    if resume_with == "run_resumable":
        resumed = mf.run_resumable(shards, build, str(out))
        assert resumed["processed"] == 0 and resumed["skipped"] == 2
    else:
        assert mf.compact_shards(str(out), target_bytes=1 << 30)[
            "shards_compacted"] == 1
    _committed_accounting(out)
    (sid,) = crashed
    m = json.loads(mf.manifest_path(str(out), sid).read_text())
    assert m["compacted"]["files_after"] == 1
    leftovers = [*out.glob("*.tmp"), *out.glob("*.old"),
                 *out.glob(f"*{mf.PENDING_SUFFIX}")]
    assert not leftovers


def _loser_run(root, n):
    """n shards that each lose one crawl to one shard of recrawls."""
    root.mkdir()
    shards = []
    for i in range(n):
        f = root / f"old{i}.parquet"
        _write_pages_file(f, [(f"http://x/{i}", 0, _words(f"old{i}")),
                              (f"http://y/{i}", 0, _words(f"solo{i}"))])
        shards.append([str(f)])
    f = root / "new.parquet"
    _write_pages_file(
        f, [(f"http://x/{i}", 5, _words(f"new{i}")) for i in range(n)]
    )
    shards.append([str(f)])
    mf.run_resumable(shards, _wave_build, str(root / "out"))
    return root / "out"


def _guard_run(root, n):
    """A guarded base of three docs and n incoming shards that each
    near-copy one of them."""
    root.mkdir()
    base = root / "base.parquet"
    _write_pages_file(
        base, [(f"http://b/{i}", 0, _words(f"doc{i}")) for i in range(3)]
    )
    out = root / "out"
    mf.run_resumable([[str(base)]], _wave_build, str(out))
    mf.global_neardup_guard(str(out), threshold=0.5)
    shards = [[str(base)]]
    for i in range(n):
        f = root / f"in{i}.parquet"
        near = _words(f"doc{i}").replace(f"doc{i}word3item", "changed")
        _write_pages_file(f, [(f"http://n/{i}", 1, near),
                              (f"http://m/{i}", 1, _words(f"new{i}"))])
        shards.append([str(f)])
    mf.run_resumable(shards, _wave_build, str(out))
    return out


# Ray Data executions of one global pass, whatever it rewrites: the
# winner table and the loser-file scan (latest crawl) or the neardup
# counts (guard), then one wave write and one wave digest
PASS_EXECUTIONS = {"latest_crawl": 4, "neardup_guard": 5}


def test_global_passes_run_one_wave(executions, tmp_path):
    """Each global pass runs as many Ray Data executions with three
    shards to rewrite as with one."""
    counts = {}
    for n in (1, 3):
        for name, setup, run in (
            ("latest_crawl", _loser_run, mf.global_latest_crawl_pass),
            ("neardup_guard", _guard_run,
             lambda out: mf.global_neardup_guard(out, threshold=0.5)),
        ):
            out = str(setup(tmp_path / f"{name}{n}", n))
            summary = {}
            counts[name, n] = executions(lambda: summary.update(run(out)))
            assert summary["shards_rewritten"] == n, (name, summary)
            assert summary["rows_removed"] == n, (name, summary)
            _committed_accounting(out)
    for name, want in PASS_EXECUTIONS.items():
        assert counts[name, 1] == counts[name, 3] == want, counts
