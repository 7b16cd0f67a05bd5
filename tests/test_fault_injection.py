"""Fault-injection witnesses: a live extraction actor dies MID-RUN and
the pipeline still produces byte-identical output.

This is the Ray analogue of the reference's Celery acks-late redelivery
(reference fulltext/config.py:335-342: a task whose worker dies before
ack is redelivered to another worker). In Ray Data the same contract is
provided by the streaming executor: when an actor-pool worker dies, the
in-flight batch fails with a SYSTEM_ERROR and is resubmitted to a
restarted/other actor. These tests pin that behavior end-to-end:

- ``test_actor_death_mid_run``: one actor ``os._exit(1)``s mid-batch
  (deterministic, exactly once, coordinated via an O_EXCL flag file).
- ``test_ray_kill_actor_mid_run``: the driver ``ray.kill``s a live pool
  actor found via ``ray.util.state.list_actors`` while the stream runs.
- ``test_actor_death_during_resumable_write``: the crash happens inside
  a ``run_resumable`` shard; the manifest + shard digests must match a
  clean run exactly (resume metadata is not corrupted by the retry).

All three assert the order-independent content hash of ``shard_digests``
over (url, status, text) equals a clean run's hash.
"""

import os
import threading
import time

import pytest

from zzzarchived_arxiv_fulltext_ray.state import manifest as mf

SF = "/root/testdata/sf0.001"
HASH_COLS = ["url", "status", "text"]


def _clean_hash():
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    ds = extraction_pipeline(read_pages(SF), derive_psv=False)
    return mf.shard_digests(ds, HASH_COLS).content_hash


def _crash_once_cls(flag_path: str, sleep_per_batch: float = 0.0):
    """Extractor subclass whose FIRST actor to grab the O_EXCL flag
    kills its own worker process mid-batch (defined in-function so
    cloudpickle ships it by value to the workers)."""
    from zzzarchived_arxiv_fulltext_ray.stages.extract import ExtractorPool

    class CrashOnceExtractorPool(ExtractorPool):
        def __call__(self, batch):
            try:
                fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                # hard process death — same failure class as OOM-kill /
                # SIGKILL; nothing is flushed, no ack reaches the driver
                os._exit(1)
            except FileExistsError:
                pass
            if sleep_per_batch:
                time.sleep(sleep_per_batch)
            return super().__call__(batch)

    return CrashOnceExtractorPool


def test_actor_death_mid_run(ray_session, tmp_path):
    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    flag = str(tmp_path / "crash.flag")
    crashy = extraction_pipeline(
        read_pages(SF),
        derive_psv=False,
        extractor_cls=_crash_once_cls(flag),
        concurrency=(1, 2),
        batch_size=64,  # several batches -> the retry is mid-stream
    )
    h_crash = mf.shard_digests(crashy, HASH_COLS).content_hash
    assert os.path.exists(flag), "the fault was never injected"
    assert h_crash == _clean_hash()


def test_ray_kill_actor_mid_run(ray_session, tmp_path):
    """Driver-side ray.kill of a live pool actor during execution."""
    import ray
    import ray._private.state as ray_state

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages
    from zzzarchived_arxiv_fulltext_ray.stages.extract import ExtractorPool

    class SlowExtractorPool(ExtractorPool):
        """Stretch the run so the killer thread has a live target."""

        def __call__(self, batch):
            time.sleep(0.2)
            return super().__call__(batch)

    killed = threading.Event()

    def _handle_from_id(actor_id_hex: str):
        from ray._private.worker import global_worker
        from ray._raylet import ActorID

        return global_worker.core_worker.get_actor_handle(
            ActorID(bytes.fromhex(actor_id_hex))
        )

    def killer():
        # GCS actor table (the state API needs the dashboard, which the
        # test cluster runs without)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not killed.is_set():
            for aid, info in ray_state.actors().items():
                if info.get("State") == "ALIVE" and "SlowExtractorPool" in (
                    info.get("ActorClassName") or ""
                ):
                    try:
                        ray.kill(_handle_from_id(aid), no_restart=False)
                        killed.set()
                        return
                    except Exception:
                        pass
            time.sleep(0.1)

    t = threading.Thread(target=killer, daemon=True)
    t.start()
    ds = extraction_pipeline(
        read_pages(SF),
        derive_psv=False,
        extractor_cls=SlowExtractorPool,
        concurrency=(1, 2),
        batch_size=64,
    )
    h = mf.shard_digests(ds, HASH_COLS).content_hash
    t.join(timeout=5)
    assert killed.is_set(), "no live extraction actor was ever killed"
    assert h == _clean_hash()


def test_actor_death_during_resumable_write(ray_session, tmp_path):
    """The crash lands inside a run_resumable shard: output parquet,
    per-shard digests and the run content hash must match a clean run
    (the retried batch does not double-write or corrupt the manifest)."""
    import pyarrow.parquet as pq

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import (
        pages_batch_from_documents,
    )

    t = pq.read_table(f"{SF}/documents.parquet")
    shards = []
    for i in range(4):
        p = tmp_path / f"in_{i}.parquet"
        pq.write_table(t.slice(i * 125, 125), p)
        shards.append([str(p)])

    def build_clean(ds):
        pages = ds.map_batches(
            pages_batch_from_documents, batch_format="pyarrow"
        )
        return extraction_pipeline(
            pages, derive_psv=False, concurrency=(1, 2), batch_size=32
        )

    flag = str(tmp_path / "crash.flag")

    def build_crashy(ds):
        pages = ds.map_batches(
            pages_batch_from_documents, batch_format="pyarrow"
        )
        return extraction_pipeline(
            pages,
            derive_psv=False,
            extractor_cls=_crash_once_cls(flag),
            concurrency=(1, 2),
            batch_size=32,
        )

    clean = mf.run_resumable(
        shards, build_clean, str(tmp_path / "out_clean")
    )
    crashy = mf.run_resumable(
        shards, build_crashy, str(tmp_path / "out_crash")
    )
    assert os.path.exists(flag), "the fault was never injected"
    assert crashy["processed"] == 4 and crashy["failed_rows"] == clean[
        "failed_rows"
    ]
    assert crashy["rows"] == clean["rows"]
    assert crashy["content_hash"] == clean["content_hash"]
    # resume over the crashed-run output is a pure no-op
    resumed = mf.run_resumable(
        shards, build_crashy, str(tmp_path / "out_crash")
    )
    assert resumed["processed"] == 0 and resumed["skipped"] == 4
    assert resumed["content_hash"] == clean["content_hash"]
