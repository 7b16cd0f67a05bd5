"""The flagship extraction pipeline (SURVEY.md §3.4 restatement).

::

    pages (url, warc_ts, html, text, lang)
      -> latest-crawl dedup         (broadcast filter; fuses into the
                                     pool's operator)
      -> sniff_stats_batch          (stateless tasks: kind/size metadata)
      -> ExtractorPool              (actor pool: cascade + PSV/markdown,
                                     drops html)

The one eager step is the dedup's winner pre-pass: a projected
shuffle the driver executes while the graph is built, so its table
size picks the plan and its failure raises before any extraction.
Everything after it streams: no stage materializes the dataset; output
is consumed by ``write_parquet`` (see ``state/manifest.py`` for the
resumable writer) or by the caller's aggregation.
"""

import gc
from typing import Optional, Tuple, Union

from ..stages import dedup as dedup_stage
from ..stages.extract import ExtractorPool, sniff_stats_batch


def extraction_pipeline(
    pages_ds,
    *,
    dedup: Optional[str] = "broadcast",
    concurrency: Union[int, Tuple[int, int], None] = (1, 8),
    batch_size: int = 128,
    derive_psv: bool = True,
    emit_markdown: bool = False,
    giant_threshold_bytes: Optional[int] = None,
    materialize_for_split: bool = True,
    extractor_cls: type = ExtractorPool,
):
    """Build the lazy extraction graph over a pages Dataset.

    ``concurrency``/``batch_size`` size the extraction actor pool: the
    cascade is the CPU bottleneck, so the pool should be allowed to
    scale to most of the node while the stateless stages ride the
    remaining slots. ``dedup=None`` skips the latest-crawl dedup (for
    inputs known unique); ``"shuffle"`` selects the no-broadcast path.
    """
    # Ray Data (2.49) frees a finished run's pool actors by reference
    # counting, and the driver keeps their handles in reference cycles,
    # so those actors hold their CPUs until a cyclic collection. A new
    # pool then waits for those CPUs: measured 15-24 s stalls at 2 CPUs,
    # ended only when the raylet asks every process to collect. Collect
    # now, before this run's pre-pass and pool ask for CPUs.
    gc.collect()
    # dedup first, over the RAW pages stream, so no stage runs on a
    # losing crawl. The winner pre-pass executes now and still reads
    # payload bytes: Ray Data (2.49) pushes no projection into the
    # Parquet read
    ds = pages_ds
    if dedup:
        ds = dedup_stage.latest_crawl(ds, method=dedup)
    ds = ds.map_batches(sniff_stats_batch, batch_format="pyarrow")

    def extract(stream, pool_batch_size, pool_concurrency=None):
        # PSV derivation is fused into the extraction actors: a separate
        # task stage would contend with the pool for cores (it costs
        # more CPU than the cascade itself on text-heavy corpora)
        return stream.map_batches(
            extractor_cls,
            fn_constructor_kwargs={
                "derive_psv": derive_psv,
                "emit_markdown": emit_markdown,
            },
            batch_format="pyarrow",
            batch_size=pool_batch_size,
            concurrency=pool_concurrency or concurrency,
            num_cpus=1,
        )

    if giant_threshold_bytes:
        # A3 skew control: pathological documents ride in their own
        # single-row batches so one multi-MB page never stalls a batch
        # of thousands of small ones. Both branches derive from the
        # same upstream and Ray Data has no common-subexpression
        # reuse, so by default the pre-split stages are MATERIALIZED
        # once into the object store (spill-backed; callers run this
        # per wave of shards, at most 1 GiB of input, cf.
        # state/manifest.run_resumable) instead of
        # re-executing read+dedup-filter+sniff per branch. Pass
        # ``materialize_for_split=False`` to trade the double scan
        # back for zero pinned blocks (unbounded single-pipeline
        # inputs). The per-row watchdog already handles *stuck* rows
        # without any lane; enable the lane only when giant documents
        # are legitimate work costing minutes each.
        import pyarrow.compute as pc

        if materialize_for_split:
            ds = ds.materialize()

        def smalls(batch):
            return batch.filter(
                pc.less_equal(batch["n_bytes"], giant_threshold_bytes)
            )

        def giants(batch):
            return batch.filter(
                pc.greater(batch["n_bytes"], giant_threshold_bytes)
            )

        small_ds = extract(
            ds.map_batches(smalls, batch_format="pyarrow"), batch_size
        )
        # giants are rare by definition: a SMALL dedicated pool — a
        # second full-size pool would double-reserve the node's CPUs
        # and starve the task stages
        giant_ds = extract(
            ds.map_batches(giants, batch_format="pyarrow"), 1,
            pool_concurrency=(1, 2),
        )
        return small_ds.union(giant_ds)

    return extract(ds, batch_size)


def run_metrics(extracted_ds) -> dict:
    """Run-level metrics over the extraction output (SURVEY.md A2):
    row counts by status + bytes processed, as a small dict
    (the keyless ``stages/aggregate.py``)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.aggregate import aggregate

    def rows(batch: pa.Table) -> pa.Table:
        ok = pc.fill_null(
            pc.equal(batch["status"], "succeeded").cast(pa.int64()), 0
        )
        return pa.table(
            {
                "ok": ok,
                "failed": pc.subtract(1, ok),
                "bytes": pc.fill_null(batch["n_bytes"], 0),
            }
        )

    return aggregate(
        extracted_ds,
        [],
        [
            ("rows", "count", None),
            ("ok", "sum", "ok"),
            ("failed", "sum", "failed"),
            ("bytes", "sum", "bytes"),
        ],
        rows=rows,
    )
