"""Cluster job entry point: the flagship extraction run, resumable.

Launch on a cluster:
    ray job submit --working-dir . -- python scripts/run_job.py \
        --input '/data/pages/*.parquet' --out /data/extracted

Sandbox (single node):
    python scripts/run_job.py --input '/tmp/graft_bench/pages_sf0.1_E20_R32/*.parquet' \
        --out /tmp/graft_job_out --files-per-shard 8

The job shards its input files and runs the not-done shards in waves
(state/manifest.py): consecutive shards, up to 64 shards or 1 GiB of
input, go through the extraction pipeline as one Ray Data execution —
one winner pre-pass, one warm extraction actor pool, one write
partitioned by shard — and one digest pass. Each shard is still
committed to its own directory with its own lineage manifest, so a
re-submitted job resumes where the previous one stopped; a crash loses
only the shards of one wave whose manifests were not yet written.

Input may be the Parquet pages table OR raw crawl segments: a glob of
``.warc`` / ``.warc.gz`` files (auto-detected, or forced with
``--input-format warc``) streams through the chunked WARC datasource
(sources/warc_source.py) into the same pipeline — the reference's real
ingest format (SURVEY S1), resumable per WARC shard.

Dedup scope: latest-crawl dedup runs WITHIN each shard during
processing, also inside a wave (winners are keyed by shard and url). Pass ``--global-dedup`` to follow with a second-pass
winner resolution across ALL shard outputs (rewrites only shards
holding losing rows, all in one rewrite wave, and commits their
manifests write-ahead, so a crash mid-pass is rolled forward by the
next run) — use it whenever re-crawls of a url may be split across
shards. Without it, co-locate
re-crawls per shard (crawl dumps are naturally grouped per segment)
or submit with --dedup none and dedup downstream.

Resume is extractor-version-aware: manifests record a config
fingerprint (extractor version + dedup mode); a version bump
reprocesses every shard instead of serving stale text.
"""

import argparse
import glob
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def detect_input_format(files, requested="auto"):
    """Resolve --input-format: 'auto' maps to 'warc' iff EVERY input
    file carries a .warc/.warc.gz extension (mixing is an error, not a
    guess); anything else is the parquet pages table."""
    if requested != "auto":
        return requested
    if not files:
        return "parquet"
    n_warc = sum(
        f.endswith(".warc") or f.endswith(".warc.gz") for f in files
    )
    if n_warc == len(files):
        return "warc"
    if n_warc:
        raise SystemExit(
            "input mixes WARC and non-WARC files; pass an explicit "
            "--input-format (matched {} WARC of {} files)".format(
                n_warc, len(files)
            )
        )
    return "parquet"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="glob of input files: pages parquet, or raw "
                         "crawl segments (.warc / .warc.gz)")
    ap.add_argument("--input-format", default="auto",
                    choices=["auto", "parquet", "warc"],
                    help="'auto' detects WARC by file extension; 'warc' "
                         "streams crawl segments through the chunked "
                         "WARC datasource (sources/warc_source.py) "
                         "instead of read_parquet")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--files-per-shard", type=int, default=16)
    ap.add_argument("--concurrency", type=int, default=0,
                    help="extraction actors (default: 3/4 of CPUs)")
    ap.add_argument("--batch-size", type=int, default=128)
    # OFF by default: the giant lane derives a second branch from the
    # same upstream and Ray Data has no common-subexpression reuse, so
    # enabling it re-scans read+dedup+sniff (a measured double scan).
    # The per-row 600 s watchdog in ExtractorPool already converts
    # pathological documents into failed rows; reserve the lane for
    # corpora where individual documents legitimately cost minutes.
    ap.add_argument("--emit-markdown", action="store_true",
                    help="add a markdown column (HTML payloads only; "
                         "functions/markdown.py rendering contract)")
    ap.add_argument("--giant-threshold", type=int, default=0,
                    help="bytes; >0 routes larger payloads to a "
                         "dedicated single-row-batch actor lane "
                         "(costs a second scan of read+dedup+sniff)")
    ap.add_argument("--dedup", default="broadcast",
                    choices=["broadcast", "shuffle", "none"])
    ap.add_argument("--global-dedup", action="store_true",
                    help="second-pass latest-crawl winner resolution "
                         "across shards after all shards finish; the "
                         "shards holding losing crawls are rewritten in "
                         "one wave with a crash-safe commit")
    ap.add_argument("--neardup-guard", type=float, default=0.0,
                    help=">0 runs a post-pass dropping newly ingested "
                         "docs whose shingle Jaccard vs the already-"
                         "guarded base corpus >= this threshold "
                         "(incremental near-content dedup; first run "
                         "stamps the base). Run with --global-dedup so "
                         "recrawls resolve by latest-wins first.")
    ap.add_argument("--compact-target-mb", type=int, default=0,
                    help=">0 runs a post-pass merging each shard's "
                         "small parquet files into ~N MiB files "
                         "(hash-verified, atomic swap per shard)")
    ap.add_argument("--watch", action="store_true",
                    help="continuous ingest: keep polling --input and "
                         "process newly arrived (settled) files via the "
                         "manifest anti-join; run until interrupted or "
                         "--watch-max-polls")
    ap.add_argument("--poll-sec", type=float, default=30.0)
    ap.add_argument("--watch-max-polls", type=int, default=0,
                    help="stop after N polls (0 = forever)")
    ap.add_argument("--shard-by", default="files", choices=["files", "dir"],
                    help="'files': group N input files per shard. "
                         "'dir': each immediate parent directory is one "
                         "shard — use over a url-hash-partitioned layout "
                         "(stages/dedup.partition_pages_by_url), where "
                         "per-shard dedup is globally correct by "
                         "construction and --global-dedup is unnecessary")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # under `ray job submit` the address comes from the environment;
        # standalone it starts a local session
        ray.init(address="auto" if "RAY_ADDRESS" in __import__("os").environ
                 else "local",
                 include_dashboard=False, logging_level="ERROR",
                 ignore_reinit_error=True)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.state import manifest as mf

    files = sorted(glob.glob(args.input))
    if not files and not args.watch:
        raise SystemExit(f"no input files match {args.input}")

    input_format = detect_input_format(files, args.input_format)

    if input_format == "warc" and files:
        # fail FAST: a WARC file starts with "WARC/" (or gzip magic for
        # .warc.gz — Common Crawl's member-per-record layout)
        with open(files[0], "rb") as fh:
            head = fh.read(5)
        if not (head.startswith(b"WARC/") or head[:2] == b"\x1f\x8b"):
            raise SystemExit(
                f"input {files[0]} is not a WARC file "
                f"(starts with {head!r})"
            )
    if input_format == "parquet" and files:
        # fail FAST on a non-pages input (the pipeline would otherwise
        # die mid-stream with a raw batch dump): check the first
        # fragment's parquet schema for the pages contract
        import pyarrow.dataset as pds

        try:
            found = set(pds.dataset(files[0], format="parquet").schema.names)
        except Exception as exc:  # unreadable input
            raise SystemExit(f"cannot read {files[0]}: {exc}")
        need = {"url", "warc_ts", "html"}
        if not need <= found:
            raise SystemExit(
                f"input {files[0]} is not a pages table: missing columns "
                f"{sorted(need - found)} (have {sorted(found)}). Expected "
                "the Common-Crawl-style schema (url, warc_ts, html, ...)."
            )
    if args.shard_by == "dir":
        by_dir = {}
        for f in files:
            by_dir.setdefault(str(Path(f).parent), []).append(f)
        shards = [sorted(v) for _, v in sorted(by_dir.items())]
    else:
        shards = mf.shard_input_files(files, args.files_per_shard)

    read_fn = None
    if input_format == "warc":
        from zzzarchived_arxiv_fulltext_ray.sources.warc_source import (
            read_pages_from_warc_stream,
        )

        read_fn = lambda paths: read_pages_from_warc_stream(list(paths))  # noqa: E731

    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    concurrency = args.concurrency or max(1, n_cpus * 3 // 4)

    def build(ds):
        return extraction_pipeline(
            ds,
            dedup=None if args.dedup == "none" else args.dedup,
            concurrency=concurrency,
            batch_size=args.batch_size,
            emit_markdown=bool(args.emit_markdown),
            giant_threshold_bytes=args.giant_threshold or None,
        )

    t0 = time.time()
    fingerprint = mf.default_config_fingerprint(
        dedup=args.dedup, global_dedup=bool(args.global_dedup),
        input_format=input_format,
        neardup_guard=args.neardup_guard or False,
        emit_markdown=bool(args.emit_markdown),
    )
    if args.watch:
        if args.shard_by == "dir":
            raise SystemExit("--watch supports --shard-by files only")
        summary = mf.watch_resumable(
            args.input, build, args.out,
            files_per_shard=args.files_per_shard,
            poll_sec=args.poll_sec,
            max_polls=args.watch_max_polls or None,
            config_fingerprint=fingerprint,
            read_fn=read_fn,
            on_poll=lambda t: print(json.dumps({"poll": t}), flush=True),
        )
    else:
        summary = mf.run_resumable(
            shards, build, args.out, config_fingerprint=fingerprint,
            read_fn=read_fn,
        )
    if args.global_dedup:
        gd = mf.global_latest_crawl_pass(args.out)
        summary["global_dedup"] = gd
        summary["rows"] -= gd["rows_removed"]
    if args.neardup_guard > 0:
        ng = mf.global_neardup_guard(args.out, threshold=args.neardup_guard)
        summary["neardup_guard"] = ng
        summary["rows"] -= ng["rows_removed"]
    if args.compact_target_mb > 0:
        summary["compaction"] = mf.compact_shards(
            args.out, target_bytes=args.compact_target_mb * 1024 * 1024
        )
    summary["wall_sec"] = round(time.time() - t0, 1)
    summary["docs_per_sec"] = (
        round(summary["rows"] / summary["wall_sec"], 1)
        if summary["processed"] and summary["wall_sec"] > 0
        else None
    )
    summary["shards"] = len(shards)
    summary["cpus"] = n_cpus
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
