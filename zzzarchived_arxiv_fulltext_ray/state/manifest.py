"""Resumable, manifest-checkpointed pipeline runs (SURVEY.md §4.2).

The unit of resumability is an input *shard* (one or more input Parquet
files). Each shard is committed to its own output directory by a rename
and accounted by ONE read of the committed directory, which yields
every figure the manifest JSON records with the lineage:

* lineage: shard id (stable hash of the input paths — independent of
  cluster size, so a 4N-node resume sees the same shards), input paths,
  input fingerprint (size+mtime per file)
* metrics: output rows, failed rows, wall seconds, HLL url sketch
* integrity: an order-independent content hash (sum of per-row
  blake2b(url, text) digests mod 2^64) so a resumed run can be checked
  byte-equivalent to a clean one

``run_resumable`` processes the not-done shards in *waves*: consecutive
shards, in order, up to ``WAVE_MAX_BYTES`` of input and
``WAVE_MAX_SHARDS`` shards. A wave is one Ray Data execution that
extracts every shard with one warm ``ExtractorPool`` and writes them
partitioned by ``shard_id`` (plus its winner pre-pass), and one
execution that digests every shard; the shards are then renamed into
place and their manifests written one by one, in order.

The rewrites of finished shards — the cross-shard passes that remove
rows (:func:`global_latest_crawl_pass` rewrites only shards holding
losing crawls; :func:`global_neardup_guard`) and :func:`compact_shards`
— go through one commit path (``_commit_shard``: tmp write, one digest,
rename-aside swap). Every manifest goes through one writer.

``run_resumable`` skips shards whose manifest exists, whose input
fingerprint still matches AND whose config fingerprint (extractor
version + pipeline knobs) still matches — re-running after a crash (or
with new input files dropped in) processes exactly the missing work,
and bumping ``EXTRACTOR_VERSION`` (or any config in the fingerprint)
lazily re-extracts everything, mirroring the reference's
version-namespaced store (``fulltext/services/store/store.py:130-165``)
on top of its skip-if-output-exists resume
(``extractor/fulltext/fulltext.py:239-242``) and placeholder-based
work dedup (``fulltext/extract.py:89-107``).

Resume stays per shard: a crash inside a wave loses only the shards of
that wave whose manifests were not yet written, at most
``WAVE_MAX_BYTES`` of input. Each wave pays the fixed cost of its Ray
Data executions and actor pool once, not once per shard.
"""

import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence
)

import pyarrow as pa

from .. import EXTRACTOR_VERSION, SHARD_COLUMN

MANIFEST_SUFFIX = ".manifest.json"
_HASH_MOD = 1 << 64
# a wave (run_resumable) holds at most this much input and this many
# shards, and always at least one shard
WAVE_MAX_BYTES = 1 << 30
WAVE_MAX_SHARDS = 64


def default_config_fingerprint(**extra) -> Dict:
    """The config identity a shard output is valid FOR: extractor
    version plus any pipeline knobs the caller passes (dedup method,
    giant threshold, ...). Stored in the manifest; a mismatch on
    resume invalidates the shard."""
    fp = {"extractor_version": EXTRACTOR_VERSION}
    fp.update(extra)
    return fp


def shard_id_for(paths: Sequence[str]) -> str:
    digest = hashlib.sha256("\n".join(sorted(paths)).encode()).hexdigest()
    return digest[:12]


def input_fingerprint(paths: Sequence[str]) -> Dict[str, List[int]]:
    fp = {}
    for p in sorted(paths):
        st = Path(p).stat()
        fp[p] = [st.st_size, int(st.st_mtime)]
    return fp


def shard_input_files(
    paths: Iterable[str], files_per_shard: int = 1
) -> List[List[str]]:
    """Group input files into shards (stable order)."""
    ordered = sorted(paths)
    return [
        ordered[i : i + files_per_shard]
        for i in range(0, len(ordered), files_per_shard)
    ]


def content_hash_batch(batch: pa.Table, columns: Sequence[str]) -> int:
    """Order-independent partial content hash of a batch."""
    total = 0
    arrays = [batch[c].to_pylist() for c in columns]
    for values in zip(*arrays):
        h = hashlib.blake2b(digest_size=8)
        for v in values:
            h.update(repr(v).encode())
            h.update(b"\x1f")
        total = (total + int.from_bytes(h.digest(), "big")) % _HASH_MOD
    return total


class ShardDigest(NamedTuple):
    """A shard output's accounting, from one pass over its rows."""

    rows: int
    failed_rows: int
    content_hash: int
    sketch: Optional[str]  # base64 HLL registers, None without a column


def shard_digests(
    ds, hash_columns: Sequence[str], sketch_column: Optional[str] = None
) -> ShardDigest:
    """The one accounting pass over a shard's output: row count,
    ``status == "failed"`` count (when the rows have a ``status``
    column), the order-independent content hash and, with
    ``sketch_column``, an HLL distinct sketch of that column — the
    mergeable per-shard state. Distributed partials; the driver folds
    three integers and one 4 KiB register array per batch."""
    return _keyed_digests({"": ds}, hash_columns, sketch_column)[""]


def _keyed_digests(
    datasets: Dict[str, object],
    hash_columns: Sequence[str],
    sketch_column: Optional[str] = None,
) -> Dict[str, ShardDigest]:
    """:func:`shard_digests` of several datasets in ONE execution: each
    dataset's partials carry its key, the union of them is folded per
    key."""
    import base64

    import pyarrow.compute as pc

    from ..functions.sketches import HyperLogLog

    def partial_of(key: str):
        def partial(batch: pa.Table) -> pa.Table:
            failed = 0
            if "status" in batch.column_names:
                failed = pc.sum(
                    pc.equal(batch["status"], "failed").cast(pa.int64())
                ).as_py() or 0
            cols = {
                "key": pa.array([key], pa.string()),
                "rows": pa.array([batch.num_rows], pa.int64()),
                "failed": pa.array([failed], pa.int64()),
                "h": pa.array(
                    [content_hash_batch(batch, hash_columns)], pa.uint64()
                ),
            }
            if sketch_column is not None:
                hll = HyperLogLog()
                hll.add_values(
                    str(v) for v in batch[sketch_column].to_pylist()
                )
                cols["hll"] = pa.array([hll.serialize()], pa.large_binary())
            return pa.Table.from_pydict(cols)

        return partial

    first, *rest = [
        ds.map_batches(partial_of(key), batch_format="pyarrow")
        for key, ds in datasets.items()
    ]
    # key -> [rows, failed, content hash, merged HLL or None]
    acc = {
        key: [0, 0, 0, HyperLogLog() if sketch_column is not None else None]
        for key in datasets
    }
    for b in (first.union(*rest) if rest else first).iter_batches(
        batch_format="pyarrow"
    ):
        blobs = (
            b["hll"].to_pylist() if sketch_column is not None
            else [None] * b.num_rows
        )
        for key, rows, failed, h, blob in zip(
            b["key"].to_pylist(), b["rows"].to_pylist(),
            b["failed"].to_pylist(), b["h"].to_pylist(), blobs,
        ):
            a = acc[key]
            a[0] += rows
            a[1] += failed
            a[2] = (a[2] + h) % _HASH_MOD
            if blob is not None:
                a[3] = a[3].merge(HyperLogLog.deserialize(blob))
    return {
        key: ShardDigest(
            rows, failed, total,
            merged and base64.b64encode(merged.serialize()).decode(),
        )
        for key, (rows, failed, total, merged) in acc.items()
    }


def run_distinct_estimate(out_dir: str) -> Optional[float]:
    """Corpus-level distinct estimate by merging the per-shard HLL
    sketches out of the manifests — no data re-scan. Returns None when
    no shard carries a sketch."""
    import base64

    from ..functions.sketches import HyperLogLog

    merged = None
    for m in run_status(out_dir):
        blob = (m.get("sketch") or {}).get("hll")
        if not blob:
            continue
        hll = HyperLogLog.deserialize(base64.b64decode(blob))
        merged = hll if merged is None else merged.merge(hll)
    return merged.estimate() if merged is not None else None


def manifest_path(out_dir: str, shard_id: str) -> Path:
    return Path(out_dir) / f"shard={shard_id}{MANIFEST_SUFFIX}"


def shard_out_dir(out_dir: str, shard_id: str) -> Path:
    return Path(out_dir) / f"shard={shard_id}"


def _write_manifest(out_dir: str, manifest: Dict) -> None:
    """Write ``*.tmp``, then rename it over the shard's manifest: a
    reader sees the old or the new manifest, never a torn one."""
    mpath = manifest_path(out_dir, manifest["shard_id"])
    mtmp = mpath.with_suffix(".tmp")
    mtmp.write_text(json.dumps(manifest, indent=1))
    mtmp.rename(mpath)


def _commit_shard(
    ds,
    sdir: Path,
    hash_columns: Sequence[str],
    accept: Callable[[ShardDigest], bool],
) -> Optional[ShardDigest]:
    """The one way a finished shard's output is rewritten and accounted:
    write ``ds`` to ``<shard>.tmp`` and digest it there. Ray writes no
    directory for zero rows, so a rewrite that removes every row is
    committed as one zero-row Parquet file with the shard's schema.
    Unless ``accept(digest)`` rejects it (tmp discarded, returns None),
    a rename-aside swap via ``<shard>.old`` replaces the shard
    directory."""
    import pyarrow.parquet as pq
    import ray.data as rd

    tmp_dir, old_dir = sdir.with_suffix(".tmp"), sdir.with_suffix(".old")
    for stale in (tmp_dir, old_dir):
        if stale.exists():
            shutil.rmtree(stale)
    ds.write_parquet(str(tmp_dir))
    if not any(tmp_dir.glob("*.parquet")):
        schema = pq.read_schema(min(sdir.glob("*.parquet")))
        tmp_dir.mkdir(exist_ok=True)
        pq.write_table(schema.empty_table(), tmp_dir / "empty.parquet")

    digest = shard_digests(rd.read_parquet(str(tmp_dir)), hash_columns)
    if not accept(digest):
        shutil.rmtree(tmp_dir)
        return None
    sdir.rename(old_dir)
    tmp_dir.rename(sdir)
    shutil.rmtree(old_dir)
    return digest


def is_shard_done(
    out_dir: str,
    shard: Sequence[str],
    config_fingerprint: Optional[Dict] = None,
) -> bool:
    """Manifest present, input unchanged, output dir present, and (when
    given) produced under the same config fingerprint — a version bump
    re-extracts instead of serving stale text."""
    sid = shard_id_for(shard)
    mpath = manifest_path(out_dir, sid)
    if not mpath.exists() or not shard_out_dir(out_dir, sid).exists():
        return False
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError:
        return False
    if manifest.get("input_fingerprint") != input_fingerprint(shard):
        return False
    if config_fingerprint is not None:
        return manifest.get("config_fingerprint") == config_fingerprint
    return True


def _waves(shards: Sequence[Sequence[str]]) -> List[List[Sequence[str]]]:
    """``shards`` in order, cut into waves of at most
    ``WAVE_MAX_SHARDS`` shards and ``WAVE_MAX_BYTES`` input bytes; a
    shard larger than the byte bound is a wave of its own."""
    waves: List[List[Sequence[str]]] = []
    size = 0
    for shard in shards:
        n = sum(Path(p).stat().st_size for p in shard)
        if (not waves or len(waves[-1]) == WAVE_MAX_SHARDS
                or size + n > WAVE_MAX_BYTES):
            waves.append([])
            size = 0
        waves[-1].append(shard)
        size += n
    return waves


def _tag_shard(sid: str) -> Callable[[pa.Table], pa.Table]:
    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            SHARD_COLUMN, pa.array([sid] * batch.num_rows, pa.string())
        )

    return tag


def _run_wave(
    wave: Sequence[Sequence[str]],
    build: Callable,
    out_dir: str,
    read_fn: Callable,
    config_fingerprint: Dict,
    hash_columns: Sequence[str],
    sketch_column: Optional[str],
) -> List[Dict]:
    """Extract, commit and account one wave of not-done shards; returns
    their manifests, written in shard order.

    Every shard's rows are tagged with its ``shard_id`` and ``build``
    runs ONCE over the union, so the wave shares one winner pre-pass and
    one ``ExtractorPool``; the build must carry the column through to
    its output. One partitioned write lands ``shard_id=<sid>/`` dirs in
    the wave's tmp dir (the column itself is not in the files); each is
    renamed to ``shard=<sid>``, a shard with no rows getting one
    zero-row file, and one execution digests every committed dir."""
    import pyarrow.parquet as pq
    import ray.data as rd

    started = time.time()
    sids = [shard_id_for(shard) for shard in wave]
    tmp = Path(out_dir) / f"wave={sids[0]}.tmp"
    first, *rest = [
        read_fn(shard).map_batches(_tag_shard(sid), batch_format="pyarrow")
        for shard, sid in zip(wave, sids)
    ]
    try:
        build(first.union(*rest) if rest else first).write_parquet(
            str(tmp), partition_cols=[SHARD_COLUMN]
        )
    except KeyError as exc:
        if SHARD_COLUMN not in str(exc):
            raise
        raise ValueError(
            f"run_resumable: the build's output has no {SHARD_COLUMN!r} "
            "column; a build must keep its input's shard_id column on "
            "every output row"
        ) from exc

    written = sorted(tmp.glob(f"{SHARD_COLUMN}=*/*.parquet"))
    if not written:
        raise ValueError(f"wave of shards {sids}: the build produced no rows")
    schema = pq.read_schema(written[0])
    for f in written:
        found = pq.read_schema(f)
        if SHARD_COLUMN in found.names or not found.equals(schema):
            raise RuntimeError(f"{f}: schema {found} differs from {schema}")

    for sid in sids:
        part = tmp / f"{SHARD_COLUMN}={sid}"
        if not part.exists():  # the shard's build yielded no rows
            part.mkdir(parents=True)
            pq.write_table(schema.empty_table(), part / "empty.parquet")
        sdir = shard_out_dir(out_dir, sid)
        for stale in (sdir, sdir.with_suffix(".tmp"), sdir.with_suffix(".old")):
            if stale.exists():
                shutil.rmtree(stale)
        part.rename(sdir)

    digests = _keyed_digests(
        {sid: rd.read_parquet(str(shard_out_dir(out_dir, sid)))
         for sid in sids},
        hash_columns,
        sketch_column,
    )
    manifests = []
    for shard, sid in zip(wave, sids):
        digest = digests[sid]
        ended = time.time()
        manifest = {
            "shard_id": sid,
            "input_paths": sorted(shard),
            "input_fingerprint": input_fingerprint(shard),
            "config_fingerprint": config_fingerprint,
            "rows": digest.rows,
            "failed_rows": digest.failed_rows,
            "content_hash": digest.content_hash,
            "hash_columns": list(hash_columns),
            "sketch": (
                {"column": sketch_column, "hll": digest.sketch}
                if digest.sketch
                else None
            ),
            "started": started,
            "ended": ended,
            "wall_sec": round(ended - started, 3),
            "wave": {"id": sids[0], "shards": len(sids)},
        }
        _write_manifest(out_dir, manifest)
        manifests.append(manifest)
    # a leftover wave dir marks a wave whose manifests were not all
    # written; the next run removes it
    shutil.rmtree(tmp)
    return manifests


def run_resumable(
    input_shards: Sequence[Sequence[str]],
    build: Callable,
    out_dir: str,
    hash_columns: Sequence[str] = ("url", "text"),
    read_fn: Optional[Callable] = None,
    config_fingerprint: Optional[Dict] = None,
    sketch_column: Optional[str] = "__first_hash_column__",
) -> Dict:
    """Process every not-yet-done shard, in waves (module docstring):
    read -> build(ds) -> partitioned write, rename + manifest per shard.
    Returns a run summary (shards processed/skipped, waves, rows,
    combined content hash).

    ``read_fn(paths)`` is called once per shard (default: read the
    Parquet files). ``build`` receives the union of a wave's shards,
    whose rows carry a ``shard_id`` column, and must keep that column
    in its output; the extraction pipeline's stages do, and its dedup
    stays per shard.

    ``config_fingerprint`` defaults to the extractor version: resuming
    after a version bump reprocesses every shard.

    ``sketch_column`` (default: first hash column) adds a per-shard
    HLL distinct sketch to the manifest — mergeable corpus accounting
    (see :func:`run_distinct_estimate`); pass None to disable."""
    if sketch_column == "__first_hash_column__":
        sketch_column = hash_columns[0] if hash_columns else None
    import ray.data as rd

    read_fn = read_fn or (lambda paths: rd.read_parquet(list(paths)))
    if config_fingerprint is None:
        config_fingerprint = default_config_fingerprint()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for stale in Path(out_dir).glob("wave=*.tmp"):
        shutil.rmtree(stale)

    summary = {"processed": 0, "skipped": 0, "waves": 0, "rows": 0,
               "failed_rows": 0}
    manifests, todo = [], []
    for shard in input_shards:
        if is_shard_done(out_dir, shard, config_fingerprint):
            summary["skipped"] += 1
            manifests.append(json.loads(
                manifest_path(out_dir, shard_id_for(shard)).read_text()
            ))
        else:
            todo.append(shard)
    for wave in _waves(todo):
        manifests += _run_wave(
            wave, build, out_dir, read_fn, config_fingerprint,
            hash_columns, sketch_column,
        )
        summary["processed"] += len(wave)
        summary["waves"] += 1

    combined_hash = 0
    for manifest in manifests:
        summary["rows"] += manifest["rows"]
        summary["failed_rows"] += manifest.get("failed_rows", 0)
        combined_hash = (combined_hash + manifest["content_hash"]) % _HASH_MOD
    summary["content_hash"] = combined_hash
    return summary


def _rewrite_shard(
    out_dir: str,
    manifest: Dict,
    keep: Callable[[pa.Table], pa.Table],
    summary: Dict,
    hash_columns: Sequence[str] = ("url", "text"),
) -> bool:
    """Filter a finished shard through ``keep``; commit the result if it
    removed rows, updating ``manifest`` (in memory: the caller stamps
    and writes it) and ``summary``. Returns whether it committed."""
    import ray.data as rd

    sdir = shard_out_dir(out_dir, manifest["shard_id"])
    before = manifest["rows"]
    digest = _commit_shard(
        rd.read_parquet(str(sdir)).map_batches(keep, batch_format="pyarrow"),
        sdir,
        manifest.get("hash_columns", hash_columns),
        accept=lambda d: d.rows < before,
    )
    if digest is None:
        return False
    manifest["rows"] = digest.rows
    manifest["failed_rows"] = digest.failed_rows
    manifest["content_hash"] = digest.content_hash
    summary["shards_rewritten"] += 1
    summary["rows_removed"] += before - digest.rows
    return True


def global_latest_crawl_pass(
    out_dir: str, hash_columns: Sequence[str] = ("url", "text")
) -> Dict:
    """Second-pass winner resolution ACROSS shard outputs (the global
    analogue of the reference's placeholder dedup,
    ``fulltext/extract.py:89-107``).

    ``run_resumable`` dedups within each shard; re-crawls of one url
    split across shards survive it. This pass reads the narrow
    (url, warc_ts, path) projection of every finished shard's output,
    resolves global winners with the same distributed aggregate the
    in-pipeline dedup uses (O(cross-shard-dup) driver state), finds the
    files holding losing rows in a second pass over that projection,
    and rewrites ONLY those shards — through the shared commit path,
    with manifests updated from its one digest (``global_dedup``
    stamped) so a subsequent resume still validates. A shard whose
    every row loses becomes an empty shard.

    Idempotent: a second invocation finds no losers and rewrites
    nothing.

    Manifest sketches are left as written: removing a LOSING crawl
    never removes a distinct url from the corpus (its winner survives
    in another shard), so the merged distinct-url estimate
    (:func:`run_distinct_estimate`) stays correct.
    """
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from ..stages.dedup import dup_winner_table, winner_arrays, winner_mask

    manifests = {m["shard_id"]: m for m in run_status(out_dir)}
    summary = {"shards_rewritten": 0, "rows_removed": 0}
    # read_parquet accepts one dir or a list of FILES, not a dir list
    out_files = [
        str(f)
        for sid in manifests
        for f in sorted(shard_out_dir(out_dir, sid).glob("*.parquet"))
    ]
    if not out_files:
        return summary

    def crawls():
        return rd.read_parquet(
            out_files, columns=["url", "warc_ts"], include_paths=True
        )

    wt = dup_winner_table(crawls())
    if wt.num_rows == 0:
        return summary
    winners_ref = ray.put(winner_arrays(wt))

    def loser_files(batch: pa.Table) -> pa.Table:
        keep = winner_mask(batch, ray.get(winners_ref))
        lost = batch["path"].filter(pc.invert(keep))
        return pa.table({"path": pc.unique(lost)})

    loser_sids = {
        Path(path).parent.name.removeprefix("shard=")
        for b in crawls()
        .map_batches(loser_files, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
        for path in b["path"].to_pylist()
    }

    def keep_winners(batch: pa.Table) -> pa.Table:
        return batch.filter(winner_mask(batch, ray.get(winners_ref)))

    for sid in sorted(loser_sids):
        manifest = manifests[sid]
        if _rewrite_shard(
            out_dir, manifest, keep_winners, summary, hash_columns
        ):
            manifest["global_dedup"] = True
            _write_manifest(out_dir, manifest)

    return summary


def global_neardup_guard(
    out_dir: str,
    threshold: float = 0.5,
    k: int = 3,
    max_bucket: int = 256,
    on_drop: str = "error",
) -> Dict:
    """Incremental near-CONTENT dedup of newly ingested shards against
    the already-guarded base corpus (the continuous-crawl analogue of
    the reference's exists-already guard,
    ``fulltext/services/store/store.py``, generalized from exact url
    match to shingle-Jaccard near-match).

    Shards whose manifest carries ``neardup_guarded: true`` form the
    immutable BASE; every other finished shard is INCOMING. Incoming
    docs whose extracted text has Jaccard >= ``threshold`` against any
    base doc are removed (their shards rewritten atomically, manifests
    re-hashed and stamped). Same-url pairs are ignored — recrawl
    winner resolution is :func:`global_latest_crawl_pass`'s job, and
    dropping an incoming recrawl because its OWN older crawl is in the
    base would invert keep-latest semantics.

    The first invocation (no guarded base yet) only stamps — it
    establishes the base without self-comparison; near-dups WITHIN one
    ingest batch are the corpus-wide ``neardup_pairs`` job's domain.

    Stateless + idempotent by construction: a crashed guard pass
    leaves un-stamped shards that the next invocation re-guards
    against the same base; a repeat invocation finds no unguarded
    shards and does nothing. Driver state is O(flagged incoming docs)
    — bounded by the incoming batch's near-dup rate, the same bound
    as the url winner table.

    Physical plan: :func:`..stages.neardup.cross_neardup_counts` —
    exact |A∩B| from shared-shingle bucket co-occurrence counts,
    candidates restricted to (incoming, base) pairs, so the exchange
    scales with the incoming batch, never the base-pair count.
    """
    import numpy as np
    import ray
    import ray.data as rd

    from ..functions.hashing import hash64_column
    from ..stages.neardup import cross_neardup_counts

    manifests = {m["shard_id"]: m for m in run_status(out_dir)}
    base_sids = sorted(
        sid for sid, m in manifests.items() if m.get("neardup_guarded")
    )
    new_sids = sorted(
        sid
        for sid in manifests
        if sid not in set(base_sids) and shard_out_dir(out_dir, sid).exists()
    )
    summary = {
        "shards_guarded": len(new_sids),
        "shards_rewritten": 0,
        "rows_removed": 0,
    }

    if not new_sids:
        return summary

    def docs_of(sids: Sequence[str]):
        files = [
            str(f)
            for sid in sids
            for f in sorted(shard_out_dir(out_dir, sid).glob("*.parquet"))
        ]

        def to_docs(batch: pa.Table) -> pa.Table:
            # >>1 keeps ids NONNEGATIVE (cross_neardup_counts reserves
            # negative ids for hot-bucket marker rows); 63 bits of a
            # 64-bit hash is still collision-safe at corpus scale
            ids = (hash64_column(batch["url"]) >> np.uint64(1)).astype(
                np.int64
            )
            text = batch["text"]
            if text.null_count:
                import pyarrow.compute as pc

                text = pc.fill_null(text, "")
            return pa.Table.from_pydict(
                {"doc_id": pa.array(ids, pa.int64()), "text": text}
            )

        return rd.read_parquet(files, columns=["url", "text"]).map_batches(
            to_docs, batch_format="pyarrow"
        )

    flagged = np.empty(0, np.int64)
    if base_sids:
        pairs = cross_neardup_counts(
            docs_of(new_sids),
            docs_of(base_sids),
            threshold=threshold,
            k=k,
            max_bucket=max_bucket,
            on_drop=on_drop,
        )
        rows = pairs.take_all() if pairs.count() else []
        flagged = np.unique(
            np.array(
                [
                    r["left_id"]
                    for r in rows
                    if r["left_id"] != r["right_id"]  # same url: not ours
                ],
                dtype=np.int64,
            )
        )

    flagged_ref = ray.put(flagged) if flagged.size else None

    def keep_unflagged(batch: pa.Table) -> pa.Table:
        bad = ray.get(flagged_ref)
        ids = (hash64_column(batch["url"]) >> np.uint64(1)).astype(np.int64)
        return batch.filter(pa.array(~np.isin(ids, bad)))

    for sid in new_sids:
        manifest = manifests[sid]
        if flagged.size:
            _rewrite_shard(out_dir, manifest, keep_unflagged, summary)
        manifest["neardup_guarded"] = True
        _write_manifest(out_dir, manifest)

    return summary


def run_status(out_dir: str) -> List[Dict]:
    """All shard manifests under ``out_dir`` (lineage + metrics view)."""
    out = []
    root = Path(out_dir)
    if not root.exists():
        return out
    for mpath in sorted(root.glob(f"*{MANIFEST_SUFFIX}")):
        try:
            out.append(json.loads(mpath.read_text()))
        except json.JSONDecodeError:
            continue
    return out


def watch_resumable(
    input_glob: str,
    build: Callable,
    out_dir: str,
    files_per_shard: int = 16,
    poll_sec: float = 30.0,
    settle_sec: Optional[float] = None,
    max_polls: Optional[int] = None,
    config_fingerprint: Optional[Dict] = None,
    hash_columns: Sequence[str] = ("url", "text"),
    read_fn: Optional[Callable] = None,
    on_poll: Optional[Callable] = None,
) -> Dict:
    """Continuous-ingest mode: poll ``input_glob`` and process files as
    they arrive — the batch analogue of the reference's stream consumer
    (fulltext/agent/consumer.py:115-145), built entirely on the
    manifest anti-join.

    Each poll is stateless: files already assigned to a shard are read
    off the existing manifests' ``input_fingerprint`` keys; unassigned
    files whose mtime has settled for ``settle_sec`` (default:
    ``poll_sec`` — a file still being written is left for the next
    poll) are grouped into NEW shards, so earlier shard groupings never
    shift when files arrive (the alternative — re-chunking the full
    sorted listing — would orphan every downstream shard id). Known
    shards are passed through :func:`run_resumable` too, which skips
    them unless their inputs changed on disk (modified-input
    re-extraction keeps working mid-watch). A no-op poll costs one
    glob + one manifest-directory scan — no Ray work.

    Runs forever unless ``max_polls`` is given (tests / bounded runs).
    Returns cumulative totals; ``rows`` is the current corpus total.
    """
    import glob as _glob

    settle = poll_sec if settle_sec is None else settle_sec
    totals = {"polls": 0, "processed": 0, "skipped": 0, "rows": 0,
              "failed_rows": 0}
    while True:
        totals["polls"] += 1
        known: List[List[str]] = []
        seen: set = set()
        for m in run_status(out_dir):
            paths = sorted((m.get("input_fingerprint") or {}).keys())
            if paths:
                known.append(paths)
                seen.update(paths)
        now = time.time()
        fresh = []
        for f in sorted(_glob.glob(input_glob)):
            if f in seen:
                continue
            try:
                st = Path(f).stat()
            except FileNotFoundError:
                continue
            if now - st.st_mtime < settle:
                continue
            fresh.append(f)
        shards = known + shard_input_files(fresh, files_per_shard)
        if shards:
            s = run_resumable(
                shards, build, out_dir,
                hash_columns=hash_columns,
                read_fn=read_fn,
                config_fingerprint=config_fingerprint,
            )
            totals["processed"] += s["processed"]
            totals["skipped"] += s["skipped"]
            totals["rows"] = s["rows"]
            totals["failed_rows"] = s["failed_rows"]
        if on_poll is not None:
            on_poll(dict(totals))
        if max_polls is not None and totals["polls"] >= max_polls:
            return totals
        time.sleep(poll_sec)


def compact_shards(
    out_dir: str,
    target_bytes: int = 128 * 1024 * 1024,
    min_files: int = 2,
) -> Dict:
    """Post-pass output compaction: rewrite every finished shard whose
    output holds >= ``min_files`` parquet files into
    ceil(total_bytes / target_bytes) files — the small-files problem
    at 100 TB (a resumable run with many shards x many write tasks
    otherwise leaves thousands of KB-scale files that tank every
    downstream scan).

    Safety contract, per shard: the rewrite goes through the shared
    commit path, and its ORDER-INDEPENDENT content hash
    (:func:`shard_digests`, same columns the manifest recorded) must
    equal the manifest's hash BEFORE the rename-aside swap;
    the manifest keeps its content_hash/row count (content is
    byte-identical per hash) and gains a ``compacted`` block.
    Shards already at one file (or below ``min_files``) are skipped.
    Returns {shards_compacted, shards_skipped, files_before,
    files_after}."""
    import ray.data as rd

    out = Path(out_dir)
    summary = {
        "shards_compacted": 0,
        "shards_skipped": 0,
        "files_before": 0,
        "files_after": 0,
    }
    for mpath in sorted(out.glob(f"shard=*{MANIFEST_SUFFIX}")):
        manifest = json.loads(mpath.read_text())
        sid = manifest["shard_id"]
        sdir = shard_out_dir(out_dir, sid)
        if not sdir.exists():
            continue
        files = sorted(p for p in sdir.glob("*.parquet"))
        summary["files_before"] += len(files)
        total = sum(p.stat().st_size for p in files)
        n_target = max(1, -(-total // target_bytes))
        if len(files) < min_files or n_target >= len(files):
            summary["shards_skipped"] += 1
            summary["files_after"] += len(files)
            continue

        digest = _commit_shard(
            rd.read_parquet(str(sdir)).repartition(int(n_target)),
            sdir,
            manifest["hash_columns"],
            accept=lambda d: d.content_hash == manifest["content_hash"],
        )
        if digest is None:
            raise RuntimeError(
                f"compact_shards: content hash mismatch on shard {sid} "
                "(rewrite aborted, original output untouched)"
            )

        n_after = len(list(sdir.glob("*.parquet")))
        manifest["compacted"] = {
            "files_before": len(files),
            "files_after": n_after,
            "target_bytes": target_bytes,
            "at": time.time(),
        }
        _write_manifest(out_dir, manifest)
        summary["shards_compacted"] += 1
        summary["files_after"] += n_after
    return summary
