"""Exact duplicate-span removal (substring dedup at n-gram granularity).

The Lee et al. 2022 "Deduplicating Training Data Makes Language Models
Better" family: find every ``w``-token span whose exact text occurs at
least ``min_count`` times ANYWHERE in the corpus (across documents or
repeated within one), and delete every token covered by such a span.
Unlike the paper's suffix-array keep-first variant, this removes ALL
occurrences — the policy many production pipelines prefer (no global
occurrence ordering needed, so the operator stays one-exchange and
embarrassingly re-runnable), and the one a SQL oracle can replay
order-free.

Reference precedent: the reference engine's dedup surface is per-URL
latest-wins (arxiv-fulltext `fulltext/services/store/store.py` content
versioning); span-level dedup is the corpus-scale generalization a
training-data pipeline needs on top.

Physical plans (identical results, pinned in tests):

* broadcast — the duplicated-gram set (grams with global count >=
  min_count; bounded by DUPLICATE VOLUME, not corpus size) is
  collected once and ``ray.put``; each doc batch recomputes its grams
  and masks covered tokens locally. One exchange total (the gram-count
  groupby).
* partitioned — no driver state: the exploded (doc_id, pos, gram)
  stream semi-joins the duplicated-gram table on gram
  (``partitioned_hash_join``), per-doc covered positions fold to ONE
  int64-blob row per marked doc, and that narrow marks table joins
  back to the docs on doc_id. Three exchanges, all on bounded rows;
  document text never rides the gram exchange.

The crossover routes through ``stages.plan.choose_broadcast`` (row
count + estimated bytes; ``GRAFT_FORCE_PARTITIONED=1`` disables the
broadcast path for gate coverage).

Tokenization is the engine-wide ``str.split()`` contract; rebuilt text
is the kept tokens joined by single spaces (the oracle mirrors with
``string_agg(... ORDER BY position)``).
"""

import numpy as np
import pyarrow as pa

from .plan import choose_broadcast
from .relational import partitioned_hash_join

# Broadcast crossover: the dup-gram set rides one object-store object.
# Rows are gram strings (~8 tokens, ~50 B each); 4M rows ~ 200 MiB.
DUP_GRAM_BROADCAST_ROW_LIMIT = 4_000_000
EST_GRAM_BYTES = 64


def _gram_explode(batch: pa.Table, w: int) -> pa.Table:
    """(doc_id, pos, gram) — one row per w-token window, pos 1-based
    (matches the SQL oracle's range(1, len-w+2))."""
    doc_ids, poss, grams = [], [], []
    for doc_id, text in zip(
        batch["doc_id"].to_pylist(), batch["text"].to_pylist()
    ):
        words = text.split()
        n = len(words)
        if n < w:
            continue
        for i in range(n - w + 1):
            doc_ids.append(doc_id)
            poss.append(i + 1)
            grams.append(" ".join(words[i : i + w]))
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "pos": pa.array(poss, pa.int64()),
            "gram": pa.array(grams, pa.string()),
        }
    )


def _dup_grams(grams_ds, min_count: int):
    """Dataset of (gram) occurring >= min_count times corpus-wide.
    Counted through ``stages/aggregate.py``."""
    from .aggregate import aggregate

    counted = aggregate(grams_ds, "gram", [("n_occ", "count", None)])
    return counted.filter(
        expr=f"n_occ >= {int(min_count)}"
    ).select_columns(["gram"])


def _rebuild_row(words, covered_mask):
    kept = [wd for wd, c in zip(words, covered_mask) if not c]
    return " ".join(kept), int(covered_mask.sum())


def dup_span_removal(
    docs_ds,
    w: int = 8,
    min_count: int = 2,
    num_buckets: int = 64,
    broadcast: bool = None,
):
    """Remove every token covered by a duplicated ``w``-token span.

    ``docs_ds`` needs (doc_id, text). Returns a Dataset of the docs
    that LOST at least one token: (doc_id, n_tokens, n_removed,
    text_clean) — n_tokens is the pre-removal whitespace token count,
    text_clean the kept tokens joined by single spaces ('' when the
    whole doc was duplicated spans).
    """
    grams = docs_ds.map_batches(
        lambda b: _gram_explode(b, w), batch_format="pyarrow"
    )
    dup = _dup_grams(grams, min_count).materialize()
    n_dup = dup.count()

    if n_dup == 0:
        # typed empty (the schema-less partitioned_hash_join guard)
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "n_removed": pa.array([], pa.int64()),
                    "text_clean": pa.array([], pa.string()),
                }
            )
        )

    if broadcast is None:
        broadcast = choose_broadcast(
            n_dup, DUP_GRAM_BROADCAST_ROW_LIMIT, est_row_bytes=EST_GRAM_BYTES
        )

    if broadcast:
        return _removal_broadcast(docs_ds, dup, w)
    return _removal_partitioned(docs_ds, grams, dup, w, num_buckets)


def _removal_broadcast(docs_ds, dup_ds, w: int):
    import ray

    dup_set = frozenset(
        s.as_py() for t in dup_ds.to_arrow_refs()
        for s in ray.get(t)["gram"]
    )
    dup_ref = ray.put(dup_set)

    def rebuild(batch: pa.Table) -> pa.Table:
        dups = ray.get(dup_ref)
        out = {"doc_id": [], "n_tokens": [], "n_removed": [],
               "text_clean": []}
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            words = text.split()
            n = len(words)
            if n < w:
                continue
            covered = np.zeros(n, dtype=bool)
            for i in range(n - w + 1):
                if " ".join(words[i : i + w]) in dups:
                    covered[i : i + w] = True
            if not covered.any():
                continue
            clean, n_removed = _rebuild_row(words, covered)
            out["doc_id"].append(doc_id)
            out["n_tokens"].append(n)
            out["n_removed"].append(n_removed)
            out["text_clean"].append(clean)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
                "n_removed": pa.array(out["n_removed"], pa.int64()),
                "text_clean": pa.array(out["text_clean"], pa.string()),
            }
        )

    return docs_ds.map_batches(rebuild, batch_format="pyarrow")


def _removal_partitioned(docs_ds, grams_ds, dup_ds, w: int,
                         num_buckets: int):
    # gram hits: which (doc_id, pos) windows start a duplicated span.
    hits = partitioned_hash_join(
        grams_ds, dup_ds, key="gram", num_buckets=num_buckets,
        how="semi",
    )

    def fold_marks(group: pa.Table) -> pa.Table:
        # one int64 blob of UNIQUE covered positions per doc
        starts = group["pos"].to_numpy(zero_copy_only=False)
        covered = np.unique(
            (starts[:, None] + np.arange(w, dtype=np.int64)).ravel()
        )
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(
                    [group["doc_id"][0].as_py()], pa.int64()
                ),
                "covered_blob": pa.array(
                    [covered.astype(np.int64).tobytes()], pa.binary()
                ),
            }
        )

    marks = hits.select_columns(["doc_id", "pos"]).groupby(
        "doc_id"
    ).map_groups(fold_marks, batch_format="pyarrow")

    joined = partitioned_hash_join(
        docs_ds.select_columns(["doc_id", "text"]), marks,
        key="doc_id", num_buckets=num_buckets,
    )

    def rebuild(batch: pa.Table) -> pa.Table:
        out = {"doc_id": [], "n_tokens": [], "n_removed": [],
               "text_clean": []}
        for doc_id, text, blob in zip(
            batch["doc_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["covered_blob"].to_pylist(),
        ):
            words = text.split()
            n = len(words)
            covered_pos = np.frombuffer(blob, dtype=np.int64)
            covered = np.zeros(n, dtype=bool)
            covered[covered_pos - 1] = True  # pos is 1-based
            clean, n_removed = _rebuild_row(words, covered)
            out["doc_id"].append(doc_id)
            out["n_tokens"].append(n)
            out["n_removed"].append(n_removed)
            out["text_clean"].append(clean)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
                "n_removed": pa.array(out["n_removed"], pa.int64()),
                "text_clean": pa.array(out["text_clean"], pa.string()),
            }
        )

    return joined.map_batches(rebuild, batch_format="pyarrow")


def suffix_prefix_join(frags, k: int = 5, id_col: str = "frag_id",
                       text_col: str = "text", num_buckets: int = 64):
    """(left_id, right_id) pairs where the left fragment's LAST ``k``
    whitespace tokens equal the right fragment's FIRST ``k`` tokens —
    the shard-boundary stitching join that re-assembles documents
    split across crawl-dump shard boundaries.

    Physical plan: each fragment projects to two keyed rows (its
    suffix k-gram as a join key with side=0, its prefix k-gram with
    side=1) -> ONE exchange on hash(key) into ``num_buckets`` fixed
    buckets -> per-bucket pandas hash join of suffix rows x prefix
    rows (self-pairs excluded). Fragments shorter than ``k`` tokens
    can't stitch and are dropped at the projection. A hot k-gram key
    makes its per-key product quadratic — this corpus's 5-grams are
    effectively unique; adopt neardup.bucket_pairs' cap-and-log if a
    future corpus changes that."""
    from ..functions.hashing import bucket_of_column

    def prep(batch: pa.Table) -> pa.Table:
        keys, sides, fids = [], [], []
        for fid, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            w = (t or "").split()
            if len(w) < k:
                continue
            keys.append(" ".join(w[-k:]))
            sides.append(0)
            fids.append(fid)
            keys.append(" ".join(w[:k]))
            sides.append(1)
            fids.append(fid)
        t = pa.Table.from_pydict(
            {
                "key": pa.array(keys, pa.string()),
                "side": pa.array(sides, pa.int64()),
                "fid": pa.array(fids, pa.int64()),
            }
        )
        return t.append_column(
            "__b",
            pa.array(bucket_of_column(t["key"], num_buckets), pa.int64()),
        )

    def pairs_of_bucket(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "left_id": pa.array([], pa.int64()),
                "right_id": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        df = group.select(["key", "side", "fid"]).to_pandas()
        m = df[df["side"] == 0].merge(
            df[df["side"] == 1], on="key", suffixes=("_l", "_r")
        )
        m = m[m["fid_l"] != m["fid_r"]]
        if m.empty:
            return empty
        return pa.Table.from_pydict(
            {
                "left_id": pa.array(
                    m["fid_l"].to_numpy().astype("int64"), pa.int64()
                ),
                "right_id": pa.array(
                    m["fid_r"].to_numpy().astype("int64"), pa.int64()
                ),
            }
        )

    return (
        frags.map_batches(prep, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(pairs_of_bucket, batch_format="pyarrow")
    )
