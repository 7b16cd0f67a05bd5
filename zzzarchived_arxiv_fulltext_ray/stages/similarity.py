"""Similarity search over an embedding column (``list<float>``).

* ``ann_topk`` — brute-force cosine top-k: the query matrix is
  broadcast once (``ray.put``), each batch computes a float64 matmul
  against it, and ``stages/topk.topk_per_group`` keeps each query's
  LOCAL top-k per batch and merges them in a tiny groupby. The
  shuffle moves O(queries x k x batches) rows, never the corpus.
* ``embedding_neardup`` — exact all-pairs cosine >= threshold. The
  default physical plan is the **block-pair theta join**: rows are
  hash-assigned to B blocks and replicated to every block *pair*
  group (B copies per row); each (i, j) group matmuls block_i x
  block_j locally. One shuffle of n x B embedding rows, no broadcast,
  no driver state — exact at any corpus size. ``method="broadcast"``
  keeps the small-corpus fast path (one ``ray.put`` of the whole
  normalized matrix).
* ``embedding_neardup_lsh`` — the sub-quadratic scale path:
  random-hyperplane signatures bucket the corpus; in-bucket candidate
  pairs are verified exactly by a partitioned hash join against the
  embedding table (no broadcast). Recall depends on planes/bands.
"""

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import aggregate
from .relational import partitioned_hash_join
from .topk import topk_per_group


def _matrix_of(batch: pa.Table) -> np.ndarray:
    """(n, dim) float64 matrix from the list<float> column — flattened
    straight off the Arrow child buffer (one cast, no per-row Python);
    falls back to the row-wise path for ragged/null inputs."""
    col = batch["embedding"].combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    if col.null_count == 0:
        flat = col.flatten().to_numpy(zero_copy_only=False)
        if flat.size % n == 0:
            dim = flat.size // n
            lengths = pc.list_value_length(col).to_numpy(
                zero_copy_only=False
            )
            if (lengths == dim).all():
                return flat.reshape(n, dim).astype(np.float64, copy=False)
    return np.array(col.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def load_query_matrix(emb_ds, query_ids: List[int]):
    """Materialize + broadcast the (small) query matrix once."""
    import ray

    qset = pa.array(sorted(set(query_ids)), pa.int64())

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["vec_id"], value_set=qset))

    qdf = (
        emb_ds.map_batches(pick, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    qmat = _normalize(
        np.array(qdf["embedding"].tolist(), dtype=np.float64)
    )
    return ray.put((qdf["vec_id"].to_numpy(), qmat))


# sim desc, neighbor_id asc on exact ties — the oracle's ORDER BY
# sim DESC, vec_id
NEIGHBOR_ORDER = [("sim", "descending"), ("neighbor_id", "ascending")]


def neighbor_rows(qids, vids, scores, mask):
    """One (query_id, neighbor_id, sim) row per True cell of the
    (queries x batch) ``mask`` — the candidates one batch offers the
    grouped top-k (``stages/topk.py``) in ``NEIGHBOR_ORDER``."""
    qi, ci = np.nonzero(mask)
    return pa.Table.from_pydict(
        {
            "query_id": pa.array(np.asarray(qids, np.int64)[qi]),
            "neighbor_id": pa.array(vids[ci]),
            "sim": pa.array(scores[qi, ci]),
        }
    )


def ann_topk(emb_ds, query_ids: List[int], k: int = 10):
    """(query_id, neighbor_id) pairs: the exact cosine top-k neighbors
    of each query vector (queries excluded from their own results)."""
    import ray

    qref = load_query_matrix(emb_ds, query_ids)

    def candidates(batch: pa.Table) -> pa.Table:
        qids, qmat = ray.get(qref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        sims = qmat @ _normalize(_matrix_of(batch)).T  # (n_q, n_batch)
        return neighbor_rows(qids, vids, sims, vids != qids[:, None])

    return topk_per_group(
        emb_ds.map_batches(candidates, batch_format="pyarrow"),
        "query_id", k, NEIGHBOR_ORDER,
    ).select_columns(["query_id", "neighbor_id"])


def _broadcast_corpus(emb_ds):
    import ray

    df = emb_ds.to_pandas()
    ids = df["vec_id"].to_numpy()
    mat = _normalize(np.array(df["embedding"].tolist(), dtype=np.float64))
    return ray.put((ids, mat))


def _emb_blob(mat: np.ndarray) -> List[bytes]:
    return [np.ascontiguousarray(row, dtype="<f8").tobytes() for row in mat]


def _emb_of_blob(blob) -> np.ndarray:
    return np.frombuffer(blob, dtype="<f8")


def _block_of(vids: np.ndarray, num_blocks: int) -> np.ndarray:
    # splitmix-style mix so sequential vec_ids spread across blocks
    z = vids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(num_blocks)).astype(np.int64)


def embedding_neardup_blockpair(
    emb_ds, threshold: float = 0.4, num_blocks: int = 8
):
    """Exact cosine near-dup pairs via the block-pair theta join.

    Each row is hash-assigned to one of ``num_blocks`` blocks and
    replicated into every block-pair group that contains its block
    (``num_blocks`` copies). Each (i, j) group holds exactly two
    blocks and matmuls them locally, so every unordered row pair is
    compared exactly once, with no broadcast and no driver state.
    Shuffle volume is n x num_blocks embedding rows; per-task memory
    is two blocks (~2n/num_blocks rows) — size num_blocks so a block
    pair fits a worker's heap."""

    def replicate(batch: pa.Table) -> pa.Table:
        # vectorized B-way fan-out: pair keys via broadcasting, row
        # payload copies via one Arrow take on repeated indices
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        mat = _normalize(_matrix_of(batch))
        blocks = _block_of(vids, num_blocks)
        blobs = pa.array(_emb_blob(mat), pa.large_binary())
        other = np.arange(num_blocks, dtype=np.int64)
        lo = np.minimum(blocks[:, None], other[None, :])
        hi = np.maximum(blocks[:, None], other[None, :])
        rep = np.repeat(np.arange(vids.size), num_blocks)
        return pa.Table.from_pydict(
            {
                "pair_key": pa.array(
                    (lo * num_blocks + hi).ravel(), pa.int64()
                ),
                "block": pa.array(blocks[rep], pa.int64()),
                "vec_id": pa.array(vids[rep], pa.int64()),
                "emb": blobs.take(pa.array(rep)),
            }
        )

    def cross(group: pa.Table) -> pa.Table:
        key = group["pair_key"][0].as_py()
        lo, hi = divmod(key, num_blocks)
        blocks = np.asarray(group["block"].to_pylist(), dtype=np.int64)
        vids = np.asarray(group["vec_id"].to_pylist(), dtype=np.int64)
        mat = np.stack([_emb_of_blob(b) for b in group["emb"].to_pylist()])
        out_a = out_b = out_s = np.empty(0)
        if lo == hi:
            sims = mat @ mat.T
            rows, cols = np.where(sims >= threshold)
            m = vids[rows] < vids[cols]
            out_a, out_b = vids[rows[m]], vids[cols[m]]
            out_s = sims[rows[m], cols[m]]
        else:
            li = np.where(blocks == lo)[0]
            ri = np.where(blocks == hi)[0]
            if li.size and ri.size:
                sims = mat[li] @ mat[ri].T
                rows, cols = np.where(sims >= threshold)
                a, b = vids[li[rows]], vids[ri[cols]]
                out_a, out_b = np.minimum(a, b), np.maximum(a, b)
                out_s = sims[rows, cols]
        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(out_a, pa.int64()),
                "vec_b": pa.array(out_b, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    return (
        emb_ds.map_batches(replicate, batch_format="pyarrow")
        .groupby("pair_key")
        .map_groups(cross, batch_format="pyarrow")
    )


def embedding_neardup_broadcast(emb_ds, threshold: float = 0.4):
    """Exact cosine near-dup pairs via a broadcast normalized matrix:
    the small-corpus fast path (matrix must fit per node, <= ~10M x 64
    float32); one pass, no shuffle."""
    import ray

    cref = _broadcast_corpus(emb_ds)

    def pairs(batch: pa.Table) -> pa.Table:
        ids, mat = ray.get(cref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        bm = _normalize(_matrix_of(batch))
        sims = bm @ mat.T  # (n_batch, n_corpus)
        rows, cols = np.where(sims >= threshold)
        m = vids[rows] < np.asarray(ids)[cols]  # each unordered pair once
        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(vids[rows[m]], pa.int64()),
                "vec_b": pa.array(np.asarray(ids)[cols[m]], pa.int64()),
                "sim": pa.array(sims[rows[m], cols[m]], pa.float64()),
            }
        )

    return emb_ds.map_batches(pairs, batch_format="pyarrow")


def embedding_neardup(
    emb_ds, threshold: float = 0.4, method: str = "blockpair",
    num_blocks: int = 8,
):
    """Exact cosine near-dup pairs (vec_a < vec_b, sim >= threshold).

    ``method``: "blockpair" (default; partitioned theta join, exact at
    any scale) or "broadcast" (small-corpus fast path). Sub-quadratic
    approximate: :func:`embedding_neardup_lsh`."""
    from . import plan as plan_choice

    if plan_choice.force_partitioned():
        method = "blockpair"
    if method == "blockpair":
        return embedding_neardup_blockpair(emb_ds, threshold, num_blocks)
    if method == "broadcast":
        return embedding_neardup_broadcast(emb_ds, threshold)
    raise ValueError(f"unknown embedding_neardup method: {method}")


class HyperplaneLSH:
    """Random-hyperplane signature stage (actor pool): vec -> sign-bit
    bucket keys over ``bands`` groups of ``planes_per_band`` planes."""

    def __init__(
        self,
        dim: int = 64,
        bands: int = 8,
        planes_per_band: int = 8,
        seed: int = 271828,
    ):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal(
            (bands, planes_per_band, dim)
        )
        self.bands = bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(_matrix_of(batch))
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        # vectorized sign-bit codes, identical to the packbits +
        # int.from_bytes(big) values: bit j of band code carries
        # weight 2^(8*nbytes - 1 - j)
        p = self.planes.shape[1]
        nbytes = (p + 7) // 8
        weights = (
            np.int64(1) << (8 * nbytes - 1 - np.arange(p, dtype=np.int64))
        )
        key_parts, id_parts = [], []
        for b in range(self.bands):
            bits = (mat @ self.planes[b].T) > 0  # (n, planes)
            codes = bits.astype(np.int64) @ weights
            key_parts.append((np.int64(b) << np.int64(32)) | codes)
            id_parts.append(vids)
        return pa.Table.from_pydict(
            {"bucket_key": pa.array(np.concatenate(key_parts), pa.int64()),
             "doc_id": pa.array(np.concatenate(id_parts), pa.int64())}
        )


def verify_cosine_partitioned(
    pairs_ds, emb_ds, threshold: float
):
    """Partitioned exact-cosine verify: bucket-hash-join candidate
    pairs (doc_a, doc_b) against the embedding table on each side
    (normalized vectors ride as float64 blobs), then score locally.
    No broadcast corpus state — the 10^12-row path."""

    def as_side(name):
        def enc(batch: pa.Table) -> pa.Table:
            mat = _normalize(_matrix_of(batch))
            return pa.Table.from_pydict(
                {
                    name: batch["vec_id"].to_pylist(),
                    f"emb_{name[-1]}": pa.array(
                        _emb_blob(mat), pa.large_binary()
                    ),
                }
            )

        return enc

    with_a = partitioned_hash_join(
        pairs_ds,
        emb_ds.map_batches(as_side("doc_a"), batch_format="pyarrow"),
        key="doc_a",
    )
    with_ab = partitioned_hash_join(
        with_a,
        emb_ds.map_batches(as_side("doc_b"), batch_format="pyarrow"),
        key="doc_b",
    )

    def score(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_s = [], [], []
        for a, b, ea, eb in zip(
            batch["doc_a"].to_pylist(),
            batch["doc_b"].to_pylist(),
            batch["emb_a"].to_pylist(),
            batch["emb_b"].to_pylist(),
        ):
            s = float(_emb_of_blob(ea) @ _emb_of_blob(eb))
            if s >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_s.append(s)
        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(out_a, pa.int64()),
                "vec_b": pa.array(out_b, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    return with_ab.map_batches(score, batch_format="pyarrow")


def embedding_neardup_lsh(
    emb_ds, threshold: float = 0.4, bands: int = 8, planes_per_band: int = 8
):
    """LSH-bucketed near-dup: hyperplane buckets -> in-bucket candidate
    pairs -> exact cosine verify via a partitioned hash join against
    the embedding table (no broadcast)."""
    from .neardup import bucket_pairs

    dim = len(emb_ds.take(1)[0]["embedding"])

    keyed = emb_ds.map_batches(
        HyperplaneLSH,
        fn_constructor_kwargs={
            "dim": dim, "bands": bands, "planes_per_band": planes_per_band
        },
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    from .aggregate import aggregate

    candidates = bucket_pairs(keyed, max_bucket=4096)
    verified = verify_cosine_partitioned(candidates, emb_ds, threshold)
    # bucket_pairs emits a pair once per shared band key; collapse the
    # duplicates (identical sims) over the small verified output
    return aggregate(verified, ["vec_a", "vec_b"], [("sim", "max", "sim")])


# -- IVF (inverted-file) ANN: the coarse-quantizer scale path ---------------

def train_ivf_centroids(
    emb_ds, n_clusters: int = 16, iters: int = 10, seed: int = 314159,
    sample_size: int = 4096,
):
    """Deterministic k-means (seeded init, fixed iterations) over a
    sample of the corpus — the coarse quantizer of an IVF index.

    The sample + training run on the driver (centroids are tiny and
    training data is a bounded sample regardless of corpus size);
    assignment of the full corpus is distributed.
    """
    import pandas as pd

    # deterministic sample: first N rows by vec_id (corpus order is
    # a hash-ordered synthetic table; a seeded random_sample would be
    # equivalent but costs a pass)
    df = emb_ds.limit(sample_size).to_pandas()
    x = _normalize(np.array(df["embedding"].tolist(), dtype=np.float64))

    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(len(x), size=min(n_clusters, len(x)),
                             replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ centroids.T, axis=1)
        for c in range(len(centroids)):
            members = x[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n
    return centroids


def ivf_assign(emb_ds, centroids):
    """Distributed coarse assignment: add the nearest-centroid id."""
    import ray

    cref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        mat = _normalize(_matrix_of(batch))
        lists = np.argmax(mat @ cents.T, axis=1).astype(np.int32)
        return batch.append_column("ivf_list", pa.array(lists, pa.int32()))

    return emb_ds.map_batches(assign, batch_format="pyarrow")


def ivf_topk(
    emb_ds, query_ids, k: int = 10, n_clusters: int = 16, n_probe: int = 4,
):
    """IVF ANN top-k: probe only the ``n_probe`` closest inverted lists
    per query instead of scanning the corpus — the scale path when the
    corpus stops fitting a broadcast matrix. Exactness depends on
    n_probe/n_clusters (recall tested against the brute-force baseline
    in tests)."""
    import ray

    centroids = train_ivf_centroids(emb_ds, n_clusters=n_clusters)
    assigned = ivf_assign(emb_ds, centroids)

    qref = load_query_matrix(emb_ds, query_ids)
    probe_lists = {}
    qids_arr, qmat = ray.get(qref)
    sims_qc = qmat @ centroids.T
    for qi, qid in enumerate(qids_arr):
        probe_lists[int(qid)] = np.sort(
            np.argsort(-sims_qc[qi])[:n_probe].astype(np.int32)
        )
    pref = ray.put(probe_lists)

    def candidates(batch: pa.Table) -> pa.Table:
        qids, qmat_w = ray.get(qref)
        probes = ray.get(pref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        lists = np.asarray(batch["ivf_list"].to_pylist(), dtype=np.int32)
        sims = qmat_w @ _normalize(_matrix_of(batch)).T
        probed = np.array(
            [np.isin(lists, probes[int(qid)]) for qid in qids]
        ).reshape(len(qids), len(vids))
        return neighbor_rows(
            qids, vids, sims, probed & (vids != qids[:, None])
        )

    return topk_per_group(
        assigned.map_batches(candidates, batch_format="pyarrow"),
        "query_id", k, NEIGHBOR_ORDER,
    ).select_columns(["query_id", "neighbor_id"])


def grouped_centroids(emb_ds, key: str = "label"):
    """Per-group centroid of the embedding column — the class-prototype
    / k-means-M-step aggregate a curation pipeline uses for
    prototype-based filtering and cluster seeding.

    Partial combiner shape: every batch collapses to ONE
    (key, vec_sum, n) row per group present (sort + ``reduceat``
    segmented sum, no per-row Python), so the exchange moves
    O(groups x blocks) fixed-width rows — never the corpus — and a
    tiny per-key merge derives the centroid, its L2 norm and the
    grand total. Safe for any corpus size as long as the number of
    GROUPS is modest (labels/classes; not for high-cardinality keys).
    """

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix_of(batch)
        keys = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        sums = np.add.reduceat(m[order], starts, axis=0)
        n = np.diff(np.r_[starts, ks.size]).astype(np.int64)
        return pa.Table.from_pydict(
            {
                key: pa.array(ks[starts], pa.int64()),
                "vec_sum": pa.array(
                    list(sums), pa.list_(pa.float64())
                ),
                "n": pa.array(n, pa.int64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        m = np.array(group["vec_sum"].to_pylist(), dtype=np.float64)
        total = m.sum(axis=0)
        n = int(pc.sum(group["n"]).as_py())
        c = total / n
        return pa.Table.from_pydict(
            {
                key: group[key].slice(0, 1),
                "n_vecs": pa.array([n], pa.int64()),
                "centroid": pa.array([c.tolist()], pa.list_(pa.float64())),
                "centroid_norm": pa.array(
                    [float(np.linalg.norm(c))], pa.float64()
                ),
                "total_sum": pa.array([float(total.sum())], pa.float64()),
            }
        )

    return (
        emb_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key)
        .map_groups(merge, batch_format="pyarrow")
    )


def _assign_clusters_batch(batch: pa.Table, cent_ref, id_col: str):
    """E-step: nearest centroid per row, fully vectorized. Distances
    are compared as ``-2 x.c + |c|^2`` (the ``|x|^2`` term is constant
    per row); ``dist2`` adds it back for the inertia sum."""
    import ray

    cents = ray.get(cent_ref)  # (k, d) float64, zero-copy from plasma
    m = _matrix_of(batch)
    scores = m @ cents.T * -2.0 + (cents * cents).sum(axis=1)
    cluster = np.argmin(scores, axis=1).astype(np.int64)
    d2 = scores[np.arange(m.shape[0]), cluster] + (m * m).sum(axis=1)
    return pa.Table.from_pydict(
        {
            id_col: batch[id_col],
            "cluster": pa.array(cluster, pa.int64()),
            "dist2": pa.array(d2, pa.float64()),
            "embedding": batch["embedding"],
        }
    )


def kmeans(
    emb_ds,
    k: int = 8,
    iters: int = 5,
    id_col: str = "vec_id",
):
    """Distributed Lloyd's k-means over the embedding column.

    The iteration state is TINY and driver-side (the k x d centroid
    matrix, re-``ray.put`` each round); the corpus itself is never
    mutated, fed back, or materialized — every round is one streaming
    pass (E-step ``map_batches`` with the broadcast centroids fused
    into the M-step's ``grouped_centroids`` partial + tiny merge), so
    the per-round plan has CONSTANT size (no iterative-Dataset plan
    growth; cf. the components-stage gotcha, which this deliberately
    avoids by keeping loop state off the Dataset).

    Init is deterministic: the k lowest-``id_col`` rows. Empty
    clusters keep their previous centroid. Returns
    ``(assignments_ds, centroids, inertia)`` — the assignment Dataset
    (id, cluster, dist2), the final (k, d) numpy centroids, and the
    summed squared distance.
    """
    import ray

    seed = (
        emb_ds.map_batches(
            lambda b: b.filter(pc.less(b[id_col], k)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values(id_col)
    )
    cents = np.array(
        [list(v) for v in seed["embedding"]], dtype=np.float64
    )
    if cents.shape[0] < k:
        raise ValueError(f"need >= {k} rows with {id_col} < {k} to seed")

    inertia = float("nan")
    for _ in range(iters):
        ref = ray.put(cents)
        assigned = emb_ds.map_batches(
            lambda b, r=ref: _assign_clusters_batch(b, r, id_col),
            batch_format="pyarrow",
        )
        stats = grouped_centroids(assigned, key="cluster").to_pandas()
        new = cents.copy()  # empty clusters keep their centroid
        for _, row in stats.iterrows():
            new[int(row["cluster"])] = np.array(row["centroid"])
        cents = new

    ref = ray.put(cents)
    final = emb_ds.map_batches(
        lambda b, r=ref: _assign_clusters_batch(b, r, id_col),
        batch_format="pyarrow",
    ).drop_columns(["embedding"])
    inertia = float(
        aggregate(final, [], [("inertia", "sum", "dist2")])["inertia"]
    )
    return final, cents, inertia


def semdedup(
    emb_ds,
    k: int = 8,
    iters: int = 5,
    tau: float = 0.4,
    id_col: str = "vec_id",
):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023):
    k-means-cluster the embedding space, then prune near-duplicate
    pairs WITHIN each cluster only — the clustering makes the
    quadratic pairwise step tractable because it never crosses
    cluster boundaries.

    Partitioning assumption (document per the custom-operator rule):
    at corpus scale ``k`` is chosen so n/k rows fit one task — the
    per-cluster pairwise matmul is O((n/k)^2 d) and the groupby
    shuffle moves each row once. The keep rule is deterministic:
    drop a row iff some LOWER-id row in the same cluster has cosine
    >= ``tau`` (same keep-lowest-id convention as the text near-dup
    family).

    Returns a Dataset (id, cluster, keep: bool). Iterative k-means
    makes the composition SQL-inexpressible (rows-only query);
    pruning parity is pinned against a dense single-node reference
    in pytest.
    """
    import ray

    _final, cents, _inertia = kmeans(emb_ds, k=k, iters=iters, id_col=id_col)
    ref = ray.put(cents)
    assigned = emb_ds.map_batches(
        lambda b, r=ref: _assign_clusters_batch(b, r, id_col),
        batch_format="pyarrow",
    )

    def prune(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        m = _normalize(_matrix_of(group)[order])
        sims = m @ m.T
        n = len(ids)
        # keep[i] == no earlier kept-or-not row within tau. SemDeDup
        # drops against ANY earlier duplicate (not only kept ones):
        # strictly-lower-triangular max per row (masked, so the rule
        # stays correct for tau <= 0 too)
        masked = np.where(np.tri(n, k=-1, dtype=bool), sims, -np.inf)
        keep = masked.max(axis=1, initial=-np.inf) < tau
        return pa.Table.from_pydict(
            {
                id_col: pa.array(ids, pa.int64()),
                "cluster": group["cluster"].take(
                    pa.array(order, pa.int64())
                ).combine_chunks(),
                "keep": pa.array(keep, pa.bool_()),
            }
        )

    return assigned.groupby("cluster").map_groups(
        prune, batch_format="pyarrow"
    )


def semdedup_numpy(ids, vecs, clusters, tau: float = 0.4):
    """Single-node reference for the semdedup prune rule (test
    oracle): given fixed cluster assignments, drop a row iff a
    lower-id same-cluster row is within ``tau`` cosine."""
    import collections

    by_c = collections.defaultdict(list)
    for i, v, c in zip(ids, vecs, clusters):
        by_c[c].append((i, np.asarray(v, dtype=np.float64)))
    keep = {}
    for c, rows in by_c.items():
        rows.sort(key=lambda t: t[0])
        for j, (i, v) in enumerate(rows):
            vn = v / np.linalg.norm(v)
            ok = True
            for i2, v2 in rows[:j]:
                if float(vn @ (v2 / np.linalg.norm(v2))) >= tau:
                    ok = False
                    break
            keep[i] = ok
    return keep


def mmr_select(emb_ds, k: int = 10, lam: float = 0.7,
               query_id: int = 0):
    """Maximal Marginal Relevance diverse top-k (Carbonell &
    Goldstein 1998): greedily select ``k`` vectors maximizing
    ``lam * cos(q, v) - (1 - lam) * max_{s in S} cos(v, s)`` — the
    diversity-aware retrieval/sampling step a training pipeline uses
    to pick representative-but-nonredundant examples.

    Iterative float argmax => rows-only op (the kmeans family: no SQL
    oracle; pinned against a single-node numpy reference in
    tests/test_bpe_snapshot.py). Loop state is ONLY the selected
    (id, vector) set (k x d floats, re-broadcast per round via
    closure); the normalized corpus materializes once and never
    re-enters a growing plan. Each round = ONE map_batches scan with
    a per-block partial argmax; the driver reduces <= n_blocks rows.
    Ties break on (score desc, vec_id asc) — a total order, so the
    selection is deterministic across block layouts.
    """
    norm = emb_ds.map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "vec_id": b["vec_id"],
                "embedding": pa.array(
                    _normalize(_matrix_of(b)).tolist(),
                    pa.list_(pa.float64()),
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def pick_q(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["vec_id"], query_id))

    qrow = norm.map_batches(pick_q, batch_format="pyarrow").take_all()
    if not qrow:
        raise ValueError(f"mmr_select: query_id {query_id} not found")
    q = np.asarray(qrow[0]["embedding"], dtype=np.float64)

    selected: list = []  # (vec_id, vector)
    out_rows = []
    for rank in range(1, k + 1):
        sel_ids = frozenset(int(i) for i, _ in selected) | {query_id}
        smat = (
            np.stack([v for _, v in selected])
            if selected
            else np.empty((0, q.size))
        )

        def block_top1(batch: pa.Table, _q=q, _s=smat, _x=sel_ids):
            empty = pa.Table.from_pydict(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                    "embedding": pa.array([], pa.list_(pa.float64())),
                }
            )
            vids = batch["vec_id"].to_numpy(zero_copy_only=False)
            if vids.size == 0:
                return empty
            m = _matrix_of(batch)
            rel = m @ _q
            pen = (
                (m @ _s.T).max(axis=1)
                if _s.shape[0]
                else np.zeros(vids.size)
            )
            score = lam * rel - (1.0 - lam) * pen
            keep = ~np.isin(vids, np.fromiter(_x, dtype=np.int64))
            if not keep.any():
                return empty
            vids, score, m = vids[keep], score[keep], m[keep]
            i = np.lexsort((vids, -score))[0]
            # the winning vector rides along so the driver never
            # re-scans the corpus to fetch it
            return pa.Table.from_pydict(
                {
                    "vec_id": pa.array([int(vids[i])], pa.int64()),
                    "score": pa.array([float(score[i])], pa.float64()),
                    "embedding": pa.array(
                        [m[i].tolist()], pa.list_(pa.float64())
                    ),
                }
            )

        parts = norm.map_batches(
            block_top1, batch_format="pyarrow"
        ).take_all()
        if not parts:
            break
        best = min(parts, key=lambda r: (-r["score"], r["vec_id"]))
        bid = int(best["vec_id"])
        vec = np.asarray(best["embedding"], dtype=np.float64)
        selected.append((bid, vec))
        out_rows.append(
            {
                "rank": rank,
                "vec_id": bid,
                "score": float(best["score"]),
            }
        )
    import pandas as pd

    return pd.DataFrame(out_rows, columns=["rank", "vec_id", "score"])
