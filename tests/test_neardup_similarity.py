"""Near-dup + similarity operator tests (sf0.001, shared Ray session)."""

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from zzzarchived_arxiv_fulltext_ray.functions import shingles as sk

SF = "/root/testdata/sf0.001"


def _brute_force_pairs(threshold=0.5):
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    hs = {r.doc_id: sk.shingle_hashes(r.text) for r in docs.itertuples()}
    pairs = []
    for a, b in itertools.combinations(sorted(hs), 2):
        j = sk.jaccard_arrays(hs[a], hs[b])
        if j >= threshold:
            pairs.append((a, b, j))
    return pairs


@pytest.fixture(scope="module")
def truth_pairs():
    return _brute_force_pairs()


def _docs_ds():
    import ray.data

    return ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )


def test_ngram_matches_brute_force(ray_session, truth_pairs):
    from zzzarchived_arxiv_fulltext_ray.stages.neardup import neardup_pairs

    got = (
        neardup_pairs(_docs_ds(), method="ngram", threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
    )
    assert list(zip(got.doc_a, got.doc_b, got.jaccard)) == truth_pairs


def test_verify_physical_plans_equivalent(ray_session, truth_pairs):
    """broadcast, partitioned (blob join) and counts verify are the
    same logical operator: identical exact-Jaccard output."""
    from zzzarchived_arxiv_fulltext_ray.stages.neardup import neardup_pairs

    for verify in ("broadcast", "partitioned", "counts"):
        got = (
            neardup_pairs(
                _docs_ds(), method="ngram", threshold=0.5, verify=verify
            )
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
        )
        assert list(zip(got.doc_a, got.doc_b, got.jaccard)) == truth_pairs, verify


def test_minhash_matches_brute_force(ray_session, truth_pairs):
    from zzzarchived_arxiv_fulltext_ray.stages.neardup import neardup_pairs

    got = (
        neardup_pairs(
            _docs_ds(), method="minhash", threshold=0.5, bands=64, rows=2
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
    )
    assert list(zip(got.doc_a, got.doc_b, got.jaccard)) == truth_pairs


def test_simhash_exact_hamming_recall(ray_session):
    """4x16-bit block pigeonhole guarantees 100% recall at hamming<=3:
    the operator must return EXACTLY the brute-force hamming<=3 pairs."""
    from zzzarchived_arxiv_fulltext_ray.stages.neardup import simhash_pairs

    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    sh = {
        r.doc_id: sk.simhash64(sk.shingle_hashes(r.text))
        for r in docs.itertuples()
    }
    truth = {
        (a, b, sk.hamming64(sh[a], sh[b]))
        for a, b in itertools.combinations(sorted(sh), 2)
        if sk.hamming64(sh[a], sh[b]) <= 3
    }
    got = simhash_pairs(_docs_ds(), max_hamming=3).to_pandas()
    assert set(zip(got.doc_a, got.doc_b, got.hamming)) == truth


def test_minhash_scale_preset_recall_at_high_threshold(ray_session):
    """The documented scale preset (bands=16, rows=8) must recover
    every J>=0.8 pair (miss prob (1-J^8)^16 <= 3% at J=0.8, ~0 above;
    this corpus's near-dup pairs are near-identical)."""
    from zzzarchived_arxiv_fulltext_ray.stages.neardup import neardup_pairs

    truth = [
        (a, b, j) for a, b, j in _brute_force_pairs(threshold=0.8)
    ]
    got = (
        neardup_pairs(
            _docs_ds(), method="minhash", threshold=0.8,
            bands=16, rows=8,
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
    )
    got_pairs = set(zip(got.doc_a, got.doc_b))
    want_pairs = {(a, b) for a, b, _ in truth}
    assert got_pairs <= want_pairs  # verify is exact: no false positives
    if want_pairs:
        assert len(got_pairs & want_pairs) / len(want_pairs) >= 0.97


def test_minhash_estimate_tracks_jaccard():
    mh = sk.MinHasher(256)
    a = sk.shingle_hashes("the quick brown fox jumps over the lazy dog " * 5)
    b = sk.shingle_hashes("the quick brown fox leaps over the lazy dog " * 5)
    est = (mh.signature(a) == mh.signature(b)).mean()
    true = sk.jaccard_arrays(a, b)
    assert abs(est - true) < 0.15


def _embeddings():
    df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    ids = df.vec_id.to_numpy()
    m = np.array(df.embedding.tolist(), dtype=np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    return ids, m


def test_ann_topk_matches_numpy(ray_session):
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import ann_topk

    ids, m = _embeddings()
    got = (
        ann_topk(
            ray.data.read_parquet(f"{SF}/embeddings.parquet"),
            query_ids=[0, 1, 2],
            k=5,
        )
        .to_pandas()
        .groupby("query_id")["neighbor_id"]
        .apply(set)
        .to_dict()
    )
    sims = m[:3] @ m.T
    for q in range(3):
        order = np.argsort(-sims[q])
        expect = [int(ids[i]) for i in order if ids[i] != q][:5]
        assert got[q] == set(expect)


def test_embedding_neardup_exact_and_lsh(ray_session):
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import (
        embedding_neardup,
        embedding_neardup_lsh,
    )

    ids, m = _embeddings()
    sims = m @ m.T
    np.fill_diagonal(sims, -2)
    truth = {
        (int(ids[i]), int(ids[j]))
        for i, j in zip(*np.where(sims >= 0.4))
        if ids[i] < ids[j]
    }

    exact = embedding_neardup(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"), threshold=0.4
    ).to_pandas()
    assert set(zip(exact.vec_a, exact.vec_b)) == truth

    lsh = embedding_neardup_lsh(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"),
        threshold=0.4,
        bands=16,
        planes_per_band=4,
    ).to_pandas()
    lsh_set = set(zip(lsh.vec_a, lsh.vec_b))
    # verified subset of truth; recall depends on banding
    assert lsh_set <= truth
    if truth:
        assert len(lsh_set) / len(truth) >= 0.8


def test_partitioned_hash_join_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        broadcast_anti_join,
        partitioned_hash_join,
    )

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "lv": ["a", "b", "c", "d", "e"]})
    right = pd.DataFrame({"k": [2, 3, 3, 4], "rv": [10, 20, 30, 40]})
    got = (
        partitioned_hash_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            key="k",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, on="k")
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    assert got[["k", "lv", "rv"]].equals(want)

    kept = broadcast_anti_join(
        ray.data.from_pandas(left), "k", {2, 5}
    ).to_pandas()
    assert sorted(kept.k.tolist()) == [1, 3]


def test_partitioned_anti_semi_join(ray_session):
    """The no-broadcast spelling of the blocklist / exists-already
    patterns; anti + semi partition the left side exactly."""
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        partitioned_hash_join,
    )

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "lv": ["a", "b", "c", "d", "e"]})
    right = pd.DataFrame({"k": [2, 3, 3, 4], "rv": [10, 20, 30, 40]})
    anti = partitioned_hash_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        key="k", num_buckets=4, how="anti",
    ).to_pandas()
    semi = partitioned_hash_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        key="k", num_buckets=4, how="semi",
    ).to_pandas()
    assert sorted(anti.k.tolist()) == [1, 5]
    assert sorted(semi.lv.tolist()) == ["b", "c", "d"]
    # anti + semi is a partition of left
    assert len(anti) + len(semi) == len(left)
    assert list(anti.columns) == ["k", "lv"]  # left columns only


def test_ivf_topk_recall(ray_session):
    """IVF probing half the lists recovers most of the exact top-k on
    this near-uniform synthetic corpus (real clustered embeddings give
    higher recall at lower probe counts); probing every list must
    reproduce the exact top-k."""
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import ivf_topk

    ids, m = _embeddings()
    sims = m[:4] @ m.T
    exact = {}
    for q in range(4):
        order = np.argsort(-sims[q])
        exact[q] = [int(ids[i]) for i in order if ids[i] != q][:10]

    got = (
        ivf_topk(
            ray.data.read_parquet(f"{SF}/embeddings.parquet"),
            query_ids=[0, 1, 2, 3],
            k=10,
            n_clusters=16,
            n_probe=8,
        )
        .to_pandas()
        .groupby("query_id")["neighbor_id"]
        .apply(set)
        .to_dict()
    )
    recalls = [len(got[q] & set(exact[q])) / 10 for q in range(4)]
    assert min(recalls) >= 0.5 and sum(recalls) / 4 >= 0.6

    full = (
        ivf_topk(
            ray.data.read_parquet(f"{SF}/embeddings.parquet"),
            query_ids=[0, 1],
            k=10,
            n_clusters=16,
            n_probe=16,
        )
        .to_pandas()
        .groupby("query_id")["neighbor_id"]
        .apply(set)
        .to_dict()
    )
    for q in range(2):
        assert full[q] == set(exact[q])


def test_popcount64_matches_scalar_hamming():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2**63, size=500, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, 2**63, size=500, dtype=np.int64).astype(np.uint64)
    got = sk.popcount64(a ^ b)
    want = [sk.hamming64(int(x), int(y)) for x, y in zip(a, b)]
    assert got.tolist() == want
    assert sk.popcount64(np.array([], np.uint64)).size == 0
    assert sk.popcount64(np.array([0, 2**64 - 1], np.uint64)).tolist() == [0, 64]


def test_simhash_hot_block_capped(ray_session, caplog):
    """A hot 16-bit block bucket (identical/templated docs) must be
    dropped+logged at max_bucket, not ground through an O(n^2) task."""
    import logging

    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.neardup import simhash_pairs

    n = 40
    docs = ray.data.from_items(
        [{"doc_id": i, "text": "the same templated boilerplate line " * 10}
         for i in range(n)]
    )
    # uncapped: every pair is hamming 0
    full = simhash_pairs(docs, max_hamming=3, max_bucket=4096).to_pandas()
    assert len(full) == n * (n - 1) // 2
    assert (full.hamming == 0).all()
    # capped: all 4 block buckets are hot -> dropped, logged, zero pairs
    with caplog.at_level(logging.WARNING):
        capped = simhash_pairs(docs, max_hamming=3, max_bucket=10).to_pandas()
    assert len(capped) == 0


def test_ngram_counts_drop_guard(ray_session):
    """The counts plan must not silently under-count |A intersect B|
    under hot-bucket drops: 'fallback' reruns the exact blob plan,
    'approx' proceeds (possibly under-counted), 'error' raises."""
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.neardup import (
        neardup_pairs_ngram_counts,
    )

    # 8 docs sharing a hot template (those buckets hold all 8 docs ->
    # dropped at max_bucket=4); docs 0 and 1 additionally share a rare
    # suffix, whose buckets (size 2) survive the cap
    template = "alpha beta gamma delta epsilon zeta eta theta " * 3
    docs = [
        {"doc_id": i,
         "text": template + (
             "rare quartz needle motif harbor"
             if i < 2 else f"tailx{i} taily{i} tailz{i}"
         )}
        for i in range(8)
    ]
    exact = neardup_pairs_ngram_counts(
        ray.data.from_items(docs), threshold=0.5, max_bucket=256
    ).to_pandas()
    assert len(exact) == 8 * 7 // 2  # template dominates every pair

    fb = neardup_pairs_ngram_counts(
        ray.data.from_items(docs), threshold=0.5, max_bucket=4,
        on_drop="fallback",
    ).to_pandas().sort_values(["doc_a", "doc_b"])
    # fallback = blob plan under the same max_bucket: candidates from
    # hot buckets are lost the same way bucket_pairs loses them
    from zzzarchived_arxiv_fulltext_ray.stages.neardup import neardup_pairs

    blob = neardup_pairs(
        ray.data.from_items(docs), method="ngram", threshold=0.5,
        max_bucket=4, verify="partitioned",
    ).to_pandas().sort_values(["doc_a", "doc_b"])
    assert list(map(tuple, fb.values)) == list(map(tuple, blob.values))
    # docs 0/1 are full duplicates, found via the surviving rare
    # buckets; the blob plan scores their FULL sets -> jaccard 1.0
    assert len(fb) == 1 and fb.iloc[0].jaccard == 1.0

    approx = neardup_pairs_ngram_counts(
        ray.data.from_items(docs), threshold=0.5, max_bucket=4,
        on_drop="approx",
    ).to_pandas()
    # approx only counts surviving buckets -> under-reports (here the
    # (0,1) pair's counted jaccard falls below threshold entirely)
    assert len(approx) < len(fb) or len(approx) == 0

    import pytest as _pytest

    with _pytest.raises(RuntimeError, match="hot buckets"):
        neardup_pairs_ngram_counts(
            ray.data.from_items(docs), threshold=0.5, max_bucket=4,
            on_drop="error",
        )


def test_neardup_no_duplicates_corpus(ray_session):
    """A corpus with zero near-dup pairs must yield empty results (not
    schema errors) through every verify plan and through simhash."""
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.neardup import (
        neardup_pairs,
        simhash_pairs,
    )

    docs = ray.data.from_items(
        [{"doc_id": i,
          "text": f"totally unique document number {i} about topic"
                  f" alpha{i} beta{i} gamma{i} delta{i} epsilon{i}"}
         for i in range(20)]
    )
    for verify in ("broadcast", "partitioned", "counts"):
        got = neardup_pairs(
            ray.data.from_items(docs.take_all()), method="ngram",
            threshold=0.9, verify=verify,
        ).to_pandas()
        assert len(got) == 0, verify
    sh = simhash_pairs(
        ray.data.from_items(docs.take_all()), max_hamming=0
    ).to_pandas()
    assert len(sh) == 0


def test_grouped_centroids_match_numpy(ray_session):
    import pandas as pd
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import (
        grouped_centroids,
    )

    rng = np.random.default_rng(13)
    n, d = 1200, 16
    labels = rng.integers(0, 7, n).astype(np.int64)
    mat = rng.normal(size=(n, d))
    df = pd.DataFrame(
        {"label": labels, "embedding": [row.tolist() for row in mat]}
    )
    got = (
        grouped_centroids(rd.from_pandas(df).repartition(9), key="label")
        .to_pandas()
        .sort_values("label")
        .reset_index(drop=True)
    )
    for _, row in got.iterrows():
        sel = mat[labels == row["label"]]
        want = sel.mean(axis=0)
        np.testing.assert_allclose(
            np.array(row["centroid"]), want, atol=1e-12
        )
        assert row["n_vecs"] == sel.shape[0]
        np.testing.assert_allclose(
            row["centroid_norm"], np.linalg.norm(want), atol=1e-12
        )
        np.testing.assert_allclose(
            row["total_sum"], sel.sum(), atol=1e-9
        )


def test_kmeans_matches_single_node_lloyds(ray_session):
    """Distributed Lloyd's == plain numpy Lloyd's with the identical
    deterministic init, iteration count and distance expression."""
    import pandas as pd
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import kmeans

    rng = np.random.default_rng(21)
    n, d, k, iters = 900, 12, 6, 4
    mat = rng.normal(size=(n, d)) + rng.integers(0, 3, (n, 1)) * 2.0
    df = pd.DataFrame(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": [row.tolist() for row in mat],
        }
    )

    final, cents, inertia = kmeans(
        rd.from_pandas(df).repartition(8), k=k, iters=iters
    )
    got = (
        final.to_pandas().sort_values("vec_id").reset_index(drop=True)
    )

    # reference Lloyd's
    c = mat[:k].copy()
    for _ in range(iters):
        scores = mat @ c.T * -2.0 + (c * c).sum(axis=1)
        a = np.argmin(scores, axis=1)
        for j in range(k):
            if (a == j).any():
                c[j] = mat[a == j].mean(axis=0)
    scores = mat @ c.T * -2.0 + (c * c).sum(axis=1)
    a = np.argmin(scores, axis=1)
    d2 = scores[np.arange(n), a] + (mat * mat).sum(axis=1)

    assert (got["cluster"].to_numpy() == a).all()
    np.testing.assert_allclose(cents, c, atol=1e-9)
    np.testing.assert_allclose(inertia, d2.sum(), rtol=1e-9)


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    import pandas as pd
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import kmeans

    # centroid 2 seeds far away from all mass -> never assigned
    mat = np.array(
        [[0.0, 0.0], [1.0, 1.0], [100.0, 100.0]]
        + [[0.1 * i, 0.1] for i in range(20)]
    )
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(mat), dtype=np.int64),
            "embedding": [r.tolist() for r in mat],
        }
    )
    # vec_id 2 is the far seed; no point is nearer to it than to the
    # others except itself -> after reassignment it keeps itself
    final, cents, _ = kmeans(rd.from_pandas(df), k=3, iters=3)
    assert cents.shape == (3, 2)
    assert np.isfinite(cents).all()


def test_signatures_flat_matches_per_doc():
    from zzzarchived_arxiv_fulltext_ray.functions import shingles as sk

    rng = np.random.default_rng(0)
    sets = [
        rng.integers(0, 2**63, size=n, dtype=np.uint64)
        for n in [5, 0, 40, 1, 17, 0]
    ]
    flat = np.concatenate(sets)
    offs = np.cumsum([0] + [len(s) for s in sets]).astype(np.int64)
    mh = sk.MinHasher(128)
    batched = mh.signatures_flat(flat, offs)
    for i, s in enumerate(sets):
        assert (batched[:, i] == mh.signature(s)).all(), i


def test_band_key_matrix_groups_iff_band_rows_equal():
    from zzzarchived_arxiv_fulltext_ray.functions import shingles as sk

    rng = np.random.default_rng(1)
    a = rng.integers(0, 2**63, 30, dtype=np.uint64)
    mh = sk.MinHasher(128)
    sa = mh.signature(a)
    sb = sa.copy()
    sb[5] ^= np.uint64(1)  # perturb one row -> exactly one band differs
    sig = np.stack([sa, sa, sb], axis=1)
    km = sk.band_key_matrix(sig, 64, 2)
    assert (km[:, 0] == km[:, 1]).all()
    diff = km[:, 0] != km[:, 2]
    assert diff.sum() == 1 and diff[5 // 2]


def test_minhash_band_batch_vectorized_stage():
    import pyarrow as pa

    from zzzarchived_arxiv_fulltext_ray.stages import neardup as nd

    docs = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["a b c d e f", "a b c d e f", "x y z w v u"], pa.string()
            ),
        }
    )
    shingled = nd.shingle_batch(docs)
    out = nd.minhash_band_batch(shingled, 128, 64, 2)
    assert out.num_rows == 3 * 64
    k = out.to_pandas().pivot_table(
        index="doc_id", values="bucket_key", aggfunc=list
    )
    # identical docs share every band key; disjoint docs share none
    k1, k2, k3 = (set(k.loc[i, "bucket_key"]) for i in (1, 2, 3))
    assert k1 == k2
    assert not (k1 & k3)


def test_semdedup_matches_dense_reference(ray_session):
    """Distributed SemDeDup prune == dense single-node rule, on a
    corpus WITH planted near-duplicates (the synthetic embeddings are
    near-orthogonal, so duplicates are injected as jittered copies)."""
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import (
        semdedup,
        semdedup_numpy,
    )

    rng = np.random.default_rng(11)
    base = rng.normal(size=(120, 16))
    # rows 120..149 are jittered copies of rows 0..29 -> real dups
    dup = base[:30] + rng.normal(scale=0.01, size=(30, 16))
    vecs = np.vstack([base, dup])
    ids = np.arange(len(vecs))
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )
    out = semdedup(ds, k=4, iters=3, tau=0.95).to_pandas()
    got = dict(zip(out["vec_id"].astype(int), out["keep"].astype(bool)))

    clusters = dict(zip(out["vec_id"].astype(int), out["cluster"].astype(int)))
    f32 = vecs.astype(np.float32)  # match the Dataset's storage dtype
    want = semdedup_numpy(
        ids, f32, [clusters[i] for i in ids], tau=0.95
    )
    assert got == want
    # the planted copies must actually be dropped (same cluster as
    # their originals at this jitter level)
    dropped = {i for i, k in got.items() if not k}
    assert len(dropped & set(range(120, 150))) >= 25
    assert all(got[i] for i in range(30))  # originals kept


def test_cross_neardup_counts_matches_brute_force(ray_session):
    """Cross-set counts plan == brute force on both score modes, and
    a snippet rediscovers its source doc at containment 1.0."""
    import pandas as pd
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.neardup import (
        cross_neardup_counts,
    )

    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    left = docs[docs.doc_id % 10 == 0][["doc_id", "text"]]
    right = docs[docs.doc_id % 10 != 0][["doc_id", "text"]]

    got = (
        cross_neardup_counts(
            rd.from_arrow(pa.Table.from_pandas(left)),
            rd.from_arrow(pa.Table.from_pandas(right)),
            threshold=0.5,
            score="jaccard",
        )
        .to_pandas()
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )
    hs = {r.doc_id: sk.shingle_hashes(r.text) for r in docs.itertuples()}
    want = []
    for a in sorted(left.doc_id):
        for b in sorted(right.doc_id):
            j = sk.jaccard_arrays(hs[a], hs[b])
            if j >= 0.5:
                want.append((a, b, j))
    assert list(map(tuple, got.itertuples(index=False))) == [
        (a, b, pytest.approx(j)) for a, b, j in want
    ]

    # containment: each snippet (first half of its source doc's words)
    # must hit its own source at exactly 1.0
    snips = []
    for r in docs[docs.doc_id % 7 == 0].itertuples():
        w = r.text.split()
        if len(w) >= 6:
            snips.append((r.doc_id, " ".join(w[: (len(w) + 1) // 2])))
    sn_tbl = pa.Table.from_pydict(
        {
            "doc_id": pa.array([s[0] for s in snips], pa.int64()),
            "text": pa.array([s[1] for s in snips], pa.string()),
        }
    )
    cont = (
        cross_neardup_counts(
            rd.from_arrow(sn_tbl),
            rd.from_arrow(
                pa.Table.from_pandas(docs[["doc_id", "text"]])
            ),
            threshold=0.8,
            score="containment",
        )
        .to_pandas()
    )
    self_hits = cont[cont.left_id == cont.right_id]
    assert set(self_hits.left_id) == {s[0] for s in snips}
    assert (self_hits.score == 1.0).all()


def test_cross_neardup_counts_empty_side(ray_session):
    """A schema-typed empty side yields a typed empty result (the
    schema-less-empty join guard family)."""
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.neardup import (
        cross_neardup_counts,
    )

    empty = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
            }
        )
    )
    full = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    ["alpha beta gamma delta", "alpha beta gamma delta"],
                    pa.string(),
                ),
            }
        )
    )
    out = cross_neardup_counts(empty, full, threshold=0.5)
    # the Dataset must stay TYPED at zero rows (this Ray build's
    # Dataset.to_pandas() drops columns on empty datasets, so assert
    # the schema on the Dataset, the actual contract)
    assert out.schema() is not None
    assert out.schema().names == ["left_id", "right_id", "score"]
    assert len(out.to_pandas()) == 0
