"""Webtext-curation operators: PII scrubbing, per-domain cap,
decontamination (both physical plans pinned equal), repetition."""

from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.stages.topk import (
    topk_batch,
    topk_per_group,
)
from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
    decontaminate,
    pii_scrub_batch,
    repetition_batch,
    shingle_hash_batch,
)

SF = "/root/testdata/sf0.001"
LONGEST_FIRST = [("n_chars", "descending"), ("doc_id", "ascending")]


def _t(**cols):
    return pa.Table.from_pydict(cols)


# ------------------------------------------------------------- PII

def test_pii_scrub_counts_and_redaction():
    out = pii_scrub_batch(
        _t(
            doc_id=[1, 2, 3],
            text=[
                "mail a.b+c@x-y.example.com twice a@b.io end",
                "call 415-555-0001 or 415-555-0002 from 10.0.0.1",
                "clean document",
            ],
        )
    )
    assert out["n_email"].to_pylist() == [2, 0, 0]
    assert out["n_phone"].to_pylist() == [0, 2, 0]
    assert out["n_ip"].to_pylist() == [0, 1, 0]
    assert out["clean"].to_pylist() == [
        "mail <EMAIL> twice <EMAIL> end",
        "call <PHONE> or <PHONE> from <IP>",
        "clean document",
    ]


def test_pii_email_domain_not_counted_as_ip():
    # the email's dotted domain must be redacted before the IP pass
    out = pii_scrub_batch(_t(doc_id=[1], text=["u@10.1.2.3.example.com x"]))
    assert out["n_email"].to_pylist() == [1]
    assert out["n_ip"].to_pylist() == [0]


# ------------------------------------------------------ grouped cap

def test_topk_partial_is_lossless_building_block():
    batch = _t(
        domain=["a", "a", "a", "b", "b"],
        doc_id=[1, 2, 3, 4, 5],
        n_chars=[10, 30, 30, 5, 7],
    )
    out = topk_batch(batch, 2, LONGEST_FIRST, group="domain")
    got = sorted(zip(out["domain"].to_pylist(), out["doc_id"].to_pylist()))
    # ties broken by doc_id asc: a keeps 2,3 (30,30); b keeps both
    assert got == [("a", 2), ("a", 3), ("b", 4), ("b", 5)]


def test_capped_topk_matches_brute_force(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    n = 2000
    df = pd.DataFrame(
        {
            "domain": [f"d{int(x)}" for x in rng.integers(0, 17, n)],
            "doc_id": np.arange(n, dtype=np.int64),
            "n_chars": rng.integers(0, 1000, n).astype(np.int64),
        }
    )
    ds = rd.from_pandas(df).repartition(9)
    got = (
        topk_per_group(ds, "domain", 4, LONGEST_FIRST)
        .to_pandas()
        .sort_values(["domain", "doc_id"])
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(
            ["domain", "n_chars", "doc_id"],
            ascending=[True, False, True],
        )
        .groupby("domain")
        .head(4)
        .sort_values(["domain", "doc_id"])
        .reset_index(drop=True)[["domain", "doc_id", "n_chars"]]
    )
    pd.testing.assert_frame_equal(got, want)


# -------------------------------------------------- decontamination

def test_shingle_hash_dedups_and_skips_short_docs():
    out = shingle_hash_batch(
        _t(doc_id=[1, 2], text=["a b a b a b", "too short"]), n=3
    )
    # doc 1 has 4 positional 3-grams but only 2 distinct; doc 2 has none
    assert out["doc_id"].to_pylist() == [1, 1]
    assert len(set(out["gram_hash"].to_pylist())) == 2


def test_decontaminate_plans_equal(ray_session):
    import ray.data as rd

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    def split(member):
        def fn(b):
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            m = ids % 11 == 0
            return b.filter(pa.array(m if member else ~m))

        return fn

    corpus = docs.map_batches(split(False), batch_format="pyarrow")
    bench = docs.map_batches(split(True), batch_format="pyarrow")
    a = (
        decontaminate(corpus, bench, n=3, plan="broadcast")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        decontaminate(corpus, bench, n=3, plan="partitioned")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_decontaminate_empty_benchmark(ray_session):
    import ray.data as rd

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    empty = docs.filter(lambda r: False)
    out = decontaminate(docs, empty, n=3, plan="broadcast").to_pandas()
    assert len(out) == 0


# ------------------------------------------------------- repetition

def test_repetition_flags_and_threshold_boundary():
    out = repetition_batch(
        _t(
            doc_id=[1, 2, 3],
            text=[
                "x y x y x y x y x y x",  # 'x y' 5 of 10 grams -> 50%
                " ".join(f"w{i}" for i in range(21)),  # all distinct: 5%
                "a",  # too short: dropped
            ],
        ),
        n=2,
        pct_threshold=5,
    )
    assert out["doc_id"].to_pylist() == [1, 2]
    assert out["repetitive"].to_pylist() == [True, False]
    # boundary: 1*100 > 5*20 is False (strict), matching the SQL
    assert out["n_top"].to_pylist()[1] == 1
    assert out["n_grams"].to_pylist()[1] == 20


# -------------------------------------------------- cross-doc line dedup

def _line_dedup_brute(texts, min_count):
    from collections import Counter

    counts = Counter(
        line for t in texts for line in t.split("\n")
    )
    out = []
    for t in texts:
        lines = t.split("\n")
        kept = [l for l in lines if counts[l] < min_count]
        out.append(
            (
                len(lines),
                len(lines) - len(kept),
                "\n".join(kept),
            )
        )
    return out


def test_line_dedup_matches_brute_force(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import line_dedup

    rng = np.random.default_rng(5)
    boiler = [f"boilerplate {i}" for i in range(4)]
    texts = []
    for i in range(300):
        lines = [f"unique body {i} " + "x" * int(rng.integers(1, 9))]
        for b in boiler:
            if rng.random() < 0.4:
                lines.append(b)
        if i % 50 == 0:
            lines.append("semi rare line")  # exactly 6 occurrences
        rng.shuffle(lines)
        texts.append("\n".join(lines))
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64), "text": texts})
    got = (
        line_dedup(rd.from_pandas(df).repartition(7), min_count=6)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _line_dedup_brute(texts, 6)
    assert got["n_lines"].tolist() == [w[0] for w in want]
    assert got["n_removed"].tolist() == [w[1] for w in want]
    assert got["clean"].tolist() == [w[2] for w in want]
    # the semi-rare line sits exactly ON the >= min_count boundary
    assert all("semi rare line" not in c for c in got["clean"])


def test_line_dedup_all_boilerplate_doc_keeps_row(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import line_dedup

    texts = ["same line\nsame line"] + ["same line"] * 4 + ["keep me"]
    df = pd.DataFrame(
        {"doc_id": np.arange(6, dtype=np.int64), "text": texts}
    )
    got = (
        line_dedup(rd.from_pandas(df), min_count=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == 6
    assert got.loc[0, "clean"] == "" and got.loc[0, "n_removed"] == 2
    assert got.loc[5, "clean"] == "keep me" and got.loc[5, "n_removed"] == 0


def test_line_dedup_no_hot_lines_is_identity(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import line_dedup

    df = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": [f"only {i}\nbody {i}" for i in range(4)],
        }
    )
    got = (
        line_dedup(rd.from_pandas(df), min_count=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["n_removed"].sum() == 0
    assert got["clean"].tolist() == df["text"].tolist()


# ---------------------------------------------- grouped split + scorer

def test_domain_split_never_leaks(ray_session):
    """Every domain lands in exactly one split, and the assignment is
    the md5-nibble contract (re-derivable by any engine)."""
    import hashlib

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        domain_split_batch,
    )

    domains = [f"d{i}.example.org" for i in range(40)] * 25
    batch = _t(
        domain=domains,
        doc_id=list(range(1000)),
    )
    out = domain_split_batch(batch)
    df = out.to_pandas()
    per_domain = df.groupby("domain")["split"].nunique()
    assert (per_domain == 1).all()
    for d, s in df.drop_duplicates("domain")[["domain", "split"]].values:
        nib = int(hashlib.md5(d.encode()).hexdigest()[-1], 16)
        want = "train" if nib < 12 else ("valid" if nib < 14 else "test")
        assert s == want


def test_hashed_linear_scorer_matches_brute_force():
    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        HashedLinearScorer,
    )

    texts = [
        "alpha bb ccc  dddd",   # double space -> empty token skipped
        "",                      # zero tokens -> score 0.0
        "x",                     # single token
    ]
    out = HashedLinearScorer()(
        _t(doc_id=[0, 1, 2], text=texts)
    ).to_pandas()

    def w(tok):
        return ((len(tok) * 2654435761) % 1000) / 1000.0 - 0.5

    for i, t in enumerate(texts):
        toks = [x for x in t.split() if x]
        assert out.loc[i, "n_tokens"] == len(toks)
        want = sum(w(x) for x in toks) / len(toks) if toks else 0.0
        assert abs(out.loc[i, "score"] - want) < 1e-12


def test_hashed_linear_scorer_broadcast_weights(ray_session):
    """The weight_ref slot: learned weights shipped once via ray.put,
    read in __init__ — scores follow the broadcast table."""
    import numpy as np
    import ray

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        HashedLinearScorer,
    )

    w = np.zeros(HashedLinearScorer.N_FEATURES)
    w[(1 * 2654435761) % 1000] = 7.0  # only 1-char tokens score
    ref = ray.put(w)
    out = HashedLinearScorer(weight_ref=ref)(
        _t(doc_id=[0], text=["a bb a"])
    ).to_pandas()
    assert abs(out.loc[0, "score"] - (7.0 + 0.0 + 7.0) / 3) < 1e-12


# ------------------------------------------------- grouped quantiles

def test_grouped_quantile_matches_duckdb_convention(ray_session):
    """Engine rank = ceil(q*n) in integer arithmetic == DuckDB
    quantile_disc, across group sizes that stress float rounding
    (0.9*10 = 9.000000000000002 would ceil to 10 in float math)."""
    import duckdb
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    rng = np.random.default_rng(3)
    frames = []
    for gi, size in enumerate([10, 4, 5, 11, 100, 1]):
        frames.append(
            pd.DataFrame(
                {
                    "g": np.full(size, gi, np.int64),
                    "v": rng.integers(0, 50, size).astype(np.int64),
                }
            )
        )
    df = pd.concat(frames, ignore_index=True)
    th = quantiles(
        rd.from_pandas(df).repartition(5), "v",
        {"threshold": Fraction(9, 10)}, by="g",
    )
    want = (
        duckdb.connect()
        .execute(
            "SELECT g, quantile_disc(v, 0.9) AS t FROM df GROUP BY g ORDER BY g"
        )
        .fetchdf()
    )
    assert th["threshold"].tolist() == want["t"].tolist()
    assert th["n"].tolist() == df.groupby("g").size().tolist()


def test_quantile_filter_keeps_at_most_decile_plus_ties(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        quantile_filter,
    )

    df = pd.DataFrame(
        {
            "g": np.zeros(100, np.int64),
            "v": np.arange(100, dtype=np.int64),
        }
    )
    kept = quantile_filter(
        rd.from_pandas(df), "g", "v", Fraction(9, 10)
    ).to_pandas()
    # threshold = value at rank ceil(0.9*100)=90 -> v=89; keep v>=89
    assert sorted(kept["v"].tolist()) == list(range(89, 100))


# ------------------------------------------------- Bloom dedup guard

def test_bloom_guard_no_false_negatives_and_bounded_fp(ray_session):
    import ray
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.dedup import (
        bloom_guard_filter,
        build_key_bloom,
    )

    n = 20000
    df = pd.DataFrame(
        {
            "url": [f"https://h/{i}" for i in range(n)],
            "doc_id": np.arange(n, dtype=np.int64),
        }
    )
    seen_df = df[df.doc_id % 2 == 0]
    seen = rd.from_pandas(seen_df).repartition(6)
    bloom = build_key_bloom(seen, col="url", n_bits=1 << 20, k=4)
    ref = ray.put(bloom)
    passed = bloom_guard_filter(
        rd.from_pandas(df).repartition(4), ref, col="url"
    ).to_pandas()
    # no false negatives: every seen url is skipped
    assert (passed["doc_id"] % 2 == 1).all()
    # bounded false positives: 10k keys in 2^20 bits at k=4 -> well
    # under 1% of the new half wrongly skipped
    n_new = n // 2
    fp = (n_new - len(passed)) / n_new
    assert fp < 0.01, fp


def test_bloom_guard_stable_hash_mode(ray_session):
    """stable_hash=True (the oracle-replayable md5 keying) keeps the
    guard contract: zero false negatives, bounded FP — and its bit
    positions match a pure-Python replay of the documented formula
    (h1 + i*(splitmix64(h1)|1)) mod n_bits."""
    import ray
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.functions.shingles import (
        _splitmix64,
        stable_hash64,
    )
    from zzzarchived_arxiv_fulltext_ray.stages.dedup import (
        bloom_guard_filter,
        build_key_bloom,
    )

    n = 4000
    df = pd.DataFrame(
        {
            "url": [f"https://h/{i}" for i in range(n)],
            "doc_id": np.arange(n, dtype=np.int64),
        }
    )
    seen = rd.from_pandas(df[df.doc_id % 2 == 0]).repartition(4)
    bloom = build_key_bloom(
        seen, col="url", n_bits=1 << 16, k=4, stable_hash=True
    )
    ref = ray.put(bloom)
    passed = bloom_guard_filter(
        rd.from_pandas(df), ref, col="url", stable_hash=True
    ).to_pandas()
    assert (passed["doc_id"] % 2 == 1).all()
    fp = (n // 2 - len(passed)) / (n // 2)
    assert fp < 0.02, fp
    # formula replay: which odd urls probe positive
    mask = (1 << 16) - 1
    ins = set()
    for i in range(0, n, 2):
        h1 = stable_hash64(f"https://h/{i}")
        h2 = int(_splitmix64(np.array([h1], dtype=np.uint64))[0]) | 1
        for j in range(4):
            ins.add((h1 + j * h2) & mask)
    expect_skip = set()
    for i in range(1, n, 2):
        h1 = stable_hash64(f"https://h/{i}")
        h2 = int(_splitmix64(np.array([h1], dtype=np.uint64))[0]) | 1
        if all((h1 + j * h2) & mask in ins for j in range(4)):
            expect_skip.add(i)
    got_pass = set(passed["doc_id"].tolist())
    assert got_pass == {
        i for i in range(1, n, 2) if i not in expect_skip
    }


def test_bloom_tree_merge_equals_single_build(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.functions.sketches import (
        BloomFilter,
    )
    from zzzarchived_arxiv_fulltext_ray.stages.dedup import build_key_bloom

    df = pd.DataFrame({"url": [f"u{i}" for i in range(5000)]})
    distributed = build_key_bloom(
        rd.from_pandas(df).repartition(7), col="url",
        n_bits=1 << 18, k=3, tree_width=3,
    )
    from zzzarchived_arxiv_fulltext_ray.functions.hashing import (
        hash64_column,
    )
    import pyarrow as pa_

    single = BloomFilter(1 << 18, 3)
    single.add_hashes(hash64_column(pa_.array(df["url"])))
    assert (distributed.bits == single.bits).all()


def test_bigram_pmi_handles_multibyte_and_ties(ray_session):
    """np.char.partition / searchsorted path with non-ASCII tokens and
    PMI ties (deterministic bigram-asc tiebreak)."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries_webtext import (
        _q_bigram_pmi,
    )
    import duckdb
    import os
    import tempfile

    texts = (
        ["héllo wörld münchen café"] * 7
        + ["wörld café münchen héllo"] * 7
        + ["aa bb", "bb aa"] * 5
    )
    with tempfile.TemporaryDirectory() as d:
        pd.DataFrame(
            {
                "doc_id": np.arange(len(texts), dtype=np.int64),
                "text": texts,
                "lang": ["xx"] * len(texts),
                "n_chars": [len(t) for t in texts],
            }
        ).to_parquet(os.path.join(d, "documents.parquet"))
        got = _q_bigram_pmi(d)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')"
        )
        from zzzarchived_arxiv_fulltext_ray.pipelines.queries_webtext import (
            WEBTEXT_ORACLE_SQL,
        )
        want = con.execute(WEBTEXT_ORACLE_SQL["bigram_pmi"]).fetchdf()
    assert got["bigram"].tolist() == want["bigram"].tolist()
    np.testing.assert_allclose(got["pmi"], want["pmi"], rtol=1e-12)


# ---------------------------------------------- Gopher quality rules

def test_gopher_verdicts_cover_every_rule():
    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        gopher_verdict_batch,
    )

    docs = {
        # 40+ words, has 'the' and 'a', sane structure -> keep
        "keep": "the quick brown fox jumps over a lazy dog " * 5,
        "bad_word_count": "the a short doc",
        # 40 one-char words: mean word length 1 < 3
        "bad_mean_word_len": "x " * 40,
        # words fine but 6 hashes on 40 words -> 60 > 40
        "high_symbol_ratio": "the a " + "word " * 38 + "### ###",
        "too_many_bullets": "the a "
        + "word " * 38
        + "\n- one\n- two\n- three\n- four",
        "too_many_ellipsis": "the a " + "word " * 38 + "\nfin...\nfin...",
        # 40 words, mean length in range, only 10 contain a letter
        "low_alpha_words": "the a " + "4444 " * 30 + "word " * 8,
        "few_stopwords": "word " * 40,
    }
    batch = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(list(docs.values()), pa.string()),
        }
    )
    out = gopher_verdict_batch(batch)
    got = dict(zip(docs.keys(), out["verdict"].to_pylist()))
    for expected, actual in got.items():
        assert expected == actual, (expected, actual)


def test_gopher_stats_counting_tricks_vs_python():
    """The vectorized counting tricks vs a straight Python recount."""
    import re

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        GOPHER_STOPWORDS,
        gopher_stats_batch,
    )

    texts = [
        "  leading space the a\nplain line\n- bullet ...\n* b2 x...",
        "one...two...\n...\n####",
        "",
        "- starts with bullet the a of to",
        "tab\tsep the\n\n\na",
    ]
    batch = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = gopher_stats_batch(batch)
    for i, t in enumerate(texts):
        words = re.findall(r"\S+", t, re.ASCII)
        lines = t.split("\n")
        assert out["n_words"][i].as_py() == len(words)
        assert out["n_word_chars"][i].as_py() == sum(len(w) for w in words)
        assert out["n_alpha_words"][i].as_py() == sum(
            1 for w in words if re.search(r"[A-Za-z]", w)
        )
        assert out["n_symbols"][i].as_py() == t.count("#") + t.count("...")
        assert out["n_lines"][i].as_py() == len(lines)
        assert out["n_bullet_lines"][i].as_py() == sum(
            1 for l in lines if l.startswith(("- ", "* "))
        )
        assert out["n_ellipsis_lines"][i].as_py() == sum(
            1 for l in lines if l.endswith("...")
        )
        assert out["n_stop"][i].as_py() == sum(
            1 for w in GOPHER_STOPWORDS if w in words
        )


# ------------------------------- windowed exact-substring duplication

def test_substring_dedup_matches_brute_force(ray_session):
    import itertools

    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        substring_dedup,
    )

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]
    docs = [
        " ".join(rng.choice(vocab, size=rng.integers(4, 30)))
        for _ in range(60)
    ]
    shared = "alpha beta gamma delta epsilon zeta eta theta"  # 8 tokens
    docs[3] += " " + shared
    docs[11] = shared + " " + docs[11]
    docs[25] += " " + shared + " tail " + shared  # twice in one doc
    W = 8

    def windows(t):
        w = t.split()
        return {
            " ".join(w[i : i + W]) for i in range(len(w) - W + 1)
        }

    wins = [windows(t) for t in docs]
    from collections import Counter

    cnt = Counter(itertools.chain.from_iterable(wins))
    expect = {
        i: sum(1 for x in ws if cnt[x] >= 2)
        for i, ws in enumerate(wins)
        if any(cnt[x] >= 2 for x in ws)
    }

    ds = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
    ).repartition(5)
    got = {
        r["doc_id"]: r["n_shared"]
        for r in substring_dedup(ds, w=W).take_all()
    }
    assert got == expect
    # the planted window flagged all three carrier docs
    assert min(got[3], got[11], got[25]) >= 1


def test_substring_dedup_no_duplicates_is_empty(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        substring_dedup,
    )

    ds = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(
                    [
                        " ".join(f"a{i}" for i in range(20)),
                        " ".join(f"b{i}" for i in range(20)),
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = substring_dedup(ds, w=8)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "n_shared"}


def test_tokenize_flat_drops_empties():
    from zzzarchived_arxiv_fulltext_ray.stages.webtext import tokenize_flat

    col = pa.chunked_array(
        [pa.array(["  a b  ", "", "c", "  ", "d  e"], pa.string())]
    )
    flat, doc_idx = tokenize_flat(col)
    assert flat.to_pylist() == ["a", "b", "c", "d", "e"]
    assert doc_idx.tolist() == [0, 0, 2, 4, 4]


# ------------------------------ bigram LM quality scoring (CCNet shape)

def test_bigram_lm_matches_brute_force(ray_session):
    import math
    from collections import Counter

    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        bigram_lm_score,
    )

    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(12)]
    docs = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 15)))
        for _ in range(40)
    ]
    docs[5] = "solo"  # single token: excluded from output
    TOP_V = 8  # smaller than true vocab -> UNK path exercised

    # ---- brute-force model with identical conventions
    toks = [d.split() for d in docs]
    cnt = Counter(w for t in toks for w in t)
    keep = set(
        w for w, _ in sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_V]
    )
    mapped = [[w if w in keep else "<unk>" for w in t] for t in toks]
    bi = Counter((a, b) for t in mapped for a, b in zip(t, t[1:]))
    ptot = Counter()
    for (a, _), c in bi.items():
        ptot[a] += c
    V = len(keep) + 1
    expect = {}
    for i, t in enumerate(mapped):
        if len(t) < 2:
            continue
        bits = sum(
            -math.log2((bi[(a, b)] + 1) / (ptot[a] + V))
            for a, b in zip(t, t[1:])
        )
        expect[i] = (len(t) - 1, bits / (len(t) - 1))

    ds = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
    ).repartition(4)
    got = {
        r["doc_id"]: (r["n_scored"], r["bpt"])
        for r in bigram_lm_score(ds, top_v=TOP_V).take_all()
    }
    assert set(got) == set(expect)
    assert 5 not in got
    for i in expect:
        assert got[i][0] == expect[i][0]
        assert abs(got[i][1] - expect[i][1]) < 1e-9, i


def test_intra_doc_dup_vs_python():
    from zzzarchived_arxiv_fulltext_ray.stages.webtext import (
        intra_doc_dup_batch,
    )

    texts = [
        "a\nb\na\na",            # 4 lines, 2 dup -> 50% dup_lines
        "x" * 50 + "\n" + "x" * 50 + "\nu1\nu2\nu3\nu4\nu5\nu6",
        "only one line",
        "",                      # one empty line, no dups
        "s\ns",                  # all-dup tiny doc
    ]
    batch = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = intra_doc_dup_batch(batch)
    for i, t in enumerate(texts):
        lines = t.split("\n")
        dl = len(lines) - len(set(lines))
        ct = sum(len(l) for l in lines)
        cd = ct - sum(len(l) for l in set(lines))
        assert out["n_lines"][i].as_py() == len(lines)
        assert out["n_dup_lines"][i].as_py() == dl
        assert out["chars_total"][i].as_py() == ct
        assert out["chars_dup"][i].as_py() == cd
    assert out["verdict"].to_pylist() == [
        "dup_lines",
        "dup_chars",
        "keep",
        "keep",
        "dup_lines",
    ]


def test_ccnet_bucket_rank_convention_matches_duckdb(ray_session):
    """Exact-tertile thresholds at rounding-hostile corpus sizes must
    match DuckDB's quantile_disc (rank = ceil(q*n), 1-based)."""
    import duckdb

    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.pipelines.queries_webtext import (
        _q_ccnet_buckets,
    )

    # exercise the threshold arithmetic directly (cheaper than the
    # full query): reproduce the engine's searchsorted ranks
    for n in [1, 2, 3, 4, 5, 6, 7, 9, 10, 100, 101]:
        vals = np.arange(n, dtype=np.int64) * 7 + 3
        con = duckdb.connect()
        t1d, t2d = con.execute(
            "SELECT quantile_disc(v, 1.0/3), quantile_disc(v, 2.0/3) "
            "FROM (SELECT unnest(?) AS v)",
            [vals.tolist()],
        ).fetchone()
        cum = np.arange(1, n + 1)
        t1 = vals[np.searchsorted(cum, (n + 2) // 3)]
        t2 = vals[np.searchsorted(cum, (2 * n + 2) // 3)]
        assert (t1, t2) == (t1d, t2d), n
