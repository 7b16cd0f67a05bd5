"""SymSpell-style fuzzy self-join (stages/fuzzy.py) — pinned against
an in-test brute-force Levenshtein and exercised on its drop contracts
(hot bucket cap, max_len exclusion)."""

import numpy as np
import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.stages.fuzzy import (
    _distances,
    _variants,
    deletion_keys_batch,
    fuzzy_self_join,
)
from zzzarchived_arxiv_fulltext_ray.stages.neardup import run_pairs


def _lev(a: str, b: str) -> int:
    """Textbook Levenshtein, the brute-force referee."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


def _brute_pairs(names):
    out = set()
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if a != b and _lev(a, b) <= 1:
                out.add((min(a, b), max(a, b)))
    return out


def _bucket_verified_pairs(names):
    """The pairs the in-bucket verify keeps among one key's names:
    the key's run from ``run_pairs``, then ``_distances``."""
    rows, i, j, _ = run_pairs(
        pa.table({
            "bucket_key": pa.array([0] * len(names), pa.uint64()),
            "name": pa.array(list(names), pa.string()),
        }),
        max_bucket=len(names),
    )
    m = _distances(rows["name"], i, j) <= 1
    return set(zip(rows["name"].take(i[m]).to_pylist(),
                   rows["name"].take(j[m]).to_pylist()))


def _dist(a: str, b: str) -> int:
    return int(_distances(pa.chunked_array([pa.array([a, b])]),
                          np.array([0]), np.array([1]))[0])


def test_is_deletion_cases():
    for short, long in (("abc", "abxc"), ("abc", "xabc"), ("abc", "abcx"),
                        ("", "x"), ("a", "a\0"), ("", "\0")):
        assert _dist(short, long) == _dist(long, short) == 1
    assert _dist("abc", "abxx") == 2
    assert _dist("abc", "xaby") == 2
    # the NUL padding never passes for a string's own NUL bytes
    assert _dist("a", "a\0\0") == 2
    assert _dist("a\0", "a\0") == 0


def test_variants_count_and_identity():
    vs = _variants(b"aab")
    # identity + {ab (x2 coincide), aa} -> 3 distinct
    assert vs == {b"aab", b"ab", b"aa"}


def test_bucket_verified_pairs_matches_brute():
    names = np.array(
        sorted(
            {
                "kitten",
                "sitten",
                "kitte",
                "kittens",
                "mitten",
                "kitchen",
                "xyz",
                "xz",
                "yz",
                "z",
            }
        ),
        dtype=object,
    )
    got = _bucket_verified_pairs(names)
    want = _brute_pairs(list(names))
    assert got == want
    assert all(x < y for x, y in got)


def test_deletion_keys_skip_long_and_null():
    t = pa.table({"s": pa.array(["ab", None, "x" * 100], pa.string())})
    out = deletion_keys_batch(t, "s", max_len=64)
    # only "ab" survives: identity + 2 deletions = 3 variants
    assert out.num_rows == 3
    assert set(out["name"].to_pylist()) == {"ab"}


def _run_self_join(names, **kw):
    import ray.data

    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(names, pa.string())})
    ).repartition(3)
    out = fuzzy_self_join(ds, col="k", **kw).to_pandas()
    if out.empty:  # Ray's to_pandas drops columns on 0-row datasets
        return set(), out
    return set(zip(out["name_a"], out["name_b"])), out


def test_fuzzy_self_join_matches_brute(ray_session):
    rng = np.random.default_rng(7)
    # structured near-miss corpus: ids differing in single digits,
    # plus random words with planted insert/sub/delete edits
    names = [f"user{n:04d}" for n in rng.integers(0, 300, size=120)]
    words = ["".join(rng.choice(list("abcd"), size=5)) for _ in range(40)]
    names += words
    names += [w[:2] + w[3:] for w in words[:10]]       # deletions
    names += [w + "x" for w in words[10:20]]            # insertions
    names += [("z" + w[1:]) for w in words[20:30]]      # substitutions
    got, out = _run_self_join(names)
    assert got == _brute_pairs(sorted(set(names)))
    assert (out["dist"] == 1).all()
    # distinct contract: no duplicate pairs survive the multi-bucket gen
    assert len(out) == len(got)


def test_fuzzy_self_join_hot_bucket_drop(ray_session, caplog):
    # 30 strings all sharing the deletion variant "a" (single chars
    # + 2-char 'aX'): max_bucket=8 drops that bucket and loses pairs
    names = ["a" + c for c in "bcdefghijklmnopqrstuvwxyz"] + ["a"]
    got_all, _ = _run_self_join(names, max_bucket=256)
    got_cap, _ = _run_self_join(names, max_bucket=8)
    assert got_cap < got_all  # strictly under-reports, documented
    brute = _brute_pairs(sorted(set(names)))
    assert got_all == brute


def test_fuzzy_self_join_max_len_excludes(ray_session):
    long_a = "q" * 80
    long_b = "q" * 80 + "r"
    got, _ = _run_self_join(["ab", "ac", long_a, long_b], max_len=64)
    assert got == {("ab", "ac")}  # the long pair is excluded, logged


def test_fuzzy_join_two_tables_matches_brute(ray_session):
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.fuzzy import fuzzy_join

    rng = np.random.default_rng(5)
    left = ["".join(rng.choice(list("abc"), size=4)) for _ in range(60)]
    right = ["".join(rng.choice(list("abc"), size=4)) for _ in range(60)]
    right += [w + "d" for w in left[:8]]     # insertions of left keys
    right += left[8:14]                      # exact matches (dist 0)
    ds_a = ray.data.from_arrow(pa.table({"x": pa.array(left)})).repartition(2)
    ds_b = ray.data.from_arrow(pa.table({"y": pa.array(right)})).repartition(3)
    out = fuzzy_join(ds_a, ds_b, "x", "y").to_pandas()
    got = set(zip(out["name_a"], out["name_b"], out["dist"]))
    want = set()
    for a in set(left):
        for b in set(right):
            d = _lev(a, b)
            if d <= 1:
                want.add((a, b, d))
    assert got == want
    assert len(out) == len(got)  # distinct


def test_fuzzy_join_no_matches_typed_empty(ray_session):
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.fuzzy import fuzzy_join

    ds_a = ray.data.from_arrow(pa.table({"x": pa.array(["aaaa"])}))
    ds_b = ray.data.from_arrow(pa.table({"y": pa.array(["zzzz"])}))
    out = fuzzy_join(ds_a, ds_b, "x", "y")
    assert out.count() == 0
    assert [f.name for f in out.schema().base_schema] == [
        "name_a", "name_b", "dist",
    ]


def test_fuzzy_candidate_completeness_property():
    """The mathematical claim behind the plan: bucketing by deletion
    variants LOSES NO distance<=1 pair (no Ray needed — simulate the
    exchange with a dict and reuse the in-bucket verifier). Randomized
    over dense small-alphabet corpora where collisions are common."""
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(20, 80))
        words = {
            "".join(rng.choice(list("ab"), size=int(rng.integers(1, 6))))
            for _ in range(n)
        }
        buckets: dict = {}
        for w in sorted(words):
            for v in _variants(w.encode()):
                buckets.setdefault(v, set()).add(w)
        got = set()
        for members in buckets.values():
            if len(members) < 2:
                continue
            got |= _bucket_verified_pairs(sorted(members))
        assert got == _brute_pairs(sorted(words)), f"trial {trial}"


def test_fuzzy_byte_level_contract_on_unicode():
    """The documented boundary: distance is BYTE-level Levenshtein.
    A multi-byte character substitution is byte-distance 2, so such
    pairs are (correctly, per contract) NOT matched even though their
    character distance is 1 — pinned so the ASCII-only oracle claim
    stays honest."""
    got = _bucket_verified_pairs(sorted({"café", "cafe", "cafés"}))
    # "café" vs "cafés": one byte appended -> matched.
    # "cafe" vs "café": é is 2 UTF-8 bytes -> byte distance 2 -> not.
    assert ("café", "cafés") in got
    assert ("cafe", "café") not in got


def test_fuzzy_self_join_unicode_matches_duckdb(ray_session):
    """End-to-end unicode parity: fuzzy_self_join over multibyte keys
    produces EXACTLY the pairs DuckDB's levenshtein (byte-level for
    non-ASCII too) reports at distance 1."""
    import duckdb
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.fuzzy import fuzzy_self_join

    names = [
        f"Çustomér№{i:04d}" for i in range(40)
    ] + ["汉字abc", "汉字abd", "汉字ab", "naïve", "naive", "nai̇ve"]
    df = pd.DataFrame({"k": names})
    got = (
        fuzzy_self_join(ray.data.from_pandas(df), col="k")
        .to_pandas()
        .sort_values(["name_a", "name_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        """
        SELECT a.k AS name_a, b.k AS name_b,
               CAST(levenshtein(a.k, b.k) AS BIGINT) AS dist
        FROM t a JOIN t b ON a.k < b.k
        WHERE levenshtein(a.k, b.k) = 1
        ORDER BY name_a, name_b
        """
    ).fetchdf()
    assert got.values.tolist() == want.values.tolist()
