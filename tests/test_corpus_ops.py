"""Link extraction, token-budget mixing, DSIR scoring (stages/links.py,
stages/mixing.py) — each pinned against an in-test brute force."""

import hashlib
from fractions import Fraction

import numpy as np
import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.stages.links import (
    domain_outdegree,
    extract_links_batch,
    hrefs_of_markup,
    page_domain,
    top_link_targets,
)
from zzzarchived_arxiv_fulltext_ray.stages.mixing import (
    doc_hash_keys,
    dsir_score,
    token_budget_select,
    token_buckets,
)

# ------------------------------------------------------------- links


def test_hrefs_all_quote_styles():
    markup = (
        '<a href="/double">d</a> <a href=\'/single\'>s</a> '
        "<a href=/bare>b</a> <a HREF = \"/spaced\">x</a> no href here"
    )
    assert hrefs_of_markup(markup) == [
        "/double", "/single", "/bare", "/spaced"
    ]


def test_page_domain():
    assert page_domain("https://site07.example.org/articles/1") == (
        "site07.example.org"
    )
    assert page_domain("not a url") == ""


def test_extract_links_skips_non_html_payloads():
    html = b'<html><body><a href="/x">x</a></body></html>'
    utf16 = '<html><body><a href="/u16">u</a></body></html>'.encode("utf-16")
    batch = pa.table(
        {
            "url": pa.array(
                ["https://a.org/1", "https://a.org/2", "https://a.org/3",
                 "https://a.org/4", "https://b.org/5"],
            ),
            "html": pa.array(
                [html, b"%PDF-1.4 junk", b"", b"\x00\xff\xfe junk", utf16],
                pa.large_binary(),
            ),
        }
    )
    out = extract_links_batch(batch)
    assert out["src_domain"].to_pylist() == ["a.org", "b.org"]
    assert out["target"].to_pylist() == ["/x", "/u16"]


def test_top_link_targets_and_outdegree(ray_session):
    import ray.data as rd

    def page(url, targets):
        body = "".join(f'<a href="{t}">t</a>' for t in targets)
        return url, f"<html><body>{body}</body></html>".encode()

    rows = [
        page("https://a.org/1", ["/x", "/y", "/x"]),
        page("https://a.org/2", ["/x"]),
        page("https://b.org/1", ["/y"]),
        ("https://c.org/1", b"%PDF- no links"),
    ]
    pages = pa.table(
        {
            "url": pa.array([r[0] for r in rows]),
            "html": pa.array([r[1] for r in rows], pa.large_binary()),
        }
    )
    ds = rd.from_arrow(pages)
    top = top_link_targets(ds, k=10)
    assert list(zip(top["target"], top["n"])) == [("/x", 3), ("/y", 2)]
    deg = domain_outdegree(ds)
    assert list(zip(deg["src_domain"], deg["n_links"])) == [
        ("a.org", 4), ("b.org", 1)
    ]


# ---------------------------------------------------- token budgets


def _mix_brute(rows, num, den):
    """rows: (doc_id, lang, text). Maximal hash-ordered prefix per
    lang with cum tokens <= floor(total * num / den)."""
    bylang = {}
    for d, l, t in rows:
        bylang.setdefault(l, []).append((d, len(t.split())))
    sel = []
    for lang, items in bylang.items():
        total = sum(n for _, n in items)
        bud = total * num // den
        order = sorted(
            items,
            key=lambda it: (
                hashlib.md5(str(it[0]).encode()).hexdigest()[:8],
                it[0],
            ),
        )
        cum = 0
        for d, n in order:
            if cum + n > bud:
                break
            cum += n
            sel.append((d, lang, n))
    return sorted(sel)


def _mix_ds(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "lang": pa.array([r[1] for r in rows]),
                "text": pa.array([r[2] for r in rows]),
            }
        )
    )


def _got_tuples(df):
    return sorted(
        zip(df["doc_id"].astype(int), df["lang"], df["n_tokens"].astype(int))
    )


def test_token_budget_matches_brute_force(ray_session):
    rng = np.random.default_rng(7)
    rows = [
        (int(i), ["en", "de", "fr"][i % 3],
         " ".join(["w%d" % rng.integers(50)] * int(rng.integers(0, 30))))
        for i in range(120)
    ]
    got = token_budget_select(_mix_ds(rows), 1, 2)
    assert _got_tuples(got) == _mix_brute(rows, 1, 2)


def test_token_budget_small_bucket_count_same_answer(ray_session):
    """n_buckets only changes the physical plan (more boundary work),
    never the selection."""
    rng = np.random.default_rng(11)
    rows = [
        (int(i), "en", " ".join(["t"] * int(rng.integers(1, 20))))
        for i in range(60)
    ]
    a = token_budget_select(_mix_ds(rows), 1, 3, n_buckets=4)
    b = token_budget_select(_mix_ds(rows), 1, 3, n_buckets=256)
    assert _got_tuples(a) == _got_tuples(b) == _mix_brute(rows, 1, 3)


def test_token_budget_full_budget_selects_all(ray_session):
    rows = [(i, "en", "a b c") for i in range(10)]
    got = token_budget_select(_mix_ds(rows), 1, 1)
    assert len(got) == 10


def test_token_budget_zero_token_docs_ride_free(ray_session):
    # zero-token docs never consume budget; they are selected whenever
    # they land in the kept prefix
    rows = [(i, "en", "" if i % 2 else "x y z w") for i in range(40)]
    got = token_budget_select(_mix_ds(rows), 1, 2)
    assert _got_tuples(got) == _mix_brute(rows, 1, 2)


def test_doc_hash_keys_match_sql_ordering():
    ids = [0, 1, 2, 1000, 123456]
    keys = doc_hash_keys(np.array(ids))
    hexes = [hashlib.md5(str(i).encode()).hexdigest()[:8] for i in ids]
    # numeric order of the uint32 keys == lexicographic order of the
    # fixed-width hex strings (the SQL ORDER BY spelling)
    assert list(np.argsort(keys)) == sorted(
        range(len(ids)), key=lambda j: hexes[j]
    )


# -------------------------------------------------------------- DSIR


def _dsir_brute(rows, mod=101, B=256):
    def bucket(w):
        return int(hashlib.md5(w.encode()).hexdigest()[:2], 16)

    c_all = np.zeros(B)
    c_tgt = np.zeros(B)
    for d, t in rows:
        for w in t.split():
            b = bucket(w)
            c_all[b] += 1
            if d % mod == 0:
                c_tgt[b] += 1
    lr = np.log2((c_tgt + 1) / (c_tgt.sum() + B)) - np.log2(
        (c_all + 1) / (c_all.sum() + B)
    )
    out = {}
    for d, t in rows:
        ws = t.split()
        if ws:
            out[d] = (len(ws), sum(lr[bucket(w)] for w in ws) / len(ws))
    return out


def _dsir_ds(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows]),
            }
        )
    )


def test_dsir_matches_brute_force(ray_session):
    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    rows = [
        (int(i),
         " ".join(vocab[rng.integers(len(vocab))] for _ in range(
             int(rng.integers(1, 15)))))
        for i in range(50)
    ]
    rows.append((50, ""))  # zero-token doc: dropped from the output
    got = dsir_score(_dsir_ds(rows), target_mod=7)
    want = _dsir_brute(rows, mod=7)
    assert sorted(got["doc_id"]) == sorted(want)
    for _, r in got.iterrows():
        n, s = want[int(r["doc_id"])]
        assert int(r["n_tokens"]) == n
        assert abs(float(r["score"]) - s) < 1e-9


def test_dsir_empty_target_slice_still_scores(ray_session):
    # no doc_id % mod == 0 member -> target counts all zero; smoothing
    # alone defines p_target and every score is finite
    rows = [(i, "u v w") for i in range(1, 5)]
    got = dsir_score(_dsir_ds(rows), target_mod=101)
    assert len(got) == 4
    assert np.isfinite(got["score"]).all()


def test_token_buckets_memo_consistency():
    a = token_buckets(["x", "y", "x"])
    b = token_buckets(["x", "y", "x"])
    assert list(a) == list(b)
    assert a[0] == a[2] == int(hashlib.md5(b"x").hexdigest()[:2], 16)


# ---------------------------------------------- window cumsum / shards

from zzzarchived_arxiv_fulltext_ray.stages.window import (  # noqa: E402
    over,
    shard_assign,
)


def _cum_brute(rows):
    """rows: (id, group, val) -> {id: cum} per the SQL window ordered
    by (md5(id) prefix, id)."""
    bygroup = {}
    for i, g, v in rows:
        bygroup.setdefault(g, []).append((i, v))
    out = {}
    for g, items in bygroup.items():
        items.sort(
            key=lambda it: (
                hashlib.md5(str(it[0]).encode()).hexdigest()[:8], it[0]
            )
        )
        cum = 0
        for i, v in items:
            cum += v
            out[i] = cum
    return out


def _hash_cumsum(ds, blocks):
    """{id: cum} of ``over``'s running sum of ``v`` per ``g`` in
    (md5(doc_id) prefix, doc_id) order, the input cut into ``blocks``."""
    keyed = ds.repartition(blocks).map_batches(
        lambda b: b.append_column(
            "h", pa.array(doc_hash_keys(b["doc_id"].to_pylist()),
                          pa.uint64())
        ),
        batch_format="pyarrow",
    )
    out = over(keyed, ["g"], ["h", "doc_id"], sums=["v"]).to_pandas()
    return dict(zip(out["doc_id"].astype(int), out["cum_v"].astype(int)))


def test_grouped_ordered_cumsum_matches_window(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    rows = [
        (int(i), ["a", "b"][i % 2], int(rng.integers(0, 9)))
        for i in range(200)
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "g": pa.array([r[1] for r in rows]),
                "v": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
    )
    for blocks in (1, 8):  # one block, and bases carried across 8
        assert _hash_cumsum(ds, blocks) == _cum_brute(rows)


def test_shard_assign_first_token_rule(ray_session):
    import ray.data as rd

    # one lang; craft token counts so a doc straddles the 10-token cut
    rows = [(i, "en", " ".join(["w"] * 4)) for i in range(8)]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "lang": pa.array([r[1] for r in rows]),
                "text": pa.array([r[2] for r in rows]),
            }
        )
    )
    out = shard_assign(ds, shard_tokens=10)
    cum = _cum_brute([(i, "en", 4) for i in range(8)])
    for _, r in out.iterrows():
        want_shard = (cum[int(r["doc_id"])] - 4) // 10
        assert int(r["shard_id"]) == want_shard
    # shards are contiguous 0..max with every shard non-empty
    shards = sorted(out["shard_id"].unique())
    assert shards == list(range(shards[-1] + 1))


# ------------------------------------------------ URL canonicalization

from zzzarchived_arxiv_fulltext_ray.functions.urlnorm import (  # noqa: E402
    canonicalize_url,
)


@pytest.mark.parametrize(
    "raw,want",
    [
        ("https://EXAMPLE.org:443/a", "https://example.org/a"),
        ("http://example.org:80/a", "http://example.org/a"),
        ("http://example.org:8080/a", "http://example.org:8080/a"),
        ("https://example.org./a", "https://example.org/a"),
        ("https://example.org/a/../b", "https://example.org/b"),
        ("https://example.org/a/./b", "https://example.org/a/b"),
        ("https://example.org/../a", "https://example.org/a"),
        ("https://example.org/a/..", "https://example.org/"),
        ("https://example.org/a#frag", "https://example.org/a"),
        ("https://example.org", "https://example.org/"),
        (
            "https://example.org/p?utm_source=x&q=1&utm_medium=y",
            "https://example.org/p?q=1",
        ),
        ("https://example.org/p?utm_source=x", "https://example.org/p"),
        (
            "https://example.org/p?b=2&a=1",
            "https://example.org/p?b=2&a=1",  # order preserved
        ),
        ("ftp://example.org/a", "ftp://example.org/a"),  # untouched
        ("not a url", "not a url"),
        ("HTTPS://EXAMPLE.ORG/A?fbclid=zz", "https://example.org/A"),
    ],
)
def test_canonicalize_url(raw, want):
    assert canonicalize_url(raw) == want


def test_canonicalize_idempotent():
    urls = [
        "https://EXAMPLE.org:443/a/../b?utm_source=x&q=1#f",
        "http://a.b.c:80/./x/y/..",
    ]
    for u in urls:
        once = canonicalize_url(u)
        assert canonicalize_url(once) == once


# --------------------------------- priority sampling / float top-k


def test_topk_partial_preserves_float_dtype():
    from zzzarchived_arxiv_fulltext_ray.stages.topk import topk_batch

    batch = pa.table(
        {
            "k": pa.array(["a", "a", "a"]),
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "p": pa.array([0.5, 2.5, 1.5], pa.float64()),
        }
    )
    out = topk_batch(
        batch, 2, [("p", "descending"), ("doc_id", "ascending")], group="k"
    )
    assert out["p"].type == pa.float64()
    assert out["doc_id"].to_pylist() == [2, 3]  # p desc


def test_weighted_sample_priority_is_pure_ieee():
    # the priority expression must be exactly two IEEE double ops so
    # numpy and DuckDB agree bit-for-bit: exact multiply (< 2^52),
    # one correctly-rounded divide
    w = np.array([12345], dtype=np.int64)
    h4 = np.array([0xBEEF], dtype=np.int64)
    got = (w.astype(np.float64) * 4294967296.0 / (h4 + 1))[0]
    import duckdb

    want = duckdb.sql(
        "SELECT CAST(12345 AS DOUBLE) * 4294967296 / (48880)"
    ).fetchone()[0]
    assert got == want  # bit-equal, no tolerance


def test_canonicalize_property_idempotent_and_total():
    """Property: canonicalize is total (never raises) and idempotent
    over adversarial URL-ish strings."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    url_chars = st.text(
        alphabet=st.sampled_from(
            list("abcXYZ09./:?&=#%~_-")
        ),
        max_size=40,
    )

    @given(
        scheme=st.sampled_from(["http", "https", "HTTP", "ftp", ""]),
        host=st.sampled_from(
            ["a.b", "A.B.", "x", "a.b:443", "a.b:80", "a.b:1234", ""]
        ),
        rest=url_chars,
    )
    @settings(max_examples=300, deadline=None)
    def check(scheme, host, rest):
        u = (scheme + "://" + host + "/" + rest) if scheme else rest
        once = canonicalize_url(u)
        assert canonicalize_url(once) == once

    check()


def test_anchors_of_markup():
    from zzzarchived_arxiv_fulltext_ray.stages.links import (
        anchors_of_markup,
    )

    markup = (
        '<a href="/x" class="z">Hello <b>World</b></a>'
        "<a href='/y'>&amp; more\n  text</a>"
        '<a href=/bare>bare</a>'
        '<a name="no-href">skip</a>'
    )
    assert anchors_of_markup(markup) == [
        ("/x", "Hello World"),
        ("/y", "& more text"),
        ("/bare", "bare"),
    ]


def test_token_budget_distributed_plan_equal(ray_session, monkeypatch):
    """The distributed plan (window-cumsum filter, no driver row pull:
    the forced mode and ``token_budget_select_distributed``) must
    select exactly the same documents as the driver plan."""
    from zzzarchived_arxiv_fulltext_ray.stages.mixing import (
        token_budget_select_distributed,
    )

    rng = np.random.default_rng(21)
    rows = [
        (int(i), ["en", "de"][i % 2],
         " ".join(["w"] * int(rng.integers(0, 25))))
        for i in range(150)
    ]
    a = token_budget_select(_mix_ds(rows), 2, 3)
    b = token_budget_select_distributed(_mix_ds(rows), 2, 3)
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    c = token_budget_select(_mix_ds(rows), 2, 3)
    assert _got_tuples(a) == _got_tuples(b) == _got_tuples(c) \
        == _mix_brute(rows, 2, 3)


def test_token_budget_auto_boundary(ray_session, monkeypatch):
    """The histogram pass measures the boundary-bucket pull:
    ``plan.broadcast`` takes the driver shortcut under the default
    budget; over the byte budget it routes to the distributed twin —
    both bit-equal to the brute-force answer."""
    from zzzarchived_arxiv_fulltext_ray.stages import mixing, window

    rng = np.random.default_rng(33)
    rows = [
        (int(i), ["en", "de"][i % 2],
         " ".join(["w"] * int(rng.integers(0, 25))))
        for i in range(150)
    ]
    want = _mix_brute(rows, 2, 3)

    calls = []
    real = window.over
    monkeypatch.setattr(
        window, "over",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )

    monkeypatch.delenv("GRAFT_FORCE_PARTITIONED", raising=False)
    a = token_budget_select(_mix_ds(rows), 2, 3)
    assert _got_tuples(a) == want
    assert not calls, "small pull must take the driver shortcut"

    monkeypatch.setenv("GRAFT_BROADCAST_BYTES_LIMIT", "1")
    b = mixing.token_budget_select(_mix_ds(rows), 2, 3)
    assert _got_tuples(b) == want
    assert calls, "over-budget pull must route to the distributed twin"


def test_hrefs_robust_to_malformed_markup():
    # unclosed tags, nested quotes, attribute soup — the regex scanner
    # must not raise and must keep well-formed matches
    from zzzarchived_arxiv_fulltext_ray.stages.links import (
        anchors_of_markup,
        hrefs_of_markup,
    )

    soup = (
        '<a href="/ok">fine</a><a href="/unclosed">never closed'
        "<div><a href='/q\"uote'>q</a>"
        '<a href=>empty</a><a >none</a>'
    )
    hrefs = hrefs_of_markup(soup)
    assert hrefs == ["/ok", "/unclosed", '/q"uote']
    # anchors: an unclosed <a> lazily matches to the NEXT </a>,
    # swallowing the nested anchor (regex-over-HTML contract); the
    # href-only scanner above still sees every href
    anchors = anchors_of_markup(soup)
    assert anchors == [("/ok", "fine"), ("/unclosed", "never closedq")]


def test_global_row_number_matches_window(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    keys = rng.integers(0, 12, size=180)  # heavy ties on purpose
    ids = np.arange(180)
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "k": pa.array(keys, pa.int64()),
            }
        )
    ).repartition(7)
    out = over(
        ds, [], ["k", "doc_id"], descending=[True, False]
    ).to_pandas()
    # brute force: sort by (k desc, id), 1-based positions
    order = sorted(zip(keys, ids), key=lambda t: (-t[0], t[1]))
    want = {i: r + 1 for r, (_, i) in enumerate(order)}
    got = dict(zip(out["doc_id"].astype(int), out["rn"].astype(int)))
    assert got == want


def test_ntile_of_rank_matches_sql_semantics():
    import duckdb

    from zzzarchived_arxiv_fulltext_ray.stages.window import ntile_of_rank

    for n in [1, 2, 3, 4, 5, 7, 8, 9, 17]:
        for tiles in [1, 2, 3, 4, 5]:
            want = [
                r[0]
                for r in duckdb.sql(
                    f"SELECT ntile({tiles}) OVER (ORDER BY i) "
                    f"FROM range({n}) t(i) ORDER BY i"
                ).fetchall()
            ]
            got = list(ntile_of_rank(np.arange(1, n + 1), n, tiles))
            assert got == want, (n, tiles, got, want)


def test_window_cumsum_property_fuzz(ray_session):
    """Property fuzz: the running sum of ``over`` in hash order == the
    SQL window for arbitrary group shapes, value distributions (incl.
    zeros) and block counts."""
    import ray.data as rd

    rng = np.random.default_rng(123)
    for trial in range(4):
        n = int(rng.integers(5, 150))
        n_groups = int(rng.integers(1, 5))
        blocks = int(rng.choice([1, 7, 16]))
        rows = [
            (int(i), f"g{rng.integers(n_groups)}",
             int(rng.choice([0, 0, 1, 3, 50])))
            for i in range(n)
        ]
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "g": pa.array([r[1] for r in rows]),
                    "v": pa.array([r[2] for r in rows], pa.int64()),
                }
            )
        )
        assert _hash_cumsum(ds, blocks) == _cum_brute(rows), (
            trial, n, n_groups, blocks
        )


def test_token_budget_string_ids_both_plans(ray_session, monkeypatch):
    """url-keyed selection (the curate_pages path): md5(url) ordering,
    both physical plans, vs brute force."""
    import ray.data as rd

    rng = np.random.default_rng(31)
    rows = [
        (f"https://s{i % 7}.org/p/{i:05d}", ["en", "zh"][i % 2],
         " ".join(["w"] * int(rng.integers(0, 12))))
        for i in range(90)
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "url": pa.array([r[0] for r in rows]),
                "lang": pa.array([r[1] for r in rows]),
                "text": pa.array([r[2] for r in rows]),
            }
        )
    )
    # brute: order by (md5(url) hex prefix, url)
    bylang = {}
    for u, l, t in rows:
        bylang.setdefault(l, []).append((u, len(t.split())))
    want = []
    for lang, items in bylang.items():
        total = sum(n for _, n in items)
        bud = total // 2
        items.sort(
            key=lambda it: (
                hashlib.md5(it[0].encode()).hexdigest()[:8], it[0]
            )
        )
        cum = 0
        for u, n in items:
            if cum + n > bud:
                break
            cum += n
            want.append((u, lang, n))
    want.sort()
    for plan in ("driver", "distributed"):
        monkeypatch.setenv("GRAFT_FORCE_PARTITIONED",
                           "1" if plan == "distributed" else "0")
        got = token_budget_select(ds, 1, 2, id_col="url")
        tuples = sorted(
            zip(got["url"], got["lang"], got["n_tokens"].astype(int))
        )
        assert tuples == want, plan


def test_grouped_row_number_descending(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(17)
    parts = [["a", "b"][i % 2] for i in range(80)]
    keys = rng.integers(0, 6, size=80)
    ds = rd.from_arrow(
        pa.table(
            {
                "p": pa.array(parts),
                "doc_id": pa.array(np.arange(80), pa.int64()),
                "k": pa.array(keys, pa.int64()),
            }
        )
    ).repartition(7)
    out = over(ds, ["p"], ["k", "doc_id"], descending=[True, False])
    got = {
        (r["p"], int(r["doc_id"])): int(r["rn"])
        for r in out.to_pandas().to_dict("records")
    }
    for p in ("a", "b"):
        members = [
            (keys[i], i) for i in range(80) if parts[i] == p
        ]
        order = sorted(members, key=lambda t: (-t[0], t[1]))
        for rank0, (_, i) in enumerate(order):
            assert got[(p, i)] == rank0 + 1


def test_events_churn_full_outer_classes(ray_session):
    """Full-outer witness: every day-edge classified; started/stopped
    counts balance per user (every run of active days opens once and
    closes once, except a run still open on the last day)."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries_corpus import (
        CORPUS_QUERIES,
    )

    out = CORPUS_QUERIES["events_churn"]("/root/testdata/sf0.001")
    assert set(out["status"]) == {"started", "stopped", "active"}
    # started rows have no prev_cents, stopped rows no cents
    assert out.loc[out.status == "started", "prev_cents"].isna().all()
    assert out.loc[out.status == "stopped", "cents"].isna().all()
    assert out.loc[out.status == "active"].notna().all().all()
    # per user: n_started == n_stopped + (1 if active on final day)
    for uid, g in out.groupby("user_id"):
        active_days = set(
            g.loc[g.cents.notna(), "epoch_day"].astype(int)
        )
        n_started = int((g.status == "started").sum())
        n_stopped = int((g.status == "stopped").sum())
        last = max(active_days)
        # a run ending on the corpus's final active day never emits
        # its 'stopped' edge (there is no day after it in the data)
        assert n_started - n_stopped in (0, 1)
        if n_started - n_stopped == 1:
            assert last + 1 not in active_days


def test_pagerank_matches_dense_reference(ray_session):
    """Distributed plan == single-node dense power iteration on a
    random graph with parallel edges and dangling nodes; total mass
    conserved (sums to 1 with dangling redistribution)."""
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.pagerank import (
        pagerank,
        pagerank_numpy,
    )

    rng = np.random.default_rng(3)
    src = [f"n{int(i)}" for i in rng.integers(0, 30, 200)]
    dst = [f"n{int(i)}" for i in rng.integers(0, 40, 200)]  # 30+ dangling
    w = [int(x) for x in rng.integers(1, 5, 200)]
    ds = rd.from_arrow(
        pa.table(
            {"src": src, "dst": dst, "w": pa.array(w, pa.int64())}
        )
    )
    got = {r["node"]: r["pr"] for r in pagerank(ds, n_iter=3).take_all()}
    want = pagerank_numpy(src, dst, w, n_iter=3)
    assert set(got) == set(want)
    assert max(abs(got[k] - want[k]) for k in want) < 1e-12
    assert abs(sum(got.values()) - 1.0) < 1e-9


def test_grouped_rank_dense_matches_window(ray_session):
    """rank()/dense_rank() with heavy planted ties, both directions,
    pinned against a pandas window brute force."""
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.window import (
        grouped_rank_dense,
    )

    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "id": np.arange(400),
            "part": rng.choice(["a", "b", "c"], size=400),
            "key": rng.integers(0, 12, size=400),  # dense ties
        }
    )
    ds = ray.data.from_pandas(df).repartition(5)
    for desc in (True, False):
        got = (
            grouped_rank_dense(ds, "part", "key", descending=desc)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        g = df.groupby("part")["key"]
        want_rnk = g.rank(method="min", ascending=not desc).astype(int)
        want_drnk = g.rank(method="dense", ascending=not desc).astype(int)
        assert (got["rnk"].to_numpy() == want_rnk.to_numpy()).all()
        assert (got["drnk"].to_numpy() == want_drnk.to_numpy()).all()


def test_pivot_wide_and_mode_match_brute(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.aggregate import aggregate
    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        grouped_mode,
        pivot_wide,
    )

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {
            "row": rng.choice(["r1", "r2", "r3"], size=300),
            "col": rng.choice(["x", "y", "z"], size=300),
        }
    )
    ds = ray.data.from_pandas(df).repartition(4)
    grain = aggregate(ds, ["row", "col"], [("n", "count", None)])

    wide = (
        pivot_wide(grain, "row", "col", ["x", "y", "z"])
        .to_pandas()
        .sort_values("row")
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["row", "col"]).size().unstack(fill_value=0)
        .reset_index()
    )
    for c in ["x", "y", "z"]:
        assert (wide[c].to_numpy() == want[c].to_numpy()).all()

    mode = (
        grouped_mode(grain, "row", "col")
        .to_pandas()
        .sort_values("row")
        .reset_index(drop=True)
    )
    for _, r in mode.iterrows():
        counts = df[df["row"] == r["row"]]["col"].value_counts()
        best = counts.max()
        # argmax with smallest-value tie-break
        assert counts[r["top_col"]] == best
        assert r["top_col"] == min(
            c for c, n in counts.items() if n == best
        )
        assert r["n"] == best


def test_pivot_wide_undeclared_category_raises(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.aggregate import aggregate
    from zzzarchived_arxiv_fulltext_ray.stages.relational import pivot_wide

    df = pd.DataFrame({"row": ["a", "a"], "col": ["x", "surprise"]})
    grain = aggregate(
        ray.data.from_pandas(df), ["row", "col"], [("n", "count", None)]
    )
    with pytest.raises(Exception, match="not in"):
        pivot_wide(grain, "row", "col", ["x"]).to_pandas()


def test_grouped_rank_pct_cume_match_brute(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.window import (
        grouped_rank_dense,
    )

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "id": np.arange(200),
            "part": rng.choice(["a", "b"], size=200),
            "key": rng.integers(0, 9, size=200),
        }
    )
    # single-row partition edge: pct_rank must be 0.0
    df.loc[len(df)] = [len(df), "solo", 5]
    ds = ray.data.from_pandas(df).repartition(3)
    got = (
        grouped_rank_dense(ds, "part", "key", descending=True,
                           with_pct=True)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    g = df.groupby("part")["key"]
    n = df.groupby("part")["key"].transform("size").to_numpy()
    rnk = g.rank(method="min", ascending=False).astype(int).to_numpy()
    want_pct = np.where(n > 1, (rnk - 1) / np.maximum(n - 1, 1), 0.0)
    want_cume = g.rank(method="max", ascending=False).to_numpy() / n
    assert (got["pct_rank"].to_numpy() == want_pct).all()
    assert (got["cume_dist"].to_numpy() == want_cume).all()


def test_events_retention_invariants(ray_session):
    """Offset-0 count per cohort equals cohort size; total cell mass
    equals the distinct (user, day) grain."""
    import duckdb

    from zzzarchived_arxiv_fulltext_ray.pipelines.queries_corpus import (
        _q_events_retention,
    )

    sf = "/root/testdata/sf0.001"
    out = _q_events_retention(sf)
    con = duckdb.connect()
    grain = con.execute(
        "SELECT count(*) FROM (SELECT DISTINCT user_id, "
        "epoch_us(ts) // 86400000000 FROM "
        f"read_parquet('{sf}/events.parquet'))"
    ).fetchone()[0]
    n_users = con.execute(
        f"SELECT count(DISTINCT user_id) FROM read_parquet('{sf}/events.parquet')"
    ).fetchone()[0]
    assert out["n_users"].sum() == grain
    day0 = out[out["day_offset"] == 0]
    assert day0["n_users"].sum() == n_users
    assert (out["day_offset"] >= 0).all()


def test_bloom_prefiltered_join_identical_and_prunes(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.dedup import build_key_bloom
    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        bloom_prefiltered_join,
        partitioned_hash_join,
    )

    rng = np.random.default_rng(17)
    probe = pd.DataFrame(
        {"k": rng.integers(0, 1000, size=4000), "v": np.arange(4000)}
    )
    build = pd.DataFrame(
        {"k": np.arange(0, 1000, 7), "w": np.arange(0, 1000, 7) * 10}
    )  # ~14% selective
    lds = ray.data.from_pandas(probe).repartition(4)
    rds = ray.data.from_pandas(build).repartition(2)

    want = (
        partitioned_hash_join(lds, rds, "k")
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    got = (
        bloom_prefiltered_join(lds, rds, "k", n_bits=1 << 14)
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_dtype=False
    )

    # the Bloom really prunes: definite non-members are gone pre-join
    bf = build_key_bloom(rds, col="k", n_bits=1 << 14)
    from zzzarchived_arxiv_fulltext_ray.functions.hashing import (
        hash64_column,
    )
    import pyarrow as _pa

    maybe = bf.contains_hashes(
        hash64_column(_pa.chunked_array([_pa.array(probe["k"])]))
    )
    # at 14% build selectivity + small FP rate, most rows must drop
    assert maybe.mean() < 0.5


def test_bloom_prefiltered_join_composite_and_bad_how(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        bloom_prefiltered_join,
        partitioned_hash_join,
    )

    rng = np.random.default_rng(23)
    probe = pd.DataFrame(
        {
            "a": rng.integers(0, 30, size=500),
            "b": rng.choice(["x", "y", "z"], size=500),
            "v": np.arange(500),
        }
    )
    build = pd.DataFrame(
        {"a": np.arange(0, 30, 3), "b": ["x"] * 10, "w": np.arange(10)}
    )
    lds = ray.data.from_pandas(probe).repartition(3)
    rds = ray.data.from_pandas(build)
    want = (
        partitioned_hash_join(lds, rds, ["a", "b"])
        .to_pandas().sort_values(["a", "b", "v"]).reset_index(drop=True)
    )
    got = (
        bloom_prefiltered_join(lds, rds, ["a", "b"], n_bits=1 << 12)
        .to_pandas().sort_values(["a", "b", "v"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_dtype=False
    )
    with pytest.raises(ValueError, match="inner/semi"):
        bloom_prefiltered_join(lds, rds, "a", how="left")


def test_grouped_rank_dense_null_keys_raise(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.window import (
        grouped_rank_dense,
    )

    df = pd.DataFrame({"part": ["a", "a", None], "key": [1.0, None, 2.0]})
    ds = ray.data.from_pandas(df)
    with pytest.raises(ValueError, match="null"):
        grouped_rank_dense(ds, "part", "key").to_pandas()


def test_skew_routed_join_identical_on_skewed_keys(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        partitioned_hash_join,
        skew_routed_join,
    )

    rng = np.random.default_rng(31)
    # 60% of probe rows hit 2 hot keys; the rest spread over 500
    hot = rng.choice([7, 13], size=3000)
    cold = rng.integers(100, 600, size=2000)
    probe = pd.DataFrame(
        {"k": np.concatenate([hot, cold]), "v": np.arange(5000)}
    )
    build = pd.DataFrame(
        {"k": np.arange(0, 620), "w": np.arange(0, 620) * 2}
    )
    lds = ray.data.from_pandas(probe).repartition(5)
    rds = ray.data.from_pandas(build).repartition(2)

    want = (
        partitioned_hash_join(lds, rds, "k")
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    for hk in (None, [7, 13]):  # auto-detect AND explicit routing
        got = (
            skew_routed_join(lds, rds, "k", hot_keys=hk)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[want.columns.tolist()], want, check_dtype=False
        )

    # semi spelling, explicit hot keys
    want_semi = (
        partitioned_hash_join(lds, rds, "k", how="semi")
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    got_semi = (
        skew_routed_join(lds, rds, "k", how="semi", hot_keys=[7, 13])
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got_semi[want_semi.columns.tolist()], want_semi,
        check_dtype=False,
    )


def test_skew_routed_join_guards(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        skew_routed_join,
    )

    probe = pd.DataFrame({"k": [1] * 50, "v": range(50)})
    build = pd.DataFrame({"k": [1] * 30, "w": range(30)})
    lds, rds = ray.data.from_pandas(probe), ray.data.from_pandas(build)
    with pytest.raises(ValueError, match="max_broadcast_rows"):
        skew_routed_join(lds, rds, "k", hot_keys=[1],
                         max_broadcast_rows=10).to_pandas()
    with pytest.raises(ValueError, match="inner/semi"):
        skew_routed_join(lds, rds, "k", how="left")
    # hot key absent from build side: inner join result is empty
    out = skew_routed_join(
        lds, ray.data.from_pandas(pd.DataFrame({"k": [2], "w": [9]})),
        "k", hot_keys=[1],
    ).to_pandas()
    assert len(out) == 0


def test_pivot_unpivot_round_trip(ray_session):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.aggregate import aggregate
    from zzzarchived_arxiv_fulltext_ray.stages.relational import (
        pivot_wide,
        unpivot_long,
    )

    rng = np.random.default_rng(37)
    df = pd.DataFrame(
        {
            "row": rng.choice(["r1", "r2", "r3", "r4"], size=400),
            "col": rng.choice(["x", "y", "z"], size=400),
        }
    )
    grain = aggregate(
        ray.data.from_pandas(df).repartition(3),
        ["row", "col"],
        [("n", "count", None)],
    )
    wide = pivot_wide(grain, "row", "col", ["x", "y", "z"])
    back = (
        unpivot_long(wide, "row", ["x", "y", "z"])
        .to_pandas()
        .sort_values(["row", "col"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["row", "col"]).size().rename("n").reset_index()
        .set_index(["row", "col"])
        .reindex(
            pd.MultiIndex.from_product(
                [sorted(df["row"].unique()), ["x", "y", "z"]],
                names=["row", "col"],
            ),
            fill_value=0,
        )
        .reset_index()
    )
    assert (back["row"] == want["row"]).all()
    assert (back["col"] == want["col"]).all()
    assert (back["n"].to_numpy() == want["n"].to_numpy()).all()


def _both_branches(monkeypatch):
    """Yield once per quantiles() branch: the histogram read-off, then
    the refinement (GRAFT_FORCE_PARTITIONED=1)."""
    for forced in (False, True):
        monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1" if forced else "0")
        yield forced


def test_distributed_kth_matches_numpy(ray_session, monkeypatch):
    """k-th smallest as quantiles() at q = k/n (rank exactly k), and
    quantile_disc at float qs, in both branches."""
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    rng = np.random.default_rng(53)
    # huge near-unique domain AND planted heavy duplicates
    vals = np.concatenate(
        [rng.integers(-(10**12), 10**12, size=5000),
         np.full(500, 42), np.full(500, -7)]
    )
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(5)
    s = np.sort(vals)
    n = len(vals)
    ks = [1, 2, 500, 3000, n]
    for _ in _both_branches(monkeypatch):
        got = quantiles(ds, "v", {f"k{k}": Fraction(k, n) for k in ks})
        assert [got[f"k{k}"][0] for k in ks] == [s[k - 1] for k in ks]
        got = quantiles(ds, "v", {"a": 0.5, "b": 0.9, "c": 0.01})
        for name, q in (("a", 0.5), ("b", 0.9), ("c", 0.01)):
            krank = max(1, -(-(round(q * 10**6) * n) // 10**6))
            assert got["n"][0] == n and got[name][0] == s[krank - 1]
        assert (got["lo"][0], got["hi"][0]) == (s[0], s[-1])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        quantiles(ds, "v", {"x": Fraction(n + 1, n)})
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        quantiles(ds, "v", {"x": -0.5})


def test_distributed_quantile_cont_matches_numpy(ray_session, monkeypatch):
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    rng = np.random.default_rng(59)
    vals = rng.integers(-(10**9), 10**9, size=4001)  # odd n: exact mid
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(4)
    qs = (0.25, 0.5, 0.75, 0.0, 1.0)
    for _ in _both_branches(monkeypatch):
        got = quantiles(ds, "v", {str(q): q for q in qs}, interpolate=True)
        assert got["n"][0] == len(vals)
        for q in qs:
            want = float(np.quantile(vals, q, method="linear"))
            assert got[str(q)][0] == want, (q, got[str(q)][0], want)


def test_grouped_quantile_disc_matches_duckdb(ray_session, monkeypatch):
    import duckdb
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    rng = np.random.default_rng(61)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c", "d"], size=8000),
            "v": rng.integers(-(10**12), 10**12, size=8000),
        }
    )
    # constant-value group (lo == hi resolves without a pass)
    df = pd.concat(
        [df, pd.DataFrame({"g": ["e"] * 50, "v": [5] * 50})],
        ignore_index=True,
    )
    ds = ray.data.from_pandas(df).repartition(5)
    for _ in _both_branches(monkeypatch):
        got = quantiles(ds, "v", {"0.5": 0.5, "0.9": 0.9, "0.1": 0.1},
                        by="g")
        for q in (0.5, 0.9, 0.1):
            exp = duckdb.sql(
                f"SELECT g, quantile_disc(v, {q}), count(*) "
                "FROM df GROUP BY g ORDER BY g"
            ).fetchall()
            assert list(zip(got["g"], got[str(q)], got["n"])) == [
                (a, int(b), int(c)) for a, b, c in exp
            ]


def test_selection_many_passes_tiny_buckets(ray_session, monkeypatch):
    """_BUCKETS = 4 forces ~log_4(domain) refinement passes — stress
    the loop/termination logic well beyond the 1-2 passes 4096 takes
    on realistic domains (every block also outgrows the 4-row pass-0
    histogram, so both branches refine)."""
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages import selection
    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    monkeypatch.setattr(selection, "_BUCKETS", 4)
    rng = np.random.default_rng(67)
    vals = rng.integers(-(10**10), 10**10, size=2000)
    df = pd.DataFrame({"v": vals, "g": rng.choice(["a", "b"], 2000)})
    ds = ray.data.from_pandas(df).repartition(3)
    s = np.sort(vals)
    got = quantiles(ds, "v", {"k1000": Fraction(1000, 2000)})
    assert got["k1000"][0] == s[999]
    got = quantiles(ds, "v", {"k1": Fraction(1, 2000),
                              "k500": Fraction(500, 2000),
                              "k2000": Fraction(2000, 2000)})
    assert (got["k1"][0], got["k500"][0], got["k2000"][0]) == (
        s[0], s[499], s[-1]
    )
    import duckdb

    exp = duckdb.sql(
        "SELECT g, quantile_disc(v, 0.5), count(*) FROM df "
        "GROUP BY g ORDER BY g"
    ).fetchall()
    got_g = quantiles(ds, "v", {"p50": 0.5}, by="g")
    assert list(zip(got_g["g"], got_g["p50"], got_g["n"])) == [
        (a, int(b), int(c)) for a, b, c in exp
    ]


def test_grouped_rank_sorted_equals_histogram(ray_session, monkeypatch):
    """Sort-based rank plan (the forced mode) pinned against the
    histogram plan (and a pandas brute force) on BOTH regimes: heavy
    ties (groups span the sorted block boundaries) and near-unique
    keys (the regime the sorted plan exists for); with_pct included;
    the crossover flips over the byte budget."""
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.window import (
        grouped_rank_dense,
    )

    rng = np.random.default_rng(7)
    corpora = {
        "ties": pd.DataFrame(
            {
                "id": np.arange(600),
                "part": rng.choice(["a", "b", "c"], size=600),
                "key": rng.integers(0, 5, size=600),  # huge tie groups
            }
        ),
        "unique": pd.DataFrame(
            {
                "id": np.arange(600),
                "part": rng.choice(["a", "b"], size=600),
                "key": rng.permutation(600),  # fully unique
            }
        ),
        "single_part": pd.DataFrame(
            {"id": np.arange(64), "part": ["p"] * 64,
             "key": [1] * 40 + [2] * 24}  # one part, 2 giant groups
        ),
    }
    for name, df in corpora.items():
        # many small input blocks -> many sorted blocks -> boundary
        # stitching is actually exercised
        ds = ray.data.from_pandas(df).repartition(8)
        for desc in (True, False):
            outs = {}
            for method in ("histogram", "sorted"):
                monkeypatch.setenv("GRAFT_FORCE_PARTITIONED",
                                   "1" if method == "sorted" else "0")
                outs[method] = (
                    grouped_rank_dense(
                        ds, "part", "key", descending=desc,
                        with_pct=True,
                    )
                    .to_pandas()
                    .sort_values("id")
                    .reset_index(drop=True)
                )
            for col in ("rnk", "drnk"):
                assert (
                    outs["sorted"][col].to_numpy()
                    == outs["histogram"][col].to_numpy()
                ).all(), (name, desc, col)
            for col in ("pct_rank", "cume_dist"):
                assert np.allclose(
                    outs["sorted"][col].to_numpy(),
                    outs["histogram"][col].to_numpy(),
                ), (name, desc, col)
            g = df.groupby("part")["key"]
            want_rnk = g.rank(method="min", ascending=not desc).astype(int)
            assert (
                outs["sorted"].sort_values("id")["rnk"].to_numpy()
                == want_rnk.to_numpy()
            ).all(), (name, desc)
    # a histogram over the byte budget takes the sorted path and still
    # produces identical values
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "0")
    monkeypatch.setenv("GRAFT_BROADCAST_BYTES_LIMIT", "1")
    df = corpora["ties"]
    ds = ray.data.from_pandas(df).repartition(8)
    forced = (
        grouped_rank_dense(ds, "part", "key")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = g = df.groupby("part")["key"].rank(
        method="min", ascending=False
    ).astype(int)
    assert (forced["rnk"].to_numpy() == want.to_numpy()).all()


def test_cusum_changepoint_exact_vs_brute(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.window import (
        cusum_changepoint,
    )

    rng = np.random.default_rng(13)
    rows = {"g": [], "o": [], "t": [], "v": []}
    truth = {}
    for g, (split, lo_mu, hi_mu, n) in {
        "a": (40, 100, 500, 120),
        "b": (10, 900, 50, 60),
        "c": (1, 5, 5, 7),  # no real step: still a deterministic argmax
    }.items():
        vals = np.concatenate(
            [
                rng.integers(lo_mu - 5, lo_mu + 5, split),
                rng.integers(hi_mu - 5, hi_mu + 5, n - split),
            ]
        ).astype(np.int64)
        order = rng.permutation(n)  # arrival order is shuffled
        rows["g"] += [g] * n
        rows["o"] += (np.arange(n)[order] * 7).tolist()  # sparse keys
        rows["t"] += order.tolist()
        rows["v"] += vals[order].tolist()
        # brute force in python ints
        s, ncnt = int(vals.sum()), n
        best = None
        p = 0
        for k in range(1, ncnt):
            p += int(vals[k - 1])
            stat = abs(ncnt * p - k * s)
            if best is None or stat > best[0]:
                best = (stat, k, p)
        truth[g] = (ncnt, s, best[1], best[0], best[2])

    ds = rd.from_arrow(
        pa.table(
            {
                "g": pa.array(rows["g"], pa.string()),
                "o": pa.array(rows["o"], pa.int64()),
                "t": pa.array(rows["t"], pa.int64()),
                "v": pa.array(rows["v"], pa.int64()),
            }
        )
    ).repartition(8)
    out = cusum_changepoint(ds, "g", "o", "t", "v")
    assert len(out) == 3
    for r in out.itertuples():
        n, s, k, stat, p = truth[r.group]
        assert (r.n, r.total_s, r.k_star, r.cusum_stat, r.split_p) == (
            n, s, k, stat, p
        ), r.group
    # the detected split matches the planted one where a step exists
    got = {r.group: r.k_star for r in out.itertuples()}
    assert got["a"] == 40 and got["b"] == 10


def test_lag1_stats_boundary_stitch_vs_brute(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.window import lag1_stats

    rng = np.random.default_rng(29)
    rows = {"g": [], "o": [], "t": [], "v": []}
    truth = {}
    for g, n in [("x", 97), ("y", 3), ("z", 1)]:
        vals = rng.integers(-50, 400, n).astype(np.int64)
        order = rng.permutation(n)
        rows["g"] += [g] * n
        rows["o"] += (np.arange(n)[order] * 3).tolist()
        rows["t"] += order.tolist()
        rows["v"] += vals[order].tolist()
        a, b = vals[:-1], vals[1:]
        truth[g] = (
            n, int(vals.sum()), int((vals * vals).sum()),
            n - 1, int(a.sum()), int(b.sum()), int((a * b).sum()),
            int(vals[0]), int(vals[-1]),
        )

    ds = rd.from_arrow(
        pa.table(
            {
                "g": pa.array(rows["g"], pa.string()),
                "o": pa.array(rows["o"], pa.int64()),
                "t": pa.array(rows["t"], pa.int64()),
                "v": pa.array(rows["v"], pa.int64()),
            }
        )
    ).repartition(8)
    # 8 sorted blocks put many boundary pairs in group x; group z has
    # a single row (m=0); group y spans fewer blocks than exist
    out = lag1_stats(ds, "g", "o", "t", "v")
    assert len(out) == 3
    for r in out.itertuples():
        assert (
            r.n, r.s_x, r.s_xx, r.m, r.s_a, r.s_b, r.s_ab,
            r.first_v, r.last_v,
        ) == truth[r.group], r.group


def test_one_exact_quantile_in_the_package():
    """Every exact quantile goes through ``selection.quantiles``: no
    k-th selection, grouped quantile or hand-written prefix-sum rank
    read-off of its own in ``pipelines/`` or ``stages/``."""
    import re
    from pathlib import Path

    from zzzarchived_arxiv_fulltext_ray.stages import selection

    pkg = Path(selection.__file__).resolve().parents[1]
    found = {}
    for sub in ("pipelines", "stages"):
        for p in sorted((pkg / sub).rglob("*.py")):
            rel = p.relative_to(pkg).as_posix()
            if rel == "stages/selection.py":
                continue
            n = len(re.findall(
                r"distributed_kth|grouped_quantile_disc|searchsorted\(cum",
                p.read_text(),
            ))
            if n:
                found[rel] = n
    assert found == {}


def test_quantile_rank_is_exact():
    """ceil(q*n) in integer arithmetic, with no data: q = 1/3 at
    n = 3,000,001 is rank 1,000,001, where rounding q to a multiple of
    1e-6 gives 1,000,000."""
    from zzzarchived_arxiv_fulltext_ray.stages.selection import (
        _fraction,
        _rank,
    )

    n = 3_000_001
    q = Fraction(1, 3)
    assert _rank(q, n) == -(-n // 3) == 1_000_001
    assert -(-(round(float(q) * 10**6) * n) // 10**6) == 1_000_000
    assert _rank(Fraction(0), n) == 1 and _rank(Fraction(1), n) == n
    assert _fraction(0.9) == Fraction(9, 10) and _rank(_fraction(0.9), 10) == 9
    assert _fraction(1) == 1 and _fraction(Fraction(2, 3)) == Fraction(2, 3)


def test_quantiles_reads_off_past_4096_values(ray_session, executions,
                                              monkeypatch):
    """One q over more than 4096 distinct values (each block's own
    histogram stays under 4096 rows): the merged histogram is read off
    in one execution — the read-off is ``plan.broadcast``'s decision on
    the histogram's rows and bytes, not a bound of 4096 rows per
    target."""
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    monkeypatch.delenv("GRAFT_FORCE_PARTITIONED", raising=False)
    vals = np.random.default_rng(73).permutation(10**6)[:6000]
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(4)
    got = []
    assert executions(
        lambda: got.append(quantiles(ds, "v", {"p50": 0.5}))
    ) == 1
    assert got[0]["p50"][0] == np.sort(vals)[3000 - 1]


@pytest.mark.parametrize("branch", ["histogram", "refinement"])
def test_quantiles_matches_duckdb(ray_session, executions, monkeypatch,
                                  branch):
    """quantiles() against DuckDB quantile_disc / quantile_cont and a
    brute-force weighted k-th: null values, a constant-value group, a
    NULL group key, q = 0 and q = 1, several qs per call, zero weights
    (one group has weight 0 in total). The histogram branch runs on a
    small domain in one execution; the refinement branch on a ±10^12
    domain with the forced mode. Pass 0 folds its partials every two
    blocks, so the mid-stream merge runs too."""
    import duckdb
    import pandas as pd
    import ray.data

    from zzzarchived_arxiv_fulltext_ray.stages import selection
    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    forced = branch == "refinement"
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1" if forced else "0")
    monkeypatch.setattr(selection, "_MERGE_EVERY", 2)
    dom = 10**12 if forced else 50
    rng = np.random.default_rng(71)
    m = 3000
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c", None], m),
            "v": pd.array(rng.integers(-dom, dom, m), dtype="Int64"),
            "w": rng.integers(0, 4, m),
        }
    )
    df.loc[rng.random(m) < 0.05, "v"] = pd.NA
    df = pd.concat(
        [df, pd.DataFrame({"g": ["k"] * 9, "v": pd.array([7] * 9, "Int64"),
                           "w": [0] * 9})],
        ignore_index=True,
    )
    ds = ray.data.from_pandas(df).repartition(4)
    qs = {"q0": 0.0, "q10": 0.1, "q50": 0.5, "q90": 0.9, "q100": 1.0}
    sql_qs = ", ".join(
        f"quantile_disc(v, {q}) AS {k}" for k, q in qs.items()
    )
    want = duckdb.sql(
        f"SELECT g, count(v) AS n, min(v) AS lo, max(v) AS hi, {sql_qs} "
        "FROM df WHERE v IS NOT NULL GROUP BY g ORDER BY g"
    ).df()

    got = []
    n_exec = executions(
        lambda: got.append(quantiles(ds, "v", qs, by="g"))
    )
    got = got[0]
    if not forced:
        assert n_exec == 1
    assert got["g"].tolist() == want["g"].tolist()
    for c in ["n", "lo", "hi"] + list(qs):
        assert got[c].tolist() == want[c].astype("int64").tolist(), c

    cont = quantiles(ds, "v", {"c25": 0.25, "c50": 0.5, "c1": 1.0},
                     interpolate=True)
    want_c = duckdb.sql(
        "SELECT quantile_cont(v, 0.25) c25, quantile_cont(v, 0.5) c50, "
        "quantile_cont(v, 1.0) c1 FROM df"
    ).df()
    for c in ("c25", "c50", "c1"):
        assert cont[c][0] == want_c[c][0], c

    wq = {"w0": 0.0, "w33": Fraction(1, 3), "w50": 0.5, "w100": 1.0}
    wgot = quantiles(ds, "v", wq, by="g", weight="w")
    live = df[df["v"].notna()]
    for row in wgot.itertuples(index=False):
        sub = live[live["g"].isna()] if row.g is None else \
            live[live["g"] == row.g]
        sub = sub.sort_values("v", kind="stable")
        cw = np.cumsum(sub["w"].to_numpy())
        assert row.n == cw[-1]
        for k, q in wq.items():
            f = Fraction(str(q)) if isinstance(q, float) else q
            rank = max(1, -(-(f.numerator * int(cw[-1])) // f.denominator))
            if cw[-1] == 0:
                assert pd.isna(getattr(row, k)), (row.g, k)
            else:
                assert getattr(row, k) == sub["v"].to_numpy()[
                    np.searchsorted(cw, rank)], (row.g, k)
    assert wgot.loc[wgot["g"] == "k", "n"].tolist() == [0]


def test_weighted_kth_and_median_vs_brute(ray_session, monkeypatch):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.selection import quantiles

    rng = np.random.default_rng(41)
    vals = rng.integers(-1000, 1000, 500).astype(np.int64)
    wts = rng.integers(0, 20, 500).astype(np.int64)  # zeros included
    ds = rd.from_arrow(
        pa.table({"v": pa.array(vals), "w": pa.array(wts)})
    ).repartition(7)

    order = np.argsort(vals, kind="stable")
    sv, sw = vals[order], wts[order]
    cw = np.cumsum(sw)
    W = int(cw[-1])

    def brute(kw):
        return int(sv[np.searchsorted(cw, kw)])

    kws = (1, 2, W // 3, (W + 1) // 2, W - 1, W)
    for _ in _both_branches(monkeypatch):
        got = quantiles(ds, "v", {f"k{kw}": Fraction(kw, W) for kw in kws},
                        weight="w")
        assert [got[f"k{kw}"][0] for kw in kws] == [brute(kw) for kw in kws]
        med = quantiles(ds, "v", {"m": 0.5}, weight="w")
        assert med["n"][0] == W and med["m"][0] == brute((W + 1) // 2)

    with pytest.raises(ValueError):
        quantiles(ds, "v", {"x": Fraction(W + 1, W)}, weight="w")


def test_morton2_bit_exact_and_locality():
    import numpy as np

    from zzzarchived_arxiv_fulltext_ray.functions.hashing import morton2

    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**32, 500, dtype=np.uint64)
    b = rng.integers(0, 2**32, 500, dtype=np.uint64)

    def brute(x, y):
        out = 0
        for i in range(32):
            out |= ((x >> i) & 1) << (2 * i)
            out |= ((y >> i) & 1) << (2 * i + 1)
        return out

    m = morton2(a, b)
    for i in range(0, 500, 37):
        assert int(m[i]) == brute(int(a[i]), int(b[i]))

    # locality: points inside one aligned 2^k x 2^k tile share the
    # morton prefix above 2k bits — the pruning property a Z-order
    # layout exploits (a hash layout scatters the same tile)
    xs = rng.integers(0, 256, 200, dtype=np.uint64) + 512
    ys = rng.integers(0, 256, 200, dtype=np.uint64) + 1024
    codes = morton2(xs, ys)
    prefixes = set((codes >> np.uint64(16)).tolist())
    assert len(prefixes) == 1


def test_token_budget_empty_corpus(ray_session):
    """An all-filtered (zero-row) input returns a typed-empty frame
    instead of crashing in the driver prefix-sum."""
    got = token_budget_select(_mix_ds([(1, "en", "")]).filter(
        lambda r: False
    ))
    assert len(got) == 0
    assert list(got.columns) == ["doc_id", "lang", "n_tokens"]
