"""BPE tokenizer training + crawl snapshot diff.

The merge-application rule (two-pass separator REPLACE) and its
documented repeated-symbol segmentation variant are pinned here; the
end-to-end parity of bpe_merges / snapshot_diff / events_dedup_window
vs DuckDB is the oracle gate's job.
"""

from collections import Counter

import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.stages.bpe import (
    bpe_train,
    symbols_of,
    word_counts,
)
from zzzarchived_arxiv_fulltext_ray.stages.dedup import snapshot_diff


def test_symbols_two_pass_merges_all_isolated_pairs():
    # chained distinct pairs all merge ("x y x y x y" -> 3x "xy")
    assert symbols_of("xyxyxy", [("x", "y")]) == "|xy|xy|xy|"
    # multi-char chained merges
    s = symbols_of("lower", [("l", "o"), ("lo", "w")])
    assert s == "|low|e|r|"


def test_symbols_repeated_run_contract():
    # DOCUMENTED VARIANT: a 5-run of x under (x, x) segments
    # [xx, x, xx] (lookaround BPE would give [xx, xx, x]); the merged
    # pair count per run (len // 2) is identical either way.
    assert symbols_of("xxxxx", [("x", "x")]) == "|xx|x|xx|"
    assert symbols_of("xxxx", [("x", "x")]) == "|xx|xx|"
    # a merged symbol is never confused with the pair pattern
    assert symbols_of("xxx", [("x", "x"), ("xx", "x")]) == "|xxx|"


def _brute_bpe(texts, rounds):
    """Single-node reference: same tokenization, same merge rule."""
    import re

    wc = Counter()
    for t in texts:
        for w in t.lower().split():
            if re.fullmatch(r"[a-z]{2,}", w):
                wc[w] += 1
    merges, rows = [], []
    for r in range(rounds):
        pc = Counter()
        for w, n in wc.items():
            syms = symbols_of(w, merges).strip("|").split("|")
            for a, b in zip(syms, syms[1:]):
                pc[(a, b)] += n
        if not pc:
            break
        best = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append(best[0])
        rows.append(
            (r + 1, best[0][0], best[0][1], best[1])
        )
    return rows


def test_bpe_train_matches_single_node_reference(ray_session):
    import ray.data as rd

    texts = [
        "the cat sat on the mat",
        "the thin thing then thundered",
        "banana bandana and a cabana",
        "Mixed CASE and punct! stay-out 123",
        "",
    ] * 3
    docs = rd.from_arrow(
        pa.table({"text": pa.array(texts, pa.string())})
    ).repartition(4)
    got = bpe_train(docs, rounds=4)
    want = _brute_bpe(texts, 4)
    assert list(
        got[["merge_round", "left_sym", "right_sym", "n"]].itertuples(
            index=False, name=None
        )
    ) == want


def test_word_counts_filters_non_alpha(ray_session):
    import ray.data as rd

    docs = rd.from_arrow(
        pa.table({"text": ["aa bb AA x 1b b2 -- aa"]})
    )
    got = dict(
        (r["word"], r["cnt"])
        for r in word_counts(docs).take_all()
    )
    assert got == {"aa": 3, "bb": 1}


def _diff_result(old_rows, new_rows):
    import ray.data as rd

    def tbl(rows):
        return pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )

    ds = snapshot_diff(
        rd.from_arrow(tbl(old_rows)), rd.from_arrow(tbl(new_rows))
    )
    return {r["doc_id"]: r["change_class"] for r in ds.take_all()}


def test_snapshot_diff_classes(ray_session):
    got = _diff_result(
        [(1, "a"), (2, "b"), (3, "c")],
        [(2, "b"), (3, "c-edited"), (4, "d")],
    )
    assert got == {
        1: "removed",
        2: "unchanged",
        3: "changed",
        4: "added",
    }


def test_snapshot_diff_duplicate_key_raises(ray_session):
    with pytest.raises(Exception, match="duplicate|RayTaskError"):
        _diff_result([(1, "a"), (1, "a2")], [(1, "a")])


def test_symbol_counts_apply(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.bpe import symbol_counts

    wc = rd.from_arrow(
        pa.table(
            {
                "word": pa.array(["abab", "ab"], pa.string()),
                "cnt": pa.array([2, 3], pa.int64()),
            }
        )
    )
    got = {
        r["sym"]: r["n"]
        for r in symbol_counts(wc, [("a", "b")]).take_all()
    }
    # abab -> [ab, ab] x2, ab -> [ab] x3  => ab: 7
    assert got == {"ab": 7}


def test_suffix_prefix_join_stitches(ray_session):
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.spans import (
        suffix_prefix_join,
    )

    frags = rd.from_arrow(
        pa.table(
            {
                "frag_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "a b c d e f g",      # suffix: c d e f g
                        "c d e f g h i",      # prefix: c d e f g -> 1->2
                        "x y z",              # < 5 tokens, dropped
                        "q r s t u v",        # no match
                    ],
                    pa.string(),
                ),
            }
        )
    ).repartition(2)
    got = sorted(
        (r["left_id"], r["right_id"])
        for r in suffix_prefix_join(frags, k=5).take_all()
    )
    assert got == [(1, 2)]


def test_count_inversions_matches_brute():
    import numpy as np

    from zzzarchived_arxiv_fulltext_ray.stages.window import (
        _count_inversions,
    )

    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 17, 100):
        a = rng.integers(0, 8, size=n)
        brute = sum(
            int(a[i] > a[j]) for i in range(n) for j in range(i + 1, n)
        )
        assert _count_inversions(a) == brute


def test_kendall_tau_matches_brute(ray_session):
    import numpy as np
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.window import kendall_tau

    rng = np.random.default_rng(11)
    n = 300
    x = rng.integers(0, 40, size=n).astype("int64")  # plenty of ties
    y = (x + rng.integers(-5, 6, size=n)).astype("int64")
    ds = rd.from_arrow(
        pa.table({"x": pa.array(x), "y": pa.array(y)})
    ).repartition(8)
    r = kendall_tau(ds, "x", "y")

    conc = disc = 0
    for i in range(n):
        dx, dy = x[i] - x[i + 1:], y[i] - y[i + 1:]
        s = dx * dy
        conc += int((s > 0).sum())
        disc += int((s < 0).sum())
    assert (r["n_concordant"], r["n_discordant"]) == (conc, disc)
    n0 = n * (n - 1) // 2
    import math

    want = float(conc - disc) / math.sqrt(
        float(n0 - r["n_ties_x"]) * float(n0 - r["n_ties_y"])
    )
    assert r["tau_b"] == want


def test_mmr_select_matches_single_node(ray_session):
    import numpy as np
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.similarity import (
        mmr_select,
    )

    rng = np.random.default_rng(3)
    n, d, lam, k = 60, 8, 0.6, 5
    m = rng.normal(size=(n, d))
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    m.tolist(), pa.list_(pa.float64())
                ),
            }
        )
    ).repartition(4)
    got = mmr_select(ds, k=k, lam=lam, query_id=0)

    nm = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = nm[0]
    sel, want = [], []
    for rank in range(1, k + 1):
        excl = {0} | {i for i, _ in sel}
        rel = nm @ q
        pen = (
            (nm @ np.stack([v for _, v in sel]).T).max(axis=1)
            if sel
            else np.zeros(n)
        )
        score = lam * rel - (1.0 - lam) * pen
        i = min(
            ((-score[j], j) for j in range(n) if j not in excl)
        )[1]
        sel.append((i, nm[i]))
        want.append((rank, i, score[i]))

    assert list(got["rank"]) == [w[0] for w in want]
    assert list(got["vec_id"]) == [w[1] for w in want]
    assert np.allclose(
        got["score"].to_numpy(),
        np.array([w[2] for w in want]),
        rtol=0,
        atol=1e-12,
    )


def test_render_markdown_contract():
    from zzzarchived_arxiv_fulltext_ray.functions.markdown import (
        render_markdown,
    )

    md = render_markdown(
        '<h2> A  B </h2><p>mid <a href="/x">link</a> end</p>'
        "<ul><li>one</li><li><b>two</b> items</li></ul>"
        "<div>stray <em>inline</em> run</div>"
    )
    assert md == (
        "## A B\n\n"
        "mid [link](/x) end\n\n"
        "- one\n- two items\n\n"
        "stray inline run"
    )
    # malformed markup: script/head dropped. Unclosed <p>/<li> NEST
    # (the forgiving parser never implicitly closes — same tree
    # contract as the plain-text extractor), so the outer <p> is one
    # leaf block whose nested text flattens inline.
    md2 = render_markdown(
        "<head><title>T</title></head><body><p>a<p>b"
        "<script>x=1</script><li>c</body>"
    )
    assert md2 == "abc"
    # anchor without href
    assert render_markdown('<p><a name="z">t</a></p>') == "[t]()"


def test_extraction_pipeline_emit_markdown(ray_session):
    import pandas as pd

    from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import read_pages

    ds = extraction_pipeline(
        read_pages("/root/testdata/sf0.001"),
        derive_psv=False,
        emit_markdown=True,
    )
    df = ds.to_pandas()
    assert "markdown" in df.columns
    doc_ids = (
        df["url"].str.slice(-8).astype("int64")
    )
    kinds = doc_ids % 20
    is_html = kinds.isin([3, 6, 7]) | (kinds >= 9)
    assert df.loc[is_html, "markdown"].str.startswith("# Site").all()
    assert df.loc[~is_html, "markdown"].isna().all()
    # the structured variant carries the same body text the plain
    # cascade extracted (succeeded html rows only)
    ok = is_html & (df["status"] == "succeeded")
    sample = df[ok].head(20)
    for _, r in sample.iterrows():
        assert r["text"] in r["markdown"]


def test_chatterjee_xi_matches_brute(ray_session):
    import numpy as np
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.window import (
        chatterjee_xi,
    )

    rng = np.random.default_rng(5)
    n = 400
    x = rng.integers(0, 30, size=n).astype("int64")  # heavy x-ties
    y = ((x * x) % 17 + rng.integers(0, 3, size=n)).astype("int64")
    tie = np.arange(n, dtype="int64")
    ds = rd.from_arrow(
        pa.table(
            {"x": pa.array(x), "y": pa.array(y), "tie": pa.array(tie)}
        )
    ).repartition(9)
    r = chatterjee_xi(ds, "x", "y", tie_col="tie")

    order = np.lexsort((tie, x))
    rank = np.array([(y <= yi).sum() for yi in y])[order]
    s = int(np.abs(np.diff(rank)).sum())
    assert (r["n"], r["s_abs"]) == (n, s)
    assert r["xi"] == 1.0 - 3.0 * s / (n * n - 1)
