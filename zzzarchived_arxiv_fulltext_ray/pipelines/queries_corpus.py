"""Corpus-construction queries + oracles (round-3 operator families).

* Link graph from the RAW page payloads (``stages.links``): the
  engine sniffs + decodes each payload and regex-parses anchors;
  the oracles never parse HTML but reconstruct the synthesizer's
  deterministic link structure straight from ``documents`` —
  end-to-end cross-validation of the real parse against ground truth
  (``link_targets``, ``domain_outdegree``, ``anchor_texts``,
  ``page_titles``, ``html_tag_stats``).
* Data mixing / selection (``stages.mixing``): per-language
  token-budget prefix selection in two physical plans
  (``token_budget_mix``, ``token_budget_mix_distributed``), DSIR
  importance scores (``dsir_select``), priority sampling
  (``weighted_sample``), URL canonicalization
  (``url_canonicalize``), per-domain language entropy
  (``domain_lang_entropy``).
* Window primitives (``stages.window``): distributed exact cumsum
  (``shard_assign``), global/grouped row_number (``doc_rank``,
  ``lang_ntile``), a ROWS-frame moving aggregate (``events_moving``).
* IR / context prep: bounded-df inverted index (``inverted_index``),
  overlapping context windows (``doc_chunks``).
* The flagship composition ``curate_pages``: dedup -> extraction ->
  Gopher gate -> url-keyed token budget, the whole chain replayed in
  one SQL oracle.

Every oracle follows the pages-synthesizer convention (CLAUDE.md):
deterministic pure-function-of-doc_id inputs reconstructed in SQL.
"""

from typing import Callable, Dict

from ..sources.pages import read_documents
from ..stages.aggregate import aggregate

CORPUS_QUERIES: Dict[str, Callable] = {}
CORPUS_ORACLE_SQL: Dict[str, str] = {}


# ------------------------------------------------------- link graph

def _q_link_targets(sf_dir: str):
    """Top-100 most-linked-to targets across all crawled page rows
    (re-crawl duplicates each count: frontier pressure is per fetch)."""
    from ..sources.pages import read_pages
    from ..stages.links import top_link_targets

    return top_link_targets(read_pages(sf_dir), k=100)


def _q_domain_outdegree(sf_dir: str):
    """Total outlink count per source domain."""
    from ..sources.pages import read_pages
    from ..stages.links import domain_outdegree

    return domain_outdegree(read_pages(sf_dir))


# Pages with parseable HTML: synthesizer kinds 3 (latin-1), 6 (garble
# body, boilerplate intact), 7 (UTF-16) and 9-19 (utf-8); kinds 0/1/8
# are PDFs, 2/4 empty payloads, 5 binary junk. Every such page carries
# nav links '/'||word for the first 6+doc_id%6 nav words, 18 farm
# links '/t/'||(doc_id*7+i)%997, and 2 footer links; doc_id%10==0
# pages are crawled 3 times (sources/pages.py:synthesize_rows).
_LINKS_CTE = """
WITH eligible AS (
    SELECT doc_id,
           CASE WHEN doc_id % 10 = 0 THEN 3 ELSE 1 END AS m
    FROM documents
    WHERE doc_id % 20 IN (3, 6, 7) OR doc_id % 20 >= 9
), nav_words(i, w) AS (
    VALUES (0, 'Home'), (1, 'News'), (2, 'Sports'), (3, 'Opinion'),
           (4, 'Culture'), (5, 'Science'), (6, 'Business'),
           (7, 'Travel'), (8, 'Archive'), (9, 'About'),
           (10, 'Contact'), (11, 'Subscribe')
), links AS (
    SELECT e.doc_id, '/' || n.w AS target, e.m
    FROM eligible e JOIN nav_words n ON n.i < 6 + e.doc_id % 6
    UNION ALL
    SELECT e.doc_id,
           '/t/' || CAST((e.doc_id * 7 + t.i) % 997 AS VARCHAR), e.m
    FROM eligible e, UNNEST(generate_series(0, 17)) AS t(i)
    UNION ALL
    SELECT e.doc_id, f.target, e.m
    FROM eligible e, (VALUES ('/privacy'), ('/terms')) AS f(target)
)
"""

CORPUS_QUERIES["link_targets"] = _q_link_targets
CORPUS_ORACLE_SQL["link_targets"] = (
    _LINKS_CTE
    + """
SELECT target, CAST(sum(m) AS BIGINT) AS n
FROM links
GROUP BY target
ORDER BY n DESC, target
LIMIT 100
"""
)

CORPUS_QUERIES["domain_outdegree"] = _q_domain_outdegree
CORPUS_ORACLE_SQL["domain_outdegree"] = """
SELECT 'site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
       || '.example.org' AS src_domain,
       CAST(sum((CASE WHEN doc_id % 10 = 0 THEN 3 ELSE 1 END)
                * (26 + doc_id % 6)) AS BIGINT) AS n_links
FROM documents
WHERE doc_id % 20 IN (3, 6, 7) OR doc_id % 20 >= 9
GROUP BY 1
ORDER BY 1
"""


def _q_anchor_texts(sf_dir: str):
    """Top (target, anchor-text) pairs: the anchor-text corpus (link
    text is a relevance/label signal for the linked-to target)."""
    from ..sources.pages import read_pages
    from ..stages.links import top_anchor_texts

    return top_anchor_texts(read_pages(sf_dir), k=100)


CORPUS_QUERIES["anchor_texts"] = _q_anchor_texts
CORPUS_ORACLE_SQL["anchor_texts"] = """
WITH eligible AS (
    SELECT doc_id,
           CASE WHEN doc_id % 10 = 0 THEN 3 ELSE 1 END AS m
    FROM documents
    WHERE doc_id % 20 IN (3, 6, 7) OR doc_id % 20 >= 9
), nav_words(i, w) AS (
    VALUES (0, 'Home'), (1, 'News'), (2, 'Sports'), (3, 'Opinion'),
           (4, 'Culture'), (5, 'Science'), (6, 'Business'),
           (7, 'Travel'), (8, 'Archive'), (9, 'About'),
           (10, 'Contact'), (11, 'Subscribe')
), farm_words(i, w) AS (
    VALUES (0, 'trending'), (1, 'popular'), (2, 'latest'),
           (3, 'editors'), (4, 'picks'), (5, 'weekly'), (6, 'digest'),
           (7, 'related'), (8, 'stories'), (9, 'from'),
           (10, 'around'), (11, 'the'), (12, 'network'),
           (13, 'partner'), (14, 'links'), (15, 'more'),
           (16, 'coverage')
), pairs AS (
    SELECT '/' || n.w AS target, n.w AS anchor, e.m
    FROM eligible e JOIN nav_words n ON n.i < 6 + e.doc_id % 6
    UNION ALL
    SELECT '/t/' || CAST((e.doc_id * 7 + t.i) % 997 AS VARCHAR),
           a.w || ' ' || b.w || ' '
               || CAST((e.doc_id * 7 + t.i) % 997 AS VARCHAR),
           e.m
    FROM eligible e,
         UNNEST(generate_series(0, 17)) AS t(i)
    JOIN farm_words a ON a.i = (e.doc_id + t.i) % 17
    JOIN farm_words b ON b.i = (e.doc_id + 2 * t.i + 3) % 17
    UNION ALL
    SELECT f.target, f.anchor, e.m
    FROM eligible e,
         (VALUES ('/privacy', 'Privacy'), ('/terms', 'Terms'))
         AS f(target, anchor)
)
SELECT target, anchor, CAST(sum(m) AS BIGINT) AS n
FROM pairs
GROUP BY target, anchor
ORDER BY n DESC, target, anchor
LIMIT 100
"""


def _q_page_titles(sf_dir: str):
    """<title> extraction per crawled HTML page row (crawl-index
    metadata op); decode via the cascade's sniff path, so Latin-1 and
    BOM'd UTF-16 titles parse identically. Oracle reconstructs the
    synthesizer's 'Article {doc_id}' titles."""
    import re

    import pyarrow as pa

    from ..functions import sniff
    from ..sources.pages import read_pages

    title_re = re.compile(r"<title>(.*?)</title>", re.IGNORECASE | re.DOTALL)

    def titles(batch: pa.Table) -> pa.Table:
        urls, out = [], []
        for url, payload in zip(
            batch["url"].to_pylist(), batch["html"].to_pylist()
        ):
            if not payload or sniff.sniff_kind(payload) != sniff.KIND_HTML:
                continue
            markup = sniff.decode_payload(
                payload, sniff.detect_charset(payload)
            )
            m = title_re.search(markup)
            urls.append(url)
            out.append(m.group(1).strip() if m else "")
        return pa.Table.from_pydict(
            {
                "url": pa.array(urls, pa.string()),
                "title": pa.array(out, pa.string()),
            }
        )

    out = read_pages(sf_dir).map_batches(titles, batch_format="pyarrow")
    return out.to_pandas().sort_values("url").reset_index(drop=True)


CORPUS_QUERIES["page_titles"] = _q_page_titles
CORPUS_ORACLE_SQL["page_titles"] = """
WITH eligible AS (
    SELECT doc_id,
           CASE WHEN doc_id % 10 = 0 THEN 3 ELSE 1 END AS m
    FROM documents
    WHERE doc_id % 20 IN (3, 6, 7) OR doc_id % 20 >= 9
), rep AS (
    SELECT doc_id FROM eligible, UNNEST(generate_series(1, m)) AS g(i)
)
SELECT 'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
       || '.example.org/articles/'
       || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       'Article ' || CAST(doc_id AS VARCHAR) AS title
FROM rep
ORDER BY url
"""


def _q_html_tag_stats(sf_dir: str):
    """Structural stats per crawled HTML page row: anchor, paragraph
    and list-item tag counts parsed from the RAW payload (decode via
    the cascade's sniff path). The oracle never parses: it derives the
    expected counts from the synthesizer's template (26 + doc_id%6
    anchors, one <p> per text paragraph, 18 <li>) — structure parse
    cross-validated against ground truth."""
    import pyarrow as pa

    from ..functions import sniff
    from ..sources.pages import read_pages

    def stats(batch: pa.Table) -> pa.Table:
        urls, n_a, n_p, n_li = [], [], [], []
        for url, payload in zip(
            batch["url"].to_pylist(), batch["html"].to_pylist()
        ):
            if not payload or sniff.sniff_kind(payload) != sniff.KIND_HTML:
                continue
            markup = sniff.decode_payload(
                payload, sniff.detect_charset(payload)
            )
            urls.append(url)
            n_a.append(markup.count('<a href="'))
            n_p.append(markup.count("<p>"))
            n_li.append(markup.count("<li>"))
        return pa.Table.from_pydict(
            {
                "url": pa.array(urls, pa.string()),
                "n_anchors": pa.array(n_a, pa.int64()),
                "n_paragraphs": pa.array(n_p, pa.int64()),
                "n_list_items": pa.array(n_li, pa.int64()),
            }
        )

    out = read_pages(sf_dir).map_batches(stats, batch_format="pyarrow")
    return out.to_pandas().sort_values("url").reset_index(drop=True)


CORPUS_QUERIES["html_tag_stats"] = _q_html_tag_stats
CORPUS_ORACLE_SQL["html_tag_stats"] = """
WITH eligible AS (
    SELECT doc_id, text,
           CASE WHEN doc_id % 10 = 0 THEN 3 ELSE 1 END AS m
    FROM documents
    WHERE doc_id % 20 IN (3, 6, 7) OR doc_id % 20 >= 9
), rep AS (
    SELECT doc_id, text
    FROM eligible, UNNEST(generate_series(1, m)) AS g(i)
)
SELECT 'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
       || '.example.org/articles/'
       || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       CAST(26 + doc_id % 6 AS BIGINT) AS n_anchors,
       CAST(CASE WHEN doc_id % 20 = 6 THEN 1
                 ELSE len(string_split(text, chr(10) || chr(10)))
            END AS BIGINT) AS n_paragraphs,
       CAST(18 AS BIGINT) AS n_list_items
FROM rep
ORDER BY url
"""


# ------------------------------------------------ URL canonicalization

def _q_url_canonicalize(sf_dir: str):
    """URL canonicalization over deterministically denormalized crawl
    URLs (pure function of doc_id, the inject-PII pattern): cased
    host + explicit :443 (%4), ../ path noise (%7), tracking params
    (%3), fragments (%5). The kernel must collapse every variant back
    to the synthesizer's canonical URL (+ surviving real params); the
    oracle reconstructs that expected form without parsing."""
    import pyarrow as pa

    from ..functions.urlnorm import canonicalize_url

    def mangle_and_canon(batch: pa.Table) -> pa.Table:
        out = []
        for doc_id in batch["doc_id"].to_pylist():
            host = "site%02d.example.org" % (doc_id % 50)
            path = "/articles/%08d" % doc_id
            if doc_id % 4 == 0:
                host = host.upper() + ":443"
            if doc_id % 7 == 0:
                path = "/articles/../articles/%08d" % doc_id
            url = "https://" + host + path
            if doc_id % 3 == 0:
                url += "?utm_source=feed&x=1"
            if doc_id % 5 == 0:
                url += "#section2"
            out.append(canonicalize_url(url))
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"].combine_chunks(),
                "url": pa.array(out, pa.string()),
            }
        )

    docs = read_documents(sf_dir, ["doc_id"])
    out = docs.map_batches(mangle_and_canon, batch_format="pyarrow")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


CORPUS_QUERIES["url_canonicalize"] = _q_url_canonicalize
CORPUS_ORACLE_SQL["url_canonicalize"] = """
SELECT doc_id,
       'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
       || '.example.org/articles/'
       || lpad(CAST(doc_id AS VARCHAR), 8, '0')
       || CASE WHEN doc_id % 3 = 0 THEN '?x=1' ELSE '' END AS url
FROM documents
ORDER BY doc_id
"""


# ------------------------------------------------ token-budget mixing

def _q_token_budget_mix(sf_dir: str):
    """Half-the-tokens-per-language mixture subset: the maximal
    hash-ordered document prefix per lang whose token total fits
    floor(lang_total / 2)."""
    from ..stages.mixing import token_budget_select

    docs = read_documents(sf_dir, ["doc_id", "lang", "text"])
    return token_budget_select(docs, budget_num=1, budget_den=2)


def _q_token_budget_mix_distributed(sf_dir: str):
    """Same selection, forced no-driver-pull physical plan: the full
    distributed window cumsum + budget filter (the 10^12-doc path) —
    a gate witness that both plans agree (cf. decontaminate_partitioned)."""
    from ..stages.mixing import token_budget_select_distributed

    docs = read_documents(sf_dir, ["doc_id", "lang", "text"])
    return token_budget_select_distributed(docs, budget_num=1, budget_den=2)


CORPUS_QUERIES["token_budget_mix"] = _q_token_budget_mix
CORPUS_QUERIES["token_budget_mix_distributed"] = (
    _q_token_budget_mix_distributed
)
_TOKEN_BUDGET_SQL = """
WITH toks AS (
    SELECT doc_id, lang,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS n_tokens
    FROM documents
), bud AS (
    SELECT lang, CAST(sum(n_tokens) // 2 AS BIGINT) AS budget
    FROM toks GROUP BY lang
), ordered AS (
    SELECT doc_id, lang, n_tokens,
           sum(n_tokens) OVER (
               PARTITION BY lang
               ORDER BY substr(md5(CAST(doc_id AS VARCHAR)), 1, 8), doc_id
           ) AS cum
    FROM toks
)
SELECT o.doc_id, o.lang, CAST(o.n_tokens AS BIGINT) AS n_tokens
FROM ordered o JOIN bud USING (lang)
WHERE o.cum <= bud.budget
ORDER BY o.doc_id
"""
CORPUS_ORACLE_SQL["token_budget_mix"] = _TOKEN_BUDGET_SQL
CORPUS_ORACLE_SQL["token_budget_mix_distributed"] = _TOKEN_BUDGET_SQL


# ------------------------------------- window cumsum / shard layout

def _q_shard_assign(sf_dir: str):
    """Fixed-token-budget output sharding: documents laid out in
    deterministic hash order per language and cut every 1000 tokens —
    the distributed window-cumsum primitive (``stages.window``), no
    global sort."""
    from ..stages.window import shard_assign

    docs = read_documents(sf_dir, ["doc_id", "lang", "text"])
    return shard_assign(docs, shard_tokens=1000)


CORPUS_QUERIES["shard_assign"] = _q_shard_assign
CORPUS_ORACLE_SQL["shard_assign"] = """
WITH toks AS (
    SELECT doc_id, lang,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS n_tokens
    FROM documents
), ordered AS (
    SELECT doc_id, lang, n_tokens,
           sum(n_tokens) OVER (
               PARTITION BY lang
               ORDER BY substr(md5(CAST(doc_id AS VARCHAR)), 1, 8), doc_id
           ) AS cum
    FROM toks
)
SELECT doc_id, lang, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST((cum - n_tokens) // 1000 AS BIGINT) AS shard_id
FROM ordered
ORDER BY doc_id
"""


# ---------------------------------- end-to-end curation composition

def curate_pages_from(pages_ds):
    """The flagship curation composition over ANY pages-schema
    Dataset (Parquet synthesizer, WARC shards, JSONL, fetch stage):
    latest-crawl dedup -> extraction cascade (byte-identity contract)
    -> Gopher quality gate on the EXTRACTED text -> per-language
    half-token-budget selection in md5(url) order. Four real operator
    families chained in one lazy streaming plan."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.mixing import token_budget_select
    from ..stages.webtext import gopher_verdict_batch
    from .extraction import extraction_pipeline

    ds = extraction_pipeline(pages_ds, derive_psv=False)

    def gate(batch: pa.Table) -> pa.Table:
        ok = batch.filter(pc.equal(batch["status"], "succeeded"))
        # verdict depends on text only; feed a dummy doc_id and keep
        # the url keying outside
        tmp = pa.Table.from_pydict(
            {
                "doc_id": pa.array(np.arange(len(ok)), pa.int64()),
                "text": ok["text"].combine_chunks(),
            }
        )
        keep = pc.equal(gopher_verdict_batch(tmp)["verdict"], "keep")
        return ok.filter(keep).select(["url", "lang", "text"])

    gated = ds.map_batches(gate, batch_format="pyarrow")

    # token_budget_select consumes its input on up to three passes
    # (histogram, boundary, final) and Ray has no common-subexpression
    # reuse — so drop the text and materialize ONLY the narrow
    # (url, lang, n_tokens) projection; the extraction cascade runs
    # exactly once. At cluster scale this intermediate is a
    # 3-fixed-width-column parquet checkpoint instead.
    def tokens_only(batch: pa.Table) -> pa.Table:
        n = pa.array(
            [len(t.split()) for t in batch["text"].to_pylist()],
            pa.int64(),
        )
        return pa.Table.from_pydict(
            {
                "url": batch["url"].combine_chunks(),
                "lang": batch["lang"].combine_chunks(),
                "n_tokens": n,
            }
        )

    narrow = gated.map_batches(
        tokens_only, batch_format="pyarrow"
    ).materialize()
    return token_budget_select(narrow, 1, 2, id_col="url")


def _q_curate_pages(sf_dir: str):
    """Flagship composition over the synthesizer source; the oracle
    replays the whole chain in SQL (extraction semantics from the
    pages formulas, the independent gopher count spellings, the budget
    window). `curate_pages_from` runs the identical plan over WARC /
    JSONL / fetch sources (pinned byte-identical in
    tests/test_warc.py::test_curate_pages_from_warc)."""
    from ..sources.pages import read_pages

    return curate_pages_from(read_pages(sf_dir))


CORPUS_QUERIES["curate_pages"] = _q_curate_pages
CORPUS_ORACLE_SQL["curate_pages"] = """
WITH ok AS (
    SELECT 'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || '.example.org/articles/'
           || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
           lang, text
    FROM documents
    WHERE doc_id % 20 NOT IN (4, 5, 6)
), m AS (
    SELECT url, lang,
           regexp_extract_all(text, '\\S+') AS words,
           string_split(text, chr(10)) AS lines,
           text
    FROM ok
), c AS (
    SELECT url, lang,
           CAST(len(words) AS BIGINT) AS n_words,
           CAST(coalesce(list_aggregate(
               list_transform(words, w -> length(w)), 'sum'), 0)
               AS BIGINT) AS n_word_chars,
           CAST(len(list_filter(words,
               w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT)
               AS n_alpha_words,
           CAST(length(text) - length(replace(text, '#', ''))
               + (length(text) - length(replace(text, '...', ''))) // 3
               AS BIGINT) AS n_symbols,
           CAST(len(lines) AS BIGINT) AS n_lines,
           CAST(len(list_filter(lines,
               l -> starts_with(l, '- ') OR starts_with(l, '* ')))
               AS BIGINT) AS n_bullet_lines,
           CAST(len(list_filter(lines, l -> ends_with(l, '...')))
               AS BIGINT) AS n_ellipsis_lines,
           CAST((CASE WHEN list_contains(words, 'the') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'a') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'and') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'of') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'to') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'in') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'is') THEN 1 ELSE 0 END)
              + (CASE WHEN list_contains(words, 'it') THEN 1 ELSE 0 END)
               AS BIGINT) AS n_stop
    FROM m
), keepd AS (
    SELECT url, lang, n_words
    FROM c
    WHERE NOT (n_words < 30 OR n_words > 100000)
      AND NOT (3 * n_words > n_word_chars OR n_word_chars > 10 * n_words)
      AND NOT (10 * n_symbols > n_words)
      AND NOT (2 * n_bullet_lines > n_lines)
      AND NOT (10 * n_ellipsis_lines > 3 * n_lines)
      AND NOT (5 * n_alpha_words < 4 * n_words)
      AND n_stop >= 2
), bud AS (
    SELECT lang, CAST(sum(n_words) // 2 AS BIGINT) AS budget
    FROM keepd GROUP BY lang
), ordered AS (
    SELECT url, lang, n_words,
           sum(n_words) OVER (
               PARTITION BY lang
               ORDER BY substr(md5(url), 1, 8), url
           ) AS cum
    FROM keepd
)
SELECT o.url, o.lang, CAST(o.n_words AS BIGINT) AS n_tokens
FROM ordered o JOIN bud USING (lang)
WHERE o.cum <= bud.budget
ORDER BY o.url
"""


# ----------------------------------------------- inverted index (IR)

def _q_inverted_index(sf_dir: str):
    """Posting lists for mid-frequency tokens (df in [max(5, N/100), 8N/10]): the IR
    index-construction shape. Scale plan: document frequencies first
    (per-batch distinct + counted partials -> one small (token, df)
    exchange), the driver keeps only the BOUNDED df-range vocabulary
    and broadcasts it, then a second scan emits (token, doc_id) pairs
    for selected tokens only — hot/stop tokens never shuffle their
    postings. Postings ship as a csv string (deterministic, ordered)
    so both engines compare exactly."""
    import pyarrow as pa

    docs = read_documents(sf_dir, ["doc_id", "text"])
    # scale-free df band: mid-frequency = [max(5, N/100), 8N/10] in
    # integer arithmetic (count() is parquet-metadata-only, no scan)
    n_docs = docs.count()
    DF_LO, DF_HI = max(5, n_docs // 100), n_docs * 8 // 10

    def distinct_pairs(batch: pa.Table):
        ids, toks = [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for w in set(text.split()):
                ids.append(doc_id)
                toks.append(w)
        return ids, toks

    def doc_tokens(batch: pa.Table) -> pa.Table:
        _, toks = distinct_pairs(batch)
        return pa.table({"token": pa.array(toks, pa.string())})

    df = aggregate(
        docs, "token", [("df", "count", None)], rows=doc_tokens
    ).to_pandas()
    sel = df[(df["df"] >= DF_LO) & (df["df"] <= DF_HI)]
    vocab = dict(zip(sel["token"], sel["df"].astype(int)))  # bounded

    def postings_pairs(batch: pa.Table) -> pa.Table:
        ids, toks = distinct_pairs(batch)
        keep_i, keep_t = [], []
        for i, t in zip(ids, toks):
            if t in vocab:
                keep_i.append(i)
                keep_t.append(t)
        return pa.Table.from_pydict(
            {
                "token": pa.array(keep_t, pa.string()),
                "doc_id": pa.array(keep_i, pa.int64()),
            }
        )

    def merge_group(g: pa.Table) -> pa.Table:
        tok = g["token"][0].as_py()
        ids = sorted(g["doc_id"].to_pylist())
        return pa.Table.from_pydict(
            {
                "token": pa.array([tok], pa.string()),
                "df": pa.array([vocab[tok]], pa.int64()),
                "postings": pa.array(
                    [",".join(str(i) for i in ids)], pa.string()
                ),
            }
        )

    out = (
        docs.map_batches(postings_pairs, batch_format="pyarrow")
        .groupby("token")
        .map_groups(merge_group, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("token").reset_index(drop=True)


CORPUS_QUERIES["inverted_index"] = _q_inverted_index
CORPUS_ORACLE_SQL["inverted_index"] = """
WITH toks AS (
    SELECT DISTINCT doc_id, w
    FROM (
        SELECT doc_id,
               unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                  x -> x <> '')) AS w
        FROM documents
    )
), df AS (
    SELECT w, count(*) AS df FROM toks GROUP BY w
), sel AS (
    SELECT w, df FROM df
    WHERE df BETWEEN greatest(5, (SELECT count(*) FROM documents) // 100)
                 AND ((SELECT count(*) FROM documents) * 8 // 10)
)
SELECT s.w AS token, CAST(s.df AS BIGINT) AS df,
       string_agg(CAST(t.doc_id AS VARCHAR), ','
                  ORDER BY t.doc_id) AS postings
FROM sel s JOIN toks t ON t.w = s.w
GROUP BY s.w, s.df
ORDER BY token
"""


# ------------------------------------------- context-window chunking

def _q_doc_chunks(sf_dir: str):
    """Overlapping context windows (64-token windows, stride 48) per
    document — pretraining/RAG context prep. Pure per-document
    fan-out; no exchange at all."""
    import numpy as np
    import pyarrow as pa

    WIN, STRIDE = 64, 48

    def chunks(batch: pa.Table) -> pa.Table:
        d_ids, c_ids, starts, lens = [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            n = len(text.split())
            i = 0
            while i * STRIDE < n:
                d_ids.append(doc_id)
                c_ids.append(i)
                starts.append(i * STRIDE)
                lens.append(min(WIN, n - i * STRIDE))
                i += 1
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(d_ids, pa.int64()),
                "chunk_id": pa.array(c_ids, pa.int64()),
                "start_tok": pa.array(starts, pa.int64()),
                "chunk_tokens": pa.array(lens, pa.int64()),
            }
        )

    out = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        chunks, batch_format="pyarrow"
    )
    return (
        out.to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )


CORPUS_QUERIES["doc_chunks"] = _q_doc_chunks
CORPUS_ORACLE_SQL["doc_chunks"] = """
WITH toks AS (
    SELECT doc_id,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS n
    FROM documents
)
SELECT doc_id, CAST(g.i AS BIGINT) AS chunk_id,
       CAST(g.i * 48 AS BIGINT) AS start_tok,
       CAST(LEAST(64, n - g.i * 48) AS BIGINT) AS chunk_tokens
FROM toks, UNNEST(generate_series(0, (n - 1) // 48)) AS g(i)
WHERE n > 0
ORDER BY doc_id, chunk_id
"""


# -------------------------------------- weighted (priority) sampling

# 4-hex-char md5 prefix as an int — cheap to reconstruct in SQL
# (4 strpos terms); 16 bits of uniformity is plenty for sampling
_H4_SQL = """
  (strpos('0123456789abcdef',
          substr(md5(CAST(doc_id AS VARCHAR)), 1, 1)) - 1) * 4096
+ (strpos('0123456789abcdef',
          substr(md5(CAST(doc_id AS VARCHAR)), 2, 1)) - 1) * 256
+ (strpos('0123456789abcdef',
          substr(md5(CAST(doc_id AS VARCHAR)), 3, 1)) - 1) * 16
+ (strpos('0123456789abcdef',
          substr(md5(CAST(doc_id AS VARCHAR)), 4, 1)) - 1)
"""


def _q_weighted_sample(sf_dir: str):
    """Weighted sampling without replacement (Duffield et al. priority
    sampling): per language, the 10 documents with the largest
    ``priority = w / u`` where w = n_chars and u is a deterministic
    md5-derived uniform. Both engines compute priority with the SAME
    two IEEE double operations (exact multiply < 2^52, one correctly
    rounded divide), so the ORDERING — which selects rows, not just
    values — is bit-identical cross-engine; ties (equal (w, h4))
    break by doc_id. Distributed via ``stages/topk.topk_per_group``
    (no whole-group shuffle)."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from ..stages.topk import topk_per_group

    def prio(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        w = batch["n_chars"].to_numpy(zero_copy_only=False)
        h4 = np.fromiter(
            (
                int(hashlib.md5(str(int(i)).encode()).hexdigest()[:4], 16)
                for i in ids
            ),
            dtype=np.int64,
            count=len(ids),
        )
        priority = w.astype(np.float64) * 4294967296.0 / (h4 + 1)
        return pa.Table.from_pydict(
            {
                "lang": batch["lang"].combine_chunks(),
                "doc_id": batch["doc_id"].combine_chunks(),
                "priority": pa.array(priority, pa.float64()),
            }
        )

    ds = read_documents(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        prio, batch_format="pyarrow"
    )
    out = topk_per_group(
        ds, "lang", 10, [("priority", "descending"), ("doc_id", "ascending")]
    )
    return (
        out.to_pandas()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )


CORPUS_QUERIES["weighted_sample"] = _q_weighted_sample
CORPUS_ORACLE_SQL["weighted_sample"] = f"""
WITH prio AS (
    SELECT lang, doc_id,
           CAST(n_chars AS DOUBLE) * 4294967296
           / (({_H4_SQL}) + 1) AS priority
    FROM documents
)
SELECT lang, doc_id, priority
FROM (
    SELECT lang, doc_id, priority,
           row_number() OVER (PARTITION BY lang
                              ORDER BY priority DESC, doc_id) AS rn
    FROM prio
)
WHERE rn <= 10
ORDER BY lang, doc_id
"""


# -------------------------------------- per-domain language entropy

def _q_domain_lang_entropy(sf_dir: str):
    """Language-mix entropy per domain (a crawl spam/quality signal:
    single-language domains score 0, mixed-content farms score high).
    Counts run through ``stages/aggregate.py``; the exchange is over
    (domain, lang) pairs only; the entropy arithmetic runs on that
    small aggregate."""
    import numpy as np
    import pyarrow as pa

    from .queries_webtext import _url_domain_batch

    def pairs(batch: pa.Table) -> pa.Table:
        return (
            _url_domain_batch(batch)
            .select(["domain"])
            .append_column("lang", batch["lang"].combine_chunks())
        )

    counts = (
        aggregate(
            read_documents(sf_dir, ["doc_id", "lang", "n_chars"]),
            ["domain", "lang"],
            [("n", "count", None)],
            rows=pairs,
        )
        .to_pandas()
        .sort_values(["domain", "lang"])
    )
    rows = []
    for domain, grp in counts.groupby("domain"):
        n = grp["n"].to_numpy(dtype=np.float64)
        tot = n.sum()
        p = n / tot
        rows.append((domain, int(tot), float(-(p * np.log2(p)).sum())))
    import pandas as pd

    return pd.DataFrame(
        rows, columns=["domain", "n_docs", "entropy"]
    ).sort_values("domain").reset_index(drop=True)


CORPUS_QUERIES["domain_lang_entropy"] = _q_domain_lang_entropy
CORPUS_ORACLE_SQL["domain_lang_entropy"] = """
WITH d AS (
    SELECT 'site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || '.example.org' AS domain,
           lang
    FROM documents
), c AS (
    SELECT domain, lang, count(*) AS n FROM d GROUP BY 1, 2
), t AS (
    SELECT domain, sum(n) AS tot FROM c GROUP BY domain
)
SELECT c.domain,
       CAST(any_value(t.tot) AS BIGINT) AS n_docs,
       -sum((c.n / t.tot) * log2(c.n / t.tot)) AS entropy
FROM c JOIN t USING (domain)
GROUP BY c.domain
ORDER BY c.domain
"""


# ------------------------------------ ROWS-frame window (moving sum)

def _q_events_moving(sf_dir: str):
    """Trailing 4-row moving sum per user (ROWS BETWEEN 3 PRECEDING
    AND CURRENT ROW) — the row-frame window shape. Per-user groups
    order by (ts, event_id); the frame is a vectorized
    cumsum-minus-shifted-cumsum in exact integer cents (explicit
    half-away-from-zero, the repo-wide money convention), so the
    oracle match is integer-exact with no float tolerance."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    def frame(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        v = g["value"].to_numpy(zero_copy_only=False)[order]
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(cents)])
        n = len(cents)
        lo = np.maximum(np.arange(n) - 3, 0)
        w_sum = cum[np.arange(1, n + 1)] - cum[lo]
        w_n = np.arange(1, n + 1) - lo
        return pa.Table.from_pydict(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": g["user_id"].take(
                    pa.array(order, pa.int64())
                ).combine_chunks(),
                "w_sum_cents": pa.array(w_sum, pa.int64()),
                "w_n": pa.array(w_n, pa.int64()),
            }
        )

    out = (
        ev.groupby("user_id")
        .map_groups(frame, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("event_id").reset_index(drop=True)


def _q_events_centered_avg(sf_dir: str):
    """CENTERED row-frame window (ROWS BETWEEN 2 PRECEDING AND 2
    FOLLOWING): per-event moving average needing LOOKAHEAD, the
    forward twin of the trailing frames. Same vectorized
    cumsum-difference per sorted user group, shifted both ways; the
    average is emitted as exact integer (sum, count) plus one float
    division so the oracle match needs no tolerance."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    def frame(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        v = g["value"].to_numpy(zero_copy_only=False)[order]
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(cents)])
        n = len(cents)
        lo = np.maximum(np.arange(n) - 2, 0)
        hi = np.minimum(np.arange(n) + 3, n)
        w_sum = cum[hi] - cum[lo]
        w_n = hi - lo
        return pa.Table.from_pydict(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": g["user_id"].take(
                    pa.array(order, pa.int64())
                ).combine_chunks(),
                "w_sum_cents": pa.array(w_sum, pa.int64()),
                "w_n": pa.array(w_n, pa.int64()),
                "center_avg": pa.array(
                    w_sum.astype(np.float64) / w_n, pa.float64()
                ),
            }
        )

    out = (
        ev.groupby("user_id")
        .map_groups(frame, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("event_id").reset_index(drop=True)


def _q_events_pattern_triples(sf_dir: str):
    """Sequence-pattern matching (MATCH_RECOGNIZE-lite): find every
    STRICTLY CONSECUTIVE view -> click -> purchase run per user (no
    intervening events, unlike the funnel's within-24h semantics).
    One user-bucket exchange, then a single vectorized shifted-
    comparison pass per bucket — pattern matching over ordered runs
    never leaves numpy. The oracle is the classic double-LEAD."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ..stages.aggregate import exchange

    def triples_of_bucket(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        typ = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts, typ = uid[order], ts[order], typ[order]
        n = uid.size
        tt = pa.timestamp("us")
        if n < 3:
            return pa.Table.from_pydict(
                {
                    "user_id": pa.array([], pa.int64()),
                    "view_ts": pa.array([], tt),
                }
            )
        m = (
            (uid[:-2] == uid[1:-1])
            & (uid[1:-1] == uid[2:])
            & (typ[:-2] == "view")
            & (typ[1:-1] == "click")
            & (typ[2:] == "purchase")
        )
        idx = np.flatnonzero(m)
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[idx], pa.int64()),
                "view_ts": pa.array(ts[idx]).cast(tt),
            }
        )

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    out = exchange(ev, "user_id", triples_of_bucket).to_pandas()
    return out.sort_values(["user_id", "view_ts"]).reset_index(
        drop=True
    )


CORPUS_QUERIES["events_pattern_triples"] = _q_events_pattern_triples
CORPUS_ORACLE_SQL["events_pattern_triples"] = """
WITH s AS (
    SELECT user_id, ts, event_type,
           lead(event_type, 1) OVER w AS t1,
           lead(event_type, 2) OVER w AS t2
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id, ts AS view_ts
FROM s
WHERE event_type = 'view' AND t1 = 'click' AND t2 = 'purchase'
ORDER BY user_id, view_ts
"""


CORPUS_QUERIES["events_centered_avg"] = _q_events_centered_avg
CORPUS_ORACLE_SQL["events_centered_avg"] = """
WITH w AS (
    SELECT event_id, user_id,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING
           ) AS BIGINT) AS w_sum_cents,
           CAST(count(*) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING
           ) AS BIGINT) AS w_n
    FROM events
)
SELECT event_id, user_id, w_sum_cents, w_n,
       CAST(w_sum_cents AS DOUBLE) / w_n AS center_avg
FROM w ORDER BY event_id
"""


def _q_events_activity_islands(sf_dir: str):
    """Gaps-and-islands: maximal runs of CONSECUTIVE active days per
    user. Distinct (user, day) from batch partials, one user-bucket
    exchange, then the classic day-index-minus-rank island key
    entirely vectorized inside each bucket task (work scales with
    rows, never per-user dispatch). Output: one row per island
    (user, start, end, length)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ..stages.aggregate import exchange

    DAY_US = 86_400_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def day_partial(batch: pa.Table) -> pa.Table:
        us = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        day = us // DAY_US
        key = np.unique(uid * np.int64(1 << 20) + day)
        uid_u, day_u = key >> np.int64(20), key & np.int64((1 << 20) - 1)
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid_u, pa.int64()),
                "day": pa.array(day_u, pa.int64()),
                "one": pa.array(np.ones(key.size, np.int64)),
            }
        )

    def islands_of_bucket(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        day = group["day"].to_numpy(zero_copy_only=False)
        # dedup (user, day) across batches, then sort
        key = np.unique(uid * np.int64(1 << 20) + day)
        uid, day = key >> np.int64(20), key & np.int64((1 << 20) - 1)
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        new_island = new_user | np.concatenate(
            [[True], np.diff(day) != 1]
        )
        starts = np.flatnonzero(new_island)
        ends = np.append(starts[1:], uid.size) - 1
        tt = pa.timestamp("us")
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "start_day": pa.array(day[starts] * DAY_US).cast(tt),
                "end_day": pa.array(day[ends] * DAY_US).cast(tt),
                "n_days": pa.array(
                    ends - starts + 1, pa.int64()
                ),
            }
        )

    out = exchange(
        ev, "user_id", islands_of_bucket, rows=day_partial
    ).to_pandas()
    return out.sort_values(["user_id", "start_day"]).reset_index(
        drop=True
    )


CORPUS_QUERIES["events_activity_islands"] = _q_events_activity_islands
CORPUS_ORACLE_SQL["events_activity_islands"] = """
WITH d AS (
    SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
), i AS (
    SELECT user_id, day,
           CAST(epoch(day) / 86400 AS BIGINT)
               - row_number() OVER (PARTITION BY user_id
                                    ORDER BY day) AS isl
    FROM d
)
SELECT user_id, min(day) AS start_day, max(day) AS end_day,
       CAST(count(*) AS BIGINT) AS n_days
FROM i GROUP BY user_id, isl
ORDER BY user_id, start_day
"""


def _q_part_pareto(sf_dir: str):
    """2-D Pareto front (dominance / skyline operator): parts not
    dominated on (price ASC, size DESC) — no other part is
    cheaper-or-equal AND bigger-or-equal with one strict. Classic
    distributed skyline: each batch computes its LOCAL front (the
    global front is always a subset of the union of local fronts),
    the driver runs the identical vectorized dominance pass over the
    small candidate union. Ties/duplicate (price, size) points all
    survive, matching the NOT EXISTS oracle."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    def front_mask(price: "np.ndarray", size: "np.ndarray"):
        order = np.lexsort((-size, price))
        p_s, s_s = price[order], size[order]
        new_p = np.concatenate([[True], p_s[1:] != p_s[:-1]])
        runmax = np.maximum.accumulate(s_s)
        grp_id = np.cumsum(new_p) - 1
        grp_last = np.flatnonzero(np.concatenate([new_p[1:], [True]]))
        grp_max_prefix = runmax[grp_last]
        maxsize_lt = np.where(
            grp_id > 0,
            grp_max_prefix[np.maximum(grp_id - 1, 0)],
            np.iinfo(np.int64).min,
        )
        maxsize_le = grp_max_prefix[grp_id]
        dominated = (maxsize_lt >= s_s) | (maxsize_le > s_s)
        mask = np.empty(price.size, bool)
        mask[order] = ~dominated
        return mask

    def local_front(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["p_retailprice"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        size = (
            batch["p_size"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        keys = batch["p_partkey"].to_numpy(zero_copy_only=False)
        m = front_mask(cents, size)
        return pa.Table.from_pydict(
            {
                "p_partkey": pa.array(keys[m], pa.int64()),
                "p_size": pa.array(size[m], pa.int64()),
                "price_cents": pa.array(cents[m], pa.int64()),
            }
        )

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_size", "p_retailprice"],
    )
    cand = parts.map_batches(
        local_front, batch_format="pyarrow"
    ).to_pandas()
    m = front_mask(
        cand["price_cents"].to_numpy(), cand["p_size"].to_numpy()
    )
    out = cand[m]
    return out.sort_values("p_partkey").reset_index(drop=True)


CORPUS_QUERIES["part_pareto"] = _q_part_pareto
CORPUS_ORACLE_SQL["part_pareto"] = """
WITH p AS (
    SELECT p_partkey, CAST(p_size AS BIGINT) AS p_size,
           CAST(round(p_retailprice * 100) AS BIGINT) AS price_cents
    FROM part
)
SELECT p_partkey, p_size, price_cents
FROM p a
WHERE NOT EXISTS (
    SELECT 1 FROM p b
    WHERE b.price_cents <= a.price_cents AND b.p_size >= a.p_size
      AND (b.price_cents < a.price_cents OR b.p_size > a.p_size)
)
ORDER BY p_partkey
"""


def _q_nation_revenue_share(sf_dir: str):
    """RATIO_TO_REPORT: each nation's share of total order revenue.
    Orders aggregate to per-customer cents (``stages/aggregate.py``),
    one bucketed join attaches nationkey, a tiny groupby + global scalar
    produce the shares — the group-sum / global-sum composition with
    every exchange on an aggregated grain. Share is one float
    division of exact ints."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import partitioned_hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def o_rows(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["o_totalprice"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [batch["o_custkey"], cents], names=["c_custkey", "cents"]
        )

    per_cust = aggregate(
        orders, "c_custkey", [("cents", "sum", "cents")], rows=o_rows
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "c_custkey": b["c_custkey"].combine_chunks(),
                "c_nationkey": pc.cast(
                    b["c_nationkey"].combine_chunks(), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = partitioned_hash_join(
        per_cust, cust, "c_custkey"
    )
    out = aggregate(
        joined, "c_nationkey", [("revenue_cents", "sum", "cents")]
    ).to_pandas()
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    total = int(out["revenue_cents"].sum())
    out["share"] = out["revenue_cents"].astype("float64") / float(total)
    return out.sort_values("c_nationkey").reset_index(drop=True)


CORPUS_QUERIES["nation_revenue_share"] = _q_nation_revenue_share
CORPUS_ORACLE_SQL["nation_revenue_share"] = """
WITH r AS (
    SELECT CAST(c.c_nationkey AS BIGINT) AS c_nationkey,
           CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT))
                AS BIGINT) AS revenue_cents
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    GROUP BY 1
)
SELECT c_nationkey, revenue_cents,
       CAST(revenue_cents AS DOUBLE)
           / (SELECT CAST(sum(revenue_cents) AS DOUBLE) FROM r)
           AS share
FROM r ORDER BY c_nationkey
"""


CORPUS_QUERIES["events_moving"] = _q_events_moving
CORPUS_ORACLE_SQL["events_moving"] = """
SELECT event_id, user_id,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS w_sum_cents,
       CAST(count(*) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS w_n
FROM events
ORDER BY event_id
"""


def _q_events_trailing_15min(sf_dir: str):
    """Time-based RANGE-frame window (the ROWS-frame twin above
    counts rows; this one bounds the frame by TIME): per user the
    trailing 15-minute sum/count of integer cents over ts order. Same
    one-exchange plan — per-user sorted arrays, frame ends via two
    vectorized searchsorteds (cutoff = ts - 15 min inclusive, peers
    at the current ts included, exactly SQL RANGE semantics) over a
    prefix-sum. Exact integer cents, no float tolerance."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )
    window_us = 15 * 60 * 1_000_000

    def frame(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        ts = ts[order]
        v = g["value"].to_numpy(zero_copy_only=False)[order]
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(cents)])
        lo = np.searchsorted(ts, ts - window_us, side="left")
        hi = np.searchsorted(ts, ts, side="right")  # peers included
        return pa.Table.from_pydict(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": g["user_id"].take(
                    pa.array(order, pa.int64())
                ).combine_chunks(),
                "w15_sum_cents": pa.array(cum[hi] - cum[lo], pa.int64()),
                "w15_n": pa.array(hi - lo, pa.int64()),
            }
        )

    out = (
        ev.groupby("user_id")
        .map_groups(frame, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("event_id").reset_index(drop=True)


CORPUS_QUERIES["events_trailing_15min"] = _q_events_trailing_15min
CORPUS_ORACLE_SQL["events_trailing_15min"] = """
SELECT event_id, user_id,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts
           RANGE BETWEEN INTERVAL 15 MINUTES PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS w15_sum_cents,
       CAST(count(*) OVER (
           PARTITION BY user_id ORDER BY ts
           RANGE BETWEEN INTERVAL 15 MINUTES PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS w15_n
FROM events
ORDER BY event_id
"""


def _q_events_rolling_wau(sf_dir: str):
    """Rolling DISTINCT count — trailing-7-day active users per event
    day (the WAU curve). Exact distinct over a sliding window can't
    use prefix sums; the scalable spelling is
    replicate-to-window -> distinct -> count: each (user, day)
    activity row fans out to the <=7 window-end days it supports
    (vectorized), one (window, user) distinct exchange, then a tiny
    per-window count. Window-end days with no events of their own are
    dropped via a broadcast of the (bounded, ~days-of-data) active
    day set. Days travel as 'YYYY-MM-DD' strings so both engines hash
    identically."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def user_days(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = (
            pc.cast(batch["ts"].combine_chunks(), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        day = us // 86_400_000_000
        t = pa.Table.from_pydict(
            {
                "user_id": batch["user_id"].combine_chunks(),
                "day": pa.array(day, pa.int64()),
            }
        )
        return t.group_by(["user_id", "day"]).aggregate([])

    ud = ev.map_batches(user_days, batch_format="pyarrow")

    # bounded driver state: the set of distinct event days (~one int
    # per day of data), used to drop windows without own-day events
    days = set()
    for b in ud.iter_batches(batch_format="pyarrow"):
        days.update(np.unique(b["day"].to_numpy(zero_copy_only=False)))
    import ray

    days_ref = ray.put(np.array(sorted(days), dtype=np.int64))

    def fan_out(batch: pa.Table) -> pa.Table:
        active = ray.get(days_ref)
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        d = batch["day"].to_numpy(zero_copy_only=False)
        us, ws = [], []
        for off in range(7):
            w = d + off
            keep = np.isin(w, active)
            us.append(u[keep])
            ws.append(w[keep])
        return pa.Table.from_pydict(
            {
                "w": pa.array(np.concatenate(ws), pa.int64()),
                "user_id": pa.array(np.concatenate(us), pa.int64()),
            }
        )

    distinct = aggregate(ud, ["w", "user_id"], [], rows=fan_out)
    wau = aggregate(distinct, "w", [("wau", "count", None)]).to_pandas()
    day_str = (
        np.array(wau["w"], dtype="datetime64[D]").astype(str)
    )
    out = wau.assign(day=day_str)[["day", "wau"]]
    out["wau"] = out["wau"].astype("int64")
    return out.sort_values("day").reset_index(drop=True)


CORPUS_QUERIES["events_rolling_wau"] = _q_events_rolling_wau
CORPUS_ORACLE_SQL["events_rolling_wau"] = """
WITH ud AS (
    SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS DATE) AS day
    FROM events
), days AS (
    SELECT DISTINCT day FROM ud
)
SELECT strftime(d.day, '%Y-%m-%d') AS day,
       CAST(count(DISTINCT u.user_id) AS BIGINT) AS wau
FROM days d JOIN ud u ON u.day BETWEEN d.day - 6 AND d.day
GROUP BY d.day ORDER BY 1
"""


# ----------------------------------------- global ranking (window #2)

def _q_doc_rank(sf_dir: str):
    """Exact global row_number by document length (desc, doc_id ties)
    — the ranking window primitive, computed via distinct-value
    histogram range partitioning, never a global sort."""
    from ..stages.window import global_row_number

    docs = read_documents(sf_dir, ["doc_id", "n_chars"])
    out = global_row_number(docs, "doc_id", "n_chars").to_pandas()
    out = out.rename(columns={"id": "doc_id", "key": "n_chars"})
    return out.sort_values("doc_id").reset_index(drop=True)


CORPUS_QUERIES["doc_rank"] = _q_doc_rank
CORPUS_ORACLE_SQL["doc_rank"] = """
SELECT doc_id, n_chars,
       row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rnk
FROM documents
ORDER BY doc_id
"""


def _q_lang_ntile(sf_dir: str):
    """Per-language length quartiles — NTILE(4) OVER (PARTITION BY
    lang ORDER BY n_chars, doc_id) via the grouped ranking primitive
    plus the exact SQL ntile arithmetic on broadcast group sizes."""
    import numpy as np
    import pyarrow as pa

    from ..stages.window import grouped_row_number, ntile_of_rank

    docs = read_documents(sf_dir, ["doc_id", "lang", "n_chars"])
    # group sizes come from the ranking plan's own histogram — no
    # second corpus scan
    ranked, hist = grouped_row_number(
        docs, "lang", "doc_id", "n_chars", with_hist=True
    )
    sizes = hist.groupby("lang")["n"].sum().astype(int).to_dict()

    def tile(batch: pa.Table) -> pa.Table:
        parts = np.asarray(batch["part"].to_pylist())
        rnk = batch["rnk"].to_numpy(zero_copy_only=False)
        t = np.zeros(len(parts), dtype=np.int64)
        for lang, n in sizes.items():  # vectorized per lang
            m = parts == lang
            if m.any():
                t[m] = ntile_of_rank(rnk[m], int(n), 4)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["id"].combine_chunks(),
                "lang": batch["part"].combine_chunks(),
                "n_chars": batch["key"].combine_chunks(),
                "tile": pa.array(t, pa.int64()),
            }
        )

    out = ranked.map_batches(tile, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


CORPUS_QUERIES["lang_ntile"] = _q_lang_ntile
CORPUS_ORACLE_SQL["lang_ntile"] = """
SELECT doc_id, lang, n_chars,
       CAST(ntile(4) OVER (PARTITION BY lang
                           ORDER BY n_chars, doc_id) AS BIGINT) AS tile
FROM documents
ORDER BY doc_id
"""


# --------------------------------------------- DSIR importance scores

def _q_dsir_select(sf_dir: str):
    """DSIR hashed-unigram importance scores against the benchmark
    slice (doc_id % 101 == 0) as the target distribution."""
    from ..stages.mixing import dsir_score

    docs = read_documents(sf_dir, ["doc_id", "text"])
    return dsir_score(docs, target_mod=101, n_buckets=256)


CORPUS_QUERIES["dsir_select"] = _q_dsir_select
CORPUS_ORACLE_SQL["dsir_select"] = """
WITH toks AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS t
    FROM documents
), exploded AS (
    SELECT doc_id, unnest(t) AS w FROM toks
), bucketed AS (
    SELECT doc_id,
           (strpos('0123456789abcdef', substr(md5(w), 1, 1)) * 16
            + strpos('0123456789abcdef', substr(md5(w), 2, 1))
            - 17) AS b
    FROM exploded
), cnt AS (
    SELECT b,
           count(*) AS c_all,
           count(*) FILTER (WHERE doc_id % 101 = 0) AS c_tgt
    FROM bucketed GROUP BY b
), tot AS (
    SELECT sum(c_all) AS t_all, sum(c_tgt) AS t_tgt FROM cnt
), lr AS (
    SELECT b,
           log2((c_tgt + 1) / (t_tgt + 256))
           - log2((c_all + 1) / (t_all + 256)) AS lr
    FROM cnt CROSS JOIN tot
)
SELECT x.doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens,
       sum(lr.lr) / count(*) AS score
FROM bucketed x JOIN lr USING (b)
GROUP BY x.doc_id
ORDER BY x.doc_id
"""


# ------------------------------- full-outer reconciliation (churn)

def _q_events_churn(sf_dir: str):
    """Day-over-day per-user activity reconciliation — the FULL OUTER
    join witness. The per-(user, day) spend aggregate is full-outer
    self-joined against its one-day-shifted copy, classifying every
    active-day edge as ``started`` (no activity yesterday),
    ``stopped`` (active yesterday, silent today) or ``active``.

    Scale shape: the corpus-sized event stream collapses to the tiny
    (user, day) grain with a per-batch Arrow combine BEFORE the one
    groupby exchange; the full-outer join itself runs through the
    bucketed Acero exchange (``partitioned_hash_join``), so neither
    side is ever broadcast or pulled to the driver. Money follows the
    repo convention: exact integer cents, half-away-from-zero.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import partitioned_hash_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    _US_PER_DAY = 86_400_000_000

    def rows(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(batch["value"], 100.0), 0.5)),
            pa.int64(),
        )
        day = pc.divide(
            pc.cast(batch["ts"], pa.int64()), _US_PER_DAY
        )
        return pa.Table.from_arrays(
            [batch["user_id"], day, cents],
            names=["user_id", "epoch_day", "c"],
        )

    daily = (
        aggregate(
            ev, ["user_id", "epoch_day"], [("c", "sum", "c")], rows=rows
        )
        # both join branches consume this: materialize the SMALL
        # post-aggregate grain once instead of re-executing the
        # corpus scan + exchange per branch (the corpus itself
        # still streams exactly once)
        .materialize()
    )

    def as_today(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                b["user_id"].combine_chunks(),
                b["epoch_day"].combine_chunks(),
                b["c"].combine_chunks(),
            ],
            names=["user_id", "epoch_day", "cents"],
        )

    def as_yesterday(b: pa.Table) -> pa.Table:
        # key shifted forward: this row matches "tomorrow"'s edge
        return pa.Table.from_arrays(
            [
                b["user_id"].combine_chunks(),
                pc.add(b["epoch_day"].combine_chunks(), 1),
                b["c"].combine_chunks(),
            ],
            names=["user_id", "epoch_day", "prev_cents"],
        )

    joined = partitioned_hash_join(
        daily.map_batches(as_today, batch_format="pyarrow"),
        daily.map_batches(as_yesterday, batch_format="pyarrow"),
        ["user_id", "epoch_day"],
        how="outer",
    )

    def classify(b: pa.Table) -> pa.Table:
        status = pc.if_else(
            pc.is_null(b["prev_cents"]),
            pa.scalar("started"),
            pc.if_else(
                pc.is_null(b["cents"]),
                pa.scalar("stopped"),
                pa.scalar("active"),
            ),
        )
        return b.append_column("status", status)

    out = joined.map_batches(classify, batch_format="pyarrow").to_pandas()
    return out.sort_values(["user_id", "epoch_day"]).reset_index(drop=True)


CORPUS_QUERIES["events_churn"] = _q_events_churn
CORPUS_ORACLE_SQL["events_churn"] = """
WITH daily AS (
    SELECT user_id,
           epoch_us(ts) // 86400000000 AS epoch_day,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS c
    FROM events GROUP BY 1, 2
)
SELECT COALESCE(a.user_id, b.user_id) AS user_id,
       COALESCE(a.epoch_day, b.epoch_day + 1) AS epoch_day,
       a.c AS cents,
       b.c AS prev_cents,
       CASE WHEN b.c IS NULL THEN 'started'
            WHEN a.c IS NULL THEN 'stopped'
            ELSE 'active' END AS status
FROM daily a FULL OUTER JOIN daily b
  ON a.user_id = b.user_id AND a.epoch_day = b.epoch_day + 1
ORDER BY 1, 2
"""


# -------------------------------------------- link-graph PageRank

def _q_pagerank(sf_dir: str):
    """Weighted PageRank (damping 0.85, dangling-mass redistribution,
    3 power-iteration rounds) over the domain -> target link graph
    parsed from the RAW page payloads. The oracle replays the exact
    float recurrence as three unrolled SQL iterations over the
    synthesizer's reconstructed link structure — operation order is
    mirrored so both engines compute the same IEEE doubles."""
    import pyarrow as pa
    import ray.data

    from ..sources.pages import read_pages
    from ..stages.links import extract_links_batch
    from ..stages.pagerank import pagerank

    def as_edges(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                b["src_domain"].combine_chunks(),
                b["target"].combine_chunks(),
                pa.array([1] * b.num_rows, pa.int64()),
            ],
            names=["src", "dst", "w"],
        )

    edges = read_pages(sf_dir).map_batches(
        extract_links_batch, batch_format="pyarrow"
    ).map_batches(as_edges, batch_format="pyarrow")
    out = pagerank(edges, n_iter=3, damping=0.85).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


CORPUS_QUERIES["pagerank"] = _q_pagerank
CORPUS_ORACLE_SQL["pagerank"] = (
    _LINKS_CTE
    + """
, edges AS (
    SELECT 'site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
           || '.example.org' AS src,
           target AS dst,
           CAST(sum(m) AS BIGINT) AS w
    FROM links GROUP BY 1, 2
), outw AS (
    SELECT src, sum(w) AS outw FROM edges GROUP BY src
), en AS (
    SELECT e.src, e.dst, CAST(e.w AS DOUBLE) / CAST(o.outw AS DOUBLE) AS p
    FROM edges e JOIN outw o USING (src)
), nodes AS (
    SELECT node, min(f) AS dang FROM (
        SELECT src AS node, 0 AS f FROM edges
        UNION ALL
        SELECT dst AS node, 1 AS f FROM edges
    ) GROUP BY node
), nn AS (SELECT count(*) AS n FROM nodes),
r0 AS (
    SELECT node, dang, CAST(1.0 AS DOUBLE) / nn.n AS r FROM nodes, nn
),
d0 AS (SELECT COALESCE(sum(r), 0) AS dm FROM r0 WHERE dang = 1),
i0 AS (SELECT en.dst AS node, sum(r0.r * en.p) AS infl
       FROM r0 JOIN en ON r0.node = en.src GROUP BY 1),
r1 AS (
    SELECT nodes.node, nodes.dang,
           CAST(0.85 AS DOUBLE) * COALESCE(i0.infl, 0)
           + ((CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / nn.n
              + CAST(0.85 AS DOUBLE) * (d0.dm / nn.n)) AS r
    FROM nodes LEFT JOIN i0 USING (node) CROSS JOIN d0 CROSS JOIN nn
),
d1 AS (SELECT COALESCE(sum(r), 0) AS dm FROM r1 WHERE dang = 1),
i1 AS (SELECT en.dst AS node, sum(r1.r * en.p) AS infl
       FROM r1 JOIN en ON r1.node = en.src GROUP BY 1),
r2 AS (
    SELECT nodes.node, nodes.dang,
           CAST(0.85 AS DOUBLE) * COALESCE(i1.infl, 0)
           + ((CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / nn.n
              + CAST(0.85 AS DOUBLE) * (d1.dm / nn.n)) AS r
    FROM nodes LEFT JOIN i1 USING (node) CROSS JOIN d1 CROSS JOIN nn
),
d2 AS (SELECT COALESCE(sum(r), 0) AS dm FROM r2 WHERE dang = 1),
i2 AS (SELECT en.dst AS node, sum(r2.r * en.p) AS infl
       FROM r2 JOIN en ON r2.node = en.src GROUP BY 1),
r3 AS (
    SELECT nodes.node, nodes.dang,
           CAST(0.85 AS DOUBLE) * COALESCE(i2.infl, 0)
           + ((CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / nn.n
              + CAST(0.85 AS DOUBLE) * (d2.dm / nn.n)) AS r
    FROM nodes LEFT JOIN i2 USING (node) CROSS JOIN d2 CROSS JOIN nn
)
SELECT node, r AS pr FROM r3 ORDER BY node
"""
)


def _q_supplier_triangles(sf_dir: str):
    """Exact triangle count + global clustering coefficient of the
    supplier co-supply graph (orders with key % 10 == 0; edge =
    supplier pair sharing >= 2 of them — dense at sf0.01, sparse at
    sf0.1, nontrivial at both) via the degree-ordered wedge-closure
    plan (``stages.graph.triangle_stats``): orientation bounds every
    out-degree at O(sqrt(m)), wedges are numpy pair generation per
    source group, closure is ONE bucketed semi-join of wedges against
    the oriented edge set. All statistics are exact integers; the
    clustering coefficient is one float expression of them, so the
    3-way-join SQL oracle matches bit-for-bit."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ..stages.graph import cooccurrence_edges, triangle_stats

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 10 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    return triangle_stats(edges, assume_canonical=True)


def _q_supplier_local_clustering(sf_dir: str):
    """Per-node triangle counts + LOCAL clustering coefficient over
    the same co-supply graph — the per-node sibling of
    ``supplier_triangles`` (``stages.graph.local_clustering``): each
    closed wedge is attributed to its three corners (inside the wedge
    UDF on the broadcast plan; via a fan-out-to-(node,1) aggregate
    after the closure join on the partitioned plan, both pinned
    equal). c(v) = 2.0 * tri(v) / (d(v)*(d(v)-1)) is one float
    expression of exact ints — bit-equal to the 3-way-join oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ..stages.graph import cooccurrence_edges, local_clustering

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 10 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    out = local_clustering(edges, assume_canonical=True).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


CORPUS_QUERIES["supplier_local_clustering"] = _q_supplier_local_clustering
CORPUS_ORACLE_SQL["supplier_local_clustering"] = """
WITH li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 10 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e AS (
    SELECT u, v FROM co WHERE n >= 2
), deg AS (
    SELECT node, count(*) AS d
    FROM (SELECT u AS node FROM e UNION ALL SELECT v AS node FROM e)
    GROUP BY node
), tri AS (
    SELECT e1.u AS a, e1.v AS b, e2.v AS c
    FROM e e1
    JOIN e e2 ON e1.u = e2.u AND e1.v < e2.v
    JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
), tcnt AS (
    SELECT node, count(*) AS t
    FROM (SELECT a AS node FROM tri UNION ALL
          SELECT b AS node FROM tri UNION ALL
          SELECT c AS node FROM tri)
    GROUP BY node
)
SELECT deg.node,
       CAST(deg.d AS BIGINT) AS degree,
       CAST(COALESCE(tcnt.t, 0) AS BIGINT) AS n_triangles,
       CASE WHEN deg.d >= 2
            THEN 2.0 * COALESCE(tcnt.t, 0) / (deg.d * (deg.d - 1))
            ELSE 0.0 END AS local_clustering
FROM deg LEFT JOIN tcnt USING (node)
ORDER BY deg.node
"""


def _q_supplier_bfs(sf_dir: str):
    """Multi-source BFS hop counts over the supplier co-supply graph
    (``stages.graph.bfs_hops``): seeds = suppliers with key % 97 == 1,
    levels truncated at 3. Each level of the scale plan is one
    ``iterate.supersteps`` round: the frontier messages its
    neighbours, O(1) driver state per level. The hop
    truncation is what makes a recursive-CTE oracle finite on a
    cyclic graph; min(hop) == first-visit level."""
    import pyarrow as pa
    import ray.data

    from ..stages.graph import bfs_hops, cooccurrence_edges

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 10 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    def seed_filter(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch["s_suppkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 97 == 1)).rename_columns(
            ["node"]
        )

    seeds = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey"]
    ).map_batches(seed_filter, batch_format="pyarrow")
    out = bfs_hops(
        edges, seeds, max_hops=3, assume_canonical=True
    ).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


CORPUS_QUERIES["supplier_bfs"] = _q_supplier_bfs
CORPUS_ORACLE_SQL["supplier_bfs"] = """
WITH RECURSIVE li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 10 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e AS (
    SELECT u, v FROM co WHERE n >= 2
), bi AS (
    SELECT u AS src, v AS dst FROM e UNION ALL SELECT v, u FROM e
), seeds AS (
    SELECT s_suppkey AS node FROM supplier WHERE s_suppkey % 97 = 1
), walk(node, hop) AS (
    SELECT node, 0 FROM seeds
    UNION
    SELECT bi.dst, walk.hop + 1
    FROM walk JOIN bi ON bi.src = walk.node
    WHERE walk.hop < 3
)
SELECT node, CAST(min(hop) AS BIGINT) AS hops
FROM walk GROUP BY node ORDER BY node
"""


CORPUS_QUERIES["supplier_triangles"] = _q_supplier_triangles
CORPUS_ORACLE_SQL["supplier_triangles"] = """
WITH li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 10 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e AS (
    SELECT u, v FROM co WHERE n >= 2
), deg AS (
    SELECT node, count(*) AS d
    FROM (SELECT u AS node FROM e UNION ALL SELECT v AS node FROM e)
    GROUP BY node
), tri AS (
    SELECT count(*) AS t FROM e e1
    JOIN e e2 ON e1.u = e2.u AND e1.v < e2.v
    JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
), wg AS (
    SELECT CAST(sum(d * (d - 1) // 2) AS BIGINT) AS w FROM deg
)
SELECT CAST((SELECT count(*) FROM deg) AS BIGINT) AS n_nodes,
       CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       wg.w AS n_wedges,
       CAST(tri.t AS BIGINT) AS n_triangles,
       CASE WHEN wg.w > 0 THEN 3.0 * tri.t / wg.w
            ELSE 0.0 END AS global_clustering
FROM wg, tri
"""


# ------------------------------------------------ funnel analysis

def _q_events_funnel(sf_dir: str):
    """Strict-order conversion funnel per user: first ``view``, first
    ``click`` within 24h AFTER it, first ``purchase`` within 24h after
    that; ``stage`` is how deep the user got (0-3).

    Scale shape: the scan projects three columns and filters to the
    three funnel types BEFORE the one groupby-user exchange; the
    per-user group task is a vectorized numpy pass over a group whose
    size is bounded by one user's activity (same contract as
    sessionization — user_id cardinality is high, so no group
    concentrates the corpus). A fully exchange-minimal alternative
    (three chained min-if aggregate + join rounds) costs more plan
    round-trips than it saves at any realistic per-user volume.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    def only_funnel_types(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.is_in(
                b["event_type"],
                value_set=pa.array(["view", "click", "purchase"]),
            )
        )

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    ).map_batches(only_funnel_types, batch_format="pyarrow")

    def funnel(g: pa.Table) -> pa.Table:
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        typ = g["event_type"].to_numpy(zero_copy_only=False)
        uid = g["user_id"][0].as_py()

        gap = 24 * 3600 * 1_000_000  # 24h conversion window, in us

        def first_after(kind, t_min):
            m = typ == kind
            if t_min is not None:
                m = m & (ts > t_min) & (ts - t_min <= gap)
            return int(ts[m].min()) if m.any() else None

        t1 = first_after("view", None)
        t2 = first_after("click", t1) if t1 is not None else None
        t3 = first_after("purchase", t2) if t2 is not None else None
        stage = 3 if t3 is not None else 2 if t2 is not None else (
            1 if t1 is not None else 0
        )
        tt = pa.timestamp("us")
        return pa.Table.from_arrays(
            [
                pa.array([uid], pa.int64()),
                pa.array([stage], pa.int64()),
                pa.array([t1], tt),
                pa.array([t2], tt),
                pa.array([t3], tt),
            ],
            names=["user_id", "stage", "view_ts", "click_ts", "purchase_ts"],
        )

    out = (
        ev.groupby("user_id")
        .map_groups(funnel, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("user_id").reset_index(drop=True)


def _q_events_first_last(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE per user — each user's earliest and
    latest event (type + integer cents), ordered by (ts, event_id)
    so ties are deterministic. Plan: per-batch candidate reduction
    first (one lexsort per batch, keep only each user's boundary
    rows — <= 2 rows per user per batch ever reach the exchange),
    then ONE hash exchange on a user-id BUCKET with a vectorized
    per-bucket final pass (the sessionize shape: work scales with
    rows, never a per-user dispatch)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.aggregate import exchange

    def candidates(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        typ = batch["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s = uid[order]
        nb = np.concatenate([[True], uid_s[1:] != uid_s[:-1]])
        starts = np.flatnonzero(nb)
        ends = np.append(starts[1:], uid_s.size) - 1
        keep = order[np.unique(np.concatenate([starts, ends]))]
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[keep], pa.int64()),
                "ts": pa.array(ts[keep], pa.int64()),
                "event_id": pa.array(eid[keep], pa.int64()),
                "event_type": pa.array(typ[keep], pa.string()),
                "cents": pa.array(cents[keep], pa.int64()),
            }
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        typ = group["event_type"].to_numpy(zero_copy_only=False)
        cents = group["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s = uid[order]
        nb = np.concatenate([[True], uid_s[1:] != uid_s[:-1]])
        starts = np.flatnonzero(nb)
        ends = np.append(starts[1:], uid_s.size) - 1
        fi, la = order[starts], order[ends]
        tt = pa.timestamp("us")
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[fi], pa.int64()),
                "first_ts": pa.array(ts[fi]).cast(tt),
                "first_type": pa.array(typ[fi], pa.string()),
                "first_cents": pa.array(cents[fi], pa.int64()),
                "last_ts": pa.array(ts[la]).cast(tt),
                "last_type": pa.array(typ[la], pa.string()),
                "last_cents": pa.array(cents[la], pa.int64()),
            }
        )

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    out = exchange(ev, "user_id", per_bucket, rows=candidates).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


CORPUS_QUERIES["events_first_last"] = _q_events_first_last
CORPUS_ORACLE_SQL["events_first_last"] = """
WITH w AS (
    SELECT user_id, ts, event_type,
           CAST(round(value * 100) AS BIGINT) AS cents,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn,
           count(*) OVER (PARTITION BY user_id) AS n
    FROM events
)
SELECT a.user_id,
       a.ts AS first_ts, a.event_type AS first_type,
       a.cents AS first_cents,
       b.ts AS last_ts, b.event_type AS last_type,
       b.cents AS last_cents
FROM w a JOIN w b ON a.user_id = b.user_id AND b.rn = b.n
WHERE a.rn = 1
ORDER BY a.user_id
"""


CORPUS_QUERIES["events_funnel"] = _q_events_funnel
CORPUS_ORACLE_SQL["events_funnel"] = """
WITH funnel_users AS (
    SELECT DISTINCT user_id FROM events
    WHERE event_type IN ('view', 'click', 'purchase')
), v AS (
    SELECT user_id, min(ts) AS t1 FROM events
    WHERE event_type = 'view' GROUP BY user_id
), c AS (
    SELECT e.user_id, min(e.ts) AS t2
    FROM events e JOIN v ON v.user_id = e.user_id
    WHERE e.event_type = 'click' AND e.ts > v.t1
      AND epoch_us(e.ts) - epoch_us(v.t1) <= 86400000000
    GROUP BY e.user_id
), p AS (
    SELECT e.user_id, min(e.ts) AS t3
    FROM events e JOIN c ON c.user_id = e.user_id
    WHERE e.event_type = 'purchase' AND e.ts > c.t2
      AND epoch_us(e.ts) - epoch_us(c.t2) <= 86400000000
    GROUP BY e.user_id
)
SELECT u.user_id,
       CASE WHEN p.t3 IS NOT NULL THEN 3
            WHEN c.t2 IS NOT NULL THEN 2
            WHEN v.t1 IS NOT NULL THEN 1
            ELSE 0 END AS stage,
       v.t1 AS view_ts, c.t2 AS click_ts, p.t3 AS purchase_ts
FROM funnel_users u
LEFT JOIN v USING (user_id)
LEFT JOIN c USING (user_id)
LEFT JOIN p USING (user_id)
ORDER BY u.user_id
"""


# --------------------------------------- JSON property extraction

def _q_events_props_stats(sf_dir: str):
    """Semi-structured payload parsing: extract the integer ``k``
    property from the JSON ``props`` column (vectorized Arrow
    ``extract_regex`` on the narrow projected column — a web-scale
    pipeline parses JSON sidecar metadata exactly like this, without
    a Python loop) and aggregate per event type with a per-batch
    combine before the tiny groupby exchange. Rows whose props lack
    ``k`` parse to NULL and drop out of the sum (same as SQL)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def rows(batch: pa.Table) -> pa.Table:
        k = pc.cast(
            pc.struct_field(
                pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)'),
                "k",
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [batch["event_type"], k], names=["event_type", "k"]
        )

    out = aggregate(
        ev,
        "event_type",
        [("sum_k", "sum", "k"), ("n_with_k", "count", "k")],
        rows=rows,
    ).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


CORPUS_QUERIES["events_props_stats"] = _q_events_props_stats
CORPUS_ORACLE_SQL["events_props_stats"] = """
SELECT event_type,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT))
            AS BIGINT) AS sum_k,
       CAST(count(json_extract_string(props, '$.k')) AS BIGINT)
           AS n_with_k
FROM events
GROUP BY event_type
ORDER BY event_type
"""


# ------------------------------------------------- BM25 retrieval

def _q_bm25_search(sf_dir: str):
    """BM25 top-20 for the fixed query {hash, join, merge} over the
    document corpus (k1=1.2, b=0.75, Robertson idf
    ln(1 + (N-df+0.5)/(df+0.5))).

    Two streaming passes: (1) a tiny stats aggregate — corpus size,
    total token length, per-query-term document frequency — combined
    per batch to ONE partial row, so the exchange is O(batches);
    (2) vectorized scoring with the idf/avgdl constants closed over
    (driver state is 5 scalars), then ``stages/topk.topk`` (a
    per-batch local top-k before the bounded driver merge). The
    oracle replays the identical float expression tree, operation
    order mirrored, so scores match bit-for-bit."""
    import math
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    from ..stages.topk import topk

    TERMS = ("hash", "join", "merge")
    K1, B, TOPK = 1.2, 0.75, 20

    docs = read_documents(sf_dir, ["doc_id", "text"])

    def tf_len(batch: pa.Table):
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        tfs = np.zeros((len(ids), len(TERMS)), dtype=np.int64)
        lens = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            c = Counter(t.split())
            lens[i] = sum(c.values())
            for j, term in enumerate(TERMS):
                tfs[i, j] = c.get(term, 0)
        return ids, tfs, lens

    def stats_rows(batch: pa.Table) -> pa.Table:
        _ids, tfs, lens = tf_len(batch)
        cols = {"len": pa.array(lens, pa.int64())}
        for j in range(len(TERMS)):
            cols[f"has_{j}"] = pa.array((tfs[:, j] > 0).astype(np.int64))
        return pa.table(cols)

    agg = aggregate(
        docs,
        [],
        [("n", "count", None), ("sum_len", "sum", "len")]
        + [(f"df_{j}", "sum", f"has_{j}") for j in range(len(TERMS))],
        rows=stats_rows,
    )
    n = agg["n"]
    avgdl = agg["sum_len"] / n  # float division, mirrored in SQL
    idf = [
        math.log(1.0 + (n - agg[f"df_{j}"] + 0.5)
                 / (agg[f"df_{j}"] + 0.5))
        for j in range(len(TERMS))
    ]

    def scores(batch: pa.Table) -> pa.Table:
        ids, tfs, lens = tf_len(batch)
        score = np.zeros(len(ids), dtype=np.float64)
        for j in range(len(TERMS)):
            tf = tfs[:, j].astype(np.float64)
            den = tf + K1 * (1.0 - B + B * lens / avgdl)
            score = score + idf[j] * (tf * (K1 + 1.0)) / den
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "score": pa.array(score, pa.float64()),
            }
        )

    return topk(
        docs.map_batches(scores, batch_format="pyarrow"), TOPK,
        [("score", "descending"), ("doc_id", "ascending")],
    ).to_pandas()


CORPUS_QUERIES["bm25_search"] = _q_bm25_search
CORPUS_ORACLE_SQL["bm25_search"] = """
WITH per_doc AS (
    SELECT doc_id,
           CAST(len(list_filter(regexp_split_to_array(text, '\\s+'),
                                x -> x <> '')) AS BIGINT) AS dl,
           CAST(len(list_filter(regexp_split_to_array(text, '\\s+'),
                                x -> x = 'hash')) AS BIGINT) AS tf1,
           CAST(len(list_filter(regexp_split_to_array(text, '\\s+'),
                                x -> x = 'join')) AS BIGINT) AS tf2,
           CAST(len(list_filter(regexp_split_to_array(text, '\\s+'),
                                x -> x = 'merge')) AS BIGINT) AS tf3
    FROM documents
), stats AS (
    SELECT count(*) AS n,
           CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl,
           ln(1.0 + (count(*) - count(*) FILTER (WHERE tf1 > 0) + 0.5)
                    / (count(*) FILTER (WHERE tf1 > 0) + 0.5)) AS idf1,
           ln(1.0 + (count(*) - count(*) FILTER (WHERE tf2 > 0) + 0.5)
                    / (count(*) FILTER (WHERE tf2 > 0) + 0.5)) AS idf2,
           ln(1.0 + (count(*) - count(*) FILTER (WHERE tf3 > 0) + 0.5)
                    / (count(*) FILTER (WHERE tf3 > 0) + 0.5)) AS idf3
    FROM per_doc
), scored AS (
    SELECT d.doc_id,
           s.idf1 * (d.tf1 * (CAST(1.2 AS DOUBLE) + 1.0))
               / (d.tf1 + CAST(1.2 AS DOUBLE)
                  * (1.0 - CAST(0.75 AS DOUBLE)
                     + CAST(0.75 AS DOUBLE) * d.dl / s.avgdl))
           + s.idf2 * (d.tf2 * (CAST(1.2 AS DOUBLE) + 1.0))
               / (d.tf2 + CAST(1.2 AS DOUBLE)
                  * (1.0 - CAST(0.75 AS DOUBLE)
                     + CAST(0.75 AS DOUBLE) * d.dl / s.avgdl))
           + s.idf3 * (d.tf3 * (CAST(1.2 AS DOUBLE) + 1.0))
               / (d.tf3 + CAST(1.2 AS DOUBLE)
                  * (1.0 - CAST(0.75 AS DOUBLE)
                     + CAST(0.75 AS DOUBLE) * d.dl / s.avgdl))
           AS score
    FROM per_doc d CROSS JOIN stats s
)
SELECT doc_id, score FROM scored
ORDER BY score DESC, doc_id
LIMIT 20
"""


# ------------------------------------- exact grouped count-distinct

def _q_domain_unique_targets(sf_dir: str):
    """Exact COUNT(DISTINCT target) per source domain — the two-stage
    distinct spelling: per-batch local dedup of (domain, target)
    pairs, one exchange that groups the DISTINCT pairs (never the raw
    occurrence stream), then a per-batch count combine into the tiny
    per-domain aggregate. Re-crawl duplicate pages collapse in the
    distinct, so the result is crawl-multiplicity-invariant."""
    from ..sources.pages import read_pages
    from ..stages.links import extract_links_batch

    pairs = read_pages(sf_dir).map_batches(
        extract_links_batch, batch_format="pyarrow"
    )
    distinct = aggregate(pairs, ["src_domain", "target"], [])
    out = aggregate(
        distinct, "src_domain", [("n_targets", "count", None)]
    ).to_pandas()
    out["n_targets"] = out["n_targets"].astype("int64")
    return out.sort_values("src_domain").reset_index(drop=True)


CORPUS_QUERIES["domain_unique_targets"] = _q_domain_unique_targets
CORPUS_ORACLE_SQL["domain_unique_targets"] = (
    _LINKS_CTE
    + """
SELECT 'site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
       || '.example.org' AS src_domain,
       CAST(count(DISTINCT target) AS BIGINT) AS n_targets
FROM links
GROUP BY 1
ORDER BY 1
"""
)


# ------------------------------------------- fuzzy key self-join

def _q_customer_fuzzy_pairs(sf_dir: str):
    """All customer-name pairs at Levenshtein distance exactly 1 via
    the SymSpell deletion-neighborhood plan (``stages.fuzzy``): one
    hashed-variant exchange, in-bucket vectorized verify, distinct
    after verify. c_name is 'Customer#%09d' so distance-1 pairs are
    exactly the single-digit substitutions — a dense, structured
    ground truth the exact-levenshtein oracle replays."""
    import ray.data

    from ..stages.fuzzy import fuzzy_self_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_name"]
    )
    out = fuzzy_self_join(cust, col="c_name").to_pandas()
    out["dist"] = out["dist"].astype("int64")
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


CORPUS_QUERIES["customer_fuzzy_pairs"] = _q_customer_fuzzy_pairs
CORPUS_ORACLE_SQL["customer_fuzzy_pairs"] = """
SELECT a.c_name AS name_a, b.c_name AS name_b,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist
FROM customer a JOIN customer b ON a.c_name < b.c_name
WHERE levenshtein(a.c_name, b.c_name) <= 1
ORDER BY name_a, name_b
"""


def _q_customer_fuzzy_unicode(sf_dir: str):
    """Unicode-key witness for the fuzzy join's distance contract:
    keys get a MULTIBYTE prefix ('Customer#' -> 'Çustomér№', utf-8
    bytes 2+5+2+1+3) before the same self-join. Distance is byte-level
    Levenshtein over utf-8 — which is exactly what DuckDB's
    ``levenshtein`` computes for non-ASCII too (measured: 'é' vs 'e'
    is 2), so the oracle replays the identical metric on identical
    transformed keys."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from ..stages.fuzzy import fuzzy_self_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_name"]
    )

    def accent(batch):
        return pa.Table.from_pydict(
            {
                "c_name": pc.replace_substring(
                    batch["c_name"], "Customer#", "Çustomér№"
                )
            }
        )

    out = fuzzy_self_join(
        cust.map_batches(accent, batch_format="pyarrow"), col="c_name"
    ).to_pandas()
    out["dist"] = out["dist"].astype("int64")
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


CORPUS_QUERIES["customer_fuzzy_unicode"] = _q_customer_fuzzy_unicode
CORPUS_ORACLE_SQL["customer_fuzzy_unicode"] = """
WITH c AS (
    SELECT replace(c_name, 'Customer#', 'Çustomér№') AS name
    FROM customer
)
SELECT a.name AS name_a, b.name AS name_b,
       CAST(levenshtein(a.name, b.name) AS BIGINT) AS dist
FROM c a JOIN c b ON a.name < b.name
WHERE levenshtein(a.name, b.name) <= 1
ORDER BY name_a, name_b
"""


def _q_lang_rank_dense(sf_dir: str):
    """Tie-aware per-language length ranking: RANK, DENSE_RANK,
    PERCENT_RANK and CUME_DIST over n_chars DESC (ties are real —
    lengths repeat within a language). All four are value-functions,
    so the plan is one histogram aggregate + a stateless broadcast
    probe (``stages.window.grouped_rank_dense``) — no group shuffle."""
    from ..stages.window import grouped_rank_dense

    docs = read_documents(sf_dir, ["doc_id", "lang", "n_chars"])
    out = grouped_rank_dense(
        docs, "lang", "n_chars", descending=True, with_pct=True
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


CORPUS_QUERIES["lang_rank_dense"] = _q_lang_rank_dense
CORPUS_ORACLE_SQL["lang_rank_dense"] = """
SELECT doc_id, lang, n_chars,
       CAST(rank() OVER (PARTITION BY lang
                         ORDER BY n_chars DESC) AS BIGINT) AS rnk,
       CAST(dense_rank() OVER (PARTITION BY lang
                               ORDER BY n_chars DESC) AS BIGINT) AS drnk,
       percent_rank() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC) AS pct_rank,
       cume_dist() OVER (PARTITION BY lang
                         ORDER BY n_chars DESC) AS cume_dist
FROM documents
ORDER BY doc_id
"""


def _q_event_value_rank(sf_dir: str):
    """Near-unique-key ranking: RANK/DENSE_RANK (+pct/cume) of every
    event's integer-cents value within its event type, value DESC.
    Cents are near-unique, so the histogram plan's driver state would
    approach row count — this query forces the SORT-based plan
    (``stages.window.grouped_rank_sorted``: one distributed sort,
    O(blocks) boundary stitching on the driver), the path
    ``grouped_rank_dense`` takes when ``plan.broadcast`` declines the
    histogram; both plans pinned equal in pytest."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from ..stages.window import grouped_rank_sorted

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def to_cents(batch):
        cents = pc.cast(
            pc.round_to_multiple(
                pc.multiply(batch["value"], 100.0), 1.0, "half_towards_infinity"
            ),
            pa.int64(),
        )
        return pa.Table.from_pydict(
            {
                "event_id": batch["event_id"].combine_chunks(),
                "event_type": batch["event_type"].combine_chunks(),
                "cents": cents,
            }
        )

    ranked = grouped_rank_sorted(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        "event_type", "cents", descending=True, with_pct=True,
    )
    return ranked.to_pandas().sort_values("event_id").reset_index(drop=True)


CORPUS_QUERIES["event_value_rank"] = _q_event_value_rank
CORPUS_ORACLE_SQL["event_value_rank"] = """
WITH e AS (
    SELECT event_id, event_type,
           CAST(round(value * 100) AS BIGINT) AS cents
    FROM events
)
SELECT event_id, event_type, cents,
       CAST(rank() OVER w AS BIGINT) AS rnk,
       CAST(dense_rank() OVER w AS BIGINT) AS drnk,
       percent_rank() OVER w AS pct_rank,
       cume_dist() OVER w AS cume_dist
FROM e
WINDOW w AS (PARTITION BY event_type ORDER BY cents DESC)
ORDER BY event_id
"""


# ------------------------------------------------- pivot / mode

def _q_source_lang_pivot(sf_dir: str):
    """PIVOT witness: documents counted per (source, lang), reshaped
    wide — one int64 column per language of the corpus's closed lang
    set. Raw rows never shuffle (counts combine per batch); the
    reshape runs per source group over the tiny grain
    (``stages.relational.pivot_wide``)."""
    from ..stages.relational import pivot_wide

    docs = read_documents(sf_dir, ["source", "lang"])
    grain = aggregate(docs, ["source", "lang"], [("n", "count", None)])
    out = pivot_wide(
        grain, "source", "lang", ["de", "en", "es", "fr", "zh"]
    ).to_pandas()
    return out.sort_values("source").reset_index(drop=True)


CORPUS_QUERIES["source_lang_pivot"] = _q_source_lang_pivot
CORPUS_ORACLE_SQL["source_lang_pivot"] = """
SELECT source,
       CAST(count(*) FILTER (WHERE lang = 'de') AS BIGINT) AS de,
       CAST(count(*) FILTER (WHERE lang = 'en') AS BIGINT) AS en,
       CAST(count(*) FILTER (WHERE lang = 'es') AS BIGINT) AS es,
       CAST(count(*) FILTER (WHERE lang = 'fr') AS BIGINT) AS fr,
       CAST(count(*) FILTER (WHERE lang = 'zh') AS BIGINT) AS zh
FROM documents
GROUP BY source
ORDER BY source
"""


def _q_source_mode_lang(sf_dir: str):
    """Grouped MODE: the dominant language per source (ties -> the
    lexicographically smallest, the deterministic SQL row_number
    spelling), picked per group on the counted grain."""
    from ..stages.relational import grouped_mode

    docs = read_documents(sf_dir, ["source", "lang"])
    grain = aggregate(docs, ["source", "lang"], [("n", "count", None)])
    out = grouped_mode(grain, "source", "lang").to_pandas()
    return out.sort_values("source").reset_index(drop=True)


CORPUS_QUERIES["source_mode_lang"] = _q_source_mode_lang
CORPUS_ORACLE_SQL["source_mode_lang"] = """
SELECT source, lang AS top_lang, n
FROM (
    SELECT source, lang, CAST(count(*) AS BIGINT) AS n,
           row_number() OVER (PARTITION BY source
                              ORDER BY count(*) DESC, lang) AS rn
    FROM documents
    GROUP BY source, lang
)
WHERE rn = 1
ORDER BY source
"""


def _q_fuzzy_blocklist_match(sf_dir: str):
    """Typo-tolerant blocklist matching (record-linkage witness): a
    small blocklist of corrupted names — every 97th customer with one
    digit deleted — matched against ALL customer names at Levenshtein
    distance <= 1 via the two-table deletion-neighborhood join
    (``stages.fuzzy.fuzzy_join``). Each typo recovers its source
    customer plus any other name one edit away; the oracle replays
    both the corruption and the exact-levenshtein join."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ..stages.fuzzy import fuzzy_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )

    def corrupt(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        mask = keys % 97 == 0
        names = np.asarray(batch["c_name"].to_pylist(), dtype=object)[mask]
        ks = keys[mask]
        typos = [
            s[: 9 + int(k) % 9] + s[10 + int(k) % 9 :]
            for s, k in zip(names, ks)
        ]
        return pa.table({"typo_name": pa.array(typos, pa.string())})

    blocklist = cust.map_batches(corrupt, batch_format="pyarrow")
    out = fuzzy_join(
        blocklist,
        cust.select_columns(["c_name"]),
        "typo_name",
        "c_name",
    ).to_pandas()
    out["dist"] = out["dist"].astype("int64")
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


CORPUS_QUERIES["fuzzy_blocklist_match"] = _q_fuzzy_blocklist_match
CORPUS_ORACLE_SQL["fuzzy_blocklist_match"] = """
WITH blocklist AS (
    SELECT substr(c_name, 1, 9 + c_custkey % 9)
           || substr(c_name, 11 + c_custkey % 9) AS typo_name
    FROM customer WHERE c_custkey % 97 = 0
)
SELECT b.typo_name AS name_a, c.c_name AS name_b,
       CAST(levenshtein(b.typo_name, c.c_name) AS BIGINT) AS dist
FROM blocklist b JOIN customer c
  ON levenshtein(b.typo_name, c.c_name) <= 1
ORDER BY name_a, name_b
"""


# ------------------------------------------------ cohort retention

def _q_events_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by first-activity day
    (the cohort), counted per day-offset of each later active day.

    Scale shape: the event stream collapses per batch to the distinct
    (user, day) grain before its one exchange; the cohort/offset
    derivation is a per-USER group task (high-cardinality key — no
    giant group); the final (cohort, offset) matrix aggregates through
    ``stages/aggregate.py``. Three exchanges total, each over grains that
    shrink monotonically."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    _US_PER_DAY = 86_400_000_000

    def day_grain(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()), _US_PER_DAY)
        return pa.Table.from_arrays(
            [batch["user_id"], day], names=["user_id", "epoch_day"]
        )

    grain = aggregate(ev, ["user_id", "epoch_day"], [], rows=day_grain)

    def offsets_of_user(g: pa.Table) -> pa.Table:
        days = g["epoch_day"].to_numpy(zero_copy_only=False)
        cohort = days.min()
        return pa.Table.from_pydict(
            {
                "cohort_day": pa.array(
                    [int(cohort)] * len(days), pa.int64()
                ),
                "day_offset": pa.array(days - cohort, pa.int64()),
            }
        )

    out = aggregate(
        grain.groupby("user_id").map_groups(
            offsets_of_user, batch_format="pyarrow"
        ),
        ["cohort_day", "day_offset"],
        [("n_users", "count", None)],
    ).to_pandas()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_day", "day_offset"]).reset_index(
        drop=True
    )


CORPUS_QUERIES["events_retention"] = _q_events_retention
CORPUS_ORACLE_SQL["events_retention"] = """
WITH grain AS (
    SELECT DISTINCT user_id,
           epoch_us(ts) // 86400000000 AS epoch_day
    FROM events
), firstd AS (
    SELECT user_id, min(epoch_day) AS cohort_day
    FROM grain GROUP BY user_id
)
SELECT f.cohort_day,
       g.epoch_day - f.cohort_day AS day_offset,
       count(*) AS n_users
FROM grain g JOIN firstd f USING (user_id)
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ------------------------------------- bloom-prefiltered join

def _q_urgent_revenue_by_month(sf_dir: str):
    """Selective-build-side join witness: lineitem joined to URGENT
    orders only (~20% of orders) through
    ``stages.relational.bloom_prefiltered_join`` — a Bloom of the
    build side's keys is broadcast once and prunes ~80% of the probe
    exchange before the bucketed join; false positives ride through
    to the exact Acero join so the result is identical to the
    unpruned join (pinned in pytest)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import bloom_prefiltered_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice"],
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["l_extendedprice"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        t = pa.Table.from_arrays(
            [batch["l_orderkey"].combine_chunks(), cents],
            names=["orderkey", "cents"],
        )
        g = t.group_by("orderkey").aggregate([("cents", "sum")])
        return g.rename_columns(["orderkey", "cents"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
    )

    def o_prep(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["o_orderpriority"], "1-URGENT")
        b = batch.filter(keep)
        return pa.Table.from_arrays(
            [
                b["o_orderkey"].combine_chunks(),
                pc.strftime(b["o_orderdate"], format="%Y-%m"),
            ],
            names=["orderkey", "month"],
        )

    joined = bloom_prefiltered_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        orders.map_batches(o_prep, batch_format="pyarrow"),
        key="orderkey",
    )
    out = aggregate(
        joined, "month", [("sum_cents", "sum", "cents")]
    ).to_pandas()
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return out.sort_values("month").reset_index(drop=True)


def _q_customer_order_dist(sf_dir: str):
    """TPC-H Q13 shape: distribution of per-customer order counts,
    INCLUDING zero-order customers — the canonical left-outer-join +
    double aggregate. Plan: counts on o_custkey through
    ``stages/aggregate.py`` (the big side never moves raw), a bucketed
    LEFT join of the customer keys against the counts
    (``partitioned_hash_join``), then the count-of-counts histogram
    through the same combinator. No driver state; both
    exchanges are on already-aggregated grains."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import partitioned_hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"],
    )

    def o_rows(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.not_equal(batch["o_orderpriority"], "1-URGENT")
        )
        return b.select(["o_custkey"]).rename_columns(["custkey"])

    counts = aggregate(orders, "custkey", [("n", "count", None)], rows=o_rows)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).map_batches(
        lambda b: b.rename_columns(["custkey"]), batch_format="pyarrow"
    )
    joined = partitioned_hash_join(
        cust, counts, "custkey", how="left"
    )

    def hist_rows(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(batch["n"], pa.int64()), 0)
        return pa.Table.from_arrays([n], names=["c_count"])

    out = aggregate(
        joined, "c_count", [("custdist", "count", None)], rows=hist_rows
    ).to_pandas()
    out["custdist"] = out["custdist"].astype("int64")
    return out.sort_values(
        ["custdist", "c_count"], ascending=[False, False]
    ).reset_index(drop=True)


def _q_supplier_kcore(sf_dir: str):
    """Three rounds of 3-core peeling on a sparsified co-supply graph
    (``stages.graph.kcore_peel``): drop degree<3 nodes and their
    edges, repeat. The FIXED round count (with no-op early stop) is
    what makes the iterative operator SQL-expressible — the oracle
    unrolls the three peels as chained CTEs. Scale plan: one
    ``iterate.supersteps`` round per peel — live nodes ping their
    neighbours and the degree is the ping count."""
    import pyarrow as pa
    import ray.data

    from ..stages.graph import cooccurrence_edges, kcore_peel

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 50 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    out = kcore_peel(
        edges, k=3, rounds=3, assume_canonical=True
    ).to_pandas()
    if len(out) == 0:
        return out
    return out.sort_values("node").reset_index(drop=True)


CORPUS_QUERIES["supplier_kcore"] = _q_supplier_kcore
CORPUS_ORACLE_SQL["supplier_kcore"] = """
WITH li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 50 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e0 AS (
    SELECT u, v FROM co WHERE n >= 2
), d1 AS (
    SELECT node, count(*) AS d
    FROM (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0)
    GROUP BY node
), k1 AS (SELECT node FROM d1 WHERE d >= 3),
e1 AS (
    SELECT e0.u, e0.v FROM e0
    JOIN k1 a ON e0.u = a.node JOIN k1 b ON e0.v = b.node
), d2 AS (
    SELECT node, count(*) AS d
    FROM (SELECT u AS node FROM e1 UNION ALL SELECT v FROM e1)
    GROUP BY node
), k2 AS (SELECT node FROM d2 WHERE d >= 3),
e2 AS (
    SELECT e1.u, e1.v FROM e1
    JOIN k2 a ON e1.u = a.node JOIN k2 b ON e1.v = b.node
), d3 AS (
    SELECT node, count(*) AS d
    FROM (SELECT u AS node FROM e2 UNION ALL SELECT v FROM e2)
    GROUP BY node
), k3 AS (SELECT node FROM d3 WHERE d >= 3),
e3 AS (
    SELECT e2.u, e2.v FROM e2
    JOIN k3 a ON e2.u = a.node JOIN k3 b ON e2.v = b.node
)
SELECT node, CAST(count(*) AS BIGINT) AS degree
FROM (SELECT u AS node FROM e3 UNION ALL SELECT v AS node FROM e3)
GROUP BY node
ORDER BY node
"""


def _q_events_daily_gapfill(sf_dir: str):
    """Time-series RESAMPLE with gap filling: daily counts of
    high-value events (value > 250) per event type over the FULL
    (type x calendar-day) grid — days with zero qualifying events
    appear explicitly with 0 (the generate_series / date-spine
    pattern). The grid is bounded by definition (days x types), so it
    is built driver-side and the corpus contributes only a filtered
    count aggregate from batch partials + a two-scalar (min, max)
    timestamp aggregate."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    DAY_US = 86_400_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def rows(batch: pa.Table) -> pa.Table:
        val = batch["value"].to_numpy(zero_copy_only=False)
        us = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        m = val > 250.0
        k = int(m.sum())
        counted = pa.Table.from_pydict(
            {
                "event_type": batch["event_type"].filter(pa.array(m)),
                "day_us": pa.array((us[m] // DAY_US) * DAY_US, pa.int64()),
                "one": pa.array(np.ones(k, np.int64)),
                "lo": pa.array([2**63 - 1] * k, pa.int64()),
                "hi": pa.array([-(2**63)] * k, pa.int64()),
            }
        )
        # span rows ride along with day_us = -1 (never a real day)
        span = pa.Table.from_pydict(
            {
                "event_type": pa.array([""], pa.string()),
                "day_us": pa.array([-1], pa.int64()),
                "one": pa.array([0], pa.int64()),
                "lo": pa.array([int(us.min())], pa.int64()),
                "hi": pa.array([int(us.max())], pa.int64()),
            }
        )
        return pa.concat_tables([counted, span])

    agg = aggregate(
        ev,
        ["event_type", "day_us"],
        [("n", "sum", "one"), ("lo", "min", "lo"), ("hi", "max", "hi")],
        rows=rows,
    ).to_pandas()
    span = agg[agg["day_us"] == -1]
    lo_day = (int(span["lo"].min()) // DAY_US) * DAY_US
    hi_day = (int(span["hi"].max()) // DAY_US) * DAY_US
    counts = agg[agg["day_us"] >= 0][["event_type", "day_us", "n"]]
    types = sorted(
        t for t in set(counts["event_type"]) | _event_types(sf_dir)
    )
    days = np.arange(lo_day, hi_day + DAY_US, DAY_US, dtype=np.int64)
    grid = pd.MultiIndex.from_product(
        [types, days], names=["event_type", "day_us"]
    ).to_frame(index=False)
    out = grid.merge(counts, on=["event_type", "day_us"], how="left")
    out["n_high"] = out["n"].fillna(0).astype("int64")
    out["day"] = pd.to_datetime(out["day_us"], unit="us")
    return (
        out[["event_type", "day", "n_high"]]
        .sort_values(["event_type", "day"])
        .reset_index(drop=True)
    )


def _event_types(sf_dir: str) -> set:
    """Distinct event types (tiny domain) via a count aggregate."""
    import ray.data

    return {
        r["event_type"]
        for r in aggregate(
            ray.data.read_parquet(
                f"{sf_dir}/events.parquet", columns=["event_type"]
            ),
            "event_type",
            [],
        ).take_all()
    }


CORPUS_QUERIES["events_daily_gapfill"] = _q_events_daily_gapfill
CORPUS_ORACLE_SQL["events_daily_gapfill"] = """
WITH b AS (
    SELECT date_trunc('day', min(ts)) AS lo,
           date_trunc('day', max(ts)) AS hi
    FROM events
), days AS (
    SELECT unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS day FROM b
), types AS (
    SELECT DISTINCT event_type FROM events
), cnt AS (
    SELECT event_type, date_trunc('day', ts) AS day, count(*) AS n
    FROM events WHERE value > 250 GROUP BY 1, 2
)
SELECT t.event_type, d.day, CAST(COALESCE(cnt.n, 0) AS BIGINT) AS n_high
FROM days d CROSS JOIN types t
LEFT JOIN cnt ON cnt.event_type = t.event_type AND cnt.day = d.day
ORDER BY t.event_type, d.day
"""


def _q_events_cumulative_users(sf_dir: str):
    """Running DISTINCT count: cumulative unique users per event type
    by day. The classic decomposition that avoids any
    distinct-over-window state: first-appearance day per (type, user)
    (a min aggregate from batch partials), daily new-user counts,
    then a cumulative sum over the bounded (type x active-day) grain.
    Only days with at least one NEW user appear (matching grain on
    both sides)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    DAY_US = 86_400_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "event_type", "user_id"],
    )

    def day_rows(batch: pa.Table) -> pa.Table:
        us = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        return pa.Table.from_pydict(
            {
                "event_type": batch["event_type"].combine_chunks(),
                "user_id": batch["user_id"].combine_chunks(),
                "day_us": pa.array((us // DAY_US) * DAY_US, pa.int64()),
            }
        )

    first_day = aggregate(
        ev,
        ["event_type", "user_id"],
        [("day_us", "min", "day_us")],
        rows=day_rows,
    )
    daily = aggregate(
        first_day, ["event_type", "day_us"], [("new_users", "count", None)]
    ).to_pandas()
    daily["new_users"] = daily["new_users"].astype("int64")
    daily = daily.sort_values(["event_type", "day_us"]).reset_index(
        drop=True
    )
    daily["cum_users"] = (
        daily.groupby("event_type")["new_users"].cumsum().astype("int64")
    )
    daily["day"] = pd.to_datetime(daily["day_us"], unit="us")
    return daily[["event_type", "day", "new_users", "cum_users"]]


CORPUS_QUERIES["events_cumulative_users"] = _q_events_cumulative_users
CORPUS_ORACLE_SQL["events_cumulative_users"] = """
WITH fd AS (
    SELECT event_type, user_id, min(date_trunc('day', ts)) AS day
    FROM events GROUP BY 1, 2
), nc AS (
    SELECT event_type, day, CAST(count(*) AS BIGINT) AS new_users
    FROM fd GROUP BY 1, 2
)
SELECT event_type, day, new_users,
       CAST(sum(new_users) OVER (PARTITION BY event_type
                                 ORDER BY day) AS BIGINT) AS cum_users
FROM nc
ORDER BY event_type, day
"""


def _q_idle_customer_balance(sf_dir: str):
    """TPC-H Q22 shape: per-nation count + balance of ABOVE-AVERAGE
    customers with no RECENT order (none since 1999 — this corpus's
    orders cover every customer, so the date bound is what keeps the
    anti-join non-degenerate at every sf). Three classic distributed
    pieces in one plan: a global scalar aggregate (avg positive
    balance) from batch partials, threshold compare in EXACT integers
    (``cents * cnt > total`` instead of ``cents > total/cnt`` — no
    float average crosses the wire), and a bucketed ANTI-join of the
    qualifying customers against the date-pruned order custkeys. The
    final groupby runs on the tiny surviving grain."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import partitioned_hash_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    )

    def with_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(batch["c_acctbal"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.Table.from_pydict(
            {
                "c_custkey": batch["c_custkey"].combine_chunks(),
                "c_nationkey": pc.cast(
                    batch["c_nationkey"].combine_chunks(), pa.int64()
                ),
                "cents": cents,
            }
        )

    cust_c = cust.map_batches(
        with_cents, batch_format="pyarrow"
    ).materialize()  # reused: avg partials + threshold filter

    agg = aggregate(
        cust_c,
        [],
        [("s", "sum", "cents"), ("c", "count", "cents")],
        rows=lambda b: b.select(["cents"]).filter(pc.greater(b["cents"], 0)),
    )
    total, cnt = int(agg["s"] or 0), int(agg["c"])

    def above_avg(batch: pa.Table) -> pa.Table:
        cents = batch["cents"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(cents * cnt > total))

    rich = cust_c.map_batches(above_avg, batch_format="pyarrow")

    cutoff = np.datetime64("1999-01-01")

    def recent_custkeys(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array(od >= cutoff))
        return b.select(["o_custkey"]).rename_columns(["c_custkey"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"],
    ).map_batches(recent_custkeys, batch_format="pyarrow")
    idle = partitioned_hash_join(
        rich, orders, "c_custkey", how="anti"
    )

    out = aggregate(
        idle,
        "c_nationkey",
        [("total_bal_cents", "sum", "cents"), ("numcust", "count", None)],
    ).to_pandas()
    out["total_bal_cents"] = out["total_bal_cents"].astype("int64")
    out["numcust"] = out["numcust"].astype("int64")
    return (
        out[["c_nationkey", "numcust", "total_bal_cents"]]
        .sort_values("c_nationkey")
        .reset_index(drop=True)
    )


CORPUS_QUERIES["idle_customer_balance"] = _q_idle_customer_balance
CORPUS_ORACLE_SQL["idle_customer_balance"] = """
WITH c AS (
    SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey,
           CAST(round(c_acctbal * 100) AS BIGINT) AS cents
    FROM customer
), avg_pos AS (
    SELECT CAST(sum(cents) AS BIGINT) AS total,
           CAST(count(*) AS BIGINT) AS cnt
    FROM c WHERE cents > 0
), rich AS (
    SELECT c.* FROM c, avg_pos
    WHERE c.cents * avg_pos.cnt > avg_pos.total
), idle AS (
    SELECT * FROM rich
    WHERE NOT EXISTS (
        SELECT 1 FROM orders o
        WHERE o.o_custkey = rich.c_custkey
          AND o.o_orderdate >= TIMESTAMP '1999-01-01'
    )
)
SELECT c_nationkey,
       CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(cents) AS BIGINT) AS total_bal_cents
FROM idle
GROUP BY c_nationkey
ORDER BY c_nationkey
"""


def _q_copurchase_pairs(sf_dir: str):
    """Market-basket pair mining: the top-20 part pairs by the number
    of DISTINCT orders containing both (support), ties broken by part
    ids. Reuses the co-occurrence engine (``graph.cooccurrence_edges``
    with ``keep_count``): one coalesced exchange on the hashed order
    key generates in-order pairs vectorized, one exchange on the pair
    grain counts support. Order sizes max out at ~17 lines in this
    corpus, far under the hot-group cap, so the SQL self-join oracle
    is exact (no drops)."""
    import ray.data

    from ..stages.graph import cooccurrence_edges
    from ..stages.topk import topk

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    pairs = cooccurrence_edges(
        li, "l_orderkey", "l_partkey", min_count=1, keep_count=True
    )

    out = topk(
        pairs, 20,
        [("n", "descending"), ("u", "ascending"), ("v", "ascending")],
    ).to_pandas()
    out.columns = ["part_a", "part_b", "support"]
    out["support"] = out["support"].astype("int64")
    return out


CORPUS_QUERIES["copurchase_pairs"] = _q_copurchase_pairs
CORPUS_ORACLE_SQL["copurchase_pairs"] = """
WITH d AS (
    SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
)
SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
       CAST(count(*) AS BIGINT) AS support
FROM d a JOIN d b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2
ORDER BY support DESC, part_a, part_b
LIMIT 20
"""


def _q_lang_source_doclist(sf_dir: str):
    """Grouped string aggregation: per (lang, source) the document
    count and the 5 smallest doc_ids comma-joined (the STRING_AGG /
    ordered-array_agg witness — a bounded digest per group, never the
    whole group's rows). Per-batch partials carry at most 5 candidate
    ids + a count per group; the one exchange moves that bounded
    grain and the final per-group merge re-selects the 5 smallest."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    K = 5

    def partial(batch: pa.Table) -> pa.Table:
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        src = batch["source"].to_numpy(zero_copy_only=False)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, src, lang))
        lang_s, src_s, did_s = lang[order], src[order], did[order]
        nb = np.concatenate(
            [[True], (lang_s[1:] != lang_s[:-1]) | (src_s[1:] != src_s[:-1])]
        )
        starts = np.flatnonzero(nb)
        ends = np.append(starts[1:], lang_s.size)
        rows = {"lang": [], "source": [], "n": [], "cands": []}
        for s, e in zip(starts, ends):
            rows["lang"].append(lang_s[s])
            rows["source"].append(src_s[s])
            rows["n"].append(int(e - s))
            rows["cands"].append(
                ",".join(str(x) for x in did_s[s : min(e, s + K)])
            )
        return pa.Table.from_pydict(
            {
                "lang": pa.array(rows["lang"], pa.string()),
                "source": pa.array(rows["source"], pa.string()),
                "n": pa.array(rows["n"], pa.int64()),
                "cands": pa.array(rows["cands"], pa.string()),
            }
        )

    def merge_group(group: pa.Table) -> pa.Table:
        ids = sorted(
            int(x)
            for cs in group["cands"].to_pylist()
            for x in cs.split(",")
            if x
        )[:K]
        return pa.Table.from_pydict(
            {
                "lang": pa.array([group["lang"][0].as_py()], pa.string()),
                "source": pa.array(
                    [group["source"][0].as_py()], pa.string()
                ),
                "n_docs": pa.array(
                    [int(sum(group["n"].to_pylist()))], pa.int64()
                ),
                "top_docs": pa.array(
                    [",".join(str(x) for x in ids)], pa.string()
                ),
            }
        )

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "source"],
    )
    out = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .map_groups(merge_group, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


CORPUS_QUERIES["lang_source_doclist"] = _q_lang_source_doclist
CORPUS_ORACLE_SQL["lang_source_doclist"] = """
WITH r AS (
    SELECT lang, source, doc_id,
           row_number() OVER (PARTITION BY lang, source
                              ORDER BY doc_id) AS rn
    FROM documents
), c AS (
    SELECT lang, source, CAST(count(*) AS BIGINT) AS n_docs
    FROM documents GROUP BY 1, 2
), t AS (
    SELECT lang, source,
           string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
               AS top_docs
    FROM r WHERE rn <= 5 GROUP BY 1, 2
)
SELECT c.lang, c.source, c.n_docs, t.top_docs
FROM c JOIN t USING (lang, source)
ORDER BY c.lang, c.source
"""


CORPUS_QUERIES["customer_order_dist"] = _q_customer_order_dist
CORPUS_ORACLE_SQL["customer_order_dist"] = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (
    SELECT c.c_custkey,
           CAST(COALESCE(cnt.n, 0) AS BIGINT) AS c_count
    FROM customer c
    LEFT JOIN (
        SELECT o_custkey, count(*) AS n FROM orders
        WHERE o_orderpriority <> '1-URGENT'
        GROUP BY o_custkey
    ) cnt ON c.c_custkey = cnt.o_custkey
)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def _q_top_revenue_supplier(sf_dir: str):
    """TPC-H Q15 shape: the supplier(s) with MAXIMUM revenue over a
    3-month shipdate window — global argmax WITHOUT a global sort.
    Plan: per-batch partial revenue sums (integer cents) on
    l_suppkey, one small groupby, ``Dataset.max`` for the scalar
    ceiling, filter to the winners (ties kept, per the spec), then a
    bucketed join against supplier for the name. The only exchange
    over lineitem-scale data is the pre-aggregated (suppkey, cents)
    grain."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import partitioned_hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"
        ],
    )

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1996-04-01")

    def li_rows(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array((ship >= lo) & (ship < hi)))
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    pc.multiply(
                        b["l_extendedprice"],
                        pc.subtract(1.0, b["l_discount"]),
                    ),
                    100.0,
                ),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [b["l_suppkey"], cents], names=["s_suppkey", "cents"]
        )

    rev = aggregate(
        li,
        "s_suppkey",
        [("total_revenue_cents", "sum", "cents")],
        rows=li_rows,
    ).materialize()  # reused: max scan + winner filter
    top = int(rev.max("total_revenue_cents"))
    winners = rev.filter(
        expr=f"total_revenue_cents == {top}"
    )
    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = partitioned_hash_join(
        winners, sup, "s_suppkey"
    ).to_pandas()
    out["total_revenue_cents"] = out["total_revenue_cents"].astype(
        "int64"
    )
    return (
        out[["s_suppkey", "s_name", "total_revenue_cents"]]
        .sort_values("s_suppkey")
        .reset_index(drop=True)
    )


CORPUS_QUERIES["top_revenue_supplier"] = _q_top_revenue_supplier
CORPUS_ORACLE_SQL["top_revenue_supplier"] = """
WITH rev AS (
    SELECT l_suppkey AS s_suppkey,
           CAST(sum(CAST(round(l_extendedprice * (1 - l_discount)
                               * 100) AS BIGINT)) AS BIGINT)
               AS total_revenue_cents
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1996-04-01'
    GROUP BY 1
)
SELECT rev.s_suppkey, s.s_name, rev.total_revenue_cents
FROM rev JOIN supplier s USING (s_suppkey)
WHERE rev.total_revenue_cents = (
    SELECT max(total_revenue_cents) FROM rev
)
ORDER BY rev.s_suppkey
"""


def _q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: revenue from below-a-fifth-of-average-quantity
    line items of one brand's parts. The correlated-subquery is
    decorrelated into two column-pruned lineitem scans with a
    BROADCAST per-part stats map in between (bounded by the brand's
    part count — the decontaminate 'benchmark side bounded by
    definition' contract): pass 1 aggregates (sum_qty, cnt) per
    brand part, pass 2 filters ``5 * qty * cnt < sum_qty`` — the
    average-fifth threshold in EXACT integer arithmetic (quantities
    are integral) — and sums cents partials. Zero exchanges beyond
    two tiny groupbys."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    import pandas as pd

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    pk = np.sort(
        np.concatenate(
            [
                b.filter(pc.equal(b["p_brand"], "Brand#4"))[
                    "p_partkey"
                ].to_numpy(zero_copy_only=False)
                for b in parts.iter_batches(batch_format="pyarrow")
            ]
        ).astype(np.int64)
    )
    pk_ref = ray.put(pk)

    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]

    def stats_rows(batch: pa.Table) -> pa.Table:
        keys = ray.get(pk_ref)
        part = batch["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, part)
        pos[pos >= keys.size] = 0
        mask = keys[pos] == part if keys.size else np.zeros(
            part.size, bool
        )
        return pa.Table.from_pydict(
            {
                "partkey": pa.array(part[mask], pa.int64()),
                "qty": pa.array(
                    batch["l_quantity"]
                    .to_numpy(zero_copy_only=False)[mask]
                    .astype(np.int64)
                ),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=li_cols
    )
    stats = aggregate(
        li,
        "partkey",
        [("sq", "sum", "qty"), ("cnt", "count", None)],
        rows=stats_rows,
    ).to_pandas()
    skeys = np.sort(stats["partkey"].to_numpy().astype(np.int64))
    order = np.argsort(stats["partkey"].to_numpy())
    ssq = stats["sq"].to_numpy().astype(np.int64)[order]
    scnt = stats["cnt"].to_numpy().astype(np.int64)[order]
    st_ref = ray.put((skeys, ssq, scnt))

    def select_rows(batch: pa.Table) -> pa.Table:
        keys, sq, cnt = ray.get(st_ref)
        part = batch["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, part)
        pos[pos >= keys.size] = 0
        hit = keys[pos] == part if keys.size else np.zeros(
            part.size, bool
        )
        qty = (
            batch["l_quantity"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        mask = hit & (5 * qty * cnt[pos] < sq[pos])
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    batch["l_extendedprice"].combine_chunks(), 100.0
                ),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        return pa.table({"cents": pa.array(cents[mask], pa.int64())})

    agg = aggregate(
        li, [], [("c", "sum", "cents"), ("n", "count", None)],
        rows=select_rows,
    )
    total = int(agg["c"] or 0)
    nrows = agg["n"]
    return pd.DataFrame(
        {
            "total_cents": pd.Series([total], dtype="int64"),
            "n_rows": pd.Series([nrows], dtype="int64"),
            "avg_yearly_cents": pd.Series(
                [total / 7.0], dtype="float64"
            ),
        }
    )


CORPUS_QUERIES["small_qty_revenue"] = _q_small_qty_revenue
CORPUS_ORACLE_SQL["small_qty_revenue"] = """
WITH pk AS (
    SELECT p_partkey FROM part WHERE p_brand = 'Brand#4'
), st AS (
    SELECT l_partkey,
           CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sq,
           CAST(count(*) AS BIGINT) AS cnt
    FROM lineitem JOIN pk ON l_partkey = p_partkey
    GROUP BY 1
), sel AS (
    SELECT CAST(round(l.l_extendedprice * 100) AS BIGINT) AS cents
    FROM lineitem l JOIN st ON l.l_partkey = st.l_partkey
    WHERE 5 * CAST(l.l_quantity AS BIGINT) * st.cnt < st.sq
)
SELECT CAST(COALESCE(sum(cents), 0) AS BIGINT) AS total_cents,
       CAST(count(*) AS BIGINT) AS n_rows,
       COALESCE(sum(cents), 0) / 7.0 AS avg_yearly_cents
FROM sel
"""


CORPUS_QUERIES["urgent_revenue_by_month"] = _q_urgent_revenue_by_month
CORPUS_ORACLE_SQL["urgent_revenue_by_month"] = """
SELECT strftime(o.o_orderdate, '%Y-%m') AS month,
       CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT))
            AS BIGINT) AS sum_cents
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE o.o_orderpriority = '1-URGENT'
GROUP BY 1
ORDER BY 1
"""


# -------------------------------------- grouped frequency top-k

def _q_lang_top_tokens(sf_dir: str):
    """Top-10 tokens per language by corpus count (ties -> token asc).
    Plan: per-batch (lang, token) Counter combine -> one exchange over
    the (lang, token) grain -> ``stages/topk.topk_per_group``: a
    per-batch LOCAL top-10 per lang over the finalized counts -> tiny
    per-lang merge. The merge group holds <= 10 x batches rows, never
    a language's vocabulary."""
    import pyarrow as pa

    from ..stages.topk import topk_per_group

    K = 10

    def rows(batch: pa.Table) -> pa.Table:
        langs, toks = [], []
        for lang, text in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            for tok in text.split():
                langs.append(lang)
                toks.append(tok)
        return pa.Table.from_pydict(
            {
                "lang": pa.array(langs, pa.string()),
                "token": pa.array(toks, pa.string()),
            }
        )

    out = topk_per_group(
        aggregate(
            read_documents(sf_dir, ["lang", "text"]),
            ["lang", "token"],
            [("n", "count", None)],
            rows=rows,
        ),
        "lang", K, [("n", "descending"), ("token", "ascending")],
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(
        ["lang", "n", "token"], ascending=[True, False, True]
    ).reset_index(drop=True)


CORPUS_QUERIES["lang_top_tokens"] = _q_lang_top_tokens
CORPUS_ORACLE_SQL["lang_top_tokens"] = """
SELECT lang, token, n FROM (
    SELECT lang, token, CAST(count(*) AS BIGINT) AS n,
           row_number() OVER (PARTITION BY lang
                              ORDER BY count(*) DESC, token) AS rn
    FROM (SELECT lang,
                 unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                    x -> x <> '')) AS token
          FROM documents)
    GROUP BY lang, token
)
WHERE rn <= 10
ORDER BY lang, n DESC, token
"""


# ------------------------------------------- skew-routed join

def _q_doc_lang_enriched(sf_dir: str):
    """Per-group stats joined back onto the rows — on a maximally
    skewed key (5 languages, every key hot). A hash-partitioned join
    on lang would put ~40% of the corpus in one reduce task;
    ``stages.relational.skew_routed_join`` detects the hot keys from
    probe-side count partials and routes them through a broadcast
    mini-join instead (no exchange for the skewed mass; cold keys —
    none here — still take the bucketed plan). Pinned identical to
    the plain bucketed join in pytest."""

    from ..stages.relational import skew_routed_join

    docs = read_documents(sf_dir, ["doc_id", "lang"])

    counts = aggregate(
        read_documents(sf_dir, ["lang"]),
        "lang",
        [("lang_docs", "count", None)],
    )
    out = skew_routed_join(docs, counts, key="lang").to_pandas()
    out["lang_docs"] = out["lang_docs"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


CORPUS_QUERIES["doc_lang_enriched"] = _q_doc_lang_enriched
CORPUS_ORACLE_SQL["doc_lang_enriched"] = """
SELECT d.doc_id, d.lang, c.lang_docs
FROM documents d
JOIN (SELECT lang, count(*) AS lang_docs
      FROM documents GROUP BY lang) c USING (lang)
ORDER BY d.doc_id
"""


def _q_doc_rank_sorted(sf_dir: str):
    """`doc_rank`'s second physical plan: the same global row_number
    through Ray's distributed sort + per-block base offsets
    (``stages.window.global_row_number_sorted``) — the plan that stays
    bounded when the order key is near-unique and the histogram plan's
    driver state would degenerate to row count. Same oracle as
    `doc_rank`; the two plans are pinned equal in pytest."""
    from ..stages.window import global_row_number_sorted

    docs = read_documents(sf_dir, ["doc_id", "n_chars"])
    out = global_row_number_sorted(docs, "doc_id", "n_chars").to_pandas()
    out = out.rename(columns={"id": "doc_id", "key": "n_chars"})
    return out.sort_values("doc_id").reset_index(drop=True)


CORPUS_QUERIES["doc_rank_sorted"] = _q_doc_rank_sorted
CORPUS_ORACLE_SQL["doc_rank_sorted"] = """
SELECT doc_id, n_chars,
       row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rnk
FROM documents
ORDER BY doc_id
"""


def _q_source_lang_unpivot(sf_dir: str):
    """UNPIVOT witness: the pivot matrix melted back to long form —
    the DENSE (source, lang, n) grid including explicit zeros for
    absent combinations (what distinguishes unpivot output from the
    sparse counted grain). Pure per-batch reshape after the pivot; no
    extra exchange."""
    from ..stages.relational import pivot_wide, unpivot_long

    langs = ["de", "en", "es", "fr", "zh"]
    docs = read_documents(sf_dir, ["source", "lang"])
    grain = aggregate(docs, ["source", "lang"], [("n", "count", None)])
    wide = pivot_wide(grain, "source", "lang", langs)
    out = unpivot_long(
        wide, "source", langs, col_name="lang", val_name="n"
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["source", "lang"]).reset_index(drop=True)


CORPUS_QUERIES["source_lang_unpivot"] = _q_source_lang_unpivot
CORPUS_ORACLE_SQL["source_lang_unpivot"] = """
SELECT s.source, l.lang,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM (SELECT DISTINCT source FROM documents) s
CROSS JOIN (VALUES ('de'), ('en'), ('es'), ('fr'), ('zh')) AS l(lang)
LEFT JOIN (SELECT source, lang, count(*) AS n
           FROM documents GROUP BY source, lang) c
  ON c.source = s.source AND c.lang = l.lang
ORDER BY s.source, l.lang
"""


# ------------------------------- distributed exact selection

def _q_events_median_value(sf_dir: str):
    """Exact global median event value (integer cents) via
    ``stages.selection.quantiles``: one histogram pass while the cents
    domain is small, the bucket refinement when values are near-unique
    over a huge domain (both branches pinned in pytest)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.selection import quantiles

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["value"])

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(b["value"], 100.0), 0.5)),
            pa.int64(),
        )
        return pa.table({"cents": cents})

    cents = ev.map_batches(to_cents, batch_format="pyarrow")
    return quantiles(cents, "cents", {"p50_cents": 0.5})[["p50_cents", "n"]]


CORPUS_QUERIES["events_median_value"] = _q_events_median_value
CORPUS_ORACLE_SQL["events_median_value"] = """
SELECT CAST(quantile_disc(CAST(floor(value * 100 + 0.5) AS BIGINT), 0.5)
            AS BIGINT) AS p50_cents,
       count(*) AS n
FROM events
"""


def _q_events_value_quartiles(sf_dir: str):
    """Interpolated (quantile_cont) quartiles of the event value in
    cents via ``stages.selection.quantiles(interpolate=True)`` — order
    statistics exact, interpolation mirroring the SQL formula
    term-for-term."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.selection import quantiles

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["value"])

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(b["value"], 100.0), 0.5)),
            pa.int64(),
        )
        return pa.table({"cents": cents})

    out = quantiles(
        ev.map_batches(to_cents, batch_format="pyarrow"), "cents",
        {"q25": 0.25, "q50": 0.5, "q75": 0.75}, interpolate=True,
    )
    return out[["q25", "q50", "q75", "n"]]


CORPUS_QUERIES["events_value_quartiles"] = _q_events_value_quartiles
CORPUS_ORACLE_SQL["events_value_quartiles"] = """
SELECT quantile_cont(CAST(floor(value * 100 + 0.5) AS BIGINT), 0.25) AS q25,
       quantile_cont(CAST(floor(value * 100 + 0.5) AS BIGINT), 0.5)  AS q50,
       quantile_cont(CAST(floor(value * 100 + 0.5) AS BIGINT), 0.75) AS q75,
       count(*) AS n
FROM events
"""


def _q_events_lead(sf_dir: str):
    """Windowed analytic (LEAD): each event with the user's NEXT event
    value — the forward twin of `events_lag`, same one-shuffle plan
    (``stages.textstage.lead_events``); money in exact cents."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.textstage import lead_events

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        next_cents = pc.cast(
            pc.round(pc.multiply(batch["next_value"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.Table.from_pydict(
            {
                "user_id": batch["user_id"].combine_chunks(),
                "ts": batch["ts"].combine_chunks(),
                "cents": cents,
                "next_cents": next_cents,
            }
        )

    return (
        lead_events(ev)
        .map_batches(to_cents, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["user_id", "ts", "cents"])
        .reset_index(drop=True)
    )


CORPUS_QUERIES["events_lead"] = _q_events_lead
CORPUS_ORACLE_SQL["events_lead"] = """
SELECT user_id, ts,
       CAST(round(value * 100) AS BIGINT) AS cents,
       CAST(round(lead(value) OVER (PARTITION BY user_id
                                    ORDER BY ts, value) * 100)
            AS BIGINT) AS next_cents
FROM events
ORDER BY user_id, ts, cents
"""


def _q_event_type_median_value(sf_dir: str):
    """Median event value (cents) per event type via the grouped
    ``stages.selection.quantiles`` — all groups share each scan, exact
    over unbounded value domains where per-group count histograms
    would degenerate."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.selection import quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(b["value"], 100.0), 0.5)),
            pa.int64(),
        )
        return pa.table(
            {"event_type": b["event_type"].combine_chunks(),
             "cents": cents}
        )

    cents = ev.map_batches(to_cents, batch_format="pyarrow")
    out = quantiles(cents, "cents", {"p50_cents": 0.5}, by="event_type")
    return out[["event_type", "p50_cents", "n"]]


CORPUS_QUERIES["event_type_median_value"] = _q_event_type_median_value
CORPUS_ORACLE_SQL["event_type_median_value"] = """
SELECT event_type,
       CAST(quantile_disc(CAST(floor(value * 100 + 0.5) AS BIGINT), 0.5)
            AS BIGINT) AS p50_cents,
       count(*) AS n
FROM events
GROUP BY event_type
ORDER BY event_type
"""


def _q_event_type_value_mad(sf_dir: str):
    """Median absolute deviation per event type — the robust-spread
    statistic, composed from TWO grouped ``stages.selection.quantiles``
    calls: p50 of cents, then (tiny per-group medians broadcast) p50 of
    |cents - p50|. Both use DuckDB's quantile_disc rank convention, so
    the composition is integer-exact end-to-end."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from ..stages.selection import quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(b["value"], 100.0), 0.5)),
            pa.int64(),
        )
        return pa.table(
            {"event_type": b["event_type"].combine_chunks(),
             "cents": cents}
        )

    cents = ev.map_batches(
        to_cents, batch_format="pyarrow"
    ).materialize()  # scanned by both quantile calls
    med = quantiles(cents, "cents", {"median_cents": 0.5}, by="event_type")
    med_ref = ray.put(dict(zip(med["event_type"], med["median_cents"])))

    def abs_dev(b: pa.Table) -> pa.Table:
        import numpy as np

        med = ray.get(med_ref)
        types = b["event_type"].to_numpy(zero_copy_only=False)
        c = b["cents"].to_numpy(zero_copy_only=False)
        m = np.array([med[t] for t in types], dtype=np.int64)
        return pa.table(
            {
                "event_type": b["event_type"].combine_chunks(),
                "dev": pa.array(np.abs(c - m), pa.int64()),
            }
        )

    devs = cents.map_batches(abs_dev, batch_format="pyarrow")
    mad = quantiles(devs, "dev", {"mad_cents": 0.5}, by="event_type")
    return med[["event_type", "n", "median_cents"]].assign(
        mad_cents=mad["mad_cents"]
    )


CORPUS_QUERIES["event_type_value_mad"] = _q_event_type_value_mad
CORPUS_ORACLE_SQL["event_type_value_mad"] = """
WITH c AS (
    SELECT event_type,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
    FROM events
), m AS (
    SELECT event_type, quantile_disc(cents, 0.5) AS med,
           count(*) AS n
    FROM c GROUP BY event_type
), d AS (
    SELECT c.event_type, abs(c.cents - m.med) AS dev
    FROM c JOIN m USING (event_type)
), md AS (
    SELECT event_type, quantile_disc(dev, 0.5) AS mad
    FROM d GROUP BY event_type
)
SELECT m.event_type, CAST(m.n AS BIGINT) AS n,
       CAST(m.med AS BIGINT) AS median_cents,
       CAST(md.mad AS BIGINT) AS mad_cents
FROM m JOIN md USING (event_type)
ORDER BY m.event_type
"""


# ------------------------------------------------- set operations

def _q_source_set_ops(sf_dir: str):
    """EXCEPT / INTERSECT witness over distinct keys: sources that
    publish English docs vs sources that publish Chinese docs —
    per-side per-batch distinct combine first (the raw stream never
    shuffles), then ONE partitioned anti/semi join each over the tiny
    distinct key sets. Returns each source tagged 'en_only' or
    'both' (sources with zh coverage in this corpus are never
    en-absent — the synthesizer assigns every source all languages at
    scale, so 'zh_only' would be empty; the oracle proves it)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import partitioned_hash_join

    def side(lang):
        return aggregate(
            read_documents(sf_dir, ["source", "lang"]),
            "source",
            [],
            rows=lambda b: b.filter(pc.equal(b["lang"], lang)),
        )

    # ONE left join with a match indicator gives EXCEPT and
    # INTERSECT together (the textbook set-op plan): unmatched left
    # keys are the EXCEPT rows, matched ones the INTERSECT rows.
    def mark(b: pa.Table) -> pa.Table:
        return b.append_column(
            "zh_flag", pa.array([1] * b.num_rows, pa.int64())
        )

    # materialize the tiny distinct sides: the join consults each
    # side's schema() and then consumes it — without this, each
    # consultation re-executes the distinct plan from the read
    en = side("en").materialize()
    zh = (
        side("zh")
        .map_batches(mark, batch_format="pyarrow")
        .materialize()
    )
    joined = partitioned_hash_join(en, zh, "source", how="left")
    rows = [
        {
            "source": r["source"],
            "tag": "both" if r["zh_flag"] is not None else "en_only",
        }
        for r in joined.take_all()
    ]
    out = pd.DataFrame(rows, columns=["source", "tag"])
    return out.sort_values(["source", "tag"]).reset_index(drop=True)


CORPUS_QUERIES["source_set_ops"] = _q_source_set_ops
CORPUS_ORACLE_SQL["source_set_ops"] = """
WITH en AS (SELECT DISTINCT source FROM documents WHERE lang = 'en'),
     zh AS (SELECT DISTINCT source FROM documents WHERE lang = 'zh')
SELECT source, 'en_only' AS tag FROM (SELECT * FROM en EXCEPT SELECT * FROM zh)
UNION ALL
SELECT source, 'both' AS tag FROM (SELECT * FROM en INTERSECT SELECT * FROM zh)
ORDER BY source, tag
"""


def _q_supplier_communities(sf_dir: str):
    """Community detection on the sparsified co-supply graph
    (``stages.graph.label_propagation``): three SYNCHRONOUS label
    propagation rounds — every node starts as its own label, each
    round simultaneously adopts its neighbors' plurality label (tie
    -> smallest), early-stopping at a fixpoint. The fixed round count
    + deterministic tie-break make the oracle a 3x unrolled
    histogram + row_number CTE chain. Scale plan: one
    ``iterate.supersteps`` round (ONE exchange) per propagation
    round; the changed-label count rides the round's stats rows."""
    import pyarrow as pa
    import ray.data

    from ..stages.graph import cooccurrence_edges, label_propagation

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 50 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    out = label_propagation(
        edges, rounds=3, assume_canonical=True
    ).to_pandas()
    if len(out) == 0:
        return out
    return out.sort_values("node").reset_index(drop=True)


CORPUS_QUERIES["supplier_communities"] = _q_supplier_communities
CORPUS_ORACLE_SQL["supplier_communities"] = """
WITH li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 50 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e0 AS (
    SELECT u, v FROM co WHERE n >= 2
), inc AS (
    SELECT u AS node, v AS nbr FROM e0
    UNION ALL SELECT v AS node, u AS nbr FROM e0
), l0 AS (
    SELECT DISTINCT node, node AS lbl FROM inc
), h1 AS (
    SELECT i.node, l.lbl, count(*) AS c
    FROM inc i JOIN l0 l ON l.node = i.nbr GROUP BY 1, 2
), r1 AS (
    SELECT node, lbl FROM (
        SELECT node, lbl, row_number() OVER (
            PARTITION BY node ORDER BY c DESC, lbl ASC) AS rn
        FROM h1) WHERE rn = 1
), h2 AS (
    SELECT i.node, l.lbl, count(*) AS c
    FROM inc i JOIN r1 l ON l.node = i.nbr GROUP BY 1, 2
), r2 AS (
    SELECT node, lbl FROM (
        SELECT node, lbl, row_number() OVER (
            PARTITION BY node ORDER BY c DESC, lbl ASC) AS rn
        FROM h2) WHERE rn = 1
), h3 AS (
    SELECT i.node, l.lbl, count(*) AS c
    FROM inc i JOIN r2 l ON l.node = i.nbr GROUP BY 1, 2
), r3 AS (
    SELECT node, lbl FROM (
        SELECT node, lbl, row_number() OVER (
            PARTITION BY node ORDER BY c DESC, lbl ASC) AS rn
        FROM h3) WHERE rn = 1
)
SELECT node, lbl AS label FROM r3 ORDER BY node
"""


def _q_doc_effective_vocab(sf_dir: str):
    """Top-20 documents by lexical diversity measured as the inverse
    Simpson index ("effective vocabulary size") T^2 / sum(n_tok^2) —
    the Renyi-2 diversity, chosen over Shannon entropy because its
    sufficient statistics (T, sum of squared token counts) are exact
    integers and the score is ONE float division, so the selection
    and the SQL oracle agree bit-for-bit (a log-sum entropy would
    accumulate engine-dependent rounding). Ties -> smallest doc_id.
    Physical plan: per-doc stats are a pure per-batch map (no
    exchange); the top-20 reduces via ``stages/topk.topk``, so the
    driver sees 20 rows per block, never the corpus."""
    import numpy as np
    import pyarrow as pa

    from ..stages.topk import topk

    def stats(batch: pa.Table) -> pa.Table:
        from collections import Counter

        import pyarrow as pa

        ids = batch["doc_id"].to_pylist()
        out = {"doc_id": [], "n_tokens": [], "n_distinct": [],
               "sum_sq": []}
        for did, text in zip(ids, batch["text"].to_pylist()):
            c = Counter(text.split())
            t = sum(c.values())
            if t == 0:
                continue
            out["doc_id"].append(did)
            out["n_tokens"].append(t)
            out["n_distinct"].append(len(c))
            out["sum_sq"].append(sum(v * v for v in c.values()))
        t = np.asarray(out["n_tokens"], np.float64)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
                "n_distinct": pa.array(out["n_distinct"], pa.int64()),
                "sum_sq": pa.array(out["sum_sq"], pa.int64()),
                "eff_vocab": pa.array(
                    t * t / np.asarray(out["sum_sq"], np.float64),
                    pa.float64(),
                ),
            }
        )

    return topk(
        read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            stats, batch_format="pyarrow"
        ),
        20, [("eff_vocab", "descending"), ("doc_id", "ascending")],
    ).to_pandas()


CORPUS_QUERIES["doc_effective_vocab"] = _q_doc_effective_vocab
CORPUS_ORACLE_SQL["doc_effective_vocab"] = """
WITH tc AS (
    SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT doc_id,
                 unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                                    t -> t <> '')) AS tok
          FROM documents)
    GROUP BY doc_id, tok
), st AS (
    SELECT doc_id,
           CAST(sum(n) AS BIGINT) AS n_tokens,
           CAST(count(*) AS BIGINT) AS n_distinct,
           CAST(sum(n * n) AS BIGINT) AS sum_sq
    FROM tc GROUP BY doc_id
)
SELECT doc_id, n_tokens, n_distinct, sum_sq,
       CAST(n_tokens AS DOUBLE) * CAST(n_tokens AS DOUBLE)
           / CAST(sum_sq AS DOUBLE) AS eff_vocab
FROM st
ORDER BY eff_vocab DESC, doc_id ASC
LIMIT 20
"""


def _q_token_source_affinity(sf_dir: str):
    """Corpus-linguistics keyness: the 20 tokens most over-represented
    in source 'src0' relative to the rest of the corpus, scored by the
    EXACT integer cross-product keyness = n_focus * T_rest -
    n_rest * T_focus (the sign/magnitude core of log-odds and
    chi-square keyword extraction, kept integer so ranking and oracle
    agree bit-for-bit; ties -> token asc). Physical plan: one
    vocab-bounded (token, n_focus, n_rest) grouped sum
    (``stages/aggregate.py``) -> two-scalar totals aggregate ->
    ``stages/topk.topk``
    over the per-batch keyness, so the driver sees 20 rows per
    block."""
    import numpy as np
    import pyarrow as pa

    from ..stages.topk import topk

    FOCUS = "src0"

    def rows(batch: pa.Table) -> pa.Table:
        toks, focus = [], []
        for src, text in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            words = text.split()
            toks.extend(words)
            focus.extend([int(src == FOCUS)] * len(words))
        f = np.asarray(focus, np.int64)
        return pa.Table.from_pydict(
            {
                "token": pa.array(toks, pa.string()),
                "focus": pa.array(f),
                "rest": pa.array(1 - f),
            }
        )

    counts = aggregate(
        read_documents(sf_dir, ["source", "text"]),
        "token",
        [("n_focus", "sum", "focus"), ("n_rest", "sum", "rest")],
        rows=rows,
    ).materialize()  # reused: totals + scoring
    tot = aggregate(
        counts, [], [("tf", "sum", "n_focus"), ("tr", "sum", "n_rest")]
    )
    t_focus, t_rest = int(tot["tf"]), int(tot["tr"])

    def keyness(batch: pa.Table) -> pa.Table:
        nf = batch["n_focus"].to_numpy(zero_copy_only=False)
        nr = batch["n_rest"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "keyness",
            pa.array(
                nf.astype(np.int64) * t_rest - nr.astype(np.int64) * t_focus
            ),
        )

    return topk(
        counts.map_batches(keyness, batch_format="pyarrow"), 20,
        [("keyness", "descending"), ("token", "ascending")],
    ).to_pandas()[["token", "n_focus", "n_rest", "keyness"]]


CORPUS_QUERIES["token_source_affinity"] = _q_token_source_affinity
CORPUS_ORACLE_SQL["token_source_affinity"] = """
WITH tok AS (
    SELECT source,
           unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                              t -> t <> '')) AS tok
    FROM documents
), agg AS (
    SELECT tok AS token,
           CAST(sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END)
                AS BIGINT) AS n_focus,
           CAST(sum(CASE WHEN source <> 'src0' THEN 1 ELSE 0 END)
                AS BIGINT) AS n_rest
    FROM tok GROUP BY tok
), tot AS (
    SELECT CAST(sum(n_focus) AS BIGINT) AS tf,
           CAST(sum(n_rest) AS BIGINT) AS tr
    FROM agg
)
SELECT token, n_focus, n_rest,
       CAST(n_focus * tot.tr - n_rest * tot.tf AS BIGINT) AS keyness
FROM agg, tot
ORDER BY keyness DESC, token ASC
LIMIT 20
"""


def _walk_seeds():
    import numpy as np

    rng = np.random.default_rng(20260819)
    return rng.integers(
        0, np.iinfo(np.uint64).max, size=3, dtype=np.uint64
    ).tolist()


def _q_supplier_walks(sf_dir: str):
    """Deterministic 3-step pseudo-random walks from every node of
    the sparsified co-supply graph (``stages.graph.random_walks``) —
    the node2vec/DeepWalk corpus-generation primitive made exactly
    replayable: step t moves to the (splitmix64(md5hash(start) XOR
    seed_t) mod degree)-th smallest neighbor, so the oracle unrolls
    the three steps as ranked-adjacency join CTEs. Scale plan: one
    ``iterate.supersteps`` round per step; the walkers are the
    messages, their history riding as payload columns."""
    import pyarrow as pa
    import ray.data

    from ..stages.graph import cooccurrence_edges, random_walks

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 50 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    out = random_walks(
        edges, n_steps=3, assume_canonical=True
    ).to_pandas()
    return out.sort_values("start").reset_index(drop=True)


CORPUS_QUERIES["supplier_walks"] = _q_supplier_walks


def _walks_oracle_sql() -> str:
    from .queries_training import _splitmix64_sql

    s0, s1, s2 = _walk_seeds()

    def rn_expr(seed):
        mix = _splitmix64_sql(f"xor(hh, {seed}::UBIGINT)")
        return (
            f"CAST({mix} % CAST(d.d AS UBIGINT) AS BIGINT) + 1"
        )

    return f"""
WITH li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 50 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e0 AS (
    SELECT u, v FROM co WHERE n >= 2
), inc AS (
    SELECT u AS node, v AS nbr FROM e0
    UNION ALL SELECT v AS node, u AS nbr FROM e0
), deg AS (
    SELECT node, CAST(count(*) AS BIGINT) AS d FROM inc GROUP BY node
), nbr AS (
    SELECT node, nbr, row_number() OVER (
        PARTITION BY node ORDER BY nbr) AS rn
    FROM inc
), w0 AS (
    SELECT node AS start,
           md5_number_upper(CAST(node AS VARCHAR)) AS hh,
           node AS cur
    FROM deg
), w1 AS (
    SELECT w0.start, w0.hh, n.nbr AS cur
    FROM w0 JOIN deg d ON d.node = w0.cur
    JOIN nbr n ON n.node = w0.cur AND n.rn = {rn_expr(s0)}
), w2 AS (
    SELECT w1.start, w1.hh, w1.cur AS s1, n.nbr AS cur
    FROM w1 JOIN deg d ON d.node = w1.cur
    JOIN nbr n ON n.node = w1.cur AND n.rn = {rn_expr(s1)}
), w3 AS (
    SELECT w2.start, w2.s1, w2.cur AS s2, n.nbr AS s3
    FROM w2 JOIN deg d ON d.node = w2.cur
    JOIN nbr n ON n.node = w2.cur AND n.rn = {rn_expr(s2)}
)
SELECT start, s1, s2, s3 FROM w3 ORDER BY start
"""


CORPUS_ORACLE_SQL["supplier_walks"] = _walks_oracle_sql()


def _q_documents_profile(sf_dir: str):
    """Column profiler over the documents table (the ANALYZE /
    data-quality sweep every ingest needs): per column the row count,
    null count, EXACT distinct count, and min/max — value for int64
    columns, character length for string columns. Physical plan: one
    stats scan (per-batch per-column partials -> tiny groupby) plus
    one distinct exchange that moves 8-byte md5-derived hashes
    (strings never shuffle their payloads; int columns exchange the
    value itself), pre-deduped per batch."""
    import pandas as pd
    import pyarrow as pa

    INT_COLS = ["doc_id", "n_chars"]
    STR_COLS = ["lang", "source", "text"]
    COLS = INT_COLS + STR_COLS

    ds = read_documents(sf_dir, COLS).materialize()

    def stats_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parts = []
        for c in COLS:
            col = batch[c]
            v = col if c in INT_COLS else pc.utf8_length(col)
            t = pa.table(
                {
                    "col_name": pa.array([c] * len(col), pa.string()),
                    "v": pc.cast(v, pa.int64()),
                    "is_null": pc.cast(pc.is_null(col), pa.int64()),
                }
            )
            # a column without a value sits this batch out
            parts.append(t if col.null_count < len(col) else t.slice(0, 0))
        return pa.concat_tables(parts)

    stats = aggregate(
        ds,
        "col_name",
        [
            ("n", "count", None),
            ("n_null", "sum", "is_null"),
            ("min_v", "min", "v"),
            ("max_v", "max", "v"),
        ],
        rows=stats_rows,
    ).to_pandas()

    def hash_rows(batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions.shingles import stable_hash64

        cols, hs = [], []
        for c in COLS:
            if c in INT_COLS:
                u = batch[c].drop_null().to_numpy(zero_copy_only=False)
            else:
                u = np.array(
                    [
                        stable_hash64(s)
                        for s in batch[c].drop_null().to_pylist()
                    ],
                    dtype=np.uint64,
                ).view(np.int64)
            cols += [c] * u.size
            hs.append(u.astype(np.int64))
        return pa.Table.from_pydict(
            {
                "col_name": pa.array(cols, pa.string()),
                "h": pa.array(np.concatenate(hs), pa.int64()),
            }
        )

    distinct = aggregate(
        aggregate(ds, ["col_name", "h"], [], rows=hash_rows),
        "col_name",
        [("n_distinct", "count", None)],
    ).to_pandas()
    out = stats.merge(distinct, on="col_name")
    out = out[["col_name", "n", "n_null", "n_distinct", "min_v",
               "max_v"]]
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out.sort_values("col_name").reset_index(drop=True)


CORPUS_QUERIES["documents_profile"] = _q_documents_profile
CORPUS_ORACLE_SQL["documents_profile"] = """
SELECT 'doc_id' AS col_name, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) - count(doc_id) AS BIGINT) AS n_null,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_distinct,
       CAST(min(doc_id) AS BIGINT) AS min_v,
       CAST(max(doc_id) AS BIGINT) AS max_v
FROM documents
UNION ALL
SELECT 'n_chars', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(n_chars) AS BIGINT),
       CAST(count(DISTINCT n_chars) AS BIGINT),
       CAST(min(n_chars) AS BIGINT), CAST(max(n_chars) AS BIGINT)
FROM documents
UNION ALL
SELECT 'lang', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(lang) AS BIGINT),
       CAST(count(DISTINCT lang) AS BIGINT),
       CAST(min(length(lang)) AS BIGINT),
       CAST(max(length(lang)) AS BIGINT)
FROM documents
UNION ALL
SELECT 'source', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(source) AS BIGINT),
       CAST(count(DISTINCT source) AS BIGINT),
       CAST(min(length(source)) AS BIGINT),
       CAST(max(length(source)) AS BIGINT)
FROM documents
UNION ALL
SELECT 'text', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(text) AS BIGINT),
       CAST(count(DISTINCT text) AS BIGINT),
       CAST(min(length(text)) AS BIGINT),
       CAST(max(length(text)) AS BIGINT)
FROM documents
ORDER BY col_name
"""


def _q_lang_source_chi2(sf_dir: str):
    """Chi-square independence test of lang x source: the contingency
    counts are exact integers from one tiny (lang, source) groupby of
    per-batch partials; each cell's statistic uses the integer-exact
    form (o*N - r*c)^2 / (N*r*c) so only the per-cell division and
    the final sum are float. Cells are summed in (lang, source) order
    on the driver; the SQL oracle's sum order differs at ~1e-15
    relative — far below the 6-decimal compare, the same tolerance
    contract as pagerank. Output: one row (n, dof, chi2)."""
    import pandas as pd

    cells = aggregate(
        read_documents(sf_dir, ["lang", "source"]),
        ["lang", "source"],
        [("n", "count", "source")],
    ).to_pandas()
    cells["n"] = cells["n"].astype("int64")
    rows = cells.groupby("lang")["n"].sum()
    colsums = cells.groupby("source")["n"].sum()
    n_total = int(cells["n"].sum())
    chi2 = 0.0
    for r in cells.sort_values(["lang", "source"]).itertuples():
        o, rr, cc = int(r.n), int(rows[r.lang]), int(colsums[r.source])
        num = (o * n_total - rr * cc) ** 2  # exact python int
        chi2 += float(num) / (float(n_total) * float(rr) * float(cc))
    # zero-count cells of the full grid contribute e/n = r*c/N each
    for lg, rv in rows.items():
        for sc, cv in colsums.items():
            if not ((cells["lang"] == lg) & (cells["source"] == sc)).any():
                chi2 += float(int(rv) * int(cv)) / float(n_total)
    dof = (len(rows) - 1) * (len(colsums) - 1)
    return pd.DataFrame(
        {"n": [n_total], "dof": [dof], "chi2": [chi2]}
    )


CORPUS_QUERIES["lang_source_chi2"] = _q_lang_source_chi2
CORPUS_ORACLE_SQL["lang_source_chi2"] = """
WITH cells AS (
    SELECT lang, source, CAST(count(*) AS BIGINT) AS n
    FROM documents GROUP BY lang, source
), r AS (
    SELECT lang, CAST(sum(n) AS BIGINT) AS rn FROM cells GROUP BY lang
), c AS (
    SELECT source, CAST(sum(n) AS BIGINT) AS cn
    FROM cells GROUP BY source
), t AS (
    SELECT CAST(sum(n) AS BIGINT) AS nt FROM cells
), grid AS (
    SELECT r.lang, c.source, r.rn, c.cn, t.nt,
           coalesce(cells.n, 0) AS o
    FROM r CROSS JOIN c CROSS JOIN t
    LEFT JOIN cells ON cells.lang = r.lang AND cells.source = c.source
)
SELECT max(nt) AS n,
       CAST((count(DISTINCT lang) - 1)
            * (count(DISTINCT source) - 1) AS BIGINT) AS dof,
       sum(CAST((CAST(o AS HUGEINT) * nt - CAST(rn AS HUGEINT) * cn)
                * (CAST(o AS HUGEINT) * nt - CAST(rn AS HUGEINT) * cn)
                AS DOUBLE)
           / (CAST(nt AS DOUBLE) * CAST(rn AS DOUBLE)
              * CAST(cn AS DOUBLE))) AS chi2
FROM grid
"""


def _q_supplier_edge_jaccard(sf_dir: str):
    """Tie strength (embeddedness) of every co-supply edge
    (``stages.graph.edge_triangle_support``): per edge the exact
    triangle support t = |N(u) ∩ N(v)|, both degrees, and the
    neighbor-set Jaccard t / (du + dv - 2 - t) as one float division
    of exact integers. The adjacency-filter twin of the
    common-neighbor link predictor — same wedge-pair exchange, LEFT
    join keeps zero-support edges."""
    import pyarrow as pa
    import ray.data

    from ..stages.graph import cooccurrence_edges, edge_triangle_support

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 50 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    out = edge_triangle_support(
        edges, assume_canonical=True
    ).to_pandas()
    return out.sort_values(["u", "v"]).reset_index(drop=True)


CORPUS_QUERIES["supplier_edge_jaccard"] = _q_supplier_edge_jaccard
CORPUS_ORACLE_SQL["supplier_edge_jaccard"] = """
WITH li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 50 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e0 AS (
    SELECT u, v FROM co WHERE n >= 2
), inc AS (
    SELECT u AS node, v AS nbr FROM e0
    UNION ALL SELECT v AS node, u AS nbr FROM e0
), deg AS (
    SELECT node, CAST(count(*) AS BIGINT) AS d FROM inc GROUP BY node
), cn AS (
    SELECT a.node AS u, b.node AS v, CAST(count(*) AS BIGINT) AS t
    FROM inc a JOIN inc b
      ON a.nbr = b.nbr AND a.node < b.node
    GROUP BY 1, 2
)
SELECT e0.u, e0.v, coalesce(cn.t, 0) AS t,
       da.d AS du, db.d AS dv,
       CASE WHEN da.d + db.d - 2 - coalesce(cn.t, 0) > 0
            THEN CAST(coalesce(cn.t, 0) AS DOUBLE)
                 / (da.d + db.d - 2 - coalesce(cn.t, 0))
            ELSE 0.0 END AS jaccard
FROM e0
LEFT JOIN cn ON cn.u = e0.u AND cn.v = e0.v
JOIN deg da ON da.node = e0.u
JOIN deg db ON db.node = e0.v
ORDER BY e0.u, e0.v
"""


def _q_supplier_ktruss(sf_dir: str):
    """Two rounds of 3-truss peeling on the sparsified co-supply graph
    (``stages.graph.ktruss_peel``): drop every edge with triangle
    support < 1 and recompute on the survivors — the edge-grain
    cohesion twin of supplier_kcore, with the same fixed-round +
    no-op-early-stop contract that lets the oracle unroll each round
    as one common-neighbor CTE + filter. Surviving edges carry their
    final-round support."""
    import pyarrow as pa
    import ray.data

    from ..stages.graph import cooccurrence_edges, ktruss_peel

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 50 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    )
    out = ktruss_peel(
        edges, k=3, rounds=2, assume_canonical=True
    ).to_pandas()
    if len(out) == 0:
        return out
    return out.sort_values(["u", "v"]).reset_index(drop=True)


CORPUS_QUERIES["supplier_ktruss"] = _q_supplier_ktruss
CORPUS_ORACLE_SQL["supplier_ktruss"] = """
WITH li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 50 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e0 AS (
    SELECT u, v FROM co WHERE n >= 2
), inc1 AS (
    SELECT u AS node, v AS nbr FROM e0
    UNION ALL SELECT v AS node, u AS nbr FROM e0
), cn1 AS (
    SELECT a.node AS u, b.node AS v, CAST(count(*) AS BIGINT) AS t
    FROM inc1 a JOIN inc1 b
      ON a.nbr = b.nbr AND a.node < b.node
    GROUP BY 1, 2
), e1 AS (
    SELECT e0.u, e0.v FROM e0
    JOIN cn1 ON cn1.u = e0.u AND cn1.v = e0.v
    WHERE cn1.t >= 1
), inc2 AS (
    SELECT u AS node, v AS nbr FROM e1
    UNION ALL SELECT v AS node, u AS nbr FROM e1
), cn2 AS (
    SELECT a.node AS u, b.node AS v, CAST(count(*) AS BIGINT) AS t
    FROM inc2 a JOIN inc2 b
      ON a.nbr = b.nbr AND a.node < b.node
    GROUP BY 1, 2
)
SELECT e1.u, e1.v, cn2.t FROM e1
JOIN cn2 ON cn2.u = e1.u AND cn2.v = e1.v
WHERE cn2.t >= 1
ORDER BY e1.u, e1.v
"""


def _q_supplier_diameter(sf_dir: str):
    """Two-sweep eccentricity (the classic diameter lower-bound
    heuristic): BFS from the minimum-id node, hop to the farthest
    reached node (ties -> smallest id), BFS again from there and
    report its eccentricity — two ``stages.graph.bfs_hops`` runs
    (hop-truncated at 8, which keeps the recursive-CTE oracle finite
    and both engines identically truncated). The farthest-node argmax
    stays distributed (one Max aggregate + one filtered Min — the
    hops table never lands on the driver)."""
    import pyarrow as pa
    import ray.data

    from ..stages.graph import bfs_hops, cooccurrence_edges

    H = 8

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 50 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    ).materialize()

    seed = int(aggregate(edges, [], [("m", "min", "u")])["m"])
    sweep1 = bfs_hops(
        edges, [seed], max_hops=H, assume_canonical=True
    ).materialize()
    mh1 = int(aggregate(sweep1, [], [("m", "max", "hops")])["m"])
    far = int(
        aggregate(
            sweep1.filter(expr=f"hops == {mh1}"), [], [("m", "min", "node")]
        )["m"]
    )
    sweep2 = bfs_hops(
        edges, [far], max_hops=H, assume_canonical=True
    )
    ecc = int(aggregate(sweep2, [], [("m", "max", "hops")])["m"])
    import pandas as pd

    return pd.DataFrame(
        {"seed": [seed], "far_node": [far], "eccentricity": [ecc]}
    )


CORPUS_QUERIES["supplier_diameter"] = _q_supplier_diameter
CORPUS_ORACLE_SQL["supplier_diameter"] = """
WITH RECURSIVE li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 50 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e AS (
    SELECT u, v FROM co WHERE n >= 2
), bi AS (
    SELECT u AS src, v AS dst FROM e UNION ALL SELECT v, u FROM e
), w1(node, hop) AS (
    SELECT (SELECT min(u) FROM e), 0
    UNION
    SELECT bi.dst, w1.hop + 1
    FROM w1 JOIN bi ON bi.src = w1.node
    WHERE w1.hop < 8
), h1 AS (
    SELECT node, min(hop) AS hops FROM w1 GROUP BY node
), far AS (
    SELECT node FROM h1
    ORDER BY hops DESC, node ASC LIMIT 1
), w2(node, hop) AS (
    SELECT (SELECT node FROM far), 0
    UNION
    SELECT bi.dst, w2.hop + 1
    FROM w2 JOIN bi ON bi.src = w2.node
    WHERE w2.hop < 8
), h2 AS (
    SELECT node, min(hop) AS hops FROM w2 GROUP BY node
)
SELECT (SELECT min(u) FROM e) AS seed,
       (SELECT node FROM far) AS far_node,
       (SELECT CAST(max(hops) AS BIGINT) FROM h2) AS eccentricity
"""


def _q_embedding_quantize(sf_dir: str):
    """Symmetric int8 scalar quantization of the embedding table (the
    standard ANN-index compression step): per-dimension scale =
    max |v| over the corpus (one Max exchange over per-batch
    partials), code = floor(v * 127 / scale + 0.5) — floor-based
    rounding chosen over banker's so BOTH engines produce identical
    codes from the same float32->double values — and per-dimension
    EXACT integer code statistics (sum, min, max) plus the float
    scale. Two projected scans, 64-row output; vectors never leave
    their batch."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    ).materialize()

    def absmax_rows(b: pa.Table) -> pa.Table:
        import numpy as np

        from ..stages.similarity import _matrix_of

        m = _matrix_of(b)  # zero-copy Arrow child-buffer reshape
        am = np.abs(m).max(axis=0)
        return pa.Table.from_pydict(
            {
                "dim": pa.array(np.arange(am.size), pa.int64()),
                "am": pa.array(am, pa.float64()),
            }
        )

    scales = (
        aggregate(ds, "dim", [("scale", "max", "am")], rows=absmax_rows)
        .to_pandas()
        .sort_values("dim")
    )
    import ray

    scale_ref = ray.put(scales["scale"].to_numpy())

    def code_rows(b: pa.Table) -> pa.Table:
        import numpy as np
        import ray

        from ..stages.similarity import _matrix_of

        s = ray.get(scale_ref)
        m = _matrix_of(b)
        codes = np.floor(m * 127.0 / s + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "dim": pa.array(np.arange(s.size), pa.int64()),
                "sum_codes": pa.array(codes.sum(axis=0), pa.int64()),
                "min_code": pa.array(codes.min(axis=0), pa.int64()),
                "max_code": pa.array(codes.max(axis=0), pa.int64()),
            }
        )

    stats = aggregate(
        ds,
        "dim",
        [
            ("sum_codes", "sum", "sum_codes"),
            ("min_code", "min", "min_code"),
            ("max_code", "max", "max_code"),
        ],
        rows=code_rows,
    ).to_pandas()
    out = scales.merge(stats, on="dim")
    for c in ("dim", "sum_codes", "min_code", "max_code"):
        out[c] = out[c].astype("int64")
    return out.sort_values("dim").reset_index(drop=True)[
        ["dim", "scale", "sum_codes", "min_code", "max_code"]
    ]


CORPUS_QUERIES["embedding_quantize"] = _q_embedding_quantize
CORPUS_ORACLE_SQL["embedding_quantize"] = """
WITH dims AS (
    SELECT range AS i FROM range(1, 65)
), vals AS (
    SELECT d.i - 1 AS dim,
           CAST(list_extract(e.embedding, d.i) AS DOUBLE) AS v
    FROM read_parquet_embeddings e CROSS JOIN dims d
), sc AS (
    SELECT dim, max(abs(v)) AS scale FROM vals GROUP BY dim
), codes AS (
    SELECT vals.dim,
           CAST(floor(vals.v * 127.0 / sc.scale + 0.5) AS BIGINT)
               AS code
    FROM vals JOIN sc ON sc.dim = vals.dim
)
SELECT codes.dim, sc.scale,
       CAST(sum(code) AS BIGINT) AS sum_codes,
       CAST(min(code) AS BIGINT) AS min_code,
       CAST(max(code) AS BIGINT) AS max_code
FROM codes JOIN sc ON sc.dim = codes.dim
GROUP BY codes.dim, sc.scale
ORDER BY codes.dim
"""
CORPUS_ORACLE_SQL["embedding_quantize"] = CORPUS_ORACLE_SQL[
    "embedding_quantize"
].replace("read_parquet_embeddings", "embeddings")


def _q_embedding_pca_top(sf_dir: str):
    """Top principal component of the embedding table by THREE fixed
    power iterations (the pagerank contract: fixed rounds +
    deterministic start + mirrored float op order make an iterative
    float algorithm SQL-replayable): sufficient stats are ONE pass —
    the 64x64 Gram matrix G = X^T X and the mean vector mu from
    per-batch partials — then the driver iterates
    w = G v / n - mu (mu . v); v <- w / ||w|| from v0 = 1/8, and
    reports the final loadings and ||w|| (the eigenvalue estimate).
    The corpus never moves: the exchange is 64x64 doubles per batch."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )

    D = 64

    iu, ju = np.triu_indices(D)

    def gram_partial(b: pa.Table) -> pa.Table:
        import numpy as np

        from ..stages.similarity import _matrix_of

        m = _matrix_of(b)
        g = m.T @ m
        s = m.sum(axis=0)
        # ONE packed row per block: [n, mean sums, upper-tri gram] —
        # a 2,081-column Sum aggregate costs ~35 s in scheduler
        # overhead alone (measured); the packed-vector driver fold is
        # the selection-histogram idiom and reduces in milliseconds
        payload = np.concatenate(
            [[float(m.shape[0])], s, g[iu, ju]]
        )
        return pa.Table.from_pydict(
            {"h": pa.array([payload], pa.list_(pa.float64()))}
        )

    total = None
    for t in ds.map_batches(
        gram_partial, batch_format="pyarrow", batch_size=None
    ).iter_batches(batch_format="pyarrow"):
        for row in t["h"].to_pylist():
            v = np.asarray(row, dtype=np.float64)
            total = v if total is None else total + v
    n = int(total[0])
    mu = total[1: 1 + D] / n
    G = np.zeros((D, D))
    G[iu, ju] = total[1 + D:]
    G[ju, iu] = total[1 + D:]

    v = np.full(D, 0.125)
    lam = 0.0
    for _ in range(3):
        w = G @ v / n - mu * float(mu @ v)
        lam = float(np.sqrt(w @ w))
        v = w / lam
    return pd.DataFrame(
        {
            "dim": np.arange(D, dtype=np.int64),
            "loading": v,
            "eigenvalue": np.full(D, lam),
        }
    )


CORPUS_QUERIES["embedding_pca_top"] = _q_embedding_pca_top


def _pca_oracle_sql() -> str:
    # three unrolled power iterations over the 64x64 Gram CTE
    it = """
, w{K} AS (
    SELECT g.i AS dim,
           sum(g.g * v{P}.v) / t.n
           - m.mu * (SELECT sum(m2.mu * v{P}b.v)
                     FROM mu m2 JOIN v{P} v{P}b ON v{P}b.dim = m2.i)
               AS w
    FROM gram g
    JOIN v{P} ON v{P}.dim = g.j
    JOIN mu m ON m.i = g.i
    CROSS JOIN tot t
    GROUP BY g.i, m.mu, t.n
), n{K} AS (
    SELECT sqrt(sum(w * w)) AS nrm FROM w{K}
), v{K} AS (
    SELECT dim, w / n{K}.nrm AS v FROM w{K}, n{K}
)"""
    body = """
WITH dims AS (
    SELECT range AS i FROM range(1, 65)
), vals AS (
    SELECT e.vec_id AS rid, d.i - 1 AS dim,
           CAST(list_extract(e.embedding, d.i) AS DOUBLE) AS v
    FROM embeddings e CROSS JOIN dims d
), tot AS (
    SELECT CAST(count(DISTINCT rid) AS BIGINT) AS n FROM vals
), mu AS (
    SELECT dim AS i, sum(v) / t.n AS mu
    FROM vals CROSS JOIN tot t GROUP BY dim, t.n
), gram AS (
    SELECT a.dim AS i, b.dim AS j, sum(a.v * b.v) AS g
    FROM vals a JOIN vals b ON a.rid = b.rid
    GROUP BY a.dim, b.dim
), v0 AS (
    SELECT i - 1 AS dim, 0.125 AS v FROM range(1, 65) r(i)
)"""
    for k in (1, 2, 3):
        body += it.format(K=k, P=k - 1)
    body += """
SELECT v3.dim, v3.v AS loading, n3.nrm AS eigenvalue
FROM v3, n3 ORDER BY v3.dim
"""
    return body


CORPUS_ORACLE_SQL["embedding_pca_top"] = _pca_oracle_sql()


def _q_doc_zorder_layout(sf_dir: str):
    """Space-filling-curve storage layout
    (``functions.hashing.morton2``): every document keyed by the
    Z-order interleave of (n_chars, doc_id) — the multi-column
    locality alternative to a hash layout (a 2-D range predicate
    prunes contiguous Morton ranges instead of scanning every
    bucket). Emits the 16-bucket assignment histogram (bucket = top 4
    Morton bits) plus per-bucket EXACT n_chars min/max — the range
    tightness a pruner would exploit; exact integers end to end. The
    oracle replays the interleave with a 32-term bit sum. Morton
    codes are int64 bit-views of the uint64 (the engine's standard
    unsigned-key convention). Raw values are first normalized to the
    16-bit grid v * 65536 // (max + 1) (exact integer arithmetic from
    one Max aggregate) so the bucket prefix is populated at ANY scale
    factor — raw ids never reach the top Morton bits (the
    sf-dependent-witness lesson)."""
    import numpy as np
    import pyarrow as pa

    from ..functions.hashing import morton2

    docs = read_documents(sf_dir, ["doc_id", "n_chars"]).materialize()
    mx = aggregate(
        docs, [], [("doc_id", "max", "doc_id"), ("n_chars", "max", "n_chars")]
    )
    max_did = int(mx["doc_id"])
    max_nc = int(mx["n_chars"])

    def rows(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        nc = batch["n_chars"].to_numpy(zero_copy_only=False)
        a = (nc.astype(np.uint64) * np.uint64(65536)
             // np.uint64(max_nc + 1))
        b = (did.astype(np.uint64) * np.uint64(65536)
             // np.uint64(max_did + 1))
        m = morton2(a, b)
        bucket = (m >> np.uint64(28)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "nc": pa.array(nc.astype(np.int64), pa.int64()),
            }
        )

    out = aggregate(
        docs,
        "bucket",
        [
            ("n", "count", None),
            ("nc_min", "min", "nc"),
            ("nc_max", "max", "nc"),
        ],
        rows=rows,
    ).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


CORPUS_QUERIES["doc_zorder_layout"] = _q_doc_zorder_layout


def _zorder_oracle_sql() -> str:
    # morton(a, b) over 16-bit max-normalized values:
    # bit i of a=norm(n_chars) -> 2i, of b=norm(doc_id) -> 2i+1
    terms_a = " + ".join(
        f"(((a >> {i}) & 1) << {2 * i})" for i in range(17)
    )
    terms_b = " + ".join(
        f"(((b >> {i}) & 1) << {2 * i + 1})" for i in range(17)
    )
    return f"""
WITH mxs AS (
    SELECT max(doc_id) AS max_did, max(n_chars) AS max_nc
    FROM documents
), nrm AS (
    SELECT doc_id, n_chars,
           n_chars * 65536 // (mxs.max_nc + 1) AS a,
           doc_id * 65536 // (mxs.max_did + 1) AS b
    FROM documents, mxs
), m AS (
    SELECT doc_id, n_chars,
           CAST({terms_a} AS UBIGINT) + CAST({terms_b} AS UBIGINT)
               AS morton
    FROM nrm
)
SELECT CAST(morton >> 28 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n,
       CAST(min(n_chars) AS BIGINT) AS nc_min,
       CAST(max(n_chars) AS BIGINT) AS nc_max
FROM m GROUP BY 1 ORDER BY 1
"""


CORPUS_ORACLE_SQL["doc_zorder_layout"] = _zorder_oracle_sql()


def _q_label_separation(sf_dir: str):
    """Cluster-separation matrix for the labeled embeddings: mean
    squared distance from every label-a vector to every label-b
    centroid, computed from ONE pass of per-label sufficient stats
    (n, per-dim sum, total squared norm) via
    E|v - mu_b|^2 = q_a/n_a - 2 mu_a.mu_b + |mu_b|^2 — the corpus
    never moves twice and no per-pair scan exists. Diagonal entries
    are the intra-cluster variances, off-diagonal the separation —
    the exact-sufficient-stats silhouette precursor (a discrete
    nearest-centroid count would risk float-boundary flips; smooth
    sums do not)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    D = 64

    def partial(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        from ..stages.similarity import _matrix_of

        lab = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _matrix_of(b)
        rows = {"label": [], "n": [], "q": []}
        scols = {f"s{i}": [] for i in range(D)}
        for lv in np.unique(lab):
            sel = m[lab == lv]
            rows["label"].append(int(lv))
            rows["n"].append(int(sel.shape[0]))
            rows["q"].append(float((sel * sel).sum()))
            s = sel.sum(axis=0)
            for i in range(D):
                scols[f"s{i}"].append(float(s[i]))
        cols = {
            "label": pa.array(rows["label"], pa.int64()),
            "n": pa.array(rows["n"], pa.int64()),
            "q": pa.array(rows["q"], pa.float64()),
        }
        for i in range(D):
            cols[f"s{i}"] = pa.array(scols[f"s{i}"], pa.float64())
        return pa.Table.from_pydict(cols)

    st = (
        aggregate(
            ds,
            "label",
            [(c, "sum", c) for c in ["n", "q"] + [f"s{i}" for i in range(D)]],
            rows=partial,
        )
        .to_pandas()
        .sort_values("label")
        .reset_index(drop=True)
    )
    labels = st["label"].astype("int64").tolist()
    n = st["n"].astype("int64").to_numpy()
    q = st["q"].to_numpy()
    s = st[[f"s{i}" for i in range(D)]].to_numpy()
    mu = s / n[:, None]
    rows = []
    for ia, la in enumerate(labels):
        for ib, lb in enumerate(labels):
            msd = (
                q[ia] / n[ia]
                - 2.0 * float(mu[ia] @ mu[ib])
                + float(mu[ib] @ mu[ib])
            )
            rows.append(
                {
                    "label_a": la,
                    "label_b": lb,
                    "n_a": int(n[ia]),
                    "msd": msd,
                }
            )
    return pd.DataFrame(
        rows, columns=["label_a", "label_b", "n_a", "msd"]
    )


CORPUS_QUERIES["label_separation"] = _q_label_separation
CORPUS_ORACLE_SQL["label_separation"] = """
WITH dims AS (
    SELECT range AS i FROM range(1, 65)
), vals AS (
    SELECT e.vec_id AS rid, e.label, d.i - 1 AS dim,
           CAST(list_extract(e.embedding, d.i) AS DOUBLE) AS v
    FROM embeddings e CROSS JOIN dims d
), st AS (
    SELECT label,
           CAST(count(DISTINCT rid) AS BIGINT) AS n,
           sum(v * v) AS q
    FROM vals GROUP BY label
), mu AS (
    SELECT vals.label, vals.dim,
           sum(vals.v) / st.n AS mu
    FROM vals JOIN st ON st.label = vals.label
    GROUP BY vals.label, vals.dim, st.n
), dots AS (
    SELECT a.label AS la, b.label AS lb,
           sum(a.mu * b.mu) AS dab
    FROM mu a JOIN mu b ON a.dim = b.dim
    GROUP BY a.label, b.label
)
SELECT sa.label AS label_a, sb.label AS label_b,
       sa.n AS n_a,
       sa.q / sa.n - 2.0 * dab.dab + dbb.dab AS msd
FROM st sa
JOIN st sb ON TRUE
JOIN dots dab ON dab.la = sa.label AND dab.lb = sb.label
JOIN dots dbb ON dbb.la = sb.label AND dbb.lb = sb.label
ORDER BY label_a, label_b
"""


def _q_label_pca_top(sf_dir: str):
    """GROUPED top principal component — one eigenvector per label
    (class-conditional structure): the embedding_pca_top machinery
    with the sufficient stats keyed by label. Each batch folds its
    per-label [n, mean sums, upper-tri gram] into one packed
    list<double> row per label present (the packed-vector idiom — a
    per-column aggregate at 10 labels x 2,081 stats would be
    hopeless); the driver reduces label-wise and runs the three
    mirrored power iterations per label. Oracle = the unrolled
    iteration CTEs joined on (label, dim)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    D = 64
    iu, ju = np.triu_indices(D)

    def gram_partial(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        from ..stages.similarity import _matrix_of

        lab = b["label"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        m = _matrix_of(b)
        labs, payloads = [], []
        for lv in np.unique(lab):
            sel = m[lab == lv]
            g = sel.T @ sel
            payloads.append(
                np.concatenate(
                    [[float(sel.shape[0])], sel.sum(axis=0),
                     g[iu, ju]]
                )
            )
            labs.append(int(lv))
        return pa.Table.from_pydict(
            {
                "label": pa.array(labs, pa.int64()),
                "h": pa.array(payloads, pa.list_(pa.float64())),
            }
        )

    totals = {}
    for t in ds.map_batches(
        gram_partial, batch_format="pyarrow", batch_size=None
    ).iter_batches(batch_format="pyarrow"):
        for lv, row in zip(t["label"].to_pylist(), t["h"].to_pylist()):
            v = np.asarray(row, dtype=np.float64)
            totals[lv] = v if lv not in totals else totals[lv] + v

    rows = []
    for lv in sorted(totals):
        tot = totals[lv]
        n = int(tot[0])
        mu = tot[1: 1 + D] / n
        G = np.zeros((D, D))
        G[iu, ju] = tot[1 + D:]
        G[ju, iu] = tot[1 + D:]
        v = np.full(D, 0.125)
        lam = 0.0
        for _ in range(3):
            w = G @ v / n - mu * float(mu @ v)
            lam = float(np.sqrt(w @ w))
            v = w / lam
        for d in range(D):
            rows.append(
                {
                    "label": lv,
                    "dim": d,
                    "loading": v[d],
                    "eigenvalue": lam,
                }
            )
    return pd.DataFrame(
        rows, columns=["label", "dim", "loading", "eigenvalue"]
    )


CORPUS_QUERIES["label_pca_top"] = _q_label_pca_top


def _label_pca_oracle_sql() -> str:
    it = """
, d{P} AS (
    SELECT m2.label, sum(m2.mu * vb.v) AS dot
    FROM mu m2 JOIN v{P} vb
      ON vb.label = m2.label AND vb.dim = m2.i
    GROUP BY m2.label
), w{K} AS (
    SELECT g.label, g.i AS dim,
           sum(g.g * v{P}.v) / t.n - m.mu * d{P}.dot AS w
    FROM gram g
    JOIN v{P} ON v{P}.label = g.label AND v{P}.dim = g.j
    JOIN mu m ON m.label = g.label AND m.i = g.i
    JOIN tot t ON t.label = g.label
    JOIN d{P} ON d{P}.label = g.label
    GROUP BY g.label, g.i, m.mu, t.n, d{P}.dot
), n{K} AS (
    SELECT label, sqrt(sum(w * w)) AS nrm FROM w{K} GROUP BY label
), v{K} AS (
    SELECT w{K}.label, dim, w / n{K}.nrm AS v
    FROM w{K} JOIN n{K} ON n{K}.label = w{K}.label
)"""
    body = """
WITH dims AS (
    SELECT range AS i FROM range(1, 65)
), vals AS (
    SELECT e.vec_id AS rid, e.label, d.i - 1 AS dim,
           CAST(list_extract(e.embedding, d.i) AS DOUBLE) AS v
    FROM embeddings e CROSS JOIN dims d
), tot AS (
    SELECT label, CAST(count(DISTINCT rid) AS BIGINT) AS n
    FROM vals GROUP BY label
), mu AS (
    SELECT vals.label, dim AS i, sum(v) / t.n AS mu
    FROM vals JOIN tot t ON t.label = vals.label
    GROUP BY vals.label, dim, t.n
), gram AS (
    SELECT a.label, a.dim AS i, b.dim AS j, sum(a.v * b.v) AS g
    FROM vals a JOIN vals b
      ON a.rid = b.rid AND a.label = b.label
    GROUP BY a.label, a.dim, b.dim
), v0 AS (
    SELECT t.label, d.i - 1 AS dim, 0.125 AS v
    FROM tot t CROSS JOIN dims d
)"""
    for k in (1, 2, 3):
        body += it.format(K=k, P=k - 1)
    body += """
SELECT v3.label, v3.dim, v3.v AS loading, n3.nrm AS eigenvalue
FROM v3 JOIN n3 ON n3.label = v3.label
ORDER BY v3.label, v3.dim
"""
    return body


CORPUS_ORACLE_SQL["label_pca_top"] = _label_pca_oracle_sql()


# ------------------------------------ crawl-frontier politeness plan

def _q_host_frontier(sf_dir: str):
    """Crawl-frontier politeness scheduling (the fetch-side twin of
    the extraction pipeline's ingest): every distinct url is assigned
    a per-HOST fetch slot — slot k of a host fetches no earlier than
    k * delay seconds, on worker slot % n_workers — so no host is hit
    faster than the politeness delay no matter how many workers the
    crawl runs (the reference's per-document fetch loop simply sleeps
    between retries, legacy.py:95-112; a cluster crawl needs the
    schedule up front).

    Physical plan: ONE coalesced ``aggregate.exchange`` on host, then
    lexsort + segment arithmetic per bucket (the
    sessionize idiom). Re-crawled urls collapse via in-bucket
    np.unique — globally correct because a url's host pins it to one
    bucket. Hosts are the inherent partition key of politeness;
    per-host state is just the host's url list."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..sources.pages import read_pages
    from ..stages.aggregate import exchange

    delay_sec = 10
    n_workers = 8

    def prep(b: pa.Table) -> pa.Table:
        url = b["url"].combine_chunks()
        host = pc.list_element(pc.split_pattern(url, "/"), 2)
        return pa.Table.from_pydict({"url": url, "host": host})

    def frontier_of_bucket(g: pa.Table) -> pa.Table:
        urls = np.asarray(g["url"].to_pylist())
        if urls.size == 0:
            return pa.Table.from_pydict(
                {
                    "url": pa.array([], pa.string()),
                    "host": pa.array([], pa.string()),
                    "slot": pa.array([], pa.int64()),
                    "worker": pa.array([], pa.int64()),
                    "eta_sec": pa.array([], pa.int64()),
                }
            )
        hosts = np.asarray(g["host"].to_pylist())
        uurls, idx = np.unique(urls, return_index=True)
        hosts = hosts[idx]
        order = np.lexsort((uurls, hosts))
        uurls, hosts = uurls[order], hosts[order]
        starts = np.flatnonzero(
            np.concatenate([[True], hosts[1:] != hosts[:-1]])
        )
        counts = np.diff(np.append(starts, uurls.size))
        slot = np.arange(uurls.size, dtype=np.int64) - np.repeat(
            starts, counts
        )
        return pa.Table.from_pydict(
            {
                "url": pa.array(uurls, pa.string()),
                "host": pa.array(hosts, pa.string()),
                "slot": pa.array(slot, pa.int64()),
                "worker": pa.array(slot % n_workers, pa.int64()),
                "eta_sec": pa.array(slot * delay_sec, pa.int64()),
            }
        )

    out = exchange(
        read_pages(sf_dir), "host", frontier_of_bucket, rows=prep
    ).to_pandas()
    return out.sort_values("url").reset_index(drop=True)


CORPUS_QUERIES["host_frontier"] = _q_host_frontier
CORPUS_ORACLE_SQL["host_frontier"] = """
WITH urls AS (
    SELECT DISTINCT
        'https://site' || lpad(CAST(doc_id % 50 AS VARCHAR), 2, '0')
            || '.example.org/articles/'
            || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url
    FROM documents
), f AS (
    SELECT url,
           split_part(url, '/', 3) AS host,
           CAST(row_number() OVER (
               PARTITION BY split_part(url, '/', 3) ORDER BY url
           ) - 1 AS BIGINT) AS slot
    FROM urls
)
SELECT url, host, slot,
       slot % 8 AS worker,
       slot * 10 AS eta_sec
FROM f
ORDER BY url
"""


def _q_doc_readability(sf_dir: str):
    """Per-language Flesch reading ease over exact integer sufficient
    stats: words = whitespace tokens, sentences = max(1, runs of
    [.!?]+), syllables = vowel-group runs [aeiouy]+ in the lowercased
    text (the standard cheap approximation) — summed per language,
    then the Flesch formula as the ONLY float arithmetic, transcribed
    with identical association in both engines (the FLOAT-MIRROR
    rule). One tiny per-batch partial per language; no exchange
    beyond the driver-side sum of ~n_langs x blocks rows."""
    import re

    import pandas as pd
    import pyarrow as pa

    vowel_re = re.compile(r"[aeiouy]+")
    sent_re = re.compile(r"[.!?]+")

    def partial(batch: pa.Table) -> pa.Table:
        acc = {}
        for lang, text in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            a = acc.setdefault(lang, [0, 0, 0, 0])
            t = text or ""
            a[0] += 1
            a[1] += len(t.split())
            a[2] += max(1, len(sent_re.findall(t)))
            a[3] += len(vowel_re.findall(t.lower()))
        langs = sorted(acc)
        return pa.Table.from_pydict(
            {
                "lang": pa.array(langs, pa.string()),
                "n_docs": pa.array([acc[x][0] for x in langs], pa.int64()),
                "n_words": pa.array(
                    [acc[x][1] for x in langs], pa.int64()
                ),
                "n_sentences": pa.array(
                    [acc[x][2] for x in langs], pa.int64()
                ),
                "n_syllables": pa.array(
                    [acc[x][3] for x in langs], pa.int64()
                ),
            }
        )

    parts = (
        read_documents(sf_dir, ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    out = parts.groupby("lang", as_index=False).sum()
    for c in ("n_docs", "n_words", "n_sentences", "n_syllables"):
        out[c] = out[c].astype("int64")
    out["flesch"] = (
        206.835
        - 1.015 * (out["n_words"] / out["n_sentences"])
        - 84.6 * (out["n_syllables"] / out["n_words"])
    )
    return out.sort_values("lang").reset_index(drop=True)


CORPUS_QUERIES["doc_readability"] = _q_doc_readability
CORPUS_ORACLE_SQL["doc_readability"] = """
WITH d AS (
    SELECT lang,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS w,
           greatest(1, len(regexp_extract_all(text, '[.!?]+'))) AS s,
           len(regexp_extract_all(lower(text), '[aeiouy]+')) AS y
    FROM documents
)
SELECT lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(w) AS BIGINT) AS n_words,
       CAST(sum(s) AS BIGINT) AS n_sentences,
       CAST(sum(y) AS BIGINT) AS n_syllables,
       206.835 - 1.015 * (CAST(sum(w) AS DOUBLE) / sum(s))
               - 84.6 * (CAST(sum(y) AS DOUBLE) / sum(w)) AS flesch
FROM d GROUP BY lang ORDER BY lang
"""


def _q_doc_kendall(sf_dir: str):
    """Exact Kendall tau-b between document length in chars and in
    tokens (stages.window.kendall_tau — distributed inversion
    counting via Knight's identity; every count is an exact int64 and
    only tau_b itself is float, so the O(n^2)-pair SQL oracle matches
    bit-for-bit without ever materializing pairs on the Ray side)."""
    import pandas as pd
    import pyarrow as pa

    from ..stages.window import kendall_tau

    def xy(batch: pa.Table) -> pa.Table:
        toks = [
            len((t or "").split()) for t in batch["text"].to_pylist()
        ]
        return pa.Table.from_pydict(
            {
                "x": batch["n_chars"],
                "y": pa.array(toks, pa.int64()),
            }
        )

    ds = read_documents(sf_dir, ["n_chars", "text"]).map_batches(
        xy, batch_format="pyarrow"
    )
    r = kendall_tau(ds, "x", "y")
    out = pd.DataFrame([r])
    for c in (
        "n",
        "n_concordant",
        "n_discordant",
        "n_ties_x",
        "n_ties_y",
        "n_ties_xy",
    ):
        out[c] = out[c].astype("int64")
    return out


CORPUS_QUERIES["doc_kendall"] = _q_doc_kendall
CORPUS_ORACLE_SQL["doc_kendall"] = """
WITH d AS (
    SELECT doc_id, n_chars AS x,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           t -> t <> '')) AS y
    FROM documents
), pr AS (
    SELECT
      CAST(sum(CASE WHEN (a.x < b.x AND a.y < b.y)
                      OR (a.x > b.x AND a.y > b.y)
               THEN 1 ELSE 0 END) AS BIGINT) AS n_concordant,
      CAST(sum(CASE WHEN (a.x < b.x AND a.y > b.y)
                      OR (a.x > b.x AND a.y < b.y)
               THEN 1 ELSE 0 END) AS BIGINT) AS n_discordant
    FROM d a JOIN d b ON a.doc_id < b.doc_id
), nn AS (
    SELECT CAST(count(*) AS BIGINT) AS n,
           CAST(count(*) * (count(*) - 1) // 2 AS BIGINT) AS n0
    FROM d
), tx AS (
    SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) AS n_ties_x
    FROM (SELECT count(*) AS c FROM d GROUP BY x)
), ty AS (
    SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) AS n_ties_y
    FROM (SELECT count(*) AS c FROM d GROUP BY y)
), txy AS (
    SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) AS n_ties_xy
    FROM (SELECT count(*) AS c FROM d GROUP BY x, y)
)
SELECT nn.n, pr.n_concordant, pr.n_discordant,
       tx.n_ties_x, ty.n_ties_y, txy.n_ties_xy,
       CAST(pr.n_concordant - pr.n_discordant AS DOUBLE)
           / sqrt(CAST(nn.n0 - tx.n_ties_x AS DOUBLE)
                  * CAST(nn.n0 - ty.n_ties_y AS DOUBLE)) AS tau_b
FROM pr, nn, tx, ty, txy
"""


def _q_source_divergence(sf_dir: str):
    """Pairwise corpus divergence between sources over add-one
    smoothed unigram distributions — the Renyi-2 sum
    sum_t P_a(t)^2 / P_b(t) (exponential of the order-2 Renyi
    divergence), chosen over Shannon KL for the doc_effective_vocab
    reason: every term is (c_a+1)^2 / (c_b+1) from exact integer
    counts, no cross-engine log. Terms accumulate in ASCENDING token
    order on both engines (python loop <-> SQL windowed sum — the
    ordered-sum / KM-product device), then one float scale factor.

    Physical plan: one (source, token) grouped count
    (``stages/aggregate.py``) over distinct pairs; the
    driver holds the vocab x sources count table (bounded-vocab
    contract, the ``kendall_tau`` histogram idiom) and
    evaluates the 380-pair matrix locally."""
    import pandas as pd
    import pyarrow as pa

    def rows(batch: pa.Table) -> pa.Table:
        srcs, toks = [], []
        for src, text in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            words = (text or "").split()
            srcs.extend([src] * len(words))
            toks.extend(words)
        return pa.Table.from_pydict(
            {
                "source": pa.array(srcs, pa.string()),
                "t": pa.array(toks, pa.string()),
            }
        )

    counts = aggregate(
        read_documents(sf_dir, ["source", "text"]),
        ["source", "t"],
        [("c", "count", None)],
        rows=rows,
    ).to_pandas()
    vocab = sorted(counts["t"].unique())
    v = len(vocab)
    sources = sorted(counts["source"].unique())
    pivot = (
        counts.pivot_table(
            index="t", columns="source", values="c", fill_value=0
        )
        .reindex(index=vocab, columns=sources, fill_value=0)
        .to_numpy()
        .astype("int64")
    )
    ntok = {s: int(pivot[:, i].sum()) for i, s in enumerate(sources)}

    rows = []
    for i, sa in enumerate(sources):
        for j, sb in enumerate(sources):
            if sa == sb:
                continue
            ca, cb = pivot[:, i], pivot[:, j]
            s_acc = 0.0
            for k in range(v):  # ascending token order, sequential
                s_acc += float((int(ca[k]) + 1) * (int(ca[k]) + 1)) / (
                    int(cb[k]) + 1
                )
            na, nb = ntok[sa], ntok[sb]
            r2 = (
                float(nb + v) / (float(na + v) * (na + v))
            ) * s_acc
            rows.append((sa, sb, na, nb, r2))
    out = pd.DataFrame(
        rows, columns=["src_a", "src_b", "n_a", "n_b", "renyi2"]
    )
    for c in ("n_a", "n_b"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


CORPUS_QUERIES["source_divergence"] = _q_source_divergence
CORPUS_ORACLE_SQL["source_divergence"] = """
WITH tok AS (
    SELECT source,
           unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                              t -> t <> '')) AS t
    FROM documents
), c AS (
    SELECT source, t, CAST(count(*) AS BIGINT) AS c
    FROM tok GROUP BY 1, 2
), v AS (
    SELECT CAST(count(DISTINCT t) AS BIGINT) AS nv FROM c
), n AS (
    SELECT source, CAST(sum(c) AS BIGINT) AS ntok FROM c GROUP BY 1
), grid AS (
    SELECT a.source AS src_a, b.source AS src_b, tt.t
    FROM (SELECT DISTINCT source FROM c) a,
         (SELECT DISTINCT source FROM c) b,
         (SELECT DISTINCT t FROM c) tt
    WHERE a.source <> b.source
), terms AS (
    SELECT g.src_a, g.src_b, g.t,
           CAST((COALESCE(ca.c, 0) + 1) * (COALESCE(ca.c, 0) + 1)
                AS DOUBLE) / (COALESCE(cb.c, 0) + 1) AS term
    FROM grid g
    LEFT JOIN c ca ON ca.source = g.src_a AND ca.t = g.t
    LEFT JOIN c cb ON cb.source = g.src_b AND cb.t = g.t
), s AS (
    SELECT src_a, src_b,
           sum(term) OVER (PARTITION BY src_a, src_b ORDER BY t
                           ROWS UNBOUNDED PRECEDING) AS acc,
           row_number() OVER (PARTITION BY src_a, src_b
                              ORDER BY t) AS rn,
           count(*) OVER (PARTITION BY src_a, src_b) AS cnt
    FROM terms
)
SELECT s.src_a, s.src_b, na.ntok AS n_a, nb.ntok AS n_b,
       (CAST(nb.ntok + v.nv AS DOUBLE)
            / (CAST(na.ntok + v.nv AS DOUBLE) * (na.ntok + v.nv)))
           * s.acc AS renyi2
FROM s, v, n na, n nb
WHERE s.rn = s.cnt AND na.source = s.src_a AND nb.source = s.src_b
ORDER BY src_a, src_b
"""


def _q_supplier_closeness(sf_dir: str):
    """Per-seed truncated closeness centrality on the supplier
    co-supply graph: for seeds 1/2/3, a 4-hop BFS
    (stages.graph.bfs_hops, one run per seed over the ONCE-materialized
    edge list) gives the hop histogram; harmonic closeness uses the
    integer-exact device closeness12 = 12*h1 + 6*h2 + 4*h3 + 3*h4
    (common denominator of 1/1..1/4), so the only float is one final
    division — no ordered float sum to mirror. Hop truncation keeps
    the recursive-CTE oracle finite (the supplier_bfs contract)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ..stages.graph import bfs_hops, cooccurrence_edges

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 10 == 0))

    edges = cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey", "l_suppkey", min_count=2,
    ).materialize()

    rows = []
    for seed in (1, 2, 3):
        seeds = ray.data.from_arrow(
            pa.table({"node": pa.array([seed], pa.int64())})
        )
        hist = aggregate(
            bfs_hops(edges, seeds, max_hops=4, assume_canonical=True),
            "hops",
            [("n", "count", None)],
        ).to_pandas()
        h = {int(r["hops"]): int(r["n"]) for _, r in hist.iterrows()}
        h1, h2, h3, h4 = (h.get(i, 0) for i in (1, 2, 3, 4))
        c12 = 12 * h1 + 6 * h2 + 4 * h3 + 3 * h4
        rows.append(
            {
                "seed": seed,
                "n_reached": h1 + h2 + h3 + h4,
                "h1": h1,
                "h2": h2,
                "h3": h3,
                "h4": h4,
                "closeness12": c12,
                "harmonic_closeness": c12 / 12.0,
            }
        )
    out = pd.DataFrame(rows)
    for c in out.columns:
        if c != "harmonic_closeness":
            out[c] = out[c].astype("int64")
    return out


CORPUS_QUERIES["supplier_closeness"] = _q_supplier_closeness
CORPUS_ORACLE_SQL["supplier_closeness"] = """
WITH RECURSIVE li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 10 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e AS (
    SELECT u, v FROM co WHERE n >= 2
), bi AS (
    SELECT u AS src, v AS dst FROM e UNION ALL SELECT v, u FROM e
), walk(seed, node, hop) AS (
    SELECT s, s, 0 FROM (VALUES (1), (2), (3)) t(s)
    UNION
    SELECT walk.seed, bi.dst, walk.hop + 1
    FROM walk JOIN bi ON bi.src = walk.node
    WHERE walk.hop < 4
), lvl AS (
    SELECT seed, node, min(hop) AS h FROM walk GROUP BY 1, 2
)
SELECT CAST(seed AS BIGINT) AS seed,
       CAST(count(*) FILTER (h >= 1) AS BIGINT) AS n_reached,
       CAST(count(*) FILTER (h = 1) AS BIGINT) AS h1,
       CAST(count(*) FILTER (h = 2) AS BIGINT) AS h2,
       CAST(count(*) FILTER (h = 3) AS BIGINT) AS h3,
       CAST(count(*) FILTER (h = 4) AS BIGINT) AS h4,
       CAST(12 * count(*) FILTER (h = 1)
            + 6 * count(*) FILTER (h = 2)
            + 4 * count(*) FILTER (h = 3)
            + 3 * count(*) FILTER (h = 4) AS BIGINT) AS closeness12,
       CAST(12 * count(*) FILTER (h = 1)
            + 6 * count(*) FILTER (h = 2)
            + 4 * count(*) FILTER (h = 3)
            + 3 * count(*) FILTER (h = 4) AS DOUBLE) / 12.0
           AS harmonic_closeness
FROM lvl GROUP BY seed ORDER BY seed
"""


def _q_phrase_topk(sf_dir: str):
    """Phrase mining: the 20 most frequent 4-gram token phrases
    corpus-wide (tie-break by phrase string — total order). Sliding
    windows counted per distinct phrase (``stages/aggregate.py``) ->
    ``stages/topk.topk`` (per-block partial
    top-20 -> driver merge, ~20 rows per block)."""
    import pyarrow as pa

    from ..stages.topk import topk

    W = 4

    def rows(batch: pa.Table) -> pa.Table:
        phrases = []
        for text in batch["text"].to_pylist():
            w = (text or "").split()
            phrases.extend(
                " ".join(w[i:i + W]) for i in range(len(w) - W + 1)
            )
        return pa.table({"phrase": pa.array(phrases, pa.string())})

    out = topk(
        aggregate(
            read_documents(sf_dir, ["text"]),
            "phrase",
            [("n", "count", None)],
            rows=rows,
        ),
        20, [("n", "descending"), ("phrase", "ascending")],
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out[["phrase", "n"]]


CORPUS_QUERIES["phrase_topk"] = _q_phrase_topk
CORPUS_ORACLE_SQL["phrase_topk"] = """
WITH t AS (
    SELECT list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS w
    FROM documents
), g AS (
    SELECT unnest(list_transform(range(1, len(w) - 2),
               i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' '
                    || w[i+3])) AS phrase
    FROM t WHERE len(w) >= 4
)
SELECT phrase, CAST(count(*) AS BIGINT) AS n
FROM g GROUP BY phrase
ORDER BY n DESC, phrase ASC LIMIT 20
"""


def _q_doc_chatterjee_xi(sf_dir: str):
    """Chatterjee's xi dependence of token count on char count
    (stages.window.chatterjee_xi): a modern rank-based coefficient
    that detects ANY functional dependence, not just monotone —
    complements doc_kendall on the same column pair. Exact int64
    rank-difference sum (x-ties ordered by doc_id, the documented
    deterministic convention), one final float division; the oracle
    computes the same ranks with a RANGE-frame window count."""
    import pandas as pd
    import pyarrow as pa

    from ..stages.window import chatterjee_xi

    def xy(batch: pa.Table) -> pa.Table:
        toks = [
            len((t or "").split()) for t in batch["text"].to_pylist()
        ]
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "x": batch["n_chars"],
                "y": pa.array(toks, pa.int64()),
            }
        )

    ds = read_documents(sf_dir, ["doc_id", "n_chars", "text"]).map_batches(
        xy, batch_format="pyarrow"
    )
    r = chatterjee_xi(ds, "x", "y", tie_col="doc_id")
    out = pd.DataFrame([r])
    out["n"] = out["n"].astype("int64")
    out["s_abs"] = out["s_abs"].astype("int64")
    return out[["n", "s_abs", "xi"]]


CORPUS_QUERIES["doc_chatterjee_xi"] = _q_doc_chatterjee_xi
CORPUS_ORACLE_SQL["doc_chatterjee_xi"] = """
WITH d AS (
    SELECT doc_id, n_chars AS x,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           t -> t <> '')) AS y
    FROM documents
), rk AS (
    SELECT doc_id, x,
           count(*) OVER (ORDER BY y) AS r
    FROM d
), seq AS (
    SELECT r, lead(r) OVER (ORDER BY x, doc_id) AS nxt FROM rk
), agg AS (
    SELECT CAST(sum(abs(nxt - r)) AS BIGINT) AS s_abs
    FROM seq WHERE nxt IS NOT NULL
), nn AS (
    SELECT CAST(count(*) AS BIGINT) AS n FROM d
)
SELECT nn.n, agg.s_abs,
       1.0 - 3.0 * CAST(agg.s_abs AS DOUBLE) / (nn.n * nn.n - 1)
           AS xi
FROM nn, agg
"""
