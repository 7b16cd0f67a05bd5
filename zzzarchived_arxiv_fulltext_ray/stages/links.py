"""Outlink extraction over raw page payloads (webtext link graph).

A Common-Crawl-scale curation stack needs the link structure as much
as the text: per-page outlinks feed URL frontier ranking, domain-level
spam scoring, and anchor-text corpora. This stage parses ``href``
attributes straight from the raw ``html: binary`` column — payloads
are sniffed (PDF / binary / empty rows yield no links) and decoded
with the same charset heuristic as the extraction cascade
(``functions.sniff``), so BOM'd UTF-16 and Latin-1 pages resolve
identically to their text-extraction path.

Scale shape: link parsing is a stateless per-row kernel fused into the
page scan (compiled module-level regex; no actor state needed), and
every aggregate runs through ``stages/aggregate.py`` (a per-batch
Arrow partial before the one small exchange over DISTINCT
targets/domains) — the corpus-sized stream never shuffles.
"""

import re
from typing import List

import pyarrow as pa

from ..functions import sniff
from .aggregate import aggregate
from .topk import topk

# href scanning runs on the DECODED markup: attribute values are
# captured for both quote styles; unquoted hrefs (legacy HTML) stop at
# whitespace or '>'
_HREF_RE = re.compile(
    r"""href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))""",
    re.IGNORECASE,
)

_DOMAIN_RE = re.compile(r"^[a-z][a-z0-9+.-]*://([^/]+)", re.IGNORECASE)

# full anchor elements: href value (any quote style) + inner text
_ANCHOR_RE = re.compile(
    r"""<a\s[^>]*?href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))"""
    r"""[^>]*>(.*?)</a>""",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]+>")
_WS_RE = re.compile(r"\s+")


def hrefs_of_markup(markup: str) -> List[str]:
    """All href attribute values, document order, duplicates kept."""
    return [a or b or c for a, b, c in _HREF_RE.findall(markup)]


def page_domain(url: str) -> str:
    m = _DOMAIN_RE.match(url)
    return m.group(1) if m else ""


def anchors_of_markup(markup: str):
    """(target, anchor_text) per <a> element, document order. Anchor
    text is de-tagged, entity-unescaped, whitespace-collapsed."""
    import html as _html

    out = []
    for a, b, c, inner in _ANCHOR_RE.findall(markup):
        text = _WS_RE.sub(" ", _html.unescape(_TAG_RE.sub("", inner))).strip()
        out.append((a or b or c, text))
    return out


def extract_links_batch(batch: pa.Table) -> pa.Table:
    """pages batch (url, html) -> one (src_domain, target) row per
    href occurrence. Non-HTML payloads (pdf / binary / empty / bare
    text) contribute nothing; decode follows the cascade's sniff
    order (BOM -> declared meta charset -> UTF-8 probe -> Latin-1)."""
    srcs: List[str] = []
    targets: List[str] = []
    for url, payload in zip(
        batch["url"].to_pylist(), batch["html"].to_pylist()
    ):
        if not payload:
            continue
        if sniff.sniff_kind(payload) != sniff.KIND_HTML:
            continue
        markup = sniff.decode_payload(payload, sniff.detect_charset(payload))
        found = hrefs_of_markup(markup)
        if not found:
            continue
        dom = page_domain(url)
        srcs.extend([dom] * len(found))
        targets.extend(found)
    return pa.Table.from_pydict(
        {
            "src_domain": pa.array(srcs, pa.string()),
            "target": pa.array(targets, pa.string()),
        }
    )


def extract_anchors_batch(batch: pa.Table) -> pa.Table:
    """pages batch (url, html) -> one (target, anchor) row per <a>
    element — the anchor-text corpus extractor (anchor text is a
    training/relevance signal per linked-to target)."""
    targets: List[str] = []
    anchors: List[str] = []
    for payload in batch["html"].to_pylist():
        if not payload or sniff.sniff_kind(payload) != sniff.KIND_HTML:
            continue
        markup = sniff.decode_payload(payload, sniff.detect_charset(payload))
        for t, a in anchors_of_markup(markup):
            targets.append(t)
            anchors.append(a)
    return pa.Table.from_pydict(
        {
            "target": pa.array(targets, pa.string()),
            "anchor": pa.array(anchors, pa.string()),
        }
    )


def top_anchor_texts(pages_ds, k: int = 100):
    """Most common (target, anchor-text) pairs, (n desc, target,
    anchor) top ``k`` — same count-then-top-k shape as
    :func:`top_link_targets`."""
    agg = aggregate(
        pages_ds.map_batches(extract_anchors_batch, batch_format="pyarrow"),
        ["target", "anchor"],
        [("n", "count", None)],
    )
    return topk(
        agg, k, [("n", "descending"), ("target", "ascending"),
                 ("anchor", "ascending")]
    ).to_pandas()


def top_link_targets(pages_ds, k: int = 100):
    """Corpus-wide most-linked-to targets: (target, n), n desc then
    target asc, top ``k``.

    Physical plan: parse links fused into the page scan -> per-target
    counts through ``stages/aggregate.py`` (bounded by the target
    vocabulary, not the corpus) -> ``stages/topk.topk`` (per-block
    partial top-k, driver merge of at most k x blocks rows).
    """
    links = pages_ds.map_batches(extract_links_batch, batch_format="pyarrow")
    agg = aggregate(links, "target", [("n", "count", None)])
    return topk(
        agg, k, [("n", "descending"), ("target", "ascending")]
    ).to_pandas()


def domain_outdegree(pages_ds):
    """Outlink count per source domain: (src_domain, n_links), sorted
    by domain."""
    links = pages_ds.map_batches(extract_links_batch, batch_format="pyarrow")
    agg = aggregate(links, "src_domain", [("n_links", "count", None)])
    out = agg.to_pandas().sort_values("src_domain")
    return out.reset_index(drop=True)
