"""HTML main-content extraction (kernel).

An Arc90/Readability-style scorer built on the stdlib ``html.parser``
(the sandbox has no lxml): parse to a lightweight DOM, score candidate
container elements by text mass, comma density and link density with
tag/class boilerplate priors, pick the best candidate and linearize its
block-level text in document order.

This is the HTML analogue of the reference's PDF text extraction step
(E1/E4 in SURVEY.md §2.3, ``extractor/fulltext/fulltext.py:136-178``):
it produces the *raw* extracted text; unicode normalization and the
quality gate are applied downstream by the extraction cascade.

Byte contract: paragraph text is returned exactly as it appears in the
document (entities resolved, no whitespace collapsing) and paragraphs
are joined with a blank line — whitespace normalization is deliberately
left to the PSV kernel so the raw extraction stays byte-faithful.
"""

import re
from html.parser import HTMLParser
from typing import List, Optional

# Content is never taken from inside these elements.
_IGNORED = frozenset(
    "script style noscript template svg head title iframe object embed".split()
)
# Elements whose text forms its own paragraph during linearization.
_BLOCK = frozenset(
    "p div article section main aside header footer nav h1 h2 h3 h4 h5 h6 "
    "li ul ol table tr td th blockquote pre figure figcaption form".split()
)
# Elements eligible to be THE main-content container.
_CANDIDATE = frozenset("div article section main td body".split())
_SELF_CLOSING = frozenset(
    "br hr img input meta link area base col source track wbr".split()
)

_NEGATIVE = re.compile(
    r"nav|menu|footer|header|sidebar|side-bar|advert|banner|promo|related|"
    r"comment|share|social|breadcrumb|widget|masthead|sponsor|shopping|"
    r"pagination|pager|popup|cookie",
    re.IGNORECASE,
)
_POSITIVE = re.compile(
    r"article|body|content|main|post|text|entry|story|column",
    re.IGNORECASE,
)


class _Node:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs, parent: Optional["_Node"]):
        self.tag = tag
        # raw (name, value) pairs as delivered by HTMLParser — only
        # _class_weight ever reads them, so skip the per-node dict
        self.attrs = attrs
        self.children: list = []  # str (text) or _Node
        self.parent = parent


class _TreeBuilder(HTMLParser):
    """Forgiving HTML -> _Node tree (entities resolved by the parser)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("body", (), None)
        self._stack = [self.root]
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if self._skip_depth:
            if tag in _IGNORED:
                self._skip_depth += 1
            return
        if tag in _IGNORED:
            self._skip_depth = 1
            return
        if tag in _SELF_CLOSING:
            self._stack[-1].children.append(_Node(tag, attrs, self._stack[-1]))
            return
        node = _Node(tag, attrs, self._stack[-1])
        self._stack[-1].children.append(node)
        self._stack.append(node)

    def handle_startendtag(self, tag, attrs):
        if self._skip_depth or tag in _IGNORED:
            return
        self._stack[-1].children.append(_Node(tag, attrs, self._stack[-1]))

    def handle_endtag(self, tag):
        if self._skip_depth:
            if tag in _IGNORED:
                self._skip_depth -= 1
            return
        # close the nearest matching open element (forgiving nesting)
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                break

    def handle_data(self, data):
        if self._skip_depth or not data:
            return
        self._stack[-1].children.append(data)


def parse_html(markup: str) -> _Node:
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    return builder.root


def _text_of(node: _Node) -> str:
    parts: List[str] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, str):
            parts.append(cur)
            continue
        stack.extend(reversed(cur.children))
    return "".join(parts)


def _link_text_len(node: _Node) -> int:
    total = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, str):
            continue
        if cur.tag == "a":
            total += len(_text_of(cur).strip())
        else:
            stack.extend(cur.children)
    return total


def _class_weight(node: _Node) -> float:
    ident = " ".join(
        str(v)
        for k, v in node.attrs
        if k in ("class", "id", "role") and v is not None
    )
    if _NEGATIVE.search(ident):
        return 0.2
    if _POSITIVE.search(ident) or node.tag in ("article", "main"):
        return 1.5
    return 1.0


# Leaf blocks whose text mass votes for their ancestors (Arc90: only
# paragraph-like elements score; nav lists / link farms do not).
_SCOREABLE = frozenset("p td pre blockquote".split())


def _paragraph_score(text: str) -> float:
    stripped = text.strip()
    if len(stripped) < 20:
        return 0.0
    return 1.0 + stripped.count(",") + min(len(stripped) / 90.0, 3.0)


def _nearest_candidate(node: _Node) -> Optional[_Node]:
    cur = node.parent
    while cur is not None and cur.tag not in _CANDIDATE:
        cur = cur.parent
    return cur


def _accumulate_scores(root: _Node) -> dict:
    """Arc90 accumulation: each paragraph-like leaf credits its nearest
    candidate ancestor fully and that ancestor's own candidate ancestor
    half. Returns {candidate_node_id: (node, raw_score)}."""
    scores: dict = {}

    def credit(node: _Node, amount: float):
        if node is None or amount <= 0.0:
            return
        entry = scores.get(id(node))
        scores[id(node)] = (node, (entry[1] if entry else 0.0) + amount)

    stack = [root]
    while stack:
        cur = stack.pop()
        if isinstance(cur, str):
            continue
        if cur.tag in _SCOREABLE:
            s = _paragraph_score(_text_of(cur))
            if s > 0.0:
                parent = _nearest_candidate(cur)
                credit(parent, s)
                if parent is not None:
                    credit(_nearest_candidate(parent), s / 2.0)
        else:
            stack.extend(cur.children)
    return scores


def _finalize_score(node: _Node, raw: float) -> float:
    total_len = len(_text_of(node).strip())
    if total_len == 0:
        return 0.0
    link_density = _link_text_len(node) / total_len
    return raw * (1.0 - link_density) * _class_weight(node)


def _linearize(node: _Node, out: List[str]):
    """Collect block-level text chunks of ``node`` in document order."""
    inline_run: List[str] = []

    def flush():
        chunk = "".join(inline_run)
        inline_run.clear()
        if chunk.strip():
            out.append(chunk)

    for child in node.children:
        if isinstance(child, str):
            inline_run.append(child)
        elif child.tag in _BLOCK:
            flush()
            if child.tag in ("ul", "ol", "table", "tr", "div", "section",
                            "article", "main", "blockquote"):
                _linearize(child, out)
            else:
                text = _text_of(child)
                if text.strip():
                    out.append(text)
        elif child.tag == "br":
            inline_run.append("\n")
        elif child.tag == "a":
            # drop pure link text during linearization only when the
            # anchor is navigation-bare; inline citation links keep text
            text = _text_of(child)
            inline_run.append(text)
        else:
            inline_run.append(_text_of(child))
    flush()


def extract_main_text(markup: str) -> str:
    """Main-content text of an HTML document.

    Scores every candidate container and linearizes the winner's block
    text, paragraphs joined by a blank line. Falls back to the whole
    visible body text when no candidate scores (bare/boilerplate-free
    pages).
    """
    root = parse_html(markup)
    best: Optional[_Node] = None
    best_score = 0.0
    for cand, raw in _accumulate_scores(root).values():
        s = _finalize_score(cand, raw)
        if s > best_score:
            best, best_score = cand, s

    target = best if best is not None else root
    chunks: List[str] = []
    _linearize(target, chunks)
    if not chunks and target is not root:
        _linearize(root, chunks)
    return "\n\n".join(chunks)


def extract_all_text(markup: str) -> str:
    """Fallback extraction: all visible text, block-separated (the
    HTML analogue of the reference's pdftotext fallback, E2)."""
    root = parse_html(markup)
    chunks: List[str] = []
    _linearize(root, chunks)
    return "\n\n".join(chunks)
