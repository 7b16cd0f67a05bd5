"""Text-analysis kernels: language ID, quality scoring, token counting,
document fingerprinting (pure, deterministic).

These power the training-data-pipeline operators over the ``documents``
corpus. Counts are returned as integers wherever a DuckDB oracle needs
to reproduce them exactly.
"""

import re
from typing import Dict, List, Tuple

# -- token counting ----------------------------------------------------------

# BPE-ish pre-tokenizer: word pieces or single non-space punctuation —
# the shape GPT-style byte-pair encoders split on before merging.
_BPE_TOKEN = re.compile(r"\w+|[^\w\s]")
_WORD = re.compile(r"\w+")


def bpe_token_count(text: str) -> int:
    return len(_BPE_TOKEN.findall(text))


# -- quality scoring ---------------------------------------------------------

STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that "
    "with for on as at by from".split()
)

_ALPHA = re.compile(r"[A-Za-z]")
_PUNCT = re.compile(r"[^\w\s]")


def quality_counts(text: str) -> Dict[str, int]:
    """Integer building blocks of the usual quality ratios: the caller
    (or an oracle) derives stopword ratio, mean word length, alpha
    fraction and punctuation density from these exactly."""
    tokens = text.split()
    return {
        "n_chars": len(text),
        "n_tokens": len(tokens),
        "n_stop": sum(1 for t in tokens if t.lower() in STOPWORDS),
        "n_alpha_chars": len(_ALPHA.findall(text)),
        "n_punct": len(_PUNCT.findall(text)),
        "n_bpe_tokens": bpe_token_count(text),
    }


# -- language ID (n-gram / marker-word heuristic) ----------------------------

_LANG_MARKERS: Dict[str, frozenset] = {
    "en": frozenset(
        "the and of to in is that it was for on are with as his they "
        "at be this have from or one had by word but not what all".split()
    ),
    "de": frozenset(
        "der die das und ist nicht ich sie mit ein eine zu den von "
        "auf für im dem des als auch es an werden aus er hat dass".split()
    ),
    "fr": frozenset(
        "le la les et est un une des du de je il elle nous vous ils "
        "dans pour que qui sur avec au pas ne ce se plus par".split()
    ),
    "es": frozenset(
        "el la los las y es un una de en que no por con para su al "
        "lo como más pero sus le ya o este sí porque esta son".split()
    ),
}
_CJK = re.compile(r"[一-鿿]")


def detect_language(text: str, min_margin: int = 1) -> str:
    """Marker-word majority vote with a CJK-codepoint fast path.

    Returns an ISO 639-1 code or ``"und"`` when no language's marker
    count beats the runner-up by ``min_margin``."""
    if _CJK.search(text):
        return "zh"
    words = [w.lower() for w in _WORD.findall(text)]
    if not words:
        return "und"
    scores: List[Tuple[int, str]] = sorted(
        (
            (sum(1 for w in words if w in markers), lang)
            for lang, markers in _LANG_MARKERS.items()
        ),
        reverse=True,
    )
    best_score, best_lang = scores[0]
    runner_score = scores[1][0]
    if best_score == 0 or best_score - runner_score < min_margin:
        return "und"
    return best_lang


# -- document fingerprinting (rolling hash / winnowing) ----------------------

_FP_BASE = 1_000_003
_FP_MOD = (1 << 61) - 1


def rolling_hashes(text: str, window: int = 16) -> List[int]:
    """Rabin-Karp rolling hashes of every ``window``-CODEPOINT span.

    Codepoints (not utf-8 bytes) so a SQL oracle can reconstruct the
    hash exactly via ``unicode(substr(text, i, 1))`` for any input —
    the ``doc_winnow`` oracle embeds the same base/modulus/power
    table."""
    data = [ord(c) for c in text]
    n = len(data)
    if n < window:
        window = max(n, 1)
    if n == 0:
        return []
    power = pow(_FP_BASE, window - 1, _FP_MOD)
    h = 0
    out = []
    for i, byte in enumerate(data):
        h = (h * _FP_BASE + byte) % _FP_MOD
        if i >= window - 1:
            out.append(h)
            h = (h - data[i - window + 1] * power) % _FP_MOD
    return out


def winnow_fingerprint(
    text: str, window: int = 16, select: int = 8
) -> List[int]:
    """Winnowing-style fingerprint: the ``select`` smallest distinct
    rolling hashes (order-free, robust to local edits)."""
    hashes = sorted(set(rolling_hashes(text, window)))
    return hashes[:select]
