"""PSV ("plain sentence view") derivation (kernel).

Byte-identical re-expression of the reference's PSV post-processor
(``fulltext/process/psv.py``, itself a port of arXiv::Overlap::TidyText):
recover xpdf-garbled accents, split into lines, peel off the trailing
reference/bibliography section, then run a fixed 13-step tidy chain
(keyword-line drop, whitespace fold, de-hyphenation/continuation
joining, abbreviation expansion, symbol/number/abbrev/single-letter
strip, sentence split + clean) and flatten to one space-separated
lowercase string.

Quirks preserved deliberately (the byte-identity contract, see
tests/test_kernel_psv.py):

* ``join_continuations`` seeds its output with an empty first line
  (reference ``_remove_BadEOL`` psv.py:113) and its "previous line
  ended a sentence" check is ``re.match`` — i.e. it tests whether the
  previous line *starts* with ``". "``, not ends (psv.py:119).
* ``drop_keyword_lines`` tracks the previous *input* line even when
  that line was itself dropped (psv.py:133-135).
* When no References/Bibliography heading is found (or the tail would
  exceed half the document) the whole document is kept as body; the
  reference also prints a warning in that case — a side effect, not a
  text effect, so it is not reproduced (psv.py:265-273).
* All regex substitutions run via Python ``re`` per document — the
  chain's steps are order-sensitive and several are stateful across
  adjacent lines, so no cross-row vectorization is attempted. Rows are
  whole documents, so every stateful step sees its full context.
"""

import re
from typing import List, Tuple

# -- accent recovery (reference _recover_accents, psv.py:285-309) -----------

_ACCENT_MARKS = re.compile(r"[\xa8|\xb4|\xb8|\xb0]\x0a?")   # umlaut/acute/cedilla/ring
_ACCENT_LITERALS = re.compile(r"[\x5e|\x60|\x7e]\x0a")      # ^ ` ~ followed by LF
_ACCENT_CHARS = (
    ("\xf8", "o"), ("\xd8", "O"),            # slashed o/O
    ("\xdf", "ss"), ("\xe6", "ae"), ("\xc6", "AE"),
)


def recover_accents(txt: str) -> str:
    """Strip xpdf multi-byte accent garbling down to plain letters."""
    txt = _ACCENT_MARKS.sub("", txt)
    txt = _ACCENT_LITERALS.sub("", txt)
    for src, dst in _ACCENT_CHARS:
        txt = txt.replace(src, dst)
    return txt


# -- line-level steps --------------------------------------------------------

_EOL_CLASS = re.compile(r"[\x0a-\x0d]+")       # ^J ^K ^L ^M runs
_WS_CHARS = re.compile(r"[\n\r\f\t]")
_TRAILING_HYPHEN = re.compile(r"- $")
_LOWER_START = re.compile(r"^[a-z]")
_SENTENCE_END = re.compile(r"\. $")            # quirk: match = startswith
_ALL_DIGITS = re.compile(r"^\d+$")
_AFFILIATION = re.compile(r"university|institute", re.IGNORECASE)


def fold_whitespace(lines: List[str]) -> List[str]:
    """Turn EOL/tab/formfeed characters into spaces, per line."""
    return [_WS_CHARS.sub(" ", line) for line in lines]


def join_continuations(lines: List[str]) -> List[str]:
    """De-hyphenate trailing ``- `` and join lowercase continuation lines.

    Stateful across adjacent lines; output starts with a seeded empty
    string exactly like the reference (psv.py:113).
    """
    out = [""]
    prev = ""
    for line in lines:
        line = _TRAILING_HYPHEN.sub("", line)
        if _LOWER_START.match(line) and not _SENTENCE_END.match(prev):
            out[-1] += line
        else:
            out.append(line)
        prev = line
    return out


def drop_keyword_lines(lines: List[str]) -> List[str]:
    """Drop boilerplate lines (arXiv stamps, journal-template chatter,
    affiliation lines that follow a bare page number)."""
    out = []
    prev = ""
    cur = ""
    for line in lines:
        prev, cur = cur, line
        low = line.lower()
        if low.startswith("arxiv"):
            continue
        if "will be inserted by hand later" in line:
            continue
        if "was prepared with the aas" in line:
            continue
        if _ALL_DIGITS.match(prev) and _AFFILIATION.match(line):
            continue
        out.append(line)
    return out


# -- sentence-level steps ----------------------------------------------------

_ABBREV_EXPANSIONS = tuple(
    (re.compile(pat, re.IGNORECASE), repl)
    for pat, repl in (
        (r"Fig[s]?[\.]?\s", "Figure "),
        (r"Eq[s]?[\.]?\s", "Equation "),
        (r"Sect[s]?[\.]?\s", "Section "),
        (r"Ref[s]?[\.]?\s", "Reference "),
        (r"Prof\.", "Prof"),
        (r"Dr\.", "Dr"),
    )
)
# fused single-pass equivalents of the reference's two-pass steps:
# underscore is \w, so "non-word-symbol OR underscore" in one scan is
# byte-identical to the two-pass original; the number-slash
# alternation fires before the lone-digit branch exactly where the
# two-pass version's first sub would have
_SYMBOL_FUSED = re.compile(r"[^\.\w ]|_")
_NUMBER_FUSED = re.compile(r"\d+[\.]?\d+/|\d")
# strip_symbols then strip_numbers in one scan: the symbol pass blanks
# every "/", so the number-slash branch can never fire after it and
# both passes are one per-character map
_SYMBOL_OR_DIGIT = re.compile(r"[^.\w ]|[\d_]")
_DOTTED_3 = re.compile(r"\s\w\.\w\.\w\.\s")
_DOTTED_2 = re.compile(r"\s\w\.\w\.\s")
_DOTTED_1 = re.compile(r"\s\w\.\s")
_LONE_LETTER = re.compile(r"\s[a-zA-Z]\s")
_LONE_LETTER_DOT = re.compile(r"\s[a-zA-Z]\.")
_MULTI_SPACE = re.compile(r"\s+")
_LEADING_SPACE = re.compile(r"^\s+")
_SENTENCE_SPLIT = re.compile(r"\.\s")
_HAS_WORD = re.compile(r"\w")
_NON_WORD_RUN = re.compile(r"\W+")


def expand_abbreviations(line: str) -> str:
    """Fig./Eqs./Sects./Refs. -> full words; drop the dot on Prof./Dr.

    Sequential C-level constant-replacement subs; a fused alternation
    with a Python replacement callback measured SLOWER (the patterns
    have no word boundary, so ...ref/...eq word tails match often and
    each match would pay a Python call)."""
    for pat, repl in _ABBREV_EXPANSIONS:
        line = pat.sub(repl, line)
    return line


def strip_symbols(line: str) -> str:
    return _SYMBOL_FUSED.sub(" ", line)


def strip_numbers(line: str) -> str:
    return _NUMBER_FUSED.sub(" ", line)


def strip_symbols_and_numbers(line: str) -> str:
    """``strip_numbers(strip_symbols(line))`` in one regex pass."""
    return _SYMBOL_OR_DIGIT.sub(" ", line)


def strip_dotted_abbrevs(line: str) -> str:
    """Drop `` w.w.w. `` / `` w.w. `` / `` w. `` tokens (U.S.A. etc.)."""
    line = _DOTTED_3.sub(" ", line)
    line = _DOTTED_2.sub(" ", line)
    return _DOTTED_1.sub(" ", line)


def strip_single_letters(line: str) -> str:
    line = _LONE_LETTER.sub(" ", line)
    line = _LONE_LETTER.sub(" ", line)
    return _LONE_LETTER_DOT.sub(".", line)


def squeeze_spaces(line: str) -> str:
    # two C-level literal subs beat one Python-callback sub here:
    # whitespace runs are frequent, so a replacement function would
    # pay a Python call per run (measured slower)
    line = _MULTI_SPACE.sub(" ", line)
    return _LEADING_SPACE.sub("", line)


def split_sentences(lines: List[str]) -> List[str]:
    out: List[str] = []
    for line in lines:
        out.extend(_SENTENCE_SPLIT.split(line))
    return out


def clean_sentences(lines: List[str]) -> List[str]:
    """Keep word-bearing sentences > 3 chars; strip non-word; lowercase."""
    out: List[str] = []
    for line in lines:
        if not _HAS_WORD.match(line):
            continue
        # one pass for the reference's four (\W -> space, squeeze,
        # strip both ends): after the first only spaces are whitespace
        line = _NON_WORD_RUN.sub(" ", line).strip(" ")
        if len(line) <= 3:
            continue
        out.append(line.lower())
    return out


# -- reference-section split (psv.py:243-282) --------------------------------

_REF_HEADING = re.compile(
    r"^[^a-zA-Z]*(Reference[s]?|Bibliography)[\W]*$", re.IGNORECASE
)


def split_references(
    lines: List[str], max_refs_fraction: float = 0.5
) -> Tuple[List[str], List[str]]:
    """Split at the *last* References/Bibliography heading line.

    Refuses the split (everything stays in the body) when the
    reference tail would exceed ``max_refs_fraction`` of the lines —
    including the degenerate no-heading case.
    """
    n = len(lines)
    last_heading = 0           # 1-based line number of the last heading
    for i, line in enumerate(lines):
        if _REF_HEADING.match(line):
            last_heading = i + 1

    if n:
        tail_fraction = 1.0 - last_heading / n
        if tail_fraction > max_refs_fraction:
            last_heading = n + 1          # push split past the end

    body: List[str] = []
    tail: List[str] = []
    for i, line in enumerate(lines):
        if last_heading > 0 and i >= last_heading - 1:
            tail.append(line)
        else:
            body.append(line)
    return body, tail


# -- composition (psv.py:16-100) ---------------------------------------------

def tidy_lines(lines: List[str]) -> List[str]:
    """The fixed 13-step tidy chain over one document's lines."""
    lines = drop_keyword_lines(lines)
    lines = fold_whitespace(lines)
    lines = join_continuations(lines)

    lines = [
        squeeze_spaces(
            strip_single_letters(
                strip_dotted_abbrevs(
                    strip_symbols_and_numbers(expand_abbreviations(line))
                )
            )
        )
        for line in lines
    ]

    # (the reference re-folds whitespace here; after squeeze_spaces no
    # [\n\r\f\t] can remain, so that pass is a provable no-op — elided,
    # equivalence pinned by the differential fuzz tests)
    lines = join_continuations(lines)
    lines = split_sentences(lines)
    return clean_sentences(lines)


def process_text(txt: str) -> Tuple[str, str]:
    """Full text -> (tidied body, tidied reference tail), newline-joined."""
    txt = recover_accents(txt)
    lines = [part + "\n" for part in _EOL_CLASS.split(txt)]
    body, tail = split_references(lines)
    return "\n".join(tidy_lines(body)), "\n".join(tidy_lines(tail))


def normalize_text_psv(txt: str) -> str:
    """The PSV string: tidied body flattened to a single line."""
    body, _ = process_text(txt)
    return body.replace("\n", " ")
