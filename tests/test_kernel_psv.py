"""Golden-output tests for the PSV kernel.

The expected strings reproduce the reference's own unit-test contract
(``fulltext/process/tests/test_process_psv.py``) — these are the
byte-identity anchors for operators E7-E21 in SURVEY.md §2.3. The
property tests at the end pin each fused regex pass to the step-by-step
spelling it replaces, which they keep as the oracle.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from zzzarchived_arxiv_fulltext_ray.functions import psv

PAULI = """
**Pauli Virtanen** is SciPy's Benevolent Dictator For Life (BDFL).  He says:

*Truthfully speaking, we could have released a SciPy 1.0 a long time ago, so
I'm happy we do it now at long last. The project has a long history, and during
the years it has matured also as a software project.  I believe it has well
proved its merit to warrant a version number starting with unity.*

*Since its conception 15+ years ago, SciPy has largely been written by and for
scientists, to provide a box of basic tools that they need. Over time, the set
of people active in its development has undergone some rotation, and we have
evolved towards a somewhat more systematic approach to development.
Regardless, this underlying drive has stayed the same, and I think it will also
continue propelling the project forward in future. This is all good, since not
long after 1.0 comes 1.1.*
"""


def test_tidy_chain_golden():
    lines = PAULI.replace("\n", " \n").split("\n")
    expected = [
        "pauli virtanen is scipy benevolent dictator for life bdfl",
        "he says",
        "truthfully speaking we could have released scipy",
        "long time ago so",
        "i happy we do it now at long last",
        "the project has long history and during the years it has matured"
        " also as software project",
        "believe it has well proved its merit to warrant version number"
        " starting with unity",
        "since its conception years ago scipy has largely been written by"
        " and for scientists to provide box of basic tools that they need",
        "over time the set of people active in its development has"
        " undergone some rotation and we have evolved towards somewhat"
        " more systematic approach to development",
        "regardless this underlying drive has stayed the same and think it"
        " will also continue propelling the project forward in future",
        "this is all good since not long after",
        "comes",
    ]
    assert psv.tidy_lines(lines) == expected


def test_normalize_psv_golden():
    expected = (
        "pauli virtanen is scipy benevolent dictator for life bdfl"
        " he says truthfully speaking we could have released scipy long"
        " time ago so i happy we do it now at long last the project has"
        " long history and during the years it has matured also as"
        " software project believe it has well proved its merit to warrant"
        " version number starting with unity since its conception years"
        " ago scipy has largely been written by and for scientists to"
        " provide box of basic tools that they need over time the set of"
        " people active in its development has undergone some rotation and"
        " we have evolved towards somewhat more systematic approach to"
        " development regardless this underlying drive has stayed the same"
        " and think it will also continue propelling the project forward"
        " in future this is all good since not long after comes"
    )
    assert psv.normalize_text_psv(PAULI) == expected


def test_expand_abbreviations():
    raw = "Lorem Prof. Dr. ipsum dolor Fig. sit amet Sects. 1 Refs Eqs. 2"
    assert psv.expand_abbreviations(raw) == (
        "Lorem Prof Dr ipsum dolor Figure sit amet Section 1 Reference Equation 2"
    )


def test_strip_symbols():
    raw = "Bacon ipsum$@@ dolor amet lan!!!#djaeger chuc&&&^k bacon"
    assert psv.strip_symbols(raw) == (
        "Bacon ipsum    dolor amet lan    djaeger chuc    k bacon"
    )


def test_strip_numbers():
    raw = "Pork 2chop boudin5 picanha chic4ken"
    assert psv.strip_numbers(raw) == "Pork  chop boudin  picanha chic ken"


def test_drop_keyword_lines_with_cross_line_state():
    raw = [
        "Bacon ipsum dolor amet landjaeger chuck bacon boudin sausage",
        "arxiv ribs meatloaf chicken turducken bresaola shoulder. Pork",
        "chop boudin will be inserted by hand later picanha chicken short",
        "loin alcatra, turducken flank t-bone tail sirloin hamburger",
        "turkey short ribs prosciutto. Pork was prepared with the aas",
        "chop ribeye strip steak jerky, ball tip andouille leberkas cupim",
        "1234567890",
        "university",
        "ham. Pig meatloaf short ribs leberkas, cupim pork chop",
    ]
    expected = [
        "Bacon ipsum dolor amet landjaeger chuck bacon boudin sausage",
        "loin alcatra, turducken flank t-bone tail sirloin hamburger",
        "chop ribeye strip steak jerky, ball tip andouille leberkas cupim",
        "1234567890",
        "ham. Pig meatloaf short ribs leberkas, cupim pork chop",
    ]
    assert psv.drop_keyword_lines(raw) == expected


def test_join_continuations_leading_empty_quirk():
    raw = [
        "Bacon ipsum dolor amet landjaeger chuck bacon boudin saus- ",
        "age.",
        "Chop boudin picanha chicken short ",
        "hmmm",
    ]
    expected = [
        "",
        "Bacon ipsum dolor amet landjaeger chuck bacon boudin sausage.",
        "Chop boudin picanha chicken short hmmm",
    ]
    assert psv.join_continuations(raw) == expected


def test_fold_whitespace_and_idempotency():
    raw = [
        "Meatball\t pastrami chicken hamburger brisket ham hock capicola.",
        "Shankle turkey tongue\n\nsirloin meatloaf corned beef tail strip",
        "steak   sausage bacon beef ribs. ",
    ]
    expected = [
        "Meatball  pastrami chicken hamburger brisket ham hock capicola.",
        "Shankle turkey tongue  sirloin meatloaf corned beef tail strip",
        "steak   sausage bacon beef ribs. ",
    ]
    result = psv.fold_whitespace(raw)
    assert result == expected
    for _ in range(5):
        result = psv.fold_whitespace(result)
        assert result == expected


def test_split_references_tail_dropped():
    lines = [f"body line {i}.\n" for i in range(8)]
    lines += ["References\n", "[1] someone 1999\n", "[2] someone 2001\n"]
    body, tail = psv.split_references(lines)
    assert len(body) == 8
    assert tail[0] == "References\n"


def test_split_references_refusal_when_tail_too_large():
    lines = ["intro.\n", "Bibliography\n"] + [f"[{i}] x\n" for i in range(8)]
    body, tail = psv.split_references(lines)
    assert body == lines
    assert tail == []


def test_split_references_no_heading_keeps_everything():
    lines = ["a.\n", "b.\n"]
    body, tail = psv.split_references(lines)
    assert body == lines
    assert tail == []


# -- fused passes vs the reference's step-by-step spelling -------------------

# the characters where \d, \w, \s and case folding disagree across
# ASCII and Unicode: Nd digits, \x0b, the \x1c-\x1f separators, NEL,
# NBSP, long s, the Kelvin sign — plus "_", "/" and "." that the
# symbol and number steps special-case
_EDGE = (
    "aZ09 ._/-\t\n\r\x0b\x1c\x1d\x1e\x1f\x85\xa0ſK"
    "٣५１é,;()$"
)
_edge_text = st.text(
    alphabet=st.one_of(st.sampled_from(_EDGE), st.characters()),
    max_size=80,
)


def _symbols_then_numbers_stepwise(line):
    line = re.sub(r"[^\.\w ]", " ", line)
    line = re.sub(r"\_", " ", line)
    line = re.sub(r"\d+[\.]?\d+/", " ", line)
    return re.sub(r"\d", " ", line)


def _clean_sentences_stepwise(lines):
    out = []
    for line in lines:
        if not re.match(r"\w", line):
            continue
        line = re.sub(r"\W", " ", line)
        line = re.sub(r"\s+", " ", line)
        line = re.sub(r"^\s+", "", line)
        line = re.sub(r"\s+$", "", line)
        if len(line) <= 3:
            continue
        out.append(line.lower())
    return out


@settings(max_examples=500, deadline=None)
@given(_edge_text)
def test_strip_symbols_and_numbers_fused(line):
    want = _symbols_then_numbers_stepwise(line)
    assert psv.strip_numbers(psv.strip_symbols(line)) == want
    assert psv.strip_symbols_and_numbers(line) == want


@settings(max_examples=500, deadline=None)
@given(st.lists(_edge_text, max_size=4))
def test_clean_sentences_fused(lines):
    assert psv.clean_sentences(lines) == _clean_sentences_stepwise(lines)
