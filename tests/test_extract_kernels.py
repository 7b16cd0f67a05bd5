"""Unit tests for HTML/PDF extraction, sniffing and the cascade."""

import pytest

from zzzarchived_arxiv_fulltext_ray.functions import (
    cascade,
    html_main,
    pdf_text,
    sniff,
)
from zzzarchived_arxiv_fulltext_ray.sources import pages as pages_synth

ARTICLE_PARAS = [
    "The first paragraph talks about dataflow engines, with commas, "
    "and enough length to score as real content.",
    "A second paragraph continues the discussion of streaming "
    "execution, backpressure, and object stores in some detail.",
]


def _page_html(doc_id: int = 7) -> str:
    return pages_synth._boilerplate_html(
        doc_id, "\n\n".join(ARTICLE_PARAS), "utf-8"
    )


class TestHtmlMain:
    def test_article_beats_boilerplate(self):
        text = html_main.extract_main_text(_page_html())
        assert text == "\n\n".join(ARTICLE_PARAS)
        assert "Privacy" not in text and "Home" not in text

    def test_entities_resolved(self):
        markup = "<article><p>fish &amp; chips &lt;now&gt; " + "x" * 40 + "</p></article>"
        assert "fish & chips <now>" in html_main.extract_main_text(markup)

    def test_bare_page_fallback(self):
        markup = "<html><body>just some text with no candidates</body></html>"
        assert "just some text" in html_main.extract_main_text(markup)

    def test_all_text_includes_boilerplate(self):
        text = html_main.extract_all_text(_page_html())
        assert "Privacy" in text and ARTICLE_PARAS[0] in text


class TestPdf:
    def test_roundtrip_uncompressed(self):
        text = "line one\nline two with (parens) and \\backslash\n\nlast"
        pdf = pdf_text.write_minimal_pdf(text)
        assert pdf.startswith(b"%PDF-")
        assert pdf_text.extract_pdf_text(pdf) == text

    def test_roundtrip_flate(self):
        text = "compressed content line\nsecond line"
        pdf = pdf_text.write_minimal_pdf(text, compress=True)
        assert pdf_text.extract_pdf_text(pdf) == text

    @pytest.mark.parametrize("text,last", [
        ("compressed line 10", b"\r"),
        ("w" * 32 + "182", b"\n"),
    ])
    def test_roundtrip_flate_ending_in_eol_byte(self, text, last):
        # the deflate stream's own last byte is CR or LF: only the EOL
        # before ``endstream`` may be dropped, not that byte
        pdf = pdf_text.write_minimal_pdf(text, compress=True)
        body = pdf[pdf.index(b"stream\n") + 7:pdf.index(b"\nendstream")]
        assert body.endswith(last)
        assert pdf_text.extract_pdf_text(pdf) == text

    def test_unicode_payload(self):
        text = "naïve café — ligature ﬁ"
        pdf = pdf_text.write_minimal_pdf(text)
        assert pdf_text.extract_pdf_text(pdf) == text

    def test_not_a_pdf(self):
        with pytest.raises(pdf_text.PdfParseError):
            pdf_text.extract_pdf_text(b"not a pdf")

    def test_no_text_stream(self):
        with pytest.raises(pdf_text.PdfParseError):
            pdf_text.extract_pdf_text(b"%PDF-1.4\nno streams here")

    def test_salvage_recovers_bt_stripped_pdf(self):
        """E2/E3 parity: primary fails on a PDF whose BT marker is
        gone; the salvage pass round-trips the text exactly."""
        text = "salvaged line one\nsalvaged line two"
        broken = pdf_text.write_minimal_pdf(text).replace(b"BT ", b"", 1)
        with pytest.raises(pdf_text.PdfParseError):
            pdf_text.extract_pdf_text(broken)
        assert pdf_text.extract_pdf_text_salvage(broken) == text

    def test_salvage_raises_without_streams(self):
        with pytest.raises(pdf_text.PdfParseError):
            pdf_text.extract_pdf_text_salvage(b"%PDF-1.4\nnothing")


class TestSniff:
    def test_kinds(self):
        assert sniff.sniff_kind(b"") == "empty"
        assert sniff.sniff_kind(b"%PDF-1.4 etc") == "pdf"
        assert sniff.sniff_kind(b"<!DOCTYPE html><html>") == "html"
        assert sniff.sniff_kind(b"<div class=x>hello</div>") == "html"
        assert sniff.sniff_kind(b"plain old text here") == "text"
        assert sniff.sniff_kind(b"\x00\x01\x02binary") == "binary"

    def test_charsets(self):
        assert sniff.detect_charset(b"plain ascii") == "utf-8"
        assert (
            sniff.detect_charset(
                b'<meta charset="iso-8859-1"><html>caf\xe9'
            )
            == "iso-8859-1"
        )
        assert sniff.detect_charset(b"caf\xe9 latin") == "latin-1"
        assert sniff.detect_charset("café".encode()) == "utf-8"


class TestCascade:
    def test_html_success(self):
        res = cascade.extract_payload(_page_html().encode(), None, "u")
        assert res.status == "succeeded"
        assert res.text == "\n\n".join(ARTICLE_PARAS)
        assert res.payload_kind == "html"

    def test_empty_with_fallback_text(self):
        res = cascade.extract_payload(b"", "already extracted text here", "u")
        assert res.status == "succeeded"
        assert res.payload_kind == "text"

    def test_empty_without_fallback(self):
        res = cascade.extract_payload(b"", None, "http://x")
        assert res.status == "failed"
        assert 'No content in "http://x"' == res.error

    def test_quality_gate_failure(self):
        markup = pages_synth._boilerplate_html(3, "x" * 30000, "utf-8")
        res = cascade.extract_payload(markup.encode(), None, "http://g")
        assert res.status == "failed"
        assert "No accurate text" in res.error

    def test_binary_fails(self):
        res = cascade.extract_payload(b"\x00\xff\xfe junk", None, "u")
        assert res.status == "failed"
        assert res.payload_kind == "binary"

    def test_oversized_fails_fast(self):
        res = cascade.extract_payload(b"x" * 10, None, "u")
        assert res.status == "succeeded"
        big = b"<html>" + b"x" * (cascade.MAX_PAYLOAD_BYTES + 1)
        res = cascade.extract_payload(big, None, "u")
        assert res.status == "failed"
        assert "timeout analogue" in res.error

    def test_pdf_payload(self):
        pdf = pdf_text.write_minimal_pdf("pdf body text with words")
        res = cascade.extract_payload(pdf, None, "u")
        assert res.status == "succeeded"
        assert res.text == "pdf body text with words"

    def test_pdf_fallback_to_salvage(self):
        """Cascade E2 path: broken primary, salvage succeeds (kind 8
        of the synthesizer)."""
        text = "words recovered by the alternate extraction pass"
        broken = pdf_text.write_minimal_pdf(text).replace(b"BT ", b"", 1)
        res = cascade.extract_payload(broken, None, "u")
        assert res.status == "succeeded"
        assert res.text == text
        assert res.payload_kind == "pdf"

    def test_pdf_unrecoverable_fails_as_data(self):
        res = cascade.extract_payload(b"%PDF-1.4\nnothing here", None, "u")
        assert res.status == "failed"
        assert "PDF extraction failed" in res.error


def test_utf16_bom_payload_roundtrip():
    """BOM'd UTF-16 html decodes without a leftover BOM char."""
    markup = "<html><body><p>" + "utf sixteen content here " * 5 + "</p></body></html>"
    payload = markup.encode("utf-16")  # writes a BOM
    kind, charset = sniff.sniff(payload)
    decoded = sniff.decode_payload(payload, charset)
    assert decoded == markup
    assert not decoded.startswith("﻿")


class TestSingleDocApi:
    def test_plain_and_psv(self):
        from zzzarchived_arxiv_fulltext_ray.pipelines.api import extract_document

        payload = _page_html().encode()
        rec = extract_document(payload, identifier="doc-7")
        assert rec["status"] == "succeeded"
        assert rec["content"] == "\n\n".join(ARTICLE_PARAS)
        assert rec["format"] == "plain"
        assert rec["ended"] >= rec["started"]

        from zzzarchived_arxiv_fulltext_ray.functions.psv import (
            normalize_text_psv,
        )

        rec2 = extract_document(payload, identifier="doc-7", fmt="psv")
        assert rec2["content"] == normalize_text_psv(rec["content"])

    def test_failure_record(self):
        from zzzarchived_arxiv_fulltext_ray.pipelines.api import extract_document

        rec = extract_document(b"", identifier="missing-1")
        assert rec["status"] == "failed"
        assert rec["content"] is None
        assert "No content" in rec["exception"]

    def test_bad_format_rejected(self):
        from zzzarchived_arxiv_fulltext_ray.pipelines.api import extract_document

        with pytest.raises(ValueError):
            extract_document(b"x", fmt="xml")
