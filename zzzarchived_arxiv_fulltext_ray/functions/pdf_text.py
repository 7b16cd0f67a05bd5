"""Minimal PDF text extraction + a tiny deterministic PDF writer (kernel).

The sandbox has no pdfminer/poppler, so this module implements the
subset needed for the pipeline's PDF payloads: content-stream text
operators (Tj / TJ / ' / " with Td/TD/T*/BT line breaks) over literal
and FlateDecode streams. When ``pdfminer.six`` is importable it is
preferred automatically (the scale path on a real cluster image) —
this mirrors the reference's pdf2txt step (E1, SURVEY.md §2.3,
``extractor/fulltext/fulltext.py:50-78``); the lightweight parser
below is the in-process stand-in.

``write_minimal_pdf`` produces a small single-page uncompressed PDF
whose text round-trips byte-identically through ``extract_pdf_text``
(strings carry UTF-8 bytes with PDF escapes) — used by the synthetic
pages table and the tests.
"""

import os
import re
import zlib
from typing import List, Optional

try:  # pragma: no cover - not present in the sandbox image
    from pdfminer.high_level import extract_text as _pdfminer_extract
except Exception:  # ImportError and friends
    _pdfminer_extract = None

# pdfminer is OPT-IN (RAYX_PDFMINER=1): its layout whitespace differs
# from the built-in parser's exact round-trip, which the oracle /
# byte-identity contract assumes. On a cluster image with pdfminer
# installed, enabling it silently would flip extract_text hashes.
_PDFMINER_ENABLED = os.environ.get("RAYX_PDFMINER") == "1"

PDF_MAGIC = b"%PDF-"

_STREAM_RE = re.compile(rb"stream\r?\n(.*?)endstream", re.DOTALL)
_FLATE_RE = re.compile(rb"/Filter\s*/FlateDecode")
_OBJ_HEADER_RE = re.compile(rb"<<.*?>>\s*stream", re.DOTALL)

_ESCAPES = {
    ord("n"): b"\n", ord("r"): b"\r", ord("t"): b"\t",
    ord("b"): b"\b", ord("f"): b"\f",
    ord("("): b"(", ord(")"): b")", ord("\\"): b"\\",
}


class PdfParseError(ValueError):
    """Raised when no text layer can be recovered from a PDF payload."""


def _decode_pdf_string(raw: bytes) -> bytes:
    """Resolve PDF literal-string escapes inside ``(...)``."""
    out = bytearray()
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c != 0x5C:  # backslash
            out.append(c)
            i += 1
            continue
        i += 1
        if i >= n:
            break
        e = raw[i]
        if e in _ESCAPES:
            out += _ESCAPES[e]
            i += 1
        elif 0x30 <= e <= 0x37:  # octal \ddd (1-3 digits)
            j = i
            while j < n and j - i < 3 and 0x30 <= raw[j] <= 0x37:
                j += 1
            out.append(int(raw[i:j], 8) & 0xFF)
            i = j
        elif e in (0x0A, 0x0D):  # line continuation
            i += 1
            if e == 0x0D and i < n and raw[i] == 0x0A:
                i += 1
        else:
            out.append(e)
            i += 1
    return bytes(out)


# TJ displacement (thousandths of em, negative = rightward gap) at or
# beyond which a kern reads as an inter-word space
KERN_SPACE_THRESHOLD = -180.0


def _tokenize_content(stream: bytes):
    """Yield ('str', bytes) for literal/hex strings and ('op', name)
    for operators from a PDF content stream."""
    i = 0
    n = len(stream)
    while i < n:
        c = stream[i]
        if c == 0x28:  # (
            depth = 1
            j = i + 1
            start = j
            while j < n and depth:
                cj = stream[j]
                if cj == 0x5C:
                    j += 2
                    continue
                if cj == 0x28:
                    depth += 1
                elif cj == 0x29:
                    depth -= 1
                j += 1
            yield ("str", _decode_pdf_string(stream[start : j - 1]))
            i = j
        elif c == 0x3C and i + 1 < n and stream[i + 1] != 0x3C:  # <hex>
            j = stream.find(b">", i)
            if j == -1:
                break
            hexbody = re.sub(rb"\s", b"", stream[i + 1 : j])
            if len(hexbody) % 2:
                hexbody += b"0"
            try:
                yield ("str", bytes.fromhex(hexbody.decode("ascii")))
            except ValueError:
                pass
            i = j + 1
        elif (0x41 <= c <= 0x5A) or (0x61 <= c <= 0x7A) or c in (0x27, 0x22):
            j = i
            while j < n and stream[j] not in b" \t\r\n()<>[]/%":
                j += 1
            yield ("op", stream[i:j].decode("latin-1"))
            i = j
        elif c == 0x25:  # comment
            j = stream.find(b"\n", i)
            i = n if j == -1 else j + 1
        elif c in (0x5B, 0x5D):  # [ ] — TJ array delimiters
            yield ("bracket", chr(c))
            i += 1
        elif (0x30 <= c <= 0x39) or c in (0x2B, 0x2D, 0x2E):  # number
            j = i + 1
            while j < n and (
                0x30 <= stream[j] <= 0x39 or stream[j] in (0x2E, 0x2D, 0x2B)
            ):
                j += 1
            try:
                yield ("num", float(stream[i:j]))
            except ValueError:
                pass
            i = j
        else:
            i += 1


def _decode_text_bytes(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def _inflate(body: bytes) -> Optional[bytes]:
    """A FlateDecode stream's content, or None when it is not one whole
    deflate stream. ``_STREAM_RE`` already consumed the EOL after
    ``stream``; the EOL before ``endstream`` is left over after the
    deflate stream ends and ignored — never stripped, since the
    compressed bytes themselves may end in CR or LF."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(body)
    except zlib.error:
        return None
    return out if inflater.eof else None


def extract_text_from_streams(payload: bytes, require_bt: bool = True) -> str:
    """Text-show operators across all content streams, line-structured.

    ``require_bt=True`` (primary, E1 analogue) only reads streams with
    a ``BT`` text block — the well-formed path. ``require_bt=False``
    is the salvage pass (E2/E3 fallback analogue,
    ``extractor/fulltext/fulltext.py:156-178``): it scans EVERY
    decodable stream for text-show operators, recovering text from
    PDFs whose text blocks are damaged or mislabeled."""
    lines: List[str] = []
    current: List[str] = []
    pending: List[bytes] = []

    def newline():
        if pending:
            current.append(_decode_text_bytes(b"".join(pending)))
            pending.clear()
        if current:
            lines.append("".join(current))
            current.clear()

    found_stream = False
    for m in _STREAM_RE.finditer(payload):
        body = m.group(1)
        header_start = payload.rfind(b"<<", 0, m.start())
        header = payload[header_start : m.start()] if header_start != -1 else b""
        if _FLATE_RE.search(header):
            body = _inflate(body)
            if body is None:
                continue
        if require_bt and b"BT" not in body:
            continue
        found_stream = True
        in_array = False
        for kind, value in _tokenize_content(body):
            if kind == "str":
                pending.append(value)
            elif kind == "bracket":
                in_array = value == "["
            elif kind == "num":
                # TJ kerning: real-world PDFs (TeX especially) encode
                # inter-word gaps as negative glyph displacements, not
                # space glyphs; a displacement beyond ~0.18 em reads as
                # a word break (the standard naive-extractor heuristic)
                if (
                    in_array
                    and value <= KERN_SPACE_THRESHOLD
                    and pending
                    and not pending[-1].endswith(b" ")
                ):
                    pending.append(b" ")
            elif value in ("Td", "TD", "T*", "BT"):
                newline()
            elif value in ("Tj", "TJ"):
                if pending:
                    current.append(_decode_text_bytes(b"".join(pending)))
                    pending.clear()
            elif value in ("'", '"'):
                newline()
                if pending:
                    current.append(_decode_text_bytes(b"".join(pending)))
                    pending.clear()
            elif value == "ET":
                newline()
    newline()

    if not found_stream:
        raise PdfParseError("no text content stream found")
    return "\n".join(lines)


def extract_pdf_text(payload: bytes, prefer_pdfminer: bool = None) -> str:
    """Extract the text layer of a PDF payload (primary strategy).

    pdfminer.six is used only when installed AND explicitly enabled
    via ``RAYX_PDFMINER=1`` (or ``prefer_pdfminer=True``) — see the
    module-level note on the byte-identity contract. Raises
    :class:`PdfParseError` for payloads with no recoverable text.
    """
    if not payload.startswith(PDF_MAGIC):
        raise PdfParseError("not a PDF payload (missing %PDF- magic)")
    if prefer_pdfminer is None:
        prefer_pdfminer = _PDFMINER_ENABLED
    if prefer_pdfminer and _pdfminer_extract is not None:  # pragma: no cover
        import io

        return _pdfminer_extract(io.BytesIO(payload))
    return extract_text_from_streams(payload)


def extract_pdf_text_salvage(payload: bytes) -> str:
    """Alternate / salvage PDF strategy (E2/E3 parity): tolerant pass
    over every decodable stream, no BT requirement — the engine's
    analogue of the reference's pdftotext fallback + pdf2txt ``-A``
    retry (``extractor/fulltext/fulltext.py:81-130``). Raises
    :class:`PdfParseError` when even salvage finds no stream."""
    if not payload.startswith(PDF_MAGIC):
        raise PdfParseError("not a PDF payload (missing %PDF- magic)")
    return extract_text_from_streams(payload, require_bt=False)


# -- deterministic writer ----------------------------------------------------

def _escape_pdf_string(raw: bytes) -> bytes:
    return (
        raw.replace(b"\\", b"\\\\")
        .replace(b"(", b"\\(")
        .replace(b")", b"\\)")
        .replace(b"\r", b"\\r")
        .replace(b"\n", b"\\n")
    )


def write_minimal_pdf(text: str, compress: bool = False) -> bytes:
    """A tiny single-page PDF whose text layer round-trips exactly.

    One ``Tj`` per input line; UTF-8 bytes inside literal strings.
    """
    content_ops = [b"BT /F1 10 Tf 72 720 Td 12 TL"]
    for line in text.split("\n"):
        content_ops.append(
            b"(" + _escape_pdf_string(line.encode("utf-8")) + b") Tj T*"
        )
    # the final T* starts an empty line that never flushes text, so the
    # reader reproduces the original line structure exactly
    content_ops.append(b"ET")
    content = b"\n".join(content_ops)

    if compress:
        body = zlib.compress(content)
        stream_dict = b"<< /Length %d /Filter /FlateDecode >>" % len(body)
    else:
        body = content
        stream_dict = b"<< /Length %d >>" % len(body)

    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>",
        stream_dict + b"\nstream\n" + body + b"\nendstream",
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    ]

    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, obj in enumerate(objects, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % i + obj + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n" % (len(objects) + 1)
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += (
        b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
        % (len(objects) + 1, xref_at)
    )
    return bytes(out)
