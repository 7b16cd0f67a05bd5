"""Ground truth that does not come from the extractor.

* Extraction rows: the synthesizer embeds each document's text, so the
  expected output per url is known from ``documents`` alone: status
  from ``sources.pages.expected_status``, text = the document text
  repeated ``expand`` times, latest ``warc_ts`` from the synthesizer's
  crawl clock, PSV = ``normalize_text_psv(expected text)`` and markdown
  from the DuckDB ``extract_markdown`` oracle.
* Query results: each query's DuckDB oracle over the same tables,
  compared by row count, column names and an order-insensitive value
  hash (the comparison ``scripts/check_oracle.py`` makes).
"""

import hashlib
from pathlib import Path
from typing import Dict, List, Sequence

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def expected_rows(docs: pa.Table, expand: int, markdown: bool) -> Dict:
    """url -> expected output fields for one extraction workload."""
    from zzzarchived_arxiv_fulltext_ray.functions.psv import (
        normalize_text_psv,
    )
    from zzzarchived_arxiv_fulltext_ray.sources.pages import (
        DUP_EVERY,
        N_CRAWLS,
        expected_status,
        url_for,
        warc_ts_for,
    )

    md = markdown_oracle(docs) if markdown else {}
    out = {}
    for doc_id, text in zip(docs["doc_id"].to_pylist(),
                            docs["text"].to_pylist()):
        url = url_for(doc_id)
        ok = expected_status(doc_id) == "succeeded"
        want = " ".join([text] * expand) if ok else None
        last = N_CRAWLS - 1 if doc_id % DUP_EVERY == 0 else 0
        row = {
            "status": expected_status(doc_id),
            "text": want,
            "warc_ts": warc_ts_for(doc_id, last),
            "psv": normalize_text_psv(want) if ok else None,
        }
        if markdown:
            row["markdown"] = md.get(url)
        out[url] = row
    return out


def markdown_oracle(docs: pa.Table) -> Dict[str, str]:
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import ORACLE_SQL

    con = duckdb.connect()
    con.register("documents", docs)
    rows = con.execute(ORACLE_SQL["extract_markdown"]).fetchall()
    con.close()
    return dict(rows)


def check_extraction(out: pa.Table, want: Dict) -> int:
    """Wrong, missing or extra rows of one extraction output."""
    bad = 0
    seen = set()
    cols = [c for c in ("status", "text", "warc_ts", "psv", "markdown")
            if c in next(iter(want.values()))]
    got = out.select(["url"] + cols).to_pylist()
    for row in got:
        url = row["url"]
        exp = want.get(url)
        if exp is None or url in seen:
            bad += 1
            continue
        seen.add(url)
        if any(row[c] != exp[c] for c in cols):
            bad += 1
    return bad + len(set(want) - seen)


def read_output(path: Path) -> pa.Table:
    files = sorted(Path(path).rglob("*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="default")


def content_hash(rows: Sequence[Sequence]) -> int:
    """Order-independent blake2b row hash, the manifest's recipe."""
    total = 0
    for values in rows:
        h = hashlib.blake2b(digest_size=8)
        for v in values:
            h.update(repr(v).encode())
            h.update(b"\x1f")
        total = (total + int.from_bytes(h.digest(), "big")) % (1 << 64)
    return total


def expected_content_hash(want: Dict) -> int:
    return content_hash((url, r["text"]) for url, r in want.items())


# -- query oracles ----------------------------------------------------------

def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive hash of a result frame: columns sorted,
    timestamps as strings, floats rounded to 6 places, nulls as None."""
    import numpy as np

    df = df.reindex(sorted(df.columns), axis=1)
    for col in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[col]):
            df[col] = df[col].astype("datetime64[us]").astype(str)
        elif pd.api.types.is_float_dtype(df[col]):
            df[col] = df[col].round(6)

    def norm(v):
        if isinstance(v, (list, tuple, dict, np.ndarray)):
            return v
        if v is None or pd.isna(v):
            return None
        if isinstance(v, np.integer):
            return int(v)
        if isinstance(v, np.floating):
            return float(v)
        return v

    rows = sorted(
        (tuple(norm(v) for v in row)
         for row in df.itertuples(index=False, name=None)),
        key=repr,
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def signature(df: pd.DataFrame) -> tuple:
    return (len(df), tuple(sorted(df.columns)), value_hash(df))


def shingle_jaccard_pairs(documents: Path) -> pd.DataFrame:
    """The ``dedup_ngram`` oracle restated in Python: distinct word
    3-gram sets (a shorter text is one shingle, an empty one none) and
    every doc pair with Jaccard >= 0.5. Candidate pairs come from an
    inverted index, so the cost follows the pairs that share a shingle,
    not all pairs."""
    import re

    t = pq.read_table(documents, columns=["doc_id", "text"])
    sets = {}
    for doc_id, text in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
        w = [x for x in re.split(r"\s+", text) if x]
        if len(w) < 3:
            sets[doc_id] = {" ".join(w)} if w else set()
        else:
            sets[doc_id] = {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}
    index: Dict[str, List[int]] = {}
    for doc_id, s in sets.items():
        for sh in s:
            index.setdefault(sh, []).append(doc_id)
    candidates = set()
    for ids in index.values():
        ids = sorted(ids)
        candidates.update((a, b) for i, a in enumerate(ids)
                          for b in ids[i + 1:])
    rows = []
    for a, b in sorted(candidates):
        union = len(sets[a] | sets[b])
        jac = len(sets[a] & sets[b]) / union
        if jac >= 0.5:
            rows.append((a, b, jac))
    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])


def query_oracles(tables_dir: Path, names: List[str]) -> Dict:
    """name -> (rows, columns, value hash) from the DuckDB oracles."""
    from zzzarchived_arxiv_fulltext_ray.pipelines.queries import ORACLE_SQL

    con = duckdb.connect()
    for f in sorted(Path(tables_dir).glob("*.parquet")):
        con.execute(
            f"CREATE VIEW {f.stem} AS SELECT * FROM read_parquet('{f}')"
        )
    out = {}
    for name in names:
        out[name] = signature(con.execute(ORACLE_SQL[name]).fetchdf())
    con.close()
    return out
