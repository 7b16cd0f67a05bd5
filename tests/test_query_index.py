"""QUERIES.md is generated; it must match the current query surface.
Needs no Ray session: rendering only imports the query modules and
reads docstrings."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))


def test_queries_md_is_current():
    import gen_query_index

    assert (ROOT / "QUERIES.md").read_text() == gen_query_index.render(), (
        "QUERIES.md is stale: run python scripts/gen_query_index.py"
    )
