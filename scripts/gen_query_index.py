"""Regenerate QUERIES.md — the flat index of every driver query:
name, one-line description (from the query callable's docstring),
and whether it carries a DuckDB hash oracle or is rows-only (with
the declared reason living in the docstring).

Run after adding queries: python scripts/gen_query_index.py
(``tests/test_query_index.py`` fails while QUERIES.md is stale).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))


def render() -> str:
    """The text of QUERIES.md for the current query surface."""
    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()
    lines = [
        "# Driver query index",
        "",
        f"{len(qs)} queries, {len(oracles)} with DuckDB hash oracles "
        "(rows-only entries declare why SQL cannot express them in "
        "their docstrings). Regenerate with "
        "`python scripts/gen_query_index.py`.",
        "",
        "| query | oracle | summary |",
        "|---|---|---|",
    ]
    for name in sorted(qs):
        doc = (qs[name].__doc__ or "").strip().splitlines()
        first = doc[0].strip() if doc else ""
        mark = "hash" if name in oracles else "rows-only"
        lines.append(f"| `{name}` | {mark} | {first} |")
    return "\n".join(lines) + "\n"


def main():
    out = ROOT / "QUERIES.md"
    out.write_text(render())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
