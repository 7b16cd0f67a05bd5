"""The one crossover decision, ``plan.broadcast(site, rows, nbytes)``:
forced mode wins, the row cap, the byte budget and its env override,
one log record per decision — and a guard that no plan choice probes
a schema or bypasses the decision."""

import ast
import logging
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.stages import plan

PKG = Path(__file__).resolve().parent.parent / "zzzarchived_arxiv_fulltext_ray"


@pytest.fixture
def normal_mode(monkeypatch):
    monkeypatch.delenv("GRAFT_FORCE_PARTITIONED", raising=False)
    monkeypatch.delenv("GRAFT_BROADCAST_BYTES_LIMIT", raising=False)


def test_row_limit_still_applies(normal_mode):
    """The row cap: at most ``plan.ROW_CAP`` rows broadcast, and the cap
    is no larger than the smallest per-site limit it replaced."""
    assert plan.ROW_CAP <= 1_000_000
    assert plan.broadcast("t", plan.ROW_CAP, 16)
    assert not plan.broadcast("t", plan.ROW_CAP + 1, 16)
    assert plan.broadcast("t", 0, 0)


def test_fat_rows_flip_the_plan(normal_mode):
    """A 4096-dim float64 embedding side: 70k rows pass the row cap but
    their 2.1 GiB exceed the 2 GiB byte budget — the decision takes the
    exchange where the row count alone would broadcast."""
    n_rows = 70_000
    assert n_rows <= plan.ROW_CAP
    assert not plan.broadcast("t", n_rows, n_rows * 4096 * 8)
    # thin rows at the same count still broadcast
    assert plan.broadcast("t", n_rows, n_rows * 16)
    assert plan.broadcast("t", 1, plan.DEFAULT_BROADCAST_BYTES_LIMIT)
    assert not plan.broadcast("t", 1, plan.DEFAULT_BROADCAST_BYTES_LIMIT + 1)


def test_byte_limit_env_override(normal_mode, monkeypatch):
    monkeypatch.setenv("GRAFT_BROADCAST_BYTES_LIMIT", "1000")
    assert plan.broadcast_bytes_limit() == 1000
    assert not plan.broadcast("t", 100, 1001)
    assert plan.broadcast("t", 100, 1000)


def test_force_partitioned_wins(monkeypatch):
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    assert plan.force_partitioned()
    assert not plan.broadcast("t", 0, 0)
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "0")
    assert not plan.force_partitioned()
    assert plan.broadcast("t", 0, 0)


def test_one_log_record_per_decision(normal_mode, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger=plan.__name__)
    plan.broadcast("site_a", 10, 160)
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    plan.broadcast("site_b", 7, 56)
    records = [r for r in caplog.records if r.name == plan.__name__]
    assert [r.getMessage() for r in records] == [
        "plan site=site_a rows=10 bytes=160 choice=broadcast",
        "plan site=site_b rows=7 bytes=56 choice=exchange",
    ]


def _violations(path: Path):
    """``.schema()`` calls that may execute (no
    ``fetch_if_missing=False``) and any ``choose_broadcast`` name."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = (
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else None
        )
        if name == "choose_broadcast":
            out.append(f"{path.name}:{node.lineno} choose_broadcast")
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "schema"):
            continue
        owner = node.func.value
        if isinstance(owner, ast.Name) and owner.id in ("pa", "pyarrow"):
            continue  # pyarrow.schema(...) builds a schema
        if not any(
            k.arg == "fetch_if_missing"
            and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in node.keywords
        ):
            out.append(f"{path.name}:{node.lineno} .schema()")
    return out


def test_no_schema_probe_or_second_crossover():
    """A Dataset ``.schema()`` without ``fetch_if_missing=False``
    executes ``limit(1)`` of a lazy input, and a plan choice outside
    ``plan.broadcast`` bypasses the one crossover: neither may appear
    in ``stages/`` or ``pipelines/``."""
    found = [
        v
        for sub in ("stages", "pipelines")
        for path in sorted((PKG / sub).glob("*.py"))
        for v in _violations(path)
    ]
    assert found == []


def test_guard_flags_what_it_should(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import pyarrow as pa\n"
        "def f(ds):\n"
        "    s = ds.schema()\n"
        "    t = ds.schema(fetch_if_missing=True)\n"
        "    ok = ds.schema(fetch_if_missing=False)\n"
        "    fine = pa.schema([])\n"
        "    return plan.choose_broadcast(1, 2)\n"
    )
    assert _violations(bad) == [
        "bad.py:3 .schema()",
        "bad.py:4 .schema()",
        "bad.py:7 choose_broadcast",
    ]


def test_forced_twins_identical_end_to_end(ray_session, monkeypatch):
    """Representative end-to-end equality: decontaminate and
    latest_crawl produce identical results with every broadcast fast
    path disabled (the GRAFT_FORCE_PARTITIONED=1 gate contract)."""
    import ray.data as rd

    from zzzarchived_arxiv_fulltext_ray.stages.dedup import latest_crawl
    from zzzarchived_arxiv_fulltext_ray.stages.webtext import decontaminate

    rng = np.random.default_rng(7)
    docs = pa.table(
        {
            "doc_id": pa.array(range(60), pa.int64()),
            "text": [
                " ".join(
                    f"w{rng.integers(0, 30)}" for _ in range(20)
                )
                for _ in range(60)
            ],
        }
    )
    bench = docs.slice(0, 5)
    pages = pa.table(
        {
            "url": [f"u{i % 20}" for i in range(40)],
            "warc_ts": pa.array(
                [20200101 + i for i in range(40)], pa.int64()
            ),
            "body": [f"b{i}" for i in range(40)],
        }
    )

    def run_all():
        d = (
            decontaminate(rd.from_arrow(docs), rd.from_arrow(bench), n=3)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        l = (
            latest_crawl(rd.from_arrow(pages))
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        return d, l

    monkeypatch.delenv("GRAFT_FORCE_PARTITIONED", raising=False)
    d0, l0 = run_all()
    assert len(d0) > 0 and len(l0) == 20
    monkeypatch.setenv("GRAFT_FORCE_PARTITIONED", "1")
    d1, l1 = run_all()
    assert d0.equals(d1)
    assert l0[["url", "warc_ts"]].equals(l1[["url", "warc_ts"]])
