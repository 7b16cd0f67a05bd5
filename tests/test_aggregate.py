"""stages/aggregate.py against brute force on seeded, shuffled,
multi-block inputs with empty batches.

``aggregate`` against pandas ``groupby``: int, string and composite
keys, sum / count / min / max (min and max over strings too), nulls in
value and key columns, an all-empty input and the keyless path.
``exchange`` against the partition its contract names: every row in
exactly one call, every key in one call, one call per bucket, no
``__bucket`` column in sight. A source scan pins it as the package's
one hash exchange."""

import re
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from zzzarchived_arxiv_fulltext_ray.functions.hashing import hash64_column
from zzzarchived_arxiv_fulltext_ray.stages.aggregate import (
    _BUCKETS,
    _bucket,
    aggregate,
    exchange,
)

AGGS = [
    ("n", "count", None),
    ("nv", "count", "v"),
    ("sv", "sum", "v"),
    ("mnv", "min", "v"),
    ("mxv", "max", "v"),
    ("mnt", "min", "t"),
    ("mxt", "max", "t"),
]


def _blocks(seed: int, sizes, null_keys: bool = False):
    """One Arrow table per block, rows shuffled. ``v`` (int64) and
    ``t`` (string, non-ASCII included) hold nulls; with
    ``null_keys`` the keys ``k`` and ``s`` do too."""
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        k = rng.integers(0, 7, n)
        s = rng.choice(np.array(["a", "b", "é", "zz"], dtype=object), n)
        v = rng.integers(-50, 50, n)
        t = rng.choice(np.array(["x", "ß", "yy", "Ω"], dtype=object), n)
        k_null = null_keys & (rng.random(n) < 0.2)
        s_null = null_keys & (rng.random(n) < 0.2)
        out.append(
            pa.table(
                {
                    "k": pa.array(k, pa.int64(), mask=k_null),
                    "s": pa.array(s, pa.string(), mask=s_null),
                    "v": pa.array(v, pa.int64(), mask=rng.random(n) < 0.2),
                    "t": pa.array(t, pa.string(), mask=rng.random(n) < 0.2),
                }
            )
        )
    return out


def _want(table: pa.Table, keys) -> pd.DataFrame:
    """The brute force: SQL aggregate semantics (nulls skipped, a
    group without a value gives null; null keys form one group)."""
    g = table.to_pandas().groupby(keys, dropna=False, sort=True)

    def non_null(fn):
        return lambda x: fn(x.dropna()) if x.notna().any() else None

    return pd.DataFrame(
        {
            "n": g.size(),
            "nv": g["v"].count(),
            "sv": g["v"].sum(min_count=1),
            "mnv": g["v"].min(),
            "mxv": g["v"].max(),
            "mnt": g["t"].agg(non_null(min)),
            "mxt": g["t"].agg(non_null(max)),
        }
    ).reset_index()


def _norm(x):
    """NaN/None -> None; integral floats (pandas widens int columns
    that hold nulls) and numpy scalars -> plain Python values."""
    if pd.isna(x):
        return None
    x = x.item() if hasattr(x, "item") else x
    return int(x) if isinstance(x, float) and x.is_integer() else x


def _rows(df: pd.DataFrame, keys):
    """Order-free, null-normalized rows of a result frame."""
    cols = list(keys) + [out for out, _, _ in AGGS]
    rows = [tuple(map(_norm, r)) for r in df[cols].itertuples(index=False)]
    return sorted(rows, key=repr)


@pytest.mark.parametrize("keys", [["k"], ["s"], ["k", "s"]])
def test_grouped_matches_pandas(ray_session, keys):
    import ray.data as rd

    blocks = _blocks(3, [300, 0, 1, 250, 0, 80])
    got = aggregate(rd.from_arrow(blocks), keys, AGGS).to_pandas()
    assert list(got.columns) == keys + [out for out, _, _ in AGGS]
    assert got["n"].dtype == np.int64 and got["nv"].dtype == np.int64
    want = _want(pa.concat_tables(blocks), keys)
    assert _rows(got, keys) == _rows(want, keys)


def test_null_keys_form_one_group(ray_session):
    """All null keys fall in ONE group, as in SQL ``GROUP BY`` (Ray's
    own sort aggregate raises on a null string key)."""
    import ray.data as rd

    blocks = _blocks(5, [200, 150, 90], null_keys=True)
    whole = pa.concat_tables(blocks)
    for keys in (["s"], ["k"], ["k", "s"]):
        got = aggregate(rd.from_arrow(blocks), keys, AGGS).to_pandas()
        assert _rows(got, keys) == _rows(_want(whole, keys), keys)
    got = aggregate(rd.from_arrow(blocks), "s", [("n", "count", None)])
    df = got.to_pandas()
    assert df["s"].isna().sum() == 1
    assert int(df.loc[df["s"].isna(), "n"].iloc[0]) == whole["s"].null_count


def test_keyless_matches_pandas(ray_session):
    import ray.data as rd

    blocks = _blocks(7, [120, 0, 333, 7])
    whole = pa.concat_tables(blocks).to_pandas()
    got = aggregate(rd.from_arrow(blocks), [], AGGS)
    assert got == {
        "n": len(whole),
        "nv": int(whole["v"].count()),
        "sv": int(whole["v"].sum()),
        "mnv": int(whole["v"].min()),
        "mxv": int(whole["v"].max()),
        "mnt": min(whole["t"].dropna()),
        "mxt": max(whole["t"].dropna()),
    }


def test_all_empty_input(ray_session):
    """No rows in: a grouped aggregate gives no rows (Ray drops the
    columns of empty blocks, as its own aggregate does); the keyless
    one gives every declared output, 0 for a count and None else."""
    import ray.data as rd

    ds = rd.from_arrow(_blocks(0, [0, 0]))
    assert aggregate(ds, ["k", "s"], AGGS).count() == 0
    assert aggregate(ds, [], AGGS) == {
        "n": 0, "nv": 0, "sv": None, "mnv": None, "mxv": None,
        "mnt": None, "mxt": None,
    }


def test_keys_only_is_distinct(ray_session):
    import ray.data as rd

    blocks = _blocks(9, [100, 60])
    got = aggregate(rd.from_arrow(blocks), ["k", "s"], []).to_pandas()
    want = pa.concat_tables(blocks).to_pandas()[["k", "s"]].drop_duplicates()
    assert sorted(map(tuple, got.to_numpy().tolist())) == sorted(
        map(tuple, want.to_numpy().tolist())
    )


def test_bucket_xors_every_key():
    """Composite keys bucket on the XOR of the per-column hashes — the
    ``relational.partitioned_hash_join`` partitioner — so every key
    column moves the bucket."""
    t = _blocks(1, [500])[0]
    h = hash64_column(t["k"]) ^ hash64_column(t["s"])
    want = (h % np.uint64(_BUCKETS)).astype(np.int64)
    assert _bucket(t, ["k", "s"]).to_numpy().tolist() == want.tolist()
    one = (hash64_column(t["k"]) % np.uint64(_BUCKETS)).astype(np.int64)
    assert _bucket(t, ["k"]).to_numpy().tolist() == one.tolist()


def _numbered(blocks):
    """The blocks with a global row number ``i`` appended."""
    out, start = [], 0
    for b in blocks:
        i = pa.array(np.arange(start, start + b.num_rows), pa.int64())
        out.append(b.append_column("i", i))
        start += b.num_rows
    return out


def _stamper():
    """An ``exchange`` function that returns its call's row numbers,
    each stamped with an id of the call and the columns the call was
    handed (a closure, so Ray ships it by value to the workers)."""

    def stamp(g: pa.Table) -> pa.Table:
        n = g.num_rows
        return pa.table(
            {
                "i": g["i"],
                "call": pa.array([uuid.uuid4().hex] * n, pa.string()),
                "cols": pa.array([",".join(g.column_names)] * n),
            }
        )

    return stamp


def _check_partition(got: pd.DataFrame, whole: pa.Table, keys):
    calls = got.set_index("i")["call"]
    assert sorted(calls.index) == list(range(whole.num_rows))
    assert set(got["cols"]) == {",".join(whole.column_names)}
    call = calls.loc[np.arange(whole.num_rows)].to_numpy()
    bucket = _bucket(whole, keys).to_numpy()
    # call <-> bucket is one-to-one: the exchange partitions by _bucket
    pairs = set(zip(call, bucket))
    assert len(pairs) == len(set(call)) == len(set(bucket))
    df = whole.select(keys).to_pandas()
    df["call"] = call
    assert (df.groupby(keys, dropna=False)["call"].nunique() == 1).all()


@pytest.mark.parametrize("keys", [["k"], ["s"], ["k", "s"]])
@pytest.mark.parametrize("null_keys", [False, True])
def test_exchange_partitions_by_key(ray_session, keys, null_keys):
    import ray.data as rd

    blocks = _numbered(_blocks(11, [400, 0, 3, 250, 0, 90], null_keys))
    got = exchange(rd.from_arrow(blocks), keys, _stamper()).to_pandas()
    _check_partition(got, pa.concat_tables(blocks), keys)


def test_exchange_rows_projection(ray_session):
    """``rows`` runs first: ``fn`` sees only the projected columns and
    the exchange keys on a column the input does not have."""
    import ray.data as rd

    blocks = _numbered(_blocks(13, [300, 0, 120]))

    def project(b: pa.Table) -> pa.Table:
        return b.select(["i", "s", "k"]).rename_columns(["i", "s", "key"])

    got = exchange(rd.from_arrow(blocks), "key", _stamper(), rows=project)
    whole = project(pa.concat_tables(blocks))
    _check_partition(got.to_pandas(), whole, ["key"])


def test_null_in_a_batch_keeps_int_key_buckets(ray_session):
    """A null in an int key column must not move the bucket of the
    other keys of its batch: an int64 key above 2**53 from a block with
    a null and from one without meets itself in one group."""
    import ray.data as rd

    big = 2**60 + 1
    blocks = [
        pa.table({"k": pa.array([big, None], pa.int64()),
                  "i": pa.array([0, 1], pa.int64())}),
        pa.table({"k": pa.array([big], pa.int64()),
                  "i": pa.array([2], pa.int64())}),
    ]
    got = aggregate(rd.from_arrow(blocks), "k", [("n", "count", None)])
    df = got.to_pandas()
    assert sorted(df["n"].tolist()) == [1, 2]
    assert int(df.loc[df["k"] == big, "n"].iloc[0]) == 2


def test_exchange_empty_input(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_numbered(_blocks(0, [0, 0])))
    assert exchange(ds, ["k", "s"], _stamper()).count() == 0


def test_one_hash_exchange_in_the_package():
    """Every in-flight hash exchange goes through ``exchange``: no
    bucket tag of its own anywhere but ``dedup.dup_winner_table``'s
    coalesced winner pass, no ``__b`` / ``_bucket`` or ``bucket_key``
    groupby anywhere, no ``map_groups`` in the near-dup, fuzzy, top-k
    and window stages (the window scan sorts instead) and no Ray-native
    aggregate (``ray.data.aggregate``) anywhere."""
    pkg = Path(exchange.__code__.co_filename).resolve().parents[1]
    tags, groupbys, map_groups, native = {}, [], [], []
    for p in sorted(pkg.rglob("*.py")):
        rel = p.relative_to(pkg).as_posix()
        src = p.read_text()
        n = len(re.findall(r"(?<!def )bucket_of_column\(", src))
        if n:
            tags[rel] = n
        if re.search(
            r"""groupby\(\[?["'](bucket_key|__b|_bucket)["']""", src
        ):
            groupbys.append(rel)
        if rel in ("stages/neardup.py", "stages/fuzzy.py", "stages/topk.py",
                   "stages/window.py") and "map_groups" in src:
            map_groups.append(rel)
        if re.search(r"ray\.data\.aggregate|ray\.data import aggregate",
                     src):
            native.append(rel)
    assert tags == {"stages/dedup.py": 1}
    assert groupbys == []
    assert map_groups == []
    assert native == []
