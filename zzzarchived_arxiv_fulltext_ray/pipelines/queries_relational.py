"""Relational query shapes, continued: the TPC-H patterns the other
query modules don't cover yet (Q7 volume shipping, Q8 market share,
Q9-adapted profit, Q14 promo share, Q18 having-then-enrich, Q19
disjunctive predicates, Q21-adapted multi-exists self join).

Same contract as the sibling modules: every query takes ``sf_dir``
and returns a pandas DataFrame whose column names match its
``RELATIONAL_ORACLE_SQL`` entry exactly; money is exact integer cents
(round half away from zero), shares/ratios are one float division of
exact ints at the very end.

The testdata has no partsupp table and lineitem carries no
commitdate/receiptdate/shipmode columns, so Q2/Q11/Q12/Q20 have no
faithful analogue here; Q9 and Q21 are adapted to the available
columns with the plan SHAPE preserved (see each docstring).
"""

from typing import Callable, Dict

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.aggregate import aggregate, exchange
from ..stages.topk import topk

RELATIONAL_QUERIES: Dict[str, Callable] = {}
RELATIONAL_ORACLE_SQL: Dict[str, str] = {}


def _cents(arr, scale: float = 100.0) -> pa.Array:
    """Exact integer cents: round half away from zero, int64."""
    return pc.cast(
        pc.round(pc.multiply(arr, scale), round_mode="half_towards_infinity"),
        pa.int64(),
    )


def _cents_arm_hist(sf_dir: str):
    """(cents, arm, n): event value cents counted per A/B arm
    (``user_id % 2``) — the value histogram the two-sample tests
    read."""
    import ray.data

    def rows(b: pa.Table) -> pa.Table:
        uid = pc.cast(b["user_id"], pa.int64())
        return pa.table(
            {"cents": _cents(b["value"]), "arm": pc.bit_wise_and(uid, 1)}
        )

    return aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "value"]
        ),
        ["cents", "arm"],
        [("n", "count", None)],
        rows=rows,
    ).to_pandas()


def _rev_cents(batch: pa.Table) -> pa.Array:
    """l_extendedprice * (1 - l_discount) as integer cents."""
    return _cents(
        pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
    )


def _year_i64(col) -> "pa.Array":
    """Calendar year of a timestamp column as int64 (vectorized)."""
    import numpy as np

    ts = col.to_numpy(zero_copy_only=False).astype("datetime64[Y]")
    return pa.array(ts.astype(np.int64) + 1970, pa.int64())


def _supp_nation_lookup(sf_dir: str):
    """Dense suppkey -> nationkey int64 array (tiny projection: two
    ints per supplier; at cluster scale this is a ``ray.put`` table
    read by every task, never a shuffle side)."""
    import numpy as np
    import pyarrow.parquet as pq

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = np.asarray(supp["s_suppkey"])
    sn = np.asarray(supp["s_nationkey"], dtype=np.int64)
    lut = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    lut[sk] = sn
    return lut


def _nation_names(sf_dir: str):
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    return dict(zip(nat["n_nationkey"], nat["n_name"]))


# ---------------------------------------------------------------------------
# Q7: volume shipping between two nations
# ---------------------------------------------------------------------------


def _empty_frame(text_cols, int_cols):
    """A result without rows: string columns, then int64 columns."""
    import pandas as pd

    return pd.DataFrame(
        {c: pd.Series(dtype=object) for c in text_cols}
        | {c: pd.Series(dtype="int64") for c in int_cols}
    )


def _q_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape: shipped revenue between two named nations, by
    (supplier nation, customer nation, ship year), both directions.

    Physical plan: the supplier->nation projection is a broadcast
    lookup; customers are filtered to the two nations BEFORE their
    exchange; lineitem is filtered by ship-date window AND supplier
    nation before its exchange, so both partitioned joins move only
    qualifying rows. The final aggregate (``stages/aggregate.py``)
    reduces each batch to at most 2 x 2 x n_years rows."""
    import datetime

    import numpy as np
    import ray.data

    from ..stages.relational import partitioned_hash_join

    nat_name = _nation_names(sf_dir)
    n1, n2 = 1, 2  # NATION_1 <-> NATION_2
    supp_nat = _supp_nation_lookup(sf_dir)
    lo = datetime.date(1996, 1, 1)
    hi = datetime.date(1998, 1, 1)

    # the two-nation customer slice is dimension-sized (~8% of a dim
    # table): broadcast an exact custkey->nation map via ray.put and
    # annotate orders in ONE scan — the custkey exchange never happens
    # (partitioned twin: the regional_revenue orders x customer join)
    import pyarrow.parquet as pq
    import ray

    ct = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    cnk = np.asarray(ct["c_nationkey"], dtype=np.int64)
    sel = (cnk == n1) | (cnk == n2)
    ckeys = np.asarray(ct["c_custkey"])[sel]
    lut = np.full(int(np.asarray(ct["c_custkey"]).max()) + 1, -1, np.int64)
    lut[ckeys] = cnk[sel]
    cust_lut_ref = ray.put(lut)

    def o_prep(batch: pa.Table) -> pa.Table:
        table = ray.get(cust_lut_ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        nat = np.where(ck < table.size, table[np.minimum(ck, table.size - 1)], -1)
        keep = nat >= 0
        return pa.Table.from_pydict(
            {
                "orderkey": pa.array(
                    batch["o_orderkey"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "cust_nat": pa.array(nat[keep], pa.int64()),
            }
        )

    oc = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(o_prep, batch_format="pyarrow")

    def li_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["l_shipdate"], pa.scalar(lo)),
            pc.less(batch["l_shipdate"], pa.scalar(hi)),
        )
        t = batch.filter(keep)
        snat = supp_nat[t["l_suppkey"].to_numpy(zero_copy_only=False)]
        t = t.filter(pa.array((snat == n1) | (snat == n2)))
        snat = supp_nat[t["l_suppkey"].to_numpy(zero_copy_only=False)]
        return pa.Table.from_arrays(
            [
                t["l_orderkey"].combine_chunks(),
                pa.array(snat, pa.int64()),
                _year_i64(t["l_shipdate"]),
                _rev_cents(t),
            ],
            names=["orderkey", "supp_nat", "l_year", "cents"],
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_shipdate",
            "l_extendedprice",
            "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = partitioned_hash_join(li, oc, key="orderkey")

    def cross(batch: pa.Table) -> pa.Table:
        sn = batch["supp_nat"].to_numpy(zero_copy_only=False)
        cn = batch["cust_nat"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(sn != cn))  # the two cross directions

    out = aggregate(
        joined,
        ["supp_nat", "cust_nat", "l_year"],
        [("revenue_cents", "sum", "cents"), ("n_items", "count", None)],
        rows=cross,
    ).to_pandas()
    if out.empty:  # no rows: aggregate gives a Dataset without columns
        return _empty_frame(["supp_nation", "cust_nation"],
                            ["l_year", "revenue_cents", "n_items"])
    out["supp_nation"] = out["supp_nat"].map(lambda k: nat_name[int(k)])
    out["cust_nation"] = out["cust_nat"].map(lambda k: nat_name[int(k)])
    out = out[
        ["supp_nation", "cust_nation", "l_year", "revenue_cents", "n_items"]
    ]
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values(
        ["supp_nation", "cust_nation", "l_year"]
    ).reset_index(drop=True)


RELATIONAL_QUERIES["volume_shipping"] = _q_volume_shipping
RELATIONAL_ORACLE_SQL["volume_shipping"] = """
SELECT ns.n_name AS supp_nation,
       nc.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents,
       count(*) AS n_items
FROM lineitem l
JOIN orders o   ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation ns  ON s.s_nationkey = ns.n_nationkey
JOIN nation nc  ON c.c_nationkey = nc.n_nationkey
WHERE l.l_shipdate >= DATE '1996-01-01'
  AND l.l_shipdate <  DATE '1998-01-01'
  AND ((ns.n_name = 'NATION_1' AND nc.n_name = 'NATION_2')
    OR (ns.n_name = 'NATION_2' AND nc.n_name = 'NATION_1'))
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# Q8: national market share within a region / product type
# ---------------------------------------------------------------------------


def _q_market_share(sf_dir: str):
    """TPC-H Q8 shape: NATION_1's share of PROMO-part revenue sold to
    AMERICA-region customers, per order year — the
    conditional-sum / total-sum ratio computed from one shared scan.

    Physical plan: part (filtered to the type) and region-filtered
    customers enter as Bloom-prefiltered SEMI joins, so the two
    membership checks prune the probe exchanges instead of shipping
    dimension payloads; orders join partitioned on orderkey; the
    supplier->nation projection is a broadcast lookup. Exact integer
    numerator/denominator per year; the share is one float division."""
    import datetime

    import numpy as np
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from ..stages.relational import partitioned_hash_join

    target_nation = 1  # NATION_1
    region_name = "AMERICA"
    part_type = "PROMO"
    lo = datetime.date(1996, 1, 1)
    hi = datetime.date(1998, 1, 1)

    supp_nat = _supp_nation_lookup(sf_dir)
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pydict()
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    rk = {
        k
        for k, n in zip(region["r_regionkey"], region["r_name"])
        if n == region_name
    }
    region_nk = np.array(
        sorted(
            nk
            for nk, r in zip(nation["n_nationkey"], nation["n_regionkey"])
            if r in rk
        ),
        dtype=np.int64,
    )

    # both membership checks are dimension-sized (selective part keys,
    # region-filtered customer keys): broadcast the EXACT key sets via
    # ray.put and filter with one vectorized is_in — zero exchanges,
    # and no Bloom FP-verify join needed. (At 100-TB fact scale these
    # sides stay ~1e6-1e7 int64 keys = MBs; the partitioned twin is
    # ``bloom_prefiltered_join(..., how='semi')`` as used by
    # shipping_priority.)
    pt = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    promo_keys_ref = ray.put(
        pt.filter(pc.equal(pt["p_type"], pa.scalar(part_type)))[
            "p_partkey"
        ].combine_chunks()
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["l_partkey"].combine_chunks(),
                batch["l_orderkey"].combine_chunks(),
                pa.array(
                    supp_nat[
                        batch["l_suppkey"].to_numpy(zero_copy_only=False)
                    ],
                    pa.int64(),
                ),
                _rev_cents(batch),
            ],
            names=["partkey", "orderkey", "supp_nat", "cents"],
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_partkey",
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    def keep_promo(batch: pa.Table) -> pa.Table:
        keys = ray.get(promo_keys_ref)
        return batch.filter(
            pc.is_in(batch["partkey"], value_set=keys)
        ).select(["orderkey", "supp_nat", "cents"])

    li_promo = li.map_batches(keep_promo, batch_format="pyarrow")

    def o_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["o_orderdate"], pa.scalar(lo)),
            pc.less(batch["o_orderdate"], pa.scalar(hi)),
        )
        t = batch.filter(keep)
        return pa.Table.from_arrays(
            [
                t["o_orderkey"].combine_chunks(),
                t["o_custkey"].combine_chunks(),
                _year_i64(t["o_orderdate"]),
            ],
            names=["orderkey", "custkey", "o_year"],
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_prep, batch_format="pyarrow")

    lo_join = partitioned_hash_join(
        li_promo, orders, key="orderkey"
    )

    ct = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    region_keys_ref = ray.put(
        ct.filter(
            pa.array(
                np.isin(np.asarray(ct["c_nationkey"]), region_nk)
            )
        )["c_custkey"].combine_chunks()
    )

    def keep_region(batch: pa.Table) -> pa.Table:
        keys = ray.get(region_keys_ref)
        return batch.filter(pc.is_in(batch["custkey"], value_set=keys))

    final = lo_join.map_batches(keep_region, batch_format="pyarrow")

    def rows(batch: pa.Table) -> pa.Table:
        is_target = pc.equal(batch["supp_nat"], pa.scalar(target_nation))
        nation_cents = pc.if_else(
            is_target, batch["cents"], pa.scalar(0, pa.int64())
        )
        return pa.Table.from_pydict(
            {
                "o_year": batch["o_year"],
                "nation_cents": nation_cents,
                "total_cents": batch["cents"],
            }
        )

    out = aggregate(
        final,
        "o_year",
        [
            ("nation_cents", "sum", "nation_cents"),
            ("total_cents", "sum", "total_cents"),
        ],
        rows=rows,
    ).to_pandas()
    out["nation_cents"] = out["nation_cents"].astype("int64")
    out["total_cents"] = out["total_cents"].astype("int64")
    out["mkt_share"] = out["nation_cents"].astype("float64") / out[
        "total_cents"
    ].astype("float64")
    return out.sort_values("o_year").reset_index(drop=True)


RELATIONAL_QUERIES["market_share"] = _q_market_share
RELATIONAL_ORACLE_SQL["market_share"] = """
WITH v AS (
    SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
           CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                AS BIGINT) AS cents,
           s.s_nationkey
    FROM lineitem l
    JOIN part p     ON l.l_partkey = p.p_partkey
    JOIN orders o   ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation nc  ON c.c_nationkey = nc.n_nationkey
    JOIN region r   ON nc.n_regionkey = r.r_regionkey
    JOIN supplier s ON l.l_suppkey = s.s_suppkey
    WHERE p.p_type = 'PROMO'
      AND r.r_name = 'AMERICA'
      AND o.o_orderdate >= DATE '1996-01-01'
      AND o.o_orderdate <  DATE '1998-01-01'
)
SELECT o_year,
       CAST(sum(CASE WHEN s_nationkey = 1 THEN cents ELSE 0 END)
            AS BIGINT) AS nation_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       CAST(sum(CASE WHEN s_nationkey = 1 THEN cents ELSE 0 END) AS DOUBLE)
           / CAST(sum(cents) AS DOUBLE) AS mkt_share
FROM v
GROUP BY o_year
ORDER BY o_year
"""


# ---------------------------------------------------------------------------
# Q14: promo revenue share in one ship-date window
# ---------------------------------------------------------------------------


def _q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: PROMO parts' share of revenue shipped in one
    quarter. One partitioned join (date-filtered lineitem x part
    projected to (partkey, is_promo int8)), then a global two-int
    aggregate — per-batch partials reduce to ONE row per block before
    the exchange, so the 'groupby' moves a handful of ints."""
    import datetime

    import ray.data

    from ..stages.relational import partitioned_hash_join

    lo = datetime.date(1996, 7, 1)
    hi = datetime.date(1996, 10, 1)

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "partkey": b["p_partkey"],
                "is_promo": pc.cast(
                    pc.equal(b["p_type"], pa.scalar("PROMO")), pa.int8()
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["l_shipdate"], pa.scalar(lo)),
            pc.less(batch["l_shipdate"], pa.scalar(hi)),
        )
        t = batch.filter(keep)
        return pa.Table.from_pydict(
            {"partkey": t["l_partkey"], "cents": _rev_cents(t)}
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = partitioned_hash_join(li, parts, key="partkey")

    def rows(batch: pa.Table) -> pa.Table:
        promo = pc.if_else(
            pc.equal(batch["is_promo"], pa.scalar(1, pa.int8())),
            batch["cents"],
            pa.scalar(0, pa.int64()),
        )
        return pa.table({"promo": promo, "cents": batch["cents"]})

    out = aggregate(
        joined,
        [],
        [("promo_cents", "sum", "promo"), ("total_cents", "sum", "cents")],
        rows=rows,
    )
    import pandas as pd

    promo = int(out["promo_cents"] or 0)
    total = int(out["total_cents"] or 0)
    return pd.DataFrame(
        {
            "promo_cents": [promo],
            "total_cents": [total],
            "promo_share": [float(promo) / float(total)],
        }
    )


RELATIONAL_QUERIES["promo_revenue"] = _q_promo_revenue
RELATIONAL_ORACLE_SQL["promo_revenue"] = """
WITH v AS (
    SELECT CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                AS BIGINT) AS cents,
           (p.p_type = 'PROMO') AS is_promo
    FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
    WHERE l.l_shipdate >= DATE '1996-07-01'
      AND l.l_shipdate <  DATE '1996-10-01'
)
SELECT CAST(sum(CASE WHEN is_promo THEN cents ELSE 0 END) AS BIGINT)
           AS promo_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       CAST(sum(CASE WHEN is_promo THEN cents ELSE 0 END) AS DOUBLE)
           / CAST(sum(cents) AS DOUBLE) AS promo_share
FROM v
"""


# ---------------------------------------------------------------------------
# Q19: disjunctive multi-branch join predicates
# ---------------------------------------------------------------------------


def _q_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 shape: revenue from three disjunctive
    (brand, size-range, quantity-range) branches, reported PER BRANCH.
    The branches are brand-disjoint so each row matches at most one.

    Physical plan: one partitioned join on partkey (part projected to
    (partkey, brand, size) pre-filtered to rows that could satisfy
    ANY branch — the disjunction is pushed below the exchange on both
    sides), then a vectorized 3-branch mask assigns the branch id and
    a tiny groupby sums per branch."""
    import numpy as np
    import ray.data

    from ..stages.relational import partitioned_hash_join

    # (brand, size_lo, size_hi, qty_lo, qty_hi) — brands disjoint
    branches = [
        ("Brand#12", 1, 5, 1.0, 11.0),
        ("Brand#23", 1, 10, 10.0, 20.0),
        ("Brand#34", 1, 15, 20.0, 30.0),
    ]
    brand_names = [b[0] for b in branches]

    def p_prep(batch: pa.Table) -> pa.Table:
        keep = None
        for brand, slo, shi, _, _ in branches:
            m = pc.and_(
                pc.equal(batch["p_brand"], pa.scalar(brand)),
                pc.and_(
                    pc.greater_equal(batch["p_size"], pa.scalar(slo)),
                    pc.less_equal(batch["p_size"], pa.scalar(shi)),
                ),
            )
            keep = m if keep is None else pc.or_(keep, m)
        t = batch.filter(keep)
        return pa.Table.from_pydict(
            {
                "partkey": t["p_partkey"],
                "p_brand": t["p_brand"],
                "p_size": pc.cast(t["p_size"], pa.int64()),
            }
        )

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    ).map_batches(p_prep, batch_format="pyarrow")

    qty_lo = min(b[3] for b in branches)
    qty_hi = max(b[4] for b in branches)

    def li_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["l_quantity"], pa.scalar(qty_lo)),
            pc.less_equal(batch["l_quantity"], pa.scalar(qty_hi)),
        )
        t = batch.filter(keep)
        return pa.Table.from_pydict(
            {
                "partkey": t["l_partkey"],
                "l_quantity": t["l_quantity"],
                "cents": _rev_cents(t),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = partitioned_hash_join(li, parts, key="partkey")

    def rows(batch: pa.Table) -> pa.Table:
        brand = batch["p_brand"].to_numpy(zero_copy_only=False)
        size = batch["p_size"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        branch = np.full(len(brand), -1, dtype=np.int64)
        for i, (bname, slo, shi, qlo, qhi) in enumerate(branches):
            m = (
                (brand == bname)
                & (size >= slo)
                & (size <= shi)
                & (qty >= qlo)
                & (qty <= qhi)
            )
            branch[m] = i
        return pa.Table.from_pydict(
            {
                "branch": pa.array(branch, pa.int64()),
                "cents": batch["cents"],
            }
        ).filter(pa.array(branch >= 0))

    out = aggregate(
        joined,
        "branch",
        [("revenue_cents", "sum", "cents"), ("n_items", "count", None)],
        rows=rows,
    ).to_pandas()
    if out.empty:  # no rows: aggregate gives a Dataset without columns
        return _empty_frame(["p_brand"], ["revenue_cents", "n_items"])
    out["p_brand"] = out["branch"].map(lambda i: brand_names[int(i)])
    out = out[["p_brand", "revenue_cents", "n_items"]]
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("p_brand").reset_index(drop=True)


RELATIONAL_QUERIES["disjunctive_revenue"] = _q_disjunctive_revenue
RELATIONAL_ORACLE_SQL["disjunctive_revenue"] = """
SELECT p.p_brand,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents,
       count(*) AS n_items
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
WHERE (p.p_brand = 'Brand#12' AND p.p_size BETWEEN 1 AND 5
       AND l.l_quantity BETWEEN 1 AND 11)
   OR (p.p_brand = 'Brand#23' AND p.p_size BETWEEN 1 AND 10
       AND l.l_quantity BETWEEN 10 AND 20)
   OR (p.p_brand = 'Brand#34' AND p.p_size BETWEEN 1 AND 15
       AND l.l_quantity BETWEEN 20 AND 30)
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Q18: large-volume orders — HAVING threshold, then enrich join-back
# ---------------------------------------------------------------------------


def _q_large_order_customers(sf_dir: str):
    """TPC-H Q18 shape: orders whose total line quantity exceeds a
    threshold, enriched back with order and customer attributes.

    Physical plan: ``stages/aggregate.py`` shrinks lineitem to the
    (orderkey, qty_sum) grain in each batch BEFORE the one real
    exchange;
    the HAVING filter drops ~90% of orders right after it, so the
    join-back to orders and customers moves only survivors (both
    partitioned joins sized to the survivor side)."""
    import ray.data

    from ..stages.relational import (
        bloom_prefiltered_join,
        partitioned_hash_join,
    )

    threshold = 180.0  # sum(l_quantity) per order; ~10% of orders qualify

    def li_rows(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "o_orderkey": batch["l_orderkey"],
                # quantities are integral doubles; exact as int64
                "qty": pc.cast(batch["l_quantity"], pa.int64()),
            }
        )

    big_orders = (
        aggregate(
            ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet",
                columns=["l_orderkey", "l_quantity"],
            ),
            "o_orderkey",
            [("total_qty", "sum", "qty")],
            rows=li_rows,
        )
        .map_batches(
            lambda b: b.filter(
                pc.greater(b["total_qty"], pa.scalar(int(threshold)))
            ),
            batch_format="pyarrow",
        )
        # the survivor set feeds BOTH the Bloom build and the join's
        # build side — materialize once or the lineitem aggregate
        # above executes twice
        .materialize()
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "o_orderkey": b["o_orderkey"],
                "c_custkey": b["o_custkey"],
                "o_orderdate": b["o_orderdate"],
                "total_cents": _cents(b["o_totalprice"]),
            }
        ),
        batch_format="pyarrow",
    )
    # ~10% of orders survive the HAVING: the Bloom over survivor keys
    # prunes ~90% of the orders-side exchange before it happens
    enriched = bloom_prefiltered_join(
        orders, big_orders, key="o_orderkey"
    )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    out = partitioned_hash_join(
        enriched, cust, key="c_custkey"
    ).to_pandas()

    out = out[
        ["c_custkey", "c_name", "o_orderkey", "o_orderdate", "total_cents",
         "total_qty"]
    ]
    out["total_qty"] = out["total_qty"].astype("int64")
    out["total_cents"] = out["total_cents"].astype("int64")
    return out.sort_values(
        ["total_qty", "o_orderkey"], ascending=[False, True]
    ).reset_index(drop=True)


RELATIONAL_QUERIES["large_order_customers"] = _q_large_order_customers
RELATIONAL_ORACLE_SQL["large_order_customers"] = """
WITH big AS (
    SELECT l_orderkey AS o_orderkey,
           CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS total_qty
    FROM lineitem
    GROUP BY 1
    HAVING sum(CAST(l_quantity AS BIGINT)) > 180
)
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
       CAST(round(o.o_totalprice * 100) AS BIGINT) AS total_cents,
       b.total_qty
FROM big b
JOIN orders o   ON b.o_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
ORDER BY b.total_qty DESC, o.o_orderkey
"""


# ---------------------------------------------------------------------------
# Q21-adapted: sole late supplier per multi-supplier order
# ---------------------------------------------------------------------------


def _q_sole_late_supplier(sf_dir: str):
    """TPC-H Q21 shape, adapted: suppliers who were the ONLY late
    shipper in an order that involved at least two suppliers. The
    reference predicate (receiptdate > commitdate) has no analogue in
    this corpus — "late" here is shipdate > orderdate + 90 days —
    but the plan shape is Q21's: an EXISTS (another supplier in the
    same order) AND NOT EXISTS (another LATE supplier) self-join at
    the order grain.

    Physical plan: lineitem joins orders (date only) partitioned on
    orderkey; per-batch partials reduce to the DISTINCT
    (orderkey, suppkey, late_any) grain before one composite-key
    exchange; a per-order map_groups then sizes each order's supplier
    set (orders are tiny groups — bounded by lines-per-order), and
    the winner count is a final small groupby. The supplier name
    attaches via a broadcast lookup."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.relational import partitioned_hash_join

    late_us = 90 * 86_400 * 1_000_000  # 90 days in microseconds

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda b: b.rename_columns(["orderkey", "o_orderdate"]),
        batch_format="pyarrow",
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(
        lambda b: b.rename_columns(["orderkey", "l_suppkey", "l_shipdate"]),
        batch_format="pyarrow",
    )
    lo = partitioned_hash_join(li, orders, key="orderkey")

    def pair_partial(batch: pa.Table) -> pa.Table:
        """Distinct (orderkey, suppkey) with late=max within the batch
        — shrinks the ONE exchange to the pair grain."""
        ship = batch["l_shipdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        late = (ship > od + late_us).astype(np.int64)
        t = pa.Table.from_pydict(
            {
                "orderkey": batch["orderkey"],
                "suppkey": batch["l_suppkey"],
                "late": pa.array(late, pa.int64()),
            }
        )
        return (
            t.group_by(["orderkey", "suppkey"])
            .aggregate([("late", "max")])
            .rename_columns(["orderkey", "suppkey", "late"])
        )

    def winners_of_bucket(group: pa.Table) -> pa.Table:
        """All orders of a hash bucket at once: lexsort + reduceat
        segment reduction (never a per-order map_groups dispatch —
        the documented group-overhead anti-pattern)."""
        ok = group["orderkey"].to_numpy(zero_copy_only=False)
        if ok.size == 0:
            return pa.Table.from_pydict(
                {"s_suppkey": pa.array([], pa.int64())}
            )
        sk = group["suppkey"].to_numpy(zero_copy_only=False)
        late = group["late"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, ok))
        ok, sk, late = ok[order], sk[order], late[order]
        # distinct pairs across source batches: max(late) per (ok, sk)
        pstart = np.flatnonzero(
            np.concatenate(
                [[True], (ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1])]
            )
        )
        plate = np.maximum.reduceat(late, pstart)
        pok, psk = ok[pstart], sk[pstart]
        # per-order segments over the pair grain
        ostart = np.flatnonzero(
            np.concatenate([[True], pok[1:] != pok[:-1]])
        )
        cnt = np.diff(np.append(ostart, pok.size))
        late_sum = np.add.reduceat(plate, ostart)
        win = (cnt >= 2) & (late_sum == 1)
        # exactly one late pair per winning order: sum(psk*plate) is it
        wsk = np.add.reduceat(psk * plate, ostart)[win]
        return pa.Table.from_pydict({"s_suppkey": pa.array(wsk, pa.int64())})

    won = aggregate(
        exchange(lo, "orderkey", winners_of_bucket, rows=pair_partial),
        "s_suppkey",
        [("numwait", "count", None)],
    ).to_pandas()

    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pydict()
    name = dict(zip(sup["s_suppkey"], sup["s_name"]))
    won["s_name"] = won["s_suppkey"].map(lambda k: name[int(k)])
    won["numwait"] = won["numwait"].astype("int64")
    won = won[["s_suppkey", "s_name", "numwait"]]
    return won.sort_values(
        ["numwait", "s_suppkey"], ascending=[False, True]
    ).reset_index(drop=True)


RELATIONAL_QUERIES["sole_late_supplier"] = _q_sole_late_supplier
RELATIONAL_ORACLE_SQL["sole_late_supplier"] = """
WITH ls AS (
    SELECT l.l_orderkey, l.l_suppkey,
           max(CASE WHEN l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY
                    THEN 1 ELSE 0 END) AS late
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    GROUP BY 1, 2
),
q AS (
    SELECT l_orderkey
    FROM ls
    GROUP BY 1
    HAVING count(*) >= 2 AND sum(late) = 1
)
SELECT s.s_suppkey, s.s_name, CAST(count(*) AS BIGINT) AS numwait
FROM ls
JOIN q ON ls.l_orderkey = q.l_orderkey
JOIN supplier s ON ls.l_suppkey = s.s_suppkey
WHERE ls.late = 1
GROUP BY 1, 2
ORDER BY numwait DESC, s.s_suppkey
"""


# ---------------------------------------------------------------------------
# Q9-adapted: part profit by supplier nation and year
# ---------------------------------------------------------------------------


def _q_part_profit_by_nation(sf_dir: str):
    """TPC-H Q9 shape, adapted: profit on parts whose name contains a
    token, grouped by (supplier nation, ship year). The reference
    costs lines via partsupp.ps_supplycost which this corpus lacks —
    cost here is 10% of p_retailprice per unit, which preserves the
    Q9 plan (fact x filtered-part join, mixed part x lineitem column
    arithmetic AFTER the join, nation/year rollup).

    Exactness: revenue and cost are rounded to integer cents
    INDEPENDENTLY (each a single float product rounded half away from
    zero) so the SQL oracle replays the arithmetic bit-for-bit.

    Physical plan: part is filtered by the name token and projected
    to (partkey, retail price) before a Bloom-prefiltered partitioned
    join; the supplier->nation projection is a broadcast lookup; the
    (25 x n_years)-row aggregate runs through ``stages/aggregate.py``."""
    import numpy as np
    import ray.data

    from ..stages.relational import bloom_prefiltered_join

    token = "ring"
    nat_name = _nation_names(sf_dir)
    supp_nat = _supp_nation_lookup(sf_dir)

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_retailprice"]
    ).map_batches(
        lambda b: b.filter(pc.match_substring(b["p_name"], token))
        .select(["p_partkey", "p_retailprice"])
        .rename_columns(["partkey", "p_retailprice"]),
        batch_format="pyarrow",
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "partkey": batch["l_partkey"],
                "supp_nat": pa.array(
                    supp_nat[
                        batch["l_suppkey"].to_numpy(zero_copy_only=False)
                    ],
                    pa.int64(),
                ),
                "l_year": _year_i64(batch["l_shipdate"]),
                "l_quantity": batch["l_quantity"],
                "rev_cents": _rev_cents(batch),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_partkey",
            "l_suppkey",
            "l_shipdate",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = bloom_prefiltered_join(li, parts, key="partkey")

    def rows(batch: pa.Table) -> pa.Table:
        price = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        cost = np.floor(np.abs(price * qty * 10.0) + 0.5).astype(np.int64)
        # half away from zero on a non-negative product == floor(x+0.5)
        profit = (
            batch["rev_cents"].to_numpy(zero_copy_only=False) - cost
        )
        return pa.Table.from_pydict(
            {
                "supp_nat": batch["supp_nat"],
                "l_year": batch["l_year"],
                "profit_cents": pa.array(profit, pa.int64()),
            }
        )

    out = aggregate(
        joined,
        ["supp_nat", "l_year"],
        [("profit_cents", "sum", "profit_cents"), ("n_items", "count", None)],
        rows=rows,
    ).to_pandas()
    out["nation"] = out["supp_nat"].map(lambda k: nat_name[int(k)])
    out = out[["nation", "l_year", "profit_cents", "n_items"]]
    out["profit_cents"] = out["profit_cents"].astype("int64")
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values(["nation", "l_year"]).reset_index(drop=True)


RELATIONAL_QUERIES["part_profit_by_nation"] = _q_part_profit_by_nation
RELATIONAL_ORACLE_SQL["part_profit_by_nation"] = """
SELECT n.n_name AS nation,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(
           CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                AS BIGINT)
           - CAST(round(p.p_retailprice * l.l_quantity * 10) AS BIGINT)
       ) AS BIGINT) AS profit_cents,
       count(*) AS n_items
FROM lineitem l
JOIN part p     ON l.l_partkey = p.p_partkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n   ON s.s_nationkey = n.n_nationkey
WHERE p.p_name LIKE '%ring%'
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Graph: common-neighbor link prediction + degree assortativity
# ---------------------------------------------------------------------------


def _co_supply_edges(sf_dir: str):
    """The shared co-supply witness graph (same construction as
    supplier_triangles/bfs/kcore: orders with key % 10 == 0, edge =
    supplier pair sharing >= 2 of them)."""
    import ray.data

    from ..stages.graph import cooccurrence_edges

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def sample_orders(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keys % 10 == 0))

    return cooccurrence_edges(
        li.map_batches(sample_orders, batch_format="pyarrow"),
        "l_orderkey",
        "l_suppkey",
        min_count=2,
    )


_CO_SUPPLY_CTE = """
li AS (
    SELECT l_orderkey, l_suppkey FROM lineitem WHERE l_orderkey % 10 = 0
), co AS (
    SELECT a.l_suppkey AS u, b.l_suppkey AS v,
           count(DISTINCT a.l_orderkey) AS n
    FROM li a JOIN li b
      ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
    GROUP BY 1, 2
), e AS (
    SELECT u, v FROM co WHERE n >= 2
), bi AS (
    SELECT u AS src, v AS dst FROM e UNION ALL SELECT v, u FROM e
)"""


def _q_supplier_link_prediction(sf_dir: str):
    """Link prediction on the co-supply graph
    (``stages.graph.common_neighbor_pairs``): non-adjacent supplier
    pairs sharing >= 3 common neighbors, scored by the exact
    common-neighbor count and the integer sum of shared-center
    degrees (the deterministic cousin of Adamic-Adar — exact ints so
    the SQL oracle replays it). One coalesced wedge exchange (group
    length IS the center degree, so no degree join), one pair
    aggregate, one bucketed ANTI join against the edge set."""
    from ..stages.graph import common_neighbor_pairs

    import pandas as pd

    out = common_neighbor_pairs(
        _co_supply_edges(sf_dir),
        min_common=3,
        assume_canonical=True,
    ).to_pandas()
    if out.empty:  # schema-less empty result (join-family limitation)
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("u", "v", "cn", "sum_ctr_deg")}
        )
    for c in ("u", "v", "cn", "sum_ctr_deg"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["u", "v"]).reset_index(drop=True)


RELATIONAL_QUERIES["supplier_link_prediction"] = _q_supplier_link_prediction
RELATIONAL_ORACLE_SQL["supplier_link_prediction"] = f"""
WITH {_CO_SUPPLY_CTE},
deg AS (SELECT src AS node, count(*) AS d FROM bi GROUP BY 1),
cn AS (
    SELECT s1.dst AS u, s2.dst AS v,
           CAST(count(*) AS BIGINT) AS cn,
           CAST(sum(deg.d) AS BIGINT) AS sum_ctr_deg
    FROM bi s1
    JOIN bi s2 ON s1.src = s2.src AND s1.dst < s2.dst
    JOIN deg   ON deg.node = s1.src
    GROUP BY 1, 2
)
SELECT cn.u, cn.v, cn.cn, cn.sum_ctr_deg
FROM cn
WHERE cn.cn >= 3
  AND NOT EXISTS (SELECT 1 FROM e WHERE e.u = cn.u AND e.v = cn.v)
ORDER BY cn.u, cn.v
"""


def _q_supplier_assortativity(sf_dir: str):
    """Degree assortativity of the co-supply graph
    (``stages.graph.degree_assortativity``): Pearson correlation of
    endpoint degrees over both directions of every edge. The four
    sufficient statistics are exact int64 partial sums; the
    coefficient is one float division done in arbitrary-precision
    Python, mirrored by HUGEINT arithmetic in the oracle — bit-equal."""
    from ..stages.graph import degree_assortativity

    return degree_assortativity(
        _co_supply_edges(sf_dir), assume_canonical=True
    )


RELATIONAL_QUERIES["supplier_assortativity"] = _q_supplier_assortativity
RELATIONAL_ORACLE_SQL["supplier_assortativity"] = f"""
WITH {_CO_SUPPLY_CTE},
deg AS (SELECT src AS node, count(*) AS d FROM bi GROUP BY 1),
j AS (
    SELECT d1.d AS du, d2.d AS dv
    FROM e
    JOIN deg d1 ON e.u = d1.node
    JOIN deg d2 ON e.v = d2.node
),
s AS (
    SELECT CAST(count(*) AS HUGEINT) AS m,
           CAST(sum(du + dv) AS HUGEINT) AS a,
           CAST(sum(du * du + dv * dv) AS HUGEINT) AS b,
           CAST(sum(du * dv) AS HUGEINT) AS c
    FROM j
)
SELECT CAST(m AS BIGINT) AS n_edges,
       CAST(a AS BIGINT) AS s_deg,
       CAST(b AS BIGINT) AS s_deg2,
       CAST(c AS BIGINT) AS s_dudv,
       CAST(4 * m * c - a * a AS DOUBLE)
           / CAST(2 * m * b - a * a AS DOUBLE) AS assortativity
FROM s
"""


# ---------------------------------------------------------------------------
# Robust anomaly detection: MAD outliers per event type
# ---------------------------------------------------------------------------


def _q_events_anomaly(sf_dir: str):
    """Robust outlier detection: events whose value deviates from
    their type's median by more than 4x the type's median absolute
    deviation. The classic z-score version needs (v*n - S)^2-scale
    integers (overflows int64 at corpus scale) or float comparisons
    (boundary-tie hazard); the MAD formulation stays in exact integer
    cents end-to-end, so the flag predicate replays bit-for-bit in
    SQL.

    Physical plan: one materialized cents scan feeds two grouped
    ``stages.selection.quantiles`` calls (median, then MAD of
    deviations); the tiny (type -> median, mad) map broadcasts via
    ``ray.put`` into one final vectorized filter scan. Zero row
    exchanges."""
    import numpy as np
    import ray
    import ray.data

    from ..stages.selection import quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(b["value"], 100.0), 0.5)),
            pa.int64(),
        )
        return pa.table(
            {
                "event_id": b["event_id"].combine_chunks(),
                "event_type": b["event_type"].combine_chunks(),
                "cents": cents,
            }
        )

    # scanned by both quantile calls and the filter
    cents = ev.map_batches(to_cents, batch_format="pyarrow").materialize()
    q = quantiles(cents, "cents", {"m": 0.5}, by="event_type")
    med = dict(zip(q["event_type"], q["m"].tolist()))
    med_ref = ray.put(med)

    def abs_dev(b: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        types = b["event_type"].to_numpy(zero_copy_only=False)
        c = b["cents"].to_numpy(zero_copy_only=False)
        med_arr = np.empty(len(c), dtype=np.int64)
        for t in np.unique(types):
            med_arr[types == t] = m[t]
        return pa.table(
            {
                "event_type": b["event_type"].combine_chunks(),
                "dev": pa.array(np.abs(c - med_arr), pa.int64()),
            }
        )

    devs = cents.map_batches(abs_dev, batch_format="pyarrow")
    q = quantiles(devs, "dev", {"m": 0.5}, by="event_type")
    mad = dict(zip(q["event_type"], q["m"].tolist()))
    thr_ref = ray.put({t: (med[t], 4 * mad[t]) for t in med})

    def flag(b: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        types = b["event_type"].to_numpy(zero_copy_only=False)
        c = b["cents"].to_numpy(zero_copy_only=False)
        med_arr = np.empty(len(c), dtype=np.int64)
        lim_arr = np.empty(len(c), dtype=np.int64)
        for t in np.unique(types):
            m, lim = thr[t]
            med_arr[types == t] = m
            lim_arr[types == t] = lim
        dev = np.abs(c - med_arr)
        keep = dev > lim_arr
        return pa.table(
            {
                "event_id": b["event_id"].filter(pa.array(keep)),
                "event_type": b["event_type"].filter(pa.array(keep)),
                "value_cents": pa.array(c[keep], pa.int64()),
                "dev_cents": pa.array(dev[keep], pa.int64()),
            }
        )

    out = (
        cents.map_batches(flag, batch_format="pyarrow")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    return out


RELATIONAL_QUERIES["events_anomaly"] = _q_events_anomaly
RELATIONAL_ORACLE_SQL["events_anomaly"] = """
WITH c AS (
    SELECT event_id, event_type,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
    FROM events
),
med AS (
    SELECT event_type, quantile_disc(cents, 0.5) AS m
    FROM c GROUP BY 1
),
dev AS (
    SELECT c.event_id, c.event_type, c.cents,
           abs(c.cents - med.m) AS d
    FROM c JOIN med USING (event_type)
),
mad AS (
    SELECT event_type, quantile_disc(d, 0.5) AS mad
    FROM dev GROUP BY 1
)
SELECT dev.event_id, dev.event_type,
       dev.cents AS value_cents,
       dev.d AS dev_cents
FROM dev JOIN mad USING (event_type)
WHERE dev.d > 4 * mad.mad
ORDER BY dev.event_id
"""


# ---------------------------------------------------------------------------
# Q3: shipping priority — top-k of a big aggregate
# ---------------------------------------------------------------------------


def _q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: top-10 unshipped BUILDING-segment orders by
    open revenue at a cutoff date. Customers enter as a
    Bloom-prefiltered SEMI join (membership only), orders are
    date-filtered below their exchange, lineitem is date-filtered and
    pre-aggregated to the order grain per batch; the global top-10 is
    ``stages/topk.topk`` (each block contributes <= 10 rows; the
    driver merges <= 10 x blocks rows)."""
    import datetime

    import ray.data

    from ..stages.relational import (
        bloom_prefiltered_join,
        partitioned_hash_join,
    )

    cutoff = datetime.date(1996, 6, 1)
    k = 10

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b["c_mktsegment"], pa.scalar("BUILDING"))
        )
        .select(["c_custkey"])
        .rename_columns(["custkey"]),
        batch_format="pyarrow",
    )

    def o_prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.less(batch["o_orderdate"], pa.scalar(cutoff))
        )
        return pa.Table.from_pydict(
            {
                "orderkey": t["o_orderkey"],
                "custkey": t["o_custkey"],
                # order dates are whole days: second resolution
                "o_orderdate": t["o_orderdate"].cast(pa.timestamp("s")),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_prep, batch_format="pyarrow")
    orders_b = bloom_prefiltered_join(
        orders, cust, key="custkey", how="semi"
    ).map_batches(
        lambda b: b.select(["orderkey", "o_orderdate"]),
        batch_format="pyarrow",
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.greater(batch["l_shipdate"], pa.scalar(cutoff))
        )
        part = pa.Table.from_pydict(
            {"orderkey": t["l_orderkey"], "cents": _rev_cents(t)}
        )
        return (
            part.group_by("orderkey")
            .aggregate([("cents", "sum")])
            .rename_columns(["orderkey", "cents"])
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_shipdate",
            "l_extendedprice",
            "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    per_order = aggregate(
        partitioned_hash_join(li, orders_b, key="orderkey"),
        ["orderkey", "o_orderdate"],
        [("revenue_cents", "sum", "cents")],
    )
    out = topk(
        per_order, k,
        [("revenue_cents", "descending"), ("orderkey", "ascending")],
    ).to_pandas()
    out = out.rename(columns={"orderkey": "o_orderkey"})[
        ["o_orderkey", "o_orderdate", "revenue_cents"]
    ]
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    return out.reset_index(drop=True)


RELATIONAL_QUERIES["shipping_priority"] = _q_shipping_priority
RELATIONAL_ORACLE_SQL["shipping_priority"] = """
SELECT l.l_orderkey AS o_orderkey,
       o.o_orderdate,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer c
JOIN orders o   ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < DATE '1996-06-01'
  AND l.l_shipdate  > DATE '1996-06-01'
GROUP BY 1, 2
ORDER BY revenue_cents DESC, o_orderkey
LIMIT 10
"""


# ---------------------------------------------------------------------------
# Q10: returned-item reporting — top-k customers by returned revenue
# ---------------------------------------------------------------------------


def _q_returned_item_customers(sf_dir: str):
    """TPC-H Q10 shape: top-20 customers by revenue of RETURNED line
    items against orders placed in one quarter. Same
    ``stages/topk.topk`` as shipping_priority, but the aggregate grain
    is the customer; the 20 winners' attributes attach afterwards via a
    vectorized membership filter scan over customer (the enrich side
    streams — never a whole-dimension driver pull) and a broadcast
    nation-name lookup."""
    import datetime

    import numpy as np
    import ray.data

    from ..stages.relational import partitioned_hash_join

    lo = datetime.date(1996, 7, 1)
    hi = datetime.date(1996, 10, 1)
    k = 20
    nat_name = _nation_names(sf_dir)

    def o_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["o_orderdate"], pa.scalar(lo)),
            pc.less(batch["o_orderdate"], pa.scalar(hi)),
        )
        t = batch.filter(keep)
        return pa.Table.from_pydict(
            {"orderkey": t["o_orderkey"], "custkey": t["o_custkey"]}
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_prep, batch_format="pyarrow")

    def li_prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.equal(batch["l_returnflag"], pa.scalar("R"))
        )
        part = pa.Table.from_pydict(
            {"orderkey": t["l_orderkey"], "cents": _rev_cents(t)}
        )
        return (
            part.group_by("orderkey")
            .aggregate([("cents", "sum")])
            .rename_columns(["orderkey", "cents"])
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_returnflag",
            "l_extendedprice",
            "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    per_cust = aggregate(
        partitioned_hash_join(li, orders, key="orderkey"),
        "custkey",
        [("revenue_cents", "sum", "cents")],
    )
    winners = topk(
        per_cust, k,
        [("revenue_cents", "descending"), ("custkey", "ascending")],
    ).to_pandas()
    keys = np.sort(winners["custkey"].to_numpy())

    attrs = (
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
        )
        .map_batches(
            lambda b: b.filter(
                pa.array(
                    np.isin(
                        b["c_custkey"].to_numpy(zero_copy_only=False), keys
                    )
                )
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    out = winners.rename(columns={"custkey": "c_custkey"}).merge(
        attrs, on="c_custkey"
    )
    out["n_name"] = out["c_nationkey"].map(lambda nk: nat_name[int(nk)])
    out["acctbal_cents"] = (
        (out["c_acctbal"].abs() * 100 + 0.5).astype("int64")
        * np.sign(out["c_acctbal"]).astype("int64")
    )
    out = out[
        ["c_custkey", "c_name", "n_name", "acctbal_cents", "revenue_cents"]
    ]
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    return out.sort_values(
        ["revenue_cents", "c_custkey"], ascending=[False, True]
    ).reset_index(drop=True)


RELATIONAL_QUERIES["returned_item_customers"] = _q_returned_item_customers
RELATIONAL_ORACLE_SQL["returned_item_customers"] = """
SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(CASE WHEN c.c_acctbal >= 0
                 THEN floor(c.c_acctbal * 100 + 0.5)
                 ELSE -floor(-c.c_acctbal * 100 + 0.5) END AS BIGINT)
           AS acctbal_cents,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer c
JOIN nation n   ON c.c_nationkey = n.n_nationkey
JOIN orders o   ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE l.l_returnflag = 'R'
  AND o.o_orderdate >= DATE '1996-07-01'
  AND o.o_orderdate <  DATE '1996-10-01'
GROUP BY 1, 2, 3, 4
ORDER BY revenue_cents DESC, c_custkey
LIMIT 20
"""


# ---------------------------------------------------------------------------
# Nearest-direction as-of join
# ---------------------------------------------------------------------------


def _q_events_asof_nearest(sf_dir: str):
    """NEAREST as-of join — each click enriched with the user's view
    CLOSEST in time (either side; equidistant ties resolve backward).
    Same single-exchange sorted plan as the backward/forward twins:
    both boundary candidates come from two searchsorteds and one
    vectorized distance compare. The oracle replays it as an arg-min
    over the joined candidates (ORDER BY distance, view ts)."""
    import ray.data

    from ..stages.asof import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def prep(kind: str, cents_name: str, keep_event_id: bool):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], kind))
            cents = _cents(t["value"])
            cols = {}
            if keep_event_id:
                cols["event_id"] = t["event_id"]
            cols["user_id"] = t["user_id"]
            cols["ts"] = t["ts"]
            cols[cents_name] = cents
            return pa.Table.from_pydict(cols)

        return fn

    left = ev.map_batches(
        prep("click", "cents", True), batch_format="pyarrow"
    )
    right = ev.map_batches(
        prep("view", "near_view_cents", False), batch_format="pyarrow"
    )
    out = asof_join(
        left, right, key="user_id", on="ts", direction="nearest"
    ).to_pandas()
    out["near_view_cents"] = out["near_view_cents"].astype("float64")
    return out.sort_values("event_id").reset_index(drop=True)


RELATIONAL_QUERIES["events_asof_nearest"] = _q_events_asof_nearest
RELATIONAL_ORACLE_SQL["events_asof_nearest"] = """
WITH clicks AS (
    SELECT event_id, user_id, ts,
           CAST(round(value * 100) AS BIGINT) AS cents
    FROM events WHERE event_type = 'click'
),
views AS (
    SELECT user_id, ts,
           CAST(round(value * 100) AS BIGINT) AS near_view_cents
    FROM events WHERE event_type = 'view'
),
cand AS (
    SELECT c.event_id, c.user_id, c.ts, c.cents,
           v.near_view_cents, v.ts AS matched_ts,
           CASE WHEN v.ts IS NULL THEN NULL
                WHEN v.ts <= c.ts
                THEN epoch_us(c.ts) - epoch_us(v.ts)
                ELSE epoch_us(v.ts) - epoch_us(c.ts) END AS dist,
           row_number() OVER (
               PARTITION BY c.event_id
               ORDER BY CASE WHEN v.ts IS NULL THEN NULL
                             WHEN v.ts <= c.ts
                             THEN epoch_us(c.ts) - epoch_us(v.ts)
                             ELSE epoch_us(v.ts) - epoch_us(c.ts) END
                        ASC NULLS LAST,
                        v.ts ASC NULLS LAST
           ) AS rn
    FROM clicks c LEFT JOIN views v ON c.user_id = v.user_id
)
SELECT event_id, user_id, ts, cents,
       CAST(near_view_cents AS DOUBLE) AS near_view_cents,
       matched_ts
FROM cand
WHERE rn = 1
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Spearman rank correlation with exact tie-averaged ranks
# ---------------------------------------------------------------------------


def _q_doc_spearman(sf_dir: str):
    """Spearman rank correlation between document char length and
    whitespace token count — with EXACT tie handling: average ranks
    doubled into integers (2*rank_min + tie_count - 1), so every
    sufficient statistic is an exact int64 sum and the coefficient is
    one mirrored float expression (num / (sqrt(vx) * sqrt(vy))) that
    DuckDB replays bit-for-bit via window-function ranks.

    Physical plan: one scan computes the (n_chars, n_tokens) pair
    stream (materialized once, ~16 bytes/doc); per-column value-count
    histograms aggregate to the driver (distinct lengths are bounded
    by the length range, KBs); the driver prefix-sums them into
    value -> doubled-average-rank lookups broadcast via ray.put; a
    second scan over the pair stream reduces the six integer
    sufficient statistics per batch. No row ever shuffles."""
    import math

    import numpy as np
    import pandas as pd
    import ray
    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    def pair(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_tokens = pa.array([len(t.split()) for t in texts], pa.int64())
        n_chars = pc.utf8_length(batch["text"]).cast(pa.int64())
        return pa.Table.from_pydict(
            {"n_chars": n_chars, "n_tokens": n_tokens}
        )

    pairs = docs.map_batches(pair, batch_format="pyarrow").materialize()

    def hist_of(col: str):
        rows = (
            aggregate(pairs, col, [("n", "count", None)])
            .to_pandas()
            .sort_values(col)
        )
        vals = rows[col].to_numpy()
        cnts = rows["n"].to_numpy()
        cum_before = np.concatenate([[0], np.cumsum(cnts)[:-1]])
        # doubled average rank of value v: 2*c_before + t + 1
        r2 = 2 * cum_before + cnts + 1
        return vals, r2.astype(np.int64)

    av, ar2 = hist_of("n_chars")
    bv, br2 = hist_of("n_tokens")
    lut_ref = ray.put((av, ar2, bv, br2))

    def ranks(b: pa.Table) -> pa.Table:
        avv, ar, bvv, br = ray.get(lut_ref)
        a = b["n_chars"].to_numpy(zero_copy_only=False)
        t = b["n_tokens"].to_numpy(zero_copy_only=False)
        ra = ar[np.searchsorted(avv, a)]
        rb = br[np.searchsorted(bvv, t)]
        return pa.Table.from_pydict(
            {"ra": ra, "rb": rb, "raa": ra * ra, "rbb": rb * rb,
             "rab": ra * rb}
        )

    agg = aggregate(
        pairs,
        [],
        [("n_docs", "count", None)]
        + [("s_" + c, "sum", c) for c in ("ra", "rb", "raa", "rbb", "rab")],
        rows=ranks,
    )
    n, sa, sb, saa, sbb, sab = (
        int(agg[k])
        for k in ("n_docs", "s_ra", "s_rb", "s_raa", "s_rbb", "s_rab")
    )
    num = n * sab - sa * sb
    vx = n * saa - sa * sa
    vy = n * sbb - sb * sb
    rho = (
        float(num) / (math.sqrt(float(vx)) * math.sqrt(float(vy)))
        if vx and vy
        else 0.0
    )
    return pd.DataFrame(
        {
            "n_docs": [n],
            "s_ra": [sa],
            "s_rb": [sb],
            "s_rab": [sab],
            "spearman": [rho],
        }
    )


RELATIONAL_QUERIES["doc_spearman"] = _q_doc_spearman
RELATIONAL_ORACLE_SQL["doc_spearman"] = """
WITH pairs AS (
    SELECT length(text) AS n_chars,
           len(list_filter(regexp_split_to_array(text, '\\s+'),
                           x -> x <> '')) AS n_tokens
    FROM documents
),
r AS (
    SELECT CAST(2 * rank() OVER (ORDER BY n_chars)
                + count(*) OVER (PARTITION BY n_chars) - 1 AS BIGINT)
               AS ra,
           CAST(2 * rank() OVER (ORDER BY n_tokens)
                + count(*) OVER (PARTITION BY n_tokens) - 1 AS BIGINT)
               AS rb
    FROM pairs
),
s AS (
    SELECT CAST(count(*) AS HUGEINT) AS n,
           CAST(sum(ra) AS HUGEINT) AS sa,
           CAST(sum(rb) AS HUGEINT) AS sb,
           CAST(sum(ra * ra) AS HUGEINT) AS saa,
           CAST(sum(rb * rb) AS HUGEINT) AS sbb,
           CAST(sum(ra * rb) AS HUGEINT) AS sab
    FROM r
)
SELECT CAST(n AS BIGINT) AS n_docs,
       CAST(sa AS BIGINT) AS s_ra,
       CAST(sb AS BIGINT) AS s_rb,
       CAST(sab AS BIGINT) AS s_rab,
       CAST(n * sab - sa * sb AS DOUBLE)
           / (sqrt(CAST(n * saa - sa * sa AS DOUBLE))
              * sqrt(CAST(n * sbb - sb * sb AS DOUBLE))) AS spearman
FROM s
"""


# ---------------------------------------------------------------------------
# Equi-depth histogram over the event value
# ---------------------------------------------------------------------------


def _q_events_value_eqdepth(sf_dir: str):
    """Equi-depth (equal-frequency) 8-bin histogram of event value
    cents: the seven inner boundaries are exact order statistics
    (DuckDB quantile_disc rank convention, rank = ceil(q*n) in
    integer arithmetic) found by ONE ``stages.selection.quantiles``
    call for the seven qs k/8 — then ONE counting pass
    assigns each row bin_id = 1 + #(boundaries < value). Exact
    integers end-to-end; duplicate boundaries under heavy ties yield
    empty bins identically in both engines."""
    from fractions import Fraction

    import ray
    import ray.data

    from ..stages.selection import quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"]
    )

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "cents": pc.cast(
                    pc.floor(pc.add(pc.multiply(b["value"], 100.0), 0.5)),
                    pa.int64(),
                )
            }
        )

    cents = ev.map_batches(to_cents, batch_format="pyarrow")
    q = quantiles(cents, "cents",
                  {f"b{k}": Fraction(k, 8) for k in range(1, 8)})
    bounds = q[[f"b{k}" for k in range(1, 8)]].to_numpy()[0]
    bref = ray.put(bounds)

    def bins_of(b: pa.Table) -> pa.Table:
        edges = ray.get(bref)
        x = b["cents"].to_numpy(zero_copy_only=False)
        # bin = 1 + #(boundaries strictly below the value): values
        # EQUAL to a boundary belong to that boundary's bin, exactly
        # the SQL (v > b_k) indicator sum; side="right" searchsorted
        # over ascending (possibly duplicated) edges computes it
        bins = 1 + (x[:, None] > edges[None, :]).sum(axis=1)
        return pa.Table.from_pydict({"bin_id": pa.array(bins, pa.int64())})

    out = aggregate(
        cents, "bin_id", [("n", "count", None)], rows=bins_of
    ).to_pandas()
    out["bin_id"] = out["bin_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["hi_cents"] = out["bin_id"].map(
        lambda b: int(bounds[b - 1]) if b <= 7 else None
    )
    out["hi_cents"] = out["hi_cents"].astype("float64")  # NULL last bin
    return out.sort_values("bin_id").reset_index(drop=True)


RELATIONAL_QUERIES["events_value_eqdepth"] = _q_events_value_eqdepth
RELATIONAL_ORACLE_SQL["events_value_eqdepth"] = """
WITH c AS (
    SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents FROM events
),
b AS (
    SELECT quantile_disc(cents, 0.125) AS b1,
           quantile_disc(cents, 0.250) AS b2,
           quantile_disc(cents, 0.375) AS b3,
           quantile_disc(cents, 0.500) AS b4,
           quantile_disc(cents, 0.625) AS b5,
           quantile_disc(cents, 0.750) AS b6,
           quantile_disc(cents, 0.875) AS b7
    FROM c
),
binned AS (
    SELECT 1 + CAST(c.cents > b.b1 AS INT) + CAST(c.cents > b.b2 AS INT)
             + CAST(c.cents > b.b3 AS INT) + CAST(c.cents > b.b4 AS INT)
             + CAST(c.cents > b.b5 AS INT) + CAST(c.cents > b.b6 AS INT)
             + CAST(c.cents > b.b7 AS INT) AS bin_id
    FROM c, b
)
SELECT CAST(binned.bin_id AS BIGINT) AS bin_id,
       count(*) AS n,
       CAST(CASE binned.bin_id
            WHEN 1 THEN (SELECT b1 FROM b) WHEN 2 THEN (SELECT b2 FROM b)
            WHEN 3 THEN (SELECT b3 FROM b) WHEN 4 THEN (SELECT b4 FROM b)
            WHEN 5 THEN (SELECT b5 FROM b) WHEN 6 THEN (SELECT b6 FROM b)
            WHEN 7 THEN (SELECT b7 FROM b) END AS DOUBLE) AS hi_cents
FROM binned
GROUP BY binned.bin_id
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Time-weighted average value per user (TWAP)
# ---------------------------------------------------------------------------


def _q_events_twap(sf_dir: str):
    """Per-user time-weighted average value: each event's cents hold
    until the user's next event; the weight is the whole seconds
    between them (integer floor), the last event carries no weight.
    Weighted sum and duration stay exact int64 (max cents x corpus
    time span ~2e13 per user); the TWAP is one float division. Users
    whose total weighted duration is zero (single event, or all
    events within one second) are excluded in both engines.

    Physical plan: ONE coalesced ``exchange`` on user_id, then
    lexsort + reduceat segment reduction per bucket (the
    sessionize/sole-late idiom — never a per-user map_groups
    dispatch)."""
    import numpy as np
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
                "cents": _cents(b["value"]),
            }
        )

    def twap_of_bucket(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                "user_id": pa.array([], pa.int64()),
                "wsum": pa.array([], pa.int64()),
                "dsum": pa.array([], pa.int64()),
                "n_seg": pa.array([], pa.int64()),
            }
        )
        if uid.size == 0:
            return empty
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        cents = group["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, us, cents = uid[order], us[order], cents[order]
        same_user = np.concatenate([uid[1:] == uid[:-1], [False]])
        dt = np.zeros(uid.size, dtype=np.int64)
        dt[:-1] = (us[1:] - us[:-1]) // 1_000_000
        dt[~same_user] = 0  # last event of each user carries no weight
        starts = np.flatnonzero(
            np.concatenate([[True], uid[1:] != uid[:-1]])
        )
        wsum = np.add.reduceat(cents * dt, starts)
        dsum = np.add.reduceat(dt, starts)
        nseg = np.diff(np.append(starts, uid.size)) - 1  # segments
        keep = dsum > 0
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[starts][keep], pa.int64()),
                "wsum": pa.array(wsum[keep], pa.int64()),
                "dsum": pa.array(dsum[keep], pa.int64()),
                "n_seg": pa.array(nseg[keep], pa.int64()),
            }
        )

    out = (
        exchange(ev, "user_id", twap_of_bucket, rows=prep)
        .to_pandas()
    )
    for c in ("user_id", "wsum", "dsum", "n_seg"):
        out[c] = out[c].astype("int64")
    out["twap"] = out["wsum"].astype("float64") / out["dsum"].astype(
        "float64"
    )
    return out.sort_values("user_id").reset_index(drop=True)


RELATIONAL_QUERIES["events_twap"] = _q_events_twap
RELATIONAL_ORACLE_SQL["events_twap"] = """
WITH o AS (
    SELECT user_id,
           CAST(round(value * 100) AS BIGINT) AS cents,
           epoch_us(ts) AS us,
           lead(epoch_us(ts)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ) AS nxt
    FROM events
),
seg AS (
    SELECT user_id, cents, (nxt - us) // 1000000 AS dt
    FROM o WHERE nxt IS NOT NULL
),
agg AS (
    SELECT user_id,
           CAST(sum(cents * dt) AS BIGINT) AS wsum,
           CAST(sum(dt) AS BIGINT) AS dsum,
           count(*) AS n_seg
    FROM seg GROUP BY 1
)
SELECT user_id, wsum, dsum, n_seg,
       CAST(wsum AS DOUBLE) / CAST(dsum AS DOUBLE) AS twap
FROM agg
WHERE dsum > 0
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Grouped KMV sketch: distinct shingles per language
# ---------------------------------------------------------------------------


def _q_lang_distinct_shingles(sf_dir: str):
    """Distinct word-3-shingle count PER LANGUAGE via grouped KMV
    sketches (``stages.textstage.grouped_distinct_shingles_kmv``):
    each batch emits one bounded sorted-hash prefix per language it
    contains, merged in a tiny driver reduce — the sketch-as-grouped-
    combiner shape (group cardinality must be small; languages here).
    The estimator is the k-th smallest distinct md5-derived hash, so
    the grouped SQL oracle replays every estimate bit-for-bit."""
    import pandas as pd
    import ray.data

    from ..stages.textstage import grouped_distinct_shingles_kmv

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )
    stats = grouped_distinct_shingles_kmv(docs, "lang")
    rows = sorted(
        (g, k, kth, est) for g, (k, kth, est) in stats.items()
    )
    return pd.DataFrame(
        {
            "lang": [r[0] for r in rows],
            "k": pd.Series([r[1] for r in rows], dtype="int64"),
            "kth_hash": pd.Series([r[2] for r in rows], dtype="uint64"),
            "est_distinct": pd.Series(
                [r[3] for r in rows], dtype="float64"
            ),
        }
    )


RELATIONAL_QUERIES["lang_distinct_shingles"] = _q_lang_distinct_shingles
RELATIONAL_ORACLE_SQL["lang_distinct_shingles"] = """
WITH t AS (
    SELECT lang,
           list_filter(regexp_split_to_array(text, '\\s+'),
                       x -> x <> '') AS w
    FROM documents
),
sh AS (
    SELECT lang,
           CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                ELSE list_distinct(list_transform(range(1, len(w) - 1),
                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) END AS s
    FROM t
),
h AS (
    SELECT DISTINCT lang, md5_number_upper(g) AS h
    FROM (SELECT lang, unnest(s) AS g FROM sh)
),
r AS (
    SELECT lang, h,
           row_number() OVER (PARTITION BY lang ORDER BY h) AS rn
    FROM h
),
kth AS (SELECT lang, h FROM r WHERE rn = 256),
n AS (SELECT lang, count(*) AS c FROM h GROUP BY 1)
SELECT n.lang,
       CAST(256 AS BIGINT) AS k,
       CAST(COALESCE(kth.h, 0) AS UBIGINT) AS kth_hash,
       CASE WHEN n.c >= 256
            THEN 255.0 * 18446744073709551616.0
                 / CAST(kth.h AS DOUBLE)
            ELSE CAST(n.c AS DOUBLE) END AS est_distinct
FROM n LEFT JOIN kth USING (lang)
ORDER BY n.lang
"""


# ---------------------------------------------------------------------------
# Stream-stream time-band self join
# ---------------------------------------------------------------------------


def _q_events_band_pairs(sf_dir: str):
    """Stream-stream band join: per user, every (click, view) pair at
    most 15 minutes apart (inclusive), reduced to pair count and the
    exact integer sum of whole-second gaps. Views become +/-15-min
    intervals and the granule-replication interval join
    (``stages.interval.interval_join``) meets each pair in EXACTLY
    one (user, granule) bucket — no post-join dedup; replication
    factor is 2-3 granules per view. The band predicate is the SQL
    range condition DuckDB joins directly."""
    import numpy as np
    import ray.data

    from ..stages.interval import interval_join

    band_us = 15 * 60 * 1_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def prep(kind: str, fn):
        def inner(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], kind))
            us = (
                t["ts"]
                .to_numpy(zero_copy_only=False)
                .astype("datetime64[us]")
                .astype(np.int64)
            )
            return fn(t, us)

        return inner

    clicks = ev.map_batches(
        prep(
            "click",
            lambda t, us: pa.Table.from_pydict(
                {"user_id": t["user_id"], "c_us": pa.array(us, pa.int64())}
            ),
        ),
        batch_format="pyarrow",
    )
    views = ev.map_batches(
        prep(
            "view",
            lambda t, us: pa.Table.from_pydict(
                {
                    "user_id": t["user_id"],
                    "v_us": pa.array(us, pa.int64()),
                    "ws": pa.array(us - band_us, pa.int64()),
                    "we": pa.array(us + band_us + 1, pa.int64()),
                }
            ),
        ),
        batch_format="pyarrow",
    )

    joined = interval_join(
        clicks,
        views,
        key="user_id",
        ts="c_us",
        start="ws",
        end="we",
        granule_us=band_us,
    )

    def rows(batch: pa.Table) -> pa.Table:
        c = batch["c_us"].to_numpy(zero_copy_only=False)
        v = batch["v_us"].to_numpy(zero_copy_only=False)
        gap = np.abs(c - v) // 1_000_000
        return pa.Table.from_pydict(
            {"user_id": batch["user_id"], "gap": pa.array(gap, pa.int64())}
        )

    out = aggregate(
        joined,
        "user_id",
        [("n_pairs", "count", None), ("sum_gap_sec", "sum", "gap")],
        rows=rows,
    ).to_pandas()
    for c in ("user_id", "n_pairs", "sum_gap_sec"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


RELATIONAL_QUERIES["events_band_pairs"] = _q_events_band_pairs
RELATIONAL_ORACLE_SQL["events_band_pairs"] = """
WITH c AS (
    SELECT user_id, epoch_us(ts) AS us
    FROM events WHERE event_type = 'click'
),
v AS (
    SELECT user_id, epoch_us(ts) AS us
    FROM events WHERE event_type = 'view'
)
SELECT c.user_id,
       count(*) AS n_pairs,
       CAST(sum(abs(c.us - v.us) // 1000000) AS BIGINT) AS sum_gap_sec
FROM c JOIN v
  ON c.user_id = v.user_id
 AND abs(c.us - v.us) <= 900000000
GROUP BY 1
ORDER BY 1
"""


def _q_events_ewma(sf_dir: str):
    """Per-user exponentially-weighted trailing average over the 16
    most recent events (half-life one event): weight for the i-th
    most recent is the exact integer 2^(16-i), so numerator and
    denominator are exact int64 sums and the EWMA is ONE float
    division — the weighted-ROWS-frame window twin of events_moving.
    Users with fewer than 16 events use all of them (the denominator
    2^16 - 2^(16-m) self-normalizes).

    Physical plan: ONE coalesced ``exchange`` on user_id, then
    lexsort + per-segment tail-gather with vectorized offset-from-end
    weights (the sessionize/TWAP idiom — never a per-user map_groups
    dispatch)."""
    import numpy as np
    import ray.data

    K = 16

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def prep(b: pa.Table) -> pa.Table:
        import numpy as np

        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
                "cents": _cents(b["value"]),
            }
        )

    def ewma_of_bucket(group: pa.Table) -> pa.Table:
        import numpy as np

        uid = group["user_id"].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                "user_id": pa.array([], pa.int64()),
                "n_used": pa.array([], pa.int64()),
                "ewma_num": pa.array([], pa.int64()),
                "ewma_denom": pa.array([], pa.int64()),
            }
        )
        if uid.size == 0:
            return empty
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        cents = group["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, cents = uid[order], cents[order]
        starts = np.flatnonzero(
            np.concatenate([[True], uid[1:] != uid[:-1]])
        )
        ends = np.append(starts[1:], uid.size)
        m = np.minimum(ends - starts, K)
        # gather the last m rows of every segment, flattened
        gstart = ends - m
        reps = np.repeat(gstart - np.concatenate([[0], np.cumsum(m)[:-1]]),
                         m)
        idx = np.arange(int(m.sum())) + reps
        gb = np.repeat(np.arange(starts.size), m)  # segment id per row
        off = ends[gb] - idx  # 1 = most recent
        w = (np.int64(1) << (K - off)).astype(np.int64)
        seg_starts = np.concatenate([[0], np.cumsum(m)[:-1]])
        num = np.add.reduceat(cents[idx] * w, seg_starts)
        den = np.add.reduceat(w, seg_starts)
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "n_used": pa.array(m, pa.int64()),
                "ewma_num": pa.array(num, pa.int64()),
                "ewma_denom": pa.array(den, pa.int64()),
            }
        )

    out = (
        exchange(ev, "user_id", ewma_of_bucket, rows=prep)
        .to_pandas()
    )
    for c in ("user_id", "n_used", "ewma_num", "ewma_denom"):
        out[c] = out[c].astype("int64")
    out["ewma"] = out["ewma_num"].astype("float64") / out[
        "ewma_denom"
    ].astype("float64")
    return out.sort_values("user_id").reset_index(drop=True)


RELATIONAL_QUERIES["events_ewma"] = _q_events_ewma
RELATIONAL_ORACLE_SQL["events_ewma"] = """
WITH o AS (
    SELECT user_id,
           CAST(round(value * 100) AS BIGINT) AS cents,
           row_number() OVER (
               PARTITION BY user_id
               ORDER BY epoch_us(ts) DESC, event_id DESC) AS rn
    FROM events
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_used,
       CAST(sum(cents * (1::BIGINT << CAST(16 - rn AS INTEGER)))
            AS BIGINT) AS ewma_num,
       CAST(sum(1::BIGINT << CAST(16 - rn AS INTEGER))
            AS BIGINT) AS ewma_denom,
       CAST(sum(cents * (1::BIGINT << CAST(16 - rn AS INTEGER)))
            AS DOUBLE)
           / CAST(sum(1::BIGINT << CAST(16 - rn AS INTEGER))
                  AS DOUBLE) AS ewma
FROM o WHERE rn <= 16
GROUP BY user_id ORDER BY user_id
"""


def _q_events_changepoint(sf_dir: str):
    """Per-event-type CUSUM change-point detection
    (``stages.window.cusum_changepoint``): the time-ordered split
    k* = argmax_k |n*P_k - k*S| over each type's event-cents
    sequence, statistic kept in exact int64 (scaled by n so no
    rational mean enters), ties -> earliest k. mean_before/after are
    two float divisions of exact integers. Physical plan: one sorted
    scan (``stages.window.over``) gives every event its k and prefix
    sum, then a grouped top-1 keeps each type's argmax."""
    import numpy as np
    import ray.data

    from ..stages.window import cusum_changepoint

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_type": b["event_type"],
                "event_id": b["event_id"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
                "cents": _cents(b["value"]),
            }
        )

    out = cusum_changepoint(
        ev.map_batches(prep, batch_format="pyarrow"),
        group_col="event_type",
        order_col="us",
        tiebreak_col="event_id",
        val_col="cents",
    )
    out = out.rename(columns={"group": "event_type"})
    out["mean_before"] = out["split_p"].astype("float64") / out[
        "k_star"
    ].astype("float64")
    out["mean_after"] = (
        out["total_s"].astype("float64")
        - out["split_p"].astype("float64")
    ) / (out["n"].astype("float64") - out["k_star"].astype("float64"))
    out = out.drop(columns=["total_s"])
    return out.sort_values("event_type").reset_index(drop=True)


RELATIONAL_QUERIES["events_changepoint"] = _q_events_changepoint
RELATIONAL_ORACLE_SQL["events_changepoint"] = """
WITH o AS (
    SELECT event_type, event_id,
           CAST(round(value * 100) AS BIGINT) AS cents,
           row_number() OVER (
               PARTITION BY event_type
               ORDER BY epoch_us(ts), event_id) AS k
    FROM events
), tot AS (
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(cents) AS BIGINT) AS s
    FROM o GROUP BY event_type
), cum AS (
    SELECT event_type, k,
           CAST(sum(cents) OVER (
               PARTITION BY event_type ORDER BY k) AS BIGINT) AS p
    FROM o
), st AS (
    SELECT c.event_type, c.k, c.p,
           abs(t.n * c.p - c.k * t.s) AS stat
    FROM cum c JOIN tot t USING (event_type)
    WHERE c.k < t.n
), best AS (
    SELECT event_type, k, p, stat,
           row_number() OVER (
               PARTITION BY event_type
               ORDER BY stat DESC, k ASC) AS rn
    FROM st
)
SELECT b.event_type, t.n, b.k AS k_star,
       CAST(b.stat AS BIGINT) AS cusum_stat,
       b.p AS split_p,
       CAST(b.p AS DOUBLE) / CAST(b.k AS DOUBLE) AS mean_before,
       CAST(t.s - b.p AS DOUBLE) / CAST(t.n - b.k AS DOUBLE)
           AS mean_after
FROM best b JOIN tot t USING (event_type)
WHERE b.rn = 1
ORDER BY b.event_type
"""


def _q_events_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of the cents sequence per event type
    (``stages.window.lag1_stats``): Pearson correlation of the n-1
    consecutive (x_{k-1}, x_k) pairs in (ts, event_id) order. All
    sufficient statistics are exact int64, collected by one sorted
    scan that pairs each event with its predecessor
    (``stages.window.over``) and one grouped sum; the final correlation is
    four python-bigint products and three float ops, so the SQL
    ``lag()`` window oracle replays it bit-for-bit. Degenerate
    (zero-variance) sides define corr = 0.0."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    from ..stages.window import lag1_stats

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_type": b["event_type"],
                "event_id": b["event_id"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
                "cents": _cents(b["value"]),
            }
        )

    st = lag1_stats(
        ev.map_batches(prep, batch_format="pyarrow"),
        group_col="event_type",
        order_col="us",
        tiebreak_col="event_id",
        val_col="cents",
    )
    rows = []
    for r in st.itertuples():
        m = int(r.m)
        s_a, s_b, s_ab = int(r.s_a), int(r.s_b), int(r.s_ab)
        s_aa = int(r.s_xx) - int(r.last_v) ** 2
        s_bb = int(r.s_xx) - int(r.first_v) ** 2
        num = m * s_ab - s_a * s_b
        d1 = m * s_aa - s_a * s_a
        d2 = m * s_bb - s_b * s_b
        corr = (
            float(num) / math.sqrt(float(d1) * float(d2))
            if d1 > 0 and d2 > 0
            else 0.0
        )
        rows.append(
            {
                "event_type": r.group,
                "n": int(r.n),
                "m": m,
                "s_ab": s_ab,
                "lag1_corr": corr,
            }
        )
    return (
        pd.DataFrame(rows,
                     columns=["event_type", "n", "m", "s_ab",
                              "lag1_corr"])
        .sort_values("event_type")
        .reset_index(drop=True)
    )


RELATIONAL_QUERIES["events_autocorr"] = _q_events_autocorr
RELATIONAL_ORACLE_SQL["events_autocorr"] = """
WITH o AS (
    SELECT event_type,
           CAST(round(value * 100) AS BIGINT) AS x,
           lag(CAST(round(value * 100) AS BIGINT)) OVER (
               PARTITION BY event_type
               ORDER BY epoch_us(ts), event_id) AS prev
    FROM events
), st AS (
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n,
           CAST(count(prev) AS BIGINT) AS m,
           CAST(sum(prev) AS BIGINT) AS s_a,
           CAST(sum(CASE WHEN prev IS NOT NULL THEN x END)
                AS BIGINT) AS s_b,
           CAST(sum(CAST(prev AS HUGEINT) * x) AS BIGINT) AS s_ab,
           CAST(sum(CASE WHEN prev IS NOT NULL
                         THEN CAST(prev AS HUGEINT) * prev END)
                AS BIGINT) AS s_aa,
           CAST(sum(CASE WHEN prev IS NOT NULL
                         THEN CAST(x AS HUGEINT) * x END)
                AS BIGINT) AS s_bb
    FROM o GROUP BY event_type
)
SELECT event_type, n, m, s_ab,
       CASE WHEN (m * CAST(s_aa AS HUGEINT) -
                  CAST(s_a AS HUGEINT) * s_a) > 0
             AND (m * CAST(s_bb AS HUGEINT) -
                  CAST(s_b AS HUGEINT) * s_b) > 0
            THEN CAST(m * CAST(s_ab AS HUGEINT) -
                      CAST(s_a AS HUGEINT) * s_b AS DOUBLE)
                 / sqrt(CAST(m * CAST(s_aa AS HUGEINT) -
                             CAST(s_a AS HUGEINT) * s_a AS DOUBLE)
                        * CAST(m * CAST(s_bb AS HUGEINT) -
                               CAST(s_b AS HUGEINT) * s_b AS DOUBLE))
            ELSE 0.0 END AS lag1_corr
FROM st ORDER BY event_type
"""


def _q_events_gini(sf_dir: str):
    """Gini coefficient of the cents distribution per event type:
    G = (2*sum(i*x_(i)) - (n+1)*sum(x)) / (n*sum(x)) over the
    ascending-sorted values — computed WITHOUT any sort of the rows:
    a (type, cents) count-histogram exchange (like pass 0 of
    ``selection.quantiles``; the histogram is value-domain-bounded,
    never row-scale),
    then the rank-weighted sum in closed form per distinct value
    (positions p+1..p+c contribute x*(2*(c*p + c*(c+1)/2))) in
    python bigints on the driver. Tie order cannot affect the sum
    (equal values), so row_number in the SQL oracle replays it
    exactly; the Gini itself is three final float ops."""
    import numpy as np
    import pandas as pd
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def rows(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_type": batch["event_type"],
                "cents": _cents(batch["value"]),
            }
        )

    hist = aggregate(
        ev, ["event_type", "cents"], [("c", "count", "cents")], rows=rows
    ).to_pandas()
    rows = []
    for et, sub in hist.groupby("event_type", sort=True):
        sub = sub.sort_values("cents")
        xs = sub["cents"].astype("int64").tolist()
        cs = sub["c"].astype("int64").tolist()
        n = sum(cs)
        sx = 0
        six = 0  # sum of rank*value over the sorted multiset
        p = 0
        for x, c in zip(xs, cs):
            x, c = int(x), int(c)
            sx += x * c
            six += x * (c * p + c * (c + 1) // 2)
            p += c
        num = 2 * six - (n + 1) * sx
        rows.append(
            {
                "event_type": et,
                "n": n,
                "s_x": sx,
                "gini_num": num,
                "gini": float(num) / (float(n) * float(sx))
                if n and sx
                else 0.0,
            }
        )
    return pd.DataFrame(
        rows, columns=["event_type", "n", "s_x", "gini_num", "gini"]
    ).reset_index(drop=True)


RELATIONAL_QUERIES["events_gini"] = _q_events_gini
RELATIONAL_ORACLE_SQL["events_gini"] = """
WITH o AS (
    SELECT event_type, CAST(round(value * 100) AS BIGINT) AS x
    FROM events
), r AS (
    SELECT event_type, x,
           row_number() OVER (
               PARTITION BY event_type ORDER BY x) AS i
    FROM o
), st AS (
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(x) AS BIGINT) AS s_x,
           CAST(sum(CAST(i AS HUGEINT) * x) AS HUGEINT) AS six
    FROM r GROUP BY event_type
)
SELECT event_type, n, s_x,
       CAST(2 * six - (n + 1) * CAST(s_x AS HUGEINT) AS BIGINT)
           AS gini_num,
       CASE WHEN n > 0 AND s_x <> 0
            THEN CAST(2 * six - (n + 1) * CAST(s_x AS HUGEINT)
                      AS DOUBLE)
                 / (CAST(n AS DOUBLE) * CAST(s_x AS DOUBLE))
            ELSE 0.0 END AS gini
FROM st ORDER BY event_type
"""


def _q_lineitem_weighted_median(sf_dir: str):
    """Quantity-weighted median of the lineitem extended price (in
    integer cents): the smallest price whose cumulative quantity
    reaches ceil(W/2) — the weighted order statistic via
    ``stages.selection.quantiles(weight=...)`` (exact int64 weight
    sums, in the histogram or the bucket refinement). Nothing ever
    sorts."""
    import ray.data

    from ..stages.selection import quantiles

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_quantity"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "cents": _cents(b["l_extendedprice"]),
                "qty": pa.compute.cast(
                    pa.compute.round(b["l_quantity"]), pa.int64()
                ),
            }
        )

    keyed = li.map_batches(prep, batch_format="pyarrow")
    out = quantiles(keyed, "cents", {"median_cents": 0.5}, weight="qty")
    return out.rename(columns={"n": "w_total"})[["w_total", "median_cents"]]


RELATIONAL_QUERIES["lineitem_weighted_median"] = (
    _q_lineitem_weighted_median
)
RELATIONAL_ORACLE_SQL["lineitem_weighted_median"] = """
WITH o AS (
    SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS x,
           CAST(round(l_quantity) AS BIGINT) AS w
    FROM lineitem
), c AS (
    SELECT x, CAST(sum(w) AS BIGINT) AS ws FROM o GROUP BY x
), t AS (
    SELECT CAST(sum(ws) AS BIGINT) AS tot FROM c
), r AS (
    SELECT x, CAST(sum(ws) OVER (ORDER BY x) AS BIGINT) AS cw FROM c
)
SELECT t.tot AS w_total,
       (SELECT min(x) FROM r WHERE cw >= (t.tot + 1) // 2)
           AS median_cents
FROM t
"""


def _q_events_ab_test(sf_dir: str):
    """Two-proportion z-test on a deterministic A/B split: treatment =
    user_id parity, conversion = user has >= 1 'purchase' event with
    value > 250 (threshold probed non-degenerate at BOTH sf0.01 and
    sf0.1 — the gapfill lesson: sparsity constants are sf-dependent).
    The
    counts (n_a, c_a, n_b, c_b) are exact integers from one
    user-keyed Max exchange (per-batch (user, any-purchase) partials
    pre-combined); the z statistic is the pooled-variance formula in
    a FIXED operation order mirrored by the SQL oracle term-for-term,
    so the doubles agree bit-for-bit."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"],
    )

    def conv_rows(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False)
        conv = (
            np.array(
                [t == "purchase" for t in b["event_type"].to_pylist()]
            )
            & (val > 250.0)
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {"user_id": pa.array(uid, pa.int64()),
             "conv": pa.array(conv, pa.int64())}
        )

    per_user = aggregate(
        ev, "user_id", [("conv", "max", "conv")], rows=conv_rows
    )

    def split_rows(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        conv = b["conv"].to_numpy(zero_copy_only=False)
        a = (uid % 2 == 0).astype(np.int64)
        return pa.Table.from_pydict(
            {"a": a, "ca": conv * a, "b": 1 - a, "cb": conv * (1 - a)}
        )

    agg = aggregate(
        per_user,
        [],
        [("n_a", "sum", "a"), ("c_a", "sum", "ca"),
         ("n_b", "sum", "b"), ("c_b", "sum", "cb")],
        rows=split_rows,
    )
    n_a, c_a = int(agg["n_a"]), int(agg["c_a"])
    n_b, c_b = int(agg["n_b"]), int(agg["c_b"])
    p_a = c_a / n_a
    p_b = c_b / n_b
    pp = (c_a + c_b) / (n_a + n_b)
    var = pp * (1 - pp) * (1.0 / n_a + 1.0 / n_b)
    z = (p_a - p_b) / math.sqrt(var) if var > 0 else 0.0
    return pd.DataFrame(
        {
            "n_a": [n_a], "c_a": [c_a], "n_b": [n_b], "c_b": [c_b],
            "lift": [p_a - p_b], "z_stat": [z],
        }
    )


RELATIONAL_QUERIES["events_ab_test"] = _q_events_ab_test
RELATIONAL_ORACLE_SQL["events_ab_test"] = """
WITH pu AS (
    SELECT user_id,
           max(CASE WHEN event_type = 'purchase' AND value > 250
                    THEN 1 ELSE 0 END) AS conv
    FROM events GROUP BY user_id
), s AS (
    SELECT
        CAST(sum(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END)
             AS BIGINT) AS n_a,
        CAST(sum(CASE WHEN user_id % 2 = 0 THEN conv ELSE 0 END)
             AS BIGINT) AS c_a,
        CAST(sum(CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END)
             AS BIGINT) AS n_b,
        CAST(sum(CASE WHEN user_id % 2 = 1 THEN conv ELSE 0 END)
             AS BIGINT) AS c_b
    FROM pu
)
SELECT n_a, c_a, n_b, c_b,
       CAST(c_a AS DOUBLE) / n_a - CAST(c_b AS DOUBLE) / n_b AS lift,
       CASE WHEN (CAST(c_a + c_b AS DOUBLE) / (n_a + n_b))
                 * (1 - CAST(c_a + c_b AS DOUBLE) / (n_a + n_b))
                 * (1.0 / n_a + 1.0 / n_b) > 0
            THEN (CAST(c_a AS DOUBLE) / n_a - CAST(c_b AS DOUBLE) / n_b)
                 / sqrt((CAST(c_a + c_b AS DOUBLE) / (n_a + n_b))
                        * (1 - CAST(c_a + c_b AS DOUBLE) / (n_a + n_b))
                        * (1.0 / n_a + 1.0 / n_b))
            ELSE 0.0 END AS z_stat
FROM s
"""


def _q_events_markov(sf_dir: str):
    """First-order Markov transition counts over each user's
    time-ordered event-type sequence: exact (prev_type, next_type)
    counts plus the row-conditional transition probability (one float
    division per cell). Physical plan: ONE coalesced ``exchange``
    on user_id, lexsort + vectorized shift inside
    each bucket (adjacent pairs never cross users), per-bucket pair
    counts summed per (prev, next) by ``stages/aggregate.py``."""
    import numpy as np
    import pandas as pd
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
                "event_type": b["event_type"],
            }
        )

    def pairs_of_bucket(group: pa.Table) -> pa.Table:
        import numpy as np

        uid = group["user_id"].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                "prev_type": pa.array([], pa.string()),
                "next_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if uid.size < 2:
            return empty
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        et = np.array(group["event_type"].to_pylist())
        order = np.lexsort((eid, us, uid))
        uid, et = uid[order], et[order]
        same = uid[1:] == uid[:-1]
        prev, nxt = et[:-1][same], et[1:][same]
        if prev.size == 0:
            return empty
        import pandas as pd

        df = (
            pd.DataFrame({"prev_type": prev, "next_type": nxt})
            .groupby(["prev_type", "next_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pydict(
            {
                "prev_type": pa.array(df["prev_type"], pa.string()),
                "next_type": pa.array(df["next_type"], pa.string()),
                "n": pa.array(df["n"].astype("int64"), pa.int64()),
            }
        )

    out = aggregate(
        exchange(ev, "user_id", pairs_of_bucket, rows=prep),
        ["prev_type", "next_type"],
        [("n", "sum", "n")],
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    row_tot = out.groupby("prev_type")["n"].transform("sum")
    out["p"] = out["n"].astype("float64") / row_tot.astype("float64")
    return out.sort_values(["prev_type", "next_type"]).reset_index(
        drop=True
    )


RELATIONAL_QUERIES["events_markov"] = _q_events_markov
RELATIONAL_ORACLE_SQL["events_markov"] = """
WITH o AS (
    SELECT user_id, event_type,
           lag(event_type) OVER (
               PARTITION BY user_id
               ORDER BY epoch_us(ts), event_id) AS prev_type
    FROM events
), c AS (
    SELECT prev_type, event_type AS next_type,
           CAST(count(*) AS BIGINT) AS n
    FROM o WHERE prev_type IS NOT NULL
    GROUP BY prev_type, next_type
)
SELECT prev_type, next_type, n,
       CAST(n AS DOUBLE)
           / CAST(sum(n) OVER (PARTITION BY prev_type) AS DOUBLE) AS p
FROM c
ORDER BY prev_type, next_type
"""


def _q_events_benford(sf_dir: str):
    """Benford first-digit audit of event cents (the classic
    fabricated-data screen): exact counts per leading digit 1-9 from
    per-batch bincount partials, next to the Benford expectation
    p_d = log10(1 + 1/d) and each digit's standardized residual
    (n_d - N*p_d) / sqrt(N*p_d*(1-p_d)) — a handful of float ops per
    digit in fixed order, mirrored by the oracle. Zero/negative cents
    are excluded (no leading digit)."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"]
    )

    def digit_counts(b: pa.Table) -> pa.Table:
        import numpy as np

        cents = _cents(b["value"]).to_numpy(zero_copy_only=False)
        cents = cents[cents > 0]
        # leading decimal digit, vectorized: shift down by 10 until < 10
        x = cents.copy()
        while (x >= 10).any():
            x = np.where(x >= 10, x // 10, x)
        counts = np.bincount(x, minlength=10)[1:10]
        return pa.Table.from_pydict(
            {f"d{d}": pa.array([int(counts[d - 1])], pa.int64())
             for d in range(1, 10)}
        )

    agg = aggregate(
        ev, [], [(f"d{d}", "sum", f"d{d}") for d in range(1, 10)],
        rows=digit_counts,
    )
    ns = [int(agg[f"d{d}"]) for d in range(1, 10)]
    n_total = sum(ns)
    rows = []
    for d, nd in zip(range(1, 10), ns):
        p = math.log10(1.0 + 1.0 / d)
        e = n_total * p
        z = (nd - e) / math.sqrt(e * (1.0 - p))
        rows.append(
            {"digit": d, "n": nd, "expected_p": p, "z_resid": z}
        )
    return pd.DataFrame(
        rows, columns=["digit", "n", "expected_p", "z_resid"]
    )


RELATIONAL_QUERIES["events_benford"] = _q_events_benford
RELATIONAL_ORACLE_SQL["events_benford"] = """
WITH o AS (
    SELECT CAST(round(value * 100) AS BIGINT) AS cents FROM events
), d AS (
    SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT)
           AS digit
    FROM o WHERE cents > 0
), c AS (
    SELECT g.digit,
           CAST(count(d.digit) AS BIGINT) AS n
    FROM generate_series(1, 9) g(digit)
    LEFT JOIN d ON d.digit = g.digit
    GROUP BY g.digit
), t AS (
    SELECT CAST(sum(n) AS BIGINT) AS nt FROM c
)
SELECT c.digit, c.n,
       log10(1.0 + 1.0 / c.digit) AS expected_p,
       (c.n - t.nt * log10(1.0 + 1.0 / c.digit))
       / sqrt(t.nt * log10(1.0 + 1.0 / c.digit)
              * (1.0 - log10(1.0 + 1.0 / c.digit))) AS z_resid
FROM c, t
ORDER BY c.digit
"""


def _q_events_winsorized_mean(sf_dir: str):
    """Winsorized mean per event type (the standard outlier-robust
    cleaning step): cents clipped to the per-type [p05, p95] discrete
    quantiles (rank = ceil(q*n) integer arithmetic, DuckDB
    quantile_disc convention, both from ONE grouped
    ``stages.selection.quantiles`` call, no sort), then the
    clipped sum stays exact int64 and the mean is one float division.
    Output per type: n, p05/p95 cents, winsorized sum and mean."""
    import numpy as np
    import ray.data

    from ..stages.selection import quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_type": b["event_type"],
                "cents": _cents(b["value"]),
            }
        )

    keyed = ev.map_batches(prep, batch_format="pyarrow")
    q = quantiles(keyed, "cents", {"p05": 0.05, "p95": 0.95},
                  by="event_type")
    lo_q = dict(zip(q["event_type"], q["p05"].tolist()))
    hi_q = dict(zip(q["event_type"], q["p95"].tolist()))
    import ray

    bounds_ref = ray.put((lo_q, hi_q))

    def clip_rows(b: pa.Table) -> pa.Table:
        import numpy as np
        import ray

        lo_m, hi_m = ray.get(bounds_ref)
        et = b["event_type"].to_pylist()
        c = b["cents"].to_numpy(zero_copy_only=False)
        lo = np.array([lo_m[t] for t in et], dtype=np.int64)
        hi = np.array([hi_m[t] for t in et], dtype=np.int64)
        return pa.Table.from_pydict(
            {
                "event_type": pa.array(et, pa.string()),
                "w": pa.array(np.clip(c, lo, hi), pa.int64()),
            }
        )

    out = aggregate(
        keyed,
        "event_type",
        [("wsum", "sum", "w"), ("n", "count", None)],
        rows=clip_rows,
    ).to_pandas()
    out["wsum"] = out["wsum"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["p05_cents"] = out["event_type"].map(lo_q).astype("int64")
    out["p95_cents"] = out["event_type"].map(hi_q).astype("int64")
    out["wmean"] = out["wsum"].astype("float64") / out["n"].astype(
        "float64"
    )
    return (
        out[["event_type", "n", "p05_cents", "p95_cents", "wsum",
             "wmean"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


RELATIONAL_QUERIES["events_winsorized_mean"] = _q_events_winsorized_mean
RELATIONAL_ORACLE_SQL["events_winsorized_mean"] = """
WITH o AS (
    SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents
    FROM events
), q AS (
    SELECT event_type,
           CAST(quantile_disc(cents, 0.05) AS BIGINT) AS p05,
           CAST(quantile_disc(cents, 0.95) AS BIGINT) AS p95,
           CAST(count(*) AS BIGINT) AS n
    FROM o GROUP BY event_type
), w AS (
    SELECT o.event_type,
           least(greatest(o.cents, q.p05), q.p95) AS wc
    FROM o JOIN q ON o.event_type = q.event_type
)
SELECT q.event_type, q.n, q.p05 AS p05_cents, q.p95 AS p95_cents,
       CAST(sum(w.wc) AS BIGINT) AS wsum,
       CAST(sum(w.wc) AS DOUBLE) / CAST(q.n AS DOUBLE) AS wmean
FROM w JOIN q ON w.event_type = q.event_type
GROUP BY q.event_type, q.n, q.p05, q.p95
ORDER BY q.event_type
"""


def _q_events_interarrival(sf_dir: str):
    """Inter-arrival-time distribution: per-user adjacent gaps (whole
    seconds, integer floor) bucketed by bit length (log2 bands — the
    standard latency-histogram shape), with exact counts and the
    exact integer gap sum per band. One coalesced hash(user) exchange
    (lexsort + shift, pairs never cross users), per-bucket bincount
    partials, tiny band groupby. The oracle reuses the pure-SQL
    bit-length smear from the HLL toolkit."""
    import numpy as np
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    def gaps_of_bucket(group: pa.Table) -> pa.Table:
        import numpy as np

        uid = group["user_id"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, us = uid[order], us[order]
        same = uid[1:] == uid[:-1]
        gap_s = ((us[1:] - us[:-1]) // 1_000_000)[same]
        band = np.zeros(gap_s.size, dtype=np.int64)
        nz = gap_s > 0
        band[nz] = np.frexp(gap_s[nz].astype(np.float64))[1]
        return pa.Table.from_pydict(
            {
                "band": pa.array(band, pa.int64()),
                "g": pa.array(gap_s, pa.int64()),
            }
        )

    out = aggregate(
        exchange(ev, "user_id", gaps_of_bucket, rows=prep),
        "band",
        [("n", "count", None), ("gap_sum", "sum", "g")],
    ).to_pandas()
    for c in ("band", "n", "gap_sum"):
        out[c] = out[c].astype("int64")
    return out.sort_values("band").reset_index(drop=True)


def _interarrival_oracle_sql() -> str:
    from .queries_training import _bitlen_smear_sql

    # band = bit_length(gap_s) for gap_s > 0, else 0 — identical to
    # numpy frexp's exponent for positive ints
    return f"""
WITH o AS (
    SELECT user_id, epoch_us(ts) AS us,
           lag(epoch_us(ts)) OVER (
               PARTITION BY user_id
               ORDER BY epoch_us(ts), event_id) AS prev
    FROM events
), g AS (
    SELECT CAST((us - prev) // 1000000 AS BIGINT) AS gap_s
    FROM o WHERE prev IS NOT NULL
), b AS (
    SELECT gap_s,
           CASE WHEN gap_s > 0
                THEN CAST({_bitlen_smear_sql("CAST(gap_s AS UBIGINT)")}
                     AS BIGINT)
                ELSE 0 END AS band
    FROM g
)
SELECT band, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(gap_s) AS BIGINT) AS gap_sum
FROM b GROUP BY band ORDER BY band
"""


RELATIONAL_QUERIES["events_interarrival"] = _q_events_interarrival
RELATIONAL_ORACLE_SQL["events_interarrival"] = _interarrival_oracle_sql()


def _q_events_type_xcorr(sf_dir: str):
    """Lead-lag cross-correlation of the 'click' and 'purchase'
    daily-count series at lags 0..2 days (does click activity predict
    purchases?): the two series come from one (day, type) count
    aggregate over the full calendar-day spine (explicit zeros, the
    gapfill pattern), so every sufficient statistic is an exact
    integer and each correlation is a handful of float ops mirrored
    by the oracle. Pairs are (click[d], purchase[d+lag]) over the
    days where both positions exist."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    DAY_US = 86_400_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]
    )

    def day_et(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        et = np.asarray(b["event_type"].to_pylist())
        us = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        keep = (et == "click") | (et == "purchase")
        return pa.Table.from_pydict(
            {
                "day": pa.array(us[keep] // DAY_US, pa.int64()),
                "et": pa.array(et[keep], pa.string()),
            }
        )

    counts = aggregate(
        ev, ["day", "et"], [("n", "count", None)], rows=day_et
    ).to_pandas()
    lim = aggregate(
        ev,
        [],
        [("lo", "min", "d"), ("hi", "max", "d")],
        rows=lambda b: pa.Table.from_pydict(
            {
                "d": pa.array(
                    b["ts"].to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]").astype(np.int64)
                    // DAY_US,
                    pa.int64(),
                )
            }
        ),
    )
    lo, hi = int(lim["lo"]), int(lim["hi"])
    days = np.arange(lo, hi + 1)
    series = {}
    for et in ("click", "purchase"):
        sub = counts[counts["et"] == et]
        arr = np.zeros(days.size, dtype=np.int64)
        idx = sub["day"].astype("int64").to_numpy() - lo
        arr[idx] = sub["n"].astype("int64").to_numpy()
        series[et] = arr
    x, y = series["click"], series["purchase"]
    rows = []
    for lag in (0, 1, 2):
        a = x[: days.size - lag].astype(object)
        b_ = y[lag:].astype(object)
        m = len(a)
        sa, sb = int(sum(a)), int(sum(b_))
        sab = int(sum(a * b_))
        saa = int(sum(a * a))
        sbb = int(sum(b_ * b_))
        num = m * sab - sa * sb
        d1 = m * saa - sa * sa
        d2 = m * sbb - sb * sb
        corr = (
            float(num) / math.sqrt(float(d1) * float(d2))
            if d1 > 0 and d2 > 0
            else 0.0
        )
        rows.append(
            {"lag": lag, "n_days": m, "s_ab": sab, "xcorr": corr}
        )
    return pd.DataFrame(rows, columns=["lag", "n_days", "s_ab",
                                       "xcorr"])


RELATIONAL_QUERIES["events_type_xcorr"] = _q_events_type_xcorr
RELATIONAL_ORACLE_SQL["events_type_xcorr"] = """
WITH b AS (
    SELECT epoch_us(ts) // 86400000000 AS day, event_type FROM events
), lim AS (
    SELECT min(day) AS lo, max(day) AS hi FROM b
), spine AS (
    SELECT unnest(generate_series(lo, hi)) AS day FROM lim
), c AS (
    SELECT s.day,
           CAST(coalesce(sum(CASE WHEN b.event_type = 'click'
                                  THEN 1 END), 0) AS BIGINT) AS x,
           CAST(coalesce(sum(CASE WHEN b.event_type = 'purchase'
                                  THEN 1 END), 0) AS BIGINT) AS y
    FROM spine s LEFT JOIN b ON b.day = s.day
    GROUP BY s.day
), lags AS (
    SELECT unnest(generate_series(0, 2)) AS lag
), pairs AS (
    SELECT l.lag, a.x, bb.y
    FROM lags l
    JOIN c a ON TRUE
    JOIN c bb ON bb.day = a.day + l.lag
), st AS (
    SELECT lag,
           CAST(count(*) AS BIGINT) AS m,
           CAST(sum(x) AS BIGINT) AS sa,
           CAST(sum(y) AS BIGINT) AS sb,
           CAST(sum(CAST(x AS HUGEINT) * y) AS BIGINT) AS sab,
           CAST(sum(CAST(x AS HUGEINT) * x) AS BIGINT) AS saa,
           CAST(sum(CAST(y AS HUGEINT) * y) AS BIGINT) AS sbb
    FROM pairs GROUP BY lag
)
SELECT lag, m AS n_days, sab AS s_ab,
       CASE WHEN (m * CAST(saa AS HUGEINT) -
                  CAST(sa AS HUGEINT) * sa) > 0
             AND (m * CAST(sbb AS HUGEINT) -
                  CAST(sb AS HUGEINT) * sb) > 0
            THEN CAST(m * CAST(sab AS HUGEINT) -
                      CAST(sa AS HUGEINT) * sb AS DOUBLE)
                 / sqrt(CAST(m * CAST(saa AS HUGEINT) -
                             CAST(sa AS HUGEINT) * sa AS DOUBLE)
                        * CAST(m * CAST(sbb AS HUGEINT) -
                               CAST(sb AS HUGEINT) * sb AS DOUBLE))
            ELSE 0.0 END AS xcorr
FROM st ORDER BY lag
"""


def _q_events_survival(sf_dir: str):
    """Kaplan-Meier adoption curve: time (days) from each user's
    first event to their first high-value purchase (value > 250 — the
    threshold probed non-degenerate at both scales); users who never
    adopt are right-censored at their last event. Per-user (T, event)
    reduces from one groupby of conditional-min partials; the KM
    table (distinct event times, day-bounded) builds from a tiny
    (T, n_event, n_censor) histogram, with exact integer risk sets
    (suffix sums) and the survival product multiplied SEQUENTIALLY in
    ascending-time order — DuckDB's windowed product() evaluates in
    ORDER BY order, so the doubles match factor for factor."""
    import numpy as np
    import pandas as pd
    import ray.data

    DAY_US = 86_400_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"],
    )

    def user_days(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        day = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64) // DAY_US
        )
        et = np.asarray(b["event_type"].to_pylist())
        val = b["value"].to_numpy(zero_copy_only=False)
        adopt = (et == "purchase") & (val > 250.0)
        big = np.int64(1) << 40
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(
                    b["user_id"].to_numpy(zero_copy_only=False), pa.int64()
                ),
                "day": pa.array(day, pa.int64()),
                # adoption day, +inf-sentinel when this row is not one
                "p": pa.array(np.where(adopt, day, big), pa.int64()),
            }
        )

    per_user = aggregate(
        ev,
        "user_id",
        [("f", "min", "day"), ("l", "max", "day"), ("p", "min", "p")],
        rows=user_days,
    )

    def km_rows(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        f = b["f"].to_numpy(zero_copy_only=False)
        l = b["l"].to_numpy(zero_copy_only=False)
        p = b["p"].to_numpy(zero_copy_only=False)
        big = np.int64(1) << 40
        observed = p < big
        t = np.where(observed, p - f, l - f)
        return pa.Table.from_pydict(
            {
                "t": pa.array(t, pa.int64()),
                "e": pa.array(observed.astype(np.int64)),
            }
        )

    hist = (
        aggregate(
            per_user,
            "t",
            [("n_event", "sum", "e"), ("n_total", "count", None)],
            rows=km_rows,
        )
        .to_pandas()
        .sort_values("t")
        .reset_index(drop=True)
    )
    total = int(hist["n_total"].sum())
    # risk set at t = users with (their time) >= t: suffix sums
    suffix_below = np.concatenate(
        [[0], np.cumsum(hist["n_total"].astype("int64"))[:-1]]
    )
    hist["n_risk"] = total - suffix_below
    rows = []
    s = 1.0
    for r in hist.itertuples():
        d, n = int(r.n_event), int(r.n_risk)
        if d == 0:
            continue
        s = s * (1.0 - d / n)
        rows.append(
            {"t": int(r.t), "n_risk": n, "n_event": d, "survival": s}
        )
    return pd.DataFrame(
        rows, columns=["t", "n_risk", "n_event", "survival"]
    )


RELATIONAL_QUERIES["events_survival"] = _q_events_survival
RELATIONAL_ORACLE_SQL["events_survival"] = """
WITH u AS (
    SELECT user_id,
           epoch_us(min(ts)) // 86400000000 AS f,
           epoch_us(max(ts)) // 86400000000 AS l,
           min(CASE WHEN event_type = 'purchase' AND value > 250
                    THEN epoch_us(ts) // 86400000000 END) AS p
    FROM events GROUP BY user_id
), tl AS (
    SELECT CASE WHEN p IS NOT NULL THEN p - f ELSE l - f END AS t,
           CASE WHEN p IS NOT NULL THEN 1 ELSE 0 END AS e
    FROM u
), h AS (
    SELECT t, CAST(sum(e) AS BIGINT) AS n_event,
           CAST(count(*) AS BIGINT) AS n_total
    FROM tl GROUP BY t
), r AS (
    SELECT t, n_event,
           CAST((SELECT sum(n_total) FROM h h2 WHERE h2.t >= h.t)
                AS BIGINT) AS n_risk
    FROM h
), km AS (
    SELECT t, n_risk, n_event,
           product(1.0 - CAST(n_event AS DOUBLE) / n_risk)
               OVER (ORDER BY t) AS survival
    FROM r WHERE n_event > 0
)
SELECT t, n_risk, n_event, survival FROM km ORDER BY t
"""


def _q_events_logrank(sf_dir: str):
    """Log-rank test between the two A/B arms' adoption curves (the
    canonical survival-curve comparison, composing events_survival's
    time-to-adoption with events_ab_test's parity split): at each
    event time the observed arm-A events minus the hypergeometric
    expectation d*n1/n, variance d*(n1/n)*(1-n1/n)*(n-d)/(n-1).
    Risk sets and observed counts are exact integers from one tiny
    (t, arm) histogram + suffix sums; the expectation/variance
    contributions are per-row float expressions summed in ascending-t
    order (documented pagerank sum-order tolerance), and
    z = (O1 - E1) / sqrt(V)."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    DAY_US = 86_400_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"],
    )

    def user_days(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        day = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64) // DAY_US
        )
        et = np.asarray(b["event_type"].to_pylist())
        val = b["value"].to_numpy(zero_copy_only=False)
        adopt = (et == "purchase") & (val > 250.0)
        big = np.int64(1) << 40
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(
                    b["user_id"].to_numpy(zero_copy_only=False), pa.int64()
                ),
                "day": pa.array(day, pa.int64()),
                "p": pa.array(np.where(adopt, day, big), pa.int64()),
            }
        )

    per_user = aggregate(
        ev,
        "user_id",
        [("f", "min", "day"), ("l", "max", "day"), ("p", "min", "p")],
        rows=user_days,
    )

    def hist_rows(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        uid = b["user_id"].to_numpy(zero_copy_only=False)
        f = b["f"].to_numpy(zero_copy_only=False)
        l = b["l"].to_numpy(zero_copy_only=False)
        p = b["p"].to_numpy(zero_copy_only=False)
        big = np.int64(1) << 40
        observed = p < big
        t = np.where(observed, p - f, l - f)
        return pa.Table.from_pydict(
            {
                "t": pa.array(t, pa.int64()),
                "arm": pa.array((uid % 2).astype(np.int64)),
                "e": pa.array(observed.astype(np.int64)),
            }
        )

    hist = aggregate(
        per_user,
        ["t", "arm"],
        [("n_event", "sum", "e"), ("n_total", "count", None)],
        rows=hist_rows,
    ).to_pandas()
    piv = hist.pivot_table(
        index="t", columns="arm",
        values=["n_event", "n_total"], aggfunc="sum", fill_value=0,
    ).sort_index()
    times = piv.index.to_numpy()
    d1 = piv.get(("n_event", 0), pd.Series(0, index=piv.index)).to_numpy()
    d2 = piv.get(("n_event", 1), pd.Series(0, index=piv.index)).to_numpy()
    c1 = piv.get(("n_total", 0), pd.Series(0, index=piv.index)).to_numpy()
    c2 = piv.get(("n_total", 1), pd.Series(0, index=piv.index)).to_numpy()
    tot1, tot2 = int(c1.sum()), int(c2.sum())
    below1 = np.concatenate([[0], np.cumsum(c1)[:-1]])
    below2 = np.concatenate([[0], np.cumsum(c2)[:-1]])
    o1 = 0
    e1 = 0.0
    var = 0.0
    k = 0
    for i in range(times.size):
        d = int(d1[i] + d2[i])
        if d == 0:
            continue
        n1 = tot1 - int(below1[i])
        n = n1 + tot2 - int(below2[i])
        if n <= 0:
            continue
        k += 1
        o1 += int(d1[i])
        e1 = e1 + d * (n1 / n)  # mirrors SQL d * (n1_double / n)
        if n > 1:
            var = var + d * (n1 / n) * (1 - n1 / n) * (n - d) / (
                n - 1
            )
    z = (o1 - e1) / math.sqrt(var) if var > 0 else 0.0
    return pd.DataFrame(
        {
            "n_event_times": [k],
            "o1": [o1],
            "e1": [e1],
            "var_sum": [var],
            "z_stat": [z],
        }
    )


RELATIONAL_QUERIES["events_logrank"] = _q_events_logrank
RELATIONAL_ORACLE_SQL["events_logrank"] = """
WITH u AS (
    SELECT user_id, user_id % 2 AS arm,
           epoch_us(min(ts)) // 86400000000 AS f,
           epoch_us(max(ts)) // 86400000000 AS l,
           min(CASE WHEN event_type = 'purchase' AND value > 250
                    THEN epoch_us(ts) // 86400000000 END) AS p
    FROM events GROUP BY user_id
), tl AS (
    SELECT arm,
           CASE WHEN p IS NOT NULL THEN p - f ELSE l - f END AS t,
           CASE WHEN p IS NOT NULL THEN 1 ELSE 0 END AS e
    FROM u
), h AS (
    SELECT t,
           CAST(sum(CASE WHEN arm = 0 THEN e ELSE 0 END) AS BIGINT)
               AS d1,
           CAST(sum(e) AS BIGINT) AS d,
           CAST(sum(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS c1,
           CAST(count(*) AS BIGINT) AS c
    FROM tl GROUP BY t
), r AS (
    SELECT t, d1, d,
           CAST((SELECT sum(c1) FROM h h2 WHERE h2.t >= h.t)
                AS BIGINT) AS n1,
           CAST((SELECT sum(c) FROM h h2 WHERE h2.t >= h.t)
                AS BIGINT) AS n
    FROM h WHERE d > 0
), s AS (
    SELECT CAST(count(*) AS BIGINT) AS n_event_times,
           CAST(sum(d1) AS BIGINT) AS o1,
           sum(d * CAST(n1 AS DOUBLE) / n) AS e1,
           sum(CASE WHEN n > 1
                    THEN d * (CAST(n1 AS DOUBLE) / n)
                         * (1 - CAST(n1 AS DOUBLE) / n)
                         * CAST(n - d AS DOUBLE) / (n - 1)
                    ELSE 0.0 END) AS var_sum
    FROM r
)
SELECT n_event_times, o1, e1, var_sum,
       CASE WHEN var_sum > 0
            THEN (o1 - e1) / sqrt(var_sum) ELSE 0.0 END AS z_stat
FROM s
"""


def _q_events_ks_test(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov distance between the arms'
    cents distributions, EXACTLY: D = max_v |F1(v) - F2(v)| computed
    as the integer maximum of |c1(v)*n2 - c2(v)*n1| over the merged
    value domain (cumulative counts from one (cents, arm) histogram),
    so the argmax and the distance numerator are exact int64 and D is
    one float division; ties -> smallest value. The classic
    distribution-drift detector, shuffle = one value histogram."""
    import numpy as np
    import pandas as pd

    hist = _cents_arm_hist(sf_dir)
    piv = hist.pivot_table(
        index="cents", columns="arm", values="n", aggfunc="sum",
        fill_value=0,
    ).sort_index()
    c1 = np.cumsum(piv.get(0, pd.Series(0, index=piv.index)).to_numpy())
    c2 = np.cumsum(piv.get(1, pd.Series(0, index=piv.index)).to_numpy())
    n1, n2 = int(c1[-1]), int(c2[-1])
    diff = np.abs(
        c1.astype(object) * n2 - c2.astype(object) * n1
    )
    i = int(np.argmax(diff))  # first max -> smallest value
    d_num = int(diff[i])
    return pd.DataFrame(
        {
            "n_a": [n1],
            "n_b": [n2],
            "ks_at_cents": [int(piv.index[i])],
            "ks_num": [d_num],
            "ks_stat": [float(d_num) / float(n1 * n2)],
        }
    )


RELATIONAL_QUERIES["events_ks_test"] = _q_events_ks_test
RELATIONAL_ORACLE_SQL["events_ks_test"] = """
WITH o AS (
    SELECT CAST(round(value * 100) AS BIGINT) AS cents,
           user_id % 2 AS arm
    FROM events
), h AS (
    SELECT cents,
           CAST(sum(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS a,
           CAST(sum(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS b
    FROM o GROUP BY cents
), c AS (
    SELECT cents,
           CAST(sum(a) OVER (ORDER BY cents) AS BIGINT) AS ca,
           CAST(sum(b) OVER (ORDER BY cents) AS BIGINT) AS cb
    FROM h
), t AS (
    SELECT CAST(max(ca) AS BIGINT) AS n1, CAST(max(cb) AS BIGINT) AS n2
    FROM c
), d AS (
    SELECT c.cents,
           abs(c.ca * CAST(t.n2 AS HUGEINT)
               - c.cb * CAST(t.n1 AS HUGEINT)) AS dn
    FROM c, t
), best AS (
    SELECT cents, dn FROM d ORDER BY dn DESC, cents ASC LIMIT 1
)
SELECT t.n1 AS n_a, t.n2 AS n_b,
       best.cents AS ks_at_cents,
       CAST(best.dn AS BIGINT) AS ks_num,
       CAST(best.dn AS DOUBLE) / CAST(t.n1 * t.n2 AS DOUBLE)
           AS ks_stat
FROM best, t
"""


def _q_events_mannwhitney(sf_dir: str):
    """Mann-Whitney U (Wilcoxon rank-sum) between the arms' cents
    distributions with tie handling: midranks kept EXACT by doubling
    (the doc_spearman device — 2*midrank = 2*c_below + c_at + 1 is an
    integer), so U1 = R1 - n1(n1+1)/2 is an exact integer computed
    from the same (cents, arm) histogram as the KS test; the normal
    approximation with tie correction is a handful of float ops on
    exact integer sums, mirrored term-for-term by the oracle."""
    import math

    import numpy as np
    import pandas as pd

    hist = _cents_arm_hist(sf_dir)
    piv = hist.pivot_table(
        index="cents", columns="arm", values="n", aggfunc="sum",
        fill_value=0,
    ).sort_index()
    a = piv.get(0, pd.Series(0, index=piv.index)).to_numpy().astype(object)
    b_ = piv.get(1, pd.Series(0, index=piv.index)).to_numpy().astype(object)
    tot = a + b_
    below = np.concatenate([[0], np.cumsum(tot)[:-1]])
    # doubled midrank of each distinct value: 2*below + at + 1
    dr = 2 * below + tot + 1
    r1_doubled = int((a * dr).sum())
    n1, n2 = int(a.sum()), int(b_.sum())
    n = n1 + n2
    u1_doubled = r1_doubled - n1 * (n1 + 1)  # 2*U1
    tie_sum = int((tot * tot * tot - tot).sum())
    mu = n1 * (n2 / 2.0)
    var = (
        (n1 / 12.0) * n2
        * ((n + 1) - tie_sum / (float(n) * (n - 1)))
    )
    z = (u1_doubled / 2.0 - mu) / math.sqrt(var) if var > 0 else 0.0
    return pd.DataFrame(
        {
            "n_a": [n1],
            "n_b": [n2],
            "u1_doubled": [u1_doubled],
            "tie_sum": [tie_sum],
            "z_stat": [z],
        }
    )


RELATIONAL_QUERIES["events_mannwhitney"] = _q_events_mannwhitney
RELATIONAL_ORACLE_SQL["events_mannwhitney"] = """
WITH o AS (
    SELECT CAST(round(value * 100) AS BIGINT) AS cents,
           user_id % 2 AS arm
    FROM events
), h AS (
    SELECT cents,
           CAST(sum(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS a,
           CAST(count(*) AS BIGINT) AS tot
    FROM o GROUP BY cents
), c AS (
    SELECT cents, a, tot,
           CAST(sum(tot) OVER (ORDER BY cents) - tot AS BIGINT)
               AS below
    FROM h
), s AS (
    SELECT CAST(sum(a) AS BIGINT) AS n1,
           CAST(sum(tot - a) AS BIGINT) AS n2,
           CAST(sum(a * (2 * CAST(below AS HUGEINT) + tot + 1))
                AS BIGINT) AS r1_doubled,
           CAST(sum(CAST(tot AS HUGEINT) * tot * tot - tot)
                AS BIGINT) AS tie_sum
    FROM c
)
SELECT n1 AS n_a, n2 AS n_b,
       CAST(r1_doubled - n1 * (n1 + 1) AS BIGINT) AS u1_doubled,
       tie_sum,
       CASE WHEN (CAST(n1 AS DOUBLE) / 12.0) * n2
                 * ((n1 + n2 + 1)
                    - tie_sum / (CAST(n1 + n2 AS DOUBLE)
                                 * (n1 + n2 - 1))) > 0
            THEN (CAST(r1_doubled - n1 * (n1 + 1) AS DOUBLE) / 2.0
                  - n1 * (CAST(n2 AS DOUBLE) / 2.0))
                 / sqrt((CAST(n1 AS DOUBLE) / 12.0) * n2
                        * ((n1 + n2 + 1)
                           - tie_sum / (CAST(n1 + n2 AS DOUBLE)
                                        * (n1 + n2 - 1))))
            ELSE 0.0 END AS z_stat
FROM s
"""


def _q_events_anova(sf_dir: str):
    """One-way ANOVA of cents across the five event types: between /
    within sums of squares from exact integer sufficient statistics
    (n_g, sum, sum-of-squares per type — one tiny groupby of
    per-batch partials), F = (SSB/(k-1)) / (SSW/(n-k)) as a fixed
    sequence of float ops on those integers, mirrored by the oracle.
    SSB = sum_g S_g^2/n_g - S^2/n and SSW = Q - sum_g S_g^2/n_g keep
    every term a float of exact ints."""
    import numpy as np
    import pandas as pd
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def rows(b: pa.Table) -> pa.Table:
        c = _cents(b["value"])
        return pa.table(
            {"event_type": b["event_type"], "c": c, "q": pc.multiply(c, c)}
        )

    st = (
        aggregate(
            ev,
            "event_type",
            [("n", "count", None), ("s", "sum", "c"), ("q", "sum", "q")],
            rows=rows,
        )
        .to_pandas()
        .sort_values("event_type")
    )
    ns = st["n"].astype("int64").tolist()
    ss = st["s"].astype("int64").tolist()
    qs_ = st["q"].astype("int64").tolist()
    k = len(ns)
    n = sum(ns)
    s_tot = sum(ss)
    q_tot = sum(qs_)
    grp_term = 0.0
    for ni, si in zip(ns, ss):
        # float(s^2) BEFORE dividing — mirrors SQL's
        # CAST(s*s AS DOUBLE)/n (s^2 exceeds 2^53 at scale, so the
        # double conversion point matters); summed in event_type
        # order, mirrored by the oracle's ordered window sum
        grp_term = grp_term + float(si * si) / ni
    ssb = grp_term - float(s_tot * s_tot) / n
    ssw = q_tot - grp_term
    f = (ssb / (k - 1)) / (ssw / (n - k)) if ssw > 0 and k > 1 else 0.0
    return pd.DataFrame(
        {
            "k": [k],
            "n": [n],
            "ssb": [ssb],
            "ssw": [ssw],
            "f_stat": [f],
        }
    )


RELATIONAL_QUERIES["events_anova"] = _q_events_anova
RELATIONAL_ORACLE_SQL["events_anova"] = """
WITH g AS (
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS s,
           CAST(sum(CAST(round(value * 100) AS HUGEINT)
                    * CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS q
    FROM events GROUP BY event_type
), acc AS (
    SELECT sum(CAST(CAST(s AS HUGEINT) * s AS DOUBLE) / g.n)
               OVER (ORDER BY event_type) AS cgt,
           row_number() OVER (ORDER BY event_type) AS rn
    FROM g
), gt AS (
    SELECT cgt AS grp_term FROM acc ORDER BY rn DESC LIMIT 1
), t AS (
    SELECT CAST(count(*) AS BIGINT) AS k,
           CAST(sum(n) AS BIGINT) AS n,
           CAST(sum(s) AS BIGINT) AS s_tot,
           CAST(sum(q) AS BIGINT) AS q_tot,
           (SELECT grp_term FROM gt) AS grp_term
    FROM g
)
SELECT k, n,
       grp_term - CAST(CAST(s_tot AS HUGEINT) * s_tot AS DOUBLE) / n
           AS ssb,
       CAST(q_tot AS DOUBLE) - grp_term AS ssw,
       CASE WHEN CAST(q_tot AS DOUBLE) - grp_term > 0 AND k > 1
            THEN ((grp_term
                   - CAST(CAST(s_tot AS HUGEINT) * s_tot AS DOUBLE)
                     / n) / (k - 1))
                 / ((CAST(q_tot AS DOUBLE) - grp_term) / (n - k))
            ELSE 0.0 END AS f_stat
FROM t
"""


def _perm_seeds():
    import numpy as np

    rng = np.random.default_rng(777_2026)
    return rng.integers(
        0, np.iinfo(np.uint64).max, size=20, dtype=np.uint64
    ).tolist()


def _q_events_permutation_test(sf_dir: str):
    """Exact randomization test for the arm difference in mean event
    cents: 20 DETERMINISTIC label reassignments (arm of user under
    permutation b = bit 0 of splitmix64(md5hash(user) xor seed_b) —
    the random-walk replayability device applied to inference), and
    every "is this permutation at least as extreme" decision made in
    EXACT integer arithmetic by cross-multiplying the rational mean
    differences (|s1*n2 - s2*n1| scaled by the other split's n1*n2,
    HUGEINT-ranged) — no float ever influences a count. p = (k+1)/(B+1).
    One scan computes all 21 splits' sums (a 20-seed sign matrix per
    batch); the exchange is 84 integers."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ..functions.shingles import _splitmix64, stable_hash64

    seeds = np.array(_perm_seeds(), dtype=np.uint64)
    B = seeds.size

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        uid = b["user_id"].to_numpy(zero_copy_only=False)
        cents = _cents(b["value"]).to_numpy(zero_copy_only=False)
        # hash each DISTINCT user once (events repeat users heavily;
        # per-row hashlib would be the batch's hot loop at scale)
        uniq, inv = np.unique(uid, return_inverse=True)
        h = np.array(
            [stable_hash64(str(int(u))) for u in uniq],
            dtype=np.uint64,
        )[inv]
        cols = {}
        # observed split: parity
        a0 = uid % 2 == 0
        cols["s1_obs"] = [int(cents[a0].sum())]
        cols["n1_obs"] = [int(a0.sum())]
        cols["s_all"] = [int(cents.sum())]
        cols["n_all"] = [int(cents.size)]
        for j in range(B):
            arm = (
                _splitmix64(h ^ seeds[j]) & np.uint64(1)
            ).astype(bool)
            cols[f"s1_{j}"] = [int(cents[arm].sum())]
            cols[f"n1_{j}"] = [int(arm.sum())]
        return pa.Table.from_pydict(
            {k: pa.array(v, pa.int64()) for k, v in cols.items()}
        )

    cols = ["s1_obs", "n1_obs", "s_all", "n_all"] + [
        f"{p}_{j}" for j in range(B) for p in ("s1", "n1")
    ]
    agg = aggregate(ev, [], [(c, "sum", c) for c in cols], rows=partial)
    s_all, n_all = int(agg["s_all"]), int(agg["n_all"])

    def diff_parts(s1, n1):
        s2, n2 = s_all - s1, n_all - n1
        return abs(s1 * n2 - s2 * n1), n1 * n2

    o_num, o_den = diff_parts(int(agg["s1_obs"]), int(agg["n1_obs"]))
    k = 0
    for j in range(B):
        p_num, p_den = diff_parts(
            int(agg[f"s1_{j}"]), int(agg[f"n1_{j}"])
        )
        # |p_num/p_den| >= |o_num/o_den|  (exact cross-multiply)
        if p_num * o_den >= o_num * p_den:
            k += 1
    return pd.DataFrame(
        {
            "n_perms": [B],
            "obs_diff": [float(o_num) / float(o_den)],
            "n_extreme": [k],
            "p_value": [(k + 1) / (B + 1)],
        }
    )


RELATIONAL_QUERIES["events_permutation_test"] = (
    _q_events_permutation_test
)


def _perm_oracle_sql() -> str:
    from .queries_training import _splitmix64_sql

    seed_values = ", ".join(
        f"({j}, {s}::UBIGINT)" for j, s in enumerate(_perm_seeds())
    )
    mix = _splitmix64_sql("xor(md5_number_upper("
                          "CAST(user_id AS VARCHAR)), sd.seed)")
    return f"""
WITH o AS (
    SELECT user_id, CAST(round(value * 100) AS BIGINT) AS cents
    FROM events
), tot AS (
    SELECT CAST(sum(cents) AS BIGINT) AS s_all,
           CAST(count(*) AS BIGINT) AS n_all
    FROM o
), obs AS (
    SELECT CAST(sum(CASE WHEN user_id % 2 = 0 THEN cents ELSE 0 END)
                AS BIGINT) AS s1,
           CAST(sum(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END)
                AS BIGINT) AS n1
    FROM o
), perms AS (
    SELECT sd.j,
           CAST(sum(CASE WHEN ({mix} % 2) = 1::UBIGINT
                         THEN cents ELSE 0 END) AS BIGINT) AS s1,
           CAST(sum(CASE WHEN ({mix} % 2) = 1::UBIGINT
                         THEN 1 ELSE 0 END) AS BIGINT) AS n1
    FROM o CROSS JOIN (VALUES {seed_values}) sd(j, seed)
    GROUP BY sd.j
), od AS (
    SELECT abs(obs.s1 * CAST(tot.n_all - obs.n1 AS HUGEINT)
               - (tot.s_all - obs.s1) * CAST(obs.n1 AS HUGEINT))
               AS num,
           CAST(obs.n1 AS HUGEINT) * (tot.n_all - obs.n1) AS den
    FROM obs, tot
), pd_ AS (
    SELECT j,
           abs(p.s1 * CAST(tot.n_all - p.n1 AS HUGEINT)
               - (tot.s_all - p.s1) * CAST(p.n1 AS HUGEINT)) AS num,
           CAST(p.n1 AS HUGEINT) * (tot.n_all - p.n1) AS den
    FROM perms p, tot
)
SELECT 20 AS n_perms,
       CAST(od.num AS DOUBLE) / CAST(od.den AS DOUBLE) AS obs_diff,
       CAST((SELECT count(*) FROM pd_
             WHERE pd_.num * od.den >= od.num * pd_.den)
            AS BIGINT) AS n_extreme,
       CAST((SELECT count(*) FROM pd_
             WHERE pd_.num * od.den >= od.num * pd_.den) + 1
            AS DOUBLE) / 21 AS p_value
FROM od
"""


RELATIONAL_ORACLE_SQL["events_permutation_test"] = _perm_oracle_sql()


def _q_events_lorenz(sf_dir: str):
    """Lorenz curve deciles of per-user spend (the curve behind
    events_gini): users ranked by (total cents, user_id) on one sorted
    scan (``stages.window.over``), NTILE(10) by the exact integer
    arithmetic from each row's rank and the user count, then exact
    per-decile user counts and cents sums; the cumulative share is a
    running float ratio of exact integers computed in decile order on
    the driver over 10 rows."""
    import ray.data

    from ..stages.window import ntile_of_rank, over

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )

    totals = aggregate(
        ev,
        "user_id",
        [("total", "sum", "cents")],
        rows=lambda b: pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "cents": _cents(b["value"]),
            }
        ),
    )
    ranked = over(totals, [], ["total", "user_id"])

    def tile(batch: pa.Table) -> pa.Table:
        rnk = batch["rn"].to_numpy(zero_copy_only=False)
        n_users = batch["n"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "decile": pa.array(
                    ntile_of_rank(rnk, n_users, 10), pa.int64()
                ),
                "total": pc.cast(batch["total"], pa.int64()),
            }
        )

    out = (
        aggregate(
            ranked,
            "decile",
            [("n_users", "count", None), ("cents", "sum", "total")],
            rows=tile,
        )
        .to_pandas()
        .sort_values("decile")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    total_cents = int(out["cents"].sum())
    cum = 0
    shares = []
    for c in out["cents"]:
        cum += int(c)
        shares.append(cum / total_cents)
    out["cum_share"] = shares
    return out


RELATIONAL_QUERIES["events_lorenz"] = _q_events_lorenz
RELATIONAL_ORACLE_SQL["events_lorenz"] = """
WITH u AS (
    SELECT user_id,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS total
    FROM events GROUP BY user_id
), t AS (
    SELECT total,
           CAST(ntile(10) OVER (ORDER BY total, user_id) AS BIGINT)
               AS decile
    FROM u
), d AS (
    SELECT decile, CAST(count(*) AS BIGINT) AS n_users,
           CAST(sum(total) AS BIGINT) AS cents
    FROM t GROUP BY decile
)
SELECT decile, n_users, cents,
       CAST(sum(cents) OVER (ORDER BY decile) AS DOUBLE)
           / (SELECT CAST(sum(cents) AS DOUBLE) FROM d) AS cum_share
FROM d ORDER BY decile
"""


def _q_events_entropy_rate(sf_dir: str):
    """Entropy rate of the per-user event-type Markov chain (the
    information measure on top of events_markov's transition counts):
    H = -sum_s pi(s) sum_t p(t|s) log2 p(t|s) with pi the empirical
    row distribution — transition counts exact integers from the same
    one-exchange plan; the 25-term log sum is accumulated in
    (prev, next) sorted order on the driver and by an ORDERED window
    sum in the oracle (the ANOVA device), each term float ops of
    exact ints in mirrored association."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
                "event_type": b["event_type"],
            }
        )

    def pairs_of_bucket(group: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        uid = group["user_id"].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                "prev_type": pa.array([], pa.string()),
                "next_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if uid.size < 2:
            return empty
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        et = np.array(group["event_type"].to_pylist())
        order = np.lexsort((eid, us, uid))
        uid, et = uid[order], et[order]
        same = uid[1:] == uid[:-1]
        prev, nxt = et[:-1][same], et[1:][same]
        if prev.size == 0:
            return empty
        df = (
            pd.DataFrame({"prev_type": prev, "next_type": nxt})
            .groupby(["prev_type", "next_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pydict(
            {
                "prev_type": pa.array(df["prev_type"], pa.string()),
                "next_type": pa.array(df["next_type"], pa.string()),
                "n": pa.array(df["n"].astype("int64"), pa.int64()),
            }
        )

    cells = (
        aggregate(
            exchange(ev, "user_id", pairs_of_bucket, rows=prep),
            ["prev_type", "next_type"],
            [("n", "sum", "n")],
        )
        .to_pandas()
        .sort_values(["prev_type", "next_type"])
        .reset_index(drop=True)
    )
    cells["n"] = cells["n"].astype("int64")
    total = int(cells["n"].sum())
    row_tot = cells.groupby("prev_type")["n"].sum().to_dict()
    h = 0.0
    for r in cells.itertuples():
        n = int(r.n)
        rt = int(row_tot[r.prev_type])
        # pi(s)*p(t|s) = n/total; term = -(n/total)*log2(n/rt)
        h = h + -(n / total) * math.log2(n / rt)
    return pd.DataFrame(
        {
            "n_transitions": [total],
            "n_cells": [len(cells)],
            "entropy_rate_bits": [h],
        }
    )


RELATIONAL_QUERIES["events_entropy_rate"] = _q_events_entropy_rate
RELATIONAL_ORACLE_SQL["events_entropy_rate"] = """
WITH o AS (
    SELECT user_id, event_type,
           lag(event_type) OVER (
               PARTITION BY user_id
               ORDER BY epoch_us(ts), event_id) AS prev_type
    FROM events
), c AS (
    SELECT prev_type, event_type AS next_type,
           CAST(count(*) AS BIGINT) AS n
    FROM o WHERE prev_type IS NOT NULL
    GROUP BY prev_type, next_type
), t AS (
    SELECT CAST(sum(n) AS BIGINT) AS total,
           CAST(count(*) AS BIGINT) AS n_cells
    FROM c
), rt AS (
    SELECT prev_type, CAST(sum(n) AS BIGINT) AS row_n
    FROM c GROUP BY prev_type
), terms AS (
    SELECT c.prev_type, c.next_type,
           -(CAST(c.n AS DOUBLE) / t.total)
               * log2(CAST(c.n AS DOUBLE) / rt.row_n) AS term
    FROM c JOIN rt ON rt.prev_type = c.prev_type
    CROSS JOIN t
), acc AS (
    SELECT sum(term) OVER (
               ORDER BY prev_type, next_type) AS ch,
           row_number() OVER (
               ORDER BY prev_type, next_type) AS rn
    FROM terms
)
SELECT t.total AS n_transitions, t.n_cells,
       (SELECT ch FROM acc ORDER BY rn DESC LIMIT 1)
           AS entropy_rate_bits
FROM t
"""


def _poisson1_thresholds():
    """Exact uint64 inverse-CDF thresholds for Poisson(1) truncated
    at 6: T_k = floor(CDF(k) * 2^64); a uniform 64-bit hash u maps to
    weight = smallest k with u < T_k (tail -> 6). Deterministic
    float64 arithmetic, embedded as literals in the SQL oracle."""
    import math

    cdf = 0.0
    out = []
    for k in range(7):
        cdf += math.exp(-1.0) / math.factorial(k)
        out.append(min(int(cdf * 2.0**64), (1 << 64) - 1))
    return out


def _q_events_bootstrap_ci(sf_dir: str):
    """Percentile-bootstrap CI for the mean event cents via 20
    DETERMINISTIC Poisson(1) resamples (the permutation-test device
    applied to estimation): replicate b weights each event by the
    Poisson inverse-CDF of splitmix64(md5hash(event_id) xor seed_b)
    against exact uint64 thresholds, so every resample is replayable;
    replicate means are single divisions of exact integer (weighted
    sum, weight count) pairs, bit-equal across engines, and the CI
    bounds are order statistics of those 20 bit-equal doubles
    (ties impossible in practice; ordering identical). One scan
    computes all 20 replicates' sums — a 40-integer exchange."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ..functions.shingles import _splitmix64, stable_hash64

    rng = np.random.default_rng(424_777)
    seeds = rng.integers(
        0, np.iinfo(np.uint64).max, size=20, dtype=np.uint64
    )
    B = seeds.size
    thr = np.array(_poisson1_thresholds(), dtype=np.uint64)

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        eid = b["event_id"].to_numpy(zero_copy_only=False)
        cents = _cents(b["value"]).to_numpy(zero_copy_only=False)
        h = np.array(
            [stable_hash64(str(int(e))) for e in eid],
            dtype=np.uint64,
        )
        cols = {
            "s_obs": pa.array([int(cents.sum())], pa.int64()),
            "n_obs": pa.array([int(cents.size)], pa.int64()),
        }
        for j in range(B):
            u = _splitmix64(h ^ seeds[j])
            w = np.minimum(
                np.searchsorted(thr, u, side="right"), 6
            ).astype(np.int64)
            cols[f"s_{j}"] = pa.array(
                [int((w * cents).sum())], pa.int64()
            )
            cols[f"w_{j}"] = pa.array([int(w.sum())], pa.int64())
        return pa.Table.from_pydict(cols)

    cols = ["s_obs", "n_obs"] + [
        f"{p}_{j}" for j in range(B) for p in ("s", "w")
    ]
    agg = aggregate(ev, [], [(c, "sum", c) for c in cols], rows=partial)
    means = []
    for j in range(B):
        s, w = int(agg[f"s_{j}"]), int(agg[f"w_{j}"])
        means.append(s / w if w else 0.0)
    means_sorted = sorted(means)
    return pd.DataFrame(
        {
            "n_reps": [B],
            "obs_mean": [int(agg["s_obs"]) / int(agg["n_obs"])],
            "ci_lo": [means_sorted[0]],
            "ci_hi": [means_sorted[-1]],
        }
    )


RELATIONAL_QUERIES["events_bootstrap_ci"] = _q_events_bootstrap_ci


def _bootstrap_oracle_sql() -> str:
    import numpy as np

    from .queries_training import _splitmix64_sql

    rng = np.random.default_rng(424_777)
    seeds = rng.integers(
        0, np.iinfo(np.uint64).max, size=20, dtype=np.uint64
    ).tolist()
    seed_values = ", ".join(
        f"({j}, {s}::UBIGINT)" for j, s in enumerate(seeds)
    )
    thr = _poisson1_thresholds()
    mix = _splitmix64_sql(
        "xor(md5_number_upper(CAST(event_id AS VARCHAR)), sd.seed)"
    )
    w_case = "CASE "
    for k, t in enumerate(thr):
        w_case += f"WHEN u < {t}::UBIGINT THEN {k} "
    w_case += "ELSE 6 END"
    return f"""
WITH o AS (
    SELECT event_id, CAST(round(value * 100) AS BIGINT) AS cents
    FROM events
), obs AS (
    SELECT CAST(sum(cents) AS BIGINT) AS s,
           CAST(count(*) AS BIGINT) AS n
    FROM o
), wts AS (
    SELECT j, cents, {w_case} AS w
    FROM (SELECT sd.j AS j, o.cents, {mix} AS u
          FROM o CROSS JOIN (VALUES {seed_values}) sd(j, seed)) q
), reps AS (
    SELECT j,
           CAST(sum(CAST(w AS BIGINT) * cents) AS BIGINT) AS s,
           CAST(sum(w) AS BIGINT) AS wsum
    FROM wts GROUP BY j
), means AS (
    SELECT j, CAST(s AS DOUBLE) / wsum AS m FROM reps
)
SELECT 20 AS n_reps,
       (SELECT CAST(s AS DOUBLE) / n FROM obs) AS obs_mean,
       (SELECT min(m) FROM means) AS ci_lo,
       (SELECT max(m) FROM means) AS ci_hi
"""


RELATIONAL_ORACLE_SQL["events_bootstrap_ci"] = _bootstrap_oracle_sql()


# ---------------------------------------------------------------------------
# Burst dedup: keep the first event of each (user, type) burst
# ---------------------------------------------------------------------------


def _q_events_dedup_window(sf_dir: str):
    """Burst dedup / event throttling: within each (user, event_type)
    stream an event is KEPT iff it starts a new burst — first of its
    stream, or more than 1 day after the PREVIOUS event
    (sessionization semantics: the gap is to the previous event, not
    the previous kept one, so the rule is a pure window function both
    engines evaluate in one pass; gap ties at identical timestamps
    are dropped regardless of tie order, so counts are
    order-invariant). The dedup a re-crawl scheduler applies to
    duplicate fetch requests. Reports kept vs dropped per type.

    Physical plan: ONE coalesced ``exchange`` on user_id, per-bucket
    lexsort + vectorized gap test (the TWAP/sessionize idiom),
    per-bucket per-type count partials; the driver sums ~n_types x
    buckets rows."""
    import numpy as np
    import ray.data

    gap_us = 86_400 * 1_000_000

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "us": pa.array(
                    b["ts"]
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    def dedup_of_bucket(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {
                "event_type": pa.array([], pa.string()),
                "n_kept": pa.array([], pa.int64()),
                "n_dropped": pa.array([], pa.int64()),
            }
        )
        if uid.size == 0:
            return empty
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        us = group["us"].to_numpy(zero_copy_only=False)
        types, tcode = np.unique(
            group["event_type"].to_numpy(zero_copy_only=False),
            return_inverse=True,
        )
        order = np.lexsort((eid, us, tcode, uid))
        uid, us, tcode = uid[order], us[order], tcode[order]
        newseg = np.concatenate(
            [[True], (uid[1:] != uid[:-1]) | (tcode[1:] != tcode[:-1])]
        )
        dt = np.empty(uid.size, dtype=np.int64)
        dt[0] = 0
        dt[1:] = us[1:] - us[:-1]
        kept = newseg | (dt > gap_us)
        n_tot = np.bincount(tcode, minlength=types.size)
        n_kept = np.bincount(
            tcode[kept], minlength=types.size
        )
        return pa.Table.from_pydict(
            {
                "event_type": pa.array(types, pa.string()),
                "n_kept": pa.array(n_kept.astype(np.int64), pa.int64()),
                "n_dropped": pa.array(
                    (n_tot - n_kept).astype(np.int64), pa.int64()
                ),
            }
        )

    parts = (
        exchange(ev, "user_id", dedup_of_bucket, rows=prep)
        .to_pandas()
    )
    out = parts.groupby("event_type", as_index=False).agg(
        n_kept=("n_kept", "sum"), n_dropped=("n_dropped", "sum")
    )
    for c in ("n_kept", "n_dropped"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


RELATIONAL_QUERIES["events_dedup_window"] = _q_events_dedup_window
RELATIONAL_ORACLE_SQL["events_dedup_window"] = """
WITH o AS (
    SELECT event_type,
           CASE WHEN lag(epoch_us(ts)) OVER (
                    PARTITION BY user_id, event_type
                    ORDER BY ts, event_id
                ) IS NULL
                OR epoch_us(ts) - lag(epoch_us(ts)) OVER (
                    PARTITION BY user_id, event_type
                    ORDER BY ts, event_id
                ) > 86400000000
           THEN 1 ELSE 0 END AS kept
    FROM events
)
SELECT event_type,
       CAST(sum(kept) AS BIGINT) AS n_kept,
       CAST(sum(1 - kept) AS BIGINT) AS n_dropped
FROM o GROUP BY event_type ORDER BY event_type
"""
