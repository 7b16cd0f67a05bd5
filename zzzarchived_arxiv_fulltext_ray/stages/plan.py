"""The engine's one crossover decision: broadcast (or driver merge) vs
exchange.

Every operator family with two physical plans — a small-side plan
that ships one side to every task (``ray.put``) or merges it on the
driver, and a partitioned plan that exchanges both sides and holds no
driver state, producing the IDENTICAL result — asks
:func:`broadcast` once, with the small side's OBSERVED size:

* ``rows`` and ``nbytes`` come from a pinned Dataset's ``count()`` and
  ``size_bytes()`` (block metadata of materialized blocks — no
  execution) or from a driver table's ``num_rows`` and ``nbytes``.
  Nothing is estimated and no probe runs for the decision (*Adaptive
  and Robust Query Execution for Lakehouses*, VLDB 2024, decides from
  sizes observed at run time in the same way).
* The small side broadcasts when it holds at most :data:`ROW_CAP`
  rows AND at most :func:`broadcast_bytes_limit` bytes. The row cap
  bounds per-row driver work (Python-level merges, dict builds); the
  byte budget bounds object-store and heap state, so a fat-row side
  (4096-dim float64 embeddings are 32 KiB a row) flips to the exchange
  long before the row cap does.
* ``GRAFT_FORCE_PARTITIONED=1`` makes every decision take the
  exchange, so one ``scripts/check_oracle.py`` run covers every
  partitioned twin at gate level::

      GRAFT_FORCE_PARTITIONED=1 python scripts/check_oracle.py

* Each decision logs one INFO record on this module's logger: the
  site, the rows, the bytes and the choice.

No operator takes a plan-selector argument or a row limit of its own;
tests reach a partitioned twin through the forced mode.
"""

import logging
import os

logger = logging.getLogger(__name__)

# the most rows a broadcast or driver-merged side may hold
ROW_CAP = 1_000_000

# Default per-node budget for a single broadcast object: 2 GiB.
# Rationale: Ray's default object store is 30% of node RAM; on the
# smallest sensible worker (16 GiB) that is ~5 GiB, and the broadcast
# object must coexist with in-flight blocks. Override per deployment
# with GRAFT_BROADCAST_BYTES_LIMIT.
DEFAULT_BROADCAST_BYTES_LIMIT = 2 * 1024**3


def force_partitioned() -> bool:
    """True when every broadcast fast path must be disabled
    (``GRAFT_FORCE_PARTITIONED=1``)."""
    return os.environ.get("GRAFT_FORCE_PARTITIONED", "") not in ("", "0")


def broadcast_bytes_limit() -> int:
    v = os.environ.get("GRAFT_BROADCAST_BYTES_LIMIT", "")
    return int(v) if v else DEFAULT_BROADCAST_BYTES_LIMIT


def broadcast(site: str, rows: int, nbytes: int) -> bool:
    """Should ``site`` broadcast (or driver-merge) its small side of
    ``rows`` rows and ``nbytes`` bytes? ``False`` means: exchange."""
    rows, nbytes = int(rows), int(nbytes)
    choice = (
        not force_partitioned()
        and rows <= ROW_CAP
        and nbytes <= broadcast_bytes_limit()
    )
    logger.info(
        "plan site=%s rows=%d bytes=%d choice=%s",
        site, rows, nbytes, "broadcast" if choice else "exchange",
    )
    return choice
