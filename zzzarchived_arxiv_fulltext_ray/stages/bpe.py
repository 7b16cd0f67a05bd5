"""Distributed BPE tokenizer training (pair-merge learning).

Learns the first R byte-pair-encoding merges over the corpus
vocabulary — the core loop of subword-tokenizer training (Sennrich et
al. 2016, "Neural Machine Translation of Rare Words with Subword
Units", the published algorithm behind GPT-2/RoBERTa tokenizers) —
re-expressed Ray-Data-first:

* vocabulary = ONE exchange over distinct lowercase ``[a-z]{2,}``
  words with counts (bounded-vocab contract, same as
  ``stages/links.py``'s inverted index), materialized once and reused
  every round;
* each round: pair counts stream as per-batch Counter partials over
  the word table -> ``groupby(pair).sum`` (exchange over DISTINCT
  symbol pairs, not word occurrences) -> ``topk(ds, 1)`` of
  ``stages/topk.py`` (per-block partial top-1, driver reduce). Driver
  state = the R learned merges, nothing else — the corpus and the
  word table never reach the driver (the kmeans loop-state idiom);
* merge application is a deterministic separator-delimited two-pass
  string REPLACE (:func:`symbols_of`) chosen precisely so a DuckDB
  oracle replays it with nested ``replace()`` calls, byte-for-byte.

SEGMENTATION CONTRACT (documented variant, pinned in
``tests/test_bpe_snapshot.py``): for runs of a repeated symbol ("xxxxx" under
merge ``(x, x)``) the two-pass replace can segment ``[xx, x, xx]``
where lookaround-regex BPE gives ``[xx, xx, x]`` — the merged PAIR
COUNT per run is identical (``len // 2``), only the position of the
leftover singleton differs. Both engines implement the same rule.
Two passes provably suffice: a single left-to-right REPLACE pass only
ever skips the one adjacency immediately following a replacement (its
leading separator was consumed), so un-merged adjacencies are
isolated after pass 1 and pass 2 has both separators intact at every
remaining site.

Tie-break: highest count, then lexicographically smallest
``"left right"`` pair string — total order, so the learned merges are
deterministic across engines and block layouts.
"""

import re
from collections import Counter
from typing import List, Sequence, Tuple

import pandas as pd
import pyarrow as pa

from .aggregate import aggregate
from .topk import topk

_WORD_RE = re.compile(r"[a-z]{2,}")


def symbols_of(word: str, merges: Sequence[Tuple[str, str]]) -> str:
    """Separator-delimited symbol string of ``word`` after applying
    ``merges`` in order (two REPLACE passes per merge — see module
    docstring for why two). '|' never occurs in ``[a-z]+`` words, so
    the in-band separator is unambiguous at symbol boundaries."""
    s = "|" + "|".join(word) + "|"
    for left, right in merges:
        pat = "|" + left + "|" + right + "|"
        rep = "|" + left + right + "|"
        s = s.replace(pat, rep).replace(pat, rep)
    return s


def word_counts(docs, text_col: str = "text"):
    """(word, cnt) Dataset over lowercase ``[a-z]{2,}`` whitespace
    tokens, counted by ``stages/aggregate.py``."""

    def words(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "word": pa.array(
                    [
                        w
                        for text in batch[text_col].to_pylist()
                        for w in (text or "").lower().split()
                        if _WORD_RE.fullmatch(w)
                    ],
                    pa.string(),
                )
            }
        )

    return aggregate(docs, "word", [("cnt", "count", None)], rows=words)


def _pair_partials(batch: pa.Table, merges) -> pa.Table:
    c: Counter = Counter()
    for w, n in zip(batch["word"].to_pylist(), batch["cnt"].to_pylist()):
        syms = symbols_of(w, merges).strip("|").split("|")
        for a, b in zip(syms, syms[1:]):
            c[a + " " + b] += n
    pairs = sorted(c)
    return pa.Table.from_pydict(
        {
            "pair": pa.array(pairs, pa.string()),
            "n": pa.array([c[p] for p in pairs], pa.int64()),
        }
    )


def bpe_train(docs, rounds: int = 3, text_col: str = "text",
              wc=None) -> pd.DataFrame:
    """Learn the first ``rounds`` BPE merges; returns a DataFrame
    (merge_round, left_sym, right_sym, n) ordered by round.

    ``wc``: optional precomputed (word, cnt) Dataset (compositions
    that also apply the merges reuse one vocabulary scan).

    Stops early if the vocabulary runs out of adjacent pairs (every
    word fully merged) — callers get fewer rows, never an error."""
    if wc is None:
        wc = word_counts(docs, text_col=text_col)
    wc = wc.materialize()

    merges: List[Tuple[str, str]] = []
    rows = []
    for r in range(rounds):
        frozen = tuple(merges)
        best = topk(
            aggregate(
                wc,
                "pair",
                [("n", "sum", "n")],
                rows=lambda b, m=frozen: _pair_partials(b, m),
            ),
            1,
            [("n", "descending"), ("pair", "ascending")],
        ).to_pylist()
        if not best:
            break
        left, right = best[0]["pair"].split(" ")
        merges.append((left, right))
        rows.append(
            {
                "merge_round": r + 1,
                "left_sym": left,
                "right_sym": right,
                "n": int(best[0]["n"]),
            }
        )
    return pd.DataFrame(
        rows,
        columns=["merge_round", "left_sym", "right_sym", "n"],
    ).astype({"merge_round": "int64", "n": "int64"})


def symbol_counts(wc, merges: Sequence[Tuple[str, str]]):
    """(sym, n) Dataset: corpus-weighted counts of the BPE symbols
    after applying ``merges`` to the (word, cnt) vocabulary — the
    "apply" half of train-then-apply. One exchange over distinct
    symbols."""
    frozen = tuple(merges)

    def explode(batch: pa.Table) -> pa.Table:
        syms, ns = [], []
        for w, n in zip(
            batch["word"].to_pylist(), batch["cnt"].to_pylist()
        ):
            for s in symbols_of(w, frozen).strip("|").split("|"):
                syms.append(s)
                ns.append(n)
        return pa.Table.from_pydict(
            {
                "sym": pa.array(syms, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    return aggregate(wc, "sym", [("n", "sum", "n")], rows=explode)
