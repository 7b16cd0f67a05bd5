"""TF-IDF top-terms per document (corpus-relative term salience).

Classic curation/analysis operator: rank each document's terms by
``tf * ln(N / df)``. Fully distributed:

* term-frequency explode — one (doc_id, token, tf) row per DISTINCT
  token per doc (per-doc Counter; rows are documents, the per-row
  kernel is the tokenizer);
* document frequencies — one grouped count through
  ``stages/aggregate.py`` (a token counts once per doc by
  construction); df state is vocabulary-sized and stays distributed;
* idf join — the tf stream bucket-hash-joins the df table on token
  (``partitioned_hash_join``; no broadcast vocabulary);
* per-doc top-k — ``stages/topk.topk_per_group`` keeps each doc's
  top-k per batch, then merges them in one ``groupby(doc_id)``; ranked
  by weight desc / token asc.

Tokenization is the engine-wide ``str.split()`` contract (same as
token_frequencies), so the oracle mirrors it with regexp_split.
"""

from collections import Counter

import numpy as np
import pyarrow as pa

from .relational import partitioned_hash_join
from .topk import topk_per_group


def _tf_explode(batch: pa.Table) -> pa.Table:
    doc_ids, tokens, tfs = [], [], []
    for doc_id, text in zip(
        batch["doc_id"].to_pylist(), batch["text"].to_pylist()
    ):
        counts = Counter(text.split())
        doc_ids.extend([doc_id] * len(counts))
        tokens.extend(counts.keys())
        tfs.extend(counts.values())
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "token": pa.array(tokens, pa.string()),
            "tf": pa.array(tfs, pa.int64()),
        }
    )


def doc_tfidf_topk(docs_ds, k: int = 3):
    """(doc_id, token, weight): each document's top-``k`` terms by
    ``tf * ln(N/df)``, weight desc / token asc. ``docs_ds`` needs
    (doc_id, text)."""
    from .aggregate import aggregate

    n_docs = docs_ds.count()

    tf = docs_ds.map_batches(_tf_explode, batch_format="pyarrow")
    df = aggregate(tf, "token", [("df", "count", "doc_id")])

    joined = partitioned_hash_join(tf, df, key="token")

    def weigh(batch: pa.Table) -> pa.Table:
        tf_v = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        df_v = batch["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        # exact operand order of the oracle: tf * ln(N / df)
        w = tf_v * np.log(np.float64(n_docs) / df_v)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"].combine_chunks(),
                "token": batch["token"].combine_chunks(),
                "weight": pa.array(w, pa.float64()),
            }
        )

    return topk_per_group(
        joined.map_batches(weigh, batch_format="pyarrow"),
        "doc_id", k, [("weight", "descending"), ("token", "ascending")],
    )
