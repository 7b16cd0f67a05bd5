"""Ray-Data-native main-content extraction engine.

A from-scratch rebuild of the *capabilities* of the arXiv fulltext
extraction service (reference: arXiv/zzzArchived_arxiv-fulltext) as an
idiomatic Ray Data pipeline: a streaming ``ray.data.Dataset`` over
Parquet-backed Common-Crawl-style pages, ``map_batches`` over zero-copy
Arrow batches, stateful actor pools for warm parsers, a groupby-url
latest-crawl dedup, size-bucketed skew handling and resumable
per-partition checkpoint manifests.

Layout
------
``functions/``  pure Python kernels, zero Ray imports (byte-exact text
                transforms, HTML/PDF extraction, sketches, text stats)
``sources/``    readers + the deterministic ``pages`` synthesizer
``stages/``     Ray Data ``map_batches`` callables (tasks + actor pools)
``pipelines/``  end-to-end Dataset graph builders
``state/``      checkpoint manifests / lineage / resume
"""

EXTRACTOR_VERSION = "0.3-ray"

# The rows of a wave of shards (``state.manifest.run_resumable``) carry
# their shard's id in this column through every extraction stage.
SHARD_COLUMN = "shard_id"
