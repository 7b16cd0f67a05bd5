"""The three workloads. Each one builds its inputs from a seed, states
its ground truth, and runs one timed pass at a time through the
program's public functions.

A pass returns a ``PassResult``: its wall time, the wall time of each
unit of work it committed (a shard on ``job_recrawl``, a query on
``query_mix``), how many items it checked against the ground truth and
how many were wrong.

The metrics of ``BENCHMARK.json`` are the ones every workload has. A
workload also states its own end-to-end figures (``figures``, named in
``FIGURES``) and the per-layer metrics of ``LAYER_UNITS`` it measures
(``layers``, as name prefixes). Why each workload exists is in
``NOTES.md``.
"""

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import inputs
import ledger as tr
import truth

PKG = "zzzarchived_arxiv_fulltext_ray"


# End-to-end figures the result line does not carry, in the shape of the
# end_to_end entries of BENCHMARK.json; compare.py bounds them the same
# way. wall_s (every workload) moves with the load other tenants put on
# a shared host far more than cpu_s does (NOTES.md); the others only
# some workloads have.
FIGURES = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "docs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "shard_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "slowest_query_s", "unit": "s", "better": "lower",
     "bound": 0.25},
]
QUERIES = (
    "lineitem_agg lang_stats top_docs_per_lang bm25_topk "
    "lang_length_median doc_rank events_value_quartiles "
    "dedup_ngram_partitioned url_blocklist_partitioned "
    "join_priority_revenue line_dedup curate_corpus decontaminate "
    "doc_dup_lines events_sessions"
).split()

# name -> unit of the per-layer metrics only some workloads have; a
# traced run reports those under its ``layers`` prefixes in its report
# line, and fails when one of them was not measured
LAYER_UNITS = {
    "functions.docs_per_s": "1/s",
    "functions.kernel_ms_per_doc": "ms",
    **{f"functions.{k}.ms_per_doc": "ms"
       for k in tr.PAYLOAD_KINDS + tuple(tr.KERNEL_STEPS)},
    "functions.html_parses_per_doc": "count/doc",
    "functions.alternate_rate": "ratio",
    "stages.dedup_winner_s": "s",
    "stages.dedup_keep_ratio": "ratio",
    **{f"stages.{st}.{k}": u for st in ("extract_pool", "write")
       for k, u in (("wall_s", "s"), ("cpu_s", "s"), ("rows_out", "count"))},
    "pipelines.overhead_share": "ratio",
    **{f"pipelines.query.{q}_s": "s" for q in QUERIES},
    "state.shard_pipeline_s": "s",
    "state.post_write_s": "s",
    "state.output_reads_per_shard": "count",
    "state.global_dedup_s": "s",
    "state.shards_rewritten": "count",
    "state.rows_removed": "count",
}


@dataclass
class PassResult:
    wall_s: float
    units_s: List[float]
    docs: int
    attempted: int
    failed: int
    layers: Dict[str, float] = field(default_factory=dict)
    # peak PSS (MB) and CPU seconds of the timed part, from ``sample``
    peak_mb: float = 0.0
    cpu_s: float = 0.0


def _unsampled():
    return 0.0, 0.0


def _docs_per_s(passes: List[PassResult]) -> float:
    """Distinct urls written per second."""
    return statistics.median(p.docs / p.wall_s for p in passes)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _documents(out: Path, seed: int, n_docs: int, expand: int):
    """Write and return the seed's documents, with compressed-PDF texts
    re-rolled so no row trips the PDF reader's trailing-EOL bug. The
    pages go to ``out/pages``; the program never reads the documents."""
    import pyarrow.parquet as pq

    docs = inputs.avoid_flate_eol(inputs.make_documents(seed, n_docs),
                                  expand)
    pq.write_table(docs, out / "documents.parquet")
    (out / "pages").mkdir()
    return docs


class Extract:
    """``extraction_pipeline`` with its defaults -> ``write_parquet``."""

    layers = ("functions.", "stages.", "pipelines.overhead_share")

    def __init__(self, name: str, n_docs: int, warm_docs: int, expand: int,
                 markdown: bool, n_files: int, sample_docs: int):
        self.name = name
        self.n_docs = n_docs
        self.warm_docs = warm_docs
        self.expand = expand
        self.markdown = markdown
        self.n_files = n_files
        self.sample_docs = sample_docs

    def _build(self, seed: int, n_docs: int):
        def build(out: Path) -> None:
            docs = _documents(out, seed, n_docs, self.expand)
            inputs.write_pages(out / "pages", docs, self.expand,
                               self.n_files, seed)
        return build

    def prepare(self, cache: Path, seed: int) -> Dict:
        main = inputs.materialize(
            cache, f"{self.name}_n{self.n_docs}_seed{seed}",
            self._build(seed, self.n_docs))
        warm = inputs.materialize(
            cache, f"{self.name}_n{self.warm_docs}_seed{seed}",
            self._build(seed, self.warm_docs))
        return {"main": main, "warm": warm, "seed": seed}

    def truth(self, inp: Dict) -> Dict:
        import pyarrow.parquet as pq

        docs = pq.read_table(inp["main"] / "documents.parquet")
        return truth.expected_rows(docs, self.expand, self.markdown)

    def sample(self, inp: Dict):
        return _sample_rows(inp["main"], self.sample_docs,
                            inputs.doc_offset(inp["seed"]))

    def figures(self, passes: List[PassResult]) -> Dict[str, float]:
        return {"docs_per_s": _docs_per_s(passes)}

    def run_pass(self, src: Path, out: Path, want: Optional[Dict],
                 tracer: Optional[tr.Tracer] = None,
                 sample=_unsampled) -> PassResult:
        import ray.data as rd

        from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
            extraction_pipeline,
        )

        _fresh(out)
        sample()
        t0 = time.perf_counter()
        ds = extraction_pipeline(rd.read_parquet(str(src / "pages")),
                                 emit_markdown=self.markdown)
        ds.write_parquet(str(out))
        wall = time.perf_counter() - t0
        return _checked(out, want, wall, [], sample(),
                        layers=_dedup_layers(tracer, src, out))


class Job:
    """The production path: ``state.manifest.run_resumable`` over 2-file
    shards with the build and config fingerprint ``scripts/run_job.py
    --global-dedup --emit-markdown`` uses, then
    ``global_latest_crawl_pass`` (called directly, because
    ``run_job.main`` shuts Ray down)."""

    name = "job_recrawl"
    layers = ("functions.", "stages.", "state.", "pipelines.overhead_share")

    def __init__(self, n_docs: int, warm_docs: int, n_files: int,
                 warm_files: int, sample_docs: int):
        self.n_docs = n_docs
        self.warm_docs = warm_docs
        self.n_files = n_files
        self.warm_files = warm_files
        self.sample_docs = sample_docs
        self.markdown = True

    def _build(self, seed: int, n_docs: int, n_files: int):
        def build(out: Path) -> None:
            docs = _documents(out, seed, n_docs, 1)
            inputs.write_recrawl_files(out / "pages", docs, n_files, seed)
        return build

    def prepare(self, cache: Path, seed: int) -> Dict:
        main = inputs.materialize(
            cache, f"{self.name}_n{self.n_docs}_seed{seed}",
            self._build(seed, self.n_docs, self.n_files))
        warm = inputs.materialize(
            cache, f"{self.name}_n{self.warm_docs}_seed{seed}",
            self._build(seed, self.warm_docs, self.warm_files))
        return {"main": main, "warm": warm, "seed": seed}

    def truth(self, inp: Dict) -> Dict:
        import pyarrow.parquet as pq

        docs = pq.read_table(inp["main"] / "documents.parquet")
        return truth.expected_rows(docs, 1, self.markdown)

    def sample(self, inp: Dict):
        return _sample_rows(inp["main"], self.sample_docs,
                            inputs.doc_offset(inp["seed"]))

    def figures(self, passes: List[PassResult]) -> Dict[str, float]:
        """``shard_s_p50``: median shard start -> manifest commit over
        every shard of every pass."""
        return {"docs_per_s": _docs_per_s(passes),
                "shard_s_p50": statistics.median(
                    u for p in passes for u in p.units_s)}

    def run_pass(self, src: Path, out: Path, want: Optional[Dict],
                 tracer: Optional[tr.Tracer] = None,
                 sample=_unsampled) -> PassResult:
        import ray
        import ray.data as rd

        from zzzarchived_arxiv_fulltext_ray.pipelines.extraction import (
            extraction_pipeline,
        )
        from zzzarchived_arxiv_fulltext_ray.state import manifest as mf

        _fresh(out)
        files = sorted(str(f) for f in (src / "pages").glob("*.parquet"))
        shards = mf.shard_input_files(files, 2)
        n_cpus = int(ray.cluster_resources().get("CPU", 8))

        def build(ds):
            return extraction_pipeline(ds, dedup="broadcast",
                                       concurrency=max(1, n_cpus * 3 // 4),
                                       batch_size=128,
                                       emit_markdown=self.markdown,
                                       giant_threshold_bytes=None)

        fingerprint = mf.default_config_fingerprint(
            dedup="broadcast", global_dedup=True, input_format="parquet",
            neardup_guard=False, emit_markdown=self.markdown)
        probe = _JobProbe(tracer, out) if tracer else None
        sample()
        t0 = time.perf_counter()
        if probe:
            probe.install(rd, mf)
        try:
            mf.run_resumable(
                shards, build, str(out), config_fingerprint=fingerprint,
                read_fn=probe.read_shard if probe else None)
            if probe:
                probe.resumable_done()
            gd = mf.global_latest_crawl_pass(str(out))
        finally:
            if probe:
                probe.uninstall()
        wall = time.perf_counter() - t0
        sampled = sample()

        manifests = mf.run_status(str(out))
        units = [m["ended"] - m["started"] for m in manifests]
        res = _checked(out, want, wall, units, sampled, layers={})
        if want is not None:
            combined = sum(m["content_hash"] for m in manifests) % (1 << 64)
            res.attempted += 1
            res.failed += combined != truth.expected_content_hash(want)
        if tracer:
            res.layers = _dedup_layers(tracer, src, out)
            res.layers.update(probe.ledger(manifests, gd))
        return res


class _JobProbe:
    """Watches one ``run_resumable`` + global pass from outside: shard
    starts (the read callable it is handed), reads of committed shard
    outputs (``ray.data.read_parquet`` on a ``shard=`` directory) and
    the global pass's own time."""

    def __init__(self, tracer: tr.Tracer, out: Path):
        self.tracer = tracer
        self.out = str(out)
        self.first_output_read: Dict[str, float] = {}
        self.output_reads = 0
        self.counting = True
        self._restore: List = []

    def read_shard(self, paths):
        import ray.data as rd

        with self.tracer.span("state.shard_read"):
            return rd.read_parquet(list(paths))

    def install(self, rd, mf) -> None:
        inner = rd.read_parquet
        probe = self

        def read_parquet(paths, *args, **kwargs):
            if (probe.counting and isinstance(paths, str)
                    and paths.startswith(probe.out)):
                probe.output_reads += 1
                probe.first_output_read.setdefault(paths, time.time())
            return inner(paths, *args, **kwargs)

        rd.read_parquet = read_parquet
        self._restore.append((rd, "read_parquet", inner))
        gl = mf.global_latest_crawl_pass
        tracer = self.tracer

        def global_pass(*args, **kwargs):
            with tracer.span("state.global_dedup"):
                return gl(*args, **kwargs)

        mf.global_latest_crawl_pass = global_pass
        self._restore.append((mf, "global_latest_crawl_pass", gl))

    def resumable_done(self) -> None:
        self.counting = False

    def uninstall(self) -> None:
        for module, attr, inner in reversed(self._restore):
            setattr(module, attr, inner)
        self._restore.clear()

    def ledger(self, manifests, gd) -> Dict[str, float]:
        pipeline, post = [], []
        for m in manifests:
            committed = self.first_output_read.get(
                str(Path(self.out) / f"shard={m['shard_id']}"))
            pipeline.append(committed - m["started"])
            post.append(m["ended"] - committed)
        return {
            "state.shard_pipeline_s": float(np.median(pipeline)),
            "state.post_write_s": float(np.median(post)),
            "state.output_reads_per_shard":
                self.output_reads / max(1, len(manifests)),
            "state.global_dedup_s": self.tracer.total("state.global_dedup"),
            "state.shards_rewritten": gd["shards_rewritten"],
            "state.rows_removed": gd["rows_removed"],
        }


class QueryMix:
    """Fifteen queries in one session, in a seed-permuted order, each
    checked against its DuckDB oracle."""

    name = "query_mix"
    markdown = False
    layers = ("pipelines.query.",)

    def __init__(self, sizes: Dict[str, int], warm_sizes: Dict[str, int]):
        self.sizes = sizes
        self.warm_sizes = warm_sizes
        self.order = list(QUERIES)

    def prepare(self, cache: Path, seed: int) -> Dict:
        def build(sizes):
            return lambda out: inputs.make_query_tables(out, seed, **sizes)

        tag = "_".join(str(v) for v in self.sizes.values())
        main = inputs.materialize(cache, f"{self.name}_{tag}_seed{seed}",
                                  build(self.sizes))
        tag = "_".join(str(v) for v in self.warm_sizes.values())
        warm = inputs.materialize(cache, f"{self.name}_{tag}_seed{seed}",
                                  build(self.warm_sizes))
        self.order = [str(q) for q in np.random.default_rng(
            [seed, 0x0D3]).permutation(QUERIES)]
        return {"main": main, "warm": warm, "seed": seed}

    def truth(self, inp: Dict) -> Dict:
        # the DuckDB oracle of dedup_ngram_partitioned is an all-pairs
        # list join that takes ~15 s on 500 documents; the same SQL is
        # restated in Python (and pinned equal to DuckDB in the tests)
        slow = "dedup_ngram_partitioned"
        want = truth.query_oracles(
            inp["main"], [q for q in QUERIES if q != slow])
        want[slow] = truth.signature(
            truth.shingle_jaccard_pairs(inp["main"] / "documents.parquet"))
        return want

    def sample(self, inp: Dict):
        return None

    def figures(self, passes: List[PassResult]) -> Dict[str, float]:
        """``slowest_query_s``: the slowest query of a pass, median over
        passes."""
        return {"slowest_query_s": statistics.median(
            max(p.units_s) for p in passes)}

    def run_pass(self, src: Path, out: Path, want: Optional[Dict],
                 tracer: Optional[tr.Tracer] = None,
                 sample=_unsampled) -> PassResult:
        import pyarrow.parquet as pq

        from zzzarchived_arxiv_fulltext_ray.pipelines import queries

        results, units, layers = {}, [], {}
        sample()
        t0 = time.perf_counter()
        for name in self.order:
            q0 = time.perf_counter()
            try:
                results[name] = truth.to_pandas(
                    queries.QUERIES[name](str(src)))
            except Exception:
                results[name] = None
            took = time.perf_counter() - q0
            units.append(took)
            layers[f"pipelines.query.{name}_s"] = took
        wall = time.perf_counter() - t0
        sampled = sample()
        # results are checked after the timed part
        failed = 0 if want is None else sum(
            got is None or truth.signature(got) != want[name]
            for name, got in results.items())
        n_docs = pq.read_metadata(src / "documents.parquet").num_rows
        return PassResult(wall, units, n_docs, len(units), failed, layers,
                          *sampled)


def _sample_rows(src: Path, n_docs: int, offset: int):
    """Every page row of the ``n_docs`` lowest doc_ids: the same kind
    composition for every seed."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    pages = pa.concat_tables(
        pq.read_table(f) for f in sorted((src / "pages").glob("*.parquet")))
    ids = pc.cast(pc.utf8_slice_codeunits(pages["url"], -8), pa.int64())
    keep = pc.less(pc.subtract(ids, offset), n_docs)
    return pages.filter(keep).sort_by([("url", "ascending"),
                                       ("warc_ts", "ascending")])


def _checked(out: Path, want: Optional[Dict], wall: float,
             units: List[float], sampled, layers: Dict) -> PassResult:
    got = truth.read_output(out)
    docs = len(set(got["url"].to_pylist()))
    attempted, bad = ((1, 0) if want is None
                      else (len(want), truth.check_extraction(got, want)))
    return PassResult(wall, units, docs, attempted, bad, layers, *sampled)


def _dedup_layers(tracer, src: Path, out: Path) -> Dict:
    if tracer is None:
        return {}
    import pyarrow.parquet as pq

    rows_in = sum(pq.read_metadata(f).num_rows
                  for f in (src / "pages").glob("*.parquet"))
    return {
        "stages.dedup_winner_s": tracer.total("stages.dedup_winner"),
        "stages.dedup_keep_ratio":
            truth.read_output(out).num_rows / rows_in,
    }


WORKLOADS: Dict[str, Callable] = {
    "extract_long": lambda: Extract(
        "extract_long", n_docs=300, warm_docs=40, expand=20,
        markdown=False, n_files=4, sample_docs=100),
    "job_recrawl": lambda: Job(
        n_docs=240, warm_docs=40, n_files=12, warm_files=2,
        sample_docs=200),
    "query_mix": lambda: QueryMix(
        sizes=dict(n_docs=150, n_orders=7500, n_lineitem=30000,
                   n_events=5000),
        warm_sizes=dict(n_docs=60, n_orders=1500, n_lineitem=6000,
                        n_events=1000)),
}
