"""End-to-end KG construction: source files -> (subj, pred, obj) triples.

The flagship pipeline (SURVEY.md §3.2 re-expressed Ray-Data-first):

    read_parquet(source): whole files per read task when
      there are as many files as CPUs, else split          [pruned read]
      -> ingest (sha256 + entities, content dropped)       [map_batches]
      -> pairs -> 21-relation prompt fan-out               [map_batches explode]
      -> generation (3 gens/prompt, fixed internal batches)[tasks; actor pool for real models]
      -> critic scoring + plausibility filter              [tasks]
      == checkpoint "scored" (slim; two-phase mining needs a second pass),
         teeing the stats partials (assertion counts,
         distinct surfaces, file lineages) per written
         block to side files; with whole-file reads the
         read, maps and write are ONE fused operator       [write tasks]
      -> stats pass over the side files: the manifest's
         tee rows bound every gate, one pyarrow read
         under them, split by kind; a Dataset over the
         side files and a distributed distinct aggregation
         only past a gate.  Without side files (in-memory
         build, shard union) ONE Ray Data job scans the
         scored rows for the same partials                 [driver]
         -> parse each distinct assertion once -> mine     [tasks -> driver]
      == checkpoint "patterns" + "stats" (driver-held tables, pyarrow) ==
      -> distinct-assertion match, ONCE per build: VF2
         once per parse structure in each chunk -> ONE
         eventualities memo (payload table + key relation),
         ray.put once                                      [tasks -> driver]
      -> memo join: hash lookup of each row's key + Arrow
         take, canonical map applied                       [map_batches]
      == checkpoint "eventualities", teeing the triple
         partials (Arrow group_by(subj, pred, obj) per
         written block) to side files                      [write tasks]
      -> else triple partials per block over the in-memory
         stream (or the stage read back when the side
         files are gone)                                   [map_batches]
      -> triple combine: ONE task reading the side files
         up to NARROW_FINAL_MAX partial rows, else Sort
         shuffle on a hash bucket                          [task or shuffle]
      == checkpoint "triples"; the combine output is the
         product, the stage is not read back ==
      -> canonicalization (minhash-LSH + union-find)       [driver or distributed]
      -> eventuality merge on eid                          [shuffle: bucket(eid)]
      -> conceptualizer tasks (broadcast taxonomy)         [map_batches]
      -> concept aggregation, same combine                 [task or shuffle]
      -> partitioned parquet by pred + manifests           [resumable sink]

With ``run_dir`` set, stages checkpoint through ``state.manifest`` and a
killed run resumes without recomputing completed stages.  Each product
checks its own checkpoint FIRST: a complete stage is read back before any
plan, memo or broadcast is built.  The stats pass's driver-held products
(canonical map, sorted lineage ranks, distinct assertion keys, and which
broadcast gates overflowed) persist as one small ``stats`` stage next to
``patterns``, so ``canonical_map()`` and a partial resume (patterns done,
triples not) never rescan the scored checkpoint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import pandas as _pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data import Dataset

from ..stages.conceptualize import make_conceptualize_fn
from ..stages.critic import Critic
from ..stages.generate import MockGenerator
from ..stages.ingest import ingest_batch, pairs_batch
from ..stages.mine import patterns_from_table, patterns_to_table
from ..stages.parse import parse_batch
from ..stages.prompts import expand_prompts
from ..state import manifest as mf
from ..synth import taxonomy_rows
from ..util import worker_cached


def _cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


ROWS_PER_BUCKET = 100_000  # target rows per bucketed-combine shuffle bucket
# driver-merge and broadcast ceilings, in entries: distinct assertions (the
# stats fold and the eventualities memo), distinct file lineages (the
# triple combine's int64 ranks; 0 ships lineage strings), and the canonical
# labels collapsed to a broadcast dict
EVS_BROADCAST_MAX = 3_000_000
LINEAGE_BROADCAST_MAX = 2_000_000
CANON_BROADCAST_MAX = 2_000_000


def _stats_gates() -> tuple[int, int, int]:
    """Driver-merge ceilings of the stats pass, in entries: distinct
    assertions, distinct file lineages, distinct entity surfaces."""
    from ..stages.canonicalize import DRIVER_BANDING_MAX

    return EVS_BROADCAST_MAX, LINEAGE_BROADCAST_MAX, DRIVER_BANDING_MAX


def _read_files(path: str, n_files: int) -> Dataset:
    """``rd.read_parquet(path)`` of ``n_files`` parquet files.  With a file
    per CPU or more, each read task takes whole files (at most 2 x cpus
    tasks, not one per file on a many-file corpus), so Ray fuses the read
    with the maps and the write after it and no block crosses the object
    store between them.  Fewer files (a single-file synthetic corpus) would
    be too few blocks to keep every core busy: the read is split to
    2 x cpus blocks, which stops Ray from fusing it."""
    cpus = _cpus()
    return rd.read_parquet(path, override_num_blocks=(
        min(n_files, 2 * cpus) if n_files >= cpus else 2 * cpus))


def _chunks(items: list) -> list[list]:
    """Split the distinct keys across the cluster-wide parse/match tasks: a
    multiple of the CPU count (no straggler wave), ~2,000 keys or more per
    chunk once there are enough, at most four waves."""
    cpus = _cpus()
    n = cpus * min(4, max(1, -(-len(items) // (2_000 * cpus))))
    size = max(1, -(-len(items) // n))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _bucket_count(est_rows: int) -> int:
    """Shuffle buckets for ``est_rows`` rows, scaled to the DATA (target
    ~``ROWS_PER_BUCKET`` rows per bucket, parallelism floor of 2×cpus): a
    fixed 4×cpus would make each bucket hold data/(4·cpus) rows in one
    task's memory at 100× data on a fixed cluster."""
    return int(max(2 * _cpus(), min(est_rows // ROWS_PER_BUCKET + 1, 65_536)))


def _concat(tables: list[pa.Table]) -> pa.Table:
    """Blocks pulled to the driver as one table; the empty ones are dropped
    (Ray passes an empty block on without its schema)."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({"kind": pa.array([], pa.string()),
                         "k1": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    return pa.concat_tables(tables, promote_options="default")


def _materialized_blocks(ds: Dataset) -> tuple[Dataset, list, int]:
    """``ds`` materialized (one job), its block refs, and their row count
    read from block metadata (no further job)."""
    ds = ds.materialize()
    bundles = list(ds.iter_internal_ref_bundles())
    return (ds, [r for b in bundles for r in b.block_refs],
            sum(b.num_rows() for b in bundles))


@ray.remote
def _combine_task(final, n_out: int, *blocks: pa.Table | str):
    """The final combine of partials that fit one task: ``final`` over the
    concatenated non-empty blocks, each a table or a parquet file path (a
    column-less table when all are empty), split into ``n_out`` slices."""
    import pyarrow.parquet as pq

    blocks = [pq.read_table(b) if isinstance(b, str) else b for b in blocks]
    blocks = [b for b in blocks if b.num_rows]
    out = final(pa.concat_tables(blocks, promote_options="default")
                if blocks else pa.table({}))
    if n_out == 1:
        return out
    size = -(-out.num_rows // n_out)
    return [out.slice(i * size, size) for i in range(n_out)]


# the eventuality columns the triple combine reads
TRIPLE_EV_COLS = ["canon_a", "canon_b", "rel", "words", "frequency",
                  "plausibility", "typicality", "repo", "path", "commit",
                  "content_sha256"]


def stats_batch(batch: pa.Table) -> pa.Table:
    """The stats pass's per-block partials of the scored rows, one table of
    ``(kind, k1, n)`` rows: ``"t"`` rows count each ``rel\\x1ftext`` key,
    ``"n"`` rows list the block's distinct entity surfaces and ``"f"``
    rows its distinct file lineages.  The ``scored`` checkpoint tees it
    (:class:`mf.Tee`), so a checkpointed build computes it in the write
    that produces the rows."""
    import pyarrow.compute as pc

    from ..stages.canonicalize import _distinct_norms_batch

    # vectorized per-block combine: value_counts over rel\x1ftext
    # (consumers sum "n" per key — emit order is irrelevant)
    joined = pc.binary_join_element_wise(
        batch.column("rel"), batch.column("assertion"), "\x1f")
    vc = (joined.combine_chunks()
          if isinstance(joined, pa.ChunkedArray) else joined)
    vc = pc.value_counts(vc)
    keys = vc.field("values")
    counts = pc.cast(vc.field("counts"), pa.int64())
    dn_tbl = _distinct_norms_batch(batch)
    # per-block distinct file lineages ("f" rows): feeds the global
    # lineage-rank broadcast that lets the triple combine ship int64
    # ranks instead of ~150-byte lineage strings (56% of the partial
    # stream).  Files are block-local, so this adds ~n_files/blocks
    # rows per block — noise next to the assertion partials.
    lin = pc.unique(pc.binary_join_element_wise(
        batch.column("repo"), batch.column("path"),
        batch.column("commit"), batch.column("content_sha256"),
        "\t").combine_chunks())
    n_t, n_n, n_f = len(keys), dn_tbl.num_rows, len(lin)
    return pa.table(
        {
            "kind": pa.array(["t"] * n_t + ["n"] * n_n + ["f"] * n_f,
                             pa.string()),
            "k1": pa.concat_arrays(
                [keys, dn_tbl.column("norm").combine_chunks()
                 .cast(pa.string()), lin]),
            "n": pa.concat_arrays(
                [counts, pa.nulls(n_n + n_f, pa.int64()).fill_null(0)]),
        }
    )


def triple_partials_fn(lineage_ref=None):
    """Per-block triple partials of the eventuality stream: ONE Arrow
    ``group_by(subj, pred, obj)`` with ``subj = canon_a-canon_b`` and
    ``obj = " ".join(words)``, aggregating count, sum(frequency),
    max(plausibility), max(typicality) and min(lineage), where lineage is
    ``repo\\tpath\\tcommit\\tsha``.  Hot triples collapse inside the
    block BEFORE the combine.  A 0-row block gives the typed empty table.

    ``lineage_ref``: optional broadcast of the SORTED distinct lineage
    strings.  When present, ``lineage_p`` ships as the int64 index into
    that array (found through one hash index per worker) instead of the
    ~150-byte string; ranks are lexicographic, so ``min(rank) ==
    min(string)``.  ``None`` ships the strings (identical output,
    pytest-gated)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        rows = pa.table({
            "subj": pc.binary_join_element_wise(
                batch.column("canon_a"), batch.column("canon_b"), "-"),
            "pred": batch.column("rel"),
            "obj": pc.binary_join(batch.column("words"), " "),
            "frequency": batch.column("frequency"),
            "plausibility": batch.column("plausibility"),
            "typicality": batch.column("typicality"),
            "lineage": pc.binary_join_element_wise(
                batch.column("repo"), batch.column("path"),
                batch.column("commit"), batch.column("content_sha256"), "\t"),
        })
        g = rows.group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
            [([], "count_all"), ("frequency", "sum"), ("plausibility", "max"),
             ("typicality", "max"), ("lineage", "min")])
        lineage = g.column("lineage_min")
        if lineage_ref is not None:
            index = worker_cached("LI" + lineage_ref.hex(), lambda: _pd.Index(
                ray.get(lineage_ref).to_numpy(zero_copy_only=False)))
            lineage = pa.array(index.get_indexer(
                lineage.to_numpy()), pa.int64())
        return pa.table({
            "subj": g.column("subj"),
            "pred": g.column("pred"),
            "obj": g.column("obj"),
            "support_p": g.column("count_all"),
            "frequency_p": g.column("frequency_sum"),
            "plausibility_p": g.column("plausibility_max"),
            "typicality_p": g.column("typicality_max"),
            "lineage_p": lineage})

    return fn


@dataclass
class KGPipeline:
    """Lazily composed KG build over one source Parquet table.

    Each product property returns a (lazy) Dataset; heavy barriers (pattern
    mining, canonical map) are cached on the instance.  ``run_dir=None`` keeps
    intermediates in the object store; a path makes the run resumable.
    """

    source_path: str
    run_dir: str | None = None
    _cache: dict = field(default_factory=dict)
    # incremental/sharded mode: read the scored stage from these ALREADY
    # CHECKPOINTED shard directories instead of generating it (see
    # build_kg_incremental) — generation/critic cost is paid once per shard
    scored_sources: tuple[str, ...] | None = None

    # ------------------------------------------------- lineage fingerprints

    def _fp(self, stage: str) -> str:
        """Chained stage fingerprint: source content (file sizes+mtimes) +
        stage config constants + the upstream stage's fingerprint, so a
        changed input file, threshold, or upstream result invalidates this
        stage and everything after it."""
        fps = self._cache.get("_fps")
        if fps is None:
            from ..stages import canonicalize as cz
            from ..stages.critic import PLAUSIBILITY_THRESHOLD
            from ..stages.generate import MAX_PROMPT_WORDS, N_GENS
            from ..stages.mine import MIN_SUPPORT, SUPPORT_FLOOR_FRAC

            if self.scored_sources:
                # union identity = the shard checkpoints' content identity:
                # a recomputed/added shard invalidates everything downstream
                src = mf.fingerprint(
                    "union",
                    *[mf.source_fingerprint(p) for p in self.scored_sources])
            else:
                src = mf.source_fingerprint(self.source_path)
            fps = {}
            fps["scored"] = mf.fingerprint(
                "scored", src, PLAUSIBILITY_THRESHOLD, N_GENS, MAX_PROMPT_WORDS
            )
            fps["patterns"] = mf.fingerprint(
                "patterns", fps["scored"], MIN_SUPPORT, SUPPORT_FLOOR_FRAC
            )
            # the broadcast gates decide which stats products persist
            fps["stats"] = mf.fingerprint(
                "stats", fps["patterns"], cz.JACCARD_THRESHOLD,
                cz.MAX_SUFFIX_EXTRA, cz.LSH_BANDS, cz.LSH_ROWS, *_stats_gates(),
            )
            fps["eventualities"] = mf.fingerprint(
                "eventualities", fps["patterns"], cz.JACCARD_THRESHOLD,
                cz.MAX_SUFFIX_EXTRA, cz.LSH_BANDS, cz.LSH_ROWS,
            )
            fps["triples"] = mf.fingerprint("triples", fps["eventualities"])
            self._cache["_fps"] = fps
        return fps[stage]

    def _resumed(self, stage: str) -> Dataset | None:
        """The stage's checkpoint read back when it is complete, else None.
        Called before a stage builds any plan, memo or broadcast."""
        if self.run_dir and mf.stage_complete(self.run_dir, stage,
                                              self._fp(stage)):
            return self._read_stage(stage,
                                    mf.load_manifest(self.run_dir, stage))
        return None

    def _checkpoint(self, ds: Dataset, stage: str, counters: dict | None = None,
                    tee: mf.Tee | None = None) -> Dataset:
        return self._read_stage(stage, mf.checkpoint(
            ds, self.run_dir, stage, self._fp(stage), counters=counters,
            tee=tee))

    def _read_stage(self, stage: str, man: dict) -> Dataset:
        """A complete stage read back by :func:`_read_files`, its file count
        from the manifest (one file per write task), so its read fuses with
        the next stage's maps.  A build that just wrote the stage and one
        that resumes it read the same blocks: ``sid`` numbers each row
        within its scored block, so a resumed ``scored`` must hand the
        eventualities the blocks a cold build does."""
        return _read_files(mf.stage_dir(self.run_dir, stage),
                           len(man["partitions"]))

    # ------------------------------------------------------------ stages

    def _n_buckets(self) -> int:
        """Shuffle bucket count for the bucketed combines, computed ONCE on
        the driver from the scored row count and captured in closures — a
        worker-side ``cluster_resources()`` call can return different
        values between tasks on an elastic cluster, hashing the same key to
        different buckets and breaking groupby co-location."""
        if "n_buckets" not in self._cache:
            # metadata count (checkpointed)
            self._cache["n_buckets"] = _bucket_count(self.scored().count())
        return self._cache["n_buckets"]

    def _combine(self, partials: Dataset | tuple[list[str], int],
                 keys: list[str], final) -> tuple[Dataset, dict]:
        """The final step of a combine over per-block ``partials``:
        ``final`` maps a table of partial rows to its combined rows grouped
        on ``keys`` (Arrow in, Arrow out).  ``partials`` is a Dataset,
        materialized here (a barrier anyway) so its block-metadata row
        count bounds the distinct keys, or the side files a checkpoint
        :class:`~folkscope_ray.state.manifest.Tee` wrote and their rows
        (:func:`~folkscope_ray.state.manifest.tee_files`).  At or below
        ``relational.NARROW_FINAL_MAX`` ONE task reads them and runs
        ``final`` over them all, no Sort shuffle, and returns ``2 × cpus``
        slices
        (downstream maps keep their parallelism).  Past the gate, a Sort on
        a hash bucket of ``keys`` and ``map_groups(final)``.  Returns the
        materialized result and counters: ``partials_rows`` (the bound),
        ``combine`` (``"task"`` or ``"shuffle"``) and ``combine_s`` (wall
        time)."""
        import numpy as np
        import pyarrow.compute as pc

        from ..ops import relational

        t0 = time.perf_counter()
        if isinstance(partials, tuple):
            refs, bound = partials
        else:
            partials, refs, bound = _materialized_blocks(partials)
        if bound <= relational.NARROW_FINAL_MAX:
            n = 2 * _cpus()
            how, ds = "task", rd.from_arrow_refs(
                _combine_task.options(num_returns=n).remote(final, n, *refs))
        else:
            if isinstance(partials, tuple):
                partials = rd.read_parquet(refs)
            nb = self._n_buckets()  # driver-side once; captured in bucket()

            def bucket(b: pa.Table) -> pa.Table:
                key = pc.binary_join_element_wise(
                    *[b.column(k) for k in keys], "\x1f")
                return b.append_column("bucket", pa.array((_pd.util.hash_array(
                    key.to_numpy(), categorize=False) % nb).astype(np.int32)))

            how, ds = "shuffle", partials.map_batches(
                bucket, batch_format="pyarrow").groupby("bucket").map_groups(
                final, batch_format="pyarrow").materialize()
        return ds, {"partials_rows": bound, "combine": how,
                    "combine_s": time.perf_counter() - t0}

    def files(self) -> Dataset:
        # read whole files when there are enough: the wide ``content``
        # column then never crosses the object store
        ds = _read_files(self.source_path,
                         len(mf.parquet_files(self.source_path)))
        return ds.map_batches(ingest_batch, batch_format="pyarrow", batch_size=None)

    def pairs(self) -> Dataset:
        return self.files().map_batches(pairs_batch, batch_format="pyarrow",
                                        batch_size=None)

    def assertions(self) -> Dataset:
        """Scored candidate assertions (post-critic).

        No Ray-level ``batch_size`` on the generator/critic: a batch_size here
        becomes min_rows_per_bundle for the FUSED read->...->generator
        operator, i.e. it counts *source* rows and caps the whole pipeline at
        n_files/batch_size tasks.  Instead the generator slices its block
        into fixed-size inference batches internally (the reference's
        fixed-batch contract, generation.py:238-243), and task fan-out
        follows the source block count.

        Pairs, prompts, generator and critic run as ONE function per file
        block: Ray never calls a map UDF on an empty block and passes on a
        column-less one instead, so a block whose files hold no entity pair
        would lose the schema at the first stage after ``pairs_batch``.
        The mock generator/critic carry no real model state, so they run
        inside stateless tasks (pickled instances).  A real GPU deployment
        that moves the generator or critic into its own actor pool
        (``map_batches(RealGenerator, concurrency=N, num_gpus=1,
        batch_size=None)``, weights loaded in ``__init__``) splits this
        function again, and so needs the typed-empty handling back: a
        driver-side typed empty result when ``pairs`` has 0 rows."""
        generate, critic = MockGenerator(), Critic()

        def fan_out(batch: pa.Table) -> pa.Table:
            return critic(generate(expand_prompts(pairs_batch(batch))))

        return self.files().map_batches(fan_out, batch_format="pyarrow",
                                        batch_size=None)

    def scored(self) -> Dataset:
        """Scored assertions, checkpointed — the pipeline's one wide-fan-in
        barrier (two-phase mining needs a second pass over the corpus).

        The checkpoint write tees :func:`stats_batch`, so the stats pass
        reads its partials from side files instead of rescanning the stage.

        This is deliberately the SLIM table (no token/lemma/POS/dep list
        columns): assertion texts repeat heavily, so downstream stages
        re-derive parses from per-worker memo caches at dict-lookup cost
        instead of shipping ~2.5x the bytes through the object store."""
        if "scored" in self._cache:
            return self._cache["scored"]
        if self.scored_sources:
            # sharded mode: the expensive generate+critic work already lives
            # in the shard checkpoints; the union is just a multi-dir read
            # (expanded to files — read_parquet takes dirs only singly)
            import glob as _glob

            paths = [f for d in self.scored_sources
                     for f in sorted(_glob.glob(os.path.join(d, "*.parquet")))]
            ds = rd.read_parquet(paths)
            self._cache["scored"] = ds
            return ds
        ds = self._resumed("scored")
        if ds is None:
            ds = (self._checkpoint(self.assertions(), "scored",
                                   tee=mf.Tee(stats_batch)) if self.run_dir
                  else self.assertions().materialize())
        self._cache["scored"] = ds
        return ds

    def parsed(self) -> Dataset:
        """Fully parsed assertions (token/lemma/POS/dep list columns) — lazy
        over the scored checkpoint; the heavy parse is memoized per worker so
        repeated consumption costs dict lookups, not re-parsing."""
        if "parsed" in self._cache:
            return self._cache["parsed"]
        ds = self.scored().map_batches(parse_batch, batch_format="pyarrow",
                                       batch_size=None)
        self._cache["parsed"] = ds
        return ds

    def _stats_pass(self) -> None:
        """ONE pass over the scored rows computes every driver-side
        barrier: frequent-pattern mining counts (SURVEY.md A1/A2), the
        distinct entity surfaces for canonicalization, and the distinct
        assertion set feeding the broadcast match memo.

        Two-phase so NO worker ever parses the whole distinct vocabulary:

        1. **partials**: per-block ``(rel\\x1ftext) -> row count`` partials
           + distinct norms + file lineages (:func:`stats_batch`).  A
           checkpointed ``scored`` write tees them to side files in the job
           that wrote the rows, so this pass runs no Ray Data job: the
           manifest's ``tee_rows`` bounds every gate, and under them the
           driver reads the side files with pyarrow (a Dataset over them
           only past a gate).  Without side files (an in-memory build, a
           ``scored_sources`` union, a stage written before the tee) ONE
           Ray Data job scans the scored rows and its block-metadata row
           count is the bound.  Below every gate the driver pulls the
           partials once and splits them by kind.
        2. **parse** (parallel): the merged distinct set is chunked across
           ``parse_stats_chunk`` tasks; each distinct assertion is parsed
           exactly ONCE cluster-wide, returning (skeleton key, token count)
           used to fold row counts into skeleton/length histograms.

        The driver merge is vectorized (Arrow group_by over the partials),
        not a Python row loop.  With ``run_dir`` set, the ``stats`` manifest
        records each phase's wall time (``scan_s``, ``parse_s``, ``mine_s``,
        ``canon_s``), the row count that decided each gate and where the
        partials came from (``partials_source``: ``"tee"`` or ``"scan"``)."""
        import math as _math
        from collections import Counter

        import pyarrow.compute as pc

        import pyarrow.parquet as pq

        from ..stages.canonicalize import canonical_from_norms
        from ..stages.mine import (
            MIN_SUPPORT,
            SUPPORT_FLOOR_FRAC,
            grow_subskeleton_patterns,
        )
        from ..stages.parse import parse_stats_chunk
        from ..patterns import attribute_exclusive_support, decode_pattern

        # The partials' row count bounds every kind's distinct count, so a
        # kind whose gate clears it is filtered out of one driver pull; a
        # kind past its gate pays one distributed distinct aggregation, and
        # if THAT still exceeds the gate, nothing that size reaches the
        # driver.
        from ..ops.relational import map_combine_aggregate

        t_start = time.perf_counter()
        scored = self.scored()
        evs_max, lin_gate, banding_max = _stats_gates()
        pull_max = max(evs_max, lin_gate, banding_max)
        teed = mf.tee_files(self.run_dir, "scored") if self.run_dir else None
        if teed is not None:
            source, (files, bound) = "tee", teed
            pulled = (_concat([pq.read_table(f) for f in files])
                      if bound <= pull_max else None)

            def partials() -> Dataset:
                return rd.read_parquet(files)
        else:
            # scan: ONE Ray Data job materializes the partials; their row
            # count comes from block metadata, no further job
            source = "scan"
            scan, refs, bound = _materialized_blocks(scored.map_batches(
                stats_batch, batch_format="pyarrow", batch_size=None))
            pulled = _concat(ray.get(refs)) if bound <= pull_max else None

            def partials() -> Dataset:
                return scan

        def kind_rows(kind: str, cols: list[str], gate: int,
                      sums: dict | None = None):
            """(the kind's rows as a driver table, None past the gate; the
            distinct Dataset when one was aggregated; the row count that
            decided the gate)."""
            def keep(b: pa.Table) -> pa.Table:
                return b.filter(pc.equal(b.column("kind"), kind)).select(cols)

            if bound <= gate:
                return keep(pulled), None, bound
            distinct = map_combine_aggregate(
                partials().map_batches(keep, batch_format="pyarrow"),
                keys=["k1"], sums=sums).materialize()
            n = distinct.count()
            return (_concat(ray.get(distinct.to_arrow_refs())) if n <= gate
                    else None), distinct, n

        gate_rows: dict[str, int | None] = {}
        t_tbl, distinct_t, gate_rows["assertions_gate_rows"] = kind_rows(
            "t", ["k1", "n"], evs_max, sums={"n": "n"})
        text_counts: dict[str, int] | None = None
        if t_tbl is not None:
            g = t_tbl.group_by("k1").aggregate([("n", "sum")])
            text_counts = dict(zip(g.column("k1").to_pylist(),
                                   g.column("n_sum").to_pylist()))
        evs_overflow = text_counts is None

        # distinct entity surfaces, bounded the same way by the banding gate
        n_tbl, _d, gate_rows["canon_gate_rows"] = kind_rows(
            "n", ["k1"], banding_max)
        norms_overflow = n_tbl is None
        norms = set() if norms_overflow else set(n_tbl.column("k1").to_pylist())

        # distinct file lineages -> SORTED global rank array for the triple
        # combine (int64 rank ships instead of the ~150-byte string; ranks
        # are lexicographic so min(rank) == min(string) bit-exactly).  File
        # count ≪ assertion count (96x fan-out), bounded by its own gate; on
        # overflow triples() falls back to string lineage — identical
        # output, pytest-gated.
        self._cache["lineage_sorted"] = None
        gate_rows["lineage_gate_rows"] = None
        if lin_gate:
            f_tbl, _d, gate_rows["lineage_gate_rows"] = kind_rows(
                "f", ["k1"], lin_gate)
            if f_tbl is not None:
                lins = pc.unique(f_tbl.column("k1"))
                self._cache["lineage_sorted"] = lins.take(pc.sort_indices(lins))
        t_parse = time.perf_counter()

        counts: Counter = Counter()
        length_counts: dict[str, Counter] = {}
        assertions_set: list[str] = []
        total = 0
        if not evs_overflow:
            # parse each distinct assertion exactly once, cluster-wide
            items = sorted(text_counts)
            futs = [parse_stats_chunk.remote(c) for c in _chunks(items)]
            for part in ray.get(futs):
                for key, skel, n_tokens in part:
                    n = text_counts[key]
                    counts[skel] += n
                    total += n
                    rel = key.split("\x1f", 1)[0]
                    length_counts.setdefault(rel, Counter())[n_tokens] += n
                    assertions_set.append(key)
        else:
            # fully distributed: parse the distinct Dataset in place (each
            # distinct key sits in exactly one block after the aggregation,
            # so it is parsed exactly once cluster-wide — same guarantee as
            # the chunked driver path), then map-combine down to
            # (skeleton, rel, n_tokens) rows.  The driver folds ONLY
            # skeleton-level aggregates; downstream consumers
            # (grow_subskeleton_patterns, attribute_exclusive_support) sort
            # internally, so the two paths are bit-equal.
            from ..stages.parse import parse_stats_batch

            srows = map_combine_aggregate(
                distinct_t.map_batches(parse_stats_batch,
                                       batch_format="pyarrow"),
                keys=["skel", "rel", "n_tokens"], sums={"n": "n"},
            ).to_pandas()
            srows = srows.sort_values(["skel", "rel", "n_tokens"],
                                      kind="mergesort")
            for skel, rel, ntok, n in zip(srows["skel"], srows["rel"],
                                          srows["n_tokens"], srows["n"]):
                counts[skel] += int(n)
                total += int(n)
                length_counts.setdefault(rel, Counter())[int(ntok)] += int(n)
        t_mine = time.perf_counter()
        floor = max(MIN_SUPPORT, _math.ceil(total * SUPPORT_FLOOR_FRAC))
        grown = grow_subskeleton_patterns(dict(counts), length_counts)
        # reference support semantics: priority-ordered exclusive line
        # attribution with hierarchy-flag behavior (A5) — full skeletons are
        # candidates UNthresholded; the greedy drops the infrequent ones and
        # releases their lines to the grown sub-patterns
        pats = attribute_exclusive_support(
            dict(counts), [decode_pattern(k) for k in counts] + grown, floor
        )
        t_canon = time.perf_counter()
        canon = (self._canon_labels() if norms_overflow
                 else canonical_from_norms(sorted(norms)))
        t_end = time.perf_counter()
        self._cache["patterns"] = pats
        self._cache["canon"] = canon
        # distinct keys kept for the eventualities-path full-ev memo (same
        # broadcast gate: None past the ceiling -> per-row fallback)
        self._cache["assertions_set"] = (
            None if evs_overflow else assertions_set)
        if self.run_dir:
            mf.checkpoint(patterns_to_table(pats), self.run_dir, "patterns",
                          self._fp("patterns"))
            self._save_stats({
                "scan_s": t_parse - t_start, "parse_s": t_mine - t_parse,
                "mine_s": t_canon - t_mine, "canon_s": t_end - t_canon,
                "partials_source": source, **gate_rows})

    def _canon_labels(self) -> Dataset:
        """The fully distributed (norm, canon) labels Dataset, for a
        distinct-surface count past ``DRIVER_BANDING_MAX``.  Not persisted
        in the ``stats`` stage: a resume recomputes it."""
        from ..stages.canonicalize import build_canonical_labels

        return build_canonical_labels(self.scored().map_batches(
            lambda b: b.select(["surf_a", "surf_b"]), batch_format="pyarrow"))

    def _save_stats(self, counters: dict) -> None:
        """Checkpoint the stats-pass products as one (kind, key, value)
        table.  The manifest counters mark each product whose broadcast gate
        overflowed (absent from the table), next to the pass's ``counters``:
        phase wall times and the row count that decided each gate."""
        canon = self._cache["canon"]
        lineage = self._cache["lineage_sorted"]
        keys = self._cache["assertions_set"]
        schema = pa.schema([("kind", pa.string()), ("key", pa.string()),
                            ("value", pa.string())])
        parts = [schema.empty_table()]
        if isinstance(canon, dict):
            parts.append(pa.table([
                pa.repeat("canon", len(canon)), pa.array(list(canon)),
                pa.array(list(canon.values()))], schema=schema))
        for kind, arr in (("lineage", lineage), ("assertion", keys)):
            if arr is not None:
                parts.append(pa.table([
                    pa.repeat(kind, len(arr)), pa.array(arr, pa.string()),
                    pa.nulls(len(arr), pa.string())], schema=schema))
        table = pa.concat_tables(parts)
        counters = {**counters,
                    "canon_overflow": not isinstance(canon, dict),
                    "lineage_overflow": lineage is None,
                    "assertions_overflow": keys is None}
        mf.checkpoint(table, self.run_dir, "stats", self._fp("stats"),
                      counters=counters)

    def _load_stats(self) -> bool:
        """Fill the cache from a complete ``stats`` checkpoint; False when
        there is none for the current fingerprint."""
        if not (self.run_dir and mf.stage_complete(self.run_dir, "stats",
                                                   self._fp("stats"))):
            return False
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        overflow = mf.load_manifest(self.run_dir, "stats")["counters"]
        table = pq.read_table(mf.stage_dir(self.run_dir, "stats"))

        def rows(kind: str) -> pa.Table:
            return table.filter(pc.equal(table.column("kind"), kind))

        if overflow["canon_overflow"]:
            self._cache["canon"] = self._canon_labels()
        else:
            canon = rows("canon")
            self._cache["canon"] = dict(zip(
                canon.column("key").to_pylist(),
                canon.column("value").to_pylist()))
        self._cache["lineage_sorted"] = (
            None if overflow["lineage_overflow"]
            else rows("lineage").column("key").combine_chunks())
        self._cache["assertions_set"] = (
            None if overflow["assertions_overflow"]
            else rows("assertion").column("key").to_pylist())
        return True

    def _stats(self) -> None:
        """Make the stats-pass products (canonical map, lineage ranks,
        distinct assertions) available: loaded from the ``stats``
        checkpoint when complete, else computed by one stats pass."""
        if "canon" not in self._cache and not self._load_stats():
            self._stats_pass()

    def _full_evs_ref(self):
        """The broadcast eventualities memo both products read: ONE Arrow
        table of distinct-level ev payloads (read zero-copy per worker) and
        the ``(key, start, n)`` relation of the ``rel\\x1ftext`` keys that
        matched, each DISTINCT assertion parsed + matched exactly once
        cluster-wide (``match_events_chunk``).  Triples aggregate the
        eventualities stream, so this is the build's only distinct match.
        None when the distinct set overflowed ``EVS_BROADCAST_MAX`` in the
        stats pass; then eventualities come from ``PatternMatcher`` over
        the parsed stream."""
        if "full_evs_ref" in self._cache:
            return self._cache["full_evs_ref"]
        self._stats()
        t0 = time.perf_counter()
        items = self._cache.get("assertions_set")
        ref = None
        structures: set = set()
        if items:
            import numpy as np

            from ..stages.match import match_events_chunk

            pat_ref = ray.put(self.patterns())
            futs = [match_events_chunk.remote(pat_ref, c)
                    for c in _chunks(items)]
            # (table, per-key ev counts, structure digests)
            parts = ray.get(futs)
            # combine ONCE on the driver: workers read the broadcast table
            # zero-copy from plasma, and a multi-chunk put would force each
            # worker's combine_chunks() to heap-copy the whole memo
            tbl = pa.concat_tables([p[0] for p in parts]).combine_chunks()
            counts = np.concatenate([p[1] for p in parts])
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            hit = counts > 0
            keys = pa.table({
                "key": pa.array(items, pa.string()).filter(pa.array(hit)),
                "start": starts[hit], "n": counts[hit]})
            ref = (ray.put(tbl), ray.put(keys))
            structures = structures.union(*(p[2] for p in parts))
        self._cache["full_evs_ref"] = ref
        # 0 matched and 0 structures: the per-row path, no memo built
        self._cache["memo_counters"] = {
            "memo_s": time.perf_counter() - t0,
            "n_distinct_matched": len(items) if ref else 0,
            "n_match_structures": len(structures)}
        return ref

    def _lineage_ref(self):
        """The broadcast of the sorted distinct lineage strings that the
        triple partials rank against (one put per pipeline), or None when
        the lineage gate overflowed and the partials carry strings."""
        if "lineage_ref" not in self._cache:
            self._stats()
            lineage = self._cache.get("lineage_sorted")
            self._cache["lineage_ref"] = (None if lineage is None
                                          else ray.put(lineage))
        return self._cache["lineage_ref"]

    def patterns(self) -> list:
        if "patterns" in self._cache:
            return self._cache["patterns"]
        if self.run_dir and mf.stage_complete(self.run_dir, "patterns",
                                              self._fp("patterns")):
            import pyarrow.parquet as pq

            self._cache["patterns"] = patterns_from_table(
                pq.read_table(mf.stage_dir(self.run_dir, "patterns")))
        else:
            self._stats_pass()
        return self._cache["patterns"]

    def canonical_map(self):
        """Surface->canonical mapping (built in the fused stats pass): a
        ``{norm: canon}`` dict below ``DRIVER_BANDING_MAX`` distinct
        surfaces, a (norm, canon) labels Dataset above it."""
        self._stats()
        return self._cache["canon"]

    def _resolved_canon(self):
        """('dict', {norm: canon}) when the map fits a broadcast, else
        ('ds', labels Dataset) — consumers broadcast-apply or hash-join.

        The broadcast ceiling is ``CANON_BROADCAST_MAX`` entries (a
        billion-entity map cannot ship as one dict)."""
        canon = self.canonical_map()
        if isinstance(canon, dict):
            return "dict", canon
        canon = canon.materialize()
        if canon.count() <= CANON_BROADCAST_MAX:
            df = canon.to_pandas()
            return "dict", dict(zip(df["norm"], df["canon"]))
        return "ds", canon

    def eventualities(self) -> Dataset:
        """Per-occurrence eventualities with canonical entity ids.

        With ``run_dir`` the checkpoint write also computes the triple
        partials of each block it writes (a :class:`mf.Tee` of
        :func:`triple_partials_fn`) into the stage's side files, so
        :meth:`triples` neither reads the stage back nor runs another job
        for them.  The manifest records the memo's counters, the write's
        ``write_s``, the partials' rows (``tee_rows``) and whether their
        lineage is the int64 rank (``tee_lineage_ranks``)."""
        if "events" in self._cache:
            return self._cache["events"]
        ds = self._resumed("eventualities")
        if ds is not None:
            self._cache["events"] = ds
            return ds
        from ..stages.canonicalize import apply_canonical_join
        from ..stages.match import make_match_from_memo_fn, make_match_fn

        kind, canon = self._resolved_canon()
        canon_ref = ray.put(canon) if kind == "dict" else None
        ev_ref = self._full_evs_ref()
        scored = self.scored()
        n_scored = scored.count()
        if n_scored == 0:
            # Ray passes an empty input block on without calling the UDF
            # (nor keeping its schema): run the matcher on the typed empty
            # table here so the product keeps its columns
            fn = make_match_fn(ray.put(self.patterns()), canon_ref)
            ds = rd.from_arrow(fn(parse_batch(
                scored.schema().base_schema.empty_table())))
        elif ev_ref is not None:
            # distinct-level memo path: each distinct assertion parsed +
            # matched ONCE cluster-wide; the per-occurrence stage over the
            # SLIM scored table is a hash lookup and a take (bit-equal to
            # the parsed path, pytest-gated)
            ds = scored.map_batches(
                make_match_from_memo_fn(ev_ref[0], ev_ref[1], canon_ref),
                batch_format="pyarrow", batch_size=None)
        else:
            ds = self.parsed().map_batches(
                make_match_fn(ray.put(self.patterns()), canon_ref),
                batch_format="pyarrow", batch_size=None)
        if kind != "dict":  # canonical map exceeds broadcast size: hash join
            ds = apply_canonical_join(ds, canon)
        if self.run_dir:
            lineage_ref = self._lineage_ref()
            ds = self._checkpoint(
                ds, "eventualities",
                tee=mf.Tee(triple_partials_fn(lineage_ref)), counters={
                    **self._cache["memo_counters"],
                    "tee_lineage_ranks": lineage_ref is not None})
        self._cache["events"] = ds
        return ds

    def eventualities_merged(self, events: Dataset | None = None) -> Dataset:
        """Corpus-level exact dedup on eid with frequency merge
        (object.py:132-160 / extractor.py:417-423): shuffle keyed on eid,
        over ``events`` (default :meth:`eventualities`).

        Implemented as a pure ``aggregate`` (partial+final combine — no
        map_groups): the eid is a content hash of (deps, words, pos_tags), so
        every row of a group carries an identical payload; we pack it into
        delimiter-joined string columns (Arrow ``binary_join`` kernels — no
        per-row serialization on the full occurrence stream), take first
        (any representative), and unpack with ``split_pattern`` after the
        shuffle.  Only (eid, packed payload, frequency) rows move."""
        import json

        import pyarrow.compute as pc

        nb = self._n_buckets()  # driver-side once; captured in the closure

        def pack(batch: pa.Table) -> pa.Table:
            n_rows = batch.num_rows
            # deps list<struct{gov,rel,dep}> -> "g\x1fl\x1fd" triples joined
            # on \x1e (parser-internal labels/ints: separators can't collide)
            dl = batch.column("ev_deps").combine_chunks()
            trip = pc.binary_join_element_wise(
                pc.cast(dl.values.field("gov"), pa.string()),
                dl.values.field("rel"),
                pc.cast(dl.values.field("dep"), pa.string()), "\x1f")
            d_p = pc.binary_join(
                pa.ListArray.from_arrays(dl.offsets, trip), "\x1e")
            sk_p = pc.binary_join(
                pc.cast(batch.column("skeleton_indices"),
                        pa.list_(pa.string())), ",")
            has_ner = "ev_ners" in batch.column_names
            if has_ner:
                # byte-identical to json.dumps(list[str]) — NER tags are a
                # closed alphanumeric set (never quotes/escapes), and the
                # string carries through as the merged output column
                nl = batch.column("ev_ners").combine_chunks()
                ners_json = pc.if_else(
                    pc.equal(pc.list_value_length(nl), 0), "[]",
                    pc.binary_join_element_wise(
                        '["', pc.binary_join(nl, '", "'), '"]', ""))
            else:
                ners_json = pa.array(["[]"] * n_rows, pa.string())
            if "ev_mentions" in batch.column_names:
                ml = batch.column("ev_mentions").combine_chunks()
                mlens = pc.list_value_length(ml).to_numpy()
                if (mlens == 0).all():  # common case: no mentions anywhere
                    mentions_json = pa.array(["[]"] * n_rows, pa.string())
                else:  # per-row dumps only where a mention list is non-empty
                    rows = ml.to_pylist()
                    mentions_json = pa.array(
                        ["[]" if n == 0 else json.dumps(x)
                         for n, x in zip(mlens, rows)], pa.string())
            else:
                mentions_json = pa.array(["[]"] * n_rows, pa.string())
            # vectorized co-location bucket (pd.util.hash_array, process-
            # stable) — any deterministic fn works: the merge is per-eid
            # inside the bucket and sorts on deterministic keys
            eid_np = batch.column("eid").to_pandas().to_numpy()
            buckets = (_pd.util.hash_array(eid_np, categorize=False)
                       % nb).astype("int32")
            return pa.table(
                {
                    "bucket": pa.array(buckets, pa.int32()),
                    "eid": batch.column("eid"),
                    "w_p": pc.binary_join(batch.column("words"), "\x1e"),
                    "p_p": pc.binary_join(batch.column("ev_pos_tags"), "\x1e"),
                    "d_p": d_p,
                    "sk_p": sk_p,
                    "pattern": batch.column("pattern"),
                    "rel": batch.column("rel"),
                    "ners_json": ners_json,
                    "mentions_json": mentions_json,
                    "frequency": batch.column("frequency"),
                }
            )

        def bucket_merge(df):
            # shuffle arrival order varies run to run; sort on deterministic
            # keys so the NER/mention merge (order-sensitive Counter promotion)
            # and 'first' picks are reproducible bit-for-bit
            df = df.sort_values(["eid", "ners_json", "mentions_json", "frequency"],
                                kind="mergesort")
            out = (
                df.groupby("eid", sort=False)
                .agg(w_p=("w_p", "first"), p_p=("p_p", "first"),
                     d_p=("d_p", "first"), sk_p=("sk_p", "first"),
                     pattern=("pattern", "first"), rel=("rel", "first"),
                     frequency=("frequency", "sum"),
                     support=("w_p", "size"),
                     ners_json=("ners_json", "first"),
                     n_ner=("ners_json", "nunique"),
                     mentions_json=("mentions_json", "first"),
                     n_men=("mentions_json", "nunique"))
                .reset_index()
            )
            # NER-Counter merge + mention union (object.py:145-156) only for
            # the rare eids whose occurrences actually disagree — agreeing
            # groups take the vectorized fast path above
            mixed = out.index[(out["n_ner"] > 1) | (out["n_men"] > 1)]
            if len(mixed):
                from ..patterns import merge_mention_lists, merge_ner_lists

                for ridx in mixed:
                    eid = out.at[ridx, "eid"]
                    rows = df[df["eid"] == eid]
                    out.at[ridx, "ners_json"] = json.dumps(merge_ner_lists(
                        [(json.loads(nj), f) for nj, f in
                         zip(rows["ners_json"], rows["frequency"])]
                    ), sort_keys=True)
                    out.at[ridx, "mentions_json"] = json.dumps(
                        merge_mention_lists(
                            [json.loads(mj) for mj in rows["mentions_json"]]
                        )
                    )
            return out.drop(columns=["n_ner", "n_men"])

        from ..stages.parse import DEP_STRUCT, MENTION_STRUCT

        def split_list(col, sep: str) -> pa.ListArray:
            """split_pattern with the empty-string row fixed to [] (split
            alone yields [""]); only rows that ARE empty pay any Python."""
            arr = (col.combine_chunks()
                   if isinstance(col, pa.ChunkedArray) else col)
            lst = pc.split_pattern(arr, sep)
            if isinstance(lst, pa.ChunkedArray):
                lst = lst.combine_chunks()
            empty = pc.equal(arr, "")
            if not pc.any(empty).as_py():
                return lst
            import numpy as np

            off = lst.offsets.to_numpy()
            emp = empty.to_numpy(zero_copy_only=False).astype(bool)
            lens = np.diff(off)
            lens[emp] = 0
            new_off = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
            keep = np.ones(len(lst.values), dtype=bool)
            for i in np.nonzero(emp)[0]:
                keep[off[i]:off[i + 1]] = False
            return pa.ListArray.from_arrays(
                pa.array(new_off, pa.int32()),
                lst.values.filter(pa.array(keep)))

        def unpack(batch: pa.Table) -> pa.Table:
            trip = split_list(batch.column("d_p"), "\x1e")
            fields = pc.split_pattern(trip.values, "\x1f")
            dep_struct = pa.StructArray.from_arrays(
                [pc.cast(pc.list_element(fields, 0), pa.int32()),
                 pc.list_element(fields, 1),
                 pc.cast(pc.list_element(fields, 2), pa.int32())],
                names=["gov", "rel", "dep"],
            ) if len(trip.values) else pa.array([], DEP_STRUCT)
            deps = pa.ListArray.from_arrays(trip.offsets, dep_struct)
            mj = batch.column("mentions_json").to_pylist()
            mentions = [[] if m == "[]" else json.loads(m) for m in mj]
            return pa.table(
                {
                    "eid": batch.column("eid"),
                    "words": split_list(batch.column("w_p"), "\x1e"),
                    "ev_pos_tags": split_list(batch.column("p_p"), "\x1e"),
                    "ev_deps": pc.cast(deps, pa.list_(DEP_STRUCT)),
                    "skeleton_indices": pc.cast(
                        split_list(batch.column("sk_p"), ","),
                        pa.list_(pa.int32())),
                    "pattern": batch.column("pattern"),
                    "rel": batch.column("rel"),
                    # per-position tag or frequency-weighted tag-Counter dict
                    # (heterogeneous after a disagreeing merge -> JSON column)
                    "ners": batch.column("ners_json"),
                    "mentions": pa.array(mentions, pa.list_(MENTION_STRUCT)),
                    "frequency": batch.column("frequency"),
                    "support": batch.column("support"),
                }
            )

        if events is None:
            events = self.eventualities()
        return (
            events
            .map_batches(pack, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(bucket_merge, batch_format="pandas")
            .map_batches(unpack, batch_format="pyarrow")
        )

    def concepts(self, events: Dataset | None = None) -> Dataset:
        """Concept instances per distinct eventuality (tasks over a
        broadcast taxonomy) of ``events`` (default :meth:`eventualities`)."""
        return self.eventualities_merged(events).map_batches(
            make_conceptualize_fn(ray.put(taxonomy_rows())),
            batch_format="pyarrow",
        )

    def concept_agg(self) -> Dataset:
        """cid-level aggregation: score = Σ score×frequency
        (conceptualizer.py:649-663).  The triples' :meth:`_combine` —
        most cids have few instances, so a keyed aggregate would pay
        per-group overhead on ~1-row groups."""
        def weighted(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            w = pc.multiply(batch.column("score"), batch.column("frequency"))
            return batch.append_column("weighted_score", w)

        def combine(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"cid": pa.array([], pa.string()),
                                 "score": pa.array([], pa.float64()),
                                 "n_instances": pa.array([], pa.int64())})
            # deterministic float-summation order: block arrival order varies
            # run to run, so sort on a unique key before the groupby-sum (the
            # fixture/oracle compare hashes raw float bits)
            cols = ["cid", "eid", "weighted_score"]
            df = t.select(cols).to_pandas().sort_values(cols, kind="mergesort")
            return pa.Table.from_pandas(
                df.groupby("cid", sort=False)
                .agg(score=("weighted_score", "sum"), n_instances=("cid", "size"))
                .reset_index(), preserve_index=False).replace_schema_metadata()

        return self._combine(self.concepts().map_batches(
            weighted, batch_format="pyarrow"), ["cid"], combine)[0]

    def triples(self) -> Dataset:
        """Final KG edges: (subj, pred, obj) + scores + support + lineage,
        the eventualities grouped by (canonical item pair, relation,
        eventuality words).

        A combine over :meth:`eventualities`: per-block Arrow partials
        (:func:`triple_partials_fn`), then Arrow ``group_by`` in
        :meth:`_combine` (one task, or per bucket past its gate).  Exact in
        any order: every eventuality's frequency is 1.0, max and min do not
        depend on order, and lineage ranks are lexicographic.  With
        ``run_dir`` the partials are the side files the eventualities
        checkpoint teed, handed to the combine as paths; otherwise (no
        ``run_dir``, side files gone or written before the tee, or ranked
        differently from this pipeline's lineage) they are computed over
        the eventualities checkpoint read back with only the columns it
        needs, or over the in-memory stream.  With ``run_dir`` the result is
        checkpointed and returned as computed, in the column order of the
        stage read back (``pred`` last unless empty), and the manifest
        records the combine and where its partials came from
        (``partials_source``: ``"tee"`` or ``"scan"``)."""
        if "triples" in self._cache:
            return self._cache["triples"]
        ds = self._resumed("triples")
        if ds is not None:
            self._cache["triples"] = ds
            return ds

        events = self.eventualities()
        lineage_ref = self._lineage_ref()
        partials = None
        if self.run_dir:
            partials = mf.tee_files(self.run_dir, "eventualities")
            ranks = mf.load_manifest(self.run_dir, "eventualities")[
                "counters"].get("tee_lineage_ranks")
            if ranks != (lineage_ref is not None):
                partials = None
        source = "scan" if partials is None else "tee"
        if partials is None:
            if self.run_dir:
                events = rd.read_parquet(
                    mf.stage_dir(self.run_dir, "eventualities"),
                    columns=TRIPLE_EV_COLS)
            partials = events.map_batches(triple_partials_fn(lineage_ref),
                                          batch_format="pyarrow",
                                          batch_size=None)
        lin_type = pa.string() if lineage_ref is None else pa.int64()

        def bucket_combine(t: pa.Table) -> pa.Table:
            # Arrow-native final combine (single-pass hash aggregate, no
            # pandas).  ``use_threads=False``: each combine task is already
            # one CPU slot; letting Arrow fan out threads oversubscribes.
            if t.num_rows == 0:
                # typed empty: an empty group block would otherwise emit a
                # column-less table and diverge the stream schema
                return pa.table(
                    {"subj": pa.array([], pa.string()),
                     "pred": pa.array([], pa.string()),
                     "obj": pa.array([], pa.string()),
                     "support": pa.array([], pa.int64()),
                     "frequency": pa.array([], pa.float64()),
                     "plausibility": pa.array([], pa.float64()),
                     "typicality": pa.array([], pa.float64()),
                     "lineage": pa.array([], lin_type)}
                )
            g = t.group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
                [("support_p", "sum"), ("frequency_p", "sum"),
                 ("plausibility_p", "max"), ("typicality_p", "max"),
                 ("lineage_p", "min")]
            )
            renames = {"support_p_sum": "support", "frequency_p_sum": "frequency",
                       "plausibility_p_max": "plausibility",
                       "typicality_p_max": "typicality", "lineage_p_min": "lineage"}
            return g.rename_columns([renames.get(c, c) for c in g.column_names])

        def unpack(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            lin_col = batch.column("lineage")
            if lineage_ref is not None:
                # rank mode: restore the string from the broadcast sorted
                # array (one take kernel; array resolved once per worker)
                lin_col = pc.take(worker_cached(
                    "LA" + lineage_ref.hex(), lambda: ray.get(lineage_ref)),
                    lin_col)
            # vectorized lineage split (Arrow kernel, no per-row Python):
            # lineage = repo\tpath\tcommit\tsha, all four tab-free
            parts = pc.split_pattern(lin_col, pattern="\t")
            out = batch.drop_columns(["lineage"])
            for i, name in enumerate(("repo", "path", "commit",
                                      "content_sha256")):
                out = out.append_column(
                    name, pc.list_element(parts, i).combine_chunks()
                    if batch.num_rows else pa.array([], pa.string()))
            return out

        pred_last = bool(self.run_dir)

        def final(t: pa.Table) -> pa.Table:
            out = unpack(bucket_combine(t))
            # the read-back's order: hive partitions put pred last, while
            # an empty stage is one file of the typed empty table
            if pred_last and out.num_rows:
                out = out.select([c for c in out.column_names
                                  if c != "pred"] + ["pred"])
            return out

        # an empty corpus reaches no UDF (see eventualities): the combine
        # task runs ``final`` on a column-less table, giving the typed empty
        ds, counters = self._combine(partials, ["subj", "pred", "obj"], final)
        if self.run_dir:
            # the one-task combine's slices go to one write task: one file
            # per relation
            mf.checkpoint(
                ds, self.run_dir, "triples", self._fp("triples"),
                partition_cols=["pred"],
                counters={**counters, "partials_source": source},
                min_rows_per_file=(max(1, counters["partials_rows"])
                                   if counters["combine"] == "task" else None))
        self._cache["triples"] = ds
        return ds

    def concept_triples(self) -> Dataset:
        """Concept-level KG edges: (subj, pred, concept_obj, score, support).

        The reference's released KG carries both eventuality- and
        concept-level assertions (conceptualized_eventualities,
        conceptualizer.py:667-688; consumed preprocess.py:172-199).  Shape:
        eventuality occurrences (eid -> subj,pred) joined to concept
        instances (eid -> cid) via a hash join keyed on eid, then the same
        combine as triples (:meth:`_combine`)."""
        events = self.eventualities()
        if not self.run_dir:
            # in memory the stream is the memo join: run it once for both
            # sides of the join
            events = events.materialize()
        ev = events.map_batches(
            lambda b: b.select(["eid", "canon_a", "canon_b", "rel", "frequency"]),
            batch_format="pyarrow", batch_size=None,
        )
        def concept_obj(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            # Arrow list-join kernel == " ".join(words) per row, no Python
            col = b.column("concept_words")
            joined = (pc.binary_join(col, " ").cast(pa.string())
                      if b.num_rows else pa.array([], pa.string()))
            return pa.table({"eid": b.column("eid"), "concept_obj": joined,
                             "score": b.column("score")})

        conc = self.concepts(events).map_batches(concept_obj,
                                                 batch_format="pyarrow")
        from ..ops.relational import hash_join

        joined = hash_join(ev, conc, on="eid")

        def partials(batch: pa.Table) -> pa.Table:
            # map-side combine, like triple_partials_fn: one Arrow group_by
            # per block.  Scores sum as int64 partials, which are
            # associative, so the final score is bit-identical across any
            # block/batch partitioning (float partials would differ in the
            # LSB between parallelism levels).
            import numpy as np
            import pyarrow.compute as pc

            sp = np.rint(
                batch.column("score").to_numpy(zero_copy_only=False)
                * batch.column("frequency").to_numpy(zero_copy_only=False)
                * 1e6).astype(np.int64)
            g = pa.table({
                "subj": pc.binary_join_element_wise(
                    batch.column("canon_a"), batch.column("canon_b"), "-"),
                "pred": batch.column("rel"),
                "obj": batch.column("concept_obj"),
                "score_p": sp,
            }).group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
                [([], "count_all"), ("score_p", "sum")])
            return g.rename_columns(
                [{"count_all": "support_p", "score_p_sum": "score_p"}.get(c, c)
                 for c in g.column_names])

        def combine(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if t.num_rows == 0:
                return pa.table(
                    {"subj": pa.array([], pa.string()),
                     "pred": pa.array([], pa.string()),
                     "obj": pa.array([], pa.string()),
                     "support": pa.array([], pa.int64()),
                     "score": pa.array([], pa.float64())}
                )
            g = t.group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
                [("support_p", "sum"), ("score_p", "sum")]
            )
            score = pc.divide(
                pc.cast(g.column("score_p_sum"), pa.float64()), 1e6
            )  # back from fixed-point; same int64-sum -> float64 divide as before
            g = g.rename_columns(
                ["support" if c == "support_p_sum" else c for c in g.column_names]
            )
            return g.drop_columns(["score_p_sum"]).append_column("score", score)

        return self._combine(
            joined.map_batches(partials, batch_format="pyarrow"),
            ["subj", "pred", "obj"], combine)[0]

    def edge_features(self) -> Dataset:
        """SBERT-contract edge embeddings (T7): every (subj, pred, obj) edge
        text encoded by the embedder (model loaded once per worker
        process), feeding the mean-pool / ANN consumers — the reference's
        eventuality_SBERT_feature.json step
        (src/recommendation/preprocess.py:168-199) as a streaming stage."""
        from ..stages.embed import embed_batch

        return self.triples().map_batches(embed_batch, batch_format="pyarrow")

    def run_metrics(self) -> dict:
        """Per-stage metrics for the current run (north rule: lineage +
        metrics): stage row counts from manifests (checkpointed runs) or
        live counts, pattern/canonicalization cardinalities."""
        out: dict = {"source_path": self.source_path}
        if self.run_dir:
            for stage in ("scored", "patterns", "stats", "eventualities",
                          "triples"):
                m = mf.load_manifest(self.run_dir, stage)
                if m:
                    out[stage] = {"rows": m["rows"], "partitions": len(m["partitions"])}
                    if "tee_rows" in m:
                        out[stage]["tee_rows"] = m["tee_rows"]
                    if m["counters"]:
                        out[stage]["counters"] = m["counters"]
        if "patterns" in self._cache:
            out["n_patterns"] = len(self._cache["patterns"])
        if "canon" in self._cache:
            canon = self._cache["canon"]
            if isinstance(canon, dict):
                out["n_surfaces"] = len(canon)
                out["n_canonical_entities"] = len(set(canon.values()))
            else:  # labels Dataset (web-scale path): count non-identity rows
                out["n_merged_surfaces"] = canon.count()
        if self.run_dir:
            import json as _json

            path = os.path.join(self.run_dir, "metrics.json")
            with open(path, "w") as f:
                _json.dump(out, f, indent=1)
        return out


def build_kg(source_path: str, run_dir: str | None = None) -> KGPipeline:
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
    return KGPipeline(source_path, run_dir)


def shard_dir_name(src: str) -> str:
    """Checkpoint dir for one incremental shard, keyed by a content hash of
    the shard's source path — NOT its list position.  Inserting or
    reordering shards must not shift other shards' checkpoint dirs
    (positional keys would fingerprint-miss and rebuild every later shard —
    correct but defeats the incremental point)."""
    import hashlib

    tag = hashlib.sha256(os.path.abspath(src).encode()).hexdigest()[:16]
    return f"shard-{tag}"


def build_kg_incremental(shard_sources: list[str], run_dir: str) -> KGPipeline:
    """Incremental / sharded KG build: new corpus increments pay ONLY their
    own generation cost; the KG products stay exactly equal to a full
    rebuild over the union.

    Per shard, a sub-pipeline materializes the ``scored`` checkpoint under
    ``run_dir/shard{i}`` — an already-checkpointed shard (manifest
    fingerprint matching its source files) is skipped entirely, so adding
    shard k+1 to a k-shard run re-runs generation/critic for the NEW shard
    only.  The returned union pipeline reads the scored checkpoints
    directly (a multi-directory parquet scan) and computes pattern mining,
    canonicalization and triple aggregation over the FULL union — those are
    the corpus-global barriers (mining thresholds and the LSH canonical map
    depend on union-wide counts/surfaces), so recomputing them from the
    checkpoints is what EXACT equality with a monolithic rebuild requires;
    they are scan+shuffle passes, not model work.  The union's own stage
    fingerprints chain from the shard checkpoints' content identity, so a
    recomputed or added shard invalidates union products (and nothing else).

    Equality with the monolithic build is pytest-gated
    (``test_incremental_build_matches_full``)."""
    os.makedirs(run_dir, exist_ok=True)
    scored_dirs: list[str] = []
    for src in shard_sources:
        sub = os.path.join(run_dir, shard_dir_name(src))
        shard = build_kg(src, run_dir=sub)
        shard.scored()  # checkpoint if absent; resume-skip if fingerprint matches
        scored_dirs.append(mf.stage_dir(sub, "scored"))
    # canonical (sorted) shard order: the union's identity, fingerprint and
    # read order must not depend on the caller's list order — downstream
    # stages are partition-order invariant (pytest-gated), so a reordered
    # shard list resumes every union product instead of rebuilding it
    union = KGPipeline("union://" + "|".join(sorted(shard_sources)),
                       os.path.join(run_dir, "union"),
                       scored_sources=tuple(sorted(scored_dirs)))
    os.makedirs(union.run_dir, exist_ok=True)
    return union
