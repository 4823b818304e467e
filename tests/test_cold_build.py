"""A cold build pays each driver barrier once: the scored read, model
stages and write run as one fused operator that tees the stats partials,
so the stats pass runs no Ray Data job and no per-kind count/to_pandas
under its gates; each distinct assertion is matched once for both
products, VF2 runs once per parse structure, the eventualities checkpoint
tees the triple partials, the triples combine runs in one task while its
partials fit, and the manifests record the barriers' timings."""

from __future__ import annotations

import os
import shutil
from collections import Counter
from types import SimpleNamespace

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from ray.data import Dataset
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from folkscope_ray.patterns import Pattern, match_row
from folkscope_ray.pipelines.kg import (TRIPLE_EV_COLS, KGPipeline, build_kg,
                                        triple_partials_fn)
from folkscope_ray.state import manifest as mf
from folkscope_ray.stages import match as match_mod


@pytest.fixture(scope="module")
def hooked_build(corpus_200, tmp_path_factory):
    """One checkpointed cold build of the 200-file corpus with hooks on the
    distinct match, on the driver's Dataset consumption calls, on every
    Ray Data job, on the reads of the ``scored`` stage and on the parquet
    reads ``triples()`` makes itself (not inside the ``eventualities()`` it
    calls).  ``stats_calls`` lists what the stats pass consumed: Dataset
    calls, jobs and ``scored`` reads."""
    sent: list[str] = []
    in_stats: list[bool] = [False]
    stats_calls: list[str] = []
    groupby_calls: list[tuple] = []
    in_product: list[str] = []
    triples_reads: list[str] = []
    jobs: list[str] = []
    scored_reads: list[str] = []

    class CountingChunk:
        def __init__(self, fn):
            self.fn = fn

        def remote(self, pats, items):
            sent.extend(items)
            return self.fn.remote(pats, items)

    def spy(name):
        orig = getattr(Dataset, name)

        def wrapped(self, *a, **k):
            if in_stats[0]:
                stats_calls.append(name)
            return orig(self, *a, **k)
        return wrapped

    orig_groupby = Dataset.groupby

    def groupby(self, *a, **k):
        groupby_calls.append(a)
        return orig_groupby(self, *a, **k)

    orig_read = rd.read_parquet

    def read_parquet(paths, *a, **k):
        if in_product[-1:] == ["triples"]:
            triples_reads.append(paths)
        if paths == mf.stage_dir(run_dir, "scored"):
            scored_reads.append(paths)
            if in_stats[0]:
                stats_calls.append("read_parquet(scored)")
        return orig_read(paths, *a, **k)

    orig_execute = StreamingExecutor.execute

    def execute(self, dag, *a, **k):
        jobs.append(dag.name)
        if in_stats[0]:
            stats_calls.append(f"job {dag.name}")
        return orig_execute(self, dag, *a, **k)

    def tracked(name):
        orig = getattr(KGPipeline, name)

        def wrapped(self, *a, **k):
            in_product.append(name)
            try:
                return orig(self, *a, **k)
            finally:
                in_product.pop()
        return wrapped

    orig_pass = KGPipeline._stats_pass

    def stats_pass(self):
        in_stats[0] = True
        try:
            return orig_pass(self)
        finally:
            in_stats[0] = False

    run_dir = str(tmp_path_factory.mktemp("cold") / "run")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(match_mod, "match_events_chunk",
                   CountingChunk(match_mod.match_events_chunk))
        mp.setattr(KGPipeline, "_stats_pass", stats_pass)
        for name in ("count", "to_pandas"):
            mp.setattr(Dataset, name, spy(name))
        mp.setattr(Dataset, "groupby", groupby)
        mp.setattr(rd, "read_parquet", read_parquet)
        mp.setattr(StreamingExecutor, "execute", execute)
        for name in ("triples", "eventualities"):
            mp.setattr(KGPipeline, name, tracked(name))
        kg = build_kg(corpus_200, run_dir=run_dir)
        kg.scored()
        kg.patterns()
        kg.triples().materialize()
        kg.eventualities().materialize()
    return SimpleNamespace(kg=kg, run_dir=run_dir, sent=sent,
                           stats_calls=stats_calls, groupby_calls=groupby_calls,
                           triples_reads=triples_reads, jobs=jobs,
                           scored_reads=scored_reads)


def test_each_distinct_assertion_matched_once(hooked_build):
    kg = hooked_build.kg
    distinct = kg._cache["assertions_set"]
    assert distinct and len(set(distinct)) == len(distinct)
    assert Counter(hooked_build.sent) == Counter(distinct)  # once each
    # one memo, read by both products
    assert kg._full_evs_ref() is not None


def test_cold_build_runs_four_jobs_and_no_stats_scan(hooked_build):
    """The scored job is one fused read->ingest->fan_out->write operator
    that tees the stats partials, so the stats pass reads no ``scored``
    stage, consumes no Dataset and runs no job: the cold build runs 4 Ray
    Data jobs (scored, eventualities and triples writes, eventualities
    read back), not 5.  The one ``scored`` read is the read-back the
    eventualities consume."""
    assert hooked_build.stats_calls == []
    assert hooked_build.jobs[0] == (
        "ReadParquet->MapBatches(ingest_batch)->MapBatches(fan_out)->Write")
    assert len(hooked_build.jobs) == 4, hooked_build.jobs
    assert len(hooked_build.scored_reads) == 1


def test_manifests_record_barrier_timings(hooked_build):
    kg, run_dir = hooked_build.kg, hooked_build.run_dir
    stats = mf.load_manifest(run_dir, "stats")["counters"]
    for key in ("scan_s", "parse_s", "mine_s", "canon_s"):
        assert isinstance(stats[key], float) and stats[key] >= 0, key
    # every gate was decided by the rows of the partials the scored write
    # teed, as its manifest records them
    assert stats["partials_source"] == "tee"
    bound = stats["assertions_gate_rows"]
    assert bound > 0
    assert bound == mf.load_manifest(run_dir, "scored")["tee_rows"]
    assert stats["canon_gate_rows"] == stats["lineage_gate_rows"] == bound
    assert (stats["canon_overflow"], stats["lineage_overflow"],
            stats["assertions_overflow"]) == (False, False, False)

    ev_manifest = mf.load_manifest(run_dir, "eventualities")
    ev = ev_manifest["counters"]
    assert isinstance(ev["memo_s"], float) and ev["memo_s"] > 0
    assert ev["n_distinct_matched"] == len(kg._cache["assertions_set"])
    assert 0 < ev["n_match_structures"] < ev["n_distinct_matched"]
    assert ev["tee_lineage_ranks"] is True
    # every triple partial row groups at least one eventuality
    assert 0 < ev_manifest["tee_rows"] <= ev_manifest["rows"]
    triples = mf.load_manifest(run_dir, "triples")["counters"]
    assert triples["partials_source"] == "tee"
    assert triples["partials_rows"] == ev_manifest["tee_rows"]
    for counters in (mf.load_manifest(run_dir, "scored")["counters"], ev,
                     triples):
        assert isinstance(counters["write_s"], float)
        assert counters["write_s"] > 0

    metrics = kg.run_metrics()
    assert metrics["stats"]["counters"]["partials_source"] == "tee"
    assert metrics["scored"]["tee_rows"] == bound
    assert metrics["eventualities"]["tee_rows"] == ev_manifest["tee_rows"]


def _by_rel(patterns):
    by_rel: dict[str, list] = {}
    for p in sorted(patterns, key=Pattern.priority):
        by_rel.setdefault(p.rel, []).append(p)
    return by_rel


def test_structure_memo_equals_plain_match_row(hooked_build):
    """match_row with one shared structure memo equals match_row without it
    on every distinct assertion of the corpus."""
    from folkscope_ray.stages.parse import (
        cached_parse,
        extract_mentions,
        ner_tags,
    )

    kg = hooked_build.kg
    by_rel = _by_rel(kg.patterns())
    memo: dict = {}
    n_checked = 0
    for key in kg._cache["assertions_set"]:
        rel, text = key.split("\x1f", 1)
        hit = cached_parse(rel, text)
        if rel not in by_rel or hit[0] is None:
            continue
        t, l, p, d, _skel = hit
        ners = ner_tags(t, p)
        mentions = extract_mentions(t, ners)
        plain = match_row(by_rel[rel], rel, t, l, p, d, ners=ners,
                          mentions=mentions)
        memoized = match_row(by_rel[rel], rel, t, l, p, d, ners=ners,
                             mentions=mentions, memo=memo)
        assert memoized == plain, key
        n_checked += 1
    assert n_checked > 0
    assert len(memo) < n_checked  # structures really are shared


def test_structure_memo_keys_on_clause_separator_position():
    """Two parses with the same tags and deps but a clause separator in a
    different position: outside the match the pattern matches, inside it the
    match straddles a clause and is rejected.  A shared memo must keep them
    apart."""
    from folkscope_ray.patterns import decode_pattern, pattern_of_parsed
    from folkscope_ray.stages.parse import parse_assertion
    from folkscope_ray.lexicon import assertion_text

    toks, lems, pos, deps = parse_assertion(
        "usedFor", assertion_text("usedFor", "a", "b", 0))
    p = decode_pattern(pattern_of_parsed("usedFor", pos, deps), 10)
    pos2, lems2 = pos + ["."], lems + ["."]
    outside = toks + ["."]                      # separator after the match
    inside = [toks[0], ","] + toks[2:] + ["x"]  # separator inside the match

    memo: dict = {}
    want_out = match_row([p], "usedFor", outside, lems2, pos2, deps)
    want_in = match_row([p], "usedFor", inside, lems2, pos2, deps)
    assert len(want_out) == 1 and want_in == []
    assert match_row([p], "usedFor", outside, lems2, pos2, deps,
                     memo=memo) == want_out
    assert match_row([p], "usedFor", inside, lems2, pos2, deps,
                     memo=memo) == want_in
    assert len(memo) == 2


def test_stats_pass_past_the_bound_pulls_the_aggregate(hooked_build, corpus_200,
                                                       monkeypatch):
    """A gate just under the partials' row bound (which counts every kind's
    rows) but above the distinct assertions: the distinct aggregation runs
    on the cluster and its result is pulled, with the same patterns and
    distinct keys as the driver-pull path."""
    kg, run_dir = hooked_build.kg, hooked_build.run_dir
    distinct = kg._cache["assertions_set"]
    bound = mf.load_manifest(run_dir, "stats")["counters"]["assertions_gate_rows"]

    monkeypatch.setattr("folkscope_ray.pipelines.kg.EVS_BROADCAST_MAX",
                        bound - 1)
    mid = build_kg(corpus_200)
    assert sorted(p.key + f"#{p.support}" for p in mid.patterns()) \
        == sorted(p.key + f"#{p.support}" for p in kg.patterns())
    assert mid._cache["assertions_set"] == distinct


def test_triples_combine_in_one_task_below_the_gate(hooked_build):
    """Below ``NARROW_FINAL_MAX`` the triples combine is one task: the cold
    build calls no ``Dataset.groupby`` (no Sort shuffle), the manifest
    records the path, the partials' bound and the combine's time, and the
    stage holds one parquet file per relation."""
    from folkscope_ray.ops import relational

    kg, run_dir = hooked_build.kg, hooked_build.run_dir
    assert hooked_build.groupby_calls == []
    counters = mf.load_manifest(run_dir, "triples")["counters"]
    assert counters["combine"] == "task"
    assert 0 < counters["partials_rows"] <= relational.NARROW_FINAL_MAX
    assert isinstance(counters["combine_s"], float) and counters["combine_s"] > 0
    # every triple is at least one partial row
    assert counters["partials_rows"] >= kg.triples().count()
    stage = mf.stage_dir(run_dir, "triples")
    preds = sorted(d for d in os.listdir(stage) if d.startswith("pred="))
    assert len(preds) > 1
    for d in preds:
        files = [f for f in os.listdir(os.path.join(stage, d))
                 if f.endswith(".parquet")]
        assert len(files) == 1, (d, files)


def _sorted_triples(ds):
    return (ds.to_pandas().sort_values(["subj", "pred", "obj"])
            .reset_index(drop=True))


def _copy_without(run_dir: str, tmp_path, *stages: str) -> str:
    """A copy of ``run_dir`` with ``stages`` (data and manifest) removed."""
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    for stage in stages:
        shutil.rmtree(mf.stage_dir(copy, stage))
        os.remove(os.path.join(copy, stage + mf.MANIFEST_SUFFIX))
    return copy


def test_triples_shuffle_combine_twin_checkpointed(hooked_build, corpus_200,
                                                   monkeypatch, tmp_path):
    """With ``NARROW_FINAL_MAX`` patched to 0 the checkpointed triples take
    the Sort-shuffle combine and equal the one-task build on every column.
    The twin resumes a copy of the cold build's run_dir with the triples
    stage and the eventualities side files removed, so it redoes the
    combine alone over partials of the eventualities stage read back."""
    from kg_expect import assert_triples_group_eventualities

    kg, run_dir = hooked_build.kg, hooked_build.run_dir
    want = _sorted_triples(kg.triples())
    copy = _copy_without(run_dir, tmp_path, "triples")
    shutil.rmtree(mf.side_dir(mf.stage_dir(copy, "eventualities")))

    monkeypatch.setattr("folkscope_ray.ops.relational.NARROW_FINAL_MAX", 0)
    forced = build_kg(corpus_200, run_dir=copy)
    got = _sorted_triples(forced.triples())
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want)
    counters = mf.load_manifest(copy, "triples")["counters"]
    assert counters["combine"] == "shuffle"
    assert counters["partials_source"] == "scan"
    # one triple_partials_fn table per block of the stage's read back (the
    # tee build's: one per block each write task got, a different layout)
    events = rd.read_parquet(mf.stage_dir(copy, "eventualities"),
                             columns=TRIPLE_EV_COLS)
    partials = triple_partials_fn(forced._lineage_ref())
    assert counters["partials_rows"] == sum(
        partials(b).num_rows for b in events.iter_batches(
            batch_size=None, batch_format="pyarrow"))
    assert_triples_group_eventualities(forced)


def test_triples_shuffle_combine_twin_in_memory(kg_200, monkeypatch):
    """In memory the one-task combine returns its result as several blocks
    (downstream maps keep their parallelism), and the Sort-shuffle combine
    forced by ``NARROW_FINAL_MAX`` = 0 equals it on every column.  The twin
    shares the default build's upstream products and redoes the combine."""
    from kg_expect import assert_triples_group_eventualities

    default = kg_200.triples()
    assert default.num_blocks() > 1
    want = _sorted_triples(default)

    monkeypatch.setattr("folkscope_ray.ops.relational.NARROW_FINAL_MAX", 0)
    forced = KGPipeline(kg_200.source_path)
    forced._cache.update({k: v for k, v in kg_200._cache.items()
                          if k != "triples"})
    got = _sorted_triples(forced.triples())
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want)
    assert_triples_group_eventualities(forced)


def test_triples_read_no_stage_they_follow(hooked_build):
    """The cold build's triples come from the side files the
    eventualities write teed, read inside the combine task: ``triples()``
    reads neither the eventualities stage back nor the triples stage it
    wrote, and its product has the column order and types of that stage
    read back (``pred`` last)."""
    kg, run_dir = hooked_build.kg, hooked_build.run_dir
    assert hooked_build.triples_reads == []
    counters = mf.load_manifest(run_dir, "triples")["counters"]
    assert counters["partials_source"] == "tee"
    files, rows = mf.tee_files(run_dir, "eventualities")
    assert files and counters["partials_rows"] == rows == sum(
        pq.read_metadata(f).num_rows for f in files)
    back = rd.read_parquet(mf.stage_dir(run_dir, "triples"))
    assert kg.triples().schema().names[-1] == "pred"
    assert kg.triples().schema().base_schema.equals(back.schema().base_schema)
    pd.testing.assert_frame_equal(_sorted_triples(kg.triples()),
                                  _sorted_triples(back))


def test_triples_past_the_gate_shuffle_the_side_files(hooked_build,
                                                      corpus_200,
                                                      monkeypatch, tmp_path):
    """With ``NARROW_FINAL_MAX`` just under the partials' rows, the side
    files the eventualities write teed feed the Sort-shuffle combine (a
    Dataset over them) on a copy of the cold run_dir without its triples
    stage, and the triples equal the one-task build on every column."""
    kg, run_dir = hooked_build.kg, hooked_build.run_dir
    rows = mf.load_manifest(run_dir, "eventualities")["tee_rows"]
    monkeypatch.setattr("folkscope_ray.ops.relational.NARROW_FINAL_MAX",
                        rows - 1)
    copy = _copy_without(run_dir, tmp_path, "triples")
    shuffled = build_kg(corpus_200, run_dir=copy)
    got = _sorted_triples(shuffled.triples())
    counters = mf.load_manifest(copy, "triples")["counters"]
    assert counters["partials_source"] == "tee"
    assert counters["combine"] == "shuffle"
    assert counters["partials_rows"] == rows
    assert list(shuffled.triples().schema().names) == list(
        kg.triples().schema().names)
    pd.testing.assert_frame_equal(got, _sorted_triples(kg.triples()))


def test_stats_without_side_files_scan_the_stage(hooked_build, corpus_200,
                                                 tmp_path):
    """Resuming a copy of the cold run_dir whose complete ``scored`` stage
    lost its side files (as one written before the tee would have none)
    recomputes the stats pass by scanning the stage, and its ``stats`` and
    ``patterns`` parquet are byte-identical to the tee path's."""
    run_dir = hooked_build.run_dir
    copy = _copy_without(run_dir, tmp_path, "patterns", "stats")
    shutil.rmtree(mf.side_dir(mf.stage_dir(copy, "scored")))
    assert mf.tee_files(copy, "scored") is None
    build_kg(corpus_200, run_dir=copy).patterns()
    assert mf.load_manifest(copy, "stats")["counters"][
        "partials_source"] == "scan"
    for stage in ("stats", "patterns"):
        files = sorted(os.listdir(mf.stage_dir(run_dir, stage)))
        assert files == sorted(os.listdir(mf.stage_dir(copy, stage)))
        for f in files:
            with open(os.path.join(mf.stage_dir(run_dir, stage), f), "rb") as a, \
                    open(os.path.join(mf.stage_dir(copy, stage), f), "rb") as b:
                assert a.read() == b.read(), (stage, f)


def test_scored_job_is_one_fused_operator(corpus_200, tmp_path):
    """On a source with a parquet file per CPU (4 files, 4 CPUs) the read
    takes whole files, so Ray fuses it with the model stages and the
    checkpoint write: the scored job is one operator, with no
    ``SplitBlocks``."""
    assert len(mf.parquet_files(corpus_200)) == 4
    ds = build_kg(corpus_200).assertions()
    mf.checkpoint(ds, str(tmp_path), "scored", "fp")
    stats = ds.stats()
    assert ("ReadParquet->MapBatches(ingest_batch)->MapBatches(fan_out)"
            "->Write") in stats
    assert "SplitBlocks" not in stats


def test_files_read_blocks_follow_the_file_count(corpus_200, tmp_path,
                                                 monkeypatch):
    """A 1-file source is split to at least one block per CPU; a source
    with more files than 2 × CPUs gets 2 × CPUs read tasks, not one per
    file."""
    from folkscope_ray.pipelines.kg import _cpus

    table = pq.read_table(corpus_200)
    one = str(tmp_path / "one.parquet")
    pq.write_table(table.slice(0, 60), one)
    assert build_kg(one).files().materialize().num_blocks() >= _cpus()

    many = tmp_path / "many"
    many.mkdir()
    n = 3 * _cpus()
    for i in range(n):
        pq.write_table(table.slice(i * 5, 5), str(many / f"f{i:03d}.parquet"))
    asked: list[int] = []
    orig = rd.read_parquet

    def read_parquet(path, **k):
        asked.append(k["override_num_blocks"])
        return orig(path, **k)

    monkeypatch.setattr(rd, "read_parquet", read_parquet)
    files = build_kg(str(many)).files().materialize()
    assert asked == [2 * _cpus()]
    assert files.num_blocks() <= 2 * _cpus() < n
    assert files.count() == 5 * n
