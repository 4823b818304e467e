"""A cold build pays each driver barrier once: the stats scan is one Ray Data
job with no per-kind count/to_pandas under its gates, each distinct
assertion is matched once for both products, VF2 runs once per parse
structure, the eventualities checkpoint tees the triple partials, the
triples combine runs in one task while its partials fit, and the manifests
record the barriers' timings."""

from __future__ import annotations

import os
from collections import Counter

import pandas as pd
import pytest
import ray.data as rd
from ray.data import Dataset

from folkscope_ray.patterns import Pattern, match_row
from folkscope_ray.pipelines.kg import KGPipeline, build_kg
from folkscope_ray.state import manifest as mf
from folkscope_ray.stages import match as match_mod


@pytest.fixture(scope="module")
def hooked_build(corpus_200, tmp_path_factory):
    """One checkpointed cold build of the 200-file corpus with hooks on the
    distinct match, on the driver's Dataset consumption calls and on the
    parquet reads ``triples()`` makes itself (not inside the
    ``eventualities()`` it calls)."""
    sent: list[str] = []
    in_stats: list[bool] = [False]
    stats_calls: list[str] = []
    groupby_calls: list[tuple] = []
    in_product: list[str] = []
    triples_reads: list[str] = []

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
        return orig_read(paths, *a, **k)

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
        for name in ("triples", "eventualities"):
            mp.setattr(KGPipeline, name, tracked(name))
        kg = build_kg(corpus_200, run_dir=run_dir)
        kg.scored()
        kg.patterns()
        kg.triples().materialize()
        kg.eventualities().materialize()
    return kg, run_dir, sent, stats_calls, groupby_calls, triples_reads


def test_each_distinct_assertion_matched_once(hooked_build):
    kg, _run_dir, sent, stats_calls, _groupby, _reads = hooked_build
    distinct = kg._cache["assertions_set"]
    assert distinct and len(set(distinct)) == len(distinct)
    assert Counter(sent) == Counter(distinct)  # once each, across chunks
    # one memo, read by both products
    assert kg._full_evs_ref() is not None
    # under every gate the stats pass consumes no Dataset on the driver
    # beyond its one materialized scan
    assert stats_calls == []


def test_manifests_record_barrier_timings(hooked_build):
    kg, run_dir, _sent, _calls, _groupby, _reads = hooked_build
    stats = mf.load_manifest(run_dir, "stats")["counters"]
    for key in ("scan_s", "parse_s", "mine_s", "canon_s"):
        assert isinstance(stats[key], float) and stats[key] >= 0, key
    # every gate was decided by the partials' block-metadata row count
    bound = stats["assertions_gate_rows"]
    assert bound > 0
    assert stats["canon_gate_rows"] == stats["lineage_gate_rows"] == bound
    assert (stats["canon_overflow"], stats["lineage_overflow"],
            stats["assertions_overflow"]) == (False, False, False)

    ev = mf.load_manifest(run_dir, "eventualities")["counters"]
    assert isinstance(ev["memo_s"], float) and ev["memo_s"] > 0
    assert ev["n_distinct_matched"] == len(kg._cache["assertions_set"])
    assert 0 < ev["n_match_structures"] < ev["n_distinct_matched"]
    # the tee was decided by scored rows x the memo's largest per-key count
    assert ev["tee_rows_bound"] == (kg.scored().count()
                                    * kg._cache["memo_max_n"])
    assert ev["tee_rows_bound"] >= mf.load_manifest(
        run_dir, "eventualities")["rows"]
    triples = mf.load_manifest(run_dir, "triples")["counters"]
    assert triples["partials_source"] == "tee"
    assert triples["partials_rows"] <= ev["tee_rows_bound"]
    for counters in (ev, triples):
        assert isinstance(counters["write_s"], float)
        assert counters["write_s"] > 0


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

    kg, _run_dir, _sent, _calls, _groupby, _reads = hooked_build
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
    kg, run_dir, _sent, _calls, _groupby, _reads = hooked_build
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

    kg, run_dir, _sent, _calls, groupby_calls, _reads = hooked_build
    assert groupby_calls == []
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


def test_triples_shuffle_combine_twin_checkpointed(hooked_build, corpus_200,
                                                   monkeypatch, tmp_path):
    """With ``NARROW_FINAL_MAX`` patched to 0 the checkpointed triples take
    the Sort-shuffle combine and equal the one-task build on every column.
    The twin resumes a copy of the cold build's run_dir with only the
    triples stage removed, so it redoes the combine alone."""
    import shutil

    from kg_expect import assert_triples_group_eventualities

    kg, run_dir, _sent, _calls, _groupby, _reads = hooked_build
    want = _sorted_triples(kg.triples())
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    shutil.rmtree(mf.stage_dir(copy, "triples"))
    os.remove(os.path.join(copy, "triples" + mf.MANIFEST_SUFFIX))

    monkeypatch.setattr("folkscope_ray.ops.relational.NARROW_FINAL_MAX", 0)
    forced = build_kg(corpus_200, run_dir=copy)
    got = _sorted_triples(forced.triples())
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want)
    counters = mf.load_manifest(copy, "triples")["counters"]
    assert counters["combine"] == "shuffle"
    assert counters["partials_source"] == "scan"
    assert counters["partials_rows"] == mf.load_manifest(
        run_dir, "triples")["counters"]["partials_rows"]
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
    """The cold build's triples come from the partials the eventualities
    write teed: ``triples()`` reads neither the eventualities stage back
    nor the triples stage it wrote, and its product has the column order
    and types of that stage read back (``pred`` last)."""
    kg, run_dir, _sent, _calls, _groupby, triples_reads = hooked_build
    assert kg._cache["memo_max_n"] >= 1
    assert triples_reads == []
    counters = mf.load_manifest(run_dir, "triples")["counters"]
    assert counters["partials_source"] == "tee"
    assert "triple_partials" not in kg._cache  # released once combined
    back = rd.read_parquet(mf.stage_dir(run_dir, "triples"))
    assert kg.triples().schema().names[-1] == "pred"
    assert kg.triples().schema().base_schema.equals(back.schema().base_schema)
    pd.testing.assert_frame_equal(_sorted_triples(kg.triples()),
                                  _sorted_triples(back))


def test_eventualities_past_the_tee_bound_scan_the_stage(hooked_build,
                                                         corpus_200,
                                                         monkeypatch,
                                                         tmp_path):
    """With ``NARROW_FINAL_MAX`` just under the tee's bound the
    eventualities write tees nothing: the triples scan the stage read
    back (still one combine task, the partials are fewer than the bound)
    and equal the teed build on every column."""
    kg, run_dir, _sent, _calls, _groupby, _reads = hooked_build
    bound = mf.load_manifest(run_dir, "eventualities")["counters"][
        "tee_rows_bound"]
    monkeypatch.setattr("folkscope_ray.ops.relational.NARROW_FINAL_MAX",
                        bound - 1)
    run2 = str(tmp_path / "run")
    scanned = build_kg(corpus_200, run_dir=run2)
    got = _sorted_triples(scanned.triples())
    counters = mf.load_manifest(run2, "triples")["counters"]
    assert counters["partials_source"] == "scan"
    assert counters["combine"] == "task"
    assert mf.load_manifest(run2, "eventualities")["counters"][
        "tee_rows_bound"] == bound
    assert list(scanned.triples().schema().names) == list(
        kg.triples().schema().names)
    pd.testing.assert_frame_equal(got, _sorted_triples(kg.triples()))
