"""Resume over checkpoints: a complete stage is read back before any plan,
memo or broadcast is built, and the ``stats`` stage spares a partial resume
the stats pass."""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pytest

from folkscope_ray.pipelines.kg import KGPipeline, build_kg
from folkscope_ray.state import manifest as mf


def _assert_same(got, want):
    """Equal as row multisets, every column compared by its exact repr
    (float repr round-trips, so equal strings are equal bits)."""
    assert list(got.columns) == list(want.columns)
    cols = list(want.columns)
    got, want = got.astype(str), want.astype(str)
    assert got.sort_values(cols).reset_index(drop=True).equals(
        want.sort_values(cols).reset_index(drop=True))


@pytest.fixture(scope="module")
def complete_run(corpus_200, tmp_path_factory):
    """A run_dir with every stage complete, and the products it holds."""
    run_dir = str(tmp_path_factory.mktemp("resume") / "run")
    kg = build_kg(corpus_200, run_dir=run_dir)
    products = {
        "triples": kg.triples().to_pandas(),
        "events": kg.eventualities().to_pandas(),
        "canon": kg.canonical_map(),
        "patterns": sorted(p.key + f"#{p.support}" for p in kg.patterns()),
    }
    return run_dir, products


def _forbid(monkeypatch, *names):
    def boom(*_a, **_k):
        raise AssertionError("resume recomputed a checkpointed product")

    for name in names:
        monkeypatch.setattr(KGPipeline, name, boom)


def test_complete_resume_runs_no_stats_pass_or_memo(complete_run, corpus_200,
                                                     monkeypatch):
    run_dir, want = complete_run
    manifests = {f: os.path.getmtime(os.path.join(run_dir, f))
                 for f in os.listdir(run_dir) if f.endswith(mf.MANIFEST_SUFFIX)}
    assert "stats.manifest.json" in manifests
    _forbid(monkeypatch, "_stats_pass", "_full_evs_ref")

    kg = build_kg(corpus_200, run_dir=run_dir)
    assert sorted(p.key + f"#{p.support}" for p in kg.patterns()) \
        == want["patterns"]
    assert kg.canonical_map() == want["canon"]
    _assert_same(kg.triples().to_pandas(), want["triples"])
    _assert_same(kg.eventualities().to_pandas(), want["events"])
    assert {f: os.path.getmtime(os.path.join(run_dir, f))
            for f in manifests} == manifests


def test_partial_resume_keeps_rank_lineage(complete_run, corpus_200,
                                           tmp_path, monkeypatch):
    """patterns + stats complete, triples + eventualities gone: the rebuild
    reads the stats checkpoint (no stats pass), takes the int64 rank
    lineage path, and reproduces both products bit for bit."""
    src_run, want = complete_run
    run_dir = str(tmp_path / "run")
    shutil.copytree(src_run, run_dir)
    for stage in ("triples", "eventualities"):
        shutil.rmtree(mf.stage_dir(run_dir, stage))
        os.remove(os.path.join(run_dir, stage + mf.MANIFEST_SUFFIX))
    _forbid(monkeypatch, "_stats_pass")

    kg = build_kg(corpus_200, run_dir=run_dir)
    got_t = kg.triples().to_pandas()
    assert kg._cache["lineage_sorted"] is not None
    assert kg._cache["assertions_set"] is not None  # broadcast memo, not
    # the per-worker fallback
    _assert_same(got_t, want["triples"])
    _assert_same(kg.eventualities().to_pandas(), want["events"])


def test_stats_checkpoint_marks_overflowed_gates(corpus_200, tmp_path,
                                                 monkeypatch):
    """A gate forced to 0 leaves its product out of the stats table and
    marks it; the resumed pipeline takes the same overflow path."""
    monkeypatch.setattr("folkscope_ray.pipelines.kg.LINEAGE_BROADCAST_MAX", 0)
    run_dir = str(tmp_path / "run")
    kg = build_kg(corpus_200, run_dir=run_dir)
    kg.patterns()
    counters = mf.load_manifest(run_dir, "stats")["counters"]
    assert (counters["canon_overflow"], counters["lineage_overflow"],
            counters["assertions_overflow"]) == (False, True, False)
    _forbid(monkeypatch, "_stats_pass")
    again = build_kg(corpus_200, run_dir=run_dir)
    assert again.canonical_map() == kg.canonical_map()
    assert again._cache["lineage_sorted"] is None
    assert again._cache["assertions_set"] == kg._cache["assertions_set"]


def test_checkpoint_tee_hands_block_results_to_the_driver(tmp_path):
    """A Tee runs on every block the checkpoint writes and its results
    reach the driver, one table per write task, together covering every
    written row; the stage is unchanged by it.  A complete stage writes
    nothing and leaves ``out`` None.  ``min_rows_per_file`` at the row
    count bundles every block into one write task, one file."""
    import ray.data as rd

    def counts(b: pa.Table) -> pa.Table:
        return b.group_by("k").aggregate([([], "count_all")])

    parts = [pa.table({"k": pa.array([i % 3 for i in range(j, j + 25)])})
             for j in range(0, 100, 25)]
    whole = pa.concat_tables(parts)
    run_dir = str(tmp_path)
    tee = mf.Tee(counts)
    m = mf.checkpoint(rd.from_arrow(parts), run_dir, "s", "fp", tee=tee)
    assert len(tee.out) == len(m["partitions"]) == 4
    assert m["rows"] == 100 and m["counters"]["write_s"] > 0
    merged = pa.concat_tables(tee.out).group_by("k").aggregate(
        [("count_all", "sum")]).sort_by("k")
    assert merged.column("count_all_sum").to_pylist() == \
        counts(whole).sort_by("k").column("count_all").to_pylist()
    back = rd.read_parquet(mf.stage_dir(run_dir, "s")).to_arrow_refs()
    import ray

    assert sorted(pa.concat_tables(ray.get(back)).column("k").to_pylist()) \
        == sorted(whole.column("k").to_pylist())

    again = mf.Tee(counts)
    assert mf.checkpoint(rd.from_arrow(parts), run_dir, "s", "fp",
                         tee=again) == m
    assert again.out is None

    one = mf.checkpoint(rd.from_arrow(parts), run_dir, "one", "fp",
                        min_rows_per_file=100)
    assert len(one["partitions"]) == 1 and one["rows"] == 100


def test_sweep_spares_tmp_dirs_of_live_writers(tmp_path):
    """The stale-tmp sweep removes a tmp dir whose writer is gone (no lock
    file, or a lock nobody holds) and spares one whose writer still holds
    its flock, however old the dir is."""
    import fcntl

    run_dir = str(tmp_path)
    dead = os.path.join(run_dir, ".scored-tmp-dead")
    unlocked = os.path.join(run_dir, ".scored-tmp-unlocked")
    live = os.path.join(run_dir, ".scored-tmp-live")
    for d in (dead, unlocked, live):
        os.makedirs(d)
        os.utime(d, (0, 0))
    open(unlocked + ".lock", "w").close()
    with open(live + ".lock", "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        m = mf.checkpoint(pa.table({"a": [1, 2]}), run_dir, "scored", "fp1")
        assert m["rows"] == 2 and mf.stage_complete(run_dir, "scored", "fp1")
        assert not os.path.exists(dead)
        assert not os.path.exists(unlocked)
        assert not os.path.exists(unlocked + ".lock")
        assert os.path.isdir(live)
    # the checkpoint's own lock file is gone with its tmp dir
    assert sorted(n for n in os.listdir(run_dir) if n.startswith(".")) == [
        ".scored-tmp-live", ".scored-tmp-live.lock"]
