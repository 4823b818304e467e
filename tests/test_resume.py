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


def test_checkpoint_tee_writes_side_files_beside_the_stage(tmp_path):
    """A Tee runs on every block the checkpoint writes and each write task
    writes its results as one side file in ``<stage>.tee``, together
    covering every written row; the manifest records their rows and the
    stage (its read and its partitions) holds the data only.  A complete
    stage writes nothing.  ``min_rows_per_file`` at the row count bundles
    every block into one write task, one file.  The Tee has one mode: its
    function, no driver-held results."""
    import dataclasses

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    assert [f.name for f in dataclasses.fields(mf.Tee)] == ["fn"]
    assert "on_write_complete" not in vars(mf.CheckpointSink)

    def counts(b: pa.Table) -> pa.Table:
        return b.group_by("k").aggregate([([], "count_all")])

    parts = [pa.table({"k": pa.array([i % 3 for i in range(j, j + 25)])})
             for j in range(0, 100, 25)]
    whole = pa.concat_tables(parts)
    run_dir = str(tmp_path)
    m = mf.checkpoint(rd.from_arrow(parts), run_dir, "s", "fp",
                      tee=mf.Tee(counts))
    files, rows = mf.tee_files(run_dir, "s")
    assert len(files) == len(m["partitions"]) == 4
    assert os.path.dirname(files[0]) == mf.side_dir(mf.stage_dir(run_dir, "s"))
    assert m["rows"] == 100 and m["counters"]["write_s"] > 0
    teed = pa.concat_tables([pq.read_table(f) for f in files])
    assert rows == m["tee_rows"] == teed.num_rows
    merged = teed.group_by("k").aggregate(
        [("count_all", "sum")]).sort_by("k")
    assert merged.column("count_all_sum").to_pylist() == \
        counts(whole).sort_by("k").column("count_all").to_pylist()
    back = rd.read_parquet(mf.stage_dir(run_dir, "s")).to_arrow_refs()
    assert sorted(pa.concat_tables(ray.get(back)).column("k").to_pylist()) \
        == sorted(whole.column("k").to_pylist())

    mtimes = [os.path.getmtime(f) for f in files]
    assert mf.checkpoint(rd.from_arrow(parts), run_dir, "s", "fp",
                         tee=mf.Tee(counts)) == m
    assert [os.path.getmtime(f) for f in files] == mtimes

    one = mf.checkpoint(rd.from_arrow(parts), run_dir, "one", "fp",
                        min_rows_per_file=100)
    assert len(one["partitions"]) == 1 and one["rows"] == 100
    assert "tee_rows" not in one and mf.tee_files(run_dir, "one") is None


def test_retried_write_task_overwrites_its_side_file(tmp_path):
    """A write task that runs twice with one task index (a retry) leaves
    one side file with the rows of one run: nothing is counted twice."""
    import pyarrow.parquet as pq
    from ray.data._internal.execution.interfaces import TaskContext

    def counts(b: pa.Table) -> pa.Table:
        return b.group_by("k").aggregate([([], "count_all")])

    path = str(tmp_path / "stage")
    os.makedirs(mf.side_dir(path))
    sink = mf.CheckpointSink(path, tee=mf.Tee(counts))
    block = pa.table({"k": pa.array([1, 1, 2])})
    ctx = TaskContext(task_idx=3, op_name="Write",
                      kwargs={"write_uuid": "w0"})
    sink.write([block], ctx)
    sink.write([block], ctx)
    files = mf.parquet_files(mf.side_dir(path))
    assert [os.path.basename(f) for f in files] == ["w0_000003.parquet"]
    assert pq.read_table(files[0]).sort_by("k").to_pydict() == {
        "k": [1, 2], "count_all": [2, 1]}
    assert len(mf.parquet_files(path)) == 1


def test_sweep_spares_tmp_dirs_of_live_writers(tmp_path):
    """The stale-tmp sweep removes a tmp dir whose writer is gone (no lock
    file, or a lock nobody holds), with its Tee side dir, and spares one
    whose writer still holds its flock, however old the dir is."""
    import fcntl

    run_dir = str(tmp_path)
    dead = os.path.join(run_dir, ".scored-tmp-dead")
    unlocked = os.path.join(run_dir, ".scored-tmp-unlocked")
    live = os.path.join(run_dir, ".scored-tmp-live")
    for d in (dead, unlocked, live, mf.side_dir(unlocked), mf.side_dir(live)):
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
        assert not os.path.exists(mf.side_dir(unlocked))
        assert os.path.isdir(live) and os.path.isdir(mf.side_dir(live))
    # the checkpoint's own lock file is gone with its tmp dir
    assert sorted(n for n in os.listdir(run_dir) if n.startswith(".")) == [
        ".scored-tmp-live", ".scored-tmp-live.lock", ".scored-tmp-live.tee"]
