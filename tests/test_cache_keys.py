"""Caches and paths that must follow their inputs: an empty checkpoint keeps
its schema (and one with none is refused), the synthetic corpus cache follows the generator's source, and
the fixture-backed oracle SQL reads the checkout's own fixtures."""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pytest
import ray.data as rd

from folkscope_ray.state import manifest as mf


def test_empty_checkpoint_keeps_schema(tmp_path):
    """A Dataset whose batch filter (the critic's kind) drops every row."""
    import pyarrow.compute as pc

    table = pa.table({"a": pa.array([1, 2], pa.int64()),
                      "b": pa.array(["x", "y"], pa.string())})
    empty = rd.from_arrow(table).map_batches(
        lambda b: b.filter(pc.greater(b.column("a"), 10)),
        batch_format="pyarrow")
    run_dir = str(tmp_path)
    m = mf.checkpoint(empty, run_dir, "empty", "fp0")
    assert m["rows"] == 0
    back = rd.read_parquet(mf.stage_dir(run_dir, "empty"))
    assert back.schema().names == ["a", "b"]
    assert back.count() == 0


def test_schemaless_empty_checkpoint_raises(tmp_path):
    """A row-level filter to 0 rows leaves a Dataset with no schema: the
    checkpoint refuses it instead of finalizing a column-less stage, and
    leaves nothing behind."""
    table = pa.table({"a": pa.array([1, 2], pa.int64()),
                      "b": pa.array(["x", "y"], pa.string())})
    empty = rd.from_arrow(table).filter(lambda r: False)
    run_dir = str(tmp_path)
    with pytest.raises(ValueError, match="no schema"):
        mf.checkpoint(empty, run_dir, "empty", "fp0")
    assert mf.load_manifest(run_dir, "empty") is None
    assert os.listdir(run_dir) == []


def test_corpus_cache_follows_generator_source(tmp_path, monkeypatch):
    from folkscope_ray import synth

    root = str(tmp_path)
    first = synth.corpus_path(2, root=root)
    assert synth.source_digest() in os.path.basename(first)
    assert synth.corpus_path(2, root=root) == first  # reused while unchanged
    monkeypatch.setattr(synth, "source_digest", lambda: "edited")
    second = synth.corpus_path(2, root=root)
    assert second != first and os.path.isdir(second)


def test_oracle_fixture_paths_exist():
    import __ray_entry__ as entry

    here = os.path.dirname(os.path.abspath(entry.__file__))
    paths = [p for sql in entry.oracle_sql().values()
             for p in re.findall(r"read_parquet\('([^']+)'\)", sql)
             if "/fixtures/" in p]
    assert paths
    for p in paths:
        assert p.startswith(os.path.join(here, "fixtures") + os.sep), p
        assert os.path.exists(p), p
