"""Per-stage lineage manifests: resumable checkpointed runs.

The reference resumes by per-file skip-if-exists and a key cache
(src/pattern/generation_parser.py:100-108; src/generator/generation.py:200,
227-229).  We formalize that: every checkpointed stage writes

    <run_dir>/<stage>/[pred=.../]*.parquet   (the data, atomic via tmp+rename)
    <run_dir>/<stage>.manifest.json          (lineage + metrics)

The manifest records the stage's input fingerprint (hash of upstream manifest
+ config), per-file row counts, total rows, and counters.  On rerun, a stage
whose manifest exists with a matching fingerprint is NOT recomputed — its
parquet is read back instead; changing any upstream input or config changes
the fingerprint and invalidates everything downstream.  This is what
"resumable from checkpoint with per-partition lineage + metrics" (north rule)
means for a batch DAG.

:func:`checkpoint` is the one write path: a Ray Dataset streams through
:class:`CheckpointSink` (Ray's ``ParquetDatasink`` and its file naming, plus
an optional :class:`Tee` that runs a per-block function on the written
blocks and hands its results to the driver), a small driver-held
``pa.Table`` (``patterns``, ``stats``) goes straight to
``pyarrow.parquet``.  Consumers check :func:`stage_complete` BEFORE building
any plan, so a complete resume costs manifest reads plus the final read.  One run per ``run_dir`` at a time: concurrent runs would race on
the same stage dirs; only their tmp dirs are kept apart (see the sweep).
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import BlockAccessor

from ..util import sha256_hex

MANIFEST_SUFFIX = ".manifest.json"


def _manifest_path(run_dir: str, stage: str) -> str:
    return os.path.join(run_dir, stage + MANIFEST_SUFFIX)


def stage_dir(run_dir: str, stage: str) -> str:
    return os.path.join(run_dir, stage)


def fingerprint(*parts: object) -> str:
    return sha256_hex("|".join(str(p) for p in parts))[:16]


def source_fingerprint(path: str) -> str:
    """Content identity of a source path: every data file's relative path,
    size and mtime_ns fold into the hash, so rewriting a file IN PLACE (same
    path, new bytes) still invalidates downstream checkpoints.  Used as the
    root of each stage's chained fingerprint (stage fp = hash(upstream fp +
    stage config)), giving transitive downstream invalidation."""
    entries = []
    if os.path.isfile(path):
        st = os.stat(path)
        entries.append(f"{os.path.basename(path)}:{st.st_size}:{st.st_mtime_ns}")
    elif os.path.isdir(path):
        for root, _dirs, files in sorted(os.walk(path)):
            for f in sorted(files):
                full = os.path.join(root, f)
                st = os.stat(full)
                entries.append(
                    f"{os.path.relpath(full, path)}:{st.st_size}:{st.st_mtime_ns}"
                )
    else:
        entries.append(path)
    return fingerprint("src", *entries)


def load_manifest(run_dir: str, stage: str) -> dict | None:
    path = _manifest_path(run_dir, stage)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def stage_complete(run_dir: str, stage: str, fp: str) -> bool:
    m = load_manifest(run_dir, stage)
    return bool(m) and m.get("fingerprint") == fp and os.path.isdir(stage_dir(run_dir, stage))


def finalize_stage(run_dir: str, stage: str, fp: str, tmp_out: str,
                   counters: dict | None = None) -> dict:
    """Atomically promote a finished stage: rename tmp dir, write manifest.
    Partitions are recorded per file by relative path, so hive-partitioned
    layouts (``pred=usedFor/*.parquet``) list every key range."""
    final = stage_dir(run_dir, stage)
    if os.path.isdir(final):
        shutil.rmtree(final)
    os.replace(tmp_out, final)
    files = [os.path.join(root, f) for root, _dirs, names
             in sorted(os.walk(final)) for f in sorted(names)
             if f.endswith(".parquet")]
    parts = [{"file": os.path.relpath(full, final),
              "rows": pq.read_metadata(full).num_rows} for full in files]
    manifest = {"stage": stage, "fingerprint": fp,
                "rows": sum(p["rows"] for p in parts), "partitions": parts,
                "counters": counters or {}, "completed_at": time.time()}
    tmp = _manifest_path(run_dir, stage) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, _manifest_path(run_dir, stage))
    return manifest


@dataclass
class Tee:
    """A per-block function the checkpoint write runs on every block it
    writes (Arrow table in, Arrow table out).  After the write, ``out``
    holds one result table per write task on the driver; it stays ``None``
    when the stage was already complete and nothing was written."""

    fn: Callable[[pa.Table], pa.Table]
    out: list[pa.Table] | None = None


class CheckpointSink(ParquetDatasink):
    """The one Dataset write of a checkpoint: Ray's ``ParquetDatasink``
    (files named by write UUID and task index, so a retried write task
    overwrites its own file), and with a :class:`Tee` each write task also
    returns the tee over its blocks, collected on the driver."""

    def __init__(self, path: str, tee: Tee | None = None, **kwargs):
        super().__init__(path, **kwargs)
        self.tee = tee

    def write(self, blocks, ctx):
        blocks = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        super().write(blocks, ctx)
        if self.tee is None or not blocks:
            return None
        return pa.concat_tables([self.tee.fn(b) for b in blocks])

    def on_write_complete(self, write_result) -> None:
        super().on_write_complete(write_result)
        if self.tee is not None:
            self.tee.out = [t for t in write_result.write_returns
                            if t is not None]


def checkpoint(data, run_dir: str, stage: str, fp: str,
               partition_cols: list[str] | None = None,
               counters: dict | None = None, tee: Tee | None = None,
               min_rows_per_file: int | None = None) -> dict:
    """Write ``data`` (a Ray Dataset, hive-partitioned on ``partition_cols``
    if given, or a small driver-held ``pa.Table``: one ``pq.write_table``
    file, no Ray Data job) as the stage checkpoint unless it is already
    complete; returns the stage manifest.  Read the stage back with
    ``rd.read_parquet(stage_dir(...))``, so a killed rerun restarts here.

    A Dataset write records its wall time as the ``write_s`` counter and
    fills ``tee.out`` when a :class:`Tee` is given.  ``min_rows_per_file``
    (Ray's knob) bundles blocks into write tasks of at least that many
    rows: at the Dataset's row count one task writes one file per
    partition."""
    os.makedirs(run_dir, exist_ok=True)
    if stage_complete(run_dir, stage, fp):
        return load_manifest(run_dir, stage)
    sweep_stale_tmp(run_dir, stage)
    # the writer holds an flock on ``<tmp>.lock`` for the whole write (the
    # lock exists before the dir does), so a concurrent sweep spares it
    fd, lock = tempfile.mkstemp(dir=run_dir, prefix=f".{stage}-tmp-",
                                suffix=".lock")
    tmp_out = lock[:-len(".lock")]
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.mkdir(tmp_out)
        if isinstance(data, pa.Table):
            pq.write_table(data, os.path.join(tmp_out, "part-0.parquet"))
        else:
            t0 = time.perf_counter()
            data.write_datasink(CheckpointSink(
                tmp_out, tee=tee, partition_cols=partition_cols,
                min_rows_per_file=min_rows_per_file,
                dataset_uuid=data._uuid))
            if not any(f.endswith(".parquet")
                       for _r, _d, names in os.walk(tmp_out) for f in names):
                # an empty Dataset writes no file: keep its schema
                schema = data.schema()
                if schema is not None:
                    pq.write_table(schema.base_schema.empty_table(),
                                   os.path.join(tmp_out, "part-0.parquet"))
            counters = {**(counters or {}),
                        "write_s": time.perf_counter() - t0}
        return finalize_stage(run_dir, stage, fp, tmp_out, counters)
    except BaseException:
        # a failed write must not leave a stage-sized tmp copy in run_dir
        shutil.rmtree(tmp_out, ignore_errors=True)
        raise
    finally:
        os.unlink(lock)
        os.close(fd)


def _writer_alive(lock: str) -> bool:
    try:
        with open(lock, "rb") as f:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except FileNotFoundError:
        return False
    except BlockingIOError:
        return True
    return False


def sweep_stale_tmp(run_dir: str, stage: str) -> None:
    """Remove half-written ``.{stage}-tmp-*`` dirs a killed run left
    behind.  A dir is live while its writer holds the flock on
    ``<dir>.lock``; the kernel drops it when the writer dies, even by -9."""
    try:
        names = os.listdir(run_dir)
    except FileNotFoundError:
        return
    for name in names:
        if not name.startswith(f".{stage}-tmp-") or name.endswith(".lock"):
            continue
        path = os.path.join(run_dir, name)
        if not _writer_alive(path + ".lock"):
            shutil.rmtree(path, ignore_errors=True)
            if os.path.exists(path + ".lock"):
                os.unlink(path + ".lock")
