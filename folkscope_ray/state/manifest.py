"""Per-stage lineage manifests: resumable checkpointed runs.

The reference resumes by per-file skip-if-exists and a key cache
(src/pattern/generation_parser.py:100-108; src/generator/generation.py:200,
227-229).  We formalize that: every checkpointed stage writes

    <run_dir>/<stage>/[pred=.../]*.parquet   (the data, atomic via tmp+rename)
    <run_dir>/<stage>.tee/*.parquet          (a Tee's side files, if any)
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
blocks and writes its results as side files beside the stage), a small
driver-held ``pa.Table`` (``patterns``, ``stats``) goes straight to
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
from ray.data._internal.planner.plan_write_op import WRITE_UUID_KWARG_NAME
from ray.data.block import BlockAccessor

from ..util import sha256_hex

MANIFEST_SUFFIX = ".manifest.json"


def _manifest_path(run_dir: str, stage: str) -> str:
    return os.path.join(run_dir, stage + MANIFEST_SUFFIX)


def stage_dir(run_dir: str, stage: str) -> str:
    return os.path.join(run_dir, stage)


def parquet_files(root: str) -> list[str]:
    """The ``.parquet`` files under ``root`` in walk order (``root`` itself
    when it is a file)."""
    if os.path.isfile(root):
        return [root]
    return [os.path.join(d, f) for d, _dirs, names in sorted(os.walk(root))
            for f in sorted(names) if f.endswith(".parquet")]


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


def side_dir(path: str) -> str:
    """The sibling dir that holds the Tee side files of the stage (or tmp)
    dir ``path``: beside it, so a read of the stage never sees them."""
    return path + ".tee"


def tee_files(run_dir: str, stage: str) -> tuple[list[str], int] | None:
    """The side files a complete stage's :class:`Tee` wrote and their total
    rows (from the manifest), or None when the stage recorded no tee or
    its side dir is gone."""
    m = load_manifest(run_dir, stage)
    side = side_dir(stage_dir(run_dir, stage))
    if not m or m.get("tee_rows") is None or not os.path.isdir(side):
        return None
    return parquet_files(side), m["tee_rows"]


def stage_complete(run_dir: str, stage: str, fp: str) -> bool:
    m = load_manifest(run_dir, stage)
    return bool(m) and m.get("fingerprint") == fp and os.path.isdir(stage_dir(run_dir, stage))


def finalize_stage(run_dir: str, stage: str, fp: str, tmp_out: str,
                   counters: dict | None = None) -> dict:
    """Atomically promote a finished stage: rename tmp dir (and its Tee
    side dir, replacing any older one), write manifest.  Partitions are
    recorded per file by relative path, so hive-partitioned layouts
    (``pred=usedFor/*.parquet``) list every key range; with side files the
    manifest records their rows as ``tee_rows``."""
    final = stage_dir(run_dir, stage)
    for old in (final, side_dir(final)):
        if os.path.isdir(old):
            shutil.rmtree(old)
    os.replace(tmp_out, final)
    manifest = {"stage": stage, "fingerprint": fp}
    if os.path.isdir(side_dir(tmp_out)):
        os.replace(side_dir(tmp_out), side_dir(final))
        manifest["tee_rows"] = sum(pq.read_metadata(f).num_rows
                                   for f in parquet_files(side_dir(final)))
    parts = [{"file": os.path.relpath(full, final),
              "rows": pq.read_metadata(full).num_rows}
             for full in parquet_files(final)]
    manifest.update({"rows": sum(p["rows"] for p in parts),
                     "partitions": parts, "counters": counters or {},
                     "completed_at": time.time()})
    tmp = _manifest_path(run_dir, stage) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, _manifest_path(run_dir, stage))
    return manifest


@dataclass
class Tee:
    """A per-block function the checkpoint write runs on every block it
    writes (Arrow table in, Arrow table out).  Each write task writes the
    results over its blocks as one parquet side file, which
    :func:`finalize_stage` promotes to ``<stage>.tee`` with the stage; read
    them back with :func:`tee_files`."""

    fn: Callable[[pa.Table], pa.Table]


class CheckpointSink(ParquetDatasink):
    """The one Dataset write of a checkpoint: Ray's ``ParquetDatasink``
    (files named by write UUID and task index, so a retried write task
    overwrites its own file), and with a :class:`Tee` each write task also
    writes the tee over its non-empty blocks to ``side_dir(path)``, named
    the same way, so a retried task overwrites its own partials."""

    def __init__(self, path: str, tee: Tee | None = None, **kwargs):
        super().__init__(path, **kwargs)
        self.tee = tee
        self.side = os.path.abspath(side_dir(path))

    def write(self, blocks, ctx):
        blocks = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        super().write(blocks, ctx)
        blocks = [b for b in blocks if b.num_rows]
        if self.tee is None or not blocks:
            return
        name = f"{ctx.kwargs[WRITE_UUID_KWARG_NAME]}_{ctx.task_idx:06}.parquet"
        pq.write_table(pa.concat_tables([self.tee.fn(b) for b in blocks]),
                       os.path.join(self.side, name))


def checkpoint(data, run_dir: str, stage: str, fp: str,
               partition_cols: list[str] | None = None,
               counters: dict | None = None, tee: Tee | None = None,
               min_rows_per_file: int | None = None) -> dict:
    """Write ``data`` (a Ray Dataset, hive-partitioned on ``partition_cols``
    if given, or a small driver-held ``pa.Table``: one ``pq.write_table``
    file, no Ray Data job) as the stage checkpoint unless it is already
    complete; returns the stage manifest.  Read the stage back with
    ``rd.read_parquet(stage_dir(...))``, so a killed rerun restarts here.

    A Dataset write records its wall time as the ``write_s`` counter; with
    a :class:`Tee` its side files land beside the stage and the manifest
    records their rows as ``tee_rows``.  A Dataset that writes no file and
    has no schema raises ``ValueError``: there are no columns to record
    (a row-level ``filter`` to 0 rows gives one).  ``min_rows_per_file``
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
            if tee is not None:
                os.mkdir(side_dir(tmp_out))
            data.write_datasink(CheckpointSink(
                tmp_out, tee=tee, partition_cols=partition_cols,
                min_rows_per_file=min_rows_per_file,
                dataset_uuid=data._uuid))
            if not any(f.endswith(".parquet")
                       for _r, _d, names in os.walk(tmp_out) for f in names):
                # an empty Dataset writes no file: keep its schema
                schema = data.schema()
                if schema is None:
                    raise ValueError(
                        f"checkpoint {stage!r}: the Dataset has no rows and no "
                        "schema, so the stage would have no columns")
                pq.write_table(schema.base_schema.empty_table(),
                               os.path.join(tmp_out, "part-0.parquet"))
            counters = {**(counters or {}),
                        "write_s": time.perf_counter() - t0}
        return finalize_stage(run_dir, stage, fp, tmp_out, counters)
    except BaseException:
        # a failed write must not leave a stage-sized tmp copy in run_dir
        shutil.rmtree(tmp_out, ignore_errors=True)
        shutil.rmtree(side_dir(tmp_out), ignore_errors=True)
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
    """Remove half-written ``.{stage}-tmp-*`` dirs (and their ``.tee``
    side dirs) a killed run left behind.  A dir is live while its writer
    holds the flock on ``<dir>.lock``; the kernel drops it when the writer
    dies, even by -9."""
    try:
        names = os.listdir(run_dir)
    except FileNotFoundError:
        return
    for name in names:
        if not name.startswith(f".{stage}-tmp-") or name.endswith(".lock"):
            continue
        path = os.path.join(run_dir, name)
        lock = (path[:-len(".tee")] if name.endswith(".tee") else path) + ".lock"
        if not _writer_alive(lock):
            shutil.rmtree(path, ignore_errors=True)
            if os.path.exists(lock):
                os.unlink(lock)
