"""Sources & sinks: pruned readers and resumable writers.

Mirrors the reference's file I/O inventory (SURVEY.md §2.1 S1-S15) with the
two rules that matter at 100 TB: PRUNE AT THE READ (column projection +
row-group predicate pushdown via pyarrow dataset expressions) and write
RESUMABLE partitioned layouts (state/manifest.py) — never one giant file.
"""

from __future__ import annotations

import ray.data as rd
from ray.data import Dataset

SOURCE_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def read_source_files(path: str, *, langs: list[str] | None = None,
                      columns: list[str] | None = None,
                      override_num_blocks: int | None = None) -> Dataset:
    """Read the (repo, path, commit, lang, content) table with pushdown.

    ``langs`` becomes a row-group predicate (never a post-read filter);
    ``columns`` prunes at the parquet reader so unused columns never leave
    storage (S1/S6 discipline)."""
    kwargs: dict = {}
    if columns:
        kwargs["columns"] = columns
    if override_num_blocks:
        kwargs["override_num_blocks"] = override_num_blocks
    if langs:
        import pyarrow.compute as pc

        kwargs["filter"] = pc.field("lang").isin(langs)
    return rd.read_parquet(path, **kwargs)


def read_taxonomy(path: str) -> list[tuple[str, str, int]]:
    """(concept, instance, freq) rows for the conceptualizer actor — the
    Probase-TSV loader analogue (conceptualizer.py:32-56); small enough to
    load driver-side and broadcast with ray.put."""
    import pyarrow.parquet as pq

    t = pq.read_table(path)
    return list(
        zip(
            t.column("concept").to_pylist(),
            t.column("instance").to_pylist(),
            t.column("freq").to_pylist(),
        )
    )


def read_jsonl(path: str, *, columns: list[str] | None = None,
               override_num_blocks: int | None = None) -> Dataset:
    """JSON-Lines reader (the reference's interchange format for generated
    assertions and parsed files, e.g. ``src/generator/generation.py``'s
    per-shard ``.jsonl`` outputs).  JSON has no column pruning at the read —
    projection happens immediately after parse so downstream operators never
    see unused fields; prefer parquet (``read_source_files``) for anything
    written by this engine."""
    kwargs: dict = {}
    if override_num_blocks:
        kwargs["override_num_blocks"] = override_num_blocks
    ds = rd.read_json(path, **kwargs)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def write_jsonl(ds: Dataset, path: str) -> None:
    """Partitioned JSON-Lines sink (one file per block — resumable layout,
    never one giant file) for interop with reference-style tooling."""
    ds.write_json(path)


def write_triples(ds: Dataset, run_dir: str, *, source_path: str,
                  config_fp: str | None = None) -> dict:
    """Write triples hive-partitioned by ``pred`` with a lineage manifest;
    a rerun with the same inputs is a no-op (resume semantics).

    ``config_fp``: fingerprint of everything BESIDES the source that shaped
    ``ds`` (pipeline thresholds, code version...).  The resume key chains
    it with the source-content fingerprint — without it, changed triples
    derived from an unchanged source would silently never be rewritten
    (the kg.py sink chains its config constants the same way)."""
    from ..state import manifest as mf

    # chain from the CONTENT fingerprint (size+mtime of every data file),
    # not the path string — rewriting the source in place must invalidate
    fp = mf.fingerprint("triples", mf.source_fingerprint(source_path),
                        config_fp or "")
    return mf.checkpoint(ds, run_dir, "triples", fp, partition_cols=["pred"])
