"""Cluster job entry point — the ``ray job submit`` deployment surface.

On a fixed-size multi-node cluster (north rule: sizes N and 4N):

    ray job submit --working-dir . -- \\
        python -m folkscope_ray.job \\
            --source  s3://bucket/corpus/          # (repo,path,commit,lang,content) parquet
            --out     s3://bucket/kg/run1/         # partitioned triple parquet
            --run-dir /mnt/shared/kg_run1          # checkpoint manifests (shared FS)

The driver process this module becomes connects to the running cluster with
``ray.init(address="auto")`` (a Ray Job's entrypoint inherits the cluster
address; local smoke runs fall back to a local session).  The pipeline
itself is the same :func:`folkscope_ray.pipelines.kg.build_kg` Dataset graph
used everywhere else — streaming execution, per-stage checkpoints, and
partitioned output make a resubmitted job resume from the last completed
stage (kill-restart semantics are pytest-gated in
``tests/test_kill_restart.py``; the job-level wrapper is smoke-tested in
``tests/test_job_entry.py``).

Prints ONE JSON summary line (row counts, per-stage lineage from
``run_metrics``) so the submitting orchestrator can scrape results from the
job log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="folkscope_ray.job")
    ap.add_argument("--source", required=False, default=None,
                    help="parquet path/dir of the (repo,path,commit,lang,content) corpus")
    ap.add_argument("--shards", nargs="*", default=None,
                    help="incremental mode: corpus shard paths; each shard's "
                         "generation is checkpointed once under --run-dir and "
                         "skipped on resubmit (build_kg_incremental)")
    ap.add_argument("--out", required=True,
                    help="output dir: one subdir per product (triples "
                         "partitioned by pred), replaced on every run")
    ap.add_argument("--run-dir", default=None,
                    help="checkpoint/manifest dir (shared FS) — enables resume")
    ap.add_argument("--products", nargs="*",
                    default=["triples"],
                    choices=["triples", "eventualities", "concept_agg",
                             "concept_triples", "edge_features"],
                    help="which KG products to materialize")
    ap.add_argument("--address", default="auto",
                    help='ray address ("auto" under ray job submit; "local" for smoke runs)')
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only honored with --address local")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        if args.address == "local":
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False, logging_level="ERROR")
        else:
            try:
                ray.init(address=args.address, logging_level="ERROR")
            except ConnectionError:
                # no running cluster (e.g. CI smoke): local fallback
                ray.init(address="local", num_cpus=args.num_cpus,
                         include_dashboard=False, logging_level="ERROR")

    import pyarrow.dataset as pads
    import pyarrow.fs as pafs

    from .pipelines.kg import build_kg, build_kg_incremental

    if bool(args.source) == bool(args.shards):
        ap.error("exactly one of --source or --shards is required")
    if args.shards and not args.run_dir:
        ap.error("--shards requires --run-dir (shard checkpoints live there)")

    t0 = time.time()
    if args.shards:
        kg = build_kg_incremental(list(args.shards), run_dir=args.run_dir)
    else:
        kg = build_kg(args.source, run_dir=args.run_dir)
    counts: dict[str, int] = {}
    for product in args.products:
        ds = getattr(kg, product)()
        out_dir = f"{args.out.rstrip('/')}/{product}"
        # triples are written partitioned by predicate inside the pipeline
        # when run-dir checkpointing is on; the job output dir is the
        # user-facing copy either way.  A resubmitted job replaces each
        # product dir: write_parquet adds uniquely named files, so old
        # files (or a killed job's partial ones) would count twice
        fs, path = pafs.FileSystem.from_uri(
            out_dir if "://" in out_dir else os.path.abspath(out_dir))
        fs.delete_dir_contents(path, missing_dir_ok=True)
        if product == "triples":
            ds.write_parquet(out_dir, partition_cols=["pred"])
        else:
            ds.write_parquet(out_dir)
        # rows from the written files' parquet footers: ds.count() would
        # execute the whole lazy plan a second time
        try:
            counts[product] = pads.dataset(out_dir,
                                           format="parquet").count_rows()
        except FileNotFoundError:  # an empty product writes no files
            counts[product] = 0
    summary = {
        "metric": "kg_job",
        "wall_sec": round(time.time() - t0, 3),
        "source": args.source,
        "out": args.out,
        "counts": counts,
        "run_metrics": kg.run_metrics(),
    }
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
