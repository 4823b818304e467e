"""``python -m folkscope_ray.job`` — the ray-job-submit entrypoint — smoke
test: runs the module in a subprocess (its own local Ray session, like a
submitted job driver), checks the JSON summary line, the partitioned output,
and that a resubmit with the same --run-dir resumes from checkpoints."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_job(source: str, out: str, run_dir: str | None = None,
             products: tuple[str, ...] = ("triples",),
             num_cpus: int = 4) -> dict:
    cmd = [sys.executable, "-m", "folkscope_ray.job",
           "--source", source, "--out", out, "--products", *products,
           "--address", "local", "--num-cpus", str(num_cpus)]
    if run_dir:
        cmd += ["--run-dir", run_dir]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    # the summary counts are the rows the job wrote, product by product
    for product in products:
        on_disk = pq.read_table(os.path.join(out, product)).num_rows
        assert summary["counts"][product] == on_disk, product
    return summary


def test_job_entry_runs_and_resumes(tmp_path):
    from folkscope_ray.synth import corpus_path

    source = corpus_path(200)
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    run_dir = str(tmp_path / "run")

    s1 = _run_job(source, out1, run_dir, ("triples", "eventualities"))
    assert s1["counts"]["triples"] > 0 and s1["counts"]["eventualities"] > 0
    # output is partitioned by predicate (resumable layout: one dir per key)
    parts = [d for d in os.listdir(os.path.join(out1, "triples"))
             if d.startswith("pred=")]
    assert len(parts) > 1
    tbl = pq.read_table(os.path.join(out1, "triples"))
    assert tbl.num_rows == s1["counts"]["triples"]

    # resubmit with the same run-dir: resumes from stage checkpoints —
    # manifests must NOT be rewritten (mtime evidence; wall-clock compares
    # are meaningless on this shared VM, the subprocess+ray.init overhead
    # dominates a 200-file corpus)
    manifests = {
        f: os.path.getmtime(os.path.join(run_dir, f))
        for f in os.listdir(run_dir) if f.endswith(".manifest.json")
    }
    assert manifests, "first job wrote no stage manifests"
    s2 = _run_job(source, out2, run_dir, ("triples", "eventualities"))
    assert s2["counts"] == s1["counts"]
    for f, mtime in manifests.items():
        assert os.path.getmtime(os.path.join(run_dir, f)) == mtime, f
    tbl2 = pq.read_table(os.path.join(out2, "triples"))
    assert tbl2.num_rows == tbl.num_rows

    # resubmit into the same --out: each product dir is replaced, so the
    # summary and the files on disk hold this run's rows once, not twice
    s3 = _run_job(source, out1, run_dir, ("triples", "eventualities"))
    assert s3["counts"] == s1["counts"]


def test_job_entry_incremental_shards(tmp_path):
    """--shards mode: one scored checkpoint per shard, resubmit skips them,
    triple count matches the monolithic job over the same corpus."""
    from folkscope_ray.synth import corpus_path

    src = corpus_path(200)
    t = pq.read_table(src)
    sh = [str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
    pq.write_table(t.slice(0, 120), sh[0])
    pq.write_table(t.slice(120), sh[1])
    out = str(tmp_path / "out")
    run_dir = str(tmp_path / "run")

    def run(outdir):
        proc = subprocess.run(
            [sys.executable, "-m", "folkscope_ray.job",
             "--shards", *sh, "--out", outdir, "--run-dir", run_dir,
             "--address", "local", "--num-cpus", "4"],
            cwd=REPO, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    s1 = run(out)
    mono = _run_job(src, str(tmp_path / "out_mono"), str(tmp_path / "run_mono"))
    assert s1["counts"]["triples"] == mono["counts"]["triples"]
    # shard checkpoint dirs are keyed by a content hash of the shard source
    # (order/insert-stable), not list position — discover them
    from folkscope_ray.pipelines.kg import shard_dir_name

    shard_manifests = {
        p: os.path.getmtime(p) for p in
        (os.path.join(run_dir, shard_dir_name(s), "scored.manifest.json")
         for s in sh)
    }
    assert all(os.path.exists(p) for p in shard_manifests)
    s2 = run(str(tmp_path / "out2"))
    assert s2["counts"] == s1["counts"]
    for p, mtime in shard_manifests.items():
        assert os.path.getmtime(p) == mtime  # shard generation not re-run


def test_job_concept_products_finish_at_one_cpu(tmp_path):
    """The concept and edge-feature stages hold no CPU between blocks, so
    they run beside the upstream shuffles on a 1-CPU cluster."""
    from folkscope_ray.synth import corpus_path

    s = _run_job(corpus_path(200), str(tmp_path / "out"),
                 products=("concept_agg", "edge_features"), num_cpus=1)
    assert s["counts"]["concept_agg"] > 0 and s["counts"]["edge_features"] > 0
