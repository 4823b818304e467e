"""Seeded source-file corpus for the KG workloads.

Rows follow the pipeline's input schema ``(repo, path, commit, lang, content)``
and every cell is drawn from ``numpy.random.default_rng((seed, k))``, so one
``(seed, k)`` always gives the same table.  Templates, modules, comments and
the hot entity come from ``folkscope_ray.synth``; only the seeded drawing is
here.  The corpus is written into the run's own work directory; nothing is
cached between runs.

What the pipeline should see in it:

- a hot entity (``config_loader``) in exactly ``HOT_SHARE`` of the files
  (skew in the pair, triple and eventuality keys);
- snake / camel / Pascal / ``_impl`` / ``2`` surface variants of each entity
  (canonicalization has clusters to merge);
- ``WIDE_ROWS`` files padded to about 120 KB (wide rows at ingest);
- ``len(MODS) * len(BASES)`` = 600 canonical entity names, three times the
  201 of ``folkscope_ray.synth``, so that distinct assertions are a large
  share of the scored rows.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from folkscope_ray.synth import (
    _DEF_TEMPLATES,
    _MODULES,
    ACT,
    HOT_ENTITY,
    LANG_EXT,
    LANGS,
    _camel,
)

N_FILES = 100
N_SHARDS = 4
HOT_SHARE = 0.30
WIDE_ROWS = 4
WIDE_PAD = "// padding\n" + ("x" * 79 + "\n") * 1500

MODS = ("json", "http", "lru", "async", "binary", "local", "remote", "yaml",
        "tcp", "disk", "grpc", "shard", "event", "batch", "stream", "vector",
        "sparse", "atomic", "lazy", "proto", "delta", "token", "merkle",
        "bloom")
BASES = ("parser", "cache", "logger", "scheduler", "encoder", "decoder",
         "router", "buffer", "queue", "client", "server", "indexer",
         "tokenizer", "allocator", "compiler", "socket", "registry", "pool",
         "monitor", "loader", "planner", "writer", "reader", "walker",
         "mapper")
ENTITIES = tuple(f"{m}_{b}" for m in MODS for b in BASES)

LANG_P = (0.50, 0.20, 0.12, 0.10, 0.08)
SCHEMA = pa.schema([("repo", pa.string()), ("path", pa.string()),
                    ("commit", pa.string()), ("lang", pa.string()),
                    ("content", pa.string())])


def _surface(name: str, u: float) -> str:
    if u < 0.50:
        return name
    if u < 0.65:
        return _camel(name, pascal=False)
    if u < 0.80:
        return _camel(name, pascal=True)
    if u < 0.90:
        return name + "_impl"
    return name + "2"


def _exact(rng, n: int, values, shares) -> list:
    """``n`` draws with exactly ``round(share * n)`` of each value, shuffled,
    so every seed gives a corpus of the same shape."""
    counts = [round(p * n) for p in shares]
    counts[0] += n - sum(counts)
    return [values[k] for k in rng.permutation(np.repeat(np.arange(len(values)), counts))]


def build_corpus(seed: int, n_files: int = N_FILES, k: int = 0) -> pa.Table:
    """Corpus ``k`` of ``seed``: every ``(seed, k)`` gives another draw of the
    same shape, so repeated operations need not re-read one input."""
    rng = np.random.default_rng((seed, k))
    langs = _exact(rng, n_files, LANGS, LANG_P)
    n_ents = _exact(rng, n_files, (2, 3, 4, 5, 6), (0.2,) * 5)
    hot = _exact(rng, n_files, (True, False), (HOT_SHARE, 1 - HOT_SHARE))
    wide = _exact(rng, n_files, (True, False),
                  (WIDE_ROWS / n_files, 1 - WIDE_ROWS / n_files))
    rows = []
    for i in range(n_files):
        lang = langs[i]
        repo = f"org{rng.integers(7)}/repo{rng.integers(23)}"
        module = _MODULES[rng.integers(len(_MODULES))]
        ents = [ENTITIES[k] for k in
                rng.choice(len(ENTITIES), size=n_ents[i], replace=False)]
        if hot[i]:
            ents.insert(int(rng.integers(len(ents) + 1)), HOT_ENTITY)
        path = f"src/{module}/{ents[0].split('_')[-1]}_{i}.{LANG_EXT[lang]}"
        commit = hashlib.sha1(f"{repo}|{path}|{seed}|{k}".encode()).hexdigest()
        blocks = [f"// {repo}/{path} @ {commit[:12]}\n"]
        for ent in ents:
            blocks.append(_DEF_TEMPLATES[lang].format(
                s=_surface(ent, rng.random()),
                c=ACT[rng.integers(len(ACT))], m=module))
        if wide[i]:
            blocks.append(WIDE_PAD)
        rows.append({"repo": repo, "path": path, "commit": commit,
                     "lang": lang, "content": "".join(blocks)})
    return pa.Table.from_pylist(rows, schema=SCHEMA)


def write_corpus(table: pa.Table, out_dir: str) -> str:
    """Write ``table`` as ``N_SHARDS`` parquet files under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // N_SHARDS)
    for s in range(N_SHARDS):
        part = table.slice(s * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{s:03d}.parquet"))
    return out_dir
