"""Deterministic synthetic source-code corpus + taxonomy (FIXTURES.md §1/§3).

The north rule fixes the engine's input to a Parquet table with columns
``(repo, path, commit, lang, content)``.  No external data is allowed, so this
module synthesises that table deterministically (seed=42): every cell is a pure
function of (row index, seed).  The corpus mirrors the reference's data model
re-bound to code (SURVEY.md §7.1):

- *entities* (analogue of items, src/generator/utils.py:52-81) are function /
  class definitions embedded in ``content`` and re-extracted by the ingest
  stage with per-language regexes — the generator writes them in, the pipeline
  must find them again;
- *pairs* (analogue of co-buy edges, src/generator/generation.py:163-189) are
  consecutive co-occurring entities within a file;
- one hot entity (``config_loader``) appears in ~30% of files to exercise
  skew-salting in the canonicalization shuffle;
- entity *surface forms* vary (snake / camel / Pascal case, ``_impl`` / ``2``
  suffixes) so that near-dup canonicalization (minhash-LSH + union-find) has
  real work to do;
- a small fraction of rows carry >100 KB content blobs to exercise wide-row
  block handling.
"""

from __future__ import annotations

import os
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

from .util import sha1_hex, stable_u64, stable_uniform

SEED = 42

# ---------------------------------------------------------------- vocabulary

ADJ = ("fast", "simple", "robust", "lazy", "generic", "portable", "secure",
       "efficient", "modular", "stable")
ACT = ("serialization", "routing", "caching", "scheduling", "parsing",
       "logging", "encoding", "compression", "validation", "aggregation",
       "indexing", "batching")
NOUN = ("data", "request", "response", "message", "config", "session",
        "buffer", "stream", "token", "record", "payload", "metric", "event",
        "packet", "task", "job", "queue", "cache", "index", "schema",
        "socket", "thread", "worker", "parser", "handler", "adapter",
        "wrapper", "registry", "pipeline", "snapshot")
VERB = ("compress", "encode", "validate", "route", "cache", "parse", "batch",
        "merge", "filter", "transform", "index", "schedule")

ENTITY_MOD = ("json", "http", "lru", "async", "binary", "local", "remote",
              "yaml", "tcp", "disk")
ENTITY_BASE = ("parser", "cache", "logger", "scheduler", "encoder", "decoder",
               "router", "buffer", "queue", "client", "server", "indexer",
               "tokenizer", "allocator", "compiler", "socket", "registry",
               "pool", "monitor", "loader")

HOT_ENTITY = "config_loader"          # appears in ~30% of files (skew fixture)
HOT_PROB = 0.30

LANGS = ("python", "js", "go", "java", "rust")
LANG_CDF = (0.50, 0.70, 0.82, 0.92, 1.00)  # zipf-ish skew, python hot
LANG_EXT = {"python": "py", "js": "js", "go": "go", "java": "java", "rust": "rs"}

WIDE_ROW_EVERY = 499          # every Nth row gets a >100KB content blob
_WIDE_BLOB = ("x" * 79 + "\n")

_MODULES = ("core", "io", "net", "util", "store", "api", "sched", "fmt")


def canonical_entities() -> list[str]:
    """All canonical entity names (snake_case), hot entity first."""
    ents = [HOT_ENTITY]
    for m in ENTITY_MOD:
        for b in ENTITY_BASE:
            ents.append(f"{m}_{b}")
    return ents


_ENTITIES = canonical_entities()
_N_ENT = len(_ENTITIES)


def _camel(name: str, pascal: bool) -> str:
    parts = name.split("_")
    head = parts[0].capitalize() if pascal else parts[0]
    return head + "".join(p.capitalize() for p in parts[1:])


def surface_variant(canonical: str, *key: object) -> str:
    """Deterministic surface form of an entity for one occurrence.

    50% canonical snake_case, 15% camelCase, 15% PascalCase, 10% ``_impl``
    suffix, 10% ``2`` suffix.  The suffixed forms are *near*-duplicates that
    only minhash-LSH (not exact normalization) clusters back together.
    """
    u = stable_uniform("surface", canonical, *key)
    if u < 0.50:
        return canonical
    if u < 0.65:
        return _camel(canonical, pascal=False)
    if u < 0.80:
        return _camel(canonical, pascal=True)
    if u < 0.90:
        return canonical + "_impl"
    return canonical + "2"


def file_entities(i: int) -> list[str]:
    """Canonical entities defined in file i (2..5 distinct, maybe the hot one)."""
    n = 2 + stable_u64("nent", SEED, i) % 4
    start = stable_u64("estart", SEED, i) % (_N_ENT - 1) + 1
    step = 1 + stable_u64("estep", SEED, i) % 97
    ents = [_ENTITIES[(start + k * step) % (_N_ENT - 1) + 1] for k in range(n)]
    seen, out = set(), []
    for e in ents:
        if e not in seen:
            seen.add(e)
            out.append(e)
    if stable_uniform("hot", SEED, i) < HOT_PROB:
        out.insert(stable_u64("hotpos", SEED, i) % (len(out) + 1), HOT_ENTITY)
    return out


_DEF_TEMPLATES = {
    "python": 'def {s}(ctx):\n    """{c} for {m}."""\n    return ctx\n',
    "js": "function {s}(ctx) {{\n  // {c} for {m}\n  return ctx;\n}}\n",
    "go": "func {s}(ctx Context) Context {{\n\t// {c} for {m}\n\treturn ctx\n}}\n",
    "java": "class {s} {{\n  // {c} for {m}\n  Object run(Object ctx) {{ return ctx; }}\n}}\n",
    "rust": "fn {s}(ctx: Context) -> Context {{\n    // {c} for {m}\n    ctx\n}}\n",
}


def file_lang(i: int) -> str:
    u = stable_uniform("lang", SEED, i)
    for lang, c in zip(LANGS, LANG_CDF):
        if u < c:
            return lang
    return LANGS[-1]


def file_row(i: int) -> dict:
    """Row i of the source_files table — a pure function of (i, SEED)."""
    repo = f"org{i % 7}/repo{i % 23}"
    lang = file_lang(i)
    module = _MODULES[stable_u64("mod", SEED, i) % len(_MODULES)]
    ents = file_entities(i)
    name = ents[0].split("_")[-1]
    path = f"src/{module}/{name}_{i}.{LANG_EXT[lang]}"
    commit = sha1_hex(f"{repo}|{path}|{SEED}")

    tmpl = _DEF_TEMPLATES[lang]
    blocks = [f"// {repo}/{path} @ {commit[:12]}\n"]
    for k, ent in enumerate(ents):
        surface = surface_variant(ent, repo, path, k)
        comment = ACT[stable_u64("cmt", SEED, i, k) % len(ACT)]
        blocks.append(tmpl.format(s=surface, c=comment, m=module))
    if i % WIDE_ROW_EVERY == 0:
        blocks.append("// padding\n" + _WIDE_BLOB * 1500)  # ~120 KB
    return {
        "repo": repo,
        "path": path,
        "commit": commit,
        "lang": lang,
        "content": "".join(blocks),
    }


def build_corpus_table(n_files: int) -> pa.Table:
    rows = [file_row(i) for i in range(n_files)]
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("repo", pa.string()),
                ("path", pa.string()),
                ("commit", pa.string()),
                ("lang", pa.string()),
                ("content", pa.string()),
            ]
        ),
    )


def n_files_for_sf(sf: float) -> int:
    """Corpus size per scale factor — sized so that at the bench scale
    (sf=0.1 -> 60k files) per-row compute dominates Ray's fixed per-execution
    overheads and measured scaling efficiency reflects the pipeline, not the
    executor's constant costs."""
    return max(100, int(sf * 600_000))


def sf_of_dir(sf_dir: str) -> float:
    """Parse the scale factor out of a ``.../sf0.01`` style directory name."""
    base = os.path.basename(os.path.normpath(sf_dir))
    if base.startswith("sf"):
        try:
            return float(base[2:])
        except ValueError:
            pass
    return 0.001


N_CORPUS_SHARDS = 32


def source_digest() -> str:
    """Short digest of this module's source: an edited generator writes a
    new corpus cache instead of reusing the old one."""
    with open(__file__, "rb") as f:
        return sha1_hex(f.read())[:10]


def corpus_path(n_files: int, root: str = "/tmp/folkscope_corpus") -> str:
    """Materialize (once) and return the synthetic corpus for n_files — a
    DIRECTORY of shard parquet files, so reads parallelize like a real
    many-file corpus would.

    Written atomically (temp dir + rename) so concurrent callers are safe and
    a rerun reuses the cache — the analogue of the reference's sampled pair
    pickle cache (src/generator/generation.py:151-157), minus the
    nondeterminism.  The cache is keyed by file count, seed and
    :func:`source_digest`.
    """
    os.makedirs(root, exist_ok=True)
    path = os.path.join(
        root, f"source_files_{n_files}_seed{SEED}_{source_digest()}")
    if not os.path.isdir(path):
        table = build_corpus_table(n_files)
        tmp = tempfile.mkdtemp(dir=root)
        shards = min(N_CORPUS_SHARDS, max(1, n_files // 50))
        per = (n_files + shards - 1) // shards
        for s in range(shards):
            piece = table.slice(s * per, per)
            if piece.num_rows:
                pq.write_table(piece, os.path.join(tmp, f"part-{s:05d}.parquet"),
                               row_group_size=2048)
        try:
            os.replace(tmp, path)
        except OSError:
            # concurrent caller won the publish race (os.replace onto an
            # existing non-empty dir raises ENOTEMPTY) — their corpus is
            # byte-identical (deterministic, seed-pinned); drop ours
            if not os.path.isdir(path):
                raise
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
    return path


def corpus_for_sf(sf_dir: str) -> str:
    return corpus_path(n_files_for_sf(sf_of_dir(sf_dir)))


# ---------------------------------------------------------------- taxonomy

CONCEPTS = ("data structure", "serialization library", "network component",
            "storage backend", "runtime service", "developer tool",
            "text utility", "concurrency primitive")


def taxonomy_rows() -> list[dict]:
    """Synthetic Probase stand-in: (concept, instance, freq) rows.

    Same shape and semantics as the reference's Probase TSV
    (src/pattern/conceptualizer.py:32-56): ``likelihood(concept | instance) =
    freq / sum(freq over the instance's concepts)``.  Instances are the nouns
    that occur in generated assertions.
    """
    rows = []
    instances = sorted(set(NOUN) | set(ACT) | set(ENTITY_BASE))
    for inst in instances:
        k = 2 + stable_u64("ntax", SEED, inst) % 3
        start = stable_u64("tstart", SEED, inst) % len(CONCEPTS)
        for j in range(k):
            concept = CONCEPTS[(start + j * 3) % len(CONCEPTS)]
            freq = 1 + stable_u64("tfreq", SEED, inst, concept) % 1000
            rows.append({"concept": concept, "instance": inst, "freq": freq})
    return rows


def annotations_rows(n: int = 500) -> list[dict]:
    """Synthetic critic-eval labels (FIXTURES.md §4): pair_key, assertion with
    Item A/B placeholders (substitution semantics per
    src/classifier/run_classification.py:479-482), majority_answer in
    {"v","i"} (label vocabulary per run_classification.py:326-341), quality
    in [0,1].  Labels correlate with the deterministic critic score so PR
    curves are non-degenerate."""
    from .util import md5_hex, stable_uniform

    rows = []
    for i in range(n):
        a = _ENTITIES[stable_u64("ann_a", SEED, i) % _N_ENT]
        b = _ENTITIES[stable_u64("ann_b", SEED, i) % _N_ENT]
        rel = ("usedFor", "isA", "hasA", "cause")[i % 4]
        key = md5_hex(f"{a}-{b}-{rel}")
        assertion = "Item A and Item B are both used for " + ACT[i % len(ACT)]
        score_signal = stable_uniform("ann_s", SEED, i)
        noise = stable_uniform("ann_n", SEED, i)
        label = "v" if (0.7 * score_signal + 0.3 * noise) > 0.5 else "i"
        rows.append(
            {
                "pair_key": key,
                "assertion": assertion,
                "majority_answer": label,
                "quality": round(score_signal, 4),
            }
        )
    return rows


def taxonomy_table() -> pa.Table:
    return pa.Table.from_pylist(
        taxonomy_rows(),
        schema=pa.schema(
            [("concept", pa.string()), ("instance", pa.string()), ("freq", pa.int64())]
        ),
    )
