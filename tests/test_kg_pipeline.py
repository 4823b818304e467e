"""End-to-end KG pipeline tests: golden P/R gate, invariants, resume."""

from __future__ import annotations

import hashlib
import os
import shutil

import pyarrow.parquet as pq
import pytest

from folkscope_ray.pipelines.kg import build_kg
from folkscope_ray.pipelines.oracle import oracle_triples, precision_recall
from folkscope_ray.relations import N_RELATIONS
from kg_expect import assert_triples_group_eventualities


@pytest.fixture(scope="module")
def triples_df(kg_200):
    return kg_200.triples().to_pandas()


def test_prompt_fanout_invariant(kg_200):
    n_pairs = kg_200.pairs().count()
    n_prompts = kg_200.pairs().map_batches(
        __import__("folkscope_ray.stages.prompts", fromlist=["expand_prompts"]).expand_prompts,
        batch_format="pyarrow",
    ).count()
    assert n_prompts == n_pairs * N_RELATIONS


def test_triples_match_oracle(triples_df):
    golden = oracle_triples(200)
    p, r = precision_recall(triples_df, golden)
    assert p >= 0.95 and r >= 0.95, (p, r)
    # scores and support agree exactly on the intersection
    m = triples_df.merge(golden, on=["subj", "pred", "obj"], suffixes=("_a", "_b"))
    assert (m["support_a"] == m["support_b"]).all()
    assert (abs(m["plausibility_a"] - m["plausibility_b"]) < 1e-12).all()


def test_triples_are_grouped_eventualities(kg_200):
    assert_triples_group_eventualities(kg_200)


@pytest.mark.parametrize("checkpointed", [False, True])
def test_corpus_without_entity_pairs_keeps_product_schemas(tmp_path,
                                                           checkpointed):
    """A one-file corpus with no entity pair: every product has 0 rows and
    its usual columns, in memory and with a run_dir."""
    import pyarrow as pa

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(pa.table({"repo": ["r"], "path": ["a.py"], "commit": ["c"],
                             "lang": ["python"], "content": ["x = 1\n"]}),
                   str(src / "part-0.parquet"))
    kg = build_kg(str(src),
                  run_dir=str(tmp_path / "run") if checkpointed else None)
    assert kg.pairs().count() == 0
    for name in ("assertions", "scored"):
        assert {"surf_a", "surf_b", "rel", "assertion", "plausibility"} \
            <= set(getattr(kg, name)().schema().names), name
    ev, tri = kg.eventualities(), kg.triples()
    assert ev.count() == tri.count() == 0
    assert {"eid", "words", "canon_a", "canon_b", "frequency", "repo"} \
        <= set(ev.schema().names)
    assert tri.schema().names == [
        "subj", "pred", "obj", "support", "frequency", "plausibility",
        "typicality", "repo", "path", "commit", "content_sha256"]


def test_sha256_lineage_invariant(triples_df, corpus_200):
    src = pq.read_table(corpus_200).to_pandas()
    src["sha"] = src["content"].map(lambda c: hashlib.sha256(c.encode()).hexdigest())
    m = triples_df.merge(src, on=["repo", "path", "commit"], how="left")
    assert m["sha"].notna().all()
    assert (m["sha"] == m["content_sha256"]).all()


def test_eventuality_merge_math(kg_200):
    ev = kg_200.eventualities_merged().to_pandas()
    assert ev["eid"].is_unique
    # frequency is the sum of per-occurrence frequencies (1.0 each)
    assert (ev["frequency"] == ev["support"]).all()


def test_concept_cid_is_sha1_of_words(kg_200):
    import hashlib as h

    cdf = kg_200.concepts().to_pandas().head(50)
    for _, row in cdf.iterrows():
        assert row["cid"] == h.sha1(" ".join(row["concept_words"]).encode()).hexdigest()


def test_resume_skips_completed_stages(corpus_200, tmp_path):
    run_dir = str(tmp_path / "run")
    kg1 = build_kg(corpus_200, run_dir=run_dir)
    t1 = kg1.triples().to_pandas()
    manifests = {
        f: os.path.getmtime(os.path.join(run_dir, f))
        for f in os.listdir(run_dir)
        if f.endswith(".manifest.json")
    }
    # the triples path checkpoints scored/patterns/triples; the per-event
    # "eventualities" checkpoint belongs to the eventuality product path
    # (triples fuse match->partials without materializing per-event rows)
    assert {"scored.manifest.json", "patterns.manifest.json",
            "triples.manifest.json"} <= set(manifests)

    kg2 = build_kg(corpus_200, run_dir=run_dir)
    t2 = kg2.triples().to_pandas()
    manifests2 = {
        f: os.path.getmtime(os.path.join(run_dir, f))
        for f in os.listdir(run_dir)
        if f.endswith(".manifest.json")
    }
    assert manifests == manifests2  # nothing recomputed
    key = ["subj", "pred", "obj"]
    assert t1.sort_values(key).reset_index(drop=True)[key].equals(
        t2.sort_values(key).reset_index(drop=True)[key]
    )


def test_resume_invalidated_by_different_input(corpus_200, tmp_path):
    from folkscope_ray.state import manifest as mf

    run_dir = str(tmp_path / "run2")
    kg1 = build_kg(corpus_200, run_dir=run_dir)
    kg1.scored()
    fp_other = mf.fingerprint("scored", "/some/other/input.parquet")
    assert not mf.stage_complete(run_dir, "scored", fp_other)


def test_triples_partitioned_by_pred(corpus_200, tmp_path):
    run_dir = str(tmp_path / "run3")
    kg = build_kg(corpus_200, run_dir=run_dir)
    kg.triples().count()
    tdir = os.path.join(run_dir, "triples")
    parts = [d for d in os.listdir(tdir) if d.startswith("pred=")]
    assert len(parts) >= 15  # most of the 20 extractable relations present
    m = mfst = os.path.join(run_dir, "triples.manifest.json")
    assert os.path.exists(mfst)


def test_hot_entity_skew_handled(kg_200):
    """The fixture plants config_loader in ~30% of files (FIXTURES.md §1);
    the canonicalization path must bound per-reducer work (map-side partial
    dedup) and still cluster every variant of the hot entity."""
    pairs = kg_200.pairs().to_pandas()
    from folkscope_ray.stages.canonicalize import normalize_surface

    hot_frac = (
        pairs[["surf_a", "surf_b"]]
        .apply(lambda c: c.map(lambda s: normalize_surface(s).startswith("configloader")))
        .any(axis=1)
        .mean()
    )
    assert hot_frac > 0.15  # the skew is really in the data (~30% of FILES;
    # pair-row share is diluted by multi-pair files)
    canon = kg_200.canonical_map()
    hot_variants = [n for n in canon if n.startswith("configloader")]
    assert len(hot_variants) >= 2
    assert {canon[n] for n in hot_variants} == {"configloader"}


def test_single_entity_prompt_fanout():
    import pyarrow as pa

    from folkscope_ray.relations import N_RELATIONS
    from folkscope_ray.stages.prompts import expand_single_prompts

    b = pa.table({"surf_a": ["json_parser", "lru_cache"]})
    out = expand_single_prompts(b)
    assert out.num_rows == 2 * N_RELATIONS
    prompts = out.column("prompt").to_pylist()
    assert all(p.startswith('The project uses "') for p in prompts)
    assert any("the component is" in p for p in prompts)


def test_run_metrics(corpus_200, tmp_path):
    import json

    run_dir = str(tmp_path / "mrun")
    kg = build_kg(corpus_200, run_dir=run_dir)
    kg.triples().count()
    m = kg.run_metrics()
    assert m["scored"]["rows"] > 0 and m["triples"]["rows"] > 0
    assert m["n_patterns"] > 0 and m["n_canonical_entities"] <= m["n_surfaces"]
    assert json.load(open(f"{run_dir}/metrics.json"))["triples"]["rows"] == m["triples"]["rows"]


def test_concept_triples(kg_200):
    ct = kg_200.concept_triples().to_pandas()
    assert len(ct) > 0
    assert set(ct.columns) == {"subj", "pred", "obj", "support", "score"}
    # concept objects use dashed multiword concepts from the taxonomy
    assert ct["obj"].str.contains("-").any()
    assert (ct["support"] >= 1).all() and (ct["score"] > 0).all()


def test_fingerprint_invalidated_by_content_and_config(corpus_200, tmp_path, monkeypatch):
    """Rewriting the source IN PLACE or changing a stage config constant must
    change the chained stage fingerprints (silent-stale-resume guard)."""
    import shutil

    from folkscope_ray.state import manifest as mf

    src2 = str(tmp_path / "copy_corpus")
    if os.path.isdir(corpus_200):
        shutil.copytree(corpus_200, src2)
    else:
        shutil.copy(corpus_200, src2)
    kg_a = build_kg(src2)
    fp_a = {s: kg_a._fp(s) for s in ("scored", "patterns", "triples")}

    # same path, new mtime/bytes -> every stage fp changes
    victim = src2
    if os.path.isdir(src2):
        for root, _d, files in os.walk(src2):
            if files:
                victim = os.path.join(root, files[0])
                break
    os.utime(victim, ns=(1, 1))
    kg_b = build_kg(src2)
    fp_b = {s: kg_b._fp(s) for s in ("scored", "patterns", "triples")}
    assert all(fp_a[s] != fp_b[s] for s in fp_a)

    # config change -> the owning stage AND everything downstream change
    import folkscope_ray.stages.mine as mine

    monkeypatch.setattr(mine, "MIN_SUPPORT", mine.MIN_SUPPORT + 1)
    kg_c = build_kg(src2)
    fp_c = {s: kg_c._fp(s) for s in ("scored", "patterns", "triples")}
    assert fp_c["scored"] == fp_b["scored"]
    assert fp_c["patterns"] != fp_b["patterns"]
    assert fp_c["triples"] != fp_b["triples"]


def test_ner_mentions_flow_and_merge_semantics(kg_200):
    """NER columns flow parse -> eventualities -> eid merge -> concepts
    (reference utils.py:292-299 / object.py:145-156), and the merge math
    implements the frequency-weighted Counter promotion."""
    import json

    from folkscope_ray.patterns import merge_mention_lists, merge_ner_lists

    ev = kg_200.eventualities().to_pandas()
    assert {"ev_ners", "ev_mentions"} <= set(ev.columns)
    assert (ev["ev_ners"].map(len) == ev["words"].map(len)).all()
    typed = [n for ns in ev["ev_ners"] for n in ns if n != "O"]
    assert typed, "closed-world NER produced no typed tokens"

    merged = kg_200.eventualities_merged().to_pandas()
    assert {"ners", "mentions"} <= set(merged.columns)
    some = merged[merged["mentions"].map(len) > 0]
    assert len(some) > 0
    m0 = some.iloc[0]["mentions"][0]
    assert set(m0) == {"start", "end", "text", "ner"}
    # ners JSON aligns positionally with words
    r0 = merged.iloc[0]
    assert len(json.loads(r0["ners"])) == len(r0["words"])

    # Counter-promotion semantics (object.py:145-153): agree -> str stays;
    # disagree -> frequency-weighted dict accumulating across occurrences
    out = merge_ner_lists([
        (["O", "PERSON"], 2.0),
        (["O", "CITY"], 1.0),
        (["O", "CITY"], 3.0),
    ])
    assert out[0] == "O"
    assert out[1] == {"PERSON": 2.0, "CITY": 4.0}
    ms = merge_mention_lists([
        [{"start": 0, "end": 1, "text": "a", "ner": "CITY"}],
        [{"start": 2, "end": 3, "text": "b", "ner": "PERSON"},
         {"start": 0, "end": 1, "text": "a", "ner": "CITY"}],
    ])
    assert [m["start"] for m in ms] == [0, 2]


def test_seed_rule_concepts_emitted(kg_200):
    """The seed-rule conceptualizer is wired into concepts(): placeholder
    rewrites (__PERSON__k / __TYPE__k) appear with score 1.0."""
    cdf = kg_200.concepts().to_pandas()
    seeded = cdf[cdf["concept_words"].map(
        lambda ws: any(w.startswith("__") for w in ws))]
    assert len(seeded) > 0
    assert (seeded["score"] == 1.0).all()


def test_edge_features_embedding_contract(kg_200):
    """T7: edge texts embed deterministically to unit-norm vectors; identical
    texts embed identically; the embedding stage preserves edge rows."""
    import numpy as np

    from folkscope_ray.stages.embed import EMBED_DIM, _DeterministicSentenceModel

    feats = kg_200.edge_features().to_pandas()
    n_triples = len(kg_200.triples().to_pandas())
    assert len(feats) == n_triples
    v0 = np.asarray(feats.iloc[0]["embedding"])
    assert v0.shape == (EMBED_DIM,)
    assert abs(np.linalg.norm(v0) - 1.0) < 1e-9
    # same text -> same embedding, across fresh model instances
    m1, m2 = _DeterministicSentenceModel(64), _DeterministicSentenceModel(64)
    a, b = m1.encode(["be adaptive cache"]), m2.encode(["be adaptive cache"])
    assert np.allclose(a, b)
    # token overlap -> higher cosine than disjoint tokens
    x = m1.encode(["be adaptive cache", "be adaptive queue", "zig zag zip"])
    cos_close = float(x[0] @ x[1])
    cos_far = float(x[0] @ x[2])
    assert cos_close > cos_far


def test_incremental_build_matches_full(corpus_200, kg_200, tmp_path):
    """Sharded/incremental build: shards pay generation once into their own
    scored checkpoints; the union pipeline's products equal the monolithic
    rebuild EXACTLY, and re-running skips the shard work."""
    import pyarrow as pa

    from folkscope_ray.pipelines.kg import build_kg_incremental

    full = kg_200.triples().to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)

    # split the 200-file corpus into two shard parquet files
    t = pq.read_table(corpus_200)
    sh = [str(tmp_path / "shard_a.parquet"), str(tmp_path / "shard_b.parquet")]
    pq.write_table(t.slice(0, 120), sh[0])
    pq.write_table(t.slice(120), sh[1])

    run_dir = str(tmp_path / "inc_run")
    inc = build_kg_incremental(sh, run_dir=run_dir)
    got = inc.triples().to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    cols = ["subj", "pred", "obj", "support", "frequency",
            "plausibility", "typicality"]
    assert got[cols].equals(full[cols])

    # resume: shard scored manifests untouched, union read back identical —
    # and the rerun REVERSES the shard list: checkpoint dirs are keyed by
    # source-path hash (not list position) and the union identity is
    # canonicalized, so reordering must resume everything, rebuild nothing
    from folkscope_ray.pipelines.kg import shard_dir_name

    manifests = [os.path.join(run_dir, shard_dir_name(s),
                              "scored.manifest.json") for s in sh]
    union_manifest = os.path.join(run_dir, "union", "triples.manifest.json")
    m0 = [os.path.getmtime(p) for p in manifests + [union_manifest]]
    inc2 = build_kg_incremental(list(reversed(sh)), run_dir=run_dir)
    got2 = inc2.triples().to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    assert got2[cols].equals(full[cols])
    assert [os.path.getmtime(p) for p in manifests + [union_manifest]] == m0


def test_generator_stage_accepts_production_actor_signature(corpus_200):
    """T1 real-LM seam contract (BASELINE.md: OPT-30B actor, weights loaded
    once per actor in __init__, fixed internal inference batches): the
    generator stage must accept a GPU-shaped actor class — constructor
    kwargs (model path / device / n_gens), actor-pool ``concurrency``,
    per-actor resource knobs — with NO other pipeline change, and produce
    byte-identical output to the stateless MockGenerator task path."""
    import pyarrow as pa
    import ray.data as rd

    from folkscope_ray.stages.generate import GEN_BATCH_SIZE, MockGenerator
    from folkscope_ray.stages.ingest import ingest_batch, pairs_batch
    from folkscope_ray.stages.prompts import expand_prompts

    class RealGeneratorStub:
        """Production actor signature: heavyweight __init__ (model load),
        __call__ slicing into fixed inference batches — delegates to the
        deterministic template LM so outputs stay comparable."""

        def __init__(self, model_path: str, device: str, n_gens: int = 3,
                     max_memory_gb: int = 32):
            assert model_path and device and max_memory_gb > 0
            self._inner = MockGenerator(n_gens=n_gens)  # "weights" load once

        def __call__(self, batch: pa.Table) -> pa.Table:
            return self._inner(batch)

    prompts = (rd.read_parquet(corpus_200, override_num_blocks=8)
               .map_batches(ingest_batch, batch_format="pyarrow")
               .map_batches(pairs_batch, batch_format="pyarrow")
               .map_batches(expand_prompts, batch_format="pyarrow"))
    task_path = prompts.map_batches(MockGenerator(), batch_format="pyarrow",
                                    batch_size=None).to_pandas()
    actor_path = prompts.map_batches(
        RealGeneratorStub,
        batch_format="pyarrow",
        batch_size=None,                 # fixed batching is INTERNAL
        concurrency=2,                   # actor pool, as a GPU deploy would
        num_cpus=1,                      # num_gpus=1 in a real deployment
        fn_constructor_kwargs={"model_path": "facebook/opt-30b",
                               "device": "cpu", "n_gens": 3},
    ).to_pandas()
    cols = sorted(task_path.columns)
    assert sorted(actor_path.columns) == cols
    a = task_path[cols].sort_values(cols).reset_index(drop=True)
    b = actor_path[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)
    assert len(a) > 0 and GEN_BATCH_SIZE > 0


def test_in_memory_concept_triples_run_the_memo_join_once(kg_200, monkeypatch,
                                                          tmp_path):
    """In memory the eventualities stream is the memo join; concept_triples
    feeds both sides of its join from one materialization, so the join sees
    each scored row once.  The pipeline shares kg_200's upstream products
    and redoes the eventualities."""
    from folkscope_ray.pipelines.kg import KGPipeline
    from folkscope_ray.stages import match

    log = str(tmp_path / "rows")
    orig = match.make_match_from_memo_fn

    def counting(*args):
        fn = orig(*args)

        def wrapped(batch):
            with open(log, "a") as f:  # the join runs in worker processes
                f.write(f"{batch.num_rows}\n")
            return fn(batch)
        return wrapped

    monkeypatch.setattr(match, "make_match_from_memo_fn", counting)
    kg = KGPipeline(kg_200.source_path)
    kg._cache.update({k: v for k, v in kg_200._cache.items()
                      if k not in ("events", "triples")})
    assert kg.concept_triples().count() > 0
    with open(log) as f:
        seen = sum(int(line) for line in f)
    assert seen == kg.scored().count()
