"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline; ``queries()`` exposes one callable
per implemented operator family from SURVEY.md §2 over the driver's parquet
tables (plus the KG pipeline over the deterministic synthetic source-code
corpus mandated by BASELINE.json's input_hint); ``oracle_sql()`` gives the
DuckDB-equivalent SQL for every SQL-expressible query.  Ray is initialised by
the driver — nothing here calls ray.init()/ray.shutdown().

Column names in each Ray result match the SQL aliases exactly (the driver
hashes values after sorting columns by name).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# the committed golden fixtures the fixture-backed oracle SQL reads
_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "fixtures", "sf0.01")


def _rp(sf_dir: str, table: str, columns: list[str] | None = None):
    import ray.data as rd

    # projection belongs in the read call: only the named columns leave
    # storage (row-group pruning + no wasted decode), instead of relying on
    # select_columns pushdown downstream
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _round_cols(ds, ndigits: dict[str, int]):
    """Quantize float aggregate columns so hash-compare vs the SQL oracle is
    bit-exact: double summation order differs between engines, and even
    round(x, n) can land on adjacent doubles.  Both sides therefore compute
    round(x * 10^n) as an exact int64 and divide by the same 10^n double —
    IEEE division of identical operands is bit-identical everywhere."""

    def fn(b: pa.Table) -> pa.Table:
        for col, nd in ndigits.items():
            i = b.column_names.index(col)
            scale = float(10 ** nd)
            q = pc.cast(pc.round(pc.multiply(b.column(col), scale)), pa.int64())
            b = b.set_column(i, col, pc.divide(pc.cast(q, pa.float64()), scale))
        return b

    return ds.map_batches(fn, batch_format="pyarrow")


# --------------------------------------------------------------- flagship

def entry() -> Any:
    """KG triples over the synthetic source-code corpus at smoke scale."""
    from folkscope_ray.pipelines.kg import build_kg
    from folkscope_ray.synth import corpus_for_sf

    return build_kg(corpus_for_sf("/root/testdata/sf0.001")).triples()


# --------------------------------------------------------------- queries

def _q_tpch_q1(sf_dir: str):
    from folkscope_ray.ops.relational import map_combine_aggregate

    # projection pushdown: 5 of 11 lineitem columns leave the parquet reader
    ds = _rp(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def revenue(b: pa.Table) -> pa.Table:
        disc = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return b.append_column("disc_price", disc)

    # map-side combine: each block shuffles 6 partial rows, not 600k rows
    agg = map_combine_aggregate(
        ds.map_batches(revenue, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        sums={"l_quantity": "sum_qty", "l_extendedprice": "sum_base_price",
              "disc_price": "sum_disc_price"},
        count_alias="count_order",
    )

    def avg(b: pa.Table) -> pa.Table:
        return b.append_column(
            "avg_qty", pc.divide(b["sum_qty"],
                                 pc.cast(b["count_order"], pa.float64())))

    out = agg.map_batches(avg, batch_format="pyarrow")
    return _round_cols(out, {"sum_base_price": 2, "sum_disc_price": 2, "avg_qty": 6})


def _q_groupby_count_docs(sf_dir: str):
    from folkscope_ray.ops.relational import map_combine_aggregate

    # pruned read + map-side combine: only (lang, source, n) partials shuffle
    return map_combine_aggregate(
        _rp(sf_dir, "documents", ["lang", "source"]),
        keys=["lang", "source"], count_alias="n",
    )


def _q_filter_project_events(sf_dir: str):
    ds = _rp(sf_dir, "events", ["event_id", "user_id", "value", "event_type"])
    return ds.map_batches(
        lambda b: b.filter(
            pc.and_(pc.equal(b["event_type"], "click"), pc.greater(b["value"], 50.0))
        ).select(["event_id", "user_id", "value"]),
        batch_format="pyarrow",
    )


def _q_topk_orders(sf_dir: str):
    return (
        _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


def _q_exact_dedup_docs(sf_dir: str):
    from folkscope_ray.ops.dedup import exact_dedup

    return exact_dedup(_rp(sf_dir, "documents"), text_col="text", id_col="doc_id")


def _q_first_wins_by_source(sf_dir: str):
    from folkscope_ray.ops.relational import map_combine_aggregate

    return map_combine_aggregate(
        _rp(sf_dir, "documents", ["source", "doc_id"]),
        keys=["source"], mins={"doc_id": "keep_id"}, count_alias="n",
    )


def _q_broadcast_join_orders(sf_dir: str):
    from folkscope_ray.ops.relational import broadcast_join, map_combine_aggregate

    cust = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    joined = broadcast_join(
        _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"]), cust, on="o_custkey"
    )
    out = map_combine_aggregate(
        joined, keys=["c_mktsegment"],
        sums={"o_totalprice": "total"}, count_alias="n_orders",
    )
    return _round_cols(out, {"total": 2})


def _q_hash_join_lineitem_orders(sf_dir: str):
    from folkscope_ray.ops.relational import hash_join, map_combine_aggregate

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])

    def ren(b: pa.Table) -> pa.Table:
        return b.rename_columns(["o_orderkey", "l_extendedprice"])

    li = li.map_batches(ren, batch_format="pyarrow")
    od = _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = hash_join(li, od, on="o_orderkey")
    out = map_combine_aggregate(
        joined, keys=["o_orderpriority"],
        sums={"l_extendedprice": "sum_price"}, count_alias="n_items",
    )
    return _round_cols(out, {"sum_price": 2})


def _q_anti_join_customers(sf_dir: str):
    from folkscope_ray.ops.relational import anti_join

    order_keys = set(
        _rp(sf_dir, "orders", ["o_custkey"]).to_pandas()["o_custkey"]
    )
    import pandas as pd

    df = anti_join(
        _rp(sf_dir, "customer", ["c_custkey", "c_name"]),
        order_keys,
        on="c_custkey",
    ).to_pandas()
    if df.empty:  # keep a stable schema even when no row survives
        df = pd.DataFrame(
            {"c_custkey": pd.Series([], dtype="int64"),
             "c_name": pd.Series([], dtype="object")}
        )
    return df


def _q_salted_agg_events(sf_dir: str):
    from folkscope_ray.ops.relational import salted_aggregate

    out = salted_aggregate(_rp(sf_dir, "events"), key="event_type", value="value")
    return _round_cols(out, {"sum_value": 2})


def _q_tumbling_window_events(sf_dir: str):
    from folkscope_ray.ops.relational import tumbling_window

    out = tumbling_window(
        _rp(sf_dir, "events"), ts_col="ts", key_col="user_id",
        value_col="value", window_s=3600,
    )
    return _round_cols(out, {"sum_value": 2, "mean_value": 6})


def _q_sliding_window_events(sf_dir: str):
    """1h windows hopping every 15min: each event fans out to exactly 4
    windows (vectorized repeat), then one (key, window) aggregate."""
    from folkscope_ray.ops.relational import sliding_window

    out = sliding_window(
        _rp(sf_dir, "events"), ts_col="ts", key_col="user_id",
        value_col="value", window_s=3600, slide_s=900,
    )
    return _round_cols(out, {"sum_value": 2})


def _q_token_count_docs(sf_dir: str):
    from folkscope_ray.ops.text import token_count_batch

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "n_words"])
    )


def _q_doc_length_cdf(sf_dir: str):
    from ray.data.aggregate import Count

    def bucket(b: pa.Table) -> pa.Table:
        buck = pc.cast(pc.floor(pc.divide(pc.cast(b["n_chars"], pa.float64()), 100.0)), pa.int64())
        return b.append_column("len_bucket", buck)

    from folkscope_ray.ops.relational import map_combine_aggregate

    return map_combine_aggregate(
        _rp(sf_dir, "documents", ["n_chars"])
        .map_batches(bucket, batch_format="pyarrow")
        .select_columns(["len_bucket"]),
        keys=["len_bucket"], count_alias="n",
    )


def _q_sort_limit_parts(sf_dir: str):
    return (
        _rp(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
        .sort(["p_retailprice", "p_partkey"], descending=[True, False])
        .limit(5)
    )


def _q_distinct_event_types(sf_dir: str):
    from folkscope_ray.ops.relational import map_combine_aggregate

    return map_combine_aggregate(
        _rp(sf_dir, "events", ["event_type"]),
        keys=["event_type"], count_alias="n",
    )


def _q_ann_cosine_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 embedding (broadcast query)."""
    import pandas as pd

    from folkscope_ray.ops.similarity import brute_force_topk

    emb = _rp(sf_dir, "embeddings")
    q = (
        emb.map_batches(
            lambda b: b.filter(pc.equal(b["vec_id"], 0)), batch_format="pyarrow"
        )
        .to_pandas()["embedding"].iloc[0]
    )
    rest = emb.map_batches(
        lambda b: b.filter(pc.not_equal(b["vec_id"], 0)), batch_format="pyarrow"
    )
    # quantize BEFORE top-k selection (vec_id-asc tiebreak), mirroring the
    # oracle's ORDER BY round(cosine) DESC, vec_id — boundary-collision safe
    out = brute_force_topk(rest, np.asarray([q], dtype=np.float64), k=10,
                           quantize_digits=6)
    return out.drop(columns=["query_id"])


def _q_events_per_day(sf_dir: str):
    from ray.data.aggregate import Count

    def day(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.floor(pc.divide(pc.cast(b["ts"], pa.int64()), 86_400_000_000.0)), pa.int64())
        return b.append_column("day_idx", d)

    from folkscope_ray.ops.relational import map_combine_aggregate

    return map_combine_aggregate(
        _rp(sf_dir, "events", ["ts"])
        .map_batches(day, batch_format="pyarrow"),
        keys=["day_idx"], count_alias="n",
    )


def _q_region_nation_join(sf_dir: str):
    from ray.data.aggregate import Count

    from folkscope_ray.ops.relational import broadcast_join

    reg = _rp(sf_dir, "region").to_pandas().rename(columns={"r_regionkey": "n_regionkey"})
    joined = broadcast_join(_rp(sf_dir, "nation"), reg, on="n_regionkey")
    return joined.groupby("r_name").aggregate(Count(alias_name="n_nations"))


def _q_acctbal_stats_by_nation(sf_dir: str):
    from folkscope_ray.ops.relational import map_combine_aggregate

    agg = map_combine_aggregate(
        _rp(sf_dir, "customer", ["c_nationkey", "c_acctbal"]),
        keys=["c_nationkey"],
        sums={"c_acctbal": "__sum_bal"},
        mins={"c_acctbal": "min_bal"}, maxs={"c_acctbal": "max_bal"},
        count_alias="n",
    )

    def mean(b: pa.Table) -> pa.Table:
        avg = pc.divide(b["__sum_bal"], pc.cast(b["n"], pa.float64()))
        return b.append_column("avg_bal", avg).drop_columns(["__sum_bal"])

    return _round_cols(agg.map_batches(mean, batch_format="pyarrow"),
                       {"avg_bal": 6})


def _q_avg_doc_len_by_lang(sf_dir: str):
    from folkscope_ray.ops.relational import map_combine_aggregate

    agg = map_combine_aggregate(
        _rp(sf_dir, "documents", ["lang", "n_chars"]),
        keys=["lang"], sums={"n_chars": "__s"}, count_alias="n",
    )

    def mean(b: pa.Table) -> pa.Table:
        avg = pc.divide(pc.cast(b["__s"], pa.float64()),
                        pc.cast(b["n"], pa.float64()))
        return b.append_column("avg_chars", avg).drop_columns(["__s"])

    return _round_cols(agg.map_batches(mean, batch_format="pyarrow"),
                       {"avg_chars": 6})


# ---------------------------------------------- non-SQL-expressible queries

_KG_CACHE: dict = {}


def _kg_for(sf_dir: str):
    """One shared KGPipeline per sf_dir so the three kg_* queries reuse the
    parsed checkpoint / pattern / canonical-map barriers."""
    from folkscope_ray.pipelines.kg import build_kg
    from folkscope_ray.synth import corpus_for_sf

    src = corpus_for_sf(sf_dir)
    if src not in _KG_CACHE:
        _KG_CACHE[src] = build_kg(src)
    return _KG_CACHE[src]


def _q_kg_triples(sf_dir: str):
    return _kg_for(sf_dir).triples()


def _q_kg_eventualities(sf_dir: str):
    """Merged eventualities with nested columns serialized to canonical JSON
    strings — the driver's value-hash compare (and the parquet golden
    fixture) then sees a flat, engine-neutral schema."""
    import json

    ds = _kg_for(sf_dir).eventualities_merged()

    def flatten(b: pa.Table) -> pa.Table:
        def j(col):
            return pa.array(
                [json.dumps(x, sort_keys=True) for x in b.column(col).to_pylist()],
                pa.string(),
            )

        return pa.table(
            {
                "eid": b.column("eid"),
                "words_json": j("words"),
                "pos_json": j("ev_pos_tags"),
                "deps_json": j("ev_deps"),
                "skeleton_json": j("skeleton_indices"),
                "pattern": b.column("pattern"),
                "rel": b.column("rel"),
                "ners": b.column("ners"),
                "mentions_json": j("mentions"),
                "frequency": b.column("frequency"),
                "support": b.column("support"),
            }
        )

    return ds.map_batches(flatten, batch_format="pyarrow")


def _q_kg_parse_strings(sf_dir: str):
    """Constituency ``parse`` column parity (reference parsed dicts carry a
    whitespace-normalized bracketing, src/pattern/utils.py:296-297): distinct
    (rel, parse) shapes with row counts over the fully parsed corpus.
    Map-side combine — the shuffle moves the bracketing VOCABULARY (closed
    template grammar), never the row stream."""
    from folkscope_ray.ops.relational import map_combine_aggregate

    parsed = _kg_for(sf_dir).parsed().select_columns(["rel", "parse"])
    return map_combine_aggregate(parsed, ["rel", "parse"], count_alias="n")


def _q_kg_concept_agg(sf_dir: str):
    return _kg_for(sf_dir).concept_agg()


def _q_kg_concept_triples(sf_dir: str):
    return _kg_for(sf_dir).concept_triples()


def _q_edge_features(sf_dir: str):
    """T7 feature path end-to-end: embed every KG edge text (SBERT-contract
    actor pool), mean-pool per relation — (pred, dim, mean_val)."""
    import pandas as pd

    from folkscope_ray.ops.vector import mean_vector_by_key

    feats = _kg_for(sf_dir).edge_features()
    # fixed-point partials: bit-identical across parallelism levels, so the
    # committed golden fixture matches whatever num_cpus the driver uses
    out = mean_vector_by_key(feats, key_col="pred", vec_col="embedding",
                             fixed_point_digits=9)
    out["mean_val"] = np.round(out["mean_val"].to_numpy() * 1e6).astype(np.int64) / 1e6
    return out.rename(columns={"pred": "pred"}).sort_values(["pred", "dim"]).reset_index(drop=True)


def _q_transe_embeddings(sf_dir: str):
    """G9 trainer path: TransE over the KG triples (distributed synchronous
    epochs, bit-deterministic fixed-point gradients).  Output: the first
    1000 entities' embeddings, exploded (entity, dim, value) — a
    deterministic subset so the fixture stays small; training covers the
    full graph."""
    import pandas as pd

    from folkscope_ray.stages.transe import train_transe

    entities, _rels, ent_emb, _rel_emb = train_transe(
        _kg_for(sf_dir).triples(), dim=16, epochs=3, lr=0.05
    )
    rows = []
    for i, e in enumerate(entities[:1000]):
        for d in range(ent_emb.shape[1]):
            rows.append({"entity": e, "dim": d,
                         "value": float(np.round(ent_emb[i, d] * 1e6) / 1e6)})
    return pd.DataFrame(rows)


def _rec_interactions(sf_dir: str):
    """Shared (user=repo, item=entity, rating, split) matrix for the two
    recommender queries, materialized once per sf_dir."""
    from folkscope_ray.stages.recommend import build_interactions

    key = "rec_inter:" + sf_dir
    if key not in _KG_CACHE:
        _KG_CACHE[key] = build_interactions(
            _kg_for(sf_dir).eventualities()
        ).materialize()
    return _KG_CACHE[key]


def _q_ncf_recommender(sf_dir: str):
    """G9 NCF trainer path (run_NCF.py:25-63 semantics, fixed-point int64
    forward/backward => bit-identical at any parallelism): trains on the
    KG-derived (repo, entity) rating matrix, returns test-split predictions
    from the best-validation epoch."""
    from folkscope_ray.stages.recommend import predict_test, train_recommender

    inter = _rec_interactions(sf_dir)
    params, uv, iv, feat, _hist = train_recommender(
        inter, epochs=15, eval_every=5)
    return (
        predict_test(inter, params, uv, iv, feat)
        .to_pandas().sort_values(["user", "item"]).reset_index(drop=True)
    )


def _q_wnd_recommender(sf_dir: str):
    """G9 Wide&Deep trainer path (run_WnD.py:25-67): NCF plus a frozen
    per-item KG feature embedding (mean SBERT edge-text vector per entity,
    preprocess.py:207-240) feeding deep + wide heads."""
    from folkscope_ray.stages.recommend import (
        item_feature_vectors,
        predict_test,
        train_recommender,
    )

    inter = _rec_interactions(sf_dir)
    feats = item_feature_vectors(_kg_for(sf_dir).triples(), dim=32)
    params, uv, iv, feat, _hist = train_recommender(
        inter, item_features=feats, epochs=15, eval_every=5)
    return (
        predict_test(inter, params, uv, iv, feat)
        .to_pandas().sort_values(["user", "item"]).reset_index(drop=True)
    )


def _q_minhash_dedup_docs(sf_dir: str):
    """Distributed near-dup components — returns the (doc_id, component)
    Dataset straight from label propagation (no driver union-find)."""
    from folkscope_ray.ops.dedup import minhash_lsh_components_ds

    return minhash_lsh_components_ds(
        _rp(sf_dir, "documents"), text_col="text", id_col="doc_id"
    )


def _q_simhash_docs(sf_dir: str):
    from folkscope_ray.ops.dedup import simhash_batch

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(simhash_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "simhash"])
    )


def _q_fingerprint_docs(sf_dir: str):
    from folkscope_ray.ops.text import fingerprint_batch

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(fingerprint_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "fingerprint"])
    )


def _q_langid_quality_docs(sf_dir: str):
    from folkscope_ray.ops.text import LangId, quality_batch

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(quality_batch, batch_format="pyarrow")
        .map_batches(LangId, batch_format="pyarrow", concurrency=(1, 4))
        .select_columns(["doc_id", "quality_score", "stop_ratio", "lang_guess"])
    )


def _q_multimodal_image_features(sf_dir: str):
    import ray.data as rd

    from folkscope_ray.ops.multimodal import ImageFeatures, synthetic_media_table

    media = rd.from_arrow(synthetic_media_table(300))
    feats = media.map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=32, concurrency=(1, 4)
    )

    def flatten(b: pa.Table) -> pa.Table:  # flat schema for the fixture oracle
        means = b.column("channel_mean").to_pylist()
        stds = b.column("channel_std").to_pylist()
        cols = {"media_id": b.column("media_id"), "phash": b.column("phash")}
        for i, ch in enumerate(("r", "g", "b")):
            cols[f"mean_{ch}"] = pa.array([m[i] for m in means], pa.float64())
            cols[f"std_{ch}"] = pa.array([s[i] for s in stds], pa.float64())
        return pa.table(cols)

    return feats.map_batches(flatten, batch_format="pyarrow")


def _q_multimodal_frame_sample(sf_dir: str):
    import ray.data as rd

    from folkscope_ray.ops.multimodal import FrameSampler, synthetic_media_table

    media = rd.from_arrow(synthetic_media_table(300))
    return media.map_batches(
        FrameSampler, batch_format="pyarrow", batch_size=32, concurrency=(1, 4)
    )


def _q_embedding_neardup_pairs(sf_dir: str):
    """Exact embedding-cosine near-dup pairs (a < b, quantized cosine >= tau).
    tau=0.4 because the synthetic embeddings are near-orthogonal (max pair
    cosine ~0.51); real corpora use ~0.9-0.97."""
    from folkscope_ray.ops.similarity import embedding_neardup_pairs

    return embedding_neardup_pairs(_rp(sf_dir, "embeddings"), tau=0.4)


def _q_embedding_neardup_components(sf_dir: str):
    """Near-dup clusters: pairs -> distributed min-label propagation ->
    (vec_id, component) over every vector (isolated ones are their own
    component) — the keep-rule is component == vec_id."""
    from folkscope_ray.ops.similarity import embedding_neardup_components

    return embedding_neardup_components(_rp(sf_dir, "embeddings"), tau=0.4)


def _q_ann_lsh_topk(sf_dir: str):
    import ray

    from folkscope_ray.ops.similarity import LshTopK, hyperplanes

    emb = _rp(sf_dir, "embeddings")
    q = (
        emb.map_batches(lambda b: b.filter(pc.equal(b["vec_id"], 0)), batch_format="pyarrow")
        .to_pandas()["embedding"].iloc[0]
    )
    rest = emb.map_batches(
        lambda b: b.filter(pc.not_equal(b["vec_id"], 0)), batch_format="pyarrow"
    )
    planes = hyperplanes(len(q), n_planes=6)
    partials = rest.map_batches(
        LshTopK,
        batch_format="pyarrow",
        fn_constructor_kwargs={
            "queries_ref": ray.put(np.asarray([q], dtype=np.float64)),
            "planes_ref": ray.put(planes),
            "k": 10,
            "quantize_digits": 6,  # quantize BEFORE top-k: batch-boundary safe
        },
        concurrency=(1, 4),
    ).to_pandas()
    out = partials.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(10)
    return out.drop(columns=["query_id"]).reset_index(drop=True)


def _q_ann_ivf_topk(sf_dir: str):
    """IVF ANN: deterministic k-means coarse quantizer + 4-of-16 probe."""
    from folkscope_ray.ops.similarity import ivf_topk

    emb = _rp(sf_dir, "embeddings")
    q = (
        emb.map_batches(lambda b: b.filter(pc.equal(b["vec_id"], 0)),
                        batch_format="pyarrow")
        .to_pandas()["embedding"].iloc[0]
    )
    rest = emb.map_batches(
        lambda b: b.filter(pc.not_equal(b["vec_id"], 0)), batch_format="pyarrow"
    )
    out = ivf_topk(rest, np.asarray([q], dtype=np.float64), k=10,
                   n_centroids=16, n_probe=4, quantize_digits=6)
    return out.drop(columns=["query_id"])


def _q_session_windows_events(sf_dir: str):
    """Two-phase (chunked) sessionization — the 100-TB shape: a hot key's
    events never land in one group; chunk-boundary sessions stitch in a
    second, much smaller per-key pass (pytest-gated identical to the
    single-group path)."""
    from folkscope_ray.ops.relational import session_windows

    return session_windows(
        _rp(sf_dir, "events"), ts_col="ts", key_col="user_id",
        id_col="event_id", gap_s=1800, chunk_s=6 * 3600,
    )


def _q_asof_join_events(sf_dir: str):
    """As-of join (custom operator — Ray Data has none): every purchase
    event matched to the same user's latest preceding click.  Hash-bucketed
    co-partition of both sides + per-bucket vectorized merge_asof; no global
    sort."""
    import pyarrow.compute as pc

    from folkscope_ray.ops.relational import asof_join

    def typed(t: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("event_type"), t)).select(
                ["event_id", "user_id", "ts"])
        return fn

    ev = _rp(sf_dir, "events")
    joined = asof_join(
        ev.map_batches(typed("purchase"), batch_format="pyarrow"),
        ev.map_batches(typed("click"), batch_format="pyarrow"),
        key_col="user_id", on_col="ts",
    )

    def project(b: pa.Table) -> pa.Table:
        secs = pc.cast(pc.floor(pc.divide(pc.cast(
            pc.cast(b.column("ts"), pa.timestamp("us")), pa.int64()), 1e6)),
            pa.int64())
        prev = pc.cast(pc.floor(pc.divide(pc.cast(
            pc.cast(b.column("ts_asof"), pa.timestamp("us")), pa.int64()), 1e6)),
            pa.int64())
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "secs": secs,
                "prev_secs": pc.fill_null(prev, -1),
            }
        )

    return joined.map_batches(project, batch_format="pyarrow")


_PRICE_BANDS = [("b0", 0.0, 920.0), ("b1", 920.0, 940.0),
                ("b2", 940.0, 960.0), ("b3", 960.0, 980.0),
                ("b4", 980.0, 10_000_000.0)]


def _q_range_join_parts(sf_dir: str):
    """Range (interval) join: parts banded by retail price — the small
    interval table broadcasts, each batch does one vectorized searchsorted
    (no shuffle); per-band aggregate in integer cents (order-exact)."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from folkscope_ray.ops.relational import range_join

    bands = pd.DataFrame(_PRICE_BANDS, columns=["band", "lo", "hi"])
    joined = range_join(
        _rp(sf_dir, "part", ["p_partkey", "p_retailprice"]),
        bands, value_col="p_retailprice",
    )

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("p_retailprice"), 100.0)),
                    pa.int64())
        return pa.table({"band": b.column("band"), "cents_each": c})

    return (
        joined.map_batches(cents, batch_format="pyarrow")
        .groupby("band")
        .aggregate(Count(alias_name="n_parts"),
                   Sum("cents_each", alias_name="cents"))
    )


def _q_topk_per_group_orders(sf_dir: str):
    """Top-3 orders per o_orderpriority by totalprice (per-group top-k) —
    via cap_per_key, so each block pre-prunes to <= 3 rows per in-block key
    and the shuffle moves at most blocks x keys x 3 rows."""
    from folkscope_ray.ops.split import cap_per_key

    return cap_per_key(
        _rp(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"]),
        key_col="o_orderpriority", n=3,
        order_cols=["o_totalprice", "o_orderkey"],
        ascending=[False, True])


def _q_dedup_keep_rows(sf_dir: str):
    """Rows that survive exact dedup (semi-join against the winner set)."""
    import pyarrow as _pa

    from folkscope_ray.ops.dedup import exact_dedup

    winners = exact_dedup(_rp(sf_dir, "documents")).to_pandas()["keep_id"]
    import ray as _ray

    wref = _ray.put(_pa.array(winners, _pa.int64()))

    def keep(batch: _pa.Table) -> _pa.Table:
        w = _ray.get(wref)
        return batch.filter(pc.is_in(batch.column("doc_id"), value_set=w))

    return (
        _rp(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
        .map_batches(keep, batch_format="pyarrow")
    )


def _q_mean_vector_by_label(sf_dir: str):
    from folkscope_ray.ops.vector import mean_vector_by_key

    out = mean_vector_by_key(_rp(sf_dir, "embeddings"), key_col="label", vec_col="embedding")
    out["mean_val"] = np.round(out["mean_val"].to_numpy() * 1e6).astype(np.int64) / 1e6
    return out


def _q_sample_mod_docs(sf_dir: str):
    """Deterministic key-mod sample (the reproducible analogue of the
    reference's seeded random pair sample, generation.py:24-30,178)."""
    return _rp(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 7), 0)),
        batch_format="pyarrow",
    )


_QUANTILES = [0.0, 0.25, 0.5, 0.75, 1.0]


def _q_price_quantiles_parts(sf_dir: str):
    """Exact discrete quantiles WITHOUT a global sort: only (value, count)
    histogram pairs shuffle (bounded by the integer-cents domain, not row
    count) — DuckDB quantile_disc semantics."""
    from folkscope_ray.ops.sketch import exact_quantiles_by_counting

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("p_retailprice"), 100.0)),
                    pa.int64())
        return pa.table({"cents": c})

    ds = (_rp(sf_dir, "part", ["p_retailprice"])
          .map_batches(cents, batch_format="pyarrow"))
    return exact_quantiles_by_counting(ds, "cents", _QUANTILES)


def _q_quantiles_by_brand_parts(sf_dir: str):
    """Exact PER-GROUP discrete quantiles without a global sort: only
    (brand, cents, count) histogram rows shuffle; each group's rank walk
    uses exact Fraction arithmetic — DuckDB quantile_disc per group."""
    from folkscope_ray.ops.sketch import exact_quantiles_by_group

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("p_retailprice"), 100.0)),
                    pa.int64())
        return pa.table({"p_brand": b.column("p_brand"), "cents": c})

    ds = (_rp(sf_dir, "part", ["p_brand", "p_retailprice"])
          .map_batches(cents, batch_format="pyarrow"))
    return exact_quantiles_by_group(ds, "p_brand", "cents",
                                    [0.25, 0.5, 0.75])


def _q_winsorize_parts(sf_dir: str):
    """Per-brand winsorization: retail-price cents clipped into the exact
    per-group [p5, p95] quantile band — grouped-quantile histogram shuffle
    + ONE broadcast-bounds clip scan."""
    from folkscope_ray.ops.stats import winsorize_by_key

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("p_retailprice"), 100.0)),
                    pa.int64())
        return pa.table({"p_partkey": b.column("p_partkey"),
                         "p_brand": b.column("p_brand"), "cents": c})

    ds = (_rp(sf_dir, "part", ["p_partkey", "p_brand", "p_retailprice"])
          .map_batches(cents, batch_format="pyarrow"))
    return winsorize_by_key(ds, key_col="p_brand", value_col="cents",
                            id_cols=["p_partkey"], q_lo=0.05, q_hi=0.95)


def _q_rolling_median_orders(sf_dir: str):
    """Moving 5-order median of each customer's order totals (full frames
    only: odd frame -> exact element selection, bit-equal doubles)."""
    from folkscope_ray.ops.window import rolling_median

    out = rolling_median(
        _rp(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]),
        key_col="o_custkey", order_cols=["o_orderdate", "o_orderkey"],
        value_col="o_totalprice", k=5, alias="med5")
    return out.select_columns(["o_custkey", "o_orderkey", "med5"])


def _q_transition_counts_events(sf_dir: str):
    """First-order Markov transition matrix over each user's event-type
    sequence — per-bucket LAG + partial counts, category²-bounded combine."""
    from folkscope_ray.ops.window import transition_counts

    return transition_counts(
        _rp(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
        key_col="user_id", order_cols=["ts", "event_id"],
        cat_col="event_type")


def _q_funnel_events(sf_dir: str):
    """view -> click -> purchase sequential funnel (strict-after min-ts
    semantics): users reaching each stage."""
    from folkscope_ray.ops.window import funnel_counts

    return funnel_counts(_rp(sf_dir, "events"), key_col="user_id",
                         ts_col="ts", cat_col="event_type",
                         stages=["view", "click", "purchase"])


def _q_collect_topk_docs(sf_dir: str):
    """Per-language ordered collect (STRING_AGG) of the 10 longest docs —
    rides cap_per_key's map-side pre-prune, one bounded string per key."""
    from folkscope_ray.ops.window import collect_topk

    return collect_topk(_rp(sf_dir, "documents"), key_col="lang",
                        id_col="doc_id", order_cols=["n_chars", "doc_id"],
                        ascending=[False, True], k=10,
                        list_alias="ids", count_alias="n")


def _q_except_orders_pairs(sf_dir: str):
    """SQL EXCEPT over composite tuples: (custkey, priority) pairs seen
    among open orders but never among finished ones — distinct both
    sides map-combined, one composite-key left-outer join."""
    from folkscope_ray.ops.relational import except_distinct

    src = _rp(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_orderstatus"])

    def status(v: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("o_orderstatus"), v)) \
                .select(["o_custkey", "o_orderpriority"])
        return fn

    left = src.map_batches(status("O"), batch_format="pyarrow")
    right = src.map_batches(status("F"), batch_format="pyarrow")
    return except_distinct(left, right,
                           cols=["o_custkey", "o_orderpriority"])


def _q_churned_users_events(sf_dir: str):
    """Churn scan: users not active on the corpus's final active day —
    per-user max day (map-combined) vs one broadcast global scalar."""
    from folkscope_ray.ops.relational import map_combine_aggregate

    def days(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.divide(pc.cast(b.column("ts"), pa.int64()),
                              86_400_000_000), pa.int64())
        return pa.table({"user_id": b.column("user_id"), "d": d})

    per_user = map_combine_aggregate(
        _rp(sf_dir, "events", ["user_id", "ts"])
        .map_batches(days, batch_format="pyarrow"),
        keys=["user_id"], maxs={"d": "last_day"}, count_alias="last_day")
    df = per_user.to_pandas()  # bounded by distinct users
    gmax = int(df["last_day"].max())
    df["days_inactive"] = (gmax - df["last_day"]).astype("int64")
    df["last_day"] = df["last_day"].astype("int64")
    out = df[df["days_inactive"] > 0].sort_values("user_id") \
        .reset_index(drop=True)
    return out[["user_id", "last_day", "days_inactive"]]


def _q_pct_change_orders(sf_dir: str):
    """Per-customer consecutive order price ratio (LAG division of exact
    integer cents — bit-equal doubles; first order gets -1)."""
    from folkscope_ray.ops.window import _bucketed_groups

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("o_totalprice"), 100.0)),
                    pa.int64())
        return pa.table({"o_custkey": b.column("o_custkey"),
                         "o_orderkey": b.column("o_orderkey"),
                         "o_orderdate": b.column("o_orderdate"),
                         "cents": c})

    ds = (_rp(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])
          .map_batches(cents, batch_format="pyarrow"))

    import pandas as pd

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        prev = g.groupby("o_custkey", sort=False)["cents"].shift(1)
        ratio = np.where(prev.isna().to_numpy(), -1.0,
                         g["cents"].to_numpy().astype("float64")
                         / prev.to_numpy().astype("float64"))
        return pd.DataFrame({"o_orderkey": g["o_orderkey"],
                             "ratio": ratio})

    return _bucketed_groups(ds, "o_custkey", body)


def _q_checksum_orders(sf_dir: str):
    """Order-insensitive md5-prefix content checksum of (orderkey,
    custkey) — the O(1)-output snapshot-equality probe."""
    from folkscope_ray.ops.stats import table_checksum

    return table_checksum(_rp(sf_dir, "orders"),
                          ["o_orderkey", "o_custkey"])


def _q_composite_join_lineitem(sf_dir: str):
    """COMPOSITE-key hash join: every lineitem row joined to its
    (orderkey, returnflag) group count — bucket hashes mix both key
    columns."""
    from folkscope_ray.ops.relational import hash_join, map_combine_aggregate

    slim = _rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_returnflag"])
    agg = map_combine_aggregate(
        slim.select_columns(["l_orderkey", "l_returnflag"]),
        keys=["l_orderkey", "l_returnflag"], count_alias="n")
    return hash_join(slim, agg, on=["l_orderkey", "l_returnflag"])


def _q_profile_orders(sf_dir: str):
    """Data-quality profile of the orders numerics: count / nulls /
    exact distinct / min / max per column, bounded shuffles only."""
    from folkscope_ray.ops.stats import profile_table

    return profile_table(_rp(sf_dir, "orders"),
                         ["o_orderkey", "o_custkey", "o_totalprice"])


def _q_bounce_rate_users(sf_dir: str):
    """Per-user bounce rate: single-event sessions / total sessions —
    composes the chunked sessionizer with one map-combined aggregate;
    the rate is one identical-operand int/int division."""
    from folkscope_ray.ops.relational import (map_combine_aggregate,
                                              session_windows)

    s = session_windows(_rp(sf_dir, "events"), ts_col="ts",
                        key_col="user_id", id_col="event_id",
                        gap_s=1800, chunk_s=6 * 3600)

    def flags(b: pa.Table) -> pa.Table:
        one = pc.cast(pc.equal(b.column("n_events"),
                               pa.scalar(1, pa.int64())), pa.int64())
        return pa.table({"user_id": b.column("user_id"), "__b": one})

    agg = map_combine_aggregate(
        s.map_batches(flags, batch_format="pyarrow"),
        keys=["user_id"], sums={"__b": "n_bounces"},
        count_alias="n_sessions")

    def rate(b: pa.Table) -> pa.Table:
        nb = b.column("n_bounces").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ns = b.column("n_sessions").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"user_id": b.column("user_id"),
                         "n_sessions": pa.array(ns, pa.int64()),
                         "n_bounces": pa.array(nb, pa.int64()),
                         "bounce_rate": pa.array(nb / ns, pa.float64())})

    return agg.map_batches(rate, batch_format="pyarrow")


def _q_wow_growth_events(sf_dir: str):
    """Week-over-week event-count growth: weekly histogram (bounded by
    span) + LAG ratio — one identical-operand int/int division."""
    from folkscope_ray.ops.window import time_rollup

    import pandas as pd

    weekly = time_rollup(_rp(sf_dir, "events"), ts_col="ts",
                         grains={"week": 604800}).to_pandas()
    weekly = weekly.sort_values("bucket").reset_index(drop=True)
    prev = weekly["n"].shift(1)
    out = pd.DataFrame({
        "week": weekly["bucket"].astype("int64"),
        "n": weekly["n"].astype("int64"),
        "growth": (weekly["n"].to_numpy().astype("float64")
                   / prev.to_numpy().astype("float64")),
    })
    out.loc[prev.isna(), "growth"] = -1.0
    return out


def _q_time_rollup_events(sf_dir: str):
    """Hour/day/week event counts from ONE fan-out scan + one combined
    histogram aggregate (no per-grain re-scan)."""
    from folkscope_ray.ops.window import time_rollup

    return time_rollup(_rp(sf_dir, "events"), ts_col="ts",
                       grains={"hour": 3600, "day": 86400,
                               "week": 604800})


def _q_compress_runs_events(sf_dir: str):
    """Event-stream compaction: drop rows whose event_type equals the
    user's previous event in time order (state-change log)."""
    from folkscope_ray.ops.window import compress_runs

    out = compress_runs(
        _rp(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
        key_col="user_id", order_cols=["ts", "event_id"],
        value_col="event_type")
    return out.select_columns(["user_id", "event_id", "event_type"])


def _q_latest_event_per_user(sf_dir: str):
    """Most recent event per user (greatest-n-per-group, n=1) — rides
    cap_per_key's map-side pre-prune."""
    from folkscope_ray.ops.split import cap_per_key

    out = cap_per_key(
        _rp(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
        key_col="user_id", n=1, order_cols=["ts", "event_id"],
        ascending=[False, False])
    return out.select_columns(["user_id", "event_id", "event_type"])


def _q_corr_by_brand_parts(sf_dir: str):
    """Per-brand Pearson correlation of price vs size — grouped exact
    integer moments, ONE float closed-form spelled identically in SQL."""
    from folkscope_ray.ops.stats import corr_by_key

    return corr_by_key(_rp(sf_dir, "part", ["p_brand", "p_retailprice", "p_size"]),
        key_col="p_brand", col_a="p_retailprice", col_b="p_size",
        scale_a=100, scale_b=1)


def _q_normalized_dedup_docs(sf_dir: str):
    """Exact dedup over NORMALIZED text (lower + whitespace collapse +
    trim, all Arrow kernels) — catches trivial reformatting duplicates
    raw-hash dedup misses; the groupby moves (hash, id) pairs only."""
    from folkscope_ray.ops.dedup import exact_dedup
    from folkscope_ray.ops.text import normalize_text_batch

    def norm(b: pa.Table) -> pa.Table:
        t = normalize_text_batch(b, "text", alias="norm")
        return pa.table({"doc_id": t.column("doc_id"),
                         "text": t.column("norm")})

    ds = (_rp(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(norm, batch_format="pyarrow"))
    return exact_dedup(ds)


def _q_activity_histogram_events(sf_dir: str):
    """Histogram of per-user activity (how many users produced n events)
    — two map-combined aggregates, both domain-bounded."""
    from folkscope_ray.ops.relational import map_combine_aggregate

    per_user = map_combine_aggregate(
        _rp(sf_dir, "events", ["user_id"]),
        keys=["user_id"], count_alias="n")
    return map_combine_aggregate(per_user.select_columns(["n"]),
                                 keys=["n"], count_alias="n_users")


def _q_weighted_avg_price_lineitem(sf_dir: str):
    """Quantity-weighted average price cents per returnflag — two integer
    sums + one identical-operand IEEE division (bit-equal doubles)."""
    from folkscope_ray.ops.stats import weighted_avg_by_key

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b.column("l_extendedprice"),
                                             100.0)), pa.int64())
        qty = pc.cast(b.column("l_quantity"), pa.int64())
        return pa.table({"l_returnflag": b.column("l_returnflag"),
                         "cents": cents, "qty": qty})

    ds = (_rp(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])
          .map_batches(prep, batch_format="pyarrow"))
    return weighted_avg_by_key(ds, key_col="l_returnflag",
                               value_col="cents", weight_col="qty",
                               alias="wavg")


def _q_upsert_orders(sf_dir: str):
    """MERGE/upsert: orders repriced by a simulated update set (every 5th
    key +123 cents, every 19th re-added under a shifted key) — updates
    win via one bucketed max-priority pick with map-side pre-prune."""
    from folkscope_ray.ops.stats import upsert

    def cur_fn(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b.column("o_totalprice"),
                                             100.0)), pa.int64())
        return pa.table({"k": b.column("o_orderkey"), "cents": cents})

    def upd_fn(b: pa.Table) -> pa.Table:
        t = cur_fn(b)
        k = t.column("k").to_numpy(zero_copy_only=False)
        cents = t.column("cents").to_numpy(zero_copy_only=False)
        m5 = k % 5 == 0
        m19 = k % 19 == 0
        return pa.table({
            "k": pa.array(np.concatenate([k[m5], k[m19] + 20_000_000]),
                          pa.int64()),
            "cents": pa.array(np.concatenate([cents[m5] + 123,
                                              cents[m19]]), pa.int64())})

    src = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return upsert(src.map_batches(cur_fn, batch_format="pyarrow"),
                  src.map_batches(upd_fn, batch_format="pyarrow"),
                  key_col="k")


def _q_trending_types_daily_events(sf_dir: str):
    """Top-2 trending event types per day (counts + deterministic
    tiebreak) — map-combined (day, type) histogram, then cap_per_key."""
    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.split import cap_per_key

    def days(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.divide(pc.cast(b.column("ts"), pa.int64()),
                              86_400_000_000), pa.int64())
        return pa.table({"day": d, "event_type": b.column("event_type")})

    counts = map_combine_aggregate(
        _rp(sf_dir, "events", ["ts", "event_type"])
        .map_batches(days, batch_format="pyarrow"),
        keys=["day", "event_type"], count_alias="n")
    return cap_per_key(counts, key_col="day", n=2,
                       order_cols=["n", "event_type"],
                       ascending=[False, True])


def _q_quantile_cont_brand_parts(sf_dir: str):
    """Per-brand INTERPOLATED quartiles of retail-price cents
    (quantile_cont: exact Fraction ranks + one exact-dyadic
    interpolation — bit-equal doubles)."""
    from folkscope_ray.ops.sketch import quantile_cont_by_group

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("p_retailprice"), 100.0)),
                    pa.int64())
        return pa.table({"p_brand": b.column("p_brand"), "cents": c})

    ds = (_rp(sf_dir, "part", ["p_brand", "p_retailprice"])
          .map_batches(cents, batch_format="pyarrow"))
    return quantile_cont_by_group(ds, "p_brand", "cents",
                                  [0.25, 0.5, 0.75])


def _q_table_diff_orders(sf_dir: str):
    """CDC snapshot diff: orders vs a deterministically simulated next
    snapshot (every 13th key deleted, every 7th repriced, every 17th
    re-added under a shifted key) — ONE full-outer hash join + a
    stateless status scan, counts by change type."""
    from folkscope_ray.ops.relational import (map_combine_aggregate,
                                              table_diff)

    def cur_fn(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b.column("o_totalprice"),
                                             100.0)), pa.int64())
        return pa.table({"k": b.column("o_orderkey"), "cents": cents})

    def nxt_fn(b: pa.Table) -> pa.Table:
        t = cur_fn(b)
        k = t.column("k").to_numpy(zero_copy_only=False)
        cents = t.column("cents").to_numpy(zero_copy_only=False).copy()
        cents[k % 7 == 0] += 500
        keep = k % 13 != 0
        addm = k % 17 == 0
        return pa.table({
            "k": pa.array(np.concatenate([k[keep], k[addm] + 10_000_000]),
                          pa.int64()),
            "cents": pa.array(np.concatenate([cents[keep],
                                              cents[addm]]), pa.int64())})

    src = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    cur = src.map_batches(cur_fn, batch_format="pyarrow")
    nxt = src.map_batches(nxt_fn, batch_format="pyarrow")
    d = table_diff(cur, nxt, on="k", compare_cols=["cents"])
    return map_combine_aggregate(d, keys=["status"], count_alias="n")


def _q_streaks_events(sf_dir: str):
    """Per-user activity streaks: maximal runs of consecutive active
    calendar days (gaps-and-islands) — islands-bounded output."""
    from folkscope_ray.ops.window import islands

    def days(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.floor(pc.divide(
            pc.cast(b.column("ts"), pa.int64()), 86_400_000_000)),
            pa.int64())
        return pa.table({"user_id": b.column("user_id"), "d": d})

    ds = (_rp(sf_dir, "events", ["user_id", "ts"])
          .map_batches(days, batch_format="pyarrow"))
    return islands(ds, key_col="user_id", int_col="d")


def _q_revenue_share_orders(sf_dir: str):
    """RATIO_TO_REPORT: each order's share of its customer's total spend
    (integer cents sums + one identical-operand IEEE division)."""
    from folkscope_ray.ops.window import ratio_to_report

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("o_totalprice"), 100.0)),
                    pa.int64())
        return pa.table({"o_orderkey": b.column("o_orderkey"),
                         "o_custkey": b.column("o_custkey"), "cents": c})

    ds = (_rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
          .map_batches(cents, batch_format="pyarrow"))
    return ratio_to_report(ds, key_col="o_custkey", int_value_col="cents",
                           id_cols=["o_orderkey"], alias="share")


def _q_star_join_revenue_nation(sf_dir: str):
    """TPC-H-Q5-style 4-table star join: discounted revenue per nation.
    Dimension joins ride hash_join's data-tied broadcast escape (nation,
    customer⨝nation, then orders⨝that stay small); only
    lineitem⨝orders is a genuine large-large exchange."""
    from folkscope_ray.ops.relational import hash_join, map_combine_aggregate

    def ren(to: dict[str, str]):
        def fn(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [to.get(n, n) for n in b.column_names])
        return fn

    nat = _rp(sf_dir, "nation", ["n_nationkey", "n_name"])
    cust = (_rp(sf_dir, "customer", ["c_custkey", "c_nationkey"])
            .map_batches(ren({"c_nationkey": "n_nationkey"}),
                         batch_format="pyarrow"))
    cn = hash_join(cust, nat, on="n_nationkey").map_batches(
        lambda b: b.select(["c_custkey", "n_name"]), batch_format="pyarrow")
    od = (_rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])
          .map_batches(ren({"o_custkey": "c_custkey"}),
                       batch_format="pyarrow"))
    oc = hash_join(od, cn, on="c_custkey").map_batches(
        lambda b: b.select(["o_orderkey", "n_name"]), batch_format="pyarrow")

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return pa.table({"o_orderkey": b.column("l_orderkey"), "rev": r})

    li = (_rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
          .map_batches(rev, batch_format="pyarrow"))
    out = map_combine_aggregate(
        hash_join(li, oc, on="o_orderkey"), keys=["n_name"],
        sums={"rev": "revenue"}, count_alias="n_items")
    return _round_cols(out, {"revenue": 2})


def _q_bfs_depths_lineitem(sf_dir: str):
    """K-hop BFS depths from supplier 1 over the undirected
    supplier-part bipartite graph (part nodes offset by 1,000,000) —
    level-synchronous frontier broadcast, node-bounded driver state."""
    from folkscope_ray.ops.graph import bfs_depths
    from folkscope_ray.ops.relational import map_combine_aggregate

    def bip(b: pa.Table) -> pa.Table:
        s = pc.cast(b.column("l_suppkey"), pa.int64())
        p = pc.add(pc.cast(b.column("l_partkey"), pa.int64()),
                   pa.scalar(1_000_000, pa.int64()))
        return pa.table({"src": pa.chunked_array([*s.chunks, *p.chunks]),
                         "dst": pa.chunked_array([*p.chunks, *s.chunks])})

    edges = map_combine_aggregate(
        _rp(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])
        .map_batches(bip, batch_format="pyarrow"),
        keys=["src", "dst"], count_alias="__n").drop_columns(["__n"])
    return bfs_depths(edges, seeds=[1], max_depth=4)


def _q_regex_extract_docs(sf_dir: str):
    """First 's…' word + match count per doc — one stateless Arrow-RE2
    scan (both engines are RE2, so results match bit-for-bit)."""
    from folkscope_ray.ops.text import regex_extract_batch

    return (_rp(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(lambda b: regex_extract_batch(b, r"s[a-z]+"),
                         batch_format="pyarrow"))


def _q_retention_cohorts_events(sf_dir: str):
    """Day-N retention curve over user activity days (distinct
    (user, day-offset) pairs, days-bounded combine)."""
    from folkscope_ray.ops.window import retention_cohorts

    return retention_cohorts(_rp(sf_dir, "events"), key_col="user_id",
                             ts_col="ts")


def _q_mode_quantity_lineitem(sf_dir: str):
    """Per-returnflag modal quantity (deterministic smallest-value
    tiebreak) — the shuffle moves a (flag x quantity)-bounded histogram."""
    from folkscope_ray.ops.stats import grouped_mode

    def qty(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "qty": pc.cast(b.column("l_quantity"), pa.int64())})

    ds = (_rp(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
          .map_batches(qty, batch_format="pyarrow"))
    return grouped_mode(ds, key_col="l_returnflag", value_col="qty",
                        mode_alias="mode_value", count_alias="n")


def _q_mad_value_events(sf_dir: str):
    """Per-event-type median absolute deviation of value cents — two
    histogram-shuffle passes, quantile_disc-exact int64s."""
    from folkscope_ray.ops.stats import mad_by_key

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("value"), 100.0)),
                    pa.int64())
        return pa.table({"event_type": b.column("event_type"), "cents": c})

    ds = (_rp(sf_dir, "events", ["event_type", "value"])
          .map_batches(cents, batch_format="pyarrow"))
    return mad_by_key(ds, key_col="event_type", value_col="cents",
                      med_alias="med", mad_alias="mad")


def _q_hll_distinct_users(sf_dir: str):
    """Mergeable HyperLogLog distinct-user sketch per event_type — partials
    merge by register max, so the estimate is bit-identical at any
    parallelism (golden-fixture gated)."""
    from folkscope_ray.ops.sketch import hll_distinct_by_key

    return hll_distinct_by_key(_rp(sf_dir, "events"),
                               key_col="event_type", value_col="user_id")


def _q_ddsketch_price_quantiles(sf_dir: str):
    """DDSketch log-bucket quantiles over a continuous column: the shuffled
    histogram is bounded by the data's dynamic range (not row count) and
    merges by integer sum, so estimates are bit-identical at any parallelism
    (golden-fixture gated; the rel-err bound vs exact quantiles is pytest
    property-gated in tests/test_sketch.py)."""
    from folkscope_ray.ops.sketch import dd_quantiles

    return dd_quantiles(_rp(sf_dir, "part"), "p_retailprice",
                        qs=[0.05, 0.25, 0.5, 0.75, 0.95], rel_err=0.01)


def _q_embedding_neardup_pairs_lsh(sf_dir: str):
    """Beyond-broadcast near-dup scale path: hyperplane-bucket candidate
    generation + in-bucket quantized-cosine verify — no broadcast matrix, no
    all-pairs GEMM (candidate work is O(sum bucket^2)).  n_planes=2 keeps
    recall non-trivial on the synthetic near-orthogonal embeddings; the
    exact-GEMM variant is the recall oracle in tests/test_neardup.py."""
    from folkscope_ray.ops.similarity import embedding_neardup_pairs_lsh

    return embedding_neardup_pairs_lsh(_rp(sf_dir, "embeddings"), tau=0.4,
                                       n_planes=2)


def _q_resample_ffill_events(sf_dir: str):
    """Per-user hourly resample + forward fill (the feature-engineering
    gap-fill): one row per hour from each user's first to last active hour,
    carrying the last observed value.  Key-hash bucketing, one vectorized
    pandas body per bucket, repeat/arange grid explode — no Python per key;
    values pass through untouched so DuckDB hash-matches exactly."""
    from folkscope_ray.ops.window import resample_ffill

    return resample_ffill(
        _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"]),
        key_col="user_id", ts_col="ts", value_col="value",
        freq_us=3_600_000_000, order_col="event_id")


def _q_bpe_vocab_docs(sf_dir: str):
    """BPE tokenizer fitting (Sennrich 2016) with the industrial split: the
    cluster computes the word-frequency histogram (map-side-combined, shuffle
    moves vocabulary rows, deterministic top-K gate bounds the driver table);
    the driver runs the merge loop over that histogram — O(vocab x merges),
    corpus-size independent.  Output: the learned merge table, which IS the
    tokenizer.  Fixture oracle (merge loops are not ANSI-SQL)."""
    from folkscope_ray.ops.lm import bpe_train, word_counts

    wf = (word_counts(_rp(sf_dir, "documents"), max_words=100_000)
          .to_pandas().sort_values("word").reset_index(drop=True))
    return bpe_train(wf, 200)


def _q_bpe_token_counts_docs(sf_dir: str):
    """Corpus token frequencies under the learned BPE vocabulary: every
    DISTINCT word is encoded exactly once cluster-wide (merge ranks
    broadcast via ray.put; encoding runs over the word histogram weighted
    by count — no occurrence re-encoded), then a vocabulary-row shuffle and
    a deterministic top-50 (count desc, token asc).  Fixture oracle."""
    from folkscope_ray.ops.lm import bpe_token_counts, bpe_train, word_counts

    wc = word_counts(
        _rp(sf_dir, "documents"), max_words=100_000).materialize()
    merges = bpe_train(
        wc.to_pandas().sort_values("word").reset_index(drop=True), 200)
    return (bpe_token_counts(wc, merges)
            .sort(["n", "token"], descending=[True, False]).limit(50))


def _q_lm_perplexity_docs(sf_dir: str):
    """CCNet-style quality scoring: an interpolated bigram LM trained on the
    deterministic reference slice (doc_id % 10 == 0; integer count tables,
    map-side-combined, top-K-bounded, broadcast once) scores every doc in a
    stateless map; scores are quantized to int millibits-per-token BEFORE
    aggregation so the per-(lang, band) sums are hash-exact at any
    parallelism.  Fixture oracle (tokenization + log2 are not ANSI-SQL)."""
    from folkscope_ray.ops.lm import score_perplexity, train_bigram_lm
    from folkscope_ray.ops.relational import map_combine_aggregate

    docs = _rp(sf_dir, "documents", ["doc_id", "lang", "text"])

    def ref_slice(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 10 == 0))

    model = train_bigram_lm(
        docs.map_batches(ref_slice, batch_format="pyarrow"))
    scored = score_perplexity(docs, model)

    def band(b: pa.Table) -> pa.Table:
        mb = b.column("ppl_millibits").to_numpy(zero_copy_only=False)
        return b.append_column(
            "ppl_band", pa.array(np.minimum(mb // 2000, 9), pa.int64()))

    return map_combine_aggregate(
        scored.map_batches(band, batch_format="pyarrow")
        .select_columns(["lang", "ppl_band", "ppl_millibits"]),
        keys=["lang", "ppl_band"], sums={"ppl_millibits": "sum_millibits"},
        count_alias="n_docs",
    )


def _q_classifier_finetune_docs(sf_dir: str):
    """Critic fine-tuning loop (run_classification.py:562-656: HF-Trainer
    train + eval + predict with checkpoint resume), re-expressed torch-free:
    a quality classifier is trained on the documents table — labels from the
    deterministic quality heuristic, features a hashed bag-of-words, model a
    fixed-point logistic regression whose per-epoch gradient is ONE
    streaming pass emitting integer partials (bit-identical at any
    parallelism, resume-equal to an unbroken run — both pytest-pinned).
    Output is the reference's predictions-TSV shape on the held-out test
    split.  Fixture oracle (iterative training is not ANSI-SQL)."""
    import numpy as np

    from folkscope_ray.ops.split import hash_split_batch
    from folkscope_ray.ops.text import quality_batch
    from folkscope_ray.stages.finetune import (
        predict_classifier,
        train_classifier,
    )

    def label(b: pa.Table) -> pa.Table:
        q = quality_batch(b)
        lab = np.where(
            q.column("quality_score").to_numpy(zero_copy_only=False) >= 0.75,
            "v", "i")
        out = b.append_column("label", pa.array(lab.tolist(), pa.string()))
        return hash_split_batch(out, "doc_id")

    docs = (_rp(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(label, batch_format="pyarrow"))
    train = docs.filter(expr="split == 'train'")
    test = docs.filter(expr="split == 'test'")
    w, _hist = train_classifier(train, dim=2048, epochs=8, lr=2.0)
    return (
        predict_classifier(test, w, label_col="label")
        .select_columns(["doc_id", "label", "prediction", "score"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _q_deterministic_shuffle_docs(sf_dir: str):
    """Seeded reproducible global shuffle (epoch ordering for training):
    order key = md5(seed|doc_id) — a pure function of (seed, id), so the
    permutation is identical across runs/parallelism/resume, unlike
    random_shuffle.  Same all-to-all cost class as random_shuffle; limit
    pushdown keeps only the winning prefix.  First 100 rows returned with
    their order keys so the hash compare pins the actual permutation."""
    from folkscope_ray.ops.split import deterministic_shuffle

    return deterministic_shuffle(
        _rp(sf_dir, "documents", ["doc_id"]),
        "doc_id", seed=42, key_out="shuf").limit(100)


def _q_mixing_weights_sources(sf_dir: str):
    """Square-root domain-mixing weights (multilingual/data-mixture
    reweighting: sampling weight ∝ tokens^0.5): per-source token totals via
    a map-side-combined aggregate (per-row regex token count is a stateless
    map), then integer isqrt + ppm division over the tiny per-source table —
    hash-exact vs the SQL oracle."""
    from folkscope_ray.ops.lm import _TOKEN_RE
    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.split import mixing_weights

    def ntok(b: pa.Table) -> pa.Table:
        n = np.fromiter(
            (len(_TOKEN_RE.findall(t.lower()))
             for t in b.column("text").to_pylist()),
            dtype=np.int64, count=b.num_rows)
        return b.append_column("n_tokens", pa.array(n, pa.int64()))

    per_src = map_combine_aggregate(
        _rp(sf_dir, "documents", ["source", "text"])
        .map_batches(ntok, batch_format="pyarrow")
        .select_columns(["source", "n_tokens"]),
        keys=["source"], sums={"n_tokens": "total_tokens"},
        count_alias="__nd",
    ).drop_columns(["__nd"])
    return mixing_weights(per_src.to_pandas(), "source", "total_tokens")


def _q_curation_pipeline_docs(sf_dir: str):
    """End-to-end curation COMPOSITION as one streaming pipeline (the
    pre-training front door): exact dedup (keep the min-doc_id row per
    distinct text, broadcast winner set) -> whitespace token count ->
    reproducible md5 train/val/test split -> per-(split, lang) doc count +
    token budget via map-side-combined aggregate.  Each stage is an already-
    verified operator; this query pins their composition end-to-end."""
    import pyarrow as _pa
    import ray as _ray

    from folkscope_ray.ops.dedup import exact_dedup
    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.split import hash_split_batch
    from folkscope_ray.ops.text import token_count_batch

    docs = _rp(sf_dir, "documents", ["doc_id", "lang", "text"])
    winners = exact_dedup(docs, text_col="text").to_pandas()["keep_id"]
    wref = _ray.put(_pa.array(winners, _pa.int64()))

    def keep(batch: _pa.Table) -> _pa.Table:
        return batch.filter(pc.is_in(batch.column("doc_id"),
                                     value_set=_ray.get(wref)))

    kept = (docs.map_batches(keep, batch_format="pyarrow")
            .map_batches(token_count_batch, batch_format="pyarrow")
            .map_batches(lambda b: hash_split_batch(b, "doc_id"),
                         batch_format="pyarrow")
            .select_columns(["lang", "split", "n_words"]))
    return map_combine_aggregate(kept, keys=["lang", "split"],
                                 sums={"n_words": "sum_tokens"},
                                 count_alias="n_docs")


def _q_embedding_kmeans_clusters(sf_dir: str):
    """Semantic clustering (the SemDeDup / cluster-then-curate shape):
    deterministic fixed-point spherical k-means trained distributively, then
    one shuffle-free assignment GEMM per block against the broadcast
    centroid matrix.  Bit-identical across parallelism (fixture-gated)."""
    from folkscope_ray.ops.similarity import kmeans_assign

    return kmeans_assign(_rp(sf_dir, "embeddings"), n_centroids=8, n_iters=3)


def _q_editdist_join_customers(sf_dir: str):
    """Fuzzy self-join: customer-name pairs within Levenshtein distance 1
    (entity resolution).  Sound-and-complete deletion-neighborhood
    signatures (FastSS), bucketed candidate generation, ONE batched
    vectorized DP verify — no per-pair Python."""
    from folkscope_ray.ops.editjoin import edit_distance_selfjoin

    return edit_distance_selfjoin(
        _rp(sf_dir, "customer", ["c_custkey", "c_name"]),
        text_col="c_name", id_col="c_custkey", k=1)


def _q_dup_gram_docs(sf_dir: str):
    """ExactSubstr detection (Lee et al. 2022): per-doc count of 50-char
    windows that also occur in ANOTHER doc.  The shuffle moves one ~24-byte
    (gram-key, doc) row per distinct pair — never gram strings."""
    from folkscope_ray.ops.dedup import dup_gram_counts

    return dup_gram_counts(_rp(sf_dir, "documents"), gram_len=50)


def _q_semantic_dedup_embeddings(sf_dir: str):
    """SemDeDup cluster-then-prune semantic dedup: k-means bounds the
    candidate space, in-cluster quantized-cosine GEMM marks min-id-survivor
    duplicates — O(sum cluster^2) verify, ONE shuffle (the cluster groupby).
    tau=0.4 keeps the synthetic near-orthogonal embeddings non-trivial
    (real corpora use 0.9+)."""
    from folkscope_ray.ops.similarity import semantic_dedup

    return semantic_dedup(_rp(sf_dir, "embeddings"), tau=0.4,
                          n_centroids=8, n_iters=3)


def _q_source_cap_docs(sf_dir: str):
    """Per-source document cap (<=5 per source by doc_id) — the per-domain
    cap every web-crawl curation mix applies; map-side pre-prune means the
    shuffle moves at most blocks x sources x 5 rows."""
    from folkscope_ray.ops.split import cap_per_key

    return cap_per_key(
        _rp(sf_dir, "documents", ["doc_id", "source"]),
        key_col="source", n=5, order_cols=["doc_id"])


def _q_distinct_users_per_type_events(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type via the two-phase
    distinct: block-local pair dedup -> pair shuffle -> per-key count."""
    from folkscope_ray.ops.relational import distinct_count_by_key

    return distinct_count_by_key(_rp(sf_dir, "events"), "event_type",
                                 "user_id", alias="n_users")


def _q_zscore_outliers_events(sf_dir: str):
    """Per-type z-score outliers (|z| >= 2): exact integer moments per key
    + one broadcast-moments filter scan; micro-z quantization makes the
    score hash-exact vs SQL."""
    from folkscope_ray.ops.stats import zscore_outliers_by_key

    return zscore_outliers_by_key(
        _rp(sf_dir, "events"), key_col="event_type", value_col="value",
        id_cols=["event_id"], scale=100, z_threshold=2.0)


def _q_countmin_user_freq_events(sf_dir: str):
    """Count-Min point-frequency estimates for a fixed user-id query set:
    bounded-memory mergeable sketch (no shuffle, no per-key state) — the
    100-TB shape for frequency probes over unbounded key spaces."""
    import numpy as np

    from folkscope_ray.ops.sketch import countmin_freq_by_key

    return countmin_freq_by_key(_rp(sf_dir, "events"), "user_id",
                                np.arange(20, dtype=np.int64))


def _q_stream_dedup_docs(sf_dir: str):
    """Streaming dedup against the sharded mutable actor index (the
    documented raw-actor escape hatch, SURVEY.md §2.10): batches replay in
    doc_id order through bulk check-and-claim, so the keep-set is exactly
    'lowest doc_id wins per content hash' — SQL-verifiable."""
    import hashlib

    import pandas as pd

    from folkscope_ray.ops.stream import DedupIndex, dedup_stream_batch

    idx = DedupIndex(n_shards=4)
    ds = (_rp(sf_dir, "documents", ["doc_id", "text"])
          .sort("doc_id"))
    kept = []
    for b in ds.iter_batches(batch_size=512, batch_format="pyarrow"):
        h = pa.array(
            [hashlib.md5(t.encode("utf-8")).hexdigest()
             for t in b.column("text").to_pylist()], pa.string())
        slim = pa.table({"doc_id": b.column("doc_id"), "content_hash": h})
        kept.append(dedup_stream_batch(idx, slim, "content_hash").to_pandas())
    return pd.concat(kept, ignore_index=True)


def _q_kg_incremental_triples(sf_dir: str):
    """Sharded/incremental build row-parity: the corpus split into two shard
    parquets and built via build_kg_incremental (per-shard scored
    checkpoints + union-wide mining/canonicalization barriers) must
    reproduce the monolithic kg_triples fixture exactly."""
    import os

    import pyarrow.parquet as pq

    from folkscope_ray.pipelines.kg import build_kg_incremental
    from folkscope_ray.synth import corpus_for_sf

    src = corpus_for_sf(sf_dir)
    base = f"/tmp/fs_incr_{os.path.basename(os.path.normpath(sf_dir))}"
    os.makedirs(base, exist_ok=True)
    shards = [os.path.join(base, "shard_a.parquet"),
              os.path.join(base, "shard_b.parquet")]
    if not all(os.path.exists(p) for p in shards):
        t = pq.read_table(src)
        mid = t.num_rows // 2
        pq.write_table(t.slice(0, mid), shards[0])
        pq.write_table(t.slice(mid), shards[1])
    inc = build_kg_incremental(shards, run_dir=os.path.join(base, "run"))
    return inc.triples()


def _q_word_jaccard_docs(sf_dir: str):
    """Exact word-set Jaccard of every document vs doc_id=0 (the
    verification kernel of the near-dup family, fully vectorized)."""
    from folkscope_ray.ops.dedup import word_jaccard_vs_query

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    q_text = (
        docs.map_batches(lambda b: b.filter(pc.equal(b["doc_id"], 0)),
                         batch_format="pyarrow")
        .to_pandas()["text"].iloc[0]
    )
    rest = docs.map_batches(
        lambda b: b.filter(pc.not_equal(b["doc_id"], 0)), batch_format="pyarrow"
    )
    return word_jaccard_vs_query(rest, q_text)


def _q_union_name_counts(sf_dir: str):
    """Dataset.union coverage (D7): region names ∪ nation names, counted."""
    from ray.data.aggregate import Count

    r = _rp(sf_dir, "region").map_batches(
        lambda b: b.select(["r_name"]).rename_columns(["name"]), batch_format="pyarrow"
    )
    n = _rp(sf_dir, "nation").map_batches(
        lambda b: b.select(["n_name"]).rename_columns(["name"]), batch_format="pyarrow"
    )
    return r.union(n).groupby("name").aggregate(Count(alias_name="n"))


def _cents_col(ds, src: str, alias: str = "cents"):
    """Exact integer cents from a 2-decimal price column (both engines round
    the same near-integer, so downstream integer math is hash-exact)."""

    def cents(b: pa.Table) -> pa.Table:
        return b.append_column(
            alias, pc.cast(pc.round(pc.multiply(b.column(src), 100.0)), pa.int64()))

    return ds.map_batches(cents, batch_format="pyarrow")


def _q_lag_gap_events(sf_dir: str):
    """LAG(value) + inter-event gap per user (ordered window functions)."""
    from folkscope_ray.ops.window import lag_gap

    out = lag_gap(
        _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"]),
        key_col="user_id", order_cols=["ts", "event_id"],
        value_col="value", ts_us_col="ts",
    )
    return out.select_columns(["event_id", "user_id", "value", "prev_value", "gap_us"])


def _q_cumsum_orders(sf_dir: str):
    """Per-customer running spend, via the TWO-PHASE chunked cumulative sum
    (exercises the scale path: local cumsum per 30-day chunk + per-chunk
    offset stitch — identical to the single-phase result by construction)."""
    from folkscope_ray.ops.window import cumulative_sum

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
        "o_totalprice",
    ).select_columns(["o_orderkey", "o_custkey", "o_orderdate", "cents"])
    out = cumulative_sum(
        ds, key_col="o_custkey", order_cols=["o_orderdate", "o_orderkey"],
        int_value_col="cents", alias="running_cents",
        chunk=30 * 86_400 * 1_000_000, order_int_col="o_orderdate",
    )
    return out.select_columns(["o_orderkey", "o_custkey", "running_cents"])


def _q_moving_avg_orders(sf_dir: str):
    """3-row moving sum/average of order price per customer (ROWS BETWEEN
    2 PRECEDING AND CURRENT ROW) — integer window sums, one shared division."""
    from folkscope_ray.ops.window import moving_sum_avg

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
        "o_totalprice",
    ).select_columns(["o_orderkey", "o_custkey", "o_orderdate", "cents"])
    out = moving_sum_avg(
        ds, key_col="o_custkey", order_cols=["o_orderdate", "o_orderkey"],
        int_value_col="cents", k=3, sum_alias="win_cents",
        avg_alias="avg3_price", avg_scale=100.0,
    )
    return out.select_columns(["o_orderkey", "o_custkey", "win_cents", "avg3_price"])


def _q_left_join_customer_orders(sf_dir: str):
    """Customers LEFT OUTER JOIN their order aggregate (customers with no
    orders survive with zeros) — native hash-partitioned left_outer join."""
    from folkscope_ray.ops.relational import hash_join, map_combine_aggregate

    agg = map_combine_aggregate(
        _cents_col(_rp(sf_dir, "orders", ["o_custkey", "o_totalprice"]), "o_totalprice")
        .select_columns(["o_custkey", "cents"]),
        keys=["o_custkey"], sums={"cents": "total_cents"},
        count_alias="n_orders",
    ).map_batches(
        lambda b: b.rename_columns(
            ["c_custkey" if n == "o_custkey" else n for n in b.column_names]),
        batch_format="pyarrow",
    )
    joined = hash_join(
        _rp(sf_dir, "customer", ["c_custkey", "c_name"]),
        agg, on="c_custkey", how="left_outer",
    )

    def fill(b: pa.Table) -> pa.Table:
        for col in ("n_orders", "total_cents"):
            i = b.column_names.index(col)
            b = b.set_column(
                i, col, pc.fill_null(pc.cast(b.column(col), pa.int64()), 0))
        return b

    return joined.map_batches(fill, batch_format="pyarrow")


def _q_rollup_orders(sf_dir: str):
    """GROUP BY ROLLUP(status, priority) — all prefix aggregation levels
    from one map-side-combined pass; 'ALL' sentinel for rolled-up keys."""
    from folkscope_ray.ops.window import rollup_counts

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"]),
        "o_totalprice",
    ).select_columns(["o_orderstatus", "o_orderpriority", "cents"])
    return rollup_counts(
        ds, keys=["o_orderstatus", "o_orderpriority"],
        int_value_col="cents", sum_alias="total_cents",
    )


def _q_unpivot_lineitem(sf_dir: str):
    """UNPIVOT / melt: one row per (line item, measure column) — stateless
    per-block Arrow transform, columns reused not rebuilt, no shuffle."""
    from folkscope_ray.ops.window import unpivot

    return unpivot(
        _rp(sf_dir, "lineitem"),
        id_cols=["l_orderkey", "l_linenumber"],
        value_cols=["l_quantity", "l_extendedprice", "l_discount"])


def _q_rank_stats_orders(sf_dir: str):
    """Tie-aware rank family (RANK / PERCENT_RANK / CUME_DIST) per
    o_orderpriority over o_totalprice — one vectorized pass per key bucket;
    the two divisions are single IEEE ops on exact small ints, so the
    doubles hash-match DuckDB's window functions bit-exactly."""
    from folkscope_ray.ops.window import rank_stats

    return rank_stats(
        _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]),
        key_col="o_orderpriority", value_col="o_totalprice",
    ).select_columns(["o_orderkey", "o_orderpriority", "rnk",
                      "pct_rank", "cume"])


def _q_cube_orders(sf_dir: str):
    """GROUP BY CUBE(status, priority): every grouping subset from ONE
    map-side-combined scan; coarser sets derived from the tiny finest
    aggregate (never a rescan)."""
    from folkscope_ray.ops.window import cube_counts

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("o_totalprice"), 100.0)),
                    pa.int64())
        return pa.table({
            "o_orderstatus": b.column("o_orderstatus"),
            "o_orderpriority": b.column("o_orderpriority"),
            "cents": c,
        })

    ds = (_rp(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])
          .map_batches(cents, batch_format="pyarrow"))
    return cube_counts(ds, ["o_orderstatus", "o_orderpriority"], "cents",
                       "total_cents")


def _q_pivot_events_by_type(sf_dir: str):
    """Pivot event_type into per-type count columns per user (conditional
    aggregation, map-side combined)."""
    from folkscope_ray.ops.window import pivot_counts

    return pivot_counts(
        _rp(sf_dir, "events"), key_col="user_id", cat_col="event_type",
        categories=["click", "error", "purchase", "signup", "view"],
    )


def _q_row_number_orders(sf_dir: str):
    """ROW_NUMBER per customer in (date, key) order."""
    from folkscope_ray.ops.window import row_number

    out = row_number(
        _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        key_col="o_custkey", order_cols=["o_orderdate", "o_orderkey"],
    )
    return out.select_columns(["o_orderkey", "o_custkey", "rn"])


def _q_dense_rank_orders(sf_dir: str):
    """DENSE_RANK per order priority over price cents (desc): ties share a
    rank, no gaps."""
    from folkscope_ray.ops.window import dense_rank

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]),
        "o_totalprice",
    ).select_columns(["o_orderkey", "o_orderpriority", "cents"])
    return (dense_rank(ds, key_col="o_orderpriority", value_col="cents",
                       ascending=False)
            .select_columns(["o_orderkey", "o_orderpriority", "rnk"]))


def _q_ntile_orders(sf_dir: str):
    """NTILE(4) price-quartile assignment per order priority (standard-SQL
    uneven-split rule)."""
    from folkscope_ray.ops.window import ntile

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]),
        "o_totalprice",
    ).select_columns(["o_orderkey", "o_orderpriority", "cents"])
    return (ntile(ds, key_col="o_orderpriority",
                  order_cols=["cents", "o_orderkey"], n=4)
            .select_columns(["o_orderkey", "o_orderpriority", "tile"]))


def _q_json_extract_events(sf_dir: str):
    """Semi-structured column handling: parse the JSON ``props`` payload per
    event and aggregate the extracted integer per event_type (map-combined:
    only per-block partials shuffle)."""
    import json as _json

    from folkscope_ray.ops.relational import map_combine_aggregate

    def extract(b: pa.Table) -> pa.Table:
        ks = [int(_json.loads(p)["k"]) for p in b.column("props").to_pylist()]
        return pa.table({"event_type": b.column("event_type"),
                         "k": pa.array(ks, pa.int64())})

    return map_combine_aggregate(
        _rp(sf_dir, "events", ["event_type", "props"])
        .map_batches(extract, batch_format="pyarrow"),
        keys=["event_type"], sums={"k": "sum_k"},
        mins={"k": "min_k"}, maxs={"k": "max_k"},
    )


def _q_top_bigrams_per_lang(sf_dir: str):
    """Corpus n-gram statistics: top-5 word bigrams per language.  Each
    block pre-combines its token stream to (lang, bigram) partial counts
    (shuffle moves vocabulary rows, not occurrences), then a final sum and
    a per-lang top-k."""
    import pandas as pd

    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.text import bigram_partials

    counts = map_combine_aggregate(
        _rp(sf_dir, "documents", ["lang", "text"])
        .map_batches(bigram_partials, batch_format="pyarrow"),
        keys=["lang", "bigram"], sums={"n": "n"}, count_alias="__nb",
    ).drop_columns(["__nb"])

    def top5(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["n", "bigram"], ascending=[False, True],
                             kind="mergesort").head(5)

    return counts.groupby("lang").map_groups(top5, batch_format="pandas")


def _q_repetition_docs(sf_dir: str):
    """Intra-doc duplicate-line ratio (boilerplate/log-spam quality signal)."""
    from folkscope_ray.ops.text import repetition_batch

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(repetition_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "n_lines", "n_distinct_lines", "rep_ratio"])
    )


def _q_entropy_docs(sf_dir: str):
    """Per-doc unigram token entropy in integer millibits (repetitive /
    boilerplate detector) — stateless scan, per-term quantize-then-int-sum
    so the result is order-free and hash-exact vs the SQL oracle."""
    from folkscope_ray.ops.text import entropy_batch

    return (
        _rp(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(entropy_batch, batch_format="pyarrow")
    )


def _q_inverted_index_docs(sf_dir: str):
    """Distributed inverted index over the corpus: term -> df + doc_id-sorted
    posting list (min_df=5 to keep the result the retrieval-relevant tail)."""
    from folkscope_ray.ops.index import inverted_index

    return inverted_index(
        _rp(sf_dir, "documents", ["doc_id", "text"]),
        min_df=5,
    )


def _q_bm25_topk_docs(sf_dir: str):
    """Top-20 documents for the query {merge, hash, scan} under BM25-style
    scoring (rational idf — see ops/index.bm25_topk): two shuffle-free
    passes, block top-k partials, quantize-before-top-k."""
    from folkscope_ray.ops.index import bm25_topk

    return bm25_topk(_rp(sf_dir, "documents", ["doc_id", "text"]),
                     ["merge", "hash", "scan"], k=20)


def _q_skew_join_events(sf_dir: str):
    """Skewed fact x dim join under the hot-key plan: events (zipf-hot
    user_id) join their per-user first-event time; the heavy-hitter users'
    dim rows broadcast (never enter the shuffle), cold users hash-join.
    Output: per event_type row count + total seconds-since-first (integer
    sums — hash-exact)."""
    from folkscope_ray.ops.relational import map_combine_aggregate, skew_join

    def secs_col(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b.column("ts"), pa.timestamp("us")), pa.int64())
        return b.append_column(
            "secs", pc.cast(pc.divide(us, 1_000_000), pa.int64()))

    ev = (
        _rp(sf_dir, "events", ["ts", "user_id", "event_type"])
        .map_batches(secs_col, batch_format="pyarrow")
        .select_columns(["user_id", "event_type", "secs"])
    )
    # the dim aggregation already computes EXACT per-user counts — derive
    # the hot keys from it instead of a separate heavy-hitter detection pass
    # over the raw events (saves two full scans of the fact table).  The dim
    # stays a Dataset end-to-end: materialize() pins the blocks in the object
    # store (it is consumed twice), hot keys come off a top-k limit pushdown,
    # and only those 5 rows ever reach the driver.
    first_all = map_combine_aggregate(
        ev, keys=["user_id"], mins={"secs": "first_secs"}).materialize()
    hot = (first_all.sort(["n", "user_id"], descending=[True, False])
           .limit(5).to_pandas()["user_id"].tolist())
    first = first_all.select_columns(["user_id", "first_secs"])
    joined = skew_join(ev, first, on="user_id", hot_keys=hot)

    def since(b: pa.Table) -> pa.Table:
        d = pc.subtract(b.column("secs"), b.column("first_secs"))
        return b.append_column("since", pc.cast(d, pa.int64()))

    return map_combine_aggregate(
        joined.map_batches(since, batch_format="pyarrow"),
        keys=["event_type"], sums={"since": "total_since"},
    )


def _q_decontam_docs(sf_dir: str):
    """Benchmark decontamination: contamination ratio of every corpus doc vs
    a deterministic 'benchmark' subset (doc_id % 50 == 0), 8-token n-grams,
    threshold 0.5.  Benchmark n-grams broadcast once; corpus side is one
    shuffle-free scan."""
    import numpy as _np

    from folkscope_ray.ops.decontam import ngram_contamination

    docs = _rp(sf_dir, "documents")

    def bench_only(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 50 == 0))

    bench = _rp(sf_dir, "documents").map_batches(bench_only, batch_format="pyarrow")
    return ngram_contamination(docs, bench, n=8, threshold=0.5)


def _q_chunk_dedup_docs(sf_dir: str):
    """Sub-document exact dedup (chunked ExactSubstr, Lee et al. 2022):
    3-token chunks, first global occurrence wins, docs reassembled from
    surviving chunks.  Map-side-combined MIN over a composite
    (doc_id<<20|chunk_idx) key — the shuffle moves distinct chunks per
    block, not occurrences."""
    from folkscope_ray.ops.dedup import chunk_dedup

    return chunk_dedup(_rp(sf_dir, "documents"), chunk_tokens=3)


def _q_pii_scrub_docs(sf_dir: str):
    """PII detection + redaction (C4/Dolma hygiene pass): the corpus text is
    augmented with deterministic doc_id-derived PII spans (email, IPv4,
    phone), then scrubbed in ONE stateless RE2 map_batches scan — per-doc
    span counts + the redacted text.  DuckDB (also RE2) reproduces the
    sequential count/replace bit-for-bit."""
    from folkscope_ray.ops.pii import pii_scrub

    def add_pii(b: pa.Table) -> pa.Table:
        did = b.column("doc_id")
        ids = did.to_numpy(zero_copy_only=False)
        s = pc.cast(did, pa.string())
        ip3 = pa.array(((ids // 256) % 256).astype(str), pa.string())
        ip4 = pa.array((ids % 256).astype(str), pa.string())
        ph1 = pc.utf8_lpad(pa.array((ids % 1000).astype(str)), 3, "0")
        ph2 = pc.utf8_lpad(pa.array((ids % 10000).astype(str)), 4, "0")
        t = pc.binary_join_element_wise(
            b.column("text"), " contact user", s, "@example.com from 10.0.",
            ip3, ".", ip4, " tel 555-", ph1, "-", ph2, "")
        return pa.table({"doc_id": did, "text": t})

    aug = (_rp(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(add_pii, batch_format="pyarrow"))
    return pii_scrub(aug, text_col="text")


def _q_bloom_semi_join_lineitem(sf_dir: str):
    """Lineitems of high-value orders via Bloom-prefiltered exact semi-join,
    then a map-side-combined aggregate per returnflag."""
    from folkscope_ray.ops.bloom import bloom_semi_join
    from folkscope_ray.ops.relational import map_combine_aggregate

    hot = (_rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
           .map_batches(
               lambda b: b.filter(pc.greater(b.column("o_totalprice"),
                                             449_000.0)),
               batch_format="pyarrow"))
    survivors = bloom_semi_join(
        _rp(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice"]),
        hot, on="l_orderkey", right_key="o_orderkey",
    )
    return map_combine_aggregate(
        _cents_col(survivors, "l_extendedprice")
        .select_columns(["l_returnflag", "cents"]),
        keys=["l_returnflag"], sums={"cents": "total_cents"},
        count_alias="n_items",
    )


def _q_kg_pagerank(sf_dir: str):
    """Entity importance over the KG triple graph (subj -> obj edges):
    10-iteration fixed-point PageRank, bit-deterministic across parallelism
    (integer rank units), so a committed golden fixture gates it."""
    from folkscope_ray.ops.graph import pagerank

    edges = _kg_for(sf_dir).triples().map_batches(
        lambda b: pa.table({"src": b.column("subj"), "dst": b.column("obj")}),
        batch_format="pyarrow",
    )
    return pagerank(edges, iterations=10)


def _q_kg_components(sf_dir: str):
    """Weakly-connected-component size distribution of the KG triple graph:
    distributed iterative min-label propagation (ops/components — the same
    kernel behind the web-scale canonicalization/minhash paths) followed by
    two map-combined groupbys (label -> size, size -> n_components).
    Deterministic (min-label convergence is order-free), fixture-gated."""
    from folkscope_ray.ops.components import connected_components
    from folkscope_ray.ops.relational import map_combine_aggregate

    edges = _kg_for(sf_dir).triples().select_columns(["subj", "obj"])
    labels = connected_components(edges, a_col="subj", b_col="obj")
    sizes = map_combine_aggregate(
        labels.select_columns(["label"]), keys=["label"], count_alias="size")
    return map_combine_aggregate(
        sizes.select_columns(["size"]), keys=["size"],
        count_alias="n_components")


def _q_tfidf_top_terms(sf_dir: str):
    """Distinctive vocabulary per language: top-10 terms by within-language
    TF-IDF, score = n_occ * (N_lang / n_docs_containing).  The rational
    idf (no transcendental log) keeps the float bit-identical to the SQL
    oracle: one IEEE division + one multiplication, same order both sides.
    Shuffle discipline: term_stats_partials collapses each block to one row
    per distinct (lang, term), so the groupby moves vocabulary rows."""
    import pandas as pd

    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.text import term_stats_partials

    stats = map_combine_aggregate(
        _rp(sf_dir, "documents", ["lang", "text"])
        .map_batches(term_stats_partials, batch_format="pyarrow"),
        keys=["lang", "term"],
        sums={"n_occ": "n_occ", "n_docs": "n_docs"}, count_alias="__nb",
    ).drop_columns(["__nb"])

    n_by_lang = (
        map_combine_aggregate(
            _rp(sf_dir, "documents", ["lang"]),
            keys=["lang"], count_alias="n_lang",
        ).to_pandas().set_index("lang")["n_lang"].to_dict()
    )  # tiny (one row per language) — broadcast into the score map

    def score(b: pa.Table) -> pa.Table:
        langs = b.column("lang").to_pylist()
        n_lang = np.array([n_by_lang[l] for l in langs], dtype=np.float64)
        n_occ = b.column("n_occ").to_numpy().astype(np.float64)
        n_docs = b.column("n_docs").to_numpy().astype(np.float64)
        return b.append_column("score", pa.array(n_occ * (n_lang / n_docs),
                                                 pa.float64()))

    def top10(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["score", "term"], ascending=[False, True],
                             kind="mergesort").head(10)

    return (
        stats.map_batches(score, batch_format="pyarrow")
        .groupby("lang").map_groups(top10, batch_format="pandas")
    )


def _q_stratified_split_docs(sf_dir: str):
    """Reproducible train/val/test assignment (~80/10/10 by first md5 byte
    of doc_id) with per-(lang, split) doc counts and char budgets — the
    standard curation step in front of LM training.  Stateless, shuffle-free
    assignment; only (lang, split) partials move."""
    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.split import hash_split_batch

    return map_combine_aggregate(
        _rp(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .map_batches(lambda b: hash_split_batch(b, "doc_id"),
                     batch_format="pyarrow")
        .select_columns(["lang", "split", "n_chars"]),
        keys=["lang", "split"], sums={"n_chars": "sum_chars"},
        count_alias="n_docs",
    )


def _q_quantile_band_docs(sf_dir: str):
    """Per-language length-band filter (keep docs with p05 <= n_chars <=
    p95) and the surviving char budget — outlier trimming for training
    corpora.  Exact per-key quantiles via a (lang, n_chars) histogram
    shuffle (bounded by the value domain); thresholds broadcast into a
    stateless filter map."""
    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.split import quantiles_by_key

    docs = _rp(sf_dir, "documents", ["lang", "n_chars"])
    q = quantiles_by_key(docs, "lang", "n_chars", [0.05, 0.95])
    lo = q[q["q"] == 0.05].set_index("lang")["value"].to_dict()
    hi = q[q["q"] == 0.95].set_index("lang")["value"].to_dict()

    def band(b: pa.Table) -> pa.Table:
        langs = b.column("lang").to_pylist()
        n = b.column("n_chars").to_numpy()
        lov = np.array([lo[l] for l in langs], dtype=np.int64)
        hiv = np.array([hi[l] for l in langs], dtype=np.int64)
        return b.filter(pa.array((n >= lov) & (n <= hiv)))

    return map_combine_aggregate(
        docs.map_batches(band, batch_format="pyarrow"),
        keys=["lang"], sums={"n_chars": "sum_chars"}, count_alias="n_docs",
    )


def _q_sample_per_lang_docs(sf_dir: str):
    """Balanced deterministic subsample: 5 docs per language by md5(doc_id)
    order (uniform without-replacement with a fixed seed; bit-stable across
    runs / parallelism / the SQL oracle)."""
    from folkscope_ray.ops.split import sample_per_key

    return sample_per_key(
        _rp(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        key_col="lang", id_col="doc_id", n=5, keep_cols=["n_chars"],
    )


def _q_full_outer_join_orders(sf_dir: str):
    """FULL OUTER join with unmatched rows on BOTH sides: high-value orders
    vs many-item orders (aggregated lineitem side), nulls filled to keep the
    hash compare exact."""
    from folkscope_ray.ops.relational import hash_join, map_combine_aggregate

    def prep(b: pa.Table) -> pa.Table:
        f = b.filter(pc.greater(b["o_totalprice"], 300_000.0))
        cents = pc.cast(pc.round(pc.multiply(f["o_totalprice"], 100.0)),
                        pa.int64())
        return pa.table({"o_orderkey": f["o_orderkey"], "cents": cents})

    left = (
        _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow")
    )
    right = (
        map_combine_aggregate(
            _rp(sf_dir, "lineitem", ["l_orderkey"])
            .map_batches(lambda b: b.rename_columns(["o_orderkey"]),
                         batch_format="pyarrow"),
            keys=["o_orderkey"], count_alias="n_items",
        )
        .map_batches(lambda b: b.filter(pc.greater_equal(b["n_items"], 6)),
                     batch_format="pyarrow")
    )
    j = hash_join(left, right, on="o_orderkey", how="full_outer")

    def fill(b: pa.Table) -> pa.Table:
        cents = pc.fill_null(pc.cast(b["cents"], pa.int64()), 0)
        n_items = pc.fill_null(pc.cast(b["n_items"], pa.int64()), 0)
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "cents": cents, "n_items": n_items})

    return j.map_batches(fill, batch_format="pyarrow")


def _q_pack_sequences_docs(sf_dir: str):
    """Cut the corpus into fixed 2000-char training sequences (offset
    packing in doc_id order, two-phase chunked scan) and report per-sequence
    doc counts + char budgets."""
    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.split import pack_sequences

    packed = pack_sequences(
        _rp(sf_dir, "documents", ["doc_id", "n_chars"]),
        id_col="doc_id", size_col="n_chars", budget=2000, chunk_span=64,
    )
    return map_combine_aggregate(
        packed.select_columns(["seq_id", "n_chars"]),
        keys=["seq_id"], sums={"n_chars": "sum_chars"}, count_alias="n_docs",
    )


def _q_kg_degree_dist(sf_dir: str):
    """Out-degree distribution of the KG triple graph — two cascaded
    map-combine groupbys (subj -> out_deg, out_deg -> n_nodes); the oracle
    is real SQL over the committed kg_triples fixture (itself hash-gated)."""
    from folkscope_ray.ops.relational import map_combine_aggregate

    deg = map_combine_aggregate(
        _kg_for(sf_dir).triples().select_columns(["subj"]),
        keys=["subj"], count_alias="out_deg",
    )
    return map_combine_aggregate(
        deg.select_columns(["out_deg"]), keys=["out_deg"],
        count_alias="n_nodes",
    )


def _q_jaccard_selfjoin_docs(sf_dir: str):
    """Prefix-filtered set-similarity self-join (PPJoin-lite): every document
    pair with token-set Jaccard >= 0.9, exact integer ppm similarity.  See
    ops/setjoin.py for the candidate-bounding plan (frequency-ordered
    prefixes, length filter, bucketed term shuffle)."""
    from folkscope_ray.ops.setjoin import jaccard_selfjoin

    return jaccard_selfjoin(
        _rp(sf_dir, "documents", ["doc_id", "text"]),
        threshold_ppm=900_000)


def _q_cooccur_edges_lineitem(sf_dir: str):
    """Co-purchase graph construction (market-basket projection): distinct
    part pairs co-occurring in an order, with the number of supporting
    orders.  One group-hash shuffle + per-bucket vectorized self-merge."""
    from folkscope_ray.ops.graph import cooccurrence_edges

    return cooccurrence_edges(
        _rp(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        group_col="l_orderkey", item_col="l_partkey")


def _q_triangle_count_lineitem(sf_dir: str):
    """Exact triangle count of the co-purchase graph — the canonical
    two-join distributed plan (wedge join + closing-edge join), no driver
    materialization of the wedge stream."""
    from folkscope_ray.ops.graph import cooccurrence_edges, triangle_count

    edges = cooccurrence_edges(
        _rp(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        group_col="l_orderkey", item_col="l_partkey")
    return triangle_count(edges.select_columns(["a", "b"]))


def _q_interval_join_orders_lineitem(sf_dir: str):
    """Equality + interval-overlap join (grid-partitioned temporal join,
    ops/interval.py): lineitems shipped within 30 days of their order's
    placement.  Left intervals [o_orderdate, +30d], right points
    [l_shipdate, l_shipdate], equality on the order key; each pair is
    emitted exactly once by the grid cell that owns max(start_l, start_r)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from folkscope_ray.ops.interval import interval_join

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def win(b: pa.Table) -> pa.Table:
        s = b.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64())
        e = pc.add(s, 30 * 86400 * 1_000_000)
        return (b.drop_columns(["o_orderdate"])
                .append_column("w_start", s).append_column("w_end", e))

    orders = orders.map_batches(win, batch_format="pyarrow")
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_shipdate"])
    li = li.map_batches(
        lambda b: b.rename_columns(
            ["o_orderkey" if n == "l_orderkey" else n
             for n in b.column_names]),
        batch_format="pyarrow")
    out = interval_join(orders, li, on="o_orderkey",
                        left_start="w_start", left_end="w_end",
                        right_start="l_shipdate", right_end="l_shipdate")
    return out.select_columns(["o_orderkey", "o_custkey", "l_linenumber"])


def _q_corr_matrix_lineitem(sf_dir: str):
    """Pairwise Pearson correlation of the four lineitem measures from
    EXACT integer moments (one partial row per block, Python-bignum driver
    combine, closed-form finish — ops/stats.py).  Bit-deterministic at any
    parallelism; the oracle spells the identical formula over HUGEINT."""
    from folkscope_ray.ops.stats import corr_matrix

    return corr_matrix(
        _rp(sf_dir, "lineitem"),
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"], scale=100)


def _q_pca_embeddings(sf_dir: str):
    """Top-4 principal components of the embeddings table: exact int64
    covariance moments (shuffle-free, d^2 driver bytes), deterministic
    sign-fixed eigh, broadcast projection quantized to ppm
    (ops/vector.py pca_project).  Not SQL-expressible — gated by the
    partition-invariance pytest + driver rows/schema check."""
    from folkscope_ray.ops.vector import pca_project

    return pca_project(_rp(sf_dir, "embeddings"), vec_col="embedding",
                       id_col="vec_id", k=4)


def _q_weighted_sample_parts(sf_dir: str):
    """Deterministic weighted sampling without replacement (Efraimidis-
    Spirakis): top-20 parts by md5-uniform^(1/retailprice) — selection
    probability increasing in price, reproducible across engines.  Per-block
    top-k partials, then a global sort.limit over <= k rows per block
    (ops/split.py weighted_sample)."""
    from folkscope_ray.ops.split import weighted_sample

    return weighted_sample(
        _rp(sf_dir, "part", ["p_partkey", "p_retailprice"]),
        key_col="p_partkey", weight_col="p_retailprice", k=20, seed=42)


def _q_heavy_hitter_users(sf_dir: str):
    """Exact top-10 users by event count via Misra-Gries candidates +
    exact recount (two-pass sketch: candidate rows shuffle, never the
    key universe).  capacity=2048 >= the distinct-user count at the test
    scales, i.e. the bounded-domain regime where the result is
    unconditionally exact (see heavy_hitters docstring)."""
    from folkscope_ray.ops.sketch import heavy_hitters

    return heavy_hitters(_rp(sf_dir, "events"), key_col="user_id",
                         top_k=10, capacity=2048)


def _q_chunk_overlap_docs(sf_dir: str):
    """Context-window sharding with overlap (size=16 tokens, stride=12 —
    25% overlap): one stateless Arrow-RE2 + numpy scan emitting
    (doc_id, chunk_idx, n_tokens, chunk) rows (ops/text.py
    chunk_overlap_batch).  The LLM-training shard step after dedup."""
    from folkscope_ray.ops.text import chunk_overlap_batch

    return (_rp(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(lambda b: chunk_overlap_batch(b, size=16, stride=12),
                         batch_format="pyarrow"))


def _q_impute_group_mean_orders(sf_dir: str):
    """Per-priority mean imputation of a price column with planted nulls
    (orderkey % 7 == 0): exact integer moments + one IEEE division of
    identical operands, join-back rides hash_join's broadcast escape
    (ops/stats.py impute_group_mean)."""
    from folkscope_ray.ops.stats import impute_group_mean

    def plant(b: pa.Table) -> pa.Table:
        k = b.column("o_orderkey").to_numpy(zero_copy_only=False)
        null = pa.array(k % 7 == 0)  # this pyarrow ships no pc.modulo
        price = pc.if_else(null, pa.scalar(None, pa.float64()),
                           b.column("o_totalprice"))
        return pa.table({"o_orderkey": b.column("o_orderkey"),
                         "o_orderpriority": b.column("o_orderpriority"),
                         "price": price})

    base = (_rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
            .map_batches(plant, batch_format="pyarrow"))
    out = impute_group_mean(base, key_col="o_orderpriority",
                            value_col="price", scale=100,
                            alias="price_filled")
    return out.select_columns(["o_orderkey", "o_orderpriority",
                               "price_filled"])


def _q_union_by_name_orders(sf_dir: str):
    """Schema-evolution UNION ALL BY NAME: an 'old snapshot' slice
    (orderkey, totalprice) unioned with a 'new snapshot' slice (orderkey,
    orderpriority) — name-matched columns, typed null fill, zero shuffle
    (ops/relational.py union_by_name)."""
    from folkscope_ray.ops.relational import union_by_name

    orders = _rp(sf_dir, "orders")

    def keep(pred):
        def fn(b: pa.Table) -> pa.Table:
            k = b.column("o_orderkey").to_numpy(zero_copy_only=False)
            return b.filter(pa.array(pred(k)))
        return fn

    old = (orders.select_columns(["o_orderkey", "o_totalprice"])
           .map_batches(keep(lambda k: k % 2 == 0), batch_format="pyarrow"))
    new = (orders.select_columns(["o_orderkey", "o_orderpriority"])
           .map_batches(keep(lambda k: k % 2 == 1), batch_format="pyarrow"))
    u = union_by_name([old, new])

    def sentinel(b: pa.Table) -> pa.Table:
        # NaN != NaN under the driver's value hash — coalesce the
        # null-filled columns to sentinels; null SEMANTICS are pytest-pinned
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_totalprice": pc.fill_null(b.column("o_totalprice"), -1.0),
            "o_orderpriority": pc.fill_null(b.column("o_orderpriority"),
                                            "none"),
        })

    return u.map_batches(sentinel, batch_format="pyarrow")


def _q_windowed_distinct_events(sf_dir: str):
    """Unique users per 1-hour tumbling window: exact COUNT(DISTINCT) via
    two map-side-combined phases — the shuffle moves distinct
    (window, user) pairs per block, never events
    (ops/relational.py windowed_distinct)."""
    from folkscope_ray.ops.relational import windowed_distinct

    return windowed_distinct(_rp(sf_dir, "events"), ts_col="ts",
                             key_col="user_id", window_s=3600)


def _q_collect_ordered_events(sf_dir: str):
    """Per-user full event-type sequence ordered by (ts, event_id) — the
    session-path exporter: one hash shuffle into bucketed vectorized
    bodies (ops/window.py collect_ordered)."""
    from folkscope_ray.ops.window import collect_ordered

    return collect_ordered(_rp(sf_dir, "events"), key_col="user_id",
                           val_col="event_type",
                           order_cols=["ts", "event_id"],
                           list_alias="path", count_alias="n")


def _q_fk_violations_audit(sf_dir: str):
    """Referential-integrity audit over three FK relations — parents
    deterministically damaged (every 11th order / 5th-key customer
    dropped) to plant orphans, plus one clean relation proving the zero
    row (ops/relational.py fk_violations)."""
    from folkscope_ray.ops.relational import fk_violations, union_by_name

    def drop_mod(ds, col, m):
        def fn(b: pa.Table) -> pa.Table:
            k = b.column(col).to_numpy(zero_copy_only=False)
            return b.filter(pa.array(k % m != 0))
        return ds.map_batches(fn, batch_format="pyarrow")

    orders = drop_mod(_rp(sf_dir, "orders", ["o_orderkey"]),
                      "o_orderkey", 11)
    cust = drop_mod(_rp(sf_dir, "customer", ["c_custkey"]),
                    "c_custkey", 5)
    li = _rp(sf_dir, "lineitem", ["l_orderkey"])
    o_full = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    nat = _rp(sf_dir, "nation", ["n_nationkey"])
    sup = _rp(sf_dir, "supplier", ["s_nationkey"])
    a = fk_violations(li, "l_orderkey", orders, "o_orderkey",
                      "lineitem->orders")
    b = fk_violations(o_full.select_columns(["o_custkey"]), "o_custkey",
                      cust, "c_custkey", "orders->customer")
    c = fk_violations(sup, "s_nationkey", nat, "n_nationkey",
                      "supplier->nation")
    return union_by_name([a, b, c])


def _q_regr_slope_brand_parts(sf_dir: str):
    """Per-brand OLS trend line (price ~ size): grouped exact integer
    moments, slope and intercept each ONE float closed form spelled
    identically in SQL (ops/stats.py regr_slope_by_key)."""
    from folkscope_ray.ops.stats import regr_slope_by_key

    return regr_slope_by_key(
        _rp(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"]),
        key_col="p_brand", x_col="p_size", y_col="p_retailprice",
        scale_x=1, scale_y=100)


def _q_minmax_normalize_parts(sf_dir: str):
    """Per-brand 0-1 min-max scaling of retail price — exact extrema +
    an IEEE op chain spelled identically in SQL
    (ops/stats.py minmax_normalize)."""
    from folkscope_ray.ops.stats import minmax_normalize

    out = minmax_normalize(
        _rp(sf_dir, "part", ["p_partkey", "p_brand", "p_retailprice"]),
        key_col="p_brand", value_col="p_retailprice", alias="price_norm")
    return out.select_columns(["p_partkey", "p_brand", "price_norm"])


def _q_topk_ties_parts(sf_dir: str):
    """Tie-aware top-3 sizes per brand (RANK, not ROW_NUMBER — every row
    tied at a kept rank survives; ops/split.py topk_ties)."""
    from folkscope_ray.ops.split import topk_ties

    out = topk_ties(_rp(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]),
        key_col="p_brand", value_col="p_size", k=3, ascending=False)
    return out.select_columns(["p_partkey", "p_brand", "p_size", "rnk"])


def _q_trailing_range_sum_orders(sf_dir: str):
    """7-day trailing revenue per customer (RANGE BETWEEN INTERVAL frame —
    the time-window shape ROWS frames can't express): exact integer cents,
    one vectorized searchsorted per bucket
    (ops/window.py trailing_range_sum)."""
    from folkscope_ray.ops.window import trailing_range_sum

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b.column("o_totalprice"), 100.0)),
                    pa.int64())
        return pa.table({"o_orderkey": b.column("o_orderkey"),
                         "o_custkey": b.column("o_custkey"),
                         "o_orderdate": b.column("o_orderdate"),
                         "cents": c})

    base = (_rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
            .map_batches(cents, batch_format="pyarrow"))
    out = trailing_range_sum(base, key_col="o_custkey", ts_col="o_orderdate",
                             int_value_col="cents", range_s=7 * 86400)
    return out.select_columns(["o_orderkey", "o_custkey", "win_sum",
                               "win_n"])


def _q_explode_tokens_docs(sf_dir: str):
    """UNNEST WITH ORDINALITY: every doc exploded into (doc_id, token,
     1-based position) — zero-copy Arrow list flatten + one vectorized
    take (ops/relational.py explode_column)."""
    from folkscope_ray.ops.relational import explode_column

    def toks(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column("text")), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        # drop the empty strings the split leaves at edges
        flat = la.flatten()
        keep = pc.greater(pc.binary_length(flat), 0).to_numpy(
            zero_copy_only=False)
        import numpy as _np

        off = la.offsets.to_numpy().astype(_np.int64)
        doc_of = _np.repeat(_np.arange(b.num_rows), _np.diff(off))
        kept_per = _np.bincount(doc_of[keep], minlength=b.num_rows)
        filt = pa.ListArray.from_arrays(
            pa.array(_np.r_[0, _np.cumsum(kept_per)], pa.int32()),
            flat.filter(pa.array(keep)))
        return pa.table({"doc_id": b.column("doc_id"), "ts": filt})

    lists = (_rp(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(toks, batch_format="pyarrow"))
    return explode_column(lists, "ts", keep_cols=["doc_id"],
                          alias="token", pos_alias="pos")


def _q_incremental_agg_orders(sf_dir: str):
    """Incremental aggregate maintenance: a materialized per-customer
    (n, sum_cents) aggregate over the 'base' 95% of orders is updated with
    the 5% 'delta' WITHOUT rescanning base rows — aggregate the delta,
    union the two partial tables, combine (sums/counts commute).  The
    oracle aggregates the full table directly; equality proves the
    maintenance algebra.  At 100 TB this is the nightly-ingest shape:
    work is O(delta), never O(base)."""
    from folkscope_ray.ops.relational import map_combine_aggregate

    def part(pred):
        def fn(b: pa.Table) -> pa.Table:
            k = b.column("o_orderkey").to_numpy(zero_copy_only=False)
            t = b.filter(pa.array(pred(k)))
            cents = pc.cast(pc.round(pc.multiply(t.column("o_totalprice"),
                                                 100.0)), pa.int64())
            return pa.table({"o_custkey": t.column("o_custkey"),
                             "cents": cents})
        return fn

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    base_agg = map_combine_aggregate(
        orders.map_batches(part(lambda k: k % 20 != 0),
                           batch_format="pyarrow"),
        keys=["o_custkey"], sums={"cents": "sum_cents"}, count_alias="n")
    delta_agg = map_combine_aggregate(
        orders.map_batches(part(lambda k: k % 20 == 0),
                           batch_format="pyarrow"),
        keys=["o_custkey"], sums={"cents": "sum_cents"}, count_alias="n")
    # the maintenance step: combine partial aggregates, touch no base rows
    return map_combine_aggregate(
        base_agg.union(delta_agg),
        keys=["o_custkey"], sums={"sum_cents": "sum_cents", "n": "n"},
        count_alias="__parts").drop_columns(["__parts"])


def _q_pushdown_filter_orders(sf_dir: str):
    """Prune at the read: row filter AND column projection pushed into the
    parquet scan itself (only matching row groups / columns leave
    storage) — the first discipline of a 100-TB read."""
    import pyarrow.dataset as pads
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice"],
        filter=(pads.field("o_totalprice") > 400000.0))
    return ds


def _q_seqmatch_events(sf_dir: str):
    """MATCH_RECOGNIZE-lite sequence pattern matching: per user, count
    non-overlapping 'view+ click+ purchase' funnels over the (ts, event_id)-
    ordered one-char event-code sequence (ops/seq.py seq_match — one hash
    shuffle into bucketed vectorized bodies, compiled-regex count)."""
    from folkscope_ray.ops.seq import seq_match

    return seq_match(
        _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]),
        key_col="user_id", order_cols=["ts", "event_id"],
        cat_col="event_type",
        codes={"view": "v", "click": "c", "purchase": "p",
               "signup": "s", "error": "e"},
        pattern="v+c+p", default_code="x")


def _q_feature_hash_docs(sf_dir: str):
    """Hashing-trick bag-of-words (dim=64): sparse (doc_id, bucket, tf)
    triples with bucket = md5(token)[:12 hex] mod 64 — the stateless
    fixed-width featurizer in front of the finetune classifier
    (ops/encode.py feature_hash; vectorized md5 kernel, map-side combined
    term counts)."""
    from folkscope_ray.ops.encode import feature_hash

    return feature_hash(_rp(sf_dir, "documents"), id_col="doc_id",
                        text_col="text", dim=64)


def _q_target_encode_orders(sf_dir: str):
    """Smoothed target (mean) encoding of o_orderpriority against order
    value: enc = (sum_cents + 50 * global_mean) / (n + 50) from exact
    integer moments (ops/encode.py target_encode — per-key map-combine +
    one tree-reduced global moment, no second scan)."""
    from folkscope_ray.ops.encode import target_encode

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]), "o_totalprice")
    return target_encode(ds.select_columns(["o_orderpriority", "cents"]),
                         key_col="o_orderpriority", int_value_col="cents",
                         m=50.0)


def _q_ordinal_encode_parts(sf_dir: str):
    """Dictionary/ordinal encoding: dense contiguous ids for p_brand and
    p_type in sorted-value order (DENSE_RANK - 1) — the label-encode step
    in front of an embedding table (ops/encode.py ordinal_encode: one
    distinct-aggregate per column, vocabulary broadcast once, hash-indexed
    lookup per batch; encode.ENCODE_BROADCAST_MAX-gated)."""
    from folkscope_ray.ops.encode import ordinal_encode

    return ordinal_encode(
        _rp(sf_dir, "part", ["p_partkey", "p_brand", "p_type"]),
        cols=["p_brand", "p_type"])


def _q_kfold_split_docs(sf_dir: str):
    """K-fold cross-validation audit: fold = md5(doc_id)[:8 hex] mod 5 (a
    pure function of the id — reproducible across runs/parallelism/resume),
    aggregated to per-(fold, lang) doc counts and char sums
    (ops/encode.py kfold_assign + map-combined aggregate)."""
    from folkscope_ray.ops.encode import kfold_assign
    from folkscope_ray.ops.relational import map_combine_aggregate

    ds = kfold_assign(
        _rp(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        id_col="doc_id", k=5)
    return map_combine_aggregate(
        ds.select_columns(["fold", "lang", "n_chars"]),
        keys=["fold", "lang"], sums={"n_chars": "sum_chars"},
        count_alias="n_docs")


def _q_rrf_fusion_docs(sf_dir: str):
    """Reciprocal-rank fusion of two independent rankers (top-200 by char
    length vs top-200 by token count): integer-exact consensus score
    sum(1e6 // (60 + rank)) per doc (ops/index.py rrf_fuse — stateless
    scoring scans + map-combined per-id sum).  The standard lexical+dense
    list-merge a retrieval/curation pipeline runs."""
    import ray.data as rd

    from folkscope_ray.ops.index import rrf_fuse

    docs = _rp(sf_dir, "documents")
    k = 200

    def ranked(ds, score_col):
        # TOTAL sort order (score DESC, doc_id ASC) BEFORE the limit, so
        # boundary ties cut the same rows as the oracle's row_number
        top = (ds.sort([score_col, "doc_id"], descending=[True, False])
               .limit(k).to_pandas())
        top["rnk"] = np.arange(1, len(top) + 1, dtype=np.int64)
        return rd.from_arrow(pa.Table.from_pandas(
            top[["doc_id", "rnk"]], preserve_index=False))

    def ntok(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column("text")), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        flat = la.flatten()
        keep = pc.greater(pc.binary_length(flat), 0).to_numpy(
            zero_copy_only=False)
        off = la.offsets.to_numpy().astype(np.int64)
        doc_of = np.repeat(np.arange(b.num_rows), np.diff(off))
        nt = np.bincount(doc_of[keep], minlength=b.num_rows)
        return pa.table({"doc_id": b.column("doc_id"),
                         "nt": pa.array(nt.astype(np.int64), pa.int64())})

    list_a = ranked(docs.select_columns(["doc_id", "n_chars"]), "n_chars")
    list_b = ranked(docs.select_columns(["doc_id", "text"])
                    .map_batches(ntok, batch_format="pyarrow"), "nt")
    return rrf_fuse([list_a, list_b], id_col="doc_id")


def _q_trimmed_mean_parts(sf_dir: str):
    """Per-brand 10-90% trimmed mean of retail price (tails DROPPED, not
    clamped — complements winsorize): per-key quantile_disc bounds from
    domain-bounded histograms, broadcast back, exact integer sums
    (ops/split.py trimmed_mean_by_key)."""
    from folkscope_ray.ops.split import trimmed_mean_by_key

    ds = _cents_col(
        _rp(sf_dir, "part", ["p_brand", "p_retailprice"]),
        "p_retailprice")
    return trimmed_mean_by_key(ds.select_columns(["p_brand", "cents"]),
                               key_col="p_brand", int_value_col="cents",
                               lo=0.1, hi=0.9)


def _q_twohop_parts(sf_dir: str):
    """Strict 2-hop (friends-of-friends) distinct-neighbor counts on the
    SUPPORT-FILTERED co-purchase graph (pairs co-occurring in >= 2 orders)
    — link-prediction candidate generation (ops/graph.py
    twohop_distinct_counts: symmetrize, ONE wedge hash join, map-combined
    distinct collapse, aggregate-expressed anti-join).  The support filter
    is the standard densification guard: the raw co-occurrence graph has
    avg degree ~90 at sf0.1, and a 2-hop expansion is Theta(sum deg^2) =
    quadratic OUTPUT — no plan fixes that; real co-purchase mining prunes
    noise edges first (support thresholds), which is also what keeps the
    wedge join bounded at 100 TB."""
    from folkscope_ray.ops.graph import (
        cooccurrence_edges,
        twohop_distinct_counts,
    )

    edges = cooccurrence_edges(
        _rp(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        group_col="l_orderkey", item_col="l_partkey").filter(expr="n >= 2")
    return twohop_distinct_counts(edges)


def _q_split_leakage_docs(sf_dir: str):
    """Train/val/test leakage audit: content hashes appearing in >= 2
    splits of the md5-by-id split — the contamination check before any
    near-dup pass (ops/split.py split_leakage; one stateless scan +
    map-combined per-(hash, split) counts).  The synthetic corpus has no
    exact duplicates, so recrawl clones are PLANTED in-query (every 7th
    doc re-appears under a new id — the fk_violations/except precedent),
    guaranteeing the audit has real leaks to find.  Clone ids offset by
    max(doc_id) + 1 (computed identically in SQL), so they can never
    collide with a real id at ANY scale factor."""
    from folkscope_ray.ops.split import split_leakage

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    offset = int(docs.max("doc_id")) + 1

    def clones(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(ids % 7 == 0))
        return pa.table({
            "doc_id": pc.add(t.column("doc_id"), offset),
            "text": t.column("text"),
        })

    corpus = docs.union(docs.map_batches(clones, batch_format="pyarrow"))
    return split_leakage(corpus, id_col="doc_id", text_col="text")


def _q_dup_rate_by_source_docs(sf_dir: str):
    """Per-source exact-duplicate rate in ppm — the source-quality
    dashboard feeding mixing weights (ops/dedup.py dup_rate_by_key; two
    map-combined aggregates, shuffle bounded by distinct texts)."""
    from folkscope_ray.ops.dedup import dup_rate_by_key

    return dup_rate_by_key(_rp(sf_dir, "documents"), key_col="source")


def _q_mutual_info_parts(sf_dir: str):
    """Mutual information between p_brand and p_size (feature-selection
    screen), per-cell terms quantized to integer microbits before summing
    (the entropy_docs log-parity discipline) — ops/stats.py
    mutual_information; cell table bounded by the categorical domain."""
    from folkscope_ray.ops.stats import mutual_information

    return mutual_information(
        _rp(sf_dir, "part", ["p_brand", "p_size"]),
        x_col="p_brand", y_col="p_size")


def _q_ks_drift_orders(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov drift statistic between the
    order-value distributions of URGENT vs LOW priority orders — integer
    max |cum_a*n_b - cum_b*n_a| over the merged histogram, one final float
    division (ops/stats.py ks_statistic)."""
    from folkscope_ray.ops.stats import ks_statistic

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]), "o_totalprice")
    return ks_statistic(ds.select_columns(["o_orderpriority", "cents"]),
                        group_col="o_orderpriority", int_value_col="cents",
                        group_a="1-URGENT", group_b="5-LOW")


def _q_medoid_embeddings(sf_dir: str):
    """Per-label medoid (exemplar selection after clustering): the vector
    maximizing the integer dot product with its label's fixed-point SUM
    vector — pure int64 arithmetic end to end, so the argmax can never be
    flipped by float rounding (ops/vector.py medoid_by_key; two
    shuffle-free scans with domain-bounded partials)."""
    from folkscope_ray.ops.vector import medoid_by_key

    return medoid_by_key(_rp(sf_dir, "embeddings"), key_col="label",
                         vec_col="embedding", id_col="vec_id",
                         fixed_point_digits=6)


def _q_negative_sample_lineitem(sf_dir: str):
    """Deterministic negative sampling for link prediction (the TransE/NCF
    corruption step): per distinct (supplier, part) edge, 2 md5-drawn
    candidate parts, true positives excluded via a flag-sum aggregate
    anti-join (ops/encode.py negative_sample_pairs)."""
    from folkscope_ray.ops.encode import negative_sample_pairs

    n_parts = _rp(sf_dir, "part").count()
    # item_base=0: the synthetic p_partkey range is [0, n_parts) —
    # verified 0-based, unlike classic 1-based TPC-H
    return negative_sample_pairs(
        _rp(sf_dir, "lineitem", ["l_suppkey", "l_partkey"]),
        user_col="l_suppkey", item_col="l_partkey",
        n_items=n_parts, k=2, item_base=0)


def _q_cohens_kappa_docs(sf_dir: str):
    """Cohen's kappa between two deterministic binary labelers (is-long:
    n_chars >= 310 vs is-token-rich: >= 56 tokens) — the inter-annotator
    agreement gate before trusting auto-labels (ops/stats.py cohens_kappa;
    exact 2x2 counts, float formula mirrored term-for-term in SQL)."""
    from folkscope_ray.ops.stats import cohens_kappa

    def flags(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column("text")), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        flat = la.flatten()
        keep = pc.greater(pc.binary_length(flat), 0).to_numpy(
            zero_copy_only=False)
        off = la.offsets.to_numpy().astype(np.int64)
        doc_of = np.repeat(np.arange(b.num_rows), np.diff(off))
        nt = np.bincount(doc_of[keep], minlength=b.num_rows)
        nc = b.column("n_chars").to_numpy(zero_copy_only=False)
        return pa.table({
            "la": pa.array((nc >= 310).astype(np.int64), pa.int64()),
            "lb": pa.array((nt >= 56).astype(np.int64), pa.int64()),
        })

    return cohens_kappa(
        _rp(sf_dir, "documents", ["text", "n_chars"])
        .map_batches(flags, batch_format="pyarrow"), "la", "lb")


def _q_js_divergence_sources(sf_dir: str):
    """Pairwise Jensen-Shannon divergence between per-source unigram
    distributions (the corpus-similarity matrix behind mixing/dedup
    decisions): per-common-token microbit terms + integer-mass residues,
    bit-identical at any parallelism (ops/lm.py js_divergence_by_key;
    token-bucketed all-pairs partials, domain-bounded key set)."""
    from folkscope_ray.ops.lm import js_divergence_by_key

    return js_divergence_by_key(
        _rp(sf_dir, "documents", ["source", "text"]),
        key_col="source")


def _q_grouping_sets_orders(sf_dir: str):
    """GROUP BY GROUPING SETS ((status), (priority), ()) over order value
    — the general form beside rollup/cube, same ONE-scan shape: every set
    derives from the map-combined finest table
    (ops/window.py grouping_sets_counts)."""
    from folkscope_ray.ops.window import grouping_sets_counts

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"]),
        "o_totalprice")
    return grouping_sets_counts(
        ds.select_columns(["o_orderstatus", "o_orderpriority", "cents"]),
        keys=["o_orderstatus", "o_orderpriority"],
        sets=[("o_orderstatus",), ("o_orderpriority",), ()],
        int_value_col="cents", sum_alias="total_cents")


def _q_vocab_coverage_docs(sf_dir: str):
    """Vocabulary coverage curve (share of token occurrences covered by
    the top-k types, k = 5/10/20) — the statistic behind tokenizer-budget
    and min_df decisions (ops/lm.py vocab_coverage: map-combined counts,
    tree-reduced total, total-order distributed top-k)."""
    from folkscope_ray.ops.lm import vocab_coverage

    return vocab_coverage(_rp(sf_dir, "documents"), ks=[5, 10, 20])


def _q_weighted_median_parts(sf_dir: str):
    """Per-brand lower weighted median of retail price, weighted by part
    size (ops/split.py weighted_median_by_key: one map-combined weighted
    histogram, domain-bounded walk — the quantiles_by_key contract with
    weights)."""
    from folkscope_ray.ops.split import weighted_median_by_key

    ds = _cents_col(
        _rp(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"]), "p_retailprice")

    def wcol(b: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": b.column("p_brand"),
            "cents": b.column("cents"),
            "w": pc.cast(b.column("p_size"), pa.int64()),
        })

    return weighted_median_by_key(
        ds.map_batches(wcol, batch_format="pyarrow"),
        key_col="p_brand", value_col="cents", weight_col="w")


def _q_quota_topk_parts(sf_dir: str):
    """Diversified global top-k: best 60 parts by price with at most 4
    per brand (ops/split.py quota_topk: block-local quota prune, bucketed
    per-key ranks, distributed total-order global cut)."""
    from folkscope_ray.ops.split import quota_topk

    ds = _cents_col(
        _rp(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"]), "p_retailprice")
    out = quota_topk(ds.select_columns(["p_brand", "p_partkey", "cents"]),
                     key_col="p_brand", value_col="cents",
                     id_col="p_partkey", k_global=60, per_key_quota=4)
    return out[["p_brand", "p_partkey", "cents", "rn"]]


def _q_global_rank_orders(sf_dir: str):
    """Global contiguous row numbers over a total order (zipWithIndex —
    the primitive Ray Data lacks): orders ranked by (value DESC, key) via
    ONE distributed sort + a per-block metadata offset pass + zero-shuffle
    tag tasks (ops/relational.py global_row_number, the documented
    raw-Ray escape hatch)."""
    from folkscope_ray.ops.relational import global_row_number

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"]), "o_totalprice")
    return global_row_number(
        ds.select_columns(["o_orderkey", "cents"]),
        order_cols=["cents", "o_orderkey"], descending=[True, False])


def _q_quantile_normalize_docs(sf_dir: str):
    """Quantile normalization of doc length across sources (batch-effect
    correction before cross-source filtering): each row mapped to the
    GLOBAL value at its within-source percentile — per-source ranks, the
    zipWithIndex global rank table, ONE gated hash join on the computed
    rank (ops/stats.py quantile_normalize)."""
    from folkscope_ray.ops.stats import quantile_normalize

    return quantile_normalize(
        _rp(sf_dir, "documents", ["doc_id", "source", "n_chars"]),
        key_col="source", value_col="n_chars", id_col="doc_id",
        alias="norm_chars")


def _q_fuzzy_decontam_docs(sf_dir: str):
    """Fuzzy decontamination: word-set Jaccard >= 1/2 R-S join between the
    training slice (doc_id % 13 != 0) and the held-out benchmark slice
    (doc_id % 13 == 0) — the near-dup sibling of the verbatim n-gram
    decontam; exact integer threshold (t_den*inter >= t_num*union), masks
    + broadcast benchmark, no shuffle after the vocabulary aggregate
    (ops/decontam.py jaccard_cross_join)."""
    from folkscope_ray.ops.decontam import jaccard_cross_join

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def side(keep_bench: bool):
        def fn(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            mask = (ids % 13 == 0) if keep_bench else (ids % 13 != 0)
            return b.filter(pa.array(mask))
        return docs.map_batches(fn, batch_format="pyarrow")

    return jaccard_cross_join(side(False), side(True), id_col="doc_id",
                              text_col="text", t_num=1, t_den=2,
                              left_alias="train_id", right_alias="bench_id")


def _q_bernoulli_sample_docs(sf_dir: str):
    """Deterministic row-level Bernoulli downsampling with per-language
    rates (en 80% / others 35%): md5(seed|id) uniform draw vs rate_ppm —
    exact integer compare, one stateless scan, no shuffle
    (ops/split.py bernoulli_sample)."""
    from folkscope_ray.ops.split import bernoulli_sample

    def rate(b: pa.Table) -> pa.Table:
        lang = b.column("lang")
        r = pc.if_else(pc.equal(lang, pa.scalar("en")),
                       pa.scalar(800_000, pa.int64()),
                       pa.scalar(350_000, pa.int64()))
        return b.append_column("rate_ppm", r)

    ds = (_rp(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
          .map_batches(rate, batch_format="pyarrow"))
    out = bernoulli_sample(ds, id_col="doc_id", rate_ppm_col="rate_ppm",
                           seed=42)
    return out.select_columns(["doc_id", "lang", "n_chars"])


def _q_pareto_front_parts(sf_dir: str):
    """2-D Pareto front over parts (maximize retail price AND size) — the
    multi-objective selection primitive; associative block-local fronts,
    zero shuffles (ops/split.py pareto_front)."""
    from folkscope_ray.ops.split import pareto_front

    ds = _cents_col(
        _rp(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"]), "p_retailprice")

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": b.column("p_partkey"),
            "cents": b.column("cents"),
            "psize": pc.cast(b.column("p_size"), pa.int64()),
        })

    return pareto_front(ds.map_batches(prep, batch_format="pyarrow"),
                        x_col="cents", y_col="psize")


def _q_asof_forward_events(sf_dir: str):
    """FORWARD as-of join (next-scheduled-event lookup): every click
    matched to the same user's NEXT purchase at-or-after it — the
    direction="forward" variant of the bucketed merge_asof
    (ops/relational.py asof_join; DuckDB ASOF with l.ts <= r.ts)."""
    from folkscope_ray.ops.relational import asof_join

    def typed(t: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("event_type"), t)).select(
                ["event_id", "user_id", "ts"])
        return fn

    ev = _rp(sf_dir, "events")
    joined = asof_join(
        ev.map_batches(typed("click"), batch_format="pyarrow"),
        ev.map_batches(typed("purchase"), batch_format="pyarrow"),
        key_col="user_id", on_col="ts", direction="forward",
    )

    def project(b: pa.Table) -> pa.Table:
        secs = pc.cast(pc.floor(pc.divide(pc.cast(
            pc.cast(b.column("ts"), pa.timestamp("us")), pa.int64()), 1e6)),
            pa.int64())
        nxt = pc.cast(pc.floor(pc.divide(pc.cast(
            pc.cast(b.column("ts_asof"), pa.timestamp("us")), pa.int64()),
            1e6)), pa.int64())
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "secs": secs,
            "next_secs": pc.fill_null(nxt, -1),
        })

    return joined.map_batches(project, batch_format="pyarrow")


def _q_intersect_orders_pairs(sf_dir: str):
    """SQL INTERSECT over composite tuples: (custkey, priority) pairs seen
    among BOTH open and finished orders — except_distinct's complement
    (ops/relational.py intersect_distinct)."""
    from folkscope_ray.ops.relational import intersect_distinct

    src = _rp(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_orderstatus"])

    def status(v: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("o_orderstatus"), v)) \
                .select(["o_custkey", "o_orderpriority"])
        return fn

    left = src.map_batches(status("O"), batch_format="pyarrow")
    right = src.map_batches(status("F"), batch_format="pyarrow")
    return intersect_distinct(left, right,
                              cols=["o_custkey", "o_orderpriority"])


def _q_chi2_parts(sf_dir: str):
    """Pearson chi-square independence between p_brand and p_size —
    mutual_info's frequentist sibling, same microquantized-term discipline
    (ops/stats.py chi2_independence)."""
    from folkscope_ray.ops.stats import chi2_independence

    return chi2_independence(
        _rp(sf_dir, "part", ["p_brand", "p_size"]),
        x_col="p_brand", y_col="p_size")


def _q_gini_customer_spend(sf_dir: str):
    """Gini concentration of per-customer spend (how unequal is revenue
    across customers): exact per-key integer totals, zipWithIndex global
    ranks, map-combined rank-weighted sum, one mirrored float expression
    (ops/stats.py gini_coefficient; post-hoc overflow proof)."""
    from folkscope_ray.ops.stats import gini_coefficient

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        "o_totalprice")
    return gini_coefficient(ds.select_columns(["o_custkey", "cents"]),
                            key_col="o_custkey", int_value_col="cents")


def _q_autocorr_events(sf_dir: str):
    """Lag-1 autocorrelation of each user's event-value series (the
    time-series diagnostic for feedback/burst behaviour): LAG via the
    bucketed window op, then per-key Pearson from exact integer moments
    (ops/window.py lag_gap + ops/stats.py corr_by_key)."""
    from folkscope_ray.ops.stats import corr_by_key
    from folkscope_ray.ops.window import lag_gap

    ev = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    lagged = lag_gap(ev, key_col="user_id", order_cols=["ts", "event_id"],
                     value_col="value", ts_us_col="ts")
    # drop each user's first row (sentinel prev); real gaps are >= 0
    f = lagged.filter(expr="gap_us != -1")
    return corr_by_key(
        f.select_columns(["user_id", "value", "prev_value"]),
        key_col="user_id", col_a="value", col_b="prev_value",
        scale_a=100, scale_b=100)


def _q_path_trigrams_events(sf_dir: str):
    """Frequent sequential path patterns: event-code trigrams appearing in
    >= 5 distinct users' ordered paths (contiguous PrefixSpan cut) —
    stride-tricks window extraction over concatenated per-key code
    buffers, distinct-key support adds across key-partitioned buckets
    (ops/seq.py frequent_path_ngrams)."""
    from folkscope_ray.ops.seq import frequent_path_ngrams

    return frequent_path_ngrams(
        _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]),
        key_col="user_id", order_cols=["ts", "event_id"],
        cat_col="event_type",
        codes={"view": "v", "click": "c", "purchase": "p",
               "signup": "s", "error": "e"},
        n=3, min_support=5)


def _q_psi_orders(sf_dir: str):
    """Population Stability Index of order value, pre-1998 reference vs
    1998+ current (THE standard ML-monitoring drift score): reference
    decile edges from exact quantiles, integer bucket assignment, +1
    Laplace-smoothed shares, per-bucket microquantized terms
    (ops/stats.py population_stability)."""
    from folkscope_ray.ops.stats import population_stability

    ds = _cents_col(
        _rp(sf_dir, "orders", ["o_orderdate", "o_totalprice"]), "o_totalprice")

    def side(is_ref: bool):
        import numpy as np

        def fn(b: pa.Table) -> pa.Table:
            d = b.column("o_orderdate").to_numpy(zero_copy_only=False)
            cut = np.datetime64("1998-01-01T00:00:00", "us")
            mask = d < cut if is_ref else d >= cut
            return b.filter(pa.array(mask)).select(["cents"])
        return ds.map_batches(fn, batch_format="pyarrow")

    return population_stability(side(True), side(False),
                                int_value_col="cents", n_bins=10)


def _q_ndcg_docs(sf_dir: str):
    """nDCG@50 of the length ranking against a deterministic graded
    relevance label (en-docs + token-rich get higher grades) — the
    ranking-quality eval op; one distributed total-order sort + limit,
    microquantized per-rank terms (ops/index.py ndcg_at_k)."""
    from folkscope_ray.ops.index import ndcg_at_k

    def grade(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column("text")), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        flat = la.flatten()
        keep = pc.greater(pc.binary_length(flat), 0).to_numpy(
            zero_copy_only=False)
        off = la.offsets.to_numpy().astype(np.int64)
        doc_of = np.repeat(np.arange(b.num_rows), np.diff(off))
        nt = np.bincount(doc_of[keep], minlength=b.num_rows)
        en = pc.equal(b.column("lang"), pa.scalar("en")).to_numpy(
            zero_copy_only=False)
        rel = 2 * en.astype(np.int64) + (nt >= 56).astype(np.int64)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_chars": b.column("n_chars"),
            "rel": pa.array(rel, pa.int64()),
        })

    ds = (_rp(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
          .map_batches(grade, batch_format="pyarrow"))
    return ndcg_at_k(ds, id_col="doc_id", score_col="n_chars",
                     rel_col="rel", k=50)


def _q_gap_cv_users(sf_dir: str):
    """Inter-event burstiness per user: coefficient of variation of the
    gap-seconds series (bot/burst detection — cv >> 1 means bursty) from
    exact integer moments: cv = sqrt(n*s2 - s1^2) / s1, one float
    expression mirrored in SQL (lag_gap + map-combined moments).  Gaps
    quantize to SECONDS so per-key squares stay far inside int64."""
    from folkscope_ray.ops.relational import map_combine_aggregate
    from folkscope_ray.ops.window import lag_gap

    ev = _rp(sf_dir, "events", ["event_id", "ts", "user_id"])
    lagged = lag_gap(ev.map_batches(
        lambda b: b.append_column("value", pc.cast(
            pa.nulls(b.num_rows, pa.int64()).fill_null(0), pa.int64())),
        batch_format="pyarrow"),
        key_col="user_id", order_cols=["ts", "event_id"], value_col="value",
        ts_us_col="ts")

    def gsec(b: pa.Table) -> pa.Table:
        g = b.column("gap_us").to_numpy(zero_copy_only=False)
        keep = g != -1
        gs = g[keep] // 1_000_000
        return pa.table({
            "user_id": b.column("user_id").filter(pa.array(keep)),
            "g": pa.array(gs, pa.int64()),
            "g2": pa.array(gs * gs, pa.int64()),
        })

    m = map_combine_aggregate(
        lagged.map_batches(gsec, batch_format="pyarrow"),
        keys=["user_id"], sums={"g": "s1", "g2": "s2"}, count_alias="n")

    def cv(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False)
        s1 = b.column("s1").to_numpy(zero_copy_only=False)
        s2 = b.column("s2").to_numpy(zero_copy_only=False)
        keep = (n >= 2) & (s1 > 0)
        n, s1, s2 = n[keep], s1[keep], s2[keep]
        out = np.sqrt((n * s2 - s1 * s1).astype(np.float64)) / s1
        return pa.table({
            "user_id": b.column("user_id").filter(pa.array(keep)),
            "n_gaps": pa.array(n, pa.int64()),
            "sum_gap_s": pa.array(s1, pa.int64()),
            "cv": pa.array(out, pa.float64()),
        })

    return m.map_batches(cv, batch_format="pyarrow")


def _q_fleiss_kappa_docs(sf_dir: str):
    """Fleiss' kappa across THREE deterministic binary labelers (is-en,
    is-long, is-token-rich) — multi-rater agreement from three exact
    integer totals, closed form mirrored in SQL
    (ops/stats.py fleiss_kappa_binary)."""
    from folkscope_ray.ops.stats import fleiss_kappa_binary

    def flags(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column("text")), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        flat = la.flatten()
        keep = pc.greater(pc.binary_length(flat), 0).to_numpy(
            zero_copy_only=False)
        off = la.offsets.to_numpy().astype(np.int64)
        doc_of = np.repeat(np.arange(b.num_rows), np.diff(off))
        nt = np.bincount(doc_of[keep], minlength=b.num_rows)
        nc = b.column("n_chars").to_numpy(zero_copy_only=False)
        en = pc.equal(b.column("lang"), pa.scalar("en")).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "r1": pa.array(en.astype(np.int64), pa.int64()),
            "r2": pa.array((nc >= 310).astype(np.int64), pa.int64()),
            "r3": pa.array((nt >= 56).astype(np.int64), pa.int64()),
        })

    return fleiss_kappa_binary(
        _rp(sf_dir, "documents", ["text", "lang", "n_chars"])
        .map_batches(flags, batch_format="pyarrow"),
        rater_cols=["r1", "r2", "r3"])


def queries() -> dict[str, Callable[[str], Any]]:
    # A correctness round checks the FIRST 50 entries (CORRECTNESS_r*.json).
    # Current window: positions 1-48 are the queries that had no
    # CORRECTNESS row before round 5, in registry order; 49-50 are
    # editdist_join_customers and triangle_count_lineitem, whose code
    # paths changed in round 5.  The registry is frozen at 192 entries,
    # every one DuckDB- or fixture-checked at sf0.01 by
    # tools/check_queries.py.
    return {
        # ---- r5 window, positions 1-48: the never-driver-checked debt
        "seqmatch_events": _q_seqmatch_events,
        "twohop_parts": _q_twohop_parts,
        "medoid_embeddings": _q_medoid_embeddings,
        "js_divergence_sources": _q_js_divergence_sources,
        "grouping_sets_orders": _q_grouping_sets_orders,
        "vocab_coverage_docs": _q_vocab_coverage_docs,
        "weighted_median_parts": _q_weighted_median_parts,
        "quota_topk_parts": _q_quota_topk_parts,
        "global_rank_orders": _q_global_rank_orders,
        "quantile_normalize_docs": _q_quantile_normalize_docs,
        "fuzzy_decontam_docs": _q_fuzzy_decontam_docs,
        "bernoulli_sample_docs": _q_bernoulli_sample_docs,
        "pareto_front_parts": _q_pareto_front_parts,
        "asof_forward_events": _q_asof_forward_events,
        "intersect_orders_pairs": _q_intersect_orders_pairs,
        "chi2_parts": _q_chi2_parts,
        "gini_customer_spend": _q_gini_customer_spend,
        "autocorr_events": _q_autocorr_events,
        "path_trigrams_events": _q_path_trigrams_events,
        "psi_orders": _q_psi_orders,
        "ndcg_docs": _q_ndcg_docs,
        "gap_cv_users": _q_gap_cv_users,
        "fleiss_kappa_docs": _q_fleiss_kappa_docs,
        "negative_sample_lineitem": _q_negative_sample_lineitem,
        "cohens_kappa_docs": _q_cohens_kappa_docs,
        "split_leakage_docs": _q_split_leakage_docs,
        "dup_rate_by_source_docs": _q_dup_rate_by_source_docs,
        "mutual_info_parts": _q_mutual_info_parts,
        "ks_drift_orders": _q_ks_drift_orders,
        "feature_hash_docs": _q_feature_hash_docs,
        "target_encode_orders": _q_target_encode_orders,
        "ordinal_encode_parts": _q_ordinal_encode_parts,
        "kfold_split_docs": _q_kfold_split_docs,
        "rrf_fusion_docs": _q_rrf_fusion_docs,
        "trimmed_mean_parts": _q_trimmed_mean_parts,
        "chunk_overlap_docs": _q_chunk_overlap_docs,
        "impute_group_mean_orders": _q_impute_group_mean_orders,
        "union_by_name_orders": _q_union_by_name_orders,
        "windowed_distinct_events": _q_windowed_distinct_events,
        "collect_ordered_events": _q_collect_ordered_events,
        "fk_violations_audit": _q_fk_violations_audit,
        "regr_slope_brand_parts": _q_regr_slope_brand_parts,
        "minmax_normalize_parts": _q_minmax_normalize_parts,
        "topk_ties_parts": _q_topk_ties_parts,
        "trailing_range_sum_orders": _q_trailing_range_sum_orders,
        "explode_tokens_docs": _q_explode_tokens_docs,
        "incremental_agg_orders": _q_incremental_agg_orders,
        "pushdown_filter_orders": _q_pushdown_filter_orders,
        # ---- r5 window, positions 49-50: changed code paths this round
        "editdist_join_customers": _q_editdist_join_customers,
        "triangle_count_lineitem": _q_triangle_count_lineitem,
        # ---- below the fold: the r4 window (all green in CORRECTNESS_r04,
        # code unchanged since except where noted above)
        "weighted_sample_parts": _q_weighted_sample_parts,
        "classifier_finetune_docs": _q_classifier_finetune_docs,
        "entropy_docs": _q_entropy_docs,
        "quantiles_by_brand_parts": _q_quantiles_by_brand_parts,
        "cube_orders": _q_cube_orders,
        "semantic_dedup_embeddings": _q_semantic_dedup_embeddings,
        "countmin_user_freq_events": _q_countmin_user_freq_events,
        "source_cap_docs": _q_source_cap_docs,
        "distinct_users_per_type_events": _q_distinct_users_per_type_events,
        "zscore_outliers_events": _q_zscore_outliers_events,
        "rank_stats_orders": _q_rank_stats_orders,
        "dup_gram_docs": _q_dup_gram_docs,
        "unpivot_lineitem": _q_unpivot_lineitem,
        "winsorize_parts": _q_winsorize_parts,
        "rolling_median_orders": _q_rolling_median_orders,
        "mode_quantity_lineitem": _q_mode_quantity_lineitem,
        "mad_value_events": _q_mad_value_events,
        "regex_extract_docs": _q_regex_extract_docs,
        "retention_cohorts_events": _q_retention_cohorts_events,
        "bfs_depths_lineitem": _q_bfs_depths_lineitem,
        "star_join_revenue_nation": _q_star_join_revenue_nation,
        "quantile_cont_brand_parts": _q_quantile_cont_brand_parts,
        "except_orders_pairs": _q_except_orders_pairs,
        "churned_users_events": _q_churned_users_events,
        "pct_change_orders": _q_pct_change_orders,
        "checksum_orders": _q_checksum_orders,
        "composite_join_lineitem": _q_composite_join_lineitem,
        "profile_orders": _q_profile_orders,
        "bounce_rate_users": _q_bounce_rate_users,
        "wow_growth_events": _q_wow_growth_events,
        "time_rollup_events": _q_time_rollup_events,
        "compress_runs_events": _q_compress_runs_events,
        "latest_event_per_user": _q_latest_event_per_user,
        "corr_by_brand_parts": _q_corr_by_brand_parts,
        "normalized_dedup_docs": _q_normalized_dedup_docs,
        "activity_histogram_events": _q_activity_histogram_events,
        "weighted_avg_price_lineitem": _q_weighted_avg_price_lineitem,
        "upsert_orders": _q_upsert_orders,
        "trending_types_daily_events": _q_trending_types_daily_events,
        "table_diff_orders": _q_table_diff_orders,
        "streaks_events": _q_streaks_events,
        "revenue_share_orders": _q_revenue_share_orders,
        "transition_counts_events": _q_transition_counts_events,
        "funnel_events": _q_funnel_events,
        "collect_topk_docs": _q_collect_topk_docs,
        "kg_triples": _q_kg_triples,
        "kg_eventualities": _q_kg_eventualities,
        "kg_concept_agg": _q_kg_concept_agg,
        "kg_concept_triples": _q_kg_concept_triples,
        "jaccard_selfjoin_docs": _q_jaccard_selfjoin_docs,
        "interval_join_orders_lineitem": _q_interval_join_orders_lineitem,
        "corr_matrix_lineitem": _q_corr_matrix_lineitem,
        "stratified_split_docs": _q_stratified_split_docs,
        "deterministic_shuffle_docs": _q_deterministic_shuffle_docs,
        "sample_per_lang_docs": _q_sample_per_lang_docs,
        "curation_pipeline_docs": _q_curation_pipeline_docs,
        "ann_cosine_topk": _q_ann_cosine_topk,
        "ann_lsh_topk": _q_ann_lsh_topk,
        "ann_ivf_topk": _q_ann_ivf_topk,
        "embedding_neardup_pairs": _q_embedding_neardup_pairs,
        "embedding_neardup_components": _q_embedding_neardup_components,
        "embedding_neardup_pairs_lsh": _q_embedding_neardup_pairs_lsh,
        "embedding_kmeans_clusters": _q_embedding_kmeans_clusters,
        "pca_embeddings": _q_pca_embeddings,
        "mean_vector_by_label": _q_mean_vector_by_label,
        "edge_features": _q_edge_features,
        "wnd_recommender": _q_wnd_recommender,
        # hll register hashing changed this round (version-stable
        # splitmix64/md5 kernel, fixture regenerated) and the exact-quantile
        # rank arithmetic changed (Fraction ranks) — both MUST have an r4
        # driver row, so they sit in tier 2 ahead of the stale fill
        "hll_distinct_users": _q_hll_distinct_users,
        "price_quantiles_parts": _q_price_quantiles_parts,
        # topk_per_group was rewired through cap_per_key this session
        # (map-side pre-prune) — changed path, needs an r4 row
        "topk_per_group_orders": _q_topk_per_group_orders,
        # ---- r4 window, tier 3: stalest-first rotation fill (green in
        # r1/r2 only; no query goes more than two rounds unverified)
        "topk_orders": _q_topk_orders,
        "sort_limit_parts": _q_sort_limit_parts,
        "doc_length_cdf": _q_doc_length_cdf,
        "exact_dedup_docs": _q_exact_dedup_docs,
        "hash_join_lineitem_orders": _q_hash_join_lineitem_orders,
        "minhash_dedup_docs": _q_minhash_dedup_docs,
        "tpch_q1_pricing_summary": _q_tpch_q1,
        "groupby_count_docs": _q_groupby_count_docs,
        "filter_project_events": _q_filter_project_events,
        "salted_agg_events": _q_salted_agg_events,
        "token_count_docs": _q_token_count_docs,
        "events_per_day": _q_events_per_day,
        "acctbal_stats_by_nation": _q_acctbal_stats_by_nation,
        "avg_doc_len_by_lang": _q_avg_doc_len_by_lang,
        "simhash_docs": _q_simhash_docs,
        "fingerprint_docs": _q_fingerprint_docs,
        "langid_quality_docs": _q_langid_quality_docs,
        "multimodal_image_features": _q_multimodal_image_features,
        "dedup_keep_rows": _q_dedup_keep_rows,
        "word_jaccard_docs": _q_word_jaccard_docs,
        # ---------- beyond the 50-row window: unchanged queries green in an
        # earlier round.  The twelve new never-checked operators this
        # session (entropy / grouped quantiles / cube / semantic dedup /
        # countmin / source cap / exact distinct-per-key / z-score
        # outliers / rank family / dup-gram ExactSubstr / edit-distance
        # join) took tier-1 slots, so twelve long-green unchanged fills
        # rotate out (the tail of the stale-fill block above fell past the
        # fold); they — and everything below — go to the FRONT of the r5
        # window ----------
        "distinct_event_types": _q_distinct_event_types,
        "region_nation_join": _q_region_nation_join,
        "multimodal_frame_sample": _q_multimodal_frame_sample,
        "first_wins_by_source": _q_first_wins_by_source,
        "lag_gap_events": _q_lag_gap_events,
        "cumsum_orders": _q_cumsum_orders,
        "moving_avg_orders": _q_moving_avg_orders,
        "left_join_customer_orders": _q_left_join_customer_orders,
        "rollup_orders": _q_rollup_orders,
        "pivot_events_by_type": _q_pivot_events_by_type,
        "row_number_orders": _q_row_number_orders,
        "dense_rank_orders": _q_dense_rank_orders,
        "ntile_orders": _q_ntile_orders,
        "json_extract_events": _q_json_extract_events,
        "top_bigrams_per_lang": _q_top_bigrams_per_lang,
        "repetition_docs": _q_repetition_docs,
        "inverted_index_docs": _q_inverted_index_docs,
        "decontam_docs": _q_decontam_docs,
        "skew_join_events": _q_skew_join_events,
        "bm25_topk_docs": _q_bm25_topk_docs,
        "bloom_semi_join_lineitem": _q_bloom_semi_join_lineitem,
        "heavy_hitter_users": _q_heavy_hitter_users,
        "kg_pagerank": _q_kg_pagerank,
        "kg_components": _q_kg_components,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "quantile_band_docs": _q_quantile_band_docs,
        "pack_sequences_docs": _q_pack_sequences_docs,
        "kg_degree_dist": _q_kg_degree_dist,
        "full_outer_join_orders": _q_full_outer_join_orders,
        "ddsketch_price_quantiles": _q_ddsketch_price_quantiles,
        "stream_dedup_docs": _q_stream_dedup_docs,
        "kg_incremental_triples": _q_kg_incremental_triples,
        "kg_parse_strings": _q_kg_parse_strings,
        "pii_scrub_docs": _q_pii_scrub_docs,
        "chunk_dedup_docs": _q_chunk_dedup_docs,
        "resample_ffill_events": _q_resample_ffill_events,
        "bpe_vocab_docs": _q_bpe_vocab_docs,
        "bpe_token_counts_docs": _q_bpe_token_counts_docs,
        "lm_perplexity_docs": _q_lm_perplexity_docs,
        "mixing_weights_sources": _q_mixing_weights_sources,
        "cooccur_edges_lineitem": _q_cooccur_edges_lineitem,
        "asof_join_events": _q_asof_join_events,
        "range_join_parts": _q_range_join_parts,
        "broadcast_join_orders": _q_broadcast_join_orders,
        "anti_join_customers": _q_anti_join_customers,
        "tumbling_window_events": _q_tumbling_window_events,
        "sliding_window_events": _q_sliding_window_events,
        "session_windows_events": _q_session_windows_events,
        "transe_entity_embeddings": _q_transe_embeddings,
        "ncf_recommender": _q_ncf_recommender,
        "sample_mod_docs": _q_sample_mod_docs,
        "union_name_counts": _q_union_name_counts,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "tpch_q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   sum(l_quantity) AS sum_qty,
                   (round((sum(l_extendedprice)) * 1e2)::BIGINT / 1e2) AS sum_base_price,
                   (round((sum(l_extendedprice * (1 - l_discount))) * 1e2)::BIGINT / 1e2) AS sum_disc_price,
                   (round((avg(l_quantity)) * 1e6)::BIGINT / 1e6) AS avg_qty,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "groupby_count_docs": """
            SELECT lang, source, count(*) AS n FROM documents GROUP BY lang, source
        """,
        "filter_project_events": """
            SELECT event_id, user_id, value FROM events
            WHERE event_type = 'click' AND value > 50.0
        """,
        "topk_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "exact_dedup_docs": """
            SELECT md5(text) AS content_hash, min(doc_id) AS keep_id, count(*) AS n_dupes
            FROM documents GROUP BY md5(text)
        """,
        "first_wins_by_source": """
            SELECT source, min(doc_id) AS keep_id, count(*) AS n FROM documents GROUP BY source
        """,
        "broadcast_join_orders": """
            SELECT c.c_mktsegment, count(*) AS n_orders, (round((sum(o.o_totalprice)) * 1e2)::BIGINT / 1e2) AS total
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "hash_join_lineitem_orders": """
            SELECT o.o_orderpriority, count(*) AS n_items, (round((sum(l.l_extendedprice)) * 1e2)::BIGINT / 1e2) AS sum_price
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority
        """,
        "anti_join_customers": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
        """,
        "salted_agg_events": """
            SELECT event_type, (round((sum(value)) * 1e2)::BIGINT / 1e2) AS sum_value, count(*) AS n
            FROM events GROUP BY event_type
        """,
        "tumbling_window_events": """
            SELECT user_id,
                   (floor(epoch(ts) / 3600) * 3600)::BIGINT AS window_start,
                   count(*) AS n_events, (round((sum(value)) * 1e2)::BIGINT / 1e2) AS sum_value,
                   (round((avg(value)) * 1e6)::BIGINT / 1e6) AS mean_value
            FROM events GROUP BY user_id, window_start
        """,
        "sliding_window_events": """
            WITH e AS (
              SELECT user_id, floor(epoch(ts))::BIGINT AS secs, value FROM events
            ), x AS (
              SELECT user_id, value,
                     unnest(generate_series(
                         ((secs - 3600) // 900 + 1) * 900,
                         (secs // 900) * 900, 900)) AS window_start
              FROM e)
            SELECT user_id, window_start, count(*) AS n_events,
                   (round((sum(value)) * 1e2)::BIGINT / 1e2) AS sum_value
            FROM x GROUP BY user_id, window_start
        """,
        "token_count_docs": """
            SELECT doc_id,
                   CASE WHEN length(trim(text)) = 0 THEN 0
                        ELSE len(string_split_regex(trim(text), '\\s+')) END AS n_words
            FROM documents
        """,
        "doc_length_cdf": """
            SELECT (n_chars // 100)::BIGINT AS len_bucket, count(*) AS n
            FROM documents GROUP BY len_bucket
        """,
        "sort_limit_parts": """
            SELECT p_partkey, p_name, p_retailprice FROM part
            ORDER BY p_retailprice DESC, p_partkey LIMIT 5
        """,
        "distinct_event_types": """
            SELECT event_type, count(*) AS n FROM events GROUP BY event_type
        """,
        "embedding_neardup_pairs": """
            WITH p AS (
              SELECT e1.vec_id AS a, e2.vec_id AS b,
                     (round((list_cosine_similarity(e1.embedding::DOUBLE[], e2.embedding::DOUBLE[])) * 1e6)::BIGINT / 1e6) AS cosine
              FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id
            )
            SELECT a, b, cosine FROM p WHERE cosine >= 0.4
        """,
        "embedding_neardup_components": """
            WITH RECURSIVE p AS (
              SELECT e1.vec_id AS a, e2.vec_id AS b
              FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id
              WHERE (round((list_cosine_similarity(e1.embedding::DOUBLE[], e2.embedding::DOUBLE[])) * 1e6)::BIGINT / 1e6) >= 0.4
            ), e AS (
              SELECT a, b FROM p UNION ALL SELECT b AS a, a AS b FROM p
            ), reach(node, lab) AS (
              SELECT vec_id, vec_id FROM embeddings
              UNION
              SELECT e.b AS node, reach.lab FROM reach JOIN e ON e.a = reach.node
            )
            SELECT node AS vec_id, min(lab) AS component FROM reach GROUP BY node
        """,
        "ann_cosine_topk": """
            SELECT e2.vec_id AS vec_id,
                   (round((list_cosine_similarity(e1.embedding::DOUBLE[], e2.embedding::DOUBLE[])) * 1e6)::BIGINT / 1e6) AS cosine
            FROM embeddings e1 CROSS JOIN embeddings e2
            WHERE e1.vec_id = 0 AND e2.vec_id <> 0
            ORDER BY cosine DESC, e2.vec_id LIMIT 10
        """,
        "events_per_day": """
            SELECT (epoch(ts)::BIGINT // 86400) AS day_idx, count(*) AS n
            FROM events GROUP BY day_idx
        """,
        "region_nation_join": """
            SELECT r.r_name, count(*) AS n_nations
            FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name
        """,
        "acctbal_stats_by_nation": """
            SELECT c_nationkey, min(c_acctbal) AS min_bal, max(c_acctbal) AS max_bal,
                   (round((avg(c_acctbal)) * 1e6)::BIGINT / 1e6) AS avg_bal, count(*) AS n
            FROM customer GROUP BY c_nationkey
        """,
        "avg_doc_len_by_lang": """
            SELECT lang, (round((avg(n_chars)) * 1e6)::BIGINT / 1e6) AS avg_chars, count(*) AS n
            FROM documents GROUP BY lang
        """,
        "range_join_parts": """
            WITH bands(band, lo, hi) AS (VALUES
                ('b0', 0.0, 920.0), ('b1', 920.0, 940.0),
                ('b2', 940.0, 960.0), ('b3', 960.0, 980.0),
                ('b4', 980.0, 10000000.0))
            SELECT band, count(*) AS n_parts,
                   sum(round(p_retailprice * 100)::BIGINT)::BIGINT AS cents
            FROM part p JOIN bands b
              ON p.p_retailprice >= b.lo AND p.p_retailprice < b.hi
            GROUP BY band
        """,
        "asof_join_events": """
            SELECT p.event_id, p.user_id,
                   floor(epoch(p.ts))::BIGINT AS secs,
                   COALESCE(floor(epoch(c.ts))::BIGINT, -1) AS prev_secs
            FROM (SELECT * FROM events WHERE event_type = 'purchase') p
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
              ON p.user_id = c.user_id AND c.ts <= p.ts
        """,
        "session_windows_events": """
            WITH t0 AS (
              SELECT user_id, event_id, floor(epoch(ts))::BIGINT AS secs, ts
              FROM events
            ), t AS (
              SELECT user_id, event_id, secs, ts,
                     CASE WHEN secs - lag(secs) OVER w > 1800
                          OR lag(secs) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
              FROM t0
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
              SELECT user_id, secs,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) AS session_id
              FROM t)
            SELECT user_id, session_id::BIGINT AS session_id,
                   count(*) AS n_events,
                   min(secs) AS start_epoch, max(secs) AS end_epoch
            FROM s GROUP BY user_id, session_id
        """,
        "topk_per_group_orders": """
            SELECT o_orderpriority, o_orderkey, o_totalprice FROM (
              SELECT o_orderpriority, o_orderkey, o_totalprice,
                     row_number() OVER (PARTITION BY o_orderpriority
                                        ORDER BY o_totalprice DESC, o_orderkey) AS rn
              FROM orders) WHERE rn <= 3
        """,
        "dedup_keep_rows": """
            SELECT doc_id, lang, source, n_chars FROM documents
            WHERE doc_id IN (
              SELECT min(doc_id) FROM documents GROUP BY md5(text))
        """,
        "sample_mod_docs": """
            SELECT doc_id, lang, n_chars FROM documents WHERE doc_id % 8 = 0
        """,
        "union_name_counts": """
            SELECT name, count(*) AS n FROM (
              SELECT r_name AS name FROM region
              UNION ALL SELECT n_name AS name FROM nation)
            GROUP BY name
        """,
        "price_quantiles_parts": """
            WITH qd AS (
              SELECT quantile_disc(cents, [0.0, 0.25, 0.5, 0.75, 1.0]) AS vs
              FROM (SELECT round(p_retailprice * 100)::BIGINT AS cents FROM part)
            )
            SELECT unnest([0.0, 0.25, 0.5, 0.75, 1.0]) AS q,
                   unnest(vs) AS value
            FROM qd
        """,
        "word_jaccard_docs": """
            WITH w AS (
              SELECT doc_id,
                     list_distinct(regexp_extract_all(lower(text), '\\S+')) AS ws
              FROM documents
            ), q AS (SELECT ws FROM w WHERE doc_id = 0)
            SELECT a.doc_id,
                   (floor((len(list_intersect(a.ws, q.ws))::DOUBLE /
                           (len(a.ws) + len(q.ws) - len(list_intersect(a.ws, q.ws))))
                          * 1e6 + 0.5)::BIGINT / 1e6) AS jaccard
            FROM w a, q WHERE a.doc_id <> 0
        """,
        "jaccard_selfjoin_docs": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
              FROM documents
            ), d AS (SELECT DISTINCT doc_id, term FROM toks WHERE term <> ''),
            lens AS (SELECT doc_id, count(*)::BIGINT AS len FROM d GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::BIGINT AS i
              FROM d a JOIN d b ON a.term = b.term AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT doc_a, doc_b,
                   (i * 1000000) // (la.len + lb.len - i) AS jaccard_ppm
            FROM inter
            JOIN lens la ON la.doc_id = inter.doc_a
            JOIN lens lb ON lb.doc_id = inter.doc_b
            WHERE i * 1000000 >= 900000 * (la.len + lb.len - i)
        """,
        "cooccur_edges_lineitem": """
            SELECT a, b, count(*)::BIGINT AS n FROM (
              SELECT DISTINCT x.l_orderkey AS g,
                              x.l_partkey AS a, y.l_partkey AS b
              FROM lineitem x
              JOIN lineitem y ON x.l_orderkey = y.l_orderkey
                             AND x.l_partkey < y.l_partkey
            ) GROUP BY a, b
        """,
        "triangle_count_lineitem": """
            WITH e AS (
              SELECT DISTINCT x.l_partkey AS a, y.l_partkey AS b
              FROM lineitem x
              JOIN lineitem y ON x.l_orderkey = y.l_orderkey
                             AND x.l_partkey < y.l_partkey
            )
            SELECT count(*)::BIGINT AS triangles
            FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
        """,
        "weighted_sample_parts": """
            WITH s AS (
              SELECT p_partkey, p_retailprice,
                     pow((('0x' || substr(md5('42|' || p_partkey), 1, 16))::UBIGINT)::DOUBLE
                         / 18446744073709551616.0, 1.0 / p_retailprice) AS score
              FROM part WHERE p_retailprice > 0)
            SELECT p_partkey, p_retailprice
            FROM s ORDER BY score DESC, p_partkey LIMIT 20
        """,
        "interval_join_orders_lineitem": """
            SELECT o.o_orderkey, o.o_custkey, l.l_linenumber::BIGINT AS l_linenumber
            FROM orders o
            JOIN lineitem l
              ON l.l_orderkey = o.o_orderkey
             AND l.l_shipdate >= o.o_orderdate
             AND l.l_shipdate <= o.o_orderdate + INTERVAL 30 DAY
        """,
        "corr_matrix_lineitem": """
            WITH q AS (
              SELECT CAST(ROUND(l_quantity*100) AS HUGEINT) x0,
                     CAST(ROUND(l_extendedprice*100) AS HUGEINT) x1,
                     CAST(ROUND(l_discount*100) AS HUGEINT) x2,
                     CAST(ROUND(l_tax*100) AS HUGEINT) x3
              FROM lineitem),
            s AS (
              SELECT COUNT(*)::HUGEINT n,
                     SUM(x0) s0, SUM(x1) s1, SUM(x2) s2, SUM(x3) s3,
                     SUM(x0*x0) p00, SUM(x0*x1) p01, SUM(x0*x2) p02,
                     SUM(x0*x3) p03, SUM(x1*x1) p11, SUM(x1*x2) p12,
                     SUM(x1*x3) p13, SUM(x2*x2) p22, SUM(x2*x3) p23,
                     SUM(x3*x3) p33
              FROM q),
            pairs(col_a, col_b, i, j) AS (VALUES
              ('l_quantity','l_extendedprice',0,1),
              ('l_quantity','l_discount',0,2),
              ('l_quantity','l_tax',0,3),
              ('l_extendedprice','l_discount',1,2),
              ('l_extendedprice','l_tax',1,3),
              ('l_discount','l_tax',2,3)),
            m AS (
              SELECT col_a, col_b,
                CASE i WHEN 0 THEN s0 WHEN 1 THEN s1 WHEN 2 THEN s2 ELSE s3 END si,
                CASE j WHEN 0 THEN s0 WHEN 1 THEN s1 WHEN 2 THEN s2 ELSE s3 END sj,
                CASE i WHEN 0 THEN p00 WHEN 1 THEN p11 WHEN 2 THEN p22 ELSE p33 END pii,
                CASE j WHEN 0 THEN p00 WHEN 1 THEN p11 WHEN 2 THEN p22 ELSE p33 END pjj,
                CASE i*10+j WHEN 1 THEN p01 WHEN 2 THEN p02 WHEN 3 THEN p03
                            WHEN 12 THEN p12 WHEN 13 THEN p13 ELSE p23 END pij,
                n
              FROM pairs, s)
            SELECT col_a, col_b,
              CASE WHEN (n*pii - si*si) > 0 AND (n*pjj - sj*sj) > 0
                THEN ((n*pij - si*sj)::DOUBLE)
                     / (sqrt((n*pii - si*si)::DOUBLE)
                        * sqrt((n*pjj - sj*sj)::DOUBLE))
                ELSE NULL END AS corr
            FROM m
        """,
        "mean_vector_by_label": """
            SELECT label, dim,
                   (round((avg(v)) * 1e6)::BIGINT / 1e6) AS mean_val
            FROM (SELECT label,
                         generate_subscripts(embedding, 1) - 1 AS dim,
                         unnest(embedding::DOUBLE[]) AS v
                  FROM embeddings)
            GROUP BY label, dim
        """,
        "lag_gap_events": """
            SELECT event_id, user_id, value,
                   COALESCE(LAG(value) OVER w, -1.0) AS prev_value,
                   COALESCE(epoch_us(ts) - LAG(epoch_us(ts)) OVER w, -1)::BIGINT AS gap_us
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "cumsum_orders": """
            SELECT o_orderkey, o_custkey,
                   (SUM(round(o_totalprice * 100)::BIGINT) OVER (
                        PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                        ROWS UNBOUNDED PRECEDING))::BIGINT AS running_cents
            FROM orders
        """,
        "moving_avg_orders": """
            WITH c AS (
              SELECT o_orderkey, o_custkey, o_orderdate,
                     round(o_totalprice * 100)::BIGINT AS cents
              FROM orders)
            SELECT o_orderkey, o_custkey,
                   (SUM(cents) OVER w)::BIGINT AS win_cents,
                   (SUM(cents) OVER w)::BIGINT / (100.0 * (COUNT(*) OVER w)) AS avg3_price
            FROM c
            WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        "left_join_customer_orders": """
            SELECT c.c_custkey, c.c_name,
                   COALESCE(o.n_orders, 0)::BIGINT AS n_orders,
                   COALESCE(o.total_cents, 0)::BIGINT AS total_cents
            FROM customer c LEFT JOIN (
              SELECT o_custkey, count(*) AS n_orders,
                     SUM(round(o_totalprice * 100)::BIGINT)::BIGINT AS total_cents
              FROM orders GROUP BY o_custkey) o
            ON c.c_custkey = o.o_custkey
        """,
        "rollup_orders": """
            SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
                   COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
                   SUM(round(o_totalprice * 100)::BIGINT)::BIGINT AS total_cents,
                   count(*) AS n
            FROM orders GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
        """,
        "pivot_events_by_type": """
            SELECT user_id,
                   SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT AS n_click,
                   SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::BIGINT AS n_error,
                   SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT AS n_purchase,
                   SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)::BIGINT AS n_signup,
                   SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT AS n_view,
                   count(*) AS n_events
            FROM events GROUP BY user_id
        """,
        "row_number_orders": """
            SELECT o_orderkey, o_custkey,
                   ROW_NUMBER() OVER (PARTITION BY o_custkey
                                      ORDER BY o_orderdate, o_orderkey) AS rn
            FROM orders
        """,
        "dense_rank_orders": """
            SELECT o_orderkey, o_orderpriority,
                   DENSE_RANK() OVER (PARTITION BY o_orderpriority
                                      ORDER BY round(o_totalprice * 100)::BIGINT DESC) AS rnk
            FROM orders
        """,
        "ntile_orders": """
            SELECT o_orderkey, o_orderpriority,
                   NTILE(4) OVER (PARTITION BY o_orderpriority
                                  ORDER BY round(o_totalprice * 100)::BIGINT,
                                           o_orderkey) AS tile
            FROM orders
        """,
        "json_extract_events": """
            SELECT event_type, COUNT(*)::BIGINT AS n,
                   SUM(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS sum_k,
                   MIN(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS min_k,
                   MAX(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS max_k
            FROM events GROUP BY event_type
        """,
        "top_bigrams_per_lang": """
            WITH w AS (
              SELECT lang, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
              FROM documents
            ), b AS (
              SELECT lang,
                     unnest(list_transform(generate_series(1, len(ws) - 1),
                                           i -> ws[i] || ' ' || ws[i + 1])) AS bigram
              FROM w
            ), c AS (
              SELECT lang, bigram, count(*) AS n FROM b GROUP BY lang, bigram
            ), r AS (
              SELECT lang, bigram, n,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY n DESC, bigram) AS rk
              FROM c)
            SELECT lang, bigram, n FROM r WHERE rk <= 5
        """,
        "editdist_join_customers": """
            SELECT a.c_custkey AS a, b.c_custkey AS b,
                   levenshtein(a.c_name, b.c_name)::BIGINT AS dist
            FROM customer a JOIN customer b
              ON a.c_custkey < b.c_custkey
            WHERE levenshtein(a.c_name, b.c_name) <= 1
        """,
        "dup_gram_docs": """
            WITH s AS (
              SELECT doc_id, text,
                     unnest(generate_series(1, len(text) - 49)) AS i
              FROM documents WHERE len(text) >= 50
            ), g AS (
              SELECT doc_id, substr(text, i, 50) AS gram FROM s
            )
            SELECT a.doc_id, count(*)::BIGINT AS n_dup_grams FROM g a
            WHERE EXISTS (SELECT 1 FROM g b
                          WHERE b.gram = a.gram AND b.doc_id <> a.doc_id)
            GROUP BY a.doc_id
        """,
        "source_cap_docs": """
            SELECT doc_id, source FROM (
              SELECT doc_id, source,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY doc_id) AS rk
              FROM documents) WHERE rk <= 5
        """,
        "distinct_users_per_type_events": """
            SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
            FROM events GROUP BY event_type
        """,
        "zscore_outliers_events": """
            WITH v AS (
              SELECT event_id, event_type,
                     CAST(round(value * 100) AS BIGINT) AS q
              FROM events
            ), m AS (
              SELECT event_type, sum(q)::BIGINT AS s1,
                     sum(q * q)::BIGINT AS s2, count(*)::BIGINT AS n
              FROM v GROUP BY event_type HAVING count(*) > 1
            )
            SELECT event_id, event_type, z_micro FROM (
              SELECT event_id, v.event_type,
                     CAST(floor(((q::DOUBLE - s1::DOUBLE / n)
                                 / sqrt((s2::DOUBLE - s1::DOUBLE * s1::DOUBLE / n)
                                        / (n - 1.0))) * 1e6 + 0.5) AS BIGINT)
                         AS z_micro
              FROM v JOIN m USING (event_type))
            WHERE abs(z_micro) >= 2000000
        """,
        "winsorize_parts": """
            WITH cents AS (
              SELECT p_partkey, p_brand,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS c
              FROM part
            ), q AS (
              SELECT p_brand, quantile_disc(c, 0.05)::BIGINT AS lo,
                     quantile_disc(c, 0.95)::BIGINT AS hi
              FROM cents GROUP BY p_brand
            )
            SELECT p_partkey, cents.p_brand,
                   least(greatest(c, lo), hi)::BIGINT AS clipped
            FROM cents JOIN q USING (p_brand)
        """,
        "unpivot_lineitem": """
            UNPIVOT (SELECT l_orderkey, l_linenumber,
                            l_quantity::DOUBLE AS l_quantity,
                            l_extendedprice::DOUBLE AS l_extendedprice,
                            l_discount::DOUBLE AS l_discount
                     FROM lineitem)
            ON l_quantity, l_extendedprice, l_discount
            INTO NAME name VALUE value
        """,
        "rank_stats_orders": """
            SELECT o_orderkey, o_orderpriority,
                   rank() OVER w AS rnk,
                   percent_rank() OVER w AS pct_rank,
                   cume_dist() OVER w AS cume
            FROM orders
            WINDOW w AS (PARTITION BY o_orderpriority ORDER BY o_totalprice)
        """,
        "cube_orders": """
            SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
                   COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
                   SUM(round(o_totalprice * 100)::BIGINT)::BIGINT AS total_cents,
                   count(*) AS n
            FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)
        """,
        "quantiles_by_brand_parts": """
            WITH cents AS (
              SELECT p_brand,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS c
              FROM part)
            SELECT p_brand, 0.25 AS q, quantile_disc(c, 0.25)::BIGINT AS value
            FROM cents GROUP BY p_brand
            UNION ALL
            SELECT p_brand, 0.5 AS q, quantile_disc(c, 0.5)::BIGINT AS value
            FROM cents GROUP BY p_brand
            UNION ALL
            SELECT p_brand, 0.75 AS q, quantile_disc(c, 0.75)::BIGINT AS value
            FROM cents GROUP BY p_brand
        """,
        "entropy_docs": """
            WITH w AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
              FROM documents
            ), c AS (
              SELECT doc_id, tok, count(*)::BIGINT AS c FROM w GROUP BY doc_id, tok
            ), n AS (
              SELECT doc_id, sum(c)::BIGINT AS n FROM c GROUP BY doc_id
            )
            SELECT c.doc_id,
                   max(n.n)::BIGINT AS n_tokens,
                   count(*)::BIGINT AS n_distinct,
                   sum(CAST(floor(-(c.c::DOUBLE / n.n) * log2(c.c::DOUBLE / n.n)
                                  * 1000.0 + 0.5) AS BIGINT))::BIGINT AS entropy_mb
            FROM c JOIN n USING (doc_id) GROUP BY c.doc_id
        """,
        "repetition_docs": """
            WITH l AS (
              SELECT doc_id,
                     len(string_split(text, chr(10))) AS n_lines,
                     len(list_distinct(string_split(text, chr(10)))) AS n_distinct_lines
              FROM documents)
            SELECT doc_id, n_lines, n_distinct_lines,
                   1.0 - (n_distinct_lines::DOUBLE / n_lines) AS rep_ratio
            FROM l
        """,
        "inverted_index_docs": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
              FROM documents
            ), d AS (SELECT DISTINCT doc_id, term FROM toks WHERE term <> '')
            SELECT term, COUNT(*)::BIGINT AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
            FROM d GROUP BY term HAVING COUNT(*) >= 5
        """,
        "bm25_topk_docs": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents
            ), stat AS (
              SELECT COUNT(*)::DOUBLE AS n,
                     (SUM(len(ts))::DOUBLE / COUNT(*)::DOUBLE) AS avgdl,
                     SUM(CASE WHEN list_contains(ts, 'merge') THEN 1 ELSE 0 END)::DOUBLE AS df0,
                     SUM(CASE WHEN list_contains(ts, 'hash') THEN 1 ELSE 0 END)::DOUBLE AS df1,
                     SUM(CASE WHEN list_contains(ts, 'scan') THEN 1 ELSE 0 END)::DOUBLE AS df2
              FROM tok
            ), f AS (
              SELECT doc_id, len(ts)::DOUBLE AS dl,
                     len(list_filter(ts, x -> x = 'merge'))::DOUBLE AS tf0,
                     len(list_filter(ts, x -> x = 'hash'))::DOUBLE AS tf1,
                     len(list_filter(ts, x -> x = 'scan'))::DOUBLE AS tf2
              FROM tok
            )
            SELECT f.doc_id,
                   round((
                     ((s.n - s.df0 + 0.5) / (s.df0 + 0.5)) * (f.tf0 * (1.2 + 1.0))
                       / (f.tf0 + 1.2 * ((1.0 - 0.75) + (0.75 * f.dl / s.avgdl)))
                   + ((s.n - s.df1 + 0.5) / (s.df1 + 0.5)) * (f.tf1 * (1.2 + 1.0))
                       / (f.tf1 + 1.2 * ((1.0 - 0.75) + (0.75 * f.dl / s.avgdl)))
                   + ((s.n - s.df2 + 0.5) / (s.df2 + 0.5)) * (f.tf2 * (1.2 + 1.0))
                       / (f.tf2 + 1.2 * ((1.0 - 0.75) + (0.75 * f.dl / s.avgdl)))
                   ) * 1e6)::BIGINT / 1e6 AS score
            FROM f, stat s
            ORDER BY score DESC, f.doc_id
            LIMIT 20
        """,
        "skew_join_events": """
            WITH e AS (
              SELECT user_id, event_type, floor(epoch(ts))::BIGINT AS secs
              FROM events
            ), f AS (
              SELECT user_id, MIN(secs) AS first_secs FROM e GROUP BY user_id
            )
            SELECT e.event_type,
                   SUM(e.secs - f.first_secs)::BIGINT AS total_since,
                   COUNT(*)::BIGINT AS n
            FROM e JOIN f USING (user_id)
            GROUP BY e.event_type
        """,
        "resample_ffill_events": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts)::BIGINT AS us,
                     (epoch_us(ts)::BIGINT // 3600000000) AS g, value
              FROM events
            ), lastv AS (
              SELECT user_id, g, value FROM (
                SELECT user_id, g, value,
                       row_number() OVER (PARTITION BY user_id, g
                                          ORDER BY us DESC, event_id DESC) AS rn
                FROM e) WHERE rn = 1
            ), r AS (
              SELECT user_id, min(g) AS gmin, max(g) AS gmax
              FROM e GROUP BY user_id
            ), grid AS (
              SELECT user_id, UNNEST(generate_series(gmin, gmax)) AS g FROM r
            )
            SELECT grid.user_id, grid.g::BIGINT AS bucket,
                   (last_value(lastv.value IGNORE NULLS)
                    OVER (PARTITION BY grid.user_id
                          ORDER BY grid.g))::DOUBLE AS value_f
            FROM grid LEFT JOIN lastv USING (user_id, g)
        """,
        "curation_pipeline_docs": """
            WITH kept AS (
              SELECT doc_id, lang, text FROM documents
              WHERE doc_id IN (
                SELECT min(doc_id) FROM documents GROUP BY md5(text))
            ), tok AS (
              SELECT doc_id, lang,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\\s+'))
                     END AS n_words,
                     CASE WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'cc'
                          THEN 'train'
                          WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'e6'
                          THEN 'val' ELSE 'test' END AS split
              FROM kept)
            SELECT lang, split, sum(n_words)::BIGINT AS sum_tokens,
                   count(*) AS n_docs
            FROM tok GROUP BY lang, split
        """,
        "chunk_dedup_docs": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents
            ), ch AS (
              SELECT doc_id, ((i - 1) // 3)::BIGINT AS chunk_idx,
                     array_to_string(ts[i:i+2], ' ') AS chunk
              FROM tok, UNNEST(generate_series(1, len(ts), 3)) AS t(i)
            ), win AS (
              SELECT chunk,
                     min(doc_id * 1048576 + chunk_idx)::BIGINT AS ck
              FROM ch GROUP BY chunk
            ), keepers AS (
              SELECT (ck // 1048576)::BIGINT AS doc_id,
                     (ck % 1048576)::BIGINT AS chunk_idx, chunk
              FROM win
            )
            SELECT doc_id, count(*)::BIGINT AS n_kept,
                   string_agg(chunk, ' ' ORDER BY chunk_idx) AS text_dedup
            FROM keepers GROUP BY doc_id
        """,
        "fleiss_kappa_docs": """
            WITH f AS (
              SELECT (CASE WHEN lang = 'en' THEN 1 ELSE 0 END
                      + CASE WHEN n_chars >= 310 THEN 1 ELSE 0 END
                      + CASE WHEN len(regexp_extract_all(lower(text),
                                                         '[a-z0-9]+')) >= 56
                             THEN 1 ELSE 0 END)::BIGINT AS k
              FROM documents),
            t AS (SELECT count(*)::BIGINT AS n, sum(k)::BIGINT AS sk,
                         sum(k*k + (3-k)*(3-k))::BIGINT AS ss2
                  FROM f)
            SELECT n AS n_items, sk AS sum_pos, ss2 AS sum_sq,
                   -- pe = 1 (all raters unanimous on every item) is 0/0 in
                   -- the raw formula; the engine returns kappa = 1.0 there,
                   -- so the oracle mirrors the branch explicitly
                   CASE WHEN ((1 - sk / (3*n)) * (1 - sk / (3*n))
                              + (sk / (3*n)) * (sk / (3*n))) = 1
                        THEN 1.0
                        ELSE (((ss2 - 3*n) / (6*n))
                              - ((1 - sk / (3*n)) * (1 - sk / (3*n))
                                 + (sk / (3*n)) * (sk / (3*n))))
                             / (1 - ((1 - sk / (3*n)) * (1 - sk / (3*n))
                                     + (sk / (3*n)) * (sk / (3*n))))
                   END AS kappa
            FROM t
        """,
        "gap_cv_users": """
            WITH l AS (
              SELECT user_id,
                     (epoch_us(ts) - LAG(epoch_us(ts)) OVER
                        (PARTITION BY user_id ORDER BY ts, event_id))
                       AS gap_us
              FROM events),
            g AS (SELECT user_id, (gap_us // 1000000)::BIGINT AS g
                  FROM l WHERE gap_us IS NOT NULL),
            m AS (SELECT user_id, count(*) AS n, sum(g)::BIGINT AS s1,
                         sum(g*g)::BIGINT AS s2
                  FROM g GROUP BY user_id)
            SELECT user_id, n AS n_gaps, s1 AS sum_gap_s,
                   sqrt(CAST(n*s2 - s1*s1 AS DOUBLE)) / s1 AS cv
            FROM m WHERE n >= 2 AND s1 > 0
        """,
        "ndcg_docs": """
            WITH f AS (
              SELECT doc_id, n_chars,
                     (CASE WHEN lang = 'en' THEN 2 ELSE 0 END
                      + CASE WHEN len(regexp_extract_all(lower(text),
                                                         '[a-z0-9]+')) >= 56
                             THEN 1 ELSE 0 END)::BIGINT AS rel
              FROM documents),
            top AS (
              SELECT doc_id, rel,
                     row_number() OVER (ORDER BY n_chars DESC, doc_id)
                       AS rnk
              FROM f QUALIFY rnk <= 50),
            ideal AS (
              SELECT rel AS irel,
                     row_number() OVER (ORDER BY rel DESC) AS rnk
              FROM top)
            SELECT t.rnk, t.rel,
                   CAST(floor(t.rel::DOUBLE / log2(t.rnk + 1)
                              * 1000000.0 + 0.5) AS BIGINT) AS dcg_micro,
                   CAST(floor(i.irel::DOUBLE / log2(i.rnk + 1)
                              * 1000000.0 + 0.5) AS BIGINT) AS idcg_micro
            FROM top t JOIN ideal i USING (rnk)
        """,
        "psi_orders": """
            WITH refc AS (
              SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v
              FROM orders WHERE o_orderdate < TIMESTAMP '1998-01-01'),
            curc AS (
              SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v
              FROM orders WHERE o_orderdate >= TIMESTAMP '1998-01-01'),
            e AS (SELECT unnest(quantile_disc(v,
                    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
                    AS edge FROM refc),
            rv AS (SELECT v, count(*)::BIGINT AS cnt FROM refc GROUP BY v),
            cv AS (SELECT v, count(*)::BIGINT AS cnt FROM curc GROUP BY v),
            rb AS (SELECT (SELECT count(*) FROM e WHERE edge < rv.v)::BIGINT
                            AS bucket,
                          sum(cnt)::BIGINT AS ref_n
                   FROM rv GROUP BY bucket),
            cb AS (SELECT (SELECT count(*) FROM e WHERE edge < cv.v)::BIGINT
                            AS bucket,
                          sum(cnt)::BIGINT AS cur_n
                   FROM cv GROUP BY bucket),
            g AS (SELECT unnest(generate_series(0, 9)) AS bucket),
            j AS (SELECT g.bucket,
                         COALESCE(rb.ref_n, 0)::BIGINT AS ref_n,
                         COALESCE(cb.cur_n, 0)::BIGINT AS cur_n
                  FROM g LEFT JOIN rb USING (bucket)
                         LEFT JOIN cb USING (bucket)),
            t AS (SELECT (SELECT sum(ref_n) FROM j)::BIGINT AS rn,
                         (SELECT sum(cur_n) FROM j)::BIGINT AS cn)
            SELECT bucket, ref_n, cur_n,
                   CAST(floor(
                     (((ref_n + 1)::DOUBLE / (rn + 10))
                      - ((cur_n + 1)::DOUBLE / (cn + 10)))
                     * ln(((ref_n + 1)::DOUBLE / (rn + 10))
                          / ((cur_n + 1)::DOUBLE / (cn + 10)))
                     * 1000000.0 + 0.5) AS BIGINT) AS psi_micro
            FROM j, t
        """,
        "path_trigrams_events": """
            WITH s AS (
              SELECT user_id,
                     string_agg(CASE event_type
                                WHEN 'view' THEN 'v' WHEN 'click' THEN 'c'
                                WHEN 'purchase' THEN 'p'
                                WHEN 'signup' THEN 's'
                                WHEN 'error' THEN 'e' ELSE 'x' END,
                                '' ORDER BY ts, event_id) AS p
              FROM events GROUP BY user_id),
            t AS (
              SELECT DISTINCT user_id, substr(p, i, 3) AS gram
              FROM s, UNNEST(generate_series(1, len(p) - 2)) AS u(i)
              WHERE len(p) >= 3)
            SELECT gram, count(*)::BIGINT AS n_keys
            FROM t GROUP BY gram HAVING count(*) >= 5
        """,
        "autocorr_events": """
            WITH l AS (
              SELECT user_id,
                     CAST(round(value * 100) AS BIGINT) AS a,
                     LAG(CAST(round(value * 100) AS BIGINT))
                       OVER (PARTITION BY user_id ORDER BY ts, event_id)
                       AS b
              FROM events),
            q AS (SELECT user_id, a, b FROM l WHERE b IS NOT NULL),
            m AS (
              SELECT user_id, count(*) AS n, sum(a) AS sa, sum(b) AS sb,
                     sum(a*a) AS paa, sum(b*b) AS pbb, sum(a*b) AS pab
              FROM q GROUP BY user_id)
            SELECT user_id,
                   CAST(n*pab - sa*sb AS DOUBLE)
                     / (sqrt(CAST(n*paa - sa*sa AS DOUBLE))
                        * sqrt(CAST(n*pbb - sb*sb AS DOUBLE))) AS corr
            FROM m
        """,
        "chi2_parts": """
            WITH obs AS (
              SELECT p_brand, p_size, count(*)::BIGINT AS c
              FROM part GROUP BY p_brand, p_size),
            c AS (
              SELECT g.p_brand, g.p_size, COALESCE(obs.c, 0)::BIGINT AS c
              FROM (SELECT DISTINCT a.p_brand, b.p_size
                    FROM part a CROSS JOIN part b) g
              LEFT JOIN obs ON obs.p_brand = g.p_brand
                           AND obs.p_size = g.p_size),
            m AS (
              SELECT p_brand, p_size, c,
                     sum(c) OVER (PARTITION BY p_brand)::BIGINT AS cx,
                     sum(c) OVER (PARTITION BY p_size)::BIGINT AS cy,
                     sum(c) OVER ()::BIGINT AS n
              FROM c)
            SELECT p_brand, sum(c)::BIGINT AS n_x,
                   sum(CAST(floor(
                     (c::DOUBLE - cx::DOUBLE * cy / n)
                     * (c::DOUBLE - cx::DOUBLE * cy / n)
                     / (cx::DOUBLE * cy / n)
                     * 1000000.0 + 0.5) AS BIGINT))::BIGINT AS chi2_micro
            FROM m GROUP BY p_brand
        """,
        "gini_customer_spend": """
            WITH t AS (
              SELECT o_custkey,
                     SUM(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT
                       AS v
              FROM orders GROUP BY o_custkey),
            r AS (SELECT v,
                         row_number() OVER (ORDER BY v, o_custkey) AS rn
                  FROM t),
            s AS (SELECT count(*)::BIGINT AS n, sum(v)::BIGINT AS sv,
                         sum(rn * v)::BIGINT AS rv
                  FROM r)
            SELECT n AS n_keys, sv AS sum_v, rv AS weighted_rank_sum,
                   (2 * rv) / (n * sv) - (n + 1) / n AS gini
            FROM s
        """,
        "intersect_orders_pairs": """
            SELECT o_custkey, o_orderpriority FROM orders
            WHERE o_orderstatus = 'O'
            INTERSECT
            SELECT o_custkey, o_orderpriority FROM orders
            WHERE o_orderstatus = 'F'
        """,
        "asof_forward_events": """
            SELECT c.event_id, c.user_id,
                   floor(epoch(c.ts))::BIGINT AS secs,
                   COALESCE(floor(epoch(p.ts))::BIGINT, -1) AS next_secs
            FROM (SELECT * FROM events WHERE event_type = 'click') c
            ASOF LEFT JOIN (SELECT * FROM events
                            WHERE event_type = 'purchase') p
              ON c.user_id = p.user_id AND c.ts <= p.ts
        """,
        "bernoulli_sample_docs": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE ('0x' || substr(md5('42|' || doc_id::VARCHAR), 1, 8))
                    ::BIGINT * 1000000
                  < (CASE WHEN lang = 'en' THEN 800000 ELSE 350000 END)
                    * 4294967296
        """,
        "pareto_front_parts": """
            WITH c AS (
              SELECT p_partkey,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS cents,
                     p_size::BIGINT AS psize
              FROM part)
            SELECT p_partkey, cents, psize FROM c t
            WHERE NOT EXISTS (
              SELECT 1 FROM c d
              WHERE d.cents >= t.cents AND d.psize >= t.psize
                AND (d.cents > t.cents OR d.psize > t.psize))
        """,
        "fuzzy_decontam_docs": """
            WITH dt AS (
              SELECT DISTINCT doc_id, tok FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                         AS tok
                FROM documents)),
            sz AS (SELECT doc_id, count(*)::BIGINT AS c
                   FROM dt GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS train_id, b.doc_id AS bench_id,
                     count(*)::BIGINT AS inter
              FROM dt a JOIN dt b ON a.tok = b.tok
              WHERE a.doc_id % 13 <> 0 AND b.doc_id % 13 = 0
              GROUP BY train_id, bench_id)
            SELECT train_id, bench_id, inter,
                   (sa.c + sb.c - inter)::BIGINT AS uni
            FROM inter
            JOIN sz sa ON sa.doc_id = train_id
            JOIN sz sb ON sb.doc_id = bench_id
            WHERE 2 * inter >= sa.c + sb.c - inter
        """,
        "quantile_normalize_docs": """
            WITH r AS (
              SELECT doc_id, source, n_chars,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY n_chars, doc_id) AS rs,
                     count(*) OVER (PARTITION BY source) AS ns
              FROM documents),
            g AS (
              SELECT n_chars AS norm_chars,
                     row_number() OVER (ORDER BY n_chars, doc_id) AS rg
              FROM documents),
            t AS (SELECT count(*) AS n FROM documents),
            m AS (
              SELECT doc_id, source, n_chars,
                     CASE WHEN ns = 1 THEN 1
                          ELSE CAST(floor((rs - 1)::DOUBLE / (ns - 1)
                                          * ((SELECT n FROM t) - 1) + 0.5)
                               AS BIGINT) + 1
                     END AS gidx
              FROM r)
            SELECT m.doc_id, m.source, m.n_chars, g.norm_chars
            FROM m JOIN g ON g.rg = m.gidx
        """,
        "global_rank_orders": """
            SELECT o_orderkey,
                   CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                   row_number() OVER (
                     ORDER BY round(o_totalprice * 100) DESC, o_orderkey)
                     AS rn
            FROM orders
        """,
        "vocab_coverage_docs": """
            WITH w AS (
              SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                       AS tok
              FROM documents),
            tc AS (SELECT tok, count(*)::BIGINT AS c FROM w GROUP BY tok),
            r AS (SELECT c, row_number() OVER (ORDER BY c DESC, tok) AS rn
                  FROM tc),
            t AS (SELECT sum(c)::BIGINT AS total FROM tc)
            SELECT k,
                   sum(CASE WHEN rn <= k THEN c ELSE 0 END)::BIGINT
                     AS covered,
                   (SELECT total FROM t) AS total,
                   sum(CASE WHEN rn <= k THEN c ELSE 0 END)::BIGINT
                     / (SELECT total FROM t) AS share
            FROM r, UNNEST([5, 10, 20]) AS u(k)
            GROUP BY k
        """,
        "weighted_median_parts": """
            WITH t AS (
              SELECT p_brand,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS v,
                     p_size::BIGINT AS w
              FROM part),
            h AS (SELECT p_brand, v, sum(w)::BIGINT AS w
                  FROM t GROUP BY p_brand, v),
            c AS (SELECT p_brand, v,
                         sum(w) OVER (PARTITION BY p_brand ORDER BY v)
                           ::BIGINT AS cw,
                         sum(w) OVER (PARTITION BY p_brand)::BIGINT AS tw
                  FROM h)
            SELECT p_brand, min(v)::BIGINT AS wmedian
            FROM c WHERE 2 * cw >= tw GROUP BY p_brand
        """,
        "quota_topk_parts": """
            WITH c AS (
              SELECT p_brand, p_partkey,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS cents
              FROM part),
            r AS (
              SELECT p_brand, p_partkey, cents,
                     row_number() OVER (PARTITION BY p_brand
                                        ORDER BY cents DESC, p_partkey)
                       AS rn
              FROM c QUALIFY rn <= 4)
            SELECT p_brand, p_partkey, cents, rn
            FROM r ORDER BY cents DESC, p_partkey LIMIT 60
        """,
        "grouping_sets_orders": """
            SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
                   COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
                   SUM(round(o_totalprice * 100)::BIGINT)::BIGINT
                     AS total_cents,
                   count(*) AS n
            FROM orders
            GROUP BY GROUPING SETS ((o_orderstatus), (o_orderpriority), ())
        """,
        "js_divergence_sources": """
            WITH w AS (
              SELECT source,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                       AS tok
              FROM documents),
            tc AS (SELECT source, tok, count(*)::BIGINT AS c
                   FROM w GROUP BY source, tok),
            tot AS (SELECT source, sum(c)::BIGINT AS n
                    FROM tc GROUP BY source),
            pairterm AS (
              SELECT t1.source AS s1, t2.source AS s2,
                     CAST(floor((
                       0.5 * (t1.c::DOUBLE / n1.n)
                           * log2(2 * (t1.c::DOUBLE / n1.n)
                                  / ((t1.c::DOUBLE / n1.n)
                                     + (t2.c::DOUBLE / n2.n)))
                       + 0.5 * (t2.c::DOUBLE / n2.n)
                           * log2(2 * (t2.c::DOUBLE / n2.n)
                                  / ((t1.c::DOUBLE / n1.n)
                                     + (t2.c::DOUBLE / n2.n)))
                     ) * 1000000.0 + 0.5) AS BIGINT) AS ub,
                     t1.c AS c1, t2.c AS c2
              FROM tc t1
              JOIN tc t2 ON t1.tok = t2.tok AND t1.source < t2.source
              JOIN tot n1 ON n1.source = t1.source
              JOIN tot n2 ON n2.source = t2.source),
            agg AS (
              SELECT s1, s2, sum(ub)::BIGINT AS tub,
                     sum(c1)::BIGINT AS sc1, sum(c2)::BIGINT AS sc2
              FROM pairterm GROUP BY s1, s2)
            SELECT s1, s2, sc1, sc2,
                   (tub
                    + CAST(floor(0.5 * (1 - sc1::DOUBLE / n1.n)
                                 * 1000000.0 + 0.5) AS BIGINT)
                    + CAST(floor(0.5 * (1 - sc2::DOUBLE / n2.n)
                                 * 1000000.0 + 0.5) AS BIGINT))::BIGINT
                     AS js_ub
            FROM agg
            JOIN tot n1 ON n1.source = agg.s1
            JOIN tot n2 ON n2.source = agg.s2
        """,
        "medoid_embeddings": """
            WITH q AS (
              SELECT vec_id, label,
                     generate_subscripts(embedding, 1) - 1 AS dim,
                     round(unnest(embedding::DOUBLE[]) * 1e6)::BIGINT AS qv
              FROM embeddings),
            s AS (SELECT label, dim, sum(qv)::BIGINT AS sv
                  FROM q GROUP BY label, dim),
            d AS (SELECT q.vec_id, q.label,
                         sum(q.qv * s.sv)::BIGINT AS dot
                  FROM q JOIN s USING (label, dim)
                  GROUP BY q.vec_id, q.label)
            SELECT label, vec_id, dot FROM d
            QUALIFY row_number()
              OVER (PARTITION BY label ORDER BY dot DESC, vec_id) = 1
        """,
        "negative_sample_lineitem": """
            WITH pos AS (
              SELECT DISTINCT l_suppkey AS s, l_partkey AS p FROM lineitem),
            np AS (SELECT count(*)::BIGINT AS n FROM part),
            cand AS (
              SELECT s, p, t,
                     ('0x' || substr(md5(s::VARCHAR || '|' || p::VARCHAR
                                         || '|' || t::VARCHAR), 1, 12))
                       ::BIGINT % (SELECT n FROM np) AS c
              FROM pos, UNNEST([1, 2]) AS u(t))
            SELECT cand.s AS l_suppkey, cand.c AS neg_item,
                   count(*)::BIGINT AS n_draws
            FROM cand LEFT JOIN pos p2
              ON p2.s = cand.s AND p2.p = cand.c
            WHERE p2.s IS NULL
            GROUP BY cand.s, cand.c
        """,
        "cohens_kappa_docs": """
            WITH f AS (
              SELECT CASE WHEN n_chars >= 310 THEN 1 ELSE 0 END AS la,
                     CASE WHEN len(regexp_extract_all(lower(text),
                                                      '[a-z0-9]+')) >= 56
                          THEN 1 ELSE 0 END AS lb
              FROM documents),
            c AS (
              SELECT count(*)::BIGINT AS n,
                     sum(CASE WHEN la = 0 AND lb = 0 THEN 1 ELSE 0 END)
                       ::BIGINT AS n00,
                     sum(CASE WHEN la = 0 AND lb = 1 THEN 1 ELSE 0 END)
                       ::BIGINT AS n01,
                     sum(CASE WHEN la = 1 AND lb = 0 THEN 1 ELSE 0 END)
                       ::BIGINT AS n10,
                     sum(CASE WHEN la = 1 AND lb = 1 THEN 1 ELSE 0 END)
                       ::BIGINT AS n11
              FROM f)
            SELECT n, n00, n01, n10, n11,
                   -- pe = 1 (all labels identical) is 0/0 in the raw
                   -- formula; the engine returns kappa = 1.0 there, so the
                   -- oracle mirrors the branch explicitly
                   CASE WHEN (((n00 + n01) * (n00 + n10)
                              + (n10 + n11) * (n01 + n11)) / (n * n)) = 1
                        THEN 1.0
                        ELSE (((n00 + n11) / n)
                              - (((n00 + n01) * (n00 + n10)
                                  + (n10 + n11) * (n01 + n11)) / (n * n)))
                             / (1 - (((n00 + n01) * (n00 + n10)
                                      + (n10 + n11) * (n01 + n11)) / (n * n)))
                   END AS kappa
            FROM c
        """,
        "twohop_parts": """
            WITH e AS (
              SELECT a, b FROM (
                SELECT x.l_partkey AS a, y.l_partkey AS b, count(*) AS n
                FROM (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem) x
                JOIN (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem) y
                  ON x.l_orderkey = y.l_orderkey
                 AND x.l_partkey < y.l_partkey
                GROUP BY a, b)
              WHERE n >= 2),
            u AS (SELECT a AS s, b AS d FROM e
                  UNION ALL SELECT b AS s, a AS d FROM e),
            h AS (SELECT DISTINCT u1.s AS node, u2.d AS w
                  FROM u u1 JOIN u u2 ON u1.d = u2.s
                  WHERE u1.s <> u2.d),
            strict AS (
              SELECT h.node, h.w FROM h
              LEFT JOIN u ON u.s = h.node AND u.d = h.w
              WHERE u.s IS NULL)
            SELECT node, count(*)::BIGINT AS n_twohop
            FROM strict GROUP BY node
        """,
        "split_leakage_docs": """
            WITH corpus AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + (SELECT max(doc_id) + 1 FROM documents)
                       AS doc_id, text
              FROM documents WHERE doc_id % 7 = 0),
            s AS (
              SELECT md5(text) AS content_hash,
                     CASE WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'cc'
                            THEN 'train'
                          WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'e6'
                            THEN 'val'
                          ELSE 'test' END AS split
              FROM corpus)
            SELECT content_hash,
                   sum(CASE WHEN split = 'train' THEN 1 ELSE 0 END)::BIGINT
                     AS n_train,
                   sum(CASE WHEN split = 'val' THEN 1 ELSE 0 END)::BIGINT
                     AS n_val,
                   sum(CASE WHEN split = 'test' THEN 1 ELSE 0 END)::BIGINT
                     AS n_test
            FROM s GROUP BY content_hash
            HAVING count(DISTINCT split) >= 2
        """,
        "dup_rate_by_source_docs": """
            WITH d AS (
              SELECT source, md5(text) AS h, count(*)::BIGINT AS c
              FROM documents GROUP BY source, h)
            SELECT source, sum(c)::BIGINT AS n_docs,
                   count(*)::BIGINT AS n_distinct,
                   ((sum(c)::BIGINT - count(*)::BIGINT) * 1000000)
                     // sum(c)::BIGINT AS dup_ppm
            FROM d GROUP BY source
        """,
        "mutual_info_parts": """
            WITH c AS (
              SELECT p_brand, p_size, count(*)::BIGINT AS c
              FROM part GROUP BY p_brand, p_size),
            m AS (
              SELECT p_brand, p_size, c,
                     sum(c) OVER (PARTITION BY p_brand)::BIGINT AS cx,
                     sum(c) OVER (PARTITION BY p_size)::BIGINT AS cy,
                     sum(c) OVER ()::BIGINT AS n
              FROM c)
            SELECT p_brand, sum(c)::BIGINT AS n_x,
                   sum(CAST(floor(
                     (c::DOUBLE / n) * log2((c::DOUBLE * n) / (cx::DOUBLE * cy))
                     * 1000000.0 + 0.5) AS BIGINT))::BIGINT AS mi_ub
            FROM m GROUP BY p_brand
        """,
        "ks_drift_orders": """
            WITH c AS (
              SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v,
                     CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END
                       AS g1,
                     CASE WHEN o_orderpriority = '5-LOW' THEN 1 ELSE 0 END
                       AS g2
              FROM orders
              WHERE o_orderpriority IN ('1-URGENT', '5-LOW')),
            h AS (SELECT v, sum(g1)::BIGINT AS c1, sum(g2)::BIGINT AS c2
                  FROM c GROUP BY v),
            w AS (SELECT v, sum(c1) OVER (ORDER BY v)::BIGINT AS f1,
                         sum(c2) OVER (ORDER BY v)::BIGINT AS f2
                  FROM h),
            t AS (SELECT (SELECT sum(c1)::BIGINT FROM h) AS n1,
                         (SELECT sum(c2)::BIGINT FROM h) AS n2)
            SELECT n1, n2, max(abs(f1 * n2 - f2 * n1))::BIGINT AS d_num,
                   max(abs(f1 * n2 - f2 * n1))::BIGINT
                     / (n1 * n2) AS ks
            FROM w, t GROUP BY n1, n2
        """,
        "seqmatch_events": """
            WITH s AS (
              SELECT user_id,
                     string_agg(CASE event_type
                                WHEN 'view' THEN 'v' WHEN 'click' THEN 'c'
                                WHEN 'purchase' THEN 'p' WHEN 'signup' THEN 's'
                                WHEN 'error' THEN 'e' ELSE 'x' END,
                                '' ORDER BY ts, event_id) AS seq
              FROM events GROUP BY user_id)
            SELECT user_id, CAST(len(seq) AS BIGINT) AS seq_len,
                   CAST(len(regexp_extract_all(seq, 'v+c+p')) AS BIGINT)
                     AS n_matches
            FROM s
        """,
        "feature_hash_docs": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                       AS tok
              FROM documents)
            SELECT doc_id,
                   ('0x' || substr(md5(tok), 1, 12))::BIGINT % 64 AS bucket,
                   count(*) AS tf
            FROM toks GROUP BY doc_id, bucket
        """,
        "target_encode_orders": """
            WITH t AS (
              SELECT o_orderpriority,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders),
            g AS (SELECT sum(cents)::BIGINT AS gs, count(*) AS gn FROM t)
            SELECT o_orderpriority, count(*) AS n,
                   sum(cents)::BIGINT AS sum_v,
                   (sum(cents)::BIGINT
                    + 50.0 * ((SELECT gs FROM g) / (SELECT gn FROM g)))
                     / (count(*) + 50.0) AS enc
            FROM t GROUP BY o_orderpriority
        """,
        "ordinal_encode_parts": """
            SELECT p_partkey, p_brand, p_type,
                   DENSE_RANK() OVER (ORDER BY p_brand) - 1 AS p_brand_idx,
                   DENSE_RANK() OVER (ORDER BY p_type) - 1 AS p_type_idx
            FROM part
        """,
        "kfold_split_docs": """
            SELECT ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT
                     % 5 AS fold,
                   lang, count(*) AS n_docs, sum(n_chars)::BIGINT AS sum_chars
            FROM documents GROUP BY fold, lang
        """,
        "rrf_fusion_docs": """
            WITH a AS (
              SELECT doc_id,
                     row_number() OVER (ORDER BY n_chars DESC, doc_id) AS r
              FROM documents QUALIFY r <= 200),
            tok AS (
              SELECT doc_id,
                     len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS nt
              FROM documents),
            b AS (
              SELECT doc_id,
                     row_number() OVER (ORDER BY nt DESC, doc_id) AS r
              FROM tok QUALIFY r <= 200),
            u AS (
              SELECT doc_id, 1000000 // (60 + r) AS s FROM a
              UNION ALL
              SELECT doc_id, 1000000 // (60 + r) AS s FROM b)
            SELECT doc_id, sum(s)::BIGINT AS rrf_ppm, count(*) AS n_lists
            FROM u GROUP BY doc_id
        """,
        "trimmed_mean_parts": """
            WITH cents AS (
              SELECT p_brand,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS c
              FROM part),
            b AS (
              SELECT p_brand, quantile_disc(c, 0.1) AS lo,
                     quantile_disc(c, 0.9) AS hi
              FROM cents GROUP BY p_brand)
            SELECT p_brand, count(*) AS n_kept, sum(c)::BIGINT AS sum_v,
                   sum(c)::BIGINT / count(*) AS tmean
            FROM cents JOIN b USING (p_brand)
            WHERE c BETWEEN lo AND hi
            GROUP BY p_brand
        """,
        "chunk_overlap_docs": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents
            )
            SELECT doc_id, ((i-1) / 12)::BIGINT AS chunk_idx,
                   (LEAST(i+15, len(ts)) - i + 1)::BIGINT AS n_tokens,
                   array_to_string(ts[i:i+15], ' ') AS chunk
            FROM tok, UNNEST(generate_series(1, len(ts), 12)) AS t(i)
            WHERE len(ts) > 0
        """,
        "incremental_agg_orders": """
            SELECT o_custkey,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))::BIGINT
                     AS sum_cents,
                   COUNT(*)::BIGINT AS n
            FROM orders GROUP BY o_custkey
        """,
        "pushdown_filter_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            WHERE o_totalprice > 400000.0
        """,
        "explode_tokens_docs": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents
            )
            SELECT doc_id, ts[i] AS token, i::BIGINT AS pos
            FROM tok, UNNEST(generate_series(1, len(ts))) AS t(i)
        """,
        "trailing_range_sum_orders": """
            SELECT o_orderkey, o_custkey,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) OVER w
                     ::BIGINT AS win_sum,
                   COUNT(*) OVER w::BIGINT AS win_n
            FROM orders
            WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate
                         RANGE BETWEEN INTERVAL 7 DAYS PRECEDING
                         AND CURRENT ROW)
        """,
        "topk_ties_parts": """
            SELECT p_partkey, p_brand, p_size,
                   RANK() OVER (PARTITION BY p_brand ORDER BY p_size DESC)
                     ::BIGINT AS rnk
            FROM part
            QUALIFY rnk <= 3
        """,
        "minmax_normalize_parts": """
            SELECT p_partkey, p_brand,
                   (p_retailprice - MIN(p_retailprice) OVER w)
                   / NULLIF(MAX(p_retailprice) OVER w
                            - MIN(p_retailprice) OVER w, 0) AS price_norm
            FROM part WINDOW w AS (PARTITION BY p_brand)
        """,
        "regr_slope_brand_parts": """
            WITH q AS (
              SELECT p_brand, CAST(p_size AS BIGINT) AS qx,
                     CAST(ROUND(p_retailprice * 100) AS BIGINT) AS qy
              FROM part
            ), m AS (
              SELECT p_brand, COUNT(*) AS n, SUM(qx) AS sx, SUM(qy) AS sy,
                     SUM(qx * qx) AS pxx, SUM(qx * qy) AS pxy
              FROM q GROUP BY p_brand
            ), s AS (
              SELECT p_brand, n, sx, sy,
                     CASE WHEN n * pxx - sx * sx > 0 THEN
                       (CAST(n * pxy - sx * sy AS DOUBLE)
                        / CAST(n * pxx - sx * sx AS DOUBLE))
                       * (CAST(1 AS DOUBLE) / CAST(100 AS DOUBLE))
                     END AS slope
              FROM m
            )
            SELECT p_brand, slope,
                   CASE WHEN slope IS NOT NULL THEN
                     CAST(sy AS DOUBLE) / CAST(n * 100 AS DOUBLE)
                     - slope * (CAST(sx AS DOUBLE) / CAST(n * 1 AS DOUBLE))
                   END AS icept
            FROM s
        """,
        "fk_violations_audit": """
            WITH po AS (SELECT o_orderkey FROM orders WHERE o_orderkey % 11 <> 0),
                 pc AS (SELECT c_custkey FROM customer WHERE c_custkey % 5 <> 0)
            SELECT 'lineitem->orders' AS relation,
                   COUNT(*) FILTER (po.o_orderkey IS NULL)::BIGINT AS n_orphan_rows,
                   COUNT(DISTINCT l_orderkey) FILTER (po.o_orderkey IS NULL)::BIGINT AS n_orphan_keys
            FROM lineitem l LEFT JOIN po ON l.l_orderkey = po.o_orderkey
            UNION ALL
            SELECT 'orders->customer',
                   COUNT(*) FILTER (pc.c_custkey IS NULL)::BIGINT,
                   COUNT(DISTINCT o_custkey) FILTER (pc.c_custkey IS NULL)::BIGINT
            FROM orders o LEFT JOIN pc ON o.o_custkey = pc.c_custkey
            UNION ALL
            SELECT 'supplier->nation',
                   COUNT(*) FILTER (n.n_nationkey IS NULL)::BIGINT,
                   COUNT(DISTINCT s_nationkey) FILTER (n.n_nationkey IS NULL)::BIGINT
            FROM supplier s LEFT JOIN nation n ON s.s_nationkey = n.n_nationkey
        """,
        "collect_ordered_events": """
            SELECT user_id,
                   string_agg(event_type, ',' ORDER BY ts, event_id) AS path,
                   COUNT(*)::BIGINT AS n
            FROM events GROUP BY user_id
        """,
        "windowed_distinct_events": """
            SELECT CAST(FLOOR(epoch(ts::TIMESTAMP) / 3600) AS BIGINT) * 3600
                     AS window_start,
                   COUNT(DISTINCT user_id)::BIGINT AS n_distinct
            FROM events GROUP BY 1
        """,
        "union_by_name_orders": """
            SELECT o_orderkey, o_totalprice, 'none' AS o_orderpriority
            FROM orders WHERE o_orderkey % 2 = 0
            UNION ALL
            SELECT o_orderkey, -1.0 AS o_totalprice, o_orderpriority
            FROM orders WHERE o_orderkey % 2 = 1
        """,
        "impute_group_mean_orders": """
            WITH base AS (
              SELECT o_orderkey, o_orderpriority,
                     CASE WHEN o_orderkey % 7 = 0 THEN NULL
                          ELSE o_totalprice END AS price
              FROM orders
            ), m AS (
              SELECT o_orderpriority,
                     SUM(CAST(ROUND(price * 100) AS BIGINT)) AS s,
                     COUNT(price) AS c
              FROM base GROUP BY o_orderpriority
            )
            SELECT b.o_orderkey, b.o_orderpriority,
                   COALESCE(b.price,
                            CAST(m.s AS DOUBLE) / CAST(m.c * 100 AS DOUBLE))
                     AS price_filled
            FROM base b JOIN m USING (o_orderpriority)
        """,
        "pii_scrub_docs": """
            WITH aug AS (
              SELECT doc_id,
                     text || ' contact user' || doc_id::VARCHAR
                          || '@example.com from 10.0.'
                          || ((doc_id // 256) % 256)::VARCHAR || '.'
                          || (doc_id % 256)::VARCHAR
                          || ' tel 555-' || lpad((doc_id % 1000)::VARCHAR, 3, '0')
                          || '-' || lpad((doc_id % 10000)::VARCHAR, 4, '0') AS t
              FROM documents
            ), s1 AS (
              SELECT doc_id, t,
                     len(regexp_extract_all(t,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))::BIGINT AS n_email,
                     regexp_replace(t,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                         '<EMAIL>', 'g') AS t1
              FROM aug
            ), s2 AS (
              SELECT doc_id, n_email,
                     len(regexp_extract_all(t1,
                         '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))::BIGINT AS n_ipv4,
                     regexp_replace(t1,
                         '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                         '<IP>', 'g') AS t2
              FROM s1
            )
            SELECT doc_id, n_email, n_ipv4,
                   len(regexp_extract_all(t2,
                       '\\b\\d{3}[-.]\\d{3}[-.]\\d{4}\\b'))::BIGINT AS n_phone,
                   (n_email + n_ipv4
                    + len(regexp_extract_all(t2,
                          '\\b\\d{3}[-.]\\d{3}[-.]\\d{4}\\b')))::BIGINT AS n_pii,
                   regexp_replace(t2, '\\b\\d{3}[-.]\\d{3}[-.]\\d{4}\\b',
                                  '<PHONE>', 'g') AS redacted
            FROM s2
        """,
        "decontam_docs": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents
            ), ng AS (
              SELECT doc_id, array_to_string(ts[i:i+7], ' ') AS ng
              FROM tok, UNNEST(generate_series(1, len(ts) - 7)) AS t(i)
              WHERE len(ts) >= 8
            ), bset AS (
              SELECT DISTINCT ng FROM ng WHERE doc_id % 50 = 0
            ), scored AS (
              SELECT n.doc_id, COUNT(*)::BIGINT AS n_ngrams,
                     SUM(CASE WHEN b.ng IS NOT NULL THEN 1 ELSE 0 END)::BIGINT AS n_hits
              FROM ng n LEFT JOIN bset b USING (ng)
              GROUP BY n.doc_id
            )
            SELECT d.doc_id,
                   COALESCE(s.n_ngrams, 0)::BIGINT AS n_ngrams,
                   COALESCE(s.n_hits, 0)::BIGINT AS n_hits,
                   CASE WHEN s.n_ngrams > 0
                        THEN s.n_hits::DOUBLE / s.n_ngrams ELSE 0.0
                   END AS contamination,
                   CASE WHEN s.n_ngrams > 0
                        AND s.n_hits::DOUBLE / s.n_ngrams >= 0.5
                        THEN TRUE ELSE FALSE
                   END AS contaminated
            FROM documents d LEFT JOIN scored s USING (doc_id)
        """,
        "bloom_semi_join_lineitem": """
            SELECT l_returnflag, count(*) AS n_items,
                   SUM(round(l_extendedprice * 100)::BIGINT)::BIGINT AS total_cents
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_totalprice > 449000.0)
            GROUP BY l_returnflag
        """,
        "heavy_hitter_users": """
            SELECT user_id, count(*) AS n FROM events
            GROUP BY user_id ORDER BY n DESC, user_id LIMIT 10
        """,
        "tfidf_top_terms": """
            WITH w AS (
              SELECT lang, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
              FROM documents
            ), occ0 AS (
              SELECT lang, unnest(ws) AS term FROM w
            ), occ AS (
              SELECT lang, term, count(*) AS n_occ FROM occ0
              GROUP BY lang, term
            ), df0 AS (
              SELECT lang, unnest(list_distinct(ws)) AS term FROM w
            ), df AS (
              SELECT lang, term, count(*) AS n_docs FROM df0
              GROUP BY lang, term
            ), nl AS (
              SELECT lang, count(*) AS n_lang FROM documents GROUP BY lang
            ), s AS (
              SELECT occ.lang, occ.term, occ.n_occ, df.n_docs,
                     occ.n_occ * (nl.n_lang::DOUBLE / df.n_docs) AS score
              FROM occ
              JOIN df ON occ.lang = df.lang AND occ.term = df.term
              JOIN nl ON occ.lang = nl.lang
            ), r AS (
              SELECT *, row_number() OVER (PARTITION BY lang
                                           ORDER BY score DESC, term) AS rk
              FROM s)
            SELECT lang, term, n_occ, n_docs, score FROM r WHERE rk <= 10
        """,
        "stratified_split_docs": """
            WITH s AS (
              SELECT lang, n_chars,
                     CASE WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'cc'
                          THEN 'train'
                          WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'e6'
                          THEN 'val' ELSE 'test' END AS split
              FROM documents)
            SELECT lang, split, sum(n_chars)::BIGINT AS sum_chars,
                   count(*) AS n_docs
            FROM s GROUP BY lang, split
        """,
        "quantile_band_docs": """
            WITH q AS (
              SELECT lang, quantile_disc(n_chars, 0.05) AS lo,
                     quantile_disc(n_chars, 0.95) AS hi
              FROM documents GROUP BY lang)
            SELECT d.lang, sum(d.n_chars)::BIGINT AS sum_chars,
                   count(*) AS n_docs
            FROM documents d JOIN q ON d.lang = q.lang
            WHERE d.n_chars BETWEEN q.lo AND q.hi
            GROUP BY d.lang
        """,
        "sample_per_lang_docs": """
            SELECT lang, doc_id, n_chars FROM (
              SELECT lang, doc_id, n_chars,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY md5(doc_id::VARCHAR), doc_id) AS rn
              FROM documents) WHERE rn <= 5
        """,
        "pack_sequences_docs": """
            WITH c AS (
              SELECT doc_id, n_chars,
                     COALESCE(SUM(n_chars) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS before
              FROM documents)
            SELECT (before // 2000)::BIGINT AS seq_id,
                   sum(n_chars)::BIGINT AS sum_chars, count(*) AS n_docs
            FROM c GROUP BY seq_id
        """,
        "kg_degree_dist": f"""
            SELECT out_deg, count(*) AS n_nodes FROM (
              SELECT subj, count(*) AS out_deg
              FROM read_parquet('{_FIXTURES}/kg_triples.parquet')
              GROUP BY subj)
            GROUP BY out_deg
        """,
        "full_outer_join_orders": """
            WITH l AS (
              SELECT o_orderkey, round(o_totalprice * 100)::BIGINT AS cents
              FROM orders WHERE o_totalprice > 300000.0
            ), r AS (
              SELECT l_orderkey AS o_orderkey, count(*) AS n_items
              FROM lineitem GROUP BY l_orderkey HAVING count(*) >= 6)
            SELECT COALESCE(l.o_orderkey, r.o_orderkey) AS o_orderkey,
                   COALESCE(l.cents, 0) AS cents,
                   COALESCE(r.n_items, 0) AS n_items
            FROM l FULL OUTER JOIN r ON l.o_orderkey = r.o_orderkey
        """,
        "stream_dedup_docs": """
            SELECT doc_id, md5(text) AS content_hash FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents
                             GROUP BY md5(text))
        """,
        # seeded shuffle: the order key is a pure function of (seed, id) —
        # md5 on both engines; the LIMIT selection is what the hash pins
        "deterministic_shuffle_docs": """
            SELECT doc_id, md5('42|' || CAST(doc_id AS VARCHAR)) AS shuf
            FROM documents ORDER BY shuf, doc_id LIMIT 100
        """,
        # sqrt mixing rule, all-integer: floor(sqrt()) == isqrt for
        # n < 2^52, ppm division is integer on both engines
        "mixing_weights_sources": """
            WITH t AS (
              SELECT source,
                     CAST(sum(len(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS BIGINT)
                       AS total_tokens
              FROM documents GROUP BY source
            ), s AS (
              SELECT source, total_tokens,
                     CAST(floor(sqrt(total_tokens)) AS BIGINT) AS r FROM t
            )
            SELECT source, total_tokens,
                   CAST((1000000 * r) // (SELECT CAST(sum(r) AS BIGINT) FROM s) AS BIGINT)
                     AS weight_ppm
            FROM s ORDER BY source
        """,
        "except_orders_pairs": """
            SELECT o_custkey, o_orderpriority FROM orders
            WHERE o_orderstatus = 'O'
            EXCEPT
            SELECT o_custkey, o_orderpriority FROM orders
            WHERE o_orderstatus = 'F'
        """,
        "churned_users_events": """
            WITH d AS (
              SELECT user_id,
                     max(date_diff('day', TIMESTAMP '1970-01-01',
                                   date_trunc('day', ts))::BIGINT)
                       AS last_day
              FROM events GROUP BY user_id)
            SELECT user_id, last_day,
                   ((SELECT max(last_day) FROM d) - last_day)::BIGINT
                     AS days_inactive
            FROM d
            WHERE (SELECT max(last_day) FROM d) - last_day > 0
        """,
        "pct_change_orders": """
            WITH c AS (
              SELECT o_custkey, o_orderkey, o_orderdate,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders)
            SELECT o_orderkey,
                   COALESCE(cents / lag(cents) OVER (
                     PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey), -1.0) AS ratio
            FROM c
        """,
        "checksum_orders": """
            SELECT count(*) AS n,
                   (sum(('0x' || substr(md5(
                        o_orderkey::VARCHAR || '|' || o_custkey::VARCHAR),
                        1, 14))::BIGINT)
                    % 2305843009213693951)::BIGINT AS checksum
            FROM orders
        """,
        "composite_join_lineitem": """
            WITH g AS (
              SELECT l_orderkey, l_returnflag, count(*) AS n
              FROM lineitem GROUP BY l_orderkey, l_returnflag)
            SELECT l.l_orderkey, l.l_linenumber, l.l_returnflag, g.n
            FROM lineitem l
            JOIN g ON l.l_orderkey = g.l_orderkey
                  AND l.l_returnflag = g.l_returnflag
        """,
        "profile_orders": """
            SELECT 'o_custkey' AS col, count(*) AS n,
                   sum(CASE WHEN o_custkey IS NULL THEN 1 ELSE 0 END)::BIGINT AS n_null,
                   count(DISTINCT o_custkey)::BIGINT AS n_distinct,
                   min(o_custkey)::DOUBLE AS min_v,
                   max(o_custkey)::DOUBLE AS max_v
            FROM orders
            UNION ALL
            SELECT 'o_orderkey', count(*),
                   sum(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END)::BIGINT,
                   count(DISTINCT o_orderkey)::BIGINT,
                   min(o_orderkey)::DOUBLE, max(o_orderkey)::DOUBLE
            FROM orders
            UNION ALL
            SELECT 'o_totalprice', count(*),
                   sum(CASE WHEN o_totalprice IS NULL THEN 1 ELSE 0 END)::BIGINT,
                   count(DISTINCT o_totalprice)::BIGINT,
                   min(o_totalprice)::DOUBLE, max(o_totalprice)::DOUBLE
            FROM orders
        """,
        "bounce_rate_users": """
            WITH t0 AS (
              SELECT user_id, event_id, floor(epoch(ts))::BIGINT AS secs, ts
              FROM events
            ), t AS (
              SELECT user_id, event_id, secs, ts,
                     CASE WHEN secs - lag(secs) OVER w > 1800
                          OR lag(secs) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
              FROM t0
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
              SELECT user_id,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) AS session_id
              FROM t
            ), sess AS (
              SELECT user_id, session_id, count(*) AS n
              FROM s GROUP BY user_id, session_id
            )
            SELECT user_id, count(*) AS n_sessions,
                   sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)::BIGINT
                     AS n_bounces,
                   sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) / count(*)
                     AS bounce_rate
            FROM sess GROUP BY user_id
        """,
        "wow_growth_events": """
            WITH s AS (
              SELECT floor(epoch(ts))::BIGINT AS secs FROM events
            ), w AS (
              SELECT secs // 604800 AS week, count(*) AS n
              FROM s GROUP BY week)
            SELECT week, n,
                   COALESCE(n / lag(n) OVER (ORDER BY week), -1.0)
                     AS growth
            FROM w
        """,
        "time_rollup_events": """
            WITH s AS (
              SELECT floor(epoch(ts))::BIGINT AS secs FROM events)
            SELECT grain, bucket, count(*) AS n FROM (
              SELECT 'hour' AS grain, secs // 3600 AS bucket FROM s
              UNION ALL SELECT 'day', secs // 86400 FROM s
              UNION ALL SELECT 'week', secs // 604800 FROM s)
            GROUP BY grain, bucket
        """,
        "compress_runs_events": """
            WITH x AS (
              SELECT user_id, event_id, event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS prev
              FROM events)
            SELECT user_id, event_id, event_type
            FROM x WHERE prev IS NULL OR event_type <> prev
        """,
        "latest_event_per_user": """
            WITH r AS (
              SELECT user_id, event_id, event_type,
                     row_number() OVER (
                       PARTITION BY user_id
                       ORDER BY ts DESC, event_id DESC) AS rn
              FROM events)
            SELECT user_id, event_id, event_type FROM r WHERE rn = 1
        """,
        "corr_by_brand_parts": """
            WITH q AS (
              SELECT p_brand,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS a,
                     CAST(p_size AS BIGINT) AS b
              FROM part
            ), m AS (
              SELECT p_brand, count(*) AS n, sum(a) AS sa, sum(b) AS sb,
                     sum(a*a) AS paa, sum(b*b) AS pbb, sum(a*b) AS pab
              FROM q GROUP BY p_brand
            )
            SELECT p_brand,
                   CAST(n*pab - sa*sb AS DOUBLE)
                     / (sqrt(CAST(n*paa - sa*sa AS DOUBLE))
                        * sqrt(CAST(n*pbb - sb*sb AS DOUBLE))) AS corr
            FROM m
        """,
        "normalized_dedup_docs": """
            SELECT md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))
                     AS content_hash,
                   min(doc_id) AS keep_id, count(*) AS n_dupes
            FROM documents
            GROUP BY md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))
        """,
        "activity_histogram_events": """
            WITH c AS (
              SELECT user_id, count(*) AS n FROM events GROUP BY user_id)
            SELECT n, count(*) AS n_users FROM c GROUP BY n
        """,
        "weighted_avg_price_lineitem": """
            WITH t AS (
              SELECT l_returnflag,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
                     CAST(l_quantity AS BIGINT) AS qty
              FROM lineitem)
            SELECT l_returnflag,
                   sum(qty * cents) / sum(qty) AS wavg,
                   sum(qty)::BIGINT AS total_w
            FROM t GROUP BY l_returnflag
        """,
        "upsert_orders": """
            WITH cur AS (
              SELECT o_orderkey AS k,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders
            ), upd AS (
              SELECT k, cents + 123 AS cents FROM cur WHERE k % 5 = 0
              UNION ALL
              SELECT k + 20000000, cents FROM cur WHERE k % 19 = 0
            )
            SELECT COALESCE(u.k, c.k) AS k,
                   COALESCE(u.cents, c.cents) AS cents
            FROM cur c FULL OUTER JOIN upd u ON c.k = u.k
        """,
        "trending_types_daily_events": """
            WITH c AS (
              SELECT date_diff('day', TIMESTAMP '1970-01-01',
                               date_trunc('day', ts))::BIGINT AS day,
                     event_type, count(*) AS n
              FROM events GROUP BY day, event_type
            ), r AS (
              SELECT *, row_number() OVER (
                PARTITION BY day ORDER BY n DESC, event_type) AS rn
              FROM c)
            SELECT day, event_type, n FROM r WHERE rn <= 2
        """,
        "quantile_cont_brand_parts": """
            WITH cents AS (
              SELECT p_brand,
                     CAST(round(p_retailprice * 100) AS BIGINT) AS c
              FROM part)
            SELECT p_brand, q, value FROM (
              SELECT p_brand,
                     0.25 AS q, quantile_cont(c, 0.25) AS value
              FROM cents GROUP BY p_brand
              UNION ALL
              SELECT p_brand, 0.5, quantile_cont(c, 0.5)
              FROM cents GROUP BY p_brand
              UNION ALL
              SELECT p_brand, 0.75, quantile_cont(c, 0.75)
              FROM cents GROUP BY p_brand)
        """,
        "table_diff_orders": """
            WITH cur AS (
              SELECT o_orderkey AS k,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders
            ), bumped AS (
              SELECT k, CASE WHEN k % 7 = 0 THEN cents + 500
                             ELSE cents END AS cents
              FROM cur
            ), nxt AS (
              SELECT k, cents FROM bumped WHERE k % 13 <> 0
              UNION ALL
              SELECT k + 10000000, cents FROM bumped WHERE k % 17 = 0
            ), j AS (
              SELECT CASE WHEN c.k IS NULL THEN 'added'
                          WHEN n.k IS NULL THEN 'removed'
                          WHEN c.cents <> n.cents THEN 'changed'
                          ELSE 'unchanged' END AS status
              FROM cur c FULL OUTER JOIN nxt n ON c.k = n.k
            )
            SELECT status, count(*) AS n FROM j GROUP BY status
        """,
        "streaks_events": """
            WITH t AS (
              SELECT DISTINCT user_id,
                     date_diff('day', TIMESTAMP '1970-01-01',
                               date_trunc('day', ts))::BIGINT AS d
              FROM events
            ), x AS (
              SELECT user_id, d,
                     d - row_number() OVER (
                       PARTITION BY user_id ORDER BY d) AS grp
              FROM t)
            SELECT user_id, min(d) AS start_v, max(d) AS end_v,
                   count(*) AS len
            FROM x GROUP BY user_id, grp
        """,
        "revenue_share_orders": """
            WITH t AS (
              SELECT o_orderkey, o_custkey,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders)
            SELECT o_orderkey, o_custkey, cents,
                   cents / sum(cents) OVER (PARTITION BY o_custkey)
                     AS share
            FROM t
        """,
        "star_join_revenue_nation": """
            SELECT n.n_name, count(*) AS n_items,
                   (round((sum(l.l_extendedprice * (1 - l.l_discount))) * 1e2)::BIGINT / 1e2)
                     AS revenue
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "bfs_depths_lineitem": """
            WITH RECURSIVE e0 AS (
              SELECT DISTINCT l_suppkey::BIGINT AS s,
                     (l_partkey + 1000000)::BIGINT AS p
              FROM lineitem
            ), edges AS (
              SELECT s AS src, p AS dst FROM e0
              UNION ALL SELECT p, s FROM e0
            ), bfs AS (
              SELECT 1::BIGINT AS node, 0::BIGINT AS d
              UNION
              SELECT e.dst, bfs.d + 1
              FROM bfs JOIN edges e ON e.src = bfs.node
              WHERE bfs.d < 4
            )
            SELECT node, min(d)::BIGINT AS depth FROM bfs GROUP BY node
        """,
        "regex_extract_docs": """
            SELECT doc_id,
                   regexp_extract(text, 's[a-z]+') AS first_match,
                   length(regexp_extract_all(text, 's[a-z]+'))::BIGINT
                     AS n_matches
            FROM documents
        """,
        "retention_cohorts_events": """
            WITH f AS (
              SELECT user_id, min(date_trunc('day', ts)) AS d0
              FROM events GROUP BY user_id
            ), a AS (
              SELECT DISTINCT e.user_id,
                     date_diff('day', f.d0, date_trunc('day', e.ts)) AS dn
              FROM events e JOIN f ON e.user_id = f.user_id
            )
            SELECT dn, count(*)::BIGINT AS users FROM a GROUP BY dn
        """,
        "mode_quantity_lineitem": """
            WITH t AS (
              SELECT l_returnflag, CAST(l_quantity AS BIGINT) AS qty
              FROM lineitem
            ), c AS (
              SELECT l_returnflag, qty, count(*) AS n
              FROM t GROUP BY l_returnflag, qty
            ), r AS (
              SELECT *, row_number() OVER (
                PARTITION BY l_returnflag ORDER BY n DESC, qty) AS rn
              FROM c)
            SELECT l_returnflag, qty AS mode_value, n FROM r WHERE rn = 1
        """,
        "mad_value_events": """
            WITH t AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            ), m AS (
              SELECT event_type,
                     quantile_disc(cents, 0.5)::BIGINT AS med
              FROM t GROUP BY event_type
            ), d AS (
              SELECT t.event_type, m.med, abs(t.cents - m.med) AS adev
              FROM t JOIN m USING (event_type)
            )
            SELECT event_type, min(med)::BIGINT AS med,
                   quantile_disc(adev, 0.5)::BIGINT AS mad
            FROM d GROUP BY event_type
        """,
        "rolling_median_orders": """
            WITH w AS (
              SELECT o_custkey, o_orderkey,
                     median(o_totalprice) OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey
                       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS med5,
                     row_number() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey) AS rn
              FROM orders)
            SELECT o_custkey, o_orderkey, med5 FROM w WHERE rn >= 5
        """,
        "transition_counts_events": """
            WITH lagged AS (
              SELECT event_type AS dst,
                     LAG(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS src
              FROM events)
            SELECT src, dst, count(*) AS n
            FROM lagged WHERE src IS NOT NULL GROUP BY src, dst
        """,
        "funnel_events": """
            WITH t1 AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY user_id
            ), t2 AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN t1 ON e.user_id = t1.user_id
              WHERE e.event_type = 'click' AND e.ts > t1.t
              GROUP BY e.user_id
            ), t3 AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN t2 ON e.user_id = t2.user_id
              WHERE e.event_type = 'purchase' AND e.ts > t2.t
              GROUP BY e.user_id
            )
            SELECT 1::BIGINT AS stage, count(*)::BIGINT AS users FROM t1
            UNION ALL SELECT 2, count(*) FROM t2
            UNION ALL SELECT 3, count(*) FROM t3
        """,
        "collect_topk_docs": """
            WITH ranked AS (
              SELECT lang, doc_id,
                     row_number() OVER (
                       PARTITION BY lang
                       ORDER BY n_chars DESC, doc_id) AS rn
              FROM documents)
            SELECT lang,
                   string_agg(doc_id::VARCHAR, ',' ORDER BY rn) AS ids,
                   count(*)::BIGINT AS n
            FROM ranked WHERE rn <= 10 GROUP BY lang
        """,
        # incremental/sharded build parity: the oracle is the MONOLITHIC
        # build's golden fixture — equality IS the property under test
        "kg_incremental_triples": (
            "SELECT * FROM read_parquet("
            f"'{_FIXTURES}/kg_triples.parquet')"
        ),
        # ------------------------------------------------ golden fixtures
        # The remaining queries are not ANSI-SQL-expressible (KG pipeline
        # products, LSH/connected-components, raw-media multimodal kernels), so
        # their oracle is a committed golden fixture: the expected output at
        # sf0.01, generated by `python tools/fixtures.py make`, verified
        # bit-identical across parallelism levels (fixed-point float
        # accumulation + deterministic merge ordering), and read back here so
        # a pipeline regression fails the driver's rows/schema/hash compare
        # exactly like a SQL-backed query.
        **{
            name: f"SELECT * FROM read_parquet('{_FIXTURES}/{name}.parquet')"
            for name in (
                "kg_triples",
                "kg_eventualities",
                "kg_concept_agg",
                "kg_concept_triples",
                "edge_features",
                "transe_entity_embeddings",
                "ncf_recommender",
                "wnd_recommender",
                "minhash_dedup_docs",
                "simhash_docs",
                "fingerprint_docs",
                "langid_quality_docs",
                "multimodal_image_features",
                "multimodal_frame_sample",
                "ann_lsh_topk",
                "ann_ivf_topk",
                "hll_distinct_users",
                "kg_pagerank",
                "kg_components",
                "ddsketch_price_quantiles",
                "embedding_neardup_pairs_lsh",
                "kg_parse_strings",
                "embedding_kmeans_clusters",
                "bpe_vocab_docs",
                "bpe_token_counts_docs",
                "lm_perplexity_docs",
                "pca_embeddings",
                "classifier_finetune_docs",
                "semantic_dedup_embeddings",
                "countmin_user_freq_events",
            )
        },
    }
