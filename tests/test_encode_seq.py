"""Unit tests for ops/seq.py (sequence pattern matching) and
ops/encode.py (feature hashing, target encoding, ordinal encoding, k-fold)
plus rrf_fuse and trimmed_mean_by_key."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


def _events_df(n_users=40, n_events=400, seed=7):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "event_id": np.arange(n_events, dtype=np.int64),
        "ts": np.sort(rng.integers(0, 10_000, n_events)).astype(np.int64),
        "user_id": rng.integers(0, n_users, n_events).astype(np.int64),
        "event_type": rng.choice(
            ["view", "click", "purchase", "signup", "error"], n_events),
    })


CODES = {"view": "v", "click": "c", "purchase": "p",
         "signup": "s", "error": "e"}


def test_seq_match_equals_python_reference():
    from folkscope_ray.ops.seq import seq_match

    df = _events_df()
    out = seq_match(rd.from_pandas(df).repartition(5),
                    key_col="user_id", order_cols=["ts", "event_id"],
                    cat_col="event_type", codes=CODES,
                    pattern="v+c+p").to_pandas()
    out = out.sort_values("user_id").reset_index(drop=True)

    ref = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    seqs = (ref["event_type"].map(CODES)
            .groupby(ref["user_id"]).agg("".join))
    exp_matches = seqs.apply(lambda s: len(re.findall("v+c+p", s)))
    assert (out["seq_len"].to_numpy()
            == seqs.str.len().to_numpy()).all()
    assert (out["n_matches"].to_numpy() == exp_matches.to_numpy()).all()
    assert out["user_id"].nunique() == len(out)


def test_seq_match_unmapped_gets_default_code():
    from folkscope_ray.ops.seq import seq_match

    df = pd.DataFrame({
        "k": [1, 1, 1], "o": [1, 2, 3],
        "cat": ["view", "mystery", "purchase"],
    })
    out = seq_match(rd.from_pandas(df), key_col="k", order_cols=["o"],
                    cat_col="cat", codes=CODES, pattern="vxp").to_pandas()
    assert out["n_matches"].iloc[0] == 1


def test_seq_match_rejects_multichar_codes():
    from folkscope_ray.ops.seq import seq_match

    with pytest.raises(ValueError):
        seq_match(rd.from_pandas(pd.DataFrame({"k": [1], "o": [1],
                                               "c": ["a"]})),
                  key_col="k", order_cols=["o"], cat_col="c",
                  codes={"a": "ab"}, pattern="a")


def test_md5_mod_array_matches_hashlib():
    from folkscope_ray.ops.encode import md5_mod_array

    toks = pa.array(["hello", "world", "spark", "42"])
    got = md5_mod_array(toks, 64)
    exp = [int(hashlib.md5(t.encode()).hexdigest()[:12], 16) % 64
           for t in ["hello", "world", "spark", "42"]]
    assert got.tolist() == exp
    ids = pa.array([1, 22, 333], pa.int64())
    got4 = md5_mod_array(ids, 5, n_bytes=4)
    exp4 = [int(hashlib.md5(str(v).encode()).hexdigest()[:8], 16) % 5
            for v in [1, 22, 333]]
    assert got4.tolist() == exp4


def test_feature_hash_counts_tokens():
    from folkscope_ray.ops.encode import feature_hash, md5_mod_array

    df = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["The cat cat sat", "dog DOG dog runs"],
    })
    out = (feature_hash(rd.from_pandas(df), "doc_id", "text", dim=16)
           .to_pandas())
    b_cat = md5_mod_array(pa.array(["cat"]), 16)[0]
    b_dog = md5_mod_array(pa.array(["dog"]), 16)[0]
    assert int(out[(out.doc_id == 1)
                   & (out.bucket == b_cat)]["tf"].iloc[0]) >= 2
    assert int(out[(out.doc_id == 2)
                   & (out.bucket == b_dog)]["tf"].iloc[0]) == 3
    # total tf equals total token count
    assert out["tf"].sum() == 4 + 4


def test_target_encode_shrinks_toward_prior():
    from folkscope_ray.ops.encode import target_encode

    df = pd.DataFrame({
        "k": ["a"] * 1000 + ["rare"],
        "v": [100] * 1000 + [100_000],
    })
    out = (target_encode(rd.from_pandas(df).repartition(4), "k", "v", m=50.0)
           .to_pandas().set_index("k"))
    prior = df["v"].sum() / len(df)
    # frequent category ~ its own mean; rare category pulled hard to prior
    assert abs(out.loc["a", "enc"] - 100) < 15
    assert abs(out.loc["rare", "enc"]
               - (100_000 + 50 * prior) / 51) < 1e-9
    # exact formula parity
    exp_a = (100 * 1000 + 50.0 * prior) / (1000 + 50.0)
    assert out.loc["a", "enc"] == pytest.approx(exp_a, abs=0)


def test_ordinal_encode_dense_sorted_ids():
    from folkscope_ray.ops.encode import ordinal_encode

    df = pd.DataFrame({"id": [1, 2, 3, 4],
                       "b": ["zeta", "alpha", "mid", "alpha"]})
    out = (ordinal_encode(rd.from_pandas(df).repartition(2), ["b"])
           .to_pandas().sort_values("id"))
    assert out["b_idx"].tolist() == [2, 0, 1, 0]


def test_ordinal_encode_gate_fails_fast(monkeypatch):
    from folkscope_ray.ops.encode import ordinal_encode

    monkeypatch.setattr("folkscope_ray.ops.encode.ENCODE_BROADCAST_MAX", 2)
    df = pd.DataFrame({"b": ["a", "b", "c"]})
    with pytest.raises(ValueError, match="feature_hash"):
        ordinal_encode(rd.from_pandas(df), ["b"])


def test_kfold_assign_deterministic_and_partition_invariant():
    from folkscope_ray.ops.encode import kfold_assign

    df = pd.DataFrame({"id": np.arange(200, dtype=np.int64)})
    a = (kfold_assign(rd.from_pandas(df), "id", k=5).to_pandas()
         .sort_values("id")["fold"].to_numpy())
    b = (kfold_assign(rd.from_pandas(df).repartition(7), "id", k=5)
         .to_pandas().sort_values("id")["fold"].to_numpy())
    assert (a == b).all()
    assert set(np.unique(a)) <= set(range(5))
    # roughly balanced (md5 is uniform)
    counts = np.bincount(a, minlength=5)
    assert counts.min() > 20


def test_rrf_fuse_integer_scores():
    from folkscope_ray.ops.index import rrf_fuse

    a = rd.from_pandas(pd.DataFrame({"id": [1, 2, 3],
                                     "rnk": [1, 2, 3]}))
    b = rd.from_pandas(pd.DataFrame({"id": [3, 4],
                                     "rnk": [1, 2]}))
    out = (rrf_fuse([a, b], id_col="id").to_pandas()
           .set_index("id").sort_index())
    assert out.loc[1, "rrf_ppm"] == 1_000_000 // 61
    assert out.loc[3, "rrf_ppm"] == 1_000_000 // 63 + 1_000_000 // 61
    assert out.loc[3, "n_lists"] == 2
    assert out.loc[4, "n_lists"] == 1


def test_rrf_fuse_rejects_zero_rank():
    from folkscope_ray.ops.index import rrf_fuse

    bad = rd.from_pandas(pd.DataFrame({"id": [1], "rnk": [0]}))
    with pytest.raises(Exception):
        rrf_fuse([bad], id_col="id").to_pandas()


def test_trimmed_mean_by_key_drops_tails():
    from folkscope_ray.ops.split import trimmed_mean_by_key

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 1000, 500).astype(np.int64)
    df = pd.DataFrame({"k": ["x"] * 500, "v": vals})
    out = (trimmed_mean_by_key(rd.from_pandas(df).repartition(4),
                               "k", "v", lo=0.1, hi=0.9).to_pandas())
    # duckdb-parity reference: quantile_disc bounds, inclusive band
    import duckdb

    exp = duckdb.sql("""
        WITH b AS (SELECT quantile_disc(v, 0.1) lo, quantile_disc(v, 0.9) hi
                   FROM df)
        SELECT count(*) n, sum(v)::BIGINT s FROM df, b
        WHERE v BETWEEN lo AND hi""").fetchone()
    assert int(out["n_kept"].iloc[0]) == exp[0]
    assert int(out["sum_v"].iloc[0]) == exp[1]
    assert out["tmean"].iloc[0] == exp[1] / exp[0]


def test_vocab_coverage_known_counts():
    from folkscope_ray.ops.lm import vocab_coverage

    df = pd.DataFrame({"text": ["a a a a b b c", "a b c d"]})
    out = vocab_coverage(rd.from_pandas(df).repartition(2), ks=[1, 2, 4])
    out = out.set_index("k")
    # counts: a=5, b=3, c=2, d=1 (total 11)
    assert out.loc[1, "covered"] == 5
    assert out.loc[2, "covered"] == 8
    assert out.loc[4, "covered"] == 11 and out.loc[4, "share"] == 1.0
    assert (out["total"] == 11).all()


def test_vocab_coverage_k_beyond_vocab():
    from folkscope_ray.ops.lm import vocab_coverage

    df = pd.DataFrame({"text": ["x y", "x"]})
    out = vocab_coverage(rd.from_pandas(df), ks=[10])
    assert out["covered"].iloc[0] == 3 and out["share"].iloc[0] == 1.0


def test_weighted_median_by_key():
    from folkscope_ray.ops.split import weighted_median_by_key

    # key a: values 1(w1), 2(w1), 3(w10) -> median 3; key b: 5(w2), 9(w1)
    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b"],
        "v": [1, 2, 3, 5, 9],
        "w": [1, 1, 10, 2, 1],
    })
    out = (weighted_median_by_key(rd.from_pandas(df).repartition(3),
                                  "k", "v", "w").set_index("k"))
    assert out.loc["a", "wmedian"] == 3
    assert out.loc["b", "wmedian"] == 5
    # equal halves -> lower median (2*cw == tw picks the first value)
    df2 = pd.DataFrame({"k": ["c"] * 2, "v": [10, 20], "w": [1, 1]})
    out2 = weighted_median_by_key(rd.from_pandas(df2), "k", "v", "w")
    assert out2["wmedian"].iloc[0] == 10


def test_quota_topk_respects_quota_and_global_cut():
    from folkscope_ray.ops.split import quota_topk

    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "brand": np.repeat(["x", "y", "z"], 20),
        "id": np.arange(60, dtype=np.int64),
        "v": rng.permutation(60).astype(np.int64),
    })
    out = quota_topk(rd.from_pandas(df).repartition(5), "brand", "v",
                     "id", k_global=7, per_key_quota=3)
    assert len(out) == 7
    assert out.groupby("brand").size().max() <= 3
    # reference: pandas per-key head(3) then global top-7
    ref = (df.sort_values(["v", "id"], ascending=[False, True])
           .groupby("brand").head(3)
           .sort_values(["v", "id"], ascending=[False, True]).head(7))
    assert sorted(out["id"]) == sorted(ref["id"])
    # ranks are per-key positions
    top_row = out.iloc[0]
    assert top_row["rn"] == 1


def test_ordinal_encode_rejects_nulls():
    from folkscope_ray.ops.encode import ordinal_encode

    df = pd.DataFrame({"b": ["x", None, "y"]})
    with pytest.raises(ValueError, match="nulls"):
        ordinal_encode(rd.from_pandas(df), ["b"])


def test_bernoulli_sample_rates_and_determinism():
    from folkscope_ray.ops.split import bernoulli_sample

    n = 4000
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "rate_ppm": np.full(n, 250_000, dtype=np.int64)})
    a = (bernoulli_sample(rd.from_pandas(df).repartition(5), "id",
                          "rate_ppm").to_pandas())
    b = bernoulli_sample(rd.from_pandas(df), "id", "rate_ppm").to_pandas()
    assert sorted(a["id"]) == sorted(b["id"])          # layout-invariant
    assert abs(len(a) / n - 0.25) < 0.03               # ~25% kept
    # rate 0 keeps nothing, rate 1e6 keeps everything
    df["rate_ppm"] = 0
    assert len(bernoulli_sample(rd.from_pandas(df), "id",
                                "rate_ppm").to_pandas()) == 0
    df["rate_ppm"] = 1_000_000
    assert len(bernoulli_sample(rd.from_pandas(df), "id",
                                "rate_ppm").to_pandas()) == n
    # reference draw for one row
    d = int(hashlib.md5(b"42|7").hexdigest()[:8], 16)
    df2 = pd.DataFrame({"id": [7], "rate_ppm": [250_000]})
    kept = len(bernoulli_sample(rd.from_pandas(df2), "id",
                                "rate_ppm").to_pandas()) == 1
    assert kept == (d * 1_000_000 < 250_000 * (1 << 32))


def test_pareto_front_small_cases():
    from folkscope_ray.ops.split import pareto_front

    df = pd.DataFrame({
        "id": [1, 2, 3, 4, 5, 6],
        "x": [10, 10, 5, 9, 1, 10],
        "y": [1, 5, 9, 9, 10, 5],
    })
    out = (pareto_front(rd.from_pandas(df).repartition(4), "x", "y")
           .to_pandas().sort_values("id"))
    # (10,5) appears twice -> both kept; (10,1) dominated by (10,5);
    # (9,9) kept; (5,9) dominated by (9,9); (1,10) kept
    assert out["id"].tolist() == [2, 4, 5, 6]


def test_pareto_front_partition_invariant():
    from folkscope_ray.ops.split import pareto_front

    rng = np.random.default_rng(17)
    df = pd.DataFrame({"id": np.arange(600, dtype=np.int64),
                       "x": rng.integers(0, 100, 600).astype(np.int64),
                       "y": rng.integers(0, 100, 600).astype(np.int64)})
    a = (pareto_front(rd.from_pandas(df), "x", "y").to_pandas()
         .sort_values("id").reset_index(drop=True))
    b = (pareto_front(rd.from_pandas(df).repartition(11), "x", "y")
         .to_pandas().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    # brute-force reference
    x, y = df["x"].to_numpy(), df["y"].to_numpy()
    dom = [(((x >= x[i]) & (y >= y[i])
             & ((x > x[i]) | (y > y[i]))).any()) for i in range(len(df))]
    assert a["id"].tolist() == df["id"][~np.array(dom)].tolist()


def test_frequent_path_ngrams_counts_distinct_keys():
    from folkscope_ray.ops.seq import frequent_path_ngrams

    # user 1 path "vvcp" -> trigrams vvc, vcp; user 2 "vcpvcp" -> vcp,
    # cpv, pvc (vcp twice but counted ONCE); user 3 "vc" -> none
    rows = []
    for uid, path in [(1, "vvcp"), (2, "vcpvcp"), (3, "vc")]:
        for i, ch in enumerate(path):
            rows.append({"k": uid, "o": i,
                         "cat": {"v": "view", "c": "click",
                                 "p": "purchase"}[ch]})
    df = pd.DataFrame(rows)
    out = (frequent_path_ngrams(
        rd.from_pandas(df).repartition(3), key_col="k", order_cols=["o"],
        cat_col="cat",
        codes={"view": "v", "click": "c", "purchase": "p"},
        n=3, min_support=1).to_pandas()
        .set_index("gram")["n_keys"].sort_index())
    assert out.to_dict() == {"cpv": 1, "pvc": 1, "vcp": 2, "vvc": 1}
    # support filter
    out2 = (frequent_path_ngrams(
        rd.from_pandas(df), key_col="k", order_cols=["o"], cat_col="cat",
        codes={"view": "v", "click": "c", "purchase": "p"},
        n=3, min_support=2).to_pandas())
    assert out2["gram"].tolist() == ["vcp"]


def test_ndcg_at_k_known_values():
    from folkscope_ray.ops.index import ndcg_at_k

    # scores rank ids 4,3,2,1; rels in that order: 0, 3, 1, 2
    df = pd.DataFrame({"id": [1, 2, 3, 4],
                       "score": [10, 20, 30, 40],
                       "rel": [2, 1, 3, 0]})
    out = ndcg_at_k(rd.from_pandas(df).repartition(2), "id", "score",
                    "rel", k=4)
    assert out["rel"].tolist() == [0, 3, 1, 2]
    r = np.arange(1, 5)
    dcg = np.array([0, 3, 1, 2]) / np.log2(r + 1)
    idcg = np.array([3, 2, 1, 0]) / np.log2(r + 1)
    assert out["dcg_micro"].tolist() == list(
        np.floor(dcg * 1e6 + 0.5).astype(int))
    assert out["idcg_micro"].tolist() == list(
        np.floor(idcg * 1e6 + 0.5).astype(int))
    # perfect ordering -> dcg == idcg
    df2 = pd.DataFrame({"id": [1, 2], "score": [2, 1], "rel": [3, 1]})
    out2 = ndcg_at_k(rd.from_pandas(df2), "id", "score", "rel", k=2)
    assert (out2["dcg_micro"] == out2["idcg_micro"]).all()
