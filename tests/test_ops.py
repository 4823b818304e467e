"""Tests for the training-data ops suite (dedup / similarity / text /
relational / multimodal) against DuckDB or numpy oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _docs():
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


def test_exact_dedup_vs_duckdb():
    import duckdb

    from folkscope_ray.ops.dedup import exact_dedup

    got = exact_dedup(_docs()).to_pandas().sort_values("content_hash").reset_index(drop=True)
    want = (
        duckdb.sql(
            f"""SELECT md5(text) AS content_hash, min(doc_id) AS keep_id, count(*) AS n_dupes
                FROM read_parquet('{SF}/documents.parquet') GROUP BY md5(text) ORDER BY content_hash"""
        ).fetchdf()
    )
    assert got["content_hash"].tolist() == want["content_hash"].tolist()
    assert got["keep_id"].tolist() == want["keep_id"].tolist()
    assert got["n_dupes"].astype(int).tolist() == want["n_dupes"].astype(int).tolist()


def test_minhash_lsh_finds_planted_near_dups(ray_session=None):
    import ray.data as rd

    from folkscope_ray.ops.dedup import minhash_lsh_components

    base = "the quick brown fox jumps over the lazy dog and runs far away into the woods tonight"
    rows = [{"doc_id": 0, "text": base},
            {"doc_id": 1, "text": base + " again"},          # near-dup of 0
            {"doc_id": 2, "text": base.replace("quick", "slow")},  # near-dup of 0
            {"doc_id": 3, "text": "completely different content about databases and indexes and storage"},
            {"doc_id": 4, "text": "completely different content about databases and indexes and storage systems"}]
    ds = rd.from_pandas(pd.DataFrame(rows))
    comp = minhash_lsh_components(ds)
    assert comp[0] == comp[1] == comp[2]
    assert comp[3] == comp[4]
    assert comp[0] != comp[3]


def test_simhash_close_for_similar_texts():
    from folkscope_ray.ops.dedup import simhash64

    a = simhash64("the quick brown fox jumps over the lazy dog near the river bank")
    b = simhash64("the quick brown fox jumps over the lazy cat near the river bank")
    c = simhash64("databases indexes storage engines compaction levels bloom filters")
    ham_ab = bin(a ^ b).count("1")
    ham_ac = bin(a ^ c).count("1")
    assert ham_ab < ham_ac
    assert simhash64("x y z") == simhash64("x y z")


def test_ngram_jaccard():
    from folkscope_ray.ops.dedup import ngram_jaccard

    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c d", "x y z w") == 0.0
    assert 0.0 < ngram_jaccard("a b c d e", "a b c d x") < 1.0


def test_brute_force_topk_matches_numpy():
    import ray.data as rd

    from folkscope_ray.ops.similarity import brute_force_topk

    rng = np.random.RandomState(0)
    vecs = rng.standard_normal((200, 16))
    df = pd.DataFrame({"vec_id": np.arange(200), "embedding": list(vecs)})
    ds = rd.from_pandas(df)
    q = rng.standard_normal(16)
    got = brute_force_topk(ds, np.asarray([q]), k=5)
    qn = q / np.linalg.norm(q)
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = vn @ qn
    want = np.argsort(-sims)[:5]
    assert got["vec_id"].tolist() == want.tolist()
    assert np.allclose(got["cosine"].to_numpy(), sims[want])


def test_lsh_topk_subset_of_exact():
    import ray

    import ray.data as rd

    from folkscope_ray.ops.similarity import LshTopK, hyperplanes

    rng = np.random.RandomState(3)
    vecs = rng.standard_normal((300, 8))
    df = pd.DataFrame({"vec_id": np.arange(300), "embedding": list(vecs)})
    ds = rd.from_pandas(df)
    q = vecs[0] + 0.01 * rng.standard_normal(8)
    planes = hyperplanes(8, n_planes=4)
    out = ds.map_batches(
        LshTopK,
        batch_format="pyarrow",
        fn_constructor_kwargs={
            "queries_ref": ray.put(np.asarray([q])),
            "planes_ref": ray.put(planes),
            "k": 5,
        },
        concurrency=1,
    ).to_pandas()
    # the query's own near-copy must be found (same bucket by construction)
    assert 0 in out["vec_id"].tolist()


def test_ivf_topk_exact_when_probing_all_centroids():
    """n_probe == n_centroids must reproduce brute_force_topk bit-exactly."""
    import ray.data as rd

    from folkscope_ray.ops.similarity import brute_force_topk, ivf_topk

    rng = np.random.RandomState(7)
    vecs = rng.standard_normal((240, 12))
    df = pd.DataFrame({"vec_id": np.arange(240), "embedding": list(vecs)})
    ds = rd.from_pandas(df)
    q = np.asarray([rng.standard_normal(12)])
    exact = brute_force_topk(ds, q, k=8, quantize_digits=6)
    ivf = ivf_topk(ds, q, k=8, n_centroids=8, n_probe=8, quantize_digits=6)
    pd.testing.assert_frame_equal(ivf, exact)


def test_ivf_topk_partition_invariant_and_recall():
    """Centroids train on fixed-point partials -> result identical across
    block counts; probing 4/8 lists still finds a planted near-copy."""
    import ray.data as rd

    from folkscope_ray.ops.similarity import ivf_topk

    rng = np.random.RandomState(11)
    vecs = rng.standard_normal((300, 10))
    vecs[250] = vecs[0] + 0.01 * rng.standard_normal(10)  # planted near-dup
    df = pd.DataFrame({"vec_id": np.arange(300), "embedding": list(vecs)})
    q = np.asarray([vecs[0]])
    outs = []
    for blocks in (1, 7):
        ds = rd.from_pandas(df).repartition(blocks)
        outs.append(ivf_topk(ds, q, k=5, n_centroids=8, n_probe=4,
                             quantize_digits=6))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    got = outs[0]["vec_id"].tolist()
    assert 0 in got and 250 in got  # query vector + its near-copy found


def test_token_count_matches_python_split():
    from folkscope_ray.ops.text import token_count_batch

    batch = pa.table({"doc_id": [1, 2, 3], "text": ["a b  c", "", "  x "]})
    out = token_count_batch(batch)
    assert out.column("n_words").to_pylist() == [3, 0, 1]


def test_quality_and_langid():
    from folkscope_ray.ops.text import LangId, quality_batch

    batch = pa.table(
        {"doc_id": [1, 2],
         "text": ["The cat and the dog sat in the garden of the house for a day.",
                  "@@@@ #### !!!! %%%% ^^^^"]}
    )
    out = quality_batch(batch)
    q = out.column("quality_score").to_pylist()
    assert q[0] > q[1]
    lang = LangId()(out).column("lang_guess").to_pylist()
    assert lang[0] == "en"


def test_fingerprint_deterministic_and_discriminative():
    from folkscope_ray.ops.text import fingerprint_batch

    t1 = "some longer document text that exceeds the fingerprint window easily"
    t2 = "a completely different body of text with other words inside it today"
    b = pa.table({"doc_id": [1, 2, 3], "text": [t1, t2, t1]})
    fps = fingerprint_batch(b).column("fingerprint").to_pylist()
    assert fps[0] == fps[2] != fps[1]


def test_hash_join_matches_duckdb():
    import duckdb

    import ray.data as rd

    from folkscope_ray.ops.relational import hash_join

    li = rd.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_quantity"])
    li = li.map_batches(
        lambda b: b.rename_columns(["o_orderkey", "l_quantity"]), batch_format="pyarrow"
    )
    od = rd.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey", "o_orderstatus"])
    got = hash_join(li, od, on="o_orderkey").to_pandas()
    want = duckdb.sql(
        f"""SELECT count(*) AS n FROM read_parquet('{SF}/lineitem.parquet') l
            JOIN read_parquet('{SF}/orders.parquet') o ON l.l_orderkey = o.o_orderkey"""
    ).fetchone()[0]
    assert len(got) == want


def test_salted_aggregate_skewed_key():
    import ray.data as rd

    from folkscope_ray.ops.relational import salted_aggregate

    # 90% of rows share one hot key — the salted two-phase agg must be exact
    n = 10_000
    keys = np.where(np.arange(n) % 10 < 9, "hot", "cold")
    vals = np.ones(n)
    ds = rd.from_pandas(pd.DataFrame({"k": keys, "v": vals}))
    out = salted_aggregate(ds, "k", "v").to_pandas().set_index("k")
    assert out.loc["hot", "sum_v"] == 9000.0 and out.loc["hot", "n"] == 9000
    assert out.loc["cold", "sum_v"] == 1000.0 and out.loc["cold", "n"] == 1000


def test_multimodal_plumbing():
    import ray.data as rd

    from folkscope_ray.ops.multimodal import (
        FrameSampler,
        ImageFeatures,
        synthetic_media_table,
    )

    media = rd.from_arrow(synthetic_media_table(30))
    feats = media.map_batches(ImageFeatures, batch_format="pyarrow", batch_size=8,
                              concurrency=1).to_pandas()
    assert len(feats) == 10  # every 3rd row is an image
    assert all(len(m) == 3 for m in feats["channel_mean"])
    frames = media.map_batches(FrameSampler, batch_format="pyarrow", batch_size=8,
                               concurrency=1).to_pandas()
    assert len(frames) == 10 * 4  # every 3rd row is a video, k=4 frames each
    assert frames.groupby("media_id")["frame_idx"].count().eq(4).all()
    # ts_ms must timestamp the frame actually emitted (source index src),
    # not the nominal sample slot j — they disagree when n_frames % k != 0
    from folkscope_ray.ops.multimodal import iter_video_frames

    meta = media.to_pandas().set_index("media_id")
    for _, r in frames.iterrows():
        m = meta.loc[r["media_id"]]
        n_frames = len(iter_video_frames(m["payload"], m["mime"],
                                         m["width"], m["height"]))
        src = min(n_frames - 1, n_frames * int(r["frame_idx"]) // 4)
        assert int(r["ts_ms"]) == int(src * max(1, m["duration_ms"]) / n_frames)


def test_multimodal_real_kernels():
    """Decode/resize/feature kernels compute real values from the payload
    bytes (raw rgb24 / s16le formats), not hash-derived fakes."""
    import ray.data as rd

    from folkscope_ray.ops.multimodal import (
        ImageResizer,
        decode_audio,
        decode_image,
        iter_video_frames,
        resize_bilinear,
        synthetic_media_table,
    )

    t = synthetic_media_table(12)
    rows = t.to_pylist()
    img_row = next(r for r in rows if r["kind"] == "image")
    img = decode_image(img_row["payload"], img_row["mime"],
                       img_row["width"], img_row["height"])
    # decode is frombuffer+reshape: mean over pixels == mean over raw bytes
    raw_mean = np.frombuffer(img_row["payload"], np.uint8).mean()
    assert abs(img.astype(np.float64).mean() - raw_mean) < 1e-12
    # bilinear resize: constant image stays constant; 2x downsample of a
    # linear ramp equals the average of the 2x2 source blocks
    const = np.full((40, 56, 3), 93, np.uint8)
    assert (resize_bilinear(const, 16, 16) == 93).all()
    ramp = np.arange(16, dtype=np.uint8).reshape(4, 4)
    ramp3 = np.repeat(ramp[..., None], 3, axis=2)
    half = resize_bilinear(ramp3, 2, 2)[..., 0].astype(float)
    blocks = ramp.astype(float).reshape(2, 2, 2, 2).mean(axis=(1, 3))
    assert np.abs(half - np.round(blocks)).max() <= 1.0
    # audio decode: int16 scaling
    aud_row = next(r for r in rows if r["kind"] == "audio")
    wave = decode_audio(aud_row["payload"], aud_row["mime"])
    assert wave.dtype == np.float32 and np.abs(wave).max() <= 1.0
    assert wave.size == len(aud_row["payload"]) // 2
    # video frames: slicing reproduces the exact payload bytes
    vid_row = next(r for r in rows if r["kind"] == "video")
    frames = iter_video_frames(vid_row["payload"], vid_row["mime"],
                               vid_row["width"], vid_row["height"])
    fb = vid_row["height"] * vid_row["width"] * 3
    assert frames[1].tobytes() == vid_row["payload"][fb:2 * fb]
    # resizer stage: payload round-trips at the new geometry
    media = rd.from_arrow(t)
    out = media.map_batches(ImageResizer(16, 16), batch_format="pyarrow",
                            batch_size=8, concurrency=1).to_pandas()
    imgs = out[out["kind"] == "image"]
    assert (imgs["width"] == 16).all() and (imgs["height"] == 16).all()
    assert all(len(p) == 16 * 16 * 3 for p in imgs["payload"])
    # non-image rows pass through byte-identical
    vids = out[out["kind"] == "video"].set_index("media_id")
    for r in rows:
        if r["kind"] == "video":
            assert bytes(vids.loc[r["media_id"], "payload"]) == r["payload"]


def test_audio_features_real_pcm():
    import ray.data as rd

    from folkscope_ray.ops.multimodal import AudioFeatures, synthetic_media_table

    media = rd.from_arrow(synthetic_media_table(30))
    feats = media.map_batches(AudioFeatures, batch_format="pyarrow", batch_size=8,
                              concurrency=1).to_pandas()
    assert len(feats) == 10  # every 3rd row is audio
    assert (feats["rms"] > 0).all()
    # deterministic: same payload -> same features
    again = media.map_batches(AudioFeatures, batch_format="pyarrow", batch_size=8,
                              concurrency=1).to_pandas()
    assert feats.sort_values("media_id").reset_index(drop=True).equals(
        again.sort_values("media_id").reset_index(drop=True))


def test_salted_aggregate_matches_plain():
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    from folkscope_ray.ops.relational import salted_aggregate

    rng = np.random.RandomState(5)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 5000), "v": rng.rand(5000)})
    ds = rd.from_pandas(df)
    salted = salted_aggregate(ds, "k", "v").to_pandas().set_index("k").sort_index()
    plain = df.groupby("k").agg(sum_v=("v", "sum"), n=("v", "size")).sort_index()
    assert (salted["n"] == plain["n"]).all()
    assert np.allclose(salted["sum_v"], plain["sum_v"])


def test_quality_batch_unicode_parity():
    """The vectorized ASCII byte path and the per-char unicode fallback agree
    on pure-ASCII text, and unicode rows take the exact fallback."""
    import pyarrow as pa

    from folkscope_ray.ops.text import quality_batch

    ascii_texts = ["the quick brown fox. it is fine!", "", "   ", "a_b-c(d)"]
    uni_texts = ascii_texts + ["héllo wörld, the end."]
    for texts in (ascii_texts, uni_texts):
        out = quality_batch(pa.table({"text": pa.array(texts, pa.string())}))
        got = out.column("punct_ratio").to_pylist()
        want = [
            (1.0 - sum(c.isalnum() or c.isspace() for c in t) / len(t)) if t else 0.0
            for t in texts
        ]
        assert got == want


def test_map_combine_aggregate_matches_plain_groupby():
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from folkscope_ray.ops.relational import map_combine_aggregate

    rng = np.random.RandomState(13)
    df = pd.DataFrame({
        "k1": rng.choice(["x", "y", "z"], 5000),
        "k2": rng.choice(["p", "q"], 5000),
        "v": rng.standard_normal(5000),
        "w": rng.standard_normal(5000),
    })
    ds = rd.from_pandas(df).repartition(9)
    got = (map_combine_aggregate(ds, ["k1", "k2"], {"v": "sv", "w": "sw"},
                                 count_alias="n")
           .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True))
    want = (ds.groupby(["k1", "k2"])
            .aggregate(Sum("v", alias_name="sv"), Sum("w", alias_name="sw"),
                       Count(alias_name="n"))
            .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True))
    assert got["n"].tolist() == want["n"].tolist()
    assert np.allclose(got["sv"], want["sv"]) and np.allclose(got["sw"], want["sw"])
    # single-key path + min/max two-phase exactness
    got1 = (map_combine_aggregate(ds, ["k1"], {"v": "sv"},
                                  mins={"w": "wmin"}, maxs={"w": "wmax"})
            .to_pandas().sort_values("k1").reset_index(drop=True))
    assert got1["n"].sum() == 5000
    ref = df.groupby("k1")["w"].agg(["min", "max"]).sort_index()
    assert np.allclose(got1["wmin"], ref["min"]) and np.allclose(got1["wmax"], ref["max"])


def test_map_combine_aggregate_final_modes_equivalent(monkeypatch):
    """The three final-combine plans (narrow tree reduce, hash shuffle,
    auto's forced-shuffle branch via gate=0) must agree exactly — same
    values, same dtypes — on an integer workload."""
    import ray.data as rd

    from folkscope_ray.ops.relational import map_combine_aggregate

    rng = np.random.RandomState(5)
    df = pd.DataFrame({
        "k1": rng.randint(0, 37, 20000),
        "k2": rng.choice(list("ab"), 20000),
        "v": rng.randint(-100, 100, 20000).astype("int64"),
        "w": rng.randint(0, 10_000, 20000).astype("int64"),
    })
    ds = rd.from_pandas(df).repartition(11)
    kw = dict(keys=["k1", "k2"], sums={"v": "sv"}, mins={"w": "mw"},
              maxs={"w": "xw"}, count_alias="n")
    outs = []
    for mode in ("narrow", "shuffle", "auto", "auto_gate0"):
        if mode == "auto_gate0":
            monkeypatch.setattr(
                "folkscope_ray.ops.relational.NARROW_FINAL_MAX", 0)
            mode = "auto"
        res = map_combine_aggregate(ds, final=mode, **kw).to_pandas()
        cols = sorted(res.columns)
        outs.append(res[cols].sort_values(cols).reset_index(drop=True))
    for other in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], other)
    want = (df.groupby(["k1", "k2"], as_index=False)
            .agg(sv=("v", "sum"), mw=("w", "min"), xw=("w", "max"),
                 n=("v", "size")))
    want["n"] = want["n"].astype("int64")
    cols = sorted(want.columns)
    pd.testing.assert_frame_equal(
        outs[0], want[cols].sort_values(cols).reset_index(drop=True),
        check_like=True)


def test_map_combine_aggregate_count_alias_collision():
    """count_alias colliding with a named sum alias (the _stats_pass shape:
    sums={'n': 'n'}, count_alias='n') must yield ONE column holding the SUM
    in every final plan — not a duplicate field or the row count."""
    import ray.data as rd

    from folkscope_ray.ops.relational import map_combine_aggregate

    df = pd.DataFrame({"k": ["a", "a", "b", "b", "b"],
                       "n": np.array([1, 2, 3, 4, 5], dtype="int64")})
    want = {"a": 3, "b": 12}
    for mode in ("narrow", "shuffle"):
        out = map_combine_aggregate(
            rd.from_pandas(df).repartition(3), keys=["k"],
            sums={"n": "n"}, count_alias="n", final=mode).to_pandas()
        assert sorted(out.columns) == ["k", "n"], (mode, out.columns)
        got = dict(zip(out["k"], out["n"]))
        assert got == want, (mode, got)


# --------------------------------------------------------- split / sample


def test_hash_split_deterministic_and_proportional():
    import hashlib

    from folkscope_ray.ops.split import hash_split_batch

    ids = list(range(5000))
    t = pa.table({"doc_id": pa.array(ids, pa.int64())})
    out = hash_split_batch(t, "doc_id")
    splits = out.column("split").to_pylist()
    # deterministic: re-running and row order both irrelevant
    out2 = hash_split_batch(t.take(pa.array(list(reversed(range(5000))))), "doc_id")
    assert dict(zip(reversed(ids), out2.column("split").to_pylist())) == dict(zip(ids, splits))
    # matches the md5 definition row by row
    for i in (0, 1, 17, 4999):
        b = int(hashlib.md5(str(ids[i]).encode()).hexdigest()[:2], 16)
        want = "train" if b < 204 else ("val" if b < 230 else "test")
        assert splits[i] == want
    # proportions near 80/10/10 (md5 uniformity)
    from collections import Counter

    c = Counter(splits)
    assert 0.75 < c["train"] / 5000 < 0.85
    assert 0.07 < c["val"] / 5000 < 0.14
    assert 0.07 < c["test"] / 5000 < 0.14


def test_quantiles_by_key_matches_duckdb():
    import duckdb
    import ray.data as rd

    from folkscope_ray.ops.split import quantiles_by_key

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "k": rng.integers(0, 3, 400),
        "v": rng.integers(0, 50, 400),
    })
    got = quantiles_by_key(rd.from_pandas(df), "k", "v", [0.0, 0.5, 0.95])
    want = duckdb.sql(
        "SELECT k, unnest([0.0, 0.5, 0.95]) AS q, "
        "unnest(quantile_disc(v, [0.0, 0.5, 0.95])) AS value "
        "FROM df GROUP BY k").df()
    g = got.sort_values(["k", "q"]).reset_index(drop=True)
    w = want.sort_values(["k", "q"]).reset_index(drop=True)
    assert (g["value"].to_numpy() == w["value"].to_numpy()).all()


def test_sample_per_key_block_invariant():
    import ray.data as rd

    from folkscope_ray.ops.split import sample_per_key

    df = pd.DataFrame({
        "k": [f"k{i % 4}" for i in range(200)],
        "i": range(200),
        "x": range(200),
    })
    a = sample_per_key(rd.from_pandas(df), "k", "i", 3,
                       keep_cols=["x"]).to_pandas()
    b = sample_per_key(
        rd.from_pandas(df).repartition(17), "k", "i", 3,
        keep_cols=["x"]).to_pandas()
    ka = a.sort_values(["k", "i"]).reset_index(drop=True)
    kb = b.sort_values(["k", "i"]).reset_index(drop=True)
    assert ka[["k", "i", "x"]].equals(kb[["k", "i", "x"]])
    assert (ka.groupby("k").size() == 3).all()


def test_pack_sequences_matches_serial_reference():
    import ray.data as rd

    from folkscope_ray.ops.split import pack_sequences

    rng = np.random.default_rng(3)
    sizes = rng.integers(10, 400, 300)
    df = pd.DataFrame({"i": range(300), "sz": sizes})
    got = (pack_sequences(rd.from_pandas(df).repartition(13), "i", "sz",
                          budget=1000, chunk_span=37)
           .to_pandas().sort_values("i").reset_index(drop=True))
    before = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    want = before // 1000
    assert (got["seq_id"].to_numpy() == want).all()


def test_inverted_index_matches_duckdb_and_df_guards():
    import duckdb
    import ray.data as rd

    from folkscope_ray.ops.index import inverted_index

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 30))) + " CASE-Fold.42"
             for _ in range(200)]
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64), "text": texts})
    got = (inverted_index(rd.from_pandas(df).repartition(7), min_df=3)
           .to_pandas().sort_values("term").reset_index(drop=True))
    duckdb.register("docs", df)  # unregistered below: the default
    # connection is process-global and a lingering "docs" view shadows
    # other tests' replacement scans
    want = duckdb.sql("""
        WITH toks AS (
          SELECT doc_id,
                 unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
          FROM docs
        ), d AS (SELECT DISTINCT doc_id, term FROM toks WHERE term <> '')
        SELECT term, COUNT(*)::BIGINT AS df,
               string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
        FROM d GROUP BY term HAVING COUNT(*) >= 3 ORDER BY term
    """).df().reset_index(drop=True)
    assert got[["term", "df", "postings"]].equals(want)
    # case-folding + punctuation splitting: the suffix token appears in all docs
    assert int(got.set_index("term").loc["fold", "df"]) == 200
    # max_df drops the stopword-grade terms (here: every term in >150 docs)
    capped = (inverted_index(rd.from_pandas(df), min_df=3, max_df=150)
              .to_pandas())
    assert (capped["df"] <= 150).all()
    assert set(capped["term"]) == set(got[got["df"] <= 150]["term"])
    # partition invariance: same output at a different block count
    again = (inverted_index(rd.from_pandas(df).repartition(2), min_df=3)
             .to_pandas().sort_values("term").reset_index(drop=True))
    assert again[["term", "df", "postings"]].equals(got[["term", "df", "postings"]])
    duckdb.unregister("docs")


def test_ngram_contamination_planted():
    import ray.data as rd

    from folkscope_ray.ops.decontam import ngram_contamination

    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = [
        {"doc_id": 0, "text": bench_text},                       # the benchmark doc
        {"doc_id": 1, "text": bench_text + " extra tail words here"},  # mostly contaminated
        {"doc_id": 2, "text": "totally unrelated content " * 5},       # clean
        {"doc_id": 3, "text": "short doc"},                            # < n tokens
    ]
    docs = rd.from_pandas(pd.DataFrame(rows))
    bench = rd.from_pandas(pd.DataFrame([rows[0]]))
    out = (ngram_contamination(docs, bench, n=8, threshold=0.5)
           .to_pandas().set_index("doc_id").sort_index())
    assert out.loc[0, "contamination"] == 1.0 and bool(out.loc[0, "contaminated"])
    assert 0.0 < out.loc[1, "contamination"] < 1.0
    # doc 1 = bench 10 tokens + 4 extra: 7 of 7 8-grams... compute: 14 tokens -> 7 ngrams,
    # hits = positions 0..2 (windows fully inside the original 10 tokens) = 3
    assert out.loc[1, "n_ngrams"] == 7 and out.loc[1, "n_hits"] == 3
    assert out.loc[2, "contamination"] == 0.0 and not bool(out.loc[2, "contaminated"])
    assert out.loc[3, "n_ngrams"] == 0 and out.loc[3, "contamination"] == 0.0


def test_skew_join_matches_plain_join():
    import duckdb
    import ray.data as rd

    from folkscope_ray.ops.relational import skew_join

    rng = np.random.RandomState(9)
    # zipf-hot fact side: key 1 carries ~60% of rows
    keys = np.where(rng.rand(5000) < 0.6, 1, rng.randint(2, 200, 5000)).astype(np.int64)
    fact = pd.DataFrame({"k": keys, "v": np.arange(5000, dtype=np.int64)})
    dim = pd.DataFrame({"k": np.arange(0, 200, dtype=np.int64),
                        "attr": np.arange(0, 200, dtype=np.int64) * 10})
    got = (skew_join(rd.from_pandas(fact).repartition(8),
                     rd.from_pandas(dim).repartition(3), on="k", top_k=3)
           .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    duckdb.register("fact", fact); duckdb.register("dim", dim)
    want = duckdb.sql("""
        SELECT f.k, f.v, d.attr FROM fact f JOIN dim d USING (k)
        ORDER BY k, v
    """).df().reset_index(drop=True)
    assert len(got) == len(want)
    assert got[["k", "v", "attr"]].astype("int64").equals(want.astype("int64"))
    # explicit hot_keys path and empty-hot fallback agree
    exp = (skew_join(rd.from_pandas(fact), rd.from_pandas(dim), on="k",
                     hot_keys=[1]).to_pandas()
           .sort_values(["k", "v"]).reset_index(drop=True))
    assert exp[["k", "v", "attr"]].astype("int64").equals(want.astype("int64"))
    none_hot = (skew_join(rd.from_pandas(fact), rd.from_pandas(dim), on="k",
                          hot_keys=[]).to_pandas()
                .sort_values(["k", "v"]).reset_index(drop=True))
    assert none_hot[["k", "v", "attr"]].astype("int64").equals(want.astype("int64"))


def test_bm25_topk_partition_invariant_and_sane():
    import ray.data as rd

    from folkscope_ray.ops.index import bm25_topk

    rng = np.random.RandomState(21)
    vocab = ["merge", "hash", "scan", "table", "row", "agg", "fast", "slow"]
    texts = [" ".join(rng.choice(vocab, rng.randint(5, 60)))
             for _ in range(300)]
    texts[7] = "merge hash scan " * 10          # planted top hit
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64), "text": texts})
    outs = []
    for blocks in (1, 9):
        outs.append(bm25_topk(rd.from_pandas(df).repartition(blocks),
                              ["merge", "hash", "scan"], k=10))
    pd.testing.assert_frame_equal(outs[0], outs[1])  # bit-stable across blocks
    got = outs[0]
    assert got.loc[0, "doc_id"] == 7                 # planted doc ranks first
    assert (got["score"].to_numpy()[:-1] >= got["score"].to_numpy()[1:]).all()
    # absent query terms score zero everywhere
    z = bm25_topk(rd.from_pandas(df), ["zzzz"], k=5)
    assert (z["score"] == 0.0).all()
    # degenerate corpora: empty, and all-empty texts (avgdl would be 0) —
    # must return an empty typed frame, not raise ZeroDivisionError
    for degenerate in (df.head(0), pd.DataFrame(
            {"doc_id": np.arange(4, dtype=np.int64), "text": ["", "", "", ""]})):
        e = bm25_topk(rd.from_pandas(degenerate), ["merge"], k=5)
        assert len(e) == 0 and list(e.columns) == ["doc_id", "score"]


def test_component_size_distribution_planted():
    """The kg_components query shape (labels -> sizes -> distribution) on a
    graph with planted components of sizes 4, 3, 2."""
    import ray.data as rd

    from folkscope_ray.ops.components import connected_components
    from folkscope_ray.ops.relational import map_combine_aggregate

    edges = pd.DataFrame(
        {"a": ["a1", "a2", "a3", "b1", "b2", "c1"],
         "b": ["a2", "a3", "a4", "b2", "b3", "c2"]})
    labels = connected_components(rd.from_pandas(edges).repartition(3),
                                  a_col="a", b_col="b")
    sizes = map_combine_aggregate(labels.select_columns(["label"]),
                                  keys=["label"], count_alias="size")
    dist = (map_combine_aggregate(sizes.select_columns(["size"]),
                                  keys=["size"], count_alias="n_components")
            .to_pandas().sort_values("size").reset_index(drop=True))
    assert dist[["size", "n_components"]].astype(int).values.tolist() == [
        [2, 1], [3, 1], [4, 1]]


def test_stream_dedup_shared_index():
    """Cross-batch stateful dedup via the sharded mutable index: duplicates
    arriving in LATER micro-batches (or later Dataset executions) are
    dropped; exactly one representative per key survives overall."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from folkscope_ray.ops.stream import DedupIndex, dedup_stream_batch

    idx = DedupIndex(n_shards=4)
    rng = np.random.RandomState(3)
    all_keys = rng.randint(0, 400, 2000)  # heavy duplication
    kept_keys = []
    for start in range(0, 2000, 250):  # 8 arriving micro-batches
        chunk = all_keys[start:start + 250]
        batch = pa.table({"k": pa.array(chunk, pa.int64()),
                          "payload": pa.array(np.arange(len(chunk)))})
        out = dedup_stream_batch(idx, batch, "k")
        kept_keys.extend(out.column("k").to_pylist())
    assert sorted(kept_keys) == sorted(set(all_keys.tolist()))
    assert idx.total_keys() == len(set(all_keys.tolist()))
    # within-batch first-wins is deterministic
    b = pa.table({"k": pa.array([9999, 9999], pa.int64()),
                  "payload": pa.array([1, 2])})
    out = dedup_stream_batch(idx, b, "k")
    assert out.column("payload").to_pylist() == [1]
    # snapshot/restore round-trip: a NEW index resumes the seen-set
    snap = idx.snapshot()
    idx2 = DedupIndex(n_shards=4)
    idx2.restore(snap)
    again = dedup_stream_batch(
        idx2, pa.table({"k": pa.array(all_keys[:50], pa.int64()),
                        "payload": pa.array(np.arange(50))}), "k")
    assert again.num_rows == 0  # everything already seen pre-restart


def test_hash_join_broadcast_gate_equivalent(monkeypatch):
    """hash_join's data-tied broadcast escape (small right side) must agree
    with the partitioned shuffle plan (gate=0) for inner and left_outer —
    same rows, same dtypes, null-fill included."""
    import ray.data as rd

    from folkscope_ray.ops.relational import hash_join

    rng = np.random.RandomState(9)
    left = pd.DataFrame({"k": rng.randint(0, 50, 3000).astype("int64"),
                         "v": np.arange(3000, dtype="int64")})
    right = pd.DataFrame({"k": np.arange(0, 40, dtype="int64"),
                          "w": np.arange(40, dtype="int64") * 10})
    for how in ("inner", "left_outer"):
        outs = []
        for gate in (500_000, 0):
            monkeypatch.setattr(
                "folkscope_ray.ops.relational.JOIN_BROADCAST_MAX", gate)
            out = hash_join(rd.from_pandas(left, override_num_blocks=5),
                            rd.from_pandas(right, override_num_blocks=2),
                            on="k", how=how).to_pandas()
            cols = sorted(out.columns)
            outs.append(out[cols].sort_values(cols).reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1], check_dtype=False)
        want = left.merge(right, on="k",
                          how=("inner" if how == "inner" else "left"))
        cols = sorted(want.columns)
        want = want[cols].sort_values(cols).reset_index(drop=True)
        got = outs[0].astype({c: want[c].dtype for c in cols
                              if want[c].dtype != object})
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_md5_kernel_parity_with_reference_loop():
    """The buffer-walking digest kernel must match the per-row
    hashlib.md5(str(v).encode()) reference loop bit-for-bit on every key
    type the split/sample family uses: ints, strings (incl. empty,
    multi-byte utf-8), a chunked/sliced column, and the seed-prefixed
    form used by deterministic_shuffle / weighted_sample."""
    import pyarrow as pa

    from folkscope_ray.ops.split import _md5_digests, _md5_hex, md5_hex_array

    ints = pa.chunked_array([pa.array([0, 7, 123456789, -42], pa.int64()),
                             pa.array([2**62, 1], pa.int64())])
    strs = pa.array(["", "a", "héllo wörld", "x" * 500, "tab\tsep"],
                    pa.string())
    sliced = pa.array(list(range(100)), pa.int64()).slice(17, 50)
    large = pa.array(["aa", "bb"], pa.large_string())
    floats = pa.array([1.5, 0.1], pa.float64())  # non-int/string fallback
    for col, pref in [(ints, ""), (strs, ""), (sliced, ""), (large, ""),
                      (floats, ""), (ints, "42|"), (strs, "7|"),
                      (sliced, "42|")]:
        vals = (col.to_pylist() if not isinstance(col, pa.ChunkedArray)
                else col.to_pylist())
        want = _md5_hex([f"{pref}{v}" for v in vals])
        got = md5_hex_array(col, prefix=pref).to_pylist()
        assert got == want, (col.type, pref)
        # raw digests agree with the hex form
        dig = _md5_digests(col, prefix=pref)
        assert [bytes(d).hex() for d in dig] == want


def test_md5_kernel_speedup_is_real():
    """The kernel exists for speed: assert it beats the reference loop on a
    realistic block (guards against a regression that silently reverts to
    per-row Python)."""
    import time

    import numpy as np
    import pyarrow as pa

    from folkscope_ray.ops.split import _md5_hex, md5_hex_array

    col = pa.array(np.arange(200_000, dtype=np.int64), pa.int64())

    def run_new():
        t0 = time.perf_counter()
        md5_hex_array(col, prefix="42|")
        return time.perf_counter() - t0

    def run_ref():
        # the old path paid the to_pylist() too (md5_bucket_batch did
        # _md5_hex(batch.column(key).to_pylist()))
        t0 = time.perf_counter()
        _md5_hex([f"42|{v}" for v in col.to_pylist()])
        return time.perf_counter() - t0

    run_new(), run_ref()  # warm both
    # INTERLEAVE the trials so background load (e.g. the rest of the suite,
    # Ray workers) inflates both sides equally, and allow a small margin:
    # a true regression to the per-row path costs >= ~1.3x, well past 1.1.
    news, refs = [], []
    for _ in range(5):
        news.append(run_new())
        refs.append(run_ref())
    t_new, t_ref = sorted(news)[2], sorted(refs)[2]  # medians
    assert t_new < t_ref * 1.1, (t_new, t_ref)


def test_md5_kernel_rejects_nulls():
    """md5 of NULL is undefined; str(None) == 'None' would silently collide
    with the literal string key "None" (and the SQL oracle's md5(NULL) is
    NULL).  exact-dedup's add_content_hash inherits the fail-fast."""
    import pyarrow as pa
    import pytest as _pytest

    from folkscope_ray.ops.dedup import add_content_hash
    from folkscope_ray.ops.split import _md5_digests, md5_hex_array

    col = pa.array(["a", None, "b"], pa.string())
    with _pytest.raises(ValueError, match="null"):
        _md5_digests(col)
    with _pytest.raises(ValueError, match="null"):
        md5_hex_array(col)
    with _pytest.raises(ValueError, match="null"):
        add_content_hash(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                                   "text": col}), text_col="text")


def test_cap_per_key_matches_pandas_and_partitioning():
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.split import cap_per_key

    rng = np.random.RandomState(4)
    df = pd.DataFrame({
        "src": rng.choice(["a", "b", "c"], size=300),
        "id": rng.permutation(300).astype("int64"),
    })
    want = (df.sort_values("id").groupby("src", sort=False).head(4)
            .sort_values(["src", "id"]).reset_index(drop=True))
    for nblocks in (1, 11):
        got = (cap_per_key(rd.from_pandas(df).repartition(nblocks),
                           "src", 4, ["id"])
               .to_pandas().sort_values(["src", "id"])
               .reset_index(drop=True)[["src", "id"]])
        pd.testing.assert_frame_equal(got, want[["src", "id"]])


def test_distinct_count_by_key_exact():
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.relational import distinct_count_by_key

    rng = np.random.RandomState(8)
    df = pd.DataFrame({"k": rng.choice(["x", "y"], size=5000),
                       "v": rng.randint(0, 37, size=5000).astype("int64")})
    want = df.groupby("k")["v"].nunique()
    got = (distinct_count_by_key(rd.from_pandas(df).repartition(9), "k", "v",
                                 alias="n_users")
           .to_pandas().set_index("k")["n_users"])
    assert got.sort_index().tolist() == want.sort_index().tolist()


def test_zscore_outliers_by_key_matches_numpy_reference():
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.stats import zscore_outliers_by_key

    rng = np.random.RandomState(6)
    vals = np.concatenate([rng.normal(50, 5, 500), [500.0, -400.0]])
    df = pd.DataFrame({
        "key": ["g"] * 502,
        "val": vals,
        "rid": np.arange(502, dtype="int64"),
    })
    # lone-row key and zero-variance key emit nothing
    df = pd.concat([df, pd.DataFrame({"key": ["solo", "flat", "flat"],
                                      "val": [1.0, 2.0, 2.0],
                                      "rid": [900, 901, 902]})],
                   ignore_index=True)
    got = (zscore_outliers_by_key(rd.from_pandas(df).repartition(7),
                                  "key", "val", ["rid"], scale=100,
                                  z_threshold=3.0)
           .to_pandas().sort_values("rid").reset_index(drop=True))
    assert set(got["key"]) == {"g"}
    # numpy reference on the identical quantized ints
    q = np.round(df[df["key"] == "g"]["val"].to_numpy() * 100).astype(np.int64)
    s1, s2, n = q.sum(), (q * q).sum(), len(q)
    z = (q - s1 / n) / np.sqrt((s2 - s1 * s1 / n) / (n - 1.0))
    zmic = np.floor(z * 1e6 + 0.5).astype(np.int64)
    keep = np.abs(zmic) >= 3_000_000
    want_rids = df[df["key"] == "g"]["rid"].to_numpy()[keep]
    assert got["rid"].tolist() == sorted(want_rids.tolist())
    assert (got.set_index("rid")["z_micro"].to_numpy()
            == zmic[keep]).all()


def test_dup_gram_counts_planted_spans_and_multibyte():
    import duckdb
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.dedup import dup_gram_counts

    shared = "the quick brown fox jumps over the lazy dog again and again!"
    assert len(shared) >= 50
    docs = pd.DataFrame({
        "doc_id": pd.array([1, 2, 3, 4], dtype="int64"),
        "text": [
            "PREFIX " + shared + " SUFFIX-A",
            shared + " different tail here to pad it out",
            "completely unrelated content with no duplicated span at all..",
            # multibyte: identical 50+-char span with non-ASCII chars,
            # shared between docs 4 and 1? no — keep it unique
            "käse über straße " * 8,
        ],
    })
    got = (dup_gram_counts(rd.from_pandas(docs).repartition(3), gram_len=50)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()  # private connection: the global default one may
    con.register("docs", docs)  # carry a registered "docs" from other tests
    want = con.sql("""
        WITH s AS (
          SELECT doc_id, text, unnest(generate_series(1, len(text)-49)) AS i
          FROM docs WHERE len(text) >= 50
        ), g AS (SELECT doc_id, substr(text, i, 50) AS gram FROM s)
        SELECT a.doc_id, count(*)::BIGINT AS n_dup_grams FROM g a
        WHERE EXISTS (SELECT 1 FROM g b
                      WHERE b.gram = a.gram AND b.doc_id <> a.doc_id)
        GROUP BY a.doc_id ORDER BY a.doc_id
    """).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist() == [1, 2]
    assert got["n_dup_grams"].astype(int).tolist() \
        == want["n_dup_grams"].astype(int).tolist()
    # the shared 61-char span contributes 61-50+1 = 12 windows in each doc
    assert got["n_dup_grams"].min() >= 12


def test_dup_gram_counts_multibyte_shared_span_matches_sql():
    """Positions are CHARACTERS (utf-32 windows), so multibyte spans match
    SQL substr exactly."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.dedup import dup_gram_counts

    span = "über die straße läuft ein großer bär mit käse — ja wirklich!"
    docs = pd.DataFrame({
        "doc_id": pd.array([10, 20], dtype="int64"),
        "text": ["A " + span, span + " Z"],
    })
    got = (dup_gram_counts(rd.from_pandas(docs), gram_len=50)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("docs", docs)
    want = con.sql("""
        WITH s AS (
          SELECT doc_id, text, unnest(generate_series(1, len(text)-49)) AS i
          FROM docs WHERE len(text) >= 50
        ), g AS (SELECT doc_id, substr(text, i, 50) AS gram FROM s)
        SELECT a.doc_id, count(*)::BIGINT AS n_dup_grams FROM g a
        WHERE EXISTS (SELECT 1 FROM g b
                      WHERE b.gram = a.gram AND b.doc_id <> a.doc_id)
        GROUP BY a.doc_id ORDER BY a.doc_id
    """).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_dup_grams"].astype(int).tolist() \
        == want["n_dup_grams"].astype(int).tolist()


def test_table_diff_statuses_and_null_safety():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.relational import table_diff

    left = pd.DataFrame({
        "k": [1, 2, 3, 4, 5],
        "v": pd.array([10, 20, None, 40, 50], dtype="Int64"),
    })
    right = pd.DataFrame({
        # 1 unchanged, 2 changed, 3 null->value (changed), 4 value->null
        # (changed), 5 removed, 6 added
        "k": [1, 2, 3, 4, 6],
        "v": pd.array([10, 21, 30, None, 60], dtype="Int64"),
    })
    out = (table_diff(rd.from_pandas(left, override_num_blocks=2),
                      rd.from_pandas(right, override_num_blocks=2),
                      on="k", compare_cols=["v"])
           .to_pandas().sort_values("k").reset_index(drop=True))
    got = dict(zip(out["k"], out["status"]))
    assert got == {1: "unchanged", 2: "changed", 3: "changed",
                   4: "changed", 5: "removed", 6: "added"}


def test_except_distinct_matches_duckdb():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.relational import except_distinct

    rng = np.random.RandomState(27)
    l = pd.DataFrame({"a": rng.randint(0, 20, 300),
                      "b": rng.choice(["x", "y"], 300)})
    r = pd.DataFrame({"a": rng.randint(0, 20, 200),
                      "b": rng.choice(["x", "y"], 200)})
    # planted rows that can never appear in r: the difference is non-empty
    l = pd.concat([l, pd.DataFrame({"a": [99, 98], "b": ["z", "z"]})],
                  ignore_index=True)
    out = (except_distinct(rd.from_pandas(l, override_num_blocks=3),
                           rd.from_pandas(r, override_num_blocks=2),
                           cols=["a", "b"])
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("l", l); con.register("r", r)
    exp = con.execute(
        "SELECT a, b FROM l EXCEPT SELECT a, b FROM r ORDER BY a, b").df()
    con.close()
    assert out["a"].tolist() == exp["a"].tolist()
    assert out["b"].tolist() == exp["b"].tolist()


def test_union_by_name_alignment_and_type_conflict():
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from folkscope_ray.ops.relational import union_by_name

    a = rd.from_items([{"k": 1, "x": 1.5}, {"k": 2, "x": 2.5}])
    b = rd.from_items([{"k": 3, "y": "hi"}])
    out = union_by_name([a, b]).to_pandas().sort_values("k").reset_index(drop=True)
    assert list(out.columns) == ["k", "x", "y"]  # first-appearance order
    assert out["x"].isna().tolist() == [False, False, True]
    assert out["y"].isna().tolist() == [True, True, False]
    assert out["y"].iloc[2] == "hi"
    # same name, different type → loud failure, never a silent cast
    c = rd.from_items([{"k": 4, "x": "oops"}])
    with pytest.raises(TypeError):
        union_by_name([a, c])


def test_fk_violations_counts_and_clean_zero():
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.relational import fk_violations

    child = pd.DataFrame({"fk": [1, 1, 2, 3, 3, 3, 9]})
    parent = pd.DataFrame({"pk": [1, 2, 4]})
    out = fk_violations(rd.from_pandas(child, override_num_blocks=3), "fk",
                        rd.from_pandas(parent), "pk", "c->p").to_pandas()
    assert len(out) == 1
    assert out.n_orphan_rows.iloc[0] == 4   # three 3s + one 9
    assert out.n_orphan_keys.iloc[0] == 2   # {3, 9}
    clean = fk_violations(rd.from_pandas(parent.rename(columns={"pk": "fk"})),
                          "fk", rd.from_pandas(parent), "pk",
                          "p->p").to_pandas()
    assert clean.n_orphan_rows.iloc[0] == 0 and clean.n_orphan_keys.iloc[0] == 0


def test_topk_ties_keeps_all_tied_rows():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.split import topk_ties

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"id": np.arange(500),
                       "k": rng.integers(0, 5, 500).astype(str),
                       "v": rng.integers(0, 10, 500)})
    con = duckdb.connect(); con.register("t", df)
    exp = con.execute(
        "SELECT id, k, v, RANK() OVER (PARTITION BY k ORDER BY v DESC)"
        "::BIGINT AS rnk FROM t QUALIFY rnk <= 2 ORDER BY id").df()
    con.close()
    for nb in (1, 8):
        got = (topk_ties(rd.from_pandas(df, override_num_blocks=nb),
                         "k", "v", k=2)
               .to_pandas().sort_values("id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got.astype({"rnk": "int64"}), exp.astype({"v": got.v.dtype}))
    # ties can exceed k rows per key
    assert (got.groupby("k").size() > 2).any()


def test_explode_column_ordinality_and_empty_null_lists():
    import pyarrow as pa
    import ray.data as rd

    from folkscope_ray.ops.relational import explode_column

    t = pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "ls": pa.array([["a", "b"], [], None, ["x", "y", "z"]],
                       pa.list_(pa.string())),
    })
    out = (explode_column(rd.from_arrow(t), "ls", keep_cols=["id"])
           .to_pandas().sort_values(["id", "pos"]).reset_index(drop=True))
    assert out.id.tolist() == [1, 1, 4, 4, 4]   # empty + null emit nothing
    assert out.item.tolist() == ["a", "b", "x", "y", "z"]
    assert out.pos.tolist() == [1, 2, 1, 2, 3]  # 1-based per list
