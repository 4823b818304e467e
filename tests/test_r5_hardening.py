"""Round-5 hardening: pins for the four r4 ADVICE findings.

1. ks_statistic overflow guard (stats.py) — n1*n2 >= 2^63 must raise, not
   silently wrap the int64 D numerator.
2. frequent_path_ngrams default_code validation (seq.py) — non-ASCII or
   multi-char defaults must raise up front, same contract as seq_match.
3. cohens_kappa / fleiss_kappa_binary pe == 1 — engine returns 1.0 and the
   committed oracle SQL must mirror the branch (no 0/0 NULL divergence).
4. tumbling_window / windowed_distinct floor-division — pre-1970
   (negative) timestamps land in the FLOOR(epoch/w) window, matching SQL.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


# ------------------------------------------------------ ks overflow guard

def test_ks_statistic_overflow_guard(monkeypatch):
    from folkscope_ray.ops import relational, stats

    big = int(np.sqrt(2 ** 63)) + 1  # big * big >= 2^63

    class FakeAgg:
        def to_pandas(self):
            return pd.DataFrame({"v": [0, 1],
                                 "c1": [big, 0], "c2": [0, big]})

    monkeypatch.setattr(relational, "map_combine_aggregate",
                        lambda *a, **k: FakeAgg())
    ds = rd.from_pandas(pd.DataFrame({"g": ["a", "b"], "v": [0, 1]}))
    with pytest.raises(ValueError, match="2\\^63"):
        stats.ks_statistic(ds, "g", "v", "a", "b")


def test_ks_statistic_small_unchanged():
    from folkscope_ray.ops.stats import ks_statistic

    ds = rd.from_pandas(pd.DataFrame({
        "g": ["a"] * 4 + ["b"] * 4,
        "v": [1, 2, 3, 4, 3, 4, 5, 6],
    }))
    out = ks_statistic(ds, "g", "v", "a", "b")
    # F_a - F_b maximal at v=2: |2*4 - 0*4| = 8, D = 8/16 = 0.5
    assert int(out["d_num"].iloc[0]) == 8
    assert out["ks"].iloc[0] == pytest.approx(0.5)


# ------------------------------------------------- default_code validation

def test_path_ngrams_rejects_bad_default_code():
    from folkscope_ray.ops.seq import frequent_path_ngrams

    ds = rd.from_pandas(pd.DataFrame({
        "k": [1, 1, 1], "t": [1, 2, 3], "c": ["a", "b", "a"]}))
    for bad in ("", "xy", "é"):
        with pytest.raises(ValueError, match="default_code"):
            frequent_path_ngrams(ds, "k", ["t"], "c",
                                 codes={"a": "A", "b": "B"}, n=2,
                                 min_support=1, default_code=bad)


def test_path_ngrams_default_code_applied():
    from folkscope_ray.ops.seq import frequent_path_ngrams

    # category "z" has no code -> default "x"; both keys share "Ax"
    ds = rd.from_pandas(pd.DataFrame({
        "k": [1, 1, 2, 2], "t": [1, 2, 1, 2],
        "c": ["a", "z", "a", "z"]}))
    out = frequent_path_ngrams(ds, "k", ["t"], "c", codes={"a": "A"},
                               n=2, min_support=2).to_pandas()
    assert out["gram"].tolist() == ["Ax"]
    assert out["n_keys"].tolist() == [2]


# --------------------------------------------------- kappa pe == 1 branch

def _kappa_oracle(name: str) -> str:
    import __ray_entry__ as E

    return E.oracle_sql()[name]


def test_cohens_kappa_degenerate_matches_oracle_branch(tmp_path):
    from folkscope_ray.ops.stats import cohens_kappa

    # all labels identical -> pe == 1; engine returns 1.0
    df = pd.DataFrame({"la": [1] * 8, "lb": [1] * 8})
    out = cohens_kappa(rd.from_pandas(df), "la", "lb")
    assert out["kappa"].iloc[0] == 1.0
    # the committed oracle's CASE WHEN pe=1 branch agrees (run the same
    # algebra on a degenerate contingency in DuckDB)
    con = duckdb.connect()
    row = con.execute("""
        WITH c AS (SELECT 8::BIGINT n, 0::BIGINT n00, 0::BIGINT n01,
                          0::BIGINT n10, 8::BIGINT n11)
        SELECT CASE WHEN (((n00 + n01) * (n00 + n10)
                          + (n10 + n11) * (n01 + n11)) / (n * n)) = 1
                    THEN 1.0
                    ELSE (((n00 + n11) / n)
                          - (((n00 + n01) * (n00 + n10)
                              + (n10 + n11) * (n01 + n11)) / (n * n)))
                         / (1 - (((n00 + n01) * (n00 + n10)
                                  + (n10 + n11) * (n01 + n11)) / (n * n)))
               END FROM c""").fetchone()
    assert row[0] == 1.0
    # and the registry SQL actually contains the branch
    assert "CASE WHEN" in _kappa_oracle("cohens_kappa_docs")


def test_fleiss_kappa_degenerate_is_one_and_oracle_has_branch():
    from folkscope_ray.ops.stats import fleiss_kappa_binary

    df = pd.DataFrame({"r1": [1] * 6, "r2": [1] * 6, "r3": [1] * 6})
    out = fleiss_kappa_binary(rd.from_pandas(df), ["r1", "r2", "r3"])
    assert out["kappa"].iloc[0] == 1.0
    assert "CASE WHEN" in _kappa_oracle("fleiss_kappa_docs")


# --------------------------------------- negative-timestamp window floors

def test_tumbling_window_negative_timestamps_floor():
    from folkscope_ray.ops.relational import tumbling_window

    # 1969-12-31 23:30:00 = -1800 s -> window floor(-1800/3600)*3600 = -3600
    ts = pd.to_datetime([-1800, -3600, 10, 3605], unit="s")
    df = pd.DataFrame({"ts": ts, "k": ["u"] * 4, "v": [1, 2, 3, 4]})
    out = (tumbling_window(rd.from_pandas(df), "ts", "k", "v", 3600)
           .to_pandas().sort_values("window_start").reset_index(drop=True))
    assert out["window_start"].tolist() == [-3600, 0, 3600]
    assert out["n_events"].tolist() == [2, 1, 1]
    # SQL oracle: FLOOR(epoch/3600)*3600 on the same rows
    con = duckdb.connect()
    con.register("e", df.assign(ts=df["ts"]))
    sql = con.execute("""
        SELECT (FLOOR(epoch(ts) / 3600) * 3600)::BIGINT w, count(*) n
        FROM e GROUP BY 1 ORDER BY 1""").df()
    assert sql["w"].tolist() == out["window_start"].tolist()
    assert sql["n"].tolist() == out["n_events"].tolist()


def test_windowed_distinct_negative_timestamps_floor():
    from folkscope_ray.ops.relational import windowed_distinct

    ts = pd.to_datetime([-1, -3600, 1, 3600], unit="s")
    df = pd.DataFrame({"ts": ts, "k": ["a", "b", "a", "a"]})
    out = (windowed_distinct(rd.from_pandas(df), "ts", "k", 3600)
           .to_pandas().sort_values("window_start").reset_index(drop=True))
    # -1 s and -3600 s both floor into window -3600 (distinct keys a, b)
    assert out["window_start"].tolist() == [-3600, 0, 3600]
    assert out["n_distinct"].tolist() == [2, 1, 1]


def test_positive_timestamp_windows_unchanged():
    from folkscope_ray.ops.relational import tumbling_window

    ts = pd.to_datetime([0, 1799, 1800, 3600], unit="s")
    df = pd.DataFrame({"ts": ts, "k": ["u"] * 4, "v": [1.0] * 4})
    out = (tumbling_window(rd.from_pandas(df), "ts", "k", "v", 1800)
           .to_pandas().sort_values("window_start").reset_index(drop=True))
    assert out["window_start"].tolist() == [0, 1800, 3600]
    assert out["n_events"].tolist() == [2, 1, 1]


def test_sliding_window_negative_timestamps_floor():
    from folkscope_ray.ops.relational import sliding_window

    # -1 s with window 4, slide 2: floor(-1/2)*2 = -2, so the event lands
    # in windows starting at -2 and -4 (fan = 2)
    ts = pd.to_datetime([-1, 3], unit="s")
    df = pd.DataFrame({"ts": ts, "k": ["u", "u"], "v": [1.0, 2.0]})
    out = (sliding_window(rd.from_pandas(df), "ts", "k", "v", 4, 2)
           .to_pandas().sort_values("window_start").reset_index(drop=True))
    assert out["window_start"].tolist() == [-4, -2, 0, 2]
    assert out["n_events"].tolist() == [1, 1, 1, 1]


def test_session_windows_chunked_path_negative_ts_bit_identical():
    from folkscope_ray.ops.relational import session_windows

    # events straddling 1970 with sub-second offsets: the truncating path
    # would put -1.5 s at secs=-1 in the chunked assign but secs=-2 in the
    # single-phase pandas path — both must floor identically
    ts = pd.to_datetime([-1_500_000, -500_000, 500_000, 10_000_000,
                         -7_200_000_000], unit="us")
    df = pd.DataFrame({"ts": ts, "k": ["u"] * 5,
                       "eid": np.arange(5, dtype="int64")})
    ds = rd.from_pandas(df).repartition(2)
    one = (session_windows(ds, "ts", "k", "eid", gap_s=5)
           .to_pandas().sort_values(["k", "session_id"])
           .reset_index(drop=True))
    two = (session_windows(ds, "ts", "k", "eid", gap_s=5, chunk_s=7)
           .to_pandas().sort_values(["k", "session_id"])
           .reset_index(drop=True))
    assert one.equals(two)
    # floor semantics: -1.5 s and -0.5 s both floor to secs -2/-1 and chain
    # with 0.5 s into one session
    assert one["start_epoch"].min() == -7200


def test_pair_dists_k2_clamps_to_sentinel():
    from folkscope_ray.ops.editjoin import _char_matrix, _pair_dists

    a, b = ["abcd", "abcd"], ["wxyz", "abcd"]
    W = 4
    A, la = _char_matrix(a, W)
    B, lb = _char_matrix(b, W)
    d = _pair_dists(A, la, B, lb, k=2)
    assert d.tolist() == [3, 0]  # true distance 4 clamps to k+1 = 3


# ------------------------------------------- second review-pass fixes (r5)

def test_quantiles_by_key_float_rank_edge_matches_duckdb():
    """25 rows, q=0.28: float 25*0.28 == 7.000000000000001 would skip the
    exact rank-7 element; the Fraction rank must not."""
    from folkscope_ray.ops.split import quantiles_by_key

    df = pd.DataFrame({"k": ["a"] * 25,
                       "v": np.arange(1, 26, dtype="int64")})
    out = quantiles_by_key(rd.from_pandas(df), "k", "v", [0.28])
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        "SELECT quantile_disc(v, 0.28) FROM t").fetchone()[0]
    assert int(out["value"].iloc[0]) == int(want) == 7


def test_profile_table_keeps_all_null_column():
    from folkscope_ray.ops.stats import profile_table

    df = pd.DataFrame({"a": [1.0, 2.0, 3.0],
                       "b": [np.nan, np.nan, np.nan]})
    out = profile_table(rd.from_pandas(df), ["a", "b"]).to_pandas()
    assert set(out["col"]) == {"a", "b"}
    row = out[out["col"] == "b"].iloc[0]
    assert row["n"] == 3 and row["n_null"] == 3 and row["n_distinct"] == 0


def test_path_ngrams_rejects_wide_n_and_types_empty_as_string():
    from folkscope_ray.ops.seq import frequent_path_ngrams

    ds = rd.from_pandas(pd.DataFrame({
        "k": [1, 2, 3], "t": [1, 1, 1], "c": ["a", "a", "a"]}))
    with pytest.raises(ValueError, match="\\[1, 8\\]"):
        frequent_path_ngrams(ds, "k", ["t"], "c", codes={"a": "A"}, n=9,
                             min_support=1)
    # every key's path is shorter than n -> empty result without a
    # mixed-schema crash (the empty bucket body is dtype-pinned to string)
    out = frequent_path_ngrams(ds, "k", ["t"], "c", codes={"a": "A"},
                               n=3, min_support=1)
    assert len(out.to_pandas()) == 0
    # mixed buckets: many single-event keys (short paths, n=2) alongside
    # keys with real grams — short buckets must coexist with gram buckets
    n_short, n_real = 40, 3
    df = pd.DataFrame({
        "k": (list(range(n_short))
              + [100 + i for i in range(n_real) for _ in range(3)]),
        "t": ([1] * n_short + [1, 2, 3] * n_real),
        "c": (["a"] * n_short + ["a", "b", "a"] * n_real)})
    got = frequent_path_ngrams(
        rd.from_pandas(df).repartition(4), "k", ["t"], "c",
        codes={"a": "A", "b": "B"}, n=2, min_support=2).to_pandas()
    assert (got.set_index("gram")["n_keys"].to_dict()
            == {"AB": n_real, "BA": n_real})


def test_bernoulli_sample_int32_rate_column():
    from folkscope_ray.ops.split import bernoulli_sample

    df = pd.DataFrame({"doc_id": np.arange(400, dtype="int64"),
                       "rate_ppm": np.full(400, 500_000, dtype="int32")})
    out = bernoulli_sample(rd.from_pandas(df), "doc_id", "rate_ppm")
    n = out.count()
    assert 100 < n < 300  # ~50% acceptance


def test_weighted_avg_zero_weight_key_is_null():
    from folkscope_ray.ops.stats import weighted_avg_by_key

    df = pd.DataFrame({"k": ["z", "z", "p"], "v": [5, 7, 3],
                       "w": [0, 0, 2]})
    out = (weighted_avg_by_key(rd.from_pandas(df), "k", "v", "w")
           .to_pandas().set_index("k"))
    assert pd.isna(out.loc["z", "wavg"])
    assert out.loc["p", "wavg"] == 3.0


def test_sample_per_key_schema_has_no_internal_columns():
    from folkscope_ray.ops.split import sample_per_key

    df = pd.DataFrame({"k": ["a"] * 6 + ["b"] * 6,
                       "i": np.arange(12, dtype="int64"),
                       "x": np.arange(12, dtype="int64") * 10})
    out = sample_per_key(rd.from_pandas(df), "k", "i", 2, keep_cols=["x"])
    assert sorted(out.schema().names) == ["i", "k", "x"]
    assert out.count() == 4


def test_target_encode_empty_input():
    from folkscope_ray.ops.encode import target_encode

    df = pd.DataFrame({"k": pd.Series([], dtype="string"),
                       "v": pd.array([], dtype="int64")})
    out = target_encode(rd.from_pandas(df), "k", "v").to_pandas()
    assert len(out) == 0


# --------------------------------------- join-family review fixes (r5)

def test_asof_join_single_side_buckets():
    """Buckets holding only one side's rows must not crash (KeyError on
    missing columns) — right-only buckets emit nothing, left-only buckets
    emit unmatched left rows."""
    from folkscope_ray.ops.relational import asof_join
    import ray.data as _rd

    left = pd.DataFrame({"k": ["a"], "ts": [10],
                         "payload": [7]}).astype({"ts": "int64"})
    right = pd.DataFrame({"k": [f"r{i}" for i in range(50)] + ["a"],
                          "ts": list(range(50)) + [5],
                          "price": list(range(51))}).astype({"ts": "int64"})
    out = asof_join(_rd.from_pandas(left), _rd.from_pandas(right),
                    key_col="k", on_col="ts", n_buckets=8,
                    right_cols=["price"]).to_pandas()
    assert len(out) == 1
    assert out["price_asof"].iloc[0] == 50  # right row (a, 5) is rank 50
    # left-only buckets: 30 left keys, right has just one key
    left2 = pd.DataFrame({"k": [f"l{i}" for i in range(30)],
                          "ts": np.arange(30, dtype="int64")})
    right2 = pd.DataFrame({"k": ["l0"], "ts": [0],
                           "price": [99]}).astype({"ts": "int64"})
    out2 = asof_join(_rd.from_pandas(left2), _rd.from_pandas(right2),
                     key_col="k", on_col="ts", n_buckets=8,
                     right_cols=["price"]).to_pandas()
    assert len(out2) == 30
    assert out2.loc[out2["k"] == "l0", "price_asof"].iloc[0] == 99
    assert out2.loc[out2["k"] != "l0", "price_asof"].isna().all()


def test_hash_join_left_alias_beyond_gate(monkeypatch):
    """how='left' must work identically under and beyond the broadcast
    gate (the native Dataset.join path rejects the pandas alias)."""
    from folkscope_ray.ops.relational import hash_join
    import ray.data as _rd

    left = _rd.from_pandas(pd.DataFrame({"k": [1, 2, 3],
                                         "x": [10, 20, 30]}))
    right = _rd.from_pandas(pd.DataFrame({"k": [2, 3, 4],
                                          "y": [200, 300, 400]}))
    under = (hash_join(left, right, on="k", how="left")
             .to_pandas().sort_values("k").reset_index(drop=True))
    monkeypatch.setattr("folkscope_ray.ops.relational.JOIN_BROADCAST_MAX", 0)
    beyond = (hash_join(left, right, on="k", how="left")
              .to_pandas().sort_values("k").reset_index(drop=True))
    assert under["k"].tolist() == beyond["k"].tolist() == [1, 2, 3]
    for df in (under, beyond):
        assert pd.isna(df.loc[df["k"] == 1, "y"]).all()
        assert df.loc[df["k"] == 3, "y"].iloc[0] == 300


def test_interval_join_nullable_int_payload():
    from folkscope_ray.ops.interval import interval_join
    import ray.data as _rd

    left = pa.table({"g": pa.array([1, 1], pa.int64()),
                     "id": pa.array([1, 2], pa.int64()),
                     "s": pa.array([0, 10], pa.int64()),
                     "e": pa.array([5, 15], pa.int64()),
                     "extra": pa.array([1, None], pa.int64())})
    right = pa.table({"g": pa.array([1], pa.int64()),
                      "rid": pa.array([7], pa.int64()),
                      "rs": pa.array([3], pa.int64()),
                      "re": pa.array([4], pa.int64())})
    out = interval_join(_rd.from_arrow(left), _rd.from_arrow(right),
                        on="g", left_start="s", left_end="e",
                        right_start="rs", right_end="re").to_pandas()
    assert len(out) == 1 and out["id"].iloc[0] == 1


def test_rollup_cube_reject_int_keys():
    from folkscope_ray.ops.window import cube_counts, rollup_counts
    import ray.data as _rd

    ds = _rd.from_pandas(pd.DataFrame({"a": [1, 2], "b": [3, 4],
                                       "v": [10, 20]}))
    with pytest.raises(TypeError, match="sentinel requires string keys"):
        rollup_counts(ds, ["a", "b"], "v", "sv")
    with pytest.raises(TypeError, match="sentinel requires string keys"):
        cube_counts(ds, ["a", "b"], "v", "sv")


def test_hash_join_fallback_null_keys_sql_semantics(monkeypatch):
    """Null keys never match (Arrow/SQL semantics) on every hash_join
    path, the broadcast escape and (gate 0) Ray's native join; outer joins
    still emit the null-keyed rows unmatched."""
    from folkscope_ray.ops.relational import hash_join
    import ray.data as _rd

    left = pd.DataFrame({"k": pd.array([1, None, 2], dtype="Int64"),
                         "x": [10, 20, 30]})
    right = pd.DataFrame({"k": pd.array([1, None], dtype="Int64"),
                          "y": [100, 200]})
    for gate in (500_000, 0):
        monkeypatch.setattr(
            "folkscope_ray.ops.relational.JOIN_BROADCAST_MAX", gate)
        inner = hash_join(_rd.from_pandas(left), _rd.from_pandas(right),
                          on="k", how="inner").to_pandas()
        assert inner["x"].tolist() == [10], gate  # null != null
        louter = (hash_join(_rd.from_pandas(left), _rd.from_pandas(right),
                            on="k", how="left_outer")
                  .to_pandas().sort_values("x").reset_index(drop=True))
        assert len(louter) == 3, gate
        assert pd.isna(louter.loc[louter["x"] == 20, "y"]).all(), gate


# ---------------------------------- dedup/similarity review fixes (r5)

def test_minhash_perm_family_extends_beyond_128():
    from folkscope_ray.ops.dedup import doc_minhash, minhash_bands_batch

    sig = doc_minhash("the quick brown fox jumps over the lazy dog", 256)
    assert sig.shape == (256,)
    # first 128 coefficients unchanged (committed fixtures pin them)
    assert (sig[:128] == doc_minhash(
        "the quick brown fox jumps over the lazy dog", 128)).all()
    # bands * rows > 128 no longer reshape-crashes
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": ["some text with several tokens in it"]})
    out = minhash_bands_batch(t, bands=32, rows=8)
    assert out.num_rows == 32


def test_chunk_dedup_rejects_out_of_range_ids():
    from folkscope_ray.ops.dedup import chunk_dedup

    df = pd.DataFrame({"doc_id": np.array([1 << 43], dtype="int64"),
                       "text": ["hello world"]})
    with pytest.raises(Exception, match="2\\^43"):
        chunk_dedup(rd.from_pandas(df)).to_pandas()


def test_brute_force_topk_empty_corpus():
    from folkscope_ray.ops.similarity import brute_force_topk

    empty = rd.from_pandas(pd.DataFrame({
        "vec_id": pd.array([], dtype="int64"),
        "embedding": pd.Series([], dtype=object)}))
    q = np.ones((2, 4), dtype=np.float64)
    out = brute_force_topk(empty, q, k=3)
    assert len(out) == 0
    assert list(out.columns) == ["query_id", "vec_id", "cosine"]


def test_word_jaccard_nbsp_query_matches_doc():
    from folkscope_ray.ops.dedup import word_jaccard_vs_query

    text = "hello world token"
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1], "text": [text]}))
    out = word_jaccard_vs_query(ds, text).to_pandas()
    # doc identical to query must score exactly 1.0 (RE2 \S+ both sides)
    assert out["jaccard"].iloc[0] == 1.0


def test_brute_force_quantize_digits_zero_applies():
    from folkscope_ray.ops.similarity import BruteForceTopK

    q = np.array([[1.0, 0.0]])
    b = pa.table({"vec_id": pa.array([1, 2], pa.int64()),
                  "embedding": [[0.8, 0.6], [0.6, 0.8]]})
    out = BruteForceTopK(q, k=2, quantize_digits=0)(b).to_pandas()
    assert set(out["cosine"]) <= {0.0, 1.0}  # rounded to integers


# ------------------------------------ text/lm/sketch review fixes (r5)

def test_quality_batch_trailing_empty_doc_exact():
    from folkscope_ray.ops.text import quality_batch

    out = quality_batch(pa.table({"text": ["ab", ""]}))
    assert out.column("punct_ratio").to_pylist() == [0.0, 0.0]
    out2 = quality_batch(pa.table({"text": ["a!", "", "cd", ""]}))
    assert out2.column("punct_ratio").to_pylist() == [0.5, 0.0, 0.0, 0.0]


def test_term_stats_null_lang_not_misattributed():
    from folkscope_ray.ops.text import term_stats_partials

    out = term_stats_partials(pa.table({
        "text": ["hello world", "foo bar"],
        "lang": ["en", None]})).to_pandas()
    en_terms = set(out[out["lang"] == "en"]["term"])
    assert en_terms == {"hello", "world"}
    null_terms = set(out[out["lang"].isna()]["term"])
    assert null_terms == {"foo", "bar"}
    # all-null batch: no IndexError, null group carries the counts
    out2 = term_stats_partials(pa.table({
        "text": ["x y"], "lang": pa.array([None], pa.string())})).to_pandas()
    assert set(out2["term"]) == {"x", "y"} and out2["lang"].isna().all()


def test_dd_quantiles_exact_rank_boundary():
    from folkscope_ray.ops.sketch import dd_quantiles

    # float 0.29*100 rounds below 29; the Fraction rank must select the
    # 1000-bucket and stay inside the promised 1% relative error
    vals = [1.0] * 29 + [1000.0] * 72
    out = dd_quantiles(rd.from_pandas(pd.DataFrame({"v": vals})),
                       "v", [0.29], rel_err=0.01)
    assert abs(out["est"].iloc[0] - 1000.0) <= 0.01 * 1000.0


def test_vocab_coverage_empty_and_k_zero():
    from folkscope_ray.ops.lm import vocab_coverage

    empty = rd.from_pandas(pd.DataFrame({"text": pd.Series([], dtype=str)}))
    out = vocab_coverage(empty, ks=[10])
    assert out["covered"].tolist() == [0] and out["share"].tolist() == [0.0]
    ds = rd.from_pandas(pd.DataFrame({"text": ["a a b c"]}))
    out2 = vocab_coverage(ds, ks=[0, 2]).set_index("k")
    assert out2.loc[0, "covered"] == 0 and out2.loc[0, "share"] == 0.0
    assert out2.loc[2, "covered"] == 3  # top-2 types cover 3 of 4 tokens


def test_ndcg_rejects_fractional_grades():
    from folkscope_ray.ops.index import ndcg_at_k

    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2], "score": [0.9, 0.8], "rel": [0.5, 1.0]}))
    with pytest.raises(ValueError, match="integral"):
        ndcg_at_k(ds, k=2, id_col="doc_id", score_col="score",
                  rel_col="rel")


# --------------------------------------------- stage review fixes (r5)

def test_mine_patterns_matches_stats_pass_semantics():
    """mine_patterns (library API) must include grown sub-skeleton
    patterns, exactly like the pipeline's fused stats pass — not just the
    full skeletons."""
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True)
    from folkscope_ray.pipelines.kg import build_kg
    from folkscope_ray.stages.mine import mine_patterns
    from folkscope_ray.synth import corpus_path

    p = build_kg(corpus_path(200))
    want = {pt.key for pt in p.patterns()}
    parsed = p.parsed()
    got = {pt.key for pt in mine_patterns(parsed)}
    assert got == want


def test_train_classifier_data_fingerprint_blocks_stale_resume(tmp_path):
    from folkscope_ray.stages.finetune import train_classifier

    df1 = pd.DataFrame({"text": [f"tok{i} alpha beta" for i in range(40)],
                        "label": ["v" if i % 2 else "x" for i in range(40)]})
    run = str(tmp_path / "run")
    w1, h1 = train_classifier(rd.from_pandas(df1), dim=64, epochs=3,
                              run_dir=run)
    # same SIZE, different content: must NOT resume from df1's checkpoints
    df2 = df1.copy()
    df2.loc[0, "label"] = "v" if df2.loc[0, "label"] == "x" else "x"
    w2, h2 = train_classifier(rd.from_pandas(df2), dim=64, epochs=3,
                              run_dir=run)
    wf, _ = train_classifier(rd.from_pandas(df2), dim=64, epochs=3)
    assert (w2 == wf).all()  # fresh training on df2, not stale resume
    assert not (w1 == w2).all()  # one flipped label must move some weight


def test_train_classifier_resumes_past_stale_higher_epoch(tmp_path):
    from folkscope_ray.stages.finetune import train_classifier

    df = pd.DataFrame({"text": [f"tok{i} gamma" for i in range(30)],
                       "label": ["v" if i % 3 else "x" for i in range(30)]})
    run = str(tmp_path / "run")
    # old run with MORE epochs leaves checkpoint-0..9
    train_classifier(rd.from_pandas(df), dim=64, epochs=10, run_dir=run)
    # new config (epochs=5): its full run writes checkpoint-0..4 with the
    # new fp; a rerun must find the compatible checkpoint-4 below the
    # stale checkpoint-9 and do NO epoch work (bit-identical weights)
    w_a, _ = train_classifier(rd.from_pandas(df), dim=64, epochs=5,
                              run_dir=run)
    w_b, _ = train_classifier(rd.from_pandas(df), dim=64, epochs=5,
                              run_dir=run)
    assert (w_a == w_b).all()
    w_fresh, _ = train_classifier(rd.from_pandas(df), dim=64, epochs=5)
    assert (w_b == w_fresh).all()


def test_seed_rule_distinct_same_type_mentions():
    from folkscope_ray.stages.conceptualize import seed_rule_conceptualize

    out = seed_rule_conceptualize(["alice", "met", "bob"],
                                  ["PERSON", "O", "PERSON"])
    assert out == ["__PERSON__0", "met", "__PERSON__1"]


def test_canonicalize_unionfind_deep_chain_no_recursion():
    from folkscope_ray.stages.canonicalize import UnionFind

    uf = UnionFind()
    names = [f"n{i:06d}" for i in range(3000)]
    for a, b in zip(names, names[1:]):  # one long chain
        uf.union(a, b)
    assert uf.find(names[-1]) == names[0]


def test_anchored_subgraph_canonical_dedup():
    """gSpan graph-frequency semantics: a fragment embedded twice in one
    skeleton counts once, and isomorphic embeddings under different
    original vertex orders share ONE canonical key."""
    from folkscope_ray.patterns import enumerate_anchored_subgraphs

    verts = ("PRP", "DT", "VB", "NN", "NN", "NN")
    edges = ((0, "a", 1), (1, "a", 2), (2, "b", 5),
             (5, "compound", 3), (5, "compound", 4))
    out = enumerate_anchored_subgraphs(verts, edges, 3, 5, 6)
    # the {3,5} and {4,5} embeddings are isomorphic -> ONE fragment
    assert len(out) == 1
    assert len(set(out)) == len(out)
    # anchor slots stay positionally fixed in the canonical form
    assert out[0][0][:3] == ("PRP", "DT", "VB")


def test_slice_at_template_right_word_boundary():
    """The template's last token must end at a word boundary: "used
    forever" is no "used for" anchor, a later true occurrence is, and
    punctuation right after the prefix still ends the token."""
    from folkscope_ray.stages.parse import slice_at_template

    assert slice_at_template("usedFor", "they are both used forever") is None
    gen = "they are both used forever; they are both used for caching"
    assert slice_at_template("usedFor", gen) == \
        "they are both used for caching"
    assert slice_at_template("usedFor", "x they are both used for, data") == \
        "they are both used for, data"


def test_require_string_keys_accepts_schemaless_input():
    """A zero-block dataset has no schema: vacuously valid, no
    AttributeError."""
    from folkscope_ray.ops.window import _require_string_keys

    class NoSchema:
        def schema(self):
            return None

    _require_string_keys(NoSchema(), ["a"], "ALL", "rollup_counts")


def test_anchored_subgraphs_imports_are_used():
    """Every name the function imports is used in its body (a dead import
    hides which helper really does the canonicalization)."""
    import ast
    import inspect
    import textwrap

    from folkscope_ray.patterns import enumerate_anchored_subgraphs

    tree = ast.parse(textwrap.dedent(
        inspect.getsource(enumerate_anchored_subgraphs)))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= used, imported - used


def test_triple_partials_empty_block_keeps_schema(kg_200):
    """A 0-row eventualities block yields a typed empty partials table
    whose schema equals a non-empty block's, in rank and string lineage
    modes."""
    import pyarrow.compute as pc
    import ray

    from folkscope_ray.pipelines.kg import TRIPLE_EV_COLS, triple_partials_fn

    block = pa.concat_tables(ray.get(
        kg_200.eventualities().materialize().to_arrow_refs())
    ).select(TRIPLE_EV_COLS)
    lineage = kg_200._cache["lineage_sorted"]
    assert lineage is not None
    for lin_ref in (ray.put(lineage), None):
        fn = triple_partials_fn(lineage_ref=lin_ref)
        full = fn(block)
        empty = fn(block.slice(0, 0))
        assert full.num_rows > 0 and empty.num_rows == 0
        assert empty.schema == full.schema
        want = pa.int64() if lin_ref is not None else pa.string()
        assert empty.schema.field("lineage_p").type == want
        if lin_ref is not None:  # every lineage found its rank
            assert pc.min(full.column("lineage_p")).as_py() >= 0
