"""Unit tests for mutual_information, ks_statistic, twohop_distinct_counts,
split_leakage and dup_rate_by_key."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd


def test_mutual_information_independent_is_near_zero():
    from folkscope_ray.ops.stats import mutual_information

    # x and y independent uniform -> every cell term ~0
    n = 4000
    rng = np.random.default_rng(0)
    df = pd.DataFrame({"x": rng.integers(0, 4, n),
                       "y": rng.integers(0, 4, n)})
    out = mutual_information(rd.from_pandas(df).repartition(4), "x", "y")
    # total MI in microbits should be tiny relative to 1 bit = 1e6
    assert abs(out["mi_ub"].sum()) < 30_000


def test_mutual_information_deterministic_equals_entropy():
    from folkscope_ray.ops.stats import mutual_information

    # y = x exactly -> MI = H(X) = 2 bits for uniform 4 categories
    x = np.repeat(np.arange(4), 250)
    df = pd.DataFrame({"x": x, "y": x})
    out = mutual_information(rd.from_pandas(df), "x", "y")
    assert abs(out["mi_ub"].sum() - 2_000_000) < 10


def test_ks_statistic_identical_and_disjoint():
    from folkscope_ray.ops.stats import ks_statistic

    v = np.arange(100, dtype=np.int64)
    df = pd.DataFrame({
        "g": ["a"] * 100 + ["b"] * 100,
        "v": np.concatenate([v, v]),
    })
    out = ks_statistic(rd.from_pandas(df).repartition(3), "g", "v", "a", "b")
    assert out["d_num"].iloc[0] == 0 and out["ks"].iloc[0] == 0.0

    df2 = pd.DataFrame({
        "g": ["a"] * 50 + ["b"] * 80,
        "v": np.concatenate([np.arange(50), np.arange(1000, 1080)]),
    })
    out2 = ks_statistic(rd.from_pandas(df2), "g", "v", "a", "b")
    assert out2["ks"].iloc[0] == 1.0
    assert out2["n1"].iloc[0] == 50 and out2["n2"].iloc[0] == 80


def test_ks_statistic_matches_scipy_style_reference():
    from folkscope_ray.ops.stats import ks_statistic

    rng = np.random.default_rng(5)
    a = rng.integers(0, 50, 300)
    b = rng.integers(10, 60, 200)
    df = pd.DataFrame({"g": ["a"] * 300 + ["b"] * 200,
                       "v": np.concatenate([a, b]).astype(np.int64)})
    out = ks_statistic(rd.from_pandas(df).repartition(4), "g", "v", "a", "b")
    grid = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    assert out["ks"].iloc[0] == np.abs(fa - fb).max()


def test_twohop_strict_path_graph():
    from folkscope_ray.ops.graph import twohop_distinct_counts

    # path a-b-c-d: strict 2-hop(a)={c}, (b)={d}, (c)={a}, (d)={b}
    edges = rd.from_pandas(pd.DataFrame({"a": [1, 2, 3], "b": [2, 3, 4]}))
    out = (twohop_distinct_counts(edges).to_pandas()
           .set_index("node")["n_twohop"].sort_index())
    assert out.to_dict() == {1: 1, 2: 1, 3: 1, 4: 1}


def test_twohop_triangle_has_no_strict_twohop():
    from folkscope_ray.ops.graph import twohop_distinct_counts

    edges = rd.from_pandas(pd.DataFrame({"a": [1, 2, 1], "b": [2, 3, 3]}))
    out = twohop_distinct_counts(edges).to_pandas()
    assert len(out) == 0


def test_twohop_star_graph():
    from folkscope_ray.ops.graph import twohop_distinct_counts

    # star: hub 0 with leaves 1..4 -> each leaf sees 3 others; hub none
    edges = rd.from_pandas(pd.DataFrame({"a": [0, 0, 0, 0],
                                         "b": [1, 2, 3, 4]}))
    out = (twohop_distinct_counts(edges).to_pandas()
           .set_index("node")["n_twohop"].sort_index())
    assert out.to_dict() == {1: 3, 2: 3, 3: 3, 4: 3}


def test_split_leakage_finds_planted_cross_split_dup():
    from folkscope_ray.ops.split import hash_split_batch, split_leakage
    import pyarrow as pa

    # find two ids landing in different splits, give them identical text
    probe = pa.table({"id": pa.array(np.arange(200, dtype=np.int64))})
    sp = hash_split_batch(probe, "id").column("split").to_pylist()
    train_id = next(i for i, s in enumerate(sp) if s == "train")
    test_id = next(i for i, s in enumerate(sp) if s == "test")
    other = [i for i in range(200) if i not in (train_id, test_id)]

    df = pd.DataFrame({
        "id": np.array([train_id, test_id] + other, dtype=np.int64),
        "text": ["LEAK", "LEAK"] + [f"unique {i}" for i in other],
    })
    out = (split_leakage(rd.from_pandas(df).repartition(3),
                         id_col="id", text_col="text").to_pandas())
    assert len(out) == 1
    assert out["n_train"].iloc[0] == 1 and out["n_test"].iloc[0] == 1
    assert list(out.columns) == ["content_hash", "n_train", "n_val", "n_test"]


def test_dup_rate_by_key():
    from folkscope_ray.ops.dedup import dup_rate_by_key

    df = pd.DataFrame({
        "src": ["a"] * 4 + ["b"] * 5,
        "text": ["x", "x", "y", "z", "p", "q", "r", "s", "t"],
    })
    out = (dup_rate_by_key(rd.from_pandas(df).repartition(2), "src")
           .to_pandas().set_index("src"))
    assert out.loc["a", "n_docs"] == 4 and out.loc["a", "n_distinct"] == 3
    assert out.loc["a", "dup_ppm"] == 1_000_000 // 4
    assert out.loc["b", "dup_ppm"] == 0


def test_js_divergence_identical_zero_disjoint_one_bit():
    from folkscope_ray.ops.lm import js_divergence_by_key

    df = pd.DataFrame({
        "src": ["a"] * 3 + ["b"] * 3 + ["c"] * 2,
        "text": ["cat dog", "cat dog", "cat dog",
                 "cat dog", "cat dog", "cat dog",
                 "zebra yak", "zebra yak"],
    })
    out = js_divergence_by_key(rd.from_pandas(df).repartition(3), "src")
    out = out.set_index(["s1", "s2"])
    # identical distributions -> JS = 0
    assert out.loc[("a", "b"), "js_ub"] == 0
    # fully disjoint vocab -> no common tokens -> pair emits NOTHING on
    # either engine (inner-join semantics)
    assert ("a", "c") not in out.index and ("b", "c") not in out.index


def test_js_divergence_partition_invariant_and_known_value():
    from folkscope_ray.ops.lm import js_divergence_by_key

    df = pd.DataFrame({
        "src": ["a", "a", "b", "b"],
        "text": ["x x x y", "x y", "x y y y", "y y"],
    })
    a = js_divergence_by_key(rd.from_pandas(df), "src")
    b = js_divergence_by_key(rd.from_pandas(df).repartition(7), "src")
    pd.testing.assert_frame_equal(a, b)
    # p = (4/6 x, 2/6 y), q = (1/6 x, 5/6 y): compute reference microbits
    import numpy as np

    p = np.array([4 / 6, 2 / 6])
    q = np.array([1 / 6, 5 / 6])
    term = (0.5 * p * np.log2(2 * p / (p + q))
            + 0.5 * q * np.log2(2 * q / (p + q)))
    exp = int(np.floor(term * 1e6 + 0.5).astype(np.int64).sum())
    # all tokens common -> residues are floor(0.5*0*1e6+0.5) = 0
    assert a["js_ub"].iloc[0] == exp
    assert a["sc1"].iloc[0] == 6 and a["sc2"].iloc[0] == 6


def test_global_row_number_total_order_and_partition_invariance():
    from folkscope_ray.ops.relational import global_row_number

    rng = np.random.default_rng(21)
    df = pd.DataFrame({"id": np.arange(500, dtype=np.int64),
                       "v": rng.integers(0, 50, 500).astype(np.int64)})
    out = (global_row_number(rd.from_pandas(df).repartition(9),
                             ["v", "id"], descending=[True, False])
           .to_pandas().sort_values("rn").reset_index(drop=True))
    ref = df.sort_values(["v", "id"], ascending=[False, True],
                         kind="mergesort").reset_index(drop=True)
    assert out["rn"].tolist() == list(range(1, 501))
    assert out["id"].tolist() == ref["id"].tolist()
    # partition invariance
    out2 = (global_row_number(rd.from_pandas(df), ["v", "id"],
                              descending=[True, False])
            .to_pandas().sort_values("rn").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out2)


def test_trimmed_mean_forced_partitioned_join_bit_equal(monkeypatch):
    from folkscope_ray.ops.split import trimmed_mean_by_key

    rng = np.random.default_rng(13)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 400),
                       "v": rng.integers(0, 500, 400).astype(np.int64)})
    base = (trimmed_mean_by_key(rd.from_pandas(df).repartition(4),
                                "k", "v").to_pandas()
            .sort_values("k").reset_index(drop=True))
    monkeypatch.setattr("folkscope_ray.ops.relational.JOIN_BROADCAST_MAX", 0)
    forced = (trimmed_mean_by_key(rd.from_pandas(df).repartition(4),
                                  "k", "v").to_pandas()
              .sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        base[["k", "n_kept", "sum_v", "tmean"]],
        forced[["k", "n_kept", "sum_v", "tmean"]])


def test_quantile_normalize_mapping_properties():
    from folkscope_ray.ops.stats import quantile_normalize

    rng = np.random.default_rng(31)
    # source "hot" has systematically larger values; after normalization
    # each source's distribution equals the global one at its percentiles
    df = pd.DataFrame({
        "id": np.arange(300, dtype=np.int64),
        "src": ["cold"] * 150 + ["hot"] * 150,
        "v": np.concatenate([rng.integers(0, 100, 150),
                             rng.integers(200, 300, 150)]).astype(np.int64),
    })
    out = (quantile_normalize(rd.from_pandas(df).repartition(5),
                              "src", "v", "id", alias="nv")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert len(out) == 300
    # min of each source maps to the global minimum; max to global max
    gmin, gmax = df["v"].min(), df["v"].max()
    for s in ("cold", "hot"):
        sub = out[out["src"] == s]
        dd = df[df["src"] == s]
        assert sub.loc[sub["v"].idxmin(), "nv"] == gmin
        assert sub.loc[sub["v"].idxmax(), "nv"] == gmax
    # after normalization the two sources' sorted values are identical
    a = np.sort(out[out["src"] == "cold"]["nv"].to_numpy())
    b = np.sort(out[out["src"] == "hot"]["nv"].to_numpy())
    assert (a == b).all()


def test_quantile_normalize_singleton_source_maps_to_global_min():
    from folkscope_ray.ops.stats import quantile_normalize

    df = pd.DataFrame({"id": [1, 2, 3, 4],
                       "src": ["a", "a", "a", "lone"],
                       "v": [10, 20, 30, 999]})
    out = (quantile_normalize(rd.from_pandas(df), "src", "v", "id",
                              alias="nv").to_pandas().set_index("id"))
    assert out.loc[4, "nv"] == 10  # global rank 1 value


def _xjoin(left, right, **kw):
    from folkscope_ray.ops.decontam import jaccard_cross_join

    return jaccard_cross_join(
        rd.from_pandas(left).repartition(2), rd.from_pandas(right),
        id_col="id", text_col="text", **kw).to_pandas()


def test_jaccard_cross_join_exact_pairs_and_boundary():
    # L1={a,b,c}, R1={a,b,d}: inter 2, union 4 -> J = 1/2 (INCLUDED)
    # L2={x}, R1: inter 0 -> excluded; L2 vs R2={x,y}: J=1/2 included
    left = pd.DataFrame({"id": [1, 2], "text": ["a b c", "x"]})
    right = pd.DataFrame({"id": [10, 20], "text": ["a b d", "x y"]})
    out = _xjoin(left, right, t_num=1, t_den=2)
    got = {(r.left_id, r.right_id): (r.inter, r.uni)
           for r in out.itertuples()}
    assert got == {(1, 10): (2, 4), (2, 20): (1, 2)}


def test_jaccard_cross_join_gates(monkeypatch):
    import pytest as _pytest

    left = pd.DataFrame({"id": [1], "text": ["a b c"]})
    right = pd.DataFrame({"id": [2], "text": ["a b"]})
    monkeypatch.setattr("folkscope_ray.ops.setjoin.SETJOIN_BITMASK_MAX", 2)
    with _pytest.raises(ValueError, match="MinHash"):
        _xjoin(left, right)
    monkeypatch.undo()
    monkeypatch.setattr("folkscope_ray.ops.decontam.XJOIN_BROADCAST_MAX", 0)
    with _pytest.raises(ValueError, match="band join"):
        _xjoin(left, right)


def test_jaccard_cross_join_multiword_mask():
    # force W > 1: 70 distinct tokens -> 2 mask words
    toks = [f"t{i:02d}" for i in range(70)]
    left = pd.DataFrame({"id": [1], "text": [" ".join(toks)]})
    right = pd.DataFrame({"id": [2], "text": [" ".join(toks[:35])]})
    out = _xjoin(left, right, t_num=1, t_den=2)
    assert len(out) == 1
    assert out["inter"].iloc[0] == 35 and out["uni"].iloc[0] == 70


def test_asof_join_forward_direction():
    from folkscope_ray.ops.relational import asof_join

    left = pd.DataFrame({"k": [1, 1, 2], "t": [5, 11, 3]})
    right = pd.DataFrame({"k": [1, 1, 2], "t": [7, 12, 1], "v": [70, 120, 10]})
    out = (asof_join(rd.from_pandas(left), rd.from_pandas(right),
                     key_col="k", on_col="t", right_cols=["v"],
                     direction="forward").to_pandas()
           .sort_values(["k", "t"]).reset_index(drop=True))
    # k=1 t=5 -> next right t=7 (v 70); t=11 -> 12 (v 120);
    # k=2 t=3 -> no right at-or-after -> null
    assert out["t_asof"].tolist()[:2] == [7, 12]
    assert out["v_asof"].tolist()[:2] == [70, 120]
    assert pd.isna(out["t_asof"].iloc[2])


def test_intersect_distinct_composite():
    from folkscope_ray.ops.relational import intersect_distinct

    left = pd.DataFrame({"a": [1, 1, 2, 3], "b": ["x", "x", "y", "z"]})
    right = pd.DataFrame({"a": [1, 2, 9], "b": ["x", "q", "z"]})
    out = (intersect_distinct(rd.from_pandas(left).repartition(2),
                              rd.from_pandas(right), cols=["a", "b"])
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert out.to_dict("records") == [{"a": 1, "b": "x"}]


def test_mutual_information_empty_input():
    from folkscope_ray.ops.stats import mutual_information

    df = pd.DataFrame({"x": pd.array([], dtype="int64"),
                       "y": pd.array([], dtype="int64")})
    out = mutual_information(rd.from_pandas(df), "x", "y")
    assert len(out) == 0 and list(out.columns) == ["x", "n_x", "mi_ub"]


def test_chi2_independence_values():
    from folkscope_ray.ops.stats import chi2_independence

    # perfectly dependent 2x2 with equal margins: chi2 = n
    x = np.repeat([0, 1], 100)
    df = pd.DataFrame({"x": x, "y": x})
    out = chi2_independence(rd.from_pandas(df).repartition(3), "x", "y")
    assert out["chi2_micro"].sum() == 200 * 1_000_000
    # independence -> ~0
    rng = np.random.default_rng(2)
    df2 = pd.DataFrame({"x": rng.integers(0, 2, 4000),
                        "y": rng.integers(0, 2, 4000)})
    out2 = chi2_independence(rd.from_pandas(df2), "x", "y")
    assert out2["chi2_micro"].sum() < 4_000_000  # well under df=1 critical


def test_gini_coefficient_extremes():
    from folkscope_ray.ops.stats import gini_coefficient

    # perfectly equal totals -> gini 0
    df = pd.DataFrame({"k": np.arange(10), "v": [100] * 10})
    out = gini_coefficient(rd.from_pandas(df).repartition(3), "k", "v")
    assert out["gini"].iloc[0] == 0.0
    # one key holds everything -> gini -> (n-1)/n
    df2 = pd.DataFrame({"k": np.arange(10),
                        "v": [0] * 9 + [1000]})
    out2 = gini_coefficient(rd.from_pandas(df2), "k", "v")
    assert out2["gini"].iloc[0] == (2 * 10 * 1000) / (10 * 1000) - 11 / 10
    # reference formula on random data, layout-invariant
    rng = np.random.default_rng(4)
    df3 = pd.DataFrame({"k": np.arange(200),
                        "v": rng.integers(0, 1000, 200).astype(np.int64)})
    a = gini_coefficient(rd.from_pandas(df3), "k", "v")["gini"].iloc[0]
    b = gini_coefficient(rd.from_pandas(df3).repartition(7), "k",
                         "v")["gini"].iloc[0]
    v = np.sort(df3["v"].to_numpy())
    n = len(v)
    exp = (2 * int((np.arange(1, n + 1) * v).sum())) / (n * int(v.sum())) \
        - (n + 1) / n
    assert a == b == exp


def test_population_stability_identical_and_shifted():
    from folkscope_ray.ops.stats import population_stability

    rng = np.random.default_rng(8)
    base = rng.integers(0, 1000, 2000).astype(np.int64)
    ref = rd.from_pandas(pd.DataFrame({"v": base})).repartition(4)
    same = rd.from_pandas(pd.DataFrame({"v": base}))
    out = population_stability(ref, same, "v")
    # identical distributions -> PSI ~ 0 (smoothing keeps it tiny)
    assert out["psi_micro"].sum() < 1000
    assert len(out) == 10 and out["ref_n"].sum() == 2000
    # hard shift -> large PSI (rule of thumb: > 0.25 means drift)
    shifted = rd.from_pandas(pd.DataFrame({"v": base + 5000}))
    out2 = population_stability(ref, shifted, "v")
    assert out2["psi_micro"].sum() > 250_000
    # current mass all lands in the top bucket
    assert out2["cur_n"].iloc[9] == 2000


def test_grouping_sets_counts():
    from folkscope_ray.ops.window import grouping_sets_counts

    df = pd.DataFrame({"a": ["x", "x", "y"], "b": ["p", "q", "p"],
                       "v": [1, 2, 4]})
    out = (grouping_sets_counts(rd.from_pandas(df).repartition(2),
                                keys=["a", "b"],
                                sets=[("a",), ("b",), ()],
                                int_value_col="v", sum_alias="s")
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    recs = {(r.a, r.b): (r.s, r.n) for r in out.itertuples()}
    assert recs == {
        ("x", "ALL"): (3, 2), ("y", "ALL"): (4, 1),
        ("ALL", "p"): (5, 2), ("ALL", "q"): (2, 1),
        ("ALL", "ALL"): (7, 3),
    }
    import pytest as _pytest

    with _pytest.raises(ValueError, match="non-key"):
        grouping_sets_counts(rd.from_pandas(df), keys=["a"],
                             sets=[("b",)], int_value_col="v",
                             sum_alias="s")


def test_gap_cv_matches_reference():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "entry_for_test", "__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    out = (mod.queries()["gap_cv_users"]("/root/testdata/sf0.001")
           .to_pandas().set_index("user_id"))
    # reference: pandas per-user gap CV on the same data
    import pyarrow.parquet as pq

    ev = pq.read_table("/root/testdata/sf0.001/events.parquet").to_pandas()
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    g = (ev["ts"].astype("datetime64[us]").astype("int64")
         .groupby(ev["user_id"]).diff().dropna() // 1_000_000).astype(int)
    for uid, gg in g.groupby(ev["user_id"]):
        n, s1, s2 = len(gg), int(gg.sum()), int((gg * gg).sum())
        if n >= 2 and s1 > 0:
            exp = (n * s2 - s1 * s1) ** 0.5 / s1
            assert out.loc[uid, "cv"] == exp


def test_fleiss_kappa_binary_extremes():
    from folkscope_ray.ops.stats import fleiss_kappa_binary

    # perfect agreement (mixed marginals) -> kappa == 1
    df = pd.DataFrame({"r1": [1, 0, 1, 0], "r2": [1, 0, 1, 0],
                       "r3": [1, 0, 1, 0]})
    out = fleiss_kappa_binary(rd.from_pandas(df).repartition(2),
                              ["r1", "r2", "r3"])
    assert out["kappa"].iloc[0] == 1.0
    # independent coin raters -> near 0
    rng = np.random.default_rng(6)
    df2 = pd.DataFrame({c: rng.integers(0, 2, 3000)
                        for c in ("r1", "r2", "r3")})
    out2 = fleiss_kappa_binary(rd.from_pandas(df2), ["r1", "r2", "r3"])
    assert abs(out2["kappa"].iloc[0]) < 0.05
    import pytest as _pytest

    with _pytest.raises(ValueError):
        fleiss_kappa_binary(rd.from_pandas(df), ["r1"])


def test_grouping_sets_rejects_int_keys():
    from folkscope_ray.ops.window import grouping_sets_counts
    import pyarrow as pa
    import ray.data as _rd
    import pytest as _pytest

    t = pa.table({"k": pa.array([1, 2], pa.int64()),
                  "v": pa.array([1, 2], pa.int64())})
    with _pytest.raises(TypeError, match="string keys"):
        grouping_sets_counts(_rd.from_arrow(t), keys=["k"],
                             sets=[()], int_value_col="v", sum_alias="s")


def test_empty_input_guards():
    from folkscope_ray.ops.stats import (
        cohens_kappa,
        fleiss_kappa_binary,
        gini_coefficient,
        ks_statistic,
    )

    empty2 = pd.DataFrame({"a": pd.array([], dtype="int64"),
                           "b": pd.array([], dtype="int64")})
    assert cohens_kappa(rd.from_pandas(empty2), "a", "b")["n"].iloc[0] == 0
    e3 = pd.DataFrame({c: pd.array([], dtype="int64")
                       for c in ("r1", "r2", "r3")})
    assert fleiss_kappa_binary(rd.from_pandas(e3),
                               ["r1", "r2", "r3"])["n_items"].iloc[0] == 0
    ek = pd.DataFrame({"k": pd.array([], dtype="int64"),
                       "v": pd.array([], dtype="int64")})
    assert gini_coefficient(rd.from_pandas(ek), "k", "v")["gini"].iloc[0] == 0.0
    # ks with absent group labels
    df = pd.DataFrame({"g": ["z", "z"], "v": [1, 2]})
    out = ks_statistic(rd.from_pandas(df), "g", "v", "a", "b")
    assert out["ks"].iloc[0] == 0.0 and out["n1"].iloc[0] == 0


# ------------------------------------------------ max_degree hub cap (r5)

def _random_graph(seed: int, n_nodes: int, n_edges: int,
                  hub_frac: float = 0.0) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    if hub_frac:
        hot = rng.random(n_edges) < hub_frac
        a = np.where(hot, 0, a)  # node 0 becomes the hub
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    df = (pd.DataFrame({"a": lo, "b": hi})
          .query("a < b").drop_duplicates().reset_index(drop=True))
    return df.astype({"a": "int64", "b": "int64"})


def test_twohop_max_degree_noop_when_cap_does_not_bind():
    from folkscope_ray.ops.graph import twohop_distinct_counts

    df = _random_graph(21, 40, 120)
    edges = rd.from_pandas(df).repartition(3)
    base = (twohop_distinct_counts(edges).to_pandas()
            .sort_values("node").reset_index(drop=True))
    # max degree in this graph is far below 1000 -> bit-identical
    capped = (twohop_distinct_counts(edges, max_degree=1000).to_pandas()
              .sort_values("node").reset_index(drop=True))
    assert base.equals(capped)


def test_twohop_planted_hub_candidates_bounded():
    """One node in ~40% of edges: the capped wedge join's per-mid fan-out
    must be bounded by max_degree^2, and counts for nodes whose
    neighborhoods survive intact must be exact."""
    from folkscope_ray.ops.graph import twohop_distinct_counts
    from folkscope_ray.ops.relational import hash_join
    from folkscope_ray.ops.split import cap_per_key
    import pyarrow as pa

    df = _random_graph(22, 60, 400, hub_frac=0.4)
    deg = pd.concat([df["a"], df["b"]]).value_counts()
    assert deg.loc[0] > 20  # the hub really is hot
    cap = 8
    edges = rd.from_pandas(df).repartition(4)

    # reproduce the capped wedge stage and measure its fan-out directly
    und = pd.DataFrame({
        "s": np.concatenate([df["a"], df["b"]]),
        "d": np.concatenate([df["b"], df["a"]])}).astype("int64")
    adj = cap_per_key(rd.from_pandas(und), "s", cap,
                      order_cols=["d"]).materialize()
    left = adj.map_batches(
        lambda b: pa.table({"node": b.column("d"), "mid": b.column("s")}),
        batch_format="pyarrow")
    right = adj.map_batches(
        lambda b: pa.table({"mid": b.column("s"), "w": b.column("d")}),
        batch_format="pyarrow")
    n_wedges = hash_join(left, right, on="mid").count()
    n_nodes = int(und["s"].nunique())
    assert n_wedges <= n_nodes * cap * cap  # bounded BY CONSTRUCTION
    # uncapped wedge volume through the hub alone exceeds that bound's
    # hub share, i.e. the cap actually cut work
    assert int(deg.loc[0]) ** 2 > cap * cap

    out = (twohop_distinct_counts(edges, max_degree=cap).to_pandas()
           .set_index("node")["n_twohop"])
    # exact expectation on the capped adjacency: strict 2-hop over kept
    # neighbor lists minus FULL direct edges
    kept = (und.sort_values(["s", "d"], kind="mergesort")
            .groupby("s").head(cap))
    nbr = kept.groupby("s")["d"].agg(set).to_dict()
    direct = und.groupby("s")["d"].agg(set).to_dict()
    for node in set(und["s"]):
        two = set()
        for mid, mids in nbr.items():
            if node in mids:
                two |= mids
        two -= {node}
        two -= direct.get(node, set())
        want = len(two)
        got = int(out.get(node, 0))
        assert got == want, (node, got, want)


def test_triangle_count_max_degree_noop_and_caps():
    from folkscope_ray.ops.graph import triangle_count

    df = _random_graph(23, 30, 150)
    edges = rd.from_pandas(df).repartition(3)
    base = triangle_count(edges).column("triangles").to_pylist()[0]
    same = triangle_count(edges, max_degree=1000) \
        .column("triangles").to_pylist()[0]
    assert base == same
    # binding cap: deterministic undercount, never an overcount
    capped = triangle_count(edges, max_degree=2) \
        .column("triangles").to_pylist()[0]
    assert 0 <= capped <= base
    again = triangle_count(edges, max_degree=2) \
        .column("triangles").to_pylist()[0]
    assert capped == again
