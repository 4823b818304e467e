"""Web-scale path equivalence: the fully distributed canonicalization /
component / join-application paths must produce EXACTLY the output of the
driver-side paths they replace (VERDICT r1 tasks 2, 3, 6)."""

from __future__ import annotations

import pandas as pd
import pytest

from kg_expect import assert_triples_group_eventualities


def _surface_ds():
    import pyarrow as pa
    import ray.data as rd

    surfaces = [
        "JsonParser", "json_parser", "json-parser", "json_parser_impl",
        "DiskAllocator", "disk_allocator",
        "HttpClient", "http_client", "http_client2",
        "unrelated_thing", "another_module", "zeta_queue",
    ]
    return rd.from_arrow(
        pa.table({"surf_a": pa.array(surfaces[:6] * 2, pa.string()),
                  "surf_b": pa.array(surfaces[6:] * 2, pa.string())})
    )


def test_distributed_canonicalization_matches_driver_path():
    """The fully distributed labels path must give the same effective
    mapping as driver banding + union-find over the distinct norms."""
    import folkscope_ray.stages.canonicalize as cz

    surfaces = _surface_ds().to_pandas()
    norms = sorted({cz.normalize_surface(s) for col in ("surf_a", "surf_b")
                    for s in surfaces[col]})
    driver_map = cz.canonical_from_norms(norms)
    assert driver_map

    got = cz.build_canonical_labels(_surface_ds()).to_pandas()
    dist_map = dict(zip(got["norm"], got["canon"]))
    # effective mapping (identity implied where absent) must agree per norm
    for n, c in driver_map.items():
        assert dist_map.get(n, n) == c, n
    # and the distributed path introduces no extra merges
    for n, c in dist_map.items():
        assert driver_map.get(n, n) == c, n


def test_minhash_components_ds_matches_dict_wrapper():
    import ray.data as rd

    from folkscope_ray.ops.dedup import (
        minhash_lsh_components,
        minhash_lsh_components_ds,
    )

    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the woods tonight")
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base + " again"},
        {"doc_id": 2, "text": base.replace("quick", "slow")},
        {"doc_id": 3, "text": "completely different content about databases"},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    as_ds = minhash_lsh_components_ds(ds).to_pandas()
    as_dict = minhash_lsh_components(rd.from_pandas(pd.DataFrame(rows)))
    assert dict(zip(as_ds["doc_id"], as_ds["component"])) == as_dict
    assert as_dict[0] == as_dict[1] == as_dict[2] == 0
    assert as_dict[3] == 3


def test_kg_join_path_matches_broadcast(corpus_200, monkeypatch, tmp_path):
    """Forcing BOTH the distributed canonical map (DRIVER_BANDING_MAX=0) and
    the hash-join application (broadcast ceiling 0) must reproduce the
    broadcast path's triples and eventualities exactly."""
    import folkscope_ray.stages.canonicalize as cz
    from folkscope_ray.pipelines.kg import build_kg

    base = build_kg(corpus_200)
    want_t = base.triples().to_pandas()
    want_e = base.eventualities().to_pandas()

    monkeypatch.setattr(cz, "DRIVER_BANDING_MAX", 0)
    monkeypatch.setattr("folkscope_ray.pipelines.kg.CANON_BROADCAST_MAX", 0)
    forced = build_kg(corpus_200)
    got_t = forced.triples().to_pandas()
    got_e = forced.eventualities().to_pandas()

    key = ["subj", "pred", "obj"]
    want_t = want_t.sort_values(key).reset_index(drop=True)
    got_t = got_t.sort_values(key).reset_index(drop=True)
    assert len(want_t) == len(got_t)
    for col in ["subj", "pred", "obj", "support"]:
        assert want_t[col].tolist() == got_t[col].tolist(), col
    assert_triples_group_eventualities(forced)

    ekey = ["eid", "pair_key", "gen_idx"]
    cols = ["eid", "canon_a", "canon_b", "rel", "frequency"]
    want_e = want_e.sort_values(ekey).reset_index(drop=True)
    got_e = got_e.sort_values(ekey).reset_index(drop=True)
    assert len(want_e) == len(got_e)
    for col in cols:
        assert want_e[col].tolist() == got_e[col].tolist(), col


def test_bucket_count_invariance_and_scaling(corpus_200, monkeypatch):
    """Triple/eventuality outputs must not depend on the shuffle bucket
    count, and the bucket count must grow with estimated data size."""
    import folkscope_ray.pipelines.kg as kgmod

    base = kgmod.build_kg(corpus_200)
    want = base.eventualities_merged().to_pandas()
    nb_small = kgmod._bucket_count(1_000)
    nb_big = kgmod._bucket_count(50_000_000)
    assert nb_big > nb_small  # data-tied, not CPU-tied
    assert base._n_buckets() == kgmod._bucket_count(base.scored().count())

    monkeypatch.setattr(kgmod, "ROWS_PER_BUCKET", 50)  # force many buckets
    alt = kgmod.build_kg(corpus_200)
    got = alt.eventualities_merged().to_pandas()
    key = ["eid"]
    want = want.sort_values(key).reset_index(drop=True)
    got = got.sort_values(key).reset_index(drop=True)
    assert want["eid"].tolist() == got["eid"].tolist()
    assert want["frequency"].tolist() == got["frequency"].tolist()
    assert want["support"].tolist() == got["support"].tolist()


def test_cc_driver_and_distributed_paths_agree(monkeypatch):
    """connected_components: the bounded driver union-find fast path and the
    forced iterative min-label-propagation path must emit identical
    (node, label) tables — including transitive chains that span buckets."""
    import pyarrow as pa
    import ray.data as rd

    import folkscope_ray.ops.components as ccmod

    # chain 1-2-3-4 (transitive), star 10-{11,12}, pair 20-21, dup edge
    edges = pa.table({
        "a": pa.array([2, 3, 4, 10, 10, 20, 2], pa.int64()),
        "b": pa.array([1, 2, 3, 11, 12, 21, 1], pa.int64()),
    })
    want = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 12: 10, 20: 20, 21: 20}

    fast = ccmod.connected_components(rd.from_arrow(edges)).to_pandas()
    assert dict(zip(fast["node"], fast["label"])) == want

    monkeypatch.setattr(ccmod, "CC_DRIVER_EDGE_MAX", 0)
    dist = ccmod.connected_components(rd.from_arrow(edges)).to_pandas()
    assert dict(zip(dist["node"], dist["label"])) == want

    # string nodes exercise the hash-signature convergence check's str path
    sedges = pa.table({"a": pa.array(["b", "c"], pa.string()),
                       "b": pa.array(["a", "b"], pa.string())})
    sdist = ccmod.connected_components(rd.from_arrow(sedges)).to_pandas()
    assert dict(zip(sdist["node"], sdist["label"])) == {"a": "a", "b": "a", "c": "a"}


@pytest.fixture(scope="module")
def kg_200_overflow(corpus_200):
    """The 200-file KG built once with EVS_BROADCAST_MAX=0: the
    beyond-broadcast plan (distributed distinct-assertion aggregation,
    cluster-side parse of the distinct set, skeleton-level map-combine,
    nothing assertion-sized on the driver) and no eventualities memo, so
    eventualities come from the per-row PatternMatcher-over-parsed path.
    The gate is read only by the stats pass, which runs (and is cached)
    inside the patch; the two twins below share this one forced build."""
    from folkscope_ray.pipelines import kg as kgmod

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgmod, "EVS_BROADCAST_MAX", 0)
        forced = kgmod.build_kg(corpus_200)
        forced._full_evs_ref()
    return forced


def test_distributed_stats_pass_matches_driver_path(kg_200, kg_200_overflow):
    """EVS_BROADCAST_MAX=0 forces the beyond-broadcast stats path.
    Patterns and triples (every column) must be bit-equal to the
    driver-merge path."""
    want_p = sorted(p.key + f"#{p.support}" for p in kg_200.patterns())
    got_p = sorted(p.key + f"#{p.support}" for p in kg_200_overflow.patterns())
    assert want_p == got_p
    assert kg_200_overflow._full_evs_ref() is None  # overflow path really taken

    key = ["subj", "pred", "obj"]
    want_t = kg_200.triples().to_pandas().sort_values(key).reset_index(drop=True)
    got_t = (kg_200_overflow.triples().to_pandas()
             .sort_values(key).reset_index(drop=True))
    assert len(want_t) == len(got_t)
    assert list(want_t.columns) == list(got_t.columns)
    for col in want_t.columns:
        assert want_t[col].tolist() == got_t[col].tolist(), col


def test_event_memo_path_matches_per_row_path(kg_200, kg_200_overflow):
    """With EVS_BROADCAST_MAX=0 eventualities come from the per-row
    PatternMatcher-over-parsed path; the default distinct-level broadcast
    memo path must produce bit-equal merged eventualities (every payload
    column: words, pos, deps, skeleton, ners, mentions, frequency,
    support)."""
    assert kg_200._full_evs_ref() is not None  # memo path really taken
    assert kg_200_overflow._full_evs_ref() is None
    want = kg_200.eventualities_merged().to_pandas()
    got = kg_200_overflow.eventualities_merged().to_pandas()

    cols = sorted(want.columns)
    assert cols == sorted(got.columns)
    want = want.sort_values("eid").reset_index(drop=True)
    got = got.sort_values("eid").reset_index(drop=True)
    assert len(want) == len(got)
    for col in cols:
        a, b = want[col], got[col]
        if a.dtype == object:
            assert [str(x) for x in a] == [str(x) for x in b], col
        else:
            assert a.tolist() == b.tolist(), col
    assert_triples_group_eventualities(kg_200_overflow)


def test_lineage_rank_path_matches_string_path(corpus_200, monkeypatch):
    """LINEAGE_BROADCAST_MAX=0 forces the triple shuffle back to
    shipping full lineage STRINGS; the default int64-rank broadcast path
    (ranks assigned in lexicographic order, so min(rank) == min(string))
    must produce bit-equal triples on every column."""
    from folkscope_ray.pipelines.kg import build_kg

    rank = build_kg(corpus_200)
    want = rank.triples().to_pandas()
    rank.patterns()
    assert rank._cache.get("lineage_sorted") is not None  # rank mode taken

    monkeypatch.setattr("folkscope_ray.pipelines.kg.LINEAGE_BROADCAST_MAX", 0)
    forced = build_kg(corpus_200)
    forced.patterns()
    assert forced._cache.get("lineage_sorted") is None  # string-mode taken
    got = forced.triples().to_pandas()

    key = ["subj", "pred", "obj"]
    want = want.sort_values(key).reset_index(drop=True)
    got = got.sort_values(key).reset_index(drop=True)
    assert len(want) == len(got)
    assert list(want.columns) == list(got.columns)
    for col in want.columns:
        assert want[col].tolist() == got[col].tolist(), col
    assert_triples_group_eventualities(forced)


def test_composite_key_hash_join_paths_equivalent(monkeypatch):
    """Composite-key join must be identical on the broadcast-escape path
    and the forced-distributed (gate=0) path."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.relational import hash_join

    rng = np.random.RandomState(17)
    left = pd.DataFrame({
        "a": rng.randint(0, 30, 500),
        "b": rng.choice(["x", "y", "z"], 500),
        "i": np.arange(500, dtype=np.int64),
    })
    right = (left.groupby(["a", "b"], as_index=False)
             .agg(n=("i", "size")))

    def run():
        out = hash_join(
            rd.from_pandas(left, override_num_blocks=4),
            rd.from_pandas(right, override_num_blocks=3),
            on=["a", "b"]).to_pandas()
        return (out.sort_values(["i"]).reset_index(drop=True)
                [sorted(out.columns)])

    bcast = run()
    monkeypatch.setattr("folkscope_ray.ops.relational.JOIN_BROADCAST_MAX", 0)
    dist = run()
    pd.testing.assert_frame_equal(bcast, dist)
    exp = left.merge(right, on=["a", "b"]).sort_values("i") \
        .reset_index(drop=True)
    assert bcast["n"].tolist() == exp["n"].tolist()


def test_impute_and_minmax_broadcast_vs_partitioned_join(monkeypatch):
    """The new join-backed stats ops ride hash_join's data-tied broadcast
    escape; JOIN_BROADCAST_MAX=0 forces the partitioned join and
    the filled / normalized outputs must be bit-equal."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from folkscope_ray.ops.stats import impute_group_mean, minmax_normalize

    rng = np.random.default_rng(21)
    n = 3000
    df = pd.DataFrame({
        "i": np.arange(n),
        "k": rng.integers(0, 9, n).astype(str),
        "v": np.round(rng.uniform(1, 500, n), 2),
    })
    df.loc[df.index % 4 == 0, "v"] = None

    def run_both(fn):
        a = fn().to_pandas().sort_values("i").reset_index(drop=True)
        monkeypatch.setattr(
            "folkscope_ray.ops.relational.JOIN_BROADCAST_MAX", 0)
        b = fn().to_pandas().sort_values("i").reset_index(drop=True)
        monkeypatch.undo()
        return a, b

    a, b = run_both(lambda: impute_group_mean(
        rd.from_pandas(df, override_num_blocks=5), "k", "v"))
    assert a["v_filled"].to_numpy().tobytes() == \
        b["v_filled"].to_numpy().tobytes()

    dn = df.dropna(subset=["v"]).reset_index(drop=True)
    a, b = run_both(lambda: minmax_normalize(
        rd.from_pandas(dn, override_num_blocks=5), "k", "v"))
    assert a["v_norm"].to_numpy().tobytes() == \
        b["v_norm"].to_numpy().tobytes()
