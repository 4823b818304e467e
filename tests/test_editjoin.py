"""Fuzzy (edit-distance) self-join: signature completeness, the DP-free
k=1 verify, and the batched DP kernel."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from folkscope_ray.ops.editjoin import (
    _del1_hashes,
    batched_levenshtein,
    edit_distance_selfjoin,
)

EJ_GATE = "folkscope_ray.ops.editjoin.EDITJOIN_BROADCAST_MAX"


def _lev(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            cur = min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
            prev, dp[j] = dp[j], cur
    return dp[len(b)]


def test_batched_levenshtein_matches_scalar_dp():
    import random

    random.seed(5)
    strs = ["".join(random.choice("abcd!ü")
                    for _ in range(random.randint(0, 10)))
            for _ in range(120)]
    pairs = [(strs[random.randrange(120)], strs[random.randrange(120)])
             for _ in range(400)]
    got = batched_levenshtein([p[0] for p in pairs], [p[1] for p in pairs])
    want = np.array([_lev(a, b) for a, b in pairs])
    assert (got == want).all()


def test_del1_neighborhood_complete():
    import random

    random.seed(6)
    strs = ["".join(random.choice("xyz") for _ in range(random.randint(1, 7)))
            for _ in range(50)]
    for a in strs:
        for b in strs:
            if _lev(a, b) <= 1:
                assert set(_del1_hashes(a)) & set(_del1_hashes(b)), (a, b)


def test_edit_distance_selfjoin_matches_bruteforce():
    names = [
        "customer#001", "customer#002",   # substitution pair
        "customer#0012",                  # insertion vs #001
        "custmer#001",                    # deletion vs #001
        "wholly different",
        "wholly different",               # exact dup (dist 0)
        "übermäßig groß", "übermäßig gross",  # multibyte, dist 2 (excluded)
    ]
    df = pd.DataFrame({"rid": np.arange(len(names), dtype="int64"),
                       "name": names})
    want = sorted(
        (i, j, _lev(names[i], names[j]))
        for i in range(len(names)) for j in range(i + 1, len(names))
        if _lev(names[i], names[j]) <= 1)
    for nblocks in (1, 4):
        got = (edit_distance_selfjoin(
                   rd.from_pandas(df).repartition(nblocks),
                   text_col="name", id_col="rid", k=1)
               .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
        assert [tuple(r) for r in got.to_numpy()] == want


def test_del2_neighborhood_complete():
    import random

    random.seed(7)
    strs = ["".join(random.choice("pq") for _ in range(random.randint(2, 6)))
            for _ in range(40)]
    from folkscope_ray.ops.editjoin import _delk_hashes

    for a in strs:
        for b in strs:
            if _lev(a, b) <= 2:
                assert (set(_delk_hashes(a, 2))
                        & set(_delk_hashes(b, 2))), (a, b)


def test_edit_distance_selfjoin_k2_matches_bruteforce():
    import random

    random.seed(8)
    names = list({"".join(random.choice("abcß") for _ in range(random.randint(3, 9)))
                  for _ in range(60)})
    df = pd.DataFrame({"rid": np.arange(len(names), dtype="int64"),
                       "name": names})
    want = sorted(
        (i, j, _lev(names[i], names[j]))
        for i in range(len(names)) for j in range(i + 1, len(names))
        if _lev(names[i], names[j]) <= 2)
    got = (edit_distance_selfjoin(rd.from_pandas(df).repartition(3),
                                  text_col="name", id_col="rid", k=2)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert [tuple(r) for r in got.to_numpy()] == want


def test_edit_distance_selfjoin_forced_distributed_bit_identical(
        monkeypatch):
    """EDITJOIN_BROADCAST_MAX=0 forces the partitioned-join
    verify path; output must be bit-identical to the broadcast path."""
    import random

    random.seed(11)
    names = list({"".join(random.choice("abc") for _ in range(random.randint(3, 8)))
                  for _ in range(80)})
    names += [names[0], names[1], names[1]]  # exact dups exercise expansion
    df = pd.DataFrame({"rid": np.arange(len(names), dtype="int64"),
                       "name": names})
    ds = rd.from_pandas(df).repartition(4)
    base = (edit_distance_selfjoin(ds, text_col="name", id_col="rid", k=1)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    monkeypatch.setattr(EJ_GATE, 0)
    forced = (edit_distance_selfjoin(ds, text_col="name", id_col="rid", k=1)
              .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert base.equals(forced)
    want = sorted(
        (i, j, _lev(names[i], names[j]))
        for i in range(len(names)) for j in range(i + 1, len(names))
        if _lev(names[i], names[j]) <= 1)
    assert [tuple(r) for r in base.to_numpy()] == want


def test_edit_distance_selfjoin_forced_distributed_k2(monkeypatch):
    import random

    random.seed(12)
    names = list({"".join(random.choice("pq") for _ in range(random.randint(3, 7)))
                  for _ in range(30)})
    df = pd.DataFrame({"rid": np.arange(len(names), dtype="int64"),
                       "name": names})
    ds = rd.from_pandas(df).repartition(3)
    monkeypatch.setattr(EJ_GATE, 0)
    got = (edit_distance_selfjoin(ds, text_col="name", id_col="rid", k=2)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    want = sorted(
        (i, j, _lev(names[i], names[j]))
        for i in range(len(names)) for j in range(i + 1, len(names))
        if _lev(names[i], names[j]) <= 2)
    assert [tuple(r) for r in got.to_numpy()] == want


def test_hot_variant_candidates_bounded_by_distinct_strings():
    """The r4-flagged FastSS residual: one exact value in 40% of rows must
    NOT inflate candidate generation — pre-dedup collapses it to one rep,
    so candidate pairs are bounded by the distinct-string triangular."""
    import random

    from folkscope_ray.ops.editjoin import _fastss_candidates

    random.seed(13)
    distinct = list({"".join(random.choice("mn") for _ in range(4))
                     for _ in range(200)})
    hot = distinct[0]
    rows = [hot] * 120 + distinct  # hot value = 120/(120+D) of the corpus
    df = pd.DataFrame({"rid": np.arange(len(rows), dtype="int64"),
                       "name": rows})
    # candidate stage runs over reps only (distinct strings, min id each)
    reps = (df.groupby("name", as_index=False)
            .agg(rid=("rid", "min"))[["rid", "name"]])
    n_cand = _fastss_candidates(
        rd.from_pandas(reps.astype({"rid": "int64"})),
        "name", "rid", k=1).count()
    d = len(distinct)
    assert n_cand <= d * (d - 1) // 2
    # and the full operator still returns the complete (hot) answer:
    # 120 copies + the original produce C(121, 2) dist-0 pairs plus every
    # cross pair within distance 1 of the hot text
    got = (edit_distance_selfjoin(
               rd.from_pandas(df).repartition(4),
               text_col="name", id_col="rid", k=1)
           .to_pandas())
    want_n = sum(
        1 for i in range(len(rows)) for j in range(i + 1, len(rows))
        if _lev(rows[i], rows[j]) <= 1)
    assert len(got) == want_n
    assert (got["dist"] == 0).sum() == 121 * 120 // 2
