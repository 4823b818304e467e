"""Set-similarity self-join (PPJoin-lite) + co-occurrence/triangle graph ops.

Oracles: brute-force Python over the same inputs (and, via the driver gate,
the DuckDB SQL in ``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TERM_RE = re.compile(r"[a-z0-9]+")
PPM = 1_000_000
SJ = "folkscope_ray.ops.setjoin."  # monkeypatch target prefix of the plan gates


# ------------------------------------------------------------ set-sim join

def _docs():
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


def _brute_pairs(t_ppm: int) -> dict[tuple[int, int], int]:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sets = {int(i): set(TERM_RE.findall(x.lower()))
            for i, x in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist())}
    out = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter * PPM >= t_ppm * union:
                out[(a, b)] = inter * PPM // union
    return out


@pytest.mark.parametrize("t_ppm", [900_000, 500_000])
def test_jaccard_selfjoin_matches_bruteforce(t_ppm):
    from folkscope_ray.ops.setjoin import jaccard_selfjoin

    got = jaccard_selfjoin(_docs(), threshold_ppm=t_ppm).to_pandas()
    want = _brute_pairs(t_ppm)
    assert len(want) > 0, "threshold leaves nothing to verify"
    got_map = {(int(a), int(b)): int(j)
               for a, b, j in zip(got["doc_a"], got["doc_b"],
                                  got["jaccard_ppm"])}
    assert got_map == want


def _canon(df):
    return (df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
            .astype("int64"))


def test_jaccard_selfjoin_distributed_paths_equal(monkeypatch):
    """All four plans — dense distinct-set all-pairs (default here: tiny
    vocab), bitmask verify (dense gated off), join verify (dense + bitmask
    gated off), and the fully-distributed prefix + unpruned join verify —
    must produce the identical pair set."""
    import folkscope_ray.ops.setjoin as sj
    from folkscope_ray.ops.setjoin import jaccard_selfjoin

    base = jaccard_selfjoin(_docs(), threshold_ppm=900_000).to_pandas()

    monkeypatch.setattr(sj, "SETJOIN_DENSE_SETS_MAX", 0)
    bitmask = jaccard_selfjoin(_docs(), threshold_ppm=900_000).to_pandas()
    pd.testing.assert_frame_equal(_canon(base), _canon(bitmask))

    monkeypatch.setattr(sj, "SETJOIN_BITMASK_MAX", 0)
    join_path = jaccard_selfjoin(_docs(), threshold_ppm=900_000).to_pandas()
    pd.testing.assert_frame_equal(_canon(base), _canon(join_path))

    monkeypatch.setattr(sj, "SETJOIN_BROADCAST_MAX", 0)
    monkeypatch.setattr(sj, "SETJOIN_VERIFY_MAX", 0)
    forced = jaccard_selfjoin(_docs(), threshold_ppm=900_000).to_pandas()
    pd.testing.assert_frame_equal(_canon(base), _canon(forced))

    # dense path with the broadcast expansion gated off (join expansion)
    monkeypatch.undo()
    monkeypatch.setattr(sj, "SETJOIN_VERIFY_MAX", 0)
    dense_join = jaccard_selfjoin(_docs(), threshold_ppm=900_000).to_pandas()
    pd.testing.assert_frame_equal(_canon(base), _canon(dense_join))


def test_jaccard_selfjoin_partition_invariant():
    from folkscope_ray.ops.setjoin import jaccard_selfjoin

    a = jaccard_selfjoin(_docs().repartition(1), threshold_ppm=900_000).to_pandas()
    b = jaccard_selfjoin(_docs().repartition(13), threshold_ppm=900_000).to_pandas()
    ka = sorted(zip(a["doc_a"], a["doc_b"], a["jaccard_ppm"]))
    kb = sorted(zip(b["doc_a"], b["doc_b"], b["jaccard_ppm"]))
    assert ka == kb


def _planted_corpus(n_terms: int, n_docs: int = 400, seed: int = 5):
    """Template-ish corpus over a vocabulary of exactly n_terms terms:
    clusters share a base set with small mutations, so near-identical pairs
    exist at high thresholds and the distinct-set count stays modest."""
    rng = np.random.RandomState(seed)
    vocab = np.array([f"t{i:04d}" for i in range(n_terms)])
    rows = []
    for d in range(n_docs):
        c = d % 20  # 20 clusters
        crng = np.random.RandomState(1000 + c)
        base_terms = vocab[crng.choice(n_terms, size=30, replace=False)]
        mut = np.random.RandomState(seed * 100_000 + d)
        keep = base_terms[mut.rand(len(base_terms)) > 0.03]
        extra = vocab[mut.choice(n_terms, size=mut.randint(0, 2),
                                 replace=False)]
        toks = sorted(set(keep) | set(extra))
        rows.append({"doc_id": d, "text": " ".join(toks)})
    return pd.DataFrame(rows)


@pytest.mark.parametrize("n_terms", [65, 256])
def test_jaccard_selfjoin_dense_plan_beyond_64_terms(n_terms, monkeypatch):
    """The W-word dense distinct-set plan (string-keyed masks) must equal
    both the bitmask-verify and join-verify plans, and brute force, on
    corpora whose vocabulary no longer fits one int64 (65..4096 terms)."""
    import ray.data as rd

    from folkscope_ray.ops.setjoin import jaccard_selfjoin

    df = _planted_corpus(n_terms)
    ds = lambda: rd.from_pandas(df).repartition(7)  # noqa: E731

    # brute force on the same tokenization
    sets = {int(r.doc_id): set(TERM_RE.findall(r.text.lower()))
            for r in df.itertuples()}
    want = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter * PPM >= 900_000 * union:
                want[(a, b)] = inter * PPM // union
    assert len(want) > 50, "planted corpus must produce near-dup pairs"

    dense = jaccard_selfjoin(ds(), threshold_ppm=900_000).to_pandas()
    got = {(int(a), int(b)): int(j) for a, b, j in
           zip(dense["doc_a"], dense["doc_b"], dense["jaccard_ppm"])}
    assert got == want

    # same corpus through the bitmask-verify plan (dense gated off) and the
    # join-verify plan (bitmask gated off too)
    monkeypatch.setattr(SJ + "SETJOIN_DENSE_SETS_MAX", 0)
    bm = jaccard_selfjoin(ds(), threshold_ppm=900_000).to_pandas()
    pd.testing.assert_frame_equal(_canon(dense), _canon(bm))
    monkeypatch.setattr(SJ + "SETJOIN_BITMASK_MAX", 0)
    jn = jaccard_selfjoin(ds(), threshold_ppm=900_000).to_pandas()
    pd.testing.assert_frame_equal(_canon(dense), _canon(jn))

    # dense plan with the broadcast expansion gated off (join expansion)
    monkeypatch.undo()
    monkeypatch.setattr(SJ + "SETJOIN_VERIFY_MAX", 0)
    dj = jaccard_selfjoin(ds(), threshold_ppm=900_000).to_pandas()
    pd.testing.assert_frame_equal(_canon(dense), _canon(dj))


# ------------------------------------------------- co-occurrence + triangles

def _lineitem():
    import ray.data as rd

    return rd.read_parquet(f"{SF}/lineitem.parquet",
                           columns=["l_orderkey", "l_partkey"])


def _brute_edges() -> dict[tuple[int, int], int]:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/lineitem.parquet",
                      columns=["l_orderkey", "l_partkey"]).to_pandas()
    out: dict[tuple[int, int], int] = {}
    for _, grp in t.groupby("l_orderkey"):
        items = sorted(set(grp["l_partkey"]))
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                out[(a, b)] = out.get((a, b), 0) + 1
    return out


def test_cooccurrence_edges_match_bruteforce():
    from folkscope_ray.ops.graph import cooccurrence_edges

    got = cooccurrence_edges(_lineitem(), "l_orderkey", "l_partkey").to_pandas()
    want = _brute_edges()
    assert len(want) > 100
    got_map = {(int(a), int(b)): int(n)
               for a, b, n in zip(got["a"], got["b"], got["n"])}
    assert got_map == want


def test_triangle_count_matches_bruteforce():
    from folkscope_ray.ops.graph import cooccurrence_edges, triangle_count

    edges = cooccurrence_edges(_lineitem(), "l_orderkey", "l_partkey")
    got = triangle_count(edges.select_columns(["a", "b"]))
    es = set(_brute_edges())
    adj: dict[int, set[int]] = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
    n = 0
    for a, b in es:
        n += len(adj.get(a, set()) & adj.get(b, set()))
    assert got.column("triangles").to_pylist() == [n]
    assert n > 0


def test_triangle_count_synthetic():
    """4-clique has exactly 4 triangles; a path has none."""
    import ray.data as rd

    from folkscope_ray.ops.graph import triangle_count

    clique = [{"a": i, "b": j} for i in range(4) for j in range(i + 1, 4)]
    assert triangle_count(
        rd.from_items(clique)).column("triangles").to_pylist() == [4]
    path = [{"a": i, "b": i + 1} for i in range(5)]
    assert triangle_count(
        rd.from_items(path)).column("triangles").to_pylist() == [0]


def test_triangle_count_rejects_out_of_range_ids():
    """Packed (a << 32 | b) keys require 0 <= id < 2^31 — same ValueError
    precondition jaccard_selfjoin enforces, instead of silent corruption."""
    import pytest
    import ray.data as rd

    from folkscope_ray.ops.graph import triangle_count

    big = [{"a": 1, "b": 1 << 31}, {"a": 1, "b": 2}, {"a": 2, "b": 1 << 31}]
    with pytest.raises(Exception, match="2\\^31"):
        triangle_count(rd.from_items(big))
    neg = [{"a": -1, "b": 2}, {"a": -1, "b": 3}, {"a": 2, "b": 3}]
    with pytest.raises(Exception, match="2\\^31"):
        triangle_count(rd.from_items(neg))


def test_dense_gate_scales_with_mask_width(monkeypatch):
    """SETJOIN_DENSE_SETS_MAX was tuned for W=1 int64 masks; the
    all-pairs compare costs n_sets^2 * W, so the effective set bound must
    shrink with 1/sqrt(W) to hold the tuned COMPUTE constant (the bytes
    gate bounds memory, not compute)."""
    import numpy as np
    import ray.data as rd

    from folkscope_ray.ops.setjoin import _dense_allpairs

    terms = np.array(sorted(f"t{i:04d}" for i in range(65)))  # W = 2
    df = pd.DataFrame({
        "doc_id": np.arange(8, dtype=np.int64),
        "toks": [" ".join(f"t{j:04d}" for j in range(i, i + 4))
                 for i in range(8)],  # 8 distinct token sets
    })
    ds = rd.from_pandas(df)

    # raw gate admits 8 sets, but the W-scaled bound int(11 / sqrt(2)) = 7
    # rejects them -> fall back (None)
    monkeypatch.setattr(SJ + "SETJOIN_DENSE_SETS_MAX", 11)
    assert _dense_allpairs(ds, terms, "doc_id", 900_000) is None
    # the scaled bound admits them at 12: int(12 / sqrt(2)) = 8
    monkeypatch.setattr(SJ + "SETJOIN_DENSE_SETS_MAX", 12)
    assert _dense_allpairs(ds, terms, "doc_id", 900_000) is not None
