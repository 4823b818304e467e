"""Corpus text statistics (bigram combiner, repetition ratio) and the
Bloom-prefiltered exact semi-join."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from folkscope_ray.ops.bloom import _positions, bloom_semi_join, build_bloom
from folkscope_ray.ops.text import bigram_partials, repetition_batch


def test_bigram_partials_counts():
    b = pa.table({
        "lang": ["en", "en", "de"],
        "text": ["the cat sat", "the cat ran", "der Hund"],
    })
    out = bigram_partials(b).to_pandas()
    c = dict(zip(zip(out["lang"], out["bigram"]), out["n"]))
    assert c[("en", "the cat")] == 2
    assert c[("en", "cat sat")] == 1
    assert c[("de", "der hund")] == 1
    # single-token and empty docs emit nothing
    empty = bigram_partials(pa.table({"lang": ["en"], "text": ["word"]}))
    assert empty.num_rows == 0


def test_repetition_batch():
    b = pa.table({"doc_id": [1, 2, 3],
                  "text": ["a\na\na", "x\ny\nz", ""]})
    out = repetition_batch(b).to_pandas()
    assert out["n_lines"].tolist() == [3, 3, 1]
    assert out["n_distinct_lines"].tolist() == [1, 3, 1]
    assert out["rep_ratio"].tolist() == [1.0 - 1 / 3, 0.0, 0.0]


def test_bloom_no_false_negatives():
    keys = np.arange(0, 100_000, 7, dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame({"k": keys}), override_num_blocks=5)
    bits = build_bloom(ds, "k", m_bits=1 << 18, k=3)
    pos = _positions(keys, 1 << 18, 3)
    for i in range(3):
        byte = bits[(pos[i] // 8).astype(np.int64)]
        assert ((byte >> (pos[i] % 8).astype(np.uint8)) & 1).all()


def test_bloom_semi_join_exact(monkeypatch):
    """Both data-tied plans — broadcast exact set (right under the gate) and
    Bloom-prefilter + partitioned left_semi (gate forced to 0) — must produce
    the identical exact semi-join."""
    rng = np.random.RandomState(3)
    large = pd.DataFrame({"k": rng.randint(0, 1000, 5000).astype(np.int64),
                          "v": np.arange(5000, dtype=np.int64)})
    member = pd.DataFrame({"rk": np.arange(0, 1000, 13, dtype=np.int64)})
    exp = (large[large["k"].isin(set(member["rk"]))]
           .sort_values("v").reset_index(drop=True))
    for gate in (2_000_000, 0):
        monkeypatch.setattr("folkscope_ray.ops.bloom.SEMI_BROADCAST_MAX", gate)
        out = bloom_semi_join(
            rd.from_pandas(large, override_num_blocks=6),
            rd.from_pandas(member, override_num_blocks=2),
            on="k", right_key="rk",
            m_bits=1 << 12, k=2,  # deliberately small bitmap: force false
                                  # positives so the exact verify pass matters
        ).to_pandas().sort_values("v").reset_index(drop=True)
        assert (out["v"].to_numpy() == exp["v"].to_numpy()).all(), gate
        assert (out["k"].to_numpy() == exp["k"].to_numpy()).all(), gate


def test_bloom_prefilter_reduces_stream():
    """The bitmap must actually prune: with a selective member set, the
    prefiltered survivor count sits near the true match count, far below
    the input size."""
    rng = np.random.RandomState(4)
    large = pd.DataFrame({"k": rng.randint(0, 100_000, 20_000).astype(np.int64)})
    member = pd.DataFrame({"k": np.arange(0, 100_000, 97, dtype=np.int64)})
    from folkscope_ray.ops.bloom import _positions as _p  # noqa: F401

    bits = build_bloom(rd.from_pandas(member), "k", m_bits=1 << 20, k=3)
    keys = large["k"].to_numpy()
    pos = _positions(keys, 1 << 20, 3)
    hit = np.ones(len(keys), dtype=bool)
    for i in range(3):
        byte = bits[(pos[i] // 8).astype(np.int64)]
        hit &= ((byte >> (pos[i] % 8).astype(np.uint8)) & 1).astype(bool)
    true_matches = large["k"].isin(set(member["k"])).sum()
    assert hit.sum() < true_matches * 1.5 + 50  # tight prefilter
    assert hit.sum() >= true_matches            # no false negatives


def test_entropy_batch_known_values():
    from folkscope_ray.ops.text import entropy_batch

    b = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": ["a b a b",          # H = 1 bit
                 "aaa",              # single token, H = 0
                 "",                 # no tokens -> no row
                 "w x y z",          # uniform 4 -> 2 bits
                 "a a a b"],         # H(3/4,1/4) = 0.8113 bits
    })
    out = entropy_batch(b).to_pandas().set_index("doc_id")
    assert 3 not in out.index
    assert out.loc[1, "entropy_mb"] == 1000
    assert out.loc[1, "n_tokens"] == 4 and out.loc[1, "n_distinct"] == 2
    assert out.loc[2, "entropy_mb"] == 0
    assert out.loc[4, "entropy_mb"] == 2000
    # per-term millibit quantization: 3*floor(-(3/4)log2(3/4)*1000+.5)/... ->
    # 311*... recompute exactly like the kernel does
    import math
    t1 = math.floor(-(3 / 4) * math.log2(3 / 4) * 1000.0 + 0.5)
    t2 = math.floor(-(1 / 4) * math.log2(1 / 4) * 1000.0 + 0.5)
    assert out.loc[5, "entropy_mb"] == t1 + t2


def test_entropy_batch_order_and_block_invariance():
    """Per-term quantize-then-int-sum => identical output regardless of row
    order or block boundaries (the cross-parallelism determinism contract)."""
    from folkscope_ray.ops.text import entropy_batch

    rng = np.random.RandomState(7)
    vocab = ["alpha", "beta", "gamma", "delta", "x1", "y2"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 30)))
             for _ in range(40)]
    b = pa.table({"doc_id": pa.array(np.arange(40), pa.int64()),
                  "text": texts})
    whole = entropy_batch(b).to_pandas().sort_values("doc_id").reset_index(drop=True)
    parts = [entropy_batch(b.slice(i, 7)) for i in range(0, 40, 7)]
    split = (pa.concat_tables(parts).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(whole, split)


def test_term_stats_partials_match_counter_reference():
    """The vectorized packed-key interior must reproduce the Counter
    semantics exactly: occurrences AND containing-doc counts."""
    from collections import Counter

    from folkscope_ray.ops.index import TERM_RE
    from folkscope_ray.ops.text import term_stats_partials

    rng = np.random.RandomState(13)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 12)))
             for _ in range(60)]
    langs = list(rng.choice(["en", "de"], size=60))
    b = pa.table({"lang": langs, "text": texts})
    occ, df = Counter(), Counter()
    for lang, t in zip(langs, texts):
        ws = TERM_RE.findall(t.lower())
        for w in ws:
            occ[(lang, w)] += 1
        for w in set(ws):
            df[(lang, w)] += 1
    out = term_stats_partials(b)
    keys = list(zip(out["lang"].to_pylist(), out["term"].to_pylist()))
    assert dict(zip(keys, out["n_occ"].to_pylist())) == dict(occ)
    assert dict(zip(keys, out["n_docs"].to_pylist())) == dict(df)
