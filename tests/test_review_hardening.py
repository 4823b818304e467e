"""Regression pins for the round-4 adversarial-review findings.

Each test pins one fix from the second r4 review pass (sketch quantile rank
arithmetic, HLL hash version-stability, dd_quantiles NaN guard, label-prop
convergence guard, DedupIndex restore shard guard, perplexity short-doc
sentinel, stream key-hash vectorization parity, bounded broadcast caches,
bm25 Counter interior) so none can silently regress.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ------------------------------------------------------------- quantiles

def test_exact_quantiles_integral_rank_products_match_duckdb():
    """(total, q) pairs where total * float(q) rounds ABOVE the exact
    integer product (25 * 0.28 == 7.000000000000001) must still select
    DuckDB's quantile_disc element — the exact-rational rank rule."""
    import duckdb
    import ray.data as rd

    from folkscope_ray.ops.sketch import exact_quantiles_by_counting

    vals_df = pd.DataFrame({"v": np.arange(1, 26)})  # 25 distinct values
    ds = rd.from_pandas(vals_df).repartition(3)
    qs = [0.04, 0.28, 0.36, 0.44, 0.52, 0.68, 0.76, 0.84, 0.92]
    got = (exact_quantiles_by_counting(ds, "v", qs)
           .sort_values("q").reset_index(drop=True))
    qlist = "[" + ",".join(str(q) for q in qs) + "]"
    want = duckdb.sql(
        f"WITH qd AS (SELECT quantile_disc(v, {qlist}) AS vs FROM vals_df) "
        f"SELECT unnest({qlist}) AS q, unnest(vs) AS value FROM qd"
    ).df().sort_values("q").reset_index(drop=True)
    assert got["value"].astype(int).tolist() == want["value"].astype(int).tolist()


def test_dd_quantiles_rejects_non_finite_values():
    import ray.data as rd

    from folkscope_ray.ops.sketch import dd_quantiles

    df = pd.DataFrame({"v": [1.0, 2.0, float("nan"), 3.0]})
    with pytest.raises(Exception, match="non-finite"):
        dd_quantiles(rd.from_pandas(df), "v", [0.5])
    df_inf = pd.DataFrame({"v": [1.0, float("inf")]})
    with pytest.raises(Exception, match="non-finite"):
        dd_quantiles(rd.from_pandas(df_inf), "v", [0.5])


# ------------------------------------------------------------- HLL hash

def test_hll_hash_is_version_pinned():
    """The HLL register hash determines fixture-gated OUTPUT, so it is
    pinned to exact values (splitmix64 for ints, md5-prefix otherwise) —
    a library upgrade can never silently shift approx_distinct."""
    from folkscope_ray.ops.sketch import _hash_u64

    got_int = _hash_u64(np.array([0, 1, 2**40], dtype=np.int64))
    # independently computed splitmix64(v + 0x9E3779B97F4A7C15)
    def smix(v):
        M = (1 << 64) - 1
        z = (v + 0x9E3779B97F4A7C15) & M
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
        return z ^ (z >> 31)

    assert got_int.tolist() == [smix(0), smix(1), smix(2**40)]
    got_str = _hash_u64(np.array(["a", "xyz"], dtype=object))
    want_str = [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
                for s in ("a", "xyz")]
    assert got_str.tolist() == want_str


# ---------------------------------------------------- components convergence

def test_connected_components_raises_on_unconverged_labels(monkeypatch):
    import ray.data as rd

    from folkscope_ray.ops import components as comp

    monkeypatch.setattr(comp, "CC_DRIVER_EDGE_MAX", 0)  # force distributed
    chain = pd.DataFrame({"a": np.arange(0, 12), "b": np.arange(1, 13)})
    with pytest.raises(RuntimeError, match="max_iters"):
        comp.connected_components(rd.from_pandas(chain), max_iters=2)
    # ample iterations: converges to one component labeled by its min node
    out = comp.connected_components(
        rd.from_pandas(chain), max_iters=30).to_pandas()
    assert sorted(out["node"].tolist()) == list(range(13))
    assert set(out["label"].tolist()) == {0}


# --------------------------------------------------------- stream dedup

def test_dedup_index_restore_rejects_shard_count_mismatch():
    from folkscope_ray.ops.stream import DedupIndex

    idx = DedupIndex(n_shards=4)
    idx.filter_new([1, 2, 3])
    snap = idx.snapshot()
    with pytest.raises(ValueError, match="shards"):
        DedupIndex(n_shards=8).restore(snap)
    assert DedupIndex(n_shards=4).restore(snap) == 3


def test_stream_key_hashes_match_per_key_md5_loop():
    """The vectorized kernel must stay bit-identical to the original
    per-key md5 loop or existing snapshots silently invalidate."""
    from folkscope_ray.ops.stream import _key_hashes

    for keys in ([1, 2, 3, 999999], ["abc", "d", "e" * 64]):
        want = [int.from_bytes(hashlib.md5(str(k).encode()).digest()[:8],
                               "little") for k in keys]
        assert _key_hashes(keys).tolist() == want
        assert _key_hashes(pa.array(keys)).tolist() == want


# ------------------------------------------------------- bounded caches

def test_broadcast_cache_put_bounds_and_keeps_recent():
    from folkscope_ray.util import broadcast_cache_put

    cache: dict = {}
    for i in range(20):
        broadcast_cache_put(cache, f"ref{i}", i, cap=6)
    assert len(cache) == 6
    # FIFO: the 6 most recent refs are resident (current stage never evicted)
    assert sorted(cache.values()) == list(range(14, 20))


def test_worker_cached_builds_once_per_key_and_stays_bounded(monkeypatch):
    import ray

    from folkscope_ray import util

    monkeypatch.setattr(util, "_WORKER_CACHE", {})
    ref = ray.put(7)
    calls = []

    def build(tag):
        def fn():
            calls.append(tag)
            return (tag, ray.get(ref))
        return fn

    # build runs once per key; later calls reuse the cached value
    assert util.worker_cached("a" + ref.hex(), build("a")) == ("a", 7)
    assert util.worker_cached("a" + ref.hex(), build("a")) == ("a", 7)
    assert calls == ["a"]
    # two role prefixes over one ref are two entries with their own values
    assert util.worker_cached("b" + ref.hex(), build("b")) == ("b", 7)
    assert calls == ["a", "b"]
    # the one shared dict never exceeds its cap
    for i in range(3 * util.WORKER_CACHE_MAX):
        util.worker_cached(f"k{i}" + ref.hex(), build(i))
        assert len(util._WORKER_CACHE) <= util.WORKER_CACHE_MAX
    assert len(util._WORKER_CACHE) == util.WORKER_CACHE_MAX


def test_one_worker_cache_and_no_env_size_knobs():
    """Every per-worker broadcast cache goes through util.worker_cached (a
    bare module dict reintroduces the unbounded per-invocation leak), and
    no size gate is read from the environment: each is a module constant
    that a test patches with monkeypatch.setattr."""
    import ast
    from pathlib import Path

    import folkscope_ray

    root = Path(folkscope_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if (func.split(".")[-1] == "broadcast_cache_put"
                        and rel != "util.py"):
                    bad.append(f"{rel}:{node.lineno} {func}")
                reads_env = "environ" in func or "getenv" in func
            elif isinstance(node, ast.Subscript):
                reads_env = "environ" in ast.unparse(node.value)
            else:
                continue
            if reads_env and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and c.value.startswith("FOLKSCOPE_")
                    for c in ast.walk(node)):
                bad.append(f"{rel}:{node.lineno} {ast.unparse(node)}")
    assert not bad, bad


# ------------------------------------------------------- perplexity sentinel

def test_perplexity_short_docs_get_unscorable_sentinel():
    import ray

    from folkscope_ray.ops.lm import PerplexityScorer, train_bigram_lm
    import ray.data as rd

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["the cat sat on the mat", "word", "", "two tokens"],
    })
    model = train_bigram_lm(rd.from_pandas(docs))
    scorer = PerplexityScorer(ray.put(model))
    out = scorer(pa.table(docs))
    mb = out.column("ppl_millibits").to_pylist()
    nt = out.column("n_lm_tokens").to_pylist()
    assert mb[1] == PerplexityScorer.UNSCORABLE == -1
    assert mb[2] == -1
    assert nt == [6, 1, 0, 2]
    # real scores are non-negative, so the sentinel is unambiguous
    assert mb[0] >= 0 and mb[3] >= 0
    # documented filter recovers exactly the scorable rows
    assert [m for m, n in zip(mb, nt) if n >= 2] == [mb[0], mb[3]]


# ------------------------------------------------------------ token regex

def test_token_regex_is_single_sourced():
    """LM/BPE, text bigrams, index, and decontam must tokenize with the ONE
    TERM_RE object — identity, not just equal patterns."""
    from folkscope_ray.ops import decontam, index, lm, text

    assert lm._TOKEN_RE is index.TERM_RE
    assert text._BIGRAM_TOKEN_RE is index.TERM_RE
    assert decontam.TERM_RE is index.TERM_RE
