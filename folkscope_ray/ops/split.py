"""Deterministic dataset splitting / sampling for training-data curation.

Capabilities the reference never had machinery for (its sampling is the
ad-hoc ``random.sample`` in ``src/generator/sample_pairs.py``): reproducible
train/val/test assignment, balanced per-key subsampling, and per-key
quantile-band filtering — the standard curation steps in front of a
large-scale LM training pipeline.

Everything here is keyed on **md5 of the row key**, not RNG state, so the
assignment is (a) bit-identical at any parallelism / block layout, (b)
stable under re-runs and resume, and (c) exactly reproducible by the DuckDB
oracle (`md5(key)` is the same function on both sides).  No shuffle is ever
needed to split: assignment is a stateless map over each block.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

__all__ = [
    "md5_hex_array",
    "md5_bucket_batch",
    "hash_split_batch",
    "quantiles_by_key",
    "sample_per_key",
    "pack_sequences",
    "deterministic_shuffle",
    "mixing_weights",
    "weighted_sample",
]


def _md5_hex(values: list) -> list[str]:
    # reference implementation (kept as the parity target for
    # test_md5_kernel_parity); the hot paths use _md5_digests below
    return [hashlib.md5(str(v).encode()).hexdigest() for v in values]


def _md5_digests(col, prefix: str = "") -> np.ndarray:
    """Raw md5 digests of an Arrow column as an (n, 16) uint8 matrix.

    The digest itself is inherently per-row (md5 has no batch form), but
    everything AROUND it is vectorized: ONE Arrow cast-to-string kernel
    (bit-identical to Python ``str()`` for integer and string keys — the
    only key types the split/sample family uses), one join kernel for the
    optional ``"{prefix}"`` prepend, and the hash loop walks the column's
    contiguous UTF-8 buffer via memoryview slices — no per-row str
    construction, ``encode()`` call, or hexdigest.  Output bytes feed
    :func:`md5_hex_array` (hex strings built in ONE ``bytes.hex()`` +
    buffer-backed StringArray), first-byte split assignment, and the
    uniform-u64 draw in :func:`weighted_sample`.  Parity with the per-row
    ``hashlib.md5(str(v).encode())`` loop is pytest-gated.  Falls back to
    the reference loop for non-int/string columns (where Arrow's cast may
    not equal ``str()``); null values raise — md5 of NULL is undefined and
    ``str(None)`` would silently collide with a literal ``"None"`` key."""
    if isinstance(col, pa.Array):
        col = pa.chunked_array([col])
    if col.null_count:
        # md5 of NULL is undefined; str(None) == 'None' would silently
        # collide with the literal 4-char string key/text "None" (and the
        # SQL oracle's md5(NULL) is NULL, not a digest) — fail fast instead
        raise ValueError(
            "md5 digest kernel: null values in the key/text column — "
            "filter or fill nulls before hashing")
    t = col.type
    md5 = hashlib.md5
    if not (pa.types.is_integer(t) or pa.types.is_string(t)
            or pa.types.is_large_string(t)):
        out = np.empty((len(col), 16), dtype=np.uint8)
        for i, v in enumerate(col.to_pylist()):
            out[i] = np.frombuffer(
                md5((prefix + str(v)).encode()).digest(), np.uint8)
        return out
    if not pa.types.is_string(t):
        col = col.cast(pa.string())  # int -> "123"; large_string -> utf8
    if prefix:
        col = pc.binary_join_element_wise(
            pa.scalar(prefix, pa.string()), col, "")
        if isinstance(col, pa.Array):
            col = pa.chunked_array([col])
    n = len(col)
    parts: list[bytes] = []
    for chunk in col.chunks:
        m = len(chunk)
        if not m:
            continue
        bufs = chunk.buffers()
        # Python-int offsets + one bytes() copy of the utf-8 buffer: slicing
        # bytes with ints is ~1.7x faster than memoryview with np.int32
        offs = np.frombuffer(bufs[1], dtype=np.int32, count=m + 1,
                             offset=chunk.offset * 4).tolist()
        bb = bytes(bufs[2])
        parts.append(b"".join(
            [md5(bb[a:b]).digest() for a, b in zip(offs, offs[1:])]))
    return np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(n, 16)


def md5_hex_array(col, prefix: str = "") -> pa.Array:
    """md5 hexdigest of each (stringified, optionally prefixed) value as an
    Arrow string array — ONE ``bytes.hex()`` call over the digest block and
    a buffer-backed StringArray, no per-row hex or Python strings."""
    from ..util import hex_string_array

    dig = _md5_digests(col, prefix)
    return hex_string_array(dig.tobytes(), dig.shape[0], 16)


def md5_bucket_batch(batch: pa.Table, key_col: str,
                     out_col: str = "__md5") -> pa.Table:
    """Append the md5 hex digest of ``key_col`` (stringified) to the block."""
    return batch.append_column(
        out_col, md5_hex_array(batch.column(key_col)))


def hash_split_batch(batch: pa.Table, key_col: str,
                     boundaries: tuple[int, ...] = (204, 230),
                     names: tuple[str, ...] = ("train", "val", "test"),
                     out_col: str = "split") -> pa.Table:
    """Assign each row to a split by the first md5 byte of its key.

    ``boundaries`` are upper-exclusive cut points in 0..256 over
    ``int(md5(key)[:2], 16)``; defaults give ~79.7% / ~10.2% / ~10.1%.
    Stateless and shuffle-free: the oracle-side equivalent is a lexical
    compare of ``substr(md5(key), 1, 2)`` against the boundary bytes' hex.
    """
    if len(names) != len(boundaries) + 1:
        raise ValueError("need len(names) == len(boundaries) + 1")
    # first digest byte == int(hexdigest[:2], 16), straight off the raw
    # digest matrix — no hex strings materialized at all on this path
    b = _md5_digests(batch.column(key_col))[:, 0].astype(np.int64)
    out = np.full(len(b), names[-1], dtype=object)
    for name, bound in zip(reversed(names[:-1]), reversed(boundaries)):
        out[b < bound] = name
    return batch.append_column(out_col, pa.array(out.tolist(), pa.string()))


def quantiles_by_key(ds: Dataset, key_col: str, value_col: str,
                     qs: list[float]) -> pd.DataFrame:
    """Exact per-key discrete quantiles of an integer column.

    Distributed phase: per-block ``(key, value) -> count`` partials (the
    map-side combiner), summed by a ``groupby`` whose shuffle moves one row
    per distinct (key, value) — bounded by domain size, not row count.
    Driver phase: per-key cumulative walk over its (small) histogram.
    DuckDB ``quantile_disc`` semantics.  Returns (key, q, value)."""
    from .relational import map_combine_aggregate

    hist = map_combine_aggregate(
        ds.select_columns([key_col, value_col]),
        keys=[key_col, value_col], count_alias="__n",
    ).to_pandas().sort_values([key_col, value_col]).reset_index(drop=True)

    import math as _math
    from fractions import Fraction as _Fr

    out = []
    for key, g in hist.groupby(key_col, sort=True):
        cum = g["__n"].cumsum().to_numpy()
        values = g[value_col].to_numpy()
        total = int(cum[-1]) if len(cum) else 0
        for q in qs:
            # exact integral rank (the sketch.exact_quantiles_by_group
            # discipline): float total*q can round past an exact cum value
            # (e.g. 25 * 0.28 == 7.000000000000001) and silently return the
            # next element, diverging from DuckDB quantile_disc
            rank = max(1, _math.ceil(_Fr(str(q)) * total))
            idx = int(np.searchsorted(cum, rank, side="left"))
            out.append({key_col: key, "q": float(q),
                        "value": values[min(idx, len(values) - 1)]})
    return pd.DataFrame(out)


def sample_per_key(ds: Dataset, key_col: str, id_col: str, n: int,
                   keep_cols: list[str] | None = None) -> Dataset:
    """Deterministic uniform sample of ``n`` rows per key: rank rows within
    each key by ``(md5(id), id)`` and keep the first ``n``.  md5 order is
    uniform over the id space, so this is sampling-without-replacement with
    a fixed seed — reproducible across runs, parallelism, and the SQL
    oracle (``row_number() OVER (PARTITION BY key ORDER BY md5(id), id)``).

    Scale shape: the md5-rank column is added in a stateless map; only the
    (small) per-key winners survive the per-group head — the groupby
    shuffle moves candidate rows, and a block-local pre-prune keeps at most
    ``n`` candidates per key per block, so shuffle volume is
    O(n_keys x n x n_blocks) independent of total rows."""
    cols = [key_col, id_col] + [c for c in (keep_cols or []) if c not in (key_col, id_col)]

    def annotate_prune(b: pa.Table) -> pa.Table:
        t = md5_bucket_batch(b.select(cols), id_col)
        df = t.to_pandas()
        pruned = (df.sort_values(["__md5", id_col], kind="mergesort")
                    .groupby(key_col, sort=False).head(n))
        return pa.Table.from_pandas(pruned, preserve_index=False)

    def head_n(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across every key in the bucket (one pandas dispatch
        # per BUCKET, not per key — the tiny-group discipline)
        return (g.sort_values(["__md5", id_col], kind="mergesort")
                .groupby(key_col, sort=False).head(n))

    from .window import _bucketed_groups

    # drop the internal ranking column (the weighted_sample discipline):
    # callers asked for (key, id, keep_cols), not the md5 plumbing
    return _bucketed_groups(
        ds.map_batches(annotate_prune, batch_format="pyarrow"),
        key_col, head_n).drop_columns(["__md5"])


def deterministic_shuffle(ds: Dataset, id_col: str, seed: int,
                          key_out: str = "__shuf") -> Dataset:
    """Seeded, REPRODUCIBLE global shuffle: every row gets the order key
    ``md5(f"{seed}|{id}")`` (stateless map) and the stream is sorted by it.

    ``Dataset.random_shuffle`` depends on block layout and RNG state, so a
    resumed or re-run epoch sees a different order; here the permutation is
    a pure function of ``(seed, id)`` — bit-identical across runs, block
    layouts, parallelism levels, and the SQL oracle
    (``md5(seed || '|' || id)``).  Epochs are new seeds.

    Scale shape: one range-partitioned sort — the SAME all-to-all cost class
    as ``random_shuffle``, but resumable (a failed epoch re-derives its
    order instead of re-shuffling) and with limit pushdown for partial
    consumption (``.limit(k)`` after this sorts only the winning prefix to
    the driver)."""
    def key(b: pa.Table) -> pa.Table:
        return b.append_column(
            key_out, md5_hex_array(b.column(id_col), prefix=f"{seed}|"))

    return ds.map_batches(key, batch_format="pyarrow").sort([key_out, id_col])


def mixing_weights(per_key_tokens: pd.DataFrame, key_col: str,
                   tokens_col: str, out_col: str = "weight_ppm") -> pd.DataFrame:
    """Square-root domain-mixing weights (the multilingual/data-mixture
    reweighting rule: sampling weight ∝ size^0.5, which upweights small
    domains relative to proportional sampling).

    Input is the already-aggregated per-domain token-count table (one row
    per domain — tiny; the distributed part is the counting, a map-side
    combined groupby upstream).  All arithmetic is INTEGER (``isqrt`` +
    integer division into parts-per-million), so the weights are hash-exact
    vs the SQL oracle ``(1000000 * floor(sqrt(n))) // sum(floor(sqrt(n)))``
    — exact because ``floor(sqrt())`` in IEEE double equals ``isqrt`` for
    n < 2^52 (document counts far below that)."""
    import math

    df = per_key_tokens[[key_col, tokens_col]].copy()
    s = np.array([math.isqrt(int(v)) for v in df[tokens_col]], dtype=np.int64)
    total = int(s.sum())
    df[out_col] = (1_000_000 * s) // max(total, 1)
    return df.sort_values(key_col).reset_index(drop=True)


def pack_sequences(ds: Dataset, id_col: str, size_col: str, budget: int,
                   chunk_span: int, seq_col: str = "seq_id") -> Dataset:
    """Deterministic contiguous sequence packing: rows in ``id_col`` order
    are concatenated into fixed-``budget`` sequences, row r landing in
    ``seq = cum_size_before_r // budget`` (offset packing — the streaming
    shard-assignment rule used to cut training corpora into fixed token
    budgets; a row may start a new sequence exactly when the running total
    crosses a budget boundary).

    Scale shape: reuses the two-phase chunked ``cumulative_sum`` scan —
    local cumsums inside ``id // chunk_span`` chunks plus a tiny per-chunk
    offset stitch — so no single group ever holds the full corpus."""
    from .window import cumulative_sum

    def const_key(b: pa.Table) -> pa.Table:
        return b.append_column("__g", pa.array(np.zeros(b.num_rows, np.int8)))

    run = cumulative_sum(
        ds.select_columns([id_col, size_col])
        .map_batches(const_key, batch_format="pyarrow"),
        key_col="__g", order_cols=[id_col], int_value_col=size_col,
        alias="__run", chunk=chunk_span, order_int_col=id_col,
    )

    def assign(b: pa.Table) -> pa.Table:
        before = (b.column("__run").to_numpy(zero_copy_only=False)
                  - b.column(size_col).to_numpy(zero_copy_only=False))
        seq = before // budget
        return (b.append_column(seq_col, pa.array(seq, pa.int64()))
                 .drop_columns(["__g", "__run"]))

    return run.map_batches(assign, batch_format="pyarrow")


def weighted_sample(ds: Dataset, key_col: str, weight_col: str, k: int,
                    seed: int = 42) -> Dataset:
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis-
    Spirakis A-ES): row i gets ``score = u_i ** (1 / w_i)`` with ``u_i``
    the md5-uniform of (seed, key); the global top-k by score is a weighted
    sample without replacement (P(selected) increasing in weight).  The
    randomness is a pure function of (seed, key) — reproducible across
    runs, partitionings and engines, and SQL-expressible
    (``pow((('0x' || substr(md5(seed||'|'||key),1,16))::UBIGINT)::DOUBLE
    / 2^64, 1.0/w)`` — bit-identical to the numpy math, parity-tested).

    Distributed shape: per-block top-k partial (each block reduces to <= k
    rows before anything moves), then a global ``sort.limit(k)`` over the
    tiny partial stream — no full-data shuffle, the same discipline as
    ``topk_per_group``.  Ties break on key ascending.  Non-positive
    weights never sample: rows with ``w <= 0`` are dropped from the
    candidate stream entirely (matching the oracle's ``WHERE w > 0``), so
    even when fewer than k positive-weight rows exist they are never
    selected.

    The reference's sampling is unweighted uniform (generation.py:172
    ``random.sample``); weighted selection is the data-mixing upgrade
    (quality-scored corpus subsampling a la CCNet/DoReMi)."""
    def score_block(batch: pa.Table) -> pa.Table:
        w = np.asarray(batch.column(weight_col).to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        pos = w > 0
        if not pos.all():  # w <= 0 never samples: drop before the top-k
            batch = batch.take(pa.array(np.flatnonzero(pos), pa.int64()))
            w = w[pos]
        # int(hexdigest[:16], 16) == first 8 digest bytes big-endian
        dig = _md5_digests(batch.column(key_col), prefix=f"{seed}|")
        u = (dig[:, :8].copy().view(">u8").reshape(-1).astype(np.uint64)
             .astype(np.float64) / 2.0**64)
        score = np.power(u, 1.0 / w) if len(w) else np.empty(0)
        out = batch.append_column("score", pa.array(score, pa.float64()))
        if out.num_rows > k:
            order = pa.Table.from_arrays(
                [out.column("score"), out.column(key_col)],
                names=["s", "k"]).to_pandas()
            top = np.lexsort((order["k"].to_numpy(),
                              -order["s"].to_numpy()))[:k]
            out = out.take(pa.array(np.sort(top), pa.int64()))
        return out

    partial = ds.select_columns([key_col, weight_col]).map_batches(
        score_block, batch_format="pyarrow")
    return (partial.sort(["score", key_col], descending=[True, False])
            .limit(k).drop_columns(["score"]))


def cap_per_key(ds: Dataset, key_col: str, n: int,
                order_cols: list[str],
                ascending: list[bool] | None = None) -> Dataset:
    """Keep at most ``n`` rows per key (the per-domain / per-source cap every
    web-scale curation pipeline applies so one crawl host can't dominate the
    training mix), deterministically ordered by ``order_cols``.

    Scale shape: each block first prunes ITSELF to <= n rows per in-block
    key (map-side combine — the shuffle then moves at most
    ``blocks x keys x n`` rows, never the full stream), and the per-key
    groupby applies the same prune to the survivors.  Order must be total
    (include a unique tiebreaker column) for cross-engine determinism."""
    asc = ascending if ascending is not None else [True] * len(order_cols)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(order_cols, ascending=asc, kind="mergesort")
                .groupby(key_col, sort=False).head(n))

    from .window import _bucketed_groups

    # the prune body is already vectorized across keys, so the reduce side
    # runs once per hash BUCKET (tiny-group discipline), not once per key
    return _bucketed_groups(
        ds.map_batches(prune, batch_format="pandas"), key_col, prune)


def topk_ties(ds: Dataset, key_col: str, value_col: str, k: int,
              ascending: bool = False,
              rank_alias: str = "rnk") -> Dataset:
    """Tie-aware per-key top-k (SQL ``QUALIFY RANK() OVER (PARTITION BY key
    ORDER BY value) <= k``): competition ranking, so ALL rows tied at a
    kept rank survive — the output can exceed ``k`` rows per key, which is
    exactly what distinguishes it from ``cap_per_key``/ROW_NUMBER.

    Scale shape mirrors ``cap_per_key``: the map-side prune applies the
    SAME tie-aware rank filter per in-block key — correct because a row's
    block-local rank is a lower bound on its global rank (fewer
    competitors in the block), so no survivor is ever dropped early — and
    the bucketed reduce applies it once more over survivors, attaching the
    final rank.  Shuffle volume is bounded by blocks × keys × (k + ties).
    A pathological key where everything ties keeps everything — that is
    the operator's semantics, not a skew bug; cap first if unacceptable."""
    from .window import _bucketed_groups

    asc = ascending

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        r = df.groupby(key_col, sort=False)[value_col] \
            .rank(method="min", ascending=asc)
        return df[r <= k]

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        r = df.groupby(key_col, sort=False)[value_col] \
            .rank(method="min", ascending=asc)
        out = df[r <= k].copy()
        out[rank_alias] = r[r <= k].astype("int64")
        return out

    pruned = ds.map_batches(prune, batch_format="pandas")
    return _bucketed_groups(pruned, key_col, finish)


def trimmed_mean_by_key(ds: Dataset, key_col: str, int_value_col: str,
                        lo: float = 0.1, hi: float = 0.9,
                        n_alias: str = "n_kept", sum_alias: str = "sum_v",
                        mean_alias: str = "tmean") -> Dataset:
    """Per-key trimmed mean: the mean of values inside the [lo, hi]
    discrete-quantile band (bounds INCLUSIVE, ``quantile_disc`` semantics)
    — the outlier-robust location estimate feeding quality dashboards and
    reward-model label cleaning.  Complements ``winsorize`` (which clamps)
    by DROPPING the tails instead.

    Two passes, both bounded: pass 1 builds per-key (value -> count)
    histograms (map-side combined — the shuffle moves one row per distinct
    (key, value), domain-bounded) and walks the per-key quantile bounds;
    pass 2 re-scans with the bounds table joined back via ``hash_join``
    (broadcast escape under relational.JOIN_BROADCAST_MAX, partitioned
    beyond — so a cluster-sized key set still works), filters, and
    map-side combines exact integer sums.  The final mean is one
    ``int64 / int64`` float division, identical in DuckDB."""
    import ray.data as _rd

    from .relational import hash_join, map_combine_aggregate

    if not lo < hi:
        raise ValueError("trimmed_mean_by_key needs lo < hi "
                         "(for a single quantile use quantiles_by_key)")
    bounds = quantiles_by_key(ds, key_col, int_value_col, [lo, hi])
    piv = bounds.pivot_table(index=key_col, columns="q", values="value",
                             aggfunc="first")
    # select by LABEL, not position — q column order must not matter
    wide = pd.DataFrame({key_col: piv.index,
                         "__lo": piv[float(lo)].to_numpy(),
                         "__hi": piv[float(hi)].to_numpy()})
    joined = hash_join(
        ds.select_columns([key_col, int_value_col]),
        _rd.from_pandas(wide), on=key_col)

    def keep(b: pa.Table) -> pa.Table:
        v = b.column(int_value_col)
        mask = pc.and_(pc.greater_equal(v, b.column("__lo")),
                       pc.less_equal(v, b.column("__hi")))
        return b.filter(mask).select([key_col, int_value_col])

    agg = map_combine_aggregate(
        joined.map_batches(keep, batch_format="pyarrow"),
        keys=[key_col], sums={int_value_col: sum_alias},
        count_alias=n_alias)

    def finish(b: pa.Table) -> pa.Table:
        s = b.column(sum_alias).to_numpy(zero_copy_only=False)
        n = b.column(n_alias).to_numpy(zero_copy_only=False)
        return b.append_column(
            mean_alias, pa.array(s / n, pa.float64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def split_leakage(ds: Dataset, id_col: str, text_col: str,
                  boundaries: tuple[int, ...] = (204, 230),
                  names: tuple[str, ...] = ("train", "val", "test"),
                  hash_alias: str = "content_hash") -> Dataset:
    """Train/val/test LEAKAGE audit: content hashes (md5 of the exact
    text) that appear in two or more different splits of the
    ``hash_split_batch`` assignment — the cheap-but-mandatory check that a
    random-by-id split did not put byte-identical duplicates on both
    sides of the evaluation boundary (Lee et al. 2022's contamination
    mechanism, before any near-dup pass).

    Output: one row per leaking content hash with its per-split
    occurrence counts.  Scale shape: one stateless scan assigns splits
    (md5 of the id) and hashes content (vectorized digest kernel), the
    per-(hash, split) indicator columns are map-side combined, so the
    shuffle moves one partial row per distinct hash per block — exactly
    the exact-dedup plan with a split dimension."""
    from .relational import map_combine_aggregate

    def tag(b: pa.Table) -> pa.Table:
        t = hash_split_batch(b.select([id_col, text_col]), id_col,
                             boundaries=boundaries, names=names)
        cols = {hash_alias: md5_hex_array(b.column(text_col))}
        sp = t.column("split")
        for name in names:
            cols["n_" + name] = pc.cast(
                pc.equal(sp, pa.scalar(name)), pa.int64())
        return pa.table(cols)

    agg = map_combine_aggregate(
        ds.select_columns([id_col, text_col])
        .map_batches(tag, batch_format="pyarrow"),
        keys=[hash_alias],
        sums={"n_" + name: "n_" + name for name in names})

    def leaking(b: pa.Table) -> pa.Table:
        nz = None
        for name in names:
            ind = pc.cast(pc.greater(b.column("n_" + name), 0), pa.int64())
            nz = ind if nz is None else pc.add(nz, ind)
        # the redundant total (== sum of the per-split counts) is dropped
        return b.filter(pc.greater_equal(nz, 2)).select(
            [hash_alias] + ["n_" + name for name in names])

    return agg.map_batches(leaking, batch_format="pyarrow")


def weighted_median_by_key(ds: Dataset, key_col: str, value_col: str,
                           weight_col: str,
                           alias: str = "wmedian") -> pd.DataFrame:
    """Per-key lower weighted median: the smallest value whose cumulative
    weight reaches half the key's total weight (``2 * cumw >= totw``,
    discrete semantics — both engines pick the identical row) — the
    robust center when rows carry importance weights (token counts,
    sampling weights, dedup multiplicities).

    Scale shape: ONE map-side-combined (key, value) -> sum(weight)
    histogram (shuffle bounded by the value domain per key, never rows);
    the median walk runs on that bounded histogram — the
    quantiles_by_key contract with weights instead of counts."""
    from .relational import map_combine_aggregate

    hist = map_combine_aggregate(
        ds.select_columns([key_col, value_col, weight_col]),
        keys=[key_col, value_col], sums={weight_col: "__w"},
    ).to_pandas().sort_values([key_col, value_col]).reset_index(drop=True)

    out = []
    for key, g in hist.groupby(key_col, sort=True):
        w = g["__w"].to_numpy().astype(np.int64)
        cw = np.cumsum(w)
        tot = int(cw[-1])
        idx = int(np.searchsorted(2 * cw, tot, side="left"))
        out.append({key_col: key,
                    alias: g[value_col].to_numpy()[idx]})
    return pd.DataFrame(out)


def quota_topk(ds: Dataset, key_col: str, value_col: str, id_col: str,
               k_global: int, per_key_quota: int,
               rank_alias: str = "rn") -> pd.DataFrame:
    """Diversified global top-k: at most ``per_key_quota`` rows per key
    (ROW_NUMBER by value DESC, id ASC), then the global top ``k_global``
    by the same TOTAL order — the retrieval/result-diversity pattern
    ("best 100 overall, max 5 per brand/domain").

    Scale shape: a block-local prune keeps at most quota rows per key per
    block (block-local rank lower-bounds the key-global rank, so no
    survivor is dropped early — the topk_ties discipline), one bucketed
    shuffle finishes the per-key ranks, and the global cut is a
    distributed total-order sort + limit.  Driver holds k_global rows."""
    from .window import _bucketed_groups

    cols = list(dict.fromkeys([key_col, value_col, id_col]))

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        r = (df.sort_values([value_col, id_col], ascending=[False, True],
                            kind="mergesort")
             .groupby(key_col, sort=False).cumcount())
        return df[r < per_key_quota]

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([value_col, id_col], ascending=[False, True],
                            kind="mergesort")
        r = df.groupby(key_col, sort=False).cumcount() + 1
        out = df[r <= per_key_quota].copy()
        out[rank_alias] = r[r <= per_key_quota].astype("int64")
        return out

    pruned = ds.select_columns(cols).map_batches(
        prune, batch_format="pandas")
    ranked = _bucketed_groups(pruned, key_col, finish)
    top = (ranked.sort([value_col, id_col], descending=[True, False])
           .limit(k_global).to_pandas())
    return top.reset_index(drop=True)


def bernoulli_sample(ds: Dataset, id_col: str, rate_ppm_col: str,
                     seed: int = 42) -> Dataset:
    """Deterministic row-level Bernoulli sampling: keep a row iff
    ``md5(seed|id)``'s first 4 digest bytes (a uniform 32-bit draw) fall
    under its per-row acceptance rate — ``draw * 1e6 < rate_ppm * 2^32``,
    an exact integer comparison.  The row-level form of the split/sample
    family's md5 discipline: reproducible across runs, parallelism,
    resume, and engines, with NO shuffle (one stateless scan) — the
    down-sampling primitive behind per-source mixing rates.

    ``rate_ppm_col`` carries each row's acceptance rate in parts-per-
    million (compute it upstream from a broadcast rate table or a CASE
    over row attributes)."""

    def keep(b: pa.Table) -> pa.Table:
        dig = _md5_digests(b.column(id_col), prefix=f"{seed}|")
        draw = (dig[:, :4].astype(np.int64)
                @ (256 ** np.arange(3, -1, -1)).astype(np.int64))
        rate = b.column(rate_ppm_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)  # int32 rate columns: 2^32 overflows int32
        return b.filter(pa.array(draw * 1_000_000 < rate * (1 << 32)))

    return ds.map_batches(keep, batch_format="pyarrow")


def pareto_front(ds: Dataset, x_col: str, y_col: str) -> Dataset:
    """2-D Pareto front (maximize both columns): rows not strictly
    dominated by any other row — the multi-objective selection step
    (quality vs diversity, score vs length) a curation pipeline runs
    instead of a single-metric top-k.

    Dominance: a row is dominated iff some row has ``x' >= x`` and
    ``y' >= y`` with at least one strict.  Duplicate points dominate
    nothing and survive together (SQL NOT EXISTS semantics).  INTEGER
    score columns (the mad_by_key contract — quantize floats upstream);
    non-integral values fail fast in the partial cast.

    Scale shape: the front operator is ASSOCIATIVE — the front of a union
    is contained in the union of the fronts — so each block reduces to
    its local front over DISTINCT (x, y) points (a sort + one cummax
    walk), the final front is computed over those tiny partials, and
    winners are broadcast back as a semi-join filter.  The stream is
    scanned twice, shuffled never; the front itself must be small (it is
    the output)."""
    import ray

    def _front_points(x: np.ndarray, y: np.ndarray):
        pts = np.unique(np.stack([x, y], axis=1), axis=0)
        # same x: only the max y survives; then walk x DESC keeping
        # strictly increasing y
        order = np.lexsort((-pts[:, 1], -pts[:, 0]))
        pts = pts[order]
        keep_first = np.r_[True, pts[1:, 0] != pts[:-1, 0]]
        pts = pts[keep_first]
        best = np.maximum.accumulate(pts[:, 1])
        keep = np.r_[True, pts[1:, 1] > best[:-1]]
        return pts[keep]

    def local_front(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({x_col: pa.array([], pa.int64()),
                             y_col: pa.array([], pa.int64())})
        x = b.column(x_col).to_numpy(zero_copy_only=False)
        y = b.column(y_col).to_numpy(zero_copy_only=False)
        pts = _front_points(x, y)
        return pa.table({x_col: pa.array(pts[:, 0], pa.int64()),
                         y_col: pa.array(pts[:, 1], pa.int64())})

    partials = (ds.select_columns([x_col, y_col])
                .map_batches(local_front, batch_format="pyarrow")
                .to_pandas())
    if len(partials):
        pts = _front_points(partials[x_col].to_numpy(),
                            partials[y_col].to_numpy())
    else:
        pts = np.zeros((0, 2), dtype=np.int64)
    fref = ray.put(pts)

    def winners(b: pa.Table) -> pa.Table:
        f = ray.get(fref)
        if not len(f):
            return b.slice(0, 0)
        x = b.column(x_col).to_numpy(zero_copy_only=False)
        y = b.column(y_col).to_numpy(zero_copy_only=False)
        # membership in the front point set: front xs are unique and
        # sorted descending from the walk — search on x, compare y
        fx, fy = f[:, 0], f[:, 1]
        o = np.argsort(fx)
        pos = np.searchsorted(fx[o], x)
        pos = np.clip(pos, 0, len(fx) - 1)
        hit = (fx[o][pos] == x) & (fy[o][pos] == y)
        return b.filter(pa.array(hit))

    return ds.map_batches(winners, batch_format="pyarrow")
