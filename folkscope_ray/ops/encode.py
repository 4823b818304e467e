"""ML feature-encoding operators: the hashing-trick vectorizer, smoothed
target (mean) encoding, ordinal/dictionary encoding, and k-fold
cross-validation assignment.

These are the feature-preparation stages a training-data pipeline runs
after curation (the reference's closest analogues are the feature writers
feeding its recommenders, src/baselines/run_WnD.py's categorical columns);
each is expressed as a map-combined Dataset plan with an exact SQL-oracle
contract:

- ``feature_hash``: bucket = first 12 hex chars of md5(token) mod dim —
  matches ``('0x' || substr(md5(token), 1, 12))::BIGINT % dim`` in DuckDB;
- ``target_encode``: Bayesian-smoothed category mean
  ``(sum_y + m * prior) / (n + m)`` from exact integer moments;
- ``ordinal_encode``: dense contiguous ids in sorted-value order
  (``DENSE_RANK() OVER (ORDER BY value) - 1``);
- ``kfold_assign``: fold = first 8 hex chars of md5(id) mod k — a pure
  function of the id, so folds are reproducible across runs, parallelism,
  resume, and engines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from ..util import worker_cached
from .split import _md5_digests

_BUCKET_POW = (256 ** np.arange(5, -1, -1)).astype(np.int64)  # 6 bytes, BE
_FOLD_POW = (256 ** np.arange(3, -1, -1)).astype(np.int64)    # 4 bytes, BE
# ordinal_encode's broadcast vocabulary: at most this many distinct values
# per column
ENCODE_BROADCAST_MAX = 2_000_000


def md5_mod_array(col, mod: int, n_bytes: int = 6) -> np.ndarray:
    """``int(md5(str(v))[: 2 * n_bytes], 16) % mod`` for every value, via the
    vectorized digest kernel — the big-endian int of the first ``n_bytes``
    digest bytes equals DuckDB's ``('0x' || substr(md5(v), 1, 2*n_bytes))``
    hex-literal cast, so both engines draw the same bucket."""
    dig = _md5_digests(col)
    pw = {6: _BUCKET_POW, 4: _FOLD_POW}.get(n_bytes)
    if pw is None:
        pw = (256 ** np.arange(n_bytes - 1, -1, -1)).astype(np.int64)
    return (dig[:, :n_bytes].astype(np.int64) @ pw) % mod


def feature_hash(ds: Dataset, id_col: str, text_col: str,
                 dim: int = 256,
                 bucket_alias: str = "bucket",
                 tf_alias: str = "tf") -> Dataset:
    """Hashing-trick bag-of-words: every ``[a-z0-9]+`` token of the
    lowercased text hashes into one of ``dim`` buckets; output is the
    sparse term-frequency triple ``(id, bucket, tf)`` — the fixed-width
    feature space linear classifiers and the finetune stage consume,
    with NO vocabulary state (the whole point of the hashing trick:
    nothing to broadcast, nothing to fit).

    Scale shape: one stateless scan tokenizes and hashes (vectorized md5
    kernel); the (id, bucket) occurrence stream is map-side combined per
    block before the shuffle, so the all-to-all moves at most
    ``rows x min(dim, tokens_per_doc)`` partial rows, never one row per
    token occurrence."""
    from .relational import map_combine_aggregate

    def hash_tokens(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column(text_col)), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        flat = la.flatten()
        keep = pc.greater(pc.binary_length(flat), 0).to_numpy(
            zero_copy_only=False)
        off = la.offsets.to_numpy().astype(np.int64)
        doc_of = np.repeat(np.arange(b.num_rows), np.diff(off))[keep]
        toks = flat.filter(pa.array(keep))
        ids = b.column(id_col).take(pa.array(doc_of, pa.int64()))
        return pa.table({
            id_col: ids,
            bucket_alias: pa.array(md5_mod_array(toks, dim), pa.int64()),
        })

    return map_combine_aggregate(
        ds.select_columns([id_col, text_col])
        .map_batches(hash_tokens, batch_format="pyarrow"),
        keys=[id_col, bucket_alias], count_alias=tf_alias)


def target_encode(ds: Dataset, key_col: str, int_value_col: str,
                  m: float = 50.0,
                  n_alias: str = "n", sum_alias: str = "sum_v",
                  enc_alias: str = "enc") -> Dataset:
    """Smoothed target (mean) encoding: per category,
    ``enc = (sum_v + m * prior) / (n + m)`` where ``prior`` is the global
    mean — the Bayesian shrinkage that keeps rare categories from memorizing
    their few labels (micci-barreca 2001, the standard CTR/GBDT feature).

    ``int_value_col`` must be integral (cents) so the per-key and global
    moments are exact; the single float division at the end is performed
    identically by DuckDB (``BIGINT / BIGINT -> DOUBLE``).  Global moments
    come from the SAME per-key aggregate via a tree reduce — no second scan
    of the data and no driver materialization of the key table."""
    from ray.data.aggregate import Sum

    from .relational import map_combine_aggregate

    per_key = map_combine_aggregate(
        ds.select_columns([key_col, int_value_col]),
        keys=[key_col], sums={int_value_col: sum_alias},
        count_alias=n_alias,
    ).materialize()
    tot = per_key.aggregate(Sum(sum_alias, alias_name="gs"),
                            Sum(n_alias, alias_name="gn"))
    if tot is None or tot.get("gn") is None or not tot["gn"]:
        # empty input (fully-filtered shard): Dataset.aggregate returns
        # None — return the empty keyed schema instead of a TypeError
        # (the gini_coefficient empty-handling discipline)
        import pandas as pd
        import ray.data as _rd

        return _rd.from_pandas(pd.DataFrame({
            key_col: pd.Series([], dtype="string"),
            sum_alias: pd.array([], dtype="int64"),
            n_alias: pd.array([], dtype="int64"),
            enc_alias: pd.array([], dtype="float64")}))
    prior = float(tot["gs"]) / float(tot["gn"])
    mm = float(m)

    def enc(b: pa.Table) -> pa.Table:
        sv = b.column(sum_alias).to_numpy(zero_copy_only=False).astype(
            np.float64)
        n = b.column(n_alias).to_numpy(zero_copy_only=False).astype(
            np.float64)
        return b.append_column(
            enc_alias, pa.array((sv + mm * prior) / (n + mm), pa.float64()))

    return per_key.map_batches(enc, batch_format="pyarrow")


def ordinal_encode(ds: Dataset, cols: list[str],
                   suffix: str = "_idx") -> Dataset:
    """Dictionary/ordinal encoding: each categorical column gets a dense
    contiguous id in sorted-value order (``DENSE_RANK() OVER (ORDER BY v)
    - 1``) — the label-encoding step in front of every embedding table.

    Scale shape: ONE distinct-aggregate per column (map-side combined — the
    shuffle moves one row per distinct value per block), the sorted
    vocabulary is ``ray.put`` broadcast once, and the id lookup is a
    vectorized ``np.searchsorted`` per batch.  Vocabularies are bounded by
    the operator's own semantics (an embedding table must hold them too);
    the gate ``ENCODE_BROADCAST_MAX`` (2M distinct values
    per column) fails fast with direction rather than silently shipping a
    cluster-sized dictionary — beyond it, dense-contiguous ids are the
    wrong tool and :func:`feature_hash` (stateless stable ids) or
    frequency-capped vocabularies are the designated paths."""
    from .relational import map_combine_aggregate

    # ONE scan for ALL vocabularies (was one distinct-aggregate scan per
    # column): fan each block out to a tagged sparse table — one row per
    # (column tag, value) with every OTHER value column null — and run a
    # single map-side-combined distinct aggregate keyed on (tag, *cols).
    # Native value types (and therefore native sort order) are preserved
    # because each column keeps its own slot; nulls group as one key per
    # Arrow group_by, so per-column distincts ride one shuffle.
    def fan(b: pa.Table) -> pa.Table:
        pieces = []
        for c in cols:
            arrs = {"__col": pa.nulls(b.num_rows, pa.string())
                    .fill_null(c)}
            for c2 in cols:
                arrs[c2] = (b.column(c2).combine_chunks() if c2 == c
                            else pa.nulls(b.num_rows, b.schema.field(c2).type))
            pieces.append(pa.table(arrs))
        t = pa.concat_tables(pieces, promote_options="default")
        return t.group_by(["__col"] + cols).aggregate([])

    v = map_combine_aggregate(
        ds.select_columns(cols).map_batches(fan, batch_format="pyarrow"),
        keys=["__col"] + cols, count_alias="__n",
    ).materialize()
    # gate BEFORE the driver pull: per-column distinct counts are one tiny
    # aggregate over the (already-shuffled) vocabulary rows
    sizes = dict(map_combine_aggregate(
        v.select_columns(["__col"]), keys=["__col"], count_alias="nv",
    ).to_pandas()[["__col", "nv"]].itertuples(index=False, name=None))
    for c in cols:
        if int(sizes.get(c, 0)) > ENCODE_BROADCAST_MAX:
            raise ValueError(
                f"ordinal_encode: column {c!r} has {sizes[c]} distinct "
                f"values — above ENCODE_BROADCAST_MAX={ENCODE_BROADCAST_MAX}. "
                "Dense contiguous ids require the vocabulary to be "
                "broadcastable (an embedding table would have to hold it "
                "anyway); use feature_hash for stateless stable ids at "
                "this cardinality.")
    vt = pa.concat_tables(ray.get(list(v.to_arrow_refs())),
                          promote_options="default")
    vocabs: dict[str, np.ndarray] = {}
    for c in cols:
        sub = vt.filter(pc.equal(vt.column("__col"), c)).column(c)
        if sub.null_count:
            # NULL has no position in a sorted dictionary (and DENSE_RANK
            # over NULL is engine-specific) — fail fast like the md5 kernel
            raise ValueError(
                f"ordinal_encode: column {c!r} contains nulls — impute or "
                "filter before encoding")
        vocabs[c] = np.sort(sub.to_pandas().to_numpy())
    ref = ray.put(vocabs)

    def lookup(b: pa.Table) -> pa.Table:
        # hash-based C lookup (pd.Index.get_indexer), index built once per
        # worker process and cached by broadcast ref — not once per batch
        idxs = worker_cached("oe" + ref.hex(), lambda: {
            c: pd.Index(v) for c, v in ray.get(ref).items()})
        for c in cols:
            arr = b.column(c).to_pandas().to_numpy()
            pos = idxs[c].get_indexer(arr)
            b = b.append_column(c + suffix, pa.array(pos, pa.int64()))
        return b

    return ds.map_batches(lookup, batch_format="pyarrow")


def kfold_assign(ds: Dataset, id_col: str, k: int = 5,
                 fold_alias: str = "fold") -> Dataset:
    """K-fold cross-validation assignment: ``fold = md5(id) mod k`` (first
    4 digest bytes) — a pure function of the id, so the same row lands in
    the same fold across runs, engines, parallelism, and resume (the same
    determinism contract as ``hash_split_batch``).  One stateless scan."""

    def assign(b: pa.Table) -> pa.Table:
        return b.append_column(
            fold_alias,
            pa.array(md5_mod_array(b.column(id_col), k, n_bytes=4),
                     pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def negative_sample_pairs(pos: Dataset, user_col: str, item_col: str,
                          n_items: int, k: int = 2, item_base: int = 1,
                          neg_alias: str = "neg_item",
                          draws_alias: str = "n_draws") -> Dataset:
    """Deterministic negative sampling for link-prediction / recommender
    training (the corruption step of TransE's margin loss and NCF's
    implicit-feedback negatives): for every DISTINCT positive (user, item)
    edge, draw ``k`` candidate items ``md5(user|item|t) mod n_items +
    item_base`` (t = 1..k) and keep those that are not true positives of
    that user.  Pure function of the edge — the same negatives are drawn
    across runs, parallelism, resume, and the SQL oracle.

    Items must be the contiguous id range [item_base, item_base+n_items).
    Output: ``(user, neg_item, n_draws)`` — n_draws counts duplicate draws
    of the same negative (the caller may use it as a weight).

    Scale shape: positives are made distinct by a map-side-combined
    aggregate; candidate generation is one stateless scan (vectorized md5
    kernel over a k-fold row repeat); the positive-exclusion anti-join is
    expressed as a second flag-sum aggregate (candidates carry draw=1 /
    pos=0, positives draw=0 / pos=1; groups with pos=0 survive) — no join
    machinery, shuffle moves one row per distinct (user, item) pair."""
    from .relational import map_combine_aggregate

    distinct = map_combine_aggregate(
        pos.select_columns([user_col, item_col]),
        keys=[user_col, item_col], count_alias="__c")

    def candidates(b: pa.Table) -> pa.Table:
        u = b.column(user_col).to_numpy(zero_copy_only=False)
        i = b.column(item_col).to_numpy(zero_copy_only=False)
        n = len(u)
        ur = np.repeat(u, k)
        ir = np.repeat(i, k)
        tr = np.tile(np.arange(1, k + 1, dtype=np.int64), n)
        # int -> string via Arrow C++ casts (numpy .astype("U") is ~10x
        # slower and allocates fixed-width unicode)
        key = pc.binary_join_element_wise(
            pc.cast(pa.array(ur), pa.string()), pa.scalar("|"),
            pc.cast(pa.array(ir), pa.string()), pa.scalar("|"),
            pc.cast(pa.array(tr), pa.string()), pa.scalar(""))
        cand = md5_mod_array(key, n_items) + item_base
        return pa.table({
            user_col: pa.array(ur, pa.int64()),
            neg_alias: pa.array(cand, pa.int64()),
            "__draw": pa.array(np.ones(n * k, np.int64), pa.int64()),
            "__pos": pa.array(np.zeros(n * k, np.int64), pa.int64()),
        })

    def pos_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            user_col: pc.cast(b.column(user_col), pa.int64()),
            neg_alias: pc.cast(b.column(item_col), pa.int64()),
            "__draw": pa.array(np.zeros(n, np.int64), pa.int64()),
            "__pos": pa.array(np.ones(n, np.int64), pa.int64()),
        })

    cand = distinct.map_batches(candidates, batch_format="pyarrow")
    posm = distinct.map_batches(pos_rows, batch_format="pyarrow")
    merged = map_combine_aggregate(
        cand.union(posm), keys=[user_col, neg_alias],
        sums={"__draw": draws_alias, "__pos": "__np"})
    return (merged.filter(expr="__np == 0")
            .select_columns([user_col, neg_alias, draws_alias]))
