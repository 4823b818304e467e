"""Prefix-filtered set-similarity self-join (PPJoin-lite).

All pairs of documents whose token-set Jaccard similarity meets a threshold
— the exact-similarity complement to the probabilistic minhash-LSH family in
``ops/dedup.py`` (reference's dedup is exact-hash only, generation.py:227-229;
this is the standard scale-out upgrade from the set-similarity-join
literature: Chaudhuri et al. SSJoin 2006, Xiao et al. PPJoin 2008).

The naive plan (explode tokens, self-join on token, group by pair) moves
O(sum df^2) rows through the shuffle — stopword-grade terms alone make that
quadratic in the corpus.  Prefix filtering bounds it:

1. **Token-set projection** (one scan): per document, the distinct-token set
   (lowercase ``[a-z0-9]+`` — byte-identical to the inverted-index/oracle
   tokenization), its size ``dlen``, and the space-joined set as one string
   column.  Everything downstream reads this slim projection, never the raw
   text.
2. **Document frequencies**: (term, df) via map-side-combined counting (the
   vocabulary-sized shuffle class, same as tfidf).
3. **Prefix selection**: order every document's tokens by the global
   (df asc, term asc) order — rarest first — and keep only the first
   ``dlen - ceil(t * dlen) + 1`` tokens.  The prefix-filtering lemma
   guarantees any pair with J >= t shares at least one *prefix* token, and
   frequency ordering makes prefix tokens the rare ones, so the candidate
   join stays near-linear.  The (term -> df) map is broadcast when the
   vocabulary fits the ``SETJOIN_BROADCAST_MAX`` gate (selection
   happens map-side, no extra shuffle); beyond it the distributed path
   explodes (doc, term) rows, hash-joins df on, and regroups by doc hash —
   both paths pytest-gated bit-equal.
4. **Candidate generation**: prefix rows shuffle on hash(term) % B (bucketed,
   never raw-term groups), per-bucket vectorized self-merge produces ordered
   pairs (a < b), length-filtered by ``min_len >= t * max_len`` (a J >= t
   necessary condition), then deduplicated globally by (a, b) map-combine.
5. **Verification**: candidates join back to the token-set projection (the
   projection is pre-filtered to candidate doc ids when the id set fits the
   gate) and each surviving pair's exact intersection is counted.  Per-pair
   set intersection is the standard PPJoin verify step — it runs on the
   post-filter residue, not the corpus.

All similarity math is integer (ppm): a pair passes iff
``i * 1e6 >= t_ppm * (la + lb - i)`` and ships ``jaccard_ppm =
i * 1e6 // union`` — hash-exact against the SQL oracle at any parallelism.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from ..util import worker_cached
from .index import TERM_RE  # ONE tokenizer object across index/setjoin/dedup

PPM = 1_000_000

# plan gates of jaccard_selfjoin (see its docstring)
SETJOIN_BROADCAST_MAX = 4_000_000   # df vocabulary broadcast, terms
SETJOIN_DENSE_VOCAB_MAX = 4096      # dense distinct-set plan, terms
SETJOIN_DENSE_SETS_MAX = 131072     # dense plan, distinct sets at W=1
SETJOIN_BITMASK_MAX = 4096          # bitmask verify, terms
SETJOIN_MASK_BYTES_MAX = 268_435_456  # broadcast mask matrix, bytes
SETJOIN_VERIFY_MAX = 4_000_000      # rows pulled to the driver for verify


def _n_buckets() -> int:
    try:
        return max(4, 2 * int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 16


def tokenset_table(ds: Dataset, text_col: str = "text",
                   id_col: str = "doc_id") -> Dataset:
    """Slim projection (id, dlen, toks): distinct tokens per doc, sorted
    lexicographically, space-joined.  One scan of the raw text; every later
    stage reads this instead."""
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        toks, lens = [], []
        for t in texts:
            s = sorted(set(TERM_RE.findall(t.lower())))
            toks.append(" ".join(s))
            lens.append(len(s))
        return pa.table({
            id_col: batch.column(id_col),
            "dlen": pa.array(lens, pa.int64()),
            "toks": pa.array(toks, pa.string()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow")


def _explode(docsets: Dataset, id_col: str) -> Dataset:
    """(term, id, dlen) rows from the token-set projection — vectorized
    Arrow split/flatten, no per-token Python."""
    def fn(batch: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern(batch.column("toks"), " ")
        n = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        ids = np.repeat(batch.column(id_col).to_numpy(zero_copy_only=False), n)
        dls = np.repeat(batch.column("dlen").to_numpy(zero_copy_only=False), n)
        out = pa.table({
            "term": flat,
            id_col: pa.array(ids, pa.int64()),
            "dlen": pa.array(dls, pa.int64()),
        })
        # empty docs split to one "" token — drop them
        return out.filter(pc.not_equal(out.column("term"), ""))

    return docsets.map_batches(fn, batch_format="pyarrow")


def _prefix_len(dlen: np.ndarray, t_ppm: int) -> np.ndarray:
    """dlen - ceil(t * dlen) + 1, all-integer."""
    ceil_t = (t_ppm * dlen + (PPM - 1)) // PPM
    return dlen - ceil_t + 1


def _prefix_rows_broadcast(docsets: Dataset, df_sorted: pa.Table,
                           id_col: str, t_ppm: int) -> Dataset:
    """Map-side prefix selection: the (term -> df) vocabulary rides along as
    one broadcast Arrow table (term-sorted; lookups are searchsorted)."""
    ref = ray.put((df_sorted.column("term").to_numpy(zero_copy_only=False),
                   df_sorted.column("df").to_numpy(zero_copy_only=False)))

    def fn(batch: pa.Table) -> pa.Table:
        terms_sorted, dfs_sorted = worker_cached("sj" + ref.hex(),
                                                 lambda: ray.get(ref))

        tok_lists = pc.split_pattern(batch.column("toks"), " ")
        n = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists).to_numpy(zero_copy_only=False)
        ids = np.repeat(batch.column(id_col).to_numpy(zero_copy_only=False), n)
        dls = np.repeat(batch.column("dlen").to_numpy(zero_copy_only=False), n)
        keep_tok = flat != ""
        flat, ids, dls = flat[keep_tok], ids[keep_tok], dls[keep_tok]
        if len(flat) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             id_col: pa.array([], pa.int64()),
                             "dlen": pa.array([], pa.int64())})
        dfs = dfs_sorted[np.searchsorted(terms_sorted, flat)]
        # global (df, term) order within each doc; docs are contiguous after
        # the primary sort key, so cumcount = arange - first_row_of_doc
        order = np.lexsort((flat, dfs, ids))
        ids_s, flat_s, dls_s = ids[order], flat[order], dls[order]
        first = np.zeros(len(ids_s), dtype=bool)
        first[0] = True
        first[1:] = ids_s[1:] != ids_s[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(ids_s)))
        cum = np.arange(len(ids_s)) - np.repeat(starts, counts)
        keep = cum < _prefix_len(dls_s, t_ppm)
        return pa.table({"term": pa.array(flat_s[keep], pa.string()),
                         id_col: pa.array(ids_s[keep], pa.int64()),
                         "dlen": pa.array(dls_s[keep], pa.int64())})

    return docsets.map_batches(fn, batch_format="pyarrow")


def _prefix_rows_distributed(docsets: Dataset, df_tbl: Dataset,
                             id_col: str, t_ppm: int) -> Dataset:
    """Beyond-broadcast path: explode, hash-join df on, regroup by doc hash,
    per-bucket vectorized prefix selection."""
    from .relational import hash_join

    nb = _n_buckets()
    joined = hash_join(_explode(docsets, id_col), df_tbl, on="term")

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (pd.util.hash_array(
            batch.column(id_col).to_numpy(zero_copy_only=False))
            % nb).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def select_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "df", "term"], kind="mergesort")
        cum = g.groupby(id_col, sort=False).cumcount().to_numpy()
        keep = cum < _prefix_len(g["dlen"].to_numpy(), t_ppm)
        out = g.loc[keep, ["term", id_col, "dlen"]]
        return out.astype({id_col: "int64", "dlen": "int64"})

    return (joined.map_batches(bucketize, batch_format="pyarrow")
            .groupby("__b").map_groups(select_bucket, batch_format="pandas"))


# byte-popcount lookup table (numpy < 2.0 has no bitwise_count)
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount_rows(m: np.ndarray) -> np.ndarray:
    """Per-row popcount of a C-contiguous (n, W) uint64 matrix."""
    return _POP8[np.ascontiguousarray(m).view(np.uint8)].reshape(
        m.shape[0], -1).sum(axis=1, dtype=np.int64)


def _candidate_keys(prefix: Dataset, id_col: str, t_ppm: int,
                    nb: int) -> Dataset:
    """Distinct candidate pairs as PACKED int64 keys (a << 32 | b, a < b):
    prefix rows bucket on hash(term), per-bucket slab-wise numpy pair
    generation per term group (never a pandas frame merge — hot prefix terms
    in template-heavy corpora produce multi-million-row groups), length
    filter ``min >= t * max`` applied inside the slab, per-bucket np.unique,
    then a global map-side-combined distinct on the single key column.
    Requires non-negative ids < 2^31 (checked by the caller)."""
    from .relational import map_combine_aggregate

    def term_bucket(batch: pa.Table) -> pa.Table:
        b = (pd.util.hash_array(
            batch.column("term").to_pandas().to_numpy(dtype=object))
            % nb).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"k": pd.Series([], dtype="int64")})
        g = g.sort_values(["term", id_col], kind="mergesort")
        ids = g[id_col].to_numpy(dtype=np.int64)
        dls = g["dlen"].to_numpy(dtype=np.int64)
        terms = g["term"].to_numpy(dtype=object)
        first = np.ones(len(g), dtype=bool)
        first[1:] = terms[1:] != terms[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(g))
        out: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            gsz = e - s
            if gsz < 2:
                continue
            tid, tdl = ids[s:e], dls[s:e]
            # slab the left side so slab*gsz stays bounded
            step = max(1, 16_000_000 // gsz)
            for i0 in range(0, gsz, step):
                i1 = min(i0 + step, gsz)
                a = np.repeat(tid[i0:i1], gsz)
                b = np.tile(tid, i1 - i0)
                la = np.repeat(tdl[i0:i1], gsz)
                lb = np.tile(tdl, i1 - i0)
                keep = a < b
                keep &= np.minimum(la, lb) * PPM >= t_ppm * np.maximum(la, lb)
                if keep.any():
                    out.append(np.unique((a[keep] << 32) | b[keep]))
        if not out:
            return pd.DataFrame({"k": pd.Series([], dtype="int64")})
        return pd.DataFrame({"k": np.unique(np.concatenate(out))})

    cand = (prefix.map_batches(term_bucket, batch_format="pyarrow")
            .groupby("__b").map_groups(pairs_bucket, batch_format="pandas"))
    return map_combine_aggregate(
        cand, keys=["k"], count_alias="__n").drop_columns(["__n"])


def _hex_key_strings(m: np.ndarray) -> pa.Array:
    """(n, W) uint64 mask matrix -> Arrow utf8 keys: big-endian hex per row
    (16*W chars), so LEXICOGRAPHIC string order == numeric word order.
    Fully vectorized via the shared ``util.hex_string_array`` buffer-backed
    construction (one ``bytes.hex()``, no per-row strings)."""
    from ..util import hex_string_array

    n, w = m.shape
    raw = np.ascontiguousarray(m.astype(">u8")).tobytes()
    return hex_string_array(raw, n, 8 * w)


def _keys_to_masks(keys: np.ndarray, w: int) -> np.ndarray:
    """Inverse of _hex_key_strings: object array of hex keys -> (n, W)."""
    if not len(keys):
        return np.zeros((0, w), dtype=np.uint64)
    blob = bytes.fromhex("".join(keys.tolist()))
    return (np.frombuffer(blob, dtype=">u8")
            .reshape(len(keys), w).astype(np.uint64))


def _mask_words(batch: pa.Table, terms_sorted: np.ndarray, w: int,
                id_col: str) -> pa.Table:
    """Token-set string column -> W-word bitmask rows keyed by hex string."""
    tok_lists = pc.split_pattern(batch.column("toks"), " ")
    n = batch.num_rows
    cnt = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(tok_lists).to_numpy(zero_copy_only=False)
    row = np.repeat(np.arange(n, dtype=np.int64), cnt)
    ok = flat != ""
    flat, row = flat[ok], row[ok]
    bits = np.searchsorted(terms_sorted, flat).astype(np.int64)
    m = np.zeros((n, w), dtype=np.uint64)
    np.bitwise_or.at(
        m.reshape(-1), row * w + (bits >> 6),
        np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)))
    return pa.table({"m": _hex_key_strings(m), id_col: batch.column(id_col)})


def _dense_allpairs(docsets: Dataset, terms_sorted: np.ndarray, id_col: str,
                    t_ppm: int) -> Dataset | None:
    """Degenerate-vocabulary plan (vocabulary <= SETJOIN_DENSE_VOCAB_MAX
    terms): prefix filtering is useless when
    everything shares everything, so candidates approach all-pairs of the
    CORPUS.  Instead, collapse the corpus to its distinct token-SETS first
    (each set is a W-word bitmask over the term-sorted vocabulary, keyed by
    its order-preserving big-endian hex string — an exact map-combinable
    dedup), compare only distinct sets all-pairs with vectorized
    AND+popcount (cost bounded by n_sets^2 * W, independent of corpus row
    count), and expand passing set-pairs back to doc-pairs (output-sized
    work).  Returns None when the distinct-set count exceeds
    ``SETJOIN_DENSE_SETS_MAX`` or the broadcast set matrix would
    exceed ``SETJOIN_MASK_BYTES_MAX`` — the caller falls back to
    the prefix-filtered plan."""
    from .relational import hash_join, map_combine_aggregate

    sets_max = SETJOIN_DENSE_SETS_MAX
    if not sets_max:
        return None
    w = (len(terms_sorted) + 63) // 64
    # the all-pairs compare costs n_sets^2 * W word ops; SETS_MAX was tuned
    # at W=1, so hold the COMPUTE constant across vocab widths by scaling
    # the set bound with 1/sqrt(W) (the bytes gate below bounds memory, not
    # compute — without this a 4096-term corpus at the raw gate would do
    # 64x the tuned work instead of falling back to prefix filtering)
    sets_max = max(1, int(sets_max / w**0.5))

    member = docsets.select_columns([id_col, "toks"]).map_batches(
        lambda b: _mask_words(b, terms_sorted, w, id_col),
        batch_format="pyarrow").materialize()
    distinct = map_combine_aggregate(
        member, keys=["m"], count_alias="__cnt").materialize()
    n_sets = distinct.count()
    if (n_sets > sets_max
            or n_sets * (40 * w + 96) > SETJOIN_MASK_BYTES_MAX):
        return None

    dt = pa.concat_tables(
        ray.get(list(distinct.to_arrow_refs())), promote_options="default")
    keys = np.sort(dt.column("m").to_numpy(zero_copy_only=False))
    sets = _keys_to_masks(keys, w)
    lens = _popcount_rows(sets)
    ref = ray.put((keys, sets, lens))

    def compare(batch: pa.Table) -> pa.Table:
        ks, s, ln = worker_cached("sjds" + ref.hex(), lambda: ray.get(ref))
        idx = batch.column("id").to_numpy(zero_copy_only=False)
        ma_out, mb_out, j_out = [], [], []
        for i in idx:
            i = int(i)
            if ln[i] > 0:
                # diagonal: identical sets, J = 1.0 exactly
                ma_out.append(ks[i:i + 1])
                mb_out.append(ks[i:i + 1])
                j_out.append(np.array([PPM], dtype=np.int64))
            if i + 1 >= len(ks):
                continue
            inter = _popcount_rows(s[i] & s[i + 1:])
            union = ln[i] + ln[i + 1:] - inter
            keep = (union > 0) & (inter * PPM >= t_ppm * union)
            if keep.any():
                cntk = int(keep.sum())
                ma_out.append(np.repeat(ks[i:i + 1], cntk))
                mb_out.append(ks[i + 1:][keep])
                j_out.append(inter[keep] * PPM // union[keep])
        if not ma_out:
            return pa.table({"__ma": pa.array([], pa.string()),
                             "__mb": pa.array([], pa.string()),
                             "jaccard_ppm": pa.array([], pa.int64())})
        return pa.table({
            "__ma": pa.array(np.concatenate(ma_out), pa.string()),
            "__mb": pa.array(np.concatenate(mb_out), pa.string()),
            "jaccard_ppm": pa.array(np.concatenate(j_out), pa.int64())})

    set_pairs = ray.data.range(n_sets).map_batches(
        compare, batch_format="pyarrow", batch_size=256)

    n_docs = member.count()
    if SETJOIN_VERIFY_MAX and n_docs <= SETJOIN_VERIFY_MAX:
        mt = pa.concat_tables(
            ray.get(list(member.to_arrow_refs())), promote_options="default")
        # dense set ranks (hash-indexer, C-speed even for string keys): all
        # downstream sort/searchsorted work runs on int64 ranks, never on
        # the hex strings themselves
        key_index = pd.Index(keys)
        mem_rank = key_index.get_indexer(
            mt.column("m").to_numpy(zero_copy_only=False))
        mem_doc = mt.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((mem_doc, mem_rank))
        mem_rank, mem_doc = mem_rank[order], mem_doc[order]
        mref = ray.put((keys, mem_rank, mem_doc))

        def expand(batch: pa.Table) -> pa.Table:
            def build():
                ks, mr, md = ray.get(mref)
                return pd.Index(ks), mr, md

            kidx, mm, md = worker_cached("sjdm" + mref.hex(), build)
            ma = kidx.get_indexer(
                batch.column("__ma").to_numpy(zero_copy_only=False))
            mb = kidx.get_indexer(
                batch.column("__mb").to_numpy(zero_copy_only=False))
            jp = batch.column("jaccard_ppm").to_numpy(zero_copy_only=False)
            a_lo = np.searchsorted(mm, ma, "left")
            a_hi = np.searchsorted(mm, ma, "right")
            b_lo = np.searchsorted(mm, mb, "left")
            b_hi = np.searchsorted(mm, mb, "right")
            ca, cb = a_hi - a_lo, b_hi - b_lo
            tot = ca * cb
            cum = np.concatenate(([0], np.cumsum(tot)))
            rep = np.repeat(np.arange(len(ma)), tot)
            local = np.arange(cum[-1], dtype=np.int64) - cum[rep]
            cbr = cb[rep]
            da = md[a_lo[rep] + local // cbr]
            db = md[b_lo[rep] + local % cbr]
            same = (ma == mb)[rep]
            lo = np.where(same, da, np.minimum(da, db))
            hi = np.where(same, db, np.maximum(da, db))
            keep = lo < hi
            return pa.table({
                "doc_a": pa.array(lo[keep], pa.int64()),
                "doc_b": pa.array(hi[keep], pa.int64()),
                "jaccard_ppm": pa.array(jp[rep][keep], pa.int64())})

        return set_pairs.map_batches(expand, batch_format="pyarrow")

    # beyond-gate expansion: two hash joins on the set-key string (scale path)
    def ren(to: dict[str, str]):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [to.get(n, n) for n in batch.column_names])
        return fn

    j1 = hash_join(set_pairs.map_batches(ren({"__ma": "m"}),
                                         batch_format="pyarrow"),
                   member, on="m")
    j1 = j1.map_batches(ren({"m": "__ma", id_col: "doc_a", "__mb": "m"}),
                        batch_format="pyarrow")
    j2 = hash_join(j1, member, on="m")

    def orient(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column(id_col).to_numpy(zero_copy_only=False)
        same = (batch.column("__ma").to_numpy(zero_copy_only=False)
                == batch.column("m").to_numpy(zero_copy_only=False))
        lo = np.where(same, da, np.minimum(da, db))
        hi = np.where(same, db, np.maximum(da, db))
        keep = lo < hi
        return pa.table({
            "doc_a": pa.array(lo[keep], pa.int64()),
            "doc_b": pa.array(hi[keep], pa.int64()),
            "jaccard_ppm": pa.array(
                batch.column("jaccard_ppm").to_numpy(
                    zero_copy_only=False)[keep], pa.int64())})

    return j2.map_batches(orient, batch_format="pyarrow")


def _verify_bitmask(cand: Dataset, docsets: Dataset, terms_sorted: np.ndarray,
                    id_col: str, t_ppm: int) -> Dataset:
    """Dense-vocabulary verification: every doc's token set as a W-word
    bitmask over the (term-sorted) vocabulary, the whole (id -> mask) table
    broadcast once, intersections via vectorized AND+popcount — no joins,
    no per-pair Python.  Caller gates on vocabulary size and mask bytes."""
    V = len(terms_sorted)
    W = (V + 63) // 64

    def mask_batch(batch: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern(batch.column("toks"), " ")
        n = batch.num_rows
        cnt = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists).to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(n, dtype=np.int64), cnt)
        ok = flat != ""
        flat, row = flat[ok], row[ok]
        bits = np.searchsorted(terms_sorted, flat).astype(np.int64)
        m = np.zeros((n, W), dtype=np.uint64)
        np.bitwise_or.at(
            m.reshape(-1), row * W + (bits >> 6),
            np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)))
        cols = {id_col: batch.column(id_col)}
        for w in range(W):
            cols[f"__m{w}"] = pa.array(m[:, w])
        return pa.table(cols)

    parts = docsets.select_columns([id_col, "toks"]).map_batches(
        mask_batch, batch_format="pyarrow")
    ids_list, mask_list = [], []
    for blk in parts.iter_batches(batch_format="pyarrow"):
        ids_list.append(blk.column(id_col).to_numpy(zero_copy_only=False))
        mask_list.append(np.stack(
            [blk.column(f"__m{w}").to_numpy(zero_copy_only=False)
             for w in range(W)], axis=1))
    ids = np.concatenate(ids_list)
    masks = np.concatenate(mask_list, axis=0)
    order = np.argsort(ids, kind="stable")
    ids, masks = ids[order], np.ascontiguousarray(masks[order])
    lens = _popcount_rows(masks)
    ref = ray.put((ids, masks, lens))

    def verify(batch: pa.Table) -> pa.Table:
        sids, smasks, slens = worker_cached("sjbm" + ref.hex(),
                                            lambda: ray.get(ref))
        k = batch.column("k").to_numpy(zero_copy_only=False)
        a = k >> 32
        b = k & 0x7FFFFFFF
        ia = np.searchsorted(sids, a)
        ib = np.searchsorted(sids, b)
        inter = _popcount_rows(smasks[ia] & smasks[ib])
        la, lb = slens[ia], slens[ib]
        union = la + lb - inter
        keep = (union > 0) & (inter * PPM >= t_ppm * union)
        jppm = inter[keep] * PPM // union[keep]
        return pa.table({"doc_a": pa.array(a[keep], pa.int64()),
                         "doc_b": pa.array(b[keep], pa.int64()),
                         "jaccard_ppm": pa.array(jppm, pa.int64())})

    return cand.map_batches(verify, batch_format="pyarrow")


def _verify_join(cand: Dataset, docsets: Dataset, id_col: str,
                 t_ppm: int) -> Dataset:
    """General-vocabulary verification: candidates hash-join the token-set
    projection twice (projection pre-pruned to candidate docs under the
    ``SETJOIN_VERIFY_MAX`` gate) and each pair's exact
    intersection is counted on the post-filter residue — the standard
    PPJoin verify step."""
    from .relational import hash_join

    def unpack(batch: pa.Table) -> pa.Table:
        k = batch.column("k").to_numpy(zero_copy_only=False)
        return pa.table({"doc_a": pa.array(k >> 32, pa.int64()),
                         "doc_b": pa.array(k & 0x7FFFFFFF, pa.int64())})

    cand = cand.map_batches(unpack, batch_format="pyarrow").materialize()

    sets = docsets.select_columns([id_col, "toks"])
    if SETJOIN_VERIFY_MAX and cand.count() <= SETJOIN_VERIFY_MAX:
        ids = pa.concat_tables(
            ray.get(list(cand.to_arrow_refs())), promote_options="default")
        id_set = pc.unique(pa.chunked_array(
            [ids.column("doc_a").combine_chunks(),
             ids.column("doc_b").combine_chunks()]))
        idref = ray.put(id_set)

        def keep_cand_docs(batch: pa.Table) -> pa.Table:
            vals = worker_cached("sjid" + idref.hex(), lambda: ray.get(idref))
            return batch.filter(pc.is_in(batch.column(id_col), value_set=vals))

        sets = sets.map_batches(keep_cand_docs, batch_format="pyarrow")

    def rename(to: dict[str, str]):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [to.get(n, n) for n in batch.column_names])
        return fn

    j1 = hash_join(
        cand.map_batches(rename({"doc_a": id_col}), batch_format="pyarrow"),
        sets, on=id_col)
    j1 = j1.map_batches(rename({id_col: "doc_a", "toks": "toks_a",
                                "doc_b": id_col}), batch_format="pyarrow")
    j2 = hash_join(j1, sets, on=id_col)
    j2 = j2.map_batches(rename({id_col: "doc_b", "toks": "toks_b"}),
                        batch_format="pyarrow")

    def verify(batch: pa.Table) -> pa.Table:
        # vectorized pairwise set intersection: factorize every token in the
        # block once, key each (pair row, token code) side-wise, and ONE
        # sorted intersect over the block's token occurrences replaces the
        # per-pair Python set math.  Token sets are distinct-by-construction
        # (tokenset_table), so the per-side keys are unique.  An empty toks
        # string contributes the "" token on both sides — identical to the
        # set-of-split behavior this replaced (bit-parity).
        n = batch.num_rows
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        ta_l = pc.split_pattern(batch.column("toks_a"), " ")
        tb_l = pc.split_pattern(batch.column("toks_b"), " ")
        la = pc.list_value_length(ta_l).to_numpy(zero_copy_only=False)
        lb = pc.list_value_length(tb_l).to_numpy(zero_copy_only=False)
        la = la.astype(np.int64) if n else np.zeros(0, np.int64)
        lb = lb.astype(np.int64) if n else np.zeros(0, np.int64)
        fa = pc.list_flatten(ta_l).to_numpy(zero_copy_only=False)
        fb = pc.list_flatten(tb_l).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(np.concatenate([fa, fb]))
        nv = max(len(uniq), 1)
        ka = (np.repeat(np.arange(n, dtype=np.int64), la) * nv
              + codes[:len(fa)])
        kb = (np.repeat(np.arange(n, dtype=np.int64), lb) * nv
              + codes[len(fa):])
        hits = np.intersect1d(ka, kb, assume_unique=True)
        inter = np.bincount(hits // nv, minlength=n).astype(np.int64)
        union = la + lb - inter
        keep = (union > 0) & (inter * PPM >= t_ppm * union)
        jppm = inter[keep] * PPM // union[keep]
        return pa.table({"doc_a": pa.array(da[keep], pa.int64()),
                         "doc_b": pa.array(db[keep], pa.int64()),
                         "jaccard_ppm": pa.array(jppm, pa.int64())})

    return j2.map_batches(verify, batch_format="pyarrow")


def jaccard_selfjoin(ds: Dataset, threshold_ppm: int = 900_000,
                     text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """All unordered pairs (doc_a < doc_b) with token-set Jaccard >= threshold.

    Returns (doc_a, doc_b, jaccard_ppm) — jaccard_ppm is the exact integer
    ``|a&b| * 1e6 // |a|b|``, so output hashes match the SQL oracle bit-for-
    bit at any parallelism.

    Plan selection (all plans pytest-gated bit-equal):

    - **dense distinct-set** (vocabulary <= ``SETJOIN_DENSE_VOCAB_MAX``,
      distinct sets <= ``SETJOIN_DENSE_SETS_MAX``):
      skip candidate generation entirely — dedup the corpus to its distinct
      W-word token-set bitmasks, compare distinct sets all-pairs with
      AND+popcount, expand winners back to doc pairs (see _dense_allpairs).
      This is the template-corpus fast path (27x at sf0.1).

    - **bitmask** (vocabulary <= ``SETJOIN_BITMASK_MAX`` and mask bytes
      <= ``SETJOIN_MASK_BYTES_MAX``): every
      doc's set becomes a W-word bitmask over the term-sorted vocabulary,
      broadcast once; intersections are vectorized AND+popcount with no
      joins at all.  Template-heavy corpora (tiny vocabularies, everything
      similar to everything) defeat prefix filtering — candidates approach
      all-pairs — and this path keeps even that degenerate case linear-cost
      per candidate.
    - **join** (general vocabularies): candidates hash-join the token-set
      projection twice and verify per pair on the post-filter residue.

    Doc ids must be non-negative and < 2^31 (candidate keys pack two ids
    into one int64); beyond that, pre-map ids through a dense rank."""
    from .relational import map_combine_aggregate

    t_ppm = int(threshold_ppm)
    nb = _n_buckets()
    docsets = tokenset_table(ds, text_col, id_col).materialize()
    lo, hi = docsets.min(id_col), docsets.max(id_col)
    if lo is not None and (lo < 0 or hi >= 1 << 31):
        raise ValueError(
            "jaccard_selfjoin requires 0 <= id < 2^31 (packed pair keys); "
            "densify ids first")

    df_tbl = map_combine_aggregate(
        _explode(docsets, id_col), keys=["term"], count_alias="df")

    df_tbl = df_tbl.materialize()
    n_vocab = df_tbl.count()
    vocab = None
    if SETJOIN_BROADCAST_MAX and n_vocab <= SETJOIN_BROADCAST_MAX:
        vocab = pa.concat_tables(
            ray.get(list(df_tbl.to_arrow_refs())), promote_options="default")
        vocab = vocab.sort_by("term")
        if n_vocab <= SETJOIN_DENSE_VOCAB_MAX:
            terms_sorted = vocab.column("term").to_numpy(zero_copy_only=False)
            res = _dense_allpairs(docsets, terms_sorted, id_col, t_ppm)
            if res is not None:
                return res
        prefix = _prefix_rows_broadcast(docsets, vocab, id_col, t_ppm)
    else:
        prefix = _prefix_rows_distributed(docsets, df_tbl, id_col, t_ppm)

    cand = _candidate_keys(prefix, id_col, t_ppm, nb)

    if vocab is not None and n_vocab <= SETJOIN_BITMASK_MAX:
        W = (n_vocab + 63) // 64
        n_docs = docsets.count()
        if n_docs * (W * 8 + 16) <= SETJOIN_MASK_BYTES_MAX:
            terms_sorted = vocab.column("term").to_numpy(zero_copy_only=False)
            return _verify_bitmask(cand, docsets, terms_sorted, id_col, t_ppm)
    return _verify_join(cand, docsets, id_col, t_ppm)
