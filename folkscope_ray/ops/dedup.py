"""Deduplication operators for large text corpora.

Beyond the reference's exact-hash dedup (md5 keys generation.py:227-229; sha1
eids object.py:130), this module implements the dedup family a training-data
pipeline needs, each as a streaming Ray Data composition:

- exact           : content-hash -> hash-partitioned groupby -> min-id winner
- minhash_lsh     : shingle -> minhash -> band groupby -> union-find clusters
- simhash         : 64-bit simhash + hamming-radius bucketing
- ngram_jaccard   : all-pairs verification within LSH candidate buckets
- embedding near-dup lives in ops/similarity.py (cosine radius)

All follow the same skew discipline as canonicalization: per-batch partial
dedup before any shuffle, and candidate generation that emits O(group)-size
star edges rather than O(group²) cliques.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from ..util import worker_cached
from ray.data.aggregate import Count, Min


def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    # shared buffer-walking md5 kernel (ops/split.py): the Arrow string
    # buffer IS the utf-8 bytes, so no per-row str/encode round-trip
    from .split import md5_hex_array

    return batch.append_column(
        "content_hash", md5_hex_array(batch.column(text_col)))


def exact_dedup(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Keep the min-id representative per exact content hash.

    hash -> groupby(hash).aggregate(Min(id)) (partial+final combine; the
    groupby only moves (hash, id) pairs, never the text) -> broadcast-free
    semi-join back is unnecessary because we return (content_hash, doc_id,
    n_dupes); callers needing full rows filter by the winner id set.
    """
    hashed = ds.map_batches(
        lambda b: add_content_hash(b, text_col), batch_format="pyarrow"
    )
    slim = hashed.select_columns(["content_hash", id_col])
    return slim.groupby("content_hash").aggregate(
        Min(id_col, alias_name="keep_id"), Count(alias_name="n_dupes")
    )


# ------------------------------------------------------------------ minhash

def _text_shingles(text: str, k: int = 5) -> np.ndarray:
    """Hashed character k-shingles of a lowercased text (FNV-1a per shingle).

    ASCII fast path: the k FNV rounds run unrolled over a numpy sliding
    window of the text's bytes — bit-identical to the scalar loop (byte
    windows == char windows when every char is one byte).  Multi-byte texts
    fall back to the exact per-shingle loop."""
    t = " ".join(text.lower().split())
    if len(t) < k:
        t = t.ljust(k)
    raw = t.encode("utf-8")
    if len(raw) == len(t):
        buf = np.frombuffer(raw, dtype=np.uint8).astype(np.uint64)
        n = len(t) - k + 1
        win = np.lib.stride_tricks.sliding_window_view(buf, k)[:n]
        h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
        prime = np.uint64(0x100000001B3)
        with np.errstate(over="ignore"):
            for j in range(k):
                h = (h ^ win[:, j]) * prime
        return h
    out = np.empty(len(t) - k + 1, dtype=np.uint64)
    for i in range(len(t) - k + 1):
        h = 0xCBF29CE484222325
        for b in t[i : i + k].encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        out[i] = h
    return out


_M61 = (1 << 61) - 1
_rng = np.random.RandomState(7)
_A = _rng.randint(1, _M61, size=128, dtype=np.int64)
_B = _rng.randint(0, _M61, size=128, dtype=np.int64)


def _perm_family(n_perms: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``n_perms`` coefficients of the minhash permutation family.
    The first 128 are the pinned seed-7 values (committed fixtures hash
    them); beyond 128 the family EXTENDS deterministically (seed 7001)
    instead of silently truncating — bands*rows > 128 used to reshape-crash
    in minhash_bands_batch."""
    global _A, _B
    if n_perms > len(_A):
        # regenerate the whole extension from the START of two dedicated
        # streams (one per coefficient array) so the k-th coefficient is
        # identical no matter which n_perms was requested first — a
        # grow-by-delta draw would make values depend on call order
        grow = n_perms - 128
        _A = np.concatenate([_A[:128], np.random.RandomState(7001)
                             .randint(1, _M61, size=grow, dtype=np.int64)])
        _B = np.concatenate([_B[:128], np.random.RandomState(7002)
                             .randint(0, _M61, size=grow, dtype=np.int64)])
    return _A[:n_perms], _B[:n_perms]


def doc_minhash(text: str, n_perms: int = 128) -> np.ndarray:
    sh = np.unique(_text_shingles(text))
    a, b = _perm_family(n_perms)
    vals = (sh[:, None].astype(np.int64) * a + b) % _M61
    return vals.min(axis=0)


def minhash_bands_batch(batch: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id", bands: int = 16, rows: int = 8) -> pa.Table:
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    n = len(ids)
    sigs = np.empty((n, bands, rows), dtype=np.uint64)
    for r, t in enumerate(texts):
        sigs[r] = doc_minhash(t, bands * rows).reshape(bands, rows)
    # FNV-fold each band's row-signature, unrolled over the rows axis —
    # bit-identical to the scalar loop (uint64 wraparound)
    h = np.full((n, bands), 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for r in range(rows):
            h = (h ^ sigs[:, :, r]) * prime
    return pa.table(
        {
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array(h.reshape(-1)),
            id_col: pa.array(np.repeat(np.asarray(ids, dtype=np.int64), bands)),
        }
    )


def minhash_lsh_candidate_edges(ds: Dataset, text_col: str = "text",
                                id_col: str = "doc_id", bands: int = 16,
                                rows: int = 8) -> Dataset:
    """Candidate near-dup edges (a, b): shingle+minhash per batch -> explode
    to band rows -> co-locate LSH buckets by coarse hash partition -> ONE
    vectorized numpy sweep per partition emits O(group)-size star edges
    (min-id root -> member; never the O(group²) clique).  A per-LSH-bucket
    ``map_groups`` would pay a Python/pandas call per bucket (~n_docs × bands
    tiny groups — pathological); hashing buckets into ~rows/200k coarse
    partitions keeps the shuffle granularity data-tied and the sweep
    vectorized.  Edge count stays bounded by n_docs × bands."""
    band_ds = ds.map_batches(
        lambda b: minhash_bands_batch(b, text_col, id_col, bands, rows),
        batch_format="pyarrow",
    ).materialize()
    n_rows = band_ds.count()
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    nb = int(max(2 * cpus, min(n_rows // 200_000 + 1, 65_536)))

    def bucketize(b: pa.Table) -> pa.Table:
        h = b.column("band_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        bi = b.column("band_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            mix = (h ^ (bi * np.uint64(0x9E3779B97F4A7C15))) & np.uint64(0x7FFFFFFF)
        part = (mix % np.uint64(nb)).astype(np.int32)
        return b.append_column("__part", pa.array(part, pa.int32()))

    def star_partition(group) -> pa.Table:
        b = np.asarray(group["band_id"], dtype=np.int64)
        h = np.asarray(group["band_hash"], dtype=np.uint64)
        i = np.asarray(group[id_col], dtype=np.int64)
        order = np.lexsort((i, h, b))
        b, h, i = b[order], h[order], i[order]
        first = np.ones(len(b), dtype=bool)
        first[1:] = (b[1:] != b[:-1]) | (h[1:] != h[:-1])
        root = i[np.maximum.accumulate(np.where(first, np.arange(len(b)), 0))]
        member = ~first
        return pa.table({"a": pa.array(root[member], pa.int64()),
                         "b": pa.array(i[member], pa.int64())})

    return (
        band_ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(star_partition, batch_format="numpy")
    )


def minhash_lsh_components_ds(ds: Dataset, text_col: str = "text",
                              id_col: str = "doc_id", bands: int = 16,
                              rows: int = 8) -> Dataset:
    """Near-dup connected components as a DATASET (id_col, component) —
    fully distributed: star candidate edges -> iterative min-label
    propagation (ops/components.py) -> left-join labels back onto every id
    (isolated docs are their own component).  Nothing unbounded ever lands
    on the driver, so this is the 100-TB path."""
    from .components import attach_components, connected_components

    edges = minhash_lsh_candidate_edges(ds, text_col, id_col, bands, rows)
    labels = connected_components(edges)
    return attach_components(ds.select_columns([id_col]), labels, id_col)


def minhash_lsh_components(ds: Dataset, text_col: str = "text",
                           id_col: str = "doc_id", bands: int = 16,
                           rows: int = 8) -> dict[int, int]:
    """{doc_id: component_root_id} — driver-side convenience wrapper around
    :func:`minhash_lsh_components_ds` for small corpora / tests.  The root is
    the numeric min id of the component."""
    out = minhash_lsh_components_ds(ds, text_col, id_col, bands, rows).to_pandas()
    return {int(i): int(c) for i, c in zip(out[id_col], out["component"])}


# ------------------------------------------------------------------ simhash

_FNV_CACHE: dict[str, int] = {}


def _fnv64(tok: str) -> int:
    """FNV-1 64-bit of the token's UTF-8 bytes, memoized per worker process —
    token vocabularies are Zipfian, so the cache turns the per-byte Python
    loop into a dict hit for almost every occurrence."""
    h = _FNV_CACHE.get(tok)
    if h is None:
        h = 0xCBF29CE484222325
        for byt in tok.encode("utf-8"):
            h = ((h ^ byt) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        if len(_FNV_CACHE) < 4_000_000:  # bound worker memory
            _FNV_CACHE[tok] = h
    return h


def simhash64(text: str) -> int:
    """Classic 64-bit simhash over whitespace tokens.  Token hashes are
    memoized; the ±1 bit accumulation is one vectorized unpackbits +
    count-weighted sum over the UNIQUE tokens (occurrences weight the vote,
    identical to per-occurrence accumulation)."""
    toks = text.lower().split()
    if not toks:
        return 0
    uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
    hs = np.fromiter((_fnv64(t) for t in uniq), dtype=np.uint64, count=len(uniq))
    bits = np.unpackbits(hs.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    acc = ((2 * bits.astype(np.int64) - 1) * counts[:, None]).sum(axis=0)
    out = 0
    for i in np.nonzero(acc > 0)[0]:
        out |= 1 << (63 - int(i))
    return out


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    sims = [simhash64(t) for t in batch.column(text_col).to_pylist()]
    return batch.append_column("simhash", pa.array(sims, pa.uint64()))


def word_jaccard_vs_query(ds: Dataset, query_text: str, text_col: str = "text",
                          id_col: str = "doc_id",
                          quantize_digits: int = 6) -> Dataset:
    """Word-set Jaccard similarity of every row against one broadcast query
    document: (id_col, jaccard).  The per-batch kernel is fully vectorized —
    Arrow regex split, one ``pd.factorize`` over the flattened token column,
    distinct (row, token) pairs via ``np.unique`` on a composite key, and
    ``np.bincount`` row reductions — no per-row Python set construction, so
    cost is O(total tokens in batch) with numpy constants.

    Tokens are non-whitespace runs of ``lower(text)`` (matching DuckDB
    ``regexp_extract_all(lower(text), '\\S+')``); jaccard is quantized to
    ``quantize_digits`` with half-up rounding so the result hash-matches the
    SQL oracle bit-exactly.  This is the exact-verification half of the
    near-dup family (minhash-LSH generates candidates; this scores them) —
    reference analogue: assertion-text overlap filtering, pattern_match.py."""
    import re as _re

    # tokenize the query with RE2 semantics (\S = non-ASCII-whitespace),
    # matching the Arrow/DuckDB doc side: Python str.split() breaks on
    # Unicode whitespace (NBSP etc.), so a doc identical to the query
    # could otherwise score < 1.0
    q_tokens = np.unique(
        _re.findall(r"[^ \t\n\r\f\v]+", query_text.lower()))
    q_ref = ray.put(q_tokens)
    scale = float(10 ** quantize_digits)

    def jaccard_batch(batch: pa.Table) -> pa.Table:
        # stateless task; the broadcast query-token array resolves once per
        # worker process via worker_cached (no actor-pool spin-up for one
        # ray.get of state)
        import pandas as pd

        q = worker_cached("wj" + q_ref.hex(), lambda: ray.get(q_ref))
        n_q = len(q)
        n = batch.num_rows
        ids = batch.column(id_col)
        if n == 0:
            return pa.table({id_col: ids,
                             "jaccard": pa.array([], pa.float64())})
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column(text_col)), pattern=r"\s+")
        toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        row_ids = np.repeat(np.arange(n, dtype=np.int64), lengths)
        nonempty = flat != ""  # split emits '' at whitespace boundaries
        codes, uniques = pd.factorize(flat[nonempty])
        rid = row_ids[nonempty]
        n_codes = max(len(uniques), 1)
        # distinct (row, token) pairs in one vectorized pass
        key = np.unique(rid * n_codes + codes)
        pair_rid = key // n_codes
        pair_code = (key % n_codes).astype(np.int64)
        len_a = np.bincount(pair_rid, minlength=n)
        in_q = np.isin(np.asarray(uniques, dtype=object), q)
        hit = in_q[pair_code]
        n_int = np.bincount(pair_rid[hit], minlength=n)
        denom = (len_a + n_q - n_int).astype(np.float64)
        denom[denom == 0] = 1.0  # empty doc vs empty query -> 0.0
        j = n_int / denom
        j = np.floor(j * scale + 0.5) / scale  # half-up, mirrors SQL round()
        return pa.table({id_col: ids, "jaccard": pa.array(j, pa.float64())})

    return ds.map_batches(jaccard_batch, batch_format="pyarrow")


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Word n-gram Jaccard similarity."""
    ta, tb = a.lower().split(), b.lower().split()

    def grams(t):
        if len(t) < n:
            return {tuple(t)}
        return {tuple(t[i : i + n]) for i in range(len(t) - n + 1)}

    ga, gb = grams(ta), grams(tb)
    inter = len(ga & gb)
    return inter / (len(ga) + len(gb) - inter) if inter else 0.0


# ------------------------------------------------------- chunk-level exact

CHUNK_IDX_BITS = 20  # composite key (doc_id << 20 | chunk_idx): ≤1M chunks/doc


def chunk_dedup(ds: Dataset, id_col: str = "doc_id", text_col: str = "text",
                chunk_tokens: int = 20) -> Dataset:
    """Sub-document exact dedup: the chunked variant of ExactSubstr (Lee et
    al. 2022, "Deduplicating Training Data Makes Language Models Better") —
    repeated passages are removed EVERYWHERE except their first occurrence,
    not just whole-document duplicates.

    Semantics: tokenize ``[a-z0-9]+`` on the lowercased text, split into
    consecutive non-overlapping ``chunk_tokens``-token chunks (tail kept),
    keep each distinct chunk only at its globally first occurrence (min
    (doc_id, chunk_idx)), reassemble each doc from its surviving chunks in
    order.  A fully-duplicated document drops out entirely (zero surviving
    chunks) — that IS the dedup semantic.

    Execution shape (100-TB contract):

    - chunking is one stateless ``map_batches`` scan;
    - first-occurrence-wins is a MIN aggregate over a composite int64
      ``(doc_id << 20) | chunk_idx`` — map-side combined per block
      (``map_combine_aggregate``), so the all-to-all shuffle moves one row
      per DISTINCT chunk per block, never per occurrence;
    - reassembly hash-buckets by doc id and runs ONE vectorized pandas
      groupby-join per bucket (per-doc ``map_groups`` pays Ray's per-group
      dispatch thousands of times; bucketing amortizes it — measured
      9.8s -> 2.5s at sf0.1).

    The reference suffix-array approach finds arbitrary-offset repeats;
    chunking trades that recall for a shuffle-only plan with no global
    suffix sort — the standard large-scale compromise.  Output:
    ``(doc_id, n_kept, text_dedup)``."""
    from .index import TERM_RE
    from .relational import map_combine_aggregate

    def chunks(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) and (int(ids.min()) < 0
                         or int(ids.max()) >= 1 << (63 - CHUNK_IDX_BITS)):
            # the jaccard_selfjoin packed-key discipline: out-of-range ids
            # would silently migrate chunks between documents
            raise ValueError(
                "chunk_dedup requires 0 <= doc_id < 2^43 (packed "
                "(doc_id << 20 | chunk_idx) keys); densify ids first")
        out_ck, out_chunk = [], []
        for i, t in zip(ids, batch.column(text_col).to_pylist()):
            toks = TERM_RE.findall(t.lower())
            n_chunks = (len(toks) + chunk_tokens - 1) // chunk_tokens
            if n_chunks >= 1 << CHUNK_IDX_BITS:
                raise ValueError(
                    f"chunk_dedup: doc {int(i)} has {n_chunks} chunks — "
                    f"the packed key holds < 2^{CHUNK_IDX_BITS}; raise "
                    "chunk_tokens or split the document upstream")
            for j in range(0, len(toks), chunk_tokens):
                out_ck.append((int(i) << CHUNK_IDX_BITS) | (j // chunk_tokens))
                out_chunk.append(" ".join(toks[j:j + chunk_tokens]))
        return pa.table({"ck": pa.array(out_ck, pa.int64()),
                         "chunk": pa.array(out_chunk, pa.string())})

    survivors = map_combine_aggregate(
        ds.select_columns([id_col, text_col])
        .map_batches(chunks, batch_format="pyarrow"),
        keys=["chunk"], mins={"ck": "ck"},
    )

    import pandas as pd

    try:
        nb = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
    except Exception:
        nb = 8

    def decompose(b: pa.Table) -> pa.Table:
        ck = b.column("ck").to_numpy(zero_copy_only=False)
        ids = ck >> CHUNK_IDX_BITS
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "chunk_idx": pa.array(ck & ((1 << CHUNK_IDX_BITS) - 1), pa.int64()),
            "chunk": b.column("chunk"),
            "__bucket": pa.array((ids % nb).astype(np.int32), pa.int32()),
        })

    def reassemble_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "chunk_idx"], kind="mergesort")
        out = (g.groupby(id_col, sort=True)
               .agg(n_kept=("chunk", "size"),
                    text_dedup=("chunk", " ".join))
               .reset_index())
        out["n_kept"] = out["n_kept"].astype(np.int64)
        return out

    return (survivors.map_batches(decompose, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(reassemble_bucket, batch_format="pandas")
            .select_columns([id_col, "n_kept", "text_dedup"]))


# ------------------------------------------ duplicate-substring detection

_DG_MOD1 = (1 << 31) - 1   # two 31-bit primes: matmul sums stay < 2^57
_DG_MOD2 = 2147483629      # and the packed pair stays < 2^62
_DG_B1, _DG_B2 = 1000003, 999979


_DG_KERNELS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _dg_kernels(gram_len: int) -> tuple[np.ndarray, np.ndarray]:
    k = _DG_KERNELS.get(gram_len)
    if k is None:
        k = (np.array([pow(_DG_B1, gram_len - 1 - j, _DG_MOD1)
                       for j in range(gram_len)], dtype=np.int64),
             np.array([pow(_DG_B2, gram_len - 1 - j, _DG_MOD2)
                       for j in range(gram_len)], dtype=np.int64))
        _DG_KERNELS[gram_len] = k
    return k


def _gram_keys(text: str, gram_len: int) -> np.ndarray:
    """128-bit-quality rolling keys for every length-``gram_len`` CHARACTER
    window of ``text``: two independent Rabin-Karp hashes (31-bit primes)
    packed into one int64 (< mod1*mod2 ~ 2^62).  Windows slide over the
    UTF-32 code-point array, so window i == SQL ``substr(text, i+1,
    gram_len)`` even for multi-byte input.  The pow-kernel pair is cached
    per gram_len (module-level), not rebuilt per document."""
    arr = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32) \
        .astype(np.int64)
    if len(arr) < gram_len:
        return np.empty(0, dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(arr, gram_len)
    k1, k2 = _dg_kernels(gram_len)
    h1 = (win % _DG_MOD1) @ k1 % _DG_MOD1
    h2 = (win % _DG_MOD2) @ k2 % _DG_MOD2
    return h1 * np.int64(_DG_MOD2) + h2


def dup_gram_counts(ds: Dataset, gram_len: int = 50,
                    text_col: str = "text",
                    id_col: str = "doc_id") -> Dataset:
    """ExactSubstr DETECTION (Lee et al. 2022, arXiv:2107.06499 — any
    duplicated span >= gram_len contains a duplicated gram_len-gram): for
    each document, the number of window start positions whose
    ``gram_len``-character window also occurs in ANOTHER document.
    Documents with zero such windows emit no row (both engines).

    Execution shape: per-block (gram-key, doc) partials with block-local
    combine — the shuffle moves one ~24-byte row per DISTINCT (gram, doc),
    never the gram strings (the 50x corpus blow-up the naive n-gram join
    pays); cross-doc matching is one groupby(gram-key); the per-doc total
    is a second bounded aggregate.  Keys are double-Rabin-Karp packed into
    int64 (~2^-62 pairwise collision odds — ~1e-5 expected collisions at
    1e12 distinct grams; the exactness trade documented for the chunked
    variant at ops/dedup.py chunk_dedup applies).

    Output: ``(doc_id, n_dup_grams)``.  Reference analogue: none (the
    reference dedups whole eventualities only); SQL oracle: the exact
    substr self-join at sf0.01."""
    from .relational import map_combine_aggregate

    def partials(b: pa.Table) -> pa.Table:
        import pandas as pd

        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        keys_l, docs_l = [], []
        for i, t in enumerate(b.column(text_col).to_pylist()):
            k = _gram_keys(t, gram_len)
            if len(k):
                keys_l.append(k)
                docs_l.append(np.full(len(k), ids[i], dtype=np.int64))
        if not keys_l:
            return pa.table({"gkey": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "__n": pa.array([], pa.int64())})
        g = (pd.DataFrame({"gkey": np.concatenate(keys_l),
                           id_col: np.concatenate(docs_l)})
             .groupby(["gkey", id_col], sort=False).size().reset_index())
        return pa.table({"gkey": pa.array(g["gkey"], pa.int64()),
                         id_col: pa.array(g[id_col], pa.int64()),
                         "__n": pa.array(g[0].astype(np.int64), pa.int64())})

    import pandas as pd

    # ONE all-to-all for the whole operator.  The per-block partials are
    # already globally-distinct (gkey, doc) rows — every document sits in a
    # single input row, so all its grams land in one block and the block's
    # own groupby dedups them.  Cross-doc matching therefore needs no
    # (gkey, doc) combine shuffle; and it must NOT be one map_groups call
    # per gram key either (corpus-sized keys = millions of 1-2 row groups,
    # a Python body each — the classic tiny-group blow-up).  Co-locate keys
    # by HASH BUCKET instead and run ONE vectorized body per bucket: a key
    # matches iff its bucket-local group size >= 2 (rows are distinct
    # pairs), via a single groupby().transform("size"); the body emits
    # per-DOC partial sums, so only keys x nothing — just doc rows — leave
    # the bucket stage.
    n_buckets = 64

    def add_bucket(b: pa.Table) -> pa.Table:
        g = b.column("gkey").to_numpy(zero_copy_only=False)
        return b.append_column(
            "__b", pa.array((g % n_buckets).astype(np.int64), pa.int64()))

    def cross_doc_bucket(g: pd.DataFrame) -> pd.DataFrame:
        size = g.groupby("gkey", sort=False)["gkey"].transform("size")
        hit = g[size.to_numpy() >= 2]
        agg = (hit.groupby(id_col, sort=False)["__n"].sum()
               .reset_index())
        return pd.DataFrame({id_col: agg[id_col].to_numpy(),
                             "n": agg["__n"].to_numpy().astype(np.int64)})

    matched = (ds.select_columns([id_col, text_col])
               .map_batches(partials, batch_format="pyarrow")
               .map_batches(add_bucket, batch_format="pyarrow")
               .groupby("__b")
               .map_groups(cross_doc_bucket, batch_format="pandas"))
    return map_combine_aggregate(matched, keys=[id_col],
                                 sums={"n": "n_dup_grams"},
                                 count_alias="__k").select_columns(
        [id_col, "n_dup_grams"])


def dup_rate_by_key(ds: Dataset, key_col: str, text_col: str = "text",
                    rate_alias: str = "dup_ppm") -> Dataset:
    """Per-key (per-source / per-domain) exact-duplicate rate: how much of
    each slice of the corpus is byte-identical repetition — the quality
    dashboard number that decides which crawl sources get down-weighted
    in the mixing step.

    ``dup_ppm = (n_docs - n_distinct_texts) * 1e6 // n_docs`` (integer,
    hash-exact).  Two map-side-combined aggregates: (key, md5(text)) ->
    count (shuffle bounded by distinct texts per key), then key ->
    (n_docs, n_distinct)."""
    from .relational import map_combine_aggregate
    from .split import md5_hex_array

    def h(b: pa.Table) -> pa.Table:
        return pa.table({key_col: b.column(key_col),
                         "__h": md5_hex_array(b.column(text_col))})

    per_hash = map_combine_aggregate(
        ds.select_columns([key_col, text_col])
        .map_batches(h, batch_format="pyarrow"),
        keys=[key_col, "__h"], count_alias="__c")

    agg = map_combine_aggregate(
        per_hash, keys=[key_col], sums={"__c": "n_docs"},
        count_alias="n_distinct")

    def rate(b: pa.Table) -> pa.Table:
        n = b.column("n_docs").to_numpy(zero_copy_only=False)
        d = b.column("n_distinct").to_numpy(zero_copy_only=False)
        return b.append_column(
            rate_alias, pa.array((n - d) * 1_000_000 // n, pa.int64()))

    return agg.map_batches(rate, batch_format="pyarrow")
