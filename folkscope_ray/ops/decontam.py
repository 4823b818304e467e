"""Benchmark decontamination: flag corpus documents that share n-gram spans
with an evaluation/benchmark set.

The standard training-data hygiene pass (the n-gram-overlap rule used by
GPT-3/PaLM-style dataset reports): a document is contaminated when a
sufficient fraction of its token n-grams also occur in the benchmark set.

Execution shape (100-TB contract):

- The benchmark side is SMALL (eval sets are thousands of documents): its
  distinct n-grams are collected once and broadcast via ``ray.put`` — read
  once per worker, never re-shipped per batch.  At this scale we broadcast
  the exact string set; a benchmark too large for that would broadcast
  64-bit n-gram hashes instead (collision odds ~1e-19 per pair) or fall
  back to the Bloom-prefiltered semi-join in ``ops/bloom.py``.
- The corpus side is one stateless ``map_batches`` scan — no shuffle at
  all.  Per document we count n-gram POSITIONS hitting the set (the
  conservative variant: repeated contaminated spans keep counting).

Tokenization is ``[a-z0-9]+`` on the lowercased text — byte-identical to a
DuckDB ``regexp_extract_all`` oracle, so the contamination ratio (one IEEE
division of identical integer operands) hash-compares exactly.
"""

from __future__ import annotations

import pyarrow as pa
import ray
from ray.data import Dataset

from ..util import worker_cached

from .index import TERM_RE

# jaccard_cross_join broadcasts a benchmark side of at most this many rows
XJOIN_BROADCAST_MAX = 200_000


def _ngrams(text: str, n: int) -> list[str]:
    toks = TERM_RE.findall(text.lower())
    if len(toks) < n:
        return []
    return [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]


def benchmark_ngram_set(bench: Dataset, text_col: str, n: int) -> set[str]:
    """Distinct n-grams of the (small) benchmark set, gathered per block
    remotely and union-merged on the driver (only distinct grams travel)."""

    def grams(batch: pa.Table) -> pa.Table:
        out: set[str] = set()
        for t in batch.column(text_col).to_pylist():
            out.update(_ngrams(t, n))
        return pa.table({"ng": pa.array(sorted(out), pa.string())})

    parts = bench.select_columns([text_col]).map_batches(
        grams, batch_format="pyarrow")
    result: set[str] = set()
    for b in parts.iter_batches(batch_format="pyarrow"):
        result.update(b.column("ng").to_pylist())
    return result


def ngram_contamination(
    docs: Dataset,
    bench: Dataset,
    n: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    bench_text_col: str | None = None,
    threshold: float = 0.5,
) -> Dataset:
    """Per-document contamination report vs the benchmark set.

    Returns (id, n_ngrams, n_hits, contamination, contaminated) — documents
    with fewer than ``n`` tokens carry n_ngrams = 0 and contamination 0.0
    (nothing to match on)."""
    grams = benchmark_ngram_set(bench, bench_text_col or text_col, n)
    grams_ref = ray.put(grams)

    def scan_batch(batch: pa.Table) -> pa.Table:
        # stateless task; the broadcast n-gram set resolves once per worker
        # process via worker_cached (no actor-pool spin-up)
        g = worker_cached("dc" + grams_ref.hex(), lambda: ray.get(grams_ref))
        if batch.column(text_col).null_count:
            # fail fast with direction (the md5-kernel discipline) instead
            # of an opaque AttributeError deep inside a remote task
            raise ValueError(
                "ngram_contamination: null values in the text column — "
                "filter or fill nulls before scanning")
        texts = batch.column(text_col).to_pylist()
        totals, hits, ratios = [], [], []
        for t in texts:
            ngs = _ngrams(t, n)
            h = sum(1 for x in ngs if x in g)
            totals.append(len(ngs))
            hits.append(h)
            ratios.append(h / len(ngs) if ngs else 0.0)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_ngrams": pa.array(totals, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
                "contamination": pa.array(ratios, pa.float64()),
                "contaminated": pa.array(
                    [r >= threshold for r in ratios], pa.bool_()),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        scan_batch, batch_format="pyarrow"
    )


def jaccard_cross_join(left: Dataset, right: Dataset, id_col: str,
                       text_col: str, t_num: int = 1, t_den: int = 2,
                       left_alias: str = "left_id",
                       right_alias: str = "right_id") -> Dataset:
    """FUZZY decontamination: exact word-set Jaccard R-S join between a
    big corpus (left) and a benchmark/eval set (right) — every pair with
    ``jaccard >= t_num / t_den`` (an exact INTEGER comparison,
    ``t_den * inter >= t_num * union``, so no float threshold can
    tie-flip).  The near-dup sibling of :func:`ngram_contamination`
    (which only catches verbatim n-gram hits).

    Plan (the setjoin bitmask discipline, ops/setjoin.py): ONE distinct
    aggregate builds the shared vocabulary (gated at
    ``setjoin.SETJOIN_BITMASK_MAX`` terms, 4096 -> <= 64-word
    masks; beyond it exact masks are the wrong tool and the MinHash-LSH
    family is the designated path); both sides collapse to per-doc
    W-word bitmasks in one stateless scan; the benchmark masks broadcast
    ONCE (benchmarks are small by definition — gated at
    ``XJOIN_BROADCAST_MAX`` rows, 200k); the left side
    streams, scoring each batch against the benchmark in slabbed
    AND+popcount matmuls — no shuffle after the vocabulary aggregate."""
    import numpy as np
    import pyarrow.compute as pc

    from . import setjoin
    from .relational import map_combine_aggregate
    from .setjoin import _POP8, _popcount_rows

    def toks(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column(text_col)), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        flat = la.flatten()
        keep = pc.greater(pc.binary_length(flat), 0)
        return pa.table({"tok": flat.filter(keep)})

    both = (left.select_columns([id_col, text_col])
            .union(right.select_columns([id_col, text_col])))
    vocab_ds = map_combine_aggregate(
        both.map_batches(toks, batch_format="pyarrow"),
        keys=["tok"], count_alias="__c").materialize()
    nv = vocab_ds.count()
    if nv > setjoin.SETJOIN_BITMASK_MAX:
        raise ValueError(
            f"jaccard_cross_join: vocabulary has {nv} terms — above "
            f"SETJOIN_BITMASK_MAX={setjoin.SETJOIN_BITMASK_MAX}; exact bitmasks "
            "are the wrong tool at this vocabulary, use the MinHash-LSH "
            "near-dup family (ops/dedup.py) instead")
    terms_sorted = np.sort(pa.concat_tables(
        ray.get(list(vocab_ds.to_arrow_refs())),
        promote_options="default").column("tok").to_pandas().to_numpy())
    w = max(1, (len(terms_sorted) + 63) // 64)
    tref = ray.put(terms_sorted)

    def masks(b: pa.Table) -> pa.Table:
        if b.column(text_col).null_count:
            raise ValueError(
                "jaccard_cross_join: null values in the text column — "
                "filter or fill nulls before joining")
        ts = worker_cached("xjt" + tref.hex(), lambda: ray.get(tref))
        lists = pc.split_pattern_regex(
            pc.utf8_lower(b.column(text_col)), "[^a-z0-9]+")
        la = (lists.combine_chunks()
              if isinstance(lists, pa.ChunkedArray) else lists)
        n = b.num_rows
        flat = la.flatten().to_numpy(zero_copy_only=False)
        off = la.offsets.to_numpy().astype(np.int64)
        row = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        ok = flat != ""
        flat, row = flat[ok], row[ok]
        bits = np.searchsorted(ts, flat).astype(np.int64)
        m = np.zeros((n, w), dtype=np.uint64)
        np.bitwise_or.at(
            m.reshape(-1), row * w + (bits >> 6),
            np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)))
        # zero-copy list column: one offsets array + one flat values view,
        # no per-row Python lists
        lst = pa.ListArray.from_arrays(
            pa.array((np.arange(n + 1) * w).astype(np.int32), pa.int32()),
            pa.array(m.reshape(-1).view(np.int64), pa.int64()))
        return pa.table({id_col: b.column(id_col), "__m": lst})

    r_masked = (right.select_columns([id_col, text_col])
                .map_batches(masks, batch_format="pyarrow").materialize())
    nr = r_masked.count()
    if nr > XJOIN_BROADCAST_MAX:
        raise ValueError(
            f"jaccard_cross_join: right side has {nr} rows — above "
            f"XJOIN_BROADCAST_MAX={XJOIN_BROADCAST_MAX}; a benchmark set this "
            "large should go through the MinHash-LSH band join instead")
    rt = pa.concat_tables(ray.get(list(r_masked.to_arrow_refs())),
                          promote_options="default")
    idt = rt.schema.field(id_col).type  # id columns keep this type end-to-end
    r_ids = rt.column(id_col).to_numpy(zero_copy_only=False)
    r_m = (_mask_matrix(rt.column("__m"), w)
           if nr else np.zeros((0, w), np.uint64))
    r_len = _popcount_rows(r_m)
    rref = ray.put((r_ids, r_m, r_len))

    slab = 4096

    def score(b: pa.Table) -> pa.Table:
        # broadcast state resolves ONCE per worker process via
        # worker_cached (the scan_batch discipline above), not once per batch
        rids, rm, rlen = worker_cached("xj" + rref.hex(), lambda: ray.get(rref))
        mb = masks(b)
        lids = mb.column(id_col).to_numpy(zero_copy_only=False)
        lm = (_mask_matrix(mb.column("__m"), w)
              if b.num_rows else np.zeros((0, w), np.uint64))
        llen = _popcount_rows(lm)
        out_l, out_r, out_i, out_u = [], [], [], []
        for st in range(0, len(rids), slab):
            en = min(st + slab, len(rids))
            inter = np.zeros((len(lids), en - st), dtype=np.int64)
            for wi in range(w):
                andm = lm[:, wi:wi + 1] & rm[None, st:en, wi]
                inter += _POP8[andm.view(np.uint8)].reshape(
                    len(lids), en - st, 8).sum(axis=2, dtype=np.int64)
            uni = llen[:, None] + rlen[None, st:en] - inter
            hit = (t_den * inter >= t_num * uni) & (uni > 0)
            li, ri = np.nonzero(hit)
            out_l.append(lids[li])
            out_r.append(rids[st + ri])
            out_i.append(inter[li, ri])
            out_u.append(uni[li, ri])
        cat = (lambda xs: np.concatenate(xs) if xs else np.array([], np.int64))
        # ids keep their INPUT type (string doc ids are as legal here as in
        # ngram_contamination — the old pa.int64() hard-cast crashed them)
        if pa.types.is_integer(idt):
            l_arr = pa.array(cat(out_l), idt)
            r_arr = pa.array(cat(out_r), idt)
        else:
            l_arr = pa.array(
                (np.concatenate(out_l).tolist() if out_l else []), idt)
            r_arr = pa.array(
                (np.concatenate(out_r).tolist() if out_r else []), idt)
        return pa.table({
            left_alias: l_arr,
            right_alias: r_arr,
            "inter": pa.array(cat(out_i), pa.int64()),
            "uni": pa.array(cat(out_u), pa.int64()),
        })

    return left.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow")


def _mask_matrix(col, w: int):
    """list<int64> mask column -> (n, W) uint64 matrix, zero-copy via the
    flat child values (uniform width by construction)."""
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return np.ascontiguousarray(flat.reshape(len(col), w)).view(np.uint64)

