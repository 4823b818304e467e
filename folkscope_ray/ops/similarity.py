"""Similarity search over embedding columns (list<float>).

- brute_force_topk : exact cosine top-k per query — numpy matmul per batch
  against a broadcast query matrix (``ray.put`` once, read per worker), then a
  driver-side merge of per-batch partial top-ks.  This is the scale baseline:
  each batch does one (B × d) @ (d × Q) GEMM, no shuffle at all.
- LshTopK (actor class) : random-hyperplane LSH variant — candidates restricted to
  query-colliding buckets, so at corpus scale only a fraction of batches do
  real work.  Same output contract; approximate.
- ivf_topk : IVF variant — a deterministic distributed spherical-k-means
  coarse quantizer (fixed-point partial sums, bit-identical at any
  parallelism), probe the n_probe nearest inverted lists, exact GEMM within;
  n_probe == n_centroids degrades gracefully to the exact result.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from ..util import worker_cached


def _as_matrix(col) -> np.ndarray:
    """Arrow list<float> column -> (n, d) float64 matrix WITHOUT a Python
    list round-trip: flatten the child values (one buffer view for
    fixed-width children) and reshape by the uniform list width.  float64
    so results are reproducible against a float64 oracle.  Falls back to
    the to_pylist path for nulls / ragged widths (never the case for the
    embedding tables, but correctness beats the fast path)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if (pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_fixed_size_list(t)) and col.null_count == 0:
        n = len(col)
        flat = col.flatten()  # slice/offset-aware
        if n:
            total = len(flat)
            if pa.types.is_fixed_size_list(t):
                d = t.list_size
            else:
                import pyarrow.compute as pc

                d, rem = divmod(total, n)
                widths = pc.list_value_length(col).to_numpy(
                    zero_copy_only=False)
                if rem or not (widths == d).all():
                    return np.asarray(col.to_pylist(), dtype=np.float64)
            vals = flat.to_numpy(zero_copy_only=False)
            return np.ascontiguousarray(
                vals.astype(np.float64, copy=False).reshape(n, d))
        return np.empty((0, 0), dtype=np.float64)
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


# embedding_neardup_pairs broadcasts a corpus matrix of at most this many rows
NEARDUP_BROADCAST_MAX = 2_000_000


class BruteForceTopK:
    """map_batches callable: emits per-batch partial top-k (query_id, vec_id, cosine)."""

    def __init__(self, queries_ref, k: int = 10,
                 vec_col: str = "embedding", id_col: str = "vec_id",
                 quantize_digits: int | None = None):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.q = _normalize(np.asarray(q, dtype=np.float64))  # (Q, d)
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col
        # quantize BEFORE selecting the top-k so boundary vectors that collide
        # after rounding rank identically to a quantizing SQL oracle
        # (tiebreak: vec_id ascending)
        # "if quantize_digits" would treat digits=0 (round to integers) as
        # disabled — test against None explicitly
        self.q_scale = (float(10 ** quantize_digits)
                        if quantize_digits is not None else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch.column(self.vec_col)))  # (B, d)
        ids = batch.column(self.id_col).to_numpy(
            zero_copy_only=False).astype(np.int64, copy=False)
        sims = m @ self.q.T  # (B, Q)
        if self.q_scale is not None:
            # np.round is round-half-to-EVEN; the committed ANN fixtures pin
            # this convention (an exactly-representable n+0.5 scaled cosine
            # would differ from SQL's half-away-from-zero — no SQL oracle
            # consumes these, the golden fixtures are the contract)
            sims = np.round(sims * self.q_scale).astype(np.int64) / self.q_scale
        k = min(self.k, len(ids))
        o_q, o_id, o_s = [], [], []
        for qi in range(self.q.shape[0]):
            col = sims[:, qi]
            top = np.lexsort((ids, -col))[:k]  # cosine desc, vec_id asc
            for t in top:
                o_q.append(qi)
                o_id.append(int(ids[t]))
                o_s.append(float(col[t]))
        return pa.table(
            {
                "query_id": pa.array(o_q, pa.int32()),
                "vec_id": pa.array(o_id, pa.int64()),
                "cosine": pa.array(o_s, pa.float64()),
            }
        )


def brute_force_topk(ds: Dataset, queries: np.ndarray, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id",
                     quantize_digits: int | None = None):
    """Exact cosine top-k for each query row; returns a pandas DataFrame
    (query_id, vec_id, cosine) with exactly k rows per query."""
    # stateless tasks, not an actor pool: the only per-worker state is one
    # ray.get of the query matrix, resolved once per worker process via
    # worker_cached — pool spin-up dominated this stage (same measurement as
    # broadcast_join: ~3.5s actor vs ~1.6s tasks on tiny state)
    qref = ray.put(np.asarray(queries, dtype=np.float64))

    def partial_topk(batch: pa.Table) -> pa.Table:
        return worker_cached("bf" + qref.hex(), lambda: BruteForceTopK(
            ray.get(qref), k=k, vec_col=vec_col, id_col=id_col,
            quantize_digits=quantize_digits))(batch)

    partials = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    if "query_id" not in partials.columns:
        return _topk_frame([])  # empty corpus: zero blocks, zero columns
    out = []
    for qi, grp in partials.groupby("query_id"):
        top = heapq.nlargest(k, grp.itertuples(), key=lambda r: (r.cosine, -r.vec_id))
        for r in top:
            out.append({"query_id": qi, "vec_id": r.vec_id, "cosine": r.cosine})
    return _topk_frame(out)


def _topk_frame(rows: list[dict]):
    """(query_id, vec_id, cosine) result frame — typed-empty-safe: a bare
    ``pd.DataFrame([])`` has no columns and sort_values would KeyError on
    an empty corpus / empty probe set."""
    import pandas as pd

    if not rows:
        return pd.DataFrame({"query_id": pd.array([], dtype="int64"),
                             "vec_id": pd.array([], dtype="int64"),
                             "cosine": pd.array([], dtype="float64")})
    return pd.DataFrame(rows).sort_values(
        ["query_id", "cosine", "vec_id"],
        ascending=[True, False, True]).reset_index(drop=True)


# ------------------------------------------------------- LSH-bucketed ANN

def hyperplanes(dim: int, n_planes: int = 8) -> np.ndarray:
    """Size n_planes to the corpus: ~log2(n_vectors / expected_candidates);
    small corpora want few planes (wide buckets), web-scale wants 16+.

    PURE function of (dim, n_planes): a fresh seeded RandomState per call —
    a shared module-level RNG would advance with every call, making bucket
    assignments depend on in-process call history (order-dependent results
    across test/driver runs)."""
    return np.random.RandomState(1234).standard_normal((n_planes, dim)).astype(np.float64)


def bucket_of(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (vecs @ planes.T) > 0
    out = np.zeros(len(vecs), dtype=np.int64)
    for j in range(planes.shape[0]):
        out = (out << 1) | bits[:, j].astype(np.int64)
    return out


# ------------------------------------------- embedding-cosine near-dup

class NearDupPairs:
    """map_batches callable: exact cosine-radius pairs.  Each block GEMMs its
    rows against the broadcast normalized corpus matrix (``ray.put`` once,
    zero-copy per worker) and emits (a, b, cosine) with ``a < b`` and
    quantized cosine ≥ tau — one (B × d) @ (d × n) GEMM per block, no
    shuffle.  Cosine is quantized (1e-``quantize_digits``) BEFORE the
    threshold so the pair set is bit-stable against a quantizing SQL oracle."""

    def __init__(self, corpus_ref, tau: float, vec_col: str = "embedding",
                 id_col: str = "vec_id", quantize_digits: int = 6):
        ids, mat = ray.get(corpus_ref) if isinstance(corpus_ref, ray.ObjectRef) else corpus_ref
        self.c_ids = ids              # (n,) int64, ascending
        self.c_mat = mat              # (n, d) float64, L2-normalized
        self.tau = tau
        self.vec_col = vec_col
        self.id_col = id_col
        self.q_scale = float(10 ** quantize_digits)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch.column(self.vec_col)))      # (B, d)
        ids = batch.column(self.id_col).to_numpy(
            zero_copy_only=False).astype(np.int64, copy=False)
        sims = np.round((m @ self.c_mat.T) * self.q_scale) / self.q_scale
        # a < b: keep only corpus ids strictly greater than the row id, so
        # each unordered pair is emitted by exactly ONE block (the one owning
        # its smaller id) regardless of partitioning
        keep = (sims >= self.tau) & (ids[:, None] < self.c_ids[None, :])
        ai, bj = np.nonzero(keep)
        return pa.table(
            {
                "a": pa.array(ids[ai], pa.int64()),
                "b": pa.array(self.c_ids[bj], pa.int64()),
                "cosine": pa.array(sims[ai, bj], pa.float64()),
            }
        )


def _broadcast_corpus(ds: Dataset, vec_col: str, id_col: str):
    """(ids, normalized matrix) broadcast ref for the exact near-dup GEMM.

    The corpus matrix is the BROADCAST side (like ANN's query matrix): bounded
    by ``NEARDUP_BROADCAST_MAX`` rows (2M ≈ 3 GB at d=384
    float32 — object-store resident, read zero-copy by every worker).  Beyond
    the ceiling use :func:`embedding_neardup_pairs_lsh`, whose candidate
    generation is bucket-local and needs no global matrix."""
    tbl = ds.select_columns([id_col, vec_col]).to_pandas()
    if len(tbl) > NEARDUP_BROADCAST_MAX:
        raise ValueError(
            f"corpus has {len(tbl)} rows, above NEARDUP_BROADCAST_MAX="
            f"{NEARDUP_BROADCAST_MAX}; use embedding_neardup_pairs_lsh "
            "(bucketed, no broadcast matrix) instead"
        )
    order = np.argsort(tbl[id_col].to_numpy(), kind="stable")
    ids = tbl[id_col].to_numpy()[order].astype(np.int64)
    mat = _normalize(np.asarray(list(tbl[vec_col].to_numpy()[order]),
                                dtype=np.float64))
    return ray.put((ids, mat))


def embedding_neardup_pairs(ds: Dataset, tau: float = 0.4,
                            vec_col: str = "embedding",
                            id_col: str = "vec_id",
                            quantize_digits: int = 6) -> Dataset:
    """EXACT embedding-cosine near-duplicate pairs: (a, b, cosine), a < b,
    quantized cosine ≥ tau.  Distributed as one GEMM per block against the
    broadcast corpus (O(n²/p) flops, zero shuffle); the all-pairs semantics
    make it SQL-checkable.  Real near-dup corpora use tau ≈ 0.9–0.97; the
    synthetic test embeddings are near-orthogonal so tests use lower tau."""
    corpus_ref = _broadcast_corpus(ds, vec_col, id_col)

    def pairs_batch(batch: pa.Table) -> pa.Table:
        return worker_cached("nd" + corpus_ref.hex(), lambda: NearDupPairs(
            corpus_ref=corpus_ref, tau=tau, vec_col=vec_col, id_col=id_col,
            quantize_digits=quantize_digits))(batch)

    return ds.map_batches(pairs_batch, batch_format="pyarrow")


def embedding_neardup_pairs_lsh(ds: Dataset, tau: float = 0.4,
                                vec_col: str = "embedding",
                                id_col: str = "vec_id",
                                n_planes: int = 8,
                                quantize_digits: int = 6) -> Dataset:
    """Approximate scale path: random-hyperplane bucket -> in-bucket pairwise
    cosine verify.  No broadcast matrix and no all-pairs GEMM — candidate
    work is O(Σ bucket²) and the only shuffle is the bucket groupby — at the
    cost of missing pairs that share no bucket (recall grows with repeated
    calls under independent plane sets, the standard banding trade)."""
    import pandas as pd

    planes_ref = ray.put(hyperplanes_for(ds, vec_col, n_planes))
    q_scale = float(10 ** quantize_digits)

    def add_bucket(b: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(b.column(vec_col)))
        bk = bucket_of(m, ray.get(planes_ref))
        return b.append_column("bucket", pa.array(bk, pa.int64()))

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy().astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        m = _normalize(np.asarray(list(g[vec_col].to_numpy()[order]),
                                  dtype=np.float64))
        sims = np.round((m @ m.T) * q_scale) / q_scale
        iu, ju = np.triu_indices(len(ids), 1)
        keep = sims[iu, ju] >= tau
        return pd.DataFrame({"a": ids[iu[keep]], "b": ids[ju[keep]],
                             "cosine": sims[iu[keep], ju[keep]]})

    return (
        ds.select_columns([id_col, vec_col])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(verify, batch_format="pandas")
    )


def hyperplanes_for(ds: Dataset, vec_col: str, n_planes: int) -> np.ndarray:
    """Hyperplanes sized to the Dataset's embedding dim (reads one row)."""
    first = ds.take(1)
    if not first:
        raise ValueError(
            "hyperplanes_for: empty dataset — the embedding dim cannot be "
            "inferred; pass hyperplanes(dim, n_planes) explicitly")
    dim = len(first[0][vec_col])
    return hyperplanes(dim, n_planes)


def embedding_neardup_components(ds: Dataset, tau: float = 0.4,
                                 vec_col: str = "embedding",
                                 id_col: str = "vec_id",
                                 quantize_digits: int = 6) -> Dataset:
    """(id, component) Dataset: exact cosine-radius pairs -> distributed
    min-label propagation -> labels joined back onto every id (isolated
    vectors are their own component).  The dedup decision is then
    'keep id == component' — the same first-wins rule as exact dedup."""
    from .components import attach_components, connected_components

    edges = embedding_neardup_pairs(ds, tau, vec_col, id_col, quantize_digits)
    labels = connected_components(edges)
    return attach_components(ds.select_columns([id_col]), labels, id_col)


# ------------------------------------------------------------ IVF ANN

def ivf_centroids(ds: Dataset, vec_col: str = "embedding",
                  id_col: str = "vec_id", n_centroids: int = 16,
                  n_iters: int = 3,
                  fixed_point_digits: int = 9) -> np.ndarray:
    """Deterministic distributed spherical k-means for the IVF coarse
    quantizer.  Init = the ``n_centroids`` vectors with the smallest ids
    (distributed ``sort().limit()``, no full materialization); each Lloyd
    iteration is ONE ``map_batches`` pass emitting per-centroid fixed-point
    int64 partial sums + counts — integer addition commutes, so the trained
    centroids are bit-identical at any parallelism / block order — combined
    on the driver (``n_centroids × dim`` values, tiny by construction).
    Empty clusters keep their previous centroid."""
    scale = float(10 ** fixed_point_digits)
    init = ds.sort(id_col).limit(n_centroids).to_pandas()
    cents = _normalize(np.asarray(list(init[vec_col]), dtype=np.float64))
    n_c, dim = cents.shape

    for _ in range(n_iters):
        cref = ray.put(cents)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            m = _normalize(_as_matrix(batch.column(vec_col)))
            assign = np.argmax(m @ c.T, axis=1)  # tie -> lowest centroid id
            sums = np.zeros((n_c, m.shape[1]), dtype=np.int64)
            np.add.at(sums, assign, np.round(m * scale).astype(np.int64))
            counts = np.bincount(assign, minlength=n_c).astype(np.int64)
            return pa.table(
                {
                    "cid": pa.array(np.arange(n_c, dtype=np.int32)),
                    "vsum": pa.array(list(sums), pa.list_(pa.int64())),
                    "n": pa.array(counts, pa.int64()),
                }
            )

        agg = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
        new = cents.copy()
        for cid, grp in agg.groupby("cid"):
            n = int(grp["n"].sum())
            if n == 0:
                continue
            vsum = np.sum(np.asarray(list(grp["vsum"]), dtype=np.int64), axis=0)
            new[cid] = vsum / scale / n
        cents = _normalize(new)
    return cents


class IvfTopK(BruteForceTopK):
    """IVF probe stage: score only vectors assigned to one of the query's
    ``n_probe`` nearest centroids.  At corpus scale the posting lists would
    be partitioned by centroid id; here assignment is recomputed per batch
    (one extra (B × d) @ (d × C) GEMM), keeping the operator shuffle-free."""

    def __init__(self, queries_ref, centroids_ref, n_probe: int = 4,
                 k: int = 10, vec_col: str = "embedding",
                 id_col: str = "vec_id",
                 quantize_digits: int | None = None):
        super().__init__(queries_ref, k, vec_col, id_col, quantize_digits)
        c = ray.get(centroids_ref) if isinstance(centroids_ref, ray.ObjectRef) else centroids_ref
        self.cents = _normalize(np.asarray(c, dtype=np.float64))
        n_probe = min(n_probe, len(self.cents))
        # union of every query's n_probe nearest centroids
        qc = self.q @ self.cents.T  # (Q, C)
        probe: set[int] = set()
        for qi in range(qc.shape[0]):
            probe.update(np.argsort(-qc[qi], kind="stable")[:n_probe].tolist())
        self.probe = np.asarray(sorted(probe), dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch.column(self.vec_col)))
        assign = np.argmax(m @ self.cents.T, axis=1)
        mask = np.isin(assign, self.probe)
        if not mask.any():
            return pa.table(
                {"query_id": pa.array([], pa.int32()),
                 "vec_id": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        return super().__call__(batch.filter(pa.array(mask)))


def ivf_topk(ds: Dataset, queries: np.ndarray, k: int = 10,
             n_centroids: int = 16, n_probe: int = 4, n_iters: int = 3,
             vec_col: str = "embedding", id_col: str = "vec_id",
             quantize_digits: int | None = 6):
    """IVF approximate cosine top-k: train the coarse quantizer, probe the
    ``n_probe`` closest inverted lists, exact GEMM within.  With
    ``n_probe == n_centroids`` the result equals :func:`brute_force_topk`
    exactly (pytest-gated).  Returns (query_id, vec_id, cosine) pandas, k
    rows per query, ordered cosine desc / vec_id asc."""
    import heapq as _heapq

    import pandas as pd

    cents = ivf_centroids(ds, vec_col, id_col, n_centroids, n_iters)
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    cref = ray.put(cents)

    def ivf_batch(batch: pa.Table) -> pa.Table:
        return worker_cached("ivf" + qref.hex() + cref.hex(), lambda: IvfTopK(
            queries_ref=qref, centroids_ref=cref, n_probe=n_probe, k=k,
            vec_col=vec_col, id_col=id_col,
            quantize_digits=quantize_digits))(batch)

    partials = ds.map_batches(ivf_batch, batch_format="pyarrow").to_pandas()
    if "query_id" not in partials.columns:
        return _topk_frame([])  # empty corpus / empty probe set
    out = []
    for qi, grp in partials.groupby("query_id"):
        top = _heapq.nlargest(k, grp.itertuples(), key=lambda r: (r.cosine, -r.vec_id))
        out.extend({"query_id": qi, "vec_id": r.vec_id, "cosine": r.cosine} for r in top)
    return _topk_frame(out)


class LshTopK(BruteForceTopK):
    """Approximate variant: only score vectors landing in a query's bucket
    (or a bucket at hamming distance <= 1 — cheap multi-probe)."""

    def __init__(self, queries_ref, planes_ref, k: int = 10,
                 vec_col: str = "embedding", id_col: str = "vec_id",
                 quantize_digits: int | None = None):
        super().__init__(queries_ref, k, vec_col, id_col, quantize_digits)
        planes = ray.get(planes_ref) if isinstance(planes_ref, ray.ObjectRef) else planes_ref
        self.planes = planes
        qb = bucket_of(self.q, planes)
        probe = set(qb.tolist())
        for b in qb.tolist():
            for j in range(planes.shape[0]):
                probe.add(b ^ (1 << j))
        self.probe = probe

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch.column(self.vec_col)))
        buckets = bucket_of(m, self.planes)
        mask = np.isin(buckets, list(self.probe))
        if not mask.any():
            return pa.table(
                {"query_id": pa.array([], pa.int32()),
                 "vec_id": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        sub = batch.filter(pa.array(mask))
        return super().__call__(sub)


def kmeans_assign(ds: Dataset, vec_col: str = "embedding",
                  id_col: str = "vec_id", n_centroids: int = 16,
                  n_iters: int = 3, quantize_digits: int = 6) -> Dataset:
    """Semantic clustering: assign every vector to its nearest spherical
    k-means centroid (the SemDeDup / cluster-then-curate shape — cluster
    ids feed per-cluster dedup, balanced sampling, or pruning).

    Training reuses :func:`ivf_centroids` (deterministic fixed-point Lloyd
    iterations, bit-identical at any parallelism); assignment is ONE
    stateless ``map_batches`` GEMM per block against the broadcast
    ``n_centroids × dim`` matrix — no shuffle at all.  Output:
    ``(id_col, cluster_id, cosine)`` with the cosine quantized for stable
    cross-engine hash comparison."""
    cents = ivf_centroids(ds, vec_col, id_col, n_centroids, n_iters)
    cref = ray.put(cents)
    q = float(10 ** quantize_digits)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _normalize(_as_matrix(batch.column(vec_col)))
        sims = m @ c.T
        a = np.argmax(sims, axis=1)
        best = np.round(sims[np.arange(len(a)), a] * q) / q
        return pa.table({
            id_col: batch.column(id_col),
            "cluster_id": pa.array(a.astype(np.int64), pa.int64()),
            "cosine": pa.array(best, pa.float64()),
        })

    return ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pyarrow")


def semantic_dedup(ds: Dataset, tau: float = 0.95,
                   vec_col: str = "embedding", id_col: str = "vec_id",
                   n_centroids: int = 16, n_iters: int = 3,
                   quantize_digits: int = 6) -> Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster-then-prune
    semantic deduplication — k-means clusters bound the candidate space, and
    within each cluster a document is a duplicate iff another member has
    quantized cosine >= ``tau`` and a SMALLER id (min-id survivor, the same
    first-wins discipline as exact dedup).

    Execution shape at 100 TB: centroids come from the deterministic
    fixed-point Lloyd iterations (:func:`ivf_centroids` — bit-identical at
    any parallelism) and are broadcast (k x d, tiny); assignment is one
    stateless GEMM per block; the ONLY shuffle is the cluster groupby; the
    in-cluster verify is one O(c^2) GEMM per cluster — clusters average
    n/k rows, so pick k ~ n / affordable-cluster-size (SemDeDup's own
    trade).  A pathologically hot cluster is the operator's documented
    residual risk: raise ``n_centroids`` or pre-split hot clusters with the
    LSH-bucketed near-dup variant.

    Determinism: cosine quantized to 1e-``quantize_digits`` BEFORE the tau
    compare (ties collapse identically at any parallelism); the min-id rule
    is order-free.  Output: ``(id_col, cluster_id, keep)``, golden-fixture
    gated.  Reference analogue: none (the reference dedups eventualities
    exactly on eid, eventuality.py merge path); this is the embedding-side
    §2.7 extension."""
    cents = ivf_centroids(ds, vec_col, id_col, n_centroids, n_iters)
    cref = ray.put(cents)
    q_scale = float(10 ** quantize_digits)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _normalize(_as_matrix(batch.column(vec_col)))
        a = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            vec_col: batch.column(vec_col),
            "cluster_id": pa.array(a, pa.int64()),
        })

    import pandas as pd

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy().astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        m = _normalize(np.asarray(list(g[vec_col].to_numpy()[order]),
                                  dtype=np.float64))
        sims = np.round((m @ m.T) * q_scale) / q_scale
        # duplicate iff ANY smaller-id member is within the cosine radius:
        # strictly-lower triangle of the (sorted-id) similarity matrix
        dup = np.tril(sims >= tau, -1).any(axis=1)
        return pd.DataFrame({
            id_col: ids,
            "cluster_id": np.repeat(np.int64(g["cluster_id"].iloc[0]),
                                    len(ids)),
            "keep": ~dup,
        })

    return (
        ds.select_columns([id_col, vec_col])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("cluster_id")
        .map_groups(prune, batch_format="pandas")
    )
