"""Vector-column aggregation: per-key mean pooling of embeddings.

The analogue of the reference's per-asin mean-pool of SBERT edge embeddings
(src/recommendation/preprocess.py:216-234), expressed scale-first: each batch
computes one (key -> sum-vector, count) PARTIAL with numpy, the groupby only
shuffles the tiny partials, and a final vectorized combine divides.  No raw
embedding row ever crosses the shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from ..util import worker_cached


def mean_vector_by_key(ds: Dataset, key_col: str, vec_col: str,
                       fixed_point_digits: int | None = None) -> pd.DataFrame:
    """Returns a DataFrame (key, dim, mean_val) — exploded per dimension so
    the result is flat-schema (and SQL-comparable).

    ``fixed_point_digits``: when set, each element is quantized to
    ``10^-digits`` and accumulated in int64 — integer addition is associative,
    so the result is bit-identical across any block/batch partitioning
    (required for golden-fixture hash-compare across parallelism levels).
    """
    # "is not None": digits=0 (quantize to integers) is a legal value the
    # falsy check would silently turn into float accumulation
    scale = (float(10 ** fixed_point_digits)
             if fixed_point_digits is not None else None)

    def partial(batch: pa.Table) -> pa.Table:
        vtype_ = pa.list_(pa.int64()) if scale else pa.list_(pa.float64())
        if batch.num_rows == 0:
            # typed empty — an untyped empty block diverges the stream schema
            return pa.table(
                {
                    key_col: pa.array([], batch.schema.field(key_col).type),
                    "vsum": pa.array([], vtype_),
                    "n": pa.array([], pa.int64()),
                }
            )
        # vectorized per-key partial: zero-copy matrix ingestion (shared
        # _as_matrix kernel) + factorize/np.add.at — first-occurrence key
        # order and per-slot accumulation order both mirror the dict loop
        # this replaced, so partials are bit-identical (int64 sums commute
        # anyway on the fixed-point path)
        from .similarity import _as_matrix

        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        vecs = _as_matrix(batch.column(vec_col))
        if scale:
            vecs = np.round(vecs * scale).astype(np.int64)
        # use_na_sentinel=False: a null key gets its OWN group (mirroring
        # the dict loop this replaced, which emitted a None-keyed row) —
        # the default -1 sentinel would np.add.at null-key vectors into the
        # LAST key's sum and then crash bincount on the negative code
        codes, uniq = pd.factorize(keys, use_na_sentinel=False)
        sums = np.zeros((len(uniq), vecs.shape[1]), dtype=vecs.dtype)
        np.add.at(sums, codes, vecs)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        vtype = pa.list_(pa.int64()) if scale else pa.list_(pa.float64())
        # factorize surfaces a null key as NaN in uniq; restore a real null
        # and pin the input column type so the partial schema never drifts
        uniq_vals = [None if (u is None or (isinstance(u, float)
                                            and np.isnan(u))) else u
                     for u in uniq.tolist()]
        return pa.table(
            {
                key_col: pa.array(uniq_vals,
                                  type=batch.schema.field(key_col).type),
                "vsum": pa.array(sums.tolist(), vtype),
                "n": pa.array(counts, pa.int64()),
            }
        )

    def combine(grp: pd.DataFrame) -> pd.DataFrame:
        total = np.sum(np.stack([np.asarray(v) for v in grp["vsum"]]), axis=0)
        n = int(grp["n"].sum())
        mean = (total / n) / scale if scale else total / n
        return pd.DataFrame(
            {
                key_col: grp[key_col].iloc[0],
                "dim": np.arange(len(mean), dtype=np.int64),
                "mean_val": mean.astype(np.float64),
            }
        )

    # partials shuffle (tiny: n_keys x n_blocks rows), distributed per-key
    # combine in map_groups; only the finished (key, dim, mean_val) result —
    # n_keys x dim rows — ever reaches the driver.
    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(combine, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(columns=[key_col, "dim", "mean_val"])
    return out.sort_values([key_col, "dim"]).reset_index(drop=True)


def pca_project(ds: Dataset, vec_col: str = "embedding",
                id_col: str = "vec_id", k: int = 4,
                scale: int = 1_000_000) -> Dataset:
    """Exact-covariance PCA: project every vector onto the top-k principal
    components.  Returns (id, pc0..pc{k-1}) with projections quantized to
    ppm int64 — hash-stable across any partitioning.

    Two passes, both shuffle-free:

    1. **Moments** (one scan): each block reduces to one partial row
       (n, sum-vector S, Gram matrix G = X^T X) computed on values quantized
       at ``scale`` and accumulated in int64 — integer sums commute, so the
       combined moments are bit-identical at any block layout.  Partials
       combine on the driver with Python bignums (d^2 numbers, independent
       of row count).  The covariance C = (n*G - S S^T) / n^2 / scale^2 is
       then exact-up-to-one-float-division.
    2. **Eigh + project** (one scan): the top-k eigenvectors of the d x d
       covariance (driver-side ``np.linalg.eigh``, deterministic for a
       bit-identical input matrix) are sign-fixed (largest-|component|
       coordinate made positive, ties to the lowest index) and broadcast;
       every block projects ``(X - mean) @ V`` and quantizes.

    The d x d driver work is the textbook scale shape for tall-skinny PCA
    (d <= a few thousand): no raw vector crosses a shuffle, driver memory is
    O(d^2).  The reference has no dimensionality reduction (its SBERT
    vectors ship raw, run_NCF.py:77); this extends the embedding family
    (ANN / near-dup / k-means in ops/similarity.py)."""
    import ray as _ray

    def moments(batch: pa.Table) -> pa.Table:
        from .similarity import _as_matrix

        x = _as_matrix(batch.column(vec_col))
        if x.size == 0:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "s": pa.array([""], pa.string()),
                             "g": pa.array([""], pa.string())})
        q = np.round(x * scale).astype(np.int64)
        s = q.sum(axis=0, dtype=np.int64)
        g = q.T @ q  # int64 matmul: products <= scale^2, rows/block bounded
        return pa.table({
            "n": pa.array([len(q)], pa.int64()),
            "s": pa.array([",".join(map(str, s))], pa.string()),
            "g": pa.array([",".join(map(str, g.ravel()))], pa.string())})

    parts = (ds.select_columns([vec_col])
             .map_batches(moments, batch_format="pyarrow").to_pandas())
    parts = parts[parts["n"] > 0]
    if not len(parts):
        raise ValueError("pca_project: empty input")
    n = int(parts["n"].sum())
    svecs = [[int(v) for v in row.split(",")] for row in parts["s"]]
    gvecs = [[int(v) for v in row.split(",")] for row in parts["g"]]
    d = len(svecs[0])
    S = [sum(col) for col in zip(*svecs)]       # Python bignum combine
    G = [sum(col) for col in zip(*gvecs)]
    # covariance from exact integer moments (one float division per cell)
    C = np.empty((d, d), dtype=np.float64)
    for i in range(d):
        for j in range(d):
            C[i, j] = float(n * G[i * d + j] - S[i] * S[j])
    C /= float(n) * float(n) * float(scale) * float(scale)
    evals, evecs = np.linalg.eigh(C)
    top = np.argsort(evals, kind="stable")[::-1][:k]
    V = evecs[:, top]
    for c in range(V.shape[1]):
        pivot = int(np.argmax(np.abs(V[:, c])))  # ties: lowest index
        if V[pivot, c] < 0:
            V[:, c] = -V[:, c]
    mean = np.array([float(x) / (float(n) * float(scale)) for x in S])
    ref = _ray.put((mean, V))

    def project(batch: pa.Table) -> pa.Table:
        from .similarity import _as_matrix

        mu, comp = worker_cached("pca" + ref.hex(), lambda: _ray.get(ref))
        x = _as_matrix(batch.column(vec_col))
        proj = (x - mu) @ comp if x.size else np.zeros((0, comp.shape[1]))
        cols = {id_col: batch.column(id_col)}
        for c in range(comp.shape[1]):
            cols[f"pc{c}"] = pa.array(
                np.round(proj[:, c] * 1_000_000).astype(np.int64), pa.int64())
        return pa.table(cols)

    return ds.select_columns([id_col, vec_col]).map_batches(
        project, batch_format="pyarrow")


def medoid_by_key(ds: Dataset, key_col: str, vec_col: str, id_col: str,
                  fixed_point_digits: int = 6) -> pd.DataFrame:
    """Per-key medoid-by-centroid: the row whose vector maximizes the dot
    product with its key's SUM vector (same argmax as cosine-to-centroid
    for same-key comparisons up to per-row norm; we use the raw dot — the
    documented contract) — "the most representative document per cluster",
    the exemplar-selection step after k-means/dedup clustering.

    Exactness: elements are quantized to ``10^-digits`` fixed point ONCE;
    both the per-key sum vectors and every row's dot product are pure
    int64 arithmetic, so the argmax (ties broken by min id) is
    bit-identical at any parallelism and in the SQL oracle — no float
    rounding can flip a winner.

    Scale shape: pass 1 accumulates per-key int sum vectors
    (factorize + np.add.at per block; partials bounded by keys x dim);
    pass 2 broadcasts the sum-vector table and reduces a per-block
    (key, best_dot, best_id) partial — both shuffle-free scans with
    domain-bounded partials (the sketch contract)."""
    import ray

    from .similarity import _as_matrix

    scale = float(10 ** fixed_point_digits)

    def sum_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                key_col: pa.array([], batch.schema.field(key_col).type),
                "vsum": pa.array([], pa.list_(pa.int64()))})
        if batch.column(key_col).null_count:
            # the default factorize sentinel (-1) would np.add.at a
            # null-keyed row's vector into the LAST key's sum, silently
            # corrupting that key's medoid — fail fast like the md5 kernel
            raise ValueError(
                "medoid_by_key: null values in the key column — filter or "
                "fill nulls before computing medoids")
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        q = np.round(_as_matrix(batch.column(vec_col)) * scale).astype(
            np.int64)
        codes, uniq = pd.factorize(keys)
        sums = np.zeros((len(uniq), q.shape[1]), dtype=np.int64)
        np.add.at(sums, codes, q)
        # pin the input key type: Arrow inference on uniq would diverge
        # from the typed empty branch for non-default key types
        return pa.table({key_col: pa.array(uniq,
                                           batch.schema.field(key_col).type),
                         "vsum": pa.array(list(sums), pa.list_(pa.int64()))})

    parts = (ds.select_columns([key_col, vec_col])
             .map_batches(sum_partial, batch_format="pyarrow").to_pandas())
    svecs: dict = {}
    for k, g in parts.groupby(key_col, sort=False):
        svecs[k] = np.sum(np.stack(g["vsum"].to_numpy()), axis=0)
    ref = ray.put(svecs)

    def best_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                key_col: pa.array([], batch.schema.field(key_col).type),
                id_col: pa.array([], batch.schema.field(id_col).type),
                "dot": pa.array([], pa.int64())})
        sv = ray.get(ref)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        q = np.round(_as_matrix(batch.column(vec_col)) * scale).astype(
            np.int64)
        codes, uniq = pd.factorize(keys)
        smat = np.stack([sv[k] for k in uniq])          # (u, d) int64
        # overflow guard (corr_matrix discipline): the dot must stay exact
        mq = int(np.abs(q).max(initial=0))
        ms = int(np.abs(smat).max(initial=0))
        if mq and ms and mq * ms * q.shape[1] >= 2 ** 63:
            raise ValueError(
                "medoid_by_key: int64 dot would overflow — lower "
                "fixed_point_digits or normalize the vectors")
        dots = np.einsum("ij,ij->i", q, smat[codes])    # row-wise int dot
        df = pd.DataFrame({key_col: keys, id_col: ids, "dot": dots})
        best = (df.sort_values([key_col, "dot", id_col],
                               ascending=[True, False, True],
                               kind="mergesort")
                .groupby(key_col, sort=False).head(1))
        return pa.Table.from_pandas(best, preserve_index=False)

    partials = (ds.select_columns([key_col, id_col, vec_col])
                .map_batches(best_partial, batch_format="pyarrow")
                .to_pandas())
    out = (partials.sort_values([key_col, "dot", id_col],
                                ascending=[True, False, True],
                                kind="mergesort")
           .groupby(key_col, sort=True).head(1).reset_index(drop=True))
    out["dot"] = out["dot"].astype("int64")
    return out
