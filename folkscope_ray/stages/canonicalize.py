"""Entity canonicalization: minhash-LSH banding + union-find.

The north rule adds a stage the reference lacks (it only exact-hashes with
sha1 eids/cids, src/pattern/object.py:130,711): near-duplicate entity surface
forms ("json_parser", "JsonParser", "json_parser_impl", ...) must map to one
canonical id.  Distributed shape:

1. surface normalization + per-batch partial dedup (map-side combine — this is
   the skew defence: the hot entity that appears in ~30% of rows collapses to
   ONE row per batch *before* any shuffle, so no reducer sees the hot key's
   full row stream);
2. ``groupby(norm)`` over the partials -> distinct normalized surfaces;
3. per-surface minhash (character 3-gram shingles, 64 perms) banded into
   ``LSH_BANDS`` bands of ``LSH_ROWS`` rows -> (band_id, band_hash, norm);
4. ``groupby(band_id, band_hash)`` emits *star* candidate edges (min-norm ->
   other) — O(group) edges, never the O(group²) clique, so even a pathological
   hot band stays linear;
5. the bounded candidate-edge set (≤ #surfaces × #bands) is verified with real
   3-gram Jaccard ≥ ``JACCARD_THRESHOLD`` and union-found on the driver;
   the canonical id of a component is its lexicographically-smallest member;
6. the surface -> canonical map is broadcast via ``ray.put`` and applied
   inside ``map_batches`` — a broadcast join, not a shuffle join.

For corpora where even the *distinct-surface* set outgrows the driver
(``DRIVER_BANDING_MAX``), the whole computation stays distributed: the
distinct-norm ``groupby``, the banding explode, per-bucket candidate-pair
generation AND Jaccard verification (inside ``map_groups`` — the verify work
is distributed too), then iterative min-label propagation over the verified
edge Dataset (``ops/components.connected_components``).  Nothing unbounded is
ever materialized on the driver; the result is a (norm, canon) labels
Dataset, applied either as a broadcast dict (when it fits) or as a hash join
(``apply_canonical_join``).

Candidate pairs per bucket: all pairs for buckets of ≤ ``PAIRWISE_CAP``
members (recall parity with the exact O(n²) oracle), min-root star sweep
above that (bounds a pathological hot band at O(n) edges).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
from ray.data import Dataset

N_PERMS = 64
LSH_BANDS = 32
LSH_ROWS = 2          # N_PERMS == LSH_BANDS * LSH_ROWS; narrow bands => high
                      # candidate recall even at Jaccard ~0.5 (verifier filters)
SHINGLE_K = 3
JACCARD_THRESHOLD = 0.8   # only for non-prefix near-dups; see is_near_duplicate
MAX_SUFFIX_EXTRA = 4      # prefix-extension variants: base + <=4 extra chars
DRIVER_BANDING_MAX = 200_000  # below this many distinct surfaces, band on driver
PAIRWISE_CAP = 16         # full pairwise verify for buckets up to this size

_MERSENNE = (1 << 61) - 1
_rng = np.random.RandomState(42)
_PERM_A = _rng.randint(1, _MERSENNE, size=N_PERMS, dtype=np.int64)
_PERM_B = _rng.randint(0, _MERSENNE, size=N_PERMS, dtype=np.int64)

_NORM_RE = re.compile(r"[^a-z0-9]+")


def normalize_surface(surface: str) -> str:
    """snake/camel/Pascal/kebab case-fold to a bare alnum form."""
    s = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", surface)
    return _NORM_RE.sub("", s.lower())


def shingles(norm: str) -> set[int]:
    if len(norm) < SHINGLE_K:
        return {hash_shingle(norm)}
    return {hash_shingle(norm[i : i + SHINGLE_K]) for i in range(len(norm) - SHINGLE_K + 1)}


def hash_shingle(s: str) -> int:
    # FNV-1a 64-bit: deterministic across processes (unlike builtin hash)
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def minhash_sig(norm: str) -> np.ndarray:
    sh = np.fromiter(shingles(norm), dtype=np.uint64)
    vals = (sh[:, None].astype(np.int64) * _PERM_A + _PERM_B) % _MERSENNE
    return vals.min(axis=0)


def band_hashes(norm: str) -> list[int]:
    sig = minhash_sig(norm).reshape(LSH_BANDS, LSH_ROWS)
    out = []
    for band in sig:
        h = 0xCBF29CE484222325
        for v in band:
            h = ((h ^ int(v)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        out.append(h)
    return out


def jaccard(a: str, b: str, shingles_of=shingles) -> float:
    sa, sb = shingles_of(a), shingles_of(b)
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if inter else 0.0


def is_near_duplicate(a: str, b: str, shingles_of=shingles) -> bool:
    """Edge verifier for candidate pairs from LSH banding.

    Union-find is transitive, so the verifier must be strict enough that
    chains cannot bridge distinct entities that share a long suffix
    ("local_allocator" ~ "disk_allocator" have char-3-gram J = 0.5 — a naive
    J >= 0.5 cut over-merges through such chains).  Two rules:

    - prefix extension: one norm extends the other by <= MAX_SUFFIX_EXTRA
      chars ("jsonparser" -> "jsonparserimpl", "jsonparser2") — the shape of
      real fork/version/impl suffixes;
    - otherwise a high Jaccard bar (>= JACCARD_THRESHOLD) for genuine
      near-identical strings.

    ``shingles_of`` lets a caller that verifies many pairs compute each
    norm's shingle set once.
    """
    if a == b:
        return True
    lo, hi = (a, b) if len(a) <= len(b) else (b, a)
    if hi.startswith(lo) and len(hi) - len(lo) <= MAX_SUFFIX_EXTRA:
        return True
    return jaccard(a, b, shingles_of) >= JACCARD_THRESHOLD


# ------------------------------------------------------------- Ray stages

def _distinct_norms_batch(batch: pa.Table) -> pa.Table:
    """Map-side combine: distinct norms per batch.

    ``pc.unique`` first (vectorized) — only the few hundred distinct surfaces
    per block pay the Python normalization, not every row.  Only the NORM
    ships: banding, edge verification, and the canonical map all key on the
    normalized form, so carrying a surface sample through the shuffle was
    pure dead payload."""
    import pyarrow.compute as pc

    if "norm" in batch.column_names:  # already a norm partial
        return batch.select(["norm"])
    seen: set[str] = set()
    for col in ("surf_a", "surf_b"):
        if col in batch.column_names:
            for s in pc.unique(batch.column(col)).to_pylist():
                seen.add(normalize_surface(s))
    return pa.table({"norm": pa.array(sorted(seen), pa.string())})


def _band_rows_batch(batch: pa.Table) -> pa.Table:
    norms = batch.column("norm").to_pylist()
    b_ids, b_hashes, b_norms = [], [], []
    for n in norms:
        for bid, bh in enumerate(band_hashes(n)):
            b_ids.append(bid)
            b_hashes.append(bh)
            b_norms.append(n)
    return pa.table(
        {
            "band_id": pa.array(b_ids, pa.int32()),
            "band_hash": pa.array(b_hashes, pa.uint64()),
            "norm": pa.array(b_norms, pa.string()),
        }
    )


def candidate_pairs(members) -> list[tuple[str, str]]:
    """Candidate verify pairs for one LSH bucket — the SHARED edge-generation
    rule for the driver and distributed paths (their outputs must match
    exactly).  Small buckets verify all pairs: near-dups b~c sharing a bucket
    with an unrelated min-member a would be missed by a root-only sweep (the
    exact O(n²) oracle merges them).  Big buckets fall back to the min-root
    star sweep so a pathological hot band stays O(n)."""
    members = sorted(set(members))
    if len(members) < 2:
        return []
    if len(members) <= PAIRWISE_CAP:
        return [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
    root = members[0]
    return [(root, m) for m in members[1:]]


def _verified_bucket_edges(group) -> pa.Table:
    """Per-bucket candidate generation + Jaccard verification (distributed:
    runs inside groupby(band).map_groups, so verify cost scales out too).
    Returns explicitly-typed Arrow (an empty object-dtype pandas frame would
    become a null-typed block and poison the downstream union schema)."""
    pairs = [(a, b) for a, b in candidate_pairs(group["norm"])
             if is_near_duplicate(a, b)]
    return pa.table(
        {"a": pa.array([p[0] for p in pairs], pa.string()),
         "b": pa.array([p[1] for p in pairs], pa.string())}
    )


class UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        # iterative with full path compression: union is by lex order (not
        # rank), so parent chains can exceed Python's recursion limit — the
        # same hardening ops/components._driver_union_find carries
        root = self.parent.setdefault(x, x)
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # canonical id = lexicographically smallest member
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            self.parent[hi] = lo


def build_canonical_labels(pairs_or_surfaces: Dataset) -> Dataset:
    """surface-bearing Dataset -> (norm, canon) labels Dataset, FULLY
    distributed: per-batch distinct partials -> groupby(norm) distinct ->
    banding explode -> per-bucket verified candidate edges -> iterative
    min-label propagation.  Only norms that merged with something appear
    (identity mappings are implied; apply with ``canon.get(n, n)`` semantics
    or a left join).  No driver-side materialization anywhere."""
    from ..ops.components import connected_components
    from ..ops.relational import map_combine_aggregate

    partials = pairs_or_surfaces.map_batches(
        _distinct_norms_batch, batch_format="pyarrow"
    )
    # distributed distinct: map-side-combined count (the partial+final
    # combine shape), NOT per-key map_groups — ~1-row groups make per-group
    # accumulators pathological; the count column is dropped by banding
    distinct = map_combine_aggregate(partials, keys=["norm"],
                                     count_alias="__c")
    bands = distinct.map_batches(_band_rows_batch, batch_format="pyarrow")
    edges = bands.groupby(["band_id", "band_hash"]).map_groups(
        _verified_bucket_edges, batch_format="pandas"
    )
    labels = connected_components(edges)

    def rename(b: pa.Table) -> pa.Table:
        if "node" not in b.column_names:
            return pa.table({"norm": pa.array([], pa.string()),
                             "canon": pa.array([], pa.string())})
        return pa.table({"norm": b.column("node"), "canon": b.column("label")})

    return labels.map_batches(rename, batch_format="pyarrow")


def canonical_from_norms(norm_list: list[str]) -> dict[str, str]:
    """Driver-side banding + union-find over a (small) distinct-norm list —
    the same minhash-LSH math and ``candidate_pairs`` edge rule as the
    distributed path (their outputs must match exactly).

    A pair that shares several buckets is verified once, with each norm's
    shingles computed once; the verify order does not matter because
    :meth:`UnionFind.union` keeps the lexicographically smallest root."""
    from functools import lru_cache

    uf = UnionFind()
    buckets: dict[tuple[int, int], list[str]] = {}
    for n in norm_list:
        uf.find(n)
        for bid, bh in enumerate(band_hashes(n)):
            buckets.setdefault((bid, bh), []).append(n)
    pairs = {p for members in buckets.values()
             for p in candidate_pairs(members)}
    shingles_of = lru_cache(maxsize=None)(shingles)
    for a, b in pairs:
        if is_near_duplicate(a, b, shingles_of):
            uf.union(a, b)
    return {n: uf.find(n) for n in norm_list}


def _per_distinct(col, fn) -> pa.Array:
    """``fn`` over a string column, called once per DISTINCT value
    (dictionary-encode, map the dictionary, take); typed on 0 rows."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    vals = pa.array([fn(s) for s in enc.dictionary.to_pylist()], pa.string())
    return vals.take(enc.indices)


def apply_canonical(batch: pa.Table, canon: dict[str, str]) -> pa.Table:
    """Broadcast-join the canonical map onto surf_a/surf_b columns."""
    def canon_id(surface: str) -> str:
        n = normalize_surface(surface)
        return canon.get(n, n)

    out = batch
    for col, new in (("surf_a", "canon_a"), ("surf_b", "canon_b")):
        out = out.append_column(new, _per_distinct(batch.column(col), canon_id))
    return out


def _join_compatible(t: pa.DataType) -> bool:
    return not (pa.types.is_list(t) or pa.types.is_large_list(t)
                or pa.types.is_struct(t) or pa.types.is_map(t))


def apply_canonical_join(ds: Dataset, labels: Dataset,
                         cols=(("surf_a", "canon_a"), ("surf_b", "canon_b")),
                         num_partitions: int | None = None) -> Dataset:
    """Web-scale canonical-map application: for each (src_col, dst_col),
    normalize the surface and LEFT hash-join the (norm, canon) labels Dataset
    onto it (identity where unmatched).  Used when the canonical map exceeds
    broadcast size — the map never exists as one driver/worker dict.

    Nested (list/struct) payload columns are JSON-packed around the joins —
    Acero's hash join rejects nested non-key fields — and rebuilt with their
    original Arrow types afterwards."""
    import json

    import pyarrow.compute as pc

    from ..ops.components import _drop_empty_blocks, _nparts

    nparts = num_partitions or _nparts()
    labels = _drop_empty_blocks(labels.materialize())

    sch = ds.schema()
    nested = {n: t for n, t in zip(sch.names, sch.types)
              if isinstance(t, pa.DataType) and not _join_compatible(t)}

    def pack(b: pa.Table) -> pa.Table:
        for name in nested:
            i = b.column_names.index(name)
            vals = [json.dumps(v) for v in b.column(name).to_pylist()]
            b = b.set_column(i, name, pa.array(vals, pa.string()))
        return b

    def unpack(b: pa.Table) -> pa.Table:
        for name, typ in nested.items():
            i = b.column_names.index(name)
            vals = [json.loads(v) for v in b.column(name).to_pylist()]
            b = b.set_column(i, name, pa.array(vals, typ))
        return b

    out = ds.map_batches(pack, batch_format="pyarrow") if nested else ds
    for src, dst in cols:
        tmp = f"__norm_{dst}"

        def add_norm(b: pa.Table, src=src, tmp=tmp) -> pa.Table:
            return b.append_column(
                tmp, _per_distinct(b.column(src), normalize_surface))

        out = out.map_batches(add_norm, batch_format="pyarrow")
        if labels is None:  # no merges anywhere: canon == norm
            def ident(b: pa.Table, dst=dst, tmp=tmp) -> pa.Table:
                return b.append_column(dst, b.column(tmp)).drop_columns([tmp])

            out = out.map_batches(ident, batch_format="pyarrow")
            continue

        def rename(b: pa.Table, dst=dst) -> pa.Table:
            return pa.table({"norm": b.column("norm"), dst: b.column("canon")})

        lab = labels.map_batches(rename, batch_format="pyarrow")
        out = out.join(lab, join_type="left_outer", num_partitions=nparts,
                       on=(tmp,), right_on=("norm",))

        def coalesce(b: pa.Table, dst=dst, tmp=tmp) -> pa.Table:
            canon_col = b.column(dst)
            merged = pc.if_else(pc.is_valid(canon_col), canon_col, b.column(tmp))
            i = b.column_names.index(dst)
            return b.set_column(i, dst, merged).drop_columns([tmp])

        out = out.map_batches(coalesce, batch_format="pyarrow")
    if nested:
        out = out.map_batches(unpack, batch_format="pyarrow")
    return out
