"""Distributed TransE embedding trainer over the KG triples (G9).

The reference trains TransE with torch on the released KG
(src/recommendation/run_transE.py:17-118: entity/relation embeddings,
margin ranking loss, L1/L2 distance, per-step entity L2-renorm, negatives by
corrupting tails) to feed the WnD/NCF recommenders.  This module re-expresses
the trainer Ray-Data-first, with no torch dependency:

- **vocab**: distinct entities/relations from the triples Dataset (driver
  map below ``TRANSE_VOCAB_MAX`` ids; beyond that a deployment
  shards the parameter table across actors by entity hash — same ceiling
  pattern as the canonical map).
- **epoch** = synchronous data-parallel full-batch gradient descent: the
  current parameter matrices are broadcast once per epoch (``ray.put``),
  every ``map_batches`` task computes the margin-loss gradient for its block
  (vectorized numpy, deterministic corrupt-tail negatives keyed on
  ``stable_u64(epoch, h, r, t)``), and emits sparse per-entity gradient
  partials in **fixed-point int64** — integer partials are associative, so
  the combined gradient (and therefore the whole training run) is
  bit-identical across any block partitioning / parallelism level.
- **update**: driver applies ``lr``-scaled gradients and L2-renormalizes
  entity rows (run_transE.py:63 renorm semantics).

Gradient math for margin ranking loss on L2 distance
``d(h,r,t) = ||e_h + e_r - e_t||``: rows with ``margin + d_pos - d_neg > 0``
contribute ``∂d_pos = u_pos`` to (h, r, -t) and ``-∂d_neg = -u_neg`` to
(h, r, -t') where ``u = (e_h + e_r - e_t)/d``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from ..util import stable_u64, worker_cached

# build_vocab's driver id map holds at most this many entities
TRANSE_VOCAB_MAX = 5_000_000

FIXED_SCALE = 2 ** 32  # gradient fixed-point scale (|grad| per entity << 2^31)


def _seeded_rows(names: list[str], dim: int, kind: str) -> np.ndarray:
    """Deterministic init: each row drawn from a RandomState seeded on the
    NAME (not the index), so init is invariant to vocab ordering.  Matches
    the reference's uniform(-6/sqrt(dim), 6/sqrt(dim)) range."""
    bound = 6.0 / np.sqrt(dim)
    out = np.empty((len(names), dim), dtype=np.float64)
    for i, name in enumerate(names):
        rng = np.random.RandomState(stable_u64(kind, name) % (2 ** 31))
        out[i] = rng.uniform(-bound, bound, size=dim)
    return out


def build_vocab(triples: Dataset) -> tuple[list[str], list[str]]:
    """Sorted distinct entities (subj ∪ obj) and relations (pred).

    Distinct is computed distributed (per-block sets -> driver merge); the
    driver id map is the same broadcast-ceiling trade the canonical map
    documents (``TRANSE_VOCAB_MAX``, 5M)."""

    def distinct(b: pa.Table) -> pa.Table:
        ents = set(b.column("subj").to_pylist()) | set(b.column("obj").to_pylist())
        rels = set(b.column("pred").to_pylist())
        return pa.table(
            {
                "name": pa.array(sorted(ents) + sorted(rels), pa.string()),
                # explicit bool type: an empty block would otherwise infer
                # pa.null() and diverge the stream schema
                "is_rel": pa.array([False] * len(ents) + [True] * len(rels),
                                   pa.bool_()),
            }
        )

    ents: set[str] = set()
    rels: set[str] = set()
    parts = triples.select_columns(["subj", "pred", "obj"]).map_batches(
        distinct, batch_format="pyarrow"
    )
    for tbl in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for name, is_rel in zip(tbl.column("name").to_pylist(),
                                tbl.column("is_rel").to_pylist()):
            (rels if is_rel else ents).add(name)
        if len(ents) > TRANSE_VOCAB_MAX:
            raise ValueError(
                f"entity vocab exceeds TRANSE_VOCAB_MAX={TRANSE_VOCAB_MAX}, "
                "the driver-side id map's bound; train on a filtered "
                "subgraph (e.g. triples above a support floor) or shard the "
                "parameter table across hash-partitioned trainer actors"
            )
    return sorted(ents), sorted(rels)


def _grad_fn(params_ref, epoch: int, n_ent: int, margin: float):
    """map_batches task: sparse fixed-point gradient partials for one block."""

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # typed-empty upstream blocks: np.asarray([]) is float64 and
            # would crash the integer fancy-indexing below
            return pa.table({"pid": pa.array([], pa.int64()),
                             "grad_fp": pa.array([], pa.list_(pa.int64()))})
        # one ray.get + deserialize per worker per epoch, not per block:
        # the id dicts are not zero-copy
        ent_emb, rel_emb, ent_ids, rel_ids = worker_cached(
            "tg" + params_ref.hex(), lambda: ray.get(params_ref))
        h = np.asarray([ent_ids[s] for s in batch.column("subj").to_pylist()])
        r = np.asarray([rel_ids[p] for p in batch.column("pred").to_pylist()])
        t = np.asarray([ent_ids[o] for o in batch.column("obj").to_pylist()])
        # deterministic corrupt-tail negatives (run_transE.py negative
        # sampling, made reproducible: keyed hash instead of random.choice)
        t_neg = np.asarray(
            [stable_u64(epoch, hh, rr, tt) % n_ent
             for hh, rr, tt in zip(h, r, t)]
        )
        d_pos_vec = ent_emb[h] + rel_emb[r] - ent_emb[t]
        d_neg_vec = ent_emb[h] + rel_emb[r] - ent_emb[t_neg]
        d_pos = np.linalg.norm(d_pos_vec, axis=1)
        d_neg = np.linalg.norm(d_neg_vec, axis=1)
        active = margin + d_pos - d_neg > 0
        if not active.any():
            return pa.table(
                {
                    "pid": pa.array([], pa.int64()),
                    "grad_fp": pa.array([], pa.list_(pa.int64())),
                }
            )
        u_pos = d_pos_vec[active] / np.maximum(d_pos[active, None], 1e-12)
        u_neg = d_neg_vec[active] / np.maximum(d_neg[active, None], 1e-12)
        act = np.flatnonzero(active)
        g = u_pos - u_neg  # shared by h and r
        # parameter ids: entities [0, n_ent), relations [n_ent, ...).
        # Quantize each per-ROW contribution to int64 BEFORE accumulating:
        # the block sums are then exact integer sums of identical terms, so
        # the epoch gradient is bit-identical under any block partitioning.
        pids_all = np.concatenate([h[act], r[act] + n_ent, t[act], t_neg[act]])
        contrib = np.concatenate([g, g, -u_pos, u_neg])
        contrib_fp = np.rint(contrib * FIXED_SCALE).astype(np.int64)
        uniq, inv = np.unique(pids_all, return_inverse=True)
        out = np.zeros((len(uniq), contrib_fp.shape[1]), dtype=np.int64)
        np.add.at(out, inv, contrib_fp)
        return pa.table(
            {
                "pid": pa.array(uniq, pa.int64()),
                "grad_fp": pa.array(out.tolist(), pa.list_(pa.int64())),
            }
        )

    return fn


def train_transe(
    triples: Dataset,
    dim: int = 384,
    epochs: int = 5,
    lr: float = 0.01,
    margin: float = 1.0,
):
    """Train TransE over a (subj, pred, obj) Dataset; returns
    ``(entities, rels, ent_emb, rel_emb)`` with numpy float64 matrices.

    Every epoch broadcasts the parameters once and streams one gradient pass
    over the triples; fixed-point partials make the run bit-deterministic at
    any parallelism (verified by test + fixture)."""
    # materialize ONCE, FIRST: both build_vocab and the epoch loop read the
    # slim projection — a lazy pipeline-backed Dataset would otherwise
    # re-execute the entire upstream KG build epochs+1 times (the
    # train_recommender discipline)
    slim = triples.select_columns(["subj", "pred", "obj"]).materialize()
    entities, rels = build_vocab(slim)
    n_ent = len(entities)
    ent_ids = {e: i for i, e in enumerate(entities)}
    rel_ids = {p: i for i, p in enumerate(rels)}
    ent_emb = _seeded_rows(entities, dim, "ent")
    rel_emb = _seeded_rows(rels, dim, "rel")
    # reference normalizes relation rows once at init (L1) and entity rows
    # every step (L2) — run_transE.py:44,63
    rel_emb /= np.maximum(np.abs(rel_emb).sum(axis=1, keepdims=True), 1e-12)
    for epoch in range(epochs):
        ent_emb /= np.maximum(
            np.linalg.norm(ent_emb, axis=1, keepdims=True), 1e-12
        )
        params_ref = ray.put((ent_emb, rel_emb, ent_ids, rel_ids))
        grad_fp = np.zeros((n_ent + len(rels), dim), dtype=np.int64)
        parts = slim.map_batches(
            _grad_fn(params_ref, epoch, n_ent, margin), batch_format="pyarrow"
        )
        for tbl in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
            if tbl.num_rows == 0:
                continue
            pids = tbl.column("pid").to_numpy(zero_copy_only=False)
            gs = np.asarray(tbl.column("grad_fp").to_pylist(), dtype=np.int64)
            np.add.at(grad_fp, pids, gs)  # int adds: order-independent
        grad = grad_fp.astype(np.float64) / FIXED_SCALE
        ent_emb = ent_emb - lr * grad[:n_ent]
        rel_emb = rel_emb - lr * grad[n_ent:]
    ent_emb /= np.maximum(np.linalg.norm(ent_emb, axis=1, keepdims=True), 1e-12)
    return entities, rels, ent_emb, rel_emb
