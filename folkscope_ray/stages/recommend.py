"""NCF / Wide&Deep recommender training over engine products (G9).

The reference trains two torch rankers on user-item rating matrices to
evaluate the KG's usefulness as a feature source:

- **NCF** (src/recommendation/run_NCF.py:25-63): user/item embedding tables
  + an MLP head (concat -> 64 -> 32 -> 1, ReLU at every layer including the
  output), MSE loss, Adam(lr=1e-4), vocab built from the TRAIN split with
  ``unk``=0 (run_NCF.py:108-117), RMSE eval on valid/test, best checkpoint
  by validation RMSE (run_NCF.py:211-212).
- **WnD** (src/recommendation/run_WnD.py:25-67): the same two embedding
  tables plus a FROZEN per-item feature embedding (the KG-derived features
  from preprocess.py:207-240 — mean of the SBERT edge-text vectors of every
  edge touching the item) feeding both a deep tower (concat -> 64 -> 32 ->
  1) and a wide linear layer; prediction = deep + wide.

Ray-Data-first re-expression, no torch:

- **Interactions** come from the engine's own KG: (user = repo, item =
  canonical entity, rating = 1 + min(4, floor(log2(count)))) where count is
  the number of eventuality occurrences of that entity inside that repo —
  the source-code analogue of the reference's user-item review matrices.
  Built as a streaming partial-count -> bucketed combine (no raw row ever
  crosses the shuffle un-combined), split 8/1/1 train/valid/test by a
  stable hash of (user, item).
- **Training** is synchronous data-parallel full-batch gradient descent:
  parameters broadcast once per epoch (``ray.put``), each ``map_batches``
  task computes its block's gradient, the driver combines partials and
  applies an Adam step (run_NCF.py:163 optimizer semantics; full-batch
  instead of the reference's 4096-row subsample so one epoch = one pass over
  the Dataset; dropout omitted — it is identity at eval time and the
  deterministic contract forbids RNG in workers).
- **Bit-determinism by construction**: forward AND backward run in fixed-
  point int64 (``FP`` fractional bits).  Integer matmuls and integer adds
  are associative, so block partitioning / parallelism level cannot change
  a single bit of the gradient, the eval RMSE, or the predictions — the
  property the golden-fixture hash-compare requires (same contract as
  stages/transe.py, which uses fixed-point partials for the same reason).
  Gradient partials are emitted at raw ``2*FP`` scale and rescaled ONCE on
  the driver (a per-block rescale would floor per-block and break
  associativity).  int64 headroom bounds the design: with FP=14 and the
  gradient clip below, partial sums stay exact up to ~1e8 interactions per
  training run; beyond that, shard the parameter table (the ceiling is
  documented, like ``transe.TRANSE_VOCAB_MAX``).

Scale shape: the embedding tables are O(users + items) and broadcast per
epoch; interactions stream; nothing driver-side grows with interaction
count except the int64 gradient matrices (vocab x dim).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from ..util import stable_u64, worker_cached

def _cached_refs(tag: str, *refs):
    """Resolve a tuple of ObjectRefs once per worker process (None refs
    pass through as None), keyed by the refs' hexes: the vocab dicts are
    not zero-copy, so a per-block ``ray.get`` would re-deserialize
    O(vocab) state every block of every epoch."""
    return worker_cached(
        "rec" + tag + "|".join(r.hex() if r is not None else "-"
                               for r in refs),
        lambda: tuple(ray.get(r) if r is not None else None for r in refs))

FP = 14                      # fractional bits of the fixed-point format
ONE = 1 << FP
EMBED_SIZE = 16              # reference uses 50 (run_NCF.py:147); 16 keeps
                             # the deterministic fixture small — a config, not
                             # a semantic
H1, H2 = 64, 32              # deep tower widths (run_NCF.py:40-42)
GRAD_CLIP = 64 * ONE         # per-element clip keeps int64 partial sums exact


def q(x: np.ndarray) -> np.ndarray:
    """Quantize float64 -> fixed-point int64."""
    return np.rint(np.asarray(x, dtype=np.float64) * ONE).astype(np.int64)


def dq(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float64) / ONE


def imat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact fixed-point matmul: int64 product at 2*FP scale, floored back
    to FP.  Integer arithmetic -> associative -> partition-invariant."""
    return (a @ b) >> FP


def _seeded_matrix(kind: str, names_or_n, dim: int, bound: float) -> np.ndarray:
    """Deterministic init.  Embedding rows seed on the NAME (ordering-
    invariant, like transe._seeded_rows); dense layers seed on (kind, row)."""
    if isinstance(names_or_n, int):
        out = np.empty((names_or_n, dim))
        for i in range(names_or_n):
            rng = np.random.RandomState(stable_u64("rec", kind, i) % (2 ** 31))
            out[i] = rng.uniform(-bound, bound, size=dim)
        return out
    out = np.empty((len(names_or_n), dim))
    for i, name in enumerate(names_or_n):
        rng = np.random.RandomState(stable_u64("rec", kind, name) % (2 ** 31))
        out[i] = rng.uniform(-bound, bound, size=dim)
    return out


# --------------------------------------------------------------- interactions


def build_interactions(eventualities: Dataset, n_buckets: int = 64) -> Dataset:
    """(user=repo, item=entity, rating, split) from the eventualities table.

    Each occurrence row contributes (repo, canon_a) and (repo, canon_b);
    counts partial-aggregate per block, combine in hash buckets, then
    rating = 1 + min(4, floor(log2(count))) — a 1..5 scale like the
    reference's review ratings.  split: 0-7 train / 8 valid / 9 test by
    stable_u64, so the split is a pure function of (user, item)."""

    def partial(batch: pa.Table) -> pa.Table:
        acc: dict[tuple, int] = {}
        repos = batch.column("repo").to_pylist()
        for col in ("canon_a", "canon_b"):
            for u, it in zip(repos, batch.column(col).to_pylist()):
                k = (u, it)
                acc[k] = acc.get(k, 0) + 1
        keys = list(acc.keys())
        return pa.table(
            {
                "bucket": pa.array(
                    [stable_u64(u, i) % n_buckets for u, i in keys], pa.int32()
                ),
                "user": pa.array([k[0] for k in keys], pa.string()),
                "item": pa.array([k[1] for k in keys], pa.string()),
                "n_p": pa.array([acc[k] for k in keys], pa.int64()),
            }
        )

    def combine(df):
        out = (
            df.groupby(["user", "item"], sort=False)
            .agg(n=("n_p", "sum"))
            .reset_index()
        )
        cnt = out["n"].to_numpy()
        out["rating"] = 1 + np.minimum(4, np.floor(np.log2(cnt)).astype(np.int64))
        splits = np.fromiter(
            (stable_u64("split", u, i) % 10
             for u, i in zip(out["user"], out["item"])),
            dtype=np.int64, count=len(out),
        )
        out["split"] = splits
        return out.drop(columns=["n"])

    return (
        eventualities.select_columns(["repo", "canon_a", "canon_b"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(combine, batch_format="pandas")
    )


def item_feature_vectors(triples: Dataset, dim: int = 32) -> dict:
    """Per-entity KG feature vectors for WnD: embed every edge's text with
    the SBERT-contract embedder, credit the embedding to BOTH entities of
    the subject pair, mean-pool per entity (preprocess.py:207-240 — the
    reference's ``asin_1, asin_2 = u.split("-")`` loop; canonical entities
    are bare [a-z0-9]+, so the split is exact).  Fixed-point mean =>
    bit-identical at any parallelism.  Returns {entity: [float] * dim} —
    bounded by the item vocabulary, the same broadcast-ceiling trade as the
    TransE parameter table."""
    from ..ops.vector import mean_vector_by_key
    from .embed import embed_batch

    embedded = triples.select_columns(["subj", "obj"]).map_batches(
        embed_batch, batch_format="pyarrow",
        fn_kwargs={"text_col": "obj", "dim": dim},
    )

    def explode(b: pa.Table) -> pa.Table:
        ents, vecs = [], []
        for subj, emb in zip(b.column("subj").to_pylist(),
                             b.column("embedding").to_pylist()):
            a, b2 = subj.split("-")
            ents.append(a)
            vecs.append(emb)
            ents.append(b2)
            vecs.append(emb)
        return pa.table(
            {
                "entity": pa.array(ents, pa.string()),
                "embedding": pa.array(vecs, pa.list_(pa.float64())),
            }
        )

    df = mean_vector_by_key(
        embedded.map_batches(explode, batch_format="pyarrow"),
        key_col="entity", vec_col="embedding", fixed_point_digits=9,
    )
    out: dict[str, np.ndarray] = {}
    for ent, sub in df.groupby("entity", sort=False):
        v = np.zeros(dim)
        v[sub["dim"].to_numpy()] = sub["mean_val"].to_numpy()
        out[ent] = v
    return out


def wnd_item_features(triples: Dataset, variant: str = "kg",
                      dim: int = 32) -> dict:
    """Feature-set ablation switches mirroring the reference's three WnD
    configurations:

    - ``"kg"``       — run_WnD.py:146-162: pretrained KG-derived item
      features (here: mean SBERT-contract edge-text vector per entity,
      ``item_feature_vectors``).  The paper's headline config.
    - ``"text"``     — run_WnD_text_feature.py:142: item-TEXT-only features
      (the item's own surface form embedded, no KG edges touched).
    - ``"baseline"`` — run_WnD_baseline.py:146-147: uninformative random
      item features (the reference uses a randomly-initialized trainable
      ``nn.Embedding``; ours is a seeded FROZEN matrix — the trainer's
      deterministic contract forbids RNG, and frozen-random is the same
      "no information" ablation).

    The reference also varies dropout per variant (0.6 / 0.5 / 0.3);
    dropout is omitted here by design (identity at eval time, and worker
    RNG would break bit-determinism — see module docstring).

    Returns {entity: np.ndarray(dim)} for every entity in the triples'
    subject pairs — item-vocabulary-bounded, same broadcast class as
    ``item_feature_vectors``."""
    if variant == "kg":
        return item_feature_vectors(triples, dim=dim)
    if variant not in ("text", "baseline"):
        raise ValueError(f"unknown WnD ablation variant: {variant!r}")
    from ..ops.relational import map_combine_aggregate

    def explode_ents(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parts = pc.split_pattern(b.column("subj"), "-")
        ents = pa.chunked_array([
            pc.list_element(parts, 0).combine_chunks(),
            pc.list_element(parts, 1).combine_chunks(),
        ]) if b.num_rows else pa.chunked_array([pa.array([], pa.string())])
        return pa.table({"entity": ents})

    distinct = map_combine_aggregate(
        triples.select_columns(["subj"]).map_batches(
            explode_ents, batch_format="pyarrow"),
        keys=["entity"], count_alias="__n",
    )
    if variant == "baseline":
        names = sorted(
            pa.concat_tables(ray.get(list(distinct.to_arrow_refs())),
                             promote_options="default")
            .column("entity").to_pylist())
        mat = _seeded_matrix("wnd-baseline", names, dim, 1.0 / np.sqrt(dim))
        return {name: mat[i] for i, name in enumerate(names)}
    # "text": embed each entity's own surface form with the same
    # SBERT-contract embedder the kg variant uses for edge texts
    from .embed import embed_batch

    embedded = distinct.map_batches(
        embed_batch, batch_format="pyarrow",
        fn_kwargs={"text_col": "entity", "dim": dim},
    ).to_pandas()
    return {row.entity: np.asarray(row.embedding, dtype=np.float64)
            for row in embedded.itertuples()}


def build_rec_vocab(interactions: Dataset) -> tuple[dict, dict]:
    """Train-split vocabularies with unk=0 (run_NCF.py:108-117): ids 1..n in
    sorted-name order (the reference's set-iteration order is arbitrary;
    sorted is the deterministic choice)."""

    def distinct(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tr = b.filter(pc.less(b.column("split"), 8))
        us = sorted(set(tr.column("user").to_pylist()))
        its = sorted(set(tr.column("item").to_pylist()))
        return pa.table(
            {
                "name": pa.array(us + its, pa.string()),
                # explicit bool type: empty blocks would infer pa.null()
                "is_item": pa.array([False] * len(us) + [True] * len(its),
                                    pa.bool_()),
            }
        )

    users: set = set()
    items: set = set()
    for tbl in interactions.map_batches(
        distinct, batch_format="pyarrow"
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        for name, is_item in zip(tbl.column("name").to_pylist(),
                                 tbl.column("is_item").to_pylist()):
            (items if is_item else users).add(name)
    user_vocab = {u: i + 1 for i, u in enumerate(sorted(users))}
    item_vocab = {it: i + 1 for i, it in enumerate(sorted(items))}
    return user_vocab, item_vocab


def _split(ds: Dataset, lo: int, hi: int) -> Dataset:
    """Vectorized split filter (Ray's Dataset.filter is row-based)."""
    import pyarrow.compute as pc

    def fn(b: pa.Table) -> pa.Table:
        s = b.column("split")
        return b.filter(pc.and_(pc.greater_equal(s, lo), pc.less_equal(s, hi)))

    return ds.map_batches(fn, batch_format="pyarrow")


# -------------------------------------------------------------------- model


def init_params(n_users: int, n_items: int, user_names: list[str],
                item_names: list[str], embed_size: int = EMBED_SIZE,
                feat_dim: int = 0) -> dict:
    """Fixed-point parameter dict.  Row 0 of each embedding table is the
    ``unk`` row (seeded like any other, on the reserved name ``\\x00unk``)."""
    bound = 1.0 / np.sqrt(embed_size)
    din = 2 * embed_size + feat_dim
    P = _seeded_matrix("user", ["\x00unk"] + user_names, embed_size, bound)
    Q = _seeded_matrix("item", ["\x00unk"] + item_names, embed_size, bound)
    params = {
        "P": q(P), "Q": q(Q),
        "W1": q(_seeded_matrix("W1", H1, din, 1.0 / np.sqrt(din))),
        "b1": q(np.zeros(H1)),
        "W2": q(_seeded_matrix("W2", H2, H1, 1.0 / np.sqrt(H1))),
        "b2": q(np.zeros(H2)),
        "w3": q(_seeded_matrix("w3", 1, H2, 1.0 / np.sqrt(H2))[0]),
        "b3": q(np.zeros(1)),
    }
    if feat_dim:
        params["wide_w"] = q(_seeded_matrix("wide", 1, din, 1.0 / np.sqrt(din))[0])
        params["wide_b"] = q(np.zeros(1))
    return params


def _forward(z0: np.ndarray, p: dict) -> tuple:
    """Fixed-point forward pass.  ReLU at every layer INCLUDING the output
    (run_NCF.py:56-58 applies relu to layer_3; run_WnD.py:63 likewise), wide
    head linear (run_WnD.py:65).  Returns (pred, a1, a2, deep)."""
    a1 = np.maximum(imat(z0, p["W1"].T) + p["b1"], 0)
    a2 = np.maximum(imat(a1, p["W2"].T) + p["b2"], 0)
    deep = np.maximum(((a2 @ p["w3"]) >> FP) + p["b3"][0], 0)
    if "wide_w" in p:
        pred = deep + ((z0 @ p["wide_w"]) >> FP) + p["wide_b"][0]
    else:
        pred = deep
    return pred, a1, a2, deep


def _z0(p: dict, u: np.ndarray, it: np.ndarray, feat_fp) -> np.ndarray:
    cols = [p["P"][u], p["Q"][it]]
    if feat_fp is not None:
        cols.append(feat_fp[it])
    return np.concatenate(cols, axis=1)


def _grad_fn(params_ref, user_vocab_ref, item_vocab_ref, feat_ref,
             embed_size: int):
    """map_batches task: one block's gradient partials at raw 2*FP scale."""

    def fn(batch: pa.Table) -> pa.Table:
        p, uv, iv, feat_fp = _cached_refs(
            "rg", params_ref, user_vocab_ref, item_vocab_ref, feat_ref)
        empty = pa.table(
            {
                "kind": pa.array([], pa.string()),
                "pid": pa.array([], pa.int64()),
                "grad2fp": pa.array([], pa.list_(pa.int64())),
                "sse2fp": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        u = np.asarray([uv.get(x, 0) for x in batch.column("user").to_pylist()])
        it = np.asarray([iv.get(x, 0) for x in batch.column("item").to_pylist()])
        r_fp = batch.column("rating").to_numpy(zero_copy_only=False).astype(np.int64) << FP
        z0 = _z0(p, u, it, feat_fp)
        pred, a1, a2, deep = _forward(z0, p)
        err = pred - r_fp                       # FP scale
        # d(sum err^2)/d pred = 2 err; clip keeps every downstream int64
        # partial-sum exact (|g| <= GRAD_CLIP = 64.0 fixed-point)
        g = np.clip(2 * err, -GRAD_CLIP, GRAD_CLIP)
        rows = {}

        # ---- deep tower backward (all int64; partials at 2*FP scale)
        d3 = g * (deep > 0)                                       # FP
        rows["w3"] = (a2 * d3[:, None]).sum(axis=0)[None, :]      # 2FP
        rows["b3"] = np.array([[d3.sum()]]) << FP
        d2 = ((d3[:, None] * p["w3"][None, :]) >> FP) * (a2 > 0)  # FP
        rows["W2"] = d2.T @ a1                                    # 2FP
        rows["b2"] = d2.sum(axis=0)[None, :] << FP
        d1 = ((d2 @ p["W2"]) >> FP) * (a1 > 0)                    # FP
        rows["W1"] = d1.T @ z0                                    # 2FP
        rows["b1"] = d1.sum(axis=0)[None, :] << FP
        dz0 = d1 @ p["W1"]                                        # 2FP
        if "wide_w" in p:
            rows["wide_w"] = (z0 * g[:, None]).sum(axis=0)[None, :]
            rows["wide_b"] = np.array([[g.sum()]]) << FP
            dz0 = dz0 + g[:, None] * p["wide_w"][None, :]
        # ---- sparse embedding grads: per-(id) int sums at 2FP scale
        out_k, out_pid, out_g = [], [], []
        for kind, ids, sl in (("P", u, slice(0, embed_size)),
                              ("Q", it, slice(embed_size, 2 * embed_size))):
            contrib = dz0[:, sl]
            uniq, inv = np.unique(ids, return_inverse=True)
            acc = np.zeros((len(uniq), embed_size), dtype=np.int64)
            np.add.at(acc, inv, contrib)
            out_k.extend([kind] * len(uniq))
            out_pid.extend(uniq.tolist())
            out_g.extend(acc.tolist())
        for kind, mat in rows.items():
            for i in range(mat.shape[0]):
                out_k.append(kind)
                out_pid.append(i)
                out_g.append(mat[i].astype(np.int64).tolist())
        err_c = np.clip(err, -(1 << 24), 1 << 24)  # exact SSE within int64
        sse2fp = int((err_c * err_c).sum())
        return pa.table(
            {
                "kind": pa.array(out_k, pa.string()),
                "pid": pa.array(out_pid, pa.int64()),
                "grad2fp": pa.array(out_g, pa.list_(pa.int64())),
                "sse2fp": pa.array([sse2fp] + [0] * (len(out_k) - 1), pa.int64()),
                "n": pa.array([len(u)] + [0] * (len(out_k) - 1), pa.int64()),
            }
        )

    return fn


class _Adam:
    """Driver-side Adam (run_NCF.py:163, lr=1e-4 default) in float64 —
    runs once per epoch in a fixed order, so it is deterministic given the
    deterministic combined gradient."""

    def __init__(self, shapes: dict, lr: float):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, params: dict, grads: dict) -> dict:
        self.t += 1
        out = {}
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mh = self.m[k] / (1 - self.b1 ** self.t)
            vh = self.v[k] / (1 - self.b2 ** self.t)
            out[k] = dq(params[k]) - self.lr * mh / (np.sqrt(vh) + self.eps)
        return {k: q(v) for k, v in out.items()}


def _eval_pass(split_ds: Dataset, params_ref, uv_ref, iv_ref, feat_ref,
               embed_size: int, with_rows: bool):
    """Deterministic RMSE (and optionally per-row predictions) for a split:
    int64 SSE partials + count, sqrt on the driver."""

    def fn(batch: pa.Table) -> pa.Table:
        p, uv, iv, feat_fp = _cached_refs(
            "re", params_ref, uv_ref, iv_ref, feat_ref)
        if batch.num_rows == 0:
            cols = {
                "sse2fp": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
            if with_rows:
                cols.update(
                    user=pa.array([], pa.string()),
                    item=pa.array([], pa.string()),
                    rating=pa.array([], pa.int64()),
                    pred_fp=pa.array([], pa.int64()),
                )
            return pa.table(cols)
        u = np.asarray([uv.get(x, 0) for x in batch.column("user").to_pylist()])
        it = np.asarray([iv.get(x, 0) for x in batch.column("item").to_pylist()])
        ratings = batch.column("rating").to_numpy(zero_copy_only=False).astype(np.int64)
        pred, _a1, _a2, _deep = _forward(_z0(p, u, it, feat_fp), p)
        err = np.clip(pred - (ratings << FP), -(1 << 24), 1 << 24)
        n = len(u)
        cols = {
            "sse2fp": pa.array([int((err * err).sum())] + [0] * (n - 1), pa.int64()),
            "n": pa.array([n] + [0] * (n - 1), pa.int64()),
        }
        if with_rows:
            cols.update(
                user=batch.column("user"),
                item=batch.column("item"),
                rating=batch.column("rating"),
                pred_fp=pa.array(pred.tolist(), pa.int64()),
            )
        return pa.table(cols)

    return split_ds.map_batches(fn, batch_format="pyarrow")


def train_recommender(
    interactions: Dataset,
    item_features: dict | None = None,
    embed_size: int = EMBED_SIZE,
    epochs: int = 30,
    lr: float = 0.05,
    eval_every: int = 5,
):
    """Train NCF (``item_features=None``) or WnD over the interactions
    Dataset.  Returns ``(params, user_vocab, item_vocab, feat_fp, history)``
    where history rows are (epoch, valid_rmse, test_rmse); the caller picks
    the best epoch by validation RMSE (run_NCF.py:211-212).

    lr=0.05 (not the reference's 1e-4): full-batch Adam takes far fewer,
    larger steps than the reference's 50k 4096-row subsample iterations —
    epochs*lr is the matched quantity, not lr."""
    # the trainer streams the interactions table once per epoch + once per
    # eval split — materialize it (it is the COMBINED (user,item) matrix,
    # orders of magnitude smaller than the corpus it came from)
    interactions = interactions.materialize()
    user_vocab, item_vocab = build_rec_vocab(interactions)
    feat_fp = None
    feat_dim = 0
    if item_features is not None:
        feat_dim = len(next(iter(item_features.values())))
        F = np.zeros((len(item_vocab) + 1, feat_dim))
        for name, vec in item_features.items():
            iid = item_vocab.get(name)
            if iid is not None:
                F[iid] = vec
        feat_fp = q(F)
    params = init_params(
        len(user_vocab), len(item_vocab),
        sorted(user_vocab), sorted(item_vocab), embed_size, feat_dim,
    )
    uv_ref = ray.put(user_vocab)
    iv_ref = ray.put(item_vocab)
    feat_ref = ray.put(feat_fp) if feat_fp is not None else None
    train = _split(interactions, 0, 7)
    valid = _split(interactions, 8, 8)
    test = _split(interactions, 9, 9)
    adam = _Adam({k: v.shape for k, v in params.items()}, lr)
    history = []

    def rmse_of(split_ds, params_ref) -> float:
        sse, n = 0, 0
        for tbl in _eval_pass(split_ds, params_ref, uv_ref, iv_ref, feat_ref,
                              embed_size, False).iter_batches(
                                  batch_size=None, batch_format="pyarrow"):
            sse += sum(tbl.column("sse2fp").to_pylist())
            n += sum(tbl.column("n").to_pylist())
        return float(np.sqrt(sse / max(n, 1)) / ONE)

    for epoch in range(epochs):
        params_ref = ray.put(params)
        grads2fp: dict[str, np.ndarray] = {
            k: np.zeros(v.shape, dtype=np.int64) for k, v in params.items()
        }
        n_total = 0
        for tbl in train.map_batches(
            _grad_fn(params_ref, uv_ref, iv_ref, feat_ref, embed_size),
            batch_format="pyarrow",
        ).iter_batches(batch_size=None, batch_format="pyarrow"):
            kinds = tbl.column("kind").to_pylist()
            pids = tbl.column("pid").to_pylist()
            gs = tbl.column("grad2fp").to_pylist()
            for kind, pid, gvec in zip(kinds, pids, gs):
                tgt = grads2fp[kind]
                if tgt.ndim == 1:
                    if pid == 0:
                        tgt += np.asarray(gvec, dtype=np.int64)
                else:
                    tgt[pid] += np.asarray(gvec, dtype=np.int64)
            n_total += sum(tbl.column("n").to_pylist())
        # one rescale: raw 2FP -> float grad, mean over rows (MSE mean)
        grads = {k: dq(v >> FP) / max(n_total, 1) for k, v in grads2fp.items()}
        params = adam.step(params, grads)
        if (epoch + 1) % eval_every == 0 or epoch == epochs - 1:
            pr = ray.put(params)
            history.append(
                {"epoch": epoch + 1, "valid_rmse": rmse_of(valid, pr),
                 "test_rmse": rmse_of(test, pr), "params": params}
            )
    best = min(history, key=lambda h: h["valid_rmse"])
    best_params = best["params"]
    history = [
        {k: h[k] for k in ("epoch", "valid_rmse", "test_rmse")} for h in history
    ]
    return best_params, user_vocab, item_vocab, feat_fp, history


def predict_test(interactions: Dataset, params: dict, user_vocab: dict,
                 item_vocab: dict, feat_fp, embed_size: int = EMBED_SIZE
                 ) -> Dataset:
    """(user, item, rating, pred) over the test split with the fixed-point
    forward — bit-identical at any parallelism."""
    test = _split(interactions, 9, 9)
    out = _eval_pass(test, ray.put(params), ray.put(user_vocab),
                     ray.put(item_vocab),
                     ray.put(feat_fp) if feat_fp is not None else None,
                     embed_size, True)

    def clean(b: pa.Table) -> pa.Table:
        pred = b.column("pred_fp").to_numpy(zero_copy_only=False) / ONE
        return pa.table(
            {
                "user": b.column("user"),
                "item": b.column("item"),
                "rating": b.column("rating"),
                "pred": pa.array(np.round(pred, 6), pa.float64()),
            }
        )

    return out.map_batches(clean, batch_format="pyarrow")
