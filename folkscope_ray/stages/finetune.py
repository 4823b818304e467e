"""Distributed classifier fine-tuning loop (the critic's TRAINING side).

The reference fine-tunes a DeBERTa sequence classifier on human-annotated
assertions with the HF Trainer (src/classifier/run_classification.py:562-601:
``get_last_checkpoint`` + ``resume_from_checkpoint`` checkpoint resume,
per-epoch checkpoints, train metrics), evaluates accuracy/P/R/F1
(run_classification.py:534-550) and writes a predictions TSV with the
softmax class-1 score (run_classification.py:624-656).  Until now only the
inference/threshold side existed here (``stages/critic.py``,
``functions/metrics.py``); this module closes the gap with a runnable,
Ray-Data-first, torch-free TRAINING loop:

- **features**: hashed bag-of-words (feature hashing, Weinberger et al.
  2009 — public): token -> ``stable_u64("feat", token) % dim`` with integer
  counts plus a bias slot.  Tokens come from the ONE corpus token class
  (``ops/index.py TERM_RE``) so the classifier's vocabulary can never drift
  from the rest of the engine.  This is the sandbox analogue of the frozen
  transformer encoder: the trainer sees an (n, dim) design matrix either
  way, and a GPU embedding stage can swap in upstream without touching the
  loop.
- **model**: binary logistic regression (labels use the reference
  vocabulary: positive="v"(alid), negative="i"(nvalid),
  run_classification.py:326-341).
- **epoch** = synchronous data-parallel full-batch gradient descent, the
  same discipline as the TransE/NCF trainers (``stages/transe.py``): the
  weight vector is broadcast once per epoch (``ray.put``), every
  ``map_batches`` task streams its blocks and emits SPARSE INTEGER gradient
  partials ``g_j = Σ_i count_ij * r_i`` where the per-row residual
  ``r_i = rint(SCALE * (sigmoid(x_i·w) - y_i))`` is quantized PER ROW
  before any summation — every partial is a product/sum of int64s, so the
  combined gradient (and therefore the whole run) is bit-identical at any
  parallelism / block partitioning.  The per-epoch train loss rides the
  same pass as one extra fixed-point slot (no second scan).
- **checkpoints**: after every epoch the weights land in
  ``run_dir/checkpoint-{epoch}/`` (``weights.npy`` + ``state.json`` carrying
  a config fingerprint); :func:`last_checkpoint` finds the newest compatible
  one and :func:`train_classifier` resumes from it — the
  ``get_last_checkpoint``/``resume_from_checkpoint`` contract.  Full-batch
  GD is deterministic, so a resumed run is bit-identical to an unbroken one
  (pytest-pinned).

Scale judgment: one epoch is one streaming pass; the driver holds only the
``dim+2``-slot gradient vector (``dim`` is a config constant, not data-
sized), so the loop is corpus-size-independent on the driver — the same
industrial split as the BPE trainer (``ops/lm.py``).
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from ..ops.index import TERM_RE
from ..state.manifest import fingerprint
from ..util import stable_u64, worker_cached

#: per-row residual quantization.  |r| <= SCALE (residuals live in [-1, 1]),
#: counts are per-doc token counts, so one COO entry is < 2^{20+31} and an
#: int64 partial holds > 2^12 blocks of 2^31-token text without overflow.
FIXED_SCALE = 2 ** 20

#: loss quantization (millibit-style, same trick as ops/lm.py): per-row
#: -log-likelihood in bits * 2^20, rounded — integer partials sum exactly.
LOSS_SCALE = 2 ** 20

POSITIVE = "v"
NEGATIVE = "i"


def _hash_terms(terms: np.ndarray, dim: int) -> np.ndarray:
    """Feature index for each distinct term (only uniques pay the hash)."""
    return np.fromiter(
        (stable_u64("feat", t) % dim for t in terms),
        dtype=np.int64, count=len(terms))


def _features_coo(texts: list[str], dim: int):
    """Hashed bag-of-words for one block as COO ``(row, col, count)``.

    One regex pass per text (C-level), then ONE factorize + unique over the
    block's token stream — the md5/stable hash runs once per DISTINCT term,
    not once per occurrence."""
    import pandas as pd

    toks: list[str] = []
    rows: list[int] = []
    for i, t in enumerate(texts):
        ws = TERM_RE.findall(t.lower())
        toks.extend(ws)
        rows.extend([i] * len(ws))
    if not toks:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    codes, uniques = pd.factorize(np.asarray(toks, dtype=object), sort=True)
    cols = _hash_terms(np.asarray(uniques, dtype=object), dim)[codes]
    # collapse duplicate (row, col) pairs: pack into one int64 key (dim is
    # bounded by construction, rows by the block size)
    packed = np.asarray(rows, dtype=np.int64) * np.int64(dim) + cols
    uniq, counts = np.unique(packed, return_counts=True)
    return uniq // dim, uniq % dim, counts.astype(np.int64)


def _scores(texts: list[str], w: np.ndarray, dim: int) -> np.ndarray:
    """sigmoid(x·w) per row — the binary softmax[:, 1] analogue."""
    ii, jj, cc = _features_coo(texts, dim)
    z = np.full(len(texts), w[dim], dtype=np.float64)  # bias slot
    np.add.at(z, ii, cc.astype(np.float64) * w[jj])
    return 1.0 / (1.0 + np.exp(-z))


def _grad_fn(w_ref, dim: int, text_col: str, label_col: str):
    """map_batches task: sparse int64 gradient partials for one block.

    Output slots: j in [0, dim) are feature gradients, j == dim the bias,
    j == dim+1 the fixed-point loss sum, j == dim+2 the row count."""

    def fn(batch: pa.Table) -> pa.Table:
        w = worker_cached("ftw" + w_ref.hex(), lambda: ray.get(w_ref))
        texts = batch.column(text_col).to_pylist()
        y = (np.asarray(batch.column(label_col).to_pylist(), dtype=object)
             == POSITIVE).astype(np.float64)
        # ONE feature pass per block per epoch: the tokenize/factorize/hash
        # extraction dominates epoch cost, so derive the scores from the
        # same COO triple instead of calling _scores (which re-extracts) —
        # identical math, half the hot path
        ii, jj, cc = _features_coo(texts, dim)
        z = np.full(len(texts), w[dim], dtype=np.float64)  # bias slot
        np.add.at(z, ii, cc.astype(np.float64) * w[jj])
        p = 1.0 / (1.0 + np.exp(-z))
        # per-ROW quantization before any cross-row sum => associativity
        r = np.rint((p - y) * FIXED_SCALE).astype(np.int64)
        g = np.zeros(dim + 3, dtype=np.int64)
        np.add.at(g, jj, cc * r[ii])
        g[dim] = int(r.sum())  # bias: count 1 per row
        # -log2-likelihood per row, clamped away from log(0)
        ll = np.where(y > 0.5, p, 1.0 - p)
        bits = -np.log2(np.maximum(ll, 1e-12))
        g[dim + 1] = int(np.rint(bits * LOSS_SCALE).astype(np.int64).sum())
        g[dim + 2] = len(texts)
        nz = np.flatnonzero(g)
        return pa.table({"j": pa.array(nz, pa.int64()),
                         "g": pa.array(g[nz], pa.int64())})

    return fn


def _config_fp(dim: int, epochs: int, lr: float, n_rows: int,
               text_col: str, label_col: str, data_sum: int) -> str:
    return fingerprint("finetune", dim, epochs, lr, n_rows, text_col,
                       label_col, FIXED_SCALE, data_sum)


_DATA_SUM_MOD = (1 << 61) - 1


def _data_checksum(slim: Dataset, text_col: str, label_col: str) -> int:
    """Order-insensitive content checksum of the (text, label) training
    set: per-row md5 folded to int61, summed mod a Mersenne prime — one
    cheap pass so a CHANGED dataset of the SAME size cannot silently
    resume from (and skip training against) stale checkpoints."""
    import hashlib

    def part(b: pa.Table) -> pa.Table:
        s = 0
        for t, l in zip(b.column(text_col).to_pylist(),
                        b.column(label_col).to_pylist()):
            d = hashlib.md5(f"{t}\x1f{l}".encode()).digest()
            s = (s + (int.from_bytes(d[:8], "big") & _DATA_SUM_MOD)) \
                % _DATA_SUM_MOD
        return pa.table({"s": pa.array([s], pa.int64())})

    tot = slim.map_batches(part, batch_format="pyarrow").to_pandas()
    return int(tot["s"].sum() % _DATA_SUM_MOD) if len(tot) else 0


_CKPT_RE = re.compile(r"^checkpoint-(\d+)$")


def _checkpoints_newest_first(run_dir: str) -> list[str]:
    if not os.path.isdir(run_dir):
        return []
    found = []
    for name in os.listdir(run_dir):
        m = _CKPT_RE.match(name)
        if m and os.path.isfile(os.path.join(run_dir, name, "state.json")):
            found.append((int(m.group(1)), os.path.join(run_dir, name)))
    return [p for _, p in sorted(found, reverse=True)]


def last_checkpoint(run_dir: str) -> str | None:
    """Newest ``checkpoint-{epoch}`` dir under ``run_dir`` — the
    ``transformers.trainer_utils.get_last_checkpoint`` contract
    (run_classification.py:575-579)."""
    cks = _checkpoints_newest_first(run_dir)
    return cks[0] if cks else None


def _save_checkpoint(run_dir: str, epoch: int, w: np.ndarray, fp: str,
                     history: list[dict]) -> None:
    ck = os.path.join(run_dir, f"checkpoint-{epoch}")
    tmp = ck + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    np.save(os.path.join(tmp, "weights.npy"), w)
    state = {"epoch": epoch, "config_fp": fp, "history": history}
    with open(os.path.join(tmp, "state.json"), "w") as f:
        json.dump(state, f)
    # atomic publish: a killed run never leaves a half-written checkpoint
    if os.path.isdir(ck):
        import shutil

        shutil.rmtree(ck)
    os.replace(tmp, ck)


def train_classifier(
    ds: Dataset,
    text_col: str = "text",
    label_col: str = "label",
    dim: int = 4096,
    epochs: int = 10,
    lr: float = 1.0,
    run_dir: str | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Fine-tune the binary classifier; returns ``(weights, history)``.

    ``weights`` has ``dim + 1`` float64 slots (features + bias);
    ``history`` one ``{"epoch", "train_loss_bits"}`` entry per epoch.  With
    ``run_dir`` set, every epoch checkpoints and a rerun resumes from the
    newest compatible checkpoint instead of starting over
    (run_classification.py:575-586 semantics) — incompatible checkpoints
    (different config/data fingerprint) are ignored, not trusted."""
    # materialize the slim (text, label) training set ONCE: an epoch loop
    # over a lazy Dataset re-executes the upstream pipeline (labeling,
    # split filters, joins) on EVERY epoch — epochs re-read blocks from the
    # object store (spillable) instead.  Bounded by the labeled fine-tuning
    # corpus, which is small by construction (the reference trains on
    # human-annotated assertions); count() on the materialized set is free.
    slim = ds.select_columns([text_col, label_col]).materialize()
    n_rows = slim.count()
    # coalesce to ~4096-row blocks: a filter pipeline leaves many tiny
    # blocks, and each epoch pays per-TASK orchestration — 64 blocks of 60
    # rows x 8 epochs is 512 near-empty tasks.  Output is bit-identical at
    # any partitioning (integer partials), so this is purely a task-count
    # choice; large corpora still fan out (1M rows -> ~245 blocks).
    target_blocks = max(1, -(-n_rows // 4096))
    if slim.num_blocks() > 2 * target_blocks:
        slim = slim.repartition(target_blocks).materialize()
    if n_rows == 0:
        raise ValueError("train_classifier: empty training set")
    data_sum = _data_checksum(slim, text_col, label_col)
    fp = _config_fp(dim, epochs, lr, n_rows, text_col, label_col, data_sum)
    w = np.zeros(dim + 1, dtype=np.float64)
    history: list[dict] = []
    start_epoch = 0
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        # newest COMPATIBLE checkpoint: a stale higher-epoch dir from an
        # older config/data must not mask a resumable one below it
        for ck in _checkpoints_newest_first(run_dir):
            with open(os.path.join(ck, "state.json")) as f:
                state = json.load(f)
            if state.get("config_fp") == fp:
                w = np.load(os.path.join(ck, "weights.npy"))
                history = list(state["history"])
                start_epoch = int(state["epoch"]) + 1
                break

    for epoch in range(start_epoch, epochs):
        w_ref = ray.put(w)
        g = np.zeros(dim + 3, dtype=np.int64)
        parts = slim.map_batches(
            _grad_fn(w_ref, dim, text_col, label_col),
            batch_format="pyarrow")
        for tbl in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
            if tbl.num_rows:
                np.add.at(g, tbl.column("j").to_numpy(zero_copy_only=False),
                          tbl.column("g").to_numpy(zero_copy_only=False))
        grad = g[: dim + 1].astype(np.float64) / (FIXED_SCALE * n_rows)
        w = w - lr * grad
        loss_bits = g[dim + 1] / LOSS_SCALE / max(1, g[dim + 2])
        history.append({"epoch": epoch, "train_loss_bits": float(loss_bits)})
        if run_dir is not None:
            _save_checkpoint(run_dir, epoch, w, fp, history)
    return w, history


def evaluate_classifier(ds: Dataset, w: np.ndarray, dim: int | None = None,
                        text_col: str = "text",
                        label_col: str = "label") -> dict:
    """Distributed accuracy/P/R/F1 (run_classification.py:534-550): each
    block emits integer confusion counts; the driver sums four ints."""
    if dim is None:
        dim = len(w) - 1
    w_ref = ray.put(np.asarray(w, dtype=np.float64))

    def confusion(batch: pa.Table) -> pa.Table:
        wv = worker_cached("ftw" + w_ref.hex(), lambda: ray.get(w_ref))
        y = (np.asarray(batch.column(label_col).to_pylist(), dtype=object)
             == POSITIVE)
        p = _scores(batch.column(text_col).to_pylist(), wv, dim) >= 0.5
        return pa.table({
            "tp": pa.array([int((y & p).sum())], pa.int64()),
            "fp": pa.array([int((~y & p).sum())], pa.int64()),
            "fn": pa.array([int((y & ~p).sum())], pa.int64()),
            "tn": pa.array([int((~y & ~p).sum())], pa.int64()),
        })

    tp = fp_ = fn = tn = 0
    parts = ds.select_columns([text_col, label_col]).map_batches(
        confusion, batch_format="pyarrow")
    for tbl in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        df = tbl.to_pandas()
        tp += int(df["tp"].sum()); fp_ += int(df["fp"].sum())
        fn += int(df["fn"].sum()); tn += int(df["tn"].sum())
    precision = tp / (tp + fp_) if tp + fp_ else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    total = tp + fp_ + fn + tn
    return {"accuracy": (tp + tn) / max(1, total), "precision": precision,
            "recall": recall, "f1": f1,
            "tp": tp, "fp": fp_, "fn": fn, "tn": tn}


def predict_classifier(ds: Dataset, w: np.ndarray, dim: int | None = None,
                       text_col: str = "text",
                       label_col: str | None = None) -> Dataset:
    """Append ``prediction`` ("i"/"v") and ``score`` (class-1 probability,
    quantized to 6 digits so output hashes are parallelism-stable) — the
    predictions-TSV shape of run_classification.py:645-656."""
    if dim is None:
        dim = len(w) - 1
    w_ref = ray.put(np.asarray(w, dtype=np.float64))

    def fn(batch: pa.Table) -> pa.Table:
        wv = worker_cached("ftw" + w_ref.hex(), lambda: ray.get(w_ref))
        s = np.round(_scores(batch.column(text_col).to_pylist(), wv, dim), 6)
        pred = np.where(s >= 0.5, POSITIVE, NEGATIVE)
        out = batch.append_column("prediction",
                                  pa.array(pred.tolist(), pa.string()))
        return out.append_column("score", pa.array(s, pa.float64()))

    return ds.map_batches(fn, batch_format="pyarrow")
