"""Edge-text embedding stage (T7): the SBERT embedding contract.

The reference embeds every KG edge sentence with a SentenceTransformer
loaded once per process and encoded in fixed batches of 512
(src/recommendation/preprocess.py:168-199: ``SentenceTransformer(
'all-MiniLM-L6-v2')``, ``batch_size = 512``, ``model.encode(batched)``).
Here the same stage is a Ray Data task UDF, :func:`embed_batch`, with a
per-worker model cache: a real deployment loads the transformer once per
worker process, amortized across blocks, and a task reserves no CPU between
blocks, so the stage runs beside an upstream shuffle even on a 1-CPU
cluster.  This sandbox has no torch, so the model is a deterministic hashed
bag-of-words encoder with the identical I/O contract — swap ``_load_model``
to return the real SentenceTransformer and nothing else changes.

Usage:
    ds.map_batches(embed_batch, batch_format="pyarrow",
                   fn_kwargs={"text_col": "obj", "dim": 384})
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

EMBED_DIM = 384          # all-MiniLM-L6-v2 output width
EMBED_BATCH_SIZE = 512   # preprocess.py:179


class _DeterministicSentenceModel:
    """Hashed bag-of-words stand-in for SentenceTransformer.encode: each
    token hashes to a fixed pseudo-random unit direction; a sentence embeds
    as the L2-normalized token sum, so token overlap => cosine similarity
    (the property the downstream mean-pool / ANN consumers exercise)."""

    def __init__(self, dim: int):
        self.dim = dim
        self._cache: dict[str, np.ndarray] = {}

    def _token_vec(self, tok: str) -> np.ndarray:
        v = self._cache.get(tok)
        if v is None:
            from ..util import stable_u64

            rng = np.random.RandomState(stable_u64("embed", tok) % (2 ** 31))
            v = rng.standard_normal(self.dim)
            v /= np.linalg.norm(v)
            if len(self._cache) < 1_000_000:
                self._cache[tok] = v
        return v

    def encode(self, sentences: list[str]) -> np.ndarray:
        out = np.zeros((len(sentences), self.dim), dtype=np.float64)
        for i, s in enumerate(sentences):
            toks = s.lower().split()
            if toks:
                out[i] = np.sum([self._token_vec(t) for t in toks], axis=0)
                n = np.linalg.norm(out[i])
                if n > 0:
                    out[i] /= n
        return out


def _load_model(dim: int):
    # real deployment: from sentence_transformers import SentenceTransformer
    #                  return SentenceTransformer("all-MiniLM-L6-v2")
    return _DeterministicSentenceModel(dim)


# per-worker model cache, one model per output width, loaded on first use
_MODELS: dict[int, _DeterministicSentenceModel] = {}


def embed_batch(batch: pa.Table, text_col: str = "obj",
                out_col: str = "embedding", dim: int = EMBED_DIM) -> pa.Table:
    """Append ``out_col``, the embedding of each ``text_col`` row; the block
    is encoded in fixed ``EMBED_BATCH_SIZE`` inference batches (the
    reference's fixed-batch contract) rather than by Ray-level bundling."""
    model = _MODELS.get(dim)
    if model is None:
        model = _MODELS[dim] = _load_model(dim)
    texts = batch.column(text_col).to_pylist()
    chunks = [model.encode(texts[i:i + EMBED_BATCH_SIZE])
              for i in range(0, len(texts), EMBED_BATCH_SIZE)]
    embs = np.concatenate(chunks) if chunks else np.zeros((0, dim))
    return batch.append_column(
        out_col, pa.array(embs.tolist(), pa.list_(pa.float64())))
