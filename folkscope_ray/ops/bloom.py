"""Broadcast Bloom-filter semi-join: filter a large stream by membership in
a key set WITHOUT shipping the key set to every task.

At 100 TB the semi-join's right side (e.g. "orders above threshold") can be
hundreds of millions of keys — too big to ``ray.put`` as a value set, while
a fixed-size bit array (1 MiB ≈ 8.4M bits) broadcasts once and tests
membership vectorized.  The filter is a PREFILTER (false positives at rate
~(1-e^{-kn/m})^k, zero false negatives); exactness is restored by a
hash-partitioned ``left_semi`` join over the SURVIVORS only — the expensive
shuffle then moves the (tiny) prefiltered stream, not the full input.

The bitmap itself is built distributed: each block emits a fixed-size
partial bitmap and the driver ORs them — bitmap size is constant in the
input, so the collect is bounded regardless of key count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

# bloom_semi_join broadcasts the exact key set of a right side of at most
# this many rows, and builds a Bloom prefilter beyond it
SEMI_BROADCAST_MAX = 2_000_000

_SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
          0x27D4EB2F165667C5)


def _mix64(x: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 finalizer — k independent vectorized hashes of int64 keys."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + np.uint64(seed)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _positions(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(k, n) bit positions for each key."""
    return np.stack([_mix64(keys, _SEEDS[i]) % np.uint64(m_bits)
                     for i in range(k)])


def build_bloom(keys_ds: Dataset, on: str, m_bits: int = 1 << 23,
                k: int = 3) -> np.ndarray:
    """Distributed Bloom build: per-block fixed-size partial bitmaps
    (uint8 words), OR-combined on the driver — O(blocks × m/8) bytes
    collected, independent of key count."""

    def block_bits(b: pa.Table) -> pa.Table:
        keys = b.column(on).to_numpy(zero_copy_only=False).astype(np.int64)
        bits = np.zeros(m_bits // 8, dtype=np.uint8)
        if len(keys):
            pos = _positions(keys, m_bits, k).ravel()
            np.bitwise_or.at(bits, (pos // 8).astype(np.int64),
                             np.left_shift(np.uint8(1), (pos % 8).astype(np.uint8)))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    parts = (keys_ds.select_columns([on])
             .map_batches(block_bits, batch_format="pyarrow")
             .to_pandas()["bits"])
    out = np.zeros(m_bits // 8, dtype=np.uint8)
    for blob in parts:
        out |= np.frombuffer(blob, dtype=np.uint8)
    return out


def bloom_semi_join(large: Dataset, keys_ds: Dataset, on: str,
                    right_key: str | None = None, m_bits: int = 1 << 23,
                    k: int = 3, n_partitions: int | None = None) -> Dataset:
    """Exact semi-join of ``large`` against ``keys_ds``.

    Two data-tied plans (same gate discipline as the canon/neardup
    broadcasts):

    - right side ≤ ``SEMI_BROADCAST_MAX`` keys (2M): the
      exact key set broadcasts once (``ray.put``) and the large side runs a
      single vectorized ``is_in`` scan — no Bloom, no shuffle, no join
      actors (their fixed spin-up dominates small/medium inputs).
    - beyond the gate: Bloom prefilter (broadcast fixed-size bitmap,
      vectorized membership) then a native hash-partitioned ``left_semi``
      join of the SURVIVORS removes false positives — the shuffle moves the
      prefiltered stream, never the full input, and nothing key-count-sized
      touches the driver."""
    right_key = right_key or on
    rk = keys_ds.select_columns([right_key])
    if right_key != on:
        rk = rk.map_batches(lambda b: b.rename_columns([on]),
                            batch_format="pyarrow")
    if rk.count() <= SEMI_BROADCAST_MAX:
        vals = pc.unique(pa.Table.from_pandas(rk.to_pandas()).column(on))
        vref = ray.put(vals)

        def exact_only(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_in(b.column(on), value_set=ray.get(vref)))

        return large.map_batches(exact_only, batch_format="pyarrow")
    bits = build_bloom(rk, on, m_bits=m_bits, k=k)
    bits_ref = ray.put(bits)

    def prefilter(b: pa.Table) -> pa.Table:
        # stateless task; the bitmap ref resolves zero-copy from the local
        # object store per batch (numpy view over plasma, no actor pool)
        bits_v = ray.get(bits_ref)
        keys = b.column(on).to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(keys):
            return b
        pos = _positions(keys, m_bits, k)
        hit = np.ones(len(keys), dtype=bool)
        for i in range(k):
            byte = bits_v[(pos[i] // 8).astype(np.int64)]
            hit &= (byte >> (pos[i] % 8).astype(np.uint8) & 1).astype(bool)
        return b.filter(pa.array(hit))

    survivors = large.map_batches(prefilter, batch_format="pyarrow")
    if n_partitions is None:
        try:
            n_partitions = max(2, int(ray.cluster_resources().get("CPU", 8)) // 4)
        except Exception:
            n_partitions = 8
    return survivors.join(rk, join_type="left_semi",
                          num_partitions=n_partitions, on=(on,))
