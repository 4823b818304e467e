"""Hashing and determinism helpers shared by all stages.

The reference keys generations with md5 of "{asin_a}-{asin_b}-{rel}"
(src/generator/utils.py:42-49) and content-hashes eventualities/concepts with
sha1 (src/pattern/object.py:120-130, 702-711).  We keep both conventions and
add the north-rule per-row invariant: sha256(content) computed at ingest and
carried through every stage.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def sha256_hex(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def sha1_hex(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha1(text).hexdigest()


def md5_hex(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.md5(text).hexdigest()


def pair_key(a: str, b: str, rel: str) -> str:
    """md5 key of a (pair, relation) prompt — format per generator/utils.py:42-49."""
    return md5_hex(f"{a}-{b}-{rel}")


def generate_eid(dependencies, words, pos_tags) -> str:
    """Content hash of a normalized eventuality.

    Exactly the reference formula (src/pattern/object.py:120-130):
    sha1 of the JSON of [dependencies, words, pos_tags], with dependencies as
    (governor, label, dependent) index triples re-based to the eventuality.
    """
    msg = json.dumps([[list(d) for d in dependencies], list(words), list(pos_tags)])
    return sha1_hex(msg)


def generate_cid(words) -> str:
    """Concept id: sha1 of the space-joined words (src/pattern/object.py:702-711)."""
    return sha1_hex(" ".join(words))


WORKER_CACHE_MAX = 16

# the one per-worker-process cache of resolved broadcast state; only
# worker_cached reads or writes it
_WORKER_CACHE: dict = {}


def broadcast_cache_put(cache: dict, key, value,
                        cap: int = WORKER_CACHE_MAX) -> None:
    """:func:`worker_cached`'s insert: evicts the OLDEST entries once
    ``cap`` is reached.

    Every ``ray.put``-broadcast stage keys its state by the fresh
    ``ObjectRef.hex()`` of that invocation, so without eviction a driver
    loop (per-shard / per-round calls) pins one full copy of the broadcast
    state per invocation in every long-lived worker process — an unbounded
    leak.  A bounded FIFO keeps the once-per-worker ``ray.get`` discipline
    (the live ref of the current stage is always resident) without the
    growth.  ``cap`` must comfortably exceed the number of DISTINCT keys
    the stages fused into one worker resolve concurrently, or eviction
    would thrash a rebuild per batch: the KG memo join holds 3 (memo,
    canonical map, lineage index)."""
    while len(cache) >= cap:
        cache.pop(next(iter(cache)))
    cache[key] = value


def worker_cached(key: str, build):
    """``build()`` once per worker process for ``key``, then reused by
    every task scheduled there.  ``key`` is a role prefix plus the hex of
    the broadcast ref the state comes from: one ref can back several
    roles (the raw table and an index over it), and every module shares
    this cache."""
    val = _WORKER_CACHE.get(key)
    if val is None:
        val = build()
        broadcast_cache_put(_WORKER_CACHE, key, val)
    return val


def stable_u64(*parts: object) -> int:
    """Deterministic 64-bit hash of the given parts (never Python's salted hash)."""
    h = hashlib.blake2b("|".join(str(p) for p in parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def stable_choice(seq, *parts: object):
    """Deterministic element pick keyed on the parts."""
    return seq[stable_u64(*parts) % len(seq)]


def stable_uniform(*parts: object) -> float:
    """Deterministic uniform [0, 1) keyed on the parts."""
    return stable_u64(*parts) / 2**64


def sha256_column(values) -> np.ndarray:
    """Vectorized-ish sha256 over a string array (tight loop, no row dicts)."""
    return np.fromiter(
        (hashlib.sha256(v.encode("utf-8")).hexdigest() for v in values),
        dtype=object,
        count=len(values),
    )


def hex_string_array(raw: bytes, n: int, row_bytes: int):
    """``n`` rows of ``row_bytes`` raw bytes -> Arrow utf8 array of
    ``2*row_bytes``-char lowercase hex strings, built with ONE
    ``bytes.hex()`` call and a buffer-backed StringArray (no per-row hex or
    Python string objects).  Shared by the md5 kernel (ops/split.py) and the
    setjoin mask keys (ops/setjoin.py) so the offsets/buffer construction —
    including the int32-offset bound below — lives in exactly one place."""
    import pyarrow as pa

    width = 2 * row_bytes
    if width * (n + 1) > 2**31 - 1:
        # utf8 offsets are int32; a block this large must be split upstream
        raise ValueError(
            f"hex_string_array: {n} x {width}-char strings overflow int32 "
            "offsets — reduce the batch/block size")
    if len(raw) != n * row_bytes:
        raise ValueError(
            f"hex_string_array: got {len(raw)} bytes for {n} x {row_bytes}")
    data = pa.py_buffer(raw.hex().encode())
    offsets = pa.py_buffer(
        np.arange(0, width * (n + 1), width, dtype=np.int32).tobytes())
    return pa.Array.from_buffers(pa.utf8(), n, [None, offsets, data])
