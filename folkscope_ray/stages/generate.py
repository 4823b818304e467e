"""Candidate-assertion generation: the (mock) causal-LM actor pool.

The reference loads OPT-30B once per process and generates
``num_return_sequences=3`` completions per prompt in fixed-size batches
(src/generator/generation.py:43-63,92-113).  Here the same stage is an actor
pool: heavyweight "model load" happens once in ``__init__``; ``__call__``
handles one Arrow batch and fans out 1 prompt -> N_GENS assertion rows.  The
model is a deterministic template LM (sandbox has no GPU) with the identical
I/O contract — swap the class to use a real model.

Usage:
    ds.map_batches(MockGenerator, batch_format="pyarrow",
                   batch_size=GEN_BATCH_SIZE, concurrency=N, num_cpus=1)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..relations import REL_INDEX

N_GENS = 3            # num_return_sequences, generation.py:108,137
GEN_BATCH_SIZE = 512  # prompts per inference batch (reference uses 10 on GPU)
MAX_PROMPT_WORDS = 50  # long-title guard, generation.py:217-220 / prompt.py:57-59



def _sliced_fanout(gen, batch: pa.Table) -> pa.Table | None:
    """Shared fixed-GEN_BATCH_SIZE slicing (generation.py:238-243): recurse
    through ``gen`` per slice, or None when the batch is already small."""
    if batch.num_rows > GEN_BATCH_SIZE:
        return pa.concat_tables([
            gen(batch.slice(i, GEN_BATCH_SIZE))
            for i in range(0, batch.num_rows, GEN_BATCH_SIZE)
        ])
    return None


def _empty_result(batch: pa.Table) -> pa.Table:
    """Typed empty with the generator output schema (drops 'prompt')."""
    return batch.drop_columns(["prompt"])                 .append_column("gen_idx", pa.array([], pa.int8()))                 .append_column("assertion", pa.array([], pa.string()))


def _length_filtered(batch: pa.Table) -> tuple[pa.Table, list[str]]:
    """Per-row long-prompt guard — the reference drops the WHOLE batch at
    generation.py:96-99, which loses data; we filter rows.  The +12 covers
    the pair-template tokens around the MAX_PROMPT_WORDS title budget."""
    prompts = batch.column("prompt").to_pylist()
    keep = [i for i, p in enumerate(prompts)
            if len(p.split()) <= MAX_PROMPT_WORDS + 12]
    if len(keep) < batch.num_rows:
        batch = batch.take(pa.array(keep, pa.int64()))
        prompts = [prompts[i] for i in keep]
    return batch, prompts


class ApiGenerator:
    """HTTP-API generator actor — the OPT-175B "api" generation path
    (generation.py:63-66 host_url config, :74-79 request payload
    ``{"prompt": [...], "max_tokens": N, "temperature": t}``, :81-89 one
    JSON POST per inference batch, :112 reshape to (n_prompts, n_gens)).

    Same I/O contract as :class:`MockGenerator` (prompt batch in ->
    ``gen_idx``/``assertion`` fan-out rows, identical schema — contract-
    pytested), so the two classes swap freely in ``map_batches``.  The
    transport is injectable: ``transport(url, payload: dict) -> dict`` —
    the default uses stdlib ``urllib`` (this sandbox has no network, so
    tests inject a fake; a deployment can pass a requests/httpx session
    wrapper).  Transient transport errors retry with exponential backoff;
    after ``max_retries`` the batch task fails loudly (Ray's task retry is
    the outer loop — never silently drop a batch's generations).

    Each actor holds ONE transport/connection built in ``__init__`` —
    amortized over all batches, the actor-pool analogue of the reference's
    per-process session.
    """

    def __init__(self, host_url: str, n_gens: int = N_GENS,
                 max_tokens: int = 100, temperature: float = 1.0,
                 max_retries: int = 3, timeout: float = 30.0,
                 transport=None):
        self.host_url = host_url
        self.n_gens = n_gens
        self.max_tokens = max_tokens
        self.temperature = temperature
        self.max_retries = max_retries
        self.timeout = timeout
        self.transport = transport or self._urllib_transport

    def _urllib_transport(self, url: str, payload: dict) -> dict:
        import json
        from urllib.request import Request, urlopen

        req = Request(url, data=json.dumps(payload).encode(),
                      headers={"content-type": "application/json"})
        with urlopen(req, timeout=self.timeout) as res:
            return json.loads(res.read().decode("utf-8"))

    def _request(self, prompts: list[str]) -> list[str]:
        """One API call for one inference batch; returns the flat
        ``n_prompts * n_gens`` completion list (row-major, like the
        reference's ``np.reshape(res, (len(prompt), -1))``)."""
        import time as _time

        payload = {
            "prompt": prompts,
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
            "num_return_sequences": self.n_gens,
        }
        last_err: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                res = self.transport(self.host_url, payload)
                texts = [c["text"] for c in res["choices"]]
                if len(texts) != len(prompts) * self.n_gens:
                    raise ValueError(
                        f"API returned {len(texts)} completions for "
                        f"{len(prompts)} prompts x {self.n_gens} sequences")
                return texts
            except Exception as e:  # noqa: BLE001 — retry any transport error
                last_err = e
                if attempt + 1 < self.max_retries:
                    _time.sleep(min(2.0 ** attempt, 8.0))
        raise RuntimeError(
            f"ApiGenerator: {self.max_retries} attempts failed against "
            f"{self.host_url}") from last_err

    def __call__(self, batch: pa.Table) -> pa.Table:
        sliced = _sliced_fanout(self, batch)
        if sliced is not None:
            return sliced
        if batch.num_rows == 0:
            return _empty_result(batch)
        batch, prompts = _length_filtered(batch)
        n = batch.num_rows
        if n == 0:
            return _empty_result(batch)
        texts = self._request(prompts)
        idx = np.repeat(np.arange(n, dtype=np.int64), self.n_gens)
        rep = batch.take(pa.array(idx))
        gen_idx = np.tile(np.arange(self.n_gens, dtype=np.int8), n)
        out = rep.drop_columns(["prompt"])
        out = out.append_column("gen_idx", pa.array(gen_idx, pa.int8()))
        out = out.append_column("assertion", pa.array(texts, pa.string()))
        return out


class MockGenerator:
    """Deterministic stand-in for the OPT generator actor.

    ``__init__`` is where a real implementation would load model weights —
    executed once per actor, amortized over all batches it serves.
    """

    def __init__(self, n_gens: int = N_GENS):
        self.n_gens = n_gens
        # placeholder for model/tokenizer state; deterministic here.
        self._rels = REL_INDEX

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Slices the incoming block into fixed GEN_BATCH_SIZE inference
        batches internally — the fixed-batch contract of the reference
        generator (generation.py:238-243) without forcing Ray-level row
        bundling (which would throttle upstream fan-out)."""
        sliced = _sliced_fanout(self, batch)
        if sliced is not None:
            return sliced
        if batch.num_rows == 0:
            return _empty_result(batch)
        batch, _prompts = _length_filtered(batch)
        n = batch.num_rows
        if n == 0:
            return _empty_result(batch)
        idx = np.repeat(np.arange(n, dtype=np.int64), self.n_gens)
        rep = batch.take(pa.array(idx))
        gen_idx = np.tile(np.arange(self.n_gens, dtype=np.int8), n)
        surf_a = rep.column("surf_a").to_pylist()
        surf_b = rep.column("surf_b").to_pylist()
        rels = rep.column("rel").to_pylist()
        # inlined assertion_text/obj_phrase (same bytes hashed, identical
        # strings — bit-identity pytest-gated): drops two function frames,
        # a REL_INDEX lookup and list building per row on this fan-out-heavy
        # stage (~25% of the whole scored pass)
        from hashlib import blake2b

        from ..lexicon import REL_INDEX
        from ..synth import ACT, ADJ, NOUN, VERB

        ib = int.from_bytes
        la, lc, ln, lv = len(ADJ), len(ACT), len(NOUN), len(VERB)
        relinfo: dict[str, tuple[str, bool]] = {}
        for rel in set(rels):
            r = REL_INDEX[rel]
            pfx = "" if r.rel == "open" else " ".join(r.tokens) + " "
            relinfo[rel] = (pfx, r.obj_kind == "verbal")
        texts = []
        append = texts.append
        for rel, a, b, g in zip(rels, surf_a, surf_b, gen_idx):
            h = ib(blake2b(f"gen|{rel}|{a}|{b}|{g}".encode(),
                           digest_size=8).digest(), "little")
            pfx, verbal = relinfo[rel]
            adj = ADJ[h % la]
            act = ACT[(h >> 8) % lc]
            noun = NOUN[(h >> 16) % ln]
            nns = NOUN[(h >> 24) % ln] + "s"
            if verbal:
                verb = VERB[(h >> 32) % lv]
                shape = (h >> 40) % 3
                phrase = (f"{verb} {nns}" if shape == 0
                          else f"{verb} {adj} {nns}" if shape == 1
                          else f"{verb} {noun} {act}")
            else:
                shape = (h >> 40) % 5
                phrase = (f"{noun} {act}" if shape == 0
                          else f"{adj} {act}" if shape == 1
                          else f"{adj} {noun} {act}" if shape == 2
                          else nns if shape == 3
                          else f"{adj} {nns}")
            append(pfx + phrase)
        out = rep.drop_columns(["prompt"])
        out = out.append_column("gen_idx", pa.array(gen_idx, pa.int8()))
        out = out.append_column("assertion", pa.array(texts, pa.string()))
        return out
