"""Statistical language-model operators for training-data curation:
distributed word counting, BPE vocabulary learning (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units"), and
bigram-LM perplexity quality scoring (the CCNet recipe, Wenzek et al. 2020).

The reference has no statistical-LM machinery (its model stages are GPU
transformer calls — generator/critic, SURVEY.md §2.9); these operators cover
the tokenizer-fitting and quality-scoring steps a 100-TB LM-training data
pipeline runs in front of training.

Scale shapes (the 100-TB discipline for each phase):

- **word counting**: per-block ``(word, n)`` partials collapse each block's
  token stream before the shuffle, so the all-to-all moves vocabulary rows
  (bounded by distinct words x blocks), never token occurrences.
- **BPE training**: the classic industrial split — the CLUSTER computes the
  word-frequency histogram (vocabulary-sized, further bounded by a
  deterministic top-K gate: sort by ``(n desc, word)`` + limit pushdown),
  the DRIVER runs the merge loop over that histogram.  This is exactly how
  production BPE trainers work (HF ``tokenizers``: corpus-scale counting is
  parallel, the merge loop sees only the distinct-word table); the merge
  loop's cost is O(vocab x merges), independent of corpus size.
- **BPE encoding / token counting**: the learned merge ranks broadcast once
  (``ray.put``), applied per DISTINCT word — encoding runs over the
  word-histogram Dataset, weighted by count, so no occurrence is ever
  re-encoded.  (Per-document encoding reuses the same broadcast with a
  per-worker memo keyed on the word.)
- **perplexity scoring**: the model is a pair of integer count tables
  trained on a reference slice (map-side-combined, deterministically
  top-K-bounded, broadcast once); scoring is a stateless per-doc map.
  Scores are quantized to integer MILLIBITS-per-token before any cross-row
  aggregation, so sums are hash-exact at any parallelism.

Determinism: all training state is integer counts with lexical tie-breaks,
so the learned merges / count tables — and therefore every downstream score
— are bit-identical across runs, block layouts and parallelism levels.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .index import TERM_RE

from ..util import worker_cached

__all__ = [
    "word_count_partials",
    "word_counts",
    "bpe_train",
    "bpe_encode_word",
    "bpe_token_counts",
    "train_bigram_lm",
    "PerplexityScorer",
    "score_perplexity",
]

# the ONE corpus token class — imported (not re-declared) so the LM/BPE
# vocabulary can never silently drift from the index/decontam/text
# tokenization it must stay byte-identical with
_TOKEN_RE = TERM_RE
_END = "</w>"  # BPE end-of-word marker (Sennrich et al. 2016 convention)


# --------------------------------------------------------------------------
# distributed word counting
# --------------------------------------------------------------------------

def word_count_partials(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-block ``(word, n)`` counts — the map-side combiner for corpus
    word statistics (one output row per distinct in-block word)."""
    c: Counter = Counter()
    for t in batch.column(text_col).to_pylist():
        c.update(_TOKEN_RE.findall(t.lower()))
    if not c:
        return pa.table({"word": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    words = sorted(c)
    return pa.table({"word": pa.array(words, pa.string()),
                     "n": pa.array([c[w] for w in words], pa.int64())})


def word_counts(ds: Dataset, text_col: str = "text",
                max_words: int | None = None) -> Dataset:
    """Corpus word-frequency histogram as a Dataset of ``(word, n)``.

    ``max_words`` applies the deterministic top-K gate (count desc, word
    asc — a sort + limit, which Ray pushes down so only per-block top-K
    rows reach the final ranks)."""
    from .relational import map_combine_aggregate

    wc = map_combine_aggregate(
        ds.select_columns([text_col])
        .map_batches(word_count_partials, batch_format="pyarrow"),
        keys=["word"], sums={"n": "n"}, count_alias="__nb",
    ).drop_columns(["__nb"])
    if max_words is not None:
        wc = wc.sort(["n", "word"], descending=[True, False]).limit(max_words)
    return wc


# --------------------------------------------------------------------------
# BPE vocabulary learning
# --------------------------------------------------------------------------

def bpe_train(word_freq: pd.DataFrame, n_merges: int) -> pd.DataFrame:
    """Learn ``n_merges`` BPE merges from a ``(word, n)`` histogram.

    Classic Sennrich algorithm over the distinct-word table: every word is a
    symbol sequence (characters + ``</w>``); each iteration merges the
    adjacent symbol pair with the highest corpus count, ties broken
    lexically — fully deterministic.  Pair counts are maintained
    incrementally (only words containing the merged pair are re-counted),
    so the loop is O(merges x words-touched), not O(merges x vocab).

    Returns a DataFrame ``(rank, left, right)`` — the merge table, which IS
    the tokenizer (encoding needs nothing else)."""
    words: list[list[str]] = [
        list(w) + [_END] for w in word_freq["word"].tolist()
    ]
    freqs: list[int] = [int(x) for x in word_freq["n"].tolist()]

    pair_counts: Counter = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, syms in enumerate(words):
        f = freqs[wi]
        for a, b in zip(syms, syms[1:]):
            pair_counts[(a, b)] += f
            pair_words.setdefault((a, b), set()).add(wi)

    merges: list[tuple[int, str, str]] = []
    for rank in range(n_merges):
        best = None
        for pair, n in pair_counts.items():
            if n <= 0:
                continue
            key = (-n, pair)
            if best is None or key < best:
                best = key
        if best is None:
            break
        (_, (left, right)) = best
        merges.append((rank, left, right))
        merged = left + right
        # re-count only the words that contain the merged pair
        for wi in sorted(pair_words.get((left, right), ())):
            syms = words[wi]
            f = freqs[wi]
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] -= f
                s = pair_words.get((a, b))
                if s is not None:
                    s.discard(wi)
            out: list[str] = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[wi] = out
            for a, b in zip(out, out[1:]):
                pair_counts[(a, b)] += f
                pair_words.setdefault((a, b), set()).add(wi)
        pair_counts.pop((left, right), None)
        pair_words.pop((left, right), None)
    return pd.DataFrame(merges, columns=["rank", "left", "right"])


def bpe_encode_word(word: str,
                    ranks: dict[tuple[str, str], int]) -> list[str]:
    """Encode one word with a learned merge table: repeatedly apply the
    lowest-rank applicable merge (the standard greedy BPE encoder)."""
    syms = list(word) + [_END]
    while len(syms) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


def bpe_token_counts(word_freq_ds: Dataset, merges: pd.DataFrame) -> Dataset:
    """Corpus BPE-token frequencies, computed over the DISTINCT-word
    histogram: each distinct word is encoded exactly once cluster-wide and
    contributes ``count(word)`` to each of its tokens.  The merge table
    broadcasts once (``ray.put``); the shuffle moves ``(token, n)``
    vocabulary rows."""
    from .relational import map_combine_aggregate

    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}
    ref = ray.put(ranks)

    def encode_block(b: pa.Table) -> pa.Table:
        rk = worker_cached("bpe" + ref.hex(), lambda: ray.get(ref))
        c: Counter = Counter()
        for w, n in zip(b.column("word").to_pylist(),
                        b.column("n").to_pylist()):
            for tok in bpe_encode_word(w, rk):
                c[tok] += n
        toks = sorted(c)
        return pa.table({"token": pa.array(toks, pa.string()),
                         "n": pa.array([c[t] for t in toks], pa.int64())})

    return map_combine_aggregate(
        word_freq_ds.map_batches(encode_block, batch_format="pyarrow"),
        keys=["token"], sums={"n": "n"}, count_alias="__nb",
    ).drop_columns(["__nb"])


# --------------------------------------------------------------------------
# bigram-LM perplexity quality scoring (CCNet-style)
# --------------------------------------------------------------------------

def corpus_tokens_batch(b: pa.Table, text_col: str,
                        key_col: str | None = None) -> pa.Table:
    """ONE corpus tokenizer for the whole-batch Arrow path: lowercase,
    split on ``[^a-z0-9]+``, drop empties.  With ``key_col`` the output
    carries each token's originating key (js_divergence shape); without it
    just the token column (vocab_coverage shape).  Keeping this a single
    helper preserves the module's one-token-class parity promise."""
    lists = pc.split_pattern_regex(
        pc.utf8_lower(b.column(text_col)), "[^a-z0-9]+")
    la = (lists.combine_chunks()
          if isinstance(lists, pa.ChunkedArray) else lists)
    flat = la.flatten()
    keep = pc.greater(pc.binary_length(flat), 0)
    if key_col is None:
        return pa.table({"tok": flat.filter(keep)})
    keep_np = keep.to_numpy(zero_copy_only=False)
    off = la.offsets.to_numpy().astype(np.int64)
    doc_of = np.repeat(np.arange(b.num_rows), np.diff(off))[keep_np]
    return pa.table({
        key_col: b.column(key_col).take(pa.array(doc_of, pa.int64())),
        "tok": flat.filter(pa.array(keep_np)),
    })


def train_bigram_lm(ds: Dataset, text_col: str = "text",
                    max_vocab: int = 50_000,
                    max_bigrams: int = 500_000) -> dict:
    """Train an interpolated bigram LM from a reference corpus slice.

    Distributed phase: per-block ``(gram, n)`` partials for unigrams and
    bigrams (map-side combined; shuffle moves vocabulary rows).  Driver
    phase: deterministic top-K truncation (count desc, gram asc) — the
    model the driver holds is BOUNDED by ``max_vocab + max_bigrams`` rows
    regardless of corpus size.  Out-of-vocabulary tokens map to ``<unk>``.

    Returns a plain-dict model: integer count tables + totals (integer
    state only, so the broadcast model is bit-identical on every run)."""
    from .relational import map_combine_aggregate

    def gram_partials(b: pa.Table) -> pa.Table:
        uni: Counter = Counter()
        bi: Counter = Counter()
        for t in b.column(text_col).to_pylist():
            ws = _TOKEN_RE.findall(t.lower())
            uni.update(ws)
            for i in range(len(ws) - 1):
                bi[ws[i] + " " + ws[i + 1]] += 1
        grams = [("u", g, n) for g, n in sorted(uni.items())]
        grams += [("b", g, n) for g, n in sorted(bi.items())]
        return pa.table({
            "kind": pa.array([k for k, _, _ in grams], pa.string()),
            "gram": pa.array([g for _, g, _ in grams], pa.string()),
            "n": pa.array([n for _, _, n in grams], pa.int64()),
        })

    # materialize: top() below consumes this twice (unigram + bigram
    # extraction) — without the pin the whole gram-partial combine/shuffle
    # would re-execute per call (the js_divergence/vocab_coverage shape)
    counts = map_combine_aggregate(
        ds.select_columns([text_col])
        .map_batches(gram_partials, batch_format="pyarrow"),
        keys=["kind", "gram"], sums={"n": "n"}, count_alias="__nb",
    ).drop_columns(["__nb"]).materialize()

    def top(kind: str, k: int) -> pd.DataFrame:
        import pyarrow.compute as pc

        return (counts.map_batches(
            lambda b, kind=kind: b.filter(pc.equal(b.column("kind"), kind)),
            batch_format="pyarrow")
            .sort(["n", "gram"], descending=[True, False]).limit(k)
            .to_pandas())

    uni_df = top("u", max_vocab)
    bi_df = top("b", max_bigrams)
    unigrams = dict(zip(uni_df["gram"], (int(x) for x in uni_df["n"])))
    total_uni = int(uni_df["n"].sum())
    # bigrams restricted to the kept vocabulary so P(w2|w1) context counts
    # match the unigram table
    bigrams = {g: int(n) for g, n in zip(bi_df["gram"], bi_df["n"])
               if all(w in unigrams for w in g.split(" "))}
    return {"unigrams": unigrams, "bigrams": bigrams,
            "total_uni": total_uni, "vocab_size": len(unigrams)}


class PerplexityScorer:
    """Actor-pool stage: per-document bigram-LM perplexity in integer
    millibits-per-token (``round(1000 * bits/token)``) — quantized BEFORE
    any cross-row aggregation, so downstream sums are hash-exact.

    Model resolved from the broadcast ref once per actor (``__init__``);
    per-batch work is a per-doc scan (token streams are inherently
    sequential; the per-token work is two dict probes + one log2).

    Interpolated estimate (CCNet uses Kneser-Ney; an interpolated bigram is
    the same quality *shape* with integer-only training state):
    ``P(w2|w1) = 0.9 * c(w1 w2)/c(w1) + 0.1 * (c(w2)+1)/(T+V+1)`` with
    ``<unk>`` mapping for OOV tokens (c(unk)=0)."""

    LAMBDA = 0.9

    def __init__(self, model_ref, text_col: str = "text"):
        m = ray.get(model_ref) if hasattr(model_ref, "hex") else model_ref
        self.uni: dict[str, int] = m["unigrams"]
        self.bi: dict[str, int] = m["bigrams"]
        self.total = int(m["total_uni"])
        self.vocab = int(m["vocab_size"])
        self.text_col = text_col

    #: ppl_millibits for documents with <2 tokens (no bigram to score).
    #: -1 — impossible for a real score (bits are always >= 0) — so
    #: unscorable junk rows are DISTINGUISHABLE from genuinely fluent text;
    #: 0 would rank one-token garbage as the best-quality documents in any
    #: keep-lowest-perplexity filter.  Filter with ppl_millibits >= 0 (or
    #: n_lm_tokens >= 2) before quality banding.
    UNSCORABLE = -1

    def score(self, text: str) -> tuple[int, int]:
        ws = _TOKEN_RE.findall(text.lower())
        if len(ws) < 2:
            return self.UNSCORABLE, len(ws)
        denom = float(self.total + self.vocab + 1)
        bits = 0.0
        lam, lam1 = self.LAMBDA, 1.0 - self.LAMBDA
        uni, bi = self.uni, self.bi
        for i in range(1, len(ws)):
            w1, w2 = ws[i - 1], ws[i]
            c1 = uni.get(w1, 0)
            p_bi = (bi.get(w1 + " " + w2, 0) / c1) if c1 else 0.0
            p_uni = (uni.get(w2, 0) + 1) / denom
            bits -= math.log2(lam * p_bi + lam1 * p_uni)
        return int(round(1000.0 * bits / (len(ws) - 1))), len(ws)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        mb = np.empty(len(texts), dtype=np.int64)
        nt = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            mb[i], nt[i] = self.score(t)
        out = batch.append_column("ppl_millibits", pa.array(mb, pa.int64()))
        return out.append_column("n_lm_tokens", pa.array(nt, pa.int64()))


def score_perplexity(ds: Dataset, model: dict,
                     text_col: str = "text") -> Dataset:
    """Task-based perplexity scoring: the model ships via ``ray.put`` once
    and each worker process resolves it a single time through
    ``worker_cached`` (the repo's de-actored discipline for stages whose only state is
    one ``ray.get`` — an actor pool would cap parallelism for no setup
    saved; use the ``PerplexityScorer`` class directly with
    ``map_batches(..., concurrency=N)`` only when composing with genuinely
    expensive per-actor state)."""
    ref = ray.put(model)

    def fn(batch: pa.Table) -> pa.Table:
        return worker_cached("ppl" + ref.hex(), lambda: PerplexityScorer(
            ray.get(ref), text_col))(batch)

    return ds.map_batches(fn, batch_format="pyarrow")


def js_divergence_by_key(ds: Dataset, key_col: str, text_col: str = "text",
                         js_alias: str = "js_ub") -> pd.DataFrame:
    """Pairwise Jensen-Shannon divergence between the unigram token
    distributions of every pair of corpus slices (sources / domains /
    snapshots) — the corpus-similarity matrix that decides which sources
    are redundant and how mixing weights should spread.

    Hash-exactness (the entropy_docs / bigram-LM quantization discipline):
    with p = c1/N1 and q = c2/N2 from EXACT integer counts,

        JS = 0.5 sum_t p log2(2p / (p+q)) + 0.5 sum_t q log2(2q / (p+q))

    splits into (a) per-COMMON-token terms, each quantized to integer
    microbits BEFORE summing, and (b) the one-side-only residue — for a
    token absent on the other side the log is exactly 1 bit, so the
    residue per side is ``0.5 * (1 - common_mass)``, computed from integer
    common-count sums and quantized ONCE per side.  Both engines evaluate
    the same three quantized pieces with the same float expression tree,
    so results are bit-identical at any parallelism.

    Scale shape: token counts per (key, token) are map-side combined (the
    shuffle moves vocabulary x keys rows, never occurrences); the pairwise
    pass hash-buckets TOKENS and pivots each bucket into per-key count
    columns, emitting one partial row per (pair, bucket) — keys are the
    bounded categorical domain, the vocabulary streams through buckets.
    Pairs sharing no token emit nothing (matching the SQL inner join).

    Returns (s1, s2, sc1, sc2, js_ub) for s1 < s2 in sort order."""
    import pyarrow.compute as pc

    from .relational import map_combine_aggregate
    from .window import _bucketed_groups

    def toks(b: pa.Table) -> pa.Table:
        return corpus_tokens_batch(b, text_col, key_col)

    counts = map_combine_aggregate(
        ds.select_columns([key_col, text_col])
        .map_batches(toks, batch_format="pyarrow"),
        keys=[key_col, "tok"], count_alias="c",
    ).materialize()

    totals = map_combine_aggregate(
        counts.select_columns([key_col, "c"]),
        keys=[key_col], sums={"c": "n"}).to_pandas()
    keys_sorted = sorted(totals[key_col].tolist())
    ntot = dict(zip(totals[key_col], totals["n"].astype(int)))

    def body(g: pd.DataFrame) -> pd.DataFrame:
        piv = (g.pivot_table(index="tok", columns=key_col, values="c",
                             aggfunc="first", fill_value=0)
               .reindex(columns=keys_sorted, fill_value=0))
        mat = piv.to_numpy().astype(np.int64)
        out = []
        for i in range(len(keys_sorted)):
            for j in range(i + 1, len(keys_sorted)):
                c1, c2 = mat[:, i], mat[:, j]
                common = (c1 > 0) & (c2 > 0)
                if not common.any():
                    continue
                k1, k2 = keys_sorted[i], keys_sorted[j]
                p = c1[common] / ntot[k1]
                q = c2[common] / ntot[k2]
                term = (0.5 * p * np.log2(2 * p / (p + q))
                        + 0.5 * q * np.log2(2 * q / (p + q)))
                out.append((k1, k2,
                            int(np.floor(term * 1e6 + 0.5)
                                .astype(np.int64).sum()),
                            int(c1[common].sum()), int(c2[common].sum())))
        return pd.DataFrame(out, columns=["s1", "s2", "tub", "sc1", "sc2"])

    partials = _bucketed_groups(counts, "tok", body)
    agg = map_combine_aggregate(
        partials, keys=["s1", "s2"],
        sums={"tub": "tub", "sc1": "sc1", "sc2": "sc2"},
    ).to_pandas().sort_values(["s1", "s2"]).reset_index(drop=True)

    n1 = agg["s1"].map(ntot).to_numpy().astype(np.float64)
    n2 = agg["s2"].map(ntot).to_numpy().astype(np.float64)
    r1 = np.floor(0.5 * (1 - agg["sc1"].to_numpy() / n1) * 1e6
                  + 0.5).astype(np.int64)
    r2 = np.floor(0.5 * (1 - agg["sc2"].to_numpy() / n2) * 1e6
                  + 0.5).astype(np.int64)
    out = agg[["s1", "s2", "sc1", "sc2"]].copy()
    for c in ("sc1", "sc2"):
        out[c] = out[c].astype("int64")
    out[js_alias] = (agg["tub"].to_numpy() + r1 + r2).astype("int64")
    return out


def vocab_coverage(ds: Dataset, text_col: str = "text",
                   ks: list[int] | None = None) -> pd.DataFrame:
    """Vocabulary coverage curve: what share of all token OCCURRENCES the
    top-k most frequent types cover, for each k — the corpus statistic
    behind vocabulary-size choices (tokenizer budget, embedding-table cut,
    min_df guards).

    Scale shape: token counts are map-side combined (the shuffle moves
    vocabulary rows, never occurrences); the total is a tree-reduced sum;
    the top-max(k) slice is a distributed TOTAL-ORDER sort
    (count DESC, token ASC — ties cut identically on both engines) with
    an early limit, so the driver only ever holds max(k) rows.  Returns
    (k, covered, total, share) with share = covered/total (one float
    division over exact integers)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .relational import map_combine_aggregate

    ks = sorted(ks or [100, 1000, 10000])

    def toks(b: pa.Table) -> pa.Table:
        return corpus_tokens_batch(b, text_col)

    counts = map_combine_aggregate(
        ds.select_columns([text_col])
        .map_batches(toks, batch_format="pyarrow"),
        keys=["tok"], count_alias="c",
    ).materialize()
    tot_agg = counts.aggregate(Sum("c", alias_name="t"))
    # Dataset.aggregate returns None on an empty dataset (empty corpus or
    # a fully-filtered upstream) — report zero coverage, don't TypeError
    total = int(tot_agg["t"]) if tot_agg and tot_agg.get("t") is not None \
        else 0
    top = (counts.sort(["c", "tok"], descending=[True, False])
           .limit(ks[-1]).to_pandas())
    # an empty corpus yields a 0-column frame (no blocks) — no "c" column
    cum = (top["c"].cumsum().to_numpy()
           if "c" in top.columns else np.array([], dtype=np.int64))
    rows = []
    for k in ks:
        # guard k <= 0: cum[min(0, len)-1] would wrap to cum[-1] and claim
        # the empty vocabulary covers the whole corpus
        covered = int(cum[min(k, len(cum)) - 1]) if len(cum) and k > 0 \
            else 0
        rows.append({"k": k, "covered": covered, "total": total,
                     "share": covered / total if total else 0.0})
    out = pd.DataFrame(rows)
    for c in ("k", "covered", "total"):
        out[c] = out[c].astype("int64")
    return out
