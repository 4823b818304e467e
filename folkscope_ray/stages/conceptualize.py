"""Conceptualization: eventuality nouns -> taxonomy concepts with likelihoods.

Re-implements the reference's Probase conceptualizer semantics
(src/pattern/conceptualizer.py):

- taxonomy index built ONCE per actor in ``__init__`` from (concept, instance,
  freq) rows — the distributed analogue of the per-process Probase load
  (conceptualizer.py:32-56; T6 in SURVEY.md §2.3);
- ``likelihood(concept | instance) = freq / instance_freq``
  (conceptualizer.py:58-83, score_method="likelihood");
- per word: top-K concepts, distinct after space->dash normalization
  (conceptualizer.py:510-522);
- per eventuality: enumerate word->concept replacement combinations, scored by
  the product of the replaced words' likelihoods, heap-truncated to
  ``max_candidates`` (bounded-heap semantics of conceptualizer.py:531-566);
- concept id = sha1 of the space-joined words (object.py:702-711); the
  (cid, eid) instance pair mirrors ASERConceptInstancePair
  (object.py:742-780).

Only lowercase NN*-tagged words that are taxonomy instances are abstracted
(conceptualizer.py:505-507).
"""

from __future__ import annotations

import heapq
from itertools import combinations

import pyarrow as pa
import ray

from ..util import generate_cid, sha1_hex, worker_cached

TOP_K = 5
MAX_CANDIDATES = 50


PRONOUNS = frozenset(
    "i me my mine myself we us our ours ourselves you your yours yourself "
    "he him his himself she her hers herself it its itself they them their "
    "theirs themselves".split()
)

NER_TYPES = frozenset(
    ["CITY", "ORGANIZATION", "COUNTRY", "STATE_OR_PROVINCE", "LOCATION",
     "NATIONALITY", "PERSON"]  # TYPE_SET, src/pattern/utils.py:39
)


def seed_rule_conceptualize(words, ners=None):
    """Seed-rule conceptualization: replace NER-typed words with __TYPE__k
    placeholders and person pronouns with __PERSON__k
    (conceptualizer.py:226-287 semantics).  ``ners`` aligns with ``words``
    ("O" = no entity) — fed by the parser's closed-world ner column
    (stages/parse.py ner_tags) through the eid merge."""
    ners = ners or ["O"] * len(words)
    out = []
    # per-TYPE dict of distinct WORDS (conceptualizer.py:266-277
    # ners_dict[ner][word] exactly): two distinct same-type mentions get
    # DISTINCT indices ("Alice met Bob" -> __PERSON__0 met __PERSON__1),
    # a repeated mention reuses its index, and each type counts from 0
    per_type: dict[str, dict[str, int]] = {}
    for w, ner in zip(words, ners):
        if ner in NER_TYPES:
            d = per_type.setdefault(ner, {})
            k = d.setdefault(w, len(d))
            out.append(f"__{ner}__{k}")
        elif w.lower() in PRONOUNS:
            d = per_type.setdefault("PERSON", {})
            k = d.setdefault(w.lower(), len(d))
            out.append(f"__PERSON__{k}")
        else:
            out.append(w)
    return out


def compound_segments(words, deps):
    """Compound-dependency phrase segmentation: merge ``compound*`` edges
    into contiguous spans (object.py:508-576; duplicate impl
    conceptualizer.py:568-636).  Returns [(start, end)] half-open spans
    covering every word, multi-word spans where compound chains connect
    adjacent tokens."""
    n = len(words)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g, label, d in deps:
        if label.startswith("compound") and abs(g - d) <= 3:
            ra, rb = find(g), find(d)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    spans = []
    for root in sorted(groups):
        idxs = groups[root]
        lo, hi = min(idxs), max(idxs) + 1
        if hi - lo == len(idxs):  # contiguous span
            spans.append((lo, hi))
        else:  # non-contiguous compounds degrade to singletons
            spans.extend((i, i + 1) for i in idxs)
    return sorted(spans)


class TaxonomyIndex:
    def __init__(self, rows):
        """rows: iterable of (concept, instance, freq) tuples or dicts."""
        inst: dict[str, list[tuple[str, int]]] = {}
        for row in rows:
            if isinstance(row, dict):
                concept, instance, freq = row["concept"], row["instance"], row["freq"]
            else:
                concept, instance, freq = row
            inst.setdefault(instance, []).append((concept, int(freq)))
        self.instance_concepts: dict[str, list[tuple[str, float]]] = {}
        for instance, cl in inst.items():
            total = sum(f for _, f in cl)
            scored = [(c, f / total) for c, f in cl]
            scored.sort(key=lambda t: (-t[1], t[0]))
            self.instance_concepts[instance] = scored

    def conceptualize(self, word: str, top_k: int = TOP_K) -> list[tuple[str, float]]:
        """Top-K (concept, likelihood), concept spaces dashed, distinct."""
        out, seen = [], set()
        for concept, score in self.instance_concepts.get(word, ()):
            dashed = concept.replace(" ", "-")
            if dashed not in seen:
                seen.add(dashed)
                out.append((dashed, score))
            if len(out) >= top_k:
                break
        return out


def conceptualize_words(index: TaxonomyIndex, words, pos_tags,
                        max_candidates: int = MAX_CANDIDATES,
                        max_matched_words: int | None = None):
    """All bounded-heap concept rewrites of one word sequence.

    Returns [(concept_words, score)] sorted by score desc then words.

    Work bound: subset enumeration carries the reference's early-break
    (conceptualizer.py:556-561) — once the heap is full and the minimum
    retained score has not improved across a whole combination size, no
    larger subset can enter the heap (scores only shrink as more words are
    rewritten), so the loop stops instead of walking all 2^n subsets.
    ``max_matched_words`` adds an OPTIONAL hard cap (first-seen order,
    deterministic) for adversarial rows whose single combination size is
    itself huge; default None preserves exact reference enumeration."""
    word2concepts = {}
    for w, t in zip(words, pos_tags):
        if t.startswith("NN") and w and w[0].islower() and w not in word2concepts:
            cs = index.conceptualize(w)
            if cs:
                word2concepts[w] = cs
    if not word2concepts:
        return []
    matched = list(word2concepts.keys())
    if max_matched_words is not None:
        matched = matched[:max_matched_words]
    heap: list[tuple[float, list[str]]] = []
    pre_min_score, min_score = 1.0, -1.0
    pre_comb_len, comb_len = 0, 1
    done = False
    for r in range(1, len(matched) + 1):
        if done:
            break
        for combo in combinations(matched, r):
            partials = [(1.0, list(words))]
            for w in combo:
                nxt = []
                for prob, ws in partials:
                    for concept, cprob in word2concepts[w]:
                        rewritten = [concept if x == w else x for x in ws]
                        nxt.append((prob * cprob, rewritten))
                partials = nxt
            for item in partials:
                if len(heap) >= max_candidates:
                    item = heapq.heappushpop(heap, item)
                else:
                    heapq.heappush(heap, item)
                if min_score < item[0]:
                    min_score = item[0]
            comb_len = len(combo)
            if (pre_min_score == min_score and pre_comb_len + 1 < comb_len
                    and len(heap) >= max_candidates):
                done = True
                break
            if pre_min_score != min_score:
                pre_min_score = min_score
                pre_comb_len = comb_len
    out = sorted(heap, key=lambda t: (-t[0], t[1]))
    return [(ws, prob) for prob, ws in out]


class Conceptualizer:
    """Actor-pool stage: eventualities in, (cid, eid, concept words, score) out.

    ``taxonomy`` may be a list of rows or a ``ray.ObjectRef`` to one
    (broadcast once, resolved in ``__init__`` — once per actor)."""

    def __init__(self, taxonomy, top_k: int = TOP_K):
        if isinstance(taxonomy, ray.ObjectRef):
            taxonomy = ray.get(taxonomy)
        self.index = TaxonomyIndex(taxonomy)
        self.top_k = top_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json

        eids = batch.column("eid").to_pylist()
        wordss = batch.column("words").to_pylist()
        poss = batch.column("ev_pos_tags").to_pylist()
        freqs = (
            batch.column("frequency").to_pylist()
            if "frequency" in batch.column_names
            else [1.0] * len(eids)
        )
        if "ners" in batch.column_names:  # JSON: str | {tag: weight} per pos
            nerss = [json.loads(x) for x in batch.column("ners").to_pylist()]
        else:
            nerss = [None] * len(eids)
        o_cid, o_eid, o_pid, o_words, o_score, o_freq = [], [], [], [], [], []

        def emit(eid, cw, score, freq):
            cid = generate_cid(cw)
            o_cid.append(cid)
            o_eid.append(eid)
            # pid = sha1("{cid}${eid}") — ASERConceptInstancePair id
            # (object.py:762-773)
            o_pid.append(sha1_hex(f"{cid}${eid}"))
            o_words.append(cw)
            o_score.append(score)
            o_freq.append(freq)

        for eid, words, pos, freq, ners in zip(eids, wordss, poss, freqs, nerss):
            # seed-rule concept first (conceptualizer.py:226-287): NER-typed
            # words -> __TYPE__k, pronouns -> __PERSON__k, score 1.0
            if ners is not None:
                tags = [
                    t if isinstance(t, str)
                    else (sorted(t.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
                          if t else "O")
                    for t in ners
                ]
                seeded = seed_rule_conceptualize(words, tags)
                if seeded != list(words):
                    emit(eid, seeded, 1.0, freq)
            for cw, score in conceptualize_words(self.index, words, pos):
                emit(eid, cw, score, freq)
        return pa.table(
            {
                "cid": pa.array(o_cid, pa.string()),
                "eid": pa.array(o_eid, pa.string()),
                "pid": pa.array(o_pid, pa.string()),
                "concept_words": pa.array(o_words, pa.list_(pa.string())),
                "score": pa.array(o_score, pa.float64()),
                "frequency": pa.array(o_freq, pa.float64()),
            }
        )


def make_conceptualize_fn(tax_ref):
    """Task form of :class:`Conceptualizer` over a ``ray.put`` taxonomy:
    each worker process builds the index once per broadcast and reuses it.
    Unlike an actor pool, a task reserves no CPU between blocks, so the
    stage runs beside an upstream shuffle even on a 1-CPU cluster."""

    def fn(batch: pa.Table) -> pa.Table:
        return worker_cached("tax" + tax_ref.hex(),
                             lambda: Conceptualizer(tax_ref))(batch)

    return fn
