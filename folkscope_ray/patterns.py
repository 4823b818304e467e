"""Pattern algebra: skeleton graphs, canonical keys, subgraph isomorphism,
optional/MUST closures, eventuality construction.

Re-implements (from scratch, no igraph) the semantics of the reference's
pattern stack:

- skeletonization — drop OPTIONAL/IGNORE-tag vertices outside the template
  (src/pattern/pattern_miner.py:107-181);
- fuzzy POS families NN*/JJ*/RB* and dep-label families split on ":"
  (src/pattern/pattern_miner.py:60-67; pattern_retriever.py:28-60);
- VF2-style subgraph isomorphism with a label-multiset fast pre-check
  (pattern_retriever.py:143-266);
- match validity: clause-separator straddle rejection
  (pattern_match.py:96-118), MUST-tag closure (IN/CC/TO must stay inside the
  match, pattern_miner.py:233-253), forbidden end tags
  (utils.py:35, used pattern_miner.py:574);
- optional-token closure pulling OPTIONAL-tag vertices adjacent to the match
  (pattern_match.py:123-134);
- eventuality normalization + eid (object.py:360-418, eid 120-130): leading-IN
  drop, lowercase lemmas, positional dependency re-index.

Patterns here are tiny (≤ ~12 vertices); sentences are short.  All functions
are pure and run inside ``map_batches`` workers with the pattern set broadcast
once via ``ray.put``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .relations import (
    CLAUSE_SEPARATORS,
    FORBIDDEN_END_POS_TAGS,
    IGNORE_POS_TAGS,
    MUST_POS_TAGS,
    OPTIONAL_POS_TAGS,
    REL_INDEX,
)
from .util import generate_eid


def pos_family(tag: str) -> str:
    """Fuzzy POS collapse: NN*/JJ*/RB* families (pattern_miner.py:60-67)."""
    for fam in ("NN", "JJ", "RB"):
        if tag.startswith(fam):
            return fam
    return tag


def dep_family(label: str) -> str:
    """Dependency-label family: text before ':' (pattern_retriever.py:44-52)."""
    return label.split(":", 1)[0]


# ------------------------------------------------------------------ patterns

@dataclass(frozen=True)
class Pattern:
    rel: str
    verts: tuple[str, ...]                      # fuzzy POS labels, 0..k-1
    edges: tuple[tuple[int, str, int], ...]     # (gov, label-family, dep)
    support: int = 0

    @cached_property
    def key(self) -> str:
        return encode_pattern(self.rel, self.verts, self.edges)

    def priority(self):
        """Sort key: larger patterns first (pattern_match.py:33,47), then a
        stable lexicographic tiebreak so match order is deterministic."""
        return (-len(self.edges), -len(self.verts), self.verts, self.edges)


def encode_pattern(rel, verts, edges) -> str:
    ve = " ".join(verts)
    ed = ";".join(f"{g},{l},{d}" for g, l, d in edges)
    return f"{rel}|{ve}|{ed}"


def decode_pattern(key: str, support: int = 0) -> Pattern:
    rel, ve, ed = key.split("|")
    verts = tuple(ve.split())
    edges = tuple(
        (int(g), l, int(d))
        for g, l, d in (e.split(",") for e in ed.split(";") if e)
    )
    return Pattern(rel, verts, edges, support)


def skeleton_of(rel: str, pos_tags, deps):
    """Template-anchored skeleton: drop OPTIONAL/IGNORE vertices outside the
    template span, keep induced edges, re-index to 0..k-1.

    Returns (verts, edges, kept_indices) with fuzzy vertex labels and
    dep-family edge labels — the canonical mining key space.
    """
    n_template = len(REL_INDEX[rel].tokens)
    kept = [
        i
        for i, t in enumerate(pos_tags)
        if i < n_template or (t not in OPTIONAL_POS_TAGS and t not in IGNORE_POS_TAGS)
    ]
    remap = {i: j for j, i in enumerate(kept)}
    verts = tuple(pos_family(pos_tags[i]) for i in kept)
    edges = tuple(
        sorted(
            (remap[g], dep_family(l), remap[d])
            for g, l, d in deps
            if g in remap and d in remap
        )
    )
    return verts, edges, kept


def pattern_of_parsed(rel: str, pos_tags, deps) -> str:
    verts, edges, _ = skeleton_of(rel, pos_tags, deps)
    return encode_pattern(rel, verts, edges)


def enumerate_anchored_subgraphs(verts, edges, n_anchor: int, k: int,
                                 window: int):
    """Connected induced size-``k`` subgraphs that contain the template
    anchor (vertices ``0..n_anchor-1``), restricted to the first ``window``
    vertices — the enumeration core of sub-skeleton pattern growth.  The
    window mirrors the reference's prefix truncation of sentence graphs
    before gSpan (src/pattern/pattern_filter.py:158-166); anchor containment
    keeps fragments template-relevant.

    Returns DISTINCT fragments in gSpan graph-frequency form: each fragment
    is CANONICALIZED (anchor positions fixed — they are template slots —
    and the extra vertices re-labeled by the lexicographically minimal
    permutation of their positions) and deduplicated per skeleton, so a
    fragment embedded twice in one skeleton counts ONCE and isomorphic
    fragments found under different original vertex orders share one key —
    without both, support counting double-counts embeddings and splits
    isomorphism classes across keys."""
    from itertools import combinations

    m = min(len(verts), window)
    if k > m or n_anchor > k or n_anchor < 1:
        return []
    und: dict[int, set[int]] = {}
    for g, _l, d in edges:
        if g < m and d < m:
            und.setdefault(g, set()).add(d)
            und.setdefault(d, set()).add(g)
    anchor = list(range(n_anchor))
    extra = list(range(n_anchor, m))
    out = []
    for comb in combinations(extra, k - n_anchor):
        sub = anchor + list(comb)  # ascending
        subset = set(sub)
        seen = {sub[0]}
        stack = [sub[0]]
        while stack:
            v = stack.pop()
            for w in und.get(v, ()):
                if w in subset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != k:  # induced subgraph not connected
            continue
        remap = {v: i for i, v in enumerate(sub)}
        sub_verts = tuple(verts[v] for v in sub)
        sub_edges = tuple(sorted(
            (remap[g], l, remap[d]) for g, l, d in edges
            if g in remap and d in remap
        ))
        out.append(_canon_fragment(sub_verts, sub_edges, n_anchor))
    return list(dict.fromkeys(out))


def _canon_fragment(sub_verts: tuple, sub_edges: tuple, n_anchor: int):
    """Canonical labeling of one anchored fragment: anchor vertices keep
    their positions (template slots are ordered), the extras take the
    lexicographically minimal (verts, edges) encoding over all
    permutations of their positions.  Fragments are tiny (extras <= ~4),
    so brute force over <= 4! permutations is cheaper than a DFS-code."""
    from itertools import permutations

    k = len(sub_verts)
    ex = list(range(n_anchor, k))
    if len(ex) <= 1:
        return sub_verts, sub_edges
    best = None
    for perm in permutations(ex):
        m = dict(zip(ex, perm))
        pv = list(sub_verts[:n_anchor]) + [None] * len(ex)
        for old, new in m.items():
            pv[new] = sub_verts[old]
        pe = tuple(sorted((m.get(g, g), l, m.get(d, d))
                          for g, l, d in sub_edges))
        cand = (tuple(pv), pe)
        if best is None or cand < best:
            best = cand
    return best


# -------------------------------------------------- gSpan text interop

def patterns_to_lg(patterns: list["Pattern"]) -> str:
    """Serialize patterns in the gSpan ``.lg`` text form the reference's
    miner writes/reads (``t # freq`` / ``v id label`` / ``e u v label`` —
    pattern_miner.py:321-328 / 19-104), for interop with external tooling."""
    lines = []
    for p in patterns:
        lines.append(f"t # {p.support}")
        for i, tag in enumerate(p.verts):
            lines.append(f"v {i} {tag}")
        for g, l, d in p.edges:
            lines.append(f"e {g} {d} {l}")
    return "\n".join(lines) + "\n"


def patterns_from_lg(text: str, rel: str) -> list["Pattern"]:
    """Parse gSpan ``.lg`` text back into Pattern objects (one relation per
    file, as in the reference's per-relation freq files)."""
    out: list[Pattern] = []
    verts: list[str] = []
    edges: list[tuple[int, str, int]] = []
    support = 0

    def flush():
        if verts:
            out.append(Pattern(rel, tuple(verts), tuple(sorted(edges)), support))

    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "t":
            flush()
            verts, edges = [], []
            support = int(parts[-1]) if parts[-1].isdigit() else 0
        elif parts[0] == "v":
            assert int(parts[1]) == len(verts)
            verts.append(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]), parts[3], int(parts[2])))
    flush()
    return out


# --------------------------------------------------- subgraph isomorphism

def _label_multiset_dominated(p_verts, g_verts) -> bool:
    """Fast pre-check: the pattern's label multiset must fit the graph's
    (pattern_retriever.py:143-231)."""
    counts: dict[str, int] = {}
    for t in g_verts:
        counts[t] = counts.get(t, 0) + 1
    for t in p_verts:
        c = counts.get(t, 0)
        if c == 0:
            return False
        counts[t] = c - 1
    return True


def find_embedding(pattern: Pattern, g_tags, g_adj) -> list[int] | None:
    """First (deterministic) embedding of ``pattern`` into the sentence graph.

    ``g_tags``: fuzzy POS per sentence vertex; ``g_adj``: dict
    (gov, dep) -> set of dep-label families.  VF2-style backtracking over the
    pattern's vertices in index order — pattern graphs are ≤ ~12 vertices so
    the search is trivial; the multiset pre-check rejects most non-matches.
    """
    if not _label_multiset_dominated(pattern.verts, g_tags):
        return None
    k = len(pattern.verts)
    # pattern adjacency constraints grouped by the later endpoint so each
    # assignment is checked incrementally
    cons: list[list[tuple[int, str, bool]]] = [[] for _ in range(k)]
    for g, l, d in pattern.edges:
        later, other, out = (g, d, True) if g > d else (d, g, False)
        # out=True: edge later->other; False: edge other->later
        cons[later].append((other, l, out))
    n = len(g_tags)
    cand = [[v for v in range(n) if g_tags[v] == t] for t in pattern.verts]
    assign: list[int] = []
    used = [False] * n

    def ok(pv: int, gv: int) -> bool:
        for other_pv, lab, out in cons[pv]:
            ov = assign[other_pv]
            e = (gv, ov) if out else (ov, gv)
            labs = g_adj.get(e)
            if not labs or lab not in labs:
                return False
        return True

    def bt(pv: int) -> bool:
        if pv == k:
            return True
        for gv in cand[pv]:
            if not used[gv] and ok(pv, gv):
                used[gv] = True
                assign.append(gv)
                if bt(pv + 1):
                    return True
                assign.pop()
                used[gv] = False
        return False

    return list(assign) if bt(0) else None


def pattern_contains(big: Pattern, small: Pattern) -> bool:
    """small ⊑ big via subgraph isomorphism (redundancy removal,
    pattern_miner.py:464-478)."""
    adj: dict[tuple[int, int], set[str]] = {}
    for g, l, d in big.edges:
        adj.setdefault((g, d), set()).add(l)
    return find_embedding(small, list(big.verts), adj) is not None


def build_hierarchy(patterns: list[Pattern]) -> dict[str, list[str]]:
    """Containment DAG over a pattern set: parent.key -> [child.key, ...]
    where child ⊑ parent via subgraph isomorphism, computed with a size-sorted
    sweep (pattern_miner.py:364-405).  Pattern sets are tiny (dozens), so
    this is driver-side by design."""
    ordered = sorted(patterns, key=Pattern.priority)  # big -> small
    children: dict[str, list[str]] = {p.key: [] for p in ordered}
    for i, big in enumerate(ordered):
        for small in ordered[i + 1 :]:
            if big.rel == small.rel and pattern_contains(big, small):
                children[big.key].append(small.key)
    return children


def attribute_exclusive_support(
    skeleton_counts: dict[str, int],
    candidates: list[Pattern],
    floor: int,
) -> list[Pattern]:
    """Reference support counting with hierarchy-flag semantics
    (src/pattern/pattern_miner.py:506-597): candidates are processed in
    priority order (big -> small); each counts only still-UNCLAIMED lines,
    claims them if its count clears ``floor``, and a below-floor candidate
    claims nothing — its lines stay available to later (smaller) candidates.
    The reference reaches the same outcome with per-line bitmask flags
    pre-propagated to hierarchy children (pattern_match_flag /
    line_used_indices, pattern_miner.py:583-590); since every line sharing a
    skeleton matches identically, the greedy runs on the (skeleton -> rows)
    multiset instead of per line.

    This replaces container-merge dedup for SUPPORT ATTRIBUTION: a child
    pattern keeps the lines its surviving ancestors did not claim instead of
    donating its support to the container, and an infrequent full skeleton
    releases its lines to the sub-patterns grown from it."""
    seen: set[str] = set()
    ordered: list[Pattern] = []
    for p in sorted(candidates, key=Pattern.priority):
        if p.key not in seen:
            seen.add(p.key)
            ordered.append(p)
    skels = [(decode_pattern(k), n) for k, n in sorted(skeleton_counts.items())]
    cand_lines: list[list[int]] = [[] for _ in ordered]
    for si, (sp, _n) in enumerate(skels):
        for ci, c in enumerate(ordered):
            if (
                c.rel == sp.rel
                and len(c.verts) <= len(sp.verts)
                and len(c.edges) <= len(sp.edges)
                and pattern_contains(sp, c)
            ):
                cand_lines[ci].append(si)
    claimed = [False] * len(skels)
    kept: list[Pattern] = []
    for ci, c in enumerate(ordered):
        mine = [si for si in cand_lines[ci] if not claimed[si]]
        sup = sum(skels[si][1] for si in mine)
        if mine and sup >= floor:
            kept.append(Pattern(c.rel, c.verts, c.edges, sup))
            for si in mine:
                claimed[si] = True
    return kept


def dedup_patterns(patterns: list[Pattern]) -> list[Pattern]:
    """Keep maximal patterns; merge the support of contained duplicates into
    their container (pattern_merge.py:40-60 sums counts of isomorphic dups)."""
    patterns = sorted(patterns, key=Pattern.priority)
    kept: list[Pattern] = []
    for p in patterns:
        merged = False
        for i, q in enumerate(kept):
            if p.rel == q.rel and pattern_contains(q, p):
                kept[i] = Pattern(q.rel, q.verts, q.edges, q.support + p.support)
                merged = True
                break
        if not merged:
            kept.append(p)
    return kept


# ------------------------------------------------- eid-merge NER semantics

def merge_ner_lists(items):
    """Sequential eid-merge of per-position NER tags — the reference's
    ``Eventuality.update`` (src/pattern/object.py:145-153): positions where
    every occurrence agrees stay plain strings; a disagreement promotes the
    position to a frequency-weighted tag Counter (dict) that accumulates.

    ``items``: [(ners, frequency)] for one eid, in merge order.  Returns the
    merged per-position list (str | dict)."""
    merged = None
    acc_freq = 0.0
    for ners, freq in items:
        if merged is None:
            merged = list(ners)
            acc_freq = freq
            continue
        for i, new in enumerate(ners):
            cur = merged[i]
            if isinstance(cur, str) and isinstance(new, str) and cur == new:
                continue
            if isinstance(cur, str):
                cur = {cur: acc_freq}
            if isinstance(new, str):
                new = {new: freq}
            out = dict(cur)
            for tag, w in new.items():
                out[tag] = out.get(tag, 0) + w
            merged[i] = out
        acc_freq += freq
    return merged or []


def merge_mention_lists(items):
    """Span-keyed mention union (object.py:154-156: ``self._mentions[s_t] =
    x_mention`` — later occurrences overwrite).  ``items``: [list-of-mention-
    dicts] in merge order; deterministic because identical spans carry
    identical payloads here."""
    by_span: dict[tuple[int, int], dict] = {}
    for mentions in items:
        for m in mentions:
            by_span[(m["start"], m["end"])] = m
    return [by_span[k] for k in sorted(by_span)]


# --------------------------------------------------------------- matching

def structure_key(rel: str, tokens, pos_tags, deps) -> tuple:
    """Everything :func:`match_structures` reads of one parse: the relation,
    pos tags, deps and the positions of clause-separator tokens.  Distinct
    assertions share far fewer structures than texts."""
    return (rel, tuple(pos_tags), tuple(map(tuple, deps)),
            tuple(i for i, t in enumerate(tokens) if t in CLAUSE_SEPARATORS))


def match_structures(patterns: list[Pattern], rel: str, tokens, pos_tags,
                     deps) -> list[tuple[Pattern, tuple, frozenset]]:
    """The structural half of :func:`match_row`: ``(pattern, idx,
    matched)`` for every pattern, in priority order, whose embedding passes
    the validity checks; immutable, since a memo hands them to every
    caller.  Follows pattern_match.py:78-134: embed, reject a
    clause-separator straddle, close over optional tokens, enforce the MUST
    and forbidden-end tags.  Reads the tokens only through the
    clause-separator test, so it is a function of :func:`structure_key`."""
    g_tags = [pos_family(t) for t in pos_tags]
    g_adj: dict[tuple[int, int], set[str]] = {}
    for g, l, d in deps:
        g_adj.setdefault((g, d), set()).add(dep_family(l))

    out = []
    for p in patterns:
        if p.rel != rel:
            continue
        emb = find_embedding(p, g_tags, g_adj)
        if emb is None:
            continue
        matched = frozenset(emb)
        lo, hi = min(matched), max(matched)
        # clause-separator straddle rejection (pattern_match.py:96-118)
        if any(tokens[i] in CLAUSE_SEPARATORS for i in range(lo, hi + 1)):
            continue
        # optional-token closure (pattern_match.py:123-134)
        closed = set(matched)
        grew = True
        while grew:
            grew = False
            for g, l, d in deps:
                if g in closed and d not in closed and pos_tags[d] in OPTIONAL_POS_TAGS:
                    closed.add(d)
                    grew = True
                elif d in closed and g not in closed and pos_tags[g] in OPTIONAL_POS_TAGS:
                    closed.add(g)
                    grew = True
        # MUST-tag closure: IN/CC/TO adjacent to the match must be inside it
        # (pattern_miner.py:233-253)
        if any((g in closed and d not in closed and pos_tags[d] in MUST_POS_TAGS)
               or (d in closed and g not in closed and pos_tags[g] in MUST_POS_TAGS)
               for g, l, d in deps):
            continue
        idx = tuple(sorted(closed))
        # forbidden end tag (utils.py:35; pattern_miner.py:574)
        if pos_tags[idx[-1]] in FORBIDDEN_END_POS_TAGS:
            continue
        out.append((p, idx, matched))
    return out


def match_row(patterns: list[Pattern], rel: str, tokens, lemmas, pos_tags, deps,
              ners=None, mentions=None, memo: dict | None = None):
    """All valid eventualities extracted from one parsed assertion.

    :func:`match_structures`, then build each eventuality and dedup by eid
    within the row (pattern_match.py:136-172).  ``ners``/``mentions``
    (optional) ride along into each eventuality (reference parsed dicts,
    utils.py:292-299).  ``memo`` (one dict per pattern list) caches the
    structural step on :func:`structure_key`, so VF2 runs once per parse
    structure; the result is the same with or without it.
    """
    if memo is None:
        hits = match_structures(patterns, rel, tokens, pos_tags, deps)
    else:
        key = structure_key(rel, tokens, pos_tags, deps)
        hits = memo.get(key)
        if hits is None:
            hits = match_structures(patterns, rel, tokens, pos_tags, deps)
            memo[key] = hits
    out = []
    seen_eids = set()
    for p, idx, matched in hits:
        ev = build_eventuality(p, idx, matched, lemmas, pos_tags, deps,
                               ners=ners, mentions=mentions)
        if ev is not None and ev["eid"] not in seen_eids:
            seen_eids.add(ev["eid"])
            out.append(ev)
    return out


def build_eventuality(pattern: Pattern, indices, skeleton_set, lemmas, pos_tags,
                      deps, ners=None, mentions=None):
    """Normalize a matched token set into an eventuality (object.py:360-418).

    Leading-IN drop, lowercase lemmas, positional dependency re-index, eid =
    sha1(json([deps, words, pos_tags])) (object.py:120-130).  NERs slice to
    the kept indices; mentions fully inside the match re-index to
    eventuality-local positions (the eid does NOT cover ners/mentions — the
    reference hashes only deps/words/pos, object.py:120-130, which is what
    makes the frequency-weighted ner merge on eid meaningful).
    """
    idx = list(indices)
    if not idx:
        return None
    if pos_tags[idx[0]] == "IN":
        drop = idx[0]
        idx = idx[1:]
        skeleton_set = {i for i in skeleton_set if i != drop}
        if not idx:
            return None
    remap = {i: j for j, i in enumerate(idx)}
    words = [lemmas[i].lower() for i in idx]
    ptags = [pos_tags[i] for i in idx]
    ev_deps = sorted(
        (remap[g], l, remap[d])
        for g, l, d in deps
        if g in remap and d in remap
    )
    skeleton_indices = sorted(remap[i] for i in skeleton_set if i in remap)
    eid = generate_eid(ev_deps, words, ptags)
    ev_ners = [ners[i] for i in idx] if ners is not None else []
    ev_mentions = [
        {"start": remap[m["start"]], "end": remap[m["end"] - 1] + 1,
         "text": m["text"], "ner": m["ner"]}
        for m in (mentions or ())
        if all(t in remap for t in range(m["start"], m["end"]))
    ]
    return {
        "eid": eid,
        "pattern": pattern.key,
        "words": words,
        "pos_tags": ptags,
        "deps": ev_deps,  # (gov, rel, dep) triples, eventuality-local indices
        "skeleton_indices": skeleton_indices,
        "ners": ev_ners,
        "mentions": ev_mentions,
        "frequency": 1.0,
    }
