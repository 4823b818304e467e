"""The 21-relation registry: prompt suffixes, template anchors, dep skeletons.

Mirrors the reference's relation set and template semantics
(reference: src/generator/prompt.py:5-27 PREFIX_PROMPT_DICT;
src/pattern/utils.py:8-30 TEMPLATES) without copying code.  Each relation
carries:

- ``suffix``        — the pair-form prompt suffix appended to the predicate
                      ("because they both are used for", ...).
- ``tokens``        — the template anchor token sequence that every generated
                      assertion for this relation begins with (the reference
                      slices the generation at this prefix,
                      generation_parser.py:128-138).
- ``pos``           — POS tags of the anchor tokens (reference TEMPLATES col 1).
- ``deps``          — the dependency skeleton *within* the template, as
                      (governor_idx, label, dependent_idx) triples — the same
                      triple orientation the reference uses
                      (src/pattern/utils.py:256-299).
- ``anchor``        — index of the content head inside the template (the vertex
                      the object phrase attaches to).
- ``prep``          — index of a trailing IN/TO that takes a ``case`` edge to
                      the object head, or None.
- ``attach``        — dependency label of the edge anchor -> object-head.
- ``obj_kind``      — "nominal" (object phrase is a noun phrase) or "verbal"
                      (object phrase is verb-led: can / effect / cause).

Canonical-behavior decisions (documented per SURVEY.md §7.5):

- the reference misspells propertyOf as "propertOf" in TEMPLATES
  (src/pattern/utils.py:17) so that relation never template-matches; we use
  the correct spelling and DO extract it.
- the "open" relation has an empty template and bypasses pattern mining in
  the reference (src/pattern/pattern_filter.py:56-60); we likewise generate
  assertions for it but skip extraction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Relation:
    rel: str
    suffix: str
    tokens: tuple[str, ...]
    pos: tuple[str, ...]
    deps: tuple[tuple[int, str, int], ...]
    anchor: int
    prep: int | None
    attach: str
    obj_kind: str  # "nominal" | "verbal"


def _r(rel, suffix, tokens, pos, deps, anchor, prep, attach, obj_kind="nominal"):
    toks = tuple(tokens.split())
    ptags = tuple(pos.split())
    assert len(toks) == len(ptags), rel
    return Relation(rel, suffix, toks, ptags, tuple(deps), anchor, prep, attach, obj_kind)


# fmt: off
RELATIONS: tuple[Relation, ...] = (
    _r("open", "because", "", "", (), -1, None, "", "nominal"),
    _r("relatedTo", "because they both are related to",
       "they both are related to", "PRP DT VBP JJ TO",
       [(3, "nsubj", 0), (3, "det", 1), (3, "cop", 2)], 3, 4, "obl"),
    _r("isA", "because they both are a type of",
       "they both are a type of", "PRP DT VBP DT NN IN",
       [(4, "nsubj", 0), (4, "det", 1), (4, "cop", 2), (4, "det", 3)], 4, 5, "nmod"),
    _r("partOf", "because they both are a part of",
       "they both are a part of", "PRP DT VBP DT NN IN",
       [(4, "nsubj", 0), (4, "det", 1), (4, "cop", 2), (4, "det", 3)], 4, 5, "nmod"),
    _r("madeOf", "because they both are made of",
       "they both are made of", "PRP DT VBP VBN IN",
       [(3, "nsubj", 0), (3, "det", 1), (3, "aux", 2)], 3, 4, "obl"),
    _r("similarTo", "because they both are similar to",
       "they both are similar to", "PRP DT VBP JJ TO",
       [(3, "nsubj", 0), (3, "det", 1), (3, "cop", 2)], 3, 4, "obl"),
    _r("createdBy", "because they are created by",
       "they are created by", "PRP VBP VBN IN",
       [(2, "nsubj", 0), (2, "aux", 1)], 2, 3, "obl"),
    _r("hasA", "because they both have",
       "they both have", "PRP DT VBP",
       [(2, "nsubj", 0), (2, "det", 1)], 2, None, "obj"),
    _r("propertyOf", "because they both have a property of",
       "they both have a property of", "PRP DT VBP DT NN IN",
       [(2, "nsubj", 0), (2, "det", 1), (2, "obj", 4), (4, "det", 3)], 4, 5, "nmod"),
    _r("distinctFrom", "because they are distinct from",
       "they are distinct from", "PRP VBP JJ IN",
       [(2, "nsubj", 0), (2, "cop", 1)], 2, 3, "obl"),
    _r("usedFor", "because they are both used for",
       "they are both used for", "PRP VBP DT VBN IN",
       [(3, "nsubj", 0), (3, "aux", 1), (3, "det", 2)], 3, 4, "obl"),
    _r("can", "because they could both",
       "they could both", "PRP MD CC",
       [], -1, None, "verbal", "verbal"),
    _r("capableOf", "because they both are capable of",
       "they both are capable of", "PRP DT VBP JJ IN",
       [(3, "nsubj", 0), (3, "det", 1), (3, "cop", 2)], 3, 4, "obl"),
    _r("definedAs", "because they both are defined as",
       "they both are defined as", "PRP DT VBP VBN IN",
       [(3, "nsubj", 0), (3, "det", 1), (3, "aux", 2)], 3, 4, "obl"),
    _r("symbolOf", "because they both are symbols of",
       "they both are symbols of", "PRP DT VBP NNS IN",
       [(3, "nsubj", 0), (3, "det", 1), (3, "cop", 2)], 3, 4, "nmod"),
    _r("mannerOf", "because they both are a manner of",
       "they both are a manner of", "PRP DT VBP DT NN IN",
       [(4, "nsubj", 0), (4, "det", 1), (4, "cop", 2), (4, "det", 3)], 4, 5, "nmod"),
    _r("deriveFrom", "because they are derived from",
       "they are derived from", "PRP VBP VBN IN",
       [(2, "nsubj", 0), (2, "aux", 1)], 2, 3, "obl"),
    _r("effect", "as a result, the person will",
       "the person will", "DT NN MD",
       [], -1, None, "verbal", "verbal"),
    _r("cause", "because the person wants to",
       "the person wants to", "DT NN VBZ TO",
       [(2, "nsubj", 1), (1, "det", 0)], 2, None, "xcomp", "verbal"),
    _r("motivatedBy", "and buying them was motivated by",
       "buying them was motivated by", "VBG PRP VBD VBN IN",
       [(3, "csubj", 0), (0, "obj", 1), (3, "aux", 2)], 3, 4, "obl"),
    _r("causeEffect", "because the person wants his",
       "the person wants his", "DT NN VBZ PRP$",
       [(2, "nsubj", 1), (1, "det", 0)], 2, None, "obj"),
)
# fmt: on

REL_INDEX: dict[str, Relation] = {r.rel: r for r in RELATIONS}
REL_NAMES: tuple[str, ...] = tuple(r.rel for r in RELATIONS)
N_RELATIONS = len(RELATIONS)
assert N_RELATIONS == 21

# Relations that participate in pattern mining / extraction ("open" is
# prompt-only, as in the reference — pattern_filter.py:56-60).
EXTRACTABLE_RELS: tuple[str, ...] = tuple(r.rel for r in RELATIONS if r.rel != "open")

# The pair-form predicate the prompt is built from (analogue of
# 'He bought a product of "[A]" and a product of "[B]" ', prompt.py:52).
PAIR_PREDICATE = 'The project uses "[A]" and "[B]" '

# POS tag families, mirroring the reference's closure/validity tag sets
# (src/pattern/utils.py:32-35).
MUST_POS_TAGS = frozenset({"IN", "CC", "TO"})
OPTIONAL_POS_TAGS = frozenset({"JJ", "JJR", "JJS", "RB", "RBR", "RBS", "DT", "PRP$"})
IGNORE_POS_TAGS = frozenset({".", ",", "``", "''", ":", "$", "(", ")", "#", "-LRB-", "-RRB-"})
FORBIDDEN_END_POS_TAGS = frozenset({"IN", "CC", "TO"})

CLAUSE_SEPARATORS = frozenset(list(".,:;?!~-") + ["..", "...", "--", "---"])
