"""Lexicon-level clue extraction from legal judgment documents.

A document is segmented into the four standard sections (statement, date,
location, process), a search area inside the process section is delimited
by template anchors, and the motivation / action / harm clues are matched
exact-first then fuzzy against the configured term lists. When neither
pass finds a term the whole narrowed area stands in as the clue, so every
extraction is total.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .base import BaseEstimator
from .errors import ConfigError, DataError, NotFittedError
from .validation import check_object, read_input

if TYPE_CHECKING:
    from .corpus import CriminalCase

CLUE_FIELDS = ("motivation", "action", "harm")
SECTION_NAMES = ("statement", "date", "location", "process")


class Provenance(enum.Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"
    FALLBACK_AREA = "fallback_area"


def _check_text(value, what: str) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    if not value:
        raise ValueError(f"{what} must be non-empty")


@dataclass(frozen=True)
class SectionMap:
    """The four sections of a judgment document; only process is mandatory."""

    statement: str = ""
    date: str = ""
    location: str = ""
    process: str = ""

    def __post_init__(self):
        if not self.process:
            raise ValueError("process section must be non-empty")


@dataclass(frozen=True)
class SectionAnchors:
    """Literal anchor phrases that open each section, in document order."""

    statement: str
    date: str
    location: str
    process: str

    def __post_init__(self):
        for name in SECTION_NAMES:
            _check_text(getattr(self, name), f"{name} anchor")

    @classmethod
    def from_dict(cls, obj: Mapping, name: str) -> "SectionAnchors":
        """The anchors of a lexicon's ``sections`` object or a checkpoint's
        ``meta.anchors``, named ``name`` in errors: one phrase per section
        name, and no other key."""
        obj = check_object(obj, name)
        unknown = sorted(set(obj) - set(SECTION_NAMES))
        if unknown:
            raise ValueError(f"unknown section anchor key(s) {unknown}")
        missing = [section for section in SECTION_NAMES if section not in obj]
        if missing:
            raise ValueError(f"{name} lacks the anchor(s) of section(s) {missing}")
        return cls(*(obj[section] for section in SECTION_NAMES))


@dataclass(frozen=True)
class AreaTemplate:
    start_anchor: str
    end_anchor: str | None = None

    def __post_init__(self):
        _check_text(self.start_anchor, "start_anchor")
        if self.end_anchor is not None:
            _check_text(self.end_anchor, "end_anchor")


@dataclass(frozen=True)
class Lexicon:
    motivation_terms: tuple[str, ...]
    action_terms: tuple[str, ...]
    harm_terms: tuple[str, ...]
    area_templates: tuple[AreaTemplate, ...] = ()

    def __post_init__(self):
        for name in CLUE_FIELDS:
            terms = self.terms_for(name)
            if not terms:
                raise ValueError(f"{name} term list must be non-empty")
            for term in terms:
                _check_text(term, f"{name} term")

    def terms_for(self, clue_field: str) -> tuple[str, ...]:
        return getattr(self, f"{clue_field}_terms")

    @classmethod
    def from_dict(cls, obj: Mapping) -> "Lexicon":
        obj = check_object(obj, "lexicon")
        templates = tuple(
            AreaTemplate(t["start"], t.get("end")) for t in obj.get("templates", ())
        )
        terms = {}
        for name in CLUE_FIELDS:
            if not isinstance(obj[name], list):
                raise ValueError(f"{name} must be a list of terms, got {obj[name]!r}")
            terms[f"{name}_terms"] = tuple(obj[name])
        return cls(**terms, area_templates=templates)

    def to_dict(self) -> dict:
        out: dict = {
            "motivation": list(self.motivation_terms),
            "action": list(self.action_terms),
            "harm": list(self.harm_terms),
            "templates": [],
        }
        for t in self.area_templates:
            entry = {"start": t.start_anchor}
            if t.end_anchor is not None:
                entry["end"] = t.end_anchor
            out["templates"].append(entry)
        return out


def load_lexicon(path) -> tuple[Lexicon, SectionAnchors]:
    """Read a lexicon JSON file; returns the term lexicon and section anchors."""
    obj = read_input(path, "lexicon file", ConfigError, as_json=True)
    try:
        return Lexicon.from_dict(obj), SectionAnchors.from_dict(obj["sections"], "sections")
    except KeyError as exc:
        raise ConfigError(f"lexicon file {path} has an invalid schema: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lexicon file {path} has an invalid schema: {exc}") from exc


@dataclass(frozen=True)
class ClueSet:
    """Extracted clue strings plus how each one was found."""

    motivation: str
    action: str
    harm: str
    provenance: Mapping[str, Provenance] = field(default_factory=dict)

    def __post_init__(self):
        for name in CLUE_FIELDS:
            if not getattr(self, name):
                raise ValueError(f"{name} clue must be non-empty")
            if name not in self.provenance:
                raise ValueError(f"provenance missing for {name}")


@dataclass(frozen=True)
class MatchResult:
    """One matched element.

    ``span`` holds byte offsets into the UTF-8 encoding of the searched
    area; ``text`` is the matched area substring.
    """

    span: tuple[int, int]
    matched_term: str
    score: float
    kind: Provenance
    text: str

    def __post_init__(self):
        if self.span[0] >= self.span[1]:
            raise ValueError("span start must precede span end")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        if self.kind is Provenance.EXACT and self.score != 1.0:
            raise ValueError("exact matches must score 1.0")
        if self.kind is Provenance.FALLBACK_AREA:
            raise ValueError("MatchResult kind must be exact or fuzzy")


def segment_sections(doc_text: str, anchors: SectionAnchors) -> SectionMap:
    """Split a document into its four sections by literal anchor phrases.

    Anchors are searched left to right in statement/date/location/process
    order; each found section spans from the end of its anchor to the start
    of the next found anchor (or the end of the document). Missing
    statement/date/location anchors yield empty sections. If the process
    anchor is missing, or its slice is blank, the whole document becomes
    the process section.
    """
    if not doc_text:
        raise ValueError("doc_text must be non-empty")
    located: list[tuple[str, int, int]] = []
    cursor = 0
    for name in SECTION_NAMES:
        anchor = getattr(anchors, name)
        at = doc_text.find(anchor, cursor)
        if at >= 0:
            located.append((name, at, at + len(anchor)))
            cursor = at + len(anchor)
    texts = dict.fromkeys(SECTION_NAMES, "")
    for k, (name, _, content_start) in enumerate(located):
        content_end = located[k + 1][1] if k + 1 < len(located) else len(doc_text)
        texts[name] = doc_text[content_start:content_end].strip()
    if not texts["process"]:
        texts["process"] = doc_text.strip() or doc_text
    return SectionMap(**texts)


def locate_search_area(process_text: str, templates: Sequence[AreaTemplate]) -> str:
    """Narrow the process section to the clue search area's text.

    The first template whose start anchor occurs wins; the area runs from
    the end of the start anchor to the start of the end anchor (end of
    text when the end anchor is absent or not found), stripped of
    surrounding whitespace. With no matching template, or when the
    delimited area is blank, the whole process text is the area.
    """
    if not process_text:
        raise ValueError("process_text must be non-empty")
    for template in templates:
        at = process_text.find(template.start_anchor)
        if at < 0:
            continue
        start = at + len(template.start_anchor)
        end = len(process_text)
        if template.end_anchor is not None:
            closing = process_text.find(template.end_anchor, start)
            if closing >= 0:
                end = closing
        area = process_text[start:end].strip()
        if area:
            return area
        break
    return process_text


def _bit_distances(text: str, term: str, anchored: bool) -> list[int]:
    """Entry e is the edit distance between ``term`` and ``text[s:e]``, for
    s = 0 when ``anchored`` and otherwise for the s <= e that minimizes it.

    The edit-distance DP one text character (one column) at a time, each
    column held as bit vectors of its +1/-1 steps down ``term`` in Python
    ints (Myers 1999, in Hyyrö's formulation). The DP's top row is 0, 1, 2,
    ... when anchored, and all zeros when a match may start anywhere.
    """
    mask = (1 << len(term)) - 1
    top = 1 << (len(term) - 1)
    carry = int(anchored)
    peq: dict[str, int] = {}
    for i, ch in enumerate(term):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    pv, mv, score = mask, 0, len(term)
    out = [score]
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ((ph << 1) | carry) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
        out.append(score)
    return out


def levenshtein(a: str, b: str) -> int:
    """Edit distance over Unicode scalar values (insert/delete/substitute)."""
    if a == b:
        return 0
    if not a or not b:
        return len(a) + len(b)
    return _bit_distances(a, b, anchored=True)[-1]


def fuzzy_score(a: str, b: str) -> float:
    """Normalized Levenshtein similarity: 1 - distance / max(|a|, |b|)."""
    if not a or not b:
        raise ValueError("fuzzy_score requires non-empty strings")
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def _byte_span(area: str, start: int, end: int) -> tuple[int, int]:
    prefix = len(area[:start].encode("utf-8"))
    return prefix, prefix + len(area[start:end].encode("utf-8"))


def _max_accepted_distance(longest: int, threshold: float) -> int:
    """The largest edit distance at which a window still scores at least
    ``threshold`` under ``fuzzy_score``'s float arithmetic, when the longer
    of window and term has ``longest`` characters (a longer window can only
    allow more edits)."""
    # (1 - 0.8) * 10 == 1.9999999999999996, so the truncated product can be
    # one short: start one above it and step down to the float test.
    distance = int((1.0 - threshold) * longest) + 1
    while 1.0 - distance / longest < threshold:
        distance -= 1
    return distance


def _may_match(area: str, term: str, cutoff: int) -> bool:
    """False only when no substring of ``area`` is within ``cutoff`` edits
    of ``term``. Cut the term into ``cutoff + 1`` pieces: ``cutoff`` edits
    touch at most ``cutoff`` of them, so a substring that close contains
    one piece verbatim, and so does the area (the pigeonhole filter)."""
    pieces = cutoff + 1
    if pieces > len(term):
        return True
    cuts = [len(term) * i // pieces for i in range(pieces + 1)]
    return any(term[cuts[i] : cuts[i + 1]] in area for i in range(pieces))


def match_element(
    area: str, terms: Sequence[str], threshold: float
) -> MatchResult | None:
    """Find one criminal element in the search area.

    Exact pass first: the earliest verbatim occurrence of any term wins
    (same start: longer term, then earlier term in the list). Failing
    that, a fuzzy pass considers windows of length |term|-2 .. |term|+2 at
    every start and keeps the window with the highest normalized
    Levenshtein similarity (``fuzzy_score``), accepted only at or above
    ``threshold`` (ties: earliest window, then earlier term, then shorter
    window). Returns None when both passes fail.

    The fuzzy pass is bounded but its result is the same as scoring every
    window. Per term, a cut-off is the largest edit distance any window
    could be accepted at, under ``fuzzy_score``'s float arithmetic. A term
    none of whose ``cut-off + 1`` pieces occurs in the area is skipped: no
    window is that close. Otherwise one bit-vector pass over the area gives,
    for each end offset, a lower bound on the distance of every window
    ending there; only starts with a window ending within the cut-off are
    candidates. Verification runs the same DP anchored at a candidate start,
    which yields the distance of every width at once, and each window's
    score is ``fuzzy_score``'s expression applied to that distance. Putting
    the lower bounds in place of the distances gives each start an upper
    bound on its score: starts are verified best bound first, and the rest
    are dropped once a bound falls strictly below the threshold or the best
    score found so far (a start that can only tie is still verified).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if not area:
        return None

    exact_best: tuple[int, int, int] | None = None
    for index, term in enumerate(terms):
        pos = area.find(term)
        if pos < 0:
            continue
        key = (pos, -len(term), index)
        if exact_best is None or key < exact_best:
            exact_best = key
    if exact_best is not None:
        pos, neg_len, index = exact_best
        term = terms[index]
        return MatchResult(
            span=_byte_span(area, pos, pos + len(term)),
            matched_term=term,
            score=1.0,
            kind=Provenance.EXACT,
            text=area[pos : pos + len(term)],
        )

    fuzzy_best: tuple[float, int, int, int] | None = None
    for index, term in enumerate(terms):
        low = max(1, len(term) - 2)
        high = min(len(area), len(term) + 2)
        cutoff = _max_accepted_distance(max(high, len(term)), threshold)
        if not _may_match(area, term, cutoff):
            continue
        bounds = _bit_distances(area, term, anchored=False)
        starts = {
            start
            for end, bound in enumerate(bounds)
            if bound <= cutoff
            for start in range(max(0, end - high), end - low + 1)
        }
        # (-score bound, start): the bound is the score with each window's
        # distance replaced by the filter's lower bound at its end.
        order = sorted(
            (
                -max(
                    1.0 - bounds[start + width] / max(width, len(term))
                    for width in range(low, min(high, len(area) - start) + 1)
                ),
                start,
            )
            for start in starts
        )
        for neg_bound, start in order:
            if -neg_bound < (threshold if fuzzy_best is None else -fuzzy_best[0]):
                break
            distances = _bit_distances(area[start : start + high], term, anchored=True)
            for width in range(low, len(distances)):
                score = 1.0 - distances[width] / max(width, len(term))
                key = (-score, start, index, width)
                if score >= threshold and (fuzzy_best is None or key < fuzzy_best):
                    fuzzy_best = key
    if fuzzy_best is None:
        return None
    neg_score, start, index, width = fuzzy_best
    return MatchResult(
        span=_byte_span(area, start, start + width),
        matched_term=terms[index],
        score=-neg_score,
        kind=Provenance.FUZZY,
        text=area[start : start + width],
    )


def trace_sections(
    sections: SectionMap, lexicon: Lexicon, threshold: float = 0.8
) -> ClueSet:
    """Extract the three clues from an already-segmented document."""
    area = locate_search_area(sections.process, lexicon.area_templates)
    values: dict[str, str] = {}
    provenance: dict[str, Provenance] = {}
    for name in CLUE_FIELDS:
        found = match_element(area, lexicon.terms_for(name), threshold)
        if found is not None:
            values[name] = found.text
            provenance[name] = found.kind
        else:
            values[name] = area
            provenance[name] = Provenance.FALLBACK_AREA
    return ClueSet(provenance=provenance, **values)


def extract_clues(
    case: "CriminalCase",
    lexicon: Lexicon,
    threshold: float = 0.8,
    anchors: SectionAnchors | None = None,
) -> ClueSet:
    """The clue set of one case; the case itself is left unchanged.

    Traces the case's own sections when present, otherwise a segmentation
    of ``fact_text`` by the given anchors.
    """
    sections = case.sections
    if sections is None:
        if anchors is None:
            raise DataError(f"case {case.id} has no sections and no anchors were given")
        sections = segment_sections(case.fact_text, anchors)
    return trace_sections(sections, lexicon, threshold)


class ClueTracer(BaseEstimator):
    """Transformer extracting (motivation, action, harm) clue sets from documents.

    ``transform`` accepts raw document strings or ``CriminalCase`` objects
    and returns one clue set per item, leaving cases unchanged.
    """

    def __init__(self, lexicon=None, anchors=None, threshold: float = 0.8):
        self.lexicon = lexicon
        self.anchors = anchors
        self.threshold = threshold

    def fit(self, X=None, y=None):
        if self.lexicon is None:
            raise ConfigError("ClueTracer requires a lexicon")
        self._fitted = True
        return self

    def transform(self, X: Iterable) -> list[ClueSet]:
        if not getattr(self, "_fitted", False):
            raise NotFittedError("ClueTracer.transform called before fit")
        out = []
        for item in X:
            if isinstance(item, str):
                if self.anchors is None:
                    raise ConfigError("tracing raw text requires section anchors")
                sections = segment_sections(item, self.anchors)
                out.append(trace_sections(sections, self.lexicon, self.threshold))
            else:
                out.append(
                    extract_clues(item, self.lexicon, self.threshold, self.anchors)
                )
        return out

    def fit_transform(self, X, y=None) -> list[ClueSet]:
        return self.fit(X, y).transform(X)


def full_text_clues(fact_text: str) -> ClueSet:
    """Degenerate clue set used when lexicon tracing is disabled: the full text
    stands in for all three clues."""
    provenance = {name: Provenance.FALLBACK_AREA for name in CLUE_FIELDS}
    return ClueSet(
        motivation=fact_text, action=fact_text, harm=fact_text, provenance=provenance
    )
