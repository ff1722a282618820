"""Reference oracles for ``lexjudge.clues``.

The plain windowed matcher the bounded one replaced: the exact pass, then a
fuzzy pass that scores every window of width |term|-2 .. |term|+2 at every
start by a row-by-row Levenshtein DP. Slow, but obviously faithful to the
documented rules, so the property tests hold the production matcher and
``levenshtein`` to it.
"""

from lexjudge.clues import MatchResult, Provenance


def levenshtein_reference(a, b):
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


def fuzzy_score_reference(a, b):
    return 1.0 - levenshtein_reference(a, b) / max(len(a), len(b))


def _byte_span(area, start, end):
    prefix = len(area[:start].encode("utf-8"))
    return prefix, prefix + len(area[start:end].encode("utf-8"))


def match_element_reference(area, terms, threshold):
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if not area:
        return None

    exact_best = None
    for index, term in enumerate(terms):
        pos = area.find(term)
        if pos < 0:
            continue
        key = (pos, -len(term), index)
        if exact_best is None or key < exact_best:
            exact_best = key
    if exact_best is not None:
        pos, _, index = exact_best
        term = terms[index]
        return MatchResult(
            span=_byte_span(area, pos, pos + len(term)),
            matched_term=term,
            score=1.0,
            kind=Provenance.EXACT,
            text=area[pos : pos + len(term)],
        )

    fuzzy_best = None
    for index, term in enumerate(terms):
        low = max(1, len(term) - 2)
        high = min(len(area), len(term) + 2)
        for width in range(low, high + 1):
            for start in range(0, len(area) - width + 1):
                score = fuzzy_score_reference(area[start : start + width], term)
                if score < threshold:
                    continue
                key = (-score, start, index, width)
                if fuzzy_best is None or key < fuzzy_best:
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
