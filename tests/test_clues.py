import pytest
from hypothesis import example, given, settings, strategies as st

from clue_reference import levenshtein_reference, match_element_reference

from lexjudge import (
    AreaTemplate,
    ClueSet,
    ClueTracer,
    ConfigError,
    CriminalCase,
    JudgmentLabels,
    Lexicon,
    Provenance,
    SectionAnchors,
    SectionMap,
    extract_clues,
    fuzzy_score,
    levenshtein,
    load_lexicon,
    locate_search_area,
    match_element,
    segment_sections,
)

ANCHORS = SectionAnchors("[S]", "[D]", "[L]", "[P]")


class TestSegmentSections:
    def test_all_four_anchors(self):
        doc = "[S] a [D] b [L] c [P] d"
        sections = segment_sections(doc, ANCHORS)
        assert (sections.statement, sections.date, sections.location, sections.process) == (
            "a", "b", "c", "d",
        )

    def test_only_process_anchor(self):
        sections = segment_sections("noise noise [P] the tail", ANCHORS)
        assert sections.statement == ""
        assert sections.date == ""
        assert sections.location == ""
        assert sections.process == "the tail"

    def test_no_anchors_whole_doc_is_process(self):
        sections = segment_sections("just a flat document", ANCHORS)
        assert sections.process == "just a flat document"

    def test_missing_process_anchor_assigns_whole_document(self):
        doc = "[S] statement text [D] date text"
        sections = segment_sections(doc, ANCHORS)
        assert sections.statement == "statement text"
        assert sections.process == doc

    def test_empty_doc_rejected(self):
        with pytest.raises(ValueError):
            segment_sections("", ANCHORS)


class TestLocateSearchArea:
    def test_between_anchors(self):
        area = locate_search_area(
            "court finds: X did Y. sentencing:",
            [AreaTemplate("court finds:", "sentencing:")],
        )
        assert area.text == "X did Y."

    def test_no_template_matches_full_text(self):
        area = locate_search_area("whole process text", [AreaTemplate("absent")])
        assert area.text == "whole process text"
        assert (area.start, area.end) == (0, len("whole process text"))

    def test_earlier_template_in_list_wins(self):
        templates = [AreaTemplate("first:", "end"), AreaTemplate("second:", "end")]
        area = locate_search_area("second: b end first: a end", templates)
        assert area.text == "a"

    def test_missing_end_anchor_runs_to_end(self):
        area = locate_search_area("start: tail words", [AreaTemplate("start:")])
        assert area.text == "tail words"


class TestFuzzyScore:
    def test_identity(self):
        assert fuzzy_score("abc", "abc") == 1.0

    def test_one_substitution_of_three(self):
        # hand Levenshtein("abc", "abd") = 1
        assert fuzzy_score("abc", "abd") == pytest.approx(1 - 1 / 3)

    def test_disjoint_strings(self):
        # hand Levenshtein("a", "bcd") = 3
        assert fuzzy_score("a", "bcd") == 0.0

    def test_levenshtein_hand_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("flaw", "lawn") == 2
        # single substitution, not two: computed by the DP oracle
        assert levenshtein("greed", "gread") == 1
        assert levenshtein("greed", "graad") == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuzzy_score("", "a")

    @settings(max_examples=300)
    @given(
        a=st.text(alphabet="ab中𝄞", max_size=12),
        b=st.text(alphabet="ab中𝄞", max_size=12),
    )
    @example(a="", b="abc")
    @example(a="abc", b="")
    @example(a="ab" * 40, b="ba" * 35)  # wider than one 64-bit word
    def test_levenshtein_matches_reference_dp(self, a, b):
        assert levenshtein(a, b) == levenshtein_reference(a, b)

    @given(
        a=st.text(alphabet="abcde中文", min_size=1, max_size=8),
        b=st.text(alphabet="abcde中文", min_size=1, max_size=8),
    )
    def test_symmetry_and_range(self, a, b):
        left = fuzzy_score(a, b)
        assert left == fuzzy_score(b, a)
        assert 0.0 <= left <= 1.0
        assert fuzzy_score(a, a) == 1.0


class TestMatchElement:
    def test_exact_substring_hit(self):
        found = match_element("driven by greed he ran", ["greed"], 0.8)
        assert found.kind is Provenance.EXACT
        assert found.score == 1.0
        assert found.text == "greed"
        assert found.span == (10, 15)

    def test_single_substitution_at_threshold_08_matches(self):
        # Levenshtein("greed", "gread") = 1 -> score 0.8, accepted at >= 0.8
        found = match_element("driven by gread he ran", ["greed"], 0.8)
        assert found is not None
        assert found.kind is Provenance.FUZZY
        assert found.score == pytest.approx(0.8)
        assert found.text == "gread"

    def test_two_edits_rejected_at_08(self):
        # Levenshtein("greed", "graad") = 2 -> best score 0.6 < 0.8
        assert match_element("driven by graad he ran", ["greed"], 0.8) is None

    def test_fuzzy_long_term_single_substitution(self):
        found = match_element(
            "he forcibly seiz3d the phone", ["forcibly seized"], 0.8
        )
        assert found.kind is Provenance.FUZZY
        assert found.score == pytest.approx(1 - 1 / 15)
        assert found.text == "forcibly seiz3d"

    def test_exact_tie_prefers_longer_term(self):
        found = match_element("aa bb", ["aa", "aa bb"], 0.8)
        assert found.matched_term == "aa bb"

    def test_exact_earliest_occurrence_wins(self):
        found = match_element("zz tail head", ["head", "tail"], 0.8)
        assert found.matched_term == "tail"

    def test_exact_dominates_fuzzy(self):
        found = match_element("greed gread", ["greed"], 0.5)
        assert found.kind is Provenance.EXACT
        assert found.span[0] == 0

    def test_byte_offsets_for_multibyte_text(self):
        area = "盗窃 greed"
        found = match_element(area, ["greed"], 0.8)
        start = len(area[: area.index("greed")].encode("utf-8"))
        assert found.span == (start, start + 5)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_element("area", ["term"], 0.0)

    def test_accepts_window_on_the_float_boundary(self):
        # (1 - 0.8) * 10 == 1.9999999999999996, so a cut-off of
        # floor((1 - θ) * max(w, |t|)) would allow 1 edit, yet the two
        # substitutions score exactly 0.8 and are accepted.
        found = match_element("xx abcdefgXYj xx", ["abcdefghij"], 0.8)
        assert found.kind is Provenance.FUZZY
        assert found.score == 0.8
        assert found.span == (3, 13)
        assert found.text == "abcdefgXYj"
        # With the area no wider than the term, no wider window loosens the bound.
        found = match_element("abcdefgXYj", ["abcdefghij"], 0.8)
        assert (found.kind, found.score, found.span) == (Provenance.FUZZY, 0.8, (0, 10))


# Small alphabets give many near hits; the non-ASCII ones check byte spans.
ALPHABETS = ("ab", "abc ", "abcdefgh", "盗窃罪 ab", "aé中𝄞")


@st.composite
def matcher_inputs(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    area = draw(st.text(alphabet, max_size=24))
    terms = draw(st.lists(st.text(alphabet, min_size=1, max_size=10), max_size=2))
    if area:
        # a slice of the area with up to two edits, so the fuzzy pass has work
        start = draw(st.integers(0, len(area) - 1))
        piece = area[start : start + draw(st.integers(1, 12))]
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(piece)))
            piece = piece[:at] + draw(st.text(alphabet, max_size=2)) + piece[at + 1 :]
        terms.append(piece or alphabet[0])
    if not terms or draw(st.booleans()):
        terms.append(draw(st.sampled_from(terms)) if terms else alphabet[0])
    threshold = draw(st.one_of(
        st.sampled_from((0.5, 0.8, 1.0)),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    ))
    return area, terms, threshold


class TestMatchElementAgreesWithReference:
    @settings(max_examples=500)
    @given(matcher_inputs())
    @example(("", ["abc"], 0.8))
    @example(("ab", ["abcdefgh"], 0.5))
    @example(("xbx", ["a", "b"], 0.5))
    @example(("aXc aYc", ["abc", "abc"], 0.5))
    @example(("盗窃 gread 盗", ["greed"], 0.8))
    @example(("xx abcdefgXYj xx", ["abcdefghij"], 0.8))
    def test_same_match_result(self, inputs):
        area, terms, threshold = inputs
        assert match_element(area, terms, threshold) == match_element_reference(
            area, terms, threshold
        )


LEXICON = Lexicon(
    motivation_terms=("greed",),
    action_terms=("forcibly seized",),
    harm_terms=("injury",),
    area_templates=(AreaTemplate("court finds:", "sentencing"),),
)


def make_case(process, case_id="c1"):
    return CriminalCase(
        id=case_id,
        fact_text=process,
        labels=JudgmentLabels(0, 0, 0),
        sections=SectionMap(process=process),
    )


class TestExtractClues:
    def test_all_exact(self):
        case = make_case(
            "court finds: motivated by greed, forcibly seized the phone, "
            "causing injury. sentencing next"
        )
        before = dict(vars(case))
        clues = extract_clues(case, LEXICON, 0.8)
        assert (clues.motivation, clues.action, clues.harm) == (
            "greed", "forcibly seized", "injury",
        )
        assert all(p is Provenance.EXACT for p in clues.provenance.values())
        assert vars(case) == before

    def test_missing_harm_falls_back_to_area(self):
        case = make_case("court finds: greed led him to forcibly seized goods. sentencing")
        clues = extract_clues(case, LEXICON, 0.8)
        assert clues.provenance["harm"] is Provenance.FALLBACK_AREA
        assert clues.harm == "greed led him to forcibly seized goods."

    def test_segments_when_sections_missing(self):
        case = CriminalCase(
            id="c2",
            fact_text="[P] court finds: greed, forcibly seized, injury. sentencing",
            labels=JudgmentLabels(0, 0, 0),
        )
        clues = extract_clues(case, LEXICON, 0.8, anchors=ANCHORS)
        assert clues.motivation == "greed"
        assert case.sections is None

    def test_determinism(self):
        case_a = make_case("court finds: greed, forcibly seized, injury. sentencing")
        case_b = make_case("court finds: greed, forcibly seized, injury. sentencing")
        assert extract_clues(case_a, LEXICON, 0.8) == extract_clues(case_b, LEXICON, 0.8)

    def test_totality_on_term_free_text(self):
        case = make_case("nothing relevant here at all")
        clues = extract_clues(case, LEXICON, 0.8)
        for name in ("motivation", "action", "harm"):
            assert clues.text_for(name)


class TestLexiconValidation:
    def test_empty_term_list_rejected(self):
        with pytest.raises(ValueError):
            Lexicon(motivation_terms=(), action_terms=("a",), harm_terms=("h",))

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            Lexicon(motivation_terms=("", "x"), action_terms=("a",), harm_terms=("h",))

    def test_clue_set_requires_non_empty_fields(self):
        with pytest.raises(ValueError):
            ClueSet(
                motivation="", action="a", harm="h",
                provenance={k: Provenance.EXACT for k in ("motivation", "action", "harm")},
            )

    def test_load_lexicon_roundtrip(self, lexicon_path):
        lexicon, anchors = load_lexicon(lexicon_path)
        assert lexicon.motivation_terms
        assert anchors.process == "[PROCESS]"

    def test_load_lexicon_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_lexicon(tmp_path / "nope.json")


class TestClueTracer:
    def test_transform_raw_strings(self):
        tracer = ClueTracer(lexicon=LEXICON, anchors=ANCHORS).fit()
        out = tracer.transform(
            ["[P] court finds: greed, forcibly seized, injury. sentencing"]
        )
        assert out[0].motivation == "greed"

    def test_get_params_roundtrip(self):
        tracer = ClueTracer(lexicon=LEXICON, anchors=ANCHORS, threshold=0.9)
        params = tracer.get_params()
        assert params["threshold"] == 0.9
        tracer.set_params(threshold=0.7)
        assert tracer.threshold == 0.7

    def test_requires_lexicon(self):
        with pytest.raises(ConfigError):
            ClueTracer().fit()
