import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edeval.cli import main
from edeval.corpus import (
    Document,
    Manifest,
    ReferenceSet,
    Token,
    load_annotated,
    load_manifest,
    load_plain,
    match_eval_subset,
    parse_annotated,
    parse_plain,
    resolve_manifest,
    serialize_annotated,
    serialize_plain,
)
from edeval.errors import ParseError, ShapeError

from helpers import plain_doc

# -- strategies -------------------------------------------------------------

surface_st = st.text(alphabet="abcdeäöüß'-", min_size=1, max_size=5)
field_st = st.text(alphabet="abcde fg", min_size=1, max_size=5)
ann_token_st = st.builds(Token, surface_st, field_st, field_st)
ann_segment_st = st.lists(ann_token_st, max_size=6)
ann_doc_st = st.builds(
    Document.from_tokens, st.lists(ann_segment_st, max_size=6)
)
plain_line_st = st.lists(surface_st, max_size=6)


# -- plain format -----------------------------------------------------------

def test_parse_plain_basic():
    doc = parse_plain("a b c\nd e\n")
    assert [[t.surface for t in s.tokens] for s in doc] == [["a", "b", "c"], ["d", "e"]]
    assert [s.id for s in doc] == [0, 1]


def test_parse_plain_empty_input():
    assert len(parse_plain("")) == 0


def test_parse_plain_trailing_newline_optional():
    assert len(parse_plain("a b")) == 1
    assert len(parse_plain("a b\n")) == 1


def test_parse_plain_double_space_drops_empty_fields():
    doc = parse_plain("x  y\n")
    assert doc.segments[0].surfaces() == ("x", "y")


def test_parse_plain_empty_line_is_empty_segment():
    doc = parse_plain("a\n\nb\n")
    assert [len(s) for s in doc] == [1, 0, 1]


@given(st.lists(plain_line_st, max_size=8))
def test_plain_roundtrip_and_token_count(lines):
    doc = plain_doc(lines)
    text = serialize_plain(doc)
    reparsed = parse_plain(text)
    assert reparsed == doc
    # parse/serialize consistency: token totals match a whitespace split
    assert sum(len(s) for s in doc) == len(text.split())


@given(st.text(alphabet="abc \n", max_size=40))
def test_parse_plain_matches_whitespace_split_oracle(text):
    doc = parse_plain(text)
    flat = [t.surface for s in doc for t in s.tokens]
    assert flat == text.split()


# No-break space, line separator, paragraph separator, ideographic space and
# next line: str.isspace() accepts each, and str.splitlines() would cut at
# the last four.
UNICODE_SPACES = "\u00a0\u2028\u2029\u3000\u0085"
separator_st = st.text(alphabet=UNICODE_SPACES + " ", min_size=1, max_size=3)


@given(st.lists(st.lists(st.tuples(separator_st, surface_st), max_size=5), max_size=6),
       st.lists(separator_st, min_size=6, max_size=6))
def test_plain_unicode_whitespace_separates_tokens_not_segments(lines, tails):
    text = "".join("".join(sep + word for sep, word in line) + tail + "\n"
                   for line, tail in zip(lines, tails))
    doc = parse_plain(text)
    assert [list(seg.surfaces()) for seg in doc] == [[w for _, w in line] for line in lines]
    assert parse_plain(serialize_plain(doc)) == doc
    assert serialize_plain(parse_plain(serialize_plain(doc))) == serialize_plain(doc)


def test_load_plain_unicode_whitespace_keeps_one_segment_per_line(tmp_path):
    path = tmp_path / "spaces.txt"
    path.write_bytes(("a" + "b".join(UNICODE_SPACES) + "c\nd\n").encode("utf-8"))
    doc = load_plain(path)
    assert [list(seg.surfaces()) for seg in doc] == [["a", "b", "b", "b", "b", "c"], ["d"]]


# -- annotated format -------------------------------------------------------

def test_parse_annotated_basic():
    doc = parse_annotated("geht\tgehen\tV\n\nHaus\tHaus\tN\n")
    assert len(doc) == 2
    assert doc.annotated
    tok = doc.segments[0].tokens[0]
    assert (tok.surface, tok.lemma, tok.pos) == ("geht", "gehen", "V")


def test_parse_annotated_bad_field_count():
    with pytest.raises(ParseError, match="line 1"):
        parse_annotated("bad line with no tabs\n")


def test_parse_annotated_error_line_numbers():
    text = "a\ta\tX\nb\tb\tX\n\nc\tc\tX\nboom\n"
    with pytest.raises(ParseError, match="line 5"):
        parse_annotated(text)


def test_parse_annotated_line_numbers_after_empty_segment():
    # segment [a], empty segment (lines 2-4 are blank), then a bad line 5
    with pytest.raises(ParseError, match="line 5"):
        parse_annotated("a\ta\tX\n\n\n\nboom\n")


def test_parse_annotated_empty_field():
    with pytest.raises(ParseError, match="empty lemma"):
        parse_annotated("a\t\tX\n")


def test_parse_annotated_surface_whitespace():
    with pytest.raises(ParseError, match="whitespace"):
        parse_annotated("a b\tc\tX\n")


def test_parse_annotated_double_blank_is_empty_segment():
    doc = parse_annotated("a\ta\tX\n\n\n\nb\tb\tX\n")
    assert [len(s) for s in doc] == [1, 0, 1]


def test_parse_annotated_three_newlines_is_error():
    with pytest.raises(ParseError):
        parse_annotated("a\ta\tX\n\n\nb\tb\tX\n")


def test_parse_annotated_trailing_blank_line_permitted():
    assert len(parse_annotated("a\ta\tX\n\n")) == 1
    assert len(parse_annotated("a\ta\tX\n")) == 1
    assert len(parse_annotated("a\ta\tX")) == 1


def test_parse_annotated_empty():
    assert len(parse_annotated("")) == 0


def test_serialize_annotated_requires_annotation():
    with pytest.raises(Exception, match="annotated"):
        serialize_annotated(plain_doc([["a"]]))


@given(ann_doc_st)
@settings(max_examples=300)
def test_annotated_roundtrip_identity(doc):
    text = serialize_annotated(doc)
    assert parse_annotated(text) == doc
    # byte-exactness in the other direction too
    assert serialize_annotated(parse_annotated(text)) == text


def test_annotated_roundtrip_empty_segments():
    for token_lists in ([[]], [[], []], [[("a", "a", "X")], []], [[], [("a", "a", "X")]]):
        doc = Document.from_tokens(
            [Token(s, l, p) for s, l, p in seg] for seg in token_lists
        )
        assert parse_annotated(serialize_annotated(doc)) == doc


@given(st.lists(ann_segment_st, min_size=1, max_size=4), st.data())
def test_annotated_surface_with_unicode_whitespace_is_rejected(segments, data):
    lines = serialize_annotated(Document.from_tokens(segments)).split("\n")
    tokens = [k for k, line in enumerate(lines) if line]
    if not tokens:
        return
    k = data.draw(st.sampled_from(tokens))
    surface, rest = lines[k].split("\t", 1)
    cut = data.draw(st.integers(0, len(surface)))
    space = data.draw(st.sampled_from(UNICODE_SPACES))
    lines[k] = f"{surface[:cut]}{space}{surface[cut:]}\t{rest}"
    with pytest.raises(ParseError, match=f"^bad.ann: line {k + 1}: surface contains whitespace"):
        parse_annotated("\n".join(lines), source="bad.ann")


@pytest.mark.parametrize("space", UNICODE_SPACES)
def test_load_annotated_names_file_and_line_of_unicode_whitespace(space, tmp_path):
    path = tmp_path / "bad.ann"
    path.write_bytes(f"a\ta\tX\n\nb{space}c\tb\tX\n".encode("utf-8"))
    with pytest.raises(ParseError, match="surface contains whitespace") as info:
        load_annotated(path)
    assert (info.value.source, info.value.line) == (str(path), 3)


def test_load_reports_decode_error_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok tok\n\xff\xfe\n")
    with pytest.raises(ParseError, match="byte offset 7"):
        load_plain(path)


# -- token/document invariants ----------------------------------------------

def test_token_validation():
    with pytest.raises(ValueError):
        Token("")
    with pytest.raises(ValueError):
        Token("a b")
    with pytest.raises(ValueError):
        Token("a\tb")
    with pytest.raises(ValueError):
        Token("a", lemma="")
    with pytest.raises(ValueError):
        Token("a", lemma="x\ty")


def test_document_annotated_flag():
    assert not plain_doc([["a"]]).annotated
    assert parse_annotated("a\ta\tX\n").annotated
    assert parse_annotated("").annotated  # vacuously


def test_reference_set_validation():
    with pytest.raises(ValueError):
        ReferenceSet(())
    with pytest.raises(ShapeError):
        ReferenceSet((plain_doc([["a"]]), plain_doc([["a"], ["b"]])))


# -- evaluation-subset matching ----------------------------------------------

def test_subset_single_match():
    cand = plain_doc([["a", "b"], ["c", "d"]])
    anchors = plain_doc([["c", "d"], ["x", "y"]])
    assert match_eval_subset(cand, anchors) == [(1, 0)]


def test_subset_empty_candidate():
    assert match_eval_subset(plain_doc([]), plain_doc([["a"]])) == []


def test_subset_duplicates_lowest_anchor():
    cand = plain_doc([["c", "d"], ["z"], ["c", "d"]])
    anchors = plain_doc([["q"], ["c", "d"], ["c", "d"]])
    assert match_eval_subset(cand, anchors) == [(0, 1), (2, 1)]


@given(
    st.lists(st.lists(st.sampled_from("ab"), max_size=2), max_size=6),
    st.lists(st.lists(st.sampled_from("ab"), max_size=2), max_size=6),
)
def test_subset_matches_bruteforce(cand_lines, anchor_lines):
    cand = plain_doc(cand_lines)
    anchors = plain_doc(anchor_lines)
    expected = []
    for i, cl in enumerate(cand_lines):
        for j, al in enumerate(anchor_lines):
            if cl == al:
                expected.append((i, j))
                break
    got = match_eval_subset(cand, anchors)
    assert got == expected
    assert len(got) <= len(cand_lines)
    for ci, ai in got:
        assert cand.segments[ci].surfaces() == anchors.segments[ai].surfaces()


# -- manifest -----------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    (tmp_path / "sys_a.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "sys_b.txt").write_text("a c\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("a b\n", encoding="utf-8")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        '{"systems": {"A": "sys_a.txt", "B": "sys_b.txt"}, '
        '"references": ["ref.txt"], "baseline": "A"}',
        encoding="utf-8",
    )
    manifest = load_manifest(manifest_path)
    assert manifest.baseline == "A"
    systems, refset = resolve_manifest(manifest)
    assert set(systems) == {"A", "B"}
    assert len(refset) == 1


def test_manifest_baseline_must_be_a_system():
    with pytest.raises(ParseError, match="baseline"):
        Manifest({"A": "a.txt"}, ["r.txt"], "missing")


def test_manifest_unequal_counts(tmp_path):
    (tmp_path / "sys_a.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("a b\nc d\n", encoding="utf-8")
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(
        '{"systems": {"A": "sys_a.txt"}, "references": ["ref.txt"], "baseline": "A"}',
        encoding="utf-8",
    )
    with pytest.raises(ShapeError, match="segment counts"):
        resolve_manifest(load_manifest(manifest_path))


@pytest.mark.parametrize("text", [
    "5",
    '["systems"]',
    '{"systems": {"A": 5}, "references": ["ref.txt"], "baseline": "A"}',
    '{"systems": {"A": "a.txt"}, "references": [["ref.txt"]], "baseline": "A"}',
])
def test_manifest_of_the_wrong_shape_names_the_file(tmp_path, text):
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="m.json"):
        load_manifest(manifest_path)


@pytest.mark.parametrize("text, message", [
    ('{"systems": {"A": "a.txt"}, "references": [], "baseline": "A"}', "at least one reference"),
    ('{"systems": {"A": "a.txt"}, "references": ["r.txt"], "baseline": "B"}', "baseline 'B'"),
])
def test_manifest_with_no_reference_or_a_foreign_baseline_names_the_file(tmp_path, text,
                                                                         message):
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message) as info:
        load_manifest(manifest_path)
    assert info.value.source == str(manifest_path)


# -- input checks in the parse path -------------------------------------------

ANNOTATED = "a\ta\tX\nb\tb\tX\n\nc\tc\tX\n"


def test_parse_annotated_repeated_bad_line_reports_first_copy():
    text = "a\ta\tX\nboom\n\nb\tb\tX\nboom\n"
    with pytest.raises(ParseError, match="line 2:"):
        parse_annotated(text)


@pytest.mark.parametrize("loader, text", [(load_plain, "a b c\n"), (load_annotated, ANNOTATED)])
def test_load_rejects_byte_order_mark(loader, text, tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    with pytest.raises(ParseError, match="byte order mark") as info:
        loader(path)
    assert (info.value.source, info.value.line) == (str(path), 1)


@pytest.mark.parametrize("text, line", [
    (ANNOTATED.replace("\n", "\r\n"), 1),
    ("a\ta\tX\nb\tb\tX\r\n\nc\tc\tX\n", 2),
    ("a\ta\tX\nb\tb\tX\n\nc\tc\tX\r", 4),
])
def test_load_annotated_rejects_carriage_return(text, line, tmp_path):
    path = tmp_path / "crlf.ann"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError, match="carriage return") as info:
        load_annotated(path)
    assert (info.value.source, info.value.line) == (str(path), line)


def _cli_argv(command, good, bad, out):
    if command == "score":
        return ["score", "--metric", "ter", "--lemma", "--hyp", bad, "--ref", good]
    if command == "analyze":
        return ["analyze", "--hyp", good, "--pe", good, bad, "--out", out]
    return ["compare", "--metric", "ter", "--lemma", "--sys-a", good, "--sys-b", bad,
            "--ref", good, "--trials", "10"]


@pytest.mark.parametrize("defect", ["bom", "crlf"])
@pytest.mark.parametrize("command", ["score", "analyze", "compare"])
def test_cli_exits_1_naming_the_file(command, defect, tmp_path, capsys):
    good = tmp_path / "good.ann"
    good.write_text(ANNOTATED, encoding="utf-8")
    bad = tmp_path / "bad.ann"
    if defect == "bom":
        bad.write_bytes(b"\xef\xbb\xbf" + ANNOTATED.encode("utf-8"))
    else:
        bad.write_bytes(ANNOTATED.replace("\n", "\r\n").encode("utf-8"))
    code = main(_cli_argv(command, str(good), str(bad), str(tmp_path / "p.json")))
    err = capsys.readouterr().err
    assert code == 1
    assert f"{bad}: line 1:" in err


@pytest.mark.parametrize("metric", ["bleu", "ter"])
def test_cli_rejects_byte_order_mark_in_plain_hypothesis(metric, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_bytes(b"\xef\xbb\xbfa b c\n")
    ref = tmp_path / "ref.txt"
    ref.write_text("a b c\n", encoding="utf-8")
    code = main(["score", "--metric", metric, "--hyp", str(hyp), "--ref", str(ref)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert f"{hyp}: line 1:" in err
