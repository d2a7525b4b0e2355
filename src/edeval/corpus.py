"""Input data model: tokens, segments, documents, reference sets, manifests.

Two on-disk formats are understood:

* plain: UTF-8, LF line endings, one segment per line, tokens separated
  by whitespace.
* annotated: UTF-8, LF, one token per line as ``surface<TAB>lemma<TAB>pos``,
  segments separated by exactly one blank line.  An empty segment is an
  empty block between two separators; a single dangling blank line at the
  end of the file is tolerated and ignored.

A file that starts with a UTF-8 byte order mark, or an annotated file
with a carriage return in any line, is rejected with a ``ParseError``.

All comparisons throughout the toolkit operate on tokenized sequences;
no tokenization or detokenization is ever applied here.
"""

from __future__ import annotations

import codecs
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AnnotationError, ParseError, ShapeError

__all__ = [
    "Token",
    "Segment",
    "Document",
    "ReferenceSet",
    "Manifest",
    "TokenTable",
    "parse_plain",
    "serialize_plain",
    "parse_annotated",
    "serialize_annotated",
    "load_plain",
    "load_annotated",
    "match_eval_subset",
    "load_manifest",
    "resolve_manifest",
]


@dataclass(frozen=True, slots=True)
class Token:
    """One token: surface form plus optional lemma/POS annotation.

    The surface must be non-empty and free of whitespace; lemma and pos,
    when present, must be non-empty and must not contain tabs or newlines
    (the annotated file format could not represent them).
    """

    surface: str
    lemma: str | None = None
    pos: str | None = None

    def __post_init__(self):
        # str.split() cuts at exactly the characters str.isspace() accepts.
        if self.surface.split() != [self.surface]:
            raise ValueError(f"invalid token surface: {self.surface!r}")
        for name, value in (("lemma", self.lemma), ("pos", self.pos)):
            if value is not None and (value == "" or "\t" in value or "\n" in value):
                raise ValueError(f"invalid token {name}: {value!r}")

    @property
    def annotated(self) -> bool:
        return self.lemma is not None and self.pos is not None


@dataclass(frozen=True, slots=True)
class Segment:
    """An ordered token sequence with its zero-based document index."""

    id: int
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)


@dataclass(frozen=True)
class Document:
    """An immutable, ordered collection of segments."""

    segments: tuple[Segment, ...]

    @classmethod
    def from_tokens(cls, token_lists) -> "Document":
        return cls(tuple(Segment(i, tuple(toks)) for i, toks in enumerate(token_lists)))

    @property
    def annotated(self) -> bool:
        """True iff every token carries both lemma and POS (vacuously true)."""
        return all(t.annotated for seg in self.segments for t in seg.tokens)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


@dataclass(frozen=True)
class ReferenceSet:
    """One or more reference documents with identical segment counts."""

    references: tuple[Document, ...]

    def __post_init__(self):
        if not self.references:
            raise ValueError("a ReferenceSet needs at least one reference document")
        counts = [len(d) for d in self.references]
        if len(set(counts)) > 1:
            raise ShapeError(f"reference documents have unequal segment counts: {counts}")

    @classmethod
    def of(cls, *documents: Document) -> "ReferenceSet":
        return cls(tuple(documents))

    def __len__(self) -> int:
        return len(self.references[0])

    def segment_refs(self, index: int) -> list[Segment]:
        return [d.segments[index] for d in self.references]

    def require_annotated(self) -> None:
        for k, doc in enumerate(self.references):
            if not doc.annotated:
                raise AnnotationError(f"reference document {k} is not lemma/POS annotated")


class TokenTable(dict):
    """One shared ``Token`` per distinct token, for every document a caller
    parses with it.

    The plain parser keys it by word; a missing word maps to a new
    ``Token(word)``.  The annotated parser keys it by whole
    ``surface<TAB>lemma<TAB>pos`` line and adds only lines that passed
    validation, so a broken line is parsed, and reported, wherever it
    occurs.  A valid line holds two tabs and a word none, so one table can
    serve both formats.
    """

    __slots__ = ()

    def __missing__(self, word: str) -> Token:
        token = self[word] = Token(word)
        return token


def parse_plain(text: str, table: TokenTable | None = None) -> Document:
    """Parse the plain format: one segment per line, whitespace-split tokens.

    Empty lines become empty segments; a trailing newline after the last
    line does not create one.  Consecutive separators inside a line are
    collapsed (empty fields are dropped).  Equal words share one ``Token``,
    also across the documents parsed with the same ``table``.
    """
    if text == "":
        return Document(())
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    token_of = (TokenTable() if table is None else table).__getitem__
    return Document.from_tokens(map(token_of, line.split()) for line in lines)


def serialize_plain(doc: Document) -> str:
    if not doc.segments:
        return ""
    return "\n".join(" ".join(t.surface for t in seg.tokens) for seg in doc) + "\n"


def _parse_token_line(line: str, line_no: int, source: str | None) -> Token:
    if line == "":
        raise ParseError(
            "unexpected blank line (segments are separated by exactly one blank line)",
            line=line_no, source=source,
        )
    if "\r" in line:
        raise ParseError(
            "carriage return in line (CRLF line endings are not supported)",
            line=line_no, source=source,
        )
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(
            f"expected 3 tab-separated fields (surface, lemma, pos), found {len(fields)}",
            line=line_no, source=source,
        )
    surface, lemma, pos = fields
    for name, value in (("surface", surface), ("lemma", lemma), ("pos", pos)):
        if value == "":
            raise ParseError(f"empty {name} field", line=line_no, source=source)
    if surface.split() != [surface]:
        raise ParseError(f"surface contains whitespace: {surface!r}", line=line_no, source=source)
    return Token(surface, lemma, pos)


def parse_annotated(
    text: str, source: str | None = None, table: TokenTable | None = None
) -> Document:
    """Parse the annotated format (``surface<TAB>lemma<TAB>pos`` per line).

    Exact inverse of :func:`serialize_annotated`; see the module docstring
    for the shape of the format.  Equal lines share one ``Token``, also
    across the documents parsed with the same ``table``.  Only valid lines
    enter the table, so a broken line is reported where it first occurs in
    this text.
    """
    if text == "":
        return Document(())
    if text.endswith("\n\n") and not text.endswith("\n\n\n"):
        # A single dangling blank line before EOF is tolerated.  Serialized
        # documents never end with exactly two newlines, so this cannot
        # swallow an empty final segment.
        text = text[:-1]
    core = text[:-1] if text.endswith("\n") else text
    token_lists: list[list[Token]] = []
    seen = TokenTable() if table is None else table
    line_no = 1
    for block in core.split("\n\n"):
        if block == "":
            token_lists.append([])
            line_no += 2
            continue
        lines = block.split("\n")
        tokens = []
        for j, ln in enumerate(lines):
            tok = seen.get(ln)
            if tok is None or tok.pos is None:   # a plain word, not a line
                tok = seen[ln] = _parse_token_line(ln, line_no + j, source)
            tokens.append(tok)
        token_lists.append(tokens)
        line_no += len(lines) + 1
    return Document.from_tokens(token_lists)


def serialize_annotated(doc: Document) -> str:
    """Serialize to the annotated format.  Requires full annotation."""
    if not doc.annotated:
        raise AnnotationError("cannot serialize a document that is not fully annotated")
    if not doc.segments:
        return ""
    blocks = [
        "\n".join(f"{t.surface}\t{t.lemma}\t{t.pos}" for t in seg.tokens) for seg in doc
    ]
    return "\n\n".join(blocks) + "\n"


def _read_utf8(path: str | Path) -> str:
    data = Path(path).read_bytes()
    if data.startswith(codecs.BOM_UTF8):
        raise ParseError("UTF-8 byte order mark at the start of the file",
                         line=1, source=str(path))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"malformed UTF-8 at byte offset {exc.start}", source=str(path)
        ) from exc


def load_plain(path: str | Path, table: TokenTable | None = None) -> Document:
    return parse_plain(_read_utf8(path), table)


def load_annotated(path: str | Path, table: TokenTable | None = None) -> Document:
    return parse_annotated(_read_utf8(path), str(path), table)


def match_eval_subset(candidate: Document, anchor_targets: Document) -> list[tuple[int, int]]:
    """Find candidate segments whose surface sequence equals an anchor segment.

    Returns (candidate_id, anchor_id) pairs sorted by candidate id.  Each
    candidate appears at most once, paired with the lowest matching anchor
    index.  Comparison is on tokenized surface sequences.
    """
    first_anchor: dict[tuple[str, ...], int] = {}
    for seg in anchor_targets:
        key = seg.surfaces()
        if key not in first_anchor:
            first_anchor[key] = seg.id
    pairs = []
    for seg in candidate:
        hit = first_anchor.get(seg.surfaces())
        if hit is not None:
            pairs.append((seg.id, hit))
    return pairs


@dataclass(frozen=True)
class Manifest:
    """System roster: hypothesis paths, reference paths, baseline name."""

    systems: dict[str, str]
    references: list[str]
    baseline: str
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        if not self.references:
            raise ParseError("a manifest needs at least one reference")
        if self.baseline not in self.systems:
            raise ParseError(
                f"baseline {self.baseline!r} is not among systems {sorted(self.systems)}"
            )


def load_manifest(path: str | Path) -> Manifest:
    """Load a JSON manifest: {"systems": {...}, "references": [...], "baseline": ...}.

    Relative paths inside the manifest are resolved against its directory.
    """
    path = Path(path)
    try:
        raw = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", source=str(path)) from exc
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object", source=str(path))
    for key, kind in (("systems", dict), ("references", list), ("baseline", str)):
        if key not in raw or not isinstance(raw[key], kind):
            raise ParseError(f"manifest needs a {kind.__name__!r}-valued {key!r} entry",
                             source=str(path))
    paths = [*raw["systems"].values(), *raw["references"]]
    if not all(isinstance(p, str) for p in paths):
        raise ParseError("every system and reference path must be a string", source=str(path))
    try:
        return Manifest(dict(raw["systems"]), list(raw["references"]), raw["baseline"],
                        base_dir=path.parent)
    except ParseError as exc:
        raise ParseError(str(exc), source=str(path)) from exc


def resolve_manifest(
    manifest: Manifest, annotated: bool = False
) -> tuple[dict[str, Document], ReferenceSet]:
    """Load every document a manifest names, with one token table, and
    check they are parallel."""
    loader = load_annotated if annotated else load_plain
    table = TokenTable()
    systems = {name: loader(manifest.base_dir / p, table)
               for name, p in manifest.systems.items()}
    refset = ReferenceSet(tuple(loader(manifest.base_dir / p, table)
                                for p in manifest.references))
    counts = {name: len(doc) for name, doc in systems.items()}
    counts["<references>"] = len(refset)
    if len(set(counts.values())) > 1:
        raise ShapeError(f"manifest documents have unequal segment counts: {counts}")
    return systems, refset
