"""Classification of lemma-level edit scripts into error categories.

Every operation that is not an exact match is one error:

* substitutions, insertions and deletions (the lemma itself is wrong,
  missing or spurious) are lexical errors;
* a lemma match whose surface form differs is a morphological error;
* a lemma match found after a displacement is a reordering error, or a
  combined morphological+reordering error when its surface also differs.

Counts are aggregated per system, normalized against a designated
baseline system's total error count, and compared via delta columns.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import Document, ReferenceSet, _read_utf8
from .errors import AnnotationError, DataError, ParseError
from .ter import EditKind, EditScript, MatchMode, corpus_ter_detailed

__all__ = [
    "ErrorCategory",
    "ErrorProfile",
    "NormalizedProfile",
    "DeltaReport",
    "classify_edits",
    "classify_edits_detailed",
    "error_op_count",
    "profile_system",
    "normalize",
    "deltas",
    "profile_to_dict",
    "profile_from_dict",
    "load_profile",
    "save_profile",
]


class ErrorCategory(Enum):
    LEXICAL = "lexical"
    MORPHOLOGICAL = "morph"
    REORDERING = "reordering"
    MORPH_AND_REORDERING = "morph_reo"


CATEGORY_LABELS = {
    ErrorCategory.LEXICAL: "Lexical",
    ErrorCategory.MORPHOLOGICAL: "Morph",
    ErrorCategory.REORDERING: "Reordering",
    ErrorCategory.MORPH_AND_REORDERING: "Morph. & Reo.",
}


@dataclass(frozen=True)
class ErrorProfile:
    """Raw error counts of one system, with a by-POS breakdown of the
    morphological errors (informational)."""

    system: str
    counts: dict[ErrorCategory, int]
    by_pos: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class NormalizedProfile:
    """Counts expressed as percentages of the baseline's total errors.

    total_pct is computed from the raw totals, not by summing the four
    category percentages, so the baseline's own total is exactly 100.
    """

    system: str
    baseline: str
    percentages: dict[ErrorCategory, float]
    total_pct: float


@dataclass(frozen=True)
class DeltaReport:
    """Per-category and total difference to the baseline, in points."""

    system: str
    baseline: str
    deltas: dict[ErrorCategory, float]
    total_delta: float


def _require_lemma_script(script: EditScript) -> None:
    if script.mode is not MatchMode.LEMMA:
        raise AnnotationError(
            f"segment {script.segment_id}: error classification needs a lemma-mode "
            f"edit script, got {script.mode.value}-mode"
        )


def classify_edits_detailed(script: EditScript) -> tuple[dict[ErrorCategory, int], Counter]:
    """Classify one script; also tally reference-side POS tags of the
    morphological errors."""
    _require_lemma_script(script)
    counts = {cat: 0 for cat in ErrorCategory}
    by_pos: Counter = Counter()
    for op in script.ops:
        if op.is_edit:
            counts[ErrorCategory.LEXICAL] += 1
        elif op.kind is EditKind.MATCH:
            if not op.surface_equal:
                counts[ErrorCategory.MORPHOLOGICAL] += 1
                if op.ref_token is not None and op.ref_token.pos is not None:
                    by_pos[op.ref_token.pos] += 1
        elif op.kind is EditKind.SHIFT_MATCH:
            if op.surface_equal:
                counts[ErrorCategory.REORDERING] += 1
            else:
                counts[ErrorCategory.MORPH_AND_REORDERING] += 1
    return counts, by_pos


def classify_edits(script: EditScript) -> dict[ErrorCategory, int]:
    return classify_edits_detailed(script)[0]


def error_op_count(script: EditScript) -> int:
    """Number of operations that are errors (everything but exact matches)."""
    return sum(
        1 for op in script.ops if not (op.kind is EditKind.MATCH and op.surface_equal)
    )


def profile_system(
    hyps: Document,
    postedits: ReferenceSet,
    system: str = "system",
    *,
    ignore_case: bool = False,
    threads: int | None = None,
) -> ErrorProfile:
    """Aggregate error counts of a system against its post-edits.

    Every segment is scored with lemma-level multi-reference TER and
    classified against the post-edit that needed the fewest edits.
    """
    if not hyps.annotated:
        raise AnnotationError("hypothesis document is not lemma/POS annotated")
    postedits.require_annotated()
    detailed = corpus_ter_detailed(
        hyps, postedits, MatchMode.LEMMA, ignore_case=ignore_case, threads=threads
    )
    counts = {cat: 0 for cat in ErrorCategory}
    by_pos: Counter = Counter()
    for seg in detailed:
        seg_counts, seg_pos = classify_edits_detailed(seg.script)
        for cat, c in seg_counts.items():
            counts[cat] += c
        by_pos.update(seg_pos)
    return ErrorProfile(system, counts, dict(sorted(by_pos.items())))


def normalize(profiles: list[ErrorProfile], baseline: str) -> list[NormalizedProfile]:
    """Express every profile's counts as percentages of the baseline total."""
    by_name = {p.system: p for p in profiles}
    if len(by_name) != len(profiles):
        raise ValueError("profiles have duplicate system names")
    if baseline not in by_name:
        raise ValueError(f"baseline {baseline!r} not among profiles {sorted(by_name)}")
    base_total = by_name[baseline].total
    if base_total == 0:
        raise DataError(f"baseline {baseline!r} has zero total errors; cannot normalize")
    return [
        NormalizedProfile(
            p.system,
            baseline,
            {cat: 100.0 * count / base_total for cat, count in p.counts.items()},
            100.0 * p.total / base_total,
        )
        for p in profiles
    ]


def deltas(normalized: list[NormalizedProfile], baseline: str) -> list[DeltaReport]:
    """Per-cell difference of each normalized profile to the baseline's."""
    if any(p.baseline != baseline for p in normalized):
        raise ValueError("normalized profiles do not share the requested baseline")
    by_name = {p.system: p for p in normalized}
    if baseline not in by_name:
        raise ValueError(f"baseline {baseline!r} not among normalized profiles")
    base = by_name[baseline]
    return [
        DeltaReport(
            p.system,
            baseline,
            {cat: p.percentages[cat] - base.percentages[cat] for cat in ErrorCategory},
            p.total_pct - base.total_pct,
        )
        for p in normalized
    ]


def profile_to_dict(profile: ErrorProfile) -> dict:
    return {
        "system": profile.system,
        "counts": {cat.value: profile.counts[cat] for cat in ErrorCategory},
        "total": profile.total,
        "by_pos": dict(profile.by_pos),
    }


def profile_from_dict(raw: dict) -> ErrorProfile:
    try:
        counts = {cat: raw["counts"][cat.value] for cat in ErrorCategory}
        profile = ErrorProfile(str(raw["system"]), counts, dict(raw.get("by_pos", {})))
    except KeyError as exc:
        raise DataError(f"malformed profile JSON: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed profile JSON: {exc}") from exc
    if not all(type(n) is int and n >= 0 for n in counts.values()):
        raise DataError(f"malformed profile JSON: counts must be non-negative integers, "
                        f"got {raw['counts']}")
    if raw.get("total", profile.total) != profile.total:
        raise DataError(
            f"profile {profile.system!r}: stored total {raw['total']} does not match "
            f"category sum {profile.total}"
        )
    return profile


def save_profile(profile: ErrorProfile, path: str | Path) -> None:
    text = json.dumps(profile_to_dict(profile), ensure_ascii=False, sort_keys=True, indent=2)
    Path(path).write_bytes((text + "\n").encode("utf-8"))


def load_profile(path: str | Path) -> ErrorProfile:
    text = _read_utf8(path)
    try:
        return profile_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid profile JSON: {exc}", source=str(path)) from exc
    except DataError as exc:
        raise ParseError(str(exc), source=str(path)) from exc
