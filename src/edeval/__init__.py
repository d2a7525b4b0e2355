"""Edit-based machine translation evaluation toolkit.

Corpus BLEU, TER with block shifts against single or multiple references
(surface- or lemma-level matching), fine-grained error profiles derived
from annotated post-edits, baseline-normalized error distributions, and
resampling-based significance tests.

Only BLEU and resampling use numpy, so :mod:`edeval.bleu`,
:mod:`edeval.significance` and the names exported from them are imported
on first access (PEP 562), and TER, error profiles and reports start
without numpy.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .corpus import (
    Document,
    Manifest,
    ReferenceSet,
    Segment,
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
from .errors import AnnotationError, DataError, ParseError, ShapeError
from .taxonomy import (
    DeltaReport,
    ErrorCategory,
    ErrorProfile,
    NormalizedProfile,
    classify_edits,
    deltas,
    normalize,
    profile_system,
)
from .ter import (
    EditKind,
    EditOp,
    EditScript,
    MatchMode,
    TerScore,
    corpus_ter,
    corpus_ter_detailed,
    corpus_ter_segment_average,
    mter,
    ter_single,
)

__all__ = [
    "__version__",
    "Token",
    "Segment",
    "Document",
    "ReferenceSet",
    "Manifest",
    "parse_plain",
    "serialize_plain",
    "parse_annotated",
    "serialize_annotated",
    "load_plain",
    "load_annotated",
    "load_manifest",
    "resolve_manifest",
    "match_eval_subset",
    "MatchMode",
    "EditKind",
    "EditOp",
    "EditScript",
    "TerScore",
    "ter_single",
    "mter",
    "corpus_ter",
    "corpus_ter_detailed",
    "corpus_ter_segment_average",
    "BleuStats",
    "BleuScore",
    "segment_bleu_stats",
    "corpus_bleu",
    "ErrorCategory",
    "ErrorProfile",
    "NormalizedProfile",
    "DeltaReport",
    "classify_edits",
    "profile_system",
    "normalize",
    "deltas",
    "SignificanceResult",
    "approx_randomization",
    "bootstrap_ci",
    "DataError",
    "ParseError",
    "AnnotationError",
    "ShapeError",
]

# name -> the submodule it comes from (a submodule maps to itself)
_LAZY = {
    **dict.fromkeys(["bleu", "BleuStats", "BleuScore", "segment_bleu_stats", "corpus_bleu"],
                    "bleu"),
    **dict.fromkeys(["significance", "SignificanceResult", "approx_randomization",
                     "bootstrap_ci"], "significance"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
