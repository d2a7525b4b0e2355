"""Command-line interface.

One subcommand per concern so each table of a typical evaluation report
can be reproduced by a single scripted call:

* ``score``    corpus BLEU or TER/mTER/lmmTER
* ``analyze``  error profile of one system against its post-edits
* ``report``   normalized error-distribution table with delta columns
* ``compare``  approximate-randomization significance test
* ``subset``   evaluation-subset extraction by exact target match

Exit codes: 0 success, 1 broken input data, 2 usage errors.

Only BLEU and resampling use numpy, so the names taken from
:mod:`edeval.bleu` and :mod:`edeval.significance` are module attributes
imported on first access (see :func:`__getattr__`), and the commands look
them up on the module when they call them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import ReferenceSet, load_annotated, load_plain, match_eval_subset
from .errors import DataError
from .report import FORMATS, build_table, render
from .taxonomy import load_profile, profile_system, save_profile
from .ter import MatchMode, SegmentTer, corpus_ter_detailed, ter_corpus_score

SIGNIFICANCE_LEVEL = 0.05

_LAZY = {
    "corpus_bleu": "bleu",
    "corpus_stats": "bleu",
    "format_multi_bleu_line": "bleu",
    "approx_randomization": "significance",
}
_self = sys.modules[__name__]


def __getattr__(name: str):
    """Import a numpy-backed name on first access and keep it as a global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _LAZY[name], __package__), name)
    globals()[name] = value
    return value


def _load_docs(paths, annotated: bool):
    loader = load_annotated if annotated else load_plain
    return [loader(p) for p in paths]


def _ter_label(lemma: bool, n_refs: int) -> str:
    if lemma:
        return "lmmTER"
    return "mTER" if n_refs > 1 else "TER"


def _op_to_json(op) -> dict:
    return {
        "kind": op.kind.value,
        "hyp_index": op.hyp_index,
        "ref_index": op.ref_index,
        "hyp": op.hyp_token.surface if op.hyp_token else None,
        "ref": op.ref_token.surface if op.ref_token else None,
        "surface_equal": op.surface_equal,
    }


def _write_trace(path: str, results: list[SegmentTer]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for res in results:
            record = {
                "segment": res.script.segment_id,
                "edits": res.score.edits,
                "denominator": float(res.score.denominator),
                "denominator_exact": str(res.score.denominator),
                "shifts": res.script.shift_count,
                "chosen_ref": res.chosen_ref,
                "ops": [_op_to_json(op) for op in res.script.ops],
            }
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def cmd_score(args) -> int:
    if args.metric == "bleu":
        if args.lemma:
            args.parser.error("--lemma applies to --metric ter only")
        if args.trace:
            args.parser.error("--trace applies to --metric ter only")
    elif args.smooth:
        args.parser.error("--smooth applies to --metric bleu only")
    hyps, *ref_docs = _load_docs([args.hyp, *args.ref], annotated=args.lemma)
    refs = ReferenceSet(tuple(ref_docs))
    if args.metric == "bleu":
        score = _self.corpus_bleu(hyps, refs, ignore_case=args.ignore_case, smooth=args.smooth)
        print(_self.format_multi_bleu_line(score))
        return 0
    mode = MatchMode.LEMMA if args.lemma else MatchMode.SURFACE
    detailed = corpus_ter_detailed(hyps, refs, mode, ignore_case=args.ignore_case)
    score = ter_corpus_score([(r.score.edits, r.score.denominator) for r in detailed])
    if args.trace:
        _write_trace(args.trace, detailed)
    label = _ter_label(args.lemma, len(args.ref))
    print(
        f"{label} = {100.0 * score.score:.2f} "
        f"(score={score.score!r}, edits={score.edits}, denom={score.denominator}, "
        f"segs={len(hyps)})"
    )
    return 0


def cmd_analyze(args) -> int:
    hyps, *pe_docs = _load_docs([args.hyp, *args.pe], annotated=True)
    postedits = ReferenceSet(tuple(pe_docs))
    system = args.system if args.system else Path(args.hyp).stem
    profile = profile_system(hyps, postedits, system, ignore_case=args.ignore_case)
    save_profile(profile, args.out)
    counts = ", ".join(f"{cat.value}={n}" for cat, n in profile.counts.items())
    print(f"{args.out}: system={profile.system} total={profile.total} ({counts})")
    return 0


def cmd_report(args) -> int:
    profiles = [load_profile(p) for p in args.profiles]
    names = [p.system for p in profiles]
    if args.baseline not in names:
        args.parser.error(f"baseline {args.baseline!r} not among profiles {names}")
    table = build_table(profiles, args.baseline)
    sys.stdout.write(render(table, args.format))
    return 0


def cmd_compare(args) -> int:
    if args.metric == "bleu" and args.lemma:
        args.parser.error("--lemma applies to --metric ter only")
    if args.trials < 1:
        args.parser.error("--trials must be >= 1")
    sys_a, sys_b, *ref_docs = _load_docs([args.sys_a, args.sys_b, *args.ref], annotated=args.lemma)
    refs = ReferenceSet(tuple(ref_docs))
    if args.metric == "bleu":
        def stats(doc):
            return _self.corpus_stats(doc, refs, ignore_case=args.ignore_case)
    else:
        mode = MatchMode.LEMMA if args.lemma else MatchMode.SURFACE
        def stats(doc):
            detailed = corpus_ter_detailed(doc, refs, mode, ignore_case=args.ignore_case)
            return [(r.score.edits, r.score.denominator) for r in detailed]
    result = _self.approx_randomization(
        stats(sys_a), stats(sys_b), args.metric, args.trials, args.seed
    )
    arrow = " ↑" if result.p_value < SIGNIFICANCE_LEVEL else ""
    print(f"metric = {result.metric}")
    print(f"score_a = {100.0 * result.score_a:.4f}")
    print(f"score_b = {100.0 * result.score_b:.4f}")
    print(f"diff = {100.0 * result.observed_diff:+.4f}")
    print(f"p_value = {result.p_value:.6f} (trials={result.trials}, seed={result.seed}){arrow}")
    return 0


def cmd_subset(args) -> int:
    candidate = load_plain(args.candidate)
    anchors = load_plain(args.anchors)
    pairs = match_eval_subset(candidate, anchors)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for cand_id, anchor_id in pairs:
            fh.write(f"{cand_id}\t{anchor_id}\n")
    print(f"{args.out}: {len(pairs)} matching segments")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edeval",
        description="Edit-based machine translation evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="corpus BLEU or TER/mTER/lmmTER")
    p.add_argument("--metric", choices=["bleu", "ter"], required=True)
    p.add_argument("--hyp", required=True, help="hypothesis file")
    p.add_argument("--ref", nargs="+", required=True, help="reference file(s)")
    p.add_argument("--lemma", action="store_true",
                   help="lemma-level matching; inputs must be annotated files")
    p.add_argument("--ignore-case", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="write per-segment edit scripts as JSON lines (ter only)")
    p.add_argument("--smooth", action="store_true",
                   help="add-one smoothing of n>1 precisions (bleu only)")
    p.set_defaults(func=cmd_score, parser=p)

    p = sub.add_parser("analyze", help="error profile against post-edits")
    p.add_argument("--hyp", required=True, help="annotated hypothesis file")
    p.add_argument("--pe", nargs="+", required=True, help="annotated post-edit file(s)")
    p.add_argument("--out", required=True, help="output profile JSON path")
    p.add_argument("--system", help="system name (default: hypothesis file stem)")
    p.add_argument("--ignore-case", action="store_true")
    p.set_defaults(func=cmd_analyze, parser=p)

    p = sub.add_parser("report", help="normalized error-distribution table")
    p.add_argument("--profiles", nargs="+", required=True, help="profile JSON file(s)")
    p.add_argument("--baseline", required=True, help="system name used for normalization")
    p.add_argument("--format", choices=sorted(FORMATS), default="tsv")
    p.set_defaults(func=cmd_report, parser=p)

    p = sub.add_parser("compare", help="pairwise significance test")
    p.add_argument("--metric", choices=["bleu", "ter"], required=True)
    p.add_argument("--sys-a", required=True, dest="sys_a")
    p.add_argument("--sys-b", required=True, dest="sys_b")
    p.add_argument("--ref", nargs="+", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--lemma", action="store_true")
    p.add_argument("--ignore-case", action="store_true")
    p.set_defaults(func=cmd_compare, parser=p)

    p = sub.add_parser("subset", help="evaluation-subset extraction by exact match")
    p.add_argument("--candidate", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subset, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
