import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import edeval
from edeval.cli import main
from edeval.corpus import serialize_annotated
from edeval.taxonomy import save_profile

from helpers import four_error_corpus, table4_recurrent_profiles


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def plain_files(tmp_path):
    hyp = write(tmp_path / "hyp.txt", "a b c d\np q r\n")
    ref = write(tmp_path / "ref.txt", "a c b d\np q r\n")
    return hyp, ref


# -- score ---------------------------------------------------------------------

def test_score_ter_identity(tmp_path, capsys):
    path = write(tmp_path / "same.txt", "a b c\nd e\n")
    code, out, _ = run_cli(["score", "--metric", "ter", "--hyp", path, "--ref", path], capsys)
    assert code == 0
    assert out.startswith("TER = 0.00 ")
    assert "score=0.0" in out


def test_score_ter_canonical_shift(plain_files, capsys):
    hyp, ref = plain_files
    code, out, _ = run_cli(["score", "--metric", "ter", "--hyp", hyp, "--ref", ref], capsys)
    assert code == 0
    # segment 1: 1 shift over 4 tokens; segment 2 identical: (1+0)/(4+3)
    assert "edits=1" in out and "denom=7" in out
    assert out.startswith(f"TER = {100 / 7:.2f}")


def test_score_ter_hand_summed_fixture(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "a b c x\np q r s t u\n")
    ref = write(tmp_path / "r.txt", "a b c d\np q r s o o\n")
    code, out, _ = run_cli(["score", "--metric", "ter", "--hyp", hyp, "--ref", ref], capsys)
    assert code == 0
    assert out.startswith("TER = 30.00 ")
    assert "edits=3" in out and "denom=10" in out
    # the printed full-precision score is exactly the library's corpus score
    from edeval.corpus import ReferenceSet, load_plain
    from edeval.ter import corpus_ter

    expected = corpus_ter(load_plain(hyp), ReferenceSet.of(load_plain(ref))).score
    assert f"score={expected!r}" in out


def test_score_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    code, _, err = run_cli(
        ["score", "--metric", "ter", "--hyp", missing, "--ref", missing], capsys
    )
    assert code == 1
    assert "nope.txt" in err


def test_score_mter_label_and_lemma_label(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "a b\n")
    ref1 = write(tmp_path / "r1.txt", "a b\n")
    ref2 = write(tmp_path / "r2.txt", "a c\n")
    code, out, _ = run_cli(
        ["score", "--metric", "ter", "--hyp", hyp, "--ref", ref1, ref2], capsys
    )
    assert code == 0
    assert out.startswith("mTER = 0.00")

    hyp_doc, pe_doc = four_error_corpus()
    ann_hyp = write(tmp_path / "h.ann", serialize_annotated(hyp_doc))
    ann_pe = write(tmp_path / "p.ann", serialize_annotated(pe_doc))
    code, out, _ = run_cli(
        ["score", "--metric", "ter", "--lemma", "--hyp", ann_hyp, "--ref", ann_pe], capsys
    )
    assert code == 0
    # lemma-level edits: 2 substitutions + 1 shift over 3+2+2 reference tokens
    assert out.startswith("lmmTER = ")
    assert "edits=3" in out and "denom=7" in out


def test_score_bleu_identity_and_fixture(tmp_path, capsys):
    path = write(tmp_path / "same.txt", "a b c d e\n")
    code, out, _ = run_cli(["score", "--metric", "bleu", "--hyp", path, "--ref", path], capsys)
    assert code == 0
    assert out.startswith("BLEU = 100.00, 100.0/100.0/100.0/100.0 ")

    hyp = write(tmp_path / "h.txt", "a b c d e\n")
    ref = write(tmp_path / "r.txt", "a b c d f\n")
    code, out, _ = run_cli(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref], capsys)
    assert code == 0
    assert out == (
        "BLEU = 66.87, 80.0/75.0/66.7/50.0 "
        "(BP=1.000, ratio=1.000, hyp_len=5, ref_len=5)\n"
    )


def test_score_flag_combinations_rejected(plain_files, capsys):
    hyp, ref = plain_files
    code, _, _ = run_cli(
        ["score", "--metric", "bleu", "--lemma", "--hyp", hyp, "--ref", ref], capsys
    )
    assert code == 2
    code, _, _ = run_cli(
        ["score", "--metric", "ter", "--smooth", "--hyp", hyp, "--ref", ref], capsys
    )
    assert code == 2


def test_score_trace_jsonl(plain_files, tmp_path, capsys):
    hyp, ref = plain_files
    trace = str(tmp_path / "trace.jsonl")
    code, _, _ = run_cli(
        ["score", "--metric", "ter", "--hyp", hyp, "--ref", ref, "--trace", trace], capsys
    )
    assert code == 0
    lines = [json.loads(line) for line in open(trace, encoding="utf-8")]
    assert [rec["segment"] for rec in lines] == [0, 1]
    first = lines[0]
    assert first["edits"] == 1 and first["shifts"] == 1 and first["denominator"] == 4.0
    kinds = [op["kind"] for op in first["ops"]]
    assert kinds.count("shift_match") == 1
    # deterministic bytes on re-run
    before = open(trace, "rb").read()
    run_cli(["score", "--metric", "ter", "--hyp", hyp, "--ref", ref, "--trace", trace], capsys)
    assert open(trace, "rb").read() == before


# -- analyze / report ------------------------------------------------------------

def make_annotated_files(tmp_path):
    hyp_doc, pe_doc = four_error_corpus()
    hyp = write(tmp_path / "hyp.ann", serialize_annotated(hyp_doc))
    pe = write(tmp_path / "pe.ann", serialize_annotated(pe_doc))
    return hyp, pe


def test_analyze_four_error_corpus(tmp_path, capsys):
    hyp, pe = make_annotated_files(tmp_path)
    out_path = str(tmp_path / "profile.json")
    code, out, _ = run_cli(
        ["analyze", "--hyp", hyp, "--pe", pe, "--out", out_path, "--system", "eng"], capsys
    )
    assert code == 0
    profile = json.loads(open(out_path, encoding="utf-8").read())
    assert profile["system"] == "eng"
    assert profile["counts"] == {"lexical": 2, "morph": 1, "reordering": 1, "morph_reo": 0}
    assert profile["total"] == 4
    first = open(out_path, "rb").read()
    run_cli(["analyze", "--hyp", hyp, "--pe", pe, "--out", out_path, "--system", "eng"], capsys)
    assert open(out_path, "rb").read() == first


def test_score_ignore_case_flag(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "Haus am See\n")
    ref = write(tmp_path / "r.txt", "haus am see\n")
    code, out, _ = run_cli(["score", "--metric", "ter", "--hyp", hyp, "--ref", ref], capsys)
    assert code == 0 and out.startswith("TER = 66.67")
    code, out, _ = run_cli(
        ["score", "--metric", "ter", "--ignore-case", "--hyp", hyp, "--ref", ref], capsys
    )
    assert code == 0 and out.startswith("TER = 0.00")


def test_analyze_identity_corpus_total_zero(tmp_path, capsys):
    _, pe_doc = four_error_corpus()
    path = write(tmp_path / "same.ann", serialize_annotated(pe_doc))
    out_path = str(tmp_path / "profile.json")
    code, _, _ = run_cli(["analyze", "--hyp", path, "--pe", path, "--out", out_path], capsys)
    assert code == 0
    profile = json.loads(open(out_path, encoding="utf-8").read())
    assert profile["total"] == 0
    assert profile["system"] == "same"


def test_analyze_unannotated_input_fails(tmp_path, capsys):
    plain = write(tmp_path / "plain.txt", "a b c\n")
    code, _, err = run_cli(
        ["analyze", "--hyp", plain, "--pe", plain, "--out", str(tmp_path / "x.json")], capsys
    )
    assert code == 1
    assert "error:" in err


def test_report_formats_and_baseline(tmp_path, capsys):
    paths = []
    for profile in table4_recurrent_profiles():
        p = tmp_path / f"{profile.system}.json"
        save_profile(profile, p)
        paths.append(str(p))
    code, out, _ = run_cli(
        ["report", "--profiles", *paths, "--baseline", "NMT", "--format", "tsv"], capsys
    )
    assert code == 0
    total_row = [l for l in out.splitlines() if l.startswith("Total")][0]
    assert total_row.split("\t") == ["Total", "100", "90.31", "-9.69", "109.84", "+9.84"]

    code, json_out, _ = run_cli(
        ["report", "--profiles", *paths, "--baseline", "NMT", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(json_out)
    m_nmt = [s for s in doc["systems"] if s["system"] == "M-NMT"][0]
    assert m_nmt["display"]["Total"] == "90.31"
    assert m_nmt["delta_display"]["Total"] == "-9.69"

    code, _, _ = run_cli(["report", "--profiles", *paths, "--baseline", "XXX"], capsys)
    assert code == 2


@pytest.mark.parametrize("data", [
    b'{"system": "s", "counts": {"lexical": "x", "morph": 0, "reordering": 0, '
    b'"morph_reo": 0}}',
    b'{"system": "s", "counts": {"lexical": 1, "morph": 0, "reordering": 0, '
    b'"morph_reo": 0}, "total": "x"}',
    b'{"system": "s", "counts": {"lexical": 1, "morph": 0, "reordering": 0, '
    b'"morph_reo": 0}, "total": 2}',
    b'{"system": "s", "counts": {"lexical": -3, "morph": 0, "reordering": 0, '
    b'"morph_reo": 0}}',
    b'{"system": "s", "counts": {"lexical": 1}}',
    b'["s"]',
    b'{"system": "s"',
    b"\xff\xfe{}",
    b"\xef\xbb\xbf{}",
])
def test_report_broken_profile_exits_1_naming_the_file(tmp_path, capsys, data):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    code, out, err = run_cli(["report", "--profiles", str(path), "--baseline", "s"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")


# -- compare ----------------------------------------------------------------------

def test_compare_self_p_one_no_arrow(tmp_path, capsys):
    path = write(tmp_path / "sys.txt", "a b c\nd e f\n")
    ref = write(tmp_path / "ref.txt", "a b x\nd e f\n")
    code, out, _ = run_cli(
        ["compare", "--metric", "ter", "--sys-a", path, "--sys-b", path,
         "--ref", ref, "--trials", "300", "--seed", "5"], capsys
    )
    assert code == 0
    assert "p_value = 1.000000" in out
    assert "↑" not in out


def test_compare_strong_difference_marks_arrow(tmp_path, capsys):
    n = 30
    ref = write(tmp_path / "ref.txt", "".join("a b c d\n" for _ in range(n)))
    good = write(tmp_path / "good.txt", "".join("a b c d\n" for _ in range(n)))
    bad = write(tmp_path / "bad.txt", "".join("x y c d\n" for _ in range(n)))
    code, out, _ = run_cli(
        ["compare", "--metric", "ter", "--sys-a", good, "--sys-b", bad,
         "--ref", ref, "--trials", "2000", "--seed", "3"], capsys
    )
    assert code == 0
    assert "↑" in out
    assert "diff = -50.0000" in out


def test_compare_deterministic_across_runs_and_threads(tmp_path):
    ref = str(tmp_path / "ref.txt")
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    for path, token in ((ref, "r"), (a, "a"), (b, "b")):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(12):
                fh.write(f"w{i} {token}{i % 3} common tail\n")
    argv = [sys.executable, "-m", "edeval.cli", "compare", "--metric", "ter",
            "--sys-a", a, "--sys-b", b, "--ref", ref, "--trials", "4000", "--seed", "99"]
    outputs = []
    for threads in ("1", "4"):
        env = {**os.environ, "EDEVAL_THREADS": threads, "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_compare_mter_identical_across_blas_threads(tmp_path):
    rng = random.Random(4)
    vocab = [f"w{i}" for i in range(40)]
    rows = [[rng.choice(vocab) for _ in range(rng.randrange(4, 10))] for _ in range(150)]

    def noisy(words):
        return " ".join(rng.choice(vocab) if rng.random() < 0.3 else w for w in words) + "\n"

    paths = {}
    for name in ("r1", "r2", "r3", "a", "b"):
        paths[name] = write(tmp_path / f"{name}.txt", "".join(noisy(w) for w in rows))
    argv = [sys.executable, "-m", "edeval.cli", "compare", "--metric", "ter",
            "--sys-a", paths["a"], "--sys-b", paths["b"],
            "--ref", paths["r1"], paths["r2"], paths["r3"], "--trials", "20000", "--seed", "3"]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flags", [
    ["--metric", "bleu", "--lemma"],
    ["--metric", "ter", "--trials", "0"],
    ["--metric", "bleu", "--trials", "-3"],
])
def test_compare_flag_errors_exit_before_reading_files(flags, tmp_path, capsys, monkeypatch):
    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("edeval.cli.load_plain", refuse)
    monkeypatch.setattr("edeval.cli.load_annotated", refuse)
    missing = str(tmp_path / "missing.txt")
    code, _, err = run_cli(
        ["compare", *flags, "--sys-a", missing, "--sys-b", missing, "--ref", missing], capsys
    )
    assert code == 2
    assert "missing.txt" not in err


# -- subset -------------------------------------------------------------------------

def test_subset_writes_sorted_pairs(tmp_path, capsys):
    cand = write(tmp_path / "cand.txt", "c d\nzz\nc d\n")
    anchors = write(tmp_path / "anch.txt", "q\nc d\nc d\n")
    out_path = str(tmp_path / "pairs.tsv")
    code, _, _ = run_cli(
        ["subset", "--candidate", cand, "--anchors", anchors, "--out", out_path], capsys
    )
    assert code == 0
    assert open(out_path, encoding="utf-8").read() == "0\t1\n2\t1\n"


def test_subset_empty_result(tmp_path, capsys):
    cand = write(tmp_path / "cand.txt", "")
    anchors = write(tmp_path / "anch.txt", "a\n")
    out_path = str(tmp_path / "pairs.tsv")
    code, _, _ = run_cli(
        ["subset", "--candidate", cand, "--anchors", anchors, "--out", out_path], capsys
    )
    assert code == 0
    assert open(out_path, encoding="utf-8").read() == ""


# -- usage errors ---------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(["score", "--metric", "ter"], capsys)
    assert code == 2
    code, _, _ = run_cli(["score", "--metric", "nope", "--hyp", "x", "--ref", "y"], capsys)
    assert code == 2


def test_score_bleu_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs tens of milliseconds to import, and np.unique pulls it in.
    path = write(tmp_path / "one.txt", "a b c d e\n")
    code = (
        "import sys\n"
        "from edeval.cli import main\n"
        f"assert main(['score', '--metric', 'bleu', '--hyp', {path!r}, '--ref', {path!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(edeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["BLEU = 100.00, 100.0/100.0/100.0/100.0 "
                                        "(BP=1.000, ratio=1.000, hyp_len=5, ref_len=5)", "False"]


def run_fresh(args, cwd):
    """Run a new interpreter on this checkout's ``edeval`` with ``args``."""
    src = str(Path(edeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd)


def numpy_free_commands(tmp_path):
    hyp, pe = make_annotated_files(tmp_path)
    plain = write(tmp_path / "plain.txt", "a b c d\nd c b a\n")
    profiles = []
    for profile in table4_recurrent_profiles():
        save_profile(profile, tmp_path / f"{profile.system}.json")
        profiles.append(str(tmp_path / f"{profile.system}.json"))
    return {
        "score-ter": ["score", "--metric", "ter", "--hyp", plain, "--ref", plain],
        "analyze": ["analyze", "--hyp", hyp, "--pe", pe, "--out", str(tmp_path / "p.json")],
        "report": ["report", "--profiles", *profiles, "--baseline", "NMT"],
        "subset": ["subset", "--candidate", plain, "--anchors", plain,
                   "--out", str(tmp_path / "pairs.tsv")],
    }


@pytest.mark.parametrize("command", ["score-ter", "analyze", "report", "subset"])
def test_commands_without_bleu_do_not_import_numpy(command, tmp_path):
    # Only BLEU and resampling use numpy, and importing it is about half
    # of a command's start-up.
    argv = numpy_free_commands(tmp_path)[command]
    code = (
        "import sys\n"
        "from edeval.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_module_entry_point_does_not_import_numpy(tmp_path):
    argv = numpy_free_commands(tmp_path)["analyze"]
    proc = run_fresh(["-X", "importtime", "-m", "edeval.cli", *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{argv[-1]}: system=hyp total=4 ")
    # -X importtime writes one "import time: self | cumulative | module" line per import
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "edeval.ter" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def test_public_api_names_resolve():
    namespace = {}
    exec("from edeval import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(edeval.__all__)
    assert all(getattr(edeval, name) is namespace[name] for name in edeval.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        edeval.no_such_name


def test_bleu_and_significance_load_on_first_access(tmp_path):
    code = (
        "import sys\n"
        "import edeval\n"
        "print('numpy' in sys.modules)\n"
        "print(edeval.bleu.__name__, edeval.significance.bootstrap_ci.__module__)\n"
        "print(edeval.corpus_bleu is edeval.bleu.corpus_bleu)\n"
    )
    proc = run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "edeval.bleu edeval.significance", "True"]


def test_commands_call_the_functions_bound_on_the_cli_module(tmp_path, capsys, monkeypatch):
    # Tracing wraps these names on edeval.cli with setattr, so the commands
    # must look them up there when they call them.
    import edeval.cli

    calls = []

    def spy(name):
        real = getattr(edeval.cli, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(edeval.cli, name, wrapped)

    for name in ("corpus_bleu", "corpus_stats", "approx_randomization"):
        spy(name)
    path = write(tmp_path / "sys.txt", "a b c\nd e f\n")
    ref = write(tmp_path / "ref.txt", "a b x\nd e f\n")
    code, _, _ = run_cli(["score", "--metric", "bleu", "--hyp", path, "--ref", ref], capsys)
    assert code == 0 and calls == ["corpus_bleu"]
    code, _, _ = run_cli(["compare", "--metric", "bleu", "--sys-a", path, "--sys-b", path,
                          "--ref", ref, "--trials", "10"], capsys)
    assert code == 0 and calls == ["corpus_bleu", "corpus_stats", "corpus_stats",
                                   "approx_randomization"]
