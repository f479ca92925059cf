"""Every statement of ``src/winoref`` runs from the command line, or is
allowlisted with the reason it does not and a test that runs it.

A subprocess runs a fixed matrix of ``winoref`` command lines through the
console script's entry point (every command, float32 and float64, both
refine target modes, a one-row refine, a zero-layer encoder, an
evaluation that closes a block, and some one-line errors) under a
``sys.settrace`` tracer installed before ``import winoref`` and limited to
the package's files. A simple statement in a function body
(not a compound statement's header, a docstring or a ``global``) is
reached when a line event lands anywhere in its lines, so a statement
spread over several lines counts once, whichever of its lines the
interpreter reports. The unreached statements must be those of
``reach_allowlist.json``, keyed by module, function and statement text
(whitespace collapsed), not by line number; each entry names its kind
(``KINDS``) and an existing test, as pytest's node id, that reaches it.

``python tests/test_reach.py WORK OUT`` runs the traced matrix in the
directory WORK and writes the reached lines of each module to OUT as JSON.
"""

import ast
import contextlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "winoref"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.json")
# why a statement is not reached from the command line
KINDS = {
    "input": "a bad or unusual input that the matrix does not try",
    "invariant": "a check or rule of a function's own contract that its callers in "
                 "the package never break",
    "range": "a branch for values that only the range fuzzer reaches",
    "platform": "a branch for another interpreter, platform or environment",
    "workload": "a branch that only a larger or other workload reaches",
    "bench-seam": "a seam that the benchmark harness calls",
    "test-only": "a path that only tests reach",
}
# the statements that run code; a docstring, ``global`` and ``nonlocal``
# compile to none
SIMPLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return, ast.Raise,
          ast.Pass, ast.Break, ast.Continue, ast.Delete, ast.Assert, ast.Import,
          ast.ImportFrom)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(source):
    """``(function, text, first, last)`` of each simple statement in a
    function body of ``source``: the function's dotted name within the
    module, the statement's source with its whitespace collapsed, and its
    first and last lines."""
    found, lines = [], source.split("\n")

    def text(node):
        # ast's offsets count UTF-8 bytes
        rows = [line.encode() for line in lines[node.lineno - 1:node.end_lineno]]
        rows[-1] = rows[-1][:node.end_col_offset]
        rows[0] = rows[0][node.col_offset:]
        return " ".join(b" ".join(rows).decode().split())

    def visit(node, name, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, f"{name}.{child.name}" if name else child.name,
                      not isinstance(child, ast.ClassDef))
            elif isinstance(child, SIMPLE):
                if in_function and not (isinstance(child, ast.Expr)
                                        and isinstance(child.value, ast.Constant)):
                    found.append((name, text(child), child.lineno, child.end_lineno))
            elif isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case)):
                visit(child, name, in_function)

    visit(ast.parse(source), "", False)
    return found


def keys(module, found):
    """The ``(module, function, text)`` key of each of the ``statements``
    ``found``, counted."""
    return Counter((module, name, text) for name, text, _, _ in found)


def unreached(module, source, lines):
    """The keys of the statements of ``source`` that no line of ``lines``
    falls in."""
    lines = set(lines)
    return keys(module, [s for s in statements(source)
                         if not lines.intersection(range(s[2], s[3] + 1))])


def entry(key):
    """An allowlist entry for ``key``, as one line of the allowlist file, its
    kind and test still to fill in."""
    module, function, statement = key
    return json.dumps({"module": module, "function": function, "statement": statement,
                       "kind": "?", "test": "?"}, ensure_ascii=False)


def allowlist_errors(missed, every, entries):
    """What the unreached and all statement keys, both ``Counter``s, break
    of the allowlist ``entries``: an unreached statement that no entry
    lists, an entry whose statement is reached or gone, and an entry whose
    kind is not one of ``KINDS``."""
    listed = Counter((e["module"], e["function"], e["statement"]) for e in entries)
    errors = [f"unreached, not allowlisted: {entry(key)}" for key in sorted(missed - listed)]
    errors += [f"allowlisted, but {'reached' if key in every else 'gone'}: {list(key)}"
               for key in sorted(listed - missed)]
    errors += [f"allowlisted with a kind not in KINDS: {e}" for e in entries
               if e["kind"] not in KINDS]
    return errors


def line_tracer(prefix, hits):
    """A ``sys.settrace`` function that adds ``(file, line)`` to ``hits`` for
    each line event of code in a file under ``prefix``."""
    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return tracer


def cli_matrix(work):
    """``(argv, exit status)`` of each call of the traced matrix, in order,
    over files under ``work``; the first writes the data that the others
    read."""
    w = str(work)
    (work / "run.json").write_text(json.dumps({
        "paths": {"corpus": f"{w}/corpus.jsonl", "benchmarks": [f"{w}/benchmark.jsonl"],
                  "vocab": f"{w}/vocab.json", "init_checkpoint": f"{w}/init.ckpt.json"},
        "encoder": {"layers": 2, "heads": 2, "model_dim": 8, "ff_dim": 16, "max_len": 24},
        "pretrain": {"epochs": 1, "warmup_steps": 1},
        "refine": {"epochs": 1, "disc_hidden": 8}}))
    run = ["--config", f"{w}/run.json", "--out", w]

    def beside(name, *flags):
        # the run config's flags, with a model and vocabulary of its own
        return ["--config", f"{w}/run.json", "--out", f"{w}/{name}", *flags,
                f"--paths.vocab={w}/{name}/vocab.json",
                f"--paths.init_checkpoint={w}/{name}/init.ckpt.json"]

    f32, zero = beside("f32", "--runtime.precision=float32"), beside("zero", "--encoder.layers=0")
    bench = f"{w}/benchmark.jsonl"
    score = ["--sentence", "the hammer does not fit in the box because the _ is too big .",
             "--candidate1", "new hammer", "--candidate2", "box"]
    return [
        # an odd count, so the last twin pair gives one instance; 71 instances
        # hold more distinct masked rows than evaluate's first block takes
        (["gen-data", "--out", w, "--groups", "3", "--instances", "71"], 0),
        # the README's data: 60 groups, some of them about people, whose picks
        # skip a triple that repeats a pair
        (["gen-data", "--out", f"{w}/defaults"], 0),
        (["pretrain", *run], 0),
        (["refine", *run], 0),
        (["refine", *run, "--out", f"{w}/stop-gradient",
          "--refine.target_mode=stop-gradient-current"], 0),
        (["refine", *run, "--out", f"{w}/one-row", "--refine.batch_size=1",
          "--refine.perturbations_per_sample=1"], 0),
        (["evaluate", *run, "--json", "--csv", "--checkpoint", f"{w}/init.ckpt.json",
          "--checkpoint", f"{w}/refined.ckpt.json", bench], 0),
        (["ablate", *run, "--out", f"{w}/ablate"], 0),
        (["sweep", *run, "--out", f"{w}/sweep", "--grid", "alpha=0,1"], 0),
        (["score", *run, "--checkpoint", f"{w}/refined.ckpt.json", *score], 0),
        (["pretrain", *f32, "--runtime.seed=1"], 0),
        (["refine", *f32], 0),
        (["evaluate", *f32, "--checkpoint", f"{w}/f32/refined.ckpt.json", bench], 0),
        (["score", *f32, "--checkpoint", f"{w}/f32/refined.ckpt.json", *score], 0),
        (["pretrain", *zero], 0),
        (["refine", *zero], 0),
        (["evaluate", *zero, "--checkpoint", f"{w}/zero/refined.ckpt.json", bench], 0),
        (["score", *zero, "--checkpoint", f"{w}/zero/refined.ckpt.json", *score], 0),
        # one-line errors: argparse's, a value out of range, an unknown key
        # and a bad grid axis
        (["score", "--checkpoint", "x"], 1),
        (["pretrain", *run, "--out", f"{w}/bad", "--encoder.max_len=100000000"], 1),
        (["refine", *run, "--out", f"{w}/bad", "--refine.bogus=1"], 1),
        (["sweep", *run, "--out", f"{w}/bad", "--grid", "delta=1"], 1),
    ]


def trace_matrix(work, out):
    """Run ``cli_matrix`` in ``work`` through the console script's entry
    point under ``line_tracer``, and write the reached lines of each module,
    by file name, to ``out``; a call that exits otherwise than the matrix
    says stops the run."""
    hits = set()
    sys.settrace(line_tracer(str(PACKAGE) + os.sep, hits))
    from winoref import cli
    for argv, status in cli_matrix(work):
        sys.argv = ["winoref", *argv]
        try:
            cli.entry()
        except SystemExit as done:
            if done.code != status:
                raise SystemExit(f"winoref {' '.join(argv)}: exit {done.code}, "
                                 f"not {status}") from None
    sys.settrace(None)
    lines = {}
    for path, line in hits:
        lines.setdefault(Path(path).name, []).append(line)
    Path(out).write_text(json.dumps({name: sorted(ls) for name, ls in lines.items()}))


def load_allowlist():
    return json.loads(ALLOWLIST.read_text(encoding="utf-8"))


def package_sources():
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


@pytest.fixture(scope="module")
def reached_lines(tmp_path_factory):
    """The lines of each module, by file name, that the traced matrix
    reaches, from a fresh interpreter."""
    work = tmp_path_factory.mktemp("reach")
    out = work / "lines.json"
    done = subprocess.run([sys.executable, __file__, str(work), str(out)], cwd=work,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_every_statement_runs_from_the_command_line_or_is_allowlisted(reached_lines):
    missed, every = Counter(), Counter()
    for module, source in package_sources().items():
        missed += unreached(module, source, reached_lines.get(f"{module}.py", []))
        every += keys(module, statements(source))
    assert allowlist_errors(missed, every, load_allowlist()) == []


def test_every_allowlisted_test_exists():
    named = sorted({e["test"] for e in load_allowlist()})
    files = sorted({test.split("::")[0] for test in named})
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *files], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = set(done.stdout.splitlines())
    assert [test for test in named if test not in collected] == []


TOY = '''def clamp(x):
    """A docstring, which runs no code."""
    if x < 0:
        raise ValueError(
            f"negative: {x}")
    if x > 10:
        x = 10
    return x
'''


def toy_unreached(tmp_path, *args):
    """The unreached keys of ``TOY``, as module ``toy``, after ``clamp``
    ran on each of ``args`` under ``line_tracer``."""
    path = tmp_path / "toy.py"
    path.write_text(TOY, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    hits, before = set(), sys.gettrace()
    sys.settrace(line_tracer(str(tmp_path) + os.sep, hits))
    try:
        for x in args:
            with contextlib.suppress(ValueError):
                toy.clamp(x)
    finally:
        sys.settrace(before)
    return unreached("toy", TOY, [line for _, line in hits])


RAISE = ("toy", "clamp", 'raise ValueError( f"negative: {x}")')
CLAMP = ("toy", "clamp", "x = 10")


def test_the_check_finds_an_unreached_branch(tmp_path):
    assert toy_unreached(tmp_path, 5) == Counter([RAISE, CLAMP])


def test_the_check_counts_a_multi_line_raise_once(tmp_path):
    assert [s[1:] for s in statements(TOY)] == [(RAISE[2], 4, 5), (CLAMP[2], 7, 7),
                                                 ("return x", 8, 8)]
    assert toy_unreached(tmp_path, -1, 11) == Counter()


def test_the_check_finds_a_stale_allowlist_entry(tmp_path):
    missed, every = toy_unreached(tmp_path, 5), keys("toy", statements(TOY))
    gone = ("toy", "clamp", "x = 0")
    entries = [{"module": m, "function": f, "statement": s, "kind": "input", "test": "t"}
               for m, f, s in (RAISE, CLAMP, gone)]
    assert allowlist_errors(missed, every, entries) == [
        "allowlisted, but gone: ['toy', 'clamp', 'x = 0']"]
    entries[0]["kind"] = "untested"
    assert allowlist_errors(missed, every, entries[:2]) == [
        f"allowlisted with a kind not in KINDS: {entries[0]}"]


def test_the_check_finds_a_reached_allowlist_entry(tmp_path):
    missed, every = toy_unreached(tmp_path, 5, 11), keys("toy", statements(TOY))
    entries = [{"module": m, "function": f, "statement": s, "kind": "input", "test": "t"}
               for m, f, s in (RAISE, CLAMP)]
    assert allowlist_errors(missed, every, entries) == [
        "allowlisted, but reached: ['toy', 'clamp', 'x = 10']"]
    assert allowlist_errors(missed, every, []) == [
        f"unreached, not allowlisted: {entry(RAISE)}"]


if __name__ == "__main__":
    # the package of this checkout, before any installed one
    sys.path.insert(0, str(PACKAGE.parent))
    trace_matrix(Path(sys.argv[1]), sys.argv[2])
