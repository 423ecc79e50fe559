"""Command line behaviour: exit codes, diagnostics, trace files."""

import copy
import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

import clslr
from clslr import bundled_model
from clslr.cli import main

MODEL = bundled_model("mitochondria.clslr")
LAMBDA = bundled_model("mitochondria.lambda.clslr")
REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(clslr.__file__).resolve().parents[1])  # where clslr came from


def test_check_ok(capsys):
    assert main(["check", MODEL, "--lambda", LAMBDA]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: term=yes")
    assert "elements=5" in out


def test_check_reports_counts(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("element a : { } ;\nglobal a => a.a ;\nglobal a => eps ;\na\n")
    assert main(["check", str(p)]) == 0
    assert "globals=2 elements=1" in capsys.readouterr().out


def test_typecheck_golden_model(capsys):
    assert main(["typecheck", MODEL, "--lambda", LAMBDA]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "term: ∅"


def test_typecheck_reports_global_verdicts(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text(
        "element a : { } ;\nelement m : { o } ;\n"
        "global a => { a ^ m => a ^ m } ;\n"   # type grows: rejected
        "global a.a => a ;\n"                  # fine
        "global $T | a => $T ;\n"              # depends on the instantiation
        "a\n")
    assert main(["typecheck", str(p)]) == 1
    got = capsys.readouterr()
    assert "global 1: does not preserve types" in got.err
    assert "global 2: ok" in got.out
    assert "global 3: checked per application" in got.out


def test_typecheck_strict_needs_classification(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("loop(m)[ a ]\n")
    assert main(["typecheck", str(p)]) == 1
    assert "unclassified element" in capsys.readouterr().err


def test_typecheck_permissive_warns(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("loop(m)[ a ]\n")
    with pytest.warns(UserWarning):
        assert main(["typecheck", str(p), "--permissive-lambda"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "term: ∅"


@pytest.mark.parametrize("command", [["typecheck"], ["run", "--typed"]])
def test_permissive_warning_names_the_model_file(tmp_path, command):
    # in a child process: in-process, pytest takes the warning off stderr
    p = tmp_path / "m.clslr"
    p.write_text("loop(m)[a | { a => b }]\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = prepend(SRC, env.get("PYTHONPATH"))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "clslr.cli", *command, str(p),
         "--permissive-lambda"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == (
        f"{p}: warning: unclassified element 'm' assigned the empty type\n")


def test_typecheck_reports_a_global_that_does_not_type(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("element a : {} ; element m : {} ;\n"
                 "global loop(m)[{ ?x => ?x | ?x }] => a ;\na\n")
    assert main(["typecheck", str(p)]) == 1
    assert capsys.readouterr().err == (
        "global 1: does not type (compartment: {r} exceeds {}"
        " in loop(m)[{ ?x => ?x | ?x }])\n")


def test_typecheck_of_a_model_without_a_term(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("element a : {}\n")
    assert main(["typecheck", str(p)]) == 0
    assert capsys.readouterr().out == "term: none\n"


def test_run_text_trace(capsys):
    assert main(["run", MODEL, "--lambda", LAMBDA, "--typed",
                 "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("strategy: maximal seed=0")
    assert "round 1:" in out and "round 2:" in out
    assert "final:" in out


def test_run_json_bytes_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", MODEL, "--lambda", LAMBDA, "--typed", "--steps", "3",
            "--format", "json"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["strategy"] == "maximal"
    assert doc["steps"]


def test_run_random_k_seeded(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", MODEL, "--lambda", LAMBDA, "--strategy", "random-k",
            "--k", "2", "--seed", "7", "--steps", "2", "--format", "json"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_then_replay(tmp_path, capsys):
    tr = tmp_path / "out.trace.json"
    assert main(["run", MODEL, "--lambda", LAMBDA, "--typed", "--steps", "4",
                 "--format", "json", "--out", str(tr)]) == 0
    assert main(["replay", str(tr)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_replay_rejects_tampered_final(tmp_path, capsys):
    tr = tmp_path / "out.trace.json"
    main(["run", MODEL, "--lambda", LAMBDA, "--steps", "1",
          "--format", "json", "--out", str(tr)])
    doc = json.loads(tr.read_text())
    doc["final"] = "eps"
    tr.write_text(json.dumps(doc))
    assert main(["replay", str(tr)]) == 1
    assert "does not replay" in capsys.readouterr().err


def test_replay_rejects_initial_with_variables(tmp_path, capsys):
    tr = tmp_path / "vars.trace.json"
    tr.write_text(json.dumps(
        {"steps": [], "initial": "?x | $Y", "final": "$Y | ?x"}))
    assert main(["replay", str(tr)]) == 1
    err = capsys.readouterr().err
    assert err == f"{tr}:1:1: trace does not replay to its recorded final term\n"


def test_replay_rejects_malformed_document(tmp_path, capsys):
    tr = tmp_path / "bad.trace.json"
    tr.write_text("{\"steps\": 7}")
    assert main(["replay", str(tr)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(str(tr) + ":1:1:")
    assert "malformed trace" in err


def test_replay_rejects_schema_that_does_not_fit_its_rule(tmp_path):
    model = tmp_path / "m.clslr"
    model.write_text("a | { a => b }\n")
    tr = tmp_path / "out.trace.json"
    assert main(["run", str(model), "--format", "json", "--out", str(tr)]) == 0
    doc = json.loads(tr.read_text())
    assert [step["schema"] for step in doc["steps"]] == ["LR"]
    doc["steps"][0]["schema"] = "LR-In"
    tr.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = prepend(SRC, env.get("PYTHONPATH"))
    proc = subprocess.run(
        [sys.executable, "-m", "clslr.cli", "replay", str(tr)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"{tr}:1:1: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_parse_error_diagnostic(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("a |\nloop(m)[\n")
    assert main(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(str(p) + ":")
    assert ":3:" in err  # eof reached on line 3


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/path.clslr"]) == 1
    assert "path.clslr" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lambda", "--out"])
def test_os_error_names_the_file_that_failed(tmp_path, capsys, flag):
    model = tmp_path / "m.clslr"
    model.write_text("a\n")
    # a classification file that is missing, or an output path that is a
    # directory
    other = tmp_path / "missing.clslr" if flag == "--lambda" else tmp_path
    assert main(["run", str(model), flag, str(other)]) == 1
    reason = ("No such file or directory" if flag == "--lambda"
              else "Is a directory")
    assert capsys.readouterr().err == f"{other}: {reason}\n"


def test_lambda_file_must_hold_elements_only(tmp_path, capsys):
    lam = tmp_path / "bad.lambda.clslr"
    lam.write_text("element a : { } ;\na\n")
    assert main(["check", MODEL, "--lambda", str(lam)]) == 1
    assert "element statements only" in capsys.readouterr().err


def test_run_needs_a_term(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("element a : { } ;\n")
    assert main(["run", str(p)]) == 1
    assert "declares no term" in capsys.readouterr().err


def test_match_cap_option_must_be_integer(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("option match_cap lots ;\na\n")
    assert main(["run", str(p)]) == 1
    assert "match_cap needs an integer" in capsys.readouterr().err


def test_bad_match_cap_option_is_reported_where_it_is(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("# a model\n\noption match_cap lots ;\na | { a => b }")
    assert main(["run", str(p)]) == 1
    assert capsys.readouterr().err.startswith(
        f"{p}:3:1: option match_cap needs an integer of at least 1")


def test_match_cap_flag_trips(tmp_path, capsys):
    p = tmp_path / "m.clslr"
    p.write_text("global ~x.~y => ~x ;\na.a.a.a.a.a\n")
    assert main(["run", str(p), "--match-cap", "3"]) == 1
    assert "match" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("cap, status", [("8", 1), ("100", 0)])
def test_match_cap_option_bounds_the_run(tmp_path, capsys, cap, status):
    # a lone $X over four members tries 2^4 candidates
    p = tmp_path / "m.clslr"
    p.write_text(f"option match_cap {cap}\na | b | c | d | {{ $X => $X }}\n")
    argv = ["run", str(p), "--strategy", "random-k", "--k", "1"]
    assert main(argv) == status
    assert capsys.readouterr().err == (
        f"{p}:1:1: match exceeded the candidate cap of 8\n" if status else "")


@pytest.mark.parametrize("value", ["0", "00"])
def test_match_cap_option_must_be_positive(tmp_path, capsys, value):
    p = tmp_path / "m.clslr"
    p.write_text(f"option match_cap {value} ;\na\n")
    assert main(["run", str(p)]) == 1
    assert capsys.readouterr().err.startswith(
        f"{p}:1:1: option match_cap needs an integer of at least 1")


@pytest.mark.parametrize("flags", [["--match-cap", "0"], ["--match-cap", "-5"],
                                   ["--steps", "-2"]])
def test_run_rejects_nonsense_bounds(flags):
    usage_error(["run", MODEL, *flags])


def test_run_accepts_the_least_bounds(capsys):
    assert main(["run", MODEL, "--steps", "0", "--match-cap", "1"]) == 0
    assert "round" not in capsys.readouterr().out


def usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_usage_errors():
    usage_error([])
    usage_error(["frobnicate"])
    usage_error(["run", MODEL, "--k", "2"])
    usage_error(["run", MODEL, "--strategy", "random-k"])
    usage_error(["run", MODEL, "--strategy", "alphabetical"])
    usage_error(["typecheck", MODEL, "--strict-lambda", "--permissive-lambda"])


def test_random_k_needs_a_positive_k():
    usage_error(["run", MODEL, "--strategy", "random-k", "--k", "0"])


def assert_replay_reports_malformed(trace_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = prepend(SRC, env.get("PYTHONPATH"))
    proc = subprocess.run(
        [sys.executable, "-m", "clslr.cli", "replay", str(trace_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"{trace_path}:1:1: malformed trace document: "), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("header", [{"seed": [1]}, {"strategy": 7},
                                    {"k": 2}])
def test_replay_rejects_ill_typed_header(tmp_path, header):
    tr = tmp_path / "out.trace.json"
    assert main(["run", MODEL, "--steps", "1", "--format", "json",
                 "--out", str(tr)]) == 0
    doc = json.loads(tr.read_text())
    doc.update(header)
    tr.write_text(json.dumps(doc))
    assert_replay_reports_malformed(tr)


@pytest.mark.parametrize("field, value", [
    ("path", ["loop", 2.9, "loop"]), ("path", ["loop", "2", "loop"]),
    ("round", 1.7), ("round", "1"), ("round", True)])
def test_replay_rejects_path_steps_and_rounds_that_are_not_integers(
        tmp_path, capsys, field, value):
    tr = tmp_path / "out.trace.json"
    assert main(["run", MODEL, "--lambda", LAMBDA, "--typed", "--steps", "2",
                 "--format", "json", "--out", str(tr)]) == 0
    doc = json.loads(tr.read_text())
    step = doc["steps"][0]
    assert (step["round"], step["path"]) == (1, ["loop", 2, "loop"])
    step[field] = value  # int() would read each of these back as the original
    tr.write_text(json.dumps(doc))
    assert main(["replay", str(tr)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{tr}:1:1: malformed trace document: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("rounds", [
    [11, 12, 12, 13, 13, 13],  # shifted
    [0, 1, 1, 2, 2, 2],  # from zero
    [-1, 0, 0, 1, 1, 1],  # negative
    [1, 3, 3, 4, 4, 4],  # a round skipped
    [1, 2, 2, 3, 3, 2],  # a round revisited
], ids=["shifted", "zero", "negative", "skipped", "revisited"])
def test_replay_rejects_rounds_that_do_not_count_up_from_one(
        tmp_path, capsys, rounds):
    tr = tmp_path / "out.trace.json"
    assert main(["run", MODEL, "--lambda", LAMBDA, "--typed", "--steps", "3",
                 "--format", "json", "--out", str(tr)]) == 0
    doc = json.loads(tr.read_text())
    assert [step["round"] for step in doc["steps"]] == [1, 2, 2, 3, 3, 3]
    assert main(["replay", str(tr)]) == 0
    for step, rnum in zip(doc["steps"], rounds):
        step["round"] = rnum
    tr.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(tr)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{tr}:1:1: malformed trace document: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["check", "lambda", "replay"])
def test_input_that_is_not_utf8_is_a_diagnostic(tmp_path, capsys, where):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe a\n")
    argv = {"check": ["check", str(bad)],
            "lambda": ["check", MODEL, "--lambda", str(bad)],
            "replay": ["replay", str(bad)]}[where]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{bad}:1:1: not UTF-8 text\n"


@pytest.mark.parametrize("where", ["document", "residue"])
def test_replay_rejects_deep_nesting_without_traceback(tmp_path, where):
    tr = tmp_path / "deep.trace.json"
    if where == "document":
        tr.write_text("[" * 100_000)
    else:
        assert main(["run", MODEL, "--steps", "1", "--format", "json",
                     "--out", str(tr)]) == 0
        doc = json.loads(tr.read_text())
        doc["steps"][0]["residue"] = "(" * 5_000 + "a" + ")" * 5_000
        tr.write_text(json.dumps(doc))
    assert_replay_reports_malformed(tr)


def test_nesting_too_deep_for_the_interpreter_is_a_diagnostic(tmp_path):
    model = tmp_path / "deep.clslr"
    model.write_text("loop(m)[" * 600 + "a" + "]" * 600 + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = prepend(SRC, env.get("PYTHONPATH"))
    proc = subprocess.run(
        [sys.executable, "-m", "clslr.cli", "check", str(model)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"{model}:1:1: "), proc.stderr
    assert "Traceback" not in proc.stderr


REPRO = {"seed": 0, "strategy": "maximal", "k": None,
         "initial": "a | { a => b }", "final": "b | { a => b }",
         "steps": [{"round": 1, "schema": "LR", "rule": "{ a => b }",
                    "path": [], "sigma": {}, "residue": "eps"}]}


@pytest.mark.parametrize("field, value", [
    ("schema", []), ("schema", {}), ("schema", "XX"), ("schema", 3),
    ("path", {}), ("steps", {})])
def test_replay_reads_only_known_schemas_and_arrays(
        tmp_path, capsys, field, value):
    tr = tmp_path / "out.trace.json"
    doc = copy.deepcopy(REPRO)
    tr.write_text(json.dumps(doc))
    assert main(["replay", str(tr)]) == 0
    (doc if field == "steps" else doc["steps"][0])[field] = value
    tr.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(tr)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{tr}:1:1: malformed trace document: "), err


def element_variable_trace(tmp_path) -> Path:
    """The one-step JSON trace of ``a | b | { ?x => c }``."""
    model = tmp_path / "m.clslr"
    model.write_text("a | b | { ?x => c }\n")
    tr = tmp_path / "out.trace.json"
    assert main(["run", str(model), "--steps", "1", "--format", "json",
                 "--out", str(tr)]) == 0
    return tr


def test_replay_reads_element_variable_bindings(tmp_path, capsys):
    tr = element_variable_trace(tmp_path)
    doc = json.loads(tr.read_text())
    assert [step["sigma"] for step in doc["steps"]] == [{"?x": "a"},
                                                        {"?x": "b"}]
    capsys.readouterr()
    assert main(["replay", str(tr)]) == 0
    assert capsys.readouterr().out == "ok: c | c | { ?x => c }\n"


@pytest.mark.parametrize("key, image, message", [
    ("?x", "a.b", "image of ?x must be a single element"),
    ("%x", "a", "unknown variable kind in '%x'"),
])
def test_replay_rejects_a_binding_it_cannot_read(tmp_path, capsys, key,
                                                 image, message):
    tr = element_variable_trace(tmp_path)
    doc = json.loads(tr.read_text())
    doc["steps"][0]["sigma"] = {key: image}
    tr.write_text(json.dumps(doc))
    assert main(["replay", str(tr)]) == 1
    assert capsys.readouterr().err == (
        f"{tr}:1:1: malformed trace document: {message}\n")


@functools.cache
def short_golden_doc() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tr = Path(tmp) / "out.trace.json"
        assert main(["run", MODEL, "--lambda", LAMBDA, "--typed",
                     "--steps", "2", "--format", "json",
                     "--out", str(tr)]) == 0
        return json.loads(tr.read_text())


def json_slots(doc) -> list:
    """``(container, key)`` for every value nested in ``doc``."""
    slots = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        slots.append((doc, key))
        if isinstance(value, (dict, list)):
            slots += json_slots(value)
    return slots


DROP = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(
        ["GRT", "LR", "LR-Out", "LR-In", "loop", "eps", "random-k"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300)
@given(st.data())
def test_mutated_trace_replays_or_is_a_diagnostic(data):
    original = short_golden_doc()
    texts = sorted({c[k] for c, k in json_slots(original)
                    if isinstance(c[k], str)})
    doc = copy.deepcopy(original)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = json_slots(doc)
        if not slots:
            break
        where, key = data.draw(st.sampled_from(slots))
        value = data.draw(st.just(DROP) | JSON_VALUES | st.sampled_from(texts))
        if value is DROP:
            del where[key]
        else:
            where[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        tr = Path(tmp) / "mutant.trace.json"
        tr.write_text(json.dumps(doc))
        assert main(["replay", str(tr)]) in (0, 1)


def toml_reader():
    if sys.version_info >= (3, 11):
        import tomllib
        return tomllib
    return pytest.importorskip("tomli")


def console_script(tmp_path):
    """Write the wrapper an installer makes for ``[project.scripts] clslr``.

    The entry is read from the checkout's ``pyproject.toml``, so the check
    needs no install and looks at the entry point as committed.
    """
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = toml_reader().load(f)["project"]["scripts"]
    # EntryPoint only parses "module:attr"; no installed metadata is read.
    ep = EntryPoint("clslr", scripts["clslr"], "console_scripts")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "clslr"
    script.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({ep.attr}())\n")
    script.chmod(0o755)
    return bin_dir


def assert_clslr_check_ok(env):
    proc = subprocess.run(
        ["clslr", "check", MODEL, "--lambda", LAMBDA],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: term=yes")


def prepend(path, rest):
    return path + os.pathsep + rest if rest else path


def test_console_script_installed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = prepend(SRC, env.get("PYTHONPATH"))
    env["PATH"] = prepend(str(console_script(tmp_path)), env.get("PATH"))

    proc = subprocess.run(
        [sys.executable, "-m", "clslr.cli"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert_clslr_check_ok(env)


@pytest.mark.skipif(shutil.which("clslr") is None,
                    reason="no clslr console script on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["clslr"], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert_clslr_check_ok(env=None)
