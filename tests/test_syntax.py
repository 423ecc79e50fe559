"""Surface syntax: tokenizer, parser diagnostics, rendering, trace JSON."""

import functools
import json
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from hypothesis import given, strategies as st

from clslr import bundled_model, syntax
from clslr.engine import replay, run, verify_decomposition
from clslr.syntax import (
    IllFormedRuleError,
    ModelSyntaxError,
    merge_elements,
    parse_global_text,
    parse_local_rule_text,
    parse_model,
    parse_pattern_text,
    parse_seq_text,
    render,
    rule_text,
    tokenize,
    trace_from_json,
    trace_to_json,
)
from clslr.terms import (
    EPS,
    Element,
    InRule,
    Loop,
    OutRule,
    Par,
    PlainRule,
    Seq,
    SeqVar,
    TermVar,
    el,
    equiv,
    normalize,
    par,
    seq,
)

from clslr.typecheck import Classification, pattern_type
from clslr.typed import typed_run

from oracles import random_model, random_pattern

P = parse_pattern_text


# --- round trips ----------------------------------------------------------

def test_parse_simple_shapes():
    assert P("eps") == EPS
    assert P("a") == seq("a")
    assert P("a.b.c") == seq("a", "b", "c")
    assert P("a | b") == normalize(par(seq("a"), seq("b")))
    assert P("loop(m)[ a ]") == normalize(Loop((el("m"),), seq("a")))
    assert P("loop(m)[ eps ]") == normalize(Loop((el("m"),), EPS))


def test_parse_variables():
    got = P("?x.~y | $T")
    assert isinstance(got, Par)
    assert any(isinstance(m, TermVar) for m in got.parts)


def test_parse_rules():
    r = P("{ a => b }")
    assert isinstance(r, PlainRule)
    o = P("{ a ^ m => b ^ m }")
    assert isinstance(o, OutRule)
    assert o.lhs_mem == (el("m"),)
    i = P("{ a @ m => b @ m }")
    assert isinstance(i, InRule)
    assert i.rhs_mem == (el("m"),)


def test_parse_nested_rule_in_rule_body():
    r = P("{ a => { b => c } }")
    assert isinstance(r, PlainRule)
    assert isinstance(r.rhs, PlainRule)


def test_whitespace_and_comments_are_ignored():
    text = """
    # leading comment
    a |   # trailing comment
      loop( m )[ b ]
    """
    assert equiv(P(text), par(seq("a"), Loop((el("m"),), seq("b"))))


def test_render_parse_inverse_hand_cases():
    cases = [
        "a.b | loop(m)[ c ] | { a => eps }",
        "loop(m.w)[ loop(v)[ a ] | b ]",
        "{ ?x.~y ^ m.~z => ?x ^ m.~z }",
        "{ a @ w => { b => c } @ w }",
        "$T | ~s.?e",
    ]
    for text in cases:
        p = normalize(P(text))
        assert normalize(P(render(p))) == p


@given(st.integers(0, 10_000))
def test_render_parse_inverse_random(n):
    rng = Random(n)
    p = normalize(random_pattern(rng, depth=2, vars_ok=True, rules_ok=True))
    assert normalize(P(render(p))) == p


def test_render_global_round_trip():
    g = parse_global_text("?x | a => ?x")
    assert parse_global_text(rule_text(g)) == g


def test_parse_seq_text():
    assert parse_seq_text("a.b") == (el("a"), el("b"))
    assert parse_seq_text("eps") == ()
    assert parse_seq_text("~x") == (SeqVar("x"),)


# --- diagnostics ----------------------------------------------------------

def err(text, parse=parse_pattern_text):
    with pytest.raises(ModelSyntaxError) as exc:
        parse(text)
    return exc.value


def test_stray_character_position():
    e = err("a | %b")
    assert "stray character" in e.message
    assert (e.line, e.col) == (1, 5)


def test_reserved_word_position():
    e = err("a.loop")
    assert "reserved word" in e.message
    assert (e.line, e.col) == (1, 3)


def test_missing_bracket():
    e = err("loop(m)[ a ")
    assert "expected" in e.message


def test_marker_mismatch_between_sides():
    e = err("{ a ^ m => a @ m }")
    assert "must repeat" in e.message


def test_membrane_missing_on_left():
    e = err("{ a => a ^ m }")
    assert "missing its membrane" in e.message


def test_loop_inside_rule_side_rejected():
    e = err("{ loop(m)[ a ] => a }")
    assert "membranes cannot occur inside embedded rule sides" in e.message
    assert e.line == 1


def test_error_str_carries_path():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("a | %", path="m.clslr")
    assert str(exc.value).startswith("m.clslr:1:")


def test_multiline_positions():
    e = err("a |\n  b..c")
    assert e.line == 2


# --- tokenizer ------------------------------------------------------------

TOKEN_PIECES = ["a", "x_1", "Z9", "loop", "eps", "loops", "=>", "|", ".", "(",
                ")", "[", "]", "{", "}", "^", "@", "~", "?", "$", ":", ";", ","]
BLANK_PIECES = [" ", "  ", "\t", "\r", "\n", "# a | %=>\t", "#"]
STRAY_PIECES = ["%", "!", "=", ">", "\u00e9", "\x0b", "'"]
PUNCT = set("|.()[]{}^@~?$:;,")


def without_comments(source):
    return [line.split("#", 1)[0] for line in source.split("\n")]


def first_stray(source):
    """``(line, col)`` of the first character no token or blank can start."""
    for row, line in enumerate(without_comments(source), 1):
        col = 0
        while col < len(line):
            c = line[col]
            if line.startswith("=>", col):
                col += 2
            elif c in " \t\r" or c in PUNCT or c == "_" or (
                    c.isascii() and c.isalnum()):
                col += 1
            else:
                return row, col + 1
    return None


def texts(pieces):
    return st.lists(st.sampled_from(pieces), max_size=40).map("".join)


@given(texts(TOKEN_PIECES + BLANK_PIECES))
def test_tokens_index_their_source(source):
    lines = source.split("\n")
    *tokens, eof = tokenize(source)
    for tok in tokens:
        line = lines[tok.line - 1]
        assert line[tok.col - 1:tok.col - 1 + len(tok.text)] == tok.text
    kept = "".join(without_comments(source))
    for blank in " \t\r":
        kept = kept.replace(blank, "")
    assert "".join(tok.text for tok in tokens) == kept
    assert (eof.kind, eof.line, eof.col) == \
        ("eof", len(lines), len(lines[-1]) + 1)


@given(texts(TOKEN_PIECES + BLANK_PIECES + STRAY_PIECES),
       st.sampled_from(STRAY_PIECES))
def test_first_stray_character_position(source, stray):
    source += stray
    where = first_stray(source)
    if where is None:  # the stray was "=" of a "=>" or sat in a comment
        tokenize(source)
        return
    with pytest.raises(ModelSyntaxError) as exc:
        tokenize(source, "m.clslr")
    line, col = where
    assert (exc.value.line, exc.value.col) == where
    assert exc.value.path == "m.clslr"
    assert exc.value.message == \
        f"stray character {source.split(chr(10))[line - 1][col - 1]!r}"


# --- ill-formed rules -----------------------------------------------------

def test_empty_lhs_clause():
    with pytest.raises(IllFormedRuleError) as exc:
        parse_local_rule_text("{ eps => a }")
    assert exc.value.clause == "empty-lhs"


def test_rhs_vars_clause():
    with pytest.raises(IllFormedRuleError) as exc:
        parse_local_rule_text("{ a => ?x }")
    assert exc.value.clause == "rhs-vars"


def test_rhs_vars_counts_nested_rule_bodies():
    with pytest.raises(IllFormedRuleError) as exc:
        parse_local_rule_text("{ a => { b => ~z } }")
    assert exc.value.clause == "rhs-vars"


def test_membrane_vars_clause():
    with pytest.raises(IllFormedRuleError) as exc:
        parse_local_rule_text("{ a @ m => a @ ~w }")
    assert exc.value.clause == "membrane-vars"


def test_global_empty_lhs():
    with pytest.raises(IllFormedRuleError) as exc:
        parse_global_text("eps => a")
    assert exc.value.clause == "empty-lhs"


def test_ill_formed_is_a_syntax_error():
    assert issubclass(IllFormedRuleError, ModelSyntaxError)


# --- model files ----------------------------------------------------------

MODEL_TEXT = """
# a tiny model
element m : { o } ;
element a : { } ;
element b : { d } ;
option match_cap 5000 ;

global a => b ;

loop(m)[ a | { a ^ m => a ^ m } ]
"""


def test_parse_model_fields():
    m = parse_model(MODEL_TEXT)
    assert m.term is not None
    assert len(m.globals) == 1
    assert m.elements["m"] == frozenset("o")
    assert m.elements["a"] == frozenset()
    assert m.options == {"match_cap": "5000"}
    classif = m.classification()
    assert classif.lookup("b") == frozenset("d")


def test_valueless_option_leaves_the_next_line_alone():
    m = parse_model("option verbose\na | b")
    assert m.options == {"verbose": ""}
    assert m.term is parse_model("a | b").term
    m = parse_model("option verbose ;\noption match_cap 5000 ;\na")
    assert m.options == {"verbose": "", "match_cap": "5000"}


def test_model_term_must_be_ground():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("a | ?x")
    assert "cannot contain variables" in exc.value.message


def test_model_single_term_only():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("a\nb")
    assert "already has a term" in exc.value.message


def test_duplicate_element_rejected():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("element a : { } ; element a : { o } ; a")
    assert "duplicate classification" in exc.value.message


def test_unknown_feature_letter():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("element a : { q } ; a")
    assert "unknown feature letter" in exc.value.message


def test_statements_in_any_order():
    m = parse_model("a\nelement a : { } ;")
    assert m.term == seq("a")
    assert "a" in m.elements


def test_merge_elements():
    base = {"a": frozenset("o")}
    merged = merge_elements(base, {"b": frozenset()})
    assert set(merged) == {"a", "b"}
    merge_elements(base, {"a": frozenset("o")})  # same value is fine
    with pytest.raises(ModelSyntaxError):
        merge_elements(base, {"a": frozenset("i")})


# --- trace JSON -----------------------------------------------------------

def trace_fixture():
    t = P("loop(m)[ { a ^ ~x => b ^ ~x } | a | a ] | { b => c }")
    return t, run(t, [parse_global_text("c | $T => $T")], steps=4)


def test_trace_json_round_trip():
    t, tr = trace_fixture()
    text = trace_to_json(tr)
    back = trace_from_json(text)
    assert back.seed == tr.seed
    assert back.strategy == tr.strategy
    assert normalize(back.initial) == normalize(tr.initial)
    assert normalize(back.final) == normalize(tr.final)
    assert len(back.rounds) == len(tr.rounds)
    for got, want in zip(back.labels, tr.labels):
        assert got.schema == want.schema
        assert got.path == want.path
        assert rule_text(got.rule) == rule_text(want.rule)
        assert got.binding == want.binding
        assert got.residue == want.residue


def test_parsed_trace_replays():
    _, tr = trace_fixture()
    back = trace_from_json(trace_to_json(tr))
    assert normalize(replay(back)) == normalize(tr.final)
    assert verify_decomposition(back)


def test_trace_json_deterministic_bytes():
    _, tr = trace_fixture()
    assert trace_to_json(tr) == trace_to_json(tr)
    assert trace_to_json(tr).endswith("\n")


def test_trace_json_rejects_garbage():
    with pytest.raises(ModelSyntaxError):
        trace_from_json("{\"steps\": 7}")


def dumped(tr) -> str:
    """``tr`` as ``json``'s indenting encoder writes the trace document."""
    doc = {
        "seed": tr.seed, "strategy": tr.strategy, "k": tr.k,
        "initial": render(tr.initial), "final": render(tr.final),
        "steps": [{"round": rnum, "schema": lbl.schema,
                   "rule": rule_text(lbl.rule), "path": list(lbl.path),
                   "sigma": syntax._sigma_to_json(lbl),
                   "residue": render(lbl.residue)}
                  for rnum, rnd in enumerate(tr.rounds, 1) for lbl in rnd],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_trace_writer_equals_json_dumps_byte_for_byte():
    no_steps = run(P("a | b"), [], steps=3)
    assert no_steps.rounds == ()
    at_root = run(P("a | { a => b }"), [])
    assert [(lbl.path, lbl.binding) for lbl in at_root.labels] == [((), ())]
    bound = run(P("a.b | c | { ?x.~y | $Z => ?x.~y | $Z }"), [])
    sigma = syntax._sigma_to_json(bound.labels[0])
    assert list(sigma) == ["?x", "~y", "$Z"]  # binding order
    drawn = run(P("a | a | b | { a => c } | { b => d }"), [],
                strategy="random-k", k=2, seed=2**64 + 7, steps=2)
    assert drawn.labels and drawn.seed > 2**64
    _, fixture = trace_fixture()
    for tr in (no_steps, at_root, bound, drawn, fixture, golden_trace(8)):
        assert trace_to_json(tr) == dumped(tr)
    text = trace_to_json(bound)
    assert text.index('"$Z"') < text.index('"?x"') < text.index('"~y"')
    assert '"path": [],' in trace_to_json(at_root)
    assert '"sigma": {}' in trace_to_json(at_root)
    assert '"steps": [],' in trace_to_json(no_steps)


def golden_trace(steps=30):
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    model.elements = merge_elements(model.elements, lam.elements)
    return typed_run(model.term, model.globals, model.classification(),
                     steps=steps)


def test_trace_from_json_inverts_trace_to_json_on_golden_run():
    tr = golden_trace()
    assert trace_from_json(trace_to_json(tr)) == tr


def test_trace_from_json_inverts_trace_to_json_on_random_models():
    for seed in range(200):
        term, globals_, entries = random_model(seed)
        classif = Classification(entries)
        for strategy, k in (("single", None), ("random-k", 2),
                            ("maximal", None)):
            tr = run(term, globals_, steps=3, strategy=strategy, seed=seed,
                     k=k)
            assert trace_from_json(trace_to_json(tr)) == tr, (seed, strategy)
        try:
            pattern_type({}, classif, term)
        except Exception:
            continue
        tr = typed_run(term, globals_, classif, steps=3)
        assert trace_from_json(trace_to_json(tr)) == tr, seed


def test_equal_trace_texts_share_one_node():
    tr = trace_from_json(trace_to_json(golden_trace()))
    by_text = {}
    for lbl in tr.labels:
        for key, node in ((("rule", rule_text(lbl.rule)), lbl.rule),
                          (("residue", render(lbl.residue)), lbl.residue)):
            assert by_text.setdefault(key, node) is node
    assert len(by_text) < len(tr.labels)


def cut(text: str) -> list:
    """``text`` cut at each `` | `` outside brackets, by a scan of its
    characters."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([{") - (ch in ")]}")
        if not depth and text.startswith(" | ", i):
            pieces.append(text[start:i])
            start = i + 3
    return pieces + [text[start:]]


def member_texts(text: str):
    """The member texts a term text cuts into and, for each membrane among
    them, the members of its content, and its membrane text as ``(SEQ,)``."""
    for piece in cut(text):
        yield piece
        if piece.startswith("loop(") and ")[" in piece:
            seq, _, content = piece[5:-1].partition(")[")
            yield (seq,)
            yield from member_texts(content)


def tokenized_texts(monkeypatch, text: str) -> Counter:
    """How often ``trace_from_json(text)`` tokenizes each text."""
    seen = Counter()
    real = syntax.tokenize

    def counting(text, path=None):
        seen[text] += 1
        return real(text, path)

    monkeypatch.setattr(syntax, "tokenize", counting)
    trace_from_json(text)
    monkeypatch.undo()
    return seen


def test_trace_reader_tokenizes_each_member_text_at_most_once(monkeypatch):
    text = trace_to_json(golden_trace())
    doc = json.loads(text)
    terms = [doc["initial"], doc["final"]]
    rules, images, membranes, members = set(), set(), set(), set()
    for step in doc["steps"]:
        rules.add(step["rule"])
        terms.append(step["residue"])
        for var, image in step["sigma"].items():
            (terms.append if var[0] == "$" else images.add)(image)
    for term in terms:
        for piece in member_texts(term):
            if isinstance(piece, tuple):
                membranes.add(piece[0])
            else:
                members.add(piece)
    seen = tokenized_texts(monkeypatch, text)
    assert members & set(seen) and rules <= set(seen)
    for tokens, n in seen.items():
        # a text that cuts is never tokenized, only its members
        assert len(cut(tokens)) == 1, tokens
        # at most once in each way it is read
        assert n <= sum(tokens in texts
                        for texts in (rules, images, membranes, members))


def test_reading_a_flat_step_tokenizes_no_more_as_it_widens(monkeypatch):
    def tokenized(n):
        term = P(" | ".join(["a"] * n + ["{ a => b }"]))
        seen = tokenized_texts(monkeypatch, trace_to_json(run(term, [])))
        return sum(len(text) * k for text, k in seen.items())

    # a tokenized residue would make this grow as n squared
    assert tokenized(320) <= tokenized(80)


def test_each_term_read_is_the_normal_form_of_its_text():
    texts = [trace_to_json(golden_trace())]
    for seed in range(100):
        term, globals_, _ = random_model(seed)
        for strategy, k in (("maximal", None), ("random-k", 2)):
            texts.append(trace_to_json(run(term, globals_, steps=3,
                                           strategy=strategy, seed=seed,
                                           k=k)))
    read = 0
    for text in texts:
        doc, tr = json.loads(text), trace_from_json(text)
        pairs = [(tr.initial, doc["initial"]), (tr.final, doc["final"])]
        for lbl, step in zip(tr.labels, doc["steps"]):
            pairs.append((lbl.residue, step["residue"]))
            binding = dict(lbl.binding)
            pairs += [(binding[TermVar(var[1:])], image)
                      for var, image in step["sigma"].items()
                      if var[0] == "$"]
        for node, term_text in pairs:
            assert node is normalize(parse_pattern_text(term_text)), term_text
        read += len(pairs)
    assert read > 1000


def test_a_text_read_whole_is_not_reused_as_a_member():
    # the comment runs to the end of the line, over the second member
    doc = {"steps": [], "initial": "a # c", "final": "a # c | a # c"}
    tr = trace_from_json(json.dumps(doc))
    assert tr.initial is tr.final is normalize(P("a"))


def test_reading_the_golden_trace_tokenizes_each_rule_text_once(monkeypatch):
    # every other text of it is a plain sequence, split at its dots, or eps
    text = trace_to_json(golden_trace())
    steps = json.loads(text)["steps"]
    rules = {step["rule"] for step in steps}
    assert len(rules) > 1 and all(step["schema"] != "GRT" for step in steps)
    seen = tokenized_texts(monkeypatch, text)
    assert {rule: seen[rule] for rule in rules} == dict.fromkeys(rules, 1)
    assert set(seen) - rules == {"eps"}


def test_a_sequence_text_met_as_an_image_and_a_membrane_is_parsed_once(
        monkeypatch):
    # ``eps`` is the step's ``~x`` image and a membrane in ``initial``
    text = trace_to_json(run(P("loop(eps)[a | { a ^ ~x => a ^ ~x }]"), [],
                             steps=1))
    assert '"~x": "eps"' in text and '"initial": "loop(eps)[' in text
    seen = Counter()
    real = syntax.parse_seq_text

    def counting(text, path=None):
        seen[text] += 1
        return real(text, path)

    monkeypatch.setattr(syntax, "parse_seq_text", counting)
    trace_from_json(text)
    assert seen == {"eps": 1}


def reads_as_fresh_parse(doc: dict, parse, text: str, get):
    """Reading ``doc`` gives ``parse(text)`` where ``get`` looks, or fails
    with the error type and text that ``parse(text)`` fails with."""
    try:
        want = parse(text)
    except ModelSyntaxError as exc:
        with pytest.raises(ModelSyntaxError) as got:
            trace_from_json(json.dumps(doc))
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert get(trace_from_json(json.dumps(doc))) == want


@pytest.mark.parametrize("field", ["residue", "initial", "~x"])
@pytest.mark.parametrize("text", ["eps", "a.eps", "loop", "a..b", ".a", "a .b",
                                  "0x", "_", "é", "a # c"])
def test_sequence_text_reads_as_a_fresh_parse(field, text):
    _, tr = trace_fixture()
    doc = json.loads(trace_to_json(tr))
    i, step = next((i, step) for i, step in enumerate(doc["steps"])
                   if "~x" in step["sigma"])
    if field == "~x":
        step["sigma"]["~x"] = text
        reads_as_fresh_parse(doc, parse_seq_text, text,
                             lambda t: t.labels[i].binding_dict()[SeqVar("x")])
    elif field == "residue":
        step["residue"] = f"b | {text}"
        reads_as_fresh_parse(doc, lambda s: normalize(P(s)), step["residue"],
                             lambda t: t.labels[i].residue)
    else:
        doc["initial"] = f"{text} | {doc['initial']}"
        reads_as_fresh_parse(doc, lambda s: normalize(P(s)), doc["initial"],
                             lambda t: t.initial)


def test_a_rule_text_with_a_comment_is_not_reused_as_a_member():
    # the comment hides the member after it, so the text is read whole
    step = {"round": 1, "schema": "LR", "rule": "{ a => b } # c", "path": [],
            "sigma": {}, "residue": "b"}
    doc = {"steps": [step], "initial": "{ a => b } # c | b", "final": "b"}
    tr = trace_from_json(json.dumps(doc))
    assert tr.initial is tr.labels[0].rule is normalize(P("{ a => b }"))


def test_a_bracketed_rule_member_is_not_reused_as_a_rule_text():
    # ``({ a => b })`` is an item, which parse_local_rule_text rejects
    text = "({ a => b })"
    steps = [{"round": 1, "schema": "LR", "rule": "{ a => b }", "path": [],
              "sigma": {}, "residue": f"b | {text}"},
             {"round": 2, "schema": "LR", "rule": text, "path": [],
              "sigma": {}, "residue": "b"}]
    doc = {"steps": steps, "initial": "a", "final": "b"}
    reads_as_fresh_parse(doc, parse_local_rule_text, text,
                         lambda t: t.labels[1].rule)
    steps[1]["rule"] = "{ a => b }"
    reads_as_fresh_parse(doc, lambda s: normalize(P(s)), steps[0]["residue"],
                         lambda t: t.labels[0].residue)


@functools.cache
def random_residues() -> tuple:
    """The residue texts of ``random_model`` runs."""
    texts = set()
    for seed in range(40):
        term, globals_, _ = random_model(seed)
        for strategy, k in (("maximal", None), ("random-k", 2)):
            doc = json.loads(trace_to_json(run(term, globals_, steps=3,
                                               strategy=strategy, seed=seed,
                                               k=k)))
            texts |= {step["residue"] for step in doc["steps"]}
    return tuple(sorted(texts))


def respaced(text: str, draw) -> str:
    """``text`` with the blanks around up to two of its ``|`` widened."""
    pieces = text.split(" | ")
    seps = [" | "] * (len(pieces) - 1)
    for _ in range(draw(st.integers(0, min(2, len(seps))))):
        seps[draw(st.integers(0, len(seps) - 1))] = draw(st.sampled_from(
            ["  |  ", "\t|\t", " |\t", "\t| ", "  | "]))
    return "".join(sum(zip(pieces, seps), ())) + pieces[-1]


@pytest.mark.parametrize("shape", ["members", "rule", "loop", "nested",
                                   "comment"])
@given(st.data())
def test_a_cut_residue_reads_as_its_whole_text(shape, data):
    draw = data.draw
    pool = random_residues()
    texts = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 3)))]
    if shape == "rule":  # a rule member whose sides hold ` | `
        texts.append(f"{{ {texts[0]} => {texts[-1]} | c }}")
    elif shape == "loop":  # a member whose membrane is not least-rotated
        texts.append(f"loop(m)[{texts[0]} | loop(n.m)[{texts[-1]}]]")
    elif shape == "nested":
        texts = [f"loop(n.m)[{' | '.join(texts)} | loop(eps)[eps]]"]
    elif shape == "comment":  # it hides the members after it on its line
        i = draw(st.integers(0, len(texts) - 1))
        texts[i] += draw(st.sampled_from([" # c", " # c\n", "\n"]))
    residue = respaced(" | ".join(texts), draw)
    if draw(st.integers(0, 3)) == 0:  # a slip of the pen
        i = draw(st.integers(0, len(residue)))
        residue = residue[:i] + draw(st.sampled_from(
            ["", "(", ")", "]", "{", "|", " | ", "loop(", "#"])) + residue[i + 1:]
    _, tr = trace_fixture()
    doc = json.loads(trace_to_json(tr))
    doc["steps"][-1]["residue"] = residue
    try:
        want = normalize(parse_pattern_text(residue))
    except ModelSyntaxError as exc:
        with pytest.raises(ModelSyntaxError) as got:
            trace_from_json(json.dumps(doc))
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert trace_from_json(json.dumps(doc)).labels[-1].residue is want


@pytest.mark.parametrize("residue", [
    "a | ? | b",  # a bad second member
    "a b | c",
    "a | b c",
    "a|b",
    "b | a # a comment",
    "a | # a comment\n b",
    "(a | b) | c",
    "loop(m)[a | b | c",
    "a ) | b",
    "(a | b",
    "a | b ]",
    "a | { eps => b } | c",  # an ill-formed rule as a member
    "a | { a => $X }",
    "a |",
    "| a",
    "",
])
def test_tampered_residue_reads_as_a_whole_text_parse(residue):
    _, tr = trace_fixture()
    doc = json.loads(trace_to_json(tr))
    doc["steps"][-1]["residue"] = residue
    try:
        want = normalize(parse_pattern_text(residue))
    except ModelSyntaxError as exc:
        with pytest.raises(ModelSyntaxError) as got:
            trace_from_json(json.dumps(doc))
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert trace_from_json(json.dumps(doc)).labels[-1].residue is want


def test_repeated_ill_formed_rule_text_raises_where_it_did():
    _, tr = trace_fixture()
    doc = json.loads(trace_to_json(tr))
    local = [s for s in doc["steps"] if s["schema"] != "GRT"]
    assert len(local) >= 2
    for step in local:
        step["rule"] = "{  eps => a }"
    with pytest.raises(IllFormedRuleError) as exc:
        trace_from_json(json.dumps(doc), path="t.json")
    want = err("{  eps => a }", parse_local_rule_text)
    assert (exc.value.clause, exc.value.line, exc.value.col, exc.value.message) \
        == (want.clause, want.line, want.col, want.message) \
        == ("empty-lhs", 1, 1, "rule left side must not be eps")


@pytest.mark.parametrize("header", [
    {"seed": [1]}, {"seed": True}, {"seed": "1"}, {"seed": 1.0},
    {"strategy": 7}, {"strategy": "alphabetical"}, {"strategy": None},
    {"strategy": "random-k"}, {"strategy": "random-k", "k": 0},
    {"strategy": "random-k", "k": True}, {"strategy": "random-k", "k": "2"},
    {"k": 2}, {"strategy": "single", "k": 1},
])
def test_trace_header_is_type_checked(header):
    _, tr = trace_fixture()
    doc = json.loads(trace_to_json(tr))
    doc.update(header)
    with pytest.raises(ModelSyntaxError) as exc:
        trace_from_json(json.dumps(doc), path="t.json")
    assert str(exc.value).startswith("t.json:1:1: malformed trace document: ")


def test_trace_header_accepts_what_run_writes():
    t, _ = trace_fixture()
    tr = run(t, [], steps=2, strategy="random-k", k=1, seed=-3)
    back = trace_from_json(trace_to_json(tr))
    assert (back.seed, back.strategy, back.k) == (-3, "random-k", 1)
    doc = json.loads(trace_to_json(tr))
    for key in ("seed", "strategy", "k"):
        del doc[key]
    back = trace_from_json(json.dumps(doc))
    assert (back.seed, back.strategy, back.k) == (0, "maximal", None)


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    json.dumps({"steps": [], "initial": "(" * 5_000 + "a" + ")" * 5_000,
                "final": "a"}),
], ids=["json-nesting", "term-nesting"])
def test_deep_trace_document_is_a_positioned_error(text):
    with pytest.raises(ModelSyntaxError) as exc:
        trace_from_json(text, path="t.json")
    assert str(exc.value).startswith("t.json:1:1: malformed trace document: ")
