"""Surface syntax: model files, single patterns, and JSON traces.

Model files hold statements, each optionally terminated by ``;``:

* ``element NAME : { letters }`` classifies an element with feature letters
* ``global P => P`` declares a rewrite rule applied from the outside
* ``option NAME [VALUE]`` carries a tool setting; VALUE is on NAME's line
* a bare term gives the model its initial state (at most one)

Terms use ``|`` for parallel composition, ``.`` for sequencing, ``eps``
for the empty sequence, ``loop(SEQ)[P]`` for a membrane with content,
``{ L => L }`` for an embedded rule, ``{ L ^ SEQ => L ^ SEQ }`` for a rule
sending material outward across a membrane, ``{ L @ SEQ => L @ SEQ }`` for
one sending material into a sibling membrane.  ``?x`` is a one-element
variable, ``~x`` a sequence variable, ``$X`` a term variable.  ``#``
starts a comment.  Membranes cannot occur inside embedded rule sides.

Rendering always emits the canonical form, so parse and render are
mutually inverse on the mark-free grammar.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate, compress, count, repeat
from operator import not_, sub
from typing import NamedTuple

from .engine import (
    SCHEMAS,
    ReductionLabel,
    Trace,
    _binding_items,
    _check_strategy,
)
from .terms import (
    Element,
    ElemVar,
    GlobalRule,
    InRule,
    LocalRule,
    Loop,
    OutRule,
    Par,
    Pattern,
    PlainRule,
    Seq,
    SeqVar,
    TermVar,
    canonical_text,
    compose,
    is_ground,
    local_rule_violations,
    min_rotation,
    normalize,
    seq_text,
    wrap,
)
from .typecheck import FEATURE_ORDER, Classification

KEYWORDS = frozenset({"loop", "eps", "global", "element", "option"})

# one alternative per token class, a token taking the blanks after it
# along; ``stray`` is any other character
_TOKEN_RE = re.compile(r"""
    (?P<word>[A-Za-z0-9_]+) [ \t\r]*
  | (?P<punct>=>|[|.()\[\]{}^@~?$:;,]) [ \t\r]*
  | (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<nl>\n)
  | (?P<stray>.)
""", re.VERBOSE)


class ModelSyntaxError(Exception):
    """A parse failure, carrying the 1-based position it was detected at."""

    def __init__(self, message: str, line: int, col: int, path: str | None = None):
        self.message = message
        self.line = line
        self.col = col
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        where = f"{self.line}:{self.col}: {self.message}"
        return f"{self.path}:{where}" if self.path else where


class IllFormedRuleError(ModelSyntaxError):
    """A rule that parses but breaks a well-formedness clause."""

    def __init__(self, clause: str, message: str, line: int, col: int,
                 path: str | None = None):
        super().__init__(message, line, col, path)
        self.clause = clause


_CLAUSE_MESSAGES = {
    "empty-lhs": "rule left side must not be eps",
    "rhs-vars": "rule right side uses variables not bound on the left",
    "membrane-vars": "rule membrane on the right uses variables not bound on the left",
}


class Token(NamedTuple):
    kind: str  # "ident", "kw", "punct", "eof"
    text: str
    line: int
    col: int


def tokenize(text: str, path: str | None = None) -> list:
    tokens = []
    line, bol = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "word":
            tok = m["word"]
            tokens.append(Token("kw" if tok in KEYWORDS else "ident", tok,
                                line, m.start() - bol + 1))
        elif kind == "punct":
            tokens.append(Token(kind, m["punct"], line, m.start() - bol + 1))
        elif kind == "nl":
            line += 1
            bol = m.end()
        elif kind == "stray":
            raise ModelSyntaxError(f"stray character {m.group()!r}", line,
                                   m.start() - bol + 1, path)
    tokens.append(Token("eof", "", line, len(text) - bol + 1))
    return tokens


class ModelFile:
    """Parsed model: initial term, global rules, element features, options."""

    def __init__(self):
        self.term: Pattern | None = None
        self.globals: tuple = ()
        self.elements: dict = {}
        self.options: dict = {}
        self.option_at: dict = {}  # option name -> (line, col) of its keyword

    def classification(self, strict: bool = True) -> Classification:
        return Classification(dict(self.elements), strict=strict)


class _Parser:
    def __init__(self, tokens: list, path: str | None = None):
        self.tokens = tokens
        self.path = path
        self.i = 0
        self.rule_depth = 0

    # -- token helpers

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        # an ident's text is never punctuation or a keyword
        return self.peek().text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {self._show(tok)}", tok)
        return self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}, found {self._show(tok)}", tok)
        return self.next()

    @staticmethod
    def _show(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ModelSyntaxError(message, tok.line, tok.col, self.path)

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected {self._show(tok)}", tok)

    # -- term grammar

    def parse_par(self) -> Pattern:
        items = [self.parse_item()]
        while self.eat("|"):
            items.append(self.parse_item())
        return items[0] if len(items) == 1 else Par(tuple(items))

    def parse_item(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "loop":
            return self.parse_loop()
        if tok.kind == "kw" and tok.text == "eps":
            return Seq(self.parse_seq_atoms())
        if self.at("{"):
            return self.parse_rule()
        if self.at("("):
            self.next()
            inner = self.parse_par()
            self.expect(")")
            return inner
        if self.at("$"):
            self.next()
            name = self.expect_ident("a term variable name")
            return TermVar(name.text)
        if tok.kind == "ident" or self.at("?") or self.at("~"):
            return Seq(self.parse_seq_atoms())
        self.fail(f"expected a term, found {self._show(tok)}", tok)

    def parse_loop(self) -> Loop:
        tok = self.expect("loop")
        if self.rule_depth:
            self.fail("membranes cannot occur inside embedded rule sides", tok)
        self.expect("(")
        membrane = self.parse_seq_atoms()
        self.expect(")")
        self.expect("[")
        content = self.parse_par()
        self.expect("]")
        return Loop(membrane, content, False)

    def parse_seq_atoms(self) -> tuple:
        atoms = [*self.parse_seq_atom()]
        while self.eat("."):
            atoms.extend(self.parse_seq_atom())
        return tuple(atoms)

    def parse_seq_atom(self) -> tuple:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "eps":
            self.next()
            return ()
        if self.eat("?"):
            name = self.expect_ident("an element variable name")
            return (ElemVar(name.text),)
        if self.eat("~"):
            name = self.expect_ident("a sequence variable name")
            return (SeqVar(name.text),)
        if tok.kind == "kw":
            self.fail(f"{tok.text!r} is a reserved word", tok)
        if tok.kind != "ident":
            self.fail(f"expected a sequence element, found {self._show(tok)}", tok)
        self.next()
        return (Element(tok.text),)

    def parse_rule(self) -> LocalRule:
        brace = self.expect("{")
        self.rule_depth += 1
        try:
            lhs = self.parse_par()
            marker = None
            lhs_mem = None
            if self.at("^") or self.at("@"):
                marker = self.next().text
                lhs_mem = self.parse_seq_atoms()
            self.expect("=>")
            rhs = self.parse_par()
            rhs_mem = None
            if marker is not None:
                tok = self.peek()
                if not self.eat(marker):
                    self.fail(f"rule right side must repeat {marker!r} and a "
                              f"membrane", tok)
                rhs_mem = self.parse_seq_atoms()
            elif self.at("^") or self.at("@"):
                self.fail("rule left side is missing its membrane", self.peek())
        finally:
            self.rule_depth -= 1
        self.expect("}")
        if marker is None:
            rule: LocalRule = PlainRule(lhs, rhs)
        elif marker == "^":
            rule = OutRule(lhs, lhs_mem, rhs, rhs_mem)
        else:
            rule = InRule(lhs, lhs_mem, rhs, rhs_mem)
        return self.well_formed(rule, brace.line, brace.col)

    def well_formed(self, rule, line: int, col: int):
        """``rule``, unless it breaks a well-formedness clause, which is
        reported at ``line:col``."""
        for clause in local_rule_violations(rule):
            raise IllFormedRuleError(clause, _CLAUSE_MESSAGES[clause],
                                     line, col, self.path)
        return rule

    # -- statements

    def parse_model(self) -> ModelFile:
        model = ModelFile()
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.at("element"):
                self.parse_element_decl(model)
            elif self.at("global"):
                self.next()
                rule = self.parse_global(tok.line, tok.col)
                model.globals = (*model.globals, rule)
                self.eat(";")
            elif self.at("option"):
                self.parse_option_decl(model)
            else:
                if model.term is not None:
                    self.fail("the model already has a term", tok)
                term = self.parse_par()
                if not is_ground(term):
                    self.fail("model terms cannot contain variables", tok)
                model.term = term
                self.eat(";")
        return model

    def parse_element_decl(self, model: ModelFile):
        self.expect("element")
        name = self.expect_ident("an element name")
        if name.text in model.elements:
            self.fail(f"duplicate classification for {name.text!r}", name)
        self.expect(":")
        self.expect("{")
        letters = set()
        if not self.at("}"):
            while True:
                tok = self.expect_ident("a feature letter")
                if tok.text not in FEATURE_ORDER or len(tok.text) != 1:
                    self.fail(f"unknown feature letter {tok.text!r}", tok)
                letters.add(tok.text)
                if not self.eat(","):
                    break
        self.expect("}")
        self.eat(";")
        model.elements[name.text] = frozenset(letters)

    def parse_global(self, line: int, col: int) -> GlobalRule:
        """``P => P``; a well-formedness defect is reported at ``line:col``."""
        lhs = self.parse_par()
        self.expect("=>")
        return self.well_formed(GlobalRule(lhs, self.parse_par()), line, col)

    def parse_option_decl(self, model: ModelFile):
        keyword = self.expect("option")
        name = self.expect_ident("an option name")
        value = ""  # a value sits on the option's own line
        tok = self.peek()
        if tok.kind == "ident" and tok.line == name.line:
            value = self.next().text
        self.eat(";")
        model.options[name.text] = value
        model.option_at[name.text] = keyword.line, keyword.col


# --------------------------------------------------------------------------
# entry points

def _parse_all(text: str, path: str | None, parse):
    """``parse`` applied to a fresh parser over ``text``, which it must use up."""
    p = _Parser(tokenize(text, path), path)
    out = parse(p)
    p.expect_eof()
    return out


def parse_model(text: str, path: str | None = None) -> ModelFile:
    return _parse_all(text, path, _Parser.parse_model)


def parse_pattern_text(text: str, path: str | None = None) -> Pattern:
    return _parse_all(text, path, _Parser.parse_par)


def parse_seq_text(text: str, path: str | None = None) -> tuple:
    return _parse_all(text, path, _Parser.parse_seq_atoms)


def parse_global_text(text: str, path: str | None = None) -> GlobalRule:
    return _parse_all(text, path, lambda p: p.parse_global(1, 1))


def parse_local_rule_text(text: str, path: str | None = None) -> LocalRule:
    return _parse_all(text, path, _Parser.parse_rule)


def render(p: Pattern) -> str:
    """Canonical surface text of a pattern."""
    return canonical_text(normalize(p))


def rule_text(rule: GlobalRule | LocalRule) -> str:
    """Canonical surface text of a global or a local rule."""
    if isinstance(rule, GlobalRule):
        return f"{render(rule.lhs)} => {render(rule.rhs)}"
    return render(rule)


def merge_elements(base: dict, extra: dict, path: str | None = None) -> dict:
    merged = dict(base)
    for name, feats in extra.items():
        if name in merged and merged[name] != feats:
            raise ModelSyntaxError(
                f"conflicting classifications for {name!r}", 1, 1, path)
        merged[name] = feats
    return merged


# --------------------------------------------------------------------------
# traces as JSON

def _sigma_to_json(label: ReductionLabel) -> dict:
    out = {}
    for var, image in label.binding:
        if isinstance(var, ElemVar):
            out[f"?{var.name}"] = seq_text((image,))
        elif isinstance(var, SeqVar):
            out[f"~{var.name}"] = seq_text(image)
        else:
            out[f"${var.name}"] = render(image)
    return out


_quote = json.encoder.encode_basestring_ascii


def trace_to_json(trace: Trace) -> str:
    """The trace as a JSON document.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``
    of the document :func:`trace_from_json` reads, but is written here with
    the C string encoder instead of through ``json``'s indenting encoder,
    which is pure Python.
    """
    steps = []
    for rnum, rnd in enumerate(trace.rounds, 1):
        for lbl in rnd:
            path = [_quote(s) if isinstance(s, str) else str(s)
                    for s in lbl.path]
            sigma = [f"{_quote(var)}: {_quote(text)}"
                     for var, text in sorted(_sigma_to_json(lbl).items())]
            steps.append(
                f'{{\n      "path": {_block(path, 8)},'
                f'\n      "residue": {_quote(render(lbl.residue))},'
                f'\n      "round": {rnum},'
                f'\n      "rule": {_quote(rule_text(lbl.rule))},'
                f'\n      "schema": {_quote(lbl.schema)},'
                f'\n      "sigma": {_block(sigma, 8, "{}")}\n    }}')
    return (f'{{\n  "final": {_quote(render(trace.final))},'
            f'\n  "initial": {_quote(render(trace.initial))},'
            f'\n  "k": {json.dumps(trace.k)},'
            f'\n  "seed": {json.dumps(trace.seed)},'
            f'\n  "steps": {_block(steps, 4)},'
            f'\n  "strategy": {_quote(trace.strategy)}\n}}\n')


def _block(items: list, indent: int, brackets: str = "[]") -> str:
    """A JSON array (or, with ``brackets`` ``"{}"``, object) of the encoded
    ``items``, one a line at ``indent`` spaces, as ``json.dumps`` indents."""
    if not items:
        return brackets
    pad = "\n" + " " * indent
    return (f"{brackets[0]}{pad}{(',' + pad).join(items)}"
            f"\n{' ' * (indent - 2)}{brackets[1]}")


_ONE_BRACKET = str.maketrans("[{]}", "(())")


def _read_term(text: str, memo: dict) -> Pattern:
    """``normalize(parse_pattern_text(text))``, read member by member.

    ``text`` is looked up in ``memo``, keyed by itself, or else cut at each
    `` | `` where the bracket depth, all three kinds counted alike, is back
    to zero; each piece is looked up in ``memo`` too, or else read as one
    item (:func:`_read_item`), and the pieces and ``text`` are entered
    there.  A text with a comment or a line break, one whose depth goes
    below zero or never comes back, and one with a piece that does not read
    as one item are parsed whole, which fails where and as a fresh parse
    does, and are not entered: as a cut of a longer text, a comment would
    run on over what follows it.
    """
    cuts = text.split(" | ")  # a text that is not a string fails here
    node = memo.get(text)
    if node is not None:
        return node
    # the depth after each cut, counted in a copy with one kind of bracket
    flat = text.translate(_ONE_BRACKET).split(" | ")
    opened = map(str.count, flat, repeat("("))
    closed = map(str.count, flat, repeat(")"))
    depths = [*accumulate(map(sub, opened, closed))]
    if not ("#" in text or "\n" in text or depths[-1] or min(depths) < 0):
        nodes, start = [], 0
        for end in compress(count(1), map(not_, depths)):
            piece = " | ".join(cuts[start:end])
            start = end
            node = memo.get(piece)
            if node is None:
                node = _read_item(piece, memo)
                if node is None:
                    break
                memo[piece] = node
            nodes.append(node)
        else:
            node = memo[text] = compose(nodes)
            return node
    return normalize(parse_pattern_text(text))


def _read_item(text: str, memo: dict):
    """``normalize`` of the one item ``text`` holds, or None when it does
    not parse as exactly one item.  A plain sequence is split (see
    :func:`_plain_atoms`).  The content of a membrane ``loop(SEQ)[TERM]``
    is read by :func:`_read_term`, so that its members are looked up in
    ``memo`` too, and ``SEQ`` through :func:`_parsed`, under the key a
    ``?x`` or ``~x`` image of the same text uses.  A local rule is also
    entered under ``(parse_local_rule_text, text)``, as a step's rule text
    is (see :func:`_parsed`); ``text``, a member, holds no comment or line
    break.
    """
    atoms = _plain_atoms(text)
    if atoms:
        return Seq(atoms)  # a sequence of elements is its own normal form
    try:
        if text.startswith("loop(") and text.endswith("]"):
            seq, bracket, content = text[5:-1].partition(")[")
            if bracket:
                membrane = min_rotation(_parsed(_seq_atoms, seq, memo))
                return wrap(membrane, _read_term(content, memo), False)
        p = _Parser(tokenize(text))
        node = p.parse_item()
    except (ModelSyntaxError, RecursionError):
        return None
    if p.peek().kind != "eof":
        return None
    node = normalize(node)
    # ``({ a => b })`` is an item but not a local rule text
    if text.lstrip(" \t\r").startswith("{"):
        memo[parse_local_rule_text, text] = node
    return node


# a plain sequence: words of the tokenizer's ``word``, joined by single dots
_PLAIN_SEQ = re.compile(r"[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*")


def _plain_atoms(text: str):
    """The elements of ``text`` when it is a plain sequence and no word of
    it a keyword, which is what the parser reads it as; else None."""
    if _PLAIN_SEQ.fullmatch(text):
        words = text.split(".")
        if KEYWORDS.isdisjoint(words):
            return tuple(map(Element, words))
    return None


def _seq_atoms(text: str) -> tuple:
    """``parse_seq_text(text)``, splitting a plain sequence."""
    return _plain_atoms(text) or parse_seq_text(text)


def _parsed(parse, text, memo: dict):
    """``parse(text)``, run once per distinct text and kept in ``memo`` under
    ``(parse, text)``: nodes are interned, so a repeat gets the very node a
    fresh parse returns.  Under ``(parse_local_rule_text, text)``, a local
    rule read as a member keeps its normal form (see :func:`_read_item`),
    which is what a step makes of the rule."""
    if not isinstance(text, str):
        return parse(text)  # fails as a fresh parse does
    node = memo.get((parse, text))
    if node is None:
        node = memo[parse, text] = parse(text)
    return node


def _sigma_from_json(sigma: dict, memo: dict) -> dict:
    inst = {}
    for key, value in sigma.items():
        kind, name = key[:1], key[1:]
        if kind == "?":
            atoms = _parsed(_seq_atoms, value, memo)
            if len(atoms) != 1 or not isinstance(atoms[0], Element):
                raise ValueError(f"image of {key} must be a single element")
            inst[ElemVar(name)] = atoms[0]
        elif kind == "~":
            inst[SeqVar(name)] = _parsed(_seq_atoms, value, memo)
        elif kind == "$":
            inst[TermVar(name)] = _read_term(value, memo)
        else:
            raise ValueError(f"unknown variable kind in {key!r}")
    return inst


def trace_from_json(text: str, path: str | None = None) -> Trace:
    """Read a trace written by :func:`trace_to_json`.

    A document that is not such a trace, including one nested too deeply
    for the JSON decoder or the parser, raises a :class:`ModelSyntaxError`
    at 1:1; a text that does not parse raises where it fails.
    """
    try:
        return _trace_from_doc(json.loads(text))
    except ModelSyntaxError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            RecursionError) as err:
        raise ModelSyntaxError(f"malformed trace document: {err}", 1, 1,
                               path) from err


def _int(value, what: str) -> int:
    """``value`` if it is an integer (a bool or a float is not)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _array(value, what: str) -> list:
    """``value`` if it is a JSON array."""
    if type(value) is not list:
        raise ValueError(f"{what} must be an array")
    return value


def _trace_from_doc(doc: dict) -> Trace:
    seed = _int(doc.get("seed", 0), "seed")
    strategy = doc.get("strategy", "maximal")
    k = doc.get("k")
    _check_strategy(strategy, k)
    # every text of the trace, read once: a term text under itself and any
    # other text under ``(parse, text)`` (see :func:`_parsed`); a local
    # rule text under both, whichever field it is met in first
    memo: dict = {}
    rounds: list = []
    for step in _array(doc["steps"], "steps"):
        schema = step["schema"]
        if not isinstance(schema, str) or schema not in SCHEMAS:
            raise ValueError(f"schema must be one of {', '.join(SCHEMAS)}")
        text = step["rule"]
        if schema == "GRT":
            rule = _parsed(parse_global_text, text, memo)
        else:
            rule = normalize(_parsed(parse_local_rule_text, text, memo))
            # read as a term, the text is this rule, unless a comment hides
            # what follows it as a member (see :func:`_read_term`)
            if "#" not in text and "\n" not in text:
                memo[text] = rule
        label = ReductionLabel(
            schema=schema,
            rule=rule,
            path=tuple(s if s == "loop" else _int(s, "path step")
                       for s in _array(step["path"], "path")),
            binding=_binding_items(_sigma_from_json(step["sigma"], memo)),
            residue=_read_term(step["residue"], memo),
        )
        rnum = _int(step["round"], "round")
        if rnum == len(rounds) + 1:
            rounds.append([])
        elif rnum != len(rounds) or not rounds:
            raise ValueError(f"rounds must start at 1 and rise by at most 1"
                             f" a step, not {rnum} after {len(rounds)}")
        rounds[-1].append(label)
    return Trace(
        initial=_read_term(doc["initial"], memo),
        rounds=tuple(map(tuple, rounds)),
        final=_read_term(doc["final"], memo),
        seed=seed,
        strategy=strategy,
        k=k,
    )
