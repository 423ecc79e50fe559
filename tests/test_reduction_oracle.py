"""Single applications of the engine against the one-step reduction oracle.

For a term, the engine's reducts are ``apply_label`` of every label
``find_redexes`` discovers; the oracle builds them from the four schemas
with brute-force matching.  Both sets are compared with marks erased, at
the mark-free start of a parallel step and at every marked state the
step's maximal strategy passes through.
"""

from clslr.engine import apply_label, find_redexes
from clslr.syntax import (
    parse_global_text,
    parse_local_rule_text,
    parse_pattern_text,
)
from clslr.terms import Element, Loop, Par, erase, normalize, seq

from oracles import exhaustive_terms, one_step_reducts, random_model

# every shape of local rule, with membrane sides that differ, left sides
# that may match eps and a term variable that could take the occurrence
LOCAL_RULES = [parse_local_rule_text(text) for text in (
    "{ a => b }",
    "{ ~x => b }",
    "{ $X => a }",
    "{ a ^ m => b ^ w }",
    "{ ?x ^ m.~y => ?x.?x ^ ~y }",
    "{ a @ m => b @ w }",
    "{ $X @ ~y => a @ ~y.w }",
)]
GLOBAL_RULE_SETS = [
    [parse_global_text("a => b")],
    [parse_global_text("m | $X => $X")],
    [parse_global_text("~x.a => a.~x")],
]
M = (Element("m"),)


def compare_step(rules, term, limit: int = 6) -> int:
    """Compare both sets at ``term`` and at each state a maximal step
    reaches from it, for at most ``limit`` applications; returns how many
    states were compared."""
    mt = normalize(term)
    for n in range(1, limit + 1):
        labels = find_redexes(rules, mt)
        got = {normalize(erase(apply_label(mt, lbl))) for lbl in labels}
        want = {normalize(erase(r)) for r in one_step_reducts(rules, mt)}
        assert got == want, (str(mt), [str(r) for r in got ^ want])
        if not labels:
            break
        mt = apply_label(mt, labels[0])
    return n


def test_one_step_reducts_on_random_models():
    states = 0
    for seed in range(500):
        term, rules, _ = random_model(seed)
        states += compare_step(rules, term)
    assert states > 1500


def test_one_step_reducts_on_small_terms_with_each_rule_shape():
    base = exhaustive_terms(("a", "m"), max_leaves=3)
    states = 0
    for rule in LOCAL_RULES:
        for t in base:
            for term in (Par((t, rule)), Loop(M, Par((t, rule))),
                         Par((Loop(M, Par((t, rule))), seq("a")))):
                states += compare_step([], term, limit=3)
    for rules in GLOBAL_RULE_SETS:
        for t in base:
            states += compare_step(rules, t, limit=3)
    assert states > 4000


def test_oracle_sees_every_schema():
    # not vacuous: on this term each schema yields one reduct
    t = parse_pattern_text(
        "a | { a @ m => b @ m } | loop(m)[ c | { c ^ m => d ^ w } ] | m")
    rules = [parse_global_text("m => e")]
    assert {str(r) for r in one_step_reducts(rules, t)} == {
        "!e | a | loop(m)[c | { c ^ m => d ^ w }] | { a @ m => b @ m }",
        "loop(!m)[!b | c | { c ^ m => d ^ w }] | m | { a @ m => b @ m }",
        "!d | a | loop(!w)[{ c ^ m => d ^ w }] | m | { a @ m => b @ m }",
    }
