"""Answer checks for benchmark ops, written independently of the engine.

The criterion-1 stage predicates and the node count walk the term classes of
``clslr.terms`` directly; the closed-form answers of the generated
workloads are compared as canonical text in :mod:`worker`.
"""

from __future__ import annotations

from clslr.terms import Element, Frozen, InRule, Loop, OutRule, Par, PlainRule, Seq


def _members(p) -> tuple:
    if isinstance(p, Par):
        return p.parts
    if isinstance(p, Seq) and not p.items:
        return ()
    return (p,)


def _loops_named(t, name: str) -> list:
    out = []

    def walk(p):
        if isinstance(p, Loop):
            if Element(name) in p.membrane:
                out.append(p)
            walk(p.content)
        elif isinstance(p, Par):
            for m in p.parts:
                walk(m)

    walk(t)
    return out


def _has(content, name: str) -> bool:
    return Seq((Element(name),)) in _members(content)


def _in(t, loop_name: str, name: str) -> bool:
    return any(_has(lp.content, name) for lp in _loops_named(t, loop_name))


def _synth_rule_in(content) -> bool:
    return any(isinstance(m, PlainRule)
               and Seq((Element("ATP"),)) in _members(m.rhs)
               for m in _members(content))


# The pipeline of the bundled mitochondria model, in the order it unfolds.
STAGES = (
    lambda t: _in(t, "nucleus", "mRNA"),
    lambda t: _in(t, "cell", "mRNA"),
    lambda t: _in(t, "cell", "protein"),
    lambda t: _in(t, "Tom", "protein"),
    lambda t: any(_synth_rule_in(lp.content) for lp in _loops_named(t, "Tim")),
    lambda t: _in(t, "Tim", "ATP"),
    lambda t: _in(t, "Tom", "ATP") and _in(t, "Tim", "ATP"),
    lambda t: _in(t, "cell", "ATP"),
)


def stages_in_order(states: list) -> bool:
    """Stage i first holds after round i (state 0 is the initial term) and
    keeps holding up to round 8, for every one of the eight stages."""
    if len(states) <= len(STAGES):
        return False
    states = states[:len(STAGES) + 1]
    for i, pred in enumerate(STAGES, 1):
        holds = [pred(s) for s in states]
        if any(holds[:i]) or not all(holds[i:]):
            return False
    return True


def node_count(p) -> int:
    """Nodes of a term: sequences, membranes, parallel compositions, marks
    and rules, counting the sides of each rule."""
    if isinstance(p, Seq):
        return 1
    if isinstance(p, Loop):
        return 1 + node_count(p.content)
    if isinstance(p, Par):
        return 1 + sum(node_count(m) for m in p.parts)
    if isinstance(p, Frozen):
        return 1 + node_count(p.body)
    if isinstance(p, (PlainRule, OutRule, InRule)):
        return 1 + node_count(p.lhs) + node_count(p.rhs)
    return 1
