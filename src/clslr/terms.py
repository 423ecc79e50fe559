"""Core term syntax: sequences, looping membranes, parallel bags, embedded rules.

The grammar has three layers.  Sequence patterns are flat runs of atoms
(elements, element variables, sequence variables); associativity and the
empty-sequence unit are baked into the tuple representation.  Patterns
combine sequences with looping membranes ``loop(S)[P]``, parallel
composition, term variables and embedded local rules.  Local rules come in
three shapes: plain ``{L => L}``, outbound ``{L ^ S => L ^ S}`` and inbound
``{L @ S => L @ S}``.

Every node is hash-consed: constructing a node whose class and field values
equal those of a live node returns that node, however the arguments were
passed.  Each node class has a generated ``__new__`` whose parameters are
its fields, so Python binds positional, keyword and defaulted calls alike;
the body looks the key up and, only on a miss, makes the node, sets its
fields and enters it in the intern table itself, which is the one way a
node is built.  Node ``==`` is therefore identity and ``hash`` costs O(1).
The
intern table is a plain dict from ``(class, *field values)`` to a weak
reference to the node, so a node lives exactly as long as something outside
the table refers to it.  The reference carries its key and, when its node
dies, one shared callback deletes the entry, but only while the entry is
still that reference: a key re-interned in the meantime keeps its new
node.  ``copy``, ``deepcopy`` and ``pickle`` rebuild nodes through their
constructors and so return the interned node.

Equality of the calculus is structural congruence: ``|`` is an associative,
commutative monoid with unit eps, a membrane may be rotated freely, the
empty membrane around the empty term is the empty term, and rules are
congruent componentwise.  ``normalize`` maps every pattern to a canonical
representative (flattened, members sorted, least membrane rotation); since
that representative is interned, congruence is identity of normal forms,
which is what ``equiv`` checks.  ``normalize``, ``canonical_text``,
``has_marks``, ``is_ground`` and ``erase`` memoise their result on the node
itself, so a memo is freed with its node and retained memory follows the
live terms.  ``splice`` is the one builder of parallel normal forms:
``normalize``, ``sub_bag`` and ``compose`` build every ``Par`` with it, and
it edits the members of a normal form without sorting them again, taking
the kept ones by deleting the dropped slots from a copy.  ``wrap`` likewise
builds a membrane around normal content, and ``erase`` splices the erased
members of a normal form back in.

The rewrite engine additionally tracks which material was produced within
the current parallel step.  Such material is wrapped in ``Frozen`` marks;
membranes carry a ``mem_frozen`` flag instead, since a mark never lives
inside a sequence.  ``erase`` strips every mark.  Normalization may push a
mark through parallel composition (marking each member) but never across a
loop or rule boundary.
"""

from __future__ import annotations

import weakref
from bisect import insort
from functools import cache
from itertools import compress


# --------------------------------------------------------------------------
# interning

class _Ref(weakref.ref):
    """Weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


# (class, *field values) -> _Ref to the live node with those fields
_INTERNED: dict = {}


def _drop(ref: _Ref, table: dict = _INTERNED) -> None:
    """Callback of every ``_Ref``: forget the dead node's entry, unless the
    key was re-interned since (the table binding survives module teardown)."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Node:
    """Base class of every interned node; :func:`_node` completes each one."""

    __slots__ = ()
    _names = ()  # the fields; :func:`_node` sets them per class

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._names)


def _node(cls):
    """Make ``cls`` an immutable, interned node class with identity equality.

    Its fields are its annotated names, in order; a class attribute of the
    same name is the field's default.  Its ``__new__`` is written out per
    class, as ``collections.namedtuple`` does, so Python itself binds
    positional, keyword and defaulted calls.  The body builds the key
    ``(cls, *fields)`` and returns the live node it names; on a miss it
    makes the node, sets its fields in order (so every node of a class
    shares one key layout for its instance dict) and enters it in the
    intern table.
    """
    cls._names = names = tuple(vars(cls).get("__annotations__", ()))
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in vars(cls) else n
                       for n in names)
    namespace = {"_get": _INTERNED.get, "_table": _INTERNED, "_Ref": _Ref,
                 "_drop": _drop, "_new": object.__new__,
                 "_set": object.__setattr__, "_defaults": vars(cls)}
    exec(_new_code(params, names), namespace)
    cls.__new__ = staticmethod(namespace["__new__"])
    return cls


@cache
def _new_code(params: str, names: tuple):
    """The compiled definition of a ``__new__`` with these parameters and
    fields, which classes with the same ones share."""
    return compile(
        f"def __new__(_cls, {params}):\n"
        f"    _key = ({', '.join(('_cls', *names))},)\n"
        "    _ref = _get(_key)\n"
        "    if _ref is None or (_hit := _ref()) is None:\n"
        "        _hit = _new(_cls)\n"
        + "".join(f"        _set(_hit, {n!r}, {n})\n" for n in names) +
        "        _ref = _table[_key] = _Ref(_hit, _drop)\n"
        "        _ref.key = _key\n"
        "    return _hit\n", "<string>", "exec")


# --------------------------------------------------------------------------
# atoms

@_node
class Element(_Node):
    """A basic symbol out of the element alphabet."""

    name: str


@_node
class ElemVar(_Node):
    """Variable standing for exactly one element.  Written ``?x``."""

    name: str


@_node
class SeqVar(_Node):
    """Variable standing for a (possibly empty) sequence.  Written ``~x``."""

    name: str


Atom = Element | ElemVar | SeqVar

# elements < element variables < sequence variables, then by name
_ATOM_RANK = {Element: 0, ElemVar: 1, SeqVar: 2}


def atom_key(a: Atom) -> tuple[int, str]:
    return (_ATOM_RANK[type(a)], a.name)


def atom_text(a: Atom) -> str:
    if isinstance(a, Element):
        return a.name
    if isinstance(a, ElemVar):
        return "?" + a.name
    return "~" + a.name


# --------------------------------------------------------------------------
# patterns

class Pattern(_Node):
    """Base class for every pattern / term node.

    The five class attributes below are the unset per-node memos of
    :func:`normalize`, :func:`canonical_text`, :func:`has_marks`,
    :func:`is_ground` and :func:`erase`.  ``Seq``, ``TermVar`` and
    ``Frozen`` set ``_marks`` for the whole class instead.
    """

    __slots__ = ()
    _norm = None
    _text = None
    _marks = None
    _ground = None
    _erased = None

    def __str__(self) -> str:
        return canonical_text(self)


@_node
class Seq(Pattern):
    """A flat sequence of atoms; the empty tuple is the empty term eps."""

    items: tuple[Atom, ...]
    _marks = False


@_node
class Loop(Pattern):
    """A membrane ``loop(S)[P]``: a looping sequence wrapping a content term."""

    membrane: tuple[Atom, ...]
    content: Pattern
    mem_frozen: bool = False


@_node
class Par(Pattern):
    """Parallel composition of two or more patterns."""

    parts: tuple[Pattern, ...]


@_node
class TermVar(Pattern):
    """Variable standing for an arbitrary (possibly empty) term.  Written ``$X``."""

    name: str
    _marks = False


class LocalRule(Pattern):
    """Base class for the three local rule shapes."""

    __slots__ = ()


@_node
class PlainRule(LocalRule):
    """``{L1 => L2}``: rewrite L1 to L2 inside the compartment holding the rule."""

    lhs: Pattern
    rhs: Pattern


@_node
class OutRule(LocalRule):
    """``{L1 ^ S1 => L2 ^ S2}``: move L1 out across a membrane matching S1."""

    lhs: Pattern
    lhs_mem: tuple[Atom, ...]
    rhs: Pattern
    rhs_mem: tuple[Atom, ...]


@_node
class InRule(LocalRule):
    """``{L1 @ S1 => L2 @ S2}``: move L1 into a sibling membrane matching S1."""

    lhs: Pattern
    lhs_mem: tuple[Atom, ...]
    rhs: Pattern
    rhs_mem: tuple[Atom, ...]


@_node
class Frozen(Pattern):
    """Mark on a subtree produced during the current parallel step."""

    body: Pattern
    _marks = True


EPS = Seq(())


@_node
class GlobalRule(_Node):
    """A rewrite rule ``P1 => P2`` applied at evaluation contexts of the whole term."""

    lhs: Pattern
    rhs: Pattern


# --------------------------------------------------------------------------
# convenience constructors (used heavily by the tests)

def el(name: str) -> Element:
    return Element(name)


def seq(*names: str | Atom) -> Seq:
    return Seq(tuple(a if isinstance(a, (Element, ElemVar, SeqVar)) else Element(a)
                     for a in names))


def par(*parts: Pattern) -> Pattern:
    return Par(tuple(parts))


# --------------------------------------------------------------------------
# canonical text

def canonical_text(p: Pattern) -> str:
    """Grammar-shaped rendering of a node exactly as stored.

    On normalized patterns this is the canonical surface form; it doubles as
    the total order used to sort parallel members.  Marks render with a ``!``
    prefix, which the parser does not accept: serialized terms are mark-free.
    """
    try:
        text = p._text
    except AttributeError:
        raise TypeError(f"not a pattern: {p!r}") from None
    if text is not None:
        return text
    if isinstance(p, Seq):
        text = seq_text(p.items)
    elif isinstance(p, Loop):
        bang = "!" if p.mem_frozen else ""
        text = f"loop({bang}{seq_text(p.membrane)})[{canonical_text(p.content)}]"
    elif isinstance(p, Par):
        text = " | ".join(map(canonical_text, p.parts))
    elif isinstance(p, TermVar):
        text = "$" + p.name
    elif isinstance(p, PlainRule):
        text = f"{{ {canonical_text(p.lhs)} => {canonical_text(p.rhs)} }}"
    elif isinstance(p, (OutRule, InRule)):
        side = "^" if isinstance(p, OutRule) else "@"
        text = (f"{{ {canonical_text(p.lhs)} {side} {seq_text(p.lhs_mem)}"
                f" => {canonical_text(p.rhs)} {side} {seq_text(p.rhs_mem)} }}")
    elif isinstance(p, Frozen):
        body = canonical_text(p.body)
        text = f"!({body})" if isinstance(p.body, Par) else "!" + body
    else:
        raise TypeError(f"not a pattern: {p!r}")
    p.__dict__["_text"] = text
    return text


def seq_text(items: tuple[Atom, ...]) -> str:
    return ".".join(atom_text(a) for a in items) if items else "eps"


# --------------------------------------------------------------------------
# normalization / congruence

def min_rotation(items: tuple[Atom, ...]) -> tuple[Atom, ...]:
    """Lexicographically least rotation of a membrane sequence."""
    if len(items) < 2:
        return items
    rotations = [items[i:] + items[:i] for i in range(len(items))]
    return min(rotations, key=lambda r: tuple(atom_key(a) for a in r))


# memo of a node that is its own normal form (storing the node itself
# would make a reference cycle that only the cyclic collector frees)
_NORMAL = object()


def normalize(p: Pattern) -> Pattern:
    """Canonical representative of the congruence class of ``p``.

    Flattens parallel composition, drops eps members, sorts members by their
    canonical text, rotates membranes to the least rotation, collapses the
    empty membrane around the empty term, and pushes marks through parallel
    composition.  Idempotent: ``normalize(normalize(p)) is normalize(p)``.
    """
    try:
        norm = p._norm
    except AttributeError:
        raise TypeError(f"not a pattern: {p!r}") from None
    if norm is _NORMAL:
        return p
    if norm is not None:
        return norm
    if isinstance(p, Seq):
        norm = EPS if not p.items else p
    elif isinstance(p, TermVar):
        norm = p
    elif isinstance(p, PlainRule):
        norm = PlainRule(normalize(p.lhs), normalize(p.rhs))
    elif isinstance(p, (OutRule, InRule)):
        norm = type(p)(normalize(p.lhs), p.lhs_mem, normalize(p.rhs), p.rhs_mem)
    elif isinstance(p, Loop):
        norm = wrap(min_rotation(p.membrane), normalize(p.content),
                    p.mem_frozen)
    elif isinstance(p, Frozen):
        body = normalize(p.body)
        if body is EPS or isinstance(body, Frozen):
            norm = body
        elif isinstance(body, Par):
            norm = splice((), (), [Frozen(m) for m in body.parts])
        else:
            norm = p if body is p.body else Frozen(body)
    elif isinstance(p, Par):
        norm = splice((), (), p.parts)
    else:
        raise TypeError(f"not a pattern: {p!r}")
    norm.__dict__["_norm"] = _NORMAL
    if norm is not p:
        p.__dict__["_norm"] = norm
    return norm


def equiv(p1: Pattern, p2: Pattern) -> bool:
    """Structural congruence, decided on canonical forms."""
    return normalize(p1) == normalize(p2)


def members_of(p: Pattern) -> tuple[Pattern, ...]:
    """Parallel members of a normalized pattern (eps has none)."""
    if isinstance(p, Par):
        return p.parts
    if p is EPS:
        return ()
    return (p,)


def sub_bag(members: tuple[Pattern, ...], idxs: tuple[int, ...]) -> Pattern:
    """``normalize(Par(tuple(members[j] for j in idxs)))``, built by
    :func:`splice` with nothing dropped or added.

    ``members`` must be :func:`members_of` a normalized pattern and ``idxs``
    ascending: an index-ordered selection of sorted members stays sorted,
    so it is :func:`members_of` its own normal form, as :func:`splice`
    requires.
    """
    return splice([members[j] for j in idxs], (), ())


def splice(members: tuple[Pattern, ...], drop, add) -> Pattern:
    """The normal form of ``kept`` in parallel with ``add``, ``kept`` the
    members whose index is not in ``drop``, built without sorting them again.

    ``members`` must be :func:`members_of` a normalized pattern, so ``kept``
    is sorted by canonical text, and ``drop`` distinct indices into it.
    ``kept`` is a copy of ``members`` with the dropped slots deleted, last
    first.  A single added member is put in its place by bisection; several
    are appended and sorted in with one ``sort``, which merges them into the
    sorted run in about ``len(kept)`` key lookups, where bisecting each
    would take ``log2(len(kept))`` apiece.
    """
    kept = list(members)
    for i in sorted(drop, reverse=True):
        del kept[i]
    new = []
    for p in map(normalize, add):
        if isinstance(p, Par):
            new += p.parts
        elif p is not EPS:
            new.append(p)
    if len(new) == 1:
        insort(kept, new[0], key=canonical_text)
    elif new:
        kept += new
        kept.sort(key=canonical_text)
    if len(kept) < 2:
        return kept[0] if kept else EPS
    bag = Par(tuple(kept))
    bag.__dict__["_norm"] = _NORMAL
    return bag


def compose(parts) -> Pattern:
    """The normal form of the parallel composition of the normal ``parts``."""
    return parts[0] if len(parts) == 1 else splice((), (), parts)


def wrap(membrane: tuple[Atom, ...], content: Pattern,
         mem_frozen: bool) -> Pattern:
    """``normalize(Loop(membrane, content, mem_frozen))``, built directly:
    ``membrane`` must be its own least rotation and ``content`` normal."""
    if not membrane and content is EPS:
        return EPS
    node = Loop(membrane, content, mem_frozen)
    node.__dict__["_norm"] = _NORMAL
    return node


# --------------------------------------------------------------------------
# variables, groundness, well-formedness

def pattern_vars(p: Pattern, include_rule_bodies: bool = True) -> frozenset:
    """Set of variable nodes occurring in ``p``.

    With ``include_rule_bodies=False``, embedded local rules are opaque; this
    is the notion used for groundness.  Well-formedness uses the inclusive
    notion.
    """
    return frozenset(var_occurrences(p, include_rule_bodies))


def var_occurrences(p: Pattern, include_rule_bodies: bool = True):
    """Every occurrence of a variable node in ``p``, repeats included.

    ``include_rule_bodies`` is as for :func:`pattern_vars`.
    """
    todo = [p]
    for p in todo:  # the loop also visits the nodes appended to ``todo``
        if isinstance(p, Seq):
            yield from _seq_vars(p.items)
        elif isinstance(p, Loop):
            yield from _seq_vars(p.membrane)
            todo.append(p.content)
        elif isinstance(p, Par):
            todo.extend(p.parts)
        elif isinstance(p, TermVar):
            yield p
        elif isinstance(p, LocalRule):
            if include_rule_bodies:
                todo += (p.lhs, p.rhs)
                if not isinstance(p, PlainRule):
                    yield from _seq_vars(p.lhs_mem + p.rhs_mem)
        elif isinstance(p, Frozen):
            todo.append(p.body)
        else:
            raise TypeError(f"not a pattern: {p!r}")


def _seq_vars(items: tuple[Atom, ...]):
    return (a for a in items if isinstance(a, (ElemVar, SeqVar)))


def is_ground(p: Pattern) -> bool:
    """True when ``p`` contains variables only inside embedded rules."""
    try:
        ground = p._ground
    except AttributeError:
        raise TypeError(f"not a pattern: {p!r}") from None
    if ground is None:
        ground = p.__dict__["_ground"] = next(
            var_occurrences(p, include_rule_bodies=False), None) is None
    return ground


def local_rule_violations(r: LocalRule | GlobalRule) -> tuple[str, ...]:
    """Well-formedness defects of a single rule node.

    Codes: ``empty-lhs`` (the left side is congruent to eps), ``rhs-vars``
    (the right side mentions a variable the left side does not), and
    ``membrane-vars`` (same, for the membrane sides of an in/out rule).
    """
    out: list[str] = []
    if normalize(r.lhs) is EPS:
        out.append("empty-lhs")
    lhs_vars = pattern_vars(r.lhs)
    if isinstance(r, (OutRule, InRule)):
        lhs_vars |= pattern_vars(Seq(r.lhs_mem))
        if not pattern_vars(Seq(r.rhs_mem)) <= pattern_vars(Seq(r.lhs_mem)):
            out.append("membrane-vars")
    if not pattern_vars(r.rhs) <= lhs_vars:
        out.append("rhs-vars")
    return tuple(out)


# --------------------------------------------------------------------------
# marks

def has_marks(p: Pattern) -> bool:
    """True when the subtree carries any frozen mark (node or membrane),
    rule bodies included."""
    try:
        marks = p._marks
    except AttributeError:
        raise TypeError(f"not a pattern: {p!r}") from None
    if marks is None:
        # a Seq, a TermVar and a Frozen node answer from their class
        if isinstance(p, Loop):
            marks = p.mem_frozen or has_marks(p.content)
        elif isinstance(p, Par):
            marks = any(map(has_marks, p.parts))
        elif isinstance(p, LocalRule):
            marks = has_marks(p.lhs) or has_marks(p.rhs)
        else:
            raise TypeError(f"not a pattern: {p!r}")
        p.__dict__["_marks"] = marks
    return marks


def marked_indices(members: tuple[Pattern, ...]) -> list[int]:
    """The indices of the ``members`` that carry a mark, ascending."""
    return [*compress(range(len(members)), map(has_marks, members))]


def erase(p: Pattern) -> Pattern:
    """The normal form of ``p`` with every frozen mark stripped.

    ``p`` is normalized first, so the erasure is built by splicing: the
    unmarked members of a compartment stay in place and only its erased
    marked members are sorted back in.  Rule bodies are not erased.  The
    memo is kept on the normal form, and only when it is another node (a
    rule is returned as it is), so it makes no reference cycle: any other
    erased tree is built from the node's descendants and never holds the
    node itself.
    """
    p = normalize(p)
    if not has_marks(p):
        return p
    erased = p._erased
    if erased is None:
        if isinstance(p, Frozen):
            erased = erase(p.body)
        elif isinstance(p, Loop):
            erased = wrap(p.membrane, erase(p.content), False)
        elif isinstance(p, Par):
            marked = marked_indices(p.parts)
            erased = splice(p.parts, marked, [erase(p.parts[i]) for i in marked])
        else:
            return p
        if erased is not p:
            p.__dict__["_erased"] = erased
    return erased
