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
passed.  Node ``==`` is therefore identity and ``hash`` costs O(1).  The
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
``has_marks``, ``erase`` and ``local_rule_violations`` memoise their result
on the node itself, so a memo is freed with its node and retained memory
follows the live terms.  ``splice`` is the one builder of parallel normal
forms: ``normalize`` builds every ``Par`` with it, and it edits the members
of a normal form without sorting them again.

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


class _Interned(type):
    """Metaclass whose constructor call returns the interned node."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != cls._arity:
            bound = _signature(cls).bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        key = (cls, *args)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = super().__call__(*args)
        ref = _Ref(node, _drop)
        ref.key = key
        _INTERNED[key] = ref
        return node


@cache
def _signature(cls):
    """The field parameters of ``cls``, for binding a keyword or defaulted
    call; ``inspect`` loads only when such a call is first made."""
    from inspect import Parameter, Signature
    return Signature([Parameter(n, Parameter.POSITIONAL_OR_KEYWORD,
                                default=vars(cls).get(n, Parameter.empty))
                      for n in cls._names])


class _Node(metaclass=_Interned):
    """Base class of every interned node; :func:`_node` completes each one."""

    __slots__ = ()

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
    """Make ``cls`` an immutable node class with identity equality.

    Its fields are its annotated names, in order.  Its ``__init__`` is
    written out per class, as ``collections.namedtuple`` does, so each field
    is one ``object.__setattr__`` call and every node of the class shares
    one key layout for its instance dict.
    """
    cls._names = names = tuple(vars(cls).get("__annotations__", ()))
    cls._arity = len(names)
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    cls.__init__ = namespace["__init__"]
    return cls


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

    The four class attributes below are the unset per-node memos of
    :func:`normalize`, :func:`canonical_text`, :func:`has_marks` and
    :func:`erase`.
    """

    __slots__ = ()
    _norm = None
    _text = None
    _marks = None
    _erased = None

    def __str__(self) -> str:
        return canonical_text(self)


@_node
class Seq(Pattern):
    """A flat sequence of atoms; the empty tuple is the empty term eps."""

    items: tuple[Atom, ...]


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


class LocalRule(Pattern):
    """Base class for the three local rule shapes.

    ``_defects`` is the unset memo of :func:`local_rule_violations`.
    """

    __slots__ = ()
    _defects = None


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


EPS = Seq(())


@_node
class GlobalRule(_Node):
    """A rewrite rule ``P1 => P2`` applied at evaluation contexts of the whole term."""

    lhs: Pattern
    rhs: Pattern
    _defects = None


# --------------------------------------------------------------------------
# convenience constructors (used heavily by the tests)

def el(name: str) -> Element:
    return Element(name)


def seq(*names: str | Atom) -> Seq:
    return Seq(tuple(a if isinstance(a, (Element, ElemVar, SeqVar)) else Element(a)
                     for a in names))


def par(*parts: Pattern) -> Pattern:
    return Par(tuple(parts))


def loop(membrane: Seq | tuple[Atom, ...], content: Pattern) -> Loop:
    mem = membrane.items if isinstance(membrane, Seq) else tuple(membrane)
    return Loop(mem, content, False)


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
    if text is None:
        text = p.__dict__["_text"] = _canonical_text(p)
    return text


def _canonical_text(p: Pattern) -> str:
    if isinstance(p, Seq):
        return seq_text(p.items)
    if isinstance(p, Loop):
        bang = "!" if p.mem_frozen else ""
        return f"loop({bang}{seq_text(p.membrane)})[{canonical_text(p.content)}]"
    if isinstance(p, Par):
        return " | ".join(canonical_text(m) for m in p.parts)
    if isinstance(p, TermVar):
        return "$" + p.name
    if isinstance(p, PlainRule):
        return f"{{ {canonical_text(p.lhs)} => {canonical_text(p.rhs)} }}"
    if isinstance(p, (OutRule, InRule)):
        side = "^" if isinstance(p, OutRule) else "@"
        return (f"{{ {canonical_text(p.lhs)} {side} {seq_text(p.lhs_mem)}"
                f" => {canonical_text(p.rhs)} {side} {seq_text(p.rhs_mem)} }}")
    if isinstance(p, Frozen):
        body = canonical_text(p.body)
        return f"!({body})" if isinstance(p.body, Par) else "!" + body
    raise TypeError(f"not a pattern: {p!r}")


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
    if norm is None:
        norm = _normalize(p)
        norm.__dict__["_norm"] = _NORMAL
        if norm is not p:
            p.__dict__["_norm"] = norm
    return norm


def _normalize(p: Pattern) -> Pattern:
    if isinstance(p, Seq):
        return EPS if not p.items else p
    if isinstance(p, TermVar):
        return p
    if isinstance(p, PlainRule):
        return PlainRule(normalize(p.lhs), normalize(p.rhs))
    if isinstance(p, (OutRule, InRule)):
        return type(p)(normalize(p.lhs), p.lhs_mem, normalize(p.rhs), p.rhs_mem)
    if isinstance(p, Loop):
        content = normalize(p.content)
        mem = min_rotation(p.membrane)
        if not mem and content is EPS:
            return EPS
        return Loop(mem, content, p.mem_frozen)
    if isinstance(p, Frozen):
        body = normalize(p.body)
        if body is EPS:
            return EPS
        if isinstance(body, Frozen):
            return body
        if isinstance(body, Par):
            return splice((), (), [Frozen(m) for m in body.parts])
        return Frozen(body)
    if isinstance(p, Par):
        return splice((), (), p.parts)
    raise TypeError(f"not a pattern: {p!r}")


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
    """``normalize(Par(tuple(members[j] for j in idxs)))``, built directly.

    ``members`` must be :func:`members_of` a normalized pattern and ``idxs``
    ascending.  Such members are flat, eps-free, normal and sorted, and an
    index-ordered selection of them stays sorted, so the parallel
    composition of two or more is already its own normal form.
    """
    if not idxs:
        return EPS
    if len(idxs) == 1:
        return members[idxs[0]]
    bag = Par(tuple(members[j] for j in idxs))
    bag.__dict__["_norm"] = _NORMAL
    return bag


def splice(members: tuple[Pattern, ...], drop, add) -> Pattern:
    """The normal form of ``kept`` in parallel with ``add``, ``kept`` the
    members whose index is not in ``drop``, built without sorting them again.

    ``members`` must be :func:`members_of` a normalized pattern, so ``kept``
    is sorted by canonical text.  A single added member is put in its place
    by bisection; several are appended and sorted in with one ``sort``,
    which merges them into the sorted run in about ``len(kept)`` key
    lookups, where bisecting each would take ``log2(len(kept))`` apiece.
    """
    kept = [m for i, m in enumerate(members) if i not in drop]
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
    return not pattern_vars(p, include_rule_bodies=False)


def local_rule_violations(r: LocalRule | GlobalRule) -> tuple[str, ...]:
    """Well-formedness defects of a single rule node.

    Codes: ``empty-lhs`` (the left side is congruent to eps), ``rhs-vars``
    (the right side mentions a variable the left side does not), and
    ``membrane-vars`` (same, for the membrane sides of an in/out rule).
    """
    defects = r._defects
    if defects is None:
        defects = r.__dict__["_defects"] = _rule_violations(r)
    return defects


def _rule_violations(r: LocalRule | GlobalRule) -> tuple[str, ...]:
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
        marks = p.__dict__["_marks"] = _has_marks(p)
    return marks


def _has_marks(p: Pattern) -> bool:
    if isinstance(p, Frozen):
        return True
    if isinstance(p, Seq) or isinstance(p, TermVar):
        return False
    if isinstance(p, Loop):
        return p.mem_frozen or has_marks(p.content)
    if isinstance(p, Par):
        return any(has_marks(m) for m in p.parts)
    if isinstance(p, LocalRule):
        return has_marks(p.lhs) or has_marks(p.rhs)
    raise TypeError(f"not a pattern: {p!r}")


def erase(p: Pattern) -> Pattern:
    """Strip every frozen mark, keeping the tree otherwise intact.

    The memo is kept only when it is another node (a rule is returned as
    it is), so it makes no reference cycle: any other erased tree is built
    from the node's descendants and never holds the node itself.
    """
    if not has_marks(p):
        return p
    erased = p._erased
    if erased is None:
        erased = _erase(p)
        if erased is not p:
            p.__dict__["_erased"] = erased
    return erased


def _erase(p: Pattern) -> Pattern:
    if isinstance(p, Frozen):
        return erase(p.body)
    if isinstance(p, Loop):
        return Loop(p.membrane, erase(p.content), False)
    if isinstance(p, Par):
        return Par(tuple(erase(m) for m in p.parts))
    return p
