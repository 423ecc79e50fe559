"""Feature classification of embedded rules and the membrane/pattern typing.

A membrane type is a set of feature letters describing what a compartment
tolerates of the rules it contains:

    d  deleting: the rule can erase matched material (lhs vars ⊃ rhs vars)
    r  replicating: some variable occurs twice on the rhs
    s  splitting: the lhs holds two different variables, so a match may be
       torn apart
    e  equality-testing: some variable occurs twice on the lhs
    o  outbound crossing
    i  inbound crossing

A pattern type is a finite list of membrane types: entry k collects the
features that rules nested under k membrane crossings may exhibit.  The
join is positionwise union and the order reads "exhibits no more than",
both with empty padding on the short side.

Judgments follow the syntax of the pattern:

    sequences type to the empty list; a plain rule joins its feature set
    onto the type of its rhs; an out rule prefixes {o} after checking its
    membrane sides; an in rule joins {i} onto the tail of its rhs type after
    checking the membrane sides; parallel composition joins; a membrane
    swallows the head of its content type when it permits it.

Variables are typed from a basis (a dict keyed by variable nodes).  A
variable with no basis entry that occurs in a membrane-side premise is
typed as an opaque marker standing for itself; the condition then holds
exactly when it holds under every instantiation, which is what makes
transport rules such as ``{ATP ^ ~x => ATP ^ ~x}`` typeable with an empty
basis.
"""

from __future__ import annotations

import warnings
from collections import Counter

from .matching import Instantiation, UnboundVariableError
from .terms import (
    Element,
    ElemVar,
    Frozen,
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
    GlobalRule,
    atom_text,
    canonical_text,
    var_occurrences,
)

FEATURE_ORDER = "drseoi"

MembraneType = frozenset
PatternType = tuple
EMPTY_TYPE: PatternType = ()
NO_FEATURES: MembraneType = frozenset()


class TypingError(Exception):
    """Base class for typing failures; carries the judgment and the subject."""

    def __init__(self, judgment: str, subject, message: str):
        self.judgment = judgment
        self.subject = subject
        super().__init__(message)


class UnknownElementError(TypingError):
    """An element had no classification entry under the strict policy."""

    def __init__(self, name: str):
        self.element = name
        super().__init__("classification", name, f"unclassified element: {name}")


class SideConditionError(TypingError):
    """A membrane-side premise failed; records what was got and needed."""

    def __init__(self, judgment: str, subject, got, needed):
        self.got = got
        self.needed = needed
        super().__init__(
            judgment, subject,
            f"{judgment}: {render_mtype(got)} exceeds {render_mtype(needed)}"
            f" in {subject}")


class Classification:
    """Element classification: a membrane type for each known element."""

    def __init__(self, entries: dict | None = None, strict: bool = True):
        self.entries = {} if entries is None else entries
        self.strict = strict

    def lookup(self, name: str) -> MembraneType:
        try:
            return self.entries[name]
        except KeyError:
            if self.strict:
                raise UnknownElementError(name) from None
            warnings.warn(f"unclassified element {name!r} assigned the empty type",
                          stacklevel=2)
            return NO_FEATURES


# --------------------------------------------------------------------------
# rule features

def features(r: LocalRule) -> MembraneType:
    """Feature letters exhibited by a local rule.

    The d/r/s/e clauses are computed over the two sides (membrane sequences
    of in/out rules excluded); crossing rules add their direction letter.
    """
    occ1 = Counter(var_occurrences(r.lhs, include_rule_bodies=False))
    occ2 = Counter(var_occurrences(r.rhs, include_rule_bodies=False))
    out: set = set()
    if set(occ1) > set(occ2):
        out.add("d")
    if any(c >= 2 for c in occ2.values()):
        out.add("r")
    if len(occ1) >= 2:
        out.add("s")
    if any(c >= 2 for c in occ1.values()):
        out.add("e")
    if isinstance(r, OutRule):
        out.add("o")
    elif isinstance(r, InRule):
        out.add("i")
    return frozenset(out)


# --------------------------------------------------------------------------
# the type lattice

def union_type(t1: PatternType, t2: PatternType) -> PatternType:
    """Positionwise union, padding the shorter list with the empty set."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    padded = t2 + (NO_FEATURES,) * (len(t1) - len(t2))
    return tuple(a | b for a, b in zip(t1, padded))


def contained(t1: PatternType, t2: PatternType) -> bool:
    """Positionwise inclusion, padding the shorter list with the empty set."""
    n = max(len(t1), len(t2))
    p1 = t1 + (NO_FEATURES,) * (n - len(t1))
    p2 = t2 + (NO_FEATURES,) * (n - len(t2))
    return all(a <= b for a, b in zip(p1, p2))


def render_mtype(phi: MembraneType) -> str:
    def key(x):
        return (0, FEATURE_ORDER.index(x)) if isinstance(x, str) else (1, atom_text(x))

    inner = ",".join(x if isinstance(x, str) else atom_text(x)
                     for x in sorted(phi, key=key))
    return "{" + inner + "}"


def render_ptype(tau: PatternType) -> str:
    if not tau:
        return "∅"
    return "::".join(render_mtype(phi) for phi in tau) + "::∅"


# --------------------------------------------------------------------------
# judgments

def membrane_type(basis, classif: Classification, sp, *,
                  free_vars_opaque: bool = False) -> MembraneType:
    """Type of a sequence: the union of its atoms' classifications.

    Variables are looked up in the basis.  With ``free_vars_opaque`` a
    missing variable contributes itself as an opaque marker (premise
    positions inside :func:`pattern_type`); otherwise it is an error.
    """
    items = sp.items if isinstance(sp, Seq) else tuple(sp)
    out: set = set()
    for a in items:
        if isinstance(a, Element):
            out |= classif.lookup(a.name)
        elif isinstance(a, (ElemVar, SeqVar)):
            if a in basis:
                out |= basis[a]
            elif free_vars_opaque:
                out.add(a)
            else:
                raise UnboundVariableError(a)
        else:
            raise TypeError(f"not an atom: {a!r}")
    return frozenset(out)


def _head_tail(tau: PatternType) -> tuple[MembraneType, PatternType]:
    # the empty list decomposes as empty head, empty tail (padding view)
    if not tau:
        return NO_FEATURES, EMPTY_TYPE
    return tau[0], tau[1:]


def pattern_type(basis, classif: Classification, p: Pattern) -> PatternType:
    """Pattern type of ``p`` under a basis and classification.

    Syntax-directed; raises :class:`SideConditionError` when a membrane
    premise fails, :class:`UnboundVariableError` for a term variable with no
    basis entry, and propagates classification errors.
    """
    if isinstance(p, Seq):
        return EMPTY_TYPE
    if isinstance(p, TermVar):
        if p in basis:
            return basis[p]
        raise UnboundVariableError(p)
    if isinstance(p, Par):
        tau = EMPTY_TYPE
        for m in p.parts:
            tau = union_type(tau, pattern_type(basis, classif, m))
        return tau
    if isinstance(p, PlainRule):
        tau = pattern_type(basis, classif, p.rhs)
        return union_type((features(p),), tau)
    if isinstance(p, OutRule):
        tau = pattern_type(basis, classif, p.rhs)
        phi1 = membrane_type(basis, classif, p.lhs_mem, free_vars_opaque=True)
        phi2 = membrane_type(basis, classif, p.rhs_mem, free_vars_opaque=True)
        if not phi1 <= phi2:
            raise SideConditionError("out-rule-membrane", canonical_text(p), phi1, phi2)
        return (frozenset({"o"}),) + tau
    if isinstance(p, InRule):
        head, tail = _head_tail(pattern_type(basis, classif, p.rhs))
        phi1 = membrane_type(basis, classif, p.lhs_mem, free_vars_opaque=True)
        phi2 = membrane_type(basis, classif, p.rhs_mem, free_vars_opaque=True)
        if not (head | phi1) <= phi2:
            raise SideConditionError("in-rule-membrane", canonical_text(p),
                                     head | phi1, phi2)
        return union_type((frozenset({"i"}),), tail)
    if isinstance(p, Loop):
        phi = membrane_type(basis, classif, p.membrane, free_vars_opaque=True)
        head, tail = _head_tail(pattern_type(basis, classif, p.content))
        if not head <= phi:
            raise SideConditionError("compartment", canonical_text(p), head, phi)
        return tail
    if isinstance(p, Frozen):
        return pattern_type(basis, classif, p.body)
    raise TypeError(f"not a pattern: {p!r}")


def check_global(basis, classif: Classification, g: GlobalRule) -> bool:
    """True when both sides type and the rhs type is contained in the lhs type."""
    tau1 = pattern_type(basis, classif, g.lhs)
    tau2 = pattern_type(basis, classif, g.rhs)
    return contained(tau2, tau1)


# --------------------------------------------------------------------------
# bases and instantiations

def infer_basis(inst: Instantiation, classif: Classification) -> dict:
    """The basis assigning every variable of ``inst`` the type of its image."""
    return {var: _image_type(var, image, classif)
            for var, image in inst.items()}


def agrees(inst: Instantiation, basis, classif: Classification) -> bool:
    """True when every basis entry is matched exactly by the image's type."""
    return all(var in inst and _image_type(var, inst[var], classif) == expected
               for var, expected in basis.items())


def _image_type(var, image, classif: Classification):
    """The type of ``image`` as the value of the variable ``var``."""
    if isinstance(var, ElemVar):
        return membrane_type({}, classif, (image,))
    if isinstance(var, SeqVar):
        return membrane_type({}, classif, image)
    if isinstance(var, TermVar):
        return pattern_type({}, classif, image)
    raise TypeError(f"not a variable: {var!r}")
