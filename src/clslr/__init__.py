"""A small calculus of looping sequences with embedded, locally owned rules.

Terms are multisets of sequences and membranes; rewrite rules either act
globally or live inside the term and act where they sit, including across
membranes.  The package provides the term algebra and its congruence
(:mod:`clslr.terms`), matching and substitution (:mod:`clslr.matching`), the
reduction engine with parallel steps and replayable traces
(:mod:`clslr.engine`), a membrane-feature type system
(:mod:`clslr.typecheck`) with a typed engine (:mod:`clslr.typed`), the
surface syntax (:mod:`clslr.syntax`), and a command line tool
(:mod:`clslr.cli`).
"""

from importlib import resources

from .engine import (
    ReductionLabel,
    StaleLabelError,
    StepCapError,
    Trace,
    apply_label,
    find_redexes,
    replay,
    run,
    verify_decomposition,
)
from .matching import (
    MatchCapError,
    UnboundVariableError,
    match,
    substitute,
)
from .syntax import (
    IllFormedRuleError,
    ModelFile,
    ModelSyntaxError,
    parse_model,
    parse_pattern_text,
    render,
    trace_from_json,
    trace_to_json,
)
from .terms import (
    EPS,
    Element,
    ElemVar,
    Frozen,
    GlobalRule,
    InRule,
    LocalRule,
    Loop,
    OutRule,
    Par,
    PlainRule,
    Seq,
    SeqVar,
    TermVar,
    equiv,
    erase,
    normalize,
)
from .typecheck import (
    Classification,
    SideConditionError,
    TypingError,
    UnknownElementError,
    check_global,
    features,
    infer_basis,
    pattern_type,
    render_ptype,
)
from .typed import (
    subject_reduction_check,
    typed_find_redexes,
    typed_run,
)

__version__ = "0.1.0"


def bundled_model(name: str) -> str:
    """Filesystem path of a model file shipped with the package."""
    return str(resources.files(__name__) / "models" / name)
