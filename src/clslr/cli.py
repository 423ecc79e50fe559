"""Command line front end.

``clslr check``      parse a model (and classification) and report shape
``clslr typecheck``  type the model term and statically check global rules
``clslr run``        reduce a model and emit a trace (text or JSON)
``clslr replay``     re-execute a JSON trace and verify it

Diagnostics go to stderr as ``file:line:col: message`` and exit with 1;
usage errors exit with 2.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .engine import (
    DEFAULT_MATCH_CAP,
    STRATEGIES,
    StaleLabelError,
    StepCapError,
    Trace,
    _check_strategy,
    run as engine_run,
    verify_decomposition,
)
from .matching import MatchCapError, UnboundVariableError
from .syntax import (
    ModelFile,
    ModelSyntaxError,
    merge_elements,
    parse_model,
    render,
    rule_text,
    trace_from_json,
    trace_to_json,
)
from .typecheck import (
    TypingError,
    check_global,
    pattern_type,
    render_ptype,
)
from .typed import typed_run


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clslr",
        description="Interpreter and type checker for membrane terms with "
                    "embedded rewrite rules.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_lambda_opts(p):
        p.add_argument("--lambda", dest="lambda_path", metavar="FILE",
                       help="element classification file to merge in")
        g = p.add_mutually_exclusive_group()
        g.add_argument("--strict-lambda", dest="strict", action="store_true",
                       help="unclassified elements are an error (default)")
        g.add_argument("--permissive-lambda", dest="strict",
                       action="store_false",
                       help="unclassified elements get the empty type, "
                            "with a warning")
        p.set_defaults(strict=True)

    p = sub.add_parser("check", help="parse and validate a model file")
    p.add_argument("model")
    add_lambda_opts(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("typecheck", help="type the model term and global rules")
    p.add_argument("model")
    add_lambda_opts(p)
    p.set_defaults(func=cmd_typecheck)

    p = sub.add_parser("run", help="reduce the model and emit a trace")
    p.add_argument("model")
    add_lambda_opts(p)
    p.add_argument("--typed", action="store_true",
                   help="admit only well-typed reductions")
    p.add_argument("--strategy", choices=STRATEGIES, default="maximal")
    p.add_argument("--k", type=int, default=None,
                   help="applications per step for random-k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=1,
                   help="number of parallel steps (default 1)")
    p.add_argument("--match-cap", type=int, default=None)
    p.add_argument("--out", metavar="FILE", help="write the trace here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="re-execute a JSON trace and verify it")
    p.add_argument("trace")
    p.set_defaults(func=cmd_replay)

    return ap


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ModelSyntaxError("not UTF-8 text", 1, 1, path) from None


def _load_model(args) -> ModelFile:
    path = args.model
    model = parse_model(_read(path), path)
    lam = getattr(args, "lambda_path", None)
    if lam:
        extra = parse_model(_read(lam), lam)
        if extra.term is not None or extra.globals:
            raise ModelSyntaxError(
                "classification files hold element statements only", 1, 1, lam)
        model.elements = merge_elements(model.elements, extra.elements, lam)
    return model


def _positioned(err: Exception, path: str) -> str:
    if isinstance(err, ModelSyntaxError):
        if err.path is None:
            err.path = path
        return str(err)
    if isinstance(err, RecursionError):
        return f"{path}:1:1: term nested too deeply"
    return f"{path}:1:1: {err}"


def cmd_check(args) -> int:
    model = _load_model(args)
    term = "yes" if model.term is not None else "no"
    print(f"ok: term={term} globals={len(model.globals)} "
          f"elements={len(model.elements)}")
    return 0


def cmd_typecheck(args) -> int:
    model = _load_model(args)
    classif = model.classification(strict=args.strict)
    status = 0
    if model.term is None:
        print("term: none")
    else:
        tau = pattern_type({}, classif, model.term)
        print(f"term: {render_ptype(tau)}")
    for n, rule in enumerate(model.globals, 1):
        text = rule_text(rule)
        try:
            ok = check_global({}, classif, rule)
        except UnboundVariableError:
            print(f"global {n}: checked per application ({text})")
            continue
        except TypingError as err:
            print(f"global {n}: does not type ({err})", file=sys.stderr)
            status = 1
            continue
        if ok:
            print(f"global {n}: ok ({text})")
        else:
            print(f"global {n}: does not preserve types ({text})",
                  file=sys.stderr)
            status = 1
    return status


def _match_cap(args, model: ModelFile) -> int:
    if args.match_cap is not None:
        return args.match_cap
    if "match_cap" not in model.options:
        return DEFAULT_MATCH_CAP
    try:
        cap = int(model.options["match_cap"])
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ModelSyntaxError("option match_cap needs an integer of at least 1",
                               *model.option_at["match_cap"], args.model)
    return cap


def cmd_run(args) -> int:
    ap_error = args.parser_error
    try:
        _check_strategy(args.strategy, args.k)
    except ValueError as err:
        ap_error(str(err))
    if args.steps < 0:
        ap_error("--steps must not be negative")
    if args.match_cap is not None and args.match_cap < 1:
        ap_error("--match-cap must be a positive integer")
    model = _load_model(args)
    if model.term is None:
        raise ModelSyntaxError("the model declares no term to run", 1, 1,
                               args.model)
    options = dict(steps=args.steps, strategy=args.strategy, seed=args.seed,
                   k=args.k, match_cap=_match_cap(args, model))
    if args.typed:
        trace = typed_run(model.term, model.globals,
                          model.classification(strict=args.strict), **options)
    else:
        trace = engine_run(model.term, model.globals, **options)
    text = trace_to_json(trace) if args.format == "json" else _trace_text(trace)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _trace_text(trace: Trace) -> str:
    lines = [f"strategy: {trace.strategy}"
             + (f" k={trace.k}" if trace.k is not None else "")
             + f" seed={trace.seed}",
             f"initial: {render(trace.initial)}"]
    for rnum, rnd in enumerate(trace.rounds, 1):
        lines.append(f"round {rnum}:")
        for lbl in rnd:
            lines.append(f"  [{lbl.schema}] {rule_text(lbl.rule)}  "
                         f"at /{'/'.join(map(str, lbl.path))}")
    lines.append(f"final: {render(trace.final)}")
    return "\n".join(lines) + "\n"


def cmd_replay(args) -> int:
    trace = trace_from_json(_read(args.trace), path=args.trace)
    if not verify_decomposition(trace):
        print(f"{args.trace}:1:1: trace does not replay to its recorded final "
              f"term", file=sys.stderr)
        return 1
    # a verified trace replays to exactly its recorded final term
    print(f"ok: {render(trace.final)}")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.parser_error = ap.error
    primary = getattr(args, "model", None) or getattr(args, "trace", "clslr")
    # a warning names the input file, not the line of clslr that issued it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = (
        lambda message, *_: f"{primary}: warning: {message}\n")
    try:
        return args.func(args)
    except (ModelSyntaxError, TypingError, MatchCapError, StepCapError,
            StaleLabelError, UnboundVariableError, RecursionError) as err:
        print(_positioned(err, primary), file=sys.stderr)
        return 1
    except OSError as err:
        # name the file that failed: a --lambda or --out file, say
        print(f"{err.filename or primary}: {err.strerror or err}",
              file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
