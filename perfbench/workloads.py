"""Seeded inputs for the benchmark workloads, and their expected answers.

A generator turns ``(seed, index)`` into one op: the model text the program
receives, how to run it, and the answer the output is checked against.  The
answers come from the generator's own construction (a closed form, or a
fixed property), never from the code under test.

Sizes are fixed and only the content varies with the seed, so that the cost
of an op barely depends on the seed and runs with different seeds measure
the same amount of work.
"""

from __future__ import annotations

import random
from pathlib import Path

MATERIAL = ("a", "b", "c", "d")

# Sizes, chosen so that one cold op of each workload takes a few tenths of
# a second on a shared 2-core x86-64 host (see README.md).
MITO_STEPS = 30
TERMVAR_MEMBERS = 10
TERMVAR_STEPS = 2


def _rng(seed: int, *index: int) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *index)))


def _canonical(members) -> str:
    """The program's canonical text of a parallel composition of members.

    Members are sorted by their own canonical text and joined with `` | ``;
    ``eps`` stands for no members.
    """
    members = sorted(members)
    return " | ".join(members) if members else "eps"


def mito(root: Path, seed: int, index: int) -> dict:
    """The bundled model and its classification, typed and maximal.

    Every op is the same input; the check is the criterion-1 pipeline: stage
    i of the eight stages first holds after round i.
    """
    models = root / "src" / "clslr" / "models"
    return {
        "model": (models / "mitochondria.clslr").read_text(),
        "lambda": (models / "mitochondria.lambda.clslr").read_text(),
        "typed": True, "steps": MITO_STEPS, "strategy": "maximal",
        "k": None, "seed": 0,
        "expect": {"stages": 8},
    }


def termvar(root: Path, seed: int, index: int) -> dict:
    """Distinct members, one doubled member and ``{ $X | $X => $X | $X }``,
    untyped, maximal.

    A scan enumerates every sub-multiset of the unmarked members as the
    image of ``$X`` and then looks for a second copy of it.  Only the
    doubled member ``z`` has one, so each step applies one label, which
    marks both ``z``; the scan that ends the step enumerates the distinct
    members alone.  Each step leaves the term as it was.
    """
    rng = _rng(seed, index)
    members: set = set()
    while len(members) < TERMVAR_MEMBERS:
        members.add(".".join(rng.choice(MATERIAL)
                             for _ in range(rng.randint(1, 3))))
    parts = [*sorted(members), "z", "z"]
    rng.shuffle(parts)
    rule = "{ $X | $X => $X | $X }"
    model = " | ".join([*parts, rule]) + "\n"
    return {
        "model": model, "lambda": "", "typed": False,
        "steps": TERMVAR_STEPS, "strategy": "maximal", "k": None, "seed": 0,
        "expect": {"final": _canonical([*members, "z", "z", rule]),
                   "labels": TERMVAR_STEPS},
    }


GENERATORS = {"mito": mito, "termvar": termvar}
