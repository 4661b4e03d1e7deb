"""Deep, wide mini-language sources for the cli-deep workload.

Each file opens with declarations and eight work steps on containers, then
nests chains of if/while/for blocks several levels deep; every level carries
a few declarations, assignments and calls and one more work step. As in
`treedefect.synthetic`, clean files guard each work step with a checker
call and defective files leave it unguarded, so the classes differ by guard
subtrees spread through the whole tree. The top-level steps keep the label
visible in the root vector of a barely trained model, which holds the
quality figures steady from seed to seed. The files
are several times larger and deeper than the synthetic ones, so the
Tree-LSTM sees other per-level widths and the parser and JSON documents
carry real weight.
"""

from __future__ import annotations

import numpy as np

NAMES = ("buf", "stack", "queue", "data", "items", "cache", "node", "acc")
COUNTERS = ("i", "j", "k", "n")
CHECKERS = ("hasNext", "isReady", "contains")
WORKERS = ("pop", "push", "update")
CALLS = ("log", "trace", "notify", "emit", "check", "scan")
TYPES = ("int", "float", "bool", "string")
OPS = ("+", "-", "*", "<", ">", "==", "&&")


def _pick(rng: np.random.Generator, options) -> str:
    return options[int(rng.integers(0, len(options)))]


def _expr(rng: np.random.Generator, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return str(int(rng.integers(0, 100)))
        return _pick(rng, NAMES)
    if rng.random() < 0.25:
        return f"{_pick(rng, CALLS)}({_expr(rng, depth - 1)})"
    return f"({_expr(rng, depth - 1)} {_pick(rng, OPS)} {_expr(rng, depth - 1)})"


def _simple(rng: np.random.Generator) -> str:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return f"{_pick(rng, TYPES)} {_pick(rng, NAMES)} = {_expr(rng, 1)};"
    if kind == 1:
        return f"{_pick(rng, NAMES)} = {_expr(rng, 1)};"
    return f"{_pick(rng, CALLS)}({_pick(rng, NAMES)}, {_expr(rng, 1)});"


def _work(rng: np.random.Generator, defective: bool) -> str:
    name = _pick(rng, NAMES)
    work = f"{_pick(rng, WORKERS)}({name});"
    return work if defective else f"if ({_pick(rng, CHECKERS)}({name})) {{ {work} }}"


def _chain(rng: np.random.Generator, levels: int, indent: str,
           defective: bool) -> list[str]:
    """`levels` nested compound statements, each with filler and one work
    step beside the next."""
    if levels == 0:
        return [indent + _work(rng, defective)]
    kind = int(rng.integers(0, 3))
    if kind == 0:
        head = f"if ({_expr(rng, 1)}) {{"
    elif kind == 1:
        head = f"while ({_pick(rng, NAMES)} < {int(rng.integers(1, 64))}) {{"
    else:
        c = _pick(rng, COUNTERS)
        head = f"for (int {c} = 0; {c} < {int(rng.integers(1, 64))}; {c} = {c} + 1) {{"
    inner = indent + "  "
    body = [inner + _simple(rng) for _ in range(int(rng.integers(0, 2)))]
    body.append(inner + _work(rng, defective))
    body += _chain(rng, levels - 1, inner, defective)
    if rng.random() < 0.5:
        body.append(inner + _simple(rng))
    return [indent + head, *body, indent + "}"]


def deep_source(rng: np.random.Generator, defective: bool) -> str:
    """One file: declarations and work steps, then two chains of nested blocks."""
    lines = [_simple(rng) for _ in range(int(rng.integers(1, 4)))]
    lines += [_work(rng, defective) for _ in range(8)]
    lines += _chain(rng, int(min(rng.integers(1, 13, size=2))), "", defective)
    lines += _chain(rng, int(rng.integers(1, 5)), "", defective)
    return "\n".join(lines) + "\n"
