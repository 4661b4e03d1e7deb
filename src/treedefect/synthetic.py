"""Synthetic mini-language corpora with a planted defect motif.

Every generated file contains a counting while loop. Clean files guard the
work inside the loop body with an if statement on a checker call; defective
files perform the work unguarded, so their WhileStmt block lacks the guard
subtree. Both classes draw the same number of filler statements before the
loop, varying in construct (call or declaration) and tokens, so top-level
child counts carry no label signal and the classes differ by the guard
subtree rather than by file length alone.
"""

from __future__ import annotations

import numpy as np

from .corpus import FileRecord, normalize_labels
from .minilang import parse_mini
from .rng import stream

_NAMES = ("buf", "stack", "queue", "data", "items", "cache")
_COUNTERS = ("i", "j", "k", "n")
_CHECKERS = ("hasNext", "isReady", "contains")
_WORKERS = ("pop", "push", "update")
_NOISE_CALLS = ("log", "trace", "notify")


def generate_source(rng: np.random.Generator, defective: bool) -> str:
    """One mini-language source file; defective files lack the loop guard."""
    # options[rng.integers(len(options))] is the draw rng.choice(options) makes,
    # without turning the tuple into an array first
    counter = _COUNTERS[rng.integers(len(_COUNTERS))]
    name = _NAMES[rng.integers(len(_NAMES))]
    checker = _CHECKERS[rng.integers(len(_CHECKERS))]
    worker = _WORKERS[rng.integers(len(_WORKERS))]
    limit = int(rng.integers(2, 50))
    lines = [f"int {counter} = 0;"]
    for _ in range(2):
        if rng.integers(0, 2):
            noise = _NOISE_CALLS[rng.integers(len(_NOISE_CALLS))]
            lines.append(f"{noise}({_NAMES[rng.integers(len(_NAMES))]});")
        else:
            lines.append(f"int {_NAMES[rng.integers(len(_NAMES))]} = {int(rng.integers(0, 9))};")
    work = f"{worker}({name});"
    if defective:
        body = f"  {work}"
    else:
        body = f"  if ({checker}({name})) {{ {work} }}"
    lines.append(f"while ({counter} < {limit}) {{")
    lines.append(body)
    lines.append(f"  {counter} = {counter} + 1;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_records(n: int = 400, defect_rate: float = 0.5, seed: int = 0,
                     project: str = "synthetic", version: str = "1.0") -> list[FileRecord]:
    """Corpus of `n` labeled files, a defect_rate share of them defective,
    deterministic in `seed`."""
    if n < 1:
        raise ValueError(f"record count must be >= 1, got {n}")
    if not 0 <= defect_rate <= 1:
        raise ValueError(f"defect rate must be in [0, 1], got {defect_rate}")
    rng = stream(seed, "synthetic", project, version)
    n_defective = int(round(defect_rate * n))
    labels = np.array([1] * n_defective + [0] * (n - n_defective))
    labels = labels[rng.permutation(n)]
    records = []
    for i, label in enumerate(labels):
        source = generate_source(rng, bool(label))
        tree = normalize_labels(parse_mini(source))
        records.append(FileRecord(f"file{i:04d}.mini", project, version,
                                  int(label), tree))
    return records


def generate_multi_cell(project_versions: dict[str, list[str]],
                        files_per_cell: int = 12, defect_rate: float = 0.5,
                        seed: int = 0) -> list[FileRecord]:
    """Small corpus with one cell per (project, version), for protocol tests."""
    records = []
    for project in sorted(project_versions):
        for version in project_versions[project]:
            records.extend(generate_records(files_per_cell, defect_rate, seed,
                                            project, version))
    return records
