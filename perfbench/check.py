"""Independent output check: seeded random-pattern evaluation.

This evaluator reads a network only through the ``Aig`` accessors
(``pis``, ``pos``, ``fanins``) and walks it with its own topological
order, so it shares no code with ``repro.aig.simulate``,
``repro.aig.simprogram`` or ``repro.sat``.  It is the second opinion
next to the program's SAT equivalence check.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

#: Patterns evaluated per check, as one bit-parallel integer per input.
PATTERNS = 4096


def output_words(aig, pi_words: Sequence[int], mask: int) -> List[int]:
    """Bit-parallel value of every PO for the given per-PI pattern words."""
    value = {0: 0}
    for node, word in zip(aig.pis(), pi_words):
        value[node] = word
    for po in aig.pos():
        root = po >> 1
        if root in value:
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            if node in value:
                stack.pop()
                continue
            f0, f1 = aig.fanins(node)
            pending = [n for n in (f0 >> 1, f1 >> 1) if n not in value]
            if pending:
                stack.extend(pending)
                continue
            a = value[f0 >> 1] ^ (mask if f0 & 1 else 0)
            b = value[f1 >> 1] ^ (mask if f1 & 1 else 0)
            value[node] = a & b
            stack.pop()
    return [value[po >> 1] ^ (mask if po & 1 else 0) for po in aig.pos()]


def first_mismatch(reference, candidate, seed: int,
                   patterns: int = PATTERNS) -> Optional[int]:
    """Index of the first PO on which the networks differ, else ``None``.

    Interfaces that do not match count as a mismatch at PO 0.
    """
    if (reference.num_pis != candidate.num_pis
            or reference.num_pos != candidate.num_pos):
        return 0
    rng = random.Random(seed)
    words = [rng.getrandbits(patterns) for _ in range(reference.num_pis)]
    mask = (1 << patterns) - 1
    expected = output_words(reference, words, mask)
    actual = output_words(candidate, words, mask)
    for index, (x, y) in enumerate(zip(expected, actual)):
        if x != y:
            return index
    return None
