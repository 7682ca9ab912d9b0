"""Combinational equivalence checking (CEC).

Every experiment in the reproduction verifies its optimized network against
the original — the paper's "all benchmarks are verified with an industrial
formal equivalence checking flow" (Section V-C).  Small networks are checked
exhaustively by simulation; larger ones through a SAT miter.

Miscompares are reported as a structured :class:`Counterexample` (the PI
assignment plus the first miscomparing PO), and :func:`assert_equivalent`
raises :class:`repro.errors.EquivalenceError` carrying that evidence — the
guard layer (:mod:`repro.guard.stage_guard`) attaches it to the run report
instead of aborting the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.aig.aig import Aig
from repro.aig.simprogram import pack_rounds, sim_program, wide_mask
from repro.aig.simulate import WORD_MASK, po_tables, po_words, simulate_words
from repro.errors import EquivalenceError
from repro.sat.cnf import AigCnf, build_miter


@dataclass
class Counterexample:
    """Evidence that two networks differ: an input pattern and where."""

    inputs: List[bool]     #: PI assignment, in PI order
    po_index: int          #: first miscomparing primary output
    po_name: str = ""

    def format(self) -> str:
        """Render as ``PO 'name' (#i) differs under PIs 0101...``."""
        bits = "".join("1" if b else "0" for b in self.inputs)
        label = f"{self.po_name!r} (#{self.po_index})" if self.po_name \
            else f"#{self.po_index}"
        return f"PO {label} differs under PI assignment {bits}"

    def to_dict(self) -> dict:
        """JSON-safe representation for the run report."""
        return {"inputs": [bool(b) for b in self.inputs],
                "po_index": self.po_index, "po_name": self.po_name}


def _first_miscomparing_po(aig_a: Aig, aig_b: Aig,
                           inputs: List[bool]) -> int:
    """Index of the first PO that differs under *inputs* (or 0)."""
    words = [(1 << 64) - 1 if bit else 0 for bit in inputs]
    wa = po_words(aig_a, simulate_words(aig_a, words))
    wb = po_words(aig_b, simulate_words(aig_b, words))
    for po, (x, y) in enumerate(zip(wa, wb)):
        if (x ^ y) & 1:
            return po
    return 0


def find_counterexample(aig_a: Aig, aig_b: Aig,
                        exhaustive_limit: int = 12
                        ) -> Optional[Counterexample]:
    """Return a :class:`Counterexample` if the networks differ, else ``None``.

    Networks with at most *exhaustive_limit* inputs are compared by complete
    simulation; larger ones by random-simulation filtering followed by a SAT
    miter proof.
    """
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        raise ValueError("equivalence requires matching interfaces")
    if aig_a.num_pis <= exhaustive_limit:
        ta = po_tables(aig_a)
        tb = po_tables(aig_b)
        if ta == tb:
            return None
        for po, (x, y) in enumerate(zip(ta, tb)):
            diff = x ^ y
            if diff:
                row = (diff & -diff).bit_length() - 1
                inputs = [bool((row >> i) & 1) for i in range(aig_a.num_pis)]
                return Counterexample(inputs, po, aig_a.po_name(po))
        return None
    # Random simulation first: a cheap refutation path.
    import random
    rng = random.Random(0xCEC)
    # One 256-bit pass per network covers four 64-bit rounds.  Patterns
    # are drawn round-major and the miscompare scan visits (round, po, bit)
    # in that order, so the counterexample is the one four separate
    # 64-bit rounds would find first.
    rounds = [[rng.getrandbits(64) for _ in range(aig_a.num_pis)]
              for _ in range(4)]
    packed = pack_rounds(rounds)
    mask = wide_mask(4)
    prog_a = sim_program(aig_a)
    prog_b = sim_program(aig_b)
    wa = prog_a.po_words(prog_a.run(packed, mask), mask)
    wb = prog_b.po_words(prog_b.run(packed, mask), mask)
    for r in range(4):
        shift = 64 * r
        for po, (x, y) in enumerate(zip(wa, wb)):
            diff = ((x >> shift) ^ (y >> shift)) & WORD_MASK
            if diff:
                bit = (diff & -diff).bit_length() - 1
                inputs = [bool((w >> bit) & 1) for w in rounds[r]]
                return Counterexample(inputs, po, aig_a.po_name(po))
    miter = build_miter(aig_a, aig_b)
    cnf = AigCnf(miter)
    out = cnf.sat_literal(miter.pos()[0])
    if cnf.solver.solve((out,)):
        inputs = cnf.extract_pi_assignment()
        po = _first_miscomparing_po(aig_a, aig_b, inputs)
        return Counterexample(inputs, po, aig_a.po_name(po))
    return None


def check_equivalence(aig_a: Aig, aig_b: Aig,
                      exhaustive_limit: int = 12) -> Tuple[bool, Optional[List[bool]]]:
    """Decide whether two networks are combinationally equivalent.

    Returns ``(True, None)`` or ``(False, counterexample_pi_assignment)``.
    Thin compatibility wrapper over :func:`find_counterexample`.
    """
    cex = find_counterexample(aig_a, aig_b, exhaustive_limit=exhaustive_limit)
    if cex is None:
        return True, None
    return False, cex.inputs


def assert_equivalent(aig_a: Aig, aig_b: Aig) -> None:
    """Raise :class:`EquivalenceError` with a counterexample if networks differ."""
    cex = find_counterexample(aig_a, aig_b)
    if cex is not None:
        raise EquivalenceError(
            f"networks {aig_a.name!r} and {aig_b.name!r} differ: "
            f"{cex.format()}",
            cex=cex.inputs, po_index=cex.po_index, po_name=cex.po_name)
