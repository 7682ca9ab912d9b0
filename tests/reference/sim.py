"""Reference simulation and the per-round SAT/guard front ends.

Each function is the interpreted one-64-bit-round-at-a-time formulation
that the compiled wide-word engines must reproduce bit for bit.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.aig.aig import Aig, lit, lit_is_compl, lit_node
from repro.aig.simulate import WORD_MASK, _variable_pattern, po_words
from repro.aig.traversal import topological_order_all
from repro.errors import AigError
from repro.sat.cnf import AigCnf, build_miter, prove_equivalent
from repro.sat.equivalence import (Counterexample, _first_miscomparing_po,
                                   check_equivalence)
from repro.sat.redundancy import _replace_network


def simulate_words(aig: Aig, pi_words: Sequence[int]) -> Dict[int, int]:
    """Interpreted per-call topological walk over one 64-bit word per PI."""
    if len(pi_words) != aig.num_pis:
        raise AigError(f"expected {aig.num_pis} PI words, got {len(pi_words)}")
    values: Dict[int, int] = {0: 0}
    for node, word in zip(aig.pis(), pi_words):
        values[node] = word & WORD_MASK
    for n in topological_order_all(aig):
        f0, f1 = aig.fanins(n)
        v0 = values[lit_node(f0)] ^ (WORD_MASK if lit_is_compl(f0) else 0)
        v1 = values[lit_node(f1)] ^ (WORD_MASK if lit_is_compl(f1) else 0)
        values[n] = v0 & v1
    return values


def simulate_complete(aig: Aig) -> Dict[int, int]:
    """Interpreted complete truth-table walk (all ``2**num_pis`` rows)."""
    k = aig.num_pis
    if k > 24:
        raise AigError(f"complete simulation infeasible for {k} inputs")
    nbits = 1 << k
    mask = (1 << nbits) - 1
    values: Dict[int, int] = {0: 0}
    for i, node in enumerate(aig.pis()):
        values[node] = _variable_pattern(i, nbits)
    for n in topological_order_all(aig):
        f0, f1 = aig.fanins(n)
        v0 = values[lit_node(f0)] ^ (mask if lit_is_compl(f0) else 0)
        v1 = values[lit_node(f1)] ^ (mask if lit_is_compl(f1) else 0)
        values[n] = v0 & v1
    return values


def _po_tables(aig: Aig) -> List[int]:
    values = simulate_complete(aig)
    mask = (1 << (1 << aig.num_pis)) - 1
    return [values[lit_node(po)] ^ (mask if lit_is_compl(po) else 0)
            for po in aig.pos()]


def _first_miscompare(words: List[int], wa: List[int], wb: List[int],
                      names: Aig) -> Optional[Counterexample]:
    for po, (x, y) in enumerate(zip(wa, wb)):
        diff = x ^ y
        if diff:
            bit = (diff & -diff).bit_length() - 1
            inputs = [bool((w >> bit) & 1) for w in words]
            return Counterexample(inputs, po, names.po_name(po))
    return None


def find_counterexample(aig_a: Aig, aig_b: Aig,
                        exhaustive_limit: int = 12
                        ) -> Optional[Counterexample]:
    """CEC with four separate 64-bit random rounds before the SAT miter."""
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        raise ValueError("equivalence requires matching interfaces")
    if aig_a.num_pis <= exhaustive_limit:
        ta = _po_tables(aig_a)
        tb = _po_tables(aig_b)
        for po, (x, y) in enumerate(zip(ta, tb)):
            diff = x ^ y
            if diff:
                row = (diff & -diff).bit_length() - 1
                inputs = [bool((row >> i) & 1) for i in range(aig_a.num_pis)]
                return Counterexample(inputs, po, aig_a.po_name(po))
        return None
    rng = random.Random(0xCEC)
    for _ in range(4):
        words = [rng.getrandbits(64) for _ in range(aig_a.num_pis)]
        cex = _first_miscompare(
            words, po_words(aig_a, simulate_words(aig_a, words)),
            po_words(aig_b, simulate_words(aig_b, words)), aig_a)
        if cex is not None:
            return cex
    miter = build_miter(aig_a, aig_b)
    cnf = AigCnf(miter)
    out = cnf.sat_literal(miter.pos()[0])
    if cnf.solver.solve((out,)):
        inputs = cnf.extract_pi_assignment()
        po = _first_miscomparing_po(aig_a, aig_b, inputs)
        return Counterexample(inputs, po, aig_a.po_name(po))
    return None


def stage_guard_fast_check(guard, candidate: Aig) -> Optional[Counterexample]:
    """``StageGuard.fast_check`` over one 64-bit round at a time."""
    guard.fast_checks += 1
    rng = random.Random(guard.seed)
    for _ in range((guard.patterns + 63) // 64):
        words = [rng.getrandbits(64) for _ in range(guard.reference.num_pis)]
        cex = _first_miscompare(
            words,
            po_words(guard.reference, simulate_words(guard.reference, words)),
            po_words(candidate, simulate_words(candidate, words)),
            guard.reference)
        if cex is not None:
            guard.fast_rejects += 1
            return cex
    return None


def pattern_signatures(store, aig: Aig) -> List[int]:
    """``PatternStore.signatures`` assembled from per-round simulations."""
    if aig.num_pis != store.num_inputs:
        raise AigError(f"network has {aig.num_pis} PIs, store has "
                       f"{store.num_inputs} inputs")
    values = [0] * (aig.max_node + 1)
    for r in range(store.width_words):
        shift = 64 * r
        round_words = [(w >> shift) & WORD_MASK for w in store.pi_words()]
        for node, word in simulate_words(aig, round_words).items():
            values[node] |= word << shift
    return [v & store.mask for v in values]


def sat_sweep(aig: Aig, num_sim_rounds: int = 8,
              max_proofs: Optional[int] = None,
              rng: Optional[random.Random] = None) -> int:
    """SAT sweeping with signatures concatenated from per-round walks."""
    rng = rng or random.Random(20190311)
    if aig.num_pis == 0:
        return 0
    patterns = [[rng.getrandbits(64) for _ in range(aig.num_pis)]
                for _ in range(num_sim_rounds)]
    values_per_round = [simulate_words(aig, words) for words in patterns]

    def signature(node: int) -> int:
        sig = 0
        for values in values_per_round:
            sig = (sig << 64) | values[node]
        return sig

    classes: Dict[int, List[int]] = {}
    for node in [0] + aig.pis() + aig.topological_order():
        sig = signature(node)
        norm = sig if not (sig & 1) else sig ^ ((1 << (64 * num_sim_rounds)) - 1)
        classes.setdefault(norm, []).append(node)

    cnf = AigCnf(aig)
    merges = 0
    proofs = 0
    for members in list(classes.values()):
        if len(members) < 2:
            continue
        representative = members[0]
        rep_sig = signature(representative)
        for node in members[1:]:
            if aig.is_dead(node) or aig.is_dead(representative):
                continue
            if node == representative:
                continue
            if max_proofs is not None and proofs >= max_proofs:
                return merges
            target_lit = lit(representative, signature(node) != rep_sig)
            proofs += 1
            equivalent, _cex = prove_equivalent(cnf, lit(node), target_lit)
            if equivalent and not aig.is_pi(node):
                aig.replace(node, target_lit)
                merges += 1
    return merges


def remove_redundancies(aig: Aig, max_checks: Optional[int] = None,
                        rng: Optional[random.Random] = None,
                        sim_rounds: int = 4) -> int:
    """Redundancy removal screening each clone with per-round walks."""
    rng = rng or random.Random(0x9ED)
    removed = 0
    checks = 0
    progress = True
    while progress:
        progress = False
        baseline = aig.cleanup()
        patterns = [[rng.getrandbits(64) for _ in range(aig.num_pis)]
                    for _ in range(sim_rounds)]
        golden = [po_words(baseline, simulate_words(baseline, words))
                  for words in patterns]
        for node in list(baseline.topological_order()):
            for keep_index in (0, 1):
                if max_checks is not None and checks >= max_checks:
                    return removed
                candidate = _try_edge(baseline, node, keep_index,
                                      patterns, golden)
                if candidate is None:
                    continue
                checks += 1
                ok, _cex = check_equivalence(baseline, candidate)
                if ok:
                    baseline = candidate
                    removed += 1
                    progress = True
                    break
            if progress:
                break
        if progress:
            _replace_network(aig, baseline)
    return removed


def _try_edge(aig: Aig, node: int, keep_index: int,
              patterns: List[List[int]],
              golden: List[List[int]]) -> Optional[Aig]:
    if not aig.is_and(node):
        return None
    clone, mapping = aig.cleanup_with_map()
    mapped = mapping.get(node)
    if mapped is None or lit_is_compl(mapped):
        return None
    clone_node = lit_node(mapped)
    if not clone.is_and(clone_node):
        return None
    clone.replace(clone_node, clone.fanins(clone_node)[keep_index])
    for words, expected in zip(patterns, golden):
        if po_words(clone, simulate_words(clone, words)) != expected:
            return None
    return clone.cleanup()
