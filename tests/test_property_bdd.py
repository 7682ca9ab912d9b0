"""Property-based tests (hypothesis) for the BDD manager."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bdd.manager import FALSE, BddManager
from repro.tt.truthtable import TruthTable, table_mask

from tests.test_bdd import build_from_table


def specs(max_vars=5):
    return st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=0, max_value=table_mask(n)),
            st.integers(min_value=0, max_value=table_mask(n)),
            st.just(n)))


@given(specs())
def test_boolean_algebra_laws(spec):
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    # De Morgan
    assert mgr.negate(mgr.apply_and(f, g)) == \
        mgr.apply_or(mgr.negate(f), mgr.negate(g))
    # absorption
    assert mgr.apply_or(f, mgr.apply_and(f, g)) == f
    # xor via and/or
    left = mgr.apply_xor(f, g)
    right = mgr.apply_or(mgr.apply_and(f, mgr.negate(g)),
                         mgr.apply_and(mgr.negate(f), g))
    assert left == right


@given(specs())
def test_canonicity_strong(spec):
    """Equal functions are the same node — the property the paper's MSPF
    engine exploits for cheap global queries."""
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    assert (f == g) == (bits1 == bits2)


@given(specs())
def test_ite_equals_mux_semantics(spec):
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    s = mgr.var(0)
    ite = mgr.ite(s, f, g)
    expect = (TruthTable.variable(0, n) & TruthTable(bits1, n)) | \
             (~TruthTable.variable(0, n) & TruthTable(bits2, n))
    assert mgr.to_truth_bits(ite, n) == expect.bits


@given(specs(max_vars=4))
def test_boolean_difference_via_bdds(spec):
    """∂f/∂g = f ⊕ g is 0 exactly when f and g are equivalent (Section III-A)."""
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    diff = mgr.apply_xor(f, g)
    assert (diff == FALSE) == (bits1 == bits2)
    # rebuilding f as diff ⊕ g is the identity of Section III-A
    assert mgr.apply_xor(diff, g) == f


@given(specs(max_vars=4))
def test_satcount_additivity(spec):
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    # inclusion-exclusion
    union = mgr.satcount(mgr.apply_or(f, g), n)
    inter = mgr.satcount(mgr.apply_and(f, g), n)
    assert union + inter == mgr.satcount(f, n) + mgr.satcount(g, n)


@given(specs(max_vars=4))
def test_cofactor_composition(spec):
    bits1, _b2, n = spec
    mgr = BddManager(n)
    t = TruthTable(bits1, n)
    f = build_from_table(mgr, t)
    for v in range(n):
        lo = mgr.cofactor(f, v, False)
        hi = mgr.cofactor(f, v, True)
        assert mgr.ite(mgr.var(v), hi, lo) == f


def agree_specs(max_vars=8):
    """(f, g, dc tables, related, inv, n); *related* forces agreement."""
    return st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=0, max_value=table_mask(n)),
            st.integers(min_value=0, max_value=table_mask(n)),
            st.integers(min_value=0, max_value=table_mask(n)),
            st.booleans(), st.booleans(), st.just(n)))


@given(agree_specs())
def test_agrees_under_matches_allocating_oracle(spec):
    """The read-only MSPF connectability check answers exactly what
    ``f ∧ ¬dc == (g ⊕ inv) ∧ ¬dc`` answers, and builds no node."""
    bits_f, bits_g, bits_dc, related, inv, n = spec
    if related:
        # g equals f ^ inv on every care point, differs freely on dc points
        bits_g = bits_f ^ (bits_g & bits_dc) ^ (table_mask(n) if inv else 0)
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits_f, n))
    g = build_from_table(mgr, TruthTable(bits_g, n))
    dc = build_from_table(mgr, TruthTable(bits_dc, n))
    before = mgr.num_nodes
    agrees = mgr.agrees_under(f, g, dc, inv=inv)
    assert mgr.num_nodes == before
    care = mgr.negate(dc)
    g_pol = mgr.negate(g) if inv else g
    assert agrees == (mgr.apply_and(f, care) == mgr.apply_and(g_pol, care))
    if related:
        assert agrees
