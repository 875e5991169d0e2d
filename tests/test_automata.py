"""Automata: pattern recognizers, the BNN quotient, and the clump construction."""

import math
import random
import re
import sys
import threading
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from kmerwait import automata
from kmerwait.automata import (
    ClumpAutomaton,
    Dfa,
    _check_incoming_letters,
    _clump_matrices,
    _det_one_minus_y,
    _float_walk,
    _hit_count,
    _hit_share,
    _kmp_tables,
    _law,
    _pair_matrices,
    _stack_words,
    _unpack_t,
    bnn_probability,
    bnn_scan,
    clump_automaton,
    clump_moment_series,
    clump_scan,
    clump_series,
    gf_from_clump_automaton,
    markov_property_check,
    state_marks,
    to_dot,
    transfer_matrix,
)
from kmerwait.cli import main
from kmerwait.evolution import ModelParams, asymptotics, \
    clump_probability, load_params, scan_kmers, waiting_time
from kmerwait.gfcore import POLY_ONE, POLY_ZERO, Poly, bareiss_det
from kmerwait.languages import clump_gf_language
from kmerwait.oracle import _kmp_table as oracle_kmp_table
from kmerwait.oracle import avoid_weight, bnn_decimal, enumerate_census
from kmerwait.words import Alphabet, correlation_set, neighbors, \
    putative_hit_count

from conftest import BIASED, TOYS, UNIFORM, clump_conditioned_hits, \
    weighted_marks


def all_words(n):
    for x in range(2 ** n):
        yield "".join("AC"[(x >> i) & 1] for i in range(n))


def test_kmp_automaton_tracks_borders(ac):
    rows = _kmp_tables(["ACAC"], ac)[0].tolist()
    assert len(rows) == 5

    def run(text):
        q = 0
        for c in text:
            q = rows[q][ac.index(c)]
        return q

    assert run("ACAC") == 4
    assert run("ACACA") == 4  # the occurrence state is absorbing
    assert run("AACA") == 3  # longest suffix that is a prefix: ACA
    assert run("CCC") == 0
    assert run("AACAC") == 4
    assert run("ACCA") == 1


def longest_border(s, b):
    """Length of the longest suffix of s that is a prefix of b."""
    return max(m for m in range(min(len(s), len(b)) + 1)
               if s.endswith(b[:m]))


@pytest.mark.parametrize("symbols,top", [("AC", 7), ("ACGT", 4)])
def test_kmp_table_matches_border_definition(symbols, top):
    alphabet = Alphabet(symbols)
    for k in range(1, top + 1):
        words = ["".join(t) for t in product(symbols, repeat=k)]
        for b, rows in zip(words, _kmp_tables(words, alphabet).tolist()):
            assert rows == [
                [k if q == k else longest_border(b[:q] + a, b)
                 for a in symbols] for q in range(k + 1)]


def test_kmp_avoidance_series(ac):
    """The clump automaton prunes every transition that completes the
    pattern, so its exact avoiding mass counts the texts avoiding it."""
    fbar, _ = clump_moment_series(clump_automaton("AAC", ac), UNIFORM, 10)
    for n in range(11):
        assert fbar[n] == avoid_weight(("AAC",), n, ac, UNIFORM)


def test_clump_automaton_aaa_structure(ac, autos):
    ca = autos["AAA"]
    assert ca.dfa.n_states == 17
    labels = set(ca.labels)
    assert len(labels) == 17
    ebar = {ca.labels[i] for i in ca.Ebar}
    assert ebar == {"", "A", "AA", "AC", "C", "CA"}
    occ = {ca.labels[i] for i in ca.O}
    assert occ == {"AAC", "ACA", "CAA", "AACA", "ACAA", "CAAC",
                   "AACAA", "ACAAC", "ACACA", "CAACA"}
    assert len(ca.pruned) == 4


def test_clump_automaton_aaa_marks(ac, autos):
    ca = autos["AAA"]
    marked = {ca.labels[i] for i in range(ca.dfa.n_states)
              if ca.state_mark[i]}
    assert marked == {"AAC", "ACA", "CAA", "ACAAC", "ACACA", "CAAC"}


def test_clump_automaton_aaa_theta(ac, autos):
    ca = autos["AAA"]
    theta = {ca.labels[i]: ca.theta[i] for i in ca.theta}
    assert theta == {
        "AAC": "AAC", "ACA": "ACA", "CAA": "CAA",
        "AACA": "A", "ACAA": "A", "CAAC": "C",
        "AACAA": "AA", "ACAAC": "AAC", "ACACA": "ACA", "CAACA": "A",
    }


def test_walk_routes_never_compute_theta(ac, binu, table1, monkeypatch,
                                         capsys):
    """theta is computed on demand: the routes that step the transfer
    matrix answer with _theta_word raising, and the automaton command
    computes it, once per occurrence state."""
    def refuse(*args):
        raise AssertionError("a walk route computed theta")

    monkeypatch.setattr(automata, "_theta_word", refuse)
    assert 0 < waiting_time("ACGTA", 1000, table1, "CLUMP").p_n < 1
    assert asymptotics("ACAC", binu).C1 > 0
    ca = clump_automaton("AACA", ac)
    fbar, hits = clump_moment_series(ca, UNIFORM, 20, exact=False)
    assert 0 < fbar[20] < 1 and hits[0][20] > 0
    assert gf_from_clump_automaton(ca, UNIFORM).taylor(1, 3) == [1, 1, 1, 1]
    with pytest.raises(AssertionError, match="computed theta"):
        ca.theta

    monkeypatch.undo()
    real = automata._theta_word
    calls = []

    def counted(o, *args):
        calls.append(o)
        return real(o, *args)

    monkeypatch.setattr(automata, "_theta_word", counted)
    assert main(["automaton", "AAA", "--alphabet", "AC"]) == 0
    assert "theta=AAC" in capsys.readouterr().out
    assert sorted(calls) == sorted(clump_automaton("AAA", ac).O)


def check_build(ca):
    """The clump automaton against the definitions that its build
    replaces: the labels are the b-avoiding prefixes of X, the neighbors
    extended by their correlation words over every pair of neighbors; each
    transition goes to the longest suffix of label + letter that is again
    a label, exactly the transitions whose label + letter ends with b are
    pruned, and Ebar is the set of states that the neighbors' proper
    prefixes reach."""
    b, k = ca.b, len(ca.b)
    d = neighbors(b, ca.alphabet)
    xwords = set(d) | {vi + e for vi in d for vj in d
                       for e in correlation_set(vi, vj) if e}
    assert set(ca.labels) == {w[:i] for w in xwords
                              for i in range(len(w) + 1) if b not in w[:i]}
    index = {lab: q for q, lab in enumerate(ca.labels)}
    pruned = set()
    for q, lab in enumerate(ca.labels):
        for a in ca.alphabet.symbols:
            grown = lab + a
            if grown.endswith(b):
                pruned.add((q, a))
                assert (q, a) not in ca.dfa.delta
                continue
            longest = next(grown[cut:] for cut in range(len(grown) + 1)
                           if grown[cut:] in index)
            assert ca.dfa.delta[(q, a)] == index[longest]
    assert set(ca.pruned) == pruned

    def run(text):
        q = ca.dfa.initial
        for a in text:
            q = ca.dfa.step(q, a)
        return q

    assert ca.Ebar == {run(v[:j]) for v in d for j in range(k)}


def test_clump_build_matches_definitions_binary(ac):
    for k in range(2, 8):
        for b in all_words(k):
            check_build(clump_automaton(b, ac))


@pytest.mark.parametrize("b", ["ACGTA", "CCCCC", "GGAGG", "ACGTACGT"])
def test_clump_build_matches_definitions_dna(table1, b):
    check_build(clump_automaton(b, table1.alphabet))


@pytest.mark.parametrize("b", TOYS)
def test_markov_property(autos, b):
    assert markov_property_check(autos[b])


def test_markov_property_detects_corruption(ac, autos):
    ca = autos["AAA"]
    delta = dict(ca.dfa.delta)
    # reroute CA --A--> so that two different 3-letter histories land on
    # the state labelled AAC
    src = ca.labels.index("CA")
    tgt = ca.labels.index("AAC")
    delta[(src, "A")] = tgt
    bad_dfa = Dfa(ca.dfa.n_states, ca.dfa.alphabet, delta, ca.dfa.initial)
    bad = ClumpAutomaton(ca.b, ca.alphabet, bad_dfa, ca.labels, ca.O,
                         ca.Ebar, ca.fresh_hits, ca.mark, ca.pruned)
    assert not markov_property_check(bad)
    # theta reads its words off the labels only where the incoming letters
    # match them, so it refuses this automaton
    with pytest.raises(AssertionError, match="Markov property lost"):
        bad.theta


def test_incoming_letter_check_detects_corruption(ac, autos):
    """The build's O(edges) check: the same rerouting, CA --A--> AAC, reads
    A into a state whose label ends with C."""
    ca = autos["AAA"]
    _check_incoming_letters(ca.labels, ca.dfa.delta)
    delta = dict(ca.dfa.delta)
    delta[(ca.labels.index("CA"), "A")] = ca.labels.index("AAC")
    with pytest.raises(AssertionError, match="Markov property lost"):
        _check_incoming_letters(ca.labels, delta)


@pytest.mark.parametrize("b", TOYS)
def test_run_marks_count_putative_hits(ac, autos, b):
    """Exhaustively over short texts, the marks collected along a run
    equal the putative-hit count; dying runs are exactly the texts with an
    occurrence of b."""
    ca = autos[b]
    for n in range(1, 13):
        for w in all_words(n):
            st = ca.dfa.initial
            marks = 0
            for letter in w:
                st = ca.dfa.step(st, letter)
                if st is None:
                    break
                marks += ca.state_mark[st]
            if b in w:
                assert st is None
            else:
                assert st is not None
                assert marks == putative_hit_count(w, b, ca.alphabet)


def _full_rows(tm):
    return sum(1 for row in tm.rows if sum(row.values()) == tm.scale)


def test_transfer_matrix_rows(ac, autos, table1):
    tm = transfer_matrix(autos["AAA"], UNIFORM)
    assert tm.size == 17 and tm.scale == 2
    assert _full_rows(tm) == 17 - 4  # four rows lost a pruned transition
    ca = clump_automaton("ACGTA", table1.alphabet)
    tm = transfer_matrix(ca, table1.nu)
    assert tm.scale == 100000 and tm.size == len(tm.rows) == 463
    assert all(type(c) is int for row in tm.rows for c in row.values())
    assert _full_rows(tm) == 463 - len({q for q, _ in ca.pruned})


def test_edge_arrays_match_int_division(ac):
    """Each H_ij of edge_arrays is the int true division D H_ij / D, edge by
    edge in row order.  Above D = 2**53 the float quotient of the rounded
    ints can differ, as it does for this D = 10**17, so dividing a float
    array by D would not do."""
    big, c = 10**17, 12345678901234567
    assert float(c) / float(big) != c / big
    for nu in (UNIFORM, BIASED, {"A": F(c, big), "C": F(big - c, big)}):
        tm = transfer_matrix(clump_automaton("ACAC", ac), nu)
        src, tgt, coef = tm.edge_arrays()
        assert list(zip(src.tolist(), tgt.tolist(), coef.tolist())) == [
            (i, j, w / tm.scale) for i, row in enumerate(tm.rows)
            for j, w in row.items()]
    assert tm.scale == big


@pytest.mark.parametrize("b", TOYS)
@pytest.mark.parametrize("nu", [UNIFORM, BIASED], ids=["uniform", "biased"])
def test_census_vs_enumeration(autos, ac, b, nu):
    rows = clump_series(autos[b], nu, 9)
    for n in range(10):
        assert rows[n] == dict(enumerate_census(b, n, ac, nu).census)


@pytest.mark.parametrize("b,mark", [("ACG", None), ("ACG", ("A", "C")),
                                    ("GATA", ("T", "A"))])
def test_census_vs_enumeration_dna(table1, b, mark):
    # table1's letter probabilities have common denominator 10**5, so the
    # census is stepped in integers over 10**(5n)
    ca = clump_automaton(b, table1.alphabet, mark=mark)
    rows = clump_series(ca, table1.nu, 6)
    for n in range(7):
        assert rows[n] == dict(enumerate_census(
            b, n, table1.alphabet, table1.nu, mark=mark).census)


def test_moment_series_exact_and_float(autos):
    ca = autos["ACAC"]
    fbar, hits = clump_moment_series(ca, UNIFORM, 40)
    fbarf, hitsf = clump_moment_series(ca, UNIFORM, 40, exact=False)
    for n in range(41):
        assert abs(float(fbar[n]) - fbarf[n]) < 1e-12
        assert abs(float(hits[0][n]) - hitsf[0][n]) < 1e-12
    # avoiding mass never increases
    for n in range(40):
        assert fbar[n + 1] <= fbar[n]


@pytest.mark.parametrize("b", ("ACAC", "AACC"))
@pytest.mark.parametrize("nu", [UNIFORM, BIASED], ids=["uniform", "biased"])
def test_float_kernel_matches_exact_series(autos, b, nu):
    ca = autos[b]
    weight = {("A", "C"): F(1, 4), ("C", "A"): F(3, 4)}
    types = list(weight)
    fbar, hits = clump_moment_series(ca, nu, 200,
                                     [state_marks(ca, ty) for ty in types])
    marks = weighted_marks(ca, {ty: float(w) for ty, w in weight.items()})
    for n in (40, 200):
        exact = float(sum(weight[ty] * hits[i][n]
                          for i, ty in enumerate(types)) / fbar[n])
        got = clump_conditioned_hits(ca, nu, n, marks)
        assert abs(got - exact) <= 1e-12 * exact


@pytest.mark.parametrize("b,model", [("GGAGG", "table1"), ("AACA", "binu")])
def test_float_walk_rows_match_single_row_walks(request, b, model):
    # one scatter steps u and every typed tau at once; each row is bitwise
    # what a walk with that row alone gives
    params = request.getfixturevalue(model)
    types = params.mutation_types()
    ca = clump_automaton(b, params.alphabet)
    tm = transfer_matrix(ca, params.nu)
    marks = np.array([state_marks(ca, ty) for ty in types], float)
    walks = [list(_float_walk(ca, tm, 60, [m])) for m in marks]
    for n, (u, f, e, moments) in enumerate(_float_walk(ca, tm, 60, marks)):
        for (cond, inc, tau), walk in zip(moments, walks):
            u1, f1, e1, ((cond1, inc1, tau1),) = walk[n]
            assert (u == u1).all() and (f, e) == (f1, e1)
            assert (cond, inc) == (cond1, inc1) and (tau == tau1).all()


# the untyped words, then every toy with each typed mark
ROUTE_CASES = ([(b, None) for b in ("AAA", "ACC", "ACAC")]
               + [(b, m) for b in TOYS for m in (("A", "C"), ("C", "A"))])


@pytest.mark.parametrize("b,mark", ROUTE_CASES, ids=[
    b + "-" + (":".join(m) if m else "all") for b, m in ROUTE_CASES])
def test_gf_routes_agree_exactly(ac, b, mark):
    g1 = clump_gf_language(b, ac, UNIFORM, mark)
    g2 = gf_from_clump_automaton(clump_automaton(b, ac, mark=mark), UNIFORM)
    assert g1 == g2
    # the same parts, so the same z-degrees: no spurious common factor
    assert (g1.num, g1.den) == (g2.num, g2.den)


SKEWED = {"A": F(1, 100), "C": F(99, 100)}


@pytest.mark.parametrize("mark", [None, ("A", "C"), ("C", "A")],
                         ids=["all", "A:C", "C:A"])
@pytest.mark.parametrize("nu", [UNIFORM, BIASED, SKEWED],
                         ids=["uniform", "biased", "skewed"])
@pytest.mark.parametrize("b", TOYS)
def test_gf_matches_census(ac, b, nu, mark):
    # the numerator is built from the census's first size terms, so those
    # agree by construction; the terms up to 2*size + 2 certify the
    # denominator.  The skewed nu has the widest packed digits.
    # test_gf_routes_agree_exactly checks the closed form against the
    # independent language route.
    ca = clump_automaton(b, ac, mark=mark)
    n = 2 * ca.dfa.n_states + 2
    f = gf_from_clump_automaton(ca, nu)
    assert f.taylor_tpolys(n) == clump_series(ca, nu, n)


def test_gf_dna_matches_census(table1):
    # the closed form has one limit, MAX_EXACT_STATES, on every alphabet:
    # AC under table1 has 19 states
    ca = clump_automaton("AC", table1.alphabet)
    assert ca.dfa.n_states == 19
    f = gf_from_clump_automaton(ca, table1.nu)
    assert f.taylor_tpolys(12) == clump_series(ca, table1.nu, 12)


def _pack_t(tpoly, bits):
    """A t-polynomial (mapping t_degree -> int) at t = 2**bits."""
    return sum(c << bits * d for d, c in tpoly.items())


@pytest.mark.parametrize("bits", [2, 5, 64])
def test_pack_t_round_trip(bits):
    top = (1 << (bits - 1)) - 1
    cases = [
        {},
        {0: top},
        {0: -top},
        {0: -top - 1},
        {0: top, 1: -top, 2: top},
        # zero digits between nonzero ones
        {0: 1, 3: -1, 7: top},
        {2: -top, 5: top},
        # a negative top coefficient
        {0: top, 1: 1, 4: -1},
        {0: -1, 1: -top},
    ]
    for tpoly in cases:
        assert _unpack_t(_pack_t(tpoly, bits), bits) == tpoly


def _q_matrix(rows):
    return [[F(x) for x in row] for row in rows]


CHARPOLY_CASES = {
    "1x1": _q_matrix([["3/2"]]),
    "2x2": _q_matrix([["1/2", "1/3"], ["-2", "5/7"]]),
    # the first subdiagonal entry is zero
    "swap": _q_matrix([[1, 2, 3], [0, 4, 5], ["6/5", 7, 8]]),
    # block upper triangular: rows 2 to 4 are zero in columns 0 and 1
    "block": _q_matrix([[1, 2, 0, 1, 1], [3, "1/2", 1, 0, 2],
                        [0, 0, 2, 1, 0], [0, 0, "1/3", 0, 1],
                        [0, 0, 1, 1, "-1/4"]]),
    "singular": _q_matrix([[1, 2, 0, 1], [2, 4, 0, 2],
                           [0, 1, "1/2", 0], [1, 0, 0, 0]]),
    "6x6": _q_matrix([[(3 * i + 5 * j) % 7 - 3 if (i + j) % 3 else 0
                       for j in range(6)] for i in range(6)]),
}


@pytest.mark.parametrize("name", sorted(CHARPOLY_CASES))
def test_det_one_minus_z_matches_bareiss(name):
    # scaled to ints by d, det(I - z A) = sum_i c_i (z/d)^i for the
    # coefficients c_i of det(I - y dA)
    a = CHARPOLY_CASES[name]
    n = len(a)
    d = math.lcm(*(x.denominator for row in a for x in row))
    rows = [{j: int(x * d) for j, x in enumerate(row) if x} for row in a]
    poly = [[(POLY_ONE if i == j else POLY_ZERO) - Poly.monomial(a[i][j], 1)
             for j in range(n)] for i in range(n)]
    coeffs = _det_one_minus_y(rows)
    assert len(coeffs) == n + 1
    assert all(type(c) is int for c in coeffs)
    assert (Poly({(i, 0): F(c, d ** i) for i, c in enumerate(coeffs)})
            == bareiss_det(poly))


def test_bnn_exact_toy(binu):
    # 64 texts of length 6 over the swap model: 22 avoid AAA, of which 9
    # pick up an occurrence after one full swap
    p = bnn_probability("AAA", 6, binu)
    assert p == pytest.approx(9 / 22, abs=1e-15)


def test_bnn_monotone_in_rate(ac):
    from kmerwait.evolution import ModelParams
    last = 0.0
    for k in (4, 3, 2):
        eps = F(1, 10 ** k)
        p1 = {"A": {"A": 1 - eps, "C": eps}, "C": {"A": eps, "C": 1 - eps}}
        params = ModelParams(ac, dict(UNIFORM), p1)
        p = bnn_probability("AACA", 30, params)
        assert p > last
        last = p


def test_bnn_mpmath_shadow(table1):
    for w in ("AAAAA", "CGCGC", "TTTTT"):
        pf = bnn_probability(w, 1000, table1)
        pm = float(bnn_decimal(w, 1000, table1))
        assert abs(pf - pm) / pm < 1e-10


def test_bnn_long_text_regression(table1):
    # the avoiding mass is ~1e-604 here; a float64 step loop underflowed
    # and returned 1.0
    p = bnn_probability("AC", 20000, table1)
    pm = float(bnn_decimal("AC", 20000, table1))
    assert pm == pytest.approx(8.76057560e-5, rel=1e-9, abs=0)
    assert abs(p - pm) / pm < 1e-8


@pytest.mark.parametrize("word,n", [
    ("CCCCC", 10 ** 6), ("ACGTA", 10 ** 6),
    *((w, n) for w in ("ACGTA", "AAAAA", "CCCCC", "ACGTACGT")
      for n in (10 ** 7, 10 ** 8))])
def test_bnn_long_texts_match_shadow(table1, word, n):
    # the linear law, certified at 128 letters, carries the rounding of its
    # readings alone: within 1e-14 of the shadow on these words at every n,
    # where powers run to n were off by about n eps (5e-9 on CCCCC at 1e8)
    p = bnn_probability(word, n, table1)
    pm = float(bnn_decimal(word, n, table1))
    assert 0.0 < p < 1.0
    assert abs(p - pm) / pm < 1e-13


def test_bnn_shadow_at_1e8(table1):
    # the avoiding mass of AC is near 10**-2.8e6 here, below the default
    # exponent range of decimal arithmetic
    p = bnn_probability("AC", 10 ** 8, table1)
    pm = float(bnn_decimal("AC", 10 ** 8, table1))
    assert 0.0 < pm < 1.0
    assert abs(p - pm) / pm < 1e-13


def test_bnn_probability_out_of_range_raises(table1):
    # without substitutions the mutant is the original, so p_n is 0
    p1 = {a: {c: F(int(a == c)) for c in table1.alphabet}
          for a in table1.alphabet}
    frozen = ModelParams(table1.alphabet, dict(table1.nu), p1)
    with pytest.raises(ArithmeticError, match="probability 0 is out of "
                                              "range"):
        bnn_probability("AC", 10 ** 8, frozen)


def reference_bnn_matrix(b, params):
    """Pair matrix of b by loops over states and letter pairs, each entry
    adding its weights in letter order."""
    k, letters = len(b), range(len(params.alphabet))
    table = oracle_kmp_table(b, params.alphabet)
    wgt = params.bnn_weights[1]
    pair = np.zeros((k * (k + 1), k * (k + 1)))
    for p in range(k):
        for x in letters:
            i = table[p][x]
            if i == k:
                continue
            for q in range(k + 1):
                for y in letters:
                    pair[p * (k + 1) + q, i * (k + 1) + table[q][y]] += \
                        wgt[x, y]
    return pair


@pytest.mark.parametrize("model,symbols,k", [("table1", "ACGT", 4),
                                             ("toy_eps", "AC", 6)])
def test_bnn_matrices_match_loops(request, model, symbols, k):
    params = request.getfixturevalue(model)
    words = ["".join(t) for t in product(symbols, repeat=k)]
    pair = _pair_matrices(_kmp_tables(words, params.alphabet),
                          params.bnn_weights[1])
    for w, p in zip(words, pair):
        assert (p == reference_bnn_matrix(w, params)).all()


def reference_clump_matrix(b, alphabet, nu, wgt):
    """CLUMP step matrix of b by loops over the pair states in walk order
    and over letter pairs: W0 = diag(nu) from every row, W1 (wgt off its
    diagonal) from the rows (p, p) only, each entry adding its weights in
    letter order.  A step that completes b is dropped, and so is a
    mutated step that lands on a state (P, P)."""
    k, letters = len(b), range(len(alphabet))
    table = oracle_kmp_table(b, alphabet)
    states = ([(p, p) for p in range(k)] + [(p, k) for p in range(k)]
              + [(p, q) for p in range(k) for q in range(k) if q != p])
    at = {x: i for i, x in enumerate(states)}
    c = np.zeros((len(states), len(states)))
    for i, (p, q) in enumerate(states):
        for x in letters:
            for y in letters if p == q else [x]:
                t, u = table[p][x], table[q][y]
                if t == k or t == u and (p, x) != (q, y):
                    continue
                c[i, at[t, u]] += nu[x] if x == y else wgt[x, y]
    return c


@pytest.mark.parametrize("model,symbols,k", [("table1", "ACGT", 4),
                                             ("toy_eps", "AC", 6),
                                             ("binu", "AC", 5)])
def test_clump_matrices_match_loops(request, model, symbols, k):
    params = request.getfixturevalue(model)
    words = ["".join(t) for t in product(symbols, repeat=k)]
    nu, wgt = params.bnn_weights
    c = _clump_matrices(_kmp_tables(words, params.alphabet), nu, wgt)
    for w, got in zip(words, c):
        assert (got == reference_clump_matrix(w, params.alphabet, nu,
                                              wgt)).all()


@pytest.mark.parametrize("b", ["ACGTA", "GATTACA"])
def test_clump_matrices_stack_one_weight_per_word(table1, b):
    # the unit-rate stack of asymptotics: one word, one weight matrix per
    # mutation type, built in one call
    nu = table1.bnn_weights[0]
    units = np.eye(16)[~np.eye(4, dtype=bool).ravel()].reshape(-1, 4, 4)
    wgt = units * nu[:, None]
    c = _clump_matrices(_kmp_tables([b] * 12, table1.alphabet), nu, wgt)
    for got, w in zip(c, wgt):
        assert (got == reference_clump_matrix(b, table1.alphabet, nu,
                                              w)).all()


def every_product_powers(x, n):
    """Row 0 of the n-th power of each slice of the stack x, rescaling
    each slice after every product by the power of two that brings its
    mass into [1/2, 1), so that each slice is its row 0 times a power of
    two.  The reference that rescaling on demand must match bit for bit."""
    def rescale(y):
        exps = np.frexp(np.add.reduce(y, (1, 2)))[1]
        np.ldexp(y, -exps[:, None, None], out=y)
    u = np.zeros((len(x), 1, x.shape[2]))
    u[:, 0, 0] = 1.0
    while True:
        if n & 1:
            u = u @ x
            rescale(u)
        n >>= 1
        if not n:
            return u
        x = x @ x
        rescale(x)


def every_product_bnn(words, n, params):
    """p_n of each word's reversal class from the loop-built matrices and
    every_product_powers: the hit mass over the total mass."""
    runs = [min(w, w[::-1]) for w in words]
    k = len(words[0])
    u = every_product_powers(np.array([reference_bnn_matrix(w, params)
                                       for w in runs]), n)
    hit = u.reshape(-1, k, k + 1)[:, :, k].sum(axis=1)
    return (hit / u.sum(axis=(1, 2))).tolist()


def table1_sample(k):
    # every word up to k = 3, then every 37th word and the four letter runs
    words = ["".join(t) for t in product("ACGT", repeat=k)]
    return words if k <= 3 else words[::37] + [c * k for c in "ACGT"]


def never(u, k):
    """A reading that never certifies a line."""
    return np.full(len(u), np.nan)


def direct_powers(stack, k, n, squares=None):
    """Row 0 of the n-th power of each slice of the stack, each times a
    power of two of its own: the law kernel (_law) with a reading that
    never certifies, so that it goes on to the powers to n, the fallback
    of bnn_scan and clump_scan."""
    return _law(stack, k, n, never, squares)[1]


def direct_bnn(words, n, params):
    """p_n of each word by row 0 of the n-th power of its pair matrix
    (direct_powers), bnn_scan's fallback, over one stack of the words."""
    k = len(words[0])
    pair = _pair_matrices(_kmp_tables(words, params.alphabet),
                          params.bnn_weights[1])
    return _hit_share(direct_powers(pair, k, n), k).tolist()


@pytest.mark.parametrize("model,k,lengths", [
    *(("table1", k, (k, 1000, 10 ** 6, 10 ** 8)) for k in range(2, 7)),
    *((m, 6, (6, 30, 1000, 10 ** 8)) for m in ("binu", "toy_eps", "skewed"))])
def test_bnn_on_demand_rescale_is_exact(request, monkeypatch, model, k,
                                        lengths):
    # rescaling only when a mass drifts out of its window gives bitwise the
    # values of rescaling after every product: the powers that bnn_scan
    # falls back on, run to n on the pair stacks of its reversal classes
    params = request.getfixturevalue(model)
    if model == "table1":
        words = table1_sample(k)
    else:
        words = ["".join(t) for t in product("AC", repeat=k)]
    runs = [min(w, w[::-1]) for w in words]
    fired = []
    rescale = automata._rescale

    def counting(x, mass):
        fired.append(len(x))
        rescale(x, mass)
    monkeypatch.setattr(automata, "_rescale", counting)
    for n in lengths:
        fired.clear()
        assert direct_bnn(runs, n, params) == every_product_bnn(words, n,
                                                                params)
        # no mass leaves its window in k letters; by 1e8 letters every
        # model's masses have, and the skewed model's already by 1000
        if n == k:
            assert not fired
        if n == 10 ** 8 or model == "skewed" and n >= 1000:
            assert fired


def dna_classes(k):
    return sorted({min(w, w[::-1])
                   for w in map("".join, product("ACGT", repeat=k))})


@pytest.fixture
def fallbacks(monkeypatch):
    """The sizes of the stacks of rows that the law kernel of a scan
    returns, one per stack with a word that takes the powers to n: the
    kernel returns a row for every word of that stack, certified or not,
    so each size is its stack's count of words."""
    sizes = []
    law = automata._law

    def counting(*args):
        lines, rows = law(*args)
        if rows is not None:
            sizes.append(len(rows))
        return lines, rows
    monkeypatch.setattr(automata, "_law", counting)
    return sizes


@pytest.fixture
def squarings(monkeypatch):
    """The stack sizes of the squares that the law kernel makes, one entry
    per squaring: _drift checks each square once, and the vectors, which
    have one row, apart from them."""
    sizes = []
    drift = automata._drift

    def counting(y, one):
        if y.shape[1] > 1:
            sizes.append(len(y))
        return drift(y, one)
    monkeypatch.setattr(automata, "_drift", counting)
    return sizes


@pytest.fixture
def steps(monkeypatch):
    """The stack sizes of the vector steps r <- r y that the law kernel's
    walk (_walk) takes, one entry per step."""
    sizes = []
    walk = automata._walk

    def counting(r, y, count, *rest):
        sizes.extend([len(r)] * count)
        return walk(r, y, count, *rest)
    monkeypatch.setattr(automata, "_walk", counting)
    return sizes


@pytest.mark.parametrize("n", [1000, 10 ** 4])
def test_bnn_law_matches_direct_powers(table1, fallbacks, squarings, steps,
                                       n):
    # every DNA 5-mer class certifies its law at 128 letters, after four
    # squarings, to letter 16, and 1 + 2 + 4 steps of the walk, and runs
    # no powers to n; those powers carry their own rounding of about
    # n eps, up to 7.6e-13 at 1e4
    words = dna_classes(5)
    law = bnn_scan(words, n, table1)
    assert not fallbacks
    assert sum(squarings) == 4 * len(words)
    assert sum(steps) == 7 * len(words)
    want = direct_bnn(words, n, table1)
    assert max(abs(p - q) / q for p, q in zip(law, want)) < 1e-12


@pytest.mark.parametrize("word,model", [("AA", "binu"), ("AAC", "binu"),
                                        ("CCCC", "lopsided"),
                                        ("CCCCC", "lopsided")])
def test_bnn_fallback_is_direct_powers(request, fallbacks, squarings, word,
                                       model):
    # the gap B' of the block where both texts avoid is 1 for AA and AAC
    # under binary-uniform, and 0.79 and 0.81 for CCCC and CCCCC under
    # lopsided, whose p reaches 1 in float before a line certifies.  Each
    # word reads its line and fails, then goes on from the squares it has
    # to the powers to n, bitwise, so that it squares n.bit_length() - 1
    # times in all, as the powers alone do
    params = request.getfixturevalue(model)
    for n in (128, 1000, 10 ** 6):
        fallbacks.clear()
        squarings.clear()
        p = bnn_scan([word], n, params)
        assert fallbacks == [1]
        assert squarings == [1] * (n.bit_length() - 1)
        assert p == direct_bnn([word], n, params)


def test_bnn_walk_certifies_aaccc(binu, fallbacks, certified):
    # AACCC under binary-uniform has 1 - p = 3e-4 at 256 letters, and the
    # rounding of a reading grows like eps / (1 - p): off the squares its
    # probe turned the line down there, off the walk it passes, and the
    # line's value at 1e3 is the 40-digit one rounded.  At 128 letters no
    # line is read, and the word takes the powers to n
    n = 1000
    assert bnn_scan(["AACCC"], n, binu) == [0.9999999999999866] == [
        float(bnn_decimal("AACCC", n, binu))]
    assert not fallbacks and certified == [256]
    assert bnn_scan(["AACCC"], 128, binu) == direct_bnn(["AACCC"], 128, binu)
    assert fallbacks == [1]


def test_law_probe_turns_down_a_periodic_term():
    # over row 0 of the powers of this step matrix a counter state gains
    # b per letter and a pair of states that swap at every letter gains c
    # every other one: x_m = (b m + c ceil(m / 2)) / a is 0.75 m at every
    # power of two, exactly, and 0.75 m + 0.25 one letter past it.  Every
    # line through the readings at m / 4, m / 2 and m passes the check,
    # the probe at m + 1 alone turns each down, and the word takes the
    # powers to n; without the pair its line certifies at once
    def step(c):
        return np.array([[[0.5, 0.25, c, 0.0], [0.0, 0.5, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.5, 0.0]]])

    def read(u, k):
        row = u[:, 0]
        seen.append(((row[:, 1] + row[:, 2]) / row[:, 0]).tolist())
        return np.array(seen[-1])
    seen, n = [], 1000
    lines, rows = _law(step(0.25), 1, n, read)
    assert lines == [None]
    assert (rows == direct_powers(step(0.25), 1, n)).all()
    letters = [2 ** i for i in range(3, 9)]
    assert seen == [[1.5], [3.0]] + [[x] for m in letters
                                     for x in (0.75 * m, 0.75 * m + 1)]
    seen.clear()
    assert _law(step(0.0), 1, n, read) == ([(4.0, 0.5, 8)], None)
    assert seen == [[1.0], [2.0], [4.0], [4.5]]


# The law kernel's values, bit for bit (float.hex), one case per phase and
# regime: ACGTA under table1 takes the powers at 100 letters (too short to
# read) and at 255 (it reads at 16, 32 and 64 letters, and its line at 128
# would pass n / 2), and certifies at 128 letters at the longer n, by both
# routes
LAW_ACGTA = {
    "bnn": ["0x1.d580d06c53840p-27", "0x1.32dee254a3194p-25",
            "0x1.306ac6e9c8a0dp-23", "0x1.37725dd67cd50p-23",
            "0x1.38f295b9b7ecbp-13"],
    "clump": ["0x1.d580d23f58393p-27", "0x1.32dee3beaaad8p-25",
              "0x1.306ac95fae49dp-23", "0x1.377260637b8b3p-23",
              "0x1.38f89134ec0d5p-13"]}


def test_law_values_are_pinned(table1, binu, skewed):
    for route, scan in (("bnn", bnn_scan), ("clump", clump_scan)):
        assert [scan(["ACGTA"], n, table1)[0].hex()
                for n in (100, 255, 1000, 1023, 2 ** 20)] == LAW_ACGTA[route]
    # AC's reading under binary-uniform fails, so it takes the powers;
    # AACAC reads p = 1 in float before its line certifies
    assert clump_scan(["AC"], 10 ** 6, binu)[0].hex() == \
        "0x1.e847c0000431cp+19"
    assert bnn_scan(["AACAC"], 10 ** 6, binu)[0].hex() == \
        "0x1.fffffffffffffp-1"
    # CCCCCC under skewed squares mid-walk and certifies at 2048 letters;
    # a 24-mer squares once and walks 127 steps to its line at 256
    assert clump_scan(["CCCCCC"], 10 ** 4, skewed)[0].hex() == \
        "0x1.e891a2ea392f4p+0"
    rng = random.Random(24)
    word = "".join(rng.choice("ACGT") for _ in range(24))
    assert clump_scan([word], 1000, table1)[0].hex() == \
        "0x1.8a869e540f336p-59"
    # the certificate of the growth constants reads the same kernel
    assert [(repr(a.C1), repr(a.C2)) for a in (
        asymptotics("ACAC", binu), asymptotics("ACGTA", table1))] == [
        ("0.24525038892893009", "-0.6855653516521703"),
        ("1.423232592187194e-10", "-5.679841538160045e-10")]


def test_law_schedule_follows_its_cost_rule(table1, skewed, squarings,
                                            steps, certified):
    # a full stack of DNA 6-mer classes squares four times, to letter 16,
    # and walks 1 + 2 + 4 steps to its lines at 128 letters; a seeded
    # 24-mer squares once, to stack**2, and walks 31 + 32 + 64 steps to
    # its line at 256 letters, squaring no more on the way.  CCCCCC under
    # skewed walks on past the plan letter 128 to its line at 2048, and
    # squares once more before each of those four doublings, which then
    # take four steps each
    words = dna_classes(6)[:_stack_words(42 * 42)]
    bnn_scan(words, 1000, table1)
    assert squarings == [len(words)] * 4
    assert steps == [len(words)] * 7
    assert set(certified) == {128}
    rng = random.Random(24)
    word = "".join(rng.choice("ACGT") for _ in range(24))
    for scan in (bnn_scan, clump_scan):
        squarings.clear()
        steps.clear()
        certified.clear()
        scan([word], 1000, table1)
        assert squarings == [1]
        assert steps == [1] * 127
        assert certified == [256]
        squarings.clear()
        steps.clear()
        certified.clear()
        scan(["CCCCCC"], 10 ** 4, skewed)
        assert squarings == [1] * 8
        assert steps == [1] * (7 + 4 * 4)
        assert certified == [2048]


@pytest.mark.parametrize("model,k", [("table1", 5), ("binu", 2),
                                     ("binu", 6), ("skewed", 6)])
def test_walk_checks_once_per_doubling_exactly(request, monkeypatch, model,
                                               k):
    # one mass check per doubling of the walk (_walk) gives bitwise the
    # values of a check after every step; the binary 2-mers' masses fall
    # out of the window within a doubling, so their walks are taken again
    # step by step
    params = request.getfixturevalue(model)
    words = ["".join(t) for t in product(params.alphabet.symbols, repeat=k)]
    lengths = (1000, 10 ** 4)
    want = [scan(words, n, params) for n in lengths
            for scan in (bnn_scan, clump_scan)]

    def every_step(r, y, steps, one, grow, high):
        for _ in range(steps):
            r = np.matmul(r, y)
            high = automata._drift(r, one)
        return r, high
    monkeypatch.setattr(automata, "_walk", every_step)
    assert want == [scan(words, n, params) for n in lengths
                    for scan in (bnn_scan, clump_scan)]


def test_out_of_range_messages_print_past_one(lopsided):
    # CCCC under lopsided reads p = 1 in float by 200 letters, and its
    # powers round one ulp past it, which %g prints as 1: both errors
    # print the value's repr
    assert bnn_scan(["CCCC"], 200, lopsided) == [1.0000000000000002]
    with pytest.raises(ArithmeticError, match=r"^appearance probability "
                       r"1\.0000000000000002 is out of range$"):
        bnn_probability("CCCC", 200, lopsided)
    with pytest.warns(UserWarning, match="mutation rate is 100"), \
            pytest.raises(ArithmeticError, match=r"^CCCC by BNN: appearance "
                          r"probability 1\.0000000000000002 is out of "
                          r"range$"):
        scan_kmers(4, 200, lopsided)


@pytest.mark.parametrize("word,model", [("AA", "binu"),
                                        ("CCCC", "lopsided")])
def test_bnn_spent_words_stop_reading(request, monkeypatch, word, model):
    # AA reads x from 4 letters on and CCCC from 8, and they read p = 1 in
    # float (x = inf) at 128 and 256 letters, after which their readings
    # are rounding (36.04, nan, ...): a stack whose words all read inf
    # reads no more and goes on to the powers
    params = request.getfixturevalue(model)
    seen = []
    reading = automata._law_reading

    def counting(u, k):
        seen.append(reading(u, k))
        return seen[-1]
    monkeypatch.setattr(automata, "_law_reading", counting)
    p = bnn_scan([word], 10 ** 6, params)
    assert len(seen) == 6 and seen[-1].tolist() == [math.inf]
    assert math.inf not in np.concatenate(seen[:-1])
    assert p == direct_bnn([word], 10 ** 6, params)


@pytest.mark.parametrize("n", [5, 100, 200, 255])
def test_bnn_short_texts_take_direct_powers(table1, fallbacks, squarings,
                                            n):
    # a DNA 5-mer certifies at 128 letters, which the law reads only where
    # 128 <= n / 2: below 256 letters every class takes the powers to n.
    # From 128 letters on the law reads x at 16, 32 and 64 letters first,
    # off the squares that the powers go on from
    words = dna_classes(5)
    p = bnn_scan(words, n, table1)
    assert sum(fallbacks) == len(words)
    assert sum(squarings) == len(words) * (n.bit_length() - 1)
    assert p == direct_bnn(words, n, table1)


@pytest.fixture
def certified(monkeypatch):
    """Per word that the law kernel runs, the letter at which its line
    certifies, or None for a word that takes the powers to n."""
    letters = []
    law = automata._law

    def recording(*args):
        lines, rows = law(*args)
        letters.extend(None if line is None else line[2] for line in lines)
        return lines, rows
    monkeypatch.setattr(automata, "_law", recording)
    return letters


# the letters at which the words of test_clump_scan_mixes_jumps certify
# their lines at the largest n, None for a word that never does
MIXED_LETTERS = {("binu", 2): {128, None}, ("binu", 3): {256},
                 ("skewed", 6): {64, 128, 256, 2048}}


@pytest.mark.parametrize("model,k,lengths", [
    ("binu", 2, (2, 30, 1000, 2000)), ("binu", 3, (3, 1000, 10 ** 5)),
    ("skewed", 6, (6, 30, 1000, 10 ** 5))])
def test_clump_scan_mixes_jumps(request, certified, model, k, lengths):
    # the words of one stack certify their lines at different letters:
    # AC and CA under binu have a Perron root that is not simple, so their
    # E never certifies a line and they take the powers to n, beside AA
    # and CC at 128 letters; the binary 3-mers under binu all certify at
    # 256, and the 6-mers under skewed at 64 to 2048 letters, in one
    # stack.  At n = k no word reads a line.  Every row is still the
    # single-word value.
    params = request.getfixturevalue(model)
    words = ["".join(t) for t in product("AC", repeat=k)]
    for n in lengths:
        certified.clear()
        scan = clump_scan(words, n, params)
        letters = set(certified)
        assert scan == [clump_scan([w], n, params)[0] for w in words]
        if n == k:
            assert letters == {None}
    assert letters == MIXED_LETTERS[model, k]


def direct_clump(words, n, params):
    """CLUMP p_n of each word by row 0 of the n-th power of its step
    matrix (direct_powers), clump_scan's fallback, over one stack."""
    k = len(words[0])
    c = _clump_matrices(_kmp_tables(words, params.alphabet),
                        *params.bnn_weights)
    return _hit_count(direct_powers(c, k, n), k).tolist()


@pytest.mark.parametrize("n", [10 ** 3, 10 ** 7])
def test_clump_walk_stops_soon_after_jump(table1, fallbacks, squarings,
                                          steps, certified, n):
    # every DNA 5-mer reversal class certifies its line of E at 128
    # letters, after four squarings and seven steps of the walk, and takes
    # no powers to n; at 1e3 those powers agree within their own rounding
    words = dna_classes(5)
    p = clump_scan(words, n, table1)
    assert not fallbacks
    assert sum(squarings) == 4 * len(words)
    assert sum(steps) == 7 * len(words)
    assert certified == [128] * len(words)
    if n == 1000:
        want = direct_clump(words, n, table1)
        assert max(abs(x - y) / y for x, y in zip(p, want)) < 1e-13


def test_clump_walk_one_letter_word_stops_at_once(table1, squarings, steps,
                                                  certified):
    # a one-letter word has B = 0, so E is linear from the first letter
    # on: its first three readings, at 2k = 2, 4 and 8 letters, certify
    # its line after one squaring, to letter 2, and three steps of the
    # walk, to 4 and on to 8
    clump_scan(["G"], 30, table1)
    assert certified == [8]
    assert squarings == [1]
    assert steps == [1, 1, 1]


def test_clump_defective_root_takes_direct_powers(binu, fallbacks,
                                                  squarings):
    # AC's avoidance matrix under binary-uniform has a Perron root that is
    # not simple, so its E reaches no line at a geometric rate and never
    # certifies: it goes on from the kernel's squares to the powers to n,
    # bitwise, squaring n.bit_length() - 1 times in all, as the powers
    # alone do
    n = 10 ** 6
    want = direct_clump(["AC"], n, binu)
    squarings.clear()
    assert clump_scan(["AC"], n, binu) == want
    assert fallbacks == [1]
    assert squarings == [1] * (n.bit_length() - 1)


@pytest.mark.parametrize("n", [1000, 10 ** 6, 10 ** 7])
def test_bnn_scan_matches_single_words(table1, n):
    words = ["".join(t) for t in product("ACGT", repeat=5)]
    assert bnn_scan(words, n, table1) == [bnn_probability(w, n, table1)
                                          for w in words]


@pytest.mark.parametrize("k", [5, 6])
def test_scans_over_full_stacks_match_single_words(table1, k):
    # one stack holds 145 5-mer or 74 6-mer pair matrices, so the classes
    # here fill one stack and start another; the walk's schedule depends
    # on k and n alone, so every word gets the value it gets alone
    s = k * (k + 1)
    words = dna_classes(k)[:_stack_words(s * s) + 3]
    for n in (1000, 10 ** 7):
        for scan in (bnn_scan, clump_scan):
            assert scan(words, n, table1) == [scan([w], n, table1)[0]
                                              for w in words]


# binary stacks whose words certify their lines at 64 to 2048 letters, or
# take the powers to n, in one stack each
MIXED_STACKS = [("binu", 5), ("biased_swap", 4), ("lopsided", 4),
                ("skewed", 6)]


@pytest.mark.parametrize("model,k", MIXED_STACKS)
def test_scans_over_mixed_stacks_match_single_words(request, model, k):
    # a word's readings decide only its own line: AACAC and CACAA under
    # binary-uniform, and AACA and ACAA under biased_swap, read p = 1 in
    # float before their lines certify, so alone they take the powers to
    # n; in a stack they do the same, though their mates read on, where
    # their own later readings are only rounding
    params = request.getfixturevalue(model)
    words = ["".join(t) for t in product("AC", repeat=k)]
    off = []
    for n in (128, 1000, 10 ** 4, 10 ** 6, 10 ** 8):
        for scan in (bnn_scan, clump_scan):
            alone = [scan([w], n, params)[0].hex() for w in words]
            got = [p.hex() for p in scan(words, n, params)]
            off += [(scan.__name__, w, n)
                    for w, p, q in zip(words, got, alone) if p != q]
    assert off == []


@pytest.mark.parametrize("model,k", MIXED_STACKS)
def test_mixed_stacks_return_a_row_per_word(request, fallbacks, certified,
                                            model, k):
    # where some words of a stack certify and others take the powers to n,
    # the law kernel still returns row 0 of the n-th power of every word,
    # in stack order: no word leaves its stack
    params = request.getfixturevalue(model)
    words = ["".join(t) for t in product("AC", repeat=k)]
    runs = len({min(w, w[::-1]) for w in words})
    mixed = 0
    for n in (128, 1000, 10 ** 4, 10 ** 6, 10 ** 8):
        for scan in (bnn_scan, clump_scan):
            fallbacks.clear()
            certified.clear()
            scan(words, n, params)
            assert fallbacks in ([], [runs])
            mixed += None in certified and set(certified) != {None}
    assert mixed


@pytest.mark.parametrize("k", [16, 20, 24])
def test_clump_long_random_words_match_bnn(table1, k):
    # three seeded random DNA words per length, whose lines certify at 128
    # or 256 letters after a walk of 31 to 63 steps: CLUMP, the term of
    # BNN first order in the rates, lies 1.4e-7 to 3.5e-7 relative above
    # BNN at 1e3 and at 1e6 alike; at 1e3 both agree with the powers to n
    # within 1e-12 relative, those powers' own rounding
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        word = "".join(rng.choice("ACGT") for _ in range(k))
        for n in (1000, 10 ** 6):
            bnn = bnn_scan([word], n, table1)[0]
            clump = clump_scan([word], n, table1)[0]
            assert 0 < clump / bnn - 1 < 1e-6
            if n == 1000:
                assert bnn == pytest.approx(direct_bnn([word], n, table1)[0],
                                            rel=1e-12, abs=0)
                assert clump == pytest.approx(
                    direct_clump([word], n, table1)[0], rel=1e-12, abs=0)


@pytest.mark.parametrize("model", ["binu", "toy_eps"])
def test_bnn_scan_spans_stacks(request, model):
    # three words past one full stack, so the last stack is short
    params = request.getfixturevalue(model)
    words = ["".join(t) for t in product("AC", repeat=6)]
    words = words[:_stack_words(42 * 42) + 3]
    for n in (6, 30, 1000):
        assert bnn_scan(words, n, params) == [bnn_probability(w, n, params)
                                              for w in words]


def capped_scan_is_single_words(params, lengths, monkeypatch):
    # a cap of ten 42 x 42 pair matrices cuts the 36 reversal classes of
    # the binary 6-mers into four stacks, the last one short
    words = ["".join(t) for t in product("AC", repeat=6)]
    alone = {n: [bnn_probability(w, n, params) for w in words]
             for n in lengths}
    monkeypatch.setattr(automata, "_STACK_ENTRIES", 10 * 42 * 42)
    for n, want in alone.items():
        assert bnn_scan(words, n, params) == want


def test_bnn_scan_spans_capped_stacks(toy_eps, monkeypatch):
    # every word certifies its law at 256 letters, or at 6 takes the
    # powers to n
    capped_scan_is_single_words(toy_eps, (6, 1000, 10 ** 7), monkeypatch)


def test_bnn_scan_words_leave_capped_stacks_apart(skewed, fallbacks,
                                                 monkeypatch):
    # the words of a stack certify their laws at 64 to 2048 letters,
    # after different squarings, and all stay in it; at 1000 the last of
    # them takes the powers to n.  By 2048 letters a mass has left its
    # window, and only the rescale lets that word certify.
    capped_scan_is_single_words(skewed, (6, 1000, 10 ** 4), monkeypatch)
    fallbacks.clear()
    bnn_scan(["".join(t) for t in product("AC", repeat=6)], 10 ** 4, skewed)
    assert not fallbacks


@pytest.mark.parametrize("word,model,n", [("ACGTA", "table1", 1000),
                                          ("CCCCT", "table1", 1000),
                                          ("ACGTA", "table1", 10 ** 7),
                                          ("AACA", "binu", 30)])
def test_bnn_reversal_symmetry(request, word, model, n):
    # letters are i.i.d. and mutate independently per position, so a word
    # and its reversal have one p_n: the decimal shadow certifies it, and
    # the kernel gives both words one float
    params = request.getfixturevalue(model)
    back = word[::-1]
    assert back != word
    pm, pr = bnn_decimal(word, n, params), bnn_decimal(back, n, params)
    assert abs(pm - pr) / pm < 1e-30
    assert bnn_probability(word, n, params) == bnn_probability(back, n, params)
    # the larger word takes its reversal's value, still within 1e-13 of its
    # own shadow
    assert abs(bnn_probability(max(word, back), n, params)
               - float(pr if back > word else pm)) / float(pm) < 1e-13


@pytest.mark.parametrize("k,runs", [(4, 136), (5, 544)])
def test_bnn_scan_runs_each_reversal_class_once(table1, monkeypatch, k,
                                                runs):
    built = []

    def counting(words, alphabet):
        built.extend(words)
        return _kmp_tables(words, alphabet)

    monkeypatch.setattr(automata, "_kmp_tables", counting)
    words = ["".join(t) for t in product("ACGT", repeat=k)]
    bnn_scan(words, 1000, table1)
    assert len(built) == len(set(built)) == runs
    assert all(w <= w[::-1] for w in built)


def test_bnn_scan_rejects_bad_word_lists(table1):
    with pytest.raises(ValueError, match="no words"):
        bnn_scan([], 1000, table1)
    with pytest.raises(ValueError, match="one length"):
        bnn_scan(["ACGT", "ACG"], 1000, table1)
    with pytest.raises(ValueError, match="text length"):
        bnn_scan(["ACG", "CGT"], 2, table1)
    with pytest.raises(ValueError, match="not in alphabet"):
        bnn_scan(["ACG", "ACX"], 1000, table1)


def test_bnn_powers_match_matrix_power():
    # row 0 of the second slice starts far below the window, so a first
    # vector taken from it is rescaled at once, and that rescale touches
    # neither the caller's stack nor the squares still to come
    x = np.array([[[0.5, 0.25], [0.25, 0.5]],
                  [[2.0 ** -80, 2.0 ** -81], [1.0, 0.5]]])
    before = x.copy()
    for n in (1, 3, 6, 100):
        u = direct_powers(x, 1, n)
        assert (x == before).all()
        # squares handed in, with room for a third slice, give bitwise
        # the same powers
        u2 = direct_powers(x, 1, n, np.full((2, 3, 2, 2), np.nan))
        assert (u2 == u).all()
        assert (x == before).all()
        for w in range(2):
            # each slice is its row 0 times a power of two
            want = np.linalg.matrix_power(x[w], n)[0]
            assert u[w, 0] / u[w, 0].sum() == pytest.approx(
                want / want.sum(), rel=1e-12, abs=0)


def test_bnn_powers_raise_when_a_mass_vanishes():
    # the second slice is nilpotent, so its third power has no mass
    x = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ArithmeticError, match="vanished"):
        direct_powers(x, 1, 3)
    # row 0 of the first slice's third power is (1/2, 1/2)
    assert direct_powers(x[:1], 1, 3).tolist() == [[[0.5, 0.5]]]


def test_to_dot_smoke(ac, autos):
    dot = to_dot(autos["AAA"])
    assert dot.startswith("digraph")
    assert "->" in dot
    assert "AACAA" in dot
    edge = re.compile(r'n(\d+) -> n(\d+) \[label="([AC])(~?)"\]')
    seen = set()
    for b in ("AAA", "AACA"):
        for mark in (None, ("A", "C")):
            ca = clump_automaton(b, ac, mark=mark)
            edges = edge.findall(to_dot(ca))
            assert len(edges) == len(ca.dfa.delta)
            # a tilde marks exactly the transitions into a marked state
            for q, t, a, tilde in edges:
                assert ca.dfa.delta[(int(q), a)] == int(t)
                assert (tilde == "~") == (ca.state_mark[int(t)] == 1)
            seen.update((b, mark, tilde) for *_, tilde in edges)
    # no position of AAA holds a C, so it has no A->C hit
    assert ("AAA", ("A", "C"), "~") not in seen
    assert {("AAA", None, "~"), ("AACA", None, "~"),
            ("AACA", ("A", "C"), "~")} <= seen


# the single-word call, the scan and the direct powers of each route
ROUTES = {"BNN": (bnn_probability, bnn_scan, direct_bnn),
          "CLUMP": (clump_probability, clump_scan, direct_clump)}


@pytest.mark.parametrize("route", ROUTES)
def test_line_memo_matches_kernel_every_5mer(table1, certified, route):
    # every DNA 5-mer class certifies at 128 letters, so from n = 256 on a
    # stored line answers: the first call on a word runs the kernel and
    # every later one reads its line, bitwise the kernel's value, whether
    # the small or the large n comes first
    single, scan, _ = ROUTES[route]
    words = dna_classes(5)
    lengths = (256, 1000, 10 ** 5, 10 ** 8)
    want = {n: scan(words, n, table1) for n in lengths}
    certified.clear()
    for order in (lengths, lengths[::-1]):
        automata._LINES.clear()
        for n in order:
            assert [single(w, n, table1) for w in words] == want[n]
    assert certified == [128] * (2 * len(words))
    assert len(automata._LINES) == len(words)


@pytest.mark.parametrize("route", ROUTES)
def test_line_memo_answers_repeats_without_the_kernel(table1, certified,
                                                      route):
    # a second call at another n, on the word or its reversal, runs no
    # kernel; below twice the certifying letter (128) the kernel runs
    # again, takes the powers to n and keeps the stored line
    single, scan, direct = ROUTES[route]
    p = single("ACGTA", 1000, table1)
    assert certified == [128]
    assert single("ATGCA", 10 ** 5, table1) == scan(["ACGTA"], 10 ** 5,
                                                    table1)[0]
    assert single("ACGTA", 1000, table1) == p
    assert single("ACGTA", 256, table1) == scan(["ACGTA"], 256, table1)[0]
    assert certified == [128] * 3
    stored = dict(automata._LINES)
    for n in (128, 255):
        assert single("ACGTA", n, table1) == direct(["ACGTA"], n, table1)[0]
    assert certified == [128] * 3 + [None] * 2
    assert automata._LINES == stored


@pytest.mark.parametrize("route", ROUTES)
def test_line_memo_is_not_for_scans(table1, certified, route):
    # a scan neither fills the memo nor reads it, so it runs its kernel
    # at every call, even over words whose lines are stored
    single, scan, _ = ROUTES[route]
    scan(["ACGTA", "AAAAC"], 1000, table1)
    assert not automata._LINES
    single("ACGTA", 1000, table1)
    scan(["ACGTA"], 10 ** 5, table1)
    assert certified == [128] * 4
    assert len(automata._LINES) == 1


@pytest.mark.parametrize("route", ROUTES)
def test_line_memo_keeps_models_apart(table1, skewed, route):
    # ACCA certifies at 128 letters under both models, over other letter
    # weights and alphabets: each model reads its own line
    single, scan, _ = ROUTES[route]
    for n in (1000, 10 ** 4):
        for params in (table1, skewed, table1):
            assert single("ACCA", n, params) == scan(["ACCA"], n, params)[0]
    assert len(automata._LINES) == 2
    assert single("ACCA", 10 ** 4, skewed) != single("ACCA", 10 ** 4, table1)


@pytest.mark.parametrize("route", ROUTES)
def test_line_memo_sees_weights_changed_in_place(route):
    # the weights are part of the key, byte for byte, so a model whose
    # arrays change in place reads no stale line
    single, scan, _ = ROUTES[route]
    params = load_params("table1")
    old = single("ACGTA", 1000, params)
    for arr in params.bnn_weights:
        arr *= 1.5
        assert single("ACGTA", 1000, params) == scan(["ACGTA"], 1000,
                                                     params)[0]
    assert single("ACGTA", 1000, params) != old
    assert len(automata._LINES) == 3


@pytest.mark.parametrize("route,word,lengths", [
    ("BNN", "AA", (2, 30, 100, 1000)), ("CLUMP", "AC", (2, 30, 1000))])
def test_line_memo_stores_no_uncertified_word(binu, certified, route,
                                              word, lengths):
    # under binary-uniform AA by BNN reads p = 1 in float before its line
    # certifies, and AC by CLUMP has a Perron root that is not simple:
    # neither stores a line, and each call runs the kernel and returns or
    # raises as the scan's value says
    single, scan, _ = ROUTES[route]
    for n in lengths * 2:
        want = scan([word], n, binu)[0]
        if 0.0 < want < 1.0:
            assert single(word, n, binu) == want
        else:
            with pytest.raises(ArithmeticError, match="out of range"):
                single(word, n, binu)
    assert not automata._LINES
    assert certified == [None] * (2 * 2 * len(lengths))


@pytest.mark.parametrize("route", ROUTES)
def test_line_memo_checks_before_it_answers(table1, certified, route):
    # the word and length checks run before the memo is read, and the
    # range check after it: a length that is no integer, a bad word or a
    # short text raises even where a line would answer, and so does a
    # value off the range, read off the line
    single, _, _ = ROUTES[route]
    single("ACGTA", 1000, table1)
    (key, law), = automata._LINES.items()
    with pytest.raises(TypeError, match=r"text length 100000\.0 is not"):
        single("ACGTA", 1e5, table1)
    with pytest.raises(ArithmeticError, match="out of range"):
        single("ACGTA", 10 ** 13, table1)
    # lines planted for a bad word, and at one letter for a short text
    automata._LINES[key[:-1] + ("ACGTN",)] = law
    with pytest.raises(ValueError, match="not in alphabet"):
        single("ACGTN", 1000, table1)
    automata._LINES[key] = law[:2] + (1,)
    with pytest.raises(ValueError, match="text length"):
        single("ACGTA", 4, table1)
    assert certified == [128]


def test_line_memo_drops_the_oldest_at_its_cap(table1, monkeypatch,
                                               certified):
    monkeypatch.setattr(automata, "LINE_MEMO_WORDS", 3)
    words = ["AAAAC", "ACGTA", "ACCGT", "AGATT"]
    for w in words:
        bnn_probability(w, 1000, table1)
    assert [key[-1] for key in automata._LINES] == words[1:]
    # AAAAC is gone, so it runs the kernel again and ACGTA goes; AGATT
    # is still there
    bnn_probability("AAAAC", 10 ** 5, table1)
    bnn_probability("AGATT", 10 ** 5, table1)
    assert [key[-1] for key in automata._LINES] == words[2:] + words[:1]
    assert certified == [128] * 5


def test_line_memo_shared_by_threads(table1, monkeypatch):
    # more threads than cores fill and evict a small memo at once, with
    # short switch intervals: no eviction fails, the cap holds, and every
    # answer is the scan's
    monkeypatch.setattr(automata, "LINE_MEMO_WORDS", 5)
    words = dna_classes(5)[::17]
    lengths = (1000, 10 ** 5)
    want = {n: bnn_scan(words, n, table1) for n in lengths}
    got, errors = {}, []

    def work(i):
        try:
            for n in lengths:
                got[i, n] = [bnn_probability(w, n, table1)
                             for w in words[i::2] + words[1 - i::2]]
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 2,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(automata._LINES) <= 5
    for (i, n), values in got.items():
        order = words[i::2] + words[1 - i::2]
        assert values == [want[n][words.index(w)] for w in order]


@pytest.mark.parametrize("k", [16, 24])
def test_walk_row_sum_bound_checks_once_per_doubling(table1, monkeypatch, k):
    # a long word's square has slice masses near its order, so the slice
    # bound fails over a doubling; the largest row sum, at most 1 here,
    # still keeps every step in the window, so the walk checks no vector
    # step by step (only n's bit products would be vectors, and 1000 has
    # none below the one squaring) and gives bitwise the per-step values
    word = "".join(random.Random(k).choice("ACGT") for _ in range(k))
    want = [scan([word], 1000, table1) for scan in (bnn_scan, clump_scan)]
    vectors = []
    drift = automata._drift

    def counting(y, one):
        if y.shape[1] == 1:
            vectors.append(len(y))
        return drift(y, one)
    monkeypatch.setattr(automata, "_drift", counting)
    assert want == [scan([word], 1000, table1)
                    for scan in (bnn_scan, clump_scan)]
    assert not vectors

    def every_step(r, y, steps, one, grow, high):
        for _ in range(steps):
            r = np.matmul(r, y)
            high = drift(r, one)
        return r, high
    monkeypatch.setattr(automata, "_walk", every_step)
    assert want == [scan([word], 1000, table1)
                    for scan in (bnn_scan, clump_scan)]
