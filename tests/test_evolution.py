"""Model parameters, the three probability routes, and growth constants."""

import math
import re
from fractions import Fraction as F
from itertools import product as iproduct

import numpy as np
import pytest

from kmerwait import automata, evolution
from kmerwait.automata import (
    _det_one_minus_y,
    bnn_probability,
    clump_automaton,
    clump_moment_series,
    clump_scan,
    clump_series,
    state_marks,
    transfer_matrix,
)
from kmerwait.evolution import (
    ModelParams,
    asymptotics,
    bv_probability,
    clump_probability,
    expected_hits,
    hit_series,
    load_params,
    scan_kmers,
    waiting_time,
)
from kmerwait.languages import marked_code_gf, rs_solve
from kmerwait.oracle import bnn_decimal, bnn_first_order, enumerate_census, \
    exact_pn_tiny
from kmerwait.words import Alphabet, minimal_period

from conftest import SWAP, TOYS, UNIFORM, automaton_clump, \
    automaton_growth, weighted_marks


def test_load_table1_values(table1):
    assert table1.alphabet.symbols == ("A", "C", "G", "T")
    assert table1.nu["A"] == F(23889, 100000)
    assert table1.nu["C"] == F(13121, 50000)
    assert sum(table1.nu.values()) == 1
    assert table1.p1["A"]["C"] == F(454999995, 10 ** 17)
    # the file's rounded 0.999999996 gives way to 1 minus the row's
    # off-diagonal entries
    assert table1.p1["A"]["A"] == (1 - F("4.54999995e-09")
                                   - F("1.57499996e-08") - F("3.40000002e-09"))
    assert table1.max_mutation() == pytest.approx(2.17499994e-08, rel=1e-12,
                                                  abs=0)


def test_load_binary_uniform(binu):
    assert binu.alphabet.symbols == ("A", "C")
    assert binu.nu["A"] == F(1, 2)
    assert binu.p1["A"]["C"] == 1
    assert binu.p1["A"]["A"] == 0


def test_mutation_types_order(table1, binu):
    assert binu.mutation_types() == [("A", "C"), ("C", "A")]
    types = table1.mutation_types()
    assert len(types) == 12
    assert types[0] == ("A", "C")
    assert types[-1] == ("T", "G")


def test_load_params_file_errors(tmp_path):
    def attempt(body):
        f = tmp_path / "m.params"
        f.write_text(body)
        with pytest.raises(ValueError) as err:
            load_params(str(f))
        return str(err.value)

    msg = attempt("nu A 0.5\nnu C 0.5\nfoo bar baz\n")
    assert "line 3" in msg and "malformed" in msg
    msg = attempt("nu A 0.5\nnu A 0.5\n")
    assert "duplicate letter" in msg
    msg = attempt("nu A 0.5\nnu C 0.5\np A X 0.5\n")
    assert "undeclared letter" in msg
    msg = attempt(
        "nu A 0.5\nnu C 0.5\n"
        "p A A 0.8\np A C 0.1\np C A 0.5\np C C 0.5\n")
    assert "sums to" in msg
    msg = attempt(
        "nu A 0.5\nnu C 0.5\n"
        "p A A 0.9\np C A 0.1\np C C 0.9\n")
    assert "misses entry" in msg


def test_substitution_rows_sum_to_one(table1, binu, tmp_path):
    # each diagonal is set to 1 minus its row's off-diagonal entries, so
    # every row sums to exactly 1, the file's rounded ones included
    f = tmp_path / "rounded.params"
    f.write_text("nu A 0.5\nnu C 0.5\n"
                 "p A A 0.99999999\np A C 0.00000005\n"
                 "p C A 0.00000003\np C C 0.99999996\n")
    custom = load_params(str(f))
    assert custom.p1["A"]["A"] == F("0.99999995")
    for params in (table1, binu, custom):
        for row in params.p1.values():
            assert sum(row.values()) == F(1)


def test_load_params_renormalizes_tiny_drift(tmp_path):
    f = tmp_path / "drift.params"
    f.write_text(
        "nu A 0.33333333333333\nnu C 0.66666666666666\n"
        "p A A 1\np A C 0\np C A 0\np C C 1\n")
    params = load_params(str(f))
    assert sum(params.nu.values()) == 1
    assert float(params.nu["A"]) == pytest.approx(1 / 3, abs=1e-13)


def test_model_params_validation(ac):
    with pytest.raises(ValueError):
        ModelParams(ac, {"A": F(1, 2)}, {})
    with pytest.raises(ValueError):
        ModelParams(ac, {"A": F(1, 2), "C": F(1, 4)},
                    {"A": {"A": 1, "C": 0}, "C": {"A": 0, "C": 1}})
    with pytest.raises(ValueError):
        ModelParams(ac, dict(UNIFORM),
                    {"A": {"A": F(3, 2), "C": F(-1, 2)},
                     "C": {"A": 0, "C": 1}})
    # a negative stay probability with a row still summing to 1
    with pytest.raises(ValueError, match="negative"):
        ModelParams(ac, dict(UNIFORM),
                    {"A": {"A": F(-1, 2), "C": F(3, 2)},
                     "C": {"A": 0, "C": 1}})
    # off-diagonal entries that pass ROW_SUM_TOL but exceed 1 leave no
    # staying mass
    with pytest.raises(ValueError, match="negative diagonal"):
        ModelParams(ac, dict(UNIFORM),
                    {"A": {"A": 0, "C": F("1.00000005")},
                     "C": {"A": 0, "C": 1}})
    # a column for a letter outside the alphabet
    with pytest.raises(ValueError, match="outside the alphabet"):
        ModelParams(ac, dict(UNIFORM),
                    {"A": {"A": F(9, 10), "C": F(1, 10), "G": F(1, 2)},
                     "C": {"A": 0, "C": 1}})


@pytest.mark.parametrize("nu", [
    {"A": F(1)},
    {"A": F(1), "C": F(0)},
    {"A": F(1, 2), "C": F(1, 4)},
], ids=["missing", "zero", "sum"])
def test_letter_distribution_checked_everywhere(ac, nu):
    swap = {"A": {"A": 0, "C": 1}, "C": {"A": 1, "C": 0}}
    routes = [
        lambda: ModelParams(ac, nu, swap),
        lambda: rs_solve(("AAA",), ac, nu),
        lambda: marked_code_gf("AAA", ac, nu),
        lambda: transfer_matrix(clump_automaton("AAA", ac), nu),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="letter"):
            route()


@pytest.mark.parametrize("mark", [("A", ""), ("AC", "A"), ("A", "A"),
                                  ("A", "G")])
def test_substitution_type_checked_everywhere(ac, mark):
    routes = [
        lambda: clump_automaton("AAA", ac, mark=mark),
        lambda: state_marks(clump_automaton("AAA", ac), mark),
        lambda: marked_code_gf("AAA", ac, UNIFORM, mark=mark),
        lambda: enumerate_census("AAA", 5, ac, UNIFORM, mark=mark),
    ]
    for route in routes:
        with pytest.raises(ValueError):
            route()


def _bv_numerator(b, n, a, d, top):
    """The first top terms of BV's alternating sum, as the integer
    numerator over d**top, with a/d the one-position probability."""
    k = len(b)
    total = 0
    for ell in range(1, top + 1):
        term = math.comb(n - (k - 1) * ell, ell) * a ** ell
        total = total * d + (term if ell % 2 else -term)
    return total


def test_bv_truncation_matches_full_sum(table1):
    """BV drops the terms below 1e-30 of its partial sum.  At n = 1000 all
    n // k terms are summed here exactly.  At n = 1e5 (20000 terms) the
    first 60 are, and the rest is no larger than the 61st term: n p < 1
    bounds each term's size by n p / ell times the one before, so the
    terms alternate with decreasing size."""
    for b in ("AAAAA", "CGCGC"):
        k = len(b)
        p = (math.prod(table1.mutated[c] for c in b)
             - math.prod(table1.stay[c] for c in b))
        a, d = p.numerator, p.denominator
        top = 1000 // k
        full = _bv_numerator(b, 1000, a, d, top)
        assert full / d ** top == bv_probability(b, 1000, table1)
        n, top = 10 ** 5, 60
        assert n * p < 1
        head = _bv_numerator(b, n, a, d, top) * d
        tail = math.comb(n - (k - 1) * (top + 1), top + 1) * a ** (top + 1)
        scale = d ** (top + 1)
        assert (head - tail) / scale == (head + tail) / scale \
            == bv_probability(b, n, table1)


def test_expected_hits_small(toy_eps):
    eh = expected_hits("AAA", 3, toy_eps)
    assert eh.raw == F(3, 8)
    assert eh.conditioned == F(3, 7)
    assert eh.fbar == F(7, 8)


def test_expected_hits_below_length(toy_eps):
    eh = expected_hits("AAA", 2, toy_eps)
    assert eh.raw == 0 and eh.conditioned == 0 and eh.fbar == 1


def test_negative_lengths_raise(ac, toy_eps):
    ca = clump_automaton("AAA", ac)
    for call in (lambda: expected_hits("AAA", -1, toy_eps),
                 lambda: clump_moment_series(ca, toy_eps.nu, -1),
                 lambda: clump_moment_series(ca, toy_eps.nu, -1, exact=False),
                 lambda: clump_series(ca, toy_eps.nu, -1)):
        with pytest.raises(ValueError, match="negative"):
            call()


@pytest.mark.parametrize("n", [1e5, 1000.0, "1000"])
def test_lengths_that_are_no_integer_raise(table1, binu, n):
    # every public route raises TypeError naming the length, the BNN and
    # CLUMP calls also where a stored line would answer that n, and so do
    # the clump automaton's series, exact on binary and float on DNA
    ca = clump_automaton("ACAC", binu.alphabet)
    calls = [lambda: bnn_probability("ACGTA", n, table1),
             lambda: clump_probability("ACGTA", n, table1),
             lambda: bv_probability("ACGTA", n, table1),
             lambda: expected_hits("ACAC", n, binu),
             lambda: expected_hits("ACGTA", n, table1),
             lambda: hit_series("ACAC", n, binu),
             lambda: hit_series("ACGTA", n, table1),
             lambda: clump_series(ca, binu.nu, n),
             lambda: clump_moment_series(ca, binu.nu, n),
             lambda: clump_moment_series(ca, binu.nu, n, exact=False)]
    for method in ("BV", "BNN", "CLUMP"):
        calls += [lambda m=method: waiting_time("ACGTA", n, table1, m),
                  lambda m=method: scan_kmers(3, n, table1, m)]
    bnn_probability("ACGTA", 1000, table1)
    clump_probability("ACGTA", 1000, table1)
    for call in calls:
        with pytest.raises(TypeError, match="text length %s is not an "
                           "integer" % re.escape(repr(n))):
            call()


@pytest.mark.parametrize("method", ["BV", "BNN", "CLUMP"])
def test_numpy_int_lengths_are_lengths(table1, method):
    for n in (1000, 10 ** 5):
        want = waiting_time("ACGTA", n, table1, method).p_n
        assert waiting_time("ACGTA", np.int64(n), table1,
                            method).p_n == want
    want = [r.p_n for r in scan_kmers(3, 1000, table1, method)]
    assert [r.p_n for r in scan_kmers(3, np.int64(1000), table1,
                                      method)] == want


def test_expected_hits_typed_decomposition(toy_eps):
    for b in ("ACC", "AACA"):
        whole = expected_hits(b, 10, toy_eps)
        parts = [expected_hits(b, 10, toy_eps, mark=ty)
                 for ty in toy_eps.mutation_types()]
        assert sum(p.raw for p in parts) == whole.raw
        assert whole.conditioned == whole.raw / whole.fbar


def test_avoiding_mass_never_increases(toy_eps):
    last = 1
    for n in range(4, 16):
        fb = expected_hits("ACAC", n, toy_eps).fbar
        assert fb <= last
        last = fb


def test_clump_route_against_enumeration(toy_eps):
    c = clump_probability("ACAC", 14, toy_eps)
    e = exact_pn_tiny("ACAC", 14, toy_eps)
    assert abs(c - float(e)) / float(e) < 1e-4


def test_clump_route_against_bnn(toy_eps):
    for b in ("AAA", "AACC"):
        c = clump_probability(b, 100, toy_eps)
        p = bnn_probability(b, 100, toy_eps)
        assert abs(c - p) / p < 1e-3


@pytest.mark.parametrize("model", ["toy_eps", "binu"])
@pytest.mark.parametrize("b", TOYS + ("AC",))
def test_clump_walk_matches_exact_series(request, ac, b, model):
    """CLUMP's one route, the law kernel over the pair states, against the
    exact rational moment series on binary alphabets."""
    params = request.getfixturevalue(model)
    types = params.mutation_types()
    ca = clump_automaton(b, ac)
    fbar, hits = clump_moment_series(
        ca, params.nu, 1000, [state_marks(ca, ty) for ty in types], exact=True)
    for n in (14, 100, 1000):
        want = float(sum(hits[i][n] * params.p1[a][c]
                         for i, (a, c) in enumerate(types)) / fbar[n])
        got = clump_scan([b], n, params)[0]
        assert abs(got - want) <= 1e-12 * want


def test_clump_long_texts_match_bnn(table1):
    # at n = 20000 the avoiding mass of AC is subnormal (7.5e-322); the
    # rescaled kernel never forms it.  CLUMP is BNN's term that is first
    # order in the mutation rates, so it lies above BNN by about n times
    # a rate: 2.2e-9 n relative for AC, 7.2e-11 n for ACGTA and 5.5e-11 n
    # for CCCCC.
    p10 = clump_probability("AC", 10000, table1)
    p20 = clump_probability("AC", 20000, table1)
    assert p20 / p10 == pytest.approx(2.0, rel=1e-3)
    for b, n, p in (("AC", 20000, p20),
                    ("ACGTA", 10 ** 5, clump_probability("ACGTA", 10 ** 5,
                                                         table1)),
                    ("CCCCC", 10 ** 6, clump_probability("CCCCC", 10 ** 6,
                                                         table1))):
        bnn = bnn_probability(b, n, table1)
        assert abs(p - bnn) / bnn <= 5e-8 * n
    # the unconditioned masses that expected_hits returns are not floats
    # there
    with pytest.raises(ArithmeticError):
        expected_hits("AC", 20000, table1)


@pytest.mark.parametrize("b", ["A" * 36, "ACGT" * 8])
def test_clump_long_words_match_bnn(table1, b):
    # the kernel reads E only from letter 2k on, after the first hits at
    # letter k = 36 or 32, so it reads no line through the zeros before
    # them (A x 36 reads none at n = 1000 and takes the powers to n), and
    # CLUMP lies 2.4e-7 (A x 36) and 4.5e-7 (ACGT x 8) relative above BNN
    assert clump_probability(b, 1000, table1) == pytest.approx(
        bnn_probability(b, 1000, table1), rel=1e-4, abs=0)


@pytest.mark.parametrize("b", ["ACGTA", "CCCCC"])
def test_bnn_matches_clump_with_renormalized_rows(table1, b):
    # with rows summing to 1 the gap is first order in n times the
    # mutation rate, 7.2e-11 n (ACGTA) and 5.6e-11 n (CCCCC) relative
    for n in (10 ** 5, 10 ** 6, 10 ** 7):
        bnn = bnn_probability(b, n, table1)
        assert clump_probability(b, n, table1) == pytest.approx(
            bnn, rel=1e-9 * n, abs=0)


def _full_walk(b, n, params):
    """CLUMP without its law: the float moment series run to n."""
    ca = clump_automaton(b, params.alphabet)
    weight = {(a, c): float(params.p1[a][c])
              for a, c in params.mutation_types()}
    fbar, (hits,) = clump_moment_series(
        ca, params.nu, n, [weighted_marks(ca, weight)], exact=False)
    return hits[n] / fbar[n]


@pytest.mark.parametrize("b", ["ACGTA", "CCCCC", "AAAAAAAA"])
def test_clump_stop_rule_matches_full_walk(table1, b):
    """The kernel certifies the law at a few hundred letters at most and
    extends it to n; the float series stepped through all n letters
    agrees."""
    n = 10 ** 5
    got = clump_probability(b, n, table1)
    assert got == pytest.approx(_full_walk(b, n, table1), rel=1e-12, abs=0)


@pytest.mark.parametrize("b, model", [("AC", "binu"), ("ACC", "biased_swap")])
def test_clump_walk_defective_root_runs_to_n(request, ac, b, model):
    """The Perron roots of these transfer matrices are not simple, so the
    conditioned count reaches no linear law at a geometric rate and the
    steps of the centred hit vector decay only like 1/n.  The law kernel
    must not certify a line there: it takes row 0 of the n-th power,
    which matches the exact series."""
    params = request.getfixturevalue(model)
    types = params.mutation_types()
    ca = clump_automaton(b, ac)
    n = 2000
    fbar, hits = clump_moment_series(
        ca, params.nu, n, [state_marks(ca, ty) for ty in types])
    want = float(sum(hits[i][n] * params.p1[a][c]
                     for i, (a, c) in enumerate(types)) / fbar[n])
    got = clump_scan([b], n, params)[0]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("b, model, n_max", [
    (b, model, 40) for model in ("toy_eps", "binu", "biased_swap")
    for b in TOYS] + [("ACG", "table1", 8), ("GATA", "table1", 8)])
def test_clump_is_first_order_bnn_exactly(request, b, model, n_max):
    """The eps coefficient of the BNN quotient with pair weights
    nu(x) + eps nu(x) p1(x, y) (y != x), walked in Fractions by the
    oracle, is the exact clump census's substitution-weighted conditioned
    hit count: the identity that automata.clump_scan computes in floats."""
    params = request.getfixturevalue(model)
    types = params.mutation_types()
    ca = clump_automaton(b, params.alphabet)
    fbar, hits = clump_moment_series(ca, params.nu, n_max,
                                     [state_marks(ca, ty) for ty in types])
    for n in (len(b), 7, n_max):
        want = sum(hits[i][n] * params.p1[a][c]
                   for i, (a, c) in enumerate(types)) / fbar[n]
        assert bnn_first_order(b, n, params) == want


def test_clump_one_letter_word(table1, toy_eps):
    # a one-letter word has no substitution neighborhood to build a clump
    # automaton from, but the pair-state kernel still gives its first-order
    # term: every position of an avoiding text is a putative hit
    for params, b in ((table1, "G"), (toy_eps, "A")):
        for n in (1, 30):
            assert clump_probability(b, n, params) == pytest.approx(
                float(bnn_first_order(b, n, params)), rel=1e-15, abs=0)
    assert clump_probability("A", 30, toy_eps) == pytest.approx(3e-5,
                                                                rel=1e-15)


@pytest.mark.parametrize("b", ["ACG", "GATA"])
def test_clump_short_texts_match_first_order(table1, b):
    # texts too short for the kernel's three readings, from letter 2k on:
    # it reads no line and takes row 0 of the n-th power
    for n in (len(b), 7, 20):
        assert clump_probability(b, n, table1) == pytest.approx(
            float(bnn_first_order(b, n, table1)), rel=1e-14, abs=0)


DNA_5MER_CLASSES = sorted({min(w, w[::-1]) for w in
                           map("".join, iproduct("ACGT", repeat=5))})


@pytest.fixture(scope="module")
def dna_5mer_automata(dna):
    """The clump automaton of every DNA 5-mer reversal class, built once
    for the CLUMP and the growth-constant certificates."""
    assert len(DNA_5MER_CLASSES) == 544
    return {b: clump_automaton(b, dna) for b in DNA_5MER_CLASSES}


def test_clump_matches_automaton_walk_every_5mer(table1, dna_5mer_automata):
    """Every DNA 5-mer reversal class: the pair-state kernel of
    clump_probability against the clump automaton's stop-rule walk."""
    for b, ca in dna_5mer_automata.items():
        for n in (10 ** 3, 10 ** 5, 10 ** 7):
            assert clump_probability(b, n, table1) == pytest.approx(
                automaton_clump(ca, n, table1), rel=1e-13, abs=0)


@pytest.mark.parametrize("b", ["AAAAAC", "ACGTTG", "GGCGGC", "TATATA",
                               "ACCAGTA", "CGCGCGC", "GATTACA",
                               "AAAAAAAA", "ACGTACGT", "CCTAGGTC"])
def test_clump_matches_automaton_walk_longer_words(table1, b):
    ca = clump_automaton(b, table1.alphabet)
    for n in (10 ** 3, 10 ** 5, 10 ** 7):
        assert clump_probability(b, n, table1) == pytest.approx(
            automaton_clump(ca, n, table1), rel=1e-13, abs=0)


def _assert_ranks_match(clump, bnn):
    assert [r.word for r in clump] == [r.word for r in bnn]
    for c, p in zip(clump, bnn):
        assert c.p_n == pytest.approx(p.p_n, rel=1e-4, abs=0)
    # ranks are a permutation, so Spearman's rho has its tie-free form
    count = len(clump)
    d2 = sum((c.rank - p.rank) ** 2 for c, p in zip(clump, bnn))
    assert 1 - 6 * d2 / (count * (count ** 2 - 1)) >= 0.999

    def top(rows):
        return {r.word for r in rows if r.rank <= 10}
    assert top(clump) == top(bnn)


def test_clump_builds_no_automaton(table1, binu, monkeypatch):
    """CLUMP and the growth constants run on the pair states alone: no
    clump automaton, no transfer matrix, no walk over it and no call of
    bnn_scan."""
    def refuse(*args):
        raise AssertionError("CLUMP left the pair-state walk")
    # every module that holds one of these names gets the refusal
    for name in ("clump_automaton", "transfer_matrix", "_float_walk",
                 "bnn_scan"):
        monkeypatch.setattr(automata, name, refuse)
        if hasattr(evolution, name):
            monkeypatch.setattr(evolution, name, refuse)
    assert waiting_time("ACGTA", 1000, table1, "CLUMP").p_n > 0
    assert len(scan_kmers(3, 1000, table1, "CLUMP")) == 64
    assert asymptotics("ACAC", binu).C1 > 0
    assert asymptotics("ACGTA", table1).C1 > 0


def test_clump_scan_ranks_match_bnn(table1):
    clump = scan_kmers(4, 1000, table1, "CLUMP")
    _assert_ranks_match(clump, scan_kmers(4, 1000, table1, "BNN"))
    count = len(clump)
    assert {r.word for r in clump if r.rank > count - 4} == \
        {"AAAA", "CCCC", "GGGG", "TTTT"}


def test_clump_scan_5mer_ranks_match_bnn(table1):
    _assert_ranks_match(scan_kmers(5, 1000, table1, "CLUMP"),
                        scan_kmers(5, 1000, table1, "BNN"))


def test_waiting_time_dispatch(table1):
    res = waiting_time("AAAAA", 1000, table1, method="bnn")
    assert res.method == "BNN"
    assert res.expected_T == 1.0 / res.p_n
    bv = waiting_time("AAAAA", 1000, table1, method="BV")
    # the two methods answer different questions; for AAAAA the expected
    # times sit in a known ratio near 1.39
    assert res.expected_T / bv.expected_T == pytest.approx(1.392, abs=5e-3)
    with pytest.raises(ValueError):
        waiting_time("AAAAA", 1000, table1, method="magic")


def test_waiting_time_rejects_degenerate(table1):
    # below the word length nothing can appear; every method rejects the
    # length itself rather than computing p_n = 0
    for method in ("BV", "BNN", "CLUMP"):
        for n in (3, -1):
            with pytest.raises(ValueError, match="pattern length"):
                waiting_time("AAAAA", n, table1, method=method)
    with pytest.raises(ValueError, match="empty word"):
        bv_probability("", 10, table1)


FROZEN = {
    #        tau           psi        C1            C2             B
    "AAA": (1.0873780254, 1.046050, 0.2368398446, -0.3365586721,
            0.400890564601),
    "ACC": (1.2360679775, 1.532624, 0.4472135955, -0.8583592135,
            0.618033988750),
    "ACAC": (1.0620201129, 1.119325, 0.2452503889, -0.6855653517,
             0.531010056460),
    "AACC": (1.0873780254, 1.246356, 0.3068491681, -1.1136350388,
             0.543689012692),
    "AACA": (1.0713747736, 1.146088, 0.2719329227, -0.7445839622,
             0.464312613208),
}


@pytest.mark.parametrize("b", TOYS)
def test_asymptotic_constants(binu, b):
    tau, psi, c1, c2, decay = FROZEN[b]
    a = asymptotics(b, binu)
    assert a.tau == pytest.approx(tau, abs=2e-9)
    assert a.psi == pytest.approx(psi, rel=1e-6)
    assert a.C1 == pytest.approx(c1, abs=2e-9)
    assert a.C2 == pytest.approx(c2, abs=2e-9)
    # B is the spectral gap |lam2|/lam of the transfer matrix
    assert a.B == pytest.approx(decay, abs=1e-10)
    assert 0 < a.B < 1


def test_asymptotics_acc_closed_forms(binu):
    """The avoiding radius of ACC solves 8 - 8 tau + tau^3 = 0, so every
    constant collapses to a surd."""
    a = asymptotics("ACC", binu)
    s5 = math.sqrt(5)
    assert a.tau == pytest.approx(s5 - 1, abs=1e-14)
    assert a.C1 == pytest.approx(1 / s5, abs=1e-14)
    # hits flipping C to A only fit in the opening run of C letters, so
    # their conditioned count converges to a constant
    assert a.c1[("C", "A")] == 0.0
    assert a.c2[("C", "A")] == pytest.approx((s5 - 1) / 2, abs=1e-14)
    assert a.c1[("A", "C")] == pytest.approx(1 / s5, abs=1e-14)
    # the root tau = 2 of 8 - 8 tau + tau^3 is lam2 = 1/2, so B = |lam2|/lam
    # is (sqrt5 - 1)/2
    assert a.B == pytest.approx((s5 - 1) / 2, abs=1e-14)


@pytest.fixture(scope="module")
def skewed_swap(ac):
    return ModelParams(ac, {"A": F(1, 10), "C": F(9, 10)}, SWAP,
                       name="skewed-swap")


def test_asymptotics_double_perron_root_raises(biased_swap, binu):
    """Under A:1/3, C:2/3 the transfer matrix of ACC has a double Perron
    root, where the Perron-vector formulas do not hold.  So has AC under
    uniform letters: its avoiding texts are C*A*, a defective root."""
    for b, params in (("ACC", biased_swap), ("AC", binu)):
        with pytest.raises(ArithmeticError, match="not simple"):
            asymptotics(b, params)


@pytest.mark.parametrize("b, model", [(b, "binu") for b in TOYS + ("ACCC",)]
                         + [(b, "biased_swap") for b in TOYS + ("AC",)
                            if b != "ACC"]
                         + [("CCCCC", "table1"), ("GGAGG", "table1")])
def test_asymptotics_zero_slopes_match_exact_series(request, b, model):
    """c1 is exactly 0 for the types whose marked states all lie outside
    the dominant class (ACC's and ACCC's C->A hits fit only in the
    opening run of C letters; AC's A->C hits under A:1/3 only in the
    closing run of A letters, past the dominant run of C letters), and
    only for them: the exact series' own slope at n = 200 vanishes for
    the same types."""
    params = request.getfixturevalue(model)
    types = params.mutation_types()
    ca = clump_automaton(b, params.alphabet)
    fbar, hits = clump_moment_series(
        ca, params.nu, 200, [state_marks(ca, ty) for ty in types])
    a = asymptotics(b, params)
    for ty, hit in zip(types, hits):
        slope = hit[200] / fbar[200] - hit[199] / fbar[199]
        assert (a.c1[ty] == 0.0) == (abs(slope) < F(1, 10 ** 30))


@pytest.mark.parametrize("b, model", [(b, "binu") for b in TOYS]
                         + [(b, "biased_swap") for b in TOYS if b != "ACC"]
                         + [("".join(w), "table1")
                            for w in iproduct("ACGT", repeat=2)])
def test_asymptotics_decay_is_exact_spectral_gap(request, b, model):
    """B is |lam2|/lam of the transfer matrix: the roots of its exact
    characteristic polynomial give the same ratio, although asymptotics
    reads B off the k x k avoidance matrix, since the transfer matrix
    lumps onto it and is nilpotent on the rest."""
    params = request.getfixturevalue(model)
    tm = transfer_matrix(clump_automaton(b, params.alphabet), params.nu)
    # det(I - yA) low degree first is det(xI - A) high degree first; the
    # eigenvalues of A = D H are those of H times D, with the same ratios
    roots = np.roots([float(c) for c in _det_one_minus_y(tm.rows)])
    mod = sorted(abs(roots))
    assert asymptotics(b, params).B == pytest.approx(mod[-2] / mod[-1],
                                                     abs=1e-12)


@pytest.mark.parametrize("b", ["AAAAAAAA", "CAAAAAAA"])
def test_asymptotics_skewed_letters_match_exact_series(skewed_swap, b):
    """Under A:1/10 the entries of the Perron vectors span seven decades,
    and each must be accurate relative to itself, or C1 and C2 move by
    about 5e-12.  The exact series' slope and intercept at n = 300 are
    the reference: B^300 is below 1e-290."""
    ca = clump_automaton(b, skewed_swap.alphabet)
    fbar, (hits,) = clump_moment_series(ca, skewed_swap.nu, 300)
    before, last = (hits[n] / fbar[n] for n in (299, 300))
    a = asymptotics(b, skewed_swap)
    assert a.C1 == pytest.approx(float(last - before), rel=5e-13, abs=0)
    assert a.C2 == pytest.approx(float(last - 300 * (last - before)),
                                 rel=5e-13, abs=0)


def test_asymptotics_quasi_linear_spot(binu):
    a = asymptotics("ACAC", binu)
    eh = expected_hits("ACAC", 200, binu)
    assert abs(float(eh.conditioned) - (a.C1 * 200 + a.C2)) < 1e-10


# substitution-weighted slopes l'(m o r) from a float64 eigendecomposition
# of the transfer matrix under table1 (ACGTACGT has 810 states)
DNA_SLOPES = {"ACGTA": 1.4232325921872e-10, "CCCCC": 1.1022818629622e-10,
              "ACGTACGT": 3.5892018986411e-12}
# residual decay rates B = |lam2|/lam, from a dense eigenvalue solve of
# the transfer matrix under table1
DNA_DECAY = {"ACGTA": 0.236423789791, "CCCCC": 0.248893135301,
             "ACGTACGT": 0.260447840466}


@pytest.mark.parametrize("b", sorted(DNA_SLOPES))
def test_asymptotics_dna_matches_walk(table1, b):
    a = asymptotics(b, table1)
    # abs=0: approx's default abs=1e-12 would let C1 ~ 1e-10 move by 1%
    assert a.C1 == pytest.approx(DNA_SLOPES[b], rel=1e-12, abs=0)
    assert a.B == pytest.approx(DNA_DECAY[b], abs=1e-10)
    assert 0 < a.B < 1
    # the kernel certifies the law at 128 letters and extends it to n
    for n in (2000, 4000, 10 ** 6, 10 ** 7):
        assert a.C1 * n + a.C2 == pytest.approx(
            clump_probability(b, n, table1), rel=1e-12, abs=0)


# one DNA 5-mer per autocorrelation class: borders (), (1,), (2,), (1, 3),
# (1, 2) and the homopolymers
BORDER_CLASSES = {"ACGTC": (), "GATTG": (1,), "TCATC": (2,),
                  "CTCTC": (1, 3), "GGTGG": (1, 2), "TTTTT": (1, 2, 3, 4)}


@pytest.mark.parametrize("b", sorted(BORDER_CLASSES))
def test_asymptotics_law_matches_clump_every_border_class(table1, b):
    assert tuple(i for i in range(1, 5)
                 if b[:i] == b[-i:]) == BORDER_CLASSES[b]
    a = asymptotics(b, table1)
    for n in (10 ** 6, 10 ** 7):
        assert a.C1 * n + a.C2 == pytest.approx(
            clump_probability(b, n, table1), rel=1e-12, abs=0)


def _assert_automaton_certifies(ca, params):
    """c1 and c2 of every type within 1e-8 max(1, |c1|) of the slope and
    intercept of the clump automaton's typed walk (automaton_growth): the
    bound of the run-time certificate, over another state space."""
    a = asymptotics(ca.b, params)
    types = params.mutation_types()
    c1, c2 = (np.array([c[ty] for ty in types]) for c in (a.c1, a.c2))
    slope, intercept = automaton_growth(ca, params, a.B)
    bound = 1e-8 * np.maximum(1.0, np.abs(c1))
    assert (np.abs(slope - c1) <= bound).all()
    assert (np.abs(intercept - c2) <= bound).all()


# every word and model that a test of asymptotics calls (ACGT that of
# the CLI), but the first words of the DNA 5-mer reversal classes, which
# the next test takes
CERTIFIED = ([(b, "binu") for b in TOYS + ("ACCC",)]
             + [(b, "biased_swap") for b in TOYS + ("AC",) if b != "ACC"]
             + [(b, "skewed_swap") for b in ("AAAAAAAA", "CAAAAAAA")]
             + [(b, "table1") for b in ["ACGT"] + sorted(DNA_SLOPES)
                + sorted(BORDER_CLASSES) if b not in DNA_5MER_CLASSES]
             + [("".join(w), "table1") for w in iproduct("ACGT", repeat=2)])


@pytest.mark.parametrize("b, model", CERTIFIED)
def test_asymptotics_match_automaton_walk(request, b, model):
    params = request.getfixturevalue(model)
    _assert_automaton_certifies(clump_automaton(b, params.alphabet), params)


def test_asymptotics_match_automaton_walk_every_5mer(table1,
                                                     dna_5mer_automata):
    for ca in dna_5mer_automata.values():
        _assert_automaton_certifies(ca, table1)


def test_asymptotics_needs_no_exact_series(binu, table1, monkeypatch):
    def no_series(*args):
        raise AssertionError("the exact moment series ran")
    monkeypatch.setattr(automata, "_exact_moments", no_series)
    assert asymptotics("ACAC", binu).C1 == pytest.approx(FROZEN["ACAC"][2],
                                                         abs=2e-9)
    assert asymptotics("ACGTA", table1).C1 == pytest.approx(
        DNA_SLOPES["ACGTA"], rel=1e-12, abs=0)


@pytest.mark.parametrize("skew, b, model", [
    (3, "ACAC", "binu"), (4, "ACAC", "binu"),
    (3, "ACGTA", "table1"), (4, "ACGTA", "table1")],
    ids=["c1", "c2", "ACGTA-c1", "ACGTA-c2"])
def test_asymptotics_walk_certificate_rejects_bad_constants(request,
                                                            monkeypatch,
                                                            skew, b, model):
    """A closed-form c1 or c2 off by 1e-6 relative moves past the 1e-8
    relative bound of the certificate by CLUMP's law kernel: its slope and its
    intercept each reject, also on DNA constants far below 1."""
    params = request.getfixturevalue(model)
    pair_constants = evolution._pair_constants

    def skewed(*args):
        out = list(pair_constants(*args))
        out[skew] = out[skew] * (1 + 1e-6)
        return tuple(out)
    monkeypatch.setattr(evolution, "_pair_constants", skewed)
    with pytest.raises(ArithmeticError, match="disagree"):
        asymptotics(b, params)


def test_asymptotics_raises_without_a_certified_line(binu, monkeypatch):
    """A type whose conditioned hit count certifies no line by the
    kernel's last reading leaves no constant to check: asymptotics
    raises.  A negative LAW_TOL lets no reading certify; ACAC's kernel
    reads up to 512 letters (B = 0.53, 2 log(PERRON_TOL)/log(B) = 110)."""
    monkeypatch.setattr(automata, "LAW_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="no linear law by letter "
                                              "512$"):
        asymptotics("ACAC", binu)


@pytest.mark.parametrize("b, model", [("ACAC", "binu"), ("ACGTA", "table1")])
def test_asymptotics_walks_once(request, monkeypatch, b, model):
    """The certificate reads the slope and the intercept of every type
    off the lines of one call of CLUMP's law kernel."""
    law, calls = evolution._law, []

    def counted(*args):
        calls.append(args)
        return law(*args)
    monkeypatch.setattr(evolution, "_law", counted)
    asymptotics(b, request.getfixturevalue(model))
    assert len(calls) == 1


@pytest.mark.parametrize("b, model", [("ACAC", "binu"), ("ACGTA", "table1")])
def test_asymptotics_builds_once(request, monkeypatch, b, model):
    """One _clump_matrices call builds the step matrices of every
    mutation type."""
    build, calls = evolution._clump_matrices, []

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(evolution, "_clump_matrices", counted)
    asymptotics(b, request.getfixturevalue(model))
    assert len(calls) == 1


def test_scan_ranks_and_determinism(table1):
    rows = scan_kmers(2, 1000, table1)
    assert rows == scan_kmers(2, 1000, table1)
    by_rank = {r.rank: r.word for r in rows}
    assert sorted(by_rank) == list(range(1, 17))
    assert by_rank[1] == "AT"
    assert by_rank[16] == "GG"
    assert all(r.expected_T == 1.0 / r.p_n for r in rows)
    assert {r.word: r.minimal_period for r in rows}["AA"] == 1


def test_scan_bnn_rows_match_single_words(table1):
    # the scan takes the stacked kernel; every row is the single-word value
    rows = scan_kmers(4, 1000, table1, "BNN")
    assert [r.word for r in rows] == ["".join(t) for t in
                                      iproduct("ACGT", repeat=4)]
    assert [r.p_n for r in rows] == [bnn_probability(r.word, 1000, table1)
                                     for r in rows]
    order = sorted(rows, key=lambda r: r.rank)
    assert all(a.p_n >= b.p_n for a, b in zip(order, order[1:]))


def test_scan_bv_rows_match_single_words(table1):
    # the scan runs one series per letter composition; every row is still
    # the single-word value
    rows = scan_kmers(5, 1000, table1, "BV")
    assert [r.p_n for r in rows] == [bv_probability(r.word, 1000, table1)
                                     for r in rows]


def test_scan_caps_its_words_before_building(table1, binu, monkeypatch):
    # the DNA 40-mers would take more memory than any machine has: the
    # cap raises before a word or a letter code is built
    def refuse(*args, **kwargs):
        raise AssertionError("the scan built its words")
    monkeypatch.setattr(evolution, "iproduct", refuse)
    monkeypatch.setattr(evolution.np, "indices", refuse)
    for k, params, words in ((40, table1, 4 ** 40), (10, table1, 4 ** 10),
                             (19, binu, 2 ** 19)):
        with pytest.raises(ValueError, match="has %d words, past the cap "
                                             "of 262144$" % words):
            scan_kmers(k, 1000, params)


def test_scan_clump_rows_match_single_words(table1):
    # the scan runs each reversal class once; every row is still the
    # single-word value, and a word and its reversal share one float
    rows = scan_kmers(3, 1000, table1, "CLUMP")
    assert [r.p_n for r in rows] == [clump_probability(r.word, 1000, table1)
                                     for r in rows]
    assert clump_probability("ATGCA", 1000, table1) == \
        clump_probability("ACGTA", 1000, table1)


def test_scan_clump_6mer_rows_match_single_words(table1):
    # the 6-mer scan runs stacks of 18 classes; a word's float does not
    # depend on its stack mates
    rows = scan_kmers(6, 1000, table1, "CLUMP")
    for r in rows[::97]:
        assert r.p_n == clump_probability(r.word, 1000, table1)


@pytest.mark.parametrize("method", ["BNN", "BV", "CLUMP"])
def test_scan_reversals_tie_alphabetically(table1, method):
    rows = {r.word: r for r in scan_kmers(5, 1000, table1, method)}
    pairs = [(r, rows[w[::-1]]) for w, r in rows.items() if w < w[::-1]]
    assert len(pairs) == 480
    for r, back in pairs:
        assert r.p_n == back.p_n
        assert r.rank < back.rank


@pytest.mark.parametrize("model,k", [(m, k) for m in ("table1", "toy_eps")
                                     for k in range(2, 7)])
@pytest.mark.parametrize("method", ["BNN", "BV"])
def test_scan_rows_follow_per_word_rules(request, model, k, method):
    # the bulk rank and period columns against the per-word rules they
    # replace: a sort on (-p_n, index) and words.minimal_period
    params = request.getfixturevalue(model)
    rows = scan_kmers(k, 1000, params, method)
    assert [r.minimal_period for r in rows] == [minimal_period(r.word)
                                                for r in rows]
    order = sorted(range(len(rows)), key=lambda i: (-rows[i].p_n, i))
    assert [rows[i].rank for i in order] == list(range(1, len(rows) + 1))
    assert all(type(r.rank) is int and type(r.minimal_period) is int
               and type(r.p_n) is float for r in rows)
    ranks = {r.word: r.rank for r in rows}
    assert all(ranks[w] < ranks[w[::-1]] for w in ranks if w < w[::-1])


def test_scan_out_of_range_names_the_word(binu):
    # binary-uniform mutates every letter, far out of CLUMP's regime, and
    # the first word whose p_n leaves (0, 1) is AA
    with pytest.warns(UserWarning, match="single-mutation regime"), \
            pytest.raises(ArithmeticError, match=r"^AA by CLUMP: appearance "
                          r"probability 44.4158 is out of range$"):
        scan_kmers(2, 100, binu, "CLUMP")


def test_clump_probability_out_of_range_raises(binu):
    # the public entry point checks its value as waiting_time does; the
    # kernel, automata.clump_scan, returns the expected hit count 44.4
    assert clump_scan(["AA"], 100, binu)[0] > 1
    with pytest.raises(ArithmeticError, match="44.4158 is out of range"):
        clump_probability("AA", 100, binu)


def test_bv_out_of_range_raises_once(ac):
    # every letter swaps and nearly every letter is C, so the mutant reads
    # AA at a position with chance 0.99**2 = 0.9801, and the series at
    # n = 3 counts its two positions as 2 x 0.9801 = 1.9602
    swap = {"A": {"A": 0, "C": 1}, "C": {"A": 1, "C": 0}}
    params = ModelParams(ac, {"A": F(1, 100), "C": F(99, 100)}, swap)
    with pytest.raises(ArithmeticError, match=r"^appearance probability "
                       r"1.9602 is out of range$"):
        bv_probability("AA", 3, params)
    with pytest.warns(UserWarning, match="single-mutation regime"), \
            pytest.raises(ArithmeticError, match="1.9602 is out of range"):
        waiting_time("AA", 3, params, "BV")
    # the scan's own error, naming the word and the method, comes first
    with pytest.warns(UserWarning, match="single-mutation regime"), \
            pytest.raises(ArithmeticError, match=r"^AA by BV: appearance "
                          r"probability 1.9602 is out of range$"):
        scan_kmers(2, 3, params, "BV")


def test_scan_warns_out_of_regime(table1):
    with pytest.warns(UserWarning, match="single-mutation regime"):
        rows = scan_kmers(2, 10 ** 6, table1)
    assert all(0.0 < r.p_n < 1.0 for r in rows)
    ac = next(r for r in rows if r.word == "AC")
    shadow = float(bnn_decimal("AC", 10 ** 6, table1))
    assert abs(ac.p_n - shadow) / shadow < 1e-13


def test_scan_quiet_in_regime(table1):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan_kmers(2, 1000, table1)


@pytest.mark.parametrize("method", ["CLUMP", "BV"])
def test_wait_warns_out_of_regime(table1, method):
    # at n = 1e8 the exposure is 2.17, and CLUMP reads AC as 0.438 where
    # BNN, exact in the model, gives 0.355
    with pytest.warns(UserWarning, match=r"mutation rate is 2\.17; the "
                      "single-mutation regime"):
        res = waiting_time("AC", 10 ** 8, table1, method)
    assert 0.0 < res.p_n < 1.0


def test_wait_quiet_in_regime_and_by_bnn(table1):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("BV", "BNN", "CLUMP"):
            waiting_time("AC", 1000, table1, method)
        waiting_time("AC", 10 ** 8, table1, "BNN")
