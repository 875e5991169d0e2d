"""Model parameters, the three probability routes, and growth constants."""

import math
from fractions import Fraction as F

import pytest

from kmerwait.automata import bnn_probability
from kmerwait.evolution import (
    ModelParams,
    asymptotics,
    bv_probability,
    clump_probability,
    expected_hits,
    load_params,
    scan_kmers,
    waiting_time,
)
from kmerwait.oracle import exact_pn_tiny
from kmerwait.words import Alphabet

from conftest import TOYS, UNIFORM


def test_load_table1_values(table1):
    assert table1.alphabet.symbols == ("A", "C", "G", "T")
    assert table1.nu["A"] == F(23889, 100000)
    assert table1.nu["C"] == F(13121, 50000)
    assert sum(table1.nu.values()) == 1
    assert table1.p1["A"]["C"] == F(454999995, 10 ** 17)
    assert float(table1.p1["A"]["A"]) == pytest.approx(0.999999996, abs=1e-12)
    assert table1.max_mutation() == pytest.approx(2.17499994e-08, rel=1e-12)


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


def test_bv_truncation_matches_full_sum(table1):
    for b in ("AAAAA", "CGCGC"):
        assert bv_probability(b, 1000, table1) == \
            bv_probability(b, 1000, table1, full_sum=True)


def test_expected_hits_small(toy_eps):
    eh = expected_hits("AAA", 3, toy_eps)
    assert eh.raw == F(3, 8)
    assert eh.conditioned == F(3, 7)
    assert eh.fbar == F(7, 8)


def test_expected_hits_below_length(toy_eps):
    eh = expected_hits("AAA", 2, toy_eps)
    assert eh.raw == 0 and eh.conditioned == 0 and eh.fbar == 1


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


def test_clump_float_underflow_raises(table1):
    # at n = 20000 the avoiding mass of AC is subnormal (7.5e-322) and the
    # hit masses flush to 0; at n = 10000 it is still a normal float
    with pytest.raises(ArithmeticError):
        clump_probability("AC", 20000, table1)
    with pytest.raises(ArithmeticError):
        expected_hits("AC", 20000, table1)
    p5 = clump_probability("AC", 5000, table1)
    p10 = clump_probability("AC", 10000, table1)
    assert p10 / p5 == pytest.approx(2.0, rel=1e-3)


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
    # below the word length nothing can appear; the BV sum is empty
    with pytest.raises(ArithmeticError):
        waiting_time("AAAAA", 3, table1, method="BV")


FROZEN = {
    #        tau           psi        C1            C2             B
    "AAA": (1.0873780254, 1.046050, 0.2368398446, -0.3365586721, 0.404),
    "ACC": (1.2360679775, 1.532624, 0.4472135955, -0.8583592135, 0.623),
    "ACAC": (1.0620201129, 1.119325, 0.2452503889, -0.6855653517, 0.535),
    "AACC": (1.0873780254, 1.246356, 0.3068491681, -1.1136350388, 0.548),
    "AACA": (1.0713747736, 1.146088, 0.2719329227, -0.7445839622, 0.469),
}


@pytest.mark.parametrize("b", TOYS)
def test_asymptotic_constants(binu, b):
    tau, psi, c1, c2, decay = FROZEN[b]
    a = asymptotics(b, binu)
    assert a.tau == pytest.approx(tau, abs=2e-9)
    assert a.psi == pytest.approx(psi, rel=1e-6)
    assert a.C1 == pytest.approx(c1, abs=2e-9)
    assert a.C2 == pytest.approx(c2, abs=2e-9)
    assert a.B == pytest.approx(decay, abs=5e-3)
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


def test_asymptotics_double_perron_root_raises(ac):
    """Under A:1/3, C:2/3 the transfer matrix of ACC has a double Perron
    root, where the Perron-vector formulas do not hold."""
    swap = {"A": {"A": 0, "C": 1}, "C": {"A": 1, "C": 0}}
    biased = ModelParams(ac, {"A": F(1, 3), "C": F(2, 3)}, swap)
    with pytest.raises(ArithmeticError, match="not simple"):
        asymptotics("ACC", biased)


def test_asymptotics_quasi_linear_spot(binu):
    a = asymptotics("ACAC", binu)
    eh = expected_hits("ACAC", 200, binu)
    assert abs(float(eh.conditioned) - (a.C1 * 200 + a.C2)) < 1e-10


def test_asymptotics_guards(table1, binu):
    with pytest.raises(ValueError):
        asymptotics("AAAA", table1)
    with pytest.raises(ValueError):
        asymptotics("AAA", binu, n_fit=50)


def test_scan_ranks_and_determinism(table1):
    rows = scan_kmers(2, 1000, table1)
    assert rows == scan_kmers(2, 1000, table1)
    by_rank = {r.rank: r.word for r in rows}
    assert sorted(by_rank) == list(range(1, 17))
    assert by_rank[1] == "AT"
    assert by_rank[16] == "GG"
    assert all(r.expected_T == 1.0 / r.p_n for r in rows)
    assert {r.word: r.minimal_period for r in rows}["AA"] == 1


def test_scan_warns_out_of_regime(table1):
    with pytest.warns(UserWarning, match="single-mutation regime"):
        rows = scan_kmers(2, 10 ** 6, table1)
    assert all(0.0 < r.p_n < 1.0 for r in rows)
    ac = next(r for r in rows if r.word == "AC")
    shadow = float(bnn_probability("AC", 10 ** 6, table1, dps=40))
    assert abs(ac.p_n - shadow) / shadow < 1e-8


def test_scan_quiet_in_regime(table1):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan_kmers(2, 1000, table1)
