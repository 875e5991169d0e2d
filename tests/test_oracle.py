"""Brute-force oracle: exhaustive enumeration and Monte Carlo checks."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from kmerwait.oracle import (
    MAX_ENUM,
    avoid_weight,
    enumerate_census,
    exact_pn_tiny,
    monte_carlo_pn,
)
from kmerwait.automata import bnn_probability
from kmerwait.words import Alphabet

from conftest import UNIFORM


def test_census_small_example(ac):
    rep = enumerate_census("AAA", 3, ac, UNIFORM)
    assert rep.avoid_count == 7
    assert rep.avoid_prob == F(7, 8)
    assert rep.hit_sum == F(3, 8)
    assert rep.census == {0: F(1, 2), 1: F(3, 8)}
    assert rep.typed_hit_sums == {("A", "C"): 0, ("C", "A"): F(3, 8)}


def test_census_typed_sums_match_untyped(ac):
    for b in ("ACC", "ACAC"):
        for n in range(len(b), 9):
            rep = enumerate_census(b, n, ac, UNIFORM)
            assert sum(rep.typed_hit_sums.values()) == rep.hit_sum
            assert sum(m * p for m, p in rep.census.items()) == rep.hit_sum
            assert sum(rep.census.values()) == rep.avoid_prob


def test_census_mark_filter(ac):
    full = enumerate_census("AAA", 7, ac, UNIFORM)
    only = enumerate_census("AAA", 7, ac, UNIFORM, mark=("C", "A"))
    assert only.hit_sum == full.typed_hit_sums[("C", "A")]


def test_avoid_weight_brute(ac):
    # direct count: 2^4 = 16 texts, those containing AA are
    # AA__ (4), _AA_ minus overlap, CAAC CAAA AAAC? enumerate instead
    texts = ["".join("AC"[(x >> i) & 1] for i in range(4)) for x in range(16)]
    clear = [t for t in texts if "AA" not in t]
    assert avoid_weight(("AA",), 4, ac, UNIFORM) == F(len(clear), 16)
    both = [t for t in clear if "CC" not in t]
    assert avoid_weight(("AA", "CC"), 4, ac, UNIFORM) == F(len(both), 16)


def test_exact_pn_toy_value(binu):
    # swap model, n = 6: of the 22 texts avoiding AAA, 9 contain it after
    # every letter flips
    assert exact_pn_tiny("AAA", 6, binu) == F(9, 22)


def test_exact_pn_zero_rate(ac):
    from kmerwait.evolution import ModelParams
    p1 = {"A": {"A": 1, "C": 0}, "C": {"A": 0, "C": 1}}
    params = ModelParams(ac, dict(UNIFORM), p1)
    assert exact_pn_tiny("ACA", 6, params) == 0


def test_exact_pn_monotone_in_rate(ac):
    from kmerwait.evolution import ModelParams
    vals = []
    for k in (5, 4, 3):
        eps = F(1, 10 ** k)
        p1 = {"A": {"A": 1 - eps, "C": eps}, "C": {"A": eps, "C": 1 - eps}}
        vals.append(exact_pn_tiny("ACC", 8, ModelParams(ac, dict(UNIFORM), p1)))
    assert vals[0] < vals[1] < vals[2]


def test_enumeration_size_guard(dna):
    from kmerwait.evolution import load_params
    params = load_params("table1")
    n = 1
    while (4 ** n) * n <= MAX_ENUM:
        n += 1
    with pytest.raises(ValueError):
        exact_pn_tiny("AAAAA", n + 2, params)


def test_monte_carlo_deterministic(dna_eps):
    a = monte_carlo_pn("ACGT", 30, dna_eps, trials=20000, seed=7)
    b = monte_carlo_pn("ACGT", 30, dna_eps, trials=20000, seed=7)
    assert a == b
    c = monte_carlo_pn("ACGT", 30, dna_eps, trials=20000, seed=8)
    assert a != c


def test_monte_carlo_needs_enough_trials(dna_eps):
    with pytest.raises(ValueError):
        monte_carlo_pn("ACGT", 30, dna_eps, trials=100)


def test_monte_carlo_agrees_with_bnn(dna_eps):
    est, err = monte_carlo_pn("ACG", 25, dna_eps, trials=120000, seed=20260815)
    ref = bnn_probability("ACG", 25, dna_eps)
    assert err > 0
    assert abs(est - ref) < 3 * err + 1e-12



def _package_imports(module):
    """The package modules that src/kmerwait/<module>.py imports, by a
    relative import or through the package name."""
    path = Path(__file__).resolve().parents[1] / "src" / "kmerwait"
    found = set()
    for node in ast.walk(ast.parse((path / (module + ".py")).read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "kmerwait." + (node.module or "") if node.level else node.module
            names = [base.rstrip(".") + "." + a.name for a in node.names]
        else:
            continue
        found.update((n.split(".") + ["__init__"])[1] for n in names
                     if n.split(".")[0] == "kmerwait")
    return found


def test_oracle_imports_only_exact_core_and_words():
    # read from the source: the package's __init__ imports the language
    # route, so sys.modules cannot tell which module imported what
    assert _package_imports("oracle") == {"gfcore", "words"}
    assert _package_imports("gfcore") == set()
    # criterion 5 compares the language and automaton censuses, which
    # certify each other only while neither route imports the other
    assert _package_imports("languages") == {"gfcore", "words"}
    assert "languages" not in _package_imports("automata")
