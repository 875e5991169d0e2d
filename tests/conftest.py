"""Shared fixtures: model parameters and cached automata for the binary toys."""

from fractions import Fraction as F

import pytest

from kmerwait.automata import clump_automaton
from kmerwait.evolution import ModelParams, load_params
from kmerwait.words import Alphabet

TOYS = ("AAA", "ACC", "ACAC", "AACC", "AACA")

UNIFORM = {"A": F(1, 2), "C": F(1, 2)}
BIASED = {"A": F(1, 3), "C": F(2, 3)}


@pytest.fixture(scope="session")
def ac():
    return Alphabet("AC")


@pytest.fixture(scope="session")
def dna():
    return Alphabet("ACGT")


@pytest.fixture(scope="session")
def table1():
    return load_params("table1")


@pytest.fixture(scope="session")
def table1_renorm(table1):
    """table1 with each diagonal set to 1 minus its row's off-diagonal
    entries.  The bundled rows sum to 1 + 2e-8 to 3.1e-8, a surplus of
    staying mass that BNN carries through every position of the text."""
    p1 = {a: {c: table1.p1[a][c] for c in table1.alphabet if c != a}
          for a in table1.alphabet}
    for a, row in p1.items():
        row[a] = 1 - sum(row.values())
    return ModelParams(table1.alphabet, dict(table1.nu), p1,
                       name="table1-renorm")


@pytest.fixture(scope="session")
def binu():
    return load_params("binary-uniform")


@pytest.fixture(scope="session")
def toy_eps(ac):
    """Binary model with a small symmetric substitution rate."""
    eps = F(1, 10**6)
    p1 = {"A": {"A": 1 - eps, "C": eps}, "C": {"A": eps, "C": 1 - eps}}
    return ModelParams(ac, dict(UNIFORM), p1, name="binary-eps")


@pytest.fixture(scope="session")
def dna_eps(table1):
    """The table1 letter distribution with inflated symmetric rates, so
    that Monte Carlo runs see enough appearance events."""
    eps = F(1, 1000)
    p1 = {
        a: {b: (1 - 3 * eps if a == b else eps) for b in table1.alphabet}
        for a in table1.alphabet
    }
    return ModelParams(table1.alphabet, dict(table1.nu), p1, name="dna-eps")


@pytest.fixture(scope="session")
def autos(ac):
    """One clump automaton per toy word, shared across the session."""
    return {b: clump_automaton(b, ac) for b in TOYS}
