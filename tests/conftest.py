"""Shared fixtures: model parameters and cached automata for the binary
toys, and the clump automaton's walks, independent oracles of the CLUMP
route (a stop-rule walk) and of the growth constants (a typed walk) over
another state space than the law kernel's.  Every test starts with an
empty memo of certified lines (automata._LINES)."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from kmerwait import automata
from kmerwait.automata import _float_walk, clump_automaton, state_marks, \
    transfer_matrix
from kmerwait.evolution import PERRON_TOL, ModelParams, load_params
from kmerwait.words import Alphabet

TOYS = ("AAA", "ACC", "ACAC", "AACC", "AACA")

UNIFORM = {"A": F(1, 2), "C": F(1, 2)}
BIASED = {"A": F(1, 3), "C": F(2, 3)}


@pytest.fixture(autouse=True)
def empty_line_memo():
    """Empty the memo of the lines that single-word BNN and CLUMP calls
    certified, so that a test that patches LAW_TOL or counts the law
    kernel's work never reads a line that another test left."""
    automata._LINES.clear()


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
def binu():
    return load_params("binary-uniform")


@pytest.fixture(scope="module")
def skewed(ac):
    """Binary model with nu = 1/100 : 99/100."""
    p1 = {"A": {"A": F(999, 1000), "C": F(1, 1000)},
          "C": {"A": F(1, 500), "C": F(499, 500)}}
    return ModelParams(ac, {"A": F(1, 100), "C": F(99, 100)}, p1,
                       name="skewed")


@pytest.fixture(scope="module")
def lopsided(ac):
    """Binary model with nu = 1/10 : 9/10, p(A -> C) = 1/2 and
    p(C -> A) = 1/100."""
    p1 = {"A": {"A": F(1, 2), "C": F(1, 2)},
          "C": {"A": F(1, 100), "C": F(99, 100)}}
    return ModelParams(ac, {"A": F(1, 10), "C": F(9, 10)}, p1,
                       name="lopsided")


SWAP = {"A": {"A": 0, "C": 1}, "C": {"A": 1, "C": 0}}


@pytest.fixture(scope="module")
def biased_swap(ac):
    return ModelParams(ac, dict(BIASED), SWAP, name="biased-swap")


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


def weighted_marks(ca, weight):
    """Per-state sum over mutation types ty of weight[ty] times
    state_marks(ca, ty), as floats, from one scan of the labels.  A state
    carries a fresh hit of at most one type; types missing from weight
    count 0."""
    return np.array([weight.get(typed, 0.0) for _, typed in ca.fresh_hits])


def clump_conditioned_hits(ca, nu, n, marks):
    """Expected weighted mark count of a length-n text conditioned on its
    avoiding the pattern, in float64, by the clump automaton's walk.

    marks holds one weight per state, such as weighted_marks(ca, weight).
    The walk of automata._float_walk steps the conditioned expectation E
    with its increment delta and its centred hit vector tau.  It stops at
    the first step m at which the avoiding vector moves at most PERRON_TOL
    in l1 norm, tau at most PERRON_TOL of its own l1 norm and delta at
    most PERRON_TOL relative, but not before letter 2k, and returns
    E_m + (n - m) delta_m; if the rule never fires the walk runs to n.
    This is an oracle, not the library's rule: automata.clump_scan reads
    E off the squares of its k (k + 1) pair states and certifies a line
    through three readings and a probe (automata._law), where this walk
    steps the clump automaton's few hundred states letter by letter.
    """
    prev = None
    for m, (u, _, _, ((cond, inc, tau),)) in enumerate(
            _float_walk(ca, transfer_matrix(ca, nu), n, [marks])):
        if prev is not None and m >= 2 * len(ca.b):
            u0, inc0, tau0 = prev
            if (np.abs(u - u0).sum() <= PERRON_TOL
                    and abs(inc - inc0) <= PERRON_TOL * abs(inc)
                    and np.abs(tau - tau0).sum()
                    <= PERRON_TOL * np.abs(tau).sum()):
                break
        prev = u, inc, tau
    return cond + (n - m) * inc


def automaton_clump(ca, n, params):
    """CLUMP p_n of the word of the clump automaton ca by its stop-rule
    walk: the substitution-weighted conditioned hit count."""
    return clump_conditioned_hits(ca, params.nu, n,
                                  weighted_marks(ca, params.rates))


def automaton_growth(ca, params, decay):
    """Slope and intercept of the conditioned hit count of each mutation
    type, in the order of params.mutation_types(), by the clump
    automaton's float walk with one row of marks per type,
    state_marks(ca, ty): delta_n and E_n - n delta_n, as two arrays.

    The walk runs n = 2 log(PERRON_TOL)/log(B) + 2k letters, B = decay the
    spectral gap of the transfer matrix: the B^n terms that the linear law
    leaves out are then below PERRON_TOL squared, and the 2k letters pass
    the transfer matrix's nilpotent part, since a clump state depends only
    on the last letters read, its label, at most 2k - 1 of them.
    """
    letters = math.ceil(math.log(PERRON_TOL) / math.log(max(decay,
                                                            PERRON_TOL)))
    n = 2 * letters + 2 * len(ca.b)
    marks = [state_marks(ca, ty) for ty in params.mutation_types()]
    for *_, moments in _float_walk(ca, transfer_matrix(ca, params.nu), n,
                                   marks):
        pass
    cond, inc = np.array([m[:2] for m in moments]).T
    return inc, cond - n * inc
