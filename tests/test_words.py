"""Word-level combinatorics: correlation sets, neighborhoods, putative hits."""

from fractions import Fraction as F
from itertools import product

import pytest

from kmerwait.words import (
    Alphabet,
    correlation_set,
    count_occurrences,
    is_reduced,
    minimal_period,
    neighbors,
    occurrence_starts,
    putative_hit_count,
    putative_hit_positions,
    word_prob,
)

# A worked example: this 28-letter sequence avoids AAA and its putative-hit
# positions (single substitutions creating AAA) sit exactly on the C's
# listed below.  The companion text avoids ACC.
SEQ_AAA = "CCCAACAACAACCCCCCCCAACACCACA"
HITS_AAA = {3, 6, 9, 12, 19, 22, 27}
SEQ_ACC = "CCCCAAACAAACAAACAAAACACAAC"
HITS_ACC = {1, 2, 7, 9, 11, 13, 15, 17, 20, 22, 24, 25}


def test_alphabet_basics():
    ab = Alphabet("ACGT")
    assert list(ab) == ["A", "C", "G", "T"]
    assert ab.index("G") == 2
    assert "T" in ab and "X" not in ab
    assert len(ab) == 4
    ab.check_word("GATTACA")
    with pytest.raises(ValueError):
        ab.check_word("GATTAXA")


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet("AAC")


def test_count_occurrences_overlapping():
    assert count_occurrences("AAAA", "AA") == 3
    assert count_occurrences("ACACAC", "ACA") == 2
    assert count_occurrences("ACGT", "GTT") == 0
    assert occurrence_starts("AAAA", "AA") == [1, 2, 3]


def test_autocorrelation_of_aaa():
    assert correlation_set("AAA", "AAA") == ("", "A", "AA")


def test_correlation_catat_tatat():
    # cross correlation of two different 5-mers
    assert correlation_set("CATAT", "TATAT") == ("AT", "ATAT")
    assert correlation_set("TATAT", "CATAT") == ()


def test_correlation_sorted_by_length_then_text():
    out = correlation_set("AAAA", "AAAA")
    assert out == ("", "A", "AA", "AAA")


def test_neighbors_binary():
    ab = Alphabet("AC")
    assert neighbors("AAA", ab) == ("AAC", "ACA", "CAA")
    assert neighbors("ACC", ab) == ("AAC", "ACA", "CCC")
    assert neighbors("ACAC", ab) == ("AAAC", "ACAA", "ACCC", "CCAC")
    assert neighbors("AACC", ab) == ("AAAC", "AACA", "ACCC", "CACC")


def test_neighbors_dna_count():
    ab = Alphabet("ACGT")
    d = neighbors("ACG", ab)
    assert len(d) == 9
    assert len(set(d)) == 9
    assert "ACG" not in d


def test_neighbors_reject_single_letter():
    with pytest.raises(ValueError):
        neighbors("A", Alphabet("AC"))


def test_minimal_period():
    assert minimal_period("AAA") == 1
    assert minimal_period("ACAC") == 2
    assert minimal_period("AACC") == 4
    assert minimal_period("AACA") == 3
    assert minimal_period("CATAT") == 5


def test_minimal_period_matches_definition():
    # the smallest i >= 1 with b a prefix of b[:i] repeated
    words = ["".join(t) for k in range(1, 9) for t in product("AC", repeat=k)]
    words += ["".join(t) for t in product("ACGT", repeat=4)]
    for b in words:
        want = next(i for i in range(1, len(b) + 1)
                    if (b[:i] * len(b)).startswith(b))
        assert minimal_period(b) == want, b


def test_is_reduced():
    assert is_reduced(("AAC", "ACA", "CAA"))
    assert not is_reduced(("A", "AA"))
    assert not is_reduced(("ACA", "CACAC"))


def test_putative_hits_small_example():
    """CCCAACAC avoiding ACC has hits at 1, 5 and 7."""
    ab = Alphabet("AC")
    found = putative_hit_positions("CCCAACAC", "ACC", ab)
    assert found.positions == frozenset({1, 5, 7})
    assert found.pairs == frozenset({(1, "A"), (5, "C"), (7, "C")})


def test_putative_hits_figure_sequences():
    ab = Alphabet("AC")
    assert count_occurrences(SEQ_AAA, "AAA") == 0
    got = putative_hit_positions(SEQ_AAA, "AAA", ab)
    assert got.positions == frozenset(HITS_AAA)
    assert count_occurrences(SEQ_ACC, "ACC") == 0
    got2 = putative_hit_positions(SEQ_ACC, "ACC", ab)
    assert got2.positions == frozenset(HITS_ACC)


def test_putative_hits_match_brute_force():
    """Cross-check the window scan against literal one-letter edits."""
    ab = Alphabet("AC")
    for w, b in ((SEQ_AAA, "AAA"), (SEQ_ACC, "ACC"), ("CCCAACAC", "ACC")):
        brute = set()
        for i in range(len(w)):
            for c in ab:
                if c != w[i] and b in w[:i] + c + w[i + 1:]:
                    brute.add(i + 1)
        assert putative_hit_positions(w, b, ab).positions == frozenset(brute)


def test_putative_hits_clump_structure():
    """The first clump of the AAA example packs 8 overlapping neighbor
    occurrences into 4 hit positions."""
    starts = []
    for v in ("AAC", "ACA", "CAA"):
        starts += [s for s in occurrence_starts(SEQ_AAA, v) if 3 <= s <= 10]
    assert len(starts) == 8
    ab = Alphabet("AC")
    in_clump = {p for p in putative_hit_positions(SEQ_AAA, "AAA", ab).positions
                if 3 <= p <= 12}
    assert in_clump == {3, 6, 9, 12}


def test_two_targets_share_one_position():
    # with three letters, one position can host two distinct substitutions
    ab = Alphabet("ACG")
    found = putative_hit_positions("AAGAC", "AAC", ab)
    assert found.pairs == frozenset({(3, "C"), (3, "A")})
    assert found.positions == frozenset({3})


def test_putative_hit_count_typed():
    ab = Alphabet("AC")
    assert putative_hit_count("CCCAACAC", "ACC", ab) == 3
    assert putative_hit_count("CCCAACAC", "ACC", ab, mark=("A", "C")) == 2
    assert putative_hit_count("CCCAACAC", "ACC", ab, mark=("C", "A")) == 1


def test_putative_hits_reject_text_with_occurrence():
    ab = Alphabet("AC")
    with pytest.raises(ValueError):
        putative_hit_positions("AACCA", "ACC", ab)


def test_word_prob():
    nu = {"A": F(1, 3), "C": F(2, 3)}
    assert word_prob("AC", nu) == F(2, 9)
    assert word_prob("", nu) == 1
