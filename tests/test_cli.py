"""Command line surface: formats, determinism, error handling."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmerwait import cli
from kmerwait.cli import main
from kmerwait.evolution import asymptotics, load_params
from kmerwait.oracle import bnn_decimal

from test_acceptance import KBAR_ACAC

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_wait_human(capsys):
    rc, out, err = run(capsys, "wait", "AAAAA", "--length", "1000",
                       "--method", "bnn")
    assert rc == 0 and err == ""
    assert out == (
        "word AAAAA, n = 1000, method BNN, params table1\n"
        "p_n          = 9.384727625e-08\n"
        "E(T_n)       = 10655610.26 generations\n"
        "E(T_n)/10^6  = 10.65561026\n")


def test_wait_csv(capsys):
    rc, out, err = run(capsys, "wait", "AAAAA", "--length", "1000", "--csv")
    assert rc == 0
    assert out == ("word,n,method,p_n,expected_T\n"
                   "AAAAA,1000,BNN,9.384727625e-08,10655610.26\n")


def test_wait_clump_long_text(capsys):
    # the CLUMP walk stops once it has mixed, so 1e7 letters cost as
    # much as 1e3; the answer is the growth law C1 n + C2.  The exposure
    # n max rate is 0.217 here, past the single-mutation regime, and wait
    # warns of it as scan does, with the message alone
    rc, out, err = run(capsys, "wait", "CCCCC", "--length", "10000000",
                       "--method", "clump", "--csv")
    assert rc == 0
    assert err == ("warning: n times the mutation rate is 0.217; the "
                   "single-mutation regime ends around 1e-2\n")
    row = out.splitlines()[1].split(",")
    assert row[:3] == ["CCCCC", "10000000", "CLUMP"]
    a = asymptotics("CCCCC", load_params("table1"))
    law = a.C1 * 1e7 + a.C2
    assert float(row[3]) == pytest.approx(law, rel=1e-9, abs=0)


def test_wait_bnn_at_1e8(capsys):
    # every substitution row sums to 1, so BNN stays a probability at
    # 1e8 letters, where the avoiding mass of AC is near 10**-2.8e6; its
    # law is within 1e-13 of the shadow, so the ten printed digits are the
    # shadow's (0.3547207719; powers run to n printed 0.3547207721)
    rc, out, err = run(capsys, "wait", "AC", "--length", "100000000",
                       "--csv")
    assert rc == 0 and err == ""
    row = out.splitlines()[1].split(",")
    assert row[:3] == ["AC", "100000000", "BNN"]
    shadow = float(bnn_decimal("AC", 10 ** 8, load_params("table1")))
    assert row[3] == "%.10g" % shadow


def test_corr_two_words(capsys):
    rc, out, err = run(capsys, "corr", "CATAT", "TATAT")
    assert rc == 0
    assert out == "correlation set of (CATAT, TATAT): 2 words\n  AT\n  ATAT\n"


def test_corr_autocorrelation(capsys):
    rc, out, err = run(capsys, "corr", "AAA")
    assert rc == 0
    assert out == ("autocorrelation set of (AAA, AAA): 3 words\n"
                   "  eps\n  A\n  AA\n")


def test_scan_top_slowest_csv(capsys):
    rc, out, err = run(capsys, "scan", "--k", "5", "--length", "1000",
                       "--method", "bnn", "--top", "4", "--csv")
    assert rc == 0
    assert out == (
        "word,method,p_n,expected_T,rank,minimal_period\n"
        "CCCCC,BNN,1.098348581e-07,9104577.701,1021,1\n"
        "GGGGG,BNN,1.044907462e-07,9570225.468,1022,1\n"
        "TTTTT,BNN,9.614772271e-08,10400662.35,1023,1\n"
        "AAAAA,BNN,9.384727625e-08,10655610.26,1024,1\n")


def test_scan_byte_deterministic(capsys):
    args = ("scan", "--k", "3", "--length", "1000", "--csv")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_oracle_census(capsys):
    rc, out, err = run(capsys, "oracle", "AAA", "--n", "3",
                       "--params", "binary-uniform")
    assert rc == 0
    assert out == (
        "census of AAA at n=3: 7 avoiding texts, avoiding mass 7/8\n"
        "  E(hits, unconditioned) = 3/8\n"
        "  E(hits of A->C) = 0\n"
        "  E(hits of C->A) = 3/8\n"
        "  P(0 hits) = 1/2\n"
        "  P(1 hits) = 3/8\n")


def test_codes_csv(capsys):
    rc, out, err = run(capsys, "codes", "ACAC", "--params", "binary-uniform",
                       "--csv")
    assert rc == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    matrix = rows[:rows.index([])]  # a blank row ends the matrix
    assert matrix[0] == ["row_word", "col_word", "K", "Kbar", "Kbar_gf"]
    assert len(matrix) == 1 + 16
    assert [row[4] for row in matrix[1:]] == [
        entry for table_row in KBAR_ACAC for entry in table_row]


def test_codes_typed_header(capsys):
    rc, out, err = run(capsys, "codes", "AACC", "--type", "C:A",
                       "--params", "binary-uniform")
    assert rc == 0 and err == ""
    assert out.splitlines()[0] == (
        "neighbor words of AACC: AAAC, AACA, ACCC, CACC  (marks: C->A)")


def test_series_csv(capsys):
    rc, out, err = run(capsys, "series", "ACAC", "AACC", "--max", "8",
                       "--params", "binary-uniform", "--csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,fbar_ACAC,EH_ACAC,EHcond_ACAC,fbar_AACC,EH_AACC,EHcond_AACC"
    assert len(lines) == 10
    assert lines[1] == "0,1,0,0,1,0,0"
    # by length 7 the shorter-period word has pulled ahead in conditioned hits
    row7 = lines[8].split(",")
    assert row7[0] == "7"
    assert float(row7[3]) == pytest.approx(1.02, abs=1e-9)
    assert float(row7[6]) == pytest.approx(1.0625, abs=1e-9)


def test_gf_closed_form(capsys):
    rc, out, err = run(capsys, "gf", "AAA", "--params", "binary-uniform")
    assert rc == 0
    assert out == (
        "clump generating function of AAA "
        "(marks: all types, params binary-uniform)\n"
        "F(z,t) = (64 + 32*z + 32*z^2 - 16*z^2*t - 8*z^3 + 8*z^3*t - 2*z^5"
        " + 4*z^5*t - 2*z^5*t^2) / (64 - 32*z - 16*z^2*t - 8*z^3 + 4*z^4*t"
        " - 4*z^4*t^2 + z^6*t - 2*z^6*t^2 + z^6*t^3)\n")


def test_automaton_summary(capsys):
    rc, out, err = run(capsys, "automaton", "AAA", "--alphabet", "AC")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ("clump automaton of AAA over AC: 17 states, "
                        "10 occurrence states, 4 pruned transitions")
    assert lines[7] == "   6 AAC        occurrence, extension, theta=AAC"
    assert len(lines) == 18


def test_asym_human(capsys):
    rc, out, err = run(capsys, "asym", "ACAC", "--params", "binary-uniform")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "growth constants for ACAC (params binary-uniform)"
    assert lines[1] == "  tau = 1.062020113   psi = 1.119325445"
    assert lines[-1] == ("  C1 = 0.2452503889   C2 = -0.6855653517   "
                         "decay B = 0.5310100565")


def test_asym_csv_values(capsys):
    rc, out, err = run(capsys, "asym", "ACAC", "--params", "binary-uniform",
                       "--csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "name,type,value"
    table = {}
    for line in lines[1:]:
        name, ty, val = line.split(",")
        table[(name, ty)] = float(val)
    assert table[("C1", "")] == pytest.approx(0.2452503893, abs=1e-9)
    assert table[("tau", "")] == pytest.approx(1.062020113, abs=1e-9)
    assert table[("c1", "A->C")] == pytest.approx(table[("C1", "")] / 2,
                                                  abs=1e-9)


def test_asym_dna(capsys):
    rc, out, err = run(capsys, "asym", "ACGT")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "growth constants for ACGT (params table1)"
    assert sum(line.startswith("  type ") for line in lines) == 12
    assert lines[-1].startswith("  C1 = 4.762548337e-10   C2 = ")


@pytest.mark.parametrize("argv,needle", [
    (("wait", "AAAAA", "--length", "3"),
     "text length must be at least the pattern length"),
    (("gf", "AAA", "--params", "binary-uniform", "--type", "A:"),
     "substitution type A: needs two distinct single letters"),
    (("wait", "AAXAA", "--length", "100"),
     "symbol 'X' not in alphabet 'ACGT'"),
    (("oracle", "ACGT", "--n", "10", "--mc", "10"),
     "need at least 10^4 trials for a meaningful estimate"),
    # under table1 the float avoiding mass of AC is subnormal from n = 10184
    (("series", "AC", "ACGTA", "--max", "12000"),
     "avoiding probability 0 at length 12000 is not above"),
    (("series", "ACAC", "AACC", "--max", "-1", "--params", "binary-uniform"),
     "text length -1 is negative"),
    (("gf", "AAA", "--coeffs", "-1", "--params", "binary-uniform"),
     "text length -1 is negative"),
    (("wait", "ACGTA", "--length", "3", "--method", "clump"),
     "text length must be at least the pattern length"),
    (("wait", "ACGTA", "--length", "3", "--method", "bv"),
     "text length must be at least the pattern length"),
    (("wait", "AC", "--length", "-1", "--method", "clump"),
     "text length must be at least the pattern length"),
    (("wait", "AC", "--length", "-1", "--method", "bv"),
     "text length must be at least the pattern length"),
    (("oracle", "AAA", "--n", "-1", "--params", "binary-uniform"),
     "text length -1 is negative"),
    (("oracle", "AAA", "--n", "-1", "--mc", "10000", "--params",
      "binary-uniform"),
     "text length must be at least the pattern length"),
    (("oracle", "AAA", "--n", "2", "--mc", "10000", "--params",
      "binary-uniform"),
     "text length must be at least the pattern length"),
    (("oracle", "AAA", "--n", "2", "--pn", "--params", "binary-uniform"),
     "text length must be at least the pattern length"),
    (("scan", "--k", "3", "--length", "100", "--method", "bnn", "--method",
      "bv", "--method", "clump"),
     "at most two methods can be compared side by side"),
    (("scan", "--k", "2", "--length", "100", "--method", "clump",
      "--params", "binary-uniform"),
     "AA by CLUMP: appearance probability 44.4158 is out of range"),
    (("gf", "ACGTA"), "exact clump generating function capped at 48 states"),
    (("asym", "A"), "need |b| >= 2 to build a substitution neighborhood"),
    (("scan", "--k", "40", "--length", "1000"),
     "a scan of the 40-mers over 4 letters has %d words, past the cap of "
     "262144" % 4 ** 40),
])
def test_error_paths(capsys, argv, needle):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    # binary-uniform mutates every letter at rate 1, so its CLUMP scan at
    # n = 100 warns of the regime on the line before its error
    warned = ("warning: n times the mutation rate is 100; the "
              "single-mutation regime ends around 1e-2\n"
              if argv[0] == "scan" and "binary-uniform" in argv else "")
    assert err.startswith(warned + "error: ")
    assert needle in err
    assert err.count("\n") == 1 + warned.count("\n")


def test_scan_top_checked_before_scanning(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("scanned before checking --top")

    monkeypatch.setattr(cli, "scan_kmers", refuse)
    rc, out, err = run(capsys, "scan", "--k", "6", "--length", "1000",
                       "--method", "clump", "--top", "0")
    assert rc == 1 and out == ""
    assert err == "error: --top must be at least 1\n"


def test_warnings_print_their_message_alone(capsys):
    # past the single-mutation regime scan and wait by BV or CLUMP warn on
    # stderr in the form of the errors, whatever the install path; BNN,
    # exact in the model, stays quiet
    regime = ("warning: n times the mutation rate is 2.17; the "
              "single-mutation regime ends around 1e-2\n")
    rc, out, err = run(capsys, "scan", "--k", "2", "--length", "100000000",
                       "--method", "bv", "--csv")
    assert rc == 0 and err == regime
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "kmerwait.cli", "wait",
                           "AC", "--length", "100000000", "--method",
                           "clump"], capture_output=True, text=True,
                          env=env, stdin=subprocess.DEVNULL)
    assert done.returncode == 0
    assert done.stderr == regime


def test_bad_method_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wait", "AAA", "--length", "10", "--method", "magic"])
    assert exc.value.code == 2


def test_no_mpmath_or_gmpy2_loaded():
    # numpy is the one dependency: the exact layer is Fraction over ints,
    # the BNN shadow runs in decimal
    code = ("import sys\n"
            "import kmerwait.cli\n"
            "from kmerwait.oracle import bnn_decimal\n"
            "from kmerwait.evolution import asymptotics, load_params\n"
            "asymptotics('ACC', load_params('binary-uniform'))\n"
            "bnn_decimal('AAAAA', 1000, load_params('table1'))\n"
            "print(sorted({'mpmath', 'gmpy2'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, stdin=subprocess.DEVNULL)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
