"""Command line surface for the waiting-time toolkit.

Every subcommand prints a human-readable table by default and a CSV with
a header row under --csv (DOT for the automaton dump).  Floats are
rendered with ten significant digits, exact rationals as fractions, so
identical invocations produce identical bytes.
"""

import argparse
import csv
import sys
import warnings

from .automata import clump_automaton, clump_series, \
    gf_from_clump_automaton, to_dot
from .evolution import asymptotics, hit_series, load_params, scan_kmers, \
    waiting_time
from .gfcore import render_poly, render_ratfun
from .languages import marked_code_gf
from .oracle import enumerate_census, exact_pn_tiny, monte_carlo_pn
from .words import correlation_set

MILLION = 1e6


def _fmt(x):
    return "%.10g" % x


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _parse_type(text):
    if text is None:
        return None
    for sep in ("->", ":"):
        if sep in text:
            src, _, tgt = text.partition(sep)
            return (src.strip(), tgt.strip())
    raise ValueError("substitution type %r should look like A:C or A->C"
                     % text)


def _type_name(ty):
    return "%s->%s" % ty


def _cmd_wait(args, out):
    params = load_params(args.params)
    res = waiting_time(args.word, args.length, params, args.method)
    if args.csv:
        w = _writer(out)
        w.writerow(["word", "n", "method", "p_n", "expected_T"])
        w.writerow([res.word, res.n, res.method, _fmt(res.p_n),
                    _fmt(res.expected_T)])
        return 0
    print("word %s, n = %d, method %s, params %s"
          % (res.word, res.n, res.method, params.name), file=out)
    print("p_n          = %s" % _fmt(res.p_n), file=out)
    print("E(T_n)       = %s generations" % _fmt(res.expected_T), file=out)
    print("E(T_n)/10^6  = %s" % _fmt(res.expected_T / MILLION), file=out)
    return 0


def _cmd_scan(args, out):
    params = load_params(args.params)
    methods = list(dict.fromkeys(args.method or ["bnn"]))
    if len(methods) > 2:
        raise ValueError("at most two methods can be compared side by side")
    if args.top is not None and args.top < 1:
        raise ValueError("--top must be at least 1")
    tables = [scan_kmers(args.k, args.length, params, m) for m in methods]
    lead = tables[0]
    order = sorted(range(len(lead)), key=lambda i: lead[i].rank)
    if args.top is not None:
        order = order[-args.top:]
    w = _writer(out) if args.csv else None
    if len(methods) == 1:
        if w:
            w.writerow(["word", "method", "p_n", "expected_T", "rank",
                        "minimal_period"])
        else:
            print("%-8s %-6s %-14s %-14s %-12s %5s %7s"
                  % ("word", "method", "p_n", "E(T)", "E(T)/10^6",
                     "rank", "period"), file=out)
        for i in order:
            r = lead[i]
            if w:
                w.writerow([r.word, r.method, _fmt(r.p_n),
                            _fmt(r.expected_T), r.rank, r.minimal_period])
            else:
                print("%-8s %-6s %-14s %-14s %-12s %5d %7d"
                      % (r.word, r.method, _fmt(r.p_n), _fmt(r.expected_T),
                         _fmt(r.expected_T / MILLION), r.rank,
                         r.minimal_period), file=out)
        return 0
    first, second = tables[0], tables[1]
    m1, m2 = methods[0].upper(), methods[1].upper()
    if w:
        w.writerow(["word",
                    "p_n_%s" % m1, "expected_T_%s" % m1, "rank_%s" % m1,
                    "p_n_%s" % m2, "expected_T_%s" % m2, "rank_%s" % m2,
                    "ratio", "minimal_period"])
    else:
        print("%-8s %-12s %-12s %-7s %-12s %-12s %-7s %6s"
              % ("word", "E/10^6 " + m1, "E/10^6 " + m2, "rank " + m1,
                 "p " + m1, "p " + m2, "rank " + m2, "ratio"), file=out)
    for i in order:
        a, c = first[i], second[i]
        ratio = a.expected_T / c.expected_T
        if w:
            w.writerow([a.word,
                        _fmt(a.p_n), _fmt(a.expected_T), a.rank,
                        _fmt(c.p_n), _fmt(c.expected_T), c.rank,
                        _fmt(ratio), a.minimal_period])
        else:
            print("%-8s %-12.3f %-12.3f %-7d %-12s %-12s %-7d %6.2f"
                  % (a.word, a.expected_T / MILLION, c.expected_T / MILLION,
                     a.rank, _fmt(a.p_n), _fmt(c.p_n), c.rank, ratio),
                  file=out)
    return 0


def _cmd_corr(args, out):
    first = args.word
    second = args.word2 if args.word2 else args.word
    words = correlation_set(first, second)
    if args.csv:
        w = _writer(out)
        w.writerow(["word"])
        for e in words:
            w.writerow([e if e else "eps"])
        return 0
    kind = "autocorrelation" if first == second else "correlation"
    print("%s set of (%s, %s): %d words"
          % (kind, first, second, len(words)), file=out)
    for e in words:
        print("  %s" % (e if e else "eps"), file=out)
    return 0


def _cmd_codes(args, out):
    params = load_params(args.params)
    mark = _parse_type(args.type)
    marked = marked_code_gf(args.word, params.alphabet, params.nu, mark=mark)
    codes = marked.codes
    d = codes.words
    if args.csv:
        w = _writer(out)
        w.writerow(["row_word", "col_word", "K", "Kbar", "Kbar_gf"])
        for i, vi in enumerate(d):
            for j, vj in enumerate(d):
                w.writerow([vi, vj,
                            " ".join(codes.K[i][j]),
                            " ".join(codes.Kbar[i][j]),
                            render_poly(marked.K[i][j])])
        w.writerow([])
        w.writerow(["word", "v_gf"])
        for i, vi in enumerate(d):
            w.writerow([vi, render_poly(marked.v[i])])
        return 0
    label = "all types" if mark is None else _type_name(mark)
    print("neighbor words of %s: %s  (marks: %s)"
          % (args.word, ", ".join(d), label), file=out)
    print("codeword sets K (prefix-free) and Kbar (avoidance-filtered):",
          file=out)
    for i, vi in enumerate(d):
        for j, vj in enumerate(d):
            kset = " ".join(codes.K[i][j]) or "-"
            kbar = " ".join(codes.Kbar[i][j]) or "-"
            print("  (%s, %s): K = {%s}, Kbar = {%s}, Kbar(z,t) = %s"
                  % (vi, vj, kset, kbar, render_poly(marked.K[i][j])),
                  file=out)
    print("word weights:", file=out)
    for i, vi in enumerate(d):
        print("  v(%s) = %s" % (vi, render_poly(marked.v[i])), file=out)
    return 0


def _cmd_gf(args, out):
    params = load_params(args.params)
    mark = _parse_type(args.type)
    if args.coeffs is not None:
        ca = clump_automaton(args.word, params.alphabet, mark=mark)
        table = clump_series(ca, params.nu, args.coeffs)
        if args.csv:
            w = _writer(out)
            w.writerow(["n", "m", "coeff"])
            for n, row in enumerate(table):
                for m, val in sorted(row.items()):
                    w.writerow([n, m, str(val)])
        else:
            print("census coefficients [z^n t^m] F_%s (params %s)"
                  % (args.word, params.name), file=out)
            for n, row in enumerate(table):
                cells = " ".join("t^%d: %s" % (m, val)
                                 for m, val in sorted(row.items()))
                print("  n=%-3d %s" % (n, cells), file=out)
        return 0
    ca = clump_automaton(args.word, params.alphabet, mark=mark)
    f = gf_from_clump_automaton(ca, params.nu)
    if args.csv:
        w = _writer(out)
        w.writerow(["word", "numerator", "denominator"])
        w.writerow([args.word, render_poly(f.num), render_poly(f.den)])
        return 0
    label = "all types" if mark is None else _type_name(mark)
    print("clump generating function of %s (marks: %s, params %s)"
          % (args.word, label, params.name), file=out)
    print("F(z,t) = %s" % render_ratfun(f), file=out)
    return 0


def _cmd_asym(args, out):
    params = load_params(args.params)
    ac = asymptotics(args.word, params)
    if args.csv:
        w = _writer(out)
        w.writerow(["name", "type", "value"])
        w.writerow(["tau", "", _fmt(ac.tau)])
        w.writerow(["psi", "", _fmt(ac.psi)])
        for name, table in [("phi1", ac.phi1), ("phi2", ac.phi2),
                            ("c1", ac.c1), ("c2", ac.c2)]:
            for ty in sorted(table):
                w.writerow([name, _type_name(ty), _fmt(table[ty])])
        w.writerow(["C1", "", _fmt(ac.C1)])
        w.writerow(["C2", "", _fmt(ac.C2)])
        w.writerow(["B", "", _fmt(ac.B)])
        return 0
    print("growth constants for %s (params %s)"
          % (args.word, params.name), file=out)
    print("  tau = %s   psi = %s" % (_fmt(ac.tau), _fmt(ac.psi)), file=out)
    for ty in sorted(ac.c1):
        print("  type %s: phi1 = %s, phi2 = %s, c1 = %s, c2 = %s"
              % (_type_name(ty), _fmt(ac.phi1[ty]), _fmt(ac.phi2[ty]),
                 _fmt(ac.c1[ty]), _fmt(ac.c2[ty])), file=out)
    print("  C1 = %s   C2 = %s   decay B = %s"
          % (_fmt(ac.C1), _fmt(ac.C2), _fmt(ac.B)), file=out)
    return 0


def _cmd_automaton(args, out):
    if args.alphabet:
        from .words import Alphabet
        alphabet = Alphabet(args.alphabet)
    else:
        alphabet = load_params(args.params).alphabet
    mark = _parse_type(args.type)
    ca = clump_automaton(args.word, alphabet, mark=mark)
    if args.dot:
        out.write(to_dot(ca))
        return 0
    if args.csv:
        w = _writer(out)
        w.writerow(["state", "label", "role", "occurrence", "theta"])
        for q in range(ca.dfa.n_states):
            role = "extension" if q in ca.E else "plain"
            w.writerow([q, ca.labels[q] or "eps", role,
                        int(q in ca.O), ca.theta.get(q, "")])
        return 0
    print("clump automaton of %s over %s: %d states, %d occurrence "
          "states, %d pruned transitions"
          % (args.word, "".join(alphabet.symbols), ca.dfa.n_states,
             len(ca.O), len(ca.pruned)), file=out)
    for q in range(ca.dfa.n_states):
        tags = []
        if q in ca.O:
            tags.append("occurrence")
        tags.append("extension" if q in ca.E else "plain")
        if q in ca.theta:
            tags.append("theta=%s" % (ca.theta[q] or "eps"))
        print("  %2d %-10s %s" % (q, ca.labels[q] or "eps",
                                  ", ".join(tags)), file=out)
    return 0


def _cmd_oracle(args, out):
    params = load_params(args.params)
    if args.mc is not None:
        est, err = monte_carlo_pn(args.word, args.n, params,
                                  trials=args.mc, seed=args.seed)
        if args.csv:
            w = _writer(out)
            w.writerow(["word", "n", "trials", "seed", "estimate", "stderr"])
            w.writerow([args.word, args.n, args.mc, args.seed,
                        _fmt(est), _fmt(err)])
        else:
            print("monte carlo p_n(%s) at n=%d: %s +- %s (%d trials, "
                  "seed %d)" % (args.word, args.n, _fmt(est), _fmt(err),
                                args.mc, args.seed), file=out)
        return 0
    if args.pn:
        p = exact_pn_tiny(args.word, args.n, params)
        if args.csv:
            w = _writer(out)
            w.writerow(["word", "n", "p_n_exact", "p_n_float"])
            w.writerow([args.word, args.n, str(p), _fmt(float(p))])
        else:
            print("exact p_n(%s) at n=%d: %s = %s"
                  % (args.word, args.n, p, _fmt(float(p))), file=out)
        return 0
    mark = _parse_type(args.type)
    rep = enumerate_census(args.word, args.n, params.alphabet, params.nu,
                           mark=mark)
    if args.csv:
        w = _writer(out)
        w.writerow(["hits", "mass"])
        for m in sorted(rep.census):
            w.writerow([m, str(rep.census[m])])
        return 0
    print("census of %s at n=%d: %d avoiding texts, avoiding mass %s"
          % (rep.b, rep.n, rep.avoid_count, rep.avoid_prob), file=out)
    print("  E(hits, unconditioned) = %s" % rep.hit_sum, file=out)
    for ty in sorted(rep.typed_hit_sums):
        print("  E(hits of %s) = %s"
              % (_type_name(ty), rep.typed_hit_sums[ty]), file=out)
    for m in sorted(rep.census):
        print("  P(%d hits) = %s" % (m, rep.census[m]), file=out)
    return 0


def _cmd_series(args, out):
    params = load_params(args.params)
    words = [args.word, args.word2]
    columns = [hit_series(b, args.max, params) for b in words]
    header = ["n"]
    for b in words:
        header += ["fbar_%s" % b, "EH_%s" % b, "EHcond_%s" % b]
    if args.csv:
        w = _writer(out)
        w.writerow(header)
    else:
        print("  ".join("%-14s" % h for h in header), file=out)
    for n in range(args.max + 1):
        row = [str(n)]
        for fbar, hit in columns:
            row += [_fmt(fbar[n]), _fmt(hit[n]), _fmt(hit[n] / fbar[n])]
        if args.csv:
            w.writerow(row)
        else:
            print("  ".join("%-14s" % c for c in row), file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmerwait",
        description="Waiting times for a k-mer to appear after one round "
                    "of point mutations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--csv", action="store_true",
                       help="machine-readable CSV output")
        p.add_argument("--params", default="table1",
                       help="bundled name (table1, binary-uniform) or "
                            "parameter file path")
        return p

    p = add("wait", _cmd_wait, "waiting time of one word")
    p.add_argument("word")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--method", default="bnn",
                   choices=["bv", "bnn", "clump"])

    p = add("scan", _cmd_scan, "rank every k-mer by waiting time")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--method", action="append",
                   choices=["bv", "bnn", "clump"],
                   help="repeat to compare two methods side by side")
    p.add_argument("--top", type=int,
                   help="only the T slowest words (largest E(T))")

    p = add("corr", _cmd_corr, "correlation set of one or two words")
    p.add_argument("word")
    p.add_argument("word2", nargs="?")

    p = add("codes", _cmd_codes, "codeword matrices of the neighbor set")
    p.add_argument("word")
    p.add_argument("--type", help="substitution type, e.g. A:C")

    p = add("gf", _cmd_gf, "clump generating function")
    p.add_argument("word")
    p.add_argument("--type", help="substitution type, e.g. A:C")
    p.add_argument("--coeffs", type=int, metavar="N",
                   help="print the census up to z^N instead of the "
                        "closed form")

    p = add("asym", _cmd_asym, "quasi-linear growth constants")
    p.add_argument("word")

    p = add("automaton", _cmd_automaton, "clump automaton structure")
    p.add_argument("word")
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--alphabet", help="letters, overriding --params")
    p.add_argument("--type", help="substitution type, e.g. A:C")

    p = add("oracle", _cmd_oracle, "brute-force references")
    p.add_argument("word")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--census", action="store_true",
                      help="putative-hit census (default)")
    mode.add_argument("--pn", action="store_true",
                      help="exact appearance probability")
    mode.add_argument("--mc", type=int, metavar="TRIALS",
                      help="Monte Carlo appearance probability")
    p.add_argument("--seed", type=int, default=20260815)
    p.add_argument("--type", help="substitution type for the census")

    p = add("series", _cmd_series, "avoiding mass and hit expectations "
                                   "per length")
    p.add_argument("word")
    p.add_argument("word2")
    p.add_argument("--max", type=int, required=True, metavar="N")

    return parser


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    # the message alone, as errors print, not the source line that raised
    # it, which depends on where the package is installed
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args, sys.stdout) or 0
        except (ValueError, ArithmeticError, OSError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
