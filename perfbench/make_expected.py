#!/usr/bin/env python3
"""Write the expected-verdict tables under perfbench/expected/.

The tables come from the paper's arguments, not from running the checker:

afs2-n   Every obligation Holds.  Each spec has the shape p -> AX p' of the
         AFS-2 invariants (paper section 4.3), which every component and the
         composition preserve.
ring-live-n
         Each station's spec is AG (st<i> = want -> EF st<i> = cs).
         Components: all Fail.  In isolation nobody returns the token, so a
         station that used it once can never enter cs again.
         Composed: station0 Holds, its INIT tok0 gives it the token and the
         ring hands it back.  Every other station Fails: its INIT !tok<i>
         admits states where no station holds a token at all.

Ids are those of the generator's own text (seed 0): <target>/<module>.SPEC<k>.
`perfbench --self-test` confirms the small tables with the explicit-state
checker.  Run from the repository root: python3 perfbench/make_expected.py
"""
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def afs2(n):
    prefix = "afs%d" % n
    specs = [("%sserver" % prefix, k) for k in range(1, 2 * n + 1)]
    specs += [("%sclient%d" % (prefix, i), 1) for i in range(1, n + 1)]
    rows = [("%s/%s.SPEC%d" % (m, m, k), "Holds") for m, k in specs]
    rows += [("composed/%s.SPEC%d" % (m, k), "Holds") for m, k in specs]
    return rows


def ring_live(n):
    rows = [("station%d/station%d.SPEC1" % (i, i), "Fails") for i in range(n)]
    rows += [("composed/station%d.SPEC1" % i, "Holds" if i == 0 else "Fails")
             for i in range(n)]
    return rows


def write(name, rows, why):
    with open(os.path.join(HERE, "expected", name), "w") as f:
        f.write("# %s (written by make_expected.py; see its docstring)\n" % why)
        for oid, verdict in rows:
            f.write("%s\t%s\n" % (oid, verdict))


if __name__ == "__main__":
    write("afs2-1.tsv", afs2(1), "afs2-1: every obligation Holds")
    write("afs2-2.tsv", afs2(2), "afs2-2: every obligation Holds")
    write("afs2-12.tsv", afs2(12), "afs2-12: every obligation Holds")
    write("ring-live-4.tsv", ring_live(4),
          "ring-live-4: components Fail; composed station0 Holds, others Fail")
    write("ring-live-24.tsv", ring_live(24),
          "ring-live-24: components Fail; composed station0 Holds, others Fail")
