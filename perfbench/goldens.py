"""Golden outputs of the fixed CLI requests, and where each comes from.

    python3 perfbench/goldens.py           # check every golden's provenance
    python3 perfbench/goldens.py --write   # record the current outputs

goldens.json holds the SHA-256 of each request's stdout (selftest timings
masked), its length, and the text itself when it is short.  The check
re-derives every golden from a path independent of the one that printed it:

* `gf` for r <= 4: the published tables in `crossnest.published`;
* `gf` for r = 5..7 and the general builder: the printed fraction's power
  series against `series_by_power` on the transfer graph, for enough terms
  to prove the two rational functions equal;
* `series`: walks in the general builder's graph, by `series_by_power`
  for the recurrence method and by a count made here for the power method;
  then the published prefix, or `oracle.count` for the first sizes;
* `graph`: closed walks in the printed graph against `oracle.count`;
* `count`: the published series; `--histogram`: its total, its symmetry and
  its cr = ne = 1 cell;
* `selftest`: every item passes.

Polynomial text is parsed and printed here, not by the library.
"""
from __future__ import annotations

import json
import re
import sys
from math import factorial, isqrt
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
SHORT = 2000  # keep the text of outputs up to this many characters


def options(argv) -> dict:
    """`verb --key value --flag` as {"verb": verb, "key": value, "flag": True}."""
    opts = {"verb": argv[0]}
    rest = list(argv[1:])
    while rest:
        key = rest.pop(0)[2:]
        opts[key] = rest.pop(0) if rest and not rest[0].startswith("--") else True
    return opts


# ---------------------------------------------------------------------------
# polynomials as ascending coefficient lists


def poly_text(coeffs) -> str:
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        body = str(abs(c)) if e == 0 else ("x" if e == 1 else "x^%d" % e)
        if e and abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) or "0"


def parse_poly(text: str) -> list[int]:
    coeffs: dict[int, int] = {}
    tokens = text.split(" ")
    terms = [(1, tokens[0])] + [
        (1 if sign == "+" else -1, body) for sign, body in zip(tokens[1::2], tokens[2::2])
    ]
    for sign, body in terms:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        mag, _, power = body.rpartition("*") if "*" in body else ("", "", body)
        if "x" not in power:
            coeffs[0] = sign * int(power)
            continue
        e = int(power[2:]) if power.startswith("x^") else 1
        coeffs[e] = sign * (int(mag) if mag else 1)
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def power_series(num, den, terms: int) -> list[int]:
    out: list[int] = []
    for t in range(terms):
        acc = num[t] if t < len(num) else 0
        acc -= sum(den[i] * out[t - i] for i in range(1, min(t, len(den) - 1) + 1))
        q, r = divmod(acc, den[0])
        if r:
            raise ValueError("non-integer series coefficient")
        out.append(q)
    return out


def linear_factors(den):
    """(constant, sorted slopes) when den = constant * prod(1 - m x) over
    the integers, else None.  Roots of the reversed polynomial are the m."""
    desc, slopes = list(den), []
    while len(desc) > 1:
        last = abs(desc[-1])
        small = [d for d in range(1, isqrt(last) + 1) if last % d == 0]
        divisors = sorted(set(small + [last // d for d in small]))
        for m in (s * d for d in divisors for s in (1, -1)):
            quotient = [desc[0]]
            for a in desc[1:]:
                quotient.append(a + m * quotient[-1])
            if quotient[-1] == 0:
                desc = quotient[:-1]
                slopes.append(m)
                break
        else:
            return None
    return desc[0], sorted(slopes)


def gf_text(num, den) -> str:
    lines = ["numerator: " + poly_text(num), "denominator: " + poly_text(den)]
    split = linear_factors(den)
    if split is not None and len(den) > 1:
        constant, slopes = split
        text = "*".join("(%s)" % poly_text([1, -m]) for m in slopes)
        lines.append("denominator factors: " + (text if constant == 1 else "%d * %s" % (constant, text)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# walks in an adjacency matrix, computed here


def closed_walks(matrix, terms: int) -> list[int]:
    """Closed walks at state 0 of each length below `terms`."""
    rows = [[(c, m) for c, m in enumerate(row) if m] for row in matrix]
    vec, out = [1] + [0] * (len(matrix) - 1), []
    for _ in range(terms):
        out.append(vec[0])
        nxt = [0] * len(vec)
        for i, row in enumerate(rows):
            if vec[i]:
                for c, m in row:
                    nxt[c] += vec[i] * m
        vec = nxt
    return out


def dot_matrix(text: str) -> list[list[int]]:
    n = len(re.findall(r"^  n\d+ \[label=", text, re.M))
    matrix = [[0] * n for _ in range(n)]
    for a, b in re.findall(r"^  n(\d+) -- n(\d+)", text, re.M):
        a, b = int(a), int(b)
        matrix[a][b] += 1
        if a != b:
            matrix[b][a] += 1
    return matrix


# ---------------------------------------------------------------------------
# provenance, one function per kind of request


def _oracle_counts(crossnest, family, r, j, k, top) -> list[int]:
    spec = crossnest.oracle.EnumSpec
    return [crossnest.oracle.count(spec(family, n, r, j=j, k=k)) for n in range(top + 1)]


def check_gf(crossnest, opts, text):
    r, j, k = int(opts["colours"]), int(opts.get("j", 2)), int(opts.get("k", 2))
    family = opts["family"]
    lines = text.splitlines()
    num, den = parse_poly(lines[0].split(": ")[1]), parse_poly(lines[1].split(": ")[1])
    if text != gf_text(num, den):
        return "text does not reprint from its own coefficients"
    published = crossnest.published
    table = published.SETPARTITION_GF if family == "setpartition" else published.PERMUTATION_GF
    if (j, k) == (2, 2) and r in table:
        if (tuple(num), tuple(den)) != table[r]:
            return "differs from the published GF"
        if family == "permutation" and linear_factors(den)[1] != list(published.PERMUTATION_FACTOR_SLOPES[r]):
            return "denominator factors differ from the published slopes"
        return None
    graph = crossnest.automata.build_general(family, j, k, r)
    # Both sides are ratios of polynomials of degree at most this many.
    terms = len(graph.matrix) + len(num) + len(den) + 1
    walks = crossnest.ratfunc.series_by_power(graph, terms).coeffs
    if list(walks) != power_series(num, den, terms):
        return "series of the GF differs from series_by_power"
    return None


def check_series(crossnest, opts, text):
    r, j, k = int(opts["colours"]), int(opts.get("j", 2)), int(opts.get("k", 2))
    family, terms = opts["family"], int(opts["terms"])
    counts = [int(v) for v in text.strip().split(",")]
    if len(counts) != terms + 1:
        return "wrong number of terms"
    # Walks in the general builder's graph, counted by a method other than
    # the one that printed the output.
    graph = crossnest.automata.build_general(family, j, k, r)
    shift = 1 if family == "setpartition" else 0
    power = opts.get("method") == "power"
    if power:
        walks = closed_walks(graph.matrix, terms + 1 - shift)
    else:
        walks = list(crossnest.ratfunc.series_by_power(graph, terms + 1 - shift).coeffs)
    if counts != [1] * shift + walks:
        return "differs from the walks of the general builder's graph"
    if power:
        # Enumeration grows as r^n n!; these sizes take a second or two.
        top = {"setpartition": 6, "permutation": 4}[family]
        if counts[: top + 1] != _oracle_counts(crossnest, family, r, j, k, top):
            return "differs from oracle.count"
        return None
    published = crossnest.published
    if family == "permutation":
        prefix = published.PERMUTATION_SERIES[r]
    else:
        prefix = (1,) + published.SETPARTITION_SERIES[r]
    if counts[: len(prefix)] != list(prefix):
        return "differs from the published series"
    return None


def check_graph(crossnest, opts, text):
    r, j, k = int(opts["colours"]), int(opts.get("j", 2)), int(opts.get("k", 2))
    if opts["family"] != "permutation":
        return "no provenance for set partition graphs"
    matrix = json.loads(text)["adjacency"] if opts.get("json") else dot_matrix(text)
    if any(matrix[a][b] != matrix[b][a] for a in range(len(matrix)) for b in range(a)):
        return "adjacency is not symmetric"
    top = 4
    if closed_walks(matrix, top + 1) != _oracle_counts(crossnest, "permutation", r, j, k, top):
        return "closed walks differ from oracle.count"
    return None


def check_count(crossnest, opts, text):
    r, n, family = int(opts["colours"]), int(opts["n"]), opts["family"]
    published = crossnest.published
    if not opts.get("histogram"):
        if family == "permutation":
            want = published.PERMUTATION_SERIES[r][n]
        else:
            want = 1 if n == 0 else published.SETPARTITION_SERIES[r][n - 1]
        return None if text == "count: %d\n" % want else "differs from the published series"
    lines = text.splitlines()
    cells = {}
    for line in lines[:-2]:
        c, e, m = map(int, re.fullmatch(r"cr=(\d+) ne=(\d+): (\d+)", line).groups())
        cells[(c, e)] = m
    if family != "permutation" or list(cells) != sorted(cells):
        return "unexpected histogram rows"
    if lines[-2:] != ["total: %d" % (factorial(n) * r**n), "symmetric: yes"]:
        return "total or symmetry line is wrong"
    if sum(cells.values()) != factorial(n) * r**n:
        return "cells do not sum to n! r^n"
    if any(cells.get((e, c)) != m for (c, e), m in cells.items()):
        return "histogram is not symmetric"
    if cells[(1, 1)] != published.PERMUTATION_SERIES[r][n]:
        return "cr = ne = 1 cell differs from the published series"
    return None


def check_selftest(crossnest, opts, text):
    lines = text.splitlines()
    if not all(line.startswith("PASS ") for line in lines[:-1]):
        return "an item did not pass"
    if not re.fullmatch(r"selftest: PASS \(\d+ passed, 0 skipped, 0 failed\)", lines[-1]):
        return "summary is not PASS"
    return None


CHECKS = {
    "gf": check_gf,
    "series": check_series,
    "graph": check_graph,
    "count": check_count,
    "selftest": check_selftest,
}


def current_outputs(cli) -> dict:
    outputs = {}
    for req in workloads.cli_requests():
        code, out = workloads.run_cli(cli.main, req.argv)
        if code != 0:
            raise SystemExit("%s exited %s: %s" % (req.name, code, out))
        outputs[req.name] = (req.argv, workloads.normalise(req.argv, out))
    return outputs


def main(argv) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import crossnest.automata
    import crossnest.cli
    import crossnest.oracle
    import crossnest.published
    import crossnest.ratfunc

    if argv == ["--write"]:
        goldens = {}
        for name, (args, out) in current_outputs(crossnest.cli).items():
            goldens[name] = {
                "argv": list(args),
                "sha256": workloads.digest(args, out),
                "bytes": len(out.encode()),
            }
            if len(out) <= SHORT:
                goldens[name]["stdout"] = out
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print("wrote %d goldens to %s" % (len(goldens), GOLDENS.name))
        return 0
    if argv:
        raise SystemExit("usage: goldens.py [--write]")

    goldens = json.loads(GOLDENS.read_text())
    names = {req.name for req in workloads.cli_requests()}
    bad = sorted(names ^ set(goldens))
    if bad:
        print("golden set does not match the requests: %s" % ", ".join(bad))
        return 1
    failures = 0
    for name, golden in sorted(goldens.items()):
        argv = golden["argv"]
        text = golden.get("stdout")
        if text is None:
            text = workloads.normalise(argv, workloads.run_cli(crossnest.cli.main, argv)[1])
        if workloads.digest(argv, text) != golden["sha256"]:
            why = "stored text does not match the digest"
        else:
            opts = options(argv)
            why = CHECKS[opts["verb"]](crossnest, opts, text)
        failures += why is not None
        print("%s %s%s" % ("FAIL" if why else "ok  ", name, ": " + why if why else ""))
    print("%d goldens, %d failed" % (len(goldens), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
