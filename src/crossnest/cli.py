"""Command line interface.

Verbs:

* ``count``     exhaustive counts of coloured diagrams, optionally refined
* ``gf``        exact rational generating function from a transfer graph
* ``series``    counting series by object size
* ``graph``     emit a transfer multigraph (DOT by default)
* ``bijection`` apply the crossing/nesting involution to one diagram
* ``selftest``  built-in consistency checks

Exit codes: 0 success, 1 usage or input error, 2 a resource cap refused
the computation, 3 a consistency check failed.

``gf`` and ``series`` work on the quotient of the transfer graph by its
symmetry group, colour relabellings and, at j = k, shape conjugations
(`automata.build_quotient`); ``graph`` prints the full graph.

Resource caps resolve flag > environment variable > default.  The
variables are CROSSNEST_MAX_STATES (graph states, or keyed states for
``gf`` and ``series``), CROSSNEST_MAX_GF_STATES (determinant size for
``gf``, in keyed states) and CROSSNEST_MAX_ORACLE (enumeration workload).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from . import __version__, automata, diagrams, involution, oracle, published, ratfunc, tableaux
from .errors import CapExceeded, ConsistencyError
from .oracle import EnumSpec


class _Usage(Exception):
    """Raised instead of argparse's SystemExit so main() can map it to 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage("%s%s: error: %s" % (self.format_usage(), self.prog, message))


def _cap(flag_value: Optional[int], flag: str, env_name: str) -> Optional[int]:
    """The cap from `flag`, else from the variable `env_name`, else None."""
    source, value = flag, flag_value
    if value is None:
        source, raw = env_name, os.environ.get(env_name)
        if not raw:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise ValueError("%s must be an integer, got %r" % (env_name, raw)) from None
    if value < 0:
        raise ValueError("%s must be nonnegative, got %d" % (source, value))
    return value


def _vertex_set(text: Optional[str], flag: str) -> Optional[frozenset[int]]:
    """The vertices of a comma separated list, naming a bad entry."""
    if text is None:
        return None
    text = text.strip()
    if not text:
        return frozenset()
    vertices = set()
    for part in text.split(","):
        try:
            vertices.add(int(part))
        except ValueError:
            raise ValueError("%s entry %r is not an integer" % (flag, part)) from None
    return frozenset(vertices)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _build(builder, args) -> automata.Multigraph:
    """The graph `builder` makes for the family, bounds and colours in
    `args`: `automata.build_general` for ``graph``, the symmetry
    quotient `automata.build_quotient` for ``gf`` and ``series``."""
    return builder(
        args.family,
        args.j,
        args.k,
        args.colours,
        max_states=_cap(args.max_states, "--max-states", "CROSSNEST_MAX_STATES"),
    )


def _by_size(family: str, top: int, walks) -> list[int]:
    """Counts of objects of size 0 .. top, where `walks(m)` gives the
    closed-walk counts of lengths 0 .. m - 1.

    Walk length m corresponds to size m for permutations and size m + 1
    for set partitions, whose moves live in the n + 1 gaps of a diagram;
    the empty set partition is the one object of size 0.
    """
    shift = 1 if family == "setpartition" else 0
    return [1] * shift + list(walks(top + 1 - shift))


# ---------------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    spec = EnumSpec(
        family=args.family,
        n=args.n,
        colours=args.colours,
        j=args.j,
        k=args.k,
        openers=_vertex_set(args.openers, "--openers"),
        closers=_vertex_set(args.closers, "--closers"),
        max_objects=_cap(args.max_objects, "--max-objects", "CROSSNEST_MAX_ORACLE"),
    )
    base = {
        "family": spec.family,
        "n": spec.n,
        "colours": spec.colours,
        "j": spec.j,
        "k": spec.k,
        "openers": None if spec.openers is None else sorted(spec.openers),
        "closers": None if spec.closers is None else sorted(spec.closers),
    }
    if args.histogram:
        hist = oracle.joint_histogram(spec)
        rows = hist.rows()
        if args.json:
            base["symmetric"] = hist.is_symmetric()
            base["histogram"] = [
                {"cr": c, "ne": e, "count": m} for c, e, m in rows
            ]
            _emit_json(base)
        elif args.csv:
            print("cr,ne,count")
            for c, e, m in rows:
                print("%d,%d,%d" % (c, e, m))
        else:
            for c, e, m in rows:
                print("cr=%d ne=%d: %d" % (c, e, m))
            print("total: %d" % hist.total())
            print("symmetric: %s" % ("yes" if hist.is_symmetric() else "no"))
        return 0
    total = oracle.count(spec)
    if args.json:
        base["count"] = total
        _emit_json(base)
    elif args.csv:
        print("count")
        print(total)
    else:
        print("count: %d" % total)
    return 0


# ---------------------------------------------------------------------------
# gf / series / graph


def _factor_text(constant: int, slopes) -> str:
    parts = ["(%s)" % ratfunc.IntPoly([1, -m]).to_text() for m in slopes]
    if not parts:
        return str(constant)
    text = "*".join(parts)
    if constant != 1:
        text = "%d * %s" % (constant, text)
    return text


def cmd_gf(args) -> int:
    cap = _cap(args.max_gf_states, "--max-gf-states", "CROSSNEST_MAX_GF_STATES")
    rf = ratfunc.gf_from_graph(_build(automata.build_quotient, args), max_states=cap)
    factors = ratfunc.split_linear_factors(rf.den)
    if args.json:
        _emit_json(
            {
                "family": args.family,
                "colours": args.colours,
                "j": args.j,
                "k": args.k,
                "numerator": list(rf.num.coeffs),
                "denominator": list(rf.den.coeffs),
                "denominator_factors": None
                if factors is None
                else {"constant": factors[0], "slopes": list(factors[1])},
            }
        )
    else:
        print("numerator: %s" % rf.num.to_text())
        print("denominator: %s" % rf.den.to_text())
        if factors is not None and rf.den.degree() > 0:
            print("denominator factors: %s" % _factor_text(*factors))
    return 0


def cmd_series(args) -> int:
    if args.terms < 0:
        raise ValueError("--terms must be nonnegative")
    q = _build(automata.build_quotient, args)
    counts = _by_size(
        args.family, args.terms, lambda m: ratfunc.series_by_power(q, m).coeffs
    )
    if args.json:
        _emit_json(
            {
                "family": args.family,
                "colours": args.colours,
                "j": args.j,
                "k": args.k,
                "first_size": 0,
                "counts": counts,
            }
        )
    elif args.csv:
        print("size,count")
        for size, value in enumerate(counts):
            print("%d,%d" % (size, value))
    else:
        print(",".join(str(value) for value in counts))
    return 0


def cmd_graph(args) -> int:
    g = _build(automata.build_general, args)
    if args.json:
        _emit_json(g.to_json_dict())
    else:
        print(automata.export_dot(g))
    return 0


# ---------------------------------------------------------------------------
# bijection


def _trace_entries(obj) -> list[dict]:
    walks = [
        involution.encode_slice(pairs, enhanced, len(obj)).to_json_dict()
        for pairs, enhanced in diagrams.colour_slices(obj)
    ]
    if isinstance(obj, diagrams.ColouredSetPartition):
        return [{"colour": c, "diagram": w} for c, w in enumerate(walks, start=1)]
    return [
        {"colour": c, "upper": upper, "lower": lower}
        for c, (upper, lower) in enumerate(zip(walks[0::2], walks[1::2]), start=1)
    ]


def cmd_bijection(args) -> int:
    obj = diagrams.parse_diagram(args.input)
    image = involution.involute(obj)
    trace = _trace_entries(obj) if args.trace else None
    if args.json:
        icr, ine = diagrams.cr_ne(obj)
        mcr, mne = diagrams.cr_ne(image)
        _emit_json(
            {
                "input": obj.to_text(),
                "image": image.to_text(),
                "input_stats": {"cr": icr, "ne": ine},
                "image_stats": {"cr": mcr, "ne": mne},
                "trace": trace,
            }
        )
    else:
        print(image.to_text())
        if trace is not None:
            print(json.dumps(trace, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_items(max_objects: Optional[int]):
    def build(family: str, r: int) -> automata.Multigraph:
        if family == "setpartition":
            return automata.build_setpartition_22(r)
        return automata.build_permutation_22(r)

    def gf_published(family, table):
        bad = []
        for r, (num, den) in sorted(table.items()):
            rf = ratfunc.gf_from_graph(build(family, r))
            if rf.num.coeffs != num or rf.den.coeffs != den:
                bad.append("r=%d got %s" % (r, rf.to_text()))
        return ("FAIL", "; ".join(bad)) if bad else ("PASS", None)

    def general_agrees():
        bad = []
        for family in diagrams.FAMILIES:
            for r in (1, 2):
                full = ratfunc.gf_from_graph(build(family, r))
                quotient = ratfunc.gf_from_graph(
                    automata.build_quotient(family, 2, 2, r)
                )
                if full != quotient:
                    bad.append("%s r=%d" % (family, r))
        return ("FAIL", "; ".join(bad)) if bad else ("PASS", None)

    def series_methods():
        bad = []
        for family in diagrams.FAMILIES:
            for r in (1, 2):
                g = build(family, r)
                by_gf = ratfunc.series(ratfunc.gf_from_graph(g), 12).coeffs
                by_power = ratfunc.series_by_power(g, 12).coeffs
                if by_gf != by_power:
                    bad.append("%s r=%d" % (family, r))
        return ("FAIL", "; ".join(bad)) if bad else ("PASS", None)

    def oracle_agrees(family, cases):
        for r, top in cases:
            g = build(family, r)
            sizes = _by_size(
                family, top, lambda m: ratfunc.series_by_power(g, m).coeffs
            )
            for n, want in enumerate(sizes):
                spec = EnumSpec(family, n, r, j=2, k=2, max_objects=max_objects)
                got = oracle.count(spec)
                if got != want:
                    return (
                        "FAIL",
                        "r=%d n=%d oracle %d transfer %d" % (r, n, got, want),
                    )
        return ("PASS", None)

    def involution_invariants():
        cases = (
            ("permutation", 4, 1),
            ("permutation", 3, 2),
            ("setpartition", 4, 1),
            ("setpartition", 3, 2),
        )
        checked = 0
        for family, n, r in cases:
            spec = EnumSpec(family, n, r, max_objects=max_objects)
            for obj in oracle.enumerate_objects(spec):
                image = involution.involute(obj)
                c, e = diagrams.cr_ne(obj)
                if diagrams.cr_ne(image) != (e, c):
                    return ("FAIL", "statistics not swapped on %r" % (obj,))
                if involution.involute(image) != obj:
                    return ("FAIL", "not an involution on %r" % (obj,))
                if diagrams.opener_closer_sets(image) != diagrams.opener_closer_sets(obj):
                    return ("FAIL", "opener/closer sets moved on %r" % (obj,))
                checked += 1
        return ("PASS", "%d diagrams" % checked)

    def tableau_goldens():
        encoders = {
            "semioscillating": tableaux.encode_semioscillating,
            "vacillating": tableaux.encode_vacillating,
            "hesitating": tableaux.encode_hesitating,
        }
        for example in published.TABLEAU_EXAMPLES:
            seq = encoders[example["kind"]](example["arcs"], example["n"])
            if seq.shapes != example["shapes"]:
                return ("FAIL", "%s shapes differ" % example["kind"])
            if seq.fillings != example["fillings"]:
                return ("FAIL", "%s fillings differ" % example["kind"])
            if tuple(sorted(tableaux.decode(seq))) != tuple(sorted(example["arcs"])):
                return ("FAIL", "%s does not decode back" % example["kind"])
        got = involution.involute(
            diagrams.parse_diagram(published.INVOLUTION_EXAMPLE_INPUT)
        ).to_text()
        if got != published.INVOLUTION_EXAMPLE_IMAGE:
            return ("FAIL", "worked involution image is %s" % got)
        return ("PASS", None)

    return (
        (
            "gf-setpartition-published",
            lambda: gf_published("setpartition", published.SETPARTITION_GF),
        ),
        (
            "gf-permutation-published",
            lambda: gf_published("permutation", published.PERMUTATION_GF),
        ),
        ("general-builder-agrees", general_agrees),
        ("series-methods-agree", series_methods),
        (
            "oracle-vs-transfer-setpartition",
            lambda: oracle_agrees("setpartition", ((1, 6), (2, 5))),
        ),
        (
            "oracle-vs-transfer-permutation",
            lambda: oracle_agrees("permutation", ((1, 5), (2, 4))),
        ),
        ("involution-invariants", involution_invariants),
        ("tableau-goldens", tableau_goldens),
    )


def cmd_selftest(args) -> int:
    max_objects = _cap(args.max_objects, "--max-objects", "CROSSNEST_MAX_ORACLE")
    results = []
    for name, fn in _selftest_items(max_objects):
        start = time.perf_counter()
        try:
            status, detail = fn()
        except CapExceeded as exc:
            status, detail = "SKIP", str(exc)
        except Exception as exc:  # selftest reports, never crashes
            status, detail = "FAIL", "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        results.append(
            {
                "name": name,
                "status": status,
                "seconds": round(elapsed, 3),
                "detail": detail,
            }
        )
        if not args.json:
            line = "%s %s (%.2fs)" % (status, name, elapsed)
            if detail:
                line += ": " + detail
            print(line)
    fails = sum(1 for item in results if item["status"] == "FAIL")
    skips = sum(1 for item in results if item["status"] == "SKIP")
    passes = len(results) - fails - skips
    overall = "FAIL" if fails else ("SKIP" if skips else "PASS")
    if args.json:
        _emit_json({"status": overall, "items": results})
    else:
        print(
            "selftest: %s (%d passed, %d skipped, %d failed)"
            % (overall, passes, skips, fails)
        )
    if fails:
        return 3
    if skips and args.fail_on_skip:
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser every `main` call shares; parsing leaves it as built."""
    parser = _Parser(
        prog="crossnest",
        description="Coloured diagram statistics, transfer graphs and "
        "exact generating functions.",
    )
    parser.add_argument(
        "--version", action="version", version="crossnest " + __version__
    )
    sub = parser.add_subparsers(dest="verb", metavar="verb", required=True)

    def family_arg(p):
        p.add_argument("--family", choices=diagrams.FAMILIES, required=True)

    def max_objects_arg(p):
        p.add_argument(
            "--max-objects",
            type=int,
            help="enumeration cap (default %d)" % oracle.DEFAULT_MAX_OBJECTS,
        )

    p = sub.add_parser("count", help="count diagrams by exhaustive enumeration")
    family_arg(p)
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--colours", type=int, default=1)
    p.add_argument("--j", type=int, help="keep diagrams with crossing number < J")
    p.add_argument("--k", type=int, help="keep diagrams with nesting number < K")
    p.add_argument(
        "--openers", help="comma separated vertices; keep exact opener sets"
    )
    p.add_argument(
        "--closers", help="comma separated vertices; keep exact closer sets"
    )
    p.add_argument(
        "--histogram",
        action="store_true",
        help="tabulate by (crossing, nesting) pair instead",
    )
    max_objects_arg(p)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_count)

    def graph_args(p, quotient=False):
        """Add the graph flags; return the group that holds ``--json``."""
        family_arg(p)
        p.add_argument("--colours", type=int, default=1)
        p.add_argument("--j", type=int, default=2)
        p.add_argument("--k", type=int, default=2)
        p.add_argument(
            "--max-states",
            type=int,
            help="%s cap (default %d)"
            % ("keyed-state" if quotient else "graph state", automata.DEFAULT_MAX_STATES),
        )
        out = p.add_mutually_exclusive_group()
        out.add_argument("--json", action="store_true")
        return out

    p = sub.add_parser("gf", help="exact generating function")
    graph_args(p, quotient=True)
    p.add_argument(
        "--max-gf-states",
        type=int,
        help="determinant size cap, in keyed states (default %d)"
        % ratfunc.DEFAULT_MAX_GF_STATES,
    )
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("series", help="counting series by size")
    out = graph_args(p, quotient=True)
    p.add_argument(
        "--terms",
        type=int,
        default=10,
        help="largest size to report; prints sizes 0..N",
    )
    # hidden, with power as its one choice: perfbench's series-power
    # requests pass --method power, so dropping it would change the benchmark
    p.add_argument("--method", choices=("power",), help=argparse.SUPPRESS)
    out.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("graph", help="emit a transfer multigraph")
    graph_args(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("bijection", help="apply the involution to a diagram")
    p.add_argument(
        "--input",
        required=True,
        help="diagram text, e.g. '4 5 3 6 2 1 / 1 2 1 2 2 2' "
        "or '{1,3,6},{4,5},{2}'",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="also emit the per-colour tableau walks of the input",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    p.add_argument("--fail-on-skip", action="store_true")
    max_objects_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Usage as exc:
        sys.stderr.write(str(exc).rstrip() + "\n")
        return 1
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except CapExceeded as exc:
        sys.stderr.write("cap exceeded: %s\n" % exc)
        return 2
    except ConsistencyError as exc:
        sys.stderr.write("consistency failure: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
