"""The four benchmark workloads, the layer metrics each must move, and the
helpers that run one request and check it.

Every workload is a list of requests sent closed loop by one client: the
next request starts when the previous one has returned.  The seed fixes the
inputs.  It shuffles the order of the fixed CLI requests (`gf`,
`series-power`, `oracle`) and draws the diagrams of `bijection`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import re
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    CLI requests carry `argv` and are named by their golden.  Bijection
    requests carry diagram `text` and are named by their input class.
    """

    name: str
    argv: Optional[tuple[str, ...]] = None
    text: Optional[str] = None


def _cli(name: str, *argv) -> Request:
    return Request(name, tuple(str(a) for a in argv))


def _gf_requests() -> list[Request]:
    # Over 90% of a pass is ratfunc determinants and the GCD; graph
    # building is under 1%.
    reqs = [
        _cli("gf-setpartition-r%d" % r, "gf", "--family", "setpartition", "--colours", r)
        for r in range(1, 8)
    ]
    reqs += [
        _cli("gf-permutation-r%d" % r, "gf", "--family", "permutation", "--colours", r)
        for r in range(1, 5)
    ]
    reqs.append(
        _cli(
            "gf-permutation-j3k2-r3",
            "gf", "--family", "permutation", "--j", 3, "--k", 2, "--colours", 3,
        )
    )
    reqs.append(
        _cli(
            "series-permutation-r4-t30",
            "series", "--family", "permutation", "--colours", 4, "--terms", 30,
        )
    )
    reqs.append(_cli("selftest", "selftest"))
    return reqs


def _series_power_requests() -> list[Request]:
    # The same kind of transfer graphs as `gf`, used through repeated
    # matrix-vector products instead of a determinant.
    return [
        _cli(
            "series-power-setpartition-j3k3-r4",
            "series", "--family", "setpartition", "--j", 3, "--k", 3,
            "--colours", 4, "--terms", 20, "--method", "power",
        ),
        _cli(
            "series-power-permutation-r6",
            "series", "--family", "permutation", "--colours", 6,
            "--terms", 20, "--method", "power",
        ),
        _cli("graph-dot-permutation-r5", "graph", "--family", "permutation", "--colours", 5),
        _cli(
            "graph-json-permutation-j3k3-r2",
            "graph", "--family", "permutation", "--j", 3, "--k", 3,
            "--colours", 2, "--json",
        ),
    ]


def _oracle_requests() -> list[Request]:
    # Brute-force enumeration and cr_ne only; no graph work.
    reqs = []
    for family, r, top in (("permutation", 2, 6), ("setpartition", 2, 7), ("permutation", 3, 5)):
        reqs += [
            _cli(
                "count-%s-r%d-n%d" % (family, r, n),
                "count", "--family", family, "--colours", r,
                "--j", 2, "--k", 2, "--n", n,
            )
            for n in range(top + 1)
        ]
    reqs.append(
        _cli(
            "histogram-permutation-r2-n6",
            "count", "--family", "permutation", "--n", 6, "--colours", 2, "--histogram",
        )
    )
    return reqs


FIXED = {
    "gf": _gf_requests,
    "series-power": _series_power_requests,
    "oracle": _oracle_requests,
}

WORKLOADS = ("gf", "series-power", "oracle", "bijection")


def cli_requests() -> list[Request]:
    """Every fixed CLI request, each of which has a golden output."""
    return [req for make in FIXED.values() for req in make()]


# ---------------------------------------------------------------------------
# bijection inputs


def _permutation_text(word, colours) -> str:
    return "%s / %s" % (" ".join(map(str, word)), " ".join(map(str, colours)))


def _distinct_coloured_permutations(rng: random.Random, n: int, colours: int, count: int):
    """`count` distinct coloured permutations of size n, drawn uniformly."""
    words = list(itertools.permutations(range(1, n + 1)))
    colourings = list(itertools.product(range(1, colours + 1), repeat=n))
    picks = rng.sample(range(len(words) * len(colourings)), count)
    return [
        _permutation_text(words[p // len(colourings)], colourings[p % len(colourings)])
        for p in picks
    ]


def _random_permutation(rng: random.Random, n: int, colours: int) -> str:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return _permutation_text(word, [rng.randint(1, colours) for _ in range(n)])


def _random_set_partition(rng: random.Random, n: int, colours: int) -> str:
    blocks: list[list[int]] = []
    for v in range(1, n + 1):
        b = rng.randrange(len(blocks) + 1)
        if b == len(blocks):
            blocks.append([v])
        else:
            blocks[b].append(v)
    text = ",".join("{%s}" % ",".join(map(str, b)) for b in blocks)
    arcs = n - len(blocks)
    if arcs:
        text += " / " + " ".join(str(rng.randint(1, colours)) for _ in range(arcs))
    return text


def _bijection_requests(rng: random.Random) -> list[Request]:
    # Sizes 6 and 8 measure per-call overhead; size 30 measures per-arc work.
    reqs = [Request("perm6-c2", text=t) for t in _distinct_coloured_permutations(rng, 6, 2, 2000)]
    reqs += [Request("setpart8-c2", text=_random_set_partition(rng, 8, 2)) for _ in range(2000)]
    reqs += [Request("perm30-c3", text=_random_permutation(rng, 30, 3)) for _ in range(200)]
    reqs += [Request("setpart30-c3", text=_random_set_partition(rng, 30, 3)) for _ in range(200)]
    rng.shuffle(reqs)
    return reqs


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one workload; the same seed gives the same list."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "bijection":
        return _bijection_requests(rng)
    reqs = FIXED[workload]()
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# which per-layer metric must read nonzero on which workload

PREDICTED = {
    "gf": (
        "cli.self_s",
        "automata.build_s", "automata.states", "automata.nonzeros", "automata.cells",
        "ratfunc.charpoly_s", "ratfunc.charpoly_calls", "ratfunc.det_s",
        "ratfunc.gcd_s", "ratfunc.factor_s", "ratfunc.series_s",
        "ratfunc.den_bits", "ratfunc.self_s",
    ),
    "series-power": (
        "cli.self_s",
        "automata.build_s", "automata.states", "automata.nonzeros", "automata.cells",
        "automata.self_s", "ratfunc.power_s", "ratfunc.self_s",
    ),
    "oracle": (
        "cli.self_s",
        "oracle.count_s", "oracle.histogram_s", "oracle.visited",
        "oracle.admitted", "oracle.admit_ratio", "oracle.self_s",
        "diagrams.cr_ne_s", "diagrams.cr_ne_calls", "diagrams.self_s",
    ),
    "bijection": (
        "diagrams.parse_s", "diagrams.to_text_s", "diagrams.self_s",
        "tableaux.encode_s", "tableaux.transpose_s", "tableaux.decode_s",
        "tableaux.validate_s", "tableaux.calls", "tableaux.self_s",
        "involution.self_s",
    ),
}


# ---------------------------------------------------------------------------
# running and checking one request

_SELFTEST_SECONDS = re.compile(r"\(\d+\.\d+s\)")


def run_cli(main, argv) -> tuple[Optional[int], str]:
    """Call `main(argv)` with stdout and stderr captured.

    Returns the exit code and stdout.  An exception escaping `main` is a
    failed request: it returns None as the code.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:  # a crash is counted, not fatal to the run
        return None, "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue()


def normalise(argv, stdout: str) -> str:
    """Mask the per-item timings that `selftest` prints; all else is kept."""
    if argv[0] == "selftest":
        return _SELFTEST_SECONDS.sub("(*s)", stdout)
    return stdout


def digest(argv, stdout: str) -> str:
    return hashlib.sha256(normalise(argv, stdout).encode()).hexdigest()


def check_bijection(diagrams, involution, text: str, out: str) -> Optional[str]:
    """None when `out` is a valid image of `text`, else the reason it is not.

    The image must swap cr and ne, map back to the input under a second
    involution, and keep the opener and closer sets.
    """
    obj = diagrams.parse_diagram(text)
    image = diagrams.parse_diagram(out)
    cr, ne = diagrams.cr_ne(obj)
    if diagrams.cr_ne(image) != (ne, cr):
        return "cr and ne not swapped"
    if involution.involute(image) != obj:
        return "second involution does not give back the input"
    if "{" in text:
        ends = lambda d: (diagrams.arc_start_vertices(d.arcs()), diagrams.arc_end_vertices(d.arcs()))
    else:
        ends = lambda d: (diagrams.openers(d), diagrams.closers(d))
    if ends(obj) != ends(image):
        return "opener or closer set moved"
    return None
