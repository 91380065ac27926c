"""Fuzz gate: any argv gives exit 0-3, with no exception escaping `run`,
within a time budget per example.

Each class of input below is one command (or argv made of random tokens)
with valid, edge and malformed flag values.  `verify` reads documents built
from small random component lists, genuine documents, mutations of genuine
systems (test_fold's corruptions) and hostile raw bytes.  Output is read by
a reader that stops after STOP_AFTER characters, as `| head` does, so
`table` and `enumerate`, whose output grows without bound, are timed to
that point; `main` exits 0 in that case.

The classes that cannot pass yet are explicit xfails with their reasons,
and run in a forked copy of this process that is killed at the budget, so
each costs at most the budget.
"""

import contextlib
import functools
import io
import json
import multiprocessing
import time
from math import prod

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from sumsystems.cli import run
from sumsystems.jof import enumerate_jofs
from sumsystems.shape import jof_to_text
from sumsystems.systems import build_sum_system, centre, system_to_json, to_sum_and_distance

from test_fold import corruptions

BUDGET_S = 2.0  # per example, generous: the slowest passing class takes well under 1 s
STOP_AFTER = 1 << 16  # characters the reader takes before it stops
GATE = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# an xfail class stops at its first failure, unshrunk, as each try may cost the budget
XFAIL = settings(GATE, max_examples=2, phases=[Phase.generate])

MAX = 2**63 - 1
# smooth values with large and varied prime signatures
SMOOTH = (
    720, 2**62, 3**39, 30920671782000, 8677099422351360000,
    2**4 * 3**3 * 5**3 * 7**2 * 11**2 * 13 * 17 * 19 * 23,
)
SUBCOMMANDS = ("count", "enumerate", "build", "verify", "table", "divisor-fn", "check")
FLAGS = (
    "--n", "--m", "--tuple", "--unordered", "--limit", "--format", "--jof", "--centred",
    "--sum-and-distance", "--file", "--max-n", "--max-m", "--kind", "--j", "--r", "--help",
)
MALFORMED = ("", "-", "x", "1e3", "0x10", "1.5", "nan", "--", " 7", "1_000", "+4", "٣")


class _ReaderStops(BaseException):
    """Raised by the stdout sink once the reader has taken STOP_AFTER
    characters; no handler of the package can catch it."""


class OverBudget(AssertionError):
    """A forked run still going at the budget."""


class _Sink:
    """A stdout that counts what it is given and keeps none of it."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        if self.size > STOP_AFTER:
            raise _ReaderStops
        return len(text)

    def flush(self) -> None:
        pass


def check(argv, path) -> None:
    """Run argv in process, a bytes element standing for a `verify` file
    written to path, and assert the gate's three conditions."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, bytes):
            path.write_bytes(arg)
            argv[i] = str(path)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(_Sink()), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except _ReaderStops:
            code = 0
    seconds = time.perf_counter() - start
    assert code in range(4), (code, err.getvalue()[-300:])
    assert "Traceback" not in err.getvalue()
    assert seconds <= BUDGET_S, f"{seconds:.2f} s"


@functools.lru_cache(maxsize=None)  # Hypothesis replays a failing example once more
def _child_exit_code(argv: tuple, path) -> int | None:
    # fork, not spawn: the child starts with everything loaded, so the kill
    # time is the budget; the test process runs no other thread
    child = multiprocessing.get_context("fork").Process(target=check, args=(argv, path))
    child.start()
    child.join(BUDGET_S + 1.0)  # the rest covers the fork
    if child.exitcode is None:
        child.kill()
        child.join()
        return None
    return child.exitcode


def check_in_child(argv, path) -> None:
    """check(argv) in a forked copy of this process, killed past the budget."""
    code = _child_exit_code(tuple(argv), path)
    if code is None:
        raise OverBudget(f"still running after {BUDGET_S} s")
    assert code == 0, "the gate failed in the child"


def csv(values) -> str:
    return ",".join(map(str, values))


def optional(flag: str, values):
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


def required(flag: str, values):
    """A flag its command needs: present but for one draw in four."""
    present = values.map(lambda value: [flag, value])
    return st.one_of(present, present, present, st.just([]))


def ints(digits: int = 30):
    """Integer flag values as text: small, edge, in-domain, far past the
    domain, and malformed."""
    return st.one_of(
        st.integers(-3, 70).map(str),
        st.sampled_from((0, 1, MAX, MAX + 1, 2**64, -MAX, *SMOOTH)).map(str),
        st.integers(1, MAX).map(str),
        st.integers(-(10**digits), 10**digits).map(str),
        st.sampled_from(MALFORMED),
    )


# --n: in the domain for three draws in four
NS = st.one_of(
    st.integers(1, 10**4).map(str), st.sampled_from(SMOOTH).map(str),
    st.integers(1, MAX).map(str), ints(),
)
PARTS = st.one_of(
    st.integers(2, 100),
    st.sampled_from(SMOOTH),
    st.integers(2, MAX),
    st.integers(-2, 1),
    st.integers(MAX + 1, 2**64),
)
SHORT_TUPLES = st.lists(PARTS, min_size=1, max_size=8).map(csv)
TUPLES = st.one_of(
    SHORT_TUPLES,
    SHORT_TUPLES,
    # long tuples, their parts repeated from a few signatures
    st.lists(
        st.one_of(st.integers(2, 64), st.sampled_from(SMOOTH)), min_size=9, max_size=300
    ).map(csv),
    st.one_of(
        st.sampled_from((",", "2,,3", "2;3", "2, 3", " 4 ", "2,3,", "[2,3]", *MALFORMED)),
        st.text(max_size=8),
    ),
)
FORMAT = optional("--format", st.sampled_from(("json", "plain", "xml", "")))


def argv_of(*pieces):
    """Argv from a subcommand and pieces, each a strategy for a list."""
    return st.tuples(*pieces).map(lambda lists: [arg for part in lists for arg in part])


COUNT = argv_of(
    st.just(["count"]),
    st.one_of(
        required("--n", NS),
        required("--tuple", TUPLES),
        st.tuples(NS, TUPLES).map(lambda both: ["--n", both[0], "--tuple", both[1]]),
    ),
    optional("--m", ints(100)),
    st.sampled_from(([], ["--unordered"])),
    FORMAT,
)

# no tuple with JOFs of hundreds of entries has at most 10**12 of them (deep-walk below)
LIMITS = st.one_of(st.integers(-3, 10**7), st.integers(0, 10**12)).map(str) | st.sampled_from(
    MALFORMED
)
ENUMERATE = argv_of(
    st.just(["enumerate"]),
    # tuples of a few small parts, as most larger ones pass the default cap
    required("--tuple", st.lists(st.integers(2, 64), min_size=1, max_size=4).map(csv) | TUPLES),
    optional("--limit", LIMITS),
    FORMAT,
)


@st.composite
def genuine_jofs(draw):
    parts = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    return draw(st.sampled_from(enumerate_jofs(parts)))


ENTRIES = st.lists(st.tuples(st.integers(-1, 5), st.integers(0, 16)), min_size=1, max_size=10)
JOF_TEXTS = st.one_of(
    genuine_jofs().map(jof_to_text),
    genuine_jofs().map(json.dumps),
    # up to the build cap of 10**6 values and one past it
    st.integers(2, 10**6 + 1).map(lambda k: f"1:{k}"),
    ENTRIES.map(jof_to_text),
    ENTRIES.map(json.dumps),
    st.sampled_from((
        "1:1000000", "1:1000001", "1:1000,2:1000", "1:2,2:500000,1:2", "[", "[[1,2]", "true",
        "[[1,2,3]]", "[[1.5,2]]", "[[true,2]]", "[" * 100_000, "1:2,,2:3", "1:2:3",
        f"1:{MAX}", f"{10**30}:2",
    )),
    st.sampled_from(MALFORMED),
    st.text(max_size=12),
)
BUILD = argv_of(
    st.just(["build"]),
    required("--jof", JOF_TEXTS),
    st.sampled_from(
        ([], ["--centred"], ["--sum-and-distance"], ["--centred", "--sum-and-distance"])
    ),
)


@st.composite
def genuine_documents(draw):
    """A built system's document, plain, centred or as positive halves,
    sometimes with one key dropped or changed."""
    system = build_sum_system(draw(genuine_jofs()))
    form = draw(st.sampled_from((lambda s: s, centre, lambda s: to_sum_and_distance(centre(s)))))
    doc = system_to_json(form(system))
    key = draw(st.sampled_from(sorted(doc)))
    change = draw(st.sampled_from(("keep", "drop", "N+1", "null", "flip")))
    if change == "drop":
        del doc[key]
    elif change == "N+1":
        doc["N"] += 1
    elif change == "null":
        doc[key] = None
    elif change == "flip" and isinstance(doc[key], bool):
        doc[key] = not doc[key]
    return doc


@st.composite
def corrupted_documents(draw):
    """A genuine system corrupted in one of test_fold's seeded ways."""
    jof = draw(genuine_jofs())
    comps = draw(st.sampled_from(list(corruptions(jof, draw(st.randoms(use_true_random=False))))))
    return {"N": prod(map(len, comps)), "components": [list(c) for c in comps], "doubled": False}


SMALL_LISTS = st.lists(st.lists(st.integers(-20, 20), max_size=6), max_size=4)
RANDOM_DOCUMENTS = st.fixed_dictionaries(
    {"N": st.integers(-2, 100), "components": SMALL_LISTS, "doubled": st.booleans()},
    optional={"even_parts": st.lists(st.integers(0, 4)), "odd_parts": st.lists(st.integers(0, 4))},
)
RAW_DOCUMENTS = st.sampled_from((
    b"", b"[]", b"null", b"{", b"true", b"\xff\xfe\x00", b"[" * 100_000,
    b'{"N": NaN, "components": [], "doubled": false}',
    b'{"N": 1e400, "components": [[0]], "doubled": false}',
    b'{"N": 2, "components": [[0, 1.0]], "doubled": false}',
    b'{"N": 1' + b"0" * 5000 + b', "components": [[0]], "doubled": false}',
    b'{"N": 2, "components": [[-1, 1]], "doubled": true, "even_parts": []}',
    b'{"N": 9223372036854775808, "components": [[0, 1]], "doubled": false}',
    b'{"N": 2, "components": [[0, 1e999]], "doubled": false}',
))
DOCUMENTS = st.one_of(
    st.one_of(genuine_documents(), corrupted_documents(), RANDOM_DOCUMENTS).map(
        lambda doc: json.dumps(doc).encode()
    ),
    RAW_DOCUMENTS,
)
VERIFY = argv_of(
    st.just(["verify"]),
    st.one_of(
        DOCUMENTS.map(lambda doc: ["--file", doc]),
        st.just(["--file", "/nonexistent/system.json"]),
        st.just([]),
    ),
    FORMAT,
)

TABLE = argv_of(st.just(["table"]), required("--max-n", ints()), required("--max-m", ints()))

KIND_AND_R = st.one_of(
    required("--kind", st.sampled_from(("d", "c", "assoc", "sqfree", "e"))),
    optional("--r", ints(1000)).map(lambda r: ["--kind", "assoc", *r]),
    # --r with a kind it does not apply to
    st.sampled_from(("d", "c", "sqfree")).map(lambda kind: ["--kind", kind, "--r", "1"]),
)
DIVISOR_FN = argv_of(
    st.just(["divisor-fn"]), KIND_AND_R, required("--j", ints(1000)), required("--n", NS), FORMAT
)

CHECK = argv_of(st.just(["check"]), required("--n", NS), required("--m", ints(100)), FORMAT)

TOKENS = st.lists(
    st.one_of(st.sampled_from(SUBCOMMANDS + FLAGS), ints(), st.text(max_size=5)), max_size=6
)

# exact values of 10^5 digits and more take seconds to form and to print
# before Python 3.12 (and the division stays quadratic after), so these run
# past the budget today
HUGE_J = argv_of(
    st.just(["divisor-fn", "--kind", "d", "--j"]),
    st.integers(10_000, 12_000).map(lambda digits: ["1" + "7" * (digits - 1)]),
    st.sampled_from(SMOOTH[-2:]).map(lambda n: ["--n", str(n)]),
)
HUGE_MULTINOMIAL = st.integers(4000, 6000).map(
    lambda k: ["count", "--tuple", csv([2**62] * k)]
)
# the walk recurses once per entry, so a tuple whose JOFs may run past half
# the recursion limit, which only a --limit past the count of dozens of parts
# of 2**62 reaches, is refused with exit 2 (Hypothesis lifts the recursion
# limit by 2000 frames, so these JOFs run past 3000 entries)
DEEP_WALK = st.integers(50, 120).map(
    lambda k: ["enumerate", "--tuple", csv([2**62] * k), "--limit", "1" + "0" * 20000]
)


def _xfail(strategy, checker, raises, reason):
    # strict=False: a faster machine or Python may finish a huge value in time
    marks = [
        pytest.mark.xfail(raises=raises, reason=reason, strict=False),
        pytest.mark.filterwarnings("ignore:Generating overly large repr"),
    ]
    return pytest.param(strategy, XFAIL, checker, marks=marks)


CLASSES = {
    "count": (COUNT, GATE, check),
    "enumerate": (ENUMERATE, GATE, check),
    "build": (BUILD, GATE, check),
    "verify": (VERIFY, GATE, check),
    "table": (TABLE, GATE, check),
    "divisor-fn": (DIVISOR_FN, GATE, check),
    "check": (CHECK, GATE, check),
    "tokens": (TOKENS, GATE, check),
    "huge-j": _xfail(HUGE_J, check_in_child, OverBudget,
                     "a 10,000-digit --j gives a value of 10^5 digits and more, "
                     "quadratic to form and print"),
    "huge-multinomial": _xfail(HUGE_MULTINOMIAL, check_in_child, OverBudget,
                               "thousands of prime powers: one quadratic division and "
                               "a 10^6-digit str()"),
    "deep-walk": (DEEP_WALK, GATE, check),
}


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "system.json"


@pytest.mark.parametrize("argvs, gate, checker", list(CLASSES.values()), ids=list(CLASSES))
def test_any_argv_exits_0_to_3_within_the_budget(argvs, gate, checker, document_path):
    @gate
    @given(argvs)
    def each(argv):
        checker(argv, document_path)

    each()
