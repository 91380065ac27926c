"""Same-behaviour replay: run the CLI argv of the test suite and a corpus of
systems against two source trees, and report every difference.

    python tests/replay.py --old TREE --new TREE [--n 128] [--corpus FILE]

A TREE is a checkout whose src/ holds the sumsystems package.  Exit status
0 when nothing differs, 1 when something does, 2 when the replay itself
fails.  pytest does not collect this file.

argv.  The corpus is every argv that tests/test_cli.py, tests/test_fold.py
and tests/test_fuzz.py pass to sumsystems.cli.run or run as
`python -m sumsystems.cli` through tests/fresh.py, recorded by running those
files under pytest with both wrapped, on this checkout's src/.  --corpus
replays a JSON file {"argv": [...], "files": {KEY: base64 bytes}} instead,
where a {"file": KEY} token in an argv stands for a file of those bytes.  An
argv that names a file (the value of --file) keeps the file's bytes as
recorded, and both trees read one copy of them.  Each distinct argv runs
once per tree, in a child forked from a process that has imported that
tree's package, with stdin from /dev/null and these limits: RLIMIT_AS of
MEMORY bytes, a wall budget of BUDGET_S seconds (SIGALRM), and OUTPUT bytes
on each of stdout and stderr (RLIMIT_FSIZE, SIGXFSZ).  A child stopped by a
limit, or by a MemoryError under RLIMIT_AS, is killed; the argv killed are
listed per tree.  Any other exception out of run is written to stderr as one
line.  A difference is a change of exit code, stdout sha256 or stderr, or of
the kill: a kill in one tree only, or by a different limit in each.  An argv
killed by the same limit in both trees is not compared; it is only listed.

Verdicts.  For every genuine plain system with N <= --n, as built and with
its components shuffled, and for the seeded corruptions of
tests/test_fold.py, each tree reports, on the plain components and on their
doubled form (2a - max A_j): the constructors' messages, verify_sum_system
and verify_centred, jof_of_system, centre, and the sum-and-distance halving
and its inverse.  A differing report on any case is a difference.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import fresh

HERE = Path(__file__).resolve().parent
SOURCES = ("test_cli.py", "test_fold.py", "test_fuzz.py")
BUDGET_S = 10.0
MEMORY = 1 << 30
OUTPUT = 256 << 20
_MEMORY_EXIT = 86  # a child's exit status after a MemoryError under RLIMIT_AS


# -- recording (run in a child interpreter: `replay.py _record OUT`) --------


def _record(out: str) -> int:
    """Run the SOURCES under pytest with cli.run wrapped, appending one JSON
    line per call to out, and one per `python -m sumsystems.cli` that they
    start through tests/fresh.py."""
    import pytest
    from sumsystems import cli

    run, spawn = cli.run, fresh.run

    def record(argv) -> None:
        argv = list(argv)
        files = {}
        for i in range(1, len(argv)):
            if argv[i - 1] == "--file" and os.path.isfile(argv[i]):
                files[i] = base64.b64encode(Path(argv[i]).read_bytes()).decode()
        with open(out, "a", encoding="utf-8") as log:
            log.write(json.dumps({"argv": argv, "files": files}, default=str) + "\n")

    def recorded(argv=None):
        if argv is not None:
            record(argv)
        return run(argv)

    def spawned(argv, **kwargs):
        if argv[:len(fresh.SUMSYS)] == fresh.SUMSYS:
            record(argv[len(fresh.SUMSYS):])
        return spawn(argv, **kwargs)

    cli.run, fresh.run = recorded, spawned
    return int(pytest.main(["-q", "-rf", "-p", "no:cacheprovider",
                            *(str(HERE / name) for name in SOURCES)]))


def _corpus_of_records(path: Path) -> dict:
    """The distinct argv of a record log, first seen first, each file
    argument replaced by {"file": sha256 of its bytes}."""
    argvs, files, seen = [], {}, set()
    with open(path, encoding="utf-8") as log:
        for line in log:
            record = json.loads(line)
            argv = record["argv"]
            for i, data in record["files"].items():
                digest = hashlib.sha256(base64.b64decode(data)).hexdigest()
                files[digest] = data
                argv[int(i)] = {"file": digest}
            key = json.dumps(argv)
            if key not in seen:
                seen.add(key)
                argvs.append(argv)
    return {"argv": argvs, "files": files}


# -- the verdict cases (`replay.py _cases OUT N`) ---------------------------


def _write_cases(out: str, n: int) -> None:
    """One JSON line of plain components per case: each genuine system with
    N <= n as built and shuffled, then its seeded corruptions."""
    from oracles import all_jofs_up_to
    from sumsystems.systems import build_sum_system
    from test_fold import corruptions

    rng = random.Random(n)
    with open(out, "w", encoding="utf-8") as cases:
        for jof in all_jofs_up_to(n):
            comps = build_sum_system(jof).components
            shuffled = list(comps)
            rng.shuffle(shuffled)
            for case in (comps, shuffled, *corruptions(jof, rng)):
                cases.write(json.dumps(case) + "\n")


# -- one tree (`replay.py _worker TREE ARGV CASES OUT`) ---------------------


def _outcome(f, *args):
    """f(*args), or the exception it raises as "Type: message"."""
    try:
        return f(*args)
    except Exception as exc:  # every outcome is a result to compare
        return f"{type(exc).__name__}: {exc}"


def _verdicts(comps, systems, verify) -> str:
    plain = tuple(map(tuple, comps))
    doubled = tuple(tuple(2 * a - comp[-1] for a in comp) for comp in plain)
    row = []
    built = {}
    for cls, given, verifier in (
        (systems.SumSystem, plain, verify.verify_sum_system),
        (systems.CentredSumSystem, doubled, verify.verify_centred),
    ):
        system = built[cls] = _outcome(cls, given)
        if isinstance(system, str):
            row.append(system)
        else:
            row += ["ok", _outcome(verifier, system), _outcome(systems.jof_of_system, system)]
    if not isinstance(built[systems.SumSystem], str):
        row.append(_outcome(systems.centre, built[systems.SumSystem]))
    centred = built[systems.CentredSumSystem]
    if not isinstance(centred, str):
        halves = _outcome(systems.to_sum_and_distance, centred)
        row.append(halves)
        if not isinstance(halves, str):
            row.append(_outcome(lambda: systems.SumAndDistanceSystem(*halves) == halves
                                and systems.from_sum_and_distance(halves) == centred))
    return repr(row)


def _child(run, argv, out_fd: int, err_fd: int) -> None:
    """Run argv as `sumsys` would, under the limits, and exit with its code."""
    code = 1
    try:
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        os.dup2(out_fd, 1)
        os.dup2(err_fd, 2)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", errors="backslashreplace", closefd=False)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
        resource.setrlimit(resource.RLIMIT_FSIZE, (OUTPUT, OUTPUT))
        signal.signal(signal.SIGXFSZ, signal.SIG_DFL)  # Python ignores it
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            code = run(argv)
        except MemoryError:
            raise
        except BaseException as exc:  # escaped run: report it as one line
            print(f"traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
    except MemoryError:
        code = _MEMORY_EXIT
    finally:
        os._exit(code)


def _replay(run, argv, scratch: Path) -> dict:
    """Exit code, stdout sha256 and stderr of argv in a forked child, or the
    limit that killed it."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _child(run, argv, out.fileno(), err.fileno())
        _, status = os.waitpid(pid, 0)
    killed = None
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        killed = {signal.SIGALRM: "budget", signal.SIGXFSZ: "output cap"}.get(
            sig, f"signal {signal.Signals(sig).name}")
    elif os.WEXITSTATUS(status) == _MEMORY_EXIT:
        killed = "memory"
    stdout = out_path.read_bytes()
    stderr = err_path.read_bytes().decode("utf-8", "backslashreplace")
    return {
        "killed": killed,
        "code": None if killed else os.WEXITSTATUS(status),
        "stdout": hashlib.sha256(stdout).hexdigest(),
        "stderr": stderr,
    }


def _worker(tree: str, argv_path: str, cases_path: str, out: str) -> int:
    src = (Path(tree) / "src").resolve()
    sys.path.insert(0, str(src))
    import sumsystems
    from sumsystems import cli, systems, verify

    if Path(sumsystems.__file__).resolve().parent != src / "sumsystems":
        print(f"replay: {tree} imports sumsystems from {sumsystems.__file__}", file=sys.stderr)
        return 2
    with open(argv_path, encoding="utf-8") as handle:
        argvs = json.load(handle)
    with tempfile.TemporaryDirectory(prefix="replay-worker-") as scratch:
        results = [_replay(cli.run, argv, Path(scratch)) for argv in argvs]
    with open(out + ".argv", "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    with open(cases_path, encoding="utf-8") as cases, open(out + ".verdicts", "w") as verdicts:
        for line in cases:
            verdicts.write(_verdicts(json.loads(line), systems, verify) + "\n")
    return 0


# -- the comparison ---------------------------------------------------------


def _shown(argv) -> str:
    """argv for a report: a file argument by its digest, long tokens cut."""
    tokens = []
    for token in argv:
        if isinstance(token, dict):
            token = f"<file {token['file'][:12]}>"
        elif len(token) > 60:
            token = f"{token[:40]}...({len(token)} chars)"
        tokens.append(token)
    return " ".join(tokens)


def _cut(text: str, width: int = 300) -> str:
    return repr(text if len(text) <= width else text[:width] + "...")


def _compare_argv(corpus: dict, old: list, new: list) -> int:
    differences = 0
    for argv, a, b in zip(corpus["argv"], old, new):
        if a["killed"] and a["killed"] == b["killed"]:
            continue
        changes = []
        if a["killed"] != b["killed"]:
            changes.append(f"killed {a['killed']} -> {b['killed']}")
        else:
            if a["code"] != b["code"]:
                changes.append(f"exit {a['code']} -> {b['code']}")
            if a["stdout"] != b["stdout"]:
                changes.append(f"stdout sha256 {a['stdout'][:12]} -> {b['stdout'][:12]}")
            if a["stderr"] != b["stderr"]:
                changes.append(f"stderr {_cut(a['stderr'])} -> {_cut(b['stderr'])}")
        if changes:
            differences += 1
            print(f"DIFF argv: sumsys {_shown(argv)}\n    " + "\n    ".join(changes))
    for name, results in (("old", old), ("new", new)):
        killed = [(r["killed"], argv) for argv, r in zip(corpus["argv"], results) if r["killed"]]
        print(f"killed in {name}: {len(killed)}")
        for reason, argv in killed:
            print(f"    {reason}: sumsys {_shown(argv)}")
    return differences


def _compare_verdicts(cases_path: Path, old: Path, new: Path) -> tuple[int, int]:
    differences = total = 0
    with open(cases_path) as cases, open(old) as a, open(new) as b:
        for case, x, y in zip(cases, a, b):
            total += 1
            if x != y:
                differences += 1
                print(f"DIFF verdicts on {_cut(case.strip(), 200)}\n"
                      f"    old {_cut(x.strip())}\n    new {_cut(y.strip())}")
    return differences, total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--old", required=True, help="the reference tree")
    parser.add_argument("--new", required=True, help="the tree under test")
    parser.add_argument("--n", type=int, default=128, help="largest N of the verdict systems")
    parser.add_argument("--corpus", help="replay this saved argv corpus instead of recording one")
    args = parser.parse_args()
    print(f"limits per argv: RLIMIT_AS {MEMORY >> 20} MiB, wall budget {BUDGET_S:g} s, "
          f"output cap {OUTPUT >> 20} MiB on each of stdout and stderr")
    script = [sys.executable, str(Path(__file__).resolve())]
    # recording and the cases run this checkout's package, as the tests do
    own = fresh.env()
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        tmp = Path(tmp)
        if args.corpus:
            with open(args.corpus, encoding="utf-8") as handle:
                corpus = json.load(handle)
        else:
            log = tmp / "records"
            log.touch()
            done = subprocess.run([*script, "_record", str(log)], cwd=HERE.parent, env=own,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            lines = done.stdout.strip().splitlines() or [""]
            print(f"recorded the argv of {', '.join(SOURCES)}: pytest exit {done.returncode}, {lines[-1]}")
            print("".join(f"    {line}\n" for line in lines if line.startswith("FAILED")), end="")
            corpus = _corpus_of_records(log)
        for digest, data in corpus["files"].items():
            (tmp / f"file-{digest}").write_bytes(base64.b64decode(data))
        concrete = [[str(tmp / f"file-{t['file']}") if isinstance(t, dict) else t for t in argv]
                    for argv in corpus["argv"]]
        (tmp / "argv.json").write_text(json.dumps(concrete), encoding="utf-8")
        subprocess.run([*script, "_cases", str(tmp / "cases"), str(args.n)], env=own, check=True)
        env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
        workers = [
            subprocess.Popen([*script, "_worker", tree, str(tmp / "argv.json"), str(tmp / "cases"),
                              str(tmp / name)], env=env)
            for name, tree in (("old", args.old), ("new", args.new))
        ]
        if any([worker.wait() for worker in workers]):
            print("replay: a worker failed", file=sys.stderr)
            return 2
        with open(tmp / "old.argv") as a, open(tmp / "new.argv") as b:
            argv_differences = _compare_argv(corpus, json.load(a), json.load(b))
        verdict_differences, cases = _compare_verdicts(tmp / "cases", tmp / "old.verdicts",
                                                        tmp / "new.verdicts")
    print(f"replay: {len(corpus['argv'])} argv, {argv_differences} differing; "
          f"{cases} verdict cases with N <= {args.n}, {verdict_differences} differing")
    return 1 if argv_differences or verdict_differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["_record"]:
        sys.exit(_record(sys.argv[2]))
    if sys.argv[1:2] == ["_cases"]:
        sys.exit(_write_cases(sys.argv[2], int(sys.argv[3])))
    if sys.argv[1:2] == ["_worker"]:
        sys.exit(_worker(*sys.argv[2:6]))
    sys.exit(main())
