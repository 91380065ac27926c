"""Command-line behaviour: documents, formats, exit codes, determinism."""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest

from sumsystems import systems
from sumsystems.cli import run
from sumsystems.jof import count_for_tuple
from sumsystems.shape import parse_jof_text

import fresh
from fresh import GIB, SUMSYS
from oracles import binomial_d_sum, oracle_document

WORKED = "1:3,3:3,1:3,3:2,2:5"
BIG_TUPLE = "2,49,3,35,98"  # 63,000 JOFs, 22.9 MB of JSON
WORST = 8677099422351360000  # signature (25, 10, 4, 2, 1, 1), Omega 43


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_single_m(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "12", "--m", "2")
        assert code == 0
        assert json.loads(out) == {
            "N": 12, "m": 2, "count": 14, "method": "closed-form",
        }

    def test_unordered(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "12", "--m", "2", "--unordered")
        assert code == 0
        assert json.loads(out)["unordered"] == 7

    def test_all_m_default(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "12")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 12
        assert doc["counts"] == [
            {"m": 1, "count": 1},
            {"m": 2, "count": 14},
            {"m": 3, "count": 18},
        ]

    def test_plain_format(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "12", "--m", "2",
                              "--format", "plain")
        assert code == 0
        assert out == "14\n"

    def test_tuple(self, capsys):
        code, out, _ = invoke(capsys, "count", "--tuple", "2,6")
        assert code == 0
        assert json.loads(out) == {
            "tuple": [2, 6], "count": 4, "method": "closed-form",
        }

    def test_usage_errors(self, capsys):
        assert invoke(capsys, "count")[0] == 2
        assert invoke(capsys, "count", "--tuple", "2,6", "--m", "2")[0] == 2
        assert invoke(capsys, "count", "--n", "12", "--m", "2", "--all-m")[0] == 2
        assert invoke(capsys, "count", "--n", "0")[0] == 2
        assert invoke(capsys, "count", "--tuple", "2,x")[0] == 2
        assert invoke(capsys, "count", "--tuple", "1,2") == (
            2, "", "error: target tuple entries must be integers >= 2, got 1\n")

    def test_every_m_unordered(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "12", "--unordered")
        assert code == 0
        assert json.loads(out) == {
            "N": 12,
            "counts": [
                {"m": 1, "count": 1, "unordered": 1},
                {"m": 2, "count": 14, "unordered": 7},
                {"m": 3, "count": 18, "unordered": 3},
            ],
            "method": "closed-form",
        }
        assert invoke(capsys, "count", "--n", "12", "--unordered", "--format", "plain") == (
            0, "1 1\n2 7\n3 3\n", "")

    def test_largest_prime_below_the_cap_in_bounded_time(self):
        p = 2**63 - 25
        proc = fresh.run([*SUMSYS, "count", "--n", str(p)], timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "N": p, "counts": [{"m": 1, "count": 1}], "method": "closed-form",
        }


# Every usage error, its exit code and the last line it writes to stderr.
# Errors argparse reports are pinned by their final "error:" line only, as
# the usage text above it wraps differently across Python versions.
USAGE_ERRORS = [
    ("count-needs-n-or-tuple", ["count"],
     "sumsys count: error: one of the arguments --n --tuple is required"),
    ("count-n-and-tuple", ["count", "--tuple", "2,6", "--n", "12"],
     "sumsys count: error: argument --n: not allowed with argument --tuple"),
    ("count-tuple-and-m", ["count", "--tuple", "2,6", "--m", "2"],
     "error: --tuple does not combine with --m/--unordered"),
    ("count-tuple-and-unordered", ["count", "--tuple", "2,6", "--unordered"],
     "error: --tuple does not combine with --m/--unordered"),
    ("count-all-m", ["count", "--n", "12", "--all-m"],
     "sumsys: error: unrecognized arguments: --all-m"),
    ("count-n-zero", ["count", "--n", "0"],
     "error: expected a positive integer, got 0"),
    ("count-tuple-part-one", ["count", "--tuple", "1,2"],
     "error: target tuple entries must be integers >= 2, got 1"),
    ("enumerate-negative-limit", ["enumerate", "--tuple", "12", "--limit", "-1"],
     "error: --limit must be non-negative"),
    ("table-max-n-zero", ["table", "--max-n", "0", "--max-m", "3"],
     "error: --max-n and --max-m must be positive"),
    ("divisor-fn-r-without-assoc", ["divisor-fn", "--r", "1", "--kind", "c", "--j", "2",
                                    "--n", "12"],
     "error: --r only applies to --kind assoc"),
    ("verify-missing-file", ["verify", "--file", "nope.json"],
     "error: cannot read nope.json: [Errno 2] No such file or directory: 'nope.json'"),
    ("check-m-zero", ["check", "--n", "12", "--m", "0"],
     "error: m must be at least 1"),
    ("build-malformed-jof", ["build", "--jof", "nonsense"],
     "error: bad JOF entry 'nonsense', expected part:factor"),
]


@pytest.mark.parametrize("argv,last_line", [row[1:] for row in USAGE_ERRORS],
                         ids=[row[0] for row in USAGE_ERRORS])
def test_usage_error(capsys, tmp_path, monkeypatch, argv, last_line):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == last_line
    assert "Traceback" not in err


class TestEnumerate:
    def test_two_by_two(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--tuple", "2,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["jofs"] == [[[1, 2], [2, 2]], [[2, 2], [1, 2]]]
        assert doc["text"] == ["1:2,2:2", "2:2,1:2"]

    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--tuple", "2,2",
                              "--format", "plain")
        assert code == 0
        assert out == "1:2,2:2\n2:2,1:2\n"

    def test_limit_is_a_resource_error(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--tuple", "8,2", "--limit", "2")
        assert code == 3
        assert "cap" in err

    def test_deterministic(self, capsys):
        first = invoke(capsys, "enumerate", "--tuple", "9,5,6")
        second = invoke(capsys, "enumerate", "--tuple", "9,5,6")
        assert first == second

    def test_cap_hit_is_found_before_enumerating(self):
        # 17,153,136 JOFs: counted first, so none is built
        start = time.perf_counter()
        proc = fresh.run([*SUMSYS, "enumerate", "--tuple", "64,64,64"], memory=GIB, timeout=60)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: enumeration exceeds the cap of 1000000 results\n"

    def test_long_tuple_refused_by_its_orders(self):
        # 200 parts have at least 200! JOFs, so nothing is counted
        start = time.perf_counter()
        proc = fresh.run([*SUMSYS, "enumerate", "--tuple", ",".join([str(WORST)] * 200)],
                         memory=GIB, timeout=60)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: enumeration exceeds the cap of 1000000 results\n"

    def test_tuple_deeper_than_the_walk_is_a_usage_error(self, capsys):
        # JOFs of up to 62 entries a part, past half the recursion limit
        parts = ",".join([str(2**62)] * (sys.getrecursionlimit() // 62 + 1))
        code, out, err = invoke(capsys, "enumerate", "--tuple", parts, "--limit", "1" + "0" * 5000)
        assert code == 2
        assert out == ""
        assert err.startswith("error: JOFs of this tuple may have more than ")
        assert "Traceback" not in err

    def test_negative_limit_is_a_usage_error(self, capsys):
        code, out, err = invoke(capsys, "enumerate", "--tuple", "12", "--limit", "-1")
        assert code == 2
        assert out == ""
        assert "--limit" in err


def _seeded_tuples():
    rng = random.Random(73)
    for _ in range(200):
        yield tuple(rng.randrange(2, 31) for _ in range(rng.randrange(1, 4)))


STREAM_CASES = [*_seeded_tuples(), (12,), (2, 6), (8, 12, 16)]  # the last: 10,080 JOFs
# 256, 512 and 525 JOFs: the walk hands over chunks of 256, so these end on
# a full chunk, on two, and past them
CHUNK_EDGES = [(8, 210), (30, 128), (16, 72)]


class TestEnumerateStream:
    """The streamed document is byte for byte the one the CLI used to build
    whole and dump with indent=2; the plain format its "text" lines."""

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_bytes_match_the_whole_document(self, capsys, fmt):
        for parts in [*STREAM_CASES, *CHUNK_EDGES, tuple(map(int, BIG_TUPLE.split(",")))]:
            doc = oracle_document(parts)
            expected = (json.dumps(doc, indent=2) + "\n" if fmt == "json"
                        else "".join(line + "\n" for line in doc["text"]))
            code, out, err = invoke(capsys, "enumerate", "--tuple",
                                    ",".join(map(str, parts)), "--format", fmt)
            assert (code, err) == (0, ""), parts
            assert out == expected, parts

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_cap_below_the_count_writes_nothing(self, capsys, fmt):
        code, out, err = invoke(capsys, "enumerate", "--tuple", "8,12,16",
                                "--limit", "10079", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err == "error: enumeration exceeds the cap of 10079 results\n"

    @staticmethod
    def traced_peak(monkeypatch, *argv) -> int:
        """The traced peak of `enumerate --tuple BIG_TUPLE` with stdout discarded."""
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = run(["enumerate", "--tuple", BIG_TUPLE, *argv])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        return peak

    def test_memory_follows_the_jofs_not_the_document(self, monkeypatch):
        # Building the document whole peaked at 219 MiB of traced memory on
        # this tuple (115 MiB on Python 3.13), holding every JOF tuple at
        # 17 MiB, and keeping the "text" blocks until the "jofs" list ended
        # at 3.23, 2.95, 3.18 and 3.34 MiB on Pythons 3.10, 3.11, 3.12 and
        # 3.13.  The blocks now go to a temporary file, copied out after the
        # list, so the peak is the walk's chunks and one copied block: 1.11,
        # 0.83, 1.14 and 1.24 MiB.  The bound sits between the two groups.
        assert self.traced_peak(monkeypatch) < 2 * 2**20

    def test_spool_failure_is_a_usage_error(self, capsys, monkeypatch):
        def unusable(*args, **kwargs):
            raise FileNotFoundError(2, "No usable temporary directory found")

        monkeypatch.setattr(tempfile, "TemporaryFile", unusable)
        code, out, err = invoke(capsys, "enumerate", "--tuple", "2,2")
        assert (code, out) == (2, "")
        assert err == ("error: cannot open a temporary file for the text list: "
                       "[Errno 2] No usable temporary directory found\n")
        # the plain format needs no temporary file
        assert invoke(capsys, "enumerate", "--tuple", "2,2", "--format", "plain") == (
            0, "1:2,2:2\n2:2,1:2\n", "")

    def test_plain_memory_follows_one_chunk(self, monkeypatch):
        # Each chunk is written as the walk hands it over, so nothing grows
        # with the JOFs: 0.08 MiB on Python 3.11 (16 MiB when every JOF tuple
        # was held first).
        assert self.traced_peak(monkeypatch, "--format", "plain") < 2**20


class TestBuild:
    def test_sum_system(self, capsys):
        code, out, _ = invoke(capsys, "build", "--jof", WORKED)
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 270
        assert doc["doubled"] is False
        assert doc["components"][0] == [0, 1, 2, 9, 10, 11, 18, 19, 20]

    def test_centred(self, capsys):
        code, out, _ = invoke(capsys, "build", "--jof", WORKED, "--centred")
        assert code == 0
        doc = json.loads(out)
        assert doc["doubled"] is True
        assert doc["components"][2] == [-33, -27, -21, 21, 27, 33]

    def test_sum_and_distance(self, capsys):
        code, out, _ = invoke(capsys, "build", "--jof", WORKED, "--sum-and-distance")
        assert code == 0
        doc = json.loads(out)
        assert doc["even_parts"] == [3]
        assert doc["odd_parts"] == [1, 2]
        assert doc["components"] == [[2, 16, 18, 20], [108, 216], [21, 27, 33]]

    def test_flag_conflict(self, capsys):
        code = run(["build", "--jof", WORKED, "--centred", "--sum-and-distance"])
        capsys.readouterr()
        assert code == 2

    def test_bad_jof(self, capsys):
        assert invoke(capsys, "build", "--jof", "1:2,1:2")[0] == 2
        assert invoke(capsys, "build", "--jof", "nonsense")[0] == 2

    def test_jof_too_deep_to_parse(self):
        proc = fresh.run([*SUMSYS, "build", "--jof", "[" * 100_000], timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "bad JOF JSON: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_part_index(self):
        proc = fresh.run([*SUMSYS, "build", "--jof", "1000000000000:2"], memory=GIB, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: part 1 never appears (parts run 1..1000000000000)\n"

    @pytest.mark.parametrize("flags", [[], ["--centred"], ["--sum-and-distance"]],
                             ids=["plain", "centred", "sum-and-distance"])
    def test_past_the_build_cap(self, flags):
        # N = 10^10 ran out of memory mid-build: refused before building now
        proc = fresh.run([*SUMSYS, "build", "--jof", "1:10000000000", *flags],
                         memory=GIB, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: the system has 10000000000 values, more than the build cap of 1000000\n")

    def test_build_cap_is_the_enumeration_cap(self, capsys):
        assert invoke(capsys, "build", "--jof", "1:1000001") == (
            2, "", "error: the system has 1000001 values, more than the build cap of 1000000\n")
        code, out, err = invoke(capsys, "build", "--jof", "1:1000000")
        assert (code, err) == (0, "")
        assert out.startswith('{\n  "N": 1000000,\n')

    @pytest.mark.parametrize(
        "flags, build",
        [([], systems.build_sum_system),
         (["--centred"], systems.build_centred),
         (["--sum-and-distance"],
          lambda jof: systems.to_sum_and_distance(systems.build_centred(jof)))],
        ids=["plain", "centred", "sum-and-distance"],
    )
    def test_bytes_match_the_whole_document(self, capsys, flags, build):
        # 1:2,2:3,1:5000 has 10,003 values, so its document spans batches
        for text in (WORKED, "1:2,2:3,1:5000"):
            built = build(parse_jof_text(text))
            expected = json.dumps(systems.system_to_json(built), indent=2) + "\n"
            assert invoke(capsys, "build", "--jof", text, *flags) == (0, expected, ""), text

    def test_memory_follows_the_system_not_the_document(self, monkeypatch):
        # Building the document whole as one string peaked at 127 MiB of
        # traced memory on this JOF (Python 3.11); written a batch at a time
        # it peaks at about 47 MiB, the system and its JSON lists.
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = run(["build", "--jof", "1:1000000"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 80 * 2**20


# Malformed documents and the exact reason `verify` gives for each.
BAD_DOCUMENTS = [
    ("unsorted", {"N": 2, "components": [[1, 0]], "doubled": False},
     "component values must be strictly ascending"),
    ("duplicate value", {"N": 3, "components": [[0, 0, 1]], "doubled": False},
     "component values must be strictly ascending"),
    ("negative value", {"N": 2, "components": [[-1, 0]], "doubled": False},
     "sum system values must be non-negative"),
    ("empty component", {"N": 2, "components": [[0, 1], []], "doubled": False},
     "components must be non-empty"),
    ("no components", {"N": 1, "components": [], "doubled": False},
     "a sum system needs at least one component"),
    ("no centred components", {"N": 1, "components": [], "doubled": True},
     "a centred sum system needs at least one component"),
    ("asymmetric centred", {"N": 2, "components": [[-1, 3]], "doubled": True},
     "centred components must be symmetric about 0"),
    ("mixed parity centred", {"N": 4, "components": [[-2, -1, 1, 2]], "doubled": True},
     "values within a centred component must share parity"),
    ("wrong stated N", {"N": 5, "components": [[0, 1], [0, 2]], "doubled": False},
     "stated N = 5 but component sizes multiply to 4"),
    ("float value", {"N": 2, "components": [[0, 1.5]], "doubled": False},
     "component values must be integers"),
    ("boolean value", {"N": 2, "components": [[False, True]], "doubled": False},
     "component values must be integers"),
    # the type of every value is checked before any component's order
    ("unsorted then string", {"N": 4, "components": [[1, 0], [0, "x"]], "doubled": False},
     "component values must be integers"),
]


class TestVerify:
    @pytest.mark.parametrize("doc,reason", [row[1:] for row in BAD_DOCUMENTS],
                             ids=[row[0] for row in BAD_DOCUMENTS])
    def test_malformed_document_reasons(self, capsys, tmp_path, doc, reason):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": reason}

    def build_to_file(self, capsys, tmp_path, *flags):
        code, out, _ = invoke(capsys, "build", "--jof", WORKED, *flags)
        assert code == 0
        path = tmp_path / "system.json"
        path.write_text(out)
        return path

    def test_round_trip_sum(self, capsys, tmp_path):
        path = self.build_to_file(capsys, tmp_path)
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc == {"ok": True, "reason": None, "N": 270, "doubled": False}

    def test_sum_and_distance_piped_into_verify(self):
        build = subprocess.Popen([*SUMSYS, "build", "--jof", WORKED, "--sum-and-distance"],
                                 stdout=subprocess.PIPE, env=fresh.env())
        verify = fresh.run([*SUMSYS, "verify", "--file", "/dev/stdin"], stdin=build.stdout,
                           timeout=60)
        build.stdout.close()
        assert build.wait(timeout=60) == 0
        assert verify.returncode == 0
        assert json.loads(verify.stdout) == {"ok": True, "reason": None, "N": 270,
                                             "doubled": True}

    def test_mixed_parity_sum_and_distance(self, capsys, tmp_path):
        path = tmp_path / "halves.json"
        path.write_text(json.dumps({"N": 6, "components": [[1], [1]], "doubled": True,
                                    "even_parts": [1], "odd_parts": [2]}))
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out) == {
            "ok": False, "reason": "values within a centred component must share parity"}

    def test_round_trip_centred(self, capsys, tmp_path):
        path = self.build_to_file(capsys, tmp_path, "--centred")
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 0
        assert json.loads(out)["doubled"] is True

    def test_tampered_element(self, capsys, tmp_path):
        path = self.build_to_file(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc["components"][0][8] = 21  # was 20
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 1
        verdict = json.loads(out)
        assert verdict["ok"] is False
        assert "palindromic" in verdict["reason"]

    def test_colliding_components(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"N": 4, "components": [[0, 1], [0, 1]], "doubled": False}
        ))
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 1
        assert "collide" in json.loads(out)["reason"]

    def test_wrong_stated_n(self, capsys, tmp_path):
        path = self.build_to_file(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc["N"] = 271
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 1
        assert "271" in json.loads(out)["reason"]

    def test_not_json(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        code, out, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_not_utf8(self, capsys, tmp_path, fmt):
        # a UnicodeDecodeError is a ValueError, which run reports as a usage
        # error (exit 2), so verify must turn it into a verdict first
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = invoke(capsys, "verify", "--file", str(path), "--format", fmt)
        assert code == 1
        assert err == ""
        reason = out.removeprefix("fail: ") if fmt == "plain" else json.loads(out)["reason"]
        assert reason.startswith("not valid JSON: 'utf-8' codec can't decode")

    def test_too_deep_to_parse(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        proc = fresh.run([*SUMSYS, "verify", "--file", str(path)], timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ""
        verdict = json.loads(proc.stdout)
        assert verdict["ok"] is False
        assert verdict["reason"].startswith("not valid JSON: ")

    @pytest.mark.parametrize("doubled", [False, True])
    @pytest.mark.parametrize("k", range(24, 41))
    def test_rejection_in_bounded_time_and_memory(self, tmp_path, k, doubled):
        # {0, 2^i} for i < k - 1, then {0, 2^(k-1) - 1}: the sums collide only
        # at component k, so the fold would grow with N = 2^k until then
        tops = [1 << i for i in range(k - 1)] + [(1 << (k - 1)) - 1]
        comps = [[-t, t] if doubled else [0, t] for t in tops]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"N": 1 << k, "components": comps, "doubled": doubled}))
        proc = fresh.run([*SUMSYS, "verify", "--file", str(path)], memory=GIB, timeout=5)
        assert proc.returncode == 1
        assert proc.stderr == ""
        reason = json.loads(proc.stdout)["reason"]
        if k == 24:
            assert reason == "sums collide when component 24 is added"
        else:
            assert reason == "no JOF builds these components"

    @pytest.mark.parametrize("doubled", [False, True])
    def test_dense_rejection_in_bounded_time(self, tmp_path, doubled):
        # two palindromic components of 131,072 random values below 2^23:
        # N = 2^34, the JOF read fails, and the fold's product of two
        # 2^23-bit bitsets took 4.4-5.4 s before it found a collision
        rng = random.Random(18)
        top = (1 << 23) - 1
        comps = []
        for _ in range(2):
            low = [0, *rng.sample(range(1, (top + 1) // 2), (1 << 16) - 1)]
            comp = sorted(low + [top - v for v in low])
            comps.append([2 * v - top for v in comp] if doubled else comp)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"N": 1 << 34, "components": comps, "doubled": doubled}))
        start = time.perf_counter()
        proc = fresh.run([*SUMSYS, "verify", "--file", str(path)], memory=GIB, timeout=60)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["reason"] == "no JOF builds these components"

    def test_value_past_the_digit_cap(self, capsys, tmp_path):
        # rejected before int() parses it, which is quadratic in the digits
        path = tmp_path / "huge.json"
        path.write_text('{"N": 2, "components": [[0, 1%s]], "doubled": false}' % ("0" * 10**5))
        code, out, err = invoke(capsys, "verify", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "4300" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "verify", "--file", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err

    def test_plain_format(self, capsys, tmp_path):
        path = self.build_to_file(capsys, tmp_path)
        code, out, _ = invoke(capsys, "verify", "--file", str(path),
                              "--format", "plain")
        assert code == 0
        assert out == "ok\n"


class TestTable:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-n", "16", "--max-m", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,m,count"
        assert len(lines) == 1 + 16 * 3
        assert "12,2,14" in lines
        assert "8,3,6" in lines
        assert lines[1] == "1,1,0"

    def test_deterministic(self, capsys):
        first = invoke(capsys, "table", "--max-n", "20", "--max-m", "4")
        second = invoke(capsys, "table", "--max-n", "20", "--max-m", "4")
        assert first == second

    def test_bad_bounds(self, capsys):
        assert invoke(capsys, "table", "--max-n", "0", "--max-m", "3")[0] == 2


class TestDivisorFn:
    @pytest.mark.parametrize(
        "kind,j,r,n,expected",
        [
            ("d", 2, None, 12, 6),
            ("c", 2, None, 12, 4),
            ("assoc", 2, 1, 12, 7),
            ("assoc", 2, -2, 12, -2),
            ("sqfree", 2, None, 12, -2),
            ("sqfree", 3, None, 12, 3),
        ],
    )
    def test_values(self, capsys, kind, j, r, n, expected):
        argv = ["divisor-fn", "--kind", kind, "--j", str(j), "--n", str(n)]
        if r is not None:
            argv += ["--r", str(r)]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == expected
        assert doc["kind"] == kind

    def test_r_requires_assoc(self, capsys):
        code, _, err = invoke(capsys, "divisor-fn", "--kind", "c", "--j", "2",
                              "--r", "1", "--n", "12")
        assert code == 2
        assert "assoc" in err

    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "divisor-fn", "--kind", "d", "--j", "2",
                              "--n", "12", "--format", "plain")
        assert code == 0
        assert out == "6\n"

    def test_domain_errors(self, capsys):
        assert invoke(capsys, "divisor-fn", "--kind", "d", "--j", "-1", "--n", "12")[0] == 2
        assert invoke(capsys, "divisor-fn", "--kind", "d", "--j", "2", "--n", "0")[0] == 2


class TestDeepIndices:
    """Indices far past Omega(n) finish at once in a fresh interpreter,
    with no traceback: their cost must not grow with --j, --r or --m."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["divisor-fn", "--kind", "assoc", "--j", "3000", "--n", "12"], 0),
            (["divisor-fn", "--kind", "assoc", "--j", "1", "--r", "-3000", "--n", "12"],
             binomial_d_sum(1, -2999, 12)),
            (["divisor-fn", "--kind", "assoc", "--j", "1", "--r", "3000", "--n", "12"],
             binomial_d_sum(1, 3001, 12)),
            (["divisor-fn", "--kind", "c", "--j", "20000", "--n", "12"], 0),
            (["divisor-fn", "--kind", "sqfree", "--j", "3000", "--n", "12"], 0),
            (["count", "--n", "12", "--m", "300000"], 0),
        ],
        ids=["assoc-deep-j", "assoc-deep-negative-r", "assoc-deep-r", "c-deep-j",
             "sqfree-deep-j", "count-huge-m"],
    )
    def test_subprocess(self, argv, expected):
        proc = fresh.run([*SUMSYS, *argv, "--format", "plain"], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{expected}\n"


@pytest.fixture
def exact_digits():
    """Lift Python 3.11+'s 4300-digit int <-> str cap in this process for one
    test, so that it can write and read the exact values it compares."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestHugeValues:
    """Exact values past 4300 digits print in full in a fresh interpreter."""

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    @pytest.mark.parametrize(
        "argv,key,expected",
        [
            (["count", "--tuple", ",".join(["2"] * 2000)], "count", math.factorial(2000)),
            (["divisor-fn", "--kind", "d", "--j", str(10**80), "--n", str(2**62)], "value",
             math.comb(10**80 + 61, 62)),
        ],
        ids=["count-2000-parts", "divisor-fn-huge-j"],
    )
    def test_subprocess(self, exact_digits, fmt, argv, key, expected):
        proc = fresh.run([*SUMSYS, *argv, "--format", fmt], timeout=120)
        assert proc.returncode == 0, proc.stderr
        if fmt == "plain":
            assert proc.stdout == f"{expected}\n"
        else:
            assert json.loads(proc.stdout)[key] == expected


class _NoStr(int):
    """An int whose str() fails.  The JSON encoder writes an int by
    int.__repr__, so only a --format plain line calls str()."""

    def __str__(self):
        raise AssertionError("a plain line was formatted")


class TestJsonFormatsOnce:
    """A JSON run formats each value once, in the encoder, and never the
    --format plain lines it does not write."""

    @pytest.mark.parametrize("argv, expected", [
        # 4,875 digits
        (["count", "--tuple", ",".join([str(2**62)] * 30)],
         {"tuple": [2**62] * 30, "method": "closed-form",
          "count": math.factorial(62 * 30) // math.factorial(62) ** 30}),
        (["divisor-fn", "--kind", "d", "--j", str(10**80), "--n", str(2**62)],
         {"kind": "d", "j": 10**80, "r": None, "n": 2**62, "value": math.comb(10**80 + 61, 62)}),
        (["count", "--n", "12", "--m", "2"],
         {"N": 12, "m": 2, "count": 14, "method": "closed-form"}),
        (["count", "--n", "12"],
         {"N": 12, "method": "closed-form",
          "counts": [{"m": 1, "count": 1}, {"m": 2, "count": 14}, {"m": 3, "count": 18}]}),
    ], ids=["count-tuple", "divisor-fn", "count-n-m", "count-n"])
    def test_no_plain_line_in_json(self, capsys, monkeypatch, exact_digits, argv, expected):
        from sumsystems import arith, counting, jof

        def unprintable(f):
            return lambda *args: _NoStr(f(*args))

        monkeypatch.setattr(jof, "count_for_tuple", unprintable(jof.count_for_tuple))
        monkeypatch.setattr(arith, "classical_divisor", unprintable(arith.classical_divisor))
        count = counting.count_m_part

        def counted(n, m):
            result = count(n, m)
            return result._replace(value=_NoStr(result.value))

        monkeypatch.setattr(counting, "count_m_part", counted)
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == expected


class TestLongTuples:
    """`count --tuple` takes time about linear in its number of parts."""

    @pytest.mark.parametrize("parts", [(WORST,) * 200, (2,) * 10_000],
                             ids=["200-worst", "10000-twos"])
    def test_count_in_bounded_time(self, exact_digits, parts):
        start = time.perf_counter()
        proc = fresh.run([*SUMSYS, "count", "--tuple", ",".join(map(str, parts)),
                          "--format", "plain"], memory=GIB, timeout=120)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 20
        assert proc.stdout == f"{count_for_tuple(parts)}\n"


class TestCheck:
    def test_ok(self, capsys):
        code, out, _ = invoke(capsys, "check", "--n", "12", "--m", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert set(doc["residuals"].values()) == {0}

    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "check", "--n", "360", "--m", "3",
                              "--format", "plain")
        assert code == 0
        assert out == "ok\n"

    def test_bad_m(self, capsys):
        assert invoke(capsys, "check", "--n", "12", "--m", "0")[0] == 2


class TestTopLevel:
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the int <-> str digit cap is new in Python 3.11")
    @pytest.mark.parametrize("argv,expected", [
        (["count", "--n", "12"], 0),
        (["count", "--n", "0"], 2),
        (["count", "--tuple", "2,x"], 2),
        (["enumerate", "--tuple", "8,2", "--limit", "2"], 3),
        (["divisor-fn", "--kind", "c", "--j", "1" * 5000, "--n", "12"], 0),  # parsed past the cap
    ])
    def test_digit_cap_is_restored(self, capsys, argv, expected):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run(argv) == expected
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_reader_stops_early(self, fmt):
        # `sumsys enumerate ... | head -1`: exit 0 and no traceback
        proc = subprocess.Popen(
            [*SUMSYS, "enumerate", "--tuple", BIG_TUPLE, "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh.env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert first == (b"{\n" if fmt == "json" else b"1:2,2:7,3:3,2:7,4:5,5:2,4:7,5:49\n")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--tuple", BIG_TUPLE],
        ["count", "--n", "12", "--m", "2"],
        ["verify", "--file", "garbage.json"],
    ])
    def test_stdout_already_closed(self, tmp_path, argv):
        # the write fails mid-stream or, with buffered stdout, at the final
        # flush; either way exit 0, even for a verdict of 1 no one can read
        (tmp_path / "garbage.json").write_text("not json")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = fresh.run([*SUMSYS, *argv], stdout=write_end, cwd=tmp_path, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["count", "--n", "12"],
        ["enumerate", "--tuple", "36,36,12"],
        ["enumerate", "--tuple", "36,36,12", "--format", "plain"],
    ])
    def test_output_that_cannot_be_written(self, argv):
        # every write to /dev/full fails with ENOSPC: at the final flush for
        # `count`, mid-stream for `enumerate`
        with open("/dev/full", "wb") as full:
            proc = fresh.run([*SUMSYS, *argv], stdout=full, timeout=60)
        err = proc.stderr
        assert proc.returncode == 2
        assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_spool_write_failure_is_a_usage_error(self):
        # enumerate's temporary file opens, then its first write fails
        code = ("import tempfile\n"
                "from sumsystems import cli\n"
                "opened = tempfile.TemporaryFile\n"
                "class Full:\n"
                "    def __init__(self, *args, **kwargs):\n"
                "        self.file = opened(*args, **kwargs)\n"
                "    def __getattr__(self, name):\n"
                "        return getattr(self.file, name)\n"
                "    def __enter__(self):\n"
                "        return self\n"
                "    def __exit__(self, *exc):\n"
                "        self.file.close()\n"
                "    def write(self, text):\n"
                "        raise OSError(28, 'No space left on device')\n"
                "tempfile.TemporaryFile = Full\n"
                "cli.main()\n")
        proc = fresh.run([sys.executable, "-c", code, "enumerate", "--tuple", "2,2"], timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write the output: [Errno 28] No space left on device\n"

    def test_import_loads_no_introspection_modules(self):
        # every `sumsys` run pays for what importing the CLI loads; -S keeps
        # the imports of a host's site module from hiding a regression
        code = ("import sys; before = set(sys.modules); import sumsystems.cli; "
                "print(*sorted(set(sys.modules) - before))")
        proc = fresh.run([sys.executable, "-S", "-c", code], timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "sumsystems.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})

    @staticmethod
    def loads(code, *argv, cwd=None):
        """The package modules, fractions, decimal and json that `code` loads
        in a fresh `python -S`, which gets argv; stdout is swallowed."""
        script = ("import io, sys\n"
                  "before, out, sys.stdout = set(sys.modules), sys.stdout, io.StringIO()\n"
                  f"{code}\n"
                  "sys.stdout = out\n"
                  "print(*sorted(set(sys.modules) - before))")
        proc = fresh.run([sys.executable, "-S", "-c", script, *argv], cwd=cwd, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return {name for name in proc.stdout.split()
                if name.partition(".")[0] in {"sumsystems", "fractions", "decimal", "json"}}

    def test_bare_import_loads_no_submodule(self):
        assert self.loads("import sumsystems") == {"sumsystems"}

    def test_count_for_tuple_loads_no_json(self):
        assert self.loads("from sumsystems import count_for_tuple") == {
            "sumsystems", "sumsystems.arith", "sumsystems.jof", "sumsystems.shape"}

    def test_systems_loads_no_arithmetic_or_fractions(self):
        assert self.loads("import sumsystems.systems") == {
            "sumsystems", "sumsystems.shape", "sumsystems.systems"}

    @pytest.mark.parametrize("argv,expected", [
        pytest.param(["divisor-fn", "--kind", "c", "--j", "2", "--n", "12"], {"arith"},
                     id="divisor-fn"),
        pytest.param(["count", "--n", "720"], {"arith", "counting"}, id="count-n"),
        pytest.param(["check", "--n", "720", "--m", "3"], {"arith", "counting"}, id="check"),
        pytest.param(["table", "--max-n", "12", "--max-m", "3"], {"arith", "counting"},
                     id="table"),
        pytest.param(["enumerate", "--tuple", "6,2"], {"arith", "jof", "shape"},
                     id="enumerate"),
        pytest.param(["count", "--tuple", "6,2"], {"arith", "jof", "shape"}, id="count-tuple"),
        pytest.param(["build", "--jof", "1:2,2:3"], {"shape", "systems"}, id="build"),
        pytest.param(["verify", "--file", "system.json"], {"shape", "systems", "verify"},
                     id="verify"),
    ])
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, expected):
        # exactly these package modules and neither fractions nor decimal,
        # so build and verify load no arith, jof or counting
        system = systems.build_sum_system(parse_jof_text("1:2,2:3"))
        (tmp_path / "system.json").write_text(json.dumps(systems.system_to_json(system)))
        code = "import sumsystems.cli\nassert sumsystems.cli.run(sys.argv[1:]) == 0"
        loaded = self.loads(code, *argv, cwd=tmp_path)
        assert {name for name in loaded if name.startswith("sumsystems")} == {
            "sumsystems", "sumsystems.cli", *(f"sumsystems.{name}" for name in expected)}
        assert loaded.isdisjoint({"fractions", "decimal"})

    def test_console_script(self):
        # an installed `sumsys` runs this checkout's package, as src/ comes
        # first on PYTHONPATH, so a stale install cannot answer for it
        exe = shutil.which("sumsys")
        proc = fresh.run([*([exe] if exe else SUMSYS), "count", "--n", "12", "--m", "2"],
                         timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["count"] == 14
