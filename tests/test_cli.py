import fcntl
import io
import json
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclicvdw import InternalInconsistencyError, InvalidArgumentError, ResultsCache
from cyclicvdw import coloring, construction, search
from cyclicvdw.cli import main, parse_range
from cyclicvdw.serialize import (
    parse_residues,
    read_residue_file,
    residues_to_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RESIDUE_FILE = "# trial sets mod 12\n0,1,2,4,5,8,9\n0,3,6,9\n"

# A cached exact b(9,3) record whose value object has none of the fields shown.
INCOMPLETE_EXACT_B9 = json.dumps({"key": {"op": "exact", "n": 9, "k": 3, "what": "b"},
                                  "status": "exact", "value": {}}) + "\n"

# Past Python's limits on range lengths, list sizes and shift counts.
HUGE = str(10**30)


def drop_first_forbidden(monkeypatch):
    """Make `build_partition` build an F without its first element, so its
    parts no longer cover Z_mk."""
    real = construction.build_forbidden

    def short(m, k):
        forb = real(m, k)
        return forb._replace(union=forb.union[1:])

    monkeypatch.setattr(coloring, "build_forbidden", short)


def exact_record(what, n, k, **value):
    """One cache line holding an exact record for (what, n, k)."""
    value = {"modulus": n, "k": k, "status": "exact", **value}
    return json.dumps({"key": {"op": "exact", "n": n, "k": k, "what": what},
                       "status": "exact", "value": value}) + "\n"


# Cached exact records that are complete but fail re-verification.
UNVERIFIED_EXACT_B9 = [
    pytest.param(exact_record("b", 9, 3, value=7, witness=[0, 1, 2, 3, 4, 5, 6]),
                 id="witness-holds-progression"),
    pytest.param(exact_record("b", 9, 3, value=4, witness=5), id="witness-not-a-list"),
    pytest.param(exact_record("b", 9, 3, value=4, witness=[0, 1, 3, 3]),
                 id="witness-repeats"),
    pytest.param(exact_record("b", 9, 3, value=4, witness=[0, 1, 3]),
                 id="witness-shorter-than-value"),
    pytest.param(exact_record("b", 9, 3, value=4, witness=[0, 1, 3, 9]),
                 id="witness-out-of-range"),
    pytest.param(exact_record("b", 9, 3, value="4", witness=[0, 1, 3, 4]),
                 id="value-not-an-int"),
    pytest.param(exact_record("b", 9, 3, modulus=10, value=4, witness=[0, 1, 3, 4]),
                 id="other-modulus"),
]
UNVERIFIED_EXACT_CHI9 = [
    pytest.param(exact_record("chi", 9, 3, value=2, coloring=[0, 1] * 4 + [0]),
                 id="monochromatic-progression"),
    pytest.param(exact_record("chi", 9, 3, value=1, coloring=[0] * 9),
                 id="one-color"),
    pytest.param(exact_record("chi", 9, 3, value=3, coloring=[0, 0, 1, 1, 2, 2]),
                 id="too-few-entries"),
    pytest.param(exact_record("chi", 9, 3, value=2,
                              coloring=[0, 0, 1, 0, 0, 1, 1, 2, 2]),
                 id="color-out-of-range"),
    pytest.param(exact_record("chi", 9, 3, value=3, coloring={"0": 0}),
                 id="not-a-list"),
]

# A verified exact b(9,3) answer and its key.
B9_KEY = {"op": "exact", "n": 9, "k": 3, "what": "b"}
B9_VALUE = {"modulus": 9, "k": 3, "value": 4, "witness": [0, 1, 3, 4],
            "status": "exact"}

# The full stdout of small commands in each format.  A json entry is the
# document; the command must print exactly json.dumps(doc, indent=2,
# sort_keys=True) and a newline.  SETS stands for a file holding RESIDUE_FILE.
GOLDEN = [
    pytest.param(("diffs", "--n", "12", "--k", "4", "--method", "both"), {
        "json": {"agrees": True, "brute_force": [1, 2], "closed_form": [1, 2],
                 "length": 4, "modulus": 12},
        "csv": "modulus,k,method,values\n"
               "12,4,closed_form,1;2\n"
               "12,4,brute_force,1;2\n",
        "text": "{1,2} agree=true\n",
    }, id="diffs-both"),
    pytest.param(("diffs", "--n", "12", "--k", "4", "--method", "closed"), {
        "json": {"length": 4, "method": "closed_form", "modulus": 12,
                 "values": [1, 2]},
        "csv": "modulus,k,method,values\n"
               "12,4,closed_form,1;2\n",
        "text": "{1,2}\n",
    }, id="diffs-closed"),
    pytest.param(("diffs", "--n", "12", "--k", "5"), {
        "json": {"length": 5, "method": "brute_force", "modulus": 12,
                 "values": [1, 5]},
        "csv": "modulus,k,method,values\n"
               "12,5,brute_force,1;5\n",
        "text": "{1,5}\n",
    }, id="diffs-brute"),
    pytest.param(("construct", "--m", "3", "--k", "4"), {
        "json": {"F_0": [3, 7, 11], "F_1": [6, 10],
                 "bounds": {"exact": None, "exactness_reason": "none", "k": 4,
                            "lower": 7, "m": 3, "upper": 9},
                 "diffs": [1, 2], "k": 4, "m": 3, "modulus": 12,
                 "union": [3, 6, 7, 10, 11]},
        "csv": "m,k,modulus,size,lower,upper,union\n"
               "3,4,12,5,7,9,3;6;7;10;11\n",
        "text": "F = 3,6,7,10,11\n"
                "F_0 = 3,7,11\n"
                "F_1 = 6,10\n"
                "|F| = 5\n"
                "bounds: 7 <= b(12,4) <= 9\n",
    }, id="construct"),
    pytest.param(("exact", "--n", "9", "--k", "3", "--what", "chi"), {
        "json": {"coloring": [0, 0, 1, 0, 0, 1, 1, 2, 2], "k": 3, "modulus": 9,
                 "status": "exact", "value": 3},
        "csv": "what,modulus,k,value,status\n"
               "chi,9,3,3,exact\n",
        "text": "chi(9,3) = 3 (exact)\n",
    }, id="exact-chi"),
    pytest.param(("partition", "--m", "3", "--k", "3"), {
        "json": {"gamma": 0, "k": 3, "m": 3, "modulus": 9, "regime": "k_eq_m",
                 "parts": [{"elements": [0, 1, 3, 4], "label": "B"},
                           {"elements": [2, 6, 8], "label": "F'"},
                           {"elements": [5, 7], "label": "F''"}]},
        "csv": "m,k,label,elements\n"
               "3,3,B,0;1;3;4\n"
               "3,3,F',2;6;8\n"
               "3,3,F'',5;7\n",
        "text": "regime: k_eq_m  parts: 3\n"
                "B = 0,1,3,4\n"
                "F' = 2,6,8\n"
                "F'' = 5,7\n",
    }, id="partition"),
    pytest.param(("sweep", "--k", "3", "--m", "0..2", "--what", "wc"), {
        "json": [
            {"error": "m must be positive, got 0", "k": 3, "provenance": "m=0",
             "r": "", "strict_lower": ""},
            {"error": "", "k": 3, "provenance": "chi(mk,k)=2 for k>m", "r": 2,
             "strict_lower": 3},
            {"error": "", "k": 3, "provenance": "chi(mk,k)=2 for k>m", "r": 2,
             "strict_lower": 6},
        ],
        "csv": "k,r,strict_lower,provenance,error\n"
               '3,,,m=0,"m must be positive, got 0"\n'
               '3,2,3,"chi(mk,k)=2 for k>m",\n'
               '3,2,6,"chi(mk,k)=2 for k>m",\n',
        "text": "k=3  provenance=m=0  error=m must be positive, got 0\n"
                "k=3  r=2  strict_lower=3  provenance=chi(mk,k)=2 for k>m\n"
                "k=3  r=2  strict_lower=6  provenance=chi(mk,k)=2 for k>m\n",
    }, id="sweep-wc"),
    pytest.param(("conjecture", "--m", "5", "--n", "2", "--k", "3"), {
        "json": {"rows": [{"brute_force": "1;2", "conjectured": "1;2;3", "k": 3,
                           "m": 5, "n": 2, "status": "disagree",
                           "witness": "3"}],
                 "summary": {"disagree": 1}},
        "csv": "k,m,n,status,conjectured,brute_force,witness\n"
               "3,5,2,disagree,1;2;3,1;2,3\n",
        "text": "k=3 m=5 n=2: disagree conjectured={1;2;3} brute={1;2} "
                "differing_gcds={3}\n"
                "summary: disagree=1\n",
    }, id="conjecture"),
    pytest.param(("verify-file", "SETS", "--n", "12", "--k", "4"), {
        "json": [{"free": True, "set": 1, "size": 7, "witness": ""},
                 {"free": False, "set": 2, "size": 4, "witness": "0;3;6;9"}],
        "csv": "set,size,free,witness\n"
               "1,7,True,\n"
               "2,4,False,0;3;6;9\n",
        "text": "set 1: ok (7 residues)\n"
                "set 2: FAIL contains 0,3,6,9\n",
    }, id="verify-file"),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv,outputs", GOLDEN)
def test_golden_output(capsys, tmp_path, argv, outputs, fmt):
    sets = tmp_path / "sets.txt"
    sets.write_text(RESIDUE_FILE)
    argv = [str(sets) if a == "SETS" else a for a in argv]
    want = outputs[fmt]
    if fmt == "json":
        want = json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert run(capsys, *argv, "--format", fmt) == (0, want, "")


class TestParseRange:
    def test_singleton_and_range(self):
        assert parse_range("7") == [7]
        assert parse_range("3..6") == [3, 4, 5, 6]

    @pytest.mark.parametrize("text", ["x", "3..x", "6..3"])
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidArgumentError):
            parse_range(text)


class TestSerialize:
    def test_text_round_trip(self):
        assert residues_to_text((14, 29, 44)) == "14,29,44"
        assert parse_residues("14,29,44") == (14, 29, 44)
        assert parse_residues("") == ()

    def test_rejects_unsorted_or_negative(self):
        with pytest.raises(InvalidArgumentError):
            parse_residues("3,2")
        with pytest.raises(InvalidArgumentError):
            parse_residues("-1,2")

    @pytest.mark.parametrize("text", ["0,1_0", "+3", "0,\u0663", "\uff11,2",
                                      "0,,3", "0,3,", ",0,3", ","])
    def test_rejects_non_decimal_residues(self, text):
        # int() would read some of these, e.g. "1_0" as 10 and U+0663 as 3;
        # an empty field must not be dropped, or "0,,3" would read as (0, 3).
        with pytest.raises(InvalidArgumentError):
            parse_residues(text)

    def test_read_file_skips_comments(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("# header\n0,1,3\n\n2,5 # trailing\n")
        assert read_residue_file(path) == [(0, 1, 3), (2, 5)]

    @given(st.text())
    @example("1_0,2")
    @example("9" * 5000)
    def test_parse_residues_returns_or_rejects(self, text):
        try:
            values = parse_residues(text)
        except InvalidArgumentError:
            return
        assert list(values) == sorted(set(values))
        assert all(v >= 0 for v in values)

    @settings(max_examples=50)
    @given(st.binary())
    @example(b"0,1,\xff\xfe")
    @example(b"0,1\r2,3\x0b4")
    def test_read_file_returns_or_rejects(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sets.txt"
            path.write_bytes(data)
            try:
                sets = read_residue_file(path)
            except InvalidArgumentError:
                return
        assert all(list(s) == sorted(set(s)) for s in sets)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestResultsCache:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultsCache(path)
        cache.put(B9_KEY, B9_VALUE)
        reloaded = ResultsCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(B9_KEY) == B9_VALUE

    def test_exact_never_displaced_by_bound(self, tmp_path):
        cache = ResultsCache(tmp_path / "cache.jsonl")
        cache.put(B9_KEY, B9_VALUE)
        cache.put(B9_KEY, {**B9_VALUE, "status": "lower_bound_only", "value": 3,
                           "witness": [0, 1, 3]})
        assert cache.get(B9_KEY) == B9_VALUE

    def test_later_bound_only_line_is_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            json.dumps({"key": B9_KEY, "status": "exact", "value": B9_VALUE}) + "\n"
            + json.dumps({"key": B9_KEY, "status": "lower_bound_only",
                          "value": {"value": 3}}) + "\n")
        cache = ResultsCache(path)
        assert cache.get(B9_KEY) == B9_VALUE
        assert len(cache) == 1 and cache.corrupt_lines == 0

    def test_bound_only_put_writes_nothing(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = {"op": "exact", "n": 30, "k": 3, "what": "b"}
        cache = ResultsCache(path)
        cache.put(key, {"status": "lower_bound_only", "value": 7})
        assert cache.get(key) is None and len(cache) == 0
        assert not path.exists() or path.read_text() == ""

    def test_appended_line_fields(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = {"op": "exact", "n": 12, "k": 4, "what": "b"}
        value = {"status": "exact", "value": 7, "witness": [0, 1]}
        ResultsCache(path).put(key, value)
        line = json.loads(path.read_text())
        assert set(line) == {"key", "status", "value", "tool_version", "timestamp"}
        assert (line["key"], line["status"], line["value"]) == (key, "exact", value)
        assert isinstance(line["tool_version"], str)
        assert isinstance(line["timestamp"], float)

    def test_key_order_is_canonical(self, tmp_path):
        cache = ResultsCache(tmp_path / "cache.jsonl")
        cache.put(B9_KEY, B9_VALUE)
        permuted = dict(reversed(B9_KEY.items()))
        assert list(permuted) != list(B9_KEY)
        assert cache.get(permuted) is not None

    def test_append_waits_for_the_file_lock(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("")
        with path.open("ab") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            writer = threading.Thread(target=ResultsCache(path).put,
                                      args=(B9_KEY, B9_VALUE))
            writer.start()
            writer.join(0.3)
            assert writer.is_alive() and path.read_text() == ""
            fcntl.flock(holder, fcntl.LOCK_UN)
            writer.join(10)
        assert not writer.is_alive()
        assert ResultsCache(path).get(B9_KEY) == B9_VALUE

    @pytest.mark.parametrize("line", [
        *UNVERIFIED_EXACT_B9, *UNVERIFIED_EXACT_CHI9,
        pytest.param(INCOMPLETE_EXACT_B9, id="incomplete"),
        pytest.param(exact_record("b", 9, 2, value=2, witness=[0, 1]),
                     id="k-below-three"),
    ])
    def test_unverified_record_is_not_served(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(line)
        cache = ResultsCache(path)
        assert len(cache) == 1
        assert cache.get(json.loads(line)["key"]) is None

    def test_verified_records_are_served(self, tmp_path):
        # Re-verification checks the witness, not the optimality claim.
        path = tmp_path / "cache.jsonl"
        lines = [exact_record("b", 9, 3, value=3, witness=[0, 1, 3]),
                 exact_record("chi", 9, 3, value=4,
                              coloring=[0, 0, 1, 1, 2, 2, 3, 3, 1])]
        path.write_text("".join(lines))
        cache = ResultsCache(path)
        for line in map(json.loads, lines):
            assert cache.get(line["key"]) == line["value"]

    def test_key_without_n_k_and_what_is_a_miss(self, tmp_path):
        cache = ResultsCache(tmp_path / "cache.jsonl")
        key = {"op": "exact", "n": 9, "k": 3}
        cache.put(key, B9_VALUE)
        assert len(cache) == 1 and cache.get(key) is None

    def test_torn_last_line_is_skipped_and_repaired(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        run(capsys, "exact", "--n", "9", "--k", "3", "--what", "b",
            "--cache", str(path))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": {"op": "exact", "n"')
        code, out, err = run(capsys, "exact", "--n", "12", "--k", "4",
                             "--what", "b", "--cache", str(path))
        assert code == 0 and out.startswith("b(12,4) = 7 (exact)")
        assert err.splitlines() == [
            f"warning: skipped 1 unreadable line(s) in cache {path}"
        ]
        reloaded = ResultsCache(path)
        assert reloaded.corrupt_lines == 1
        assert reloaded.get({"op": "exact", "n": 12, "k": 4, "what": "b"})
        assert reloaded.get({"op": "exact", "n": 9, "k": 3, "what": "b"})

    def test_unhashable_status_lines_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = {"op": "exact", "n": 9, "k": 3, "what": "b"}
        line = json.dumps({"key": key, "status": [], "value": {"value": 1}})
        path.write_text(line + "\n" + line + "\n")
        code, out, err = run(capsys, "exact", "--n", "9", "--k", "3",
                             "--what", "b", "--cache", str(path))
        assert code == 0 and out.startswith("b(9,3) = 4 (exact)")
        assert err.splitlines() == [
            f"warning: skipped 2 unreadable line(s) in cache {path}"
        ]

    def test_non_object_value_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = {"op": "exact", "n": 9, "k": 3, "what": "b"}
        path.write_text(json.dumps({"key": key, "status": "exact", "value": 5})
                        + "\n")
        warning = f"warning: skipped 1 unreadable line(s) in cache {path}"
        code, out, err = run(capsys, "sweep", "--k", "3", "--m", "3",
                             "--what", "bounds", "--cache", str(path),
                             "--format", "csv")
        assert code == 0 and "3,3,4,6,,none," in out.splitlines()
        assert err.splitlines() == [warning]
        code, out, err = run(capsys, "exact", "--n", "9", "--k", "3",
                             "--what", "b", "--cache", str(path))
        assert code == 0 and out.startswith("b(9,3) = 4 (exact)")
        assert err.splitlines() == [warning]

    @settings(max_examples=50)
    @given(st.lists(st.binary() | st.fixed_dictionaries(
        {"key": JSON_VALUES, "status": JSON_VALUES, "value": JSON_VALUES})))
    @example([b"[" * 100_000])
    def test_load_counts_every_unusable_line(self, items):
        # Structured records have a known verdict; raw bytes may be anything.
        data = b"\n".join(
            json.dumps(item).encode() if isinstance(item, dict) else item
            for item in items
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            path.write_bytes(data)
            cache = ResultsCache(path)
        lines = [line for line in io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="replace") if line.strip()]
        assert 0 <= cache.corrupt_lines <= len(lines)
        assert len(cache) <= len(lines) - cache.corrupt_lines
        if all(isinstance(item, dict) for item in items):
            assert cache.corrupt_lines == sum(
                not (isinstance(item["key"], dict)
                     and isinstance(item["value"], dict)
                     and isinstance(item["status"], str))
                for item in items
            )


class TestDiffsCommand:
    def test_closed_form_text(self, capsys):
        code, out, _ = run(capsys, "diffs", "--n", "12", "--k", "4",
                           "--method", "closed")
        assert code == 0 and out == "{1,2}\n"

    def test_both_agree(self, capsys):
        code, out, _ = run(capsys, "diffs", "--n", "81", "--k", "9",
                           "--method", "both", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["closed_form"] == payload["brute_force"] == [1, 3, 9]
        assert payload["agrees"] is True

    def test_brute_default_for_non_multiple(self, capsys):
        code, out, _ = run(capsys, "diffs", "--n", "12", "--k", "5")
        assert code == 0 and out == "{1,5}\n"

    def test_closed_form_requires_divisibility(self, capsys):
        code, _, err = run(capsys, "diffs", "--n", "12", "--k", "5",
                           "--method", "closed")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("method", ["closed", "both"])
    def test_zero_k_is_a_usage_error(self, capsys, method):
        code, out, err = run(capsys, "diffs", "--n", "12", "--k", "0",
                             "--method", method)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: k must be >= 3, got 0"]

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_modulus_below_k_is_a_usage_error(self, capsys, n):
        code, out, err = run(capsys, "diffs", "--n", n, "--k", "3",
                             "--method", "closed")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("method", ["closed", "brute", "both"])
    @pytest.mark.parametrize("n", ["-3", "0", "2"])
    def test_modulus_below_k_names_n_and_k(self, capsys, method, n):
        code, out, err = run(capsys, "diffs", "--n", n, "--k", "3",
                             "--method", method)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: modulus must be >= k, got N={n}, k=3"]


    def test_modulus_past_the_scan_cap_is_a_usage_error(self, capsys):
        # The brute force refuses before it scans N/2 differences.
        n = str(10**30)
        code, out, err = run(capsys, "diffs", "--n", n, "--k", "3")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: modulus {n} exceeds the difference-set limit 10000000"]


class TestConstructCommand:
    def test_text_with_verify(self, capsys):
        code, out, _ = run(capsys, "construct", "--m", "3", "--k", "15",
                           "--verify")
        assert code == 0
        assert "F = 14,29,42,43,44" in out
        assert "bounds: 40 <= b(45,15) <= 42" in out
        assert "verify: pass" in out

    def test_json_blocks(self, capsys):
        code, out, _ = run(capsys, "construct", "--m", "3", "--k", "15",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["F_0"] == [14, 29, 44]
        assert payload["F_1"] == [42, 43]
        assert payload["bounds"]["upper"] == 42

    def test_failed_verification_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(construction, "build_avoiding",
                            lambda m, k: list(range(m * k)))
        code, out, err = run(capsys, "construct", "--m", "3", "--k", "4",
                             "--verify")
        assert code == 3 and out == ""
        assert err.startswith("internal verification failure:")

    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "construct", "--m", "3", "--k", "4",
                           "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "m,k,modulus,size,lower,upper,union"
        assert lines[1].startswith("3,4,12,5,7,9,")


class TestExactCommand:
    def test_independence_text(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "12", "--k", "4",
                           "--what", "b")
        assert code == 0
        assert out.startswith("b(12,4) = 7 (exact) witness=")

    def test_independence_json(self, capsys):
        # The golden test leaves b out: `elapsed` differs from run to run.
        code, out, _ = run(capsys, "exact", "--n", "12", "--k", "4",
                           "--what", "b", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and isinstance(doc.pop("elapsed"), float)
        assert doc == {"k": 4, "modulus": 12, "nodes_explored": 14,
                       "status": "exact", "value": 7,
                       "witness": [0, 1, 2, 4, 5, 8, 9]}

    def test_independence_below_three_points(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "1", "--k", "3", "--what", "b")
        assert (code, out) == (0, "b(1,3) = 1 (exact) witness=0\n")

    def test_chromatic_text(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "9", "--k", "3",
                           "--what", "chi")
        assert code == 0 and out == "chi(9,3) = 3 (exact)\n"

    def test_cap_requires_force(self, capsys):
        code, _, err = run(capsys, "exact", "--n", "41", "--k", "41",
                           "--what", "b")
        assert code == 2 and "--force" in err
        code, out, _ = run(capsys, "exact", "--n", "41", "--k", "41",
                           "--what", "b", "--force")
        assert code == 0 and out.startswith("b(41,41) = 40 (exact)")

    def test_cache_reruns_are_byte_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        _, first, _ = run(capsys, "exact", "--n", "12", "--k", "4",
                          "--what", "b", "--cache", cache, "--format", "json")
        # Different budgets must not change the cached answer.
        _, second, _ = run(capsys, "exact", "--n", "12", "--k", "4",
                           "--what", "b", "--cache", cache,
                           "--budget-nodes", "999", "--format", "json")
        assert first == second
        with open(cache) as fh:
            assert len(fh.readlines()) == 1

    def test_bound_only_cache_record_is_recomputed(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        argv = ("exact", "--n", "30", "--k", "3", "--what", "b", "--cache", cache)
        code, out, _ = run(capsys, *argv, "--budget-nodes", "10")
        assert code == 0 and out.startswith("b(30,3) = 8 (lower_bound_only)")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("b(30,3) = 8 (exact)")
        # The exact record now wins over any budget.
        code, again, _ = run(capsys, *argv, "--budget-nodes", "10")
        assert code == 0 and again == out
        with open(cache) as fh:
            assert len(fh.readlines()) == 1

    def test_incomplete_exact_cache_record_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(INCOMPLETE_EXACT_B9)
        argv = ("exact", "--n", "9", "--k", "3", "--what", "b", "--cache", str(cache))
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == "b(9,3) = 4 (exact) witness=0,1,3,4\n"
        assert len(cache.read_text().splitlines()) == 2
        # The appended complete record is served from now on.
        assert run(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("line", UNVERIFIED_EXACT_B9)
    def test_unverified_exact_b_record_is_recomputed(self, capsys, tmp_path, line):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(line)
        argv = ("exact", "--n", "9", "--k", "3", "--what", "b", "--cache", str(cache))
        assert run(capsys, *argv) == (0, "b(9,3) = 4 (exact) witness=0,1,3,4\n", "")
        assert len(cache.read_text().splitlines()) == 2

    @pytest.mark.parametrize("line", UNVERIFIED_EXACT_CHI9)
    def test_unverified_exact_chi_record_is_recomputed(self, capsys, tmp_path, line):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(line)
        argv = ("exact", "--n", "9", "--k", "3", "--what", "chi", "--cache", str(cache))
        assert run(capsys, *argv) == (0, "chi(9,3) = 3 (exact)\n", "")
        assert len(cache.read_text().splitlines()) == 2

    def test_verified_exact_records_are_served(self, capsys, tmp_path):
        # Re-verification checks the witness, not the optimality claim.
        cache = tmp_path / "cache.jsonl"
        cache.write_text(exact_record("b", 9, 3, value=3, witness=[0, 1, 3])
                         + exact_record("chi", 9, 3, value=4,
                                        coloring=[0, 0, 1, 1, 2, 2, 3, 3, 1]))
        for what, out in (("b", "b(9,3) = 3 (exact) witness=0,1,3\n"),
                          ("chi", "chi(9,3) = 4 (exact)\n")):
            assert run(capsys, "exact", "--n", "9", "--k", "3", "--what", what,
                       "--cache", str(cache)) == (0, out, "")
        assert len(cache.read_text().splitlines()) == 2

    def test_non_positive_modulus_is_a_usage_error(self, capsys):
        for what in ("b", "chi"):
            code, out, err = run(capsys, "exact", "--n", "-3", "--k", "3",
                                 "--what", what)
            assert code == 2 and out == "" and err.startswith("error:")

    def test_huge_forced_modulus_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "exact", "--n", HUGE, "--k", "3",
                             "--what", "b", "--force")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_search_past_the_recursion_limit_is_a_usage_error(self, capsys,
                                                             monkeypatch):
        def too_deep(n, k, budget):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(search, "independence_number", too_deep)
        monkeypatch.setattr(search, "chromatic_number", too_deep)
        for what in ("b", "chi"):
            code, out, err = run(capsys, "exact", "--n", "1100", "--k", "1099",
                                 "--what", what, "--force")
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error:") and "N=1100" in err

    @pytest.mark.parametrize("what,answer", [("b", "witness"), ("chi", "coloring")])
    def test_cached_record_does_not_skip_argument_checks(self, capsys, tmp_path,
                                                         what, answer):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(exact_record(what, 0, 3, value=0, **{answer: []}))
        code, out, err = run(capsys, "exact", "--n", "0", "--k", "3",
                             "--what", what, "--cache", str(cache))
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("flag,value", [("--budget-nodes", "0"),
                                            ("--budget-seconds", "nan")])
    def test_cached_record_does_not_skip_budget_checks(self, capsys, tmp_path,
                                                       flag, value):
        cache = str(tmp_path / "cache.jsonl")
        args = ("exact", "--n", "9", "--k", "3", "--what", "b", "--cache", cache)
        assert run(capsys, *args)[0] == 0
        code, out, err = run(capsys, *args, flag, value)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestPartitionCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "partition", "--m", "3", "--k", "3")
        assert code == 0
        assert "regime: k_eq_m  parts: 3" in out
        assert "F' = 2,6,8" in out
        assert "F'' = 5,7" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "partition", "--m", "5", "--k", "3",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["gamma"] == 3
        assert [p["label"] for p in payload["parts"]] == \
            ["B", "Fk'", "Fk''", "E_1", "E_2", "E_3"]

    def test_non_covering_plan_exits_three(self, capsys, monkeypatch):
        drop_first_forbidden(monkeypatch)
        code, out, err = run(capsys, "partition", "--m", "3", "--k", "4")
        assert code == 3 and out == ""
        assert err.startswith("internal verification failure:")


class TestSweepCommand:
    def test_bounds_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "3..4", "--m", "1..3",
                           "--what", "bounds", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "k,m,lower,upper,exact,reason,error"
        assert "3,3,4,6,,none," in lines
        assert "4,1,3,3,3,D-singleton," in lines

    def test_bounds_pick_up_cached_exact(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        run(capsys, "exact", "--n", "9", "--k", "3", "--what", "b",
            "--cache", cache)
        code, out, _ = run(capsys, "sweep", "--k", "3", "--m", "3",
                           "--what", "bounds", "--cache", cache,
                           "--format", "csv")
        assert code == 0
        assert "3,3,4,6,4,search," in out.splitlines()

    def test_bounds_skip_incomplete_cached_exact(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(INCOMPLETE_EXACT_B9)
        code, out, err = run(capsys, "sweep", "--k", "3", "--m", "3",
                             "--what", "bounds", "--cache", str(cache),
                             "--format", "csv")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "3,3,4,6,,none,"

    @pytest.mark.parametrize("line", UNVERIFIED_EXACT_B9)
    def test_bounds_skip_unverified_cached_exact(self, capsys, tmp_path, line):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(line)
        code, out, err = run(capsys, "sweep", "--k", "3", "--m", "3",
                             "--what", "bounds", "--cache", str(cache),
                             "--format", "csv")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "3,3,4,6,,none,"

    def test_partition_rows_keep_failures_inline(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "3", "--m", "0..2",
                           "--what", "partition", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert rows[0]["verified"] is False and rows[0]["error"]
        assert rows[1]["verified"] is True and rows[1]["regime"] == "k_gt_m"

    def test_wc_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "3", "--m", "2..4",
                           "--what", "wc", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "k,r,strict_lower,provenance,error"
        assert lines[1].startswith("3,2,6,")
        assert lines[2].startswith("3,3,9,")
        assert lines[3].startswith("3,5,12,")

    def test_internal_failure_exits_three(self, capsys, monkeypatch):
        def broken(m, k):
            raise InternalInconsistencyError("part B contains a progression")

        monkeypatch.setattr(coloring, "build_partition", broken)
        code, _, err = run(capsys, "sweep", "--k", "3", "--m", "1..2",
                           "--what", "partition")
        assert code == 3 and err.startswith("internal verification failure:")

    @pytest.mark.parametrize("what", ["partition", "wc"])
    def test_non_covering_plan_exits_three(self, capsys, monkeypatch, what):
        drop_first_forbidden(monkeypatch)
        code, _, err = run(capsys, "sweep", "--k", "4", "--m", "3",
                           "--what", what)
        assert code == 3 and err.startswith("internal verification failure:")

    def test_rejects_small_k(self, capsys):
        code, _, err = run(capsys, "sweep", "--k", "2..3", "--m", "1",
                           "--what", "bounds")
        assert code == 2 and "k in the sweep" in err

    def test_huge_range_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--k", "3", "--m", f"1..{HUGE}",
                             "--what", "bounds")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestConjectureCommand:
    def test_proven_slice_agrees(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--m", "2..5", "--n", "1",
                           "--k", "3..5", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        statuses = {row["status"] for row in payload["rows"]}
        assert statuses == {"agree"}

    def test_disagreement_reports_witness(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--m", "5", "--n", "2",
                           "--k", "3")
        assert code == 0
        assert "disagree" in out
        assert "differing_gcds={3}" in out

    def test_rejected_rows_and_no_modulus_cap(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--m", "2", "--n", "3",
                           "--k", "3", "--format", "csv")
        assert code == 0 and ",rejected," in out
        argv = ["conjecture", "--m", "100", "--n", "1", "--k", "30",
                "--format", "csv"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and ",agree," in out
        code, _, _ = run(capsys, *argv, "--cap", "500")
        assert code == 2

    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--m", "3..4", "--n", "1",
                           "--k", "4")
        assert code == 0
        assert out.splitlines()[-1] == "summary: agree=2"

    def test_huge_range_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "conjecture", "--m", "2..3", "--n",
                             f"1..{HUGE}", "--k", "3")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestVerifyFileCommand:
    def test_mixed_file(self, capsys, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("# trial sets mod 12\n0,1,2,4,5,8,9\n0,3,6,9\n")
        code, out, _ = run(capsys, "verify-file", str(path),
                           "--n", "12", "--k", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "set 1: ok (7 residues)"
        assert lines[1].startswith("set 2: FAIL contains ")

    def test_out_of_range_residue(self, capsys, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("0,12\n")
        code, _, err = run(capsys, "verify-file", str(path),
                           "--n", "12", "--k", "3")
        assert code == 2 and "modulus" in err

    def test_non_decimal_residue_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("0,1_0\n")
        code, out, err = run(capsys, "verify-file", str(path),
                             "--n", "12", "--k", "3")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_huge_residue_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text(f"0,1,{10**24}\n")
        code, out, err = run(capsys, "verify-file", str(path),
                             "--n", HUGE, "--k", "3")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("contents", ["", "0,1\n"])
    @pytest.mark.parametrize("flags", [("--n", "5", "--k", "2"),
                                       ("--n", "0", "--k", "3")])
    def test_bad_flags_are_usage_errors_for_any_file(self, capsys, tmp_path,
                                                     contents, flags):
        path = tmp_path / "sets.txt"
        path.write_text(contents)
        code, out, err = run(capsys, "verify-file", str(path), *flags)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-file", str(tmp_path / "nope.txt"),
                           "--n", "12", "--k", "3")
        assert code == 2 and err.startswith("error:")

    def test_directory_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-file", str(tmp_path),
                           "--n", "12", "--k", "3")
        assert code == 2 and err.startswith("error:")

    def test_non_utf8_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_bytes(b"0,1,\xff\xfe")
        code, out, err = run(capsys, "verify-file", str(path),
                             "--n", "12", "--k", "3")
        assert code == 2 and out == "" and err.startswith("error:")


class TestUsage:
    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch):
        def exhausted(m, k):
            raise MemoryError

        monkeypatch.setattr(construction, "build_forbidden", exhausted)
        code, out, err = run(capsys, "construct", "--m", "3", "--k", "4")
        assert code == 2 and out == ""
        assert err == "error: out of memory; try a smaller input\n"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["diffs", "--n", "12"]) == 2
        capsys.readouterr()
