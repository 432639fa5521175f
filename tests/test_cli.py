"""Command line behavior: formats, exit codes, cache, selftest."""

import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from hopfmin import datum as datum_module
from hopfmin.cli import RANK_ALGORITHM, SL2_DEPTH_LIMIT, _Cache, main
from hopfmin.growth import BlockDim
from hopfmin.scalars import ORDER_LIMIT, QQ, Cyclotomic, RationalField
from hopfmin.words import BLOCK_COUNT_LIMIT, LETTER_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_document(capsys):
    code, out, err = run(capsys, "analyze", "--preset", "cartan:A2",
                         "--max-total", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert doc["schema_version"] == 1
    assert doc["max_total"] == 4
    assert len(doc["blocks"]) == math.comb(6, 2)
    assert doc["totals"] == [1, 2, 4, 6, 9]
    assert doc["datum"]["field"] == "rational_function"
    assert set(doc["timings"]) == {"total_ms", "cache_hits", "cache_misses",
                                   "settled"}
    # run configuration must not leak outside the timings block
    assert "jobs" not in doc and "cache" not in doc


def test_analyze_timings_show_how_blocks_were_settled(capsys, tmp_path):
    cache = str(tmp_path / "ranks.json")
    argv = ["analyze", "--preset", "cartan:A2", "--max-total", "8",
            "--format", "json", "--cache", cache]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["timings"]["settled"] == {
        "seed": 18, "bound": 25, "point": 2,
        "points": [[1, 2], [2, 1]]}
    # blocks read from the cache are not counted
    code, out, err = run(capsys, *argv)
    assert json.loads(out)["timings"]["settled"] == {
        "seed": 0, "bound": 0, "point": 0, "points": []}
    # only QQ(t) tables carry the record
    code, out, err = run(capsys, "analyze", "--preset", "cartan:A2",
                         "--specialize", "3", "--max-total", "4",
                         "--format", "json")
    assert "settled" not in json.loads(out)["timings"]


def test_extended_table_settles_every_block(capsys, tmp_path):
    # each block is built from the blocks below it, so a cache written to
    # total 6 serves no part of a table to 8: the run computes and settles
    # every block, as a cold run does
    cache = str(tmp_path / "ranks.json")
    argv = ["analyze", "--preset", "cartan:A2", "--format", "json",
            "--cache", cache]
    code, out, err = run(capsys, *argv, "--max-total", "6")
    assert code == 0
    code, out, err = run(capsys, *argv, "--max-total", "8")
    assert code == 0 and err == ""
    timings = json.loads(out)["timings"]
    assert timings["settled"] == {
        "seed": 18, "bound": 25, "point": 2,
        "points": [[1, 2], [2, 1]]}
    assert (timings["cache_hits"], timings["cache_misses"]) == (0, 45)


def test_analyze_csv(capsys):
    code, out, err = run(capsys, "analyze", "--preset", "cartan:A1xA1",
                         "--max-total", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "deg_1,deg_2,size,rank"
    assert len(lines) == 1 + math.comb(5, 2)
    assert lines[1] == "0,0,1,1"


def test_analyze_table(capsys):
    code, out, err = run(capsys, "analyze", "--preset", "cartan:A1",
                         "--max-total", "6")
    assert code == 0
    assert "growth:" in out
    assert "totals by degree: 1 1 1 1 1 1 1" in out


def test_analyze_specialized_collapse(capsys):
    code, out, err = run(capsys, "analyze", "--preset", "cartan:A1",
                         "--specialize", "4", "--max-total", "6",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["totals"] == [1, 1, 0, 0, 0, 0, 0]
    assert doc["verdict"]["kind"] == "finite"


def test_analyze_datum_file(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "rank": 1, "field": "rational", "alphas": [[1]], "gammas": [[2]],
    }))
    code, out, err = run(capsys, "analyze", "--datum", str(path),
                         "--max-total", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["totals"] == [1, 1, 1, 1, 1]


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, "analyze", "--datum", "/no/such/file.json",
                         "--max-total", "2")
    assert code == 1
    assert "error:" in err


def test_analyze_bad_preset(capsys):
    for kind in ("cartan", "doubled", "reductive"):
        code, out, err = run(capsys, "analyze", "--preset", f"{kind}:E8",
                             "--max-total", "2")
        assert code == 1
        assert err == ("error: unknown Cartan type 'E8' "
                       "(known: A1, A1XA1, A2, B2, G2)\n")
    code, out, err = run(capsys, "analyze", "--preset", "A2",
                         "--max-total", "2")
    assert code == 1


def test_analyze_block_limit_exit(capsys):
    code, out, err = run(capsys, "analyze", "--preset", "reductive:A2",
                         "--max-total", "8", "--block-limit", "50")
    assert code == 2
    assert "over the limit" in err


def test_analyze_pole_exit(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "rank": 1, "field": "rational_function",
        "alphas": [[1]], "gammas": [["1/(t-1)"]],
    }))
    code, out, err = run(capsys, "analyze", "--datum", str(path),
                         "--specialize", "1", "--max-total", "2")
    assert code == 3
    assert "pole" in err


def test_base_rejected_for_reductive(capsys):
    code, out, err = run(capsys, "analyze", "--preset", "reductive:A1",
                         "--base", "2", "--max-total", "2")
    assert code == 1
    assert "--base applies" in err


def test_base_rejected_for_datum_files_before_the_file_is_read(capsys):
    code, out, err = run(capsys, "analyze", "--datum", "/no/such/file.json",
                         "--base", "2", "--max-total", "2")
    assert (code, out) == (1, "")
    assert err == "error: --base applies to presets only\n"


@pytest.mark.parametrize("argv, message", [
    (("--preset", "cartan:A2", "--base", "1/0"),
     "error: division by zero in '1/0'\n"),
    (("--preset", "cartan:A2", "--base", "2", "--specialize", "3"),
     "error: can only specialize rational-function data, not rational\n"),
])
def test_bad_scalar_options_exit_one(capsys, argv, message):
    code, out, err = run(capsys, "analyze", *argv, "--max-total", "2")
    assert (code, out, err) == (1, "", message)


def test_non_integer_max_total_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--preset", "cartan:A1", "--max-total", "x"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --max-total: expected an integer, got 'x'" in err
    assert "Traceback" not in err


def test_closed_stdout_exits_zero(tmp_path, monkeypatch):
    # a consumer that stops reading (e.g. head) breaks the pipe on the first
    # write; the run ends quietly with exit 0
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["analyze", "--preset", "cartan:A1", "--max-total", "2"])
    finally:
        os.close(fd)
    assert code == 0


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--max-total", "3"])
    assert exc.value.code == 1


@pytest.mark.parametrize("option, value", [
    ("--max-total", "-1"), ("--window", "0"), ("--window", "1"), ("--jobs", "0"),
    ("--jobs", "-3"),
])
def test_analyze_bad_numbers_exit_one(capsys, option, value):
    # the later --max-total wins, so the first case runs with -1
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--preset", "cartan:A1", "--max-total", "3",
              option, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be at least" in err
    assert "Traceback" not in err


def test_cache_entry_out_of_range_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = ("analyze", "--preset", "cartan:A2", "--max-total", "3",
            "--format", "json", "--cache", str(cache))
    code, cold, err = run(capsys, *args)
    assert code == 0
    good = json.loads(cache.read_text())
    doc = json.loads(cache.read_text())
    ranks = next(iter(doc["ranks"].values()))
    assert ranks["1,2"] == [3, 2]
    for bad in ([3, 99], [4, 2]):  # rank above the block size, wrong size
        ranks["1,2"] = bad
        cache.write_text(json.dumps(doc))
        # one bad entry recomputes the whole table, and saves it
        code, warm, err = run(capsys, *args)
        assert code == 0
        a, b = json.loads(cold), json.loads(warm)
        assert b["timings"]["cache_hits"] == 0
        assert b["timings"]["cache_misses"] == len(b["blocks"])
        assert a["blocks"] == b["blocks"]
        assert json.loads(cache.read_text()) == good


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = ("analyze", "--preset", "cartan:A2", "--max-total", "4",
            "--format", "json", "--cache", str(cache))
    code, cold, err = run(capsys, *args)
    assert code == 0
    assert cache.exists()
    code, warm, err = run(capsys, *args)
    assert code == 0
    a = json.loads(cold)
    b = json.loads(warm)
    assert a["timings"]["cache_misses"] == len(a["blocks"])
    assert b["timings"]["cache_hits"] == len(b["blocks"])
    del a["timings"]
    del b["timings"]
    assert a == b


def test_corrupt_cache_recovers(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text("{broken")
    code, out, err = run(capsys, "analyze", "--preset", "cartan:A1",
                         "--max-total", "3", "--format", "json",
                         "--cache", str(cache))
    assert code == 0
    assert "ignoring unreadable cache" in err
    assert json.loads(cache.read_text())["schema_version"] == 1


@pytest.mark.parametrize("version", [None, 1])
def test_cache_of_another_rank_algorithm_is_recomputed(tmp_path, capsys,
                                                       version):
    cache = tmp_path / "cache.json"
    args = ("analyze", "--preset", "cartan:A2", "--max-total", "3",
            "--format", "json", "--cache", str(cache))
    code, cold, err = run(capsys, *args)
    assert code == 0
    doc = json.loads(cache.read_text())
    assert doc["rank_algorithm"] == RANK_ALGORITHM
    # an entry that passes the range check, under an older version
    next(iter(doc["ranks"].values()))["1,2"] = [3, 3]
    if version is None:
        del doc["rank_algorithm"]  # files from before the version key
    else:
        doc["rank_algorithm"] = version
    cache.write_text(json.dumps(doc))
    code, warm, err = run(capsys, *args)
    assert code == 0
    assert "ignoring cache" in err and "rank algorithm 1" in err
    a, b = json.loads(cold), json.loads(warm)
    assert b["timings"]["cache_misses"] == len(b["blocks"])
    assert a["blocks"] == b["blocks"]
    doc = json.loads(cache.read_text())
    assert doc["rank_algorithm"] == RANK_ALGORITHM
    assert next(iter(doc["ranks"].values()))["1,2"] == [3, 2]


def test_cache_of_a_newer_rank_algorithm_is_left_alone(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = ("analyze", "--preset", "cartan:A2", "--max-total", "3",
            "--format", "json", "--cache", str(cache))
    code, cold, err = run(capsys, *args)
    doc = json.loads(cache.read_text())
    next(iter(doc["ranks"].values()))["1,2"] = [3, 3]
    doc["rank_algorithm"] = RANK_ALGORITHM + 1
    newer = json.dumps(doc)
    cache.write_text(newer)
    code, warm, err = run(capsys, *args)
    assert code == 0
    assert "ignoring cache" in err and "not saving cache" in err
    b = json.loads(warm)
    assert b["timings"]["cache_misses"] == len(b["blocks"])
    assert json.loads(cold)["blocks"] == b["blocks"]
    assert cache.read_text() == newer


def test_cache_with_malformed_datum_entry_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = ("analyze", "--preset", "cartan:A1", "--max-total", "2",
            "--format", "json", "--cache", str(cache))
    code, cold, err = run(capsys, *args)
    doc = json.loads(cache.read_text())
    datum_key = next(iter(doc["ranks"]))
    doc["ranks"][datum_key] = [1, 1]  # a list where blocks should be keyed
    cache.write_text(json.dumps(doc))
    code, warm, err = run(capsys, *args)
    assert code == 0 and "Traceback" not in err
    assert json.loads(warm)["timings"]["cache_misses"] == 3
    ranks = json.loads(cache.read_text())["ranks"][datum_key]
    assert ranks == {"0": [1, 1], "1": [1, 1], "2": [1, 1]}


def test_cache_save_merges_entries_of_other_writers(tmp_path):
    path = str(tmp_path / "cache.json")
    first, second = _Cache.open(path), _Cache.open(path)
    first.save("datum-a", [BlockDim((1, 0), 1, 1)])
    second.save("datum-a", [BlockDim((0, 1), 1, 1)])
    second.save("datum-b", [BlockDim((0,), 1, 1)])
    ranks = json.loads((tmp_path / "cache.json").read_text())["ranks"]
    assert ranks == {"datum-a": {"1,0": [1, 1], "0,1": [1, 1]},
                     "datum-b": {"0": [1, 1]}}
    # a writer's own entries win over what the file holds for the same block
    _Cache.open(path).save("datum-a", [BlockDim((1, 0), 1, 0)])
    cache = _Cache.open(path)
    assert cache.table("datum-a", [(0, 1), (1, 0)]) == (
        BlockDim((0, 1), 1, 1), BlockDim((1, 0), 1, 0))
    assert cache.table("datum-b", [(0,)]) == (BlockDim((0,), 1, 1),)
    # a table with a block the file lacks is a miss
    assert cache.table("datum-a", [(0, 1), (1, 1)]) is None
    assert cache.table("datum-c", [(0,)]) is None


@pytest.mark.parametrize("target", ["missing-dir/c.json", "a-dir"])
def test_unsavable_cache_warns_and_still_prints(tmp_path, capsys, target):
    (tmp_path / "a-dir").mkdir()
    cache = tmp_path / target
    args = ("analyze", "--preset", "cartan:A2", "--max-total", "2",
            "--format", "json")
    _, plain, _ = run(capsys, *args)
    code, out, err = run(capsys, *args, "--cache", str(cache))
    assert code == 0
    assert f"warning: not saving cache {cache}: " in err
    a, b = json.loads(plain), json.loads(out)
    del a["timings"], b["timings"]
    assert a == b
    assert not list(tmp_path.rglob(".hopfmin-cache-*"))


def test_det_json(capsys):
    code, out, err = run(capsys, "det", "--preset", "cartan:A1",
                         "--deg", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1
    assert doc["factors_pretty"] == ["Phi_3(t^1)", "Phi_4(t^1)", "Phi_6(t^1)"]
    assert doc["remainder"] == "1"


def test_det_matches_gram_determinant(capsys):
    from hopfmin.datum import preset_doubled
    from hopfmin.det import gram_determinant

    code, out, err = run(capsys, "det", "--preset", "doubled:A2",
                         "--deg", "1,1,1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    datum = preset_doubled("A2")
    report = gram_determinant(datum, (1, 1, 1, 1))
    assert (doc["size"], doc["rank"]) == (report.size, report.rank)
    assert doc["determinant"] == datum.field.render(report.determinant)
    assert doc["remainder"] == datum.field.render(report.remainder)
    assert doc["factors"] == [list(f) for f in report.factors]


def test_det_cyclotomic_string_with_fraction_coordinates(tmp_path, capsys):
    # points t/2 and 1/3 give a cyclotomic block whose determinant has
    # coordinates that are not integers; the string is the one the
    # Fraction-coordinate representation printed
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "rank": 2, "field": "cyclotomic(3)", "alphas": [[1, 0], [0, 1]],
        "gammas": [["t/2", "t"], ["1 + t", "1/3"]],
    }))
    code, out, err = run(capsys, "det", "--datum", str(path),
                         "--deg", "2,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["datum"]["gammas"] == [["1/2*t", "t"], ["t + 1", "1/3"]]
    assert (doc["rank"], doc["size"]) == (6, 6)
    assert doc["determinant"] == "4096/81*t - 7168/81"
    assert doc["remainder"] == doc["determinant"]


def test_det_large_factor_bound_at_once(capsys):
    # a candidate above the numerator's degree is skipped unbuilt, so a
    # bound of a million tries what a bound of 24 does
    docs = []
    for bound in ("24", str(10 ** 6)):
        code, out, err = run(capsys, "det", "--preset", "cartan:A2", "--deg",
                             "1,1", "--factor-bound", bound, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc.pop("timings")["total_ms"] < 5000
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["factors_pretty"] == ["Phi_1(t^1)", "Phi_2(t^1)"]


@pytest.mark.parametrize("datum_args", [
    ("--preset", "cartan:B2"),
    ("--preset", "cartan:A2", "--specialize", "5")], ids=["B2", "A2-zeta5"])
def test_det_ranks_match_analyze(capsys, datum_args):
    code, out, err = run(capsys, "analyze", *datum_args, "--max-total", "4",
                         "--format", "json")
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert len(blocks) == math.comb(6, 2)
    for block in blocks:
        deg = ",".join(map(str, block["deg"]))
        code, out, err = run(capsys, "det", *datum_args, "--deg", deg,
                             "--format", "json")
        assert code == 0
        assert json.loads(out)["rank"] == block["rank"], deg


def test_det_table_and_bad_deg(capsys):
    code, out, err = run(capsys, "det", "--preset", "cartan:A2",
                         "--deg", "1,1")
    assert code == 0
    assert "determinant: (t^2 - 1)/t^2" in out
    code, out, err = run(capsys, "det", "--preset", "cartan:A2",
                         "--deg", "1")
    assert code == 1
    code, out, err = run(capsys, "det", "--preset", "cartan:A2",
                         "--deg", "x,y")
    assert code == 1


def test_sl2_output(capsys):
    code, out, err = run(capsys, "sl2", "--lam", "3", "--depth", "5",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["simple_dim"] == 4
    code, out, err = run(capsys, "sl2", "--lam", "1/2", "--depth", "4")
    assert code == 0
    assert "simple module dimension: infinite" in out
    code, out, err = run(capsys, "sl2", "--lam", "three")
    assert code == 1


@pytest.mark.parametrize("lam, dim", [
    ("100000", 100001), ("1e300", 10 ** 300 + 1), ("0e100000000", 1)],
    ids=["1e5", "1e300", "zero"])
def test_sl2_large_weights_at_once(capsys, lam, dim):
    # the dimension is read from the closed form, not from lam + 2 values,
    # and a zero with a huge exponent is zero
    code, out, err = run(capsys, "sl2", f"--lam={lam}", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["simple_dim"] == dim


@pytest.mark.parametrize("lam", [
    "1e5000", "1e100000000", "-2.5E-100000000", "1e600"])
def test_sl2_weight_too_long_to_write(capsys, lam):
    # 1e600 can be read, but its pairing values at depth 8 cannot be
    # written out; the others are refused before the power of ten is taken
    code, out, err = run(capsys, "sl2", f"--lam={lam}", "--format", "json")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "digits" in err


def test_selftest(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 7
    assert all(l.startswith("PASS") for l in lines)
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--quick"])
    assert exc.value.code == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "analyze", "--preset", "cartan:A1",
         "--max-total", "3", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["totals"] == [1, 1, 1, 1]


# Runs commands through main in a fresh interpreter, then reports whether
# OpenSSL's _hashlib was loaded, before hopfmin and after the commands.
_OPENSSL_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
before = "_hashlib" in sys.modules
from hopfmin.cli import main
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([before, codes, "_hashlib" in sys.modules]))
"""


def test_commands_load_no_openssl(tmp_path):
    # the datum hash is the interpreter's built-in SHA-256, so neither
    # command, nor a cache read and write, pays for loading libcrypto
    cache = str(tmp_path / "ranks.json")
    runs = [["analyze", "--preset", "cartan:A2", "--max-total", "3",
             "--format", "json", "--cache", cache]] * 2 + [
        ["det", "--preset", "cartan:B2", "--deg", "2,1", "--format", "json"]]
    proc = subprocess.run([sys.executable, "-c", _OPENSSL_PROBE,
                           json.dumps(runs)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, codes, after = json.loads(proc.stdout)
    if before:
        pytest.skip("site loaded _hashlib before hopfmin")
    assert codes == [0, 0, 0]
    assert not after


def test_sl2_depth_over_the_limit_exits_one(capsys):
    # a depth past the limit would build a value and a line per depth for
    # minutes; it is refused before any is built
    with pytest.raises(SystemExit) as exc:
        main(["sl2", "--lam", "3", "--depth", "100000000"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert (f"error: argument --depth: must be at most {SL2_DEPTH_LIMIT}, "
            f"got 100000000") in err
    code, out, err = run(capsys, "sl2", "--lam", "3", "--depth",
                         str(SL2_DEPTH_LIMIT), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["pairing_values"]) == SL2_DEPTH_LIMIT + 1


@pytest.mark.parametrize("doc", [
    {"rank": 1, "field": "rational", "alphas": 5, "gammas": [["2"]]},
    {"rank": 1, "field": 7, "alphas": [[1]], "gammas": [["2"]]},
    {"rank": True, "field": "rational", "alphas": [[1]], "gammas": [["2"]]},
])
def test_wrong_json_types_in_datum_file_exit_one(tmp_path, doc):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "analyze", "--datum", str(path),
         "--max-total", "2"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


_DEEP = 100000  # far past CPython's recursion limit


@pytest.mark.parametrize("text", [
    "[" * _DEEP + "]" * _DEEP,
    json.dumps({"rank": 1, "field": "rational", "alphas": [[1]],
                "gammas": [["(" * 600 + "2" + ")" * 600]]}),
    json.dumps({"rank": 1, "field": "rational", "alphas": [[1]],
                "gammas": [["-" * 3000 + "2"]]}),
], ids=["json", "parentheses", "signs"])
def test_deeply_nested_datum_file_exits_one(tmp_path, text):
    path = tmp_path / "datum.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "analyze", "--datum", str(path),
         "--max-total", "2"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("base", ["(" * 600 + "2" + ")" * 600, "-" * 3000 + "2"],
                         ids=["parentheses", "signs"])
def test_deeply_nested_base_exits_one(base):
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "det", "--preset", "cartan:A2",
         f"--base={base}", "--deg", "1,1"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "nested" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deeply_nested_cache_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text("[" * _DEEP + "]" * _DEEP)
    argv = ["analyze", "--preset", "cartan:A2", "--max-total", "4",
            "--format", "json"]
    code, out, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 0
    assert err.startswith(f"warning: ignoring unreadable cache {cache}")
    code, plain, _ = run(capsys, *argv)
    docs = [json.loads(out), json.loads(plain)]
    for doc in docs:
        del doc["timings"]
    assert docs[0] == docs[1]
    assert json.loads(cache.read_text())["schema_version"] == 1


def test_block_limit_applies_to_cached_blocks(tmp_path, capsys):
    # every block comes from the cache on the rerun, so only the front-end
    # guard can refuse the (2, 2) block of six words
    cache = tmp_path / "cache.json"
    args = ("analyze", "--preset", "cartan:A2", "--max-total", "4",
            "--cache", str(cache))
    code, out, err = run(capsys, *args)
    assert code == 0
    code, out, err = run(capsys, *args, "--block-limit", "5")
    assert code == 2
    assert "block (2, 2) has 6 words" in err


def test_block_limit_fails_fast_on_huge_max_total():
    # the guard stops at the first oversized total degree instead of
    # enumerating every multidegree up to a million first
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "analyze", "--preset", "cartan:A2",
         "--max-total", "1000000"], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: block (6, 8) has 3003 words, over the limit of 3000\n")


def test_table_of_too_many_blocks_exits_two_at_once(tmp_path):
    # 100 letters to the default total 6 are comb(106, 6) blocks, refused
    # before one multidegree is listed
    path = tmp_path / "letters.json"
    path.write_text(json.dumps({
        "rank": 1, "field": "rational", "alphas": [[k] for k in range(1, 101)],
        "gammas": [["1"]] * 100}))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "analyze", "--datum", str(path)],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: the table to total 6 has "
                           f"{math.comb(106, 6)} blocks, over the limit of "
                           f"{BLOCK_COUNT_LIMIT}\n")


@pytest.mark.parametrize("alphas", [
    # the q matrix of 1000 letters is a million entries
    [[k] for k in range(1, 1001)],
    # q[1][1] = 2**15000 cannot be written out, an exit 1 once built
    [[15000]] + [[k] for k in range(1, 100)],
], ids=["1000-letters", "entry-too-long"])
def test_block_count_guard_runs_before_any_q_entry(tmp_path, capsys,
                                                  monkeypatch, digit_limit,
                                                  alphas):
    # the guard needs only the letter count, so it refuses the table before
    # one q entry is built
    built = []
    real = datum_module._entry
    monkeypatch.setattr(datum_module, "_entry",
                        lambda *args: built.append(args) or real(*args))
    path = tmp_path / "letters.json"
    path.write_text(json.dumps({"rank": 1, "field": "rational",
                                "alphas": alphas,
                                "gammas": [["2"]] * len(alphas)}))
    code, out, err = run(capsys, "analyze", "--datum", str(path))
    assert (code, out, built) == (2, "", [])
    assert err == (f"error: the table to total 6 has "
                   f"{math.comb(len(alphas) + 6, 6)} blocks, over the limit "
                   f"of {BLOCK_COUNT_LIMIT}\n")


@pytest.mark.parametrize("argv, block", [
    # the symmetrizer would recurse once per letter past the recursion limit
    (("det", "--preset", "cartan:A1", "--deg", "1100"), (1100,)),
    (("det", "--preset", "cartan:A2", "--deg", "1100,1"), (1100, 1)),
    # every one-letter block has one word, so only the letter limit stops
    # this table, at the first total over it
    (("analyze", "--preset", "cartan:A1", "--max-total", "100000"),
     (LETTER_LIMIT + 1,)),
])
def test_blocks_of_too_many_letters_exit_two(argv, block):
    proc = subprocess.run([sys.executable, "-m", "hopfmin", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"error: block {block} has {sum(block)} letters, "
                           f"over the limit of {LETTER_LIMIT}\n")


@pytest.mark.parametrize("argv, option", [
    (("sl2", "--lam", "2", "--depth", "-1"), "--depth"),
    (("analyze", "--preset", "cartan:A1", "--specialize", "0"),
     "--specialize"),
    (("analyze", "--preset", "cartan:A1", "--specialize", "-3"),
     "--specialize"),
    (("det", "--preset", "cartan:A1", "--deg", "2", "--specialize", "0"),
     "--specialize"),
    (("analyze", "--preset", "cartan:A1", "--block-limit", "0"),
     "--block-limit"),
    (("analyze", "--preset", "cartan:A1", "--block-limit", "-1"),
     "--block-limit"),
    (("det", "--preset", "cartan:A1", "--deg", "2", "--block-limit", "0"),
     "--block-limit"),
    (("det", "--preset", "cartan:A1", "--deg", "2", "--factor-bound", "-1"),
     "--factor-bound"),
])
def test_out_of_range_numbers_exit_one(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be at least" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("analyze", "--max-total", "2", "--format", "json"),
    ("analyze", "--max-total", "2", "--format", "csv"),
    ("analyze", "--max-total", "2"),
    ("det", "--deg", "2"),
    ("det", "--deg", "2", "--format", "json"),
])
def test_datum_too_long_to_write_out_exits_one(tmp_path, capsys, argv,
                                               digit_limit):
    # q = 2**15000 has 4516 digits, past the limit of 4300 for writing an
    # integer out; 2**14000 has 4215 and still works
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 1, "field": "rational",
                                "alphas": [[15000]], "gammas": [["2"]]}))
    code, out, err = run(capsys, argv[0], "--datum", str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: q[1][1] = alpha[1](gamma[1]) holds an "
                          "integer of more than")
    path.write_text(json.dumps({"rank": 1, "field": "rational",
                                "alphas": [[14000]], "gammas": [["2"]]}))
    code, out, err = run(capsys, argv[0], "--datum", str(path), *argv[1:])
    assert code == 0 and err == ""


def test_cyclotomic_q_entry_too_long_to_write_out_exits_one(tmp_path, capsys,
                                                          digit_limit):
    # 1 + zeta_5 is a unit of infinite order, so the coordinates of its
    # 100000th power pass the limit of 4300 digits; the power is bounded as
    # it is taken, where Datum.q_matrix builds the entry
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 1, "field": "cyclotomic(5)",
                                "alphas": [[100000]], "gammas": [["1+t"]]}))
    code, out, err = run(capsys, "analyze", "--datum", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: q[1][1] = alpha[1](gamma[1]) holds an "
                          "integer of more than")
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_det_too_long_to_write_out_exits_one(tmp_path, capsys, fmt,
                                              digit_limit):
    # q = 2**14000 writes out, but the determinant of block (3,) holds
    # 2**42000 and more, past the limit of 4300 digits
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 1, "field": "rational",
                                "alphas": [[14000]], "gammas": [["2"]]}))
    code, out, err = run(capsys, "det", "--datum", str(path), "--deg", "3",
                         "--format", fmt)
    assert (code, out) == (1, "")
    assert err == ("error: the determinant of block (3,) holds an integer "
                   "of more than 4300 digits, the interpreter's limit for "
                   "writing one out\n")


def _one_gigabyte():
    # a power that is taken after all fails with MemoryError rather than
    # filling the machine's memory before the timeout
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("field, alphas, gamma, message", [
    ("rational", [[1]], "3^1000000000",
     "error: gamma[1][1]: the power ^1000000000 in '3^1000000000' holds an "
     "integer of more than"),
    ("rational", [[1000000000]], "3",
     "error: q[1][1] = alpha[1](gamma[1]) holds an integer of more than"),
    ("rational_function", [[1]], "t^1000000000",
     "error: gamma[1][1]: the power ^1000000000 in 't^1000000000' has "
     "degree 1000000000 in t"),
    # 1 + zeta_5 is a unit of infinite order: its powers' coordinates grow
    ("cyclotomic(5)", [[1000000000]], "1+t",
     "error: q[1][1] = alpha[1](gamma[1]) holds an integer of more than"),
], ids=["literal", "character", "t-power", "cyclotomic"])
def test_huge_exponent_exits_one_at_once(tmp_path, field, alphas, gamma,
                                         message):
    # each power would take hours to compute; its exponent refuses it
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 1, "field": field, "alphas": alphas,
                                "gammas": [[gamma]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "analyze", "--datum", str(path)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
        preexec_fn=_one_gigabyte)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr


def test_each_q_entry_is_written_out_once(tmp_path, capsys, monkeypatch):
    # Datum.q_matrix keeps the text its check makes, and the document reads
    # it; q[i][j] = 3 ** (i + 1) is never a point, which is 3. validate
    # keeps each point's text too, for the hash and the document's datum
    m = 20
    rendered = []
    real = RationalField.render
    monkeypatch.setattr(RationalField, "render",
                        lambda self, s: rendered.append(s) or real(self, s))
    path = tmp_path / "letters.json"
    path.write_text(json.dumps({"rank": 1, "field": "rational",
                                "alphas": [[k] for k in range(2, m + 2)],
                                "gammas": [["3"]] * m}))
    code, out, err = run(capsys, "analyze", "--datum", str(path),
                         "--max-total", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["q_matrix"] == [[str(3 ** k)] * m
                                           for k in range(2, m + 2)]
    assert Counter(s for s in rendered if s != 3) == {
        Fraction(3) ** k: m for k in range(2, m + 2)}
    assert len(rendered) == m * m + m
    third = Fraction(1, 3)
    assert QQ.coerce(third) is third


def test_huge_power_of_a_root_of_unity_is_taken(tmp_path, capsys):
    # zeta_5 ** 1000000001 = zeta_5, by repeated squaring of small values
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 1, "field": "cyclotomic(5)",
                                "alphas": [[1000000001]], "gammas": [["t"]]}))
    code, out, err = run(capsys, "analyze", "--datum", str(path),
                         "--max-total", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["q_matrix"] == [["t"]]


def test_a_huge_power_of_a_root_of_unity_is_taken_mod_2n(monkeypatch):
    # every root of unity in QQ(zeta_N) has an order dividing 2N, so each
    # of the 16 q entries takes a few products, not one per bit of 10**4000
    e = 10 ** 4000
    points = ["t", "t^3", "-t", "t^7"]
    datum = datum_module.parse_datum(json.dumps({
        "rank": 1, "field": "cyclotomic(1000)",
        "alphas": [[e + i] for i in range(4)], "gammas": [[g] for g in points]}))
    # zeta_1000 ** e = 1, so q[i][j] = gamma_j ** i, 0-indexed
    field = datum.field
    want = tuple(tuple(field.render(field.parse(g) ** i) for g in points)
                 for i in range(4))
    calls = 0
    real = Cyclotomic.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        assert calls < 1000, "a power ran through its whole exponent"
        return real(self, other)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    assert datum.q_text == want


@pytest.mark.parametrize("argv", [
    ("analyze", "--preset", "cartan:A2", "--specialize", "1000000000",
     "--max-total", "2"),
    ("det", "--preset", "cartan:A2", "--specialize", "1000000000",
     "--deg", "1,1"),
    ("analyze", "--preset", "cartan:A2", "--specialize",
     str(ORDER_LIMIT + 1)),
], ids=["analyze", "det", "one-over"])
def test_specialize_over_the_order_limit_exits_one_at_once(argv):
    # Phi_N is computed from the dense t**N - 1
    proc = subprocess.run([sys.executable, "-m", "hopfmin", *argv],
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_one_gigabyte)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: cyclotomic order {argv[4]} is over the "
                           f"limit of {ORDER_LIMIT}\n")


def test_cyclotomic_datum_over_the_order_limit_exits_one_at_once(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 1, "field": "cyclotomic(1000000000)",
                                "alphas": [[1]], "gammas": [["t"]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfmin", "analyze", "--datum", str(path)],
        capture_output=True, text=True, timeout=30, preexec_fn=_one_gigabyte)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: cyclotomic order 1000000000 is over the "
                           f"limit of {ORDER_LIMIT}\n")


def test_b2_at_a_fifth_root_reads_finite(capsys):
    # the small quantum group of B2 at zeta_5 has dimension 5**4 = 625 and
    # top degree 28; a raised word limit lets the table reach total 31
    code, out, err = run(capsys, "analyze", "--preset", "cartan:B2",
                         "--specialize", "5", "--max-total", "31",
                         "--block-limit", "1000000000000", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "finite"
    assert sum(doc["totals"]) == 625
    assert doc["verdict"]["evidence"]["last_nonzero_degree"] == 28


def test_jobs_does_not_change_the_document(capsys):
    docs = []
    for jobs in ("1", "2", "64"):
        code, out, err = run(capsys, "analyze", "--preset", "cartan:A2",
                             "--specialize", "3", "--max-total", "8",
                             "--format", "json", "--jobs", jobs)
        assert code == 0 and err == ""
        doc = json.loads(out)
        del doc["timings"]
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


def test_cli_loads_no_process_pool():
    # blocks run serially, so a run imports no multiprocessing machinery,
    # whatever --jobs says
    code = """
import sys
from hopfmin import cli
assert cli.main(["analyze", "--preset", "cartan:A2", "--max-total", "4",
                 "--format", "csv", "--jobs", "2"]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_zero_work_runs_load_only_what_they_use():
    # start-up is most of a short run: analyze and det import neither the
    # oracles nor the sl2 mirror, nor csv, nor dataclasses and the inspect
    # machinery it brings
    code = """
import sys
from hopfmin import cli
assert cli.main(["analyze", "--preset", "cartan:A2", "--max-total", "0",
                 "--format", "json"]) == 0
assert cli.main(["det", "--preset", "doubled:G2", "--deg", "0,0,0,0",
                 "--format", "json"]) == 0
print(sorted(m for m in ("dataclasses", "inspect", "csv", "hopfmin.oracles",
                         "hopfmin.sl2") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
