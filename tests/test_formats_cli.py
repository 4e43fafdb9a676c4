"""File formats and the command-line surface."""

import hashlib
import io
import itertools
import json
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from hammingdim import (
    GhgParams,
    LandmarkSet,
    ParseError,
    Unsupported,
    fixture,
    hamming_graph,
    metric_basis,
)
import hammingdim.search
from hammingdim.cli import build_parser, main
from hammingdim.construct import FIXTURE_NAMES
from hammingdim.formats import (
    detect_format,
    emit_landmarks,
    emit_pls,
    emit_triples,
    landmark_lines,
    parse_landmarks,
    parse_pls,
    parse_triples,
    pls_representable,
)

G3 = hamming_graph(3, 3, 3)

N3_SQUARE = "1 2 3\n3 1 2\n. . .\n"
# the cyclic Latin square: a full grid whose rows are three integers each
LATIN = LandmarkSet(G3, [(i, j, (i + j) % 3 + 1) for i in (1, 2, 3) for j in (1, 2, 3)])


def test_emit_pls_frozen():
    assert emit_pls(fixture("n3")) == N3_SQUARE


def test_parse_pls_frozen():
    assert parse_pls(N3_SQUARE, G3) == fixture("n3")
    # arbitrary whitespace and blank lines are fine
    assert parse_pls("\n 1  2\t3\n3 1 2\n\n.  . .\n", G3) == fixture("n3")


def test_all_dot_square_is_empty():
    W = parse_pls(". . .\n. . .\n. . .\n", G3)
    assert W.members == ()


def test_round_trips():
    sets = [fixture(n) for n in ("n3", "n6", "hg_5_7_11")]
    sets += [metric_basis(n) for n in range(3, 9)]
    sets += [LandmarkSet(G3, [(1, 1, 1), (1, 1, 2)])]  # pls-inexpressible
    sets += [LATIN]  # its pls text reads as triples
    for W in sets:
        assert parse_triples(emit_triples(W), W.graph) == W
        if pls_representable(W):
            assert parse_pls(emit_pls(W), W.graph) == W
        text, used = emit_landmarks(W)
        assert parse_landmarks(text, used, W.graph) == W
        assert parse_landmarks(text, None, W.graph) == W  # sniffed
        # comments other than a graph header, and blank lines, are skipped
        noted = "# by hand\n\n" + text.replace("\n", "\n\n# note\n", 1)
        assert parse_landmarks(noted, used, W.graph) == W
        assert parse_landmarks(noted, None, W.graph) == W


def test_pls_alignment():
    text = emit_pls(fixture("hg_5_7_11"))
    lines = text.splitlines()
    assert len(lines) == 5
    assert len({len(l) for l in lines}) == 1  # two-char cells, aligned
    assert " 1  2  3 10  .  .  ." in lines[0]


def test_bases_and_fixtures_have_a_pls_form():
    # so construct and fixtures, which emit nothing else, never fall back
    sets = [metric_basis(n) for n in range(3, 41)] + [fixture(n) for n in FIXTURE_NAMES]
    for W in sets:
        assert landmark_lines(W)[1] == "pls"


def test_emit_fallback_to_triples():
    W = LandmarkSet(G3, [(1, 1, 1), (1, 1, 2)])
    text, used = emit_landmarks(W)
    assert used == "triples"
    assert text.startswith("# graph 3 3 3 3\n")
    # an unknown format is refused when writing and when reading
    with pytest.raises(Unsupported, match="unknown format 'xml'"):
        landmark_lines(W, "xml")
    with pytest.raises(Unsupported, match="unknown format 'xml'"):
        parse_landmarks(text, "xml", G3)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_pls(". . .\n. 2\n. . .\n", G3)
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_pls(". . .\n. 9 .\n. . .\n", G3)
    assert (e.value.line, e.value.column) == (2, 2)
    with pytest.raises(ParseError):
        parse_pls(". . .\n. . .\n", G3)  # row count
    with pytest.raises(ParseError) as e:
        parse_triples("1 1 1\n1 1\n", G3)
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_triples("1 1 1\n1 1 1\n", G3)  # duplicate
    with pytest.raises(ParseError):
        parse_triples("# graph 4 4 4 3\n1 1 1\n", G3)  # header mismatch
    # a graph header of the wrong length, in either format
    for text, fmt, line in (("1 1 1\n# graph 3 3 3\n", "triples", 2),
                            ("# graph 3 3 3 3 3\n" + N3_SQUARE, "pls", 1)):
        with pytest.raises(ParseError, match="graph header needs n1 n2 n3 K") as e:
            parse_landmarks(text, fmt, G3)
        assert e.value.line == line
    with pytest.raises(ParseError):
        parse_triples("1 1 9\n", G3)
    # triples reports whichever bad line comes first; a grid checks every
    # header before any row
    for text, fmt, line in (("1 1\n# graph 4 4 4 3\n", "triples", 1),
                            ("# graph 4 4 4 3\n1 1\n", "triples", 1),
                            (". 2\n. . .\n# graph 4 4 4 3\n. . .\n", "pls", 3)):
        with pytest.raises(ParseError) as e:
            parse_landmarks(text, fmt, G3)
        assert e.value.line == line


def test_detect_format():
    assert detect_format(N3_SQUARE) == "pls"
    assert detect_format(emit_triples(fixture("n3"))) == "triples"
    assert detect_format(". 2 .\n") == "pls"


def test_full_three_column_grid_is_ambiguous(tmp_path, capsys):
    # no header, n1 rows of three integers, n2 = 3: a grid and a triples
    # list alike, so auto-detection refuses it and emission avoids it
    g435 = hamming_graph(4, 3, 5)
    full = LandmarkSet(g435, [(i, j, (i + j) % 5 + 1) for i in range(1, 5) for j in (1, 2, 3)])
    for W in (LATIN, full):
        text = emit_pls(W)
        assert detect_format(text) == "triples"
        with pytest.raises(ParseError, match="--format"):
            detect_format(text, W.graph)
        with pytest.raises(ParseError, match="--format"):
            parse_landmarks(text, None, W.graph)
        assert parse_landmarks(text, "pls", W.graph) == W
        assert emit_landmarks(W) == (emit_triples(W), "triples")
    # a header, a row count other than n1 or a non-integer field settles it
    for text in ("# graph 3 3 3 3\n1 2 3\n2 3 1\n3 1 2\n", "1 2 3\n2 3 1\n",
                 "1 2 3\n2 3 1\n#graph 9 9 9 9\n3 1 2\n", "1 2 3\n2 3 1\n3 1 x\n"):
        assert detect_format(text, G3) == "triples"
    assert detect_format("1 2 3\n2 3 1\n3 1 2\n", hamming_graph(3, 4, 3)) == "triples"
    path = write(tmp_path, "latin.pls", emit_pls(LATIN))
    assert main(["verify", "--graph", "3x3x3", "--in", path]) == 2
    assert "--format" in capsys.readouterr().err
    assert main(["verify", "--graph", "3x3x3", "--in", path, "--format", "pls"]) == 0
    capsys.readouterr()


def test_pls_header_checked_as_in_triples(tmp_path, capsys):
    # both parsers refuse a "# graph" header naming another graph, also
    # one whose numbers make no valid graph (K=0, a dimension of 0)
    # "#graph" and "#   graph" are headers as much as "# graph"
    headers = (("4 4 4 3", "4x4x4;K=3"), ("3 3 3 0", "3x3x3;K=0"), ("0 3 3 3", "0x3x3;K=3"))
    for (header, described), (fmt, body), mark in itertools.product(
            headers, (("pls", N3_SQUARE), ("triples", emit_triples(fixture("n3")))),
            ("# graph", "#graph", "#   graph")):
        text = f"{mark} {header}\n" + body.replace("# graph 3 3 3 3\n", "")
        with pytest.raises(ParseError, match=re.escape(f"header describes {described},")) as e:
            parse_landmarks(text, fmt, G3)
        assert e.value.line == 1
        path = write(tmp_path, f"n3.{fmt}", text)
        assert main(["verify", "--graph", "3x3x3", "--in", path]) == 2
        assert f"header describes {described}, expected 3x3x3;K=3" in capsys.readouterr().err
    path = write(tmp_path, "ok.pls", "# graph 3 3 3 3\n" + N3_SQUARE)
    assert main(["verify", "--graph", "3x3x3", "--in", path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("field", ["1_0", "\u0661", "+-1", "0x1", "\uff11"])
def test_numbers_are_ascii_digits(tmp_path, capsys, field):
    # int() alone would read 1_0 as 10 and the Arabic-Indic one as 1
    g10 = hamming_graph(10, 10, 10)
    with pytest.raises(ParseError):
        parse_landmarks(f"1 1 {field}\n", "triples", g10)
    with pytest.raises(ParseError):
        parse_landmarks(f"{field} . .\n. . .\n. . .\n", "pls", G3)
    with pytest.raises(ParseError, match="malformed graph header"):
        parse_landmarks(f"# graph {field} 10 10 3\n1 1 1\n", "triples", g10)
    path = write(tmp_path, "field.txt", f"1 1 {field}\n")
    assert main(["verify", "--graph", "10x10x10", "--in", path]) == 2
    capsys.readouterr()
    # detection reads fields by the same rule: not a full grid of integers
    assert detect_format(f"1 2 {field}\n2 3 1\n3 1 2\n", G3) == "triples"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_verify_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.pls", N3_SQUARE)
    assert main(["verify", "--graph", "3x3x3", "--in", good]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "RESOLVING"

    bad = write(tmp_path, "bad.tri", "# graph 3 3 3 3\n1 1 1\n1 2 2\n2 1 2\n2 2 1\n")
    assert main(["verify", "--graph", "3x3x3", "--in", bad, "--method", "distance"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == ["1,1,2", "1,1,3"]

    assert main(["verify", "--graph", "3x3x3", "--in", str(tmp_path / "none.pls")]) == 2
    ragged = write(tmp_path, "ragged.pls", ". .\n")
    assert main(["verify", "--graph", "3x3x3", "--in", ragged]) == 2
    # a graph outside both diameter-2 regimes, where codes lose their meaning
    capsys.readouterr()
    assert main(["verify", "--graph", "3x3x3;K=2", "--in", good]) == 2
    assert "resolving verdicts need every dimension >= 3" in capsys.readouterr().err


def test_cli_verify_refuses_oversized_graph(tmp_path, capsys):
    path = write(tmp_path, "one.tri", "1 1 1\n")
    assert main(["verify", "--graph", "311x311x311", "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limit" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--graph", "\uff13x\uff13x\uff13", "--in", "-"],
    ["dimension", "--graph", "\u0663x\u0663x\u0663"],
], ids=["verify-full-width", "dimension-arabic-indic"])
def test_cli_graph_digits_are_ascii(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(N3_SQUARE))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot parse graph description" in err


@pytest.mark.parametrize("command, graph, message", [
    ("verify", "3x3x" + "9" * 5000, "cannot parse graph description"),
    ("dimension", "3x3x3;K=" + "1" * 5000, "cannot parse graph description"),
    ("verify", "3x3x" + "9" * 4000, "exceeds the verifiers'"),
    ("dimension", "x".join(["9" * 4000] * 3), "exceeds the verifiers'"),
], ids=["verify-5000", "dimension-5000", "verify-4000", "dimension-4000"])
def test_cli_graph_number_past_the_digit_limit(tmp_path, capsys, command, graph, message):
    # int() and str() refuse numbers of more than 4,300 digits with a
    # ValueError: a 5,000-digit dimension cannot be read, and a graph of
    # 4,000-digit dimensions has a vertex count that cannot be printed
    argv = [command, "--graph", graph]
    if command == "verify":
        argv += ["--in", write(tmp_path, "one.tri", "1 1 1\n")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_cli_distance_verify_refuses_over_the_work_limit(tmp_path, capsys):
    # 641 landmarks on 310x310x310 need 11 row words a vertex, 3.3e8 in
    # all: exit 2 before the oracle allocates anything of the graph's size
    lines = [f"1 {b} {c}\n" for b in (1, 2, 3) for c in range(1, 311)]
    path = write(tmp_path, "wide.tri", "".join(lines[:641]))
    tracemalloc.start()
    try:
        assert main(["verify", "--graph", "310x310x310", "--method", "distance",
                     "--in", path]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "word limit" in err
    assert peak < 2**20


def test_cli_verify_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(N3_SQUARE))
    assert main(["verify", "--graph", "3x3x3", "--in", "-"]) == 0
    capsys.readouterr()


def test_cli_non_utf8_input_is_an_input_error(tmp_path, capsys, monkeypatch):
    data = b"\xff\xfe 1 1\n"
    path = tmp_path / "bad.tri"
    path.write_bytes(data)
    assert main(["verify", "--graph", "3x3x3", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # stdin as it reads in a UTF-8 locale with strict decoding
    strict = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", strict)
    assert main(["verify", "--graph", "3x3x3", "--in", "-"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_construct_byte_stable(capsys):
    assert main(["construct", "--n", "3"]) == 0
    first = capsys.readouterr().out
    assert first == N3_SQUARE
    assert main(["construct", "--n", "3"]) == 0
    assert capsys.readouterr().out == first


def test_cli_construct_formats(tmp_path, capsys):
    out = str(tmp_path / "w.tri")
    assert main(["construct", "--n", "4", "--out", out, "--format", "triples"]) == 0
    with open(out) as fh:
        text = fh.read()
    assert text.startswith("# graph 4 4 4 3\n")
    assert main(["verify", "--graph", "4x4x4", "--in", out]) == 0
    capsys.readouterr()
    assert main(["construct", "--n", "2"]) == 2  # Unsupported surfaces as error
    assert "error" in capsys.readouterr().err


def test_cli_construct_writes_grid_as_it_goes(tmp_path, capsys):
    out = tmp_path / "w.pls"
    tracemalloc.start()
    try:
        assert main(["construct", "--n", "1000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the grid is 1000 rows of 1000 five-byte cells
    assert out.stat().st_size == 5 * 10**6
    assert peak < out.stat().st_size
    assert out.read_text() == emit_pls(metric_basis(1000))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "09fccc00965828a3a5073f74400717a803a75fbee433ddcf69090a87afea6727")


def test_cli_construct_refuses_a_huge_n(capsys):
    # refused before a basis of O(n) lists is built, not killed for memory
    t0 = time.monotonic()
    assert main(["construct", "--n", "99999999999999999999"]) == 2
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "bases up to n = 100001" in captured.err


def test_cli_dimension(capsys):
    assert main(["dimension", "--graph", "3x3x3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "DIMENSION"
    assert doc["dimension"] == 6
    assert doc["candidates_examined"] > 0


def test_cli_dimension_verbose_parallel(capsys):
    # one progress line per first free pick of each searched size, the
    # same at every worker count but for its elapsed time
    runs = []
    for workers in ("1", "2", "4"):
        assert main(["dimension", "--graph", "3x3x3", "--verbose", "--workers", workers]) == 0
        runs.append(capsys.readouterr())
    line = re.compile(r"progress: size (\d), \d+ candidates, \d+ pruned subtrees, \d+\.\d\ds")
    sizes = [line.fullmatch(text).group(1) for text in runs[0].err.splitlines()]
    # size 5 has 23 first free picks; size 6 is found under its fourth
    assert sizes == ["5"] * 23 + ["6"] * 4
    serial, *parallel = ([text.rsplit(",", 1)[0] for text in run.err.splitlines()]
                         for run in runs)
    assert parallel == [serial, serial]
    assert runs[0].out == runs[1].out == runs[2].out


def test_cli_dimension_budget(capsys):
    assert main(["dimension", "--graph", "3x3x3", "--budget", "50"]) == 3
    assert "budget" in capsys.readouterr().err
    # a spent budget trips before any candidate is examined
    assert main(["dimension", "--graph", "3x3x3", "--budget", "0"]) == 3
    assert "(examined 0)" in capsys.readouterr().err
    # a negative budget is bad input, not an exhausted search
    assert main(["dimension", "--graph", "3x3x3", "--budget", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("argv", [
    ["construct", "--n"],
    ["enumerate", "--n"],
    ["dimension", "--graph", "3x3x3", "--budget"],
    ["dimension", "--graph", "3x3x3", "--workers"],
    ["enumerate", "--n", "4", "--count"],
    ["enumerate", "--n", "4", "--seed"],
], ids=["construct-n", "enumerate-n", "budget", "workers", "count", "seed"])
def test_cli_numbers_by_the_ascii_rule(capsys, argv, value):
    # int() would read both as 10; options follow the documents' rule
    with pytest.raises(SystemExit) as e:
        main([*argv, value])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{value!r} is not an integer" in captured.err


def test_cli_parser_built_once(tmp_path, capsys):
    # verify, a usage error, then scan: the one parser, reused after each
    # call and after a parse that exited, answers as fresh parsers do
    path = write(tmp_path, "n3.pls", N3_SQUARE)
    calls = [
        ["verify", "--graph", "3x3x3", "--in", path],
        ["verify", "--graph"],
        ["scan", "--graph", "3x3x3", "--in", path],
    ]

    def run(fresh):
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            results.append((code, capsys.readouterr()))
        return results

    fresh = run(fresh=True)
    assert [code for code, _ in fresh] == [0, 2, 0]
    build_parser.cache_clear()
    assert run(fresh=False) == fresh
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_dimension_workers_below_one(capsys, workers):
    assert main(["dimension", "--graph", "3x3x3", "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least 1" in err


def test_cli_dimension_refuses_oversized_graph_first(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"metric_basis({n}) built above the vertex limit")

    monkeypatch.setattr(hammingdim.search, "metric_basis", refuse)
    assert main(["dimension", "--graph", "400x400x400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the verifiers' 30000000 limit" in err


def test_cli_scan(tmp_path, capsys):
    k4 = write(tmp_path, "k4.tri", "# graph 3 3 3 3\n1 1 1\n1 2 2\n2 1 2\n2 2 1\n")
    assert main(["scan", "--graph", "3x3x3", "--in", k4]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "OTHER"
    assert doc["c4"] == []
    assert len(doc["rainbow_triangles"]) == 4
    assert doc["predict_resolving"] is None

    assert main(["construct", "--n", "4", "--out", str(tmp_path / "m.pls")]) == 0
    capsys.readouterr()
    assert main(["scan", "--graph", "4x4x4", "--in", str(tmp_path / "m.pls")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "TWO_BASIC"
    assert doc["predict_resolving"] is True


@pytest.mark.parametrize("drop, command, code, digest", [
    (0, "verify", 0, "c63582a36169bca01e8bafb56ff87790df3d16cd0105c8e936f190830d210dce"),
    (0, "scan", 0, "f35abc16eb3580316ded57173f8c11bb81e41d45af46c3faf0eca9c8b00d391c"),
    (1, "verify", 1, "0f56ce255d206e88fc37495b830a984ea46c7fe5e6316c33e31514bda25c0346"),
    (1, "scan", 0, "c469eaa81d9c487d689e26cf320f99eb061573a8b8805cd5cc3b86b622f998a7"),
])
def test_cli_large_outputs_pinned(tmp_path, capsys, drop, command, code, digest):
    # sha256 of the stdout of metric_basis(65), whole and less its first
    # member, as triples; recorded before the scan read the block table
    # and each vertex was written in one format op
    W = metric_basis(65)
    path = write(tmp_path, "n65.tri", emit_triples(LandmarkSet(W.graph, W.members[drop:])))
    assert main([command, "--graph", "65x65x65", "--in", path]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_fixtures_and_verify_pipeline(tmp_path, capsys):
    out = str(tmp_path / "big.pls")
    assert main(["fixtures", "--name", "hg_5_7_11", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", "5x7x11", "--in", out]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["fixtures", "--name", "n5"])
    assert e.value.code == 2
    capsys.readouterr()


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--n", "3", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("# system") == 2
    assert main(["enumerate", "--n", "4", "--count", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["enumerate", "--n", "4", "--count", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    # a negative count is bad input; a count of 0 emits nothing
    for n, count in (("4", "-1"), ("3", "-2")):
        assert main(["enumerate", "--n", n, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: --count must be a non-negative integer, got {count}\n")
    assert main(["enumerate", "--n", "3", "--count", "0"]) == 0
    assert capsys.readouterr().out == ""
    # random.seed reads -5 as 5, so a negative seed is bad input too
    assert main(["enumerate", "--n", "4", "--count", "1", "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be a non-negative integer" in captured.err


def test_cli_enumerate_streams_same_bytes(tmp_path, capsys):
    assert main(["enumerate", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fcf13e84f630fa1c66733d8ffb6cb7197aceeaddb67c8efc036a1161956346ba")
    path = tmp_path / "systems.txt"
    assert main(["enumerate", "--n", "3", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == out
    # a refused request leaves no file behind
    refused = tmp_path / "n6.txt"
    assert main(["enumerate", "--n", "6", "--out", str(refused)]) == 2
    assert not refused.exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv, digest", [
    (["--n", "4", "--count", "300", "--seed", "7"],
     "1d595afa1d18db7c968f8b6fff37f7c8df70fdaab10a14f453af6d8063959235"),
    (["--n", "5", "--count", "300", "--seed", "11"],
     "87b88756cb68d76bea998366be6d238ec19f5c88588dd32faa9ff741517dd3b4"),
], ids=["n4-seed7", "n5-seed11"])
def test_cli_enumerate_samples_pinned(capsys, argv, digest):
    # the seed fixes the RNG calls and their order fixes every member
    assert main(["enumerate", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("graph", ["3x3", "3x3x3x3"])
@pytest.mark.parametrize("fmt", [["--format", "pls"], [], ["--format", "triples"]])
@pytest.mark.parametrize("command", ["verify", "scan"])
def test_cli_pls_needs_three_coordinates(tmp_path, capsys, graph, fmt, command):
    path = write(tmp_path, "grid.pls", "1 . .\n. 2 .\n. . 3\n")
    assert main([command, "--graph", graph, "--in", path, *fmt]) == 2
    assert "3 coordinates" in capsys.readouterr().err


def test_cli_module_entry_point():
    run = subprocess.run(
        [sys.executable, "-m", "hammingdim.cli", "construct", "--n", "3"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert run.stdout == N3_SQUARE


@pytest.mark.parametrize("argv", [["construct", "--n", "3000"], ["enumerate", "--n", "5"]],
                         ids=["construct", "enumerate"])
def test_cli_closed_pipe_is_not_an_input_error(argv):
    # the reader takes 100 bytes of a long output and closes the pipe, as
    # ``| head -c 100`` does: nothing on stderr and 128 + SIGPIPE, not the
    # exit 2 of bad input
    with subprocess.Popen([sys.executable, "-m", "hammingdim.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()  # to the end: the command has exited
    assert (proc.returncode, err) == (141, b"")
