"""File formats and the command-line surface."""

import io
import json
import subprocess
import sys

import pytest

from hammingdim import (
    GhgParams,
    LandmarkSet,
    ParseError,
    fixture,
    hamming_graph,
    metric_basis,
)
from hammingdim.cli import main
from hammingdim.formats import (
    detect_format,
    emit_landmarks,
    emit_pls,
    emit_triples,
    parse_landmarks,
    parse_pls,
    parse_triples,
    pls_representable,
)

G3 = hamming_graph(3, 3, 3)

N3_SQUARE = "1 2 3\n3 1 2\n. . .\n"


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
    for W in sets:
        assert parse_triples(emit_triples(W), W.graph) == W
        if pls_representable(W):
            assert parse_pls(emit_pls(W), W.graph) == W
        text, used = emit_landmarks(W)
        assert parse_landmarks(text, used, W.graph) == W
        assert parse_landmarks(text, None, W.graph) == W  # sniffed


def test_pls_alignment():
    text = emit_pls(fixture("hg_5_7_11"))
    lines = text.splitlines()
    assert len(lines) == 5
    assert len({len(l) for l in lines}) == 1  # two-char cells, aligned
    assert " 1  2  3 10  .  .  ." in lines[0]


def test_emit_fallback_to_triples():
    W = LandmarkSet(G3, [(1, 1, 1), (1, 1, 2)])
    text, used = emit_landmarks(W)
    assert used == "triples"
    assert text.startswith("# graph 3 3 3 3\n")


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
    with pytest.raises(ParseError):
        parse_triples("1 1 9\n", G3)


def test_detect_format():
    assert detect_format(N3_SQUARE) == "pls"
    assert detect_format(emit_triples(fixture("n3"))) == "triples"
    assert detect_format(". 2 .\n") == "pls"


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


def test_cli_verify_refuses_oversized_graph(tmp_path, capsys):
    path = write(tmp_path, "one.tri", "1 1 1\n")
    assert main(["verify", "--graph", "311x311x311", "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limit" in err


def test_cli_verify_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(N3_SQUARE))
    assert main(["verify", "--graph", "3x3x3", "--in", "-"]) == 0
    capsys.readouterr()


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


def test_cli_dimension(capsys):
    assert main(["dimension", "--graph", "3x3x3", "--exhaustive"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "DIMENSION"
    assert doc["dimension"] == 6
    assert doc["candidates_examined"] > 0


def test_cli_dimension_verbose_parallel(capsys):
    # one progress line per first free pick, serially and in parallel
    runs = []
    for extra in ([], ["--workers", "2"]):
        assert main(["dimension", "--graph", "3x3x3", "--verbose", *extra]) == 0
        runs.append(capsys.readouterr())
    # the counts of each line, without its elapsed time
    serial, parallel = ([line.rsplit(",", 1)[0] for line in run.err.splitlines()]
                        for run in runs)
    assert serial and all(line.startswith("progress:") for line in serial)
    assert serial == parallel
    assert runs[0].out == runs[1].out


def test_cli_dimension_budget(capsys, monkeypatch):
    assert main(["dimension", "--graph", "3x3x3", "--budget", "50"]) == 3
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("HAMMINGDIM_BUDGET", "50")
    assert main(["dimension", "--graph", "3x3x3"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("HAMMINGDIM_BUDGET", "abc")
    assert main(["dimension", "--graph", "3x3x3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "HAMMINGDIM_BUDGET" in err
    # a negative budget is bad input, not an exhausted search
    monkeypatch.setenv("HAMMINGDIM_BUDGET", "-1")
    assert main(["dimension", "--graph", "3x3x3"]) == 2
    assert "non-negative" in capsys.readouterr().err
    monkeypatch.delenv("HAMMINGDIM_BUDGET")
    assert main(["dimension", "--graph", "3x3x3", "--budget", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


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


def test_cli_module_entry_point():
    run = subprocess.run(
        [sys.executable, "-m", "hammingdim.cli", "construct", "--n", "3"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert run.stdout == N3_SQUARE
