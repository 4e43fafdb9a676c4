"""The two file formats and the command-line front end.

Landmark sets travel as plain text in either of two formats:

  pls      one grid row per value of coordinate 1; column = value of
           coordinate 2; cell = value of coordinate 3 or '.' for none.
           Only works when no two landmarks share coordinates (1,2).
  triples  a '# graph n1 n2 n3 K' header plus one 'i j k' line per
           landmark.  Always works.

The CLI wraps the library: verify, construct, dimension, scan,
fixtures, enumerate.  Exit codes are part of the contract: 0 resolving,
1 not resolving, 2 error, 3 budget exhausted.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from hammingdim import emit_landmarks, fixture, metric_basis, parse_landmarks

W = metric_basis(3)
text, fmt = emit_landmarks(W)
print(f"metric_basis(3) as {fmt}:")
print(text)

again = parse_landmarks(text, fmt, W.graph)
assert again.members == W.members  # round trip is exact

# Non-diagonal graphs work too; cells are padded to the widest value.
text, fmt = emit_landmarks(fixture("hg_5_7_11"))
print(f"hg_5_7_11 emits as {fmt}:")
print("\n".join(text.splitlines()[:4]), "...")

# Sets with two landmarks in the same grid cell fall back to triples.
from hammingdim import LandmarkSet, hamming_graph

clash = LandmarkSet(hamming_graph(3, 3, 3), ((1, 1, 1), (1, 1, 2)))
text, fmt = emit_landmarks(clash)
print(f"\na set with two landmarks in cell (1,1) emits as {fmt}:")
print(text)


def cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hammingdim.cli", *args],
        capture_output=True, text=True, input=stdin,
    )
    return proc.returncode, proc.stdout


code, out = cli("construct", "--n", "3")
print("\n$ hammingdim construct --n 3")
print(out, end="")

with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "basis.pls"
    path.write_text(out)
    code, verdict = cli("verify", "--graph", "3x3x3", "--in", str(path))
    print(f"$ hammingdim verify --graph 3x3x3 --in basis.pls  (exit {code})")
    print(verdict.splitlines()[0], "...")

code, out = cli("verify", "--graph", "3x3x3", "--in", "-", stdin="1 1 1\n")
print(f"\nverifying a single landmark from stdin: exit {code}")

code, out = cli("dimension", "--graph", "3x3x3")
print(f"\n$ hammingdim dimension --graph 3x3x3  (exit {code})")
print(out.splitlines()[0], "...")

code, out = cli("scan", "--graph", "4x4x4", "--in", "-",
                stdin=emit_landmarks(metric_basis(4), "triples")[0])
print(f"\n$ hammingdim scan on metric_basis(4): exit {code}")
for line in out.splitlines():
    if '"class"' in line or '"predict_resolving"' in line:
        print(line)
