"""The benchmark's workloads, each run in a process of its own.

``run.py`` starts this file once per benchmark run, and a few more times
with ``--setup-only`` to sample set-up time.  A workload drives
hammingdim only through ``hammingdim.cli.main``, called in-process, and
the names exported from ``hammingdim``.  Every workload is a closed loop
with one caller: a request starts when the previous one has returned.
Every result is compared with ``pins.json``, recorded at a commit whose
results are known to be right; a request that raises or disagrees with
its pin is a failed op.

The inputs depend on ``seed % VARIANTS`` only, so that each input
variant has pinned results.

The last line this process prints is one JSON object that ``run.py``
turns into the benchmark's result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import hammingdim as hd  # noqa: E402
from hammingdim.cli import main as cli_main  # noqa: E402

PINS_PATH = os.path.join(HERE, "pins.json")
VARIANTS = 32
N3_TWO_BASIC_SYSTEMS = 144
SWEEP_NS = (3, 4, 5)
KINDS = ("two_basic", "triple_looped")
SLICES = tuple(f"n{n}.{kind}" for n in SWEEP_NS for kind in KINDS)
LANDMARK_STEPS = ("classify", "build_landmark_graph", "forbidden_scan", "predict_resolving")
# Criterion 2's two unpruned searches at n = 3, size 5: bound by the leaf check.
UNPRUNED = (
    ("n3s5-noprune-norm", hd.SearchOptions(prune=False)),
    ("n3s5-noprune-full", hd.SearchOptions(prune=False, normalize=False)),
)
UNIT_SCALE = {"_s": 1.0, "_ms": 1e3, "_us": 1e6}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark profile."""

    name: str
    verify_ns: tuple[int, ...]
    distance_n: int
    sweep_samples: int
    search_n: int
    dimension_sizes: tuple[int, ...]  # the sizes metric_dimension searches
    parallel_size: int  # searched once more with two workers, in the traced run

    def search_label(self, s: int) -> str:
        return f"n{self.search_n}s{s}"


FULL = Sizes("full", (65, 100, 150), 65, 256, 4, (7, 8), 7)
SMOKE = Sizes("smoke", (7, 9, 11), 7, 8, 3, (5, 6), 5)
PROFILES = {s.name: s for s in (FULL, SMOKE)}


def per_layer_names(sz: Sizes) -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    ns = [f"n{n}" for n in sz.verify_ns]
    searches = [sz.search_label(s) for s in sz.dimension_sizes] + [l for l, _ in UNPRUNED]
    w2 = sz.search_label(sz.parallel_size) + "-w2"
    dn = f"n{sz.distance_n}"
    names: dict[str, str] = {}
    groups = [
        ("ms", [f"construct.metric_basis_ms.{x}" for x in ns]),
        ("ms", [f"formats.{f}_ms.{x}" for f in ("parse", "emit") for x in ns]),
        ("ms", [f"cli.overhead_ms.{c}.{x}" for c in ("verify", "scan") for x in ns]
         + [f"cli.overhead_ms.verify-distance.{dn}"]),
        ("ms", [f"resolving.is_resolving_ms.{x}.{k}" for x in ns for k in ("basis", "drop")]),
        ("MB", [f"resolving.is_resolving_alloc_peak_mb.{x}" for x in ns]),
        ("ms", [f"resolving.is_resolving_by_distance_ms.{dn}"]),
        ("MB", [f"resolving.is_resolving_by_distance_alloc_peak_mb.{dn}"]),
        ("us", [f"resolving.{f}_us.{sl}" for f in ("is_resolving", "is_resolving_by_distance")
                for sl in SLICES]),
        ("us", [f"landmark.{f}_us.{sl}" for f in LANDMARK_STEPS for sl in SLICES]),
        ("ms", [f"landmark.{f}_ms.{x}" for f in LANDMARK_STEPS for x in ns]),
        ("us", [f"search.enumerate_two_basic_us.n{n}" for n in SWEEP_NS]
         + [f"landmark.extend_triple_looped_us.n{n}" for n in SWEEP_NS]),
        ("s", [f"search.exists_s.{l}" for l in searches + [w2]]),
        ("count", [f"search.candidates.{l}" for l in searches + [w2]]),
        ("us", [f"search.us_per_candidate.{l}" for l in searches]),
        ("ratio", ["search.parallel_speedup", "sweep.resolving_share", "trace.overhead_frac"]),
    ]
    for unit, group in groups:
        for name in group:
            names[name] = unit
    return names


class Pins:
    """Pinned results by key.  In record mode a missing key takes the value seen."""

    def __init__(self, values: dict, record: bool = False):
        self.values = values
        self.record = record

    def pinned(self, key: str, got):
        if self.record:
            self.values.setdefault(key, got)
        return self.values.get(key)


class Tracer:
    """Spans kept in memory: id, parent id, request id, name, input, start, end.

    A span is stored as a tuple of plain values once it ends, so that the
    garbage collector stops tracking it and a long run does not slow down.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = 0
        self._next_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, stem: str, inp: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            self.spans.append((sid, parent, self.request, stem, inp, t0, t1))

    def mean_seconds(self, stem: str, inp: str) -> float:
        durations = [s[6] - s[5] for s in self.spans if s[3] == stem and s[4] == inp]
        return sum(durations) / len(durations) if durations else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Mean duration per (name, input), in the unit the name ends with."""
        groups: dict[str, list[float]] = {}
        for s in self.spans:
            groups.setdefault(f"{s[3]}.{s[4]}", []).append(s[6] - s[5])
        out = {}
        for name, durations in groups.items():
            stem = name.split(".")[1]
            scale = next(f for suffix, f in UNIT_SCALE.items() if stem.endswith(suffix))
            out[name] = scale * sum(durations) / len(durations)
        return out


class NoTrace:
    _null = contextlib.nullcontext()
    request = 0

    def span(self, stem: str, inp: str):
        return self._null


class HostSpeed:
    """Fixed reference kernels, timed all through a run by a thread of their own.

    A shared host's speed drifts by half or more over minutes.  Every
    ``EVERY_S`` the thread takes the interpreter lock and times each
    kernel once, in CPU time, so the samples fall inside long requests as
    well as between them, on the CPU the workload runs on (``main`` pins
    an untraced run to one).  The kernels are the benchmark's own code, so
    only the host moves their time: a time divided by the slowdown over
    the same interval is in seconds of the reference host, the one
    ``KERNEL_REFERENCE_S`` was measured on.  The slowdown uses mean kernel
    times, because a pass time, too, is a sum that takes in every stretch
    of slow host.
    """

    EVERY_S = 0.2

    def __init__(self):
        self.samples: dict[str, list[tuple[float, float]]] = {name: [] for name in KERNELS}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._round()  # so that a run shorter than EVERY_S has a sample too

    def _loop(self):
        while not self._stop.wait(self.EVERY_S):
            self._round()

    def _round(self):
        for name, kernel in KERNELS.items():
            time.sleep(0)  # lets the workload take the lock back between kernels
            # CPU time of this thread: while numpy has released the lock the
            # workload runs on the same CPU, and its share must not count.
            t0, c0 = time.perf_counter(), time.thread_time()
            kernel()
            self.samples[name].append((t0, time.thread_time() - c0))

    def mean_seconds(self, start: float = -np.inf, end: float = np.inf) -> dict[str, float]:
        """Each kernel's mean time over the samples taken from ``start`` to
        ``end``, or over all of them when none was."""
        out = {}
        for name, samples in self.samples.items():
            inside = [dt for t, dt in samples if start <= t < end]
            out[name] = float(np.mean(inside or [dt for _, dt in samples]))
        return out

    def slowdown(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Geometric mean over the kernels of mean time / reference time."""
        means = self.mean_seconds(start, end)
        return float(np.exp(np.mean([np.log(means[name] / ref)
                                     for name, ref in KERNEL_REFERENCE_S.items()])))


_TABLE = {(i * 7919) % 65521: i for i in range(1 << 15)}
_PROBES = [(i * 104729) % 65521 for i in range(4000)]
_SMALL = np.arange(64, dtype=np.int64).reshape(8, 8)


def _kernel_dict() -> int:
    """Dict probes, small sets and ints."""
    total = 0
    for k in _PROBES:
        v = _TABLE.get(k)
        if v is not None:
            total += len({v & 7, k & 7, (v ^ k) & 7})
    return total


def _kernel_backtrack(n: int = 7) -> int:
    """Backtracking over frozensets, as the searches do: the 7-queens count."""
    count = 0

    def place(row, cols, up, down):
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if c not in cols and row - c not in up and row + c not in down:
                place(row + 1, cols | {c}, up | {row - c}, down | {row + c})

    place(0, frozenset(), frozenset(), frozenset())
    return count


def _kernel_alloc() -> int:
    """Short-lived tuples, strings and lists: allocation, sorting, JSON text."""
    rows = [((i * 7919) % 1009, str(i), (i, i + 1)) for i in range(1500)]
    rows.sort()
    return len(json.dumps(rows[:300])) + sum(len(set(r[2])) for r in rows)


def _kernel_numpy_small() -> int:
    """Many calls on tiny arrays: per-call overhead, as the sweep's deciders."""
    total = 0
    for i in range(300):
        total += int((_SMALL[i % 8] * 3 + _SMALL[:, i % 8]).max())
    return total


KERNELS = {"dict": _kernel_dict, "backtrack": _kernel_backtrack, "alloc": _kernel_alloc,
           "numpy_small": _kernel_numpy_small}
# Each kernel's time in a run on the reference host, rounded: a KVM guest
# with 2 vCPUs (Intel Xeon), Python 3.11.7, numpy 2.4.6.
KERNEL_REFERENCE_S = {"dict": 2.6e-3, "backtrack": 1.5e-3, "alloc": 2.4e-3,
                      "numpy_small": 1.9e-3}


class Run:
    """Requests, timings and checks of one workload run."""

    def __init__(self, sizes: Sizes, variant: int, pins: Pins):
        self.sizes = sizes
        self.variant = variant
        self.pins = pins
        self.tracer: Tracer | NoTrace = NoTrace()
        self.attempted = 0
        self.failed = 0
        self.op_seconds: list[float] = []
        self.certs: dict[str, hd.Certificate] = {}  # last certificate per search label

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        print(f"FAILED: {why}", file=sys.stderr)

    def expect(self, key: str, got) -> list[str]:
        want = self.pins.pinned(key, got)
        return [] if got == want else [f"{key}: got {got!r}, pinned {want!r}"]

    def request(self, call, check):
        """Time one request, then check its result outside the timed region.

        Returns the result, or None when the request raised.
        """
        self.attempted += 1
        self.tracer.request = self.attempted
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a request that raises is a failed op
            self.op_seconds.append(time.perf_counter() - t0)
            self.fail(1, f"request raised {exc!r}")
            return None
        self.op_seconds.append(time.perf_counter() - t0)
        problems = check(out)
        if problems:
            self.fail(1, "; ".join(problems))
        return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """``hammingdim.cli.main`` in-process, with the landmark file text on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def alloc_peak_mb(fn, *args) -> float:
    """Peak bytes traced by tracemalloc during one call, numpy buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# --- verify-large ---------------------------------------------------------

@dataclass(frozen=True)
class LandmarkFile:
    n: int
    kind: str  # "basis", or "drop" for the basis less one seed-chosen landmark
    key: str
    graph: str
    text: str


def verify_large_inputs(run: Run) -> list[LandmarkFile]:
    rng = random.Random(run.variant)
    files = []
    for n in run.sizes.verify_ns:
        W = hd.metric_basis(n)
        drop = rng.randrange(len(W))
        Wd = hd.LandmarkSet(W.graph, W.members[:drop] + W.members[drop + 1:])
        for kind, X, key in (("basis", W, f"verify-large/n{n}/basis"),
                             ("drop", Wd, f"verify-large/v{run.variant}/n{n}/drop")):
            files.append(LandmarkFile(n, kind, key, f"{n}x{n}x{n}", hd.emit_landmarks(X)[0]))
    return files


def verify_large_pass(run: Run, files: list[LandmarkFile]) -> dict:
    spent = {"verify_s": 0.0, "scan_s": 0.0}
    for f in files:
        commands = [("verify", []), ("scan", [])]
        if f.n == run.sizes.distance_n and f.kind == "basis":
            commands.append(("verify-distance", ["--method", "distance"]))
        for label, extra in commands:
            verb = label.split("-")[0]
            argv = [verb, "--graph", f.graph, "--in", "-", *extra]

            def call():
                with run.tracer.span("cli.main_ms", f"{label}.n{f.n}.{f.kind}"):
                    return call_cli(argv, f.text)

            def check(out):
                code, text = out
                key = f"{f.key}/{label}"
                problems = (run.expect(f"{key}/exit", code)
                            + run.expect(f"{key}/sha256", sha256(text)))
                if verb == "verify" and f.kind == "drop":
                    problems += run.expect(f"{key}/witness", json.loads(text).get("witness"))
                return problems

            run.request(call, check)
            spent[f"{verb}_s"] += run.op_seconds[-1]
    return spent


def verify_large_probe(run: Run, files: list[LandmarkFile]) -> dict[str, float]:
    """Direct calls into each layer on the same files, for the per-layer split."""
    tr = run.tracer
    out: dict[str, float] = {}
    for f in files:
        x = f"n{f.n}"
        g = hd.GhgParams.parse(f.graph)
        if f.kind == "drop":
            W = hd.parse_landmarks(f.text, None, g)
            with tr.span("resolving.is_resolving_ms", f"{x}.drop"):
                hd.is_resolving(W)
            continue
        with tr.span("construct.metric_basis_ms", x):
            hd.metric_basis(f.n)
        with tr.span("formats.parse_ms", x):
            W = hd.parse_landmarks(f.text, None, g)
        with tr.span("formats.emit_ms", x):
            hd.emit_landmarks(W)
        with tr.span("resolving.is_resolving_ms", f"{x}.basis"):
            cert = hd.is_resolving(W)
        with tr.span("resolving.to_json_ms", f"verify.{x}"):
            cert.to_json()
        out[f"resolving.is_resolving_alloc_peak_mb.{x}"] = alloc_peak_mb(hd.is_resolving, W)
        with tr.span("landmark.classify_ms", x):
            hd.classify(W)
        with tr.span("landmark.build_landmark_graph_ms", x):
            G = hd.build_landmark_graph(W)
        with tr.span("landmark.forbidden_scan_ms", x):
            hd.forbidden_scan(G)
        with tr.span("landmark.predict_resolving_ms", x):
            hd.predict_resolving(W)
        if f.n == run.sizes.distance_n:
            with tr.span("resolving.is_resolving_by_distance_ms", x):
                cert = hd.is_resolving_by_distance(W)
            with tr.span("resolving.to_json_ms", f"verify-distance.{x}"):
                cert.to_json()
            out[f"resolving.is_resolving_by_distance_alloc_peak_mb.{x}"] = alloc_peak_mb(
                hd.is_resolving_by_distance, W)
    # cli.main less the parse, decider and to_json spans on the same input
    ms = tr.layer_metrics()
    for n in run.sizes.verify_ns:
        x = f"n{n}"
        parse = ms[f"formats.parse_ms.{x}"]
        out[f"cli.overhead_ms.verify.{x}"] = (
            ms[f"cli.main_ms.verify.{x}.basis"] - parse
            - ms[f"resolving.is_resolving_ms.{x}.basis"] - ms[f"resolving.to_json_ms.verify.{x}"])
        out[f"cli.overhead_ms.scan.{x}"] = (
            ms[f"cli.main_ms.scan.{x}.basis"] - parse
            - sum(ms[f"landmark.{step}_ms.{x}"] for step in LANDMARK_STEPS))
    x = f"n{run.sizes.distance_n}"
    out[f"cli.overhead_ms.verify-distance.{x}"] = (
        ms[f"cli.main_ms.verify-distance.{x}.basis"] - ms[f"formats.parse_ms.{x}"]
        - ms[f"resolving.is_resolving_by_distance_ms.{x}"]
        - ms[f"resolving.to_json_ms.verify-distance.{x}"])
    return out


# --- oracle-sweep ---------------------------------------------------------

def sweep_slices(run: Run):
    """(n, generator of 2-basic systems, system count) per slice, fresh each call."""
    for n in SWEEP_NS:
        if n == 3:
            yield n, hd.enumerate_two_basic(3), N3_TWO_BASIC_SYSTEMS
        else:
            seed = 1000 * n + run.variant
            yield n, hd.enumerate_two_basic(n, budget=run.sizes.sweep_samples, seed=seed), \
                run.sizes.sweep_samples


def decide(tr, W, sl: str):
    with tr.span("landmark.predict_resolving_us", sl):
        p = hd.predict_resolving(W).verdict
    with tr.span("resolving.is_resolving_us", sl):
        r = hd.is_resolving(W).verdict
    with tr.span("resolving.is_resolving_by_distance_us", sl):
        d = hd.is_resolving_by_distance(W).verdict
    return p, r, d


def agree(out) -> list[str]:
    _W, verdicts = out
    return [] if len(set(verdicts)) == 1 else [f"deciders disagree: {verdicts}"]


def sweep_pass(run: Run, _inputs) -> dict:
    tr = run.tracer
    systems = resolving = 0
    for n, gen, count in sweep_slices(run):
        found: dict[str, list[int]] = {kind: [] for kind in KINDS}
        for i in range(count):
            def next_system():
                with tr.span("search.enumerate_two_basic_us", f"n{n}"):
                    W = next(gen)
                return W, decide(tr, W, f"n{n}.two_basic")

            base = run.request(next_system, agree)
            if base is None:
                run.attempted += 1
                run.fail(1, f"n{n} system {i}: no lift, its 2-basic system failed")
                continue

            def lift():
                with tr.span("landmark.extend_triple_looped_us", f"n{n}"):
                    L = hd.extend_triple_looped(base[0])
                return L, decide(tr, L, f"n{n}.triple_looped")

            lifted = run.request(lift, agree)
            for kind, out in zip(KINDS, (base, lifted)):
                if out is not None and out[1][0] is hd.Verdict.RESOLVING:
                    found[kind].append(i)
        for kind in KINDS:
            key = f"oracle-sweep/v{run.variant}/n{n}/{kind}/resolving"
            want = run.pins.pinned(key, found[kind])
            if found[kind] != want:
                wrong = len(set(found[kind]) ^ set(want or ()))
                run.fail(max(1, wrong), f"{key}: got {found[kind]}, pinned {want}")
            resolving += len(found[kind])
        systems += 2 * count
    return {"systems": systems, "resolving": resolving}


def sweep_probe(run: Run, _inputs) -> dict[str, float]:
    """classify, build_landmark_graph and forbidden_scan called one by one,
    on each system the pass decides, as predict_resolving calls them."""
    tr = run.tracer
    for n, gen, _count in sweep_slices(run):
        for W in gen:
            for L, sl in ((W, f"n{n}.two_basic"),
                          (hd.extend_triple_looped(W), f"n{n}.triple_looped")):
                with tr.span("landmark.classify_us", sl):
                    cls = hd.classify(L)
                base = L if cls.kind is hd.SystemKind.TWO_BASIC else hd.basic_part(L)
                with tr.span("landmark.build_landmark_graph_us", sl):
                    G = hd.build_landmark_graph(base)
                with tr.span("landmark.forbidden_scan_us", sl):
                    hd.forbidden_scan(G)
    return {}


# --- certify-n4 -----------------------------------------------------------

def search(run: Run, g, s: int, label: str, opts: hd.SearchOptions):
    """One exists_resolving_of_size request, checked against its pinned count."""
    def call():
        with run.tracer.span("search.exists_s", label):
            return hd.exists_resolving_of_size(g, s, opts)

    def check(cert):
        return (run.expect(f"search/{label}/verdict", cert.verdict.value)
                + run.expect(f"search/{label}/candidates", cert.candidates_examined))

    cert = run.request(call, check)
    if cert is not None:
        run.certs[label] = cert


def certify_pass(run: Run, _inputs) -> dict:
    n = run.sizes.search_n
    graph = f"{n}x{n}x{n}"

    def dimension():
        with run.tracer.span("cli.main_s", f"dimension.n{n}"):
            return call_cli(["dimension", "--graph", graph], "")

    def check(out):
        code, text = out
        doc = json.loads(text)
        key = f"certify/dimension/n{n}"
        return (run.expect(f"{key}/exit", code) + run.expect(f"{key}/sha256", sha256(text))
                + run.expect(f"{key}/dimension", doc.get("dimension"))
                + run.expect(f"{key}/candidates", doc.get("candidates_examined")))

    run.request(dimension, check)
    g3 = hd.hamming_graph(3, 3, 3)
    for label, opts in UNPRUNED:
        search(run, g3, 5, label, opts)
    return {}


def search_metrics(run: Run) -> dict[str, float]:
    out = {}
    for label, cert in run.certs.items():
        secs = run.tracer.mean_seconds("search.exists_s", label)
        out[f"search.candidates.{label}"] = cert.candidates_examined
        if not label.endswith("-w2"):
            out[f"search.us_per_candidate.{label}"] = 1e6 * secs / cert.candidates_examined
    return out


def certify_probe(run: Run, _inputs) -> dict[str, float]:
    """The searches metric_dimension makes, called one by one, then the
    first of them with two workers, for the parallel split and speed-up."""
    n = run.sizes.search_n
    g = hd.hamming_graph(n, n, n)
    for s in run.sizes.dimension_sizes:
        search(run, g, s, run.sizes.search_label(s), hd.SearchOptions())
    label = run.sizes.search_label(run.sizes.parallel_size)
    search(run, g, run.sizes.parallel_size, label + "-w2", hd.SearchOptions(workers=2))
    out = search_metrics(run)
    out["search.parallel_speedup"] = (run.tracer.mean_seconds("search.exists_s", label)
                                      / run.tracer.mean_seconds("search.exists_s", label + "-w2"))
    return out


def no_inputs(run: Run):
    return None


# name -> (input generation, one pass, per-layer probe)
WORKLOADS = {
    "verify-large": (verify_large_inputs, verify_large_pass, verify_large_probe),
    "oracle-sweep": (no_inputs, sweep_pass, sweep_probe),
    "certify-n4": (no_inputs, certify_pass, certify_probe),
}


def load_pins(sizes: Sizes) -> Pins:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return Pins(json.load(fh)[sizes.name])


def passes_for(run: Run, one_pass, inputs, seconds: float, count: int | None = None) -> list[dict]:
    """Whole passes until ``seconds`` have gone by (at least one), or ``count`` passes.

    Each pass's figures include its wall time and its requests' latencies.
    """
    passes = []
    t_end = time.perf_counter() + seconds
    while True:
        first_op = len(run.op_seconds)
        t0 = time.perf_counter()
        figures = one_pass(run, inputs)
        figures["start"], figures["end"] = t0, time.perf_counter()
        figures["pass_s"] = figures["end"] - t0
        figures["ops"] = run.op_seconds[first_op:]
        passes.append(figures)
        if len(passes) == count or (count is None and time.perf_counter() >= t_end):
            return passes


def run_workload(name: str, variant: int, seconds: float, trace: bool,
                 sizes: Sizes, pins: Pins) -> dict:
    """Run one workload and return its figures (see run.py for their use)."""
    make_inputs, one_pass, probe = WORKLOADS[name]
    run = Run(sizes, variant, pins)
    inputs = make_inputs(run)
    doc: dict = {"ready": time.monotonic()}
    if not trace:
        with HostSpeed() as host:
            passes = passes_for(run, one_pass, inputs, seconds)
        # Other tenants of a shared machine slow the work for seconds at a
        # time.  Every pass repeats the same requests, so the run reports its
        # median pass, each pass scaled by the host's slowdown during it, and
        # each request's median latency over the passes.
        scaled = [p["pass_s"] / host.slowdown(p["start"], p["end"]) for p in passes]
        mid = sorted(passes, key=lambda p: p["pass_s"])[(len(passes) - 1) // 2]
        ops = [float(np.median(latencies)) for latencies in zip(*(p["ops"] for p in passes))]
        slowdown = host.slowdown()
        doc["end_to_end"] = {
            "pass_s": float(np.median(scaled)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        doc["figures"] = workload_figures(name, mid, ops)
        doc["host"] = {"slowdown": slowdown, "samples": len(host.samples["dict"]),
                       "kernel_ms": {k: 1e3 * v for k, v in host.mean_seconds().items()}}
        doc["samples"] = {"passes": len(passes), "ops": len(ops),
                          "pass_seconds": [p["pass_s"] for p in passes]}
    else:
        untraced = passes_for(run, one_pass, inputs, seconds / 2)
        run.tracer = Tracer()
        traced = passes_for(run, one_pass, inputs, 0, count=len(untraced))
        extra = probe(run, inputs)
        layer = run.tracer.layer_metrics()
        layer.update(extra)
        base = np.median([p["pass_s"] for p in untraced])
        layer["trace.overhead_frac"] = float(np.median([p["pass_s"] for p in traced]) / base - 1)
        if name == "oracle-sweep":
            layer["sweep.resolving_share"] = traced[0]["resolving"] / traced[0]["systems"]
        doc["per_layer"] = {k: (float(layer.get(k, 0.0)), unit)
                            for k, unit in per_layer_names(sizes).items()}
        doc["spans"] = run.tracer.spans
        doc["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    doc["attempted"] = run.attempted
    doc["failed"] = run.failed
    return doc


def workload_figures(name: str, mid: dict, ops: list[float]) -> dict[str, float]:
    """The workload's own end-to-end figures, in wall time: its median
    pass, and the median latency of each request."""
    if name == "verify-large":
        return {"verify_s": mid["verify_s"], "scan_s": mid["scan_s"]}
    if name == "oracle-sweep":
        return {
            "sweep_systems_per_s": mid["systems"] / mid["pass_s"],
            "sweep_system_p50_us": 1e6 * float(np.percentile(ops, 50)),
            "sweep_system_p99_us": 1e6 * float(np.percentile(ops, 99)),
        }
    return {"certify_s": mid["pass_s"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs exist and report the time")
    parser.add_argument("--spans-out", help="file for the traced run's spans")
    args = parser.parse_args(argv)
    sizes = PROFILES[args.profile]
    pins = load_pins(sizes)
    variant = args.seed % VARIANTS
    if args.setup_only:
        make_inputs = WORKLOADS[args.workload][0]
        make_inputs(Run(sizes, variant, pins))
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    if not args.trace:
        # One CPU for the workload and the host-speed thread, so that the
        # kernels time the CPU the requests run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    doc = run_workload(args.workload, variant, args.seconds, bool(args.trace), sizes, pins)
    spans = doc.pop("spans", None)
    if spans is not None and args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "input", "start", "end"],
                       "spans": spans}, fh)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
