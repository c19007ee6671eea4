"""The csdc benchmark: one closed-loop caller timing csdc's public functions.

    python3 perfbench/run.py --workload haar-n6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; csdc is imported from ``src/``.  The
benchmark generates its inputs from ``--seed`` (see ``workloads.py``), then
runs passes over them, each compile starting after the previous call ended,
until the next pass would overrun ``--seconds``.  It starts no threads and
pins BLAS to one thread; the only processes it starts are fresh interpreters,
one at a time, that time the csdc import for ``setup_s``.  A reference loop
(``hostspeed.py``) probes the host's speed while calls are timed, and every
time is scaled by it to a reference speed, because a shared host changes
speed by up to 2x within a run; raw seconds are printed beside.
Every output is checked: its expected outcome, its round-trip distance, the
QFT controlled-phase angles, and, for a seeded sample, agreement with an
independent interpreter (``oracle.py``).

With ``--trace 0`` the last line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate over the same
inputs and it holds the per-layer metrics (``spans.py``), the tracing overhead
and the share of traced time the top-level spans cover.  Metrics are listed in
``BENCHMARK.json`` at the checkout root.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
IMPORT_PROBE_ITERATIONS = 10
ORACLE_TOL = 1e-12
ORACLE_FULL_MAX_NB = 6   # larger outputs are checked on probe columns
ORACLE_PROBES = 4
TAIL_BEYOND = 10         # a tail percentile needs this many samples above it


@dataclass
class Result:
    case: object
    outcome: str                  # "ok", "reject" or a description of what else happened
    marks: tuple[float, ...]      # perf_counter at the start, after compile, after verify
    distance: float | None = None
    program: object = None        # library cases: the compiled Program
    text: str | None = None       # SEO text of the output
    problems: list[str] = field(default_factory=list)
    compile_s: float = 0.0        # scaled to the reference speed once the pass is over
    verify_s: float | None = None


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    from csdc import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _run_case(case) -> Result:
    from csdc import compiler, matrices, seo
    if case.via == "cli":
        out_path = case.path + ".seo"
        t0 = perf_counter()
        rc, _ = _quiet_cli(["compile", case.path, "-o", out_path, *case.cli_flags,
                            "--report", "json"])
        t1 = perf_counter()
        if rc != 0:
            return Result(case, "reject" if rc == 3 else f"compile exit {rc}", (t0, t1))
        rc, report = _quiet_cli(["verify", case.path, out_path, "--report", "json"])
        t2 = perf_counter()
        if rc not in (0, 1):
            return Result(case, f"verify exit {rc}", (t0, t1, t2))
        return Result(case, "ok", (t0, t1, t2), json.loads(report.splitlines()[-1])["distance"])
    padded = case.padded  # built before timing: it is the benchmark's work, not csdc's
    t0 = perf_counter()
    try:
        prog = compiler.compile_unitary(case.matrix)
    except ValueError:
        return Result(case, "reject", (t0, perf_counter()))
    t1 = perf_counter()
    distance = matrices.frobenius_distance(padded, seo.program_to_matrix(prog))
    t2 = perf_counter()
    return Result(case, "ok", (t0, t1, t2), distance, program=prog)


def run_case(case) -> Result:
    """The timed work on one input: compile, then the round-trip verdict.
    Any other exception is recorded as the input's outcome, so that it counts
    as a failure and the remaining inputs still run."""
    t0 = perf_counter()
    try:
        return _run_case(case)
    except Exception as exc:  # noqa: BLE001  (benchmark boundary)
        return Result(case, f"raised {type(exc).__name__}: {exc}", (t0, perf_counter()))


class Checker:
    """Checks outputs as they come and accumulates what the metrics need."""

    def __init__(self):
        from csdc import cli, matrices, reference, seo
        import oracle
        self.oracle = oracle
        self.seo = seo
        self.default_tol = matrices.DEFAULT_TOL
        self.round_trip_tol = cli.ROUND_TRIP_TOL
        self.qft_angles = {nb: oracle.cpha_angles(seo.serialize(reference.quantum_fft_program(nb)))
                           for nb in (9, 10)}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.default_tol_rejects: dict[str, float] = {}   # input name -> distance
        self.err_max = 0.0
        # Seconds per input name.  A pool smaller than the run repeats inputs;
        # each input then counts once, with its median.
        self.compile_s: dict[str, list[float]] = defaultdict(list)
        self.verify_s: dict[str, list[float]] = defaultdict(list)
        self.gates: list[int] = []
        self.twoq: list[int] = []
        self.digest = hashlib.sha256()
        self.digest_kinds: Counter = Counter()

    def check(self, r: Result, first_pass: bool) -> None:
        case = r.case
        self.attempted += 1
        if r.outcome == "ok":
            r.text = (self.seo.serialize(r.program) if r.program is not None
                      else Path(case.path + ".seo").read_text(encoding="utf-8"))
        if r.outcome != case.expect:
            r.problems.append(f"outcome {r.outcome!r}, expected {case.expect!r}")
        elif r.outcome == "ok":
            self.err_max = max(self.err_max, r.distance)
            if not r.distance < self.round_trip_tol:
                r.problems.append(f"round-trip distance {r.distance:.3e}")
            elif r.distance >= self.default_tol:
                self.default_tol_rejects.setdefault(case.name, r.distance)
            if case.qft_nb is not None:
                got, want = self.oracle.cpha_angles(r.text), self.qft_angles[case.qft_nb]
                if len(got) != len(want) or max(
                        (abs(a - b) for a, b in zip(got, want)), default=0.0) > 1e-9:
                    r.problems.append("CPHA angles differ from quantum_fft_program")
        if r.problems:
            self.failed += 1
            self.failures.append(f"{case.name}: {'; '.join(r.problems)}")
        if first_pass:
            self.digest.update(f"{case.name}:{r.outcome}\n".encode())
            if r.text is not None:
                self.digest.update(r.text.encode())
        if not case.primary:
            return
        self.compile_s[case.name].append(r.compile_s)
        if r.outcome == "ok":
            self.verify_s[case.name].append(r.verify_s)
            kinds, two = self.oracle.gate_stats(r.text)
            self.gates.append(sum(kinds.values()))
            self.twoq.append(two)
            if first_pass:
                self.digest_kinds.update(kinds)

    def oracle_check(self, results: list[Result], rng) -> tuple[int, float]:
        """Rebuild a seeded sample of outputs with the independent interpreter.

        Returns the sample size and the largest Frobenius difference.  The
        sample is two primary outputs plus every accepted corpus output.
        """
        import numpy as np
        ok = [r for r in results if r.outcome == "ok" and not r.problems]
        primary = [r for r in ok if r.case.primary]
        picks = [primary[i] for i in sorted(rng.choice(len(primary), min(2, len(primary)),
                                                       replace=False))] if primary else []
        picks += [r for r in ok if not r.case.primary]
        worst = 0.0
        for r in picks:
            nb = r.case.padded.shape[0].bit_length() - 1
            prog = r.program if r.program is not None else self.seo.parse(r.text, nb=nb)
            if self.seo.serialize(self.seo.parse(r.text, nb=nb)) != r.text:
                r.problems.append("SEO text does not survive parse/serialize")
            if nb <= ORACLE_FULL_MAX_NB:
                probe = np.eye(1 << nb, dtype=complex)
                want = self.seo.program_to_matrix(prog)
            else:
                probe = rng.standard_normal((1 << nb, ORACLE_PROBES)) \
                    + 1j * rng.standard_normal((1 << nb, ORACLE_PROBES))
                probe /= np.linalg.norm(probe, axis=0)
                want = self.seo.program_to_matrix(prog) @ probe
            diff = float(np.linalg.norm(self.oracle.apply_text(r.text, probe) - want))
            worst = max(worst, diff)
            if not diff <= ORACLE_TOL:
                r.problems.append(f"oracle differs from program_to_matrix by {diff:.3e}")
            if r.problems:
                self.failed += 1
                self.failures.append(f"{r.case.name}: {'; '.join(r.problems)}")
        return len(picks), worst


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it: the
    value and the percentile.  With too few samples no such percentile exists,
    and the maximum is reported as p100."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100
    return v[n - 1 - TAIL_BEYOND], (100 * (n - TAIL_BEYOND)) // n


# Run in a fresh interpreter: import csdc.cli (every csdc module) after numpy
# and scipy.linalg, and print the time scaled by reference-loop runs before and
# after it.  The two libraries are loaded first and left out, because the time
# to load shared libraries swings by 40 % between runs on a shared host and
# does not follow the reference loop.
IMPORT_CODE = f"""
import time, numpy, scipy.linalg, hostspeed
hostspeed.loop_seconds()
before = sum(hostspeed.loop_seconds() for _ in range({IMPORT_PROBE_ITERATIONS}))
t = time.perf_counter(); import csdc.cli; t = time.perf_counter() - t
after = sum(hostspeed.loop_seconds() for _ in range({IMPORT_PROBE_ITERATIONS}))
print(t * {2 * IMPORT_PROBE_ITERATIONS} * hostspeed.REFERENCE_S / (before + after))
"""


def import_seconds(src: Path) -> float:
    """Median over IMPORT_REPEATS fresh interpreters, started one after
    another, of the scaled time to import csdc (see IMPORT_CODE)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), str(HERE), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def generate_inputs(name: str, seed: int, workdir: str, setup_tracer):
    """Generate the inputs SETUP_REPEATS times; the median time, scaled to the
    reference speed, counts as set-up.  The last repetition runs traced when a
    tracer is given."""
    import hostspeed
    import numpy as np
    import workloads
    times, pools = [], []
    probes = hostspeed.Probes()
    for i in range(SETUP_REPEATS):
        traced = setup_tracer is not None and i == SETUP_REPEATS - 1
        with setup_tracer.installed() if traced else contextlib.nullcontext(), \
                probes.running():
            t0 = perf_counter()
            pools.append(workloads.generate(name, seed, workdir))
            t1 = perf_counter()
        work, scale = probes.scaled(t0, t1)
        times.append(work * scale)
    same = all(np.array_equal(a.matrix, b.matrix)
               for p, q in zip(pools[0], pools[-1]) for a, b in zip(p, q))
    return pools[-1], statistics.median(times), same


def measure(pool, seconds: float, checker: Checker, tracer) -> dict:
    """Closed loop over the pool.  With a tracer, passes alternate untraced and
    traced over the same inputs.  Pass times are sums over the timed calls:
    scaled to the reference speed, and raw (probes included, as in the spans)."""
    import hostspeed
    probes = hostspeed.Probes()
    first_results: list[Result] = []
    passes: dict[str, list[float]] = defaultdict(list)
    primary_requests = set()
    traced_inputs = 0
    start = perf_counter()
    last = 0.0
    k = 0
    while k < (2 if tracer else 1) or (perf_counter() - start) + last <= seconds:
        traced = tracer is not None and k % 2 == 1
        cases = pool[(k // 2 if tracer else k) % len(pool)]
        gc.collect()
        results = []
        t_pass = perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext(), probes.running():
            for case in cases:
                if traced:
                    tracer.request += 1
                    if case.primary:
                        primary_requests.add(tracer.request)
                results.append(run_case(case))
        last = perf_counter() - t_pass
        raw = scaled = 0.0
        for r in results:
            work, scale = probes.scaled(r.marks[0], r.marks[-1])
            raw += r.marks[-1] - r.marks[0]
            scaled += work * scale
            work, scale = probes.scaled(r.marks[0], r.marks[1])
            r.compile_s = work * scale
            if len(r.marks) > 2:
                work, scale = probes.scaled(r.marks[1], r.marks[2])
                r.verify_s = work * scale
        kind = "traced_passes" if traced else "passes"
        passes[kind].append(scaled)
        passes["raw_" + kind].append(raw)
        traced_inputs += len(cases) if traced else 0
        for r in results:
            checker.check(r, first_pass=k == 0)
            r.program = r.program if k == 0 else None
        if k == 0:
            first_results = results
        k += 1
    return {**passes, "first": first_results,
            "traced_inputs": traced_inputs, "primary_requests": primary_requests,
            "elapsed": perf_counter() - start}


def per_layer(tracer, setup_tracer, run: dict) -> dict[str, tuple[float, str]]:
    """Per-input layer metrics of the traced passes."""
    n = max(run["traced_inputs"], 1)
    tot = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str]] = {}

    def span(name, *fields):
        agg = tot.get(name, zero)
        for f in fields:
            out[f"{name}.{f}"] = (agg[f] / n, "count" if f == "calls" else "s")

    span("compiler.compile_unitary", "s")
    span("compiler.build_tree", "s", "self_s")
    span("compiler.program_for_tree", "s", "self_s")
    trees = [(nodes, width) for req, nodes, width in tracer.trees
             if req in run["primary_requests"]]
    out["compiler.tree_nodes"] = (statistics.mean(t[0] for t in trees) if trees else 0.0, "count")
    out["compiler.tree_max_width"] = (max((t[1] for t in trees), default=0), "count")
    span("csd.csd", "calls", "s", "self_s")
    span("csd.cossin", "s")
    span("csd.lighten", "calls", "s")
    span("csd.is_complex_d", "calls", "s")
    calls = tot.get("csd.is_complex_d", zero)["calls"]
    out["csd.is_complex_d.hit_ratio"] = (
        tracer.counts["csd.is_complex_d.hits"] / calls if calls else 0.0, "ratio")
    span("csd.extract_phases", "calls", "s")
    span("matrices.unitarity_deviation", "calls", "s")
    span("matrices.frobenius_distance", "s")
    span("matrices.read_matrix_file", "s")
    writes = setup_tracer.totals().get("matrices.write_matrix_file", zero)
    out["matrices.write_matrix_file.s"] = (
        writes["s"] / writes["calls"] if writes["calls"] else 0.0, "s")
    span("central.decompose_central", "calls", "s", "self_s")
    for variant in ("realD", "complexD", "diagonal"):
        out[f"central.variant.{variant}"] = (tracer.counts[f"central.variant.{variant}"] / n,
                                             "count")
    span("bitops.basis_change_matrix", "calls", "s")
    span("bitops.popcount", "s")
    span("bitops.gray_sequence", "calls", "s")
    span("bitops.hadamard_transform", "s")
    span("seo.concat", "calls", "s")
    span("seo.rename_bits", "s")
    span("seo.z_ladder", "s")
    span("seo.expand_controls", "s")
    n_in = tracer.counts["seo.expand_controls.in"]
    out["seo.expand_controls.out_per_in"] = (
        tracer.counts["seo.expand_controls.out"] / n_in if n_in else 0.0, "ratio")
    span("seo.program_to_matrix", "s")
    out["seo.program_to_matrix.gates"] = (tracer.counts["seo.program_to_matrix.gates"] / n,
                                          "count")
    span("seo.serialize", "s")
    span("seo.parse", "s")
    out["seo.parse.lines"] = (tracer.counts["seo.parse.lines"] / n, "count")
    span("cli.main", "s")
    span("cli.run_compile", "self_s")
    span("cli.run_verify", "self_s")
    pairs = [t / u for u, t in zip(run["passes"], run["traced_passes"])]
    out["trace.overhead"] = (statistics.median(pairs) - 1.0, "ratio")
    out["trace.top_level_coverage"] = (tracer.top_level_seconds() / sum(run["raw_traced_passes"]),
                                       "ratio")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "csdc" / "__init__.py").is_file():
        print(f"error: no csdc sources under {src}; run from a csdc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import csdc.cli  # noqa: F401  (imports every csdc module, numpy and scipy.linalg)
    import numpy as np
    import spans
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    import_s = import_seconds(src)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work")
    try:
        tracer = spans.Tracer() if args.trace else None
        setup_tracer = spans.Tracer() if args.trace else None
        pool, gen_s, same_inputs = generate_inputs(args.workload, args.seed, workdir,
                                                   setup_tracer)
        checker = Checker()
        run = measure(pool, args.seconds, checker, tracer)
        rng = np.random.default_rng([args.seed, 0xC5DC])
        n_oracle, oracle_diff = checker.oracle_check(run["first"], rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = checker.failed == 0 and same_inputs
    n_passes = len(run["passes"]) + len(run.get("traced_passes", []))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{n_passes} passes of {len(pool[0])} inputs, "
          f"{checker.attempted} inputs in {run['elapsed']:.1f} s, closed loop, 1 caller")
    for line in checker.failures:
        print(f"FAILED {line}")
    if not same_inputs:
        print("FAILED input generation is not deterministic")
    digest = checker.digest.hexdigest()
    print(f"determinism: first-pass SEO sha256 {digest}, "
          f"kinds {dict(sorted(checker.digest_kinds.items()))}")
    baseline = HERE / "baseline.json"
    if baseline.is_file():
        base = json.loads(baseline.read_text())
        if base.get("seed") == args.seed:
            same = base["workloads"][args.workload]["digest"] == digest
            print(f"determinism: digest {'matches' if same else 'DIFFERS FROM'} "
                  f"perfbench/baseline.json")
    print(f"oracle: {n_oracle} outputs rebuilt, max Frobenius difference "
          f"{oracle_diff:.3e} (limit {ORACLE_TOL:g})")
    print(f"roundtrip_err_max: {checker.err_max:.3e} Frobenius")
    print(f"fail_ratio: {checker.failed / checker.attempted:g} ratio "
          f"({checker.failed} failed of {checker.attempted} attempted)")
    rejects = checker.default_tol_rejects
    print(f"verify_default_tol_rejects: {len(rejects)} count (inputs whose round-trip "
          f"distance is in [{checker.default_tol:g}, {checker.round_trip_tol:g}): csdc "
          f"compile accepts them, csdc verify with its default tolerance rejects them)"
          + "".join(f"; {name} {d:.2e}" for name, d in rejects.items()))

    notes: dict[str, str] = {}
    if args.trace:
        metrics = per_layer(tracer, setup_tracer, run)
    else:
        compile_s = [statistics.median(v) for v in checker.compile_s.values()]
        verify_s = [statistics.median(v) for v in checker.verify_s.values()]
        # Empty sample lists occur only when every input failed; correct is then false.
        c_tail, c_pct = tail(compile_s) if compile_s else (0.0, 0)
        v_tail, v_pct = tail(verify_s) if verify_s else (0.0, 0)
        metrics = {
            "setup_s": (import_s + gen_s, "s"),
            "wall_s": (statistics.median(run["passes"]), "s"),
            "compile_s_p50": (statistics.median_low(compile_s or [0.0]), "s"),
            "compile_s_tail": (c_tail, "s"),
            "verify_s_p50": (statistics.median_low(verify_s or [0.0]), "s"),
            "verify_s_tail": (v_tail, "s"),
            "gates_per_input": (statistics.mean(checker.gates or [0]), "count"),
            "twoq_per_input": (statistics.mean(checker.twoq or [0]), "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {
            "setup_s": f"median of {IMPORT_REPEATS} csdc imports {import_s:.4f} s + median "
                       f"of {SETUP_REPEATS} input generations {gen_s:.4f} s",
            "wall_s": f"median of {len(run['passes'])} passes; raw median "
                      f"{statistics.median(run['raw_passes']):.4f} s",
            "compile_s_p50": f"lower median of n={len(compile_s)} inputs",
            "compile_s_tail": f"p{c_pct} of n={len(compile_s)} inputs",
            "verify_s_p50": f"lower median of n={len(verify_s)} inputs",
            "verify_s_tail": f"p{v_pct} of n={len(verify_s)} inputs",
        }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
