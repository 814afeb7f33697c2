"""zhuforge benchmark: solve closed-form families cold through the CLI path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  Each repetition

* sets up: imports zhuforge afresh, generates the workload's members
  (documents built through parse_presentation and validate, Virasoro null
  vectors found by the engine) and writes them under .bench_build/;
* solves every member cold with ``zhuforge quotient`` run in-process
  (``cli.main``), from loading and validation to the emitted JSON document;
* checks every answer: closure complete, quotient stabilized, the
  closed-form dimension (and for Virasoro the closed-form relation),
  ``check_matrix_model`` on the emitted matrices, and a sha256 of the
  document that must repeat whenever the same input is solved again.

A run repeats a cycle with one repetition per order of the generators;
the seed draws how orders, rescaled generators, scales and members are
arranged (see Draw).  None of these changes the answer.  Runs measure whole
cycles until --seconds have passed.

--trace 0 prints the end-to-end metrics: solve_s and setup_s (medians over
repetitions, in reference seconds; see REFERENCE_S) and peak_rss_mb.
--trace 1 solves each repetition untraced and then traced, with spans
recorded around the public entry points of every layer (see tracer.py),
and prints the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# name -> (generator symbols, [(family, size, quotient bound, membership
# bound or None for the CLI default), ...]).  The basis must stop growing two
# stages before the quotient bound (for M(p,q) it stops at (p-1)(q-1), as x
# has formal length 2), and Virasoro and the lattice use the smallest bound
# that certifies the answer.  sl2 sweeps both levels to 6 (their bases stop
# at stages 2 and 4), and its membership bound of 6 emits the same
# relations as the default 8 at a tenth of the free-ideal work, which the
# lattice workload already measures: the quotient sweep dominates, as it
# does at the CLI defaults.
WORKLOADS = {
    # Engine-heavy: large null vectors through zhu_image, tiny quotients.
    "virasoro_minimal": (("L",), [
        ("virasoro", (2, 13), 14, None), ("virasoro", (3, 7), 14, None),
        ("virasoro", (4, 5), 14, None), ("virasoro", (2, 15), 16, None),
        ("virasoro", (3, 8), 16, None), ("virasoro", (2, 17), 18, None),
        ("virasoro", (4, 7), 20, None)]),
    # Quotient-heavy: straightening and row reduction of the ideal sweep.
    "affine_sl2": (("e", "h", "f"), [("sl2", 1, 6, 6), ("sl2", 2, 6, 6)]),
    # Degenerate: Jacobi defects, closure worklist, free-ideal rows.
    "lattice_rank1": (("a", "ea", "em"), [("lattice", 2, 6, None)]),
}


# Nonzero rationals the seed rescales one generator of a member by.
SCALES = tuple(Fraction(s) for s in ("2", "-1", "1/2", "3", "-2/3", "-5/4"))


# Wall seconds of one reference_work() on an idle core of the machine the
# benchmark was defined on (Python 3.11).  The machine's speed drifts by up
# to 2x within seconds as neighbours load its shared cores, and that drift
# moves every pure-Python loop alike, so each measured time is rescaled by
# REFERENCE_S / (reference_work's wall time measured next to it): timings
# are reported in reference seconds.  reference_work never calls zhuforge,
# so a change to the package cannot move the yardstick.
REFERENCE_S = 0.015


def reference_work():
    """Fixed sparse elimination over Fractions on tuple-keyed dict rows."""
    rows = {}
    for n in range(60):
        vec = {}
        for k in range(6):
            key = ((n * 7 + k * 3) % 23, (k * 5 + n) % 4)
            vec[key] = vec.get(key, 0) + Fraction((n * 31 + k) % 17 + 1, k + 2)
        while vec:
            p = max(vec)
            row = rows.get(p)
            if row is None:
                lead = vec[p]
                rows[p] = {c: x / lead for c, x in vec.items()}
                break
            c = vec[p]
            for coord, rx in row.items():
                nx = vec.get(coord, 0) - c * rx
                if nx:
                    vec[coord] = nx
                else:
                    vec.pop(coord, None)
    return rows


def reference_seconds():
    """Best of two timed reference_work() calls."""
    def timed():
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    return min(timed(), timed())


class MemberFailure(Exception):
    """A member's answer failed one of the checks."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fresh_import():
    """Import zhuforge and the family generators as a new process would."""
    for name in list(sys.modules):
        if name == "zhuforge" or name.startswith("zhuforge.") \
                or name == "families":
            del sys.modules[name]
    cli = importlib.import_module("zhuforge.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("zhuforge imported from %s, not %s"
                           % (cli.__file__, SRC))
    return cli, importlib.import_module("families")


class Draw:
    """Everything the seed decides for one run: a cycle of repetitions.

    The cycle holds one repetition per order of the generators, in a drawn
    sequence, so every seed meets every order.  For each member, the cycle
    also meets every generator as the rescaled one equally often and every
    rational in SCALES once (Virasoro, whose cycle is one repetition,
    draws one).  The seed decides only how these are paired, so the cost
    of a cycle hardly depends on it.
    """

    def __init__(self, workload, seed):
        symbols, members = WORKLOADS[workload]
        rng = random.Random("%s:%d" % (workload, seed))
        members = list(members)
        rng.shuffle(members)
        orders = list(itertools.permutations(symbols))
        rng.shuffle(orders)
        picks = []
        for spec in members:
            gens = rng.sample(symbols, len(symbols))
            scales = rng.sample(SCALES, len(SCALES))
            picks.append([(spec, gens[i % len(gens)], scales[i % len(scales)])
                          for i in range(len(orders))])
        self.cycle = [(order, [p[i] for p in picks])
                      for i, order in enumerate(orders)]

    @staticmethod
    def build(families, order, draws):
        """Generate one repetition's members.

        Returns (member, ``zhuforge quotient`` flags) pairs, and
        (description, traceback) for each member whose generation raised
        (no single null vector, an invalid document): those are not solved.
        """
        built, failures = [], []
        for (family, size, bound, membership), scaled, scale in draws:
            try:
                if family == "virasoro":
                    m = families.virasoro_member(*size, scale=scale)
                elif family == "sl2":
                    m = families.sl2_member(size, order, scaled, scale)
                else:
                    m = families.lattice_member(size, order, scaled, scale)
            except Exception:
                failures.append(("%s %s" % (family, size),
                                 traceback.format_exc()))
                continue
            flags = ["--quotient-bound", str(bound)]
            if membership is not None:
                flags += ["--membership-bound", str(membership)]
            built.append((m, flags))
        return built, failures


def install_tracer(tracer, cli, families):
    """Rebind the public cross-module entry points of every layer."""
    import zhuforge.documents as documents
    import zhuforge.engine as engine
    import zhuforge.linalg as linalg
    import zhuforge.quotient as quotient
    import zhuforge.reduction as reduction
    import zhuforge.zhu as zhu

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "load_presentation", "presentation.load")
    w(cli, "validate", "presentation.validate")
    w(families, "validate", "presentation.validate")
    w(cli, "complete_table", "engine.complete_table")
    w(engine.Engine, "normal_form", "engine.normal_form")
    w(engine.Engine, "apply_mode", "engine.apply_mode")
    w(engine.Engine, "element_mode", "engine.element_mode")
    w(zhu, "generated_span", "va_calculus.generated_span")
    w(reduction, "generated_span", "va_calculus.generated_span")
    w(cli, "c1_singular_elements", "reduction.c1_singular_elements", len)
    w(zhu, "zhu_image", "zhu.zhu_image")
    w(cli, "relation_closure", "zhu.relation_closure",
      lambda zp: len(zp.extra_relations))
    w(zhu.ZhuAlgebra, "canonical", "zhu.canonical")
    w(zhu.NCPoly, "__mul__", "zhu.ncpoly_mul")
    w(linalg.SpanBuilder, "add", "linalg.span_add", bool)
    w(linalg.SpanBuilder, "contains", "linalg.span_contains")
    w(cli, "quotient_basis", "quotient.quotient_basis",
      lambda model: len(model.basis))
    w(quotient, "check_matrix_model", "quotient.check_matrix_model")
    w(documents, "quotient_document", "documents.quotient_document")
    w(cli, "_json", "documents.json")


class Run:
    def __init__(self, args):
        self.args = args
        self.draw = Draw(args.workload, args.seed)
        self.digests = {}
        self.member_s = {}      # label -> solve seconds, every repetition
        self.wall_s = []        # unscaled solve seconds per repetition
        self.speed = []         # REFERENCE_S / measured reference time
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.solve_s = []       # per repetition
        self.tracer = None
        self.traced_solve_s = []

    # -- one repetition -----------------------------------------------

    def setup(self, order, draws, tracer=None):
        """Import, generate and write the members.

        Returns wall seconds, the cli module, (member, argv) per member and
        the generation failures (see Draw.build).
        """
        t0 = time.perf_counter()
        cli, families = fresh_import()
        if tracer is not None:
            install_tracer(tracer, cli, families)
        built, failures = self.draw.build(families, order, draws)
        jobs = []
        for n, (m, flags) in enumerate(built):
            path = WORK / ("%s-%d.json" % (self.args.workload, n))
            path.write_text(json.dumps(m.doc, indent=1), encoding="utf-8")
            jobs.append((m, ["quotient", "--input", str(path)] + flags))
        return time.perf_counter() - t0, cli, jobs, failures

    def solve(self, cli, jobs, ref):
        """Solve every member with ``zhuforge quotient``, given its argv.

        `ref` is the reference time measured just before; one is measured
        after each member, and a member's wall time is rescaled by the mean
        of the two around it.  Returns the rescaled seconds per member, the
        raw wall seconds, every reference time, and (member, exit code,
        document text, ZhuPresentation or traceback) per member.
        """
        captured = []
        closure = cli.relation_closure

        def capture(*args, **kwargs):
            zp = closure(*args, **kwargs)
            captured.append(zp)
            return zp

        # The one name rebound with tracing off: it hands the gate the
        # ZhuPresentation whose relations the emitted matrices must satisfy.
        cli.relation_closure = capture
        scaled, wall, refs, results = [], [], [ref], []
        try:
            for m, argv in jobs:
                captured.clear()
                buf = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                except Exception:       # a crash fails the member, not the run
                    code, zp = None, traceback.format_exc()
                else:
                    zp = captured[-1] if captured else None
                spent = time.perf_counter() - t0
                # Collect the member's garbage before the next reference
                # time, so neither the next member's time nor the peak RSS
                # depends on it.
                gc.collect()
                after = reference_seconds()
                scaled.append(spent * 2 * REFERENCE_S / (ref + after))
                wall.append(spent)
                refs.append(after)
                ref = after
                results.append((m, code, buf.getvalue(), zp))
        finally:
            cli.relation_closure = closure
        return scaled, wall, refs, results

    def gate(self, results, failures):
        """Check every member; a failure is counted and printed."""
        for what, trace in failures:
            self.attempted += 1
            self.failed += 1
            print("FAIL %s: set-up raised\n%s" % (what, trace), flush=True)
        for m, code, text, zp in results:
            self.attempted += 1
            try:
                if code is None:
                    raise MemberFailure("crashed:\n" + zp)
                self.check(m, code, text, zp)
            except MemberFailure as exc:
                self.failed += 1
                print("FAIL %s: %s" % (m.label, exc), flush=True)
            except Exception:   # a malformed answer fails the member only
                self.failed += 1
                print("FAIL %s: checking raised\n%s"
                      % (m.label, traceback.format_exc()), flush=True)

    def check(self, m, code, text, zp):
        from zhuforge.quotient import check_matrix_model
        if zp is None:
            raise MemberFailure("relation_closure was not called")
        if zp.status != "complete":
            raise MemberFailure("closure %s: %s" % (zp.status,
                                                    zp.partial_reason))
        doc = json.loads(text)
        if not str(doc["status"]).startswith("stabilized"):
            raise MemberFailure("quotient %s" % doc["status"])
        if code != 0:
            raise MemberFailure("exit code %d" % code)
        if doc["dimension"] != m.dimension:
            raise MemberFailure("dimension %s, expected %d"
                                % (doc["dimension"], m.dimension))
        ok, failing = check_matrix_model(zp, doc["matrices"])
        if not ok:
            raise MemberFailure("matrix model fails %s" % failing)
        for extra in m.checks:
            msg = extra(zp)
            if msg:
                raise MemberFailure(msg)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        seen = self.digests.setdefault(m.label, digest)
        if seen != digest:
            raise MemberFailure("document digest %s differs from %s"
                                % (digest, seen))

    # -- whole run ------------------------------------------------------

    def cycles(self):
        """Yield cycle numbers while --seconds have not passed.

        A cycle starts only if half its expected length still fits, so runs
        end near --seconds.  Untraced runs make at least two cycles, so that
        every input is solved twice and its document digest compared.
        """
        start = time.perf_counter()
        n = 0
        while True:
            elapsed = time.perf_counter() - start
            if n >= 2 - self.args.trace and \
                    elapsed + 0.5 * elapsed / max(n, 1) >= self.args.seconds:
                return
            yield n
            n += 1

    def repetition(self, order, draws, tracer=None):
        """Set up and solve once.

        Returns setup and solve seconds, rescaled, and the repetition's mean
        speed factor REFERENCE_S / reference time.
        """
        gc.collect()
        before = reference_seconds()
        setup_s, cli, jobs, failures = self.setup(order, draws, tracer)
        ref = reference_seconds()
        try:
            scaled, wall, refs, results = self.solve(cli, jobs, ref)
        finally:
            if tracer is not None:
                tracer.restore()
        self.gate(results, failures)
        if tracer is None:
            for (m, _), x in zip(jobs, scaled):
                self.member_s.setdefault(m.label, []).append(x)
            self.wall_s.append(sum(wall))
            self.speed.append(REFERENCE_S / ref)
        refs.append(before)
        return (setup_s * 2 * REFERENCE_S / (before + ref), sum(scaled),
                REFERENCE_S * len(refs) / sum(refs))

    def measure(self):
        for _ in self.cycles():
            for order, draws in self.draw.cycle:
                setup_s, solve_s, _ = self.repetition(order, draws)
                self.setup_s.append(setup_s)
                self.solve_s.append(solve_s)

    def measure_traced(self):
        """Solve each repetition untraced, then traced.

        Returns the number of traced repetitions and, per span name, the
        calls and the total and self seconds summed over them, each
        repetition's seconds rescaled by its speed factor.
        """
        from tracer import Tracer
        self.tracer = Tracer()
        layers = {}
        for _ in self.cycles():
            for order, draws in self.draw.cycle:
                self.solve_s.append(self.repetition(order, draws)[1])
                first = len(self.tracer.spans)
                _, solve_s, speed = self.repetition(order, draws, self.tracer)
                self.traced_solve_s.append(solve_s)
                for name, v in self.tracer.summary(first).items():
                    acc = layers.setdefault(
                        name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    acc["calls"] += v["calls"]
                    acc["total_s"] += v["total_s"] * speed
                    acc["self_s"] += v["self_s"] * speed
        return len(self.traced_solve_s), layers

    def check_generator(self, families, load_bundled):
        """At N = 2 the lattice family must be the bundled presentation."""
        self.attempted += 1
        doc = families.lattice_member(2, with_singular=False).doc
        mine = families.checked(doc).relations
        if mine != load_bundled("lattice_rank1_norm4").relations:
            self.failed += 1
            print("FAIL lattice generator: N=2 table differs from the "
                  "bundled lattice_rank1_norm4", flush=True)


def end_to_end(run):
    """End-to-end metrics; prints the figures behind them."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_s": {"value": statistics.median(run.solve_s), "unit": "s"},
        "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    print("repetitions %d (%d per cycle), members per repetition %d"
          % (len(run.solve_s), len(run.draw.cycle),
             len(run.draw.cycle[0][1])))
    print("solve seconds per repetition: "
          + " ".join("%.3f" % x for x in run.solve_s))
    print("unscaled wall seconds: median %.4f, per repetition %s"
          % (statistics.median(run.wall_s),
             " ".join("%.3f" % x for x in run.wall_s)))
    print("machine speed (reference/measured): median %.3f, range %.3f-%.3f"
          % (statistics.median(run.speed), min(run.speed), max(run.speed)))
    print("failure_ratio %.4f ratio (%d of %d members failed)"
          % (run.failed / max(run.attempted, 1), run.failed, run.attempted))
    return metrics


def per_layer(run, reps, spans):
    """Per-layer metrics, per traced repetition, from rescaled span sums."""
    t = run.tracer

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0) / reps

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("presentation.validate_s", get("presentation.validate", "total_s"),
        "s")
    put("engine.complete_s", get("engine.complete_table", "total_s"), "s")
    for name in ("engine.normal_form", "engine.apply_mode",
                 "engine.element_mode", "va_calculus.generated_span",
                 "zhu.zhu_image", "zhu.canonical", "zhu.ncpoly_mul",
                 "linalg.span_add", "linalg.span_contains"):
        put(name + ".calls", get(name, "calls"), "count")
        put(name + ".self_s", get(name, "self_s"), "s")
    put("reduction.c1_singular_elements_s",
        get("reduction.c1_singular_elements", "total_s"), "s")
    put("reduction.defects",
        sum(t.results["reduction.c1_singular_elements"]) / reps, "count")
    put("zhu.relation_closure.self_s", get("zhu.relation_closure", "self_s"),
        "s")
    relations = sum(t.results["zhu.relation_closure"])
    put("zhu.relations_per_image",
        relations / max(spans.get("zhu.zhu_image", {}).get("calls", 0), 1),
        "ratio")
    adds = t.results["linalg.span_add"]
    put("linalg.span_add.useful_ratio", sum(adds) / max(len(adds), 1),
        "ratio")
    put("quotient.quotient_basis.self_s",
        get("quotient.quotient_basis", "self_s"), "s")
    put("quotient.check_matrix_model_s",
        get("quotient.check_matrix_model", "total_s"), "s")
    put("quotient.basis_size",
        sum(t.results["quotient.quotient_basis"]) / reps, "count")
    put("documents.emit_s", get("documents.quotient_document", "total_s")
        + get("documents.json", "total_s"), "s")
    put("trace.overhead_ratio",
        sum(run.traced_solve_s) / sum(run.solve_s), "ratio")

    # Share of traced solve time by layer (self time below cli.main).
    solve_spans = t.summary(roots={"cli.main"})
    solve_total = sum(v["self_s"] for v in solve_spans.values())
    shares = {}
    for name, v in solve_spans.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + v["self_s"]
    print("layer shares of traced solve time: " + ", ".join(
        "%s %.1f%%" % (layer, 100 * s / solve_total)
        for layer, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    stages = ("presentation.load", "presentation.validate",
              "engine.complete_table", "reduction.c1_singular_elements",
              "zhu.relation_closure", "quotient.quotient_basis",
              "documents.quotient_document", "documents.json")
    print("stage shares of traced solve time (with children): " + ", ".join(
        "%s %.1f%%" % (name, 100 * solve_spans[name]["total_s"] / solve_total)
        for name in stages if name in solve_spans))
    print("span self time of traced solve: " + ", ".join(
        "%s %.1f%%" % (name, 100 * v["self_s"] / solve_total)
        for name, v in sorted(solve_spans.items(),
                              key=lambda kv: -kv[1]["self_s"])))
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zhuforge" / "__init__.py").is_file():
        print("error: %s has no zhuforge sources to benchmark" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every import of zhuforge compiles from source: bytecode that an earlier
    # test run left in src/ is neither read nor written, so setup_s does not
    # depend on what ran in the checkout before.  Nothing creates this
    # directory.
    sys.pycache_prefix = str(WORK / "no-pycache")
    sys.dont_write_bytecode = True
    WORK.mkdir(parents=True, exist_ok=True)

    run = Run(args)
    if args.workload == "lattice_rank1":
        cli, families = fresh_import()
        run.check_generator(families, cli.load_bundled)
    if args.trace:
        metrics = per_layer(run, *run.measure_traced())
        path = WORK / ("spans-%s-%d.tsv.gz" % (args.workload, args.seed))
        run.tracer.write(path)
        print("spans written to %s" % path.relative_to(ROOT))
    else:
        run.measure()
        metrics = end_to_end(run)
    for name, entry in metrics.items():
        print("%s %.6g %s" % (name, entry["value"], entry["unit"]))
    for label, digest in sorted(run.digests.items()):
        print("member %s solve %.3f s (median of %d) sha256 %s"
              % (label, statistics.median(run.member_s[label]),
                 len(run.member_s[label]), digest))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
