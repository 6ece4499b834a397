"""Benchmark of ``morphseg compare`` and ``morphseg segment``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each run generates its inputs from the seed, then starts the workload's
commands as fresh processes, one at a time, until S seconds have passed.
With --trace 0 the processes run untraced and give the end-to-end metrics
(medians over the repetitions). With --trace 1 untraced and traced
repetitions alternate; the traced ones wrap every layer (layers.py) and
give the per-layer metrics, and their difference gives the tracing
overhead. Every process's outputs are checked and hashed. The metric
definitions (units, directions, bounds) are read from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record, with inputs,
environment, samples and artifact digests, is written under
perfbench/.work/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = HERE / ".work"
MANIFEST = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(SRC))  # without src/ the imports below fail: exit 1

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from morphseg import io, report, synth  # noqa: E402

# Why each workload exists is in BENCHMARK.json; the sizes are here.
WORKLOADS = {
    "desk-100k": {"command": "compare", "corpus": "synth", "train": 80_000, "test": 20_000},
    "long-words": {"command": "compare", "corpus": "long", "train": 4_800, "test": 1_200},
    # models trained on desk-100k's training slice, then applied to
    # running text from another seed
    "segment-heldout": {
        "command": "segment", "corpus": "synth", "train": 80_000, "test": 20_000, "words": 300_000,
    },
}
SETUP_PROBES = 10  # set-up-only processes per untraced run, besides the full ones
TIME_LIMIT = 165.0  # seconds; a run must end within 180


def _now():
    return time.perf_counter()


class Run:
    """One benchmark run of one workload: inputs, processes, samples."""

    def __init__(self, name, seed, trace):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.dir = WORK / ("%s-seed%d-trace%d" % (name, seed, trace))
        self.started = _now()
        self.inputs = {}
        self.ops = []  # one record per process started while measuring
        self.reps = 0
        self.reference = None  # artifact digests of the first repetition
        self.keep = None  # outputs of the first good repetition
        self.samples = {}
        self.measured_s = 0.0

    # -- preparation (untimed) -------------------------------------------

    def prepare(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        spec = self.spec
        n = spec["train"] + spec["test"]
        paths, tokens = inputs.make_compare_inputs(self.dir, spec["corpus"], n, self.seed)
        self.inputs = {
            "corpus": inputs.describe(paths["corpus"], tokens),
            "gold": inputs.describe(paths["gold"]),
            "tags": inputs.describe(paths["tags"]),
            "train_slice": _type_record(tokens[: spec["train"]]),
            "test_slice": _type_record(tokens[spec["train"] : n]),
        }
        if spec["command"] == "compare":
            self.train_types = set(tokens[: spec["train"]])
            self.test_types = set(tokens[spec["train"] : n])
            self.paths = paths
            return
        words, _, _ = synth.generate(spec["words"], inputs.heldout_seed(self.seed))
        self.words = words
        self.paths = {"words": self.dir / "words.txt"}
        inputs.write_word_list(self.paths["words"], words)
        self.inputs["words"] = inputs.describe(self.paths["words"], words)
        for method, model in (("rec-mdl", "rec_mdl.model"), ("seq-ml", "seq_ml.model")):
            self.paths[model] = self.dir / model
            argv = [
                sys.executable, "-m", "morphseg.cli", "train", "--method", method,
                "--corpus", str(paths["corpus"]), "--train-tokens", str(spec["train"]),
                "--model", str(self.paths[model]),
            ]
            done = subprocess.run(
                argv, env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                raise SystemExit("preparing %s: morphseg train failed:\n%s" % (model, done.stderr))
            self.inputs[model] = inputs.describe(self.paths[model])

    # -- processes --------------------------------------------------------

    def _commands(self, out):
        """(argv, output check) for each process of one repetition."""
        p = self.paths
        if self.spec["command"] == "compare":
            argv = [
                "compare", "--corpus", str(p["corpus"]),
                "--train-tokens", str(self.spec["train"]), "--test-tokens", str(self.spec["test"]),
                "--gold", str(p["gold"]), "--tags", str(p["tags"]), "--out-dir", str(out),
            ]
            return [(argv, lambda: checks.check_compare(out, self.train_types, self.test_types))]
        commands = []
        for model in ("rec_mdl.model", "seq_ml.model"):
            seg = out / (model.split(".")[0] + ".segment.tsv")
            argv = [
                "segment", "--model", str(p[model]), "--words", str(p["words"]), "--out", str(seg),
            ]
            commands.append((argv, lambda seg=seg: checks.check_segment_output(seg, self.words)))
        return commands

    def _spawn(self, mode, argv, rep_dir, tag):
        record_path = rep_dir / ("%s.record.json" % tag)
        stdout, stderr = rep_dir / ("%s.stdout" % tag), rep_dir / ("%s.stderr" % tag)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = _now()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), mode, str(record_path), "--"] + argv,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
            )
            killer = threading.Timer(max(1.0, TIME_LIMIT - (start - self.started)), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = _now() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(record_path, encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, ValueError):
            record = {"first_call": None, "trace": None}
        return {
            "mode": mode,
            "code": proc.returncode,
            "wall_s": wall,
            "setup_s": None if record["first_call"] is None else record["first_call"] - start,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "trace": record["trace"],
        }

    def repetition(self, mode):
        """Run every process of one repetition; returns their op records."""
        index = self.reps
        self.reps += 1
        rep_dir = self.dir / ("rep%03d-%s" % (index, mode))
        out = rep_dir / "out"
        out.mkdir(parents=True)
        ops = []
        for k, (argv, check) in enumerate(self._commands(out)):
            op = self._spawn(mode, argv, rep_dir, "p%d" % k)
            op["rep"] = index
            problems = checks.check_exit(op["code"])
            if mode == "setup":
                if op["setup_s"] is None:
                    problems.append("set-up probe ended before training or segmentation")
            else:
                if mode == "trace" and op["trace"] is None:
                    problems.append("no trace recorded")
                if not problems:
                    problems = check()
            op["problems"] = problems
            ops.append(op)
        if mode != "setup":
            digests = {f.name: inputs.sha256_file(f) for f in sorted(out.iterdir())}
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                for op in ops:
                    op["problems"].append("artifact digests differ from the first repetition")
        if not any(op["problems"] for op in ops):
            if mode != "setup" and self.keep is None:
                self.keep = out
            else:
                shutil.rmtree(rep_dir)
        self.ops += ops
        return ops

    def measure(self, seconds):
        """Repeat the workload for the given number of seconds."""
        self.repetition("setup")  # warm-up: page cache, .pyc files
        self.ops = []
        t0 = _now()
        modes = ["plain", "trace"] if self.trace else ["plain"]
        probes = 0
        while True:
            if not self.trace and probes < SETUP_PROBES:
                self.repetition("setup")
                probes += 1
            for mode in modes:
                self.repetition(mode)
            if self.trace:
                modes.reverse()  # alternate which side of a pair runs first
            if _now() - t0 >= seconds or _now() - self.started >= TIME_LIMIT / 2:
                break
        while not self.trace and probes < SETUP_PROBES:
            self.repetition("setup")
            probes += 1
        self.measured_s = _now() - t0

    # -- results -----------------------------------------------------------

    def per_rep(self, mode, key, combine=sum):
        values = []
        for rep in sorted({op["rep"] for op in self.ops if op["mode"] == mode}):
            ops = [op for op in self.ops if op["rep"] == rep]
            if any(op[key] is None for op in ops):
                continue
            values.append(combine(op[key] for op in ops))
        return values

    def end_to_end(self):
        walls = self.per_rep("plain", "wall_s")
        setups = self.per_rep("plain", "setup_s") + self.per_rep("setup", "setup_s")
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(self.per_rep("plain", "peak_rss_mb", max)),
        }
        metrics.update(self.quality())
        metrics["failed_ops_pct"] = self.failed_pct()
        self.samples = {"wall_s": walls, "setup_s": setups}
        return metrics

    def quality(self):
        """Total bits of both methods' models: from report.json for compare,
        from the loaded models for segment. Deterministic for a seed."""
        if self.spec["command"] == "compare":
            rows = checks.read_report(self.keep / "report.json")
            return {
                "rec_mdl.total_bits": rows["rec-mdl"].total_cost_bits,
                "seq_ml.total_bits": rows["seq-ml"].total_cost_bits,
            }
        return {
            "rec_mdl.total_bits": report.build_report(
                io.load_mdl_model(self.paths["rec_mdl.model"])
            ).total_cost_bits,
            "seq_ml.total_bits": report.build_report(
                io.load_ml_model(self.paths["seq_ml.model"])
            ).total_cost_bits,
        }

    def per_layer(self):
        traced = {}
        for rep in sorted({op["rep"] for op in self.ops if op["mode"] == "trace"}):
            ops = [op for op in self.ops if op["rep"] == rep]
            if any(op["trace"] is None for op in ops):
                continue
            derived = layers.layer_metrics([(op["trace"], op["wall_s"]) for op in ops])
            for name, value in derived.items():
                traced.setdefault(name, []).append(value)
        metrics = {name: _median(values) for name, values in traced.items()}
        metrics["wall_s"] = statistics.median(self.per_rep("plain", "wall_s"))
        metrics["trace.overhead_s"] = statistics.median(
            self.per_rep("trace", "wall_s")
        ) - statistics.median(self.per_rep("plain", "wall_s"))
        if self.spec["command"] == "compare":
            rows = checks.read_report(self.keep / "report.json")
            metrics["report.model_mismatch_bits"] = checks.model_mismatch_bits(self.keep)
            for method, row in rows.items():
                name = method.replace("-", "_") + ".heldout_distance_bits"
                metrics[name] = row.alignment_distance_bits or 0.0
        else:
            metrics["report.model_mismatch_bits"] = 0.0
            metrics["rec_mdl.heldout_distance_bits"] = 0.0
            metrics["seq_ml.heldout_distance_bits"] = 0.0
        metrics["failed_ops_pct"] = self.failed_pct()
        return metrics

    def failed(self):
        return sum(1 for op in self.ops if op["problems"])

    def failed_pct(self):
        return 100.0 * self.failed() / len(self.ops)


def _median(values):
    """Median that keeps whole-number samples whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _type_record(tokens):
    return {"tokens": len(tokens), "types": len(set(tokens))}


def code_digest():
    """Digest of the package sources, naming the code a run measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "morphseg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_against_first_run(run, code):
    """Flag ops whose artifacts differ from the first run of the same code,
    workload, seed and inputs; record this run's digests if it is the first."""
    registry_path = WORK / "digests.json"
    try:
        with open(registry_path, encoding="utf-8") as f:
            registry = json.load(f)
    except (OSError, ValueError):
        registry = {}
    inputs_digest = hashlib.sha256(json.dumps(run.inputs, sort_keys=True).encode()).hexdigest()
    key = "%s seed=%d code=%s inputs=%s" % (run.name, run.seed, code, inputs_digest)
    if run.reference is None:
        return None
    first = registry.get(key)
    if first is None:
        registry[key] = run.reference
        with open(registry_path, "w", encoding="utf-8") as f:
            json.dump(registry, f, indent=1, sort_keys=True)
        return True
    if first != run.reference:
        for op in run.ops:
            if op["mode"] != "setup":
                op["problems"].append("artifact digests differ from the first run of this code")
        return False
    return True


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu,
    }


def _format(value):
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def run_workload(name, seed, seconds, trace, manifest, code, env):
    run = Run(name, seed, trace)
    run.prepare()
    run.measure(seconds)
    first_run_match = check_against_first_run(run, code)
    defs = manifest["per_layer"] if trace else manifest["end_to_end"]
    attempted = len(run.ops)
    failed = run.failed()
    computed = {}
    if run.keep is not None:
        computed = run.per_layer() if trace else run.end_to_end()
    metrics = {d["name"]: {"value": computed[d["name"]], "unit": d["unit"]}
               for d in defs if d["name"] in computed}
    print("workload %s  seed %d  trace %d  %d processes in %.1f s" % (
        name, seed, trace, attempted, run.measured_s))
    # this mode's metrics first, then those of the other list it also measured
    known = defs + manifest["end_to_end"] + manifest["per_layer"]
    shown = set()
    for d in known:
        if d["name"] in computed and d["name"] not in shown:
            shown.add(d["name"])
            print("  %-32s %14s %-6s (%s is better)" % (
                d["name"], _format(computed[d["name"]]), d["unit"], d["better"]))
    for op in run.ops:
        for problem in op["problems"]:
            print("  FAILED rep %d (%s): %s" % (op["rep"], op["mode"], problem))
    results = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "code_sha256": code,
        "environment": env,
        "inputs": run.inputs,
        "artifact_sha256": run.reference,
        "artifacts_match_first_run_of_code": first_run_match,
        "samples": run.samples,
        "ops": [{k: v for k, v in op.items() if k != "trace"} for op in run.ops],
        "metrics": computed,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / ("%s-seed%d-trace%d.json" % (name, seed, trace))
    with open(out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print("  inputs: " + ", ".join(
        "%s %s" % (k, v["sha256"][:12]) for k, v in run.inputs.items() if "sha256" in v))
    print("  results: %s" % out.relative_to(ROOT))
    correct = failed == 0 and len(metrics) == len(defs)
    if correct:
        shutil.rmtree(run.dir)  # failed repetitions stay for inspection
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    clock = time.get_clock_info("perf_counter").implementation
    if "CLOCK_MONOTONIC" not in clock:
        # set-up time compares this process's clock with the child's
        print("run.py: perf_counter is %s, not system-wide" % clock, file=sys.stderr)
        return 2
    with open(MANIFEST, encoding="utf-8") as f:
        manifest = json.load(f)
    code = code_digest()
    WORK.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + ", ".join("%s=%s" % kv for kv in env.items()))
    if args.workload != "all":
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, manifest, code, env
        )
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                one = run_workload(name, args.seed, args.seconds, trace, manifest, code, env)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for metric, value in one["metrics"].items():
                    result["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
