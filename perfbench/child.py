"""Run one ``morphseg`` command in this process, as the benchmark's workload.

    python3 child.py MODE RECORD.json -- <morphseg arguments>

MODE is one of
  plain  run the command untraced; record when it first calls into
         training or segmentation (the end of set-up)
  setup  as plain, but exit as soon as set-up ends
  trace  run the command with every layer wrapped (see layers.py)

RECORD.json receives {"first_call": seconds or null, "trace": ...}; the
times are perf_counter readings, which on Linux come from the system-wide
CLOCK_MONOTONIC and so compare with the parent's.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import time  # noqa: E402

from morphseg import cli, mdl, ml  # noqa: E402

MODES = ("plain", "setup", "trace")


def _write(path, record):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f)


def _mark_first_call(record, path, stop):
    """Hook the calls that end set-up: training, or segmenting a word."""
    targets = [(mdl, "train_online"), (ml, "train_em"), (cli, "_segment_with")]
    originals = {(owner, name): getattr(owner, name) for owner, name in targets}

    def hook(owner, name):
        def first_call(*args, **kwargs):
            now = time.perf_counter()
            for (o, n), fn in originals.items():
                setattr(o, n, fn)
            record["first_call"] = now
            if stop:
                _write(path, record)
                os._exit(0)
            return originals[(owner, name)](*args, **kwargs)

        return first_call

    for owner, name in targets:
        setattr(owner, name, hook(owner, name))


def main(argv):
    if len(argv) < 3 or argv[0] not in MODES or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, path, command = argv[0], argv[1], argv[3:]
    record = {"first_call": None, "trace": None}
    tracer = None
    if mode == "trace":
        # imported only here, so untraced runs load nothing beyond morphseg
        from layers import install
        from spans import Tracer

        tracer = Tracer()
        install(tracer)
    else:
        _mark_first_call(record, path, stop=mode == "setup")
    code = cli.main(command)
    if tracer is not None:
        record["trace"] = tracer.to_json()
    _write(path, record)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
