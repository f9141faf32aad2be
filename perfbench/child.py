"""Run one darlr CLI stage in this fresh process and record what it did.

Usage: python3 child.py JOB_JSON

The job names the source directory, the CLI arguments, whether to trace,
and where to write the record. The CLI's own output goes to stdout as
usual; the record holds the exit code, the stage probe's timestamps (on
the monotonic clock the parent shares) and the peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run(job):
    sys.path.insert(0, job["src"])
    import darlr.cli

    sys.dont_write_bytecode = True  # keep the benchmark's directory as committed
    import tracing

    recorder = None
    if job["trace"]:
        recorder = tracing.SpanRecorder()
        recorder.install()
    probe = tracing.StageProbe()
    probe.install()
    record = {"darlr": darlr.cli.__file__, "error": None}
    try:
        record["rc"] = darlr.cli.main(job["argv"])
    except Exception:  # the CLI let an error through: record it as a failure
        record["rc"] = None
        record["error"] = traceback.format_exc()
    record["ended"] = time.perf_counter()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["probe"] = probe.to_dict()
    if recorder is not None:
        recorder.write(job["spans"])
    with open(job["record"], "w") as fh:
        json.dump(record, fh)
    return 0 if record["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(run(json.loads(Path(sys.argv[1]).read_text())))
