"""Runs child processes for the benchmark and relays their output.

    python bench/spawner.py

Reads one JSON list (an argv) per line on stdin.  For each it runs the
command with stdout and stderr captured and writes one JSON line
``{"returncode": int, "seconds": float, "bytes": n}`` followed by the n
bytes of the child's stdout.  An empty line ends the input; the spawner then
writes ``{"max_rss_mb": float}``, the largest resident set of any child.

The benchmark starts CLI children from this small process rather than from
itself because Linux charges a child started by vfork with its parent's
high-water resident set; from the benchmark process, which holds numpy
and parsed outputs, that would hide the resident set of the child.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> None:
    out = sys.stdout.buffer
    for line in sys.stdin:
        if not line.strip():
            break
        argv = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        seconds = time.perf_counter() - t0
        header = {"returncode": proc.returncode, "seconds": seconds, "bytes": len(proc.stdout)}
        out.write(json.dumps(header).encode() + b"\n")
        out.write(proc.stdout)
        out.flush()
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.write(json.dumps({"max_rss_mb": rss_kib / 1024.0}).encode() + b"\n")
    out.flush()


if __name__ == "__main__":
    main()
