#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

From the repository root:

    python3 e2ebench/run.py --workload write-steady --seed 1 --seconds 20 --trace 0

The benchmark is built from source into .bench_build/ (Go build cache
included, so nothing is written outside the checkout) and its reports,
traces and goroutine dumps go to .bench_out/. The last line of standard
output is the run's JSON result. The run is killed, and this script exits
non-zero without a result, if it outlives RUN_LIMIT seconds or its resident
memory passes RSS_LIMIT.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_LIMIT = 175  # seconds
RSS_LIMIT = 3 << 30  # bytes


def go_env():
    env = dict(os.environ)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env.update(
        TMPDIR=str(BUILD / "tmp"),
        GOTMPDIR=str(BUILD / "tmp"),
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOMODCACHE=str(BUILD / "gopath" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
    )
    return env


def revision():
    """The git commit when the checkout is a repository, else a hash of the Go sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if rel.parts[0].startswith(".") or not path.is_file():
            continue
        if path.suffix in (".go", ".mod"):
            h.update(str(rel).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def rss_bytes(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def main():
    BUILD.mkdir(exist_ok=True)
    binary = BUILD / "e2ebench"
    build = subprocess.run(
        ["go", "build", "-o", str(binary), "."], cwd=BENCH, env=go_env(), capture_output=True, text=True
    )
    if build.returncode != 0:
        sys.stderr.write("e2ebench: build failed\n" + build.stderr)
        return 2
    # A wedged run leaves its deployment's data behind; no run is in flight.
    shutil.rmtree(OUT / "data", ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.Popen(
        [str(binary), *sys.argv[1:], "-out", str(OUT), "-commit", revision()],
        cwd=ROOT,
        env=go_env(),
        start_new_session=True,
    )
    started = time.monotonic()
    reason = None
    while proc.poll() is None:
        if time.monotonic() - started > RUN_LIMIT:
            reason = f"run exceeded {RUN_LIMIT}s"
        elif rss_bytes(proc.pid) > RSS_LIMIT:
            reason = f"resident memory above {RSS_LIMIT >> 20} MiB"
        if reason:
            proc.kill()
            proc.wait()
            sys.stderr.write(f"e2ebench: killed: {reason}\n")
            return 3
        time.sleep(0.2)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
