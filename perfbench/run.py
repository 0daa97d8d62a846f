#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload loops --seed 1 --seconds 30 --trace 0

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then run with the same arguments. Its last line of
standard output is the result: one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Build output goes to standard
error. A failed build exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_timeout_s(seconds):
    """Longest a run of `--seconds seconds` may take once the binary is
    built. A run makes at least three rounds of a nominal 4 s each, and a
    traced round takes about 2.25 times as long on a 2-core machine; on
    top of that come the set-ups and the traced run's probes."""
    return 40 + 3 * max(seconds, 12)


def source_fingerprint(root):
    """Hash of every source file the benchmark builds from: the
    revision of a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", HERE.name):
        files += sorted(p for p in (root / top).rglob("*")
                        if p.suffix in (".rs", ".toml", ".lock") and p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev(root):
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True, env=env)
    return out.stdout.strip() if out.returncode == 0 else None


def rustc_version():
    out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = HERE.parent
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "tpal-perfbench"

    rev = git_rev(root)
    fingerprint = source_fingerprint(root)
    env["PERFBENCH_REV"] = f"{rev} src:{fingerprint}" if rev else f"src:{fingerprint}"
    env["PERFBENCH_RUSTC"] = rustc_version()
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {run_timeout_s(args.seconds)} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
