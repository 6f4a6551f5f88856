#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark (`perfbench/`, a cargo
workspace of its own) is built in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then run with the arguments
given here; its output and exit code are passed through unchanged. Build
output goes to stderr, so the last line on stdout is always the
benchmark's result.
"""

import os
import pwd
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path("perfbench") / "Cargo.toml"


def cargo_and_env(env):
    """Return the cargo to build with and the environment to run it in.

    `cargo` is usually a rustup proxy that finds its toolchains under
    `$HOME/.rustup`, and cargo keeps its own files under `$HOME/.cargo`.
    When HOME points elsewhere than the home of the user who installed
    them, point RUSTUP_HOME and CARGO_HOME at that user's installation.
    """
    home = Path(pwd.getpwuid(os.getuid()).pw_dir)
    env = dict(env)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for var, name in (("RUSTUP_HOME", ".rustup"), ("CARGO_HOME", ".cargo")):
        default = Path(env.get("HOME", home)) / name
        if var not in env and not default.is_dir() and (home / name).is_dir():
            env[var] = str(home / name)
    cargo = shutil.which("cargo", path=env.get("PATH")) or home / ".cargo" / "bin" / "cargo"
    return str(cargo), env


def run(cmd, env, **kw):
    """Run `cmd` in the checkout root and return its exit code; if this
    process is told to stop, stop the child first and wait for it."""
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, **kw)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


def main():
    if not (ROOT / MANIFEST).is_file():
        sys.exit(f"perfbench: {MANIFEST} not found under {ROOT}")
    cargo, env = cargo_and_env(os.environ)
    built = run(
        [cargo, "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        env,
        stdout=sys.stderr,
    )
    if built != 0:
        sys.exit(f"perfbench: the build failed (exit {built})")
    exe = ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"
    sys.stdout.flush()
    sys.exit(run([str(exe), *sys.argv[1:]], env))


if __name__ == "__main__":
    main()
