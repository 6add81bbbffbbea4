#!/usr/bin/env python3
"""Build the benchmark and run it: `python3 benchmark/run.py <benchmark arguments>`.

Run from the root of a checkout. The arguments go to the `benchmark` binary
unchanged (`--workload N --seed S --seconds T --trace 0|1`, or `run`, `trace`,
`agree`, `manifest`; see benchmark/README.md). `python3 benchmark/run.py test
[cargo test arguments]` runs the benchmark's own tests instead.

The build is `cargo build --release --offline --manifest-path
benchmark/Cargo.toml`, in place, whenever that can work. Two things can stop
it, and this script looks for each before it builds:

* The crates.io dependencies do not resolve without the network (nothing
  vendored, empty registry cache). Then, and only then, the build adds
  `--config benchmark/shims/patch.toml`, which patches every one of them with
  the stand-in under `shims/` (README.md, "Stand-in dependencies").
* `crates/neobft` holds the two pieces of text that do not compile (README.md,
  "Blockers", B2). The benchmark may not edit them, so the build then runs on
  a copy of the sources under the target directory in which exactly those
  pieces are replaced. Once the source is fixed the text is gone and the
  build is in place again.
"""

import os
import subprocess
import sys

# file -> [(text that does not compile, text that does)]. A file is fixed
# only if every one of its texts is found in it; a file that has changed
# under them is built as it stands. Compile errors only, never behaviour.
FIXUPS = {
    "crates/neobft/src/client.rs": [
        (
            "        let Some(workload) = self.workload.as_mut() else {\n"
            "            return;\n"
            "        };\n"
            "        let window = self.cfg.batch.window.max(1);\n",
            "        if self.workload.is_none() {\n"
            "            return;\n"
            "        }\n"
            "        let window = self.cfg.batch.window.max(1);\n",
        ),
        (
            "        let ops = workload.next_ops(budget);\n",
            "        let Some(workload) = self.workload.as_mut() else {\n"
            "            return;\n"
            "        };\n"
            "        let ops = workload.next_ops(budget);\n",
        ),
    ],
    "crates/neobft/src/replica.rs": [
        (
            "        self.store.as_deref_mut()\n",
            "        match self.store {\n"
            "            Some(ref mut s) => Some(s.as_mut()),\n"
            "            None => None,\n"
            "        }\n",
        ),
    ],
}

# What the build reads: the façade, the workspace crates, this directory.
SOURCES = ["Cargo.toml", "BENCHMARK.json", "src", "crates", "benchmark"]
SKIPPED_DIRS = {"target", ".bench_build", ".git"}


def fixed_files(root):
    """{file: its bytes with its fix-ups applied} for every file of FIXUPS
    that still holds all of its texts."""
    fixed = {}
    for rel, edits in FIXUPS.items():
        with open(os.path.join(root, rel), "rb") as f:
            data = f.read()
        if all(data.count(old.encode()) == 1 for old, _new in edits):
            for old, new in edits:
                data = data.replace(old.encode(), new.encode())
            fixed[rel] = data
    return fixed


def source_files(root):
    for top in SOURCES:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            yield top
            continue
        for parent, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIPPED_DIRS)
            for name in sorted(files):
                yield os.path.relpath(os.path.join(parent, name), root)


def sync_copy(root, copy, fixed):
    """Make `copy` hold the sources, with the files of `fixed` replaced. A
    file is written only when its bytes change, so cargo rebuilds only what
    changed."""
    wanted = set(source_files(root))
    for rel in wanted:
        data = fixed.get(rel)
        if data is None:
            with open(os.path.join(root, rel), "rb") as f:
                data = f.read()
        dst = os.path.join(copy, rel)
        try:
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        except FileNotFoundError:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
    for parent, _dirs, files in os.walk(copy):
        for name in files:
            path = os.path.join(parent, name)
            if os.path.relpath(path, copy) not in wanted:
                os.remove(path)


def main():
    root = os.getcwd()
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.stderr.write(
            "benchmark/run.py: run from the root of a neobft checkout; "
            f"missing here: {', '.join(missing)}\n"
        )
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "benchmark/target"))
    tree = root
    fixed = fixed_files(root)
    if fixed:
        tree = os.path.join(target, "fixed-sources")
        sync_copy(root, tree, fixed)
    manifest = os.path.join(tree, "benchmark", "Cargo.toml")
    options = ["--release", "--offline", "--manifest-path", manifest]

    env = dict(os.environ, CARGO_TARGET_DIR=target)
    resolves = subprocess.run(
        ["cargo", "metadata", "--offline", "--format-version", "1", "--manifest-path", manifest],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if resolves.returncode != 0:
        options += ["--config", os.path.join(tree, "benchmark", "shims", "patch.toml")]

    # Embedded in every result file.
    env["NEO_BENCHMARK_BUILD"] = "dependencies: {}; source fix-ups: {}".format(
        "crates.io" if resolves.returncode == 0 else "stand-ins (benchmark/shims)",
        ", ".join(sorted(fixed)) or "none",
    )

    if sys.argv[1:2] == ["test"]:
        return subprocess.run(["cargo", "test"] + options + sys.argv[2:], env=env).returncode

    build = subprocess.run(
        ["cargo", "build", "--quiet", "--bin", "benchmark"] + options,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("benchmark/run.py: the build failed\n")
        return build.returncode

    binary = os.path.join(target, "release", "benchmark")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
