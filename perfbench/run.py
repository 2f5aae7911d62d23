#!/usr/bin/env python3
"""Build and run the RSMI benchmark.

    python3 perfbench/run.py --workload point-skewed --seed 1 --seconds 6 --trace 0

Run from the repository root. The first run compiles `src/main/scala`
together with `perfbench/src` straight with the Scala compiler that
ships in Spark's `jars/` directory (found through SPARK_HOME or
`spark-submit` on PATH) into `.bench_build/`; later runs with unchanged
sources reuse that build. The benchmark then runs in a forked JVM with
its own heap and the `--add-opens` flags Spark needs on JDK 17. The last
line of standard output is the result as one JSON object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
MAIN_SRC = os.path.join(ROOT, "src", "main", "scala")
MAIN_RES = os.path.join(ROOT, "src", "main", "resources")
BENCH_SRC = os.path.join(HERE, "src")
HEAP = "1g"
RUN_LIMIT_S = 170

# Spark 4 on JDK 17 (the list Spark's launcher passes itself).
ADD_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def sources(top):
    found = []
    for d, _, files in os.walk(top):
        found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        fail("no Spark distribution found (set SPARK_HOME)")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        fail("no java found (set JAVA_HOME)")
    return exe


def build(jars):
    """Compile once per distinct source tree; returns the classes dir."""
    if not os.path.isdir(MAIN_SRC):
        fail("program sources not found at src/main/scala")
    files = sources(MAIN_SRC) + sources(BENCH_SRC)
    digest = hashlib.sha256()
    for f in files:
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    classes = os.path.join(BUILD, "classes-" + digest.hexdigest()[:16])
    if os.path.exists(os.path.join(classes, ".ok")):
        return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + files
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("compilation failed")
    open(os.path.join(tmp, ".ok"), "w").close()
    os.rename(tmp, classes)
    for old in os.listdir(BUILD):
        path = os.path.join(BUILD, old)
        if old.startswith("classes-") and path not in (classes, tmp):
            shutil.rmtree(path, ignore_errors=True)
    print("perfbench: compiled %d files in %.1f s" % (len(files), time.time() - t0),
          file=sys.stderr)
    return classes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    jars = spark_jars()
    classes = build(jars)
    tmpdir = os.path.join(BUILD, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    cp = os.pathsep.join([classes, MAIN_RES, os.path.join(HERE, "conf"),
                          os.path.join(jars, "*")])
    # The heap on 2 MB pages: window and kNN scans chase Point objects
    # spread over the heap, and on 4 KB pages their latencies wandered
    # more between runs (README, "Steadiness"). Ignored where the kernel
    # has no transparent huge pages. Hot code is compiled after a tenth
    # of the usual calls, so Spark's scan path, run a few dozen methods
    # deep once per scan, stops speeding up sooner in the run.
    cmd = [java(), "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+AlwaysPreTouch",
           "-XX:+UseTransparentHugePages", "-XX:-UsePerfData",
           "-XX:CompileThresholdScaling=0.1",
           "-Djava.io.tmpdir=" + tmpdir] + ADD_OPENS + [
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", BUILD]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    if code != 0:
        fail("benchmark JVM exited with %d" % code)


if __name__ == "__main__":
    main()
