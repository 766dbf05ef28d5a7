"""Building the program and running its processes with resource accounting."""

import collections
import os
import signal
import subprocess
import sys
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (build or set-up failure)."""


def build(src_dir, build_dir, jobs):
    """Configure and build the netrev CLI and the benchmark tools.

    Returns the directory holding the executables.  Build output goes to a
    log file so standard output stays free for the result line.
    """
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        for argv in (
            ["cmake", "-S", src_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", str(jobs)],
        ):
            rc = subprocess.call(argv, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(argv))
    return build_dir


# One finished process: exit code, output bytes and its resource use.
Result = collections.namedtuple("Result", "rc out wall cpu rss_mb")


def run(argv, out_path):
    """Runs argv to completion, its stdout captured in out_path."""
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        data = f.read()
    return Result(proc.returncode, data, wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def proc_cpu(pid):
    """user+sys CPU seconds of a live process (all its threads)."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid):
    """Peak resident set of a live process, in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def children(pid):
    """Direct child processes of pid (the serve daemon's workers)."""
    kids = []
    for task in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/children" % (pid, task)) as f:
                kids.extend(int(k) for k in f.read().split())
        except OSError:
            pass
    return kids


def family_cpu(pid):
    """CPU of a process plus its live children; missing processes count 0."""
    total = 0.0
    for p in [pid] + children(pid):
        try:
            total += proc_cpu(p)
        except OSError:
            pass
    return total


def family_hwm_mb(pid):
    """Summed peak RSS of a process and its live children, in MB."""
    total = 0.0
    for p in [pid] + children(pid):
        try:
            total += proc_hwm_mb(p)
        except OSError:
            pass
    return total


class Daemon:
    """A `netrev serve` process listening on an ephemeral localhost port."""

    def __init__(self, netrev, args, log_path):
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [netrev, "serve", "--listen", "127.0.0.1:0"] + args,
            stdout=subprocess.PIPE, stderr=self.log)
        line = self.proc.stdout.readline().decode()
        prefix = "netrev serve listening on "
        if not line.startswith(prefix):
            self.stop()
            raise BenchError("serve did not report its port: %r" % line)
        self.host, port = line[len(prefix):].strip().rsplit(":", 1)
        self.port = int(port)

    @property
    def pid(self):
        return self.proc.pid

    def stop(self):
        """SIGTERM drain; returns the exit code (6 = drained cleanly)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode
