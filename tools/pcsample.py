#!/usr/bin/env python3
"""Sampling PC profiler for a native (x86-64 Linux) executable.

    python3 tools/pcsample.py [--interval 0.001] [--top 40] [--dump pcs.txt] \\
        -- _build/default/bin/clanbft_cli.exe sim -n 50 -p full --load 200 \\
           --duration 6.5 --warmup 1 --seed 1

Runs the command as a traced child (PTRACE_TRACEME, then exec) and stops
it with SIGSTOP every --interval seconds. At each stop it reads the
instruction pointer with PTRACE_GETREGS and lets the child go on. The
target runs its own code at full speed between stops and allocates nothing
extra, so the ranking has none of the section profiler's probe cost; what
it reports is self time per function only (no call stacks).

PCs are symbolised with `nm -n` against the executable's load base, read
once from /proc/PID/maps (zero for a non-PIE executable). The report is
self samples per function, with OCaml symbols shown as Module.function.
Samples outside the executable count under the mapping's file name, e.g.
[libc.so.6]. --dump writes the link-time address of each sample inside
the executable (hex, one a line), for annotating hot instructions against
`objdump -d -l` of the same executable. The target's
own stdout and stderr pass through.

Needs permission to ptrace a child process. Samples the thread that takes
the SIGSTOP, so it is meant for single-threaded targets.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import shutil
import signal
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12
# struct user_regs_struct on x86-64: 27 unsigned longs, rip is the 17th.
NREGS = 27
RIP = 16

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(req, pid, addr=None, data=None):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, "ptrace(%d): %s" % (req, os.strerror(err)))


def rip(pid):
    regs = (ctypes.c_ulong * NREGS)()
    ptrace(PTRACE_GETREGS, pid, None, ctypes.addressof(regs))
    return regs[RIP]


def is_pie(path):
    with open(path, "rb") as f:
        head = f.read(18)
    # e_type: 2 = ET_EXEC (fixed addresses), 3 = ET_DYN (PIE)
    return head[:4] == b"\x7fELF" and int.from_bytes(head[16:18], "little") == 3


def mappings(pid):
    """(start, end, offset, path) of the process's file-backed mappings."""
    maps = []
    with open("/proc/%d/maps" % pid) as f:
        for line in f:
            fields = line.split()
            if len(fields) >= 6:
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
    return maps


def load_base(maps, path):
    """Start of the executable's offset-0 mapping: its load bias."""
    for lo, _, offset, p in maps:
        if p == path and offset == 0:
            return lo
    raise RuntimeError("no mapping of %s" % path)


def symbols(path):
    """Sorted (address, name) of the executable's code symbols."""
    out = subprocess.run(["nm", "-n", path], check=True, capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "tTwW":
            addrs.append(int(fields[0], 16))
            names.append(fields[2])
    return addrs, names


OCAML_SYM = re.compile(r"^caml(.+?)(?:_\d+)?$")


def pretty(name):
    """camlClanbft_sim__Engine__dispatch_753 -> Clanbft_sim.Engine.dispatch"""
    m = OCAML_SYM.match(name)
    if not m or "__" not in m.group(1):
        return name
    return m.group(1).replace("__", ".")


def sample(argv, interval):
    pid = os.fork()
    if pid == 0:
        try:
            ptrace(PTRACE_TRACEME, 0)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    # The child stops with SIGTRAP at its exec.
    _, status = os.waitpid(pid, 0)
    if not os.WIFSTOPPED(status):
        sys.exit("pcsample: %s did not start" % argv[0])
    exe = os.path.realpath(shutil.which(argv[0]) or argv[0])
    base = load_base(mappings(pid), exe) if is_pie(exe) else 0
    maps = None
    pcs = []
    ptrace(PTRACE_CONT, pid, None, 0)
    while True:
        time.sleep(interval)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            break
        exited = False
        while True:
            _, status = os.waitpid(pid, 0)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                exited = True
                break
            sig = os.WSTOPSIG(status)
            if sig == signal.SIGSTOP:
                # Read again once running: shared libraries are mapped by now.
                if maps is None:
                    maps = mappings(pid)
                pcs.append(rip(pid))
                ptrace(PTRACE_CONT, pid, None, 0)
                break
            # Someone else's signal: deliver it and wait for ours.
            ptrace(PTRACE_CONT, pid, None, sig)
        if exited:
            break
    code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else 128 + os.WTERMSIG(status)
    return exe, base, maps or [], pcs, code


def where(maps, pc):
    """The path of the mapping holding [pc], or None."""
    for lo, hi, _, path in maps:
        if lo <= pc < hi:
            return path
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--interval", type=float, default=0.001, help="seconds between samples")
    ap.add_argument("--top", type=int, default=40, help="functions to list")
    ap.add_argument("--dump", metavar="PATH", help="write each sample's link-time address")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv:
        ap.error("no command to sample")
    exe, base, maps, pcs, code = sample(argv, args.interval)
    addrs, names = symbols(exe)
    counts = collections.Counter()
    own = []
    for pc in pcs:
        path = where(maps, pc)
        if path != exe:
            counts["[%s]" % os.path.basename(path or "anonymous")] += 1
            continue
        own.append(pc - base)
        i = bisect.bisect_right(addrs, pc - base) - 1
        name = names[i] if i >= 0 else "?"
        counts[pretty(name)] += 1
    if args.dump:
        with open(args.dump, "w") as f:
            f.writelines("%x\n" % pc for pc in own)
    total = len(pcs)
    out = sys.stderr
    print("pcsample: %d samples every %g s, exit %d" % (total, args.interval, code), file=out)
    print("%8s %6s  %s" % ("samples", "self%", "function"), file=out)
    for name, c in counts.most_common(args.top):
        print("%8d %5.1f%%  %s" % (c, 100.0 * c / max(total, 1), name), file=out)
    sys.exit(code)


if __name__ == "__main__":
    main()
