#!/usr/bin/env bash
# Process-local PC sampler: where an optimized build spends its time.
#
# Builds a small LD_PRELOAD library that arms ITIMER_PROF (CPU time of
# the profiled process only; nothing on the machine changes), records
# the interrupted PC on every SIGPROF and, at exit, writes those PCs
# and /proc/self/maps. The script then maps each PC back to its ELF
# and symbolizes it with `addr2line -i`, printing three tables:
#
#   outermost  the out-of-line function that contains the PC
#   innermost  the (possibly inlined) function the PC is in
#   line       the innermost source line
#
# Unlike gprof this needs no -pg build, so the profiled code is the
# code that runs, and it sees calls into libraries such as libgcc's
# __popcountdi2.
#
# Usage: scripts/pcsample.sh PROGRAM [ARGS...]
#   e.g. scripts/pcsample.sh build/dejavuzz --workers 1 --iters 3000
# The tables go to standard output; the program's own output goes to
# standard error. The exit status is the program's.

set -u

if [ $# -lt 1 ]; then
    echo "usage: $0 PROGRAM [ARGS...]" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1ul << 22)
static unsigned long pcs[MAX_SAMPLES];
static unsigned long count;
static char out[4096];
static pid_t owner;

static void on_prof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    unsigned long n = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (n < MAX_SAMPLES)
#if defined(__x86_64__)
        pcs[n] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        pcs[n] = (unsigned long)uc->uc_mcontext.pc;
#else
#error "pcsample: unsupported architecture"
#endif
}

__attribute__((constructor)) static void start(void)
{
    const char *path = getenv("PCSAMPLE_OUT");
    unsetenv("LD_PRELOAD"); /* child processes run unprofiled */
    if (path == NULL)
        return;
    snprintf(out, sizeof(out), "%s", path);
    owner = getpid();
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void)
{
    if (out[0] == '\0' || getpid() != owner)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = fopen(out, "w");
    if (f == NULL)
        return;
    unsigned long n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; ++i)
        fprintf(f, "pc %lx\n", pcs[i]);
    char line[4096];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps != NULL && fgets(line, sizeof(line), maps) != NULL)
        fprintf(f, "map %s", line);
    if (maps != NULL)
        fclose(maps);
    fclose(f);
}
EOF
if ! cc -O2 -shared -fPIC -o "$WORK/sampler.so" "$WORK/sampler.c"; then
    echo "pcsample: could not build the sampler" >&2
    exit 2
fi

PCSAMPLE_OUT=$WORK/samples LD_PRELOAD=$WORK/sampler.so "$@" >&2
status=$?
if [ ! -s "$WORK/samples" ]; then
    echo "pcsample: no samples written (did $1 exit through exit()?)" >&2
    exit 1
fi

python3 - "$WORK/samples" "$ROOT" <<'EOF'
import collections
import os
import re
import subprocess
import sys

samples_path, root = sys.argv[1], sys.argv[2]
pcs = collections.Counter()
maps = []
with open(samples_path) as f:
    for line in f:
        kind, _, rest = line.partition(" ")
        if kind == "pc":
            pcs[int(rest, 16)] += 1
            continue
        fields = rest.split(None, 5)
        if len(fields) == 6 and "x" in fields[1]:
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))


def load_segments(path):
    """(file offset, size, vaddr) of each PT_LOAD of the ELF at path."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                         text=True).stdout
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[4], 16),
                         int(parts[2], 16)))
    return segs


# PC -> (ELF path, link-time address) through the mapping's file offset.
by_file = collections.defaultdict(dict)
unmapped = 0
segments = {}
for pc, n in pcs.items():
    hit = next((m for m in maps if m[0] <= pc < m[1]), None)
    if hit is None or not hit[3].startswith("/"):
        unmapped += n
        continue
    lo, _, offset, path = hit
    if path not in segments:
        segments[path] = load_segments(path)
    file_off = pc - lo + offset
    vaddr = next((v + file_off - o for o, size, v in segments[path]
                  if o <= file_off < o + size), file_off)
    by_file[path][pc] = vaddr


def short_name(name):
    """Drop a trailing parameter list, keeping (anonymous namespace)."""
    name = re.sub(r"\s+const$", "", name)
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(name[i], 0)
        if depth == 0:
            return name[:i]
    return name


def short_path(path, elf):
    """A source path relative to the repository (the profiled tree's,
    when that is another checkout); the ELF's name when unknown."""
    if path.startswith("??"):
        return f"[{os.path.basename(elf)}]"
    if path.startswith(root + "/"):
        return os.path.relpath(path, root)
    cut = path.rfind("/src/")
    return path[cut + 1:] if cut >= 0 and "/usr/" not in path else path


# PC -> inline chain [(function, file, line)], innermost first.
frames = {}
for path, addrs in by_file.items():
    order = list(addrs)
    query = "".join(f"{addrs[pc]:x}\n" for pc in order)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                         input=query, capture_output=True,
                         text=True).stdout.splitlines()
    records, i = [], 0
    while i < len(out):
        if out[i].startswith("0x"):
            records.append([])
            i += 1
            continue
        func = out[i]
        where = out[i + 1] if i + 1 < len(out) else "??:0"
        file, _, line = where.rpartition(":")
        line = line.split()[0] if line else "0"
        records[-1].append((short_name(func), short_path(file, path),
                            line))
        i += 2
    for pc, chain in zip(order, records):
        frames[pc] = chain or [("??", short_path("??", path), "?")]

total = sum(pcs.values())
tables = {"outermost": collections.Counter(),
          "innermost": collections.Counter(),
          "line": collections.Counter()}
for pc, n in pcs.items():
    chain = frames.get(pc)
    if chain is None:
        continue
    inner, outer = chain[0], chain[-1]
    tables["innermost"][(inner[0], inner[1])] += n
    tables["outermost"][(outer[0], outer[1])] += n
    tables["line"][(inner[0], f"{inner[1]}:{inner[2]}")] += n

print(f"pcsample: {total} samples ({unmapped} outside any ELF mapping)")
for title, table in tables.items():
    print(f"\n# {title}")
    for (func, where), n in table.most_common(25):
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {where}  {func}")
EOF
exit $status
