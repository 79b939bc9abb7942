#!/usr/bin/env python3
"""Check that the fused ILP loops compile to one loop body.

    python3 scripts/check_fused_loop.py

Builds the native benchmark (release, offline, into $CARGO_TARGET_DIR or
`nativebench/target`), then disassembles every `ilp_core::pipeline::ilp_run` instance in it (the
fused send and receive loops over `NativeMem`) with `objdump` and lists
the functions each one calls. A call is allowed only into a panic or
formatting path: the stage chain, the word source and the unit sink must
all be inlined into the loop. Exits 1 when any other call is found, or
when no instance is found at all.

What is inlined is the compiler's choice, so the result can change with
the toolchain alone: the script prints the rustc version and target it
checked. It reads x86-64 ELF disassembly with `objdump`, `readelf` and
`nm` (GNU binutils), and exits 2 with "unsupported platform" on any other
host or when those tools are missing.
"""

import os
import platform
import shutil
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Callees that only run on the way to a panic.
ALLOWED = (
    "core::panicking::",
    "core::slice::index::",
    "memsim::region::out_of_region",
)


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "nativebench", "target")
    manifest = os.path.join(ROOT, "nativebench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    return os.path.join(target, "release", "nativebench")


def unsupported(why):
    print(f"unsupported platform: {why}; this check reads x86-64 ELF disassembly with GNU binutils")
    return 2


def main():
    if platform.machine() not in ("x86_64", "AMD64"):
        return unsupported(f"host is {platform.machine()}")
    missing = [t for t in ("objdump", "readelf", "nm") if shutil.which(t) is None]
    if missing:
        return unsupported(f"{', '.join(missing)} not found")
    rustc = dict(
        line.split(": ", 1) for line in run("rustc", "-vV").splitlines() if ": " in line
    )
    toolchain = f"rustc {rustc.get('release', '?')}, target {rustc.get('host', '?')}"
    print(f"checking with {toolchain}")
    binary = build()
    with open(binary, "rb") as f:
        if f.read(4) != b"\x7fELF":
            return unsupported(f"{binary} is not an ELF file")
    # Symbol table, sorted by address: (address, demangled name).
    symbols = []
    for line in run("nm", "-C", "-n", binary).splitlines():
        m = re.match(r"([0-9a-f]+) [tTwW] (.*)$", line)
        if m:
            symbols.append((int(m.group(1), 16), m.group(2)))
    by_addr = {a: n for a, n in symbols}
    # GOT slots: position-independent code calls through them.
    got = {}
    for line in run("readelf", "-rW", binary).splitlines():
        f = line.split()
        if len(f) >= 4 and re.fullmatch(r"[0-9a-f]{8,}", f[0]):
            if f[2].endswith("_RELATIVE"):
                got[int(f[0], 16)] = int(f[3], 16)
            elif len(f) >= 5:
                got[int(f[0], 16)] = f[4].split("@")[0]
    loops = [
        (a, symbols[i + 1][0])
        for i, (a, n) in enumerate(symbols[:-1])
        if n.startswith("ilp_core::pipeline::ilp_run")
    ]
    if not loops:
        print(f"{binary}: no ilp_core::pipeline::ilp_run instance found")
        return 1
    bad = 0
    for start, end in loops:
        asm = run("objdump", "-d", "--no-show-raw-insn", binary,
                  f"--start-address={start:#x}", f"--stop-address={end:#x}")
        callees = {}
        for line in asm.splitlines():
            m = re.search(r"\scall\s+(.*)$", line)
            if not m:
                continue
            target = m.group(1)
            slot = re.search(r"#\s*([0-9a-f]+)", target)
            direct = re.match(r"([0-9a-f]+)\s", target)
            if slot:
                dest = got.get(int(slot.group(1), 16), target)
                name = by_addr.get(dest, dest) if isinstance(dest, int) else dest
            elif direct:
                name = by_addr.get(int(direct.group(1), 16), target)
            else:
                name = target
            callees[str(name)] = callees.get(str(name), 0) + 1
        print(f"ilp_run @ {start:#x} ({end - start} bytes):")
        for name, count in sorted(callees.items()):
            ok = name.startswith(ALLOWED)
            bad += not ok
            print(f"  {'ok ' if ok else 'BAD'} {count:3} x {name}")
    if bad:
        print(f"{bad} call target(s) outside the panic paths: the fused loop is not one body")
        print(f"({toolchain}; if only the toolchain changed, it moved a call out of line:"
              " see DESIGN.md section 6, decision 2)")
        return 1
    print("fused loops call only panic paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
