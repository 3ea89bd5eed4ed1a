#!/usr/bin/env python3
"""Fold the samples of tools/sampler into inclusive and self shares.

Usage:
  python3 tools/sampler/fold.py run.samples [--root NAME] [--top N]
                                [--expect NAME ...]

`run.samples` is what libumsampler.so writes at exit (see sampler.cpp): one
`S` line of addresses per sample, innermost first, then the process's maps.
Each address is mapped to its object and file offset through the maps, then
to a virtual address through the object's ELF program headers, and
symbolized with `addr2line -f -C -i`, so inlined calls count as frames of
their own.

Only samples with a frame of `--root` (default `umiddle::sim::Scheduler::step`,
perfbench's timed loop and every simulation's event loop) are folded; shares
are of those samples. A function's inclusive share counts the samples in
which it is on the stack at or above the root; its self share counts the
samples in which it is the innermost frame.

An object without a symbol table is named by the object, e.g. `[libc.so.6]`:
addr2line's nearest-symbol guess in a stripped library names the nearest
exported function, which is often not the one that ran (a stripped libc's
memmove reads as `__nss_database_lookup`, its malloc internals as
`__default_morecore` or `timer_settime`).

`--expect NAME` (repeatable) makes the exit status 1 unless a function whose
name contains NAME has a non-zero inclusive share.
"""

from __future__ import annotations

import argparse
import collections
import os
import re
import struct
import subprocess
import sys

ROOT_DEFAULT = "umiddle::sim::Scheduler::step"
ADDRESS = re.compile(r"^0x[0-9a-f]+$")


class Elf:
    """The parts of an ELF file the symbolization needs."""

    def __init__(self, path: str):
        self.loads: list[tuple[int, int, int]] = []  # (p_offset, p_filesz, p_vaddr)
        self.has_symtab = False
        with open(path, "rb") as f:
            data = f.read()
        if data[:4] != b"\x7fELF" or data[4] != 2:  # 64-bit only
            return
        end = "<" if data[5] == 1 else ">"
        phoff, shoff = struct.unpack_from(end + "QQ", data, 0x20)
        phentsize, phnum, shentsize, shnum = struct.unpack_from(end + "HHHH", data, 0x36)
        for i in range(phnum):
            base = phoff + i * phentsize
            p_type, _flags, p_offset, p_vaddr = struct.unpack_from(end + "IIQQ", data, base)
            p_filesz = struct.unpack_from(end + "Q", data, base + 0x20)[0]
            if p_type == 1:  # PT_LOAD
                self.loads.append((p_offset, p_filesz, p_vaddr))
        for i in range(shnum):
            sh_type = struct.unpack_from(end + "I", data, shoff + i * shentsize + 4)[0]
            if sh_type == 2:  # SHT_SYMTAB
                self.has_symtab = True

    def vaddr(self, file_offset: int) -> int | None:
        for p_offset, p_filesz, p_vaddr in self.loads:
            if p_offset <= file_offset < p_offset + p_filesz:
                return file_offset - p_offset + p_vaddr
        return None


def read_samples(path: str):
    samples: list[list[int]] = []
    maps: list[tuple[int, int, int, str]] = []  # (start, end, offset, object path)
    dropped = 0
    with open(path) as f:
        for line in f:
            if line.startswith("S"):
                samples.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("M "):
                fields = line[2:].split(None, 5)
                if len(fields) < 6:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
            elif line.startswith("# umsampler"):
                for field in line.split():
                    if field.startswith("dropped="):
                        dropped = int(field.split("=")[1])
    return samples, maps, dropped


def object_of(addr: int, maps) -> tuple[str, int] | None:
    for lo, hi, offset, path in maps:
        if lo <= addr < hi:
            return path, addr - lo + offset
    return None


def addr2line(path: str, addrs: list[int]) -> dict[int, list[str]]:
    """Function names per address, innermost inlined call first."""
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", path],
                         input="".join(f"{a:#x}\n" for a in addrs),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    names: dict[int, list[str]] = {}
    current = None
    is_name = False  # lines alternate: function name, then file:line
    for line in out:
        if ADDRESS.match(line):
            current = int(line, 16)
            names[current] = []
            is_name = True
        elif current is not None:
            if is_name:
                names[current].append(line)
            is_name = not is_name
    return names


def symbolize(samples, maps) -> list[list[str]]:
    """Each sample as function names, innermost first. Frames after the
    first are return addresses, so they are looked up one byte earlier."""
    wanted: dict[int, None] = {}
    for sample in samples:
        wanted[sample[0]] = None
        for a in sample[1:]:
            wanted[a - 1] = None
    by_object: dict[str, dict[int, int]] = collections.defaultdict(dict)
    names: dict[int, list[str]] = {}
    elves: dict[str, Elf | None] = {}
    for addr in wanted:
        hit = object_of(addr, maps)
        if hit is None:
            names[addr] = ["[unknown]"]
            continue
        path, offset = hit
        label = f"[{os.path.basename(path)}]" if not path.startswith("[") else path
        if path not in elves:
            try:
                elves[path] = Elf(path) if os.path.isfile(path) else None
            except (OSError, struct.error):
                elves[path] = None
        elf = elves[path]
        vaddr = elf.vaddr(offset) if elf is not None else None
        if elf is None or not elf.has_symtab or vaddr is None:
            names[addr] = [label]
        else:
            by_object[path][vaddr] = addr
    for path, vaddrs in by_object.items():
        label = f"[{os.path.basename(path)}]"
        found = addr2line(path, list(vaddrs))
        for vaddr, addr in vaddrs.items():
            frames = [n for n in found.get(vaddr, []) if n != "??"]
            names[addr] = frames or [label]
    folded = []
    for sample in samples:
        frames = list(names[sample[0]])
        for a in sample[1:]:
            frames.extend(names[a - 1])
        folded.append(frames)
    return folded


def fold(stacks: list[list[str]], root: str):
    """Inclusive and self counts over the stacks that reach `root`, counting
    only the frames at or above the outermost root frame."""
    inclusive: collections.Counter[str] = collections.Counter()
    self_: collections.Counter[str] = collections.Counter()
    rooted = 0
    for stack in stacks:
        depth = max((i for i, name in enumerate(stack) if name.startswith(root)), default=-1)
        if depth < 0:
            continue
        rooted += 1
        self_[stack[0]] += 1
        for name in set(stack[: depth + 1]):
            inclusive[name] += 1
    return rooted, inclusive, self_


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--root", default=ROOT_DEFAULT)
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--expect", action="append", default=[])
    args = ap.parse_args()

    samples, maps, dropped = read_samples(args.samples)
    rooted, inclusive, self_ = fold(symbolize(samples, maps), args.root)
    print(f"# {args.samples}: {len(samples)} samples, {rooted} under {args.root}"
          f" ({dropped} dropped)")
    if rooted == 0:
        print(f"fold: no sample reached {args.root}", file=sys.stderr)
        return 1
    print(f"{'inclusive':>9} {'self':>6}  function")
    for name, count in inclusive.most_common(args.top):
        print(f"{100 * count / rooted:8.1f}% {100 * self_[name] / rooted:5.1f}%  {name[:110]}")
    print(f"{'self':>9}         function (by self share)")
    for name, count in self_.most_common(args.top):
        print(f"{100 * count / rooted:8.1f}%         {name[:110]}")
    missing = [e for e in args.expect if not any(e in name for name in inclusive)]
    for e in missing:
        print(f"fold: no folded function names {e!r}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
