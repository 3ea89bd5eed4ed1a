#!/usr/bin/env python3
"""Project-invariant linter for the uMiddle tree.

Enforces repo-specific correctness rules that no off-the-shelf tool knows.
The reproduction's central claim is that every run of the simulated world is
deterministic (DESIGN.md, "Correctness & determinism"); most of these rules
exist to keep nondeterminism from leaking back in:

  wall-clock   src/ may not read host time: no std::chrono::system_clock /
               steady_clock / high_resolution_clock, no time()/gettimeofday/
               clock_gettime, no <ctime>. Virtual time (sim::Scheduler) only.
  randomness   src/ may not use std::rand/srand, std::random_device, <random>,
               or getpid/this_thread ids as entropy. The seeded splitmix64 Rng
               in common/rand.hpp is the only sanctioned randomness source.
  threads      sim-deterministic modules may not include <thread>, <mutex>,
               <condition_variable>, <future> or <atomic>: the discrete-event
               core is single-threaded by contract. (common/log.* is the one
               sanctioned exception — the host-side log sink is thread-safe.)
  ptr-keys     no std::unordered_map/unordered_set keyed on a raw pointer:
               iteration order would depend on allocation addresses, which
               differ between runs and would break the trace-digest audit.
  new-delete   no raw new/delete expressions; ownership goes through
               std::unique_ptr/std::shared_ptr (make_unique/make_shared).
  nodiscard    every function declared in a header with a Result<...> return
               must be [[nodiscard]] (belt and braces on top of the
               class-level [[nodiscard]]: the annotation survives even if the
               class attribute is ever lost, and documents intent at the API).
  fault-loss   no direct mutation of a segment's `.loss` field outside
               src/netsim/fault.cpp: packet loss (like every injected fault)
               goes through net.faults().set_loss()/set_burst_loss() so the
               FaultPlane's introspection counters stay authoritative.
  ack-origin   no AckFrame construction outside src/core/{umtp,transport}.cpp:
               acks retire sender ledger entries (DESIGN.md §11), so a frame
               fabricated elsewhere could discard undelivered messages.
  range-copy   no by-value `for (auto x : ...)` range-for loops in src/: an
               `auto` loop variable deep-copies every element (profiles,
               frames, std::function events), which is exactly the class of
               hidden copy PR 2 removed from the hot paths. Iterate by
               `const auto&` (or `auto&` / `auto&&` when mutating).
  one-fate-site
               every message-fate counter name ("delivery.expired",
               "delivery.discarded", ...) appears once in src/, in the fate
               table of src/core/transport.cpp, and the PathStats fields
               messages_dropped / _shed / _expired / _blocked are assigned
               only inside Transport::retire: every way a message leaves the
               transport is one row of one table, so fate accounting has one
               implementation.
  one-import-site
               outside src/core/, nothing in src/ calls instantiate( or
               unmap( on a Runtime: mappers import and withdraw devices
               through the Mapper import table (DESIGN.md §7.5), so
               device→translator bookkeeping has one implementation.
  one-reassembly-site
               appending a received chunk to a buffer
               (`insert(..., chunk.begin(), chunk.end())`) appears only in
               src/common/frame_reader.hpp: every stream protocol reassembles
               through FrameReader with its own decode step (DESIGN.md §7.6),
               so the buffer, cursor, size bound and poisoning have one
               implementation.
  one-frame-feed
               a reader's feed( (`reader.feed(`, `reader->feed(`) appears in
               src/ only in src/netsim/exchange.hpp and src/fuzz/: every
               stream turns chunks into frames through net::frames, so the
               frame vector, the log line and the poison rule (close the
               stream, or run the caller's on_poison, then hand on nothing
               more) have one implementation (DESIGN.md §7.6).
  netsim-by-handle
               in src/netsim/, no container keyed by std::string or Endpoint
               (std::map<Endpoint, std::set<std::string>,
               unordered_map<std::string, ...) and no std::vector of names
               scanned by string compare: hosts and multicast groups are
               HostId and GroupId handles inside the simulator and names
               resolve once at the API (DESIGN.md §8.5), so string keys stay
               off the frame path. The two name indexes in
               src/netsim/network.hpp, host_ids_ and group_ids_, are exempt.
  netsim-free-session
               src/core/link_session.{hpp,cpp}, src/core/path_queue.*,
               src/core/qos.*, src/core/directory_table.* and
               src/core/registrations.hpp include no netsim/, sim/ or obs/
               header: the link lifecycle, the path queue, the directory's
               rules and the native registration rules stay value types that
               tests drive, and explore exhaustively, without a simulated
               network (DESIGN.md §7.8, §7.10, §10.2, §11.6).
  one-directory-rule
               outside src/core/directory_table.*, no src/ file notifies a
               directory listener with a profile (`->on_mapped(p)`,
               `.on_unmapped(p)`) or compares a `last_seen`: which
               translators a runtime knows, and when a silent one expires,
               are decided once, by core::DirectoryTable and
               core::unseen_before (DESIGN.md §7.8). Translator hooks take no
               argument and stay legal.
  one-path-queue
               in src/, ShedPolicy:: and TokenBucket appear only in
               core/qos.* and core/path_queue.*, and deadline_passed( only in
               core/message.hpp, core/path_queue.*, core/link_session.cpp
               and once in core/transport.cpp (the receive-side check):
               admission, shedding, shaping and sender-side expiry of a path
               have one implementation, core::PathQueue (DESIGN.md §11.6).
  untagged-event
               every schedule_after / schedule_at / post call and every
               sim::Timer construction in src/ passes a non-empty EventTag, so
               each dispatched event is attributable in the trace digest and
               in per-tag host-cost profiles.
  one-usdl-translator
               outside src/core/, nothing in src/ calls
               profile().shape.find(, bindings_for( or
               set_hierarchy_entities(: the six platform translators derive
               from core::UsdlTranslator, which alone looks up bindings and
               ports, types emitted messages by their port and takes identity
               and hierarchy entities from the USDL description (DESIGN.md
               §7.7), so each USDL rule has one implementation.
  inline-callback
               no boxed( anywhere in src/: every scheduled capture fits
               sim::Callback's inline buffer, so scheduling allocates
               nothing (DESIGN.md §8.1). State too large for it is parked in
               a Slots<T> table and the event captures its key.
  byte-order   outside src/common/, nothing in src/ shifts a subscripted byte
               left by a multiple of 8 (`(buf[1] << 8) | buf[2]`): multi-byte
               wire integers are read only through ByteReader, whose first
               underrun latches (DESIGN.md §7.6), so byte order and bounds
               checks have one implementation.
  one-kernel   src/ includes no ISA intrinsics header (<immintrin.h>,
               <x86intrin.h>, <emmintrin.h>, <tmmintrin.h>, <arm_neon.h>)
               and uses no __builtin_cpu_supports, __attribute__((target(
               ([[gnu::target(]) or target_clones: each payload kernel (base64, the XML escape
               scan) has one implementation, in plain C++ or GCC/Clang vector
               extensions, that builds for every target with no runtime
               dispatch (DESIGN.md §8.3).
  sized-frame  in src/core/umtp.cpp, src/mediabroker/ and
               src/bluetooth/obex.cpp no ByteWriter is default-constructed:
               each frame encoder a workload runs computes its frame's size
               and builds it in one buffer of exactly that size, so a frame
               never regrows (DESIGN.md §8.4).
  span-name-literal
               in src/, the name argument of begin_span( / instant( is a
               string literal, a fate-table field or an interned id, never
               text built at run time (`+`, std::string(, to_string(): span
               names share the tracer's intern table with host tracks, which
               stays a closed set (DESIGN.md §9.2).
  one-http-head
               the CRLF literal ("\\r\\n") appears in src/ code only in
               src/upnp/http.cpp: SOAP, GENA and SSDP messages are HTTP heads,
               read by upnp::parse_head and written by upnp::write_message, so
               framing, case folding, the colon rule and the field syntax
               have one implementation (DESIGN.md §7.9).
  one-native-queue
               in src/upnp/, src/bluetooth/, src/rmi/ and src/webservice/, no
               busy or in-flight flag (`bool busy_`, `bool in_flight_`), no
               call queue (a std::deque or std::queue named *queue_ or
               *calls_) and no process_next: a platform translator's native
               calls run one at a time through core::UsdlTranslator's
               run_native/native_done, so the serial-call rule and its
               readiness have one implementation (DESIGN.md §7.7).
  one-registration-table
               in the five native servers' headers (MbServer, UpnpDevice,
               WsService, WsRegistry, RmiRegistry), no std::map, std::set or
               std::vector member of registrations (a member named *streams_,
               *watchers_, *consumers_, *subscribers_, *subscriptions_,
               *entries_, *bindings_ or *registrations_): who registered what
               is a core::Registrations, whose idempotent add, owner-only
               remove and drop_owner are the one implementation of those rules
               (DESIGN.md §7.10).
  message-moves-once
               in src/core/, no function takes a core::Message or a
               umtp::Frame by value (Translator::emit and
               UsdlTranslator::emit_typed, the public entry, excepted): an
               emitted message moves once, into the shared Message its paths
               hold, and a received one is decoded into the reader's frame
               and delivered from there, so a by-value parameter on the hop
               is a hidden move of every message (DESIGN.md §8.4).
  decode-once  in src/, umtp::decode_body( appears only in src/core/umtp.*
               and src/fuzz/: the reader decodes each received frame once,
               into the frame it hands on, a SEQ replay's inner frame with
               its envelope, so a receive path that decodes a body again
               (or copies it out to do so) is a second decode of every
               frame it touches (DESIGN.md §7.6).
  ascii-text   outside src/common/strings.*, nothing in src/ names
               isspace, isalpha, isalnum, isdigit, isxdigit, tolower or
               toupper: protocol text is classified by the constexpr ASCII
               tests in common/strings.hpp, so no wire parser's result
               depends on the locale an embedding program sets, and none
               pays an out-of-line <cctype> call per byte (DESIGN.md §7.3).

Run directly:      python3 tools/lint.py --root .
                   (on success it also prints src/'s counted lines: the
                   non-blank, non-// lines of src/**/*.{cpp,hpp}, the size
                   ROADMAP.md tracks)
Run via ctest:     ctest -R lint
Self-test (proves every rule still fires on a seeded violation):
                   python3 tools/lint.py --root . --self-test
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Callable, Iterable, NamedTuple

SRC_EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}


class Violation(NamedTuple):
    rule: str
    path: str
    line: int
    text: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.text}"


def strip_comments_and_strings(source: str, keep_strings: bool = False) -> str:
    """Blank out comments and string/char literals, preserving line numbers.

    A lexer-grade pass is overkill; this handles //, /* */, "...", '...' and
    raw R"delim(...)delim" literals well enough for token bans (escaped quotes
    included). With keep_strings, literals are kept verbatim and only comments
    are blanked.
    """
    out = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == '"' and i > 0 and source[i - 1] == "R" and "(" in source[i:i + 18]:
            delim = source[i + 1:source.index("(", i)]
            j = source.find(")" + delim + '"', i)
            end = n if j == -1 else j + len(delim) + 2
            body = source[i + 1:end - 1]
            if not keep_strings:
                body = "".join(ch if ch == "\n" else " " for ch in body)
            out.append('"' + body + '"')
            i = end
        elif c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in source[i:end]))
            i = end
        elif c in ('"', "'"):
            quote = c
            j = i + 1
            while j < n and source[j] != quote:
                j += 2 if source[j] == "\\" else 1
            if keep_strings:
                out.append(source[i:j + 1])
            else:
                out.append(quote + " " * max(0, min(j, n) - i - 1))
                if j < n:
                    out.append(quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --- rules ----------------------------------------------------------------------

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"),
     "host clock read; simulated code uses virtual time (sim::Scheduler::now)"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)::now\b"),
     "host clock read; simulated code uses virtual time (sim::Scheduler::now)"),
    (re.compile(r"(?:\btime|\bgettimeofday|\bclock_gettime|\blocaltime|\bgmtime)\s*\("),
     "C time API; simulated code uses virtual time (sim::Scheduler::now)"),
    (re.compile(r"#\s*include\s*<ctime>"), "<ctime> banned in src/ (virtual time only)"),
]

RANDOMNESS_PATTERNS = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("),
     "unseeded C randomness; use the splitmix64 Rng from common/rand.hpp"),
    (re.compile(r"\brandom_device\b"),
     "entropy source; use the seeded Rng from common/rand.hpp"),
    (re.compile(r"#\s*include\s*<random>"),
     "<random> banned in src/; common/rand.hpp Rng is the only randomness source"),
    (re.compile(r"\bgetpid\s*\(|\bthis_thread::get_id\b"),
     "process/thread identity as entropy breaks reproducibility"),
]

THREADING_RE = re.compile(r"#\s*include\s*<(thread|mutex|condition_variable|future|atomic)>")
# The log sink is host-side infrastructure shared with (future) threaded
# front-ends; it is the only module allowed to synchronize.
THREADING_ALLOWLIST = {"src/common/log.cpp", "src/common/log.hpp"}

PTR_KEY_RE = re.compile(r"unordered_(?:map|set)\s*<[^,>]*\*")

NEW_DELETE_RE = re.compile(r"(?<![:\w])(?:new|delete(?:\s*\[\s*\])?)\s+[A-Za-z_(]")
NEW_DELETE_ALLOW_RE = re.compile(r"=\s*delete\b")  # deleted special members

RESULT_DECL_RE = re.compile(r"^\s*(?:virtual\s+)?Result<[^;{}]*>\s+\w+\s*\(")
NODISCARD_RE = re.compile(r"\[\[nodiscard\]\]")

# A range-for whose loop variable is a plain (possibly const) `auto` — i.e. a
# deep copy per element. By-reference forms (`auto&`, `const auto&`, `auto&&`)
# and pointers (`auto*`) never match because `auto` is then not followed by
# whitespace-then-identifier. Classic `for (auto it = ...; ...)` loops are
# excluded: the match must reach a standalone `:` (not `::`) before any `;`
# or parenthesis.
RANGE_FOR_COPY_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s+(?![&*])[A-Za-z_\[][^;()]*?(?<!:):(?!:)")

# Loss (and fault state generally) is owned by the per-world FaultPlane: a
# direct write to a SegmentSpec's `.loss` field bypasses the fault plane's
# introspection counters and its determinism accounting, so injected faults
# would not show up in fault.* metrics or the chaos tests' same-seed replay.
# fault.cpp itself is the single sanctioned writer.
FAULT_LOSS_RE = re.compile(r"\.\s*loss\s*=(?!=)")
FAULT_LOSS_ALLOWLIST = {"src/netsim/fault.cpp"}

# Telemetry instruments must be per-world (owned by net::Network): a `static`
# or `inline` variable — or a static/inline accessor returning one — would be
# shared across worlds in one process, so a second same-seed run would observe
# the first run's counts and the byte-identical-snapshot contract would break.
# (`static_cast`/`static_assert` never match: no word boundary after "static".)
GLOBAL_TELEMETRY_RE = re.compile(
    r"\b(?:static|inline)\b[^;{(]*\b(?:MetricsRegistry|Tracer|Counter|Gauge|Histogram)\b")


def scan_tokens(path: str, code: str, patterns, rule: str) -> Iterable[Violation]:
    for lineno, line in enumerate(code.splitlines(), 1):
        for pattern, why in patterns:
            if pattern.search(line):
                yield Violation(rule, path, lineno, why)


def check_wall_clock(path: str, code: str) -> Iterable[Violation]:
    yield from scan_tokens(path, code, WALL_CLOCK_PATTERNS, "wall-clock")


def check_randomness(path: str, code: str) -> Iterable[Violation]:
    yield from scan_tokens(path, code, RANDOMNESS_PATTERNS, "randomness")


def check_threading(path: str, code: str) -> Iterable[Violation]:
    if path in THREADING_ALLOWLIST:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        m = THREADING_RE.search(line)
        if m:
            yield Violation("threads", path, lineno,
                            f"<{m.group(1)}> in a sim-deterministic module "
                            "(the event core is single-threaded by contract)")


def check_pointer_keys(path: str, code: str) -> Iterable[Violation]:
    for lineno, line in enumerate(code.splitlines(), 1):
        if PTR_KEY_RE.search(line):
            yield Violation("ptr-keys", path, lineno,
                            "unordered container keyed on a pointer: iteration "
                            "order follows allocation addresses and diverges "
                            "across runs (use an Id type or an ordered map)")


def check_new_delete(path: str, code: str) -> Iterable[Violation]:
    for lineno, line in enumerate(code.splitlines(), 1):
        if NEW_DELETE_ALLOW_RE.search(line):
            continue
        if NEW_DELETE_RE.search(line):
            yield Violation("new-delete", path, lineno,
                            "raw new/delete; ownership goes through "
                            "std::make_unique / std::make_shared")


def check_nodiscard(path: str, code: str) -> Iterable[Violation]:
    if not path.endswith((".hpp", ".h")):
        return
    lines = code.splitlines()
    for lineno, line in enumerate(lines, 1):
        if not RESULT_DECL_RE.match(line):
            continue
        prev = lines[lineno - 2] if lineno >= 2 else ""
        if NODISCARD_RE.search(line) or NODISCARD_RE.search(prev):
            continue
        yield Violation("nodiscard", path, lineno,
                        "Result-returning declaration without [[nodiscard]]")


def check_range_for_copy(path: str, code: str) -> Iterable[Violation]:
    for lineno, line in enumerate(code.splitlines(), 1):
        if RANGE_FOR_COPY_RE.search(line):
            yield Violation("range-copy", path, lineno,
                            "by-value `for (auto x : ...)` deep-copies every "
                            "element; iterate by `const auto&` (or `auto&` / "
                            "`auto&&` when mutating)")


def check_fault_loss(path: str, code: str) -> Iterable[Violation]:
    if path in FAULT_LOSS_ALLOWLIST:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if FAULT_LOSS_RE.search(line):
            yield Violation("fault-loss", path, lineno,
                            "direct segment loss mutation; go through "
                            "net.faults().set_loss()/set_burst_loss() so the "
                            "fault plane's accounting stays authoritative")


# An ACK frame drives the sender's retire/dedup ledger (DESIGN.md §11): a
# fabricated one can acknowledge — and silently discard — messages that were
# never delivered. Only the UMTP codec and the transport session machinery may
# construct one; everything else (including tests probing the receive path)
# must hand-assemble raw bytes so the forgery is explicit at the call site.
# The pattern matches brace construction, not mentions: `std::get_if<AckFrame>`
# and friends stay legal everywhere.
ACK_ORIGIN_RE = re.compile(r"\bAckFrame\s*\{")
ACK_ORIGIN_ALLOWLIST = {
    "src/core/umtp.hpp",       # the frame definition itself
    "src/core/umtp.cpp",       # codec: decode materialises received ACKs
    "src/core/transport.cpp",  # session machinery: the only legitimate sender
}


def check_ack_origin(path: str, code: str) -> Iterable[Violation]:
    if path in ACK_ORIGIN_ALLOWLIST:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if ACK_ORIGIN_RE.search(line):
            yield Violation("ack-origin", path, lineno,
                            "AckFrame constructed outside the transport "
                            "session machinery; acks retire ledger entries, "
                            "so only src/core/{umtp,transport}.cpp may build "
                            "them (DESIGN.md §11)")


# Message fates have one implementation (DESIGN.md §11, the fate table): each
# fate's counter is named once, in the fate table of transport.cpp, and only
# Transport::retire, which applies a row of it, writes the PathStats fate
# fields. A second mention of a fate counter, or a fate field bumped anywhere
# else, is a second accounting path for that fate, which is how the sites
# drifted apart before they were merged. Matched on literals, so this check
# sees comment-stripped code with strings.
FATE_COUNTERS = ("delivery.blocked", "delivery.shed_newest", "delivery.shed_oldest",
                 "delivery.shed_latest", "delivery.expired", "delivery.breaker_dropped",
                 "delivery.unmapped", "delivery.no_route", "recovery.outage_dropped",
                 "delivery.unacked_dropped", "delivery.discarded")
FATE_COUNTER_RE = re.compile(r'"(%s)"' % "|".join(map(re.escape, FATE_COUNTERS)))
FATE_FIELD = r"(?:\.|->)\s*messages_(?:dropped|shed|expired|blocked)\b"
FATE_FIELD_WRITE_RE = re.compile(
    r"(?:\+\+|--)\s*[\w.>-]*%s|%s\s*(?:\+\+|--|[-+*/%%|&^]?=(?!=))" % (FATE_FIELD, FATE_FIELD))
FATE_SITE = "src/core/transport.cpp"
RETIRE_DEF_RE = re.compile(r"\bTransport::retire\s*\(")


def closing(code: str, at: int) -> int:
    """Index of the bracket closing the one at code[at]."""
    depth = 0
    for i in range(at, len(code)):
        depth += {"(": 1, "{": 1, ")": -1, "}": -1}.get(code[i], 0)
        if depth == 0:
            return i
    return len(code)


def function_body_lines(code: str, name: re.Pattern) -> range:
    """Line numbers of the body of the function defined as `name(...) {...}`."""
    for m in name.finditer(code):
        after = code[closing(code, m.end() - 1) + 1:]
        if not after.lstrip().startswith("{"):
            continue  # a declaration or a call
        start = len(code) - len(after.lstrip())
        return range(code.count("\n", 0, start) + 1, code.count("\n", 0, closing(code, start)) + 2)
    return range(0)


def check_one_fate_site(path: str, code: str) -> Iterable[Violation]:
    named: set[str] = set()
    retire = function_body_lines(code, RETIRE_DEF_RE) if path == FATE_SITE else range(0)
    for lineno, line in enumerate(code.splitlines(), 1):
        for m in FATE_COUNTER_RE.finditer(line):
            if path == FATE_SITE and m.group(1) not in named:
                named.add(m.group(1))
                continue
            yield Violation("one-fate-site", path, lineno,
                            f'"{m.group(1)}" outside the fate table; retire '
                            "messages through Transport::retire(Fate::...) so "
                            f"each fate keeps one accounting ({FATE_SITE})")
        if FATE_FIELD_WRITE_RE.search(line) and lineno not in retire:
            yield Violation("one-fate-site", path, lineno,
                            "PathStats fate field written outside "
                            "Transport::retire; retire the message with its "
                            "Fate so the table decides its accounting")


# Device import has one implementation (DESIGN.md §7.5): mappers call the
# Mapper import table, which alone calls Runtime::instantiate/unmap and so
# alone decides what an in-flight import, a vanished device or a restart does.
# A member call of either name outside src/core/ is a second import path.
IMPORT_CALL_RE = re.compile(r"(?:\.|->)\s*(instantiate|unmap)\s*\(")
IMPORT_SITE_DIR = "src/core/"


def check_one_import_site(path: str, code: str) -> Iterable[Violation]:
    if path.startswith(IMPORT_SITE_DIR):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        m = IMPORT_CALL_RE.search(line)
        if m:
            yield Violation("one-import-site", path, lineno,
                            f"Runtime::{m.group(1)} outside src/core/; import "
                            "and withdraw devices through the Mapper import "
                            "table (import/gone/forget_unseen)")


# The USDL rules live once, in core::UsdlTranslator (DESIGN.md §7.7): a port
# lookup, a per-port binding search or a hierarchy count set outside src/core/
# is a platform translator re-implementing one of them.
USDL_RULE_RE = re.compile(r"\bprofile\s*\(\s*\)\s*\.\s*shape\s*\.\s*find\s*\(|"
                          r"\b(?:bindings_for|set_hierarchy_entities)\s*\(")
USDL_RULE_DIR = "src/core/"


def check_one_usdl_translator(path: str, code: str) -> Iterable[Violation]:
    if path.startswith(USDL_RULE_DIR):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        m = USDL_RULE_RE.search(line)
        if m:
            yield Violation("one-usdl-translator", path, lineno,
                            f"{m.group(0)} outside src/core/; "
                            "derive from core::UsdlTranslator and use its "
                            "find_binding/bindings/emit_typed")


# netsim keys hosts and groups by HostId and GroupId (DESIGN.md §8.5): a
# std::string or Endpoint key inside src/netsim/, or a vector of names that a
# membership test scans, would bring name hashing and string compares back
# onto the per-frame path. Only the two name indexes may key by name.
STRING_KEY_RE = re.compile(r"\b(?:(?:unordered_)?(?:multi)?(?:map|set)|vector)\s*<\s*"
                           r"(?:const\s+)?(?:std::string|(?:net::)?Endpoint)\b")
NAME_INDEX_RE = re.compile(r"\bmap\s*<\s*std::string\s*,\s*(?:HostId\s*>\s*host_ids_|"
                           r"GroupId\s*>\s*group_ids_)\b")
NAME_INDEX_SITE = "src/netsim/network.hpp"


def check_netsim_by_handle(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/netsim/"):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if path == NAME_INDEX_SITE and NAME_INDEX_RE.search(line):
            continue
        if STRING_KEY_RE.search(line):
            yield Violation("netsim-by-handle", path, lineno,
                            "container keyed by std::string or Endpoint, or "
                            "list of names, in netsim; key by HostId (and "
                            "port) or GroupId and resolve names once at the "
                            "API")


# Stream reassembly has one implementation (DESIGN.md §7.6): FrameReader owns
# the receive buffer, so a second buffer that received chunks are appended to
# is a second reassembler, with its own (missing) size bound and poisoning.
CHUNK_APPEND_RE = re.compile(r"\binsert\s*\([^;]*\bchunk\s*\.\s*begin\s*\(\s*\)\s*,"
                             r"\s*chunk\s*\.\s*end\s*\(\s*\)")
REASSEMBLY_SITE = "src/common/frame_reader.hpp"


def check_one_reassembly_site(path: str, code: str) -> Iterable[Violation]:
    if path == REASSEMBLY_SITE:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if CHUNK_APPEND_RE.search(line):
            yield Violation("one-reassembly-site", path, lineno,
                            "received chunk appended to a private buffer; "
                            "reassemble through FrameReader with a decode "
                            f"step ({REASSEMBLY_SITE})")


# Chunks become frames in one place (DESIGN.md §7.6): net::frames feeds the
# reader and applies the one poison rule. A feed( anywhere else is a second
# chunk loop that decides for itself what a poisoned stream does. The fuzz
# entries drive readers directly, with no stream.
FEED_RE = re.compile(r"(?:\.|->)\s*feed\s*\(")
FEED_SITES = ("src/netsim/exchange.hpp", "src/fuzz/")


def check_one_frame_feed(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/") or path.startswith(FEED_SITES):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if FEED_RE.search(line):
            yield Violation("one-frame-feed", path, lineno,
                            "reader fed outside net::frames; hand the stream "
                            f"a net::frames<Reader> handler ({FEED_SITES[0]})")


# The link lifecycle, the path queue, the directory's rules and the native
# registration rules are netsim-free value types (DESIGN.md §7.8, §7.10,
# §10.2, §11.6): their files may not include the simulator, the network or
# telemetry.
SESSION_FILES = {"src/core/link_session.hpp", "src/core/link_session.cpp",
                 "src/core/path_queue.hpp", "src/core/path_queue.cpp",
                 "src/core/qos.hpp", "src/core/qos.cpp",
                 "src/core/directory_table.hpp", "src/core/directory_table.cpp",
                 "src/core/registrations.hpp"}
SESSION_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](netsim|sim|obs)/')


def check_netsim_free_session(path: str, code: str) -> Iterable[Violation]:
    if path not in SESSION_FILES:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        m = SESSION_INCLUDE_RE.search(line)
        if m:
            yield Violation("netsim-free-session", path, lineno,
                            f"{m.group(1)}/ header in a netsim-free value "
                            "type; it takes events and hands back decisions, "
                            "and Transport carries them out")


# A path's translation buffer has one implementation (DESIGN.md §11.6):
# core::PathQueue decides admission, shedding, shaping and sender-side expiry.
# A shedding policy, a token bucket or a deadline check anywhere else is a
# second copy of one of those rules. Transport keeps one deadline check, on
# the receive side, where no path holds the message.
PATH_QUEUE_FILES = ("src/core/qos.", "src/core/path_queue.")
PATH_QUEUE_RE = re.compile(r"\bShedPolicy::|\bTokenBucket\b")
DEADLINE_CHECK_RE = re.compile(r"\bdeadline_passed\s*\(")
DEADLINE_CHECK_SITES = ("src/core/message.hpp", "src/core/path_queue.",
                        "src/core/link_session.cpp")
DEADLINE_CHECKS_IN_TRANSPORT = 1


def check_one_path_queue(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/") or path.startswith(PATH_QUEUE_FILES):
        return
    checks = 0
    for lineno, line in enumerate(code.splitlines(), 1):
        if PATH_QUEUE_RE.search(line):
            yield Violation("one-path-queue", path, lineno,
                            "shedding policy or token bucket outside the "
                            "path queue; decide it in core::PathQueue")
        if DEADLINE_CHECK_RE.search(line) and not path.startswith(DEADLINE_CHECK_SITES):
            checks += 1
            if path != "src/core/transport.cpp" or checks > DEADLINE_CHECKS_IN_TRANSPORT:
                yield Violation("one-path-queue", path, lineno,
                                "deadline check outside the path queue; a "
                                "path's expiry is core::PathQueue's, and "
                                "transport.cpp keeps only the receive-side "
                                "check")


# Native calls are serial in one place (DESIGN.md §7.7): core::UsdlTranslator
# queues them and keeps the one in-flight flag. A busy flag or a call queue in
# a platform module is a second copy of that rule, with its own readiness.
NATIVE_QUEUE_DIRS = ("src/upnp/", "src/bluetooth/", "src/rmi/", "src/webservice/")
NATIVE_QUEUE_RE = re.compile(r"\bbool\s+\w*(?:busy|in_flight)\w*\b|"
                             r"\b(?:deque|queue)\s*<.*>\s*\w*(?:queue|calls)_\b|"
                             r"\bprocess_next\b")


def check_one_native_queue(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith(NATIVE_QUEUE_DIRS):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if NATIVE_QUEUE_RE.search(line):
            yield Violation("one-native-queue", path, lineno,
                            "busy flag or call queue in a platform module; "
                            "run native calls through core::UsdlTranslator's "
                            "run_native and native_done")


# The native registrations have one rule table (DESIGN.md §7.10):
# core::Registrations holds the idempotent add, the owner-only remove and
# drop_owner. A container of registrations in one of the five native servers
# is a second copy of those rules, with its own find-before-push and erase_if.
REGISTRATION_FILES = ("src/mediabroker/server.hpp", "src/upnp/device.hpp",
                      "src/webservice/service.hpp", "src/webservice/registry.hpp",
                      "src/rmi/registry.hpp")
REGISTRATION_MEMBER_RE = re.compile(
    r"\bstd::(?:map|set|vector)\s*<.*>\s*\w*(?:streams|watchers|consumers|subscribers|"
    r"subscriptions|entries|bindings|registrations)_\s*[;{=]")


def check_one_registration_table(path: str, code: str) -> Iterable[Violation]:
    if path not in REGISTRATION_FILES:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if REGISTRATION_MEMBER_RE.search(line):
            yield Violation("one-registration-table", path, lineno,
                            "hand-written registration table in a native "
                            "server; make it a core::Registrations "
                            "(core/registrations.hpp)")


# One ASCII rule for protocol text (DESIGN.md §7.3): a <cctype> call reads the
# process locale, so the same bytes could parse differently in a program that
# calls setlocale.
CCTYPE_RE = re.compile(r"\b(?:isspace|isalpha|isalnum|isdigit|isxdigit|tolower|toupper)\b")
ASCII_TEXT_SITE = "src/common/strings."


def check_ascii_text(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/") or path.startswith(ASCII_TEXT_SITE):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if CCTYPE_RE.search(line):
            yield Violation("ascii-text", path, lineno,
                            "locale-dependent <cctype> classification; use "
                            "strings::is_space / is_alpha / is_alnum / "
                            "is_digit / lower / upper (common/strings.hpp)")


# The HTTP message head has one reader and one writer (DESIGN.md §7.9): a CRLF
# literal anywhere else in src/ is a second head parser or builder, with its
# own colon rule or field syntax. Read with comments blanked and strings kept.
CRLF_RE = re.compile(r"\\r\\n")
HTTP_HEAD_SITE = "src/upnp/http.cpp"


def check_one_http_head(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/") or path == HTTP_HEAD_SITE:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if CRLF_RE.search(line):
            yield Violation("one-http-head", path, lineno,
                            "CRLF literal outside the one HTTP head; read with "
                            "upnp::parse_head and write with upnp::write_message "
                            f"({HTTP_HEAD_SITE})")


# Every deferred callback carries provenance (DESIGN.md §7.1, §7.4). An
# untagged event digests as zeros and its host time is charged to nobody. The
# Scheduler keeps a defaulted tag for code outside src/ only. Arity is checked
# on the comment- and string-blanked call: schedule_after/schedule_at take
# (time, fn, tag), post takes (fn, tag), and a Timer is built from
# (scheduler, tag, fn). Timers are found by the names they are declared under
# anywhere in the tree (members are built in another file's initializer list
# or through std::optional::emplace).
SCHEDULE_CALL_RE = re.compile(r"\b(schedule_after|schedule_at)\s*\(|(?:\.|->)\s*(post)\s*\(")
SCHEDULE_ARITY = {"schedule_after": 3, "schedule_at": 3, "post": 2}
TIMER_DECL_RE = re.compile(r"\bTimer\s*>?\s+(\w+)\s*[;{]")
TIMER_TEMP_RE = re.compile(r"\bTimer\s*>\s*\(")  # make_unique<sim::Timer>(...)
EMPTY_TAG_RE = re.compile(r"^(?:(?:sim::)?EventTag\s*)?(?:\{\s*\}|\(\s*\))$")
TIMER_DEFINITION = "src/sim/timer.hpp"


# Scheduling allocates nothing (DESIGN.md §8.1): a helper that moves a capture
# to the heap would quietly bring back one allocation per event.
BOXED_CALL_RE = re.compile(r"\bboxed\s*\(")


def check_inline_callback(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/"):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if BOXED_CALL_RE.search(line):
            yield Violation("inline-callback", path, lineno,
                            "capture boxed on the heap; shrink it to fit "
                            "sim::Callback's inline buffer (park large state "
                            "in a Slots<T> table and capture its key)")


# The directory's rules live once, in core::DirectoryTable (DESIGN.md §7.8):
# a listener notified with a profile elsewhere is a second map/unmap rule, and
# a `last_seen` compared elsewhere is a second expiry rule beside
# core::unseen_before. Member access on the right of a comparison is required
# so a declaration (`std::optional<T> last_seen`) does not match.
DIRECTORY_RULE_FILES = "src/core/directory_table."
NOTIFY_RE = re.compile(r"(?:\.|->)\s*on_(?:un)?mapped\s*\(\s*[^)\s]")
LAST_SEEN_CMP_RE = re.compile(
    r"\blast_seen\s*(?:[<>]=?|[!=]=)(?!>)|"
    r"(?<![-<>])(?:[<>]=?|[!=]=)\s*\*?\w+(?:(?:\.|->)\w+)*(?:\.|->)\s*last_seen\b")


def check_one_directory_rule(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/") or path.startswith(DIRECTORY_RULE_FILES):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if NOTIFY_RE.search(line):
            yield Violation("one-directory-rule", path, lineno,
                            "directory listener notified outside the table; "
                            "change entries through core::DirectoryTable")
        if LAST_SEEN_CMP_RE.search(line):
            yield Violation("one-directory-rule", path, lineno,
                            "last_seen compared outside the table; expire "
                            "through core::unseen_before")


# Multi-byte wire integers are read through ByteReader (DESIGN.md §7.6): a
# hand-assembled `(buf[1] << 8) | buf[2]` is a second big-endian decoder with
# its own bounds check.
BYTE_SHIFT_RE = re.compile(r"\]\s*\)?\s*<<\s*(?:8|16|24|32|40|48|56)\b")
BYTE_ORDER_SITE = "src/common/"


def check_byte_order(path: str, code: str) -> Iterable[Violation]:
    if path.startswith(BYTE_ORDER_SITE):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if BYTE_SHIFT_RE.search(line):
            yield Violation("byte-order", path, lineno,
                            "subscripted byte shifted into a wire integer; "
                            "read it through ByteReader (common/bytes.hpp)")


# One implementation per kernel (DESIGN.md §8.3): a per-ISA variant is a second
# implementation that the baseline build neither compiles nor tests.
ISA_KERNEL_RE = re.compile(
    r'#\s*include\s*[<"](?:immintrin|x86intrin|emmintrin|tmmintrin|arm_neon)\.h[>"]'
    r"|\b__builtin_cpu_supports\b"
    r"|__attribute__\s*\(\s*\(\s*target\s*\("
    r"|\[\[\s*gnu::target\s*\("
    r"|\btarget_clones\b")


def check_one_kernel(path: str, code: str) -> Iterable[Violation]:
    for lineno, line in enumerate(code.splitlines(), 1):
        if ISA_KERNEL_RE.search(line):
            yield Violation("one-kernel", path, lineno,
                            "ISA-specific kernel or runtime dispatch; write the "
                            "kernel once in plain C++ or GCC/Clang vector "
                            "extensions (DESIGN.md §8.3)")


# A frame is built in one buffer of its exact size (DESIGN.md §8.4): on the
# hot encoders a default-constructed ByteWriter grows from empty and
# reallocates several times per frame. The cold codecs (SDP, RMI, HIDP,
# motes) keep the growing writer.
SIZED_FRAME_PATHS = ("src/core/umtp.cpp", "src/mediabroker/", "src/bluetooth/obex.cpp")
DEFAULT_WRITER_RE = re.compile(r"\bByteWriter\s*(?:\w+\s*)?(?:;|\{\s*\}|\(\s*\))")


def check_sized_frame(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith(SIZED_FRAME_PATHS):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if DEFAULT_WRITER_RE.search(line):
            yield Violation("sized-frame", path, lineno,
                            "default-constructed ByteWriter in a hot frame "
                            "encoder; compute the frame's size and build it "
                            "with ByteWriter(exact)")


# A message moves once per hop (DESIGN.md §8.4): a by-value Message or
# umtp::Frame parameter moves (or copies) every message that crosses the call.
# Inside src/core/umtp.* the frame type is spelled plain `Frame`.
MOVES_ONCE_DIR = "src/core/"
MOVES_ONCE_EXEMPT = {"emit", "emit_typed"}
BY_VALUE_PARAM = r"[(,]\s*(?:const\s+)?(?:core::)?(?:Message|%s)\s+\w+\s*[,)=]"
BY_VALUE_PARAM_RE = re.compile(BY_VALUE_PARAM % r"umtp::Frame")
BY_VALUE_UMTP_PARAM_RE = re.compile(BY_VALUE_PARAM % r"(?:umtp::)?Frame")
NAME_BEFORE_RE = re.compile(r"(\w*)\s*$")


def enclosing_open(code: str, at: int) -> int:
    """Index of the unmatched bracket that encloses code[at], or -1."""
    depth = 0
    for i in range(at - 1, -1, -1):
        c = code[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if depth == 0:
                return i
            depth -= 1
    return -1


def check_message_moves_once(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith(MOVES_ONCE_DIR):
        return
    param = BY_VALUE_UMTP_PARAM_RE if path.startswith("src/core/umtp.") else BY_VALUE_PARAM_RE
    for m in param.finditer(code):
        open_at = m.start() if code[m.start()] == "(" else enclosing_open(code, m.start())
        if open_at < 0 or code[open_at] != "(":
            continue
        name = NAME_BEFORE_RE.search(code, max(0, open_at - 80), open_at).group(1)
        if name in MOVES_ONCE_EXEMPT:
            continue
        yield Violation("message-moves-once", path, code.count("\n", 0, m.start() + 1) + 1,
                        "Message or umtp::Frame taken by value; take `Message&&` "
                        "or `Frame&` so a message moves once per hop "
                        "(DESIGN.md §8.4)")


# A received UMTP frame is decoded once, by the reader (DESIGN.md §7.6):
# decode_body, the wrapper that decodes a body into a fresh frame, serves the
# fuzz entries and tests. A call anywhere else in src/ decodes a frame the
# reader has already decoded.
DECODE_BODY_RE = re.compile(r"\bdecode_body\s*\(")
DECODE_BODY_SITES = ("src/core/umtp.", "src/fuzz/")


def check_decode_once(path: str, code: str) -> Iterable[Violation]:
    if not path.startswith("src/") or path.startswith(DECODE_BODY_SITES):
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if DECODE_BODY_RE.search(line):
            yield Violation("decode-once", path, lineno,
                            "UMTP body decoded outside the reader; deliver the "
                            "frame next_frame decoded (a SEQ carries its inner "
                            "frame decoded)")


# Span names are interned (DESIGN.md §9.2): a name built at run time would
# add one table entry per distinct value.
SPAN_CALL_RE = re.compile(r"\b(?:begin_span|instant)\s*\(")
BUILT_NAME_RE = re.compile(r"\+|\bstd::string\s*\(|\bto_string\s*\(")


def check_span_name_literal(path: str, code: str) -> Iterable[Violation]:
    for m in SPAN_CALL_RE.finditer(code):
        args = call_args(code, m.end() - 1)
        if len(args) >= 2 and BUILT_NAME_RE.search(args[1]):
            yield Violation("span-name-literal", path, code.count("\n", 0, m.end()) + 1,
                            "span name built at run time; pass a string literal, "
                            "a fate-table field or an interned id so the "
                            "tracer's intern table stays a closed set")


def call_args(code: str, open_at: int) -> list[str]:
    """Top-level arguments of the bracketed list opening at code[open_at]."""
    depth, start, args = 0, open_at + 1, []
    for i in range(open_at, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                last = code[start:i].strip()
                return args + [last] if args or last else []
        elif c == "," and depth == 1:
            args.append(code[start:i].strip())
            start = i + 1
    return args


def timer_names(code: str) -> set[str]:
    return set(TIMER_DECL_RE.findall(code))


def check_untagged_event(path: str, code: str, timers: set[str]) -> Iterable[Violation]:
    sites = []  # (offset of the opening bracket, what, expected arity, tag index)
    for m in SCHEDULE_CALL_RE.finditer(code):
        name = m.group(1) or m.group(2)
        arity = SCHEDULE_ARITY[name]
        sites.append((m.end() - 1, name, arity, arity - 1))
    if path != TIMER_DEFINITION:
        ctors = [TIMER_TEMP_RE]
        names = sorted(timers | timer_names(code))
        if names:  # NAME(...) in an initializer list, NAME{...}, NAME.emplace(...)
            ctors.append(re.compile(r"\b(?:%s)\s*(?:\(|\{|(?:\.|->)\s*emplace\s*\()"
                                    % "|".join(map(re.escape, names))))
        for ctor in ctors:
            for m in ctor.finditer(code):
                sites.append((m.end() - 1, "Timer", 3, 1))
    for at, what, arity, tag_index in sorted(sites):
        args = call_args(code, at)
        if len(args) == arity and not EMPTY_TAG_RE.match(args[tag_index]):
            continue
        yield Violation("untagged-event", path, code.count("\n", 0, at) + 1,
                        f"{what} without an EventTag; pass "
                        "{sim::host_id(host), sim::tag_id(\"layer.event\")} so the "
                        "event is attributable (DESIGN.md §7.4)")


def check_global_telemetry(path: str, code: str) -> Iterable[Violation]:
    for lineno, line in enumerate(code.splitlines(), 1):
        if GLOBAL_TELEMETRY_RE.search(line):
            yield Violation("global-telemetry", path, lineno,
                            "process-global telemetry instrument; metrics and "
                            "tracers are per-world state owned by net::Network "
                            "(DESIGN.md §9)")


CHECKS: list[Callable[[str, str], Iterable[Violation]]] = [
    check_wall_clock,
    check_randomness,
    check_threading,
    check_pointer_keys,
    check_new_delete,
    check_nodiscard,
    check_range_for_copy,
    check_fault_loss,
    check_ack_origin,
    check_global_telemetry,
    check_one_import_site,
    check_one_reassembly_site,
    check_one_frame_feed,
    check_one_usdl_translator,
    check_netsim_by_handle,
    check_inline_callback,
    check_one_directory_rule,
    check_byte_order,
    check_one_path_queue,
    check_sized_frame,
    check_message_moves_once,
    check_decode_once,
    check_span_name_literal,
    check_ascii_text,
    check_one_native_queue,
    check_one_registration_table,
]

# Checks that match string literals: they see comments blanked, strings kept.
LITERAL_CHECKS: list[Callable[[str, str], Iterable[Violation]]] = [
    check_one_fate_site,
    check_netsim_free_session,
    check_one_kernel,
    check_one_http_head,
]


def lint_file(rel_path: str, source: str, timers: frozenset[str] = frozenset()) -> list[Violation]:
    """`timers`: names sim::Timer objects are declared under elsewhere in the tree."""
    code = strip_comments_and_strings(source)
    found: list[Violation] = []
    for check in CHECKS:
        found.extend(check(rel_path, code))
    found.extend(check_untagged_event(rel_path, code, set(timers)))
    literals = strip_comments_and_strings(source, keep_strings=True)
    for check in LITERAL_CHECKS:
        found.extend(check(rel_path, literals))
    return found


def read_sources(root: pathlib.Path) -> dict[str, str]:
    sources = {}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in SRC_EXTENSIONS and path.is_file():
            sources[path.relative_to(root).as_posix()] = path.read_text(encoding="utf-8")
    return sources


def counted_lines(sources: dict[str, str]) -> int:
    """Non-blank, non-`//` lines of src/**/*.{cpp,hpp}: the size ROADMAP.md tracks."""
    return sum(1 for rel, source in sources.items()
               if rel.endswith((".cpp", ".hpp"))
               for line in source.splitlines()
               if line.strip() and not line.strip().startswith("//"))


def lint_tree(sources: dict[str, str]) -> list[Violation]:
    timers = frozenset().union(*(timer_names(strip_comments_and_strings(s))
                                 for s in sources.values()))
    violations: list[Violation] = []
    for rel, source in sources.items():
        violations.extend(lint_file(rel, source, timers))
    return violations


# --- self-test -------------------------------------------------------------------

SEEDED_VIOLATIONS = [
    # (rule expected to fire, pretend-path, source snippet)
    ("wall-clock", "src/sim/evil.cpp",
     "auto t = std::chrono::system_clock::now();\n"),
    ("wall-clock", "src/core/evil.cpp",
     "#include <ctime>\nlong now = time(nullptr);\n"),
    ("randomness", "src/core/evil.cpp",
     "int r = std::rand();\n"),
    ("randomness", "src/netsim/evil.cpp",
     "#include <random>\nstd::random_device rd;\n"),
    ("threads", "src/sim/evil.cpp",
     "#include <thread>\n#include <mutex>\n"),
    ("ptr-keys", "src/core/evil.hpp",
     "std::unordered_map<Stream*, int> by_stream;\n"),
    ("new-delete", "src/core/evil.cpp",
     "auto* p = new Translator();\ndelete p;\n"),
    ("nodiscard", "src/xml/evil.hpp",
     "Result<Element> parse_evil(std::string_view text);\n"),
    ("range-copy", "src/core/evil.cpp",
     "for (auto profile : profiles_) { use(profile); }\n"),
    ("range-copy", "src/core/evil.cpp",
     "for (const auto [k, v] : meta_) { use(k, v); }\n"),
    ("fault-loss", "src/netsim/evil.cpp",
     "segments_.at(seg).spec.loss = 0.5;\n"),
    ("ack-origin", "src/upnp/evil.cpp",
     "auto ack = umtp::AckFrame{epoch, count};\n"),
    ("global-telemetry", "src/core/evil.cpp",
     "static obs::MetricsRegistry g_registry;\n"),
    ("global-telemetry", "src/obs/evil.hpp",
     "inline Tracer& global_tracer() { return the_tracer; }\n"),
    ("one-fate-site", "src/core/transport.cpp",
     '{"delivery.no_route", nullptr, true, "deliver.no_route"},\n'
     'void Transport::retire(Fate fate, PathStats* path) { path->messages_dropped += 1; }\n'
     'void Transport::dispatch(Path& path) {\n'
     '  count("delivery.no_route");\n'
     '  path.stats.messages_dropped += 1;\n'
     '}\n'),
    ("one-import-site", "src/motes/evil.cpp",
     "runtime_->instantiate(std::move(translator), [this](Result<TranslatorId> r) {});\n"
     "(void)runtime().unmap(id);\n"),
    ("one-reassembly-site", "src/bluetooth/evil.cpp",
     "hid_buffer_.insert(hid_buffer_.end(), chunk.begin(), chunk.end());\n"),
    ("one-frame-feed", "src/mediabroker/evil.cpp",
     "if (auto r = reader_.feed(chunk, frames); !r.ok()) { stream_->close(); }\n"
     "if (!reader->feed(chunk, requests).ok()) return;\n"),
    ("one-usdl-translator", "src/webservice/evil.cpp",
     "const core::PortSpec* spec = profile().shape.find(b.port);\n"
     "for (const core::UsdlBinding* b : usdl_.bindings_for(port)) { use(b); }\n"
     "set_hierarchy_entities(usdl.hierarchy_entities);\n"),
    ("netsim-by-handle", "src/netsim/evil.hpp",
     "std::map<Endpoint, DatagramHandler> udp_sockets_;\n"
     "std::set<std::string> groups;\n"
     "std::unordered_map<std::string, Host> hosts_;\n"
     "std::map<std::string, HostId> host_ids_;\n"),
    ("netsim-by-handle", "src/netsim/network.hpp",
     "std::map<std::string, GroupId> group_ids_;\n"
     "std::vector<std::string> groups;\n"),
    ("netsim-free-session", "src/core/link_session.hpp",
     '#include "core/umtp.hpp"\n#include "sim/timer.hpp"\n'),
    ("netsim-free-session", "src/core/path_queue.hpp",
     '#include "core/qos.hpp"\n#include "obs/trace.hpp"\n'),
    ("netsim-free-session", "src/core/qos.hpp",
     '#include "sim/scheduler.hpp"\n'),
    ("netsim-free-session", "src/core/directory_table.cpp",
     '#include "core/directory_table.hpp"\n#include "netsim/network.hpp"\n'),
    ("one-path-queue", "src/core/transport.cpp",
     "if (path.qos.shed == ShedPolicy::block) { return; }\n"),
    ("one-path-queue", "src/apps/evil.cpp",
     "std::optional<core::TokenBucket> bucket_;\n"),
    ("one-path-queue", "src/core/transport.cpp",
     "if (deadline_passed(data->message.deadline_ns, now().count())) { return; }\n"
     "if (deadline_passed(item.deadline_ns, now().count())) { return; }\n"),
    ("untagged-event", "src/motes/evil.cpp",
     'constexpr const char* kDoc = R"USDL(<port mime="*/*"/>)USDL";\n'
     "sched.schedule_after(\n"
     "    period_, [this, id]() { tick(id); });\n"),
    ("untagged-event", "src/rmi/evil.cpp",
     "std::optional<sim::Timer> poll_timer_;\n"
     "poll_timer_.emplace(runtime.scheduler(), sim::EventTag{}, [this]() { poll(); });\n"),
    ("untagged-event", "src/upnp/evil.cpp",
     "net_.scheduler().post(sim::boxed([this, request]() { run(request); }));\n"),
    ("inline-callback", "src/netsim/evil.cpp",
     "send_frame(seg, src, payload->size(),\n"
     "           sim::boxed([this, from, payload]() { deliver(from, *payload); }), false);\n"),
    ("inline-callback", "src/upnp/evil.cpp",
     "work, boxed(lifetime_.guard([this, udn, location, body]() { parse(body); })),\n"),
    ("one-directory-rule", "src/core/directory.cpp",
     "for (DirectoryListener* l : listeners) l->on_unmapped(profile);\n"
     "listener.on_mapped(next);\n"
     "if (entry.last_seen && now - *entry.last_seen > max_age_) { expire(id); }\n"
     "if (entry.last_seen < before) stale.push_back(key);\n"
     "bool stale = before > it->second.last_seen;\n"),
    ("byte-order", "src/bluetooth/evil.cpp",
     "const auto length = static_cast<std::size_t>((buffer[1] << 8) | buffer[2]);\n"),
    ("byte-order", "src/motes/evil.cpp",
     "std::uint16_t id = static_cast<std::uint16_t>(wire[2]) << 8 | wire[3];\n"),
    ("one-kernel", "src/xml/evil.cpp",
     "#include <emmintrin.h>\n"
     "const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));\n"),
    ("one-kernel", "src/common/evil.cpp",
     '#include "tmmintrin.h"\n#include <x86intrin.h>\n#include <immintrin.h>\n'),
    ("one-kernel", "src/common/evil.cpp",
     "#include <arm_neon.h>\n"),
    ("one-kernel", "src/common/evil.cpp",
     'if (__builtin_cpu_supports("avx2")) { return encode_avx2(data); }\n'),
    ("one-kernel", "src/common/evil.cpp",
     '__attribute__((target("ssse3"))) std::string encode_ssse3(std::span<const std::uint8_t>);\n'),
    ("one-kernel", "src/xml/evil.cpp",
     '[[gnu::target_clones("default", "avx2")]] std::size_t scan(std::string_view s);\n'),
    ("one-kernel", "src/xml/evil.cpp",
     '[[gnu::target("avx2")]] std::size_t scan_avx2(std::string_view s);\n'),
    ("sized-frame", "src/mediabroker/protocol.cpp",
     "ByteWriter w;\n"
     "ByteWriter out{};\n"
     "return ByteWriter().take();\n"),
    ("message-moves-once", "src/core/transport.hpp",
     "  [[nodiscard]] Result<void> route(const PortRef& src, Message msg);\n"),
    ("message-moves-once", "src/core/transport.hpp",
     "  void handle_frame(umtp::Frame frame, std::uint64_t channel, net::Stream& reply);\n"),
    ("message-moves-once", "src/core/runtime.cpp",
     "Result<void> Runtime::route_emit(const PortRef& src,\n"
     "                                 const core::Message msg) {\n"),
    ("message-moves-once", "src/core/umtp.cpp",
     "Result<Frame> complete(const ByteReader& r, Frame frame, const char* name) {\n"),
    ("message-moves-once", "src/core/evil.cpp",
     "auto on_frame = [this](umtp::Frame frame) { handle(frame); };\n"),
    ("decode-once", "src/core/transport.cpp",
     "const Bytes body = std::move(seq->body);\n"
     "if (auto inner = umtp::decode_body(body, frame); !inner.ok()) {\n"),
    ("decode-once", "src/apps/evil.cpp",
     "auto frame = core::umtp::decode_body (std::span(wire).subspan(4));\n"),
    ("span-name-literal", "src/core/evil.cpp",
     'tracer().instant(trace, "deliver." + fate, runtime_.host(), now());\n'),
    ("one-http-head", "src/upnp/ssdp.cpp",
     'std::string msg = "NOTIFY * HTTP/1.1\\r\\n"\n'
     '                  "USN: " + a.usn + "\\r\\n\\r\\n";\n'),
    ("one-http-head", "src/common/evil.cpp",
     'auto lines = strings::split(text, "\\r\\n");\n'),
    ("one-native-queue", "src/webservice/evil.hpp",
     "bool busy_ = false;\n"
     "std::deque<Work> queue_;\n"
     "void process_next();\n"
     "bool in_flight_ = false;\n"),
    ("one-registration-table", "src/mediabroker/server.hpp",
     "std::map<std::string, StreamInfo> streams_;\n"),
    ("one-registration-table", "src/mediabroker/server.hpp",
     "std::vector<net::Stream*> watchers_;\n"),
    ("one-registration-table", "src/upnp/device.hpp",
     "std::vector<Subscription> subscribers_;\n"),
    ("one-registration-table", "src/webservice/service.hpp",
     "std::vector<std::string> subscribers_;  ///< webhook URLs\n"),
    ("one-registration-table", "src/webservice/registry.hpp",
     "std::map<std::string, WsEntry> entries_;\n"),
    ("one-registration-table", "src/rmi/registry.hpp",
     "std::set<std::pair<std::string, std::string>> bindings_{};\n"),
    ("ascii-text", "src/xml/evil.cpp",
     "while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;\n"
     "std::transform(s.begin(), s.end(), s.begin(), ::tolower);\n"),
]

CLEAN_SNIPPETS = [
    # Things that look suspicious but are sanctioned; the linter must pass them.
    ("src/mediabroker/server.hpp",
     "core::Registrations<std::string, net::Stream*, std::string> streams_;\n"
     "core::Registrations<StreamId, net::Stream*> watchers_;\n"
     "std::map<std::string, Fanout> fanout_;\n"
     "std::map<net::Stream*, net::StreamPtr> connections_;\n"),
    ("src/upnp/control_point.hpp",
     "std::map<std::string, Subscription> subscriptions_;\n"),
    ("src/upnp/device.hpp",
     "std::map<std::pair<std::string, std::string>, std::string> state_;\n"
     "core::Registrations<std::uint64_t, std::string, Subscription> subscribers_;\n"),
    ("src/bluetooth/mapper.hpp",
     "std::deque<std::uint64_t> sink_spans_;\n"
     "run_native([this, get] { run_obex_get(*get); });\n"
     "bool ready(const std::string& port) const override;\n"),
    ("src/core/translator.hpp",
     "std::vector<std::function<void()>> native_calls_;\n"
     "bool native_running_ = false;\n"),
    ("src/sim/fine.cpp",
     "// std::chrono::system_clock::now() is banned — in a comment it is fine\n"
     'const char* s = "time(nullptr) inside a string literal";\n'
     "auto d = std::chrono::nanoseconds(5);\n"),
    ("src/core/fine.hpp",
     "[[nodiscard]] Result<int> parse_fine(std::string_view text);\n"
     "Stream(const Stream&) = delete;\n"
     "auto p = std::make_unique<int>(3);\n"
     "sim::Duration busy_time(int frames);\n"),
    ("src/common/log.cpp",
     "#include <mutex>\n"),
    ("src/obs/fine.hpp",
     "obs::Counter& udp_datagrams_;\n"
     "obs::Histogram connect_rtt{latency_bounds_ns()};\n"
     "auto n = static_cast<std::uint64_t>(counter.value());\n"),
    ("src/core/fine.cpp",
     "if (auto* ack = std::get_if<umtp::AckFrame>(&frame)) { use(*ack); }\n"
     "void handle_ack(const umtp::AckFrame& ack);\n"),
    ("src/netsim/fine.cpp",
     "double loss = spec.loss;\n"
     "if (spec.loss == 0.0) { return; }\n"
     "net_.faults().set_loss(segment_, loss);\n"),
    ("src/core/transport.cpp",
     '{"delivery.expired", &PathStats::messages_expired, false, "deliver.expired"},\n'
     '// the "delivery.expired" counter, named in a comment, is fine\n'
     'metrics.counter("delivery.expired_total").inc();\n'
     'void Transport::retire(Fate fate, PathStats* path, std::uint64_t n) {\n'
     '  if (path != nullptr) {\n'
     '    path->messages_dropped += n;\n'
     '  }\n'
     '}\n'
     'bool idle = stats.messages_dropped == 0 && stats.messages_shed <= 1;\n'),
    ("src/core/fine.cpp",
     "runtime_.scheduler().schedule_after(\n"
     "    jitter, [this, id]() { if (started_) announce(id, {1, 2}); },\n"
     "    {sim::host_id(runtime_.host()), sim::tag_id(\"dir.probe-reply\")});\n"
     "net_.scheduler().post([this]() { forget(); }, tag_);\n"
     "Directory::Directory(Runtime& r)\n"
     "    : refresh_(r.scheduler(), {0, sim::tag_id(\"dir.refresh\")}, [this]() { tick(); }) {}\n"
     "sim::Timer refresh_;\n"
     "refresh_.arm(max_age_ / 3);\n"),
    ("src/core/mapper.cpp",
     "entry.pending = rt.instantiate(std::move(translator), [this](auto r) {});\n"
     "(void)runtime().unmap(*entry.id);\n"),
    ("src/common/frame_reader.hpp",
     "buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());\n"),
    ("src/netsim/exchange.hpp",
     "if (auto r = reader.feed(chunk, frames); !r.ok()) { return; }\n"),
    ("src/fuzz/entries.cpp",
     "auto r = reader->feed(chunk, frames);\n"),
    ("src/rmi/fine.cpp",
     "// reader_.feed(chunk, returns) in a comment is fine\n"
     "stream->on_data(net::frames<CallReader>(*raw, [this, raw](const Call& call) { serve(call); }));\n"
     "[[nodiscard]] Result<void> feed(std::span<const std::uint8_t> chunk, std::vector<Frame>& out);\n"),
    ("src/bluetooth/fine.cpp",
     "// buffer.insert(buffer.end(), chunk.begin(), chunk.end()) in a comment is fine\n"
     "partial.data.insert(partial.data.end(), body.begin(), body.end());\n"
     "merged.insert(merged.end(), c.data->begin(), c.data->end());\n"),
    ("src/upnp/fine.cpp",
     "// runtime_->unmap(id) in a comment is fine\n"
     "import(udn, std::move(translator));\n"
     "gone(udn);\n"
     "forget_unseen(now - timeout);\n"),
    ("src/core/translator.cpp",
     "const PortSpec* spec = profile().shape.find(port);\n"
     "set_hierarchy_entities(usdl.hierarchy_entities);\n"),
    ("src/motes/fine.cpp",
     "// profile().shape.find(port) in a comment is fine\n"
     "for (const core::UsdlBinding& b : bindings(\"am-telemetry\")) { use(b); }\n"
     "if (find_binding(\"call\", port) == nullptr) { return; }\n"
     "auto n = profile().shape.size();\n"),
    ("src/netsim/network.hpp",
     "std::map<std::string, HostId> host_ids_;  ///< the one name index\n"
     "std::map<std::string, GroupId> group_ids_;  ///< the one group name index\n"
     "std::map<std::uint16_t, DatagramHandler> sockets;\n"
     "std::vector<GroupId> groups;\n"
     "bool operator==(const Endpoint&) const = default;\n"),
    ("src/core/fine.hpp",
     "std::map<std::string, NodeInfo> by_host_;\n"),
    ("src/core/link_session.cpp",
     '#include "core/link_session.hpp"\n'
     '// #include "netsim/stream.hpp" in a comment is fine\n'),
    ("src/core/path_queue.hpp",
     '#include "core/qos.hpp"\n'
     "return qos_.shed == ShedPolicy::block && !deadline_passed(deadline, now.count());\n"
     "std::optional<TokenBucket> bucket_;\n"),
    ("src/core/transport.cpp",
     "// a ShedPolicy::block path's TokenBucket, named in a comment, is fine\n"
     "if (deadline_passed(data->message.deadline_ns, now().count())) { return; }\n"
     "bool shaped = qos.shaped();\n"),
    ("src/upnp/fine.cpp",
     "// no site calls sim::boxed(...); in a comment it is fine\n"
     "net_.scheduler().schedule_after(\n"
     "    work, lifetime_.guard([this, key]() { run(requests_.take(key)); }),\n"
     "    {sim::host_id(host_), sim::tag_id(\"upnp.action\")});\n"),
    ("src/core/directory_table.cpp",
     "for (DirectoryListener* l : listeners) l->on_unmapped(profile);\n"
     "if (entry.last_seen < before) stale.push_back(key);\n"),
    ("src/core/mapper.cpp",
     "// entry.last_seen < before, l->on_mapped(profile): named in a comment is fine\n"
     "raw->on_mapped();\n"
     "it->second->on_unmapped();\n"
     "void on_mapped(const TranslatorProfile& profile) override;\n"
     "std::optional<sim::TimePoint> last_seen;\n"
     "entry.last_seen = rt.scheduler().now();\n"
     "it->second.last_seen = now;\n"
     "for (const std::string& key : unseen_before(imports_, before)) gone(key);\n"),
    ("src/core/fine.cpp",
     "for (const auto& p : profiles_) { use(p); }\n"
     "for (auto& [k, v] : meta_) { use(k, v); }\n"
     "for (auto&& ev : events_) { use(ev); }\n"
     "for (auto* port : shape.digital_inputs()) { use(port); }\n"
     "for (auto it = by_name_.begin(); it != by_name_.end(); ++it) { }\n"
     "for (auto ib = std::next(ia); ib != gadgets_.end(); ++ib) { }\n"
     "for (char c : text) { use(c); }\n"),
    ("src/common/bytes.hpp",
     "for (std::size_t i = 0; i < n; ++i) v = (v << 8) | p[i];\n"
     "std::uint16_t v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);\n"),
    ("src/core/fine.cpp",
     "// (buffer[1] << 8) | buffer[2] in a comment is fine\n"
     "w.u8(static_cast<std::uint8_t>(v >> 8));\n"
     "os << parts[0] << ' ' << parts[1];\n"
     "const std::uint32_t mask = 1u << 8;\n"),
    ("src/xml/xml.cpp",
     "// no <immintrin.h>, no __builtin_cpu_supports: named in a comment is fine\n"
     "#include <cstring>\n"
     "using Lanes = unsigned char __attribute__((vector_size(16)));\n"
     "hit |= reinterpret_cast<Lanes>((v == '\"') | ((v | 1) == '\\'') | ((v | 2) == '>'));\n"),
    ("src/core/umtp.cpp",
     "// a default ByteWriter w; named in a comment is fine\n"
     "ByteWriter w(4 + body);\n"
     "ByteWriter w = framed(1 + 8);\n"
     "ByteWriter framed(std::size_t body) {\n"
     "void encode_body(const Frame& frame, ByteWriter& w);\n"),
    ("src/common/base64.cpp",
     "if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);\n"
     "std::string_view target = \"x-bt/img-img\";\n"),
    ("src/core/transport.cpp",
     'tracer().begin_span(trace, "wire", runtime_.host(), now());\n'
     "instant(trace, row.instant);\n"
     "tracer().begin_span(trace, span_ids_.translate, span_ids_.track, now());\n"),
    ("src/upnp/http.cpp",
     'constexpr std::string_view kBlankLine = "\\r\\n\\r\\n";\n'),
    ("src/core/translator.hpp",
     "// a route(const PortRef& src, Message msg) in a comment is fine\n"
     "[[nodiscard]] Result<void> emit(const std::string& port, Message msg);\n"
     "[[nodiscard]] Result<void> emit_typed(const std::string& port, Message msg);\n"
     "[[nodiscard]] Result<void> route(const std::string& port, const PortSpec* spec,\n"
     "                                 Message&& msg);\n"
     "void deliver(const PortRef& dst, const Message& msg, PathStats* path);\n"
     "static Message text(MimeType type, std::string_view body);\n"),
    ("src/core/transport.cpp",
     "stream->on_data(net::frames<umtp::Reader>(*raw, [this](umtp::Frame& frame) { use(frame); }));\n"
     "Message msg;\n"
     "for (const Message& m : sent) { use(m); }\n"
     "const auto shared = std::make_shared<const Message>(std::move(msg));\n"
     "if (auto* data = std::get_if<umtp::DataFrame>(&frame)) { use(*data); }\n"),
    ("src/core/umtp.cpp",
     "Result<void> decode_body(std::span<const std::uint8_t> body, Frame& out);\n"
     "Bytes encode(const Frame& frame);\n"
     "Frame frame;\n"),
    ("src/apps/fine.cpp",
     "void keep(core::Message msg) { kept_.push_back(std::move(msg)); }\n"),
    ("src/core/umtp.cpp",
     "Result<Frame> decode_body(std::span<const std::uint8_t> body) {\n"
     "  if (auto decoded = decode_frame(body, frame); !decoded.ok()) return decoded.error();\n"),
    ("src/core/umtp.hpp",
     "[[nodiscard]] Result<Frame> decode_body(std::span<const std::uint8_t> body);\n"),
    ("src/fuzz/entries.cpp",
     "if (core::umtp::decode_body(body).ok() != (fed == 1)) std::abort();\n"),
    ("src/core/transport.cpp",
     "// no second umtp::decode_body(...) here; in a comment it is fine\n"
     "std::visit([&](auto& inner) { receive(inner, true); }, seq->frame);\n"),
    ("src/common/strings.hpp",
     '/// Split on a multi-character separator (e.g. "\\r\\n"); empty fields are kept.\n'
     "constexpr bool is_space(char c) { return c == ' ' || (c >= '\\t' && c <= '\\r'); }\n"),
    ("src/common/mime.cpp",
     "// std::isspace named in a comment is fine\n"
     'const char* doc = "tolower(c) in a string";\n'
     "return strings::is_space(c) || strings::lower(c) == 'x' || is_alnum(c);\n"),
]


def self_test() -> int:
    failures = 0
    for rule, path, snippet in SEEDED_VIOLATIONS:
        fired = {v.rule for v in lint_file(path, snippet)}
        if rule not in fired:
            print(f"SELF-TEST FAIL: rule '{rule}' did not fire on seeded "
                  f"violation in {path} (fired: {sorted(fired) or 'none'})")
            failures += 1
    for path, snippet in CLEAN_SNIPPETS:
        extra = lint_file(path, snippet)
        if extra:
            print(f"SELF-TEST FAIL: clean snippet {path} raised: "
                  + "; ".join(str(v) for v in extra))
            failures += 1
    counted = counted_lines({"src/a.cpp": "int x;\n\n  // note\n/* c */ int y;  // tail\n",
                             "src/b.h": "int z;\n"})
    if counted != 2:
        print(f"SELF-TEST FAIL: counted_lines gave {counted} for 2 counted lines")
        failures += 1
    if failures == 0:
        print(f"self-test ok: {len(SEEDED_VIOLATIONS)} seeded violations caught, "
              f"{len(CLEAN_SNIPPETS)} sanctioned snippets passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root (contains src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded violation")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} has no src/ directory", file=sys.stderr)
        return 2
    sources = read_sources(root)
    violations = lint_tree(sources)
    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} violation(s). These rules guard the "
              "determinism contract — see tools/lint.py docstring and "
              "DESIGN.md 'Correctness & determinism'.")
        return 1
    print(f"lint ok: src/ has {counted_lines(sources)} counted lines "
          "(non-blank, non-// lines of src/**/*.{cpp,hpp})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
