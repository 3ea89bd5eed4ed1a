// The fuzz table: one row per untrusted decoder (DESIGN.md §7.6).
//
// Every SOAP body, SSDP datagram, description document, directory advert and
// stream frame a mapper reads comes from outside the program. Each row of
// targets() takes an arbitrary byte string, runs its decoder on it and checks
// the result with the one oracle, `round_trips` in entries.cpp:
//
//   - decode never crashes, hangs or leaks;
//   - a failure keeps one of the row's listed error codes;
//   - where an encoder exists, decode(encode(x)) == x.
//
// A violation aborts, which both the smoke test and a coverage-guided fuzzer
// report as a crash. The rows live in a tiny library so that
//
//   - tests/fuzz_smoke_test.cpp drives every row with deterministic
//     splitmix64 mutation fuzzing on every CI run (cheap, sanitizer-checked),
//     and
//   - an out-of-tree libFuzzer/AFL driver looks its row up by name in
//     targets() and forwards `LLVMFuzzerTestOneInput` to its `entry`, without
//     any test-framework baggage.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace umiddle::fuzz {

/// One untrusted decoder under the oracle. `entry` returns an opaque outcome
/// class (0 = the input failed to decode, 1 = it decoded and round-tripped),
/// so coverage-guided fuzzers can use it as a cheap feedback signal and the
/// smoke test can assert both classes occur.
struct Target {
  const char* name;
  int (*entry)(std::span<const std::uint8_t> input);
};

/// Every row, each name once: xml, usdl, directory_advert, umtp, base64,
/// motes_reading, uri, mime, query, rmi_binding, ssdp_datagram,
/// gena_property_set, soap_action_response, soap_action_request, soap_fault,
/// ws_method_call, ws_method_response, ws_notification, upnp_description and
/// stream.
std::span<const Target> targets();

/// One stream protocol's FrameReader behind a type-erased feed that hands back
/// every complete frame re-encoded, so readers of different frame types
/// compare alike (DESIGN.md §7.6).
using FrameFeed =
    std::function<Result<void>(std::span<const std::uint8_t> chunk, std::vector<Bytes>& out)>;
struct StreamProtocol {
  const char* name;
  FrameFeed (*make_reader)();
};

/// Every stream protocol's reader: umtp, obex, mb, rmi_call, rmi_return,
/// sdp_request, sdp_response, hid, http (requests) and mb_wire (the
/// MediaBroker broker's). The `stream` row's first byte picks one.
std::span<const StreamProtocol> stream_protocols();

}  // namespace umiddle::fuzz
