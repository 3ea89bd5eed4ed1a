#include "obs/export.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace umiddle::obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

/// Nanoseconds -> microseconds with fixed 3 fractional digits ("12.345"),
/// the ts/dur unit chrome://tracing expects. Pure integer math: deterministic.
std::string micros_fixed(std::int64_t ns) {
  const bool neg = ns < 0;
  const std::uint64_t abs_ns = neg ? static_cast<std::uint64_t>(-(ns + 1)) + 1
                                   : static_cast<std::uint64_t>(ns);
  std::string frac = std::to_string(abs_ns % 1000);
  std::string out = neg ? "-" : "";
  out += std::to_string(abs_ns / 1000);
  out += '.';
  out.append(3 - frac.size(), '0');
  out += frac;
  return out;
}

}  // namespace

std::string to_text(const Snapshot& snap) {
  std::ostringstream out;
  std::size_t width = 0;
  for (const auto& e : snap.entries) width = std::max(width, e.name.size());
  for (const auto& e : snap.entries) {
    out << e.name << std::string(width - e.name.size() + 2, ' ');
    switch (e.kind) {
      case SnapshotEntry::Kind::counter:
        out << e.count;
        break;
      case SnapshotEntry::Kind::gauge:
        out << e.value;
        break;
      case SnapshotEntry::Kind::histogram:
        out << "count=" << e.count << " sum=" << e.value << " min=" << e.min
            << " max=" << e.max;
        break;
    }
    out << '\n';
  }
  return out.str();
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\"metrics\":{";
  bool first = true;
  for (const auto& e : snap.entries) {
    if (e.kind == SnapshotEntry::Kind::histogram) continue;
    if (!first) out += ',';
    first = false;
    append_quoted(out, e.name);
    out += ':';
    out += e.kind == SnapshotEntry::Kind::counter ? std::to_string(e.count)
                                                  : std::to_string(e.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& e : snap.entries) {
    if (e.kind != SnapshotEntry::Kind::histogram) continue;
    if (!first) out += ',';
    first = false;
    append_quoted(out, e.name);
    out += ":{\"count\":" + std::to_string(e.count) + ",\"sum\":" + std::to_string(e.value) +
           ",\"min\":" + std::to_string(e.min) + ",\"max\":" + std::to_string(e.max) +
           ",\"bounds\":[";
    for (std::size_t i = 0; i < e.bounds.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(e.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < e.buckets.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(e.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::map<std::string, SpanAgg> aggregate_spans(const Tracer& tracer) {
  std::map<std::string, SpanAgg> agg;
  for (const auto& span : tracer.spans()) {
    if (!span.closed) continue;
    const std::int64_t d = span.duration().count();
    SpanAgg& a = agg[tracer.text(span.name)];
    if (a.count == 0) {
      a.min_ns = a.max_ns = d;
    } else {
      a.min_ns = std::min(a.min_ns, d);
      a.max_ns = std::max(a.max_ns, d);
    }
    ++a.count;
    a.total_ns += d;
  }
  return agg;
}

std::string chrome_trace_json(const Tracer& tracer) {
  // Stable track numbering: first-appearance order of tracks.
  std::vector<int> tids;  // by interned track id; 0 = not seen yet
  std::vector<std::uint32_t> tracks;
  for (const auto& span : tracer.spans()) {
    if (span.track >= tids.size()) tids.resize(span.track + 1, 0);
    if (tids[span.track] == 0) {
      tracks.push_back(span.track);
      tids[span.track] = static_cast<int>(tracks.size());
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::uint32_t track : tracks) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tids[track]) + ",\"args\":{\"name\":";
    append_quoted(out, tracer.text(track));
    out += "}}";
  }
  for (const auto& span : tracer.spans()) {
    if (!span.closed) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_quoted(out, tracer.text(span.name));
    out += ",\"cat\":\"umiddle\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tids[span.track]) +
           ",\"ts\":" + micros_fixed(span.begin.count()) +
           ",\"dur\":" + micros_fixed(span.duration().count()) +
           ",\"args\":{\"trace\":" + std::to_string(span.trace) + "}}";
  }
  out += "]}";
  return out;
}

std::string world_json(MetricsRegistry& metrics, const Tracer& tracer) {
  std::string snap_json = to_json(metrics.snapshot());
  // Splice span aggregates + tracer health into the snapshot object.
  snap_json.pop_back();  // trailing '}'
  std::string out = "{\"schema\":1,";
  out += snap_json.substr(1);  // drop leading '{'
  out += ",\"spans\":{";
  bool first = true;
  for (const auto& [name, agg] : aggregate_spans(tracer)) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, name);
    out += ":{\"count\":" + std::to_string(agg.count) +
           ",\"total_ns\":" + std::to_string(agg.total_ns) +
           ",\"min_ns\":" + std::to_string(agg.min_ns) +
           ",\"max_ns\":" + std::to_string(agg.max_ns) + "}";
  }
  out += "},\"trace\":{\"spans\":" + std::to_string(tracer.spans().size()) +
         ",\"open\":" + std::to_string(tracer.open_spans()) +
         ",\"dropped\":" + std::to_string(tracer.dropped()) + "}}";
  return out;
}

}  // namespace umiddle::obs
