// Java-RMI-like remote invocation protocol (JRMP-flavoured).
//
// The paper bridges "Java RMI" services; this module reproduces the two
// properties that matter for its evaluation (§5.3):
//   * calls are *synchronous* — one outstanding call per connection, the
//     caller blocks until the return lands (this is why the RMI leg is the
//     transport-level bottleneck);
//   * marshalling is *heavy* — every call carries a Java-serialization-style
//     preamble (stream magic + class descriptors), modelled as a fixed
//     overhead block, so an RMI byte costs more wire time than an MB byte.
//
// Wire format over a stream:
//   call:   "JRMI" u8 0x50, str16 object, str16 method,
//           u16 descriptor-bytes, descriptor filler, u32 len, payload
//   return: "JRMI" u8 0x51 (return) | 0x52 (exception), u32 len, payload
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/frame_reader.hpp"
#include "netsim/stream.hpp"
#include "sim/timer.hpp"

namespace umiddle::rmi {

/// Bytes of Java-serialization class-descriptor overhead added to every call.
constexpr std::size_t kSerializationOverhead = 120;

struct Call {
  std::string object;
  std::string method;
  Bytes args;
};

struct Return {
  bool exception = false;
  Bytes value;
};

Bytes encode_call(const Call& call);
Bytes encode_return(const Return& ret);

/// A call's outcome without its value: a remote exception is Errc::refused.
[[nodiscard]] Result<void> completed(const Result<Return>& r);

/// Decode steps for the call (server side) or return (client side) at the
/// front of a receive buffer.
[[nodiscard]] Result<std::size_t> next_call(std::span<const std::uint8_t> buffer,
                                            std::vector<Call>& out);
[[nodiscard]] Result<std::size_t> next_return(std::span<const std::uint8_t> buffer,
                                              std::vector<Return>& out);

using CallReader = FrameReader<Call, next_call>;
using ReturnReader = FrameReader<Return, next_return>;

/// Client side of one persistent RMI connection: one synchronous call at a
/// time. Its caller waits for each return before the next call; the RMI
/// translator does so through its native call queue (DESIGN.md §7.7).
class RmiConnection {
 public:
  using ReturnFn = std::function<void(Result<Return>)>;

  explicit RmiConnection(net::StreamPtr stream);
  ~RmiConnection();
  RmiConnection(const RmiConnection&) = delete;
  RmiConnection& operator=(const RmiConnection&) = delete;

  /// Send a call, also before the stream connects; `done` fires once, with
  /// the return or the error. A call made while another is outstanding fails
  /// at once with Errc::refused.
  void call(Call call, ReturnFn done);
  void close();

 private:
  net::StreamPtr stream_;
  ReturnFn current_done_;  ///< the outstanding call's; empty when none is
  /// Stream handlers may outlive this object (the stream is owned by the
  /// network until teardown completes); they run only while it lives.
  sim::Lifetime lifetime_;
};

/// Server side: exports named objects with per-method handlers. A handler
/// also gets the caller's host, from the accepted stream (never the wire).
class RmiObjectServer {
 public:
  using MethodFn = std::function<Result<Bytes>(const Bytes& args, const std::string& caller)>;

  RmiObjectServer(net::Network& net, std::string host, std::uint16_t port);
  ~RmiObjectServer();
  RmiObjectServer(const RmiObjectServer&) = delete;
  RmiObjectServer& operator=(const RmiObjectServer&) = delete;

  [[nodiscard]] Result<void> start();
  void stop();

  void export_method(const std::string& object, const std::string& method, MethodFn fn);
  /// Drop every method of an exported object (calls then raise NoSuchMethod).
  void remove_object(const std::string& object);

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }
  std::uint64_t calls_served() const { return calls_served_; }

 private:
  void serve(net::StreamPtr stream);

  net::Network& net_;
  std::string host_;
  std::uint16_t port_;
  bool started_ = false;
  std::map<std::pair<std::string, std::string>, MethodFn> methods_;
  std::vector<net::StreamPtr> connections_;
  std::uint64_t calls_served_ = 0;
};

}  // namespace umiddle::rmi
