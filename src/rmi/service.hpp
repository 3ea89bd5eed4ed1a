// A native Java-RMI-style service: exports `deliver` (uMiddle → service) and
// `echo`, and *pushes* data into uMiddle by invoking the mapper's gateway
// object — this is how the paper's §5.3 "RMI service sends 1400-byte messages
// to itself through uMiddle" benchmark drives traffic.
#pragma once

#include <optional>

#include "rmi/registry.hpp"

namespace umiddle::rmi {

class RmiEchoService {
 public:
  /// Exports object `name` (type "rmi:echo") on host:port and binds it in the
  /// registry.
  RmiEchoService(net::Network& net, std::string host, std::uint16_t port, std::string name,
                 net::Endpoint registry);

  [[nodiscard]] Result<void> start();
  void stop();

  /// Messages delivered by uMiddle (via the translator's `deliver` call).
  std::uint64_t received() const { return received_; }
  std::uint64_t received_bytes() const { return received_bytes_; }

  /// Push a message into uMiddle via the gateway object (synchronous RMI
  /// call). `done` fires when the gateway acks — the service is call-at-a-time,
  /// like real RMI stubs: a push before the last one's `done` is refused.
  void push(Bytes data, std::function<void(Result<void>)> done);
  /// Resolve the gateway binding from the registry (name: "umiddle-gw-<name>").
  void resolve_gateway(std::function<void(Result<void>)> done);

  const std::string& name() const { return name_; }

 private:
  net::Network& net_;
  std::string host_;
  std::uint16_t port_;
  std::string name_;
  net::Endpoint registry_;
  RmiObjectServer server_;
  RegistryClient registry_client_;
  std::shared_ptr<RmiConnection> gateway_conn_;
  std::uint64_t received_ = 0;
  std::uint64_t received_bytes_ = 0;
};

}  // namespace umiddle::rmi
