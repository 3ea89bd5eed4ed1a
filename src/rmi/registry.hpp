// The RMI registry: bind/lookup/list of named remote objects, itself exposed
// as a remote object ("registry") over the RMI protocol on port 1099.
//
// A name belongs to the host that bound it. A bind of a name another host
// holds raises AlreadyBoundException, as Java's does; only the binding host
// rebinds (replaces) or unbinds it.
#pragma once

#include <memory>

#include "core/registrations.hpp"
#include "rmi/protocol.hpp"

namespace umiddle::rmi {

constexpr std::uint16_t kRegistryPort = 1099;

/// A registry entry: where to reach a named remote object, plus a free-form
/// type string ("rmi:echo") the uMiddle mapper matches USDL documents against.
struct Binding {
  std::string name;
  std::string type;
  std::string host;
  std::uint16_t port = 0;

  std::string serialize() const;
  static Result<Binding> parse(std::string_view text);

  bool operator==(const Binding&) const = default;
};

class RmiRegistry {
 public:
  RmiRegistry(net::Network& net, std::string host, std::uint16_t port = kRegistryPort);

  [[nodiscard]] Result<void> start();

  std::size_t size() const { return bindings_.size(); }
  net::Endpoint endpoint() const { return {host_, port_}; }

 private:
  // The remote methods of object "registry"; `caller` is the calling host.
  [[nodiscard]] Result<Bytes> bind(const Bytes& args, const std::string& caller);
  [[nodiscard]] Result<Bytes> unbind(const Bytes& args, const std::string& caller);
  [[nodiscard]] Result<Bytes> lookup(const Bytes& args, const std::string& caller) const;
  [[nodiscard]] Result<Bytes> list(const Bytes& args, const std::string& caller) const;

  std::string host_;
  std::uint16_t port_;
  RmiObjectServer server_;
  /// Name → its binding, owned by the binding host.
  core::Registrations<std::string, std::string, Binding> bindings_;
};

/// Client helpers: each runs one call on a fresh stream to the registry, as a
/// net::Exchange (DESIGN.md §7.6).
class RegistryClient {
 public:
  using ListFn = std::function<void(Result<std::vector<Binding>>)>;
  using LookupFn = std::function<void(Result<Binding>)>;
  using DoneFn = std::function<void(Result<void>)>;

  RegistryClient(net::Network& net, std::string from_host, net::Endpoint registry);

  void bind(const Binding& binding, DoneFn done);
  void unbind(const std::string& name, DoneFn done);
  void lookup(const std::string& name, LookupFn done);
  void list(ListFn done);

 private:
  void invoke(const std::string& method, Bytes args,
              std::function<void(Result<Return>)> done);

  net::Network& net_;
  std::string from_host_;
  net::Endpoint registry_;
};

}  // namespace umiddle::rmi
