#include "rmi/registry.hpp"

#include <functional>

#include "common/strings.hpp"
#include "netsim/exchange.hpp"

namespace umiddle::rmi {

std::string Binding::serialize() const {
  return name + "|" + type + "|" + host + "|" + std::to_string(port);
}

Result<Binding> Binding::parse(std::string_view text) {
  auto parts = strings::split(text, '|');
  if (parts.size() != 4) return make_error(Errc::parse_error, "rmi: bad binding record");
  std::uint64_t port = 0;
  if (!strings::parse_u64(parts[3], port) || port == 0 || port > 65535) {
    return make_error(Errc::parse_error, "rmi: bad binding port");
  }
  return Binding{parts[0], parts[1], parts[2], static_cast<std::uint16_t>(port)};
}

RmiRegistry::RmiRegistry(net::Network& net, std::string host, std::uint16_t port)
    : host_(std::move(host)), port_(port), server_(net, host_, port_) {
  server_.export_method("registry", "bind", std::bind_front(&RmiRegistry::bind, this));
  server_.export_method("registry", "unbind", std::bind_front(&RmiRegistry::unbind, this));
  server_.export_method("registry", "lookup", std::bind_front(&RmiRegistry::lookup, this));
  server_.export_method("registry", "list", std::bind_front(&RmiRegistry::list, this));
}

Result<Bytes> RmiRegistry::bind(const Bytes& args, const std::string& caller) {
  auto binding = Binding::parse(umiddle::to_string(args));
  if (!binding.ok()) return binding.error();
  if (!bindings_.add(binding.value().name, caller, binding.value())) {
    return make_error(Errc::refused, "AlreadyBoundException: " + binding.value().name);
  }
  return to_bytes("ok");
}

Result<Bytes> RmiRegistry::unbind(const Bytes& args, const std::string& caller) {
  const std::string name = umiddle::to_string(args);
  if (!bindings_.remove(name, caller)) {
    return make_error(Errc::refused, "NotBoundException: " + name + " is not bound by " + caller);
  }
  return to_bytes("ok");
}

Result<Bytes> RmiRegistry::lookup(const Bytes& args, const std::string&) const {
  const auto* bound = bindings_.find(umiddle::to_string(args));
  if (bound == nullptr) return make_error(Errc::not_found, "not bound");
  return to_bytes(bound->value.serialize());
}

Result<Bytes> RmiRegistry::list(const Bytes&, const std::string&) const {
  std::string out;
  for (const auto& [name, bound] : bindings_) out += bound.value.serialize() + "\n";
  return to_bytes(out);
}

Result<void> RmiRegistry::start() { return server_.start(); }

RegistryClient::RegistryClient(net::Network& net, std::string from_host, net::Endpoint registry)
    : net_(net), from_host_(std::move(from_host)), registry_(std::move(registry)) {}

void RegistryClient::invoke(const std::string& method, Bytes args,
                            std::function<void(Result<Return>)> done) {
  using Exchange = net::Exchange<Return>;
  Exchange::run<ReturnReader>(
      net_.connect(from_host_, registry_),
      make_payload(encode_call(Call{"registry", method, std::move(args)})),
      [](net::Stream&, Return& ret) -> Exchange::Reply { return std::move(ret); },
      std::move(done));
}

void RegistryClient::bind(const Binding& binding, DoneFn done) {
  invoke("bind", to_bytes(binding.serialize()),
         [done = std::move(done)](Result<Return> r) { done(completed(r)); });
}

void RegistryClient::unbind(const std::string& name, DoneFn done) {
  invoke("unbind", to_bytes(name),
         [done = std::move(done)](Result<Return> r) { done(completed(r)); });
}

void RegistryClient::lookup(const std::string& name, LookupFn done) {
  invoke("lookup", to_bytes(name), [done = std::move(done)](Result<Return> r) {
    if (!r.ok()) {
      done(r.error());
      return;
    }
    if (r.value().exception) {
      done(make_error(Errc::not_found, umiddle::to_string(r.value().value)));
      return;
    }
    done(Binding::parse(umiddle::to_string(r.value().value)));
  });
}

void RegistryClient::list(ListFn done) {
  invoke("list", {}, [done = std::move(done)](Result<Return> r) {
    if (!r.ok()) {
      done(r.error());
      return;
    }
    std::vector<Binding> out;
    for (const std::string& line :
         strings::split(umiddle::to_string(r.value().value), '\n')) {
      if (line.empty()) continue;
      auto binding = Binding::parse(line);
      if (!binding.ok()) {
        done(binding.error());
        return;
      }
      out.push_back(std::move(binding).take());
    }
    done(std::move(out));
  });
}

}  // namespace umiddle::rmi
