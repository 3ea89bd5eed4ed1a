#include "rmi/service.hpp"

#include "common/log.hpp"

namespace umiddle::rmi {

RmiEchoService::RmiEchoService(net::Network& net, std::string host, std::uint16_t port,
                               std::string name, net::Endpoint registry)
    : net_(net), host_(std::move(host)), port_(port), name_(std::move(name)),
      registry_(std::move(registry)), server_(net_, host_, port_),
      registry_client_(net_, host_, registry_) {
  server_.export_method(name_, "deliver",
                        [this](const Bytes& args, const std::string&) -> Result<Bytes> {
                          ++received_;
                          received_bytes_ += args.size();
                          return to_bytes("ok");
                        });
  server_.export_method(name_, "echo", [](const Bytes& args, const std::string&) -> Result<Bytes> {
    return args;
  });
}

Result<void> RmiEchoService::start() {
  if (auto r = server_.start(); !r.ok()) return r;
  registry_client_.bind(Binding{name_, "rmi:echo", host_, port_}, [this](Result<void> r) {
    if (!r.ok()) {
      log::Entry(log::Level::warn, "rmi") << "bind failed for " << name_ << ": "
                                          << r.error().to_string();
    }
  });
  return ok_result();
}

void RmiEchoService::stop() {
  registry_client_.unbind(name_, [](Result<void>) {});
  if (gateway_conn_) gateway_conn_->close();
  gateway_conn_ = nullptr;
  server_.stop();
}

void RmiEchoService::resolve_gateway(std::function<void(Result<void>)> done) {
  registry_client_.lookup("umiddle-gw-" + name_,
                          [this, done = std::move(done)](Result<Binding> binding) {
                            if (!binding.ok()) {
                              done(binding.error());
                              return;
                            }
                            auto stream = net_.connect(
                                host_, {binding.value().host, binding.value().port});
                            if (!stream.ok()) {
                              done(stream.error());
                              return;
                            }
                            gateway_conn_ = std::make_shared<RmiConnection>(stream.value());
                            done(ok_result());
                          });
}

void RmiEchoService::push(Bytes data, std::function<void(Result<void>)> done) {
  if (gateway_conn_ == nullptr) {
    done(make_error(Errc::disconnected, "rmi: gateway not resolved"));
    return;
  }
  gateway_conn_->call(Call{"umiddle-gw-" + name_, "send", std::move(data)},
                      [done = std::move(done)](Result<Return> r) { done(completed(r)); });
}

}  // namespace umiddle::rmi
