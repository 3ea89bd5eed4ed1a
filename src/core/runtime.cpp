#include "core/runtime.hpp"

#include "common/log.hpp"
#include "netsim/fault.hpp"

namespace umiddle::core {

// Auto-assigned node ids are allocated from the Network (per simulated world),
// not from a process-global counter: a global would give a second same-seed run
// in the same process different node ids, different advert sizes, and therefore
// a diverging trace digest (see tests/determinism_test.cpp).
Runtime::Runtime(sim::Scheduler& sched, net::Network& net, std::string host,
                 RuntimeConfig config)
    : sched_(sched), net_(net), host_(std::move(host)), config_(std::move(config)),
      node_(config_.node_id != 0 ? NodeId(config_.node_id) : NodeId(net.next_node_ordinal())) {
  directory_ = std::make_unique<Directory>(*this);
  transport_ = std::make_unique<Transport>(*this);
  directory_->add_directory_listener(transport_.get());
}

Runtime::~Runtime() { stop(); }

Result<void> Runtime::start() {
  if (started_) return ok_result();
  if (!net_.host_exists(host_)) {
    return make_error(Errc::not_found, "network host does not exist: " + host_);
  }
  if (auto r = transport_->start(); !r.ok()) return r;
  if (auto r = directory_->start(); !r.ok()) {
    transport_->stop();
    return r;
  }
  started_ = true;
  for (auto& mapper : mappers_) mapper->start(*this);
  log::Entry(log::Level::info, "runtime")
      << "node " << node_.to_string() << " started on " << host_;
  return ok_result();
}

void Runtime::stop() {
  if (!started_) return;
  lifetime_.reset();
  instantiating_.clear();
  for (auto& mapper : mappers_) {
    mapper->stop();
    mapper->forget_imports();
  }
  // Unmap in id order; withdraw notifies listeners and multicasts byes.
  while (!translators_.empty()) {
    (void)unmap(translators_.begin()->first);
  }
  directory_->stop();
  transport_->stop();
  started_ = false;
}

void Runtime::crash() {
  if (!started_) return;
  log::Entry(log::Level::warn, "runtime")
      << "node " << node_.to_string() << " crashed on " << host_;
  // Kill the host's network presence first (sockets, streams, memberships)…
  net_.faults().crash_host(host_);
  // …then drop all process state. No unmap notifications, no byes: nothing of
  // this runtime survives, and nothing is sent. Translator ids restart from 1
  // on the next start(), like a fresh process of the same node.
  lifetime_.reset();
  instantiating_.clear();
  for (auto& mapper : mappers_) {
    mapper->crash();
    mapper->forget_imports();
  }
  translators_.clear();
  directory_->crash();
  transport_->crash();
  translator_seq_ = 0;
  started_ = false;
}

Result<TranslatorId> Runtime::map(std::unique_ptr<Translator> translator) {
  if (translator == nullptr) {
    return make_error(Errc::invalid_argument, "null translator");
  }
  if (translator->profile().shape.empty()) {
    return make_error(Errc::invalid_argument,
                      "translator has no ports: " + translator->profile().name);
  }
  TranslatorId id(scope_id(++translator_seq_));
  Translator* raw = translator.get();
  raw->profile_.id = id;
  raw->profile_.node = node_;
  raw->runtime_ = this;
  translators_[id] = std::move(translator);
  directory_->publish_local(raw->profile());
  raw->on_mapped();
  return id;
}

std::uint64_t Runtime::instantiate(std::unique_ptr<Translator> translator,
                                   std::function<void(Result<TranslatorId>)> done) {
  if (translator == nullptr) {
    if (done) done(make_error(Errc::invalid_argument, "null translator"));
    return 0;
  }
  sim::Duration cost = config_.costs.instantiation_cost(
      translator->profile().shape.size(), translator->hierarchy_entities());
  const std::uint64_t ticket = ++instantiation_seq_;
  instantiating_.emplace(ticket, std::move(translator));
  sched_.schedule_after(
      cost,
      lifetime_.guard([this, ticket, done = std::move(done)]() {
        auto pending = instantiating_.extract(ticket);
        if (pending.empty()) return;  // abandoned
        auto result = map(std::move(pending.mapped()));
        if (done) done(std::move(result));
      }),
      {sim::host_id(host_), sim::tag_id("runtime.instantiate")});
  return ticket;
}

Result<void> Runtime::unmap(TranslatorId id) {
  auto it = translators_.find(id);
  if (it == translators_.end()) {
    return make_error(Errc::not_found, "no local translator " + id.to_string());
  }
  it->second->on_unmapped();
  it->second->runtime_ = nullptr;
  directory_->withdraw_local(id);  // notifies transport, which prunes paths
  translators_.erase(it);
  return ok_result();
}

Translator* Runtime::translator(TranslatorId id) {
  auto it = translators_.find(id);
  return it == translators_.end() ? nullptr : it->second.get();
}

void Runtime::add_mapper(std::unique_ptr<Mapper> mapper) {
  Mapper* raw = mapper.get();
  raw->runtime_ = this;
  mappers_.push_back(std::move(mapper));
  if (started_) raw->start(*this);
}

Result<void> Runtime::route_emit(const PortRef& src, Message&& msg) {
  // Telemetry ingress: every message entering the intermediary space carries a
  // trace id from here on (kept if the emitter already attributed one).
  if (msg.trace == 0) msg.trace = net_.tracer().new_trace();
  // A Block-policy path may refuse the emit with would-block (Errc::
  // buffer_overflow); the producer is expected to retry (DESIGN.md §11).
  return transport_->route(src, std::move(msg));
}

void Runtime::notify_ready(TranslatorId id) { transport_->notify_ready(id); }

}  // namespace umiddle::core
