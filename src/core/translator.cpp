#include "core/translator.hpp"

#include <utility>

#include "core/runtime.hpp"

namespace umiddle::core {

Translator::Translator(std::string name, std::string platform, std::string device_type,
                       Shape shape) {
  profile_.name = std::move(name);
  profile_.platform = std::move(platform);
  profile_.device_type = std::move(device_type);
  profile_.shape = std::move(shape);
}

Result<void> Translator::emit(const std::string& port, Message msg) {
  return route(port, profile_.shape.find(port), std::move(msg));
}

Result<void> Translator::route(const std::string& port, const PortSpec* spec,
                               Message&& msg) {
  if (runtime_ == nullptr) {
    return make_error(Errc::internal, "translator not mapped: " + profile_.name);
  }
  if (spec == nullptr) {
    return make_error(Errc::not_found, "no such port: " + port + " on " + profile_.name);
  }
  if (spec->kind != PortKind::digital || spec->direction != Direction::output) {
    return make_error(Errc::invalid_argument, "emit requires a digital output port: " + port);
  }
  if (!spec->type.matches(msg.type)) {
    return make_error(Errc::incompatible, "message type " + msg.type.to_string() +
                                              " does not match port type " +
                                              spec->type.to_string());
  }
  return runtime_->route_emit(PortRef{profile_.id, port}, std::move(msg));
}

UsdlTranslator::UsdlTranslator(std::string name, const UsdlService& usdl)
    : Translator(std::move(name), usdl.platform, usdl.match, usdl.shape), usdl_(usdl) {
  set_hierarchy_entities(usdl.hierarchy_entities);
}

const UsdlBinding* UsdlTranslator::find_binding(std::string_view kind,
                                                 std::string_view port) const {
  for (const UsdlBinding& b : usdl_.bindings) {
    if (b.kind == kind && b.port == port) return &b;
  }
  return nullptr;
}

bool UsdlTranslator::ready(const std::string&) const { return native_calls_.empty(); }

void UsdlTranslator::on_unmapped() {
  lifetime_.reset();
  native_calls_.clear();
  teardown();
}

Result<void> UsdlTranslator::emit_typed(const std::string& port, Message msg) {
  const PortSpec* spec = profile().shape.find(port);
  if (spec != nullptr) {
    static const MimeType kOctetStream = MimeType::of("application/octet-stream");
    msg.type = spec->type.is_wildcard() ? kOctetStream : spec->type;
  }
  return route(port, spec, std::move(msg));
}

void UsdlTranslator::notify_ready() {
  if (mapped()) runtime()->notify_ready(profile().id);
}

void UsdlTranslator::run_native(std::function<void()> call) {
  native_calls_.push_back(std::move(call));
  if (native_calls_.size() == 1) start_native();
}

void UsdlTranslator::native_done() {
  native_calls_.erase(native_calls_.begin());
  notify_ready();
  // notify_ready() may have delivered, and so started, the next call already.
  if (!native_calls_.empty() && native_calls_.front()) start_native();
}

void UsdlTranslator::start_native() {
  // The running call is taken out and leaves an empty entry at the front: it
  // may complete, and native_done() erase that entry, before it returns.
  std::exchange(native_calls_.front(), nullptr)();
}

}  // namespace umiddle::core
