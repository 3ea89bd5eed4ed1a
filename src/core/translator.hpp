// Translator: the device-level bridge (paper §3.2).
//
// A translator (1) projects a native device's semantics into the intermediary
// semantic space as a shape of ports, (2) acts as a proxy — messages delivered
// to its input ports trigger operations on the native device, and native
// activity is emitted from its output ports — and (3) encapsulates the
// device-specific protocol, built on the base-protocol support of its mapper.
//
// Concrete subclasses live in the platform modules (one generic UsdlTranslator
// per platform, parameterized by USDL) and in native uMiddle services
// (native_device.hpp).
#pragma once

#include <functional>
#include <memory>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "core/message.hpp"
#include "core/profile.hpp"
#include "core/usdl.hpp"
#include "sim/timer.hpp"

namespace umiddle::core {

class Runtime;

class Translator {
 public:
  /// Shape and identity are fixed at construction; id/node are assigned when
  /// the translator is mapped into a runtime.
  Translator(std::string name, std::string platform, std::string device_type, Shape shape);
  virtual ~Translator() = default;
  Translator(const Translator&) = delete;
  Translator& operator=(const Translator&) = delete;

  const TranslatorProfile& profile() const { return profile_; }
  /// Extra intermediary entities this translator needed (for Fig. 10 costing).
  int hierarchy_entities() const { return hierarchy_entities_; }
  void set_hierarchy_entities(int n) { hierarchy_entities_ = n; }

  /// uMiddle → native: a message arrives on one of our digital input ports.
  /// Implementations run the corresponding native operation.
  [[nodiscard]] virtual Result<void> deliver(const std::string& port, const Message& msg) = 0;

  /// Lifecycle notifications from the runtime.
  virtual void on_mapped() {}
  virtual void on_unmapped() {}

  /// Backpressure signal: false while the native device cannot accept another
  /// message on this input port (e.g. a synchronous RMI call is outstanding).
  /// The transport pauses path drainage and resumes when the translator calls
  /// Runtime::notify_ready(). This is what makes the paper's §5.3 "translation
  /// buffer" accumulation observable. A platform translator's rule is
  /// UsdlTranslator's serial native calls (DESIGN.md §7.7): a peer's DATA
  /// frame is delivered without asking, so ready() paces paths, not calls.
  virtual bool ready(const std::string& port) const {
    (void)port;
    return true;
  }

  bool mapped() const { return runtime_ != nullptr; }
  Runtime* runtime() const { return runtime_; }

 protected:
  /// native → uMiddle: push a message out of one of our digital output ports.
  /// Validates the port exists, is a digital output, and accepts msg.type;
  /// then routes through the hosting runtime's transport.
  [[nodiscard]] Result<void> emit(const std::string& port, Message msg);

 private:
  friend class Runtime;
  friend class UsdlTranslator;
  /// emit() once `port` has been looked up: `spec` is its entry in our shape,
  /// or nullptr if there is none.
  [[nodiscard]] Result<void> route(const std::string& port, const PortSpec* spec,
                                   Message&& msg);

  TranslatorProfile profile_;
  int hierarchy_entities_ = 0;
  Runtime* runtime_ = nullptr;
};

/// A platform's generic translator, parameterized by one USDL service
/// description (paper §3.4, DESIGN.md §7.7). The rules every platform shares
/// live here once: identity, shape and hierarchy entities come from the
/// description; bindings are found by kind and port; output is typed by its
/// port; one Lifetime guards the platform's callbacks until unmap; and native
/// calls run one at a time, in delivery order. A subclass keeps only its
/// native protocol.
class UsdlTranslator : public Translator {
 public:
  /// The platform and device type are the (platform, match) key the mapper
  /// found `usdl` under; `usdl` must outlive the translator (the library
  /// owns it).
  UsdlTranslator(std::string name, const UsdlService& usdl);

  const UsdlService& usdl() const { return usdl_; }
  /// The first binding of `kind` on `port`, in document order; nullptr if none.
  const UsdlBinding* find_binding(std::string_view kind, std::string_view port) const;
  /// Every binding of `kind`, in document order. The view refers to the
  /// characters of `kind`: pass a literal, not a temporary string.
  auto bindings(std::string_view kind) const {
    return usdl_.bindings |
           std::views::filter([kind](const UsdlBinding& b) { return b.kind == kind; });
  }

  /// Ready while no native call runs or waits.
  bool ready(const std::string& port) const override;
  /// Ends lifetime() and drops the queued native calls, then runs the
  /// platform's teardown().
  void on_unmapped() final;

 protected:
  /// emit() typed as `port` declares: its type, or application/octet-stream
  /// for a wildcard port. An unmapped translator or an unknown port is an
  /// error, and nothing is routed.
  [[nodiscard]] Result<void> emit_typed(const std::string& port, Message msg);
  /// Tell the transport our input ports may accept again (backpressure).
  void notify_ready();
  /// Queue one native call (DESIGN.md §7.7, "Serial native calls"): `call`
  /// starts at once when no other runs, else after those queued before it.
  /// Every path out of it ends in native_done(), guarded by lifetime().
  void run_native(std::function<void()> call);
  /// The running native call completed: drop it, notify_ready(), then start
  /// the next queued call.
  void native_done();
  /// Guards the platform's callbacks; ends at unmap, before teardown().
  const sim::Lifetime& lifetime() const { return lifetime_; }
  /// The platform's own unmap work: close channels, drop subscriptions.
  virtual void teardown() {}

 private:
  void start_native();

  const UsdlService& usdl_;
  sim::Lifetime lifetime_;
  /// The running native call, as an empty entry, then the queued ones. A
  /// vector: it allocates nothing until a first call, and rarely holds two.
  std::vector<std::function<void()>> native_calls_;
};

}  // namespace umiddle::core
