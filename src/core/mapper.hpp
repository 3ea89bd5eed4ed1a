// Mapper: the service-level + transport-level bridge for one platform (§3.2).
//
// A mapper discovers native devices with the platform's own discovery protocol
// (SSDP, Bluetooth inquiry + SDP, registry polling, ...), then imports each into
// the intermediary semantic space by instantiating a translator — typically the
// platform's generic translator parameterized by a USDL document. It also hosts
// the base-protocol support (SOAP/HTTP client, OBEX stack, ...) its translators
// call into.
//
// Every mapper shares one import table (DESIGN.md §7.5): native device key →
// mapped translator or import in flight. Subclasses do the platform work and
// call import/gone/seen/forget_unseen; the runtime forgets the table on
// stop() and crash(). USDL descriptions are looked up under the mapper's own
// platform name.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "sim/scheduler.hpp"

namespace umiddle::core {

class Runtime;
class Translator;
class UsdlLibrary;
struct UsdlService;

class Mapper {
 public:
  /// Outcome of one import: the translator id, or an error if instantiation
  /// failed, the key was already known, or the import was abandoned.
  using ImportDone = std::function<void(Result<TranslatorId>)>;

  /// One native device in the import table.
  struct Import {
    std::optional<TranslatorId> id;  ///< empty while the import is in flight
    sim::TimePoint last_seen{};
  };

  /// `library` must outlive the mapper.
  Mapper(std::string platform, const UsdlLibrary& library)
      : platform_(std::move(platform)), library_(library) {}
  virtual ~Mapper() = default;
  Mapper(const Mapper&) = delete;
  Mapper& operator=(const Mapper&) = delete;

  const std::string& platform() const { return platform_; }
  /// The runtime this mapper was added to.
  Runtime& runtime() const { return *runtime_; }

  /// Begin discovery; called once the runtime is started.
  virtual void start(Runtime& runtime) = 0;
  virtual void stop() {}
  /// Simulated process death (Runtime::crash). Default: plain stop(). The
  /// import table is forgotten by the runtime either way.
  virtual void crash() { stop(); }

  /// The device under `key`, mapped or importing; nullptr if unknown.
  const Import* find(const std::string& key) const;

 protected:
  /// The USDL description of native type `match` on this platform; nullptr if
  /// the library has none.
  const UsdlService* usdl(std::string_view match) const;
  /// Instantiate `translator` for the device under `key`. A known key, a null
  /// translator or a stopped runtime imports nothing and resolves `done` with
  /// an error.
  void import(const std::string& key, std::unique_ptr<Translator> translator,
              ImportDone done = {});
  /// The device left: unmap its translator, or abandon its import.
  void gone(const std::string& key);
  /// Note the device as present at `now`; nullptr if the key is unknown.
  const Import* seen(const std::string& key, sim::TimePoint now);
  /// gone() for every device last seen before `before`, in key order: the
  /// directory's expiry rule, core::unseen_before.
  void forget_unseen(sim::TimePoint before);

 private:
  friend class Runtime;

  struct Entry : Import {
    ImportDone done;
    std::uint64_t ticket = 0;  ///< Runtime::instantiate's, while in flight
  };

  /// Runtime::stop/crash: drop every entry and abandon in-flight imports.
  /// The runtime itself unmaps (or drops) the mapped translators.
  void forget_imports();
  void landed(const std::string& key, Result<TranslatorId> result);
  /// Unmap a landed entry's translator, or abandon its import.
  void retire(Entry& entry);

  std::string platform_;
  const UsdlLibrary& library_;
  Runtime* runtime_ = nullptr;
  std::map<std::string, Entry> imports_;
};

}  // namespace umiddle::core
