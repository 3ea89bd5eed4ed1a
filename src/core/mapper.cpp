#include "core/mapper.hpp"

#include "common/log.hpp"
#include "core/directory_table.hpp"
#include "core/runtime.hpp"
#include "core/usdl.hpp"

namespace umiddle::core {

const Mapper::Import* Mapper::find(const std::string& key) const {
  auto it = imports_.find(key);
  return it == imports_.end() ? nullptr : &it->second;
}

const UsdlService* Mapper::usdl(std::string_view match) const {
  return library_.find(platform_, match);
}

void Mapper::import(const std::string& key, std::unique_ptr<Translator> translator,
                    ImportDone done) {
  Runtime& rt = runtime();
  if (translator == nullptr || !rt.started() || imports_.count(key) != 0) {
    if (done) done(make_error(Errc::already_exists, platform_ + " import not wanted: " + key));
    return;
  }
  Entry& entry = imports_[key];
  entry.last_seen = rt.scheduler().now();
  entry.done = std::move(done);
  entry.ticket = rt.instantiate(std::move(translator), [this, key](Result<TranslatorId> r) {
    landed(key, std::move(r));
  });
}

void Mapper::landed(const std::string& key, Result<TranslatorId> result) {
  auto it = imports_.find(key);
  if (it == imports_.end()) return;
  ImportDone done = std::move(it->second.done);
  if (result.ok()) {
    it->second.id = result.value();
  } else {
    log::Entry(log::Level::warn, platform_) << "instantiate failed: " << result.error().to_string();
    imports_.erase(it);
  }
  if (done) done(std::move(result));
}

void Mapper::gone(const std::string& key) {
  auto node = imports_.extract(key);
  if (!node.empty()) retire(node.mapped());
}

const Mapper::Import* Mapper::seen(const std::string& key, sim::TimePoint now) {
  auto it = imports_.find(key);
  if (it == imports_.end()) return nullptr;
  it->second.last_seen = now;
  return &it->second;
}

void Mapper::forget_unseen(sim::TimePoint before) {
  for (const std::string& key : unseen_before(imports_, before)) gone(key);
}

void Mapper::forget_imports() {
  auto imports = std::move(imports_);
  imports_.clear();
  for (auto& [key, entry] : imports) {
    if (!entry.id) retire(entry);
  }
}

void Mapper::retire(Entry& entry) {
  if (entry.id) {
    (void)runtime().unmap(*entry.id);
    return;
  }
  // Not landed yet (landed() would have set the id): the runtime destroys the
  // translator now, so nothing is mapped and no advert is sent.
  runtime().abandon(entry.ticket);
  if (entry.done) entry.done(make_error(Errc::disconnected, platform_ + " import abandoned"));
}

}  // namespace umiddle::core
