#include "rts/registry.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mage::rts {

Registry::Record* Registry::find(const common::ComponentName& name) {
  const auto it = records_.find(name);
  return it == records_.end() ? nullptr : &it->second;
}

const Registry::Record* Registry::find(
    const common::ComponentName& name) const {
  const auto it = records_.find(name);
  return it == records_.end() ? nullptr : &it->second;
}

void Registry::bind(const common::ComponentName& name,
                    std::unique_ptr<MageObject> object, std::uint64_t epoch) {
  Record& record = records_[name];
  if (record.object == nullptr) ++bound_;
  if (object == nullptr) --bound_;
  record.object = std::move(object);
  ++record.binding;
  record.forward.reset();
  record.epoch = std::max({record.epoch, epoch, std::uint64_t{1}});
}

std::unique_ptr<MageObject> Registry::unbind(
    const common::ComponentName& name) {
  Record* record = find(name);
  if (record == nullptr || record->object == nullptr) {
    throw common::NotFoundError(name, "unbind: not bound in this namespace");
  }
  --bound_;
  return std::move(record->object);
}

MageObject& Registry::local(const common::ComponentName& name) {
  Record* record = find(name);
  if (record == nullptr || record->object == nullptr) {
    throw common::NotFoundError(name, "not bound in this namespace");
  }
  return *record->object;
}

std::vector<common::ComponentName> Registry::local_names() const {
  std::vector<common::ComponentName> names;
  names.reserve(bound_);
  for (const auto& [name, record] : records_) {
    if (record.object != nullptr) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void Registry::update_forward(const common::ComponentName& name,
                              common::NodeId to) {
  if (to == self_) {
    if (Record* record = find(name)) record->forward.reset();
    return;
  }
  records_[name].forward = to;
}

bool Registry::update_forward(const common::ComponentName& name,
                              common::NodeId to, std::uint64_t epoch) {
  Record& record = records_[name];
  if (epoch < record.epoch) return false;  // stale placement knowledge
  record.epoch = epoch;
  if (to == self_) {
    record.forward.reset();
  } else {
    record.forward = to;
  }
  return true;
}

std::uint64_t Registry::epoch_of(const common::ComponentName& name) const {
  const Record* record = find(name);
  return record == nullptr ? 0 : record->epoch;
}

std::optional<common::NodeId> Registry::forward(
    const common::ComponentName& name) const {
  const Record* record = find(name);
  return record == nullptr ? std::nullopt : record->forward;
}

void Registry::set_in_transit(const common::ComponentName& name,
                              std::optional<common::NodeId> to) {
  records_[name].in_transit = to;
}

void Registry::park_result(const common::ComponentName& name,
                           serial::Buffer result) {
  records_[name].result = std::move(result);
}

std::optional<serial::Buffer> Registry::take_result(
    const common::ComponentName& name) {
  Record* record = find(name);
  if (record == nullptr) return std::nullopt;
  std::optional<serial::Buffer> result = std::move(record->result);
  record->result.reset();
  return result;
}

}  // namespace mage::rts
