#include "core/registry.h"

namespace gems {

Status AnySketch::Update(uint64_t item) {
  if (!has_value()) {
    return Status::FailedPrecondition("update on an empty AnySketch");
  }
  EnsureUnique();
  return impl_->Update(item);
}

Status AnySketch::UpdateBatch(std::span<const uint64_t> items) {
  if (!has_value()) {
    return Status::FailedPrecondition("update on an empty AnySketch");
  }
  EnsureUnique();
  return impl_->UpdateBatch(items);
}

Status AnySketch::UpdateBatchTimed(std::span<const uint64_t> timestamps,
                                   std::span<const uint64_t> items) {
  if (!has_value()) {
    return Status::FailedPrecondition("update on an empty AnySketch");
  }
  if (timestamps.size() != items.size()) {
    return Status::InvalidArgument(
        "timestamp column must parallel the item column");
  }
  EnsureUnique();
  return impl_->UpdateBatchTimed(timestamps, items);
}

Status AnySketch::Advance(uint64_t now) {
  if (!has_value()) {
    return Status::FailedPrecondition("advance on an empty AnySketch");
  }
  EnsureUnique();
  return impl_->Advance(now);
}

Status AnySketch::Merge(const AnySketch& other) {
  if (!has_value() || !other.has_value()) {
    return Status::InvalidArgument("merge with an empty AnySketch");
  }
  if (type_ != other.type_) {
    return Status::InvalidArgument(
        std::string("cannot merge sketch type ") + other.type_name() +
        " into " + type_name());
  }
  EnsureUnique();
  return impl_->MergeFrom(*other.impl_);
}

Status AnySketch::MergeFromView(const SketchView& view) {
  if (!has_value()) {
    return Status::InvalidArgument("merge into an empty AnySketch");
  }
  if (!view.has_value()) {
    return Status::InvalidArgument("merge from an empty sketch view");
  }
  if (type_ != view.type()) {
    return Status::InvalidArgument(
        std::string("cannot merge sketch type ") + view.type_name() +
        " into " + type_name());
  }
  EnsureUnique();
  return impl_->MergeFromView(view);
}

std::vector<uint8_t> AnySketch::Serialize() const {
  std::vector<uint8_t> out;
  ByteSink sink(&out);
  SerializeTo(sink);
  return out;
}

void AnySketch::SerializeTo(ByteSink& sink) const {
  if (!has_value()) return;
  impl_->SerializeTo(sink);
}

std::string AnySketch::EstimateSummary() const {
  if (!has_value()) return "(empty)";
  return impl_->EstimateSummary();
}

Result<gems::Estimate> AnySketch::EstimateWithBounds(double confidence) const {
  if (!has_value()) {
    return Status::FailedPrecondition("estimate on an empty AnySketch");
  }
  return impl_->EstimateWithBounds(confidence);
}

Result<gems::Estimate> AnySketch::EstimateItemWithBounds(
    uint64_t item, double confidence) const {
  if (!has_value()) {
    return Status::FailedPrecondition("estimate on an empty AnySketch");
  }
  return impl_->EstimateItemWithBounds(item, confidence);
}

SketchRegistry& SketchRegistry::Global() {
  static SketchRegistry* registry = new SketchRegistry();
  return *registry;
}

Status SketchRegistry::Register(SketchTypeId id, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.emplace(id, std::move(entry));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument(
        std::string("sketch type already registered: ") + SketchTypeName(id));
  }
  return Status::Ok();
}

const SketchRegistry::Entry* SketchRegistry::Find(SketchTypeId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const SketchRegistry::Entry* SketchRegistry::FindByName(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, entry] : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

Result<AnySketch> SketchRegistry::Deserialize(
    std::span<const uint8_t> bytes) const {
  Result<SketchTypeId> type = PeekSketchType(bytes);
  if (!type.ok()) return type.status();
  const Entry* entry = Find(type.value());
  if (entry == nullptr) {
    return Status::Corruption(
        std::string("no deserializer registered for sketch type ") +
        SketchTypeName(type.value()));
  }
  return entry->deserialize(bytes);
}

Result<AnySketchView> SketchRegistry::Wrap(ByteSpan bytes) const {
  return WrapImpl(SketchView::Wrap(bytes));
}

Result<AnySketchView> SketchRegistry::WrapTrusted(ByteSpan bytes) const {
  return WrapImpl(SketchView::WrapTrusted(bytes));
}

Result<AnySketchView> SketchRegistry::WrapImpl(
    Result<SketchView> view) const {
  if (!view.ok()) return view.status();
  const Entry* entry = Find(view.value().type());
  if (entry == nullptr) {
    return Status::Corruption(
        std::string("no deserializer registered for sketch type ") +
        SketchTypeName(view.value().type()));
  }
  AnySketchView any;
  any.view_ = view.value();
  any.entry_ = entry;
  return any;
}

std::vector<SketchTypeId> SketchRegistry::RegisteredTypes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SketchTypeId> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) out.push_back(id);
  return out;
}

}  // namespace gems
