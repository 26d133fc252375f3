// String interning for event labels and other small, repeated names.
//
// The simulator kernel stores event labels as `const char*` so that
// scheduling never allocates for the (overwhelmingly common) case of a
// string-literal label. Call sites that genuinely build a label at
// runtime — e.g. a GUI client's per-instance fault labels — intern it
// once and reuse the stable pointer forever after.
//
// A StringInterner is deliberately per-instance, not global: every
// fleet shard owns its own component graph (bus, MAB, endpoints), so
// per-component interners need no locking and TSan stays quiet.
#pragma once

#include <deque>
#include <string>
#include <string_view>

#include "util/flat_map.h"

namespace simba::util {

/// Owns a deduplicated set of strings and hands out stable C-string
/// pointers into them. The flat-map index is keyed by string_views
/// into a std::deque backing store — the deque never moves a stored
/// std::string (SSO would otherwise invalidate c_str() on short
/// strings when a vector reallocates), so pointers stay valid for the
/// interner's lifetime. Moving an interner hands the deque's blocks
/// over in place, so pointers stay valid across a move too; copying is
/// deleted, because a copy's index would point into its source. Not
/// thread-safe; intended to be owned by a single-threaded component
/// alongside its Simulator.
class StringInterner {
 public:
  StringInterner() = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Returns a stable NUL-terminated pointer to a string equal to
  /// `text`, inserting it on first sight. One hash probe with no
  /// allocation when `text` was seen before.
  const char* intern(std::string_view text) {
    const auto it = index_.find(text);
    if (it != index_.end()) return it->second;
    storage_.emplace_back(text);
    const std::string& stored = storage_.back();
    index_.emplace(std::string_view(stored), stored.c_str());
    return stored.c_str();
  }

  std::size_t size() const { return storage_.size(); }

 private:
  std::deque<std::string> storage_;
  FlatMap<std::string_view, const char*> index_;
};

}  // namespace simba::util
