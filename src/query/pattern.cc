#include "src/query/pattern.h"

#include <algorithm>

namespace sharon {
namespace {

/// True if `sub` occurs in `types` at position i (it must fit there).
bool OccursAt(const std::vector<EventTypeId>& types, const Pattern& sub,
              size_t i) {
  return std::equal(sub.types().begin(), sub.types().end(),
                    types.begin() + i);
}

}  // namespace

std::vector<size_t> Pattern::FindOccurrences(const Pattern& sub) const {
  std::vector<size_t> out;
  if (sub.empty() || sub.length() > length()) return out;
  for (size_t i = 0; i + sub.length() <= length(); ++i) {
    if (OccursAt(types_, sub, i)) out.push_back(i);
  }
  return out;
}

std::optional<size_t> Pattern::Find(const Pattern& sub) const {
  if (sub.empty() || sub.length() > length()) return std::nullopt;
  for (size_t i = 0; i + sub.length() <= length(); ++i) {
    if (OccursAt(types_, sub, i)) return i;
  }
  return std::nullopt;
}

bool Pattern::Overlaps(const Pattern& a, const Pattern& b) const {
  if (a.empty() || b.empty() || a.length() > length() ||
      b.length() > length()) {
    return false;
  }
  // Scans occurrences in place: for each occurrence ia of a, only the
  // occurrences ib of b with [ia, ia+|a|) and [ib, ib+|b|) intersecting.
  for (size_t ia = 0; ia + a.length() <= length(); ++ia) {
    if (!OccursAt(types_, a, ia)) continue;
    const size_t ib_first = ia + 1 > b.length() ? ia + 1 - b.length() : 0;
    const size_t ib_last =
        std::min(length() - b.length(), ia + a.length() - 1);
    for (size_t ib = ib_first; ib <= ib_last; ++ib) {
      if (OccursAt(types_, b, ib)) return true;
    }
  }
  return false;
}

size_t Pattern::CountType(EventTypeId t) const {
  size_t k = 0;
  for (EventTypeId x : types_) k += (x == t);
  return k;
}

std::string Pattern::ToString(const TypeRegistry& reg) const {
  std::string s = "(";
  for (size_t i = 0; i < types_.size(); ++i) {
    if (i) s += ",";
    s += reg.Name(types_[i]);
  }
  s += ")";
  return s;
}

}  // namespace sharon
