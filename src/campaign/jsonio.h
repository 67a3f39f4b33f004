#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tempriv::campaign {

/// Minimal JSON document model for reading the campaign's own artifacts
/// (shard headers, per-job JSONL lines, stats files) back in. This is a
/// reader for machine-written output with a fixed schema — it accepts
/// standard JSON but makes no attempt at streaming or zero-copy; artifact
/// lines are short and parsing happens once per merge, never on a hot path.
///
/// Numbers keep their raw text alongside the parse so 64-bit integers
/// (seeds, event counts) round-trip exactly and doubles re-read bit-equal
/// to what json_number() emitted (shortest round-trippable decimal).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< string value, or the raw number token
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  bool is_array() const noexcept { return kind == Kind::kArray; }

  /// Object member lookup; nullptr if absent (or not an object).
  const JsonValue* find(const std::string& key) const noexcept;
  /// Object member lookup; throws std::runtime_error naming `key` if absent.
  const JsonValue& at(const std::string& key) const;

  /// Conversions; throw std::runtime_error on kind/format mismatch.
  double as_double() const;
  std::uint64_t as_u64() const;
  std::uint32_t as_u32() const;
  const std::string& as_string() const;
};

/// Parses one complete JSON document (trailing whitespace allowed, nothing
/// else). Throws std::runtime_error with byte offset on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace tempriv::campaign
