#pragma once
/// \file
/// Minimal ordered JSON document model for the observability subsystem.
///
/// Every artifact `dgr::obs` emits — Chrome traces, metric snapshots, bench
/// tables — must be byte-deterministic given deterministic inputs, so this
/// model preserves object key insertion order and formats numbers through
/// one canonical printer (integers without a fraction, everything else via
/// shortest round-trip %.17g). The parser accepts standard JSON and exists
/// so tests and `bench/check_bench_schema` can validate what the writers
/// produced without an external dependency.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dgr::obs::json {

class Value;

/// Deepest array/object nesting Value::parse accepts. The parser recurses
/// once per level, so the bound keeps a hostile line from exhausting the
/// stack; every document the repo reads or writes is far shallower.
inline constexpr int kMaxDepth = 64;

/// Ordered key/value members — insertion order is emission order.
using Members = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}                        // NOLINT
  Value(double d) : kind_(Kind::kNumber), num_(d) {}                     // NOLINT
  Value(int i) : kind_(Kind::kNumber), num_(i) {}                       // NOLINT
  Value(std::int64_t i) : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}  // NOLINT
  Value(std::size_t i) : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}   // NOLINT
  Value(const char* s) : kind_(Kind::kString), str_(s) {}               // NOLINT
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}    // NOLINT

  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<Value>& items() const { return items_; }
  const Members& members() const { return members_; }

  /// Array append (converts a null value into an array on first use).
  void push_back(Value v);
  /// Object insert-or-lookup by key (converts a null value into an object).
  Value& operator[](std::string_view key);
  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  std::size_t size() const;

  /// Serialises the document. `indent` > 0 pretty-prints with that many
  /// spaces per level; 0 emits the compact one-line form.
  std::string dump(int indent = 0) const;

  /// Parses standard JSON. Returns false (and fills *error when non-null)
  /// on malformed input or nesting deeper than kMaxDepth; *out is
  /// unspecified on failure.
  static bool parse(std::string_view text, Value* out, std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> items_;
  Members members_;
};

/// Canonical number formatting shared by every obs writer: integral values
/// in [-2^53, 2^53] print without a fraction, everything else as the
/// shortest representation that round-trips a double.
std::string format_number(double v);

/// JSON string escaping (quotes not included).
std::string escape(std::string_view s);

}  // namespace dgr::obs::json
