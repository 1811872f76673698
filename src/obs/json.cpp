#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dgr::obs::json {

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

void Value::push_back(Value v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  items_.push_back(std::move(v));
}

Value& Value::operator[](std::string_view key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(std::string(key), Value());
  return members_.back().second;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Value::size() const {
  switch (kind_) {
    case Kind::kArray:
      return items_.size();
    case Kind::kObject:
      return members_.size();
    default:
      return 0;
  }
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && std::fabs(v) <= kMaxExact) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest form that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      out += format_number(num_);
      break;
    case Kind::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        out += '"';
        out += escape(members_[i].first);
        out += pretty ? "\": " : "\":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over the full input.
class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool run(Value* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (error_ != nullptr) {
      *error_ = msg + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(Value* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Value(std::move(s));
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = Value(true);
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = Value(false);
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      *out = Value();
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(Value* out) {
    ++pos_;  // '{'
    *out = Value::object();
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      skip_ws();
      Value v;
      if (!parse_value(&v)) return false;
      (*out)[key] = std::move(v);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value* out) {
    ++pos_;  // '['
    *out = Value::array();
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      skip_ws();
      Value v;
      if (!parse_value(&v)) return false;
      out->push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // emitted by our writers; pass them through as-is).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) digits = true;
      ++pos_;
    }
    if (!digits) return fail("expected value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    *out = Value(v);
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Value::parse(std::string_view text, Value* out, std::string* error) {
  return Parser(text, error).run(out);
}

}  // namespace dgr::obs::json
