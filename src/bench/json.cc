#include "bench/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace tcdp {
namespace bench {

Json* JsonObject::Find(const std::string& key) {
  for (auto& item : items_) {
    if (item.first == key) return &item.second;
  }
  return nullptr;
}

const Json* JsonObject::Find(const std::string& key) const {
  for (const auto& item : items_) {
    if (item.first == key) return &item.second;
  }
  return nullptr;
}

Json& JsonObject::Set(const std::string& key, Json value) {
  if (Json* existing = Find(key)) {
    *existing = std::move(value);
    return *existing;
  }
  items_.emplace_back(key, std::move(value));
  return items_.back().second;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; emit null like Python's json.dumps
    // refuses to — we choose null so a baseline with a broken metric
    // fails schema validation loudly rather than failing to parse.
    *out += "null";
    return;
  }
  if (d == static_cast<double>(static_cast<long long>(d)) &&
      std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    *out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
}

void DumpTo(const Json& value, int indent, std::string* out) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (value.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += value.as_bool() ? "true" : "false";
      break;
    case Json::Type::kNumber:
      AppendNumber(value.as_number(), out);
      break;
    case Json::Type::kString:
      AppendJsonString(value.as_string(), out);
      break;
    case Json::Type::kArray: {
      const JsonArray& array = value.as_array();
      if (array.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (std::size_t i = 0; i < array.size(); ++i) {
        *out += pad_in;
        DumpTo(array[i], indent + 1, out);
        if (i + 1 < array.size()) out->push_back(',');
        out->push_back('\n');
      }
      *out += pad + "]";
      break;
    }
    case Json::Type::kObject: {
      const JsonObject& object = value.as_object();
      if (object.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      std::size_t i = 0;
      for (const auto& [key, member] : object.items()) {
        *out += pad_in;
        AppendJsonString(key, out);
        *out += ": ";
        DumpTo(member, indent + 1, out);
        if (++i < object.size()) out->push_back(',');
        out->push_back('\n');
      }
      *out += pad + "}";
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<Json> ParseDocument() {
    TCDP_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<Json> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      TCDP_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json(std::move(s));
    }
    if (c == 't') return ParseLiteral("true", Json(true));
    if (c == 'f') return ParseLiteral("false", Json(false));
    if (c == 'n') return ParseLiteral("null", Json());
    return ParseNumber();
  }

  StatusOr<Json> ParseLiteral(const char* literal, Json value) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) {
      return Error(std::string("expected '") + literal + "'");
    }
    pos_ += len;
    return value;
  }

  StatusOr<Json> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Error("malformed number '" + token + "'");
    }
    return Json(value);
  }

  StatusOr<std::string> ParseString() {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected '\"'");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("malformed \\u escape");
            }
          }
          // Encode as UTF-8 (no surrogate-pair handling; the harness
          // never emits astral-plane characters).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<Json> ParseObject() {
    ++pos_;  // '{'
    JsonObject object;
    if (Consume('}')) return Json(std::move(object));
    while (true) {
      TCDP_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!Consume(':')) return Error("expected ':'");
      TCDP_ASSIGN_OR_RETURN(Json value, ParseValue());
      object.Set(key, std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Json(std::move(object));
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<Json> ParseArray() {
    ++pos_;  // '['
    JsonArray array;
    if (Consume(']')) return Json(std::move(array));
    while (true) {
      TCDP_ASSIGN_OR_RETURN(Json value, ParseValue());
      array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Json(std::move(array));
      return Error("expected ',' or ']'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, 0, &out);
  out.push_back('\n');
  return out;
}

StatusOr<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

StatusOr<const Json*> GetMember(const Json& object, const std::string& key) {
  if (!object.is_object()) {
    return Status::InvalidArgument("json: expected an object around key '" +
                                   key + "'");
  }
  const Json* member = object.as_object().Find(key);
  if (member == nullptr) {
    return Status::InvalidArgument("json: missing key '" + key + "'");
  }
  return member;
}

StatusOr<double> GetNumber(const Json& object, const std::string& key) {
  TCDP_ASSIGN_OR_RETURN(const Json* member, GetMember(object, key));
  if (!member->is_number()) {
    return Status::InvalidArgument("json: key '" + key + "' is not a number");
  }
  return member->as_number();
}

StatusOr<std::string> GetString(const Json& object, const std::string& key) {
  TCDP_ASSIGN_OR_RETURN(const Json* member, GetMember(object, key));
  if (!member->is_string()) {
    return Status::InvalidArgument("json: key '" + key + "' is not a string");
  }
  return member->as_string();
}

StatusOr<bool> GetBool(const Json& object, const std::string& key) {
  TCDP_ASSIGN_OR_RETURN(const Json* member, GetMember(object, key));
  if (!member->is_bool()) {
    return Status::InvalidArgument("json: key '" + key + "' is not a bool");
  }
  return member->as_bool();
}

}  // namespace bench
}  // namespace tcdp
