/// \file json_writer.h
/// \brief Minimal streaming JSON writer used by the observability layer
///        (metric-snapshot serialization, Chrome trace-event dumps).
///
/// Deliberately tiny: objects, arrays, string/number/bool scalars, with
/// string escaping per RFC 8259. The writer tracks nesting so commas and
/// closers are emitted correctly; it does NOT validate key uniqueness.
/// Numbers are emitted in full precision (%.17g for doubles) so round
/// trips through python's json module are lossless.

#ifndef OCB_OBS_JSON_WRITER_H_
#define OCB_OBS_JSON_WRITER_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace ocb {
namespace obs {

/// \brief Builds a JSON document into an in-memory string.
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(4096); }

  // --- Containers -------------------------------------------------------

  /// Opens the root object / an object value inside an array.
  JsonWriter& BeginObject() {
    Separator();
    out_.push_back('{');
    Push(Frame::kObject);
    return *this;
  }
  /// Opens an object-valued member of the current object.
  JsonWriter& BeginObject(std::string_view key) {
    Key(key);
    out_.push_back('{');
    Push(Frame::kObject);
    return *this;
  }
  JsonWriter& EndObject() {
    out_.push_back('}');
    Pop();
    return *this;
  }

  JsonWriter& BeginArray() {
    Separator();
    out_.push_back('[');
    Push(Frame::kArray);
    return *this;
  }
  JsonWriter& BeginArray(std::string_view key) {
    Key(key);
    out_.push_back('[');
    Push(Frame::kArray);
    return *this;
  }
  JsonWriter& EndArray() {
    out_.push_back(']');
    Pop();
    return *this;
  }

  // --- Scalars ----------------------------------------------------------

  JsonWriter& Field(std::string_view key, std::string_view value) {
    Key(key);
    WriteString(value);
    return *this;
  }
  JsonWriter& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonWriter& Field(std::string_view key, uint64_t value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Field(std::string_view key, int64_t value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Field(std::string_view key, uint32_t value) {
    return Field(key, static_cast<uint64_t>(value));
  }
  JsonWriter& Field(std::string_view key, int value) {
    return Field(key, static_cast<int64_t>(value));
  }
  JsonWriter& Field(std::string_view key, double value) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Field(std::string_view key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  /// Array-element scalars (no key).
  JsonWriter& Value(std::string_view value) {
    Separator();
    WriteString(value);
    return *this;
  }
  JsonWriter& Value(uint64_t value) {
    Separator();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out_ += buf;
    need_comma_ = true;  // Numeric values don't go through WriteString.
    return *this;
  }
  JsonWriter& Value(double value) {
    Separator();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    need_comma_ = true;
    return *this;
  }

  /// Splices \p raw (assumed valid JSON) as the next value.
  JsonWriter& Raw(std::string_view key, std::string_view raw) {
    Key(key);
    out_ += raw;
    return *this;
  }

  /// The document built so far (complete once every container closed).
  const std::string& str() const { return out_; }

  /// True when every BeginObject/BeginArray has been closed.
  bool complete() const { return stack_.empty() && !out_.empty(); }

 private:
  enum class Frame : uint8_t { kObject, kArray };

  void Separator() {
    if (need_comma_) out_.push_back(',');
    need_comma_ = false;
  }
  void Key(std::string_view key) {
    Separator();
    WriteString(key);
    out_.push_back(':');
  }
  void Push(Frame frame) {
    stack_.push_back(frame);
    // A freshly opened container has no elements yet: its first child
    // must not be preceded by a comma (the keyed Begin* overloads reach
    // here with need_comma_ still set from writing the key).
    need_comma_ = false;
  }
  void Pop() {
    if (!stack_.empty()) stack_.pop_back();
    need_comma_ = true;
  }
  void WriteString(std::string_view s) {
    out_.push_back('"');
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\r':
          out_ += "\\r";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c) & 0xff);
            out_ += buf;
          } else {
            out_.push_back(c);
          }
      }
    }
    out_.push_back('"');
    // After a key, the caller appends the value immediately; after a
    // value, the next sibling needs a comma. Key() resets this below.
    need_comma_ = true;
  }

  std::string out_;
  std::vector<Frame> stack_;
  bool need_comma_ = false;
};

}  // namespace obs
}  // namespace ocb

#endif  // OCB_OBS_JSON_WRITER_H_
