// Minimal streaming JSON writer for the telemetry and bench report paths.
// Produces indented, standards-conforming JSON (non-finite numbers are
// emitted as null, strings are escaped). No parsing — reports are consumed
// by external tooling (python -c "json.load(...)" in CI).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psw {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Object member key; must be followed by a value or container begin.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(double v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int64_t v);
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  // An already-serialized JSON document, embedded verbatim.
  JsonWriter& raw(const std::string& json);

  // key + value in one call.
  template <class T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void pre_value();   // comma/newline/indent before a value or container
  void indent();

  std::string out_;
  // One frame per open container: true while it has no members yet.
  std::vector<bool> first_;
  bool after_key_ = false;
};

// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string json_quote(const std::string& s);

}  // namespace psw
