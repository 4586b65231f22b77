#include "util/crc32.h"

#include <array>
#include <string>

#include "util/error.h"

namespace rgleak::util {

namespace {

constexpr std::string_view kCrcKey = ",\"crc\":\"";

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : data)
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string crc32_hex(std::uint32_t crc) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[crc & 0xFu];
    crc >>= 4;
  }
  return out;
}

bool parse_crc32_hex(std::string_view text, std::uint32_t& out) {
  if (text.size() != 8) return false;
  std::uint32_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
    else return false;
  }
  out = v;
  return true;
}

void append_crc_field(std::string& record) {
  const std::string crc = crc32_hex(crc32(record));
  record.insert(record.size() - 1, std::string(kCrcKey) + crc + '"');
}

std::string strip_crc_field(std::string_view record, const std::string& source,
                            std::size_t line) {
  const auto at = record.rfind(kCrcKey);
  if (at == std::string_view::npos)
    throw ParseError(source, line, 0, "record has no \"crc\" field");
  const std::string_view rest = record.substr(at + kCrcKey.size());
  const auto quote = rest.find('"');
  if (quote == std::string_view::npos || rest.substr(quote) != "\"}")
    throw ParseError(source, line, 0, "\"crc\" must be the last field of the record");
  std::uint32_t want = 0;
  if (!parse_crc32_hex(rest.substr(0, quote), want))
    throw ParseError(source, line, 0, "malformed crc (expected 8 hex digits)",
                     std::string(rest.substr(0, quote)));
  std::string base(record.substr(0, at));
  base += '}';
  if (crc32(base) != want)
    throw ParseError(source, line, 0, "record checksum mismatch (corrupt or truncated record)");
  return base;
}

}  // namespace rgleak::util
