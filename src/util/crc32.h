#pragma once
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for integrity trailers on
// crash-critical files: MC checkpoints carry a whole-file trailer and batch
// journal lines a per-record checksum, so a torn write, a bit flip, or a
// filesystem that lied about durability is rejected at read time with a
// located ParseError instead of silently resuming from corrupt state.
//
// Software table-driven implementation (the container has no zlib); ~500 MB/s
// is far above what the text formats it guards ever reach.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rgleak::util {

/// CRC of `data` continuing from `seed` (pass the previous return value to
/// checksum a file in chunks). The default seed starts a fresh checksum.
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

/// Renders a CRC as the fixed-width lowercase hex the file trailers use.
/// Always 8 characters, zero-padded.
std::string crc32_hex(std::uint32_t crc);

/// Parses an 8-character lowercase/uppercase hex CRC. Returns false on any
/// other shape (wrong length, non-hex characters).
bool parse_crc32_hex(std::string_view text, std::uint32_t& out);

/// Stamps a one-line JSON object (journal records, trace spans) with its
/// integrity field: inserts `,"crc":"xxxxxxxx"` before the closing brace,
/// where the CRC covers the record as rendered without the field. `record`
/// must end in '}'.
void append_crc_field(std::string& record);

/// Verifies the field append_crc_field() stamped and returns the record
/// without it. Throws a ParseError located at (`source`, `line`) when the
/// field is missing, is not the last field, is not 8 hex digits, or does not
/// match the record.
std::string strip_crc_field(std::string_view record, const std::string& source,
                            std::size_t line);

}  // namespace rgleak::util
