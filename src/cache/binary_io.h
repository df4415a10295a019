/**
 * @file
 * The compact binary container every cached artifact is serialized in:
 * a 4-byte format magic and a u32 format version up front, little-endian
 * POD fields and length-prefixed strings in the payload, and a trailing
 * FNV-1a checksum over everything before it.
 *
 * BinaryWriter builds the blob in memory; BinaryReader verifies the
 * frame (size, magic, version, checksum) before the first field read
 * and bounds-checks every subsequent read, so a truncated, garbled,
 * wrong-magic or wrong-version blob always surfaces as a located
 * mapp::InputError — never an out-of-bounds read, never a silently
 * wrong value. The artifact cache treats any such error as a corrupt
 * entry and falls back to recomputation.
 */

#ifndef MAPP_CACHE_BINARY_IO_H
#define MAPP_CACHE_BINARY_IO_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mapp::cache {

/** Bytes of a str() field's length prefix: the fewest bytes any string
 * encodes in (what BinaryReader::count needs for a list of names). */
inline constexpr std::size_t kMinStrBytes = 8;

/** Serializes one artifact blob: header, fields, trailing checksum. */
class BinaryWriter
{
  public:
    /**
     * Start a blob of the given format.
     * @param magic exactly 4 bytes naming the format (e.g. "MTRC")
     * @param version format version recorded in the header
     */
    BinaryWriter(std::string_view magic, std::uint32_t version);

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v);
    /** Bit-exact double (round-trips NaN payloads and -0.0). */
    void f64(double v);
    /** Length-prefixed byte string (text or nested binary blob). */
    void str(std::string_view s);

    /** Append the checksum and return the finished blob. */
    std::string finish() &&;

  private:
    std::string buf_;
};

/** Parses one artifact blob, validating the frame up front. */
class BinaryReader
{
  public:
    /**
     * Bind to @p blob and validate the frame.
     * @param blob the full serialized artifact
     * @param source label for error messages (e.g. the file path)
     * @param magic the expected 4-byte format magic
     * @param version the expected format version
     * @throws mapp::InputError (located at @p source) when the blob is
     *         shorter than a frame, carries the wrong magic or version,
     *         or fails the checksum (truncation/corruption).
     */
    BinaryReader(std::string_view blob, std::string_view source,
                 std::string_view magic, std::uint32_t version);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32();
    double f64();
    std::string str();

    /**
     * Read a u64 element count and check it against the payload left.
     * Call it for every count a loop or a reserve() will trust.
     * @param min_element_bytes the fewest bytes one element encodes in
     *        (positive)
     * @throws mapp::InputError when count × @p min_element_bytes
     *         exceeds remaining(), so a crafted count can never size an
     *         allocation the blob could not fill.
     */
    std::uint64_t count(std::size_t min_element_bytes);

    /** Bytes of payload not yet consumed. */
    std::size_t remaining() const { return end_ - pos_; }

    /**
     * Assert the payload was consumed exactly.
     * @throws mapp::InputError if trailing payload bytes remain.
     */
    void expectEnd() const;

  private:
    [[noreturn]] void fail(const std::string& what) const;
    void need(std::size_t n) const;

    std::string_view blob_;
    std::string source_;
    std::size_t pos_ = 0;  ///< next unread payload byte
    std::size_t end_ = 0;  ///< first byte of the trailing checksum
};

}  // namespace mapp::cache

#endif  // MAPP_CACHE_BINARY_IO_H
