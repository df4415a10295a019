#include "cache/binary_io.h"

#include <bit>

#include "cache/hash.h"
#include "common/error.h"
#include "common/log.h"

namespace mapp::cache {

namespace {

/** Bytes of the trailing checksum. */
constexpr std::size_t kChecksumBytes = 8;

/** magic(4) + version(4). */
constexpr std::size_t kHeaderBytes = 8;

void
appendLe(std::string& buf, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint64_t
readLe(std::string_view buf, std::size_t pos, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf[pos + static_cast<
                     std::size_t>(i)]))
             << (8 * i);
    }
    return v;
}

}  // namespace

BinaryWriter::BinaryWriter(std::string_view magic, std::uint32_t version)
{
    if (magic.size() != 4)
        panic("BinaryWriter: format magic must be exactly 4 bytes");
    buf_.append(magic);
    appendLe(buf_, version, 4);
}

void
BinaryWriter::u8(std::uint8_t v)
{
    buf_.push_back(static_cast<char>(v));
}

void
BinaryWriter::u32(std::uint32_t v)
{
    appendLe(buf_, v, 4);
}

void
BinaryWriter::u64(std::uint64_t v)
{
    appendLe(buf_, v, 8);
}

void
BinaryWriter::i32(std::int32_t v)
{
    appendLe(buf_, static_cast<std::uint32_t>(v), 4);
}

void
BinaryWriter::f64(double v)
{
    appendLe(buf_, std::bit_cast<std::uint64_t>(v), 8);
}

void
BinaryWriter::str(std::string_view s)
{
    appendLe(buf_, s.size(), 8);
    buf_.append(s);
}

std::string
BinaryWriter::finish() &&
{
    appendLe(buf_, fnv1a(buf_), 8);
    return std::move(buf_);
}

BinaryReader::BinaryReader(std::string_view blob, std::string_view source,
                           std::string_view magic, std::uint32_t version)
    : blob_(blob), source_(source)
{
    if (magic.size() != 4)
        panic("BinaryReader: format magic must be exactly 4 bytes");
    if (blob_.size() < kHeaderBytes + kChecksumBytes)
        fail("blob too short for a header (" +
             std::to_string(blob_.size()) + " bytes)");
    if (blob_.substr(0, 4) != magic)
        fail("wrong format magic (expected '" + std::string(magic) +
             "', found '" + std::string(blob_.substr(0, 4)) + "')");
    const auto found =
        static_cast<std::uint32_t>(readLe(blob_, 4, 4));
    if (found != version)
        fail("format version mismatch (expected " +
             std::to_string(version) + ", found " +
             std::to_string(found) + ")");
    end_ = blob_.size() - kChecksumBytes;
    const std::uint64_t expected = readLe(blob_, end_, 8);
    const std::uint64_t actual = fnv1a(blob_.substr(0, end_));
    if (expected != actual)
        fail("checksum mismatch (blob truncated or corrupt)");
    pos_ = kHeaderBytes;
}

void
BinaryReader::fail(const std::string& what) const
{
    raise(Error(ErrorCode::Parse, what, SourceContext{source_, 0, {}}));
}

void
BinaryReader::need(std::size_t n) const
{
    if (end_ - pos_ < n)
        fail("unexpected end of payload at byte " +
             std::to_string(pos_) + " (need " + std::to_string(n) +
             ", have " + std::to_string(end_ - pos_) + ")");
}

std::uint8_t
BinaryReader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(
        static_cast<unsigned char>(blob_[pos_++]));
}

std::uint32_t
BinaryReader::u32()
{
    need(4);
    const auto v = static_cast<std::uint32_t>(readLe(blob_, pos_, 4));
    pos_ += 4;
    return v;
}

std::uint64_t
BinaryReader::u64()
{
    need(8);
    const std::uint64_t v = readLe(blob_, pos_, 8);
    pos_ += 8;
    return v;
}

std::int32_t
BinaryReader::i32()
{
    return static_cast<std::int32_t>(u32());
}

std::uint64_t
BinaryReader::count(std::size_t min_element_bytes)
{
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    if (n > remaining() / min_element_bytes)
        fail("count " + std::to_string(n) + " at byte " +
             std::to_string(at) + " exceeds the payload (" +
             std::to_string(remaining()) + " bytes left, " +
             std::to_string(min_element_bytes) + " per element)");
    return n;
}

double
BinaryReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
BinaryReader::str()
{
    const std::uint64_t n = u64();
    need(n);
    std::string s(blob_.substr(pos_, n));
    pos_ += n;
    return s;
}

void
BinaryReader::expectEnd() const
{
    if (pos_ != end_)
        fail(std::to_string(end_ - pos_) +
             " trailing payload bytes after the last field");
}

}  // namespace mapp::cache
