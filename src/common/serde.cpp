#include "common/serde.hpp"

#include <array>

namespace fides {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

namespace {

/// Appends v little-endian in one insert (one capacity check, not one per
/// byte: block and vote encodings write millions of these per run).
template <typename T>
void put_le(Bytes& buf, T v) {
  std::array<std::uint8_t, sizeof(T)> b;
  for (std::size_t i = 0; i < sizeof(T); ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf.insert(buf.end(), b.begin(), b.end());
}

}  // namespace

void Writer::u32(std::uint32_t v) { put_le(buf_, v); }

void Writer::u64(std::uint64_t v) { put_le(buf_, v); }

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::bytes(BytesView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void Writer::timestamp(const Timestamp& ts) {
  u64(ts.logical);
  u32(ts.client);
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DecodeError("truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw DecodeError("invalid boolean");
  return v == 1;
}

Bytes Reader::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Timestamp Reader::timestamp() {
  Timestamp ts;
  ts.logical = u64();
  ts.client = u32();
  return ts;
}

void Reader::expect_done() const {
  if (!done()) throw DecodeError("trailing bytes after decode");
}

}  // namespace fides
