#include "ledger/round_log.hpp"

#include <algorithm>
#include <cstdio>

#include "common/serde.hpp"

namespace fides::ledger {

Bytes RoundRecord::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(epoch);
  w.u64(base);
  w.str(msg_type);
  w.bytes(payload);
  return std::move(w).take();
}

std::optional<RoundRecord> RoundRecord::decode(BytesView b) {
  try {
    Reader r(b);
    RoundRecord rec;
    const std::uint8_t t = r.u8();
    if (t != static_cast<std::uint8_t>(Type::kVote) &&
        t != static_cast<std::uint8_t>(Type::kDecision) &&
        t != static_cast<std::uint8_t>(Type::kResponse)) {
      return std::nullopt;
    }
    rec.type = static_cast<Type>(t);
    rec.epoch = r.u64();
    rec.base = r.u64();
    rec.msg_type = r.str();
    rec.payload = r.bytes();
    r.expect_done();
    return rec;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

crypto::Digest chain_record(const crypto::Digest& head, BytesView record_bytes) {
  Writer w;
  w.raw(head.view());
  w.raw(record_bytes);
  return crypto::sha256(w.data());
}

// --- MemRoundLog --------------------------------------------------------------

void MemRoundLog::append(const RoundRecord& record) {
  Entry e;
  e.bytes = record.encode();
  head_ = chain_record(head_, e.bytes);
  e.chain = head_;
  records_.push_back(std::move(e));
}

std::optional<std::vector<RoundRecord>> MemRoundLog::replay() const {
  std::vector<RoundRecord> out;
  out.reserve(records_.size());
  crypto::Digest chain;  // zero digest
  for (const Entry& e : records_) {
    chain = chain_record(chain, e.bytes);
    if (!(chain == e.chain)) return std::nullopt;
    auto rec = RoundRecord::decode(e.bytes);
    if (!rec) return std::nullopt;
    out.push_back(std::move(*rec));
  }
  return out;
}

void MemRoundLog::tamper(std::size_t i, std::size_t byte_offset) {
  if (i < records_.size() && byte_offset < records_[i].bytes.size()) {
    records_[i].bytes[byte_offset] ^= 0x01;
  }
}

// --- FileRoundLog -------------------------------------------------------------

FileRoundLog::FileRoundLog(std::string path) : path_(std::move(path)) {
  // Re-derive count and chain head from an existing file so appends continue
  // the chain across process restarts. A corrupt tail is surfaced at
  // replay() time, not here.
  if (const auto existing = replay()) {
    count_ = existing->size();
    crypto::Digest chain;
    for (const RoundRecord& rec : *existing) chain = chain_record(chain, rec.encode());
    head_ = chain;
  }
  // One append handle for the log's lifetime — append() sits on the
  // write-ahead path of every vote and decision, so no per-record open.
  out_ = std::fopen(path_.c_str(), "ab");
  if (out_ == nullptr) throw std::runtime_error("FileRoundLog: cannot open " + path_);
}

FileRoundLog::~FileRoundLog() {
  if (out_ != nullptr) std::fclose(out_);
}

void FileRoundLog::append(const RoundRecord& record) {
  const Bytes bytes = record.encode();
  head_ = chain_record(head_, bytes);

  const std::uint32_t len = static_cast<std::uint32_t>(bytes.size());
  unsigned char hdr[4] = {static_cast<unsigned char>(len & 0xFF),
                          static_cast<unsigned char>((len >> 8) & 0xFF),
                          static_cast<unsigned char>((len >> 16) & 0xFF),
                          static_cast<unsigned char>((len >> 24) & 0xFF)};
  bool ok = std::fwrite(hdr, 1, sizeof hdr, out_) == sizeof hdr;
  ok = ok && std::fwrite(bytes.data(), 1, bytes.size(), out_) == bytes.size();
  ok = ok && std::fwrite(head_.view().data(), 1, 32, out_) == 32;
  ok = std::fflush(out_) == 0 && ok;
  if (!ok) throw std::runtime_error("FileRoundLog: short write to " + path_);
  ++count_;
}

std::optional<std::vector<RoundRecord>> FileRoundLog::replay() const {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return std::vector<RoundRecord>{};  // no file yet: empty log

  // The file's size bounds every length field: a corrupt or torn header is
  // rejected before it can size an allocation.
  bool ok = std::fseek(f, 0, SEEK_END) == 0;
  const long size = ok ? std::ftell(f) : -1;
  ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  std::uint64_t left = ok ? static_cast<std::uint64_t>(size) : 0;

  std::vector<RoundRecord> out;
  crypto::Digest chain;
  while (ok) {
    unsigned char hdr[4];
    const std::size_t got = std::fread(hdr, 1, sizeof hdr, f);
    if (got == 0) break;  // clean end of log
    if (got != sizeof hdr) {
      ok = false;
      break;
    }
    left -= std::min<std::uint64_t>(left, sizeof hdr);
    const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                              (static_cast<std::uint32_t>(hdr[1]) << 8) |
                              (static_cast<std::uint32_t>(hdr[2]) << 16) |
                              (static_cast<std::uint32_t>(hdr[3]) << 24);
    if (std::uint64_t{len} + 32 > left) {  // record runs past the end of the file
      ok = false;
      break;
    }
    left -= std::uint64_t{len} + 32;
    Bytes bytes(len);
    unsigned char stored[32];
    if (std::fread(bytes.data(), 1, len, f) != len ||
        std::fread(stored, 1, 32, f) != 32) {
      ok = false;
      break;
    }
    chain = chain_record(chain, bytes);
    if (!std::equal(stored, stored + 32, chain.view().begin())) {
      ok = false;
      break;
    }
    auto rec = RoundRecord::decode(bytes);
    if (!rec) {
      ok = false;
      break;
    }
    out.push_back(std::move(*rec));
  }
  std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

}  // namespace fides::ledger
