// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the one-way, collision-resistant hash the paper assumes for Merkle
// hash trees (§2.3), block hash pointers (§3.1), and the CoSi challenge
// (§2.2). Streaming interface plus one-shot helpers.
//
// The compression function has two kernels: the x86 SHA extensions
// (SHA-NI), used when the CPU reports them at run time, and a portable one
// for every other host. Both produce the same digests.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace fides::crypto {

/// A 32-byte SHA-256 digest. Value type; comparable and hashable.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  friend constexpr auto operator<=>(const Digest&, const Digest&) = default;

  BytesView view() const { return BytesView(bytes.data(), bytes.size()); }
  Bytes to_bytes() const { return Bytes(bytes.begin(), bytes.end()); }
  std::string hex() const;

  /// All-zero digest, used as the "previous block" pointer of the genesis
  /// block and as a sentinel for "no digest".
  static Digest zero() { return Digest{}; }
  bool is_zero() const { return *this == Digest{}; }
};

namespace detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// The FIPS 180-4 compression of one 64-byte block into `state`, in portable
/// C++. Runs on every host; exposed so tests can check the accelerated
/// kernel against it.
void compress_portable(Sha256State& state, const std::uint8_t* block);

/// True when the CPU has the SHA extensions (always false off x86).
bool accelerated_available();

/// The same compression on the SHA extensions. Call only when
/// accelerated_available() is true.
void compress_accelerated(Sha256State& state, const std::uint8_t* block);

}  // namespace detail

class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finalize();

 private:
  void process_block(const std::uint8_t* p);

  detail::Sha256State h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_{0};
  std::uint64_t total_len_{0};
};

/// One-shot hash.
Digest sha256(BytesView data);

/// Hash of the concatenation of two digests — the Merkle interior-node rule
/// h(left | right) from §2.3.
Digest sha256_pair(const Digest& left, const Digest& right);

}  // namespace fides::crypto

namespace std {
template <>
struct hash<fides::crypto::Digest> {
  size_t operator()(const fides::crypto::Digest& d) const noexcept {
    size_t v = 0;
    for (int i = 0; i < 8; ++i) v = v * 31 + d.bytes[i];
    // First 8 bytes of a SHA-256 output are already uniform; fold them.
    size_t direct;
    static_assert(sizeof(direct) <= 32);
    __builtin_memcpy(&direct, d.bytes.data(), sizeof(direct));
    return direct ^ v;
  }
};
}  // namespace std
