#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/hex.hpp"

namespace fides::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

std::string Digest::hex() const { return hex_encode(view()); }

Sha256::Sha256() : h_(kInit) {}

namespace detail {

void compress_portable(Sha256State& state, const std::uint8_t* p) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(p[4 * i]) << 24 |
           static_cast<std::uint32_t>(p[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(p[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(p[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)

// Reads CPUID directly: not every compiler this builds with accepts "sha"
// in __builtin_cpu_supports.
bool accelerated_available() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  const unsigned kSse41 = 1u << 19;  // leaf 1, ECX
  const unsigned kSha = 1u << 29;    // leaf 7 subleaf 0, EBX
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & kSse41) == 0) return false;
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 && (ebx & kSha) != 0;
}

// The SHA-NI round instructions keep the state as two vectors, ABEF and
// CDGH; sha256rnds2 runs two rounds, so each group of four message words
// takes two of them. sha256msg1/msg2 extend the message schedule four words
// at a time: W[t..t+3] = msg2(msg1(W[t-16..], W[t-12..]) + W[t-7..], W[t-4..]).
__attribute__((target("sha,sse4.1"))) void compress_accelerated(Sha256State& state,
                                                                 const std::uint8_t* p) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i msg[4];
  for (std::size_t i = 0; i < 4; ++i) {
    const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i));
    msg[i] = _mm_shuffle_epi8(block, bswap);
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < 16; ++r) {
    __m128i& w = msg[r & 3];
    if (r >= 4) {
      const __m128i& w1 = msg[(r + 1) & 3];
      const __m128i& w2 = msg[(r + 2) & 3];
      const __m128i& w3 = msg[(r + 3) & 3];
      w = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(w, w1), _mm_alignr_epi8(w3, w2, 4)), w3);
    }
    const __m128i wk =
        _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * r])));
    // rnds2(cdgh, abef, k) returns ABEF two rounds on; the ABEF it was given
    // is then the CDGH state.
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool accelerated_available() { return false; }

void compress_accelerated(Sha256State& state, const std::uint8_t* p) {
  compress_portable(state, p);
}

#endif

}  // namespace detail

void Sha256::process_block(const std::uint8_t* p) {
  static const bool accelerated = detail::accelerated_available();
  if (accelerated) {
    detail::compress_accelerated(h_, p);
  } else {
    detail::compress_portable(h_, p);
  }
}

void Sha256::update(BytesView data) {
  // An empty view may carry a null data(), which memcpy must not receive.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (data.size() - off >= 64) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  // 0x80, zeros up to byte 56 of a block, then the 64-bit big-endian length.
  // With more than 56 bytes buffered the length spills into one extra block.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, 64 - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  process_block(buf_.data());

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return d;
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256_pair(const Digest& left, const Digest& right) {
  Sha256 h;
  h.update(left.view());
  h.update(right.view());
  return h.finalize();
}

}  // namespace fides::crypto
