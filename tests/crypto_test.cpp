// Unit tests for the crypto substrate: SHA-256, U256, the two fields,
// secp256k1 group law, Schnorr signatures, CoSi collective signing.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "crypto/cosi.hpp"
#include "crypto/key_registry.hpp"
#include "crypto/schnorr.hpp"

namespace fides::crypto {
namespace {

// --- SHA-256 (FIPS 180-4 vectors) -------------------------------------------

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(sha256({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha256(to_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(sha256(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const std::string big(1000000, 'a');
  EXPECT_EQ(sha256(to_bytes(big)).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog!!");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    h.update(BytesView(data).subspan(i, std::min<std::size_t>(7, data.size() - i)));
  }
  EXPECT_EQ(h.finalize(), sha256(data));
}

TEST(Sha256, PairMatchesConcatenation) {
  const Digest a = sha256(to_bytes("a"));
  const Digest b = sha256(to_bytes("b"));
  EXPECT_EQ(sha256_pair(a, b), sha256(concat({a.view(), b.view()})));
}

TEST(Sha256, PaddingBoundaryVectors) {
  // Lengths around the 56-byte length-field boundary and the 64-byte block
  // boundary, of the message 'a' * len (digests from an independent
  // implementation).
  const std::pair<std::size_t, const char*> kVectors[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
      {1000, "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"},
  };
  for (const auto& [len, hex] : kVectors) {
    EXPECT_EQ(sha256(to_bytes(std::string(len, 'a'))).hex(), hex) << "length " << len;
  }
}

TEST(Sha256, UpdateSplitAtEveryOffset) {
  Bytes msg(130);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const Digest whole = sha256(msg);
  const BytesView v(msg);
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 h;
    h.update(v.first(cut));
    h.update(v.subspan(cut));
    EXPECT_EQ(h.finalize(), whole) << "split at " << cut;
  }
}

TEST(Sha256, PortableCompressionKnownAnswer) {
  // The padded single block of "abc": the portable kernel runs on every
  // host, whichever kernel Sha256 dispatches to.
  std::array<std::uint8_t, 64> block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // bit length
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::compress_portable(state, block.data());
  const detail::Sha256State expect = {0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
                                      0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad};
  EXPECT_EQ(state, expect);
}

TEST(Sha256, AcceleratedCompressionMatchesPortable) {
  if (!detail::accelerated_available()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; only the portable kernel runs here";
  }
  Rng rng(0x5A256);
  std::array<std::uint8_t, 64> block{};
  for (int trial = 0; trial < 10000; ++trial) {
    detail::Sha256State state;
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next_u64());
    detail::Sha256State portable = state;
    detail::Sha256State accelerated = state;
    detail::compress_portable(portable, block.data());
    detail::compress_accelerated(accelerated, block.data());
    ASSERT_EQ(accelerated, portable) << "trial " << trial;
  }
}

TEST(Digest, ZeroAndComparison) {
  EXPECT_TRUE(Digest::zero().is_zero());
  EXPECT_FALSE(sha256(to_bytes("x")).is_zero());
  EXPECT_NE(sha256(to_bytes("x")), sha256(to_bytes("y")));
}

// --- U256 ---------------------------------------------------------------------

TEST(U256, BytesRoundTrip) {
  const U256 x = U256::from_limbs(0x1111, 0x2222, 0x3333, 0x4444);
  const auto bytes = x.to_bytes_be();
  EXPECT_EQ(U256::from_bytes_be(BytesView(bytes.data(), bytes.size())), x);
}

TEST(U256, HexRoundTrip) {
  const auto x = U256::from_hex("deadbeef");
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->w[0], 0xDEADBEEFULL);
  EXPECT_EQ(x->hex().substr(56), "deadbeef");
}

TEST(U256, AddCarryChain) {
  const U256 max = U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  U256 out;
  EXPECT_EQ(u256_add(out, max, U256(1)), 1u);  // wraps with carry-out
  EXPECT_TRUE(out.is_zero());
}

TEST(U256, SubBorrowChain) {
  U256 out;
  EXPECT_EQ(u256_sub(out, U256(0), U256(1)), 1u);
  EXPECT_EQ(out, U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL));
}

TEST(U256, AddSubInverse) {
  const U256 a = U256::from_limbs(0x123456789ABCDEF0, 0xFEDCBA9876543210, 7, 9);
  const U256 b = U256::from_limbs(0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 1, 2);
  U256 sum, back;
  u256_add(sum, a, b);
  u256_sub(back, sum, b);
  EXPECT_EQ(back, a);
}

TEST(U256, MulWideSmall) {
  const auto r = u256_mul_wide(U256(0xFFFFFFFFFFFFFFFFULL), U256(2));
  EXPECT_EQ(r[0], 0xFFFFFFFFFFFFFFFEULL);
  EXPECT_EQ(r[1], 1u);
  for (int i = 2; i < 8; ++i) EXPECT_EQ(r[i], 0u);
}

TEST(U256, ModSmallCases) {
  EXPECT_EQ(u256_mod(U256(17), U256(5)), U256(2));
  EXPECT_EQ(u256_mod(U256(4), U256(5)), U256(4));
  EXPECT_EQ(u256_mod(U256(0), U256(5)), U256(0));
}

TEST(U256, U512ModMatchesMulMod) {
  // (a * b) mod m computed wide must equal ((a mod m)*(b mod m)) mod m for
  // small values checkable with __int128.
  const std::uint64_t m64 = 0xFFFFFFFFFFFFFFC5ULL;  // large prime < 2^64
  const U256 m(m64);
  const std::uint64_t a = 0x123456789ABCDEFULL, b = 0xFEDCBA987654321ULL;
  const auto wide = u256_mul_wide(U256(a), U256(b));
  const U256 got = u512_mod(wide, m);
  const unsigned __int128 expect =
      static_cast<unsigned __int128>(a) * b % m64;
  EXPECT_EQ(got, U256(static_cast<std::uint64_t>(expect)));
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256(0).bit_length(), -1);
  EXPECT_EQ(U256(1).bit_length(), 0);
  EXPECT_EQ(U256(0x8000).bit_length(), 15);
  EXPECT_EQ(U256::from_limbs(0, 0, 0, 1).bit_length(), 192);
}

// --- Fields ------------------------------------------------------------------

/// The secp256k1 base field under test, and two independent oracles: the
/// generic Montgomery field for the same prime, and plain 512-bit remainder.
class FieldTest : public ::testing::Test {
 protected:
  const MontgomeryField& fn() { return Curve::instance().fn(); }
  const Secp256k1Field& fp() { return Curve::instance().fp(); }
  static const MontgomeryField& mont_p() {
    static const MontgomeryField field(Secp256k1Field::kP);
    return field;
  }
  static U256 p_minus(std::uint64_t k) {
    U256 out;
    u256_sub(out, Secp256k1Field::kP, U256(k));
    return out;
  }

  /// Checks every operation on (a, b) against both oracles. a, b < p.
  void expect_matches_oracles(const U256& a, const U256& b) {
    const auto& f = fp();
    const auto& m = mont_p();
    const U256& p = Secp256k1Field::kP;
    const Fe fa = f.to_mont(a), fb = f.to_mont(b);
    const Fe ma = m.to_mont(a), mb = m.to_mont(b);
    SCOPED_TRACE("a=" + a.hex() + " b=" + b.hex());
    EXPECT_EQ(f.from_mont(f.mul(fa, fb)), u512_mod(u256_mul_wide(a, b), p));
    EXPECT_EQ(f.from_mont(f.mul(fa, fb)), m.from_mont(m.mul(ma, mb)));
    EXPECT_EQ(f.from_mont(f.sqr(fa)), u512_mod(u256_mul_wide(a, a), p));
    EXPECT_EQ(f.from_mont(f.sqr(fa)), m.from_mont(m.sqr(ma)));
    EXPECT_EQ(f.from_mont(f.add(fa, fb)), m.from_mont(m.add(ma, mb)));
    EXPECT_EQ(f.from_mont(f.sub(fa, fb)), m.from_mont(m.sub(ma, mb)));
    EXPECT_EQ(f.from_mont(f.neg(fa)), m.from_mont(m.neg(ma)));
    if (!a.is_zero()) {
      EXPECT_EQ(f.from_mont(f.inverse(fa)), m.from_mont(m.inverse(ma)));
    }
  }
};

TEST_F(FieldTest, ToFromMontRoundTrip) {
  const U256 x = U256::from_limbs(0xABCD, 0x1234, 0x9999, 0x0042);
  EXPECT_EQ(fp().from_mont(fp().to_mont(x)), x);
  EXPECT_EQ(fn().from_mont(fn().to_mont(x)), x);
}

TEST_F(FieldTest, MulMatchesSchoolbook) {
  const U256 a(123456789), b(987654321);
  const Fe prod = fp().mul(fp().to_mont(a), fp().to_mont(b));
  EXPECT_EQ(fp().from_mont(prod), U256(123456789ULL * 987654321ULL));
}

TEST_F(FieldTest, AddSubNegIdentities) {
  const Fe a = fp().to_mont(U256(77));
  const Fe b = fp().to_mont(U256(33));
  EXPECT_EQ(fp().from_mont(fp().sub(fp().add(a, b), b)), U256(77));
  EXPECT_TRUE(fp().is_zero(fp().add(a, fp().neg(a))));
  EXPECT_EQ(fp().neg(fp().zero()), fp().zero());
}

TEST_F(FieldTest, InverseIsMultiplicative) {
  const Fe a = fp().to_mont(U256::from_limbs(0xDEAD, 0xBEEF, 0xCAFE, 0x0B0E));
  const Fe inv = fp().inverse(a);
  EXPECT_EQ(fp().mul(a, inv), fp().one());
}

TEST_F(FieldTest, InverseOfZeroThrows) {
  EXPECT_THROW(fp().inverse(fp().zero()), std::domain_error);
  EXPECT_THROW(mont_p().inverse(mont_p().zero()), std::domain_error);
}

TEST_F(FieldTest, PowFermatLittle) {
  // a^(p-1) == 1 mod p for prime p.
  const Fe a = mont_p().to_mont(U256(0xABCDEF));
  EXPECT_EQ(mont_p().pow(a, p_minus(1)), mont_p().one());
}

TEST_F(FieldTest, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryField(U256(10)), std::invalid_argument);
}

TEST_F(FieldTest, BaseFieldMatchesOraclesOnRandomPairs) {
  // Limbs are drawn mostly uniform, but often 0, 1 or all-ones, so sums,
  // differences and folds hit their carry and borrow edges too, and the
  // safegcd inverse meets inputs with zero or short limbs, which end its
  // divsteps early or shorten f and g unevenly.
  Rng rng(0xF1E1D);
  const auto limb = [&rng]() -> std::uint64_t {
    switch (rng.uniform(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return ~0ULL;
      default: return rng.next_u64();
    }
  };
  const auto element = [&]() {
    U256 x;
    for (auto& w : x.w) w = limb();
    return u256_less(x, Secp256k1Field::kP) ? x : u256_mod(x, Secp256k1Field::kP);
  };
  for (int i = 0; i < 100000; ++i) {
    expect_matches_oracles(element(), element());
    if (HasFailure()) break;
  }
}

TEST_F(FieldTest, BaseFieldEdgeCases) {
  const U256 p1 = p_minus(1);
  const U256 edges[] = {U256(0), U256(1), U256(2), p1, p_minus(2),
                        U256::from_limbs(0, 0, 0, 1ULL << 63), U256(Secp256k1Field::kC)};
  for (const U256& a : edges) {
    for (const U256& b : edges) expect_matches_oracles(a, b);
  }
  // The second fold of a·b carries out of 2^256: lo + hi·C lands just below
  // 2^257, so top·C pushes the low limbs over (a = floor((2^257-1)/C)·2^16,
  // b = 2^240).
  const U256 a = U256::from_limbs(0x88081CCFD90A0000ULL, 0xB74C83E874FC95D9ULL,
                                  0x214190D414C6469CULL, 0x0001FFFFF85E001DULL);
  const U256 b = U256::from_limbs(0, 0, 0, 1ULL << 48);
  expect_matches_oracles(a, b);
  EXPECT_EQ(fp().from_mont(fp().mul(fp().to_mont(a), fp().to_mont(b))), U256(0x1f53b56ccULL));
}

TEST_F(FieldTest, BaseFieldReducesEveryInput) {
  const auto& f = fp();
  const U256& p = Secp256k1Field::kP;
  const U256 all_ones = U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  // to_mont accepts any 256-bit integer.
  EXPECT_TRUE(f.is_zero(f.to_mont(p)));
  EXPECT_EQ(f.from_mont(f.to_mont(p_minus(1))), p_minus(1));
  U256 p_plus_1;
  u256_add(p_plus_1, p, U256(1));
  EXPECT_EQ(f.from_mont(f.to_mont(p_plus_1)), U256(1));
  EXPECT_EQ(f.from_mont(f.to_mont(all_ones)), u256_mod(all_ones, p));
  EXPECT_EQ(f.from_mont(f.to_mont(all_ones)), U256(Secp256k1Field::kC - 1));
  // Results landing exactly on p come back as 0, never as p.
  const Fe one = f.one();
  const Fe p1 = f.to_mont(p_minus(1));
  EXPECT_TRUE(f.is_zero(f.add(one, p1)));
  EXPECT_TRUE(f.is_zero(f.add(p1, one)));
  EXPECT_TRUE(f.is_zero(f.sub(p1, p1)));
  EXPECT_EQ(f.sub(f.zero(), one), p1);
  EXPECT_EQ(f.neg(one), p1);
  EXPECT_EQ(f.mul(p1, p1), one);  // (-1)^2
  EXPECT_EQ(f.sqr(p1), one);
  EXPECT_EQ(f.add(p1, p1), f.to_mont(p_minus(2)));
}

TEST_F(FieldTest, SafegcdInverseMatchesFermat) {
  Rng rng(0x1417);
  for (int i = 0; i < 200; ++i) {
    U256 a;
    for (auto& w : a.w) w = rng.next_u64();
    a = u256_mod(a, Secp256k1Field::kP);
    if (a.is_zero()) continue;
    const Fe by_safegcd = fp().inverse(fp().to_mont(a));
    const Fe by_pow = mont_p().pow(mont_p().to_mont(a), p_minus(2));
    ASSERT_EQ(fp().from_mont(by_safegcd), mont_p().from_mont(by_pow)) << a.hex();
    ASSERT_EQ(fp().mul(by_safegcd, fp().to_mont(a)), fp().one());
  }
}

TEST_F(FieldTest, SafegcdInverseEdgeInputs) {
  const auto pow2 = [](int k) {
    U256 x;
    x.w[k / 64] = 1ULL << (k % 64);
    return x;
  };
  const U256 all_ones = U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  const std::vector<U256> edges = {
      U256(1), U256(2), p_minus(1), p_minus(2), pow2(255),
      U256((1ULL << 62) - 1), U256((1ULL << 62) + 1), pow2(62), pow2(124), pow2(248),
      // Zero low limbs.
      U256::from_limbs(0, 1, 0, 0), U256::from_limbs(0, 0, 1, 0),
      U256::from_limbs(0, 0, 0, 1), U256::from_limbs(0, 0, ~0ULL, ~0ULL),
      U256::from_limbs(0, 0, 0, 0xFFFFFFFFFFFFFFFEULL),
      u256_mod(all_ones, Secp256k1Field::kP), U256(Secp256k1Field::kC)};
  for (const U256& a : edges) {
    SCOPED_TRACE(a.hex());
    const Fe inv = fp().inverse(fp().to_mont(a));
    EXPECT_EQ(fp().from_mont(inv), mont_p().from_mont(mont_p().inverse(mont_p().to_mont(a))));
    EXPECT_EQ(fp().mul(inv, fp().to_mont(a)), fp().one());
  }
  EXPECT_EQ(fp().inverse(fp().one()), fp().one());
  EXPECT_EQ(fp().inverse(fp().to_mont(p_minus(1))), fp().to_mont(p_minus(1)));  // (-1)^-1
}

// --- secp256k1 ------------------------------------------------------------------

class CurveTest : public ::testing::Test {
 protected:
  const Curve& c = Curve::instance();
};

TEST_F(CurveTest, GeneratorOnCurve) {
  EXPECT_TRUE(c.on_curve(c.to_affine(c.generator())));
}

TEST_F(CurveTest, OrderTimesGeneratorIsInfinity) {
  EXPECT_TRUE(c.mul(c.order(), c.generator()).is_infinity());
}

TEST_F(CurveTest, KnownDoubleOfG) {
  const AffinePoint g2 = c.to_affine(c.dbl(c.generator()));
  EXPECT_EQ(g2.x.hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(g2.y.hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST_F(CurveTest, AddDblConsistency) {
  // G + G (general addition) must equal dbl(G).
  const Point sum = c.add(c.generator(), c.generator());
  EXPECT_TRUE(c.equal(sum, c.dbl(c.generator())));
}

TEST_F(CurveTest, MulDistributesOverScalarAddition) {
  const U256 k1(123456), k2(654321);
  U256 k3;
  u256_add(k3, k1, k2);
  const Point lhs = c.add(c.mul_g(k1), c.mul_g(k2));
  EXPECT_TRUE(c.equal(lhs, c.mul_g(k3)));
}

TEST_F(CurveTest, FixedBaseTableMatchesGenericMul) {
  for (std::uint64_t k : {1ULL, 2ULL, 16ULL, 0xFFFFULL, 0x123456789ABCDEFULL}) {
    EXPECT_TRUE(c.equal(c.mul_g(U256(k)), c.mul(U256(k), c.generator())));
  }
  // Also a full-width scalar.
  const U256 big = U256::from_limbs(0x1111111111111111, 0x2222222222222222,
                                    0x3333333333333333, 0x4444444444444444);
  EXPECT_TRUE(c.equal(c.mul_g(big), c.mul(big, c.generator())));
}

TEST_F(CurveTest, CombMatchesGenericMulOnRandomScalars) {
  // Full 256-bit scalars, not reduced mod n: mul_g takes any 256-bit k.
  Rng rng(0xC0B);
  for (int i = 0; i < 10000; ++i) {
    U256 k;
    for (auto& w : k.w) w = rng.next_u64();
    ASSERT_TRUE(c.equal(c.mul_g(k), c.mul(k, c.generator()))) << k.hex();
  }
}

TEST_F(CurveTest, CombEdgeScalars) {
  const U256& n = c.order();
  U256 n_minus_1;
  u256_sub(n_minus_1, n, U256(1));
  const U256 all_ones = U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  // Every full window holds 2^(w−1): each recodes to a negative digit and
  // carries into the next, up to the top row, which reads the carry alone.
  U256 half_windows;
  for (int i = 0; (i + 1) * Curve::kCombWidth <= 256; ++i) {
    const int bit = i * Curve::kCombWidth + Curve::kCombWidth - 1;
    half_windows.w[bit / 64] |= 1ULL << (bit % 64);
  }
  // Every window is 2^(w−1) − 1: the largest digit that does not carry.
  U256 below_half;
  for (int bit = 0; bit < 256; ++bit) {
    if (bit % Curve::kCombWidth == Curve::kCombWidth - 1) continue;
    below_half.w[bit / 64] |= 1ULL << (bit % 64);
  }
  for (const U256& k : {U256(0), U256(1), n_minus_1, n, all_ones, half_windows, below_half}) {
    EXPECT_TRUE(c.equal(c.mul_g(k), c.mul(k, c.generator()))) << k.hex();
  }
  EXPECT_TRUE(c.mul_g(U256(0)).is_infinity());
  EXPECT_TRUE(c.mul_g(n).is_infinity());
  EXPECT_TRUE(c.equal(c.mul_g(n_minus_1), c.negate(c.generator())));
}

TEST_F(CurveTest, MulAddMatchesSeparateMuls) {
  // Strauss-joint ladder vs the textbook composition it replaces, over
  // hash-derived (effectively random full-width) scalars and points.
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const U256 a = scalar_from_digest(sha256(to_bytes("a" + std::to_string(trial))));
    const U256 b = scalar_from_digest(sha256(to_bytes("b" + std::to_string(trial))));
    const U256 k = scalar_from_digest(sha256(to_bytes("p" + std::to_string(trial))));
    const Point p = c.mul_g(k);
    const Point expect = c.add(c.mul_g(a), c.mul(b, p));
    EXPECT_TRUE(c.equal(c.mul_add(a, b, p), expect)) << "trial " << trial;
  }
}

TEST_F(CurveTest, MulAddEdgeScalars) {
  const U256 k = scalar_from_digest(sha256(to_bytes("edge-point")));
  const Point p = c.mul_g(k);
  const U256 a = scalar_from_digest(sha256(to_bytes("edge-a")));
  EXPECT_TRUE(c.equal(c.mul_add(U256(0), U256(1), p), p));
  EXPECT_TRUE(c.equal(c.mul_add(a, U256(0), p), c.mul_g(a)));
  EXPECT_TRUE(c.mul_add(U256(0), U256(0), p).is_infinity());
  EXPECT_TRUE(c.equal(c.mul_add(U256(0), U256(5), c.infinity()), c.infinity()));
}

TEST_F(CurveTest, MsmMatchesSumOfMuls) {
  std::vector<U256> scalars;
  std::vector<Point> points;
  const U256 g_scalar = scalar_from_digest(sha256(to_bytes("msm-g")));
  Point expect = c.mul_g(g_scalar);
  for (std::uint64_t i = 0; i < 7; ++i) {
    const U256 s = scalar_from_digest(sha256(to_bytes("msm-s" + std::to_string(i))));
    const U256 k = scalar_from_digest(sha256(to_bytes("msm-p" + std::to_string(i))));
    const Point p = c.mul_g(k);
    scalars.push_back(s);
    points.push_back(p);
    expect = c.add(expect, c.mul(s, p));
  }
  EXPECT_TRUE(c.equal(c.msm(g_scalar, scalars, points), expect));
  EXPECT_THROW(c.msm(g_scalar, scalars, std::span<const Point>(points.data(), 3)),
               std::invalid_argument);
}

TEST_F(CurveTest, MsmRejectsUnreducedScalars) {
  // The GLV split is defined on residues mod n, so msm requires every
  // per-point scalar to be reduced.
  const Point p = c.mul_g(U256(7));
  const std::vector<Point> points{p};
  std::vector<U256> scalars{c.order()};
  EXPECT_THROW(c.msm(U256(1), scalars, points), std::invalid_argument);
  EXPECT_THROW(c.mul_add(U256(1), c.order(), p), std::invalid_argument);
  // One below n is fine.
  u256_sub(scalars[0], c.order(), U256(1));
  EXPECT_TRUE(c.equal(c.msm(U256(0), scalars, points), c.negate(p)));
}

// --- GLV endomorphism ----------------------------------------------------------

/// n − x, for x <= n.
U256 order_minus(const U256& x) {
  U256 out;
  u256_sub(out, Curve::instance().order(), x);
  return out;
}

/// Scalars where the split or the ladder has a boundary: zero, one, λ and its
/// negation, n − 1, the halves around n/2 and 2^128, and the basis vectors.
std::vector<U256> glv_edge_scalars() {
  const U256 two128 = U256::from_limbs(0, 0, 1, 0);
  U256 two128_minus1, two128_plus1, half_n;
  u256_sub(two128_minus1, two128, U256(1));
  u256_add(two128_plus1, two128, U256(1));
  const U256& n = Curve::instance().order();
  half_n = U256::from_limbs((n.w[0] >> 1) | (n.w[1] << 63), (n.w[1] >> 1) | (n.w[2] << 63),
                            (n.w[2] >> 1) | (n.w[3] << 63), n.w[3] >> 1);
  U256 half_n_plus1;
  u256_add(half_n_plus1, half_n, U256(1));
  return {U256(0),       U256(1),       U256(2),
          glv::kLambda,  order_minus(glv::kLambda),
          order_minus(U256(1)),
          two128_minus1, two128,        two128_plus1,
          half_n,        half_n_plus1,
          glv::kA1,      glv::kMinusB1, glv::kA2,
          order_minus(glv::kA1), order_minus(glv::kMinusB1), order_minus(glv::kA2)};
}

/// The signed half (neg ? n − mag : mag) as a residue mod n.
U256 signed_residue(const U256& mag, bool neg) {
  return neg && !mag.is_zero() ? order_minus(mag) : mag;
}

/// (a + b·c) mod n, for a, b, c < n.
U256 mul_add_mod_n(const U256& a, const U256& b, const U256& c) {
  const auto& fn = Curve::instance().fn();
  return fn.from_mont(fn.add(fn.to_mont(a), fn.mul(fn.to_mont(b), fn.to_mont(c))));
}

/// |x − y| as 512-bit values, little-endian limbs.
std::array<std::uint64_t, 8> abs_diff512(std::array<std::uint64_t, 8> x,
                                         std::array<std::uint64_t, 8> y) {
  bool x_less = false;
  for (int i = 7; i >= 0; --i) {
    if (x[i] != y[i]) {
      x_less = x[i] < y[i];
      break;
    }
  }
  if (x_less) std::swap(x, y);
  std::array<std::uint64_t, 8> out{};
  std::uint64_t borrow = 0;
  for (int i = 0; i < 8; ++i) {
    const unsigned __int128 d = static_cast<unsigned __int128>(x[i]) - y[i] - borrow;
    out[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  return out;
}

TEST_F(CurveTest, GlvConstantsMatchTheCurve) {
  const auto& fn = c.fn();
  const auto& fp = c.fp();
  // λ and β are nontrivial cube roots of unity mod n and mod p.
  const Fe lam = fn.to_mont(glv::kLambda);
  EXPECT_FALSE(lam == fn.one());
  EXPECT_EQ(fn.from_mont(fn.mul(fn.sqr(lam), lam)), U256(1));
  const Fe beta = fp.to_mont(glv::kBeta);
  EXPECT_FALSE(beta == fp.one());
  EXPECT_EQ(fp.from_mont(fp.mul(fp.sqr(beta), beta)), U256(1));
  // They pair up: the plain ladder's λ·G is (β·Gx, Gy).
  const AffinePoint g = c.to_affine(c.generator());
  const AffinePoint lg = c.to_affine(c.mul(glv::kLambda, c.generator()));
  EXPECT_EQ(lg.x, fp.from_mont(fp.mul(beta, fp.to_mont(g.x))));
  EXPECT_EQ(lg.y, g.y);
  EXPECT_TRUE(c.equal(c.endomorphism(c.generator()), c.mul(glv::kLambda, c.generator())));
  // Both basis vectors lie on the lattice: a1 + b1·λ ≡ 0 and a2 + b2·λ ≡ 0.
  EXPECT_EQ(mul_add_mod_n(glv::kA1, order_minus(glv::kMinusB1), glv::kLambda), U256(0));
  EXPECT_EQ(mul_add_mod_n(glv::kA2, glv::kB2, glv::kLambda), U256(0));
  // They span it: det = a1·b2 − a2·b1 = a1·b2 + a2·(−b1) == n.
  const auto det1 = u256_mul_wide(glv::kA1, glv::kB2);
  const auto det2 = u256_mul_wide(glv::kA2, glv::kMinusB1);
  U256 lo = U256::from_limbs(det1[0], det1[1], det1[2], det1[3]);
  U256 lo2 = U256::from_limbs(det2[0], det2[1], det2[2], det2[3]);
  U256 det;
  EXPECT_EQ(u256_add(det, lo, lo2), 0u);
  EXPECT_EQ(det, c.order());
  // g1, g2 are the nearest integers to 2^384·b2/n and 2^384·(−b1)/n:
  // |g·n − 2^384·b| <= n/2.
  for (const auto& [g, b] : {std::pair{glv::kG1, glv::kB2}, std::pair{glv::kG2, glv::kMinusB1}}) {
    std::array<std::uint64_t, 8> target{};
    target[6] = b.w[0];
    target[7] = b.w[1];
    ASSERT_TRUE(b.w[2] == 0 && b.w[3] == 0);
    const auto diff = abs_diff512(u256_mul_wide(g, c.order()), target);
    for (int i = 4; i < 8; ++i) EXPECT_EQ(diff[i], 0u);
    const U256 d = U256::from_limbs(diff[0], diff[1], diff[2], diff[3]);
    U256 twice;
    EXPECT_EQ(u256_add(twice, d, d), 0u);
    EXPECT_TRUE(u256_less(twice, c.order())) << "g=" << g.hex();
  }
}

TEST_F(CurveTest, GlvSplitRecombinesWithShortHalves) {
  // k ≡ k1 + k2·λ (mod n) with both halves below 2^128 (the ladder's digit
  // budget; the lattice argument only promises ~2^129), over 10^5 random
  // full-width scalars, 128-bit scalars, and the edge cases.
  std::vector<U256> ks = glv_edge_scalars();
  Rng rng(0x61F);
  for (int i = 0; i < 100000; ++i) {
    U256 k = U256::from_limbs(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    if (i % 4 == 3) k.w[2] = k.w[3] = 0;
    if (!u256_less(k, c.order())) u256_sub(k, k, c.order());
    ks.push_back(k);
  }
  const U256 two128 = U256::from_limbs(0, 0, 1, 0);
  for (const U256& k : ks) {
    const GlvSplit s = c.glv_split(k);
    ASSERT_TRUE(u256_less(s.k1, two128)) << "k=" << k.hex() << " k1=" << s.k1.hex();
    ASSERT_TRUE(u256_less(s.k2, two128)) << "k=" << k.hex() << " k2=" << s.k2.hex();
    ASSERT_EQ(mul_add_mod_n(signed_residue(s.k1, s.neg1), signed_residue(s.k2, s.neg2),
                            glv::kLambda),
              k)
        << "k=" << k.hex();
  }
  EXPECT_THROW(c.glv_split(c.order()), std::invalid_argument);
}

TEST_F(CurveTest, MulAddMatchesReferenceOnGlvEdgeScalars) {
  // Every pair of edge scalars, against two points: a random one, and G
  // itself — where the ladder's per-point and fixed-base tables hold the
  // same points and the mixed add meets its doubling and cancelling cases.
  const std::vector<U256> edges = glv_edge_scalars();
  const Point p = c.mul_g(scalar_from_digest(sha256(to_bytes("glv-edge-point"))));
  for (const Point& q : {p, c.generator()}) {
    std::vector<Point> bq;
    for (const U256& b : edges) bq.push_back(c.mul(b, q));
    for (const U256& a : edges) {
      const Point ag = c.mul_g(a);
      for (std::size_t j = 0; j < edges.size(); ++j) {
        ASSERT_TRUE(c.equal(c.mul_add(a, edges[j], q), c.add(ag, bq[j])))
            << "a=" << a.hex() << " b=" << edges[j].hex();
      }
    }
  }
  // a·G + (n − a)·G is infinity.
  for (const U256& a : edges) {
    if (a.is_zero()) continue;
    EXPECT_TRUE(c.mul_add(a, order_minus(a), c.generator()).is_infinity()) << a.hex();
  }
}

TEST_F(CurveTest, FixedTableMulAddMatchesReferenceOnGlvEdgeScalars) {
  // The ladder over a precomputed FixedTable: every pair of edge scalars
  // against the reference double-and-add, for a random Q and for Q == G,
  // where the key's table and G's hold the same points and the mixed add
  // meets its doubling and cancelling cases.
  const std::vector<U256> edges = glv_edge_scalars();
  const Point p = c.mul_g(scalar_from_digest(sha256(to_bytes("fixed-edge-point"))));
  for (const Point& q : {p, c.generator()}) {
    const FixedTable table = c.fixed_table(q);
    std::vector<Point> bq;
    for (const U256& b : edges) bq.push_back(c.mul(b, q));
    for (const U256& a : edges) {
      const Point ag = c.mul_g(a);
      for (std::size_t j = 0; j < edges.size(); ++j) {
        ASSERT_TRUE(c.equal(c.mul_add(a, edges[j], table), c.add(ag, bq[j])))
            << "a=" << a.hex() << " b=" << edges[j].hex();
      }
    }
  }
  EXPECT_THROW(c.fixed_table(c.infinity()), std::invalid_argument);
  EXPECT_THROW(c.mul_add(U256(1), c.order(), c.fixed_table(p)), std::invalid_argument);
}

TEST_F(CurveTest, MsmMixesFixedTermsWithPoints) {
  // Fixed terms share the ladder with points seen once: a table used twice,
  // a table whose point is also passed as a point, and G's own table.
  const Point p = c.mul_g(scalar_from_digest(sha256(to_bytes("msm-fixed-p"))));
  const Point q = c.mul_g(scalar_from_digest(sha256(to_bytes("msm-fixed-q"))));
  const FixedTable tp = c.fixed_table(p);
  const FixedTable tg = c.fixed_table(c.generator());
  const auto scalar = [](int i) {
    return scalar_from_digest(sha256(to_bytes("msm-fixed-s" + std::to_string(i))));
  };
  const std::vector<FixedTerm> fixed{{scalar(0), &tp}, {scalar(1), &tg}, {scalar(2), &tp}};
  const std::vector<Point> points{q, p};
  const std::vector<U256> scalars{scalar(3), scalar(4)};
  Point expect = c.mul_g(scalar(5));
  expect = c.add(expect, c.mul(scalar(0), p));
  expect = c.add(expect, c.mul(scalar(1), c.generator()));
  expect = c.add(expect, c.mul(scalar(2), p));
  expect = c.add(expect, c.mul(scalar(3), q));
  expect = c.add(expect, c.mul(scalar(4), p));
  EXPECT_TRUE(c.equal(c.msm(scalar(5), scalars, points, fixed), expect));
}

TEST_F(CurveTest, MsmMixesShortAndFullWidthScalars) {
  // batch_verify's shape: 128-bit coefficients on some points and full-width
  // scalars on others, in one ladder. Repeated points and λ-related points
  // (whose tables coincide with another point's λ-table) are mixed in.
  const Point p = c.mul_g(scalar_from_digest(sha256(to_bytes("msm-mix-p"))));
  const std::vector<Point> points{p,
                                  c.mul_g(scalar_from_digest(sha256(to_bytes("msm-mix-q")))),
                                  p,
                                  c.endomorphism(p),
                                  c.generator(),
                                  c.infinity()};
  std::vector<U256> scalars;
  Point expect = c.infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    U256 s = scalar_from_digest(sha256(to_bytes("msm-mix-s" + std::to_string(i))));
    if (i % 2 == 0) s.w[2] = s.w[3] = 0;
    scalars.push_back(s);
    expect = c.add(expect, c.mul(s, points[i]));
  }
  for (const U256& g : glv_edge_scalars()) {
    EXPECT_TRUE(c.equal(c.msm(g, scalars, points), c.add(c.mul_g(g), expect))) << g.hex();
  }
  // Any 256-bit g_scalar is accepted and taken mod n.
  const U256 all_ones = U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  U256 reduced;
  u256_sub(reduced, all_ones, c.order());
  EXPECT_TRUE(c.equal(c.msm(all_ones, scalars, points), c.add(c.mul_g(reduced), expect)));
}

TEST_F(CurveTest, BatchToAffineMatchesToAffine) {
  std::vector<Point> pts;
  for (std::uint64_t i = 0; i < 6; ++i) {
    pts.push_back(c.mul_g(scalar_from_digest(sha256(to_bytes("bn" + std::to_string(i))))));
  }
  pts.push_back(c.infinity());
  const std::vector<AffinePoint> affine = c.batch_to_affine(pts);
  ASSERT_EQ(affine.size(), pts.size());
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    EXPECT_TRUE(affine[i] == c.to_affine(pts[i])) << "point " << i;
  }
  EXPECT_TRUE(affine.back().infinity);
}

TEST_F(CurveTest, AddInfinityIdentity) {
  const Point inf = c.infinity();
  EXPECT_TRUE(c.equal(c.add(inf, c.generator()), c.generator()));
  EXPECT_TRUE(c.equal(c.add(c.generator(), inf), c.generator()));
  EXPECT_TRUE(c.add(inf, inf).is_infinity());
}

TEST_F(CurveTest, AddPointAndNegationIsInfinity) {
  EXPECT_TRUE(c.add(c.generator(), c.negate(c.generator())).is_infinity());
}

TEST_F(CurveTest, AffineSerializationRoundTrip) {
  const AffinePoint p = c.to_affine(c.mul_g(U256(777)));
  const auto back = AffinePoint::deserialize(p.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST_F(CurveTest, InfinitySerializationRoundTrip) {
  AffinePoint inf;
  inf.infinity = true;
  const auto back = AffinePoint::deserialize(inf.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->infinity);
}

TEST_F(CurveTest, DeserializeRejectsOffCurvePoints) {
  AffinePoint bogus = c.to_affine(c.mul_g(U256(5)));
  U256 y = bogus.y;
  U256 tweaked;
  u256_add(tweaked, y, U256(1));
  bogus.y = tweaked;
  EXPECT_FALSE(AffinePoint::deserialize(bogus.serialize()).has_value());
}

TEST_F(CurveTest, ScalarFromDigestBelowOrder) {
  const U256 s = scalar_from_digest(sha256(to_bytes("anything")));
  EXPECT_TRUE(u256_less(s, c.order()));
}

// --- Schnorr --------------------------------------------------------------------

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::deterministic(1);
  const Bytes msg = to_bytes("transaction payload");
  EXPECT_TRUE(verify(kp.public_key(), msg, kp.sign(msg)));
}

TEST(Schnorr, RejectsWrongMessage) {
  const KeyPair kp = KeyPair::deterministic(1);
  const Signature sig = kp.sign(to_bytes("m1"));
  EXPECT_FALSE(verify(kp.public_key(), to_bytes("m2"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const KeyPair a = KeyPair::deterministic(1);
  const KeyPair b = KeyPair::deterministic(2);
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(verify(b.public_key(), msg, a.sign(msg)));
}

TEST(Schnorr, RejectsTwistedKey) {
  // λ·P is a valid key with the same y as P. A ladder that mixed up a point's
  // table with its λ-table would compute with the wrong one of the two.
  const Curve& c = Curve::instance();
  const KeyPair kp = KeyPair::deterministic(4);
  const Bytes msg = to_bytes("m");
  const Signature sig = kp.sign(msg);
  ASSERT_TRUE(verify(kp.public_key(), msg, sig));
  const PublicKey twisted{
      c.to_affine(c.mul(glv::kLambda, c.from_affine(kp.public_key().point)))};
  ASSERT_TRUE(c.on_curve(twisted.point));
  ASSERT_EQ(twisted.point.y, kp.public_key().point.y);
  EXPECT_FALSE(verify(twisted, msg, sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  const KeyPair kp = KeyPair::deterministic(3);
  const Bytes msg = to_bytes("m");
  Signature sig = kp.sign(msg);
  U256 s2;
  u256_add(s2, sig.s, U256(1));
  sig.s = s2;
  EXPECT_FALSE(verify(kp.public_key(), msg, sig));
}

/// verify's equation by the reference double-and-add: R on the curve and
/// not infinity, s < n, and s·G == R + c·P with c = H(ser(R) ‖ ser(P) ‖ m).
bool reference_verify(const PublicKey& pk, BytesView message, const Signature& sig) {
  const Curve& c = Curve::instance();
  if (sig.r.infinity || !c.on_curve(sig.r) || !u256_less(sig.s, c.order())) return false;
  Sha256 h;
  h.update(sig.r.serialize());
  h.update(pk.serialize());
  h.update(message);
  const U256 ch = scalar_from_digest(h.finalize());
  return c.equal(c.mul(sig.s, c.generator()),
                 c.add(c.from_affine(sig.r), c.mul(ch, c.from_affine(pk.point))));
}

TEST(Schnorr, KeyTableVerifyMatchesPublicKeyVerifyAndReference) {
  // Differential oracle over 320 key/message/signature triples: the ladder
  // over the cached table, the ladder over a per-call table and the
  // reference double-and-add agree on valid signatures and on tampered R, s
  // and message, including s at the GLV edge scalars.
  const Curve& c = Curve::instance();
  Rng rng(0x7AB1E);
  const std::vector<U256> edges = glv_edge_scalars();
  std::vector<KeyPair> kps;
  std::vector<std::unique_ptr<KeyTable>> tables;
  for (std::uint64_t i = 0; i < 8; ++i) {
    kps.push_back(KeyPair::deterministic(5000 + i));
    tables.push_back(std::make_unique<KeyTable>(kps.back().public_key()));
  }
  int accepted = 0;
  for (int t = 0; t < 320; ++t) {
    const std::size_t k = rng.uniform(kps.size());
    Bytes msg = rng.bytes(1 + rng.uniform(64));
    Signature sig = kps[k].sign(msg);
    switch (t % 5) {
      case 0:
        break;  // valid
      case 1:   // tampered R: another point on the curve
        sig.r = c.to_affine(c.add(c.from_affine(sig.r), c.generator()));
        break;
      case 2:   // tampered s: an edge scalar or a random reduced one
        sig.s = t % 2 == 0 ? edges[rng.uniform(edges.size())]
                           : scalar_from_digest(sha256(rng.bytes(32)));
        break;
      case 3:   // tampered message
        msg[rng.uniform(msg.size())] ^= 0x01;
        break;
      case 4:   // R off the curve
        sig.r.y = sig.r.x;
        break;
    }
    const bool want = reference_verify(kps[k].public_key(), msg, sig);
    ASSERT_EQ(verify(*tables[k], msg, sig), want) << "triple " << t;
    ASSERT_EQ(verify(kps[k].public_key(), msg, sig), want) << "triple " << t;
    accepted += want ? 1 : 0;
  }
  EXPECT_EQ(accepted, 64);  // exactly the untampered fifth
}

TEST(Schnorr, KeyTableRejectsAnotherKeysSignature) {
  const KeyPair a = KeyPair::deterministic(1);
  const KeyPair b = KeyPair::deterministic(2);
  const KeyTable a_table(a.public_key());
  const Bytes msg = to_bytes("m");
  const Signature by_b = b.sign(msg);
  ASSERT_TRUE(verify(KeyTable(b.public_key()), msg, by_b));
  EXPECT_FALSE(verify(a_table, msg, by_b));
  EXPECT_TRUE(verify(a_table, msg, a.sign(msg)));
  EXPECT_EQ(a_table.key(), a.public_key());
}

TEST(Schnorr, KeyTableRefusesInvalidKeys) {
  PublicKey infinity;
  infinity.point.infinity = true;
  EXPECT_THROW(KeyTable{infinity}, std::invalid_argument);
  PublicKey off_curve = KeyPair::deterministic(1).public_key();
  off_curve.point.y = off_curve.point.x;
  ASSERT_FALSE(Curve::instance().on_curve(off_curve.point));
  EXPECT_THROW(KeyTable{off_curve}, std::invalid_argument);
  KeyRegistry registry;
  EXPECT_THROW(registry.set_server(ServerId{0}, off_curve), std::invalid_argument);
  EXPECT_EQ(registry.server(ServerId{0}), nullptr);
}

TEST(Schnorr, DeterministicSigning) {
  const KeyPair kp = KeyPair::deterministic(4);
  const Bytes msg = to_bytes("m");
  const Signature s1 = kp.sign(msg);
  const Signature s2 = kp.sign(msg);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Schnorr, SignaturesArePinned) {
  // Byte pins: nonces are deterministic, so a signature's bytes are a pure
  // function of (key, message), and a change to how k·G or the affine R is
  // computed must leave every one of them, and a CoSi commitment, identical.
  struct Case {
    std::uint64_t key;
    const char* message;
    const char* want;
  };
  const std::vector<Case> cases = {
      {1, "transaction payload",
       "0492afa5f47f2f53161433cc7e0cbd24368f3b1f966fb22a07c41a40a662bb6e"},
      {2, "",
       "7e7ebea07170b3bd922f77155ad2f1105db8367b722f2ff14ced5267f356f145"},
      {4, "m",
       "d49c3d68c3b2d1cebeb21549704336f0f7d7adba4799627d7bf18fc0e267a831"},
      {7, "a longer message, signed by a client at end-transaction",
       "8d61cbad4b833e7a730e67326649acef3ae5c8de80bf7696d17cb3648c5d65f0"},
      // Its nonce has its top five bits set: the comb's next-to-top window
      // carries into the top row, whose digit becomes 16.
      {3, "comb carry 35",
       "c7560560b4812525f1b5092704dc9673358df14606b9011c83bfaea640b1ac42"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    const KeyPair kp = KeyPair::deterministic(c.key);
    EXPECT_EQ(sha256(kp.sign(to_bytes(c.message)).serialize()).hex(), c.want);
  }
  // The carry case's nonce, derived as KeyPair::sign derives it.
  const KeyPair carry = KeyPair::deterministic(3);
  const auto skb = carry.secret_key().to_bytes_be();
  const std::uint8_t ctr = 0;
  Sha256 h;
  h.update(BytesView(skb.data(), skb.size()));
  h.update(to_bytes("comb carry 35"));
  h.update(BytesView(&ctr, 1));
  EXPECT_EQ(scalar_from_digest(h.finalize()).w[3] >> 59, 0x1FU);

  const CosiCommitment commit = cosi_commit(KeyPair::deterministic(9), to_bytes("block"), 5);
  EXPECT_EQ(sha256(commit.v.serialize()).hex(),
            "27fdbd0a63c2d94a1625319554bfd8f1ec4946ef8d02d9090fb702d786c328e6");
}

TEST(Schnorr, DistinctKeysFromDistinctSeeds) {
  EXPECT_NE(KeyPair::deterministic(1).public_key(),
            KeyPair::deterministic(2).public_key());
}

TEST(Schnorr, SignatureSerializationRoundTrip) {
  const KeyPair kp = KeyPair::deterministic(5);
  const Bytes msg = to_bytes("serialize me");
  const Signature sig = kp.sign(msg);
  const auto back = Signature::deserialize(sig.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(verify(kp.public_key(), msg, *back));
}

TEST(Schnorr, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Signature::deserialize(to_bytes("not a signature")).has_value());
  EXPECT_FALSE(Signature::deserialize({}).has_value());
}

TEST(Schnorr, DeserializeRejectsNonCanonicalScalar) {
  // s must be a reduced scalar: s == n (and anything above) is rejected even
  // though s mod n would verify — non-canonical encodings are malleable.
  const KeyPair kp = KeyPair::deterministic(6);
  Signature sig = kp.sign(to_bytes("m"));
  const U256 n = Curve::instance().order();
  sig.s = n;
  EXPECT_FALSE(Signature::deserialize(sig.serialize()).has_value());
  u256_add(sig.s, n, U256(1));  // n + 1 (no 256-bit overflow: n < 2^256 - 1)
  EXPECT_FALSE(Signature::deserialize(sig.serialize()).has_value());
}

TEST(Schnorr, DeserializeRejectsInfinityR) {
  // R = k·G with k != 0 is never infinity; an infinity R encodes s·G == c·P,
  // which a signer without the secret key could satisfy trivially for c == 0.
  const KeyPair kp = KeyPair::deterministic(7);
  Signature sig = kp.sign(to_bytes("m"));
  sig.r = AffinePoint{};
  sig.r.infinity = true;
  EXPECT_FALSE(Signature::deserialize(sig.serialize()).has_value());
}

// --- Batched Schnorr verification ------------------------------------------------

class BatchVerifyTest : public ::testing::Test {
 protected:
  struct Entry {
    PublicKey pk;
    Bytes message;
    Signature sig;
  };

  void make_entries(std::size_t n, std::uint64_t seed_base = 500) {
    entries.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const KeyPair kp = KeyPair::deterministic(seed_base + i);
      Bytes msg = to_bytes("batch message " + std::to_string(i));
      const Signature sig = kp.sign(msg);
      entries.push_back(Entry{kp.public_key(), std::move(msg), sig});
    }
  }

  std::vector<BatchItem> items() const {
    std::vector<BatchItem> out;
    out.reserve(entries.size());
    for (const Entry& e : entries) {
      out.push_back(BatchItem{&e.pk, BytesView(e.message.data(), e.message.size()),
                              &e.sig});
    }
    return out;
  }

  std::vector<Entry> entries;
};

TEST_F(BatchVerifyTest, AllValidBatchAccepted) {
  make_entries(9);
  const auto verdicts = batch_verify(items());
  ASSERT_EQ(verdicts.size(), entries.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "item " << i;
  }
}

TEST_F(BatchVerifyTest, EmptyAndSingletonBatches) {
  EXPECT_TRUE(batch_verify({}).empty());
  make_entries(1);
  EXPECT_EQ(batch_verify(items()), std::vector<unsigned char>{1});
  entries[0].message = to_bytes("tampered");
  EXPECT_EQ(batch_verify(items()), std::vector<unsigned char>{0});
}

TEST_F(BatchVerifyTest, CorruptedSubsetsAttributedExactly) {
  // Property: for any corrupted subset (drawn from a hash, covering empty,
  // singleton, runs, and scattered patterns) the recursive split pins the
  // exact bad indices — no false accepts and no collateral rejects.
  const std::size_t n = 12;
  const auto& fn = Curve::instance().fn();
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    make_entries(n, 500 + trial * 100);
    const Digest d = sha256(to_bytes("corrupt-mask " + std::to_string(trial)));
    const std::uint16_t mask =
        static_cast<std::uint16_t>((d.bytes[0] | (d.bytes[1] << 8)) & 0x0FFF);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask >> i & 1)) continue;
      // s += 1 mod n: structurally well-formed, cryptographically wrong.
      entries[i].sig.s =
          fn.from_mont(fn.add(fn.to_mont(entries[i].sig.s), fn.to_mont(U256(1))));
    }
    const auto verdicts = batch_verify(items());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(verdicts[i], (mask >> i & 1) ? 0 : 1)
          << "trial " << trial << " item " << i << " mask " << mask;
    }
  }
}

TEST_F(BatchVerifyTest, CancellationPairCaught) {
  // Two defects engineered to cancel under unit coefficients: s0 += d and
  // s1 -= d leave Σsᵢ (and every other aggregate term) unchanged, so a naive
  // z == 1 batch equation would accept both. The Fiat–Shamir zᵢ are fixed by
  // the batch contents but not under the signer's control, so the weighted
  // sum z₀·d - z₁·d vanishes only if z₀ == z₁ — and the split then verifies
  // each signature individually anyway.
  make_entries(6);
  const auto& fn = Curve::instance().fn();
  const Fe d = fn.to_mont(U256(123456789));
  entries[0].sig.s = fn.from_mont(fn.add(fn.to_mont(entries[0].sig.s), d));
  entries[1].sig.s = fn.from_mont(fn.sub(fn.to_mont(entries[1].sig.s), d));
  ASSERT_FALSE(verify(entries[0].pk, entries[0].message, entries[0].sig));
  ASSERT_FALSE(verify(entries[1].pk, entries[1].message, entries[1].sig));
  const auto verdicts = batch_verify(items());
  EXPECT_EQ(verdicts[0], 0);
  EXPECT_EQ(verdicts[1], 0);
  for (std::size_t i = 2; i < entries.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "item " << i;
  }
}

TEST_F(BatchVerifyTest, CoefficientSolveForgeryRejected) {
  // Regression: the RLC coefficient seed must commit to each signature's s.
  // An earlier derivation hashed only (R, pk, m), so an adversary holding
  // the batch's secret keys could compute every zᵢ before committing to the
  // s values and then solve z₀·d₀ + z₁·d₁ == 0 (mod n) for offsets that
  // leave Σ zᵢsᵢ — and hence the full-batch aggregate — unchanged while
  // both signatures fail individual verification. Reproduce that exact
  // solve against the s-free derivation and check the batch rejects it.
  make_entries(6);
  const auto& fn = Curve::instance().fn();

  // The zᵢ exactly as the flawed scheme derived them: s absent from the seed.
  Sha256 seed_h;
  seed_h.update(to_bytes("fides-batch-verify-v1"));
  for (const Entry& e : entries) {
    seed_h.update(e.sig.r.serialize());
    seed_h.update(e.pk.serialize());
    seed_h.update(sha256(e.message).view());
  }
  const Digest seed = seed_h.finalize();
  const auto coeff = [&seed](std::size_t i) {
    Sha256 h;
    h.update(seed.view());
    Writer w;
    w.u64(static_cast<std::uint64_t>(i));
    h.update(w.data());
    U256 zi = U256::from_bytes_be(h.finalize().view());
    zi.w[2] = 0;
    zi.w[3] = 0;
    if (zi.is_zero()) zi = U256(1);
    return zi;
  };

  // d₁ = -z₀·d₀ / z₁ mod n cancels the d₀ perturbation in the z-weighted sum.
  const Fe z0 = fn.to_mont(coeff(0));
  const Fe z1 = fn.to_mont(coeff(1));
  const Fe d0 = fn.to_mont(U256(0xD00DFEEDULL));
  const Fe d1 = fn.neg(fn.mul(fn.mul(z0, d0), fn.inverse(z1)));
  entries[0].sig.s = fn.from_mont(fn.add(fn.to_mont(entries[0].sig.s), d0));
  entries[1].sig.s = fn.from_mont(fn.add(fn.to_mont(entries[1].sig.s), d1));
  ASSERT_FALSE(verify(entries[0].pk, entries[0].message, entries[0].sig));
  ASSERT_FALSE(verify(entries[1].pk, entries[1].message, entries[1].sig));

  const auto verdicts = batch_verify(items());
  EXPECT_EQ(verdicts[0], 0);
  EXPECT_EQ(verdicts[1], 0);
  for (std::size_t i = 2; i < entries.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "item " << i;
  }
}

TEST_F(BatchVerifyTest, RepeatedKeyCorruptionAttributed) {
  // 64 items under one key, then under three keys round-robin: the P-terms
  // of each key merge into one term, and one corrupted item must still be
  // pinned exactly.
  for (const std::uint64_t num_keys : {1, 3}) {
    entries.clear();
    for (std::size_t i = 0; i < 64; ++i) {
      const KeyPair kp = KeyPair::deterministic(77 + i % num_keys);
      Bytes msg = to_bytes("same-key message " + std::to_string(i));
      const Signature sig = kp.sign(msg);
      entries.push_back(Entry{kp.public_key(), std::move(msg), sig});
    }
    ASSERT_EQ(batch_verify(items()), std::vector<unsigned char>(64, 1));
    const std::size_t bad = 41;
    entries[bad].message = to_bytes("tampered");
    const auto verdicts = batch_verify(items());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(verdicts[i], i == bad ? 0 : 1) << num_keys << " keys, item " << i;
    }
  }
}

TEST_F(BatchVerifyTest, ScreensNonCanonicalItems) {
  // The structural screen rejects malformed items without poisoning the
  // aggregate: same strictness as Signature::deserialize, exercised through
  // the batch path (s >= n and infinity R never reach the MSM).
  make_entries(5);
  entries[1].sig.s = Curve::instance().order();
  entries[3].sig.r = AffinePoint{};
  entries[3].sig.r.infinity = true;
  const auto verdicts = batch_verify(items());
  const std::vector<unsigned char> want{1, 0, 1, 0, 1};
  EXPECT_EQ(verdicts, want);
}

// --- CoSi ------------------------------------------------------------------------

class CosiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t i = 0; i < 4; ++i) {
      keypairs.push_back(KeyPair::deterministic(100 + i));
      pks.push_back(keypairs.back().public_key());
      tables.push_back(std::make_unique<KeyTable>(pks.back()));
      table_ptrs.push_back(tables.back().get());
    }
  }

  CosiSignature collective_sign(BytesView record, std::uint64_t round) {
    commitments.clear();
    vs.clear();
    for (const auto& kp : keypairs) {
      commitments.push_back(cosi_commit(kp, record, round));
      vs.push_back(commitments.back().v);
    }
    const AffinePoint v_agg = cosi_aggregate_commitments(vs);
    challenge = cosi_challenge(v_agg, record);
    responses.clear();
    for (std::size_t i = 0; i < keypairs.size(); ++i) {
      responses.push_back(cosi_respond(keypairs[i], commitments[i].secret, challenge));
    }
    return CosiSignature{v_agg, cosi_aggregate_responses(responses)};
  }

  std::vector<KeyPair> keypairs;
  std::vector<PublicKey> pks;
  std::vector<std::unique_ptr<KeyTable>> tables;
  std::vector<const KeyTable*> table_ptrs;  ///< tables[i], as cosi_find_faulty takes them
  std::vector<CosiCommitment> commitments;
  std::vector<AffinePoint> vs;
  std::vector<U256> responses;
  U256 challenge;
};

TEST_F(CosiTest, FullRoundVerifies) {
  const Bytes record = to_bytes("block-contents");
  const CosiSignature sig = collective_sign(record, 1);
  EXPECT_TRUE(cosi_verify(record, sig, pks));
}

TEST_F(CosiTest, RejectsDifferentRecord) {
  const CosiSignature sig = collective_sign(to_bytes("block-1"), 1);
  EXPECT_FALSE(cosi_verify(to_bytes("block-2"), sig, pks));
}

TEST_F(CosiTest, RejectsWrongWitnessSet) {
  const Bytes record = to_bytes("block");
  const CosiSignature sig = collective_sign(record, 1);
  std::vector<PublicKey> missing(pks.begin(), pks.end() - 1);
  EXPECT_FALSE(cosi_verify(record, sig, missing));
  auto extra = pks;
  extra.push_back(KeyPair::deterministic(999).public_key());
  EXPECT_FALSE(cosi_verify(record, sig, extra));
}

TEST_F(CosiTest, RejectsEmptyWitnessSet) {
  const CosiSignature sig = collective_sign(to_bytes("b"), 1);
  EXPECT_FALSE(cosi_verify(to_bytes("b"), sig, {}));
}

TEST_F(CosiTest, PerShareVerification) {
  const Bytes record = to_bytes("block");
  collective_sign(record, 2);
  for (std::size_t i = 0; i < keypairs.size(); ++i) {
    EXPECT_TRUE(cosi_verify_share(vs[i], responses[i], challenge, *tables[i]));
  }
}

TEST_F(CosiTest, FaultyWitnessIdentified) {
  // Lemma 4: a corrupt response invalidates the aggregate and the per-share
  // check pinpoints exactly the misbehaving witness.
  const Bytes record = to_bytes("block");
  collective_sign(record, 3);
  responses[1] = U256(424242);
  const CosiSignature bad{cosi_aggregate_commitments(vs),
                          cosi_aggregate_responses(responses)};
  EXPECT_FALSE(cosi_verify(record, bad, pks));
  const auto faulty = cosi_find_faulty(vs, responses, challenge, table_ptrs);
  ASSERT_EQ(faulty.size(), 1u);
  EXPECT_EQ(faulty[0], 1u);
}

TEST_F(CosiTest, MultipleFaultyWitnessesIdentified) {
  const Bytes record = to_bytes("block");
  collective_sign(record, 4);
  responses[0] = U256(1);
  responses[3] = U256(2);
  const auto faulty = cosi_find_faulty(vs, responses, challenge, table_ptrs);
  EXPECT_EQ(faulty, (std::vector<std::size_t>{0, 3}));
}

TEST_F(CosiTest, FindFaultyRejectsMismatchedSpans) {
  // Regression: mismatched span lengths used to index past the shorter
  // vector. A caller-assembly error now condemns every slot instead of
  // reading out of bounds (or silently truncating the scan).
  const Bytes record = to_bytes("block");
  collective_sign(record, 6);
  const std::vector<std::size_t> all{0, 1, 2, 3};
  std::vector<U256> short_responses(responses.begin(), responses.end() - 1);
  EXPECT_EQ(cosi_find_faulty(vs, short_responses, challenge, table_ptrs), all);
  std::vector<const KeyTable*> short_keys(table_ptrs.begin(), table_ptrs.end() - 2);
  EXPECT_EQ(cosi_find_faulty(vs, responses, challenge, short_keys), all);
  EXPECT_TRUE(cosi_find_faulty({}, {}, challenge, {}).empty());
}

TEST_F(CosiTest, CachedAggregateRejectsAnotherSignerSet) {
  // The registry's aggregate for {S0, S1} must refuse a co-sign by
  // {S0, S1, S2}, and the aggregate for {S0, S1, S2} one by {S0, S1}.
  const KeyRegistry registry(pks);
  const std::vector<ServerId> two{ServerId{0}, ServerId{1}};
  const std::vector<ServerId> three{ServerId{0}, ServerId{1}, ServerId{2}};
  const Bytes record = to_bytes("block");
  const auto sign_by = [&](std::size_t count) {
    std::vector<AffinePoint> v;
    std::vector<CosiCommitment> comms;
    for (std::size_t i = 0; i < count; ++i) {
      comms.push_back(cosi_commit(keypairs[i], record, 11));
      v.push_back(comms.back().v);
    }
    const AffinePoint v_agg = cosi_aggregate_commitments(v);
    const U256 ch = cosi_challenge(v_agg, record);
    std::vector<U256> r;
    for (std::size_t i = 0; i < count; ++i) {
      r.push_back(cosi_respond(keypairs[i], comms[i].secret, ch));
    }
    return CosiSignature{v_agg, cosi_aggregate_responses(r)};
  };
  const CosiSignature by_two = sign_by(2);
  const CosiSignature by_three = sign_by(3);
  const KeyTable* agg_two = registry.aggregate(two);
  const KeyTable* agg_three = registry.aggregate(three);
  ASSERT_NE(agg_two, nullptr);
  ASSERT_NE(agg_three, nullptr);
  EXPECT_TRUE(cosi_verify(record, by_two, *agg_two));
  EXPECT_TRUE(cosi_verify(record, by_three, *agg_three));
  EXPECT_FALSE(cosi_verify(record, by_three, *agg_two));
  EXPECT_FALSE(cosi_verify(record, by_two, *agg_three));
  // Cached: the same table every time, whatever the order of the list.
  EXPECT_EQ(registry.aggregate(std::vector<ServerId>{ServerId{1}, ServerId{0}}), agg_two);
  // A single signer's aggregate is its own table.
  EXPECT_EQ(registry.aggregate(std::vector<ServerId>{ServerId{3}}),
            registry.server(ServerId{3}));
  // No aggregate for an empty set, a repeated signer or an unknown one.
  EXPECT_EQ(registry.aggregate({}), nullptr);
  EXPECT_EQ(registry.aggregate(std::vector<ServerId>{ServerId{0}, ServerId{0}}), nullptr);
  EXPECT_EQ(registry.aggregate(std::vector<ServerId>{ServerId{0}, ServerId{9}}), nullptr);
}

TEST_F(CosiTest, AggregateIsBuiltOnceUnderConcurrentRequests) {
  // Pool workers check co-signs concurrently: every thread asking for a
  // set's aggregate gets the one table built for it.
  const KeyRegistry registry(pks);
  const std::vector<std::vector<ServerId>> sets{
      {ServerId{0}, ServerId{1}},
      {ServerId{0}, ServerId{1}, ServerId{2}, ServerId{3}},
      {ServerId{3}, ServerId{2}}};
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<const KeyTable*>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        for (std::size_t i = 0; i < sets.size(); ++i) {
          got[t].push_back(registry.aggregate(sets[(i + t) % sets.size()]));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < got[t].size(); ++k) {
      const auto& set = sets[(k % sets.size() + t) % sets.size()];
      ASSERT_NE(got[t][k], nullptr);
      EXPECT_EQ(got[t][k], registry.aggregate(set));
    }
  }
}

TEST_F(CosiTest, AggregateOfCancellingKeysIsRefused) {
  // X and −X sum to infinity, under which r·G == V holds for anyone's
  // (V, r): no aggregate exists, and the uncached check refuses it too.
  const Curve& c = Curve::instance();
  PublicKey neg = pks[0];
  neg.point = c.to_affine(c.negate(c.from_affine(pks[0].point)));
  const std::vector<PublicKey> cancelling{pks[0], neg};
  const KeyRegistry registry(cancelling);
  EXPECT_EQ(registry.aggregate(std::vector<ServerId>{ServerId{0}, ServerId{1}}), nullptr);
  const U256 r(12345);
  const CosiSignature forged{c.to_affine(c.mul_g(r)), r};
  EXPECT_FALSE(cosi_verify(to_bytes("any"), forged, cancelling));
}

TEST_F(CosiTest, DistinctRoundsDistinctNonces) {
  const Bytes record = to_bytes("block");
  const CosiCommitment c1 = cosi_commit(keypairs[0], record, 1);
  const CosiCommitment c2 = cosi_commit(keypairs[0], record, 2);
  EXPECT_NE(c1.secret, c2.secret);
  EXPECT_FALSE(c1.v == c2.v);
}

TEST_F(CosiTest, SignatureSerializationRoundTrip) {
  const Bytes record = to_bytes("block");
  const CosiSignature sig = collective_sign(record, 5);
  const auto back = CosiSignature::deserialize(sig.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(cosi_verify(record, *back, pks));
}

TEST_F(CosiTest, SingleWitnessDegeneratesToSchnorr) {
  // One witness: CoSi is plain Schnorr over the record.
  const Bytes record = to_bytes("solo");
  const CosiCommitment c = cosi_commit(keypairs[0], record, 1);
  const U256 ch = cosi_challenge(c.v, record);
  const U256 r = cosi_respond(keypairs[0], c.secret, ch);
  const CosiSignature sig{c.v, r};
  EXPECT_TRUE(cosi_verify(record, sig, std::span(&pks[0], 1)));
}

}  // namespace
}  // namespace fides::crypto
