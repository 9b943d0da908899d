#include "rng/hash_family.hpp"

#include <array>
#include <bit>

#include "common/ensure.hpp"
#include "rng/hash_simd.hpp"
#include "rng/md5.hpp"
#include "rng/prng.hpp"
#include "rng/sha1.hpp"

namespace pet::rng {

namespace {

std::array<std::uint8_t, 16> key_bytes(std::uint64_t seed,
                                       std::uint64_t id) noexcept {
  std::array<std::uint8_t, 16> bytes;
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((seed >> (8 * i)) & 0xff);
    bytes[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>((id >> (8 * i)) & 0xff);
  }
  return bytes;
}

std::uint64_t first_8_bytes_le(const std::uint8_t* digest) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | digest[i];
  }
  return v;
}

}  // namespace

std::string_view to_string(HashKind kind) noexcept {
  switch (kind) {
    case HashKind::kMix64: return "mix64";
    case HashKind::kMd5: return "md5";
    case HashKind::kSha1: return "sha1";
  }
  return "unknown";
}

std::uint64_t uniform64(HashKind kind, std::uint64_t seed,
                        std::uint64_t id) noexcept {
  switch (kind) {
    case HashKind::kMix64:
      // Two mixing rounds decorrelate seed and id contributions.
      return mix64(mix64(seed ^ 0x9e3779b97f4a7c15ULL) ^ mix64(id));
    case HashKind::kMd5: {
      const auto bytes = key_bytes(seed, id);
      const auto digest = Md5::hash(std::span<const std::uint8_t>(bytes));
      return first_8_bytes_le(digest.data());
    }
    case HashKind::kSha1: {
      const auto bytes = key_bytes(seed, id);
      const auto digest = Sha1::hash(std::span<const std::uint8_t>(bytes));
      return first_8_bytes_le(digest.data());
    }
  }
  invariant(false, "uniform64: unhandled HashKind");
  return 0;
}

BitCode uniform_code(HashKind kind, std::uint64_t seed, std::uint64_t id,
                     unsigned width) {
  expects(width >= 1 && width <= BitCode::kMaxWidth,
          "uniform_code width must be in [1, 64]");
  const std::uint64_t h = uniform64(kind, seed, id);
  const std::uint64_t value = (width == 64) ? h : (h >> (64 - width));
  return BitCode(value, width);
}

void uniform_code_batch(HashKind kind, std::uint64_t seed,
                        std::span<const TagId> ids, unsigned width,
                        std::vector<std::uint64_t>& out) {
  expects(width >= 1 && width <= BitCode::kMaxWidth,
          "uniform_code_batch width must be in [1, 64]");
  if (kind == HashKind::kMix64) {
    // Same two-round mix as uniform64, with the seed round hoisted.  The
    // kernel (hash_simd.cpp) evaluates the identical integer expression on
    // whatever lanes the CPU has, so the bytes written never depend on it.
    const std::uint64_t seed_mix = mix64(seed ^ 0x9e3779b97f4a7c15ULL);
    out.resize(ids.size());
    static_assert(sizeof(TagId) == sizeof(std::uint64_t));
    detail::mix64_code_batch(
        seed_mix, reinterpret_cast<const std::uint64_t*>(ids.data()),
        ids.size(), width, out.data());
    return;
  }
  out.clear();
  out.reserve(ids.size());
  for (const TagId id : ids) {
    out.push_back(uniform_code(kind, seed, id, width).value());
  }
}

std::uint64_t uniform_slot(HashKind kind, std::uint64_t seed, std::uint64_t id,
                           std::uint64_t bound) {
  expects(bound >= 1, "uniform_slot bound must be >= 1");
  const std::uint64_t h = uniform64(kind, seed, id);
  // Modulo reduction: the bias is below bound / 2^64, immaterial for any
  // frame size the protocols use.
  return h % bound + 1;
}

unsigned geometric_level(HashKind kind, std::uint64_t seed, std::uint64_t id,
                         unsigned max_level) {
  expects(max_level >= 1 && max_level <= 64,
          "geometric_level max_level must be in [1, 64]");
  const std::uint64_t h = uniform64(kind, seed, id);
  // Index (1-based) of the first 1 bit in the MSB-first bit stream; the
  // all-zero tail collapses onto max_level.
  const unsigned lz = (h == 0) ? 64u : static_cast<unsigned>(std::countl_zero(h));
  return std::min(lz + 1, max_level);
}

}  // namespace pet::rng
