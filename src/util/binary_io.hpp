// Little-endian scalar (de)serialization for versioned binary formats.
//
// Every persistent format in the simulator ("PFTR" trees, "PFEG" engine
// snapshots, the predictor blobs, the PFP1 wire frames) speaks the same
// dialect: fixed-width little-endian integers, doubles as bit-cast u64.
// store_le/load_le are the one codec; everything else is a transport:
//   - append_*: grow a byte buffer (std::string or
//     std::vector<std::uint8_t>), for images built in memory and written
//     once;
//   - write_*/read_*: one scalar per stream call.
// Stream readers return garbage on a truncated stream rather than
// throwing — callers must check the stream state and raise their own
// typed error, which keeps each format's error vocabulary
// ("prefetch-tree stream:", "engine snapshot stream:", ...) with its
// owner.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>

namespace pfp::util {

/// Stores the sizeof(T) little-endian bytes of `v` at `dst`.
template <std::unsigned_integral T>
inline void store_le(void* dst, T v) {
  auto* p = static_cast<unsigned char*>(dst);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<unsigned char>(v & 0xffU);
    v = static_cast<T>(v >> 8);
  }
}

/// Loads a little-endian T from the sizeof(T) bytes at `src`.
template <std::unsigned_integral T>
[[nodiscard]] inline T load_le(const void* src) {
  const auto* p = static_cast<const unsigned char*>(src);
  T v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) {
    v = static_cast<T>((v << 8) | p[i]);
  }
  return v;
}

// --- byte-buffer appenders ---------------------------------------------

template <typename Bytes, std::unsigned_integral T>
inline void append_le(Bytes& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  store_le(out.data() + at, v);
}

template <typename Bytes>
inline void append_u16(Bytes& out, std::uint16_t v) {
  append_le(out, v);
}

template <typename Bytes>
inline void append_u32(Bytes& out, std::uint32_t v) {
  append_le(out, v);
}

template <typename Bytes>
inline void append_u64(Bytes& out, std::uint64_t v) {
  append_le(out, v);
}

template <typename Bytes>
inline void append_f64(Bytes& out, double v) {
  append_le(out, std::bit_cast<std::uint64_t>(v));
}

// --- stream writers and readers ----------------------------------------

template <std::unsigned_integral T>
inline void write_le(std::ostream& out, T v) {
  std::array<char, sizeof(T)> b;
  store_le(b.data(), v);
  out.write(b.data(), b.size());
}

inline void write_u16(std::ostream& out, std::uint16_t v) { write_le(out, v); }
inline void write_u32(std::ostream& out, std::uint32_t v) { write_le(out, v); }
inline void write_u64(std::ostream& out, std::uint64_t v) { write_le(out, v); }

/// Signed values travel as their two's-complement bit pattern.
inline void write_i64(std::ostream& out, std::int64_t v) {
  write_u64(out, static_cast<std::uint64_t>(v));
}

inline void write_f64(std::ostream& out, double v) {
  write_u64(out, std::bit_cast<std::uint64_t>(v));
}

template <std::unsigned_integral T>
[[nodiscard]] inline T read_le(std::istream& in) {
  std::array<char, sizeof(T)> b{};
  in.read(b.data(), b.size());
  return load_le<T>(b.data());
}

inline std::uint16_t read_u16(std::istream& in) {
  return read_le<std::uint16_t>(in);
}

inline std::uint32_t read_u32(std::istream& in) {
  return read_le<std::uint32_t>(in);
}

inline std::uint64_t read_u64(std::istream& in) {
  return read_le<std::uint64_t>(in);
}

inline std::int64_t read_i64(std::istream& in) {
  return static_cast<std::int64_t>(read_u64(in));
}

inline double read_f64(std::istream& in) {
  return std::bit_cast<double>(read_u64(in));
}

}  // namespace pfp::util
