#ifndef XKSEARCH_COMMON_BITIO_H_
#define XKSEARCH_COMMON_BITIO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xksearch {

/// \brief Appends bit fields of arbitrary width (1..32) to a caller-owned
/// byte buffer, most-significant bit first within each field.
///
/// Used by the Dewey level-table codec (paper Section 4): each component of
/// a Dewey number is stored with exactly `levelTable[level]` bits. Writing
/// into the caller's buffer lets lm/rm probes encode their key into a
/// reused buffer with no allocation.
class BitWriter {
 public:
  /// Appends after `out`'s existing bytes; `out` must outlive the writer
  /// and receive no other appends while it is in use. The last byte is
  /// zero-padded, so `out` is complete after every write.
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  /// Appends the low `width` bits of `value`. `width` must be in [0, 32];
  /// width 0 writes nothing (a level whose nodes have at most one child
  /// needs 0 bits only when the component is always 0).
  void WriteBits(uint32_t value, int width);

  /// Pads the current byte with zero bits so the next write is byte-aligned.
  void AlignToByte();

  /// Number of bits written so far.
  size_t bit_count() const { return bit_count_; }

 private:
  std::vector<uint8_t>* out_;
  size_t bit_count_ = 0;
};

/// \brief Reads back bit fields written by BitWriter.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}

  explicit BitReader(const std::vector<uint8_t>& data)
      : BitReader(data.data(), data.size()) {}

  /// Reads `width` bits (0..32). Returns 0 for width 0. It is the caller's
  /// responsibility not to read past the end (checked via Remaining()).
  uint32_t ReadBits(int width);

  /// Skips to the next byte boundary.
  void AlignToByte();

  /// Bits left in the buffer.
  size_t Remaining() const { return size_bits_ - pos_; }

  size_t position_bits() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
};

/// Appends `v` to `out` as a base-128 varint (LSB groups first).
void PutVarint32(std::vector<uint8_t>* out, uint32_t v);
void PutVarint64(std::vector<uint8_t>* out, uint64_t v);

/// Decodes a varint at `*pos` in `data` (size `size`); advances `*pos`.
/// Returns false on truncation/overflow.
bool GetVarint32(const uint8_t* data, size_t size, size_t* pos, uint32_t* v);
bool GetVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* v);

}  // namespace xksearch

#endif  // XKSEARCH_COMMON_BITIO_H_
