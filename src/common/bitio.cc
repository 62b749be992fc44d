#include "common/bitio.h"

#include <algorithm>
#include <cassert>

namespace xksearch {

void BitWriter::WriteBits(uint32_t value, int width) {
  assert(width >= 0 && width <= 32);
  if (width < 32) {
    assert((value >> width) == 0 && "value does not fit in width");
  }
  // Fill the partial last byte, then whole bytes, high bits first.
  while (width > 0) {
    const int used = static_cast<int>(bit_count_ % 8);
    if (used == 0) out_->push_back(0);
    const int take = std::min(8 - used, width);
    const uint32_t bits = (value >> (width - take)) & ((1u << take) - 1);
    out_->back() |= static_cast<uint8_t>(bits << (8 - used - take));
    width -= take;
    bit_count_ += static_cast<size_t>(take);
  }
}

void BitWriter::AlignToByte() {
  bit_count_ = (bit_count_ + 7) / 8 * 8;
}

uint32_t BitReader::ReadBits(int width) {
  assert(width >= 0 && width <= 32);
  uint32_t out = 0;
  for (int i = 0; i < width; ++i) {
    assert(pos_ < size_bits_ && "BitReader overrun");
    const size_t byte = pos_ / 8;
    const int bit_in_byte = static_cast<int>(pos_ % 8);
    const uint32_t bit = (data_[byte] >> (7 - bit_in_byte)) & 1u;
    out = (out << 1) | bit;
    ++pos_;
  }
  return out;
}

void BitReader::AlignToByte() { pos_ = (pos_ + 7) / 8 * 8; }

void PutVarint32(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void PutVarint64(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint32(const uint8_t* data, size_t size, size_t* pos, uint32_t* v) {
  uint32_t result = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    if (*pos >= size) return false;
    const uint8_t byte = data[(*pos)++];
    result |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject bits beyond 32 in the final group.
      if (shift == 28 && (byte & 0x70) != 0) return false;
      *v = result;
      return true;
    }
  }
  return false;
}

bool GetVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (*pos >= size) return false;
    const uint8_t byte = data[(*pos)++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

}  // namespace xksearch
