#include "store/pager.h"

#include <cstring>

#include "util/crc64.h"

namespace quickdrop::store {
namespace {

void put_u32(std::uint8_t* dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* src) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(src[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
  return v;
}

// Header layout (little-endian):
//   [0..4)   magic
//   [4..8)   kind
//   [8..16)  page id
//   [16..20) payload length
//   [20..24) reserved (zero)
//   [24..32) CRC64 over bytes [0..24) + the padded payload area
constexpr std::size_t kCrcOffset = 24;

}  // namespace

std::uint64_t Pager::file_pages() { return io_->size() / kPageSize; }

std::uint64_t Pager::append(PageKind kind, std::span<const std::uint8_t> payload) {
  if (payload.size() > kPagePayload) {
    throw StoreError("pager: page payload too large (" + std::to_string(payload.size()) + ")");
  }
  const std::uint64_t id = next_page_;
  std::vector<std::uint8_t> page(kPageSize, 0);
  put_u32(page.data(), kPageMagic);
  put_u32(page.data() + 4, static_cast<std::uint32_t>(kind));
  put_u64(page.data() + 8, id);
  put_u32(page.data() + 16, static_cast<std::uint32_t>(payload.size()));
  // An empty payload's data pointer may be null, and memcpy from null is
  // undefined even for zero bytes.
  if (!payload.empty()) {
    std::memcpy(page.data() + kPageHeaderSize, payload.data(), payload.size());
  }
  // CRC spans the header prefix AND the padded payload area, so a bit flip
  // anywhere in the page — including the zero padding — is detected.
  const std::uint64_t crc =
      crc64(std::span<const std::uint8_t>(page.data(), kCrcOffset),
            crc64(std::span<const std::uint8_t>(page.data() + kPageHeaderSize, kPagePayload)));
  put_u64(page.data() + kCrcOffset, crc);
  io_->write_at(id * kPageSize, page);
  ++next_page_;
  return id;
}

Page Pager::read(std::uint64_t id) {
  std::vector<std::uint8_t> page(kPageSize);
  const std::size_t got = io_->read_at(id * kPageSize, page);
  if (got != kPageSize) {
    throw StoreError("pager: short read of page " + std::to_string(id) + " (" +
                     std::to_string(got) + " bytes)");
  }
  if (get_u32(page.data()) != kPageMagic) {
    throw StoreError("pager: bad magic on page " + std::to_string(id));
  }
  const std::uint32_t kind_raw = get_u32(page.data() + 4);
  if (kind_raw < static_cast<std::uint32_t>(PageKind::kData) ||
      kind_raw > static_cast<std::uint32_t>(PageKind::kCommit)) {
    throw StoreError("pager: unknown kind on page " + std::to_string(id));
  }
  if (get_u64(page.data() + 8) != id) {
    throw StoreError("pager: page id mismatch on page " + std::to_string(id));
  }
  const std::uint32_t len = get_u32(page.data() + 16);
  if (len > kPagePayload) {
    throw StoreError("pager: oversized payload length on page " + std::to_string(id));
  }
  const std::uint64_t want =
      crc64(std::span<const std::uint8_t>(page.data(), kCrcOffset),
            crc64(std::span<const std::uint8_t>(page.data() + kPageHeaderSize, kPagePayload)));
  if (get_u64(page.data() + kCrcOffset) != want) {
    throw StoreError("pager: CRC mismatch on page " + std::to_string(id) +
                     " (torn write or bit rot)");
  }
  Page out;
  out.kind = static_cast<PageKind>(kind_raw);
  out.payload.assign(page.begin() + kPageHeaderSize, page.begin() + kPageHeaderSize + len);
  return out;
}

std::vector<std::uint8_t> Pager::read_expect(std::uint64_t id, PageKind expected) {
  Page page = read(id);
  if (page.kind != expected) {
    throw StoreError("pager: page " + std::to_string(id) + " has kind " +
                     std::to_string(static_cast<std::uint32_t>(page.kind)) + ", expected " +
                     std::to_string(static_cast<std::uint32_t>(expected)));
  }
  return std::move(page.payload);
}

}  // namespace quickdrop::store
