#include "msg/frame.hpp"

#include <array>
#include <cstring>

namespace sia::msg {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::uint8_t* bytes, std::size_t count) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < count; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

// Little-endian scalar append/read. The runtime only targets
// little-endian hosts (x86/arm64); memcpy keeps it alignment-safe.
template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
bool get(const std::uint8_t* bytes, std::size_t size, std::size_t* cursor,
         T* value) {
  if (*cursor + sizeof(T) > size) return false;
  std::memcpy(value, bytes + *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

void put_prolog(std::vector<std::uint8_t>& out, FrameKind kind,
                std::uint32_t length) {
  put<std::uint32_t>(out, kFrameMagic);
  put<std::uint32_t>(out, length);
  put<std::uint16_t>(out, kFrameVersion);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(kind));
  put<std::uint32_t>(out, 0);  // reserved
}

}  // namespace

const char* decode_status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kBadMagic: return "bad magic";
    case DecodeStatus::kBadVersion: return "bad version";
    case DecodeStatus::kBadLength: return "bad length";
    case DecodeStatus::kBadChecksum: return "bad checksum";
    case DecodeStatus::kMalformed: return "malformed payload";
  }
  return "unknown";
}

void encode_message_frame(const Message& message, int dst,
                          std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  put_prolog(out, FrameKind::kMessage, 0);  // length patched below
  const std::size_t payload_start = out.size();

  put<std::int32_t>(out, dst);
  put<std::int32_t>(out, message.src);
  put<std::int32_t>(out, message.tag);
  put<std::uint64_t>(out, message.seq);
  put<std::uint64_t>(out, message.ack);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(message.header.size()));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(message.data.size()));
  put<std::uint32_t>(out, message.block ? 1u : 0u);
  const int rank = message.block ? message.block->shape().rank() : 0;
  put<std::uint32_t>(out, static_cast<std::uint32_t>(rank));
  for (int d = 0; d < rank; ++d) {
    put<std::int32_t>(out, message.block->shape().extent(d));
  }
  for (const std::int64_t word : message.header) {
    put<std::int64_t>(out, word);
  }
  auto put_doubles = [&out](const double* values, std::size_t count) {
    if (count == 0) return;  // an empty vector's data() may be null
    const std::size_t at = out.size();
    out.resize(at + count * sizeof(double));
    std::memcpy(out.data() + at, values, count * sizeof(double));
  };
  put_doubles(message.data.data(), message.data.size());
  if (message.block) {
    // The zero-copy downgrade: the one place the block body is copied.
    put_doubles(message.block->data().data(), message.block->size());
  }

  const std::uint32_t length =
      static_cast<std::uint32_t>(out.size() - payload_start);
  std::memcpy(out.data() + frame_start + 4, &length, sizeof(length));
  put<std::uint64_t>(out, fnv1a(out.data() + payload_start, length));
}

void encode_hello_frame(int rank, std::vector<std::uint8_t>& out) {
  put_prolog(out, FrameKind::kHello, sizeof(std::int32_t));
  const std::size_t payload_start = out.size();
  put<std::int32_t>(out, rank);
  put<std::uint64_t>(
      out, fnv1a(out.data() + payload_start, sizeof(std::int32_t)));
}

DecodeStatus decode_prolog(const std::uint8_t* bytes, FrameProlog* prolog) {
  std::size_t cursor = 0;
  std::uint16_t kind = 0;
  std::uint32_t reserved = 0;
  get(bytes, kFramePrologBytes, &cursor, &prolog->magic);
  get(bytes, kFramePrologBytes, &cursor, &prolog->length);
  get(bytes, kFramePrologBytes, &cursor, &prolog->version);
  get(bytes, kFramePrologBytes, &cursor, &kind);
  get(bytes, kFramePrologBytes, &cursor, &reserved);
  prolog->kind = static_cast<FrameKind>(kind);
  if (prolog->magic != kFrameMagic) return DecodeStatus::kBadMagic;
  if (prolog->version != kFrameVersion) return DecodeStatus::kBadVersion;
  if (prolog->length > kFrameMaxPayload) return DecodeStatus::kBadLength;
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame_body(const FrameProlog& prolog,
                               const std::uint8_t* body,
                               DecodedFrame* out) {
  const std::size_t length = prolog.length;
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, body + length, sizeof(stored_checksum));
  if (fnv1a(body, length) != stored_checksum) {
    return DecodeStatus::kBadChecksum;
  }

  out->kind = prolog.kind;
  std::size_t cursor = 0;
  if (prolog.kind == FrameKind::kHello) {
    std::int32_t rank = -1;
    if (!get(body, length, &cursor, &rank) || cursor != length) {
      return DecodeStatus::kMalformed;
    }
    out->hello_rank = rank;
    return DecodeStatus::kOk;
  }
  if (prolog.kind != FrameKind::kMessage) return DecodeStatus::kMalformed;

  std::int32_t dst = -1, src = -1, tag = 0;
  std::uint32_t header_count = 0, data_count = 0, has_block = 0,
                block_rank = 0;
  Message& message = out->message;
  if (!get(body, length, &cursor, &dst) ||
      !get(body, length, &cursor, &src) ||
      !get(body, length, &cursor, &tag) ||
      !get(body, length, &cursor, &message.seq) ||
      !get(body, length, &cursor, &message.ack) ||
      !get(body, length, &cursor, &header_count) ||
      !get(body, length, &cursor, &data_count) ||
      !get(body, length, &cursor, &has_block) ||
      !get(body, length, &cursor, &block_rank)) {
    return DecodeStatus::kMalformed;
  }
  if (has_block > 1 || block_rank > blas::kMaxRank) {
    return DecodeStatus::kMalformed;
  }
  std::array<int, blas::kMaxRank> extents{};
  std::size_t block_elements = has_block ? 1 : 0;
  for (std::uint32_t d = 0; d < block_rank; ++d) {
    std::int32_t extent = 0;
    if (!get(body, length, &cursor, &extent) || extent <= 0) {
      return DecodeStatus::kMalformed;
    }
    extents[d] = extent;
    block_elements *= static_cast<std::size_t>(extent);
  }
  // Validate the remaining size arithmetic before allocating anything.
  const std::size_t want = cursor + header_count * sizeof(std::int64_t) +
                           (data_count + block_elements) * sizeof(double);
  if (want != length) return DecodeStatus::kMalformed;

  out->dst = dst;
  message.src = src;
  message.tag = tag;
  message.header.resize(header_count);
  for (std::uint32_t i = 0; i < header_count; ++i) {
    get(body, length, &cursor, &message.header[i]);
  }
  message.data.resize(data_count);
  if (data_count > 0) {
    std::memcpy(message.data.data(), body + cursor,
                data_count * sizeof(double));
    cursor += data_count * sizeof(double);
  }
  if (has_block) {
    BlockShape shape(
        std::span<const int>(extents.data(), block_rank));
    auto block = std::make_shared<Block>(shape);
    std::memcpy(block->data().data(), body + cursor,
                block_elements * sizeof(double));
    cursor += block_elements * sizeof(double);
    message.block = std::move(block);
  } else {
    message.block.reset();
  }
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame(const std::vector<std::uint8_t>& bytes,
                          DecodedFrame* out) {
  if (bytes.size() < kFramePrologBytes) return DecodeStatus::kMalformed;
  FrameProlog prolog;
  const DecodeStatus status = decode_prolog(bytes.data(), &prolog);
  if (status != DecodeStatus::kOk) return status;
  if (bytes.size() !=
      kFramePrologBytes + prolog.length + kFrameChecksumBytes) {
    return DecodeStatus::kMalformed;
  }
  return decode_frame_body(prolog, bytes.data() + kFramePrologBytes, out);
}

}  // namespace sia::msg
