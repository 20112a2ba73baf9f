// Wire framing for the socket fabric.
//
// A frame is one Message (or one control record) serialized for a byte
// stream: a fixed 16-byte prolog — magic, payload length, version, kind —
// followed by the payload and a trailing FNV-1a checksum of the payload.
// All integers are little-endian fixed-width; doubles travel as their
// IEEE-754 bit patterns.
//
//   offset  field
//   0       u32 magic   'SIAF' (0x46414953)
//   4       u32 length  payload bytes (excludes prolog and checksum)
//   8       u16 version (kFrameVersion)
//   10      u16 kind    (FrameKind)
//   12      u32 reserved (0)
//   16      payload[length]
//   16+len  u64 checksum (FNV-1a over payload)
//
// Message payload layout: i32 dst, src, tag; u64 seq, ack; u32 header
// count, data count, block flag, block rank; i32 extents[rank]; i64
// header[]; f64 data[]; f64 block elements[]. The block payload is the
// zero-copy downgrade point: a BlockPtr that rode a pointer between
// threads is serialized exactly once here, and the receiver materializes
// a fresh heap block — single-copy framing, counted by the fabric.
//
// The decoder never trusts the peer: a wrong magic or version, an
// oversized length, a payload that does not parse to exactly `length`
// bytes, or a checksum mismatch yields DecodeStatus != kOk and the caller
// quarantines the connection instead of delivering garbage to a mailbox.
// A clean EOF mid-frame is "truncated" — the reconnect path treats it as
// a dropped connection, and the reliable layer's retransmit makes the
// lost tail exactly-once on reattach.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "msg/message.hpp"

namespace sia::msg {

inline constexpr std::uint32_t kFrameMagic = 0x46414953u;  // 'SIAF'
inline constexpr std::uint16_t kFrameVersion = 1;
// Upper bound on a sane payload: rejects garbage lengths before any
// allocation. 1 GiB covers any block the runtime can represent.
inline constexpr std::uint32_t kFrameMaxPayload = 1u << 30;
inline constexpr std::size_t kFramePrologBytes = 16;
inline constexpr std::size_t kFrameChecksumBytes = 8;

enum class FrameKind : std::uint16_t {
  kMessage = 0,  // one fabric Message
  kHello = 1,    // spoke -> hub: payload = i32 rank (registration)
};

struct FrameProlog {
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  std::uint16_t version = 0;
  FrameKind kind = FrameKind::kMessage;
};

enum class DecodeStatus {
  kOk,
  kBadMagic,
  kBadVersion,
  kBadLength,    // length exceeds kFrameMaxPayload
  kBadChecksum,
  kMalformed,    // payload structure inconsistent with its length
};

const char* decode_status_name(DecodeStatus status);

// The frame checksum (64-bit FNV-1a) of `count` bytes: the codec appends
// it to every frame and checks it on decode; the socket hub checks it
// again before forwarding a transit frame.
std::uint64_t frame_checksum(const std::uint8_t* bytes, std::size_t count);

// Encodes `message` destined for `dst` as a complete frame (prolog +
// payload + checksum), appending to `out`. The block payload, if any, is
// serialized into the frame; `message` itself is not modified.
void encode_message_frame(const Message& message, int dst,
                          std::vector<std::uint8_t>& out);

// Encodes a hello/registration frame announcing `rank`.
void encode_hello_frame(int rank, std::vector<std::uint8_t>& out);

// Parses the 16-byte prolog. Returns kOk, kBadMagic, kBadVersion, or
// kBadLength; on kOk the caller reads prolog.length + 8 more bytes.
DecodeStatus decode_prolog(const std::uint8_t* bytes, FrameProlog* prolog);

struct DecodedFrame {
  FrameKind kind = FrameKind::kMessage;
  int dst = -1;       // kMessage: destination rank
  Message message;    // kMessage
  int hello_rank = -1;  // kHello
};

// Decodes payload + checksum of a frame whose prolog already passed.
// `body` must hold exactly prolog.length + kFrameChecksumBytes bytes.
DecodeStatus decode_frame_body(const FrameProlog& prolog,
                               const std::uint8_t* body,
                               DecodedFrame* out);

// The source rank a message frame's body names, read without checking
// the body (to name the sender of a rejected frame); -1 if it has none.
int frame_source(const FrameProlog& prolog, const std::uint8_t* body);

// Convenience for tests: encode/decode a whole frame held in one buffer.
DecodeStatus decode_frame(const std::vector<std::uint8_t>& bytes,
                          DecodedFrame* out);

}  // namespace sia::msg
