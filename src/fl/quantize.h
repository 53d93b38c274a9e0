// Quantized client-update transport.
//
// Clients ship the *delta* between their local state and the round's global
// state, quantized per fixed-size block, instead of the raw fp32 state. The
// server decodes the delta block by block, reconstructs `global + delta`, and
// folds it into the shard tree's double accumulator (fl/shard_tree.h) —
// quantization error enters exactly once, at the client→server boundary.
//
// Wire framing (little-endian, rides the v2 state format's conventions):
//   u64 magic ("QDWQ" v1)
//   u64 layout hash   — decode is gated on the receiver's StateLayout hash
//   u8  codec         — Codec enum value
//   u64 total numel   — must equal layout->total()
//   then ceil(numel / kQuantBlock) blocks, each: u8 tag + payload
//     tag 0 kZeroBlock: no payload (every value is 0.0f)
//     tag 1 kInt8Block: f32 scale, then one int8 per element
//                       (value = (float)q * scale, scale = amax / 127)
//     tag 2 kRawBlock:  one f32 per element — used for blocks containing
//                       non-finite values, so corrupted uploads survive the
//                       trip bit-exactly and server-side validation still
//                       quarantines them (and float→int8 conversion of
//                       NaN/Inf, which is UB, never happens)
//     tag 3 kBf16Block: one bf16 (round-to-nearest-even) per element
//
// Everything is deterministic: block boundaries depend only on the element
// count, int8 rounding uses std::lround (half-away-from-zero, independent of
// the runtime rounding mode), and encode/decode never consult the thread
// pool. Encoding the same delta always yields the same bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "nn/state.h"

namespace quickdrop::fl {

/// Update-transport codec. kNone ships raw fp32 states (the pre-quantization
/// behavior); kInt8 ships ~25% of the fp32 bytes, kBf16 ~50%.
enum class Codec : std::uint8_t { kNone = 0, kInt8 = 1, kBf16 = 2 };

/// Client→server transport configuration, threaded from QuickDropConfig
/// through ResilientConfig into the round engine.
struct TransportConfig {
  Codec codec = Codec::kNone;
};

/// "off", "int8" or "bf16" (the --quantize-updates flag vocabulary); throws
/// std::invalid_argument on anything else.
Codec codec_from_string(const std::string& name);
const char* codec_name(Codec codec);

/// Elements per quantization block (each block carries its own tag + scale).
inline constexpr std::int64_t kQuantBlock = 4096;

/// Encodes a client's update delta under `codec`. The delta must be
/// non-empty; kNone is rejected (callers ship the raw state instead).
std::vector<std::uint8_t> encode_delta(const nn::ModelState& delta, Codec codec);

/// Decodes a wire-framed delta against the receiver's layout. Throws
/// nn::StateError on magic/hash/numel mismatch, unknown tags, truncation or
/// trailing bytes — never returns partial state.
nn::ModelState decode_delta(std::span<const std::uint8_t> bytes,
                            const std::shared_ptr<const nn::StateLayout>& layout);

/// Streaming decode: validates the frame exactly like decode_delta, but hands
/// each decoded block to `block_fn(lo, len, values)` (kQuantBlock granularity,
/// in offset order) instead of materializing a whole fp32 state — the shard
/// tree's decode-into-accumulator path runs on O(kQuantBlock) scratch.
/// Zero blocks are delivered as explicit zeros, so reconstructing
/// `global + delta` block by block is bit-identical to axpy over a
/// materialized decode. Frame errors may throw mid-stream, after some blocks
/// were already delivered — callers must treat a throw as "discard the fold".
using DeltaBlockFn = std::function<void(std::int64_t lo, std::int64_t len, const float* values)>;
void decode_delta_blocks(std::span<const std::uint8_t> bytes,
                         const std::shared_ptr<const nn::StateLayout>& layout,
                         const DeltaBlockFn& block_fn);

}  // namespace quickdrop::fl
