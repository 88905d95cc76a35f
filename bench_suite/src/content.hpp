// Seed-derived inputs. The stack under test only ever sees these generated
// payloads; receivers regenerate the same content from the seed and the
// sequence number carried in-band, so every delivery is verified exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "viz/image.hpp"
#include "viz/remote.hpp"

namespace cs::bench {

/// Sample payload: [seq][stamp_ns][steer] as native-order u64s, then filler
/// bytes derived from (seed, seq). `stamp_ns` is the intended send time.
struct SampleFields {
  std::uint64_t seq = 0;
  std::uint64_t stamp_ns = 0;
  std::uint64_t steer = 0;
};
constexpr std::size_t kSampleHeaderBytes = 3 * sizeof(std::uint64_t);

void write_sample(std::uint64_t seed, const SampleFields& fields,
                  std::span<std::uint8_t> out);
SampleFields read_sample(common::ByteSpan payload);
/// True when the filler after the header is exactly what `seed` and the
/// payload's seq generate.
bool sample_filler_ok(std::uint64_t seed, common::ByteSpan payload);

/// Media frames: kMediaSide x kMediaSide pixels of seeded colour cells,
/// 8 x 4 pixels each (so RLE has work but real runs), with the sequence
/// number stamped into the first three pixels.
constexpr int kMediaSide = 64;
viz::Image media_frame(std::uint64_t seed, std::uint64_t seq);
std::uint64_t media_seq(const viz::Image& frame);

/// The remote-rendering scene: seeded wireframe boxes and diamond glyphs.
std::shared_ptr<viz::SceneStore> make_scene(std::uint64_t seed);

/// Independent generator stream `index` of `seed` (per client/thread).
common::Rng stream(std::uint64_t seed, std::uint64_t index);

}  // namespace cs::bench
