#include "content.hpp"

#include <cstring>
#include <vector>

#include "viz/render.hpp"

namespace cs::bench {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

void fill_from(std::uint64_t state, std::span<std::uint8_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t word = common::splitmix64(state);
    const std::size_t n = std::min<std::size_t>(8, out.size() - i);
    std::memcpy(out.data() + i, &word, n);
    i += n;
  }
}

std::uint64_t filler_state(std::uint64_t seed, std::uint64_t seq) {
  return seed ^ (seq * kGolden);
}

}  // namespace

void write_sample(std::uint64_t seed, const SampleFields& fields,
                  std::span<std::uint8_t> out) {
  std::memcpy(out.data(), &fields.seq, 8);
  std::memcpy(out.data() + 8, &fields.stamp_ns, 8);
  std::memcpy(out.data() + 16, &fields.steer, 8);
  fill_from(filler_state(seed, fields.seq), out.subspan(kSampleHeaderBytes));
}

SampleFields read_sample(common::ByteSpan payload) {
  SampleFields f;
  if (payload.size() < kSampleHeaderBytes) return f;
  std::memcpy(&f.seq, payload.data(), 8);
  std::memcpy(&f.stamp_ns, payload.data() + 8, 8);
  std::memcpy(&f.steer, payload.data() + 16, 8);
  return f;
}

bool sample_filler_ok(std::uint64_t seed, common::ByteSpan payload) {
  if (payload.size() < kSampleHeaderBytes) return false;
  const auto filler = payload.subspan(kSampleHeaderBytes);
  std::vector<std::uint8_t> expected(filler.size());
  fill_from(filler_state(seed, read_sample(payload).seq), expected);
  return std::memcmp(expected.data(), filler.data(), filler.size()) == 0;
}

viz::Image media_frame(std::uint64_t seed, std::uint64_t seq) {
  // The cell shape is fixed so that every seed costs the codec the same:
  // the seed picks the colours, not the amount of work.
  constexpr int cell_w = 8;
  constexpr int cell_h = 4;
  constexpr int cols = (kMediaSide + cell_w - 1) / cell_w;
  constexpr int rows = (kMediaSide + cell_h - 1) / cell_h;
  std::vector<viz::Color> palette(static_cast<std::size_t>(cols * rows));
  std::uint64_t state = filler_state(seed, seq);
  for (auto& c : palette) {
    const std::uint64_t v = common::splitmix64(state);
    c = viz::Color{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                   static_cast<std::uint8_t>(v >> 16)};
  }
  viz::Image frame(kMediaSide, kMediaSide);
  for (int y = 0; y < kMediaSide; ++y) {
    for (int x = 0; x < kMediaSide; ++x) {
      frame.at(x, y) = palette[static_cast<std::size_t>((y / cell_h) * cols +
                                                        x / cell_w)];
    }
  }
  // The RLE codec is lossless, so the stamp survives compress -> decode.
  std::uint8_t bytes[9] = {};
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  auto& px = frame.pixels();
  for (int p = 0; p < 3; ++p) {
    px[p] = viz::Color{bytes[3 * p], bytes[3 * p + 1], bytes[3 * p + 2]};
  }
  return frame;
}

std::uint64_t media_seq(const viz::Image& frame) {
  if (frame.pixels().size() < 3) return 0;
  std::uint64_t seq = 0;
  std::uint8_t bytes[9];
  for (int p = 0; p < 3; ++p) {
    bytes[3 * p] = frame.pixels()[p].r;
    bytes[3 * p + 1] = frame.pixels()[p].g;
    bytes[3 * p + 2] = frame.pixels()[p].b;
  }
  for (int i = 0; i < 8; ++i) seq = (seq << 8) | bytes[i];
  return seq;
}

std::shared_ptr<viz::SceneStore> make_scene(std::uint64_t seed) {
  // The geometry is the same for every seed, because how many pixels it
  // covers sets the render and codec work (and the peak buffer sizes); the
  // seed picks the colours.
  common::Rng rng = stream(0, 0x5ce7e);
  common::Rng colours = stream(seed, 0x5ce7e);
  std::vector<std::pair<common::Vec3, common::Vec3>> boxes;
  for (int i = 0; i < 8; ++i) {
    const common::Vec3 c{rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                         rng.uniform(-1.5, 1.5)};
    const double h = rng.uniform(0.1, 0.6);
    boxes.emplace_back(common::Vec3{c.x - h, c.y - h, c.z - h},
                       common::Vec3{c.x + h, c.y + h, c.z + h});
  }
  std::vector<viz::ParticleSprite> particles(300);
  for (auto& p : particles) {
    p.position = {rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                  rng.uniform(-1.5, 1.5)};
    const std::uint64_t v = colours.next_u64();
    p.color = viz::Color{static_cast<std::uint8_t>(v),
                         static_cast<std::uint8_t>(v >> 8),
                         static_cast<std::uint8_t>(v >> 16)};
  }
  auto scene = std::make_shared<viz::SceneStore>();
  scene->set_boxes(std::move(boxes), viz::Color{200, 200, 90});
  scene->set_particles(std::move(particles), viz::GlyphStyle::kDiamond);
  return scene;
}

common::Rng stream(std::uint64_t seed, std::uint64_t index) {
  return common::Rng(seed ^ (kGolden * (index + 1)));
}

}  // namespace cs::bench
