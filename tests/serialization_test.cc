// Failure-path tests for the RLGW weight wire format behind
// Agent::export_weights() / import_weights(): truncated payloads, wrong
// magic/version, corrupt metadata and architecture mismatches must all throw
// SerializationError — never crash, never half-apply.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "agents/dqn_agent.h"
#include "util/random.h"
#include "util/serialization.h"

namespace rlgraph {
namespace {

Json small_dqn_config() {
  return Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 8, "activation": "relu"}],
    "memory": {"type": "replay", "capacity": 64},
    "optimizer": {"type": "adam", "learning_rate": 0.001},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 100},
    "update": {"batch_size": 8, "sync_interval": 25, "min_records": 16},
    "discount": 0.95
  })");
}

std::unique_ptr<DQNAgent> make_built_agent(int64_t obs_dim = 4,
                                           int64_t actions = 3) {
  auto agent = std::make_unique<DQNAgent>(
      small_dqn_config(), FloatBox(Shape{obs_dim}), IntBox(actions));
  agent->build();
  return agent;
}

// Patch little-endian u32 at a byte offset.
void poke_u32(std::vector<uint8_t>& bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[offset + i] = (v >> (8 * i)) & 0xFF;
}

TEST(WeightSnapshotTest, TruncatedPayloadThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  ASSERT_GT(bytes.size(), 16u);
  // Cut at many depths: inside the header, inside a name, inside tensor
  // data. Every cut must surface as SerializationError.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{7}, size_t{11},
                      size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(deserialize_weights(cut), SerializationError)
        << "cut at " << keep << " bytes";
    EXPECT_THROW(agent->import_weights(cut), SerializationError)
        << "cut at " << keep << " bytes";
  }
}

TEST(WeightSnapshotTest, WrongMagicThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  poke_u32(bytes, 0, 0xDEADBEEF);
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
  EXPECT_THROW(agent->import_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, UnsupportedVersionThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  poke_u32(bytes, 4, 999);  // version field follows the magic
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, InflatedCountReadsAsTruncation) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  uint32_t count = static_cast<uint32_t>(agent->get_weights().size());
  poke_u32(bytes, 8, count + 5);  // claim more entries than the payload has
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, DeflatedCountReadsAsTrailingGarbage) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  uint32_t count = static_cast<uint32_t>(agent->get_weights().size());
  ASSERT_GT(count, 1u);
  poke_u32(bytes, 8, count - 1);  // leftover bytes after the declared entries
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, InvalidDtypeTagThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  // First entry: magic(4) + version(4) + count(4) + name_len(4) + name.
  uint32_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + 12, sizeof(name_len));
  bytes[16 + name_len] = 0xFF;  // dtype tag
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, ArchitectureMismatchThrowsBeforeMutation) {
  auto source = make_built_agent(4, 3);
  std::vector<uint8_t> bytes = source->export_weights();

  // A structurally different agent: same wire format, different variables.
  DQNAgent other(small_dqn_config(), FloatBox(Shape{6}), IntBox(5));
  other.build();
  auto before = other.get_weights();
  EXPECT_THROW(other.import_weights(bytes), SerializationError);
  // The failed import must not have touched any variable.
  auto after = other.get_weights();
  ASSERT_EQ(before.size(), after.size());
  for (const auto& [name, tensor] : before) {
    EXPECT_TRUE(after[name].equals(tensor)) << name;
  }
}

TEST(WeightSnapshotTest, SubsetSnapshotThrowsCountMismatch) {
  auto agent = make_built_agent();
  // A prefix export covers only part of the variable set; importing it as a
  // full snapshot must be rejected, not silently partially applied.
  std::vector<uint8_t> subset = agent->export_weights("agent/policy");
  ASSERT_LT(deserialize_weights(subset).size(), agent->get_weights().size());
  EXPECT_THROW(agent->import_weights(subset), SerializationError);
}

TEST(WeightSnapshotTest, IntactSnapshotStillRoundTrips) {
  auto source = make_built_agent();
  std::vector<uint8_t> bytes = source->export_weights();
  Json cfg = small_dqn_config();
  cfg["seed"] = Json(static_cast<int64_t>(777));
  DQNAgent restored(cfg, FloatBox(Shape{4}), IntBox(3));
  restored.build();
  restored.import_weights(bytes);
  auto want = source->get_weights();
  auto got = restored.get_weights();
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [name, tensor] : want) {
    EXPECT_TRUE(got[name].equals(tensor)) << name;
  }
}

}  // namespace
}  // namespace rlgraph
