#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/serialize_io.h"

namespace slide {
namespace {

NetworkConfig sample_config(Precision precision = Precision::Fp32) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 6;
  lsh.min_active = 16;
  NetworkConfig cfg = make_slide_mlp(40, 10, 50, lsh, precision, 777);
  return cfg;
}

data::SparseVectorView sample_input() {
  static const std::uint32_t idx[] = {1, 17, 39};
  static const float val[] = {1.0f, -2.0f, 0.5f};
  return {idx, val, 3};
}

TEST(Serialize, RoundTripPreservesWeightsAndConfig) {
  Network net(sample_config());
  // Perturb state so we are not just round-tripping the initializer.
  Workspace ws = net.make_workspace();
  const std::uint32_t labels[] = {7};
  for (int i = 0; i < 5; ++i) {
    net.forward(sample_input(), labels, ws, true);
    net.backward(sample_input(), labels, ws);
    net.adam_step({}, nullptr);
  }

  std::stringstream buffer;
  save_network(net, buffer);
  Network back = load_network(buffer);

  EXPECT_EQ(back.config().input_dim, 40u);
  EXPECT_EQ(back.config().layers.size(), 2u);
  EXPECT_EQ(back.config().layers[1].lsh.kind, HashKind::Dwta);
  EXPECT_EQ(back.adam_steps(), 5u);

  for (std::size_t li = 0; li < 2; ++li) {
    const auto a = net.layer(li).weights_f32();
    const auto b = back.layer(li).weights_f32();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << li << ":" << i;
    const auto ba = net.layer(li).biases();
    const auto bb = back.layer(li).biases();
    for (std::size_t i = 0; i < ba.size(); ++i) ASSERT_EQ(ba[i], bb[i]);
    const auto m1a = net.layer(li).moment1();
    const auto m1b = back.layer(li).moment1();
    for (std::size_t i = 0; i < m1a.size(); ++i) ASSERT_EQ(m1a[i], m1b[i]);
  }
}

TEST(Serialize, RoundTripPreservesPredictions) {
  Network net(sample_config());
  std::stringstream buffer;
  save_network(net, buffer);
  Network back = load_network(buffer);
  Workspace wa = net.make_workspace();
  Workspace wb = back.make_workspace();
  std::vector<std::uint32_t> ta, tb;
  net.predict_topk(sample_input(), 1, wa, ta);
  back.predict_topk(sample_input(), 1, wb, tb);
  EXPECT_EQ(ta, tb);
}

TEST(Serialize, Bf16ActivationsNetworkRoundTrips) {
  // Bf16Activations keeps fp32 weights (only activations are narrowed), so
  // the round trip must preserve the fp32 arena bit-exactly and reproduce
  // the same predictions.
  Network net(sample_config(Precision::Bf16Activations));
  std::stringstream buffer;
  save_network(net, buffer);
  Network back = load_network(buffer);
  EXPECT_EQ(back.precision(), Precision::Bf16Activations);
  for (std::size_t li = 0; li < 2; ++li) {
    const auto a = net.layer(li).weights_f32();
    const auto b = back.layer(li).weights_f32();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << li << ":" << i;
  }
  Workspace wa = net.make_workspace();
  Workspace wb = back.make_workspace();
  std::vector<std::uint32_t> ta, tb;
  net.predict_topk(sample_input(), 1, wa, ta);
  back.predict_topk(sample_input(), 1, wb, tb);
  EXPECT_EQ(ta, tb);
}

TEST(Serialize, RoundTripRebuildsIdenticalHashedLayerState) {
  // Tables are not stored; the loader rebuilds them from the restored
  // weights.  With identical weights and identical per-layer RNG streams the
  // rebuilt tables — and therefore LSH-sampled inference with a same-seeded
  // workspace — must match the source network exactly.
  Network net(sample_config());
  net.rebuild_hash_tables(nullptr);
  std::stringstream buffer;
  save_network(net, buffer);
  Network back = load_network(buffer);

  const Layer& a = net.layer(1);
  const Layer& b = back.layer(1);
  ASSERT_TRUE(a.uses_hashing());
  ASSERT_TRUE(b.uses_hashing());
  for (std::size_t t = 0; t < a.tables()->num_tables(); ++t) {
    for (std::uint32_t bucket = 0; bucket < a.tables()->bucket_range(); ++bucket) {
      const auto ba = a.tables()->bucket(t, bucket);
      const auto bb = b.tables()->bucket(t, bucket);
      ASSERT_EQ(std::vector<std::uint32_t>(ba.begin(), ba.end()),
                std::vector<std::uint32_t>(bb.begin(), bb.end()))
          << "table " << t << " bucket " << bucket;
    }
  }
  Workspace wa = net.make_workspace(42);
  Workspace wb = back.make_workspace(42);
  net.forward(sample_input(), {}, wa, /*train=*/false);
  back.forward(sample_input(), {}, wb, /*train=*/false);
  EXPECT_EQ(wa.layers.back().active, wb.layers.back().active);
  EXPECT_EQ(wa.layers.back().act, wb.layers.back().act);
}

TEST(Serialize, Bf16NetworkRoundTrips) {
  Network net(sample_config(Precision::Bf16All));
  std::stringstream buffer;
  save_network(net, buffer);
  Network back = load_network(buffer);
  const auto a = net.layer(0).weights_bf16();
  const auto b = back.layer(0).weights_bf16();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i].bits, b[i].bits);
}

TEST(Serialize, WithoutMomentsIsSmallerAndLoads) {
  Network net(sample_config());
  std::stringstream with, without;
  save_network(net, with, true);
  save_network(net, without, false);
  EXPECT_GT(with.str().size(), without.str().size());
  Network back = load_network(without);
  EXPECT_EQ(back.num_params(), net.num_params());
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream buffer("this is not a checkpoint");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedFile) {
  Network net(sample_config());
  std::stringstream buffer;
  save_network(net, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_network(truncated), std::runtime_error);
}

TEST(Serialize, RejectsWrongVersion) {
  Network net(sample_config());
  std::stringstream buffer;
  save_network(net, buffer);
  std::string bytes = buffer.str();
  bytes[4] = 99;  // version field follows the 4-byte magic
  std::stringstream bad(bytes);
  EXPECT_THROW(load_network(bad), std::runtime_error);
}

// A header declaring layers larger than the stream holds is rejected before
// Network(cfg) allocates them.  The 98-byte file is a bare header declaring
// one 65536 x 65536 layer: the loader used to build that network (16 GiB
// of weights, plus moments) and die of std::bad_alloc.  Sizes whose
// product overflows 64 bits are rejected the same way.
TEST(Serialize, RejectsLayerLargerThanStreamBeforeAllocating) {
  for (const std::uint64_t width : {std::uint64_t{1} << 16, std::uint64_t{1} << 40}) {
    std::ostringstream out;
    io::write_pod<std::uint32_t>(out, 0x534C444Eu);  // "SLDN"
    io::write_pod<std::uint32_t>(out, kCheckpointVersion);
    io::write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(Precision::Fp32));
    io::write_pod<std::uint64_t>(out, width);  // input_dim
    io::write_pod<std::uint64_t>(out, 42);     // seed
    io::write_pod<std::uint64_t>(out, 0);      // adam steps
    io::write_pod<std::uint64_t>(out, 1);      // num_layers
    LayerConfig layer;
    layer.dim = width;
    io::write_layer_config(out, layer);
    io::write_pod<std::uint8_t>(out, 1);  // has moments
    ASSERT_EQ(out.str().size(), 98u);
    std::istringstream in(out.str());
    try {
      load_network(in);
      FAIL() << "loaded a checkpoint the stream cannot hold";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("layer 0"), std::string::npos) << e.what();
    }
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Serialize, CommittedCheckpointResavesByteForByte) {
  // Written before layer 0 went feature-major: loading transposes layer 0
  // into memory and saving transposes it back, so the bytes must survive.
  const std::string path = std::string(SLIDE_TEST_FIXTURES) + "/tiny_checkpoint.sldn";
  const std::string bytes = read_bytes(path);
  ASSERT_FALSE(bytes.empty()) << path;
  std::stringstream in(bytes);
  const Network net = load_network(in);
  ASSERT_TRUE(net.layer(0).feature_major());
  std::stringstream out;
  save_network(net, out, /*include_moments=*/true);
  EXPECT_TRUE(out.str() == bytes) << "re-saved checkpoint differs from " << path;
}

TEST(Serialize, CheckpointStoresLayerZeroNeuronMajor) {
  const Network net(sample_config());
  ASSERT_TRUE(net.layer(0).feature_major());
  std::stringstream buffer;
  save_network(net, buffer, false);
  const std::string bytes = buffer.str();
  // Header (41 bytes), two layer configs, the moments flag, then layer 0's
  // weights as dim rows of input_dim.
  const std::size_t at = 41 + 2 * io::kLayerConfigWireBytes + 1;
  const Layer& L = net.layer(0);
  for (std::uint32_t n = 0; n < L.dim(); ++n) {
    for (std::size_t j = 0; j < L.input_dim(); ++j) {
      float w;
      std::memcpy(&w, bytes.data() + at + (n * L.input_dim() + j) * sizeof(float), sizeof(w));
      ASSERT_EQ(w, L.weight(n, j)) << "n=" << n << " j=" << j;
    }
  }
}

// A checkpoint whose output layer declares DWTA K = 10 over 2^20 tables
// (2^50 buckets, 16 PiB of table heads) is refused by the hash family
// before Network(cfg) allocates any table.
TEST(Serialize, RejectsLshTablesPastTheBucketBudget) {
  const Network net(sample_config());
  std::stringstream buffer;
  save_network(net, buffer, false);
  std::string bytes = buffer.str();
  // The output layer's config record follows the 41-byte header and layer
  // 0's record; its K and L are the int32s at +10 and +14.
  const std::size_t record = 41 + io::kLayerConfigWireBytes;
  const std::int32_t k = 10, l = 1 << 20;
  std::memcpy(bytes.data() + record + 10, &k, sizeof(k));
  std::memcpy(bytes.data() + record + 14, &l, sizeof(l));
  std::stringstream in(bytes);
  try {
    load_network(in);
    ADD_FAILURE() << "accepted DWTA K = 10, L = 2^20";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
  }
}

TEST(Serialize, RejectsOutOfRangeEnumBytes) {
  Network net(sample_config());
  std::stringstream buffer;
  save_network(net, buffer);
  const std::string bytes = buffer.str();
  // Offsets: the precision byte follows magic + version; layer 0's config
  // record starts at 41 (activation +8, hash kind +9, bucket policy +22,
  // maintenance +55).
  const struct {
    std::size_t offset;
    char value;
  } cases[] = {{8, 3},        // Int8: serving-only, never a training precision
               {8, 9},        // no such precision
               {41 + 8, 3},   // activation
               {41 + 9, 3},   // hash kind
               {41 + 22, 2},  // bucket policy
               {41 + 55, 2}};  // maintenance
  for (const auto& c : cases) {
    std::string mutated = bytes;
    mutated[c.offset] = c.value;
    std::stringstream in(mutated);
    try {
      load_network(in);
      ADD_FAILURE() << "accepted byte " << int(c.value) << " at offset " << c.offset;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid"), std::string::npos) << e.what();
    }
  }
}

TEST(Serialize, FileRoundTrip) {
  Network net(sample_config());
  const std::string path = ::testing::TempDir() + "/slide_ckpt.bin";
  save_network_file(net, path);
  Network back = load_network_file(path);
  EXPECT_EQ(back.num_params(), net.num_params());
  EXPECT_THROW(load_network_file("/nonexistent/ckpt.bin"), std::runtime_error);
}

}  // namespace
}  // namespace slide
