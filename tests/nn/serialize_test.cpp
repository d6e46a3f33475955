#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "../test_util.h"
#include "nn/layers/batchnorm.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/flatten.h"
#include "nn/layers/relu.h"
#include "nn/layers/residual.h"

namespace qsnc::nn {
namespace {

using test::randomize;

Network make_net(Rng& rng) {
  Network net;
  net.emplace<Conv2d>(1, 3, 3, 1, 1, rng);
  net.emplace<BatchNorm2d>(3);
  net.emplace<ReLU>();
  net.emplace<ResidualBlock>(3, 3, 1, rng);
  net.emplace<Flatten>();
  net.emplace<Dense>(3 * 4 * 4, 2, rng);
  return net;
}

TEST(SerializeTest, SnapshotRestoreRoundTrip) {
  Rng rng(50);
  Network net = make_net(rng);

  // Run a training forward so BN builds running stats.
  Tensor x({4, 1, 4, 4});
  randomize(x, rng);
  net.forward(x, true);

  const NetworkState state = snapshot(net);
  const Tensor before = net.forward(x, false);

  // Clobber the parameters, then restore.
  for (Param* p : net.params()) p->value.fill(0.123f);
  const Tensor clobbered = net.forward(x, false);
  EXPECT_FALSE(clobbered.allclose(before));

  restore(net, state);
  const Tensor after = net.forward(x, false);
  EXPECT_TRUE(after.allclose(before));
}

TEST(SerializeTest, RestoreCoversBatchNormRunningStats) {
  Rng rng(51);
  Network net;
  auto& bn = net.emplace<BatchNorm2d>(2);
  Tensor x({4, 2, 2, 2});
  randomize(x, rng, 1.0f, 3.0f);
  net.forward(x, true);
  const NetworkState state = snapshot(net);
  const float mean_before = bn.running_mean()[0];

  // More training shifts running stats.
  Tensor x2({4, 2, 2, 2});
  randomize(x2, rng, -9.0f, -5.0f);
  for (int i = 0; i < 10; ++i) net.forward(x2, true);
  EXPECT_NE(bn.running_mean()[0], mean_before);

  restore(net, state);
  EXPECT_EQ(bn.running_mean()[0], mean_before);
}

TEST(SerializeTest, RestoreShapeMismatchThrows) {
  Rng rng(52);
  Network a = make_net(rng);
  Network small;
  small.emplace<Dense>(2, 2, rng);
  const NetworkState state = snapshot(a);
  EXPECT_THROW(restore(small, state), std::invalid_argument);
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(53);
  Network net = make_net(rng);
  Tensor x({2, 1, 4, 4});
  randomize(x, rng);
  net.forward(x, true);
  const Tensor before = net.forward(x, false);

  const std::string path =
      (std::filesystem::temp_directory_path() / "qsnc_serialize_test.bin")
          .string();
  save_state(net, path);

  Rng rng2(53);
  Network net2 = make_net(rng2);
  for (Param* p : net2.params()) p->value.fill(0.0f);
  load_state(net2, path);
  const Tensor after = net2.forward(x, false);
  EXPECT_TRUE(after.allclose(before));
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileThrows) {
  Rng rng(54);
  Network net = make_net(rng);
  EXPECT_THROW(load_state(net, "/nonexistent/qsnc.bin"), std::runtime_error);
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SerializeTest, BitFlippedCheckpointFailsChecksum) {
  Rng rng(56);
  Network net = make_net(rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "qsnc_bitflip.bin").string();
  save_state(net, path);

  const std::vector<char> good = read_file(path);
  // Flip one bit in every region past the 12-byte header (count, dims,
  // tensor data): each corruption must be caught by the checksum, with
  // an error message that names the cause.
  for (size_t pos : {size_t{12}, size_t{20}, good.size() / 2,
                     good.size() - 1}) {
    std::vector<char> bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    write_file(path, bad);
    try {
      load_state(net, path);
      FAIL() << "bit flip at " << pos << " not detected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedCheckpointThrows) {
  Rng rng(57);
  Network net = make_net(rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "qsnc_truncated.bin")
          .string();
  save_state(net, path);

  const std::vector<char> good = read_file(path);
  // Cut inside the header, inside the dims, and inside the tensor data:
  // all must throw cleanly, never read past the end.
  for (size_t cut : {size_t{2}, size_t{6}, size_t{13}, size_t{25},
                     good.size() - 4}) {
    write_file(path, std::vector<char>(good.begin(),
                                       good.begin() +
                                           static_cast<ptrdiff_t>(cut)));
    EXPECT_THROW(load_state(net, path), std::runtime_error)
        << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, V1CheckpointIsRejectedByBothReaders) {
  // Version 1 (magic | version=1 | payload) carried no checksum. Both the
  // file reader and the in-memory reader must refuse it, so no image can
  // skip the CRC by claiming the old version.
  Rng rng(58);
  Network net = make_net(rng);
  // A v2 image minus its CRC field, tagged version 1: the v1 layout.
  std::vector<uint8_t> v1 = save_state_bytes(net);
  v1.erase(v1.begin() + 8, v1.begin() + 12);
  v1[4] = 1;

  const std::string path =
      (std::filesystem::temp_directory_path() / "qsnc_legacy_v1.bin")
          .string();
  write_file(path, std::vector<char>(v1.begin(), v1.end()));
  for (Param* p : net.params()) p->value.fill(0.5f);
  const NetworkState untouched = snapshot(net);
  const auto expect_rejected = [&](const std::function<void()>& load,
                                   const char* reader) {
    try {
      load();
      FAIL() << reader << " accepted a v1 checkpoint";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
                std::string::npos)
          << reader << ": " << e.what();
    }
    // Rejected before any tensor was restored.
    const NetworkState after = snapshot(net);
    for (size_t i = 0; i < after.tensors.size(); ++i) {
      EXPECT_TRUE(after.tensors[i].allclose(untouched.tensors[i])) << reader;
    }
  };
  expect_rejected([&] { load_state(net, path); }, "load_state");
  expect_rejected([&] { load_state_bytes(net, v1, "v1 image"); },
                  "load_state_bytes");
  std::remove(path.c_str());
}

TEST(SerializeTest, UnsupportedVersionThrows) {
  Rng rng(59);
  Network net = make_net(rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "qsnc_future_version.bin")
          .string();
  save_state(net, path);
  std::vector<char> bytes = read_file(path);
  bytes[4] = 99;  // version field right after the magic
  write_file(path, bytes);
  try {
    load_state(net, path);
    FAIL() << "future version not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadCorruptMagicThrows) {
  Rng rng(55);
  Network net = make_net(rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "qsnc_corrupt.bin").string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a qsnc file";
  }
  EXPECT_THROW(load_state(net, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qsnc::nn
