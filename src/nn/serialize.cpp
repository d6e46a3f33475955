#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "nn/layers/batchnorm.h"
#include "util/crc32.h"

namespace qsnc::nn {

namespace {

constexpr uint32_t kMagic = 0x51534e43;  // "QSNC"
// v2: magic | version | crc32(payload) | payload — truncation and bit
// flips are rejected before any tensor data is trusted. The payload is a
// u32 count, then per tensor u32 rank | i64 dims | f32 data. Version 1
// carried no checksum; it is rejected like any other unsupported version,
// so no image can skip the CRC.
constexpr uint32_t kVersion = 2;

// Collects pointers to every state tensor in deterministic order:
// leaf params first (network order), then BN running stats (network order).
std::vector<Tensor*> state_tensors(Network& net) {
  std::vector<Tensor*> out;
  for (Param* p : net.params()) out.push_back(&p->value);
  for (size_t i = 0; i < net.size(); ++i) {
    visit_layers(&net.layer(i), [&out](Layer* l) {
      if (auto* bn = dynamic_cast<BatchNorm2d*>(l)) {
        // const_cast is safe: we own the network mutably here.
        out.push_back(const_cast<Tensor*>(&bn->running_mean()));
        out.push_back(const_cast<Tensor*>(&bn->running_var()));
      }
    });
  }
  return out;
}

void append_bytes(std::vector<uint8_t>& buf, const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buf.insert(buf.end(), bytes, bytes + n);
}

/// Sequential little-endian reader over an in-memory payload with
/// hard bounds checks — a corrupt length can never read out of range.
class PayloadReader {
 public:
  PayloadReader(const std::vector<uint8_t>& buf, const std::string& path)
      : buf_(buf), path_(path) {}

  uint32_t read_u32() {
    uint32_t v = 0;
    read_raw(&v, sizeof(v));
    return v;
  }

  int64_t read_i64() {
    int64_t v = 0;
    read_raw(&v, sizeof(v));
    return v;
  }

  void read_raw(void* dst, size_t n) {
    if (n > buf_.size() - pos_) {
      throw std::runtime_error("load_state: truncated file " + path_);
    }
    std::memcpy(dst, buf_.data() + pos_, n);
    pos_ += n;
  }

  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const std::vector<uint8_t>& buf_;
  const std::string& path_;
  size_t pos_ = 0;
};

NetworkState parse_payload(const std::vector<uint8_t>& payload,
                           const std::string& path) {
  PayloadReader reader(payload, path);
  const uint32_t count = reader.read_u32();
  NetworkState state;
  state.tensors.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t rank = reader.read_u32();
    if (rank > 8) {
      throw std::runtime_error("load_state: corrupt tensor rank in " + path);
    }
    Shape shape(rank);
    for (uint32_t d = 0; d < rank; ++d) shape[d] = reader.read_i64();
    Tensor t(shape);
    reader.read_raw(t.data(),
                    static_cast<size_t>(t.numel()) * sizeof(float));
    state.tensors.push_back(std::move(t));
  }
  if (!reader.exhausted()) {
    throw std::runtime_error("load_state: trailing bytes in " + path);
  }
  return state;
}

}  // namespace

NetworkState snapshot(Network& net) {
  NetworkState state;
  for (Tensor* t : state_tensors(net)) state.tensors.push_back(*t);
  return state;
}

void restore(Network& net, const NetworkState& state) {
  std::vector<Tensor*> dst = state_tensors(net);
  if (dst.size() != state.tensors.size()) {
    throw std::invalid_argument("restore: state tensor count mismatch");
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    if (dst[i]->shape() != state.tensors[i].shape()) {
      throw std::invalid_argument("restore: shape mismatch at tensor " +
                                  std::to_string(i));
    }
    *dst[i] = state.tensors[i];
  }
}

std::vector<uint8_t> save_state_bytes(Network& net) {
  const NetworkState state = snapshot(net);
  std::vector<uint8_t> payload;
  auto append_u32 = [&payload](uint32_t v) {
    append_bytes(payload, &v, sizeof(v));
  };
  auto append_i64 = [&payload](int64_t v) {
    append_bytes(payload, &v, sizeof(v));
  };

  append_u32(static_cast<uint32_t>(state.tensors.size()));
  for (const Tensor& t : state.tensors) {
    append_u32(static_cast<uint32_t>(t.rank()));
    for (int64_t d : t.shape()) append_i64(d);
    append_bytes(payload, t.data(),
                 static_cast<size_t>(t.numel()) * sizeof(float));
  }

  std::vector<uint8_t> out;
  out.reserve(12 + payload.size());
  const uint32_t crc = util::crc32(payload.data(), payload.size());
  append_bytes(out, &kMagic, sizeof(kMagic));
  append_bytes(out, &kVersion, sizeof(kVersion));
  append_bytes(out, &crc, sizeof(crc));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void load_state_bytes(Network& net, const std::vector<uint8_t>& bytes,
                      const std::string& what) {
  PayloadReader header(bytes, what);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t expected_crc = 0;
  try {
    header.read_raw(&magic, sizeof(magic));
    if (magic == kMagic) header.read_raw(&version, sizeof(version));
    if (version == kVersion) {
      header.read_raw(&expected_crc, sizeof(expected_crc));
    }
  } catch (const std::runtime_error&) {
    throw std::runtime_error("load_state: truncated header in " + what);
  }
  if (magic != kMagic) {
    throw std::runtime_error("load_state: bad magic in " + what);
  }
  if (version != kVersion) {
    throw std::runtime_error("load_state: unsupported version " +
                             std::to_string(version) + " in " + what);
  }
  constexpr size_t kPayloadAt = 12;
  if (util::crc32(bytes.data() + kPayloadAt, bytes.size() - kPayloadAt) !=
      expected_crc) {
    throw std::runtime_error(
        "load_state: checksum mismatch (corrupt checkpoint) in " + what);
  }
  const std::vector<uint8_t> payload(
      bytes.begin() + static_cast<ptrdiff_t>(kPayloadAt), bytes.end());
  restore(net, parse_payload(payload, what));
}

void save_state(Network& net, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_state: cannot open " + path);
  const std::vector<uint8_t> bytes = save_state_bytes(net);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("save_state: write failed for " + path);
}

void load_state(Network& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_state: cannot open " + path);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
  load_state_bytes(net, bytes, path);
}

}  // namespace qsnc::nn
