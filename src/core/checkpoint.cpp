#include "core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/atomic_file.h"

namespace quickdrop::core {
namespace {

// "QDCP" + format version. v4 stores the global model as one flat
// serialized-state blob (nn/state.h format v2: layout hash + shape manifest +
// contiguous payload); v3 stored it per-tensor and is still loadable — the
// pre-FlatState golden checkpoint in tests/core/golden/ pins that shim.
constexpr std::uint64_t kMagicV3 = 0x51444350'00000003ULL;
constexpr std::uint64_t kMagicV4 = 0x51444350'00000004ULL;

/// Upper bound for a serialized global state inside a checkpoint (floats +
/// manifest); far above any model this repo trains but finite, so a corrupt
/// length cannot drive a huge allocation.
constexpr std::uint64_t kMaxStateBlob = std::uint64_t{1} << 33;

/// FNV-1a over a byte range; the checkpoint's integrity checksum.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Writer {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void string(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void tensor(const Tensor& t) {
    u64(t.shape().size());
    for (const auto d : t.shape()) u64(static_cast<std::uint64_t>(d));
    // An empty tensor's data pointer may be null, and memcpy from null is
    // undefined even for zero bytes.
    if (t.data().empty()) return;
    const auto offset = bytes_.size();
    bytes_.resize(offset + t.data().size() * sizeof(float));
    std::memcpy(bytes_.data() + offset, t.data().data(), t.data().size() * sizeof(float));
  }
  void blob(std::span<const std::uint8_t> b) {
    u64(b.size());
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  std::uint64_t u64() {
    if (pos_ + 8 > bytes_.size()) throw std::invalid_argument("checkpoint: truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::string string() {
    const auto size = u64();
    if (size > 1 << 20 || pos_ + size > bytes_.size()) {
      throw std::invalid_argument("checkpoint: bad string");
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return s;
  }
  Tensor tensor() {
    const auto rank = u64();
    if (rank > 8) throw std::invalid_argument("checkpoint: absurd tensor rank");
    Shape shape(rank);
    for (auto& d : shape) d = static_cast<std::int64_t>(u64());
    Tensor t(shape);
    const auto nbytes = static_cast<std::size_t>(t.numel()) * sizeof(float);
    if (pos_ + nbytes > bytes_.size()) throw std::invalid_argument("checkpoint: truncated");
    if (nbytes == 0) return t;  // null data pointer: see Writer::tensor
    std::memcpy(t.data().data(), bytes_.data() + pos_, nbytes);
    pos_ += nbytes;
    return t;
  }
  std::vector<std::uint8_t> blob(std::uint64_t max_size = 1 << 20) {
    const auto size = u64();
    if (size > max_size || pos_ + size > bytes_.size()) {
      throw std::invalid_argument("checkpoint: bad blob");
    }
    std::vector<std::uint8_t> b(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
    pos_ += static_cast<std::size_t>(size);
    return b;
  }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

Checkpoint make_checkpoint(const nn::ModelState& global,
                           const std::vector<SyntheticStore>& stores) {
  Checkpoint cp;
  cp.global = global;  // FlatState copies are deep
  for (const auto& store : stores) {
    Checkpoint::ClientStore client;
    client.num_classes = store.num_classes();
    client.image_shape = store.image_shape();
    for (int c = 0; c < store.num_classes(); ++c) {
      if (store.has_class(c)) {
        client.synthetic.push_back(store.class_samples(c).clone());
        // Augmentation set of exactly this class.
        const auto aug = store.augmentation({c});
        auto [images, labels] = aug.batch([&] {
          std::vector<int> rows(static_cast<std::size_t>(aug.size()));
          for (int i = 0; i < aug.size(); ++i) rows[static_cast<std::size_t>(i)] = i;
          return rows;
        }());
        (void)labels;
        client.augmentation.push_back(std::move(images));
      } else {
        client.synthetic.push_back(Tensor(Shape{0}));
        client.augmentation.push_back(Tensor(Shape{0}));
      }
    }
    cp.clients.push_back(std::move(client));
  }
  return cp;
}

std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& cp) {
  Writer w;
  w.u64(kMagicV4);
  w.u64(cp.metadata.size());
  for (const auto& [key, value] : cp.metadata) {
    w.string(key);
    w.string(value);
  }
  w.blob(nn::serialize_state(cp.global));
  w.u64(cp.clients.size());
  for (const auto& client : cp.clients) {
    w.u64(static_cast<std::uint64_t>(client.num_classes));
    w.u64(client.image_shape.size());
    for (const auto d : client.image_shape) w.u64(static_cast<std::uint64_t>(d));
    for (int c = 0; c < client.num_classes; ++c) {
      w.tensor(client.synthetic[static_cast<std::size_t>(c)]);
      w.tensor(client.augmentation[static_cast<std::size_t>(c)]);
    }
  }
  w.u64(cp.cursor.has_value() ? 1 : 0);
  if (cp.cursor) {
    w.string(cp.cursor->phase);
    w.u64(static_cast<std::uint64_t>(cp.cursor->rounds_done));
    w.blob(cp.cursor->rng_state);
  }
  auto bytes = w.take();
  // Trailing integrity checksum: detects bit flips that would otherwise
  // decode into silently-wrong tensors.
  const std::uint64_t checksum = fnv1a(bytes);
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
  return bytes;
}

Checkpoint deserialize_checkpoint(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 16) throw std::invalid_argument("checkpoint: truncated");
  const auto payload = bytes.first(bytes.size() - 8);
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(bytes[bytes.size() - 8 + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (fnv1a(payload) != stored) {
    throw std::invalid_argument("checkpoint: checksum mismatch (truncated or corrupted)");
  }
  Reader r(payload);
  const auto magic = r.u64();
  if (magic != kMagicV4 && magic != kMagicV3) {
    throw std::invalid_argument("checkpoint: bad magic/version");
  }
  Checkpoint cp;
  const auto metadata_count = r.u64();
  if (metadata_count > 1 << 16) throw std::invalid_argument("checkpoint: bad metadata count");
  for (std::uint64_t i = 0; i < metadata_count; ++i) {
    const auto key = r.string();
    cp.metadata[key] = r.string();
  }
  if (magic == kMagicV4) {
    cp.global = nn::deserialize_state(r.blob(kMaxStateBlob));
  } else {
    // v3 shim: the global was stored per-tensor; repack into a flat state.
    const auto params = r.u64();
    if (params > 1 << 20) throw std::invalid_argument("checkpoint: bad parameter count");
    // NOLINTNEXTLINE(qdlint-api-flatstate): transient list for the legacy format only
    std::vector<Tensor> tensors;
    tensors.reserve(params);
    for (std::uint64_t i = 0; i < params; ++i) tensors.push_back(r.tensor());
    if (!tensors.empty()) cp.global = nn::FlatState::from_tensors(tensors);
  }
  const auto clients = r.u64();
  for (std::uint64_t i = 0; i < clients; ++i) {
    Checkpoint::ClientStore client;
    client.num_classes = static_cast<int>(r.u64());
    if (client.num_classes <= 0 || client.num_classes > 1 << 20) {
      throw std::invalid_argument("checkpoint: bad class count");
    }
    const auto rank = r.u64();
    client.image_shape.resize(rank);
    for (auto& d : client.image_shape) d = static_cast<std::int64_t>(r.u64());
    for (int c = 0; c < client.num_classes; ++c) {
      client.synthetic.push_back(r.tensor());
      client.augmentation.push_back(r.tensor());
    }
    cp.clients.push_back(std::move(client));
  }
  const auto has_cursor = r.u64();
  if (has_cursor > 1) throw std::invalid_argument("checkpoint: bad cursor flag");
  if (has_cursor == 1) {
    RoundCursor cursor;
    cursor.phase = r.string();
    cursor.rounds_done = static_cast<int>(r.u64());
    if (cursor.rounds_done < 0 || cursor.rounds_done > 1 << 24) {
      throw std::invalid_argument("checkpoint: bad cursor round");
    }
    cursor.rng_state = r.blob();
    if (cursor.rng_state.size() != Rng::kSerializedSize) {
      throw std::invalid_argument("checkpoint: bad cursor rng state");
    }
    cp.cursor = std::move(cursor);
  }
  if (!r.done()) throw std::invalid_argument("checkpoint: trailing bytes");
  return cp;
}

void save_checkpoint(const Checkpoint& cp, const std::string& path) {
  // Atomic replace: a crash mid-save leaves the previous checkpoint intact.
  write_file_atomic(path, serialize_checkpoint(cp));
}

Checkpoint load_checkpoint(const std::string& path) {
  // A path can hold either format; the page magic disambiguates.
  if (store::Store::sniff(path)) {
    store::Store store(path);
    return load_latest_checkpoint(store);
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("load_checkpoint: read failed for " + path);
  return deserialize_checkpoint(bytes);
}

std::uint64_t checkpoint_layout_hash(const Checkpoint& cp) {
  const auto& layout = cp.global.layout();
  return layout ? layout->hash() : 0;
}

void save_checkpoint(const Checkpoint& cp, store::Store& store, std::uint64_t round) {
  const store::Key key{checkpoint_layout_hash(cp), kRecordCheckpoint, round};
  store.put(key, serialize_checkpoint(cp));
  store.commit();
}

Checkpoint load_checkpoint(store::Store& store, std::uint64_t layout_hash,
                           std::uint64_t round) {
  return deserialize_checkpoint(store.get({layout_hash, kRecordCheckpoint, round}));
}

std::optional<std::uint64_t> latest_checkpoint_round(store::Store& store,
                                                     std::uint64_t layout_hash) {
  const auto key = store.latest(layout_hash, kRecordCheckpoint);
  if (!key) return std::nullopt;
  return key->cursor;
}

Checkpoint load_latest_checkpoint(store::Store& store) {
  std::optional<store::Key> best;
  for (const auto& key : store.keys()) {
    if (key.kind != kRecordCheckpoint) continue;
    if (!best || key.cursor > best->cursor ||
        (key.cursor == best->cursor && key.layout_hash > best->layout_hash)) {
      best = key;
    }
  }
  if (!best) throw store::StoreError("store: no checkpoint records in " + store.path());
  return deserialize_checkpoint(store.get(*best));
}

void save_client_store(store::Store& store, std::uint64_t layout_hash, std::uint64_t client,
                       const Checkpoint::ClientStore& cs) {
  Writer w;
  w.u64(static_cast<std::uint64_t>(cs.num_classes));
  w.u64(cs.image_shape.size());
  for (const auto d : cs.image_shape) w.u64(static_cast<std::uint64_t>(d));
  for (int c = 0; c < cs.num_classes; ++c) {
    w.tensor(cs.synthetic[static_cast<std::size_t>(c)]);
    w.tensor(cs.augmentation[static_cast<std::size_t>(c)]);
  }
  store.put({layout_hash, kRecordClientStore, client}, w.take());
}

Checkpoint::ClientStore load_client_store(store::Store& store, std::uint64_t layout_hash,
                                          std::uint64_t client) {
  const auto bytes = store.get({layout_hash, kRecordClientStore, client});
  Reader r(bytes);
  Checkpoint::ClientStore cs;
  cs.num_classes = static_cast<int>(r.u64());
  if (cs.num_classes <= 0 || cs.num_classes > 1 << 20) {
    throw std::invalid_argument("client store record: bad class count");
  }
  const auto rank = r.u64();
  if (rank > 8) throw std::invalid_argument("client store record: absurd shape rank");
  cs.image_shape.resize(rank);
  for (auto& d : cs.image_shape) d = static_cast<std::int64_t>(r.u64());
  for (int c = 0; c < cs.num_classes; ++c) {
    cs.synthetic.push_back(r.tensor());
    cs.augmentation.push_back(r.tensor());
  }
  if (!r.done()) throw std::invalid_argument("client store record: trailing bytes");
  return cs;
}

std::vector<SyntheticStore> restore_stores(const Checkpoint& cp) {
  std::vector<SyntheticStore> stores;
  stores.reserve(cp.clients.size());
  for (const auto& client : cp.clients) {
    std::vector<std::optional<Tensor>> synthetic, augmentation;
    for (int c = 0; c < client.num_classes; ++c) {
      const auto& s = client.synthetic[static_cast<std::size_t>(c)];
      const auto& a = client.augmentation[static_cast<std::size_t>(c)];
      synthetic.push_back(s.numel() > 0 ? std::optional<Tensor>(s.clone()) : std::nullopt);
      augmentation.push_back(a.numel() > 0 ? std::optional<Tensor>(a.clone()) : std::nullopt);
    }
    stores.push_back(SyntheticStore::from_parts(client.image_shape, client.num_classes,
                                                std::move(synthetic), std::move(augmentation)));
  }
  return stores;
}

}  // namespace quickdrop::core
