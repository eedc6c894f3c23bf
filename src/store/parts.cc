#include "store/parts.h"

#include <filesystem>
#include <fstream>
#include <string_view>

namespace storsubsim::store {

namespace {

/// True when the file at `path` begins with `magic`.
bool starts_with_magic(const std::string& path, std::string_view magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string head(magic.size(), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  return in.gcount() == static_cast<std::streamsize>(head.size()) && head == magic;
}

}  // namespace

StoreShape sniff_store(const std::string& path) {
  std::string manifest_path(path);
  manifest_path.push_back('/');
  manifest_path.append(kManifestFileName);
  if (starts_with_magic(manifest_path, kManifestMagic)) return StoreShape::kShardDirectory;
  if (starts_with_magic(path, std::string_view(kMagic.data(), kMagic.size()))) {
    return StoreShape::kFile;
  }
  return StoreShape::kNotAStore;
}

Error StoreOwner::open(const std::string& path) {
  const StoreShape shape = sniff_store(path);
  if (shape == StoreShape::kNotAStore) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      return make_error(ErrorCode::kIo, std::string("cannot open ").append(path));
    }
    return make_error(ErrorCode::kBadMagic,
                      std::string("input ").append(path).append(
                          " is neither a STORCOL1 store nor a shard directory"));
  }
  directory_ = shape == StoreShape::kShardDirectory;
  Error err = directory_ ? shards_.open(path) : file_.open(path);
  // Name the input where the owner's own detail does not (header, footer
  // and MANIFEST parse errors), keeping the code and offset intact.
  if (!err.ok() && err.detail.find(path) == std::string::npos) {
    err.detail = std::string(path).append(": ").append(err.detail);
  }
  return err;
}

}  // namespace storsubsim::store
