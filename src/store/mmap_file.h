// Read-only memory-mapped file with a heap fallback.
//
// On POSIX hosts the file is mapped MAP_PRIVATE/PROT_READ so column readers
// alias the page cache directly (the zero-copy contract of docs/STORE.md).
// Hosts without mmap — or zero-length files, which mmap rejects — fall back
// to reading the bytes into an owned buffer; callers cannot tell the
// difference and the corruption checks behave identically.
//
// write_file/read_file are the one checked writer and reader of whole files
// (store images, shard MANIFESTs, replicate tables, the CLI's text inputs).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "store/format.h"

namespace storsubsim::store {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps (or reads) `path`. On failure returns a kIo error and leaves the
  /// object empty.
  [[nodiscard]] Error open(const std::string& path);

  const char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::string_view view() const noexcept { return {data_, size_}; }
  bool mapped() const noexcept { return data_ != nullptr; }

 private:
  void reset() noexcept;

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool is_mmap_ = false;
  std::string fallback_;  ///< owns the bytes when mmap is unavailable
};

/// Writes `bytes` to `path`, replacing it. A failed open, write or close
/// (the close flushes) is a kIo error, never a silently short file.
[[nodiscard]] Error write_file(const std::string& path, std::string_view bytes);

/// Reads the whole of `path` into `*out`. A path that does not open, or that
/// opens but does not read (a directory), is a kIo error.
[[nodiscard]] Error read_file(const std::string& path, std::string* out);

}  // namespace storsubsim::store
