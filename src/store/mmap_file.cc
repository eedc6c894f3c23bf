#include "store/mmap_file.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#define STORSUBSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STORSUBSIM_HAVE_MMAP 0
#endif

namespace storsubsim::store {

MmapFile::~MmapFile() { reset(); }

void MmapFile::reset() noexcept {
#if STORSUBSIM_HAVE_MMAP
  if (is_mmap_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  is_mmap_ = false;
  fallback_.clear();
}

Error MmapFile::open(const std::string& path) {
  reset();
#if STORSUBSIM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return make_error(ErrorCode::kIo, std::string("cannot open ").append(path));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return make_error(ErrorCode::kIo, std::string("cannot stat ").append(path));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty buffer is a valid (and
    // correctly rejected-as-truncated) input for the reader.
    ::close(fd);
    data_ = fallback_.data();
    size_ = 0;
    return Error{};
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapping == MAP_FAILED) {
    return make_error(ErrorCode::kIo, std::string("mmap failed for ").append(path));
  }
  data_ = static_cast<const char*>(mapping);
  size_ = size;
  is_mmap_ = true;
  return Error{};
#else
  if (Error err = read_file(path, &fallback_); !err.ok()) return err;
  data_ = fallback_.data();
  size_ = fallback_.size();
  return Error{};
#endif
}

Error write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return make_error(ErrorCode::kIo, std::string("cannot create ").append(path));
  }
  // fclose flushes the stdio buffer, so it reports a write the device refused
  // (a full disk, /dev/full) that fwrite accepted into the buffer.
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    return make_error(ErrorCode::kIo, std::string("short write to ").append(path));
  }
  return Error{};
}

Error read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return make_error(ErrorCode::kIo, std::string("cannot open ").append(path));
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  // A directory opens but does not read (EISDIR): ferror, not an empty file.
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return make_error(ErrorCode::kIo, std::string("read failed for ").append(path));
  }
  return Error{};
}

}  // namespace storsubsim::store
