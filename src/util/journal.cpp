#include "util/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/binio.hpp"
#include "util/contracts.hpp"

namespace wiloc::journal {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Full write(2) loop (handles partial writes and EINTR). Returns the
/// number of write(2) calls made.
std::uint64_t write_all(int fd, const void* data, std::size_t n,
                        const std::string& path) {
  const char* p = static_cast<const char*>(data);
  std::uint64_t calls = 0;
  while (n > 0) {
    ++calls;
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("journal: write failed on " + path);
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return calls;
}

/// Reads the whole file behind `fd`.
std::vector<std::byte> read_all(int fd, const std::string& what) {
  std::vector<std::byte> data;
  std::array<std::byte, 64 * 1024> chunk;
  for (;;) {
    const ssize_t r = ::read(fd, chunk.data(), chunk.size());
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno(what);
    }
    if (r == 0) return data;
    data.insert(data.end(), chunk.begin(), chunk.begin() + r);
  }
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_errno("journal: fsync failed on " + path);
}

/// Best-effort fsync of the directory containing `path` (makes a
/// rename durable). Failure is ignored: some filesystems reject
/// directory fsync and the rename itself is still atomic.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const UniqueFd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  if (fd.get() >= 0) ::fsync(fd.get());
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (const std::byte b : data)
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

const char* to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::never: return "never";
    case FsyncPolicy::on_checkpoint: return "on_checkpoint";
    case FsyncPolicy::every_append: return "every_append";
  }
  return "?";
}

UniqueFd::~UniqueFd() {
  if (fd_ >= 0) ::close(fd_);
}

// -- Writer ----------------------------------------------------------------

Writer::Writer(std::string path, FsyncPolicy fsync, FailureHook hook)
    : path_(std::move(path)), fsync_(fsync), hook_(std::move(hook)),
      fd_(::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644)) {
  if (fd_.get() < 0) throw_errno("journal: cannot open " + path_);
  struct stat st{};
  if (::fstat(fd_.get(), &st) != 0) throw_errno("journal: fstat " + path_);
  bytes_ = static_cast<std::uint64_t>(st.st_size);
}

void Writer::fire(std::string_view site, std::size_t offset) {
  try {
    hook_(site);
  } catch (...) {
    dead_ = true;  // simulated process death: nothing more reaches disk
    write_buffered(offset);
    throw;
  }
}

void Writer::write_buffered(std::size_t n) {
  writes_ += write_all(fd_.get(), buf_.data(), n, path_);
  bytes_ += n;
}

void Writer::stage(std::span<const std::byte> payload) {
  if (dead_)
    throw StateError("journal: writer poisoned by simulated crash");
  WILOC_EXPECTS(payload.size() <= kMaxFrameBytes);
  append_frame(buf_, payload);
  sizes_.push_back(static_cast<std::uint32_t>(payload.size()));
}

void Writer::flush() {
  if (sizes_.empty()) return;
  if (hook_) {
    // The sites of a one-frame append: after the header, and halfway
    // through the payload (a torn final frame).
    std::size_t frame = 0;
    try {
      for (const std::uint32_t size : sizes_) {
        fire(kSiteAppendMid, frame + kFrameHeaderBytes);
        fire(kSiteAppendTorn, frame + kFrameHeaderBytes + size / 2);
        frame += kFrameHeaderBytes + size;
      }
    } catch (...) {
      buf_.clear();
      sizes_.clear();
      throw;
    }
  }
  write_buffered(buf_.size());
  buf_.clear();
  sizes_.clear();

  if (fsync_ == FsyncPolicy::every_append) sync();
}

void Writer::append(std::span<const std::byte> payload) {
  stage(payload);
  flush();
}

void Writer::sync() {
  if (dead_) return;
  fsync_or_throw(fd_.get(), path_);
}

// -- replay ----------------------------------------------------------------

ReplayStats replay(const std::string& path,
                   const std::function<void(std::span<const std::byte>)>&
                       on_frame) {
  const UniqueFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) return {};  // missing journal == empty journal
  return scan_frames(read_all(fd.get(), "journal: read failed on " + path),
                     on_frame);
}

ReplayStats scan_frames(std::span<const std::byte> data,
                        const std::function<void(std::span<const std::byte>)>&
                            on_frame) {
  ReplayStats stats;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {  // incomplete header
      stats.torn_tail = true;
      break;
    }
    BinReader header(data.subspan(pos, 8));
    const std::uint32_t len = header.get_u32();
    const std::uint32_t want_crc = header.get_u32();
    if (len > kMaxFrameBytes) {  // framing lost: unreadable from here on
      stats.torn_tail = true;
      break;
    }
    if (data.size() - pos - 8 < len) {  // incomplete payload
      stats.torn_tail = true;
      break;
    }
    const auto payload = data.subspan(pos + 8, len);
    pos += 8 + len;
    if (crc32(payload) != want_crc) {
      // A corrupt *record* (framing intact): skip it, keep going.
      ++stats.frames_corrupt;
      continue;
    }
    ++stats.frames_ok;
    on_frame(payload);
  }
  stats.bytes_scanned = pos;
  return stats;
}

void append_frame(std::vector<std::byte>& out,
                  std::span<const std::byte> payload) {
  WILOC_EXPECTS(payload.size() <= kMaxFrameBytes);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

// -- snapshot files --------------------------------------------------------

void write_snapshot_file(const std::string& path, std::uint32_t magic,
                         std::uint32_t version,
                         std::span<const std::byte> body, bool do_fsync,
                         const FailureHook& hook) {
  const std::string tmp = path + ".tmp";
  {
    const UniqueFd fd(::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644));
    if (fd.get() < 0) throw_errno("snapshot: cannot open " + tmp);
    BinWriter header;
    header.put_u32(magic);
    header.put_u32(version);
    header.put_u32(crc32(body));
    header.put_u64(body.size());
    write_all(fd.get(), header.bytes().data(), header.size(), tmp);
    write_all(fd.get(), body.data(), body.size(), tmp);
    if (do_fsync) fsync_or_throw(fd.get(), tmp);
  }

  // The temp file is complete and durable; dying here leaves the old
  // snapshot untouched (the crash-injection site the recovery test
  // exercises).
  if (hook) hook(kSiteSnapshotPreRename);

  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("snapshot: rename " + tmp + " -> " + path);
  if (do_fsync) fsync_parent_dir(path);
}

std::optional<SnapshotData> read_snapshot_file(const std::string& path,
                                               std::uint32_t magic) {
  const UniqueFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) return std::nullopt;
  const std::vector<std::byte> data =
      read_all(fd.get(), "snapshot: read failed on " + path);

  BinReader reader(data);
  if (reader.remaining() < 20)
    throw DecodeError("snapshot " + path + ": truncated header");
  if (reader.get_u32() != magic)
    throw DecodeError("snapshot " + path + ": bad magic");
  SnapshotData out;
  out.version = reader.get_u32();
  const std::uint32_t want_crc = reader.get_u32();
  const std::uint64_t len = reader.get_u64();
  if (len != reader.remaining())
    throw DecodeError("snapshot " + path + ": body length mismatch");
  const auto body = std::span<const std::byte>(data).subspan(20);
  if (crc32(body) != want_crc)
    throw DecodeError("snapshot " + path + ": body CRC mismatch");
  out.body.assign(body.begin(), body.end());
  return out;
}

}  // namespace wiloc::journal
