#include "sip/checkpoint.hpp"

#include <fcntl.h>

#include <cctype>
#include <cstdio>
#include <memory>

#include "common/error.hpp"
#include "common/posix_io.hpp"

namespace sia::sip::checkpoint {

namespace {

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path, const char* mode) {
  FilePtr file(std::fopen(path.c_str(), mode));
  if (!file) {
    throw RuntimeError("cannot open checkpoint file " + path);
  }
  return file;
}

std::string part_path(const std::string& dir, const std::string& key,
                      std::int64_t generation, int part) {
  return dir + "/" + sanitize_key(key) + ".g" + std::to_string(generation) +
         ".part" + std::to_string(part);
}

std::string manifest_path(const std::string& dir, const std::string& key) {
  return dir + "/" + sanitize_key(key) + ".manifest";
}

// The manifest in place, if any (generation 0 and no parts otherwise).
Manifest current_manifest(const std::string& dir, const std::string& key) {
  try {
    return read_manifest(dir, key);
  } catch (const RuntimeError&) {
    return Manifest{};
  }
}

void write_or_throw(const std::string& path,
                    const std::function<bool(int fd)>& write) {
  if (!replace_file(path, write)) {
    throw RuntimeError("cannot write checkpoint file " + path);
  }
}

}  // namespace

std::string sanitize_key(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("checkpoint") : out;
}

void write_manifest(const std::string& dir, const std::string& key,
                    const Manifest& manifest) {
  const Manifest previous = current_manifest(dir, key);
  char line[512];
  const int length = std::snprintf(
      line, sizeof line, "%s %d %lld %lld\n", manifest.array_name.c_str(),
      manifest.parts, static_cast<long long>(manifest.total_blocks),
      static_cast<long long>(previous.generation + 1));
  write_or_throw(manifest_path(dir, key), [&](int fd) {
    return length > 0 && static_cast<std::size_t>(length) < sizeof line &&
           write_full(fd, line, static_cast<std::size_t>(length)) == length;
  });
  // Once the rename itself is durable, the parts it replaced are garbage.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0 || fdatasync_eintr(dir_fd) != 0) {
    close_quiet(dir_fd);
    return;  // keep the old parts rather than risk the checkpoint
  }
  close_quiet(dir_fd);
  for (int part = 0; part < previous.parts; ++part) {
    std::remove(part_path(dir, key, previous.generation, part).c_str());
  }
}

Manifest read_manifest(const std::string& dir, const std::string& key) {
  FilePtr file = open_or_throw(manifest_path(dir, key), "r");
  char name[256] = {};
  int parts = 0;
  long long total = 0, generation = 0;
  if (std::fscanf(file.get(), "%255s %d %lld %lld", name, &parts, &total,
                  &generation) != 4) {
    throw RuntimeError("corrupt checkpoint manifest for key '" + key + "'");
  }
  Manifest manifest;
  manifest.array_name = name;
  manifest.parts = parts;
  manifest.total_blocks = total;
  manifest.generation = generation;
  return manifest;
}

void write_part(
    const std::string& dir, const std::string& key, int part,
    const sial::ResolvedProgram& program, int array_id,
    const std::unordered_map<BlockId, BlockPtr, BlockIdHash>& home) {
  const sial::ResolvedArray& array = program.array(array_id);
  const std::int64_t generation = current_manifest(dir, key).generation + 1;
  write_or_throw(part_path(dir, key, generation, part), [&](int fd) {
    const auto put = [fd](const void* data, std::size_t bytes) {
      return write_full(fd, data, bytes) == static_cast<ssize_t>(bytes);
    };
    for (const auto& [id, block] : home) {
      if (id.array_id != array_id) continue;
      const std::int64_t linear = id.linearize(array.num_segments);
      const std::int64_t count = static_cast<std::int64_t>(block->size());
      if (!put(&linear, sizeof linear) || !put(&count, sizeof count) ||
          !put(block->data().data(), sizeof(double) * block->size())) {
        return false;
      }
    }
    return true;
  });
}

void read_part(const std::string& dir, const std::string& key,
               const Manifest& manifest, int part,
               const std::function<void(std::int64_t,
                                        const std::vector<double>&)>& fn) {
  FilePtr file =
      open_or_throw(part_path(dir, key, manifest.generation, part), "rb");
  std::vector<double> payload;
  while (true) {
    std::int64_t linear = 0, count = 0;
    const std::size_t got = std::fread(&linear, sizeof linear, 1, file.get());
    if (got == 0) break;  // clean EOF
    if (std::fread(&count, sizeof count, 1, file.get()) != 1 || count < 0) {
      throw RuntimeError("corrupt checkpoint part file");
    }
    payload.resize(static_cast<std::size_t>(count));
    if (std::fread(payload.data(), sizeof(double), payload.size(),
                   file.get()) != payload.size()) {
      throw RuntimeError("corrupt checkpoint part file (payload)");
    }
    fn(linear, payload);
  }
}

}  // namespace sia::sip::checkpoint
