#include "util/atomic_file.h"

#include <cstdio>

namespace cbma::util {

bool write_file_atomically(const std::string& path, std::string_view text,
                           const char* who) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", who, tmp.c_str());
    return false;
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "%s: failed writing %s\n", who, tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "%s: cannot rename %s over %s\n", who, tmp.c_str(),
                 path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace cbma::util
