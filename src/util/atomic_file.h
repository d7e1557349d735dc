// Whole-file replacement, the one write path of every run artifact (the
// BENCH_*.json document, the Chrome trace, the probe dump and manifest, the
// Prometheus snapshot a reader may poll, the collapsed-stack profile): the
// text goes to `<path>.tmp` and is renamed over `path`, so a reader sees
// either the old file or the new one, never a torn write.
#pragma once

#include <string>
#include <string_view>

namespace cbma::util {

/// Write `text` to `path` through `<path>.tmp` and a rename. On any failure
/// prints "<who>: ..." to stderr, removes the temporary file and returns
/// false; `path` is then left as it was.
bool write_file_atomically(const std::string& path, std::string_view text,
                           const char* who);

}  // namespace cbma::util
