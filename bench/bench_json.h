// Machine header for the BENCH_*.json files, so a committed row says which
// code and which machine produced it: git sha (with "-dirty" when tracked
// sources differ from it; the BENCH files themselves do not count), nproc,
// CPU model, the kernel dispatch tier, the pool's thread count and whether
// QSNC_BENCH_FAST shrank the workload. Every bench that writes JSON opens
// its file through open_json:
//
//   std::string path;
//   std::FILE* f = qsnc::bench::open_json("BENCH_x.json", threads, &path);
//   if (f == nullptr) return 1;   // "{" and "machine": {...}, written
//   ... the bench's own keys, then "}" ...
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "nn/simd.h"

namespace qsnc::bench {

// First line of a shell command's output, without the newline ("" when
// the command fails or prints nothing).
inline std::string command_line_output(const char* cmd) {
  std::string out;
  if (std::FILE* p = ::popen(cmd, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) out = buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

inline std::string git_sha() {
  const std::string sha =
      command_line_output("git rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const std::string dirty = command_line_output(
      "git status --porcelain --untracked-files=no -- . "
      "':(exclude)BENCH_*.json' 2>/dev/null");
  return dirty.empty() ? sha : sha + "-dirty";
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Opens the bench's JSON output — the QSNC_BENCH_OUT path, else
/// `default_name` — stores that path in `*path`, and writes the top-level
/// object's opening brace and its first key, `"machine": {...},`. The
/// caller writes its own keys and the closing brace. Returns null, after
/// saying why on stderr, when the file cannot be opened.
inline std::FILE* open_json(const char* default_name, int threads,
                            std::string* path) {
  const char* out = std::getenv("QSNC_BENCH_OUT");
  *path = out != nullptr ? out : default_name;
  std::FILE* f = std::fopen(path->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path->c_str());
    return nullptr;
  }
  const char* fast = std::getenv("QSNC_BENCH_FAST");
  std::fprintf(f,
               "{\n  \"machine\": {\"git_sha\": \"%s\", \"nproc\": %u, "
               "\"cpu\": \"%s\", \"dispatch\": \"%s\", \"threads\": %d, "
               "\"bench_fast\": %s},\n",
               json_escape(git_sha()).c_str(),
               std::thread::hardware_concurrency(),
               json_escape(cpu_model()).c_str(), nn::simd::dispatch_tier(),
               threads, fast != nullptr && fast[0] == '1' ? "true" : "false");
  return f;
}

}  // namespace qsnc::bench
