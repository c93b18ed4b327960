// The single file in src/ that reads the process environment. Every knob is
// parsed here — either into an EngineOptions field or into one of the
// defaults a fresh ExecContext starts at — so "what does variable X accept"
// has exactly one answer.
#include "server/options.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/check.h"

namespace topofaq {

int DefaultParallelism() {
  static const int v = [] {
    const char* env = std::getenv("TOPOFAQ_PARALLELISM");
    if (env == nullptr || *env == '\0') return 1;
    const int hw =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    if (std::strcmp(env, "max") == 0) return hw;
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || n < 0) return 1;  // invalid → serial
    if (n == 0) return hw;  // "0" = use every core, like "max"
    return static_cast<int>(std::min<long>(n, 1024));
  }();
  return v;
}

EncodingMode DefaultEncodingMode() {
  static const EncodingMode v = [] {
    const char* s = std::getenv("TOPOFAQ_ENCODING");
    if (s == nullptr || *s == '\0' || std::strcmp(s, "auto") == 0)
      return EncodingMode::kAuto;
    if (std::strcmp(s, "plain") == 0 || std::strcmp(s, "off") == 0)
      return EncodingMode::kPlain;
    if (std::strcmp(s, "dict") == 0) return EncodingMode::kForceDict;
    if (std::strcmp(s, "for") == 0) return EncodingMode::kForceFor;
    TOPOFAQ_CHECK_MSG(false,
                      "TOPOFAQ_ENCODING must be auto|plain|off|dict|for");
    return EncodingMode::kAuto;
  }();
  return v;
}

bool DefaultSimdEnabled() {
  static const bool v = [] {
    const char* s = std::getenv("TOPOFAQ_SIMD");
    if (s == nullptr || *s == '\0' || std::strcmp(s, "auto") == 0 ||
        std::strcmp(s, "on") == 0 || std::strcmp(s, "1") == 0)
      return true;
    if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0) return false;
    TOPOFAQ_CHECK_MSG(false, "TOPOFAQ_SIMD must be auto|on|1|off|0");
    return true;
  }();
  return v;
}

EngineOptions EngineOptions::FromEnv() {
  EngineOptions opts;
  opts.parallelism = DefaultParallelism();
  opts.encoding = DefaultEncodingMode();
  opts.simd = DefaultSimdEnabled();
  const char* budget = std::getenv("TOPOFAQ_PAGE_BUDGET");
  if (budget != nullptr && *budget != '\0') {
    const long v = std::atol(budget);
    if (v >= 1) opts.page_budget = v;
  }
  const char* trace = std::getenv("TOPOFAQ_TRACE");
  if (trace != nullptr && *trace != '\0') opts.trace_path = trace;
  return opts;
}

}  // namespace topofaq
