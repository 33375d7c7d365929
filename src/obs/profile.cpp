#include "obs/profile.h"

#include <cstdio>
#include <sstream>

namespace f1::obs {

thread_local ProfileCollector *t_profileCollector = nullptr;

namespace {

/** The label is the only free-form string in the export. */
std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
ExecutionProfile::toJson() const
{
    std::ostringstream os;
    os << "{\"label\": \"" << escapeJson(label)
       << "\", \"prepare_ms\": "
       << prepareMs << ", \"execute_ms\": " << executeMs
       << ", \"op_kinds\": {";
    bool first = true;
    for (const auto &[name, s] : opKinds) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << name << "\": {\"count\": " << s.count
           << ", \"total_ms\": " << s.totalMs << "}";
    }
    char id[24];
    std::snprintf(id, sizeof id, "0x%016llx",
                  static_cast<unsigned long long>(traceId));
    os << "}, \"trace_id\": \"" << id
       << "\", \"ntt_forward\": " << nttForward
       << ", \"ntt_inverse\": " << nttInverse
       << ", \"key_switch_applies\": " << keySwitchApplies
       << ", \"basis_extends\": " << basisExtends
       << ", \"cache_hits\": " << cacheHits
       << ", \"cache_misses\": " << cacheMisses
       << ", \"encoding_cache_hits\": " << encodingCacheHits
       << ", \"encoding_cache_misses\": " << encodingCacheMisses
       << ", \"scratch_peak_words\": " << scratchPeakWords << "}";
    return os.str();
}

} // namespace f1::obs
