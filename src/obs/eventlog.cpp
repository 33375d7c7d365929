#include "obs/eventlog.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/time_util.h"

namespace f1::obs {

namespace {

void
appendJsonString(std::ostringstream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

const char *
servingEventKindName(ServingEventKind kind)
{
    switch (kind) {
      case ServingEventKind::kSubmit: return "submit";
      case ServingEventKind::kAdmit: return "admit";
      case ServingEventKind::kShed: return "shed";
      case ServingEventKind::kDispatch: return "dispatch";
      case ServingEventKind::kComplete: return "complete";
      case ServingEventKind::kFail: return "fail";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : cap_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(cap_)),
      droppedGauge_(MetricsRegistry::global().gauge(
          "eventlog.dropped",
          [this] {
              // Atomics only — snapshot() holds the registry lock
              // while evaluating gauges (lock-order rule in
              // obs/metrics.h). Overwritten-by-wraparound plus
              // torn-slot discards across this recorder's lifetime.
              const uint64_t total =
                  next_.load(std::memory_order_relaxed);
              const uint64_t overwritten =
                  total > cap_ ? total - cap_ : 0;
              return overwritten +
                     tornDropped_.load(std::memory_order_relaxed);
          }))
{
}

FlightRecorder &
FlightRecorder::global()
{
    // Leaked for the same reason as MetricsRegistry::global():
    // executors record during static teardown of arbitrary objects.
    static FlightRecorder *rec = new FlightRecorder;
    return *rec;
}

void
FlightRecorder::record(ServingEventKind kind, uint64_t jobId,
                       std::string_view tenant, uint64_t fingerprint,
                       uint32_t batchSize, uint64_t traceId)
{
    const uint64_t seq =
        next_.fetch_add(1, std::memory_order_relaxed) + 1;
    Slot &s = slots_[(seq - 1) % cap_];

    // Per-slot seqlock over atomic words: mark writing (odd ticket),
    // store the payload, commit (even ticket). Readers that observe a
    // ticket change mid-copy discard the slot; because every word is
    // an atomic, a torn read is at worst a DISCARDED event, never UB.
    s.ticket.store(2 * seq + 1, std::memory_order_release);
    s.w[0].store(jobId, std::memory_order_relaxed);
    s.w[1].store(fingerprint, std::memory_order_relaxed);
    s.w[2].store(std::bit_cast<uint64_t>(steadyNowMs()),
                 std::memory_order_relaxed);
    const size_t len = std::min(tenant.size(), kTenantBytes);
    s.w[3].store(uint64_t(uint8_t(kind)) |
                     (uint64_t(batchSize) << 8) |
                     (uint64_t(len) << 40),
                 std::memory_order_relaxed);
    s.w[4].store(traceId, std::memory_order_relaxed);
    for (size_t wi = 0; wi < kTenantWords; ++wi) {
        uint64_t word = 0;
        for (size_t b = 0; b < 8; ++b) {
            const size_t i = wi * 8 + b;
            if (i < len)
                word |= uint64_t(uint8_t(tenant[i])) << (8 * b);
        }
        s.w[5 + wi].store(word, std::memory_order_relaxed);
    }
    s.ticket.store(2 * seq, std::memory_order_release);
}

std::vector<ServingEvent>
FlightRecorder::dump() const
{
    std::vector<ServingEvent> out;
    out.reserve(cap_);
    for (size_t i = 0; i < cap_; ++i) {
        const Slot &s = slots_[i];
        bool pushed = false;
        bool sawData = false;
        for (int attempt = 0; attempt < 4; ++attempt) {
            const uint64_t t1 =
                s.ticket.load(std::memory_order_acquire);
            if (t1 == 0)
                break; // never written
            sawData = true;
            if (t1 & 1)
                continue; // mid-write; retry
            ServingEvent ev;
            ev.seq = t1 / 2;
            ev.jobId = s.w[0].load(std::memory_order_relaxed);
            ev.fingerprint = s.w[1].load(std::memory_order_relaxed);
            ev.tsMs = std::bit_cast<double>(
                s.w[2].load(std::memory_order_relaxed));
            const uint64_t packed =
                s.w[3].load(std::memory_order_relaxed);
            ev.kind = ServingEventKind(uint8_t(packed));
            ev.batchSize = uint32_t(packed >> 8);
            ev.traceId = s.w[4].load(std::memory_order_relaxed);
            const size_t len =
                std::min<size_t>((packed >> 40) & 0xff, kTenantBytes);
            ev.tenant.resize(len);
            for (size_t wi = 0; wi < kTenantWords; ++wi) {
                const uint64_t word =
                    s.w[5 + wi].load(std::memory_order_relaxed);
                for (size_t b = 0; b < 8; ++b) {
                    const size_t ci = wi * 8 + b;
                    if (ci < len)
                        ev.tenant[ci] = char(uint8_t(word >> (8 * b)));
                }
            }
            std::atomic_thread_fence(std::memory_order_acquire);
            if (s.ticket.load(std::memory_order_relaxed) != t1)
                continue; // overwritten under us; retry
            out.push_back(std::move(ev));
            pushed = true;
            break;
        }
        if (sawData && !pushed)
            tornDropped_.fetch_add(1, std::memory_order_relaxed);
    }
    std::sort(out.begin(), out.end(),
              [](const ServingEvent &a, const ServingEvent &b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::string
FlightRecorder::dumpJson() const
{
    const std::vector<ServingEvent> events = dump();
    const uint64_t total = recorded();
    const uint64_t dropped =
        total > events.size() ? total - events.size() : 0;
    std::ostringstream os;
    os << "{\"capacity\": " << cap_ << ", \"recorded\": " << total
       << ", \"dropped\": " << dropped << ", \"events\": [";
    bool first = true;
    char buf[64];
    for (const ServingEvent &ev : events) {
        if (!first)
            os << ", ";
        first = false;
        os << "{\"seq\": " << ev.seq << ", \"ts_ms\": ";
        std::snprintf(buf, sizeof buf, "%.3f", ev.tsMs);
        os << buf << ", \"kind\": ";
        appendJsonString(os, servingEventKindName(ev.kind));
        os << ", \"job_id\": " << ev.jobId << ", \"tenant\": ";
        appendJsonString(os, ev.tenant);
        // Fingerprints are full 64-bit hashes; hex-string them so
        // JSON consumers that parse numbers as doubles keep the bits.
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(ev.fingerprint));
        os << ", \"fingerprint\": \"" << buf << "\"";
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(ev.traceId));
        os << ", \"trace_id\": \"" << buf << "\""
           << ", \"batch_size\": " << ev.batchSize << "}";
    }
    os << "]}";
    return os.str();
}

bool
FlightRecorder::dumpToFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << dumpJson() << "\n";
    return f.good();
}

} // namespace f1::obs
