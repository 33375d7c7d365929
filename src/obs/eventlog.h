/**
 * @file
 * Always-on serving flight recorder: a bounded, lock-free ring of
 * structured serving-lifecycle events.
 *
 * When a job fails or the engine sheds under load, the metrics
 * registry says THAT it happened but not WHAT the pipeline was doing
 * around it. The flight recorder is the causal record: every job's
 * submit/admit/shed/dispatch/complete/fail transition is
 * stamped with a global sequence number, so a dump reads as the
 * pipeline's recent history in exact order — the post-mortem
 * instrument Prometheus counters cannot be.
 *
 * Always-on by design: events fire per JOB transition (never per op
 * or per limb), so a record is one relaxed fetch_add plus a handful
 * of relaxed atomic stores — cheap enough to leave running in
 * production, which is the whole point of a flight recorder. There is
 * deliberately no off switch and no TLS gate; the per-op discipline
 * ("one TLS load + branch when telemetry is off") applies to the
 * profile/trace hooks, not to this per-job path.
 *
 * Concurrency: the ring is a fixed array of slots, each a per-slot
 * seqlock (ticket = 2*seq+1 while writing, 2*seq when committed) over
 * ATOMIC payload words — writers never block, readers (dump) retry
 * slots caught mid-write and drop them after a few attempts. A dump
 * is a consistent sample of committed events, sorted by sequence
 * number; under wraparound the oldest events are overwritten and the
 * dump reports how many were dropped.
 */
#ifndef F1_OBS_EVENTLOG_H
#define F1_OBS_EVENTLOG_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace f1::obs {

/** Serving-pipeline lifecycle transitions (see serving.h stages). */
enum class ServingEventKind : uint8_t {
    kSubmit = 0, //!< request arrived at submit() (pre-admission)
    kAdmit,      //!< admission passed; job enqueued with its id
    kShed,       //!< admission rejected the request
    kDispatch,   //!< executor started a job's traversal
    kComplete,   //!< job future fulfilled with a result
    kFail,       //!< execution error (from the executor, then from
                 //!< the engine for the job)
};

const char *servingEventKindName(ServingEventKind kind);

/** One decoded flight-recorder entry. */
struct ServingEvent
{
    uint64_t seq = 0;  //!< global causal order (1-based, gap-free)
    double tsMs = 0;   //!< steady-clock stamp (steadyNowMs)
    uint64_t jobId = 0;      //!< 0 = not yet assigned / executor
    uint64_t fingerprint = 0; //!< Program::fingerprint()
    uint64_t traceId = 0;     //!< per-job correlation id; 0 = none
    uint32_t batchSize = 0;   //!< members, where meaningful
    ServingEventKind kind = ServingEventKind::kSubmit;
    std::string tenant; //!< truncated to kTenantBytes
};

class FlightRecorder
{
  public:
    /** Tenant ids are truncated to this many bytes in the ring. */
    static constexpr size_t kTenantBytes = 24;

    explicit FlightRecorder(size_t capacity = 4096);
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** The process-wide recorder every engine and executor records
     *  into (intentionally leaked, like MetricsRegistry::global). */
    static FlightRecorder &global();

    /** Lock-free; safe from any thread, including under engine
     *  locks. `traceId` is the job's correlation id from
     *  obs/tracectx.h (0 = none, e.g. pre-PR-10 callers). */
    void record(ServingEventKind kind, uint64_t jobId,
                std::string_view tenant, uint64_t fingerprint = 0,
                uint32_t batchSize = 0, uint64_t traceId = 0);

    /** Committed events in causal (sequence) order. A concurrent
     *  writer may cost a dump the slots it is overwriting; those
     *  count as dropped. */
    std::vector<ServingEvent> dump() const;

    /** {"capacity":...,"recorded":...,"dropped":...,"events":[...]}
     *  — valid JSON (tests/json_lint.h), served as /events.json. */
    std::string dumpJson() const;

    /** Writes dumpJson() to `path`; false on I/O failure. The serving
     *  engine calls this on job failure and on teardown-with-failures
     *  when ServingConfig::eventDumpPath is set. */
    bool dumpToFile(const std::string &path) const;

    /** Total events ever offered (recorded - min(recorded, capacity)
     *  of them have been overwritten). */
    uint64_t recorded() const
    {
        return next_.load(std::memory_order_relaxed);
    }
    size_t capacity() const { return cap_; }

  private:
    // Payload packing (all relaxed atomic words):
    //   w[0] jobId          w[1] fingerprint
    //   w[2] bit_cast(tsMs) w[3] kind | batchSize<<8 | tenantLen<<40
    //   w[4] traceId        w[5..7] tenant bytes, NUL-padded
    static constexpr size_t kTenantWords = 3;
    struct Slot
    {
        std::atomic<uint64_t> ticket{0};
        std::atomic<uint64_t> w[5 + kTenantWords]{};
    };

    const size_t cap_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<uint64_t> next_{0};

    /** Slots a dump had to discard after exhausting its retries
     *  (writer kept overwriting them). Cumulative across all dumps of
     *  this recorder's lifetime — it feeds the eventlog.dropped gauge
     *  together with the wraparound-overwritten count. */
    mutable std::atomic<uint64_t> tornDropped_{0};

    /** Registers eventlog.dropped. Declared LAST so it unregisters
     *  before any state it reads is destroyed. */
    GaugeHandle droppedGauge_;
};

} // namespace f1::obs

#endif // F1_OBS_EVENTLOG_H
