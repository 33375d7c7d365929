/**
 * @file
 * Correlated tracing: the per-job trace id that stitches the three
 * telemetry systems together, an always-available live capture ring,
 * and the correlated Perfetto writer.
 *
 * The flight recorder (obs/eventlog.h) knows a job's serving
 * lifecycle, the per-op tracer (obs/trace.h) knows which HeOps ran on
 * which worker, and the ExecutionProfile knows the job's hot-path
 * totals — but before this layer they shared no key, so a p99 outlier
 * in serving.service_ms could not be followed from submit through
 * admission to the ops that ran it. ServingEngine::submit allocates
 * one 64-bit trace id per job (allocateTraceId) and threads it
 * through every artifact; writeCorrelatedTrace then merges the
 * serving lifecycle lane and the executor span lanes into ONE
 * Chrome trace-event document with flow events ("ph":"s"/"t"/"f",
 * id = the trace id) linking each job's submit→admit→dispatch→
 * complete chain to the first executor span that ran it.
 *
 * LiveTraceCapture is the /tracez?ms=N instrument: a process-wide
 * seqlock ring (same discipline as the flight recorder's slots —
 * atomic words under a per-slot ticket, torn reads discarded, never
 * UB) that the executor feeds ONLY while a capture is armed. Cost
 * when disarmed is one relaxed atomic load per op on top of the
 * telemetry null checks; arming needs no engine restart and no
 * per-job telemetry opt-in, which is what makes it a live instrument
 * rather than a config change.
 */
#ifndef F1_OBS_TRACECTX_H
#define F1_OBS_TRACECTX_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/eventlog.h"
#include "obs/trace.h"

namespace f1::obs {

/** Process-unique, never-zero 64-bit trace id (0 = "untraced"). Ids
 *  are a mixed counter, so they are unique AND well-distributed —
 *  suitable as Perfetto flow-event ids without collision checks. */
uint64_t allocateTraceId();

/** Absolute steady-clock nanoseconds — the shared time base of the
 *  tracer epoch (Tracer::epochNs), the flight recorder's tsMs, and
 *  the live capture ring. */
inline int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * On-demand live span capture: a fixed ring of per-slot seqlocks the
 * executor mirrors op spans into while at least one capture is armed
 * (arm/disarm nest). Readers never block writers; a dump is a
 * consistent sample of committed slots. Serves /tracez?ms=N.
 */
class LiveTraceCapture
{
  public:
    explicit LiveTraceCapture(size_t capacity = 8192);
    LiveTraceCapture(const LiveTraceCapture &) = delete;
    LiveTraceCapture &operator=(const LiveTraceCapture &) = delete;

    /** The process-wide ring every executor feeds (intentionally
     *  leaked, like FlightRecorder::global). */
    static LiveTraceCapture &global();

    /** One relaxed load — the executor's per-op gate. */
    bool
    armed() const
    {
        return armed_.load(std::memory_order_relaxed) != 0;
    }

    /** arm/disarm nest: concurrent /tracez windows share the ring. */
    void arm() { armed_.fetch_add(1, std::memory_order_relaxed); }
    void disarm() { armed_.fetch_sub(1, std::memory_order_relaxed); }

    /** Records one op span. `tsNs` is ABSOLUTE steady-clock ns
     *  (steadyNowNs / Tracer::epochNs() + span ts); `name` must be a
     *  static string (op kind name). Lock-free. */
    void record(int64_t tsNs, int64_t durNs, const char *name,
                int32_t handle, uint64_t traceId,
                int64_t predictedCycle);

    struct CapturedSpan
    {
        int64_t tsNs = 0; //!< absolute steady-clock start
        int64_t durNs = 0;
        const char *name = nullptr;
        int32_t handle = -1;
        uint32_t lane = 0; //!< per-thread capture lane
        uint64_t traceId = 0;
        int64_t predictedCycle = -1;
    };

    /** Committed spans with tsNs >= sinceNs, time-sorted. */
    std::vector<CapturedSpan> spansSince(int64_t sinceNs) const;

    /**
     * The /tracez?ms=N entry point: arms the ring, sleeps for the
     * (clamped, 1..2000ms) window, disarms, and renders the window's
     * spans as a Chrome trace-event JSON document with timestamps
     * re-based to the window start. Blocks the calling thread for the
     * window — the exporter's serial server serves nothing else
     * meanwhile, which a live-debugging client accepts by asking.
     */
    std::string captureJson(int64_t windowMs);

    size_t capacity() const { return cap_; }
    uint64_t
    recorded() const
    {
        return next_.load(std::memory_order_relaxed);
    }

  private:
    // Payload packing (relaxed atomic words under the ticket):
    //   w[0] tsNs  w[1] durNs  w[2] name (static-string address)
    //   w[3] handle | lane<<32  w[4] traceId  w[5] predictedCycle
    static constexpr size_t kWords = 6;
    struct Slot
    {
        std::atomic<uint64_t> ticket{0};
        std::atomic<uint64_t> w[kWords]{};
    };

    const size_t cap_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<uint64_t> next_{0};
    std::atomic<int> armed_{0};
};

/**
 * Merges finished executor traces and the flight recorder's serving
 * lifecycle into one correlated Chrome trace-event document:
 *
 *  - pid 0 "executor": every trace's op spans and sched instants, one
 *    tid block per trace (lanes keep their relative ids), timestamps
 *    re-based from each tracer's absolute epoch onto a common origin;
 *  - pid 1 "serving": one instant per ServingEvent (submit/admit/...)
 *    carrying job id, tenant, batch size, and trace id;
 *  - flow events named "job" (id = the trace id, hex): "s" at a job's
 *    first lifecycle event, "t" at each later one, and a terminating
 *    "f" (bp:"e") bound to the job's FIRST executor span — the arrows
 *    Perfetto draws from the serving lane into the op that ran it.
 *
 * Traces and events both stamp the steady clock, so the merge needs
 * no cross-clock translation. Events or spans with traceId 0 render
 * but get no flow. Returns the number of flow-linked jobs.
 */
size_t writeCorrelatedTrace(
    std::ostream &os,
    std::span<const std::shared_ptr<const Trace>> traces,
    const std::vector<ServingEvent> &events);

/** writeCorrelatedTrace into a string (tests, small dumps). */
std::string correlatedTraceJson(
    std::span<const std::shared_ptr<const Trace>> traces,
    const std::vector<ServingEvent> &events);

} // namespace f1::obs

#endif // F1_OBS_TRACECTX_H
