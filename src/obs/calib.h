/**
 * @file
 * Schedule-calibration observatory: per-op-kind linear fit of the
 * compiler's predicted start cycles against measured start times.
 *
 * F1's headline claim (§4.4) is that static cycle scheduling keeps the
 * datapath saturated; the instrument for that claim is the residual
 * between the cycle scheduler's predicted startCycle and when the op
 * actually started. The tracer has carried the pair per span since the
 * telemetry PR, but nothing aggregated it — a reviewer had to eyeball
 * Perfetto. ScheduleCalibration closes the loop: executors feed it
 * (predicted startCycle, measured start ns) pairs per op kind, it
 * maintains a least-squares fit y = slope·x + intercept plus the mean
 * absolute error of the fit over a bounded recent window, and it
 * publishes everything twice — as registry gauges
 * (calib.<kind>.{samples,slope_milli,intercept_ns,mae_ns}) for
 * Prometheus, and as /calibration.json for humans.
 *
 * Interpretation: slope_ns_per_cycle is the effective ns-per-cycle of
 * the schedule on this machine (the software runtime has no fixed
 * clock, so the fit DISCOVERS the scale factor); mae_ns is how far a
 * typical op strays from the line — the direct measure of how well the
 * static schedule predicts reality. A growing MAE under load is the
 * "schedule no longer matches the machine" signal the ROADMAP's
 * perf items gate against.
 */
#ifndef F1_OBS_CALIB_H
#define F1_OBS_CALIB_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace f1::obs {

class ScheduleCalibration
{
  public:
    /** Kinds are dense small enums (HeOpKind casts); anything >= this
     *  is ignored rather than resized under a hot-path lock. */
    static constexpr size_t kMaxKinds = 16;

    /** Recent-window ring per kind: MAE is computed over at most this
     *  many retained pairs (the running fit itself uses ALL samples
     *  via running sums). */
    static constexpr size_t kRingCap = 512;

    ScheduleCalibration() = default;
    ScheduleCalibration(const ScheduleCalibration &) = delete;
    ScheduleCalibration &operator=(const ScheduleCalibration &) =
        delete;

    /** The process-wide accumulator every executor feeds
     *  (intentionally leaked, like the other obs globals). */
    static ScheduleCalibration &global();

    /**
     * Records one (predicted cycle, measured start ns) pair. `name`
     * must be a static string (op kind name); it doubles as the metric
     * label on first use. `measuredNs` is relative to the run's
     * execute epoch so pairs from different runs share an origin of
     * "start of traversal". Takes the kind's mutex — callers are on
     * the traced path already (a span was just recorded), so this
     * never touches the telemetry-off path.
     */
    void record(size_t kind, const char *name, uint64_t predictedCycle,
                int64_t measuredNs);

    struct KindFit
    {
        std::string name;
        uint64_t samples = 0;
        double slopeNsPerCycle = 0;
        double interceptNs = 0;
        double maeNs = 0;
        size_t retained = 0; //!< pairs in the MAE window (<= kRingCap)
    };

    /** Fits for every kind with >= 1 sample, kind-index order. */
    std::vector<KindFit> snapshot() const;

    /** The /calibration.json document. */
    std::string toJson() const;

    /** Drops all samples and fits (bench epochs, tests). Registered
     *  gauges stay registered and read the zeroed mirrors. */
    void reset();

  private:
    struct Kind
    {
        mutable std::mutex m;
        const char *name = nullptr;
        uint64_t n = 0;
        // Running least-squares sums over ALL samples (x = predicted
        // cycle, y = measured ns).
        double sx = 0, sy = 0, sxx = 0, sxy = 0;
        // Bounded recent window for the MAE.
        std::vector<std::pair<double, double>> ring;
        size_t ringNext = 0;

        // Gauge mirrors: snapshot() holds the registry lock while
        // evaluating gauges, so gauge callbacks must NOT take the
        // kind mutex (lock-order rule from obs/metrics.h) — they read
        // these relaxed atomics instead. Signed fit values are
        // clamped at 0 for the uint64 gauge surface; /calibration.json
        // carries the signed doubles.
        std::atomic<uint64_t> gSamples{0};
        std::atomic<uint64_t> gSlopeMilli{0};
        std::atomic<uint64_t> gInterceptNs{0};
        std::atomic<uint64_t> gMaeNs{0};
        std::vector<GaugeHandle> gauges;
    };

    void refit(Kind &k);

    Kind kinds_[kMaxKinds];
};

} // namespace f1::obs

#endif // F1_OBS_CALIB_H
