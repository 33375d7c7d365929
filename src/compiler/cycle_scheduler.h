/**
 * @file
 * Phase 3 of the F1 compiler (paper §4.4): the cycle-level scheduler.
 * Consumes the phase-2 operation sequence and assigns exact cycles to
 * every instruction and transfer under all structural constraints:
 * per-cluster FU occupancy, register-file capacity, scratchpad bank
 * ports, crossbar cluster ports, and HBM bandwidth. Loads are hoisted
 * to their earliest issue cycle within a decoupling window (§3's
 * decoupled data orchestration).
 *
 * Because the schedule is fully static, this scheduler doubles as the
 * performance model (§4.4: "our scheduler also doubles as a
 * performance measurement tool"); the sim/ checker independently
 * replays the produced events to validate the static schedule.
 */
#ifndef F1_COMPILER_CYCLE_SCHEDULER_H
#define F1_COMPILER_CYCLE_SCHEDULER_H

#include <array>
#include <cstdint>
#include <vector>

#include "arch/area_power.h"
#include "compiler/memory_scheduler.h"

namespace f1 {

/** One scheduled occupancy interval on a hardware resource. */
struct ScheduledEvent
{
    enum class Res : uint8_t {
        kFu,          //!< (cluster, fuType, unit)
        kHbm,
        kBankRead,    //!< (bank)
        kBankWrite,
        kClusterIn,   //!< (cluster)
        kClusterOut,
    };
    Res res;
    uint16_t a = 0, b = 0, c = 0; //!< resource coordinates
    uint64_t start = 0, end = 0;  //!< [start, end) busy interval
    InstrId instr = UINT32_MAX;
    ValueId value = kNoValue;
};

/** Per-kind activity timeline, bucketed (Fig. 10). */
struct Timeline
{
    uint32_t bucketCycles = 4096;
    // Active FU-cycles per bucket, per FU class.
    std::vector<std::array<uint64_t, 4>> fuActive;
    std::vector<uint64_t> hbmBytes;

    void
    addFu(FuType t, uint64_t cycle, uint64_t cycles)
    {
        size_t b = cycle / bucketCycles;
        if (fuActive.size() <= b)
            fuActive.resize(b + 1, {0, 0, 0, 0});
        fuActive[b][(size_t)t] += cycles;
    }
    void
    addHbm(uint64_t cycle, uint64_t bytes)
    {
        size_t b = cycle / bucketCycles;
        if (hbmBytes.size() <= b)
            hbmBytes.resize(b + 1, 0);
        hbmBytes[b] += bytes;
    }
};

struct ScheduleResult
{
    uint64_t cycles = 0; //!< makespan
    TrafficBytes traffic;
    std::array<uint64_t, 4> fuBusyCycles{}; //!< by FuType
    uint64_t hbmBusyCycles = 0;
    uint64_t nocBytes = 0;      //!< bank<->cluster transfers
    uint64_t scratchBytes = 0;  //!< bank port traffic
    uint64_t rfBytes = 0;       //!< register-file traffic
    Timeline timeline;
    std::vector<ScheduledEvent> events;

    /**
     * Issue cycle assigned to every instruction (parallel to
     * dfg.instrs; stores record their HBM start). Always populated —
     * unlike `events` it is one word per instruction, and it is the
     * raw material deriveScheduleHints turns into runtime priorities.
     */
    std::vector<uint64_t> instrIssueCycle;

    double
    timeMs(const F1Config &cfg) const
    {
        return (double)cycles / (cfg.freqGHz * 1e6);
    }

    /** Average power (W) over the run, split by component. */
    struct Power
    {
        double fus, regFiles, noc, scratch, hbm, total;
    };
    Power averagePower(const F1Config &cfg,
                       const EnergyRates &rates = {}) const;
};

/** Most clusters the register-file model tracks: one bit each in a
 *  64-bit residency mask. */
constexpr uint32_t kMaxClusters = 64;

/** @throws FatalError if `cfg` lacks clusters, a FU class, scratchpad
 *  banks, lanes, port bytes or HBM bandwidth, or has more than
 *  kMaxClusters clusters. */
ScheduleResult scheduleCycles(const Dfg &dfg, const MemScheduleResult &mem,
                              const F1Config &cfg,
                              bool record_events = false);

} // namespace f1

#endif // F1_COMPILER_CYCLE_SCHEDULER_H
