#include "compiler/cycle_scheduler.h"

#include <algorithm>
#include <cmath>

namespace f1 {

namespace {

/**
 * Every cluster's register file as an LRU over a few RVec slots.
 * Residency is one mask word per value (bit c: resident in cluster c),
 * so probing a cluster is a load. Each cluster's slots hold (value,
 * last-touch stamp) pairs; a miss replaces the smallest stamp, an empty
 * slot first. A value just touched holds the largest stamp, so it is
 * never the victim. A touch scans one cluster's slots, which are few
 * (regFileSlots: 8 at n=16384, 128 at n=1024).
 */
class RegisterFiles
{
  public:
    RegisterFiles(uint32_t clusters, uint32_t slots, size_t values)
        : slots_(std::max(2u, slots)), resident_(values, 0),
          slot_((size_t)clusters * slots_)
    {
    }

    bool
    contains(uint16_t c, ValueId v) const
    {
        return (resident_[v] >> c) & 1;
    }

    /** Marks v most recently used in cluster c, loading it on a miss.
     *  @return whether v was already resident. */
    bool
    touch(uint16_t c, ValueId v)
    {
        const uint64_t bit = uint64_t{1} << c;
        Slot *first = &slot_[(size_t)c * slots_], *last = first + slots_;
        const bool hit = resident_[v] & bit;
        Slot *s;
        if (hit) {
            s = std::find_if(first, last,
                             [v](const Slot &x) { return x.value == v; });
        } else {
            s = std::min_element(first, last,
                                 [](const Slot &a, const Slot &b) {
                                     return a.stamp < b.stamp;
                                 });
            if (s->value != kNoValue)
                resident_[s->value] &= ~bit;
            s->value = v;
            resident_[v] |= bit;
        }
        s->stamp = ++stamp_;
        return hit;
    }

  private:
    struct Slot
    {
        ValueId value = kNoValue;
        uint64_t stamp = 0; //!< 0: never filled
    };

    uint32_t slots_;
    uint64_t stamp_ = 0;
    std::vector<uint64_t> resident_; //!< per value, cluster bitmask
    std::vector<Slot> slot_;         //!< slots_ per cluster
};

class CycleScheduler
{
  public:
    CycleScheduler(const Dfg &dfg, const MemScheduleResult &mem,
                   const F1Config &cfg, bool record)
        : dfg_(dfg), mem_(mem), cfg_(cfg), record_(record),
          rf_(cfg.clusters, cfg.regFileSlots(dfg.n), dfg.values.size())
    {
        result_.traffic = mem.traffic;
        const uint32_t n = dfg.n;
        hbmCyclesPerRVec_ = std::max<uint64_t>(
            1, (uint64_t)std::llround(dfg.rvecBytes() /
                                      cfg.hbmBytesPerCycle()));
        portCycles_ = cfg.portCycles(n);
        bankRead_.assign(cfg.scratchBanks, 0);
        bankWrite_.assign(cfg.scratchBanks, 0);
        clusterIn_.assign(cfg.clusters, 0);
        clusterOut_.assign(cfg.clusters, 0);
        for (FuType t : {FuType::kNtt, FuType::kAut, FuType::kMul,
                         FuType::kAdd}) {
            fuFree_[(size_t)t].assign(
                (size_t)cfg.clusters * cfg.fuCount(t), 0);
        }
        valueReady_.assign(dfg.values.size(), 0);
        result_.instrIssueCycle.assign(dfg.instrs.size(), 0);
        // Decoupling window: about half the scratchpad of prefetch.
        prefetchWindow_ =
            (uint64_t)(cfg.scratchBytes() / 2 / cfg.hbmBytesPerCycle());
    }

    ScheduleResult
    run()
    {
        for (const MemOp &op : mem_.sequence) {
            switch (op.type) {
              case MemOp::Type::kLoad:
                doLoad(op.value);
                break;
              case MemOp::Type::kStore:
                doStore(op.value);
                break;
              case MemOp::Type::kCompute:
                doCompute(op.instr);
                break;
            }
        }
        result_.cycles = makespan_;
        return std::move(result_);
    }

  private:
    uint16_t homeBank(ValueId v) const { return v % cfg_.scratchBanks; }

    void
    recordEvent(ScheduledEvent ev)
    {
        if (record_)
            result_.events.push_back(ev);
    }

    void
    doLoad(ValueId v)
    {
        // Decoupled prefetch: issue as early as bandwidth allows, but
        // not more than a window ahead of the compute frontier.
        uint64_t earliest =
            frontier_ > prefetchWindow_ ? frontier_ - prefetchWindow_
                                        : 0;
        uint64_t start = std::max(hbmFree_, earliest);
        hbmFree_ = start + hbmCyclesPerRVec_;
        result_.hbmBusyCycles += hbmCyclesPerRVec_;
        result_.timeline.addHbm(start, dfg_.rvecBytes());
        recordEvent({ScheduledEvent::Res::kHbm, 0, 0, 0, start,
                     hbmFree_, UINT32_MAX, v});

        uint64_t arrive = hbmFree_ + cfg_.hbmLatency;
        uint16_t bank = homeBank(v);
        uint64_t wp = std::max(bankWrite_[bank], arrive);
        bankWrite_[bank] = wp + portCycles_;
        recordEvent({ScheduledEvent::Res::kBankWrite, bank, 0, 0, wp,
                     wp + portCycles_, UINT32_MAX, v});
        valueReady_[v] = wp + portCycles_;
        result_.scratchBytes += dfg_.rvecBytes();
        bump(valueReady_[v]);
    }

    /** @return the store's HBM start cycle. */
    uint64_t
    doStore(ValueId v)
    {
        uint16_t bank = homeBank(v);
        uint64_t rp = std::max(bankRead_[bank], valueReady_[v]);
        bankRead_[bank] = rp + portCycles_;
        uint64_t start = std::max(hbmFree_, rp + portCycles_);
        hbmFree_ = start + hbmCyclesPerRVec_;
        result_.hbmBusyCycles += hbmCyclesPerRVec_;
        result_.timeline.addHbm(start, dfg_.rvecBytes());
        result_.scratchBytes += dfg_.rvecBytes();
        recordEvent({ScheduledEvent::Res::kHbm, 0, 0, 0, start,
                     hbmFree_, UINT32_MAX, v});
        bump(hbmFree_);
        return start;
    }

    /** Fetches an operand into cluster c; returns its arrival cycle. */
    uint64_t
    fetchOperand(uint16_t c, ValueId v)
    {
        result_.rfBytes += dfg_.rvecBytes();
        if (rf_.touch(c, v))
            return valueReady_[v];
        uint16_t bank = homeBank(v);
        uint64_t t = std::max({bankRead_[bank], clusterIn_[c],
                               valueReady_[v]});
        bankRead_[bank] = t + portCycles_;
        clusterIn_[c] = t + portCycles_;
        recordEvent({ScheduledEvent::Res::kBankRead, bank, 0, 0, t,
                     t + portCycles_, UINT32_MAX, v});
        recordEvent({ScheduledEvent::Res::kClusterIn, c, 0, 0, t,
                     t + portCycles_, UINT32_MAX, v});
        result_.nocBytes += dfg_.rvecBytes();
        result_.scratchBytes += dfg_.rvecBytes();
        return t + portCycles_;
    }

    void
    doCompute(InstrId id)
    {
        const Instruction &ins = dfg_.instrs[id];
        if (ins.op == Opcode::kStore) {
            // Output stores flow through the memory path.
            result_.instrIssueCycle[id] = doStore(ins.src0);
            return;
        }
        const FuType fu = fuFor(ins.op);
        const uint32_t units = cfg_.fuCount(fu);

        // Cluster choice: prefer operand locality, then earliest FU.
        const uint64_t *fu_free_at = fuFree_[(size_t)fu].data();
        uint16_t cluster = 0;
        uint32_t unit = 0;
        uint64_t best = UINT64_MAX, fu_free = 0;
        for (uint16_t c = 0; c < cfg_.clusters; ++c) {
            const uint64_t *at = fu_free_at + c * units;
            uint32_t u = 0; // the cluster's earliest-free unit
            for (uint32_t k = 1; k < units; ++k)
                if (at[k] < at[u])
                    u = k;
            uint64_t score = at[u];
            for (ValueId v : {ins.src0, ins.src1})
                if (v != kNoValue && rf_.contains(c, v))
                    score = score > portCycles_ ? score - portCycles_
                                                : 0;
            if (score < best) {
                best = score;
                cluster = c;
                unit = u;
                fu_free = at[u];
            }
        }

        uint64_t operands = 0;
        for (ValueId v : {ins.src0, ins.src1})
            if (v != kNoValue)
                operands = std::max(operands,
                                    fetchOperand(cluster, v));

        const uint32_t occ = cfg_.occupancy(fu, dfg_.n);
        uint64_t issue = std::max(operands, fu_free);
        result_.instrIssueCycle[id] = issue;
        fuFree_[(size_t)fu][cluster * units + unit] = issue + occ;
        result_.fuBusyCycles[(size_t)fu] += occ;
        result_.timeline.addFu(fu, issue, occ);
        recordEvent({ScheduledEvent::Res::kFu, cluster, (uint16_t)fu,
                     (uint16_t)unit, issue, issue + occ, id, kNoValue});

        uint64_t done = issue + cfg_.latency(ins.op, dfg_.n);
        frontier_ = std::max(frontier_, issue);

        if (ins.dst != kNoValue) {
            // Result into the RF, then written back to its home bank.
            rf_.touch(cluster, ins.dst);
            result_.rfBytes += dfg_.rvecBytes();
            uint16_t bank = homeBank(ins.dst);
            uint64_t t = std::max({clusterOut_[cluster],
                                   bankWrite_[bank], done});
            clusterOut_[cluster] = t + portCycles_;
            bankWrite_[bank] = t + portCycles_;
            recordEvent({ScheduledEvent::Res::kClusterOut, cluster, 0,
                         0, t, t + portCycles_, id, ins.dst});
            recordEvent({ScheduledEvent::Res::kBankWrite, bank, 0, 0,
                         t, t + portCycles_, id, ins.dst});
            result_.nocBytes += dfg_.rvecBytes();
            result_.scratchBytes += dfg_.rvecBytes();
            valueReady_[ins.dst] = t + portCycles_;
            bump(valueReady_[ins.dst]);
        } else {
            bump(done);
        }
    }

    void
    bump(uint64_t t)
    {
        makespan_ = std::max(makespan_, t);
    }

    const Dfg &dfg_;
    const MemScheduleResult &mem_;
    F1Config cfg_;
    bool record_;
    RegisterFiles rf_;

    uint64_t hbmCyclesPerRVec_ = 1;
    uint32_t portCycles_ = 1;
    uint64_t prefetchWindow_ = 0;
    uint64_t hbmFree_ = 0;
    uint64_t frontier_ = 0;  //!< latest compute issue so far
    uint64_t makespan_ = 0;
    std::vector<uint64_t> bankRead_, bankWrite_;
    std::vector<uint64_t> clusterIn_, clusterOut_;
    std::array<std::vector<uint64_t>, 4> fuFree_;
    std::vector<uint64_t> valueReady_;
    ScheduleResult result_;
};

} // namespace

ScheduleResult::Power
ScheduleResult::averagePower(const F1Config &cfg,
                             const EnergyRates &rates) const
{
    const double seconds = cycles / (cfg.freqGHz * 1e9);
    if (seconds <= 0)
        return {};
    double fus_j = fuBusyCycles[(size_t)FuType::kNtt] * rates.nttCycle +
                   fuBusyCycles[(size_t)FuType::kAut] * rates.autCycle +
                   fuBusyCycles[(size_t)FuType::kMul] * rates.mulCycle +
                   fuBusyCycles[(size_t)FuType::kAdd] * rates.addCycle;
    fus_j *= 1e-9; // nJ -> J
    double rf_j = rfBytes * rates.regFileByte * 1e-9;
    double noc_j = nocBytes * rates.nocByte * 1e-9;
    double scratch_j = scratchBytes * rates.scratchByte * 1e-9;
    double hbm_j = traffic.total() * rates.hbmByte * 1e-9;
    Power p;
    p.fus = fus_j / seconds;
    p.regFiles = rf_j / seconds;
    p.noc = noc_j / seconds;
    p.scratch = scratch_j / seconds;
    p.hbm = hbm_j / seconds;
    p.total = p.fus + p.regFiles + p.noc + p.scratch + p.hbm;
    return p;
}

ScheduleResult
scheduleCycles(const Dfg &dfg, const MemScheduleResult &mem,
               const F1Config &cfg, bool record_events)
{
    F1_REQUIRE(cfg.clusters >= 1 && cfg.clusters <= kMaxClusters,
               "F1Config::clusters = " << cfg.clusters << " outside [1, "
                                       << kMaxClusters << "]");
    for (FuType t : {FuType::kNtt, FuType::kAut, FuType::kMul,
                     FuType::kAdd})
        F1_REQUIRE(cfg.fuCount(t) >= 1, "F1Config has no FU of class "
                                            << (int)t);
    F1_REQUIRE(cfg.scratchBanks >= 1 && cfg.lanes >= 1 &&
                   cfg.portBytes >= 1 && cfg.hbmBytesPerCycle() > 0,
               "F1Config needs scratchpad banks, lanes, port bytes and "
               "HBM bandwidth");
    return CycleScheduler(dfg, mem, cfg, record_events).run();
}

} // namespace f1
