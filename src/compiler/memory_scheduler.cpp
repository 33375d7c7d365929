#include "compiler/memory_scheduler.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <span>

namespace f1 {

namespace {

constexpr uint32_t kNoUse = UINT32_MAX;

/** Per-value bookkeeping for the residency simulation. */
struct ValState
{
    bool resident = false;
    bool everLoaded = false; //!< compulsory-traffic tracking
    uint32_t usePtr = 0;     //!< index into the uses list
};

class MemScheduler
{
  public:
    MemScheduler(const Dfg &dfg, const F1Config &cfg, MemPolicy policy)
        : dfg_(dfg), policy_(policy),
          capacity_(cfg.scratchSlots(dfg.n)), vals_(dfg.values.size()),
          useStart_(dfg.values.size() + 1, 0)
    {
        F1_REQUIRE(capacity_ >= 8, "scratchpad too small for N");
        // Count, prefix-sum to range ends, then fill each range from
        // its end in reverse instruction order, leaving its start.
        for (const auto &ins : dfg_.instrs)
            for (ValueId v : {ins.src0, ins.src1})
                if (v != kNoValue)
                    ++useStart_[v];
        std::partial_sum(useStart_.begin(), useStart_.end(),
                         useStart_.begin());
        useList_.resize(useStart_.back());
        for (uint32_t i = (uint32_t)dfg_.instrs.size(); i-- > 0;) {
            const auto &ins = dfg_.instrs[i];
            for (ValueId v : {ins.src0, ins.src1})
                if (v != kNoValue)
                    useList_[--useStart_[v]] = i;
        }
    }

    MemScheduleResult
    run()
    {
        std::vector<uint32_t> order = executionOrder();
        posInOrder_.resize(dfg_.instrs.size());
        for (uint32_t i = 0; i < order.size(); ++i)
            posInOrder_[order[i]] = i;
        if (policy_ == MemPolicy::kCsr) {
            for (ValueId v = 0; v < vals_.size(); ++v) {
                std::span<uint32_t> u = uses(v);
                std::sort(u.begin(), u.end(),
                          [&](uint32_t a, uint32_t b) {
                              return posInOrder_[a] < posInOrder_[b];
                          });
            }
        }
        for (uint32_t i = 0; i < order.size(); ++i) {
            curPos_ = i;
            step(order[i]);
        }
        return std::move(result_);
    }

  private:
    /**
     * Instruction ordering. The default follows phase-1 priorities
     * (translation order, topologically valid). The CSR policy
     * (Goodman) greedily minimizes the live-value set.
     */
    std::vector<uint32_t>
    executionOrder()
    {
        const uint32_t n = (uint32_t)dfg_.instrs.size();
        std::vector<uint32_t> order;
        order.reserve(n);
        if (policy_ == MemPolicy::kPriorityBelady) {
            for (uint32_t i = 0; i < n; ++i)
                order.push_back(i);
            return order;
        }

        std::vector<int> deps(n, 0);
        for (uint32_t i = 0; i < n; ++i) {
            const auto &ins = dfg_.instrs[i];
            for (ValueId v : {ins.src0, ins.src1})
                if (v != kNoValue &&
                    dfg_.values[v].producer != UINT32_MAX)
                    ++deps[i];
        }
        std::vector<uint32_t> remaining_uses(dfg_.values.size());
        for (ValueId v = 0; v < vals_.size(); ++v)
            remaining_uses[v] = (uint32_t)uses(v).size();

        auto score = [&](uint32_t i) {
            const auto &ins = dfg_.instrs[i];
            int s = ins.dst != kNoValue ? -1 : 0;
            for (ValueId v : {ins.src0, ins.src1})
                if (v != kNoValue && remaining_uses[v] == 1)
                    ++s; // this use kills the value
            return s;
        };

        using Entry = std::pair<std::pair<int, int64_t>, uint32_t>;
        std::priority_queue<Entry> ready;
        auto push = [&](uint32_t i) {
            ready.push({{score(i), -(int64_t)dfg_.instrs[i].priority},
                        i});
        };
        std::vector<bool> scheduled(n, false);
        for (uint32_t i = 0; i < n; ++i)
            if (deps[i] == 0)
                push(i);
        while (!ready.empty()) {
            auto [key, i] = ready.top();
            ready.pop();
            if (scheduled[i])
                continue;
            if (key.first != score(i)) {
                push(i); // stale score; reinsert
                continue;
            }
            scheduled[i] = true;
            order.push_back(i);
            const auto &ins = dfg_.instrs[i];
            for (ValueId v : {ins.src0, ins.src1})
                if (v != kNoValue)
                    --remaining_uses[v];
            if (ins.dst != kNoValue)
                for (uint32_t user : uses(ins.dst))
                    if (--deps[user] == 0)
                        push(user);
        }
        F1_CHECK(order.size() == n, "CSR left unscheduled instructions");
        return order;
    }

    /** Instructions reading v, in instruction order until run() sorts
     *  them into execution order. */
    std::span<uint32_t>
    uses(ValueId v)
    {
        return {useList_.data() + useStart_[v],
                useList_.data() + useStart_[v + 1]};
    }

    /** Position (in execution order) of v's next use at/after `pos`. */
    uint32_t
    nextUse(ValueId v, uint32_t pos)
    {
        auto &st = vals_[v];
        const auto u = uses(v);
        while (st.usePtr < u.size() &&
               posInOrder_[u[st.usePtr]] < pos)
            ++st.usePtr;
        return st.usePtr < u.size() ? posInOrder_[u[st.usePtr]]
                                    : kNoUse;
    }

    void
    loadValue(ValueId v)
    {
        makeRoom();
        auto &st = vals_[v];
        const auto &info = dfg_.values[v];
        const uint64_t bytes = dfg_.rvecBytes();
        if (info.kind == ValueKind::kKsh) {
            (st.everLoaded ? result_.traffic.kshNonCompulsory
                           : result_.traffic.kshCompulsory) += bytes;
        } else if (info.producer == UINT32_MAX) {
            (st.everLoaded ? result_.traffic.inputNonCompulsory
                           : result_.traffic.inputCompulsory) += bytes;
        } else {
            result_.traffic.intermLoad += bytes;
        }
        st.everLoaded = true;
        st.resident = true;
        ++residentCount_;
        result_.sequence.push_back({MemOp::Type::kLoad, UINT32_MAX, v});
        evictable_.push({nextUse(v, curPos_), v});
    }

    void
    makeRoom()
    {
        while (residentCount_ >= capacity_) {
            F1_CHECK(!evictable_.empty(), "scratchpad deadlock");
            auto [nu, v] = evictable_.top();
            evictable_.pop();
            if (!vals_[v].resident || v == pinned_[0] ||
                v == pinned_[1])
                continue; // stale or in use right now
            uint32_t cur = nextUse(v, curPos_);
            if (cur != nu) {
                evictable_.push({cur, v}); // stale key; refresh
                continue;
            }
            vals_[v].resident = false;
            --residentCount_;
            if (cur == kNoUse)
                continue; // dead: drop silently
            if (dfg_.values[v].producer != UINT32_MAX) {
                // Live intermediate: dirty eviction -> spill (§4.3).
                result_.traffic.intermStore += dfg_.rvecBytes();
                result_.sequence.push_back(
                    {MemOp::Type::kStore, UINT32_MAX, v});
            }
            // Inputs/hints are clean: re-loadable from HBM.
        }
    }

    void
    step(uint32_t pc)
    {
        const auto &ins = dfg_.instrs[pc];

        // A source is pinned once its turn comes: src0's load may evict src1.
        pinned_[0] = ins.src0;
        pinned_[1] = kNoValue;
        if (ins.src0 != kNoValue && !vals_[ins.src0].resident)
            loadValue(ins.src0);
        pinned_[1] = ins.src1;
        if (ins.src1 != kNoValue && !vals_[ins.src1].resident)
            loadValue(ins.src1);
        if (ins.dst != kNoValue) {
            makeRoom();
            vals_[ins.dst].resident = true;
            ++residentCount_;
        }
        result_.sequence.push_back(
            {MemOp::Type::kCompute, pc, kNoValue});
        if (ins.op == Opcode::kStore)
            result_.traffic.intermStore += dfg_.rvecBytes();

        // Retire uses; free dead values immediately (§4.3: "we can
        // often replace a dead value").
        for (ValueId v : {ins.src0, ins.src1}) {
            if (v == kNoValue)
                continue;
            auto &st = vals_[v];
            const uint32_t next = nextUse(v, curPos_ + 1);
            if (next == kNoUse) {
                if (st.resident &&
                    dfg_.values[v].kind != ValueKind::kOutput) {
                    st.resident = false;
                    --residentCount_;
                }
            } else if (st.resident) {
                evictable_.push({next, v});
            }
        }
        if (ins.dst != kNoValue)
            evictable_.push({nextUse(ins.dst, curPos_ + 1), ins.dst});

        result_.peakResidentRVecs =
            std::max(result_.peakResidentRVecs, (size_t)residentCount_);
    }

    const Dfg &dfg_;
    MemPolicy policy_;
    uint32_t capacity_;
    uint32_t residentCount_ = 0;
    uint32_t curPos_ = 0;
    std::vector<ValState> vals_;
    std::vector<uint32_t> useStart_; //!< per value, offset in useList_
    std::vector<uint32_t> useList_;  //!< every value's uses, by value
    std::vector<uint32_t> posInOrder_;
    // Belady evicts the furthest next use: max-heap; kNoUse sorts
    // first naturally.
    std::priority_queue<std::pair<uint32_t, ValueId>> evictable_;
    ValueId pinned_[2] = {kNoValue, kNoValue}; //!< the step's sources
    MemScheduleResult result_;
};

} // namespace

MemScheduleResult
scheduleMemory(const Dfg &dfg, const F1Config &cfg, MemPolicy policy)
{
    return MemScheduler(dfg, cfg, policy).run();
}

} // namespace f1
