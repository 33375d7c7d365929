/**
 * @file
 * Per-job execution profiling: a thread-local ProfileCollector that
 * hot paths report into, and the ExecutionProfile it distills.
 *
 * Attribution model: the OpGraphExecutor installs one collector for
 * the duration of a run (ProfileScope), and the thread pool INHERITS
 * the dispatching thread's collector into every worker executing that
 * batch (see ThreadPool::run). An NTT running on a pool thread as part
 * of job A's key-switch is therefore counted against job A's
 * collector even while job B dispatches concurrently — each pool
 * batch carries its own caller's collector, so per-job counts are
 * exact in both serving modes (inline throughput mode and shared-pool
 * latency mode).
 *
 * Cost when off (no collector installed): every hook is one
 * thread-local pointer load and a predictable branch — this file is
 * what makes ExecutionPolicy::telemetry's "<1% disabled overhead"
 * contract hold by construction. Hooks with a collector installed are
 * relaxed atomic adds (the collector is shared by the workers of one
 * run, never across runs).
 *
 * This header is a LEAF: it must include nothing above <atomic> and
 * friends, because the hot paths that include it (ntt.cpp,
 * keyswitch.cpp, scratch.cpp, lru_cache.h, parallel.cpp) sit below
 * every other layer.
 */
#ifndef F1_OBS_PROFILE_H
#define F1_OBS_PROFILE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace f1::obs {

/** Hot-path event classes attributed to the active collector. */
enum class ProfileCounter : uint8_t {
    kNttForward = 0,   //!< production forward NTTs
    kNttInverse,       //!< production inverse NTTs
    kKeySwitchApply,   //!< KeySwitcher::apply calls
    kBasisExtend,      //!< BasisExtender::extend calls
    kCacheHit,         //!< LRU cache hits (hint + encoding caches)
    kCacheMiss,        //!< LRU cache misses
    kCount,
};

/**
 * Accumulates one run's hot-path activity. All fields are relaxed
 * atomics: a run's workers share the collector concurrently, and the
 * final read happens after the pool joins (which synchronizes).
 *
 * Op-kind slots are indexed by the runtime's HeOpKind values; the
 * executor maps them to names when finalizing (this header cannot see
 * the enum — see the leaf-header note above).
 */
class ProfileCollector
{
  public:
    static constexpr size_t kMaxOpKinds = 16;

    std::array<std::atomic<uint64_t>, size_t(ProfileCounter::kCount)>
        counters{};
    std::array<std::atomic<uint64_t>, kMaxOpKinds> opCount{};
    std::array<std::atomic<uint64_t>, kMaxOpKinds> opNanos{};

    /** Scratch-arena live words under this collector; peak is the
     *  per-job scratch high-water mark. Signed: a handle may be
     *  released under a different collector than it was acquired
     *  under (moved handles), which must not wrap. */
    std::atomic<int64_t> scratchLiveWords{0};
    std::atomic<int64_t> scratchPeakWords{0};

    void
    add(ProfileCounter c, uint64_t d = 1)
    {
        counters[size_t(c)].fetch_add(d, std::memory_order_relaxed);
    }

    void
    addOp(size_t kind, uint64_t nanos)
    {
        if (kind >= kMaxOpKinds)
            return;
        opCount[kind].fetch_add(1, std::memory_order_relaxed);
        opNanos[kind].fetch_add(nanos, std::memory_order_relaxed);
    }

    void
    scratchAcquire(int64_t words)
    {
        const int64_t live =
            scratchLiveWords.fetch_add(words,
                                       std::memory_order_relaxed) +
            words;
        int64_t peak = scratchPeakWords.load(std::memory_order_relaxed);
        while (live > peak &&
               !scratchPeakWords.compare_exchange_weak(
                   peak, live, std::memory_order_relaxed)) {
        }
    }

    void
    scratchRelease(int64_t words)
    {
        scratchLiveWords.fetch_sub(words, std::memory_order_relaxed);
    }
};

/** The calling thread's active collector (nullptr = profiling off). */
extern thread_local ProfileCollector *t_profileCollector;

inline ProfileCollector *
profileCollector()
{
    return t_profileCollector;
}

/** Installs `c` for the calling thread; returns the previous one. */
inline ProfileCollector *
setProfileCollector(ProfileCollector *c)
{
    ProfileCollector *prev = t_profileCollector;
    t_profileCollector = c;
    return prev;
}

/** RAII install/restore; the pool wraps batch bodies in one. */
class ProfileScope
{
  public:
    explicit ProfileScope(ProfileCollector *c)
        : prev_(setProfileCollector(c))
    {
    }
    ~ProfileScope() { t_profileCollector = prev_; }
    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    ProfileCollector *prev_;
};

/** The hot-path hook: one TLS load + branch when profiling is off. */
inline void
profileAdd(ProfileCounter c, uint64_t d = 1)
{
    if (ProfileCollector *col = t_profileCollector)
        col->add(c, d);
}

inline void
profileScratchAcquire(int64_t words)
{
    if (ProfileCollector *col = t_profileCollector)
        col->scratchAcquire(words);
}

inline void
profileScratchRelease(int64_t words)
{
    if (ProfileCollector *col = t_profileCollector)
        col->scratchRelease(words);
}

/**
 * One run's distilled profile, attached to ExecutionResult::profile
 * (and therefore JobResult::exec.profile) when
 * ExecutionPolicy::telemetry.profile is set.
 */
struct ExecutionProfile
{
    struct OpKindSlice
    {
        uint64_t count = 0;
        double totalMs = 0;
    };

    /** Time/count breakdown by HE op kind, keyed by kind name. */
    std::map<std::string, OpKindSlice> opKinds;

    // Hot-path invocation counts (see ProfileCounter).
    uint64_t nttForward = 0;
    uint64_t nttInverse = 0;
    uint64_t keySwitchApplies = 0;
    uint64_t basisExtends = 0;
    uint64_t cacheHits = 0;   //!< all LRU caches (hints + encodings)
    uint64_t cacheMisses = 0;

    /** Plaintext-encoding cache traffic (subset of cacheHits/Misses,
     *  broken out because the serving engine budgets it). */
    uint64_t encodingCacheHits = 0;
    uint64_t encodingCacheMisses = 0;

    /** Scratch-arena high-water mark over the run, in 8-byte words. */
    int64_t scratchPeakWords = 0;

    double prepareMs = 0; //!< untimed phase: keys, encrypt, encode
    double executeMs = 0; //!< timed phase (== ExecutionResult.wallMs)

    std::string label; //!< TelemetryOptions::label (serving: tenant)

    /** Correlation id of the job this profile covers
     *  (obs/tracectx.h; 0 = untraced). */
    uint64_t traceId = 0;

    std::string toJson() const;
};

} // namespace f1::obs

#endif // F1_OBS_PROFILE_H
