/**
 * @file
 * Multi-tenant serving engine: the system layer the SoK on FHE
 * accelerators and BASALISC identify as where deployments live —
 * scheduling many concurrent encrypted jobs, not just fast kernels.
 *
 * Jobs flow through a two-stage pipeline:
 *
 *  1. ADMIT — submit() consults an AdmissionController, which reads
 *     the process-wide metrics registry (serving.jobs_* counters and
 *     the serving.queue_ms p95) plus the tenant's queue depth, and
 *     sheds load with AdmissionRejected when the engine is over its
 *     configured limits. Admitted jobs enter their tenant's FIFO
 *     queue stamped with the tenant class's priority and deadline.
 *
 *  2. EXECUTE — a free worker takes the most urgent queued job
 *     (highest tenant priority, then earliest deadline, then submit
 *     order) and runs it alone through OpGraphExecutor::execute. In
 *     the default throughput mode each worker executes its job
 *     single-threaded (InlineParallelScope), so concurrency comes
 *     from job-level parallelism and jobs never contend for the
 *     shared pool. One job per traversal also means a job's bad
 *     binding or failure reaches only that job's future and tenant.
 *
 * Caches: a shared LRU over plaintext encodings (content-addressed
 * for BOTH schemes, see EncodingKey) and the scheme's synchronized
 * key-switch hint cache mean repeated requests skip re-encoding and
 * re-keygen.
 *
 * Determinism: job outputs are a pure function of (program, inputs,
 * seed) — independent of worker count, queue interleaving, and other
 * tenants' traffic (tests/test_runtime.cpp asserts bit-identity
 * against isolated execution for both schemes).
 *
 * Introspection: every stage transition above is recorded into the
 * process-wide flight recorder (obs/eventlog.h — submit/admit/shed
 * from the engine, dispatch/fail from the executor,
 * complete/fail per job), each completed job feeds the engine's
 * per-tenant SloTracker (obs/slo.h — deadline attainment and
 * burn rate vs TenantPolicy::deadlineMs, published as slo.<tenant>.*
 * so AdmissionLimits::maxBurnRate can shed on it), and an exporter
 * (obs/exporter.h) can serve all of it to a scraper.
 */
#ifndef F1_RUNTIME_SERVING_H
#define F1_RUNTIME_SERVING_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "runtime/op_graph_executor.h"

namespace f1 {

/**
 * One tenant class's scheduling contract. Tenants not named in
 * ServingConfig::tenantPolicies get ServingConfig::defaultTenantPolicy.
 */
struct TenantPolicy
{
    /** Dispatch priority; higher runs first. */
    int priority = 0;

    /** Soft deadline, milliseconds after submit. Orders dispatch
     *  within a priority class (EDF); it is not a hard guarantee. */
    double deadlineMs = 1000.0;

    /** Shed when this tenant already has this many queued jobs
     *  (0 = unlimited). Checked at admission, per tenant, so one
     *  flooding tenant is shed before it can crowd out the rest. */
    size_t maxQueueDepth = 0;
};

/** Engine-wide admission limits (0 disables each check). */
struct AdmissionLimits
{
    /** Shed when the fleet backlog — jobs_submitted minus completed
     *  minus failed, read from the metrics registry — reaches this. */
    size_t maxBacklog = 0;

    /** Shed while the registry's serving.queue_ms p95 exceeds this
     *  (milliseconds). The histogram is cumulative, so this acts on
     *  the process's whole observed history; benches and tests
     *  bracket epochs with MetricsRegistry::reset(). */
    double maxQueueP95Ms = 0;

    /**
     * Shed a tenant while its SLO error-budget burn rate — the
     * registry's slo.<tenant>.burn_rate gauge (published in
     * milli-units by the engine's SloTracker), divided back to a
     * multiplier — is at or over this value. 1.0 means "shedding
     * starts the moment the tenant burns budget faster than
     * sustainable"; practical alerting thresholds are 2-10. Unlike
     * maxQueueP95Ms this is windowed, so it recovers on its own once
     * the tenant's recent jobs meet their deadlines again. Requires a
     * tenant name (engine submits always pass one); metric absent or
     * name empty = check passes.
     */
    double maxBurnRate = 0;
};

/** Thrown by ServingEngine::submit when admission sheds the job. */
class AdmissionRejected : public FatalError
{
  public:
    explicit AdmissionRejected(const std::string &msg)
        : FatalError(msg)
    {
    }
};

/**
 * Decides admit/shed for one would-be job. Deliberately stateless:
 * every decision is computed from a MetricsSnapshot — the same
 * registry view dashboards export — plus the tenant's queue depth,
 * NOT from private engine counters, so the shedding behavior is
 * exactly reproducible from observable metrics (and tests drive it by
 * staging registry state). ServingEngine owns one and consults it in
 * submit(); it is also usable standalone for capacity planning.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionLimits limits)
        : limits_(limits)
    {
    }

    struct Decision
    {
        bool admit = true;
        std::string reason; //!< set when admit == false
    };

    /** Decision from an explicit registry snapshot (the testable
     *  core; pure function of its arguments). `tenantName` keys the
     *  per-tenant SLO metrics (slo.<tenant>.burn_rate) for the
     *  maxBurnRate check; empty skips that check. */
    Decision decide(const obs::MetricsSnapshot &snap,
                    const std::string &tenantName,
                    const TenantPolicy &tenant,
                    size_t tenantQueueDepth) const;

    /** Decision from MetricsRegistry::global().snapshot() (what the
     *  engine calls on every submit). */
    Decision decide(const std::string &tenantName,
                    const TenantPolicy &tenant,
                    size_t tenantQueueDepth) const;

    const AdmissionLimits &limits() const { return limits_; }

  private:
    AdmissionLimits limits_;
};

struct ServingConfig
{
    /** Concurrent job workers; 0 = configuredThreadCount(). */
    unsigned workers = 0;

    /** Entries in the shared plaintext-encoding cache. */
    size_t encodingCacheCapacity = 1024;

    /**
     * true (throughput mode): each worker runs its job
     * single-threaded. false (latency mode): jobs use the shared
     * pool for op/limb parallelism and contend with each other.
     */
    bool inlineIntraOp = true;

    /** Engine-wide admission limits (stage 1; 0s admit everything). */
    AdmissionLimits admission;

    /** Per-tenant classes; tenants not listed get the default. */
    std::map<std::string, TenantPolicy> tenantPolicies;
    TenantPolicy defaultTenantPolicy;

    /** Per-tenant SLO tracking (always on; it is a per-job cost).
     *  Window size and the target attainment the burn rate is
     *  normalized against — see obs/slo.h. */
    obs::SloConfig slo;

    /**
     * When non-empty, the global flight recorder's JSON dump is
     * written here on every failed job and again at engine teardown
     * if any job failed — the post-mortem artifact. Empty (default)
     * never touches the filesystem; /events.json and
     * FlightRecorder::global().dumpJson() stay available either way.
     */
    std::string eventDumpPath;

    /**
     * Execution policy applied to every job. The engine overrides
     * encodingCache with its shared cache, and a job carrying its own
     * ScheduleHints (JobRequest::hints) overrides scheduleHints; the
     * other fields pass through as-is.
     */
    ExecutionPolicy policy;
};

struct JobRequest
{
    /** Program to execute; must outlive the job's future. */
    const Program *program = nullptr;
    std::string tenant = "default";
    RuntimeInputs inputs;

    /** Compiler schedule hints for this job's program (optional; must
     *  outlive the job's future). Overrides ServingConfig's policy
     *  hints, which can only describe one program shape. Hints
     *  affect scheduling order only, never output bits. */
    const ScheduleHints *hints = nullptr;
};

struct JobResult
{
    uint64_t jobId = 0;
    std::string tenant;
    ExecutionResult exec;
    double queueMs = 0;   //!< submit -> worker pickup
    double serviceMs = 0; //!< pickup -> completion (includes prepare)

    /** Correlation id allocated at submit (obs/tracectx.h): the same
     *  id stamps this job's flight-recorder lifecycle events, its
     *  executor trace spans, and its ExecutionProfile::traceId,
     *  so one slow job can be followed across all three. */
    uint64_t traceId = 0;
};

/**
 * The engine's counts live in the metrics registry: "serving.jobs_*"
 * and "serving.shed_jobs" counters, "serving.{queue,service}_ms"
 * histograms, "serving.queue_depth{,_peak}" gauges, and the shared
 * encoding cache's "cache.serving_encoding.*". "serving.batch_size"
 * observes 1 per job; it stays only because the benchmark reads it.
 */
class ServingEngine
{
  public:
    explicit ServingEngine(BgvScheme *bgv, ServingConfig cfg = {});
    explicit ServingEngine(CkksScheme *ckks, ServingConfig cfg = {});

    /** Drains every accepted job, then stops the workers. */
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Admits and enqueues a job; the future resolves when it
     * completes (or carries the job's exception).
     *
     * Lifetime: the engine stores req.program and req.hints as BARE
     * POINTERS for the queued job's whole life — both must stay alive
     * until the returned future resolves (or drain() returns). A
     * destroyed-too-early Program is use-after-free inside a worker,
     * not a catchable error, so keep them owned by the caller's
     * longest-lived scope.
     *
     * Throws FatalError if req.program is null or the engine is
     * shutting down, and AdmissionRejected when the admission
     * controller sheds the job (tenant queue over its cap, fleet
     * backlog or queue-latency p95 over the configured limits); shed
     * jobs count into serving.shed_jobs and are never enqueued.
     */
    std::future<JobResult> submit(JobRequest req);

    /** Blocks until every job submitted so far has completed. */
    void drain();

    unsigned workers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** The admission controller this engine consults (configured
     *  from ServingConfig::admission). */
    const AdmissionController &admission() const { return admission_; }

    /** Per-tenant SLO state (deadline attainment, burn rate) for
     *  every tenant this engine has completed jobs for; also the
     *  /tenants.json source when an exporter is pointed at it. */
    const obs::SloTracker &slo() const { return slo_; }

  private:
    struct Job
    {
        uint64_t id = 0;
        JobRequest req;
        std::promise<JobResult> promise;
        double submitMs = 0;
        uint64_t programFp = 0;  //!< flight-recorder program key
        int priority = 0;        //!< tenant class, frozen at submit
        double deadlineAtMs = 0; //!< submitMs + class deadline
        uint64_t traceId = 0;    //!< correlation id (tracectx.h)
    };

    void start();
    void workerLoop();
    const TenantPolicy &policyFor(const std::string &tenant) const;
    //! Pops the most urgent queued job, if any; m_ held.
    std::optional<Job> popNext();
    //! Executes one job and fulfills its promise.
    void runJob(Job &job);

    BgvScheme *bgv_ = nullptr;
    CkksScheme *ckks_ = nullptr;
    ServingConfig cfg_;
    AdmissionController admission_;
    EncodingCache encCache_;
    //! Publishes slo.<tenant>.* into the registry; its gauges read
    //! atomics only, so registering them is snapshot-safe (see
    //! obs/slo.h on lock ordering).
    obs::SloTracker slo_;

    mutable std::mutex m_;
    std::condition_variable cvWork_;
    std::condition_variable cvDrained_;
    bool accepting_ = true;
    bool stop_ = false;
    uint64_t nextJobId_ = 1;
    size_t pending_ = 0;  //!< queued, not yet picked up
    size_t inFlight_ = 0; //!< picked up, not yet completed
    std::map<std::string, std::deque<Job>> queues_;
    bool anyFailed_ = false; //!< a job failed (teardown dump)

    //! Lock-free mirrors of pending_ and its peak so the
    //! queue-depth gauges never take m_ inside a registry snapshot.
    std::atomic<size_t> depthNow_{0};
    std::atomic<size_t> depthPeak_{0};

    std::vector<std::thread> workers_;

    //! Declared last: gauge callbacks capture `this`, and GaugeHandle
    //! destruction (first in reverse member order) unregisters them
    //! before any engine state they read goes away.
    obs::GaugeHandle depthGauge_;
    obs::GaugeHandle depthPeakGauge_;
};

} // namespace f1

#endif // F1_RUNTIME_SERVING_H
