#include "runtime/serving.h"

#include <limits>
#include <optional>

#include "common/error.h"
#include "common/parallel.h"
#include "common/time_util.h"
#include "obs/tracectx.h"

namespace f1 {

namespace {

/** Registry-resolved serving metrics; resolved once, process-wide. */
struct ServingMetrics
{
    obs::Counter &submitted;
    obs::Counter &completed;
    obs::Counter &failed;
    obs::Counter &shed;
    obs::Counter &dispatchPenalties;
    obs::Histogram &queueMs;
    obs::Histogram &serviceMs;
    obs::Histogram &batchSize;

    static ServingMetrics &
    get()
    {
        static constexpr double kBatchBounds[] = {1,  2,  4,  8,
                                                  16, 32, 64, 128};
        // Latency histograms carry a p99 on top of the default
        // p50/p95 set: tail latency is what SLO deadlines price.
        static constexpr double kLatencyQuantiles[] = {0.50, 0.95,
                                                       0.99};
        auto &reg = obs::MetricsRegistry::global();
        static ServingMetrics m{
            reg.counter("serving.jobs_submitted"),
            reg.counter("serving.jobs_completed"),
            reg.counter("serving.jobs_failed"),
            reg.counter("serving.shed_jobs"),
            reg.counter("serving.dispatch_penalties"),
            reg.histogram("serving.queue_ms", {}, kLatencyQuantiles),
            reg.histogram("serving.service_ms", {},
                          kLatencyQuantiles),
            reg.histogram("serving.batch_size", kBatchBounds),
        };
        return m;
    }
};

uint64_t
counterOrZero(const obs::MetricsSnapshot &snap, const char *name)
{
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

} // namespace

AdmissionController::Decision
AdmissionController::decide(const obs::MetricsSnapshot &snap,
                            const std::string &tenantName,
                            const TenantPolicy &tenant,
                            size_t tenantQueueDepth) const
{
    Decision d;
    if (tenant.maxQueueDepth != 0 &&
        tenantQueueDepth >= tenant.maxQueueDepth) {
        d.admit = false;
        std::ostringstream os;
        os << "tenant queue depth " << tenantQueueDepth
           << " at its cap " << tenant.maxQueueDepth;
        d.reason = os.str();
        return d;
    }
    if (limits_.maxBacklog != 0) {
        const uint64_t sub =
            counterOrZero(snap, "serving.jobs_submitted");
        const uint64_t done =
            counterOrZero(snap, "serving.jobs_completed");
        const uint64_t fail =
            counterOrZero(snap, "serving.jobs_failed");
        const uint64_t backlog =
            sub > done + fail ? sub - done - fail : 0;
        if (backlog >= limits_.maxBacklog) {
            d.admit = false;
            std::ostringstream os;
            os << "fleet backlog " << backlog << " at its cap "
               << limits_.maxBacklog
               << " (serving.jobs_submitted - completed - failed)";
            d.reason = os.str();
            return d;
        }
    }
    if (limits_.maxQueueP95Ms > 0) {
        auto it = snap.histograms.find("serving.queue_ms");
        if (it != snap.histograms.end() && it->second.count > 0) {
            const double p95 = it->second.quantile(0.95);
            if (p95 > limits_.maxQueueP95Ms) {
                d.admit = false;
                std::ostringstream os;
                os << "serving.queue_ms p95 " << p95
                   << "ms over the limit " << limits_.maxQueueP95Ms
                   << "ms";
                d.reason = os.str();
                return d;
            }
        }
    }
    if (limits_.maxBurnRate > 0 && !tenantName.empty()) {
        // The SloTracker publishes burn rate in milli-units (1000 =
        // burning the error budget exactly at the sustainable rate).
        // Windowed, so unlike the cumulative p95 check it re-admits
        // by itself once the tenant's recent jobs meet deadlines.
        const uint64_t milli = counterOrZero(
            snap, ("slo." + tenantName + ".burn_rate").c_str());
        const double rate = double(milli) / 1000.0;
        if (rate >= limits_.maxBurnRate) {
            d.admit = false;
            std::ostringstream os;
            os << "slo." << tenantName << ".burn_rate " << rate
               << "x at/over the limit " << limits_.maxBurnRate
               << "x (deadline misses burning the error budget)";
            d.reason = os.str();
            return d;
        }
    }
    return d;
}

AdmissionController::Decision
AdmissionController::decide(const std::string &tenantName,
                            const TenantPolicy &tenant,
                            size_t tenantQueueDepth) const
{
    return decide(obs::MetricsRegistry::global().snapshot(),
                  tenantName, tenant, tenantQueueDepth);
}

ServingEngine::ServingEngine(BgvScheme *bgv, ServingConfig cfg)
    : bgv_(bgv), cfg_(std::move(cfg)), admission_(cfg_.admission),
      encCache_(cfg_.encodingCacheCapacity, "serving_encoding"),
      slo_(cfg_.slo)
{
    start();
}

ServingEngine::ServingEngine(CkksScheme *ckks, ServingConfig cfg)
    : ckks_(ckks), cfg_(std::move(cfg)), admission_(cfg_.admission),
      encCache_(cfg_.encodingCacheCapacity, "serving_encoding"),
      slo_(cfg_.slo)
{
    start();
}

void
ServingEngine::start()
{
    // Gauges read the lock-free mirrors, never m_: a registry
    // snapshot holds the registry lock while evaluating gauges, and a
    // submit() path may snapshot the registry — an m_-taking gauge
    // would be a lock-order inversion.
    auto &reg = obs::MetricsRegistry::global();
    depthGauge_ = reg.gauge("serving.queue_depth", [this] {
        return uint64_t(depthNow_.load(std::memory_order_relaxed));
    });
    depthPeakGauge_ = reg.gauge("serving.queue_depth_peak", [this] {
        return uint64_t(depthPeak_.load(std::memory_order_relaxed));
    });
    const unsigned n =
        cfg_.workers == 0 ? configuredThreadCount() : cfg_.workers;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ServingEngine::~ServingEngine()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        accepting_ = false;
    }
    drain(); // every accepted promise is fulfilled before teardown
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    cvWork_.notify_all();
    for (auto &w : workers_)
        w.join();
    // Teardown-with-failures: leave the post-mortem on disk even if
    // nobody inspected the per-failure dumps while serving.
    if (!cfg_.eventDumpPath.empty() && anyFailed_)
        obs::FlightRecorder::global().dumpToFile(cfg_.eventDumpPath);
}

const TenantPolicy &
ServingEngine::policyFor(const std::string &tenant) const
{
    auto it = cfg_.tenantPolicies.find(tenant);
    return it == cfg_.tenantPolicies.end() ? cfg_.defaultTenantPolicy
                                           : it->second;
}

std::future<JobResult>
ServingEngine::submit(JobRequest req)
{
    F1_REQUIRE(req.program != nullptr,
               "JobRequest::program is null; submit() stores program "
               "and hints as bare pointers, so pass a live Program "
               "that outlives the job's future");
    const TenantPolicy &tp = policyFor(req.tenant);
    const uint64_t fp = req.program->fingerprint();
    // One correlation id per job, allocated before the first
    // lifecycle event so even a SHED request is followable.
    const uint64_t traceId = obs::allocateTraceId();
    obs::FlightRecorder &rec = obs::FlightRecorder::global();
    rec.record(obs::ServingEventKind::kSubmit, 0, req.tenant, fp, 0,
               traceId);

    // Snapshot the registry BEFORE taking m_ (the snapshot evaluates
    // gauges across the process; keeping it outside our lock keeps
    // the lock graph acyclic). Skipped entirely when no admission
    // limit is configured — the default submit path stays cheap.
    const bool needsAdmission =
        tp.maxQueueDepth != 0 || admission_.limits().maxBacklog != 0 ||
        admission_.limits().maxQueueP95Ms > 0 ||
        admission_.limits().maxBurnRate > 0;
    std::optional<obs::MetricsSnapshot> snap;
    if (needsAdmission)
        snap = obs::MetricsRegistry::global().snapshot();

    std::future<JobResult> fut;
    uint64_t jobId = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        F1_REQUIRE(accepting_, "engine is shutting down");

        if (needsAdmission) {
            auto qit = queues_.find(req.tenant);
            const size_t depth =
                qit == queues_.end() ? 0 : qit->second.size();
            const AdmissionController::Decision d =
                admission_.decide(*snap, req.tenant, tp, depth);
            if (!d.admit) {
                ServingMetrics::get().shed.inc();
                rec.record(obs::ServingEventKind::kShed, 0,
                           req.tenant, fp, 0, traceId);
                throw AdmissionRejected("job shed for tenant \"" +
                                        req.tenant + "\": " + d.reason);
            }
        }

        Job job;
        job.id = jobId = nextJobId_++;
        job.req = std::move(req);
        job.submitMs = steadyNowMs();
        job.programFp = fp;
        job.priority = tp.priority;
        job.deadlineAtMs = job.submitMs + tp.deadlineMs;
        job.traceId = traceId;
        // Stamping the inputs threads the id into spans + profile
        // without widening the executor API.
        job.req.inputs.traceId = traceId;
        fut = job.promise.get_future();

        auto it = queues_.try_emplace(job.req.tenant).first;
        const std::string &tenant = it->first;
        it->second.push_back(std::move(job));
        ++pending_;
        ServingMetrics::get().submitted.inc();
        depthNow_.store(pending_, std::memory_order_relaxed);
        if (pending_ > depthPeak_.load(std::memory_order_relaxed))
            depthPeak_.store(pending_, std::memory_order_relaxed);
        rec.record(obs::ServingEventKind::kAdmit, jobId, tenant, fp,
                   0, traceId);
    }
    cvWork_.notify_one();
    return fut;
}

std::optional<ServingEngine::Job>
ServingEngine::popNext()
{
    // Called with m_ held. A tenant's class is fixed and its queue is
    // FIFO, so each queue's front is that tenant's most urgent job —
    // scanning fronts finds the global (priority, EDF, id) head.
    //
    // Burn-rate penalty (the scheduling tier BELOW admission
    // shedding): a tenant at/over half the configured shed threshold
    // (AdmissionLimits::maxBurnRate) is already deep into its error
    // budget, so its jobs lose to EVERY unpenalized tenant's
    // regardless of class priority — the budget-burner yields the
    // datapath before admission has to start rejecting it outright.
    // Among equally-penalized (or equally-clean) fronts the normal
    // priority/EDF/id order holds. Disabled when maxBurnRate is 0 (no
    // SLO shedding configured means no SLO scheduling either).
    // slo_.burnRate takes the tracker mutex under m_; safe — see
    // obs/slo.h.
    const double maxBurn = cfg_.admission.maxBurnRate;
    std::deque<Job> *bestQ = nullptr;
    bool bestPenalized = false;
    bool sawPenalized = false;
    for (auto &[tenant, q] : queues_) {
        if (q.empty())
            continue;
        const Job &c = q.front();
        const bool penalized =
            maxBurn > 0 && slo_.burnRate(tenant) >= 0.5 * maxBurn;
        sawPenalized |= penalized;
        bool wins;
        if (bestQ == nullptr) {
            wins = true;
        } else if (penalized != bestPenalized) {
            wins = !penalized;
        } else {
            const Job &b = bestQ->front();
            wins = c.priority > b.priority ||
                   (c.priority == b.priority &&
                    (c.deadlineAtMs < b.deadlineAtMs ||
                     (c.deadlineAtMs == b.deadlineAtMs && c.id < b.id)));
        }
        if (wins) {
            bestQ = &q;
            bestPenalized = penalized;
        }
    }
    if (bestQ == nullptr)
        return std::nullopt;
    if (sawPenalized && !bestPenalized)
        ServingMetrics::get().dispatchPenalties.inc();
    std::optional<Job> out(std::move(bestQ->front()));
    bestQ->pop_front();
    return out;
}

void
ServingEngine::runJob(Job &job)
{
    const double startMs = steadyNowMs();
    ServingMetrics &sm = ServingMetrics::get();
    sm.batchSize.observe(1.0); // one job per traversal, always

    JobResult result;
    std::exception_ptr error;
    try {
        OpGraphExecutor exec =
            bgv_ ? OpGraphExecutor(*job.req.program, bgv_)
                 : OpGraphExecutor(*job.req.program, ckks_);
        ExecutionPolicy pol = cfg_.policy;
        pol.encodingCache = &encCache_;
        if (job.req.hints != nullptr)
            pol.scheduleHints = job.req.hints;
        // Tag the job's telemetry artifacts with its tenant, unless
        // the configured policy already carries an explicit label.
        if (pol.telemetry.enabled() && pol.telemetry.label.empty())
            pol.telemetry.label = job.req.tenant;
        result.exec = exec.execute(job.req.inputs, pol);
        result.jobId = job.id;
        result.tenant = job.req.tenant;
        result.queueMs = startMs - job.submitMs;
        result.serviceMs = steadyNowMs() - startMs;
        result.traceId = job.traceId;
    } catch (...) {
        error = std::current_exception();
        // The promise is fulfilled below, AFTER the flight-recorder /
        // SLO bookkeeping: a waiter that observes the exception must
        // also observe the failure's post-mortem.
    }

    obs::FlightRecorder &rec = obs::FlightRecorder::global();
    const double deadlineMs = policyFor(job.req.tenant).deadlineMs;
    if (error) {
        sm.failed.inc();
        rec.record(obs::ServingEventKind::kFail, job.id, job.req.tenant,
                   job.programFp, 1, job.traceId);
        // A failed job attained nothing: an infinite latency misses
        // any finite deadline in the SLO window.
        slo_.recordJob(job.req.tenant,
                       std::numeric_limits<double>::infinity(),
                       deadlineMs);
        if (!cfg_.eventDumpPath.empty())
            rec.dumpToFile(cfg_.eventDumpPath);
    } else {
        sm.completed.inc();
        sm.queueMs.observe(result.queueMs);
        sm.serviceMs.observe(result.serviceMs);
        rec.record(obs::ServingEventKind::kComplete, job.id,
                   job.req.tenant, job.programFp, 1, job.traceId);
        slo_.recordJob(job.req.tenant,
                       result.queueMs + result.serviceMs, deadlineMs);
    }

    // Ordering invariant: the promise is fulfilled BEFORE inFlight_
    // drops. drain() returns when pending_ == inFlight_ == 0, and its
    // contract is that every accepted future is ready by then;
    // fulfilling after the decrement would let drain() (and the
    // destructor behind it) race ahead of waiters' futures.
    if (error)
        job.promise.set_exception(error);
    else
        job.promise.set_value(std::move(result));
    {
        std::lock_guard<std::mutex> lock(m_);
        anyFailed_ |= error != nullptr;
        --inFlight_;
        if (pending_ == 0 && inFlight_ == 0)
            cvDrained_.notify_all();
    }
}

void
ServingEngine::workerLoop()
{
    for (;;) {
        std::optional<Job> job;
        {
            std::unique_lock<std::mutex> lock(m_);
            cvWork_.wait(lock, [&] { return stop_ || pending_ > 0; });
            if (stop_ && pending_ == 0)
                return;
            job = popNext();
            if (!job)
                continue;
            --pending_;
            depthNow_.store(pending_, std::memory_order_relaxed);
            ++inFlight_;
        }

        if (cfg_.inlineIntraOp) {
            InlineParallelScope inlineScope;
            runJob(*job);
        } else {
            runJob(*job);
        }
    }
}

void
ServingEngine::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    cvDrained_.wait(lock,
                    [&] { return pending_ == 0 && inFlight_ == 0; });
}

} // namespace f1
