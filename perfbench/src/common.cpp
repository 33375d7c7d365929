/**
 * @file
 * Report output, order statistics, the span recorder and the
 * plaintext oracle.
 */
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, unit, value});
}

void
Report::fail(const std::string &why)
{
    failures_.push_back(why);
}

void
Report::print() const
{
    for (const std::string &n : notes_)
        printf("# %s\n", n.c_str());
    for (const std::string &f : failures_)
        printf("# CHECK FAILED: %s\n", f.c_str());
    for (const Metric &m : metrics_)
        printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
               m.unit.c_str());
    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        js << (i ? ", " : "") << "\"" << metrics_[i].name
           << "\": {\"value\": " << metrics_[i].value
           << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    js << "}}";
    printf("%s\n", js.str().c_str());
    fflush(stdout);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailWithTenBeyond(std::vector<double> v, double *pct)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n < 11) {
        *pct = 100.0;
        return v.empty() ? 0 : v.back();
    }
    *pct = 100.0 * double(n - 10) / double(n);
    return v[n - 11];
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 /
                   1e6;
    }
    return 0;
}

uint64_t
counterOf(const f1::obs::MetricsSnapshot &s, const std::string &name)
{
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const char *
opKindName(f1::HeOpKind k)
{
    using f1::HeOpKind;
    switch (k) {
      case HeOpKind::kInput: return "input";
      case HeOpKind::kInputPlain: return "input_plain";
      case HeOpKind::kAdd: return "add";
      case HeOpKind::kSub: return "sub";
      case HeOpKind::kAddPlain: return "add_plain";
      case HeOpKind::kMulPlain: return "mul_plain";
      case HeOpKind::kMul: return "mul";
      case HeOpKind::kRotate: return "rotate";
      case HeOpKind::kConjugate: return "conjugate";
      case HeOpKind::kModSwitch: return "mod_switch";
      case HeOpKind::kOutput: return "output";
    }
    return "?";
}

//
// Spans
//

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint32_t
threadTag()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xffff);
}

} // namespace

SpanRecorder &
spans()
{
    static SpanRecorder r;
    return r;
}

int
SpanRecorder::open(const std::string &name, int parent, uint64_t job)
{
    if (!enabled)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.job = job;
    s.tid = threadTag();
    std::lock_guard<std::mutex> lock(m_);
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(m_);
    spans_[static_cast<size_t>(id)].endNs = t;
}

std::map<std::string, SpanRecorder::LayerTime>
SpanRecorder::layerTimes() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = double(s.endNs - s.startNs) / 1e6;
        LayerTime &lt = out[s.name];
        lt.totalMs += dur;
        lt.selfMs += std::max(0.0, dur - double(childNs[i]) / 1e6);
        ++lt.count;
    }
    return out;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    std::ofstream f(path);
    if (!f)
        return;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[512];
        snprintf(buf, sizeof buf,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"job\": %" PRIu64
                 "}}%s\n",
                 s.name.c_str(), s.tid, double(s.startNs - origin) / 1e3,
                 double(s.endNs - s.startNs) / 1e3, i, s.parent, s.job,
                 i + 1 < spans_.size() ? "," : "");
        f << buf;
    }
    f << "]}\n";
}

//
// Plaintext oracle
//

namespace {

template <typename T>
const std::vector<T> &
bound(const f1::RuntimeInputs &in, int h)
{
    auto it = in.bindings.find(h);
    F1_REQUIRE(it != in.bindings.end(),
               "oracle needs every input bound; handle " << h
                                                         << " is not");
    const auto *v = std::get_if<std::vector<T>>(&it->second);
    F1_REQUIRE(v != nullptr, "handle " << h << " bound to wrong scheme");
    return *v;
}

struct BgvOracle
{
    using Ct = std::vector<uint64_t>;
    using Pt = std::vector<uint64_t>;
    const f1::RuntimeInputs &in;
    uint64_t t;

    Ct input(int h, const f1::HeOp &) { return bound<uint64_t>(in, h); }
    Pt plain(int h, const f1::HeOp &) { return bound<uint64_t>(in, h); }

    Ct
    apply(int, const f1::HeOp &op, const Ct &a, const Ct *b,
          const Pt *pt)
    {
        using f1::HeOpKind;
        const size_t n = a.size(), half = n / 2;
        Ct r(n);
        const Ct *o = b ? b : pt;
        for (size_t i = 0; i < n; ++i) {
            switch (op.kind) {
              case HeOpKind::kAdd:
              case HeOpKind::kAddPlain:
                r[i] = (a[i] + (*o)[i]) % t;
                break;
              case HeOpKind::kSub:
                r[i] = (a[i] + t - (*o)[i]) % t;
                break;
              case HeOpKind::kMul:
              case HeOpKind::kMulPlain:
                r[i] = a[i] * (*o)[i] % t;
                break;
              case HeOpKind::kRotate: {
                const size_t row = i / half, col = i % half;
                const int64_t hh = int64_t(half);
                const int64_t src =
                    ((int64_t(col) + op.rotateBy) % hh + hh) % hh;
                r[i] = a[row * half + size_t(src)];
                break;
              }
              case HeOpKind::kConjugate:
                r[i] = a[(i + half) % n];
                break;
              default: // kModSwitch keeps the slots
                r[i] = a[i];
            }
        }
        return r;
    }
};

struct CkksOracle
{
    using Ct = std::vector<std::complex<double>>;
    using Pt = std::vector<std::complex<double>>;
    const f1::RuntimeInputs &in;

    Ct
    input(int h, const f1::HeOp &)
    {
        return bound<std::complex<double>>(in, h);
    }
    Pt
    plain(int h, const f1::HeOp &)
    {
        return bound<std::complex<double>>(in, h);
    }

    Ct
    apply(int, const f1::HeOp &op, const Ct &a, const Ct *b,
          const Pt *pt)
    {
        using f1::HeOpKind;
        const size_t n = a.size();
        Ct r(n);
        const Ct *o = b ? b : pt;
        for (size_t i = 0; i < n; ++i) {
            switch (op.kind) {
              case HeOpKind::kAdd:
              case HeOpKind::kAddPlain:
                r[i] = a[i] + (*o)[i];
                break;
              case HeOpKind::kSub:
                r[i] = a[i] - (*o)[i];
                break;
              case HeOpKind::kMul:
              case HeOpKind::kMulPlain:
                r[i] = a[i] * (*o)[i];
                break;
              case HeOpKind::kRotate: {
                const int64_t nn = int64_t(n);
                r[i] = a[size_t(((int64_t(i) + op.rotateBy) % nn + nn) %
                                nn)];
                break;
              }
              case HeOpKind::kConjugate:
                r[i] = std::conj(a[i]);
                break;
              default:
                r[i] = a[i];
            }
        }
        return r;
    }
};

} // namespace

std::map<int, std::vector<uint64_t>>
oracleBgv(const f1::Program &prog, const f1::RuntimeInputs &in,
          uint64_t t)
{
    BgvOracle v{in, t};
    return walkProgram(prog, v);
}

std::map<int, std::vector<std::complex<double>>>
oracleCkks(const f1::Program &prog, const f1::RuntimeInputs &in)
{
    CkksOracle v{in};
    return walkProgram(prog, v);
}

} // namespace perfbench
