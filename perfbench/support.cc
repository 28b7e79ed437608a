#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory_resource>
#include <random>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench
{

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- host-speed calibration ---------------------------------------------

namespace
{

/** One run of the fixed calibration kernel, in ms. */
double
calibrationKernelMs()
{
    static thread_local std::vector<std::byte> arena(4u << 20);
    const auto t0 = Clock::now();
    std::mt19937 rng(12345);
    uint64_t acc = 0;
    for (int rep = 0; rep < 2; ++rep) {
        std::pmr::monotonic_buffer_resource res(
            arena.data(), arena.size(), std::pmr::null_memory_resource());
        std::pmr::map<uint32_t, std::pmr::string> m(&res);
        for (int i = 0; i < 20000; ++i) {
            char buf[32];
            const int n = std::snprintf(buf, sizeof buf, "value-%d-pad", i);
            m.emplace(rng(), std::pmr::string(buf, static_cast<size_t>(n), &res));
        }
        for (const auto &kv : m)
            acc += kv.second.size() ^ kv.first;
        std::pmr::vector<uint32_t> v(100000, &res);
        for (auto &x : v)
            x = rng();
        std::sort(v.begin(), v.end());
        acc += v[v.size() / 2];
    }
    static std::atomic<uint64_t> sink{0};
    sink += acc;
    return msBetween(t0, Clock::now());
}

} // namespace

double
calibrate(int threads)
{
    if (threads <= 1)
        return calibrationKernelMs();
    std::vector<double> ms(static_cast<size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&ms, t] { ms[static_cast<size_t>(t)] = calibrationKernelMs(); });
    for (auto &th : pool)
        th.join();
    return median(ms);
}

double
Calibration::timeScale() const
{
    const double m = median(samplesMs);
    return m > 0 ? kCalibRefMs / m : 1.0;
}

CpuPin::CpuPin(int index)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) != 0 || CPU_COUNT(&mask) == 0)
        return;
    saved_.resize(sizeof mask);
    std::memcpy(saved_.data(), &mask, sizeof mask);
    int skip = index % CPU_COUNT(&mask);
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (!CPU_ISSET(c, &mask) || skip-- > 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        if (sched_setaffinity(0, sizeof one, &one) == 0)
            cpu_ = c;
        return;
    }
}

CpuPin::~CpuPin()
{
    if (cpu_ < 0)
        return;
    cpu_set_t mask;
    std::memcpy(&mask, saved_.data(), sizeof mask);
    sched_setaffinity(0, sizeof mask, &mask);
}

// ---- tracing -------------------------------------------------------------

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

void
Tracer::record(const Span &span)
{
    std::lock_guard<std::mutex> guard(mu_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return spans_;
}

std::map<std::string, std::pair<double, uint64_t>>
Tracer::selfTimes() const
{
    const std::vector<Span> all = spans();
    std::map<int64_t, std::vector<const Span *>> children;
    for (const Span &s : all)
        if (s.parent)
            children[s.parent].push_back(&s);

    std::map<std::string, std::pair<double, uint64_t>> out;
    for (const Span &s : all) {
        // Children may overlap (concurrent serving workers), so take
        // the union of their intervals clipped to the parent.
        std::vector<std::pair<int64_t, int64_t>> iv;
        auto it = children.find(s.id);
        if (it != children.end())
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->startNs, s.startNs),
                                std::min(c->endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, reach = s.startNs;
        for (const auto &[lo, hi] : iv) {
            const int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        auto &slot = out[s.name];
        slot.first += (s.endNs - s.startNs - covered) / 1e6;
        ++slot.second;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const auto &apps = revet::apps::allApps();
    os << "[\n";
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"request\":" << s.request
           << ",\"app\":\""
           << (s.app >= 0 ? apps[static_cast<size_t>(s.app)].name : "")
           << "\",\"scale\":" << s.scale << ",\"count\":" << s.count
           << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << "}" << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(Tracer *tracer, const char *name, int64_t parent,
                       uint64_t request, int app, int scale)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    span_.name = name;
    span_.id = tracer_->newId();
    span_.parent = parent;
    span_.request = request;
    span_.app = app;
    span_.scale = scale;
    span_.startNs = tracer_->nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_)
        return;
    span_.endNs = tracer_->nowNs();
    tracer_->record(span_);
}

// ---- correctness ledger --------------------------------------------------

void
Checks::fail(const std::string &error)
{
    ++failed_;
    if (errors_.size() < 8)
        errors_.push_back(error);
}

void
Checks::operation(const std::string &error)
{
    std::lock_guard<std::mutex> guard(mu_);
    ++attempted_;
    if (!error.empty())
        fail(error);
}

void
Checks::verifyRun(const revet::apps::App &app, int scale,
                  revet::lang::DramImage &dram,
                  const revet::graph::ExecStats &stats)
{
    std::string error;
    if (!stats.drained)
        error = "did not drain";
    else if (stats.sramParkedEnd != 0)
        error = "sramParkedEnd = " + std::to_string(stats.sramParkedEnd);
    else
        error = app.verify(dram, scale);
    if (!error.empty())
        error = app.name + " @" + std::to_string(scale) + ": " + error;
    operation(error);
}

void
Checks::repeat(const std::string &key, uint64_t value)
{
    std::lock_guard<std::mutex> guard(mu_);
    auto [it, fresh] = counts_.emplace(key, value);
    if (!fresh && it->second != value)
        fail("count drift: " + key + " was " + std::to_string(it->second) +
             ", now " + std::to_string(value));
}

uint64_t
Checks::attempted() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return attempted_;
}

uint64_t
Checks::failed() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return failed_;
}

std::vector<std::string>
Checks::errors() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return errors_;
}

uint64_t
linkTokens(const revet::graph::ExecStats &stats)
{
    uint64_t total = 0;
    for (uint64_t t : stats.linkTokens)
        total += t;
    return total;
}

// ---- metric output -------------------------------------------------------

void
Run::note(const std::string &name, double value, const std::string &unit,
          const std::string &detail)
{
    std::printf("%-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                detail.c_str());
}

void
Run::metric(const std::string &name, double value, const std::string &unit,
            const std::string &detail)
{
    note(name, value, unit, detail);
    metrics.push_back({name, value, unit});
}

} // namespace perfbench
