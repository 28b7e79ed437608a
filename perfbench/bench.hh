/**
 * @file
 * Shared pieces of the Revet benchmark program: the clock, the span
 * tracer, the correctness ledger and the metric sink.
 *
 * The benchmark times spans in its own code around calls into the public
 * Revet API (lang, passes, graph, core, serve, interp, baselines); it
 * never reaches inside the library. See METRICS.md for what each
 * workload and metric means.
 */

#ifndef REVET_PERFBENCH_BENCH_HH
#define REVET_PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "graph/exec.hh"
#include "lang/dram_image.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank percentile (0 < p <= 100) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double geomean(const std::vector<double> &v);

/** Process CPU seconds (user + system) so far. */
double cpuSeconds();
/** Peak resident set size of the process, in MB. */
double peakRssMb();

/**
 * Host-speed calibration. The host's speed drifts by 10-30% over tens
 * of seconds (other tenants share its cores and caches), which would
 * swamp any change to the program. Every timed end-to-end metric is
 * therefore reported normalised to a reference host speed: the
 * benchmark runs a fixed kernel of its own (ordered-map inserts and a
 * sort, in a private arena, so the program's heap state cannot change
 * its cost) between units of work, and scales raw times by
 * kCalibRefMs / median kernel ms. Raw values are printed beside them.
 */
constexpr double kCalibRefMs = 30.0;

/** Run the calibration kernel on @p threads threads at once and return
 * the median per-thread ms. */
double calibrate(int threads);

/**
 * Pins the calling thread to one CPU of its allowed set until
 * destroyed, then restores the previous mask: @p index 0 is the
 * highest-numbered allowed CPU, 1 the next, wrapping around. Each
 * stream of the single-threaded workloads runs pinned and calibrates
 * on its own CPU: a thread free to migrate lands on cores whose speed
 * differs from moment to moment, which a calibration sampled between
 * units of work cannot follow.
 */
class CpuPin
{
  public:
    explicit CpuPin(int index);
    ~CpuPin();

    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    std::vector<unsigned char> saved_; ///< the previous cpu_set_t
    int cpu_ = -1; ///< -1: pinning failed, the thread runs unpinned
};

/** Calibration samples of one run and the speed factor they give. */
struct Calibration
{
    int threads = 1;
    std::vector<double> samplesMs;

    void sample() { samplesMs.push_back(calibrate(threads)); }
    /** kCalibRefMs / median sample: multiply raw times by this. */
    double timeScale() const;
};

/** One recorded span: a call into a layer, timed in benchmark code. */
struct Span
{
    const char *name = "";
    int64_t id = 0;
    int64_t parent = 0; ///< 0: root
    uint64_t request = 0; ///< spans of one request/round share it
    int app = -1;         ///< index into apps::allApps(), -1: none
    int scale = 0;
    uint64_t count = 0;   ///< work done inside (link tokens for runs)
    int64_t startNs = 0;  ///< since the tracer's origin
    int64_t endNs = 0;

    double ms() const { return (endNs - startNs) / 1e6; }
};

/**
 * In-memory span recorder. Spans are kept until the run ends and then
 * written out as JSON; recording is thread-safe (serving workers
 * record prepare spans concurrently).
 */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int64_t newId() { return next_id_.fetch_add(1) + 1; }
    int64_t nowNs() const;
    void record(const Span &span);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Per span name: total self time (duration minus the union of
     * its children's intervals) in ms and span count. */
    std::map<std::string, std::pair<double, uint64_t>> selfTimes() const;

    /** Write every span as a JSON array to @p path. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::atomic<int64_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * RAII span: opened on construction, recorded on destruction. A null
 * tracer makes it a no-op, so untraced units pay only a branch.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int64_t parent = 0,
               uint64_t request = 0, int app = -1, int scale = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return span_.id; }
    void setCount(uint64_t count) { span_.count = count; }

  private:
    Tracer *tracer_;
    Span span_;
};

/**
 * Correctness ledger: every checked operation, its failures, and the
 * exact-repeat record of the deterministic counts.
 */
class Checks
{
  public:
    /** Count one operation; @p error empty means it succeeded. */
    void operation(const std::string &error);

    /** Check a finished run: drained, no parked slots left, and the
     * app's own golden verifier. Counts one operation. */
    void verifyRun(const revet::apps::App &app, int scale,
                   revet::lang::DramImage &dram,
                   const revet::graph::ExecStats &stats);

    /** Record a deterministic count; a later different value under
     * the same key is a failure (counted, never dropped). */
    void repeat(const std::string &key, uint64_t value);

    uint64_t attempted() const;
    uint64_t failed() const;
    std::vector<std::string> errors() const;

  private:
    mutable std::mutex mu_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_; ///< first few, for the report
    std::map<std::string, uint64_t> counts_;

    void fail(const std::string &error);
};

/** Total tokens that crossed any link in one run. */
uint64_t linkTokens(const revet::graph::ExecStats &stats);

/** Where the named metrics of one run go. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one invocation needs and produces. */
struct Run
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool traced = false;
    Tracer tracer;
    Checks checks;
    /** Sampled between units of work by the timed loop. */
    Calibration calib;

    /** Metrics in the final JSON line (end-to-end or per-layer). */
    std::vector<Metric> metrics;

    /** Print one human-readable metric line (not in the JSON). */
    void note(const std::string &name, double value,
              const std::string &unit, const std::string &detail = "");
    /** Add a JSON metric and print it. */
    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &detail = "");

    /** The tracer for a unit of work when it is traced, else null. */
    Tracer *
    tracerFor(bool traced_unit)
    {
        return traced && traced_unit ? &tracer : nullptr;
    }
};

/** Workload entry points (workloads.cc). Each runs its own set-up,
 * its timed loop for run.seconds, and, when run.traced, the layer
 * sweep; they fill run.metrics. */
void runCompileCold(Run &run);
void runExecLarge(Run &run);
void runServeBatch(Run &run);
void runServeChurn(Run &run);

} // namespace perfbench

#endif // REVET_PERFBENCH_BENCH_HH
