/**
 * @file
 * Simulator throughput benchmark: runs one named workload (a grid of
 * scheme x app cells) serially, one cell at a time on one thread
 * through the serial Driver, and prints one JSON result line.
 *
 *   perfbench --workload grid8|grid64|cold512 --seed N --seconds S
 *             --trace 0|1 [--tiny]
 *   perfbench --self-test
 *   perfbench --list-metrics
 *
 * --trace 0 times untraced runs and reports the end-to-end metrics;
 * --trace 1 adds traced replays of every cell and reports the
 * per-layer metrics. See README.md in this directory.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/sim_error.hh"
#include "common/stats.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench
{
namespace
{

// ---------------------------------------------------------------------
// Metric catalogue: every metric the benchmark emits, with the
// end-to-end metric and workload each per-layer metric should move.

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    const char *layer; //!< "" for end-to-end metrics
    const char *moves; //!< end-to-end metric it should move
    const char *on;    //!< workload where it should move (and not)
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m{
        {"accesses_per_s", "1/s", "higher", "", "", ""},
        {"setup_s", "s", "lower", "", "", ""},
        {"peak_rss_mib", "MiB", "lower", "", "", ""},
    };
    return m;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const char *aps = "accesses_per_s";
    static const char *apsRss = "accesses_per_s, peak_rss_mib";
    static const char *viaEngine = "accesses_per_s (via engine self time)";
    static const char *noEffect = "none (quality of the trace)";
    static const std::vector<MetricDef> m{
        {"workload.next_ns", "ns", "lower", "workload", aps,
         "cold512 (not grid64)"},
        {"workload.share", "frac", "lower", "workload", aps,
         "cold512 (not grid64)"},
        {"sim.driver_ns", "ns", "lower", "sim", aps,
         "cold512 (not grid8)"},
        {"sim.setup.layout_s", "s", "lower", "sim", "setup_s",
         "cold512 (not grid8)"},
        {"sim.setup.streams_s", "s", "lower", "sim", "setup_s",
         "cold512 (not grid8)"},
        {"sim.setup.system_s", "s", "lower", "sim", "setup_s",
         "cold512 (not grid8)"},
        {"core.priv_ns", "ns", "lower", "core", apsRss,
         "grid64 (barely grid8)"},
        {"core.priv_calls", "count", "lower", "core", apsRss,
         "grid64 (barely grid8)"},
        {"core.priv_share", "frac", "lower", "core", apsRss,
         "grid64 (barely grid8)"},
        {"core.priv_hits", "count", "higher", "core", apsRss,
         "grid64 (barely grid8)"},
        {"core.misses", "count", "lower", "core", apsRss,
         "grid64 (barely grid8)"},
        {"core.upgrades", "count", "lower", "core", apsRss,
         "grid64 (barely grid8)"},
        {"core.priv_hit_rate", "frac", "higher", "core", apsRss,
         "grid64 (barely grid8)"},
        {"proto.engine.request_ns", "ns", "lower", "proto.engine", aps,
         "grid8 and cold512"},
        {"proto.engine.notice_ns", "ns", "lower", "proto.engine", aps,
         "grid64 (not cold512)"},
        {"wb.notices", "count", "lower", "proto.engine", aps,
         "grid64 (not cold512)"},
        {"fwd.owner", "count", "lower", "proto.engine", aps,
         "grid8 and cold512"},
        {"inval.messages", "count", "lower", "proto.engine", aps,
         "grid8 and cold512"},
        {"inval.back", "count", "lower", "proto.engine", aps,
         "grid8 and cold512"},
        {"nack.retries", "count", "lower", "proto.engine", aps,
         "grid8 and cold512"},
        {"nack.retries_per_request", "frac", "lower", "proto.engine",
         aps, "grid8 and cold512"},
        {"proto.tracker.call_ns", "ns", "lower", "proto.tracker", aps,
         "grid8"},
        {"proto.tracker.calls_per_access", "count", "lower",
         "proto.tracker", aps, "grid8"},
        {"proto.tracker.share", "frac", "lower", "proto.tracker", aps,
         "grid8"},
        {"proto.tracker.sparse.call_ns", "ns", "lower", "proto.tracker",
         aps, "grid8"},
        {"proto.tracker.sharedonly.call_ns", "ns", "lower",
         "proto.tracker", aps, "grid8"},
        {"proto.tracker.tagext.call_ns", "ns", "lower", "proto.tracker",
         aps, "grid8"},
        {"proto.tracker.inllc.call_ns", "ns", "lower", "proto.tracker",
         aps, "grid8"},
        {"proto.tracker.tiny.call_ns", "ns", "lower", "proto.tracker",
         aps, "grid8"},
        {"proto.tracker.mgd.call_ns", "ns", "lower", "proto.tracker",
         aps, "grid8"},
        {"proto.tracker.stash.call_ns", "ns", "lower", "proto.tracker",
         aps, "grid8"},
        {"dir.hits", "count", "higher", "proto.tracker", aps, "grid8"},
        {"dir.allocs", "count", "lower", "proto.tracker", aps, "grid8"},
        {"dir.spills", "count", "lower", "proto.tracker", aps, "grid8"},
        {"dir.broadcasts", "count", "lower", "proto.tracker", aps,
         "grid8"},
        {"dir.hits_per_alloc", "frac", "higher", "proto.tracker", aps,
         "grid8"},
        {"cache.llc.find_ns", "ns", "lower", "cache.llc", aps, "grid64"},
        {"llc.accesses", "count", "lower", "cache.llc", aps, "grid64"},
        {"llc.data_misses", "count", "lower", "cache.llc", aps,
         "grid64"},
        {"llc.fills", "count", "lower", "cache.llc", aps, "grid64"},
        {"spill.saved_accesses", "count", "higher", "cache.llc", aps,
         "grid64"},
        {"llc.miss_rate", "frac", "lower", "cache.llc", aps, "grid64"},
        {"traffic.processor.bytes_per_access", "B", "lower", "noc",
         viaEngine, "cold512"},
        {"traffic.coherence.bytes_per_access", "B", "lower", "noc",
         viaEngine, "cold512"},
        {"traffic.writeback.bytes_per_access", "B", "lower", "noc",
         viaEngine, "cold512"},
        {"dram.accesses", "count", "lower", "mem.dram", viaEngine,
         "cold512"},
        {"dram.row_hit_rate", "frac", "higher", "mem.dram", viaEngine,
         "cold512"},
        {"trace.overhead_frac", "frac", "lower", "trace", noEffect, "all"},
        {"trace.unattributed_frac", "frac", "lower", "trace", noEffect,
         "all"},
    };
    return m;
}

// ---------------------------------------------------------------------
// Workloads.

/** One (scheme x app) cell of a workload grid. */
struct Cell
{
    std::string scheme; //!< tracker family, for per-scheme metrics
    std::string label;
    SystemConfig cfg;
    std::uint64_t accessesPerCore = 0;
    std::uint64_t warmupPerCore = 0; //!< 0 = caches start empty
    /**
     * Private copy of the app's profile. layoutFor() caches layouts of
     * the registered profiles; a copy bypasses that cache so every
     * setup pays its layout build, as a single-cell run does.
     */
    std::unique_ptr<WorkloadProfile> prof;
};

struct Scheme
{
    const char *family;
    const char *label;
    SystemConfig cfg;
};

SystemConfig
scaledCfg(unsigned cores, std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig::scaled(cores);
    // Same shortened DynSpill window as every scaled (non --full) run.
    cfg.spillWindowAccesses = 1024;
    cfg.seed = seed;
    return cfg;
}

Scheme
sparse(SystemConfig cfg, double f, const char *label)
{
    cfg.tracker = TrackerKind::SparseDir;
    cfg.dirSizeFactor = f;
    return {"sparse", label, cfg};
}

Scheme
tiny(SystemConfig cfg, double f, TinyPolicy p, bool spill,
     const char *label)
{
    cfg.tracker = TrackerKind::TinyDir;
    cfg.dirSizeFactor = f;
    cfg.tinyPolicy = p;
    cfg.tinySpill = spill;
    return {"tiny", label, cfg};
}

/** The seven trackers of the paper's comparison, at @p base. */
std::vector<Scheme>
allSevenTrackers(const SystemConfig &base)
{
    std::vector<Scheme> s;
    s.push_back(sparse(base, 2.0, "sparse 2x"));
    {
        SystemConfig c = base;
        c.tracker = TrackerKind::SharedOnlyDir;
        c.dirSizeFactor = 1.0 / 32;
        s.push_back({"sharedonly", "shared-only 1/32x", c});
    }
    {
        SystemConfig c = base;
        c.tracker = TrackerKind::InLlcTagExtended;
        s.push_back({"tagext", "tag-extended in-LLC", c});
    }
    {
        SystemConfig c = base;
        c.tracker = TrackerKind::InLlc;
        s.push_back({"inllc", "in-LLC", c});
    }
    s.push_back(tiny(base, 1.0 / 32, TinyPolicy::DstraGnru, true,
                     "tiny 1/32x DSTRA+gNRU+DynSpill"));
    {
        SystemConfig c = base;
        c.tracker = TrackerKind::Mgd;
        c.dirSizeFactor = 1.0 / 16;
        c.dirSkewed = true;
        c.dirAssoc = 4;
        s.push_back({"mgd", "MgD 1/16x skewed", c});
    }
    {
        SystemConfig c = base;
        c.tracker = TrackerKind::Stash;
        c.dirSizeFactor = 1.0 / 32;
        s.push_back({"stash", "Stash 1/32x", c});
    }
    return s;
}

const char *const workloadNames[] = {"grid8", "grid64", "cold512"};

/**
 * Build the cells of @p workload for @p seed. @p tiny shrinks every
 * cell to a few hundred accesses per core with no warm-up (self-test).
 */
std::vector<Cell>
makeWorkload(const std::string &workload, std::uint64_t seed, bool tiny_run)
{
    const std::vector<std::string> quickApps{"barnes", "ocean_cp",
                                             "TPC-C", "compress"};
    std::vector<std::string> apps;
    std::vector<Scheme> schemes;
    std::uint64_t accesses = 0;
    bool warm = true;
    if (workload == "grid8") {
        const SystemConfig base = scaledCfg(8, seed);
        apps = quickApps;
        schemes = allSevenTrackers(base);
        accesses = 2000;
    } else if (workload == "grid64") {
        const SystemConfig base = scaledCfg(64, seed);
        apps = quickApps;
        schemes.push_back(sparse(base, 2.0, "sparse 2x"));
        schemes.push_back(tiny(base, 1.0 / 32, TinyPolicy::Dstra, false,
                               "DSTRA 1/32x"));
        schemes.push_back(tiny(base, 1.0 / 32, TinyPolicy::DstraGnru,
                               false, "DSTRA+gNRU 1/32x"));
        schemes.push_back(tiny(base, 1.0 / 32, TinyPolicy::DstraGnru,
                               true, "DynSpill 1/32x"));
        accesses = 2000;
    } else if (workload == "cold512") {
        const SystemConfig base = scaledCfg(512, seed);
        apps = {"barnes"};
        schemes.push_back(sparse(base, 2.0, "sparse 2x"));
        schemes.push_back(tiny(base, 1.0 / 256, TinyPolicy::DstraGnru,
                               true, "DynSpill 1/256x"));
        accesses = 1000;
        warm = false;
    } else {
        throw ConfigError("unknown workload '" + workload + "'");
    }
    std::vector<Cell> cells;
    for (const auto &app : apps) {
        const WorkloadProfile &reg = profileByName(app);
        for (const auto &s : schemes) {
            Cell c;
            c.scheme = s.family;
            c.label = std::string(s.label) + " / " + app;
            c.cfg = s.cfg;
            c.cfg.validate();
            c.accessesPerCore = tiny_run ? 200 : accesses;
            // The default warm-up rule of a quick grid (half the
            // measured length, extended over the prologue).
            c.warmupPerCore = (warm && !tiny_run)
                ? effectiveWarmupPerCore(c.cfg, reg, accesses / 2)
                : 0;
            c.prof = std::make_unique<WorkloadProfile>(reg);
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

// ---------------------------------------------------------------------
// Host checks.

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto p = line.find(':');
            if (p != std::string::npos)
                return line.substr(p + 2);
        }
    }
    return "unknown";
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("g++ ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Refuse to time a build whose numbers would mean nothing. */
bool
timedBuildOk(std::string *why)
{
#if !defined(__OPTIMIZE__)
    *why = "unoptimized build";
    return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    *why = "sanitizer build";
    return false;
#endif
    const std::string flags = PERFBENCH_CXX_FLAGS;
    if (flags.find("sanitize") != std::string::npos ||
        flags.find("coverage") != std::string::npos) {
        *why = "sanitizer or coverage flags: " + flags;
        return false;
    }
    const std::string bt = PERFBENCH_BUILD_TYPE;
    if (bt != "Release" && bt != "RelWithDebInfo") {
        *why = "build type '" + bt + "' is not optimized";
        return false;
    }
    return true;
}

/** Field of /proc/self/status (kB fields as plain numbers). */
long
procStatus(const char *key)
{
    std::ifstream is("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(key);
    while (std::getline(is, line)) {
        if (line.compare(0, n, key) == 0 && line.size() > n &&
            line[n] == ':')
            return std::atol(line.c_str() + n + 1);
    }
    return -1;
}

// ---------------------------------------------------------------------
// Measurement helpers.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Thread CPU seconds since @p t0 (a cpuNs() reading). */
double
cpuSecondsSince(std::int64_t t0)
{
    return static_cast<double>(cpuNs() - t0) * 1e-9;
}

/**
 * Host gauge: a fixed kernel, owned by the benchmark, that reads how
 * fast the host's memory system is right now. The reference host is a
 * shared VM whose L3 and memory other guests contend for. The
 * simulator's speed, even counted in CPU time, follows that
 * contention by up to 2x over minutes, and so does this kernel's
 * (README.md, Host noise). Each Driver::run time, and the set-up
 * before it, is scaled by the gauge reading taken right after it.
 *
 * The kernel is a chain of dependent read-modify-writes at
 * pseudo-random slots of a 4 MiB table: larger than a core's L2 and
 * inside the L3, like a cell's hot state. It calls nothing in src/,
 * so a change to the simulator cannot move it.
 */
class HostGauge
{
  public:
    /** Reading that scaled times refer to, in ns per step. */
    static constexpr double nominalNsPerStep = 50.0;

    HostGauge() : table(tableBytes / sizeof(std::uint64_t))
    {
        for (std::size_t i = 0; i < table.size(); ++i)
            table[i] = i * 0x9e3779b97f4a7c15ull;
    }

    /** Take one reading; return the factor that scales a time
     *  measured now to a host reading nominalNsPerStep. */
    double
    scale()
    {
        std::uint64_t x = 1;
        const std::size_t mask = table.size() - 1;
        const std::int64_t t0 = cpuNs();
        for (unsigned i = 0; i < steps; ++i) {
            std::uint64_t &e = table[(x >> 7) & mask];
            x = (x ^ e) * 0x2545f4914f6cdd1dull + 1;
            e += x;
        }
        const double ns = static_cast<double>(cpuNs() - t0) / steps;
        readings.push_back(ns);
        return nominalNsPerStep / ns;
    }

    std::vector<double> readings; //!< ns per step, in order

  private:
    static constexpr std::size_t tableBytes = 4u << 20;
    static constexpr unsigned steps = 100'000;
    std::vector<std::uint64_t> table;
};

/** A cell's simulated system and streams, ready to run. */
struct Setup
{
    std::unique_ptr<System> sys;
    std::vector<std::unique_ptr<AccessStream>> streams;
    double layoutS = 0, streamsS = 0, systemS = 0;
    double total() const { return layoutS + streamsS + systemS; }
};

Setup
setUp(const Cell &c)
{
    Setup s;
    std::int64_t t = cpuNs();
    auto layout = layoutFor(*c.prof, c.cfg);
    s.layoutS = cpuSecondsSince(t);
    t = cpuNs();
    s.streams = makeStreams(layout, c.cfg,
                            c.accessesPerCore + c.warmupPerCore,
                            c.warmupPerCore > 0);
    s.streamsS = cpuSecondsSince(t);
    t = cpuNs();
    s.sys = std::make_unique<System>(c.cfg);
    s.systemS = cpuSecondsSince(t);
    return s;
}

bool
sameDump(const StatsDump &a, const StatsDump &b, std::string *why)
{
    const auto &x = a.items();
    const auto &y = b.items();
    if (x.size() != y.size()) {
        *why = "dump sizes differ";
        return false;
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first ||
            std::memcmp(&x[i].second, &y[i].second, sizeof(double))) {
            std::ostringstream os;
            os << "stat " << x[i].first << ": " << x[i].second << " vs "
               << y[i].first << " " << y[i].second;
            *why = os.str();
            return false;
        }
    }
    return true;
}

std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Per-cell record across the run. */
struct CellResult
{
    bool failed = false;
    std::string why;
    std::uint64_t accesses = 0;
    std::vector<double> runS;      //!< untraced Driver::run CPU seconds
    std::vector<double> scaledRunS; //!< the same, scaled by HostGauge
    std::vector<double> setupS, layoutS, streamsS, systemS; //!< scaled
    std::vector<double> rawSetupS; //!< setupS before scaling
    StatsDump dump;                //!< first untraced dump (reference)
    bool haveDump = false;

    /** Record a set-up's times, scaled by HostGauge factor @p k. */
    void
    addSetup(const Setup &s, double k)
    {
        setupS.push_back(s.total() * k);
        layoutS.push_back(s.layoutS * k);
        streamsS.push_back(s.streamsS * k);
        systemS.push_back(s.systemS * k);
        rawSetupS.push_back(s.total());
    }
};

void
fail(CellResult &r, const Cell &c, const std::string &why)
{
    if (!r.failed)
        std::cerr << "perfbench: cell '" << c.label << "' failed: " << why
                  << "\n";
    r.failed = true;
    if (r.why.empty())
        r.why = why;
}

/**
 * Serial-only guard: the cell must have run on this thread alone.
 * The serial Driver never starts threads; any other thread alive in
 * the process means the cell did not run the way the benchmark says.
 */
bool
singleThreaded()
{
    return procStatus("Threads") == 1;
}

/** Check a finished cell: invariants, serial run, stable dump. */
void
checkCell(CellResult &r, const Cell &c, System &sys)
{
    std::string msg;
    if (!sys.verifyCoherence(&msg))
        fail(r, c, "coherence violation: " + msg);
    if (!singleThreaded())
        fail(r, c, "more than one thread alive after the cell");
    StatsDump d = sys.dump();
    if (!r.haveDump) {
        r.dump = std::move(d);
        r.haveDump = true;
    } else if (!sameDump(r.dump, d, &msg)) {
        fail(r, c, "untraced dumps differ between passes: " + msg);
    }
}

/** One untraced run of a cell through the serial Driver. */
void
runUntraced(const Cell &c, CellResult &r, HostGauge &gauge)
{
    try {
        Setup s = setUp(c);
        Driver driver;
        driver.warmupAccesses = c.warmupPerCore * c.cfg.numCores;
        const std::int64_t t0 = cpuNs();
        const RunResult rr = driver.run(*s.sys, std::move(s.streams));
        r.runS.push_back(cpuSecondsSince(t0));
        // One reading scales both the set-up and the run before it.
        const double k = gauge.scale();
        r.scaledRunS.push_back(r.runS.back() * k);
        r.addSetup(s, k);
        r.accesses = rr.accesses;
        checkCell(r, c, *s.sys);
    } catch (const SimError &e) {
        fail(r, c, std::string("SimError: ") + e.what());
    }
}

/** Per-layer accumulation over the traced cells. */
struct LayerTotals
{
    Tracer tr;
    double tracedS = 0;       //!< traced replay wall time (the split)
    double tracedCpuS = 0;    //!< traced replay CPU time (the overhead)
    double untracedS = 0;     //!< untraced median CPU time, same cells
    std::uint64_t accesses = 0;
    std::uint64_t trackerCalls = 0;
    std::int64_t llcFindTicks = 0;
    std::uint64_t llcFinds = 0;
    std::map<std::string, std::pair<std::int64_t, std::uint64_t>>
        perScheme; //!< family -> (tracker self ticks, outer calls)
};

/**
 * One traced replay of a cell. Its final dump must be bit-identical
 * to the untraced reference dump. @p drop_update_at forces a
 * mismatch (self-test).
 */
void
runTraced(const Cell &c, CellResult &r, LayerTotals &lt,
          std::uint64_t drop_update_at = 0)
{
    try {
        Setup s = setUp(c);
        TracedCell tc =
            tracedRun(*s.sys, std::move(s.streams),
                      c.warmupPerCore * c.cfg.numCores, lt.tr,
                      drop_update_at);
        std::string msg;
        if (r.haveDump && !sameDump(r.dump, s.sys->dump(), &msg))
            fail(r, c, "traced dump differs from untraced: " + msg);
        if (!s.sys->verifyCoherence(&msg))
            fail(r, c, "coherence violation (traced): " + msg);
        lt.tracedS += tc.seconds;
        lt.tracedCpuS += tc.cpuSeconds;
        lt.untracedS += median(r.runS);
        lt.accesses += tc.accesses;
        lt.trackerCalls += tc.trackerOuterCalls;
        auto &ps = lt.perScheme[c.scheme];
        ps.first += tc.trackerSelfTicks;
        ps.second += tc.trackerOuterCalls;
        const auto llc = replayLlc(c.cfg, tc.llcStream, lt.tr);
        lt.llcFindTicks += llc.first;
        lt.llcFinds += llc.second;
    } catch (const SimError &e) {
        lt.tr.unwind();
        fail(r, c, std::string("SimError (traced): ") + e.what());
    }
}

// ---------------------------------------------------------------------
// Output.

struct Emitter
{
    std::ostringstream os;
    bool first = true;

    void
    add(const std::string &name, double value, const char *unit)
    {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << std::setprecision(17) << value
           << ", \"unit\": \"" << unit << "\"}";
        first = false;
    }
};

const char *
unitOf(const std::string &name)
{
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const auto &m : *list) {
            if (name == m.name)
                return m.unit;
        }
    }
    throw InternalError("metric not in the catalogue: " + name);
}

double
dumpSum(const std::vector<CellResult> &rs, const char *stat)
{
    double s = 0;
    for (const auto &r : rs) {
        if (r.haveDump && !r.failed)
            s += r.dump.get(stat);
    }
    return s;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool tiny = false;
};

int
runWorkload(const Options &o)
{
    std::string why;
    if (!timedBuildOk(&why)) {
        std::cerr << "perfbench: refusing to time this build: " << why
                  << "\n";
        return 3;
    }
    const std::int64_t start = nowNs();
    std::vector<Cell> cells = makeWorkload(o.workload, o.seed, o.tiny);
    std::vector<CellResult> rs(cells.size());
    HostGauge gauge;

    // Whole passes over the grid while the next one still fits in the
    // budget (at least one); trace mode keeps half of it for the traced
    // replays.
    const double untracedBudget = o.trace ? o.seconds / 2 : o.seconds;
    unsigned passes = 0;
    for (;;) {
        const std::int64_t p0 = nowNs();
        double passS = 0, passAcc = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            runUntraced(cells[i], rs[i], gauge);
            if (!rs[i].runS.empty()) {
                passS += rs[i].runS.back();
                passAcc += static_cast<double>(rs[i].accesses);
            }
        }
        ++passes;
        std::cerr << "# pass " << passes << ": " << ratio(passAcc, passS)
                  << " accesses per CPU second, " << passS << " s CPU in "
                  << secondsSince(p0) << " s wall\n";
        if (o.tiny ||
            secondsSince(start) + secondsSince(p0) > untracedBudget)
            break;
    }

    // Setup is cheap next to a pass; repeat it until every cell has
    // at least nine samples for its median.
    constexpr std::size_t setupSamples = 9;
    for (std::size_t i = 0; i < cells.size() && !o.tiny; ++i) {
        while (!rs[i].failed && rs[i].setupS.size() < setupSamples) {
            const Setup s = setUp(cells[i]);
            rs[i].addSetup(s, gauge.scale());
        }
    }

    LayerTotals lt;
    if (o.trace) {
        lt.tr.calibrate();
        for (;;) {
            const std::int64_t p0 = nowNs();
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (!rs[i].failed)
                    runTraced(cells[i], rs[i], lt);
            }
            if (o.tiny ||
                secondsSince(start) + secondsSince(p0) > o.seconds)
                break;
        }
    }

    unsigned failed = 0;
    std::uint64_t accesses = 0, digest = 0xcbf29ce484222325ull;
    double runS = 0, scaledRunS = 0;
    double setupS = 0, rawSetupS = 0;
    double layoutS = 0, streamsS = 0, systemS = 0;
    for (const auto &r : rs) {
        if (r.failed) {
            ++failed;
            continue;
        }
        accesses += r.accesses;
        runS += median(r.runS);
        scaledRunS += median(r.scaledRunS);
        setupS += median(r.setupS);
        rawSetupS += median(r.rawSetupS);
        layoutS += median(r.layoutS);
        streamsS += median(r.streamsS);
        systemS += median(r.systemS);
        for (const auto &[name, v] : r.dump.items()) {
            digest = fnv1a(digest, name.data(), name.size());
            digest = fnv1a(digest, &v, sizeof v);
        }
    }

    // Host fingerprint and behaviour digest: beside the metrics, not
    // metrics themselves.
    std::cout << "# host {\"cpu\": \"" << cpuModel()
              << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"compiler\": \"" << compilerId()
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
              << "}\n";
    std::cout << "# workload " << o.workload << " seed " << o.seed
              << ": " << cells.size() << " cells, " << passes
              << " untraced passes, stats digest " << std::hex << digest
              << std::dec << "\n";
    std::cout << "# gauge: median " << median(gauge.readings)
              << " ns/step over " << gauge.readings.size()
              << " readings (nominal " << HostGauge::nominalNsPerStep
              << "); unscaled " << ratio(static_cast<double>(accesses), runS)
              << " accesses per CPU second, set-up " << rawSetupS
              << " s CPU\n";

    Emitter em;
    auto put = [&](const std::string &n, double v) {
        em.add(n, v, unitOf(n));
    };
    if (!o.trace) {
        put("accesses_per_s",
            ratio(static_cast<double>(accesses), scaledRunS));
        put("setup_s", setupS);
        put("peak_rss_mib", static_cast<double>(procStatus("VmHWM")) /
                                1024.0);
    } else {
        const Tracer &tr = lt.tr;
        const double acc = static_cast<double>(lt.accesses);
        auto ns = [&](std::int64_t t) {
            return static_cast<double>(t) * tr.nsPerTick;
        };
        // Traced time net of the calibrated span cost: the layer self
        // times and the unattributed rest add up to exactly this.
        const double effNs = lt.tracedS * 1e9 -
            static_cast<double>(tr.spans) * ns(tr.spanCost);
        double attributed = 0;
        for (unsigned l = 0; l < NumLayers; ++l)
            attributed += ns(tr.self[l]);
        auto perCall = [&](Layer l) {
            return ratio(ns(tr.self[l]), static_cast<double>(tr.calls[l]));
        };
        auto share = [&](Layer l) { return ratio(ns(tr.self[l]), effNs); };
        put("workload.next_ns", perCall(LWorkload));
        put("workload.share", share(LWorkload));
        put("sim.driver_ns", perCall(LSim));
        put("sim.setup.layout_s", layoutS);
        put("sim.setup.streams_s", streamsS);
        put("sim.setup.system_s", systemS);
        put("core.priv_ns", perCall(LCore));
        put("core.priv_calls", static_cast<double>(tr.calls[LCore]));
        put("core.priv_share", share(LCore));
        const double hits = dumpSum(rs, "core.priv_hits");
        const double misses = dumpSum(rs, "core.misses");
        const double upgs = dumpSum(rs, "core.upgrades");
        const double measured = hits + misses + upgs;
        put("core.priv_hits", hits);
        put("core.misses", misses);
        put("core.upgrades", upgs);
        put("core.priv_hit_rate", ratio(hits, measured));
        put("proto.engine.request_ns", perCall(LEngineReq));
        put("proto.engine.notice_ns", perCall(LEngineNotice));
        for (const char *s : {"wb.notices", "fwd.owner", "inval.messages",
                              "inval.back", "nack.retries"})
            put(s, dumpSum(rs, s));
        put("nack.retries_per_request",
            ratio(dumpSum(rs, "nack.retries"), misses + upgs));
        put("proto.tracker.call_ns", perCall(LTracker));
        put("proto.tracker.calls_per_access",
            ratio(static_cast<double>(lt.trackerCalls), acc));
        put("proto.tracker.share", share(LTracker));
        for (const char *f : {"sparse", "sharedonly", "tagext", "inllc",
                              "tiny", "mgd", "stash"}) {
            // 0 when the workload has no cell of that tracker.
            const auto it = lt.perScheme.find(f);
            const double v = it == lt.perScheme.end()
                ? 0.0
                : ratio(ns(it->second.first),
                        static_cast<double>(it->second.second));
            put(std::string("proto.tracker.") + f + ".call_ns", v);
        }
        for (const char *s : {"dir.hits", "dir.allocs", "dir.spills",
                              "dir.broadcasts"})
            put(s, dumpSum(rs, s));
        put("dir.hits_per_alloc",
            ratio(dumpSum(rs, "dir.hits"), dumpSum(rs, "dir.allocs")));
        put("cache.llc.find_ns",
            ratio(ns(lt.llcFindTicks), static_cast<double>(lt.llcFinds)));
        for (const char *s : {"llc.accesses", "llc.data_misses",
                              "llc.fills", "spill.saved_accesses"})
            put(s, dumpSum(rs, s));
        put("llc.miss_rate", ratio(dumpSum(rs, "llc.data_misses"),
                                   dumpSum(rs, "llc.accesses")));
        for (const char *cls : {"processor", "coherence", "writeback"}) {
            const std::string stat =
                std::string("traffic.") + cls + ".bytes";
            put(stat + "_per_access",
                ratio(dumpSum(rs, stat.c_str()), measured));
        }
        put("dram.accesses", dumpSum(rs, "dram.accesses"));
        put("dram.row_hit_rate", ratio(dumpSum(rs, "dram.row_hits"),
                                       dumpSum(rs, "dram.accesses")));
        put("trace.overhead_frac",
            ratio(lt.tracedCpuS - lt.untracedS, lt.untracedS));
        put("trace.unattributed_frac", ratio(effNs - attributed, effNs));
        std::cout << "# trace: " << tr.spans << " spans, empty span "
                  << ns(tr.spanIn) << " ns recorded / " << ns(tr.spanCost)
                  << " ns cost, traced " << lt.tracedS << " s wall / "
                  << lt.tracedCpuS << " s CPU vs untraced " << lt.untracedS
                  << " s CPU\n";
        // The whole split, which sums to 1 by construction.
        static const char *const names[NumLayers] = {
            "workload", "sim", "core", "engine.request", "engine.notice",
            "tracker"};
        std::cout << "# self-time shares:";
        for (unsigned l = 0; l < NumLayers; ++l)
            std::cout << " " << names[l] << " " << share(Layer(l));
        std::cout << " unattributed " << ratio(effNs - attributed, effNs)
                  << "\n";
    }
    std::cout << "{\"correct\": " << (failed ? "false" : "true")
              << ", \"attempted\": " << cells.size()
              << ", \"failed\": " << failed << ", \"metrics\": {"
              << em.os.str() << "}}" << std::endl;
    return 0;
}

// ---------------------------------------------------------------------
// Self-test.

/**
 * The identity check must catch a traced run that diverges: replay a
 * tiny cell once faithfully (must pass) and once with a tracker that
 * drops one update (must be counted failed).
 */
int
selfTest()
{
    int bad = 0;
    for (const char *w : workloadNames) {
        for (std::uint64_t drop : {std::uint64_t(0), std::uint64_t(3)}) {
            std::vector<Cell> cells = makeWorkload(w, 7, true);
            Cell &c = cells.front();
            CellResult r;
            LayerTotals lt;
            HostGauge gauge;
            lt.tr.calibrate();
            runUntraced(c, r, gauge);
            if (r.failed) {
                std::cerr << "self-test: untraced " << c.label
                          << " failed: " << r.why << "\n";
                ++bad;
                continue;
            }
            runTraced(c, r, lt, drop);
            const bool want_fail = drop != 0;
            const bool caught = r.why.rfind("traced dump differs", 0) == 0;
            if (r.failed != want_fail || (want_fail && !caught)) {
                std::cerr << "self-test: " << w << " drop=" << drop
                          << ": expected "
                          << (want_fail ? "a failed" : "a clean")
                          << " cell, got " << (r.failed ? r.why : "clean")
                          << "\n";
                ++bad;
            } else {
                std::cout << "self-test: " << w << " "
                          << (want_fail ? "dropped update caught: " + r.why
                                        : std::string("traced == untraced"))
                          << "\n";
            }
        }
    }
    std::cout << (bad ? "self-test FAILED" : "self-test ok") << "\n";
    return bad ? 1 : 0;
}

void
listMetrics()
{
    std::cout << "[";
    bool first = true;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const auto &m : *list) {
            std::cout << (first ? "\n" : ",\n") << "  {\"name\": \""
                      << m.name << "\", \"unit\": \"" << m.unit
                      << "\", \"better\": \"" << m.better
                      << "\", \"layer\": \"" << m.layer
                      << "\", \"moves\": \"" << m.moves
                      << "\", \"on\": \"" << m.on << "\"}";
            first = false;
        }
    }
    std::cout << "\n]\n";
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload grid8|grid64|cold512 "
                 "--seed N --seconds S --trace 0|1 [--tiny]\n"
                 "       perfbench --self-test | --list-metrics\n";
    std::exit(2);
}

std::uint64_t
parseNumber(const char *flag, const char *v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (!*v || *end)
        usage(std::string(flag) + " expects a non-negative integer");
    return n;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
try {
    using namespace perfbench;
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--self-test")
            return selfTest();
        if (a == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = parseNumber("--seed", value());
        else if (a == "--seconds")
            o.seconds = static_cast<double>(
                parseNumber("--seconds", value()));
        else if (a == "--trace")
            o.trace = static_cast<int>(parseNumber("--trace", value()));
        else if (a == "--tiny")
            o.tiny = true;
        else
            usage("unknown argument " + a);
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.trace != 0 && o.trace != 1)
        usage("--trace must be 0 or 1");
    return runWorkload(o);
} catch (const tinydir::SimError &e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
}
