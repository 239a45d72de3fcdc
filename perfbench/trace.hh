/**
 * @file
 * The traced run: replays one cell exactly as the serial Driver does,
 * but times every layer at its public boundary from outside the
 * library. No simulator source is edited; the seams used are
 *
 *  - AccessStream: each core's stream is wrapped in TimedStream;
 *  - Engine::setTracker: a forwarding TracingTracker times the
 *    outermost tracker calls and records the onLlcAccess block stream
 *    that the cache.llc replay uses;
 *  - System::accessFlow: TracedExec mirrors the library's serial
 *    execution context, bracketing the private hierarchy
 *    (lockPriv/unlockPriv) and the home engine (request/notice);
 *  - TimeWheel<CoreId>: the serial issue order (earliest cycle first,
 *    lowest core on ties) is replayed with the public wheel.
 *
 * Self times come from a span stack: a span's self time is its
 * duration minus the part its child spans cover, both net of the
 * calibrated cost of an empty span.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "cache/llc.hh"
#include "common/time_wheel.hh"
#include "core/trace.hh"
#include "proto/tracker.hh"
#include "sim/system.hh"

namespace perfbench
{

using namespace tinydir;

/** Layers timed by the traced run, named after the src/ modules. */
enum Layer : unsigned
{
    LWorkload,     //!< AccessStream::next
    LSim,          //!< issue loop outside System (wheel, refill)
    LCore,         //!< private hierarchy inside accessFlow
    LEngineReq,    //!< Engine::request minus tracker time
    LEngineNotice, //!< Engine::evictionNotice minus tracker time
    LTracker,      //!< outermost CoherenceTracker calls
    NumLayers
};

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time of the calling thread, in ns. The benchmark's cells run on
 * one thread, so this is the host time a cell costs without the time
 * the thread waited for a CPU: other processes on the host and, in a
 * guest with steal-time accounting, other guests do not inflate it.
 */
inline std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
        ts.tv_nsec;
}

/**
 * Span timestamp. On x86-64 the time-stamp counter costs about half a
 * steady_clock read, and a traced access takes ~9 spans; elsewhere
 * the steady clock itself. Tracer::calibrate() measures the tick
 * length.
 */
inline std::int64_t
ticks()
{
#if defined(__x86_64__)
    return static_cast<std::int64_t>(__rdtsc());
#else
    return nowNs();
#endif
}

/** Span stack with per-layer self-time accumulation, in ticks. */
class Tracer
{
  public:
    /** Length of one tick in ns. */
    double nsPerTick = 1.0;
    /** Measured duration of an empty span (inside its own interval). */
    std::int64_t spanIn = 0;
    /** Full host cost of one empty span, as its parent sees it. */
    std::int64_t spanCost = 0;

    std::array<std::int64_t, NumLayers> self{};
    std::array<std::uint64_t, NumLayers> calls{};
    std::uint64_t spans = 0;

    void
    begin(Layer l)
    {
        stack[depth++] = Frame{ticks(), 0, l};
    }

    void
    end()
    {
        const std::int64_t t = ticks();
        const Frame f = stack[--depth];
        const std::int64_t dur =
            std::max<std::int64_t>(0, t - f.start - spanIn);
        self[f.layer] += std::max<std::int64_t>(0, dur - f.child);
        ++calls[f.layer];
        ++spans;
        if (depth > 0)
            stack[depth - 1].child += dur + spanCost;
    }

    /** Drop open spans (a cell threw mid-access). */
    void unwind() { depth = 0; }

    /**
     * Measure the tick length against the steady clock, then the cost
     * of an empty span: the median recorded duration (spanIn) and the
     * amortized wall cost per span in a tight loop (spanCost), each
     * the median of several batches.
     */
    void
    calibrate()
    {
        const std::int64_t n0 = nowNs(), k0 = ticks();
        while (nowNs() - n0 < 50'000'000) {
        }
        const std::int64_t n1 = nowNs(), k1 = ticks();
        nsPerTick = static_cast<double>(n1 - n0) /
            static_cast<double>(std::max<std::int64_t>(1, k1 - k0));

        constexpr int batches = 15;
        constexpr int perBatch = 20000;
        std::vector<std::int64_t> inner, whole;
        for (int b = 0; b < batches; ++b) {
            std::vector<std::int64_t> d(perBatch);
            const std::int64_t t0 = ticks();
            for (int i = 0; i < perBatch; ++i) {
                const std::int64_t a = ticks();
                const std::int64_t z = ticks();
                d[i] = z - a;
            }
            const std::int64_t t1 = ticks();
            std::nth_element(d.begin(), d.begin() + perBatch / 2, d.end());
            inner.push_back(d[perBatch / 2]);
            whole.push_back((t1 - t0) / perBatch);
        }
        std::nth_element(inner.begin(), inner.begin() + batches / 2,
                         inner.end());
        std::nth_element(whole.begin(), whole.begin() + batches / 2,
                         whole.end());
        spanIn = inner[batches / 2];
        spanCost = whole[batches / 2];
    }

  private:
    struct Frame
    {
        std::int64_t start;
        std::int64_t child;
        Layer layer;
    };
    std::array<Frame, 32> stack{};
    unsigned depth = 0;
};

/** AccessStream decorator timing every next() as the workload layer. */
class TimedStream : public AccessStream
{
  public:
    TimedStream(std::unique_ptr<AccessStream> in, Tracer &t)
        : inner(std::move(in)), tr(t)
    {
    }

    bool
    next(TraceAccess &out) override
    {
        tr.begin(LWorkload);
        const bool more = inner->next(out);
        tr.end();
        return more;
    }

  private:
    std::unique_ptr<AccessStream> inner;
    Tracer &tr;
};

/**
 * Forwarding tracker installed with Engine::setTracker. It forwards
 * what the engine calls; statistics, verification and checkpoints go
 * through System::tracker, which stays the real one. Tracker calls
 * nest through EngineOps (an update can evict an LLC way, whose victim
 * handler calls back into the tracker), so only the outermost call is
 * a span; nested work counts toward it. dropUpdateAt > 0 makes the
 * n-th update vanish: the self-test's forced mismatch.
 */
class TracingTracker : public CoherenceTracker
{
  public:
    TracingTracker(CoherenceTracker &in, Tracer &t,
                   std::vector<Addr> &llc_stream)
        : inner(in), tr(t), llcStream(llc_stream)
    {
    }

    std::uint64_t outerCalls = 0;
    std::uint64_t dropUpdateAt = 0;

    TrackerView
    view(Addr block) override
    {
        Scope s(*this);
        return inner.view(block);
    }

    void
    update(Addr block, const TrackState &ns, const ReqCtx &ctx,
           EngineOps &ops) override
    {
        Scope s(*this);
        if (dropUpdateAt && ++updates == dropUpdateAt)
            return;
        inner.update(block, ns, ctx, ops);
    }

    void
    evictionUpdate(Addr block, const TrackState &ns, MesiState put,
                   EngineOps &ops) override
    {
        Scope s(*this);
        inner.evictionUpdate(block, ns, put, ops);
    }

    void
    onLlcDataVictim(const LlcEntry &victim, EngineOps &ops) override
    {
        Scope s(*this);
        inner.onLlcDataVictim(victim, ops);
    }

    void
    onLlcSpillVictim(const LlcEntry &victim, EngineOps &ops) override
    {
        Scope s(*this);
        inner.onLlcSpillVictim(victim, ops);
    }

    void
    onLlcAccess(Addr block, bool miss, bool stra_read) override
    {
        llcStream.push_back(block);
        Scope s(*this);
        inner.onLlcAccess(block, miss, stra_read);
    }

    void
    tick(Cycle now) override
    {
        Scope s(*this);
        inner.tick(now);
    }

    unsigned
    evictionNoticeExtraBytes(MesiState st) const override
    {
        return inner.evictionNoticeExtraBytes(st);
    }

    bool coarseGrain() const override { return inner.coarseGrain(); }
    std::uint64_t trackerSramBits() const override
    {
        return inner.trackerSramBits();
    }
    std::string name() const override { return inner.name(); }

  private:
    /** Span over the outermost tracker call only. */
    struct Scope
    {
        TracingTracker &t;
        explicit Scope(TracingTracker &tt) : t(tt)
        {
            if (t.nest++ == 0) {
                ++t.outerCalls;
                t.tr.begin(LTracker);
            }
        }
        ~Scope()
        {
            if (--t.nest == 0)
                t.tr.end();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
    };

    CoherenceTracker &inner;
    Tracer &tr;
    std::vector<Addr> &llcStream;
    unsigned nest = 0;
    std::uint64_t updates = 0;
};

/**
 * Execution context for System::accessFlow mirroring the library's
 * serial one (single-threaded, debug txn ring and observer events on)
 * with spans around the private hierarchy and the home engine.
 */
struct TracedExec
{
    System &sys;
    Tracer &tr;
    NoticeVec &buf;

    static constexpr bool debugTxn = true;

    NoticeVec &scratch() { return buf; }
    void lockPriv(CoreId) { tr.begin(LCore); }
    void unlockPriv(CoreId) { tr.end(); }

    RequestResult
    request(CoreId c, Addr block, ReqType type, Cycle at)
    {
        tr.begin(LEngineReq);
        const RequestResult r = sys.engine.request(c, block, type, at);
        tr.end();
        return r;
    }

    void finishRequest(Addr) {}

    void
    notice(CoreId c, Addr block, MesiState st, Cycle t)
    {
        sys.noteNoticeDebug(c, block, st, t);
        tr.begin(LEngineNotice);
        sys.engine.evictionNotice(c, block, st, t);
        tr.end();
    }
};

/** What one traced cell measured. */
struct TracedCell
{
    double seconds = 0.0;      //!< wall time of the traced replay
    double cpuSeconds = 0.0;   //!< thread CPU time of the same replay
    std::uint64_t accesses = 0;
    std::uint64_t trackerOuterCalls = 0;
    std::int64_t trackerSelfTicks = 0;
    std::vector<Addr> llcStream; //!< onLlcAccess blocks, in order
};

/**
 * Replay @p streams against @p sys in the serial Driver's order,
 * tracing every layer. Statistics are reset after @p warmup_accesses
 * and the system is finalized at the end, exactly as Driver::run does,
 * so the final dump must equal the untraced run's.
 */
inline TracedCell
tracedRun(System &sys, std::vector<std::unique_ptr<AccessStream>> streams,
          Counter warmup_accesses, Tracer &tr,
          std::uint64_t drop_update_at = 0)
{
    TracedCell out;
    TracingTracker tt(*sys.tracker, tr, out.llcStream);
    tt.dropUpdateAt = drop_update_at;
    sys.engine.setTracker(&tt);
    // Restore the real tracker however the replay ends.
    struct Reinstall
    {
        System &s;
        ~Reinstall() { s.engine.setTracker(s.tracker.get()); }
    } reinstall{sys};

    const std::int64_t trackerBefore = tr.self[LTracker];
    const unsigned n = sys.cfg.numCores;
    for (auto &s : streams)
        s = std::make_unique<TimedStream>(std::move(s), tr);
    NoticeVec buf;
    TracedExec ex{sys, tr, buf};
    std::vector<Cycle> issues(n, 0);
    std::vector<TraceAccess> pending(n);
    TimeWheel<CoreId> wheel;
    wheel.reserve(n);
    unsigned live = 0;

    const std::int64_t t0 = nowNs(), c0 = cpuNs();
    for (CoreId c = 0; c < n; ++c) {
        TraceAccess acc;
        if (streams[c]->next(acc)) {
            issues[c] = sys.cores[c].clock + acc.gap;
            pending[c] = acc;
            wheel.insert(issues[c], c);
            ++live;
        }
    }
    TimeWheel<CoreId>::Event ev{};
    tr.begin(LSim);
    if (live)
        wheel.pop(ev);
    tr.end();
    Counter done_accesses = 0;
    while (live > 0) {
        const CoreId c = ev.payload;
        const Cycle done = sys.accessFlow(ex, c, pending[c], issues[c]);
        sys.cores[c].clock = done;
        ++done_accesses;
        TraceAccess acc;
        const bool more = streams[c]->next(acc);
        tr.begin(LSim);
        if (more) {
            issues[c] = done + acc.gap;
            pending[c] = acc;
            wheel.insert(issues[c], c);
        } else {
            --live;
        }
        if (warmup_accesses && done_accesses == warmup_accesses)
            sys.resetStats();
        if (live)
            wheel.pop(ev);
        tr.end();
    }
    sys.finalize();
    const std::int64_t t1 = nowNs(), c1 = cpuNs();

    out.seconds = static_cast<double>(t1 - t0) * 1e-9;
    out.cpuSeconds = static_cast<double>(c1 - c0) * 1e-9;
    out.accesses = done_accesses;
    out.trackerOuterCalls = tt.outerCalls;
    out.trackerSelfTicks = tr.self[LTracker] - trackerBefore;
    return out;
}

/**
 * Replay a recorded LLC block stream against a fresh Llc of @p cfg,
 * timing each Llc::findBoth. Hits promote the way, misses allocate
 * one, so set occupancy evolves as in the simulation.
 * @return {total findBoth ticks (net of the empty-span cost), calls}.
 */
inline std::pair<std::int64_t, std::uint64_t>
replayLlc(const SystemConfig &cfg, const std::vector<Addr> &blocks,
          const Tracer &tr)
{
    Llc llc(cfg);
    std::int64_t total = 0;
    for (Addr b : blocks) {
        const Llc::Loc loc = llc.locate(b);
        const std::int64_t a = ticks();
        const Llc::Pair p = llc.findBoth(loc, b);
        const std::int64_t z = ticks();
        total += std::max<std::int64_t>(0, z - a - tr.spanIn);
        if (p.data)
            llc.touchEntry(loc, p.data);
        else
            llc.allocate(loc, b);
    }
    return {total, blocks.size()};
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
