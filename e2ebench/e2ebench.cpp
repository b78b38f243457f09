/**
 * @file
 * The repository's end-to-end benchmark: every layer of eHDL driven
 * through its public API from one thread —
 *
 *   front end (ebpf::loadElf) → compiler (hdl::compileWithReport,
 *   hdl::estimateResources) → simulator (sim::PipeSim, default engine and
 *   scheduling) → host DMA (host::HostDatapath) → control plane
 *   (ctl::CtlController) → reference-VM oracle (ebpf::Vm)
 *
 * on three seeded workloads (README.md next to this file explains the
 * choice of each). One run repeats rounds of its workload for a fixed
 * host-time budget; rates come from the fastest round, modeled metrics
 * from a fixed number of rounds per seed. Host-time metrics
 * use the process CPU clock; modeled metrics use simulated time at the
 * 250 MHz pipeline clock. The last stdout line is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * with the end-to-end metrics (--trace 0) or the per-layer metrics of the
 * traced run (--trace 1). Every packet verdict, redirect and byte image
 * is checked against the reference VM, and every pass's final maps with
 * MapSet::equal; any mismatch makes the run incorrect and the exit code 1.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "common/rng.hpp"
#include "ctl/controller.hpp"
#include "ebpf/elf.hpp"
#include "ebpf/maps.hpp"
#include "ebpf/vm.hpp"
#include "fuzz/fuzzer.hpp"
#include "hdl/compiler.hpp"
#include "hdl/resources.hpp"
#include "host/host_dma.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace ehdl;

constexpr uint64_t kClockHz = 250'000'000;
constexpr double kNsPerCycle = 1e9 / static_cast<double>(kClockHz);

// ---------------------------------------------------------------------
// Clocks, seeds, digests
// ---------------------------------------------------------------------

/** Process CPU time: the host clock of every phase total. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Monotonic wall clock. Used for the run budget and for the traced run's
 * per-packet timers: the CPU clock is a system call, the monotonic clock
 * a vDSO read, and in a single-threaded run the two advance together.
 */
double
monoSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Independent sub-seed @p stream of round @p round of the run seed. */
uint64_t
subSeed(uint64_t seed, uint64_t round, uint64_t stream)
{
    return splitmix(splitmix(splitmix(seed) ^ round) ^ stream);
}

/** 64-bit hash of a packet image (length-seeded, word at a time). */
uint64_t
hashBytes(const uint8_t *p, size_t n)
{
    uint64_t h = 0x9E3779B97F4A7C15ull ^ n;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w = 0;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0xFF51AFD7ED558CCDull;
        h ^= h >> 33;
    }
    uint64_t tail = 0;
    if (n > i)
        std::memcpy(&tail, p + i, n - i);
    h = (h ^ tail) * 0xC4CEB9FE1A85EC53ull;
    return h ^ (h >> 33);
}

/**
 * What the output check keeps per packet: no bytes, only a digest of
 * the observable result (retirement id, verdict, trap, redirect, image).
 */
struct Digest
{
    uint64_t id = 0;
    uint64_t hash = 0;
    uint32_t redirect = 0;
    uint8_t action = 0;
    uint8_t trapped = 0;

    bool operator==(const Digest &) const = default;
};

// ---------------------------------------------------------------------
// Tracing: spans at every call the benchmark makes into a layer
// ---------------------------------------------------------------------

struct Span
{
    const char *name = "";
    const char *layer = "";
    double start = 0;   ///< process CPU seconds
    double end = 0;
    int parent = -1;    ///< index of the enclosing span, -1 at the root
    int round = 0;
    int program = -1;   ///< program index within the round, -1 outside
    bool aggregate = false;  ///< summed per-packet calls, not one call
};

/** In-memory span recorder; written out once, at the end of the run. */
class Tracer
{
  public:
    int
    open(const char *name, const char *layer, double t)
    {
        Span s;
        s.name = name;
        s.layer = layer;
        s.start = t;
        s.parent = current_;
        s.round = round;
        s.program = program;
        spans_.push_back(s);
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void
    close(int idx, double t)
    {
        spans_[idx].end = t;
        current_ = spans_[idx].parent;
    }

    /**
     * Record @p seconds of per-packet calls (summed over a loop) as one
     * child of the open span, laid end to end from @p start.
     */
    double
    aggregate(const char *name, const char *layer, double start,
              double seconds)
    {
        const int idx = open(name, layer, start);
        spans_[idx].aggregate = true;
        close(idx, start + seconds);
        return start + seconds;
    }

    const std::vector<Span> &spans() const { return spans_; }

    int round = 0;
    int program = -1;

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/**
 * One timed phase: adds its CPU time to @p acc and, in the traced run,
 * records a span. Untraced runs pay two clock reads per phase.
 */
class Phase
{
  public:
    Phase(Tracer *tracer, const char *name, const char *layer, double &acc)
        : tracer_(tracer), acc_(acc), start_(cpuSeconds())
    {
        if (tracer_ != nullptr)
            idx_ = tracer_->open(name, layer, start_);
    }

    ~Phase()
    {
        const double end = cpuSeconds();
        acc_ += end - start_;
        if (tracer_ != nullptr)
            tracer_->close(idx_, end);
    }

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    double start() const { return start_; }

  private:
    Tracer *tracer_;
    double &acc_;
    double start_;
    int idx_ = -1;
};

// ---------------------------------------------------------------------
// Per-round accounting
// ---------------------------------------------------------------------

/** Everything one round measures. Times are CPU seconds summed. */
struct RoundResult
{
    // Host time.
    double makeCaseSec = 0;
    double genSec = 0;
    double setupSec = 0;
    double elfLoadSec = 0;
    double compileSec = 0;
    double resourcesSec = 0;
    double constructSec = 0;
    double ctlSec = 0;
    double drainSec = 0;
    double finishSec = 0;
    double vmCheckSec = 0;
    std::map<std::string, double> passSec;
    // Traced run only (per-packet timers and the phase profiler).
    double vmRunSec = 0;
    double onRetireSec = 0;
    sim::PipeSimPhaseProfile phases;

    // Work and outcome counts.
    uint64_t packets = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t vmInsns = 0;

    // Modeled (simulated-time) quantities; identical for a fixed seed.
    // Summed over a run's first Workload::modeledRounds rounds.
    struct Modeled
    {
        uint64_t cycles = 0;
        uint64_t completed = 0;
        uint64_t flushEvents = 0;
        uint64_t replayedStages = 0;
        uint64_t stallCycles = 0;
        uint64_t eventSkipped = 0;
        uint64_t hazardChecks = 0;
        uint64_t hazardSkips = 0;
        uint64_t ckptTaken = 0;
        uint64_t ckptMaterialized = 0;
        uint64_t stages = 0;
        uint64_t padStages = 0;
        double luts = 0;
        std::vector<uint64_t> latencyHist;  ///< by (exit-entry+1) cycles
        uint64_t dmaDescriptors = 0;
        uint64_t interrupts = 0;
        uint64_t shellDrops = 0;
        unsigned ringOccupancyP99 = 0;
        uint64_t ctlTxns = 0;
        std::vector<uint64_t> ctlLatency;   ///< complete - submit
        uint64_t quiesceCycles = 0;         ///< sum of apply - device

        bool operator==(const Modeled &) const = default;

        Modeled &
        operator+=(const Modeled &o)
        {
            cycles += o.cycles;
            completed += o.completed;
            flushEvents += o.flushEvents;
            replayedStages += o.replayedStages;
            stallCycles += o.stallCycles;
            eventSkipped += o.eventSkipped;
            hazardChecks += o.hazardChecks;
            hazardSkips += o.hazardSkips;
            ckptTaken += o.ckptTaken;
            ckptMaterialized += o.ckptMaterialized;
            stages += o.stages;
            padStages += o.padStages;
            luts += o.luts;
            if (latencyHist.size() < o.latencyHist.size())
                latencyHist.resize(o.latencyHist.size(), 0);
            for (size_t i = 0; i < o.latencyHist.size(); ++i)
                latencyHist[i] += o.latencyHist[i];
            dmaDescriptors += o.dmaDescriptors;
            interrupts += o.interrupts;
            shellDrops += o.shellDrops;
            ringOccupancyP99 = std::max(ringOccupancyP99, o.ringOccupancyP99);
            ctlTxns += o.ctlTxns;
            ctlLatency.insert(ctlLatency.end(), o.ctlLatency.begin(),
                              o.ctlLatency.end());
            quiesceCycles += o.quiesceCycles;
            rounds += o.rounds;
            rejected += o.rejected;
            return *this;
        }

        uint64_t rounds = 1;    ///< rounds summed into this record
        uint64_t rejected = 0;  ///< programs the compiler rejected
    } m;

    /** The `ehdlc sim` path: inputs, set-up, simulate, host drain. */
    double
    simPathSec() const
    {
        return makeCaseSec + genSec + setupSec + ctlSec + drainSec +
               finishSec;
    }
    double verifiedSec() const { return simPathSec() + vmCheckSec; }
    double simulateSec() const { return ctlSec + drainSec; }
};

/**
 * Percentile of the pipeline latency histogram (index: latency in
 * cycles), in ns. A latency of L cycles is the bucket ((L-1)*4, L*4] ns
 * and the percentile is interpolated linearly inside its bucket, as for
 * any bucketed latency histogram. Nearest rank would return a stage
 * count, which cannot show a shift of packets between buckets.
 */
double
latencyPercentileNs(const std::vector<uint64_t> &hist, double p)
{
    uint64_t total = 0;
    for (uint64_t c : hist)
        total += c;
    const double target = p * static_cast<double>(total);
    double below = 0;
    for (size_t lat = 1; lat < hist.size(); ++lat) {
        const double n = static_cast<double>(hist[lat]);
        if (n > 0 && below + n >= target)
            return (static_cast<double>(lat - 1) + (target - below) / n) *
                   kNsPerCycle;
        below += n;
    }
    return 0.0;
}

uint64_t
sortedPercentile(std::vector<uint64_t> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(p * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

// ---------------------------------------------------------------------
// Retirement observers
// ---------------------------------------------------------------------

/**
 * Sits on the simulator's retirement stream: records each outcome's
 * digest and latency, then forwards the retirement to the host queue.
 * In the traced run it times the host queue's onRetire (two clock reads
 * per packet), standing in for a timing adapter around the HostQueue.
 */
class CheckSink final : public sim::RetireSink
{
  public:
    CheckSink(sim::RetireSink &host, bool timed, std::vector<Digest> &out,
              std::vector<uint64_t> &latency_hist)
        : host_(host), timed_(timed), out_(out), hist_(latency_hist)
    {
    }

    void
    onRetire(uint64_t cycle, const sim::PacketOutcome &out) override
    {
        Digest d;
        d.id = out.id;
        d.hash = hashBytes(out.bytes.data(), out.bytes.size());
        d.redirect = out.redirectIfindex;
        d.action = static_cast<uint8_t>(out.action);
        d.trapped = out.trapped ? 1 : 0;
        out_.push_back(d);
        const uint64_t lat = out.exitCycle - out.entryCycle + 1;
        if (lat >= hist_.size())
            hist_.resize(lat + 1, 0);
        hist_[lat]++;
        if (!timed_) {
            host_.onRetire(cycle, out);
            return;
        }
        const double t0 = monoSeconds();
        host_.onRetire(cycle, out);
        hostSec += monoSeconds() - t0;
    }

    double hostSec = 0;

  private:
    sim::RetireSink &host_;
    bool timed_;
    std::vector<Digest> &out_;
    std::vector<uint64_t> &hist_;
};

// ---------------------------------------------------------------------
// Workload description
// ---------------------------------------------------------------------

/**
 * A workload's traffic: one seeded trace that runs through the whole run
 * and is cut into consecutive passes, one per program and round. Before a
 * pass the generator is copied, and the copy replays the pass's packets
 * for the VM check; generator set-up (for CAIDA a 184k-entry Zipf table)
 * is paid once per run, as by one long `ehdlc sim` trace. Arrival times
 * are rebased to the first packet of each pass.
 */
class TrafficStream
{
  public:
    TrafficStream(const sim::TrafficConfig &config, bool all_at_zero)
        : gen_(config), allAtZero_(all_at_zero)
    {
    }

    /** Remember where the next pass starts, for replay(). */
    void mark() { replay_.emplace(gen_); }

    /** Call @p f on the next @p count packets; @return last arrival. */
    template <typename F>
    uint64_t
    next(uint64_t count, F &&f)
    {
        return emit(gen_, count, f);
    }

    /** Call @p f on the packets since mark() once more. */
    template <typename F>
    void
    replay(uint64_t count, F &&f)
    {
        emit(*replay_, count, f);
        replay_.reset();
    }

  private:
    template <typename F>
    uint64_t
    emit(sim::TrafficGen &gen, uint64_t count, F &&f)
    {
        uint64_t base = 0;
        uint64_t last = 0;
        for (uint64_t i = 0; i < count; ++i) {
            net::Packet p = gen.next();
            if (i == 0)
                base = p.arrivalNs;
            p.arrivalNs = allAtZero_ ? 0 : p.arrivalNs - base;
            last = p.arrivalNs;
            f(std::move(p));
        }
        return last;
    }

    sim::TrafficGen gen_;
    std::optional<sim::TrafficGen> replay_;
    bool allAtZero_;
};

/** Where a pass's packets come from: an app's stream or a fuzz case. */
struct PacketSource
{
    TrafficStream *stream = nullptr;
    uint64_t count = 0;
    const fuzz::FuzzCase *fcase = nullptr;

    /**
     * Call @p f on each packet in offer order, for the simulator or, with
     * @p replay, once more for the VM check. @return the last arrival.
     */
    template <typename F>
    uint64_t
    forEach(bool replay, F &&f) const
    {
        if (stream != nullptr && replay) {
            stream->replay(count, f);
            return 0;
        }
        if (stream != nullptr)
            return stream->next(count, f);
        uint64_t last = 0;
        for (const fuzz::CasePacket &cp : fcase->packets) {
            net::Packet p(cp.bytes);
            p.id = cp.id;
            p.arrivalNs = cp.arrivalNs;
            last = p.arrivalNs;
            f(std::move(p));
        }
        return last;
    }
};

/** One program of a round plus its traffic. */
struct PassSpec
{
    std::string label;
    std::vector<uint8_t> elf;  ///< the program as bytes (front-end input)
    hdl::PipelineOptions options;
    std::function<void(ebpf::MapSet &)> seedMaps;
    PacketSource source;
    /** Route updates per second from the host (0: no control plane). */
    uint64_t routeUpdatesPerSec = 0;
    uint64_t ctlSeed = 0;
    /** A compiler rejection is a failure (paper apps) or expected. */
    bool mustCompile = true;
};

/**
 * How much one round runs, and over how many rounds the modeled metrics
 * are summed. Every round takes fresh inputs from the run seed; the
 * modeled metrics use a fixed number of rounds so that they repeat
 * exactly for a seed, and that number is large enough for the rarer
 * events (flushes on apps_saturated) to be counted in the hundreds.
 * Passes are kept short, a few MB of working set rather than tens, which
 * makes host time far less sensitive to the cache and memory traffic of
 * other tenants of a shared machine (STEADINESS.md).
 */
struct Sizes
{
    uint64_t saturatedPackets = 8'000;  ///< per app and round
    uint64_t caidaPackets = 3'000;      ///< per app and round
    uint64_t fuzzCases = 400;           ///< per round
    uint64_t saturatedRounds = 200;
    uint64_t caidaRounds = 120;
    uint64_t fuzzRounds = 40;
};

struct Workload
{
    std::string name;
    uint64_t seed = 0;
    uint64_t modeledRounds = 1;
    std::vector<PassSpec> passes;  ///< fixed programs (apps)
    std::unique_ptr<TrafficStream> stream;  ///< the apps' traffic
    uint64_t fuzzCases = 0;        ///< >0: a makeCase stream instead
    fuzz::FuzzOptions fuzzOpts;
};

struct NamedApp
{
    const char *name;
    apps::AppSpec spec;
};

std::vector<NamedApp>
paperApps()
{
    return {
        {"Firewall", apps::makeSimpleFirewall()},
        {"Router", apps::makeRouterIpv4()},
        {"Tunnel", apps::makeTxIpTunnel()},
        {"DNAT", apps::makeDnat()},
        {"Suricata", apps::makeSuricataFilter()},
    };
}

/**
 * Give @p w the programs @p apps, each pass @p count packets of one
 * shared trace. Every app asks for UDP traffic; the trace also carries
 * the reverse-direction share the Firewall asks for (no other app asks
 * for any).
 */
void
addApps(Workload &w, const std::vector<NamedApp> &apps,
        sim::TrafficConfig traffic, uint64_t count, bool all_at_zero)
{
    for (const NamedApp &app : apps)
        traffic.reverseFraction =
            std::max(traffic.reverseFraction, app.spec.reverseFraction);
    traffic.seed = subSeed(w.seed, 0, 0);
    w.stream = std::make_unique<TrafficStream>(traffic, all_at_zero);
    for (const NamedApp &app : apps) {
        PassSpec &p = w.passes.emplace_back();
        p.label = app.name;
        p.elf = ebpf::writeElf(app.spec.prog);
        p.seedMaps = app.spec.seedMaps;
        p.source.stream = w.stream.get();
        p.source.count = count;
    }
}

Workload
makeWorkload(const std::string &name, uint64_t seed, const Sizes &sizes,
             bool inject_flush_bug)
{
    Workload w;
    w.name = name;
    w.seed = seed;
    if (name == "apps_saturated") {
        w.modeledRounds = sizes.saturatedRounds;
        // Fig. 9a regime: back-to-back 64 B frames, 10k uniform flows.
        sim::TrafficConfig tc;
        tc.numFlows = 10'000;
        tc.packetLen = 64;
        addApps(w, paperApps(), tc, sizes.saturatedPackets, true);
    } else if (name == "caida_line_rate") {
        // Section 5.3 regime: CAIDA-profile replay at 100 Gbps, 30% of
        // flows host-destined, route updates beside the Router's lookups.
        w.modeledRounds = sizes.caidaRounds;
        std::vector<NamedApp> apps = paperApps();
        apps.push_back({"LeakyBucket", apps::makeLeakyBucket()});
        const sim::TraceProfile caida = sim::caidaProfile();
        sim::TrafficConfig tc;
        tc.numFlows = caida.flows;
        tc.zipfS = caida.zipfS;
        tc.packetLen = 0;
        tc.meanPacketLen = caida.meanPacketLen;
        tc.lineRateGbps = 100.0;
        tc.hostFlowFraction = 0.3;
        addApps(w, apps, tc, sizes.caidaPackets, false);
        for (PassSpec &p : w.passes)
            if (p.label == "Router")
                p.routeUpdatesPerSec = 100'000;
    } else if (name == "fuzz_cases") {
        w.modeledRounds = sizes.fuzzRounds;
        w.fuzzCases = sizes.fuzzCases;
        w.fuzzOpts.seed = seed;
        w.fuzzOpts.injectFlushBug = inject_flush_bug;
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return w;
}

/** Route churn: one /24 next-hop rewrite every 1/rate seconds. */
ctl::CtlSchedule
routeChurn(uint64_t rate, uint64_t end_cycle, uint64_t seed)
{
    ctl::CtlSchedule sched;
    Rng rng(seed);
    const uint64_t interval = kClockHz / rate;
    for (uint64_t cycle = interval; cycle <= end_cycle; cycle += interval) {
        ctl::CtlMapOp op;
        op.kind = ctl::CtlOpKind::MapUpdate;
        op.map = "routes";
        // Key: prefix length (LE u32), then the prefix (BE); 64 distinct
        // /24s inside the traffic's 192.168/16 keep the table bounded.
        op.key = {24, 0, 0, 0, 192, 168,
                  static_cast<uint8_t>(rng.below(64) * 4), 0};
        op.value.assign(16, 0);
        op.value[0] = static_cast<uint8_t>(2 + rng.below(4));  // ifindex
        for (size_t i = 4; i < 16; ++i)
            op.value[i] = static_cast<uint8_t>(rng.next());
        ctl::CtlTxn txn;
        txn.cycle = cycle;
        txn.kind = ctl::CtlOpKind::MapUpdate;
        txn.ops.push_back(std::move(op));
        sched.txns.push_back(std::move(txn));
    }
    return sched;
}

// ---------------------------------------------------------------------
// One pass: set-up → traffic → simulate → host drain → VM check
// ---------------------------------------------------------------------

std::string engineDesc;
std::string schedDesc;

void
runPass(const PassSpec &spec, RoundResult &r, Tracer *tr)
{
    const bool traced = tr != nullptr;
    std::optional<Phase> setup;
    setup.emplace(tr, "setup", "bench", r.setupSec);

    ebpf::Program prog;
    {
        Phase ph(tr, "ebpf.elf.load", "frontend", r.elfLoadSec);
        prog = ebpf::loadElf(spec.elf, spec.label);
    }
    hdl::CompileResult compiled;
    {
        Phase ph(tr, "hdl.compile", "compiler", r.compileSec);
        compiled = hdl::compileWithReport(prog, spec.options);
    }
    for (const hdl::PassTiming &t : compiled.report.passes)
        r.passSec[t.name] += t.seconds;
    if (spec.mustCompile)
        r.attempted++;
    if (!compiled.pipeline) {
        r.m.rejected++;
        if (spec.mustCompile) {
            r.failed++;
            std::fprintf(stderr, "FAIL %s: compiler rejected the program\n",
                         spec.label.c_str());
        }
        return;
    }
    const hdl::Pipeline &pipe = *compiled.pipeline;
    {
        Phase ph(tr, "hdl.resources", "compiler", r.resourcesSec);
        r.m.luts += hdl::estimateResources(pipe, false).pipeline.luts;
    }
    r.m.stages += compiled.report.stages;
    r.m.padStages +=
        compiled.report.framingPads + compiled.report.helperPads;

    // Default engine and scheduling: what `ehdlc sim` runs. The input
    // queue holds the whole pass, as in `ehdlc sim`.
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 20;
    config.profilePhases = traced;
    ebpf::MapSet maps(prog.maps);
    std::optional<sim::PipeSim> sim;
    std::optional<host::HostDatapath> host;
    std::vector<Digest> simDigests;
    std::optional<CheckSink> check;
    {
        Phase ph(tr, "sim.construct", "sim", r.constructSec);
        if (spec.seedMaps)
            spec.seedMaps(maps);
        sim.emplace(pipe, maps, config);
        host::HostDmaConfig hc;
        hc.clockHz = config.clockHz;
        host.emplace(hc);
        check.emplace(host->queue(0), traced, simDigests, r.m.latencyHist);
        sim->attachRetireSink(&*check);
    }
    setup.reset();
    engineDesc = sim->engineInfo().describe();
    schedDesc = config.schedMode == sim::SchedMode::Dense ? "dense" : "event";

    uint64_t offered = 0;
    uint64_t last_arrival_ns = 0;
    if (spec.source.stream != nullptr)
        spec.source.stream->mark();  // the check's copy, not timed
    {
        Phase ph(tr, "traffic.gen", "traffic", r.genSec);
        last_arrival_ns = spec.source.forEach(false, [&](net::Packet &&p) {
            sim->offer(std::move(p));
            ++offered;
        });
    }
    simDigests.reserve(offered);

    ctl::CtlSchedule sched;
    ctl::CtlRunReport report;
    if (spec.routeUpdatesPerSec > 0) {
        sched = routeChurn(spec.routeUpdatesPerSec,
                           last_arrival_ns / 4 + 2000, spec.ctlSeed);
        Phase ph(tr, "ctl.run", "ctl", r.ctlSec);
        ctl::CtlController ctrl(*sim, maps);
        ctrl.attachHost(&*host);
        report = ctrl.run(sched);
        if (traced)
            tr->aggregate("host.on_retire", "host", ph.start(),
                          check->hostSec);
    }
    {
        const double host_before = check->hostSec;
        Phase ph(tr, "sim.drain", "sim", r.drainSec);
        sim->drain();
        if (traced)
            tr->aggregate("host.on_retire", "host", ph.start(),
                          check->hostSec - host_before);
    }
    {
        Phase ph(tr, "host.finish", "host", r.finishSec);
        host->finishAll();
    }
    r.onRetireSec += check->hostSec;

    // Modeled counters of the pass.
    const sim::PipeSimStats &st = sim->stats();
    r.m.cycles += st.cycles;
    r.m.completed += st.completed;
    r.m.flushEvents += st.flushEvents;
    r.m.replayedStages += st.replayedStages;
    r.m.stallCycles += st.stallCycles;
    r.m.eventSkipped += st.eventSkippedCycles;
    r.m.hazardChecks += st.hazardChecks;
    r.m.hazardSkips += st.hazardSummarySkips;
    r.m.ckptTaken += st.checkpointsTaken;
    r.m.ckptMaterialized += st.checkpointsMaterialized;
    const host::HostQueueCounters hq = host->totals();
    r.m.dmaDescriptors += hq.dmaDescriptors;
    r.m.interrupts += hq.interrupts;
    r.m.shellDrops += hq.shellDrops;
    r.m.ringOccupancyP99 = std::max(r.m.ringOccupancyP99,
                                    host->queue(0).occupancyPercentile(0.99));
    for (const ctl::CtlTxnRecord &rec : report.txns) {
        r.m.ctlTxns++;
        r.m.ctlLatency.push_back(rec.completeCycle - rec.submitCycle);
        r.m.quiesceCycles += rec.applyCycle.at(0) - rec.deviceCycle;
    }
    if (traced) {
        const sim::PipeSimPhaseProfile pp = sim->phaseProfile();
        r.phases.executeSec += pp.executeSec;
        r.phases.hazardSec += pp.hazardSec;
        r.phases.checkpointSec += pp.checkpointSec;
        r.phases.commitSec += pp.commitSec;
        r.phases.advanceRetireSec += pp.advanceRetireSec;
        r.phases.flushSec += pp.flushSec;
    }

    // Output check: replay the same packets, run the reference VM
    // with the recorded control-plane transactions applied at the same
    // packet boundaries, and compare digests, host-op results and maps.
    Phase ph(tr, "vm.check", "bench", r.vmCheckSec);
    uint64_t mismatches = 0;
    if (st.lost != 0 || simDigests.size() != offered) {
        std::fprintf(stderr,
                     "FAIL %s: %zu of %llu packets retired (%llu lost)\n",
                     spec.label.c_str(), simDigests.size(),
                     static_cast<unsigned long long>(offered),
                     static_cast<unsigned long long>(st.lost));
        mismatches += offered - std::min<uint64_t>(offered, simDigests.size());
    }
    ebpf::MapSet vmMaps(prog.maps);
    if (spec.seedMaps)
        spec.seedMaps(vmMaps);
    ebpf::Vm vm(prog, vmMaps);
    std::vector<std::vector<ctl::CtlOpResult>> vmTxnResults(
        report.txns.size());
    size_t next_txn = 0;
    uint64_t i = 0;
    double regen_sec = 0, vm_sec = 0;
    double t_mark = traced ? monoSeconds() : 0;
    spec.source.forEach(true, [&](net::Packet &&p) {
        double t_vm = 0;
        if (traced) {
            t_vm = monoSeconds();
            regen_sec += t_vm - t_mark;
        }
        // A transaction recorded with retiredBefore == i applied after
        // packet i-1 retired and before packet i entered the pipeline.
        while (next_txn < report.txns.size() &&
               report.txns[next_txn].retiredBefore.at(0) <= i) {
            ctl::applyHostTxn(vmMaps, report.txns[next_txn].txn,
                              vmTxnResults[next_txn]);
            ++next_txn;
        }
        const ebpf::ExecResult res = vm.run(p);
        if (traced) {
            t_mark = monoSeconds();
            vm_sec += t_mark - t_vm;
        }
        r.vmInsns += res.insnsExecuted;
        Digest d;
        d.id = p.id;
        d.hash = hashBytes(p.data(), p.size());
        d.redirect = res.redirectIfindex;
        d.action = static_cast<uint8_t>(res.action);
        d.trapped = res.trapped ? 1 : 0;
        if (i < simDigests.size() && !(simDigests[i] == d)) {
            if (mismatches < 3)
                std::fprintf(stderr,
                             "FAIL %s: packet %llu differs from the VM "
                             "(action %u/%u, redirect %u/%u)\n",
                             spec.label.c_str(),
                             static_cast<unsigned long long>(d.id),
                             simDigests[i].action, d.action,
                             simDigests[i].redirect, d.redirect);
            ++mismatches;
        }
        ++i;
        if (traced)
            t_mark = monoSeconds();
    });
    for (; next_txn < report.txns.size(); ++next_txn)
        ctl::applyHostTxn(vmMaps, report.txns[next_txn].txn,
                          vmTxnResults[next_txn]);
    r.packets += offered;
    r.attempted += offered;
    r.failed += mismatches;
    r.vmRunSec += vm_sec;

    // Whole-pass checks: final maps, host-op results, host conservation.
    r.attempted += 3;
    if (!ebpf::MapSet::equal(vmMaps, maps)) {
        std::fprintf(stderr, "FAIL %s: final maps differ from the VM\n",
                     spec.label.c_str());
        r.failed++;
    }
    bool ops_equal = true;
    for (size_t t = 0; t < report.txns.size(); ++t)
        ops_equal = ops_equal && report.txns[t].results.at(0) ==
                                     vmTxnResults[t];
    if (!ops_equal) {
        std::fprintf(stderr, "FAIL %s: host-op results differ from the VM\n",
                     spec.label.c_str());
        r.failed++;
    }
    if (hq.enqueued != st.passPackets ||
        hq.consumed + hq.shellDrops != hq.enqueued ||
        hq.fifoOccupancy != 0 || hq.ringOccupancy != 0) {
        std::fprintf(stderr, "FAIL %s: host descriptors not conserved\n",
                     spec.label.c_str());
        r.failed++;
    }
    if (traced) {
        const double t = tr->aggregate("traffic.regen", "traffic",
                                       ph.start(), regen_sec);
        tr->aggregate("ebpf.vm.run", "vm", t, vm_sec);
    }
}

/** Round @p k of @p w: every program once, on the next piece of input. */
RoundResult
runRound(const Workload &w, uint64_t k, Tracer *tr)
{
    RoundResult r;
    double round_sec = 0;
    Phase round(tr, "round", "bench", round_sec);
    if (w.fuzzCases == 0) {
        for (size_t i = 0; i < w.passes.size(); ++i) {
            if (tr != nullptr)
                tr->program = static_cast<int>(i);
            double pass_sec = 0;
            Phase ph(tr, "pass", "bench", pass_sec);
            PassSpec spec = w.passes[i];
            spec.ctlSeed = subSeed(w.seed, k + 1, i);
            runPass(spec, r, tr);
        }
    } else {
        for (uint64_t i = k * w.fuzzCases; i < (k + 1) * w.fuzzCases; ++i) {
            if (tr != nullptr)
                tr->program = static_cast<int>(i);
            double pass_sec = 0;
            Phase ph(tr, "pass", "bench", pass_sec);
            fuzz::FuzzCase c;
            PassSpec spec;
            {
                Phase mk(tr, "fuzz.make_case", "fuzz", r.makeCaseSec);
                c = fuzz::makeCase(w.fuzzOpts.seed, i, w.fuzzOpts);
                spec.elf = ebpf::writeElf(c.prog);
            }
            spec.label = c.name;
            spec.options = c.options;
            spec.source.fcase = &c;
            spec.mustCompile = false;
            runPass(spec, r, tr);
        }
    }
    if (tr != nullptr)
        tr->program = -1;
    return r;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double
medianOf(const std::vector<RoundResult> &rounds, F &&f)
{
    std::vector<double> v;
    v.reserve(rounds.size());
    for (const RoundResult &r : rounds)
        v.push_back(f(r));
    return median(std::move(v));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The modeled end-to-end metrics (exactly repeatable per seed). */
std::vector<Metric>
modeledMetrics(const RoundResult::Modeled &m)
{
    const double sim_sec = static_cast<double>(m.cycles) / kClockHz;
    return {
        {"modeled_mpps", ratio(static_cast<double>(m.completed), sim_sec) / 1e6,
         "Mpps"},
        {"pipe_latency_p50_ns", latencyPercentileNs(m.latencyHist, 0.50),
         "ns"},
        {"pipe_latency_p99_ns", latencyPercentileNs(m.latencyHist, 0.99),
         "ns"},
        {"flushes_per_kpkt",
         1000.0 * ratio(static_cast<double>(m.flushEvents),
                        static_cast<double>(m.completed)),
         "count"},
        {"pipeline_kluts", m.luts / 1000.0 / static_cast<double>(m.rounds),
         "kLUT"},
    };
}

std::vector<Metric>
endToEndMetrics(const std::vector<RoundResult> &rounds,
                const RoundResult::Modeled &modeled, double peak_rss_mb)
{
    // Rates come from the fastest round. Other tenants of a shared host
    // only ever slow a round down, so the fastest round is the steadiest
    // estimate of the code's own cost (README.md, "Steadiness"). Set-up
    // time is the median round's: one set-up per program of the round.
    const auto best = [&](auto f) {
        double v = 0;
        for (const RoundResult &r : rounds)
            v = std::max(v, f(r));
        return v;
    };
    std::vector<Metric> out = {
        {"setup_s", medianOf(rounds, [](const RoundResult &r) {
             return r.setupSec;
         }),
         "s"},
        {"sim_pkts_per_s", best([](const RoundResult &r) {
             return ratio(static_cast<double>(r.packets), r.simPathSec());
         }),
         "pkt/s"},
        {"verified_pkts_per_s", best([](const RoundResult &r) {
             return ratio(static_cast<double>(r.packets), r.verifiedSec());
         }),
         "pkt/s"},
        {"sim_mcyc_per_s", best([](const RoundResult &r) {
             return ratio(static_cast<double>(r.m.cycles), r.simulateSec()) /
                    1e6;
         }),
         "Mcyc/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    for (Metric &m : modeledMetrics(modeled))
        out.push_back(std::move(m));
    return out;
}

/** Self time per layer: span duration minus its children's. */
std::map<std::string, double>
layerSelfTimes(const std::vector<Span> &spans)
{
    std::vector<double> child(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i)
        self[spans[i].layer] += spans[i].end - spans[i].start - child[i];
    return self;
}

std::vector<Metric>
perLayerMetrics(const std::vector<RoundResult> &traced,
                const RoundResult::Modeled &m,
                const std::vector<RoundResult> &untraced,
                const Tracer &tracer)
{
    const auto med = [&](auto f) { return medianOf(traced, f); };
    std::vector<Metric> out = {
        {"sim.run_s", med([](const RoundResult &r) { return r.simulateSec(); }),
         "s"},
        {"sim.phase.execute_s",
         med([](const RoundResult &r) { return r.phases.executeSec; }), "s"},
        {"sim.phase.hazard_s",
         med([](const RoundResult &r) { return r.phases.hazardSec; }), "s"},
        {"sim.phase.checkpoint_s",
         med([](const RoundResult &r) { return r.phases.checkpointSec; }),
         "s"},
        {"sim.phase.commit_s",
         med([](const RoundResult &r) { return r.phases.commitSec; }), "s"},
        {"sim.phase.advance_retire_s",
         med([](const RoundResult &r) { return r.phases.advanceRetireSec; }),
         "s"},
        {"sim.phase.flush_s",
         med([](const RoundResult &r) { return r.phases.flushSec; }), "s"},
        {"sim.construct_s",
         med([](const RoundResult &r) { return r.constructSec; }), "s"},
        {"ebpf.elf.load_s",
         med([](const RoundResult &r) { return r.elfLoadSec; }), "s"},
        {"hdl.compile_s",
         med([](const RoundResult &r) { return r.compileSec; }), "s"},
        {"hdl.resources_s",
         med([](const RoundResult &r) { return r.resourcesSec; }), "s"},
    };
    for (const std::string &pass : hdl::passNames())
        out.push_back({"hdl.pass." + pass + "_s",
                       med([&](const RoundResult &r) {
                           const auto it = r.passSec.find(pass);
                           return it == r.passSec.end() ? 0.0 : it->second;
                       }),
                       "s"});
    const std::vector<Metric> rest = {
        {"fuzz.make_case_s",
         med([](const RoundResult &r) { return r.makeCaseSec; }), "s"},
        {"traffic.gen_s", med([](const RoundResult &r) { return r.genSec; }),
         "s"},
        {"ebpf.vm.run_s", med([](const RoundResult &r) { return r.vmRunSec; }),
         "s"},
        {"ebpf.vm.insns_per_s", med([](const RoundResult &r) {
             return ratio(static_cast<double>(r.vmInsns), r.vmRunSec);
         }),
         "1/s"},
        {"host.on_retire_s",
         med([](const RoundResult &r) { return r.onRetireSec; }), "s"},
        {"host.finish_s", med([](const RoundResult &r) { return r.finishSec; }),
         "s"},
        {"ctl.run_s", med([](const RoundResult &r) { return r.ctlSec; }), "s"},
    };
    out.insert(out.end(), rest.begin(), rest.end());

    // Modeled counts, per round of the modeled rounds, and ratios.
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    const double rounds = d(m.rounds);
    const auto perRound = [&](uint64_t v) { return d(v) / rounds; };
    const std::vector<Metric> counts = {
        {"hdl.rejected", perRound(m.rejected), "count"},
        {"hdl.stages", perRound(m.stages), "count"},
        {"hdl.pad_stages", perRound(m.padStages), "count"},
        {"sim.cycles_per_pkt", ratio(d(m.cycles), d(m.completed)), "cycles"},
        {"sim.event.skipped_share", ratio(d(m.eventSkipped), d(m.cycles)),
         "ratio"},
        {"sim.flush_events", perRound(m.flushEvents), "count"},
        {"sim.replayed_stages", perRound(m.replayedStages), "count"},
        {"sim.stall_cycles", perRound(m.stallCycles), "cycles"},
        {"sim.hazard.skip_ratio", ratio(d(m.hazardSkips), d(m.hazardChecks)),
         "ratio"},
        {"sim.ckpt.materialize_ratio",
         ratio(d(m.ckptMaterialized), d(m.ckptTaken)), "ratio"},
        {"host.dma_descriptors", perRound(m.dmaDescriptors), "count"},
        {"host.interrupts", perRound(m.interrupts), "count"},
        {"host.shell_drops", perRound(m.shellDrops), "count"},
        {"host.ring_occupancy_p99", d(m.ringOccupancyP99), "count"},
        {"ctl.txns", perRound(m.ctlTxns), "count"},
        {"ctl.update_latency_p50_cycles",
         d(sortedPercentile(m.ctlLatency, 0.50)), "cycles"},
        {"ctl.update_latency_p99_cycles",
         d(sortedPercentile(m.ctlLatency, 0.99)), "cycles"},
        {"ctl.quiesce_cycles", ratio(d(m.quiesceCycles), d(m.ctlTxns)),
         "cycles"},
    };
    out.insert(out.end(), counts.begin(), counts.end());

    // Self time of each layer per traced round, and the overhead of
    // tracing: traced minus untraced end-to-end time, as a share.
    const std::map<std::string, double> self = layerSelfTimes(tracer.spans());
    const double n = static_cast<double>(traced.size());
    for (const char *layer : {"frontend", "compiler", "sim", "host", "ctl",
                              "vm", "traffic", "fuzz", "bench"}) {
        const auto it = self.find(layer);
        out.push_back({std::string("layer.") + layer + ".self_s",
                       it == self.end() ? 0.0 : it->second / n, "s"});
    }
    const double t_traced = medianOf(
        traced, [](const RoundResult &x) { return x.verifiedSec(); });
    const double t_plain = medianOf(
        untraced, [](const RoundResult &x) { return x.verifiedSec(); });
    out.push_back({"trace.overhead_share", ratio(t_traced - t_plain, t_plain),
                   "ratio"});
    out.push_back({"trace.spans", static_cast<double>(tracer.spans().size()),
                   "count"});
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

/**
 * Spans as Chrome trace-event JSON (chrome://tracing, Perfetto). The file
 * holds the first two traced rounds, which keeps it to a few MB; the
 * per-layer metrics use the spans of every traced round.
 */
void
writeTrace(const std::string &path, const Tracer &tracer,
           const std::string &workload, uint64_t seed)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write trace file " + path);
    std::fprintf(f,
                 "{\"otherData\": {\"workload\": \"%s\", \"seed\": %llu, "
                 "\"engine\": \"%s\", \"sched\": \"%s\", \"clock\": "
                 "\"process CPU time\"},\n\"traceEvents\": [\n",
                 jsonEscape(workload).c_str(),
                 static_cast<unsigned long long>(seed),
                 jsonEscape(engineDesc).c_str(), schedDesc.c_str());
    const std::vector<Span> &all = tracer.spans();
    size_t n = 0;
    while (n < all.size() && all[n].round <= all.front().round + 2)
        ++n;
    const std::vector<Span> spans(all.begin(), all.begin() + n);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, \"round\": %d, "
                     "\"program\": %d, \"aggregate\": %s}}%s\n",
                     s.name, s.layer, s.start * 1e6, (s.end - s.start) * 1e6,
                     i, s.parent, s.round, s.program,
                     s.aggregate ? "true" : "false",
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write trace file " + path);
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

double
peakRssMb()
{
    // VmHWM is the peak of this program image only. getrusage's maxrss
    // would also hold the peak of whatever ran in the process before
    // execve, such as the interpreter of a launching script.
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long long kib = 0;
        while (std::fgets(line, sizeof line, f) != nullptr)
            if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1)
                break;
        std::fclose(f);
        if (kib != 0)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

struct RunResult
{
    std::vector<RoundResult> plain;
    std::vector<RoundResult> traced;
    RoundResult::Modeled modeled;  ///< summed over the modeled rounds
    Tracer tracer;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/**
 * Run rounds of @p w until @p seconds of wall time have passed and the
 * modeled rounds are done. With @p trace, odd rounds are traced, so the
 * tracing overhead is measured against interleaved untraced rounds.
 */
RunResult
runWorkload(const Workload &w, double seconds, bool trace)
{
    RunResult res;
    const double deadline = monoSeconds() + seconds;
    for (uint64_t k = 0;; ++k) {
        const bool trace_round = trace && k % 2 == 1;
        res.tracer.round = static_cast<int>(k);
        RoundResult r = runRound(w, k, trace_round ? &res.tracer : nullptr);
        res.attempted += r.attempted;
        res.failed += r.failed;
        if (k == 0)
            res.modeled = r.m;
        else if (k < w.modeledRounds)
            res.modeled += r.m;
        (trace_round ? res.traced : res.plain).push_back(std::move(r));
        const bool done = k + 1 >= w.modeledRounds &&
                          (!trace || !res.traced.empty());
        if (done && monoSeconds() >= deadline)
            break;
    }
    return res;
}

// ---------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------

/**
 * (a) The output check catches a real fault: fuzz cases compiled with the
 * flush blocks disabled must report mismatches. (b) Modeled metrics
 * repeat exactly for a seed and change with the seed, on every workload.
 */
int
selfTest(uint64_t seed)
{
    Sizes small;
    small.saturatedPackets = 2'000;
    small.caidaPackets = 1'500;
    small.fuzzCases = 100;
    small.saturatedRounds = small.caidaRounds = small.fuzzRounds = 2;
    int failures = 0;

    const RunResult bug =
        runWorkload(makeWorkload("fuzz_cases", seed, small, true), 0, false);
    const bool caught = bug.failed > 0;
    std::printf("injected flush bug: %llu of %llu checks failed -> %s\n",
                static_cast<unsigned long long>(bug.failed),
                static_cast<unsigned long long>(bug.attempted),
                caught ? "caught" : "MISSED");
    failures += caught ? 0 : 1;

    const auto values = [](const RunResult &r) {
        std::vector<double> v;
        for (const Metric &m : modeledMetrics(r.modeled))
            v.push_back(m.value);
        return v;
    };
    for (const char *name :
         {"apps_saturated", "fuzz_cases", "caida_line_rate"}) {
        const RunResult a =
            runWorkload(makeWorkload(name, seed, small, false), 0, false);
        const RunResult b =
            runWorkload(makeWorkload(name, seed, small, false), 0, false);
        const RunResult c =
            runWorkload(makeWorkload(name, seed + 1, small, false), 0, false);
        const bool clean = a.failed == 0 && b.failed == 0 && c.failed == 0;
        const bool repeat = a.modeled == b.modeled;
        const bool varies = values(a) != values(c);
        std::printf("%s: clean=%d same-seed-identical=%d "
                    "other-seed-differs=%d\n",
                    name, clean, repeat, varies);
        failures += (clean && repeat && varies) ? 0 : 1;
    }
    std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool selftest = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: ehdl_e2ebench --workload apps_saturated|fuzz_cases|"
                 "caida_line_rate --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n"
                 "       ehdl_e2ebench --selftest [--seed N]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown option " + k).c_str());
    }
    if (!a.selftest && a.workload.empty())
        usage("--workload is required");
    return a;
}

int
run(const Args &args)
{
    if (args.selftest)
        return selfTest(args.seed);

    const Workload w = makeWorkload(args.workload, args.seed, Sizes{}, false);
    const RunResult res = runWorkload(w, args.seconds, args.trace);
    std::fprintf(stderr,
                 "workload %s seed %llu: %zu untraced + %zu traced rounds "
                 "(%llu modeled), %llu packets in round 0, engine %s, "
                 "sched %s\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 res.plain.size(), res.traced.size(),
                 static_cast<unsigned long long>(w.modeledRounds),
                 static_cast<unsigned long long>(res.plain.front().packets),
                 engineDesc.c_str(), schedDesc.c_str());

    const std::vector<Metric> metrics =
        args.trace
            ? perLayerMetrics(res.traced, res.modeled, res.plain, res.tracer)
            : endToEndMetrics(res.plain, res.modeled, peakRssMb());
    if (args.trace && !args.traceOut.empty())
        writeTrace(args.traceOut, res.tracer, w.name, args.seed);
    const bool correct = res.failed == 0;
    printResult(correct, res.attempted, res.failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
#ifdef M_MMAP_THRESHOLD
    // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
    // rises the first time a large block is freed, after which large
    // blocks come from the heap, and whether fragmentation then adds a
    // few MB to the peak depends on the order of frees, not on the
    // program's live memory (README.md, "Steadiness").
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
