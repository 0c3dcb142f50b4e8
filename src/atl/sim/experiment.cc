#include "atl/sim/experiment.hh"

#include <chrono>
#include <cmath>

#include "atl/fault/fault.hh"
#include "atl/obs/event_log.hh"
#include "atl/obs/metrics.hh"
#include "atl/util/logging.hh"

namespace atl
{

double
RunMetrics::mpki() const
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(eMisses) /
           static_cast<double>(instructions);
}

bool
RunMetrics::operator==(const RunMetrics &other) const
{
    return workload == other.workload && policy == other.policy &&
           numCpus == other.numCpus && makespan == other.makespan &&
           eMisses == other.eMisses && eRefs == other.eRefs &&
           instructions == other.instructions &&
           contextSwitches == other.contextSwitches &&
           schedOverheadCycles == other.schedOverheadCycles &&
           verified == other.verified && degradation == other.degradation;
}

double
RunMetrics::refsPerSec() const
{
    if (hostSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(refsIssued) / hostSeconds;
}

double
RunMetrics::batchOccupancy() const
{
    if (refBlocks == 0)
        return 0.0;
    return static_cast<double>(refsIssued) /
           static_cast<double>(refBlocks);
}

double
RunMetrics::missesEliminated(const RunMetrics &base, const RunMetrics &opt)
{
    if (base.eMisses == 0)
        return 0.0;
    return 1.0 - static_cast<double>(opt.eMisses) /
                     static_cast<double>(base.eMisses);
}

double
RunMetrics::speedup(const RunMetrics &base, const RunMetrics &opt)
{
    if (opt.makespan == 0)
        return 0.0;
    return static_cast<double>(base.makespan) /
           static_cast<double>(opt.makespan);
}

RunMetrics
runWorkload(Workload &workload, const MachineConfig &config, bool trace,
            bool batch_refs)
{
    // Fault events already on the injector belong to earlier runs (one
    // injector may serve a whole sweep); report only this run's delta.
    uint64_t faults_before =
        config.faults ? config.faults->stats().total() : 0;

    Machine machine(config);
    std::unique_ptr<Tracer> tracer;
    if (trace)
        tracer = std::make_unique<Tracer>(machine);

    WorkloadEnv env{machine, tracer.get(), batch_refs};
    workload.setup(env);
    auto t0 = std::chrono::steady_clock::now();
    machine.run();
    auto t1 = std::chrono::steady_clock::now();

    RunMetrics metrics;
    metrics.refsIssued = machine.refsIssued();
    metrics.refBlocks = machine.refBlocks();
    metrics.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    metrics.workload = workload.name();
    metrics.policy = config.policy;
    metrics.numCpus = config.numCpus;
    metrics.makespan = machine.makespan();
    metrics.eMisses = machine.totalEMisses();
    metrics.eRefs = machine.totalERefs();
    metrics.instructions = machine.totalInstructions();
    metrics.contextSwitches = machine.totalSwitches();
    for (CpuId c = 0; c < machine.numCpus(); ++c)
        metrics.schedOverheadCycles += machine.cpuStats(c).schedOverheadCycles;
    metrics.degradation = machine.scheduler().degradation();
    metrics.degradation.droppedHints = machine.graph().nonFiniteCount();
    if (config.faults) {
        metrics.degradation.faultEvents =
            config.faults->stats().total() - faults_before;
    }
    metrics.verified = workload.verify();
    if (!metrics.verified) {
        atl_warn("workload '", workload.name(), "' failed verification ",
                 "under policy ", policyName(config.policy));
    }
    return metrics;
}

FootprintMonitor::FootprintMonitor(Machine &machine, Tracer &tracer,
                                   CpuId cpu, uint64_t sample_every)
    : _machine(machine), _tracer(tracer),
      _telemetry(machine.config().telemetry),
      _metrics(machine.config().metrics), _cpu(cpu),
      _sampleEvery(sample_every)
{
    atl_assert(sample_every > 0, "sample interval must be positive");
    if (_metrics)
        _mareGauge = _metrics->gauge("model.residual_mare");
    _tracer.setMissCallback([this](CpuId c, ThreadId t) { onMiss(c, t); });
}

FootprintMonitor::~FootprintMonitor()
{
    _tracer.setMissCallback({});
}

void
FootprintMonitor::setDriver(ThreadId tid)
{
    _driver.store(tid, std::memory_order_relaxed);
    _driverMisses = 0;
    _instrBaseline = _machine.thread(tid).stats.instructions;
    auto it = _targets.find(tid);
    _driverTarget = it != _targets.end() ? &it->second : nullptr;
}

void
FootprintMonitor::track(ThreadId tid, Kind kind, double q)
{
    Target target;
    target.kind = kind;
    target.q = q;
    target.s0 = static_cast<double>(_tracer.footprint(tid, _cpu));
    Target &slot = _targets[tid];
    slot = std::move(target);
    if (tid == _driver.load(std::memory_order_relaxed))
        _driverTarget = &slot;
}

void
FootprintMonitor::onMiss(CpuId cpu, ThreadId tid)
{
    if (cpu != _cpu || tid != _driver.load(std::memory_order_relaxed))
        return;
    ++_driverMisses;
    if (_driverMisses % _sampleEvery == 0)
        sampleAll();
}

void
FootprintMonitor::sampleAll()
{
    ThreadId driver = _driver.load(std::memory_order_relaxed);
    uint64_t instr =
        _machine.thread(driver).stats.instructions - _instrBaseline;

    // The driver's own entry goes through the cached pointer, so the
    // common "monitor the executing thread alone" setup never touches
    // the hash table between setDriver() and the end of the run.
    if (_driverTarget)
        sample(driver, *_driverTarget, instr);
    if (_targets.size() <= (_driverTarget ? 1u : 0u))
        return;
    for (auto &[tid, target] : _targets) {
        if (&target != _driverTarget)
            sample(tid, target, instr);
    }
}

void
FootprintMonitor::sample(ThreadId tid, Target &target, uint64_t instr)
{
    const FootprintModel &model = _machine.model();
    FootprintSample sample;
    sample.misses = _driverMisses;
    sample.instructions = instr;
    sample.observed = static_cast<double>(_tracer.footprint(tid, _cpu));
    switch (target.kind) {
      case Kind::Executing:
        sample.predicted = model.blocking(target.s0, _driverMisses);
        break;
      case Kind::Independent:
        sample.predicted = model.independent(target.s0, _driverMisses);
        break;
      case Kind::Dependent:
        sample.predicted =
            model.dependent(target.q, target.s0, _driverMisses);
        break;
    }
    target.samples.push_back(sample);

    if (_telemetry && _telemetry->config().residuals) {
        Event event;
        event.kind = EventKind::Residual;
        event.cpu = static_cast<uint16_t>(_cpu);
        event.tid = tid;
        event.time = _machine.now();
        event.n = sample.misses;
        event.m = sample.instructions;
        event.value = sample.observed;
        event.aux = sample.predicted;
        _telemetry->record(event);
    }

    // Live residual MARE: the same floor-filtered running mean a
    // meanAbsRelError(tid) call would compute at its default floor,
    // published after every accepted sample. Only the host worker
    // driving _cpu reaches here (onMiss filters), so shard _cpu keeps
    // its single writer.
    if (_metrics && sample.observed >= 32.0) {
        _residualSum +=
            std::fabs(sample.predicted - sample.observed) /
            sample.observed;
        ++_residualUsed;
        _metrics->set(_mareGauge,
                      _residualSum /
                          static_cast<double>(_residualUsed),
                      _cpu);
    }
}

const std::vector<FootprintSample> &
FootprintMonitor::samples(ThreadId tid) const
{
    auto it = _targets.find(tid);
    atl_assert(it != _targets.end(), "thread ", tid, " is not tracked");
    return it->second.samples;
}

double
FootprintMonitor::meanAbsRelError(ThreadId tid, double floor,
                                  size_t *excluded) const
{
    const auto &all = samples(tid);
    double total = 0.0;
    size_t used = 0;
    for (const FootprintSample &s : all) {
        if (s.observed < floor)
            continue;
        total += std::fabs(s.predicted - s.observed) / s.observed;
        ++used;
    }
    if (excluded)
        *excluded = all.size() - used;
    return used ? total / static_cast<double>(used) : 0.0;
}

} // namespace atl
