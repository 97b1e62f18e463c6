/**
 * @file
 * SimSystem implementation.
 */

#include "core/sim_system.hh"

#include <algorithm>

#include "util/logging.hh"
#include "workload/kernels.hh"

namespace slacksim {

SimSystem::SimSystem(const SimConfig &config)
    : config_(config)
{
    config_.validate();
    workload_ = makeWorkload(config_.workload);
    SLACKSIM_ASSERT(workload_.threads.size() == config_.target.numCores,
                    "workload/core count mismatch");

    UncoreParams up;
    up.numCores = config_.target.numCores;
    up.protocol = config_.target.protocol;
    up.l2 = config_.target.l2;
    up.c2cLatency = config_.target.c2cLatency;
    up.syncLatency = config_.target.syncLatency;
    up.busRequestCycles = config_.target.busRequestCycles;
    up.busResponseCycles = config_.target.busResponseCycles;
    up.numLocks = workload_.numLocks;
    up.numBarriers = workload_.numBarriers;
    uncore_ = std::make_unique<Uncore>(up, &uncoreStats_, &violations_);

    AddressSpace space(config_.target.numCores);
    cores_.reserve(config_.target.numCores);
    for (CoreId c = 0; c < config_.target.numCores; ++c) {
        cores_.push_back(std::make_unique<CoreComplex>(
            config_, c, &workload_.threads[c], space.codeBase(c)));
    }
}

std::uint64_t
SimSystem::totalCommittedUops() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->committedUops();
    return total;
}

void
SimSystem::resetSimStats()
{
    for (auto &core : cores_)
        core->resetStats();
    uncoreStats_ = UncoreStats{};
    violations_ = ViolationStats{};
    uncore_->resetStats();
}

bool
SimSystem::allFinished() const
{
    for (const auto &core : cores_)
        if (!core->finished())
            return false;
    return true;
}

Tick
SimSystem::globalTime() const
{
    Tick min_unfinished = maxTick;
    Tick max_any = 0;
    for (const auto &core : cores_) {
        const Tick t = core->localTime();
        max_any = std::max(max_any, t);
        if (!core->finished())
            min_unfinished = std::min(min_unfinished, t);
    }
    return min_unfinished == maxTick ? max_any : min_unfinished;
}

Tick
SimSystem::maxLocalTime() const
{
    Tick max_any = 0;
    for (const auto &core : cores_)
        max_any = std::max(max_any, core->localTime());
    return max_any;
}

void
SimSystem::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x5757);
    for (const auto &core : cores_)
        core->save(writer);
    uncore_->save(writer);
}

void
SimSystem::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x5757);
    for (auto &core : cores_)
        core->restore(reader);
    uncore_->restore(reader);
}

} // namespace slacksim
