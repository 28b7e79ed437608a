#include "dataflow/engine.hh"

#include <sstream>
#include <stdexcept>

namespace revet
{
namespace dataflow
{

bool
Process::idle() const
{
    for (const Channel *ch : inputs()) {
        if (!ch->empty())
            return false;
    }
    return true;
}

std::string
Process::ioStallDetail() const
{
    std::ostringstream oss;
    bool starved = false;
    for (const Channel *ch : inputs()) {
        if (ch->empty()) {
            oss << (starved ? " " : "starved inputs:[");
            oss << (ch->name().empty() ? "?" : ch->name());
            starved = true;
        }
    }
    if (starved)
        oss << "]";
    bool full = false;
    for (const Channel *ch : outputs()) {
        if (!ch->canPush()) {
            oss << (full ? " " : (starved ? "; full outputs:[" :
                                            "full outputs:["));
            oss << (ch->name().empty() ? "?" : ch->name());
            full = true;
        }
    }
    if (full)
        oss << "]";
    if (!starved && !full)
        oss << "internally blocked";
    return oss.str();
}

std::string
Process::stallReason() const
{
    return name_ + ": " + ioStallDetail();
}

void
Engine::registerProcess(Process *proc)
{
    proc->sched_id_ = procs_.size() - 1;
    for (Channel *ch : proc->inputs())
        ch->setConsumer(proc);
    for (Channel *ch : proc->outputs())
        ch->setProducer(proc);
}

bool
Engine::enqueue(Process *proc)
{
    if (!scheduling_ || proc == nullptr)
        return false;
    const size_t id = proc->sched_id_;
    if (id >= in_queue_.size() || in_queue_[id])
        return false;
    in_queue_[id] = true;
    ready_.push_back(proc);
    return true;
}

void
Engine::throwLivelock(uint64_t max_rounds) const
{
    throw std::runtime_error(
        "dataflow engine exceeded " + std::to_string(max_rounds) +
        " working rounds with tokens still moving — either a genuine "
        "livelock (see the stall reasons below) or an undersized "
        "max_rounds for this workload. " + stallReport());
}

void
Engine::reset()
{
    for (auto &ch : channels_)
        ch->resetForReuse();
    for (auto &proc : procs_)
        proc->reset();
}

uint64_t
Engine::run(uint64_t max_rounds)
{
    sched_ = SchedStats{};
    scheduling_ = true;
    ready_.clear();
    in_queue_.assign(procs_.size(), false);
    // Everything starts ready: callers may have pushed tokens between
    // runs, and self-driving primitives (sources, counters) have no
    // input edge to wake them.
    for (auto &proc : procs_) {
        in_queue_[proc->sched_id_] = true;
        ready_.push_back(proc.get());
    }

    try {
        while (true) {
            if (ready_.empty()) {
                // Certify quiescence with one full rescan. With correct
                // notification wiring this never finds progress; when a
                // channel bypasses the engine (constructed outside
                // Engine::channel) it degrades to a full scan per round
                // instead of silently dropping work.
                ++sched_.verifyPasses;
                bool progress = false;
                for (auto &proc : procs_) {
                    int quanta = proc->runQuanta(kBurst);
                    ++sched_.steps;
                    if (quanta == 0)
                        ++sched_.idleSteps;
                    sched_.quanta += quanta;
                    if (quanta > 0) {
                        progress = true;
                        enqueue(proc.get());
                    }
                }
                if (!progress)
                    break;
                ++sched_.missedWakeups;
                if (++sched_.rounds > max_rounds)
                    throwLivelock(max_rounds);
                continue;
            }

            // One round: the current generation of the ready deque.
            // Processes woken while it drains run in the next round.
            bool progress = false;
            for (size_t n = ready_.size(); n > 0 && !ready_.empty();
                 --n) {
                Process *proc = ready_.front();
                ready_.pop_front();
                in_queue_[proc->sched_id_] = false;
                int quanta = proc->runQuanta(kBurst);
                ++sched_.steps;
                if (quanta == 0)
                    ++sched_.idleSteps;
                sched_.quanta += quanta;
                progress |= quanta > 0;
                // A full burst means the primitive is still runnable on
                // its own (no channel event will requeue it); anything
                // less means it blocked and channel transitions own its
                // next wakeup.
                if (quanta == kBurst)
                    enqueue(proc);
            }
            if (progress && ++sched_.rounds > max_rounds)
                throwLivelock(max_rounds);
        }
    } catch (...) {
        scheduling_ = false;
        throw;
    }
    scheduling_ = false;
    if (sched_.rounds * procs_.size() > sched_.steps)
        sched_.stepsSkipped =
            sched_.rounds * procs_.size() - sched_.steps;
    return sched_.rounds;
}

bool
Engine::drained() const
{
    for (const auto &ch : channels_) {
        if (!ch->empty())
            return false;
    }
    return true;
}

std::string
Engine::stallReport() const
{
    std::ostringstream oss;
    oss << "stalled channels:";
    bool any = false;
    for (const auto &ch : channels_) {
        if (!ch->empty()) {
            any = true;
            oss << " " << (ch->name().empty() ? "?" : ch->name()) << "("
                << ch->size() << " head=" << ch->front().str() << ")";
        }
    }
    if (!any)
        oss << " none";
    oss << "; blocked processes:";
    any = false;
    for (const auto &proc : procs_) {
        if (proc->idle())
            continue;
        any = true;
        oss << "\n  " << proc->stallReason();
    }
    if (!any)
        oss << " none";
    return oss.str();
}

} // namespace dataflow
} // namespace revet
