/**
 * @file
 * JobQueue implementation.
 */

#include "serve/job_queue.hh"

#include "obs/span.hh"
#include "util/logging.hh"

namespace slacksim {
namespace serve {

namespace {

double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Lifecycle event name for a terminal state. */
const char *
terminalEventName(JobState state)
{
    switch (state) {
      case JobState::Done: return "completed";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
      case JobState::TimedOut: return "timed_out";
      case JobState::Crashed: return "crashed";
      default: return "?";
    }
}

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
      case JobState::TimedOut: return "timeout";
      case JobState::Crashed: return "crashed";
    }
    return "?";
}

bool
isTerminal(JobState state)
{
    return state != JobState::Queued && state != JobState::Running;
}

void
JobQueue::setTelemetry(ServerTelemetry *telemetry, EventLog *events)
{
    std::lock_guard<std::mutex> lock(mu_);
    telemetry_ = telemetry;
    events_ = events;
}

std::uint64_t
JobQueue::submit(JobSpec spec, const std::string &idempotencyKey,
                 std::uint32_t attempt, bool *duplicate)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (duplicate)
        *duplicate = false;
    if (!idempotencyKey.empty()) {
        auto hit = keyToId_.find(idempotencyKey);
        if (hit != keyToId_.end()) {
            // Resubmission after an ambiguous failure: same key means
            // same intent, so hand back the existing job instead of
            // double-running it. Terminal jobs count too — the client
            // can fetch the result it never saw.
            if (duplicate)
                *duplicate = true;
            return hit->second;
        }
    }
    const std::uint64_t id = nextId_++;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = std::move(spec);
    job->hostThreads = job->spec.hostThreads();
    if (job->spec.name.empty())
        job->spec.name = "job-" + std::to_string(id);
    job->idempotencyKey = idempotencyKey;
    job->attempt = attempt == 0 ? 1 : attempt;
    job->submittedAt = std::chrono::steady_clock::now();
    // Distributed-trace identity: honor a client-minted id, mint one
    // otherwise, and open the server-side root span. The id is
    // written back into the spec BEFORE the journal record below so
    // crash recovery replays the same identity.
    job->traceId = job->spec.traceId.empty() ? obs::mintTraceId()
                                             : job->spec.traceId;
    job->spec.traceId = job->traceId;
    job->rootSpanId = obs::mintSpanId();
    if (!idempotencyKey.empty())
        keyToId_.emplace(idempotencyKey, id);
    if (telemetry_)
        telemetry_->jobsSubmitted.add();
    if (events_) {
        // The submitted event doubles as the write-ahead journal
        // record: the full spec rides along so --recover can rebuild
        // the job from the log alone.
        std::string fields =
            eventField("name", job->spec.name) +
            eventField("kernel", job->spec.kernel) +
            eventField("priority",
                       std::uint64_t{job->spec.priority}) +
            eventField("attempt", std::uint64_t{job->attempt}) +
            eventField("max_attempts",
                       std::uint64_t{job->spec.maxAttempts});
        if (!job->idempotencyKey.empty())
            fields += eventField("idempotency_key",
                                 job->idempotencyKey);
        fields += eventField("trace_id", job->traceId);
        fields += eventField("span_id",
                             obs::spanIdHex(job->rootSpanId));
        fields += eventFieldRaw("spec", job->spec.toJson());
        events_->record(id, "submitted", fields);
        // The queue only accepts pre-validated specs (JobSpec::parse
        // gates the submit op), so the validation event is recorded
        // here, under the same lock, keeping the lifecycle strictly
        // ordered even when the scheduler admits instantly.
        events_->record(id, "validated");
    }
    jobs_.emplace(id, std::move(job));
    cv_.notify_all();
    return id;
}

Job *
JobQueue::admitNext(std::uint32_t freeThreads,
                    std::uint64_t freeMemMb)
{
    std::lock_guard<std::mutex> lock(mu_);
    Job *best = nullptr;
    // Highest-ranked queued job that did NOT fit the budget; used to
    // classify the admission as a backfill (telemetry only).
    const Job *skipped = nullptr;
    // jobs_ iterates in id (submission) order, so within a priority
    // the first fitting candidate seen is the FIFO head; across
    // priorities a higher level always wins. Non-fitting jobs are
    // skipped — the backfill policy in the header comment.
    for (auto &[id, job] : jobs_) {
        (void)id;
        if (job->state != JobState::Queued)
            continue;
        if (job->hostThreads > freeThreads ||
            job->spec.memEstimateMb() > freeMemMb) {
            if (!skipped || job->spec.priority > skipped->spec.priority)
                skipped = job.get();
            continue;
        }
        if (!best || job->spec.priority > best->spec.priority)
            best = job.get();
    }
    if (best) {
        best->state = JobState::Running;
        ++best->stateSeq;
        best->startedAt = std::chrono::steady_clock::now();
        const double wait_ms =
            msBetween(best->submittedAt, best->startedAt);
        // A skipped job outranks the admitted one when it has higher
        // priority or the same priority and an earlier id — admitting
        // past it is a backfill.
        const bool backfill =
            skipped && (skipped->spec.priority > best->spec.priority ||
                        (skipped->spec.priority ==
                             best->spec.priority &&
                         skipped->id < best->id));
        if (telemetry_) {
            telemetry_->queueWaitMs.observe(wait_ms);
            if (backfill)
                telemetry_->admissionBackfills.add();
        }
        if (events_) {
            events_->record(best->id, "admitted",
                            eventFieldDouble("queue_ms", wait_ms) +
                                eventField("backfill",
                                           std::uint64_t{backfill}) +
                                eventField("trace_id", best->traceId));
        }
        cv_.notify_all();
    } else if (skipped && telemetry_) {
        // Nothing fit but work was waiting: admission pressure.
        telemetry_->admissionDenials.add();
    }
    return best;
}

void
JobQueue::retireLocked(Job &job, JobState state,
                       const std::string &error)
{
    if (state == JobState::Cancelled && job.timedOut)
        job.state = JobState::TimedOut;
    else
        job.state = state;
    ++job.stateSeq;
    job.error = error;
    job.endedAt = std::chrono::steady_clock::now();
    const bool ran = job.startedAt.time_since_epoch().count() != 0;
    const double run_ms =
        ran ? msBetween(job.startedAt, job.endedAt) : 0.0;
    if (telemetry_) {
        if (ran)
            telemetry_->runDurationMs.observe(run_ms);
        switch (job.state) {
          case JobState::Done: telemetry_->jobsDone.add(); break;
          case JobState::Failed: telemetry_->jobsFailed.add(); break;
          case JobState::Cancelled:
            telemetry_->jobsCancelled.add();
            break;
          case JobState::TimedOut:
            telemetry_->jobsTimedOut.add();
            break;
          case JobState::Crashed:
            telemetry_->recordCrash(job.crashSignal);
            break;
          default: break;
        }
    }
    if (events_) {
        std::string fields = eventFieldDouble("run_ms", run_ms);
        if (job.state == JobState::Crashed) {
            fields += eventField("signal",
                                 std::uint64_t{static_cast<unsigned>(
                                     job.crashSignal)});
            fields += eventField("signal_name",
                                 signalName(job.crashSignal));
        }
        if (job.attempt > 1)
            fields += eventField("attempt",
                                 std::uint64_t{job.attempt});
        if (!job.error.empty())
            fields += eventField("error", job.error);
        fields += eventField("trace_id", job.traceId);
        events_->record(job.id, terminalEventName(job.state), fields);
    }
}

void
JobQueue::markFinished(std::uint64_t id, JobState state,
                       const std::string &error)
{
    SLACKSIM_ASSERT(isTerminal(state),
                    "markFinished with live state");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    SLACKSIM_ASSERT(it != jobs_.end(), "markFinished: unknown job");
    Job &job = *it->second;
    if (isTerminal(job.state))
        return; // queued-cancel raced with the scheduler; keep first
    retireLocked(job, state, error);
    cv_.notify_all();
}

void
JobQueue::markCrashed(std::uint64_t id, int signal,
                      const std::string &error)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    SLACKSIM_ASSERT(it != jobs_.end(), "markCrashed: unknown job");
    Job &job = *it->second;
    if (isTerminal(job.state))
        return;
    job.crashSignal = signal;
    retireLocked(job, JobState::Crashed, error);
    cv_.notify_all();
}

void
JobQueue::recordResult(std::uint64_t id, std::uint64_t committedUops,
                       std::uint64_t simulatedCycles)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return;
    it->second->committedUops = committedUops;
    it->second->simulatedCycles = simulatedCycles;
}

void
JobQueue::setOutDir(std::uint64_t id, const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end())
        it->second->outDir = dir;
}

bool
JobQueue::requestCancel(std::uint64_t id, std::string *error)
{
    Job *running = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            *error = "no such job: " + std::to_string(id);
            return false;
        }
        Job &job = *it->second;
        if (isTerminal(job.state)) {
            *error = "job " + std::to_string(id) + " already " +
                     jobStateName(job.state);
            return false;
        }
        if (job.state == JobState::Queued) {
            retireLocked(job, JobState::Cancelled, "");
            cv_.notify_all();
            return true;
        }
        running = &job;
    }
    // Fire outside the queue lock: the token runs its wakers inline
    // and those touch engine-side synchronization.
    running->cancel->requestCancel();
    return true;
}

std::uint32_t
JobQueue::checkDeadlines()
{
    std::vector<CancelToken *> fire;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = std::chrono::steady_clock::now();
        for (auto &[id, job] : jobs_) {
            (void)id;
            if (job->state != JobState::Running ||
                job->spec.timeoutMs == 0 || job->timedOut) {
                continue;
            }
            if (msBetween(job->startedAt, now) >=
                static_cast<double>(job->spec.timeoutMs)) {
                job->timedOut = true;
                fire.push_back(job->cancel.get());
            }
        }
    }
    for (CancelToken *token : fire)
        token->requestCancel();
    return static_cast<std::uint32_t>(fire.size());
}

void
JobQueue::cancelQueued()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[id, job] : jobs_) {
        (void)id;
        if (job->state == JobState::Queued)
            retireLocked(*job, JobState::Cancelled, "");
    }
    cv_.notify_all();
}

void
JobQueue::cancelRunning()
{
    std::vector<CancelToken *> fire;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, job] : jobs_) {
            (void)id;
            if (job->state == JobState::Running)
                fire.push_back(job->cancel.get());
        }
    }
    for (CancelToken *token : fire)
        token->requestCancel();
}

Job *
JobQueue::get(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
}

JobView
JobQueue::viewLocked(const Job &job) const
{
    const auto now = std::chrono::steady_clock::now();
    JobView v;
    v.id = job.id;
    v.name = job.spec.name;
    v.kernel = job.spec.kernel;
    v.state = job.state;
    v.priority = job.spec.priority;
    v.hostThreads = job.hostThreads;
    v.error = job.error;
    v.outDir = job.outDir;
    v.timedOut = job.timedOut;
    v.committedUops = job.committedUops;
    v.simulatedCycles = job.simulatedCycles;
    v.attempt = job.attempt;
    v.crashSignal = job.crashSignal;
    v.stateSeq = job.stateSeq;
    v.scheme = job.spec.scheme;
    v.progress = job.progress->read();
    switch (job.state) {
      case JobState::Queued:
        v.queueMs = msBetween(job.submittedAt, now);
        break;
      case JobState::Running:
        v.queueMs = msBetween(job.submittedAt, job.startedAt);
        v.runMs = msBetween(job.startedAt, now);
        break;
      default:
        // Queued-cancelled jobs never started; report zero run time.
        if (job.startedAt.time_since_epoch().count() != 0) {
            v.queueMs = msBetween(job.submittedAt, job.startedAt);
            v.runMs = msBetween(job.startedAt, job.endedAt);
        } else {
            v.queueMs = msBetween(job.submittedAt, job.endedAt);
        }
        break;
    }
    return v;
}

std::vector<JobView>
JobQueue::snapshot(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<JobView> out;
    if (id != 0) {
        auto it = jobs_.find(id);
        if (it != jobs_.end())
            out.push_back(viewLocked(*it->second));
        return out;
    }
    out.reserve(jobs_.size());
    for (const auto &[jid, job] : jobs_) {
        (void)jid;
        out.push_back(viewLocked(*job));
    }
    return out;
}

QueueStats
JobQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    QueueStats s;
    s.submitted = jobs_.size();
    for (const auto &[id, job] : jobs_) {
        (void)id;
        switch (job->state) {
          case JobState::Queued: ++s.queued; break;
          case JobState::Running: ++s.running; break;
          case JobState::Done: ++s.done; break;
          case JobState::Failed: ++s.failed; break;
          case JobState::Cancelled: ++s.cancelled; break;
          case JobState::TimedOut: ++s.timedOut; break;
          case JobState::Crashed: ++s.crashed; break;
        }
    }
    return s;
}

bool
JobQueue::idle() const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[id, job] : jobs_) {
        (void)id;
        if (!isTerminal(job->state))
            return false;
    }
    return true;
}

void
JobQueue::waitChanged(int timeoutMs)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs));
}

} // namespace serve
} // namespace slacksim
