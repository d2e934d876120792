package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"localbp"
	"localbp/internal/harness"
	"localbp/internal/obs"
	"localbp/internal/schemes"
)

// Daemon defaults; DaemonConfig zero values resolve to these.
const (
	defaultQueueDepth       = 64
	defaultDrainGrace       = 30 * time.Second
	defaultRetryAfter       = 1 * time.Second
	defaultMemCheckInterval = 500 * time.Millisecond
	defaultProgressInsts    = 50_000
	defaultProgressInterval = 200 * time.Millisecond
	defaultHeartbeat        = 15 * time.Second
	defaultListLimit        = 100
)

// Daemon errors surfaced by Submit. The first four map to backpressure
// status codes over HTTP (429/503 with Retry-After); ErrJournal means the
// daemon could not make the submission durable and refused it (500).
var (
	// ErrDraining rejects submissions once shutdown has begun.
	ErrDraining = errors.New("service: daemon is draining")
	// ErrQueueFull rejects submissions when the bounded queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClientSaturated rejects submissions from a client already at its
	// in-flight cap.
	ErrClientSaturated = errors.New("service: client in-flight cap reached")
	// ErrOverloaded rejects fresh submissions while the heap is above the
	// memory high-watermark (cache hits and coalesces are still served —
	// they admit no new work).
	ErrOverloaded = errors.New("service: memory high-watermark exceeded, shedding load")
	// ErrJournal rejects a submission the journal could not record: a job
	// the daemon accepted must survive a crash, so an append failure refuses
	// the work rather than holding it in memory only.
	ErrJournal = errors.New("service: journal append failed")
)

// JobState is the lifecycle of one submitted job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobShed marks a queued job dropped by the memory load-shedder before
	// it ran; clients may resubmit once /readyz reports ready again.
	JobShed JobState = "shed"
)

// Terminal reports whether the state ends a job's lifecycle.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCanceled, JobShed:
		return true
	}
	return false
}

// validState reports whether s names a known job state (for ?state= filters).
func validState(s string) bool {
	switch JobState(s) {
	case JobQueued, JobRunning, JobDone, JobFailed, JobCanceled, JobShed:
		return true
	}
	return false
}

// JobRequest describes one simulation to run.
type JobRequest struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Insts    int    `json:"insts"`
	// Seed overrides the workload's trace-generation seed; 0 keeps the
	// workload default.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutSec caps this job's wall clock; 0 uses the daemon default, and
	// the daemon default is always an upper bound.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// jobKey canonicalizes a request into its result-cache key: a hash over the
// workload name, the canonical scheme name (aliases collapse), the
// instruction count, the effective seed, and the fully resolved scheme
// parameters. Requests that would produce bit-identical results share a key;
// TimeoutSec is an execution budget, not an identity, and is excluded.
func jobKey(req JobRequest) (string, error) {
	w, ok := localbp.Workload(req.Workload)
	if !ok {
		return "", fmt.Errorf("service: unknown workload %q", req.Workload)
	}
	def, params, err := schemes.Resolve(req.Scheme)
	if err != nil {
		return "", fmt.Errorf("service: unknown scheme %q", req.Scheme)
	}
	seed := req.Seed
	if seed == 0 {
		seed = w.Seed
	}
	material, err := json.Marshal(struct {
		Workload string         `json:"workload"`
		Scheme   string         `json:"scheme"`
		Insts    int            `json:"insts"`
		Seed     int64          `json:"seed"`
		Params   schemes.Params `json:"params"`
	}{w.Name, def.Name, req.Insts, seed, params})
	if err != nil {
		return "", fmt.Errorf("service: canonicalizing request: %w", err)
	}
	sum := sha256.Sum256(material)
	return hex.EncodeToString(sum[:16]), nil
}

// SubmitResult is the outcome of a submission: the job id plus whether the
// request was served from the result cache (a finished identical job) or
// coalesced onto an identical job already queued or running.
type SubmitResult struct {
	ID        string `json:"id"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
}

// JobView is the externally visible state of a job.
type JobView struct {
	ID       string          `json:"id"`
	State    JobState        `json:"state"`
	Request  JobRequest      `json:"request"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	Class    string          `json:"class,omitempty"` // retry classification of Error
	Result   *localbp.Result `json:"result,omitempty"`
	// Progress is the retired-instruction count of the current attempt,
	// updated in batches while the job runs.
	Progress uint64    `json:"progress,omitempty"`
	Queued   time.Time `json:"queued"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

type job struct {
	id       string
	req      JobRequest
	key      string // result-cache key
	client   string // submitter identity, for the in-flight cap
	state    JobState
	attempts int
	err      error
	class    string
	result   *localbp.Result
	queued   time.Time
	started  time.Time
	finished time.Time

	// progress is written by the simulation goroutine (batched) and read by
	// SSE subscribers and views without taking d.mu on the hot path.
	progress atomic.Uint64
	// subs are this job's SSE subscribers; guarded by d.mu.
	subs []*subscriber
}

// DaemonConfig parameterizes NewDaemon. Zero values mean: one worker, a
// 64-deep queue, no per-job timeout cap, a 30 s drain grace, no retries, no
// journal, no memory watermark and no per-client cap.
type DaemonConfig struct {
	// Workers is the number of concurrent job executors (min 1).
	Workers int
	// QueueDepth bounds the pending-job queue; Submit fails fast with
	// ErrQueueFull beyond it.
	QueueDepth int
	// JobTimeout caps each job's wall clock, including retries. Per-request
	// timeouts are clamped to it.
	JobTimeout time.Duration
	// DrainGrace bounds how long Run waits for in-flight and queued jobs
	// after shutdown begins; past it, remaining jobs are canceled.
	DrainGrace time.Duration
	// Retry is the per-job retry policy; the zero value runs each job once.
	Retry RetryPolicy

	// Journal is the durable job-journal path; "" runs without durability.
	// With a journal, a restarted daemon re-enqueues unfinished jobs and
	// serves finished results from the replay.
	Journal string
	// MemHighWater is the heap-bytes watermark; above it fresh submissions
	// are refused (ErrOverloaded) and the shedder drops the largest queued
	// jobs first. 0 disables memory-based admission and shedding.
	MemHighWater uint64
	// MemCheckInterval is the shedder's polling period (default 500 ms).
	MemCheckInterval time.Duration
	// ClientInflight caps one client's queued+running jobs; 0 is unlimited.
	ClientInflight int
	// RetryAfter is the backoff hint sent with 429/503 responses
	// (default 1 s).
	RetryAfter time.Duration

	// ProgressInsts batches progress updates: subscriber-visible commits
	// happen every ProgressInsts retired instructions (default 50 000)...
	ProgressInsts uint64
	// ProgressInterval ...or when this much time has passed since the last
	// commit (default 200 ms), whichever comes first.
	ProgressInterval time.Duration
	// Heartbeat is the SSE keep-alive comment period (default 15 s).
	Heartbeat time.Duration
}

// Daemon is a production-shaped simulation service: jobs are submitted over
// HTTP (or Submit), deduplicated through a single-flight result cache,
// journaled for crash durability, executed by a bounded worker pool under
// per-job timeouts and classified retry, shed under memory pressure, and
// drained gracefully on shutdown. Progress streams to SSE subscribers.
type Daemon struct {
	cfg DaemonConfig

	mu       sync.Mutex
	cond     *sync.Cond // signaled when pending grows or draining flips
	jobs     map[string]*job
	order    []string        // submission order, for GET /jobs
	pending  []*job          // FIFO queue; a slice so the shedder can remove
	byKey    map[string]*job // single-flight index: cache key → live/done job
	inflight map[string]int  // client → queued+running count
	draining bool
	nextID   int
	journal  *journal
	// journalErr is the first terminal-append failure: the daemon keeps
	// running (in-memory state is authoritative for this process) but
	// reports degraded durability through /healthz.
	journalErr error
	replay     replayNote

	// reg holds the service counters. obs.Counter increments are not
	// atomic, so every Inc happens under d.mu and every Snapshot goes
	// through Metrics, which also holds d.mu.
	reg *obs.Registry
	ctr struct {
		submitted, done, failed, canceled, shed *obs.Counter
		cacheHit, cacheMiss, coalesced          *obs.Counter
		rejQueue, rejClient, rejMemory          *obs.Counter
		journalErrs                             *obs.Counter
	}
	// retired is the daemon-lifetime retired-instruction total across all
	// jobs and attempts; atomic because the simulation goroutines add to it
	// outside d.mu.
	retired atomic.Uint64

	// readHeap probes live heap bytes; tests replace it to force shedding.
	readHeap func() uint64

	// execCtx governs job execution; execCancel fires when the drain grace
	// expires, aborting whatever is still running.
	execCtx    context.Context
	execCancel context.CancelFunc
}

// NewDaemon builds a daemon; call Run to start its workers. With a journal
// configured, the journal is replayed before NewDaemon returns: finished
// jobs are served from cache and unfinished ones re-enter the queue.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	cfg.Workers = max(1, cfg.Workers)
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = defaultDrainGrace
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.MemCheckInterval <= 0 {
		cfg.MemCheckInterval = defaultMemCheckInterval
	}
	if cfg.ProgressInsts == 0 {
		cfg.ProgressInsts = defaultProgressInsts
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = defaultProgressInterval
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	execCtx, execCancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:        cfg,
		jobs:       map[string]*job{},
		byKey:      map[string]*job{},
		inflight:   map[string]int{},
		reg:        obs.NewRegistry(),
		readHeap:   heapBytes,
		execCtx:    execCtx,
		execCancel: execCancel,
	}
	d.cond = sync.NewCond(&d.mu)
	d.ctr.submitted = d.reg.Counter("jobs.submitted")
	d.ctr.done = d.reg.Counter("jobs.done")
	d.ctr.failed = d.reg.Counter("jobs.failed")
	d.ctr.canceled = d.reg.Counter("jobs.canceled")
	d.ctr.shed = d.reg.Counter("jobs.shed")
	d.ctr.cacheHit = d.reg.Counter("cache.hit")
	d.ctr.cacheMiss = d.reg.Counter("cache.miss")
	d.ctr.coalesced = d.reg.Counter("cache.coalesced")
	d.ctr.rejQueue = d.reg.Counter("admit.reject.queue_full")
	d.ctr.rejClient = d.reg.Counter("admit.reject.client_cap")
	d.ctr.rejMemory = d.reg.Counter("admit.reject.memory")
	d.ctr.journalErrs = d.reg.Counter("journal.append_errors")
	// Sources are read by Metrics, which holds d.mu, so len(d.pending) is
	// safe to touch here.
	d.reg.AddSource("daemon", func(emit func(name string, v uint64)) {
		emit("insts_retired", d.retired.Load())
		emit("queue.pending", uint64(len(d.pending)))
	})

	if cfg.Journal != "" {
		jl, recs, note, err := openJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		d.journal = jl
		d.replay = note
		d.applyReplay(recs)
		d.reg.Counter("journal.replayed_records").Add(uint64(note.Records))
		d.reg.Counter("journal.truncated_bytes").Add(uint64(note.Truncated))
	}
	return d, nil
}

// applyReplay rebuilds in-memory state from journal records: submit records
// create queued jobs, terminal records settle them, and whatever lacks a
// terminal record re-enters the pending queue exactly once.
func (d *Daemon) applyReplay(recs []journalRecord) {
	for _, rec := range recs {
		if rec.Op == opSubmit {
			if rec.Req == nil || rec.ID == "" || d.jobs[rec.ID] != nil {
				continue // damaged or duplicate submit; skip defensively
			}
			j := &job{
				id: rec.ID, req: *rec.Req, key: rec.Key, client: rec.Client,
				state: JobQueued, queued: rec.Time,
			}
			d.jobs[j.id] = j
			d.order = append(d.order, j.id)
			if n := idNumber(rec.ID); n > d.nextID {
				d.nextID = n
			}
			continue
		}
		j := d.jobs[rec.ID]
		if j == nil || j.state.Terminal() {
			continue
		}
		j.attempts = rec.Attempts
		j.finished = rec.Time
		j.class = rec.Class
		if rec.Error != "" {
			j.err = errors.New(rec.Error)
		}
		switch rec.Op {
		case opDone:
			j.state = JobDone
			j.result = rec.Result
			if rec.Result != nil {
				j.progress.Store(rec.Result.Insts)
			}
		case opFailed:
			j.state = JobFailed
		case opCanceled:
			j.state = JobCanceled
		case opShed:
			j.state = JobShed
		}
	}
	for _, id := range d.order {
		j := d.jobs[id]
		switch j.state {
		case JobQueued:
			d.pending = append(d.pending, j)
			d.inflight[j.client]++
			if j.key != "" {
				if cur := d.byKey[j.key]; cur == nil || cur.state != JobDone {
					d.byKey[j.key] = j
				}
			}
		case JobDone:
			if j.key != "" {
				d.byKey[j.key] = j
			}
		}
	}
}

// idNumber extracts the numeric suffix of a "job-%04d" id (0 when foreign).
func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil {
		return 0
	}
	return n
}

// ReplayStats reports what the journal replay recovered at startup: intact
// records applied and torn-tail bytes discarded.
func (d *Daemon) ReplayStats() (records int, truncatedBytes int64) {
	return d.replay.Records, d.replay.Truncated
}

// Run executes jobs until ctx is canceled, then drains: no new submissions
// are accepted, queued and in-flight jobs get DrainGrace to finish, and
// whatever remains past the grace is canceled. Run returns once every worker
// has exited and the journal is closed.
func (d *Daemon) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for range d.cfg.Workers {
		wg.Add(1)
		go d.worker(&wg)
	}
	shedCtx, shedStop := context.WithCancel(context.Background())
	var shedWG sync.WaitGroup
	if d.cfg.MemHighWater > 0 {
		shedWG.Add(1)
		go d.shedLoop(shedCtx, &shedWG)
	}

	<-ctx.Done()
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	d.cond.Broadcast()

	grace := time.AfterFunc(d.cfg.DrainGrace, d.execCancel)
	wg.Wait()
	grace.Stop()
	d.execCancel()
	shedStop()
	shedWG.Wait()

	d.mu.Lock()
	d.journal.Close()
	d.journal = nil
	d.mu.Unlock()
}

// worker pulls pending jobs until the queue is empty and the daemon is
// draining. During a drain the backlog still executes — DrainGrace, not the
// drain signal, is what finally cancels stragglers.
func (d *Daemon) worker(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		d.mu.Lock()
		for len(d.pending) == 0 && !d.draining {
			d.cond.Wait()
		}
		if len(d.pending) == 0 {
			d.mu.Unlock()
			return
		}
		j := d.pending[0]
		d.pending = d.pending[1:]
		j.state = JobRunning
		j.started = time.Now()
		d.publishLocked(j)
		d.mu.Unlock()
		d.execute(j)
	}
}

// Submit validates and enqueues a job for the given client, returning the
// job id. An identical finished job answers from cache; an identical queued
// or running job coalesces (both without admission cost). Fresh work is
// admission-controlled: ErrQueueFull, ErrClientSaturated and ErrOverloaded
// all mean "back off and retry", ErrDraining means the daemon is shutting
// down, and ErrJournal means the submission could not be made durable.
func (d *Daemon) Submit(req JobRequest, client string) (SubmitResult, error) {
	if req.Insts <= 0 {
		return SubmitResult{}, fmt.Errorf("service: insts %d, want > 0", req.Insts)
	}
	if req.TimeoutSec < 0 {
		return SubmitResult{}, fmt.Errorf("service: timeout_sec %g, want >= 0", req.TimeoutSec)
	}
	key, err := jobKey(req) // also validates workload and scheme
	if err != nil {
		return SubmitResult{}, err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return SubmitResult{}, ErrDraining
	}

	if j := d.byKey[key]; j != nil {
		switch j.state {
		case JobDone:
			d.ctr.cacheHit.Inc()
			return SubmitResult{ID: j.id, Cached: true}, nil
		case JobQueued, JobRunning:
			d.ctr.coalesced.Inc()
			return SubmitResult{ID: j.id, Coalesced: true}, nil
		}
	}
	d.ctr.cacheMiss.Inc()

	// Admission control applies to fresh work only: hits and coalesces
	// above cost nothing, so they are served even under pressure.
	if len(d.pending) >= d.cfg.QueueDepth {
		d.ctr.rejQueue.Inc()
		return SubmitResult{}, ErrQueueFull
	}
	if cap := d.cfg.ClientInflight; cap > 0 && d.inflight[client] >= cap {
		d.ctr.rejClient.Inc()
		return SubmitResult{}, fmt.Errorf("%w (client %q, %d in flight)",
			ErrClientSaturated, client, d.inflight[client])
	}
	if hw := d.cfg.MemHighWater; hw > 0 && d.readHeap() > hw {
		d.ctr.rejMemory.Inc()
		return SubmitResult{}, ErrOverloaded
	}

	d.nextID++
	j := &job{
		id:     fmt.Sprintf("job-%04d", d.nextID),
		req:    req,
		key:    key,
		client: client,
		state:  JobQueued,
		queued: time.Now(),
	}
	// Durability before visibility: an accepted job must survive a crash,
	// so a journal failure refuses the submission outright.
	if aerr := d.journal.append(journalRecord{
		Op: opSubmit, ID: j.id, Time: j.queued, Req: &j.req, Key: key, Client: client,
	}); aerr != nil {
		d.nextID--
		d.noteJournalErrLocked(aerr)
		return SubmitResult{}, fmt.Errorf("%w: %v", ErrJournal, aerr)
	}
	d.jobs[j.id] = j
	d.order = append(d.order, j.id)
	d.pending = append(d.pending, j)
	d.byKey[key] = j
	d.inflight[client]++
	d.ctr.submitted.Inc()
	d.cond.Signal()
	return SubmitResult{ID: j.id}, nil
}

// Job returns the visible state of one job.
func (d *Daemon) Job(id string) (JobView, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs returns jobs in submission order, optionally filtered by state
// ("" matches all), capped at limit entries (<= 0 means uncapped), plus the
// total number of matching jobs regardless of the cap.
func (d *Daemon) Jobs(state JobState, limit int) ([]JobView, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	views := []JobView{}
	total := 0
	for _, id := range d.order {
		j := d.jobs[id]
		if state != "" && j.state != state {
			continue
		}
		total++
		if limit <= 0 || len(views) < limit {
			views = append(views, j.view())
		}
	}
	return views, total
}

// Metrics snapshots the service counters. It holds d.mu for the duration so
// counter reads never race increments (obs counters are not atomic).
func (d *Daemon) Metrics() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reg.Snapshot()
}

// Health reports liveness: always "ok" while the process serves, plus drain
// state, backlog and any journal degradation.
func (d *Daemon) Health() map[string]any {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := map[string]any{"ok": true, "draining": d.draining, "queued": len(d.pending)}
	if d.journalErr != nil {
		h["journal_error"] = d.journalErr.Error()
	}
	return h
}

// Ready reports readiness for new work: not draining, queue below capacity,
// heap below the watermark. The detail map explains a false answer.
func (d *Daemon) Ready() (bool, map[string]any) {
	d.mu.Lock()
	draining := d.draining
	queued := len(d.pending)
	d.mu.Unlock()
	overMem := d.cfg.MemHighWater > 0 && d.readHeap() > d.cfg.MemHighWater
	ready := !draining && queued < d.cfg.QueueDepth && !overMem
	return ready, map[string]any{
		"ready": ready, "draining": draining, "queued": queued,
		"queue_depth": d.cfg.QueueDepth, "over_memory": overMem,
	}
}

// noteJournalErrLocked records a journal failure without stopping the
// daemon: in-memory state stays authoritative for this process, and the
// degradation is visible through /healthz and the error counter.
func (d *Daemon) noteJournalErrLocked(err error) {
	if d.journalErr == nil {
		d.journalErr = err
	}
	d.ctr.journalErrs.Inc()
}

// decInflightLocked releases one slot of a client's in-flight budget.
func (d *Daemon) decInflightLocked(client string) {
	if d.inflight[client] <= 1 {
		delete(d.inflight, client)
		return
	}
	d.inflight[client]--
}

// view renders the job; callers hold d.mu.
func (j *job) view() JobView {
	v := JobView{
		ID:       j.id,
		State:    j.state,
		Request:  j.req,
		Attempts: j.attempts,
		Class:    j.class,
		Result:   j.result,
		Progress: j.progress.Load(),
		Queued:   j.queued,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// jobTimeout resolves the effective wall-clock cap for a request: the
// per-request timeout clamped to the daemon-wide cap.
func (d *Daemon) jobTimeout(req JobRequest) time.Duration {
	t := d.cfg.JobTimeout
	if req.TimeoutSec > 0 {
		rt := time.Duration(req.TimeoutSec * float64(time.Second))
		if t <= 0 || rt < t {
			t = rt
		}
	}
	return t
}

// execute runs one job to completion under the daemon's execution context,
// the job's timeout and the retry policy, streaming batched progress.
func (d *Daemon) execute(j *job) {
	jctx := d.execCtx
	var cancel context.CancelFunc
	if t := d.jobTimeout(j.req); t > 0 {
		jctx, cancel = context.WithTimeout(jctx, t)
		defer cancel()
	}

	var res localbp.Result
	attempts, err := d.cfg.Retry.Do(jctx, j.id, func(ctx context.Context) error {
		w, _ := localbp.Workload(j.req.Workload)
		s, serr := localbp.SchemeByName(j.req.Scheme)
		if serr != nil {
			return serr
		}
		// The per-stride progress hook runs on the simulation goroutine, so
		// it must stay cheap: deltas batch through an accumulator and only
		// committed batches touch atomics and wake subscribers. Per attempt,
		// so a retry restarts the visible count truthfully.
		var last uint64
		acc := obs.NewAccumulator(d.cfg.ProgressInsts, d.cfg.ProgressInterval,
			func(delta uint64) {
				d.retired.Add(delta)
				j.progress.Store(last)
				d.publish(j)
			})
		opts := []localbp.Option{
			localbp.WithContext(ctx),
			localbp.WithProgress(func(cum uint64) {
				if cum <= last {
					return
				}
				delta := cum - last
				last = cum
				acc.Add(delta)
			}),
		}
		if j.req.Seed != 0 {
			opts = append(opts, localbp.WithSeed(j.req.Seed))
		}
		r, rerr := localbp.Simulate(w, j.req.Insts, s, opts...)
		acc.Flush()
		if rerr == nil {
			res = r
		}
		return rerr
	})

	d.mu.Lock()
	defer d.mu.Unlock()
	j.attempts = attempts
	j.finished = time.Now()
	rec := journalRecord{ID: j.id, Time: j.finished, Attempts: attempts}
	switch {
	case err == nil:
		j.state = JobDone
		j.result = &res
		j.progress.Store(res.Insts)
		rec.Op = opDone
		rec.Result = j.result
		d.ctr.done.Inc()
	case jctx.Err() != nil:
		j.state = JobCanceled
		j.err = err
		j.class = string(harness.ClassCanceled)
		rec.Op = opCanceled
		rec.Error = j.err.Error()
		rec.Class = j.class
		d.ctr.canceled.Inc()
	default:
		j.state = JobFailed
		j.err = err
		j.class = string(classifyJob(err, attempts, d.cfg.Retry))
		rec.Op = opFailed
		rec.Error = j.err.Error()
		rec.Class = j.class
		d.ctr.failed.Inc()
	}
	// Only done jobs are cacheable; a failed or canceled single-flight
	// leader steps aside so the next identical submission runs fresh.
	if j.state != JobDone && d.byKey[j.key] == j {
		delete(d.byKey, j.key)
	}
	d.decInflightLocked(j.client)
	if aerr := d.journal.append(rec); aerr != nil {
		d.noteJournalErrLocked(aerr)
	}
	d.publishLocked(j)
}

// classifyJob folds the retry budget into the harness classification: a
// transient error that survived every attempt reports retry-exhausted.
func classifyJob(err error, attempts int, p RetryPolicy) string {
	c := harness.Classify(err)
	if c == harness.ClassTransient && attempts >= p.attempts() && p.attempts() > 1 {
		return string(harness.ClassExhausted)
	}
	return string(c)
}

// clientID derives the submitter identity for the in-flight cap: an explicit
// X-Client-ID header, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// Handler returns the daemon's HTTP API:
//
//	POST /jobs             submit {workload, scheme, insts, seed?, timeout_sec?}
//	                       → {id, cached?, coalesced?}; 200 on a cache hit,
//	                       202 otherwise; 429 + Retry-After under pressure
//	GET  /jobs             list jobs (?state= filter, ?limit= cap, default 100)
//	GET  /jobs/{id}        one job's state
//	GET  /jobs/{id}/result the result (409 until the job finishes)
//	GET  /jobs/{id}/events SSE stream of state transitions and progress
//	GET  /healthz          liveness (always 200 while serving)
//	GET  /readyz           readiness (503 while draining/saturated)
//	GET  /metrics          service counter snapshot
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
			return
		}
		res, err := d.Submit(req, clientID(r))
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", d.retryAfterSeconds())
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClientSaturated),
			errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", d.retryAfterSeconds())
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrJournal):
			httpError(w, http.StatusInternalServerError, err)
		case err != nil:
			httpError(w, http.StatusBadRequest, err)
		case res.Cached:
			writeJSON(w, http.StatusOK, res)
		default:
			writeJSON(w, http.StatusAccepted, res)
		}
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		state := r.URL.Query().Get("state")
		if state != "" && !validState(state) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q", state))
			return
		}
		limit := defaultListLimit
		if raw := r.URL.Query().Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("limit %q, want a positive integer", raw))
				return
			}
			limit = n
		}
		views, total := d.Jobs(JobState(state), limit)
		writeJSON(w, http.StatusOK, map[string]any{"total": total, "jobs": views})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := d.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		v, ok := d.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		switch v.State {
		case JobDone:
			writeJSON(w, http.StatusOK, v.Result)
		case JobFailed, JobCanceled, JobShed:
			writeJSON(w, http.StatusOK, map[string]string{
				"state": string(v.State), "error": v.Error, "class": v.Class,
			})
		default:
			httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s", v.ID, v.State))
		}
	})
	mux.HandleFunc("GET /jobs/{id}/events", d.serveEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, detail := d.Ready()
		code := http.StatusOK
		if !ready {
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", d.retryAfterSeconds())
		}
		writeJSON(w, code, detail)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Metrics())
	})
	return mux
}

// retryAfterSeconds renders the Retry-After hint (whole seconds, min 1).
func (d *Daemon) retryAfterSeconds() string {
	return strconv.Itoa(max(1, int(d.cfg.RetryAfter/time.Second)))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
