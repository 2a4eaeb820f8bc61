package monitor

import (
	"sync"

	"frostlab/internal/telemetry"
)

// IngestJob is one unit of post-round ingestion work: flushing mirrored
// samples into the sample DB, writing a checkpoint, appending a report.
// Round tags the job for shed accounting; Run does the work.
type IngestJob struct {
	Round int
	Run   func() error
}

// IngestStats is a consistent snapshot of an IngestQueue's accounting.
// The invariant Offered == Shed + Done + Failed + Depth holds at every
// snapshot: nothing handed to the queue is ever lost silently.
type IngestStats struct {
	Offered  uint64 // jobs handed to Offer (including ones later shed)
	Shed     uint64 // jobs dropped under the shed-oldest policy
	Done     uint64 // jobs that ran and returned nil
	Failed   uint64 // jobs that ran and returned an error
	Depth    int    // jobs currently queued, not yet run
	MaxDepth int    // high-water mark of Depth
}

// IngestQueue decouples collection rounds from ingestion. The paper's
// collector mirrored, parsed, and recorded inline, so a slow disk or a
// large backlog stretched the round and delayed every host behind it.
// The hardened plane bounds that coupling: rounds Offer their ingestion
// work into a fixed-capacity queue and move on. When ingestion cannot
// keep up the queue sheds the OLDEST pending round — the newest data is
// the operationally relevant data (a dashboard wants now, not twenty
// rounds ago) — and every shed is counted, never silent.
//
// A single worker goroutine drains the queue in FIFO order, preserving
// the one-writer-per-series constraint of SampleDB without extra locks.
type IngestQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []IngestJob // pending jobs, oldest first
	cap    int
	closed bool
	stats  IngestStats

	done chan struct{}
}

// NewIngestQueue starts a queue holding at most capacity pending jobs
// (values below 1 mean 1). Close it to stop the worker.
func NewIngestQueue(capacity int) *IngestQueue {
	if capacity < 1 {
		capacity = 1
	}
	q := &IngestQueue{cap: capacity, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.run()
	return q
}

// Offer enqueues a job, shedding the oldest pending job if the queue is
// full. It never blocks the caller: the collection round stays on
// schedule whatever ingestion is doing. Offering to a closed queue
// counts the job as offered and immediately shed. The returned slice
// holds the jobs shed by this call (nil when none).
func (q *IngestQueue) Offer(job IngestJob) []IngestJob {
	q.mu.Lock()
	q.stats.Offered++
	if q.closed {
		q.stats.Shed++
		q.mu.Unlock()
		return []IngestJob{job}
	}
	var shed []IngestJob
	for len(q.buf) >= q.cap {
		shed = append(shed, q.buf[0])
		q.buf = q.buf[1:]
		q.stats.Shed++
	}
	q.buf = append(q.buf, job)
	if d := len(q.buf); d > q.stats.MaxDepth {
		q.stats.MaxDepth = d
	}
	q.cond.Signal()
	q.mu.Unlock()
	return shed
}

// Close stops intake and waits for the worker to drain every job still
// queued. After Close returns, Stats is final and Offered == Shed +
// Done + Failed with Depth == 0.
func (q *IngestQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.closed = true
	q.cond.Signal()
	q.mu.Unlock()
	<-q.done
}

// Stats returns a consistent snapshot of the queue's accounting.
func (q *IngestQueue) Stats() IngestStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.Depth = len(q.buf)
	return st
}

// Instrument registers the queue's accounting on reg as scrape-time
// views, so the invariant the stats promise is checkable from /metrics:
// frostlab_ingest_rounds_total == frostlab_ingest_shed_total +
// frostlab_ingest_done_total + frostlab_ingest_failed_total + depth.
func (q *IngestQueue) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("frostlab_ingest_rounds_total",
		"Ingestion jobs offered to the bounded queue.",
		func() float64 { return float64(q.Stats().Offered) })
	reg.CounterFunc("frostlab_ingest_shed_total",
		"Ingestion jobs shed under backpressure (oldest-first policy).",
		func() float64 { return float64(q.Stats().Shed) })
	reg.CounterFunc("frostlab_ingest_done_total",
		"Ingestion jobs completed successfully.",
		func() float64 { return float64(q.Stats().Done) })
	reg.CounterFunc("frostlab_ingest_failed_total",
		"Ingestion jobs that ran but returned an error.",
		func() float64 { return float64(q.Stats().Failed) })
	reg.GaugeFunc("frostlab_ingest_queue_depth",
		"Ingestion jobs queued and not yet run.",
		func() float64 { return float64(q.Stats().Depth) })
	reg.GaugeFunc("frostlab_ingest_queue_capacity",
		"Configured bound on pending ingestion jobs.",
		func() float64 { return float64(q.cap) })
}

// run is the worker loop: pop oldest, run it, record the outcome. On
// close it drains whatever is still queued before exiting — Close means
// "stop taking work", not "discard work already accepted".
func (q *IngestQueue) run() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for len(q.buf) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.buf) == 0 { // closed and drained
			q.mu.Unlock()
			return
		}
		job := q.buf[0]
		q.buf = q.buf[1:]
		q.mu.Unlock()

		err := runJob(job)

		q.mu.Lock()
		if err != nil {
			q.stats.Failed++
		} else {
			q.stats.Done++
		}
		q.mu.Unlock()
	}
}

// runJob tolerates nil Run functions (a pure marker job counts as done).
func runJob(job IngestJob) error {
	if job.Run == nil {
		return nil
	}
	return job.Run()
}
