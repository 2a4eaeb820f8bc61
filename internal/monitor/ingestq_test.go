package monitor

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// gateJob returns a job that blocks inside Run until release is closed,
// so tests can hold the worker busy and fill the queue deterministically.
func gateJob(round int, release <-chan struct{}) IngestJob {
	return IngestJob{Round: round, Run: func() error {
		<-release
		return nil
	}}
}

func waitStats(t *testing.T, q *IngestQueue, ok func(IngestStats) bool) IngestStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := q.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIngestQueueShedsOldest(t *testing.T) {
	release := make(chan struct{})
	q := NewIngestQueue(2)

	// Round 1 occupies the worker; rounds 2-3 fill the queue.
	q.Offer(gateJob(1, release))
	waitStats(t, q, func(st IngestStats) bool { return st.Depth == 0 }) // picked up
	for r := 2; r <= 3; r++ {
		if shed := q.Offer(gateJob(r, release)); len(shed) != 0 {
			t.Fatalf("offer round %d shed %v with queue not full", r, shed)
		}
	}
	// Rounds 4 and 5 push out the oldest pending (2, then 3).
	for r := 4; r <= 5; r++ {
		shed := q.Offer(gateJob(r, release))
		if len(shed) != 1 || shed[0].Round != r-2 {
			t.Fatalf("offer round %d shed %+v, want round %d", r, shed, r-2)
		}
	}

	close(release)
	q.Close()
	st := q.Stats()
	// Nothing lost silently: offered == shed + done + failed, depth 0.
	if st.Offered != 5 || st.Shed != 2 || st.Done != 3 || st.Failed != 0 || st.Depth != 0 {
		t.Errorf("final stats = %+v", st)
	}
	if st.MaxDepth != 2 {
		t.Errorf("max depth = %d, want the capacity bound 2", st.MaxDepth)
	}
}

func TestIngestQueueCloseDrains(t *testing.T) {
	q := NewIngestQueue(8)
	var ran sync.Map
	for r := 1; r <= 5; r++ {
		r := r
		q.Offer(IngestJob{Round: r, Run: func() error {
			ran.Store(r, true)
			if r == 3 {
				return fmt.Errorf("round 3 flush failed (test)")
			}
			return nil
		}})
	}
	q.Close()
	for r := 1; r <= 5; r++ {
		if _, ok := ran.Load(r); !ok {
			t.Errorf("round %d accepted before Close but never ran", r)
		}
	}
	st := q.Stats()
	if st.Done != 4 || st.Failed != 1 || st.Shed != 0 {
		t.Errorf("stats after drain = %+v", st)
	}

	// Offers after Close are counted and shed, never silently dropped.
	if shed := q.Offer(IngestJob{Round: 6}); len(shed) != 1 {
		t.Fatalf("offer after close shed %v, want the job back", shed)
	}
	st = q.Stats()
	if st.Offered != 6 || st.Shed != 1 {
		t.Errorf("stats after late offer = %+v", st)
	}
	q.Close() // idempotent
}

func TestIngestQueueMinimumCapacity(t *testing.T) {
	q := NewIngestQueue(0) // clamped to 1
	release := make(chan struct{})
	q.Offer(gateJob(1, release))
	waitStats(t, q, func(st IngestStats) bool { return st.Depth == 0 })
	q.Offer(gateJob(2, release))
	if shed := q.Offer(gateJob(3, release)); len(shed) != 1 || shed[0].Round != 2 {
		t.Fatalf("capacity-1 queue shed %+v, want round 2", shed)
	}
	close(release)
	q.Close()
	if st := q.Stats(); st.Offered != 3 || st.Shed != 1 || st.Done != 2 {
		t.Errorf("stats = %+v", st)
	}
}
