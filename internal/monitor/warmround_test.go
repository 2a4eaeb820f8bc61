package monitor

import (
	"bytes"
	"runtime"
	"testing"
)

// warmRoundLines is what each file of a warm round's host gains per
// round: 1,000 bytes, about what a 20-minute round of the paper's
// monitored run adds.
var warmRoundLines = bytes.Repeat([]byte("2010-02-19T12:00:00Z cpu=-4.1 disk0=8.0\n"), 25)

// warmHost is one host with an md5 and a sensor log, collected over an
// InProcessSession.
type warmHost struct {
	store *FileStore
	coll  *Collector
	sess  *InProcessSession
}

// newWarmHost gives each file, in the store and in the mirror, room for
// the given number of rounds up front, so that a round's allocations are
// the monitor's own and not the files' growth.
func newWarmHost(tb testing.TB, rounds int) *warmHost {
	tb.Helper()
	store := NewFileStore()
	coll := NewCollector(0)
	for _, fs := range []*FileStore{store, coll.Mirror("01")} {
		for _, name := range []string{MD5Log, SensorLog} {
			fs.files[name] = make([]byte, 0, rounds*len(warmRoundLines))
		}
	}
	sess, err := DialInProcess(NewAgent("01", store), "01", []byte("warm-psk"), "warm")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = sess.Close() })
	return &warmHost{store: store, coll: coll, sess: sess}
}

// run appends warmRoundLines to each file and collects one round.
func (h *warmHost) run(tb testing.TB) {
	h.store.Append(MD5Log, warmRoundLines)
	h.store.Append(SensorLog, warmRoundLines)
	if _, err := h.sess.Collect(h.coll, t0); err != nil {
		tb.Fatal(err)
	}
}

// warmRoundBytes is the heap bytes a warm round allocates, averaged over
// rounds after warm-up ones.
func warmRoundBytes(tb testing.TB, warmUp, rounds int) float64 {
	h := newWarmHost(tb, warmUp+rounds)
	for i := 0; i < warmUp; i++ {
		h.run(tb)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		h.run(tb)
	}
	runtime.ReadMemStats(&after)
	for _, name := range []string{MD5Log, SensorLog} {
		if got, want := h.coll.Mirror("01").Get(name), h.store.Get(name); string(got) != string(want) {
			tb.Fatalf("%s: mirror of %d bytes differs from the store's %d", name, len(got), len(want))
		}
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds)
}

// TestWarmRoundAllocBytes pins what a warm round allocates on a two-file
// host that appends 1,000 bytes per file per round: small per-frame
// structures, but no copy of the appended bytes on their way through the
// monitor, wire and delta layers. When From copied, Recv allocated each
// body, the agent built each reply afresh and Apply each reconstruction,
// a round allocated 23,846 bytes; with those copies gone it allocates
// 1,337. The bound sits below 1,337 plus the 2,000 bytes appended per
// round, so one more copy of them fails it.
func TestWarmRoundAllocBytes(t *testing.T) {
	const bound = 3000
	got := warmRoundBytes(t, 50, 400)
	t.Logf("a warm round allocates %.0f bytes", got)
	if got > bound {
		t.Errorf("a warm round allocates %.0f bytes, want at most %d", got, bound)
	}
}

// BenchmarkWarmRound reports the bytes and allocations of one warm round
// as TestWarmRoundAllocBytes runs it.
func BenchmarkWarmRound(b *testing.B) {
	h := newWarmHost(b, 50+b.N)
	for i := 0; i < 50; i++ {
		h.run(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.run(b)
	}
}
