package monitor

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestParseSamples(t *testing.T) {
	data := []byte("" +
		"2010-02-19T12:10:00Z cpu=-4.1 disk0=8.0\n" +
		"garbage line without timestamp\n" +
		"2010-02-19T12:30:00Z cpu=ERR chip not detected\n" +
		"2010-02-19T12:50:00Z cpu=-3.9\n")
	type sample struct {
		series string
		t      int64
		v      float64
	}
	var got []sample
	ParseSamples("01", data, func(series string, ts int64, v float64) {
		got = append(got, sample{series, ts, v})
	})
	want := []sample{
		{"01/cpu", time.Date(2010, 2, 19, 12, 10, 0, 0, time.UTC).UnixNano(), -4.1},
		{"01/disk0", time.Date(2010, 2, 19, 12, 10, 0, 0, time.UTC).UnixNano(), 8.0},
		{"01/cpu", time.Date(2010, 2, 19, 12, 50, 0, 0, time.UTC).UnixNano(), -3.9},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSampleDBTailBuffering(t *testing.T) {
	db := NewSampleDB()
	line := "2010-02-19T12:10:00Z cpu=-4.1\n"
	// Feed the line in three fragments, splitting mid-timestamp and
	// mid-value: nothing stores until the newline arrives.
	if n := db.Ingest("01", SensorLog, []byte(line[:10])); n != 0 {
		t.Fatalf("fragment 1 stored %d samples", n)
	}
	if n := db.Ingest("01", SensorLog, []byte(line[10:25])); n != 0 {
		t.Fatalf("fragment 2 stored %d samples", n)
	}
	if n := db.Ingest("01", SensorLog, []byte(line[25:])); n != 1 {
		t.Fatalf("fragment 3 stored %d samples, want 1", n)
	}
	it, err := db.Store().QueryAll("01/cpu")
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() || it.V() != -4.1 {
		t.Fatalf("stored sample missing or wrong: %v", it.Err())
	}
	if it.Next() {
		t.Fatal("extra sample stored")
	}
	// Out-of-order appends are dropped, not fatal.
	db.Ingest("01", SensorLog, []byte("2010-02-19T11:00:00Z cpu=-9.9\n"))
	if db.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", db.Dropped())
	}
}

// sensorLine renders one agent-style log line.
func sensorLine(at time.Time, v float64) []byte {
	return []byte(fmt.Sprintf("%s cpu=%.1f\n", at.UTC().Format(time.RFC3339), v))
}

func TestCollectorSamplesAndRetention(t *testing.T) {
	store := NewFileStore()
	agent := NewAgent("01", store)
	db := NewSampleDB()
	coll := NewCollector(64).WithSamples(db)
	const retain = 1 << 10
	coll.SetRetention(retain)

	// Many rounds, each appending lines; the mirror must stay capped
	// while the sample plane accumulates the full history.
	var wantSamples int
	at := t0
	var lastStats RoundStats
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			store.Append(SensorLog, sensorLine(at, -5+0.1*float64(wantSamples%40)))
			at = at.Add(time.Minute)
			wantSamples++
		}
		aSess, cSess := connectPair(t, "01")
		done := make(chan error, 1)
		go func() { done <- agent.Serve(aSess) }()
		var err error
		lastStats, err = coll.CollectHost(cSess, "01", at)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d agent: %v", round, err)
		}
	}

	mirror := coll.Mirror("01")
	if got := mirror.Size(SensorLog); got > retain {
		t.Errorf("mirror holds %d bytes, cap %d", got, retain)
	}
	full := store.Get(SensorLog)
	trim := trimmedBytes(coll, "01", SensorLog)
	if trim == 0 {
		t.Fatal("retention never evicted despite cap overflow")
	}
	// The retained suffix must be the literal tail of the agent's file,
	// starting at a line boundary.
	kept := mirror.Get(SensorLog)
	if !bytes.Equal(kept, full[trim:]) {
		t.Error("mirror suffix diverged from agent file tail")
	}
	if trim > 0 && full[trim-1] != '\n' {
		t.Error("eviction cut mid-line")
	}
	// TotalBytes still reports the agent-side corpus, so Savings stays
	// comparable with uncapped collectors.
	if lastStats.TotalBytes != len(full) {
		t.Errorf("TotalBytes = %d, want agent file size %d", lastStats.TotalBytes, len(full))
	}
	if got := coll.MirrorBytes(); got != int64(len(kept)) {
		t.Errorf("MirrorBytes = %d, want %d", got, len(kept))
	}

	// Every appended sample made it into the compressed plane even
	// though most raw bytes were evicted.
	it, err := db.Store().QueryAll("01/cpu")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		want := -5 + 0.1*float64(n%40)
		if math.Abs(it.V()-want) > 1e-9 {
			t.Fatalf("sample %d = %g, want %g", n, it.V(), want)
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != wantSamples {
		t.Fatalf("sample plane holds %d samples, want %d", n, wantSamples)
	}
	if db.Dropped() != 0 {
		t.Errorf("dropped %d samples", db.Dropped())
	}
}

func TestRetentionDoesNotRetransferEvictedPrefix(t *testing.T) {
	store := NewFileStore()
	agent := NewAgent("01", store)
	coll := NewCollector(64)
	coll.SetRetention(2 << 10)

	// Round 1: a file far beyond the cap.
	at := t0
	for i := 0; i < 200; i++ {
		store.Append(SensorLog, sensorLine(at, -4))
		at = at.Add(time.Minute)
	}
	aSess, cSess := connectPair(t, "01")
	go func() { _ = agent.Serve(aSess) }()
	if _, err := coll.CollectHost(cSess, "01", at); err != nil {
		t.Fatal(err)
	}
	if trimmedBytes(coll, "01", SensorLog) == 0 {
		t.Fatal("round 1 did not trim")
	}

	// Round 2: only a small tail is new. With append-verify the evicted
	// prefix must not come back as literal bytes.
	tail := sensorLine(at, -3.5)
	store.Append(SensorLog, tail)
	aSess2, cSess2 := connectPair(t, "01")
	go func() { _ = agent.Serve(aSess2) }()
	s2, err := coll.CollectHost(cSess2, "01", at.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if s2.LiteralBytes > len(tail)+256 {
		t.Errorf("round 2 moved %d literal bytes, want ≈ %d (offset-aware sync)", s2.LiteralBytes, len(tail))
	}
	full := store.Get(SensorLog)
	trim := trimmedBytes(coll, "01", SensorLog)
	if got := coll.Mirror("01").Get(SensorLog); !bytes.Equal(got, full[trim:]) {
		t.Error("mirror suffix diverged after offset-aware round")
	}
}

// trimmedBytes returns how many raw bytes retention has evicted for one
// host's file (0 if never trimmed).
func trimmedBytes(c *Collector, hostID, name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.files[fileKey{hostID, name}]; st != nil {
		return st.trim
	}
	return 0
}
