package monitor

import (
	"bytes"
	"crypto/md5"
	"math/rand"
	"testing"
	"time"

	"frostlab/internal/delta"
)

// tailState returns where the collector's state for one of host 01's files
// stands: its verified offset, its trim, and whether the next round may
// sign from the running tail summary.
func tailState(c *Collector, name string) (off, trim int, kept bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.files[fileKey{"01", name}]
	return st.off, st.trim, st.tailOK
}

// TestRunningTailInvalidation runs rounds across every write that voids a
// running tail summary on one side or the other: an agent Put, a
// truncating agent Splice, an external Put on the collector's mirror, a
// retention eviction and a full resync. After every round the mirror must
// be the agent's file from the eviction point on, and append-only rounds
// must sync from the running summaries again. It then checks that Apply,
// on the collector's running path, still refuses a reconstruction whose
// digest does not match.
func TestRunningTailInvalidation(t *testing.T) {
	const bs = 64
	rng := rand.New(rand.NewSource(9))
	store := NewFileStore()
	agent := NewAgent("01", store)
	coll := NewCollector(bs)
	mirror := coll.Mirror("01")
	files := []string{MD5Log, SensorLog}
	round := 0
	collect := func(stage string) {
		t.Helper()
		collectOnce(t, agent, coll, "01", t0.Add(time.Duration(round)*CollectionPeriod))
		round++
		for _, name := range files {
			full := store.Get(name)
			_, trim, _ := tailState(coll, name)
			if !bytes.Equal(mirror.Get(name), full[trim:]) {
				t.Fatalf("%s, round %d: mirror of %s is not the agent file from byte %d", stage, round, name, trim)
			}
		}
	}
	// appendRounds appends up to a block to every file each round, so
	// some rounds cross a block boundary. Unless the collector evicts, an
	// append-only round must leave the running summary usable.
	appendRounds := func(stage string, evicting bool) {
		t.Helper()
		for i := 0; i < 4; i++ {
			for _, name := range files {
				store.Append(name, randomText(rng, 1+rng.Intn(bs)))
			}
			collect(stage)
			for _, name := range files {
				if _, _, kept := tailState(coll, name); !kept && !evicting {
					t.Fatalf("%s, round %d: append-only round left no running summary of %s", stage, round, name)
				}
			}
		}
	}
	// flipAgent flips one byte of the agent's SensorLog at i with a Put.
	flipAgent := func(i int) {
		b := store.Get(SensorLog)
		b[i] ^= 1
		store.Put(SensorLog, b)
	}

	appendRounds("appends", false)

	flipAgent(store.Size(SensorLog) - 1)
	collect("agent Put of a tail byte")
	appendRounds("after the agent Put", false)

	flipAgent(0)
	collect("full resync after an agent Put of a prefix byte")
	appendRounds("after the full resync", false)

	n := store.Size(SensorLog)
	if err := store.Splice(SensorLog, n-bs/4, randomText(rng, bs/2)); err != nil {
		t.Fatal(err)
	}
	collect("truncating agent Splice in the tail")
	if err := store.Splice(SensorLog, n/2, randomText(rng, bs)); err != nil {
		t.Fatal(err)
	}
	collect("truncating agent Splice into the prefix")
	appendRounds("after the agent Splices", false)

	// External Puts on the mirror: flip a byte of the mirror's tail and
	// lengthen it, then cut it short of the verified offset.
	for _, name := range files {
		store.Append(name, []byte("x"))
	}
	collect("before the mirror Puts")
	off, trim, _ := tailState(coll, SensorLog)
	m := mirror.Get(SensorLog)
	if len(m) > off-trim {
		m[len(m)-1] ^= 1
	}
	mirror.Put(SensorLog, append(m, "garbage"...))
	collect("external mirror Put in the tail")
	mirror.Put(SensorLog, m[:off-trim-1])
	collect("external mirror Put short of the offset")
	appendRounds("after the mirror Puts", false)

	coll.SetRetention(3 * bs)
	appendRounds("retention eviction", true)
	coll.SetRetention(0)
	appendRounds("after the evictions", false)
	flipAgent(0)
	collect("full resync after the evictions")
	if _, trim, _ := tailState(coll, SensorLog); trim != 0 {
		t.Fatalf("full resync left trim %d", trim)
	}
	appendRounds("after the last full resync", false)

	// Apply on the running path: a summary of the mirror's tail equal to
	// the collector's own, and a delta of the agent's bytes past the
	// verified offset, which extend the tail.
	for store.Size(SensorLog)%bs == 0 {
		store.Append(SensorLog, []byte("x"))
		collect("tail of at least one byte")
	}
	off, trim, _ = tailState(coll, SensorLog)
	tail := mirror.Get(SensorLog)[off-trim:]
	store.Append(SensorLog, []byte("2010-02-19T12:10:00Z cpu=-4.1\n"))
	suffix := store.Get(SensorLog)[off:]
	summary := func(p []byte) *delta.Running {
		var r delta.Running
		r.Write(p)
		return &r
	}
	coll.mu.Lock()
	own := coll.files[fileKey{"01", SensorLog}].tail.Sum()
	coll.mu.Unlock()
	if own != md5.Sum(tail) {
		t.Fatal("the collector's running summary is not of the mirror's tail")
	}
	sig, err := summary(tail).Signature(bs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := delta.Compute(sig, suffix, md5.Sum(suffix))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := delta.Apply(nil, tail, d, summary(tail)); err != nil || !bytes.Equal(got, suffix) {
		t.Fatalf("Apply on the running path: %v", err)
	}
	flipped := *d
	flipped.NewMD5[0] ^= 1
	if _, err := delta.Apply(nil, tail, &flipped, summary(tail)); err == nil {
		t.Error("Apply accepted a delta whose NewMD5 has a bit flipped")
	}
	// An old tail other than the one the summary holds, and the delta
	// that the agent would send for it.
	other := append([]byte(nil), tail...)
	other[0] ^= 1
	otherNew := append(append([]byte(nil), other...), suffix[len(tail):]...)
	otherSig, err := delta.NewSignature(other, bs)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = delta.Compute(otherSig, otherNew, md5.Sum(otherNew)); err != nil {
		t.Fatal(err)
	}
	if _, err := delta.Apply(nil, other, d, summary(tail)); err == nil {
		t.Error("Apply accepted a reconstruction from an old file the running summary does not hold")
	}
}
