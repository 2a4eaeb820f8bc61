package monitor

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"frostlab/internal/delta"
)

// collectOnce runs one complete round for the agent over a fresh
// authenticated pipe.
func collectOnce(t testing.TB, agent *Agent, coll *Collector, hostID string, at time.Time) RoundStats {
	t.Helper()
	aSess, cSess := connectPair(t, hostID)
	done := make(chan error, 1)
	go func() { done <- agent.Serve(aSess) }()
	stats, err := coll.CollectHost(cSess, hostID, at)
	if err != nil {
		t.Fatalf("collecting %s: %v", hostID, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("agent %s: %v", hostID, err)
	}
	return stats
}

// randomText returns n bytes of lowercase letters broken into lines.
// Random content keeps any two windows of a block from coinciding, so a
// whole-file delta never finds a match outside the shared prefix.
func randomText(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(32) == 0 {
			out[i] = '\n'
		} else {
			out[i] = 'a' + byte(rng.Intn(26))
		}
	}
	return out
}

// TestAppendVerifyLiteralBytesMatchWholeFileSync is what keeps
// MonitorLiteralBytes, and so every anchor, honest: round by round, an
// append-verify round moves exactly the literal bytes a whole-file rsync
// of the same logs would, and reports the same corpus size.
func TestAppendVerifyLiteralBytesMatchWholeFileSync(t *testing.T) {
	for _, bs := range []int{64, 2048} {
		t.Run(fmt.Sprintf("block%d", bs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(bs)))
			store := NewFileStore()
			agent := NewAgent("01", store)
			coll := NewCollector(bs)
			files := []string{MD5Log, SensorLog}
			ref := map[string][]byte{}
			// Sub-block, exact-block-multiple and multi-block appends,
			// appends that end the file on a block boundary, and rounds
			// where a file does not grow at all.
			sizes := func(size int) int {
				switch rng.Intn(6) {
				case 0:
					return 0
				case 1:
					return 1 + rng.Intn(bs-1)
				case 2:
					return bs * (1 + rng.Intn(3))
				case 3:
					return bs - size%bs
				default:
					return bs*(1+rng.Intn(4)) + rng.Intn(bs)
				}
			}
			for round := 0; round < 60; round++ {
				wantLit, wantTotal := 0, 0
				for _, name := range files {
					n := sizes(store.Size(name))
					if round == 0 && n == 0 {
						n = 1
					}
					store.Append(name, randomText(rng, n))
					full := store.Get(name)
					got, lit, err := delta.Sync(ref[name], full, bs)
					if err != nil {
						t.Fatal(err)
					}
					ref[name] = got
					wantLit += lit
					wantTotal += len(full)
				}
				stats := collectOnce(t, agent, coll, "01", t0.Add(time.Duration(round)*CollectionPeriod))
				if stats.LiteralBytes != wantLit || stats.TotalBytes != wantTotal {
					t.Fatalf("round %d: literal/total = %d/%d, whole-file sync %d/%d",
						round, stats.LiteralBytes, stats.TotalBytes, wantLit, wantTotal)
				}
				for _, name := range files {
					if !bytes.Equal(coll.Mirror("01").Get(name), store.Get(name)) {
						t.Fatalf("round %d: mirror of %s diverged", round, name)
					}
				}
			}
		})
	}
}

// TestAgentRewriteMidRunConverges rewrites an agent file between rounds
// in the three ways an append-verify round can be fooled into trusting a
// stale baseline, and requires the next round to leave the mirror equal
// to the agent's file and the sample plane free of duplicates.
func TestAgentRewriteMidRunConverges(t *testing.T) {
	const perRound, rounds = 20, 5
	// Lines of constant width: "<RFC3339> cpu=-4.d\n".
	line := func(i int) []byte {
		return sensorLine(t0.Add(time.Duration(i)*time.Minute), -4-0.1*float64(i%10))
	}
	lineLen := len(line(0))
	cases := []struct {
		name string
		// rewrite returns the new content and how many of its lines carry
		// timestamps past everything stored so far.
		rewrite func(old []byte, next int) ([]byte, int)
	}{
		{"shorter", func(old []byte, next int) ([]byte, int) {
			return append([]byte(nil), old[:len(old)/2/lineLen*lineLen]...), 0
		}},
		{"same-length", func(old []byte, next int) ([]byte, int) {
			// One digit of the first line: only the store's generation
			// tells the agent its running prefix hash is void.
			b := append([]byte(nil), old...)
			b[lineLen-3] = '7'
			return b, 0
		}},
		{"same-prefix-new-tail", func(old []byte, next int) ([]byte, int) {
			keep := len(old) * 3 / 4 / lineLen * lineLen
			b := append([]byte(nil), old[:keep]...)
			for i := keep / lineLen; i < next+3; i++ {
				b = append(b, sensorLine(t0.Add(time.Duration(i)*time.Minute), 9.5)...)
			}
			return b, 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewFileStore()
			agent := NewAgent("01", store)
			db := NewSampleDB()
			coll := NewCollector(64).WithSamples(db)
			next := 0
			at := t0
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					store.Append(SensorLog, line(next))
					next++
				}
				at = at.Add(CollectionPeriod)
				collectOnce(t, agent, coll, "01", at)
			}
			rewritten, fresh := tc.rewrite(store.Get(SensorLog), next)
			store.Put(SensorLog, rewritten)
			want := next + fresh
			next += fresh
			check := func(stage string) {
				t.Helper()
				if !bytes.Equal(coll.Mirror("01").Get(SensorLog), store.Get(SensorLog)) {
					t.Fatalf("%s: mirror differs from the agent file", stage)
				}
				it, err := db.Store().QueryAll("01/cpu")
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for it.Next() {
					n++
				}
				if n != want || db.Dropped() != 0 {
					t.Fatalf("%s: sample plane holds %d samples (%d dropped), want %d distinct",
						stage, n, db.Dropped(), want)
				}
			}
			collectOnce(t, agent, coll, "01", at.Add(CollectionPeriod))
			check("after the rewrite")
			// Appends after the rewrite sync incrementally again.
			for i := 0; i < perRound; i++ {
				store.Append(SensorLog, line(next))
				next++
			}
			want += perRound
			stats := collectOnce(t, agent, coll, "01", at.Add(2*CollectionPeriod))
			check("after the next append")
			if stats.LiteralBytes >= perRound*lineLen+64 {
				t.Errorf("append after the rewrite moved %d literal bytes, want < %d",
					stats.LiteralBytes, perRound*lineLen+64)
			}
		})
	}
}

// TestRoundAllocsTrackAppendedBytes is the scaling gate: with the same
// chunk appended every round, the bytes a round allocates must not grow
// with the mirror. A whole-file round at 4 MiB allocates tens of times
// what it does at 64 KiB.
func TestRoundAllocsTrackAppendedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate")
	}
	rng := rand.New(rand.NewSource(1))
	chunk := randomText(rng, 4<<10)
	perRound := func(mirror int) uint64 {
		store := NewFileStore()
		agent := NewAgent("01", store)
		coll := NewCollector(0)
		// Fill the mirror in steps below wire.MaxFrame, then run one more
		// round to grow the mirror's backing array; none is measured.
		for n := 0; n < mirror; n += 1 << 20 {
			store.Append(SensorLog, randomText(rng, min(1<<20, mirror-n)))
			collectOnce(t, agent, coll, "01", t0)
		}
		store.Append(SensorLog, chunk)
		collectOnce(t, agent, coll, "01", t0)
		const rounds = 8
		var total uint64
		var before, after runtime.MemStats
		for i := 0; i < rounds; i++ {
			store.Append(SensorLog, chunk)
			runtime.ReadMemStats(&before)
			collectOnce(t, agent, coll, "01", t0)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return total / rounds
	}
	small, large := perRound(64<<10), perRound(4<<20)
	t.Logf("bytes allocated per round: %d at a 64 KiB mirror, %d at 4 MiB", small, large)
	if large > 2*small {
		t.Errorf("a round at a 4 MiB mirror allocates %d bytes, more than 2× the %d at 64 KiB", large, small)
	}
}

// TestRetentionKeepsAgentSuffix runs append-verify rounds under retention
// caps below, near and above the block size, so evictions shift the
// mirror's block grid against the verified offset. After every round the
// mirror must be the agent file's suffix from the eviction point, and no
// round may move more than the new bytes plus one block.
func TestRetentionKeepsAgentSuffix(t *testing.T) {
	const bs = 64
	for _, retain := range []int{40, 100, 1000} {
		t.Run(fmt.Sprintf("retain%d", retain), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(retain)))
			store := NewFileStore()
			agent := NewAgent("01", store)
			coll := NewCollector(bs)
			coll.SetRetention(retain)
			for round := 0; round < 80; round++ {
				// Half the appends are a few bytes, which is when an
				// eviction can move the grid behind the verified offset.
				n := 1 + rng.Intn(3*bs)
				if rng.Intn(2) == 0 {
					n = 1 + rng.Intn(8)
				}
				store.Append(SensorLog, randomText(rng, n))
				stats := collectOnce(t, agent, coll, "01", t0)
				full := store.Get(SensorLog)
				trim := trimmedBytes(coll, "01", SensorLog)
				if !bytes.Equal(coll.Mirror("01").Get(SensorLog), full[trim:]) {
					t.Fatalf("round %d: mirror is not the agent file from byte %d", round, trim)
				}
				if round > 0 && stats.LiteralBytes > n+bs {
					t.Fatalf("round %d: %d literal bytes for a %d-byte append", round, stats.LiteralBytes, n)
				}
			}
		})
	}
}

// TestForeignMirrorWriteRepaired flips the first byte of a mirror behind
// the collector's back. The prefix digest the collector keeps is of the
// agent's bytes, so only the mirror's generation shows the write: the next
// round must resync the whole file and leave the mirror equal to the
// agent's file again.
func TestForeignMirrorWriteRepaired(t *testing.T) {
	const bs = 64
	rng := rand.New(rand.NewSource(5))
	store := NewFileStore()
	agent := NewAgent("01", store)
	coll := NewCollector(bs)
	files := []string{MD5Log, SensorLog}
	for round := 0; round < 3; round++ {
		for _, name := range files {
			store.Append(name, randomText(rng, 200))
		}
		collectOnce(t, agent, coll, "01", t0)
	}
	mirror := coll.Mirror("01")
	m := mirror.Get(SensorLog)
	m[0] ^= 1
	mirror.Put(SensorLog, m)
	collectOnce(t, agent, coll, "01", t0)
	for _, name := range files {
		if !bytes.Equal(mirror.Get(name), store.Get(name)) {
			t.Fatalf("%s: mirror differs from the agent file after a round", name)
		}
	}
}

// TestRetentionEvictionIsNotForeign checks that the collector's own
// eviction of one file does not count as a foreign write to it or to a
// sibling file: no round resyncs, so each moves at most its appended
// bytes and one block.
func TestRetentionEvictionIsNotForeign(t *testing.T) {
	const bs, retain = 64, 300
	rng := rand.New(rand.NewSource(6))
	store := NewFileStore()
	agent := NewAgent("01", store)
	coll := NewCollector(bs)
	coll.SetRetention(retain)
	files := []string{MD5Log, SensorLog}
	for round := 0; round < 40; round++ {
		appended := 0
		for _, name := range files {
			n := 1 + rng.Intn(2*bs)
			store.Append(name, randomText(rng, n))
			appended += n
		}
		stats := collectOnce(t, agent, coll, "01", t0)
		if round > 0 && stats.LiteralBytes > appended+len(files)*bs {
			t.Fatalf("round %d: %d literal bytes for %d appended bytes", round, stats.LiteralBytes, appended)
		}
		for _, name := range files {
			trim := trimmedBytes(coll, "01", name)
			if !bytes.Equal(coll.Mirror("01").Get(name), store.Get(name)[trim:]) {
				t.Fatalf("round %d: mirror of %s is not the agent file from byte %d", round, name, trim)
			}
		}
	}
}
