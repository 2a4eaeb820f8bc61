package campaign

import (
	"testing"

	"frostlab/internal/core"
)

// smallEconSpec keeps sweep tests fast: one week, two fleets, all
// policies, both default price regimes.
func smallEconSpec(seed string) EconSpec {
	s := DefaultEconSpec(seed)
	s.Days = 7
	s.HostsPerSite = 6
	return s
}

func TestEconSweepShape(t *testing.T) {
	spec := smallEconSpec("econ-sweep")
	var calls int
	spec.Progress = func(done, total int, cell *EconCell) {
		calls++
		if done != calls || total != 12 || cell == nil {
			t.Fatalf("progress callback inconsistent: done=%d calls=%d total=%d", done, calls, total)
		}
	}
	sum, err := RunEcon(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 policies x 2 sets x 2 tariff regimes.
	if len(sum.Cells) != 12 || calls != 12 {
		t.Fatalf("expected 12 cells, got %d (callbacks %d)", len(sum.Cells), calls)
	}
	// The exact roster, in sweep order: policy outermost, then fleet,
	// then price regime.
	want := [][3]string{
		{"static", "continental", "paired"}, {"static", "continental", "flat"},
		{"static", "coastal", "paired"}, {"static", "coastal", "flat"},
		{"follow-cold", "continental", "paired"}, {"follow-cold", "continental", "flat"},
		{"follow-cold", "coastal", "paired"}, {"follow-cold", "coastal", "flat"},
		{"follow-green", "continental", "paired"}, {"follow-green", "continental", "flat"},
		{"follow-green", "coastal", "paired"}, {"follow-green", "coastal", "flat"},
	}
	for i := range sum.Cells {
		c := &sum.Cells[i]
		if got := [3]string{c.Policy, c.Set, c.Tariff}; got != want[i] {
			t.Fatalf("cell %d is %v, want %v", i, got, want[i])
		}
		if c.Result == nil || c.Result.Ticks == 0 {
			t.Fatalf("cell %s has no result", c.Label)
		}
		if len(c.Result.Sites) != 3 {
			t.Fatalf("cell %s has %d sites, want 3", c.Label, len(c.Result.Sites))
		}
		if c.Result.Policy != c.Policy {
			t.Fatalf("cell %s ran policy %s", c.Label, c.Result.Policy)
		}
	}
	if sum.Cell("follow-cold", "continental", "paired") == nil {
		t.Fatal("headline cell missing from sweep")
	}
	if sum.Cell("nope", "continental", "paired") != nil {
		t.Fatal("Cell invented a result")
	}
}

// TestEconSweepDeterminism: the whole sweep digests identically across
// independent runs, and a different seed diverges.
func TestEconSweepDeterminism(t *testing.T) {
	run := func(seed string) string {
		sum, err := RunEcon(smallEconSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sum.Digest()
	}
	if d1, d2 := run("det"), run("det"); d1 != d2 {
		t.Fatalf("sweep digest unstable: %s vs %s", d1, d2)
	}
	if run("det") == run("det-2") {
		t.Fatal("different seeds produced identical sweeps")
	}
}

// TestEconCommonRandomNumbers: cells differing only in policy share
// weather and tariff sample paths — same seed string, so the static and
// follow-cold cells see identical per-site price traces.
func TestEconCommonRandomNumbers(t *testing.T) {
	sum, err := RunEcon(smallEconSpec("crn"))
	if err != nil {
		t.Fatal(err)
	}
	a := sum.Cell("static", "continental", "paired")
	b := sum.Cell("follow-cold", "continental", "paired")
	if a == nil || b == nil {
		t.Fatal("missing cells")
	}
	if a.Result.Seed != b.Result.Seed {
		t.Fatalf("policy cells drew different seeds: %q vs %q", a.Result.Seed, b.Result.Seed)
	}
	for i := range a.Result.Sites {
		pa, pb := a.Result.Sites[i].Price, b.Result.Sites[i].Price
		if len(pa) != len(pb) {
			t.Fatal("price trace lengths differ")
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("site %d tick %d price diverged across policies: %v vs %v",
					i, j, pa[j], pb[j])
			}
		}
	}
}

// TestEconFollowColdAdvantage: the E17 headline at sweep scale —
// follow-cold beats static on cost per cycle in at least one cell.
func TestEconFollowColdAdvantage(t *testing.T) {
	sum, err := RunEcon(smallEconSpec("adv"))
	if err != nil {
		t.Fatal(err)
	}
	keys, adv := sum.Advantage("follow-cold", "static")
	if len(keys) != 4 {
		t.Fatalf("expected 4 comparable (set, tariff) pairs, got %d", len(keys))
	}
	won := 0
	for _, k := range keys {
		if adv[k] > 0 {
			won++
		}
	}
	if won == 0 {
		t.Fatalf("follow-cold never beat static on $/cycle: %v", adv)
	}
}

func TestEconSpecValidate(t *testing.T) {
	good := []EconSpec{
		smallEconSpec("v"),
		{Seed: "x", Sets: []SiteSet{{Name: "a", Climates: []string{"wynyard", "helsinki"}}}, Tariffs: []string{"flat"}},
	}
	for i := range good {
		if err := good[i].Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	bad := []EconSpec{
		{Seed: ""},
		{Seed: "x", Days: -1},
		{Seed: "x", Policies: []string{"chase-the-sun"}},
		{Seed: "x", Sets: []SiteSet{{Name: "", Climates: []string{"helsinki"}}}},
		{Seed: "x", Sets: []SiteSet{{Name: "a", Climates: []string{"helsinki"}}, {Name: "a", Climates: []string{"desert"}}}},
		{Seed: "x", Sets: []SiteSet{{Name: "a"}}},
		{Seed: "x", Sets: []SiteSet{{Name: "a", Climates: []string{"atlantis"}}}},
		{Seed: "x", Tariffs: []string{"barter"}},
		{Seed: "x", Sets: []SiteSet{{Name: "a", Climates: []string{"wynyard", "helsinki"}}}, Tariffs: []string{"paired"}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// econSweepDigest is the full E17 sweep's digest at the reference seed,
// the digest BENCH_ECON.json records.
const econSweepDigest = "78230808af470362704333dd269cb66b"

// BenchmarkEconSweep times the full E17 sweep at the reference seed, one
// sweep per iteration, digest included, and fails unless every
// iteration's digest is the recorded one.
func BenchmarkEconSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := RunEcon(DefaultEconSpec(core.ReferenceSeed))
		if err != nil {
			b.Fatal(err)
		}
		if got := sum.Digest(); got != econSweepDigest {
			b.Fatalf("sweep digest %s, want %s", got, econSweepDigest)
		}
	}
}
