package hardware

import (
	"fmt"
	"testing"
	"time"
)

func TestSpecValidation(t *testing.T) {
	for _, v := range []Vendor{VendorA, VendorB, VendorC} {
		s, err := SpecFor(v)
		if err != nil {
			t.Fatalf("SpecFor(%s): %v", v, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("vendor %s spec invalid: %v", v, err)
		}
	}
	if err := PrototypeSpec().Validate(); err != nil {
		t.Errorf("prototype spec invalid: %v", err)
	}
	if _, err := SpecFor("Z"); err == nil {
		t.Error("unknown vendor accepted")
	}
}

func TestSpecInvariantsRejected(t *testing.T) {
	s := specA
	s.IdlePower, s.LoadPower = 200, 100
	if err := s.Validate(); err == nil {
		t.Error("inverted power bracket accepted")
	}
	s = specA
	s.CPUShare = 1.5
	if err := s.Validate(); err == nil {
		t.Error("CPU share > 1 accepted")
	}
	s = specA
	s.Layout = "bogus"
	if err := s.Validate(); err == nil {
		t.Error("bogus layout accepted")
	}
}

func TestPowerInterpolation(t *testing.T) {
	s, _ := SpecFor(VendorA)
	if got := s.Power(0); got != s.IdlePower {
		t.Errorf("Power(0) = %v", got)
	}
	if got := s.Power(1); got != s.LoadPower {
		t.Errorf("Power(1) = %v", got)
	}
	mid := s.Power(0.5)
	if mid <= s.IdlePower || mid >= s.LoadPower {
		t.Errorf("Power(0.5) = %v outside bracket", mid)
	}
	if s.Power(-1) != s.IdlePower || s.Power(2) != s.LoadPower {
		t.Error("load fraction not clamped")
	}
}

func TestCPUPowerShare(t *testing.T) {
	s, _ := SpecFor(VendorB)
	if cpu := s.CPUPower(1); float64(cpu) != float64(s.LoadPower)*s.CPUShare {
		t.Errorf("CPUPower(1) = %v", cpu)
	}
}

func TestDiskCounts(t *testing.T) {
	cases := map[StorageLayout]int{
		SoftwareMirror: 2, SingleDisk: 1, MirrorPlusParityStripe: 5, PrototypeDisk: 1,
		StorageLayout("?"): 0,
	}
	for l, want := range cases {
		if got := l.DiskCount(); got != want {
			t.Errorf("%s.DiskCount() = %d, want %d", l, got, want)
		}
	}
}

func TestSurvivesDiskFailures(t *testing.T) {
	cases := []struct {
		layout StorageLayout
		failed []int
		want   bool
	}{
		{SoftwareMirror, nil, true},
		{SoftwareMirror, []int{0}, true},
		{SoftwareMirror, []int{1}, true},
		{SoftwareMirror, []int{0, 1}, false},
		{SingleDisk, nil, true},
		{SingleDisk, []int{0}, false},
		{MirrorPlusParityStripe, []int{0}, true},
		{MirrorPlusParityStripe, []int{0, 1}, false},
		{MirrorPlusParityStripe, []int{2}, true},
		{MirrorPlusParityStripe, []int{2, 3}, false},
		{MirrorPlusParityStripe, []int{0, 2}, true},
		{MirrorPlusParityStripe, []int{0, 2, 3}, false},
		{MirrorPlusParityStripe, []int{99}, true}, // out-of-range ignored
	}
	for _, c := range cases {
		if got := c.layout.SurvivesDiskFailures(c.failed); got != c.want {
			t.Errorf("%s.Survives(%v) = %v, want %v", c.layout, c.failed, got, c.want)
		}
	}
}

func TestFleetAddAndLookup(t *testing.T) {
	f := NewFleet()
	h := &Host{ID: "01", Spec: specA, Location: Tent, InstalledAt: InstallStart}
	if err := f.Add(h); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(&Host{ID: "01", Spec: specA}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := f.Add(&Host{Spec: specA}); err == nil {
		t.Error("empty ID accepted")
	}
	bad := specA
	bad.CPUShare = 0
	if err := f.Add(&Host{ID: "02", Spec: bad}); err == nil {
		t.Error("invalid spec accepted")
	}
	got, ok := f.Get("01")
	if !ok || got != h {
		t.Error("Get lost the host")
	}
	if _, ok := f.Get("nope"); ok {
		t.Error("Get invented a host")
	}
}

// checkReference validates the reference fleet against the paper's §3.4
// head counts: ten vendor-A, four vendor-B, four vendor-C machines across
// both sites plus the replacement, nine hosts per site initially.
func checkReference(f *Fleet) error {
	sums := summarize(f)
	want := map[Vendor][2]int{ // {tent including replacement, basement}
		VendorA: {5, 5},
		VendorB: {3, 2}, // 14, 15, 19 on the terrace over the whole run
		VendorC: {2, 2},
	}
	for _, s := range sums {
		w := want[s.Vendor]
		if s.Tent != w[0] || s.Basement != w[1] {
			return fmt.Errorf("hardware: vendor %s counts tent=%d basement=%d, want %d/%d",
				s.Vendor, s.Tent, s.Basement, w[0], w[1])
		}
	}
	return nil
}

func TestReferenceFleetCounts(t *testing.T) {
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReference(f); err != nil {
		t.Fatal(err)
	}
	all := f.All()
	if len(all) != 19 {
		t.Errorf("fleet size %d, want 19 (18 initial + replacement)", len(all))
	}
	tent := f.At(Tent)
	if len(tent) != 10 {
		t.Errorf("tent hosts %d, want 10 (9 + replacement)", len(tent))
	}
	base := f.At(Basement)
	if len(base) != 9 {
		t.Errorf("basement hosts %d, want 9", len(base))
	}
}

func TestReferenceFleetPairing(t *testing.T) {
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range f.At(Tent) {
		if h.ReplacementFor != "" {
			if h.TwinID != "" {
				t.Errorf("replacement %s should have no twin", h.ID)
			}
			continue
		}
		twin, ok := f.Get(h.TwinID)
		if !ok {
			t.Errorf("host %s twin %q missing", h.ID, h.TwinID)
			continue
		}
		if twin.Spec.Vendor != h.Spec.Vendor {
			t.Errorf("twin pair %s/%s vendors differ", h.ID, twin.ID)
		}
		if !twin.InstalledAt.Equal(h.InstalledAt) {
			t.Errorf("twin pair %s/%s installed at different times", h.ID, twin.ID)
		}
		if twin.Location != Basement {
			t.Errorf("twin %s not in basement", twin.ID)
		}
		if twin.TwinID != h.ID {
			t.Errorf("twin back-reference %q, want %q", twin.TwinID, h.ID)
		}
	}
}

func TestReferenceFleetReplacement(t *testing.T) {
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	h19, ok := f.Get("19")
	if !ok {
		t.Fatal("host 19 missing")
	}
	if h19.ReplacementFor != "15" {
		t.Errorf("host 19 replaces %q, want 15", h19.ReplacementFor)
	}
	if h19.Spec.Vendor != VendorB {
		t.Errorf("replacement vendor %s, want B (same series)", h19.Spec.Vendor)
	}
	want := time.Date(2010, time.March, 17, 12, 0, 0, 0, time.UTC)
	if !h19.InstalledAt.Equal(want) {
		t.Errorf("host 19 installed %v, want Mar 17 (Fig. 2)", h19.InstalledAt)
	}
}

func TestReferenceTimelineOrdering(t *testing.T) {
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	// §4: "The last of the hosts was installed March 13th" (host 18);
	// the replacement came later, Mar 17.
	h18, _ := f.Get("18")
	if h18.InstalledAt.Day() != 13 || h18.InstalledAt.Month() != time.March {
		t.Errorf("host 18 installed %v, want Mar 13", h18.InstalledAt)
	}
	for _, h := range f.All() {
		if h.InstalledAt.Before(InstallStart) {
			t.Errorf("host %s installed before the normal phase start", h.ID)
		}
		if h.InstalledAt.After(InstallEnd) {
			t.Errorf("host %s installed after the reporting horizon", h.ID)
		}
	}
}

func TestInstalledAtFiltersByTime(t *testing.T) {
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	feb20 := time.Date(2010, time.February, 20, 0, 0, 0, 0, time.UTC)
	early := f.InstalledAt(Tent, feb20)
	if len(early) != 2 {
		t.Errorf("%d tent hosts by Feb 20, want 2 (01, 02)", len(early))
	}
	all := f.InstalledAt(Tent, InstallEnd)
	if len(all) != 10 {
		t.Errorf("%d tent hosts by Mar 26, want 10", len(all))
	}
}

func TestHost15IsVendorB(t *testing.T) {
	// §4.2.1: "Host #15 from vendor B encountered a system failure".
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	h15, ok := f.Get("15")
	if !ok {
		t.Fatal("host 15 missing")
	}
	if h15.Spec.Vendor != VendorB {
		t.Errorf("host 15 vendor %s, want B", h15.Spec.Vendor)
	}
	if !h15.Spec.KnownDefective {
		t.Error("vendor B series must be flagged known-defective")
	}
}

func TestECCAssignment(t *testing.T) {
	// §4.2.2: the three bad-hash hosts all had non-ECC memory. In the
	// reference fleet only vendor C servers have ECC.
	for v, wantECC := range map[Vendor]bool{VendorA: false, VendorB: false, VendorC: true} {
		s, _ := SpecFor(v)
		if s.ECC != wantECC {
			t.Errorf("vendor %s ECC = %v, want %v", v, s.ECC, wantECC)
		}
	}
}

func TestTotalPowerTentScale(t *testing.T) {
	// The full tent group at a light duty cycle should dissipate on the
	// order of 1–2 kW — the load the thermal calibration assumes.
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	// Host 15 leaves when 19 arrives; count 9 concurrent hosts.
	hosts := f.InstalledAt(Tent, InstallEnd)
	var active []*Host
	for _, h := range hosts {
		if h.ID == "15" {
			continue
		}
		active = append(active, h)
	}
	p := TotalPower(active, 0.3)
	if p < 800 || p > 2200 {
		t.Errorf("tent group power %v, want ≈1-2 kW", p)
	}
}

func TestPrototypeHost(t *testing.T) {
	p := ReferencePrototype()
	if p.Location != Terrace {
		t.Errorf("prototype location %s", p.Location)
	}
	if p.Spec.FormFactor != GenericPC {
		t.Errorf("prototype form factor %s", p.Spec.FormFactor)
	}
	if !p.InstalledAt.Equal(InstallPrototype) {
		t.Errorf("prototype installed %v", p.InstalledAt)
	}
}

func TestReferenceSwitches(t *testing.T) {
	sw := ReferenceSwitches()
	if len(sw) != 3 {
		t.Fatalf("switches %d, want 3 (2 deployed + spare)", len(sw))
	}
	for _, s := range sw {
		if !s.Whining {
			t.Errorf("switch %s not whining; §4.2.1 says all three shared the defect", s.ID)
		}
		if s.Ports != 8 {
			t.Errorf("switch %s has %d ports, want 8", s.ID, s.Ports)
		}
	}
}

func TestSummarize(t *testing.T) {
	f, err := ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	sums := summarize(f)
	if len(sums) != 3 {
		t.Fatalf("summaries %d", len(sums))
	}
	total := 0
	for _, s := range sums {
		total += s.Tent + s.Basement
	}
	if total != 19 {
		t.Errorf("summary total %d, want 19", total)
	}
}

func BenchmarkReferenceFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceFleet(); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetSummary is a per-vendor head count.
type fleetSummary struct {
	Vendor   Vendor
	Tent     int
	Basement int
}

// summarize counts hosts per vendor and location.
func summarize(f *Fleet) []fleetSummary {
	counts := map[Vendor]*fleetSummary{}
	for _, v := range []Vendor{VendorA, VendorB, VendorC} {
		counts[v] = &fleetSummary{Vendor: v}
	}
	for _, h := range f.All() {
		c, ok := counts[h.Spec.Vendor]
		if !ok {
			continue
		}
		switch h.Location {
		case Tent:
			c.Tent++
		case Basement:
			c.Basement++
		}
	}
	out := make([]fleetSummary, 0, 3)
	for _, v := range []Vendor{VendorA, VendorB, VendorC} {
		out = append(out, *counts[v])
	}
	return out
}
