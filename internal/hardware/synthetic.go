package hardware

import (
	"fmt"

	"frostlab/internal/simkernel"
)

// syntheticVendorPattern is the per-tent vendor multiset of a synthetic
// fleet: the paper's §3.4 nine-host mix (five A, two B, two C), cycled when
// a tent holds more or fewer than nine machines. Every tent of a fleet gets
// the same multiset, so tent envelopes share one power budget; the seed
// shuffles which slot within a tent holds which vendor.
var syntheticVendorPattern = []Vendor{
	VendorA, VendorA, VendorB, VendorC,
	VendorA, VendorA, VendorB, VendorC,
	VendorA,
}

// SyntheticFleet builds a scale fleet of tents × hostsPerTent machines, all
// located in tents and installed at the start of the normal phase, for
// 10k–100k-host runs of the sharded core engine. Host IDs are
// "t0001/h001"-style, so lexicographic fleet order keeps each tent's hosts
// contiguous. Vendor composition per tent is the paper's nine-host mix
// cycled to hostsPerTent and identical across tents (one shared envelope
// power budget); the seed deterministically shuffles vendor positions
// within each tent, which moves the weak-unit lottery across host IDs
// without changing any tent's composition.
func SyntheticFleet(tents, hostsPerTent int, seed string) (*Fleet, error) {
	if tents <= 0 || hostsPerTent <= 0 {
		return nil, fmt.Errorf("hardware: synthetic fleet needs positive tents (%d) and hosts per tent (%d)", tents, hostsPerTent)
	}
	fleet := simkernel.NewRNG(seed).Stream("fleet")
	f := NewFleet()
	tw, hw := digits(tents), digits(hostsPerTent)
	if tw < 4 {
		tw = 4
	}
	if hw < 3 {
		hw = 3
	}
	vendors := make([]Vendor, hostsPerTent)
	for ti := 0; ti < tents; ti++ {
		tentID := fmt.Sprintf("t%0*d", tw, ti+1)
		for i := range vendors {
			vendors[i] = syntheticVendorPattern[i%len(syntheticVendorPattern)]
		}
		// Seeded Fisher-Yates over the tent's vendor slots: a permutation
		// leaves the multiset (and the tent's total power) untouched. All
		// tents draw one shared stream in tent order — per-tent streams
		// would pay math/rand's seeding cost a thousand times over on a
		// 100k-host fleet.
		for i := len(vendors) - 1; i > 0; i-- {
			j := fleet.Pick(i + 1)
			vendors[i], vendors[j] = vendors[j], vendors[i]
		}
		for hi := 0; hi < hostsPerTent; hi++ {
			spec, err := SpecFor(vendors[hi])
			if err != nil {
				return nil, err
			}
			h := &Host{
				ID:          fmt.Sprintf("%s/h%0*d", tentID, hw, hi+1),
				Spec:        spec,
				Location:    Tent,
				InstalledAt: InstallStart,
				TentID:      tentID,
			}
			if err := f.Add(h); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// digits returns the decimal width of n (n > 0).
func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}
