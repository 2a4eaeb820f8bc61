package failure

import (
	"fmt"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
)

// Disk-level hard failures. The paper saw none in three months (§4.2.2:
// "the hard drives have passed their S.M.A.R.T. long test runs"), which is
// what the default hazard predicts — roughly a 2 % annualised failure rate
// means ~0.08 expected deaths across the fleet's ~35k disk-hours. The
// machinery still matters: vendor A's software mirror, vendor B's single
// disk and vendor C's mirror+parity array respond very differently when a
// drive does die, and hardware.StorageLayout.SurvivesDiskFailures encodes
// exactly that.

// DiskParams calibrates the disk hazard model.
type DiskParams struct {
	// BasePerHour is the healthy-drive hazard; 2.3e-6/h ≈ 2% AFR.
	BasePerHour float64
	// HotThreshold and HotPerDegree add hazard per °C above the
	// threshold (drives dislike heat far more than cold).
	HotThreshold units.Celsius
	HotPerDegree float64
	// ColdThreshold and ColdPerDegree add a mild penalty below the
	// threshold (spin-up stress in very cold oil).
	ColdThreshold units.Celsius
	ColdPerDegree float64
}

// DefaultDiskParams matches commodity 2005–2009 drives.
func DefaultDiskParams() DiskParams {
	return DiskParams{
		BasePerHour:   2.3e-6,
		HotThreshold:  45,
		HotPerDegree:  0.10,
		ColdThreshold: -10,
		ColdPerDegree: 0.03,
	}
}

// Validate checks the parameters.
func (p DiskParams) Validate() error {
	if p.BasePerHour < 0 || p.HotPerDegree < 0 || p.ColdPerDegree < 0 {
		return fmt.Errorf("failure: negative disk hazard parameters: %+v", p)
	}
	return nil
}

// HazardPerHour computes a drive's current hazard at the given platter
// temperature. Exported so the sharded scale engine can pool per-spec disk
// hazards without stepping drives through an Engine.
func (p DiskParams) HazardPerHour(temp units.Celsius) float64 {
	h := p.BasePerHour
	if temp > p.HotThreshold {
		h *= 1 + p.HotPerDegree*float64(temp-p.HotThreshold)
	}
	if temp < p.ColdThreshold {
		h *= 1 + p.ColdPerDegree*float64(p.ColdThreshold-temp)
	}
	return h
}

// Disk is a registered drive's handle: its validated hazard parameters
// and its failure stream.
type Disk struct {
	id     string
	params DiskParams
	stream *simkernel.Stream // "disk/<id>"
}

// RegisterDisk validates a drive's hazard parameters once and returns its
// handle. diskID should be unique per drive (e.g. "01/2").
func (e *Engine) RegisterDisk(diskID string, p DiskParams) (*Disk, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Disk{id: diskID, params: p, stream: e.rng.Stream("disk/" + diskID)}, nil
}

// StepDisk advances one registered drive by dt at the given platter
// temperature and returns a Hard failure event if the drive died.
func (e *Engine) StepDisk(now time.Time, dt time.Duration, d *Disk, temp units.Celsius) (*Event, error) {
	if d == nil {
		return nil, fmt.Errorf("failure: step of an unregistered disk")
	}
	if dt <= 0 {
		return nil, fmt.Errorf("failure: non-positive disk step %v", dt)
	}
	h := d.params.HazardPerHour(temp)
	pFail := 1 - expNeg(h*dt.Hours())
	if !d.stream.Bernoulli(pFail) {
		return nil, nil
	}
	ev := Event{
		At:        now,
		SubjectID: d.id,
		Component: DiskDrive,
		Kind:      Hard,
		Detail:    fmt.Sprintf("drive failure at %v (hazard %.2e/h)", temp, h),
	}
	e.log = append(e.log, ev)
	return &ev, nil
}
