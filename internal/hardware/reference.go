package hardware

import "time"

// The Fig. 2 installation timeline. The paper's x-axis marks Feb 12
// (first prototype), Feb 19 (start of testing), Feb 24/25, Mar 05, Mar 10,
// Mar 17 (replacement of machine #15) and Mar 26 (time of writing); §4 adds
// that "the last of the hosts was installed March 13th".
var (
	day = func(month time.Month, d int) time.Time {
		return time.Date(2010, month, d, 12, 0, 0, 0, time.UTC)
	}
	// InstallPrototype is the prototype weekend start (Friday Feb 12).
	InstallPrototype = time.Date(2010, time.February, 12, 16, 0, 0, 0, time.UTC)
	// InstallStart is the start of the normal phase (Friday Feb 19).
	InstallStart = day(time.February, 19)
	// InstallEnd marks "time of writing" (Mar 26): the paper's reporting
	// horizon, which the reproduction uses as the default run end.
	InstallEnd = day(time.March, 26)
)

// referenceInstall describes one tent host of the reference fleet.
type referenceInstall struct {
	id     string
	vendor Vendor
	at     time.Time
	// replaces, when set, marks the host as the replacement of another
	// (host 19 for host 15) — replacements have no basement twin.
	replaces string
}

// The tent hosts of Fig. 2 with vendor assignments consistent with §3.4:
// five vendor-A, two vendor-B and two vendor-C hosts in the tent (mirrored
// in the basement), ten machines on the terrace in total once host 19
// replaced host 15.
var referenceTimeline = []referenceInstall{
	{id: "01", vendor: VendorA, at: InstallStart},
	{id: "02", vendor: VendorA, at: InstallStart},
	{id: "03", vendor: VendorA, at: day(time.February, 24)},
	{id: "06", vendor: VendorA, at: day(time.February, 25)},
	{id: "10", vendor: VendorA, at: day(time.March, 5)},
	{id: "14", vendor: VendorB, at: day(time.March, 5)},
	{id: "15", vendor: VendorB, at: day(time.March, 5)}, // failed first on Mar 7 (§4.2.1)
	{id: "11", vendor: VendorC, at: day(time.March, 10)},
	{id: "18", vendor: VendorC, at: day(time.March, 13)},
	{id: "19", vendor: VendorB, at: day(time.March, 17), replaces: "15"},
}

// ReferenceFleet builds the paper's fleet: nine pairwise tent/basement
// couples (ten A, four B, four C machines in total), plus the host-19
// replacement installed March 17th. Basement twins carry a "c" prefix and
// install on the same day as their tent partner.
func ReferenceFleet() (*Fleet, error) {
	f := NewFleet()
	for _, ri := range referenceTimeline {
		spec, err := SpecFor(ri.vendor)
		if err != nil {
			return nil, err
		}
		tentHost := &Host{
			ID:             ri.id,
			Spec:           spec,
			Location:       Tent,
			InstalledAt:    ri.at,
			ReplacementFor: ri.replaces,
		}
		if ri.replaces == "" {
			tentHost.TwinID = "c" + ri.id
		}
		if err := f.Add(tentHost); err != nil {
			return nil, err
		}
		if ri.replaces != "" {
			continue // the replacement has no control twin
		}
		twin := &Host{
			ID:          "c" + ri.id,
			Spec:        spec,
			Location:    Basement,
			InstalledAt: ri.at,
			TwinID:      ri.id,
		}
		if err := f.Add(twin); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ReferencePrototype returns the generic PC run between plastic boxes over
// the Feb 12–15 prototype weekend.
func ReferencePrototype() *Host {
	return &Host{
		ID:          "proto",
		Spec:        PrototypeSpec(),
		Location:    Terrace,
		InstalledAt: InstallPrototype,
	}
}

// Switch is one of the 8-port network switches used to share connectivity
// in the tent. The paper's two switches had known "cosmetic errors, i.e.,
// an annoying whining sound", and §4.2.1 concludes their later failures
// were inherent to the individuals, not caused by the conditions.
type Switch struct {
	ID    string
	Ports int
	// Whining marks the cosmetic defect that §4.2.1 found predicts
	// failure regardless of environment.
	Whining bool
}

// ReferenceSwitches returns the tent's two deployed defective switches plus
// the identical spare that failed indoors during later testing.
func ReferenceSwitches() []Switch {
	return []Switch{
		{ID: "sw1", Ports: 8, Whining: true},
		{ID: "sw2", Ports: 8, Whining: true},
		{ID: "sw-spare", Ports: 8, Whining: true},
	}
}
