package sensors

import (
	"errors"
	"math"
	"testing"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

// susceptibleChip returns a chip guaranteed susceptible by construction.
func susceptibleChip(t *testing.T) *Chip {
	t.Helper()
	rng := simkernel.NewRNG("chips")
	c := NewChip(rng, "01", 1)
	if !c.susceptible {
		t.Fatal("susceptibility 1 produced non-susceptible chip")
	}
	return c
}

func TestChipHealthyReads(t *testing.T) {
	c := susceptibleChip(t)
	var maxErr float64
	for i := 0; i < 500; i++ {
		got, err := c.Read(-4)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(float64(got + 4)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 2.5 {
		t.Errorf("healthy chip error up to %.2f°C, want small noise", maxErr)
	}
	if maxErr == 0 {
		t.Error("chip reads are noiseless; expected sensor noise")
	}
}

func TestChipGlitchStateMachine(t *testing.T) {
	// Reproduce §4.2.1 end to end: cold exposure -> −111 °C readings ->
	// redetect kills the chip -> warm reboot revives it.
	c := susceptibleChip(t)

	// Sub-threshold exposure: not enough yet.
	c.Observe(chipGlitchAfter/2, -10)
	if c.State() != ChipHealthy {
		t.Fatalf("state %v after half exposure, want healthy", c.State())
	}
	// Warm operation must not accumulate.
	c.Observe(chipGlitchAfter*2, 20)
	if c.State() != ChipHealthy {
		t.Fatalf("warm operation glitched the chip")
	}
	// Finish the cold exposure.
	c.Observe(chipGlitchAfter/2, -10)
	if c.State() != ChipGlitching {
		t.Fatalf("state %v after full exposure, want glitching", c.State())
	}
	got, err := c.Read(-4)
	if err != nil {
		t.Fatal(err)
	}
	if got != BogusReading {
		t.Errorf("glitching chip read %v, want %v", got, BogusReading)
	}
	// "we tried to redetect the sensor chip ... the opposite resulted"
	c.Redetect()
	if c.State() != ChipUndetected {
		t.Fatalf("state %v after redetect, want undetected", c.State())
	}
	if _, err := c.Read(-4); !errors.Is(err, ErrChipNotDetected) {
		t.Errorf("undetected chip read error %v", err)
	}
	// "we risked a warm system reboot, which caused the sensor chip to
	// work again"
	c.WarmReboot()
	if c.State() != ChipHealthy {
		t.Fatalf("state %v after warm reboot, want healthy", c.State())
	}
	if _, err := c.Read(-4); err != nil {
		t.Errorf("revived chip read failed: %v", err)
	}
}

func TestChipNonSusceptibleNeverGlitches(t *testing.T) {
	rng := simkernel.NewRNG("never")
	c := NewChip(rng, "02", 0)
	if c.susceptible {
		t.Fatal("susceptibility 0 produced susceptible chip")
	}
	c.Observe(1000*time.Hour, -30)
	if c.State() != ChipHealthy {
		t.Errorf("non-susceptible chip glitched")
	}
}

func TestChipRedetectHarmlessWhenHealthy(t *testing.T) {
	c := susceptibleChip(t)
	c.Redetect()
	if c.State() != ChipHealthy {
		t.Error("redetect broke a healthy chip")
	}
}

func TestChipStateString(t *testing.T) {
	if ChipHealthy.String() != "healthy" || ChipGlitching.String() != "glitching" || ChipUndetected.String() != "undetected" {
		t.Error("state names wrong")
	}
	if ChipState(9).String() == "" {
		t.Error("unknown state unformatted")
	}
}

type fixedEnv struct {
	temp units.Celsius
	rh   units.RelHumidity
}

func (f fixedEnv) Air() (units.Celsius, units.RelHumidity) { return f.temp, f.rh }

func TestLascarSamplesWithinDatasheet(t *testing.T) {
	rng := simkernel.NewRNG("lascar1")
	env := fixedEnv{temp: -8, rh: 78}
	l, err := NewLascar(rng, env, t0)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkernel.NewScheduler(t0)
	if err := l.Install(sched, t0); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(t0.Add(24 * time.Hour))
	if l.Temp.Len() < 280 {
		t.Fatalf("only %d samples in 24h at 5min", l.Temp.Len())
	}
	sum, err := l.Temp.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean-(-8)) > float64(lascarTempTypical) {
		t.Errorf("mean %v beyond typical datasheet error of true -8", sum.Mean)
	}
	if sum.Min < -8-float64(lascarTempMax) || sum.Max > -8+float64(lascarTempMax) {
		t.Errorf("readings [%v, %v] beyond max datasheet error", sum.Min, sum.Max)
	}
	rsum, err := l.RH.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rsum.Mean-78) > float64(lascarRHTypical) {
		t.Errorf("RH mean %v beyond typical datasheet error of 78", rsum.Mean)
	}
}

func TestLascarDelayedArrival(t *testing.T) {
	// The logger "arrived late": no samples may exist before the delivery
	// date, producing the leading gap of Figs. 3/4.
	rng := simkernel.NewRNG("lascar2")
	arrive := t0.AddDate(0, 0, 14)
	l, err := NewLascar(rng, fixedEnv{temp: 0, rh: 50}, arrive)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkernel.NewScheduler(t0)
	if err := l.Install(sched, t0); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(arrive.Add(time.Hour))
	first, err := l.Temp.First()
	if err != nil {
		t.Fatal("no samples after arrival")
	}
	if first.At.Before(arrive) {
		t.Errorf("sample at %v before delivery %v", first.At, arrive)
	}
}

func TestLascarReadoutInsertsOutliers(t *testing.T) {
	rng := simkernel.NewRNG("lascar3")
	l, err := NewLascar(rng, fixedEnv{temp: -9, rh: 80}, t0)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkernel.NewScheduler(t0)
	if err := l.Install(sched, t0); err != nil {
		t.Fatal(err)
	}
	// Carry the logger indoors for 20 minutes mid-run.
	if _, err := sched.At(t0.Add(6*time.Hour), func(now time.Time) {
		l.BeginReadout(now.Add(20 * time.Minute))
	}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(t0.Add(12 * time.Hour))
	sum, err := l.Temp.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Max < 15 {
		t.Fatalf("max %v: no indoor outliers recorded", sum.Max)
	}
	// The paper removed these outliers from the graphs; CleanedSeries must
	// drop them.
	clean, _ := l.CleanedSeries()
	csum, err := clean.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if csum.Max > 0 {
		t.Errorf("cleaned series still has max %v; outliers not removed", csum.Max)
	}
	if clean.Len() >= l.Temp.Len() {
		t.Errorf("cleaning removed nothing: %d vs %d", clean.Len(), l.Temp.Len())
	}
}

func TestLascarValidation(t *testing.T) {
	if lascarInterval <= 0 {
		t.Errorf("lascar interval %v must be positive", lascarInterval)
	}
	if _, err := NewLascar(simkernel.NewRNG("x"), nil, t0); err == nil {
		t.Error("nil environment accepted")
	}
}

func TestDiskHealthyPassesLongTest(t *testing.T) {
	rng := simkernel.NewRNG("disks")
	d := NewDisk(rng, "01", 0)
	for i := 0; i < 90*24; i++ { // three months of hours at benign temp
		d.Observe(time.Hour, 30)
	}
	if !d.LongTest() {
		t.Error("healthy drive failed its long test; §4.2.2 says they passed")
	}
	hours, err := d.Read(AttrPowerOnHours)
	if err != nil {
		t.Fatal(err)
	}
	if hours != 90*24 {
		t.Errorf("power-on hours %d, want %d", hours, 90*24)
	}
}

func TestDiskHotRunsDegradeFaster(t *testing.T) {
	// Expected reallocation rate is temperature-dependent; compare many
	// drive-years at benign vs hot temperature.
	rng := simkernel.NewRNG("hotdisks")
	benign, hot := 0, 0
	for i := 0; i < 60; i++ {
		b := NewDisk(rng, "b", i)
		h := NewDisk(rng, "h", i)
		for j := 0; j < 365*24; j++ {
			b.Observe(time.Hour, 30)
			h.Observe(time.Hour, 60)
		}
		rb, _ := b.Read(AttrReallocatedSectors)
		rh, _ := h.Read(AttrReallocatedSectors)
		benign += rb
		hot += rh
	}
	if hot <= benign {
		t.Errorf("hot drives reallocated %d sectors vs %d benign; want more", hot, benign)
	}
}

func TestDiskFail(t *testing.T) {
	rng := simkernel.NewRNG("fail")
	d := NewDisk(rng, "01", 1)
	d.Fail()
	if !d.Failed() {
		t.Error("Fail did not stick")
	}
	if d.LongTest() {
		t.Error("failed drive passed long test")
	}
	before, _ := d.Read(AttrPowerOnHours)
	d.Observe(time.Hour, 30)
	after, _ := d.Read(AttrPowerOnHours)
	if after != before {
		t.Error("dead drive accumulated power-on hours")
	}
}

func TestDiskUnknownAttribute(t *testing.T) {
	rng := simkernel.NewRNG("attr")
	d := NewDisk(rng, "01", 0)
	if _, err := d.Read(SMARTAttr(1)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestDiskTemperatureAttribute(t *testing.T) {
	rng := simkernel.NewRNG("temp")
	d := NewDisk(rng, "01", 0)
	d.Observe(time.Minute, -7)
	got, err := d.Read(AttrTemperature)
	if err != nil {
		t.Fatal(err)
	}
	if got != -7 {
		t.Errorf("temperature attribute %d, want -7", got)
	}
}

func TestPowerMeterAccuracy(t *testing.T) {
	rng := simkernel.NewRNG("meter")
	m := NewPowerMeter(rng, "tent")
	var worst float64
	for i := 0; i < 1000; i++ {
		r := m.Observe(time.Minute, 1400)
		if rel := math.Abs(float64(r)-1400) / 1400; rel > worst {
			worst = rel
		}
	}
	if worst > 0.1 {
		t.Errorf("meter error up to %.1f%%, want a few percent", worst*100)
	}
	if worst == 0 {
		t.Error("meter is noiseless")
	}
	// Energy integrates the truth: 1000 minutes at 1.4 kW = 23.33 kWh.
	want := 1400.0 / 1000 * (1000.0 / 60)
	if got := float64(m.Energy()); math.Abs(got-want) > 0.01 {
		t.Errorf("energy %v kWh, want %v", got, want)
	}
	if m.Last() == 0 {
		t.Error("Last not recorded")
	}
}

func BenchmarkChipRead(b *testing.B) {
	rng := simkernel.NewRNG("bench")
	c := NewChip(rng, "01", 1)
	for i := 0; i < b.N; i++ {
		_, _ = c.Read(-4)
	}
}

func BenchmarkLascarSample(b *testing.B) {
	rng := simkernel.NewRNG("bench")
	l, err := NewLascar(rng, fixedEnv{temp: -9, rh: 80}, t0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		l.Sample(t0.Add(time.Duration(i) * 5 * time.Minute))
	}
}

func BenchmarkDiskObserve(b *testing.B) {
	rng := simkernel.NewRNG("bench")
	d := NewDisk(rng, "01", 0)
	for i := 0; i < b.N; i++ {
		d.Observe(time.Minute, 25)
	}
}
