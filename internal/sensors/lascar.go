package sensors

import (
	"fmt"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

// The Lascar EL-USB-2-LCD data logger the paper used inside the tent
// (§3.3): its datasheet error bounds, ±0.5 °C, ±3.0 %RH typical; ±2 °C,
// ±6.0 %RH maximum, and its sampling cadence.
const (
	lascarTempTypical units.Celsius     = 0.5
	lascarTempMax     units.Celsius     = 2
	lascarRHTypical   units.RelHumidity = 3
	lascarInterval                      = 5 * time.Minute
)

// Environment is the air the logger sits in; satisfied by *thermal.Tent,
// *thermal.Basement and *thermal.PrototypeBoxes.
type Environment interface {
	Air() (units.Celsius, units.RelHumidity)
}

// Lascar emulates the data logger. It samples the environment it sits in
// at a fixed interval, applying per-unit calibration offset plus read
// noise, both within the datasheet bounds. A Readout models the manual
// USB readout trip: the logger is carried indoors, records a few indoor
// samples (the outliers the paper removed from its graphs), and is brought
// back.
type Lascar struct {
	// noiseT and noiseRH are the read-noise streams "lascar/noise_t" and
	// "lascar/noise_rh".
	noiseT, noiseRH *simkernel.Stream
	env             Environment

	// ArrivesAt models the unit's delayed delivery: samples before this
	// instant are never taken (the missing early data of Fig. 3/4).
	arrivesAt time.Time

	calTemp units.Celsius     // per-unit calibration offset
	calRH   units.RelHumidity // per-unit calibration offset

	indoorUntil time.Time

	Temp *timeseries.Series
	RH   *timeseries.Series
}

// IndoorConditions is what the logger records while carried to the office
// for readout.
var IndoorConditions = struct {
	Temp units.Celsius
	RH   units.RelHumidity
}{Temp: 21.5, RH: 30}

// NewLascar returns a logger sampling env every five minutes, delivered
// (and deployed) at arrivesAt. The per-unit calibration offsets are drawn
// once, uniformly within the typical datasheet bounds.
func NewLascar(rng *simkernel.RNG, env Environment, arrivesAt time.Time) (*Lascar, error) {
	if env == nil {
		return nil, fmt.Errorf("sensors: lascar needs an environment")
	}
	return &Lascar{
		noiseT:    rng.Stream("lascar/noise_t"),
		noiseRH:   rng.Stream("lascar/noise_rh"),
		env:       env,
		arrivesAt: arrivesAt,
		calTemp:   units.Celsius(rng.Stream("lascar/cal_t").Uniform(-float64(lascarTempTypical), float64(lascarTempTypical))),
		calRH:     units.RelHumidity(rng.Stream("lascar/cal_rh").Uniform(-float64(lascarRHTypical), float64(lascarRHTypical))),
		Temp:      timeseries.New("tent_inside_temp", "°C"),
		RH:        timeseries.New("tent_inside_rh", "%RH"),
	}, nil
}

// Install registers the logger's sampling task on the scheduler. Sampling
// starts at the later of start and the delivery date.
func (l *Lascar) Install(sched *simkernel.Scheduler, start time.Time) error {
	if start.Before(l.arrivesAt) {
		start = l.arrivesAt
	}
	_, err := sched.Periodic(start, lascarInterval, nil, l.Sample)
	return err
}

// BeginReadout marks the logger as carried indoors for USB readout until
// the given instant. Samples taken in between record office air — the
// outliers §3.3 says were removed from the graphs.
func (l *Lascar) BeginReadout(until time.Time) { l.indoorUntil = until }

// Sample takes one reading at the given simulated instant.
func (l *Lascar) Sample(now time.Time) {
	if now.Before(l.arrivesAt) {
		return
	}
	var temp units.Celsius
	var rh units.RelHumidity
	if now.Before(l.indoorUntil) {
		temp, rh = IndoorConditions.Temp, IndoorConditions.RH
	} else {
		temp, rh = l.env.Air()
	}
	// Read noise: a third of the typical bound as 1-sigma keeps ~99.7% of
	// reads within datasheet-typical error.
	temp += l.calTemp + units.Celsius(l.noiseT.Normal(0, float64(lascarTempTypical)/3))
	rh = (rh + l.calRH + units.RelHumidity(l.noiseRH.Normal(0, float64(lascarRHTypical)/3))).Clamp()
	_ = l.Temp.Append(now, float64(temp))
	_ = l.RH.Append(now, float64(rh))
}

// CleanedSeries returns the logger's temperature and humidity records with
// readout outliers removed, the way the paper prepared Figs. 3 and 4.
func (l *Lascar) CleanedSeries() (temp, rh *timeseries.Series) {
	t, _ := l.Temp.RemoveOutliers(6, 4)
	h, _ := l.RH.RemoveOutliers(6, 4)
	return t, h
}
