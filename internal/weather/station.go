package weather

import (
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

// Station samples a weather model at a fixed interval and records the
// readings as time series, the way the SMEAR III station recorded the
// paper's outside data. Station adds small instrument noise so recorded
// values differ from the model truth, like any real sensor.
type Station struct {
	model    Model
	interval time.Duration
	// tempNoise, rhNoise and windNoise are the instrument-noise streams
	// "station_temp", "station_rh" and "station_wind".
	tempNoise, rhNoise, windNoise *simkernel.Stream

	Temp *timeseries.Series
	RH   *timeseries.Series
	Wind *timeseries.Series
	Irr  *timeseries.Series
	Snow *timeseries.Series
}

// StationNoise holds the 1-sigma instrument noise of the station. SMEAR III
// is research-grade, so defaults are tight.
type StationNoise struct {
	TempSigma float64 // °C
	RHSigma   float64 // %RH
	WindSigma float64 // m/s
}

// DefaultStationNoise matches a research-grade met station.
var DefaultStationNoise = StationNoise{TempSigma: 0.1, RHSigma: 1.0, WindSigma: 0.2}

// NewStation returns a station sampling the model every interval.
func NewStation(model Model, rng *simkernel.RNG, interval time.Duration) *Station {
	return &Station{
		model:     model,
		interval:  interval,
		tempNoise: rng.Stream("station_temp"),
		rhNoise:   rng.Stream("station_rh"),
		windNoise: rng.Stream("station_wind"),
		Temp:      timeseries.New("outside_temp", "°C"),
		RH:        timeseries.New("outside_rh", "%RH"),
		Wind:      timeseries.New("wind", "m/s"),
		Irr:       timeseries.New("irradiance", "W/m²"),
		Snow:      timeseries.New("snowfall", "mm/h"),
	}
}

// Install registers the station's periodic sampling task on the scheduler,
// starting at the given time.
func (st *Station) Install(sched *simkernel.Scheduler, start time.Time) error {
	_, err := sched.Periodic(start, st.interval, nil, st.Sample)
	return err
}

// Sample takes one reading at the given simulated instant and appends it to
// the station's series.
func (st *Station) Sample(now time.Time) {
	c := st.model.At(now)
	noise := DefaultStationNoise
	temp := float64(c.Temp) + st.tempNoise.Normal(0, noise.TempSigma)
	rh := units.RelHumidity(float64(c.RH) + st.rhNoise.Normal(0, noise.RHSigma)).Clamp()
	wind := float64(c.Wind) + st.windNoise.Normal(0, noise.WindSigma)
	if wind < 0 {
		wind = 0
	}
	// Append errors are impossible here: the scheduler dispatches in time
	// order, so timestamps are monotone.
	_ = st.Temp.Append(now, temp)
	_ = st.RH.Append(now, float64(rh))
	_ = st.Wind.Append(now, wind)
	_ = st.Irr.Append(now, float64(c.Irradiance))
	_ = st.Snow.Append(now, c.SnowfallRate)
}
