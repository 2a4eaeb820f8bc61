package core

import (
	"fmt"
	"math"
	"time"

	"frostlab/internal/hardware"
	"frostlab/internal/sensors"
	"frostlab/internal/simkernel"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/weather"
	"frostlab/internal/workload"
)

// PrototypeResults reproduces the §3.1 weekend: a generic PC between two
// plastic boxes from Friday Feb 12 to Monday Feb 15, 2010.
type PrototypeResults struct {
	Start, End time.Time
	// OutsideMin and OutsideMean are the weekend's station statistics;
	// the paper reports −10.2 °C and −9.2 °C.
	OutsideMin, OutsideMean units.Celsius
	// CPUMin is the lowest lm-sensors CPU reading; the paper reports
	// "as low as −4 °C".
	CPUMin units.Celsius
	// Survived reports whether the machine ran the whole weekend without
	// a system failure.
	Survived bool
	// Cycles is how many synthetic load runs completed.
	Cycles uint64
	// OutsideTemp is the recorded outdoor series.
	OutsideTemp *timeseries.Series
	// CPUTemp is the lm-sensors record.
	CPUTemp *timeseries.Series
}

// prototypeSampleEvery is the weekend's station and lm-sensors cadence.
const prototypeSampleEvery = 10 * time.Minute

// RunPrototype executes the prototype phase on the seed's reference
// winter: from the Friday install to Monday Feb 15 09:00, at the normal
// phase's duty cycle.
func RunPrototype(seed string) (*PrototypeResults, error) {
	if seed == "" {
		return nil, fmt.Errorf("core: prototype needs a seed")
	}
	start := hardware.InstallPrototype
	end := time.Date(2010, time.February, 15, 9, 0, 0, 0, time.UTC)
	rng := simkernel.NewRNG(seed + "/prototype")
	wx := weather.ReferenceWinter0910(seed)
	host := hardware.ReferencePrototype()
	boxes := thermal.NewPrototypeBoxes()
	chip := sensors.NewChip(rng, host.ID, 0)
	sched := simkernel.NewScheduler(start)

	res := &PrototypeResults{
		Start:       start,
		End:         end,
		OutsideMin:  units.Celsius(math.Inf(1)),
		CPUMin:      units.Celsius(math.Inf(1)),
		Survived:    true,
		OutsideTemp: timeseries.New("outside_temp", "°C"),
		CPUTemp:     timeseries.New("proto_cpu", "°C"),
	}
	var sum float64
	var n int
	var tickErr error
	if _, err := sched.Periodic(start, prototypeSampleEvery, nil, func(now time.Time) {
		out := wx.At(now)
		boxes.Observe(out)
		intake, _ := boxes.Air()
		temps, err := thermal.SteadyState(intake,
			host.Spec.Power(dutyCycle), host.Spec.CPUPower(dutyCycle), host.Spec.Airflow)
		if err != nil {
			if tickErr == nil {
				tickErr = err
			}
			return
		}
		reading, err := chip.Read(temps.CPU)
		if err != nil {
			reading = temps.CPU
		}
		_ = res.OutsideTemp.Append(now, float64(out.Temp))
		_ = res.CPUTemp.Append(now, float64(reading))
		if out.Temp < res.OutsideMin {
			res.OutsideMin = out.Temp
		}
		if reading < res.CPUMin {
			res.CPUMin = reading
		}
		sum += float64(out.Temp)
		n++
	}); err != nil {
		return nil, err
	}
	// The synthetic load ran on the prototype too (S.M.A.R.T. and
	// lm-sensors were monitored through it, §3.1).
	fuzz := workload.StartFuzz(rng, host.ID)
	if _, err := sched.Periodic(start, workload.CyclePeriod, fuzz, func(time.Time) {
		res.Cycles++
	}); err != nil {
		return nil, err
	}
	sched.RunUntil(end)
	if tickErr != nil {
		return nil, tickErr
	}
	if n > 0 {
		res.OutsideMean = units.Celsius(sum / float64(n))
	}
	return res, nil
}
