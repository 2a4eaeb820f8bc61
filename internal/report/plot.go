// Package report renders frostlab results as the paper's figures and
// tables: ASCII time-series plots for Figs. 3 and 4, the Fig. 2
// installation timeline, the tent schematic of Fig. 1, and aligned text
// tables for the failure, wrong-hash, memory-model, PUE and economizer
// numbers. Everything renders to plain strings so the same output works in
// a terminal, a log file, or EXPERIMENTS.md.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"frostlab/internal/timeseries"
)

// Every plot shares one time axis of plotWidth columns; the row counts
// and the Gantt width are fixed the same way, because no figure varies
// them.
const (
	plotWidth   = 100 // columns of every plot's time axis
	plotHeight  = 20  // rows of Plot's value axis
	trackHeight = 14  // rows of DualTrack's value track
	bandHeight  = 5   // rows of DualTrack's 0..1 band track
	ganttWidth  = 72  // columns of Gantt's bars
	stamp       = "Jan 02 15:04"
	axisPad     = "         " // left of the frame: a 7-rune label and " |"
)

// Marker labels an instant on a plot's time axis, like the R/I/B/F letters
// under the paper's Fig. 3.
type Marker struct {
	At    time.Time
	Label string
}

// PlotConfig shapes an ASCII plot.
type PlotConfig struct {
	// YLabel names the value axis (e.g. "°C").
	YLabel string
	// Markers are drawn beneath the time axis.
	Markers []Marker
}

// frame maps instants to the columns and values to the rows of a plot.
type frame struct {
	tMin, tMax time.Time
	span       time.Duration
	vMin, vMax float64
}

// newFrame spans the instants of every series in timed and the values of
// every series in valued; ok is false when every timed series is empty.
func newFrame(timed, valued []*timeseries.Series) (f frame, ok bool) {
	for _, s := range timed {
		if s.Len() == 0 {
			continue
		}
		first, _ := s.First()
		last, _ := s.Last()
		if !ok || first.At.Before(f.tMin) {
			f.tMin = first.At
		}
		if !ok || last.At.After(f.tMax) {
			f.tMax = last.At
		}
		ok = true
	}
	f.span = f.tMax.Sub(f.tMin)
	if f.span <= 0 {
		f.span = time.Second
	}
	f.vMin, f.vMax = math.Inf(1), math.Inf(-1)
	for _, s := range valued {
		for _, p := range s.Points() {
			if p.Value < f.vMin {
				f.vMin = p.Value
			}
			if p.Value > f.vMax {
				f.vMax = p.Value
			}
		}
	}
	if f.vMax == f.vMin {
		f.vMax = f.vMin + 1
	}
	return f, ok
}

func (f frame) col(at time.Time) int {
	return clampIndex(int(float64(at.Sub(f.tMin))/float64(f.span)*float64(plotWidth-1)), plotWidth)
}

func (f frame) row(v float64, height int) int {
	return clampIndex(int((f.vMax-v)/(f.vMax-f.vMin)*float64(height-1)), height)
}

func clampIndex(i, n int) int {
	return max(0, min(i, n-1))
}

// blankRows returns height rows of plotWidth spaces.
func blankRows(height int) [][]rune {
	rows := make([][]rune, height)
	for i := range rows {
		rows[i] = []rune(strings.Repeat(" ", plotWidth))
	}
	return rows
}

// draw plots every point of s into rows with glyph.
func (f frame) draw(rows [][]rune, s *timeseries.Series, glyph rune) {
	for _, p := range s.Points() {
		rows[f.row(p.Value, len(rows))][f.col(p.At)] = glyph
	}
}

// writeTrack writes rows behind a y axis labelled top, mid and bottom at
// its first, middle and last row, closed by the x-axis rule.
func writeTrack(b *strings.Builder, rows [][]rune, top, mid, bottom string) {
	for i, line := range rows {
		label := ""
		switch i {
		case 0:
			label = top
		case len(rows) / 2:
			label = mid
		case len(rows) - 1:
			label = bottom
		}
		fmt.Fprintf(b, "%7s |%s\n", label, string(line))
	}
	b.WriteString(strings.Repeat(" ", 7) + " +" + strings.Repeat("-", plotWidth) + "\n")
}

func (f frame) valueLabels() (top, mid, bottom string) {
	return fmt.Sprintf("%.1f", f.vMax), fmt.Sprintf("%.1f", (f.vMax+f.vMin)/2), fmt.Sprintf("%.1f", f.vMin)
}

// markLine writes each in-range marker's label from its column; placed
// reports whether any marker fell inside the frame.
func (f frame) markLine(markers []Marker) (line string, placed bool) {
	marks := []rune(strings.Repeat(" ", plotWidth))
	for _, m := range markers {
		if m.At.Before(f.tMin) || m.At.After(f.tMax) || len(m.Label) == 0 {
			continue
		}
		c := f.col(m.At)
		for j, r := range m.Label {
			if c+j < plotWidth {
				marks[c+j] = r
			}
		}
		placed = true
	}
	return axisPad + string(marks), placed
}

// timeAxis is the start and end stamps under the frame.
func (f frame) timeAxis() string {
	return axisPad + fmt.Sprintf("%-*s%s", plotWidth-len(stamp)+2, f.tMin.Format(stamp), f.tMax.Format(stamp)) + "\n"
}

// legend joins the series entries and appends the unit when there is one.
func legend(entries []string, unit string) string {
	s := "  " + strings.Join(entries, "   ")
	if unit != "" {
		s += "   [" + unit + "]"
	}
	return s + "\n"
}

// Plot renders one or more series on a shared time/value grid. Each series
// draws with its own rune; a legend line maps runes to series names. Gaps
// (like the missing early Lascar data) simply have no glyphs.
func Plot(cfg PlotConfig, series ...*timeseries.Series) (string, error) {
	if len(series) == 0 {
		return "", fmt.Errorf("report: no series to plot")
	}
	f, ok := newFrame(series, series)
	if !ok {
		return "", fmt.Errorf("report: all series empty")
	}
	glyphs := []rune{'*', 'o', '+', 'x', '#', '@'}
	rows := blankRows(plotHeight)
	entries := make([]string, len(series))
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		f.draw(rows, s, g)
		entries[si] = fmt.Sprintf("%c %s", g, s.Name())
	}

	var b strings.Builder
	top, mid, bottom := f.valueLabels()
	writeTrack(&b, rows, top, mid, bottom)
	if len(cfg.Markers) > 0 {
		line, _ := f.markLine(cfg.Markers)
		b.WriteString(line + "\n")
	}
	b.WriteString(f.timeAxis())
	midStamp := f.tMin.Add(f.span / 2).Format(stamp)
	b.WriteString(strings.Repeat(" ", plotWidth/2-len(midStamp)/2+9) + midStamp + "\n")
	b.WriteString(legend(entries, cfg.YLabel))
	return b.String(), nil
}

// Table renders rows as an aligned text table with a header rule.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len([]rune(h))
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Gantt renders a Fig. 2-style installation timeline: one row per subject,
// a bar from its start to the horizon, and date ticks.
func Gantt(start, end time.Time, rows []GanttRow) (string, error) {
	const width = ganttWidth
	if !end.After(start) {
		return "", fmt.Errorf("report: gantt window inverted")
	}
	sorted := append([]GanttRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].From.Equal(sorted[j].From) {
			return sorted[i].Label < sorted[j].Label
		}
		return sorted[i].From.Before(sorted[j].From)
	})
	span := float64(end.Sub(start))
	col := func(at time.Time) int {
		return clampIndex(int(float64(at.Sub(start))/span*float64(width-1)), width)
	}
	var b strings.Builder
	for _, r := range sorted {
		if r.From.After(end) {
			continue
		}
		line := []rune(strings.Repeat(" ", width))
		from := col(r.From)
		to := width - 1
		if !r.To.IsZero() && r.To.Before(end) {
			to = col(r.To)
		}
		for c := from; c <= to && c < width; c++ {
			line[c] = '='
		}
		line[from] = '|'
		if to > from && !r.To.IsZero() && r.To.Before(end) {
			line[to] = '|'
		}
		fmt.Fprintf(&b, "%-6s %s\n", r.Label, string(line))
	}
	// Date ticks: start, end, plus the 1st of each month inside.
	ticks := []rune(strings.Repeat(" ", width))
	stampAt := func(at time.Time) {
		c := col(at)
		for j, r := range at.Format("Jan 02") {
			if c+j < width {
				ticks[c+j] = r
			}
		}
	}
	stampAt(start)
	stampAt(end.Add(-6 * 24 * time.Hour)) // keep the label inside the frame
	fmt.Fprintf(&b, "%-6s %s\n", "", string(ticks))
	return b.String(), nil
}

// GanttRow is one bar of a Gantt chart. A zero To runs to the horizon.
type GanttRow struct {
	Label    string
	From, To time.Time
}
