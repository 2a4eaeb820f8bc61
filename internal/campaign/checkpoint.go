package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"frostlab/internal/core"
)

// Checkpoints reuse internal/core's results serializer: every completed
// replicate is written as the same JSON a `frostctl -save` run produces,
// so checkpoint files are themselves inspectable artefacts (frostctl
// -load renders any of them). Writes go through a temp file and rename so
// an interrupt mid-write never leaves a half checkpoint that a resume
// would trust; unreadable files are simply re-run, and so is a file
// another campaign wrote under the same name (a different seed or
// horizon) — the directory is keyed by sweep point and replicate only.

// checkpointPath names a replicate's checkpoint file.
func (s *Spec) checkpointPath(pt point, rep int) string {
	return filepath.Join(s.CheckpointDir,
		fmt.Sprintf("%s-rep%04d.json", sanitizeLabel(pt.label), rep))
}

// sanitizeLabel maps a sweep-point label onto a safe filename stem.
func sanitizeLabel(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '=':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// saveCheckpoint persists a finished replicate. A failed write costs only
// resume for this replicate, never its statistics; runOne records it so
// the campaign summary can count it.
func (s *Spec) saveCheckpoint(pt point, rep int, r *core.Results) error {
	if s.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
		return err
	}
	path := s.checkpointPath(pt, rep)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := core.SaveResults(f, r); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Sync before the rename, so a crash cannot publish a checkpoint whose
	// chunks never all reached the disk.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Sync the directory too, so the rename itself survives a crash. The
	// rename has already published a complete checkpoint that a resume
	// reads, so a failed directory sync is not a failed write.
	if d, err := os.Open(s.CheckpointDir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// loadCheckpoint restores a replicate summary from a previous campaign,
// reporting whether a usable checkpoint existed: one that decodes and
// was run with this replicate's seed and window.
func (s *Spec) loadCheckpoint(pt point, rep int) (RunSummary, bool) {
	if s.CheckpointDir == "" {
		return RunSummary{}, false
	}
	f, err := os.Open(s.checkpointPath(pt, rep))
	if err != nil {
		return RunSummary{}, false
	}
	defer f.Close()
	r, err := core.LoadResults(f)
	if err != nil {
		return RunSummary{}, false
	}
	cfg, err := s.config(pt, rep)
	if err != nil || r.Seed != cfg.Seed || !r.Start.Equal(cfg.Start) || !r.End.Equal(cfg.End) {
		return RunSummary{}, false
	}
	rs, err := Summarize(r, s.EnvelopeGrid)
	if err != nil {
		return RunSummary{}, false
	}
	rs.Point, rs.Rep, rs.Seed = pt.label, rep, RepSeed(s.Seed, rep)
	rs.FromCheckpoint = true
	return rs, true
}
