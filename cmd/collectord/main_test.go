package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"frostlab/internal/monitor"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDumpMirrorReplacesAtomically: a mirror dump replaces each file
// whole and leaves no temporary behind; a dump that cannot write leaves
// the previous mirror as it was.
func TestDumpMirrorReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	coll := monitor.NewCollector(64)
	m := coll.Mirror("01")
	m.Put(monitor.SensorLog, []byte("round 1\n"))
	m.Put(monitor.MD5Log, []byte("md5 1\n"))
	if err := dumpMirror(coll, "01", dir); err != nil {
		t.Fatal(err)
	}
	sensor := filepath.Join(dir, "01", monitor.SensorLog)
	md5log := filepath.Join(dir, "01", monitor.MD5Log)

	m.Put(monitor.SensorLog, []byte("round 1\nround 2\n"))
	m.Put(monitor.MD5Log, []byte("md5 1\nmd5 2\n"))
	// A directory where the temporary file goes makes the write fail.
	if err := os.Mkdir(md5log+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := dumpMirror(coll, "01", dir); err == nil {
		t.Fatal("dump with an unwritable temporary succeeded")
	}
	if got := readFile(t, md5log); got != "md5 1\n" {
		t.Errorf("failed dump changed %s to %q", monitor.MD5Log, got)
	}

	if err := os.Remove(md5log + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := dumpMirror(coll, "01", dir); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, sensor); got != "round 1\nround 2\n" {
		t.Errorf("%s = %q after the second dump", monitor.SensorLog, got)
	}
	if got := readFile(t, md5log); got != "md5 1\nmd5 2\n" {
		t.Errorf("%s = %q after the second dump", monitor.MD5Log, got)
	}
	left, err := filepath.Glob(filepath.Join(dir, "01", "*.tmp"))
	if err != nil || len(left) != 0 {
		t.Errorf("temporaries left behind: %v %v", left, err)
	}
}

// TestWriteFileAtomicTornWrite: a write that fails halfway leaves the
// previous file intact and removes the partial temporary.
func TestWriteFileAtomicTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mirror.log")
	if err := os.WriteFile(path, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the ne"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want %v", err, boom)
	}
	if got := readFile(t, path); got != "previous\n" {
		t.Errorf("torn write changed the file to %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("partial temporary left behind: %v", err)
	}
}
