package dash

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"frostlab/internal/monitor"
)

// sampleLog renders n agent-style sensor lines starting at t0 and returns
// the raw log bytes.
func sampleLog(n int) []byte {
	var buf bytes.Buffer
	at := t0
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%s cpu=%.1f disk0=%.1f\n",
			at.UTC().Format(time.RFC3339), -8+0.1*float64(i%100), 5+0.1*float64(i%30))
		at = at.Add(20 * time.Minute)
	}
	return buf.Bytes()
}

// seededSeriesServer builds a dashboard whose collector carries a sample
// plane fed with raw, then returns the server and the raw log.
func seededSeriesServer(t *testing.T, n int) (*httptest.Server, []byte) {
	t.Helper()
	raw := sampleLog(n)
	db := monitor.NewSampleDB()
	db.Ingest("01", monitor.SensorLog, raw)
	coll := monitor.NewCollector(0).WithSamples(db)
	coll.Mirror("01").Put(monitor.SensorLog, raw)
	srv := httptest.NewServer(NewServer(coll, []string{"01"}, t0).Handler())
	t.Cleanup(srv.Close)
	return srv, raw
}

// SeriesWindow is the /api/series/{host}/{metric} response shape, which
// the handler streams point by point; the tests marshal it whole as the
// reference representation.
type SeriesWindow struct {
	Series string        `json:"series"`
	Points []SeriesPoint `json:"points"`
}

// referenceWindowJSON renders the response the old raw-mirror path would
// have produced: re-parse the raw log with the exact live parser and
// marshal through the same encoder the handler uses.
func referenceWindowJSON(t *testing.T, raw []byte, series string, from, to time.Time) string {
	t.Helper()
	out := SeriesWindow{Series: series, Points: []SeriesPoint{}}
	monitor.ParseSamples("01", raw, func(name string, ts int64, v float64) {
		if name != series {
			return
		}
		at := time.Unix(0, ts).UTC()
		if at.Before(from) || at.After(to) {
			return
		}
		out.Points = append(out.Points, SeriesPoint{At: at, Value: v})
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestAPISeriesWindowByteIdentical(t *testing.T) {
	// 3000 samples: the series spans multiple sealed blocks plus a live
	// head, so the response is decoded from compressed storage — and must
	// be byte-for-byte what serving from the raw mirror produced.
	srv, raw := seededSeriesServer(t, 3000)

	code, body := get(t, srv.URL+"/api/series/01/cpu")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	want := referenceWindowJSON(t, raw, "01/cpu",
		time.Time{}, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
	if body != want {
		t.Fatalf("full-range response diverged from raw-mirror reference\ngot  %d bytes\nwant %d bytes", len(body), len(want))
	}

	from := t0.Add(24 * time.Hour)
	to := t0.Add(48 * time.Hour)
	url := fmt.Sprintf("%s/api/series/01/cpu?from=%s&to=%s", srv.URL,
		from.Format(time.RFC3339), to.Format(time.RFC3339))
	code, body = get(t, url)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	want = referenceWindowJSON(t, raw, "01/cpu", from, to)
	if body != want {
		t.Fatalf("windowed response diverged from raw-mirror reference")
	}
	if !strings.Contains(body, `"value"`) || strings.Count(body, `"at"`) != 73 {
		t.Fatalf("window holds %d samples, want 73 (20-min cadence over 24h, both ends inclusive)", strings.Count(body, `"at"`))
	}
}

func TestAPISeriesCatalogue(t *testing.T) {
	srv, _ := seededSeriesServer(t, 100)
	code, body := get(t, srv.URL+"/api/series")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var infos []struct {
		Series          string `json:"series"`
		Samples         int64  `json:"samples"`
		CompressedBytes int64  `json:"compressed_bytes"`
	}
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Series != "01/cpu" || infos[1].Series != "01/disk0" {
		t.Fatalf("catalogue %v", infos)
	}
	for _, in := range infos {
		if in.Samples != 100 || in.CompressedBytes == 0 {
			t.Errorf("series %s: samples=%d compressed=%d", in.Series, in.Samples, in.CompressedBytes)
		}
	}
}

func TestAPISeriesErrors(t *testing.T) {
	srv, _ := seededSeriesServer(t, 10)
	if code, _ := get(t, srv.URL+"/api/series/01/nope"); code != http.StatusNotFound {
		t.Errorf("unknown series: status %d", code)
	}
	if code, _ := get(t, srv.URL+"/api/series/01/cpu?from=yesterday"); code != http.StatusBadRequest {
		t.Errorf("bad from: status %d", code)
	}

	// Without a sample plane the endpoints answer like /api/gaps without
	// a ledger: a decodable JSON 404.
	plain, _ := seededServer(t)
	code, body := get(t, plain.URL+"/api/series")
	if code != http.StatusNotFound || !strings.Contains(body, "error") {
		t.Errorf("no sample plane: status %d body %s", code, body)
	}
}

func TestExistingEndpointsUnchangedBySamplePlane(t *testing.T) {
	// Attaching the sample plane must not perturb any pre-existing
	// endpoint's bytes: same mirrors, byte-identical responses.
	raw := sampleLog(50)
	build := func(withSamples bool) *httptest.Server {
		coll := monitor.NewCollector(0)
		if withSamples {
			db := monitor.NewSampleDB()
			db.Ingest("01", monitor.SensorLog, raw)
			coll.WithSamples(db)
		}
		coll.Mirror("01").Put(monitor.SensorLog, raw)
		coll.Mirror("01").Put(monitor.MD5Log, []byte("2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e\n"))
		srv := httptest.NewServer(NewServer(coll, []string{"01"}, t0).Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	before := build(false)
	after := build(true)
	for _, ep := range []string{"/", "/api/hosts", "/api/rounds", "/api/ledger/01", "/logs/01/" + monitor.SensorLog} {
		c1, b1 := get(t, before.URL+ep)
		c2, b2 := get(t, after.URL+ep)
		if c1 != c2 || b1 != b2 {
			t.Errorf("%s changed after attaching sample plane (status %d->%d)", ep, c1, c2)
		}
	}
}
