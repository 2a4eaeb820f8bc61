// Package dash is a read-only HTTP status dashboard for the monitoring
// host: the modern analogue of the paper's hourly terrace webcam (§3.2's
// footnote). It exposes the collector's mirrored logs, parsed md5sum
// ledgers, and round statistics over plain net/http, so an operator can
// check on the fleet without touching the machines — the whole point of
// the §3.5 collection loop.
//
// All endpoints are GET-only and serve either text/plain or JSON:
//
//	GET /                    plain-text overview
//	GET /healthz             liveness probe
//	GET /buildinfo           JSON build/version information
//	GET /metrics             Prometheus text exposition (with a registry)
//	GET /api/hosts           JSON host list
//	GET /api/rounds          JSON of the latest collection rounds
//	GET /api/gaps            JSON per-host gap accounting (with a ledger)
//	GET /api/ledger/{host}   JSON parsed md5sum ledger for one host
//	GET /api/series          JSON sample-series catalogue (with a SampleDB)
//	GET /api/series/{host}/{metric}?from=&to=
//	                         JSON samples in the window, streamed straight
//	                         from compressed tsdb blocks
//	GET /api/alerts          JSON active alerts (with a rules engine)
//	GET /api/rules           JSON rule statuses (with a rules engine)
//	GET /api/incidents       JSON incident log + timeline (with a rules engine)
//	GET /logs/{host}/{file}  raw mirrored log content
//
// API errors are JSON bodies of the form {"error": "..."} with the
// matching status code.
package dash

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/telemetry"
)

// Server serves a Collector's state. It performs no writes and holds no
// state of its own, so it is safe to serve while collection rounds run.
type Server struct {
	coll *monitor.Collector
	// Hosts lists the host IDs the dashboard should show. The collector
	// itself learns hosts lazily, so the roster comes from the caller.
	hosts []string
	start time.Time
	// gaps, when set, adds coverage accounting to the overview and the
	// /api/gaps endpoint. The ledger is internally locked, so it can keep
	// filling while the dashboard serves.
	gaps *monitor.GapLedger
	// reg, when set, serves the process's metrics registry on /metrics.
	reg *telemetry.Registry
	// adm, when set, bounds concurrent request handling (WithAdmission).
	adm *admission
	// cache, when set, coalesces hot scrape reads (WithScrapeCache).
	cache *scrapeCache
	// rules, when set, serves the rules engine's alert/incident state.
	// The engine is internally locked, so serving while it evaluates is
	// safe.
	rules *rules.Engine
}

// NewServer returns a dashboard over the collector for the given roster.
func NewServer(coll *monitor.Collector, hosts []string, start time.Time) *Server {
	sorted := append([]string(nil), hosts...)
	sort.Strings(sorted)
	return &Server{coll: coll, hosts: sorted, start: start}
}

// WithLedger attaches a gap ledger to the dashboard and returns it.
func (s *Server) WithLedger(g *monitor.GapLedger) *Server {
	s.gaps = g
	return s
}

// WithRules attaches a rules engine, served on /api/alerts, /api/rules
// and /api/incidents, and returns the server. Without one those
// endpoints answer 404.
func (s *Server) WithRules(eng *rules.Engine) *Server {
	s.rules = eng
	return s
}

// WithTelemetry attaches a metrics registry, served on /metrics, and
// returns the server. Without one, /metrics is 404. The dashboard's own
// serving counters are registered as scrape-time views, so overload
// shedding and cache effectiveness are visible on the same /metrics page
// the scrapers are hammering. Call it after WithAdmission/WithScrapeCache
// so the views observe the configured gates.
func (s *Server) WithTelemetry(reg *telemetry.Registry) *Server {
	s.reg = reg
	reg.CounterFunc("frostlab_dash_requests_total",
		"HTTP requests seen by the dashboard's admission gate.",
		func() float64 {
			if s.adm == nil {
				return 0
			}
			return float64(s.adm.requests.Load())
		})
	reg.CounterFunc("frostlab_dash_rejected_total",
		"Requests refused with 503 past the in-flight watermark.",
		func() float64 {
			if s.adm == nil {
				return 0
			}
			return float64(s.adm.rejected.Load())
		})
	reg.GaugeFunc("frostlab_dash_inflight",
		"Requests currently being handled.",
		func() float64 {
			if s.adm == nil {
				return 0
			}
			return float64(s.adm.inflight.Load())
		})
	reg.CounterFunc("frostlab_dash_cache_hits_total",
		"Scrape responses served from the round cache.",
		func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.hits.Load())
		})
	reg.CounterFunc("frostlab_dash_cache_misses_total",
		"Scrape responses rendered because the round cache missed.",
		func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.misses.Load())
		})
	return s
}

// Handler returns the dashboard's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /buildinfo", telemetry.BuildInfoHandler())
	if s.reg != nil {
		mux.Handle("GET /metrics", telemetry.MetricsHandler(s.reg))
	}
	mux.HandleFunc("GET /api/hosts", s.handleHosts)
	mux.HandleFunc("GET /api/rounds", s.handleRounds)
	mux.HandleFunc("GET /api/gaps", s.handleGaps)
	mux.HandleFunc("GET /api/ledger/{host}", s.handleLedger)
	mux.HandleFunc("GET /api/series", s.handleSeries)
	mux.HandleFunc("GET /api/series/{host}/{metric}", s.handleSeriesWindow)
	mux.HandleFunc("GET /api/alerts", s.handleAlerts)
	mux.HandleFunc("GET /api/rules", s.handleRules)
	mux.HandleFunc("GET /api/incidents", s.handleIncidents)
	mux.HandleFunc("GET /logs/{host}/{file}", s.handleLog)
	var h http.Handler = mux
	// Cache inside, admission outside: a cache hit still occupies an
	// in-flight slot (it does real I/O to the client), while a rejected
	// request must never render anything expensive.
	if s.cache != nil {
		h = s.cache.wrap(h)
	}
	if s.adm != nil {
		h = s.adm.wrap(h)
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "frostlab monitoring host — up since %s\n\n", s.start.Format(time.RFC3339))
	rounds, literal, total := s.coll.Totals()
	fmt.Fprintf(w, "collection rounds: %d\n", rounds)
	if total > 0 {
		fmt.Fprintf(w, "delta transfer: %d literal bytes of %d corpus (%.1f%% saved)\n",
			literal, total, (1-float64(literal)/float64(total))*100)
	}
	if s.gaps != nil && s.gaps.Rounds() > 0 {
		fmt.Fprintf(w, "fleet coverage: %.4f over %d rounds\n", s.gaps.Coverage(), s.gaps.Rounds())
	}
	fmt.Fprintf(w, "\n%-6s %10s %8s %8s  %s\n", "host", "md5 OK", "bad", "errors", "last cycle")
	for _, id := range s.hosts {
		sum, err := monitor.ParseLedger(s.coll.Mirror(id).Get(monitor.MD5Log))
		if err != nil {
			fmt.Fprintf(w, "%-6s ledger unreadable: %v\n", id, err)
			continue
		}
		last := "-"
		if !sum.LastAt.IsZero() {
			last = sum.LastAt.Format(time.RFC3339)
		}
		fmt.Fprintf(w, "%-6s %10d %8d %8d  %s\n", id, sum.OK, sum.Bad, sum.Errors, last)
	}
}

func (s *Server) handleHosts(w http.ResponseWriter, r *http.Request) {
	type hostInfo struct {
		ID    string   `json:"id"`
		Files []string `json:"files"`
	}
	out := make([]hostInfo, 0, len(s.hosts))
	for _, id := range s.hosts {
		out = append(out, hostInfo{ID: id, Files: s.coll.Mirror(id).Names()})
	}
	writeJSON(w, out)
}

func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.coll.History())
}

func (s *Server) handleGaps(w http.ResponseWriter, r *http.Request) {
	if s.gaps == nil {
		// Explicit JSON 404: "this deployment has no gap ledger" is an
		// answer, not a routing miss, and API clients should be able to
		// decode it like every other /api response.
		writeJSONError(w, http.StatusNotFound, "no gap ledger attached to this collector")
		return
	}
	writeJSON(w, struct {
		Rounds   int               `json:"rounds"`
		Coverage float64           `json:"coverage"`
		Hosts    []monitor.HostGap `json:"hosts"`
	}{s.gaps.Rounds(), s.gaps.Coverage(), s.gaps.Hosts()})
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	host := r.PathValue("host")
	if !s.knownHost(host) {
		writeJSONError(w, http.StatusNotFound, "unknown host "+host)
		return
	}
	sum, err := monitor.ParseLedger(s.coll.Mirror(host).Get(monitor.MD5Log))
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, sum)
}

// SeriesPoint is one sample in an /api/series response.
type SeriesPoint struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	db := s.coll.Samples()
	if db == nil {
		writeJSONError(w, http.StatusNotFound, "no sample plane attached to this collector")
		return
	}
	type seriesInfo struct {
		Series          string    `json:"series"`
		Samples         int64     `json:"samples"`
		Blocks          int       `json:"blocks"`
		CompressedBytes int64     `json:"compressed_bytes"`
		From            time.Time `json:"from"`
		To              time.Time `json:"to"`
	}
	infos := db.Store().Series()
	out := make([]seriesInfo, 0, len(infos))
	for _, in := range infos {
		out = append(out, seriesInfo{
			Series:          in.Name,
			Samples:         in.Samples,
			Blocks:          in.Blocks,
			CompressedBytes: in.CompressedBytes,
			From:            time.Unix(0, in.MinTime).UTC(),
			To:              time.Unix(0, in.MaxTime).UTC(),
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleSeriesWindow(w http.ResponseWriter, r *http.Request) {
	db := s.coll.Samples()
	if db == nil {
		writeJSONError(w, http.StatusNotFound, "no sample plane attached to this collector")
		return
	}
	name := r.PathValue("host") + "/" + r.PathValue("metric")
	from, to := int64(math.MinInt64), int64(math.MaxInt64)
	if q := r.URL.Query().Get("from"); q != "" {
		at, err := time.Parse(time.RFC3339, q)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "bad from: "+err.Error())
			return
		}
		from = at.UnixNano()
	}
	if q := r.URL.Query().Get("to"); q != "" {
		at, err := time.Parse(time.RFC3339, q)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "bad to: "+err.Error())
			return
		}
		to = at.UnixNano()
	}
	it, err := db.Store().Query(name, from, to)
	if err != nil {
		writeJSONError(w, http.StatusNotFound, "unknown series "+name)
		return
	}
	// Stream straight off the compressed blocks: a long window never
	// materialises as a []SeriesPoint on the monitoring host, only as
	// bytes in flight. The byte layout replicates writeJSON's encoder
	// (SetIndent("", " ")) exactly — TestSeriesWindowStreamsIdenticalBytes
	// holds the two paths together — so clients cannot tell the paths
	// apart.
	w.Header().Set("Content-Type", "application/json")
	bw := bufio.NewWriter(w)
	nameJSON, err := json.Marshal(name)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	bw.WriteString("{\n \"series\": ")
	bw.Write(nameJSON)
	bw.WriteString(",\n \"points\": [")
	n := 0
	for it.Next() {
		t, v := it.At()
		p, err := json.MarshalIndent(SeriesPoint{At: time.Unix(0, t).UTC(), Value: v}, "  ", " ")
		if err != nil {
			// Headers are long gone; truncating the body is the only
			// honest failure signal left.
			return
		}
		if n > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n  ")
		bw.Write(p)
		n++
	}
	if it.Err() != nil {
		return
	}
	if n > 0 {
		bw.WriteString("\n ]")
	} else {
		bw.WriteString("]")
	}
	bw.WriteString("\n}\n")
	_ = bw.Flush()
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.rules == nil {
		writeJSONError(w, http.StatusNotFound, "no rules engine attached to this dashboard")
		return
	}
	alerts := s.rules.ActiveAlerts()
	pending, firing := 0, 0
	for _, a := range alerts {
		if a.State == rules.StateFiring.String() {
			firing++
		} else {
			pending++
		}
	}
	writeJSON(w, struct {
		Pending int                 `json:"pending"`
		Firing  int                 `json:"firing"`
		Alerts  []rules.AlertStatus `json:"alerts"`
	}{pending, firing, alerts})
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	if s.rules == nil {
		writeJSONError(w, http.StatusNotFound, "no rules engine attached to this dashboard")
		return
	}
	writeJSON(w, s.rules.RuleStatuses())
}

func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if s.rules == nil {
		writeJSONError(w, http.StatusNotFound, "no rules engine attached to this dashboard")
		return
	}
	writeJSON(w, struct {
		Incidents rules.IncidentLog `json:"incidents"`
		Timeline  []rules.Event     `json:"timeline"`
	}{s.rules.Incidents(), s.rules.Timeline()})
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	host := r.PathValue("host")
	file := r.PathValue("file")
	if !s.knownHost(host) {
		http.Error(w, "unknown host", http.StatusNotFound)
		return
	}
	data := s.coll.Mirror(host).Get(file)
	if data == nil {
		http.Error(w, "no such log", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(data)
}

func (s *Server) knownHost(id string) bool {
	for _, h := range s.hosts {
		if h == id {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSONError sends {"error": msg} with the given status.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
