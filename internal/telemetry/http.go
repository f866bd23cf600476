package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// scrubStatus is the process-wide hook /scrub serves. telemetry cannot
// import core (core imports telemetry), so the scrubbing process
// registers a closure instead; nil until SetScrubStatus.
var scrubStatus atomic.Pointer[func() any]

// SetScrubStatus registers fn as the source of the /scrub endpoint's
// body (typically a core.Scrubber's Status method). Pass nil to
// unregister.
func SetScrubStatus(fn func() any) {
	if fn == nil {
		scrubStatus.Store(nil)
		return
	}
	scrubStatus.Store(&fn)
}

// DebugHandler serves the operational endpoints for one process:
//
//	/metrics          flat text dump of the registry (name value lines)
//	/metrics.json     the same as JSON
//	/debug/trace      JSON array of the tracer's retained spans;
//	                  ?trace=<hex> restricts to one trace
//	/debug/trace.txt  the spans rendered as indented trace trees
//	/debug/requests   the flight recorder's wide events as JSON;
//	                  ?method= ?outcome= ?min_dur= ?anomalous=1 ?limit=
//	/slo              the SLO monitor's burn-rate status as JSON
//	/scrub            the integrity scrubber's status as JSON ({} when
//	                  no scrubber registered via SetScrubStatus)
//	/debug/pprof/     the standard net/http/pprof handlers
//
// Every endpoint serves the process-wide registry, tracer, flight
// recorder and SLO monitor.
func DebugHandler() http.Handler {
	reg, tr := Default(), DefaultTracer()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		spans := tr.Spans()
		if hex := r.URL.Query().Get("trace"); hex != "" {
			if id, err := strconv.ParseUint(hex, 16, 64); err == nil {
				spans = tr.TraceSpans(id)
			} else {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
		}
		for i := range spans {
			spans[i].fillHex()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
	mux.HandleFunc("/debug/trace.txt", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(FormatTree(tr.Spans())))
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := EventFilter{
			Method:  q.Get("method"),
			Outcome: q.Get("outcome"),
		}
		if v := q.Get("min_dur"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad min_dur", http.StatusBadRequest)
				return
			}
			f.MinDur = d
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		if v := q.Get("anomalous"); v == "1" || v == "true" {
			f.AnomalousOnly = true
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(DefaultFlightRecorder().Events(f))
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m := DefaultFlightRecorder().SLO()
		if m == nil {
			_, _ = w.Write([]byte("[]\n"))
			return
		}
		_, _ = w.Write(m.StatusJSON())
	})
	mux.HandleFunc("/scrub", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fn := scrubStatus.Load()
		if fn == nil {
			_, _ = w.Write([]byte("{}\n"))
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode((*fn)())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug endpoints on addr and returns the bound
// address and a shutdown func.
func ServeDebug(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugHandler()}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
