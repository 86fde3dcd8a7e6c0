package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/ident"
)

// Handler returns the HTTP mux for this observer:
//
//	/metrics        Prometheus text exposition of the Registry
//	/healthz        JSON health probe (503 until the node reports running)
//	/debug/dat      registered debug sections (the node's DAT table view)
//	/debug/spans    human-readable span-ring dump; ?trace=<hex id> and
//	                ?key=<decimal key> restrict it to one round or tree
//	/debug/load     per-tree load table (?sort=sent|recv|elems|bytes|
//	                fanin|retries|root|load) plus the cluster-wide
//	                self-monitoring summary when installed
//	/debug/overload overload-layer state: flush thresholds, queue
//	                depth/age and hi-water, per-peer circuit breakers
//	/debug/pprof/*  net/http/pprof profiles
//
// datnode serves it on -obs.addr; tests mount it on httptest servers.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Errors past the first byte are undetectable anyway; the
		// encoder only fails when the client goes away mid-scrape.
		_ = o.Reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h, _ := o.currentHealth()
		w.Header().Set("Content-Type", "application/json")
		if !h.Running {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/debug/dat", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		o.writeDebug(w)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		keep, err := spanFilter(r.URL.Query().Get("trace"), r.URL.Query().Get("key"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		o.Spans.DumpFiltered(w, keep)
	})
	mux.HandleFunc("/debug/load", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		o.writeLoad(w, r.URL.Query().Get("sort"))
	})
	mux.HandleFunc("/debug/overload", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		o.writeOverload(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// spanFilter builds the /debug/spans keep predicate from its query
// parameters: trace is the 16-hex-digit trace ID as printed by the dump
// (an optional 0x prefix is accepted), key the decimal aggregation key.
// Both may be combined; empty strings are no constraint.
func spanFilter(trace, key string) (func(Span) bool, error) {
	var keep func(Span) bool
	if trace != "" {
		tv, err := strconv.ParseUint(strings.TrimPrefix(trace, "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad trace %q: want the hex trace ID as printed by the dump", trace)
		}
		keep = func(s Span) bool { return s.Trace == tv }
	}
	if key != "" {
		kv, err := strconv.ParseUint(key, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key %q: want the decimal aggregation key", key)
		}
		prev := keep
		keep = func(s Span) bool {
			return s.Key == ident.ID(kv) && (prev == nil || prev(s))
		}
	}
	return keep, nil
}

// Serve listens on addr and serves Handler in a background goroutine.
// It returns the bound address (useful with ":0") and a stop function
// that closes the listener. Serve errors after stop are expected and
// dropped; anything else is logged.
func Serve(addr string, o *Observer, logger *slog.Logger) (bound string, stop func(), err error) {
	if logger == nil {
		logger = NopLogger()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: o.Handler()}
	go func() {
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			logger.Warn("obs http server stopped", "addr", ln.Addr().String(), "err", serr)
		}
	}()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
