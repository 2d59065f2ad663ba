// The telemetry HTTP endpoint behind cmd/hotpath's and cmd/dynamo's
// -telemetry-addr flag:
//
//	/metrics        Prometheus text exposition
//	/snapshot       versioned JSON snapshot (netpath-telemetry/v1)
//	/debug/vars     expvar (includes the published snapshot)
//	/debug/pprof/   the standard net/http/pprof handlers
//
// Request handling is cold: it serves scrapes, never instrument writes.
//
//netpathvet:cold-file
package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// RegisterOn mounts the registry's scrape routes on an external mux, so a
// host service (cmd/netpathd) serves telemetry and its own API from one
// listener. The routes are exactly the standalone server's; registering two
// registries on one mux is a caller error (duplicate patterns panic, as
// net/http always does).
func (r *Registry) RegisterOn(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the registry's HTTP mux (the standalone-server form of
// RegisterOn).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	r.RegisterOn(mux)
	return mux
}

// Serve starts the telemetry HTTP server on addr in a background goroutine
// and returns once the listener is bound (so ":0" callers can read the
// resolved address). It marks the process telemetry-active and publishes the
// expvar snapshot. Close the returned server to stop.
func Serve(addr string, r *Registry) (*http.Server, net.Addr, error) {
	if r == nil {
		r = Def
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: %w", err)
	}
	SetActive(true)
	PublishExpvar()
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
