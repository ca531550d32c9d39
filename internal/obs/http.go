package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the opt-in HTTP introspection listener daemons bind with
// -metrics addr: /metrics (Prometheus text), /debug/vars (the
// registry's JSON), and the stdlib pprof handlers under /debug/pprof/.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and serves reg until Close. Pass addr ":0" to let
// the kernel pick a port (tests); Addr reports the bound address.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener. In-flight scrapes are abandoned; the
// daemons only call this on the way out. The listener is closed here,
// not only by the serving goroutine: a Close that lands before that
// goroutine has started would otherwise return with the port still
// bound.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.ln.Close()
	return err
}
