package obs

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// This file holds every http.Server of the MathCloud binaries: the public
// server loop (Serve, ServeUntil) and the private debug listener.

// drainWindow bounds how long a server that is shutting down waits for its
// in-flight requests, ?wait= long-polls and event streams included, before it
// closes their connections.
const drainWindow = 5 * time.Second

// Serve is the server loop of every MathCloud binary.  It serves h on ln, and
// the debug endpoint on debugAddr when that is non-empty, until ctx ends or
// the process receives SIGINT or SIGTERM.  It then drains in-flight requests
// for up to drainWindow and returns nil, so the caller's deferred Close calls
// run.  A second signal during the drain kills the process the default way.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, debugAddr string) error {
	if debugAddr != "" {
		dbg, err := ServeDebug(debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dbg.Close()
		log.Printf("debug/pprof listener on http://%s/debug/pprof/", dbg.Addr)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	return ServeUntil(ctx, ln, h)
}

// ServeUntil serves h on ln until ctx ends, then stops accepting and drains
// for up to drainWindow.  It is the one place a public http.Server is built:
// a header timeout, but no read or write timeout, so long-polls and event
// streams are never cut mid-way.  Library deployments call it directly, to
// serve without capturing the process's signals.
func ServeUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), drainWindow)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		_ = srv.Close() // the window has passed: cut what is left
	}
	<-errc // http.ErrServerClosed
	return nil
}

// ServeDebug starts the opt-in debug server on addr: net/http/pprof under
// /debug/pprof/ plus the /metrics and /status views of the default
// registry.  It returns the running server (its Addr field holds the bound
// address, useful with ":0"); shut it down with Close.  The profiler is
// wired on a private mux, so enabling it never leaks pprof onto the
// container's public API surface.
func ServeDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/status", StatusHandler())
	srv := &http.Server{
		Addr:              ln.Addr().String(),
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
