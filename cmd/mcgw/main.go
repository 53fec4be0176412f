// Command mcgw runs the MathCloud federation gateway: a stateless routing
// tier that exposes the unified REST API of a single container while
// fanning requests out over N container replicas (DESIGN.md §5h).
//
// Usage:
//
//	mcgw -addr :8090 -replicas r01=http://host1:8080,r02=http://host2:8080
//
// Each replica must run with the matching identity (everest -replica r01)
// and with -base-url pointing at the gateway, so the absolute URIs replicas
// mint route back through the gateway.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mathcloud/internal/gateway"
	"mathcloud/internal/obs"
)

// config is the parsed command line, separated from main so flag handling
// is testable without exec'ing the binary.
type config struct {
	addr         string
	replicas     []gateway.Replica
	maxWait      time.Duration
	pingInterval time.Duration
	loadInterval time.Duration
	fanout       time.Duration
	debugAddr    string
}

// parseFlags parses args (without the program name) into a config.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("mcgw", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	replicas := fs.String("replicas", "", "comma-separated replica set: name=baseURL[,name=baseURL...]")
	maxWait := fs.Duration("max-wait", 0, "cap on SSE idle streams (0 = default 60s, negative uncapped)")
	pingInterval := fs.Duration("ping-interval", 5*time.Second, "replica health probe interval")
	loadInterval := fs.Duration("load-interval", 2*time.Second, "replica load/memo-index poll interval (negative disables load-aware placement and result-reuse routing)")
	fanout := fs.Duration("fanout-timeout", 5*time.Second, "per-replica deadline for scatter-gather requests and health probes")
	debugAddr := fs.String("debug-addr", "", "optional pprof/metrics listener (e.g. 127.0.0.1:6061)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	reps, err := parseReplicas(*replicas)
	if err != nil {
		return nil, err
	}
	return &config{
		addr:         *addr,
		replicas:     reps,
		maxWait:      *maxWait,
		pingInterval: *pingInterval,
		loadInterval: *loadInterval,
		fanout:       *fanout,
		debugAddr:    *debugAddr,
	}, nil
}

// parseReplicas parses the -replicas value: "name=baseURL" pairs separated
// by commas.
func parseReplicas(s string) ([]gateway.Replica, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("missing -replicas (want name=baseURL[,name=baseURL...])")
	}
	var out []gateway.Replica
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, base, ok := strings.Cut(part, "=")
		name, base = strings.TrimSpace(name), strings.TrimSpace(base)
		if !ok || name == "" || base == "" {
			return nil, fmt.Errorf("invalid replica %q (want name=baseURL)", part)
		}
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			return nil, fmt.Errorf("invalid replica base URL %q (want http:// or https://)", base)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate replica name %q", name)
		}
		seen[name] = true
		out = append(out, gateway.Replica{Name: name, BaseURL: base})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("missing -replicas (want name=baseURL[,name=baseURL...])")
	}
	return out, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatalf("mcgw: %v", err)
	}
	obs.SetLogLevel(slog.LevelInfo)

	g, err := gateway.New(gateway.Options{
		Replicas:      cfg.replicas,
		PingInterval:  cfg.pingInterval,
		LoadInterval:  cfg.loadInterval,
		FanoutTimeout: cfg.fanout,
		MaxWaitWindow: cfg.maxWait,
	})
	if err != nil {
		log.Fatalf("mcgw: %v", err)
	}
	defer g.Close()

	if cfg.debugAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/metrics", obs.MetricsHandler())
			mux.Handle("/status", obs.StatusHandler())
			log.Printf("mcgw: debug listener on %s", cfg.debugAddr)
			log.Println(http.ListenAndServe(cfg.debugAddr, mux))
		}()
	}

	names := make([]string, 0, len(cfg.replicas))
	for _, r := range cfg.replicas {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	log.Printf("mcgw: routing across %d replica(s) %v on %s", len(names), names, cfg.addr)
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}
