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
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
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
	pingInterval time.Duration
	loadInterval time.Duration
	fanout       time.Duration
	debugAddr    string
}

// parseFlags registers mcgw's command line on fs and parses args (without
// the program name) into a config.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":8090", "listen address")
	replicas := fs.String("replicas", "", "comma-separated replica set: name=baseURL[,name=baseURL...]")
	fs.DurationVar(&cfg.pingInterval, "ping-interval", 5*time.Second, "replica health probe interval")
	fs.DurationVar(&cfg.loadInterval, "load-interval", 2*time.Second, "replica load poll interval (negative disables load-aware placement and admission control)")
	fs.DurationVar(&cfg.fanout, "fanout-timeout", 5*time.Second, "per-replica deadline for scatter-gather requests and health probes")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "optional pprof/metrics listener (e.g. 127.0.0.1:6061)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	cfg.replicas, err = parseReplicas(*replicas)
	return cfg, err
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
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("mcgw: %v", err)
	}
	obs.SetLogLevel(slog.LevelInfo)
	err = run(cfg)
	obs.FlushLogs()
	if err != nil {
		log.Fatalf("mcgw: %v", err)
	}
}

// run routes until a shutdown signal; its deferred Close, which stops the
// probes and the event pumps, is the shutdown.
func run(cfg *config) error {
	g, err := gateway.New(gateway.Options{
		Replicas:      cfg.replicas,
		PingInterval:  cfg.pingInterval,
		LoadInterval:  cfg.loadInterval,
		FanoutTimeout: cfg.fanout,
	})
	if err != nil {
		return err
	}
	defer g.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(cfg.replicas))
	for _, r := range cfg.replicas {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	log.Printf("mcgw: routing across %d replica(s) %v on %s", len(names), names, cfg.addr)
	return obs.Serve(context.Background(), ln, g.Handler(), cfg.debugAddr)
}
