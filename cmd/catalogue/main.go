// Command catalogue runs the MathCloud service catalogue: a web
// application for discovery, monitoring and annotation of computational
// web services.  Services are published by POSTing {"uri", "tags"} to
// /services; the catalogue retrieves their descriptions through the
// unified REST API, indexes them and answers full-text /search queries
// with highlighted snippets.  Published services are pinged periodically
// and marked when unavailable.  With -data-dir every registration is
// journaled as it happens and survives a restart.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net"
	"os"
	"time"

	"mathcloud/internal/catalogue"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

// config is the parsed command line, separated from main so flag handling
// is testable without exec'ing the binary.
type config struct {
	addr    string
	ping    time.Duration
	dataDir string
	walSync journal.SyncMode
}

// parseFlags registers the catalogue's command line on fs and parses args
// (without the program name) into a config.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":8081", "listen address")
	fs.DurationVar(&cfg.ping, "ping", time.Minute, "availability ping interval (0 disables)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "write-ahead journal directory: every registration is durable as it happens (checkpointed periodically)")
	walSync := fs.String("wal-sync", "batch", "journal durability mode: off, batch or always (with -data-dir)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	cfg.walSync, err = journal.ParseSyncMode(*walSync)
	return cfg, err
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("catalogue: %v", err)
	}
	obs.SetLogLevel(slog.LevelInfo)
	err = run(cfg)
	obs.FlushLogs()
	if err != nil {
		log.Fatalf("catalogue: %v", err)
	}
}

// run serves the catalogue until a shutdown signal; its deferred Close calls
// are the shutdown.
func run(cfg *config) error {
	cat := catalogue.New(catalogue.ClientDescriber{})
	if cfg.dataDir != "" {
		jl, err := journal.Open(cfg.dataDir, journal.Options{Mode: cfg.walSync})
		if err != nil {
			return err
		}
		defer jl.Close()
		if err := cat.AttachJournal(jl); err != nil {
			return err
		}
		log.Printf("catalogue: recovered %d service(s) from journal %s", cat.Size(), cfg.dataDir)
	}
	if cfg.ping > 0 {
		cat.StartPinger(cfg.ping)
	}
	defer cat.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("catalogue: listening on %s (ping interval %s)", cfg.addr, cfg.ping)
	// The ingress instrumentation supplies request IDs, per-route metrics
	// and structured request logs.
	return obs.Serve(context.Background(), ln, obs.Instrument(cat.Handler()), "")
}
