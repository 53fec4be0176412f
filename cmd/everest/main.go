// Command everest runs a MathCloud service container: it deploys the
// computational web services described in a JSON configuration file and
// publishes them through the unified REST API, together with the
// auto-generated web interface.
//
// Usage:
//
//	everest -addr :8080 -config services.json [-workers 8] [-data DIR]
//
// The configuration file has the shape:
//
//	{
//	  "clusters": [{"name": "local", "nodes": [{"name": "n1", "slots": 4}]}],
//	  "grid": {"seed": 1, "sites": [
//	      {"name": "siteA", "vos": ["mathcloud"], "reliability": 0.9,
//	       "nodes": [{"name": "a1", "slots": 4}]}]},
//	  "services": [ ...container.ServiceConfig... ]
//	}
//
// The built-in application services (CAS, AMPL solver/translator, X-ray
// curve and fit) are pre-registered as native functions, so configuration
// files can deploy them by name; -builtin additionally deploys the whole
// standard set.
//
// SIGINT or SIGTERM drains in-flight requests and closes the container: the
// journal (with -data-dir) keeps every accepted unfinished job, which the
// next start re-drives, and a temporary data directory is removed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/ampl"
	"mathcloud/internal/cas"
	"mathcloud/internal/container"
	"mathcloud/internal/grid"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
	"mathcloud/internal/platform"
	"mathcloud/internal/scatter"
	"mathcloud/internal/torque"
)

type nodeSpec struct {
	Name  string `json:"name"`
	Slots int    `json:"slots"`
}

type configFile struct {
	Clusters []struct {
		Name  string     `json:"name"`
		Nodes []nodeSpec `json:"nodes"`
	} `json:"clusters,omitempty"`
	Grid *struct {
		Seed  int64 `json:"seed"`
		Sites []struct {
			Name        string     `json:"name"`
			VOs         []string   `json:"vos"`
			Reliability float64    `json:"reliability"`
			Nodes       []nodeSpec `json:"nodes"`
		} `json:"sites"`
	} `json:"grid,omitempty"`
	Services []container.ServiceConfig `json:"services"`
}

// config is the parsed command line, separated from main so flag handling
// is testable without exec'ing the binary.
type config struct {
	*platform.ContainerConfig
	opts       container.Options
	configPath string
	builtin    bool
}

// parseFlags registers everest's command line on fs — the flags every
// container server shares, then everest's own — and parses args (without the
// program name) into a config.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	cfg := &config{ContainerConfig: platform.ContainerFlags(fs, ":8080")}
	fs.StringVar(&cfg.configPath, "config", "", "service configuration file (JSON)")
	fs.BoolVar(&cfg.builtin, "builtin", false, "deploy the built-in application services")
	data := fs.String("data", "", "data directory (default: temporary)")
	durableDir := fs.String("data-dir", "", "durable root: file store under <dir>, write-ahead journal under <dir>/journal; jobs, sweeps, the catalogue of deployed state and the memo table survive restarts (overrides -data)")
	walSync := fs.String("wal-sync", "batch", "journal durability mode: off, batch or always (with -data-dir)")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "journal checkpoint period (with -data-dir; negative disables)")
	jobTTL := fs.Duration("job-ttl", 0, "default destruction TTL of terminal jobs and sweeps (0 = keep until DELETE)")
	replica := fs.String("replica", "", "replica identity in a federated deployment (1-16 of [a-z0-9]; prefixes all minted IDs)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.opts = cfg.Options()
	cfg.opts.DataDir = *data
	cfg.opts.JobTTL = *jobTTL
	cfg.opts.ReplicaID = *replica
	if *durableDir != "" {
		mode, err := journal.ParseSyncMode(*walSync)
		if err != nil {
			return nil, err
		}
		cfg.opts.DataDir = *durableDir
		cfg.opts.JournalDir = filepath.Join(*durableDir, "journal")
		cfg.opts.WALSync = mode
		cfg.opts.SnapshotInterval = *snapInterval
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("everest: %v", err)
	}
	// Structured request/job logs are informational in a server process
	// (they default to warn-level quiet for library use and tests).
	obs.SetLogLevel(slog.LevelInfo)
	err = run(cfg)
	obs.FlushLogs()
	if err != nil {
		log.Fatalf("everest: %v", err)
	}
}

// run deploys and serves the container until a shutdown signal; its
// deferred Close calls are the shutdown.
func run(cfg *config) error {
	// Make every built-in computational function available to configs.
	cas.Register()
	ampl.RegisterFuncs()
	scatter.RegisterFuncs()

	// The clusters close after the container (defers run last in, first
	// out).  Closing a cluster cancels its batch jobs, so closing it first
	// would fail the service jobs running on it while the journal is still
	// open, instead of leaving them to be re-driven on restart.
	var clusters []*torque.Cluster
	defer func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}()
	registry := adapter.NewRegistry()
	cfg.opts.Adapters = registry
	c, err := container.New(cfg.opts)
	if err != nil {
		return err
	}
	defer c.Close()

	if cfg.configPath != "" {
		if clusters, err = deployConfig(c, registry, cfg.configPath); err != nil {
			return err
		}
	}
	if cfg.builtin {
		if _, err := cas.Deploy(c, "maxima", 1); err != nil {
			return err
		}
		for _, svc := range []container.ServiceConfig{
			ampl.SolverServiceConfig("solver"),
			ampl.TranslatorServiceConfig("translator"),
			scatter.CurveServiceConfig("xray-curve"),
			scatter.FitServiceConfig("xray-fit"),
		} {
			if err := c.Deploy(svc); err != nil {
				return err
			}
		}
	}

	// Recover after every service is deployed (re-driven jobs need their
	// adapters) and before the listener accepts traffic.
	if err := c.Recover(); err != nil {
		return err
	}

	names := make([]string, 0)
	for _, d := range c.Services() {
		names = append(names, d.Name)
	}
	log.Printf("everest: serving %d service(s) %v on %s", len(names), names, cfg.Addr)
	// The container handler carries its own ingress instrumentation
	// (request IDs, metrics, structured logs), so no extra logging wrapper.
	return cfg.Serve(context.Background(), c, c.Handler())
}

// deployConfig deploys the services of a configuration file, after the
// clusters and grid sites their adapters run on.  It returns the clusters it
// started, for the caller to close, even on error.
func deployConfig(c *container.Container, registry *adapter.Registry, path string) ([]*torque.Cluster, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read config: %w", err)
	}
	var cfg configFile
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parse config: %w", err)
	}
	var started []*torque.Cluster
	newCluster := func(name string, specs []nodeSpec) (*torque.Cluster, error) {
		nodes := make([]torque.NodeSpec, len(specs))
		for i, n := range specs {
			nodes[i] = torque.NodeSpec{Name: n.Name, Slots: n.Slots}
		}
		cluster, err := torque.New(name, nodes, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", name, err)
		}
		started = append(started, cluster)
		return cluster, nil
	}
	clusters := torque.NewClusterRegistry()
	for _, cc := range cfg.Clusters {
		cluster, err := newCluster(cc.Name, cc.Nodes)
		if err != nil {
			return started, err
		}
		clusters.Add(cluster)
	}
	registry.Register("cluster", torque.NewAdapterFactory(clusters, registry))
	if cfg.Grid != nil {
		var sites []*grid.Site
		for _, sc := range cfg.Grid.Sites {
			cluster, err := newCluster(sc.Name, sc.Nodes)
			if err != nil {
				return started, err
			}
			sites = append(sites, &grid.Site{
				Name: sc.Name, Cluster: cluster,
				VOs: sc.VOs, Reliability: sc.Reliability,
			})
		}
		infra, err := grid.New(sites, cfg.Grid.Seed)
		if err != nil {
			return started, fmt.Errorf("grid: %w", err)
		}
		registry.Register("grid", grid.NewAdapterFactory(infra, registry))
	}
	return started, c.DeployAll(cfg.Services)
}
