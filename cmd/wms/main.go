// Command wms runs the MathCloud workflow management service.  Workflow
// documents (JSON) POSTed to /workflows are validated against the live
// descriptions of the services they reference, stored, and published as
// composite services; executing a workflow is then an ordinary request to
// its composite service through the unified REST API.  An /editor page
// offers the browser-based editing surface.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/obs"
	"mathcloud/internal/platform"
	"mathcloud/internal/workflow"
)

// parseFlags registers wms's command line on fs — exactly the flags every
// container server shares — and parses args (without the program name).
func parseFlags(fs *flag.FlagSet, args []string) (*platform.ContainerConfig, error) {
	cfg := platform.ContainerFlags(fs, ":8082")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("wms: %v", err)
	}
	obs.SetLogLevel(slog.LevelInfo)
	err = run(cfg)
	obs.FlushLogs()
	if err != nil {
		log.Fatalf("wms: %v", err)
	}
}

// run serves the WMS until a shutdown signal; its deferred Close is the
// shutdown.
func run(cfg *platform.ContainerConfig) error {
	registry := adapter.NewRegistry()
	opts := cfg.Options()
	opts.Adapters = registry
	c, err := container.New(opts)
	if err != nil {
		return err
	}
	defer c.Close()

	// Workflow blocks targeting services in this very container dispatch
	// in-process; remote blocks go over HTTP.
	invoker := workflow.NewLocalInvoker(&workflow.HTTPInvoker{})
	wms := workflow.NewWMS(c, registry, invoker, invoker)

	log.Printf("wms: listening on %s", cfg.Addr)
	// The WMS handler carries its own ingress instrumentation (request
	// IDs, metrics, structured logs), so no extra logging wrapper.
	return cfg.Serve(context.Background(), c, wms.Handler())
}
