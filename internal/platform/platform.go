// Package platform is the bootstrap of the MathCloud container servers:
// ContainerFlags is the command line everest and wms share, and StartLocal
// provides one-call local deployments of the stack — container, HTTP
// listener, adapter registry, optional WMS and catalogue — used by the
// examples, the experiment harness and the benchmarks.  It is glue, not
// substance: everything it wires together is the ordinary public API of the
// other packages.
package platform

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"

	"mathcloud/internal/adapter"
	"mathcloud/internal/catalogue"
	"mathcloud/internal/container"
	"mathcloud/internal/obs"
	"mathcloud/internal/workflow"
)

// Options configure a local deployment.
type Options struct {
	// Workers is the container's handler pool size (default 8).
	Workers int
	// Quiet suppresses request logging (default true behaviour is quiet;
	// set Verbose to enable logs).
	Verbose bool
	// WithWMS additionally mounts a workflow management service.
	WithWMS bool
	// WithCatalogue additionally starts a service catalogue on a second
	// listener.
	WithCatalogue bool
	// Guard optionally secures the container.
	Guard container.Guard
}

// Deployment is a running local MathCloud instance.
type Deployment struct {
	// Container is the Everest instance.
	Container *container.Container
	// Registry is the adapter registry used by the container.
	Registry *adapter.Registry
	// BaseURL is the container's (or WMS's) HTTP base URL.
	BaseURL string
	// WMS is non-nil when Options.WithWMS was set.
	WMS *workflow.WMS
	// Catalogue and CatalogueURL are set when WithCatalogue was chosen.
	Catalogue    *catalogue.Catalogue
	CatalogueURL string

	stop   context.CancelFunc // ends every serve loop
	served sync.WaitGroup
}

// StartLocal builds, wires and serves a local deployment on loopback
// ports.
func StartLocal(opts Options) (*Deployment, error) {
	logger := log.New(io.Discard, "", 0)
	if opts.Verbose {
		logger = log.Default()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 8
	}
	registry := adapter.NewRegistry()
	c, err := container.New(container.Options{
		Workers:  workers,
		Logger:   logger,
		Adapters: registry,
		Guard:    opts.Guard,
	})
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &Deployment{Container: c, Registry: registry, stop: stop}

	var handler http.Handler = c.Handler()
	if opts.WithWMS {
		// The local invoker dispatches workflow blocks whose services live
		// in this process straight into the job manager (registered via
		// SetBaseURL below); everything else goes over HTTP through the
		// shared tuned transport.
		invoker := workflow.NewLocalInvoker(&workflow.HTTPInvoker{})
		d.WMS = workflow.NewWMS(c, registry, invoker, invoker)
		handler = d.WMS.Handler()
	}
	base, err := d.serve(ctx, handler)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.BaseURL = base
	c.SetBaseURL(base)

	if opts.WithCatalogue {
		d.Catalogue = catalogue.New(catalogue.ClientDescriber{})
		catURL, err := d.serve(ctx, d.Catalogue.Handler())
		if err != nil {
			d.Close()
			return nil, err
		}
		d.CatalogueURL = catURL
	}
	return d, nil
}

func (d *Deployment) serve(ctx context.Context, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("platform: listen: %w", err)
	}
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		if err := obs.ServeUntil(ctx, ln, h); err != nil {
			log.Printf("platform: serve: %v", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// Close drains the listeners, then shuts down the catalogue pinger and the
// container.
func (d *Deployment) Close() {
	d.stop()
	d.served.Wait()
	if d.Catalogue != nil {
		d.Catalogue.Close()
	}
	d.Container.Close()
}
