package platform

import (
	"context"
	"flag"
	"net"
	"net/http"
	"time"

	"mathcloud/internal/container"
	"mathcloud/internal/obs"
)

// ContainerConfig is the command line the container servers (everest and
// wms) share.  ContainerFlags registers it; the flag set's Parse fills it.
type ContainerConfig struct {
	Addr      string
	BaseURL   string
	DebugAddr string
	Workers   int
	MaxWait   time.Duration
}

// ContainerFlags registers the shared container flags on fs.
func ContainerFlags(fs *flag.FlagSet, defaultAddr string) *ContainerConfig {
	cc := &ContainerConfig{}
	fs.StringVar(&cc.Addr, "addr", defaultAddr, "listen address")
	fs.IntVar(&cc.Workers, "workers", 8, "job handler pool size")
	fs.StringVar(&cc.BaseURL, "base-url", "", "externally visible base URL (default: http://<addr>)")
	fs.StringVar(&cc.DebugAddr, "debug-addr", "", "optional pprof/metrics listener (e.g. 127.0.0.1:6060)")
	fs.DurationVar(&cc.MaxWait, "max-wait", 0, "cap on ?wait= long-poll windows and SSE idle streams (0 = default 60s, negative uncapped)")
	return cc
}

// Options returns the container options the shared flags set.
func (cc *ContainerConfig) Options() container.Options {
	return container.Options{Workers: cc.Workers, MaxWaitWindow: cc.MaxWait}
}

// Serve listens on Addr, points the URIs c mints at BaseURL (by default at
// the bound listener) and runs obs.Serve with h until shutdown.
func (cc *ContainerConfig) Serve(ctx context.Context, c *container.Container, h http.Handler) error {
	ln, err := net.Listen("tcp", cc.Addr)
	if err != nil {
		return err
	}
	base := cc.BaseURL
	if base == "" {
		base = listenerURL(ln.Addr())
	}
	c.SetBaseURL(base)
	return obs.Serve(ctx, ln, h, cc.DebugAddr)
}

// listenerURL is the base URL of a bound listener: its own host and port,
// with a wildcard host (":8080", "0.0.0.0:8080", "[::]:8080") named
// localhost.
func listenerURL(addr net.Addr) string {
	host, port, _ := net.SplitHostPort(addr.String()) // a TCP address always splits
	if ip := net.ParseIP(host); host == "" || ip != nil && ip.IsUnspecified() {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}
