package platform

import (
	"context"
	"flag"
	"net"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/container"
)

// TestListenerURL: the default base URL names the bound listener, so a
// host-qualified -addr mints URIs that resolve, and a wildcard host becomes
// localhost.
func TestListenerURL(t *testing.T) {
	cases := []struct {
		addr net.TCPAddr
		want string
	}{
		{net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 18080}, "http://127.0.0.1:18080"},
		{net.TCPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 80}, "http://10.1.2.3:80"},
		{net.TCPAddr{IP: net.IPv6loopback, Port: 9000}, "http://[::1]:9000"},
		{net.TCPAddr{Port: 8080}, "http://localhost:8080"},                          // ":8080"
		{net.TCPAddr{IP: net.IPv4zero, Port: 8080}, "http://localhost:8080"},        // "0.0.0.0:8080"
		{net.TCPAddr{IP: net.IPv6unspecified, Port: 8080}, "http://localhost:8080"}, // "[::]:8080"
	}
	for _, c := range cases {
		if got := listenerURL(&c.addr); got != c.want {
			t.Errorf("listenerURL(%s) = %q, want %q", c.addr.String(), got, c.want)
		}
	}
}

// TestContainerServeBaseURL drives the shared flags end to end: the base URL
// a container mints follows -base-url, or else the listener -addr bound.
func TestContainerServeBaseURL(t *testing.T) {
	cases := []struct {
		args []string
		want string // prefix; the port is the kernel's choice
	}{
		{[]string{"-addr", "127.0.0.1:0"}, "http://127.0.0.1:"},
		{[]string{"-addr", ":0"}, "http://localhost:"},
		{[]string{"-addr", "127.0.0.1:0", "-base-url", "http://gw.example:8190"}, "http://gw.example:8190"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		cc := ContainerFlags(fs, ":8080")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		c, err := container.New(cc.Options())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- cc.Serve(ctx, c, c.Handler()) }()
		deadline := time.Now().Add(5 * time.Second)
		for c.BaseURL() == "" && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		got := c.BaseURL()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("%v: Serve = %v", tc.args, err)
		}
		c.Close()
		if !strings.HasPrefix(got, tc.want) || strings.Count(got, ":") != 2 {
			t.Errorf("%v: base URL %q, want %s<port>", tc.args, got, tc.want)
		}
	}
}
