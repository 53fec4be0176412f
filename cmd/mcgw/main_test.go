package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parse runs parseFlags on a fresh, quiet flag set, which it also returns.
func parse(args ...string) (*config, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("mcgw", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, err := parseFlags(fs, args)
	return cfg, fs, err
}

// TestFlagNames pins the command line: exactly these flags, no others.
func TestFlagNames(t *testing.T) {
	_, fs, err := parse("-replicas", "r01=http://a:8080")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "debug-addr", "fanout-timeout", "load-interval", "ping-interval", "replicas"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, _, err := parse("-replicas", "r01=http://a:8080,r02=http://b:8080")
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if cfg.addr != ":8090" {
		t.Fatalf("addr default %q", cfg.addr)
	}
	if cfg.pingInterval != 5*time.Second || cfg.fanout != 5*time.Second {
		t.Fatalf("interval defaults: ping %v fanout %v", cfg.pingInterval, cfg.fanout)
	}
	if cfg.loadInterval != 2*time.Second {
		t.Fatalf("load-interval default %v", cfg.loadInterval)
	}
	if len(cfg.replicas) != 2 ||
		cfg.replicas[0].Name != "r01" || cfg.replicas[0].BaseURL != "http://a:8080" ||
		cfg.replicas[1].Name != "r02" || cfg.replicas[1].BaseURL != "http://b:8080" {
		t.Fatalf("replicas parsed wrong: %+v", cfg.replicas)
	}
}

func TestParseFlagsFull(t *testing.T) {
	cfg, _, err := parse(
		"-addr", ":9999",
		"-replicas", " r01 = http://a:8080 ",
		"-ping-interval", "2s",
		"-load-interval", "500ms",
		"-fanout-timeout", "1s",
		"-debug-addr", "127.0.0.1:6061",
	)
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if cfg.addr != ":9999" ||
		cfg.pingInterval != 2*time.Second || cfg.fanout != time.Second ||
		cfg.loadInterval != 500*time.Millisecond ||
		cfg.debugAddr != "127.0.0.1:6061" {
		t.Fatalf("flags parsed wrong: %+v", cfg)
	}
	if len(cfg.replicas) != 1 || cfg.replicas[0].Name != "r01" || cfg.replicas[0].BaseURL != "http://a:8080" {
		t.Fatalf("whitespace not trimmed: %+v", cfg.replicas)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{}, "missing -replicas"},
		{[]string{"-replicas", ""}, "missing -replicas"},
		{[]string{"-replicas", "r01"}, "invalid replica"},
		{[]string{"-replicas", "r01=ftp://a"}, "invalid replica base URL"},
		{[]string{"-replicas", "r01=http://a,r01=http://b"}, "duplicate replica"},
		// Deleted flags.
		{[]string{"-replicas", "r01=http://a", "-placement", "rr"}, "flag provided but not defined"},
		{[]string{"-replicas", "r01=http://a", "-max-wait", "30s"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		if _, _, err := parse(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("parseFlags(%v) err %v, want containing %q", c.args, err, c.want)
		}
	}
}
