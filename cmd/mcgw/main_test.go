package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-replicas", "r01=http://a:8080,r02=http://b:8080"})
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
	cfg, err := parseFlags([]string{
		"-addr", ":9999",
		"-replicas", " r01 = http://a:8080 ",
		"-max-wait", "30s",
		"-ping-interval", "2s",
		"-load-interval", "500ms",
		"-fanout-timeout", "1s",
		"-debug-addr", "127.0.0.1:6061",
	})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if cfg.addr != ":9999" || cfg.maxWait != 30*time.Second ||
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
		{[]string{"-replicas", "r01=http://a", "-placement", "rr"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		if _, err := parseFlags(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("parseFlags(%v) err %v, want containing %q", c.args, err, c.want)
		}
	}
}
