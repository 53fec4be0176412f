package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/platform"
)

// parse runs parseFlags on a fresh, quiet flag set, which it also returns.
func parse(args ...string) (*platform.ContainerConfig, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("wms", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, err := parseFlags(fs, args)
	return cfg, fs, err
}

// TestFlagNames pins the command line: the five shared container flags, no
// others.
func TestFlagNames(t *testing.T) {
	_, fs, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "base-url", "debug-addr", "max-wait", "workers"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
}

func TestParseFlags(t *testing.T) {
	cfg, _, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":8082" || cfg.Workers != 8 {
		t.Fatalf("defaults: %+v", cfg)
	}
	cfg, _, err = parse("-addr", "127.0.0.1:9000", "-workers", "2", "-max-wait", "5s",
		"-base-url", "http://wms.example", "-debug-addr", "127.0.0.1:6061")
	if err != nil {
		t.Fatal(err)
	}
	want := platform.ContainerConfig{Addr: "127.0.0.1:9000", Workers: 2, MaxWait: 5 * time.Second,
		BaseURL: "http://wms.example", DebugAddr: "127.0.0.1:6061"}
	if *cfg != want {
		t.Fatalf("parsed %+v, want %+v", *cfg, want)
	}
	for _, gone := range []string{"memo-entries", "memo-bytes", "batch", "sweep-width"} {
		if _, _, err := parse("-"+gone, "1"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err %v, want flag provided but not defined", gone, err)
		}
	}
}
