package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"mathcloud/internal/journal"
)

// parse runs parseFlags on a fresh, quiet flag set, which it also returns.
func parse(args ...string) (*config, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("everest", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, err := parseFlags(fs, args)
	return cfg, fs, err
}

// TestFlagNames pins the command line: the five shared container flags plus
// everest's own, no others.
func TestFlagNames(t *testing.T) {
	_, fs, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "base-url", "builtin", "config", "data", "data-dir", "debug-addr",
		"job-ttl", "max-wait", "replica", "snapshot-interval", "wal-sync", "workers"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
}

func TestParseFlagsOptions(t *testing.T) {
	cfg, _, err := parse("-addr", "127.0.0.1:18080", "-workers", "3", "-max-wait", "2s",
		"-data-dir", "/srv/mc", "-wal-sync", "always", "-snapshot-interval", "5s",
		"-replica", "r01", "-job-ttl", "1h", "-builtin")
	if err != nil {
		t.Fatal(err)
	}
	o := cfg.opts
	if cfg.Addr != "127.0.0.1:18080" || !cfg.builtin || o.Workers != 3 || o.MaxWaitWindow != 2*time.Second ||
		o.DataDir != "/srv/mc" || o.JournalDir != "/srv/mc/journal" || o.WALSync != journal.SyncAlways ||
		o.SnapshotInterval != 5*time.Second || o.ReplicaID != "r01" || o.JobTTL != time.Hour {
		t.Fatalf("parsed wrong: addr %q builtin %v opts %+v", cfg.Addr, cfg.builtin, o)
	}
	// Without -data-dir: -data only, no journal.
	cfg, _, err = parse("-data", "/tmp/x")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.DataDir != "/tmp/x" || cfg.opts.JournalDir != "" || cfg.opts.Workers != 8 {
		t.Fatalf("defaults parsed wrong: %+v", cfg.opts)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-data-dir", "/d", "-wal-sync", "sometimes"}, "unknown sync mode"},
		// Deleted flags.
		{[]string{"-snapshot-bytes", "1"}, "flag provided but not defined"},
		{[]string{"-memo-entries", "1"}, "flag provided but not defined"},
		{[]string{"-memo-bytes", "1"}, "flag provided but not defined"},
		{[]string{"-batch", "1"}, "flag provided but not defined"},
		{[]string{"-sweep-width", "1"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		if _, _, err := parse(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseFlags(%v) err %v, want containing %q", c.args, err, c.want)
		}
	}
}
