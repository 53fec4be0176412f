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
	fs := flag.NewFlagSet("catalogue", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, err := parseFlags(fs, args)
	return cfg, fs, err
}

// TestFlagNames pins the command line: exactly these flags, no others.
func TestFlagNames(t *testing.T) {
	_, fs, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "data-dir", "ping", "wal-sync"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
}

func TestParseFlags(t *testing.T) {
	cfg, _, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if want := (config{addr: ":8081", ping: time.Minute, walSync: journal.SyncBatch}); *cfg != want {
		t.Fatalf("defaults %+v, want %+v", *cfg, want)
	}
	cfg, _, err = parse("-addr", "127.0.0.1:9001", "-ping", "0", "-data-dir", "/srv/cat", "-wal-sync", "always")
	if err != nil {
		t.Fatal(err)
	}
	if want := (config{addr: "127.0.0.1:9001", dataDir: "/srv/cat", walSync: journal.SyncAlways}); *cfg != want {
		t.Fatalf("parsed %+v, want %+v", *cfg, want)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-wal-sync", "sometimes"}, "unknown sync mode"},
		{[]string{"-store", "cat.json"}, "flag provided but not defined"}, // deleted
	}
	for _, c := range cases {
		if _, _, err := parse(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseFlags(%v) err %v, want containing %q", c.args, err, c.want)
		}
	}
}
